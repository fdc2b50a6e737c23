import pytest

from ealc import (
    App, Arrow, Bang, BangLam, BangType, Forall, Lam,
    TyVar, TypeStructureError, UNIT, Var, alpha_eq, bool_term,
    check_stratification, church_string, decode_church_string, depth_map,
    erase_annotations, is_unit, parse_term, parse_type, print_term,
    print_type, ParseError,
    split_occurrences, subst_term, subst_type, truncate_term, type_alpha_eq,
)
from ealc.syntax import all_names, occurrences

from corpus import EAL_CLOSED, MUEAL_CLOSED


# -- parsing ------------------------------------------------------------------

def test_parse_identity():
    t = parse_term(r"\x:a. x")
    assert t == t  # identity equality; structure below
    match t:
        case Lam("x", TyVar("a"), Var("x")):
            pass
        case _:
            raise AssertionError(t)


def test_parse_let_bang_desugars_to_application():
    t = parse_term("let !x = u in t")
    match t:
        case App(BangLam("x", _, Var("t")), Var("u")):
            pass
        case _:
            raise AssertionError(t)


def test_parse_forall_bang_arrow():
    ty = parse_type("forall a. !a -o a")
    match ty:
        case Forall("a", Arrow(BangType(TyVar("a")), TyVar("a"))):
            pass
        case _:
            raise AssertionError(ty)


def test_named_types_expand():
    assert type_alpha_eq(parse_type("forall a. a -o a -o a"), parse_type("Bool"))
    assert type_alpha_eq(
        parse_type("forall a. !(a -o a) -o !(a -o a) -o !(a -o a)"),
        parse_type("Str"))
    assert type_alpha_eq(
        parse_type("mu b. forall a. (b -o a) -o (b -o a) -o a -o a"),
        parse_type("StrS"))
    assert type_alpha_eq(parse_type("1"), UNIT)
    assert type_alpha_eq(parse_type("M2"), parse_type("forall a. a -o a -o a"))


def test_class_violations_rejected_at_parse():
    with pytest.raises((ParseError, TypeStructureError)):
        parse_type("forall a. !a")
    with pytest.raises((ParseError, TypeStructureError)):
        parse_type("forall a. a")
    with pytest.raises((ParseError, TypeStructureError)):
        parse_type("mu b. !b")


def test_parse_errors_positioned():
    with pytest.raises(ParseError):
        parse_term(r"\x:a.")
    with pytest.raises(ParseError):
        parse_term("(x")
    with pytest.raises(ParseError):
        parse_term("x ?")


def test_comments_and_whitespace():
    t = parse_term("-- a comment\n  \\x:a. -- mid\n x")
    assert alpha_eq(t, parse_term(r"\x:a. x"))


# -- printing round trips -----------------------------------------------------

def test_round_trip_corpus():
    for name, term, _ in EAL_CLOSED + MUEAL_CLOSED:
        again = parse_term(print_term(term))
        assert alpha_eq(term, again), name


def test_round_trip_types():
    for src in ["Bool", "Str", "Nat", "StrS", "1", "M5",
                "forall a. (a -o a) -o !a -o a",
                "mu b. forall a. (b -o a) -o a -o a",
                "!(1 -o 1)", "!!Bool"]:
        ty = parse_type(src)
        assert type_alpha_eq(ty, parse_type(print_type(ty))), src


def test_print_examples():
    assert print_type(parse_type("Str")) == \
        "forall a. !(a -o a) -o !(a -o a) -o !(a -o a)"
    assert print_term(Bang(Var("x"))) == "!x"
    assert print_type(UNIT) == "1"


# -- substitution -------------------------------------------------------------

def test_subst_basic():
    assert alpha_eq(subst_term(Var("x"), "x", bool_term(True)), bool_term(True))
    t = subst_term(Lam("y", TyVar("a"), Var("x")), "x", Var("y"))
    match t:  # binder renamed away from the free y being substituted in
        case Lam(y2, _, Var("y")):
            assert y2 != "y"
        case _:
            raise AssertionError(t)


def test_subst_type_no_capture():
    s = parse_type("forall a. a -o b")
    out = subst_type(s, "b", parse_type("a -o a"))
    match out:
        case Forall(a2, Arrow(TyVar(a3), Arrow(TyVar("a"), TyVar("a")))):
            assert a2 == a3 and a2 != "a"
        case _:
            raise AssertionError(out)
    assert subst_type(s, "c", parse_type("Bool")) is s  # c not free


def test_substitution_lemma():
    # t{x:=u}{y:=v} = t{y:=v}{x:=u{y:=v}} when x != y and x not free in v
    cases = [
        (parse_term("f x (g y)"), parse_term("h y"), parse_term(r"\z:a. z")),
        (parse_term(r"\w:a. x w y"), parse_term("y"), parse_term("k")),
        (parse_term("x y"), parse_term(r"\p:a. y p"), parse_term("q q'")),
    ]
    for t, u, v in cases:
        lhs = subst_term(subst_term(t, "x", u), "y", v)
        rhs = subst_term(subst_term(t, "y", v), "x", subst_term(u, "y", v))
        assert alpha_eq(lhs, rhs), print_term(t)


# -- alpha equivalence --------------------------------------------------------

def test_alpha_examples():
    assert alpha_eq(parse_term(r"\x:a. x"), parse_term(r"\y:a. y"))
    assert not alpha_eq(parse_term(r"\x:a. x"), parse_term(r"\x:a. \y:a. x"))
    assert type_alpha_eq(parse_type("forall a. a -o a"),
                         parse_type("forall b. b -o b"))
    assert not type_alpha_eq(parse_type("forall a. a -o a"),
                             parse_type("forall a. a -o a -o a"))


def test_alpha_is_congruence_and_equivalence():
    terms = [t for _, t, _ in EAL_CLOSED[:8]]
    for t in terms:
        assert alpha_eq(t, t)
    for t in terms:
        for u in terms:
            if alpha_eq(t, u):
                assert alpha_eq(u, t)
                assert alpha_eq(App(t, Var("v")), App(u, Var("v")))


def test_alpha_distinguishes_free_names():
    assert not alpha_eq(Var("x"), Var("y"))
    assert alpha_eq(Var("x"), Var("x"))


# -- depth and stratification -------------------------------------------------

def test_depth_map_examples():
    t = Bang(Var("x"))
    assert depth_map(t)[(0,)] == 1
    t = BangLam("f", parse_type("a -o a"), Bang(App(Var("f"), Var("y"))))
    dm = depth_map(t)
    assert dm[(0, 0, 0)] == 1  # f
    assert dm[(0, 0, 1)] == 1  # y
    # inside a Church string the step functions are used at depth 1
    w = church_string("0")
    under_f0 = w.body.body  # strip /\a and \!f0
    occs = list(occurrences(under_f0, "f0"))
    assert occs and all(d == 1 for _, d in occs)


def test_stratification_examples():
    ok = parse_term(r"\!x:(a -o a). !x")
    assert check_stratification(ok) == []
    bad = parse_term(r"\!x:(a -o a). x")
    v = check_stratification(bad)
    assert len(v) == 1 and "depth 0" in v[0].reason
    bad2 = parse_term(r"\x:(a -o a). \y:a. x (x y)")
    v2 = check_stratification(bad2)
    assert any("second occurrence" in x.reason for x in v2)


def test_stratification_depth_too_deep():
    t = Lam("x", TyVar("a"), Bang(Var("x")))
    v = check_stratification(t)
    assert len(v) == 1 and "depth 1" in v[0].reason


# -- occurrence splitting -----------------------------------------------------

def test_split_occurrences():
    t = parse_term("f x x")
    t2, names = split_occurrences(t, "x")
    assert names == ["x1", "x2"]
    assert alpha_eq(t2, parse_term("f x1 x2"))
    back = t2
    for nm in names:
        back = subst_term(back, nm, Var("x"))
    assert alpha_eq(back, t)

    t3, names3 = split_occurrences(parse_term("f y"), "x")
    assert names3 == [] and alpha_eq(t3, parse_term("f y"))

    t4, names4 = split_occurrences(parse_term("x !a' !b'"), "x")
    assert names4 == ["x1"]
    assert alpha_eq(t4, parse_term("x1 !a' !b'"))


def test_split_avoids_existing_names():
    t = parse_term("x x1")
    t2, names = split_occurrences(t, "x")
    assert names[0] != "x1"


# -- erasure ------------------------------------------------------------------

def test_erase_examples():
    t = parse_term(r"/\a. \x:a. x")
    assert alpha_eq(erase_annotations(t), parse_term(r"\x. x"))
    t = parse_term("fold[StrS] u")
    assert alpha_eq(erase_annotations(t), Var("u"))
    w = erase_annotations(church_string("01"))
    assert alpha_eq(w, parse_term(r"\!f0. \!f1. !(\x. f0 (f1 x))"))


def test_is_unit_recognizes_alpha_variants():
    assert is_unit(parse_type("forall b. b -o b"))
    assert not is_unit(parse_type("forall b. b -o b -o b"))


# -- deep terms ---------------------------------------------------------------

def test_walks_on_a_long_church_string():
    # Every term walk runs on an explicit stack, so a Church string of 10^4
    # letters (a term 10^4 deep) passes each one at the default recursion
    # limit.
    w = "0110" * 2500
    t = church_string(w)
    inner = t.body.body.body.body  # \x:a. f_{w1} (... (f_{wn} x))
    spine = " (".join("f" + c for c in w) + " x" + ")" * (len(w) - 1)
    assert print_term(t) == r"/\a. \!f0:(a -o a). \!f1:(a -o a). !(\x:a. %s)" % spine
    assert all_names(t) == {"f0", "f1", "x"}
    assert check_stratification(t) == []
    assert decode_church_string(t) == w
    assert alpha_eq(t, church_string(w))
    assert not alpha_eq(t, church_string(w[:-1] + "1"))
    assert {d for _, d in occurrences(t.body.body, "f0")} == {1}
    assert sum(1 for _ in occurrences(inner, "f1")) == w.count("1")
    assert alpha_eq(truncate_term(inner), inner)
    erased = Var("x")
    for c in reversed(w):
        erased = App(Var("f" + c), erased)
    assert alpha_eq(erase_annotations(inner), Lam("x", None, erased))
    # A term's free names and depth_map's paths grow with its depth, so
    # these two walks are quadratic in it; 1200 letters are already past
    # the recursion limit.
    short = church_string(w[:1200])
    dm = depth_map(short)
    assert len(dm) == 2 * 1200 + 6 and dm[(0,) * 5 + (1,) * 1200] == 1
    t2, names = split_occurrences(short.body.body.body.body, "f1")
    assert len(names) == w[:1200].count("1") and "f1" not in t2.fvs
