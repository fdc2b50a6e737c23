import time

import pytest

from ealc import (
    App, Arrow, Bang, BangLam, BangType, Fold, Forall, Lam, Mu, Term,
    TyApp, TyLam, TyVar, Type, TypeStructureError, UNIT, Unfold, Var,
    alpha_eq, bool_term,
    check_stratification, church_string, decode_church_string, depth_map,
    erase_annotations, is_unit, parse_term, parse_type, print_term,
    print_type, ParseError, scott_string,
    split_occurrences, subst_term, subst_type, truncate_term, type_alpha_eq,
)
from ealc.syntax import (
    StratificationViolation, all_names, children, occurrences, preorder,
)

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
    # line:col of the offending token, or of the end of input
    for text, line, col, msg in [
            (r"\x:a.", 1, 6, "expected a term (at 'end of input')"),
            ("(x", 1, 3, "expected ')' (at 'end of input')"),
            ("x ?", 1, 3, "unexpected character '?'"),
            ("-- c\n\\x:a.\n  (x", 3, 5, "expected ')' (at 'end of input')"),
            ("\\x:a.\n\tx ]\n", 2, 4, "trailing input (at ']')"),
            ("x\n\n  \\y. y ?", 3, 9, "unexpected character '?'"),
            ("let !x = u\nin", 2, 3, "expected a term (at 'end of input')"),
            ("\\x:(a -o\n !).x", 2, 3, "expected a type (at ')')")]:
        with pytest.raises(ParseError) as e:
            parse_term(text)
        assert (e.value.line, e.value.col) == (line, col), text
        assert str(e.value) == "%d:%d: %s" % (line, col, msg), text


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


def test_long_scott_string_prints_in_linear_time():
    # A Scott string nests each suffix one level deeper, about 190
    # characters a letter; printing emits each piece once, into one list.
    w = "01" * 5000
    t = scott_string(w)
    t0 = time.perf_counter()
    text = print_term(t)
    assert time.perf_counter() - t0 < 1.0
    empty = print_term(scott_string(""))  # fold[S] (/\a. ... \x:a. x)
    head = empty[:-len("x)")]
    assert text == "".join(head + "f%s (" % c for c in w) + head + "x" + ")" * (2 * len(w) + 1)


# -- node classes -------------------------------------------------------------

_A = TyVar("a")
_X = Var("x")
ONE_OF_EACH = [
    TyVar("a"), Arrow(_A, _A), BangType(_A), Forall("a", Arrow(_A, _A)),
    Mu("a", Arrow(_A, _A)), Var("x"), Lam("x", _A, _X), BangLam("x", None, _X),
    App(_X, _X), Bang(_X), TyLam("a", _X), TyApp(_X, _A), Fold(_A, _X),
    Unfold(_X),
]


def test_one_of_each_node_class():
    concrete = {cls for base in (Term, Type) for cls in base.__subclasses__()}
    assert {type(node) for node in ONE_OF_EACH} == concrete
    assert len(concrete) == 14


def test_nodes_compare_and_hash_by_identity():
    x, y = Var("x"), Var("x")
    assert x != y and x == x
    assert TyVar("a") != TyVar("a")
    seen = {x: 1, y: 2, App(x, y): 3}
    assert len(seen) == 3 and seen[x] == 1 and seen[y] == 2


def test_every_node_class_matches_positionally():
    for node in ONE_OF_EACH:
        fields = tuple(getattr(node, name) for name in type(node).__match_args__)
        match node:
            case TyVar(p) | BangType(p) | Var(p) | Bang(p) | Unfold(p):
                got = (p,)
            case (Arrow(p, q) | Forall(p, q) | Mu(p, q) | App(p, q)
                  | TyLam(p, q) | TyApp(p, q) | Fold(p, q)):
                got = (p, q)
            case Lam(p, q, r) | BangLam(p, q, r):
                got = (p, q, r)
        assert got == fields, node
        again = type(node)(*fields)
        assert again.ftv == node.ftv
        assert getattr(again, "fvs", None) == getattr(node, "fvs", None)


def test_node_repr_names_every_field():
    assert repr(App(Var("f"), Lam("x", None, Var("x")))) == (
        "App(fn=Var(name='f'), arg=Lam(var='x', ty=None, body=Var(name='x')))")
    assert repr(Forall("a", Arrow(_A, _A))) == (
        "Forall(var='a', body=Arrow(src=TyVar(name='a'), dst=TyVar(name='a')))")


def _type_free(ty, bound=frozenset()):
    match ty:
        case TyVar(a):
            return set() if a in bound else {a}
        case Arrow(src, dst):
            return _type_free(src, bound) | _type_free(dst, bound)
        case BangType(body):
            return _type_free(body, bound)
        case Forall(a, body) | Mu(a, body):
            return _type_free(body, bound | {a})


def _free_by_preorder(t):
    """{path: (free term names, free type names)} for every subterm of t,
    from each occurrence and the binders on the path above it."""
    free = {}
    for path, _, s in preorder(t):
        free[path] = (set(), set())
        spine = [t]  # spine[k] is the subterm at path[:k]
        for i in path:
            spine.append(children(spine[-1])[i])
        name = s.name if isinstance(s, Var) else None
        ty = getattr(s, "ty", None)
        tnames = set() if ty is None else _type_free(ty)
        for k in range(len(path), -1, -1):
            node = spine[k]
            if k < len(path):  # s lies in node's body
                if isinstance(node, (Lam, BangLam)) and node.var == name:
                    name = None
                if isinstance(node, TyLam):
                    tnames.discard(node.var)
            if name is not None:
                free[path[:k]][0].add(name)
            free[path[:k]][1].update(tnames)
    return free


def test_free_variables_match_a_reference_on_the_corpus():
    for name, term, ty in EAL_CLOSED + MUEAL_CLOSED:
        assert ty.ftv == _type_free(ty), name
        free = _free_by_preorder(term)
        for path, _, s in preorder(term):
            assert (s.fvs, s.ftv) == free[path], (name, path)
    # open terms, with free names of both kinds
    t = parse_term(r"\x:a. f (y [b -o c]) (/\b. \z:b. x)")
    assert (t.fvs, t.ftv) == ({"f", "y"}, {"a", "b", "c"})
    assert (t.fvs, t.ftv) == _free_by_preorder(t)[()]


def test_quantifier_bodies_stay_strictly_linear():
    for make in (Forall, Mu):
        with pytest.raises(TypeStructureError):
            make("a", BangType(Arrow(_A, _A)))
        with pytest.raises(TypeStructureError):
            make("a", _A)
    assert Forall("a", Arrow(BangType(_A), _A)).ftv == frozenset()


def test_stratification_violations_are_values():
    bad = check_stratification(parse_term(r"\x:a. \f:a -o a -o a. f x x"))
    assert bad == [StratificationViolation(
        (), "x", (0, 0, 1), "second occurrence of a linear variable")]
    with pytest.raises(AttributeError):
        bad[0].reason = "none"
