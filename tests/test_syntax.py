import gc
import time

import pytest

from ealc import (
    App, Arrow, BOOL, Bang, BangLam, BangType, EAL, Fold, Forall, Lam, MUEAL, Mu,
    STRS, Term, TyApp, TyLam, TyVar, Type, TypeStructureError, UNIT, Unfold, Var,
    alpha_eq, bool_term,
    check_stratification, church_string, decode_church_string,
    erase_annotations, is_unit, pair, parse_term, parse_type, print_term,
    print_type, ParseError, scott_string,
    subst_term, subst_type, tensor, truncate_term, type_alpha_eq, typecheck_closed,
)
from ealc.encode import pair_elim
from ealc import syntax
from ealc.syntax import (
    StratificationViolation, all_names, children, occurrences, path_of,
    preorder,
)

from corpus import EAL_CLOSED, MUEAL_CLOSED, depth_map, split_occurrences


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


_TRUE, _FALSE, _ONE = bool_term(True), bool_term(False), scott_string("1")
_PAIR = pair(_TRUE, BOOL, _FALSE, BOOL)


@pytest.mark.parametrize("text, desugared, mode, ty", [
    ("<(%s):Bool, (%s):Bool>" % (print_term(_TRUE), print_term(_FALSE)),
     _PAIR, EAL, tensor(BOOL, BOOL)),
    ("let[Bool] <x:Bool, y:Bool> = %s in y" % print_term(_PAIR),
     pair_elim(_PAIR, BOOL, BOOL, "x", "y", Var("y"), BOOL), EAL, BOOL),
    ("case[Bool] %s of {0 x -> %s | 1 y -> %s | e -> %s}"
     % (print_term(_ONE), print_term(_FALSE), print_term(_TRUE), print_term(_FALSE)),
     App(App(App(TyApp(Unfold(_ONE), BOOL), Lam("x", STRS, _FALSE)),
             Lam("y", STRS, _TRUE)), _FALSE), MUEAL, BOOL),
], ids=["pair", "let-pair", "case"])
def test_sugar_parses_to_its_desugaring(text, desugared, mode, ty):
    # the desugarings of parser.py's docstring, which typecheck and print back
    t = parse_term(text)
    assert alpha_eq(t, desugared)
    assert type_alpha_eq(typecheck_closed(mode, t), ty)
    assert alpha_eq(parse_term(print_term(t)), t)


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


# Malformed inputs and the exact text of their ParseError: line:col of the
# offending token or of the end of input, except for a type that breaks the
# grammar classes, which is reported without a position.
PARSE_ERRORS = [
    (parse_term, '\\x:a.',
     "1:6: expected a term (at 'end of input')"),
    (parse_term, '(x',
     "1:3: expected ')' (at 'end of input')"),
    (parse_term, 'x ?',
     "1:3: unexpected character '?'"),
    (parse_term, '-- c\n\\x:a.\n  (x',
     "3:5: expected ')' (at 'end of input')"),
    (parse_term, '\\x:a.\n\tx ]\n',
     "2:4: trailing input (at ']')"),
    (parse_term, 'x\n\n  \\y. y ?',
     "3:9: unexpected character '?'"),
    (parse_term, 'let !x = u\nin',
     "2:3: expected a term (at 'end of input')"),
    (parse_term, '\\x:(a -o\n !).x',
     "2:3: expected a type (at ')')"),
    (parse_term, '\\x:a. x # y',
     "1:9: unexpected character '#'"),
    (parse_term, '\\x:a. x\n  $',
     "2:3: unexpected character '$'"),
    (parse_term, 'x - y',
     "1:3: unexpected character '-'"),
    (parse_term, '\\x:a. x\té',
     "1:9: unexpected character 'é'"),
    (parse_term, '(\\x:a. x',
     "1:9: expected ')' (at 'end of input')"),
    (parse_term, '(f x))',
     "1:6: trailing input (at ')')"),
    (parse_term, 'f [Bool',
     "1:8: expected ']' (at 'end of input')"),
    (parse_term, '<x:Bool, y:Bool',
     "1:16: expected '>' (at 'end of input')"),
    (parse_term, '\\x:a x',
     "1:6: expected '.' (at 'x')"),
    (parse_term, '\\x:a.\n',
     "2:1: expected a term (at 'end of input')"),
    (parse_term, 'let !x:Bool = y x',
     "1:18: expected 'in' (at 'end of input')"),
    (parse_term, 'let <x:a, y:b> = p\nin',
     "2:3: expected a term (at 'end of input')"),
    (parse_term, 'case[Bool] s of {0 x a | 1 y -> b | e -> c}',
     "1:22: expected '->' (at 'a')"),
    (parse_term, 'case[Bool] s of {0 x -> a | 1 y -> b | e -> c',
     "1:46: expected '}' (at 'end of input')"),
    (parse_term, 'case s of {0 x -> a | 1 y -> b | f -> c}',
     "1:34: expected 'e' (at 'f')"),
    (parse_term, 'x y ]',
     "1:5: trailing input (at ']')"),
    (parse_term, 'x\n-- a comment\n)',
     "3:1: trailing input (at ')')"),
    (parse_term, '/\\a. \\x:forall b. !b. x',
     'forall body must be strictly linear, got !b'),
    (parse_term, 'fold Bool x',
     "1:6: expected '[' (at 'Bool')"),
    (parse_term, '\\!:a. x',
     "1:3: expected an identifier (at ':')"),
    (parse_term, 'let[Bool] !x = y in x',
     "1:11: let !x takes no result annotation (at '!')"),
    (parse_term, '',
     "1:1: expected a term (at 'end of input')"),
    (parse_term, '-- only a comment',
     "1:18: expected a term (at 'end of input')"),
    (parse_term, '\\x:(a -o b. x',
     "1:11: expected ')' (at '.')"),
    (parse_term, '\\f:a -o. f',
     "1:8: expected a type (at '.')"),
    (parse_term, 'let !x:Bool = y in\n\n  (x x',
     "3:7: expected ')' (at 'end of input')"),
    (parse_type, 'forall a. !a',
     'forall body must be strictly linear, got !a'),
    (parse_type, 'mu b. b',
     'mu body must be strictly linear, got b'),
    (parse_type, 'a -o',
     "1:5: expected a type (at 'end of input')"),
    (parse_type, 'Str[a',
     "1:6: expected ']' (at 'end of input')"),
    (parse_type, 'a b',
     "1:3: trailing input (at 'b')"),
    (parse_type, '!(a -o a))',
     "1:10: trailing input (at ')')"),
    (parse_type, 'forall . a',
     "1:8: expected an identifier (at '.')"),
    (parse_type, 'a -o\n  (b -o c',
     "2:10: expected ')' (at 'end of input')"),
    # unclosed nesting 200 levels deep, in terms and in types
    (parse_term, '(' * 200 + 'x',
     "1:202: expected ')' (at 'end of input')"),
    (parse_term, '<' * 200 + 'x',
     "1:202: expected ',' (at 'end of input')"),
    (parse_term, 'f [' + 'Str[' * 200 + 'a',
     "1:805: expected ']' (at 'end of input')"),
    (parse_term, '\\x:' + '(' * 200 + 'a. x',
     "1:205: expected ')' (at '.')"),
    # Str[ with no ]
    (parse_term, '\\x:Str[a. x',
     "1:9: expected ']' (at '.')"),
    (parse_term, 'x [Str[Bool]',
     "1:13: expected ']' (at 'end of input')"),
    # forall a with no . in a bracket annotation
    (parse_term, 'f [forall a a -o a]',
     "1:13: expected '.' (at 'a')"),
    (parse_term, 'f [forall a]',
     "1:12: expected '.' (at ']')"),
    # characters that are not whitespace here
    (parse_term, '\\x:a. x\fy',
     "1:8: unexpected character '\\x0c'"),
    (parse_term, 'x\vy',
     "1:2: unexpected character '\\x0b'"),
    (parse_term, '\\x:a.\xa0x',
     "1:6: unexpected character '\\xa0'"),
]


def test_parse_errors_positioned():
    for parse, text, msg in PARSE_ERRORS:
        with pytest.raises(ParseError) as e:
            parse(text)
        assert str(e.value) == msg, text
        where = None if e.value.line is None else "%d:%d" % (e.value.line, e.value.col)
        assert where == (msg.split(": ")[0] if msg[0].isdigit() else None), text


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


def test_long_strings_parse_back():
    # The parser keeps its own stack, so a printed 10^4-letter string, which
    # nests 10^4 parentheses, reads back at the default recursion limit.
    w = "0110" * 2500
    for make in (church_string, scott_string):
        t = make(w)
        assert alpha_eq(parse_term(print_term(t)), t), make.__name__


def test_deep_types_parse():
    deep = "!" * 3000 + "a"
    t = parse_type(deep)
    for _ in range(3000):
        assert type(t) is BangType
        t = t.body
    assert t.name == "a"
    t = parse_type(" -o ".join("a%d" % i for i in range(3000)))
    for i in range(2999):
        assert t.src.name == "a%d" % i
        t = t.dst
    t = parse_type("(" * 3000 + "Str[" * 3000 + "a" + "]" * 3000 + ")" * 3000)
    assert t.ftv == {"a"}


DEEP = 10 ** 4
# text, its printed form, and the printed form of text{a := b}
DEEP_TYPES = {
    "right-chain": ("a -o " * DEEP + "a", None, "b -o " * DEEP + "b"),
    "bangs": ("!" * DEEP + "a", None, "!" * DEEP + "b"),
    # each binder is renamed, since b would capture the substituted b
    "foralls": ("forall b. " * DEEP + "b -o a", None, "forall b'1. " * DEEP + "b'1 -o b"),
    "left-chain": ("(" * DEEP + "a" + " -o a)" * DEEP, "(" * (DEEP - 1) + "a" + " -o a)" * (DEEP - 1)
                   + " -o a", "(" * (DEEP - 1) + "b" + " -o b)" * (DEEP - 1) + " -o b"),
}


@pytest.mark.parametrize("name", sorted(DEEP_TYPES))
def test_type_walks_take_any_depth(name):
    # types go through fold_term, alpha_eq's pair stack and the one printer
    text, printed, substituted = DEEP_TYPES[name]
    ty = parse_type(text)
    assert print_type(ty) == (printed or text)
    again = parse_type(print_type(ty))
    assert print_type(again) == print_type(ty)
    assert again is not ty and type_alpha_eq(ty, again)
    new = subst_type(ty, "a", TyVar("b"))
    assert print_type(new) == substituted
    assert not type_alpha_eq(ty, new) and type_alpha_eq(new, parse_type(substituted))


def test_path_free_walks_build_no_path(monkeypatch):
    # A walk keeps paths as parent-linked cells of four fields, and only
    # path_of turns one into a tuple, so all_names and a passing
    # check_stratification, which never call it, build no path at all.
    t = church_string("0110" * 2500)
    assert all(len(cell) == 4 and type(cell[0]) in (tuple, type(None))
               for cell, _, _ in preorder(t))

    def no_path(cell):
        raise AssertionError("a path was built")

    monkeypatch.setattr(syntax, "path_of", no_path)
    assert all_names(t) == {"f0", "f1", "x"}
    assert check_stratification(t) == []
    with pytest.raises(AssertionError, match="a path was built"):
        check_stratification(parse_term(r"\x:a. \f:a -o a -o a. f x x"))


def test_passing_stratification_check_is_linear():
    # 3.6 times as long at 10^4 letters as at 5000 when each step copied its
    # path; about twice as long now.  Each time is the least of eleven
    # samples, taken alternating between the two lengths, with the cyclic
    # collector paused, since a full collection costs in proportion to
    # everything the test run keeps alive.
    best = [float("inf")] * 2
    for _ in range(11):
        for k, n in enumerate((5000, 10000)):
            gc.collect()
            t = church_string("0110" * (n // 4))
            gc.disable()
            try:
                t0 = time.perf_counter()
                check_stratification(t)
                best[k] = min(best[k], time.perf_counter() - t0)
            finally:
                gc.enable()
    assert best[1] <= 3 * best[0], best


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
    for cell, _, s in preorder(t):
        path = path_of(cell)
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
        for cell, _, s in preorder(term):
            assert (s.fvs, s.ftv) == free[path_of(cell)], (name, path_of(cell))
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
