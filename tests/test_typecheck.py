import gc
import importlib

import pytest

from ealc import (
    App, Arrow, Bang, BangLam, BangType, BOOL, Context, EAL, Lam, MUEAL, NAT,
    STR, STRS, TyApp, TyLam, TyVar, TypeCheckError, Var,
    bool_term, check_stratification, church_string, classify_type,
    compile_monoid, parse_term, parse_type, print_term, print_type, promote,
    regex_to_dfa, scott_string, transition_monoid, type_alpha_eq, typecheck,
    typecheck_closed,
)
from ealc.syntax import preorder
from ealc.typecheck import _CHECKED

typecheck_mod = importlib.import_module("ealc.typecheck")

from corpus import EAL_CLOSED, MUEAL_CLOSED, OPEN_TYPED, not_term


def err_kind(mode, term, ctx=None):
    with pytest.raises(TypeCheckError) as e:
        typecheck(mode, ctx or Context(), term)
    return e.value.kind


# -- classification -----------------------------------------------------------

def test_classify():
    assert classify_type(BOOL) == "strictly-linear"
    assert classify_type(BangType(STR)) == "banged"
    assert classify_type(TyVar("a")) == "linear"
    assert classify_type(parse_type("mu b. forall a. (b -o a) -o a -o a")) \
        == "strictly-linear"


# -- the rules, by example -------------------------------------------------------

def test_true_is_bool():
    assert type_alpha_eq(typecheck_closed(EAL, bool_term(True)), BOOL)


def test_church_string_is_str():
    assert type_alpha_eq(typecheck_closed(EAL, church_string("01")), STR)
    assert type_alpha_eq(typecheck_closed(EAL, church_string("")), STR)


def test_delta_variable_cannot_be_used_bare():
    assert err_kind(EAL, parse_term(r"\!x:Bool. x")) == "zone-misuse"


def test_instantiation_must_be_linear():
    t = TyApp(TyLam("a", Lam("x", TyVar("a"), Var("x"))), BangType(BOOL))
    assert err_kind(EAL, t) == "forall-instantiation-not-linear"


def test_linear_domain_must_be_linear():
    t = Lam("x", BangType(BOOL), Var("x"))
    assert err_kind(EAL, t) == "class-violation"


def test_nonlinear_use_detected():
    t = parse_term(r"\f:(a -o a -o a). \x:a. f x x")
    assert err_kind(EAL, t) == "nonlinear-use"


def test_unbound_variable():
    assert err_kind(EAL, Var("nope")) == "unbound-variable"


def test_bang_body_escape():
    # a gamma variable cannot be referenced under a bang
    t = Lam("x", BOOL, Bang(Var("x")))
    assert err_kind(EAL, t) == "bang-body-escape"


def test_mu_gated_by_mode():
    s = scott_string("01")
    assert type_alpha_eq(typecheck_closed(MUEAL, s), STRS)
    assert err_kind(EAL, s) == "mu-in-eal-mode"
    assert err_kind(EAL, parse_term(r"\x:StrS. x")) == "mu-in-eal-mode"


def test_scott_string_type():
    assert type_alpha_eq(typecheck_closed(MUEAL, scott_string("")), STRS)


def test_mismatch_reports_path():
    t = App(not_term(), church_string("0"))
    with pytest.raises(TypeCheckError) as e:
        typecheck(EAL, Context(), t)
    assert e.value.kind == "mismatch"
    assert e.value.path == (1,)


def test_expected_type_ascription():
    typecheck_closed(EAL, church_string(""), STR)
    with pytest.raises(TypeCheckError) as e:
        typecheck_closed(EAL, bool_term(True), STR)
    assert e.value.kind == "mismatch"


def test_identity_cannot_get_banged_polymorphic_type():
    # \x. x cannot be coerced to !b -o !b: the forall is only
    # instantiable at linear types
    t = TyApp(TyLam("a", Lam("x", TyVar("a"), Var("x"))),
              BangType(TyVar("b")))
    assert err_kind(EAL, t) == "forall-instantiation-not-linear"


# -- zones and contexts --------------------------------------------------------

def test_open_judgments():
    for ctx, term, ty, mode in OPEN_TYPED:
        assert type_alpha_eq(typecheck(mode, ctx, term), ty)


def test_context_invariants_enforced():
    with pytest.raises(ValueError):
        typecheck(EAL, Context(gamma={"x": BOOL}, theta={"x": BOOL}), Var("x"))
    with pytest.raises(ValueError):
        typecheck(EAL, Context(gamma={"x": BangType(BOOL)}), Var("x"))
    with pytest.raises(ValueError):
        typecheck(EAL, Context(delta={"x": BOOL}), Var("x"))


def test_context_zones_default_to_fresh_dicts():
    one, two = Context(), Context()
    one.gamma["x"] = BOOL
    assert two.gamma == {} and two.delta == {} and two.theta == {}
    ctx = Context(delta={"b": BangType(BOOL)})
    assert type_alpha_eq(typecheck(EAL, ctx, Bang(Var("b"))), BangType(BOOL))


def test_weakening():
    junk = {
        "gamma": Context(gamma={"unused": BOOL}),
        "delta": Context(delta={"unused": BangType(BOOL)}),
        "theta": Context(theta={"unused": STR}),
    }
    for name, term, ty in EAL_CLOSED[:10]:
        for ctx in junk.values():
            assert type_alpha_eq(typecheck(EAL, ctx, term), ty), name


def test_theta_shared_between_application_premises():
    # under a bang a demoted variable may occur in both halves of an
    # application
    t = parse_term(r"\!x:Bool. !((\p:Bool. \q:Bool. p) x x)")
    ty = typecheck_closed(EAL, t)
    assert type_alpha_eq(ty, Arrow(BangType(BOOL), BangType(BOOL)))


def test_determinism_and_corpus_types():
    for name, term, ty in EAL_CLOSED:
        assert type_alpha_eq(typecheck(EAL, Context(), term), ty), name
    for name, term, ty in MUEAL_CLOSED:
        assert type_alpha_eq(typecheck(MUEAL, Context(), term), ty), name


def test_typable_implies_stratified():
    for name, term, _ in EAL_CLOSED + MUEAL_CLOSED:
        assert check_stratification(term) == [], name


def test_missing_annotation_rejected():
    assert err_kind(EAL, parse_term(r"\x. x")) == "class-violation"


# -- error text ------------------------------------------------------------------

ERROR_TEXT = [
    (EAL, Context(), r"nope", "/: unbound-variable: unbound variable nope"),
    (EAL, Context(), r"\!x:Bool. x",
     "/0: zone-misuse: x is bang-bound; it can only be used inside a !(...) body"),
    # the bang binder shadows the linear x
    (EAL, Context(), r"\x:Bool. \!x:Bool. x",
     "/0.0: zone-misuse: x is bang-bound; it can only be used inside a !(...) body"),
    (EAL, Context(), r"\f:a -o a -o a. \x:a. f x x",
     "/0.0: nonlinear-use: linear variable x used in both function and argument"),
    (EAL, Context(), r"\h:a -o a -o a -o a. \k:a -o a -o a. \x:a. \y:a. h x y (k x y)",
     "/0.0.0.0: nonlinear-use: linear variables x, y used in both function and argument"),
    (EAL, Context(), r"\x. x", "/: class-violation: binder x needs a type annotation"),
    (EAL, Context(), r"\!x. !x", "/: class-violation: binder x needs a type annotation"),
    (EAL, Context(), r"\x:!Bool. x",
     "/: class-violation: linear abstraction over non-linear type "
     "!(forall a. a -o a -o a)"),
    (EAL, Context(), r"/\a. !(\x:a. x)",
     "/: class-violation: cannot quantify over body of type !(a -o a) "
     "(not strictly linear)"),
    (EAL, Context(), r"(/\a. \x:a. x) [!Bool]",
     "/: forall-instantiation-not-linear: quantifiers can only be instantiated "
     "at linear types, got !(forall a. a -o a -o a)"),
    (EAL, Context(), r"\x:Bool. !x",
     "/0: bang-body-escape: free variable x of a bang body is linear, not bang-bound"),
    (EAL, Context(), r"\!y:Bool. !(!y)",
     "/0.0: bang-body-escape: free variable y of a bang body is temporary, "
     "not bang-bound"),
    (EAL, Context(), r"!z",
     "/: bang-body-escape: free variable z of a bang body is unbound, not bang-bound"),
    (EAL, Context(), r"(\x:Bool. x) (/\a. \x:a. \y:a. \z:a. x)",
     "/1: mismatch: argument has type forall a. a -o a -o a -o a, "
     "expected forall a. a -o a -o a"),
    (EAL, Context(), r"(/\a. \x:a. x) (/\a. \x:a. x)",
     "/0: mismatch: applied term has type 1, not an arrow"),
    (EAL, Context(), r"(\x:Bool. x) [Bool]",
     "/0: mismatch: type application to a term of type "
     "(forall a. a -o a -o a) -o (forall a. a -o a -o a)"),
    # /\a is renamed away from the a of the context, so z:a' is not x:a
    (EAL, Context(gamma={"x": TyVar("a")}), r"/\a. \y:a. (\z:a. z) x",
     "/0.0.1: mismatch: argument has type a, expected a'1"),
    (EAL, Context(), r"\x:StrS. x",
     "/: mu-in-eal-mode: type mu b. forall a. (b -o a) -o (b -o a) -o a -o a "
     "uses mu outside mueal mode"),
    (EAL, Context(), r"fold[Bool] (\x:Bool. x)", "/: mu-in-eal-mode: fold outside mueal mode"),
    (EAL, Context(), r"unfold (\x:Bool. x)", "/: mu-in-eal-mode: unfold outside mueal mode"),
    (MUEAL, Context(), r"unfold (\x:Bool. x)",
     "/0: mismatch: unfold of a term of type "
     "(forall a. a -o a -o a) -o (forall a. a -o a -o a)"),
    (MUEAL, Context(), r"fold[Bool] (\x:Bool. x)",
     "/: mismatch: fold annotation forall a. a -o a -o a is not a mu type"),
    (MUEAL, Context(), r"fold[mu b. b -o b] (\x:Bool. x)",
     "/: mismatch: fold body has type (forall a. a -o a -o a) -o "
     "(forall a. a -o a -o a), expected (mu b. b -o b) -o (mu b. b -o b)"),
]


@pytest.mark.parametrize("mode, ctx, src, text", ERROR_TEXT)
def test_error_text(mode, ctx, src, text):
    with pytest.raises(TypeCheckError) as e:
        typecheck(mode, ctx, parse_term(src))
    assert str(e.value) == text


def test_error_text_covers_every_kind():
    assert {text.split(": ")[1] for *_, text in ERROR_TEXT} == {
        "unbound-variable", "zone-misuse", "nonlinear-use", "class-violation",
        "forall-instantiation-not-linear", "bang-body-escape", "mismatch",
        "mu-in-eal-mode"}


# -- the memo of closed terms ------------------------------------------------------

# The regexes of the five reference languages (parity, contains-11, div3,
# ends-with-0, all-strings).
REFERENCE_REGEXES = ["(0*10*1)*0*", "(0|1)*11(0|1)*", "(0|11|10(1|00)*01)*",
                     "(0|1)*0", "(0|1)*"]


def _result(check):
    """A check's printed type, or its error as (kind, path, message)."""
    try:
        return print_type(check())
    except TypeCheckError as e:
        return (e.kind, e.path, e.message)


def _cold(check):
    """_result(check) with the memo emptied first."""
    _CHECKED.clear()
    return _result(check)


def _memo_terms():
    recognizers = [compile_monoid(transition_monoid(regex_to_dfa(r)))
                   for r in REFERENCE_REGEXES]
    return [term for _, term, _ in EAL_CLOSED + MUEAL_CLOSED] + recognizers


def test_memo_gives_the_types_of_a_cold_check():
    lifted_checks = 0
    for t in _memo_terms():
        for mode in (EAL, MUEAL):
            check = lambda: typecheck_closed(mode, t)  # noqa: E731
            first, second = _result(check), _result(check)
            assert first == second == _cold(check), print_term(t)
            if isinstance(first, tuple):
                assert mode not in _CHECKED.get(id(t), (None, {}))[1]
                continue
            assert _CHECKED[id(t)][0]() is t and mode in _CHECKED[id(t)][1]
            arity = 1 if type(typecheck_closed(mode, t)) is Arrow else 0
            for k in (1, 2, 3):
                lifted = promote(t, arity, k, mode)
                check = lambda: typecheck_closed(mode, lifted)  # noqa: E731
                typecheck_closed(mode, t)
                warm = _result(check)
                assert warm == _cold(check), (print_term(t), k)
                lifted_checks += 1
    assert lifted_checks > 100


def test_memo_skips_a_checked_subterm(monkeypatch):
    t = compile_monoid(transition_monoid(regex_to_dfa(REFERENCE_REGEXES[2])))
    lifted = promote(t, 1, 2, EAL)
    # _infer runs once per check, so count what it does inside: the mu gate,
    # passed once by every binder and type application, and the memo's hits
    calls, recalled = [], []
    gate, recall = typecheck_mod._gate_mu, typecheck_mod._recall

    def counting(mode, ty):
        calls.append(ty)
        return gate(mode, ty)

    def looking_up(mode, env, s):
        ty = recall(mode, env, s)
        if ty:
            recalled.append(s)
        return ty
    monkeypatch.setattr(typecheck_mod, "_gate_mu", counting)
    monkeypatch.setattr(typecheck_mod, "_recall", looking_up)
    _CHECKED.clear()
    typecheck_closed(EAL, t)
    cold = len(calls)
    del calls[:]
    typecheck_closed(EAL, t)
    promote(t, 1, 2, EAL)
    assert calls == []
    del recalled[:]
    typecheck_closed(EAL, lifted)
    # each level of promotion is \!x1. !(_ x1), one binder, and t, the
    # function of the inner application, is looked up instead of checked
    gated = sum(1 for *_, s in preorder(t) if type(s) in (Lam, BangLam, TyApp))
    assert len(calls) == 2 and recalled == [t] and cold == gated > 90


def test_memo_keeps_errors():
    t = compile_monoid(transition_monoid(regex_to_dfa(REFERENCE_REGEXES[0])))
    typecheck_closed(EAL, t)
    ill = [parse_term(src) for mode, ctx, src, _ in ERROR_TEXT if mode == EAL and
           not ctx.gamma] + [
        App(t, bool_term(True)),
        App(App(t, church_string("01")), t),
        Lam("x", BOOL, App(t, Var("x"))),
        promote(scott_string("1"), 0, 1),
    ]
    for s in ill:
        for mode in (EAL, MUEAL):
            check = lambda: typecheck_closed(mode, s)  # noqa: E731
            results = [_result(check), _result(check), _cold(check), _result(check)]
            if mode == EAL:
                assert isinstance(results[0], tuple), print_term(s)
            assert results.count(results[0]) == 4, results


def test_memo_is_not_used_when_a_binder_would_be_renamed():
    # Under a context whose types have a free a, /\a. is renamed to a'1;
    # a memo hit would give the closed check's "forall a. ...".  The type of
    # a closed function reaches the result, and an argument's type, which is
    # always checked afresh, the mismatch message.
    t = bool_term(True)
    f = Lam("z", BOOL, t)
    assert print_type(typecheck_closed(EAL, f)) == \
        "(forall a. a -o a -o a) -o (forall a. a -o a -o a)"
    ctx = Context(gamma={"x": TyVar("a")})
    renamed = "forall a'1. a'1 -o a'1 -o a'1"
    for s, want in (
            (t, renamed),
            (App(f, bool_term(False)), renamed),
            (App(Lam("n", NAT, Var("n")), t),
             ("mismatch", (1,), "argument has type %s, expected %s"
              % (renamed, print_type(NAT))))):
        check = lambda: typecheck(EAL, ctx, s)  # noqa: E731
        for closed in (t, f):
            typecheck_closed(EAL, closed)
        assert _result(check) == want
        assert _cold(check) == want
    # a check in a context is not remembered
    _CHECKED.clear()
    assert _result(lambda: typecheck(EAL, ctx, t)) == renamed
    assert print_type(typecheck_closed(EAL, t)) == "forall a. a -o a -o a"
    # with no free type variable in the context the entry is used
    typecheck_closed(EAL, f)
    ctx = Context(gamma={"x": BOOL})
    assert print_type(typecheck(EAL, ctx, App(f, bool_term(False)))) == \
        "forall a. a -o a -o a"


def test_memo_entry_dies_with_its_term():
    t = church_string("0110")
    typecheck_closed(EAL, t)
    typecheck_closed(MUEAL, t)
    key = id(t)
    assert set(_CHECKED[key][1]) == {EAL, MUEAL}
    del t
    gc.collect()
    assert key not in _CHECKED


@pytest.mark.parametrize("spine, step", [("binders", 0), ("arguments", 1)])
def test_deep_error_paths(spine, step):
    # the path of a failure is read off the checker's frames: one index per
    # level, down a spine of binders or of application arguments
    n = 10 ** 4
    t = Var("nope")
    for i in reversed(range(n)):
        t = Lam("x%d" % i, TyVar("a"), t) if spine == "binders" else App(Var("f"), t)
    with pytest.raises(TypeCheckError) as e:
        typecheck_closed(EAL, Lam("f", Arrow(TyVar("a"), TyVar("a")), t))
    assert (e.value.kind, e.value.path, e.value.message) == \
        ("unbound-variable", (0,) + (step,) * n, "unbound variable nope")
