import pytest

from ealc import (
    App, Arrow, Bang, BangType, BOOL, Context, EAL, Lam, MUEAL,
    STR, STRS, TyApp, TyLam, TyVar, TypeCheckError, Var,
    bool_term, check_stratification, church_string, classify_type,
    parse_term, parse_type, scott_string, type_alpha_eq, typecheck,
    typecheck_closed,
)

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
