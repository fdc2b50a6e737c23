import pytest

from ealc import (
    Bang, BangType, BOOL, Context, EAL, Lam, STR, TruncationError,
    TyVar, UNIT, alpha_eq, bool_term, check_stratification,
    church_string, erase_annotations, normalize, parse_term, parse_type,
    print_type, scott_string, subst_type, truncate_term, truncate_type, type_alpha_eq,
    typecheck,
)
from ealc.syntax import BangType as _BangType
from ealc.encode import str_of

from corpus import EAL_CLOSED, REDUCIBLE


def exponential_free_type(ty) -> bool:
    match ty:
        case _BangType(_):
            return False
        case TyVar():
            return True
    return all(exponential_free_type(c) for c in
               [getattr(ty, "src", None), getattr(ty, "dst", None),
                getattr(ty, "body", None)] if c is not None)


def exponential_free_term(t) -> bool:
    from ealc.syntax import Bang, BangLam, children
    if isinstance(t, (Bang, BangLam)):
        return False
    return all(exponential_free_term(c) for c in children(t))


# -- the type equations ---------------------------------------------------------

def test_type_equations():
    assert type_alpha_eq(truncate_type(BangType(STR)), UNIT)
    assert type_alpha_eq(truncate_type(parse_type("a -o b")),
                         parse_type("a -o b"))
    assert type_alpha_eq(truncate_type(parse_type("!Bool -o a")),
                         parse_type("1 -o a"))
    assert type_alpha_eq(truncate_type(BOOL), BOOL)  # no exponentials inside
    # the unquantified string type collapses to 1 -o 1 -o 1
    assert type_alpha_eq(truncate_type(str_of(TyVar("a"))),
                         parse_type("1 -o 1 -o 1"))
    assert type_alpha_eq(truncate_type(STR), parse_type("forall a. 1 -o 1 -o 1"))


def test_truncate_type_idempotent():
    for _, _, ty in EAL_CLOSED:
        once = truncate_type(ty)
        assert type_alpha_eq(once, truncate_type(once))
        assert exponential_free_type(once)


def test_truncate_type_takes_any_depth():
    # a fold, so an arrow chain as long as a long Church string truncates
    n = 10 ** 4
    chain = parse_type("a -o " * n + "a")
    assert type_alpha_eq(truncate_type(chain), chain)
    banged = truncate_type(parse_type("!a -o " * n + "!!a"))
    assert print_type(banged) == "1 -o " * n + "1"


def test_mu_is_rejected():
    with pytest.raises(TruncationError):
        truncate_type(parse_type("StrS"))
    with pytest.raises(TruncationError):
        truncate_term(scott_string("0"))


# -- the term equations -----------------------------------------------------------

def test_bang_becomes_unit_identity():
    t = truncate_term(Bang(bool_term(True)))
    assert alpha_eq(t, parse_term(r"/\a. \x:a. x"))


def test_bang_lambda_becomes_plain_lambda():
    t = truncate_term(parse_term(r"\!f:(a -o a). !(f y)"))
    match t:
        case Lam("f", f_ty, body):
            assert type_alpha_eq(f_ty, UNIT)
            assert alpha_eq(body, parse_term(r"/\a. \x:a. x"))
        case _:
            raise AssertionError(t)
    assert alpha_eq(erase_annotations(t), parse_term(r"\f. \x. x"))


def test_truncated_church_string_is_constant_iterator():
    t = truncate_term(church_string("01"))
    assert alpha_eq(erase_annotations(t), parse_term(r"\f0. \f1. \x. x"))


def test_exponential_free_terms_are_fixed():
    for src in [r"\x:a. x", r"/\a. \x:a. \y:a. x", r"\f:(a -o a). \x:a. f x"]:
        t = parse_term(src)
        assert alpha_eq(truncate_term(t), t), src


def test_output_is_exponential_free():
    for name, term, _ in EAL_CLOSED:
        out = truncate_term(term)
        assert exponential_free_term(out), name


# -- typing preservation and simulation ---------------------------------------------

def test_typing_preservation_on_corpus():
    for name, term, ty in EAL_CLOSED:
        out = truncate_term(term)
        want = truncate_type(ty)
        got = typecheck(EAL, Context(), out)
        assert type_alpha_eq(got, want), name


def test_substitution_commutes_with_truncation():
    cases = [
        (parse_type("forall b. (b -o a) -o b -o a"), "a", parse_type("!Bool -o a'")),
        (parse_type("a -o !a -o a"), "a", BOOL),
        (str_of(TyVar("c")), "c", parse_type("!(a -o a)")),
        (STR, "unused", BOOL),
    ]
    for s, var, arg in cases:
        lhs = subst_type(truncate_type(s), var, truncate_type(arg))
        rhs = truncate_type(subst_type(s, var, arg))
        assert type_alpha_eq(lhs, rhs), (str(s), var)


def test_simulation_along_traces():
    # one-step simulation: the truncations of t and t' share a normal form,
    # and a redex at depth >= 1 truncates to syntactically the same term
    from ealc.reduction import trace
    from corpus import depth_map
    for name, term, mode in REDUCIBLE:
        if mode != EAL:
            continue
        t = term
        for t2, path in trace(term):
            tr1, tr2 = truncate_term(t), truncate_term(t2)
            assert alpha_eq(normalize(tr1), normalize(tr2)), name
            if depth_map(t)[path] >= 1:
                assert alpha_eq(tr1, tr2), name
            t = t2


def test_truncation_preserves_stratification():
    for name, term, _ in EAL_CLOSED:
        assert check_stratification(truncate_term(term)) == [], name
