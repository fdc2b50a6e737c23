import itertools

import pytest

from ealc import (
    App, Arrow, Bang, BangType, BOOL, EAL, Lam, MUEAL, NAT, STR,
    STRS, TyApp, TypeCheckError, Var, alpha_eq, bool_term, cast_term,
    church_nat, church_string, decode_church_nat, decode_church_string,
    decode_scott_string, monoid_elem, monoid_ty, normalize, pair,
    parse_term, proj, promote, read_bool, scott_string, tensor, type_alpha_eq,
    typecheck_closed,
)
from ealc.encode import pair_elim

from corpus import (
    and_term, bangs, identity, identity_via_scott, length_plus_one_clock,
    not_term,
)


def words(max_len):
    for n in range(max_len + 1):
        for tup in itertools.product("01", repeat=n):
            yield "".join(tup)


# -- typing of every builder ---------------------------------------------------

def test_builders_typecheck():
    typecheck_closed(EAL, church_string("1101"), STR)
    typecheck_closed(EAL, church_nat(4), NAT)
    typecheck_closed(EAL, bool_term(False), BOOL)
    typecheck_closed(EAL, monoid_elem(3, 5), monoid_ty(5))
    typecheck_closed(MUEAL, scott_string("10"), STRS)
    typecheck_closed(EAL, pair(bool_term(True), BOOL, church_nat(1), NAT),
                     tensor(BOOL, NAT))
    typecheck_closed(EAL, proj(1))
    typecheck_closed(EAL, proj(2))


def test_church_string_shape():
    t = church_string("")
    assert alpha_eq(t, parse_term(r"/\a. \!f0:(a -o a). \!f1:(a -o a). !(\x:a. x)"))
    t = church_string("01")
    assert alpha_eq(
        t, parse_term(r"/\a. \!f0:(a -o a). \!f1:(a -o a). !(\x:a. f0 (f1 x))"))
    with pytest.raises(ValueError):
        church_string("012")


def test_church_nat_zero_body():
    assert alpha_eq(church_nat(0),
                    parse_term(r"/\a. \!f:(a -o a). !(\x:a. x)"))


def test_monoid_elem_examples():
    assert alpha_eq(monoid_elem(2, 3),
                    parse_term(r"/\a. \x1:a. \x2:a. \x3:a. x2"))
    with pytest.raises(ValueError):
        monoid_elem(4, 3)
    with pytest.raises(ValueError):
        monoid_elem(0, 2)


def test_round_trips():
    assert decode_church_string(church_string("1101")) == "1101"
    assert decode_church_nat(church_nat(0)) == 0
    assert decode_scott_string(scott_string("011")) == "011"
    assert read_bool(Bang(bool_term(True))) is True


def test_scott_shape():
    assert alpha_eq(
        scott_string(""),
        parse_term(r"fold[StrS] (/\a. \f0:(StrS -o a). \f1:(StrS -o a). \x:a. x)"))
    # the cons case applies the matching continuation to the suffix
    t = scott_string("0")
    assert decode_scott_string(t) == "0"


def test_projections_select():
    p = pair(bool_term(True), BOOL, bool_term(False), BOOL)
    take1 = App(TyApp(TyApp(proj(1), BOOL), BOOL), p)
    take2 = App(TyApp(TyApp(proj(2), BOOL), BOOL), p)
    assert read_bool(Bang(take1)) is True
    assert read_bool(Bang(take2)) is False


def test_pair_elim_requires_linear_result():
    # Instantiating the tensor at a banged result type is exactly what the
    # quantifier elimination rule forbids.
    p = pair(bool_term(True), BOOL, bool_term(False), BOOL)
    good = pair_elim(p, BOOL, BOOL, "x", "y", Var("x"), BOOL)
    assert type_alpha_eq(typecheck_closed(EAL, good), BOOL)
    bad = pair_elim(p, BOOL, BOOL, "x", "y", Bang(bool_term(True)),
                    BangType(BOOL))
    with pytest.raises(TypeCheckError) as e:
        typecheck_closed(EAL, bad)
    assert e.value.kind == "forall-instantiation-not-linear"


# -- functorial promotion ---------------------------------------------------------

def test_promote_types():
    t = promote(identity(BOOL), 1, 1, EAL)
    assert type_alpha_eq(typecheck_closed(EAL, t),
                         Arrow(BangType(BOOL), BangType(BOOL)))
    t = promote(and_term(), 2, 3, EAL)
    want = Arrow(BangType(BangType(BangType(BOOL))),
                 Arrow(BangType(BangType(BangType(BOOL))),
                       BangType(BangType(BangType(BOOL)))))
    assert type_alpha_eq(typecheck_closed(EAL, t), want)


def test_promote_identity_lift():
    t = promote(identity(BOOL), 1, 1, EAL)
    out = normalize(App(t, Bang(bool_term(True))))
    assert alpha_eq(out, Bang(bool_term(True)))


def test_promote_contract_binary_and_k2():
    t = promote(and_term(), 2, 2, EAL)
    for p in (True, False):
        for q in (True, False):
            lhs = normalize(App(App(t, bangs(bool_term(p), 2)),
                                bangs(bool_term(q), 2)))
            rhs = normalize(bangs(App(App(and_term(), bool_term(p)),
                                      bool_term(q)), 2))
            assert alpha_eq(lhs, rhs), (p, q)


def test_promote_arity_mismatch():
    with pytest.raises(TypeCheckError):
        promote(bool_term(True), 1, 1, EAL)


# -- cast --------------------------------------------------------------------------

def test_cast_type():
    from ealc import parse_type
    assert type_alpha_eq(typecheck_closed(MUEAL, cast_term()),
                         parse_type("Nat -o !StrS -o Str"))


def test_cast_prefix_semantics():
    c = cast_term()
    for w in words(4):
        for n in range(len(w) + 3):
            out = App(App(c, church_nat(n)), Bang(scott_string(w)))
            assert decode_church_string(out) == w[:min(n, len(w))], (w, n)


def test_assemble_rejects_ill_typed_inputs():
    from ealc import assemble_fexptime, TypeCheckError
    with pytest.raises(TypeCheckError):
        assemble_fexptime(identity_via_scott(), bool_term(True), 0)
    with pytest.raises(TypeCheckError):
        assemble_fexptime(bool_term(True), length_plus_one_clock(), 0)


# -- iteration behaves like concatenation --------------------------------------------

def _endo_terms():
    idb = identity(BOOL)
    nt = not_term()
    const_true = Lam("b", BOOL, bool_term(True))
    return [idb, nt, const_true]


def _iterate(w, g0, g1):
    t = App(App(TyApp(church_string(w), BOOL), Bang(g0)), Bang(g1))
    out = normalize(t)
    assert isinstance(out, Bang)
    return out.body


def test_concatenation_is_composition():
    g0, g1 = not_term(), identity(BOOL)
    for total in range(9):
        for cut in range(total + 1):
            for bits in itertools.product("01", repeat=total):
                w = "".join(bits)
                u, v = w[:cut], w[cut:]
                h_uv = _iterate(w, g0, g1)
                hu = _iterate(u, g0, g1)
                hv = _iterate(v, g0, g1)
                composed = normalize(Lam("x", BOOL, App(hu, App(hv, Var("x")))))
                assert alpha_eq(normalize(h_uv), composed), (u, v)


def test_concatenation_all_step_pairs_small():
    endos = _endo_terms()
    for g0 in endos:
        for g1 in endos:
            for u in ["", "0", "1", "01"]:
                for v in ["", "1", "10"]:
                    h_uv = _iterate(u + v, g0, g1)
                    hu = _iterate(u, g0, g1)
                    hv = _iterate(v, g0, g1)
                    composed = normalize(Lam("x", BOOL,
                                             App(hu, App(hv, Var("x")))))
                    assert alpha_eq(normalize(h_uv), composed), (u, v)
