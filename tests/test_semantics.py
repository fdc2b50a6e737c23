import itertools

import pytest

from ealc import (
    App, Arrow, Bang, BangType, BOOL, CapExceeded, Lam, STRS,
    SemanticsUnsupported, TyApp, TyVar, UNIT, Var, bool_term,
    church_string, EndoMonoid, eval_term, interp_type, normalize,
    parse_term, parse_type, phi_entry, phi_of_word, truncate_type,
    type_alpha_eq,
)
from ealc.semantics import (
    FrameValue, POLICY_BASE, POLICY_ERROR, apply_value, fn_outputs,
    make_fn, phi_identity, unit_point,
)
from ealc.reduction import step


A = TyVar("a")
AA = Arrow(A, A)


def words(max_len):
    for n in range(max_len + 1):
        for tup in itertools.product("01", repeat=n):
            yield "".join(tup)


# -- type interpretation ---------------------------------------------------------

def test_interp_sizes():
    assert interp_type(A, base=2).size == 2
    assert interp_type(A, base=5).size == 5
    assert interp_type(AA, base=2).size == 4
    assert interp_type(Arrow(AA, AA), base=2).size == 256
    assert interp_type(UNIT, base=7).size == 1
    assert interp_type(parse_type("forall b. b -o b"), base=3).size == 1


def test_interp_bool_heuristic():
    assert interp_type(BOOL, base=2, policy=POLICY_BASE).size == 16
    with pytest.raises(SemanticsUnsupported):
        interp_type(BOOL, base=2, policy=POLICY_ERROR)


def test_interp_rejects_bangs_and_mu():
    with pytest.raises(SemanticsUnsupported):
        interp_type(BangType(A))
    with pytest.raises(SemanticsUnsupported):
        interp_type(STRS, policy=POLICY_BASE)


def test_interp_cap():
    with pytest.raises(CapExceeded):
        interp_type(AA, base=2, cap=3)
    with pytest.raises(CapExceeded):
        interp_type(Arrow(AA, Arrow(AA, AA)), base=4, cap=10 ** 6)


def test_truncated_string_type_is_tiny():
    ty = truncate_type(parse_type("Str[a]"))
    assert interp_type(ty, base=2).size == 1  # (1 -o 1) -o (1 -o 1) -o (1 -o 1)


# -- evaluation -------------------------------------------------------------------

def test_eval_identity_is_identity_table():
    v = eval_term(Lam("x", A, Var("x")), base=2)
    assert fn_outputs(v) == (0, 1)


def test_eval_true_false_distinct_any_base():
    for base in (2, 3):
        vt = eval_term(bool_term(True), base=base, policy=POLICY_BASE)
        vf = eval_term(bool_term(False), base=base, policy=POLICY_BASE)
        assert vt.index != vf.index


def test_eval_compositionality():
    # [[App(t, u)]] = apply([[t]], [[u]])
    f = Lam("x", A, Var("x"))
    env_val = FrameValue(interp_type(A, base=3), 2)
    t = App(f, Var("y"))
    direct = eval_term(t, {"y": env_val}, base=3)
    via = apply_value(eval_term(f, base=3), env_val)
    assert direct == via


def test_eval_unit_values_collapse():
    v = eval_term(parse_term(r"/\b. \x:b. x"), base=2)
    assert v == unit_point()
    # a unit-typed value instantiated and applied acts as the identity
    t = App(TyApp(parse_term(r"/\b. \x:b. x"), A), Var("y"))
    y = FrameValue(interp_type(A, base=2), 1)
    assert eval_term(t, {"y": y}, base=2) == y


def test_eval_soundness_under_reduction():
    y = FrameValue(interp_type(A, base=2), 1)
    g = eval_term(Lam("x", A, Var("x")), base=2)  # identity endo
    cases = [
        (App(Lam("x", A, Var("x")), Var("y")), {"y": y}),
        (App(Lam("f", AA, Lam("x", A, App(Var("f"), App(Var("f"), Var("x"))))),
             Lam("x", A, Var("x"))), {}),
        (App(Lam("p", AA, Var("p")), Lam("q", A, Var("q"))), {}),
    ]
    for term, env in cases:
        before = eval_term(term, env, base=2)
        t2 = step(term)
        while t2 is not None:
            after = eval_term(t2, env, base=2)
            assert after == before
            t2 = step(t2)


def test_eval_rejects_exponentials():
    with pytest.raises(SemanticsUnsupported):
        eval_term(Bang(bool_term(True)))
    with pytest.raises(SemanticsUnsupported):
        eval_term(bool_term(True), policy=POLICY_ERROR)


def test_eval_free_variable_has_no_value():
    with pytest.raises(SemanticsUnsupported, match="^free variable z has no value$"):
        eval_term(Var("z"))


def test_value_space_records_its_type():
    # the evaluator reads types off values, so a type abstraction's value
    # lives in the interpretation of its quantified type
    v = eval_term(bool_term(True), base=3, policy=POLICY_BASE)
    assert type_alpha_eq(v.space.ty, BOOL)
    assert v == eval_term(bool_term(True).body, base=3, policy=POLICY_BASE)


def test_cap_below_one_is_an_input_error():
    for cap in (0, -1):
        with pytest.raises(ValueError, match="^cell cap must be >= 1, got %d$" % cap):
            interp_type(A, cap=cap)


# -- endomorphism monoid -----------------------------------------------------------

def test_endo_basic():
    m = EndoMonoid(interp_type(A, base=2))
    assert m.count == 4
    for f in range(m.count):
        assert m.compose(m.identity, f) == f
        assert m.compose(f, m.identity) == f


def test_endo_associativity_size3():
    m = EndoMonoid(interp_type(A, base=3))
    import random
    rng = random.Random(7)
    sample = rng.sample(range(m.count), 6)
    for f in sample:
        for g in sample:
            for h in sample:
                assert m.compose(m.compose(f, g), h) == \
                    m.compose(f, m.compose(g, h))


def test_endo_tables_match_function_codec():
    # the composition table agrees with composing the maps read off by
    # fn_outputs and re-encoded by make_fn, on every pair
    m = EndoMonoid(interp_type(A, base=3))
    assert m.count == 27
    assert m.value(m.identity) == make_fn(m.fns, range(3))
    for f in range(m.count):
        fd = fn_outputs(m.value(f))
        for g in range(m.count):
            gd = fn_outputs(m.value(g))
            assert m.value(m.compose(f, g)) == \
                make_fn(m.fns, (fd[x] for x in gd)), (f, g)


# -- the word morphism ----------------------------------------------------------------

def test_phi_empty_word_is_constant_identity():
    m = EndoMonoid(interp_type(A, base=2))
    table = phi_of_word(A, "")
    assert all(v == m.identity for v in table.entries)


def test_phi_single_letters_project():
    m = EndoMonoid(interp_type(A, base=2))
    t0 = phi_of_word(A, "0")
    t1 = phi_of_word(A, "1")
    e = m.count
    for i in range(e):
        for j in range(e):
            assert t0.lookup(i, j) == i
            assert t1.lookup(i, j) == j


def test_phi_is_morphism():
    m = EndoMonoid(interp_type(A, base=2))
    for u in words(4):
        for v in words(4):
            lhs = phi_of_word(A, u + v)
            rhs = phi_of_word(A, u).compose(phi_of_word(A, v), m)
            assert lhs == rhs, (u, v)


def test_phi_entry_matches_table():
    m = EndoMonoid(interp_type(A, base=2))
    for w in ["", "0", "01", "110"]:
        table = phi_of_word(A, w)
        for i in range(m.count):
            for j in range(m.count):
                assert phi_entry(A, w, m.value(i), m.value(j)).index == \
                    table.lookup(i, j), (w, i, j)
    # like every End(A) construction, phi_entry refuses |A|^|A| > cap
    g = EndoMonoid(interp_type(A, base=3)).value(0)
    with pytest.raises(CapExceeded):
        phi_entry(A, "0", g, g, base=3, cap=26)


def test_phi_iterate_agreement():
    # if w[sigma] !f0 !f1 normalizes to !h, the morphism applied to the
    # denotations of f0, f1 gives the denotation of h
    f_pairs = [
        (parse_term(r"\g:(a -o a). g"), parse_term(r"\g:(a -o a). \x:a. x")),
        (parse_term(r"\g:(a -o a). \x:a. g x"), parse_term(r"\g:(a -o a). g")),
        (parse_term(r"\g:(a -o a). \x:a. g (g x)"),
         parse_term(r"\g:(a -o a). \x:a. x")),
        (parse_term(r"\g:(a -o a). \x:a. x"),
         parse_term(r"\g:(a -o a). \x:a. g (g (g x))")),
        (parse_term(r"\g:(a -o a). g"), parse_term(r"\g:(a -o a). g")),
    ]
    for f0, f1 in f_pairs:
        v0, v1 = eval_term(f0, base=2), eval_term(f1, base=2)
        for w in ["", "0", "1", "01", "101", "0110"]:
            out = normalize(App(App(TyApp(church_string(w), AA),
                                    Bang(f0)), Bang(f1)))
            assert isinstance(out, Bang)
            h = eval_term(out.body, base=2)
            assert phi_entry(AA, w, v0, v1) == h, w
