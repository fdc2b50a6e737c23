import itertools

import pytest

from ealc import (
    App, Arrow, Bang, BangType, BOOL, CapExceeded, Lam, STRS,
    SemanticsUnsupported, TyApp, TyLam, TyVar, UNIT, Var, bool_term,
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


def test_interp_cap_on_a_count_too_large_to_print():
    # 2^65536 cells is far past the cap; the count is neither built nor
    # printed in full (str() refuses ints over 4,300 digits).
    with pytest.raises(CapExceeded, match=r"needs 2\^65536 cells, cap is 1000000$"):
        interp_type(parse_type("(a -o a -o a -o a -o a) -o a"))
    with pytest.raises(CapExceeded, match=r"^End\(a\) needs 2000\^2000 cells"):
        EndoMonoid(interp_type(A, base=2000))
    # a count that prints is printed in full, as before
    with pytest.raises(CapExceeded, match=r"needs %d cells" % 2 ** 256):
        interp_type(parse_type("(a -o a -o a -o a) -o a"))


def test_interp_takes_any_depth():
    # a fold: a 10^4-long arrow chain at base 1 is a tower of one-element
    # function spaces, and a cap error names the space where it fails
    n = 10 ** 4
    chain = parse_type("a -o " * n + "a")
    space = interp_type(chain, 1)
    for _ in range(n):
        assert space.size == 1 and space.dom.size == 1
        space = space.cod
    assert space.ty.name == "a"
    with pytest.raises(CapExceeded, match=r"^function space a -o a -o a needs 16 cells"):
        interp_type(chain, 2, cap=15)


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


def test_frame_values_and_pair_tables_are_immutable_values():
    a3 = interp_type(A, base=3)
    v = FrameValue(a3, 2)
    # spaces compare by shape, so values of alpha-equal types are equal
    assert v == FrameValue(interp_type(TyVar("b"), base=3), 2)
    assert v != FrameValue(a3, 1)
    assert {v: 1}[FrameValue(a3, 2)] == 1
    with pytest.raises(AttributeError):
        v.index = 1
    for bad in (-1, 3):
        with pytest.raises(ValueError, match="out of range for a 3-element set"):
            FrameValue(a3, bad)
    table = phi_of_word(A, "01")
    assert table == phi_of_word(A, "01") and table != phi_of_word(A, "10")
    with pytest.raises(AttributeError):
        table.count = 1


def test_deep_spaces_compare_and_hash():
    # spaces compare by a shape key given when they are built, so a
    # function space of any depth compares and hashes without recursion
    chain = "a -o " * 10 ** 4 + "a"
    x, y = interp_type(parse_type(chain), 1), interp_type(parse_type(chain), 1)
    assert x is not y and x == y and hash(x) == hash(y)
    assert x != interp_type(parse_type("a -o " * 10 ** 4 + "a -o a"), 1)
    assert {FrameValue(x, 0): 1}[FrameValue(y, 0)] == 1


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


def test_type_abstraction_is_typed_by_the_checker():
    # the checker's error, not a TypeStructureError from building forall b. a
    with pytest.raises(SemanticsUnsupported, match=r"^/: class-violation: cannot "
                                                   r"quantify over body of type a "):
        eval_term(parse_term(r"\y:a. /\b. y"))


def test_unbound_or_unannotated_under_type_abstraction_is_unsupported():
    with pytest.raises(SemanticsUnsupported):
        eval_term(parse_term(r"/\a. \x:a. z"))
    with pytest.raises(SemanticsUnsupported):
        eval_term(TyLam("a", Lam("x", None, Var("x"))))


def test_unit_abstraction_is_the_unit_point_whatever_its_body():
    # the only closed value of 1 is the identity, so the bang inside is never read
    t = parse_term(r"/\a. (\!d:a -o a. \x:a. x) !(\z:a. z)")
    for policy in (POLICY_ERROR, POLICY_BASE):
        assert eval_term(t, policy=policy) == unit_point()


def test_value_space_records_its_type():
    # the evaluator reads types off values, so a type abstraction's value
    # lives in the interpretation of its quantified type
    v = eval_term(bool_term(True), base=3, policy=POLICY_BASE)
    assert type_alpha_eq(v.space.ty, BOOL)
    assert v == eval_term(bool_term(True).body, base=3, policy=POLICY_BASE)


def test_base_policy_instantiates_at_a_type_of_the_same_size():
    # a forall is read at the base set, so [b] keeps the value, while the
    # unit's one-cell space cannot hold it
    at_b = eval_term(TyApp(bool_term(True), TyVar("b")), policy=POLICY_BASE)
    assert at_b.index == eval_term(bool_term(True), policy=POLICY_BASE).index
    assert type_alpha_eq(at_b.space.ty, parse_type("b -o b -o b"))
    with pytest.raises(SemanticsUnsupported,
                       match=r"changes the interpretation size \(1 vs 16\)"):
        eval_term(TyApp(bool_term(True), UNIT), policy=POLICY_BASE)


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
