import itertools
import random

import pytest

from ealc import (
    App, Arrow, Bang, BangLam, BOOL, CapExceeded, DecodeError, EAL, Fold,
    FuelExhausted, Lam, STR, TyApp, TyVar, Unfold, UnsupportedShape, Var,
    alpha_eq, bool_term, church_string, compile_dfa, compile_monoid,
    decompose_bang_input, decompose_iterator, dfa, dfa_equiv, dfa_to_json,
    extract_lstar, extract_semantic, minimize, normalize, print_term,
    read_bool, regex_to_dfa, transition_monoid, truncated_iterator,
    typecheck_closed, verify_dfa,
)
from ealc import monoid_ty, promote, type_alpha_eq
from ealc.cli import main
from ealc.extract import _DECISION_TYPES, _decision_shape, membership_oracle
from ealc.reduction import Evaluator, trace
from ealc.semantics import POLICY_BASE, POLICY_ERROR

from corpus import (
    ALL_STRINGS, CONTAINS_11, DIV3, PARITY, REFERENCE_DFAS, const_decider,
    two_type_uses_decider,
)


def words(max_len):
    for n in range(max_len + 1):
        for tup in itertools.product("01", repeat=n):
            yield "".join(tup)


# -- DFA utilities -----------------------------------------------------------------

def test_minimize_is_equivalent_and_minimal():
    red = dfa(["a", "b", "c", "d"], "a", ["a", "c"],
              {"a": {"0": "a", "1": "b"}, "b": {"0": "b", "1": "c"},
               "c": {"0": "c", "1": "d"}, "d": {"0": "d", "1": "a"}})
    m = minimize(red)
    assert len(m.states) == 2
    assert dfa_equiv(red, m)
    assert dfa_equiv(PARITY, m)


def test_minimize_fixed_point():
    for _, d, _ in REFERENCE_DFAS:
        m = minimize(d)
        assert dfa_equiv(d, m)
        assert len(minimize(m).states) == len(m.states)


def test_equiv_finds_counterexample():
    assert not dfa_equiv(PARITY, CONTAINS_11)
    assert dfa_equiv(ALL_STRINGS, minimize(ALL_STRINGS))


def test_dfa_run():
    assert PARITY.run("") and not PARITY.run("1")


# -- decomposition -----------------------------------------------------------------

def test_decompose_constant():
    t = BangLam("x", STR, Bang(Bang(bool_term(True))))
    dec = decompose_bang_input(t)
    assert dec.n == 0 and dec.bang_peel == 2
    assert alpha_eq(dec.u, bool_term(True))


def test_decompose_promoted_parity():
    t = promote(compile_dfa(PARITY), 1, 1, EAL)
    dec = decompose_bang_input(t)
    assert dec.n == 1 and dec.bang_peel == 1
    assert type_alpha_eq(dec.sigmas[0], monoid_ty(2))


def test_decompose_two_uses():
    dec = decompose_bang_input(two_type_uses_decider())
    assert dec.n == 2
    assert type_alpha_eq(dec.sigmas[0], TyVar("c"))
    assert type_alpha_eq(dec.sigmas[1], monoid_ty(2))


def test_decompose_plain_input():
    dec = decompose_bang_input(compile_dfa(PARITY))
    assert dec.n == 1 and dec.bang_peel == 0 and not dec.input_banged


def test_decomposition_contract_random_words():
    rng = random.Random(11)
    cases = [
        promote(compile_dfa(PARITY), 1, 1, EAL),
        compile_dfa(CONTAINS_11),
        two_type_uses_decider(),
        const_decider(True),
    ]
    for t in cases:
        dec = decompose_bang_input(t)
        banged = dec.input_banged
        for _ in range(13):  # 52 sampled words across the four shapes
            w = "".join(rng.choice("01") for _ in range(rng.randint(0, 8)))
            s = church_string(w)
            lhs = normalize(App(t, Bang(s) if banged else s))
            rhs = normalize(dec.apply_to(s))
            assert alpha_eq(lhs, rhs), w


def test_decompose_rejects_wrong_type():
    with pytest.raises(UnsupportedShape):
        decompose_bang_input(bool_term(True))


# -- iterator decomposition -------------------------------------------------------

def test_iterator_of_compiled_parity():
    dec = decompose_bang_input(compile_dfa(PARITY))
    parts = decompose_iterator(dec.u)
    assert parts.m == 1
    assert type_alpha_eq(parts.sigma, monoid_ty(2))
    # f0 is the identity action, f1 the toggle
    m = transition_monoid(PARITY)
    assert m.gen0 == 1


def test_iterator_constant():
    # constant case: \x:Str[sigma]. !true
    from ealc.encode import str_of
    u = Lam("x", str_of(TyVar("b")), Bang(bool_term(True)))
    parts = decompose_iterator(u)
    assert parts.m == 0
    assert alpha_eq(parts.g, bool_term(True))


def test_iterator_two_lets():
    # hand-built two-let chain: let !d = x !f0 !f1 in (let-shape nesting)
    from ealc.encode import str_of
    b = TyVar("b")
    idb = Lam("v", b, Var("v"))
    inner = App(App(Var("x"), Bang(idb)), Bang(idb))
    chain = App(BangLam("d1", Arrow(b, b),
                        Bang(App(Var("d1"), Var("q")))),
                App(BangLam("d2", Arrow(b, b), Bang(Var("d2"))), inner))
    # close over q so the chain is a function of it; keep x the string arg
    u = Lam("x", str_of(b), App(BangLam("d1", Arrow(b, b), Bang(Var("d1"))),
                                App(BangLam("d2", Arrow(b, b), Bang(Var("d2"))),
                                    inner)))
    parts = decompose_iterator(u)
    assert parts.m == 1  # d2 flows through d1 into a single hole
    s = church_string("01")
    h = normalize(App(App(TyApp(s, b), Bang(parts.f0)), Bang(parts.f1)))
    assert isinstance(h, Bang)
    lhs = normalize(App(u, TyApp(s, b)))
    body = parts.g
    for _ in range(parts.m):
        body = App(body, h.body)
    assert alpha_eq(lhs, normalize(Bang(body)))


def test_iterator_contract_on_words():
    dec = decompose_bang_input(compile_dfa(PARITY))
    parts = decompose_iterator(dec.u)
    for w in words(8):
        s = church_string(w)
        h = normalize(App(App(TyApp(s, parts.sigma), Bang(parts.f0)),
                          Bang(parts.f1)))
        assert isinstance(h, Bang)
        lhs = normalize(App(dec.u, TyApp(s, parts.sigma)))
        body = parts.g
        for _ in range(parts.m):
            body = App(body, h.body)
        assert alpha_eq(lhs, normalize(Bang(body))), w


def test_truncated_iterator_contract():
    dec = decompose_bang_input(compile_dfa(PARITY))
    parts = decompose_iterator(dec.u)
    tp = truncated_iterator(parts)
    for w in words(8):
        s = church_string(w)
        h = normalize(App(App(TyApp(s, tp.sigma), Bang(tp.f0)), Bang(tp.f1)))
        assert isinstance(h, Bang)
        lhs = normalize(App(dec.u, TyApp(s, parts.sigma)))
        body = tp.g
        for _ in range(tp.m):
            body = App(body, h.body)
        assert alpha_eq(lhs, normalize(Bang(body))), w


def test_truncated_iterator_with_real_bangs():
    # step functions containing bangs truncate to unit plumbing but keep
    # the same observable verdicts
    from ealc.encode import str_of
    f_bangy = Lam("b", BOOL, App(BangLam("y", BOOL, Var("b")),
                                 Bang(bool_term(True))))
    u = Lam("x", str_of(BOOL),
            App(BangLam("d", Arrow(BOOL, BOOL),
                        Bang(App(Var("d"), bool_term(True)))),
                App(App(Var("x"), Bang(f_bangy)), Bang(f_bangy))))
    typecheck_closed(EAL, u)
    parts = decompose_iterator(u)
    tp = truncated_iterator(parts)
    assert typecheck_closed(EAL, tp.f0) is not None
    for w in ["", "0", "01"]:
        s = church_string(w)
        h = normalize(App(App(TyApp(s, tp.sigma), Bang(tp.f0)), Bang(tp.f1)))
        lhs = normalize(App(u, TyApp(s, parts.sigma)))
        body = tp.g
        for _ in range(tp.m):
            body = App(body, h.body)
        assert alpha_eq(lhs, normalize(Bang(body))), w


def test_iterator_refuses_n2():
    dec = decompose_bang_input(two_type_uses_decider())
    with pytest.raises(UnsupportedShape):
        decompose_iterator(dec.u)


# -- learning extraction --------------------------------------------------------

def test_lstar_parity():
    d = extract_lstar(compile_dfa(PARITY), max_len=8, seed=0)
    assert dfa_equiv(d, PARITY)
    assert len(d.states) == 2


def test_lstar_contains_11():
    d = extract_lstar(compile_dfa(CONTAINS_11), max_len=8, seed=0)
    assert dfa_equiv(d, CONTAINS_11)
    assert len(d.states) == 3


def test_lstar_constant_false():
    t = BangLam("x", STR, Bang(Bang(bool_term(False))))
    d = extract_lstar(t, max_len=5, seed=0)
    assert len(d.states) == 1
    assert not d.run("") and not d.run("0101")


def test_lstar_deterministic():
    a = extract_lstar(compile_dfa(PARITY), max_len=6, seed=3)
    b = extract_lstar(compile_dfa(PARITY), max_len=6, seed=3)
    assert a == b


# -- semantic extraction ----------------------------------------------------------

def test_semantic_constant_term():
    d = extract_semantic(BangLam("x", STR, Bang(Bang(bool_term(True)))),
                         verify_len=4)
    assert len(d.states) == 1 and d.run("") and d.run("010")


def test_semantic_quantifier_free_deciders_cross_method():
    for t in (const_decider(True), const_decider(False, banged_input=False)):
        d_sem = extract_semantic(t, base=2, policy=POLICY_ERROR, verify_len=8)
        d_ls = extract_lstar(t, max_len=8, seed=0)
        assert dfa_equiv(d_sem, d_ls)
        assert verify_dfa(d_sem, t, 8).ok


def test_semantic_cap_exceeded_on_quantified_sigma():
    t = promote(compile_dfa(PARITY), 1, 1, EAL)
    with pytest.raises(CapExceeded):
        extract_semantic(t, base=2, policy=POLICY_BASE)


def test_pair_table_cap_is_checked_before_the_end_table(monkeypatch):
    # |A| decides the pair-table cap, so End(A) (7^7 entries here) is
    # never built; End(A) over the cap is still reported first
    def unbuilt(space, cap):
        raise AssertionError("End(A) was built")
    monkeypatch.setattr("ealc.extract.EndoMonoid", unbuilt)
    with pytest.raises(CapExceeded, match=r"^pair table over End\(a\)"):
        extract_semantic(const_decider(True), base=7)
    monkeypatch.undo()
    with pytest.raises(CapExceeded, match=r"^End\(a\) needs 16777216"):
        extract_semantic(const_decider(True), base=8)


def test_membership_oracle_shapes():
    banged = promote(compile_dfa(PARITY), 1, 1, EAL)
    plain = compile_dfa(PARITY)
    qb = membership_oracle(banged)
    qp = membership_oracle(plain)
    for w in ["", "1", "11"]:
        assert qb(w) == qp(w) == PARITY.run(w)


# -- the oracle's evaluator against the rewriting reader ------------------------

def _bang_bool_decider():
    """\\!x:Str. !((\\!d. true) (x [a] !id !id)), of type !Str -o !Bool."""
    a = TyVar("a")
    ida = Lam("v", a, Var("v"))
    subject = App(App(TyApp(Var("x"), a), Bang(ida)), Bang(ida))
    return BangLam("x", STR, Bang(App(BangLam("d", Arrow(a, a), bool_term(True)),
                                      subject)))


def _decider(name):
    kind, _, rest = name.partition(":")
    if kind in ("dfa", "promoted"):
        t = compile_dfa(dict((n, d) for n, d, _ in REFERENCE_DFAS)[rest])
        return t if kind == "dfa" else promote(t, 1, 1, EAL)
    if kind == "monoid":
        regex = "(0|1)*1" + "(0|1)" * int(rest)
        return compile_monoid(transition_monoid(regex_to_dfa(regex)))
    return {"const-true": const_decider(True),
            "const-false-plain": const_decider(False, banged_input=False),
            "two-uses": two_type_uses_decider(),
            "bang-bool": _bang_bool_decider()}[rest]


DECIDERS = ([kind + ":" + n for n, _, _ in REFERENCE_DFAS for kind in ("dfa", "promoted")]
            + ["monoid:%d" % k for k in range(5)]
            + ["hand:const-true", "hand:const-false-plain", "hand:two-uses",
               "hand:bang-bool"])


def test_deciders_cover_the_three_decision_types():
    covered = {i for n in DECIDERS for i, (_, want) in enumerate(_DECISION_TYPES)
               if type_alpha_eq(typecheck_closed(EAL, _decider(n)), want)}
    assert covered == {0, 1, 2}


def _no_rewriting(*args):
    raise AssertionError("the oracle fell back to rewriting")


@pytest.mark.parametrize("name", DECIDERS)
def test_oracle_matches_read_bool(name, monkeypatch):
    # the oracle may not fall back, so every verdict is the evaluator's
    monkeypatch.setattr("ealc.extract.read_bool", _no_rewriting)
    monkeypatch.setattr("ealc.extract.church_string", _no_rewriting)
    t = _decider(name)
    banged = _decision_shape(t) == "bang"
    query = membership_oracle(t)
    for w in words(8):
        arg = church_string(w)
        assert query(w) == read_bool(App(t, Bang(arg) if banged else arg)), w


def test_oracle_decides_long_words():
    # the word is a native iterator, so |w| = 10^4 needs no deeper stack
    rng = random.Random(5)
    w = "".join(rng.choice("01") for _ in range(10 ** 4))
    for name in ("dfa:div3", "promoted:div3"):
        query = membership_oracle(_decider(name))
        for v in (w, w + "0", w + "1"):
            assert query(v) == DIV3.run(v), (name, len(v))


def test_oracle_fuel(tmp_path, capsys):
    t = compile_dfa(PARITY)
    with pytest.raises(FuelExhausted, match=r"^no normal form after 5 reduction steps$"):
        membership_oracle(t, fuel=5)("0110")
    # on a compiled recognizer evaluation makes the engine's contractions
    steps = sum(1 for _ in trace(App(t, church_string("0110"))))
    assert membership_oracle(t, fuel=steps)("0110") == PARITY.run("0110")
    with pytest.raises(FuelExhausted):
        membership_oracle(t, fuel=steps - 1)("0110")
    with pytest.raises(FuelExhausted):
        Evaluator(fuel=1).evaluate(App(Lam("x", None, Var("x")), App(
            Lam("y", None, Var("y")), Var("z"))))
    term = tmp_path / "parity.eal"
    term.write_text(print_term(t) + "\n", encoding="utf-8")
    automaton = tmp_path / "parity.json"
    automaton.write_text(dfa_to_json(PARITY), encoding="utf-8")
    assert main(["verify", str(term), "--dfa", str(automaton), "--fuel", "5"]) == 3
    assert capsys.readouterr().err == \
        "resource limit: no normal form after 5 reduction steps\n"


def test_evaluator_reads_booleans_as_erasure_does():
    # untyped bodies under \\!w. !_: the evaluator reads a boolean exactly
    # when read_bool does, and returns None where read_bool raises
    x, y, a = Var("x"), Var("y"), TyVar("a")
    ida = Lam("z", None, Var("z"))
    iterate = App(App(TyApp(Var("w"), a), Bang(ida)), Bang(ida))
    bodies = [
        Lam("x", None, Lam("y", None, TyApp(x, a))),
        Lam("x", None, Lam("y", None, Unfold(y))),
        Lam("x", None, Lam("y", None, Unfold(Fold(a, x)))),
        Lam("x", None, Lam("x", None, x)),
        bool_term(False),
        Fold(a, Bang(bool_term(True))),
        App(BangLam("d", None, Lam("x", None, Lam("y", None, App(Var("d"), x)))),
            iterate),
        Lam("x", None, Lam("y", None, App(BangLam("d", None, x), y))),
        Lam("x", None, Bang(Lam("y", None, x))),
        Lam("x", None, Lam("y", None, App(x, y))),
        Lam("x", None, Lam("y", None, Var("free"))),
    ]
    for body in bodies:
        t = BangLam("w", None, Bang(body))
        evaluator = Evaluator()
        f = evaluator.evaluate(t)
        for w in ("", "0", "10"):
            try:
                want = read_bool(App(t, Bang(church_string(w))))
            except DecodeError:
                want = None
            assert evaluator.decide(f, w, True) is want, (print_term(body), w)


def test_oracle_rejects_non_binary_words():
    query = membership_oracle(compile_dfa(PARITY))
    with pytest.raises(ValueError, match="not a binary string"):
        query("012")


# -- verification ------------------------------------------------------------------

def test_verify_pass_and_fail():
    t = compile_dfa(PARITY)
    ok = verify_dfa(PARITY, t, 6)
    assert ok.ok and ok.checked == 127
    bad = verify_dfa(CONTAINS_11, t, 6)
    assert not bad.ok
    # "0" has an even number of 1s (term accepts) but no "11" (dfa rejects)
    assert any(w == "0" for w, _, _ in bad.mismatches)


def test_verify_length_zero():
    t = compile_dfa(PARITY)
    rep = verify_dfa(PARITY, t, 0)
    assert rep.ok and rep.checked == 1


def test_phi_state_transition_law():
    # appending a letter composes the pair's own endomorphism on the right;
    # recompute each extended table from scratch to cross-check then_letter
    from ealc import phi_of_word
    from ealc.semantics import EndoMonoid, interp_type
    a = TyVar("a")
    m = EndoMonoid(interp_type(a, base=2))
    for w in words(4):
        state = phi_of_word(a, w)
        for c in "01":
            assert state.then_letter(c, m) == phi_of_word(a, w + c), (w, c)


def test_truncation_fixes_booleans():
    from ealc import truncate_term
    for b in (True, False):
        assert alpha_eq(truncate_term(bool_term(b)), bool_term(b))
