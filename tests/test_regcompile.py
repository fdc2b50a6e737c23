import itertools

import pytest

from ealc import (
    App, Arrow, BangType, BOOL, EAL, MonoidPresentation, RegexError,
    STR, church_string, compile_dfa, compile_monoid, dfa, dfa_from_json,
    dfa_to_json, read_bool, regex_to_dfa, transition_monoid, type_alpha_eq,
    typecheck_closed,
)
from ealc.regcompile import (
    AutomatonError, dfa_equiv, minimize, monoid_from_dict,
)

from corpus import ALL_STRINGS, CONTAINS_11, DIV3, PARITY, REFERENCE_DFAS


def words(max_len):
    for n in range(max_len + 1):
        for tup in itertools.product("01", repeat=n):
            yield "".join(tup)


# -- regexes ------------------------------------------------------------------

def test_regex_all_strings():
    d = regex_to_dfa("(0|1)*")
    assert len(d.states) == 1 and d.run("") and d.run("0101")


def test_regex_empty_is_epsilon_only():
    d = regex_to_dfa("")
    assert len(d.states) == 2 and d.run("") and not d.run("0")


def test_regex_odd_ones():
    d = regex_to_dfa("0*10*(10*10*)*")
    assert len(d.states) == 2
    for w in words(8):
        assert d.run(w) == (w.count("1") % 2 == 1), w


def test_regex_literals_and_alternation():
    d = regex_to_dfa("(e|1)0")
    for w in words(5):
        assert d.run(w) == (w in ("0", "10")), w


def test_regex_errors():
    with pytest.raises(RegexError):
        regex_to_dfa("(01")
    with pytest.raises(RegexError):
        regex_to_dfa("2")


# -- DFA structure --------------------------------------------------------------

def test_dfa_validation():
    with pytest.raises(AutomatonError):
        dfa(["a"], "b", [], {"a": {"0": "a", "1": "a"}})
    with pytest.raises(AutomatonError):
        dfa(["a"], "a", [], {"a": {"0": "a"}})
    with pytest.raises(AutomatonError):
        dfa(["a"], "a", ["c"], {"a": {"0": "a", "1": "a"}})


def test_dfa_json_round_trip():
    text = dfa_to_json(PARITY)
    again = dfa_from_json(text)
    assert dfa_equiv(PARITY, again)
    assert dfa_to_json(again) == text


# -- transition monoids ------------------------------------------------------------

def test_parity_monoid_is_z2():
    m = transition_monoid(PARITY)
    assert m.size == 2
    assert m.table == ((1, 2), (2, 1))
    assert m.gen0 == 1 and m.gen1 == 2
    assert m.accept == frozenset({1})


def test_trivial_monoid():
    m = transition_monoid(ALL_STRINGS)
    assert m.size == 1 and m.accept == frozenset({1})


def test_monoid_preimage_agrees_with_dfa():
    for name, d, oracle in REFERENCE_DFAS:
        m = transition_monoid(d)
        for w in words(8):
            assert m.accepts(w) == d.run(w), (name, w)


def test_morphism_property():
    for name, d, _ in REFERENCE_DFAS:
        m = transition_monoid(d)
        for u in words(5):
            for v in words(3):
                assert m.phi(u + v) == m.prod(m.phi(u), m.phi(v)), (name, u, v)


def test_minimized_dfa_same_language_through_monoid():
    for name, d, _ in REFERENCE_DFAS:
        m1 = transition_monoid(d)
        m2 = transition_monoid(minimize(d))
        for w in words(8):
            assert m1.accepts(w) == m2.accepts(w), (name, w)


def test_monoid_validation():
    with pytest.raises(AutomatonError):  # 2 is not an identity-respecting table
        monoid_from_dict({"size": 2, "table": [[1, 2], [1, 1]],
                          "gen0": 1, "gen1": 2, "accept": [1]})
    with pytest.raises(AutomatonError):  # associativity broken
        monoid_from_dict({"size": 3,
                          "table": [[1, 2, 3], [2, 3, 3], [3, 1, 2]],
                          "gen0": 2, "gen1": 3, "accept": []})


# -- the compiler -------------------------------------------------------------------

def test_compiled_terms_typecheck():
    for name, d, _ in REFERENCE_DFAS:
        term = compile_dfa(d)
        assert type_alpha_eq(typecheck_closed(EAL, term),
                             Arrow(STR, BangType(BOOL))), name


def test_compile_trivial_monoids():
    yes = MonoidPresentation(1, ((1,),), 1, 1, frozenset({1}))
    no = MonoidPresentation(1, ((1,),), 1, 1, frozenset())
    t_yes, t_no = compile_monoid(yes), compile_monoid(no)
    for w in ["", "0", "0101"]:
        assert read_bool(App(t_yes, church_string(w))) is True
        assert read_bool(App(t_no, church_string(w))) is False


def test_compile_soundness_sampled():
    for name, d, oracle in REFERENCE_DFAS:
        term = compile_dfa(d)
        for w in words(6):
            got = read_bool(App(term, church_string(w)))
            assert got == d.run(w) == oracle(w), (name, w)


def test_compile_epsilon_only():
    d = regex_to_dfa("")
    term = compile_dfa(d)
    assert read_bool(App(term, church_string(""))) is True
    assert read_bool(App(term, church_string("0"))) is False
