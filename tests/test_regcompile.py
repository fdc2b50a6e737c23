import itertools
import random
import time

import pytest

from ealc import (
    App, Arrow, BangType, BOOL, EAL, MonoidPresentation, RegexError,
    STR, church_string, compile_dfa, compile_monoid, dfa, dfa_from_json,
    dfa_to_json, read_bool, regex_to_dfa, transition_monoid, type_alpha_eq,
    typecheck_closed,
)
from ealc.regcompile import (
    MONOID_BUDGET, AutomatonError, Dfa, MonoidBudgetExceeded,
    _associative_by_generators, dfa_equiv, minimize, monoid_from_dict, numbered_dfa,
)

import match_reference as ref
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
    for text, message in [("(01", "unbalanced parenthesis at 3"),
                          ("2", "unexpected '2' at position 0"),
                          ("*0", "unexpected '*' at position 0"),
                          ("0(*)", "unexpected '*' at position 2"),
                          ("0|*", "unexpected '*' at position 2"),
                          ("01 ", "unexpected ' ' at position 2"),
                          ("(0))(", "trailing input at position 3"),
                          ("((0)|1", "unbalanced parenthesis at 6")]:
        with pytest.raises(RegexError) as e:
            regex_to_dfa(text)
        assert str(e.value) == message, text


def random_regex_text(rng, leaves):
    """A seeded regex text over 0 1 e with `leaves` letters; each
    concatenation, alternation and starred part is put in parentheses or
    not at random, so the texts test precedence as well."""
    if leaves == 1:
        text = rng.choice("01e")
    else:
        k = rng.randint(1, leaves - 1)
        text = random_regex_text(rng, k) + rng.choice(("", "|")) \
            + random_regex_text(rng, leaves - k)
    if rng.random() < 0.5:
        text = "(%s)" % text
    return text + "*" if rng.random() < 0.3 else text


def test_regex_matches_the_derivative_reference():
    # the position automaton against the derivative construction it
    # replaced: equal minimal DFAs, or equal error texts
    def outcome(compile_regex, text):
        try:
            return compile_regex(text)
        except RegexError as e:
            return "RegexError: %s" % e

    rng = random.Random(28)
    texts = ["", "()", "(|)", "e*", "**", "(*)", "0|", ")", "(0", "0)", "|*", "e**",
             "((0|1)*)*", "2", "(0|1)*1(0|1)(0|1)"]
    for _ in range(1000):
        texts.append(random_regex_text(rng, rng.randint(1, 12)))
        texts.append("".join(rng.choice("01e()|*") for _ in range(rng.randint(0, 10))))
    outcomes = [(outcome(regex_to_dfa, t), outcome(ref.regex_to_dfa, t)) for t in texts]
    assert [t for t, (got, want) in zip(texts, outcomes) if got != want] == []
    errors = sum(isinstance(got, str) for got, _ in outcomes)
    assert 500 < errors < len(texts) - 500


def test_minimize_matches_the_reference():
    rng = random.Random(28)
    for _ in range(1000):
        names = ["s%d" % i for i in range(rng.randint(1, 12))]
        d = dfa(names, rng.choice(names), [s for s in names if rng.random() < 0.4],
                {s: {c: rng.choice(names) for c in "01"} for s in names})
        assert minimize(d) == ref.minimize(d), d


# -- DFA structure --------------------------------------------------------------

def test_dfa_validation():
    with pytest.raises(AutomatonError):
        dfa(["a"], "b", [], {"a": {"0": "a", "1": "a"}})
    with pytest.raises(AutomatonError):
        dfa(["a"], "a", [], {"a": {"0": "a"}})
    with pytest.raises(AutomatonError):
        dfa(["a"], "a", ["c"], {"a": {"0": "a", "1": "a"}})


def test_dfa_is_an_immutable_value():
    rows = {"even": {"0": "even", "1": "odd"}, "odd": {"0": "odd", "1": "even"}}
    again = dfa(["even", "odd"], "even", ["even"], rows)
    assert again == PARITY and again is not PARITY
    assert again != dfa(["even", "odd"], "even", ["odd"], rows)
    with pytest.raises(AttributeError):
        again.start = "odd"
    # the checks run on direct construction too, not only through dfa()
    with pytest.raises(AutomatonError, match="duplicate state names"):
        Dfa(("a", "a"), "a", frozenset(), {"a": {"0": "a", "1": "a"}})
    with pytest.raises(AutomatonError, match=r"delta\('a', 1\) = 'b' unknown"):
        Dfa(("a",), "a", frozenset(), {"a": {"0": "a", "1": "b"}})


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


def first_reached(reach):
    """The values reach(w) takes, in the order shortlex-least words first
    reach them; stops at the first length that reaches nothing new, after
    which no longer word can."""
    seen = []
    for n in itertools.count():
        new = False
        for tup in itertools.product("01", repeat=n):
            v = reach("".join(tup))
            if v not in seen:
                seen.append(v)
                new = True
        if not new:
            return seen


def state_after(d, w):
    s = d.start
    for c in w:
        s = d.delta[s][c]
    return s


def test_numbering_follows_shortlex_witnesses():
    family = [regex_to_dfa("(0|1)*1" + "(0|1)" * k) for k in range(5)]
    for d in [d for _, d, _ in REFERENCE_DFAS] + family:
        m = transition_monoid(d)
        assert first_reached(m.phi) == list(range(1, m.size + 1))
        md = minimize(d)
        assert md.states == tuple("q%d" % i for i in range(len(md.states)))
        assert first_reached(lambda w: state_after(md, w)) == list(md.states)


def test_monoid_is_an_immutable_value():
    z2 = MonoidPresentation(2, ((1, 2), (2, 1)), 1, 2, frozenset({1}))
    assert z2 == transition_monoid(PARITY)
    assert z2 != MonoidPresentation(2, ((1, 2), (2, 1)), 2, 2, frozenset({1}))
    with pytest.raises(AttributeError):
        z2.gen0 = 2
    with pytest.raises(AutomatonError, match="1 is not a two-sided identity"):
        MonoidPresentation(2, ((1, 2), (1, 1)), 1, 2, frozenset({1}))
    with pytest.raises(AutomatonError, match="generator images out of range"):
        MonoidPresentation(2, ((1, 2), (2, 1)), 3, 2, frozenset({1}))


def test_monoid_budget():
    # Z_k, the cyclic group of rotations: one past the budget stops while
    # the elements are enumerated, before any table is built
    k = MONOID_BUDGET + 1
    rotation = numbered_dfa([{"0": i, "1": (i + 1) % k} for i in range(k)], [0])
    start = time.perf_counter()
    with pytest.raises(MonoidBudgetExceeded,
                       match="transition monoid has over 512 elements, budget is 512"):
        transition_monoid(rotation)
    assert time.perf_counter() - start < 1
    assert not issubclass(MonoidBudgetExceeded, AutomatonError)
    # a presentation's size is checked before its table
    small = {"table": [[1]], "gen0": 1, "gen1": 1, "accept": []}
    with pytest.raises(MonoidBudgetExceeded, match="monoid has 513 elements"):
        monoid_from_dict({**small, "size": MONOID_BUDGET + 1})
    with pytest.raises(AutomatonError, match="must be 512x512"):
        monoid_from_dict({**small, "size": MONOID_BUDGET})


def test_monoid_validation():
    with pytest.raises(AutomatonError):  # 2 is not an identity-respecting table
        monoid_from_dict({"size": 2, "table": [[1, 2], [1, 1]],
                          "gen0": 1, "gen1": 2, "accept": [1]})
    with pytest.raises(AutomatonError):  # associativity broken
        monoid_from_dict({"size": 3,
                          "table": [[1, 2, 3], [2, 3, 3], [3, 1, 2]],
                          "gen0": 2, "gen1": 3, "accept": []})


def _first_nonassociative(table):
    """The first triple in order on which the 1-based table is not
    associative, or None."""
    k = len(table)
    for a, b, c in itertools.product(range(k), repeat=3):
        if table[table[a][b] - 1][c] != table[a][table[b][c] - 1]:
            return a + 1, b + 1, c + 1
    return None


def _generates(table, gens):
    """Whether right multiplication by gens reaches every element from 1."""
    seen, todo = {1}, [1]
    while todo:
        x = todo.pop()
        for g in gens:
            y = table[x - 1][g - 1]
            if y not in seen:
                seen.add(y)
                todo.append(y)
    return len(seen) == len(table)


def _tables_with_identity(rng):
    """Transition monoids of seeded random DFAs, each also with one entry
    changed, and tables drawn at random around the identity row and column."""
    for _ in range(60):
        n = rng.randint(1, 3)
        table = transition_monoid(numbered_dfa(
            [{"0": rng.randrange(n), "1": rng.randrange(n)} for _ in range(n)],
            [0])).table
        yield table
        k = len(table)
        if k > 1:
            rows = [list(r) for r in table]
            rows[rng.randrange(1, k)][rng.randrange(1, k)] = rng.randint(1, k)
            yield tuple(map(tuple, rows))
    for _ in range(60):
        k = rng.randint(2, 5)
        yield ((tuple(range(1, k + 1)),)
               + tuple((i,) + tuple(rng.randint(1, k) for _ in range(k - 1))
                       for i in range(2, k + 1)))


def test_light_associativity_test_agrees_with_the_full_check():
    rng = random.Random(50)
    kinds = set()
    for table in _tables_with_identity(rng):
        k = len(table)
        full = _first_nonassociative(table)
        for gens in {(g0, g1) for g0 in range(1, k + 1) for g1 in (g0, k)}:
            generated = _generates(table, gens)
            light = _associative_by_generators(table, (gens[0] - 1, gens[1] - 1))
            assert light == (generated and full is None), (table, gens)
            kinds.add((generated, full is None))
            if full is None:
                MonoidPresentation(k, table, *gens, frozenset())
            else:
                with pytest.raises(AutomatonError,
                                   match=r"associativity fails on \(%d, %d, %d\)" % full):
                    MonoidPresentation(k, table, *gens, frozenset())
    assert kinds == {(True, True), (True, False), (False, True), (False, False)}


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
