"""Compiling regular languages over {0,1} into closed terms of type
Str -o !Bool.

The pipeline is regex -> DFA -> transition monoid -> term.  A regex
becomes a DFA through its position automaton, built in one scan of the
text; the DFA is then minimized.  A language given as a finite-monoid
morphism preimage is compiled directly: monoid elements become the
selector terms m_i : Mk, each letter becomes the left-multiplication step
delta_c : Mk -o Mk, and membership of the final element in the accepting
subset is read off by chi_S : Mk -o Bool.  A monoid of more than
MONOID_BUDGET elements is refused with MonoidBudgetExceeded.
"""

from __future__ import annotations

import itertools
import json
from collections import namedtuple

from .syntax import (
    App, Arrow, Bang, BangLam, InputError, Lam, ResourceLimit, Term, TyApp, Var,
)
from .encode import (
    BOOL, STR, bool_term, monoid_elem, monoid_ty,
)

ALPHABET = ("0", "1")


class AutomatonError(InputError):
    """An automaton or presentation violates its structural invariants."""


# The largest monoid compiled.  A k-element monoid has a k^2 table and an
# O(k^3) associativity check, so the budget bounds the time of a compile;
# the k = 7 family monoid, (0|1)*1(0|1)^7, has 511 elements.
MONOID_BUDGET = 512


class MonoidBudgetExceeded(ResourceLimit):
    """A monoid has more elements than MONOID_BUDGET."""

    def __init__(self, what, size):
        super().__init__("%s has %s elements, budget is %d" % (what, size, MONOID_BUDGET))


# ---------------------------------------------------------------------------
# DFAs

class Dfa(namedtuple("Dfa", "states start accept delta")):
    """Deterministic automaton over {0,1}; delta is total.  states is a
    tuple, accept a frozenset, delta maps state -> {"0": state, "1": state}."""
    __slots__ = ()

    def __new__(cls, states: tuple, start: str, accept: frozenset, delta: dict):
        names = set(states)
        if len(states) != len(names):
            raise AutomatonError("duplicate state names")
        if start not in names:
            raise AutomatonError("start state %r unknown" % start)
        if not accept <= names:
            raise AutomatonError("accepting states %s unknown"
                                 % sorted(accept - names))
        for s in states:
            row = delta.get(s)
            if row is None or set(row) != set(ALPHABET):
                raise AutomatonError("transition row for %r must cover 0 and 1" % s)
            for c in ALPHABET:
                if row[c] not in names:
                    raise AutomatonError("delta(%r, %s) = %r unknown" % (s, c, row[c]))
        return super().__new__(cls, states, start, accept, delta)

    def run(self, w: str) -> bool:
        s, delta = self.start, self.delta
        for c in w:
            s = delta[s][c]
        return s in self.accept


def dfa(states, start, accept, delta) -> Dfa:
    return Dfa(tuple(states), start, frozenset(accept),
               {s: dict(row) for s, row in delta.items()})


def dfa_to_json(d: Dfa) -> str:
    obj = {
        "alphabet": list(ALPHABET),
        "states": list(d.states),
        "start": d.start,
        "accept": sorted(d.accept),
        "delta": {s: {c: d.delta[s][c] for c in ALPHABET} for s in d.states},
    }
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def dfa_from_json(text: str) -> Dfa:
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise AutomatonError("DFA must be a JSON object")
    try:
        alphabet = obj.get("alphabet", [])
        if not isinstance(alphabet, list) or sorted(alphabet) != ["0", "1"]:
            raise AutomatonError('alphabet must be ["0", "1"]')
        states, start, accept, delta = (
            obj[k] for k in ("states", "start", "accept", "delta"))
        if not (isinstance(states, list) and isinstance(accept, list)):
            raise AutomatonError("states and accept must be JSON lists")
        if not (isinstance(delta, dict)
                and all(isinstance(row, dict) for row in delta.values())):
            raise AutomatonError("delta and its rows must be JSON objects")
        return dfa(states, start, accept, delta)
    except KeyError as e:
        raise AutomatonError("DFA lacks %s" % e) from None
    except (TypeError, AttributeError, ValueError) as e:
        raise AutomatonError("malformed DFA: %s" % e) from None


def explore(start, step):
    """Number the states reachable from `start` under step(state, c) in
    breadth-first order, which is the shortlex order of their least
    witness words.  Returns (order, succ): order[i] is state i and
    succ[i][c] the number of step(order[i], c)."""
    index = {start: 0}
    order = [start]
    succ = []
    for state in order:  # grows while it is read
        row = {}
        for c in ALPHABET:
            nxt = step(state, c)
            if nxt not in index:
                index[nxt] = len(order)
                order.append(nxt)
            row[c] = index[nxt]
        succ.append(row)
    return order, succ


def numbered_dfa(succ: list, accept) -> Dfa:
    """The DFA on states q0, q1, ... with q_i -c-> q_succ[i][c], starting
    at q0 and accepting the q_i with i in `accept`."""
    names = ["q%d" % i for i in range(len(succ))]
    return Dfa(tuple(names), "q0", frozenset(names[i] for i in accept),
               {names[i]: {c: names[j] for c, j in row.items()}
                for i, row in enumerate(succ)})


def minimize(d: Dfa) -> Dfa:
    """Unique minimal DFA (Moore partition refinement), states renamed
    q0, q1, ... in BFS order from the start state."""
    states, succ = explore(d.start, lambda s, c: d.delta[s][c])
    block = [s in d.accept for s in states]
    while True:  # a state's next block is its block and its successors'
        sigs = {}
        refined = [sigs.setdefault((b, *map(block.__getitem__, row.values())), len(sigs))
                   for b, row in zip(block, succ)]
        if len(sigs) == len(set(block)):
            break
        block = refined

    rep = {}
    for i, b in enumerate(block):
        rep.setdefault(b, i)
    blocks, moves = explore(block[0], lambda b, c: block[succ[rep[b]][c]])
    return numbered_dfa(moves, [i for i, b in enumerate(blocks)
                                if states[rep[b]] in d.accept])


def dfa_equiv(a: Dfa, b: Dfa) -> bool:
    """Language equivalence: every reachable state of the product automaton
    accepts in both DFAs or in neither."""
    pairs, _ = explore((a.start, b.start),
                       lambda p, c: (a.delta[p[0]][c], b.delta[p[1]][c]))
    return all((sa in a.accept) == (sb in b.accept) for sa, sb in pairs)


def all_words(max_len: int):
    """Every word over {0,1} of length <= max_len, in shortlex order."""
    for n in range(max_len + 1):
        for tup in itertools.product(ALPHABET, repeat=n):
            yield "".join(tup)


# ---------------------------------------------------------------------------
# Regexes via the position automaton (Glushkov 1961; Berry and Sethi,
# "From regular expressions to deterministic automata", TCS 1986).  The
# letters of the text are positions 1, 2, ...; position 0 is the start.
# A factor is a triple (nullable, first, last): whether it matches the
# empty word, and the positions that can begin and end a word of it.
# follow[p] holds the positions that can come right after position p, and
# at[c] the positions of letter c.

class RegexError(InputError):
    pass


_EPS = (True, frozenset(), frozenset())


def regex_to_dfa(regex: str) -> Dfa:
    """Minimal complete DFA of the regex (literals 0 1, e for the empty
    word, concatenation, |, *, parentheses; the empty regex denotes {e}).

    One left-to-right scan keeps a stack of open groups, each a list of
    its alternatives, each a list of its factors.  A DFA state is the set
    of positions the word read so far can end on."""
    at, follow = {c: set() for c in ALPHABET}, [set()]

    def concat(factors):
        nullable, first, last = _EPS
        for n, f, l in factors:
            for p in last:
                follow[p] |= f
            first = first | f if nullable else first
            last = last | l if n else l
            nullable = nullable and n
        return nullable, first, last

    def union(alternatives):
        nullable, first, last = zip(*map(concat, alternatives))
        return any(nullable), frozenset().union(*first), frozenset().union(*last)

    groups = [[[]]]
    after_factor = False
    for i, c in enumerate(regex):
        factors = groups[-1][-1]
        if c in ALPHABET:
            here = frozenset((len(follow),))
            at[c] |= here
            follow.append(set())
            factors.append((False, here, here))
        elif c == "e":
            factors.append(_EPS)
        elif c == "*" and after_factor:
            _, f, l = factors[-1]
            for p in l:
                follow[p] |= f
            factors[-1] = (True, f, l)
        elif c == "(":
            groups.append([[]])
        elif c == "|":
            groups[-1].append([])
        elif c == ")" and len(groups) > 1:
            groups[-2][-1].append(union(groups.pop()))
        elif c == ")":
            raise RegexError("trailing input at position %d" % i)
        else:
            raise RegexError("unexpected %r at position %d" % (c, i))
        after_factor = c in "01e*)"
    if len(groups) > 1:
        raise RegexError("unbalanced parenthesis at %d" % len(regex))

    start = frozenset((0,))
    _, _, last = concat([(False, start, start), union(groups[0])])
    order, succ = explore(start, lambda s, c: frozenset().union(*map(follow.__getitem__, s))
                          & at[c])
    return minimize(numbered_dfa(
        succ, [i for i, s in enumerate(order) if not s.isdisjoint(last)]))


# ---------------------------------------------------------------------------
# Transition monoids

class MonoidPresentation(namedtuple("MonoidPresentation",
                                    "size table gen0 gen1 accept")):
    """Finite monoid on {1..k} with generator images and accepting subset.

    table is a tuple of tuples, 1-indexed through `prod`; table[i-1][j-1]
    = i . j, and the identity element is 1.
    """
    __slots__ = ()

    def __new__(cls, size: int, table: tuple, gen0: int, gen1: int,
                accept: frozenset):
        k = size
        if k < 1:
            raise AutomatonError("monoid must be nonempty")
        if len(table) != k or any(len(r) != k for r in table):
            raise AutomatonError("multiplication table must be %dx%d" % (k, k))
        vals = {v for row in table for v in row}
        if not vals <= set(range(1, k + 1)):
            raise AutomatonError("table entries out of range 1..%d" % k)
        # the checks below index the 0-based storage directly
        for i in range(k):
            if table[0][i] != i + 1 or table[i][0] != i + 1:
                raise AutomatonError("1 is not a two-sided identity")
        for a in range(k):
            for b in range(k):
                ab = table[a][b] - 1
                for c in range(k):
                    if table[ab][c] != table[a][table[b][c] - 1]:
                        raise AutomatonError("associativity fails on (%d, %d, %d)"
                                             % (a + 1, b + 1, c + 1))
        if not {gen0, gen1} <= set(range(1, k + 1)):
            raise AutomatonError("generator images out of range")
        if not accept <= set(range(1, k + 1)):
            raise AutomatonError("accepting subset out of range")
        return super().__new__(cls, size, table, gen0, gen1, accept)

    def prod(self, i: int, j: int) -> int:
        return self.table[i - 1][j - 1]

    def phi(self, w: str) -> int:
        """The induced morphism {0,1}* -> M."""
        m = 1
        for c in w:
            m = self.prod(m, self.gen0 if c == "0" else self.gen1)
        return m

    def accepts(self, w: str) -> bool:
        return self.phi(w) in self.accept


def monoid_from_dict(obj: dict) -> MonoidPresentation:
    if not isinstance(obj, dict):
        raise AutomatonError("monoid must be a JSON object")
    try:
        size, table, gen0, gen1, accept = (
            obj[k] for k in ("size", "table", "gen0", "gen1", "accept"))
        table = tuple(tuple(r) for r in table)
        accept = tuple(accept)
        # bool is an int and True == 1: JSON true would load as element 1
        if not all(isinstance(v, int) and not isinstance(v, bool)
                   for v in itertools.chain((size, gen0, gen1), accept,
                                            *table)):
            raise AutomatonError("size, gen0, gen1, table and accept entries "
                                 "must be integers")
        if size > MONOID_BUDGET:
            raise MonoidBudgetExceeded("monoid", size)
        return MonoidPresentation(size, table, gen0, gen1, frozenset(accept))
    except KeyError as e:
        raise AutomatonError("monoid lacks %s" % e) from None
    except (TypeError, AttributeError, ValueError) as e:
        raise AutomatonError("malformed monoid: %s" % e) from None


def monoid_from_json(text: str) -> MonoidPresentation:
    return monoid_from_dict(json.loads(text))


def transition_monoid(d: Dfa) -> MonoidPresentation:
    """Submonoid of state maps generated by the two letter actions.

    Elements are numbered in BFS (shortlex witness) order starting from the
    identity map = 1, so w is accepted by d iff phi(w) lands in `accept`.
    Raises MonoidBudgetExceeded as soon as more than MONOID_BUDGET
    elements are found, before any table is built.
    """
    states = d.states
    ident = tuple(range(len(states)))
    idx = {s: i for i, s in enumerate(states)}
    gens = {c: tuple(idx[d.delta[s][c]] for s in states) for c in ALPHABET}

    def then(m1, m2):  # read word of m1, then word of m2
        return tuple(m2[v] for v in m1)

    seen = {ident}

    def step(m, c):
        nxt = then(m, gens[c])
        seen.add(nxt)
        if len(seen) > MONOID_BUDGET:
            raise MonoidBudgetExceeded("transition monoid", "over %d" % MONOID_BUDGET)
        return nxt

    order, _ = explore(ident, step)
    elems = {m: i + 1 for i, m in enumerate(order)}
    k = len(order)
    table = tuple(tuple(elems[then(a, b)] for b in order) for a in order)
    start_i = idx[d.start]
    accept = frozenset(elems[m] for m in order
                       if states[m[start_i]] in d.accept)
    return MonoidPresentation(k, table, elems[gens["0"]], elems[gens["1"]], accept)


# ---------------------------------------------------------------------------
# The compiler

def compile_monoid(m: MonoidPresentation) -> Term:
    """Closed recognizer of phi^-1(accept) at type Str -o !Bool.

    delta_c = \\n:Mk. n [Mk] m_{phi(c).1} ... m_{phi(c).k}
    chi_S   = \\n:Mk. n [Bool] b_1 ... b_k
    result  = \\w:Str. let !d = w [Mk] !delta_0 !delta_1 in !(chi_S (d m_1))
    """
    k = m.size
    mk = monoid_ty(k)

    def delta_term(gen: int) -> Term:
        body: Term = TyApp(Var("n"), mk)
        for i in range(1, k + 1):
            body = App(body, monoid_elem(m.prod(gen, i), k))
        return Lam("n", mk, body)

    chi: Term = TyApp(Var("n"), BOOL)
    for i in range(1, k + 1):
        chi = App(chi, bool_term(i in m.accept))
    chi_s = Lam("n", mk, chi)

    subject = App(App(TyApp(Var("w"), mk), Bang(delta_term(m.gen0))),
                  Bang(delta_term(m.gen1)))
    body = App(BangLam("d", Arrow(mk, mk),
                       Bang(App(chi_s, App(Var("d"), monoid_elem(1, k))))),
               subject)
    return Lam("w", STR, body)


def compile_dfa(d: Dfa) -> Term:
    return compile_monoid(transition_monoid(d))
