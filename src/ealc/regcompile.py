"""Compiling regular languages over {0,1} into closed terms of type
Str -o !Bool.

The pipeline is regex -> DFA -> transition monoid -> term.  A language
given as a finite-monoid morphism preimage is compiled directly: monoid
elements become the selector terms m_i : Mk, each letter becomes the
left-multiplication step delta_c : Mk -o Mk, and membership of the final
element in the accepting subset is read off by chi_S : Mk -o Bool.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

from .syntax import App, Arrow, Bang, BangLam, Lam, Term, TyApp, Var
from .encode import (
    BOOL, STR, bool_term, monoid_elem, monoid_ty,
)

ALPHABET = ("0", "1")


class AutomatonError(Exception):
    """An automaton or presentation violates its structural invariants."""


# ---------------------------------------------------------------------------
# DFAs

@dataclass(frozen=True)
class Dfa:
    """Deterministic automaton over {0,1}; delta is total."""
    states: tuple
    start: str
    accept: frozenset
    delta: dict  # state -> {"0": state, "1": state}

    def __post_init__(self):
        states = set(self.states)
        if len(self.states) != len(states):
            raise AutomatonError("duplicate state names")
        if self.start not in states:
            raise AutomatonError("start state %r unknown" % self.start)
        if not self.accept <= states:
            raise AutomatonError("accepting states %s unknown"
                                 % sorted(self.accept - states))
        for s in self.states:
            row = self.delta.get(s)
            if row is None or set(row) != set(ALPHABET):
                raise AutomatonError("transition row for %r must cover 0 and 1" % s)
            for c in ALPHABET:
                if row[c] not in states:
                    raise AutomatonError("delta(%r, %s) = %r unknown" % (s, c, row[c]))

    def run(self, w: str) -> bool:
        s = self.start
        for c in w:
            s = self.delta[s][c]
        return s in self.accept


def dfa(states, start, accept, delta) -> Dfa:
    return Dfa(tuple(states), start, frozenset(accept),
               {s: dict(row) for s, row in delta.items()})


def dfa_to_dict(d: Dfa) -> dict:
    return {
        "alphabet": list(ALPHABET),
        "states": list(d.states),
        "start": d.start,
        "accept": sorted(d.accept),
        "delta": {s: {c: d.delta[s][c] for c in ALPHABET} for s in d.states},
    }


def dfa_from_dict(obj: dict) -> Dfa:
    if not isinstance(obj, dict):
        raise AutomatonError("DFA must be a JSON object")
    try:
        if sorted(obj.get("alphabet", [])) != ["0", "1"]:
            raise AutomatonError('alphabet must be ["0", "1"]')
        return dfa(obj["states"], obj["start"], obj["accept"], obj["delta"])
    except KeyError as e:
        raise AutomatonError("DFA lacks %s" % e) from None
    except (TypeError, AttributeError, ValueError) as e:
        raise AutomatonError("malformed DFA: %s" % e) from None


def dfa_to_json(d: Dfa) -> str:
    return json.dumps(dfa_to_dict(d), indent=2, sort_keys=True) + "\n"


def dfa_from_json(text: str) -> Dfa:
    return dfa_from_dict(json.loads(text))


def _reachable(d: Dfa) -> list:
    seen = {d.start}
    order = [d.start]
    i = 0
    while i < len(order):
        for c in ALPHABET:
            nxt = d.delta[order[i]][c]
            if nxt not in seen:
                seen.add(nxt)
                order.append(nxt)
        i += 1
    return order


def minimize(d: Dfa) -> Dfa:
    """Unique minimal DFA (Moore partition refinement), states renamed
    q0, q1, ... in BFS order from the start state."""
    states = _reachable(d)
    block = {s: (s in d.accept) for s in states}
    while True:
        sig = {s: (block[s],) + tuple(block[d.delta[s][c]] for c in ALPHABET)
               for s in states}
        classes = {}
        for s in states:
            classes.setdefault(sig[s], []).append(s)
        if len(classes) == len(set(block.values())):
            break
        block = {}
        for i, (_, members) in enumerate(sorted(classes.items(),
                                                key=lambda kv: str(kv[0]))):
            for s in members:
                block[s] = i

    # canonical naming by BFS over blocks
    names = {}
    order = [block[d.start]]
    names[block[d.start]] = "q0"
    i = 0
    rep = {}
    for s in states:
        rep.setdefault(block[s], s)
    while i < len(order):
        b = order[i]
        for c in ALPHABET:
            nb = block[d.delta[rep[b]][c]]
            if nb not in names:
                names[nb] = "q%d" % len(names)
                order.append(nb)
        i += 1
    new_states = tuple(names[b] for b in order)
    delta = {names[b]: {c: names[block[d.delta[rep[b]][c]]] for c in ALPHABET}
             for b in order}
    accept = frozenset(names[block[s]] for s in states if s in d.accept)
    return Dfa(new_states, "q0", accept, delta)


def dfa_equiv(a: Dfa, b: Dfa) -> bool:
    """Language equivalence via product-automaton search."""
    seen = {(a.start, b.start)}
    frontier = [(a.start, b.start)]
    while frontier:
        sa, sb = frontier.pop()
        if (sa in a.accept) != (sb in b.accept):
            return False
        for c in ALPHABET:
            p = (a.delta[sa][c], b.delta[sb][c])
            if p not in seen:
                seen.add(p)
                frontier.append(p)
    return True


def all_words(max_len: int):
    """Every word over {0,1} of length <= max_len, in shortlex order."""
    for n in range(max_len + 1):
        for tup in itertools.product(ALPHABET, repeat=n):
            yield "".join(tup)


# ---------------------------------------------------------------------------
# Regexes via derivatives.  Smart constructors keep the ASTs canonical
# enough (associativity/commutativity/idempotence of |, unit laws) for the
# set of derivatives to stay finite.

_EMPTY = ("empty",)
_EPS = ("eps",)

def _lit(c):
    return ("lit", c)

def _cat(a, b):
    if a == _EMPTY or b == _EMPTY:
        return _EMPTY
    if a == _EPS:
        return b
    if b == _EPS:
        return a
    if a[0] == "cat":  # right-nest
        return _cat(a[1], _cat(a[2], b))
    return ("cat", a, b)

def _alt(a, b):
    parts = set()
    for r in (a, b):
        if r[0] == "alt":
            parts |= r[1]
        elif r != _EMPTY:
            parts.add(r)
    if not parts:
        return _EMPTY
    if len(parts) == 1:
        return next(iter(parts))
    return ("alt", frozenset(parts))

def _star(a):
    if a in (_EMPTY, _EPS):
        return _EPS
    if a[0] == "star":
        return a
    return ("star", a)


def _nullable(r) -> bool:
    match r[0]:
        case "empty":
            return False
        case "eps":
            return True
        case "lit":
            return False
        case "cat":
            return _nullable(r[1]) and _nullable(r[2])
        case "alt":
            return any(_nullable(p) for p in r[1])
        case "star":
            return True
    raise ValueError(r)


def _deriv(r, c):
    match r[0]:
        case "empty" | "eps":
            return _EMPTY
        case "lit":
            return _EPS if r[1] == c else _EMPTY
        case "cat":
            d = _cat(_deriv(r[1], c), r[2])
            if _nullable(r[1]):
                d = _alt(d, _deriv(r[2], c))
            return d
        case "alt":
            out = _EMPTY
            for p in r[1]:
                out = _alt(out, _deriv(p, c))
            return out
        case "star":
            return _cat(_deriv(r[1], c), r)
    raise ValueError(r)


class RegexError(Exception):
    pass


def _parse_regex(text: str):
    pos = 0

    def peek():
        return text[pos] if pos < len(text) else None

    def alt():
        nonlocal pos
        parts = [catenation()]
        while peek() == "|":
            pos += 1
            parts.append(catenation())
        out = _EMPTY
        for p in parts:
            out = _alt(out, p)
        return out

    def catenation():
        nonlocal pos
        out = _EPS
        while peek() is not None and peek() not in "|)":
            out = _cat(out, repetition())
        return out

    def repetition():
        nonlocal pos
        a = atom()
        while peek() == "*":
            pos += 1
            a = _star(a)
        return a

    def atom():
        nonlocal pos
        c = peek()
        if c in ("0", "1"):
            pos += 1
            return _lit(c)
        if c == "e":
            pos += 1
            return _EPS
        if c == "(":
            pos += 1
            r = alt()
            if peek() != ")":
                raise RegexError("unbalanced parenthesis at %d" % pos)
            pos += 1
            return r
        raise RegexError("unexpected %r at position %d" % (c, pos))

    r = alt()
    if pos != len(text):
        raise RegexError("trailing input at position %d" % pos)
    return r


def regex_to_dfa(regex: str) -> Dfa:
    """Minimal complete DFA of the regex (literals 0 1, e for the empty
    word, concatenation, |, *, parentheses; the empty regex denotes {e})."""
    root = _parse_regex(regex)
    # Brzozowski derivative automaton, states = canonical regex values.
    index = {root: 0}
    order = [root]
    delta = {}
    i = 0
    while i < len(order):
        r = order[i]
        row = {}
        for c in ALPHABET:
            d = _deriv(r, c)
            if d not in index:
                index[d] = len(order)
                order.append(d)
            row[c] = "q%d" % index[d]
        delta["q%d" % i] = row
        i += 1
    d = Dfa(tuple("q%d" % j for j in range(len(order))), "q0",
            frozenset("q%d" % index[r] for r in order if _nullable(r)), delta)
    return minimize(d)


# ---------------------------------------------------------------------------
# Transition monoids

@dataclass(frozen=True)
class MonoidPresentation:
    """Finite monoid on {1..k} with generator images and accepting subset.

    table is 1-indexed through `prod`; table[i-1][j-1] = i . j, and the
    identity element is 1.
    """
    size: int
    table: tuple  # of tuples, 0-indexed storage
    gen0: int
    gen1: int
    accept: frozenset

    def __post_init__(self):
        k = self.size
        if k < 1:
            raise AutomatonError("monoid must be nonempty")
        if len(self.table) != k or any(len(r) != k for r in self.table):
            raise AutomatonError("multiplication table must be %dx%d" % (k, k))
        vals = {v for row in self.table for v in row}
        if not vals <= set(range(1, k + 1)):
            raise AutomatonError("table entries out of range 1..%d" % k)
        for i in range(1, k + 1):
            if self.prod(1, i) != i or self.prod(i, 1) != i:
                raise AutomatonError("1 is not a two-sided identity")
        for a in range(1, k + 1):
            for b in range(1, k + 1):
                for c in range(1, k + 1):
                    if self.prod(self.prod(a, b), c) != self.prod(a, self.prod(b, c)):
                        raise AutomatonError(
                            "associativity fails on (%d, %d, %d)" % (a, b, c))
        if not {self.gen0, self.gen1} <= set(range(1, k + 1)):
            raise AutomatonError("generator images out of range")
        if not self.accept <= set(range(1, k + 1)):
            raise AutomatonError("accepting subset out of range")

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


def monoid_to_dict(m: MonoidPresentation) -> dict:
    return {
        "size": m.size,
        "table": [list(r) for r in m.table],
        "gen0": m.gen0,
        "gen1": m.gen1,
        "accept": sorted(m.accept),
    }


def monoid_from_dict(obj: dict) -> MonoidPresentation:
    if not isinstance(obj, dict):
        raise AutomatonError("monoid must be a JSON object")
    try:
        return MonoidPresentation(
            obj["size"], tuple(tuple(r) for r in obj["table"]),
            obj["gen0"], obj["gen1"], frozenset(obj["accept"]))
    except KeyError as e:
        raise AutomatonError("monoid lacks %s" % e) from None
    except (TypeError, AttributeError, ValueError) as e:
        raise AutomatonError("malformed monoid: %s" % e) from None


def monoid_from_json(text: str) -> MonoidPresentation:
    return monoid_from_dict(json.loads(text))


def monoid_to_json(m: MonoidPresentation) -> str:
    return json.dumps(monoid_to_dict(m), sort_keys=True) + "\n"


def transition_monoid(d: Dfa) -> MonoidPresentation:
    """Submonoid of state maps generated by the two letter actions.

    Elements are numbered in BFS (shortlex witness) order starting from the
    identity map = 1, so w is accepted by d iff phi(w) lands in `accept`.
    """
    states = d.states
    ident = tuple(range(len(states)))
    idx = {s: i for i, s in enumerate(states)}
    gens = {c: tuple(idx[d.delta[s][c]] for s in states) for c in ALPHABET}

    def then(m1, m2):  # read word of m1, then word of m2
        return tuple(m2[v] for v in m1)

    elems = {ident: 1}
    order = [ident]
    i = 0
    while i < len(order):
        m = order[i]
        for c in ALPHABET:
            m2 = then(m, gens[c])
            if m2 not in elems:
                elems[m2] = len(order) + 1
                order.append(m2)
        i += 1
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
