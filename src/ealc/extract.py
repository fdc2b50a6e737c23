"""From deciding terms back to automata.

A closed term of type !Str -o !Bool, !Str -o !!Bool or Str -o !Bool decides
a language over {0,1}; this module recovers a DFA for it.  Two routes:

* extract_semantic: decompose the term so the string argument is consumed
  at known instantiation types, then breadth-first-search the finitely many
  word-morphism states over the truncated types (one endomorphism pair
  table per string occurrence).  Each discovered state is tagged with its
  shortest witness word and acceptance is decided by actually running the
  term on the witness, so the result is trustworthy exactly when the state
  space separates the language classes: guaranteed for quantifier-free
  instantiation types, heuristic otherwise, and always re-checked by
  verify_dfa.

* extract_lstar: classic observation-table learning against the term as a
  membership oracle, with an equivalence oracle that is exhaustive up to
  max_len and randomized (seeded) beyond it.

The DFA algorithms both routes use (explore, minimize, all_words) live
beside Dfa in ealc.regcompile.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Optional

from .syntax import (
    App, Arrow, Bang, BangLam, BangType, Fold, Lam, Term, TyApp, Unfold, Var,
    all_names, fold_term, fresh_name, print_term, print_type, type_alpha_eq,
)
from .typecheck import Context, MUEAL, typecheck
from .encode import BOOL, STR, church_string, str_of
from .reduction import DEFAULT_FUEL, Evaluator, normalize, read_bool
from .regcompile import (
    ALPHABET, Dfa, all_words, explore, minimize, numbered_dfa,
)
from .semantics import (
    CapExceeded, DEFAULT_CAP, EndoMonoid, POLICY_ERROR, interp_type,
    phi_identity,
)
from .truncate import truncate_type


class UnsupportedShape(Exception):
    """The term's normal form does not fit the decomposition analysis."""


class VerificationFailed(Exception):
    def __init__(self, report):
        super().__init__("extracted automaton disagrees with the term on %d word(s), "
                         "first: %r" % (len(report.mismatches), report.mismatches[0]))
        self.report = report


# ---------------------------------------------------------------------------
# Membership oracles

_DECISION_TYPES = (
    ("bang", Arrow(BangType(STR), BangType(BOOL))),
    ("bang", Arrow(BangType(STR), BangType(BangType(BOOL)))),
    ("plain", Arrow(STR, BangType(BOOL))),
)


def _decision_shape(t: Term, mode: str = MUEAL) -> str:
    ty = typecheck(mode, Context(), t)
    for shape, want in _DECISION_TYPES:
        if type_alpha_eq(ty, want):
            return shape
    raise UnsupportedShape(
        "term has type %s; expected !Str -o !Bool, !Str -o !!Bool or Str -o !Bool"
        % print_type(ty))


def membership_oracle(t: Term, fuel: int = DEFAULT_FUEL) -> Callable[[str], bool]:
    """The verdict of read_bool(t w), with the bang on the argument matching
    t's input type; queries are cached.

    t is evaluated once, on the first query, and applied to each word as a
    native value.  A result that does not evaluate to a boolean, or a word
    that is not binary, goes to read_bool itself, which raises the error."""
    banged = _decision_shape(t) == "bang"
    evaluator = Evaluator(fuel)
    value = None
    cache = {}

    def query(w: str) -> bool:
        nonlocal value
        if w not in cache:
            verdict = None
            if not w.strip("01"):
                if value is None:
                    value = evaluator.evaluate(t)
                verdict = evaluator.decide(value, w, banged)
            if verdict is None:
                arg = church_string(w)
                verdict = read_bool(App(t, Bang(arg) if banged else arg), fuel)
            cache[w] = verdict
        return cache[w]

    return query


# ---------------------------------------------------------------------------
# Decomposition (the syntactic analysis)

@dataclass
class Decomposition:
    """t !s and !^bang_peel (u s[sigma_1] ... s[sigma_n]) share a normal form."""
    u: Term
    n: int
    sigmas: list
    bang_peel: int
    input_banged: bool

    def apply_to(self, s: Term) -> Term:
        out = self.u
        for sigma in self.sigmas:
            out = App(out, TyApp(s, sigma))
        for _ in range(self.bang_peel):
            out = Bang(out)
        return out


def decompose_bang_input(t: Term, fuel: int = DEFAULT_FUEL) -> Decomposition:
    """Peel the outer abstraction, strip the bangs in front of the body and
    split the string variable's occurrences (each must be a type
    application, which names its instantiation type)."""
    shape = _decision_shape(t)
    nf = normalize(t, fuel)
    match nf:
        case BangLam(x, _, body) if shape == "bang":
            pass
        case Lam(x, _, body) if shape == "plain":
            pass
        case _:
            raise UnsupportedShape(
                "normal form is not an abstraction of the expected kind: %s"
                % print_term(nf))

    bang_peel = 0
    while isinstance(body, Bang):
        body = body.body
        bang_peel += 1

    # every free occurrence of x must be x[sigma]; collect sigmas preorder
    sigmas = []
    names = []
    taken = set(all_names(body)) | {x}

    def rewrite(s: Term):
        if x not in s.fvs:
            return None, s
        match s:
            case TyApp(Var(y), sigma) if y == x:
                sigmas.append(sigma)
                nm = fresh_name("_s%d" % len(sigmas), taken)
                taken.add(nm)
                names.append(nm)
                return None, Var(nm)
            case Var():
                raise UnsupportedShape(
                    "occurrence of the string variable without a type application")
            case Fold() | Unfold():
                raise UnsupportedShape("unexpected node around the string variable: %s"
                                       % print_term(s))
        return s, None

    core = fold_term(body, rewrite)
    u = core
    for nm, sigma in zip(reversed(names), reversed(sigmas)):
        u = Lam(nm, str_of(sigma), u)
    return Decomposition(u, len(sigmas), sigmas, bang_peel, shape == "bang")


# ---------------------------------------------------------------------------
# Semantic extraction (witness BFS over word-morphism states)

def extract_semantic(t: Term, base: int = 2, policy: str = POLICY_ERROR,
                     cap: int = DEFAULT_CAP, verify_len: Optional[int] = 10,
                     fuel: int = DEFAULT_FUEL,
                     query: Optional[Callable[[str], bool]] = None) -> Dfa:
    """BFS the tuples of per-occurrence pair tables; acceptance of a state
    is the term's verdict on its shortest witness word.  Raises CapExceeded
    when any enumerated space outgrows `cap` and VerificationFailed when
    the bounded re-check disagrees (only possible for state spaces the
    heuristic policy failed to separate).  `query` is t's membership
    oracle when the caller keeps one."""
    if cap < 1:
        raise ValueError("cell cap must be >= 1, got %d" % cap)
    dec = decompose_bang_input(t, fuel)
    query = query or membership_oracle(t, fuel)

    monoids = []
    cells_per_state = 0
    for sigma in dec.sigmas:
        space = interp_type(truncate_type(sigma), base, policy, cap)
        count = space.size ** space.size
        # |A| decides both caps; EndoMonoid reports End(A) itself over cap
        if count <= cap < count ** 2:
            raise CapExceeded("pair table over End(%s)" % print_type(sigma),
                              count ** 2, cap)
        monoids.append(EndoMonoid(space, cap))
        cells_per_state += count ** 2

    start = tuple(phi_identity(m, cap) for m in monoids)
    seen = {start}

    def step(state, c):
        nxt = tuple(tab.then_letter(c, m) for tab, m in zip(state, monoids))
        seen.add(nxt)
        if cells_per_state * len(seen) > cap:
            raise CapExceeded("word-morphism state space",
                              cells_per_state * len(seen), cap)
        return nxt

    _, succ = explore(start, step)
    # BFS numbers states in order of discovery, so state j is new exactly
    # where it first appears in row order
    witness = [""]
    for i, row in enumerate(succ):
        for c, j in row.items():
            if j == len(witness):
                witness.append(witness[i] + c)

    d = minimize(numbered_dfa(
        succ, [j for j, w in enumerate(witness) if query(w)]))
    if verify_len is not None:
        report = _compare(d, query, verify_len)
        if report.mismatches:
            raise VerificationFailed(report)
    return d


# ---------------------------------------------------------------------------
# Learning extraction

RANDOM_SAMPLES = 200  # seeded draws per equivalence pass beyond max_len


def check_length_bound(max_len: int):
    if max_len < 0:
        raise ValueError("length bound must be non-negative, got %d" % max_len)


def extract_lstar(t: Term, max_len: int = 10, seed: int = 0,
                  fuel: int = DEFAULT_FUEL,
                  query: Optional[Callable[[str], bool]] = None) -> Dfa:
    """Observation-table learning with the term as membership oracle.

    Counterexample handling adds every suffix of the counterexample to the
    test suffixes, so only table closedness needs restoring.  The final
    hypothesis has survived a full equivalence pass: exhaustive on words up
    to max_len plus RANDOM_SAMPLES seeded draws up to twice that length.
    `query` is t's membership oracle when the caller keeps one.
    """
    check_length_bound(max_len)
    query = query or membership_oracle(t, fuel)
    rng = random.Random(seed)

    prefixes = [""]
    suffixes = [""]

    def row(p):
        return tuple(query(p + e) for e in suffixes)

    def close():
        changed = True
        while changed:
            changed = False
            rows = {row(p) for p in prefixes}
            for p in list(prefixes):
                for c in ALPHABET:
                    rq = row(p + c)
                    if rq not in rows:
                        prefixes.append(p + c)
                        rows.add(rq)
                        changed = True

    def hypothesis() -> Dfa:
        close()
        reps = {}
        for p in prefixes:
            reps.setdefault(row(p), p)
        index = {r: "q%d" % i for i, r in enumerate(reps)}
        delta = {}
        accept = set()
        for r, p in reps.items():
            delta[index[r]] = {c: index[row(p + c)] for c in ALPHABET}
            if query(p):
                accept.add(index[r])
        return Dfa(tuple(index.values()), index[row("")], frozenset(accept), delta)

    def counterexample(h: Dfa) -> Optional[str]:
        for w in all_words(max_len):
            if h.run(w) != query(w):
                return w
        for _ in range(RANDOM_SAMPLES):
            n = rng.randint(max_len + 1, 2 * max_len) if max_len > 0 else 0
            w = "".join(rng.choice(ALPHABET) for _ in range(n))
            if h.run(w) != query(w):
                return w
        return None

    while True:
        h = hypothesis()
        cex = counterexample(h)
        if cex is None:
            return minimize(h)
        for i in range(len(cex) + 1):
            if cex[i:] not in suffixes:
                suffixes.append(cex[i:])


# ---------------------------------------------------------------------------
# Verification

@dataclass
class VerifyReport:
    checked: int
    max_len: int
    mismatches: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def __str__(self):
        if self.ok:
            return "ok: automaton and term agree on all %d words of length <= %d" \
                % (self.checked, self.max_len)
        lines = ["%d mismatch(es) among %d words of length <= %d:"
                 % (len(self.mismatches), self.checked, self.max_len)]
        for w, term_says, dfa_says in self.mismatches[:20]:
            lines.append("  %r: term %s, automaton %s" % (w, term_says, dfa_says))
        return "\n".join(lines)


def verify_dfa(d: Dfa, t: Term, max_len: int, fuel: int = DEFAULT_FUEL,
               query: Optional[Callable[[str], bool]] = None) -> VerifyReport:
    """Compare the automaton with the term on every word up to max_len.
    `query` is t's membership oracle when the caller keeps one."""
    return _compare(d, query or membership_oracle(t, fuel), max_len)


def _compare(d: Dfa, query: Callable, max_len: int) -> VerifyReport:
    check_length_bound(max_len)
    report = VerifyReport(checked=0, max_len=max_len)
    for w in all_words(max_len):
        report.checked += 1
        ts, ds = query(w), d.run(w)
        if ts != ds:
            report.mismatches.append((w, ts, ds))
    return report
