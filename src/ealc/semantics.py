"""Finite full-type-frame semantics for the exponential-free fragment.

Types are interpreted as finite sets: free type variables become a base set
of configurable size (default 2), arrows become full function spaces, and
the unit 1 = forall a. a -o a becomes a singleton (its only closed value is
the identity, so this is exact and keeps truncation residues inert).  Other
quantified types are either rejected (policy "error") or handled by the
explicitly heuristic policy "instantiate-at-base", which reads forall a. S
as S with a at the base set.  The heuristic is NOT a sound model of the
polymorphic calculus; consumers are expected to re-verify anything derived
under it against the terms themselves.

Values are encoded as indices: an element of B^A with |A|=a, |B|=b is the
integer sum f(i) * b^i, which keeps tables hashable and composition cheap.
All enumerated spaces are capped (default 10^6 cells); blowing the cap is
an error, never a silent truncation.  interp_type is a fold over the type
(syntax.fold_term), so a type of any depth is interpreted.

extract_semantic, at the end, reads a DFA off a deciding term through
these frames; ealc.extract holds the decomposition and the oracle it uses.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Callable

from . import extract
from .syntax import (
    DEFAULT_FUEL, App, Arrow, Bang, BangLam, BangType, Fold, Forall, Lam, Mu,
    ResourceLimit, Term, Type, TyApp, TyLam, TyVar, UNIT, Unfold, Unsupported,
    Var, fold_term, is_unit, print_term, print_type, subst_type,
)
from .typecheck import EAL, Context, TypeCheckError, typecheck
from .regcompile import Dfa, explore, minimize, numbered_dfa
from .truncate import truncate_type

POLICY_ERROR = "error"
POLICY_BASE = "instantiate-at-base"
POLICIES = (POLICY_ERROR, POLICY_BASE)

DEFAULT_CAP = 10 ** 6


class SemanticsUnsupported(Unsupported):
    """The type or term falls outside the interpretable fragment."""


class CapExceeded(ResourceLimit):
    """`cells` is the count, or the text "b^e" for one too large to print."""

    def __init__(self, what, cells, cap):
        super().__init__("%s needs %s cells, cap is %d" % (what, cells, cap))
        self.cells = cells
        self.cap = cap


def capped_power(what: str, ty: Type, base: int, digits: int, cap: int) -> int:
    """base ** digits, the size of the space named what % ty, or CapExceeded
    when that passes cap.  A power past 14,000 bits (over 4,000 digits) is
    named as base^digits and never computed."""
    if digits * math.log2(base) > max(14_000, cap.bit_length() + 1):
        raise CapExceeded(what % print_type(ty), "%d^%d" % (base, digits), cap)
    cells = base ** digits
    if cells > cap:
        raise CapExceeded(what % print_type(ty), cells, cap)
    return cells


# shape -> key: a plain set's shape is (size,), a function space's
# (size, dom's key, cod's key), so a key stands for the whole shape
_SHAPES = {}


class FiniteSet:
    """Interpretation of a type; `ty` records which one, and is the type
    of every value in the set (the evaluator reads types off values).

    Equality is by shape (sizes, recursively through function spaces):
    two interpretations of alpha-equal types are interchangeable.  The
    shape is numbered once, when the set is built, as `key`."""
    __slots__ = ("size", "ty", "key")

    def __init__(self, size: int, ty: Type):
        self.size, self.ty = size, ty
        self.key = _SHAPES.setdefault((size,), len(_SHAPES))

    def __eq__(self, other):
        return isinstance(other, FiniteSet) and self.key == other.key

    def __hash__(self):
        return hash(self.key)


class FnSet(FiniteSet):
    __slots__ = ("dom", "cod")

    def __init__(self, size: int, ty: Type, dom: FiniteSet, cod: FiniteSet):
        self.size, self.ty, self.dom, self.cod = size, ty, dom, cod
        self.key = _SHAPES.setdefault((size, dom.key, cod.key), len(_SHAPES))


class FrameValue(namedtuple("FrameValue", "space index")):
    __slots__ = ()

    def __new__(cls, space: FiniteSet, index: int):
        if not 0 <= index < space.size:
            raise ValueError("index %d out of range for a %d-element set"
                             % (index, space.size))
        return super().__new__(cls, space, index)


def interp_type(ty: Type, base: int = 2, policy: str = POLICY_ERROR,
                cap: int = DEFAULT_CAP) -> FiniteSet:
    if base < 1:
        raise ValueError("base size must be >= 1")
    if cap < 1:
        raise ValueError("cell cap must be >= 1, got %d" % cap)
    if policy not in POLICIES:
        raise ValueError("unknown forall policy %r" % policy)

    def enter(ty):
        if is_unit(ty):
            return None, FiniteSet(1, ty)
        match ty:
            case TyVar():
                return None, FiniteSet(base, ty)
            case Arrow():
                return ty, None
            case Forall():
                if policy == POLICY_ERROR:
                    raise SemanticsUnsupported(
                        "quantified type %s (policy error)" % print_type(ty))
                return ty, None
            case BangType(_):
                raise SemanticsUnsupported("banged type %s (truncate first)" % print_type(ty))
            case Mu():
                raise SemanticsUnsupported("fixpoint type %s" % print_type(ty))
        raise TypeError(ty)

    def space(ty, kids):
        if type(ty) is Arrow:
            d, c = kids
            return FnSet(capped_power("function space %s", ty, c.size, d.size, cap), ty, d, c)
        inner, = kids
        return FiniteSet(inner.size, ty) if not isinstance(inner, FnSet) \
            else FnSet(inner.size, ty, inner.dom, inner.cod)

    return fold_term(ty, enter, space)


def unit_point() -> FrameValue:
    return FrameValue(FiniteSet(1, UNIT), 0)


def apply_value(f: FrameValue, x: FrameValue) -> FrameValue:
    if not isinstance(f.space, FnSet):
        raise SemanticsUnsupported("applying a non-function value")
    if x.space.size != f.space.dom.size:
        raise SemanticsUnsupported("argument space mismatch")
    c = f.space.cod
    return FrameValue(c, (f.index // (c.size ** x.index)) % c.size)


def make_fn(space: FnSet, outputs) -> FrameValue:
    idx = 0
    for i, v in enumerate(outputs):
        idx += v * (space.cod.size ** i)
    return FrameValue(space, idx)


def fn_outputs(f: FrameValue) -> tuple:
    space = f.space
    if not isinstance(space, FnSet):
        raise SemanticsUnsupported("not a function value")
    b = space.cod.size
    idx = f.index
    out = []
    for _ in range(space.dom.size):
        out.append(idx % b)
        idx //= b
    return tuple(out)


# ---------------------------------------------------------------------------
# Evaluation (type-directed; exponential-free terms only)

def eval_term(t: Term, env: dict | None = None, base: int = 2,
              policy: str = POLICY_ERROR, cap: int = DEFAULT_CAP) -> FrameValue:
    """Compositional evaluation; env maps free variables to FrameValues.
    A value's type is its space's `ty`, so types are read off values."""
    return _eval(t, env or {}, base, policy, cap)


def _eval(t, env, base, policy, cap):
    def interp(ty):
        return interp_type(ty, base, policy, cap)

    match t:
        case Var(x):
            if x not in env:
                raise SemanticsUnsupported("free variable %s has no value" % x)
            return env[x]
        case Lam(x, ann, body):
            if ann is None:
                raise SemanticsUnsupported("unannotated binder %s" % x)
            dom = interp(ann)
            outs = [_eval(body, {**env, x: FrameValue(dom, i)}, base, policy, cap)
                    for i in range(dom.size)]
            return make_fn(interp(Arrow(ann, outs[-1].space.ty)),
                           [v.index for v in outs])
        case App(f, a):
            fv = _eval(f, env, base, policy, cap)
            av = _eval(a, env, base, policy, cap)
            fty = fv.space.ty
            if is_unit(fty) or not isinstance(fty, Arrow):
                raise SemanticsUnsupported("application of a non-arrow value")
            result = apply_value(fv, av)
            return unit_point() if is_unit(fty.dst) else result
        case TyLam(a, body):
            # typed by the checker; the only closed value of type 1 is the identity
            gamma = {x: v.space.ty for x, v in env.items()}
            try:
                ty = typecheck(EAL, Context(gamma=gamma), t)
            except TypeCheckError as e:
                raise SemanticsUnsupported(str(e)) from None
            if is_unit(ty):
                return unit_point()
            if policy == POLICY_ERROR:
                raise SemanticsUnsupported(
                    "type abstraction under policy error: %s" % print_term(t))
            v = _eval(body, env, base, policy, cap)
            return FrameValue(interp(Forall(a, v.space.ty)), v.index)
        case TyApp(f, ann):
            fv = _eval(f, env, base, policy, cap)
            fty = fv.space.ty
            if is_unit(fty):
                # the only value of the unit is the identity
                space = interp(Arrow(ann, ann))
                return make_fn(space, range(space.dom.size))
            if policy == POLICY_ERROR:
                raise SemanticsUnsupported(
                    "type application under policy error: %s" % print_term(t))
            if not isinstance(fty, Forall):
                raise SemanticsUnsupported("type application of non-quantified term")
            rty = subst_type(fty.body, fty.var, ann)
            if is_unit(rty):
                return unit_point()
            rspace = interp(rty)
            if rspace.size != fv.space.size:
                raise SemanticsUnsupported(
                    "instantiating %s at %s changes the interpretation size "
                    "(%d vs %d); the base-instantiation heuristic cannot "
                    "represent this" % (print_type(fty), print_type(ann),
                                        rspace.size, fv.space.size))
            return FrameValue(rspace, fv.index)
        case Bang() | BangLam() | Fold() | Unfold():
            raise SemanticsUnsupported(
                "term with exponentials or fixpoints: %s" % print_term(t))
    raise TypeError(t)


# ---------------------------------------------------------------------------
# Endomorphism monoids and the word morphism

class EndoMonoid:
    """End(A) for a finite set A: all maps A -> A under composition.
    Element i is the value with index i of the function space A -o A
    (`fns`), so its outputs are the base-|A| digits of i."""

    def __init__(self, space: FiniteSet, cap: int = DEFAULT_CAP):
        a = space.size
        count = capped_power("End(%s)", space.ty, a, a, cap)
        self.space = space
        self.fns = FnSet(count, Arrow(space.ty, space.ty), space, space)
        self.count = count
        self._digits = [fn_outputs(self.value(i)) for i in range(count)]
        self._index = {d: i for i, d in enumerate(self._digits)}
        self.identity = self._index[tuple(range(a))]

    def value(self, i: int) -> FrameValue:
        return FrameValue(self.fns, i)

    def compose(self, f: int, g: int) -> int:
        """f after g."""
        fd, gd = self._digits[f], self._digits[g]
        return self._index[tuple(fd[x] for x in gd)]


class EndoPairTable(namedtuple("EndoPairTable", "count entries")):
    """A map End(A)^2 -> End(A): entry (i, j) at position i*count+j, where
    count = |End(A)| and entries is a tuple.

    This is one value of the word morphism: the table of a word w sends a
    pair (g0, g1) of endomorphisms to g_{w1} . ... . g_{wn}.
    """
    __slots__ = ()

    def lookup(self, i: int, j: int) -> int:
        return self.entries[i * self.count + j]

    def compose(self, other: "EndoPairTable", monoid: EndoMonoid) -> "EndoPairTable":
        """Pointwise composition: the table of uv from those of u and v."""
        if self.count != other.count:
            raise ValueError("table sizes differ")
        return EndoPairTable(self.count, tuple(
            monoid.compose(a, b) for a, b in zip(self.entries, other.entries)))

    def then_letter(self, c: str, monoid: EndoMonoid) -> "EndoPairTable":
        """The table of wc from the table of w."""
        e, entries = self.count, self.entries
        out = []
        for i in range(e):
            for j in range(e):
                g = i if c == "0" else j
                out.append(monoid.compose(entries[i * e + j], g))
        return EndoPairTable(e, tuple(out))


def phi_identity(monoid: EndoMonoid, cap: int = DEFAULT_CAP) -> EndoPairTable:
    cells = monoid.count ** 2
    if cells > cap:
        raise CapExceeded("pair table over %d endomorphisms" % monoid.count,
                          cells, cap)
    return EndoPairTable(monoid.count,
                         tuple(monoid.identity for _ in range(cells)))


def phi_of_word(ty: Type, w: str, base: int = 2, policy: str = POLICY_ERROR,
                cap: int = DEFAULT_CAP) -> EndoPairTable:
    """The word-morphism value of w over End([[ty]]); phi of the empty word
    is the constant identity, and phi(uv) = phi(u) composed pointwise with
    phi(v)."""
    monoid = EndoMonoid(interp_type(ty, base, policy, cap), cap)
    table = phi_identity(monoid, cap)
    for c in w:
        if c not in ("0", "1"):
            raise ValueError("not a binary string: %r" % w)
        table = table.then_letter(c, monoid)
    return table


def phi_entry(ty: Type, w: str, g0: FrameValue, g1: FrameValue,
              base: int = 2, policy: str = POLICY_ERROR,
              cap: int = DEFAULT_CAP) -> FrameValue:
    """phi(w) applied to one pair, without materializing the full table."""
    monoid = EndoMonoid(interp_type(ty, base, policy, cap), cap)
    acc = monoid.identity
    for c in w:
        acc = monoid.compose(acc, (g0 if c == "0" else g1).index)
    return monoid.value(acc)


# ---------------------------------------------------------------------------
# Semantic extraction (witness BFS over word-morphism states)

def extract_semantic(t: Term, base: int = 2, policy: str = POLICY_ERROR,
                     cap: int = DEFAULT_CAP, verify_len: int | None = 10,
                     fuel: int = DEFAULT_FUEL,
                     query: Callable[[str], bool] | None = None) -> Dfa:
    """BFS the tuples of per-occurrence pair tables; acceptance of a state
    is the term's verdict on its shortest witness word.  Raises CapExceeded
    when any enumerated space outgrows `cap` and VerificationFailed when
    the bounded re-check disagrees (only possible for state spaces the
    heuristic policy failed to separate).  `query` is t's membership
    oracle when the caller keeps one."""
    if cap < 1:
        raise ValueError("cell cap must be >= 1, got %d" % cap)
    dec = extract.decompose_bang_input(t, fuel)
    query = query or extract.membership_oracle(t, fuel)

    monoids = []
    cells_per_state = 0
    for sigma in dec.sigmas:
        space = interp_type(truncate_type(sigma), base, policy, cap)
        # |A| decides both caps, so no table is built when either fails
        count = capped_power("End(%s)", space.ty, space.size, space.size, cap)
        if count ** 2 > cap:
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
        report = extract.verify_dfa(d, t, verify_len, fuel, query)
        if report.mismatches:
            raise extract.VerificationFailed(report)
    return d
