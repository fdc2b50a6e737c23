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
an error, never a silent truncation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .syntax import (
    App, Arrow, Bang, BangLam, BangType, Fold, Forall, Lam, Mu, Term, Type,
    TyApp, TyLam, TyVar, UNIT, Unfold, Var, is_unit, print_term, print_type,
    subst_type,
)

POLICY_ERROR = "error"
POLICY_BASE = "instantiate-at-base"
POLICIES = (POLICY_ERROR, POLICY_BASE)

DEFAULT_CAP = 10 ** 6


class SemanticsUnsupported(Exception):
    """The type or term falls outside the interpretable fragment."""


class CapExceeded(Exception):
    def __init__(self, what, cells, cap):
        super().__init__("%s needs %d cells, cap is %d" % (what, cells, cap))
        self.cells = cells
        self.cap = cap


@dataclass(frozen=True, eq=False)
class FiniteSet:
    """Interpretation of a type; `ty` records which one, and is the type
    of every value in the set (the evaluator reads types off values).

    Equality is by shape (sizes, recursively through function spaces):
    two interpretations of alpha-equal types are interchangeable."""
    size: int
    ty: Type

    def __eq__(self, other):
        if isinstance(other, FnSet) or isinstance(self, FnSet):
            return (isinstance(self, FnSet) and isinstance(other, FnSet)
                    and self.size == other.size
                    and self.dom == other.dom and self.cod == other.cod)
        return isinstance(other, FiniteSet) and self.size == other.size

    def __hash__(self):
        return hash(("set", self.size))


@dataclass(frozen=True, eq=False)
class FnSet(FiniteSet):
    dom: FiniteSet
    cod: FiniteSet

    def __hash__(self):
        return hash(("fn", self.size, self.dom, self.cod))


@dataclass(frozen=True)
class FrameValue:
    space: FiniteSet
    index: int

    def __post_init__(self):
        if not 0 <= self.index < self.space.size:
            raise ValueError("index %d out of range for a %d-element set"
                             % (self.index, self.space.size))


def interp_type(ty: Type, base: int = 2, policy: str = POLICY_ERROR,
                cap: int = DEFAULT_CAP) -> FiniteSet:
    if base < 1:
        raise ValueError("base size must be >= 1")
    if cap < 1:
        raise ValueError("cell cap must be >= 1, got %d" % cap)
    if policy not in POLICIES:
        raise ValueError("unknown forall policy %r" % policy)
    if is_unit(ty):
        return FiniteSet(1, ty)
    match ty:
        case TyVar():
            return FiniteSet(base, ty)
        case Arrow(src, dst):
            d = interp_type(src, base, policy, cap)
            c = interp_type(dst, base, policy, cap)
            size = c.size ** d.size
            if size > cap:
                raise CapExceeded("function space %s" % print_type(ty), size, cap)
            return FnSet(size, ty, d, c)
        case Forall(_, body):
            if policy == POLICY_ERROR:
                raise SemanticsUnsupported(
                    "quantified type %s (policy error)" % print_type(ty))
            inner = interp_type(body, base, policy, cap)
            return FiniteSet(inner.size, ty) if not isinstance(inner, FnSet) \
                else FnSet(inner.size, ty, inner.dom, inner.cod)
        case BangType(_):
            raise SemanticsUnsupported("banged type %s (truncate first)" % print_type(ty))
        case Mu():
            raise SemanticsUnsupported("fixpoint type %s" % print_type(ty))
    raise TypeError(ty)


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

def _synth(t: Term, tyctx: dict) -> Type:
    match t:
        case Var(x):
            if x not in tyctx:
                raise SemanticsUnsupported("free variable %s has no value" % x)
            return tyctx[x]
        case Lam(x, ann, body):
            if ann is None:
                raise SemanticsUnsupported("unannotated binder %s" % x)
            return Arrow(ann, _synth(body, {**tyctx, x: ann}))
        case App(f, _):
            fty = _synth(f, tyctx)
            if is_unit(fty):
                raise SemanticsUnsupported("applying a unit-typed term")
            if not isinstance(fty, Arrow):
                raise SemanticsUnsupported("application of non-arrow")
            return fty.dst
        case TyLam(a, body):
            return Forall(a, _synth(body, tyctx))
        case TyApp(f, ann):
            fty = _synth(f, tyctx)
            if is_unit(fty):
                return Arrow(ann, ann)
            if not isinstance(fty, Forall):
                raise SemanticsUnsupported("type application of non-quantified term")
            return subst_type(fty.body, fty.var, ann)
        case Bang(_) | BangLam(_, _, _) | Fold(_, _) | Unfold(_):
            raise SemanticsUnsupported(
                "term with exponentials or fixpoints: %s" % print_term(t))
    raise TypeError(t)


def eval_term(t: Term, env: Optional[dict] = None, base: int = 2,
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
            if is_unit(Forall(a, _synth(body, {x: v.space.ty for x, v in env.items()}))):
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
    # exponentials, fixpoints, anything else
    return _synth(t, {})  # _synth raises with a precise message


# ---------------------------------------------------------------------------
# Endomorphism monoids and the word morphism

class EndoMonoid:
    """End(A) for a finite set A: all maps A -> A under composition.
    Element i is the value with index i of the function space A -o A
    (`fns`), so its outputs are the base-|A| digits of i."""

    def __init__(self, space: FiniteSet, cap: int = DEFAULT_CAP):
        a = space.size
        count = a ** a
        if count > cap:
            raise CapExceeded("End(%s)" % print_type(space.ty), count, cap)
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


@dataclass(frozen=True)
class EndoPairTable:
    """A map End(A)^2 -> End(A): entry (i, j) at position i*count+j.

    This is one value of the word morphism: the table of a word w sends a
    pair (g0, g1) of endomorphisms to g_{w1} . ... . g_{wn}.
    """
    count: int  # |End(A)|
    entries: tuple

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
        e = self.count
        out = []
        for i in range(e):
            for j in range(e):
                g = i if c == "0" else j
                out.append(monoid.compose(self.entries[i * e + j], g))
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
