"""Algorithmic type checking for the elementary affine lambda-calculus.

Judgements have a context split into three disjoint zones:

    gamma | delta | theta  |-  t : T

gamma holds linear variables (used at most once, at depth 0), delta holds
banged variables (usable only inside a bang, one level down), theta holds
temporary variables introduced when a bang body is checked.  One environment
maps each name to its zone and type; a binder rebinds its name in place and
restores the outer entry once its body is checked.  A premise that typechecks
uses exactly the gamma variables among its free variables, so affine
splitting of gamma across an application is a disjointness check on free
variables; delta and theta are shared between the two premises.  The path of
a failing subterm is assembled only once a check fails.

A closed term that checked in an empty context is remembered with its type,
per mode, for as long as the term lives; checking it again, alone or as an
application's function or argument, returns that type (see _CHECKED).

Checking is purely synthesizing: annotations make the type of every term
unique, and an expected type is only compared (up to alpha) at the root.
"""

from __future__ import annotations

import weakref

from .syntax import (
    App, Arrow, Bang, BangLam, BangType, Fold, Forall, Lam, Mu, Path, Term,
    Type, TyApp, TyLam, TyVar, Unfold, Var, fresh_name,
    is_banged, is_linear, is_strictly_linear, print_type, subst_type,
    subst_type_in_term, type_alpha_eq, unbind,
)

EAL = "eal"
MUEAL = "mueal"
MODES = (EAL, MUEAL)

# TypeError kinds
UNBOUND = "unbound-variable"
ZONE_MISUSE = "zone-misuse"
NONLINEAR = "nonlinear-use"
CLASS_VIOLATION = "class-violation"
FORALL_NOT_LINEAR = "forall-instantiation-not-linear"
BANG_ESCAPE = "bang-body-escape"
MISMATCH = "mismatch"
MU_IN_EAL = "mu-in-eal-mode"

LINEAR, BANG_BOUND, TEMPORARY = "linear", "bang-bound", "temporary"  # the zones


class TypeCheckError(Exception):
    def __init__(self, kind: str, path: Path, message: str):
        super().__init__("%s: %s: %s" % (_fmt_path(path), kind, message))
        self.kind = kind
        self.path = path
        self.message = message


def _fmt_path(path: Path) -> str:
    return "/" + ".".join(str(i) for i in path) if path else "/"


class Context:
    """The three zones; domains must be pairwise disjoint."""
    __slots__ = ("gamma", "delta", "theta")

    def __init__(self, gamma: dict | None = None, delta: dict | None = None,
                 theta: dict | None = None):
        self.gamma = {} if gamma is None else gamma
        self.delta = {} if delta is None else delta
        self.theta = {} if theta is None else theta

    def validate(self):
        zones = [set(self.gamma), set(self.delta), set(self.theta)]
        for i in range(3):
            for j in range(i + 1, 3):
                overlap = zones[i] & zones[j]
                if overlap:
                    raise ValueError("context zones overlap on %s" % sorted(overlap))
        for x, ty in self.gamma.items():
            if not is_linear(ty):
                raise ValueError("gamma entry %s : %s is not linear" % (x, print_type(ty)))
        for x, ty in self.delta.items():
            if not is_banged(ty):
                raise ValueError("delta entry %s : %s is not banged" % (x, print_type(ty)))


def classify_type(t: Type) -> str:
    """One of 'linear', 'strictly-linear', 'banged' (strictly-linear types
    are also linear; the most specific class is returned)."""
    if is_banged(t):
        return "banged"
    if is_strictly_linear(t):
        return "strictly-linear"
    return "linear"


# The closed terms that checked in an empty context: id(t) maps to (a weak
# reference to t, {mode: t's type in that mode}).  The reference's callback
# drops the entry when t dies, before its id can be reused, so a miss costs
# one dict lookup.  Only successes are stored, so every error is raised
# afresh.  The types are used for the term checked again (typecheck) and for
# a closed function or argument of an application (_infer): that is how
# checked terms are combined, by promote among others.
_CHECKED = {}


def _remember(t, mode, ty):
    key = id(t)
    entry = _CHECKED.get(key)
    if entry is None:
        def forget(ref):
            if _CHECKED.get(key, (None,))[0] is ref:
                del _CHECKED[key]
        entry = _CHECKED[key] = (weakref.ref(t, forget), {})
    entry[1][mode] = ty


def _recall(mode, env, t):
    """The type stored for t in mode, or None when there is none or env
    may change t's derivation.  A closed term's derivation does not depend
    on its context, except that a TyLam renames its binder when a type in
    the context has a free variable of that name."""
    ty = _CHECKED[id(t)][1].get(mode)
    if ty is None or any(s.ftv for _, s in env.values()):
        return None
    return ty


def typecheck(mode: str, ctx: Context, t: Term) -> Type:
    """Synthesize the type of t, or raise TypeCheckError."""
    if mode not in MODES:
        raise ValueError("unknown mode %r" % mode)
    ctx.validate()
    zones = {LINEAR: ctx.gamma, BANG_BOUND: ctx.delta, TEMPORARY: ctx.theta}
    env = {x: (zone, ty) for zone, m in zones.items() for x, ty in m.items()}
    ty = id(t) in _CHECKED and _recall(mode, env, t)
    if ty:
        return ty
    try:
        ty = _infer(mode, env, t)
    except _Failure as e:
        raise TypeCheckError(e.kind, tuple(reversed(e.rpath)), e.message) from None
    if not env:
        _remember(t, mode, ty)
    return ty


def typecheck_closed(mode: str, t: Term, expected: Type | None = None) -> Type:
    ty = typecheck(mode, Context(), t)
    if expected is not None and not type_alpha_eq(ty, expected):
        raise TypeCheckError(MISMATCH, (), "term has type %s, expected %s"
                             % (print_type(ty), print_type(expected)))
    return ty


class _Failure(Exception):
    """A TypeCheckError on its way up to typecheck, which adds the path.
    Each _infer frame it leaves appends the index of the child it came
    from, so rpath is the failing node's path reversed; no path is built
    while checking succeeds."""

    def __init__(self, kind, message, rpath=None):
        super().__init__(kind, message)
        self.kind, self.message = kind, message
        self.rpath = [] if rpath is None else rpath


def _gate_mu(mode, ty):
    if mode == EAL and ty.mu:
        raise _Failure(MU_IN_EAL, "type %s uses mu outside mueal mode" % print_type(ty))


def _infer(mode, env, t):
    """Return the type of t; env maps each name in scope to (zone, type).

    A binder rebinds its name in env for the body and restores the outer
    entry afterwards.  When a premise fails, the env is left as it was at
    the failure: typecheck drops it."""
    cls = type(t)

    #                      G, x:A | D | H |- t : T
    # linear abstraction   -------------------------
    #                      G | D | H |- \x:A. t : A -o T
    if cls is Lam:
        x, ann = t.var, t.ty
        if ann is None:
            raise _Failure(CLASS_VIOLATION, "binder %s needs a type annotation" % x)
        _gate_mu(mode, ann)
        if not is_linear(ann):
            raise _Failure(CLASS_VIOLATION,
                           "linear abstraction over non-linear type %s" % print_type(ann))
        outer = env.get(x)
        env[x] = (LINEAR, ann)
        try:
            ty = _infer(mode, env, t.body)
        except _Failure as e:
            e.rpath.append(0)
            raise
        unbind(env, x, outer)
        return Arrow(ann, ty)

    #               G | D | H |- t : S -o T    G' | D | H |- u : S
    # application   ----------------------------------------------
    #               G + G' | D | H |- t u : T      (G, G' disjoint)
    if cls is App:
        fn, arg = t.fn, t.arg
        fn_ty = id(fn) in _CHECKED and _recall(mode, env, fn)
        if not fn_ty:
            try:
                fn_ty = _infer(mode, env, fn)
            except _Failure as e:
                e.rpath.append(0)
                raise
        if type(fn_ty) is not Arrow:
            raise _Failure(MISMATCH, "applied term has type %s, not an arrow"
                           % print_type(fn_ty), [0])
        arg_ty = id(arg) in _CHECKED and _recall(mode, env, arg)
        if not arg_ty:
            try:
                arg_ty = _infer(mode, env, arg)
            except _Failure as e:
                e.rpath.append(1)
                raise
        # both premises typecheck, so their linear names are the linear
        # names among their free variables
        if not fn.fvs.isdisjoint(arg.fvs):
            shared = sorted(x for x in fn.fvs & arg.fvs if env[x][0] == LINEAR)
            if shared:
                raise _Failure(
                    NONLINEAR, "linear variable%s %s used in both function and argument"
                    % ("s" if len(shared) > 1 else "", ", ".join(shared)))
        if not type_alpha_eq(fn_ty.src, arg_ty):
            raise _Failure(MISMATCH, "argument has type %s, expected %s"
                           % (print_type(arg_ty), print_type(fn_ty.src)), [1])
        return fn_ty.dst

    #                                    -----------------------
    # variable rules                     G, x:A | D | H |- x : A
    #                                    G | D | H, x:T |- x : T
    if cls is Var:
        x = t.name
        entry = env.get(x)
        if entry is None:
            raise _Failure(UNBOUND, "unbound variable %s" % x)
        if entry[0] == BANG_BOUND:
            raise _Failure(
                ZONE_MISUSE, "%s is bang-bound; it can only be used inside a !(...) body" % x)
        return entry[1]

    #                      G | D, x:!S | H |- t : T
    # bang abstraction     -------------------------
    #                      G | D | H |- \!x:S. t : !S -o T
    if cls is BangLam:
        x, ann = t.var, t.ty
        if ann is None:
            raise _Failure(CLASS_VIOLATION, "binder %s needs a type annotation" % x)
        _gate_mu(mode, ann)
        banged = BangType(ann)
        outer = env.get(x)
        env[x] = (BANG_BOUND, banged)
        try:
            ty = _infer(mode, env, t.body)
        except _Failure as e:
            e.rpath.append(0)
            raise
        unbind(env, x, outer)
        return Arrow(banged, ty)

    #             0 | 0 | H |- t : S
    # promotion   ----------------------------     (fv(t) demoted from D)
    #             G | !H, D | H' |- !t : !S
    if cls is Bang:
        body = t.body
        demoted = {}
        for x in sorted(body.fvs):
            zone, ty = env.get(x, ("unbound", None))
            if zone != BANG_BOUND:
                raise _Failure(BANG_ESCAPE, "free variable %s of a bang body is %s, "
                               "not bang-bound" % (x, zone))
            demoted[x] = (TEMPORARY, ty.body)
        try:
            return BangType(_infer(mode, demoted, body))
        except _Failure as e:
            e.rpath.append(0)
            raise

    #                    G | D | H |- t : S      (a not free in G, D, H;
    # quantifier intro   ------------------------   S strictly linear)
    #                    G | D | H |- /\a. t : forall a. S
    if cls is TyLam:
        # The side condition is about the variable, not its name: when
        # the binder collides with a type variable of the context we
        # alpha-rename it, so only genuine capture is rejected (by the
        # strict-linearity check on the synthesized body type below).
        a, body = t.var, t.body
        if any(a in ty.ftv for _, ty in env.values()):
            ctx_ftv = frozenset().union(*(ty.ftv for _, ty in env.values()))
            a2 = fresh_name(a, ctx_ftv | body.ftv)
            body = subst_type_in_term(body, a, TyVar(a2))
            a = a2
        try:
            ty = _infer(mode, env, body)
        except _Failure as e:
            e.rpath.append(0)
            raise
        if not is_strictly_linear(ty):
            raise _Failure(CLASS_VIOLATION, "cannot quantify over body of type %s "
                           "(not strictly linear)" % print_type(ty))
        return Forall(a, ty)

    #                    G | D | H |- t : forall a. S
    # quantifier elim    ------------------------------  (A linear)
    #                    G | D | H |- t [A] : S{a := A}
    if cls is TyApp:
        ann = t.ty
        _gate_mu(mode, ann)
        if not is_linear(ann):
            raise _Failure(FORALL_NOT_LINEAR, "quantifiers can only be instantiated "
                           "at linear types, got %s" % print_type(ann))
        try:
            fn_ty = _infer(mode, env, t.fn)
        except _Failure as e:
            e.rpath.append(0)
            raise
        if type(fn_ty) is not Forall:
            raise _Failure(MISMATCH, "type application to a term of type %s"
                           % print_type(fn_ty), [0])
        return subst_type(fn_ty.body, fn_ty.var, ann)

    # mu-fold / mu-unfold (mueal only)
    if cls is Fold:
        ann = t.ty
        if mode == EAL:
            raise _Failure(MU_IN_EAL, "fold outside mueal mode")
        if type(ann) is not Mu:
            raise _Failure(MISMATCH, "fold annotation %s is not a mu type" % print_type(ann))
        unrolled = subst_type(ann.body, ann.var, ann)
        try:
            ty = _infer(mode, env, t.body)
        except _Failure as e:
            e.rpath.append(0)
            raise
        if not type_alpha_eq(ty, unrolled):
            raise _Failure(MISMATCH, "fold body has type %s, expected %s"
                           % (print_type(ty), print_type(unrolled)))
        return ann
    if cls is Unfold:
        if mode == EAL:
            raise _Failure(MU_IN_EAL, "unfold outside mueal mode")
        try:
            ty = _infer(mode, env, t.body)
        except _Failure as e:
            e.rpath.append(0)
            raise
        if type(ty) is not Mu:
            raise _Failure(MISMATCH, "unfold of a term of type %s" % print_type(ty), [0])
        return subst_type(ty.body, ty.var, ty)

    raise TypeError("not a term: %r" % (t,))
