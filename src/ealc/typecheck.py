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
variables; delta and theta are shared between the two premises.  The checker
runs on an explicit stack, so a term of any depth checks, and the path of a
failing subterm is read off that stack.

A closed term that checked in an empty context is remembered with its type,
per mode, for as long as the term lives; checking it again, alone or as an
application's function, returns that type (see _CHECKED).

Checking is purely synthesizing: annotations make the type of every term
unique, and an expected type is only compared (up to alpha) at the root.
"""

from __future__ import annotations

import weakref

from .syntax import (
    App, Arrow, Bang, BangLam, BangType, Fold, Forall, InputError, Lam, Mu, Path,
    Term, Type, TyApp, TyLam, TyVar, Unfold, Var, fresh_name,
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


class TypeCheckError(InputError):
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
# a closed function of an application (_infer): that is how checked terms
# are combined, by promote among others.
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
    ty = _infer(mode, env, t)
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
    """A TypeCheckError without its path, which _infer reads off its frames
    when the failure reaches it.  `below` ends the path at a child of the
    failing node, for an error about that child's type."""

    def __init__(self, kind, message, below=()):
        super().__init__(kind, message)
        self.kind, self.message, self.below = kind, message, below


def _gate_mu(mode, ty):
    if mode == EAL and ty.mu:
        raise _Failure(MU_IN_EAL, "type %s uses mu outside mueal mode" % print_type(ty))


def _infer(mode, env, t):
    """Return the type of t; env maps each name in scope to (zone, type).

    One loop on a stack of (node, child index, saved) frames.  Going down,
    a node runs its rule up to its premise and pushes a frame; coming up
    with the premise's type ty, the frame finishes the rule.  The frames'
    child indices are the path of the node at hand.  A binder rebinds its
    name in env and restores the outer entry once its body is checked; on
    a failure env is left as it was, and typecheck drops it."""
    frames, ty = [], None
    try:
        while True:
            while ty is not None:  # coming up: finish the top frame's rule (drawn below)
                if not frames:
                    return ty
                t, i, saved = frames.pop()
                cls = type(t)
                if cls is App and i == 0:
                    if type(ty) is not Arrow:
                        raise _Failure(MISMATCH, "applied term has type %s, not an arrow"
                                       % print_type(ty), (0,))
                    frames.append((t, 1, ty))
                    t, ty = t.arg, None
                    break
                if cls is App:
                    # both premises typecheck, so their linear names are the
                    # linear names among their free variables
                    fn, arg = t.fn, t.arg
                    if not fn.fvs.isdisjoint(arg.fvs):
                        shared = sorted(x for x in fn.fvs & arg.fvs if env[x][0] == LINEAR)
                        if shared:
                            raise _Failure(
                                NONLINEAR, "linear variable%s %s used in both function and "
                                "argument" % ("s" if len(shared) > 1 else "", ", ".join(shared)))
                    if not type_alpha_eq(saved.src, ty):
                        raise _Failure(MISMATCH, "argument has type %s, expected %s"
                                       % (print_type(ty), print_type(saved.src)), (1,))
                    ty = saved.dst
                elif cls is Lam or cls is BangLam:
                    ty = Arrow(env[t.var][1], ty)
                    unbind(env, t.var, saved)
                elif cls is TyApp:
                    if type(ty) is not Forall:
                        raise _Failure(MISMATCH, "type application to a term of type %s"
                                       % print_type(ty), (0,))
                    ty = subst_type(ty.body, ty.var, t.ty)
                elif cls is Bang:
                    env, ty = saved, BangType(ty)
                elif cls is TyLam:
                    if not is_strictly_linear(ty):
                        raise _Failure(CLASS_VIOLATION, "cannot quantify over body of type "
                                       "%s (not strictly linear)" % print_type(ty))
                    ty = Forall(saved, ty)
                elif cls is Fold:
                    if not type_alpha_eq(ty, saved):
                        raise _Failure(MISMATCH, "fold body has type %s, expected %s"
                                       % (print_type(ty), print_type(saved)))
                    ty = t.ty
                else:  # Unfold
                    if type(ty) is not Mu:
                        raise _Failure(MISMATCH, "unfold of a term of type %s"
                                       % print_type(ty), (0,))
                    ty = subst_type(ty.body, ty.var, ty)

            # going down: run t's rule up to its premise
            cls = type(t)

            #               G | D | H |- t : S -o T    G' | D | H |- u : S
            # application   ----------------------------------------------
            #               G + G' | D | H |- t u : T      (G, G' disjoint)
            if cls is App:
                frames.append((t, 0, None))
                t = t.fn
                ty = _recall(mode, env, t) if id(t) in _CHECKED else None

            #                                    -----------------------
            # variable rules                     G, x:A | D | H |- x : A
            #                                    G | D | H, x:T |- x : T
            elif cls is Var:
                x = t.name
                entry = env.get(x)
                if entry is None:
                    raise _Failure(UNBOUND, "unbound variable %s" % x)
                if entry[0] == BANG_BOUND:
                    raise _Failure(
                        ZONE_MISUSE, "%s is bang-bound; it can only be used inside a !(...) body"
                        % x)
                ty = entry[1]

            #                      G, x:A | D | H |- t : T
            # linear abstraction   -------------------------
            #                      G | D | H |- \x:A. t : A -o T
            #
            #                      G | D, x:!S | H |- t : T
            # bang abstraction     -------------------------
            #                      G | D | H |- \!x:S. t : !S -o T
            elif cls is Lam or cls is BangLam:
                x, ann = t.var, t.ty
                if ann is None:
                    raise _Failure(CLASS_VIOLATION, "binder %s needs a type annotation" % x)
                _gate_mu(mode, ann)
                if cls is Lam and not is_linear(ann):
                    raise _Failure(CLASS_VIOLATION, "linear abstraction over non-linear "
                                   "type %s" % print_type(ann))
                frames.append((t, 0, env.get(x)))
                env[x] = (LINEAR, ann) if cls is Lam else (BANG_BOUND, BangType(ann))
                t = t.body

            #                    G | D | H |- t : forall a. S
            # quantifier elim    ------------------------------  (A linear)
            #                    G | D | H |- t [A] : S{a := A}
            elif cls is TyApp:
                ann = t.ty
                _gate_mu(mode, ann)
                if not is_linear(ann):
                    raise _Failure(FORALL_NOT_LINEAR, "quantifiers can only be instantiated "
                                   "at linear types, got %s" % print_type(ann))
                frames.append((t, 0, None))
                t = t.fn

            #             0 | 0 | H |- t : S
            # promotion   ----------------------------     (fv(t) demoted from D)
            #             G | !H, D | H' |- !t : !S
            elif cls is Bang:
                demoted = {}
                for x in sorted(t.body.fvs):
                    zone, s = env.get(x, ("unbound", None))
                    if zone != BANG_BOUND:
                        raise _Failure(BANG_ESCAPE, "free variable %s of a bang body is %s, "
                                       "not bang-bound" % (x, zone))
                    demoted[x] = (TEMPORARY, s.body)
                frames.append((t, 0, env))
                env, t = demoted, t.body

            #                    G | D | H |- t : S      (a not free in G, D, H;
            # quantifier intro   ------------------------   S strictly linear)
            #                    G | D | H |- /\a. t : forall a. S
            elif cls is TyLam:
                # The side condition is about the variable, not its name:
                # when the binder collides with a type variable of the
                # context we alpha-rename it, so only genuine capture is
                # rejected (by the strict-linearity check on the body type).
                a, body = t.var, t.body
                if any(a in s.ftv for _, s in env.values()):
                    ctx_ftv = frozenset().union(*(s.ftv for _, s in env.values()))
                    a2 = fresh_name(a, ctx_ftv | body.ftv)
                    body = subst_type_in_term(body, a, TyVar(a2))
                    a = a2
                frames.append((t, 0, a))
                t = body

            # mu-fold / mu-unfold (mueal only)
            elif cls is Fold:
                ann = t.ty
                if mode == EAL:
                    raise _Failure(MU_IN_EAL, "fold outside mueal mode")
                if type(ann) is not Mu:
                    raise _Failure(MISMATCH, "fold annotation %s is not a mu type"
                                   % print_type(ann))
                frames.append((t, 0, subst_type(ann.body, ann.var, ann)))
                t = t.body
            elif cls is Unfold:
                if mode == EAL:
                    raise _Failure(MU_IN_EAL, "unfold outside mueal mode")
                frames.append((t, 0, None))
                t = t.body
            else:
                raise TypeError("not a term: %r" % (t,))
    except _Failure as e:
        raise TypeCheckError(e.kind, tuple(i for _, i, _ in frames) + e.below,
                             e.message) from None
