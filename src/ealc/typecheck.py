"""Algorithmic type checking for the elementary affine lambda-calculus.

Judgements have a context split into three disjoint zones:

    gamma | delta | theta  |-  t : T

gamma holds linear variables (used at most once, at depth 0), delta holds
banged variables (usable only inside a bang, one level down), theta holds
temporary variables introduced when a bang body is checked.  One environment
maps each name to its zone and type.  A premise that typechecks uses exactly
the gamma variables among its free variables, so affine splitting of gamma
across an application is a disjointness check on free variables; delta and
theta are shared between the two premises.

Checking is purely synthesizing: annotations make the type of every term
unique, and an expected type is only compared (up to alpha) at the root.
"""

from __future__ import annotations

from .syntax import (
    App, Arrow, Bang, BangLam, BangType, Fold, Forall, Lam, Mu, Path, Term,
    Type, TyApp, TyLam, TyVar, Unfold, Var, contains_mu, fresh_name,
    is_banged, is_linear, is_strictly_linear, print_type, subst_type,
    subst_type_in_term, type_alpha_eq,
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


def typecheck(mode: str, ctx: Context, t: Term) -> Type:
    """Synthesize the type of t, or raise TypeCheckError."""
    if mode not in MODES:
        raise ValueError("unknown mode %r" % mode)
    ctx.validate()
    zones = {LINEAR: ctx.gamma, BANG_BOUND: ctx.delta, TEMPORARY: ctx.theta}
    env = {x: (zone, ty) for zone, m in zones.items() for x, ty in m.items()}
    return _infer(mode, env, t, ())


def typecheck_closed(mode: str, t: Term, expected: Type | None = None) -> Type:
    ty = typecheck(mode, Context(), t)
    if expected is not None and not type_alpha_eq(ty, expected):
        raise TypeCheckError(MISMATCH, (), "term has type %s, expected %s"
                             % (print_type(ty), print_type(expected)))
    return ty


def _gate_mu(mode, ty, path):
    if mode == EAL and contains_mu(ty):
        raise TypeCheckError(MU_IN_EAL, path,
                             "type %s uses mu outside mueal mode" % print_type(ty))


def _infer(mode, env, t, path):
    """Return the type of t; env maps each name in scope to (zone, type)."""
    match t:
        #                                    -----------------------
        # variable rules                     G, x:A | D | H |- x : A
        #                                    G | D | H, x:T |- x : T
        case Var(x):
            if x not in env:
                raise TypeCheckError(UNBOUND, path, "unbound variable %s" % x)
            zone, ty = env[x]
            if zone == BANG_BOUND:
                raise TypeCheckError(
                    ZONE_MISUSE, path,
                    "%s is bang-bound; it can only be used inside a !(...) body" % x)
            return ty

        #                      G, x:A | D | H |- t : T
        # linear abstraction   -------------------------
        #                      G | D | H |- \x:A. t : A -o T
        case Lam(x, ann, body):
            if ann is None:
                raise TypeCheckError(CLASS_VIOLATION, path,
                                     "binder %s needs a type annotation" % x)
            _gate_mu(mode, ann, path)
            if not is_linear(ann):
                raise TypeCheckError(
                    CLASS_VIOLATION, path,
                    "linear abstraction over non-linear type %s" % print_type(ann))
            return Arrow(ann, _infer(mode, {**env, x: (LINEAR, ann)}, body, path + (0,)))

        #                      G | D, x:!S | H |- t : T
        # bang abstraction     -------------------------
        #                      G | D | H |- \!x:S. t : !S -o T
        case BangLam(x, ann, body):
            if ann is None:
                raise TypeCheckError(CLASS_VIOLATION, path,
                                     "binder %s needs a type annotation" % x)
            _gate_mu(mode, ann, path)
            ty = _infer(mode, {**env, x: (BANG_BOUND, BangType(ann))}, body, path + (0,))
            return Arrow(BangType(ann), ty)

        #               G | D | H |- t : S -o T    G' | D | H |- u : S
        # application   ----------------------------------------------
        #               G + G' | D | H |- t u : T      (G, G' disjoint)
        case App(fn, arg):
            fn_ty = _infer(mode, env, fn, path + (0,))
            if not isinstance(fn_ty, Arrow):
                raise TypeCheckError(
                    MISMATCH, path + (0,),
                    "applied term has type %s, not an arrow" % print_type(fn_ty))
            arg_ty = _infer(mode, env, arg, path + (1,))
            # both premises typecheck, so their linear names are the
            # linear names among their free variables
            shared = sorted(x for x in fn.fvs & arg.fvs if env[x][0] == LINEAR)
            if shared:
                raise TypeCheckError(
                    NONLINEAR, path,
                    "linear variable%s %s used in both function and argument"
                    % ("s" if len(shared) > 1 else "", ", ".join(shared)))
            if not type_alpha_eq(fn_ty.src, arg_ty):
                raise TypeCheckError(
                    MISMATCH, path + (1,),
                    "argument has type %s, expected %s"
                    % (print_type(arg_ty), print_type(fn_ty.src)))
            return fn_ty.dst

        #             0 | 0 | H |- t : S
        # promotion   ----------------------------     (fv(t) demoted from D)
        #             G | !H, D | H' |- !t : !S
        case Bang(body):
            demoted = {}
            for x in sorted(body.fvs):
                zone, ty = env.get(x, ("unbound", None))
                if zone != BANG_BOUND:
                    raise TypeCheckError(
                        BANG_ESCAPE, path,
                        "free variable %s of a bang body is %s, not bang-bound" % (x, zone))
                demoted[x] = (TEMPORARY, ty.body)
            return BangType(_infer(mode, demoted, body, path + (0,)))

        #                    G | D | H |- t : S      (a not free in G, D, H;
        # quantifier intro   ------------------------   S strictly linear)
        #                    G | D | H |- /\a. t : forall a. S
        case TyLam(a, body):
            # The side condition is about the variable, not its name: when
            # the binder collides with a type variable of the context we
            # alpha-rename it, so only genuine capture is rejected (by the
            # strict-linearity check on the synthesized body type below).
            ctx_ftv = frozenset().union(*(ty.ftv for _, ty in env.values()))
            if a in ctx_ftv:
                a2 = fresh_name(a, ctx_ftv | body.ftv)
                body = subst_type_in_term(body, a, TyVar(a2))
                a = a2
            ty = _infer(mode, env, body, path + (0,))
            if not is_strictly_linear(ty):
                raise TypeCheckError(
                    CLASS_VIOLATION, path,
                    "cannot quantify over body of type %s (not strictly linear)"
                    % print_type(ty))
            return Forall(a, ty)

        #                    G | D | H |- t : forall a. S
        # quantifier elim    ------------------------------  (A linear)
        #                    G | D | H |- t [A] : S{a := A}
        case TyApp(fn, ann):
            _gate_mu(mode, ann, path)
            if not is_linear(ann):
                raise TypeCheckError(
                    FORALL_NOT_LINEAR, path,
                    "quantifiers can only be instantiated at linear types, got %s"
                    % print_type(ann))
            fn_ty = _infer(mode, env, fn, path + (0,))
            if not isinstance(fn_ty, Forall):
                raise TypeCheckError(
                    MISMATCH, path + (0,),
                    "type application to a term of type %s" % print_type(fn_ty))
            return subst_type(fn_ty.body, fn_ty.var, ann)

        # mu-fold / mu-unfold (mueal only)
        case Fold(ann, body):
            if mode == EAL:
                raise TypeCheckError(MU_IN_EAL, path, "fold outside mueal mode")
            if not isinstance(ann, Mu):
                raise TypeCheckError(
                    MISMATCH, path, "fold annotation %s is not a mu type" % print_type(ann))
            unrolled = subst_type(ann.body, ann.var, ann)
            ty = _infer(mode, env, body, path + (0,))
            if not type_alpha_eq(ty, unrolled):
                raise TypeCheckError(
                    MISMATCH, path,
                    "fold body has type %s, expected %s" % (print_type(ty), print_type(unrolled)))
            return ann
        case Unfold(body):
            if mode == EAL:
                raise TypeCheckError(MU_IN_EAL, path, "unfold outside mueal mode")
            ty = _infer(mode, env, body, path + (0,))
            if not isinstance(ty, Mu):
                raise TypeCheckError(
                    MISMATCH, path + (0,),
                    "unfold of a term of type %s" % print_type(ty))
            return subst_type(ty.body, ty.var, ty)

    raise TypeError("not a term: %r" % (t,))
