"""Terms and types of the elementary affine lambda-calculus.

Terms are Church-style: binders carry type annotations and type
abstraction/application and fold/unfold are explicit nodes.  Annotations are
optional at the AST level (``None``) so that erased terms live in the same
representation; the type checker insists on them.

Alongside the two ASTs this module provides the syntactic toolbox everything
else builds on: capture-avoiding substitution, alpha-equivalence, depth maps,
the stratification check, occurrence splitting and annotation erasure, and
the pretty-printers (which round-trip through ealc.parser up to alpha).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


class TypeStructureError(Exception):
    """A type violates the grammar classes (e.g. a forall over a banged body)."""


# ---------------------------------------------------------------------------
# Types
#
# Grammar classes:   linear ::= tyvar | strict     strict ::= arrow | forall
# (| mu in the fixpoint extension)                 any    ::= linear | !any
# Forall and Mu bodies must be strictly linear; the constructors enforce it.

@dataclass(frozen=True, eq=False)
class Type:
    # Free type variables, computed by each node's __post_init__.
    ftv: frozenset = field(init=False, repr=False, compare=False)

    def __str__(self) -> str:
        return print_type(self)


@dataclass(frozen=True, eq=False)
class TyVar(Type):
    name: str

    def __post_init__(self):
        object.__setattr__(self, "ftv", frozenset((self.name,)))


@dataclass(frozen=True, eq=False)
class Arrow(Type):
    src: Type
    dst: Type

    def __post_init__(self):
        object.__setattr__(self, "ftv", self.src.ftv | self.dst.ftv)


@dataclass(frozen=True, eq=False)
class BangType(Type):
    body: Type

    def __post_init__(self):
        object.__setattr__(self, "ftv", self.body.ftv)


@dataclass(frozen=True, eq=False)
class Forall(Type):
    var: str
    body: Type

    def __post_init__(self):
        if not is_strictly_linear(self.body):
            raise TypeStructureError(
                "forall body must be strictly linear, got %s" % print_type(self.body))
        object.__setattr__(self, "ftv", self.body.ftv - {self.var})


@dataclass(frozen=True, eq=False)
class Mu(Type):
    var: str
    body: Type

    def __post_init__(self):
        if not is_strictly_linear(self.body):
            raise TypeStructureError(
                "mu body must be strictly linear, got %s" % print_type(self.body))
        object.__setattr__(self, "ftv", self.body.ftv - {self.var})


def is_strictly_linear(t: Type) -> bool:
    return isinstance(t, (Arrow, Forall, Mu))


def is_linear(t: Type) -> bool:
    return isinstance(t, TyVar) or is_strictly_linear(t)


def is_banged(t: Type) -> bool:
    return isinstance(t, BangType)


def contains_mu(t: Type) -> bool:
    match t:
        case TyVar():
            return False
        case Arrow(src, dst):
            return contains_mu(src) or contains_mu(dst)
        case BangType(body):
            return contains_mu(body)
        case Forall(_, body):
            return contains_mu(body)
        case Mu():
            return True
    raise TypeError(t)


# The unit abbreviation 1 = forall a. a -o a.  Kept recognizable (is_unit)
# because truncation introduces it pervasively and the finite semantics
# interprets it as a singleton.
UNIT: Type = Forall("a", Arrow(TyVar("a"), TyVar("a")))


def is_unit(t: Type) -> bool:
    return isinstance(t, Forall) and type_alpha_eq(t, UNIT)


# ---------------------------------------------------------------------------
# Terms

@dataclass(frozen=True, eq=False)
class Term:
    # Free term and type variables, computed by each node's __post_init__.
    fvs: frozenset = field(init=False, repr=False, compare=False)
    ftv: frozenset = field(init=False, repr=False, compare=False)

    def __str__(self) -> str:
        return print_term(self)


@dataclass(frozen=True, eq=False)
class Var(Term):
    name: str

    def __post_init__(self):
        object.__setattr__(self, "fvs", frozenset((self.name,)))
        object.__setattr__(self, "ftv", frozenset())


@dataclass(frozen=True, eq=False)
class Lam(Term):
    """Linear abstraction \\x:A. t (the argument is used at most once)."""
    var: str
    ty: Optional[Type]
    body: Term

    def __post_init__(self):
        object.__setattr__(self, "fvs", self.body.fvs - {self.var})
        tv = self.body.ftv if self.ty is None else self.body.ftv | self.ty.ftv
        object.__setattr__(self, "ftv", tv)


@dataclass(frozen=True, eq=False)
class BangLam(Term):
    """Non-linear abstraction \\!x:S. t; the argument has type !S."""
    var: str
    ty: Optional[Type]  # the core S, not !S
    body: Term

    def __post_init__(self):
        object.__setattr__(self, "fvs", self.body.fvs - {self.var})
        tv = self.body.ftv if self.ty is None else self.body.ftv | self.ty.ftv
        object.__setattr__(self, "ftv", tv)


@dataclass(frozen=True, eq=False)
class App(Term):
    fn: Term
    arg: Term

    def __post_init__(self):
        object.__setattr__(self, "fvs", self.fn.fvs | self.arg.fvs)
        object.__setattr__(self, "ftv", self.fn.ftv | self.arg.ftv)


@dataclass(frozen=True, eq=False)
class Bang(Term):
    body: Term

    def __post_init__(self):
        object.__setattr__(self, "fvs", self.body.fvs)
        object.__setattr__(self, "ftv", self.body.ftv)


@dataclass(frozen=True, eq=False)
class TyLam(Term):
    """Type abstraction /\\a. t."""
    var: str
    body: Term

    def __post_init__(self):
        object.__setattr__(self, "fvs", self.body.fvs)
        object.__setattr__(self, "ftv", self.body.ftv - {self.var})


@dataclass(frozen=True, eq=False)
class TyApp(Term):
    """Type application t [A]."""
    fn: Term
    ty: Type

    def __post_init__(self):
        object.__setattr__(self, "fvs", self.fn.fvs)
        object.__setattr__(self, "ftv", self.fn.ftv | self.ty.ftv)


@dataclass(frozen=True, eq=False)
class Fold(Term):
    """fold[mu a. S] t, introducing the fixpoint type."""
    ty: Type
    body: Term

    def __post_init__(self):
        object.__setattr__(self, "fvs", self.body.fvs)
        object.__setattr__(self, "ftv", self.body.ftv | self.ty.ftv)


@dataclass(frozen=True, eq=False)
class Unfold(Term):
    body: Term

    def __post_init__(self):
        object.__setattr__(self, "fvs", self.body.fvs)
        object.__setattr__(self, "ftv", self.body.ftv)


# Occurrence paths: tuples of child indices from the root.  Every node has
# children indexed 0.. in this fixed order (App: 0=function, 1=argument).
Path = tuple

def children(t: Term) -> tuple:
    match t:
        case Var():
            return ()
        case Lam(_, _, b) | BangLam(_, _, b) | TyLam(_, b):
            return (b,)
        case App(f, a):
            return (f, a)
        case Bang(b) | TyApp(b, _) | Fold(_, b) | Unfold(b):
            return (b,)
    raise TypeError(t)


def subterm_at(t: Term, path: Path) -> Term:
    for i in path:
        t = children(t)[i]
    return t


def fresh_name(base: str, avoid) -> str:
    if base not in avoid:
        return base
    n = 1
    while f"{base}'{n}" in avoid:
        n += 1
    return f"{base}'{n}"


def all_names(t: Term) -> frozenset:
    """Every variable name appearing in t, free or bound."""
    names = set(t.fvs)
    def walk(s):
        match s:
            case Lam(x, _, b) | BangLam(x, _, b):
                names.add(x)
                walk(b)
            case _:
                for c in children(s):
                    walk(c)
    walk(t)
    return frozenset(names)


# ---------------------------------------------------------------------------
# Substitution (capture-avoiding)

def subst_type(t: Type, a: str, repl: Type) -> Type:
    if a not in t.ftv:
        return t
    match t:
        case TyVar(name):
            return repl if name == a else t
        case Arrow(src, dst):
            return Arrow(subst_type(src, a, repl), subst_type(dst, a, repl))
        case BangType(body):
            return BangType(subst_type(body, a, repl))
        case Forall(var, body):
            if var in repl.ftv:
                var2 = fresh_name(var, repl.ftv | body.ftv)
                body = subst_type(body, var, TyVar(var2))
                var = var2
            return Forall(var, subst_type(body, a, repl))
        case Mu(var, body):
            if var in repl.ftv:
                var2 = fresh_name(var, repl.ftv | body.ftv)
                body = subst_type(body, var, TyVar(var2))
                var = var2
            return Mu(var, subst_type(body, a, repl))
    raise TypeError(t)


def _subst_opt(ty: Optional[Type], a: str, repl: Type) -> Optional[Type]:
    return None if ty is None else subst_type(ty, a, repl)


def subst_term(t: Term, x: str, u: Term) -> Term:
    """t{x := u}, renaming binders in t when they would capture u's variables."""
    if x not in t.fvs:
        return t
    match t:
        case Var():
            return u
        case App(f, a):
            return App(subst_term(f, x, u), subst_term(a, x, u))
        case Bang(b):
            return Bang(subst_term(b, x, u))
        case TyApp(f, ty):
            return TyApp(subst_term(f, x, u), ty)
        case Fold(ty, b):
            return Fold(ty, subst_term(b, x, u))
        case Unfold(b):
            return Unfold(subst_term(b, x, u))
        case Lam(y, ty, b):
            if y in u.fvs:
                y2 = fresh_name(y, u.fvs | b.fvs)
                b = subst_term(b, y, Var(y2))
                y = y2
            return Lam(y, ty, subst_term(b, x, u))
        case BangLam(y, ty, b):
            if y in u.fvs:
                y2 = fresh_name(y, u.fvs | b.fvs)
                b = subst_term(b, y, Var(y2))
                y = y2
            return BangLam(y, ty, subst_term(b, x, u))
        case TyLam(a, b):
            if a in u.ftv:
                a2 = fresh_name(a, u.ftv | b.ftv)
                b = subst_type_in_term(b, a, TyVar(a2))
                a = a2
            return TyLam(a, subst_term(b, x, u))
    raise TypeError(t)


def subst_type_in_term(t: Term, a: str, repl: Type) -> Term:
    """t{a := repl} on every annotation, renaming type binders as needed."""
    if a not in t.ftv:
        return t
    match t:
        case Var():
            return t
        case App(f, arg):
            return App(subst_type_in_term(f, a, repl), subst_type_in_term(arg, a, repl))
        case Bang(b):
            return Bang(subst_type_in_term(b, a, repl))
        case TyApp(f, ty):
            return TyApp(subst_type_in_term(f, a, repl), subst_type(ty, a, repl))
        case Fold(ty, b):
            return Fold(subst_type(ty, a, repl), subst_type_in_term(b, a, repl))
        case Unfold(b):
            return Unfold(subst_type_in_term(b, a, repl))
        case Lam(x, ty, b):
            return Lam(x, _subst_opt(ty, a, repl), subst_type_in_term(b, a, repl))
        case BangLam(x, ty, b):
            return BangLam(x, _subst_opt(ty, a, repl), subst_type_in_term(b, a, repl))
        case TyLam(bvar, b):
            if bvar == a:
                return t
            if bvar in repl.ftv:
                b2 = fresh_name(bvar, repl.ftv | b.ftv)
                b = subst_type_in_term(b, bvar, TyVar(b2))
                bvar = b2
            return TyLam(bvar, subst_type_in_term(b, a, repl))
    raise TypeError(t)


# ---------------------------------------------------------------------------
# Alpha-equivalence

def type_alpha_eq(s: Type, t: Type) -> bool:
    return _ty_aeq(s, t, {}, {}, 0)


def _ty_aeq(s, t, envl, envr, depth):
    match s, t:
        case TyVar(a), TyVar(b):
            la, lb = envl.get(a), envr.get(b)
            return la == lb if (la is not None or lb is not None) else a == b
        case Arrow(s1, s2), Arrow(t1, t2):
            return _ty_aeq(s1, t1, envl, envr, depth) and _ty_aeq(s2, t2, envl, envr, depth)
        case BangType(s1), BangType(t1):
            return _ty_aeq(s1, t1, envl, envr, depth)
        case Forall(a, s1), Forall(b, t1):
            return _ty_aeq(s1, t1, {**envl, a: depth}, {**envr, b: depth}, depth + 1)
        case Mu(a, s1), Mu(b, t1):
            return _ty_aeq(s1, t1, {**envl, a: depth}, {**envr, b: depth}, depth + 1)
    return False


def alpha_eq(s: Term, t: Term) -> bool:
    return _aeq(s, t, {}, {}, {}, {}, 0)


def _opt_ty_aeq(s, t, tl, tr, d):
    if s is None or t is None:
        return s is None and t is None
    return _ty_aeq(s, t, tl, tr, d)


def _aeq(s, t, el, er, tl, tr, d):
    match s, t:
        case Var(x), Var(y):
            lx, ly = el.get(x), er.get(y)
            return lx == ly if (lx is not None or ly is not None) else x == y
        case Lam(x, ts, b1), Lam(y, tt, b2):
            return (_opt_ty_aeq(ts, tt, tl, tr, d)
                    and _aeq(b1, b2, {**el, x: d}, {**er, y: d}, tl, tr, d + 1))
        case BangLam(x, ts, b1), BangLam(y, tt, b2):
            return (_opt_ty_aeq(ts, tt, tl, tr, d)
                    and _aeq(b1, b2, {**el, x: d}, {**er, y: d}, tl, tr, d + 1))
        case App(f1, a1), App(f2, a2):
            return _aeq(f1, f2, el, er, tl, tr, d) and _aeq(a1, a2, el, er, tl, tr, d)
        case Bang(b1), Bang(b2):
            return _aeq(b1, b2, el, er, tl, tr, d)
        case TyLam(a, b1), TyLam(b, b2):
            return _aeq(b1, b2, el, er, {**tl, a: d}, {**tr, b: d}, d + 1)
        case TyApp(f1, t1), TyApp(f2, t2):
            return _ty_aeq(t1, t2, tl, tr, d) and _aeq(f1, f2, el, er, tl, tr, d)
        case Fold(t1, b1), Fold(t2, b2):
            return _ty_aeq(t1, t2, tl, tr, d) and _aeq(b1, b2, el, er, tl, tr, d)
        case Unfold(b1), Unfold(b2):
            return _aeq(b1, b2, el, er, tl, tr, d)
    return False


# ---------------------------------------------------------------------------
# Depth and stratification

def depth_map(t: Term) -> dict:
    """Map each subterm occurrence (by path) to its bang-nesting depth."""
    out = {}
    def walk(s, path, depth):
        out[path] = depth
        bump = 1 if isinstance(s, Bang) else 0
        for i, c in enumerate(children(s)):
            walk(c, path + (i,), depth + bump)
    walk(t, (), 0)
    return out


def occurrences(t: Term, x: str) -> list:
    """Free occurrences of x in t as (path, depth) pairs, preorder."""
    out = []
    def walk(s, path, depth):
        if x not in s.fvs:
            return
        match s:
            case Var(_):
                out.append((path, depth))
            case Lam(y, _, b) | BangLam(y, _, b):
                if y != x:
                    walk(b, path + (0,), depth)
            case Bang(b):
                walk(b, path + (0,), depth + 1)
            case _:
                for i, c in enumerate(children(s)):
                    walk(c, path + (i,), depth)
    walk(t, (), 0)
    return out


@dataclass
class StratificationViolation:
    binder_path: Path
    binder: str
    occurrence_path: Path
    reason: str

    def __str__(self):
        return "%s bound at %r: %s (occurrence at %r)" % (
            self.binder, self.binder_path, self.reason, self.occurrence_path)


def check_stratification(t: Term):
    """Return [] if t is stratified, else the list of violations.

    Stratified means: under every \\!x the occurrences of x sit at depth
    exactly 1, and under every \\x there is at most one occurrence of x,
    at depth 0.  Every typable term satisfies this.
    """
    violations = []
    def walk(s, path):
        match s:
            case BangLam(x, _, b):
                for occ, depth in occurrences(b, x):
                    if depth != 1:
                        violations.append(StratificationViolation(
                            path, x, path + (0,) + occ,
                            "occurrence at depth %d under a bang-abstraction" % depth))
                walk(b, path + (0,))
            case Lam(x, _, b):
                occs = occurrences(b, x)
                for occ, depth in occs:
                    if depth != 0:
                        violations.append(StratificationViolation(
                            path, x, path + (0,) + occ,
                            "occurrence at depth %d under a linear abstraction" % depth))
                if len(occs) > 1:
                    for occ, _ in occs[1:]:
                        violations.append(StratificationViolation(
                            path, x, path + (0,) + occ,
                            "second occurrence of a linear variable"))
                walk(b, path + (0,))
            case _:
                for i, c in enumerate(children(s)):
                    walk(c, path + (i,))
    walk(t, ())
    return violations


# ---------------------------------------------------------------------------
# Occurrence splitting and erasure

def split_occurrences(t: Term, x: str):
    """Replace the free occurrences of x by distinct fresh names x1..xn
    (left-to-right preorder).  Returns (t', [x1..xn]); substituting x back
    for each fresh name recovers t."""
    n = len(occurrences(t, x))
    avoid = set(all_names(t)) | {x}
    names = []
    for i in range(1, n + 1):
        nm = fresh_name(f"{x}{i}", avoid)
        avoid.add(nm)
        names.append(nm)
    it = iter(names)

    def walk(s):
        if x not in s.fvs:
            return s
        match s:
            case Var(_):
                return Var(next(it))
            case App(f, a):
                return App(walk(f), walk(a))
            case Bang(b):
                return Bang(walk(b))
            case TyApp(f, ty):
                return TyApp(walk(f), ty)
            case Fold(ty, b):
                return Fold(ty, walk(b))
            case Unfold(b):
                return Unfold(walk(b))
            case Lam(y, ty, b):
                return Lam(y, ty, walk(b)) if y != x else s
            case BangLam(y, ty, b):
                return BangLam(y, ty, walk(b)) if y != x else s
            case TyLam(a, b):
                return TyLam(a, walk(b))
        raise TypeError(s)

    return walk(t), names


def erase_annotations(t: Term) -> Term:
    """Drop type abstractions/applications, fold/unfold and binder
    annotations, leaving the plain affine term skeleton."""
    match t:
        case Var():
            return t
        case Lam(x, _, b):
            return Lam(x, None, erase_annotations(b))
        case BangLam(x, _, b):
            return BangLam(x, None, erase_annotations(b))
        case App(f, a):
            return App(erase_annotations(f), erase_annotations(a))
        case Bang(b):
            return Bang(erase_annotations(b))
        case TyLam(_, b) | TyApp(b, _) | Fold(_, b) | Unfold(b):
            return erase_annotations(b)
    raise TypeError(t)


# ---------------------------------------------------------------------------
# Printing.  Precedence levels: 0 = binder bodies extend right, 1 =
# application spines, 2 = prefix (! / fold / unfold), 3 = atoms.

def print_type(t: Type) -> str:
    return _pty(t, 0)


def _pty(t: Type, prec: int) -> str:
    if is_unit(t):
        return "1"
    match t:
        case TyVar(a):
            return a
        case Forall(a, b):
            s = "forall %s. %s" % (a, _pty(b, 0))
        case Mu(a, b):
            s = "mu %s. %s" % (a, _pty(b, 0))
        case Arrow(src, dst):
            s = "%s -o %s" % (_pty(src, 2), _pty(dst, 1))
        case BangType(b):
            return "!" + _pty(b, 3)
        case _:
            raise TypeError(t)
    need = 1 if isinstance(t, (Forall, Mu)) else 2
    return "(%s)" % s if prec >= need else s


def print_term(t: Term) -> str:
    return _ptm(t, 0)


def _ann(ty: Optional[Type]) -> str:
    return "" if ty is None else ":" + _pty(ty, 2)


def _ptm(t: Term, prec: int) -> str:
    match t:
        case Var(x):
            return x
        case Lam(x, ty, b):
            s = "\\%s%s. %s" % (x, _ann(ty), _ptm(b, 0))
            return "(%s)" % s if prec >= 1 else s
        case BangLam(x, ty, b):
            s = "\\!%s%s. %s" % (x, _ann(ty), _ptm(b, 0))
            return "(%s)" % s if prec >= 1 else s
        case TyLam(a, b):
            s = "/\\%s. %s" % (a, _ptm(b, 0))
            return "(%s)" % s if prec >= 1 else s
        case App(f, a):
            s = "%s %s" % (_ptm(f, 1), _ptm(a, 2))
            return "(%s)" % s if prec >= 2 else s
        case TyApp(f, ty):
            s = "%s [%s]" % (_ptm(f, 1), _pty(ty, 0))
            return "(%s)" % s if prec >= 2 else s
        case Bang(b):
            return "!" + _ptm(b, 3)
        case Fold(ty, b):
            s = "fold[%s] %s" % (_pty(ty, 0), _ptm(b, 3))
            return "(%s)" % s if prec >= 2 else s
        case Unfold(b):
            s = "unfold %s" % _ptm(b, 3)
            return "(%s)" % s if prec >= 2 else s
    raise TypeError(t)
