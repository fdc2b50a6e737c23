"""Terms and types of the elementary affine lambda-calculus.

Terms are Church-style: binders carry type annotations and type
abstraction/application and fold/unfold are explicit nodes.  Annotations are
optional at the AST level (``None``) so that erased terms live in the same
representation; the type checker insists on them.

Alongside the two ASTs this module provides the syntactic toolbox everything
else builds on: capture-avoiding substitution, alpha-equivalence, depth maps,
the stratification check, occurrence splitting and annotation erasure, and
the pretty-printers (which round-trip through ealc.parser up to alpha).
Term walks share two explicit-stack traversals, preorder and fold_term;
the printer keeps its own stack, so that it emits text in order.
"""

from __future__ import annotations

from collections import namedtuple


class TypeStructureError(Exception):
    """A type violates the grammar classes (e.g. a forall over a banged body)."""


# Nodes are plain slotted classes.  Each __init__ stores the fields named
# in __match_args__ and the node's free variables; nodes compare and hash
# by identity and are never changed after construction.

def _node_repr(node) -> str:
    return "%s(%s)" % (type(node).__name__, ", ".join(
        "%s=%r" % (f, getattr(node, f)) for f in node.__match_args__))


# ---------------------------------------------------------------------------
# Types
#
# Grammar classes:   linear ::= tyvar | strict     strict ::= arrow | forall
# (| mu in the fixpoint extension)                 any    ::= linear | !any
# Forall and Mu bodies must be strictly linear; the constructors enforce it.

class Type:
    __slots__ = ("ftv",)  # the free type variables
    __repr__ = _node_repr

    def __str__(self) -> str:
        return print_type(self)


class TyVar(Type):
    __slots__ = __match_args__ = ("name",)

    def __init__(self, name: str):
        self.name = name
        self.ftv = frozenset((name,))


class Arrow(Type):
    __slots__ = __match_args__ = ("src", "dst")

    def __init__(self, src: Type, dst: Type):
        self.src, self.dst = src, dst
        self.ftv = src.ftv | dst.ftv


class BangType(Type):
    __slots__ = __match_args__ = ("body",)

    def __init__(self, body: Type):
        self.body = body
        self.ftv = body.ftv


class Forall(Type):
    __slots__ = __match_args__ = ("var", "body")

    def __init__(self, var: str, body: Type):
        if not is_strictly_linear(body):
            raise TypeStructureError(
                "forall body must be strictly linear, got %s" % print_type(body))
        self.var, self.body = var, body
        self.ftv = body.ftv - {var}


class Mu(Type):
    __slots__ = __match_args__ = ("var", "body")

    def __init__(self, var: str, body: Type):
        if not is_strictly_linear(body):
            raise TypeStructureError(
                "mu body must be strictly linear, got %s" % print_type(body))
        self.var, self.body = var, body
        self.ftv = body.ftv - {var}


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

class Term:
    __slots__ = ("fvs", "ftv")  # the free term and type variables
    __repr__ = _node_repr

    def __str__(self) -> str:
        return print_term(self)


class Var(Term):
    __slots__ = __match_args__ = ("name",)

    def __init__(self, name: str):
        self.name = name
        self.fvs = frozenset((name,))
        self.ftv = frozenset()


class Lam(Term):
    """Linear abstraction \\x:A. t (the argument is used at most once)."""
    __slots__ = __match_args__ = ("var", "ty", "body")

    def __init__(self, var: str, ty: Type | None, body: Term):
        self.var, self.ty, self.body = var, ty, body
        self.fvs = body.fvs - {var}
        self.ftv = body.ftv if ty is None else body.ftv | ty.ftv


class BangLam(Term):
    """Non-linear abstraction \\!x:S. t; the argument has type !S."""
    __slots__ = __match_args__ = ("var", "ty", "body")  # ty: the core S, not !S

    def __init__(self, var: str, ty: Type | None, body: Term):
        self.var, self.ty, self.body = var, ty, body
        self.fvs = body.fvs - {var}
        self.ftv = body.ftv if ty is None else body.ftv | ty.ftv


class App(Term):
    __slots__ = __match_args__ = ("fn", "arg")

    def __init__(self, fn: Term, arg: Term):
        self.fn, self.arg = fn, arg
        self.fvs = fn.fvs | arg.fvs
        self.ftv = fn.ftv | arg.ftv


class Bang(Term):
    __slots__ = __match_args__ = ("body",)

    def __init__(self, body: Term):
        self.body = body
        self.fvs, self.ftv = body.fvs, body.ftv


class TyLam(Term):
    """Type abstraction /\\a. t."""
    __slots__ = __match_args__ = ("var", "body")

    def __init__(self, var: str, body: Term):
        self.var, self.body = var, body
        self.fvs = body.fvs
        self.ftv = body.ftv - {var}


class TyApp(Term):
    """Type application t [A]."""
    __slots__ = __match_args__ = ("fn", "ty")

    def __init__(self, fn: Term, ty: Type):
        self.fn, self.ty = fn, ty
        self.fvs = fn.fvs
        self.ftv = fn.ftv | ty.ftv


class Fold(Term):
    """fold[mu a. S] t, introducing the fixpoint type."""
    __slots__ = __match_args__ = ("ty", "body")

    def __init__(self, ty: Type, body: Term):
        self.ty, self.body = ty, body
        self.fvs = body.fvs
        self.ftv = body.ftv | ty.ftv


class Unfold(Term):
    __slots__ = __match_args__ = ("body",)

    def __init__(self, body: Term):
        self.body = body
        self.fvs, self.ftv = body.fvs, body.ftv


# Occurrence paths: tuples of child indices from the root.  Every node has
# children indexed 0.. in this fixed order (App: 0=function, 1=argument).
Path = tuple

def children(t: Term) -> tuple:
    cls = type(t)
    if cls is App:
        return (t.fn, t.arg)
    if cls is Var:
        return ()
    if cls is TyApp:
        return (t.fn,)
    if (cls is Lam or cls is BangLam or cls is Bang or cls is TyLam
            or cls is Fold or cls is Unfold):
        return (t.body,)
    raise TypeError(t)


def replace_child(t: Term, i: int, c: Term) -> Term:
    """t with child i replaced by c."""
    match t:
        case Lam(x, ty, _):
            return Lam(x, ty, c)
        case BangLam(x, ty, _):
            return BangLam(x, ty, c)
        case TyLam(a, _):
            return TyLam(a, c)
        case App(f, a):
            return App(c, a) if i == 0 else App(f, c)
        case Bang(_):
            return Bang(c)
        case TyApp(_, ty):
            return TyApp(c, ty)
        case Fold(ty, _):
            return Fold(ty, c)
        case Unfold(_):
            return Unfold(c)
    raise TypeError(t)


def rebuild(t: Term, kids) -> Term:
    """t with its children replaced by kids; t itself when none changed."""
    if all(new is old for new, old in zip(kids, children(t))):
        return t
    return App(*kids) if isinstance(t, App) else replace_child(t, 0, kids[0])


# The term walks below run on an explicit stack, so a term as deep as a
# long Church string never meets the interpreter's recursion limit.

def preorder(t: Term, enter=None):
    """Yield (path, bang_depth, s) for each subterm occurrence s of t in
    preorder; bang_depth counts the bangs above s.  The walk skips what
    lies below s when enter(s) is false."""
    stack = [((), 0, t)]
    while stack:
        path, depth, s = stack.pop()
        yield path, depth, s
        if enter is None or enter(s):
            kids = children(s)
            if isinstance(s, Bang):
                depth += 1
            for i in reversed(range(len(kids))):
                stack.append((path + (i,), depth, kids[i]))


def fold_term(t: Term, pre, post=rebuild):
    """Fold t bottom-up.  pre(s) is called on each subterm s in preorder
    and returns (None, r) when r is the result for s, or (node, None) when
    the result for s is post(node, [the results for node's children])."""
    results = []
    stack = [t]  # subterms to visit, and (node, index) pairs to assemble
    while stack:
        item = stack.pop()
        if isinstance(item, Term):
            node, r = pre(item)
            if node is None:
                results.append(r)
            else:
                stack.append((node, len(results)))
                stack.extend(reversed(children(node)))
        else:
            node, k = item
            r = post(node, results[k:])
            del results[k:]
            results.append(r)
    return results[0]


def fresh_name(base: str, avoid) -> str:
    if base not in avoid:
        return base
    n = 1
    while f"{base}'{n}" in avoid:
        n += 1
    return f"{base}'{n}"


def all_names(t: Term) -> frozenset:
    """Every variable name appearing in t, free or bound."""
    return t.fvs.union(s.var for _, _, s in preorder(t)
                       if isinstance(s, (Lam, BangLam)))


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


def _subst_opt(ty: Type | None, a: str, repl: Type) -> Type | None:
    return None if ty is None else subst_type(ty, a, repl)


def subst_term(t: Term, x: str, u: Term) -> Term:
    """t{x := u}, renaming binders in t when they would capture u's variables."""
    if x not in t.fvs:
        return t
    cls = type(t)
    if cls is App:
        return App(subst_term(t.fn, x, u), subst_term(t.arg, x, u))
    if cls is Var:
        return u
    if cls is Lam or cls is BangLam:
        y, b = t.var, t.body
        if y in u.fvs:
            y2 = fresh_name(y, u.fvs | b.fvs)
            b = subst_term(b, y, Var(y2))
            y = y2
        return cls(y, t.ty, subst_term(b, x, u))
    if cls is Bang:
        return Bang(subst_term(t.body, x, u))
    if cls is TyApp:
        return TyApp(subst_term(t.fn, x, u), t.ty)
    if cls is TyLam:
        a, b = t.var, t.body
        if a in u.ftv:
            a2 = fresh_name(a, u.ftv | b.ftv)
            b = subst_type_in_term(b, a, TyVar(a2))
            a = a2
        return TyLam(a, subst_term(b, x, u))
    if cls is Fold:
        return Fold(t.ty, subst_term(t.body, x, u))
    if cls is Unfold:
        return Unfold(subst_term(t.body, x, u))
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
    # A stack of node pairs, each with its binder environments: term and
    # type variables map to the binder depth that bound them.
    stack = [(s, t, {}, {}, {}, {}, 0)]
    while stack:
        s, t, el, er, tl, tr, d = stack.pop()
        ok = True
        match s, t:
            case Var(x), Var(y):
                lx, ly = el.get(x), er.get(y)
                ok = lx == ly if (lx is not None or ly is not None) else x == y
            case ((Lam(x, ts, b1), Lam(y, tt, b2))
                  | (BangLam(x, ts, b1), BangLam(y, tt, b2))):
                ok = _opt_ty_aeq(ts, tt, tl, tr, d)
                stack.append((b1, b2, {**el, x: d}, {**er, y: d}, tl, tr, d + 1))
            case App(f1, a1), App(f2, a2):
                stack.append((a1, a2, el, er, tl, tr, d))
                stack.append((f1, f2, el, er, tl, tr, d))
            case (Bang(b1), Bang(b2)) | (Unfold(b1), Unfold(b2)):
                stack.append((b1, b2, el, er, tl, tr, d))
            case TyLam(a, b1), TyLam(b, b2):
                stack.append((b1, b2, el, er, {**tl, a: d}, {**tr, b: d}, d + 1))
            case (TyApp(b1, t1), TyApp(b2, t2)) | (Fold(t1, b1), Fold(t2, b2)):
                ok = _ty_aeq(t1, t2, tl, tr, d)
                stack.append((b1, b2, el, er, tl, tr, d))
            case _:
                return False
        if not ok:
            return False
    return True


def _opt_ty_aeq(s, t, tl, tr, d):
    if s is None or t is None:
        return s is None and t is None
    return _ty_aeq(s, t, tl, tr, d)


# ---------------------------------------------------------------------------
# Depth and stratification

def depth_map(t: Term) -> dict:
    """Map each subterm occurrence (by path) to its bang-nesting depth."""
    return {path: depth for path, depth, _ in preorder(t)}


def occurrences(t: Term, x: str):
    """Yield the free occurrences of x in t as (path, depth) pairs, preorder."""
    for path, depth, s in preorder(t, lambda s: x in s.fvs):
        if isinstance(s, Var) and s.name == x:
            yield path, depth


class StratificationViolation(namedtuple(
        "StratificationViolation", "binder_path binder occurrence_path reason")):
    __slots__ = ()

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
    for path, _, s in preorder(t):
        if not isinstance(s, (Lam, BangLam)):
            continue
        linear = isinstance(s, Lam)
        kind = "a linear abstraction" if linear else "a bang-abstraction"
        extra = []
        for n, (occ, depth) in enumerate(occurrences(s.body, s.var)):
            if depth != (0 if linear else 1):
                violations.append(StratificationViolation(
                    path, s.var, path + (0,) + occ,
                    "occurrence at depth %d under %s" % (depth, kind)))
            if linear and n:
                extra.append(StratificationViolation(
                    path, s.var, path + (0,) + occ,
                    "second occurrence of a linear variable"))
        violations += extra
    return violations


# ---------------------------------------------------------------------------
# Occurrence splitting and erasure

def split_occurrences(t: Term, x: str):
    """Replace the free occurrences of x by distinct fresh names x1..xn
    (left-to-right preorder).  Returns (t', [x1..xn]); substituting x back
    for each fresh name recovers t."""
    avoid = set(all_names(t)) | {x}
    names = []

    def pre(s):
        if x not in s.fvs:
            return None, s
        if isinstance(s, Var):
            names.append(fresh_name(f"{x}{len(names) + 1}", avoid))
            avoid.add(names[-1])
            return None, Var(names[-1])
        return s, None

    return fold_term(t, pre), names


def _erase_node(s: Term, kids) -> Term:
    match s:
        case Lam(x, _, _):
            return Lam(x, None, kids[0])
        case BangLam(x, _, _):
            return BangLam(x, None, kids[0])
        case TyLam() | TyApp() | Fold() | Unfold():
            return kids[0]
    return rebuild(s, kids)


def erase_annotations(t: Term) -> Term:
    """Drop type abstractions/applications, fold/unfold and binder
    annotations, leaving the plain affine term skeleton."""
    return fold_term(t, lambda s: (s, None), _erase_node)


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
    # One list of text pieces, filled from an explicit stack of pieces and
    # (subterm, precedence of its position) pairs, so printing is linear.
    # Subterms share their type annotations, so each type is printed once.
    out = []
    stack = [(t, 0)]
    types = {}

    def ty_text(ty, prec):
        text = types.get((ty, prec))
        if text is None:
            text = types[ty, prec] = _pty(ty, prec)
        return text

    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        t, prec = item
        cls = type(t)
        level = _PRINT_LEVEL.get(cls)
        if level is None:
            raise TypeError(t)
        if prec >= level:
            out.append("(")
            stack.append(")")
        if cls is App:
            stack += ((t.arg, 2), " ", (t.fn, 1))
        elif cls is Var:
            out.append(t.name)
        elif cls is Lam or cls is BangLam:
            ann = "" if t.ty is None else ":" + ty_text(t.ty, 2)
            out.append("%s%s%s. " % ("\\" if cls is Lam else "\\!", t.var, ann))
            stack.append((t.body, 0))
        elif cls is TyLam:
            out.append("/\\%s. " % t.var)
            stack.append((t.body, 0))
        elif cls is TyApp:
            stack += (" [%s]" % ty_text(t.ty, 0), (t.fn, 1))
        elif cls is Bang:
            out.append("!")
            stack.append((t.body, 3))
        elif cls is Fold:
            out.append("fold[%s] " % ty_text(t.ty, 0))
            stack.append((t.body, 3))
        else:
            out.append("unfold ")
            stack.append((t.body, 3))
    return "".join(out)


# The least precedence at which a node's text needs parentheses: binders
# extend right, application spines and prefix forms bind tighter, and
# variables and bangs never need them.
_PRINT_LEVEL = {Lam: 1, BangLam: 1, TyLam: 1, App: 2, TyApp: 2, Fold: 2,
                Unfold: 2, Var: 4, Bang: 4}
