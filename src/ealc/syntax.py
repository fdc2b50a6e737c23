"""Terms and types of the elementary affine lambda-calculus.

Terms are Church-style: binders carry type annotations and type
abstraction/application and fold/unfold are explicit nodes.  Annotations are
optional at the AST level (``None``) so that erased terms live in the same
representation; the type checker insists on them.

Alongside the two ASTs this module provides the syntactic toolbox everything
else builds on: capture-avoiding substitution, alpha-equivalence, the
stratification check, annotation erasure and the pretty-printers (which
round-trip through ealc.parser up to alpha).
Walks run on explicit stacks and take both sorts where they can: preorder
visits a term, while fold_term, alpha_eq and the printer take terms and types.
"""

from __future__ import annotations

from collections import namedtuple
from operator import is_


# The default reduction step budget of every normalizer and evaluator
# (ealc.reduction), here so that the CLI can show it without loading them.
DEFAULT_FUEL = 10 ** 6


# Every error class of ealc derives from one of these three, and the CLI
# exits 1, 2 or 3 by the base; here, as every subcommand loads this module.

class InputError(Exception):
    """The input is malformed or ill-typed."""


class Unsupported(Exception):
    """The input is well formed but outside what the operation covers."""


class ResourceLimit(Exception):
    """A budget ran out: fuel, a cell cap or the monoid budget."""


class TypeStructureError(InputError):
    """A type violates the grammar classes (e.g. a forall over a banged body)."""


# Nodes are plain slotted classes.  Each __init__ stores the fields named
# in __match_args__ and the node's free variables (a type also records
# whether it contains a mu, for the type checker's gate in EAL mode, so the
# gate costs one attribute read per annotation); nodes compare and hash
# by identity and are never changed after construction.  App, Lam, BangLam,
# Arrow, Forall and Mu reuse a child's frozenset of free variables whenever
# theirs equals it, so rebuilding a spine allocates no set per node.

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
    __slots__ = ("ftv", "mu")  # the free type variables; whether a Mu occurs
    __repr__ = _node_repr

    def __str__(self) -> str:
        return print_type(self)


class TyVar(Type):
    __slots__ = __match_args__ = ("name",)

    def __init__(self, name: str):
        self.name = name
        self.ftv = frozenset((name,))
        self.mu = False


class Arrow(Type):
    __slots__ = __match_args__ = ("src", "dst")

    def __init__(self, src: Type, dst: Type):
        self.src, self.dst = src, dst
        f, a = src.ftv, dst.ftv  # _union, inlined as in App
        self.ftv = f if not a or a is f else a if not f else f | a
        self.mu = src.mu or dst.mu


class BangType(Type):
    __slots__ = __match_args__ = ("body",)

    def __init__(self, body: Type):
        self.body = body
        self.ftv = body.ftv
        self.mu = body.mu


class Forall(Type):
    __slots__ = __match_args__ = ("var", "body")

    def __init__(self, var: str, body: Type):
        if not is_strictly_linear(body):
            raise TypeStructureError(
                "forall body must be strictly linear, got %s" % print_type(body))
        self.var, self.body = var, body
        f = body.ftv
        self.ftv = f - {var} if var in f else f
        self.mu = body.mu


class Mu(Type):
    __slots__ = __match_args__ = ("var", "body")

    def __init__(self, var: str, body: Type):
        if not is_strictly_linear(body):
            raise TypeStructureError(
                "mu body must be strictly linear, got %s" % print_type(body))
        self.var, self.body = var, body
        f = body.ftv
        self.ftv = f - {var} if var in f else f
        self.mu = True


def is_strictly_linear(t: Type) -> bool:
    return isinstance(t, (Arrow, Forall, Mu))


def is_linear(t: Type) -> bool:
    return isinstance(t, TyVar) or is_strictly_linear(t)


def is_banged(t: Type) -> bool:
    return isinstance(t, BangType)


# The unit abbreviation 1 = forall a. a -o a.  Kept recognizable (is_unit)
# because truncation introduces it pervasively and the finite semantics
# interprets it as a singleton.
UNIT: Type = Forall("a", Arrow(TyVar("a"), TyVar("a")))


def is_unit(t: Type) -> bool:
    """Whether t is forall a. a -o a, up to the name of a."""
    if type(t) is not Forall:
        return False
    a, body = t.var, t.body
    return (type(body) is Arrow and type(body.src) is TyVar and type(body.dst) is TyVar
            and body.src.name == a and body.dst.name == a)


# ---------------------------------------------------------------------------
# Terms

def _union(f: frozenset, a: frozenset) -> frozenset:
    """f | a, reusing f or a when the union equals it."""
    return f if not a or a is f else a if not f else f | a


class Term:
    __slots__ = ("fvs", "ftv", "__weakref__")  # free term and type variables
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
        f = body.fvs
        self.fvs = f - {var} if var in f else f
        f = body.ftv
        self.ftv = f if ty is None else _union(f, ty.ftv)


class BangLam(Term):
    """Non-linear abstraction \\!x:S. t; the argument has type !S."""
    __slots__ = __match_args__ = ("var", "ty", "body")  # ty: the core S, not !S

    def __init__(self, var: str, ty: Type | None, body: Term):
        self.var, self.ty, self.body = var, ty, body
        f = body.fvs
        self.fvs = f - {var} if var in f else f
        f = body.ftv
        self.ftv = f if ty is None else _union(f, ty.ftv)


class App(Term):
    __slots__ = __match_args__ = ("fn", "arg")

    def __init__(self, fn: Term, arg: Term):
        self.fn, self.arg = fn, arg
        f, a = fn.fvs, arg.fvs  # _union, inlined on the hottest constructor
        self.fvs = f if not a or a is f else a if not f else f | a
        f, a = fn.ftv, arg.ftv
        self.ftv = f if not a or a is f else a if not f else f | a


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
# A walk keeps a path as a cell instead, linked to its parent's, so a step
# costs O(1) and only a caller that reads a path pays for its tuple
# (path_of).
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
    cls = type(t)
    if cls is App:
        return App(c, t.arg) if i == 0 else App(t.fn, c)
    if cls is Lam or cls is BangLam:
        return cls(t.var, t.ty, c)
    if cls is TyApp:
        return TyApp(c, t.ty)
    if cls is Bang or cls is Unfold:
        return cls(c)
    if cls is TyLam:
        return TyLam(t.var, c)
    if cls is Fold:
        return Fold(t.ty, c)
    raise TypeError(t)


def _parts(node) -> tuple:
    """node's children: a term's subterms, or a type's fields."""
    cls = type(node)
    if cls is Arrow:
        return (node.src, node.dst)
    if cls is BangType or cls is Forall or cls is Mu:
        return (node.body,)
    if cls is TyVar:
        return ()
    return children(node)


def rebuild(t, kids):
    """t, a term or a type, with its children replaced by kids; t itself
    when none changed."""
    if all(map(is_, kids, _parts(t))):
        return t
    cls = type(t)
    if cls is App or cls is Arrow:
        return cls(*kids)
    if isinstance(t, Term):
        return replace_child(t, 0, kids[0])
    return BangType(kids[0]) if cls is BangType else cls(t.var, kids[0])


# The walks below run on an explicit stack, so a term or a type as deep as
# a long Church string never meets the interpreter's recursion limit.

def preorder(t: Term, enter=None):
    """Yield (cell, bang_depth, s) for each subterm occurrence s of t in
    preorder, where cell stands for s's path (see path_of) and bang_depth
    counts the bangs above s.  The walk skips what lies below s when
    enter(s) is false."""
    stack = [(None, None, 0, t)]  # cells: (parent's cell, child index, depth, s)
    while stack:
        cell = stack.pop()
        _, _, depth, s = cell
        yield cell, depth, s
        if enter is None or enter(s):
            kids = children(s)
            if isinstance(s, Bang):
                depth += 1
            for i in reversed(range(len(kids))):
                stack.append((cell, i, depth, kids[i]))


def path_of(cell) -> Path:
    """The path a walk's cell stands for."""
    path = []
    while cell[0] is not None:
        path.append(cell[1])
        cell = cell[0]
    path.reverse()
    return tuple(path)


def fold_term(t, pre, post=rebuild):
    """Fold t, a term or a type, bottom-up.  pre(s) is called on each node s
    in preorder and returns (None, r) when r is the result for s, or (node,
    None) when it is post(node, [the results for node's children])."""
    results = []
    stack = [t]  # nodes to visit, and (node, index) pairs to assemble
    while stack:
        item = stack.pop()
        if type(item) is not tuple:
            node, r = pre(item)
            if node is None:
                results.append(r)
            else:
                stack.append((node, len(results)))
                stack.extend(reversed(_parts(node)))
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
    """t{a := repl}, renaming binders that would capture repl's variables.
    A fold: it calls itself only to rename a binder."""
    if a not in t.ftv:
        return t
    if type(t) is TyVar:
        return repl

    def enter(s):
        if a not in s.ftv:
            return None, s
        cls = type(s)
        if cls is TyVar:
            return None, repl
        if (cls is Forall or cls is Mu) and s.var in repl.ftv:
            var = fresh_name(s.var, repl.ftv | s.body.ftv)
            return cls(var, subst_type(s.body, s.var, TyVar(var))), None
        if cls is Arrow or cls is BangType or cls is Forall or cls is Mu:
            return s, None
        raise TypeError(s)

    return fold_term(t, enter)


def subst_term(t: Term, x: str, u: Term) -> Term:
    """t{x := u}, renaming binders in t when they would capture u's variables.

    An application chain, right-nested as f1 (f2 (... fn)), the body of a
    Church string, or head first as x a1 ... an, is walked in a loop down
    the side that holds x and rebuilt bottom-up, so its length costs no
    recursion depth.  A function is entered by recursion only when its
    argument holds x too."""
    if x not in t.fvs:
        return t
    cls = type(t)
    if cls is App:
        spine = []  # (application, whether the walk went on into its argument)
        while type(t) is App:
            into_arg = x in t.arg.fvs
            spine.append((t, into_arg))
            t = t.arg if into_arg else t.fn
        r = subst_term(t, x, u)
        for p, into_arg in reversed(spine):
            r = App(subst_term(p.fn, x, u), r) if into_arg else App(r, p.arg)
        return r
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
    """t{a := repl} on every annotation, renaming type binders as needed.

    Chains of applications and type applications are walked in a loop, as
    in subst_term: down an application's argument when it holds a, else
    down its function, and down a type application's function."""
    if a not in t.ftv:
        return t
    cls = type(t)
    if cls is App or cls is TyApp:
        spine = []  # (node, whether the walk went on into its argument)
        while a in t.ftv and (type(t) is App or type(t) is TyApp):
            into_arg = type(t) is App and a in t.arg.ftv
            spine.append((t, into_arg))
            t = t.arg if into_arg else t.fn
        r = subst_type_in_term(t, a, repl)
        for p, into_arg in reversed(spine):
            if into_arg:
                r = App(subst_type_in_term(p.fn, a, repl), r)
            elif type(p) is App:
                r = App(r, p.arg)
            else:
                r = TyApp(r, subst_type(p.ty, a, repl))
        return r
    if cls is Lam or cls is BangLam:
        ty = t.ty
        return cls(t.var, None if ty is None else subst_type(ty, a, repl),
                   subst_type_in_term(t.body, a, repl))
    if cls is Bang or cls is Unfold:
        return cls(subst_type_in_term(t.body, a, repl))
    if cls is TyLam:
        bvar, b = t.var, t.body
        if bvar in repl.ftv:
            b2 = fresh_name(bvar, repl.ftv | b.ftv)
            b = subst_type_in_term(b, bvar, TyVar(b2))
            bvar = b2
        return TyLam(bvar, subst_type_in_term(b, a, repl))
    if cls is Fold:
        return Fold(subst_type(t.ty, a, repl), subst_type_in_term(t.body, a, repl))
    raise TypeError(t)


# ---------------------------------------------------------------------------
# Alpha-equivalence

def type_alpha_eq(s: Type, t: Type) -> bool:
    return s is t or alpha_eq(s, t)


def unbind(env: dict, name: str, outer) -> None:
    """End a binder's scope in env: give name back its entry outside the
    binder, outer, or remove it when outer is None."""
    if outer is None:
        del env[name]
    else:
        env[name] = outer


def alpha_eq(s, t) -> bool:
    """Whether s and t, two terms or two types, are alpha-equal."""
    # One loop over node pairs: it goes on with one child pair and pushes the
    # others.  Each side maps the type (tl, tr) and term (el, er) variables
    # bound around the pair at hand to their binder pair's number (a free name
    # stands for itself); a binder pair pushes frames that restore the dicts.
    tl, tr, el, er = {}, {}, {}, {}
    binders = 0
    stack = []
    while True:
        cls = type(s)
        if type(t) is not cls:
            return False
        if s is t and isinstance(s, Type):
            # one subtree: equal iff its free variables name the same binders
            for a in s.ftv:
                if tl.get(a) != tr.get(a):
                    return False
        elif cls is Arrow:
            stack.append((s.dst, t.dst))
            s, t = s.src, t.src
            continue
        elif cls is TyVar:
            if tl.get(s.name, s.name) != tr.get(t.name, t.name):
                return False
        elif cls is Forall or cls is Mu or cls is TyLam:
            binders += 1
            stack.append(((tl, s.var, tl.get(s.var)), (tr, t.var, tr.get(t.var))))
            tl[s.var] = tr[t.var] = binders
            s, t = s.body, t.body
            continue
        elif cls is BangType or cls is Bang or cls is Unfold:
            s, t = s.body, t.body
            continue
        elif cls is tuple:  # the frames of a binder pair whose bodies are done
            unbind(*s)
            unbind(*t)
        elif cls is Var:
            if el.get(s.name, s.name) != er.get(t.name, t.name):
                return False
        elif cls is App or cls is TyApp or cls is Fold:
            stack.append((s.arg, t.arg) if cls is App else (s.ty, t.ty))
            s, t = (s.body, t.body) if cls is Fold else (s.fn, t.fn)
            continue
        elif cls is Lam or cls is BangLam:
            binders += 1
            stack += (((el, s.var, el.get(s.var)), (er, t.var, er.get(t.var))), (s.ty, t.ty))
            el[s.var] = er[t.var] = binders
            s, t = s.body, t.body
            continue
        elif s is not None:  # None: two binders without annotations
            return False
        if not stack:
            return True
        s, t = stack.pop()


# ---------------------------------------------------------------------------
# Stratification

def occurrences(t: Term, x: str):
    """Yield the free occurrences of x in t as (cell, depth) pairs, preorder
    (path_of reads a cell's path)."""
    for cell, depth, s in preorder(t, lambda s: x in s.fvs):
        if isinstance(s, Var) and s.name == x:
            yield cell, depth


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
    for cell, _, s in preorder(t):
        if not isinstance(s, (Lam, BangLam)):
            continue
        linear = isinstance(s, Lam)
        kind = "a linear abstraction" if linear else "a bang-abstraction"
        extra = []
        for n, (occ, depth) in enumerate(occurrences(s.body, s.var)):
            if depth != (0 if linear else 1):
                violations.append(_violation(
                    cell, s.var, occ, "occurrence at depth %d under %s" % (depth, kind)))
            if linear and n:
                extra.append(_violation(
                    cell, s.var, occ, "second occurrence of a linear variable"))
        violations += extra
    return violations


def _violation(cell, x, occ, reason):
    """x, bound at cell, occurs at occ (a cell of the binder's body)."""
    path = path_of(cell)
    return StratificationViolation(path, x, path + (0,) + path_of(occ), reason)


# ---------------------------------------------------------------------------
# Erasure

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
# Printing.  Precedence of a position: 0 = binder bodies extend right, 1 =
# function or arrow target, 2 = argument, arrow source or annotation, 3 =
# under a prefix (! / fold / unfold).

def print_type(t: Type) -> str:
    if not isinstance(t, Type):
        raise TypeError(t)
    return _print(t, 0)


def print_term(t: Term) -> str:
    if not isinstance(t, Term):
        raise TypeError(t)
    return _print(t, 0)


def _print(t, prec: int) -> str:
    """The text of t, a term or a type, at a position of precedence prec."""
    # One list of text pieces, filled from an explicit stack of pieces and
    # (node, precedence of its position) pairs, so printing is linear.
    out = []
    stack = [(t, prec)]
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
        if cls is Forall and is_unit(t):
            out.append("1")
            continue
        if prec >= level:
            out.append("(")
            stack.append(")")
        if cls is Var or cls is TyVar:
            out.append(t.name)
        elif cls in _BINDER_TEXT:  # with its annotation, if it has one
            out.append(_BINDER_TEXT[cls] % t.var)
            stack += ((t.body, 0), ". ")
            ty = t.ty if cls is Lam or cls is BangLam else None
            if type(ty) is TyVar:  # most annotations: printed at once
                out.append(":" + ty.name)
            elif ty is not None:
                stack += ((ty, 2), ":")
        elif cls is App:
            stack += ((t.arg, 2), " ", (t.fn, 1))
        elif cls is Arrow:
            stack += ((t.dst, 1), " -o ", (t.src, 2))
        elif cls is TyApp:
            stack += ("]", (t.ty, 0), " [", (t.fn, 1))
        elif cls is Fold:
            out.append("fold[")
            stack += ((t.body, 3), "] ", (t.ty, 0))
        else:
            out.append("unfold " if cls is Unfold else "!")
            stack.append((t.body, 3))
    return "".join(out)


# The least precedence at which a node's text needs parentheses: binders
# extend right, application spines, arrows and prefix forms bind tighter,
# and variables, bangs and the unit 1 never need them.
_PRINT_LEVEL = {Lam: 1, BangLam: 1, TyLam: 1, Forall: 1, Mu: 1, App: 2, TyApp: 2,
                Fold: 2, Unfold: 2, Arrow: 2, Var: 4, Bang: 4, TyVar: 4, BangType: 4}
_BINDER_TEXT = {Lam: "\\%s", BangLam: "\\!%s", TyLam: "/\\%s", Forall: "forall %s",
                Mu: "mu %s"}
