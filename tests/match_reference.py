"""Reference copies of the functions of the contraction path, of the type
printer, of alpha-equivalence and of the type checker, written with
class-pattern `match` as the library had them
before it dispatched on type(t).  test_dispatch.py compares the library
against them.  Each copy calls the other copies, never the library's
versions.  At the end, the derivative construction of regex_to_dfa that
the position automaton replaced, and the minimize it called;
test_regcompile.py compares them with the library."""

from __future__ import annotations

from ealc.syntax import (
    App, Arrow, Bang, BangLam, BangType, Fold, Forall, Lam, Mu, TyApp, TyLam,
    TyVar, Unfold, Var, fresh_name, is_linear, is_strictly_linear, print_type,
)
from ealc.regcompile import ALPHABET, RegexError, explore, numbered_dfa
from ealc.typecheck import (
    BANG_BOUND, BANG_ESCAPE, CLASS_VIOLATION, EAL, FORALL_NOT_LINEAR, LINEAR,
    MISMATCH, MU_IN_EAL, NONLINEAR, TEMPORARY, UNBOUND, ZONE_MISUSE,
    TypeCheckError,
)


def children(t):
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


def replace_child(t, i, c):
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


def subst_type(t, a, repl):
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


def _subst_opt(ty, a, repl):
    return None if ty is None else subst_type(ty, a, repl)


def subst_term(t, x, u):
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


def subst_type_in_term(t, a, repl):
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


def contract_child(p, i, c, memo):
    """The four redex shapes: the contractum of p with child i replaced
    by c, or None when that is not a redex.  memo, the engine's store of
    type beta contracta, is left unused: every contraction substitutes."""
    match p:
        case App(f, a):
            f, a = (c, a) if i == 0 else (f, c)
            match f:
                case Lam(x, _, body):
                    return subst_term(body, x, a)
                case BangLam(x, _, body) if isinstance(a, Bang):
                    return subst_term(body, x, a.body)
        case TyApp(_, ty) if isinstance(c, TyLam):
            return subst_type_in_term(c.body, c.var, ty)
        case Unfold() if isinstance(c, Fold):
            return c.body
    return None


def contract(t, memo):
    """The four redex shapes, at the root only."""
    match t:
        case App(f, _) | TyApp(f, _) | Unfold(f):
            return contract_child(t, 0, f, memo)
    return None


# -- printing types ----------------------------------------------------------------

UNIT = Forall("a", Arrow(TyVar("a"), TyVar("a")))


def is_unit(t):
    return isinstance(t, Forall) and type_alpha_eq(t, UNIT)


def print_type_ref(t, prec=0):
    if is_unit(t):
        return "1"
    match t:
        case TyVar(a):
            return a
        case Forall(a, b):
            s = "forall %s. %s" % (a, print_type_ref(b, 0))
        case Mu(a, b):
            s = "mu %s. %s" % (a, print_type_ref(b, 0))
        case Arrow(src, dst):
            s = "%s -o %s" % (print_type_ref(src, 2), print_type_ref(dst, 1))
        case BangType(b):
            return "!" + print_type_ref(b, 3)
        case _:
            raise TypeError(t)
    need = 1 if isinstance(t, (Forall, Mu)) else 2
    return "(%s)" % s if prec >= need else s


# -- the type checker ------------------------------------------------------------

def contains_mu(t):
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


def type_alpha_eq(s, t):
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


def alpha_eq(s, t):
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
                if ts is None or tt is None:
                    ok = ts is None and tt is None
                else:
                    ok = _ty_aeq(ts, tt, tl, tr, d)
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


def _gate_mu(mode, ty, path):
    if mode == EAL and contains_mu(ty):
        raise TypeCheckError(MU_IN_EAL, path,
                             "type %s uses mu outside mueal mode" % print_type(ty))


def _infer(mode, env, t, path=()):
    """The type of t; env maps each name in scope to (zone, type)."""
    match t:
        case Var(x):
            if x not in env:
                raise TypeCheckError(UNBOUND, path, "unbound variable %s" % x)
            zone, ty = env[x]
            if zone == BANG_BOUND:
                raise TypeCheckError(
                    ZONE_MISUSE, path,
                    "%s is bang-bound; it can only be used inside a !(...) body" % x)
            return ty

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

        case BangLam(x, ann, body):
            if ann is None:
                raise TypeCheckError(CLASS_VIOLATION, path,
                                     "binder %s needs a type annotation" % x)
            _gate_mu(mode, ann, path)
            ty = _infer(mode, {**env, x: (BANG_BOUND, BangType(ann))}, body, path + (0,))
            return Arrow(BangType(ann), ty)

        case App(fn, arg):
            fn_ty = _infer(mode, env, fn, path + (0,))
            if not isinstance(fn_ty, Arrow):
                raise TypeCheckError(
                    MISMATCH, path + (0,),
                    "applied term has type %s, not an arrow" % print_type(fn_ty))
            arg_ty = _infer(mode, env, arg, path + (1,))
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

        case TyLam(a, body):
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


# ---------------------------------------------------------------------------
# Regexes via derivatives, the construction regcompile.regex_to_dfa used
# before the position automaton replaced it, and minimize as it was before
# it numbered the states; test_regcompile.py compares them with the
# library.  explore and numbered_dfa are the library's.

def minimize(d):
    """Unique minimal DFA (Moore partition refinement), states renamed
    q0, q1, ... in BFS order from the start state."""
    states, _ = explore(d.start, lambda s, c: d.delta[s][c])
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

    rep = {}
    for s in states:
        rep.setdefault(block[s], s)
    blocks, succ = explore(block[d.start],
                           lambda b, c: block[d.delta[rep[b]][c]])
    return numbered_dfa(succ, [i for i, b in enumerate(blocks)
                               if rep[b] in d.accept])


# Smart constructors keep the ASTs canonical enough (associativity/
# commutativity/idempotence of |, unit laws) for the set of derivatives to
# stay finite.

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


def regex_to_dfa(regex: str):
    """Minimal complete DFA of the regex (literals 0 1, e for the empty
    word, concatenation, |, *, parentheses; the empty regex denotes {e})."""
    # Brzozowski derivative automaton, states = canonical regex values.
    order, succ = explore(_parse_regex(regex), _deriv)
    return minimize(numbered_dfa(
        succ, [i for i, r in enumerate(order) if _nullable(r)]))
