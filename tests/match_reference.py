"""Reference copies of the functions of the contraction path, written
with class-pattern `match` as the library had them before it dispatched on
type(t).  test_dispatch.py compares the library against them.  Each copy
calls the other copies, never the library's versions."""

from __future__ import annotations

from ealc.syntax import (
    App, Arrow, Bang, BangLam, BangType, Fold, Forall, Lam, Mu, TyApp, TyLam,
    TyVar, Unfold, Var, fresh_name,
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


def contract_child(p, i, c):
    """The four redex shapes: the contractum of p with child i replaced
    by c, or None when that is not a redex."""
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


def contract(t):
    """The four redex shapes, at the root only."""
    match t:
        case App(f, _) | TyApp(f, _) | Unfold(f):
            return contract_child(t, 0, f)
    return None
