"""Reference copies of three functions of the contraction path, written with
class-pattern `match` as the library had them before it dispatched on
type(t).  test_dispatch.py compares the library against them."""

from __future__ import annotations

from ealc.syntax import (
    App, Bang, BangLam, Fold, Lam, TyApp, TyLam, TyVar, Unfold, Var,
    fresh_name, subst_type_in_term,
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
