"""Truncation at depth 0: collapse everything under a bang.

On types every !S becomes the unit 1 = forall a. a -o a; on terms every
!t becomes the annotated identity of type 1 and every \\!x becomes a plain
abstraction over 1 (its variable can only have occurred inside bangs, which
are now identities, so it is dead).  The output is exponential-free, and
for well-typed input it typechecks at the truncated type and normalizes in
lock-step with the source; both facts are exercised by the test suite
rather than assumed.

Truncation is defined for the calculus without type fixpoints; terms or
types mentioning mu are rejected.
"""

from __future__ import annotations

from .syntax import (
    Arrow, Bang, BangLam, BangType, Fold, Forall, Lam, Mu, Term, Type, TyApp,
    TyLam, TyVar, UNIT, Unfold, Var, fold_term, print_type, rebuild,
)


class TruncationError(Exception):
    """Raised on mu types/terms, which truncation does not cover."""


def truncate_type(t: Type) -> Type:
    match t:
        case TyVar():
            return t
        case BangType(_):
            return UNIT
        case Arrow(src, dst):
            return Arrow(truncate_type(src), truncate_type(dst))
        case Forall(a, body):
            return Forall(a, truncate_type(body))
        case Mu():
            raise TruncationError("cannot truncate the fixpoint type %s" % print_type(t))
    raise TypeError(t)


def _unit_id() -> Term:
    return TyLam("a", Lam("x", TyVar("a"), Var("x")))


def _truncate_pre(s: Term):
    match s:
        case Bang(_):
            return None, _unit_id()
        case BangLam(x, _, body):
            return Lam(x, UNIT, body), None
        case Lam(x, ann, body) if ann is not None:
            return Lam(x, truncate_type(ann), body), None
        case Fold(_, _) | Unfold(_):
            raise TruncationError("cannot truncate fold/unfold terms")
    return s, None


def _truncate_post(s: Term, kids) -> Term:
    # the type argument is truncated after the function, so the error
    # reported is the first fold or mu met in reading order
    if isinstance(s, TyApp):
        return TyApp(kids[0], truncate_type(s.ty))
    return rebuild(s, kids)


def truncate_term(t: Term) -> Term:
    return fold_term(t, _truncate_pre, _truncate_post)
