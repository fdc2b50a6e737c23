"""Truncation at depth 0: collapse everything under a bang.

On types every !S becomes the unit 1 = forall a. a -o a; on terms every
!t becomes the annotated identity of type 1 and every \\!x becomes a plain
abstraction over 1 (its variable can only have occurred inside bangs, which
are now identities, so it is dead).  The output is exponential-free, and
for well-typed input it typechecks at the truncated type and normalizes in
lock-step with the source; both facts are exercised by the test suite
rather than assumed.  Both truncations are folds (syntax.fold_term) that
share one pre-function, so a term or a type of any depth truncates.

Truncation is defined for the calculus without type fixpoints; terms or
types mentioning mu are rejected.
"""

from __future__ import annotations

from .syntax import (
    Bang, BangLam, BangType, Fold, Lam, Mu, Term, Type, TyApp, TyLam, TyVar,
    UNIT, Unfold, Unsupported, Var, fold_term, print_type, rebuild,
)


class TruncationError(Unsupported):
    """Raised on mu types/terms, which truncation does not cover."""


def truncate_type(t: Type) -> Type:
    if not isinstance(t, Type):
        raise TypeError(t)
    return fold_term(t, _truncate_pre)


def _unit_id() -> Term:
    return TyLam("a", Lam("x", TyVar("a"), Var("x")))


def _truncate_pre(s):
    match s:
        case BangType(_):
            return None, UNIT
        case Mu():
            raise TruncationError("cannot truncate the fixpoint type %s" % print_type(s))
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
