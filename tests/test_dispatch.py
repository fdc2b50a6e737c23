"""The contraction path dispatches on type(t); match_reference.py keeps the
class-pattern versions it replaced.  Both must build the same terms, binder
names included, so results are compared by their printed text."""

import pytest

from ealc import (
    EAL, App, Bang, TyApp, TyLam, TyVar, Var, church_string, compile_dfa, promote,
)
from ealc import reduction
from ealc.reduction import _contract_child, trace
from ealc.syntax import all_names, children, preorder, print_term, subst_term

import match_reference as ref
from corpus import EAL_CLOSED, MUEAL_CLOSED, REDUCIBLE, REFERENCE_DFAS


def _subterms():
    seen = set()
    for _, term, _ in EAL_CLOSED + MUEAL_CLOSED:
        for _, _, s in preorder(term):
            if s not in seen:
                seen.add(s)
                yield s


SUBTERMS = list(_subterms())


def _capturing(s):
    """A term whose free variables are every term name in s and every type
    binder of s, so that substituting it renames each binder it passes."""
    names = sorted(all_names(s))
    u = Var(names[0])
    for name in names[1:]:
        u = App(u, Var(name))
    for a in sorted({n.var for _, _, n in preorder(s) if type(n) is TyLam}):
        u = TyApp(u, TyVar(a))
    return u


def _text(t):
    return None if t is None else print_term(t)


def test_children_match_the_reference():
    for s in SUBTERMS:
        new, old = children(s), ref.children(s)
        assert len(new) == len(old) and all(a is b for a, b in zip(new, old)), s


def test_subst_term_matches_the_reference():
    fixed = (Var("x"), App(Var("y"), Var("x")))
    for s in SUBTERMS:
        for u in fixed + (_capturing(s),):
            for x in sorted(s.fvs) + ["_absent"]:
                new, old = subst_term(s, x, u), ref.subst_term(s, x, u)
                assert (new is s) == (old is s), (print_term(s), x)
                assert print_term(new) == print_term(old), (print_term(s), x)


def test_contract_child_matches_the_reference():
    # every parent with each of its children and with one node of each class
    # in the child's place, so that every redex shape is formed
    pool = {}
    for s in SUBTERMS:
        pool.setdefault(type(s), s)
    assert len(pool) == 9
    for p in SUBTERMS:
        for i, kid in enumerate(children(p)):
            for c in (kid, *pool.values()):
                assert _text(_contract_child(p, i, c)) == \
                    _text(ref.contract_child(p, i, c)), (print_term(p), i)


def _steps(t):
    return [(print_term(s), path) for s, path in trace(t)]


def test_reduce_matches_the_reference_engine(monkeypatch):
    terms = [term for _, term, _ in REDUCIBLE]
    for _, d, _ in REFERENCE_DFAS:
        plain = compile_dfa(d)
        lifted = promote(plain, 1, 1, EAL)
        for w in ("", "0", "1", "10", "011"):
            terms.append(App(plain, church_string(w)))
            terms.append(App(lifted, Bang(church_string(w))))
    new = [_steps(t) for t in terms]
    monkeypatch.setattr(reduction, "_contract_child", ref.contract_child)
    monkeypatch.setattr(reduction, "children", ref.children)
    old = [_steps(t) for t in terms]
    assert new == old
    assert sum(map(len, new)) > 1000


def test_non_terms_raise_type_error():
    class Fake:
        fvs = frozenset({"x"})
    for fn in (subst_term, ref.subst_term):
        with pytest.raises(TypeError):
            fn(Fake(), "x", Var("y"))
    for fn in (children, ref.children):
        with pytest.raises(TypeError):
            fn(TyVar("a"))
    assert _contract_child(TyVar("a"), 0, Var("x")) is None
