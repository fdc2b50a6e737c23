"""The contraction path and the type checker dispatch on type(t);
match_reference.py keeps the class-pattern versions they replaced.  Both
must build the same terms, binder names included, so results are compared
by their printed text and their binder names; the checkers must synthesize
alpha-equal types or raise the same error."""

import collections
import random

import pytest

from ealc import (
    BOOL, EAL, MUEAL, STRS, App, Arrow, Bang, BangLam, BangType, Context,
    Forall, Lam, Mu, TyApp, TyLam, TyVar, TypeCheckError, Var, alpha_eq,
    church_string, compile_dfa, parse_term, parse_type, promote, scott_string,
    type_alpha_eq, typecheck,
)
from ealc import reduction
from ealc.reduction import _contract, _contract_child, trace
from ealc.syntax import (
    UNIT, Fold, _print, all_names, children, fold_term, fresh_name, is_unit,
    path_of, preorder, print_term, print_type, rebuild, replace_child,
    subst_term, subst_type, subst_type_in_term,
)
from ealc.typecheck import _CHECKED, BANG_BOUND, LINEAR, TEMPORARY

import match_reference as ref
from corpus import (
    EAL_CLOSED, MUEAL_CLOSED, OPEN_TYPED, REDUCIBLE, REFERENCE_DFAS, not_term,
)
from test_typecheck import ERROR_TEXT


def _subterms():
    seen = set()
    for _, term, _ in EAL_CLOSED + MUEAL_CLOSED:
        for _, _, s in preorder(term):
            if s not in seen:
                seen.add(s)
                yield s


SUBTERMS = list(_subterms())
POOL = {}  # one subterm of each class
for _s in SUBTERMS:
    POOL.setdefault(type(_s), _s)
assert len(POOL) == 9


def _types(s):
    """Every type annotation in s and every type inside one."""
    stack = [n.ty for _, _, n in preorder(s)
             if type(n) in (Lam, BangLam, TyApp, Fold) and n.ty is not None]
    while stack:
        ty = stack.pop()
        yield ty
        if type(ty) is Arrow:
            stack += [ty.src, ty.dst]
        elif type(ty) is not TyVar:
            stack.append(ty.body)


TYPES = list(dict.fromkeys(ty for s in SUBTERMS for ty in _types(s)))
# the corpus's fixpoint types are closed, so quantify over its open types too
TYPES += [q(v, ty) for ty in TYPES if type(ty) in (Arrow, Forall, Mu) and ty.ftv
          for q in (Forall, Mu) for v in ("a", "b")]


def _spines():
    """Right-nested application spines of 300 letters: a Church string's
    body, and one whose functions bind and mention the names substituted
    for, with and without the substituted name at its end."""
    body = church_string("".join("01"[i * i % 7 % 2] for i in range(300)))
    yield body.body.body.body.body.body
    fns = (Var("f"), Lam("y", None, App(Var("y"), Var("x"))),
           App(Var("x"), Var("z")), BangLam("z", None, Var("x")))
    for end in ("x", "z"):
        t = Var(end)
        for i in range(300):
            t = App(fns[i % 4], t)
        yield t


def _type_binders(s):
    """The type variables s binds, in a TyLam or inside an annotation."""
    return ({n.var for _, _, n in preorder(s) if type(n) is TyLam}
            | {ty.var for ty in _types(s) if type(ty) in (Forall, Mu)})


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


def _capturing_type(names):
    """A type whose free variables are the given names."""
    names = sorted(names) or ["a"]
    ty = TyVar(names[0])
    for name in names[1:]:
        ty = Arrow(ty, TyVar(name))
    return ty


FIXED_TYPES = (TyVar("b"), Arrow(TyVar("a"), TyVar("b")),
               Forall("c", Arrow(TyVar("c"), TyVar("a"))))


def _binders(t):
    return [getattr(n, "var", None) for _, _, n in preorder(t)]


def _text(t):
    return None if t is None else (print_term(t), _binders(t))


def test_children_match_the_reference():
    for s in SUBTERMS:
        new, old = children(s), ref.children(s)
        assert len(new) == len(old) and all(a is b for a, b in zip(new, old)), s


def test_subst_term_matches_the_reference():
    fixed = (Var("x"), App(Var("y"), Var("x")))
    for s in SUBTERMS + list(_spines()):
        for u in fixed + (_capturing(s),):
            for x in sorted(s.fvs) + ["_absent"]:
                new, old = subst_term(s, x, u), ref.subst_term(s, x, u)
                assert (new is s) == (old is s), (print_term(s), x)
                assert _text(new) == _text(old), (print_term(s), x)


def test_subst_type_in_term_matches_the_reference():
    for s in SUBTERMS:
        for repl in FIXED_TYPES + (_capturing_type(_type_binders(s) | s.ftv),):
            for a in sorted(s.ftv) + ["_absent"]:
                new = subst_type_in_term(s, a, repl)
                old = ref.subst_type_in_term(s, a, repl)
                assert (new is s) == (old is s), (print_term(s), a)
                assert _text(new) == _text(old), (print_term(s), a)


def test_subst_type_matches_the_reference():
    assert len(TYPES) > 50
    binders = {n.var for n in TYPES if type(n) in (Forall, Mu)}
    for ty in TYPES:
        for repl in FIXED_TYPES + (_capturing_type(binders | ty.ftv),):
            for a in sorted(ty.ftv) + ["_absent"]:
                new, old = subst_type(ty, a, repl), ref.subst_type(ty, a, repl)
                assert (new is ty) == (old is ty), (print_type(ty), a)
                assert print_type(new) == print_type(old), (print_type(ty), a)
                assert repr(new) == repr(old), (print_type(ty), a)


def test_replace_child_matches_the_reference():
    for p in SUBTERMS:
        for i, kid in enumerate(children(p)):
            for c in (kid, Var("_new"), POOL[App]):
                new, old = replace_child(p, i, c), ref.replace_child(p, i, c)
                assert type(new) is type(old) and new is not p
                assert children(new)[i] is c
                assert _text(new) == _text(old), (print_term(p), i)


def test_contract_child_matches_the_reference():
    # every parent with each of its children and with one node of each class
    # in the child's place, so that every redex shape is formed
    for p in SUBTERMS:
        for i, kid in enumerate(children(p)):
            for c in (kid, *POOL.values()):
                assert _text(_contract_child(p, i, c)) == \
                    _text(ref.contract_child(p, i, c)), (print_term(p), i)


def test_contract_matches_the_reference():
    # every subterm, and every parent with a node of each class in each
    # child's place, contracted at the root
    found = 0
    for p in SUBTERMS:
        terms = [p] + [ref.replace_child(p, i, c) for i in range(len(children(p)))
                       for c in POOL.values()]
        for t in terms:
            new, old = _contract(t), ref.contract(t)
            assert _text(new) == _text(old), print_term(t)
            found += new is not None
    assert found > 100


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
    monkeypatch.setattr(reduction, "_contract", ref.contract)
    monkeypatch.setattr(reduction, "_contract_child", ref.contract_child)
    monkeypatch.setattr(reduction, "children", ref.children)
    monkeypatch.setattr(reduction, "replace_child", ref.replace_child)
    old = [_steps(t) for t in terms]
    assert new == old
    assert sum(map(len, new)) > 1000


def test_non_terms_raise_type_error():
    class Fake:
        fvs = ftv = frozenset({"x"})
    for fn in (subst_term, ref.subst_term):
        with pytest.raises(TypeError):
            fn(Fake(), "x", Var("y"))
    for fn in (subst_type_in_term, ref.subst_type_in_term, subst_type, ref.subst_type):
        with pytest.raises(TypeError):
            fn(Fake(), "x", TyVar("a"))
    for fn in (children, ref.children):
        with pytest.raises(TypeError):
            fn(TyVar("a"))
    for fn in (replace_child, ref.replace_child):
        with pytest.raises(TypeError):
            fn(TyVar("a"), 0, Var("x"))
    for fn in (_contract_child, ref.contract_child):
        assert fn(TyVar("a"), 0, Var("x")) is None
    for fn in (_contract, ref.contract):
        assert fn(TyVar("a")) is None and fn(Fake()) is None


def test_type_printer_matches_the_reference():
    # every type of the corpus, banged and quantified, and the unit with
    # its bound variable renamed, free or nested
    a, b = TyVar("a"), TyVar("b")
    types = TYPES + [BangType(ty) for ty in TYPES] + [
        UNIT, Forall("b", Arrow(b, b)), Forall("a", Arrow(b, b)), Forall("a", Arrow(a, b)),
        Forall("a", Arrow(UNIT, UNIT)), Arrow(UNIT, BangType(UNIT)), Mu("a", Arrow(a, a))]
    assert sum(ref.is_unit(ty) for ty in types) >= 2
    for ty in types:
        assert is_unit(ty) == ref.is_unit(ty), ref.print_type_ref(ty)
        for prec in range(4):
            assert _print(ty, prec) == ref.print_type_ref(ty, prec)
    for fn in (print_type, lambda t: ref.print_type_ref(t, 0)):
        with pytest.raises(TypeError):
            fn(Var("x"))


# -- the type checker ------------------------------------------------------------

def test_mu_flag_matches_the_reference():
    types = TYPES + [BangType(ty) for ty in TYPES]
    assert {ty.mu for ty in types} == {False, True}
    for ty in types:
        assert ty.mu == ref.contains_mu(ty), print_type(ty)


def test_type_alpha_eq_matches_the_reference():
    # Each type against a rebuilt copy of it, against the types that
    # quantify over its very object (the shortcut for identical subtrees
    # must see where their free variables are bound), and against a seeded
    # sample of the others.
    rng = random.Random(16)
    equal = 0
    for ty in TYPES:
        group = [ty, parse_type(print_type(ty))]
        if type(ty) in (Arrow, Forall, Mu):
            group += [Forall(a, ty) for a in sorted(ty.ftv) + ["_fresh"]]
        for s in group:
            for t in group + rng.sample(TYPES, 8):
                new, old = type_alpha_eq(s, t), ref.type_alpha_eq(s, t)
                assert new == old, (print_type(s), print_type(t))
                equal += new
    assert equal > 2 * len(TYPES)


def _renamed(t):
    """t, a term or a type, with every binder renamed, avoiding capture."""
    return fold_term(t, lambda s: (s, None), _rename)


def _rename(s, kids):
    cls = type(s)
    if cls is Lam or cls is BangLam:
        x = fresh_name(s.var + "r", kids[0].fvs)
        return cls(x, None if s.ty is None else _renamed(s.ty),
                   subst_term(kids[0], s.var, Var(x)))
    if cls is TyLam or cls is Forall or cls is Mu:
        a = fresh_name(s.var + "r", kids[0].ftv)
        sub = subst_type_in_term if cls is TyLam else subst_type
        return cls(a, sub(kids[0], s.var, TyVar(a)))
    if cls is TyApp:
        return TyApp(kids[0], _renamed(s.ty))
    if cls is Fold:
        return Fold(_renamed(s.ty), kids[0])
    return rebuild(s, kids)


def test_alpha_eq_matches_the_reference():
    # Each subterm against a re-parsed and a binder-renamed copy of it, and
    # against a seeded sample of the others.
    rng = random.Random(27)
    equal = renamed = 0
    for s in SUBTERMS:
        group = [s, parse_term(print_term(s)), _renamed(s)]
        renamed += print_term(group[2]) != print_term(s)
        for a in group:
            for b in group + rng.sample(SUBTERMS, 4):
                new, old = alpha_eq(a, b), ref.alpha_eq(a, b)
                assert new == old, (print_term(a), print_term(b))
                equal += new
    assert equal >= 9 * len(SUBTERMS) and renamed > len(SUBTERMS) // 2
    # an inner binder shadows an outer one of the same name
    shadowed = parse_term(r"\x. \x. x")
    for other, eq in ((r"\x. \y. y", True), (r"\x. \y. x", False),
                      (r"\y. \x. x", True), (r"\x. \x. y", False)):
        other = parse_term(other)
        assert alpha_eq(shadowed, other) == ref.alpha_eq(shadowed, other) == eq
    shadowed = parse_type("forall a. forall a. a -o a")
    for other, eq in (("forall a. forall b. b -o b", True),
                      ("forall a. forall b. a -o a", False)):
        other = parse_type(other)
        assert type_alpha_eq(shadowed, other) == ref.type_alpha_eq(shadowed, other) == eq


def _outcome(check):
    try:
        return check()
    except TypeCheckError as e:
        return (e.kind, e.path, e.message)


def _checked(mode, ctx, t):
    """Check t with the library and with the reference, which must agree;
    return "typed" or the error's kind."""
    env = {x: (zone, ty) for zone, m in ((LINEAR, ctx.gamma), (BANG_BOUND, ctx.delta),
                                        (TEMPORARY, ctx.theta)) for x, ty in m.items()}
    _CHECKED.clear()  # compare the checker, not the types it remembers
    new = _outcome(lambda: typecheck(mode, ctx, t))
    old = _outcome(lambda: ref._infer(mode, env, t))
    if type(new) is tuple or type(old) is tuple:
        assert new == old, print_term(t)
        return new[0]
    assert ref.type_alpha_eq(new, old), print_term(t)
    return "typed"


ILL_TYPED = [(mode, ctx, parse_term(src)) for mode, ctx, src, _ in ERROR_TEXT] + [
    (EAL, Context(), TyApp(TyLam("a", Lam("x", TyVar("a"), Var("x"))), BangType(BOOL))),
    (EAL, Context(), Lam("x", BangType(BOOL), Var("x"))),
    (EAL, Context(), Lam("x", BOOL, Bang(Var("x")))),
    (EAL, Context(), scott_string("01")),
    (EAL, Context(), App(not_term(), church_string("0"))),
]


def test_checker_matches_the_reference_on_the_corpus():
    for _, term, _ in EAL_CLOSED:
        assert _checked(EAL, Context(), term) == _checked(MUEAL, Context(), term) == "typed"
    for _, term, _ in MUEAL_CLOSED:
        assert _checked(MUEAL, Context(), term) == "typed"
        _checked(EAL, Context(), term)
    for ctx, term, _, mode in OPEN_TYPED:
        assert _checked(mode, ctx, term) == "typed"
    for mode, ctx, term in ILL_TYPED:
        assert _checked(mode, ctx, term) != "typed", print_term(term)


MUTANT_TYPES = [TyVar("a"), TyVar("b"), BOOL, BangType(BOOL), Arrow(TyVar("a"), TyVar("a")),
                BangType(Arrow(TyVar("a"), TyVar("a"))), STRS, BangType(STRS)]
MUTANT_NAMES = ("x", "y", "a", "f0", "f1", "w", "n", "d")


def _mutant(rng, t):
    """t with one annotation replaced or one binder renamed."""
    sites = [(path_of(cell), s) for cell, _, s in preorder(t)
             if type(s) in (Lam, BangLam, TyLam, TyApp, Fold)]
    path, s = rng.choice(sites)
    cls = type(s)
    if cls is TyLam:
        new = TyLam(rng.choice(MUTANT_NAMES), s.body)
    elif cls is TyApp:
        new = TyApp(s.fn, rng.choice(MUTANT_TYPES))
    elif cls is Fold:
        new = Fold(rng.choice(MUTANT_TYPES), s.body)
    elif rng.random() < 0.5:
        new = cls(rng.choice(MUTANT_NAMES), s.ty, s.body)
    else:
        new = cls(s.var, rng.choice(MUTANT_TYPES), s.body)
    return _replace_at(t, path, new)


def _replace_at(t, path, new):
    if not path:
        return new
    return replace_child(t, path[0], _replace_at(children(t)[path[0]], path[1:], new))


def test_checker_matches_the_reference_on_mutants():
    rng = random.Random(16)
    terms = [term for _, term, _ in EAL_CLOSED + MUEAL_CLOSED]
    outcomes = collections.Counter(
        _checked(mode, Context(), _mutant(rng, rng.choice(terms)))
        for _ in range(400) for mode in (EAL, MUEAL))
    assert len(outcomes) >= 6 and outcomes["typed"] > 100, outcomes
