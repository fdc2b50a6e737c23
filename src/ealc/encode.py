"""Builders for the standard data encodings and term constructions.

Everything returned here is a closed, fully annotated term that typechecks
at its advertised type (Church strings and numerals at Str and Nat, Scott
strings at StrS in mueal mode, monoid elements at Mk, pairs at the usual
second-order tensor, the Scott-to-Church `cast`, k-fold functorial
promotion, and the bounded-iteration assembly combinator built from them).
"""

from __future__ import annotations

from .syntax import (
    App, Arrow, Bang, BangLam, BangType, Fold, Forall, Lam, Mu, Term, Type,
    TyApp, TyLam, TyVar, Unfold, Var, fresh_name, print_type, type_alpha_eq,
)
from .typecheck import Context, MUEAL, TypeCheckError, typecheck

# -- named types -------------------------------------------------------------

def str_of(s: Type) -> Type:
    """Str[S] = !(S -o S) -o !(S -o S) -o !(S -o S)."""
    e = BangType(Arrow(s, s))
    return Arrow(e, Arrow(e, e))


def tensor(s: Type, t: Type) -> Type:
    """s * t = forall a. (s -o t -o a) -o a  (a chosen fresh)."""
    a = fresh_name("a", s.ftv | t.ftv)
    return Forall(a, Arrow(Arrow(s, Arrow(t, TyVar(a))), TyVar(a)))


def monoid_ty(k: int) -> Type:
    """Mk = forall a. a -o ... -o a with k arguments."""
    if k < 1:
        raise ValueError("monoid size must be >= 1")
    t: Type = TyVar("a")
    for _ in range(k):
        t = Arrow(TyVar("a"), t)
    return Forall("a", t)


# Bool = forall a. a -o a -o a
# Str  = forall a. Str[a]
# Nat  = forall a. !(a -o a) -o !(a -o a)
# StrS = mu b. forall a. (b -o a) -o (b -o a) -o a -o a
_A = TyVar("a")
_ARM = Arrow(TyVar("b"), _A)
BOOL = Forall("a", Arrow(_A, Arrow(_A, _A)))
STR = Forall("a", str_of(_A))
NAT = Forall("a", Arrow(BangType(Arrow(_A, _A)), BangType(Arrow(_A, _A))))
STRS = Mu("b", Forall("a", Arrow(_ARM, Arrow(_ARM, Arrow(_A, _A)))))


def bang(ty: Type, k: int = 1) -> Type:
    for _ in range(k):
        ty = BangType(ty)
    return ty


# -- first-order data --------------------------------------------------------

def _check_binary(w: str):
    bad = set(w) - {"0", "1"}
    if bad:
        raise ValueError("not a binary string: letters %s" % sorted(bad))


def church_string(w: str) -> Term:
    """/\\a. \\!f0. \\!f1. !(\\x. f_{w1} (... (f_{wn} x)))  :  Str"""
    _check_binary(w)
    a = TyVar("a")
    body: Term = Var("x")
    for c in reversed(w):
        body = App(Var("f0" if c == "0" else "f1"), body)
    return TyLam("a", BangLam("f0", Arrow(a, a), BangLam(
        "f1", Arrow(a, a), Bang(Lam("x", a, body)))))


def church_nat(n: int) -> Term:
    """/\\a. \\!f. !(\\x. f (... (f x)))  :  Nat"""
    if n < 0:
        raise ValueError("n must be a natural number")
    a = TyVar("a")
    body: Term = Var("x")
    for _ in range(n):
        body = App(Var("f"), body)
    return TyLam("a", BangLam("f", Arrow(a, a), Bang(Lam("x", a, body))))


def bool_term(b: bool) -> Term:
    a = TyVar("a")
    return TyLam("a", Lam("x", a, Lam("y", a, Var("x" if b else "y"))))


def monoid_elem(i: int, k: int) -> Term:
    """m_i = /\\a. \\x1. ... \\xk. xi  :  Mk"""
    if not 1 <= i <= k:
        raise ValueError("element index %d out of range 1..%d" % (i, k))
    t: Term = Var("x%d" % i)
    for j in range(k, 0, -1):
        t = Lam("x%d" % j, TyVar("a"), t)
    return TyLam("a", t)


def pair(u: Term, s: Type, v: Term, t: Type) -> Term:
    """u * v = /\\a. \\f:(s -o t -o a). f u v  :  s * t"""
    a = fresh_name("a", s.ftv | t.ftv | u.ftv | v.ftv)
    f = fresh_name("f", u.fvs | v.fvs)
    return TyLam(a, Lam(f, Arrow(s, Arrow(t, TyVar(a))),
                        App(App(Var(f), u), v)))


def proj(i: int) -> Term:
    """Affine projection at the closed type forall p. forall q. p*q -o p|q."""
    if i not in (1, 2):
        raise ValueError("projection index must be 1 or 2")
    p, q = TyVar("p"), TyVar("q")
    keep = p if i == 1 else q
    sel = Lam("x", p, Lam("y", q, Var("x" if i == 1 else "y")))
    body = Lam("z", tensor(p, q), App(TyApp(Var("z"), keep), sel))
    return TyLam("p", TyLam("q", body))


def pair_elim(u: Term, s: Type, t: Type, x: str, y: str, body: Term,
              result: Type) -> Term:
    """let x*y = u in body  ~>  u [result] (\\x:s. \\y:t. body).

    As in the pair sugar, this instantiation is only well typed when
    `result` is a linear type.
    """
    return App(TyApp(u, result), Lam(x, s, Lam(y, t, body)))


def scott_string(w: str) -> Term:
    """Pattern-matching string encoding; needs mueal mode."""
    _check_binary(w)
    a = TyVar("a")
    arm = Arrow(STRS, a)

    def node(body: Term) -> Term:
        return Fold(STRS, TyLam("a", Lam("f0", arm, Lam("f1", arm, Lam("x", a, body)))))

    term = node(Var("x"))
    for c in reversed(w):  # innermost first, so no recursion per letter
        term = node(App(Var("f" + c), term))
    return term


# -- functorial promotion ------------------------------------------------------

def _split_arrows(ty: Type, n: int, what: str):
    sigmas = []
    for _ in range(n):
        if not isinstance(ty, Arrow):
            raise TypeCheckError("mismatch", (), "%s: expected %d-ary arrow, got %s"
                                 % (what, n, print_type(ty)))
        sigmas.append(ty.src)
        ty = ty.dst
    return sigmas, ty


def promote(t: Term, arity: int, levels: int, mode: str = MUEAL) -> Term:
    """Lift a closed t : S1 -o ... -o Sn -o T to !^k S1 -o ... -o !^k T.

    One level is \\!x1. ... \\!xn. !(t x1 ... xn); higher levels iterate it.
    The result has the same applied normal forms as the k-fold bang of t's
    applications (checked in the test suite, not assumed).
    """
    if arity < 0 or levels < 0:
        raise ValueError("arity and levels must be non-negative")
    ty = typecheck(mode, Context(), t)
    sigmas, _ = _split_arrows(ty, arity, "promote")
    for _ in range(levels):
        names = ["x%d" % (i + 1) for i in range(arity)]
        body: Term = t
        for nm in names:
            body = App(body, Var(nm))
        out: Term = Bang(body)
        for nm, s in zip(reversed(names), reversed(sigmas)):
            out = BangLam(nm, s, out)
        t = out
        sigmas = [BangType(s) for s in sigmas]
    return t


# -- Scott-to-Church conversion ------------------------------------------------

def cast_term() -> Term:
    """cast : Nat -o !StrS -o Str (mueal).

    The numeral drives a loop over the state (a -o a) * StrS: while the
    Scott string is nonempty its head letter is popped and the function
    component is post-composed with the matching step function, so after
    n rounds the function component iterates the first min(n, length)
    letters, which is exactly the Church encoding of that prefix.
    """
    a = TyVar("a")
    aa = Arrow(a, a)
    state = tensor(aa, STRS)  # the Nat is instantiated at this loop state
    id_a = Lam("x", a, Var("x"))

    # case u of {0 v -> f0 * v | 1 v -> f1 * v | e -> id * S("")}
    branch = lambda f: Lam("v", STRS, pair(Var(f), aa, Var("v"), STRS))
    case = App(App(App(TyApp(Unfold(Var("u")), state), branch("f0")),
                   branch("f1")),
               pair(Lam("z", a, Var("z")), aa, scott_string(""), STRS))

    # let f * v = case ... in (\x. h (f x)) * v
    step_body = pair_elim(
        case, aa, STRS, "f", "v",
        pair(Lam("x", a, App(Var("h"), App(Var("f"), Var("x")))), aa,
             Var("v"), STRS),
        state)
    step = Lam("p", state, pair_elim(Var("p"), aa, STRS, "h", "u", step_body, state))

    readout = App(TyApp(TyApp(proj(1), aa), STRS),
                  App(Var("g"), pair(id_a, aa, Var("w"), STRS)))
    loop = App(BangLam("g", Arrow(state, state), Bang(readout)),
               App(TyApp(Var("n"), state), Bang(step)))

    return Lam("n", NAT, BangLam("w", STRS, TyLam(
        "a", BangLam("f0", aa, BangLam("f1", aa, loop)))))


# -- assembly of bounded iteration ----------------------------------------------

def assemble_fexptime(f: Term, t_clock: Term, k: int) -> Term:
    """\\!w. cast^(k+1) (t_clock !w) (f !w)  :  !Str -o !^{k+1} Str.

    f must typecheck at !Str -o !^{k+2} StrS and t_clock at
    !Str -o !^{k+1} Nat; the clock value must dominate the length of the
    string f produces for the composite to compute the same function.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    f_ty = typecheck(MUEAL, Context(), f)
    clock_ty = typecheck(MUEAL, Context(), t_clock)
    want_f = Arrow(BangType(STR), bang(STRS, k + 2))
    want_clock = Arrow(BangType(STR), bang(NAT, k + 1))
    if not type_alpha_eq(f_ty, want_f):
        raise TypeCheckError("mismatch", (), "string producer has type %s, expected %s"
                             % (print_type(f_ty), print_type(want_f)))
    if not type_alpha_eq(clock_ty, want_clock):
        raise TypeCheckError("mismatch", (), "clock has type %s, expected %s"
                             % (print_type(clock_ty), print_type(want_clock)))
    lifted_cast = promote(cast_term(), 2, k + 1)
    body = App(App(lifted_cast, App(t_clock, Bang(Var("w")))),
               App(f, Bang(Var("w"))))
    return BangLam("w", STR, body)
