"""Shared corpus of typed terms used across the tests.

EAL_CLOSED / MUEAL_CLOSED are lists of (name, term, type) with the type
already verified by the type checker when the corpus is built, so tests can
rely on them.  REDUCIBLE collects closed well-typed terms that are not in
normal form, for subject-reduction and simulation properties.
"""

from __future__ import annotations

from ealc import (
    App, Arrow, Bang, BangLam, BangType, BOOL, Context, EAL, Fold, Lam,
    MUEAL, NAT, STR, STRS, Term, TyApp, TyLam, TyVar, Unfold, Var, bool_term,
    cast_term, church_nat, church_string, compile_dfa, dfa, monoid_elem,
    monoid_ty, pair, proj, promote, scott_string, typecheck,
)
from ealc.encode import _check_binary
from ealc.syntax import all_names, fold_term, fresh_name, path_of, preorder

# ---------------------------------------------------------------------------
# Reference automata (the five acceptance languages)

PARITY = dfa(["even", "odd"], "even", ["even"],
             {"even": {"0": "even", "1": "odd"},
              "odd": {"0": "odd", "1": "even"}})

CONTAINS_11 = dfa(["q0", "q1", "q2"], "q0", ["q2"],
                  {"q0": {"0": "q0", "1": "q1"},
                   "q1": {"0": "q0", "1": "q2"},
                   "q2": {"0": "q2", "1": "q2"}})

DIV3 = dfa(["r0", "r1", "r2"], "r0", ["r0"],
           {"r0": {"0": "r0", "1": "r1"},
            "r1": {"0": "r2", "1": "r0"},
            "r2": {"0": "r1", "1": "r2"}})

ENDS_WITH_0 = dfa(["s", "z", "o"], "s", ["z"],
                  {"s": {"0": "z", "1": "o"},
                   "z": {"0": "z", "1": "o"},
                   "o": {"0": "z", "1": "o"}})

ALL_STRINGS = dfa(["u"], "u", ["u"], {"u": {"0": "u", "1": "u"}})

REFERENCE_DFAS = [
    ("parity", PARITY, lambda w: w.count("1") % 2 == 0),
    ("contains-11", CONTAINS_11, lambda w: "11" in w),
    ("div3", DIV3, lambda w: int(w, 2) % 3 == 0 if w else True),
    ("ends-with-0", ENDS_WITH_0, lambda w: w.endswith("0")),
    ("all-strings", ALL_STRINGS, lambda w: True),
]


# ---------------------------------------------------------------------------
# Hand-written combinators

def identity(ty):
    return Lam("x", ty, Var("x"))


def not_term():
    a = TyVar("a")
    return Lam("b", BOOL, TyLam("a", Lam("x", a, Lam("y", a,
        App(App(TyApp(Var("b"), a), Var("y")), Var("x"))))))


def and_term():
    return Lam("p", BOOL, Lam("q", BOOL,
        App(App(TyApp(Var("p"), BOOL), Var("q")), bool_term(False))))


def or_term():
    return Lam("p", BOOL, Lam("q", BOOL,
        App(App(TyApp(Var("p"), BOOL), bool_term(True)), Var("q"))))


def theta_shared_double_use():
    """\\!x:Bool. !(and x x) — inside the bang the demoted variable is
    temporary and appears in both application premises (shared zone)."""
    return BangLam("x", BOOL, Bang(App(App(and_term(), Var("x")), Var("x"))))


def two_type_uses_decider():
    """Uses the string twice, at a free base type and at M2, inside a
    single bang: the two-occurrence decomposition example."""
    m2 = monoid_ty(2)
    c = TyVar("c")
    idc = Lam("v", c, Var("v"))
    at_m2 = App(App(TyApp(Var("x"), m2), Bang(identity(m2))),
                Bang(identity(m2)))
    at_c = App(App(TyApp(Var("x"), c), Bang(idc)), Bang(idc))
    inner = App(BangLam("e", Arrow(c, c), Bang(bool_term(True))), at_c)
    core = App(BangLam("d", Arrow(m2, m2), inner), at_m2)
    return BangLam("x", STR, Bang(core))


def const_decider(value: bool, banged_input: bool = True):
    """A decider that iterates the string at a free base type and ignores
    the result; its instantiation type is quantifier-free."""
    a = TyVar("a")
    ida = Lam("v", a, Var("v"))
    x = Var("x")
    subject = App(App(TyApp(x, a), Bang(ida)), Bang(ida))
    if banged_input:
        core = App(BangLam("d", Arrow(a, a), Bang(bool_term(value))), subject)
        return BangLam("x", STR, Bang(core))
    core = App(BangLam("d", Arrow(a, a), Bang(bool_term(value))), subject)
    return Lam("x", STR, core)


# ---------------------------------------------------------------------------
# Builders only the tests use: bang towers, string length and successor, and
# the Church-to-Scott identity that feeds assemble_fexptime

def bangs(t: Term, k: int) -> Term:
    for _ in range(k):
        t = Bang(t)
    return t


def scott_cons(c: str) -> Term:
    """\\s:StrS. fold[StrS](/\\a. \\f0. \\f1. \\x. fc s)  :  StrS -o StrS"""
    _check_binary(c)
    if len(c) != 1:
        raise ValueError("cons takes a single letter")
    a = TyVar("a")
    arm = Arrow(STRS, a)
    f = "f0" if c == "0" else "f1"
    inner = Fold(STRS, TyLam("a", Lam("f0", arm, Lam("f1", arm, Lam(
        "x", a, App(Var(f), Var("s")))))))
    return Lam("s", STRS, inner)


def string_length() -> Term:
    """\\w:Str. /\\a. \\!f. w [a] !f !f  :  Str -o Nat"""
    a = TyVar("a")
    return Lam("w", STR, TyLam("a", BangLam(
        "f", Arrow(a, a),
        App(App(TyApp(Var("w"), a), Bang(Var("f"))), Bang(Var("f"))))))


def nat_succ() -> Term:
    """\\n:Nat. /\\a. \\!f. let !g = n [a] !f in !(\\x. f (g x))  :  Nat -o Nat"""
    a = TyVar("a")
    inner = Bang(Lam("x", a, App(Var("f"), App(Var("g"), Var("x")))))
    return Lam("n", NAT, TyLam("a", BangLam(
        "f", Arrow(a, a),
        App(BangLam("g", Arrow(a, a), inner),
            App(TyApp(Var("n"), a), Bang(Var("f")))))))


def church_to_scott() -> Term:
    """\\w:Str. let !g = w [StrS] !cons0 !cons1 in !(g S(""))  :  Str -o !StrS"""
    body = App(BangLam("g", Arrow(STRS, STRS), Bang(App(Var("g"), scott_string("")))),
               App(App(TyApp(Var("w"), STRS), Bang(scott_cons("0"))),
                   Bang(scott_cons("1"))))
    return Lam("w", STR, body)


def equal_counts_decider() -> Term:
    """{w : #0(w) = #1(w)}, which no DFA decides, at Str -o !Bool in mueal
    mode.  The string is iterated at StrS, used as a stack of the surplus
    letter: a letter pops the other letter or pushes itself, and the word
    is accepted when the stack ends empty."""

    def cases(s: Term, ty, arm0: Term, arm1: Term, empty: Term) -> Term:
        return App(App(App(TyApp(Unfold(s), ty), arm0), arm1), empty)

    def step(c: str) -> Term:  # StrS -o StrS
        push = scott_cons(c)
        again = Lam("r", STRS, App(push, App(push, Var("r"))))
        pop = Lam("r", STRS, Var("r"))
        arm0, arm1 = (again, pop) if c == "0" else (pop, again)
        return Lam("s", STRS, cases(Var("s"), STRS, arm0, arm1,
                                    App(push, scott_string(""))))

    drop = Lam("r", STRS, bool_term(False))
    is_empty = Lam("s", STRS, cases(Var("s"), BOOL, drop, drop, bool_term(True)))
    stack = App(App(TyApp(Var("w"), STRS), Bang(step("0"))), Bang(step("1")))
    test = BangLam("g", Arrow(STRS, STRS),
                   Bang(App(is_empty, App(Var("g"), scott_string("")))))
    return Lam("w", STR, App(test, stack))


def length_plus_one_clock() -> Term:
    """\\!w:Str. !(succ (length w))  :  !Str -o !Nat"""
    body = Bang(App(nat_succ(), App(string_length(), Var("w"))))
    return BangLam("w", STR, body)


def identity_via_scott() -> Term:
    """The identity as a Scott-string producer: !Str -o !!StrS.

    Paired with a length clock this is the simplest input to
    assemble_fexptime."""
    return promote(church_to_scott(), 1, 1)


# ---------------------------------------------------------------------------
# Walks only the tests use.  Both are quadratic in the depth of the term:
# depth_map keeps one path per node, and split_occurrences gives every App
# above an occurrence a new set of free names.

def depth_map(t: Term) -> dict:
    """Map each subterm occurrence (by path) to its bang-nesting depth."""
    return {path_of(cell): depth for cell, depth, _ in preorder(t)}


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


# ---------------------------------------------------------------------------
# The corpus

def _build():
    eal_closed = []
    mueal_closed = []
    reducible = []

    def add(name, term, mode=EAL, reducible_too=False):
        ty = typecheck(mode, Context(), term)
        target = eal_closed if mode == EAL else mueal_closed
        target.append((name, term, ty))
        if reducible_too:
            reducible.append((name, term, mode))

    for w in ["", "0", "1", "00", "01", "10", "11", "010", "110", "0110",
              "1011", "0101", "111"]:
        add("church:%r" % w, church_string(w))
    for n in range(6):
        add("nat:%d" % n, church_nat(n))
    add("true", bool_term(True))
    add("false", bool_term(False))
    for (i, k) in [(1, 1), (1, 2), (2, 2), (2, 3), (3, 4)]:
        add("m%d/%d" % (i, k), monoid_elem(i, k))
    add("proj1", proj(1))
    add("proj2", proj(2))
    add("id-bool", identity(BOOL))
    add("not", not_term())
    add("and", and_term())
    add("or", or_term())
    add("pair-bools", pair(bool_term(True), BOOL, bool_term(False), BOOL))
    add("pair-ids", pair(identity(BOOL), Arrow(BOOL, BOOL),
                         bool_term(True), BOOL))
    add("theta-shared", theta_shared_double_use())
    add("length", string_length())
    add("succ", nat_succ())

    compiled = {}
    for name, d, _ in REFERENCE_DFAS:
        term = compile_dfa(d)
        compiled[name] = term
        add("compile:%s" % name, term)

    add("promote:not,1", promote(not_term(), 1, 1, EAL))
    add("promote:not,2", promote(not_term(), 1, 2, EAL))
    add("promote:and,1", promote(and_term(), 2, 1, EAL))
    add("promote:id-bool,3", promote(identity(BOOL), 1, 3, EAL))
    add("promote:compile-parity", promote(compiled["parity"], 1, 1, EAL))

    add("const-true-decider", const_decider(True))
    add("const-false-decider", const_decider(False, banged_input=False))
    add("two-type-uses", two_type_uses_decider())

    # reducible closed terms
    add("redex:id-id", App(identity(BOOL), bool_term(True)), EAL, True)
    add("redex:not-true", App(not_term(), bool_term(True)), EAL, True)
    add("redex:and", App(App(and_term(), bool_term(True)), bool_term(False)),
        EAL, True)
    add("redex:promote-not", App(promote(not_term(), 1, 1, EAL),
                                 Bang(bool_term(False))), EAL, True)
    for w in ["", "1", "01", "110"]:
        add("redex:parity:%r" % w, App(compiled["parity"], church_string(w)),
            EAL, True)
    for w in ["10", "011"]:
        add("redex:div3:%r" % w, App(compiled["div3"], church_string(w)),
            EAL, True)
    add("redex:contains11", App(compiled["contains-11"], church_string("0110")),
        EAL, True)
    add("redex:length", App(string_length(), church_string("0101")), EAL, True)
    add("redex:succ", App(nat_succ(), church_nat(3)), EAL, True)
    add("redex:proj1", App(TyApp(TyApp(proj(1), BOOL), BOOL),
                           pair(bool_term(True), BOOL, bool_term(False), BOOL)),
        EAL, True)
    add("redex:theta-shared", App(theta_shared_double_use(),
                                  Bang(bool_term(True))), EAL, True)
    add("redex:lifted-parity", App(promote(compiled["parity"], 1, 1, EAL),
                                   Bang(church_string("11"))), EAL, True)

    # mueal corpus
    for w in ["", "0", "1", "01", "101"]:
        add("scott:%r" % w, scott_string(w), MUEAL)
    add("cons0", scott_cons("0"), MUEAL)
    add("cons1", scott_cons("1"), MUEAL)
    add("cast", cast_term(), MUEAL)
    add("to-scott", church_to_scott(), MUEAL)
    add("id-via-scott", identity_via_scott(), MUEAL)
    add("clock", length_plus_one_clock(), MUEAL)
    add("equal-counts-decider", equal_counts_decider(), MUEAL)
    add("redex:cast-2-01", App(App(cast_term(), church_nat(2)),
                               Bang(scott_string("01"))), MUEAL, True)
    add("redex:to-scott", App(church_to_scott(), church_string("10")),
        MUEAL, True)
    add("redex:equal-counts", App(equal_counts_decider(), church_string("100")),
        MUEAL, True)

    return eal_closed, mueal_closed, reducible


EAL_CLOSED, MUEAL_CLOSED, REDUCIBLE = _build()

# open judgments: (context, term, type, mode)
_a = TyVar("a")
OPEN_TYPED = [
    (Context(gamma={"f": Arrow(_a, _a), "x": _a}), App(Var("f"), Var("x")),
     _a, EAL),
    (Context(theta={"f": Arrow(_a, _a), "x": _a}),
     App(Var("f"), App(Var("f"), Var("x"))), _a, EAL),
    (Context(delta={"b": BangType(BOOL)}), Bang(App(not_term(), Var("b"))),
     BangType(BOOL), EAL),
    (Context(gamma={"w": STR}), App(compile_dfa(PARITY), Var("w")),
     BangType(BOOL), EAL),
]
