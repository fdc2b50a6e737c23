import itertools
import random
import sys
import time

import pytest

from ealc import (
    EAL, STR, App, Arrow, Bang, BangLam, Context, DecodeError, FuelExhausted, Lam,
    TyApp, TyLam, TyVar, Var, alpha_eq, bool_term, church_nat, church_string,
    compile_dfa, decode_church_nat, decode_church_string, decode_scott_string,
    erase_annotations, is_normal, normalize, parse_term, print_term, promote,
    read_bool, scott_string, step, typecheck,
)
from ealc.reduction import DEFAULT_FUEL, _contract, trace
from ealc.syntax import Path, Term, children, replace_child

from corpus import REDUCIBLE, PARITY, REFERENCE_DFAS


def words(max_len):
    for n in range(max_len + 1):
        for tup in itertools.product("01", repeat=n):
            yield "".join(tup)


# -- single steps ---------------------------------------------------------------

def test_beta_step():
    t = parse_term(r"(\x:a. x) y")
    assert alpha_eq(step(t), Var("y"))


def test_bang_step():
    t = App(BangLam("x", None, Bang(Var("x"))), Bang(bool_term(True)))
    assert alpha_eq(step(t), Bang(bool_term(True)))


def test_bang_redex_needs_banged_argument():
    t = App(BangLam("x", None, Bang(Var("x"))), Var("y"))
    assert step(t) is None  # stuck, not a redex


def test_fold_unfold_cancel():
    t = parse_term("unfold (fold[StrS] u)")
    assert alpha_eq(step(t), Var("u"))


def test_type_beta():
    t = parse_term(r"(/\a. \x:a. x) [Bool]")
    out = step(t)
    assert alpha_eq(out, parse_term(r"\x:Bool. x"))


def test_leftmost_outermost_order():
    # both sides have redexes; the function side is contracted first
    t = parse_term(r"((\x:a. x) f) ((\y:a. y) z)")
    _, path = next(trace(t))
    assert path == (0,)


# -- normalization ----------------------------------------------------------------

def test_normalize_examples():
    t = parse_term(r"(\x:(a -o a). x) (\x:a. x)")
    assert alpha_eq(normalize(t), parse_term(r"\x:a. x"))
    w = church_string("01")
    assert alpha_eq(normalize(w), w) and is_normal(w)


def test_fuel_exhaustion():
    # self-application is expressible untyped; it loops forever
    omega = Lam("x", None, App(Var("x"), Var("x")))
    with pytest.raises(FuelExhausted):
        normalize(App(omega, omega), fuel=100)


# -- the reference stepper: a second, recursive strategy that rescans from
# the root at every step; the engine is checked against it --------------------

def redex_paths(t: Term) -> list:
    out = []
    def walk(s, path):
        if _contract(s) is not None:
            out.append(path)
        for i, c in enumerate(children(s)):
            walk(c, path + (i,))
    walk(t, ())
    return out


def contract_at(t: Term, path: Path) -> Term:
    if not path:
        r = _contract(t)
        if r is None:
            raise ValueError("no redex at %r" % (path,))
        return r
    i = path[0]
    return replace_child(t, i, contract_at(children(t)[i], path[1:]))


def normalize_random(t: Term, rng, fuel: int = DEFAULT_FUEL) -> Term:
    """Normalize contracting a randomly chosen redex each step."""
    for _ in range(fuel):
        paths = redex_paths(t)
        if not paths:
            return t
        t = contract_at(t, paths[rng.randrange(len(paths))])
    if not redex_paths(t):
        return t
    raise FuelExhausted(fuel)


def reference_trace(t):
    """The reference stepper: contract the first of the redex paths (they
    come in preorder) until none is left."""
    out = []
    while True:
        paths = redex_paths(t)
        if not paths:
            return out
        t = contract_at(t, paths[0])
        out.append((t, paths[0]))


def test_fuel_boundary():
    # normalize makes at most `fuel` contractions and raises exactly when a
    # redex is left; trace runs out at the same step
    for name, term, _ in REDUCIBLE:
        want = reference_trace(term)
        k = len(want)
        if k == 0:
            continue
        assert alpha_eq(normalize(term, k), want[-1][0]), name
        if k >= 2:
            with pytest.raises(FuelExhausted) as e:
                normalize(term, k - 1)
            assert e.value.steps == k - 1, name
            with pytest.raises(FuelExhausted) as e:
                for _ in trace(term, k - 1):
                    pass
            assert e.value.steps == k - 1, name


def test_trace_matches_reference_stepper():
    for name, term, _ in REDUCIBLE:
        got, want = list(trace(term)), reference_trace(term)
        assert [p for _, p in got] == [p for _, p in want], name
        assert all(alpha_eq(a, b) for (a, _), (b, _) in zip(got, want)), name


def test_normalize_matches_reference_stepper_on_recognizers():
    from ealc import EAL, compile_dfa, promote
    from corpus import REFERENCE_DFAS
    for name, d, _ in REFERENCE_DFAS:
        plain = compile_dfa(d)
        for term in (plain, promote(plain, 1, 1, EAL)):
            for w in words(6):
                t = App(term, church_string(w))
                want = reference_trace(t)
                assert alpha_eq(normalize(t, len(want)), want[-1][0]), (name, w)
                with pytest.raises(FuelExhausted):
                    normalize(t, len(want) - 1)


def test_parity_decider_normalizes_to_bang_true():
    from ealc import compile_dfa
    term = compile_dfa(PARITY)
    out = normalize(App(term, church_string("11")))
    match out:
        case Bang(b):
            assert read_bool(Bang(b))
        case _:
            raise AssertionError(print_term(out))


def test_confluence_on_corpus():
    rng = random.Random(20240809)
    for name, term, mode in REDUCIBLE:
        lo = normalize(term)
        rnd = normalize_random(term, rng)
        assert alpha_eq(lo, rnd), name


def test_erasure_commutes_with_normalization():
    for name, term, mode in REDUCIBLE:
        lhs = erase_annotations(normalize(term))
        rhs = normalize(erase_annotations(term))
        assert alpha_eq(lhs, rhs), name


def test_subject_reduction_along_traces():
    for name, term, mode in REDUCIBLE:
        ty = typecheck(mode, Context(), term)
        t = term
        for t, _ in trace(t, fuel=3000):
            ty2 = typecheck(mode, Context(), t)
            from ealc import type_alpha_eq
            assert type_alpha_eq(ty, ty2), name


def test_contract_at_agrees_with_step():
    for name, term, _ in REDUCIBLE[:6]:
        paths = redex_paths(term)
        assert paths, name
        leftmost = min(paths)
        assert alpha_eq(contract_at(term, leftmost), step(term)), name


# -- readers ----------------------------------------------------------------------

def test_read_bool():
    assert read_bool(Bang(bool_term(True))) is True
    assert read_bool(Bang(Bang(bool_term(False)))) is False
    with pytest.raises(DecodeError):
        read_bool(parse_term(r"\x:a. x"))


def test_decode_church_string_round_trip():
    for w in words(12):
        assert decode_church_string(church_string(w)) == w


def test_free_occurrence_depths_preserved_by_reduction():
    # residual occurrences of a free variable never change depth (they can
    # only be duplicated at the same depth, or dropped)
    from ealc.syntax import occurrences
    from ealc import compile_dfa
    from corpus import PARITY, OPEN_TYPED
    labeled = [term for _, term, _, _ in OPEN_TYPED]
    labeled.append(App(compile_dfa(PARITY), Var("w")))
    labeled.append(App(BangLam("x", None, Bang(App(Var("x"), Var("x")))),
                       Bang(App(Var("lbl"), Var("y")))))
    for term in labeled:
        for y in sorted(term.fvs):
            t = term
            while True:
                depths = {d for _, d in occurrences(t, y)}
                t2 = step(t)
                if t2 is None:
                    break
                depths2 = {d for _, d in occurrences(t2, y)}
                assert depths2 <= depths, (y, depths, depths2)
                t = t2


def test_readers_on_a_long_word():
    # Substitution walks a Church string's spine in a loop, so reading a
    # decider's answer on a word of 10^4 letters stays within the default
    # recursion limit.
    assert sys.getrecursionlimit() == 1000
    rng = random.Random(14)
    w = "".join(rng.choice("01") for _ in range(10 ** 4))
    div3 = next(d for name, d, _ in REFERENCE_DFAS if name == "div3")
    plain = compile_dfa(div3)
    lifted = promote(plain, 1, 1, EAL)
    for v in (w, w[:-1] + "0", w[:-1] + "1"):
        assert read_bool(App(plain, church_string(v))) is div3.run(v)
    assert read_bool(App(lifted, Bang(church_string(w)))) is div3.run(w)
    # \s. /\a. \!f0. \!f1. s [a] !f1 !f0 swaps the letters: normalizing it
    # renames f1 and substitutes for f0 and f1 along the whole spine
    a = TyVar("a")
    swap = Lam("s", STR, TyLam("a", BangLam("f0", Arrow(a, a), BangLam(
        "f1", Arrow(a, a),
        App(App(TyApp(Var("s"), a), Bang(Var("f1"))), Bang(Var("f0")))))))
    flipped = w.translate(str.maketrans("01", "10"))
    assert decode_church_string(App(swap, church_string(w))) == flipped


def test_decode_church_nat():
    for n in range(8):
        assert decode_church_nat(church_nat(n)) == n
    with pytest.raises(DecodeError):
        decode_church_nat(bool_term(True))


def test_decode_scott_string():
    for w in ["", "0", "1", "01", "10", "1100", "01011"]:
        assert decode_scott_string(scott_string(w)) == w
    # normalized first, and names resolve to the innermost binder
    assert decode_scott_string(App(Lam("s", None, Var("s")), scott_string("10"))) == "10"
    shadowed = parse_term(r"fold[StrS] (/\a. \f:StrS -o a. \f:StrS -o a. \x:a. f "
                          r"(fold[StrS] (/\a. \f0:StrS -o a. \f1:StrS -o a. \x:a. x)))")
    assert decode_scott_string(shadowed) == "1"
    for bad in (bool_term(True), church_string("01"), Var("s"),
                parse_term(r"fold[StrS] (/\a. \f0:StrS -o a. \f1:StrS -o a. \x:a. f0)"),
                parse_term(r"fold[StrS] (/\a. \f0:StrS -o a. \f1:StrS -o a. \f0:a. f0 "
                           r"(fold[StrS] (/\a. \f0:StrS -o a. \f1:StrS -o a. \x:a. x)))")):
        with pytest.raises(DecodeError):
            decode_scott_string(bad)


def test_long_scott_string_decodes_in_linear_time():
    # one normalization, then one step per level of the normal form
    w = "".join("01"[i * i % 7 % 2] for i in range(10 ** 4))
    t = scott_string(w)
    t0 = time.perf_counter()
    assert decode_scott_string(t) == w
    assert time.perf_counter() - t0 < 1.0


def test_decode_rejects_non_string():
    with pytest.raises(DecodeError):
        decode_church_string(bool_term(True))
