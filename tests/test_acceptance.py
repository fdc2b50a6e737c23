"""The acceptance criteria, one test per criterion.

Each test both asserts (so pytest reports it) and records a verdict line
that the conftest prints at the end of the session.  Tolerances and bounds
are pinned here, not configurable.
"""

import functools
import time

import pytest

from ealc import (
    App, Arrow, Bang, BangType, BOOL, Context, EAL, Lam, MUEAL,
    STR, TyApp, TyVar, TypeCheckError, Var, alpha_eq, bool_term,
    cast_term, check_stratification, church_nat, church_string,
    compile_dfa, decode_church_string, dfa_equiv, eval_term, extract_lstar,
    extract_semantic, minimize, normalize, pair, parse_term, phi_entry,
    phi_of_word, print_term, proj, promote, read_bool, scott_string,
    truncate_term, truncate_type, type_alpha_eq, typecheck, typecheck_closed,
    verify_dfa,
)
from ealc.cli import main
from ealc.encode import assemble_fexptime
from ealc.extract import all_words
from ealc.reduction import trace
from ealc.semantics import EndoMonoid, POLICY_ERROR, interp_type

from conftest import record_criterion
from corpus import (
    EAL_CLOSED, MUEAL_CLOSED, REDUCIBLE, REFERENCE_DFAS, and_term, bangs,
    const_decider, depth_map, equal_counts_decider, identity,
    identity_via_scott, length_plus_one_clock, not_term, or_term,
)


def criterion(number, description):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            ok = False
            try:
                fn(*args, **kwargs)
                ok = True
            finally:
                record_criterion(number, description, ok)
        return wrapper
    return deco


@criterion(1, "compiler soundness on the five reference languages, |w| <= 10")
def test_criterion_1_compiler_soundness():
    suite_start = time.monotonic()
    for name, d, oracle in REFERENCE_DFAS:
        term = compile_dfa(d)
        count = 0
        for w in all_words(10):
            t0 = time.monotonic()
            got = read_bool(App(term, church_string(w)))
            assert time.monotonic() - t0 < 1.0, (name, w, "single run too slow")
            assert got == d.run(w) == oracle(w), (name, w)
            count += 1
        assert count == 2047
    assert time.monotonic() - suite_start < 300.0


@criterion(2, "learning extraction round-trips every reference DFA")
def test_criterion_2_extraction_round_trip():
    start = time.monotonic()
    for name, d, _ in REFERENCE_DFAS:
        lifted = promote(compile_dfa(d), 1, 1, EAL)
        learned = extract_lstar(lifted, max_len=12, seed=0)
        assert dfa_equiv(learned, minimize(d)), name
    assert time.monotonic() - start < 600.0


@criterion(3, "semantic extraction agrees with learning and verifies at L=10")
def test_criterion_3_semantic_method():
    # Two hand-written deciders whose instantiation types are
    # quantifier-free (a free type variable), so the frame over base 2 is
    # exact; see the decisions ledger for why non-constant deciders cannot
    # have quantifier-free instantiation types.
    deciders = [const_decider(True), const_decider(False, banged_input=False)]
    for t in deciders:
        d_sem = extract_semantic(t, base=2, policy=POLICY_ERROR, verify_len=10)
        d_ls = extract_lstar(t, max_len=10, seed=0)
        assert dfa_equiv(d_sem, d_ls)
        assert verify_dfa(d_sem, t, 10).ok


@criterion(4, "truncation preserves typing (100%) and simulates every step")
def test_criterion_4_truncation_meta_theory():
    assert len(EAL_CLOSED) >= 50
    for name, term, ty in EAL_CLOSED:
        out = truncate_term(term)
        got = typecheck(EAL, Context(), out)
        assert type_alpha_eq(got, truncate_type(ty)), name
    for name, term, mode in REDUCIBLE:
        if mode != EAL:
            continue
        t = term
        for t2, path in trace(term):
            tr, tr2 = truncate_term(t), truncate_term(t2)
            assert alpha_eq(normalize(tr), normalize(tr2)), name
            if depth_map(t)[path] >= 1:
                assert alpha_eq(tr, tr2), name
            t = t2


@criterion(5, "subject reduction, stratification, three rejected violations")
def test_criterion_5_subject_reduction_and_stratification():
    for name, term, ty in EAL_CLOSED:
        assert check_stratification(term) == [], name
    for name, term, ty in MUEAL_CLOSED:
        assert check_stratification(term) == [], name
    for name, term, mode in REDUCIBLE:
        ty = typecheck(mode, Context(), term)
        for t, _ in trace(term):
            assert type_alpha_eq(typecheck(mode, Context(), t), ty), name

    def kind_of(term):
        with pytest.raises(TypeCheckError) as e:
            typecheck(EAL, Context(), term)
        return e.value.kind

    assert kind_of(parse_term(r"\!x:Bool. x")) == "zone-misuse"
    assert kind_of(parse_term(r"\f:(a -o a -o a). \x:a. f x x")) == "nonlinear-use"
    assert kind_of(TyApp(parse_term(r"/\a. \x:a. x"), BangType(BOOL))) \
        == "forall-instantiation-not-linear"


@criterion(6, "every closed corpus term of type !Bool reads as a boolean")
def test_criterion_6_reading_property():
    bang_bool = BangType(BOOL)
    candidates = [(name, term) for name, term, ty in EAL_CLOSED + MUEAL_CLOSED
                  if type_alpha_eq(ty, bang_bool)]
    for name, d, _ in REFERENCE_DFAS:
        term = compile_dfa(d)
        for w in all_words(3):
            candidates.append(("%s@%r" % (name, w), App(term, church_string(w))))
    assert len(candidates) >= 75
    for name, t in candidates:
        nf = normalize(t)
        assert isinstance(nf, Bang), name
        assert read_bool(nf) in (True, False), name  # raises if not a boolean


@criterion(7, "cast computes the min(n, |w|) prefix on all |w| <= 6 cases")
def test_criterion_7_cast():
    c = cast_term()
    cases = 0
    for w in all_words(6):
        for n in range(len(w) + 3):
            out = App(App(c, church_nat(n)), Bang(scott_string(w)))
            assert decode_church_string(out) == w[:min(n, len(w))], (w, n)
            cases += 1
    assert cases == 1023  # the quantified set, enumerated exhaustively


@criterion(8, "k-fold promotion preserves applied normal forms, k in 1..3")
def test_criterion_8_functorial_promotion():
    # ten closed samples: (term, [arguments])
    samples = [
        (identity(BOOL), [bool_term(True)]),
        (not_term(), [bool_term(False)]),
        (and_term(), [bool_term(True), bool_term(False)]),
        (or_term(), [bool_term(False), bool_term(False)]),
        (Lam("b", BOOL, bool_term(True)), [bool_term(False)]),
        (identity(STR), [church_string("010")]),
        (Lam("p", BOOL, Lam("q", BOOL, Var("p"))),
         [bool_term(True), bool_term(True)]),
        (TyApp(TyApp(proj(1), BOOL), BOOL),
         [pair(bool_term(True), BOOL, bool_term(False), BOOL)]),
        (Lam("w", STR, TyApp(Var("w"), BOOL)), [church_string("1")]),
        (Lam("f", Arrow(BOOL, BOOL), App(Var("f"), bool_term(True))),
         [not_term()]),
    ]
    assert len(samples) == 10
    for t, args in samples:
        for k in (1, 2, 3):
            lifted = promote(t, len(args), k, EAL)
            lhs = lifted
            for a in args:
                lhs = App(lhs, bangs(a, k))
            rhs = t
            for a in args:
                rhs = App(rhs, a)
            assert alpha_eq(normalize(lhs), normalize(bangs(rhs, k))), \
                (print_term(t), k)


@criterion(9, "word-morphism laws and five iterate instances")
def test_criterion_9_phi_laws():
    a = TyVar("a")
    aa = Arrow(a, a)
    monoid = EndoMonoid(interp_type(a, base=2))
    empty = phi_of_word(a, "")
    assert all(v == monoid.identity for v in empty.entries)
    for u in all_words(4):
        for v in all_words(4):
            assert phi_of_word(a, u + v) == \
                phi_of_word(a, u).compose(phi_of_word(a, v), monoid), (u, v)

    f_pairs = [
        (parse_term(r"\g:(a -o a). g"), parse_term(r"\g:(a -o a). \x:a. x")),
        (parse_term(r"\g:(a -o a). \x:a. g x"), parse_term(r"\g:(a -o a). g")),
        (parse_term(r"\g:(a -o a). \x:a. g (g x)"),
         parse_term(r"\g:(a -o a). \x:a. x")),
        (parse_term(r"\g:(a -o a). \x:a. x"),
         parse_term(r"\g:(a -o a). \x:a. g (g (g x))")),
        (parse_term(r"\g:(a -o a). g"), parse_term(r"\g:(a -o a). g")),
    ]
    for f0, f1 in f_pairs:
        v0, v1 = eval_term(f0, base=2), eval_term(f1, base=2)
        for w in ["", "0", "1", "01", "100", "0110"]:
            out = normalize(App(App(TyApp(church_string(w), aa), Bang(f0)),
                                Bang(f1)))
            assert isinstance(out, Bang)
            assert phi_entry(aa, w, v0, v1) == eval_term(out.body, base=2), w


@criterion(10, "bounded-iteration assembly is the identity at !Str -o !Str")
def test_criterion_10_assembly():
    f = identity_via_scott()
    clock = length_plus_one_clock()
    asm = assemble_fexptime(f, clock, 0)
    want = Arrow(BangType(STR), BangType(STR))
    assert type_alpha_eq(typecheck_closed(MUEAL, asm), want)
    for w in all_words(6):
        out = normalize(App(asm, Bang(church_string(w))))
        assert decode_church_string(out) == w, w


@criterion(11, "type fixpoints escape regularity: {#0 = #1} beats EAL and L*")
def test_criterion_11_type_fixpoints_escape_regularity(tmp_path, capsys):
    # A muEAL decider of a language no DFA decides.  The EAL gate rejects
    # it, the finite frames cannot read it, and the DFA L* learns from it
    # up to length 6 fails verification up to length 10.
    t = equal_counts_decider()
    with pytest.raises(TypeCheckError) as e:
        typecheck_closed(EAL, t)
    assert e.value.kind == "mu-in-eal-mode"
    term = tmp_path / "equal-counts.eal"
    term.write_text(print_term(t) + "\n", encoding="utf-8")
    learned = tmp_path / "learned.json"
    assert main(["extract", str(term), "--method", "semantic"]) == 2
    assert "cannot truncate the fixpoint type" in capsys.readouterr().err
    assert main(["extract", str(term), "--method", "lstar", "--max-len", "6",
                 "-o", str(learned)]) == 0
    assert main(["verify", str(term), "--dfa", str(learned), "--max-len", "10"]) == 4
    assert "'1111100000': term True, automaton False" in capsys.readouterr().out
