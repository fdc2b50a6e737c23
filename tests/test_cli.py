import json
import random
import time

import pytest

import ealc.extract
from ealc.cli import main
from ealc import (
    STR, App, Bang, BangLam, InputError, ResourceLimit, Unsupported, alpha_eq,
    bool_term, cast_term, church_string, compile_dfa, dfa_from_json,
    dfa_to_json, parse_term, print_term, print_type, regex_to_dfa, scott_string,
)

from ealc.reduction import trace

from corpus import CONTAINS_11, DIV3, PARITY, REDUCIBLE, const_decider
from make_cli_golden import GOLDEN, invocations, transcript


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture
def parity_term(tmp_path):
    return write(tmp_path / "parity.eal", print_term(compile_dfa(PARITY)) + "\n")


def test_check_ok(parity_term, capsys):
    assert main(["check", parity_term]) == 0
    out = capsys.readouterr().out.strip()
    assert out.startswith("(forall a.")


def test_check_with_ascription(parity_term):
    assert main(["check", parity_term, "--type", "Str -o !Bool"]) == 0
    assert main(["check", parity_term, "--type", "Str -o Bool"]) == 1


def test_check_parse_error(tmp_path, capsys):
    f = write(tmp_path / "bad.eal", "(x")
    assert main(["check", f]) == 1
    assert "error" in capsys.readouterr().err


def test_check_mode_gate(tmp_path):
    f = write(tmp_path / "scott.eal", r"\x:StrS. x")
    assert main(["check", f]) == 1
    assert main(["check", "--mode", "mueal", f]) == 0


def test_norm(tmp_path, capsys):
    f = write(tmp_path / "t.eal", r"(\x:Bool. x) (/\a. \x:a. \y:a. x)")
    assert main(["norm", f]) == 0
    out = capsys.readouterr().out
    assert alpha_eq(parse_term(out), parse_term(r"/\a. \x:a. \y:a. x"))


def _shown_steps(term):
    """What `eal norm --show-steps` prints for term: the paths trace
    contracts, then the normal form."""
    lines = []
    for n, (term, path) in enumerate(trace(term), 1):
        lines.append("-- step %d: /%s\n" % (n, ".".join(str(i) for i in path)))
    return "".join(lines) + print_term(term) + "\n"


def test_norm_show_steps(tmp_path, capsys):
    sources = [r"(\x:Bool. x) ((\y:Bool. y) z)"]
    sources += [print_term(term) for _, term, _ in REDUCIBLE]
    for text in sources:
        f = write(tmp_path / "t.eal", text + "\n")
        assert main(["norm", f, "--show-steps"]) == 0
        assert capsys.readouterr() == (_shown_steps(parse_term(text)), ""), text


def test_norm_show_steps_fuel_exhausted(tmp_path, capsys):
    # no step is printed when the normal form is not reached
    f = write(tmp_path / "omega.eal", r"(\x. x x) (\x. x x)")
    assert main(["norm", f, "--show-steps", "--fuel", "50"]) == 3
    assert capsys.readouterr() == (
        "", "resource limit: no normal form after 50 reduction steps\n")


def test_norm_show_steps_is_linear(tmp_path, capsys):
    # the steps are read off the engine's frames, not rebuilt from the root
    w = "".join(random.Random(200).choice("01") for _ in range(200))
    f = write(tmp_path / "div3.eal",
              print_term(App(compile_dfa(DIV3), church_string(w))) + "\n")
    t0 = time.perf_counter()
    assert main(["norm", f, "--show-steps"]) == 0
    seconds = time.perf_counter() - t0
    out = capsys.readouterr().out
    assert out.count("-- step ") > 1000
    assert seconds < 1.0, seconds


def test_norm_reads_back_a_long_encoded_string(tmp_path, capsys):
    w = "0110" * 2500
    assert main(["encode", "--string", w, "-o", str(tmp_path / "w.eal")]) == 0
    assert main(["norm", str(tmp_path / "w.eal")]) == 0
    assert capsys.readouterr() == (print_term(church_string(w)) + "\n", "")


def test_norm_fuel(tmp_path, capsys):
    f = write(tmp_path / "omega.eal", r"(\x. x x) (\x. x x)")
    assert main(["norm", f, "--fuel", "50"]) == 3


def test_encode_and_check_roundtrip(tmp_path, capsys):
    assert main(["encode", "--string", "0110"]) == 0
    text = capsys.readouterr().out
    assert alpha_eq(parse_term(text), church_string("0110"))
    assert main(["encode", "--nat", "3"]) == 0
    capsys.readouterr()
    assert main(["encode", "--scott", "01"]) == 0
    capsys.readouterr()
    assert main(["encode", "--cast"]) == 0
    assert alpha_eq(parse_term(capsys.readouterr().out), cast_term())


def test_cast_subcommand_checks(tmp_path):
    out = tmp_path / "cast.eal"
    assert main(["cast", "-o", str(out)]) == 0
    assert main(["check", "--mode", "mueal", str(out),
                 "--type", "Nat -o !StrS -o Str"]) == 0
    via_encode = tmp_path / "encode-cast.eal"
    assert main(["encode", "--cast", "-o", str(via_encode)]) == 0
    assert out.read_bytes() == via_encode.read_bytes()


def test_promote(tmp_path, capsys):
    f = write(tmp_path / "id.eal", r"\x:Bool. x")
    assert main(["promote", f, "--arity", "1", "--levels", "2"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("\\!x1")


@pytest.mark.parametrize("fuel", ["0", "-3"])
@pytest.mark.parametrize("source", [r"(\x:Bool. x) (/\a. \x:a. \y:a. x)",
                                    r"/\a. \x:a. \y:a. x"],
                         ids=["reducible", "normal"])
@pytest.mark.parametrize("steps", [[], ["--show-steps"]], ids=["nf", "steps"])
def test_norm_fuel_must_be_positive(tmp_path, capsys, fuel, source, steps):
    # one check in the engine, whichever view of it the command runs
    f = write(tmp_path / "t.eal", source)
    assert main(["norm", f, "--fuel", fuel] + steps) == 1
    assert capsys.readouterr() == ("", "error: fuel must be positive\n")


@pytest.mark.parametrize("argv", [
    ["verify", "{term}", "--dfa", "{dfa}", "--max-len", "-1"],
    ["extract", "{term}", "--method", "lstar", "--max-len", "-2"],
    ["extract", "{term}", "--method", "lstar", "--verify", "-1"],
], ids=["verify-max-len", "extract-max-len", "extract-verify"])
def test_negative_length_bound_is_an_input_error(tmp_path, capsys, argv):
    # contains-11 and parity disagree on "", so no bound below 0 may pass
    term = write(tmp_path / "c11.eal", print_term(compile_dfa(CONTAINS_11)) + "\n")
    d = write(tmp_path / "parity.json", dfa_to_json(PARITY))
    out = tmp_path / "out.json"
    argv = [a.format(term=term, dfa=d) for a in argv]
    if argv[0] == "extract":
        argv += ["-o", str(out)]
    assert main(argv) == 1
    std = capsys.readouterr()
    assert std.out == ""
    assert std.err.startswith("error: length bound must be non-negative")
    assert not out.exists()


def test_compile_regex_extract_verify(tmp_path):
    term_file = str(tmp_path / "odd1s.eal")
    json_file = str(tmp_path / "out.json")
    assert main(["compile", "--regex", "0*10*(10*10*)*", "-o", term_file]) == 0
    assert main(["extract", term_file, "--method", "lstar",
                 "--max-len", "8", "-o", json_file]) == 0
    got = dfa_from_json(open(json_file).read())
    assert len(got.states) == 2
    for w in ["", "1", "10", "11"]:
        assert got.run(w) == (w.count("1") % 2 == 1)
    assert main(["verify", term_file, "--dfa", json_file, "--max-len", "7"]) == 0


def test_compile_dfa_and_monoid_files(tmp_path, capsys):
    dfa_file = write(tmp_path / "d.json", dfa_to_json(CONTAINS_11))
    assert main(["compile", "--dfa", dfa_file]) == 0
    capsys.readouterr()
    monoid_file = write(tmp_path / "m.json", json.dumps(
        {"size": 2, "table": [[1, 2], [2, 1]], "gen0": 1, "gen1": 2,
         "accept": [1]}))
    assert main(["compile", "--monoid", monoid_file]) == 0


@pytest.mark.parametrize("text, states, code",
                         [("1" * 1000, 1002, 3), ("1*" * 1000, 2, 0), ("(0|1)" * 1000, 1002, 3)],
                         ids=["1^1000", "(1*)^1000", "(0|1)^1000"])
def test_compile_long_regexes(monkeypatch, capsys, text, states, code):
    # regex_to_dfa takes a thousand factors; a DFA whose transition monoid
    # is past the budget stops before the monoid's table is built
    built = []

    def spy(regex):
        built.append(regex_to_dfa(regex))
        return built[-1]
    monkeypatch.setattr("ealc.cli.regex_to_dfa", spy)
    start = time.perf_counter()
    assert main(["compile", "--regex", text]) == code
    assert time.perf_counter() - start < 5
    assert [len(d.states) for d in built] == [states]
    out, err = capsys.readouterr()
    if code == 0:
        assert main(["compile", "--regex", "1*"]) == 0
        assert capsys.readouterr().out == out
    else:
        assert (out, err) == (
            "", "resource limit: transition monoid has over 512 elements, budget is 512\n")


def test_compile_monoid_past_the_budget(tmp_path, capsys):
    k = 513  # Z_513, a valid monoid one element past the budget
    monoid_file = write(tmp_path / "z513.json", json.dumps(
        {"size": k, "table": [[(i + j) % k + 1 for j in range(k)] for i in range(k)],
         "gen0": 1, "gen1": 2, "accept": [1]}))
    start = time.perf_counter()
    assert main(["compile", "--monoid", monoid_file]) == 3
    assert time.perf_counter() - start < 5
    assert capsys.readouterr().err == \
        "resource limit: monoid has 513 elements, budget is 512\n"


def test_verify_mismatch_exit_code(tmp_path, parity_term):
    wrong = write(tmp_path / "wrong.json", dfa_to_json(CONTAINS_11))
    assert main(["verify", parity_term, "--dfa", wrong, "--max-len", "6"]) == 4


def test_extract_verify_mismatch_exit_code(tmp_path, capsys):
    # L* with no words to test guesses a two-state automaton for div3; the
    # re-check finds the mismatch, exits 4 and still writes the guess
    f = write(tmp_path / "div3.eal", print_term(compile_dfa(DIV3)) + "\n")
    out = tmp_path / "guess.json"
    assert main(["extract", f, "--method", "lstar", "--max-len", "0",
                 "--verify", "3", "-o", str(out)]) == 4
    assert capsys.readouterr() == ("", "1 mismatch(es) among 15 words of length <= 3:\n"
                                       "  '101': term False, automaton True\n")
    guess = dfa_from_json(out.read_text(encoding="utf-8"))
    assert len(guess.states) == 2 and guess.run("101")


def test_extract_semantic_cap_exit_code(tmp_path, parity_term, capsys):
    lifted = str(tmp_path / "lifted.eal")
    assert main(["promote", parity_term, "--arity", "1", "--levels", "1",
                 "-o", lifted]) == 0
    rc = main(["extract", lifted, "--method", "semantic",
               "--forall-policy", "base", "-o", str(tmp_path / "x.json")])
    assert rc == 3


def test_extract_unsupported_shape(tmp_path):
    f = write(tmp_path / "b.eal", r"/\a. \x:a. \y:a. x")
    rc = main(["extract", f, "--method", "lstar",
               "-o", str(tmp_path / "x.json")])
    assert rc == 2


def test_truncate(tmp_path, capsys, parity_term):
    assert main(["truncate", parity_term]) == 0
    out = capsys.readouterr().out
    assert "-- type:" in out
    parse_term(out)  # the emitted text reparses (comment included)


def test_byte_determinism(tmp_path, parity_term):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    for target in (a, b):
        assert main(["extract", parity_term, "--method", "lstar",
                     "--max-len", "6", "--seed", "0", "-o", target]) == 0
    assert open(a, "rb").read() == open(b, "rb").read()


def test_cli_is_thin_wrapper(tmp_path, parity_term, capsys):
    # the command output equals the corresponding library call's output
    from ealc import extract_lstar, print_term
    json_file = str(tmp_path / "d.json")
    assert main(["extract", parity_term, "--method", "lstar",
                 "--max-len", "6", "--seed", "0", "-o", json_file]) == 0
    lib = extract_lstar(compile_dfa(PARITY), max_len=6, seed=0)
    assert open(json_file).read() == dfa_to_json(lib)

    assert main(["compile", "--dfa",
                 write(tmp_path / "p.json", dfa_to_json(PARITY))]) == 0
    assert capsys.readouterr().out == print_term(compile_dfa(PARITY)) + "\n"


MALFORMED_DFA = ('{"alphabet": %s, "states": %s, "start": "a", "accept": %s, '
                 '"delta": {"a": %s, "b": {"0": "b", "1": "b"}}}')
MALFORMED_MONOID = ('{"size": 2, "table": [[1, 2], [2, 1]], "gen0": %s, '
                    '"gen1": 2, "accept": [1]}')


@pytest.mark.parametrize("command", [["compile", "--dfa"],
                                     ["compile", "--monoid"],
                                     ["verify", "TERM", "--dfa"]],
                         ids=["compile-dfa", "compile-monoid", "verify"])
@pytest.mark.parametrize("text", [
    '{"alphabet": ["0", "1"]}', "[1, 2]", '{"size": 2}',
    # strings and pair lists where lists and objects are meant
    MALFORMED_DFA % ('"01"', '["a", "b"]', '["b"]', '{"0": "a", "1": "b"}'),
    MALFORMED_DFA % ('["0", "1"]', '"ab"', '["b"]', '{"0": "a", "1": "b"}'),
    MALFORMED_DFA % ('["0", "1"]', '["a", "b"]', '"b"', '{"0": "a", "1": "b"}'),
    MALFORMED_DFA % ('["0", "1"]', '["a", "b"]', '["b"]',
                     '[["0", "a"], ["1", "b"]]'),
    # a bool or a float where an int is meant
    MALFORMED_MONOID % "true", MALFORMED_MONOID % "1.0",
], ids=["alphabet-only", "list", "size-only", "string-alphabet",
        "string-states", "string-accept", "list-row", "bool-gen0",
        "float-gen0"])
def test_malformed_automaton_json(tmp_path, parity_term, capsys, command, text):
    f = write(tmp_path / "bad.json", text)
    argv = [parity_term if a == "TERM" else a for a in command] + [f]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_recursion_error_is_a_resource_limit(monkeypatch, capsys):
    # CPython's suffix names the kind of call that overflowed; the CLI's
    # message does not depend on it
    for text in ("maximum recursion depth exceeded",
                 "maximum recursion depth exceeded while calling a Python object",
                 "maximum recursion depth exceeded in comparison"):
        def deep(term):
            raise RecursionError(text)
        monkeypatch.setattr("ealc.cli.print_term", deep)
        assert main(["encode", "--nat", "1"]) == 3
        assert capsys.readouterr().err == \
            "resource limit: maximum recursion depth exceeded\n"


@pytest.mark.parametrize("base, code, prefix", [
    (InputError, 1, "error"), (Unsupported, 2, "unsupported"),
    (ResourceLimit, 3, "resource limit")])
def test_exit_code_follows_the_error_base(monkeypatch, capsys, base, code, prefix):
    # an error class the CLI has never seen exits with its base's code
    class NewError(base):
        pass

    def fail(term):
        raise NewError("boom")
    monkeypatch.setattr("ealc.cli.print_term", fail)
    assert main(["encode", "--nat", "1"]) == code
    assert capsys.readouterr().err == "%s: boom\n" % prefix


def test_memory_error_is_a_resource_limit(monkeypatch, capsys):
    def big(term):
        raise MemoryError()
    monkeypatch.setattr("ealc.cli.print_term", big)
    assert main(["encode", "--nat", "1"]) == 3
    assert capsys.readouterr().err == "resource limit: out of memory\n"


@pytest.mark.parametrize("method", ["lstar", "semantic"])
def test_extract_verify_builds_one_oracle(tmp_path, monkeypatch, method):
    built = []
    oracle = ealc.extract.membership_oracle

    def counted(t, *args):
        built.append(t)
        return oracle(t, *args)
    monkeypatch.setattr("ealc.extract.membership_oracle", counted)
    f = write(tmp_path / "const.eal", print_term(const_decider(True)) + "\n")
    assert main(["extract", f, "--method", method, "--verify", "4",
                 "-o", str(tmp_path / "x.json")]) == 0
    assert len(built) == 1


def test_long_word_encodes(capsys):
    # the printer walks the term on an explicit stack, so no word length
    # meets the recursion limit
    w = "01" * 5000
    assert main(["encode", "--string", w]) == 0
    assert capsys.readouterr().out == print_term(church_string(w)) + "\n"


def test_long_scott_word_encodes(capsys):
    # scott_string builds the term in a loop, one letter at a time
    w = "01" * 5000
    assert main(["encode", "--scott", w]) == 0
    assert capsys.readouterr().out == print_term(scott_string(w)) + "\n"


def test_negative_verify_bound_fails_before_extraction(tmp_path, monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("extraction ran before the bound was checked")
    monkeypatch.setattr("ealc.cli.extract_lstar", never)
    monkeypatch.setattr("ealc.cli.extract_semantic", never)
    f = write(tmp_path / "c11.eal", print_term(compile_dfa(CONTAINS_11)) + "\n")
    for method in ("lstar", "semantic"):
        assert main(["extract", f, "--method", method, "--verify", "-1"]) == 1
        std = capsys.readouterr()
        assert std.out == ""
        assert std.err == "error: length bound must be non-negative, got -1\n"


@pytest.mark.parametrize("cap", ["0", "-1"])
def test_cap_below_one_is_an_input_error(tmp_path, parity_term, capsys, cap):
    # parity's string variable occurs once; the constant decider's not at all
    const = write(tmp_path / "const.eal",
                  print_term(BangLam("s", STR, Bang(bool_term(True)))) + "\n")
    out = tmp_path / "out.json"
    for f in (parity_term, const):
        assert main(["extract", f, "--method", "semantic", "--forall-policy",
                     "base", "--cap", cap, "-o", str(out)]) == 1
        std = capsys.readouterr()
        assert std.out == ""
        assert std.err == "error: cell cap must be >= 1, got %s\n" % cap
        assert not out.exists()


def test_version(capsys):
    with pytest.raises(SystemExit) as e:
        main(["--version"])
    assert e.value.code == 0


def test_long_encoded_string_checks(tmp_path, capsys):
    # the checker runs on an explicit stack, so it reads what encode writes
    w = "0110" * 2500
    assert main(["encode", "--string", w, "-o", str(tmp_path / "w.eal")]) == 0
    assert main(["check", str(tmp_path / "w.eal")]) == 0
    assert capsys.readouterr() == (print_type(STR) + "\n", "")


def test_deep_binder_nest_checks(tmp_path, capsys):
    # ... and the type printer walks the arrow chain of its type in a loop
    n = 10 ** 4
    f = write(tmp_path / "nest.eal", "".join(r"\x%d:a. " % i for i in range(n)) + "x0\n")
    assert main(["check", f]) == 0
    assert capsys.readouterr() == ("a -o " * n + "a\n", "")


CHAIN = "a -o " * 10 ** 4 + "a"


def test_deep_arrow_chain_checks_and_truncates(tmp_path, capsys):
    # types go through the same explicit-stack walks as terms: an argument
    # type is compared, and a type printed and truncated, at any depth
    f = write(tmp_path / "apply.eal", r"\f:(%s) -o a. \x:%s. f x" % (CHAIN, CHAIN) + "\n")
    assert main(["check", f]) == 0
    assert capsys.readouterr() == ("((%s) -o a) -o (%s) -o a\n" % (CHAIN, CHAIN), "")
    f = write(tmp_path / "id.eal", r"\x:%s. x" % CHAIN + "\n")
    assert main(["truncate", f]) == 0
    assert capsys.readouterr() == (
        "\\x:(%s). x\n-- type: (%s) -o %s\n" % (CHAIN, CHAIN, CHAIN), "")


def test_deep_bang_annotation_is_a_class_violation(tmp_path, capsys):
    bangs = "!" * 10 ** 4 + "a"
    f = write(tmp_path / "bangs.eal", r"\x:%s. x" % bangs + "\n")
    assert main(["check", f]) == 1
    assert capsys.readouterr() == (
        "", "/: class-violation: linear abstraction over non-linear type %s\n" % bangs)


def test_usage_text_does_not_depend_on_the_terminal(monkeypatch, capsys):
    errors = []
    for columns in ("40", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        with pytest.raises(SystemExit) as e:
            main(["extract", "x.eal"])
        assert e.value.code == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] and "usage: eal extract" in errors[0]


def test_cli_output_matches_the_golden_transcript(tmp_path):
    # every record of tests/cli_golden.json, replayed in process; a change
    # that means to alter one regenerates the file (make_cli_golden.py)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert len(golden["runs"]) >= 300
    t0 = time.perf_counter()
    now = transcript(str(tmp_path))
    seconds = time.perf_counter() - t0
    assert now["inputs"] == golden["inputs"]
    assert [r["argv"] for r in golden["runs"]] == invocations()
    changed = [old["argv"] for old, new in zip(golden["runs"], now["runs"]) if old != new]
    assert changed == []
    assert seconds < 10.0, seconds
