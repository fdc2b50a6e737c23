import json

import pytest

import ealc.extract
from ealc.cli import main
from ealc import (
    STR, Bang, BangLam, alpha_eq, bool_term, cast_term, church_string,
    compile_dfa, dfa_from_json, dfa_to_json, parse_term, print_term,
    scott_string,
)

from corpus import CONTAINS_11, PARITY, const_decider


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


def test_norm_show_steps(tmp_path, capsys):
    f = write(tmp_path / "t.eal", r"(\x:Bool. x) ((\y:Bool. y) z)")
    assert main(["norm", f, "--show-steps"]) == 0
    out = capsys.readouterr().out
    assert "-- step 1: /" in out


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


def test_verify_mismatch_exit_code(tmp_path, parity_term):
    wrong = write(tmp_path / "wrong.json", dfa_to_json(CONTAINS_11))
    assert main(["verify", parity_term, "--dfa", wrong, "--max-len", "6"]) == 4


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
