"""A transcript of `eal` invocations, so that byte-identical CLI output is
a test: test_cli.py replays it.

    PYTHONPATH=src python tests/make_cli_golden.py    # rewrite cli_golden.json

Every invocation runs in process through `ealc.cli.main`, in a directory
that first receives the input files of inputs().  A record keeps the argv,
the exit code, stdout, stderr and the -o file (None when none was
written); the directory's name is replaced by "{dir}" in all of them.  A
text over 4 KB is kept as its sha256 and length.  The inputs are recorded
the same way, so a change to the printer that writes them shows up too.
A change that alters a record regenerates the file and says which records
changed, and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock

from ealc import (
    App, Bang, BangLam, STR, bool_term, church_string, compile_dfa,
    dfa_to_json, print_term, transition_monoid,
)
from ealc.cli import main

from corpus import (
    EAL_CLOSED, MUEAL_CLOSED, REDUCIBLE, REFERENCE_DFAS, const_decider,
    equal_counts_decider, two_type_uses_decider,
)
from test_typecheck import ERROR_TEXT

GOLDEN = Path(__file__).with_name("cli_golden.json")
LIMIT = 4096

REGEXES = {"parity": "(0*10*1)*0*", "contains-11": "(0|1)*11(0|1)*",
           "div3": "(0|11|10(1|00)*01)*", "ends-with-0": "(0|1)*0",
           "all-strings": "(0|1)*"}
WORDS = ["", "1", "0110", "10011"]
COMMANDS = ("check", "norm", "encode", "cast", "promote", "compile", "truncate",
            "extract", "verify")

MALFORMED_DFA = ('{"alphabet": %s, "states": %s, "start": "a", "accept": %s, '
                 '"delta": {"a": %s, "b": {"0": "b", "1": "b"}}}')
MALFORMED_MONOID = ('{"size": 2, "table": [[1, 2], [2, 1]], "gen0": %s, '
                    '"gen1": 2, "accept": [1]}')
MALFORMED = [
    '{"alphabet": ["0", "1"]}', "[1, 2]", '{"size": 2}', "{",
    MALFORMED_DFA % ('"01"', '["a", "b"]', '["b"]', '{"0": "a", "1": "b"}'),
    MALFORMED_DFA % ('["0", "1"]', '"ab"', '["b"]', '{"0": "a", "1": "b"}'),
    MALFORMED_DFA % ('["0", "1"]', '["a", "b"]', '"b"', '{"0": "a", "1": "b"}'),
    MALFORMED_DFA % ('["0", "1"]', '["a", "b"]', '["b"]', '[["0", "a"], ["1", "b"]]'),
    MALFORMED_MONOID % "true", MALFORMED_MONOID % "1.0", MALFORMED_MONOID % "3",
]


def _term_file(t):
    return print_term(t) + "\n"


def _monoid_json(d):
    m = transition_monoid(d)
    return json.dumps({"size": m.size, "table": m.table, "gen0": m.gen0,
                       "gen1": m.gen1, "accept": sorted(m.accept)})


def inputs() -> dict:
    """File name -> text, written to the directory before the first run."""
    files = {}
    for name, d, _ in REFERENCE_DFAS:
        files[name + ".json"] = dfa_to_json(d)
        files[name + ".monoid.json"] = _monoid_json(d)
        for w in WORDS:
            files["%s-w%s.eal" % (name, w)] = _term_file(App(compile_dfa(d), church_string(w)))
    for i, (_, term, _) in enumerate(EAL_CLOSED):
        files["eal%d.eal" % i] = _term_file(term)
    for i, (_, term, _) in enumerate(MUEAL_CLOSED):
        files["mueal%d.eal" % i] = _term_file(term)
    for i, (_, _, src, _) in enumerate(ERROR_TEXT):
        files["error%d.eal" % i] = src
    for i, text in enumerate(MALFORMED):
        files["malformed%d.json" % i] = text
    files.update({
        "bad.eal": "(x",
        "scott.eal": r"\x:StrS. x",
        "omega.eal": r"(\x. x x) (\x. x x)",
        "reducible.eal": r"(\x:Bool. x) (/\a. \x:a. \y:a. x)",
        "normal.eal": r"/\a. \x:a. \y:a. x",
        "redex.eal": r"(\x:Bool. x) ((\y:Bool. y) z)",
        "id.eal": r"\x:Bool. x",
        "const-true.eal": _term_file(const_decider(True)),
        "const-false.eal": _term_file(const_decider(False, banged_input=False)),
        "const-bang.eal": _term_file(BangLam("s", STR, Bang(bool_term(True)))),
        "two-uses.eal": _term_file(two_type_uses_decider()),
        "equal-counts.eal": _term_file(equal_counts_decider()),
        "equal-counts-w.eal": _term_file(App(equal_counts_decider(), church_string("0110"))),
        "empty.eal": "",
    })
    return files


def invocations() -> list:
    """The argv of every run, in order; "{dir}/" names a file of the
    directory.  Later runs read the -o files of earlier ones."""
    runs = [["--version"], [], ["check"], ["nope"], ["check", "{dir}/missing.eal"],
            ["compile"], ["compile", "--regex", "1", "--dfa", "{dir}/parity.json"],
            ["extract", "{dir}/id.eal"], ["extract", "{dir}/id.eal", "--method", "bfs"]]
    for w in ["", "0", "1", "0110", "10011", "012"]:
        runs.append(["encode", "--string", w])
        runs.append(["encode", "--scott", w])
    for n in ["0", "1", "3", "-1"]:
        runs.append(["encode", "--nat", n])
    runs += [["encode", "--cast"], ["cast"], ["cast", "-o", "{dir}/cast.eal"],
             ["encode", "--string", "0110", "-o", "{dir}/w0110.eal"],
             ["check", "--mode", "mueal", "{dir}/cast.eal", "--type", "Nat -o !StrS -o Str"],
             ["check", "{dir}/cast.eal"], ["check", "{dir}/w0110.eal", "--type", "Str"],
             ["check", "{dir}/w0110.eal", "--type", "Str -o"]]
    for name, _, _ in REFERENCE_DFAS:
        f, other = "{dir}/%s" % name, "{dir}/parity" if name != "parity" else "{dir}/div3"
        runs += [
            ["compile", "--dfa", f + ".json", "-o", f + ".eal"],
            ["compile", "--dfa", f + ".json"],
            ["compile", "--monoid", f + ".monoid.json", "-o", f + ".m.eal"],
            ["compile", "--regex", REGEXES[name], "-o", f + ".r.eal"],
            ["check", f + ".eal"],
            ["check", f + ".m.eal", "--type", "Str -o !Bool"],
            ["check", f + ".r.eal", "--type", "Str -o Bool"],
            ["check", "--mode", "mueal", f + ".eal"],
            ["truncate", f + ".eal"],
            ["truncate", f + ".r.eal", "-o", f + ".t.eal"],
            ["check", f + ".t.eal"],
            ["promote", f + ".eal", "--arity", "1", "--levels", "1", "-o", f + ".p1.eal"],
            ["promote", f + ".eal", "--arity", "1", "--levels", "2"],
            ["promote", f + ".eal", "--arity", "2", "--levels", "1"],
            ["promote", f + ".eal", "--arity", "1", "--levels", "-1"],
            ["check", f + ".p1.eal", "--type", "!Str -o !!Bool"],
            ["truncate", f + ".p1.eal"],
            ["extract", f + ".eal", "--method", "lstar", "-o", f + ".lstar.json"],
            ["extract", f + ".r.eal", "--method", "lstar", "--max-len", "6",
             "--seed", "3", "--verify", "8"],
            ["extract", f + ".p1.eal", "--method", "lstar", "--max-len", "6"],
            ["extract", f + ".eal", "--method", "lstar", "--fuel", "3"],
            ["extract", f + ".eal", "--method", "semantic"],
            ["extract", f + ".eal", "--method", "semantic", "--forall-policy", "base",
             "-o", f + ".sem.json"],
            ["extract", f + ".m.eal", "--method", "semantic", "--forall-policy", "base",
             "--base", "3", "--verify", "6"],
            ["extract", f + ".eal", "--method", "semantic", "--forall-policy", "base",
             "--cap", "10"],
            ["extract", f + ".p1.eal", "--method", "semantic", "--forall-policy", "base"],
            ["verify", f + ".eal", "--dfa", f + ".lstar.json"],
            ["verify", f + ".r.eal", "--dfa", f + ".lstar.json", "--max-len", "7"],
            ["verify", f + ".eal", "--dfa", other + ".json", "--max-len", "6"],
            ["verify", f + ".p1.eal", "--dfa", f + ".json", "--max-len", "4"],
            ["verify", f + ".eal", "--dfa", f + ".json", "--max-len", "5", "--fuel", "2"],
            ["norm", f + ".eal"],
            ["norm", f + "-w0110.eal", "--show-steps"],
            ["norm", f + "-w10011.eal", "--fuel", "5"],
        ]
        runs += [["norm", "{dir}/%s-w%s.eal" % (name, w), "-o", "{dir}/nf.eal"] for w in WORDS]
    for i, _ in enumerate(EAL_CLOSED):
        runs.append(["check", "{dir}/eal%d.eal" % i])
        runs.append(["check", "--mode", "mueal", "{dir}/eal%d.eal" % i])
    for i, _ in enumerate(MUEAL_CLOSED):
        runs.append(["check", "--mode", "mueal", "{dir}/mueal%d.eal" % i])
        runs.append(["check", "{dir}/mueal%d.eal" % i])
    for i, (_, _, mode) in enumerate(REDUCIBLE):
        closed = EAL_CLOSED if mode == "eal" else MUEAL_CLOSED
        j = next(j for j, (_, t, _) in enumerate(closed) if t is REDUCIBLE[i][1])
        runs.append(["norm", "{dir}/%s%d.eal" % (mode, j)])
    for i, (mode, _, _, _) in enumerate(ERROR_TEXT):
        runs.append(["check", "--mode", mode, "{dir}/error%d.eal" % i])
    for i, _ in enumerate(MALFORMED):
        f = "{dir}/malformed%d.json" % i
        runs += [["compile", "--dfa", f], ["compile", "--monoid", f],
                 ["verify", "{dir}/parity.eal", "--dfa", f]]
    for source in ("reducible", "normal"):
        for fuel in ("0", "-3"):
            f = "{dir}/%s.eal" % source
            runs += [["norm", f, "--fuel", fuel], ["norm", f, "--fuel", fuel, "--show-steps"]]
    c11, parity = "{dir}/contains-11.eal", "{dir}/parity.eal"
    runs += [
        ["check", "{dir}/bad.eal"], ["norm", "{dir}/bad.eal"], ["check", "{dir}/empty.eal"],
        ["check", "{dir}/scott.eal"], ["check", "--mode", "mueal", "{dir}/scott.eal"],
        ["norm", "{dir}/omega.eal", "--fuel", "50"],
        ["norm", "{dir}/omega.eal", "--fuel", "50", "--show-steps"],
        ["norm", "{dir}/reducible.eal"], ["norm", "{dir}/redex.eal", "--show-steps"],
        ["promote", "{dir}/id.eal", "--arity", "1", "--levels", "2"],
        ["promote", "{dir}/id.eal", "--arity", "1", "--levels", "0"],
        ["promote", "{dir}/omega.eal", "--arity", "1", "--levels", "1"],
        ["verify", c11, "--dfa", "{dir}/parity.json", "--max-len", "-1"],
        ["extract", c11, "--method", "lstar", "--max-len", "-2", "-o", "{dir}/neg.json"],
        ["extract", c11, "--method", "lstar", "--verify", "-1", "-o", "{dir}/neg.json"],
        ["extract", c11, "--method", "semantic", "--verify", "-1"],
        ["extract", "{dir}/normal.eal", "--method", "lstar", "-o", "{dir}/x.json"],
        ["extract", "{dir}/id.eal", "--method", "semantic"],
        ["verify", "{dir}/normal.eal", "--dfa", "{dir}/parity.json"],
        ["truncate", "{dir}/normal.eal"], ["truncate", "{dir}/scott.eal"],
        ["truncate", "{dir}/cast.eal"],
    ]
    for cap in ("0", "-1"):
        for f in (parity, "{dir}/const-bang.eal"):
            runs.append(["extract", f, "--method", "semantic", "--forall-policy", "base",
                         "--cap", cap, "-o", "{dir}/out.json"])
    for f in ("const-true", "const-false", "const-bang", "two-uses"):
        f = "{dir}/%s.eal" % f
        runs += [["check", f], ["truncate", f],
                 ["extract", f, "--method", "lstar", "--verify", "4"],
                 ["extract", f, "--method", "semantic"],
                 ["extract", f, "--method", "semantic", "--base", "3", "--verify", "5"],
                 ["extract", f, "--method", "semantic", "--forall-policy", "base"],
                 ["verify", f, "--dfa", "{dir}/all-strings.json", "--max-len", "4"]]
    ec = "{dir}/equal-counts.eal"
    runs += [["check", ec], ["check", "--mode", "mueal", ec],
             ["norm", "{dir}/equal-counts-w.eal"],
             ["extract", ec, "--method", "lstar", "--max-len", "6"],
             ["extract", ec, "--method", "semantic"],
             ["verify", ec, "--dfa", "{dir}/parity.json", "--max-len", "6"]]
    # the help texts, whose layout argparse changes between Python versions
    runs += [["--help"]] + [[command, "--help"] for command in COMMANDS]
    return runs


def _text(text):
    data = text.encode("utf-8")
    if len(data) <= LIMIT:
        return text
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


def run(argv, where: str) -> dict:
    """One invocation's record; `where` is the directory "{dir}" names."""
    args = [a.replace("{dir}", where) for a in argv]
    out = args[args.index("-o") + 1] if "-o" in args else None
    if out is not None:
        Path(out).unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    # argparse wraps its usage text at the terminal's width
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
            mock.patch.dict(os.environ, COLUMNS="80"):
        try:
            code = main(args)
        except SystemExit as e:  # argparse's usage errors and --version
            code = e.code
    written = Path(out).read_text(encoding="utf-8") if out and Path(out).exists() else None
    return {"argv": argv, "exit": code,
            "stdout": _text(stdout.getvalue().replace(where, "{dir}")),
            "stderr": _text(stderr.getvalue().replace(where, "{dir}")),
            "output": None if written is None else _text(written.replace(where, "{dir}"))}


def transcript(where: str) -> dict:
    files = inputs()
    for name, text in files.items():
        (Path(where) / name).write_text(text, encoding="utf-8")
    return {"inputs": {name: _text(text) for name, text in sorted(files.items())},
            "runs": [run(argv, where) for argv in invocations()]}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as where:
        record = transcript(where)
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print("%d runs written to %s" % (len(record["runs"]), GOLDEN.name), file=sys.stderr)
