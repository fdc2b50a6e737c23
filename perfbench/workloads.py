"""The three workloads: what one op is, how its inputs are drawn from the
seed, and how its output is checked against perfbench.reference.

Each workload draws its inputs in blocks.  A block has a fixed make-up
(which recognizers, which item kinds, which strata of word length) and the
seed fills in the rest (the words, the regexes, the order), so that blocks
from different seeds cost about the same.  A run measures whole blocks.
"""

from __future__ import annotations

import collections
import json
import os
import random
import re
import subprocess
import sys
import types
from time import perf_counter

from . import reference as ref

# The reference automata, written out as in the test corpus.
DFAS = (
    ("parity", ["even", "odd"], "even", ["even"],
     {"even": {"0": "even", "1": "odd"}, "odd": {"0": "odd", "1": "even"}}),
    ("contains-11", ["q0", "q1", "q2"], "q0", ["q2"],
     {"q0": {"0": "q0", "1": "q1"}, "q1": {"0": "q0", "1": "q2"},
      "q2": {"0": "q2", "1": "q2"}}),
    ("div3", ["r0", "r1", "r2"], "r0", ["r0"],
     {"r0": {"0": "r0", "1": "r1"}, "r1": {"0": "r2", "1": "r0"},
      "r2": {"0": "r1", "1": "r2"}}),
    ("ends-with-0", ["s", "z", "o"], "s", ["z"],
     {"s": {"0": "z", "1": "o"}, "z": {"0": "z", "1": "o"},
      "o": {"0": "z", "1": "o"}}),
    ("all-strings", ["u"], "u", ["u"], {"u": {"0": "u", "1": "u"}}),
)

# One regex per reference language, for the CLI round trip.
REGEXES = {
    "parity": "(0*10*1)*0*",
    "contains-11": "(0|1)*11(0|1)*",
    "div3": "(0|11|10(1|00)*01)*",
    "ends-with-0": "(0|1)*0",
    "all-strings": "(0|1)*",
}

API_NAMES = (
    "church_string", "read_bool", "promote", "compile_dfa", "parse_term",
    "print_term", "typecheck_closed", "regex_to_dfa", "transition_monoid",
    "compile_monoid", "truncate_term", "phi_of_word", "extract_semantic",
)


def make_api():
    """The toolkit functions the benchmark calls, in one table, so that a
    traced pass can wrap the benchmark's own call sites."""
    import ealc
    return types.SimpleNamespace(**{n: getattr(ealc, n) for n in API_NAMES})


# The outcome of one op: status is "ok", "failed" (it raised) or "wrong".
Op = collections.namedtuple("Op", "index seconds status detail")


def timed(index, run, check, item) -> Op:
    """Run one op; time only `run`.  An exception is a failed op, reported
    by its type; a check that returns a message is a wrong answer."""
    t0 = perf_counter()
    try:
        out = run(item)
    except Exception as e:
        return Op(index, perf_counter() - t0, "failed", type(e).__name__)
    seconds = perf_counter() - t0
    wrong = check(item, out)
    return Op(index, seconds, "wrong" if wrong else "ok", wrong or "")


# ---------------------------------------------------------------------------
# decide

class Decide:
    """read_bool(App(t, w)) for the ten reference recognizers.

    A block has BLOCK ops, one per stratum of log |w| on [1, MAX_LEN]; |w|
    is the stratum's midpoint, so every block costs about the same and the
    seed draws the letters.  The recognizer of stratum i is ORDER[i % 10],
    so each recognizer sees the whole length range.  The order puts
    recognizers whose recursion ceiling is far above 192 on the strata
    around |w| = 132, and div3 and promoted contains-11 on the two top
    strata, which lie past their ceiling: those ops fail with
    RecursionError at seed and count as failed."""
    name = "decide"
    BLOCK = 40
    MAX_LEN = 192
    ORDER = ("parity", "contains-11", "ends-with-0+", "div3+", "all-strings",
             "parity+", "ends-with-0", "all-strings+", "div3", "contains-11+")

    def __init__(self, seed: int):
        import ealc
        self.api = make_api()
        self.Bang, self.App = ealc.Bang, ealc.App
        self.recs = {}
        for name, states, start, accept, delta in DFAS:
            term = self.api.compile_dfa(ealc.dfa(states, start, accept, delta))
            self.recs[name] = (term, False, ref.PREDICATES[name])
            lifted = self.api.promote(term, 1, 1, ealc.EAL)
            self.recs[name + "+"] = (lifted, True, ref.PREDICATES[name])
        self.seed = seed
        self.block(0)

    def block(self, b: int) -> list:
        rng = random.Random("decide/%d/%d" % (self.seed, b))
        items = []
        for i in range(self.BLOCK):
            n = round(self.MAX_LEN ** ((i + 0.5) / self.BLOCK))
            word = "".join(rng.choice("01") for _ in range(n))
            items.append((self.ORDER[i % 10], word))
        rng.shuffle(items)
        return items

    def traced(self, item):
        return True

    def run(self, item):
        term, banged, _ = self.recs[item[0]]
        arg = self.api.church_string(item[1])
        if banged:
            arg = self.Bang(arg)
        return self.api.read_bool(self.App(term, arg))

    def check(self, item, verdict):
        want = self.recs[item[0]][2](item[1])
        if verdict is not want:
            return "%s on %r: got %r, want %r" % (item[0], item[1], verdict, want)
        return None

    def describe(self):
        return {"op": "read_bool(App(t, w)), t one of ten recognizers "
                      "(compile_dfa and promote(.,1,1,EAL) of five DFAs)",
                "block": "%d ops, |w| = midpoints of %d strata of log |w| on "
                         "[1, %d], recognizer of stratum i = ORDER[i %% 10]"
                         % (self.BLOCK, self.BLOCK, self.MAX_LEN),
                "order": list(self.ORDER)}


# ---------------------------------------------------------------------------
# static

class Static:
    """The toolkit's non-normalizing half: regex compilation, printing,
    parsing, typechecking, truncation and promotion; the word-morphism
    tables; semantic extraction on the two constant deciders."""
    name = "static"
    FAMILY = range(5)           # (0|1)*1(0|1)^k, monoid sizes 3 .. 63
    RANDOM_REGEXES = 40         # seeded, 2 .. 4 letters: monoids of at most 30
    PHI = ((2, 5), (3, 5), (4, 5))  # (base, items), |w| = stratum midpoints on [0, 16]
    SEMANTIC = ((True, 2), (False, 2), (True, 3), (False, 3))
    PHI_SAMPLES = 64

    def __init__(self, seed: int):
        import ealc
        self.ealc = ealc
        self.api = make_api()
        self.seed = seed
        a = ealc.TyVar("a")
        unit = ealc.Forall("a", ealc.Arrow(a, a))
        self.base_type = a
        self.expect_compiled = ealc.Arrow(ealc.STR, ealc.BangType(ealc.BOOL))
        self.expect_truncated = ealc.Arrow(
            ealc.Forall("a", ealc.Arrow(unit, ealc.Arrow(unit, unit))), unit)
        self.expect_promoted = ealc.Arrow(
            ealc.BangType(ealc.BangType(ealc.STR)),
            ealc.BangType(ealc.BangType(ealc.BangType(ealc.BOOL))))
        self.deciders = {True: self._const_decider(True, True),
                         False: self._const_decider(False, False)}
        self.block(0)

    def _const_decider(self, value: bool, banged_input: bool):
        """Iterate the string at a free base type and ignore the result."""
        e = self.ealc
        a = e.TyVar("a")
        ida = e.Lam("v", a, e.Var("v"))
        subject = e.App(e.App(e.TyApp(e.Var("x"), a), e.Bang(ida)), e.Bang(ida))
        const = e.TyLam("a", e.Lam("x", a, e.Lam("y", a, e.Var("x" if value else "y"))))
        core = e.App(e.BangLam("d", e.Arrow(a, a), e.Bang(const)), subject)
        if banged_input:
            return e.BangLam("x", e.STR, e.Bang(core))
        return e.Lam("x", e.STR, core)

    def block(self, b: int) -> list:
        rng = random.Random("static/%d/%d" % (self.seed, b))
        items = [("regex", ref.family_regex(k)) for k in self.FAMILY]
        for i in range(self.RANDOM_REGEXES):
            items.append(("regex", ref.random_regex(rng, 2 + i % 3)))
        for base, count in self.PHI:
            for i in range(count):
                n = int(17 * (i + 0.5) / count)
                items.append(("phi", base, "".join(rng.choice("01") for _ in range(n))))
        items.extend(("semantic", v, base) for v, base in self.SEMANTIC)
        rng.shuffle(items)
        return items

    def traced(self, item):
        return True

    def run(self, item):
        api, eal = self.api, self.ealc.EAL
        if item[0] == "regex":
            d = api.regex_to_dfa(ref.render_eal(item[1]))
            monoid = api.transition_monoid(d)
            term = api.compile_monoid(monoid)
            parsed = api.parse_term(api.print_term(term))
            ty = api.typecheck_closed(eal, parsed)
            truncated_ty = api.typecheck_closed(eal, api.truncate_term(parsed))
            promoted_ty = api.typecheck_closed(eal, api.promote(parsed, 1, 2, eal))
            return d, monoid, term, parsed, ty, truncated_ty, promoted_ty
        if item[0] == "phi":
            return api.phi_of_word(self.base_type, item[2], item[1])
        try:
            return api.extract_semantic(self.deciders[item[1]], base=item[2],
                                        verify_len=None)
        except self.ealc.CapExceeded as e:
            return e

    def check(self, item, out):
        if item[0] == "regex":
            return self._check_regex(item[1], *out)
        if item[0] == "phi":
            return self._check_phi(item[1], item[2], out)
        value, base = item[1], item[2]
        if base >= 3:
            if not isinstance(out, self.ealc.CapExceeded):
                return "semantic base %d: expected CapExceeded, got %r" % (base, out)
            return None
        if isinstance(out, Exception) or len(out.states) != 1:
            return "semantic const %s: expected a 1-state DFA, got %r" % (value, out)
        bad = ref.dfa_disagreement(out.start, out.accept, out.delta,
                                   lambda w: value, 6)
        return None if bad is None else "semantic const %s disagrees on %r" % (value, bad)

    def _check_regex(self, node, d, monoid, term, parsed, ty, truncated_ty, promoted_ty):
        text = ref.render_eal(node)
        pattern = re.compile(ref.render_re(node))

        def pred(w):
            return pattern.fullmatch(w) is not None
        bad = ref.dfa_disagreement(d.start, d.accept, d.delta, pred, 8)
        if bad is not None:
            return "regex %s: DFA disagrees with re on %r" % (text, bad)
        bad = ref.monoid_disagreement(monoid, pred, 6)
        if bad is not None:
            return "regex %s: monoid disagrees with re on %r" % (text, bad)
        if not ref.term_alpha_eq(term, parsed):
            return "regex %s: print/parse round trip is not alpha-equal" % text
        for got, want, what in ((ty, self.expect_compiled, "term"),
                                (truncated_ty, self.expect_truncated, "truncation"),
                                (promoted_ty, self.expect_promoted, "promotion")):
            if not ref.type_alpha_eq(got, want):
                return "regex %s: %s has the wrong type" % (text, what)
        return None

    def _check_phi(self, base, w, table):
        count = base ** base
        if table.count != count or len(table.entries) != count * count:
            return "phi base %d: table has the wrong size" % base
        rng = random.Random("phi-check/%d/%s" % (base, w))
        pairs = [(0, 0), (count - 1, count - 1)] + [
            (rng.randrange(count), rng.randrange(count)) for _ in range(self.PHI_SAMPLES)]
        for i, j in pairs:
            if table.entries[i * count + j] != ref.phi_entry(w, i, j, base):
                return "phi base %d of %r: entry (%d, %d) is wrong" % (base, w, i, j)
        return None

    def describe(self):
        return {"op": "one item: regex -> DFA -> monoid -> term -> print -> parse "
                      "-> typecheck -> truncate + typecheck -> promote(.,1,2) + "
                      "typecheck; or phi_of_word; or extract_semantic",
                "block": "%d family regexes k=0..4, %d seeded regexes, phi %s, "
                         "semantic %s" % (len(self.FAMILY), self.RANDOM_REGEXES,
                                          list(self.PHI), list(self.SEMANTIC))}


# ---------------------------------------------------------------------------
# learn

EXIT_VERIFY = 4  # the CLI's documented code for an automaton/term mismatch


class Learn:
    """The CLI round trip per reference language: compile, extract --method
    lstar, verify.  One op is one command, run as its own `python -m
    ealc.cli` process, since that is what a CLI user waits for; a block is
    the five round trips, fifteen ops."""
    name = "learn"
    TIMEOUT = 60
    # The traced run traces two of the five languages, a one-round and a
    # two-round L* extraction, so that its three passes fit in 180 s.
    TRACED = ("all-strings", "contains-11")

    def __init__(self, seed: int, root: str, workdir: str):
        self.root, self.workdir = root, workdir
        self.seed = seed
        os.makedirs(workdir, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.trace_dir = None  # set for traced passes
        self.block(0)

    def block(self, b: int) -> list:
        rng = random.Random("learn/%d/%d" % (self.seed, b))
        names = list(REGEXES)
        rng.shuffle(names)
        return [(name, command, rng.randrange(2 ** 16))
                for name in names for command in ("compile", "extract", "verify")]

    def traced(self, item):
        return item[0] in self.TRACED

    def run(self, item):
        name, command, lstar_seed = item
        term, out = name + ".eal", name + ".json"
        argv = {
            "compile": ["compile", "--regex", REGEXES[name], "-o", term],
            "extract": ["extract", term, "--method", "lstar", "--max-len", "6",
                        "--verify", "6", "--seed", str(lstar_seed), "-o", out],
            "verify": ["verify", term, "--dfa", out, "--max-len", "8"],
        }[command]
        tag = "%s.%s" % (name, command)
        if self.trace_dir is None:
            cmd = [sys.executable, "-m", "ealc.cli"] + argv
        else:
            cmd = [sys.executable, os.path.join(self.root, "perfbench", "launcher.py"),
                   "--spans", os.path.join(self.trace_dir, tag + ".json"), "--op", tag,
                   "--"] + argv
        proc = subprocess.run(cmd, env=self.env, cwd=self.workdir, capture_output=True,
                              text=True, timeout=self.TIMEOUT)
        if proc.returncode not in (0, EXIT_VERIFY):
            raise CliFailed("%s exited %d: %s" % (tag, proc.returncode,
                                                  proc.stderr.strip()[-300:]))
        if proc.returncode == 0 and command == "extract":
            with open(os.path.join(self.workdir, out), encoding="utf-8") as fh:
                return proc.returncode, json.load(fh)
        return proc.returncode, proc.stdout

    def check(self, item, out):
        (name, command, _), (code, result) = item, out
        if code == EXIT_VERIFY:
            return "%s %s: the CLI reports an automaton/term mismatch" % (name, command)
        if command == "verify" and not result.startswith("ok:"):
            return "%s verify reported %r" % (name, result.strip())
        if command == "extract":
            bad = ref.dfa_disagreement(result["start"], set(result["accept"]),
                                       result["delta"], ref.PREDICATES[name], 10)
            if bad is not None:
                return "%s: extracted DFA disagrees with the language on %r" % (name, bad)
        return None

    def describe(self):
        return {"op": "one eal command: compile --regex R; extract --method lstar "
                      "--max-len 6 --verify 6; or verify --max-len 8",
                "block": "the five reference languages in seeded order, three "
                         "commands each, seeded L* --seed",
                "regexes": REGEXES, "traced": list(self.TRACED)}


class CliFailed(Exception):
    """A CLI command exited with an undocumented non-zero code."""


WORKLOADS = {"decide": Decide, "static": Static, "learn": Learn}
