"""Spans and counters recorded from outside the toolkit.

A Tracer replaces module attributes of ealc with wrappers that record a
span (name, start, end, parent, op id) around each call.  It wraps the
names a module calls through, never a recursive function's own global, so
no inner recursive call is wrapped.  Spans stay in memory and are written
out when the run ends; self times are computed from them afterwards.

The wrappers add stack frames.  On decide, the workload whose words reach
the recursion ceiling, the deepest stack holds at most WRAPPER_FRAMES of
them at once (the normalize wrapper and one substitution wrapper), so a
traced pass runs its ops that many frames shallower than an untraced pass
and tracing tips no word over the ceiling.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import perf_counter

WRAPPER_FRAMES = 2

# (module, attribute, span name): the names ealc's modules call through.
PROGRAM_SPANS = (
    ("ealc.cli", "parse_term", "parser.parse"),
    ("ealc.cli", "print_term", "syntax.print"),
    ("ealc.cli", "typecheck_closed", "typecheck.check"),
    ("ealc.cli", "regex_to_dfa", "regcompile.regex_to_dfa"),
    ("ealc.cli", "extract_lstar", "extract.lstar"),
    ("ealc.cli", "extract_semantic", "extract.semantic"),
    ("ealc.cli", "verify_dfa", "extract.verify"),
    ("ealc.extract", "typecheck", "typecheck.check"),
    ("ealc.extract", "church_string", "encode.church_string"),
    ("ealc.extract", "normalize", "reduction.normalize"),
    ("ealc.extract", "read_bool", "extract.read_bool"),
    ("ealc.reduction", "normalize", "reduction.normalize"),
    ("ealc.reduction", "subst_term", "syntax.subst"),
    ("ealc.reduction", "subst_type_in_term", "syntax.subst"),
    ("ealc.reduction", "erase_annotations", "syntax.erase"),
    ("ealc.regcompile", "transition_monoid", "regcompile.monoid"),
    ("ealc.regcompile", "compile_monoid", "regcompile.compile"),
)

# Entries of the benchmark's own call table (see workloads.make_api).
BENCH_SPANS = {
    "church_string": "encode.church_string",
    "promote": "encode.promote",
    "parse_term": "parser.parse",
    "print_term": "syntax.print",
    "typecheck_closed": "typecheck.check",
    "regex_to_dfa": "regcompile.regex_to_dfa",
    "transition_monoid": "regcompile.monoid",
    "compile_monoid": "regcompile.compile",
    "truncate_term": "truncate.truncate",
    "phi_of_word": "semantics.phi",
    "extract_semantic": "extract.semantic",
}

# Counts that must repeat exactly when the same inputs are traced twice.
EXACT_COUNTS = (
    "reduction.contractions", "syntax.subst_calls", "extract.queries",
    "extract.evaluations", "extract.lstar_rounds",
    "semantics.then_letter_calls", "regcompile.monoid_sizes",
)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id]
        self.stack = []
        self.counts = Counter()
        self.monoid_sizes = []
        self.reduced = []  # inputs of normalize, for counting contractions
        self.op = None
        self._eval_key = None
        self._evaluated = set()
        self._undo = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, fn, name, after=None, before=None):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, out)
            return out
        return wrapper

    def _replace(self, owner, attr, wrapper):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _after(self, name):
        if name == "parser.parse":
            return lambda args, out: self.counts.update({"parser.chars": len(args[0])})
        if name == "regcompile.monoid":
            return lambda args, out: self.monoid_sizes.append(out.size)
        if name == "extract.read_bool":
            return self._evaluated_one
        return None

    def _evaluated_one(self, args, out):
        self.counts["extract.evaluations"] += 1
        if self._eval_key in self._evaluated:
            self.counts["extract.reevaluations"] += 1
        self._evaluated.add(self._eval_key)

    def _oracle(self, fn):
        def membership_oracle(t, *args, **kwargs):
            query = fn(t, *args, **kwargs)

            def counted(w):
                self.counts["extract.queries"] += 1
                self._eval_key = (t, w)
                return query(w)
            return counted
        return membership_oracle

    def _rounds(self, fn):
        # extract_lstar runs one equivalence pass, hence one all_words
        # enumeration, per hypothesis.
        def all_words(*args, **kwargs):
            if self.stack and self.spans[self.stack[-1]][0] == "extract.lstar":
                self.counts["extract.lstar_rounds"] += 1
            return fn(*args, **kwargs)
        return all_words

    def _recording(self, fn):
        # Recorded before the call, so that inputs that raise are replayed too.
        return self._span(fn, "reduction.normalize", before=self.reduced.append)

    def install(self, api=None):
        """Wrap ealc's module attributes and, if given, the benchmark's
        call table."""
        import importlib
        for modname, attr, name in PROGRAM_SPANS:
            mod = importlib.import_module(modname)
            fn = getattr(mod, attr)
            if name == "reduction.normalize":
                wrapper = self._recording(fn)
            else:
                wrapper = self._span(fn, name, self._after(name))
            self._replace(mod, attr, wrapper)
        extract = importlib.import_module("ealc.extract")
        self._replace(extract, "membership_oracle",
                      self._oracle(extract.membership_oracle))
        self._replace(extract, "all_words", self._rounds(extract.all_words))
        semantics = importlib.import_module("ealc.semantics")
        self._replace(semantics.EndoPairTable, "then_letter",
                      self._span(semantics.EndoPairTable.then_letter,
                                 "semantics.then_letter"))
        if api is not None:
            for attr, name in BENCH_SPANS.items():
                self._replace(api, attr,
                              self._span(getattr(api, attr), name, self._after(name)))

    def uninstall(self):
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    # -- after the run -------------------------------------------------------

    def count_contractions(self):
        """Replay every recorded normalize input with the public `trace`,
        outside any span.  A replay that hits the recursion ceiling counts
        the contractions made before it."""
        from ealc.reduction import trace
        for args in self.reduced:
            n = 0
            try:
                for _ in trace(*args):
                    n += 1
            except RecursionError:
                self.counts["reduction.replay_recursion_failures"] += 1
            self.counts["reduction.contractions"] += n
        self.reduced = []

    def summary(self) -> dict:
        """Totals per span name: calls, inclusive and self seconds, plus the
        counters."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, incl, self_s = Counter(), defaultdict(float), defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            incl[name] += end - start
            self_s[name] += end - start - child[i]
        counts = dict(self.counts)
        counts["syntax.subst_calls"] = calls["syntax.subst"]
        counts["semantics.then_letter_calls"] = calls["semantics.then_letter"]
        counts["regcompile.monoid_sizes"] = list(self.monoid_sizes)
        return {"calls": dict(calls), "incl": dict(incl), "self": dict(self_s),
                "counts": counts}

    def dump(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "summary": self.summary()}, fh)


def merge(summaries) -> dict:
    """Add up several summaries (one per traced process)."""
    out = {"calls": Counter(), "incl": defaultdict(float),
           "self": defaultdict(float), "counts": Counter()}
    sizes = []
    for s in summaries:
        out["calls"].update(s["calls"])
        for key in ("incl", "self"):
            for name, v in s[key].items():
                out[key][name] += v
        counts = dict(s["counts"])
        sizes.extend(counts.pop("regcompile.monoid_sizes", []))
        out["counts"].update(counts)
    out["counts"]["regcompile.monoid_sizes"] = sizes
    return {k: dict(v) for k, v in out.items()}
