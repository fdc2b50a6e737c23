"""Seeded, stdlib-only benchmark of the ealc toolkit.

    python3 perfbench/run.py --workload decide|learn|static --seed N \
        --seconds S --trace 0|1

Run from the repository root.  Three workloads, each a closed loop with one
client and one worker process at a time:

  decide  read_bool(App(t, w)) on the ten reference recognizers, |w| up to
          192: the normalization loop under everything else.
  learn   compile -> extract --method lstar -> verify through the eal CLI,
          one process per command, for the five reference languages.
  static  regex -> DFA -> monoid -> term -> print -> parse -> typecheck ->
          truncate -> promote, word-morphism tables and semantic extraction:
          the half of the toolkit that does not normalize.

With --trace 0 the run prints the end-to-end metrics of BENCHMARK.json:
ops_per_s (correct ops per second of op time), op_ms_p50 and op_ms_p75
(smoothed percentiles of op latency, see P50_WINDOW; a failed op ranks as
+inf; learn has only five ops per block), setup_s (median over SETUP_REPS
fresh workers) and peak_rss_mb (the worker, or for learn the largest CLI
child).  With --trace 1 it runs block 0 untraced and twice
traced and prints the per-layer metrics.  Every op's output is checked
against perfbench/reference.py; any wrong answer makes the run exit 1.
The last line of stdout is the result object; the line before it holds the
provenance.  Full results and spans go to .perfbench_out/.

perfbench/record.py runs several seeds and reports each metric's spread;
baseline-trace0.json (seeds 1-10) and baseline-trace1.json (seeds 1-2) in
this directory are its record of the toolkit before any optimisation.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("decide", "learn", "static")
SETUP_REPS = 5
BUDGET_S = 170  # a run must end within 180 s
# Per-op latency on this class of machine varies by 10-20 % from run to
# run of the same op, so a percentile is read as the geometric mean of the
# ops ranked in a window around it rather than from one op.  The p75 window
# leaves 15 % of the ops, 12 or more on decide and static, beyond it.
P50_WINDOW = (0.40, 0.60)
P75_WINDOW = (0.65, 0.85)


def worker(args, setup_only, deadline):
    """Run one worker process to completion and return its JSON line.  On
    timeout the worker's whole process group is killed and reaped."""
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit("perfbench: worker did not finish within the time budget")
    if proc.returncode != 0:
        sys.stderr.write(err)
        raise SystemExit("perfbench: worker exited with code %d" % proc.returncode)
    return json.loads(out.strip().splitlines()[-1])


def percentile_ms(ops, lo, hi):
    """A smoothed percentile of op latency, in ms: the geometric mean of the
    latencies ranked from lo to hi (shares of the ops, sorted ascending).
    A failed op ranks as +inf; if one falls in the window, the result is
    the whole run's op time."""
    times = sorted(op[1] if op[2] == "ok" else math.inf for op in ops)
    window = times[round(lo * len(times)):round(hi * len(times))] or times[-1:]
    if math.inf in window:
        return 1000 * sum(op[1] for op in ops)
    return 1000 * math.exp(statistics.fmean(math.log(t) for t in window))


def end_to_end(setups, res):
    ops = res["ops"]
    ok = [op for op in ops if op[2] == "ok"]
    return {
        "ops_per_s": (len(ok) / sum(op[1] for op in ops), "ops/s"),
        "op_ms_p50": (percentile_ms(ops, *P50_WINDOW), "ms"),
        "op_ms_p75": (percentile_ms(ops, *P75_WINDOW), "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (res["rss_kb"] / 1024, "MB"),
    }


def per_layer(res):
    s = res["summary"]
    calls, incl, self_s, counts = s["calls"], s["incl"], s["self"], s["counts"]
    ops = res["ops"]
    op_s, traced_s = res["untraced_part_s"], res["traced_part_s"]
    evaluations = counts.get("extract.evaluations", 0)
    queries = counts.get("extract.queries", 0)
    contractions = counts.get("reduction.contractions", 0)
    normalize_incl = incl.get("reduction.normalize", 0.0)
    sizes = counts.get("regcompile.monoid_sizes", [])
    commands = res["commands"] or {}
    m = {
        "cli.start_s": (res["cli_start_s"], "s"),
        "cli.compile_s": (commands.get("compile", 0.0), "s"),
        "cli.extract_s": (commands.get("extract", 0.0), "s"),
        "cli.verify_s": (commands.get("verify", 0.0), "s"),
        "parser.parse_s": (incl.get("parser.parse", 0.0), "s"),
        "parser.kchars_per_s": (counts.get("parser.chars", 0) / 1000 / incl["parser.parse"]
                                if incl.get("parser.parse") else 0.0, "kchar/s"),
        "syntax.print_s": (incl.get("syntax.print", 0.0), "s"),
        "syntax.subst_calls": (calls.get("syntax.subst", 0), "count"),
        "syntax.subst_s": (incl.get("syntax.subst", 0.0), "s"),
        "syntax.erase_s": (incl.get("syntax.erase", 0.0), "s"),
        "typecheck.check_s": (incl.get("typecheck.check", 0.0), "s"),
        "reduction.normalize_s": (self_s.get("reduction.normalize", 0.0), "s"),
        "reduction.normalize_calls": (calls.get("reduction.normalize", 0), "count"),
        "reduction.contractions": (contractions, "count"),
        "reduction.contractions_per_s": (contractions / normalize_incl
                                         if normalize_incl else 0.0, "1/s"),
        "reduction.recursion_failures": (sum(op[3] == "RecursionError" for op in ops),
                                         "count"),
        "reduction.share_of_op_time": ((self_s.get("reduction.normalize", 0.0)
                                        + incl.get("syntax.subst", 0.0)) / traced_s, "ratio"),
        "encode.church_string_s": (incl.get("encode.church_string", 0.0), "s"),
        "encode.promote_s": (incl.get("encode.promote", 0.0), "s"),
        "regcompile.regex_to_dfa_s": (incl.get("regcompile.regex_to_dfa", 0.0), "s"),
        "regcompile.monoid_s": (incl.get("regcompile.monoid", 0.0), "s"),
        "regcompile.compile_s": (incl.get("regcompile.compile", 0.0), "s"),
        "regcompile.monoid_size_max": (max(sizes, default=0), "count"),
        "regcompile.monoid_size_mean": (statistics.fmean(sizes) if sizes else 0.0, "count"),
        "truncate.truncate_s": (incl.get("truncate.truncate", 0.0), "s"),
        "semantics.phi_s": (incl.get("semantics.phi", 0.0), "s"),
        "semantics.then_letter_calls": (calls.get("semantics.then_letter", 0), "count"),
        "semantics.then_letter_s": (incl.get("semantics.then_letter", 0.0), "s"),
        "extract.lstar_s": (self_s.get("extract.lstar", 0.0), "s"),
        "extract.lstar_rounds": (counts.get("extract.lstar_rounds", 0), "count"),
        "extract.queries": (queries, "count"),
        "extract.evaluations": (evaluations, "count"),
        "extract.cache_hit_share": (1 - evaluations / queries if queries else 0.0, "ratio"),
        "extract.reeval_share": (counts.get("extract.reevaluations", 0) / evaluations
                                 if evaluations else 0.0, "ratio"),
        "extract.verify_s": (self_s.get("extract.verify", 0.0), "s"),
        "extract.semantic_s": (incl.get("extract.semantic", 0.0), "s"),
        "bench.failed_share": (sum(op[2] == "failed" for op in ops) / len(ops), "ratio"),
        "trace.untraced_s": (op_s, "s"),
        "trace.overhead_s": (traced_s - op_s, "s"),
        "trace.overhead_share": ((traced_s - op_s) / op_s, "ratio"),
    }
    curve = {int(n): point for n, point in res["curve"].items()}
    for n, point in sorted(curve.items()):
        m["reduction.curve_s.%d" % n] = (point["seconds"], "s")
        m["reduction.curve_contractions.%d" % n] = (point["contractions"], "count")
    m["reduction.growth_exponent"] = (
        math.log2(curve[128]["seconds"] / curve[64]["seconds"])
        if curve[64]["seconds"] else 0.0, "ratio")
    return m


def git_sha():
    """The checked-out commit, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head, encoding="utf-8") as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.isfile(path):
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref[5:]):
                    return line.split()[0]
    return None


def source_digest():
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "ealc")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def provenance(args):
    with open("/proc/loadavg", encoding="utf-8") as fh:
        loadavg = fh.read().split()[:3]
    cpu = platform.processor()
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu,
            "git_sha": git_sha(), "src_sha256": source_digest(),
            "recursion_limit": sys.getrecursionlimit(), "loadavg_at_start": loadavg,
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace}


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "ealc", "cli.py")):
        sys.exit("perfbench: no toolkit under %s" % os.path.join(ROOT, "src", "ealc"))
    deadline = time.monotonic() + BUDGET_S
    prov = provenance(args)

    setups = []
    if not args.trace:
        for _ in range(SETUP_REPS - 1):
            setups.append(worker(args, True, deadline)["setup_s"])
    res = worker(args, False, deadline)
    setups.append(res["setup_s"])
    prov["definition"] = res["describe"]

    ops = res["ops"]
    wrong = [op for op in ops if op[2] == "wrong"]
    problems = res.get("problems", [])
    metrics = per_layer(res) if args.trace else end_to_end(setups, res)
    result = {"correct": not wrong and not problems, "attempted": len(ops),
              "failed": sum(op[2] == "failed" for op in ops),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    for op in wrong:
        sys.stderr.write("wrong answer: %s\n" % op[3])
    for problem in problems:
        sys.stderr.write("trace check failed: %s\n" % problem)

    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)), "w") as fh:
        json.dump({"provenance": prov, "result": result, "worker": res}, fh)
    print(json.dumps({"provenance": prov}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
