"""One worker process: set up a workload, run it, print one JSON line.

Started by perfbench/run.py, one worker at a time.  Set-up time is taken
from the first statement of this file, so it covers every import, building
the recognizers and generating the first block of inputs.
"""

from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402
import collections  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perfbench import tracing, workloads  # noqa: E402

OUT_DIR = os.path.join(ROOT, ".perfbench_out")
CURVE_LENGTHS = (16, 32, 64, 128, 256)
CLI_START_REPS = 5


def at_depth(frames, fn, *args):
    """Call fn(*args) `frames` stack frames further down."""
    if frames:
        return at_depth(frames - 1, fn, *args)
    return fn(*args)


def run_pass(wl, indexed, tracer=None):
    """Run ((block, i), item) pairs in order, one op at a time."""
    ops = []
    for index, item in indexed:
        if tracer is not None:
            tracer.op = "%d.%d" % index
        ops.append(workloads.timed(index, wl.run, wl.check, item))
    return ops


def indexed_block(wl, b):
    return [((b, i), item) for i, item in enumerate(wl.block(b))]


def measure(wl, seconds):
    """Untraced: whole blocks, as many as fit in `seconds` by the first
    block's time (at least one)."""
    ops, blocks, b = [], 1, 0
    while b < blocks:
        t0 = perf_counter()
        ops += at_depth(tracing.WRAPPER_FRAMES, run_pass, wl, indexed_block(wl, b))
        if b == 0:
            blocks = max(1, round(seconds / (perf_counter() - t0)))
        b += 1
    return {"ops": ops, "blocks": blocks, "rss_kb": peak_rss_kb(wl)}


def peak_rss_kb(wl):
    who = resource.RUSAGE_CHILDREN if wl.name == "learn" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss


def traced_pass(wl, indexed, tag):
    """Run the ops with tracing on; return them and their span summary."""
    os.makedirs(OUT_DIR, exist_ok=True)
    if wl.name == "learn":
        wl.trace_dir = os.path.join(OUT_DIR, "spans-learn-%s" % tag)
        os.makedirs(wl.trace_dir, exist_ok=True)
        for name in os.listdir(wl.trace_dir):
            os.remove(os.path.join(wl.trace_dir, name))
        ops = run_pass(wl, indexed)
        span_dir, wl.trace_dir = wl.trace_dir, None
        summaries = []
        for name in sorted(os.listdir(span_dir)):
            with open(os.path.join(span_dir, name), encoding="utf-8") as fh:
                summaries.append(json.load(fh)["summary"])
        return ops, tracing.merge(summaries)
    tracer = tracing.Tracer()
    tracer.install(wl.api)
    try:
        ops = at_depth(0, run_pass, wl, indexed, tracer)
    finally:
        tracer.uninstall()
    tracer.count_contractions()
    tracer.dump(os.path.join(OUT_DIR, "spans-%s-%s.json" % (wl.name, tag)))
    return ops, tracer.summary()


def curve(wl):
    """read_bool on fixed div3 words of growing length, with contraction
    counts from the public trace."""
    from ealc import App, church_string, read_bool
    from ealc.reduction import trace
    term = wl.recs["div3"][0]
    rng = random.Random("curve")
    out = {}
    for n in CURVE_LENGTHS:
        word = "".join(rng.choice("01") for _ in range(n))
        t0 = perf_counter()
        try:
            verdict = at_depth(tracing.WRAPPER_FRAMES, read_bool,
                               App(term, church_string(word)))
            seconds = perf_counter() - t0
            status = wl.check(("div3", word), verdict) or "ok"
        except RecursionError:
            seconds = perf_counter() - t0
            status = "RecursionError"
        steps = 0
        try:
            for _ in trace(App(term, church_string(word))):
                steps += 1
        except RecursionError:
            pass
        out[n] = {"seconds": seconds, "contractions": steps, "status": status}
    return out


def cli_start():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    times = []
    for _ in range(CLI_START_REPS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-m", "ealc.cli", "--version"], env=env,
                       cwd=ROOT, capture_output=True, check=True, timeout=60)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def failures(ops):
    return sorted((op.index, op.detail) for op in ops if op.status == "failed")


def traced(wl):
    """Block 0 once untraced and its traced part (all of it, or for learn
    TRACED languages) twice traced, in the order traced, untraced, traced,
    so that the untraced pass and the reported second traced pass both run
    warm.  The traced passes must fail the same ops as the untraced one and
    repeat every exact count."""
    block = indexed_block(wl, 0)
    part = [(index, item) for index, item in block if wl.traced(item)]
    first, summary1 = traced_pass(wl, part, "1")
    untraced = at_depth(tracing.WRAPPER_FRAMES, run_pass, wl, block)
    second, summary = traced_pass(wl, part, "2")
    commands = None
    if wl.name == "learn":  # wall time per kind of eal command, all five languages
        commands = collections.Counter()
        for (_, item), op in zip(block, untraced):
            commands[item[1]] += op.seconds
    in_part = {index for index, _ in part}
    baseline = [op for op in untraced if op.index in in_part]
    problems = ["traced op %s: %s" % (op.index, op.detail)
                for op in first + second if op.status == "wrong"]
    if not failures(baseline) == failures(first) == failures(second):
        problems.append("traced passes failed other ops than the untraced pass: %s / %s / %s"
                        % (failures(baseline), failures(first), failures(second)))
    for key in tracing.EXACT_COUNTS:
        a, b = summary1["counts"].get(key, 0), summary["counts"].get(key, 0)
        if a != b:
            problems.append("count %s differs between traced passes: %r != %r" % (key, a, b))
    points = curve(wl) if wl.name == "decide" else {
        n: {"seconds": 0.0, "contractions": 0, "status": "ok"} for n in CURVE_LENGTHS}
    problems += ["curve |w|=%d: %s" % (n, p["status"]) for n, p in points.items()
                 if p["status"] not in ("ok", "RecursionError")]
    return {"ops": untraced,
            "untraced_part_s": sum(op.seconds for op in baseline),
            "traced_part_s": sum(op.seconds for op in second)
                             - summary["counts"].get("reduction.replay_s", 0.0),
            "summary": summary, "problems": problems,
            "commands": commands, "curve": points, "cli_start_s": cli_start()}


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()
    if args.workload == "learn":
        wl = workloads.Learn(args.seed, ROOT, os.path.join(OUT_DIR, "learn"))
    else:
        wl = workloads.WORKLOADS[args.workload](args.seed)
    out = {"setup_s": perf_counter() - T_START}
    if not args.setup_only:
        out.update(traced(wl) if args.trace else measure(wl, args.seconds))
        out["describe"] = wl.describe()
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
