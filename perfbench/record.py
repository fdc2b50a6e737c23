"""Run perfbench/run.py over several seeds and summarize the spread.

    python3 perfbench/record.py --workloads decide,learn,static \
        --seeds 1-10 [--trace 1] [--out FILE]

For every workload and metric it prints the median, the quartiles and the
spread (interquartile distance over the median, from
statistics.quantiles(values, n=4)) next to the metric's bound in
BENCHMARK.json.  With --out it also writes every run's result and
provenance to FILE, so that a later change can be compared on the same
seeds and on seeds it was not tuned on.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default="decide,learn,static")
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out")
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    record = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                 "--trace", str(args.trace)], cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                sys.exit("%s seed %d failed (exit %d):\n%s"
                         % (workload, seed, proc.returncode, proc.stderr[-2000:]))
            runs.append({"seed": seed, "provenance": json.loads(lines[-2])["provenance"],
                         "result": json.loads(lines[-1])})
            result = runs[-1]["result"]
            print("%s seed %d: correct=%s attempted=%d failed=%d %s" % (
                workload, seed, result["correct"], result["attempted"], result["failed"],
                " ".join("%s=%.4g" % (k, v["value"]) for k, v in result["metrics"].items()
                         if bounds.get(k) is not None)), flush=True)
        summary = {}
        for name in runs[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            summary[name] = {"median": median, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / median if median else None,
                             "bound": bounds.get(name)}
            if bounds.get(name) is not None:
                print("  %-12s median %-12.5g spread %.3f  bound %.2f"
                      % (name, median, summary[name]["spread"], bounds[name]))
        record[workload] = {"runs": runs, "summary": summary}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
