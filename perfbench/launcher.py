"""Run one eal command with the benchmark's wrappers installed.

    python3 perfbench/launcher.py --spans FILE --op ID -- <eal arguments>

Installs the tracing wrappers, calls ealc.cli.main, then replays the
recorded normalize inputs to count contractions and writes the spans and
counters to FILE.  Exits with the command's own exit code.
"""

import os
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

import ealc.cli  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402


def main(argv):
    if len(argv) < 5 or argv[0] != "--spans" or argv[2] != "--op" or argv[4] != "--":
        sys.exit("usage: launcher.py --spans FILE --op ID -- <eal arguments>")
    tracer = Tracer()
    tracer.op = argv[3]
    tracer.install()
    try:
        code = ealc.cli.main(argv[5:])
    finally:
        tracer.uninstall()
    t0 = perf_counter()
    tracer.count_contractions()
    tracer.counts["reduction.replay_s"] = perf_counter() - t0
    tracer.dump(argv[1])
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
