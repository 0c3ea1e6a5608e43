"""Run one workload of the desclite benchmark and print its metrics.

    python3 bench/run.py --workload paper-3k --seed 1 --seconds 55 --trace 0

Run from the root of a checkout; the program is imported from `src/`. The
run sets up the workload's inputs several times (set-up time is the median),
then repeats the workload's job sequence for up to `--seconds`, at least
once, and reports each job's median speed-normalized time (see speed.py),
summed over the jobs. With `--trace 1` it then sets up
and runs one more pass with every layer call traced, and reports the
per-layer metrics instead. Human-readable lines come first; the last line of
standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`. Each run also writes a record with its environment,
every pass and, when traced, every span, under `.bench_out/runs/`.
"""
from __future__ import annotations

import argparse
import os
import sys
import time

_START = time.perf_counter()

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser, parser.parse_args(argv)


def main(argv=None) -> int:
    parser, args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "desclite", "__init__.py")):
        print(f"error: no desclite sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    # One BLAS thread: on a shared machine a second thread waits on whichever
    # core other load slows, which widened the run-to-run spread in trials.
    # BLAS reads the count when numpy loads, so every module that imports
    # numpy is imported below this line.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.dont_write_bytecode = True  # leave src/ as checked out; same import cost every run
    sys.path.insert(0, SRC)
    import measure
    import workloads

    import_s = time.perf_counter() - _START
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"expected one of {', '.join(workloads.WORKLOADS)}")
    return measure.run(workloads.WORKLOADS[args.workload], args.seed, args.seconds,
                       bool(args.trace), import_s)


if __name__ == "__main__":
    sys.exit(main())
