"""Benchmark for divfree: time to verified results on three workloads.

    python3 bench/run.py --workload variation-flow --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; divfree is imported from ``src/`` there and
nowhere else.  Set-up (a fresh import of divfree plus the workload's models,
grids and grid files) is repeated and reported as a median.  Then whole
passes over the workload's operations run until ``--seconds`` have passed.
With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics of one set-up plus one pass.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def cap_threads():
    """Cap BLAS / OpenMP pools at the CPUs this process may use; must run
    before numpy is imported."""
    cpus = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        if not (current.isdigit() and 0 < int(current) <= cpus):
            os.environ[var] = str(cpus)
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every input; used by selftest.py")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    cpus = cap_threads()
    if not (SRC / "divfree" / "__init__.py").is_file():
        sys.stderr.write(f"error: no divfree sources under {SRC}\n")
        return 3
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    import harness
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.stderr.write(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}\n")
        return 2
    work_dir = OUT / f"work-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.scale, args.seed, work_dir)
    try:
        if args.trace:
            result = harness.traced_run(workload, args.seconds, OUT / "records")
        else:
            result = harness.timed_run(workload, args.seconds)
    except harness.SetupError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    finally:
        harness.remove_tree(work_dir)
    result["header"]["threads"] = cpus
    harness.report(args, result, OUT / "records")
    return 0


if __name__ == "__main__":
    sys.exit(main())
