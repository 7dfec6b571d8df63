"""remfl benchmark: one workload per invocation, or all of them.

Run from the repository root:

    python3 perfbench/run.py --workload desk-pfl --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 20

With ``--trace 0`` the result carries the end-to-end metrics, with
``--trace 1`` the per-layer ones (see BENCHMARK.json).  Standard output ends
with one JSON line: {"correct", "attempted", "failed", "metrics"}.  Before it
comes a line with the provenance, outputs and gate findings, also written to
``.perfbench_out/<workload>-s<seed>-t<trace>.json`` with the spans of a traced
run next to it.  ``--all`` runs each workload in its own process and prints a
table.  The run builds nothing: it imports remfl from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
# One BLAS thread (<= nproc): the matrices are small, and on a shared
# two-core machine a second thread adds contention noise but no speed.
BLAS_THREADS = "1"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=list(WORKLOADS))
    which.add_argument("--all", action="store_true",
                       help="run every workload, each in its own process")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="training repetitions stop before this budget")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_all(args):
    print(f"{'workload':<22} {'metric':<24} {'value':>14} unit")
    all_correct = True
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=900)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        all_correct &= result["correct"]
        for metric, m in result["metrics"].items():
            print(f"{name:<22} {metric:<24} {m['value']:>14.6g} {m['unit']}")
        print(f"{name:<22} {'correct':<24} {str(result['correct']):>14}"
              f" (attempted {result['attempted']}, failed {result['failed']})")
    return 0 if all_correct else 1


def main(argv=None):
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    if args.all:
        return run_all(args)
    if not (ROOT / "src" / "remfl" / "__init__.py").is_file():
        print(f"error: no remfl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # numpy must load after the BLAS thread settings above.
    import harness

    detail, result = harness.run_workload(
        ROOT, WORKLOADS[args.workload], args.seed, args.seconds,
        bool(args.trace), OUT_DIR)
    name = f"{args.workload}-s{args.seed}-t{args.trace}.json"
    with open(OUT_DIR / name, "w") as f:
        json.dump({"detail": detail, "result": result}, f, indent=1)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
