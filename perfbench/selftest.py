"""Self-test of the benchmark itself, in under a minute.

    python3 perfbench/selftest.py

Checks, on tiny versions of every workload, that each metric BENCHMARK.json
names is emitted with its unit, untraced and traced; that the byte gate
trips on a tampered count; and that the benchmark exits non-zero, printing
no result, when the remfl sources are missing.  Exits 0 when all pass.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out" / "selftest"


def check(failures, ok, what):
    print(f"{'PASS' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def check_metrics(failures, spec, workloads, harness):
    names = list(workloads)
    check(failures, names == [w["name"] for w in spec["workloads"]],
          "BENCHMARK.json lists the workloads in workloads.py")
    for w in spec["workloads"]:
        check(failures, w["why"] == workloads[w["name"]].why,
              f"{w['name']}: BENCHMARK.json gives the why of workloads.py")
    from workloads import tiny
    for name, workload in workloads.items():
        for trace, declared in ((False, spec["end_to_end"]),
                                (True, spec["per_layer"])):
            _, result = harness.run_workload(
                ROOT, tiny(workload), seed=7, seconds=0, trace=trace,
                out_dir=OUT_DIR)
            want = {m["name"]: m["unit"] for m in declared}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(failures, got == want,
                  f"{name} trace={int(trace)}: every declared metric, "
                  f"with its unit (missing {sorted(set(want) - set(got))}, "
                  f"undeclared {sorted(set(got) - set(want))})")
            check(failures, result["correct"] and result["failed"] == 0
                  and result["attempted"] > 0,
                  f"{name} trace={int(trace)}: gate passes")


def check_tampering(failures, workloads, harness, gate):
    from workloads import tiny
    tampered = {"desk-pfl": ("cum_bytes", "nnz_total", "n_payloads"),
                "desk-fedavg": ("cum_bytes", "n_payloads")}
    for name, fields in tampered.items():
        workload = tiny(workloads[name])
        seeds = harness.derive_seeds(3)
        part = harness.setup(workload, seeds, OUT_DIR / "tamper-partition")
        cfg = harness.run_config(workload, seeds)
        samples, skips = harness.SampleLog(), harness.SkipLog()
        try:
            rep = harness.train_once(part, cfg, OUT_DIR / "tamper-run",
                                     samples, skips, traced=False)
        finally:
            samples.close()
        check(failures, gate.check_rep(cfg, rep, len(part.clients)) == [],
              f"{name}: untampered repetition passes the gate")
        final = rep.result.final
        for field in fields:
            rep.result.history[-1] = dataclasses.replace(
                final, **{field: getattr(final, field) + 1})
            problems = gate.check_rep(cfg, rep, len(part.clients))
            check(failures, any("byte formula" in p for p in problems),
                  f"{name}: byte gate trips on {field} + 1")
        rep.result.history[-1] = final


def check_bare_checkout(failures):
    """The benchmark must fail, printing no result, without src/."""
    bare = OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk-pfl",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120)
    check(failures, proc.returncode != 0 and '"correct"' not in proc.stdout,
          "without remfl sources: non-zero exit and no result")
    shutil.rmtree(bare)


def main():
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import gate
    import harness
    from workloads import WORKLOADS

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    failures = []
    check_metrics(failures, spec, WORKLOADS, harness)
    check_tampering(failures, WORKLOADS, harness, gate)
    check_bare_checkout(failures)
    shutil.rmtree(OUT_DIR, ignore_errors=True)
    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
