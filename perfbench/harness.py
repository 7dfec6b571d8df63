"""Measure one workload: set-up, timed training repetitions, gate, metrics.

One invocation is one closed batch run in a single process.  Set-up (map
synthesis, partitioning, partition export and reload) repeats ``setups``
times: half before training, half after it, so that ``setup_s`` samples the
machine over the whole run rather than over one second of it.  Training
repeats the same federated run, with the same seeds, until the next
repetition would end after ``seconds``; at least one runs.  Every repetition
goes through the correctness gate.

This simulator has no queue: a round runs as soon as the previous one has
ended, so there is no wait time to report.
"""

from __future__ import annotations

import gc
import hashlib
import logging
import os
import platform
import resource
import shutil
import statistics
import subprocess
import time
from dataclasses import dataclass

import numpy as np
import scipy

from remfl import cli
from remfl import compression as comp
from remfl import data as dat
from remfl import federation as fed
from remfl import metrics as met
from remfl import nn

import gate
from spans import ROOT_SPAN, Tracer, layer_targets, wrapper_cost_s

MODULES = {"data": dat, "nn": nn, "compression": comp, "federation": fed,
           "metrics": met, "cli": cli}


@dataclass(frozen=True)
class Seeds:
    map: int
    partition: int
    run: int


def derive_seeds(seed):
    state = np.random.SeedSequence(seed).generate_state(3) & 0x7FFFFFFF
    return Seeds(*(int(v) for v in state))


class SkipLog(logging.Handler):
    """Rounds of the "client skipped" warnings remfl.federation logs."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.rounds = []

    def emit(self, record):
        if "client skipped" in record.getMessage():
            self.rounds.append(int(record.args[0]))


class SampleLog:
    """Records the clients ``federation.sample_clients`` returns.

    An untimed pass-through wrapper, installed for every repetition: it
    costs one Python call per round and gives attempted client-rounds and
    samples consumed without tracing.
    """

    def __init__(self):
        self.sampled = []
        self._original = fed.sample_clients

        def recording(*args, **kwargs):
            chosen = self._original(*args, **kwargs)
            self.sampled.append([int(c) for c in chosen])
            return chosen

        fed.sample_clients = recording

    def close(self):
        fed.sample_clients = self._original


@dataclass
class Rep:
    train_s: float
    cpu_s: float          # process CPU time of the same span
    result: object        # fed.RunResult
    roundlog: list        # round log rows as dicts
    sha256: str           # of global_flat as exported to backbone.npz
    sampled: list         # per round, the sampled client ids
    skipped_rounds: list  # round of each skipped client
    traced: bool


def setup(workload, seeds, part_dir):
    """From nothing to a partition in memory, as gen-data + partition do."""
    grid = dat.generate_synthetic_map(dat.SyntheticMapConfig(
        seed=seeds.map, width=workload.size, height=workload.size))
    field = dat.heterogeneity(grid)
    part = dat.grid_partition(grid, field, "heavy", rows=workload.rows,
                              cols=workload.cols, seed=seeds.partition)
    dat.export_partition(part, str(part_dir))
    return dat.load_partition(str(part_dir))


def partition_sha256(partition):
    """sha256 over every client's arrays, to check set-ups agree."""
    h = hashlib.sha256()
    for c in partition.clients:
        for a in (c.x_train, c.y_train, c.x_test, c.y_test, c.rc_train,
                  c.rc_test, c.coord_min, c.coord_max, c.label_mean,
                  c.label_std):
            h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def run_config(workload, seeds):
    args = cli.build_parser().parse_args(
        ["train", *workload.train_flags, "--seed", str(seeds.run)])
    return cli.build_run_config(args)


def train_once(partition, cfg, run_dir, samples, skips, traced):
    shutil.rmtree(run_dir, ignore_errors=True)
    samples.sampled.clear()
    skips.rounds.clear()
    gc.collect()
    start, start_cpu = time.perf_counter(), time.process_time()
    result = cli._run_and_export(partition, cfg, str(run_dir),
                                 partition.scenario)
    train_s = time.perf_counter() - start
    cpu_s = time.process_time() - start_cpu
    _, rows = fed.read_roundlog(os.path.join(run_dir, "roundlog.csv"))
    with np.load(os.path.join(run_dir, "backbone.npz")) as saved:
        sha = gate.sha256_of(saved["global_flat"])
    return Rep(train_s, cpu_s, result, rows, sha, list(samples.sampled),
               list(skips.rounds), traced)


def tail_percentile(rounds):
    """Highest percentile with at least ten of one repetition's rounds
    beyond it, and never below the median.

    It depends on the round count alone, so a run that fits more
    repetitions into its time still reports the same percentile.
    """
    return max(50.0, 100.0 * (1.0 - 10.0 / rounds))


def source_digest(root):
    """sha256 over the program's and the benchmark's Python sources."""
    h = hashlib.sha256()
    for path in sorted([*(root / "src" / "remfl").glob("*.py"),
                        *(root / "perfbench").glob("*.py")]):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit(root):
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _blas_version(config):
    try:
        return config["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        return "unknown"


def _simd(config):
    """The SIMD extensions numpy found on this CPU; its kernels and so its
    floating-point results depend on them."""
    try:
        return " ".join(config["SIMD Extensions"]["found"])
    except (KeyError, TypeError):
        return "unknown"


def provenance(root, workload, seed, seeds):
    np_config = np.show_config(mode="dicts")
    return {
        "workload": workload.name, "workload_seed": seed,
        "map_seed": seeds.map, "partition_seed": seeds.partition,
        "run_seed": seeds.run,
        "git_commit": git_commit(root), "source_sha256": source_digest(root),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": _blas_version(np_config),
        "openblas_scipy": _blas_version(scipy.show_config(mode="dicts")),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "platform": platform.platform(), "cpu_simd": _simd(np_config),
    }


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def run_workload(root, workload, seed, seconds, trace, out_dir):
    """Measure one workload; returns (detail, result) dictionaries.

    ``result`` is the benchmark's result object; ``detail`` adds the
    provenance, the gate's findings and the per-repetition outputs.
    """
    seeds = derive_seeds(seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    tag = f"{workload.name}-s{seed}-t{int(trace)}"
    part_dir = out_dir / f"{tag}-partition"
    run_dir = out_dir / f"{tag}-run"
    tracer = Tracer(layer_targets(MODULES)) if trace else None
    skips = SkipLog()
    fed_log = logging.getLogger(fed.__name__)
    fed_log.addHandler(skips)
    samples = SampleLog()
    setup_s, partition_shas = [], []

    def set_up():
        shutil.rmtree(part_dir, ignore_errors=True)
        gc.collect()
        if tracer:
            tracer.group = f"setup{len(setup_s)}"
            tracer.install()
        start = time.perf_counter()
        try:
            part = setup(workload, seeds, part_dir)
        finally:
            setup_s.append(time.perf_counter() - start)
            if tracer:
                tracer.uninstall()
        partition_shas.append(partition_sha256(part))
        return part

    try:
        partition = set_up()
        for _ in range(workload.setups // 2 - 1):
            set_up()
        cfg = run_config(workload, seeds)

        reps = []
        iterations = 0
        began = time.perf_counter()
        while True:
            # A traced run pairs each untraced repetition with a traced one.
            for traced in ((False, True) if trace else (False,)):
                if traced:
                    tracer.group = f"train{len(reps)}"
                    tracer.install()
                try:
                    reps.append(train_once(partition, cfg, run_dir, samples,
                                           skips, traced))
                finally:
                    if traced:
                        tracer.uninstall()
            iterations += 1
            elapsed = time.perf_counter() - began
            if elapsed + elapsed / iterations > seconds:
                break
        while len(setup_s) < workload.setups:
            set_up()
    finally:
        samples.close()
        fed_log.removeHandler(skips)
        shutil.rmtree(part_dir, ignore_errors=True)
        shutil.rmtree(run_dir, ignore_errors=True)

    problems = []
    for i, rep in enumerate(reps):
        problems += [f"rep {i}: {p}"
                     for p in gate.check_rep(cfg, rep, len(partition.clients))]
    if len(set(partition_shas)) > 1:
        problems.append("set-ups at the same seed gave different partitions")
    shas = sorted({rep.sha256 for rep in reps})
    if len(shas) > 1:
        problems.append(f"global_flat sha256 differs across repetitions: {shas}")

    final = reps[0].result.final
    outputs = {"global_flat_sha256": reps[0].sha256,
               "cum_bytes": final.cum_bytes,
               "rmse_macro": final.bundle.rmse_macro}
    prov = provenance(root, workload, seed, seeds)
    record = gate.DigestRecord(str(out_dir / "digests.json"))
    # Floating-point results may change with the libraries or the CPU, so
    # a run is compared only with runs of the same sources on the same stack.
    key = "|".join(f"{k}={prov[k]}" for k in (
        "workload", "workload_seed", "source_sha256", "python", "numpy",
        "scipy", "openblas_numpy", "openblas_scipy", "blas_threads",
        "platform", "cpu_simd"))
    bad = record.check_and_store(key, outputs)
    if bad:
        problems.append(f"not reproducible at the same seed: {bad}")

    untraced = [r for r in reps if not r.traced]
    train_s = statistics.median(r.train_s for r in untraced)
    n_train = {c.client_id: c.n_train for c in partition.clients}
    samples_per_rep = cfg.local_epochs * sum(
        n_train[c] for s in untraced[0].sampled for c in s)
    tail_pct = tail_percentile(cfg.rounds)
    deltas = np.concatenate([
        np.diff([float(row["wall_ms"]) for row in r.roundlog])
        for r in untraced])
    rounds_tried = sum(len(s) for s in untraced[0].sampled)
    ok_ratio = 1.0 - len(untraced[0].skipped_rounds) / rounds_tried

    e2e = {
        "setup_s": _metric(statistics.median(setup_s), "s"),
        "train_s": _metric(train_s, "s"),
        "samples_per_s": _metric(samples_per_rep / train_s, "1/s"),
        "round_ms_p50": _metric(np.percentile(deltas, 50), "ms"),
        "round_ms_tail": _metric(np.percentile(deltas, tail_pct), "ms"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "uplink_mb": _metric(final.cum_bytes / 1e6, "MB"),
        "client_rounds_ok_ratio": _metric(ok_ratio, "ratio"),
    }
    detail = {
        "provenance": prov,
        "outputs": outputs,
        "partition_sha256": partition_shas[0],
        "setup_s_each": setup_s,
        "train_s_each": [r.train_s for r in untraced],
        "train_cpu_s_each": [r.cpu_s for r in untraced],
        "round_ms_tail_percentile": tail_pct,
        "round_ms_n": int(deltas.size),
        "round_ms_each": deltas.tolist(),
        "samples_per_rep": samples_per_rep,
        "client_round_fail_ratio": 1.0 - ok_ratio,
        "payloads": final.n_payloads, "nnz": final.nnz_total,
        "upload_len": reps[0].result.upload_len, "k": reps[0].result.k,
        "problems": problems,
    }
    metrics = e2e
    if trace:
        metrics = per_layer(tracer, reps, setup_s, train_s, detail)
        tracer.write(out_dir / f"{tag}-spans.csv")
    bad = gate.non_finite(metrics)
    if bad:
        problems.append(f"non-finite metrics: {bad}")
    # A run that fails the gate fails every client-round it attempted.
    attempted = sum(len(s) for rep in reps for s in rep.sampled)
    failed = attempted if problems else sum(
        len(rep.skipped_rounds) for rep in reps)
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return detail, result


def per_layer(tracer, reps, setup_s, untraced_train_s, detail):
    """Per-layer calls, self time and counts from the traced repetitions.

    Training layers come from the traced repetitions (median self time,
    calls of the first), ``data`` from the traced set-ups.  The self time of
    ``federation.run_training`` is not a layer's: it is the round loop's own
    code, which no named function covers, and is reported as the remainder.
    The overhead is the traced repetition's span count times the cost of
    one wrapper, timed around a no-op in this process.
    """
    traced = [(i, r) for i, r in enumerate(reps) if r.traced]
    train_groups = [(f"train{i}", r) for i, r in traced]
    setup_groups = [f"setup{i}" for i in range(len(setup_s))]
    metrics = {}

    def add_layer_times(groups, prefixes):
        tables = [tracer.layer_times(g) for g in groups]
        # Every traced function is reported, with zero calls if unused.
        names = [n for n, _, _ in tracer.targets
                 if n.split(".")[0] in prefixes and n != ROOT_SPAN]
        for name in names:
            rows = [t[name] for t in tables]
            metrics[f"{name}.calls"] = _metric(rows[0]["calls"], "count")
            metrics[f"{name}.self_ms"] = _metric(
                statistics.median(r["self_ms"] for r in rows), "ms")
        return tables

    add_layer_times(setup_groups, {"data"})
    tables = add_layer_times([g for g, _ in train_groups],
                             {"nn", "compression", "federation", "metrics",
                              "cli"})
    metrics["federation.evaluate.total_ms"] = _metric(statistics.median(
        t["federation.evaluate"]["total_ms"] for t in tables), "ms")

    counts = tracer.counts[train_groups[0][0]]
    setup_counts = tracer.counts[setup_groups[0]]
    first = train_groups[0][1]
    payloads = counts["compression.payloads"]
    for name in ("nn.rows_forwarded", "nn.params_updated",
                 "compression.payloads", "compression.nnz"):
        metrics[name] = _metric(counts[name], "count")
    metrics["compression.uplink_bytes"] = _metric(
        counts["compression.uplink_bytes"], "B")
    if payloads and (counts["compression.uplink_bytes"]
                     != first.result.final.cum_bytes):
        detail["problems"].append("encoded payload bytes differ from cum_bytes")
    # No payloads (fedavg) means nothing was selected; report 0 then.
    fill = counts["compression.nnz"] / (first.result.k * payloads) \
        if payloads else 0.0
    metrics["compression.topk_fill_ratio"] = _metric(fill, "ratio")
    metrics["federation.client_rounds_attempted"] = _metric(
        sum(len(s) for s in first.sampled), "count")
    metrics["federation.client_rounds_failed"] = _metric(
        len(first.skipped_rounds), "count")
    metrics["data.partition_bytes"] = _metric(
        setup_counts["data.partition_bytes"], "B")

    traced_s = statistics.median(r.train_s for _, r in traced)
    covered = [sum(row["self_ms"] for name, row in t.items()
                   if name != ROOT_SPAN) for t in tables]
    metrics["trace.train_s"] = _metric(traced_s, "s")
    metrics["trace.unattributed_ms"] = _metric(statistics.median(
        r.train_s * 1e3 - c for (_, r), c in zip(traced, covered)), "ms")
    spans_per_rep = statistics.median(
        sum(row["calls"] for row in t.values()) for t in tables)
    call_cost_s = wrapper_cost_s()
    metrics["trace.overhead_ms"] = _metric(
        spans_per_rep * call_cost_s * 1e3, "ms")
    detail["trace_call_cost_ns"] = call_cost_s * 1e9
    detail["traced_minus_untraced_ms"] = (traced_s - untraced_train_s) * 1e3
    detail["spans"] = len(tracer.spans)
    return metrics
