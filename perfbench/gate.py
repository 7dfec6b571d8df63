"""Output-correctness gate applied to every training repetition.

The checks use only what a run exposes (its ``RunResult``, the run
directory it wrote and the warnings it logged), never remfl's own codec
constants, so a change to the program cannot move the check with it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

# QUP1 wire format (README, "File formats"): 21-byte header, then 5 bytes
# (u32 index + i8 value) per transmitted entry.
QUP1_HEADER_BYTES = 21
QUP1_ENTRY_BYTES = 5
# The dense baseline is accounted as float32 values.
DENSE_VALUE_BYTES = 4


def expected_uplink_bytes(cfg, payloads, nnz, upload_len):
    """Exact cumulative uplink bytes for the accounting ``cfg`` uses."""
    if cfg.mode == "fedavg":
        return DENSE_VALUE_BYTES * upload_len * payloads
    if not cfg.quantization:
        raise ValueError("the gate knows the QUP1 and dense formulas only")
    return QUP1_HEADER_BYTES * payloads + QUP1_ENTRY_BYTES * nnz


def upload_rounds(cfg):
    """Rounds in which sampled clients upload (0-based)."""
    if cfg.mode == "fedavg":
        return range(cfg.rounds)
    period = cfg.sync_period if cfg.periodic_sync else 1
    return range(0, cfg.rounds, period)


def sha256_of(array):
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def check_rep(cfg, rep, n_clients):
    """Every problem found in one training repetition, as text."""
    final = rep.result.final
    problems = []
    want = expected_uplink_bytes(cfg, final.n_payloads, final.nnz_total,
                                 rep.result.upload_len)
    if final.cum_bytes != want:
        problems.append(
            f"cum_bytes {final.cum_bytes} != {want} from the byte formula "
            f"(payloads={final.n_payloads}, nnz={final.nnz_total}, "
            f"L={rep.result.upload_len})")

    size = max(1, int(round(cfg.client_fraction * n_clients)))
    if [len(s) for s in rep.sampled] != [size] * cfg.rounds:
        problems.append(f"per-round sample sizes {[len(s) for s in rep.sampled]}"
                        f" != {size} in each of {cfg.rounds} rounds")
    uploads = sum(size - rep.skipped_rounds.count(t)
                  for t in upload_rounds(cfg))
    if final.n_payloads != uploads:
        problems.append(f"{final.n_payloads} payloads, expected {uploads} "
                        "from sampled minus skipped clients")

    last = rep.roundlog[-1]
    if len(rep.roundlog) != cfg.rounds + 1:
        problems.append(f"round log has {len(rep.roundlog)} rows, "
                        f"expected {cfg.rounds + 1}")
    if last["cum_uplink_mb"] != repr(final.cum_bytes / 1e6):
        problems.append("round log cum_uplink_mb disagrees with cum_bytes")
    if last["rmse_macro"] != repr(final.bundle.rmse_macro):
        problems.append("round log rmse_macro disagrees with the result")
    if rep.sha256 != sha256_of(rep.result.global_flat):
        problems.append("backbone.npz global_flat differs from the result")
    if not np.all(np.isfinite(rep.result.global_flat)):
        problems.append("global_flat has non-finite entries")
    return problems


def non_finite(metrics):
    """Names of metrics whose value is not a finite number."""
    return sorted(name for name, m in metrics.items()
                  if not math.isfinite(m["value"]))


class DigestRecord:
    """Run outputs by (workload, seed, source, BLAS threads), kept on disk.

    A second run with the same key must reproduce the sha256 of
    ``global_flat``, the uplink bytes and the final macro RMSE exactly.
    """

    def __init__(self, path):
        self.path = path
        self.entries = {}
        if os.path.exists(path):
            with open(path) as f:
                self.entries = json.load(f)

    def check_and_store(self, key, outputs):
        seen = self.entries.get(key)
        if seen is not None and seen != outputs:
            return f"outputs {outputs} differ from an earlier run's {seen}"
        self.entries[key] = outputs
        tmp = self.path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(self.entries, f, indent=1, sort_keys=True)
        os.replace(tmp, self.path)
        return None
