"""Accuracy, fairness and communication metrics plus Pareto extraction.

All accuracy numbers are computed on denormalized (dB-scale) residuals;
macro averages are unweighted means over clients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import data as dat


class MetricError(ValueError):
    """Metric requested on an empty residual set."""


@dataclass
class MetricBundle:
    rmse_micro: float
    rmse_macro: float
    mae_macro: float
    per_bs_rmse: np.ndarray   # (M,)
    per_client_rmse: np.ndarray  # (N,)


@dataclass
class ParetoPoint:
    label: str
    rmse_macro: float
    uplink_mb: float


def rmse_micro(residuals) -> float:
    """RMSE pooled over every scalar residual."""
    r = np.asarray(residuals, dtype=float).ravel()
    if r.size == 0:
        raise MetricError("no residuals")
    return float(np.sqrt(np.mean(r * r)))


def rmse_macro(per_client_rmse) -> float:
    """Unweighted mean of per-client RMSEs (fairness semantics)."""
    v = np.asarray(per_client_rmse, dtype=float)
    if v.size == 0:
        raise MetricError("no clients")
    return float(v.mean())


def mae_macro(per_client_mae) -> float:
    v = np.asarray(per_client_mae, dtype=float)
    if v.size == 0:
        raise MetricError("no clients")
    return float(v.mean())


def per_bs_rmse(residuals) -> np.ndarray:
    """RMSE per base-station dimension over residual rows (n, M)."""
    r = np.asarray(residuals, dtype=float)
    if r.ndim != 2 or r.shape[0] == 0:
        raise MetricError("need a non-empty (n, M) residual matrix")
    return np.sqrt(np.mean(r * r, axis=0))


def bundle(per_client_residuals) -> MetricBundle:
    """Assemble the full metric bundle from per-client residual matrices."""
    if not per_client_residuals:
        raise MetricError("no clients")
    client_rmse = np.array([rmse_micro(r) for r in per_client_residuals])
    client_mae = np.array([float(np.mean(np.abs(r)))
                           for r in per_client_residuals])
    pooled = np.vstack(per_client_residuals)
    return MetricBundle(
        rmse_micro=rmse_micro(pooled),
        rmse_macro=rmse_macro(client_rmse),
        mae_macro=mae_macro(client_mae),
        per_bs_rmse=per_bs_rmse(pooled),
        per_client_rmse=client_rmse)


def pareto_frontier(points) -> list:
    """Non-dominated subset when minimizing (rmse_macro, uplink_mb).

    Sorted by MB ascending; exact duplicates are all kept.
    """
    if not points:
        raise MetricError("no points")
    frontier = []
    for p in points:
        dominated = any(
            q.uplink_mb <= p.uplink_mb and q.rmse_macro <= p.rmse_macro
            and (q.uplink_mb < p.uplink_mb or q.rmse_macro < p.rmse_macro)
            for q in points)
        if not dominated:
            frontier.append(p)
    return sorted(frontier, key=lambda p: (p.uplink_mb, p.rmse_macro))


def write_pareto_csv(points, path):
    """All sweep points with an on_frontier 0/1 flag."""
    front = {id(p) for p in pareto_frontier(points)}
    dat.write_csv(path, ["label", "rmse_macro", "uplink_mb", "on_frontier"], (
        [p.label, repr(p.rmse_macro), repr(p.uplink_mb),
         "1" if id(p) in front else "0"]
        for p in sorted(points, key=lambda p: (p.uplink_mb, p.rmse_macro))))
