"""End-to-end acceptance checks.

Each test prints an explicit PASS/FAIL line so the suite doubles as a
checklist when run with ``pytest -v -s tests/test_acceptance.py``.
"""

import hashlib
import os
import time

import numpy as np
import pytest

from remfl import cli
from remfl import compression as comp
from remfl import data as dat
from remfl import federation as fed
from remfl import metrics as met
from remfl import nn

SEEDS = (1, 2, 3)
DESK = dict(rounds=40, local_epochs=1)


def _check(num, name, fn):
    try:
        fn()
    except BaseException:
        print(f"\n[criterion {num:02d}] {name}: FAIL")
        raise
    print(f"\n[criterion {num:02d}] {name}: PASS")


# ---------------------------------------------------------------------------
# shared desk-scale runs (criteria 6, 7, 8)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def desk_runs(desk_heavy_partition):
    """pfl and fedavg on the 12-client heavy desk partition, seeds 1..3."""
    t0 = time.perf_counter()
    runs = {}
    for seed in SEEDS:
        for mode in ("pfl", "fedavg"):
            cfg = fed.RunConfig(mode=mode, seed=seed, **DESK)
            runs[(mode, seed)] = fed.run_training(desk_heavy_partition, cfg)
    runs["elapsed_s"] = time.perf_counter() - t0
    return runs


# ---------------------------------------------------------------------------
# 1. gradient correctness
# ---------------------------------------------------------------------------

def _fd_max_rel_err(seed):
    rng = np.random.default_rng(seed)
    dims = nn.ModelDims(
        in_dim=int(rng.integers(2, 6)), n_outputs=int(rng.integers(1, 4)),
        hidden1=int(rng.integers(2, 5)), hidden2=int(rng.integers(2, 5)),
        latent=int(rng.integers(3, 8)),
        head=("single", "two-layer")[int(rng.integers(2))],
        head_hidden=int(rng.integers(2, 5)), dropout=0.1)
    bb = nn.init_backbone(dims, rng)
    hd = nn.init_head(dims, rng)
    x = rng.normal(size=(3, dims.in_dim))
    y = rng.normal(size=(3, dims.n_outputs)) * 0.5

    z, bc = nn.backbone_forward(bb, x)
    pred, hc = nn.head_forward(hd, z)
    bg, hg = nn.backward(bb, hd, bc, hc, nn.huber_grad(pred, y))
    grad = np.concatenate([nn.flatten_backbone(bg), nn.flatten_head(hg)])
    flat = np.concatenate([nn.flatten_backbone(bb), nn.flatten_head(hd)])
    lb = nn.backbone_size(dims)

    def loss_at(p):
        b = nn.unflatten_backbone(p[:lb], dims)
        h = nn.unflatten_head(p[lb:], dims)
        zz, _ = nn.backbone_forward(b, x)
        pp, _ = nn.head_forward(h, zz)
        return nn.huber_loss(pp, y)

    step = 1e-5
    fd = np.empty(flat.size)
    for i in range(flat.size):
        up, dn = flat.copy(), flat.copy()
        up[i] += step
        dn[i] -= step
        fd[i] = (loss_at(up) - loss_at(dn)) / (2 * step)
    return np.max(np.abs(grad - fd) / np.maximum(np.abs(fd), 1e-6))


def test_criterion_01_gradient_correctness():
    def body():
        t0 = time.perf_counter()
        worst = max(_fd_max_rel_err(seed) for seed in range(20))
        elapsed = time.perf_counter() - t0
        assert worst < 1e-4, f"max relative error {worst:.3e}"
        assert elapsed < 10.0, f"took {elapsed:.1f}s"
    _check(1, "analytic gradients match finite differences", body)


# ---------------------------------------------------------------------------
# 2. codec round trip
# ---------------------------------------------------------------------------

def test_criterion_02_codec_round_trip():
    def body():
        t0 = time.perf_counter()
        rng = np.random.default_rng(2024)
        lengths = rng.integers(1, 64, size=100_000)
        for i in range(100_000):
            n = int(lengths[i])
            v = np.zeros(n)
            nnz = int(rng.integers(0, min(n, 8) + 1))
            if nnz:
                v[rng.choice(n, nnz, replace=False)] = rng.normal(size=nnz)
            q = comp.quantize(v, client_id=i % 256, round_no=i)
            back = comp.decode(comp.encode(q))
            assert np.array_equal(back.indices, q.indices)
            assert np.array_equal(back.qvalues, q.qvalues)
            assert back.scale == q.scale and back.length == q.length
            assert back.client_id == q.client_id and back.round == q.round
            err = np.max(np.abs(comp.dequantize(back) - v)) if n else 0.0
            assert err <= q.scale / 2 + 1e-12
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, f"took {elapsed:.1f}s"
    _check(2, "field-exact wire round trip and quantization bound", body)


# ---------------------------------------------------------------------------
# 3. error-feedback telescoping
# ---------------------------------------------------------------------------

def _stream(quantized, rounds=100, length=400, k=40, seed=3):
    rng = np.random.default_rng(seed)
    residual = np.zeros(length)
    transmitted = np.zeros(length)
    raw = np.zeros(length)
    bound = 0.0
    for _ in range(rounds):
        delta = rng.normal(size=length)
        raw += delta
        u = comp.accumulate(delta, residual)
        sparse = comp.top_k(u, k)
        residual = comp.residual_update(u, sparse)
        if quantized:
            q = comp.quantize(sparse)
            transmitted += comp.dequantize(q)
            bound += q.scale / 2
        else:
            transmitted += sparse
    return np.max(np.abs(transmitted + residual - raw)), bound


def test_criterion_03_error_feedback_telescoping():
    def body():
        gap, _ = _stream(quantized=False)
        assert gap < 1e-10, f"unquantized telescoping gap {gap:.3e}"
        gap_q, bound = _stream(quantized=True)
        assert gap_q <= bound + 1e-9, f"gap {gap_q:.3e} > bound {bound:.3e}"
    _check(3, "transmitted + residual telescopes to the raw sum", body)


# ---------------------------------------------------------------------------
# 4. top-k oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_04_top_k_oracle():
    def body():
        rng = np.random.default_rng(4)
        for _ in range(1000):
            n = int(rng.integers(1, 10_001))
            u = np.round(rng.normal(size=n), 2)  # coarse grid forces ties
            k = int(rng.integers(0, n + 1))
            kept = set(np.flatnonzero(comp.top_k(u, k)))
            order = sorted(range(n), key=lambda i: (-abs(u[i]), i))
            oracle = {i for i in order[:k] if u[i] != 0.0}
            assert kept == oracle
    _check(4, "top-k matches the brute-force sort oracle", body)


# ---------------------------------------------------------------------------
# 5. fedavg degeneracy oracle
# ---------------------------------------------------------------------------

def test_criterion_05_fedavg_degeneracy(desk_grid, desk_field):
    def body():
        part = dat.grid_partition(desk_grid, desk_field, "heavy",
                                  rows=2, cols=2, seed=5)
        assert len(part.clients) == 4
        common = dict(rounds=3, local_epochs=1, seed=1)
        degenerate = fed.run_training(part, fed.RunConfig(
            mode="pfl", split_head=False, sparsity=1.0, quantization=False,
            sync_period=1, ema_beta=0.0, head="single", **common))
        baseline = fed.run_training(part, fed.RunConfig(
            mode="fedavg", **common))
        dist = np.max(np.abs(degenerate.global_flat - baseline.global_flat))
        assert dist < 1e-9, f"parameter distance {dist:.3e}"
    _check(5, "degenerate pipeline reproduces the dense baseline", body)


# ---------------------------------------------------------------------------
# 6. directional accuracy ordering
# ---------------------------------------------------------------------------

def test_criterion_06_directional_ordering(desk_runs):
    def body():
        wins = 0
        for seed in SEEDS:
            pfl = desk_runs[("pfl", seed)].final.bundle.rmse_macro
            avg = desk_runs[("fedavg", seed)].final.bundle.rmse_macro
            print(f"  seed {seed}: pfl macro RMSE {pfl:.3f} dB, "
                  f"fedavg {avg:.3f} dB")
            wins += pfl < avg
        assert wins == 3, f"pfl won only {wins}/3 seeds"
        assert desk_runs["elapsed_s"] < 600.0, \
            f"desk runs took {desk_runs['elapsed_s']:.0f}s"
    _check(6, "personalized mode beats the dense baseline on macro RMSE 3/3",
           body)


# ---------------------------------------------------------------------------
# 7. communication reduction
# ---------------------------------------------------------------------------

def test_criterion_07_communication_reduction(desk_runs,
                                              desk_heavy_partition):
    def body():
        n_clients = len(desk_heavy_partition.clients)
        for seed in SEEDS:
            run = desk_runs[("pfl", seed)]
            f = run.final
            # counters must reproduce the documented byte formula exactly
            formula = comp.HEADER_BYTES * f.n_payloads + 5 * f.nnz_total
            assert f.cum_bytes == formula, \
                f"counter {f.cum_bytes} != formula {formula}"
            dense = DESK["rounds"] * n_clients * comp.dense_bytes(run.upload_len)
            ratio = f.cum_bytes / dense
            print(f"  seed {seed}: {f.cum_bytes / 1e6:.3f} MB vs dense "
                  f"{dense / 1e6:.1f} MB ({100 * ratio:.3f}%)")
            assert ratio < 0.03, f"ratio {ratio:.4f} >= 3%"
    _check(7, "compressed uplink under 3% of dense accounting, "
              "counters exact", body)


# ---------------------------------------------------------------------------
# 8. fairness trend
# ---------------------------------------------------------------------------

def test_criterion_08_fairness_trend(desk_runs):
    def body():
        wins = 0
        for seed in SEEDS:
            p = desk_runs[("pfl", seed)].final.bundle.per_bs_rmse
            a = desk_runs[("fedavg", seed)].final.bundle.per_bs_rmse
            pr, ar = p.max() - p.min(), a.max() - a.min()
            print(f"  seed {seed}: per-BS RMSE range pfl {pr:.3f} dB, "
                  f"fedavg {ar:.3f} dB")
            wins += pr <= ar
        assert wins >= 2, f"range no wider in only {wins}/3 seeds"
    _check(8, "per-base-station RMSE spread no wider than baseline 2/3", body)


# ---------------------------------------------------------------------------
# 9. non-iid partitioner
# ---------------------------------------------------------------------------

def _export_digest(part, root):
    dat.export_partition(part, root)
    h = hashlib.sha256()
    for base, _, files in sorted(os.walk(root)):
        for name in sorted(files):
            with open(os.path.join(base, name), "rb") as f:
                h.update(name.encode())
                h.update(f.read())
    return h.hexdigest()


def test_criterion_09_partitioner(desk_grid, desk_field, tmp_path):
    def body():
        n = desk_grid.width * desk_grid.height
        means = {}
        for scen in dat.SCENARIOS:
            mask = dat.scenario_filter(desk_field, scen)
            share = mask.sum() / n
            assert abs(share - 1 / 3) <= 0.02, \
                f"{scen} share {share:.4f} off by more than 2%"
            part = dat.grid_partition(desk_grid, desk_field, scen,
                                      rows=3, cols=4, seed=1)
            client_h = [desk_field.values[c.rc_train[:, 0].astype(int),
                                          c.rc_train[:, 1].astype(int)].mean()
                        for c in part.clients]
            means[scen] = float(np.mean(client_h))
        print(f"  mean client H: light {means['light']:.2f} < "
              f"medium {means['medium']:.2f} < heavy {means['heavy']:.2f}")
        assert means["light"] < means["medium"] < means["heavy"]
        part = dat.grid_partition(desk_grid, desk_field, "heavy",
                                  rows=3, cols=4, seed=1)
        d1 = _export_digest(part, tmp_path / "a")
        part = dat.grid_partition(desk_grid, desk_field, "heavy",
                                  rows=3, cols=4, seed=1)
        d2 = _export_digest(part, tmp_path / "b")
        assert d1 == d2, "partition export is not byte-identical"
    _check(9, "scenario shares, heterogeneity ordering, determinism", body)


# ---------------------------------------------------------------------------
# 10. sweep / pareto frontier
# ---------------------------------------------------------------------------

def test_criterion_10_sweep_pareto(desk_heavy_partition, tmp_path):
    def body():
        partdir = tmp_path / "part"
        dat.export_partition(desk_heavy_partition, partdir)
        out = tmp_path / "sweep"
        rc = cli.main(["sweep", "--partition", str(partdir),
                       "--rounds", "15", "--epochs", "1", "--seed", "1",
                       "--rho-grid", "0.005,0.01,0.05,1.0",
                       "--period-grid", "5", "--quant-grid", "on",
                       "-o", str(out)])
        assert rc == 0
        lines = (out / "pareto.csv").read_text().strip().split("\n")
        assert lines[0] == "label,rmse_macro,uplink_mb,on_frontier"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 4
        front = sorted(((float(r[2]), float(r[1])) for r in rows
                        if r[3] == "1"))
        dominated = [r[0] for r in rows if r[3] == "0"]
        print(f"  frontier {front}; dominated flagged 0: {dominated or '-'}")
        assert front, "empty frontier"
        for (m1, r1), (m2, r2) in zip(front, front[1:]):
            assert m2 > m1, "frontier MB not strictly increasing"
            assert r2 <= r1, "frontier RMSE increased with more MB"
    _check(10, "sweep frontier ordered and dominated points flagged", body)
