import dataclasses
import logging
import math
import multiprocessing
import os
import select
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from remfl import compression as comp
from remfl import data as dat
from remfl import federation as fed
from remfl import nn

TINY_ARCH = dict(hidden1=16, hidden2=16, latent=32, head_hidden=8)
# Counters and events that the forked workers share with the test.
FORK = multiprocessing.get_context("fork")


def tiny_cfg(**kw):
    base = dict(mode="pfl", rounds=4, local_epochs=1, sync_period=2,
                seed=1, **TINY_ARCH)
    base.update(kw)
    return fed.RunConfig(**base)


def next_call(calls):
    """Add one to the shared counter ``calls`` and return its new value."""
    with calls.get_lock():
        calls.value += 1
        return calls.value


def pin_workers(monkeypatch, n):
    """Run the round loop on ``n`` worker processes."""
    monkeypatch.setattr(fed, "_workers", lambda: n)


def one_client_state(partition, cfg, ds):
    """(dims, state) for ``ds`` alone, built as the round loop builds it."""
    dims = fed._model_dims(partition, cfg)
    start = nn.flatten_backbone(
        nn.init_backbone(dims, np.random.default_rng(0)))
    one = dataclasses.replace(partition, clients=[ds])
    [st] = fed._client_states(one, cfg, dims, start)
    return dims, st


# ---------------------------------------------------------------------------
# building blocks
# ---------------------------------------------------------------------------

def test_sample_clients_full_fraction():
    got = fed.sample_clients(12, 1.0, np.random.default_rng(0))
    assert np.array_equal(got, np.arange(12))


def test_sample_clients_rounding():
    assert fed.sample_clients(90, 0.1, np.random.default_rng(0)).size == 9
    assert fed.sample_clients(5, 0.01, np.random.default_rng(0)).size == 1


def test_sample_clients_deterministic():
    a = fed.sample_clients(50, 0.3, np.random.default_rng(4))
    b = fed.sample_clients(50, 0.3, np.random.default_rng(4))
    assert np.array_equal(a, b)


def test_aggregate_single_update():
    theta = np.zeros(5)
    delta = np.arange(5.0)
    assert np.array_equal(fed.aggregate(theta, [delta]), delta)


def test_aggregate_cancels():
    theta = np.ones(4)
    d = np.random.default_rng(0).normal(size=4)
    assert np.allclose(fed.aggregate(theta, [d, -d]), theta)


def test_aggregate_empty_is_identity():
    theta = np.ones(3)
    assert np.array_equal(fed.aggregate(theta, []), theta)


def test_aggregate_length_mismatch():
    with pytest.raises(fed.AggregationError):
        fed.aggregate(np.zeros(3), [np.zeros(4)])


def test_aggregate_index_beyond_length():
    beyond = (np.array([0, 3], np.uint32), np.ones(2, np.float32))
    payload = comp.encode(comp.quantize(np.ones(4)))
    for update in (beyond, payload):
        with pytest.raises(fed.AggregationError):
            fed.aggregate(np.zeros(3), [np.zeros(3), update])


def test_ema_extremes():
    shadow, theta = np.ones(3), np.full(3, 5.0)
    assert np.array_equal(fed.ema_update(shadow, theta, 0.0), theta)
    assert np.array_equal(fed.ema_update(shadow, theta, 1.0), shadow)


def test_ema_geometric_convergence():
    shadow, theta = np.array([0.0]), np.array([1.0])
    gaps = []
    for _ in range(5):
        shadow = fed.ema_update(shadow, theta, 0.9)
        gaps.append(abs(shadow[0] - theta[0]))
    ratios = [b / a for a, b in zip(gaps, gaps[1:])]
    assert np.allclose(ratios, 0.9)


def test_config_validation():
    with pytest.raises(ValueError):
        fed.RunConfig(sync_period=0)
    with pytest.raises(ValueError):
        fed.RunConfig(client_fraction=0.0)
    with pytest.raises(ValueError):
        fed.RunConfig(mode="bogus")
    with pytest.raises(ValueError):
        fed.RunConfig(seed=-1)
    assert fed.RunConfig(mode="epfl").mode == "pfl"  # accepted alias


def test_fedavg_preset_applied_at_construction():
    cfg = fed.RunConfig(mode="fedavg", sync_period=5, ema_beta=0.9,
                        quantization=True, head="two-layer")
    assert {k: getattr(cfg, k) for k in fed.FEDAVG} == fed.FEDAVG
    assert not cfg.periodic_sync
    # A copy with other values is still a fedavg run.
    assert dataclasses.replace(cfg, sync_period=3).sync_period == 1
    assert fed.RunConfig(sync_period=2).periodic_sync


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def test_zero_rounds_logs_initial_evaluation(small_partition):
    res = fed.run_training(small_partition, tiny_cfg(rounds=0))
    assert len(res.history) == 1
    assert res.history[0].round == 0
    assert res.final.cum_bytes == 0


def test_sync_cadence(small_partition):
    res = fed.run_training(small_partition, tiny_cfg(rounds=7, sync_period=3))
    n_clients = len(small_partition.clients)
    # payloads only at rounds 0, 3, 6 -> ceil(7/3) = 3 sync events
    assert res.final.n_payloads == 3 * n_clients
    sync_rounds = [after.round - 1
                   for before, after in zip(res.history, res.history[1:])
                   if after.n_payloads > before.n_payloads]
    assert sync_rounds == [0, 3, 6]


def test_r1_payload_every_round(small_partition):
    res = fed.run_training(small_partition, tiny_cfg(rounds=3, sync_period=1))
    assert res.final.n_payloads == 3 * len(small_partition.clients)


def test_head_stays_local(small_partition):
    res = fed.run_training(small_partition, tiny_cfg(rounds=2))
    assert res.upload_len == nn.backbone_size(res.dims)
    assert len(res.heads) == len(small_partition.clients)


def test_no_split_head_grows_payload(small_partition):
    a = fed.run_training(small_partition, tiny_cfg(rounds=1))
    b = fed.run_training(small_partition, tiny_cfg(rounds=1, split_head=False))
    assert b.upload_len == a.upload_len + nn.head_size(a.dims)


def test_zero_local_steps_gives_zero_payload(small_partition):
    cfg = tiny_cfg(rounds=1, sync_period=1)
    cfg.local_epochs = 0  # forced below the validated minimum on purpose
    res = fed.run_training(small_partition, cfg)
    assert res.final.nnz_total == 0
    assert res.final.cum_bytes == comp.HEADER_BYTES * len(small_partition.clients)


def test_training_deterministic(small_partition):
    a = fed.run_training(small_partition, tiny_cfg(rounds=3))
    b = fed.run_training(small_partition, tiny_cfg(rounds=3))
    assert np.array_equal(a.global_flat, b.global_flat)
    for ea, eb in zip(a.history, b.history):
        assert ea.bundle.rmse_macro == eb.bundle.rmse_macro
        assert ea.cum_bytes == eb.cum_bytes


def test_bytes_monotone_nondecreasing(small_partition):
    res = fed.run_training(small_partition, tiny_cfg(rounds=6))
    bytes_seq = [e.cum_bytes for e in res.history]
    assert all(b2 >= b1 for b1, b2 in zip(bytes_seq, bytes_seq[1:]))


def test_fedavg_single_client_delta(small_grid, small_field):
    part = dat.grid_partition(small_grid, small_field, "heavy",
                              rows=1, cols=1, seed=3)
    assert len(part.clients) == 1
    cfg = tiny_cfg(mode="fedavg", rounds=1)
    res = fed.run_training(part, cfg)
    # with one client the aggregated update IS its local delta; rerun locally
    dims = res.dims
    rngs = np.random.default_rng([cfg.seed, 1])
    bb = nn.init_backbone(dims, rngs)
    hd = nn.init_head(dims, np.random.default_rng([cfg.seed, 2]))
    start = np.concatenate([nn.flatten_backbone(bb), nn.flatten_head(hd)])
    [st] = fed._client_states(part, cfg, dims, start)
    fed.local_train(st, cfg, dims)
    assert np.allclose(res.global_flat, st.params, atol=1e-12)


def test_degenerate_pfl_equals_fedavg(small_partition):
    common = dict(rounds=3, local_epochs=1, seed=3, **TINY_ARCH)
    a = fed.run_training(small_partition, fed.RunConfig(
        mode="pfl", split_head=False, sparsity=1.0, quantization=False,
        sync_period=1, ema_beta=0.0, head="single", **common))
    b = fed.run_training(small_partition, fed.RunConfig(
        mode="fedavg", **common))
    assert np.array_equal(a.global_flat, b.global_flat)
    assert a.final.cum_bytes == b.final.cum_bytes
    assert a.final.n_payloads == b.final.n_payloads
    assert ([e.bundle.rmse_macro for e in a.history]
            == [e.bundle.rmse_macro for e in b.history])


def test_quantization_off_uses_float_accounting(small_partition):
    n = len(small_partition.clients)
    # With Top-K: a (u32 index, f32 value) pair per kept entry.
    res = fed.run_training(small_partition,
                           tiny_cfg(rounds=1, sync_period=1,
                                    quantization=False))
    assert res.final.cum_bytes == n * comp.sparse_float_bytes(res.k)
    # Without Top-K: the dense vector as float32.
    res = fed.run_training(small_partition,
                           tiny_cfg(rounds=1, sync_period=1,
                                    quantization=False, sparsity=1.0))
    assert res.final.cum_bytes == n * comp.dense_bytes(res.upload_len)


def test_sparsity_one_uploads_without_residual(small_partition, monkeypatch):
    transmit, residuals = comp.transmit, []

    def recording(delta, residual, *args):
        residuals.append(residual)
        return transmit(delta, residual, *args)

    pin_workers(monkeypatch, 1)  # records in this process
    monkeypatch.setattr(comp, "transmit", recording)
    res = fed.run_training(small_partition, tiny_cfg(rounds=2, sparsity=1.0))
    assert res.k == res.upload_len
    assert len(residuals) == res.final.n_payloads > 0
    assert all(r is None for r in residuals)


def test_client_sampling_fraction(small_partition):
    res = fed.run_training(small_partition,
                           tiny_cfg(rounds=2, sync_period=1,
                                    client_fraction=0.5))
    assert res.final.n_payloads == 2 * 2  # 2 of 4 clients per round


def test_local_divergence_raises(small_partition):
    ds = small_partition.clients[0]
    bad = dat.ClientDataset(
        client_id=0, tile=ds.tile,
        x_train=ds.x_train, y_train=np.full_like(ds.y_train, np.nan),
        x_test=ds.x_test, y_test=ds.y_test,
        rc_train=ds.rc_train, rc_test=ds.rc_test,
        coord_min=ds.coord_min, coord_max=ds.coord_max,
        label_mean=ds.label_mean, label_std=ds.label_std)
    cfg = tiny_cfg()
    dims, st = one_client_state(small_partition, cfg, bad)
    with pytest.raises(fed.TrainingDiverged):
        fed.local_train(st, cfg, dims)


def test_evaluate_single_client_micro_equals_macro(small_grid, small_field):
    part = dat.grid_partition(small_grid, small_field, "light",
                              rows=1, cols=1, seed=2)
    res = fed.run_training(part, tiny_cfg(rounds=1))
    b = res.final.bundle
    assert b.rmse_micro == pytest.approx(b.rmse_macro)


def test_roundlog_csv_schema(small_partition, tmp_path):
    res = fed.run_training(small_partition, tiny_cfg(rounds=2))
    path = tmp_path / "log.csv"
    fed.write_roundlog(res, "heavy", path)
    header, rows = fed.read_roundlog(path)
    m = small_partition.n_bs
    assert header == (["round", "scenario", "mode", "rmse_micro",
                       "rmse_macro", "mae_macro"]
                      + [f"rmse_bs_{i+1}" for i in range(m)]
                      + ["cum_uplink_mb", "wall_ms"])
    assert len(rows) == 3  # initial evaluation + 2 rounds
    assert rows[0]["round"] == "0" and rows[0]["mode"] == "pfl"
    assert float(rows[-1]["cum_uplink_mb"]) == res.final.cum_bytes / 1e6


# ---------------------------------------------------------------------------
# flat store and failure isolation
# ---------------------------------------------------------------------------

def _value(width=64):
    """Finite floats of ``width`` bits, with both signed zeros often: a
    float32 value can underflow to -0.0."""
    return st.one_of(st.sampled_from([0.0, -0.0]),
                     st.floats(allow_nan=False, allow_infinity=False,
                               width=width))


def _upload(form, length):
    """(wire form, its dense float64 vector) of one upload of ``length``."""
    if form == "dense-float64":
        return st.lists(_value(), min_size=length, max_size=length).map(
            lambda v: (np.array(v), np.array(v)))
    if form == "dense-float32":
        return st.lists(_value(32), min_size=length, max_size=length).map(
            lambda v: (np.array(v, np.float32), np.array(v)))
    index = st.sets(st.integers(0, length - 1)).map(
        lambda s: np.array(sorted(s), np.uint32))
    if form == "topk-float32":
        return index.flatmap(lambda i: st.lists(
            _value(32), min_size=i.size, max_size=i.size).map(
            lambda v: ((i, np.array(v, np.float32)), _scatter(i, v, length))))
    scale = st.floats(2.0**-100, 2.0**100, width=32)
    return st.tuples(index, scale).flatmap(lambda p: st.lists(
        st.integers(-comp.QMAX, comp.QMAX), min_size=p[0].size,
        max_size=p[0].size).map(lambda q: (
            comp.encode(comp.QuantizedUpdate(p[0], np.array(q, np.int8),
                                             p[1], length, 0, 0)),
            _scatter(p[0], np.array(q) * p[1], length))))


def _scatter(index, values, length):
    dense = np.zeros(length)
    dense[index] = values
    return dense


# Every wire form the server sums: dense float64 (the reference), the dense
# float32 of a result slot, Top-K (indices, float32 values) and QUP1.  Small
# lengths make uploads share indices.
@settings(max_examples=40)
@given(data=st.data(), length=st.integers(1, 12), n=st.integers(0, 9),
       form=st.sampled_from(["dense-float64", "dense-float32",
                             "topk-float32", "qup1"]))
def test_aggregate_unweighted_equals_stacked_mean_bitwise(data, length, n,
                                                          form):
    theta = data.draw(st.lists(_value(), min_size=length,
                               max_size=length).map(np.array))
    updates, dense = zip(*[data.draw(_upload(form, length))
                           for _ in range(n)]) if n else ((), ())
    # Sums of huge finite values overflow alike on both sides.  A theta of
    # -0.0 shows the sign of a zero mean.
    for theta in (theta, np.full(length, -0.0)):
        with np.errstate(over="ignore", invalid="ignore"):
            expect = theta + np.mean(np.stack(dense), axis=0) if n else theta
            got = fed.aggregate(theta, updates)
            streamed = fed.aggregate(theta, iter(updates))
        assert np.array_equal(got, expect, equal_nan=True)
        assert np.array_equal(streamed, expect, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(expect))


def test_local_train_updates_store_in_place(small_partition):
    cfg = tiny_cfg()
    dims, st = one_client_state(small_partition, cfg,
                                small_partition.clients[0])
    store, m, v = st.params, st.adam.m, st.adam.v
    before = store.copy()
    fed.local_train(st, cfg, dims)
    assert st.params is store and st.adam.m is m and st.adam.v is v
    lb = nn.backbone_size(dims)
    assert not np.array_equal(store[:lb], before[:lb])
    assert not np.array_equal(store[lb:], before[lb:])


def _arrays(obj):
    """Every array in a nest of tuples, lists, dicts and dataclasses."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif dataclasses.is_dataclass(obj):
        yield from _arrays(vars(obj))
    elif isinstance(obj, dict):
        yield from _arrays(list(obj.values()))
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _arrays(item)


def _train_recording_dtypes(partition, monkeypatch, dtype):
    """One local_train of client 0 with ``CLIENT_DTYPE`` = ``dtype``:
    (state, the dtype of every array nn's passes returned or Adam took,
    the dropout masks)."""
    cfg = tiny_cfg()
    seen, masks = [], []

    def record(name, fn):
        def wrapped(*args, **kwargs):
            out = fn(*args, **kwargs)
            seen.extend(_arrays((args, kwargs) if name == "adam_step" else out))
            if name == "head_forward":
                masks.append(out[1]["mask"])
            return out
        return wrapped

    with monkeypatch.context() as mp:
        mp.setattr(fed, "CLIENT_DTYPE", dtype)
        for name in ("backbone_forward", "head_forward", "huber_grad",
                     "backward", "adam_step"):
            mp.setattr(nn, name, record(name, getattr(nn, name)))
        dims, st = one_client_state(partition, cfg, partition.clients[0])
        fed.local_train(st, cfg, dims)
    return st, {a.dtype for a in seen}, masks


def test_float32_store_trains_without_promotion(small_partition, monkeypatch):
    st, dtypes, masks = _train_recording_dtypes(small_partition, monkeypatch,
                                                np.float32)
    f32 = np.dtype(np.float32)
    # Every cache array, the loss seed, the gradient, Adam's moments.
    assert dtypes == {f32}
    assert masks and all(m.dtype == f32 for m in masks)
    assert all(a.dtype == f32 for a in (st.params, st.adam.m, st.adam.v,
                                        st.residual, st.dataset.x_train,
                                        st.dataset.y_train))
    # The dropout draw is float64 either way: the rng stream does not move.
    ref, ref_dtypes, _ = _train_recording_dtypes(small_partition,
                                                 monkeypatch, np.float64)
    assert ref_dtypes == {np.dtype(np.float64)}
    assert st.rng.bit_generator.state == ref.rng.bit_generator.state
    assert np.allclose(st.params, ref.params, atol=1e-4)


def _nan_on_last_minibatch(monkeypatch, n_calls):
    """Make nn.huber_grad return NaN on its n_calls-th call only, counted
    across the worker processes."""
    real = nn.huber_grad
    calls = FORK.Value("q", 0)

    def poisoned(pred, target, delta=1.0):
        call = next_call(calls)
        g = real(pred, target, delta)
        return np.full_like(g, np.nan) if call == n_calls else g

    monkeypatch.setattr(nn, "huber_grad", poisoned)


@pytest.mark.parametrize("mode", ["fedavg", "pfl"])
def test_last_step_divergence_skips_client(small_partition, monkeypatch,
                                           mode):
    cfg = tiny_cfg(mode=mode, rounds=1, sync_period=1, batch_size=16)
    steps = [-(-ds.n_train // cfg.batch_size)
             for ds in small_partition.clients]
    # The final minibatch of client 1: the step no loss check follows.
    # Counting calls finds it only when the clients train one by one.
    pin_workers(monkeypatch, 1)
    _nan_on_last_minibatch(monkeypatch, steps[0] + steps[1])
    res = fed.run_training(small_partition, cfg)
    assert res.final.n_payloads == len(small_partition.clients) - 1
    assert np.all(np.isfinite(res.global_flat))


def test_local_train_raises_on_non_finite_final_step(small_partition,
                                                     monkeypatch):
    cfg = tiny_cfg(sparsity=1.0)
    ds = small_partition.clients[0]
    dims, st = one_client_state(small_partition, cfg, ds)
    _nan_on_last_minibatch(monkeypatch, -(-ds.n_train // cfg.batch_size))
    with pytest.raises(fed.TrainingDiverged, match="parameters"):
        fed.local_train(st, cfg, dims)


@pytest.mark.parametrize("mode", ["fedavg", "pfl"])
def test_diverged_client_is_rolled_back(small_partition, monkeypatch, mode):
    cfg = tiny_cfg(mode=mode, rounds=4, sync_period=1,
                   batch_size=max(ds.n_train for ds in small_partition.clients))
    # The first step of round 0, of client 0 or 1, gets a NaN gradient.
    pin_workers(monkeypatch, 2)
    _nan_on_last_minibatch(monkeypatch, 1)
    res = fed.run_training(small_partition, cfg)
    n = len(small_partition.clients)
    assert res.final.n_payloads == cfg.rounds * n - 1
    assert all(np.isfinite(e.bundle.rmse_macro) for e in res.history)
    assert np.all(np.isfinite(res.global_flat))


@pytest.mark.parametrize("mode", ["fedavg", "pfl"])
def test_client_with_inf_label_is_skipped_every_round(small_partition,
                                                      monkeypatch, mode):
    pin_workers(monkeypatch, 2)
    clients = list(small_partition.clients)
    clients[1] = dataclasses.replace(
        clients[1], y_train=np.full_like(clients[1].y_train, np.inf))
    part = dataclasses.replace(small_partition, clients=clients)
    cfg = tiny_cfg(mode=mode, rounds=3, sync_period=1)
    res = fed.run_training(part, cfg)
    n = len(part.clients)
    assert res.final.n_payloads == cfg.rounds * (n - 1)
    assert all(np.isfinite(e.bundle.rmse_macro) for e in res.history)
    assert np.all(np.isfinite(res.global_flat))


@pytest.mark.parametrize("failing", [(0, 1), (1,)], ids=["rounds-0-1",
                                                         "round-1"])
def test_rollback_restores_start_params_with_fresh_optimizer(
        small_partition, monkeypatch, tmp_path, failing):
    # sync_period=3: round 0 resyncs, rounds 1 and 2 do not, so client 0's
    # next call sees exactly what the rollback left behind.  Failing in
    # round 1 only, the client has Adam history that must not survive.
    cfg = tiny_cfg(rounds=3, sync_period=3)
    pin_workers(monkeypatch, 2)
    real = fed.local_train
    # Client 0's (params, m, v, step) at each call, one file per call: the
    # calls run in the workers, one round after another.
    snapshots = tmp_path / "client0"
    snapshots.mkdir()

    def flaky(state, *args, **kwargs):
        if state.client_id != 0:
            return real(state, *args, **kwargs)
        call = len(list(snapshots.iterdir()))
        np.savez(snapshots / f"{call}.npz", params=state.params,
                 m=state.adam.m, v=state.adam.v, step=state.adam.step)
        real(state, *args, **kwargs)  # moves the moments and the step on
        if call in failing:
            state.params[:] = np.nan
            state.adam.m[:] = np.nan
            raise fed.TrainingDiverged("client 0: injected")

    monkeypatch.setattr(fed, "local_train", flaky)
    res = fed.run_training(small_partition, cfg)
    entries = []
    for call in range(len(list(snapshots.iterdir()))):
        with np.load(snapshots / f"{call}.npz") as f:
            entries.append((f["params"], f["m"], f["v"], int(f["step"])))
    assert len(entries) == 3
    for t in failing:
        params, m, v, step = entries[t + 1]
        assert np.array_equal(params, entries[t][0])
        assert not m.any() and not v.any() and step == 0
    if 0 in failing:
        assert res.final.n_payloads == len(small_partition.clients) - 1
    assert np.all(np.isfinite(res.global_flat))


def test_unquantizable_upload_rolls_back_and_keeps_residual(
        small_partition, monkeypatch, tmp_path, caplog):
    cfg = tiny_cfg(rounds=1, sync_period=1)
    pin_workers(monkeypatch, 2)
    real_quantize, real_train = comp.quantize, fed.local_train
    real_states = fed._client_states
    seen = {}  # the run's client states, as the server holds them
    start = tmp_path / "start.npy"  # client 1's params at its round's start

    def states(*args):
        seen["states"] = real_states(*args)
        return seen["states"]

    def train(state, *args, **kwargs):
        if state.client_id == 1:
            np.save(start, state.params)
        return real_train(state, *args, **kwargs)

    def quantize(update, client_id=0, round_no=0):
        if client_id == 1:
            raise comp.UnencodableUpdate("client 1: injected")
        return real_quantize(update, client_id, round_no)

    monkeypatch.setattr(fed, "_client_states", states)
    monkeypatch.setattr(fed, "local_train", train)
    monkeypatch.setattr(comp, "quantize", quantize)
    with caplog.at_level(logging.WARNING, logger="remfl.federation"):
        res = fed.run_training(small_partition, cfg)
    skipped = [r for r in caplog.records if "client skipped" in r.getMessage()]
    assert [r.args[0] for r in skipped] == [0]
    assert res.final.n_payloads == len(small_partition.clients) - 1
    st = seen["states"][1]
    assert np.array_equal(st.params, np.load(start))
    assert not st.residual.any()  # error feedback as before the round
    assert not st.adam.m.any() and st.adam.step == 0


class _SkipLog(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.rounds = []

    def emit(self, record):
        if "client skipped" in record.getMessage():
            self.rounds.append(record.args[0])


def _run_counting_adam_steps(partition, cfg, poison_at=None, index=0):
    """(result, adam_step calls, skipped rounds) on two workers; with
    ``poison_at``, the gradient of that call (1-based, counted across the
    workers) gets a NaN at ``index``."""
    real = nn.adam_step
    calls = FORK.Value("q", 0)

    def counted(state, params, grads, *args, **kwargs):
        if next_call(calls) == poison_at:
            grads[index % grads.size] = np.nan
        return real(state, params, grads, *args, **kwargs)

    skips = _SkipLog()
    logger = logging.getLogger(fed.__name__)
    logger.addHandler(skips)
    try:
        with pytest.MonkeyPatch.context() as mp:
            pin_workers(mp, 2)
            mp.setattr(nn, "adam_step", counted)
            res = fed.run_training(partition, cfg)
    finally:
        logger.removeHandler(skips)
    return res, calls.value, skips.rounds


@settings(max_examples=10)
@given(data=st.data())
def test_one_injected_nan_costs_exactly_one_payload(small_partition, data):
    cfg = tiny_cfg(rounds=2, sync_period=1)
    clean, n_calls, clean_skips = _run_counting_adam_steps(small_partition,
                                                           cfg)
    assert clean_skips == []
    at = data.draw(st.integers(1, n_calls))
    index = data.draw(st.integers(0, 2**31))
    res, _, skipped = _run_counting_adam_steps(small_partition, cfg, at,
                                               index)
    assert np.all(np.isfinite(res.global_flat))
    assert res.final.n_payloads == clean.final.n_payloads - 1
    assert len(skipped) == 1


# ---------------------------------------------------------------------------
# clients on worker processes
# ---------------------------------------------------------------------------

def _outputs(res):
    """Every output of a run but its wall times, as bytes and values."""
    history = [(e.round, e.cum_bytes, e.n_payloads, e.nnz_total,
                e.bundle.rmse_micro, e.bundle.rmse_macro, e.bundle.mae_macro,
                e.bundle.per_bs_rmse.tobytes(),
                e.bundle.per_client_rmse.tobytes()) for e in res.history]
    return (res.global_flat.tobytes(), [h.tobytes() for h in res.heads],
            history)


# Every upload form: QUP1 (pfl), Top-K float32, dense float32 and the
# shared-head dense float32 of fedavg.
@pytest.mark.parametrize("kw", [
    dict(), dict(mode="fedavg"), dict(client_fraction=0.5),
    dict(sync_period=1), dict(quantization=False),
    dict(sparsity=1.0, quantization=False)],
    ids=["pfl", "fedavg", "half-sampled", "sync-1", "topk-float32",
         "dense-float32"])
def test_worker_count_changes_no_output(small_partition, monkeypatch, kw):
    cfg = tiny_cfg(rounds=4, **kw)
    runs = []
    interval = sys.getswitchinterval()
    # Switch threads often: the pool's own threads run beside the loop.
    sys.setswitchinterval(1e-5)
    try:
        for n in (1, 2, 3, 6):
            pin_workers(monkeypatch, n)
            runs.append(_outputs(fed.run_training(small_partition, cfg)))
    finally:
        sys.setswitchinterval(interval)
    assert runs[1:] == runs[:1] * 3


# Each upload form with whether it returns through a result slot: QUP1
# payloads and Top-K pairs return with their task's outcome.
UPLOAD_FORMS = {"qup1": (dict(), False),
                "topk-float32": (dict(quantization=False), False),
                "dense-float32": (dict(sparsity=1.0, quantization=False),
                                  True),
                "fedavg": (dict(mode="fedavg"), True)}


@pytest.mark.parametrize("kw, dense", UPLOAD_FORMS.values(),
                         ids=UPLOAD_FORMS.keys())
def test_result_slots_only_for_dense_uploads(small_partition, monkeypatch,
                                             kw, dense):
    runs, made = [], []
    evaluate, shared = fed.evaluate, fed._shared

    def recording_evaluate(run, *args):
        runs.append(run)
        return evaluate(run, *args)

    def recording_shared(dtype, *shape):
        made.append(np.dtype(dtype).itemsize * math.prod(shape))
        return shared(dtype, *shape)

    monkeypatch.setattr(fed, "evaluate", recording_evaluate)
    monkeypatch.setattr(fed, "_shared", recording_shared)
    cfg = tiny_cfg(rounds=1, **kw)
    res = fed.run_training(small_partition, cfg)
    assert res.final.n_payloads == len(small_partition.clients)
    slots = runs[0].slots
    if dense:
        assert slots.dtype == fed.CLIENT_DTYPE
        assert slots.shape == (len(small_partition.clients), res.upload_len)
    else:
        assert slots is None
    # The size check before a run counts exactly what the run maps.
    assert sum(made) == fed.shared_bytes(small_partition, cfg)


def test_skips_are_logged_in_participant_order(small_partition, monkeypatch,
                                               caplog):
    # Client 3 fails before client 1 does; the log still names 1 first.
    cfg = tiny_cfg(rounds=1, sync_period=1)
    pin_workers(monkeypatch, 2)
    real = fed.local_train
    three_failed = FORK.Event()

    def train(state, *args, **kwargs):
        if state.client_id == 1:
            assert three_failed.wait(timeout=60)
            time.sleep(0.1)
        elif state.client_id == 3:
            three_failed.set()
        else:
            return real(state, *args, **kwargs)
        raise fed.TrainingDiverged(f"client {state.client_id}: injected")

    monkeypatch.setattr(fed, "local_train", train)
    with caplog.at_level(logging.WARNING, logger="remfl.federation"):
        res = fed.run_training(small_partition, cfg)
    skipped = [r.getMessage() for r in caplog.records
               if "client skipped" in r.getMessage()]
    assert len(skipped) == 2
    assert "client 1:" in skipped[0] and "client 3:" in skipped[1]
    assert res.final.n_payloads == len(small_partition.clients) - 2


def test_unexpected_error_propagates_and_stops_the_workers(small_partition,
                                                          monkeypatch):
    pin_workers(monkeypatch, 2)
    real = fed.local_train

    def train(state, *args, **kwargs):
        if state.client_id == 2:
            raise KeyError("injected")
        return real(state, *args, **kwargs)

    before = threading.active_count()
    assert multiprocessing.active_children() == []
    fed.run_training(small_partition, tiny_cfg())
    assert multiprocessing.active_children() == []
    assert threading.active_count() == before
    monkeypatch.setattr(fed, "local_train", train)
    with pytest.raises(KeyError, match="injected"):
        fed.run_training(small_partition, tiny_cfg())
    assert multiprocessing.active_children() == []
    assert threading.active_count() == before


# An endless 2-worker run that prints the pid of each process that trains.
_ENDLESS_RUN = """
import os
from remfl import data as dat, federation as fed
fed._workers = lambda: 2
grid = dat.generate_synthetic_map(dat.SyntheticMapConfig(
    seed=7, width=32, height=32, n_bs=4, n_features=8))
part = dat.grid_partition(grid, dat.heterogeneity(grid), "heavy", rows=2,
                          cols=2, seed=1)
real = fed.local_train

def train(state, *args, **kwargs):
    # One write of a short line: the two workers' lines never interleave.
    os.write(1, b"%d\\n" % os.getpid())
    return real(state, *args, **kwargs)

fed.local_train = train
fed.run_training(part, fed.RunConfig(rounds=10**9, local_epochs=1,
                                     hidden1=16, hidden2=16, latent=32,
                                     head_hidden=8))
"""


def _running(pid):
    """Whether ``pid`` is a live process, not gone or a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def test_workers_end_when_the_parent_is_killed():
    src = os.path.dirname(os.path.dirname(fed.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen([sys.executable, "-c", _ENDLESS_RUN], env=env,
                            stdout=subprocess.PIPE, text=True)
    workers = set()
    try:
        deadline = time.monotonic() + 60
        while len(workers) < 2 and time.monotonic() < deadline:
            if select.select([proc.stdout], [], [], 1.0)[0]:
                workers.add(int(proc.stdout.readline()))
        assert len(workers) == 2 and proc.pid not in workers
    finally:
        proc.send_signal(signal.SIGKILL)  # no finally of the run's runs
        proc.wait(timeout=60)
        proc.stdout.close()
    deadline = time.monotonic() + 30
    while any(map(_running, workers)) and time.monotonic() < deadline:
        time.sleep(0.2)
    left = [pid for pid in workers if _running(pid)]
    for pid in left:
        os.kill(pid, signal.SIGKILL)
    assert left == []


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


@pytest.mark.parametrize("env, want", [
    ({}, 1),
    ({"OPENBLAS_NUM_THREADS": "1"}, 4),
    ({"OPENBLAS_NUM_THREADS": "2"}, 2),
    ({"OPENBLAS_NUM_THREADS": "3"}, 1),
    ({"OPENBLAS_NUM_THREADS": "8"}, 1),
    ({"OPENBLAS_NUM_THREADS": "0"}, 1),
    ({"OPENBLAS_NUM_THREADS": "abc"}, 1),
    ({"GOTO_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 2),
    ({"OMP_NUM_THREADS": "1"}, 4),
    # As OpenBLAS does, a value that is not a positive count is passed over.
    ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 4),
    ({"OPENBLAS_NUM_THREADS": "abc", "GOTO_NUM_THREADS": "2"}, 2),
], ids=lambda v: (",".join(f"{k}={x}" for k, x in v.items()) or "unset")
    if isinstance(v, dict) else None)
def test_workers_are_cpus_over_blas_threads(monkeypatch, env, want):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3},
                        raising=False)
    for name in BLAS_VARS:
        monkeypatch.delenv(name, raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    assert fed._workers() == want


def test_one_worker_where_processes_cannot_fork(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3},
                        raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    assert fed._workers() == 4
    monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                        lambda: ["spawn", "forkserver"])
    assert fed._workers() == 1


def test_workers_without_affinity_use_cpu_count(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    for name in BLAS_VARS:
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    assert fed._workers() == 3
