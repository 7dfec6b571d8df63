import dataclasses
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from remfl import compression as comp
from remfl import data as dat
from remfl import federation as fed
from remfl import nn

TINY_ARCH = dict(hidden1=16, hidden2=16, latent=32, head_hidden=8)


def tiny_cfg(**kw):
    base = dict(mode="pfl", rounds=4, local_epochs=1, sync_period=2,
                seed=1, **TINY_ARCH)
    base.update(kw)
    return fed.RunConfig(**base)


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
        mode="pfl", split_head=False, topk=False, quantization=False,
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
                                    quantization=False, topk=False))
    assert res.final.cum_bytes == n * comp.dense_bytes(res.upload_len)


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

@settings(max_examples=10)
@given(data=st.data(), length=st.integers(1, 12), n=st.integers(1, 9))
def test_aggregate_unweighted_equals_stacked_mean_bitwise(data, length, n):
    vector = st.lists(st.floats(allow_nan=False, allow_infinity=False),
                      min_size=length, max_size=length).map(np.array)
    theta = data.draw(vector)
    updates = [data.draw(vector) for _ in range(n)]
    # Sums of huge finite values overflow alike on both sides.
    with np.errstate(over="ignore", invalid="ignore"):
        expect = theta + np.mean(np.stack(updates), axis=0)
        got = fed.aggregate(theta, updates)
    assert np.array_equal(got, expect, equal_nan=True)


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


def _nan_on_last_minibatch(monkeypatch, n_calls):
    """Make nn.huber_grad return NaN on its n_calls-th call only."""
    real = nn.huber_grad
    calls = []

    def poisoned(pred, target, delta=1.0):
        calls.append(1)
        g = real(pred, target, delta)
        return np.full_like(g, np.nan) if len(calls) == n_calls else g

    monkeypatch.setattr(nn, "huber_grad", poisoned)


@pytest.mark.parametrize("mode", ["fedavg", "pfl"])
def test_last_step_divergence_skips_client(small_partition, monkeypatch,
                                           mode):
    cfg = tiny_cfg(mode=mode, rounds=1, sync_period=1, batch_size=16)
    steps = [-(-ds.n_train // cfg.batch_size)
             for ds in small_partition.clients]
    # The final minibatch of client 1: the step no loss check follows.
    _nan_on_last_minibatch(monkeypatch, steps[0] + steps[1])
    res = fed.run_training(small_partition, cfg)
    assert res.final.n_payloads == len(small_partition.clients) - 1
    assert np.all(np.isfinite(res.global_flat))


def test_local_train_raises_on_non_finite_final_step(small_partition,
                                                     monkeypatch):
    cfg = tiny_cfg(topk=False)
    ds = small_partition.clients[0]
    dims, st = one_client_state(small_partition, cfg, ds)
    _nan_on_last_minibatch(monkeypatch, -(-ds.n_train // cfg.batch_size))
    with pytest.raises(fed.TrainingDiverged, match="parameters"):
        fed.local_train(st, cfg, dims)


@pytest.mark.parametrize("mode", ["fedavg", "pfl"])
def test_diverged_client_is_rolled_back(small_partition, monkeypatch, mode):
    cfg = tiny_cfg(mode=mode, rounds=4, sync_period=1,
                   batch_size=max(ds.n_train for ds in small_partition.clients))
    # Client 0's only step of round 0 gets a NaN gradient.
    _nan_on_last_minibatch(monkeypatch, 1)
    res = fed.run_training(small_partition, cfg)
    n = len(small_partition.clients)
    assert res.final.n_payloads == cfg.rounds * n - 1
    assert all(np.isfinite(e.bundle.rmse_macro) for e in res.history)
    assert np.all(np.isfinite(res.global_flat))


@pytest.mark.parametrize("mode", ["fedavg", "pfl"])
def test_client_with_inf_label_is_skipped_every_round(small_partition, mode):
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
        small_partition, monkeypatch, failing):
    # sync_period=3: round 0 resyncs, rounds 1 and 2 do not, so client 0's
    # next call sees exactly what the rollback left behind.  Failing in
    # round 1 only, the client has Adam history that must not survive.
    cfg = tiny_cfg(rounds=3, sync_period=3)
    real = fed.local_train
    entries = []  # client 0's (params, m, v, step) at each call

    def flaky(state, *args, **kwargs):
        if state.client_id != 0:
            return real(state, *args, **kwargs)
        entries.append((state.params.copy(), state.adam.m.copy(),
                        state.adam.v.copy(), state.adam.step))
        real(state, *args, **kwargs)  # moves the moments and the step on
        if len(entries) - 1 in failing:
            state.params[:] = np.nan
            state.adam.m[:] = np.nan
            raise fed.TrainingDiverged("client 0: injected")

    monkeypatch.setattr(fed, "local_train", flaky)
    res = fed.run_training(small_partition, cfg)
    assert len(entries) == 3
    for t in failing:
        params, m, v, step = entries[t + 1]
        assert np.array_equal(params, entries[t][0])
        assert not m.any() and not v.any() and step == 0
    if 0 in failing:
        assert res.final.n_payloads == len(small_partition.clients) - 1
    assert np.all(np.isfinite(res.global_flat))


def test_unquantizable_upload_rolls_back_and_keeps_residual(
        small_partition, monkeypatch, caplog):
    cfg = tiny_cfg(rounds=1, sync_period=1)
    real_quantize, real_train = comp.quantize, fed.local_train
    seen = {}  # client 1: its state and params at the start of the round

    def train(state, *args, **kwargs):
        if state.client_id == 1:
            seen.update(state=state, start=state.params.copy())
        return real_train(state, *args, **kwargs)

    def quantize(update, client_id=0, round_no=0):
        if client_id == 1:
            raise comp.UnencodableUpdate("client 1: injected")
        return real_quantize(update, client_id, round_no)

    monkeypatch.setattr(fed, "local_train", train)
    monkeypatch.setattr(comp, "quantize", quantize)
    with caplog.at_level(logging.WARNING, logger="remfl.federation"):
        res = fed.run_training(small_partition, cfg)
    skipped = [r for r in caplog.records if "client skipped" in r.getMessage()]
    assert [r.args[0] for r in skipped] == [0]
    assert res.final.n_payloads == len(small_partition.clients) - 1
    st = seen["state"]
    assert np.array_equal(st.params, seen["start"])
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
    """(result, adam_step calls, skipped rounds); with ``poison_at``, the
    gradient of that call (1-based) gets a NaN at ``index``."""
    real = nn.adam_step
    calls = []

    def counted(state, params, grads, *args, **kwargs):
        calls.append(1)
        if len(calls) == poison_at:
            grads[index % grads.size] = np.nan
        return real(state, params, grads, *args, **kwargs)

    skips = _SkipLog()
    logger = logging.getLogger(fed.__name__)
    logger.addHandler(skips)
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(nn, "adam_step", counted)
            res = fed.run_training(partition, cfg)
    finally:
        logger.removeHandler(skips)
    return res, len(calls), skips.rounds


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
