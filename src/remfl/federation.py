"""Federated orchestration: broadcast, local training, compressed uplink
and server aggregation, in one round loop.

At a sync round (t mod R == 0) each sampled client resyncs to the broadcast
model, trains, and uploads its delta through ``compression.transmit``; the
server averages what it receives.  Between syncs clients train on from
their local state.  Evaluation reads an EMA shadow of the global model.
``pfl`` runs the loop with every component on: personal heads
(``split_head``), error feedback + Top-K (which run exactly when
``sparsity`` < 1), 8-bit quantization, a sync every ``sync_period`` rounds
and an EMA with ``ema_beta`` > 0.  ``fedavg`` is the same loop with the
``FEDAVG`` preset, which RunConfig applies when it is built: those five off
(``sparsity=1``; ``sync_period=1``; ``ema_beta=0``, so the shadow equals
the model) and a single-layer head, i.e. one global model uploaded dense
every round.

A client whose training diverges, or whose upload the wire cannot carry (a
QUP1 scale or a float32 value out of range), is rolled back to its
parameters at the start of the round with a fresh optimizer (zero Adam
moments, step 0), and skipped for that round.  Heads leave a run as flat
vectors, slices of the client stores.

Clients train and evaluate in ``CLIENT_DTYPE`` (float32): their stores,
Adam moments, residuals, data and work buffers, and the copies of the
broadcast and of the EMA shadow they read.  The server keeps float64: the
global model, the aggregate, the EMA shadow and the metrics.  A client's
delta is taken against the float32 broadcast it resynced to, so a client
that takes no step sends an exactly zero delta.

A round's clients train, and every client's test pass runs, on a thread
pool of ``_workers()`` threads, each with its own gradient, Adam and
rollback buffers; a client's state is touched only by its own task.  The
broadcast model is read-only while they run.  The server takes their
uploads, and logs their skips, in participant order, summing each update as
it arrives, so the worker count changes no output.
"""

from __future__ import annotations

import dataclasses
import logging
import math
import os
import queue
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from . import compression as comp
from . import data as dat
from . import metrics as met
from . import nn

log = logging.getLogger(__name__)


class AggregationError(ValueError):
    """Mismatched update lengths at the server."""


class TrainingDiverged(RuntimeError):
    """Non-finite loss or parameters during a client's local epochs."""


MODES = ("pfl", "fedavg")
MODE_ALIASES = {"epfl": "pfl"}
# fedavg: one shared model, uploaded whole, dense and every round, and
# evaluated as it is.
FEDAVG = dict(split_head=False, sparsity=1.0, quantization=False,
              sync_period=1, ema_beta=0.0, head="single")
# What clients train and evaluate in; the server's state stays float64.
CLIENT_DTYPE = np.float32


@dataclass
class RunConfig:
    mode: str = "pfl"
    rounds: int = 40
    local_epochs: int = 2
    sync_period: int = 5
    sparsity: float = 0.01  # fraction Top-K keeps; 1.0 is no Top-K
    client_fraction: float = 1.0
    ema_beta: float = 0.99
    # ablation toggles
    split_head: bool = True
    quantization: bool = True
    # local training
    batch_size: int = 64
    lr: float = 1e-3
    huber_delta: float = 1.0
    seed: int = 0
    # architecture
    hidden1: int = 256
    hidden2: int = 256
    latent: int = 512
    head: str = "two-layer"
    head_hidden: int = 128
    dropout: float = 0.1

    def __post_init__(self):
        self.mode = MODE_ALIASES.get(self.mode, self.mode)
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "fedavg":
            for key, value in FEDAVG.items():
                setattr(self, key, value)
        if self.sync_period < 1:
            raise ValueError("sync_period must be >= 1")
        if self.local_epochs < 1:
            raise ValueError("local_epochs must be >= 1")
        if not 0.0 < self.client_fraction <= 1.0:
            raise ValueError("client_fraction must be in (0, 1]")
        if not 0.0 <= self.ema_beta <= 1.0:
            raise ValueError("ema_beta must be in [0, 1]")
        if not 0.0 < self.sparsity <= 1.0:
            raise ValueError("sparsity must be in (0, 1]")
        if self.rounds < 0:
            raise ValueError("rounds must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        for key in ("batch_size", "hidden1", "hidden2", "latent",
                    "head_hidden"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be >= 1")
        if not 0.0 < self.lr < math.inf:
            raise ValueError("lr must be finite and > 0")
        if not self.huber_delta > 0.0:
            raise ValueError("huber_delta must be > 0")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        if self.head not in ("single", "two-layer"):
            raise ValueError("head must be 'single' or 'two-layer'")

    @property
    def periodic_sync(self) -> bool:
        """Whether clients train on between syncs.  Not a field: the
        schedule is ``sync_period`` alone.  The name stays, read-only,
        because the benchmark's gate (perfbench/gate.py) reads it."""
        return self.sync_period > 1


@dataclass
class RoundEntry:
    round: int
    bundle: met.MetricBundle
    cum_bytes: int
    n_payloads: int
    nnz_total: int
    wall_ms: float


@dataclass
class ClientState:
    """One client's model, optimizer and data.

    ``params`` is the client's parameter store: one ``CLIENT_DTYPE``
    vector holding the backbone then the head in wire order (see
    ``nn.backbone_view`` and ``nn.head_view``).  The Adam moments, the
    residual and the dataset's x/y arrays are ``CLIENT_DTYPE`` too.
    """

    client_id: int
    params: np.ndarray
    residual: np.ndarray | None  # error feedback; None at sparsity 1
    adam: nn.AdamState
    rng: np.random.Generator
    dataset: object


@dataclass
class RunResult:
    config: RunConfig
    history: list
    global_flat: np.ndarray
    heads: list  # per-client flat heads (split_head) or [shared flat head]
    dims: nn.ModelDims
    upload_len: int
    k: int

    @property
    def final(self) -> RoundEntry:
        return self.history[-1]


def sample_clients(n_clients, fraction, rng) -> np.ndarray:
    """Uniform without replacement, size max(1, round(fraction * N))."""
    size = max(1, int(round(fraction * n_clients)))
    return np.sort(rng.choice(n_clients, size=size, replace=False))


def aggregate(flat_global, updates) -> np.ndarray:
    """theta + mean of decoded updates; identity on an empty set.

    ``updates`` is read once, in order, so a generator lets the server hold
    one update at a time.  The first update is copied, each other one added
    to it and the sum divided once: the bits of np.mean over a stack of
    float64 updates, without the stack.
    """
    mean, n = None, 0
    for u in updates:
        if u.shape != flat_global.shape:
            raise AggregationError(
                f"update length {u.size} != model length {flat_global.size}")
        if mean is None:
            mean = u.astype(np.float64)
        else:
            mean += u
        n += 1
    if mean is None:
        return flat_global.copy()
    mean /= n
    return flat_global + mean


def ema_update(shadow, theta, beta) -> np.ndarray:
    return beta * shadow + (1.0 - beta) * theta


def _model_dims(partition, cfg: RunConfig) -> nn.ModelDims:
    return nn.ModelDims(
        in_dim=2 + partition.n_features, n_outputs=partition.n_bs,
        hidden1=cfg.hidden1, hidden2=cfg.hidden2, latent=cfg.latent,
        head=cfg.head, head_hidden=cfg.head_hidden, dropout=cfg.dropout)


def _client_data(ds: dat.ClientDataset) -> dat.ClientDataset:
    """``ds`` with its x/y arrays in ``CLIENT_DTYPE``; the label statistics
    stay as they are, so de-normalized residuals are float64."""
    return dataclasses.replace(ds, **{
        key: getattr(ds, key).astype(CLIENT_DTYPE)
        for key in ("x_train", "y_train", "x_test", "y_test")})


def _client_states(partition, cfg: RunConfig, dims, start):
    """One state per client, each on its own ``CLIENT_DTYPE`` store.  The
    backbone comes from ``start``, and so does the head when ``start`` holds
    one; otherwise each client draws its own personal head.  Error feedback
    carries only what Top-K drops, so at ``sparsity`` 1 (no Top-K) there is
    no residual.  Each dataset is the partition's, cast by
    ``_client_data``."""
    lb = nn.backbone_size(dims)
    states = []
    for ds in partition.clients:
        p = np.empty(lb + nn.head_size(dims), CLIENT_DTYPE)
        p[:start.size] = start
        if start.size == lb:
            p[lb:] = nn.flatten_head(
                nn.init_head(dims, _client_rng(cfg, 1000 + ds.client_id)))
        states.append(ClientState(
            client_id=ds.client_id,
            params=p,
            residual=(np.zeros(start.size, CLIENT_DTYPE)
                      if cfg.sparsity < 1.0 else None),
            adam=nn.adam_init(p.size, CLIENT_DTYPE),
            rng=_client_rng(cfg, ds.client_id),
            dataset=_client_data(ds)))
    return states


def local_train(state: ClientState, cfg: RunConfig, dims: nn.ModelDims,
                grad=None, scratch=None):
    """E epochs of seeded minibatch Adam on the client's store with Huber loss.

    Everything runs in the store's dtype, which the dataset's arrays share.
    ``grad`` receives each step's flat gradient (one value per parameter,
    in that dtype) and ``scratch`` is Adam's work array (see
    ``nn.adam_step``); the round loop passes a worker's own.  Raises
    TrainingDiverged on a non-finite loss before a step, or on non-finite
    parameters after the last one.
    """
    x, y = state.dataset.x_train, state.dataset.y_train
    n = x.shape[0]
    lb = nn.backbone_size(dims)
    backbone = nn.backbone_view(state.params[:lb], dims)
    head = nn.head_view(state.params[lb:], dims)
    if grad is None:
        grad = np.empty_like(state.params)
    for _ in range(cfg.local_epochs):
        order = state.rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            xb, yb = x[idx], y[idx]
            z, bcache = nn.backbone_forward(backbone, xb)
            pred, hcache = nn.head_forward(head, z, training=True,
                                           rng=state.rng)
            loss = nn.huber_loss(pred, yb, cfg.huber_delta)
            if not np.isfinite(loss):
                raise TrainingDiverged(
                    f"client {state.client_id}: non-finite loss")
            seed = nn.huber_grad(pred, yb, cfg.huber_delta)
            nn.backward(backbone, head, bcache, hcache, seed, out=grad)
            nn.adam_step(state.adam, state.params, grad, lr=cfg.lr,
                         scratch=scratch)
    if not np.isfinite(state.params).all():
        raise TrainingDiverged(
            f"client {state.client_id}: non-finite parameters after training")


def evaluate(datasets, backbone_flat, heads, dims, map=map):
    """Per-client test pass with one head per client, denormalized to dB.

    The passes run in the dtype of ``backbone_flat``, and each residual is
    scaled by the client's label std in float64.  ``map`` runs the passes,
    one per client; the round loop passes its thread pool's.  The residuals
    reach ``metrics.bundle`` in client order.
    """
    backbone = nn.backbone_view(backbone_flat, dims)

    def residual(client):
        ds, head = client
        z, _ = nn.backbone_forward(backbone, ds.x_test)
        pred, _ = nn.head_forward(head, z)
        return np.multiply(pred - ds.y_test, ds.label_std, dtype=np.float64)

    return met.bundle(list(map(residual, zip(datasets, heads, strict=True))))


def _init_rngs(cfg):
    return {
        "backbone": np.random.default_rng([cfg.seed, 1]),
        "shared_head": np.random.default_rng([cfg.seed, 2]),
        "sample": np.random.default_rng([cfg.seed, 4]),
    }


def _client_rng(cfg, cid):
    return np.random.default_rng([cfg.seed, 3, cid])


def _workers() -> int:
    """Threads that train and evaluate a round's clients: one per CPU the
    process may use, divided by the BLAS thread count.  That count is the
    first of OpenBLAS's variables, in OpenBLAS's order, that holds a
    positive integer; with none, BLAS may start a thread per core itself,
    and a single worker keeps the two pools from fighting over the cores.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                 "OMP_NUM_THREADS"):
        try:
            blas_threads = int(os.environ.get(name, ""))
        except ValueError:
            continue
        if blas_threads > 0:
            return max(1, cpus // blas_threads)
    return 1


def run_training(partition, cfg: RunConfig) -> RunResult:
    """Run the full T-round loop; fully deterministic under cfg.seed.

    A round's clients train, and every client's test pass runs, on a pool
    of ``_workers()`` threads.  What a round's clients send is summed in
    participant order, so the worker count changes no output.
    """
    dims = _model_dims(partition, cfg)
    include_head = not cfg.split_head
    rngs = _init_rngs(cfg)
    lb = nn.backbone_size(dims)
    lh = nn.head_size(dims)
    upload_len = lb + (lh if include_head else 0)
    k = max(1, int(round(cfg.sparsity * upload_len)))

    global_flat = nn.flatten_backbone(nn.init_backbone(dims, rngs["backbone"]))
    if include_head:
        global_flat = np.concatenate([
            global_flat,
            nn.flatten_head(nn.init_head(dims, rngs["shared_head"]))])

    states = _client_states(partition, cfg, dims, global_flat)
    datasets = [st.dataset for st in states]
    workers = _workers()
    # Each worker's buffers, taken by one task at a time: the flat gradient
    # (then the upload's delta), Adam's scratch and what a rollback needs
    # of the training client's params at the start of its round.  At a sync
    # round the broadcast restores the upload's part, so when every round
    # syncs only the rest is kept.
    n_saved = lb + lh - (upload_len if cfg.sync_period == 1 else 0)
    free = queue.SimpleQueue()
    for _ in range(workers):
        free.put((np.empty(lb + lh, CLIENT_DTYPE),
                  np.empty((2, nn.ADAM_BLOCK), CLIENT_DTYPE),
                  np.empty(n_saved, CLIENT_DTYPE)))

    shadow = global_flat.copy()
    cum_bytes = 0
    nnz_total = 0
    n_payloads = 0
    history = []

    def client_round(st, t, start):
        """Train one client; with ``start``, the broadcast model of a sync
        round in ``CLIENT_DTYPE``, resync it first and upload after.
        Returns (update, bytes, nnz) at a sync round, else None, or the
        exception that skipped the client after rolling it back."""
        grad, scratch, saved = free.get()
        try:
            kept = st.params
            if start is not None:
                st.params[:upload_len] = start
                kept = st.params[upload_len:]
            saved[:kept.size] = kept
            try:
                local_train(st, cfg, dims, grad, scratch)
                if start is None:
                    return None
                delta = np.subtract(st.params[:upload_len], start,
                                    out=grad[:upload_len])
                update, residual, n_bytes, nnz = comp.transmit(
                    delta, st.residual, k, cfg.quantization, st.client_id, t)
            except (TrainingDiverged, comp.UnencodableUpdate) as exc:
                if start is not None:
                    st.params[:upload_len] = start
                kept[:] = saved[:kept.size]
                st.adam.m[:] = 0.0
                st.adam.v[:] = 0.0
                st.adam.step = 0
                return exc
            if residual is not None:
                st.residual[:] = residual
            return update, n_bytes, nnz
        finally:
            free.put((grad, scratch, saved))

    def uploads(t, outcomes):
        """The updates among a round's outcomes, in participant order;
        counts each payload and logs each skip."""
        nonlocal cum_bytes, nnz_total, n_payloads
        for outcome in outcomes:
            if isinstance(outcome, Exception):
                log.warning("round %d: %s; client skipped and rolled back",
                            t, outcome)
            elif outcome is not None:
                update, n_bytes, nnz = outcome
                cum_bytes += n_bytes
                nnz_total += nnz
                n_payloads += 1
                yield update

    def snapshot(round_no, wall_ms):
        model = shadow.astype(CLIENT_DTYPE)
        if include_head:
            heads = [nn.head_view(model[lb:], dims)] * len(states)
        else:
            heads = [nn.head_view(st.params[lb:], dims) for st in states]
        b = evaluate(datasets, model[:lb], heads, dims, map=pool.map)
        history.append(RoundEntry(round_no, b, cum_bytes, n_payloads,
                                  nnz_total, wall_ms))

    with ThreadPoolExecutor(workers) as pool:
        snapshot(0, 0.0)
        t0 = time.perf_counter()
        for t in range(cfg.rounds):
            participants = sample_clients(len(states), cfg.client_fraction,
                                          rngs["sample"])
            start = (global_flat.astype(CLIENT_DTYPE)
                     if t % cfg.sync_period == 0 else None)
            outcomes = pool.map(client_round,
                                [states[cid] for cid in participants],
                                repeat(t), repeat(start))
            # Reads every outcome, so all of the round's tasks are done.
            global_flat = aggregate(global_flat, uploads(t, outcomes))
            shadow = ema_update(shadow, global_flat, cfg.ema_beta)
            snapshot(t + 1, (time.perf_counter() - t0) * 1000.0)

    # Copies: a view would keep the client's whole store alive.
    heads = [global_flat[lb:].copy()] if include_head \
        else [st.params[lb:].copy() for st in states]
    return RunResult(cfg, history, global_flat, heads, dims, upload_len, k)


# ---------------------------------------------------------------------------
# Round log export.
# ---------------------------------------------------------------------------

def write_roundlog(result: RunResult, scenario: str, path):
    m = result.dims.n_outputs
    header = ["round", "scenario", "mode", "rmse_micro", "rmse_macro",
              "mae_macro"] + [f"rmse_bs_{i+1}" for i in range(m)] \
        + ["cum_uplink_mb", "wall_ms"]
    dat.write_csv(path, header, (
        [str(e.round), scenario, result.config.mode,
         *map(repr, [e.bundle.rmse_micro, e.bundle.rmse_macro,
                     e.bundle.mae_macro, *e.bundle.per_bs_rmse.tolist(),
                     e.cum_bytes / 1e6]),
         f"{e.wall_ms:.1f}"] for e in result.history))


def _roundlog_row(fields, header):
    """A round log line as a dict; a ValueError unless each metric is a
    number."""
    row = dict(zip(header, fields))
    for name, text in row.items():
        if name not in ("scenario", "mode"):
            float(text)
    return row


def read_roundlog(path):
    """Round log rows as dicts of text keyed by the header.  A row that is
    not one number per column (scenario and mode are text) is an
    IngestionError naming the file and the line (see ``data.read_csv``)."""
    return dat.read_csv(path, _roundlog_row)
