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
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass

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

    ``params`` is the client's parameter store: one float64 vector holding
    the backbone then the head in wire order (see ``nn.backbone_view`` and
    ``nn.head_view``).
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
    """theta + mean of decoded updates; identity on an empty set."""
    if not updates:
        return flat_global.copy()
    for u in updates:
        if u.shape != flat_global.shape:
            raise AggregationError(
                f"update length {u.size} != model length {flat_global.size}")
    # Row by row, then one division: the bits of np.mean over a stack,
    # without the stack.
    mean = updates[0].astype(np.result_type(*updates), copy=True)
    for u in updates[1:]:
        mean += u
    mean /= len(updates)
    return flat_global + mean


def ema_update(shadow, theta, beta) -> np.ndarray:
    return beta * shadow + (1.0 - beta) * theta


def _model_dims(partition, cfg: RunConfig) -> nn.ModelDims:
    return nn.ModelDims(
        in_dim=2 + partition.n_features, n_outputs=partition.n_bs,
        hidden1=cfg.hidden1, hidden2=cfg.hidden2, latent=cfg.latent,
        head=cfg.head, head_hidden=cfg.head_hidden, dropout=cfg.dropout)


def _client_states(partition, cfg: RunConfig, dims, start):
    """One state per client, each on its own store.  The backbone comes from
    ``start``, and so does the head when ``start`` holds one; otherwise each
    client draws its own personal head.  Error feedback carries only what
    Top-K drops, so at ``sparsity`` 1 (no Top-K) there is no residual."""
    lb = nn.backbone_size(dims)
    states = []
    for ds in partition.clients:
        p = np.empty(lb + nn.head_size(dims))
        p[:start.size] = start
        if start.size == lb:
            p[lb:] = nn.flatten_head(
                nn.init_head(dims, _client_rng(cfg, 1000 + ds.client_id)))
        states.append(ClientState(
            client_id=ds.client_id,
            params=p,
            residual=np.zeros(start.size) if cfg.sparsity < 1.0 else None,
            adam=nn.adam_init(p.size),
            rng=_client_rng(cfg, ds.client_id),
            dataset=ds))
    return states


def local_train(state: ClientState, cfg: RunConfig, dims: nn.ModelDims,
                work=None):
    """E epochs of seeded minibatch Adam on the client's store with Huber loss.

    ``work`` is a (3, n) float64 scratch array shared by all clients of a
    run: the flat gradient, then Adam's two work vectors.  One is allocated
    when it is not given.  Raises
    TrainingDiverged on a non-finite loss before a step, or on non-finite
    parameters after the last one.
    """
    x, y = state.dataset.x_train, state.dataset.y_train
    n = x.shape[0]
    lb = nn.backbone_size(dims)
    backbone = nn.backbone_view(state.params[:lb], dims)
    head = nn.head_view(state.params[lb:], dims)
    if work is None:
        work = np.empty((3, state.params.size))
    grad, scratch = work[0], work[1:]
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


def evaluate(partition, backbone_flat, heads, dims):
    """Per-client test pass with one head per client, denormalized to dB."""
    backbone = nn.backbone_view(backbone_flat, dims)
    residuals = []
    for ds, head in zip(partition.clients, heads, strict=True):
        z, _ = nn.backbone_forward(backbone, ds.x_test)
        pred, _ = nn.head_forward(head, z)
        residuals.append((pred - ds.y_test) * ds.label_std)
    return met.bundle(residuals)


def _init_rngs(cfg):
    return {
        "backbone": np.random.default_rng([cfg.seed, 1]),
        "shared_head": np.random.default_rng([cfg.seed, 2]),
        "sample": np.random.default_rng([cfg.seed, 4]),
    }


def _client_rng(cfg, cid):
    return np.random.default_rng([cfg.seed, 3, cid])


def run_training(partition, cfg: RunConfig) -> RunResult:
    """Run the full T-round loop; fully deterministic under cfg.seed."""
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
    work = np.empty((3, lb + lh))  # see local_train
    # The training client's params at the start of its round.
    saved = np.empty(lb + lh)

    shadow = global_flat.copy()
    cum_bytes = 0
    nnz_total = 0
    n_payloads = 0
    history = []

    def snapshot(round_no, wall_ms):
        if include_head:
            heads = [nn.head_view(shadow[lb:], dims)] * len(states)
        else:
            heads = [nn.head_view(st.params[lb:], dims) for st in states]
        b = evaluate(partition, shadow[:lb], heads, dims)
        history.append(RoundEntry(round_no, b, cum_bytes, n_payloads,
                                  nnz_total, wall_ms))

    snapshot(0, 0.0)
    t0 = time.perf_counter()
    for t in range(cfg.rounds):
        participants = sample_clients(len(states), cfg.client_fraction,
                                      rngs["sample"])
        sync = (t % cfg.sync_period == 0)
        updates = []
        for cid in participants:
            st = states[cid]
            if sync:
                st.params[:upload_len] = global_flat
            saved[:] = st.params
            try:
                local_train(st, cfg, dims, work)
                if not sync:
                    continue
                update, residual, n_bytes, nnz = comp.transmit(
                    st.params[:upload_len] - global_flat, st.residual, k,
                    cfg.quantization, st.client_id, t)
            except (TrainingDiverged, comp.UnencodableUpdate) as exc:
                log.warning("round %d: %s; client skipped and rolled back",
                            t, exc)
                st.params[:] = saved
                st.adam = nn.adam_init(saved.size)
                continue
            st.residual = residual
            updates.append(update)
            cum_bytes += n_bytes
            nnz_total += nnz
            n_payloads += 1
        if updates:
            global_flat = aggregate(global_flat, updates)
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
