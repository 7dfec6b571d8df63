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
vectors, copied out of the client stores (or of the global model, when
the head is shared) once the workers have exited.  Personal heads are
copied after the pages of the stores' backbones, which nothing reads any
more, have gone back to the system (``_release``).

Clients train and evaluate in ``CLIENT_DTYPE`` (float32): their stores,
Adam moments, residuals, data and work buffers, and the model vector they
read (the broadcast, or the EMA shadow).  The server keeps float64: the
global model, the aggregate, the EMA shadow and the metrics.  A client's
delta is taken against the float32 broadcast it resynced to, so a client
that takes no step sends an exactly zero delta.

A round's clients train, and every client's test pass runs, on
``_workers()`` processes forked once per run.  The client stores are rows
of matrices on anonymous shared mappings, so a worker updates a client in
place and nothing large is pickled: a task carries a client's index, RNG
state and Adam step, and returns the new state and step with its outcome;
the parent's copy of those two is authoritative.  An upload leaves its
worker in the form the wire carries: a QUP1 payload or a Top-K pair of
indices and float32 values returns with the outcome, and the server decodes
and sums it at its indices, without a dense copy.  A dense float32 upload
does not leave: the worker checks and counts it, and the server takes it
from the client's store minus the broadcast, the worker's own float32
subtraction.  One shared float32 model vector holds a sync round's
broadcast while its clients train and the EMA shadow while the test passes
run; an evaluation task returns its clients' de-normalized test residuals.
The server takes the uploads, and logs the skips, in participant order, so
the worker count changes no output.  At one worker the same tasks run in
the calling process and nothing is forked.
"""

from __future__ import annotations

import dataclasses
import logging
import math
import mmap
import multiprocessing
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
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
    residual and the dataset's x/y arrays are ``CLIENT_DTYPE`` too.  The
    store, the moments and the residual are this client's rows of the run's
    shared matrices (see ``_client_states``), so a forked worker writes them
    in place; ``rng`` and ``adam.step`` are per-process copies that a task
    carries to the worker and back.
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
    workers: int  # processes that trained and evaluated the clients

    @property
    def final(self) -> RoundEntry:
        return self.history[-1]


def sample_clients(n_clients, fraction, rng) -> np.ndarray:
    """Uniform without replacement, size max(1, round(fraction * N))."""
    size = max(1, int(round(fraction * n_clients)))
    return np.sort(rng.choice(n_clients, size=size, replace=False))


def aggregate(flat_global, updates) -> np.ndarray:
    """theta + mean of the uploads; identity on an empty set.

    Each upload is in a wire form of ``compression.transmit``: a QUP1
    payload, decoded here; an (indices, values) pair, integer indices
    strictly increasing within the model and one value each; or a dense
    vector.  Anything else is an AggregationError.  ``updates`` is read
    once, in order: the round loop passes a generator, so the server holds
    one upload at a time, and its dense deltas share one buffer, each added
    before the next is written.
    The uploads are added, in order, to float64 zeros, an indexed one at
    its indices only, and the sum is divided once.  That is how np.mean
    reduces a stack of their dense float64 forms, so the bits are its bits,
    signed zeros included, without the stack or a dense copy of any upload.
    The result is a new vector, and ``flat_global`` is left as it was.
    """
    total, n = np.zeros(flat_global.size), 0
    for update in updates:
        index, values = _entries(update, flat_global.size)
        if index is None:
            total += values
        else:
            total[index] += values
        n += 1
    if n == 0:
        return flat_global.copy()
    total /= n
    return np.add(flat_global, total, out=total)


def _entries(update, length):
    """(indices, float values) of an indexed upload, or (None, vector) of a
    dense one; AggregationError unless it fits a model of ``length``."""
    if isinstance(update, bytes):
        q = comp.decode(update)
        if q.length != length:
            raise AggregationError(
                f"payload length {q.length} != model length {length}")
        return q.indices, q.qvalues.astype(np.float64) * q.scale
    if isinstance(update, tuple):
        index, values = map(np.asarray, update)
        if index.dtype.kind not in "iu" or index.ndim != 1:
            raise AggregationError(
                f"update indices must be a vector of integers, not "
                f"{index.dtype} of shape {index.shape}")
        if values.shape != index.shape:
            raise AggregationError(
                f"{values.size} update values for {index.size} indices")
        if np.any(index[1:] <= index[:-1]):
            raise AggregationError("update indices not strictly increasing")
        if index.size and not 0 <= int(index[0]) <= int(index[-1]) < length:
            raise AggregationError(
                f"update indices {int(index[0])}..{int(index[-1])} outside "
                f"model length {length}")
        return index, values
    if update.shape != (length,):
        raise AggregationError(
            f"update length {update.size} != model length {length}")
    return None, update


def ema_update(shadow, theta, beta, scratch=None) -> np.ndarray:
    """beta * shadow + (1 - beta) * theta.  With ``scratch``, a work vector
    of the same size, the result is written into ``shadow`` and returned,
    and nothing is allocated; the bits are the same either way."""
    if scratch is None:
        return beta * shadow + (1.0 - beta) * theta
    np.multiply(shadow, beta, out=shadow)
    np.multiply(theta, 1.0 - beta, out=scratch)
    return np.add(shadow, scratch, out=shadow)


def _model_dims(partition, cfg: RunConfig) -> nn.ModelDims:
    return nn.ModelDims(
        in_dim=2 + partition.n_features, n_outputs=partition.n_bs,
        hidden1=cfg.hidden1, hidden2=cfg.hidden2, latent=cfg.latent,
        head=cfg.head, head_hidden=cfg.head_hidden, dropout=cfg.dropout)


def _upload_len(cfg: RunConfig, dims) -> int:
    """An upload's length: the backbone, and the head when it is shared."""
    return nn.backbone_size(dims) + (
        0 if cfg.split_head else nn.head_size(dims))


def shared_bytes(partition, cfg: RunConfig) -> int:
    """Bytes of the shared mappings a run of ``cfg`` on ``partition`` makes
    before it trains: the client stores and both Adam moments, the
    residuals at ``sparsity`` < 1, and the one model vector of the
    broadcast and the EMA shadow."""
    dims = _model_dims(partition, cfg)
    clients = len(partition.clients)
    upload = _upload_len(cfg, dims)
    return np.dtype(CLIENT_DTYPE).itemsize * (
        3 * clients * (nn.backbone_size(dims) + nn.head_size(dims))
        + ((cfg.sparsity < 1.0) * clients + 1) * upload)


def _client_data(ds: dat.ClientDataset) -> dat.ClientDataset:
    """``ds`` with its x/y arrays in ``CLIENT_DTYPE``; the label statistics
    stay as they are, so de-normalized residuals are float64."""
    return dataclasses.replace(ds, **{
        key: getattr(ds, key).astype(CLIENT_DTYPE)
        for key in ("x_train", "y_train", "x_test", "y_test")})


def _shared(dtype, *shape) -> np.ndarray:
    """A zeroed array on an anonymous shared mapping: processes forked
    after it is made write it in place and see each other's writes."""
    n = math.prod(shape)
    buf = mmap.mmap(-1, max(1, n * np.dtype(dtype).itemsize))
    return np.frombuffer(buf, dtype, n).reshape(shape)


def _release(rows, end):
    """Give the system back the whole pages of the first ``end`` entries of
    each of ``rows``, row views of one ``_shared`` matrix; those pages read
    as zeros after.  Only for when no other process maps the matrix any
    more: then the pages are freed, not just unmapped here.  Does nothing
    where ``mmap`` has no MADV_REMOVE."""
    advice = getattr(mmap, "MADV_REMOVE", None)
    if advice is None or not rows:
        return
    matrix = rows[0]
    while isinstance(matrix.base, np.ndarray):
        matrix = matrix.base  # down to the array over the whole mapping
    # numpy keeps the mapping itself or, in 2.x, a memoryview of it.
    mapping = getattr(matrix.base, "obj", matrix.base)
    origin, page = matrix.ctypes.data, mmap.PAGESIZE
    for row in rows:
        first = row.ctypes.data - origin
        lo = -(-first // page) * page
        hi = (first + end * row.itemsize) // page * page
        if hi > lo:
            mapping.madvise(advice, lo, hi - lo)


def _client_states(partition, cfg: RunConfig, dims, start):
    """One state per client.  The stores, the Adam moments and the residuals
    are ``CLIENT_DTYPE`` matrices with one row per client, on shared
    mappings (``_shared``), and each state's arrays are its rows.  The
    backbone comes from ``start``, and so does the head when ``start`` holds
    one; otherwise each client draws its own personal head.  Error feedback
    carries only what Top-K drops, so at ``sparsity`` 1 (no Top-K) there is
    no residual.  Each dataset is the partition's, cast by
    ``_client_data``."""
    lb = nn.backbone_size(dims)
    shape = len(partition.clients), lb + nn.head_size(dims)
    params = _shared(CLIENT_DTYPE, *shape)
    m, v = _shared(CLIENT_DTYPE, *shape), _shared(CLIENT_DTYPE, *shape)
    residuals = (_shared(CLIENT_DTYPE, shape[0], start.size)
                 if cfg.sparsity < 1.0 else None)
    states = []
    for i, ds in enumerate(partition.clients):
        p = params[i]
        p[:start.size] = start
        if start.size == lb:
            p[lb:] = nn.flatten_head(
                nn.init_head(dims, _client_rng(cfg, 1000 + ds.client_id)))
        states.append(ClientState(
            client_id=ds.client_id,
            params=p,
            residual=None if residuals is None else residuals[i],
            adam=nn.AdamState(m[i], v[i]),
            rng=_client_rng(cfg, ds.client_id),
            dataset=_client_data(ds)))
    return states


def local_train(state: ClientState, cfg: RunConfig, dims: nn.ModelDims,
                grad=None, scratch=None):
    """E epochs of seeded minibatch Adam on the client's store with Huber loss.

    Everything runs in the store's dtype, which the dataset's arrays share.
    ``grad`` receives each step's flat gradient (one value per parameter,
    in that dtype) and ``scratch`` is Adam's work array (see
    ``nn.adam_step``); the round loop passes its process's own.  Raises
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


@dataclass
class _Run:
    """What a run's tasks read.  The parent makes it before the workers
    fork, so each inherits it; its arrays are on shared mappings.

    ``model`` holds, in ``CLIENT_DTYPE``, a sync round's broadcast while
    that round's clients train and the server reads their dense deltas, and
    the EMA shadow while the test passes run.  The phases never overlap:
    every task of one has returned before the other writes ``model``."""

    cfg: RunConfig
    dims: nn.ModelDims
    states: list
    upload_len: int
    k: int
    model: np.ndarray
    ranges: list  # (first, end) clients of each evaluation task
    buffers: tuple | None = None  # this process's own; see _train_task


_run: _Run | None = None  # the run in progress, as each process sees it


def _train_task(i, t, sync, rng_state, step):
    """Train client ``i`` in round ``t``, starting from the RNG state and
    Adam step the parent holds; at a ``sync`` round, resync it to the
    broadcast (``_Run.model``) first and upload after.

    Returns (outcome, RNG state, Adam step).  The outcome is (wire form,
    bytes, nnz) at a sync round, else None, or the exception that skipped
    the client after rolling it back.  The wire form is a QUP1 payload or
    Top-K (indices, values) pair as ``compression.transmit`` returns it.  A
    dense upload goes through ``transmit`` too, for its float32 check and
    byte count, but its wire form is None: the server subtracts the
    broadcast from the client's store itself.
    """
    run, n = _run, _run.upload_len
    st = run.states[i]
    st.rng.bit_generator.state = rng_state
    st.adam.step = step
    if run.buffers is None:
        # The flat gradient (then the upload's delta), Adam's scratch and
        # what a rollback needs of the client's store at the start of its
        # round: all of it, or at a sync round the part the broadcast does
        # not restore.
        size = st.params.size
        run.buffers = (np.empty(size, CLIENT_DTYPE),
                       np.empty((2, nn.ADAM_BLOCK), CLIENT_DTYPE),
                       np.empty(size, CLIENT_DTYPE))
    grad, scratch, saved = run.buffers
    kept = st.params
    if sync:
        st.params[:n] = run.model
        kept = st.params[n:]
    saved[:kept.size] = kept
    outcome = None
    try:
        local_train(st, run.cfg, run.dims, grad, scratch)
        if sync:
            delta = np.subtract(st.params[:n], run.model, out=grad[:n])
            wire, residual, n_bytes, nnz = comp.transmit(
                delta, st.residual, run.k, run.cfg.quantization,
                st.client_id, t)
    except (TrainingDiverged, comp.UnencodableUpdate) as exc:
        if sync:
            st.params[:n] = run.model
        kept[:] = saved[:kept.size]
        st.adam.m[:] = 0.0
        st.adam.v[:] = 0.0
        st.adam.step = 0
        outcome = exc
    else:
        if sync:
            if residual is not None:
                st.residual[:] = residual
            outcome = (None if isinstance(wire, np.ndarray) else wire,
                       n_bytes, nnz)
    return outcome, st.rng.bit_generator.state, st.adam.step


def _evaluate_task(bounds):
    """Test passes of clients ``first`` to ``end`` - 1 (``bounds``) on the
    EMA shadow in ``_Run.model``.  Returns their residuals in client order,
    each scaled by the client's label std in float64."""
    run, (first, end) = _run, bounds
    lb = nn.backbone_size(run.dims)
    backbone = nn.backbone_view(run.model[:lb], run.dims)
    residuals = []
    for st in run.states[first:end]:
        ds = st.dataset
        head = run.model[lb:] if run.model.size > lb else st.params[lb:]
        z, _ = nn.backbone_forward(backbone, ds.x_test)
        pred, _ = nn.head_forward(nn.head_view(head, run.dims), z)
        residuals.append(np.multiply(pred - ds.y_test, ds.label_std,
                                     dtype=np.float64))
    return residuals


def evaluate(run: _Run, shadow, map=map) -> met.MetricBundle:
    """Every client's test pass on ``shadow``, with one head per client,
    denormalized to dB.

    The passes read ``shadow`` as ``run.model`` holds it, in
    ``CLIENT_DTYPE``.  ``map`` runs the tasks, a range of clients each: the
    worker pool's, or the builtin at one worker.  The residuals reach ``metrics.bundle`` in client order.
    """
    run.model[:] = shadow
    return met.bundle([r for task in map(_evaluate_task, run.ranges)
                       for r in task])


def _init_rngs(cfg):
    return {
        "backbone": np.random.default_rng([cfg.seed, 1]),
        "shared_head": np.random.default_rng([cfg.seed, 2]),
        "sample": np.random.default_rng([cfg.seed, 4]),
    }


def _client_rng(cfg, cid):
    return np.random.default_rng([cfg.seed, 3, cid])


def blas_threads():
    """(variable, count) of the BLAS thread count as OpenBLAS reads it: the
    first of its variables, in its order, that holds a positive integer;
    None when none does."""
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                 "OMP_NUM_THREADS"):
        try:
            count = int(os.environ.get(name, ""))
        except ValueError:
            continue
        if count > 0:
            return name, count
    return None


def _workers() -> int:
    """Processes that train and evaluate a round's clients: one per CPU the
    process may use, divided by the BLAS thread count (``blas_threads``).
    With no count, BLAS may start a thread per core itself, and a single
    worker keeps the two pools from fighting over the cores.  Where a
    process cannot fork, one worker.
    """
    blas = blas_threads()
    if blas is None or "fork" not in multiprocessing.get_all_start_methods():
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return max(1, cpus // blas[1])


def _end_with_parent(parent):
    """Worker initializer: end this worker once the process that forked it
    is gone.  A parent killed before its ``finally`` shuts the pool down
    would otherwise leave the worker waiting on the task queue for good;
    an orphan's parent pid changes, so a slow poll sees it."""
    def watch():
        while os.getppid() == parent:
            time.sleep(1.0)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def _ranges(rows, n):
    """Up to ``n`` contiguous ranges of clients, (first, end) each, with
    about equal numbers of test rows; ``rows`` holds the cumulative
    counts."""
    cuts = np.searchsorted(rows, np.linspace(0, rows[-1], n + 1)[1:-1])
    bounds = np.unique([0, *cuts, len(rows) - 1]).tolist()
    return list(zip(bounds, bounds[1:]))


def run_training(partition, cfg: RunConfig) -> RunResult:
    """Run the full T-round loop; fully deterministic under cfg.seed.

    A round's clients train, and every client's test pass runs, on a pool
    of ``_workers()`` processes forked at the start of the run and shut
    down at its end, also when it raises; at one worker they run in this
    process.  What a round's clients send is summed in participant order,
    so the worker count changes no output.

    Heads leave the run as flat vectors, copied once the pool has shut
    down.  Personal heads are copied from the client stores after the
    stores' backbones have been released (``_release``): by then this
    process is the only one that maps them and nothing reads them, so at
    90 clients their 73 MB go back to the system before the 24 MB of head
    copies are made.
    """
    global _run
    dims = _model_dims(partition, cfg)
    include_head = not cfg.split_head
    rngs = _init_rngs(cfg)
    lb = nn.backbone_size(dims)
    upload_len = _upload_len(cfg, dims)
    k = max(1, int(round(cfg.sparsity * upload_len)))

    global_flat = nn.flatten_backbone(nn.init_backbone(dims, rngs["backbone"]))
    if include_head:
        global_flat = np.concatenate([
            global_flat,
            nn.flatten_head(nn.init_head(dims, rngs["shared_head"]))])

    states = _client_states(partition, cfg, dims, global_flat)
    workers = _workers()
    rows = np.cumsum([0] + [st.dataset.y_test.shape[0] for st in states])
    run = _Run(cfg, dims, states, upload_len, k,
               model=_shared(CLIENT_DTYPE, upload_len),
               ranges=_ranges(rows, 2 * workers))
    delta = np.empty(upload_len, CLIENT_DTYPE)  # each dense upload in turn

    shadow = global_flat.copy()
    cum_bytes = 0
    nnz_total = 0
    n_payloads = 0
    pool = (ProcessPoolExecutor(
        workers, mp_context=multiprocessing.get_context("fork"),
        initializer=_end_with_parent, initargs=(os.getpid(),))
        if workers > 1 else None)
    tasks = pool.map if pool else map
    testing = f"the test passes of clients 0-{len(states) - 1}"
    where = f"before round 0: {testing}"  # the work of the running tasks
    try:
        _run = run  # the workers fork at the first task, and inherit it
        history = [RoundEntry(0, evaluate(run, shadow, tasks), 0, 0, 0, 0.0)]
        t0 = time.perf_counter()
        for t in range(cfg.rounds):
            participants = sample_clients(len(states), cfg.client_fraction,
                                          rngs["sample"]).tolist()
            sync = t % cfg.sync_period == 0
            if sync:
                run.model[:] = global_flat
            # Largest clients first, so that no worker is left alone with a
            # large one at the end of the round; the server reads the
            # outcomes in participant order.
            first = sorted(participants,
                           key=lambda i: -states[i].dataset.n_train)
            where = f"round {t}: the training of clients {first}"
            outcomes = dict(zip(first, tasks(
                _train_task, first, repeat(t), repeat(sync),
                [states[i].rng.bit_generator.state for i in first],
                [states[i].adam.step for i in first])))
            sent = []  # (client, wire form) of each upload
            for i in participants:
                outcome, rng_state, step = outcomes[i]
                states[i].rng.bit_generator.state = rng_state
                states[i].adam.step = step
                if isinstance(outcome, Exception):
                    log.warning("round %d: %s; client skipped and rolled "
                                "back", t, outcome)
                elif outcome is not None:
                    wire, n_bytes, nnz = outcome
                    cum_bytes += n_bytes
                    nnz_total += nnz
                    n_payloads += 1
                    sent.append((i, wire))
            previous, global_flat = global_flat, aggregate(global_flat, (
                np.subtract(states[i].params[:upload_len], run.model,
                            out=delta) if wire is None else wire
                for i, wire in sent))
            # The previous model is dead: the EMA takes it as its scratch,
            # and it goes before the next round's aggregate is made.
            shadow = ema_update(shadow, global_flat, cfg.ema_beta, previous)
            del previous
            wall_ms = (time.perf_counter() - t0) * 1000.0
            where = f"round {t}: {testing}"
            history.append(RoundEntry(t + 1, evaluate(run, shadow, tasks),
                                      cum_bytes, n_payloads, nnz_total,
                                      wall_ms))
    except BrokenProcessPool as exc:
        raise RuntimeError(
            f"{where}: a worker process ended abruptly (killed, for example "
            f"when memory ran out)") from exc
    finally:
        if pool is not None:
            # Nothing is pending unless a task or the server raised.
            pool.shutdown(cancel_futures=True)
        _run = None

    # Copies: a view would keep the client's whole store alive.
    if include_head:
        heads = [global_flat[lb:].copy()]
    else:
        _release([st.params for st in states], lb)
        heads = [st.params[lb:].copy() for st in states]
    return RunResult(cfg, history, global_flat, heads, dims, upload_len, k,
                     workers)


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
