"""Minimal dense network engine for the split backbone/head model.

Everything is plain numpy in float64: a three-layer MLP backbone
(bias -> SiLU -> LayerNorm per layer, normalization applied after the
activation) producing a latent vector, plus a per-client head of dense
layers with SiLU between them: one for ``single``, two for ``two-layer``,
which also has inverted dropout on its input.  Gradients are hand-written
reverse mode; the optimizer is Adam with bias correction, updating a flat
parameter vector and its moments in place.

A model can live in one contiguous vector in the frozen wire order (see
"Flat store" below): ``backbone_view``/``head_view`` give BackboneParams and
HeadParams whose arrays are reshaped views of it, ``backward`` can write its
gradients into a flat buffer the same way, and ``adam_step`` then updates the
whole vector without a flatten or unflatten per step.  A trained head leaves
a run as its flat slice of that vector.

Forward and backward passes take 2-D batches of rows only; a single sample
is a batch of one row, and a 1-D input is a DimensionError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

LN_EPS = 1e-5
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class DimensionError(ValueError):
    """Shape contract violation between parameters and inputs."""


class ParameterError(ValueError):
    """Invalid hyperparameter (e.g. non-positive Huber delta)."""


@dataclass(frozen=True)
class ModelDims:
    """Architecture description shared by init, forward and flatten code.
    ``RunConfig`` checks the values a run builds it from."""

    in_dim: int
    n_outputs: int
    hidden1: int = 256
    hidden2: int = 256
    latent: int = 512
    head: str = "two-layer"  # "single" or "two-layer"
    head_hidden: int = 128
    dropout: float = 0.1


@dataclass
class BackboneParams:
    """Three-layer backbone: weights, biases and LayerNorm affine per layer."""

    weights: list  # [W1 (h1,in), W2 (h2,h1), W3 (latent,h2)]
    biases: list
    gains: list
    shifts: list


@dataclass
class HeadParams:
    """Per-client output head mapping the latent vector to M signal values:
    one weight (out, in) and one bias per dense layer."""

    weights: list
    biases: list
    dropout: float = 0.0


def silu_grad(x, sig=None):
    """d silu / dx; ``sig`` is expit(x) when the forward pass kept it."""
    s = expit(x) if sig is None else sig
    return s * (1.0 + x * (1.0 - s))


def init_backbone(dims: ModelDims, rng: np.random.Generator) -> BackboneParams:
    """Kaiming-uniform weights, zero biases, identity LayerNorm affine."""
    p = backbone_view(np.zeros(backbone_size(dims)), dims)
    _kaiming_uniform(p.weights, rng)
    for g in p.gains:
        g[:] = 1.0
    return p


def init_head(dims: ModelDims, rng: np.random.Generator) -> HeadParams:
    """Kaiming-uniform weights, zero biases."""
    p = head_view(np.zeros(head_size(dims)), dims)
    _kaiming_uniform(p.weights, rng)
    return p


def _kaiming_uniform(weights, rng):
    """Each (out, in) weight drawn from U(-sqrt(6/in), sqrt(6/in)), in order."""
    for w in weights:
        bound = math.sqrt(6.0 / w.shape[1])
        w[:] = rng.uniform(-bound, bound, size=w.shape)


def _rows(a, width, what):
    """``a`` as a float64 batch of rows ``width`` wide; anything else, a
    single 1-D sample included, is a DimensionError."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[1] != width:
        raise DimensionError(
            f"{what}: expected rows of width {width}, got shape {a.shape}")
    return a


def backbone_forward(params: BackboneParams, x):
    """Forward pass over a batch of rows; returns (latent, cache), the cache
    holding each layer's (input, pre-activation, sigmoid, normalized
    activation, 1/std) for the backward pass."""
    cur = _rows(x, params.weights[0].shape[1], "backbone input")
    layers = []
    for w, b, g, s in zip(params.weights, params.biases, params.gains, params.shifts):
        a = cur @ w.T + b
        sig = expit(a)
        h = a * sig
        mu = h.mean(axis=-1, keepdims=True)
        inv_std = 1.0 / np.sqrt(h.var(axis=-1, keepdims=True) + LN_EPS)
        y = (h - mu) * inv_std
        out = g * y + s
        layers.append((cur, a, sig, y, inv_std))
        cur = out
    return cur, layers


def backbone_backward(params: BackboneParams, cache, dz, grads):
    """Reverse pass through the backbone, writing its parameter gradients
    into ``grads`` (a BackboneParams of float64 arrays) and returning it.

    dL/dx of the input is never needed, so it is not computed.
    """
    dout = _rows(dz, params.weights[-1].shape[0], "backbone_backward")
    for i in reversed(range(len(params.weights))):
        x_in, a, sig, y, inv_std = cache[i]
        np.sum(dout * y, axis=0, out=grads.gains[i])
        np.sum(dout, axis=0, out=grads.shifts[i])
        dy = dout * params.gains[i]
        dh = (dy - dy.mean(axis=-1, keepdims=True)
              - y * (dy * y).mean(axis=-1, keepdims=True)) * inv_std
        da = dh * silu_grad(a, sig)
        np.matmul(da.T, x_in, out=grads.weights[i])
        np.sum(da, axis=0, out=grads.biases[i])
        if i > 0:
            dout = da @ params.weights[i]
    return grads


def head_forward(params: HeadParams, z, training=False, rng=None):
    """Head pass over a batch of latent rows; dropout on the latent input is
    inverted-scaled at train time, identity at eval.  The cache holds the
    dropout mask (None without dropout), each layer's input, and each hidden
    layer's (pre-activation, sigmoid)."""
    cur = _rows(z, params.weights[0].shape[1], "head input")
    mask = None
    if training and params.dropout > 0.0:
        if rng is None:
            raise ParameterError("training dropout requires an rng")
        keep = 1.0 - params.dropout
        mask = (rng.random(cur.shape) < keep) / keep
        cur = cur * mask
    inputs, acts = [], []
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        inputs.append(cur)
        a = cur @ w.T + b
        sig = expit(a)
        acts.append((a, sig))
        cur = a * sig
    inputs.append(cur)
    pred = cur @ params.weights[-1].T + params.biases[-1]
    return pred, {"mask": mask, "inputs": inputs, "acts": acts}


def head_backward(params: HeadParams, cache, dpred, grads):
    """Writes the head's gradients into ``grads`` (a HeadParams of float64
    arrays); returns (grads, dL/dz)."""
    d = _rows(dpred, params.weights[-1].shape[0], "head_backward")
    for i in reversed(range(len(params.weights))):
        if i < len(cache["acts"]):
            d = d * silu_grad(*cache["acts"][i])
        np.matmul(d.T, cache["inputs"][i], out=grads.weights[i])
        np.sum(d, axis=0, out=grads.biases[i])
        d = d @ params.weights[i]
    if cache["mask"] is not None:
        d = d * cache["mask"]
    return grads, d


def backward(backbone: BackboneParams, head: HeadParams, bcache, hcache, dpred,
             out=None):
    """Full reverse pass from a loss-gradient seed on the predictions.

    Returns (backbone grads, head grads) as views of one flat float64
    vector in wire order: ``out`` when given (the model's length), else a
    new one.
    """
    arrays = _backbone_arrays(backbone) + _head_arrays(head)
    n = sum(a.size for a in arrays)
    if out is None:
        out = np.empty(n)
    elif out.dtype != np.float64 or out.size != n:
        raise DimensionError(
            f"backward: gradient buffer must be {n} float64 values")
    views = _carve(out, [a.shape for a in arrays])
    nb = 4 * len(backbone.weights)
    gb = _as_backbone(views[:nb])
    gh = _as_head(views[nb:], head.dropout)
    _, dz = head_backward(head, hcache, dpred, gh)
    backbone_backward(backbone, bcache, dz, gb)
    return gb, gh


def huber_loss(pred, target, delta=1.0):
    """Mean Huber loss over every residual (robust to outliers)."""
    if delta <= 0:
        raise ParameterError("huber delta must be > 0")
    pred = np.asarray(pred, dtype=float)
    target = np.asarray(target, dtype=float)
    if pred.shape != target.shape:
        raise DimensionError(f"pred {pred.shape} vs target {target.shape}")
    r = pred - target
    a = np.abs(r)
    per = np.where(a <= delta, 0.5 * r * r, delta * a - 0.5 * delta * delta)
    return float(per.mean())


def huber_grad(pred, target, delta=1.0):
    """d(mean Huber)/d(pred); the seed fed into backward()."""
    if delta <= 0:
        raise ParameterError("huber delta must be > 0")
    r = np.asarray(pred, dtype=float) - np.asarray(target, dtype=float)
    return np.clip(r, -delta, delta) / r.size


# ---------------------------------------------------------------------------
# Flat store.  The canonical ordering is frozen because flat indices cross
# the wire: per backbone layer W, b, gain, shift (row-major), layers in
# order; then per head layer W, b.
# ---------------------------------------------------------------------------

def _backbone_arrays(p: BackboneParams):
    return [a for layer in zip(p.weights, p.biases, p.gains, p.shifts)
            for a in layer]


def _head_arrays(p: HeadParams):
    return [a for layer in zip(p.weights, p.biases) for a in layer]


def _as_backbone(arrays) -> BackboneParams:
    return BackboneParams(arrays[0::4], arrays[1::4], arrays[2::4], arrays[3::4])


def _as_head(arrays, dropout) -> HeadParams:
    return HeadParams(arrays[0::2], arrays[1::2], dropout)


def _layer_shapes(dims: ModelDims):
    """(out, in) of every dense layer: the backbone's, then the head's."""
    hidden = [dims.head_hidden] if dims.head == "two-layer" else []
    backbone = [dims.in_dim, dims.hidden1, dims.hidden2, dims.latent]
    head = [dims.latent, *hidden, dims.n_outputs]
    return (list(zip(backbone[1:], backbone[:-1])),
            list(zip(head[1:], head[:-1])))


def _backbone_shapes(dims: ModelDims):
    return [shape for o, i in _layer_shapes(dims)[0]
            for shape in ((o, i), (o,), (o,), (o,))]


def _head_shapes(dims: ModelDims):
    return [shape for o, i in _layer_shapes(dims)[1] for shape in ((o, i), (o,))]


def _carve(flat, shapes):
    """Reshaped views of consecutive segments of ``flat``, in order."""
    views, pos = [], 0
    for shape in shapes:
        n = math.prod(shape)
        views.append(flat[pos:pos + n].reshape(shape))
        pos += n
    return views


def flatten_backbone(p: BackboneParams) -> np.ndarray:
    return np.concatenate([a.ravel() for a in _backbone_arrays(p)])


def flatten_head(p: HeadParams) -> np.ndarray:
    return np.concatenate([a.ravel() for a in _head_arrays(p)])


def backbone_size(dims: ModelDims) -> int:
    return sum(math.prod(s) for s in _backbone_shapes(dims))


def head_size(dims: ModelDims) -> int:
    return sum(math.prod(s) for s in _head_shapes(dims))


def backbone_view(flat: np.ndarray, dims: ModelDims) -> BackboneParams:
    """The backbone whose arrays are views of ``flat``: writes go through."""
    if flat.size != backbone_size(dims):
        raise DimensionError(
            f"flat length {flat.size} != backbone size {backbone_size(dims)}")
    return _as_backbone(_carve(flat, _backbone_shapes(dims)))


def head_view(flat: np.ndarray, dims: ModelDims) -> HeadParams:
    """The head whose arrays are views of ``flat``: writes go through.  A
    one-layer head has no dropout."""
    if flat.size != head_size(dims):
        raise DimensionError(
            f"flat length {flat.size} != head size {head_size(dims)}")
    views = _carve(flat, _head_shapes(dims))
    return _as_head(views, dims.dropout if len(views) > 2 else 0.0)


def unflatten_backbone(flat: np.ndarray, dims: ModelDims) -> BackboneParams:
    """A backbone that owns a copy of ``flat``."""
    return backbone_view(np.array(flat), dims)


def unflatten_head(flat: np.ndarray, dims: ModelDims) -> HeadParams:
    """A head that owns a copy of ``flat``."""
    return head_view(np.array(flat), dims)


# ---------------------------------------------------------------------------
# Adam over flat vectors.
# ---------------------------------------------------------------------------

@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    step: int = 0


def adam_init(n: int) -> AdamState:
    return AdamState(np.zeros(n), np.zeros(n), 0)


def adam_step(state: AdamState, params: np.ndarray, grads: np.ndarray,
              lr=1e-3, beta1=ADAM_BETA1, beta2=ADAM_BETA2, eps=ADAM_EPS,
              scratch=None):
    """One bias-corrected Adam update, in place: ``params``, ``state.m`` and
    ``state.v`` are overwritten and ``params`` itself is returned.

    ``params`` must be float64.  ``scratch`` is a (2, n) float64 work array;
    one is allocated per call when it is not given.  The arithmetic is, in
    this order, m = b1*m + (1-b1)*g; v = b2*v + ((1-b2)*g)*g;
    p -= (lr * m/(1-b1^t)) / (sqrt(v/(1-b2^t)) + eps).
    """
    if params.shape != grads.shape or params.shape != state.m.shape:
        raise DimensionError("adam: params/grads/state shape mismatch")
    if params.dtype != np.float64:
        raise ParameterError("adam: params must be float64 to update in place")
    if scratch is None:
        scratch = np.empty((2,) + params.shape)
    step_dir, denom = scratch
    state.step += 1
    m, v = state.m, state.v
    np.multiply(m, beta1, out=m)
    np.multiply(grads, 1.0 - beta1, out=step_dir)
    np.add(m, step_dir, out=m)
    np.multiply(v, beta2, out=v)
    np.multiply(grads, 1.0 - beta2, out=step_dir)
    np.multiply(step_dir, grads, out=step_dir)
    np.add(v, step_dir, out=v)
    np.divide(m, 1.0 - beta1 ** state.step, out=step_dir)
    np.multiply(step_dir, lr, out=step_dir)
    np.divide(v, 1.0 - beta2 ** state.step, out=denom)
    np.sqrt(denom, out=denom)
    np.add(denom, eps, out=denom)
    np.divide(step_dir, denom, out=step_dir)
    np.subtract(params, step_dir, out=params)
    return params
