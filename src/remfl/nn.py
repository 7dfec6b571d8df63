"""Minimal dense network engine for the split backbone/head model.

Everything is plain numpy in float64: a three-layer MLP backbone
(bias -> SiLU -> LayerNorm per layer, normalization applied after the
activation) producing a latent vector, plus a per-client head that is either
a single linear layer or a small two-layer MLP with inverted dropout.
Gradients are hand-written reverse mode; the optimizer is Adam with bias
correction, updating a flat parameter vector and its moments in place.

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
    """Architecture description shared by init, forward and flatten code."""

    in_dim: int
    n_outputs: int
    hidden1: int = 256
    hidden2: int = 256
    latent: int = 512
    head: str = "two-layer"  # "single" or "two-layer"
    head_hidden: int = 128
    dropout: float = 0.1

    def __post_init__(self):
        if self.head not in ("single", "two-layer"):
            raise ParameterError(f"unknown head variant {self.head!r}")
        if not 0.0 <= self.dropout < 1.0:
            raise ParameterError("dropout rate must be in [0, 1)")


@dataclass
class BackboneParams:
    """Three-layer backbone: weights, biases and LayerNorm affine per layer."""

    weights: list  # [W1 (h1,in), W2 (h2,h1), W3 (latent,h2)]
    biases: list
    gains: list
    shifts: list


@dataclass
class HeadParams:
    """Per-client output head mapping the latent vector to M signal values."""

    variant: str
    w_out: np.ndarray | None = None
    b_out: np.ndarray | None = None
    w1: np.ndarray | None = None
    b1: np.ndarray | None = None
    w2: np.ndarray | None = None
    b2: np.ndarray | None = None
    dropout: float = 0.0


def silu(x):
    """Elementwise x * sigmoid(x)."""
    x = np.asarray(x, dtype=float)
    return x * expit(x)


def silu_grad(x, sig=None):
    """d silu / dx; ``sig`` is expit(x) when the forward pass kept it."""
    s = expit(x) if sig is None else sig
    return s * (1.0 + x * (1.0 - s))


def layer_norm(x, gain, shift, eps=LN_EPS):
    """Normalize each row to zero mean / unit population variance, then affine."""
    x = np.asarray(x, dtype=float)
    gain = np.asarray(gain, dtype=float)
    shift = np.asarray(shift, dtype=float)
    if eps <= 0:
        raise ParameterError("layer_norm eps must be > 0")
    if x.shape[-1] != gain.shape[-1] or gain.shape != shift.shape:
        raise DimensionError(
            f"layer_norm length mismatch: x {x.shape[-1]}, gain {gain.shape}, shift {shift.shape}")
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    y = (x - mu) / np.sqrt(var + eps)
    return gain * y + shift


def init_backbone(dims: ModelDims, rng: np.random.Generator) -> BackboneParams:
    """Kaiming-uniform weights, zero biases, identity LayerNorm affine."""
    widths = [dims.hidden1, dims.hidden2, dims.latent]
    fan_ins = [dims.in_dim, dims.hidden1, dims.hidden2]
    weights, biases, gains, shifts = [], [], [], []
    for out_w, fan_in in zip(widths, fan_ins):
        bound = math.sqrt(6.0 / fan_in)
        weights.append(rng.uniform(-bound, bound, size=(out_w, fan_in)))
        biases.append(np.zeros(out_w))
        gains.append(np.ones(out_w))
        shifts.append(np.zeros(out_w))
    return BackboneParams(weights, biases, gains, shifts)


def init_head(dims: ModelDims, rng: np.random.Generator) -> HeadParams:
    if dims.head == "single":
        bound = math.sqrt(6.0 / dims.latent)
        return HeadParams(
            "single",
            w_out=rng.uniform(-bound, bound, size=(dims.n_outputs, dims.latent)),
            b_out=np.zeros(dims.n_outputs),
        )
    b1 = math.sqrt(6.0 / dims.latent)
    b2 = math.sqrt(6.0 / dims.head_hidden)
    return HeadParams(
        "two-layer",
        w1=rng.uniform(-b1, b1, size=(dims.head_hidden, dims.latent)),
        b1=np.zeros(dims.head_hidden),
        w2=rng.uniform(-b2, b2, size=(dims.n_outputs, dims.head_hidden)),
        b2=np.zeros(dims.n_outputs),
        dropout=dims.dropout,
    )


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
    """Head pass over a batch of latent rows; dropout is inverted-scaled at
    train time, identity at eval."""
    if params.variant == "single":
        z = _rows(z, params.w_out.shape[1], "single head input")
        return z @ params.w_out.T + params.b_out, {"z": z}
    z = _rows(z, params.w1.shape[1], "two-layer head input")
    mask = None
    zd = z
    if training and params.dropout > 0.0:
        if rng is None:
            raise ParameterError("training dropout requires an rng")
        keep = 1.0 - params.dropout
        mask = (rng.random(z.shape) < keep) / keep
        zd = z * mask
    a1 = zd @ params.w1.T + params.b1
    s1 = expit(a1)
    h1 = a1 * s1
    pred = h1 @ params.w2.T + params.b2
    return pred, {"zd": zd, "mask": mask, "a1": a1, "s1": s1, "h1": h1}


def head_backward(params: HeadParams, cache, dpred, grads):
    """Writes the head's gradients into ``grads`` (a HeadParams of float64
    arrays); returns (grads, dL/dz)."""
    if params.variant == "single":
        dp = _rows(dpred, params.w_out.shape[0], "head_backward")
        np.matmul(dp.T, cache["z"], out=grads.w_out)
        np.sum(dp, axis=0, out=grads.b_out)
        return grads, dp @ params.w_out
    dp = _rows(dpred, params.w2.shape[0], "head_backward")
    dh1 = dp @ params.w2
    np.matmul(dp.T, cache["h1"], out=grads.w2)
    np.sum(dp, axis=0, out=grads.b2)
    da1 = dh1 * silu_grad(cache["a1"], cache["s1"])
    np.matmul(da1.T, cache["zd"], out=grads.w1)
    np.sum(da1, axis=0, out=grads.b1)
    dz = da1 @ params.w1
    if cache["mask"] is not None:
        dz = dz * cache["mask"]
    return grads, dz


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
    gh = _as_head(head.variant, views[nb:], head.dropout)
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
# order; head appended (single: w_out, b_out; two-layer: w1, b1, w2, b2).
# ---------------------------------------------------------------------------

def _backbone_arrays(p: BackboneParams):
    out = []
    for i in range(len(p.weights)):
        out.extend([p.weights[i], p.biases[i], p.gains[i], p.shifts[i]])
    return out


def _head_arrays(p: HeadParams):
    if p.variant == "single":
        return [p.w_out, p.b_out]
    return [p.w1, p.b1, p.w2, p.b2]


def _as_backbone(arrays) -> BackboneParams:
    return BackboneParams(arrays[0::4], arrays[1::4], arrays[2::4], arrays[3::4])


def _as_head(variant, arrays, dropout=0.0) -> HeadParams:
    if variant == "single":
        return HeadParams("single", w_out=arrays[0], b_out=arrays[1])
    return HeadParams("two-layer", w1=arrays[0], b1=arrays[1], w2=arrays[2],
                      b2=arrays[3], dropout=dropout)


def _backbone_shapes(dims: ModelDims):
    widths = [dims.hidden1, dims.hidden2, dims.latent]
    fan_ins = [dims.in_dim, dims.hidden1, dims.hidden2]
    return [shape for w, f in zip(widths, fan_ins)
            for shape in ((w, f), (w,), (w,), (w,))]


def _head_shapes(dims: ModelDims):
    m, l = dims.n_outputs, dims.latent
    if dims.head == "single":
        return [(m, l), (m,)]
    h = dims.head_hidden
    return [(h, l), (h,), (m, h), (m,)]


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
    """The head whose arrays are views of ``flat``: writes go through."""
    if flat.size != head_size(dims):
        raise DimensionError(
            f"flat length {flat.size} != head size {head_size(dims)}")
    return _as_head(dims.head, _carve(flat, _head_shapes(dims)), dims.dropout)


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
