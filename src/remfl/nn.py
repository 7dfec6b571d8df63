"""Minimal dense network engine for the split backbone/head model.

Everything is plain numpy: a three-layer MLP backbone
(bias -> SiLU -> LayerNorm per layer, normalization applied after the
activation) producing a latent vector, plus a per-client head of dense
layers with SiLU between them: one for ``single``, two for ``two-layer``,
which also has inverted dropout on its input.  Gradients are hand-written
reverse mode; the optimizer is Adam with bias correction, updating a flat
parameter vector and its moments in place.

Every array takes its dtype from the parameters: a batch is cast to the
weights' dtype, activations, caches, gradients and Adam's moments follow
it, and nothing promotes a float32 model to float64 along the way.  The
round loop keeps clients in float32 (``federation.CLIENT_DTYPE``); the
initializers give float64.

The element-wise work of a pass is built for few, cheap passes over
memory.  The sigmoid is σ(x) = ½ + ½·tanh(x/2), four in-place ufuncs
whose ``tanh`` loop is vectorized, in place of scipy's scalar ``expit``
(``nn`` does not import scipy).  LayerNorm takes its row statistics as
products: the mean of a row as ``h @ avg`` with ``avg`` a vector of
1/width, and the variance of the centred row ``d`` as
``einsum("ij,ij->i", d, d)/width``; the backward pass takes its two row
means the same way.  A temporary that only feeds the next operation is
updated in place.

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

LN_EPS = 1e-5
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# Entries per pass of adam_step: 32768 of them, 256 KiB per work row in
# float64 and 128 KiB in float32, so the pass's temporaries stay in cache.
ADAM_BLOCK = 32768


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


def sigmoid(x, out=None):
    """σ(x) = ½ + ½·tanh(x/2) in ``x``'s dtype, into ``out`` when given.
    Exact at 0 (0.5) and at ±inf (1 and 0), warning-free for any float;
    within 1e-7 of the exact value in float32 and 1e-15 in float64."""
    out = np.multiply(x, 0.5, out=out)
    np.tanh(out, out=out)
    np.multiply(out, 0.5, out=out)
    np.add(out, 0.5, out=out)
    return out


def silu_grad(x, sig=None):
    """d silu / dx = σ·(1 + x·(1 - σ)); ``sig`` is sigmoid(x) when the
    forward pass kept it."""
    s = sigmoid(x) if sig is None else sig
    t = 1.0 - s
    t *= x
    t += 1.0
    t *= s
    return t


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


def _rows(a, width, what, dtype):
    """``a`` as a batch of rows ``width`` wide in ``dtype``, the weights'
    (no copy when it already is one); anything else, a single 1-D sample
    included, is a DimensionError."""
    a = np.asarray(a, dtype=dtype)
    if a.ndim != 2 or a.shape[1] != width:
        raise DimensionError(
            f"{what}: expected rows of width {width}, got shape {a.shape}")
    return a


def _row_average(width, dtype):
    """The vector whose product with a batch is each row's mean."""
    return np.full(width, 1.0 / width, dtype)


def backbone_forward(params: BackboneParams, x):
    """Forward pass over a batch of rows; returns (latent, cache), the cache
    holding each layer's (input, pre-activation, sigmoid, normalized
    activation, 1/std) for the backward pass."""
    w0 = params.weights[0]
    cur = _rows(x, w0.shape[1], "backbone input", w0.dtype)
    layers = []
    for w, b, g, s in zip(params.weights, params.biases, params.gains, params.shifts):
        a = cur @ w.T
        a += b
        sig = sigmoid(a)
        y = a * sig
        width = y.shape[1]
        y -= (y @ _row_average(width, y.dtype))[:, None]
        var = np.einsum("ij,ij->i", y, y) * (1.0 / width)
        inv_std = (1.0 / np.sqrt(var + LN_EPS))[:, None]
        y *= inv_std
        out = y * g
        out += s
        layers.append((cur, a, sig, y, inv_std))
        cur = out
    return cur, layers


def backbone_backward(params: BackboneParams, cache, dz, grads):
    """Reverse pass through the backbone, writing its parameter gradients
    into ``grads`` (a BackboneParams of arrays in the parameters' dtype)
    and returning it.

    dL/dx of the input is never needed, so it is not computed.
    """
    w = params.weights[-1]
    dout = _rows(dz, w.shape[0], "backbone_backward", w.dtype)
    for i in reversed(range(len(params.weights))):
        x_in, a, sig, y, inv_std = cache[i]
        np.einsum("ij,ij->j", dout, y, out=grads.gains[i])
        np.sum(dout, axis=0, out=grads.shifts[i])
        # dL/da = (dy - mean(dy) - y·mean(dy·y))·(1/std)·silu'(a), the row
        # means taken as products; da holds dy = dout·gain, then dL/da.
        da = dout * params.gains[i]
        width = da.shape[1]
        dy_y = np.einsum("ij,ij->i", da, y) * (1.0 / width)
        da -= (da @ _row_average(width, da.dtype))[:, None]
        da -= y * dy_y[:, None]
        da *= inv_std
        da *= silu_grad(a, sig)
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
    w0 = params.weights[0]
    cur = _rows(z, w0.shape[1], "head input", w0.dtype)
    mask = None
    if training and params.dropout > 0.0:
        if rng is None:
            raise ParameterError("training dropout requires an rng")
        keep = 1.0 - params.dropout
        # The draw stays float64, so the stream does not depend on the
        # dtype; a float64 mask would promote the rest of the pass.  The
        # mask is 0 or 1/keep rounded to the dtype, made in one pass.
        mask = np.multiply(rng.random(cur.shape) < keep,
                           cur.dtype.type(1.0 / keep), dtype=cur.dtype)
        cur = cur * mask
    inputs, acts = [], []
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        inputs.append(cur)
        a = cur @ w.T
        a += b
        sig = sigmoid(a)
        acts.append((a, sig))
        cur = a * sig
    inputs.append(cur)
    pred = cur @ params.weights[-1].T
    pred += params.biases[-1]
    return pred, {"mask": mask, "inputs": inputs, "acts": acts}


def head_backward(params: HeadParams, cache, dpred, grads):
    """Writes the head's gradients into ``grads`` (a HeadParams of arrays
    in the parameters' dtype); returns (grads, dL/dz)."""
    w = params.weights[-1]
    d = _rows(dpred, w.shape[0], "head_backward", w.dtype)
    for i in reversed(range(len(params.weights))):
        if i < len(cache["acts"]):
            d *= silu_grad(*cache["acts"][i])  # d is d @ W of the layer above
        np.matmul(d.T, cache["inputs"][i], out=grads.weights[i])
        np.sum(d, axis=0, out=grads.biases[i])
        d = d @ params.weights[i]
    if cache["mask"] is not None:
        d *= cache["mask"]
    return grads, d


def backward(backbone: BackboneParams, head: HeadParams, bcache, hcache, dpred,
             out=None):
    """Full reverse pass from a loss-gradient seed on the predictions.

    Returns (backbone grads, head grads) as views of one flat vector in wire
    order and in the parameters' dtype: ``out`` when given (it must have
    the model's length and that dtype), else a new one.
    """
    arrays = _backbone_arrays(backbone) + _head_arrays(head)
    n = sum(a.size for a in arrays)
    dtype = backbone.weights[0].dtype
    if out is None:
        out = np.empty(n, dtype=dtype)
    elif out.dtype != dtype or out.size != n:
        raise DimensionError(
            f"backward: gradient buffer must be {n} {dtype} values, "
            f"got {out.size} {out.dtype}")
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
    pred = np.asarray(pred)
    target = np.asarray(target)
    if pred.shape != target.shape:
        raise DimensionError(f"pred {pred.shape} vs target {target.shape}")
    r = pred - target
    a = np.abs(r)
    per = np.where(a <= delta, 0.5 * r * r, delta * a - 0.5 * delta * delta)
    return float(per.mean())


def huber_grad(pred, target, delta=1.0):
    """d(mean Huber)/d(pred); the seed fed into backward(), in the dtype
    ``pred - target`` has."""
    if delta <= 0:
        raise ParameterError("huber delta must be > 0")
    r = np.subtract(pred, target)
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


def adam_step(state: AdamState, params: np.ndarray, grads: np.ndarray,
              lr=1e-3, scratch=None):
    """One bias-corrected Adam update, in place: ``params``, ``state.m`` and
    ``state.v`` are overwritten and ``params`` itself is returned.

    ``params`` is a flat vector; ``grads``, both moments and ``scratch``
    must share its dtype, in which all of the arithmetic runs.  The update
    runs over blocks of ``ADAM_BLOCK`` entries, so its temporaries stay in
    cache; ``scratch`` is a (2, ADAM_BLOCK) work array (a vector shorter
    than a block needs only its own length), allocated per call when it is
    not given.  The arithmetic is, per entry and in this order,
    m = b1*m + (1-b1)*g; v = b2*v + ((1-b2)*g)*g;
    p -= (lr * m/(1-b1^t)) / (sqrt(v/(1-b2^t)) + eps), b1, b2, eps = ADAM_*.
    A value beyond the dtype's range becomes inf or NaN without a warning;
    the caller's finite check sees it.
    """
    if params.shape != grads.shape or params.shape != state.m.shape:
        raise DimensionError("adam: params/grads/state shape mismatch")
    if scratch is None:
        scratch = np.empty((2, min(ADAM_BLOCK, params.size)), params.dtype)
    dtypes = {a.dtype for a in (params, grads, state.m, state.v, scratch)}
    if len(dtypes) != 1:
        raise ParameterError(
            "adam: params, grads, moments and scratch must share one dtype, "
            f"got {sorted(map(str, dtypes))}")
    state.step += 1
    bias1 = 1.0 - ADAM_BETA1 ** state.step
    bias2 = 1.0 - ADAM_BETA2 ** state.step
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, params.size, ADAM_BLOCK):
            hi = lo + ADAM_BLOCK
            p, g = params[lo:hi], grads[lo:hi]
            m, v = state.m[lo:hi], state.v[lo:hi]
            step_dir, denom = scratch[:, :p.size]
            np.multiply(m, ADAM_BETA1, out=m)
            np.multiply(g, 1.0 - ADAM_BETA1, out=step_dir)
            np.add(m, step_dir, out=m)
            np.multiply(v, ADAM_BETA2, out=v)
            np.multiply(g, 1.0 - ADAM_BETA2, out=step_dir)
            np.multiply(step_dir, g, out=step_dir)
            np.add(v, step_dir, out=v)
            np.divide(m, bias1, out=step_dir)
            np.multiply(step_dir, lr, out=step_dir)
            np.divide(v, bias2, out=denom)
            np.sqrt(denom, out=denom)
            np.add(denom, ADAM_EPS, out=denom)
            np.divide(step_dir, denom, out=step_dir)
            np.subtract(p, step_dir, out=p)
    return params
