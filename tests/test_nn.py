import numpy as np
import pytest
from scipy.special import expit

from remfl import nn

RNG = np.random.default_rng(42)

TINY = nn.ModelDims(in_dim=4, n_outputs=2, hidden1=4, hidden2=4, latent=8,
                    head="two-layer", head_hidden=3, dropout=0.1)


def tiny_model(seed=0, head="two-layer"):
    dims = nn.ModelDims(in_dim=4, n_outputs=2, hidden1=4, hidden2=4, latent=8,
                        head=head, head_hidden=3, dropout=0.1)
    rng = np.random.default_rng(seed)
    return dims, nn.init_backbone(dims, rng), nn.init_head(dims, rng)


# ---------------------------------------------------------------------------
# activations and layer norm, as the forward passes apply them
# ---------------------------------------------------------------------------

def head_silu(a):
    """The hidden activation of a two-layer head whose pre-activation is
    ``a``: zero input weights, bias ``a``, identity output layer."""
    a = np.atleast_1d(np.asarray(a, dtype=float))
    dims = nn.ModelDims(in_dim=1, n_outputs=a.size, latent=2,
                        head_hidden=a.size, dropout=0.0)
    head = nn.head_view(np.zeros(nn.head_size(dims)), dims)
    head.biases[0][:] = a
    head.weights[1][:] = np.eye(a.size)
    return nn.head_forward(head, np.zeros((1, 2)))[0][0]


def backbone_layer_norm(a, gain=1.0, shift=0.0):
    """The latent of a backbone whose last layer has pre-activation ``a``
    (zero weights, bias ``a``) and LayerNorm affine (gain, shift)."""
    a = np.asarray(a, dtype=float)
    dims = nn.ModelDims(in_dim=1, n_outputs=1, hidden1=1, hidden2=1,
                        latent=a.size)
    bb = nn.init_backbone(dims, np.random.default_rng(0))
    bb.weights[2][:] = 0.0
    bb.biases[2][:] = a
    bb.gains[2][:] = gain
    bb.shifts[2][:] = shift
    return nn.backbone_forward(bb, np.zeros((1, 1)))[0][0]


def test_silu_zero():
    assert head_silu(0.0)[0] == 0.0


def test_silu_saturates():
    assert abs(head_silu(20.0)[0] - 20.0) < 1e-6


def test_silu_one():
    # 1 / (1 + e^-1), frozen from a high-precision evaluation
    assert abs(head_silu(1.0)[0] - 0.7310585786300049) < 1e-14


def test_layer_norm_constant_input_is_zero():
    out = backbone_layer_norm(np.full(7, 3.5))
    assert np.allclose(out, 0.0)


def test_layer_norm_unit_variance_pair():
    # silu(10) - silu(0) is ~10, so LN_EPS moves the pair by ~2e-7.
    out = backbone_layer_norm(np.array([10.0, 0.0]))
    assert np.allclose(out, [1.0, -1.0], atol=1e-6)


def test_layer_norm_zero_gain_gives_shift():
    out = backbone_layer_norm(RNG.normal(size=5), gain=0.0, shift=2.5)
    assert np.allclose(out, 2.5)


def test_layer_norm_statistics_property():
    # Under the identity affine the latent is the normalized activation:
    # zero mean and, up to LN_EPS, unit population variance per row.
    for _ in range(50):
        width = int(RNG.integers(2, 64))
        dims = nn.ModelDims(in_dim=3, n_outputs=1, hidden1=5, hidden2=5,
                            latent=width)
        bb = nn.init_backbone(dims, RNG)
        for w in bb.weights:
            w *= RNG.uniform(0.5, 50)
        z, cache = nn.backbone_forward(bb, RNG.normal(size=(4, 3)))
        var_h = (cache[-1][1] * cache[-1][2]).var(axis=-1)
        assert np.all(np.abs(z.mean(axis=-1)) < 1e-9)
        assert np.allclose(z.var(axis=-1), var_h / (var_h + nn.LN_EPS),
                           rtol=1e-9, atol=0.0)


# ---------------------------------------------------------------------------
# forward passes
# ---------------------------------------------------------------------------

def test_backbone_zero_input_zero_latent():
    dims, bb, _ = tiny_model()
    for b in bb.biases:
        b[:] = 0.0
    z, _ = nn.backbone_forward(bb, np.zeros((1, 4)))
    assert np.allclose(z, 0.0)


def test_backbone_output_width_is_latent():
    dims = nn.ModelDims(in_dim=6, n_outputs=3)
    bb = nn.init_backbone(dims, np.random.default_rng(0))
    z, _ = nn.backbone_forward(bb, RNG.normal(size=(1, 6)))
    assert z.shape == (1, 512)


def test_backbone_matches_inline_formula():
    # independent oracle: apply the published layer formula directly
    dims, bb, _ = tiny_model(seed=3)
    x = RNG.normal(size=4)
    cur = x
    for w, b, g, s in zip(bb.weights, bb.biases, bb.gains, bb.shifts):
        a = w @ cur + b
        h = a * expit(a)
        cur = g * (h - h.mean()) / np.sqrt(h.var() + nn.LN_EPS) + s
    z, _ = nn.backbone_forward(bb, x[None, :])
    assert np.allclose(z[0], cur, atol=1e-12)


def test_backbone_single_unit_chain():
    # width-1 LayerNorm zero-centers everything, so the output is the final shift
    dims = nn.ModelDims(in_dim=1, n_outputs=1, hidden1=1, hidden2=1, latent=1)
    bb = nn.init_backbone(dims, np.random.default_rng(5))
    bb.shifts[2][:] = 0.3
    z, _ = nn.backbone_forward(bb, np.array([[1.7]]))
    assert np.allclose(z, 0.3)


def test_backbone_dimension_error():
    dims, bb, _ = tiny_model()
    with pytest.raises(nn.DimensionError):
        nn.backbone_forward(bb, np.zeros((1, 5)))
    with pytest.raises(nn.DimensionError):  # one sample is a one-row batch
        nn.backbone_forward(bb, np.zeros(4))


@pytest.mark.parametrize("head", ["two-layer", "single"])
def test_head_passes_reject_one_dimensional_input(head):
    _, bb, hd = tiny_model(head=head)
    z, bc = nn.backbone_forward(bb, np.zeros((1, 4)))
    pred, hc = nn.head_forward(hd, z)
    with pytest.raises(nn.DimensionError):
        nn.head_forward(hd, z[0])
    with pytest.raises(nn.DimensionError):
        nn.backward(bb, hd, bc, hc, np.zeros_like(pred[0]))


def test_single_head_at_origin_is_bias():
    _, _, head = tiny_model(head="single")
    assert len(head.weights) == 1 and head.dropout == 0.0  # dims say 0.1
    head.biases[0][:] = [1.0, -2.0]
    pred, _ = nn.head_forward(head, np.zeros((1, 8)))
    assert np.allclose(pred, [[1.0, -2.0]])


def test_two_layer_head_eval_ignores_dropout():
    _, _, head = tiny_model(seed=1)
    head.dropout = 0.5
    z = RNG.normal(size=(1, 8))
    p1, _ = nn.head_forward(head, z, training=False)
    p2, _ = nn.head_forward(head, z, training=False)
    assert np.array_equal(p1, p2)


def test_two_layer_head_zero_weights_gives_bias():
    _, _, head = tiny_model()
    assert len(head.weights) == 2
    for w in head.weights:
        w[:] = 0.0
    head.biases[1][:] = [0.5, 0.25]
    pred, _ = nn.head_forward(head, RNG.normal(size=(1, 8)))
    assert np.allclose(pred, [[0.5, 0.25]])


def test_dropout_inverted_scaling():
    _, _, head = tiny_model(seed=2)
    head.dropout = 0.5
    z = np.ones((1, 8))
    rng = np.random.default_rng(0)
    caches = [nn.head_forward(head, z, training=True, rng=rng)[1]
              for _ in range(2000)]
    # kept entries are scaled by 1/(1-rate) so E[D(z)] = z
    for c in caches[:10]:
        assert set(np.unique(c["mask"])) <= {0.0, 2.0}
        assert np.array_equal(c["inputs"][0], z * c["mask"])
    mean_zd = np.mean([c["inputs"][0] for c in caches], axis=0)
    assert np.allclose(mean_zd, z, atol=0.15)


# ---------------------------------------------------------------------------
# Huber loss
# ---------------------------------------------------------------------------

def test_huber_zero_at_match():
    y = RNG.normal(size=4)
    assert nn.huber_loss(y, y) == 0.0


def test_huber_quadratic_branch():
    assert nn.huber_loss(np.array([0.5]), np.array([0.0]), 1.0) == 0.125


def test_huber_linear_branch():
    assert nn.huber_loss(np.array([2.0]), np.array([0.0]), 1.0) == 1.5


def test_huber_rejects_bad_delta():
    with pytest.raises(nn.ParameterError):
        nn.huber_loss(np.zeros(2), np.zeros(2), 0.0)


def test_huber_smooth_at_delta():
    delta = 1.0
    eps = 1e-7
    lo = nn.huber_loss(np.array([delta - eps]), np.array([0.0]), delta)
    hi = nn.huber_loss(np.array([delta + eps]), np.array([0.0]), delta)
    assert abs(hi - lo) < 1e-6  # continuous
    glo = nn.huber_grad(np.array([delta - eps]), np.array([0.0]), delta)[0]
    ghi = nn.huber_grad(np.array([delta + eps]), np.array([0.0]), delta)[0]
    assert abs(ghi - glo) < 1e-6  # C1


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def _flat_params(bb, head):
    return np.concatenate([nn.flatten_backbone(bb), nn.flatten_head(head)])


def _loss_at(flat, dims, x, y):
    lb = nn.backbone_size(dims)
    bb = nn.unflatten_backbone(flat[:lb], dims)
    head = nn.unflatten_head(flat[lb:], dims)
    z, _ = nn.backbone_forward(bb, x)
    pred, _ = nn.head_forward(head, z)
    return nn.huber_loss(pred, y)


def analytic_and_fd(seed, head="two-layer", step=1e-5, n_checks=None):
    dims, bb, hd = tiny_model(seed, head=head)
    rng = np.random.default_rng(seed + 100)
    x = rng.normal(size=(3, 4))
    y = rng.normal(size=(3, 2)) * 0.5  # keep residuals off the Huber kink
    z, bc = nn.backbone_forward(bb, x)
    pred, hc = nn.head_forward(hd, z)
    bg, hg = nn.backward(bb, hd, bc, hc, nn.huber_grad(pred, y))
    flat = _flat_params(bb, hd)
    grad = _flat_params(bg, hg)
    idx = np.arange(flat.size) if n_checks is None \
        else rng.choice(flat.size, n_checks, replace=False)
    fd = np.empty(idx.size)
    for j, i in enumerate(idx):
        up, dn = flat.copy(), flat.copy()
        up[i] += step
        dn[i] -= step
        fd[j] = (_loss_at(up, dims, x, y) - _loss_at(dn, dims, x, y)) / (2 * step)
    rel = np.abs(grad[idx] - fd) / np.maximum(np.abs(fd), 1e-6)
    return rel.max()


def test_gradients_match_finite_differences():
    for seed in range(3):
        assert analytic_and_fd(seed) < 1e-4
    assert analytic_and_fd(7, head="single") < 1e-4


def test_zero_seed_gives_zero_gradients():
    dims, bb, hd = tiny_model()
    x = RNG.normal(size=(2, 4))
    z, bc = nn.backbone_forward(bb, x)
    pred, hc = nn.head_forward(hd, z)
    bg, hg = nn.backward(bb, hd, bc, hc, np.zeros_like(np.atleast_2d(pred)))
    assert not np.any(_flat_params(bg, hg))


# ---------------------------------------------------------------------------
# optimizer and init
# ---------------------------------------------------------------------------

def test_adam_zero_gradient_is_identity():
    state = nn.AdamState(np.zeros(5), np.zeros(5))
    p = RNG.normal(size=5)
    out = nn.adam_step(state, p, np.zeros(5), lr=0.1)
    assert np.array_equal(out, p)


def test_adam_descends_quadratic():
    state = nn.AdamState(np.zeros(1), np.zeros(1))
    w = np.array([1.0])
    w2 = nn.adam_step(state, w, 2 * w, lr=0.1)
    assert 0 < w2[0] < 1.0


def test_adam_deterministic():
    runs = []
    for _ in range(2):
        state = nn.AdamState(np.zeros(4), np.zeros(4))
        p = np.ones(4)
        rng = np.random.default_rng(9)
        for _ in range(20):
            p = nn.adam_step(state, p, rng.normal(size=4), lr=0.01)
        runs.append(p)
    assert np.array_equal(runs[0], runs[1])


def test_init_deterministic_under_seed():
    dims = TINY
    a = nn.init_backbone(dims, np.random.default_rng(3))
    b = nn.init_backbone(dims, np.random.default_rng(3))
    assert np.array_equal(nn.flatten_backbone(a), nn.flatten_backbone(b))


def test_init_layer_norm_affine_identity():
    bb = nn.init_backbone(TINY, np.random.default_rng(0))
    assert all(np.all(g == 1.0) for g in bb.gains)
    assert all(np.all(s == 0.0) for s in bb.shifts)
    assert all(np.all(b == 0.0) for b in bb.biases)


def test_init_weights_within_kaiming_bound():
    bb = nn.init_backbone(TINY, np.random.default_rng(0))
    for w in bb.weights:
        bound = np.sqrt(6.0 / w.shape[1])
        assert np.all(np.abs(w) <= bound)


def test_flatten_roundtrip_identity():
    dims, bb, hd = tiny_model(seed=4)
    bb2 = nn.unflatten_backbone(nn.flatten_backbone(bb), dims)
    hd2 = nn.unflatten_head(nn.flatten_head(hd), dims)
    assert np.array_equal(nn.flatten_backbone(bb2), nn.flatten_backbone(bb))
    assert np.array_equal(nn.flatten_head(hd2), nn.flatten_head(hd))
    assert nn.flatten_backbone(bb).size == nn.backbone_size(dims)
    assert nn.flatten_head(hd).size == nn.head_size(dims)


# ---------------------------------------------------------------------------
# flat store: in-place Adam, backward into a buffer, views
# ---------------------------------------------------------------------------

def _adam_reference(m, v, p, g, t, lr, b1=nn.ADAM_BETA1, b2=nn.ADAM_BETA2,
                    eps=nn.ADAM_EPS):
    """The out-of-place formula, in the order adam_step documents."""
    m = b1 * m + (1.0 - b1) * g
    v = b2 * v + (1.0 - b2) * g * g
    mhat = m / (1.0 - b1 ** t)
    vhat = v / (1.0 - b2 ** t)
    return m, v, p - lr * mhat / (np.sqrt(vhat) + eps)


def test_adam_in_place_matches_reference_bitwise():
    for dtype in (np.float64, np.float32):
        rng = np.random.default_rng(11)
        n = 2 * nn.ADAM_BLOCK + 257  # two whole blocks and a remainder
        state = nn.AdamState(np.zeros(n, dtype), np.zeros(n, dtype))
        m0, v0 = state.m, state.v
        p = rng.normal(size=n).astype(dtype)
        ref_m, ref_v, ref_p = np.zeros(n, dtype), np.zeros(n, dtype), p.copy()
        scratch = np.empty((2, nn.ADAM_BLOCK), dtype)
        for t in range(1, 21):
            g = (rng.normal(size=n) * rng.uniform(1e-4, 10.0)).astype(dtype)
            out = nn.adam_step(state, p, g, lr=3e-3, scratch=scratch)
            ref_m, ref_v, ref_p = _adam_reference(ref_m, ref_v, ref_p, g, t,
                                                  3e-3)
            assert out is p
            assert ref_p.dtype == dtype
            assert np.array_equal(p, ref_p)
            assert np.array_equal(state.m, ref_m)
            assert np.array_equal(state.v, ref_v)
        assert state.m is m0 and state.v is v0
        assert state.step == 20


@pytest.mark.parametrize("odd", ["params", "grads", "m", "v", "scratch"])
def test_adam_rejects_mixed_dtypes(odd):
    arrays = {"params": np.zeros(3), "grads": np.ones(3), "m": np.zeros(3),
              "v": np.zeros(3), "scratch": np.empty((2, 3))}
    arrays[odd] = arrays[odd].astype(np.float32)
    state = nn.AdamState(arrays["m"], arrays["v"])
    with pytest.raises(nn.ParameterError, match="one dtype"):
        nn.adam_step(state, arrays["params"], arrays["grads"],
                     scratch=arrays["scratch"])
    assert state.step == 0 and not arrays["params"].any()


def test_adam_float32_overflow_is_non_finite_not_an_error():
    # lr=1e300 does not fit in float32; the caller's finite check, not a
    # floating-point error, has to see that.
    p = np.ones(4, np.float32)
    state = nn.AdamState(np.zeros(4, np.float32), np.zeros(4, np.float32))
    with np.errstate(all="raise"):
        nn.adam_step(state, p, np.ones(4, np.float32), lr=1e300)
    assert not np.isfinite(p).any()


@pytest.mark.parametrize("head", ["two-layer", "single"])
def test_backward_into_buffer_equals_allocating_backward(head):
    dims, bb, hd = tiny_model(seed=5, head=head)
    rng = np.random.default_rng(6)
    x = rng.normal(size=(7, 4))
    y = rng.normal(size=(7, 2))
    z, bc = nn.backbone_forward(bb, x)
    pred, hc = nn.head_forward(hd, z, training=True, rng=rng)
    seed = nn.huber_grad(pred, y)
    bg, hg = nn.backward(bb, hd, bc, hc, seed)
    buf = np.full(nn.backbone_size(dims) + nn.head_size(dims), np.nan)
    vb, vh = nn.backward(bb, hd, bc, hc, seed, out=buf)
    assert np.array_equal(buf, _flat_params(bg, hg))
    assert len(vh.weights) == (1 if head == "single" else 2)
    assert all(np.shares_memory(a, buf)
               for a in vb.weights + vh.weights + [vh.biases[-1]])


def test_backward_rejects_wrong_buffer():
    dims, bb, hd = tiny_model()
    flat64 = _flat_params(bb, hd)
    lb = nn.backbone_size(dims)
    for params, buffer in [(flat64, np.zeros(3)),
                           (flat64, np.zeros(flat64.size, np.float32)),
                           (flat64.astype(np.float32), np.zeros(flat64.size))]:
        bb = nn.backbone_view(params[:lb], dims)
        hd = nn.head_view(params[lb:], dims)
        z, bc = nn.backbone_forward(bb, np.zeros((1, 4)))
        pred, hc = nn.head_forward(hd, z)
        with pytest.raises(nn.DimensionError):
            nn.backward(bb, hd, bc, hc, np.zeros_like(pred), out=buffer)
        # Without a buffer, the gradients take the parameters' dtype.
        gb, _ = nn.backward(bb, hd, bc, hc, np.zeros_like(pred))
        assert gb.weights[0].dtype == params.dtype


def test_silu_grad_from_cached_sigmoid_is_exact():
    a = RNG.normal(size=1000) * 8
    assert np.array_equal(nn.silu_grad(a, nn.sigmoid(a)), nn.silu_grad(a))


# ---------------------------------------------------------------------------
# element-wise kernels of the passes
# ---------------------------------------------------------------------------

SIGMOID_TOL = {np.float32: 1e-7, np.float64: 1e-15}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_matches_expit_and_keeps_dtype(dtype):
    x = np.concatenate([np.linspace(-100, 100, 200_001),
                        [1e30, -1e30, np.inf, -np.inf, 0.0, -0.0]]).astype(dtype)
    with np.errstate(all="raise"):
        s = nn.sigmoid(x)
    # The error against the float64 expit of the same inputs: within a
    # rounding of the exact value (a float32 expit may sit one ulp off).
    ref = expit(x.astype(np.float64))
    assert s.dtype == dtype
    assert np.all((s >= 0.0) & (s <= 1.0))
    assert np.max(np.abs(s - ref)) <= SIGMOID_TOL[dtype]
    assert np.array_equal(s[-6:], [1.0, 0.0, 1.0, 0.0, 0.5, 0.5])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_of_zero_is_one_half_and_writes_into_out(dtype):
    x = np.array([[0.0, -0.0], [3.0, -3.0]], dtype)
    out = np.empty_like(x)
    assert nn.sigmoid(x, out=out) is out
    assert out[0, 0] == 0.5 and out[0, 1] == 0.5
    assert np.array_equal(out, nn.sigmoid(x))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("dropout", [0.05, 0.1, 0.3, 0.5, 0.9])
def test_dropout_mask_equals_cast_division_bitwise(dtype, dropout):
    # The mask as 0/(1/keep) rounded to the dtype, against the formula
    # ((draw < keep) / keep) cast from float64, on the same draws.
    dims = nn.ModelDims(in_dim=3, n_outputs=2, latent=64, head_hidden=8,
                        dropout=dropout)
    head = nn.head_view(np.zeros(nn.head_size(dims), dtype), dims)
    z = np.ones((16, 64), dtype)
    _, cache = nn.head_forward(head, z, training=True,
                               rng=np.random.default_rng(7))
    keep = 1.0 - dropout
    draw = np.random.default_rng(7).random(z.shape)
    old = ((draw < keep) / keep).astype(dtype)
    assert cache["mask"].dtype == dtype
    assert cache["mask"].tobytes() == old.tobytes()


def test_layer_norm_statistics_match_mean_and_var_in_float32():
    # Rows of each layer's activation h = a·σ(a), normalized by the row
    # statistics numpy's mean/var give, within float32 rounding.
    rng = np.random.default_rng(5)
    dims = nn.ModelDims(in_dim=6, n_outputs=1, hidden1=64, hidden2=128,
                        latent=512)
    flat = np.zeros(nn.backbone_size(dims), np.float32)
    bb = nn.backbone_view(flat, dims)
    for arrs in (bb.weights, bb.biases, bb.gains, bb.shifts):
        for a in arrs:
            a[...] = rng.normal(size=a.shape)
    _, cache = nn.backbone_forward(bb, rng.normal(size=(32, 6)))
    for _, a, sig, y, inv_std in cache:
        h = (a * sig).astype(np.float64)
        mu = h.mean(axis=-1, keepdims=True)
        ref_inv = 1.0 / np.sqrt(h.var(axis=-1, keepdims=True) + nn.LN_EPS)
        assert y.dtype == inv_std.dtype == np.float32
        assert np.allclose(inv_std, ref_inv, rtol=1e-5, atol=0.0)
        assert np.allclose(y, (h - mu) * ref_inv, rtol=1e-4, atol=1e-5)


def test_views_write_through_and_unflatten_copies():
    dims, bb, hd = tiny_model(seed=8)
    flat = _flat_params(bb, hd)
    lb = nn.backbone_size(dims)
    assert flat.dtype == np.float64 and flat.size == lb + nn.head_size(dims)
    vb = nn.backbone_view(flat[:lb], dims)
    vh = nn.head_view(flat[lb:], dims)
    assert np.shares_memory(vb.weights[0], flat)
    vb.gains[1][0] = 42.0
    vh.biases[-1][-1] = -7.0
    assert np.array_equal(flat, _flat_params(vb, vh))
    assert np.count_nonzero(flat == 42.0) == 1 and flat[-1] == -7.0
    copy = nn.unflatten_backbone(flat[:lb], dims)
    assert not np.shares_memory(copy.weights[0], flat)
    assert np.array_equal(nn.flatten_backbone(copy), flat[:lb])
    assert nn.flatten_backbone(vb).size == lb
    assert nn.flatten_head(vh).size == nn.head_size(dims)
