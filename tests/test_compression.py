import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from remfl import compression as comp
from remfl.nn import ParameterError

RNG = np.random.default_rng(7)


# ---------------------------------------------------------------------------
# error feedback
# ---------------------------------------------------------------------------

def test_accumulate_zero_residual():
    d = RNG.normal(size=10)
    assert np.array_equal(comp.accumulate(d, np.zeros(10)), d)


def test_accumulate_zero_delta():
    r = RNG.normal(size=10)
    assert np.array_equal(comp.accumulate(np.zeros(10), r), r)


def test_accumulate_inverse():
    d, r = RNG.normal(size=10), RNG.normal(size=10)
    assert np.allclose(comp.accumulate(d, r) - r, d, atol=1e-12)


def test_accumulate_length_mismatch():
    with pytest.raises(ParameterError):
        comp.accumulate(np.zeros(3), np.zeros(4))


# ---------------------------------------------------------------------------
# top-k
# ---------------------------------------------------------------------------

def test_top_k_keeps_largest_magnitudes():
    u = np.array([3.0, -5.0, 1.0, 0.5])
    assert np.array_equal(comp.top_k(u, 2), [3.0, -5.0, 0.0, 0.0])


def test_top_k_full_is_identity():
    u = RNG.normal(size=16)
    assert np.array_equal(comp.top_k(u, 16), u)


def test_top_k_zero_keeps_nothing():
    u = RNG.normal(size=8)
    sparse = comp.top_k(u, 0)
    assert not np.any(sparse)
    assert np.array_equal(comp.residual_update(u, sparse), u)


def test_top_k_out_of_range():
    with pytest.raises(ParameterError):
        comp.top_k(np.zeros(4), 5)


def test_top_k_tie_break_lower_index():
    sparse = comp.top_k(np.array([1.0, -1.0, 1.0]), 2)
    assert np.array_equal(sparse, [1.0, -1.0, 0.0])


def test_top_k_drops_exact_zeros():
    sparse = comp.top_k(np.array([0.0, 2.0, 0.0]), 3)
    assert np.count_nonzero(sparse) == 1


def test_top_k_matches_sort_oracle():
    for _ in range(200):
        n = int(RNG.integers(1, 2000))
        # coarse values force magnitude ties
        u = np.round(RNG.normal(size=n), 1)
        k = int(RNG.integers(0, n + 1))
        kept = set(np.flatnonzero(comp.top_k(u, k)))
        order = sorted(range(n), key=lambda i: (-abs(u[i]), i))
        expect = {i for i in order[:k] if u[i] != 0}
        assert kept == expect
        # magnitude dominance
        if kept and len(kept) < np.count_nonzero(u):
            dropped = [abs(u[i]) for i in range(n)
                       if i not in kept and u[i] != 0]
            assert min(abs(u[i]) for i in kept) >= max(dropped)


def test_residual_identity_by_construction():
    u = RNG.normal(size=100)
    sparse = comp.top_k(u, 10)
    res = comp.residual_update(u, sparse)
    assert np.array_equal(sparse + res, u)
    assert np.all(res[np.flatnonzero(sparse)] == 0.0)


def test_residual_from_doc_example():
    u = np.array([3.0, -5.0, 1.0, 0.5])
    res = comp.residual_update(u, comp.top_k(u, 2))
    assert np.array_equal(res, [0.0, 0.0, 1.0, 0.5])


def test_full_k_zero_residual():
    u = RNG.normal(size=32)
    assert not np.any(comp.residual_update(u, comp.top_k(u, 32)))


# ---------------------------------------------------------------------------
# quantization
# ---------------------------------------------------------------------------

def test_quantize_known_values():
    q = comp.quantize(np.array([0.5, -1.0]))
    assert np.array_equal(q.indices, [0, 1])
    # round(63.5) = 64 under half-away-from-zero
    assert np.array_equal(q.qvalues, [64, -127])
    assert q.scale == pytest.approx(1.0 / 127, rel=1e-6)


def test_quantize_empty():
    q = comp.quantize(np.zeros(9))
    assert q.nnz == 0 and q.scale == 0.0 and q.length == 9
    assert np.array_equal(comp.dequantize(q), np.zeros(9))


def test_quantize_max_maps_to_127():
    for _ in range(20):
        v = np.zeros(50)
        idx = RNG.choice(50, 5, replace=False)
        v[idx] = RNG.normal(size=5)
        q = comp.quantize(v)
        assert np.max(np.abs(q.qvalues)) == 127


def test_quantize_odd_symmetry():
    v = np.zeros(20)
    v[[2, 5, 11]] = [0.3, -1.7, 0.9]
    q1, q2 = comp.quantize(v), comp.quantize(-v)
    assert np.array_equal(q1.qvalues, -q2.qvalues)
    assert q1.scale == q2.scale


def test_quantize_rejects_non_finite():
    with pytest.raises(comp.CodecError):
        comp.quantize(np.array([1.0, np.nan]))


def test_quantize_rejects_scale_beyond_float32():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow warning on the way
        with pytest.raises(comp.CodecError, match="client 3"):
            comp.quantize(np.array([0.0, -1e300, 2.0]), client_id=3)


def test_quantize_largest_float32_scale_is_accepted():
    top = float(np.finfo(np.float32).max)
    q = comp.quantize(np.array([top * comp.QMAX, 1.0]))
    assert q.scale == top and q.qvalues[0] == comp.QMAX


def test_quantize_scale_underflow_sends_empty_payload():
    # max|v|/127 rounds to float32 zero: every entry would dequantize to 0.
    q = comp.quantize(np.array([1e-50, 0.0, -3e-50]))
    assert q.nnz == 0 and q.scale == 0.0 and q.length == 3
    assert len(comp.encode(q)) == comp.HEADER_BYTES


def test_quantize_smallest_float32_scale_is_accepted():
    tiny = float(np.finfo(np.float32).smallest_subnormal)
    q = comp.quantize(np.array([tiny * comp.QMAX, 0.0]))
    assert q.scale == tiny and q.qvalues.tolist() == [comp.QMAX]


def test_dequantize_bound_and_sign():
    for _ in range(100):
        v = np.zeros(64)
        idx = RNG.choice(64, 8, replace=False)
        v[idx] = RNG.normal(size=8)
        q = comp.quantize(v)
        back = comp.dequantize(q)
        assert np.max(np.abs(back - v)) <= q.scale / 2 + 1e-12
        # symmetric quantizer never flips a sign (tiny values may drop to 0)
        assert np.all(back[idx] * v[idx] >= 0.0)
        kept = back[idx] != 0
        assert np.all(np.sign(back[idx][kept]) == np.sign(v[idx][kept]))


def test_dequantize_index_out_of_range():
    q = comp.QuantizedUpdate(np.array([5], dtype=np.uint32),
                             np.array([1], dtype=np.int8), 1.0, 4, 0, 0)
    with pytest.raises(comp.CodecError):
        comp.dequantize(q)


# ---------------------------------------------------------------------------
# wire format
# ---------------------------------------------------------------------------

def _random_update(rng):
    length = int(rng.integers(1, 500))
    nnz = int(rng.integers(0, min(length, 20) + 1))
    idx = np.sort(rng.choice(length, nnz, replace=False)).astype(np.uint32)
    qv = rng.integers(-127, 128, nnz).astype(np.int8)
    scale = float(np.float32(rng.random())) if nnz else 0.0
    return comp.QuantizedUpdate(idx, qv, scale, length,
                                int(rng.integers(0, 256)),
                                int(rng.integers(0, 1000)))


def _same(a, b):
    return (np.array_equal(a.indices, b.indices)
            and np.array_equal(a.qvalues, b.qvalues)
            and a.scale == b.scale and a.length == b.length
            and a.client_id == b.client_id and a.round == b.round)


def test_codec_roundtrip_field_exact():
    rng = np.random.default_rng(3)
    for _ in range(500):
        q = _random_update(rng)
        assert _same(comp.decode(comp.encode(q)), q)


def test_encoded_size_formula():
    rng = np.random.default_rng(4)
    for _ in range(50):
        q = _random_update(rng)
        buf = comp.encode(q)
        assert len(buf) == 21 + 5 * q.nnz


def test_empty_payload_is_header_only():
    q = comp.quantize(np.zeros(100))
    assert len(comp.encode(q)) == 21


def test_uplink_bytes_example():
    q = comp.QuantizedUpdate(
        np.arange(1000, dtype=np.uint32),
        np.ones(1000, dtype=np.int8), 1.0, 2000, 0, 0)
    assert len(comp.encode(q)) == 5021


def test_dense_baseline_bytes():
    assert comp.dense_bytes(1000) == 4000


def test_compression_ratio_at_one_percent():
    length = 225792
    nnz = round(0.01 * length)
    ratio = (21 + 5 * nnz) / comp.dense_bytes(length)
    assert ratio == pytest.approx(0.0125, abs=0.001)


def test_decode_bad_magic():
    buf = b"XXXX" + b"\x00" * 17
    with pytest.raises(comp.CodecError):
        comp.decode(buf)


def test_decode_truncation():
    q = comp.quantize(np.array([1.0, 0.0, -2.0]))
    buf = comp.encode(q)
    with pytest.raises(comp.CodecError):
        comp.decode(buf[:-1])
    with pytest.raises(comp.CodecError):
        comp.decode(buf[:10])


def test_decode_rejects_unsorted_indices():
    q = comp.QuantizedUpdate(np.array([3, 1], dtype=np.uint32),
                             np.array([1, 1], dtype=np.int8), 1.0, 10, 0, 0)
    with pytest.raises(comp.CodecError):
        comp.decode(comp.encode(q))


def test_decode_rejects_index_beyond_length():
    q = comp.QuantizedUpdate(np.array([9], dtype=np.uint32),
                             np.array([1], dtype=np.int8), 1.0, 5, 0, 0)
    with pytest.raises(comp.CodecError):
        comp.decode(comp.encode(q))


@pytest.mark.parametrize("scale", [np.inf, -np.inf, np.nan])
def test_decode_rejects_non_finite_scale(scale):
    q = comp.QuantizedUpdate(np.array([1], dtype=np.uint32),
                             np.array([1], dtype=np.int8), scale, 5, 0, 0)
    with pytest.raises(comp.CodecError, match="scale"):
        comp.decode(comp.encode(q))


def test_decode_rejects_qvalue_minus_128():
    q = comp.QuantizedUpdate(np.array([0, 2], dtype=np.uint32),
                             np.array([5, -128], dtype=np.int8), 1.0, 5, 0, 0)
    with pytest.raises(comp.CodecError, match="qvalue"):
        comp.decode(comp.encode(q))


def test_encode_rejects_wide_client_id():
    q = comp.quantize(np.zeros(4), client_id=300)
    with pytest.raises(comp.CodecError):
        comp.encode(q)


def test_encode_and_dequantize_refuse_one_qvalue_for_three_indices():
    # Encoded, it would read as the valid-looking entries [5, 5, 5].
    q = comp.QuantizedUpdate(np.array([1, 2, 3], dtype=np.uint32),
                             np.array([5], dtype=np.int8), 1.0, 5, 0, 0)
    for codec in (comp.encode, comp.dequantize):
        with pytest.raises(comp.CodecError, match="1 qvalues for 3 indices"):
            codec(q)


# ---------------------------------------------------------------------------
# transmit: one client's whole uplink
# ---------------------------------------------------------------------------

WIRE_FORMS = {  # id -> (Top-K, quantized, bytes for n entries of k kept)
    "qup1": (True, True, lambda n, k: comp.HEADER_BYTES + 5 * k),
    "topk-float32": (True, False, lambda n, k: comp.HEADER_BYTES + 8 * k),
    "dense": (False, False, lambda n, k: 4 * n),
}


def _dense(wire, length):
    """The float64 vector of ``length`` that a wire form of ``transmit``
    stands for, as the server sums it."""
    if isinstance(wire, bytes):
        return comp.dequantize(comp.decode(wire))
    if isinstance(wire, tuple):
        out = np.zeros(length)
        out[wire[0]] = wire[1]
        return out
    return wire.astype(np.float64)


@pytest.mark.parametrize("topk, quantized, size", WIRE_FORMS.values(),
                         ids=WIRE_FORMS.keys())
def test_transmit_wire_forms(topk, quantized, size):
    rng = np.random.default_rng(5)
    n, k = 200, 10
    delta = rng.normal(size=n)
    residual = rng.normal(size=n) * 0.1 if topk else None
    before = None if residual is None else residual.copy()
    wire, new_residual, n_bytes, nnz = comp.transmit(
        delta, residual, k, quantized, client_id=4, round_no=2)
    update = _dense(wire, n)
    if quantized:
        q = comp.decode(wire)
        assert (len(wire), q.client_id, q.round) == (n_bytes, 4, 2)
    elif topk:
        index, values = wire
        assert (index.dtype, values.dtype) == (np.uint32, np.float32)
        assert np.all(np.diff(index.astype(np.int64)) > 0)
        assert np.all(values != 0)
    else:
        assert wire.dtype == np.float32
    assert n_bytes == size(n, k)
    assert nnz == (k if topk else 0)
    if not topk:
        assert new_residual is None
        # The float32 wire carries delta rounded to float32.
        assert np.array_equal(update, delta.astype(np.float32))
        assert not np.array_equal(update, delta)
    elif not quantized:
        sent = comp.top_k(delta + residual, k)
        assert np.array_equal(update, sent.astype(np.float32))
        assert not np.array_equal(update, sent)
        # The rounding error stays in the residual, exactly.
        assert np.array_equal(update + new_residual, delta + residual)
    else:
        sent = comp.top_k(delta + residual, k)
        assert np.array_equal(new_residual, delta + residual - sent)
        assert np.array_equal(update, comp.dequantize(comp.quantize(sent)))
    if topk:
        assert np.array_equal(residual, before)

    delta[3] = 1e300  # beyond float32: the wire cannot carry it
    with pytest.raises(comp.UnencodableUpdate):
        comp.transmit(delta, residual, k, quantized)
    if topk:
        assert np.array_equal(residual, before)


def test_transmit_rejects_dense_nan():
    with pytest.raises(comp.UnencodableUpdate, match="client 2"):
        comp.transmit(np.array([1.0, np.nan]), None, 2, False, client_id=2)


def test_transmit_wide_client_id_is_not_an_unencodable_update():
    # A client id beyond one byte is a caller's error, not a client to skip.
    with pytest.raises(comp.CodecError) as info:
        comp.transmit(np.ones(3), None, 3, True, client_id=256)
    assert not isinstance(info.value, comp.UnencodableUpdate)


# ---------------------------------------------------------------------------
# telescoping identity across rounds
# ---------------------------------------------------------------------------

def _run_stream(rounds, length, k, quantized, seed=0):
    rng = np.random.default_rng(seed)
    residual = np.zeros(length)
    transmitted = np.zeros(length)
    raw = np.zeros(length)
    scale_sum = 0.0
    for t in range(rounds):
        delta = rng.normal(size=length)
        raw += delta
        u = comp.accumulate(delta, residual)
        sparse = comp.top_k(u, k)
        residual = comp.residual_update(u, sparse)
        if quantized:
            q = comp.quantize(sparse)
            transmitted += comp.dequantize(q)
            scale_sum += q.scale / 2
        else:
            transmitted += sparse
    return transmitted, residual, raw, scale_sum


def test_telescoping_exact_without_quantization():
    tx, res, raw, _ = _run_stream(100, 300, 30, quantized=False)
    assert np.max(np.abs(tx + res - raw)) < 1e-10


def test_telescoping_within_quantization_bound():
    tx, res, raw, bound = _run_stream(100, 300, 30, quantized=True)
    assert np.max(np.abs(tx + res - raw)) <= bound + 1e-9


@pytest.mark.parametrize("quantized", [True, False], ids=["qup1", "float32"])
def test_telescoping_in_float32_through_transmit(quantized):
    # The round loop holds delta and residual in float32.  Folding the
    # residual in rounds once per round, by at most half a float32 ulp of
    # the sum; QUP1 adds at most half a quantization step per round.
    rng = np.random.default_rng(0)
    length, k = 300, 30
    eps = float(np.finfo(np.float32).eps)
    residual = np.zeros(length, np.float32)
    transmitted, raw = np.zeros(length), np.zeros(length)
    bound = 0.0
    for t in range(100):
        delta = rng.normal(size=length).astype(np.float32)
        raw += delta
        exact_u = delta.astype(np.float64) + residual
        wire, new_residual, _, _ = comp.transmit(delta, residual, k,
                                                 quantized, 0, t)
        update = _dense(wire, length)
        assert update.dtype == np.float64
        transmitted += update
        residual[:] = new_residual
        bound += eps / 2 * np.max(np.abs(exact_u))
        if quantized:
            step = np.max(np.abs(update)) / comp.QMAX
            bound += step / 2 + eps * np.max(np.abs(exact_u))
    gap = np.max(np.abs(transmitted + residual - raw))
    assert gap <= bound + 1e-9
    if not quantized:
        assert gap < 1e-3  # float32 rounding alone


def test_top_k_non_finite_ranks_like_stable_sort():
    # NaN ranks below every magnitude and +-inf above, as a stable argsort
    # of -|u| ranks them; exact zeros are still never kept.
    rng = np.random.default_rng(21)
    for _ in range(300):
        n = int(rng.integers(1, 300))
        u = np.round(rng.normal(size=n), 1)
        for value in (np.nan, np.inf, -np.inf):
            hit = rng.random(n) < 0.1
            u[hit] = value
        k = int(rng.integers(0, n + 1))
        mag = np.where(np.isnan(u), -1.0, np.abs(u))
        order = sorted(range(n), key=lambda i: (-mag[i], i))
        expect = {i for i in order[:k] if u[i] != 0}
        sparse = comp.top_k(u, k)
        kept = set(np.flatnonzero(sparse))
        assert kept == expect
        assert np.array_equal(sparse[list(kept)], u[list(kept)],
                              equal_nan=True)


def test_top_k_keeps_infinities_first():
    u = np.array([np.nan, 1.0, -np.inf, 5.0, np.inf])
    assert np.array_equal(comp.top_k(u, 2), [0, 0, -np.inf, 0, np.inf])
    assert np.array_equal(comp.top_k(u, 4), [0, 1.0, -np.inf, 5.0, np.inf])
    kept = comp.top_k(u, 5)
    assert np.isnan(kept[0])


def test_top_k_does_not_modify_input():
    u = RNG.normal(size=500)
    before = u.copy()
    comp.top_k(u, 17)
    assert np.array_equal(u, before)


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

@st.composite
def _headed_bytes(draw):
    """A QUP1 header with arbitrary fields and entry bytes of the size its
    nnz announces, or arbitrary bytes after the magic."""
    if draw(st.booleans()):
        return comp.MAGIC + draw(st.binary(max_size=40))
    nnz = draw(st.integers(0, 6))
    header = comp._HEADER.pack(
        comp.MAGIC, draw(st.integers(0, 2**32 - 1)),
        draw(st.integers(0, 255)), draw(st.integers(0, 12)),
        draw(st.floats(width=32)), nnz)
    return header + draw(st.binary(min_size=5 * nnz, max_size=5 * nnz))


@given(buf=st.one_of(st.binary(max_size=60), _headed_bytes()))
def test_decode_of_arbitrary_bytes_raises_only_codec_error(buf):
    try:
        q = comp.decode(buf)
    except comp.CodecError:
        return
    assert len(buf) == 21 + 5 * q.nnz
    assert np.isfinite(q.scale)
    assert np.all(np.abs(q.qvalues.astype(int)) <= comp.QMAX)
    assert np.all(np.diff(q.indices.astype(np.int64)) > 0)
    assert np.all(q.indices < q.length)


@st.composite
def _valid_updates(draw):
    length = draw(st.integers(1, 2**32 - 1))
    idx = sorted(draw(st.sets(st.integers(0, min(length, 10**6) - 1),
                              max_size=20)))
    qv = draw(st.lists(st.integers(-comp.QMAX, comp.QMAX),
                       min_size=len(idx), max_size=len(idx)))
    scale = draw(st.floats(width=32, allow_nan=False, allow_infinity=False))
    return comp.QuantizedUpdate(
        np.array(idx, dtype=np.uint32), np.array(qv, dtype=np.int8), scale,
        length, draw(st.integers(0, comp.MAX_CLIENT_ID)),
        draw(st.integers(0, 2**32 - 1)))


@given(q=_valid_updates())
def test_encode_decode_of_any_valid_update_is_field_exact(q):
    assert _same(comp.decode(comp.encode(q)), q)


_ODD_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, -2.5, np.nan, np.inf,
                     -np.inf]),
    st.floats())


@given(data=st.data(),
       values=st.lists(_ODD_VALUES, min_size=1, max_size=60))
def test_top_k_matches_stable_sort_oracle(data, values):
    u = np.array(values)
    k = data.draw(st.integers(0, u.size))
    mag = np.where(np.isnan(u), -1.0, np.abs(u))
    order = sorted(range(u.size), key=lambda i: (-mag[i], i))
    expect = sorted(i for i in order[:k] if u[i] != 0)
    sparse = comp.top_k(u, k)
    kept = np.flatnonzero((sparse != 0) | np.isnan(sparse))
    assert kept.tolist() == expect
    assert np.array_equal(sparse[kept], u[kept], equal_nan=True)
