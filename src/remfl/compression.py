"""Uplink codec: error feedback, Top-K, 8-bit quantization, wire format,
and ``transmit``, which takes one client's update through all of them.

The binary payload ("QUP1") is the project's one wire protocol.  Layout,
little-endian, 21-byte header:

    magic   4 bytes  b"QUP1"
    round   u32
    client  u8       (client ids are capped at 255)
    length  u32      original dense vector length
    scale   f32      finite symmetric quantization scale (0 iff payload empty)
    nnz     u32
    entries nnz * (u32 index, i8 qvalue in [-127, 127]), indices strictly
            increasing

Byte size is therefore 21 + 5*nnz.  Without quantization an update is
accounted as float32 values: 21 + 8*nnz with Top-K (u32 index + f32 value
per entry), 4*L for the whole vector of length L.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .nn import ParameterError

MAGIC = b"QUP1"
_HEADER = struct.Struct("<4sIBIfI")
HEADER_BYTES = _HEADER.size  # 21
ENTRY_BYTES = 5
_ENTRY_DTYPE = np.dtype([("index", "<u4"), ("qvalue", "<i1")])
MAX_CLIENT_ID = 255
QMAX = 127


class CodecError(ValueError):
    """Malformed payload or non-encodable update."""


class UnencodableUpdate(CodecError):
    """An update the wire cannot carry: a NaN, or values beyond float32."""


@dataclass
class QuantizedUpdate:
    """Sparse, quantized flat update plus the metadata needed to apply it."""

    indices: np.ndarray  # u32, strictly increasing
    qvalues: np.ndarray  # i8 in [-127, 127]
    scale: float         # f32-representable
    length: int
    client_id: int
    round: int

    @property
    def nnz(self) -> int:
        return int(self.indices.size)


def accumulate(delta: np.ndarray, residual: np.ndarray) -> np.ndarray:
    """Error-feedback step: fold the previous round's untransmitted mass in."""
    if delta.shape != residual.shape:
        raise ParameterError(
            f"accumulate length mismatch: {delta.shape} vs {residual.shape}")
    return delta + residual


def top_k(u: np.ndarray, k: int) -> np.ndarray:
    """Keep the k largest-magnitude entries (ties: lower index wins), zero the rest.

    Exact zeros are never kept; NaN ranks below every magnitude.  Selection
    costs O(n): a partition finds the k-th largest magnitude, everything
    above it is kept and the remaining places go to the entries equal to it,
    lowest index first -- the same set a stable sort by -|u| would pick.
    """
    if not 0 <= k <= u.size:
        raise ParameterError(f"k={k} out of range for length {u.size}")
    out = np.zeros_like(u)
    if k == 0:
        return out
    mag = _magnitudes(u)
    mag.partition(u.size - k)  # in place: np.partition would copy
    kth = mag[u.size - k]
    mag = _magnitudes(u, out=mag)
    above = np.flatnonzero(mag > kth)
    ties = np.flatnonzero(mag == kth)[:k - above.size]
    keep = np.concatenate([above, ties])
    keep = keep[u[keep] != 0.0]
    out[keep] = u[keep]
    return out


def _magnitudes(u, out=None):
    """|u| with NaN mapped to -1, below every magnitude."""
    mag = np.abs(u, out=out)
    mag[np.isnan(mag)] = -1.0
    return mag


def residual_update(u: np.ndarray, sparse: np.ndarray) -> np.ndarray:
    """New sparsification error: whatever top_k dropped."""
    if u.shape != sparse.shape:
        raise ParameterError("residual_update length mismatch")
    return u - sparse


def quantize(sparse: np.ndarray, client_id: int = 0, round_no: int = 0) -> QuantizedUpdate:
    """Symmetric 8-bit quantization with a single scale = max|v| / 127.

    Rounding is half-away-from-zero so quantize(-v) == -quantize(v).  An
    update with a non-finite entry, or whose scale overflows float32, is an
    UnencodableUpdate.  One whose scale underflows float32 to 0 is sent
    empty, since all of its entries would dequantize to 0.
    """
    if not np.all(np.isfinite(sparse)):
        raise UnencodableUpdate("non-finite entry in update vector")
    idx = np.flatnonzero(sparse)
    vals = sparse[idx]
    peak = np.max(np.abs(vals)) if idx.size else 0.0
    with np.errstate(over="ignore"):
        scale = float(np.float32(peak / QMAX))
    if not math.isfinite(scale):
        raise UnencodableUpdate(
            f"client {client_id}: update too large to quantize "
            f"(max |v| = {peak:.3g})")
    if scale == 0.0:
        return QuantizedUpdate(np.empty(0, dtype=np.uint32),
                               np.empty(0, dtype=np.int8),
                               0.0, int(sparse.size), client_id, round_no)
    q = np.sign(vals) * np.floor(np.abs(vals) / scale + 0.5)
    q = np.clip(q, -QMAX, QMAX).astype(np.int8)
    return QuantizedUpdate(idx.astype(np.uint32), q, scale,
                           int(sparse.size), client_id, round_no)


def _check_entries(q: QuantizedUpdate):
    """CodecError unless ``q`` holds one qvalue per index."""
    if q.qvalues.shape != q.indices.shape:
        raise CodecError(
            f"{q.qvalues.size} qvalues for {q.indices.size} indices")


def dequantize(q: QuantizedUpdate) -> np.ndarray:
    """Reconstruct the dense flat vector (qvalue * scale at listed indices)."""
    _check_entries(q)
    if q.indices.size and int(q.indices.max()) >= q.length:
        raise CodecError("index beyond vector length")
    out = np.zeros(q.length)
    out[q.indices] = q.qvalues.astype(float) * q.scale
    return out


def encode(q: QuantizedUpdate) -> bytes:
    if not 0 <= q.client_id <= MAX_CLIENT_ID:
        raise CodecError(f"client id {q.client_id} does not fit in one byte")
    _check_entries(q)
    header = _HEADER.pack(MAGIC, q.round, q.client_id, q.length,
                          q.scale, q.nnz)
    entries = np.empty(q.nnz, dtype=_ENTRY_DTYPE)
    entries["index"] = q.indices
    entries["qvalue"] = q.qvalues
    return header + entries.tobytes()


def decode(buf: bytes) -> QuantizedUpdate:
    if len(buf) < HEADER_BYTES:
        raise CodecError("truncated payload: header incomplete")
    magic, round_no, client_id, length, scale, nnz = _HEADER.unpack_from(buf)
    if magic != MAGIC:
        raise CodecError(f"bad magic {magic!r}")
    if not math.isfinite(scale):
        raise CodecError(f"non-finite scale {scale!r}")
    if len(buf) != HEADER_BYTES + ENTRY_BYTES * nnz:
        raise CodecError(
            f"payload size {len(buf)} != expected {HEADER_BYTES + ENTRY_BYTES * nnz}")
    entries = np.frombuffer(buf, dtype=_ENTRY_DTYPE, count=nnz, offset=HEADER_BYTES)
    indices = entries["index"].astype(np.uint32)
    qvalues = entries["qvalue"].astype(np.int8)
    if np.any(qvalues < -QMAX):  # i8 reaches QMAX on the other side
        raise CodecError(f"qvalue outside [{-QMAX}, {QMAX}]")
    if indices.size:
        if np.any(np.diff(indices.astype(np.int64)) <= 0):
            raise CodecError("indices not strictly increasing")
        if int(indices.max()) >= length:
            raise CodecError("index beyond vector length")
    return QuantizedUpdate(indices, qvalues, float(scale), int(length),
                           int(client_id), int(round_no))


def sparse_float_bytes(nnz: int) -> int:
    """Accounting for the quantization-off ablation: u32 index + f32 value."""
    return HEADER_BYTES + 8 * nnz


def dense_bytes(length: int) -> int:
    """Uncompressed float32 accounting used for the dense baselines."""
    return 4 * length


def transmit(delta: np.ndarray, residual: np.ndarray | None, k: int,
             quantized: bool, client_id: int = 0, round_no: int = 0):
    """One client's upload: with a ``residual``, error feedback and Top-K
    (else ``delta`` goes whole), then a QUP1 payload or float32 values.

    Returns (wire form, new residual or None, bytes on the wire, nnz of an
    indexed form, else 0).  The wire form is what the wire carries: the QUP1
    payload as bytes; under Top-K without quantization, the u32 indices of
    the nonzero float32 values, strictly increasing, and those values; or
    else the whole vector in float32 (``delta`` itself when it is float32
    already).  A float32 form rounds the update; under Top-K the residual
    keeps the (exact) rounding error.  An update the wire cannot carry
    raises UnencodableUpdate; ``residual`` is never written.
    """
    update = delta
    if residual is not None:
        u = accumulate(delta, residual)
        update = top_k(u, k)
    if not quantized:
        with np.errstate(over="ignore"):
            update = update.astype(np.float32, copy=False)
        if not np.all(np.isfinite(update)):  # a NaN, or beyond float32
            raise UnencodableUpdate(
                f"client {client_id}: update not representable as float32")
    if residual is not None:
        residual = residual_update(u, update)
    if quantized:
        q = quantize(update, client_id, round_no)
        payload = encode(q)
        return payload, residual, len(payload), q.nnz
    if residual is None:
        return update, None, dense_bytes(update.size), 0
    index = np.flatnonzero(update).astype(np.uint32)
    return ((index, update[index]), residual, sparse_float_bytes(index.size),
            int(index.size))
