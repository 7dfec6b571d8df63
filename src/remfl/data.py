"""Radio-map data layer: synthetic grids, file IO, scenarios, client partitions.

A grid holds M signal-strength layers (dB) and P environmental feature layers
over a width x height raster (row-major, origin top-left).  Cells become
samples (2 coordinates + P features -> M signals); a heterogeneity field over
the per-cell spread of the M signals carves light/medium/heavy scenarios,
which are then split into a spatial grid of virtual clients with per-client
normalization (coords min-max to [0,1], labels z-scored with local stats).
The synthetic map's Gaussian blur is numpy and reproduces
``scipy.ndimage.gaussian_filter`` (``reflect``, truncate 4) bit for bit.
The synthetic map fills ``FILLED_FEATURES`` = 8 feature layers (obstacle
mask, distance to the nearest transmitter over the map diagonal, 6 blurred
noise fields), and that is its default P.  A map may ask for more; the
layers past the 8th are then zero, and every sample row still carries them.

Sample tables are text: ``repr`` of each value, one cell per line.  They
are written and read a column at a time, not a field at a time: a column of
one bit pattern is formatted once, and a column of one text is converted
once, by Python's ``int`` and ``float``.  The bytes and arrays are those of
the row-by-row form, which still reads any file the column path rejects,
to name its first bad line.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

GRID_MAGIC = b"REMG1"
DEFAULT_FLOOR_DB = -150.0
SCENARIOS = ("light", "medium", "heavy")


class ConfigError(ValueError):
    """Invalid generation or partitioning configuration."""


class IngestionError(ValueError):
    """Malformed grid or partition file."""


class DegenerateClientError(ValueError):
    """Client whose labels have zero variance (cannot be z-scored)."""


@dataclass
class RadioMapGrid:
    width: int
    height: int
    signals: np.ndarray   # (M, height, width), dB
    features: np.ndarray  # (P, height, width)

    @property
    def n_bs(self) -> int:
        return self.signals.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[0]

    def validate(self):
        if self.width < 1 or self.height < 1:
            raise IngestionError(
                f"grid is {self.width}x{self.height}: no cells")
        for name, layers in (("signal", self.signals),
                             ("feature", self.features)):
            if layers.shape[1:] != (self.height, self.width):
                raise IngestionError(
                    f"{name} layer dimensions do not match header")
            finite = np.isfinite(layers)
            if not finite.all():
                layer, r, c = np.argwhere(~finite)[0]
                raise IngestionError(
                    f"non-finite {name} at layer {layer}, cell ({r}, {c})")


@dataclass
class HeterogeneityField:
    values: np.ndarray  # (height, width), per-cell std across the M signals
    q33: float
    q66: float


@dataclass
class ClientDataset:
    client_id: int
    tile: tuple  # (row, col) in the client grid
    x_train: np.ndarray  # (n, 2+P): normalized coords + raw features
    y_train: np.ndarray  # (n, M): z-scored labels
    x_test: np.ndarray
    y_test: np.ndarray
    rc_train: np.ndarray  # (n, 2) raw integer cell coordinates
    rc_test: np.ndarray
    coord_min: np.ndarray  # (2,)
    coord_max: np.ndarray  # (2,)
    label_mean: np.ndarray  # scalar array (): one mean and std per client
    label_std: np.ndarray

    @property
    def n_train(self) -> int:
        return self.x_train.shape[0]

    @property
    def n_test(self) -> int:
        return self.x_test.shape[0]


@dataclass
class ScenarioPartition:
    scenario: str
    clients: list
    rows: int
    cols: int
    seed: int
    neighbor_mix: float
    q33: float
    q66: float
    n_bs: int
    n_features: int


# ---------------------------------------------------------------------------
# Synthetic map generation (stand-in for an external rasterized dataset).
# ---------------------------------------------------------------------------

_NOISE_FEATURE_CHANNELS = 6  # smoothed-noise feature layers
# Feature layers generate_synthetic_map fills: obstacles, nearest-BS
# distance and the noise fields.  Inputs past these are zero in every row,
# so the first-layer weights on them never train.
FILLED_FEATURES = 2 + _NOISE_FEATURE_CHANNELS


@dataclass
class SyntheticMapConfig:
    """Settings of ``generate_synthetic_map``.  ``n_features`` defaults to
    the ``FILLED_FEATURES`` layers the generator fills; any P >= 0 is
    accepted, and layers past the 8th are zero."""
    seed: int = 0
    width: int = 256
    height: int = 256
    n_bs: int = 4
    n_features: int = FILLED_FEATURES
    tx_positions: list | None = None  # [(row, col), ...]; random when None
    obstacle_density: float = 0.05
    path_loss_exp: float = 3.0
    shadowing_db: float = 6.0


_TX_POWER_DB = -30.0  # received power at the 0.5-cell reference distance
_RAY_SAMPLES = 32  # points sampled along each BS-to-cell ray
_SHADOW_CORR_CELLS = 8.0  # Gaussian smoothing width of the shadowing field
_OBSTACLE_PENALTY_DB = 2.5  # per cell of ray length through obstacles


def _blur_axis0(a, phi):
    """``a`` correlated with the symmetric kernel ``phi`` along axis 0, its
    edges extended by reflection (``d c b a | a b c d | d c b a``, repeated
    when the kernel outreaches the array).  Each output is ``x0 * w0``, then
    ``+= (x[-j] + x[+j]) * w[j]`` for j from the radius down to 1: the order
    of the symmetric loop of scipy's ``NI_Correlate1D``."""
    n, r = a.shape[0], phi.size // 2
    i = np.arange(-r, n + r) % (2 * n)
    ext = a[np.where(i < n, i, 2 * n - 1 - i)]  # C-ordered, whatever a is
    out = ext[r:r + n] * phi[r]
    pair = np.empty_like(out)
    for j in range(r, 0, -1):
        np.add(ext[r - j:r - j + n], ext[r + j:r + j + n], out=pair)
        pair *= phi[r + j]
        out += pair
    return out


def _gaussian_blur(a, sigma):
    """``scipy.ndimage.gaussian_filter(a, sigma)`` of a 2-D float64 array
    (mode ``reflect``, truncate 4), bit for bit: scipy's kernel, edges and
    order of sums, along axis 0 and then axis 1.  The result is C-ordered,
    as scipy's is: the order of a later reduction such as ``std`` follows
    the memory layout, and so do its bits."""
    r = int(4.0 * sigma + 0.5)
    x = np.arange(-r, r + 1)
    phi = np.exp(-0.5 / (sigma * sigma) * x ** 2)
    phi = phi / phi.sum()
    return np.ascontiguousarray(_blur_axis0(_blur_axis0(a, phi).T, phi).T)


def generate_synthetic_map(cfg: SyntheticMapConfig) -> RadioMapGrid:
    """Log-distance path loss + correlated shadowing + obstacle penalties.

    Deterministic under cfg.seed.  Obstacle attenuation is estimated by
    sampling the BS-to-cell ray at a fixed number of points and scaling the
    hit fraction by the ray length.
    """
    if cfg.n_bs < 1:
        raise ConfigError("need at least one base station")
    if cfg.width < 1 or cfg.height < 1:
        raise ConfigError("grid size must be positive")
    rng = np.random.default_rng([cfg.seed, 0x6D61])
    h, w = cfg.height, cfg.width

    if cfg.tx_positions is None:
        tx = np.column_stack([rng.uniform(0, h - 1, cfg.n_bs),
                              rng.uniform(0, w - 1, cfg.n_bs)])
    else:
        tx = np.asarray(cfg.tx_positions, dtype=float)
        if tx.shape != (cfg.n_bs, 2):
            raise ConfigError(f"expected {cfg.n_bs} transmitter positions")
        if np.any(tx[:, 0] < 0) or np.any(tx[:, 0] > h - 1) \
                or np.any(tx[:, 1] < 0) or np.any(tx[:, 1] > w - 1):
            raise ConfigError("transmitter outside grid")

    obstacles = (rng.random((h, w)) < cfg.obstacle_density).astype(float)
    flat_obstacles = obstacles.ravel()
    rr, cc = np.meshgrid(np.arange(h, dtype=float), np.arange(w, dtype=float),
                         indexing="ij")
    # Buffers of the ray loop, which gathers _RAY_SAMPLES x n_bs times.
    point, sampled = np.empty((2, h, w))
    cell, col = np.empty((2, h, w), dtype=np.intp)

    signals = np.empty((cfg.n_bs, h, w))
    nearest = None  # distance to the nearest transmitter
    for m in range(cfg.n_bs):
        r0, c0 = tx[m]
        dr, dc = rr - r0, cc - c0
        d = np.hypot(dr, dc)
        nearest = d if nearest is None else np.minimum(nearest, d)
        d_eff = np.maximum(d, 0.5)
        pl = 10.0 * cfg.path_loss_exp * np.log10(d_eff / 0.5)
        s = _TX_POWER_DB - pl
        if cfg.obstacle_density > 0.0:
            hits = np.zeros((h, w))
            for k in range(_RAY_SAMPLES):
                t = (k + 0.5) / _RAY_SAMPLES
                # The cell nearest r0 + t * (rr - r0), c0 + t * (cc - c0),
                # as a flat index row * w + col.
                np.rint(np.add(np.multiply(dr, t, out=point), r0, out=point),
                        out=point)
                np.clip(point, 0, h - 1, out=cell, casting="unsafe")
                np.rint(np.add(np.multiply(dc, t, out=point), c0, out=point),
                        out=point)
                np.clip(point, 0, w - 1, out=col, casting="unsafe")
                cell *= w
                cell += col
                hits += np.take(flat_obstacles, cell, out=sampled)
            s = s - _OBSTACLE_PENALTY_DB * (hits / _RAY_SAMPLES) * d
        if cfg.shadowing_db > 0.0:
            shadow = _gaussian_blur(rng.standard_normal((h, w)),
                                    _SHADOW_CORR_CELLS)
            std = shadow.std()
            if std > 0:
                shadow = shadow / std * cfg.shadowing_db
            s = s + shadow
        signals[m] = np.maximum(s, DEFAULT_FLOOR_DB)

    features = np.zeros((cfg.n_features, h, w))
    feat_layers = [obstacles, nearest / math.hypot(h, w)]
    n_noise = min(_NOISE_FEATURE_CHANNELS, max(0, cfg.n_features - 2))
    for _ in range(n_noise):
        feat_layers.append(_gaussian_blur(rng.standard_normal((h, w)), 4.0))
    for i, layer in enumerate(feat_layers[:cfg.n_features]):
        features[i] = layer

    grid = RadioMapGrid(w, h, signals, features)
    grid.validate()
    return grid


# ---------------------------------------------------------------------------
# Grid file IO: REMG1 binary plus a debug CSV form.
# ---------------------------------------------------------------------------

def save_grid(grid: RadioMapGrid, path):
    """REMG1 binary: magic, u32 w/h/M/P, then M+P float32 layers row-major."""
    grid.validate()
    with open(path, "wb") as f:
        f.write(GRID_MAGIC)
        f.write(struct.pack("<IIII", grid.width, grid.height,
                            grid.n_bs, grid.n_features))
        f.write(grid.signals.astype("<f4").tobytes())
        f.write(grid.features.astype("<f4").tobytes())


def load_grid(path) -> RadioMapGrid:
    with open(path, "rb") as f:
        buf = f.read()
    if len(buf) < len(GRID_MAGIC) + 16:
        raise IngestionError("truncated grid file: header incomplete")
    if buf[:len(GRID_MAGIC)] != GRID_MAGIC:
        raise IngestionError(f"bad grid magic {buf[:5]!r}")
    w, h, m, p = struct.unpack_from("<IIII", buf, len(GRID_MAGIC))
    expected = len(GRID_MAGIC) + 16 + 4 * (m + p) * h * w
    if len(buf) != expected:
        raise IngestionError(
            f"grid file size {len(buf)} != expected {expected}")
    data = np.frombuffer(buf, dtype="<f4", offset=len(GRID_MAGIC) + 16)
    signals = data[:m * h * w].reshape(m, h, w).astype(float)
    features = data[m * h * w:].reshape(p, h, w).astype(float)
    grid = RadioMapGrid(w, h, signals, features)
    grid.validate()
    return grid


def save_grid_csv(grid: RadioMapGrid, path):
    """Debug CSV: one row per cell: row, col, s1..sM, f1..fP.  The values
    are those the REMG1 file holds, float32 widened to float64: what
    ``load_grid`` returns, and so what a partition of the map is made of."""
    header = ["row", "col"] + [f"s{i+1}" for i in range(grid.n_bs)] \
        + [f"f{i+1}" for i in range(grid.n_features)]
    cols = np.arange(grid.width)

    def blocks():  # a grid row at a time: the whole grid is millions of floats
        for r in range(grid.height):
            values = np.vstack([grid.signals[:, r], grid.features[:, r]]).T
            yield (np.column_stack([np.full_like(cols, r), cols]),
                   values.astype("<f4").astype(float))

    _write_cell_csv(path, header, blocks())


# ---------------------------------------------------------------------------
# Heterogeneity metric and scenarios.
# ---------------------------------------------------------------------------

def _nearest_rank(sorted_vals: np.ndarray, pct: float) -> float:
    n = sorted_vals.size
    idx = max(int(math.ceil(pct / 100.0 * n)), 1) - 1
    return float(sorted_vals[idx])


def heterogeneity(grid: RadioMapGrid) -> HeterogeneityField:
    """Per-cell population std across the M signals, with 33/66 thresholds."""
    if grid.n_bs < 2:
        raise ConfigError("heterogeneity needs at least 2 base stations")
    values = grid.signals.std(axis=0)
    flat = np.sort(values.ravel())
    return HeterogeneityField(values, _nearest_rank(flat, 33.0),
                              _nearest_rank(flat, 66.0))


def scenario_filter(field: HeterogeneityField, scenario: str) -> np.ndarray:
    """Boolean cell mask for one of the light/medium/heavy scenarios."""
    h = field.values
    if scenario == "light":
        return h <= field.q33
    if scenario == "medium":
        return (h > field.q33) & (h <= field.q66)
    if scenario == "heavy":
        return h > field.q66
    raise ConfigError(f"unknown scenario {scenario!r}")


# ---------------------------------------------------------------------------
# Client partitioning and normalization.
# ---------------------------------------------------------------------------

def normalize_client(client_id, tile, coords, feats, labels,
                     train_idx, test_idx) -> ClientDataset:
    """Min-max coords / z-score labels using training-split statistics only:
    one label mean and std over all of the client's training signals."""
    if train_idx.size < 2:
        raise DegenerateClientError(
            f"client {client_id}: fewer than 2 training samples")
    cmin = coords[train_idx].min(axis=0)
    cmax = coords[train_idx].max(axis=0)
    span = np.where(cmax > cmin, cmax - cmin, 1.0)
    norm = np.clip((coords - cmin) / span, 0.0, 1.0)

    train_labels = labels[train_idx]
    mu = np.asarray(train_labels.mean())
    sd = np.asarray(train_labels.std())
    if sd <= 0:
        raise DegenerateClientError(
            f"client {client_id}: zero label variance")
    y = (labels - mu) / sd
    x = np.hstack([norm, feats])
    return ClientDataset(
        client_id=client_id, tile=tile,
        x_train=x[train_idx], y_train=y[train_idx],
        x_test=x[test_idx], y_test=y[test_idx],
        rc_train=coords[train_idx].astype(int),
        rc_test=coords[test_idx].astype(int),
        coord_min=cmin, coord_max=cmax, label_mean=mu, label_std=sd)


def grid_partition(grid: RadioMapGrid, field: HeterogeneityField,
                   scenario: str, rows=10, cols=9, neighbor_mix=0.1,
                   seed=0, train_frac=0.8) -> ScenarioPartition:
    """Bucket the scenario's cells into rows x cols geographic clients.

    Each sample lands in exactly one client: a neighbor_mix fraction of
    samples are reassigned to a uniformly chosen 8-neighborhood tile.  Tiles
    left too small by scenario filtering are topped up by re-splitting the
    largest client, keeping the client count fixed.
    """
    mask = scenario_filter(field, scenario)
    cells = np.argwhere(mask)
    if cells.shape[0] == 0:
        raise ConfigError(f"scenario {scenario!r} selected no cells")
    n_clients = rows * cols
    rng = np.random.default_rng([seed, 0x7061])

    tile_r = cells[:, 0] * rows // grid.height
    tile_c = cells[:, 1] * cols // grid.width

    move = rng.random(cells.shape[0]) < neighbor_mix
    for i in np.flatnonzero(move):
        nbrs = [(tile_r[i] + dr, tile_c[i] + dc)
                for dr in (-1, 0, 1) for dc in (-1, 0, 1)
                if (dr, dc) != (0, 0)
                and 0 <= tile_r[i] + dr < rows and 0 <= tile_c[i] + dc < cols]
        if nbrs:  # a 1x1 client grid has nowhere to move samples
            tile_r[i], tile_c[i] = nbrs[rng.integers(len(nbrs))]

    owner = tile_r * cols + tile_c
    buckets = [list(np.flatnonzero(owner == k)) for k in range(n_clients)]

    min_samples = 5  # so the 80/20 split leaves >= 2 training samples
    need = [k for k in range(n_clients) if len(buckets[k]) < min_samples]
    for k in need:
        while len(buckets[k]) < min_samples:
            largest = max(range(n_clients), key=lambda j: len(buckets[j]))
            if largest == k or len(buckets[largest]) < 2 * min_samples:
                raise ConfigError(
                    f"scenario {scenario!r} has too few cells for "
                    f"{n_clients} clients")
            donor = buckets[largest]
            take = rng.permutation(len(donor))[:len(donor) // 2]
            taken = sorted(take, reverse=True)
            moved = [donor.pop(i) for i in taken]
            buckets[k].extend(moved)

    clients = []
    for k in range(n_clients):
        idx = np.array(sorted(buckets[k]))
        sub = cells[idx]
        coords = sub.astype(float)
        feats = grid.features[:, sub[:, 0], sub[:, 1]].T
        labels = grid.signals[:, sub[:, 0], sub[:, 1]].T
        crng = np.random.default_rng([seed, 0x636C, k])
        order = crng.permutation(sub.shape[0])
        n_test = max(1, int(round((1.0 - train_frac) * sub.shape[0])))
        test_idx = np.sort(order[:n_test])
        train_idx = np.sort(order[n_test:])
        clients.append(normalize_client(
            k, (k // cols, k % cols), coords, feats, labels,
            train_idx, test_idx))

    total = sum(c.n_train + c.n_test for c in clients)
    assert total == cells.shape[0], "partition lost or duplicated samples"
    return ScenarioPartition(scenario, clients, rows, cols, seed,
                             neighbor_mix, field.q33, field.q66,
                             grid.n_bs, grid.n_features)


# ---------------------------------------------------------------------------
# Partition export / import (one directory per client).
# ---------------------------------------------------------------------------

def write_kv(path, items):
    """One ``key=value`` line per (key, value) pair, UTF-8."""
    with open(path, "w", encoding="utf-8") as f:
        for k, v in items:
            f.write(f"{k}={v}\n")


def read_kv(path) -> dict:
    """The ``key=value`` lines of a UTF-8 file, key and value stripped;
    blank lines and ``#`` comments are skipped, and a later key wins.  A
    file that is not UTF-8 is an IngestionError naming it."""
    out = {}
    try:
        with open(path, encoding="utf-8") as f:
            for line in f:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                k, _, v = line.partition("=")
                out[k.strip()] = v.strip()
    except UnicodeDecodeError:
        raise IngestionError(f"{path}: not UTF-8 text") from None
    return out


def write_csv(path, header, rows):
    """A CSV table: the ``header`` names, then one line per row of
    already-formatted text fields."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(",".join(header) + "\n")
        f.writelines(",".join(row) + "\n" for row in rows)


def read_csv(path, parse, width=None):
    """The header of a UTF-8 CSV table, and ``parse(fields, header)`` of each
    non-blank line after it.  A file that is not UTF-8, a line that is not
    ``width`` fields (by default, one per header name) and a ValueError from
    ``parse`` are IngestionErrors naming the file, and the line."""
    rows = []
    try:
        with open(path, encoding="utf-8") as f:
            header = f.readline().strip().split(",")
            width = width or len(header)
            for lineno, line in enumerate(f, start=2):
                line = line.strip()
                if not line:
                    continue
                fields = line.split(",")
                if len(fields) != width:
                    raise ValueError(f"{len(fields)} fields, expected {width}")
                rows.append(parse(fields, header))
    except UnicodeDecodeError:
        raise IngestionError(f"{path}: not UTF-8 text") from None
    except ValueError as exc:
        raise IngestionError(f"{path}, line {lineno}: {exc}") from None
    return header, rows


def _same_bits(a):
    """Per column of a 2-D array, whether all its values have one bit
    pattern: compared as unsigned ints of the same width, since
    ``0.0 == -0.0`` but the two print differently."""
    bits = a.view(f"u{a.itemsize}")
    return (bits == bits[0]).all(axis=0)


def _cell_text(rc, values) -> str:
    """The lines of a cell table, each ending in a newline: row, col, then
    ``repr`` of each value, a Python int or float from ``.tolist()`` (a
    numpy scalar's repr is ``np.float64(...)``; an int's repr is its str).
    Each column is formatted once, and a column of one bit pattern is
    formatted from its first value into the ``%`` line template (no repr of
    an int or a float holds a ``%``)."""
    if not rc.shape[0]:
        return ""
    rc_same, values_same = _same_bits(rc), _same_bits(values)
    template = ",".join(
        repr(v) if same else "%s" for same, v in zip(
            [*rc_same.tolist(), *values_same.tolist()],
            rc[0].tolist() + values[0].tolist())) + "\n"
    varying = [list(map(repr, col)) for col in
               rc[:, ~rc_same].T.tolist() + values[:, ~values_same].T.tolist()]
    if not varying:
        return (template % ()) * rc.shape[0]
    return "".join(map(template.__mod__, zip(*varying)))


def _write_cell_csv(path, header, blocks):
    """A cell table: the ``header`` names, then ``_cell_text`` of each
    ``(rc, values)`` block."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(",".join(header) + "\n")
        for rc, values in blocks:
            f.write(_cell_text(rc, values))


def _write_samples_csv(path, rc, x, y):
    header = ["row", "col", "cx", "cy"] \
        + [f"f{i+1}" for i in range(x.shape[1] - 2)] \
        + [f"y{i+1}" for i in range(y.shape[1])]
    _write_cell_csv(path, header, [(rc, np.hstack([x, y]))])


def _sample_row(v, header):
    """Row and col as ints in [0, 2**32), the range of REMG1's u32 width and
    height, then every value as a float."""
    try:
        row = [int(v[0]), int(v[1]), *map(float, v[2:])]
    except ValueError as exc:
        raise ValueError(f"non-numeric field ({exc})") from None
    if not 0 <= row[0] < 2**32:
        raise ValueError("row outside [0, 2**32)")
    if not 0 <= row[1] < 2**32:
        raise ValueError("col outside [0, 2**32)")
    return row


def _finite_row(v, header):
    """Nothing, or a ValueError for a line holding a NaN or an infinity."""
    if not np.isfinite(np.array(v, dtype=float)).all():
        raise ValueError("non-finite value")


_BLOCK_LINES = 64  # sample lines split into fields at once


def _sample_columns(path, n_features, n_bs):
    """(rc, x, y) of a sample CSV, converted a column at a time by the calls
    ``_sample_row`` makes, or a ValueError (a UnicodeDecodeError included)
    for any file ``read_csv`` with ``_sample_row`` and ``_finite_row`` would
    reject.  Its lines are those ``read_csv`` reads: text-mode iteration,
    which ends a line at ``"\\n"`` after newline translation only
    (``splitlines`` would also end one at ``\\x0b``, ``\\u2028`` and
    others), stripped, blank ones skipped.  A column whose fields are all
    one text is converted once.  Fields are split a block of lines at a
    time, so that few field strings are alive at once."""
    with open(path, encoding="utf-8") as f:
        f.readline()  # the header
        lines = [line for line in map(str.strip, f) if line]
    n, width = len(lines), 4 + n_features + n_bs
    rc = np.empty((n, 2), dtype=int)
    x, y = np.empty((n, 2 + n_features)), np.empty((n, n_bs))
    for start in range(0, n, _BLOCK_LINES):
        block = lines[start:start + _BLOCK_LINES]
        if any(line.count(",") != width - 1 for line in block):
            raise ValueError("wrong field count")
        fields = ",".join(block).split(",")
        for j, out in enumerate([*rc.T, *x.T, *y.T]):
            column = fields[j::width]
            cast = int if j < 2 else float
            if column.count(column[0]) == len(column):
                values = [cast(column[0])]
            else:
                values = list(map(cast, column))
            if j < 2 and not (min(values) >= 0 and max(values) < 2**32):
                raise ValueError("row or col outside [0, 2**32)")
            out[start:start + len(block)] = values
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("non-finite value")
    return rc, x, y


def _read_samples_csv(path, n_features, n_bs):
    """(rc, x, y) of a sample CSV.  A row that is not 4 + P + M finite
    numbers is an IngestionError naming the file and the line: a file that
    ``_sample_columns`` rejects is read again a row at a time, which names
    the first bad line."""
    try:
        return _sample_columns(path, n_features, n_bs)
    except ValueError:
        width = 4 + n_features + n_bs
        read_csv(path, _sample_row, width)
        read_csv(path, _finite_row, width)
        raise  # no line is bad: the column path's error stands


def _read_samples(path, n_features, n_bs):
    """``_read_samples_csv``, where a file with no sample is an
    IngestionError: every client of a partition trains and is tested."""
    rc, x, y = _read_samples_csv(path, n_features, n_bs)
    if not rc.shape[0]:
        raise IngestionError(f"{path}: no samples")
    return rc, x, y


def export_partition(partition: ScenarioPartition, outdir):
    os.makedirs(outdir, exist_ok=True)
    write_kv(os.path.join(outdir, "partition.txt"), [
        ("scenario", partition.scenario),
        ("rows", partition.rows), ("cols", partition.cols),
        ("seed", partition.seed),
        ("neighbor_mix", repr(float(partition.neighbor_mix))),
        ("q33", repr(float(partition.q33))),
        ("q66", repr(float(partition.q66))),
        ("bs", partition.n_bs), ("features", partition.n_features),
    ])
    for c in partition.clients:
        cdir = os.path.join(outdir, f"client_{c.client_id:03d}")
        os.makedirs(cdir, exist_ok=True)
        _write_samples_csv(os.path.join(cdir, "train.csv"), c.rc_train,
                           c.x_train, c.y_train)
        _write_samples_csv(os.path.join(cdir, "test.csv"), c.rc_test,
                           c.x_test, c.y_test)
        lo, hi = c.coord_min.tolist(), c.coord_max.tolist()
        write_kv(os.path.join(cdir, "stats.txt"), [
            ("coord_min_row", repr(lo[0])), ("coord_min_col", repr(lo[1])),
            ("coord_max_row", repr(hi[0])), ("coord_max_col", repr(hi[1])),
            ("label_mean", repr(float(c.label_mean))),
            ("label_std", repr(float(c.label_std)))])


def _field(kv, key, cast, path):
    """One metadata value; a missing key or a malformed value is an
    IngestionError naming the file and the key."""
    if key not in kv:
        raise IngestionError(f"{path}: missing key {key!r}")
    try:
        return cast(kv[key])
    except ValueError:
        raise IngestionError(
            f"{path}: bad value {kv[key]!r} for key {key!r}") from None


def _finite(text) -> float:
    """A finite float, else a ValueError (for ``_field``)."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def _finite_positive(text) -> float:
    """A finite float > 0, else a ValueError (for ``_field``)."""
    value = _finite(text)
    if not value > 0.0:
        raise ValueError(text)
    return value


def _int_at_least(low):
    """A cast for ``_field``: an int >= ``low``, else a ValueError."""
    def cast(text) -> int:
        value = int(text)
        if value < low:
            raise ValueError(text)
        return value
    return cast


def load_partition(indir) -> ScenarioPartition:
    """The partition ``export_partition`` wrote to ``indir``.  Its clients
    are ``client_000`` to ``rows`` x ``cols`` - 1, client k on tile
    ``divmod(k, cols)``; the ``clients``, ``client_id`` and ``tile_*`` keys
    of directories written by older versions are ignored.  Only what that
    writer can produce loads: ``rows``, ``cols`` and ``bs`` >= 1,
    ``features`` >= 0, and the three files of every client, with at least
    one training and one test sample each.  Anything else is an
    IngestionError naming the file, and the key where there is one."""
    meta_path = os.path.join(indir, "partition.txt")
    if not os.path.isfile(meta_path):
        raise IngestionError(f"no partition.txt under {indir}")
    meta = read_kv(meta_path)
    n_bs = _field(meta, "bs", _int_at_least(1), meta_path)
    n_features = _field(meta, "features", _int_at_least(0), meta_path)
    rows = _field(meta, "rows", _int_at_least(1), meta_path)
    cols = _field(meta, "cols", _int_at_least(1), meta_path)
    clients = []
    for k in range(rows * cols):
        stats_path, train_path, test_path = paths = [
            os.path.join(indir, f"client_{k:03d}", name)
            for name in ("stats.txt", "train.csv", "test.csv")]
        for path in paths:
            if not os.path.isfile(path):
                raise IngestionError(f"{path}: no such file (rows x cols "
                                     f"= {rows * cols} clients)")
        stats = read_kv(stats_path)

        def num(key):
            return _field(stats, key, float, stats_path)

        (rc_tr, x_tr, y_tr), (rc_te, x_te, y_te) = [
            _read_samples(path, n_features, n_bs)
            for path in (train_path, test_path)]
        clients.append(ClientDataset(
            client_id=k, tile=divmod(k, cols),
            x_train=x_tr, y_train=y_tr, x_test=x_te, y_test=y_te,
            rc_train=rc_tr, rc_test=rc_te,
            coord_min=np.array([num("coord_min_row"), num("coord_min_col")]),
            coord_max=np.array([num("coord_max_row"), num("coord_max_col")]),
            label_mean=np.asarray(
                _field(stats, "label_mean", _finite, stats_path)),
            label_std=np.asarray(
                _field(stats, "label_std", _finite_positive, stats_path))))
    return ScenarioPartition(
        _field(meta, "scenario", str, meta_path), clients, rows, cols,
        _field(meta, "seed", int, meta_path),
        _field(meta, "neighbor_mix", float, meta_path),
        _field(meta, "q33", float, meta_path),
        _field(meta, "q66", float, meta_path), n_bs, n_features)
