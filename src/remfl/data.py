"""Radio-map data layer: synthetic grids, file IO, scenarios, client partitions.

A grid holds M signal-strength layers (dB) and P environmental feature layers
over a width x height raster (row-major, origin top-left).  Cells become
samples (2 coordinates + P features -> M signals); a heterogeneity field over
the per-cell spread of the M signals carves light/medium/heavy scenarios,
which are then split into a spatial grid of virtual clients with per-client
normalization (coords min-max to [0,1], labels z-scored with local stats).
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np
from scipy.ndimage import gaussian_filter

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
    floor_db: float = DEFAULT_FLOOR_DB

    @property
    def n_bs(self) -> int:
        return self.signals.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[0]

    def validate(self):
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

@dataclass
class SyntheticMapConfig:
    seed: int = 0
    width: int = 256
    height: int = 256
    n_bs: int = 4
    n_features: int = 100
    tx_positions: list | None = None  # [(row, col), ...]; random when None
    obstacle_density: float = 0.05
    path_loss_exp: float = 3.0
    shadowing_db: float = 6.0
    tx_power_db: float = -30.0
    floor_db: float = DEFAULT_FLOOR_DB


_RAY_SAMPLES = 32  # points sampled along each BS-to-cell ray
_SHADOW_CORR_CELLS = 8.0  # Gaussian smoothing width of the shadowing field
_OBSTACLE_PENALTY_DB = 2.5  # per cell of ray length through obstacles
_NOISE_FEATURE_CHANNELS = 6  # smoothed-noise feature layers


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
    rr, cc = np.meshgrid(np.arange(h, dtype=float), np.arange(w, dtype=float),
                         indexing="ij")

    signals = np.empty((cfg.n_bs, h, w))
    for m in range(cfg.n_bs):
        r0, c0 = tx[m]
        d = np.hypot(rr - r0, cc - c0)
        d_eff = np.maximum(d, 0.5)
        pl = 10.0 * cfg.path_loss_exp * np.log10(d_eff / 0.5)
        s = cfg.tx_power_db - pl
        if cfg.obstacle_density > 0.0:
            hits = np.zeros((h, w))
            for k in range(_RAY_SAMPLES):
                t = (k + 0.5) / _RAY_SAMPLES
                pr = np.clip(np.rint(r0 + t * (rr - r0)).astype(int), 0, h - 1)
                pc = np.clip(np.rint(c0 + t * (cc - c0)).astype(int), 0, w - 1)
                hits += obstacles[pr, pc]
            s = s - _OBSTACLE_PENALTY_DB * (hits / _RAY_SAMPLES) * d
        if cfg.shadowing_db > 0.0:
            shadow = gaussian_filter(rng.standard_normal((h, w)),
                                     _SHADOW_CORR_CELLS)
            std = shadow.std()
            if std > 0:
                shadow = shadow / std * cfg.shadowing_db
            s = s + shadow
        signals[m] = np.maximum(s, cfg.floor_db)

    features = np.zeros((cfg.n_features, h, w))
    feat_layers = [obstacles]
    dist_all = np.stack([np.hypot(rr - tx[m, 0], cc - tx[m, 1])
                         for m in range(cfg.n_bs)])
    feat_layers.append(dist_all.min(axis=0) / math.hypot(h, w))
    n_noise = min(_NOISE_FEATURE_CHANNELS, max(0, cfg.n_features - 2))
    for _ in range(n_noise):
        feat_layers.append(gaussian_filter(rng.standard_normal((h, w)), 4.0))
    for i, layer in enumerate(feat_layers[:cfg.n_features]):
        features[i] = layer

    grid = RadioMapGrid(w, h, signals, features, cfg.floor_db)
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
    """Debug CSV: one row per cell: row, col, s1..sM, f1..fP."""
    m, p = grid.n_bs, grid.n_features
    header = ["row", "col"] + [f"s{i+1}" for i in range(m)] \
        + [f"f{i+1}" for i in range(p)]
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        for r in range(grid.height):
            for c in range(grid.width):
                vals = [str(r), str(c)]
                vals += [repr(float(grid.signals[i, r, c])) for i in range(m)]
                vals += [repr(float(grid.features[i, r, c])) for i in range(p)]
                f.write(",".join(vals) + "\n")


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
    blank lines and ``#`` comments are skipped, and a later key wins."""
    out = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            k, _, v = line.partition("=")
            out[k.strip()] = v.strip()
    return out


def _fmt(v: float) -> str:
    return repr(float(v))


def _write_samples_csv(path, rc, x, y, n_features, n_bs):
    header = ["row", "col", "cx", "cy"] \
        + [f"f{i+1}" for i in range(n_features)] \
        + [f"y{i+1}" for i in range(n_bs)]
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        for i in range(x.shape[0]):
            vals = [str(int(rc[i, 0])), str(int(rc[i, 1]))]
            vals += [_fmt(v) for v in x[i]]
            vals += [_fmt(v) for v in y[i]]
            f.write(",".join(vals) + "\n")


def _read_samples_csv(path, n_features, n_bs):
    """(rc, x, y) of a sample CSV.  A row that is not 4 + P + M numbers is
    an IngestionError naming the file and the line."""
    width = 4 + n_features + n_bs
    rc, x, y = [], [], []
    with open(path, encoding="utf-8") as f:
        f.readline()
        for lineno, line in enumerate(f, start=2):
            line = line.strip()
            if not line:
                continue
            v = line.split(",")
            if len(v) != width:
                raise IngestionError(
                    f"{path}, line {lineno}: {len(v)} fields, expected {width}")
            try:
                rc.append([int(v[0]), int(v[1])])
                x.append([float(u) for u in v[2:4 + n_features]])
                y.append([float(u) for u in v[4 + n_features:]])
            except ValueError as exc:
                raise IngestionError(
                    f"{path}, line {lineno}: non-numeric field ({exc})") from None
    if not rc:
        return (np.zeros((0, 2), dtype=int), np.zeros((0, 2 + n_features)),
                np.zeros((0, n_bs)))
    return np.array(rc), np.array(x), np.array(y)


def export_partition(partition: ScenarioPartition, outdir):
    os.makedirs(outdir, exist_ok=True)
    write_kv(os.path.join(outdir, "partition.txt"), [
        ("scenario", partition.scenario),
        ("rows", partition.rows), ("cols", partition.cols),
        ("seed", partition.seed),
        ("neighbor_mix", _fmt(partition.neighbor_mix)),
        ("q33", _fmt(partition.q33)), ("q66", _fmt(partition.q66)),
        ("bs", partition.n_bs), ("features", partition.n_features),
        ("clients", len(partition.clients)),
    ])
    for c in partition.clients:
        cdir = os.path.join(outdir, f"client_{c.client_id:03d}")
        os.makedirs(cdir, exist_ok=True)
        _write_samples_csv(os.path.join(cdir, "train.csv"), c.rc_train,
                           c.x_train, c.y_train, partition.n_features,
                           partition.n_bs)
        _write_samples_csv(os.path.join(cdir, "test.csv"), c.rc_test,
                           c.x_test, c.y_test, partition.n_features,
                           partition.n_bs)
        stats = [("client_id", c.client_id),
                 ("tile_row", c.tile[0]), ("tile_col", c.tile[1]),
                 ("coord_min_row", _fmt(c.coord_min[0])),
                 ("coord_min_col", _fmt(c.coord_min[1])),
                 ("coord_max_row", _fmt(c.coord_max[0])),
                 ("coord_max_col", _fmt(c.coord_max[1])),
                 ("label_mean", _fmt(c.label_mean)),
                 ("label_std", _fmt(c.label_std))]
        write_kv(os.path.join(cdir, "stats.txt"), stats)


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


def _read_utf8(read, path, *args):
    """``read(path, *args)``; a file that is not UTF-8 is an IngestionError
    naming it."""
    try:
        return read(path, *args)
    except UnicodeDecodeError:
        raise IngestionError(f"{path}: not UTF-8 text") from None


def load_partition(indir) -> ScenarioPartition:
    meta_path = os.path.join(indir, "partition.txt")
    if not os.path.exists(meta_path):
        raise IngestionError(f"no partition.txt under {indir}")
    meta = _read_utf8(read_kv, meta_path)
    n_bs = _field(meta, "bs", int, meta_path)
    n_features = _field(meta, "features", int, meta_path)
    n_clients = _field(meta, "clients", int, meta_path)
    clients = []
    for k in range(n_clients):
        cdir = os.path.join(indir, f"client_{k:03d}")
        stats_path = os.path.join(cdir, "stats.txt")
        stats = _read_utf8(read_kv, stats_path)

        def num(key):
            return _field(stats, key, float, stats_path)

        (rc_tr, x_tr, y_tr), (rc_te, x_te, y_te) = [
            _read_utf8(_read_samples_csv, os.path.join(cdir, f"{split}.csv"),
                       n_features, n_bs) for split in ("train", "test")]
        clients.append(ClientDataset(
            client_id=k,
            tile=(_field(stats, "tile_row", int, stats_path),
                  _field(stats, "tile_col", int, stats_path)),
            x_train=x_tr, y_train=y_tr, x_test=x_te, y_test=y_te,
            rc_train=rc_tr, rc_test=rc_te,
            coord_min=np.array([num("coord_min_row"), num("coord_min_col")]),
            coord_max=np.array([num("coord_max_row"), num("coord_max_col")]),
            label_mean=np.asarray(
                _field(stats, "label_mean", _finite, stats_path)),
            label_std=np.asarray(
                _field(stats, "label_std", _finite_positive, stats_path))))
    return ScenarioPartition(
        _field(meta, "scenario", str, meta_path), clients,
        _field(meta, "rows", int, meta_path),
        _field(meta, "cols", int, meta_path),
        _field(meta, "seed", int, meta_path),
        _field(meta, "neighbor_mix", float, meta_path),
        _field(meta, "q33", float, meta_path),
        _field(meta, "q66", float, meta_path), n_bs, n_features)
