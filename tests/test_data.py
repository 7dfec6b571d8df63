import hashlib
import os

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from remfl import data as dat


def _clean_cfg(**kw):
    base = dict(seed=3, width=24, height=24, n_bs=2, n_features=4,
                obstacle_density=0.0, shadowing_db=0.0)
    base.update(kw)
    return dat.SyntheticMapConfig(**base)


# ---------------------------------------------------------------------------
# synthetic generator
# ---------------------------------------------------------------------------

def test_transmitter_cell_is_strongest():
    grid = dat.generate_synthetic_map(_clean_cfg(tx_positions=[(5, 5), (20, 3)]))
    assert grid.signals[0].argmax() == 5 * grid.width + 5
    assert grid.signals[1].argmax() == 20 * grid.width + 3


def test_clean_map_decreases_with_distance():
    grid = dat.generate_synthetic_map(_clean_cfg(tx_positions=[(0, 0), (0, 1)]))
    row = grid.signals[0][0]  # distances 0, 1, 2, ... along the top row
    assert np.all(np.diff(row) < 0)


def test_generation_deterministic():
    a = dat.generate_synthetic_map(dat.SyntheticMapConfig(seed=5, width=16,
                                                          height=16, n_features=6))
    b = dat.generate_synthetic_map(dat.SyntheticMapConfig(seed=5, width=16,
                                                          height=16, n_features=6))
    assert np.array_equal(a.signals, b.signals)
    assert np.array_equal(a.features, b.features)


def test_transmitter_outside_grid_rejected():
    with pytest.raises(dat.ConfigError):
        dat.generate_synthetic_map(_clean_cfg(tx_positions=[(30, 5), (1, 1)]))


def test_signals_respect_floor():
    grid = dat.generate_synthetic_map(
        _clean_cfg(path_loss_exp=8.0, tx_power_db=-100.0,
                   tx_positions=[(0, 0), (1, 1)]))
    assert grid.signals.min() >= grid.floor_db


# ---------------------------------------------------------------------------
# grid file IO
# ---------------------------------------------------------------------------

def test_binary_roundtrip(small_grid, tmp_path):
    path = tmp_path / "map.remg"
    dat.save_grid(small_grid, path)
    back = dat.load_grid(path)
    assert back.width == small_grid.width and back.height == small_grid.height
    # lossless for float32-representable content
    assert np.array_equal(back.signals,
                          small_grid.signals.astype("<f4").astype(float))


def test_truncated_file_is_ingestion_error(small_grid, tmp_path):
    path = tmp_path / "map.remg"
    dat.save_grid(small_grid, path)
    data = path.read_bytes()
    path.write_bytes(data[:len(data) // 2])
    with pytest.raises(dat.IngestionError):
        dat.load_grid(path)


def test_bad_magic_is_ingestion_error(tmp_path):
    path = tmp_path / "bad.remg"
    path.write_bytes(b"NOPE!" + b"\x00" * 64)
    with pytest.raises(dat.IngestionError):
        dat.load_grid(path)


def test_csv_roundtrip(tmp_path):
    grid = dat.generate_synthetic_map(_clean_cfg(width=6, height=5))
    path = tmp_path / "map.csv"
    dat.save_grid_csv(grid, path)
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    # One row per cell in row-major order: row, col, s1..sM, f1..fP.
    cells = np.indices((grid.height, grid.width)).reshape(2, -1).T
    assert np.array_equal(rows[:, :2], cells)
    layers = rows[:, 2:].T.reshape(-1, grid.height, grid.width)
    assert np.array_equal(layers[:grid.n_bs], grid.signals)
    assert np.array_equal(layers[grid.n_bs:], grid.features)


def test_input_vector_length_is_2_plus_p(desk_heavy_partition):
    # M=4, P=100 grid yields 102-dimensional inputs
    assert desk_heavy_partition.clients[0].x_train.shape[1] == 102


# ---------------------------------------------------------------------------
# heterogeneity and scenarios
# ---------------------------------------------------------------------------

def test_heterogeneity_zero_for_identical_layers():
    layer = np.random.default_rng(0).normal(size=(4, 4))
    grid = dat.RadioMapGrid(4, 4, np.stack([layer, layer, layer]),
                            np.zeros((1, 4, 4)))
    field = dat.heterogeneity(grid)
    assert np.allclose(field.values, 0.0)


def test_heterogeneity_known_value():
    sig = np.array([[[1.0]], [[2.0]], [[3.0]], [[4.0]]])
    grid = dat.RadioMapGrid(1, 1, sig, np.zeros((1, 1, 1)))
    field = dat.heterogeneity(grid)
    assert field.values[0, 0] == pytest.approx(np.sqrt(1.25))


def test_heterogeneity_requires_two_bs():
    grid = dat.RadioMapGrid(2, 2, np.zeros((1, 2, 2)), np.zeros((1, 2, 2)))
    with pytest.raises(dat.ConfigError):
        dat.heterogeneity(grid)


def test_scenarios_partition_all_cells(small_grid, small_field):
    masks = [dat.scenario_filter(small_field, s) for s in dat.SCENARIOS]
    union = masks[0] | masks[1] | masks[2]
    assert np.all(union)
    assert not np.any(masks[0] & masks[1])
    assert not np.any(masks[0] & masks[2])
    assert not np.any(masks[1] & masks[2])


def test_scenario_shares_near_one_third(small_grid, small_field):
    n = small_grid.width * small_grid.height
    for s in dat.SCENARIOS:
        share = dat.scenario_filter(small_field, s).sum() / n
        assert abs(share - 1 / 3) < 0.02


def test_uniform_field_all_light():
    grid = dat.RadioMapGrid(3, 3, np.stack([np.zeros((3, 3)),
                                            np.ones((3, 3))]),
                            np.zeros((0, 3, 3)))
    field = dat.heterogeneity(grid)
    assert np.all(dat.scenario_filter(field, "light"))


def test_scenario_mean_h_ordering(small_grid, small_field):
    means = [small_field.values[dat.scenario_filter(small_field, s)].mean()
             for s in dat.SCENARIOS]
    assert means[0] < means[1] < means[2]


def test_unknown_scenario_rejected(small_field):
    with pytest.raises(dat.ConfigError):
        dat.scenario_filter(small_field, "extreme")


# ---------------------------------------------------------------------------
# partitioning
# ---------------------------------------------------------------------------

def test_partition_client_count(desk_grid, desk_field):
    part = dat.grid_partition(desk_grid, desk_field, "heavy",
                              rows=10, cols=9, seed=2)
    assert len(part.clients) == 90


def test_partition_conserves_samples(small_grid, small_field):
    part = dat.grid_partition(small_grid, small_field, "medium",
                              rows=2, cols=2, seed=5)
    total = sum(c.n_train + c.n_test for c in part.clients)
    assert total == dat.scenario_filter(small_field, "medium").sum()
    seen = set()
    for c in part.clients:
        for rc in np.vstack([c.rc_train, c.rc_test]):
            key = (int(rc[0]), int(rc[1]))
            assert key not in seen
            seen.add(key)


def test_partition_zero_mix_respects_tiles(small_grid, small_field):
    part = dat.grid_partition(small_grid, small_field, "light",
                              rows=2, cols=2, neighbor_mix=0.0, seed=5)
    # with mix 0 and no donation needed, samples sit in their home tile
    counts = [c.n_train + c.n_test for c in part.clients]
    if min(counts) >= 5:  # no re-split happened
        for c in part.clients:
            for rc in np.vstack([c.rc_train, c.rc_test]):
                tr = int(rc[0]) * part.rows // small_grid.height
                tc = int(rc[1]) * part.cols // small_grid.width
                assert (tr, tc) == c.tile


def _dir_digest(root):
    h = hashlib.sha256()
    for base, _, files in sorted(os.walk(root)):
        for name in sorted(files):
            with open(os.path.join(base, name), "rb") as f:
                h.update(name.encode())
                h.update(f.read())
    return h.hexdigest()


def test_partition_export_deterministic(small_grid, small_field, tmp_path):
    digests = []
    for sub in ("a", "b"):
        part = dat.grid_partition(small_grid, small_field, "heavy",
                                  rows=2, cols=2, seed=9)
        dat.export_partition(part, tmp_path / sub)
        digests.append(_dir_digest(tmp_path / sub))
    assert digests[0] == digests[1]


def test_partition_export_import_roundtrip(small_partition, tmp_path):
    dat.export_partition(small_partition, tmp_path / "p")
    back = dat.load_partition(tmp_path / "p")
    assert back.scenario == small_partition.scenario
    assert len(back.clients) == len(small_partition.clients)
    for a, b in zip(small_partition.clients, back.clients):
        assert np.array_equal(a.x_train, b.x_train)
        assert np.array_equal(a.y_train, b.y_train)
        assert np.array_equal(a.x_test, b.x_test)
        assert np.array_equal(np.atleast_1d(a.label_mean),
                              np.atleast_1d(b.label_mean))


def test_load_partition_missing_dir(tmp_path):
    with pytest.raises(dat.IngestionError):
        dat.load_partition(tmp_path / "nope")


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def _norm_inputs(n=20, m=3, seed=0):
    rng = np.random.default_rng(seed)
    coords = rng.uniform(0, 30, size=(n, 2))
    feats = rng.normal(size=(n, 2))
    labels = rng.normal(-80, 10, size=(n, m))
    idx = rng.permutation(n)
    return coords, feats, labels, np.sort(idx[4:]), np.sort(idx[:4])


def test_normalized_train_stats():
    coords, feats, labels, tr, te = _norm_inputs()
    ds = dat.normalize_client(0, (0, 0), coords, feats, labels, tr, te)
    y = ds.y_train
    assert abs(y.mean()) < 1e-9
    assert abs(y.std() - 1.0) < 1e-9
    assert np.all(ds.x_train[:, :2] >= 0) and np.all(ds.x_train[:, :2] <= 1)
    assert np.all(ds.x_test[:, :2] >= 0) and np.all(ds.x_test[:, :2] <= 1)


def test_zscore_shift_invariance():
    coords, feats, labels, tr, te = _norm_inputs()
    a = dat.normalize_client(0, (0, 0), coords, feats, labels, tr, te)
    b = dat.normalize_client(0, (0, 0), coords, feats, labels + 17.0, tr, te)
    assert np.allclose(a.y_train, b.y_train, atol=1e-9)


def test_normalization_roundtrip():
    coords, feats, labels, tr, te = _norm_inputs()
    ds = dat.normalize_client(0, (0, 0), coords, feats, labels, tr, te)
    back = ds.y_train * ds.label_std + ds.label_mean
    assert np.max(np.abs(back - labels[tr])) < 1e-9


def test_zero_variance_client_rejected():
    coords, feats, labels, tr, te = _norm_inputs()
    labels[:] = -70.0
    with pytest.raises(dat.DegenerateClientError):
        dat.normalize_client(0, (0, 0), coords, feats, labels, tr, te)


@pytest.mark.parametrize("file,key,value", [
    ("partition.txt", "bs", None),
    ("partition.txt", "q66", "high"),
    ("client_000/stats.txt", "coord_max_col", None),
    ("client_001/stats.txt", "label_std", "wide"),
    # De-normalization multiplies by label_std and adds label_mean.
    ("client_001/stats.txt", "label_std", "nan"),
    ("client_001/stats.txt", "label_std", "0.0"),
    ("client_001/stats.txt", "label_std", "-0.0"),
    ("client_000/stats.txt", "label_mean", "inf"),
])
def test_load_partition_bad_metadata_names_file_and_key(
        small_partition, tmp_path, file, key, value):
    dat.export_partition(small_partition, tmp_path / "p")
    path = tmp_path / "p" / file
    lines = [line for line in path.read_text().splitlines()
             if not line.startswith(f"{key}=")]
    if value is not None:
        lines.append(f"{key}={value}")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(dat.IngestionError) as info:
        dat.load_partition(tmp_path / "p")
    assert file.split("/")[-1] in str(info.value)
    assert repr(key) in str(info.value)


def test_kv_files_round_trip_stripped(tmp_path):
    path = tmp_path / "meta.txt"
    dat.write_kv(path, [("a", 1), ("b", "x y"), ("a", 2.5)])
    assert path.read_bytes() == b"a=1\nb=x y\na=2.5\n"
    with open(path, "a", encoding="utf-8") as f:
        f.write("# note\n\n  c = \u00e9t\u00e9 \nd\n")
    assert dat.read_kv(path) == {"a": "2.5", "b": "x y", "c": "\u00e9t\u00e9",
                                 "d": ""}


# A sample CSV with one field or one row replaced by arbitrary text: it
# loads, or it is an IngestionError, never another exception.
@pytest.fixture(scope="module")
def sample_csv(tmp_path_factory, small_partition):
    c = small_partition.clients[0]
    path = tmp_path_factory.mktemp("csv") / "train.csv"
    dat._write_samples_csv(path, c.rc_train, c.x_train, c.y_train,
                           small_partition.n_features, small_partition.n_bs)
    return path, path.read_text().splitlines(), small_partition


@given(data=st.data(), text=st.text(max_size=12), whole_row=st.booleans())
def test_mutated_sample_csv_raises_only_ingestion_error(sample_csv, data,
                                                        text, whole_row):
    path, lines, part = sample_csv
    lines = list(lines)
    row = data.draw(st.integers(1, len(lines) - 1))
    if whole_row:
        lines[row] = text
    else:
        fields = lines[row].split(",")
        fields[data.draw(st.integers(0, len(fields) - 1))] = text
        lines[row] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    try:
        rc, x, y = dat._read_samples_csv(path, part.n_features, part.n_bs)
    except dat.IngestionError:
        return
    assert x.shape == (rc.shape[0], 2 + part.n_features)
    assert y.shape == (rc.shape[0], part.n_bs)
