import dataclasses
import hashlib
import math
import os
import shutil
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
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


def test_every_default_feature_layer_carries_signal():
    # The default P counts the layers the generator fills: each has a
    # nonzero value, and one layer more is zero everywhere.
    cfg = dat.SyntheticMapConfig(seed=7, width=32, height=32)
    grid = dat.generate_synthetic_map(cfg)
    assert grid.n_features == 8
    assert grid.features.reshape(grid.n_features, -1).any(axis=1).all()
    more = dat.generate_synthetic_map(
        dataclasses.replace(cfg, n_features=cfg.n_features + 1))
    assert np.array_equal(more.features[:-1], grid.features)
    assert not more.features[-1].any()


def test_transmitter_outside_grid_rejected():
    with pytest.raises(dat.ConfigError):
        dat.generate_synthetic_map(_clean_cfg(tx_positions=[(30, 5), (1, 1)]))


def test_signals_respect_floor():
    grid = dat.generate_synthetic_map(
        _clean_cfg(path_loss_exp=8.0, tx_positions=[(0, 0), (1, 1)]))
    assert grid.signals.min() == dat.DEFAULT_FLOOR_DB


def test_obstacle_penalty_and_distance_layer_follow_each_ray():
    # Reference: each of the ray's points rounded to its cell and gathered
    # with a 2-D index.  A map that is not square catches a swapped axis.
    h, w = 13, 21
    cfg = dat.SyntheticMapConfig(
        seed=4, width=w, height=h, n_bs=2, n_features=2,
        tx_positions=[(0, 0), (12, 7.5)], obstacle_density=0.3,
        shadowing_db=0.0)
    grid = dat.generate_synthetic_map(cfg)
    obstacles = grid.features[0]
    rr, cc = np.meshgrid(np.arange(h, dtype=float), np.arange(w, dtype=float),
                         indexing="ij")
    dists = []
    for m, (r0, c0) in enumerate(np.asarray(cfg.tx_positions, dtype=float)):
        hits = np.zeros((h, w))
        for k in range(dat._RAY_SAMPLES):
            t = (k + 0.5) / dat._RAY_SAMPLES
            pr = np.clip(np.rint(r0 + t * (rr - r0)).astype(int), 0, h - 1)
            pc = np.clip(np.rint(c0 + t * (cc - c0)).astype(int), 0, w - 1)
            hits += obstacles[pr, pc]
        d = np.hypot(rr - r0, cc - c0)
        pl = 10.0 * cfg.path_loss_exp * np.log10(np.maximum(d, 0.5) / 0.5)
        s = dat._TX_POWER_DB - pl \
            - dat._OBSTACLE_PENALTY_DB * (hits / dat._RAY_SAMPLES) * d
        assert hits.any()
        assert np.array_equal(grid.signals[m],
                              np.maximum(s, dat.DEFAULT_FLOOR_DB))
        dists.append(d)
    assert np.array_equal(grid.features[1],
                          np.minimum(*dists) / math.hypot(h, w))


# The map blur is numpy and has scipy's bits: scipy is imported only here.
@given(h=st.integers(1, 70), w=st.integers(1, 70),
       sigma=st.sampled_from([4.0, 8.0]), seed=st.integers(0, 2**16))
@example(h=256, w=256, sigma=8.0, seed=0)
@example(h=1, w=1, sigma=8.0, seed=1)  # radius 32 > side: reflected again
@example(h=16, w=3, sigma=8.0, seed=2)
def test_blur_equals_scipy_gaussian_filter_bit_for_bit(h, w, sigma, seed):
    from scipy.ndimage import gaussian_filter
    a = np.random.default_rng(seed).standard_normal((h, w))
    got = dat._gaussian_blur(a, sigma)
    assert np.array_equal(got, gaussian_filter(a, sigma))
    # C order, as scipy's: a later std sums in memory order.
    assert got.flags.c_contiguous


@pytest.mark.parametrize("side", [64, 256])
def test_map_equals_the_map_blurred_by_scipy(side, monkeypatch):
    from scipy.ndimage import gaussian_filter
    cfg = dat.SyntheticMapConfig(seed=1, width=side, height=side)
    grid = dat.generate_synthetic_map(cfg)
    monkeypatch.setattr(dat, "_gaussian_blur", gaussian_filter)
    want = dat.generate_synthetic_map(cfg)
    assert np.array_equal(grid.signals, want.signals)
    assert np.array_equal(grid.features, want.features)


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


# REMG1 headers (w, h, M, P) of grids with no cells: 21-byte files whose
# size matches the header.
@pytest.mark.parametrize("header", [(0, 0, 4, 0), (3, 0, 4, 1)],
                         ids=["0x0", "3x0"])
def test_grid_with_no_cells_is_ingestion_error(tmp_path, header):
    path = tmp_path / "empty.remg"
    path.write_bytes(dat.GRID_MAGIC + struct.pack("<IIII", *header))
    assert path.stat().st_size == 21
    with pytest.raises(dat.IngestionError, match="no cells"):
        dat.load_grid(path)
    w, h, m, p = header
    grid = dat.RadioMapGrid(w, h, np.zeros((m, h, w)), np.zeros((p, h, w)))
    with pytest.raises(dat.IngestionError, match="no cells"):
        dat.save_grid(grid, tmp_path / "saved.remg")
    assert not (tmp_path / "saved.remg").exists()


def test_csv_roundtrip(tmp_path):
    grid = dat.generate_synthetic_map(_clean_cfg(width=6, height=5))
    path = tmp_path / "map.csv"
    dat.save_grid_csv(grid, path)
    # The CSV holds what the REMG1 file holds, which a partition is made of.
    dat.save_grid(grid, tmp_path / "map.remg")
    saved = dat.load_grid(tmp_path / "map.remg")
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    # One row per cell in row-major order: row, col, s1..sM, f1..fP.
    cells = np.indices((grid.height, grid.width)).reshape(2, -1).T
    assert np.array_equal(rows[:, :2], cells)
    layers = rows[:, 2:].T.reshape(-1, grid.height, grid.width)
    assert np.array_equal(layers[:grid.n_bs], saved.signals)
    assert np.array_equal(layers[grid.n_bs:], saved.features)


def test_grid_csv_text_is_row_col_then_repr_of_each_saved_value(tmp_path):
    # 2 x 3 cells, M = 2, P = 3: a varying signal, a signal of 0.0 with one
    # -0.0, an all-zero feature, a constant feature and a float32 subnormal.
    signals = np.array([[[0.1, -1e16, 1e-4], [-150.0, 2.5, 3.0]],
                        [[0.0, 0.0, 0.0], [0.0, -0.0, 0.0]]])
    features = np.zeros((3, 2, 3))
    features[1] = 7.25
    features[2, 1, 2] = 1e-40
    path = tmp_path / "map.csv"
    dat.save_grid_csv(dat.RadioMapGrid(3, 2, signals, features), path)
    lines = path.read_text(encoding="utf-8").split("\n")
    assert lines[0] == "row,col,s1,s2,f1,f2,f3"
    assert lines[1] == "0,0,0.10000000149011612,0.0,0.0,7.25,0.0"
    assert lines[5] == "1,1,2.5,-0.0,0.0,7.25,0.0"
    assert lines[6] == "1,2,3.0,0.0,0.0,7.25,9.99994610111476e-41"
    wide = [np.float32(v).item() for v in signals.ravel()]
    assert [line.split(",")[2] for line in lines[1:-1]] \
        == list(map(repr, wide[:6]))
    assert lines[-1] == "" and len(lines) == 8


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
        assert (a.client_id, a.tile) == (b.client_id, b.tile)
        assert np.array_equal(a.x_train, b.x_train)
        assert np.array_equal(a.y_train, b.y_train)
        assert np.array_equal(a.x_test, b.x_test)
        assert np.array_equal(np.atleast_1d(a.label_mean),
                              np.atleast_1d(b.label_mean))


def test_load_partition_missing_dir(tmp_path):
    with pytest.raises(dat.IngestionError):
        dat.load_partition(tmp_path / "nope")


def test_load_partition_ignores_the_keys_older_versions_wrote(
        small_partition, tmp_path):
    # Older writers also stored the client count, ids and tiles, which
    # rows x cols gives.
    dat.export_partition(small_partition, tmp_path / "new")
    new = dat.load_partition(tmp_path / "new")
    with open(tmp_path / "new" / "partition.txt", "a") as f:
        f.write("clients=4\n")
    for k, c in enumerate(small_partition.clients):
        with open(tmp_path / "new" / f"client_{k:03d}" / "stats.txt",
                  "a") as f:
            f.write(f"client_id={k}\ntile_row={c.tile[0]}\n"
                    f"tile_col={c.tile[1]}\n")
    old = dat.load_partition(tmp_path / "new")
    for a, b in zip(new.clients, old.clients):
        assert (a.client_id, a.tile) == (b.client_id, b.tile)
        for key in ("x_train", "y_train", "x_test", "y_test", "rc_train",
                    "rc_test", "coord_min", "coord_max", "label_mean",
                    "label_std"):
            assert getattr(a, key).tobytes() == getattr(b, key).tobytes()


@pytest.mark.parametrize("edit, missing", [
    (lambda p: os.remove(p / "client_003" / "test.csv"),
     "client_003/test.csv"),
    (lambda p: shutil.rmtree(p / "client_003"), "client_003/stats.txt"),
    (lambda p: os.remove(p / "client_001" / "train.csv")
     or os.mkdir(p / "client_001" / "train.csv"), "client_001/train.csv"),
    (lambda p: (p / "partition.txt").write_text(
        (p / "partition.txt").read_text().replace("rows=2", "rows=3")),
     "client_004/stats.txt"),
], ids=["test-csv", "client-dir", "directory-for-file", "rows-3"])
def test_load_partition_missing_client_file_names_it(small_partition,
                                                     tmp_path, edit, missing):
    dat.export_partition(small_partition, tmp_path / "p")
    edit(tmp_path / "p")
    with pytest.raises(dat.IngestionError,
                       match=f"{missing}: no such file") as info:
        dat.load_partition(tmp_path / "p")
    assert "rows x cols" in str(info.value)


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
    # The writer makes rows x cols >= 1 clients.
    ("partition.txt", "rows", "0"),
    # The writer makes bs >= 2 and features >= 0.  bs=0 loaded with no
    # label column, and bs=-12 made the 4 + features + bs values of a
    # sample row 0; both failed later, not as data errors.
    ("partition.txt", "bs", "0"),
    ("partition.txt", "bs", "-12"),
    ("partition.txt", "features", "-1"),
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


# The 2 x 2 partition with one value of partition.txt, or of one client's
# stats.txt, replaced by arbitrary text or a small integer (a larger rows or
# cols names clients that do not exist): it loads, or it is an
# IngestionError, never another exception.
@pytest.fixture(scope="module")
def partition_dir(tmp_path_factory, small_partition):
    root = tmp_path_factory.mktemp("part")
    dat.export_partition(small_partition, root)
    return root


@given(name=st.sampled_from(["partition.txt", "client_000/stats.txt",
                             "client_003/stats.txt"]),
       line=st.integers(0, 8),
       value=st.one_of(st.integers(-20, 20).map(str), st.text(max_size=12)))
@example(name="partition.txt", line=1, value="3")  # rows=3: no client_004
def test_mutated_partition_metadata_raises_only_ingestion_error(
        partition_dir, name, line, value):
    path = partition_dir / name
    original = path.read_text(encoding="utf-8")
    lines = original.splitlines()
    line %= len(lines)
    lines[line] = lines[line].partition("=")[0] + "=" + value
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    try:
        part = dat.load_partition(partition_dir)
    except dat.IngestionError:
        return
    finally:
        path.write_text(original, encoding="utf-8")
    assert len(part.clients) == part.rows * part.cols


# A sample CSV with one field or one row replaced by arbitrary text: it
# loads, or it is an IngestionError, never another exception.
@pytest.fixture(scope="module")
def sample_csv(tmp_path_factory, small_partition):
    c = small_partition.clients[0]
    path = tmp_path_factory.mktemp("csv") / "train.csv"
    dat._write_samples_csv(path, c.rc_train, c.x_train, c.y_train)
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


# One line of any sample CSV of a whole partition directory, header
# included, replaced by arbitrary text: the partition loads, with finite
# samples of the right widths, or it is an IngestionError.
@given(data=st.data(), client=st.integers(0, 3),
       name=st.sampled_from(["train.csv", "test.csv"]),
       text=st.text(max_size=24))
def test_mutated_partition_csv_raises_only_ingestion_error(
        partition_dir, data, client, name, text):
    path = partition_dir / f"client_{client:03d}" / name
    original = path.read_text(encoding="utf-8")
    lines = original.splitlines()
    lines[data.draw(st.integers(0, len(lines) - 1))] = text
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    try:
        part = dat.load_partition(partition_dir)
    except dat.IngestionError:
        return
    finally:
        path.write_text(original, encoding="utf-8")
    for c in part.clients:
        for x, y in ((c.x_train, c.y_train), (c.x_test, c.y_test)):
            assert x.shape == (y.shape[0], 2 + part.n_features) and len(x)
            assert y.shape[1] == part.n_bs
            assert np.isfinite(x).all() and np.isfinite(y).all()


def test_sample_csv_line_is_row_col_then_repr_of_each_value(small_partition,
                                                           tmp_path):
    c = small_partition.clients[0]
    p, m = small_partition.n_features, small_partition.n_bs
    path = tmp_path / "train.csv"
    dat._write_samples_csv(path, c.rc_train, c.x_train, c.y_train)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(["row", "col", "cx", "cy"]
                                + [f"f{i+1}" for i in range(p)]
                                + [f"y{i+1}" for i in range(m)])
    want = []
    for i in range(c.n_train):
        r, col = (int(v) for v in c.rc_train[i])
        row = [float(v) for v in c.x_train[i]] + [float(v) for v in c.y_train[i]]
        want.append(f"{r},{col}," + ",".join(map(repr, row)))
    assert lines[1:] == want
    rc, x, y = dat._read_samples_csv(path, p, m)
    assert np.array_equal(rc, c.rc_train)
    assert np.array_equal(x, c.x_train) and np.array_equal(y, c.y_train)
    assert x.flags.c_contiguous and y.flags.c_contiguous


def test_non_finite_sample_names_its_line(small_partition, tmp_path):
    c = small_partition.clients[0]
    path = tmp_path / "train.csv"
    dat._write_samples_csv(path, c.rc_train, c.x_train, c.y_train)
    lines = path.read_text().splitlines()
    fields = lines[3].split(",")
    fields[-1] = "nan"
    # A blank line is skipped, and still counted.
    lines[3:4] = ["", ",".join(fields)]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(dat.IngestionError, match="line 5: non-finite"):
        dat._read_samples_csv(path, small_partition.n_features,
                              small_partition.n_bs)


def test_header_only_sample_csv_loads_empty(tmp_path):
    path = tmp_path / "test.csv"
    dat._write_samples_csv(path, np.zeros((0, 2), dtype=int),
                           np.zeros((0, 5)), np.zeros((0, 4)))
    assert len(path.read_text().splitlines()) == 1
    rc, x, y = dat._read_samples_csv(path, 3, 4)
    assert (rc.shape, x.shape, y.shape) == ((0, 2), (0, 5), (0, 4))


# Differential tests of the column-wise sample-table writer and reader
# against a row-by-row reference and the row path (read_csv + _sample_row).
_EDGE_FLOATS = [0.0, -0.0, 5e-324, 2.2250738585072014e-308,  # subnormals
                2.225073858507201e-308, 1e-4, 9.999999999999999e-05,
                0.00010000000000000002, 1e16, 9999999999999998.0,
                1.0000000000000002e16, -1e16, 0.1, 1.0, -150.0]
_FLOATS = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats())
_CELL_INTS = st.integers(0, 2**32 - 1)


def _column(draw, values, n, kinds=("varied", "constant", "signed-zero")):
    """One column of n values: drawn one by one, one drawn value n times,
    or 0.0 with one -0.0."""
    kind = draw(st.sampled_from(kinds))
    if kind == "varied":
        return draw(st.lists(values, min_size=n, max_size=n))
    if kind == "constant" or not n:
        return [draw(values)] * n
    column = [0.0] * n
    column[draw(st.integers(0, n - 1))] = -0.0
    return column


@st.composite
def _sample_tables(draw, floats=_FLOATS):
    """(rc, x, y) of 0, 1 or many samples, with 0 to 3 features."""
    n = draw(st.sampled_from([0, 1, 2, 5, 40]))
    p, m = draw(st.integers(0, 3)), draw(st.integers(1, 3))
    rc = np.array([_column(draw, _CELL_INTS, n, ("varied", "constant"))
                   for _ in range(2)], dtype=int).T.reshape(n, 2)
    values = np.array([_column(draw, floats, n) for _ in range(2 + p + m)],
                      dtype=float).T.reshape(n, 2 + p + m)
    return rc, values[:, :2 + p], values[:, 2 + p:]


def _reference_text(rc, x, y):
    header = ["row", "col", "cx", "cy"] \
        + [f"f{i+1}" for i in range(x.shape[1] - 2)] \
        + [f"y{i+1}" for i in range(y.shape[1])]
    lines = [",".join(header)]
    for (r, c), row in zip(rc.tolist(), np.hstack([x, y]).tolist()):
        lines.append(f"{r},{c}," + ",".join(map(repr, row)))
    return "".join(line + "\n" for line in lines)


def _row_path(path, p, m):
    """The sample table as the row path reads it: (rc, x, y), or the
    message of its IngestionError."""
    width = 4 + p + m
    try:
        _, rows = dat.read_csv(path, dat._sample_row, width)
        table = np.array(rows, dtype=float).reshape(-1, width)
        if not np.isfinite(table).all():
            dat.read_csv(path, dat._finite_row, width)
    except dat.IngestionError as exc:
        return str(exc)
    return table[:, :2].astype(int), table[:, 2:4 + p], table[:, 4 + p:]


@pytest.fixture(scope="module")
def table_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("tables")


@given(table=_sample_tables())
@example(table=(np.zeros((3, 2), dtype=int),
                np.array([[0.0, 1e-4], [-0.0, 1e-4], [0.0, 1e-4]]),
                np.array([[5e-324], [5e-324], [-5e-324]])))
def test_sample_csv_writer_matches_the_row_reference(table_dir, table):
    rc, x, y = table
    path = table_dir / "written.csv"
    dat._write_samples_csv(path, rc, x, y)
    assert path.read_bytes() == _reference_text(rc, x, y).encode("utf-8")


# Text a field or a line may be replaced with: each is read the same by
# Python's int and float as by the row path, or rejected by both.
_FIELD_TEXT = st.one_of(
    st.sampled_from(["", " ", "nan", "-inf", "1e999", "-1", str(2**32),
                     "4294967295", "1_0", "0x10", "١٢", " 7 ",
                     "\x0b3", "1\u20282", "2\x1c", "-0.0", "1.5", "9" * 30]),
    st.text(max_size=6))


_WHITESPACE = st.sampled_from([" ", "\t", "\x0b", "\x1c", "\u2028"])


@given(table=_sample_tables(st.one_of(
           st.sampled_from(_EDGE_FLOATS),
           st.floats(allow_nan=False, allow_infinity=False))),
       data=st.data(), newline=st.sampled_from(["\n", "\r\n", "\r"]))
def test_sample_csv_reader_matches_the_row_path(table_dir, table, data,
                                                newline):
    rc, x, y = table
    p, m = x.shape[1] - 2, y.shape[1]
    lines = _reference_text(rc, x, y).split("\n")[:-1]
    for _ in range(data.draw(st.integers(0, 3))):
        edit = data.draw(st.sampled_from(
            ["field", "cell", "line", "blank", "pad", "shift"]))
        if edit == "blank":
            lines.insert(data.draw(st.integers(1, len(lines))),
                         data.draw(st.sampled_from(["", " \t", "\x0b"])))
            continue
        if len(lines) < 2:
            continue
        at = data.draw(st.integers(1, len(lines) - 1))
        fields = lines[at].split(",")
        field = data.draw(st.integers(0, len(fields) - 1))
        if edit == "field":
            fields[field] = data.draw(_FIELD_TEXT)
        elif edit == "cell":
            fields[:2] = [data.draw(st.sampled_from(
                ["-1", "0", "+7", "007", str(2**32 - 1), str(2**32),
                 str(2**64)])) for _ in range(2)]
        elif edit == "line":
            fields = [data.draw(_FIELD_TEXT)]
        elif edit == "pad":  # whitespace that strip skips
            fields[field] += data.draw(_WHITESPACE)
        else:  # the line's last field moves to the end of another line
            moved = fields.pop()
            other = data.draw(st.integers(1, len(lines) - 1))
            if other != at:
                lines[other] += "," + moved
        lines[at] = ",".join(fields)
    path = table_dir / "read.csv"
    path.write_bytes(newline.join(lines + [""]).encode("utf-8"))
    want = _row_path(path, p, m)
    if isinstance(want, str):
        with pytest.raises(dat.IngestionError) as err:
            dat._read_samples_csv(path, p, m)
        assert str(err.value) == want
        return
    # A file the row path reads is read a column at a time alone.
    with mock.patch.object(dat, "read_csv", side_effect=AssertionError):
        got = dat._read_samples_csv(path, p, m)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("space", ["\x0b", "\u2028", " ", "\x85"])
def test_sample_line_with_inner_whitespace_loads_a_column_at_a_time(
        tmp_path, space):
    # Lines end at "\n" alone, as in text-mode iteration: splitlines would
    # also end one at each of these whitespace characters, which int, float
    # and strip skip (but not "\x1c", which int and float reject).
    path = tmp_path / "train.csv"
    path.write_text("row,col,cx,cy,y1\n"
                    f"1{space},2,0.5{space},0.25,-1.0\n3,4,0.0,1.0,2.0\n",
                    encoding="utf-8")
    with mock.patch.object(dat, "read_csv", side_effect=AssertionError):
        rc, x, y = dat._read_samples_csv(path, 0, 1)
    assert rc.tolist() == [[1, 2], [3, 4]]
    assert x.tolist() == [[0.5, 0.25], [0.0, 1.0]]
    assert y.tolist() == [[-1.0], [2.0]]


def test_sample_field_moved_to_another_line_names_the_line(tmp_path):
    # Integer text reads as row, col and value alike, so only the count of
    # fields on each line shows that a field moved.
    path = tmp_path / "train.csv"
    path.write_text("row,col,cx,cy,y1\n1,2,3,4\n5,6,7,8,9,5\n",
                    encoding="utf-8")
    with pytest.raises(dat.IngestionError,
                       match="line 2: 4 fields, expected 5"):
        dat._read_samples_csv(path, 0, 1)


@pytest.mark.parametrize("cell, error", [
    ("-1,2", "row outside"), ("1,4294967296", "col outside"),
    ("18446744073709551616,2", "row outside")])
def test_sample_cell_outside_u32_names_the_line(tmp_path, cell, error):
    path = tmp_path / "train.csv"
    path.write_text("row,col,cx,cy,y1\n1,2,0.5,0.5,1.0\n"
                    f"{cell},0.5,0.5,1.0\n", encoding="utf-8")
    with pytest.raises(dat.IngestionError, match=f"line 3: {error}"):
        dat._read_samples_csv(path, 0, 1)
