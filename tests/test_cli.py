import dataclasses
import multiprocessing
import os
import platform
import re
import struct

import numpy as np
import pytest
import scipy
from hypothesis import given
from hypothesis import strategies as st

from remfl import cli
from remfl import data as dat
from remfl import federation as fed

TINY_TRAIN = ["--rounds", "2", "--epochs", "1", "--sync-period", "1"]
TINY_NET = "hidden1=8\nhidden2=8\nlatent=16\nhead_hidden=4\n"


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Map + heavy partition small enough for end-to-end CLI runs."""
    root = tmp_path_factory.mktemp("cliws")
    mappath = str(root / "map.remg")
    partdir = str(root / "part")
    assert cli.main(["gen-data", "--size", "24", "--bs", "2",
                     "--features", "5", "--seed", "3", "-o", mappath]) == 0
    assert cli.main(["partition", mappath, "--scenario", "heavy",
                     "--clients", "2x2", "--seed", "1", "-o", partdir]) == 0
    cfg = root / "net.cfg"
    cfg.write_text(TINY_NET)
    return {"root": root, "map": mappath, "part": partdir, "cfg": str(cfg)}


# ---------------------------------------------------------------------------
# gen-data
# ---------------------------------------------------------------------------

def test_gen_data_writes_loadable_grid(workspace):
    grid = dat.load_grid(workspace["map"])
    assert (grid.width, grid.height, grid.n_bs, grid.n_features) == (24, 24, 2, 5)


def test_gen_data_deterministic(workspace, tmp_path):
    again = tmp_path / "again.remg"
    assert cli.main(["gen-data", "--size", "24", "--bs", "2",
                     "--features", "5", "--seed", "3", "-o", str(again)]) == 0
    assert again.read_bytes() == open(workspace["map"], "rb").read()


def test_gen_data_rejects_zero_size(tmp_path, capsys):
    rc = cli.main(["gen-data", "--size", "0", "-o", str(tmp_path / "x.remg")])
    assert rc == 1
    assert "usage error" in capsys.readouterr().err


def test_gen_data_tx_outside_grid_is_usage_error(tmp_path, capsys):
    rc = cli.main(["gen-data", "--size", "10", "--bs", "1",
                   "--tx", "99,99", "-o", str(tmp_path / "x.remg")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "usage error" in err and "--tx" in err
    assert not (tmp_path / "x.remg").exists()


@pytest.mark.parametrize("features", ["9", "100"])
def test_gen_data_refuses_feature_layers_without_signal(tmp_path, capsys,
                                                        features):
    out = tmp_path / "x.remg"
    rc = cli.main(["gen-data", "--size", "8", "--features", features,
                   "-o", str(out), "--csv", str(tmp_path / "x.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "--features" in err and "only 8 feature layers carry signal" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flags, want", [
    ([], 8), (["--features", "0"], 0), (["--features", "8"], 8),
], ids=["default", "0", "8"])
def test_gen_data_feature_count(tmp_path, capsys, flags, want):
    out = tmp_path / "x.remg"
    assert cli.main(["gen-data", "--size", "8", *flags, "-o", str(out)]) == 0
    assert dat.load_grid(out).n_features == want
    assert f"P={want}" in capsys.readouterr().out


def test_gen_data_and_the_library_share_one_feature_default():
    args = cli.build_parser().parse_args(["gen-data", "-o", "x.remg"])
    assert args.features == dat.SyntheticMapConfig().n_features \
        == dat.FILLED_FEATURES


def test_manifest_version_of_a_missing_package_is_absent():
    assert cli._installed_version("remfl-no-such-package") == "absent"
    assert cli._installed_version("numpy") == np.__version__


def test_gen_data_desk_preset_size(tmp_path):
    out = tmp_path / "desk.remg"
    assert cli.main(["gen-data", "--preset", "desk", "--features", "5",
                     "-o", str(out)]) == 0
    grid = dat.load_grid(out)
    assert grid.width == grid.height == 64


def test_gen_data_csv_holds_the_values_partition_reads(tmp_path):
    out, csv = tmp_path / "map.remg", tmp_path / "map.csv"
    assert cli.main(["gen-data", "--size", "6", "--bs", "2", "--features",
                     "3", "-o", str(out), "--csv", str(csv)]) == 0
    grid = dat.load_grid(out)
    lines = csv.read_text(encoding="utf-8").splitlines()[1:]
    values = np.array([[float(v) for v in line.split(",")[2:]]
                       for line in lines])
    layers = values.T.reshape(-1, 6, 6)
    assert np.array_equal(layers[:2], grid.signals)
    assert np.array_equal(layers[2:], grid.features)


# ---------------------------------------------------------------------------
# partition
# ---------------------------------------------------------------------------

def test_partition_layout(workspace):
    part = workspace["part"]
    dirs = sorted(d for d in os.listdir(part) if d.startswith("client_"))
    assert dirs == [f"client_{i:03d}" for i in range(4)]
    for d in dirs:
        for name in ("train.csv", "test.csv", "stats.txt"):
            assert os.path.exists(os.path.join(part, d, name))
    assert os.path.exists(os.path.join(part, "partition.txt"))


def test_partition_scenarios_disjoint(workspace, tmp_path):
    cells = {}
    for scen in dat.SCENARIOS:
        out = tmp_path / scen
        assert cli.main(["partition", workspace["map"], "--scenario", scen,
                         "--clients", "2x2", "-o", str(out)]) == 0
        part = dat.load_partition(out)
        cells[scen] = {tuple(rc) for c in part.clients
                       for rc in np.vstack([c.rc_train, c.rc_test]).astype(int)}
    assert not cells["light"] & cells["medium"]
    assert not cells["light"] & cells["heavy"]
    assert not cells["medium"] & cells["heavy"]
    assert sum(map(len, cells.values())) == 24 * 24


def test_partition_missing_map_is_data_error(tmp_path, capsys):
    rc = cli.main(["partition", str(tmp_path / "nope.remg"),
                   "--scenario", "light", "-o", str(tmp_path / "out")])
    assert rc == 2
    assert "data error" in capsys.readouterr().err


@pytest.mark.parametrize("header", [(0, 0, 4, 0), (3, 0, 4, 1)],
                         ids=["0x0", "3x0"])
def test_partition_of_a_grid_with_no_cells_is_data_error(tmp_path, capsys,
                                                         header):
    path = tmp_path / "empty.remg"
    path.write_bytes(dat.GRID_MAGIC + struct.pack("<IIII", *header))
    rc = cli.main(["partition", str(path), "--scenario", "light",
                   "-o", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "data error" in err and "no cells" in err


def test_partition_bad_clients_spec(workspace, tmp_path):
    rc = cli.main(["partition", workspace["map"], "--scenario", "light",
                   "--clients", "abc", "-o", str(tmp_path / "out")])
    assert rc == 1


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def _printed_config(capsys, *flags):
    assert cli.main(["train", "--print-config", *flags]) == 0
    return dict(line.split("=", 1)
                for line in capsys.readouterr().out.strip().split("\n"))


def test_train_print_config(capsys):
    got = _printed_config(capsys, "--rounds", "7", "--mode", "fedavg")
    assert got["rounds"] == "7"
    assert got["mode"] == "fedavg"
    # A fedavg run is shown with its preset applied, as it runs.
    assert got["sparsity"] == "1.0"
    assert got["sync_period"] == "1"
    assert got["ema_beta"] == "0.0"
    assert (got["split_head"], got["quantization"]) == ("false",) * 2
    assert got["head"] == "single"
    assert len(got) == len(dataclasses.fields(fed.RunConfig)) == 19
    assert "ema" not in got and "periodic_sync" not in got


def test_train_epfl_alias_normalizes(capsys):
    got = _printed_config(capsys, "--mode", "epfl")
    assert got["mode"] == "pfl"


def test_train_full_run_outputs(workspace, tmp_path, capsys):
    out = tmp_path / "run"
    rc = cli.main(["train", "--partition", workspace["part"],
                   "--config", workspace["cfg"], *TINY_TRAIN,
                   "-o", str(out)])
    assert rc == 0
    for name in ("roundlog.csv", "manifest.txt", "backbone.npz", "heads.npz"):
        assert (out / name).exists()
    stdout = capsys.readouterr().out
    assert "rmse_macro=" in stdout
    header, rows = fed.read_roundlog(out / "roundlog.csv")
    assert len(rows) == 3  # initial snapshot + 2 rounds
    manifest = (out / "manifest.txt").read_text()
    assert "config_sha256=" in manifest
    assert "scenario=heavy" in manifest
    heads = np.load(out / "heads.npz")
    assert len(heads.files) == 4  # one personalized head per client


def test_manifest_records_parallelism_outside_the_config_hash(
        workspace, tmp_path, monkeypatch):
    # Two CPUs: one BLAS thread gives two forked workers.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                 "OMP_NUM_THREADS"):
        monkeypatch.delenv(name, raising=False)
    manifests = {}
    for blas in ("unset", "1"):
        if blas != "unset":
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", blas)
        out = tmp_path / f"blas-{blas}"
        assert cli.main(["train", "--partition", workspace["part"],
                         "--config", workspace["cfg"], *TINY_TRAIN,
                         "-o", str(out)]) == 0
        manifests[blas] = dat.read_kv(out / "manifest.txt")
    unset, one = manifests["unset"], manifests["1"]
    assert (unset["workers"], unset["blas_threads"]) == ("1", "unset")
    assert (one["workers"], one["blas_threads"]) == (
        "2", "OPENBLAS_NUM_THREADS=1")
    assert one["config_sha256"] == unset["config_sha256"]
    versions = {"python": platform.python_version(),
                "numpy": np.__version__, "scipy": scipy.__version__}
    assert {k: one[k] for k in versions} == versions
    assert {k: unset[k] for k in versions} == versions


def test_train_unknown_config_key_names_it(workspace, tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("rounds=2\nlearning_rate=0.1\n")
    rc = cli.main(["train", "--partition", workspace["part"],
                   "--config", str(bad), "-o", str(tmp_path / "r")])
    assert rc == 1
    assert "learning_rate" in capsys.readouterr().err


def test_train_invalid_value_is_usage_error(workspace, tmp_path):
    rc = cli.main(["train", "--partition", workspace["part"],
                   "--sync-period", "0", "-o", str(tmp_path / "r")])
    assert rc == 1


def test_train_missing_partition_dir(tmp_path):
    rc = cli.main(["train", "--partition", str(tmp_path / "nope"),
                   "-o", str(tmp_path / "r")])
    assert rc == 2


# A path that names a directory where a file is read, or a file where a
# directory is made, is a data error, as a missing file is.
@pytest.mark.parametrize("argv", [
    lambda ws, d: ["partition", str(d), "--scenario", "heavy",
                   "-o", str(d / "p")],
    lambda ws, d: ["train", "--config", str(d), "--partition", ws["part"],
                   "-o", str(d / "r")],
    lambda ws, d: ["train", "--partition", ws["part"], "--config", ws["cfg"],
                   *TINY_TRAIN, "-o", ws["map"]],
], ids=["partition-map-is-dir", "train-config-is-dir", "train-out-is-file"])
def test_path_of_the_wrong_kind_is_data_error(workspace, tmp_path, capsys,
                                              argv):
    assert cli.main(argv(workspace, tmp_path)) == 2
    assert "data error" in capsys.readouterr().err


def test_train_ablation_flags(capsys):
    got = _printed_config(capsys, "--ablate", "no-topk", "--ablate", "no-ema")
    assert got["sparsity"] == "1.0" and got["ema_beta"] == "0.0"
    got = _printed_config(capsys, "--ablate", "no-periodic-sync")
    assert got["sync_period"] == "1"
    assert cli.main(["train", "--print-config", "--ablate", "bogus"]) == 1


def test_cli_rejects_unknown_command():
    assert cli.main(["frobnicate"]) == 1


# (command and flags, bad config lines or None, name the message must hold)
BAD_INPUTS = {
    "head=foo": (["train"], "head=foo", "head"),
    "dropout=1.5": (["train"], "dropout=1.5", "dropout"),
    "hidden1=0": (["train"], "hidden1=0", "hidden1"),
    "batch_size=0": (["train"], "batch_size=0", "batch_size"),
    "huber_delta=0": (["train"], "huber_delta=0", "huber_delta"),
    "rounds=abc": (["train"], "rounds=abc", "rounds"),
    "latin-1-file": (["train"], "head=\xe4", "not UTF-8"),
    "--rounds=-1": (["train", "--rounds", "-1"], None, "rounds"),
    "--lr=-1": (["train", "--lr", "-1"], None, "lr"),
    "--lr=inf": (["train", "--lr", "inf"], None, "lr"),
    "--tx=1,x": (["gen-data", "--tx", "1,x"], None, "--tx"),
    "--tx count": (["gen-data", "--bs", "2", "--tx", "1,1"], None, "--tx"),
    "--tx=1": (["gen-data", "--bs", "1", "--tx", "1"], None, "--tx"),
    "--tx=nan,1": (["gen-data", "--bs", "1", "--tx", "nan,1"], None, "--tx"),
    "--tx=1,inf": (["gen-data", "--bs", "1", "--tx", "1,inf"], None, "--tx"),
    "--rho-grid=0.1,abc": (["sweep", "--rho-grid", "0.1,abc"], None,
                           "--rho-grid"),
    "--period-grid=5,x": (["sweep", "--period-grid", "5,x"], None,
                          "--period-grid"),
    # Checked for every cell before the first one trains.
    "--rho-grid=0.5,2": (["sweep", "--rho-grid", "0.5,2"], None,
                         "--rho-grid"),
    "--period-grid=2,0": (["sweep", "--period-grid", "2,0"], None,
                          "--period-grid"),
    # Removed keys: ema_beta=0, sync_period=1 and sparsity=1 say the same.
    "ema=false": (["train"], "ema=false", "ema"),
    "topk=false": (["train"], "topk=false", "topk"),
    "periodic_sync=false": (["train"], "periodic_sync=false",
                            "periodic_sync"),
    "--seed=-3": (["train", "--seed", "-3"], None, "seed"),
    "print-config --seed=-3": (["train", "--print-config", "--seed", "-3"],
                               None, "seed"),
    "gen-data --seed=-1": (["gen-data", "--seed", "-1"], None, "--seed"),
    "--shadowing=-1": (["gen-data", "--shadowing", "-1"], None,
                       "--shadowing"),
    "--obstacle-density=2": (["gen-data", "--obstacle-density", "2"], None,
                             "--obstacle-density"),
    "--bs=0": (["gen-data", "--bs", "0"], None, "--bs"),
    "partition --seed=-1": (["partition", "--seed", "-1"], None, "--seed"),
    "--train-frac=nan": (["partition", "--train-frac", "nan"], None,
                         "--train-frac"),
}


@pytest.mark.parametrize("argv, lines, name", BAD_INPUTS.values(),
                         ids=BAD_INPUTS.keys())
def test_bad_value_is_usage_error_naming_it(workspace, tmp_path, capsys,
                                            argv, lines, name):
    if argv[0] == "gen-data":
        argv = [*argv, "--size", "10"]
    elif argv[0] == "partition":
        argv = ["partition", workspace["map"], "--scenario", "heavy",
                *argv[1:]]
    else:
        cfg = tmp_path / "bad.cfg"
        # Latin-1, so that a non-ASCII character is not UTF-8.
        cfg.write_bytes((TINY_NET + (lines or "") + "\n").encode("latin-1"))
        argv = [argv[0], "--partition", workspace["part"], *TINY_TRAIN,
                "--config", str(cfg), *argv[1:]]
    rc = cli.main([*argv, "-o", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "usage error" in err and name in err
    assert not (tmp_path / "out").exists()


# Config files and flag values drawn at random: whatever the text, the edge
# answers with a usage error or a config, never with another exception.
_VALUE = st.one_of(st.text(max_size=12), st.integers().map(str),
                   st.floats().map(repr))
_LINE = st.one_of(
    st.builds("{}={}".format,
              st.one_of(st.sampled_from(sorted(cli.CONFIG_KEYS)),
                        st.text(max_size=8)),
              _VALUE),
    st.text(max_size=20))


@pytest.fixture(scope="module")
def scratch_cfg(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "fuzz.cfg"


@given(lines=st.lists(_LINE, max_size=6))
def test_load_config_file_raises_only_usage_error(scratch_cfg, lines):
    scratch_cfg.write_text("\n".join(lines), encoding="utf-8")
    try:
        values = cli.load_config_file(scratch_cfg)
    except cli.UsageError:
        return
    assert set(values) <= cli.CONFIG_KEYS


@given(flags=st.lists(
    st.tuples(st.sampled_from(["--rounds", "--lr", "--batch-size", "--rho"]),
              _VALUE),
    max_size=4))
def test_print_config_with_fuzzed_flags_exits_0_or_1(flags):
    argv = ["train", "--print-config"]
    for flag, value in flags:
        argv.append(f"{flag}={value}")
    assert cli.main(argv) in (0, 1)


# Numeric flags of the four commands that read or write data, drawn at
# random on a tiny map: whatever the values, the answer is success, a usage
# error or a data error, never a runtime error.  Floats stay within +-3 (plus
# NaN and the infinities), so that no draw overflows on purpose.
_FLOAT = st.one_of(st.sampled_from(["nan", "inf", "-inf"]),
                   st.floats(-3.0, 3.0).map(repr))
_SEED = st.integers(-3, 2**70).map(str)
_NUMERIC_FLAGS = {
    "gen-data": {"--seed": _SEED, "--size": st.integers(-1, 10).map(str),
                 "--bs": st.integers(-1, 4).map(str),
                 "--features": st.integers(-1, 4).map(str),
                 "--obstacle-density": _FLOAT, "--shadowing": _FLOAT,
                 "--path-loss-exp": _FLOAT},
    "partition": {"--seed": _SEED, "--mix": _FLOAT, "--train-frac": _FLOAT,
                  "--clients": st.builds("{}x{}".format,
                                         st.integers(-1, 3),
                                         st.integers(-1, 3))},
    "train": {"--seed": _SEED, "--rounds": st.integers(-1, 3).map(str),
              "--epochs": st.integers(-1, 2).map(str),
              "--sync-period": st.integers(-1, 3).map(str),
              "--batch-size": st.integers(-2, 10**6).map(str),
              "--rho": _FLOAT, "--fraction": _FLOAT, "--lr": _FLOAT},
}
# A sweep takes the train flags and up to two values per grid, so that a
# draw trains at most eight tiny cells.
_NUMERIC_FLAGS["sweep"] = {
    **_NUMERIC_FLAGS["train"],
    "--rho-grid": st.lists(_FLOAT, min_size=1, max_size=2).map(",".join),
    "--period-grid": st.lists(st.integers(-1, 3).map(str), min_size=1,
                              max_size=2).map(",".join),
    "--quant-grid": st.lists(st.sampled_from(["on", "off", "2", ""]),
                             min_size=1, max_size=2).map(",".join)}


def _command_flags(command):
    flags = _NUMERIC_FLAGS[command]
    pair = st.sampled_from(sorted(flags)).flatmap(
        lambda f: st.tuples(st.just(f), flags[f]))
    return st.tuples(st.just(command), st.lists(pair, max_size=4))


@pytest.fixture(scope="module")
def scratch_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("numeric")


@given(drawn=st.one_of(*map(_command_flags, _NUMERIC_FLAGS)))
def test_numeric_flags_exit_0_1_or_2(workspace, scratch_dir, drawn):
    command, pairs = drawn
    run = ["--partition", workspace["part"], "--config", workspace["cfg"],
           *TINY_TRAIN]
    base = {"gen-data": ["--size", "8", "--features", "3"],
            "partition": [workspace["map"], "--scenario", "heavy",
                          "--clients", "2x2"],
            "train": run, "sweep": run}[command]
    out = scratch_dir / ("map.remg" if command == "gen-data" else command)
    argv = [command, *base, *(f"{f}={v}" for f, v in pairs), "-o", str(out)]
    assert cli.main(argv) in (0, 1, 2)


@pytest.mark.parametrize("flags", [
    [], ["--mode", "fedavg"], ["--ablate", "no-quantization"],
], ids=["pfl", "fedavg", "no-quantization"])
def test_train_unquantizable_updates_are_skipped(workspace, tmp_path, caplog,
                                                 flags):
    # lr=1e300 gives updates beyond float32: beyond the range of the QUP1
    # scale, of the dense float32 vector and of the Top-K float32 values.
    out = tmp_path / "run"
    rc = cli.main(["train", "--partition", workspace["part"],
                   "--config", workspace["cfg"], *TINY_TRAIN, "--lr", "1e300",
                   "--batch-size", "100000", *flags, "-o", str(out)])
    assert rc == 0
    assert np.all(np.isfinite(np.load(out / "backbone.npz")["global_flat"]))
    _, rows = fed.read_roundlog(out / "roundlog.csv")
    assert all(np.isfinite(float(r["rmse_macro"])) for r in rows)
    # Nothing went up, and each of the 2 x 4 client-rounds is counted.
    assert float(rows[-1]["cum_uplink_mb"]) == 0.0
    skipped = [r for r in caplog.records if "client skipped" in r.getMessage()]
    assert sorted(r.args[0] for r in skipped) == [0] * 4 + [1] * 4


# command -> (its flags, the train flags of its largest run): a fedavg
# run, and a sweep whose second cell holds Top-K residuals.
_RUNS = {"train": (["--mode", "fedavg"], ["--mode", "fedavg"]),
         "sweep": (["--rho-grid", "1,0.5"], ["--rho", "0.5"])}


@pytest.mark.parametrize("command", _RUNS)
def test_run_that_cannot_fit_is_refused_before_it_allocates(
        workspace, tmp_path, monkeypatch, capsys, command):
    flags, largest = _RUNS[command]
    base = ["--partition", workspace["part"], "--config", workspace["cfg"],
            *TINY_TRAIN]
    cfg = cli.build_run_config(cli.build_parser().parse_args(
        ["train", *base, *largest]))
    need = fed.shared_bytes(dat.load_partition(workspace["part"]), cfg)
    # The memory figure is lowered; no large model is ever made.
    monkeypatch.setattr(cli, "_physical_memory", lambda: need - 1)
    monkeypatch.setattr(fed, "_shared", None)  # any allocation would raise
    out = tmp_path / "run"
    assert cli.main([command, *base, *flags, "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"need {need:,} bytes" in err and f"the {need - 1:,} bytes" in err
    for flag in ("--clients", "latent", "--rho"):
        assert flag in err
    assert not out.exists()
    monkeypatch.undo()
    monkeypatch.setattr(cli, "_physical_memory", lambda: need)
    assert cli.main([command, *base, *flags, "-o", str(out)]) == 0


def test_a_dead_worker_names_the_round_and_its_clients(workspace, tmp_path,
                                                       monkeypatch, capsys):
    # Client 2's worker ends outright in round 1, as the OOM killer would
    # end it: its first round trained it, so its Adam step is past 0.
    real = fed.local_train

    def train(state, *args, **kwargs):
        if state.client_id == 2 and state.adam.step > 0:
            os._exit(1)
        return real(state, *args, **kwargs)

    monkeypatch.setattr(fed, "_workers", lambda: 2)
    monkeypatch.setattr(fed, "local_train", train)
    rc = cli.main(["train", "--partition", workspace["part"], "--config",
                   workspace["cfg"], *TINY_TRAIN, "-o", str(tmp_path / "run")])
    assert rc == 3
    err = capsys.readouterr().err
    flight = re.search(r"round 1: the training of clients \[([\d, ]+)\]: "
                       r"a worker process ended abruptly", err)
    assert flight, err
    assert sorted(map(int, flight.group(1).split(","))) == [0, 1, 2, 3]
    assert multiprocessing.active_children() == []


# ---------------------------------------------------------------------------
# sweep and report
# ---------------------------------------------------------------------------

def test_sweep_single_cell(workspace, tmp_path, capsys):
    out = tmp_path / "sweep"
    rc = cli.main(["sweep", "--partition", workspace["part"],
                   "--config", workspace["cfg"], *TINY_TRAIN,
                   "--rho-grid", "0.05", "--period-grid", "1",
                   "--quant-grid", "on", "-o", str(out)])
    assert rc == 0
    pareto = (out / "pareto.csv").read_text().strip().split("\n")
    assert pareto[0] == "label,rmse_macro,uplink_mb,on_frontier"
    assert len(pareto) == 2  # a single cell is trivially on the frontier
    assert pareto[1].startswith("rho0.05_R1_qon,")
    assert pareto[1].endswith(",1")
    assert (out / "rho0.05_R1_qon" / "roundlog.csv").exists()


# A grid flag not given sweeps the run's own value.
@pytest.mark.parametrize("flags, label, settings", [
    (["--ablate", "no-quantization", "--rho-grid", "0.05"], "rho0.05_R1_qoff",
     {"quantization": "false", "sync_period": "1"}),
    (["--sync-period", "3", "--rho-grid", "0.05"], "rho0.05_R3_qon",
     {"sync_period": "3"}),
    (["--rho", "0.2"], "rho0.2_R1_qon", {"sparsity": "0.2"}),
], ids=["no-quantization", "sync-period", "rho"])
def test_sweep_grid_defaults_to_the_run_settings(workspace, tmp_path, flags,
                                                 label, settings):
    out = tmp_path / "sweep"
    rc = cli.main(["sweep", "--partition", workspace["part"],
                   "--config", workspace["cfg"], *TINY_TRAIN, *flags,
                   "-o", str(out)])
    assert rc == 0
    assert [p.name for p in out.iterdir() if p.is_dir()] == [label]
    manifest = dat.read_kv(out / label / "manifest.txt")
    assert {k: manifest[k] for k in settings} == settings


def test_sweep_no_topk_sends_what_train_sends(workspace, tmp_path):
    # The sweep's rho axis defaults to the run's sparsity, which
    # --ablate no-topk sets to 1: no Top-K in the one cell either.
    flags = ["--partition", workspace["part"], "--config", workspace["cfg"],
             *TINY_TRAIN, "--ablate", "no-topk"]
    assert cli.main(["sweep", *flags, "-o", str(tmp_path / "sweep")]) == 0
    assert cli.main(["train", *flags, "-o", str(tmp_path / "train")]) == 0
    cell = tmp_path / "sweep" / "rho1_R1_qon"
    assert [p for p in cell.parent.iterdir() if p.is_dir()] == [cell]
    assert dat.read_kv(cell / "manifest.txt")["sparsity"] == "1.0"
    sent = [fed.read_roundlog(run / "roundlog.csv")[1][-1]["cum_uplink_mb"]
            for run in (cell, tmp_path / "train")]
    assert sent[0] == sent[1] and float(sent[0]) > 0.0


def test_sweep_refuses_fedavg_before_reading_data(tmp_path, capsys):
    rc = cli.main(["sweep", "--partition", str(tmp_path / "none"),
                   "--mode", "fedavg", "-o", str(tmp_path / "r")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "usage error" in err and "--mode fedavg" in err
    assert not (tmp_path / "r").exists()



# Labels print each value with {:g} and quantization as on/off, so two
# values can share one; the defaults are rho 0.01, R 5 and quantization on.
@pytest.mark.parametrize("flag, grid, label", [
    ("--rho-grid", "0.01,0.01000001", "rho0.01_R5_qon"),
    ("--period-grid", "2,02", "rho0.01_R2_qon"),
    ("--quant-grid", "on,1", "rho0.01_R5_qon")], ids=["rho", "period", "quant"])
def test_sweep_refuses_cells_that_share_a_label(tmp_path, capsys, flag, grid,
                                                label):
    rc = cli.main(["sweep", "--partition", str(tmp_path / "none"), flag, grid,
                   "-o", str(tmp_path / "r")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "usage error" in err and f"run directory) {label}" in err
    assert not (tmp_path / "r").exists()

def test_written_tables_hold_no_numpy_scalar_reprs(workspace, tmp_path):
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--partition", workspace["part"],
                     "--config", workspace["cfg"], *TINY_TRAIN,
                     "--rho-grid", "0.05", "--period-grid", "1",
                     "-o", str(out)]) == 0
    for path in (out / "pareto.csv", out / "rho0.05_R1_qon" / "roundlog.csv",
                 os.path.join(workspace["part"], "client_000", "train.csv")):
        with open(path) as f:
            assert "np." not in f.read(), path


def test_report_table(workspace, tmp_path, capsys):
    run = tmp_path / "run"
    assert cli.main(["train", "--partition", workspace["part"],
                     "--config", workspace["cfg"], *TINY_TRAIN,
                     "-o", str(run)]) == 0
    csv_out = tmp_path / "summary.csv"
    capsys.readouterr()
    rc = cli.main(["report", str(run), "-o", str(csv_out)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "heavy" in out and "pfl" in out
    lines = csv_out.read_text().strip().split("\n")
    assert lines[0] == "scenario,mode,rmse_micro,rmse_macro,mae_macro,cum_uplink_mb"
    assert len(lines) == 2


def test_report_missing_column_is_data_error(tmp_path, capsys):
    run = tmp_path / "broken"
    run.mkdir()
    (run / "roundlog.csv").write_text(
        "round,scenario,mode,rmse_micro\n0,heavy,pfl,1.0\n")
    assert cli.main(["report", str(run)]) == 2
    assert "missing column" in capsys.readouterr().err


_LOG_HEADER = (b"round,scenario,mode,rmse_micro,rmse_macro,mae_macro,"
               b"cum_uplink_mb\n")


@pytest.mark.parametrize("text, what", [
    (_LOG_HEADER + b"0,heavy,pfl,1.0,abc,1.0,0.0\n", "line 2"),
    (_LOG_HEADER + b"0,heavy,pfl,1.0,1.0,1.0,0.0\n0,heavy,pfl\n",
     "line 3: 3 fields, expected 7"),
    (_LOG_HEADER + b"0,heavy,pfl,1.0,1.0,1.0,0.0\xe4\n", "not UTF-8"),
], ids=["non-numeric", "short-row", "non-utf8"])
def test_report_malformed_round_log_is_data_error(tmp_path, capsys, text,
                                                  what):
    run = tmp_path / "broken"
    run.mkdir()
    (run / "roundlog.csv").write_bytes(text)
    assert cli.main(["report", str(run)]) == 2
    err = capsys.readouterr().err
    assert "data error" in err and "roundlog.csv" in err and what in err


def test_report_no_runs_is_data_error(tmp_path):
    assert cli.main(["report", str(tmp_path / "none")]) == 2


# A real round log with one field or one line replaced by arbitrary text:
# report prints it, or exits 2, never 3.
@pytest.fixture(scope="module")
def roundlog(workspace, tmp_path_factory):
    run = tmp_path_factory.mktemp("fuzzlog")
    assert cli.main(["train", "--partition", workspace["part"],
                     "--config", workspace["cfg"], *TINY_TRAIN,
                     "-o", str(run)]) == 0
    return run, (run / "roundlog.csv").read_text().splitlines()


@given(data=st.data(), text=st.text(max_size=12), whole_line=st.booleans())
def test_report_on_a_mutated_round_log_exits_0_or_2(roundlog, data, text,
                                                    whole_line):
    run, lines = roundlog
    lines = list(lines)
    line = data.draw(st.integers(0, len(lines) - 1))
    if whole_line:
        lines[line] = text
    else:
        fields = lines[line].split(",")
        fields[data.draw(st.integers(0, len(fields) - 1))] = text
        lines[line] = ",".join(fields)
    (run / "roundlog.csv").write_text("\n".join(lines) + "\n",
                                      encoding="utf-8")
    assert cli.main(["report", str(run)]) in (0, 2)


# ---------------------------------------------------------------------------
# limits checked before training
# ---------------------------------------------------------------------------

@pytest.fixture
def wide_partition(workspace, monkeypatch):
    """The workspace partition, padded to 257 clients, with training made
    to fail the test if it ever starts."""
    part = dat.load_partition(workspace["part"])
    part.clients = [part.clients[i % len(part.clients)] for i in range(257)]
    monkeypatch.setattr(dat, "load_partition", lambda path: part)

    def no_training(*args, **kwargs):
        raise AssertionError("training started")

    monkeypatch.setattr(fed, "run_training", no_training)
    return part


@pytest.mark.parametrize("command", [
    ["train"],
    ["sweep", "--rho-grid", "0.05", "--quant-grid", "off,on"],
])
def test_too_many_pfl_clients_is_usage_error(workspace, wide_partition,
                                             tmp_path, capsys, command):
    rc = cli.main([*command, "--partition", workspace["part"],
                   "--config", workspace["cfg"], *TINY_TRAIN,
                   "-o", str(tmp_path / "r")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "usage error" in err and "257 clients" in err and "256" in err
    assert not (tmp_path / "r").exists()


def test_too_many_clients_allowed_without_quantized_upload(
        workspace, wide_partition, tmp_path):
    for flags in (["--mode", "fedavg"], ["--ablate", "no-quantization"]):
        with pytest.raises(AssertionError, match="training started"):
            cli.cmd_train(cli.build_parser().parse_args(
                ["train", "--partition", workspace["part"], *flags,
                 "-o", str(tmp_path / "r")]))


# ---------------------------------------------------------------------------
# malformed partition metadata
# ---------------------------------------------------------------------------

def _copy_partition(workspace, tmp_path):
    import shutil
    dst = tmp_path / "part"
    shutil.copytree(workspace["part"], dst)
    return dst


def _edit_kv(path, key, value=None):
    """Drop ``key`` from a key=value file, or set it to ``value``."""
    lines = [line for line in path.read_text().splitlines()
             if not line.startswith(f"{key}=")]
    if value is not None:
        lines.append(f"{key}={value}")
    path.write_text("\n".join(lines) + "\n")


def test_train_missing_stats_key_is_data_error(workspace, tmp_path, capsys):
    part = _copy_partition(workspace, tmp_path)
    _edit_kv(part / "client_001" / "stats.txt", "label_std")
    rc = cli.main(["train", "--partition", str(part),
                   "--config", workspace["cfg"], *TINY_TRAIN,
                   "-o", str(tmp_path / "r")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "data error" in err and "stats.txt" in err and "label_std" in err


def test_train_malformed_partition_value_is_data_error(workspace, tmp_path,
                                                       capsys):
    part = _copy_partition(workspace, tmp_path)
    _edit_kv(part / "partition.txt", "rows", "twelve")
    rc = cli.main(["train", "--partition", str(part),
                   "--config", workspace["cfg"], *TINY_TRAIN,
                   "-o", str(tmp_path / "r")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "partition.txt" in err and "rows" in err and "twelve" in err


def _edit_sample_row(path, line, edit):
    """Apply ``edit`` to the field list of 1-based ``line`` of a CSV."""
    lines = path.read_text().splitlines()
    lines[line - 1] = ",".join(edit(lines[line - 1].split(",")))
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("edit, what", [
    (lambda v: ["0x"] + v[1:], "non-numeric field"),
    (lambda v: v[:-1], "fields, expected"),
    (lambda v: v[:4] + ["nan"] + v[5:], "non-finite value"),
    (lambda v: v[:-1] + ["-inf"], "non-finite value"),
    (lambda v: ["1" + "0" * 400] + v[1:], "row outside [0, 2**32)"),
    (lambda v: v[:1] + ["99999999999999999999"] + v[2:],
     "col outside [0, 2**32)"),
    (lambda v: ["-5"] + v[1:], "row outside [0, 2**32)"),
], ids=["non-numeric", "short-row", "nan-feature", "inf-label", "huge-row",
        "col-beyond-u32", "negative-row"])
def test_train_malformed_sample_row_is_data_error(workspace, tmp_path, capsys,
                                                  edit, what):
    part = _copy_partition(workspace, tmp_path)
    _edit_sample_row(part / "client_000" / "train.csv", 3, edit)
    rc = cli.main(["train", "--partition", str(part),
                   "--config", workspace["cfg"], *TINY_TRAIN,
                   "-o", str(tmp_path / "r")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "data error" in err and "train.csv" in err
    assert "line 3" in err and what in err


@pytest.mark.parametrize("name", [
    "client_000/train.csv", "client_001/stats.txt", "partition.txt",
])
def test_train_non_utf8_partition_file_is_data_error(workspace, tmp_path,
                                                      capsys, name):
    part = _copy_partition(workspace, tmp_path)
    with open(part / name, "ab") as f:
        f.write(b"\xe4\xe4")
    rc = cli.main(["train", "--partition", str(part),
                   "--config", workspace["cfg"], *TINY_TRAIN,
                   "-o", str(tmp_path / "r")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "data error" in err and name.split("/")[-1] in err
    assert "not UTF-8" in err


@pytest.mark.parametrize("split", ["train", "test"])
def test_train_client_without_samples_is_data_error(workspace, tmp_path,
                                                    capsys, split):
    # export_partition leaves every client at least one sample of each.
    part = _copy_partition(workspace, tmp_path)
    path = part / "client_002" / f"{split}.csv"
    path.write_text(path.read_text().splitlines()[0] + "\n")
    rc = cli.main(["train", "--partition", str(part),
                   "--config", workspace["cfg"], *TINY_TRAIN,
                   "-o", str(tmp_path / "r")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "data error" in err and f"{split}.csv" in err
    assert "client_002" in err and "no samples" in err
