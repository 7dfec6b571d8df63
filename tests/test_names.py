"""Every name the benchmark's tracer wraps, every remfl function and config
field the benchmark's code uses, and every name the package exports,
resolves: a rename or deletion fails here in well under a second, not only
in the minutes-long benchmark self-test.  The README's config keys,
``--ablate`` table and partition metadata keys match the code's."""

import ast
import importlib
import re
import sys
import types
from pathlib import Path

import remfl
from remfl import cli
from remfl import compression as comp
from remfl import data as dat
from remfl import federation as fed
from remfl import metrics as met
from remfl import nn

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import spans  # noqa: E402

MODULES = {"data": dat, "nn": nn, "compression": comp, "federation": fed,
           "metrics": met, "cli": cli}
# The names the benchmark's code imports remfl's modules under.
PERFBENCH_ALIASES = {"cli": cli, "fed": fed, "dat": dat, "nn": nn,
                     "comp": comp, "met": met}


def _perfbench_attributes(names):
    """(file, name, attribute) for every ``name.attribute`` in the
    benchmark's code whose ``name`` is one of ``names``."""
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id in names:
                yield path.name, node.value.id, node.attr


def test_every_traced_name_resolves():
    targets = spans.layer_targets(MODULES)
    missing = [name for name, module, attr in targets
               if not callable(getattr(module, attr, None))]
    assert not missing
    assert spans.ROOT_SPAN in {name for name, _, _ in targets}


def test_every_package_export_resolves():
    exports = {name: value for name, value in vars(remfl).items()
               if not name.startswith("_")
               and not isinstance(value, types.ModuleType)}
    assert exports
    for name, value in exports.items():
        home = importlib.import_module(value.__module__)
        assert getattr(home, name) is value, name


def test_every_remfl_name_the_benchmark_uses_resolves():
    used = list(_perfbench_attributes(PERFBENCH_ALIASES))
    assert used
    missing = [u for u in used if not hasattr(PERFBENCH_ALIASES[u[1]], u[2])]
    assert not missing


def test_every_config_name_the_benchmark_reads_exists():
    used = list(_perfbench_attributes({"cfg"}))
    assert used
    cfg = fed.RunConfig()
    assert not [u for u in used if not hasattr(cfg, u[2])]


def test_readme_lists_the_config_keys_and_ablations():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    keys = re.search(r"the fields of `RunConfig`:(.*?)\.\s", readme, re.S)
    assert sorted(re.findall(r"`(\w+)`", keys.group(1))) \
        == sorted(cli.CONFIG_KEYS)
    table = dict(re.findall(r"^\s*\| `(no-[\w-]+)` \| `([^`]+)`", readme,
                            re.M))
    assert table == {name: f"{key}={str(value).lower()}"
                     for name, (key, value) in cli.ABLATIONS.items()}


def test_readme_lists_the_partition_keys(small_partition, tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    formats = readme.split("## File formats")[1].split("\n## ")[0]
    dat.export_partition(small_partition, tmp_path)
    for name, path in (("partition.txt", tmp_path / "partition.txt"),
                       ("stats.txt", tmp_path / "client_000" / "stats.txt")):
        keys = re.search(rf"`{name}` holds\s(.*?):", formats, re.S)
        assert re.findall(r"`(\w+)`", keys.group(1)) == list(dat.read_kv(path))


def test_count_hooks_read_the_calls_the_program_makes(small_partition,
                                                      tmp_path, monkeypatch):
    # The benchmark's counts come from hooks on the traced calls' arguments
    # and results; a changed signature would break only traced runs.
    tracer = spans.Tracer([(name, MODULES[name.split(".")[0]],
                            name.split(".")[1]) for name in spans.COUNT_HOOKS])
    cfg = fed.RunConfig(rounds=1, sync_period=1, local_epochs=1, hidden1=8,
                        hidden2=8, latent=16, head_hidden=4, seed=1)
    monkeypatch.setattr(fed, "_workers", lambda: 1)  # count in this process
    tracer.install()
    try:
        dat.export_partition(small_partition, tmp_path)
        res = fed.run_training(small_partition, cfg)
    finally:
        tracer.uninstall()
    counts = tracer.counts[""]
    clients = small_partition.clients
    steps = sum(-(-c.n_train // cfg.batch_size) for c in clients)
    assert counts["nn.rows_forwarded"] == sum(
        c.n_train + (cfg.rounds + 1) * c.n_test for c in clients)
    assert counts["nn.params_updated"] == steps * (
        nn.backbone_size(res.dims) + nn.head_size(res.dims))
    assert counts["compression.payloads"] == res.final.n_payloads \
        == len(clients)
    assert counts["compression.nnz"] == res.final.nnz_total
    assert counts["compression.uplink_bytes"] == res.final.cum_bytes \
        == 21 * len(clients) + 5 * res.final.nnz_total
    assert counts["data.partition_bytes"] == sum(
        p.stat().st_size for p in tmp_path.rglob("*") if p.is_file())
