"""Every name the benchmark's tracer wraps, and every remfl function and
config field the benchmark's code uses, resolves: a rename or deletion fails
here in well under a second, not only in the minutes-long benchmark
self-test.  The package root exports nothing but ``__version__``.  The
README's config keys, ``--ablate`` table and partition metadata keys match
the code's.  No module imports scipy, and importing the CLI loads none of
it: remfl runs on numpy alone (``scipy.ndimage`` alone would add about
21 MB to every process, the forked workers included).  No module parses
text with numpy's ``loadtxt``, ``genfromtxt`` or ``fromstring``."""

import ast
import os
import re
import subprocess
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


def test_the_package_root_exports_only_its_version():
    # Callers import the modules (``from remfl import data``); the root
    # re-exports nothing, so no name has two homes.
    exports = [name for name, value in vars(remfl).items()
               if not name.startswith("_")
               and not isinstance(value, types.ModuleType)]
    assert exports == []
    assert isinstance(remfl.__version__, str)


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


def test_no_module_imports_a_scipy_submodule():
    # The manifest reads scipy's version from its package metadata.
    found = []
    for path in sorted((ROOT / "src" / "remfl").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{a.name}" for a in node.names]
            else:
                continue
            found += [(path.name, name) for name in names
                      if name.split(".")[0] == "scipy"]
    assert found == []


def _used_names(path):
    """Every attribute name and imported name in a module's source."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]


def test_no_module_parses_text_with_numpy():
    # Sample tables are read with Python's int and float, not with numpy's
    # text parsers: np.loadtxt once segfaulted on fuzzed input.
    banned = {"loadtxt", "genfromtxt", "fromstring"}
    found = [(path.name, name)
             for path in sorted((ROOT / "src" / "remfl").glob("*.py"))
             for name in _used_names(path) if name in banned]
    assert found == []


def test_importing_the_cli_loads_no_scipy_submodule():
    code = ("import sys, remfl.cli; print(*[m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')])")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True)
    assert proc.stdout.split() == []
