"""Every name the benchmark's tracer wraps, and every name the package
exports, resolves: a rename or deletion fails here in well under a second,
not only in the minutes-long benchmark self-test."""

import importlib
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

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import spans  # noqa: E402

MODULES = {"data": dat, "nn": nn, "compression": comp, "federation": fed,
           "metrics": met, "cli": cli}


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
