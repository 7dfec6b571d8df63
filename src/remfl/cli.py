"""Operator entry point: gen-data, partition, train, sweep, report.

Exit codes: 0 success, 1 usage error, 2 data error, 3 runtime error.
Run configuration is a flat key=value file (see ``train --print-config``);
unknown keys are rejected.  Every run directory gets a manifest recording
the configuration and its hash, the worker count and the BLAS thread
setting it came from, and the python, numpy and scipy versions.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import logging
import math
import os
import platform
import sys

import numpy as np

from . import compression as comp
from . import data as dat
from . import federation as fed
from . import metrics as met

log = logging.getLogger("remfl")

EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_RUNTIME = 3

# --ablate name -> (config key, the value that switches the component off).
ABLATIONS = {
    "no-split-head": ("split_head", False),
    "no-periodic-sync": ("sync_period", 1),
    "no-topk": ("sparsity", 1.0),
    "no-quantization": ("quantization", False),
    "no-ema": ("ema_beta", 0.0),
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_bool(v: str) -> bool:
    low = v.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {v!r}")


# Config key -> parser of its value text, from RunConfig's field types (the
# strings "bool", "int", "float" and "str" under postponed annotations).
_FIELD_PARSERS = {"bool": _parse_bool, "int": int, "float": float, "str": str}
_CONFIG_PARSERS = {f.name: _FIELD_PARSERS[f.type]
                   for f in dataclasses.fields(fed.RunConfig)}
CONFIG_KEYS = set(_CONFIG_PARSERS)


def _parse_value(what, raw, parse):
    """``parse(raw)``, with a failure reported as a UsageError naming
    ``what``."""
    try:
        return parse(raw)
    except ValueError:
        raise UsageError(f"{what}: cannot parse {raw!r}")


def _check_flags(checks):
    """``checks`` holds (flag, value is in range, the range in words); the
    first value out of range is a UsageError naming its flag."""
    for flag, ok, need in checks:
        if not ok:
            raise UsageError(f"{flag} must be {need}")


def load_config_file(path) -> dict:
    try:
        raw = dat.read_kv(path)
    except dat.IngestionError as exc:  # not UTF-8
        raise UsageError(str(exc))
    unknown = sorted(set(raw) - CONFIG_KEYS)
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(unknown)}")
    return {k: _parse_value(k, v, _CONFIG_PARSERS[k]) for k, v in raw.items()}


def config_items(cfg: fed.RunConfig):
    for f in dataclasses.fields(cfg):
        v = getattr(cfg, f.name)
        if isinstance(v, bool):
            v = "true" if v else "false"
        yield f.name, v


def write_manifest(cfg: fed.RunConfig, path, extra=()):
    items = list(config_items(cfg))
    text = "\n".join(f"{k}={v}" for k, v in items)
    digest = hashlib.sha256(text.encode()).hexdigest()
    dat.write_kv(path, [*extra, *items, ("config_sha256", digest)])


# ---------------------------------------------------------------------------
# gen-data
# ---------------------------------------------------------------------------

def cmd_gen_data(args) -> int:
    if args.size is None:
        size = 64 if args.preset == "desk" else 256
    else:
        size = args.size
    _check_flags([
        ("--size", size >= 1, ">= 1"),
        ("--seed", args.seed >= 0, ">= 0"),
        ("--bs", args.bs >= 1, ">= 1"),
        ("--features", 0 <= args.features <= dat.FILLED_FEATURES,
         f"in [0, {dat.FILLED_FEATURES}]: only {dat.FILLED_FEATURES} "
         f"feature layers carry signal"),
        ("--shadowing", 0.0 <= args.shadowing < math.inf,
         "finite and >= 0"),
        ("--obstacle-density", 0.0 <= args.obstacle_density <= 1.0,
         "in [0, 1]"),
        ("--path-loss-exp", math.isfinite(args.path_loss_exp), "finite"),
    ])
    tx = None
    if args.tx:
        tx = [tuple(_parse_value("--tx", v, float) for v in spec.split(","))
              for spec in args.tx]
        inside = all(len(p) == 2 and all(0.0 <= v <= size - 1 for v in p)
                     for p in tx)  # NaN fails every comparison
        _check_flags([("--tx", len(tx) == args.bs and inside, f"given --bs "
                       f"({args.bs}) times, as 'row,col' in [0, {size - 1}]")])
    cfg = dat.SyntheticMapConfig(
        seed=args.seed, width=size, height=size, n_bs=args.bs,
        n_features=args.features, tx_positions=tx,
        obstacle_density=args.obstacle_density,
        shadowing_db=args.shadowing, path_loss_exp=args.path_loss_exp)
    grid = dat.generate_synthetic_map(cfg)
    dat.save_grid(grid, args.out)
    if args.csv:
        dat.save_grid_csv(grid, args.csv)
    print(f"wrote {args.out}: {grid.width}x{grid.height}, "
          f"M={grid.n_bs}, P={grid.n_features}")
    return 0


# ---------------------------------------------------------------------------
# partition
# ---------------------------------------------------------------------------

def _parse_clients(spec: str):
    r, _, c = spec.lower().partition("x")
    try:
        rows, cols = int(r), int(c)
    except ValueError:
        raise UsageError(f"bad --clients value {spec!r}, expected RxC")
    if rows < 1 or cols < 1:
        raise UsageError("client grid dimensions must be positive")
    return rows, cols


def cmd_partition(args) -> int:
    clients = args.clients or ("3x4" if args.preset == "desk" else "10x9")
    rows, cols = _parse_clients(clients)
    _check_flags([
        ("--seed", args.seed >= 0, ">= 0"),
        ("--mix", 0.0 <= args.mix <= 1.0, "in [0, 1]"),
        ("--train-frac", 0.0 < args.train_frac < 1.0, "in (0, 1)"),
    ])
    grid = dat.load_grid(args.map)
    field = dat.heterogeneity(grid)
    part = dat.grid_partition(grid, field, args.scenario, rows=rows,
                              cols=cols, neighbor_mix=args.mix,
                              seed=args.seed, train_frac=args.train_frac)
    dat.export_partition(part, args.out)
    total = sum(c.n_train + c.n_test for c in part.clients)
    print(f"wrote {args.out}: scenario={args.scenario}, "
          f"clients={len(part.clients)}, samples={total}")
    return 0


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def build_run_config(args) -> fed.RunConfig:
    values = {}
    if args.config:
        values.update(load_config_file(args.config))
    if args.preset == "desk":
        values.setdefault("local_epochs", 1)
    # Each run flag stores its value under its config key.
    values.update({k: v for k, v in vars(args).items()
                   if k in CONFIG_KEYS and v is not None})
    for name in args.ablate or []:
        if name not in ABLATIONS:
            raise UsageError(
                f"unknown ablation {name!r}; choose from {sorted(ABLATIONS)}")
        key, val = ABLATIONS[name]
        values[key] = val
    try:
        return fed.RunConfig(**values)
    except ValueError as exc:
        raise UsageError(str(exc))


def _save_models(result: fed.RunResult, outdir):
    np.savez(os.path.join(outdir, "backbone.npz"),
             global_flat=result.global_flat)
    heads = {f"head_{i:03d}": h for i, h in enumerate(result.heads)}
    np.savez(os.path.join(outdir, "heads.npz"), **heads)


def _check_client_ids(partition, cfgs):
    """A quantized upload carries its client id in one byte (QUP1), so
    refuse a run that quantizes on a larger partition before it trains."""
    limit = comp.MAX_CLIENT_ID + 1
    if len(partition.clients) > limit and any(c.quantization for c in cfgs):
        raise UsageError(
            f"{len(partition.clients)} clients, but a quantized upload "
            f"identifies at most {limit} (one-byte client id); use a "
            f"smaller client grid, --mode fedavg or --ablate no-quantization")


def _physical_memory():
    """Bytes of physical memory, or None where the platform does not say."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None


def _check_memory(partition, cfgs):
    """Refuse, before anything is allocated, runs whose shared client state
    (``federation.shared_bytes``) exceeds physical memory."""
    limit = _physical_memory()
    need = max(fed.shared_bytes(partition, cfg) for cfg in cfgs)
    if limit is not None and need > limit:
        raise UsageError(
            f"{len(partition.clients)} clients need {need:,} bytes of shared "
            f"client state, more than the {limit:,} bytes of physical memory; "
            f"it grows with the client grid (partition --clients), the model "
            f"(hidden1, hidden2, latent and head_hidden in --config) and the "
            f"residuals of --rho below 1")


def _installed_version(package):
    """The installed version of ``package``, read without importing it, or
    ``absent``: remfl runs on numpy alone."""
    import importlib.metadata  # about 13 ms; only a manifest needs it
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return "absent"


def _run_and_export(partition, cfg, outdir, scenario):
    os.makedirs(outdir, exist_ok=True)
    result = fed.run_training(partition, cfg)
    fed.write_roundlog(result, scenario, os.path.join(outdir, "roundlog.csv"))
    blas = fed.blas_threads()
    write_manifest(cfg, os.path.join(outdir, "manifest.txt"), extra=[
        ("scenario", scenario), ("workers", result.workers),
        ("blas_threads", "unset" if blas is None else "%s=%d" % blas),
        ("python", platform.python_version()), ("numpy", np.__version__),
        ("scipy", _installed_version("scipy"))])
    _save_models(result, outdir)
    return result


def cmd_train(args) -> int:
    cfg = build_run_config(args)
    if args.print_config:
        for k, v in config_items(cfg):
            print(f"{k}={v}")
        return 0
    if not args.partition or not args.out:
        raise UsageError("train requires --partition and -o")
    partition = dat.load_partition(args.partition)
    _check_client_ids(partition, [cfg])
    _check_memory(partition, [cfg])
    result = _run_and_export(partition, cfg, args.out, partition.scenario)
    final = result.final.bundle
    print(f"mode={cfg.mode} scenario={partition.scenario} "
          f"rounds={cfg.rounds}")
    print(f"rmse_micro={final.rmse_micro:.4f} rmse_macro={final.rmse_macro:.4f} "
          f"mae_macro={final.mae_macro:.4f} "
          f"cum_uplink_mb={result.final.cum_bytes / 1e6:.4f}")
    return 0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _sweep_axis(flag, text, parse, cfg0, key):
    """Each comma-separated value of one sweep flag, checked as config ``key``
    (a bad one is a UsageError naming the flag); unset, the run's own value."""
    if text is None:
        return [getattr(cfg0, key)]
    values = [_parse_value(flag, v, parse) for v in text.split(",")]
    for v in values:
        try:
            dataclasses.replace(cfg0, **{key: v})
        except ValueError as exc:
            raise UsageError(f"{flag}: {exc}")
    return values


def cmd_sweep(args) -> int:
    cfg0 = build_run_config(args)
    if cfg0.mode == "fedavg":
        raise UsageError("sweep: --mode fedavg fixes what the grid varies")
    if not args.partition or not args.out:
        raise UsageError("sweep requires --partition and -o")
    rhos = _sweep_axis("--rho-grid", args.rho_grid, float, cfg0, "sparsity")
    periods = _sweep_axis("--period-grid", args.period_grid, int, cfg0,
                          "sync_period")
    quants = _sweep_axis("--quant-grid", args.quant_grid, _parse_bool, cfg0,
                         "quantization")
    cells = [(f"rho{rho:g}_R{period}_q{'on' if quant else 'off'}",
              dataclasses.replace(cfg0, sparsity=rho, sync_period=period,
                                  quantization=quant))
             for rho in rhos for period in periods for quant in quants]
    labels = [label for label, _ in cells]
    for label in labels:
        if labels.count(label) > 1:
            raise UsageError(f"sweep: two grid cells share the label (and "
                             f"run directory) {label}")
    partition = dat.load_partition(args.partition)
    _check_client_ids(partition, [cfg for _, cfg in cells])
    _check_memory(partition, [cfg for _, cfg in cells])
    os.makedirs(args.out, exist_ok=True)
    points = []
    for label, cfg in cells:
        try:
            result = _run_and_export(partition, cfg,
                                     os.path.join(args.out, label),
                                     partition.scenario)
        except Exception as exc:  # keep sweeping past bad cells
            log.warning("sweep cell %s failed: %s", label, exc)
            continue
        points.append(met.ParetoPoint(label, result.final.bundle.rmse_macro,
                                      result.final.cum_bytes / 1e6))
        print(f"{label}: rmse_macro={points[-1].rmse_macro:.4f} "
              f"mb={points[-1].uplink_mb:.4f}")
    if not points:
        raise RuntimeError("every sweep cell failed")
    met.write_pareto_csv(points, os.path.join(args.out, "pareto.csv"))
    print(f"wrote {os.path.join(args.out, 'pareto.csv')} "
          f"({len(points)} points)")
    return 0


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

_REPORT_COLS = ["rmse_micro", "rmse_macro", "mae_macro", "cum_uplink_mb"]


def cmd_report(args) -> int:
    rows = []
    for rundir in args.runs:
        logpath = os.path.join(rundir, "roundlog.csv")
        try:
            header, entries = fed.read_roundlog(logpath)
        except OSError as exc:
            log.warning("skipping %s: %s", rundir, exc)
            continue
        if not entries:
            log.warning("skipping %s: empty round log", rundir)
            continue
        for col in ("scenario", "mode", *_REPORT_COLS):
            if col not in header:
                raise dat.IngestionError(
                    f"{logpath}: missing column {col!r}")
        last = entries[-1]
        rows.append({
            "scenario": last["scenario"], "mode": last["mode"],
            **{c: float(last[c]) for c in _REPORT_COLS}})
    if not rows:
        raise dat.IngestionError("no readable run directories")
    rows.sort(key=lambda r: (r["scenario"], r["mode"]))
    header = ["scenario", "mode"] + _REPORT_COLS
    fmt = "{:<8} {:<8} {:>12} {:>12} {:>12} {:>14}"
    print(fmt.format(*header))
    for r in rows:
        print(fmt.format(r["scenario"], r["mode"],
                         *(f"{r[c]:.4f}" for c in _REPORT_COLS)))
    if args.out:
        dat.write_csv(args.out, header, (
            [r["scenario"], r["mode"], *(repr(r[c]) for c in _REPORT_COLS)]
            for r in rows))
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_train_flags(p):
    p.add_argument("--partition", help="partition directory")
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--mode", choices=["pfl", "epfl", "fedavg"])
    p.add_argument("--rounds", type=int)
    p.add_argument("--epochs", type=int, dest="local_epochs")
    p.add_argument("--sync-period", type=int, dest="sync_period")
    p.add_argument("--rho", type=float, dest="sparsity")
    p.add_argument("--fraction", type=float, dest="client_fraction")
    p.add_argument("--lr", type=float)
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--head", choices=["single", "two-layer"])
    p.add_argument("--seed", type=int)
    p.add_argument("--ablate", action="append",
                   help="disable a component: " + ", ".join(sorted(ABLATIONS)))
    p.add_argument("--preset", choices=["desk"])
    p.add_argument("-o", "--out", help="run directory")


def build_parser() -> _Parser:
    parser = _Parser(prog="remfl",
                     description="Federated radio-map training harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic radio map")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--size", type=int, help="square grid side (default 256)")
    p.add_argument("--bs", type=int, default=4, help="number of base stations")
    p.add_argument("--features", type=int, default=dat.FILLED_FEATURES)
    p.add_argument("--obstacle-density", type=float, default=0.05)
    p.add_argument("--shadowing", type=float, default=6.0)
    p.add_argument("--path-loss-exp", type=float, default=3.0)
    p.add_argument("--tx", action="append", help="transmitter 'row,col'")
    p.add_argument("--preset", choices=["desk"])
    p.add_argument("--csv", help="also write the debug CSV form")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("partition", help="build a Non-IID client partition")
    p.add_argument("map", help="REMG1 grid file")
    p.add_argument("--scenario", required=True,
                   choices=list(dat.SCENARIOS))
    p.add_argument("--clients", help="client grid RxC (default 10x9)")
    p.add_argument("--mix", type=float, default=0.1,
                   help="neighbor-mix fraction")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--train-frac", type=float, default=0.8)
    p.add_argument("--preset", choices=["desk"])
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("train", help="run one federated training")
    _add_train_flags(p)
    p.add_argument("--print-config", action="store_true",
                   help="print the effective config and exit")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sweep", help="grid sweep emitting a Pareto CSV")
    _add_train_flags(p)
    p.add_argument("--rho-grid", help="sparsities, comma-separated")
    p.add_argument("--period-grid", help="sync periods, comma-separated")
    p.add_argument("--quant-grid", help="quantization on/off, comma-separated")
    p.set_defaults(func=cmd_sweep, print_config=False)

    p = sub.add_parser("report", help="summarize completed runs")
    p.add_argument("runs", nargs="+", help="run directories")
    p.add_argument("-o", "--out", help="write the table as CSV")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    # Path errors, not every OSError: mmap raises one when memory runs out.
    except (dat.IngestionError, dat.ConfigError, dat.DegenerateClientError,
            FileNotFoundError, IsADirectoryError, NotADirectoryError,
            PermissionError, FileExistsError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # pragma: no cover - defensive
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
