"""The benchmark's workloads: each is one closed batch federated run.

A workload fixes the map size, the client grid and the ``remfl train`` flags.
Map, partition and run seeds all derive from the workload seed.  Every
workload uses the ``heavy`` scenario and the CLI's data defaults (4 base
stations at random positions, 100 features, 10% neighbour mixing, 80/20
split).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    size: int            # map side in cells
    rows: int            # client grid
    cols: int
    train_flags: tuple   # ``remfl train`` flags, without --seed
    setups: int          # set-ups per run, half before training and half
                         # after it; setup_s is their median


DESK = ("--preset", "desk")

WORKLOADS = {w.name: w for w in [
    Workload(
        "desk-pfl",
        "README quick start: 64x64 heavy map, 3x4 clients, pfl; nn training "
        "dominates and Top-K runs on the 8 sync rounds",
        64, 3, 4, DESK + ("--mode", "pfl"), setups=20),
    Workload(
        "desk-fedavg",
        "same data, dense fedavg every round with no codec: exercises Adam, "
        "flatten/unflatten and dense aggregate; compression must not move it",
        64, 3, 4, DESK + ("--mode", "fedavg"), setups=20),
    Workload(
        "desk-pfl-every-round",
        "desk-pfl uploading every round from 6 sampled clients: Top-K, "
        "aggregate and EMA carry about half the time",
        64, 3, 4, DESK + ("--mode", "pfl", "--ablate", "no-periodic-sync",
                          "--fraction", "0.5"), setups=20),
    Workload(
        "paper-90c-partial",
        "non-desk defaults, 256x256 map, 90 clients, 10% sampled: data "
        "set-up is large and evaluating all 90 clients every round takes a "
        "fifth of training",
        256, 10, 9, ("--mode", "pfl", "--fraction", "0.1"), setups=4),
]}


def tiny(workload: Workload) -> Workload:
    """A seconds-long version of a workload, for the self-test."""
    flags = tuple(f for f in workload.train_flags if f not in DESK)
    return Workload(workload.name, workload.why, 32, 2, 2,
                    flags + ("--rounds", "3", "--epochs", "1",
                             "--sync-period", "2"), setups=2)
