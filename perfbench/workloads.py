"""Benchmark workloads: inputs made from the workload seed, and the CLI commands run on them.

Every workload is a list of ``pdm`` commands (argument lists for
``pdmpipe.cli.main``) that one fresh interpreter runs in order. Each
command writes into its own output directory, ``cmd<i>`` under the
execution directory, so every output file belongs to exactly one command.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from typing import Callable

import yaml

DEFAULT_CONFIG = os.path.join("configs", "default.yaml")

# What `pdm compare --config configs/default.yaml` writes at the commit that
# introduced this benchmark (the ROADMAP byte contract). Recorded next to every
# reference result; a mismatch is reported, not failed, because a change may
# declare new output bytes.
REFERENCE_DIGESTS = {
    "baseline_cells.csv": "7bc05fae96cd0e62a032dd7a429e2f4a730a1ec1be785d11c8c486b445fc2b29",
    "baseline_report.json": "21372a1309767d1572ea9339d1499d45db266fb00d9ffd4a0936a72665119644",
    "comparison.csv": "1ae6a1e7cfd3c300827c9932f2f5df4125238734bda956d5a1bec5df3cff1520",
    "comparison.json": "17ca23a3250b37322b5be99be194fec15410084932df809f1affcd85ad25b874",
    "s1_cells.csv": "3e3665847fae8a33279657f7cd40f791724360f57ea7c91dccf78526bb160cb0",
    "s1_report.json": "60e2c4638b4a81fd3fecca3f89aa4ed1135decbfcacf5581c426d14034bd5cd1",
    "s2_cells.csv": "365cd64f57bcc6bf4e0c10a704d6e6c7f6781150850641c9228c0f3cde3167b5",
    "s2_report.json": "17ce7078d4e718883a8f4c2dfc7abb78f4d0e6c2edfcf407ab62e4ce83df7b4b",
}
REFERENCE_HEADLINE = (
    "baseline: rules at 0 min, F1 1.000, accuracy 1.000",
    "s1: gbdt at 180 min, F1 0.526, accuracy 0.979",
    "s2: forest at 1440 min, F1 1.000, accuracy 1.000",
)

# The default missing/outlier scenario names cycles 7-31, which a 10-cycle
# run does not have (inject_missing and inject_outliers raise "absent
# cycle"). The small runs use the same kinds of entries on cycles 3-7. The
# default's TruePrecursorRelevant point is dropped: it is placed 30 minutes
# before a needle onset that exists only at the reference seed.
SMALL_MISSING = {
    "non_use": True,
    "blanket": [{"cycle": 3, "start_minute": 1500, "minutes": 180}],
    "dropout": [{"cycle": 5, "channel": "temp_external_a",
                 "start_minute": 200, "minutes": 120}],
}
# One scheduled fault per cycle (about the default injection rate), every
# fault logged: the fit work then depends little on the seed. With random
# injection and 25% logging, whether s1 trains on any positive at all is a
# coin flip per seed, and the tree node counts, and so the fit time, of a
# 10-cycle compare differ by a factor of two or more between seeds.
SMALL_SCHEDULE = [[1, "needle"], [2, "door"], [3, "heating_temp"], [4, "needle"],
                  [5, "sample"], [6, "angle"], [7, "needle"], [8, "heating_pressure"],
                  [9, "door"], [10, "needle"]]
SMALL_OUTLIERS = [
    {"cycle": 4, "channel": "pressure_internal_b", "minute": 1900,
     "kind": "FalseSpike", "delta": 500.0},
    {"cycle": 7, "channel": "temp_external_c", "minute": 400,
     "kind": "TrueIrrelevant", "delta": 60.0},
]


def derive_seed(workload: str, seed: int, index: int = 0) -> int:
    """A simulator seed from the workload seed; the same arguments give the same seed."""
    digest = hashlib.sha256(f"{workload}:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big") % (2 ** 31)


def _default_doc(root: str) -> dict:
    with open(os.path.join(root, DEFAULT_CONFIG)) as fh:
        return yaml.safe_load(fh)


def _write_config(doc: dict, path: str) -> str:
    with open(path, "w") as fh:
        yaml.safe_dump(doc, fh, sort_keys=True)
    return path


def _reference(root: str, seed: int, inputs: str):
    # the contract run reads the repository's configuration as it is; the
    # workload seed changes nothing
    config = os.path.join(root, DEFAULT_CONFIG)
    return [["compare", "--config", config]]


def _curate_long(root: str, seed: int, inputs: str):
    doc = _default_doc(root)
    doc["seed"] = derive_seed("curate_long", seed)
    # 320,100 raw rows, twice the reference run
    doc["sim"]["cycles"] = 110
    config = _write_config(doc, os.path.join(inputs, "curate_long.yaml"))
    return [["simulate", "--config", config],
            ["preprocess", "--config", config, "--scenario", "s1"],
            ["preprocess", "--config", config, "--scenario", "s2"]]


def _seeds_small(root: str, seed: int, inputs: str):
    commands = []
    for i in range(3):
        doc = _default_doc(root)
        doc["seed"] = derive_seed("seeds_small", seed, i)
        doc["sim"].update(cycles=10, schedule=SMALL_SCHEDULE, logging_probability=1.0)
        doc["missing"] = SMALL_MISSING
        doc["outliers"] = SMALL_OUTLIERS
        config = _write_config(doc, os.path.join(inputs, f"seeds_small_{i}.yaml"))
        commands.append(["compare", "--config", config])
    return commands


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable   # (root, seed, inputs_dir) -> list of CLI argument lists


WORKLOADS = {w.name: w for w in (
    Workload(
        "reference",
        "the ROADMAP contract run, compare on configs/default.yaml; model fits "
        "are about three quarters of it, so the model layer shows here",
        _reference),
    Workload(
        "curate_long",
        "simulate and preprocess s1 and s2 on 110 cycles, no model fits: "
        "curation, simulator and CSV output carry it, so a model change "
        "predicts no movement",
        _curate_long),
    Workload(
        "seeds_small",
        "three compare runs in one process on 10-cycle configs: per-fit and "
        "per-run fixed costs (Python overhead, pools, caches, imports) outweigh "
        "row counts here",
        _seeds_small),
)}
