"""Metamorphic relations: changes to a run's input that must leave its report as it is.

Each relation is one function from an input to its follow-up input; the
test runs ``compare`` on both and asks for equal scored cells.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from pdmpipe import compare, inject_missing, inject_outliers, make_config, simulate

# the entries of the ``seeds_small`` benchmark workload: one scheduled fault a
# cycle, a blanket, a single-sensor dropout and two outliers on cycles 3 to 7
SCHEDULE = [[1, "needle"], [2, "door"], [3, "heating_temp"], [4, "needle"],
            [5, "sample"], [6, "angle"], [7, "needle"], [8, "heating_pressure"],
            [9, "door"], [10, "needle"]]
MISSING = {
    "non_use": True,
    "blanket": [{"cycle": 3, "start_minute": 1500, "minutes": 180}],
    "dropout": [{"cycle": 5, "channel": "temp_external_a",
                 "start_minute": 200, "minutes": 120}],
}
OUTLIERS = [
    {"cycle": 4, "channel": "pressure_internal_b", "minute": 1900,
     "kind": "FalseSpike", "delta": 500.0},
    {"cycle": 7, "channel": "temp_external_c", "minute": 400,
     "kind": "TrueIrrelevant", "delta": 60.0},
]
MODELS = {
    "forest": [{"trees": 10, "max_depth": 6}],
    "gbdt": [{"iterations": 20, "learning_rate": 0.2, "max_depth": 3}],
    "svm": [{"reg": 0.001}],
}


def small_config():
    return make_config(11, sim={"cycles": 10, "schedule": SCHEDULE, "logging_probability": 1.0},
                       missing=MISSING, outliers=OUTLIERS, models=MODELS,
                       horizons_minutes=[180, 720])


def cells(config, kb) -> dict:
    frame, gt = simulate(config.sim, kb)
    frame, gt = inject_missing(frame, gt, config.missing)
    frame, gt = inject_outliers(frame, gt, config.outliers)
    reports = compare(frame, gt, kb, config)["reports"]
    return {name: report.cells for name, report in reports.items()}


def time_shifted(config):
    """The same plant started 7 days and 13 minutes later."""
    start = np.datetime64(config.sim.start, "s") + np.timedelta64(7 * 1440 + 13, "m")
    return dataclasses.replace(config, sim=dataclasses.replace(config.sim, start=str(start)))


def test_time_shift_keeps_every_cell(kb):
    config = small_config()
    got = cells(config, kb)
    # a relation that holds on an all-zero report shows nothing
    assert any(cell.test.f1 > 0 for name in ("s1", "s2") for cell in got[name])
    assert cells(time_shifted(config), kb) == got
