"""The part plan of forked work: one part per CPU, each at least the minimum
its caller sets, or else one part; the table writer and the forest fit cut
their parts with it, and the simulator and the spike screen fork nothing."""

from __future__ import annotations

import os

import numpy as np
import pytest

from pdmpipe import SimConfig, _fork, cleaning, default_kb, models, simulate, timeseries
from pdmpipe._fork import _bounds
from pdmpipe.models import ForestParams, fit_forest
from helpers import assert_no_child, count_forks


def oracle_part_starts(n, cpus):
    """The table writer's row bounds for ``n`` rows, as it cut them itself."""
    blocks = -(-n // timeseries._BLOCK_ROWS)
    parts = max(1, min(cpus, blocks // timeseries._PART_BLOCKS))
    return [k * blocks // parts * timeseries._BLOCK_ROWS for k in range(parts)] + [n]


def oracle_tree_parts(trees, n, cpus):
    """The forest fit's tree bounds on ``n`` rows, as it cut them itself."""
    least = -(-models._PART_ROWS // n)
    parts = max(1, min(cpus, trees // least))
    return [k * trees // parts for k in range(parts + 1)]


class Planned(Exception):
    """Raised in place of starting the children; carries the caller's bounds."""


def planned_bounds(module, monkeypatch, run):
    """The bounds ``run`` hands to ``module``'s ``_children`` (``_fork``'s for
    work gathered by ``_fork._gather``); no child starts."""
    def plan(bounds, what, work, folder=None):
        raise Planned(bounds)

    monkeypatch.setattr(module, "_children", plan)
    with pytest.raises(Planned) as planned:
        run()
    return planned.value.args[0]


def test_parts_are_cut_at_blocks(monkeypatch):
    monkeypatch.setattr(_fork, "_cpus", lambda: 3)
    assert _bounds(0, 4) == [0, 0]
    assert _bounds(4, 4) == [0, 4]
    assert _bounds(9, 4) == [0, 4, 9]
    assert _bounds(626, 4) == [0, 208, 417, 626]
    # the tables of the table writer's forced-parts test, in 7-row blocks
    for parts in (1, 2, 3, 4):
        monkeypatch.setattr(_fork, "_cpus", lambda parts=parts: parts)
        for offset in (-1, 0, 1, 250):
            n = 7 * timeseries._PART_BLOCKS * parts + offset
            assert len(_bounds(-(-n // 7), timeseries._PART_BLOCKS)) == parts + 1


def test_parts_hold_the_minimum_rows(monkeypatch):
    monkeypatch.setattr(_fork, "_cpus", lambda: 3)
    assert _bounds(60, 12) == [0, 20, 40, 60]
    assert _bounds(60, 64) == [0, 60]
    assert _bounds(2, 1) == [0, 1, 2]
    assert _bounds(5, 2) == [0, 2, 5]
    assert _bounds(3, 2) == [0, 3]
    assert _bounds(1, 1) == [0, 1]
    monkeypatch.setattr(_fork, "_cpus", lambda: 1)
    assert _bounds(60, 12) == [0, 60]


def test_no_fork_writes_in_one_part(monkeypatch):
    monkeypatch.delattr(os, "fork")
    assert _fork._cpus() == 1
    assert _bounds(626, 4) == [0, 626]


def test_cpus_are_the_affinity_mask(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
    assert _fork._cpus() == 2


def test_callers_cut_their_parts_as_before(tmp_path, monkeypatch):
    rows = (0, 1, 511, 2047, 2048, 2049, 8 * 512 + 1, 9000, 12 * 512, 320100)
    shapes = [(trees, n) for trees in (1, 2, 3, 5, 12, 60)
              for n in (2, 473, 2500, 2633, 6000, 15_001)]
    table_parts, forest_parts = set(), set()
    for cpus in (1, 2, 3, 4):
        monkeypatch.setattr(_fork, "_cpus", lambda cpus=cpus: cpus)
        for n in rows:
            bounds = planned_bounds(timeseries, monkeypatch, lambda: timeseries._write_table(
                tmp_path / "t.csv", ["timestamp"], np.zeros(n, "datetime64[s]"), []))
            assert bounds == oracle_part_starts(n, cpus), (cpus, n)
            table_parts.add(len(bounds) - 1)
        for trees, n in shapes:
            bounds = planned_bounds(_fork, monkeypatch, lambda: fit_forest(
                np.zeros((n, 1)), np.arange(n) % 2, ForestParams(trees=trees)))
            assert bounds == oracle_tree_parts(trees, n, cpus), (cpus, trees, n)
            forest_parts.add(len(bounds) - 1)
    assert table_parts == forest_parts == {1, 2, 3, 4}
    assert list(tmp_path.iterdir()) == []


def test_channel_stages_start_no_child(monkeypatch):
    # 31 cycles of 2,910 rows: the simulator and the spike screen each split
    # this run's 9 channels in two when they forked channel parts
    monkeypatch.setattr(_fork, "_cpus", lambda: 4)
    forks = count_forks(monkeypatch)
    frame, _ = simulate(SimConfig(seed=1, cycles=31), default_kb())
    assert len(frame) == 90_210 and len(frame.channels) == 9
    assert cleaning.detrended_iqr_flags(frame, 4.0)
    assert forks == []
    assert_no_child()
