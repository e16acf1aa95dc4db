"""The part plan of forked work: one part per CPU, each at least the minimum
its caller sets, or else one part; the table writer, the forest fit, the
simulator and the spike screen cut their parts with it."""

from __future__ import annotations

import os

import numpy as np
import pytest

from pdmpipe import SimConfig, _fork, cleaning, default_kb, models, simulate, simulator, timeseries
from pdmpipe._fork import _bounds
from pdmpipe.models import ForestParams, fit_forest
from helpers import quiet_frame


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


def oracle_channel_parts(part_rows, channels, n, cpus):
    """The channel bounds of ``channels`` channels on ``n`` rows, at least
    ``part_rows`` rows x channels a part, as the simulator and the spike
    screen cut them (each with its own ``_PART_ROWS``)."""
    least = -(-part_rows // n)
    parts = max(1, min(cpus, channels // least))
    return [k * channels // parts for k in range(parts + 1)]


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
    kb = default_kb()
    # 2,910 rows a cycle: the seeds_small, break-even, reference and curate_long runs
    run_cycles = (1, 10, 30, 31, 40, 55, 110)
    # the spike screen's frames, with 5 channels or fewer
    frames = [quiet_frame(cycles) for cycles in (1, 10, 20, 26, 27, 52, 110)]
    frames += [frames[-1].drop_channels(["temp_internal", "angle_platform"]),
               frames[-1].drop_channels(list(frames[-1].channels)[1:])]
    table_parts, forest_parts, sim_parts, screen_parts = set(), set(), set(), set()
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
        for cycles in run_cycles:
            bounds = planned_bounds(_fork, monkeypatch, lambda: simulate(
                SimConfig(seed=1, cycles=cycles), kb))
            assert bounds == oracle_channel_parts(simulator._PART_ROWS, 9, cycles * 2910,
                                                  cpus), (cpus, cycles)
            sim_parts.add(len(bounds) - 1)
        for frame in frames:
            bounds = planned_bounds(_fork, monkeypatch, lambda: cleaning.detrended_iqr_flags(
                frame, 4.0))
            assert bounds == oracle_channel_parts(cleaning._PART_ROWS, len(frame.channels),
                                                  len(frame), cpus), (cpus, len(frame))
            screen_parts.add(len(bounds) - 1)
    assert table_parts == forest_parts == sim_parts == screen_parts == {1, 2, 3, 4}
    assert list(tmp_path.iterdir()) == []
