"""Telemetry generator: determinism, fault symptoms, logging gate, injection."""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import replace

import numpy as np
import pytest

from pdmpipe import SimConfig, _fork, evaluate_rules, inject_missing, inject_outliers, simulate
from pdmpipe import simulator
from pdmpipe._seeding import substream
from pdmpipe.simulator import (DEFAULT_INJECTION, DEFAULT_NOISE, MU_LOW, Blanket, Dropout,
                               MissingScenario, Outlier, WANDER_BLOCK, _wander)
from pdmpipe.timeseries import _write_json
from helpers import assert_no_child, count_forks

GATE_AT_QUARTER = MU_LOW + (1 - MU_LOW) * 0.75


def gt_pairs(gt):
    return {(g.event.cycle, g.event.fault_name) for g in gt.events}


class TestGenerator:
    def test_frame_shape_and_schema(self, sim_small):
        frame, gt = sim_small
        assert len(frame) == 6 * 2910
        assert len(frame.channels) == 9
        assert frame.units["pressure_internal_a"] == "hPa"
        assert frame.units["temp_internal"] == "degC"
        assert frame.units["angle_platform"] == "deg"
        for name in ("fault_log", "valve_0001", "valve_0002",
                     "brewing_fan", "door_z013"):
            assert name in frame.logs
        assert np.array_equal(np.unique(frame.cycle), np.arange(1, 7))

    def test_same_seed_reproduces_every_byte(self, kb, tmp_path):
        config = SimConfig(seed=31337, cycles=3)
        a, gt_a = simulate(config, kb)
        b, gt_b = simulate(config, kb)
        for name in a.channels:
            assert np.array_equal(a.channels[name], b.channels[name])
        for name in a.logs:
            assert np.array_equal(a.logs[name], b.logs[name])
        _write_json(tmp_path / "a.json", gt_a)
        _write_json(tmp_path / "b.json", gt_b)
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_different_seed_changes_noise(self, kb):
        a, _ = simulate(SimConfig(seed=1, cycles=1), kb)
        b, _ = simulate(SimConfig(seed=2, cycles=1), kb)
        assert not np.array_equal(a.channels["temp_external_a"],
                                  b.channels["temp_external_a"])

    def test_scheduled_heating_fault_shows_its_symptom(self, kb, sim_small):
        frame, gt = sim_small
        rows = (frame.cycle == 3) & (frame.sequence == "S09")
        assert frame.channels["temp_internal"][rows].max() > 314.0
        heating = [g.event for g in gt.events
                   if g.event.fault_name == "Heating Fault"]
        assert [e.cycle for e in heating] == [3, 5]

    def test_rule_engine_recovers_scheduled_faults(self, kb, sim_small):
        frame, gt = sim_small
        detected = {(e.cycle, e.fault_name) for e in evaluate_rules(frame, kb)}
        assert detected == gt_pairs(gt)

    def test_ground_truth_json_reads_back(self, sim_small, tmp_path):
        _, gt = sim_small
        _write_json(tmp_path / "gt.json", gt)
        doc = json.loads((tmp_path / "gt.json").read_text())
        assert [(e["event"]["cycle"], e["event"]["fault_name"], e["logged"], e["magnitude"])
                for e in doc["events"]] == \
            [(g.event.cycle, g.event.fault_name, g.logged, g.magnitude) for g in gt.events]
        assert [np.datetime64(e["event"]["onset"], "s") for e in doc["events"]] == \
            [g.event.onset for g in gt.events]


class TestWander:
    SCALES = {"pressure_internal_a": 1.5, "angle_platform": 0.0, "temp_internal": 0.45}

    # short paths, paths that end one and two rows into a block of
    # WANDER_BLOCK rows, one that fills two blocks, and the reference run's rows
    @pytest.mark.parametrize("n", [1, 2, 3, WANDER_BLOCK + 1, WANDER_BLOCK + 2,
                                   2 * WANDER_BLOCK, 160_050])
    @pytest.mark.parametrize("phi", [0.0, 0.5, 0.97, 0.999])
    def test_is_the_ar1_recurrence_bit_for_bit(self, phi, n):
        for name, scale in self.SCALES.items():
            path = _wander(23, name, n, scale, phi)
            if scale > 0:
                innovations = substream(23, "wander", name).standard_normal(n) * scale
                want = np.array(list(itertools.accumulate(
                    innovations.tolist(), lambda prev, e: e + phi * prev)))
            else:
                want = np.zeros(n)
            assert path.shape == (n,)
            assert np.array_equal(path.view(np.int64), want.view(np.int64))


class TestChannelParts:
    """The simulator builds every channel in the calling process: the same
    telemetry for any CPU count, and no fork at any run size."""

    CONFIG = SimConfig(seed=808, cycles=3, logging_probability=1.0,
                       schedule=((1, "heating_pressure"), (2, "needle"), (3, "angle")))

    @staticmethod
    def state(frame, gt, path):
        _write_json(path, gt)
        return ({name: values.tobytes() for name, values in frame.channels.items()},
                {name: values.tobytes() for name, values in frame.logs.items()},
                path.read_bytes())

    def test_same_telemetry_for_any_cpu_count(self, kb, monkeypatch, tmp_path):
        forks = count_forks(monkeypatch)
        runs = {}
        for cpus in (1, 2, 3):
            monkeypatch.setattr(_fork, "_cpus", lambda cpus=cpus: cpus)
            runs[cpus] = self.state(*simulate(self.CONFIG, kb), tmp_path / f"{cpus}.json")
        assert forks == []
        assert_no_child()
        assert runs[1] == runs[2] == runs[3]
        assert list(runs[1][0]) == list(simulator.CHANNEL_UNITS)

    def test_a_small_run_never_forks(self, kb, monkeypatch):
        def no_fork():
            raise AssertionError("os.fork called")

        monkeypatch.setattr(os, "fork", no_fork)
        monkeypatch.setattr(_fork, "_cpus", lambda: 4)
        frame, _ = simulate(SimConfig(seed=5, cycles=10), kb)
        assert len(frame) == 29_100


class TestLoggingGate:
    def test_lossless_logging_logs_everything(self, sim_small):
        _, gt = sim_small
        assert all(g.logged for g in gt.events)

    def test_zero_probability_logs_nothing(self, kb):
        config = SimConfig(seed=88, cycles=12, logging_probability=0.0)
        frame, gt = simulate(config, kb)
        assert len(gt.events) > 0
        assert gt.logged_events() == []
        assert frame.logs["fault_log"].sum() == 0

    def test_magnitude_gate_decides_logging(self, kb):
        config = SimConfig(seed=99, cycles=40, logging_probability=0.25)
        _, gt = simulate(config, kb)
        assert len(gt.events) > 10
        for g in gt.events:
            assert g.logged == (g.magnitude > GATE_AT_QUARTER)
        assert 0 < len(gt.logged_events()) < len(gt.events)

    def test_cooccurring_blocking_faults_share_their_magnitude(self, kb):
        config = SimConfig(seed=5, cycles=4, logging_probability=0.25,
                           schedule=((2, "needle"), (2, "heating_temp"),
                                     (3, "angle")))
        _, gt = simulate(config, kb)
        cycle2 = [g for g in gt.events if g.event.cycle == 2]
        assert len(cycle2) == 2
        assert cycle2[0].magnitude == cycle2[1].magnitude
        assert cycle2[0].logged == cycle2[1].logged

    def test_logged_events_pulse_the_fault_log(self, kb):
        config = SimConfig(seed=11, cycles=10, logging_probability=0.5,
                           schedule=tuple((c, "needle") for c in range(1, 11)))
        frame, gt = simulate(config, kb)
        pulse = frame.logs["fault_log"]
        for g in gt.events:
            cycle_rows = np.flatnonzero(frame.cycle == g.event.cycle)
            onset_row = cycle_rows[0] + 1080 + 5     # sampling starts at 1080
            end_row = cycle_rows[0] + 1320           # sampling ends at 1320
            if g.logged:
                assert pulse[onset_row:end_row].all()
                assert not pulse[cycle_rows[0]:onset_row].any()
            else:
                assert not pulse[cycle_rows].any()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig(seed=1, cycles=0)
        with pytest.raises(ValueError, match="idle_minutes must be an integer >= 0, got -5"):
            SimConfig(seed=1, cycles=2, idle_minutes=-5)
        with pytest.raises(ValueError):
            SimConfig(seed=1, logging_probability=1.5)
        with pytest.raises(ValueError):
            SimConfig(seed=1, injection={"gremlin": 0.1})
        with pytest.raises(ValueError):
            SimConfig(seed=1, cycles=3, schedule=((4, "needle"),))
        for phi in ("x", 1.0, 1.5, -2, -0.1, True, float("nan"), None):
            with pytest.raises(ValueError, match=r"wander_phi must be a number in \[0, 1\)"):
                SimConfig(seed=1, wander_phi=phi)

    def test_partial_mappings_override_only_their_keys(self, kb):
        config = SimConfig(seed=1, cycles=1, injection={"needle": 0.5},
                           noise={"temp_internal": 2.0})
        assert config.injection == dict(DEFAULT_INJECTION, needle=0.5)
        assert config.noise == dict(DEFAULT_NOISE, temp_internal=2.0)
        frame, _ = simulate(config, kb)
        assert len(frame) == 2910
        with pytest.raises(ValueError, match=r"^noise: unknown keys: \['bogus'\]$"):
            SimConfig(seed=1, noise={"bogus": 1.0})

    def test_schedule_is_converted(self):
        config = SimConfig(seed=1, cycles=3, schedule=[[3.0, "needle"]])
        assert config.schedule == ((3, "needle"),) and type(config.schedule[0][0]) is int
        with pytest.raises(ValueError, match=r"schedule\[0\] cycle must be an integer "
                                             r"in \[1, 3\], got 4"):
            SimConfig(seed=1, cycles=3, schedule=[[4, "needle"]])


def with_durations(kb, **minutes):
    """``kb`` with the given sequence durations and without the rules they
    would leave unable to fire."""
    durations = {**kb.durations, **minutes}
    rules = tuple(r for r in kb.rules
                  if max(r.step_minute, r.no_memory_first_minutes or 0) < durations[r.sequence_id])
    return replace(kb, durations=durations, rules=rules)


class TestOnsets:
    @pytest.mark.parametrize("minutes, message", [
        ({"S09": 800}, "fault heating_temp can start at minute 890 of S09, "
                       "which lasts only 800 minutes"),
        ({"S09": 890}, "fault heating_temp can start at minute 890 of S09, "
                       "which lasts only 890 minutes"),
        ({"S10": 5}, "fault needle can start at minute 5 of S10, which lasts only 5 minutes"),
        ({"S04": 8}, "fault door can start at minute 8 of S04, which lasts only 8 minutes"),
    ], ids=["heating-past", "heating-at", "needle-at", "door-at"])
    def test_onset_at_or_past_its_sequence_refused(self, kb, minutes, message):
        # the onset row would lie in the next sequence, where no rule sees
        # the symptom, and the ground truth would still record the fault
        shorter = with_durations(kb, **minutes)
        with pytest.raises(ValueError, match=f"^{message}$"):
            simulate(SimConfig(seed=3, cycles=1), shorter)

    def test_onset_on_the_last_minute_of_its_sequence_is_detected(self, kb):
        shorter = with_durations(kb, S09=891, S04=9)
        config = SimConfig(seed=3, cycles=2, logging_probability=1.0,
                           schedule=((1, "heating_temp"), (2, "door")))
        frame, gt = simulate(config, shorter)
        events = evaluate_rules(frame, shorter)
        assert [(e.cycle, e.fault_name, e.onset) for e in events] == [
            (g.event.cycle, g.event.fault_name, g.event.onset) for g in gt.events]
        for g in gt.events:
            row = np.searchsorted(frame.timestamps, g.event.onset)
            assert frame.sequence[row] == g.event.sequence_id


class TestScenarioRecords:
    @pytest.mark.parametrize("build, message", [
        (lambda: Blanket(cycle=0, start_minute=0, minutes=5),
         "cycle must be an integer >= 1, got 0"),
        (lambda: Blanket(cycle=3, start_minute=-100, minutes=180),
         "start_minute must be an integer >= 0, got -100"),
        (lambda: Dropout(cycle=3, channel="temp_internal", start_minute=0, minutes=0),
         "minutes must be an integer >= 1, got 0"),
        (lambda: Dropout(cycle=3, channel="temp_inside", start_minute=0, minutes=5),
         "channel must be a simulated channel, got 'temp_inside'"),
        (lambda: Outlier(cycle=3, channel="temp_internal", minute=-5, kind="FalseSpike",
                         delta=1.0),
         "minute must be an integer >= 0, got -5"),
        (lambda: Outlier(cycle=3, channel="temp_internal", minute=5, kind="FalseSpike",
                         value=float("inf")),
         "value must be a number, got inf"),
        (lambda: Outlier(cycle=3, channel="temp_internal", minute=5, kind="FalseSpike"),
         "needs a delta or a value key"),
        (lambda: MissingScenario(non_use="no"), "non_use must be true or false, got 'no'"),
        (lambda: MissingScenario(blanket=[{"cycle": 3, "start_minute": 0}]),
         r"^blanket\[0\]: lacks required keys: \['minutes'\]$"),
    ])
    def test_out_of_range_entries_refused(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    def test_mappings_are_built_into_records(self):
        scenario = MissingScenario(non_use=True, blanket=[
            {"cycle": "3", "start_minute": 10.0, "minutes": 5}])
        assert scenario.blanket == (Blanket(cycle=3, start_minute=10, minutes=5),)
        assert MissingScenario(blanket=scenario.blanket).blanket == scenario.blanket


class TestInjectMissing:
    def test_blanket_blanks_every_channel(self, sim_small):
        frame, gt = sim_small
        out, gt2 = inject_missing(
            frame, gt, MissingScenario(blanket=(Blanket(cycle=2, start_minute=100,
                                                        minutes=120),)))
        rows = slice(2910 + 100, 2910 + 220)
        for name in out.channels:
            assert np.isnan(out.channels[name][rows]).all()
        assert not np.isnan(out.channels["temp_internal"][2910 + 99])
        blankets = [m for m in gt2.missing if m.cause == "BlanketMaintenance"]
        assert len(blankets) == 1
        assert blankets[0].start == frame.timestamps[2910 + 100]
        assert blankets[0].end == frame.timestamps[2910 + 219]

    def test_dropout_blanks_one_channel(self, sim_small):
        frame, gt = sim_small
        out, gt2 = inject_missing(
            frame, gt, MissingScenario(dropout=(Dropout(cycle=3, channel="temp_external_a",
                                                        start_minute=50, minutes=30),)))
        rows = slice(2 * 2910 + 50, 2 * 2910 + 80)
        assert np.isnan(out.channels["temp_external_a"][rows]).all()
        assert not np.isnan(out.channels["temp_external_b"][rows]).any()
        drops = [m for m in gt2.missing if m.cause == "SingleSensorDropout"]
        assert [m.channel for m in drops] == ["temp_external_a"]

    def test_non_use_blanks_idle_stretches(self, sim_small):
        frame, gt = sim_small
        out, gt2 = inject_missing(frame, gt, MissingScenario(non_use=True))
        idle = out.sequence == "IDLE"
        assert np.isnan(out.channels["temp_internal"][idle]).all()
        assert not np.isnan(out.channels["temp_internal"][~idle]).any()
        assert sum(m.cause == "NonUse" for m in gt2.missing) == 6

    def test_overlapping_blankets_rejected(self, sim_small):
        frame, gt = sim_small
        spec = MissingScenario(blanket=(Blanket(cycle=1, start_minute=0, minutes=100),
                                        Blanket(cycle=1, start_minute=50, minutes=100)))
        with pytest.raises(ValueError, match="overlap"):
            inject_missing(frame, gt, spec)

    def test_absent_cycle_rejected(self, sim_small):
        frame, gt = sim_small
        with pytest.raises(ValueError, match="absent cycle"):
            inject_missing(frame, gt, MissingScenario(blanket=(
                Blanket(cycle=99, start_minute=0, minutes=10),)))

    def test_empty_scenario_is_identity(self, sim_small):
        frame, gt = sim_small
        out, gt2 = inject_missing(frame, gt, MissingScenario())
        assert out is frame
        assert gt2 is gt


class TestInjectOutliers:
    def test_delta_applied_and_original_recorded(self, sim_small):
        frame, gt = sim_small
        out, gt2 = inject_outliers(frame, gt, [
            Outlier(cycle=1, channel="pressure_internal_b", minute=1900,
                    kind="FalseSpike", delta=500.0)])
        point = gt2.outliers[-1]
        assert point.channel == "pressure_internal_b"
        assert point.kind == "FalseSpike"
        assert out.channels["pressure_internal_b"][1900] == point.value
        assert point.value == point.original + 500.0
        assert frame.channels["pressure_internal_b"][1900] == point.original

    def test_absolute_value_spec(self, sim_small):
        frame, gt = sim_small
        out, gt2 = inject_outliers(frame, gt, [
            Outlier(cycle=2, channel="angle_platform", minute=1100,
                    kind="TrueIrrelevant", value=80.0)])
        assert out.channels["angle_platform"][2910 + 1100] == 80.0

    def test_point_on_missing_cell_rejected(self, sim_small):
        frame, gt = sim_small
        blanked, gt2 = inject_missing(frame, gt, MissingScenario(blanket=(
            Blanket(cycle=1, start_minute=100, minutes=10),)))
        with pytest.raises(ValueError, match="missing cell"):
            inject_outliers(blanked, gt2, [
                Outlier(cycle=1, channel="temp_internal", minute=105,
                        kind="FalseSpike", delta=50.0)])

    @pytest.mark.parametrize("missing", [False, True])
    def test_absent_cycle_and_minute_past_the_cycle_rejected(self, sim_small, missing):
        frame, gt = sim_small
        what = "missing interval" if missing else "outlier point"
        for cycle, minute, message in ((9, 0, f"{what} references absent cycle 9"),
                                       (2, 5000, f"{what} outside frame span (cycle 2)")):
            with pytest.raises(ValueError) as err:
                if missing:
                    inject_missing(frame, gt, MissingScenario(dropout=(Dropout(
                        cycle=cycle, channel="temp_internal", start_minute=minute,
                        minutes=10),)))
                else:
                    inject_outliers(frame, gt, [Outlier(
                        cycle=cycle, channel="temp_internal", minute=minute,
                        kind="FalseSpike", delta=1.0)])
            assert str(err.value) == message

    def test_unknown_channel_and_kind_rejected(self):
        with pytest.raises(ValueError, match="channel must be a simulated channel, got 'bogus'"):
            Outlier(cycle=1, channel="bogus", minute=5, kind="FalseSpike", delta=1.0)
        with pytest.raises(ValueError, match="kind must be one of .*, got 'Whoops'"):
            Outlier(cycle=1, channel="temp_internal", minute=5, kind="Whoops", delta=1.0)
