"""Scoring, lookahead labeling, splits, model selection, reports."""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdmpipe import (
    compare,
    compute_metrics,
    evaluation,
    label_horizon,
    make_config,
    split_chronological,
)
from pdmpipe._seeding import substream
from pdmpipe.evaluation import (
    FLAG_NO_POSITIVE_PREDICTIONS,
    FLAG_NO_POSITIVE_TRUTH,
    Cell,
    MetricsReport,
    run_scenario,
    select_best,
    tune_and_fit,
    write_comparison,
    write_report,
)
from pdmpipe.features import CuratedDataset
from pdmpipe.knowledge import BLOCKING, CYCLE_STOP, evaluate_rules
from pdmpipe.models import ForestParams, fit_forest
from helpers import model_state

TINY_MODELS = {
    "forest": [{"trees": 5, "max_depth": 5}],
    "gbdt": [{"iterations": 10, "learning_rate": 0.2, "max_depth": 3}],
    "svm": [{"reg": 0.001}],
}


def stub_ds(y, cycles=None, interval=15):
    y = np.asarray(y, dtype=np.int8)
    n = len(y)
    ts = (np.datetime64("2025-03-01T00:00:00")
          + np.arange(n) * np.timedelta64(interval, "m")).astype("datetime64[s]")
    if cycles is None:
        cycles = np.ones(n, dtype=np.int64)
    return CuratedDataset(
        scenario="s1", feature_names=("f0",), X=np.zeros((n, 1)), y=y,
        cycles=np.asarray(cycles, dtype=np.int64),
        sequences=np.full(n, "S09", dtype="U4"), timestamps=ts,
        interval_minutes=interval, scaler={}, selection=None, gap_report=None)


class TestComputeMetrics:
    @settings(max_examples=200)
    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)),
                    min_size=1, max_size=60))
    def test_matches_a_counting_oracle(self, pairs):
        yt = np.array([a for a, _ in pairs])
        yp = np.array([b for _, b in pairs])
        tp = fp = fn = tn = 0
        for a, b in pairs:
            if a and b:
                tp += 1
            elif not a and b:
                fp += 1
            elif a and not b:
                fn += 1
            else:
                tn += 1
        m = compute_metrics(yt, yp)
        assert (m.tp, m.fp, m.fn, m.tn) == (tp, fp, fn, tn)
        assert m.accuracy == (tp + tn) / len(pairs)
        assert m.precision == (tp / (tp + fp) if tp + fp else 0.0)
        assert m.recall == (tp / (tp + fn) if tp + fn else 0.0)
        p, r = m.precision, m.recall
        assert m.f1 == (2 * p * r / (p + r) if p + r else 0.0)

    def test_degenerate_inputs_are_flagged(self):
        m = compute_metrics([0, 0, 0], [0, 1, 0])
        assert FLAG_NO_POSITIVE_TRUTH in m.flags
        m = compute_metrics([1, 0, 1], [0, 0, 0])
        assert FLAG_NO_POSITIVE_PREDICTIONS in m.flags
        assert m.recall == 0.0 and m.f1 == 0.0
        m = compute_metrics([1, 0], [1, 0])
        assert m.flags == ()

    def test_validation(self):
        with pytest.raises(ValueError):
            compute_metrics([], [])
        with pytest.raises(ValueError):
            compute_metrics([0, 1], [1])
        with pytest.raises(ValueError):
            compute_metrics([0, 2], [0, 1])


class TestLabelHorizon:
    def test_zero_horizon_returns_target_unchanged(self):
        ds = stub_ds([0, 1, 1, 0])
        labels, valid = label_horizon(ds, 0)
        assert labels.tolist() == [0, 1, 1, 0]
        assert valid.all()

    def test_window_is_open_at_the_row_itself(self):
        ds = stub_ds([0, 0, 0, 1, 1, 0, 0, 0, 0, 0])
        labels, valid = label_horizon(ds, 15)
        # only the row one step before the onset looks ahead into it
        assert labels.tolist() == [0, 0, 1, 0, 0, 0, 0, 0, 0, 0]
        assert valid.tolist() == [True] * 9 + [False]

    def test_wider_windows_reach_further_back(self):
        ds = stub_ds([0] * 8 + [1, 1])
        labels, _ = label_horizon(ds, 45)
        assert labels.tolist() == [0, 0, 0, 0, 0, 1, 1, 1, 0, 0]

    @settings(max_examples=100)
    @given(st.lists(st.integers(0, 1), min_size=2, max_size=50),
           st.sampled_from([15, 30, 45, 60, 90]))
    def test_positive_sets_nest_as_the_window_grows(self, y, h):
        ds = stub_ds(y)
        narrow, valid_n = label_horizon(ds, h)
        wide, valid_w = label_horizon(ds, h + 30)
        assert np.all(wide[narrow == 1] == 1)
        assert np.all(valid_n[valid_w])

    def test_validation(self):
        ds = stub_ds([0, 1])
        with pytest.raises(ValueError, match="multiple"):
            label_horizon(ds, 20)
        with pytest.raises(ValueError):
            label_horizon(ds, -15)


class TestSplit:
    def test_whole_cycles_floor_floor_remainder(self):
        ds = stub_ds([0] * 40, cycles=np.repeat(np.arange(1, 11), 4))
        split = split_chronological(ds)
        assert split.train_cycles == tuple(range(1, 7))
        assert split.validation_cycles == (7, 8)
        assert split.test_cycles == (9, 10)

    def test_masks_partition_the_rows(self):
        ds = stub_ds([0] * 28, cycles=np.repeat(np.arange(1, 8), 4))
        split = split_chronological(ds, (0.5, 0.25, 0.25))
        total = (split.train.astype(int) + split.validation.astype(int)
                 + split.test.astype(int))
        assert np.all(total == 1)
        assert not (split.train & split.validation).any()
        assert not (split.validation & split.test).any()
        assert not (split.train & split.test).any()

    def test_validation(self):
        ds = stub_ds([0] * 16, cycles=np.repeat(np.arange(1, 5), 4))
        with pytest.raises(ValueError, match="5 cycles"):
            split_chronological(ds)
        ds = stub_ds([0] * 40, cycles=np.repeat(np.arange(1, 11), 4))
        with pytest.raises(ValueError):
            split_chronological(ds, (0.5, 0.4, 0.2))
        with pytest.raises(ValueError, match="empty part"):
            split_chronological(ds, (0.98, 0.01, 0.01))
        with pytest.raises(ValueError):
            split_chronological(ds, (0.8, 0.2))


def cell(model, horizon, acc, f1):
    # selection reads only the test accuracy and F1
    test = MetricsReport(tp=0, fp=0, fn=0, tn=0, accuracy=acc, precision=f1,
                         recall=f1, f1=f1)
    return Cell(model, horizon, params={}, validation=None, test=test)


class TestSelectBest:
    def test_highest_f1_wins_regardless_of_order(self):
        cells = [cell("forest", 180, 0.9, 0.4), cell("gbdt", 720, 0.8, 0.7),
                 cell("svm", 1440, 0.95, 0.5)]
        for ordering in (cells, cells[::-1], cells[1:] + cells[:1]):
            best, reason = select_best(list(ordering))
            assert reason is None
            assert (best.model, best.horizon_minutes) == ("gbdt", 720)

    def test_accuracy_floor_is_strict(self):
        best, _ = select_best([cell("svm", 180, 0.70, 0.9),
                               cell("gbdt", 180, 0.71, 0.2)])
        assert best.model == "gbdt"

    def test_zero_f1_never_wins(self):
        best, reason = select_best([cell("forest", 180, 0.99, 0.0)])
        assert best is None
        assert "nonzero" in reason

    def test_f1_tie_prefers_the_longer_horizon(self):
        best, _ = select_best([cell("gbdt", 180, 0.9, 0.6),
                               cell("gbdt", 1440, 0.9, 0.6)])
        assert best.horizon_minutes == 1440

    def test_full_tie_falls_back_on_family_order(self):
        best, _ = select_best([cell("svm", 720, 0.9, 0.6),
                               cell("forest", 720, 0.9, 0.6),
                               cell("gbdt", 720, 0.9, 0.6)])
        assert best.model == "forest"


class TestTuneAndFit:
    def make_data(self):
        # one clean feature so every grid entry ties at a perfect F1
        rng = np.random.default_rng(12)
        X = rng.standard_normal((120, 1))
        y = (X[:, 0] > 0).astype(np.int64)
        X[:, 0] += np.where(y == 1, 3.0, -3.0)
        return X[:80], y[:80], X[80:], y[80:]

    def test_tied_f1_prefers_smaller_capacity(self):
        Xt, yt, Xv, yv = self.make_data()
        _, params, validation = tune_and_fit(Xt, yt, Xv, yv, "forest",
                                             [{"trees": 9, "max_depth": 3},
                                              {"trees": 3, "max_depth": 3}], seed=0)
        assert params["trees"] == 3
        assert validation.f1 == 1.0

    def test_then_shallower_depth(self):
        Xt, yt, Xv, yv = self.make_data()
        _, params, _ = tune_and_fit(Xt, yt, Xv, yv, "forest",
                                    [{"trees": 3, "max_depth": 8},
                                     {"trees": 3, "max_depth": 2}], seed=0)
        assert params["max_depth"] == 2

    def test_an_entry_without_trees_counts_its_default_trees(self):
        # the second entry fits ForestParams' default 40 trees, more than 30
        Xt, yt, Xv, yv = self.make_data()
        _, params, validation = tune_and_fit(
            Xt, yt, Xv, yv, "forest", [{"trees": 30, "max_depth": 10}, {"max_depth": 10}],
            seed=0)
        assert params == {"trees": 30, "max_depth": 10}
        assert validation.f1 == 1.0

    @staticmethod
    def count_forest_fits(monkeypatch):
        calls = []
        fit_forest = evaluation.fit_forest

        def counted(X, y, params, seed):
            calls.append((params.trees, params.max_depth, params.min_leaf, seed))
            return fit_forest(X, y, params, seed=seed)

        monkeypatch.setattr(evaluation, "fit_forest", counted)
        return calls

    @staticmethod
    def entry_seed(seed, idx):
        return int(substream(seed, "fit", "forest", idx).integers(2 ** 31))

    def test_entries_differing_in_trees_share_one_fit(self, monkeypatch):
        Xt, yt, Xv, yv = self.make_data()
        calls = self.count_forest_fits(monkeypatch)
        model, params, _ = tune_and_fit(Xt, yt, Xv, yv, "forest",
                                        [{"trees": 3, "max_depth": 3},
                                         {"trees": 9, "max_depth": 3}], seed=5)
        assert calls == [(9, 3, 1, self.entry_seed(5, 0))]
        # entry 0 wins the tie on fewer trees, and holds the trees it would
        # hold fitted on its own
        assert params == {"trees": 3, "max_depth": 3}
        alone = fit_forest(Xt, yt, ForestParams(trees=3, max_depth=3),
                           seed=self.entry_seed(5, 0))
        assert model_state(model) == model_state(alone)

    def test_each_shape_is_fitted_once_at_its_largest_size(self, monkeypatch):
        Xt, yt, Xv, yv = self.make_data()
        calls = self.count_forest_fits(monkeypatch)
        tune_and_fit(Xt, yt, Xv, yv, "forest",
                     [{"trees": 3, "max_depth": 3}, {"trees": 5, "max_depth": 2},
                      {"trees": 9, "max_depth": 3}, {"trees": 4, "max_depth": 2}], seed=5)
        assert calls == [(9, 3, 1, self.entry_seed(5, 0)), (5, 2, 1, self.entry_seed(5, 1))]

    def test_validation(self):
        Xt, yt, Xv, yv = self.make_data()
        with pytest.raises(ValueError, match="empty"):
            tune_and_fit(Xt, yt, Xv, yv, "forest", [], seed=0)
        with pytest.raises(ValueError, match="family"):
            tune_and_fit(Xt, yt, Xv, yv, "mlp", [{}], seed=0)


@pytest.fixture(scope="module")
def mid_config():
    return make_config(515151, models=TINY_MODELS, horizons_minutes=[180])


@pytest.fixture(scope="module")
def mid_comparison(sim_mid, kb, mid_config):
    frame, gt = sim_mid
    return compare(frame, gt, kb, mid_config)


class TestRunScenario:
    def test_baseline_scores_rule_hits_per_cycle(self, mid_comparison):
        report = mid_comparison["reports"]["baseline"]
        assert report.scenario == "baseline"
        assert report.cells[0].model == "rules"
        assert report.cells[0].horizon_minutes == 0
        # lossless logging and scheduled faults only: rules find everything
        assert report.best.test.f1 == 1.0
        counts = report.counts
        assert counts["rule_detections_blocking"] == counts["ground_truth_blocking"]
        assert counts["logged_events"] == counts["ground_truth_events"]

    def test_baseline_counts_faults_no_rule_covers(self, sim_mid, kb, mid_config):
        # the telemetry holds needle faults; without rule 1 the rules miss them
        frame, gt = sim_mid
        without_rule_1 = dataclasses.replace(kb, rules=kb.rules[1:])
        report = run_scenario(frame, gt, without_rule_1, "baseline", mid_config)
        test = report.cells[0].test
        assert test.fn == 3 and test.fp == 0
        assert test.f1 < 1.0

    def test_baseline_takes_a_faults_severity_from_fmeca_alone(self, sim_mid, kb, mid_config):
        # only the FMECA entry makes the door fault blocking; rule 6 then
        # reports blocking events, and the baseline scores the door fault
        frame, gt = sim_mid
        fmeca = tuple(dataclasses.replace(e, severity=BLOCKING)
                      if e.fault_name == "Door Closure Fault" else e for e in kb.fmeca)
        door_blocking = dataclasses.replace(kb, fmeca=fmeca)
        door = [(e.cycle, e.severity, e.consequence) for e in evaluate_rules(frame, door_blocking)
                if e.fault_name == "Door Closure Fault"]
        assert door == [(3, BLOCKING, CYCLE_STOP)]
        stock = run_scenario(frame, gt, kb, "baseline", mid_config)
        report = run_scenario(frame, gt, door_blocking, "baseline", mid_config)
        assert (report.counts["rule_detections_blocking"]
                == stock.counts["rule_detections_blocking"] + 1)
        # one more blocking name in each of the 8 cycles; the ground truth
        # holds the door fault of cycle 3 as non-blocking, so its hit is false
        cells = [dataclasses.astuple(r.cells[0].test)[:4] for r in (stock, report)]
        assert sum(cells[1]) == sum(cells[0]) + 8
        assert (stock.cells[0].test.fp, report.cells[0].test.fp) == (0, 1)

    @pytest.mark.parametrize("scenario", ["s1", "s2"])
    def test_learned_scenarios_produce_full_grids(self, mid_comparison, scenario):
        report = mid_comparison["reports"][scenario]
        assert {c.model for c in report.cells} == {"forest", "gbdt", "svm"}
        assert all(c.horizon_minutes == 180 for c in report.cells)
        for c in report.cells:
            for metrics in (c.validation, c.test):
                assert {f.name for f in dataclasses.fields(metrics)} == {
                    "tp", "fp", "fn", "tn", "accuracy", "precision", "recall", "f1", "flags"}
        assert report.dataset["rows"] > 0
        assert report.dataset["features"] == len(report.dataset["feature_names"])

    def test_comparison_rows_cover_all_three(self, mid_comparison):
        rows = mid_comparison["comparison"]
        assert [r["scenario"] for r in rows] == ["baseline", "s1", "s2"]
        for row in rows:
            assert set(row) == {"scenario", "best_model", "best_horizon_minutes",
                                "accuracy", "f1", "reason"}

    def test_unknown_scenario_rejected(self, sim_mid, kb, mid_config):
        frame, gt = sim_mid
        with pytest.raises(ValueError, match="scenario"):
            run_scenario(frame, gt, kb, "s3", mid_config)

    def test_horizon_reaching_across_a_part_boundary_rejected(self, kb, monkeypatch):
        # five 8-row cycles back to back: train 1-3, validation 4, test 5;
        # the onset at row 26 (cycle 4) labels rows 22-25 at 60 min
        y = np.zeros(40, dtype=np.int8)
        y[26:28] = 1
        ds = stub_ds(y, cycles=np.repeat(np.arange(1, 6), 8))
        monkeypatch.setattr(evaluation, "build_dataset", lambda *args: ds)
        config = make_config(1, models=TINY_MODELS, horizons_minutes=[30, 60])
        with pytest.raises(ValueError,
                           match="horizon 60 min .* train part .* validation part"):
            run_scenario(None, None, kb, "s1", config)

    def test_rerun_is_deterministic(self, sim_mid, kb, mid_config, mid_comparison):
        frame, gt = sim_mid
        again = run_scenario(frame, gt, kb, "s1", mid_config)
        assert again == mid_comparison["reports"]["s1"]


class TestReportFiles:
    def test_report_files_are_stable_across_writes(self, mid_comparison, tmp_path):
        report = mid_comparison["reports"]["s2"]
        write_report(report, tmp_path / "a")
        write_report(report, tmp_path / "b")
        for name in ("s2_report.json", "s2_cells.csv"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()
        doc = json.loads((tmp_path / "a" / "s2_report.json").read_text())
        assert doc["scenario"] == "s2"
        assert len(doc["cells"]) == 3

    def test_comparison_files_round_trip(self, mid_comparison, tmp_path):
        write_comparison(mid_comparison, tmp_path)
        expected = {"comparison.json", "comparison.csv"}
        expected |= {f"{s}_{kind}" for s in ("baseline", "s1", "s2")
                     for kind in ("report.json", "cells.csv")}
        assert {p.name for p in tmp_path.iterdir()} == expected
        doc = json.loads((tmp_path / "comparison.json").read_text())
        assert [r["scenario"] for r in doc["comparison"]] == \
            ["baseline", "s1", "s2"]
        header = (tmp_path / "comparison.csv").read_text().splitlines()[0]
        assert header == "scenario,best_model,best_horizon_minutes,accuracy,f1,reason"

    def test_metric_cells_survive_the_csv_float_format(self, mid_comparison, tmp_path):
        write_report(mid_comparison["reports"]["s1"], tmp_path)
        rows = (tmp_path / "s1_cells.csv").read_text().splitlines()[1:]
        report = mid_comparison["reports"]["s1"]
        first = rows[0].split(",")
        assert math.isclose(float(first[8]),
                            report.cells[0].validation.accuracy)
