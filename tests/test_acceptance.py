"""Release gate: every guarantee the pipeline ships with, one test each.

Run with ``PYTHONPATH=src python -m pytest -v tests/test_acceptance.py``
to get a pass/fail line per guarantee. The quantitative checks pin the reference seed from
``configs/default.yaml``; the property checks draw their own seeds.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time
from pathlib import Path

import numpy as np
import pytest
import yaml

from pdmpipe import (
    GbdtParams,
    SimConfig,
    compare,
    compute_metrics,
    evaluate_rules,
    fit_gbdt,
    inject_missing,
    inject_outliers,
    label_horizon,
    load_config,
    simulate,
    split_chronological,
)
from pdmpipe import cleaning, features
from pdmpipe.cli import main
from pdmpipe.evaluation import Cell, MetricsReport, select_best
from pdmpipe.features import CuratedDataset, standardize
from pdmpipe.timeseries import resample
from helpers import quiet_frame, run_pdm, stock_doc

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_CONFIG = ROOT / "configs" / "default.yaml"

HOUR = 60
REFERENCE_METRICS = {
    # accuracy and F1 per model and horizon, logged-label training
    "s1": {
        "forest": {3: (0.9101, 0.3323), 12: (0.9124, 0.2120), 24: (0.7111, 0.1002)},
        "gbdt": {3: (0.9932, 0.5636), 12: (0.9840, 0.3221), 24: (0.7433, 0.1243)},
        "svm": {3: (0.9817, 0.44), 12: (0.9301, 0.2333), 24: (0.6244, 0.1712)},
    },
    # knowledge-informed training
    "s2": {
        "forest": {3: (0.9601, 0.8345), 12: (0.94, 0.7235), 24: (0.8623, 0.6221)},
        "gbdt": {3: (0.9915, 0.9036), 12: (0.9803, 0.9146), 24: (0.9921, 0.9312)},
        "svm": {3: (0.9843, 0.88), 12: (0.9633, 0.8524), 24: (0.9407, 0.74)},
    },
}


def reference_cells(scenario):
    # selection reads only the test accuracy and F1
    return [
        Cell(model, hours * HOUR, params={}, validation=None,
             test=MetricsReport(tp=0, fp=0, fn=0, tn=0, accuracy=acc,
                                precision=f1, recall=f1, f1=f1))
        for model, per_horizon in REFERENCE_METRICS[scenario].items()
        for hours, (acc, f1) in per_horizon.items()
    ]


def stub_dataset(y, timestamps, interval, cycles=None):
    y = np.asarray(y, dtype=np.int8)
    if cycles is None:
        cycles = np.ones(len(y), dtype=np.int64)
    return CuratedDataset(
        scenario="s1", feature_names=("f0",), X=np.zeros((len(y), 1)), y=y,
        cycles=np.asarray(cycles, dtype=np.int64),
        sequences=np.full(len(y), "S09", dtype="U4"), timestamps=timestamps,
        interval_minutes=interval, scaler={}, selection=None, gap_report=None)


def gt_name_pairs(gt):
    return {(g.event.cycle, g.event.fault_name) for g in gt.events}


def event_facts(events) -> list:
    return sorted((e.cycle, e.fault_name, e.cause, e.onset, e.severity) for e in events)


@pytest.fixture(scope="module")
def pinned_config():
    return load_config(DEFAULT_CONFIG)


@pytest.fixture(scope="module")
def pinned_comparison(pinned_config, kb):
    frame, gt = simulate(pinned_config.sim, kb)
    frame, gt = inject_missing(frame, gt, pinned_config.missing)
    frame, gt = inject_outliers(frame, gt, pinned_config.outliers)
    started = time.perf_counter()
    result = compare(frame, gt, kb, pinned_config)
    return result, time.perf_counter() - started


def test_metrics_match_a_bruteforce_oracle():
    rng = np.random.default_rng(20250827)
    started = time.perf_counter()
    for _ in range(1000):
        n = int(rng.integers(1, 513))
        yt = rng.integers(0, 2, size=n)
        yp = rng.integers(0, 2, size=n)
        tp = fp = fn = tn = 0
        for a, b in zip(yt, yp):
            if a and b:
                tp += 1
            elif b:
                fp += 1
            elif a:
                fn += 1
            else:
                tn += 1
        m = compute_metrics(yt, yp)
        assert (m.tp, m.fp, m.fn, m.tn) == (tp, fp, fn, tn)
        assert m.accuracy == (tp + tn) / n
        assert m.precision == (tp / (tp + fp) if tp + fp else 0.0)
        assert m.recall == (tp / (tp + fn) if tp + fn else 0.0)
        p, r = m.precision, m.recall
        assert m.f1 == (2 * p * r / (p + r) if p + r else 0.0)
    assert time.perf_counter() - started < 5.0


def test_rule_engine_recovers_lossless_ground_truth(kb):
    started = time.perf_counter()
    for seed in range(1000, 1020):
        config = SimConfig(seed=seed, cycles=8, logging_probability=1.0)
        frame, gt = simulate(config, kb)
        assert event_facts(evaluate_rules(frame, kb)) == \
            event_facts(g.event for g in gt.events), \
            f"rule detections diverge from ground truth at seed {seed}"
    assert time.perf_counter() - started < 30.0


def test_rules_outdetect_sparse_automation_logs(pinned_config, kb):
    sim = dataclasses.replace(pinned_config.sim, logging_probability=0.05)
    frame, gt = simulate(sim, kb)
    frame2, gt2 = simulate(sim, kb)
    assert gt_name_pairs(gt) == gt_name_pairs(gt2)
    assert [g.logged for g in gt.events] == [g.logged for g in gt2.events]
    detected = len(evaluate_rules(frame, kb))
    logged = len(gt.logged_events())
    assert detected >= 5 * max(logged, 1), \
        f"only {detected} rule detections against {logged} logged events"


def test_knowledge_scenario_dominates_at_the_long_horizon(pinned_comparison):
    result, elapsed = pinned_comparison
    assert elapsed < 600.0
    reports = result["reports"]

    def best_f1_at(scenario, horizon):
        return max(c.test.f1 for c in reports[scenario].cells
                   if c.horizon_minutes == horizon)

    margin = best_f1_at("s2", 24 * HOUR) - best_f1_at("s1", 24 * HOUR)
    assert margin >= 0.20, f"24 h F1 margin {margin:.3f} below 0.20"
    assert reports["s2"].best.horizon_minutes >= reports["s1"].best.horizon_minutes


def test_selection_rule_agrees_with_the_reference_grid():
    best, reason = select_best(reference_cells("s2"))
    assert reason is None
    assert (best.model, best.horizon_minutes) == ("gbdt", 24 * HOUR)
    best, reason = select_best(reference_cells("s1"))
    assert reason is None
    assert (best.model, best.horizon_minutes) == ("gbdt", 3 * HOUR)


def test_numerical_invariants_hold():
    # orthonormal loadings
    for seed, (n, d) in enumerate([(40, 3), (100, 6), (64, 12), (200, 8), (30, 5)]):
        X = np.random.default_rng(seed).standard_normal((n, d))
        L = features._pca_in_place(X, 0.95).loadings
        assert np.abs(L.T @ L - np.eye(L.shape[1])).max() <= 1e-9

    # standardized training columns centered and scaled
    frame = quiet_frame()
    rng = np.random.default_rng(20250827)
    for name in frame.channels:
        frame.channels[name] += rng.standard_normal(len(frame))
    fit = np.arange(len(frame)) < int(0.6 * len(frame))
    out, _ = standardize(frame, fit)
    for name in out.channels:
        assert abs(out.channels[name][fit].mean()) <= 1e-9
        assert abs(out.channels[name][fit].std() - 1.0) <= 1e-9

    # boosting training loss never rises
    for seed in range(10):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((80, 4))
        y = (X @ rng.standard_normal(4) + 0.3 * rng.standard_normal(80)
             > 0).astype(np.int64)
        model = fit_gbdt(X, y, GbdtParams(iterations=25))
        assert np.all(np.diff(model.train_loss) <= 0.0)

    # the spike screen's quartile fences equal the fence oracle
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(1, 120))
        values = rng.standard_normal(n) * rng.uniform(0.1, 100)
        k = float(rng.uniform(0, 6))
        q1, q3 = np.quantile(values, [0.25, 0.75])
        iqr = q3 - q1
        expected = [i for i, v in enumerate(values)
                    if v < q1 - k * iqr or v > q3 + k * iqr]
        lo, hi = cleaning._iqr_fences([values], k)
        assert np.flatnonzero((values < lo[0]) | (values > hi[0])).tolist() == expected


# sha256 of each file ``pdm compare --config configs/default.yaml`` writes.
# A change to these bytes is declared in CHANGES.md with the new digests.
REFERENCE_DIGESTS = {
    "baseline_cells.csv": "7bc05fae96cd0e62a032dd7a429e2f4a730a1ec1be785d11c8c486b445fc2b29",
    "baseline_report.json": "21372a1309767d1572ea9339d1499d45db266fb00d9ffd4a0936a72665119644",
    "comparison.csv": "1ae6a1e7cfd3c300827c9932f2f5df4125238734bda956d5a1bec5df3cff1520",
    "comparison.json": "83321ea94c97691b9f47b307a8e0f803f3addfa5e72dbc3b005b08e4c64bec2e",
    "s1_cells.csv": "0bc3ed6c4fa6ce92a8eafb8d6dacb0f521f9bf72952c51e949f7566aa7337911",
    "s1_report.json": "12c6937f0231109e994c566aff29d58247fb867cac976fefadfb44e7e62667b1",
    "s2_cells.csv": "5bb1f7157cc0de26eb031eedb32f463aa8771cadd71de9368508bf85ac13d12d",
    "s2_report.json": "686266ca8626423227b5e89646ac58d61c00b852649c9b1263b4092be1750b1a",
}


def test_comparison_outputs_are_byte_identical(tmp_path):
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / name
        proc = run_pdm("compare", "--config", str(DEFAULT_CONFIG),
                       "--out", str(out), timeout=600)
        assert proc.returncode == 0, proc.stderr
        outputs.append(out)
    names = sorted(p.name for p in outputs[0].iterdir())
    assert "comparison.json" in names and "comparison.csv" in names
    assert names == sorted(p.name for p in outputs[1].iterdir())
    for name in names:
        assert (outputs[0] / name).read_bytes() == (outputs[1] / name).read_bytes(), \
            f"{name} differs between identical runs"
    digests = {name: hashlib.sha256((outputs[0] / name).read_bytes()).hexdigest()
               for name in names}
    assert digests == REFERENCE_DIGESTS


def test_evaluate_reports_are_byte_identical_to_compare(tmp_path):
    # ``pdm evaluate`` writes a scenario's report and cells with the bytes
    # ``pdm compare`` writes for it
    for scenario, line in (("baseline", "baseline: best rules at 0 min"),
                           ("s2", "s2: best forest at 1440 min")):
        out = tmp_path / scenario
        proc = run_pdm("evaluate", "--config", str(DEFAULT_CONFIG), "--scenario", scenario,
                       "--out", str(out), timeout=600)
        assert proc.returncode == 0, proc.stderr
        for name in (f"{scenario}_report.json", f"{scenario}_cells.csv"):
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == \
                REFERENCE_DIGESTS[name], name
        assert proc.stdout == f"{line}, test F1 1.000, accuracy 1.000 -> {out}\n"


def test_positive_labels_nest_as_the_horizon_grows(kb):
    total_positive = 0
    for seed in range(300, 310):
        config = SimConfig(seed=seed, cycles=6, logging_probability=1.0)
        frame, _ = simulate(config, kb)
        rows = resample(frame, 15)
        ds = stub_dataset(rows.logs["fault_log"], rows.timestamps, 15)
        labeled = {h: label_horizon(ds, h * HOUR)[0] for h in (3, 12, 24)}
        total_positive += int(labeled[3].sum())
        assert np.all(labeled[12][labeled[3] == 1] == 1)
        assert np.all(labeled[24][labeled[12] == 1] == 1)
    assert total_positive > 0


def test_split_integrity_on_the_full_cycle_count():
    cycles = np.repeat(np.arange(1, 56), 4)
    ds = stub_dataset(np.zeros(len(cycles)),
                      (np.datetime64("2025-03-01T00:00:00")
                       + np.arange(len(cycles)) * np.timedelta64(15, "m")
                       ).astype("datetime64[s]"), 15, cycles=cycles)
    split = split_chronological(ds)
    assert split.train_cycles == tuple(range(1, 34))
    assert split.validation_cycles == tuple(range(34, 45))
    assert split.test_cycles == tuple(range(45, 56))
    assert len(split.train_cycles) == 33
    assert len(split.validation_cycles) == 11
    assert len(split.test_cycles) == 11
    assert not set(split.train_cycles) & set(split.validation_cycles)
    assert not set(split.validation_cycles) & set(split.test_cycles)
    assert not set(split.train_cycles) & set(split.test_cycles)
    assert not (split.train & split.validation).any()
    assert not (split.validation & split.test).any()
    assert not (split.train & split.test).any()


# the three lines ``pdm compare --config configs/default.yaml`` prints for the
# scenarios' best cells
REFERENCE_HEADLINE = (
    "baseline: rules at 0 min, F1 1.000, accuracy 1.000",
    "s1: gbdt at 180 min, F1 0.526, accuracy 0.979",
    "s2: forest at 1440 min, F1 1.000, accuracy 1.000",
)


def test_reversed_knowledge_base_keeps_the_headline(tmp_path, capsys):
    # the FMECA order sets the order of the cause columns, so the s2 bytes
    # move with it; the headline must not
    doc = stock_doc()
    doc["rules"].reverse()
    doc["fmeca"].reverse()
    kb_path = tmp_path / "kb.yaml"
    kb_path.write_text(yaml.safe_dump(doc))
    config = yaml.safe_load(DEFAULT_CONFIG.read_text())
    config["kb"] = str(kb_path)
    config_path = tmp_path / "run.yaml"
    config_path.write_text(yaml.safe_dump(config))
    assert main(["compare", "--config", str(config_path), "--out", str(tmp_path / "out")]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert [line for line in printed if line.startswith(("baseline:", "s1:", "s2:"))] == \
        list(REFERENCE_HEADLINE)
