"""Horizon labeling, chronological splits, metrics, tuning, and reports.

A scenario run produces one report: per (model family, horizon) cell it
holds validation and test metrics, and the best cell is the one with
the highest test F1 among those beating the accuracy floor, preferring
longer horizons and then the fixed family order on ties.
"""

from __future__ import annotations

import csv
import logging
import math
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from ._seeding import substream
from .features import CuratedDataset, build_dataset
from .knowledge import BLOCKING, KnowledgeBase, evaluate_rules
from .models import FAMILY_PARAMS, fit_forest, fit_gbdt, fit_svm
from .timeseries import _write_json

log = logging.getLogger(__name__)

FAMILY_ORDER = tuple(FAMILY_PARAMS)

FLAG_NO_POSITIVE_TRUTH = "no_positive_truth"
FLAG_NO_POSITIVE_PREDICTIONS = "no_positive_predictions"


@dataclass(frozen=True)
class MetricsReport:
    tp: int
    fp: int
    fn: int
    tn: int
    accuracy: float
    precision: float
    recall: float
    f1: float
    flags: tuple = ()


def compute_metrics(y_true, y_pred) -> MetricsReport:
    """Confusion counts and rates with explicit zero conventions.

    Precision is 0 when nothing was predicted positive, recall is 0 when
    nothing was truly positive; both cases are flagged. F1 is 0 whenever
    precision and recall are both 0.
    """
    yt = np.asarray(y_true, dtype=np.int64)
    yp = np.asarray(y_pred, dtype=np.int64)
    if yt.shape != yp.shape or yt.ndim != 1:
        raise ValueError("labels must be 1-d arrays of equal length")
    if len(yt) == 0:
        raise ValueError("cannot score empty label arrays")
    if not np.isin(yt, (0, 1)).all() or not np.isin(yp, (0, 1)).all():
        raise ValueError("labels must be 0 or 1")
    tp = int(((yt == 1) & (yp == 1)).sum())
    fp = int(((yt == 0) & (yp == 1)).sum())
    fn = int(((yt == 1) & (yp == 0)).sum())
    tn = int(((yt == 0) & (yp == 0)).sum())
    flags = []
    if tp + fn == 0:
        flags.append(FLAG_NO_POSITIVE_TRUTH)
    if tp + fp == 0:
        flags.append(FLAG_NO_POSITIVE_PREDICTIONS)
    accuracy = (tp + tn) / len(yt)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall else 0.0)
    return MetricsReport(tp=tp, fp=fp, fn=fn, tn=tn, accuracy=accuracy,
                         precision=precision, recall=recall, f1=f1,
                         flags=tuple(flags))


def label_horizon(ds: CuratedDataset, horizon_minutes: int):
    """Lookahead labels: 1 iff a target onset falls in (t, t + horizon].

    Onsets are rising edges of the dataset target. The onset row itself
    is negative (the window is open at t). Rows whose window extends
    past the last timestamp carry no information and are masked out.
    Horizon 0 returns the target as-is. Returns (labels, valid mask).
    """
    if horizon_minutes < 0:
        raise ValueError("horizon must be >= 0")
    if horizon_minutes % ds.interval_minutes != 0:
        raise ValueError("horizon must be a multiple of the row interval")
    y = np.asarray(ds.y, dtype=np.int64)
    if horizon_minutes == 0:
        return y.astype(np.int8), np.ones(len(y), dtype=bool)
    t = ds.timestamps.astype("int64")
    onset_times = t[_onset_rows(y)]
    span = horizon_minutes * 60
    upper = np.searchsorted(onset_times, t + span, side="right")
    lower = np.searchsorted(onset_times, t, side="right")
    labels = (upper > lower).astype(np.int8)
    valid = (t + span) <= t[-1]
    return labels, valid


def _onset_rows(y: np.ndarray) -> np.ndarray:
    """Rows where the target rises from 0 to 1 (a first-row 1 counts)."""
    return np.flatnonzero((y == 1) & np.concatenate(([True], y[:-1] == 0)))


@dataclass(frozen=True)
class Split:
    train: np.ndarray
    validation: np.ndarray
    test: np.ndarray
    train_cycles: tuple
    validation_cycles: tuple
    test_cycles: tuple


def split_chronological(ds: CuratedDataset, fractions=(0.6, 0.2, 0.2)) -> Split:
    """Whole-cycle chronological split: floor(train), floor(val), remainder."""
    if len(fractions) != 3 or any(f < 0 for f in fractions):
        raise ValueError("need three non-negative fractions")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError("fractions must sum to 1")
    cycles = np.unique(ds.cycles)
    if len(cycles) < 5:
        raise ValueError(f"need at least 5 cycles to split, got {len(cycles)}")
    n_train = math.floor(fractions[0] * len(cycles))
    n_val = math.floor(fractions[1] * len(cycles))
    if n_train == 0 or n_val == 0 or n_train + n_val >= len(cycles):
        raise ValueError("fractions leave an empty part")
    train_c = cycles[:n_train]
    val_c = cycles[n_train:n_train + n_val]
    test_c = cycles[n_train + n_val:]
    return Split(
        train=np.isin(ds.cycles, train_c),
        validation=np.isin(ds.cycles, val_c),
        test=np.isin(ds.cycles, test_c),
        train_cycles=tuple(int(c) for c in train_c),
        validation_cycles=tuple(int(c) for c in val_c),
        test_cycles=tuple(int(c) for c in test_c))


def _check_labels_within_parts(ds: CuratedDataset, split: Split,
                               horizon_minutes: int, labels, valid) -> None:
    """Raise if a used positive label comes from an onset in another split part.

    Parts are chronological blocks of whole cycles, so the latest onset in
    a row's window (t, t + horizon] lies in the row's own part iff every
    onset in that window does.
    """
    if horizon_minutes == 0:
        return
    rows = np.flatnonzero((labels == 1) & valid)
    t = ds.timestamps.astype("int64")
    onsets = _onset_rows(np.asarray(ds.y, dtype=np.int64))
    last = np.searchsorted(t[onsets], t[rows] + horizon_minutes * 60, side="right") - 1
    part = split.validation.astype(np.int64) + 2 * split.test
    crossing = np.flatnonzero(part[onsets[last]] != part[rows])
    if crossing.size:
        i = crossing[0]
        names = ("train", "validation", "test")
        raise ValueError(
            f"horizon {horizon_minutes} min labels rows of the "
            f"{names[part[rows[i]]]} part positive from a target onset "
            f"in the {names[part[onsets[last[i]]]]} part")


def _fit_family(family: str, X, y, params, seed: int):
    """Fit one family on its parameter record."""
    if family == "forest":
        return fit_forest(X, y, params, seed=seed)
    if family == "gbdt":
        return fit_gbdt(X, y, params)
    return fit_svm(X, y, params)


@dataclass
class TunedModel:
    family: str
    params: dict
    model: object
    val_metrics: MetricsReport


def tune_and_fit(X_train, y_train, X_val, y_val, family: str, grid,
                 seed: int) -> TunedModel:
    """Fit every grid entry on train, keep the best validation F1.

    Ties prefer fewer trees/iterations, then a shallower depth,
    then the earlier grid entry. The winning model stays fitted on the
    train rows only.
    """
    if not grid:
        raise ValueError("empty parameter grid")
    if family not in FAMILY_PARAMS:
        raise ValueError(f"unknown model family {family!r}")
    best = None
    for idx, params in enumerate(grid):
        record = FAMILY_PARAMS[family](**params)
        child_seed = int(substream(seed, "fit", family, idx).integers(2 ** 31))
        model = _fit_family(family, X_train, y_train, record, child_seed)
        metrics = compute_metrics(y_val, model.predict(X_val))
        depth = getattr(record, "max_depth", None)
        key = (-metrics.f1, getattr(record, "trees", getattr(record, "iterations", 0)),
               math.inf if depth is None else depth, idx)
        if best is None or key < best[0]:
            best = (key, TunedModel(family=family,
                                    params={name: getattr(record, name) for name in params},
                                    model=model, val_metrics=metrics))
    return best[1]


def select_best(cells, min_accuracy: float = 0.70):
    """Pick the winning (model, horizon) cell from test metrics.

    Cells at or below the accuracy floor are out, as are cells that never
    got a positive right (F1 of zero). Among survivors the highest F1
    wins; ties go to the longer horizon, then the fixed family order.
    Returns (cell, None) or (None, reason).
    """
    survivors = [c for c in cells
                 if c["test"]["accuracy"] > min_accuracy and c["test"]["f1"] > 0]
    if not survivors:
        return None, f"no cell exceeded accuracy {min_accuracy} with nonzero F1"
    order = {f: i for i, f in enumerate(FAMILY_ORDER)}
    survivors.sort(key=lambda c: (-c["test"]["f1"], -c["horizon_minutes"],
                                  order.get(c["model"], len(order))))
    return survivors[0], None


@dataclass(frozen=True)
class ScenarioReport:
    scenario: str
    cells: tuple
    best: dict
    reason: str
    seed: int
    counts: dict = field(default_factory=dict)
    dataset: dict = field(default_factory=dict)


def _baseline_report(frame, gt, kb: KnowledgeBase, seed: int) -> ScenarioReport:
    """Rule detections scored against ground-truth blocking events.

    The universe is every (cycle, blocking fault name) pair; detection
    happens at occurrence, so the cell sits at horizon 0.
    """
    events = evaluate_rules(frame, kb)
    blocking_names = sorted({r.fault_name for r in kb.rules if r.severity == BLOCKING})
    cycles = np.unique(frame.cycle)
    truth = {(g.event.cycle, g.event.fault_name) for g in gt.blocking_events()}
    predicted = {(e.cycle, e.fault_name) for e in events if e.severity == BLOCKING}
    y_true, y_pred = [], []
    for c in cycles:
        for name in blocking_names:
            y_true.append(int((int(c), name) in truth))
            y_pred.append(int((int(c), name) in predicted))
    metrics = compute_metrics(y_true, y_pred)
    cell = {"model": "rules", "horizon_minutes": 0, "params": {},
            "validation": None, "test": asdict(metrics)}
    best, reason = select_best([cell])
    counts = {
        "ground_truth_events": len(gt.events),
        "ground_truth_blocking": len(gt.blocking_events()),
        "logged_events": len(gt.logged_events()),
        "rule_detections": len(events),
        "rule_detections_blocking": sum(1 for e in events if e.severity == BLOCKING),
    }
    return ScenarioReport(scenario="baseline", cells=(cell,), best=best,
                          reason=reason, seed=seed, counts=counts)


def run_scenario(frame, gt, kb: KnowledgeBase, scenario: str, config) -> ScenarioReport:
    """Score one scenario end to end on already-generated telemetry."""
    if scenario == "baseline":
        return _baseline_report(frame, gt, kb, config.seed)
    ds = build_dataset(frame, kb, scenario, config.preprocess, config.split[0])
    split = split_chronological(ds, config.split)
    cells = []
    for horizon in config.horizons_minutes:
        labels, valid = label_horizon(ds, horizon)
        _check_labels_within_parts(ds, split, horizon, labels, valid)
        tr = split.train & valid
        va = split.validation & valid
        te = split.test & valid
        if not (tr.any() and va.any() and te.any()):
            raise ValueError(f"horizon {horizon} leaves an empty split part")
        for family in FAMILY_ORDER:
            seed = int(substream(config.seed, "tune", scenario, family,
                                 horizon).integers(2 ** 31))
            tuned = tune_and_fit(ds.X[tr], labels[tr], ds.X[va], labels[va],
                                 family, config.grids[family], seed)
            test_metrics = compute_metrics(labels[te], tuned.model.predict(ds.X[te]))
            cells.append({
                "model": family, "horizon_minutes": horizon,
                "params": tuned.params,
                "validation": asdict(tuned.val_metrics),
                "test": asdict(test_metrics),
            })
            log.info("%s %s @%dmin: val F1 %.3f test F1 %.3f", scenario, family,
                     horizon, tuned.val_metrics.f1, test_metrics.f1)
    best, reason = select_best(cells)
    dataset_info = {
        "rows": int(len(ds)),
        "features": int(ds.X.shape[1]),
        "positive_rows": int(ds.y.sum()),
        "train_cycles": list(split.train_cycles),
        "validation_cycles": list(split.validation_cycles),
        "test_cycles": list(split.test_cycles),
        "feature_names": list(ds.feature_names),
        "notes": list(ds.notes),
    }
    return ScenarioReport(scenario=scenario, cells=tuple(cells), best=best,
                          reason=reason, seed=config.seed, dataset=dataset_info)


_CSV_COLUMNS = ("scenario", "model", "horizon_minutes", "split", "tp", "fp",
                "fn", "tn", "accuracy", "precision", "recall", "f1", "flags")


def _cell_rows(report: ScenarioReport):
    for cell in report.cells:
        for part in ("validation", "test"):
            metrics = cell.get(part)
            if metrics is None:
                continue
            yield [report.scenario, cell["model"], cell["horizon_minutes"], part,
                   metrics["tp"], metrics["fp"], metrics["fn"], metrics["tn"],
                   metrics["accuracy"], metrics["precision"], metrics["recall"],
                   metrics["f1"], "|".join(metrics["flags"])]


def write_report(report: ScenarioReport, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    _write_json(os.path.join(out_dir, f"{report.scenario}_report.json"), report)
    with open(os.path.join(out_dir, f"{report.scenario}_cells.csv"), "w",
              newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_COLUMNS)
        writer.writerows(_cell_rows(report))


def compare(frame, gt, kb: KnowledgeBase, config) -> dict:
    """Run baseline and both scenarios; summarize side by side."""
    reports = {s: run_scenario(frame, gt, kb, s, config)
               for s in ("baseline", "s1", "s2")}
    rows = []
    for name, report in reports.items():
        best = report.best
        rows.append({
            "scenario": name,
            "best_model": best["model"] if best else None,
            "best_horizon_minutes": best["horizon_minutes"] if best else None,
            "accuracy": best["test"]["accuracy"] if best else None,
            "f1": best["test"]["f1"] if best else None,
            "reason": report.reason,
        })
    return {"reports": reports, "comparison": rows}


def write_comparison(result: dict, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    for report in result["reports"].values():
        write_report(report, out_dir)
    _write_json(os.path.join(out_dir, "comparison.json"),
                {"comparison": result["comparison"], "reports": result["reports"]})
    # csv writes a float as its repr and None as an empty cell
    columns = ["scenario", "best_model", "best_horizon_minutes", "accuracy", "f1", "reason"]
    with open(os.path.join(out_dir, "comparison.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows([row[c] for c in columns] for row in result["comparison"])
