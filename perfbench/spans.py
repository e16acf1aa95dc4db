"""Spans around the pdmpipe layer boundaries, recorded from outside the program.

``Tracer.install`` replaces, with a wrapper that records a span, every
public function of a pdmpipe layer module found in the module globals of
``pdmpipe.cli``, ``pdmpipe.evaluation`` and ``pdmpipe.features`` (where
their callers look the names up), the ``predict`` methods of the model
classes, and ``CuratedDataset.to_files``. A span holds id, parent id,
command id, name, start and end; its name is ``<module>.<function>`` of
the wrapped function, so it names the layer that does the work. Counts
are taken from call arguments and return values after the span has
ended. Spans stay in memory; the worker writes them out when its
commands end.

``layer_metrics`` turns a span list into the per-layer metrics.
"""

from __future__ import annotations

import functools
import time
import types

import numpy as np


def _nan_cells(frame) -> int:
    return int(sum(np.isnan(v).sum() for v in frame.channels.values()))


def _nodes(trees) -> int:
    return sum(len(t.feature) for t in trees)


def _flags(args, result):
    return {"cleaning.outlier_flags": len(result)}


def _rows_dropped(args, result):
    return {"cleaning.rows_dropped": len(args[0]) - len(result)}


def _dataset(args, result):
    return {"features.rows_out": len(result),
            "features.features_out": int(result.X.shape[1]),
            "features.positive_rows": int(result.y.sum()),
            # s1 deletes flagged rows inline; build_dataset reports how many
            "cleaning.rows_dropped": int(result.verdict_counts.get("deleted_rows", 0))}


def _fit(args, result):
    return {"models.fits": 1, "models.train_rows": len(args[0])}


# span name -> (call args, return value) -> {count metric: value}
COUNTS = {
    "simulator.simulate": lambda a, r: {"simulator.raw_rows": len(r[0])},
    "knowledge.evaluate_rules": lambda a, r: {"knowledge.evaluate_rules_calls": 1,
                                              "knowledge.rule_events": len(r)},
    "cleaning.detrended_iqr_flags": _flags,
    "cleaning.ics_flags": _flags,
    "cleaning.impute_single_sensor": lambda a, r: {
        "cleaning.cells_imputed": _nan_cells(a[0]) - _nan_cells(r)},
    "cleaning.drop_intervals": _rows_dropped,
    "cleaning.apply_verdicts": _rows_dropped,
    "features.build_dataset": _dataset,
    "timeseries.write_csv": lambda a, r: {"timeseries.write_csv_rows": len(a[0])},
    "timeseries.resample": lambda a, r: {"timeseries.resample_rows_in": len(a[0])},
    "models.fit_forest": lambda a, r: {**_fit(a, r), "models.forest_nodes": _nodes(r.trees)},
    "models.fit_gbdt": lambda a, r: {**_fit(a, r), "models.gbdt_trees": len(r.trees),
                                     "models.gbdt_nodes": _nodes(r.trees)},
    "models.fit_svm": _fit,
    "evaluation.run_scenario": lambda a, r: {"evaluation.cells": len(r.cells)},
}

# inclusive time of a group of spans: a span counts unless an ancestor is in the
# group; set-up spans (import, first config and knowledge base load) count too
INCLUSIVE = {
    "pdmpipe.import_s": ("pdmpipe.import",),
    "config.load_config_s": ("config.load_config",),
    "knowledge.default_kb_s": ("knowledge.default_kb",),
    "simulator.simulate_s": ("simulator.simulate",),
    "simulator.inject_s": ("simulator.inject_missing", "simulator.inject_outliers"),
    "knowledge.evaluate_rules_s": ("knowledge.evaluate_rules",),
    "cleaning.detrended_iqr_flags_s": ("cleaning.detrended_iqr_flags",),
    "cleaning.impute_single_sensor_s": ("cleaning.impute_single_sensor",),
    "cleaning.ics_flags_s": ("cleaning.ics_flags",),
    "cleaning.verify_outliers_s": ("cleaning.verify_outliers",),
    "cleaning.apply_verdicts_s": ("cleaning.apply_verdicts",),
    "cleaning.gaps_s": ("cleaning.classify_gaps", "cleaning.drop_intervals"),
    "features.correlation_matrix_s": ("features.correlation_matrix",),
    "features.reduce_s": ("features.pca", "features.select_features"),
    "features.standardize_s": ("features.standardize",),
    "features.add_statistical_features_s": ("features.add_statistical_features",),
    "features.knowledge_s": ("features.prioritize", "features.annotate_faults",
                             "features.reconstruct_target"),
    "features.write_dataset_s": ("features.to_files",),
    "timeseries.write_csv_s": ("timeseries.write_csv",),
    "timeseries.resample_s": ("timeseries.resample",),
    "models.fit_gbdt_s": ("models.fit_gbdt",),
    "models.fit_forest_s": ("models.fit_forest",),
    "models.fit_svm_s": ("models.fit_svm",),
    "models.predict_s": ("models.predict",),
    "evaluation.scoring_s": ("evaluation.label_horizon", "evaluation.split_chronological",
                             "evaluation.compute_metrics"),
    "evaluation.write_s": ("evaluation.write_comparison", "evaluation.write_report"),
}

# self time of one span name: its duration minus its children's
SELF = {
    "features.build_dataset_self_s": "features.build_dataset",
    "evaluation.tune_and_fit_self_s": "evaluation.tune_and_fit",
}

# self time summed per module over the commands' spans; with the unattributed
# rest they add up to the traced wall time
MODULES = ("cli", "config", "knowledge", "simulator", "cleaning",
           "features", "timeseries", "models", "evaluation")

COUNT_METRICS = (
    "simulator.raw_rows", "knowledge.evaluate_rules_calls", "knowledge.rule_events",
    "cleaning.outlier_flags", "cleaning.cells_imputed", "cleaning.rows_dropped",
    "features.rows_out", "features.features_out", "features.positive_rows",
    "timeseries.write_csv_rows", "timeseries.resample_rows_in",
    "models.fits", "models.train_rows", "models.gbdt_trees", "models.gbdt_nodes",
    "models.forest_nodes", "evaluation.cells",
)


class Tracer:
    """Records nested spans in memory; ``command`` tags the spans of the running command."""

    def __init__(self):
        self.spans = []      # [id, parent id, command id, name, start, end, counts]
        self.command = None
        self._stack = []

    def add(self, name: str, start: float, end: float) -> None:
        """A span timed by the caller, such as the package import."""
        parent = self._stack[-1] if self._stack else None
        self.spans.append([len(self.spans), parent, self.command, name, start, end, None])

    def wrap(self, name: str, fn):
        count = COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(self.spans), self._stack[-1] if self._stack else None,
                    self.command, name, 0.0, 0.0, None]
            self.spans.append(span)
            self._stack.append(span[0])
            span[4] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                span[6] = count(args, result)
            return result

        return traced

    def install(self) -> None:
        from pdmpipe import cli, evaluation, features, models

        for module in (cli, evaluation, features):
            for attr, value in list(vars(module).items()):
                layer = getattr(value, "__module__", "").removeprefix("pdmpipe.")
                if (isinstance(value, types.FunctionType) and layer in MODULES
                        and not attr.startswith("_")):
                    setattr(module, attr, self.wrap(f"{layer}.{value.__name__}", value))
        for cls in (models.Forest, models.Gbdt, models.Svm):
            cls.predict = self.wrap("models.predict", cls.predict)
        features.CuratedDataset.to_files = self.wrap(
            "features.to_files", features.CuratedDataset.to_files)


def layer_metrics(spans, wall_s: float) -> dict:
    """Per-layer metrics from a span list, and how they account for ``wall_s``.

    ``wall_s`` is the traced wall time of the commands; the spans of the
    ``cli.main`` calls cover it except for the loop between them, which is
    reported as ``trace.unattributed_s``.
    """
    by_id = {s[0]: s for s in spans}
    own = {s[0]: s[5] - s[4] for s in spans}   # self time: minus the children's time
    for s in spans:
        if s[1] is not None:
            own[s[1]] -= s[5] - s[4]

    def ancestors(s):
        while s[1] is not None:
            s = by_id[s[1]]
            yield s[3]

    metrics = {}
    for metric, names in INCLUSIVE.items():
        metrics[metric] = sum(s[5] - s[4] for s in spans
                              if s[3] in names and not any(a in names for a in ancestors(s)))
    for metric, name in SELF.items():
        metrics[metric] = sum(own[s[0]] for s in spans if s[3] == name)
    for module in MODULES:
        metrics[f"{module}.self_s"] = sum(
            own[s[0]] for s in spans if s[3].split(".", 1)[0] == module and s[2] is not None)
    for key in COUNT_METRICS:
        metrics[key] = 0
    for s in spans:
        for key, value in (s[6] or {}).items():
            metrics[key] += value
    commands = sum(s[5] - s[4] for s in spans if s[3] == "cli.main")
    metrics["trace.wall_s"] = wall_s
    metrics["trace.unattributed_s"] = wall_s - commands
    return metrics
