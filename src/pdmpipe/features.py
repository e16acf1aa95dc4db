"""Feature reduction, knowledge integration, and dataset assembly.

The curated dataset is built in a fixed order: clean, reduce channels,
integrate fault knowledge, transform, resample to the working interval,
then keep only the sequences where prediction matters. Both scenarios
share the machinery; ``build_dataset`` withholds the knowledge base
from the data-driven one, which then skips every step that needs it.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from ._spec import bounded, check_fields
from .cleaning import (
    DISPOSITION_RECONSTRUCT,
    GapReport,
    apply_verdicts,
    classify_gaps,
    detrended_iqr_flags,
    drop_intervals,
    ics_flags,
    impute_single_sensor,
    verify_outliers,
)
from .knowledge import BLOCKING, CYCLE_STOP, KnowledgeBase, _event_rows, evaluate_rules
from .timeseries import (
    IDLE,
    SEQUENCE_IDS,
    TimeSeriesFrame,
    _write_json,
    _write_table,
    resample,
    slice_by_sequence,
)

log = logging.getLogger(__name__)

BALANCE_SEQUENCES = ("S09", "S10")
STAT_FEATURES = ("stat_mean", "stat_median", "stat_variance")
_STAT_BLOCK_ROWS = 1 << 12
TARGET = "target"


@dataclass(frozen=True)
class PcaResult:
    loadings: np.ndarray        # (channels, retained components)
    explained: np.ndarray       # fraction per component, descending
    retained: int


def pca(X: np.ndarray, variance_threshold: float = 0.95) -> PcaResult:
    """Eigendecomposition of the covariance, keeping the smallest prefix
    of components that explains the requested variance fraction."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < 2:
        raise ValueError("need at least two rows")
    if not 0.0 < variance_threshold <= 1.0:
        raise ValueError("variance threshold must be in (0, 1]")
    centered = X - X.mean(axis=0)
    cov = centered.T @ centered / (X.shape[0] - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    eigvals = np.maximum(eigvals[order], 0.0)
    eigvecs = eigvecs[:, order]
    # deterministic sign: largest-magnitude entry positive
    for j in range(eigvecs.shape[1]):
        i = int(np.argmax(np.abs(eigvecs[:, j])))
        if eigvecs[i, j] < 0:
            eigvecs[:, j] = -eigvecs[:, j]
    total = eigvals.sum()
    if total == 0:
        raise ValueError("covariance has no variance to explain")
    explained = eigvals / total
    cumulative = np.cumsum(explained)
    retained = int(np.searchsorted(cumulative, variance_threshold - 1e-12) + 1)
    retained = min(retained, len(eigvals))
    return PcaResult(loadings=eigvecs[:, :retained],
                     explained=explained, retained=retained)


@dataclass(frozen=True)
class FeatureSelection:
    selected: tuple
    max_loading: dict
    retained_components: int
    explained: tuple
    notes: tuple = ()


def select_features(names, pca_result: PcaResult, kb: KnowledgeBase = None,
                    tau: float = 0.30) -> FeatureSelection:
    """Keep channels that load on the retained components.

    With a knowledge base, redundant sensor groups collapse to their
    strongest member and channels referenced by blocking rules are kept
    regardless of loading.
    """
    names = list(names)
    if pca_result.loadings.shape[0] != len(names):
        raise ValueError("loading rows do not match channel names")
    max_loading = {n: float(np.max(np.abs(pca_result.loadings[i])))
                   for i, n in enumerate(names)}
    keep = {n for n in names if max_loading[n] >= tau}
    notes = []
    for n in sorted(set(names) - keep):
        notes.append(f"dropped {n}: max loading {max_loading[n]:.3f} below {tau}")
    if kb is not None:
        for group in kb.redundancy:
            present = [n for n in group if n in keep]
            if len(present) > 1:
                best = min(present, key=lambda n: (-max_loading[n], n))
                for n in present:
                    if n != best:
                        keep.discard(n)
                        notes.append(f"dropped {n}: redundant with {best}")
        for n in sorted(kb.blocking_channels()):
            if n in names and n not in keep:
                keep.add(n)
                notes.append(f"kept {n}: referenced by a blocking rule")
    selected = tuple(n for n in names if n in keep)
    if not selected:
        raise ValueError("feature selection removed every channel")
    return FeatureSelection(
        selected=selected, max_loading=max_loading,
        retained_components=pca_result.retained,
        explained=tuple(float(e) for e in pca_result.explained),
        notes=tuple(notes))


def standardize(frame: TimeSeriesFrame, fit_mask: np.ndarray):
    """Z-score every channel with moments from the fit rows only."""
    if fit_mask.dtype != bool or len(fit_mask) != len(frame):
        raise ValueError("fit mask must be a boolean row mask")
    if not fit_mask.any():
        raise ValueError("fit mask selects no rows")
    channels = {}
    scaler = {}
    for name, values in frame.channels.items():
        fit = values[fit_mask]
        mean = float(np.mean(fit))
        std = float(np.std(fit))
        if std == 0.0:
            log.warning("channel %s has zero variance on fit rows", name)
            std = 1.0
        scaler[name] = (mean, std)
        z = values - mean
        z /= std
        channels[name] = z
    units = {**frame.units, **dict.fromkeys(channels, "z")}
    return replace(frame, channels=channels, units=units), scaler


def add_statistical_features(frame: TimeSeriesFrame, over=None) -> TimeSeriesFrame:
    """Append per-row mean, median, and population variance channels."""
    names = list(over) if over is not None else list(frame.channels)
    missing = [n for n in names if n not in frame.channels]
    if missing:
        raise ValueError(f"unknown channels {missing}")
    stats = np.empty((len(STAT_FEATURES), len(frame)))
    # each row's statistics depend on that row alone, so a block of rows at
    # a time gives the same bits and bounds the stacked copy and its temporaries
    for lo in range(0, len(frame), _STAT_BLOCK_ROWS):
        block = slice(lo, lo + _STAT_BLOCK_ROWS)
        stack = np.column_stack([frame.channels[n][block] for n in names])
        stats[:, block] = stack.mean(axis=1), np.median(stack, axis=1), stack.var(axis=1)
    out = frame
    for name, values in zip(STAT_FEATURES, stats):
        out = out.with_channel(name, values, "z")
    return out


def prioritize(events, top_n: int = 10):
    """Rank causes by frequency among blocking events; mark the top ones.

    Competition ranking: ties share a rank and widen the cut rather than
    split it. Returns the re-annotated events and the ranking table.
    """
    if top_n < 1:
        raise ValueError("top_n must be >= 1")
    counts = Counter()
    for e in events:
        counts.setdefault(e.cause, 0)
        if e.severity == BLOCKING:
            counts[e.cause] += 1
    ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    table = []
    prioritized = set()
    for cause, count in ordered:
        rank = 1 + sum(1 for _, c in ordered if c > count)
        if rank <= top_n:
            prioritized.add(cause)
        table.append({"cause": cause, "count": count, "rank": rank,
                      "prioritized": rank <= top_n})
    annotated = tuple(
        replace(e, priority=e.cause in prioritized) for e in events)
    return annotated, tuple(table)


def _cause_columns(kb: KnowledgeBase):
    columns = []
    for entry in kb.fmeca:
        for cause in entry.causes:
            name = "cause_" + cause.replace(" ", "_")
            if name not in [c for c, _ in columns]:
                columns.append((name, cause))
    return columns


def annotate_faults(frame: TimeSeriesFrame, events, kb: KnowledgeBase) -> TimeSeriesFrame:
    """Stamp fault knowledge onto the rows each event covers.

    An event covers its sequence instance from onset to the instance
    end; those rows receive the severity and consequence bits, the
    cause one-hot, and the priority bit.
    """
    n = len(frame)
    cause_cols = _cause_columns(kb)
    cause_of = {c: name for name, c in cause_cols}
    arrays = {name: np.zeros(n, dtype=np.int64) for name, _ in cause_cols}
    severity = np.zeros(n, dtype=np.int64)
    consequence = np.zeros(n, dtype=np.int64)
    priority = np.zeros(n, dtype=np.int64)

    for e, span in zip(events, _event_rows(frame, events)):
        if e.cause not in cause_of:
            log.warning("event cause %r not in the knowledge base; one-hot left zero", e.cause)
        if span is None:
            log.info("event %s in cycle %d covers no surviving rows", e.fault_name, e.cycle)
            continue
        rows = slice(*span)
        if e.severity == BLOCKING:
            severity[rows] = 1
        if e.consequence == CYCLE_STOP:
            consequence[rows] = 1
        if e.priority:
            priority[rows] = 1
        if e.cause in cause_of:
            arrays[cause_of[e.cause]][rows] = 1

    return replace(frame, logs={**frame.logs, "severity": severity,
                                "consequence": consequence, "priority": priority,
                                **arrays})


def reconstruct_target(frame: TimeSeriesFrame) -> TimeSeriesFrame:
    """Target = blocking severity AND cycle-stop consequence AND priority."""
    for name in ("severity", "consequence", "priority"):
        if name not in frame.logs:
            raise ValueError(f"missing {name!r} log; integrate fault knowledge first")
    target = (frame.logs["severity"] & frame.logs["consequence"]
              & frame.logs["priority"]).astype(np.int64)
    return replace(frame, logs={**frame.logs, TARGET: target})


def encode_sequence(sequence: np.ndarray) -> np.ndarray:
    """Ordinal sequence position: idle is 0, S01..S13 are 1..13."""
    vocab = np.array((IDLE, *SEQUENCE_IDS))   # sorted, so its index is the code
    sequence = np.asarray(sequence)
    codes = np.minimum(np.searchsorted(vocab, sequence), len(vocab) - 1)
    unknown = np.flatnonzero(vocab[codes] != sequence)
    if unknown.size:
        raise ValueError(f"unknown sequence id {str(sequence[unknown[0]])!r}")
    return codes.astype(np.int64)


def _cycle_minutes(frame: TimeSeriesFrame) -> np.ndarray:
    """Within-cycle position of each row, in minutes since its cycle's first
    row; it survives row deletion and resamples to the bucket's end minute."""
    t_sec = frame.timestamps.astype(np.int64)
    _, first_idx, inverse = np.unique(frame.cycle, return_index=True,
                                      return_inverse=True)
    return (t_sec - t_sec[first_idx][inverse]) // 60


@dataclass(frozen=True)
class PreprocessParams:
    resample_minutes: int = bounded(">= 1", default=15)
    variance_threshold: float = bounded("(0, 1]", default=0.95)
    tau: float = bounded("[0, 1]", default=0.30)
    top_n: int = bounded(">= 1", default=10)
    iqr_k: float = bounded(">= 0", default=4.0)
    iqr_window: int = bounded(">= 3", default=31)
    ics_m: int = bounded(">= 1", default=2)
    ics_alpha: float = bounded("(0, 1)", default=2e-5)
    impute_k: int = bounded(">= 1", default=3)
    verify_window_minutes: int = bounded(">= 0", default=60)
    column_drop_missing_fraction: float = bounded("[0, 1]", default=0.5)

    def __post_init__(self):
        check_fields(self)
        if self.iqr_window % 2 == 0:
            raise ValueError(f"iqr_window must be odd and >= 3, got {self.iqr_window}")


@dataclass(frozen=True)
class CuratedDataset:
    """Model-ready matrix plus everything needed to audit or rebuild it."""

    scenario: str
    feature_names: tuple
    X: np.ndarray
    y: np.ndarray
    cycles: np.ndarray
    sequences: np.ndarray
    timestamps: np.ndarray
    interval_minutes: int
    scaler: dict
    selection: FeatureSelection
    gap_report: GapReport
    verdict_counts: dict = field(default_factory=dict)
    notes: tuple = ()

    def __len__(self):
        return self.X.shape[0]

    def to_files(self, csv_path, meta_path) -> None:
        _write_table(csv_path, ["timestamp", "cycle", "sequence", *self.feature_names, TARGET],
                     self.timestamps, [self.cycles, self.sequences, *self.X.T, self.y])
        # the sidecar holds every field but the arrays the CSV holds
        sidecar = ("scenario", "feature_names", "interval_minutes", "scaler", "selection",
                   "gap_report", "verdict_counts", "notes")
        _write_json(meta_path, {name: getattr(self, name) for name in sidecar})


def build_dataset(frame: TimeSeriesFrame, kb: KnowledgeBase, scenario: str,
                  params: PreprocessParams = None,
                  train_fraction: float = 0.6) -> CuratedDataset:
    """Run the full curation pipeline on raw telemetry.

    Order: clean (gaps, then outliers), reduce channels, integrate fault
    knowledge, transform, resample, balance. The scenario is decided once:
    the data-driven one (s1) gets no knowledge base, and every later step
    asks only whether one is present. Without it, gaps and flagged rows
    are deleted and the automation fault log is the target. The final
    scaler is fitted on the leading ``train_fraction`` of the cycles, the
    share the chronological split trains on.
    """
    params = params or PreprocessParams()
    if scenario not in ("s1", "s2"):
        raise ValueError(f"unknown scenario {scenario!r}")
    if not 0 < train_fraction < 1:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    kb = kb if scenario == "s2" else None
    notes = []

    frame = replace(frame, logs={**frame.logs, "cycle_minute": _cycle_minutes(frame)})

    # cleaning: oversparse columns, then gaps, then outliers
    fractions = {name: float(np.isnan(values).mean())
                 for name, values in frame.channels.items()}
    for name, frac in fractions.items():
        if frac > params.column_drop_missing_fraction:
            frame = frame.drop_channels([name])
            notes.append(f"dropped column {name}: {frac:.0%} missing")
    if not frame.channels:
        raise ValueError("every channel exceeded the missing-fraction limit")

    report = classify_gaps(frame, reconstruct=kb is not None)
    for gap in report.intervals:
        if gap.disposition == DISPOSITION_RECONSTRUCT:
            frame = impute_single_sensor(frame, gap, params.impute_k)
    frame = drop_intervals(frame, report)
    if len(frame) == 0:
        raise ValueError("gap handling removed every row")
    for name, values in frame.channels.items():
        if np.isnan(values).any():
            raise ValueError(f"missing cells remain in {name} after cleaning")

    flags = detrended_iqr_flags(frame, params.iqr_k, params.iqr_window)
    flags.extend(ics_flags(frame, params.ics_m, params.ics_alpha))
    flags.sort(key=lambda f: (f[0], f[1] or ""))
    if kb is None:
        drop = sorted({row for row, _ in flags})
        keep = np.ones(len(frame), dtype=bool)
        keep[drop] = False
        frame = frame.take(keep)
        verdict_counts = {"deleted_rows": len(drop)}
    else:
        events = evaluate_rules(frame, kb)
        verdicts = verify_outliers(frame, flags, kb, events,
                                   params.verify_window_minutes)
        verdict_counts = dict(Counter(v.verdict for v in verdicts))
        frame = apply_verdicts(frame, verdicts)
    if len(frame) == 0:
        raise ValueError("outlier handling removed every row")

    # reduction on internally standardized channels, in place in one matrix
    names = list(frame.channels)
    X = np.column_stack([frame.channels[n] for n in names])
    std = X.std(axis=0)
    std[std == 0] = 1.0
    X -= X.mean(axis=0)
    X /= std
    reduction = pca(X, params.variance_threshold)
    del X
    selection = select_features(names, reduction, kb, params.tau)
    frame = frame.drop_channels([n for n in names if n not in selection.selected])

    # knowledge integration: the target, and with a knowledge base the
    # fault annotations it is reconstructed from
    if kb is None:
        frame = replace(frame, logs={
            **frame.logs, TARGET: (frame.logs["fault_log"] > 0).astype(np.int64)})
        kb_columns = []
    else:
        events, priority_table = prioritize(events, params.top_n)
        frame = reconstruct_target(annotate_faults(frame, events, kb))
        notes.extend(f"cause {row['cause']}: {row['count']} blocking events, rank {row['rank']}"
                     for row in priority_table)
        kb_columns = ["severity", "consequence",
                      *[name for name, _ in _cause_columns(kb)], "priority"]

    # transform: scaler fitted on the leading train cycles only
    unique_cycles = np.unique(frame.cycle)
    n_train = max(1, math.floor(train_fraction * len(unique_cycles)))
    train_cycles = set(unique_cycles[:n_train].tolist())
    fit_mask = np.isin(frame.cycle, list(train_cycles))
    frame, scaler = standardize(frame, fit_mask)
    frame = add_statistical_features(frame, selection.selected)

    frame = resample(frame, params.resample_minutes)
    frame = slice_by_sequence(frame, BALANCE_SEQUENCES)
    if len(frame) == 0:
        raise ValueError("balance window removed every row")

    # the cycle number stays split metadata, not a feature: a chronological
    # split makes it a row id the trees would memorize
    channel_names = list(frame.channels)   # selected + statistical
    feature_names = [*channel_names, "sequence", "cycle_minute", *kb_columns]
    X = np.column_stack([*(frame.channels[n] for n in channel_names),
                         encode_sequence(frame.sequence).astype(float),
                         frame.logs["cycle_minute"].astype(float),
                         *(frame.logs[c].astype(float) for c in kb_columns)])
    y = frame.logs[TARGET].astype(np.int8)
    notes.append(f"{len(frame)} rows, {X.shape[1]} features, "
                 f"{int(y.sum())} positive")
    return CuratedDataset(
        scenario=scenario, feature_names=tuple(feature_names), X=X, y=y,
        cycles=frame.cycle.copy(), sequences=frame.sequence.copy(),
        timestamps=frame.timestamps.copy(),
        interval_minutes=params.resample_minutes, scaler=scaler,
        selection=selection, gap_report=report,
        verdict_counts=verdict_counts, notes=tuple(notes))
