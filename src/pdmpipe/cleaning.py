"""Gap classification, imputation, and outlier screening for raw telemetry.

Gaps are classified by cause and either deleted or reconstructed from
past cycles. Gap handling is the only step that deals with missing
cells: outlier candidates come from a running-median spike screen and an
invariant-coordinate row screen, which both take the complete frame it
leaves and refuse a NaN or infinite cell, as resampling does. The
candidates are judged against the detected faults so that flagged points
lining up with a fault are kept. The caller chooses which gaps to
reconstruct and whether to judge the candidates at all.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import eigh
from scipy.ndimage import median_filter
from scipy.special import gammaincinv

from .knowledge import BLOCKING, KnowledgeBase, _event_rows, _instances, envelope_breaches
from .timeseries import (
    CAUSE_BLANKET,
    CAUSE_DROPOUT,
    CAUSE_NON_USE,
    IDLE,
    TimeSeriesFrame,
    _require_finite,
    _runs,
)

log = logging.getLogger(__name__)

CAUSE_UNKNOWN = "Unknown"

DISPOSITION_DELETE = "Delete"
DISPOSITION_RECONSTRUCT = "Reconstruct"

VERDICT_CORRECTED = "CorrectedFalsePositive"
VERDICT_TAGGED = "TaggedTrueRelevant"
VERDICT_DROPPED = "DroppedTrueIrrelevant"


@dataclass(frozen=True)
class GapInterval:
    """One maximal run of rows sharing a missingness pattern."""

    start: np.datetime64
    end: np.datetime64          # inclusive
    cause: str
    disposition: str
    channel: str = None         # set only for single-sensor gaps


@dataclass(frozen=True)
class GapReport:
    intervals: tuple


@dataclass(frozen=True)
class OutlierVerdict:
    """Fate of one flagged point (or whole row when channel is None)."""

    index: int
    channel: str
    verdict: str


def classify_gaps(frame: TimeSeriesFrame, reconstruct: bool) -> GapReport:
    """Partition missing cells into causal intervals with dispositions.

    Rows with every channel missing are non-use when idle, blanket
    maintenance otherwise. Rows missing exactly one channel form
    single-sensor gaps; any other pattern is unknown. Single-sensor gaps
    are marked for reconstruction when ``reconstruct`` is set; every
    other interval is deleted.
    """
    names = list(frame.channels)
    missing = np.column_stack([np.isnan(frame.channels[c]) for c in names])
    n_missing = missing.sum(axis=1)
    d = len(names)
    idle = frame.sequence == IDLE
    single_disposition = DISPOSITION_RECONSTRUCT if reconstruct else DISPOSITION_DELETE

    intervals = []
    all_gone = n_missing == d
    # split all-missing runs at idle boundaries so causes stay uniform
    for flavor, cause in ((all_gone & idle, CAUSE_NON_USE),
                          (all_gone & ~idle, CAUSE_BLANKET)):
        for s, e in _runs(flavor):
            intervals.append(GapInterval(
                start=frame.timestamps[s], end=frame.timestamps[e - 1],
                cause=cause, disposition=DISPOSITION_DELETE))

    single = n_missing == 1
    for j, name in enumerate(names):
        for s, e in _runs(single & missing[:, j]):
            intervals.append(GapInterval(
                start=frame.timestamps[s], end=frame.timestamps[e - 1],
                cause=CAUSE_DROPOUT, disposition=single_disposition, channel=name))

    for s, e in _runs((n_missing > 1) & (n_missing < d)):
        intervals.append(GapInterval(
            start=frame.timestamps[s], end=frame.timestamps[e - 1],
            cause=CAUSE_UNKNOWN, disposition=DISPOSITION_DELETE))

    intervals.sort(key=lambda g: (g.start.astype("int64"), g.channel or ""))
    return GapReport(intervals=tuple(intervals))


def impute_single_sensor(frame: TimeSeriesFrame, report: GapReport, k: int = 3) -> TimeSeriesFrame:
    """Fill every Reconstruct interval of ``report`` from the same position
    in past cycles.

    Each missing cell takes the mean of the channel's value at the same
    sequence offset in up to k prior cycles where it was observed; with
    no usable history it falls back to the channel median. A channel
    with no observed cells at all cannot be reconstructed. The intervals
    are filled in report order, and a cell filled by an earlier interval
    counts as observed, for donors and for the median alike. The rows are
    keyed once by (sequence id, offset), so a cell reads only its own
    key's rows for its donors.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    gaps = [g for g in report.intervals if g.disposition == DISPOSITION_RECONSTRUCT]
    if any(g.channel is None for g in gaps):
        raise ValueError("a Reconstruct interval is not a single-sensor interval")
    if not gaps:
        return frame
    # rows at the same offset into an instance of the same sequence id share a
    # key; key * n + row of every row, ascending
    n = len(frame)
    starts, stops = _instances(frame)
    lengths = stops - starts
    ids = np.unique(frame.sequence[starts], return_inverse=True)[1].ravel()
    key = np.repeat(ids * lengths.max() - starts, lengths) + np.arange(n)
    packed = np.sort(key * n + np.arange(n))
    t = frame.timestamps
    first = np.searchsorted(t, np.array([g.start for g in gaps], dtype="M8"), "left")
    stop = np.searchsorted(t, np.array([g.end for g in gaps], dtype="M8"), "right")
    channels = {}      # name -> (values, observed), one copy per channel filled
    for gap, lo, hi in zip(gaps, first.tolist(), stop.tolist()):
        if gap.channel not in channels:
            values = frame.channels[gap.channel].copy()
            observed = ~np.isnan(values)
            if not observed.any():
                raise ValueError(f"channel {gap.channel!r} has no observed cells")
            channels[gap.channel] = values, observed
        values, observed = channels[gap.channel]
        rows = lo + np.flatnonzero(~observed[lo:hi])
        # a gap row's donors lie from its key's first entry up to its own cycle's
        # first row; cycles never decrease, so every earlier cycle's rows come before it
        heads = np.searchsorted(packed, key[rows] * n)
        ends = np.searchsorted(packed, key[rows] * n
                               + np.searchsorted(frame.cycle, frame.cycle[rows]))
        fallback = None    # the median, taken once a row has no donor
        for r, head, end in zip(rows.tolist(), heads.tolist(), ends.tolist()):
            pool = packed[head:end] % n
            donors = values[pool[observed[pool]][-k:][::-1]]   # nearest cycle first
            if donors.size:
                values[r] = float(np.mean(donors))
            else:
                if fallback is None:
                    fallback = float(np.median(values[observed]))
                values[r] = fallback
        observed[rows] = True
    return replace(frame, channels={**frame.channels,
                                    **{name: values for name, (values, _) in channels.items()}})


def drop_intervals(frame: TimeSeriesFrame, report: GapReport) -> TimeSeriesFrame:
    """Remove every row covered by a Delete interval.

    Timestamps increase, so each interval covers one slice of rows; its
    bounds come from ``searchsorted``, and a row is deleted when the
    running count of opened minus closed slices is positive there.
    """
    delete = [g for g in report.intervals if g.disposition == DISPOSITION_DELETE]
    t = frame.timestamps
    n = len(t)
    first = np.searchsorted(t, np.array([g.start for g in delete], dtype="M8"), "left")
    stop = np.searchsorted(t, np.array([g.end for g in delete], dtype="M8"), "right")
    keep = np.cumsum(np.bincount(first, minlength=n + 1)
                     - np.bincount(stop, minlength=n + 1))[:n] <= 0
    return frame.take(np.flatnonzero(keep))


_QUARTILES = np.array([0.25, 0.75])


def _iqr_fences(samples, k: float):
    """Fences Q1 - k*IQR and Q3 + k*IQR of each sample, as two arrays.

    Each sample is a non-empty 1-D float array without NaN. Its quartiles
    are ``np.quantile(sample, [0.25, 0.75], method="linear")`` bit for bit,
    because they are computed as numpy computes them: the virtual index is
    (m-1)*q, an index at or above the last one reads the largest value
    with weight index + 1, one ``np.partition`` per sample with numpy's
    kth list (so even tied zeros keep their sign) gives the order
    statistics, and ``a + (b-a)*t``, or ``b - (b-a)*(1-t)`` when
    t >= 0.5, interpolates them as numpy's ``_lerp`` does.
    """
    last = np.array([len(x) - 1 for x in samples])[:, None]
    virtual = last * _QUARTILES
    below = np.floor(virtual)
    above = virtual >= last
    below[above] = -1
    upper = below + 1
    upper[above] = -1
    t = virtual - below
    stats = np.empty((len(samples), 4))
    for j, ranks in enumerate(np.hstack([below, upper]).astype(np.intp).tolist()):
        stats[j] = np.partition(samples[j], sorted({0, -1, *ranks}))[ranks]
    a, b = stats[:, :2], stats[:, 2:]
    diff = b - a
    q = np.where(t >= 0.5, b - diff * (1 - t), a + diff * t)
    iqr = q[:, 1] - q[:, 0]
    return q[:, 0] - k * iqr, q[:, 1] + k * iqr


def _ics_in_place(X: np.ndarray, m: int, alpha: float) -> np.ndarray:
    """Row indices of a float matrix unusual under an invariant-coordinate
    projection. The caller gives ``X`` up: it is centered in place.

    Pairs the covariance with the fourth-moment scatter, solves the
    generalized eigenproblem, keeps the m most kurtotic components, and
    flags rows whose squared score exceeds the chi-square(m) quantile
    at level alpha.
    """
    if X.ndim != 2:
        raise ValueError("X must be 2-dimensional")
    n, d = X.shape
    if n < 10 * d:
        raise ValueError(f"need at least {10 * d} rows for {d} channels, got {n}")
    if not 1 <= m <= d:
        raise ValueError("m must be between 1 and the number of channels")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")

    X -= X.mean(axis=0)
    cov = X.T @ X / (n - 1)
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise ValueError("covariance scatter is singular") from None
    # squared Mahalanobis distances via the Cholesky factor; the scaled
    # product stays one gemm over all rows, which blocks would sum otherwise
    d2 = _mahalanobis_sq(X, chol)
    cov4 = (X * d2[:, None]).T @ X / (n * (d + 2))
    try:
        eigvals, eigvecs = eigh(cov4, cov)
    except np.linalg.LinAlgError:
        raise ValueError("scatter pair is not jointly diagonalizable") from None
    order = np.argsort(eigvals)[::-1]       # most kurtotic directions first
    V = eigvecs[:, order[:m]]
    scores = X @ V
    dist = np.sum(scores * scores, axis=1)
    return np.flatnonzero(dist > _chi2_quantile(1.0 - alpha, m))


_SOLVE_BLOCK_ROWS = 1 << 12


def _mahalanobis_sq(X: np.ndarray, chol: np.ndarray) -> np.ndarray:
    """Squared norm of ``np.linalg.solve(chol, X.T)``'s columns, bit for bit,
    solved for a block of rows at a time.

    A row's solve and column sum come out the same in any block of two or
    more rows; LAPACK solves a single right-hand side by another path, so no
    block is one row.
    """
    n = X.shape[0]
    d2 = np.empty(n)
    bounds = [*range(0, n - 1, _SOLVE_BLOCK_ROWS), n]
    for lo, hi in zip(bounds, bounds[1:]):
        w = np.linalg.solve(chol, X[lo:hi].T)
        w *= w
        d2[lo:hi] = np.sum(w, axis=0)
    return d2


def _chi2_quantile(q: float, df: int) -> float:
    """The ``q`` quantile of chi-square(``df``), bit for bit as
    ``scipy.stats.chi2.ppf`` computes it, without importing ``scipy.stats``."""
    return 2.0 * gammaincinv(df / 2.0, q)


def _span_medians(x: np.ndarray, starts: np.ndarray, stops: np.ndarray,
                  window: int) -> np.ndarray:
    """Centered running median of ``x`` inside each [start, stop) span.

    Windows shrink at a span's edges, as ``np.median`` over each window
    would. Every span must be longer than ``window``; rows outside the
    spans get unspecified values.
    Interior rows come from one median filter over the whole array (the
    window is odd, so each median is one selected element); the clipped
    edge windows of all spans are sorted together in one padded block.
    """
    n = len(x)
    half = window // 2
    med = median_filter(x, size=window, mode="nearest")

    # the edge rows and their windows, clipped at the span's ends
    offsets = np.arange(half)
    head = (starts[:, None] + offsets).ravel()
    tail = (stops[:, None] - half + offsets).ravel()
    edge = np.concatenate([head, tail])
    lo = np.concatenate([np.repeat(starts, half), tail - half])
    hi = np.concatenate([head + half + 1, np.repeat(stops, half)])
    count = hi - lo
    cells = lo[:, None] + np.arange(window - 1)
    inside = cells < hi[:, None]
    cells = np.minimum(cells, n - 1)
    block = np.where(inside, x[cells], np.inf)
    block.sort(axis=1)
    r = np.arange(len(edge))
    mid = block[r, (count - 1) // 2]
    even = count % 2 == 0
    mid[even] = (mid[even] + block[r[even], count[even] // 2]) / 2
    med[edge] = mid
    med += 0.0      # np.median sums from +0.0, so it never returns -0.0
    return med


def detrended_iqr_flags(frame: TimeSeriesFrame, k: float, window: int = 31):
    """Per-channel spike candidates as (row, channel) pairs.

    Each channel is screened per sequence instance against its running
    median, so ramps and decays stay inside the fences while isolated
    spikes stand out. Rows within half a window of an instance boundary
    are exempt: the shrinking median is biased there and a trend looks
    like a spike. Instances no longer than the window are skipped.

    The channels are screened one at a time in this process, and each
    channel's temporaries are freed before the next is screened. The pairs
    come back sorted.
    """
    if window < 3 or window % 2 == 0:
        raise ValueError(f"window must be odd and >= 3, got {window}")
    if k < 0:
        raise ValueError("k must be >= 0")
    _require_finite(frame)
    half = window // 2
    spans = [(s, e) for s, e in zip(*_instances(frame)) if e - s > window]
    if not spans:
        return []
    starts, stops = np.array(spans, dtype=np.int64).T
    # the rows each column of a channel's fences covers: a screened interior
    # takes its instance's fences (the odd columns), every other row NaN,
    # which no residual crosses
    sizes = np.diff(np.column_stack([starts + half, stops - half]).ravel(),
                    prepend=0, append=len(frame))
    flags = []
    for name, values in frame.channels.items():
        resid = _span_medians(values, starts, stops, window)
        np.subtract(values, resid, out=resid)
        fence_lo, fence_hi = _iqr_fences([resid[s:e] for s, e in spans], k)
        fences = np.full((2, 2 * len(fence_lo) + 1), np.nan)
        fences[:, 1::2] = fence_lo, fence_hi
        row_lo, row_hi = np.repeat(fences, sizes, axis=1)
        crossed = (resid < row_lo) | (resid > row_hi)
        flags.extend((row, name) for row in np.flatnonzero(crossed).tolist())
        del resid, row_lo, row_hi, crossed
    flags.sort(key=lambda f: (f[0], f[1]))
    return flags


def ics_flags(frame: TimeSeriesFrame, m: int, alpha: float):
    """Whole-row candidates per sequence id, pooled across cycles.

    An ``m`` outside 1 to the frame's channel count is an error: the
    screen would skip every id, so no row would be screened.
    """
    _require_finite(frame)
    names = list(frame.channels)
    if not 1 <= m <= len(names):
        raise ValueError(f"ics_m must be between 1 and {len(names)}, the number of "
                         f"channels left, got {m}")
    ids, group = np.unique(frame.sequence, return_inverse=True)
    # the rows of each id, ascending, as consecutive slices of one ordering
    order = np.argsort(group, kind="stable")
    counts = np.bincount(group, minlength=len(ids))
    del group
    ends = np.cumsum(counts)
    flags = []
    for sid, lo, hi in zip(ids, ends - counts, ends):
        rows = order[lo:hi]
        sub = np.empty((len(rows), len(names)))
        for j, name in enumerate(names):
            sub[:, j] = frame.channels[name][rows]
        if any(np.ptp(sub[:, j]) == 0 for j in range(sub.shape[1])):
            log.info("skipping ICS on %s: constant channel", sid)
            continue
        try:
            local = _ics_in_place(sub, m, alpha)    # sub is not read again
        except ValueError as exc:
            log.info("skipping ICS on %s: %s", sid, exc)
            continue
        flags.extend((int(rows[i]), None) for i in local)
    flags.sort(key=lambda f: f[0])
    return flags


def verify_outliers(frame: TimeSeriesFrame, flags, kb: KnowledgeBase, events,
                    window_minutes: int = 60):
    """Judge each flagged point against the fault picture.

    Points from ``window_minutes`` before a blocking onset to the end of
    that fault's run are true precursors and kept. A point is corrected by
    interpolation when neither neighbor is flagged on its channel or
    row-wide and both sit inside their operating envelopes. Everything
    else is dropped as irrelevant. A NaN or infinite cell is an error.
    """
    _require_finite(frame)
    t_int = frame.timestamps.astype("int64")
    blocking = [e for e in events if e.severity == BLOCKING]
    windows = []
    for e, span in zip(blocking, _event_rows(frame, blocking)):
        onset = e.onset.astype("int64")
        end = onset if span is None else t_int[span[1] - 1]
        windows.append((onset - window_minutes * 60, end))

    flagged_rows = {}
    for row, channel in flags:
        flagged_rows.setdefault(row, set()).add(channel)
    breaches = envelope_breaches(frame, kb)
    any_breach = np.logical_or.reduce(list(breaches.values()))

    def is_relevant(row: int) -> bool:
        ts = t_int[row]
        return any(lo <= ts <= hi for lo, hi in windows)

    def neighbor_ok(row: int, channel: str) -> bool:
        if row < 0 or row >= len(frame):
            return False
        if channel in flagged_rows.get(row, ()) or None in flagged_rows.get(row, ()):
            return False
        if channel is None:
            return not any_breach[row]
        return not breaches[channel][row]

    verdicts = []
    seen = set()
    for row, channel in flags:
        if channel is None and any(c is not None for c in flagged_rows[row]):
            # a channel-specific flag on the same row takes precedence
            continue
        if (row, channel) in seen:
            continue
        seen.add((row, channel))
        if is_relevant(row):
            verdicts.append(OutlierVerdict(row, channel, VERDICT_TAGGED))
        elif neighbor_ok(row - 1, channel) and neighbor_ok(row + 1, channel):
            verdicts.append(OutlierVerdict(row, channel, VERDICT_CORRECTED))
        else:
            verdicts.append(OutlierVerdict(row, channel, VERDICT_DROPPED))
    return verdicts


def apply_verdicts(frame: TimeSeriesFrame, verdicts) -> TimeSeriesFrame:
    """Correct or drop rows per the verdict list; tagged points pass through.

    A corrected cell takes the mean of its two neighbours. ``verify_outliers``
    corrects a point only where neither neighbour is flagged on that
    channel or row-wide, so no correction reads another one's result. A
    correction reads and writes one channel (a whole-row one, each channel
    in turn), so the channels are handled one at a time: a channel is
    copied only when a correction writes to it, and cut to the kept rows
    before the next one. A channel that is neither corrected nor cut is
    shared with ``frame``, whose arrays are never written. A verdict row
    outside the frame, or a correction at its first or last row, raises a
    ``ValueError``.
    """
    n = len(frame)
    for v in verdicts:
        if not (0 < v.index < n - 1 if v.verdict == VERDICT_CORRECTED else 0 <= v.index < n):
            raise ValueError(f"{v.verdict} at row {v.index} of a {n}-row frame: rows run "
                             f"0 .. {n - 1}, and a corrected point needs a row either side")
    corrected = [v for v in verdicts if v.verdict == VERDICT_CORRECTED]
    drop = [v.index for v in verdicts if v.verdict == VERDICT_DROPPED]
    keep = None
    if drop:
        mask = np.ones(len(frame), dtype=bool)
        mask[drop] = False
        keep = np.flatnonzero(mask)
    unknown = {v.channel for v in corrected} - {None, *frame.channels}
    if unknown:
        raise ValueError(f"verdict for unknown channel {sorted(unknown)[0]!r}")
    channels = {}
    for name, values in frame.channels.items():
        own = [v for v in corrected if v.channel in (name, None)]
        if own:
            values = values.copy()
            for v in own:
                values[v.index] = (values[v.index - 1] + values[v.index + 1]) / 2
        channels[name] = values if keep is None else values[keep]
    rest = replace(frame, channels={})
    if keep is not None:
        rest = rest.take(keep)
    return replace(rest, channels=channels)
