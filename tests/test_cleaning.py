"""Gap classification, imputation, outlier detection, and verdicts."""

from __future__ import annotations

import os
import re
import signal
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pdmpipe import (
    SimConfig,
    _fork,
    apply_verdicts,
    classify_gaps,
    drop_intervals,
    impute_single_sensor,
    simulate,
    verify_outliers,
)
from pdmpipe import cleaning
from pdmpipe.cleaning import (
    GapInterval,
    GapReport,
    OutlierVerdict,
    detrended_iqr_flags,
    ics_flags,
)
from pdmpipe.knowledge import (
    BLOCKING,
    CYCLE_STOP,
    FaultEvent,
    OperatingEnvelope,
    _instances,
)
from helpers import assert_no_child, count_forks, quiet_frame, segment_rows, traced_peak


def blank(frame, rows, channels=None):
    for name in channels or frame.channels:
        frame.channels[name][rows] = np.nan


class TestClassifyGaps:
    def test_causes_and_dispositions(self):
        frame = quiet_frame(cycles=2)
        blank(frame, slice(100, 150))                      # active, all channels
        blank(frame, slice(2750, 2800))                    # idle, all channels
        blank(frame, slice(300, 330), ["temp_external_a"])  # one channel
        blank(frame, slice(400, 410),
              ["pressure_internal_a", "temp_internal"])     # several, not all

        report = classify_gaps(frame, reconstruct=True)
        by_cause = {}
        for gap in report.intervals:
            by_cause.setdefault(gap.cause, []).append(gap)

        assert len(by_cause["BlanketMaintenance"]) == 1
        gap = by_cause["BlanketMaintenance"][0]
        assert gap.disposition == "Delete"
        assert gap.start == frame.timestamps[100]
        assert gap.end == frame.timestamps[149]

        assert [g.disposition for g in by_cause["NonUse"]] == ["Delete"]
        assert [g.disposition for g in by_cause["Unknown"]] == ["Delete"]

        drop = by_cause["SingleSensorDropout"][0]
        assert drop.channel == "temp_external_a"
        assert drop.disposition == "Reconstruct"

    def test_data_driven_scenario_deletes_dropouts_too(self):
        frame = quiet_frame()
        blank(frame, slice(300, 330), ["temp_external_a"])
        report = classify_gaps(frame, reconstruct=False)
        assert [g.disposition for g in report.intervals] == ["Delete"]

    def test_intervals_sorted_by_start(self):
        frame = quiet_frame()
        blank(frame, slice(500, 520), ["temp_external_a"])
        blank(frame, slice(100, 120))
        report = classify_gaps(frame, reconstruct=True)
        starts = [g.start for g in report.intervals]
        assert starts == sorted(starts)


class TestImpute:
    def make_frame(self, cycles=4):
        frame = quiet_frame(cycles=cycles)
        minute = np.arange(len(frame)) % 2910
        values = frame.cycle * 1000.0 + minute
        return frame.with_channel("temp_external_a", values, "degC")

    def report_for(self, frame, rows):
        return GapReport((self.gap_for(frame, rows),))

    def gap_for(self, frame, rows):
        return GapInterval(start=frame.timestamps[rows[0]],
                           end=frame.timestamps[rows[-1]],
                           cause="SingleSensorDropout",
                           disposition="Reconstruct",
                           channel="temp_external_a")

    def test_fills_from_same_offset_in_prior_cycles(self):
        frame = self.make_frame()
        rows = segment_rows(frame, 4, "S09")[10:20]
        frame.channels["temp_external_a"][rows] = np.nan
        gap = self.gap_for(frame, rows)
        out = impute_single_sensor(frame, GapReport((gap,)), k=3)
        minute = np.arange(len(frame)) % 2910
        # donors are cycles 1..3 at the same in-sequence offset
        assert np.array_equal(out.channels["temp_external_a"][rows],
                              2000.0 + minute[rows])

    def test_k_limits_the_donor_window(self):
        frame = self.make_frame()
        rows = segment_rows(frame, 4, "S09")[10:20]
        frame.channels["temp_external_a"][rows] = np.nan
        out = impute_single_sensor(frame, self.report_for(frame, rows), k=2)
        minute = np.arange(len(frame)) % 2910
        assert np.array_equal(out.channels["temp_external_a"][rows],
                              2500.0 + minute[rows])

    def test_no_history_falls_back_to_channel_median(self):
        frame = self.make_frame()
        rows = segment_rows(frame, 1, "S09")[10:20]
        values = frame.channels["temp_external_a"]
        values[rows] = np.nan
        expected = float(np.median(values[~np.isnan(values)]))
        out = impute_single_sensor(frame, self.report_for(frame, rows), k=3)
        assert np.array_equal(out.channels["temp_external_a"][rows],
                              np.full(10, expected))

    def test_donors_are_averaged_nearest_cycle_first(self):
        frame = self.make_frame(cycles=5)
        values = frame.channels["temp_external_a"]
        for cycle, donor in [(4, np.nan), (3, 1.0), (2, 1e16), (1, -1e16)]:
            values[segment_rows(frame, cycle, "S09")[10:20]] = donor
        rows = segment_rows(frame, 5, "S09")[10:20]
        values[rows] = np.nan
        out = impute_single_sensor(frame, self.report_for(frame, rows), k=3)
        # cycle 4 has no donor cell, so cycles 3, 2, 1 give one each, in that order
        expected = np.mean([1.0, 1e16, -1e16])
        assert expected != np.mean([-1e16, 1e16, 1.0])
        assert np.array_equal(out.channels["temp_external_a"][rows], np.full(10, expected))

    def test_donors_come_from_every_earlier_cycle_whatever_its_number(self):
        frame = quiet_frame(cycles=2, segments=[("S09", 4)])
        frame.logs["cycle_number"][:] = [0, 0, 0, 0, 1, 1, 1, 1]
        frame.channels["temp_external_a"][:] = [10, 11, 12, 13, 20, np.nan, 22, 23]
        out = impute_single_sensor(frame, self.report_for(frame, [5]), k=3)
        # row 5 is offset 1 of cycle 1; cycle 0 read 11 there
        assert out.channels["temp_external_a"][5] == 11.0

    def test_validation(self):
        frame = self.make_frame(cycles=1)
        rows = segment_rows(frame, 1, "S09")[:5]
        gap = self.gap_for(frame, rows)
        with pytest.raises(ValueError, match="k must be"):
            impute_single_sensor(frame, GapReport((gap,)), k=0)
        with pytest.raises(ValueError, match="single-sensor"):
            impute_single_sensor(frame, GapReport((gap, replace(gap, channel=None))))

    def test_delete_intervals_are_left_alone(self):
        frame = self.make_frame(cycles=2)
        rows = segment_rows(frame, 2, "S09")[10:20]
        frame.channels["temp_external_a"][rows] = np.nan
        gap = replace(self.gap_for(frame, rows), disposition="Delete")
        assert impute_single_sensor(frame, GapReport((gap,))) is frame
        assert impute_single_sensor(frame, GapReport(())) is frame

    def test_a_cell_filled_by_an_earlier_interval_counts_as_observed(self):
        frame = self.make_frame(cycles=2)
        values = frame.channels["temp_external_a"]
        first, second = (segment_rows(frame, c, "S09")[10:20] for c in (1, 2))
        values[first] = values[second] = np.nan
        early, late = self.gap_for(frame, first), self.gap_for(frame, second)
        out = impute_single_sensor(frame, GapReport((early, late)), k=3)
        # cycle 1 has no history and takes the median; cycle 2 then takes
        # cycle 1's filled cells as donors
        median = float(np.median(values[~np.isnan(values)]))
        filled = out.channels["temp_external_a"]
        assert np.array_equal(filled[first], np.full(10, median))
        assert np.array_equal(filled[second], np.full(10, median))
        # the other way round, cycle 2 falls back first, and its filled
        # cells join the median cycle 1 falls back to
        out = impute_single_sensor(frame, GapReport((late, early)), k=3)
        filled = out.channels["temp_external_a"]
        again = float(np.median(np.concatenate([values[~np.isnan(values)], filled[second]])))
        assert np.array_equal(filled[second], np.full(10, median))
        assert np.array_equal(filled[first], np.full(10, again))


def oracle_impute_single_sensor(frame, gap, k):
    """The imputation as it scanned, for each gap cell, every row of every
    earlier cycle for the observed cells at its sequence id and offset."""
    values = frame.channels[gap.channel].copy()
    observed = ~np.isnan(values)
    fallback = float(np.median(values[observed]))
    starts, stops = _instances(frame)
    offsets = np.arange(len(frame)) - np.repeat(starts, stops - starts)
    t = frame.timestamps
    for r in np.flatnonzero((t >= gap.start) & (t <= gap.end) & ~observed):
        hi = np.searchsorted(frame.cycle, frame.cycle[r])
        same = ((offsets[:hi] == offsets[r]) & (frame.sequence[:hi] == frame.sequence[r])
                & observed[:hi])
        donors = values[np.flatnonzero(same)[::-1][:k]]
        values[r] = float(np.mean(donors)) if donors.size else fallback
    return values


def impute_case(seed):
    """Cycles of short instances, one id run twice a cycle and every cycle
    cut at a random point; holes in the channel and one gap across
    instance and cycle edges. Returns the frame, the gap and k."""
    rng = np.random.default_rng(seed)
    segments = (("S09", int(rng.integers(1, 6))), ("S10", int(rng.integers(1, 6))),
                ("S09", int(rng.integers(1, 6))), ("IDLE", int(rng.integers(1, 4))))
    frame = quiet_frame(cycles=int(rng.integers(1, 7)), segments=segments)
    keep = np.flatnonzero(rng.random(len(frame)) < 0.9)
    frame = frame.take(keep if len(keep) else np.arange(len(frame)))
    values = np.round(rng.normal(0.0, 10.0, len(frame)), int(rng.integers(0, 3)))
    values[rng.random(len(frame)) < 0.2] = np.nan
    start = int(rng.integers(0, len(frame)))
    stop = min(len(frame), start + int(rng.integers(1, 12)))
    values[start:stop] = np.nan
    values[rng.integers(0, len(frame))] = 1.0      # one observed cell at least
    frame = frame.with_channel("temp_external_a", values, "degC")
    gap = GapInterval(start=frame.timestamps[start], end=frame.timestamps[stop - 1],
                      cause="SingleSensorDropout", disposition="Reconstruct",
                      channel="temp_external_a")
    return frame, gap, int(rng.integers(1, 5))


class TestImputeOracle:
    @pytest.mark.parametrize("seed", range(60))
    def test_matches_the_scan_of_every_earlier_row(self, seed):
        frame, gap, k = impute_case(seed)
        got = impute_single_sensor(frame, GapReport((gap,)), k).channels["temp_external_a"]
        want = oracle_impute_single_sensor(frame, gap, k)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_cases_cover_donors_fallbacks_and_short_histories(self):
        seen = set()
        for seed in range(60):
            frame, gap, k = impute_case(seed)
            values = frame.channels["temp_external_a"]
            t = frame.timestamps
            rows = np.flatnonzero((t >= gap.start) & (t <= gap.end) & np.isnan(values))
            filled = impute_single_sensor(frame, GapReport((gap,)), k).channels["temp_external_a"]
            filled = filled[rows]
            fallback = float(np.median(values[~np.isnan(values)]))
            seen.add("fallback" if (filled == fallback).any() else "donors")
            seen.add("cycles" if len(np.unique(frame.cycle[rows])) > 1 else "one cycle")
        assert seen == {"fallback", "donors", "cycles", "one cycle"}


def oracle_impute_report(frame, report, k):
    """The imputation as it was called, once per Reconstruct interval in
    report order, each call on the frame the one before left."""
    for gap in report.intervals:
        if gap.disposition == "Reconstruct":
            frame = frame.with_channel(gap.channel, oracle_impute_single_sensor(frame, gap, k),
                                       frame.units[gap.channel])
    return frame


def impute_report_case(seed):
    """The frames of ``impute_case`` with holes in two channels, three to
    six gaps across them in random order (so some share a channel, and some
    overlap) and one Delete interval among them. Returns the frame, the
    report and k."""
    rng = np.random.default_rng(seed)
    frame, _, k = impute_case(seed)
    frame = frame.with_channel("temp_internal", np.where(
        rng.random(len(frame)) < 0.2, np.nan, rng.normal(300.0, 5.0, len(frame))), "degC")
    gaps = []
    for _ in range(int(rng.integers(3, 7))):
        name = str(rng.choice(["temp_external_a", "temp_internal"]))
        start = int(rng.integers(0, len(frame)))
        stop = min(len(frame), start + int(rng.integers(1, 12)))
        frame.channels[name][start:stop] = np.nan
        gaps.append(GapInterval(start=frame.timestamps[start], end=frame.timestamps[stop - 1],
                                cause="SingleSensorDropout", disposition="Reconstruct",
                                channel=name))
    gaps.insert(int(rng.integers(0, len(gaps) + 1)), GapInterval(
        start=frame.timestamps[0], end=frame.timestamps[-1], cause="BlanketMaintenance",
        disposition="Delete"))
    for name in ("temp_external_a", "temp_internal"):
        frame.channels[name][int(rng.integers(0, len(frame)))] = 1.0   # one observed cell
    return frame, GapReport(tuple(gaps)), k


class TestImputeReportOracle:
    @pytest.mark.parametrize("seed", range(40))
    def test_one_call_matches_one_call_per_gap(self, seed):
        frame, report, k = impute_report_case(seed)
        got = impute_single_sensor(frame, report, k)
        want = oracle_impute_report(frame, report, k)
        assert list(got.channels) == list(frame.channels)
        for name in frame.channels:
            assert np.array_equal(got.channels[name].view(np.int64),
                                  want.channels[name].view(np.int64)), name

    def test_cases_cover_two_channels_and_shared_channels(self):
        seen = set()
        for seed in range(40):
            _, report, _ = impute_report_case(seed)
            names = [g.channel for g in report.intervals if g.channel is not None]
            seen.add(len(set(names)))
            seen.add("shared" if len(names) > len(set(names)) else "one each")
        assert seen >= {2, "shared"}


class TestDropIntervals:
    def test_removes_exactly_the_delete_rows(self):
        frame = quiet_frame()
        blank(frame, slice(100, 150))
        blank(frame, slice(300, 330), ["temp_external_a"])
        report = classify_gaps(frame, reconstruct=True)
        out = drop_intervals(frame, report)
        assert len(out) == len(frame) - 50
        kept = set(out.timestamps.astype("int64"))
        assert frame.timestamps[99].astype("int64") in kept
        assert frame.timestamps[100].astype("int64") not in kept
        assert frame.timestamps[300].astype("int64") in kept  # reconstruct, kept

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_the_per_interval_mask(self, seed):
        frame, report = interval_case(seed)
        out = drop_intervals(frame, report)
        expected = oracle_drop_intervals(frame, report)
        assert np.array_equal(out.timestamps, expected.timestamps)
        for name in frame.channels:
            assert np.array_equal(out.channels[name], expected.channels[name],
                                  equal_nan=True)
        for name in frame.logs:
            assert np.array_equal(out.logs[name], expected.logs[name])

    def test_cases_cover_every_interval_layout(self):
        seen = set()
        for seed in range(12):
            frame, report = interval_case(seed)
            seen |= interval_layouts(frame, report)
        assert seen == {"adjacent", "overlapping", "nested", "first row", "last row",
                        "reconstruct", "off-grid bound", "no delete"}


def oracle_drop_intervals(frame, report):
    """The gap deletion as it was: one full-length mask per Delete interval."""
    keep = np.ones(len(frame), dtype=bool)
    t = frame.timestamps
    for gap in report.intervals:
        if gap.disposition == "Delete":
            keep &= ~((t >= gap.start) & (t <= gap.end))
    return frame.take(np.flatnonzero(keep))


def interval_case(seed):
    """A 1-cycle frame and a seeded gap report. Intervals sit next to,
    across and inside one another, reach past the first and the last
    row, and some bounds fall between two timestamps; every fourth
    report deletes nothing."""
    rng = np.random.default_rng(seed)
    frame = quiet_frame()
    t = frame.timestamps
    n = len(t)
    minute = np.timedelta64(60, "s")
    rows = []
    for _ in range(int(rng.integers(4, 12))):
        a = int(rng.integers(0, n))
        rows.append((a, min(a + int(rng.integers(0, 80)), n - 1)))
    a, b = rows[0]
    rows += [(b + 1, min(b + 20, n - 1)),                            # adjacent
             (max(a - 5, 0), min(a + 3, n - 1)),                     # overlapping
             (min(a + 1, b), b),                                     # nested
             (0, int(rng.integers(0, 30))), (int(rng.integers(n - 30, n)), n - 1)]
    intervals = []
    for lo, hi in rows:
        if lo > hi:
            continue
        start, end = t[lo], t[hi]
        if rng.random() < 0.2:      # a bound between two rows, or past the ends
            start = start - minute // 2
        if rng.random() < 0.2:
            end = end + minute // 2
        delete = seed % 4 != 3 and rng.random() < 0.75
        intervals.append(GapInterval(
            start=start, end=end, cause="Unknown",
            disposition="Delete" if delete else "Reconstruct"))
    return frame, GapReport(intervals=tuple(intervals))


def interval_layouts(frame, report):
    """Which of the layouts the deletion must handle appear in a report."""
    t = frame.timestamps
    seen = set()
    if any(g.disposition == "Reconstruct" for g in report.intervals):
        seen.add("reconstruct")
    delete = [(g.start, g.end) for g in report.intervals if g.disposition == "Delete"]
    if not delete:
        seen.add("no delete")
    step = np.timedelta64(60, "s")
    for i, (s1, e1) in enumerate(delete):
        if s1 <= t[0]:
            seen.add("first row")
        if e1 >= t[-1]:
            seen.add("last row")
        if not (np.isin(s1, t) and np.isin(e1, t)):
            seen.add("off-grid bound")
        for s2, e2 in delete[i + 1:]:
            if s1 <= s2 and e2 <= e1 or s2 <= s1 and e1 <= e2:
                seen.add("nested")
            elif s1 <= e2 and s2 <= e1:
                seen.add("overlapping")
            elif e1 + step == s2 or e2 + step == s1:
                seen.add("adjacent")
    return seen


class TestIqrDetector:
    @given(st.lists(st.floats(min_value=-1e9, max_value=1e9,
                              allow_nan=False), min_size=1, max_size=200),
           st.floats(min_value=0.0, max_value=10.0))
    def test_matches_fence_oracle(self, values, k):
        x = np.array(values)
        lo, hi = cleaning._iqr_fences([x], k)
        got = np.flatnonzero((x < lo[0]) | (x > hi[0]))
        q1, q3 = np.quantile(x, [0.25, 0.75], method="linear")
        lo, hi = q1 - k * (q3 - q1), q3 + k * (q3 - q1)
        expected = [i for i, v in enumerate(values) if v < lo or v > hi]
        assert got.tolist() == expected

    @pytest.mark.parametrize("seed", range(12))
    def test_fences_are_numpys_quartiles_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        k = (0.0, 1.5, 4.0)[seed % 3]
        samples, expected = [], []
        for size in (*range(1, 12), *rng.integers(12, 300, size=10)):
            x = np.round(rng.normal(0.0, float(rng.choice([1e-3, 1.0, 1e6])), size),
                         int(rng.integers(0, 3)))
            x[rng.random(size) < 0.2] = np.nan
            x[rng.random(size) < 0.05] = rng.choice([np.inf, -np.inf, -0.0, 0.0])
            x[0] = 0.0 if np.isnan(x).all() else x[0]
            observed = x[~np.isnan(x)]
            with np.errstate(invalid="ignore"):     # inf - inf
                q1, q3 = np.quantile(observed, [0.25, 0.75], method="linear")
                expected.append((q1 - k * (q3 - q1), q3 + k * (q3 - q1)))
            samples.append(observed)
        with np.errstate(invalid="ignore"):
            lo, hi = cleaning._iqr_fences(samples, k)
        want = np.array(expected)
        for got, ref in ((lo, want[:, 0]), (hi, want[:, 1])):
            assert np.array_equal(got, ref, equal_nan=True)
            assert np.array_equal(np.signbit(got), np.signbit(ref))


class TestIcsDetector:
    def test_flags_a_gross_multivariate_outlier(self):
        rng = np.random.default_rng(42)
        X = rng.standard_normal((400, 3))
        X[37] = [15.0, 15.0, 15.0]
        flags = cleaning._ics_in_place(X, 2, 0.001)
        assert 37 in flags
        assert len(flags) <= 5

    def test_validation(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((25, 3))
        with pytest.raises(ValueError, match="rows"):
            cleaning._ics_in_place(X, 2, 0.025)  # needs 10 rows per channel
        X = rng.standard_normal((50, 3))
        with pytest.raises(ValueError, match="m must be"):
            cleaning._ics_in_place(X.copy(), 4, 0.025)
        with pytest.raises(ValueError, match="alpha"):
            cleaning._ics_in_place(X.copy(), 2, 0.0)
        Y = rng.standard_normal((50, 1))
        with pytest.raises(ValueError, match="singular"):
            cleaning._ics_in_place(np.hstack([Y, Y]), 1, 0.025)

    def test_screen_centers_its_matrix_in_place(self):
        # the scaled product and the missing-cell mask: 1.12 of the matrix,
        # where a centered copy beside them made 2.12
        X = np.random.default_rng(12).standard_normal((100_000, 9)) * 3.0 + 5.0
        assert traced_peak(lambda: cleaning._ics_in_place(X, 2, 0.01)) < 1.25 * X.nbytes

    @pytest.mark.parametrize("n", [2, 4095, 4096, 4097, 4098, 3 * 4096 + 17])
    def test_distances_in_row_blocks_match_one_solve(self, n):
        # a last block of one row would take LAPACK's single right-hand side
        # path; 4097 rows is where it changes low bits
        rng = np.random.default_rng(n)
        for d in (1, 2, 9, 12, 13):
            X = rng.standard_normal((n, d)) @ rng.standard_normal((d, d))
            X *= 10.0 ** rng.integers(-3, 4, d)
            X += 10.0 ** rng.integers(-2, 7, d)
            X -= X.mean(axis=0)
            chol = np.linalg.cholesky(X.T @ X / (n - 1) + 1e-9 * np.eye(d))
            w = np.linalg.solve(chol, X.T)
            w *= w
            want = np.sum(w, axis=0)
            got = cleaning._mahalanobis_sq(X, chol)
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), d


# scipy.stats.chi2.ppf(1 - alpha, df=m) for m = 1..9 and each alpha in
# CHI2_ALPHAS, recorded with scipy 1.17.1
CHI2_ALPHAS = (1e-4, 0.001, 0.01, 0.025, 0.05)
CHI2_PPF = {
    1: (15.136705226623606, 10.827566170662733, 6.6348966010212145, 5.023886187314888,
        3.841458820694124),
    2: (18.420680743952584, 13.815510557964274, 9.21034037197618, 7.377758908227871,
        5.991464547107979),
    3: (21.107513466160444, 16.26623619623813, 11.344866730144373, 9.348403604496148,
        7.814727903251179),
    4: (23.512742444991076, 18.46682695290317, 13.276704135987622, 11.143286781877796,
        9.487729036781154),
    5: (25.74483195905612, 20.515005652432873, 15.08627246938899, 12.832501994030027,
        11.070497693516351),
    6: (27.85634123601417, 22.457744484825323, 16.811893829770927, 14.44937533544792,
        12.591587243743977),
    7: (29.87750390922517, 24.321886347856854, 18.475306906582357, 16.012764274629326,
        14.067140449340169),
    8: (31.827628001262585, 26.12448155837614, 20.090235029663233, 17.534546139484647,
        15.50731305586545),
    9: (33.719948438964906, 27.877164871256568, 21.665994333461924, 19.02276779864163,
        16.918977604620448),
}


class TestIcsCutoff:
    @pytest.mark.parametrize("m", sorted(CHI2_PPF))
    def test_matches_chi2_ppf_bit_for_bit(self, m):
        got = [cleaning._chi2_quantile(1.0 - alpha, m) for alpha in CHI2_ALPHAS]
        assert got == list(CHI2_PPF[m])


class TestScreeningFlags:
    def test_spike_inside_long_instance_is_flagged(self):
        frame = quiet_frame()
        rows = segment_rows(frame, 1, "S11")
        frame.channels["pressure_internal_a"][rows[600]] += 800.0
        flags = detrended_iqr_flags(frame, k=4.0)
        assert (int(rows[600]), "pressure_internal_a") in flags

    def test_instance_edges_are_exempt(self):
        frame = quiet_frame()
        rows = segment_rows(frame, 1, "S11")
        frame.channels["pressure_internal_a"][rows[5]] += 800.0
        assert detrended_iqr_flags(frame, k=4.0) == []

    def test_short_instances_are_skipped(self):
        frame = quiet_frame()
        rows = segment_rows(frame, 1, "S04")   # 15 min < screening window
        frame.channels["pressure_internal_a"][rows[7]] += 800.0
        assert detrended_iqr_flags(frame, k=4.0) == []

    def test_whole_row_anomaly_found_by_ics(self):
        rng = np.random.default_rng(7)
        frame = quiet_frame()
        for name in frame.channels:
            frame.channels[name] += rng.standard_normal(len(frame))
        rows = segment_rows(frame, 1, "S09")
        frame.channels["temp_external_a"][rows[200]] += 40.0
        frame.channels["pressure_internal_b"][rows[200]] += 40.0
        flags = ics_flags(frame, m=2, alpha=2e-5)
        assert (int(rows[200]), None) in flags

    @pytest.mark.parametrize("screen", [
        lambda frame: detrended_iqr_flags(frame, k=4.0),
        lambda frame: ics_flags(frame, m=2, alpha=2e-5),
    ], ids=["spike", "ics"])
    @pytest.mark.parametrize("cell", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_cell_is_refused_naming_the_channel(self, screen, cell):
        frame = quiet_frame()
        rows = segment_rows(frame, 1, "S11")
        frame.channels["temp_internal"][rows[600]] = cell
        frame.channels["angle_platform"][rows[5]] = cell
        with pytest.raises(ValueError, match="channel 'temp_internal' holds NaN or infinite"):
            screen(frame)


def oracle_ics_flags(frame, m, alpha, screened=None):
    """The ICS screen as it was: one stacked matrix of every channel, and per
    sequence id one full-length comparison to find its rows. Each matrix it
    passes to the detector is appended to ``screened``."""
    X = np.column_stack(list(frame.channels.values()))
    flags = []
    for sid in np.unique(frame.sequence):
        rows = np.flatnonzero(frame.sequence == sid)
        sub = X[rows]
        if (np.ptp(sub, axis=0) == 0).any():
            continue
        if screened is not None:
            screened.append(sub)
        try:
            local = cleaning._ics_in_place(np.array(sub, dtype=float), m, alpha)
        except ValueError:
            continue
        flags.extend((int(rows[i]), None) for i in local)
    flags.sort(key=lambda f: f[0])
    return flags


def interleaved_case(seed):
    """One cycle whose rows take their sequence id at random, so the rows of
    every id interleave with those of every other. Heavy-tailed noise, gross
    rows; S05 has too few rows for the detector and S06 a constant channel."""
    rng = np.random.default_rng(seed)
    frame = quiet_frame()
    n = len(frame)
    sequence = rng.choice(np.array(["S01", "S02", "S03", "S04", "S06", "IDLE"]), n)
    sequence[rng.choice(n, 30, replace=False)] = "S05"
    frame = replace(frame, logs={**frame.logs, "sequence_id": sequence})
    for name in frame.channels:
        x = rng.standard_t(3, n)
        x[rng.choice(n, 8, replace=False)] += 25.0
        frame.channels[name][:] = x
    frame.channels["temp_internal"][sequence == "S06"] = 1.5
    return frame


def oracle_running_median(x, window):
    """The per-instance running median the screen used to call: centered
    windows, shrinking at the edges, one np.median per edge row."""
    n = len(x)
    half = window // 2
    out = np.empty(n)
    if n > window:
        views = np.lib.stride_tricks.sliding_window_view(x, window)
        out[half:n - half] = np.median(views, axis=1)
        edge = half
    else:
        edge = n
    for i in range(min(edge, n)):
        out[i] = np.median(x[max(0, i - half):i + half + 1])
    for i in range(max(n - edge, 0), n):
        out[i] = np.median(x[max(0, i - half):i + half + 1])
    return out


def oracle_detrended_iqr_flags(frame, k, window):
    """The screen as a loop over (instance, channel) pairs."""
    flags = []
    half = window // 2
    for s, e in zip(*_instances(frame)):
        if e - s <= window:
            continue
        for name in frame.channels:
            x = frame.channels[name][s:e]
            resid = x - oracle_running_median(x, window)
            for i in oracle_iqr_outliers(resid, k):
                if half <= i < (e - s) - half:
                    flags.append((s + int(i), name))
    flags.sort(key=lambda f: (f[0], f[1]))
    return flags


def oracle_iqr_outliers(x, k):
    """Indices outside the fences from np.quantile, as the screen computed
    them per (instance, channel) before the fences were batched."""
    q1, q3 = np.quantile(x, [0.25, 0.75], method="linear")
    lo, hi = q1 - k * (q3 - q1), q3 + k * (q3 - q1)
    return np.flatnonzero((x < lo) | (x > hi))


def fence_branches(frame, window):
    """The interpolation branches the quartiles of a screening case take,
    one per screened instance of m rows and quartile: ``whole`` when the
    virtual index (m-1)*q is an integer, ``upper`` when its fraction is at
    least 0.5, else ``lower``."""
    seen = set()
    for s, e in zip(*_instances(frame)):
        if e - s <= window:
            continue
        for q in (0.25, 0.75):
            t = (e - s - 1) * q % 1
            seen.add("whole" if t == 0 else "upper" if t >= 0.5 else "lower")
    return seen


def screening_case(seed):
    """Two cycles of instances around the window length and one shorter than
    it, with tied values, signed zeros, constant runs and spikes."""
    rng = np.random.default_rng(seed)
    window = (3, 5, 31)[seed % 3]
    lengths = [window + 1, window + 2, window + 3,
               window + int(rng.integers(4, 3 * window)),
               int(rng.integers(1, window + 1))]
    rng.shuffle(lengths)
    segments = tuple((f"S{i + 1:02d}", m) for i, m in enumerate(lengths))
    frame = quiet_frame(cycles=2, segments=segments)
    n = len(frame)
    for name in frame.channels:
        scale = float(rng.choice([0.5, 3.0, 40.0]))
        x = np.round(rng.normal(0.0, scale, n), int(rng.integers(0, 2)))
        for start in rng.integers(0, n, size=2):
            x[start:start + int(rng.integers(window // 2, 2 * window))] = x[start]
        x[rng.integers(0, n, size=3)] += 60.0 * scale
        frame.channels[name][:] = x
    return frame, window


def branch_case(seed):
    """Short instances whose lengths m make the virtual index (m-1)*q
    whole, or give it a fraction of 0.25, 0.5 or 0.75."""
    rng = np.random.default_rng(seed)
    window = 3
    lengths = [5, 6, 7, 8, 9, 13, 40, 11]
    segments = tuple((f"S{i + 1:02d}", m) for i, m in enumerate(lengths))
    frame = quiet_frame(cycles=2, segments=segments)
    n = len(frame)
    for name in frame.channels:
        x = np.round(rng.normal(0.0, 2.0, n), int(rng.integers(0, 2)))
        x[rng.integers(0, n, size=4)] += 50.0
        frame.channels[name][:] = x
    return frame, window


class TestScreeningOracle:
    @pytest.mark.parametrize("seed", range(36))
    def test_matches_the_per_instance_loop(self, seed):
        self.check_against_the_loop(*screening_case(seed))

    @pytest.mark.parametrize("seed", range(4))
    def test_branch_cases_match_the_per_instance_loop(self, seed):
        self.check_against_the_loop(*branch_case(seed))

    @staticmethod
    def check_against_the_loop(frame, window):
        spans = [(s, e) for s, e in zip(*_instances(frame)) if e - s > window]
        starts, stops = np.array(spans).T
        for name, x in frame.channels.items():
            med = cleaning._span_medians(x, starts, stops, window)
            for s, e in spans:
                expected = oracle_running_median(x[s:e], window)
                assert np.array_equal(med[s:e], expected), (name, s, e)
        for k in (0.0, 1.5, 4.0):
            assert (detrended_iqr_flags(frame, k, window)
                    == oracle_detrended_iqr_flags(frame, k, window))

    def test_cases_reach_every_interpolation_branch(self):
        seen = set()
        for seed in range(4):
            seen |= fence_branches(*branch_case(seed))
        assert seen == {"whole", "upper", "lower"}

    def test_cases_cover_ties_signed_zeros_short_instances_and_flags(self):
        tied = signed_zeros = short = flagged = 0
        for seed in range(36):
            frame, window = screening_case(seed)
            x = np.column_stack(list(frame.channels.values()))
            tied += (np.diff(x, axis=0) == 0).any()
            signed_zeros += ((x == 0) & np.signbit(x)).any() and ((x == 0) & ~np.signbit(x)).any()
            short += any(e - s <= window for s, e in zip(*_instances(frame)))
            flagged += len(oracle_detrended_iqr_flags(frame, 1.5, window)) > 0
        assert tied == signed_zeros == short == flagged == 36

    @pytest.mark.parametrize("window", [0, 1, 2, 30])
    def test_window_must_be_odd_and_at_least_three(self, window):
        with pytest.raises(ValueError, match="window"):
            detrended_iqr_flags(quiet_frame(), k=4.0, window=window)


class TestScreeningParts:
    """Forked channel parts: the same flags for any CPU count, no fork below
    the minimum part size, and every child reaped."""

    @pytest.mark.parametrize("seed", range(3))
    def test_same_flags_for_any_cpu_count(self, seed, monkeypatch):
        frame, window = screening_case(seed)
        monkeypatch.setattr(cleaning, "_PART_ROWS", 1)
        forks = count_forks(monkeypatch)
        flags = {}
        for cpus in (1, 2, 3):
            monkeypatch.setattr(_fork, "_cpus", lambda cpus=cpus: cpus)
            flags[cpus] = detrended_iqr_flags(frame, 1.5, window)
            assert len(forks) == cpus - 1
            forks.clear()
        assert_no_child()
        assert flags[1] == flags[2] == flags[3] == oracle_detrended_iqr_flags(frame, 1.5, window)
        assert len({name for _, name in flags[1]}) == len(frame.channels)

    def test_simulated_flags_for_any_cpu_count(self, sim_small, monkeypatch):
        frame, _ = sim_small
        monkeypatch.setattr(cleaning, "_PART_ROWS", 1)
        flags = {}
        for cpus in (1, 2, 3):
            monkeypatch.setattr(_fork, "_cpus", lambda cpus=cpus: cpus)
            flags[cpus] = detrended_iqr_flags(frame, 1.5)
        assert flags[1] == flags[2] == flags[3]
        assert len({name for _, name in flags[1]}) == len(frame.channels) == 9

    def test_a_small_frame_never_forks(self, kb, monkeypatch):
        frame, _ = simulate(SimConfig(seed=5, cycles=10), kb)     # 29,100 rows
        def no_fork():
            raise AssertionError("os.fork called")

        monkeypatch.setattr(os, "fork", no_fork)
        monkeypatch.setattr(_fork, "_cpus", lambda: 4)
        detrended_iqr_flags(frame, 4.0)

    def test_failed_child_names_its_channels(self, monkeypatch):
        frame, window = screening_case(0)
        monkeypatch.setattr(cleaning, "_PART_ROWS", 1)
        monkeypatch.setattr(_fork, "_cpus", lambda: 2)
        parent = os.getpid()
        span_medians = cleaning._span_medians

        def fail_in_children(*args):
            if os.getpid() != parent:
                raise OSError("no space left")
            return span_medians(*args)

        monkeypatch.setattr(cleaning, "_span_medians", fail_in_children)
        with pytest.raises(RuntimeError, match=re.escape(
                "the process screening channels 2 to 5 exited with status 1: "
                "OSError: no space left")):
            detrended_iqr_flags(frame, 1.5, window)
        assert_no_child()

    def test_children_are_killed_when_the_first_part_fails(self, monkeypatch):
        frame, window = screening_case(0)
        monkeypatch.setattr(cleaning, "_PART_ROWS", 1)
        monkeypatch.setattr(_fork, "_cpus", lambda: 3)
        parent = os.getpid()

        def children_hang(*args):
            if os.getpid() == parent:
                raise OSError("no space left")
            signal.pause()

        monkeypatch.setattr(cleaning, "_span_medians", children_hang)
        with pytest.raises(OSError, match="no space left"):
            detrended_iqr_flags(frame, 1.5, window)
        assert_no_child()


class TestIcsFlags:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_the_per_id_comparison_on_interleaved_ids(self, seed, monkeypatch):
        frame = interleaved_case(seed)
        screened = []
        detect = cleaning._ics_in_place

        def recording(X, m, alpha):
            screened.append(X.copy())
            return detect(X, m, alpha)

        monkeypatch.setattr(cleaning, "_ics_in_place", recording)
        for m, alpha in ((2, 2e-5), (1, 0.01), (3, 0.05)):
            want = []
            expected = oracle_ics_flags(frame, m, alpha, want)
            screened.clear()
            flags = ics_flags(frame, m, alpha)
            assert flags == expected
            # every id's rows reach the detector in the same order, bit for bit;
            # S06's constant channel keeps it away, and the detector refuses S05
            assert len(screened) == len(want) == 6
            for got, expected in zip(screened, want):
                assert np.array_equal(got.view(np.int64), expected.view(np.int64))
        assert flags    # the loosest cutoff flags rows


class TestVerifyOutliers:
    def make_event(self, frame, onset_row):
        return FaultEvent(
            onset=frame.timestamps[onset_row], cycle=1, sequence_id="S10",
            fault_name="Needle Valve Fault", cause="needle valve clogging",
            severity=BLOCKING, consequence=CYCLE_STOP)

    def test_pre_onset_point_is_tagged(self, kb):
        frame = quiet_frame()
        s10 = segment_rows(frame, 1, "S10")
        event = self.make_event(frame, int(s10[5]))
        flagged = int(s10[5]) - 30
        verdicts = verify_outliers(frame, [(flagged, "pressure_internal_b")],
                                   kb, [event], window_minutes=60)
        assert [(v.index, v.verdict) for v in verdicts] == [
            (flagged, "TaggedTrueRelevant")]

    def test_isolated_point_with_clean_neighbors_is_corrected(self, kb):
        frame = quiet_frame()
        row = int(segment_rows(frame, 1, "S11")[600])
        frame.channels["pressure_internal_a"][row] += 800.0
        verdicts = verify_outliers(frame, [(row, "pressure_internal_a")],
                                   kb, [])
        assert len(verdicts) == 1
        v = verdicts[0]
        assert v.verdict == "CorrectedFalsePositive"
        # the mean of the untouched neighbors
        assert apply_verdicts(frame, verdicts).channels["pressure_internal_a"][row] == 1000.0

    def test_point_with_suspect_neighbor_is_dropped(self, kb):
        frame = quiet_frame()
        rows = segment_rows(frame, 1, "S11")
        flags = [(int(rows[600]), "pressure_internal_a"),
                 (int(rows[601]), "pressure_internal_a")]
        verdicts = verify_outliers(frame, flags, kb, [])
        assert [v.verdict for v in verdicts] == ["DroppedTrueIrrelevant"] * 2

    def test_out_of_envelope_neighbor_blocks_correction(self, kb):
        frame = quiet_frame()
        rows = segment_rows(frame, 1, "S09")
        row = int(rows[500])
        frame.channels["temp_internal"][row + 1] = 350.0   # outside the band
        verdicts = verify_outliers(frame, [(row, "temp_internal")], kb, [])
        assert [v.verdict for v in verdicts] == ["DroppedTrueIrrelevant"]

    def test_one_verdict_per_point_and_channel_precedence(self, kb):
        frame = quiet_frame()
        row = int(segment_rows(frame, 1, "S11")[600])
        flags = [(row, "pressure_internal_a"), (row, "pressure_internal_a"),
                 (row, None)]
        verdicts = verify_outliers(frame, flags, kb, [])
        assert len(verdicts) == 1
        assert verdicts[0].channel == "pressure_internal_a"


def oracle_envelope_check(frame, i, kb):
    """The per-row envelope judgement verify_outliers used to make: row i
    as a dict of every channel and log, judged against a fresh band table."""
    row = {name: float(values[i]) for name, values in frame.channels.items()}
    row.update({name: str(values[i]) if name == "sequence_id" else int(values[i])
                for name, values in frame.logs.items()})
    bands = {(e.channel, e.sequence_id): e for e in kb.envelopes}
    verdicts = {}
    for name, value in row.items():
        if not isinstance(value, float):
            continue
        env = bands.get((name, row["sequence_id"]))
        if env is None or np.isnan(value):
            verdicts[name] = "NoEnvelope"
        elif env.min <= value <= env.max:
            verdicts[name] = "InEnvelope"
        else:
            verdicts[name] = "OutOfEnvelope"
    return verdicts


def oracle_verify_outliers(frame, flags, kb, events, window_minutes=60):
    """verify_outliers with one envelope judgement per neighbour row."""
    t_int = frame.timestamps.astype("int64")
    instances = list(zip(*_instances(frame)))
    windows = []
    for e in events:
        if e.severity != BLOCKING:
            continue
        onset = e.onset.astype("int64")
        end = onset
        for s, stop in instances:
            if (frame.cycle[s] == e.cycle and frame.sequence[s] == e.sequence_id
                    and t_int[s] <= onset < t_int[stop - 1] + 60):
                end = t_int[stop - 1]
                break
        windows.append((onset - window_minutes * 60, end))
    flagged_rows = {}
    for row, channel in flags:
        flagged_rows.setdefault(row, set()).add(channel)

    def neighbor_ok(row, channel):
        if row < 0 or row >= len(frame):
            return False
        if channel in flagged_rows.get(row, ()) or None in flagged_rows.get(row, ()):
            return False
        verdicts = oracle_envelope_check(frame, row, kb)
        if channel is None:
            return "OutOfEnvelope" not in verdicts.values()
        return verdicts.get(channel) != "OutOfEnvelope"

    verdicts = []
    seen = set()
    for row, channel in flags:
        if channel is None and any(c is not None for c in flagged_rows[row]):
            continue
        if (row, channel) in seen:
            continue
        seen.add((row, channel))
        if any(lo <= t_int[row] <= hi for lo, hi in windows):
            verdicts.append(OutlierVerdict(row, channel, "TaggedTrueRelevant"))
        elif neighbor_ok(row - 1, channel) and neighbor_ok(row + 1, channel):
            verdicts.append(OutlierVerdict(row, channel, "CorrectedFalsePositive"))
        else:
            verdicts.append(OutlierVerdict(row, channel, "DroppedTrueIrrelevant"))
    return verdicts


def verify_case(seed, kb):
    """A short cycle whose enveloped readings sit at, just inside and just
    past their bands' edges, with flags on neighbouring rows,
    row-wide flags, and on odd seeds a second envelope that overrides a
    stock one."""
    rng = np.random.default_rng(seed)
    segments = tuple((sid, int(rng.integers(8, 30)))
                     for sid in ("S01", "S09", "S10", "S11", "S12"))
    frame = quiet_frame(segments=segments)
    n = len(frame)
    if seed % 2:
        kb = replace(kb, envelopes=kb.envelopes + (
            OperatingEnvelope("angle_platform", "S10", -5.0, 5.0),
            OperatingEnvelope("temp_internal", "S09", 290.0, 305.0)))
    bands = {(e.channel, e.sequence_id): e for e in kb.envelopes}
    for name, values in frame.channels.items():
        for i in range(n):
            env = bands.get((name, str(frame.sequence[i])))
            if env is None:
                values[i] += float(rng.normal(0.0, 50.0))
                continue
            edge = env.min if rng.random() < 0.5 else env.max
            outward = -np.inf if edge == env.min else np.inf
            values[i] = rng.choice([edge, np.nextafter(edge, outward),
                                    np.nextafter(edge, -outward),
                                    (env.min + env.max) / 2, (env.min + env.max) / 2])
    names = list(frame.channels)
    flags = []
    for row in rng.integers(1, n - 1, size=int(rng.integers(10, 30))):
        channel = names[rng.integers(len(names))] if rng.random() < 0.7 else None
        flags.append((int(row), channel))
        if rng.random() < 0.3:
            flags.append((int(row) + 1, channel))
    flags.sort(key=lambda f: (f[0], f[1] or ""))
    events = []
    if seed % 3 == 0:
        s10 = segment_rows(frame, 1, "S10")
        events.append(FaultEvent(
            onset=frame.timestamps[s10[len(s10) // 2]], cycle=1, sequence_id="S10",
            fault_name="Needle Valve Fault", cause="needle valve clogging",
            severity=BLOCKING, consequence=CYCLE_STOP))
    return frame, flags, kb, events


class TestVerifyOutliersOracle:
    @pytest.mark.parametrize("seed", range(24))
    def test_matches_the_per_row_envelope_check(self, kb, seed):
        frame, flags, case_kb, events = verify_case(seed, kb)
        assert (verify_outliers(frame, flags, case_kb, events, 20)
                == oracle_verify_outliers(frame, flags, case_kb, events, 20))

    @pytest.mark.parametrize("seed", range(24))
    def test_a_corrected_cell_is_the_mean_of_its_original_neighbours(self, kb, seed):
        frame, flags, case_kb, events = verify_case(seed, kb)
        corrected = [v for v in verify_outliers(frame, flags, case_kb, events, 20)
                     if v.verdict == "CorrectedFalsePositive"]
        out = apply_verdicts(frame, corrected)
        for v in corrected:
            for name in [v.channel] if v.channel else frame.channels:
                values = frame.channels[name]
                np.testing.assert_equal(out.channels[name][v.index],
                                        (values[v.index - 1] + values[v.index + 1]) / 2)

    def test_cases_cover_edges_and_row_wide_flags(self, kb):
        seen = set()
        for seed in range(24):
            frame, flags, case_kb, events = verify_case(seed, kb)
            for v in oracle_verify_outliers(frame, flags, case_kb, events, 20):
                seen.add((v.channel is None, v.verdict))
            bands = {(e.channel, e.sequence_id): e for e in case_kb.envelopes}
            for row, channel in flags:
                for i in (row - 1, row + 1):
                    if i >= len(frame):
                        continue
                    judged = oracle_envelope_check(frame, i, case_kb)
                    seen.update(judged.values())
                    for name, value in ((c, frame.channels[c][i]) for c in judged):
                        env = bands.get((name, str(frame.sequence[i])))
                        if env is not None and value in (env.min, env.max):
                            seen.add("AtEdge")
        for whole_row in (False, True):
            for verdict in ("CorrectedFalsePositive", "DroppedTrueIrrelevant",
                            "TaggedTrueRelevant"):
                assert (whole_row, verdict) in seen
        assert {"InEnvelope", "OutOfEnvelope", "NoEnvelope", "AtEdge"} <= seen

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_nan_or_infinite_cell_is_refused(self, kb, bad):
        frame, flags, case_kb, events = verify_case(0, kb)
        frame.channels["temp_internal"][len(frame) // 2] = bad
        with pytest.raises(ValueError, match="channel 'temp_internal' holds NaN or infinite"):
            verify_outliers(frame, flags, case_kb, events, 20)


class TestApplyVerdicts:
    def test_corrections_drops_and_passthrough(self, kb):
        frame = quiet_frame()
        rows = segment_rows(frame, 1, "S11")
        spike = int(rows[600])
        doomed = int(rows[700])
        tagged = int(rows[800])
        frame.channels["pressure_internal_a"][spike] += 800.0
        frame.channels["pressure_internal_a"][tagged] += 123.0
        verdicts = [
            OutlierVerdict(spike, "pressure_internal_a", "CorrectedFalsePositive"),
            OutlierVerdict(doomed, "pressure_internal_a",
                           "DroppedTrueIrrelevant"),
            OutlierVerdict(tagged, "pressure_internal_a",
                           "TaggedTrueRelevant"),
        ]
        out = apply_verdicts(frame, verdicts)
        assert len(out) == len(frame) - 1
        t_out = out.timestamps.astype("int64")
        assert frame.timestamps[doomed].astype("int64") not in set(t_out)
        idx = np.flatnonzero(t_out == frame.timestamps[spike].astype("int64"))[0]
        assert out.channels["pressure_internal_a"][idx] == 1000.0
        idx = np.flatnonzero(t_out == frame.timestamps[tagged].astype("int64"))[0]
        assert out.channels["pressure_internal_a"][idx] == 1123.0

    @pytest.mark.parametrize("drop", [False, True])
    def test_input_is_untouched_and_uncorrected_channels_are_shared(self, drop):
        frame = quiet_frame()
        rows = segment_rows(frame, 1, "S11")
        frame.channels["pressure_internal_a"][rows[600]] += 800.0
        before = {name: values.copy() for name, values in frame.channels.items()}
        verdicts = [OutlierVerdict(int(rows[600]), "pressure_internal_a",
                                   "CorrectedFalsePositive")]
        if drop:
            verdicts.append(OutlierVerdict(int(rows[700]), "temp_internal",
                                           "DroppedTrueIrrelevant"))
        out = apply_verdicts(frame, verdicts)
        for name, values in frame.channels.items():
            assert np.array_equal(values, before[name]), name
            assert not np.shares_memory(out.channels["pressure_internal_a"], values)
        assert len(out) == len(frame) - drop
        assert list(out.channels) == list(frame.channels)
        # the dropped row lies after the corrected one
        assert out.channels["pressure_internal_a"][rows[600]] == 1000.0
        shared = [name for name in frame.channels
                  if out.channels[name] is frame.channels[name]]
        assert shared == ([] if drop else [n for n in frame.channels
                                           if n != "pressure_internal_a"])

    def test_whole_row_correction_interpolates_every_channel(self):
        frame = quiet_frame()
        row = int(segment_rows(frame, 1, "S11")[50])
        for name in frame.channels:
            frame.channels[name][row] += 77.0
        out = apply_verdicts(frame, [OutlierVerdict(row, None,
                                                    "CorrectedFalsePositive")])
        for name in out.channels:
            left = frame.channels[name][row - 1]
            right = frame.channels[name][row + 1]
            assert out.channels[name][row] == (left + right) / 2

    @pytest.mark.parametrize("row, verdict", [(0, "CorrectedFalsePositive"),
                                              (5, "CorrectedFalsePositive"),
                                              (-1, "DroppedTrueIrrelevant"),
                                              (6, "TaggedTrueRelevant")])
    def test_a_row_outside_the_frame_or_a_correction_at_its_edge_is_refused(self, row, verdict):
        frame = quiet_frame(segments=[("S09", 6)])
        frame.channels["temp_external_a"][:] = np.arange(6.0)
        with pytest.raises(ValueError, match=f"{verdict} at row {row} of a 6-row frame"):
            apply_verdicts(frame, [OutlierVerdict(row, "temp_external_a", verdict)])
