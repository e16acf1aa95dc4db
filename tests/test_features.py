"""Reduction, knowledge integration, transforms, and dataset curation."""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from pdmpipe import (
    build_dataset,
    evaluate_rules,
    inject_missing,
    make_config,
    simulate,
    split_chronological,
)
from pdmpipe import features
from pdmpipe.features import (
    PcaResult,
    add_statistical_features,
    annotate_faults,
    encode_sequence,
    prioritize,
    reconstruct_target,
    select_features,
    standardize,
)
from pdmpipe.knowledge import ACKNOWLEDGE, BLOCKING, CYCLE_STOP, NON_BLOCKING, FaultEvent
from pdmpipe.timeseries import SEQUENCE_IDS, TimeSeriesFrame
from helpers import quiet_frame, segment_rows, traced_peak


class TestPca:
    @pytest.mark.parametrize("seed,n,d", [(0, 40, 3), (1, 200, 8), (2, 64, 12)])
    def test_loadings_are_orthonormal(self, seed, n, d):
        X = np.random.default_rng(seed).standard_normal((n, d))
        result = features._pca_in_place(X, 0.95)
        L = result.loadings
        assert np.abs(L.T @ L - np.eye(L.shape[1])).max() <= 1e-9

    def test_explained_sums_to_one_and_descends(self):
        X = np.random.default_rng(5).standard_normal((100, 6))
        result = features._pca_in_place(X, 0.95)
        assert abs(result.explained.sum() - 1.0) < 1e-12
        assert np.all(np.diff(result.explained) <= 1e-12)

    def test_retained_is_the_smallest_sufficient_prefix(self):
        X = np.random.default_rng(6).standard_normal((120, 7))
        threshold = 0.9
        result = features._pca_in_place(X, threshold)
        cumulative = np.cumsum(result.explained)
        assert cumulative[result.retained - 1] >= threshold - 1e-12
        if result.retained > 1:
            assert cumulative[result.retained - 2] < threshold

    def test_sign_convention_is_deterministic(self):
        X = np.random.default_rng(7).standard_normal((60, 4))
        result = features._pca_in_place(X, 0.95)
        for j in range(result.loadings.shape[1]):
            i = int(np.argmax(np.abs(result.loadings[:, j])))
            assert result.loadings[i, j] > 0

    def test_validation(self):
        X = np.random.default_rng(8).standard_normal((30, 3))
        with pytest.raises(ValueError):
            features._pca_in_place(X.copy(), 0.0)
        with pytest.raises(ValueError):
            features._pca_in_place(X[:1].copy(), 0.95)
        with pytest.raises(ValueError, match="variance"):
            features._pca_in_place(np.zeros((10, 2)), 0.95)


def channel_frame(X):
    """A frame whose channels are the columns of ``X``, one minute apart."""
    names = [f"c{j}" for j in range(X.shape[1])]
    return TimeSeriesFrame(
        timestamps=np.arange(len(X)).astype("datetime64[m]").astype("datetime64[s]"),
        channels={name: X[:, j].copy() for j, name in enumerate(names)},
        units=dict.fromkeys(names, "u"), logs={})


class TestColumnMoments:
    """The reduction step standardizes each channel with its own cumulative
    sums; the matrix it hands to PCA is numpy's over the whole matrix."""

    @pytest.mark.parametrize("d", [2, 3, 9])
    @pytest.mark.parametrize("n", [2, 4095, 4096, 4097, 3 * 4096 + 17])
    def test_standardized_matrix_has_the_whole_matrix_bits(self, n, d, monkeypatch):
        rng = np.random.default_rng(n + d)
        X = rng.standard_normal((n, d))
        X *= 10.0 ** rng.integers(-6, 7, d)
        X += 10.0 ** rng.integers(-3, 10, d)
        X[:, 1] = -2.5e7                    # a constant column
        if d > 2:
            X[:, 2] = 0.0
            X[::3, 2] = -0.0                # zeros of both signs
        if d > 3:
            X[:, 3] = -0.0
        handed = []
        pca = features._pca_in_place

        def recording(M, threshold):
            handed.append(M.copy())
            return pca(M, threshold)

        monkeypatch.setattr(features, "_pca_in_place", recording)
        features._channel_pca(channel_frame(X), 0.95)
        std = X.std(axis=0)
        std[std == 0] = 1.0
        want = (X - X.mean(axis=0)) / std
        assert np.array_equal(handed[0].view(np.int64), want.view(np.int64))

    def test_one_channel_is_its_own_component(self):
        X = np.random.default_rng(4).standard_normal((3 * 4096 + 17, 1)) + 1e6
        result = features._channel_pca(channel_frame(X), 0.95)
        assert result.loadings.tolist() == [[1.0]]
        assert result.explained.tolist() == [1.0]
        assert result.retained == 1

    def test_reduction_holds_one_matrix(self):
        # the stacked channels, then blocks of rows and d x d products: 1.12
        # of the matrix, where a deviation or centered copy beside it made 2.01
        n, d = 100_000, 9
        X = np.random.default_rng(11).standard_normal((n, d)) * 3.0 + 5.0
        frame = TimeSeriesFrame(
            timestamps=np.arange(n).astype("datetime64[m]").astype("datetime64[s]"),
            channels={f"c{j}": X[:, j].copy() for j in range(d)},
            units=dict.fromkeys((f"c{j}" for j in range(d)), "u"), logs={})
        assert traced_peak(lambda: features._channel_pca(frame, 0.95)) < 1.25 * X.nbytes


class TestSelectFeatures:
    def make_result(self, loadings):
        loadings = np.asarray(loadings, dtype=float)
        k = loadings.shape[1]
        return PcaResult(loadings=loadings,
                         explained=np.full(len(loadings), 1.0 / len(loadings)),
                         retained=k)

    def test_low_loading_channels_dropped_with_note(self):
        names = ["a", "b", "c"]
        result = self.make_result([[0.9], [0.5], [0.1]])
        sel = select_features(names, result, kb=None, tau=0.30)
        assert sel.selected == ("a", "b")
        assert any("dropped c" in note for note in sel.notes)

    def test_redundant_pair_collapses_to_strongest(self, kb):
        names = ["temp_external_b", "temp_external_e", "x"]
        result = self.make_result([[0.6], [0.8], [0.9]])
        sel = select_features(names, result, kb=kb, tau=0.30)
        assert "temp_external_e" in sel.selected
        assert "temp_external_b" not in sel.selected

    def test_tied_redundant_pair_keeps_the_lower_name(self, kb):
        names = ["temp_external_e", "temp_external_b", "x"]
        result = self.make_result([[0.8], [-0.8], [0.9]])
        sel = select_features(names, result, kb=kb, tau=0.30)
        assert sel.selected == ("temp_external_b", "x")

    def test_blocking_rule_channels_kept_despite_low_loading(self, kb):
        names = ["angle_platform", "x"]
        result = self.make_result([[0.05], [0.9]])
        sel = select_features(names, result, kb=kb, tau=0.30)
        assert "angle_platform" in sel.selected
        assert any("blocking" in note for note in sel.notes)

    def test_without_kb_no_force_keep(self):
        names = ["angle_platform", "x"]
        result = self.make_result([[0.05], [0.9]])
        sel = select_features(names, result, kb=None, tau=0.30)
        assert sel.selected == ("x",)

    def test_empty_selection_rejected(self):
        result = self.make_result([[0.05], [0.01]])
        with pytest.raises(ValueError, match="every channel"):
            select_features(["a", "b"], result, kb=None, tau=0.30)


class TestStandardize:
    def test_fit_rows_have_zero_mean_unit_std(self):
        frame = quiet_frame()
        rng = np.random.default_rng(11)
        for name in frame.channels:
            frame.channels[name] += rng.standard_normal(len(frame))
        fit = np.arange(len(frame)) < int(0.6 * len(frame))
        out, scaler = standardize(frame, fit)
        for name in out.channels:
            values = out.channels[name][fit]
            assert abs(values.mean()) <= 1e-9
            assert abs(values.std() - 1.0) <= 1e-9
            assert out.units[name] == "z"
        assert set(scaler) == set(frame.channels)

    def test_held_out_rows_use_the_fit_moments(self):
        frame = quiet_frame()
        fit = np.arange(len(frame)) < 1000
        values = frame.channels["temp_internal"].copy()
        out, scaler = standardize(frame, fit)
        mean, std = scaler["temp_internal"]
        assert np.allclose(out.channels["temp_internal"],
                           (values - mean) / std)

    def test_zero_variance_channel_divides_by_one(self):
        frame = quiet_frame()
        fit = np.ones(len(frame), dtype=bool)
        out, scaler = standardize(frame, fit)
        assert scaler["temp_external_a"][1] == 1.0
        assert np.allclose(out.channels["temp_external_a"], 0.0)

    def test_mask_validation(self):
        frame = quiet_frame()
        with pytest.raises(ValueError):
            standardize(frame, np.zeros(len(frame), dtype=bool))
        with pytest.raises(ValueError):
            standardize(frame, np.ones(len(frame), dtype=np.int64))


class TestStatisticalFeatures:
    def test_row_stats_match_numpy(self):
        frame = quiet_frame()
        out = add_statistical_features(frame)
        stack = np.column_stack([frame.channels[n] for n in frame.channels])
        assert np.allclose(out.channels["stat_mean"], stack.mean(axis=1))
        assert np.allclose(out.channels["stat_median"], np.median(stack, axis=1))
        assert np.allclose(out.channels["stat_variance"], stack.var(axis=1))

    def test_row_blocks_give_the_whole_array_bits(self, monkeypatch):
        # ties, signed zeros, an odd and an even channel count, and a last
        # block shorter than the others
        rng = np.random.default_rng(5)
        frame = quiet_frame()
        for name in frame.channels:
            frame.channels[name][:] = np.round(rng.normal(0.0, 3.0, len(frame)), 1)
        frame.channels["temp_internal"][::5] = -0.0
        monkeypatch.setattr(features, "_BLOCK_ROWS", 7)
        assert len(frame) % 7
        for part in (frame, frame.drop_channels(["angle_platform"])):
            out = add_statistical_features(part)
            stack = np.column_stack(list(part.channels.values()))
            for name, want in (("stat_mean", stack.mean(axis=1)),
                               ("stat_median", np.median(stack, axis=1)),
                               ("stat_variance", stack.var(axis=1))):
                assert np.array_equal(out.channels[name].view(np.int64),
                                      want.view(np.int64)), name


def event_at(frame, row, name, cause, severity, consequence, priority=False):
    return FaultEvent(onset=frame.timestamps[row], cycle=int(frame.cycle[row]),
                      sequence_id=str(frame.sequence[row]), fault_name=name,
                      cause=cause, severity=severity, consequence=consequence,
                      priority=priority)


class TestPrioritize:
    def make_events(self, frame, spec):
        row = int(segment_rows(frame, 1, "S10")[0])
        events = []
        for cause, severity in spec:
            name = ("Door Closure Fault" if severity == NON_BLOCKING
                    else "Needle Valve Fault")
            consequence = CYCLE_STOP if severity == BLOCKING else ACKNOWLEDGE
            events.append(event_at(frame, row, name, cause, severity,
                                   consequence))
        return events

    def test_competition_ranking_with_ties(self):
        frame = quiet_frame()
        events = self.make_events(frame, [
            ("alpha", BLOCKING), ("alpha", BLOCKING), ("alpha", BLOCKING),
            ("beta", BLOCKING), ("beta", BLOCKING), ("beta", BLOCKING),
            ("gamma", BLOCKING), ("delta", NON_BLOCKING)])
        annotated, table = prioritize(events, top_n=2)
        ranks = {row["cause"]: row["rank"] for row in table}
        assert ranks["alpha"] == 1 and ranks["beta"] == 1
        assert ranks["gamma"] == 3
        assert ranks["delta"] == 4
        flagged = {e.cause for e in annotated if e.priority}
        assert flagged == {"alpha", "beta"}

    def test_non_blocking_events_do_not_count(self):
        frame = quiet_frame()
        events = self.make_events(frame, [("delta", NON_BLOCKING)] * 5)
        _, table = prioritize(events, top_n=10)
        assert table[0]["count"] == 0

    def test_top_n_validation(self):
        with pytest.raises(ValueError):
            prioritize([], top_n=0)


class TestAnnotateAndTarget:
    def test_blocking_event_stamps_rows_from_onset(self, kb):
        frame = quiet_frame()
        s9 = segment_rows(frame, 1, "S09")
        event = event_at(frame, int(s9[890]), "Heating Fault",
                         "thermal regulation drift", BLOCKING, CYCLE_STOP,
                         priority=True)
        out = annotate_faults(frame, [event], kb)
        assert out.logs["severity"][s9[890]:s9[-1] + 1].all()
        assert out.logs["consequence"][s9[890]:s9[-1] + 1].all()
        assert out.logs["priority"][s9[890]:s9[-1] + 1].all()
        assert out.logs["cause_thermal_regulation_drift"][s9[890]:s9[-1] + 1].all()
        assert not out.logs["severity"][s9[:890]].any()
        assert not out.logs["severity"][s9[-1] + 1:].any()

    def test_non_blocking_event_stamps_cause_only(self, kb):
        frame = quiet_frame()
        s4 = segment_rows(frame, 1, "S04")
        event = event_at(frame, int(s4[3]), "Door Closure Fault",
                         "door left open", NON_BLOCKING, ACKNOWLEDGE)
        out = annotate_faults(frame, [event], kb)
        assert out.logs["cause_door_left_open"][s4[3]:s4[-1] + 1].all()
        assert not out.logs["severity"].any()
        assert not out.logs["consequence"].any()

    def test_event_with_no_surviving_rows_is_skipped(self, kb):
        frame = quiet_frame()
        s9 = segment_rows(frame, 1, "S09")
        event = event_at(frame, int(s9[890]), "Heating Fault",
                         "thermal regulation drift", BLOCKING, CYCLE_STOP)
        survived = frame.take(frame.sequence != "S09")
        out = annotate_faults(survived, [event], kb)
        assert not out.logs["severity"].any()

    def test_target_is_the_three_way_conjunction(self, kb):
        frame = quiet_frame()
        s9 = segment_rows(frame, 1, "S09")
        s4 = segment_rows(frame, 1, "S04")
        events = [
            event_at(frame, int(s9[890]), "Heating Fault",
                     "thermal regulation drift", BLOCKING, CYCLE_STOP,
                     priority=True),
            event_at(frame, int(s4[3]), "Door Closure Fault",
                     "door left open", NON_BLOCKING, ACKNOWLEDGE),
        ]
        out = reconstruct_target(annotate_faults(frame, events, kb))
        target = out.logs["target"]
        assert target[s9[890]:s9[-1] + 1].all()
        assert target.sum() == len(s9) - 890

    def test_unprioritized_blocking_event_yields_no_positives(self, kb):
        frame = quiet_frame()
        s9 = segment_rows(frame, 1, "S09")
        event = event_at(frame, int(s9[890]), "Heating Fault",
                         "thermal regulation drift", BLOCKING, CYCLE_STOP,
                         priority=False)
        out = reconstruct_target(annotate_faults(frame, [event], kb))
        assert out.logs["target"].sum() == 0

    def test_target_needs_the_knowledge_logs(self):
        with pytest.raises(ValueError, match="integrate"):
            reconstruct_target(quiet_frame())


class TestEncodersAndWindow:
    def test_sequence_codes(self):
        codes = encode_sequence(np.array(["IDLE", "S01", "S13"], dtype="U4"))
        assert codes.tolist() == [0, 1, 13]
        everything = np.array(["IDLE", *SEQUENCE_IDS][::-1], dtype="U4")
        assert encode_sequence(everything).tolist() == list(range(13, -1, -1))
        with pytest.raises(ValueError, match="unknown sequence"):
            encode_sequence(np.array(["S99"], dtype="U4"))
        # S14 sorts past S13 and A before IDLE; the error names the first unknown id
        with pytest.raises(ValueError, match="unknown sequence id 'S14'"):
            encode_sequence(np.array(["S01", "IDLE", "S14", "S02"], dtype="U4"))
        with pytest.raises(ValueError, match="unknown sequence id 'A'"):
            encode_sequence(np.array(["A"], dtype="U4"))


@pytest.fixture(scope="module")
def curated(sim_mid, kb):
    frame, _ = sim_mid
    return {s: build_dataset(frame, kb, s) for s in ("s1", "s2")}


KB_COLUMNS = (
    "severity", "consequence", "cause_needle_valve_clogging",
    "cause_sampling_valve_actuation_failure", "cause_thermal_regulation_drift",
    "cause_brewing_fan_failure", "cause_platform_inclination_shift",
    "cause_door_left_open", "priority")


# sha256 of (csv, json) written by to_files on the sim_mid fixture. The
# ROADMAP's byte contract: a change to these bytes is declared in CHANGES.md
# with the new digests.
CURATED_DIGESTS = {
    "s1": ("dd0ec9bb68847c514b42aaab7e02a34726925441c9f4dee49c9690ec4a7134f8",
           "acff7039bbb3bf8ffd22b72c60cb8c4cd1499b86f8a06864343371ce441a6102"),
    "s2": ("1c3d669aa5a72c18864a7c7e07d1b1dc430318f99f774519badbd29c77a841a3",
           "1a252206a2efdf24eb9b36375b153c93ae3a110f02646fa00920eaaac8fd29c0"),
}


def frame_bytes(frame) -> int:
    return frame.timestamps.nbytes + sum(
        v.nbytes for v in (*frame.channels.values(), *frame.logs.values()))


class TestBuildDataset:
    # Traced peak of build_dataset over the bytes of its raw frame, which the
    # caller keeps alive here. Measured on sim_mid: 2.13 (s1) and 2.24 (s2),
    # where the cleaned frame and its copy through the outlier step are alive
    # together (s1 deletes the flagged rows, s2 applies its verdicts). Before
    # each stage kept one full-length temporary at a time it read 3.51 and
    # 3.84. The reduction step and the ICS screen peak lower here, so their
    # own tests bound them.
    PEAK_PER_RAW_BYTE = 2.3

    @pytest.mark.parametrize("scenario", ["s1", "s2"])
    def test_traced_peak_is_bounded(self, sim_mid, kb, scenario):
        frame, _ = sim_mid
        peak = traced_peak(lambda: build_dataset(frame, kb, scenario))
        assert peak < self.PEAK_PER_RAW_BYTE * frame_bytes(frame)

    def test_curated_bytes_are_pinned(self, curated, tmp_path):
        for scenario, ds in curated.items():
            paths = (tmp_path / f"{scenario}.csv", tmp_path / f"{scenario}.json")
            ds.to_files(*paths)
            digests = tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in paths)
            assert digests == CURATED_DIGESTS[scenario], scenario

    def test_matrix_is_complete_and_binary(self, curated):
        for ds in curated.values():
            assert not np.isnan(ds.X).any()
            assert set(np.unique(ds.y)) <= {0, 1}
            assert ds.y.sum() > 0
            assert ds.X.shape[1] == len(ds.feature_names)
            assert ds.interval_minutes == 15
            assert np.all(np.diff(ds.timestamps.astype("int64")) > 0)

    def test_rows_cover_only_the_balance_window(self, curated):
        for ds in curated.values():
            assert set(np.unique(ds.sequences)) == {"S09", "S10"}

    def test_shared_context_features(self, curated):
        for ds in curated.values():
            names = ds.feature_names
            assert "sequence" in names
            assert "cycle_minute" in names
            assert "cycle" not in names
            for stat in ("stat_mean", "stat_median", "stat_variance"):
                assert stat in names

    def test_knowledge_columns_only_in_scenario_two(self, curated):
        for column in KB_COLUMNS:
            assert column in curated["s2"].feature_names
            assert column not in curated["s1"].feature_names

    def test_scenario_specific_verdict_accounting(self, curated):
        assert set(curated["s1"].verdict_counts) == {"deleted_rows"}
        assert set(curated["s2"].verdict_counts) <= {
            "CorrectedFalsePositive", "TaggedTrueRelevant",
            "DroppedTrueIrrelevant"}

    def test_scaler_covers_selected_channels(self, curated):
        for ds in curated.values():
            assert set(ds.scaler) == set(ds.selection.selected)

    def test_cycle_minute_tracks_position_within_cycle(self, curated):
        ds = curated["s1"]
        col = ds.X[:, ds.feature_names.index("cycle_minute")]
        # heating rows sit early in the cycle, sampling rows later
        heating = col[ds.sequences == "S09"]
        sampling = col[ds.sequences == "S10"]
        assert heating.max() < sampling.min()

    def test_a_bucket_straddling_two_cycles_takes_the_later_cycles_minute(self, kb):
        # 240-minute buckets do not divide the cycle, so on gap-free telemetry a
        # bucket that ends in S09 may begin in the cycle before; its minute is
        # its last row's
        config = make_config(5, sim={"cycles": 6}, preprocess={"resample_minutes": 240},
                             horizons_minutes=[720])
        frame, _ = simulate(config.sim, kb)
        bounds = np.cumsum([0, *(kb.durations[s] for s in SEQUENCE_IDS)])
        first, end = bounds[SEQUENCE_IDS.index("S09")], bounds[SEQUENCE_IDS.index("S10") + 1]
        for scenario in ("s1", "s2"):
            ds = build_dataset(frame, kb, scenario, config.preprocess)
            minutes = ds.X[:, ds.feature_names.index("cycle_minute")]
            assert ((minutes >= first) & (minutes < end)).all()

    # The blanket deletes all of cycle 9's S09 and S10 rows, or all but five
    # S10 minutes that share a 15-minute bucket with S11, which resampling
    # labels S11. Either way the balance window keeps nine cycles and the
    # split trains on the leading ones.
    @pytest.mark.parametrize("idle_minutes, minutes, split",
                             [(210, 1200, [0.6, 0.2, 0.2]), (205, 1195, [0.6, 0.2, 0.2]),
                              (210, 1200, [0.5, 0.3, 0.2])],
                             ids=["rows-deleted", "rows-resampled-away", "split-50-30-20"])
    def test_scaler_fits_the_cycles_the_split_trains_on(self, kb, monkeypatch,
                                                        idle_minutes, minutes, split):
        config = make_config(7, sim={"cycles": 10, "idle_minutes": idle_minutes},
                             outliers=[], split=split, missing={"non_use": True, "blanket": [
                                 {"cycle": 9, "start_minute": 120, "minutes": minutes}]})
        frame, _ = inject_missing(*simulate(config.sim, kb), config.missing)
        fitted = []

        def spy(frame, fit_mask):
            fitted.append(tuple(np.unique(frame.cycle[fit_mask]).tolist()))
            return real(frame, fit_mask)

        real = features.standardize
        monkeypatch.setattr(features, "standardize", spy)
        for scenario in ("s1", "s2"):
            ds = build_dataset(frame, kb, scenario, config.preprocess, config.split[0])
            assert len(np.unique(ds.cycles)) == 9
            assert fitted.pop() == split_chronological(ds, config.split).train_cycles

    def test_rules_see_the_rows_gap_handling_deletes(self, kb):
        # the blanket deletes cycle 2's minutes 120 to 419, the head of S09,
        # where the heating fault's temporal qualifier counts from
        config = make_config(3, sim={"cycles": 3, "schedule": [[2, "heating_temp"]]},
                             outliers=[], missing={"non_use": True, "blanket": [
                                 {"cycle": 2, "start_minute": 120, "minutes": 300}]})
        frame, _ = inject_missing(*simulate(config.sim, kb), config.missing)
        assert [(e.fault_name, e.cycle) for e in evaluate_rules(frame, kb)] == [
            ("Heating Fault", 2)]
        ds = build_dataset(frame, kb, "s2", config.preprocess, config.split[0])
        assert "cause thermal regulation drift: 1 blocking events, rank 1" in ds.notes
        assert int(ds.y[ds.cycles == 2].sum()) == 5

    @staticmethod
    def needle_dropouts(kb, cycle, start_minute, minutes, **preprocess):
        """Scenario 2 on six cycles, without and then with a dropout of
        pressure_internal_a in one cycle, as (rule events, dataset) pairs."""
        out = []
        for dropout in ([], [{"cycle": cycle, "channel": "pressure_internal_a",
                              "start_minute": start_minute, "minutes": minutes}]):
            config = make_config(3, sim={"cycles": 6}, outliers=[], preprocess=preprocess,
                                 missing={"non_use": True, "dropout": dropout})
            frame, _ = inject_missing(*simulate(config.sim, kb), config.missing)
            out.append(([(e.fault_name, e.cycle) for e in evaluate_rules(frame, kb)],
                        build_dataset(frame, kb, "s2", config.preprocess, config.split[0])))
        return out

    def test_rules_see_a_channel_the_column_drop_removes(self, kb):
        (events, whole), (gappy, ds) = self.needle_dropouts(
            kb, 2, 0, 1500, column_drop_missing_fraction=0.10)
        assert "dropped column pressure_internal_a: 16% missing" in ds.notes
        assert len(ds) == len(whole) == 480
        # the dropout covers cycle 2's S10, where the needle valve check
        # has no reading to go on, so it fires no event there
        assert gappy == events
        assert np.array_equal(ds.y, whole.y)

    def test_a_dropout_over_the_vacuum_window_fires_no_needle_fault(self, kb):
        # cycle 5's S10 starts at its minute 1080; the needle valve check
        # reads its first five minutes, all of them missing here
        (events, whole), (gappy, ds) = self.needle_dropouts(kb, 5, 1080, 5)
        assert ("Needle Valve Fault", 5) not in gappy
        assert gappy == events
        assert int(ds.y[ds.cycles == 5].sum()) == int(whole.y[whole.cycles == 5].sum()) == 0

    def test_unknown_scenario_rejected(self, sim_mid, kb):
        with pytest.raises(ValueError, match="scenario"):
            build_dataset(sim_mid[0], kb, "s9")

    @pytest.mark.parametrize("scenario", ["s1", "s2"])
    def test_infinite_cell_is_refused_by_the_first_screen(self, sim_small, kb, scenario):
        # gap handling classifies only NaN cells, so an infinite one reaches
        # the outlier screens, whose finiteness check names its channel
        frame, _ = sim_small
        name = next(iter(frame.channels))
        values = frame.channels[name].copy()
        values[100] = np.inf
        frame = dataclasses.replace(frame, channels={**frame.channels, name: values})
        with pytest.raises(ValueError, match=f"channel '{name}' holds NaN or infinite cells"):
            build_dataset(frame, kb, scenario)

    def test_misshaped_dataset_is_not_written(self, curated, tmp_path):
        # 4 timestamps, 2 labels, and 3 feature columns under 2 names
        ds = curated["s2"]
        bad = dataclasses.replace(ds, timestamps=ds.timestamps[:4], cycles=ds.cycles[:4],
                                  sequences=ds.sequences[:4], X=ds.X[:4, :3],
                                  y=ds.y[:2], feature_names=ds.feature_names[:2])
        with pytest.raises(ValueError, match="header has 6 names for the timestamp and 6 columns"):
            bad.to_files(tmp_path / "c.csv", tmp_path / "c.json")
        bad = dataclasses.replace(bad, feature_names=ds.feature_names[:3])
        with pytest.raises(ValueError, match="column 'target' has 2 rows, there are 4 timestamps"):
            bad.to_files(tmp_path / "c.csv", tmp_path / "c.json")
        assert not (tmp_path / "c.csv").exists() and not (tmp_path / "c.json").exists()
