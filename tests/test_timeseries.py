"""Frame construction, resampling, sequence slicing, CSV round trips."""

from __future__ import annotations

import csv
import math
import os
import re
import signal
import time
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pdmpipe import TimeSeriesFrame, _fork, timeseries
from pdmpipe.timeseries import (
    SEQUENCE_IDS,
    SEQUENCE_VOCAB,
    _write_json,
    _write_table,
    resample,
    slice_by_sequence,
    write_csv,
)


def minutes(n, start="2025-03-01T00:00:00"):
    return np.datetime64(start, "s") + (np.arange(n) * 60).astype("timedelta64[s]")


def flat_frame(n, start="2025-03-01T00:00:00", **channel_values):
    channels = {name: np.asarray(vals, dtype=float)
                for name, vals in channel_values.items()}
    if not channels:
        channels = {"x": np.arange(n, dtype=float)}
    return TimeSeriesFrame(
        timestamps=minutes(n, start),
        channels=channels,
        units={name: "u" for name in channels},
        logs={"sequence_id": np.full(n, "S01", dtype="U4"),
              "cycle_number": np.ones(n, dtype=np.int64),
              "pulse": np.zeros(n, dtype=np.int64)},
        step_minutes=1)


class TestFrameInvariants:
    def test_column_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            TimeSeriesFrame(timestamps=minutes(3),
                            channels={"x": np.zeros(2)}, units={"x": "u"},
                            logs={})

    def test_channel_without_unit_rejected(self):
        with pytest.raises(ValueError, match="unit"):
            TimeSeriesFrame(timestamps=minutes(3),
                            channels={"x": np.zeros(3)}, units={}, logs={})

    def test_repeated_timestamps_rejected(self):
        ts = minutes(3)
        ts[1] = ts[0]
        with pytest.raises(ValueError, match="increasing"):
            TimeSeriesFrame(timestamps=ts, channels={}, units={}, logs={})

    def test_unknown_sequence_id_rejected(self):
        with pytest.raises(ValueError, match="sequence"):
            TimeSeriesFrame(
                timestamps=minutes(2), channels={}, units={},
                logs={"sequence_id": np.array(["S01", "S14"], dtype="U4")})

    @pytest.mark.parametrize("ids", [
        ["S14", "S01", "S01", "S02"],             # bad id at row 0
        ["S01", "S01", "S02", "IDLE", "S14"],     # bad id at the last row
        ["S01", "S01", "s01", "S01", "S01"],      # one bad row inside a run
        ["S01", "BAD", "BAD", "BAD", "S02"],      # a whole run of a bad id
        ["ZZ", "S01", "AA", "AA", "S01", "ZZ"],   # several, each named once
        ["S99"],
    ])
    def test_every_unknown_sequence_id_is_named(self, ids):
        seq = np.array(ids, dtype="U4")
        # reference: np.unique over every row
        bad = sorted(set(np.unique(seq)) - SEQUENCE_VOCAB)
        with pytest.raises(ValueError) as info:
            TimeSeriesFrame(timestamps=minutes(len(ids)), channels={}, units={},
                            logs={"sequence_id": seq})
        assert str(info.value) == f"unknown sequence ids: {bad}"

    @pytest.mark.parametrize("ids", [[], ["IDLE"], ["S13"], ["S01", "S01", "IDLE"]])
    def test_known_sequence_ids_pass(self, ids):
        frame = TimeSeriesFrame(timestamps=minutes(len(ids)), channels={}, units={},
                                logs={"sequence_id": np.array(ids, dtype="U4")})
        assert len(frame) == len(ids)

    def test_decreasing_cycle_rejected(self):
        with pytest.raises(ValueError, match="cycle"):
            TimeSeriesFrame(
                timestamps=minutes(2), channels={}, units={},
                logs={"cycle_number": np.array([2, 1], dtype=np.int64)})

    def test_take_preserves_order_and_metadata(self):
        frame = flat_frame(5)
        sub = frame.take(np.array([0, 2, 4]))
        assert len(sub) == 3
        assert np.array_equal(sub.channels["x"], [0.0, 2.0, 4.0])
        assert sub.units == frame.units
        assert sub.step_minutes == 1

    def test_elapsed_minutes(self):
        assert np.array_equal(flat_frame(4).elapsed_minutes(), [0, 1, 2, 3])


class TestResample:
    @given(n=st.integers(1, 400), interval=st.integers(1, 90))
    def test_gap_free_length_is_ceil_span_over_interval(self, n, interval):
        frame = flat_frame(n)
        out = resample(frame, interval)
        assert len(out) == math.ceil(n / interval)

    def test_native_interval_is_identity(self):
        values = np.array([1.0, -0.0, 3.5, -4.0])
        frame = flat_frame(4, x=values)
        out = resample(frame, 1)
        assert np.array_equal(out.timestamps, frame.timestamps)
        assert np.array_equal(out.channels["x"].view(np.int64), values.view(np.int64))
        assert np.array_equal(out.sequence, frame.sequence)

    def test_mean_of_each_bucket(self):
        frame = flat_frame(5, x=np.array([1.0, 2.0, 4.0, 8.0, 5.0]))
        assert np.array_equal(resample(frame, 2).channels["x"], [1.5, 6.0, 5.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_missing_or_infinite_cell_refused_naming_its_channel(self, bad):
        y = np.arange(4.0)
        y[2] = bad
        frame = flat_frame(4, x=np.arange(4.0), y=y)
        with pytest.raises(ValueError, match="channel 'y' holds NaN or infinite cells"):
            resample(frame, 2)

    def test_buckets_are_runs_of_rows(self):
        frame = flat_frame(45).take(np.r_[0:3, 14:20, 40:45])
        ids, first, last = timeseries._buckets(frame, 15)
        assert ids.tolist() == [0, 1, 2]
        assert first.tolist() == [0, 4, 9]
        assert last.tolist() == [3, 8, 13]

    def test_flag_any_keeps_pulse_anywhere_in_bucket(self):
        frame = flat_frame(30)
        frame.logs["pulse"][17] = 1
        out = resample(frame, 15)
        assert np.array_equal(out.logs["pulse"], [0, 1])

    def test_cycle_takes_bucket_last(self):
        frame = flat_frame(4)
        frame.logs["cycle_number"] = np.array([1, 1, 1, 2], dtype=np.int64)
        out = resample(frame, 2)
        assert np.array_equal(out.cycle, [1, 2])

    def test_buckets_align_to_first_timestamp(self):
        frame = flat_frame(31, start="2025-03-01T00:07:00")
        out = resample(frame, 15)
        assert out.timestamps[0] == frame.timestamps[0]
        assert (out.timestamps[1] - out.timestamps[0]) == np.timedelta64(900, "s")

    def test_deleted_rows_skip_their_bucket(self):
        frame = flat_frame(45).take(np.r_[0:15, 30:45])
        out = resample(frame, 15)
        assert len(out) == 2

    def test_interval_must_be_multiple_of_step(self):
        frame = flat_frame(30)
        frame = TimeSeriesFrame(
            timestamps=frame.timestamps[::5], channels={}, units={},
            logs={}, step_minutes=5)
        with pytest.raises(ValueError, match="multiple"):
            resample(frame, 7)

    def test_empty_frame_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            resample(flat_frame(3).take(np.zeros(3, dtype=bool)), 15)

    def test_nonpositive_interval_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            resample(flat_frame(3), 0)


class TestSliceBySequence:
    def test_keep_all_is_identity_and_idempotent(self, sim_small):
        frame, _ = sim_small
        ids = set(np.unique(frame.sequence))
        once = slice_by_sequence(frame, ids)
        twice = slice_by_sequence(once, ids)
        assert np.array_equal(once.timestamps, frame.timestamps)
        assert np.array_equal(twice.timestamps, once.timestamps)

    def test_keep_heating_and_sampling_only(self, sim_small):
        frame, _ = sim_small
        out = slice_by_sequence(frame, {"S09", "S10"})
        assert set(np.unique(out.sequence)) == {"S09", "S10"}
        assert len(out) == 6 * (960 + 240)

    def test_idle_on_active_only_frame_is_empty(self, sim_small):
        frame, _ = sim_small
        active = slice_by_sequence(frame, {f"S{i:02d}" for i in range(1, 14)})
        assert len(slice_by_sequence(active, {"IDLE"})) == 0

    def test_empty_keep_set_rejected(self, sim_small):
        frame, _ = sim_small
        with pytest.raises(ValueError, match="non-empty"):
            slice_by_sequence(frame, set())


class TestCsvRoundTrip:
    def test_cell_text(self, tmp_path):
        x = np.array([np.nan, -0.0, 5e-324, 1e16, 1e-05, 0.1])
        frame = TimeSeriesFrame(
            timestamps=minutes(6), channels={"x": x}, units={"x": "u"},
            logs={"sequence_id": np.array(["S01", "S01", "S13", "S13", "IDLE", "IDLE"]),
                  "pulse": np.array([0, 1, -3, 7, 12345678901, 0])})
        path = tmp_path / "telemetry.csv"
        write_csv(frame, path)
        expected = ["timestamp,x,sequence_id,pulse"]
        for i in range(6):
            cell = "" if np.isnan(x[i]) else repr(float(x[i]))
            expected.append(f"{str(frame.timestamps[i])},{cell},"
                            f"{str(frame.sequence[i])},{str(frame.logs['pulse'][i])}")
        assert path.read_bytes() == "".join(line + "\r\n" for line in expected).encode()
        assert expected[1:4] == ["2025-03-01T00:00:00,,S01,0",
                                 "2025-03-01T00:01:00,-0.0,S01,1",
                                 "2025-03-01T00:02:00,5e-324,S13,-3"]


def oracle_write_table(path, header, timestamps, columns):
    """The table writer before joined blocks: numpy's float-to-string cast,
    then ``csv.writer`` rows, 4096 rows at a time."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for lo in range(0, len(timestamps), 4096):
            block = slice(lo, lo + 4096)
            writer.writerows(zip(np.datetime_as_string(timestamps[block], unit="s"),
                                 *(oracle_cells(col[block]) for col in columns)))


def oracle_cells(values):
    if values.dtype.kind != "f":
        return values.astype(str).tolist()
    return np.where(np.isnan(values), "", values.astype(np.float64).astype(str)).tolist()


# floats at the edges of the text format: NaN, signed zero and infinity, the
# smallest subnormal, and both sides of repr's switches to exponent notation
# at 1e16 and between 1e-4 and 1e-5
SPECIAL_FLOATS = np.array([
    np.nan, 0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 1e16, -1e16,
    np.nextafter(1e16, 0), 9999999999999998.0, 1e16 + 2, 1e-4, np.nextafter(1e-4, 0),
    1e-5, np.nextafter(1e-5, 1), 9.999999999999999e-05, 0.1, 1e22, 123456789.0])
TEXT_CELLS = np.array(["", "plain", "a,b", 'say "hi"', '"', ",", "x\ry",
                       "line\nbreak", "\r\n", "S01"])
ROW_COUNTS = (0, 1, 511, 512, 513, 4095, 4096, 4097)


def table_case(seed, n=None):
    """Header, timestamps and columns of every kind the writer meets, with
    float specials mixed into random floats near the format's switch points;
    ``n`` rows, or a count that ``seed`` picks."""
    rng = np.random.default_rng(seed)
    if n is None:
        n = ROW_COUNTS[seed] if seed < len(ROW_COUNTS) else int(rng.integers(2, 1500))
    scale = 10.0 ** rng.integers(-8, 20, size=n)
    near = rng.choice([1.0, 1e16, 1e-4, 1e-5], size=n)
    x = np.where(near == 1.0, rng.standard_normal(n) * scale,
                 near * (1 + rng.uniform(-1e-3, 1e-3, size=n)))
    special = rng.random(n) < 0.3
    x[special] = rng.choice(SPECIAL_FLOATS, size=int(special.sum()))
    columns = {
        "f64": x,
        "f32": np.where(np.abs(x) > 1e30, np.copysign(np.inf, x), x).astype(np.float32),
        "f16": rng.standard_normal(n).astype(np.float16),
        "longdouble": x.astype(np.longdouble),
        "i8": rng.integers(-128, 128, size=n).astype(np.int8),
        "i64": rng.integers(-2**62, 2**62, size=n),
        "bool": rng.random(n) < 0.5,
        "sequence_id": rng.choice([*SEQUENCE_IDS, "IDLE"], size=n).astype("U4"),
        "text": rng.choice(TEXT_CELLS, size=n),
    }
    if seed % 2:
        columns['quoted, "name"'] = columns["i8"]
    names = [list(columns)[i] for i in rng.permutation(len(columns))]
    return ["timestamp", *names], minutes(n), [columns[name] for name in names]


class TestTableWriterOracle:
    @pytest.mark.parametrize("seed", range(36))
    def test_matches_csv_writer_rows(self, seed, tmp_path):
        header, timestamps, columns = table_case(seed)
        _write_table(tmp_path / "new.csv", header, timestamps, columns)
        oracle_write_table(tmp_path / "old.csv", header, timestamps, columns)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    # 7-row blocks, so a part is at least 4 blocks long; each table splits into
    # exactly `parts`: 4 blocks a part, one row less or more, or 250 rows more
    @pytest.mark.parametrize("parts", [1, 2, 3, 4])
    @pytest.mark.parametrize("offset", [-1, 0, 1, 250])
    def test_forced_parts_match_csv_writer_rows(self, parts, offset, tmp_path, monkeypatch):
        n = 7 * timeseries._PART_BLOCKS * parts + offset
        monkeypatch.setattr(timeseries, "_BLOCK_ROWS", 7)
        monkeypatch.setattr(_fork, "_cpus", lambda: parts)
        header, timestamps, columns = table_case(100 + parts, n)
        _write_table(tmp_path / "new.csv", header, timestamps, columns)
        oracle_write_table(tmp_path / "old.csv", header, timestamps, columns)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_cases_cover_specials_and_quoting(self):
        floats, text = set(), set()
        for seed in range(36):
            header, _, columns = table_case(seed)
            named = dict(zip(header[1:], columns))
            floats.update(map(repr, named["f64"].tolist()))
            text.update(named["text"].tolist())
        assert set(map(repr, SPECIAL_FLOATS.tolist())) <= floats
        assert set(TEXT_CELLS.tolist()) <= text


class TestTableWriterShape:
    def test_header_needs_one_name_per_column(self, tmp_path):
        path = tmp_path / "t.csv"
        columns = [np.arange(4.0), np.arange(4)]
        with pytest.raises(ValueError, match="header has 2 names for the timestamp and 2 columns"):
            _write_table(path, ["timestamp", "a"], minutes(4), columns)
        assert not path.exists()

    def test_columns_need_one_cell_per_timestamp(self, tmp_path):
        path = tmp_path / "t.csv"
        with pytest.raises(ValueError, match="column 'b' has 2 rows, there are 4 timestamps"):
            _write_table(path, ["timestamp", "a", "b"], minutes(4),
                         [np.arange(4.0), np.arange(2)])
        assert not path.exists()


class TestTableWriterParts:
    """The forked row parts: every child is reaped and every temporary file
    dropped, on success and on failure."""

    @pytest.fixture
    def four_parts(self, monkeypatch):
        monkeypatch.setattr(timeseries, "_BLOCK_ROWS", 7)
        monkeypatch.setattr(_fork, "_cpus", lambda: 4)
        return table_case(7, 7 * timeseries._PART_BLOCKS * 4)

    @staticmethod
    def assert_no_child():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_write_leaves_no_child_and_no_file(self, four_parts, tmp_path):
        _write_table(tmp_path / "t.csv", *four_parts)
        self.assert_no_child()
        assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]

    def test_failed_child_names_the_path(self, four_parts, tmp_path, monkeypatch):
        write_rows = timeseries._write_rows

        def fail_in_children(out, timestamps, columns, lo, hi):
            if lo:
                raise OSError("no space left")
            write_rows(out, timestamps, columns, lo, hi)

        monkeypatch.setattr(timeseries, "_write_rows", fail_in_children)
        path = tmp_path / "t.csv"
        with pytest.raises(RuntimeError, match=re.escape(
                f"{path}: the process writing rows 28 to 56 exited with status 1: "
                "OSError: no space left")):
            _write_table(path, *four_parts)
        self.assert_no_child()
        assert list(tmp_path.iterdir()) == []

    def test_killed_child_names_its_signal(self, four_parts, tmp_path, monkeypatch):
        write_rows = timeseries._write_rows

        def children_killed(out, timestamps, columns, lo, hi):
            if lo:
                os.kill(os.getpid(), signal.SIGKILL)
            write_rows(out, timestamps, columns, lo, hi)

        monkeypatch.setattr(timeseries, "_write_rows", children_killed)
        path = tmp_path / "t.csv"
        with pytest.raises(RuntimeError, match=re.escape(
                f"{path}: the process writing rows 28 to 56 exited with status -9") + "$"):
            _write_table(path, *four_parts)
        self.assert_no_child()
        assert list(tmp_path.iterdir()) == []

    def test_children_are_killed_when_the_first_part_fails(self, four_parts, tmp_path,
                                                           monkeypatch):
        def children_hang(out, timestamps, columns, lo, hi):
            if not lo:
                raise OSError("no space left")
            time.sleep(120)

        monkeypatch.setattr(timeseries, "_write_rows", children_hang)
        start = time.monotonic()
        with pytest.raises(OSError, match="no space left"):
            _write_table(tmp_path / "t.csv", *four_parts)
        assert time.monotonic() - start < 60
        self.assert_no_child()
        assert list(tmp_path.iterdir()) == []

    def test_failure_keeps_the_earlier_table(self, four_parts, tmp_path, monkeypatch):
        path = tmp_path / "t.csv"
        path.write_bytes(b"earlier\r\n")

        def fail(out, timestamps, columns, lo, hi):
            raise OSError("no space left")

        monkeypatch.setattr(timeseries, "_write_rows", fail)
        with pytest.raises(OSError, match="no space left"):
            _write_table(path, *four_parts)
        self.assert_no_child()
        assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]
        assert path.read_bytes() == b"earlier\r\n"

    def test_table_replaces_a_file_with_the_mode_open_gives(self, four_parts, tmp_path):
        (tmp_path / "plain.csv").write_bytes(b"")
        path = tmp_path / "t.csv"
        path.write_bytes(b"earlier\r\n")
        os.chmod(path, 0o600)
        _write_table(path, *four_parts)
        oracle_write_table(tmp_path / "old.csv", *four_parts)
        assert path.read_bytes() == (tmp_path / "old.csv").read_bytes()
        assert path.stat().st_mode == (tmp_path / "plain.csv").stat().st_mode
        assert sorted(p.name for p in tmp_path.iterdir()) == ["old.csv", "plain.csv", "t.csv"]

    def test_one_cpu_never_forks(self, tmp_path, monkeypatch):
        def no_fork():
            raise AssertionError("os.fork called")

        monkeypatch.setattr(_fork, "_cpus", lambda: 1)
        monkeypatch.setattr(os, "fork", no_fork)
        header, timestamps, columns = table_case(3, 9000)
        _write_table(tmp_path / "new.csv", header, timestamps, columns)
        oracle_write_table(tmp_path / "old.csv", header, timestamps, columns)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


@dataclass(frozen=True)
class Stamp:
    at: np.datetime64
    note: str = None


@dataclass(frozen=True)
class Log:
    stamps: tuple
    count: int


class TestJsonWriter:
    def test_records_are_written_by_their_fields(self, tmp_path):
        path = tmp_path / "log.json"
        at = np.datetime64("2025-03-01T06:07:08", "s")
        _write_json(path, {"log": Log(stamps=(Stamp(at), Stamp(at + 60, "b")), count=2)})
        assert path.read_text() == (
            '{\n  "log": {\n    "count": 2,\n    "stamps": [\n'
            '      {\n        "at": "2025-03-01T06:07:08",\n        "note": null\n      },\n'
            '      {\n        "at": "2025-03-01T06:08:08",\n        "note": "b"\n      }\n'
            '    ]\n  }\n}\n')

    def test_unsupported_value_names_its_type(self, tmp_path):
        with pytest.raises(TypeError, match="int64"):
            _write_json(tmp_path / "n.json", {"n": np.int64(3)})
