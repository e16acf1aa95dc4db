"""Columnar time-series container with CSV and JSON output and interval resampling.

The frame carries three kinds of columns:

- ``channels``: numeric sensor series (float64) with a unit tag each; missing
  cells are NaN until gap handling, and resampling refuses NaN and infinity,
- ``logs``: discrete series — the sequence id (S01..S13 or IDLE), the cycle
  number, the minute in the cycle, and binary fault/valve/door flags,
- ``timestamps``: strictly increasing instants at a nominal fixed step.

Frames are immutable by convention: every operation returns a new frame.

CSV tables, the telemetry (``write_csv``) and the curated dataset, are
written in contiguous parts of rows on the available CPUs, and the bytes
are the same for any CPU count.
"""

from __future__ import annotations

import csv
import io
import json
import os
import re
import shutil
from dataclasses import dataclass, fields, is_dataclass, replace

import numpy as np

from ._fork import _bounds, _children

SEQUENCE_IDS = tuple(f"S{i:02d}" for i in range(1, 14))
IDLE = "IDLE"
SEQUENCE_VOCAB = frozenset(SEQUENCE_IDS) | {IDLE}

# causes of a gap in the telemetry
CAUSE_BLANKET = "BlanketMaintenance"
CAUSE_DROPOUT = "SingleSensorDropout"
CAUSE_NON_USE = "NonUse"

TIME_COL = "timestamp"
SEQUENCE_COL = "sequence_id"
CYCLE_COL = "cycle_number"
CYCLE_MINUTE_COL = "cycle_minute"


@dataclass(frozen=True)
class TimeSeriesFrame:
    """One block of telemetry: timestamps + numeric channels + discrete logs.

    Construction checks every column's length, the unit tags, strictly
    increasing timestamps and non-decreasing cycle numbers. Sequence ids
    are checked against ``SEQUENCE_VOCAB`` at run heads only: the first
    row and each row whose id differs from the row before. A run repeats
    its head's id, so that covers every row in one vectorized comparison.
    """

    timestamps: np.ndarray                 # datetime64[s], strictly increasing
    channels: dict                         # name -> float64 array (NaN = missing)
    units: dict                            # channel name -> unit string
    logs: dict                             # name -> int64 or string array
    step_minutes: int = 1

    def __post_init__(self):
        n = len(self.timestamps)
        for name, arr in list(self.channels.items()) + list(self.logs.items()):
            if len(arr) != n:
                raise ValueError(f"column {name!r} has length {len(arr)}, expected {n}")
        missing_units = set(self.channels) - set(self.units)
        if missing_units:
            raise ValueError(f"channels without a unit tag: {sorted(missing_units)}")
        if n > 1 and not np.all(self.timestamps[1:] > self.timestamps[:-1]):
            raise ValueError("timestamps must be strictly increasing")
        if SEQUENCE_COL in self.logs:
            seq = np.asarray(self.logs[SEQUENCE_COL])
            heads = np.concatenate((seq[:1], seq[1:][seq[1:] != seq[:-1]]))
            bad = set(heads) - SEQUENCE_VOCAB
            if bad:
                raise ValueError(f"unknown sequence ids: {sorted(bad)}")
        if CYCLE_COL in self.logs and n > 1:
            cyc = self.logs[CYCLE_COL]
            if np.any(cyc[1:] < cyc[:-1]):
                raise ValueError("cycle number must be non-decreasing")

    def __len__(self) -> int:
        return len(self.timestamps)

    @property
    def sequence(self) -> np.ndarray:
        return self.logs[SEQUENCE_COL]

    @property
    def cycle(self) -> np.ndarray:
        return self.logs[CYCLE_COL]

    def take(self, index) -> "TimeSeriesFrame":
        """Row subset (boolean mask or index array), original order preserved."""
        return TimeSeriesFrame(
            timestamps=self.timestamps[index],
            channels={k: v[index] for k, v in self.channels.items()},
            units=dict(self.units),
            logs={k: v[index] for k, v in self.logs.items()},
            step_minutes=self.step_minutes,
        )

    def with_channel(self, name: str, values: np.ndarray, unit: str) -> "TimeSeriesFrame":
        channels = dict(self.channels)
        channels[name] = np.asarray(values, dtype=np.float64)
        units = dict(self.units)
        units[name] = unit
        return replace(self, channels=channels, units=units)

    def drop_channels(self, names) -> "TimeSeriesFrame":
        drop = set(names)
        return replace(
            self,
            channels={k: v for k, v in self.channels.items() if k not in drop},
            units={k: v for k, v in self.units.items() if k not in drop},
        )

    def elapsed_minutes(self) -> np.ndarray:
        """Minutes since the first timestamp, per row."""
        if len(self) == 0:
            return np.zeros(0, dtype=np.int64)
        delta = (self.timestamps - self.timestamps[0]).astype("timedelta64[s]")
        return delta.astype(np.int64) // 60


def _cycle_minutes(frame: TimeSeriesFrame) -> np.ndarray:
    """Minutes since the first row of each row's cycle."""
    seconds = frame.timestamps.astype("datetime64[s]").view(np.int64)
    # cycle numbers never decrease, so a cycle starts at the first row of its number
    return (seconds - seconds[np.searchsorted(frame.cycle, frame.cycle)]) // 60


def _runs(mask: np.ndarray) -> list:
    """(start, end) index pairs of the maximal True runs of ``mask``, end exclusive."""
    padded = np.concatenate(([False], mask, [False]))
    edges = np.diff(padded.astype(np.int8))
    return list(zip(np.flatnonzero(edges == 1), np.flatnonzero(edges == -1)))


def write_csv(frame: TimeSeriesFrame, path) -> dict:
    """Write a frame to CSV; returns its schema: channel units, log names, step."""
    _write_table(path, [TIME_COL, *frame.channels, *frame.logs], frame.timestamps,
                 [*frame.channels.values(), *frame.logs.values()])
    return {
        "channels": dict(frame.units),
        "logs": list(frame.logs),
        "step_minutes": frame.step_minutes,
    }


# Rows joined into one string per write. With 4096-row blocks the RSS
# high-water of ``simulate`` on 320k telemetry rows rose by about 4.5 MB over
# writing rows with ``csv.writer``; with 512 it stays level, at the same speed.
_BLOCK_ROWS = 512
# Blocks in the shortest part a table is split into, so that a short table is
# written without a fork.
_PART_BLOCKS = 4
_QUOTED = re.compile(r'[,"\r\n]')   # cells ``csv.QUOTE_MINIMAL`` wraps in quotes


def _write_table(path, header, timestamps, columns) -> None:
    """Write the header, then per row the ISO-second timestamp and one cell per
    column, CRLF-terminated as ``csv.writer`` writes them. The header names the
    timestamp, then each column, and every column has one cell per timestamp;
    anything else is an error before the file is opened.

    The rows are written in contiguous parts, one per available CPU
    (``_fork._bounds``), each a whole number of ``_BLOCK_ROWS`` blocks (the
    last may end in a short one) and at least ``_PART_BLOCKS`` blocks long;
    the bytes are the same for any number of parts. Every part after the
    first is written by a forked child (``_fork._children``) into a
    temporary file beside ``path``; this process writes the header and the
    first part, then waits for each child in row order and appends its rows. A child that fails raises a
    ``RuntimeError`` naming the path, and no child outlives the call.

    The rows go to a new file beside ``path``, which replaces ``path`` once
    the table is whole and is removed if the call fails, so no partial table
    ever stands under its final name.
    """
    if len(header) != len(columns) + 1:
        raise ValueError(f"{path}: header has {len(header)} names for the "
                         f"timestamp and {len(columns)} columns")
    for name, col in zip(header[1:], columns):
        if len(col) != len(timestamps):
            raise ValueError(f"{path}: column {name!r} has {len(col)} rows, "
                             f"there are {len(timestamps)} timestamps")
    n = len(timestamps)
    bounds = [min(b * _BLOCK_ROWS, n)
              for b in _bounds(-(-n // _BLOCK_ROWS), _PART_BLOCKS)]
    head = io.StringIO()
    csv.writer(head).writerow(header)   # column names may need quoting
    partial, out = _create_beside(path)
    try:
        with out:
            out.write(head.getvalue().encode())
            out.flush()   # a child must inherit no unwritten bytes
            with _children(bounds, f"{path}: the process writing rows",
                           lambda file, lo, hi: _write_rows(file, timestamps, columns, lo, hi),
                           os.path.dirname(partial)) as parts:
                _write_rows(out, timestamps, columns, bounds[0], bounds[1])
                for part in parts:
                    shutil.copyfileobj(part.join(), out)
        os.replace(partial, path)
    except BaseException:
        os.unlink(partial)
        raise


def _create_beside(path):
    """A new file in the directory of ``path``, under a hidden name made from
    it, open for binary writing and created with the permissions ``open``
    gives; returns its name and the file."""
    folder, name = os.path.split(os.path.abspath(path))
    while True:
        partial = os.path.join(folder, f".{name}.{os.urandom(4).hex()}.part")
        try:
            return partial, open(partial, "xb")
        except FileExistsError:
            continue


def _write_rows(out, timestamps, columns, lo, hi) -> None:
    """Write rows ``lo:hi`` to the binary file ``out``, one block at a time."""
    for start in range(lo, hi, _BLOCK_ROWS):
        block = slice(start, min(start + _BLOCK_ROWS, hi))
        rows = zip(np.datetime_as_string(timestamps[block], unit="s").tolist(),
                   *(_cells(col[block]) for col in columns))
        out.write(("\r\n".join(map(",".join, rows)) + "\r\n").encode())


def _write_json(path, doc) -> None:
    """Write ``doc`` as JSON with two-space indents, sorted keys and a final newline.

    A dataclass record is written as the mapping of its field names to its
    field values, and a ``datetime64`` as ISO 8601 text to the second.
    """
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, default=_json_value)
        fh.write("\n")


def _json_value(obj):
    if is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: getattr(obj, f.name) for f in fields(obj)}
    if isinstance(obj, np.datetime64):
        return str(np.datetime_as_string(obj, unit="s"))
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _cells(values: np.ndarray) -> list:
    """One column block as CSV cell text.

    Floats go through float64, so every float dtype gives the same text,
    then ``repr``, with NaN as an empty cell; Python's ``repr`` is about twice
    as fast as numpy's float-to-string cast and gives the same text. Integers
    and bools take ``str``. Other cells take numpy's ``str`` and are quoted as
    ``csv.writer`` quotes them: one holding a comma, a quote or a line break is
    wrapped in quotes with inner quotes doubled. Number text never needs it.
    """
    kind = values.dtype.kind
    if kind == "f":
        floats = values.astype(np.float64)
        cells = list(map(repr, floats.tolist()))
        for i in np.flatnonzero(np.isnan(floats)).tolist():
            cells[i] = ""
        return cells
    if kind in "biu":
        return list(map(str, values.tolist()))
    return ['"' + c.replace('"', '""') + '"' if _QUOTED.search(c) else c
            for c in values.astype(str).tolist()]


def _require_finite(frame: TimeSeriesFrame) -> None:
    """Raise naming the first channel that holds a NaN or infinite cell."""
    for name, values in frame.channels.items():
        if not np.isfinite(values).all():
            raise ValueError(f"channel {name!r} holds NaN or infinite cells; "
                             "handle the gaps first")


def _buckets(frame: TimeSeriesFrame, minutes: int):
    """The ``minutes`` buckets that hold rows, anchored at the first timestamp:
    each one's id (its start in intervals since the first timestamp), first
    row and last row. Timestamps increase, so each bucket is one run of rows."""
    bucket_of_row = frame.elapsed_minutes() // minutes
    first = np.flatnonzero(np.diff(bucket_of_row, prepend=-1))
    last = np.append(first[1:], len(frame)) - 1
    return bucket_of_row[first], first, last


def resample(frame: TimeSeriesFrame, interval_minutes: int) -> TimeSeriesFrame:
    """Aggregate the frame into ``interval_minutes`` buckets anchored at its first timestamp.

    Numeric channels take the bucket mean; a NaN or infinite cell raises a
    ``ValueError`` naming its channel. The sequence id, the cycle number and
    the minute in the cycle take the bucket's last value, so a bucket that
    straddles two cycles joins the later one; every other log is a binary
    flag and takes any-one, so a fault pulse anywhere in a bucket survives.

    One output row is emitted per non-empty bucket. On gap-free input the
    output length is exactly ceil(span / interval) with span = (last - first)
    + native step; buckets emptied by prior row deletion are skipped rather
    than fabricating rows with undefined sequence context.
    """
    if interval_minutes <= 0:
        raise ValueError("interval must be positive")
    if len(frame) == 0:
        raise ValueError("cannot resample an empty frame")
    if interval_minutes % frame.step_minutes != 0:
        raise ValueError(
            f"interval {interval_minutes} min is not a multiple of the "
            f"native step {frame.step_minutes} min"
        )
    _require_finite(frame)

    bucket_ids, starts, last = _buckets(frame, interval_minutes)
    sizes = last - starts + 1
    out_ts = frame.timestamps[0] + (bucket_ids * interval_minutes).astype("timedelta64[m]")
    out_channels = {name: np.add.reduceat(values, starts) / sizes
                    for name, values in frame.channels.items()}

    out_logs = {}
    for name, values in frame.logs.items():
        if name in (SEQUENCE_COL, CYCLE_COL, CYCLE_MINUTE_COL):
            out_logs[name] = values[last]
        else:
            out_logs[name] = np.maximum.reduceat(values, starts)

    return TimeSeriesFrame(
        timestamps=out_ts.astype("datetime64[s]"),
        channels=out_channels,
        units=dict(frame.units),
        logs=out_logs,
        step_minutes=interval_minutes,
    )


def slice_by_sequence(frame: TimeSeriesFrame, keep) -> TimeSeriesFrame:
    """Rows whose sequence id is in ``keep``; order and cycle grouping kept."""
    keep = set(keep)
    if not keep:
        raise ValueError("keep set must be non-empty")
    mask = np.isin(frame.sequence, sorted(keep))
    return frame.take(mask)
