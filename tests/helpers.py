"""Hand-built telemetry frames with known, rule-silent nominal values, the
stock knowledge-base document, a runner for the ``pdm`` command line in a
fresh interpreter, a traced-memory probe, a fitted model's numbers as
plain lists, and probes of the forked parts of a stage."""

from __future__ import annotations

import os
import subprocess
import sys
import tracemalloc
from importlib import resources
from pathlib import Path

import numpy as np
import yaml

from pdmpipe.timeseries import TimeSeriesFrame

SRC = Path(__file__).resolve().parent.parent / "src"

# (sequence id, minutes) in cycle order, idle tail included
CYCLE_SEGMENTS = (
    ("S01", 15), ("S02", 15), ("S03", 15), ("S04", 15), ("S05", 15),
    ("S06", 15), ("S07", 15), ("S08", 15), ("S09", 960), ("S10", 240),
    ("S11", 1320), ("S12", 30), ("S13", 30), ("IDLE", 210),
)

UNITS = {
    "pressure_internal_a": "hPa",
    "pressure_internal_b": "hPa",
    "temp_internal": "degC",
    "temp_external_a": "degC",
    "angle_platform": "deg",
}

TREE_ARRAYS = ("feature", "threshold", "left", "right", "value")


def quiet_frame(cycles: int = 1, segments=CYCLE_SEGMENTS,
                start: str = "2025-03-01T00:00:00") -> TimeSeriesFrame:
    """Noise-free frame on which no monitoring rule fires.

    The sampling sequence pumps down immediately (so the vacuum check is
    satisfied), heating stays under every threshold, the fan runs, and
    all valve/door logs are quiet.
    """
    seq_one = np.concatenate([np.full(mins, sid, dtype="U4")
                              for sid, mins in segments])
    per_cycle = len(seq_one)
    n = per_cycle * cycles
    sequence = np.tile(seq_one, cycles)
    cycle = np.repeat(np.arange(1, cycles + 1, dtype=np.int64), per_cycle)
    timestamps = (np.datetime64(start, "s")
                  + (np.arange(n) * 60).astype("timedelta64[s]"))

    in_s10 = sequence == "S10"
    p_a = np.full(n, 1000.0)
    p_a[in_s10] = 25.0
    channels = {
        "pressure_internal_a": p_a,
        "pressure_internal_b": np.full(n, 1005.0),
        "temp_internal": np.where(sequence == "S09", 300.0, 22.0),
        "temp_external_a": np.full(n, 22.0),
        "angle_platform": np.zeros(n),
    }
    logs = {
        "sequence_id": sequence,
        "cycle_number": cycle,
        "fault_log": np.zeros(n, dtype=np.int64),
        "valve_0001": np.zeros(n, dtype=np.int64),
        "valve_0002": np.zeros(n, dtype=np.int64),
        "brewing_fan": (sequence == "S09").astype(np.int64),
        "door_z013": np.zeros(n, dtype=np.int64),
    }
    return TimeSeriesFrame(timestamps=timestamps, channels=channels,
                           units=dict(UNITS), logs=logs, step_minutes=1)


def segment_rows(frame: TimeSeriesFrame, cycle: int, sequence_id: str) -> np.ndarray:
    """Row indices of one sequence instance."""
    return np.flatnonzero((frame.cycle == cycle)
                          & (frame.sequence == sequence_id))


def stock_doc() -> dict:
    """The shipped knowledge base as the plain document ``load_kb`` reads."""
    text = resources.files("pdmpipe").joinpath(
        "data/knowledge_base.yaml").read_text("utf-8")
    return yaml.safe_load(text)


def run_python(*args: str, timeout: float, cwd=None, env=None) -> subprocess.CompletedProcess:
    """Run ``python *args`` in a fresh interpreter, with ``env`` over this
    process's environment.

    The checked-out ``src`` goes first on ``PYTHONPATH``, so the run never
    picks up an installed copy of the package.
    """
    env = {**os.environ, **(env or {})}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


def run_pdm(*args: str, timeout: float, env=None) -> subprocess.CompletedProcess:
    """Run ``python -m pdmpipe *args`` in a fresh interpreter (see run_python)."""
    return run_python("-m", "pdmpipe", *args, timeout=timeout, env=env)


def traced_peak(call) -> int:
    """Traced bytes allocated above the level at entry while ``call()`` runs."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


def model_state(model) -> dict:
    """The numbers a fitted model predicts from, as plain lists.

    A tree gives its node arrays; a forest, boosted model or SVM gives
    whichever of its base score, training loss or objective curve,
    weights and trees it has, each tree as above. Two models with equal
    states predict alike.
    """
    if hasattr(model, "feature"):
        return {name: getattr(model, name).tolist() for name in TREE_ARRAYS}
    state = {name: np.asarray(getattr(model, name)).tolist()
             for name in ("base_score", "train_loss", "objectives", "weights")
             if hasattr(model, name)}
    if hasattr(model, "trees"):
        state["trees"] = [model_state(tree) for tree in model.trees]
    return state


def count_forks(monkeypatch) -> list:
    """A list that gains an entry for every ``os.fork`` call from now on."""
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(1)         # appended in this process before the child exists
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    return forks


def assert_no_child() -> None:
    """No child of this process is left, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    raise AssertionError("a child process outlived the call")
