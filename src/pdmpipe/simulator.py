"""Synthetic telemetry generator for the cyclic sampling equipment.

Signals are piecewise-deterministic per sequence plus white noise and a
slow AR(1) wander ``y[t] = e[t] + phi * y[t-1]``, solved block by block
with LAPACK's ``dgttrs`` from one ``dgttrf`` factorization of the system
``(I - phi L) y = e``. With ``0 <= phi < 1`` it swaps no rows, so each
step rounds as the recurrence does and the paths are bit-identical to
it. Each channel is built by its own builder, which adds its noise and
wander and applies its clamps; no builder reads another's channel, and
every draw comes from a substream keyed by the channel's name. The
builders run one at a time in this process, so one channel's
temporaries are alive at once.

Each fault is stated once, in ``FAULTS``. Its symptoms match the rules
of the packaged knowledge base, with clipped margins wide enough that
they fire on every injected event and never on a nominal cycle.

The automation layer under-reports: each fault carries a latent magnitude,
and only faults whose magnitude clears a quantile gate make it into the
automation fault log (so the marginal logging rate equals the configured
probability). Logged events pulse the shared ``fault_log`` channel from
onset until their sequence restarts. Ground truth records every event,
logged or not, plus injected gaps and outliers, and is the oracle the
test suite checks the pipeline against.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs

from ._seeding import substream
from ._spec import bounded, check_fields, number, records
from .knowledge import BLOCKING, NON_BLOCKING, SOURCE_GROUND_TRUTH, FaultEvent, KnowledgeBase
from .timeseries import (
    CAUSE_BLANKET,
    CAUSE_DROPOUT,
    CAUSE_NON_USE,
    CYCLE_COL,
    FAULT_LOG,
    IDLE,
    SEQUENCE_COL,
    SEQUENCE_IDS,
    TimeSeriesFrame,
    _cycle_minutes,
    _runs,
)

log = logging.getLogger(__name__)

CHANNEL_UNITS = {
    "pressure_internal_a": "hPa",
    "pressure_internal_b": "hPa",
    "temp_internal": "degC",
    "temp_external_a": "degC",
    "temp_external_b": "degC",
    "temp_external_c": "degC",
    "temp_external_d": "degC",
    "temp_external_e": "degC",
    "angle_platform": "deg",
}


@dataclass(frozen=True)
class Fault:
    """A fault of the plant. It starts at a minute of ``sequence`` drawn
    per cycle from ``onset`` (first, last); a cycle's blocking faults
    share one magnitude, and any other fault draws its own."""

    name: str
    cause: str
    sequence: str
    onset: tuple
    blocking: bool
    probability: float


FAULTS = {
    "needle": Fault("Needle Valve Fault", "needle valve clogging", "S10", (5, 5), True, 0.30),
    "sample": Fault("Sample Taking Fault", "sampling valve actuation failure", "S10", (0, 0),
                    True, 0.10),
    "heating_temp": Fault("Heating Fault", "thermal regulation drift", "S09", (890, 890),
                          True, 0.12),
    "heating_pressure": Fault("Heating Fault", "brewing fan failure", "S09", (610, 610),
                              True, 0.10),
    "angle": Fault("Angle Measurement Fault", "platform inclination shift", "S10", (0, 0),
                   True, 0.10),
    "door": Fault("Door Closure Fault", "door left open", "S04", (1, 8), False, 0.15),
}
DEFAULT_INJECTION = {key: fault.probability for key, fault in FAULTS.items()}

# white noise scale per channel
DEFAULT_NOISE = {
    "pressure_internal_a": 5.0,
    "pressure_internal_b": 4.0,
    "temp_internal": 1.5,
    "temp_external_a": 0.8,
    "temp_external_b": 0.8,
    "temp_external_c": 0.8,
    "temp_external_d": 5.0,
    "temp_external_e": 0.8,
    "angle_platform": 0.8,
}

# AR(1) wander innovation scale per channel
DEFAULT_WANDER = {
    "pressure_internal_a": 1.5,
    "pressure_internal_b": 1.0,
    "temp_internal": 0.45,
    "temp_external_a": 0.25,
    "temp_external_b": 0.25,
    "temp_external_c": 0.25,
    "temp_external_d": 0.25,
    "temp_external_e": 0.25,
    "angle_platform": 0.15,
}

OUTLIER_KINDS = ("FalseSpike", "TruePrecursorRelevant", "TrueIrrelevant")

# degradation magnitude is uniform on [MU_LOW, 1]
MU_LOW = 0.35
# precursor amplitudes; the ramp scales with magnitude, the shift does not
SHIFT_PRESSURE_B = 90.0          # whole-cycle baseline shift, hPa
RAMP_EXT_D_PER_MU = 45.0         # pre-onset ramp on temp_external_d, degC per unit mu
RAMP_MINUTES = 150


@dataclass(frozen=True)
class SimConfig:
    """Everything the generator needs; a fixed seed fixes every byte.

    A ``noise``, ``wander`` or ``injection`` mapping overrides only the keys
    it names of the defaults above.
    """

    seed: int = bounded(">= 0")
    cycles: int = bounded(">= 1", default=55)
    idle_minutes: int = bounded(">= 0", default=210)
    start: str = "2025-01-05T00:00:00"
    noise: dict = bounded(">= 0", default_factory=DEFAULT_NOISE.copy)
    wander: dict = bounded(">= 0", default_factory=DEFAULT_WANDER.copy)
    wander_phi: float = bounded("[0, 1)", default=0.97)
    injection: dict = bounded("[0, 1]", default_factory=DEFAULT_INJECTION.copy)
    schedule: tuple = None                  # ((cycle, fault key), ...) overrides injection
    logging_probability: float = bounded("[0, 1]", default=0.25)

    def __post_init__(self):
        check_fields(self)
        try:
            if isinstance(self.start, (int, float)):
                raise TypeError
            np.datetime64(self.start, "s")
        except (TypeError, ValueError):
            raise ValueError(f"start must be an ISO date and time, "
                             f"got {self.start!r}") from None
        if self.schedule is not None:
            try:
                pairs = [(cycle, str(key)) for cycle, key in self.schedule]
            except (TypeError, ValueError):
                raise ValueError(f"schedule must be a list of [cycle, fault key] pairs, "
                                 f"got {self.schedule!r}") from None
            for cycle, key in pairs:
                if key not in FAULTS:
                    raise ValueError(f"schedule references unknown fault key {key!r}")
            object.__setattr__(self, "schedule", tuple(
                (number(cycle, int, f"schedule[{i}] cycle", f"[1, {self.cycles}]"), key)
                for i, (cycle, key) in enumerate(pairs)))


@dataclass(frozen=True)
class GtEvent:
    """A ground-truth fault occurrence with its reporting fate."""

    event: FaultEvent
    logged: bool
    magnitude: float


@dataclass(frozen=True)
class MissingInterval:
    start: np.datetime64
    end: np.datetime64            # inclusive row range [start, end]
    cause: str
    channel: str = None           # None = every channel


@dataclass(frozen=True)
class OutlierPoint:
    timestamp: np.datetime64
    channel: str
    kind: str
    value: float
    original: float


@dataclass(frozen=True)
class GroundTruth:
    """Oracle record of everything the generator injected."""

    events: tuple = ()
    missing: tuple = ()
    outliers: tuple = ()

    def logged_events(self) -> list:
        return [g for g in self.events if g.logged]

    def blocking_events(self) -> list:
        return [g for g in self.events if g.event.severity == BLOCKING]


WANDER_BLOCK = 4096   # rows per wander solve; factors at a run's length would hold MBs


def _wander(seed: int, name: str, n: int, scale: float, phi: float) -> np.ndarray:
    """AR(1) wander of length ``n`` for the channel ``name``.

    With a positive scale the innovations come from the channel's own
    ``substream(seed, "wander", name)``; otherwise the path is all zeros.
    The path is solved in place, as the system ``(I - phi L) y = e`` with
    ``L`` the subdiagonal shift, one block of ``WANDER_BLOCK`` rows at a
    time: a block's first innovation takes ``phi`` times the last value
    of the block before.
    """
    # whole blocks; the padding rows come after the path, so they change none of it
    path = np.zeros(-(-n // WANDER_BLOCK) * WANDER_BLOCK)
    if scale > 0:
        substream(seed, "wander", name).standard_normal(out=path[:n])
        path *= scale
    blocks = path.reshape(-1, WANDER_BLOCK)
    # LU factors of ``I - phi L`` at order WANDER_BLOCK, shared by every block
    factors = dgttrf(np.full(WANDER_BLOCK - 1, -float(phi)), np.ones(WANDER_BLOCK),
                     np.zeros(WANDER_BLOCK - 1))[:5]
    for i, block in enumerate(blocks):
        if i:
            block[0] += phi * blocks[i - 1, -1]
        block[:] = dgttrs(*factors, block, overwrite_b=1)[0]
    return path[:n]


def _ramp(m: np.ndarray, onset: int, amplitude: float, hold_until: int) -> np.ndarray:
    """Linear rise over RAMP_MINUTES before ``onset``, held until ``hold_until``."""
    rise = np.clip((m - (onset - RAMP_MINUTES)) / RAMP_MINUTES, 0.0, 1.0)
    out = amplitude * rise
    out[m >= hold_until] = 0.0
    return out


def _check_onsets(kb: KnowledgeBase) -> None:
    """Refuse sequence durations that put a fault's onset at or past the end
    of its sequence, where its symptom would never appear."""
    for key, fault in FAULTS.items():
        minute, seq = fault.onset[1], fault.sequence
        if minute >= kb.durations[seq]:
            raise ValueError(f"fault {key} can start at minute {minute} of {seq}, "
                             f"which lasts only {kb.durations[seq]} minutes")


def simulate(config: SimConfig, kb: KnowledgeBase):
    """Generate (telemetry frame, ground truth) for the configured run; reads ``kb.durations``."""
    _check_onsets(kb)
    # minute offsets of every sequence within one cycle, then the idle tail
    durations = [kb.durations[seq] for seq in SEQUENCE_IDS]
    bounds = np.cumsum([0, *durations]).tolist()
    start = dict(zip(SEQUENCE_IDS, bounds))
    end = dict(zip(SEQUENCE_IDS, bounds[1:]))
    active_end = bounds[-1]

    cycles = config.cycles
    total = active_end + config.idle_minutes
    n = cycles * total
    seed = config.seed

    t0 = np.datetime64(config.start, "s")
    timestamps = t0 + (np.arange(n) * 60).astype("timedelta64[s]")
    sequence = np.tile(np.repeat(np.array([*SEQUENCE_IDS, IDLE], dtype="U4"),
                                 [*durations, config.idle_minutes]), cycles)
    cycle_number = np.repeat(np.arange(1, cycles + 1, dtype=np.int64), total)
    m = np.tile(np.arange(total, dtype=np.int64), cycles)   # minute within cycle

    # --- fault draws ---------------------------------------------------
    if config.schedule is not None:
        injected = {key: np.zeros(cycles, dtype=bool) for key in FAULTS}
        for cycle, key in config.schedule:
            injected[key][cycle - 1] = True
    else:
        injected = {key: substream(seed, "inject", key).random(cycles) < config.injection[key]
                    for key in FAULTS}

    def magnitudes(tag: str) -> np.ndarray:
        return MU_LOW + (1 - MU_LOW) * substream(seed, tag).random(cycles)

    mu_cycle = magnitudes("magnitude")
    mu = {key: mu_cycle if fault.blocking else magnitudes(f"{key}-magnitude")
          for key, fault in FAULTS.items()}
    # each fault's onset, as a minute of the cycle, per cycle; the symptoms
    # built for all cycles at once start at the first minute of the range
    earliest = {key: start[fault.sequence] + fault.onset[0] for key, fault in FAULTS.items()}
    onset = {key: start[fault.sequence] + substream(seed, f"{key}-minute").integers(
        fault.onset[0], fault.onset[1] + 1, cycles) for key, fault in FAULTS.items()}
    valve_pick = substream(seed, "valve-pick").integers(0, 2, cycles)

    blocking = [key for key, fault in FAULTS.items() if fault.blocking]

    def per_row(flags: np.ndarray) -> np.ndarray:
        return np.repeat(flags, total)

    row_fault = {key: per_row(injected[key]) for key in FAULTS}
    row_blocking = per_row(np.any([injected[key] for key in blocking], axis=0))
    row_mu = np.repeat(mu_cycle, total)

    s9a, s9b = start["S09"], end["S09"]
    s10a, s10b = start["S10"], end["S10"]
    s11a, s11b = start["S11"], end["S11"]

    in_s09 = (m >= s9a) & (m < s9b)
    in_s10 = (m >= s10a) & (m < s10b)
    in_s11 = (m >= s11a) & (m < s11b)
    in_tail = (m >= s11b) & (m < active_end)
    m9 = m - s9a
    m10 = m - s10a
    m11 = m - s11a

    # Every draw comes from a substream keyed by name, so the build order
    # changes no value.
    twin_shared = substream(seed, "noise-shared-be").standard_normal(n)
    # the internal temperature of a nominal cycle, which the casings follow
    t_nominal = np.full(n, 22.0)
    t_nominal[in_s09] = np.minimum(22.0 + 278.0 * np.minimum(m9 / 120.0, 1.0), 300.0)[in_s09]
    t_nominal[in_s10] = 300.0
    t_nominal[in_s11] = (22.0 + 278.0 * np.exp(-m11 / 300.0))[in_s11]
    t_nominal[in_tail] = 24.0

    def noisy(name: str, base: np.ndarray) -> np.ndarray:
        """``base`` plus the channel's white noise, then its AR(1) wander, in place."""
        white = substream(seed, "noise", name).standard_normal(n)
        white *= config.noise[name]
        if name in ("temp_external_b", "temp_external_e"):
            # redundancy twins share most of their noise
            white = 0.9 * config.noise[name] * twin_shared + 0.35 * white
        base += white
        del white
        base += _wander(seed, name, n, config.wander[name], config.wander_phi)
        return base

    # --- internal pressures ----------------------------------------------
    def pressure_internal_a() -> np.ndarray:
        heat_press = row_fault["heating_pressure"] & (m >= earliest["heating_pressure"])
        p_a = np.full(n, 1000.0)
        p_a[in_s09] = (1000.0 + 1950.0 * np.minimum(m9 / 480.0, 1.0))[in_s09]
        p_a[in_s09 & heat_press] = 3200.0
        vacuum = 25.0 + 975.0 * np.exp(-np.maximum(m10, 0) / 0.7)
        p_a[in_s10] = np.where(row_fault["needle"], 750.0, vacuum)[in_s10]
        pa = noisy("pressure_internal_a", p_a)
        # hard margins so rule firing matches injection exactly
        needle_rows = in_s10 & row_fault["needle"]
        pa[needle_rows] = np.maximum(pa[needle_rows], 700.0)
        memory_rows = in_s10 & ~row_fault["needle"] & (m10 >= 3)
        pa[memory_rows] = np.minimum(pa[memory_rows], 46.0)
        hp_rows = in_s09 & heat_press
        pa[hp_rows] = np.maximum(pa[hp_rows], 3160.0)
        pa[in_s09 & ~heat_press] = np.minimum(pa[in_s09 & ~heat_press], 3100.0)
        return pa

    def pressure_internal_b() -> np.ndarray:
        # secondary loop holds reservoir pressure; runs high on degraded cycles
        p_b = np.full(n, 1005.0)
        p_b += np.where(row_blocking & (m < active_end), SHIFT_PRESSURE_B, 0.0)
        return noisy("pressure_internal_b", p_b)

    # --- internal temperature -------------------------------------------
    def temp_internal() -> np.ndarray:
        heat_hot = row_fault["heating_temp"] & (m >= earliest["heating_temp"])
        plateau = np.where(row_fault["heating_temp"], 322.0, 300.0)
        t_int = np.full(n, 22.0)
        t_int[in_s09] = np.where(heat_hot, 322.0, t_nominal)[in_s09]
        t_int[in_s10] = plateau[in_s10]
        t_int[in_s11] = (22.0 + (plateau - 22.0) * np.exp(-m11 / 300.0))[in_s11]
        t_int[in_tail] = 24.0
        del plateau
        ti = noisy("temp_internal", t_int)
        hot_rows = in_s09 & heat_hot
        ti[hot_rows] = np.maximum(ti[hot_rows], 318.0)
        cool_rows = in_s09 & ~heat_hot
        ti[cool_rows] = np.minimum(ti[cool_rows], 312.0)
        return ti

    # --- external casing temperatures -------------------------------------
    def temp_external(name: str, k: float) -> np.ndarray:
        t_ext = 22.0 + k * (t_nominal - 22.0)
        if name == "temp_external_d":
            # magnitude-scaled pre-onset ramp, held until the cycle aborts
            ramp_total = np.zeros(n)
            for key in blocking:
                ramp = _ramp(m, earliest[key], RAMP_EXT_D_PER_MU, s10b)
                ramp *= row_mu * row_fault[key]
                np.maximum(ramp_total, ramp, out=ramp_total)
            t_ext += ramp_total
            del ramp, ramp_total
        return noisy(name, t_ext)

    # --- platform angle ---------------------------------------------------
    def angle_platform() -> np.ndarray:
        angle = np.zeros(n)
        angle[in_s10 & row_fault["angle"]] = 46.0
        ang = noisy("angle_platform", angle)
        bad_rows = in_s10 & row_fault["angle"]
        ang[bad_rows] = np.maximum(ang[bad_rows], 44.0)
        ok_rows = in_s10 & ~row_fault["angle"]
        ang[ok_rows] = np.clip(ang[ok_rows], -25.0, 35.0)
        return ang

    # one builder per channel, in CHANNEL_UNITS order
    follow = {"temp_external_a": 0.10, "temp_external_b": 0.12,
              "temp_external_c": 0.08, "temp_external_d": 0.11,
              "temp_external_e": 0.12}
    builders = [pressure_internal_a, pressure_internal_b, temp_internal,
                *(lambda name=name, k=k: temp_external(name, k) for name, k in follow.items()),
                angle_platform]
    channels = {name: build() for name, build in zip(CHANNEL_UNITS, builders)}
    del t_nominal, twin_shared

    # --- discrete logs ------------------------------------------------------
    fan = in_s09.astype(np.int64)
    # the fan stops ten minutes before the pressure runs away
    fan[in_s09 & row_fault["heating_pressure"] & (m >= earliest["heating_pressure"] - 10)] = 0

    valve1 = np.zeros(n, dtype=np.int64)
    valve2 = np.zeros(n, dtype=np.int64)
    stuck = in_s10 & row_fault["sample"] & (m10 < 5)
    pick = np.repeat(valve_pick, total)
    valve1[stuck & (pick == 0)] = 1
    valve2[stuck & (pick == 1)] = 1

    door = np.zeros(n, dtype=np.int64)
    opened = np.repeat(onset["door"], total)
    door[row_fault["door"] & (m >= opened) & (m < opened + 8)] = 1   # open for 8 minutes

    # --- ground-truth events and fault log ----------------------------------
    if config.logging_probability >= 1.0:
        gate = MU_LOW - 1.0   # everything clears
    else:
        gate = MU_LOW + (1 - MU_LOW) * (1.0 - config.logging_probability)

    fault_pulse = np.zeros(n, dtype=np.int64)
    gt_events = []
    for c in range(1, cycles + 1):
        offset = (c - 1) * total
        for key, fault in FAULTS.items():
            if not injected[key][c - 1]:
                continue
            row = offset + int(onset[key][c - 1])
            magnitude = float(mu[key][c - 1])
            logged = magnitude > gate
            gt_events.append(GtEvent(
                event=FaultEvent(
                    onset=timestamps[row],
                    cycle=c,
                    sequence_id=fault.sequence,
                    fault_name=fault.name,
                    cause=fault.cause,
                    severity=BLOCKING if fault.blocking else NON_BLOCKING,
                    source=SOURCE_GROUND_TRUTH,
                ),
                logged=logged,
                magnitude=magnitude,
            ))
            if logged:
                fault_pulse[row:offset + end[fault.sequence]] = 1

    frame = TimeSeriesFrame(
        timestamps=timestamps,
        channels=channels,
        units=dict(CHANNEL_UNITS),
        logs={
            SEQUENCE_COL: sequence,
            CYCLE_COL: cycle_number,
            FAULT_LOG: fault_pulse,
            "valve_0001": valve1,
            "valve_0002": valve2,
            "brewing_fan": fan,
            "door_z013": door,
        },
        step_minutes=1,
    )
    truth = GroundTruth(events=tuple(gt_events))
    log.info("simulated %d cycles: %d events (%d logged)",
             cycles, len(gt_events), len(truth.logged_events()))
    return frame, truth


def _simulated(channel) -> None:
    if channel not in CHANNEL_UNITS:
        raise ValueError(f"channel must be a simulated channel, got {channel!r}")


@dataclass(frozen=True)
class Blanket:
    """Every channel blanked for ``minutes`` from ``start_minute`` of ``cycle``."""

    cycle: int = bounded(">= 1")
    start_minute: int = bounded(">= 0")
    minutes: int = bounded(">= 1")

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class Dropout:
    """One channel blanked for ``minutes`` from ``start_minute`` of ``cycle``."""

    cycle: int = bounded(">= 1")
    channel: str
    start_minute: int = bounded(">= 0")
    minutes: int = bounded(">= 1")

    def __post_init__(self):
        check_fields(self)
        _simulated(self.channel)


@dataclass(frozen=True)
class MissingScenario:
    """The gaps ``inject_missing`` makes: every idle stretch when
    ``non_use``, and each ``Blanket`` and ``Dropout``; a mapping in
    ``blanket`` or ``dropout`` is built into its record."""

    non_use: bool = bounded(default=False)
    blanket: tuple = ()
    dropout: tuple = ()

    def __post_init__(self):
        check_fields(self)
        object.__setattr__(self, "blanket", records(Blanket, self.blanket, "blanket"))
        object.__setattr__(self, "dropout", records(Dropout, self.dropout, "dropout"))


@dataclass(frozen=True)
class Outlier:
    """A point of ``kind`` planted on ``channel`` at ``minute`` of ``cycle``:
    ``value``, or the reading plus ``delta``; an entry gives exactly one."""

    cycle: int = bounded(">= 1")
    channel: str
    minute: int = bounded(">= 0")
    kind: str
    delta: float = bounded(default=None)
    value: float = bounded(default=None)

    def __post_init__(self):
        check_fields(self)
        _simulated(self.channel)
        if self.kind not in OUTLIER_KINDS:
            raise ValueError(f"kind must be one of {', '.join(OUTLIER_KINDS)}, "
                             f"got {self.kind!r}")
        if self.delta is None and self.value is None:
            raise ValueError("needs a delta or a value key")
        if self.delta is not None and self.value is not None:
            raise ValueError("takes a delta or a value key, not both")


def _cycle_rows(frame: TimeSeriesFrame, minutes: np.ndarray, cycle: int,
                start_minute: int, length: int, what: str) -> np.ndarray:
    """Rows of ``cycle`` in the ``length`` minutes from ``start_minute`` on,
    with ``minutes`` each row's minute in its cycle; ``what`` names the
    caller's entry in the errors."""
    base = np.flatnonzero(frame.cycle == cycle)
    if base.size == 0:
        raise ValueError(f"{what} references absent cycle {cycle}")
    rows = base[(minutes[base] >= start_minute) & (minutes[base] < start_minute + length)]
    if rows.size == 0:
        raise ValueError(f"{what} outside frame span (cycle {cycle})")
    return rows


def inject_missing(frame: TimeSeriesFrame, gt: GroundTruth, scenario: MissingScenario):
    """Blank cells per the missing-data scenario and record the intervals.

    Blanket intervals must not overlap. Minutes are relative to the start
    of the named cycle.
    """
    if not (scenario.non_use or scenario.blanket or scenario.dropout):
        return frame, gt
    channels = {k: v.copy() for k, v in frame.channels.items()}
    intervals = list(gt.missing)
    minutes = _cycle_minutes(frame)
    blanket_spans = []
    for spec in scenario.blanket:
        rows = _cycle_rows(frame, minutes, spec.cycle, spec.start_minute, spec.minutes,
                           "missing interval")
        span = (rows[0], rows[-1])
        for other in blanket_spans:
            if span[0] <= other[1] and other[0] <= span[1]:
                raise ValueError("blanket maintenance intervals overlap")
        blanket_spans.append(span)
        for name in channels:
            channels[name][rows] = np.nan
        intervals.append(MissingInterval(
            start=frame.timestamps[rows[0]], end=frame.timestamps[rows[-1]],
            cause=CAUSE_BLANKET))

    for spec in scenario.dropout:
        name = spec.channel
        rows = _cycle_rows(frame, minutes, spec.cycle, spec.start_minute, spec.minutes,
                           "missing interval")
        channels[name][rows] = np.nan
        intervals.append(MissingInterval(
            start=frame.timestamps[rows[0]], end=frame.timestamps[rows[-1]],
            cause=CAUSE_DROPOUT, channel=name))

    if scenario.non_use:
        idle = frame.sequence == IDLE
        if np.any(idle):
            for name in channels:
                channels[name][idle] = np.nan
            for s, e in _runs(idle):
                intervals.append(MissingInterval(
                    start=frame.timestamps[s], end=frame.timestamps[e - 1], cause=CAUSE_NON_USE))

    return replace(frame, channels=channels), replace(gt, missing=tuple(intervals))


def inject_outliers(frame: TimeSeriesFrame, gt: GroundTruth, scenario):
    """Plant the ``Outlier`` points of ``scenario``; each must land on an observed cell."""
    if not scenario:
        return frame, gt
    # only the channels a point lands on are copied; the others are shared
    touched = {spec.channel for spec in scenario}
    channels = {k: v.copy() if k in touched else v for k, v in frame.channels.items()}
    points = list(gt.outliers)
    minutes = _cycle_minutes(frame)
    for spec in scenario:
        name = spec.channel
        row = int(_cycle_rows(frame, minutes, spec.cycle, spec.minute, 1, "outlier point")[0])
        original = channels[name][row]
        if np.isnan(original):
            raise ValueError("outlier point lands on a missing cell")
        value = spec.value if spec.value is not None else original + spec.delta
        channels[name][row] = value
        points.append(OutlierPoint(
            timestamp=frame.timestamps[row], channel=name, kind=spec.kind,
            value=float(value), original=float(original)))
    return replace(frame, channels=channels), replace(gt, outliers=tuple(points))
