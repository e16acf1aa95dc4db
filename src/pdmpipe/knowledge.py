"""Declarative equipment knowledge and the rule engine that applies it.

The knowledge base bundles five things: the nominal minutes of each
sequence of the cyclic equipment, IF-THEN monitoring rules with
thresholds and temporal qualifiers, an FMECA catalog (fault names,
causes, severity, consequence, corrective action), nominal operating
envelopes per channel and sequence, and groups of redundant channels.
Each fact is stated once: a rule names its fault, and the fault's FMECA
entry alone says how severe it is. It is one record built from a YAML
document and is immutable afterwards, so one instance can be shared
freely.

``evaluate_rules`` makes one pass per rule over a telemetry frame: a row
mask of where the rule fires, with elapsed time counted from the first
row of each sequence instance that is present in the frame. It emits one
fault event per (rule, cycle) that fires, at the cycle's first firing
row, which is how the equipment automation latches: once a rule trips,
the cycle is interrupted until someone intervenes, so repeat firings
within the same cycle carry no information.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from importlib import resources

import numpy as np
import yaml

from ._spec import EntryError, at, bounded, check_fields, names, number, record, records
from .timeseries import SEQUENCE_IDS, TimeSeriesFrame

log = logging.getLogger(__name__)

BLOCKING = "Blocking"
NON_BLOCKING = "NonBlocking"
CYCLE_STOP = "CycleStop"
ACKNOWLEDGE = "Acknowledge"

SOURCE_RULE_ENGINE = "RuleEngine"
SOURCE_GROUND_TRUTH = "GroundTruth"
SOURCES = (SOURCE_RULE_ENGINE, SOURCE_GROUND_TRUTH)

# Severity and consequence travel in lockstep: a blocking fault stops the
# cycle, a non-blocking one only demands acknowledgment.
_CONSEQUENCE_OF = {BLOCKING: CYCLE_STOP, NON_BLOCKING: ACKNOWLEDGE}

# a sensor predicate's scalar comparators; ``outside`` takes a (low, high) range
_COMPARE = {"<": np.less, "<=": np.less_equal, ">": np.greater, ">=": np.greater_equal}


def _check_pairing(severity: str, consequence: str, where: str) -> None:
    if severity not in _CONSEQUENCE_OF:
        raise ValueError(f"{where}: unknown severity {severity!r}")
    if consequence != _CONSEQUENCE_OF[severity]:
        raise ValueError(
            f"{where}: severity {severity} requires consequence "
            f"{_CONSEQUENCE_OF[severity]}, got {consequence!r}"
        )


@dataclass(frozen=True)
class SensorPredicate:
    """Threshold condition on one numeric channel.

    ``comparator`` is one of <, <=, >, >= against a scalar threshold, or
    ``outside`` against a (low, high) range. Missing readings never satisfy
    a predicate.
    """

    channel: str
    comparator: str
    threshold: object
    unit: str

    def __post_init__(self):
        thr = self.threshold
        if self.comparator in _COMPARE:
            thr = number(thr, float, "threshold")
        elif self.comparator == "outside":
            if not (isinstance(thr, (list, tuple)) and len(thr) == 2):
                raise ValueError(f"'outside' needs a [low, high] threshold range, got {thr!r}")
            thr = tuple(number(v, float, "threshold") for v in thr)
            if not thr[0] < thr[1]:
                raise ValueError("'outside' needs a (low, high) range with low < high")
        else:
            raise ValueError(f"unknown comparator {self.comparator!r}")
        object.__setattr__(self, "threshold", thr)

    def holds(self, values: np.ndarray) -> np.ndarray:
        with np.errstate(invalid="ignore"):
            if self.comparator in _COMPARE:
                return _COMPARE[self.comparator](values, self.threshold)
            lo, hi = self.threshold
            return (values < lo) | (values > hi)


@dataclass(frozen=True)
class LogPredicate:
    """Equality condition over one or more discrete logs, OR-combined."""

    logs: tuple = bounded()
    value: int = bounded()

    def __post_init__(self):
        check_fields(self)
        if not self.logs:
            raise ValueError("log predicate needs at least one log name")


@dataclass(frozen=True)
class MonitoringRule:
    """One IF-THEN monitoring rule bound to a sequence. The FMECA entry of
    its ``fault_name`` says how severe a firing is.

    The sensor and log predicates, when both present, must hold together.
    Temporal qualifiers, all in elapsed minutes from the first row of the
    sequence run present in the frame:

    - ``step_minute``: condition only applies from this offset on,
    - ``within_first_minutes``: condition only applies before this offset,
    - ``no_memory_first_minutes``: inverted detection — the rule fires at
      the first row at or after minute N when the condition never held
      during [0, N); used for "pressure never reached vacuum in time"
      style checks. A missing sensor reading in [0, N) counts as one that
      may have held, so the run does not fire.
    """

    id: int = bounded()
    sequence_id: str
    fault_name: str
    cause: str = None
    sensor: SensorPredicate = None
    log: LogPredicate = None
    step_minute: int = bounded(">= 0", default=0)
    within_first_minutes: int = bounded(">= 1", default=None)
    no_memory_first_minutes: int = bounded(">= 1", default=None)

    def __post_init__(self):
        check_fields(self)
        for key, kind in (("sensor", SensorPredicate), ("log", LogPredicate)):
            if getattr(self, key) is not None:
                object.__setattr__(self, key, record(kind, getattr(self, key), key))
        if self.sequence_id not in SEQUENCE_IDS:
            raise ValueError(f"rule {self.id}: unknown sequence id {self.sequence_id!r}")
        if self.sensor is None and self.log is None:
            raise ValueError(f"rule {self.id}: needs a sensor or log predicate")
        if self.no_memory_first_minutes is not None and (
                self.step_minute or self.within_first_minutes is not None):
            raise ValueError(
                f"rule {self.id}: no-memory qualifier excludes other temporal qualifiers")
        if (self.within_first_minutes is not None
                and self.within_first_minutes <= self.step_minute):
            raise ValueError(
                f"rule {self.id}: within_first_minutes {self.within_first_minutes} must "
                f"exceed step_minute {self.step_minute}, or the rule never fires")


@dataclass(frozen=True)
class FmecaEntry:
    """Failure mode record: what can cause it and how bad it is. A rule or a
    simulated fault takes its severity and consequence from here."""

    fault_name: str
    causes: tuple = bounded()
    severity: str
    consequence: str
    corrective_action: str = ""

    def __post_init__(self):
        check_fields(self)
        if not self.causes:
            raise ValueError(f"FMECA entry {self.fault_name!r} needs at least one cause")
        _check_pairing(self.severity, self.consequence, f"FMECA entry {self.fault_name!r}")


@dataclass(frozen=True)
class OperatingEnvelope:
    """Nominal [min, max] band for one channel inside one sequence."""

    channel: str
    sequence_id: str
    min: float = bounded()
    max: float = bounded()

    def __post_init__(self):
        check_fields(self)
        if self.sequence_id not in SEQUENCE_IDS:
            raise ValueError(f"envelope {self.channel}: unknown sequence {self.sequence_id!r}")
        if not self.min < self.max:
            raise ValueError(f"envelope {self.channel}/{self.sequence_id}: min must be < max")


@dataclass(frozen=True)
class KnowledgeBase:
    """The knowledge-base document as one immutable record. Its fields are
    the document's five sections, each built into its records; a record
    already built is kept as it is."""

    durations: dict      # sequence id -> nominal minutes
    rules: tuple
    fmeca: tuple
    envelopes: tuple
    redundancy: tuple    # name tuples of mutually redundant channels, in document order

    def __post_init__(self):
        if not isinstance(self.redundancy, (list, tuple)):
            raise EntryError("redundancy", f"must be a list, got {self.redundancy!r}")
        groups = []
        for i, group in enumerate(self.redundancy):
            with at(f"redundancy[{i}]"):
                groups.append(names(group, "group"))
        object.__setattr__(self, "redundancy", tuple(groups))
        with at("durations"):
            if not isinstance(self.durations, dict):
                raise ValueError(f"must be a mapping, got {self.durations!r}")
            missing = set(SEQUENCE_IDS) - set(self.durations)
            if missing:
                raise ValueError(f"durations missing for {sorted(missing)}")
            unknown = set(self.durations) - set(SEQUENCE_IDS)
            if unknown:
                raise ValueError(f"durations for unknown sequence ids {sorted(unknown, key=str)}")
            object.__setattr__(self, "durations", {
                seq: number(v, int, f"duration of {seq}", ">= 1")
                for seq, v in self.durations.items()})
        for key, kind in (("rules", MonitoringRule), ("fmeca", FmecaEntry),
                          ("envelopes", OperatingEnvelope)):
            object.__setattr__(self, key, records(kind, getattr(self, key), key))
        ids = [r.id for r in self.rules]
        dupes = {i for i in ids if ids.count(i) > 1}
        if dupes:
            raise ValueError(f"duplicate rule ids: {sorted(dupes)}")
        entries = {e.fault_name: e for e in self.fmeca}
        if len(entries) != len(self.fmeca):
            raise ValueError("FMECA fault names must be unique")
        units = {}
        for rule in self.rules:
            entry = entries.get(rule.fault_name)
            if entry is None:
                raise ValueError(f"rule {rule.id}: no FMECA entry for {rule.fault_name!r}")
            if rule.cause is not None and rule.cause not in entry.causes:
                raise ValueError(f"rule {rule.id}: cause {rule.cause!r} not in FMECA causes")
            duration = self.durations[rule.sequence_id]
            for key in ("step_minute", "no_memory_first_minutes"):
                minute = getattr(rule, key)
                if minute is not None and minute >= duration:
                    raise ValueError(
                        f"rule {rule.id}: {key} {minute} is at or past the {duration} "
                        f"minutes {rule.sequence_id} lasts, so the rule never fires")
            if rule.sensor is not None:
                seen = units.setdefault(rule.sensor.channel, rule.sensor.unit)
                if seen != rule.sensor.unit:
                    raise ValueError(
                        f"rule {rule.id}: unit {rule.sensor.unit!r} for channel "
                        f"{rule.sensor.channel!r} conflicts with {seen!r}"
                    )
        flat = [c for group in self.redundancy for c in group]
        if len(flat) != len(set(flat)):
            raise ValueError("redundancy groups must be disjoint")

    def entry(self, fault_name: str) -> FmecaEntry:
        for e in self.fmeca:
            if e.fault_name == fault_name:
                return e
        raise KeyError(f"unknown fault name {fault_name!r}")

    def blocking_channels(self) -> set:
        """Channels referenced by the sensor predicates of rules whose fault is blocking."""
        return {
            r.sensor.channel
            for r in self.rules
            if r.sensor is not None and self.entry(r.fault_name).severity == BLOCKING
        }


@dataclass(frozen=True)
class FaultEvent:
    """One fault occurrence, whoever reported it."""

    onset: np.datetime64
    cycle: int
    sequence_id: str
    fault_name: str
    cause: str
    severity: str
    consequence: str
    priority: bool = False
    source: str = SOURCE_RULE_ENGINE

    def __post_init__(self):
        if self.source not in SOURCES:
            raise ValueError(f"unknown event source {self.source!r}")
        _check_pairing(self.severity, self.consequence, f"event {self.fault_name!r}")


def _build_kb(doc) -> KnowledgeBase:
    try:
        kb = record(KnowledgeBase, doc, "")
    except EntryError as exc:
        raise EntryError(f"knowledge base {exc.path}".rstrip(), exc.reason) from None
    log.info("knowledge base loaded: %d rules, %d FMECA entries, %d envelopes",
             len(kb.rules), len(kb.fmeca), len(kb.envelopes))
    return kb


# libyaml's parser, where PyYAML was built with it, reads the same documents
# about ten times faster than the pure-Python one
_YAML_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


def _load_yaml(stream):
    """The one YAML document in ``stream``, read with PyYAML's safe loader.

    Give it bytes or a binary file: YAML decodes them as UTF-8 (or UTF-16
    with a byte-order mark), whatever the locale's encoding."""
    return yaml.load(stream, Loader=_YAML_LOADER)


def load_kb(path) -> KnowledgeBase:
    """Load and fully validate a knowledge base from a YAML document."""
    with open(path, "rb") as fh:
        try:
            doc = _load_yaml(fh)
        except yaml.YAMLError as exc:
            raise ValueError(f"{path}: knowledge base is not valid YAML: {exc}") from None
    return _build_kb(doc)


def default_kb() -> KnowledgeBase:
    """The knowledge base shipped with the package."""
    return _build_kb(_load_yaml(
        resources.files("pdmpipe").joinpath("data/knowledge_base.yaml").read_bytes()))


def _instances(frame: TimeSeriesFrame):
    """Starts and stops (exclusive) of the contiguous runs of constant
    (sequence, cycle), as two int64 arrays."""
    n = len(frame)
    if n == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    seq = frame.sequence
    cyc = frame.cycle
    change = np.flatnonzero((seq[1:] != seq[:-1]) | (cyc[1:] != cyc[:-1])) + 1
    bounds = np.concatenate(([0], change, [n]))
    return bounds[:-1], bounds[1:]


def _event_rows(frame: TimeSeriesFrame, events) -> list:
    """Per event, the ``(first, stop)`` rows of its (cycle, sequence) run
    from its onset on, or None when the run is absent or ends before it.

    Each (cycle, sequence) pair is one run: a simulated cycle runs S01..S13
    and then IDLE once, and deleting or resampling rows keeps row order.
    """
    runs = {(int(frame.cycle[s]), str(frame.sequence[s])): (s, e)
            for s, e in zip(*_instances(frame))}
    spans = []
    for event in events:
        run = runs.get((event.cycle, event.sequence_id))
        if run is not None:
            start, stop = run
            first = start + int(np.searchsorted(frame.timestamps[start:stop], event.onset))
            run = (first, stop) if first < stop else None
        spans.append(run)
    return spans


def evaluate_rules(frame: TimeSeriesFrame, kb: KnowledgeBase) -> list:
    """Apply every monitoring rule to the frame and collect fault events.

    Each rule is one pass over the whole frame: a row mask of where it
    fires, with elapsed time measured from the first row of the row's
    sequence instance that is present in the frame. A rule fires at most
    once per cycle (the automation latches), at the first firing row of
    the cycle; the event onset is that row's timestamp. Events come back
    sorted by onset.
    """
    for rule in kb.rules:
        if rule.sensor is not None:
            if rule.sensor.channel not in frame.channels:
                raise ValueError(f"rule {rule.id}: frame lacks channel {rule.sensor.channel!r}")
            if frame.units[rule.sensor.channel] != rule.sensor.unit:
                raise ValueError(
                    f"rule {rule.id}: channel {rule.sensor.channel!r} is in "
                    f"{frame.units[rule.sensor.channel]!r}, rule expects {rule.sensor.unit!r}"
                )
        if rule.log is not None:
            absent = [l for l in rule.log.logs if l not in frame.logs]
            if absent:
                raise ValueError(f"rule {rule.id}: frame lacks logs {absent}")

    starts, stops = _instances(frame)
    sizes = stops - starts
    first = np.repeat(starts, sizes)     # per row, the first row of its instance
    t = frame.timestamps.astype("datetime64[s]").astype(np.int64)
    elapsed = (t - t[first]) // 60
    events = []
    for rule in kb.rules:
        # one id per instance: comparing the string column row by row costs
        # more than the rest of the rule's pass
        own = np.repeat(frame.sequence[starts] == rule.sequence_id, sizes)
        held = own
        if rule.sensor is not None:
            values = frame.channels[rule.sensor.channel]
            sensor = rule.sensor.holds(values)
            if rule.no_memory_first_minutes is not None:
                # a missing reading may have met the condition, so it spoils
                # the "never held" check as a reading that met it does
                sensor |= np.isnan(values)
            held = held & sensor
        if rule.log is not None:
            held = held & np.any([frame.logs[name] == rule.log.value
                                  for name in rule.log.logs], axis=0)
        if rule.no_memory_first_minutes is not None:
            # an instance whose condition held before minute N fires nowhere
            early = elapsed < rule.no_memory_first_minutes
            fires = own & ~early & ~np.isin(first, first[held & early])
        else:
            fires = held & (elapsed >= rule.step_minute)
            if rule.within_first_minutes is not None:
                fires &= elapsed < rule.within_first_minutes
        rows = np.flatnonzero(fires)
        rows = rows[np.unique(frame.cycle[rows], return_index=True)[1]]
        entry = kb.entry(rule.fault_name)
        events.extend(FaultEvent(
            onset=frame.timestamps[row],
            cycle=int(frame.cycle[row]),
            sequence_id=rule.sequence_id,
            fault_name=rule.fault_name,
            cause=rule.cause if rule.cause is not None else entry.causes[0],
            severity=entry.severity,
            consequence=entry.consequence,
            source=SOURCE_RULE_ENGINE,
        ) for row in rows)
    events.sort(key=lambda e: (e.onset.astype("datetime64[s]").astype(np.int64),
                               e.cycle, e.fault_name))
    return events


def envelope_breaches(frame: TimeSeriesFrame, kb: KnowledgeBase) -> dict:
    """Per channel, a row mask of readings outside the envelope of the row's sequence.

    Where several envelopes name the same (channel, sequence), the last
    one counts. A missing reading, and a sequence without an envelope
    for the channel, breach nothing.
    """
    bands = {(e.channel, e.sequence_id): e for e in kb.envelopes}
    out = {name: np.zeros(len(frame), dtype=bool) for name in frame.channels}
    for (name, sequence), env in bands.items():
        if name in out:
            values = frame.channels[name]
            with np.errstate(invalid="ignore"):
                outside = (values < env.min) | (values > env.max)
            out[name] |= outside & (frame.sequence == sequence)
    return out
