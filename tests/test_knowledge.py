"""Knowledge base loading, validation, and the rule engine."""

from __future__ import annotations

import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

from pdmpipe import evaluate_rules, load_kb
from pdmpipe.knowledge import (
    ACKNOWLEDGE,
    BLOCKING,
    CYCLE_STOP,
    NON_BLOCKING,
    FaultEvent,
    LogPredicate,
    MonitoringRule,
    OperatingEnvelope,
    SensorPredicate,
    _build_kb,
    _event_rows,
    _YAML_LOADER,
    _instances,
    _load_yaml,
    envelope_breaches,
)
from pdmpipe.timeseries import _write_json, resample
from helpers import quiet_frame, run_python, segment_rows, stock_doc

REPO = Path(__file__).resolve().parent.parent
PACKAGED_KB = REPO / "src" / "pdmpipe" / "data" / "knowledge_base.yaml"


def load_doc(doc, tmp_path):
    path = tmp_path / "kb.yaml"
    path.write_text(yaml.safe_dump(doc))
    return load_kb(path)


# the redundancy notes of one knowledge base, every channel loading 0.9,
# and the packaged knowledge base's repr
HASH_SEED_PROBE = """
import json, sys
import numpy as np
from pdmpipe import default_kb, load_kb
from pdmpipe.features import PcaResult, select_features
from pdmpipe.simulator import CHANNEL_UNITS

names = list(CHANNEL_UNITS)
loadings = np.full((len(names), 1), 0.9)
result = PcaResult(loadings=loadings, explained=np.ones(1), retained=1)
notes = select_features(names, result, kb=load_kb(sys.argv[1])).notes
print(json.dumps({"notes": [n for n in notes if "redundant" in n],
                  "repr": repr(default_kb())}))
"""


class TestLoading:
    def test_stock_kb_shape(self, kb):
        assert len(kb.rules) == 6
        assert len({r.fault_name for r in kb.rules}) == 5
        assert len(kb.fmeca) == 5
        assert kb.redundancy == (("temp_external_b", "temp_external_e"),)

    def test_durations(self, kb):
        assert list(kb.durations) == [f"S{i:02d}" for i in range(1, 14)]
        assert (kb.durations["S09"], kb.durations["S10"]) == (960, 240)
        assert sum(kb.durations.values()) == 2700

    def test_unknown_rule_sequence_rejected(self, tmp_path):
        doc = stock_doc()
        doc["rules"][0]["sequence_id"] = "S14"
        with pytest.raises(ValueError, match="unknown sequence"):
            load_doc(doc, tmp_path)

    def test_rule_without_fmeca_entry_rejected(self, tmp_path):
        doc = stock_doc()
        doc["rules"][0]["fault_name"] = "Phantom Fault"
        with pytest.raises(ValueError, match="no FMECA entry"):
            load_doc(doc, tmp_path)

    def test_overlapping_redundancy_groups_rejected(self, tmp_path):
        doc = stock_doc()
        doc["redundancy"].append(["temp_external_e", "temp_external_c"])
        with pytest.raises(ValueError, match="disjoint"):
            load_doc(doc, tmp_path)

    @pytest.mark.parametrize("section,detail,damage", [
        ("envelopes", "min", lambda doc: doc["envelopes"][0].pop("min")),
        ("fmeca", "list", lambda doc: doc.update(
            fmeca={e["fault_name"]: e for e in doc["fmeca"]})),
        ("rules", "sequence_id", lambda doc: doc["rules"][0].pop("sequence_id")),
        ("knowledge base", r"lacks required keys: \['durations'\]",
         lambda doc: doc.pop("durations")),
        ("envelopes", "min must be a number, got 'zero'",
         lambda doc: doc["envelopes"][0].update(min="zero")),
        (r"rules\[1\]", r"unknown keys: \['within_first_minute'\]",
         lambda doc: doc["rules"][1].update(within_first_minute=1)),
        (r"rules\[0\]\.sensor", r": unknown keys: \['chanel'\]",
         lambda doc: doc["rules"][0]["sensor"].update(chanel="temp_internal")),
        (r"rules\[1\]\.log", r": unknown keys: \['values'\]",
         lambda doc: doc["rules"][1]["log"].update(values=1)),
        (r"fmeca\[0\]", r"unknown keys: \['cause'\]",
         lambda doc: doc["fmeca"][0].update(cause="x")),
        (r"envelopes\[0\]", r"unknown keys: \['maximum'\]",
         lambda doc: doc["envelopes"][0].update(maximum=1.0)),
        # keys of the format before FMECA alone stated severity and consequence
        (r"rules\[0\]", r": unknown keys: \['mode'\]",
         lambda doc: doc["rules"][0].update(mode="Sampling")),
        (r"rules\[0\]", r": unknown keys: \['severity'\]",
         lambda doc: doc["rules"][0].update(severity="Blocking")),
        (r"envelopes\[0\]", r": unknown keys: \['mode'\]",
         lambda doc: doc["envelopes"][0].update(mode="Heating")),
        ("knowledge base", r": unknown keys: \['mode_model'\]",
         lambda doc: doc.update(mode_model={"durations": doc.pop("durations")})),
        # the key of the format before a consequence followed from its severity
        (r"fmeca\[0\]", r": unknown keys: \['consequence'\]",
         lambda doc: doc["fmeca"][0].update(consequence="CycleStop")),
        (r"fmeca\[2\]", "FMECA entry 'Heating Fault': unknown severity 'Severe'",
         lambda doc: doc["fmeca"][2].update(severity="Severe")),
        (r"envelopes\[5\]", ": second envelope for temp_internal in S09",
         lambda doc: doc["envelopes"].append({**doc["envelopes"][0], "max": 300})),
        (r"rules\[6\]", ": must be a mapping, got 3", lambda doc: doc["rules"].append(3)),
        (r"rules\[0\]", "threshold must be a number, got nan",
         lambda doc: doc["rules"][0]["sensor"].update(threshold=float("nan"))),
        (r"rules\[2\]", "threshold must be a number, got inf",
         lambda doc: doc["rules"][2]["sensor"].update(threshold=float("inf"))),
        (r"rules\[0\]", "id must be an integer, got True",
         lambda doc: doc["rules"][0].update(id=True)),
        (r"rules\[3\]", "step_minute must be an integer >= 0, got 610.7",
         lambda doc: doc["rules"][3].update(step_minute=610.7)),
        (r"rules\[2\]", "step_minute must be an integer >= 0, got -5",
         lambda doc: doc["rules"][2].update(step_minute=-5)),
        (r"rules\[1\]", "within_first_minutes must be an integer >= 1, got 0",
         lambda doc: doc["rules"][1].update(within_first_minutes=0)),
        (r"rules\[1\]", "within_first_minutes must be an integer >= 1, got 1.5",
         lambda doc: doc["rules"][1].update(within_first_minutes=1.5)),
        (r"rules\[0\]", "no_memory_first_minutes must be an integer >= 1, got True",
         lambda doc: doc["rules"][0].update(no_memory_first_minutes=True)),
        (r"rules\[1\]", "value must be an integer, got 1.5",
         lambda doc: doc["rules"][1]["log"].update(value=1.5)),
        ("durations", "duration of S10 must be an integer >= 1, got 240.9",
         lambda doc: doc["durations"].update(S10=240.9)),
        ("durations", r"must be a mapping, got \[15\]",
         lambda doc: doc.update(durations=[15])),
        (r"envelopes\[0\]", "max must be a number, got inf",
         lambda doc: doc["envelopes"][0].update(max=float("inf"))),
        (r"rules\[4\]", r"'outside' needs a \[low, high\] threshold range, got \[1, 2, 3\]",
         lambda doc: doc["rules"][4]["sensor"].update(threshold=[1, 2, 3])),
        (r"rules\[1\]", "logs must be a list of names, got 'valve_0001'",
         lambda doc: doc["rules"][1]["log"].update(logs="valve_0001")),
        (r"rules\[1\]", r"logs must be a list of names, got \['valve_0001', 2\]",
         lambda doc: doc["rules"][1]["log"].update(logs=["valve_0001", 2])),
        (r"fmeca\[0\]", "causes must be a list of names, got 'needle valve clogging'",
         lambda doc: doc["fmeca"][0].update(causes="needle valve clogging")),
        (r"redundancy\[0\]",
         "group must be a list of names, got 'temp_external_b, temp_external_e'",
         lambda doc: doc["redundancy"].__setitem__(0, "temp_external_b, temp_external_e")),
        (r"rules\[1\]", "rule 2: within_first_minutes 1 must exceed step_minute 1",
         lambda doc: doc["rules"][1].update(step_minute=1)),
    ], ids=["envelope-without-min", "fmeca-as-mapping", "rule-without-sequence-id",
            "without-durations", "envelope-min-not-a-number",
            "rule-key-typo", "sensor-key-typo", "log-key-typo", "fmeca-key-typo",
            "envelope-key-typo", "rule-mode", "rule-severity", "envelope-mode",
            "mode-model", "fmeca-consequence", "fmeca-severity-unknown", "envelope-twice",
            "rule-not-a-mapping", "threshold-nan", "threshold-infinite", "id-bool",
            "step-minute-not-integral", "step-minute-negative", "within-zero",
            "within-not-integral", "no-memory-bool", "log-value-not-integral",
            "duration-not-integral", "durations-a-list", "envelope-max-infinite", "outside-three-values",
            "logs-a-string", "logs-item-not-a-name", "causes-a-string",
            "redundancy-group-a-string", "rule-never-fires"])
    def test_malformed_entry_names_section_and_key(self, tmp_path, section, detail, damage):
        doc = stock_doc()
        damage(doc)
        with pytest.raises(ValueError, match=rf"{section}.*{detail}"):
            load_doc(doc, tmp_path)

    def test_numeric_strings_convert(self, tmp_path):
        doc = stock_doc()
        doc["rules"][1]["within_first_minutes"] = "1"
        doc["rules"][0]["sensor"]["threshold"] = "50"
        doc["durations"]["S10"] = "240"
        kb = load_doc(doc, tmp_path)
        assert kb.rules[1].within_first_minutes == 1
        assert type(kb.rules[1].within_first_minutes) is int
        assert kb.rules[0].sensor.threshold == 50.0
        assert kb.durations["S10"] == 240

    @pytest.mark.parametrize("damage, message", [
        (lambda doc: doc["rules"][2].update(step_minute=960),
         "rule 3: step_minute 960 is at or past the 960 minutes S09 lasts"),
        (lambda doc: doc["rules"][2].update(step_minute=5000),
         "rule 3: step_minute 5000 is at or past the 960 minutes S09 lasts"),
        (lambda doc: doc["durations"].update(S10=5),
         "rule 1: no_memory_first_minutes 5 is at or past the 5 minutes S10 lasts"),
    ], ids=["step-at-duration", "step-past-duration", "no-memory-at-duration"])
    def test_qualifier_past_its_sequence_rejected(self, tmp_path, damage, message):
        # elapsed minutes in a sequence run from 0 to its duration - 1, so
        # such a rule would load and never fire
        doc = stock_doc()
        damage(doc)
        with pytest.raises(ValueError, match=message):
            load_doc(doc, tmp_path)

    def test_qualifier_on_the_last_minute_of_its_sequence_loads(self, tmp_path):
        doc = stock_doc()
        doc["rules"][2]["step_minute"] = 959
        doc["rules"][0]["no_memory_first_minutes"] = 239
        kb = load_doc(doc, tmp_path)
        assert (kb.rules[2].step_minute, kb.rules[0].no_memory_first_minutes) == (959, 239)

    def test_duration_of_unknown_sequence_rejected(self, tmp_path):
        doc = stock_doc()
        doc["durations"]["S14"] = 30
        with pytest.raises(ValueError, match=r"durations.*unknown sequence ids \['S14'\]"):
            load_doc(doc, tmp_path)

    @pytest.mark.parametrize("path", [*sorted(REPO.glob("configs/*.yaml")), PACKAGED_KB],
                             ids=lambda p: p.name)
    def test_libyaml_gives_the_python_loaders_document(self, path):
        if yaml.__with_libyaml__:
            assert _YAML_LOADER is yaml.CSafeLoader
        data = path.read_bytes()
        assert _load_yaml(data) == yaml.load(data, Loader=yaml.SafeLoader)

    def test_invalid_yaml_rejected(self, tmp_path):
        path = tmp_path / "kb.yaml"
        path.write_text("rules: [\n  - id: 1\n")
        with pytest.raises(ValueError, match="not valid YAML"):
            load_kb(path)

    def test_inverted_envelope_rejected(self, tmp_path):
        doc = stock_doc()
        doc["envelopes"][0]["min"] = 400
        with pytest.raises(ValueError, match="min must be"):
            load_doc(doc, tmp_path)

    def test_format_document_examples_load(self, kb):
        # each example of docs/knowledge_base.md but the durations sketch,
        # which elides entries with "...", loads as one knowledge base
        text = (REPO / "docs" / "knowledge_base.md").read_text(encoding="utf-8")
        sections = {}
        for block in re.findall(r"```yaml\n(.*?)```", text, re.S):
            if "..." not in block:
                example = yaml.safe_load(block)
                sections.update({"rules": example} if isinstance(example, list) else example)
        assert sorted(sections) == ["envelopes", "fmeca", "redundancy", "rules"]
        built = _build_kb({"durations": kb.durations, **sections})
        assert [len(getattr(built, key)) for key in sorted(sections)] == [1, 1, 1, 1]

    def test_missing_section_rejected(self, tmp_path):
        doc = stock_doc()
        del doc["fmeca"]
        with pytest.raises(ValueError, match="lacks required keys"):
            load_doc(doc, tmp_path)

    def test_redundancy_notes_and_repr_ignore_the_hash_seed(self, tmp_path):
        # a group keeps its document order, so no run's string hashing
        # reorders the notes of a curated dataset
        doc = stock_doc()
        doc["redundancy"] = [["temp_external_b", "temp_external_e", "temp_external_c",
                              "temp_external_a"]]
        path = tmp_path / "kb.yaml"
        path.write_text(yaml.safe_dump(doc))
        runs = []
        for seed in ("0", "1", "2"):
            proc = run_python("-c", HASH_SEED_PROBE, str(path), timeout=120,
                              env={"PYTHONHASHSEED": seed})
            assert proc.returncode == 0, proc.stderr
            runs.append(json.loads(proc.stdout.splitlines()[-1]))
        for run in runs:
            assert run["notes"] == [f"dropped temp_external_{c}: redundant with temp_external_a"
                                    for c in "bec"]
            assert run["repr"] == runs[0]["repr"]

    def test_fmeca_alone_states_a_faults_severity(self, tmp_path):
        doc = stock_doc()
        assert [e["fault_name"] for e in doc["fmeca"][3:]] == [
            "Angle Measurement Fault", "Door Closure Fault"]
        doc["fmeca"][3]["severity"] = "NonBlocking"
        doc["fmeca"][4]["severity"] = "Blocking"
        kb = load_doc(doc, tmp_path)
        assert kb.blocking_channels() == {"pressure_internal_a", "temp_internal"}
        frame = quiet_frame()
        frame.logs["door_z013"][segment_rows(frame, 1, "S04")[3:8]] = 1
        frame.channels["angle_platform"][segment_rows(frame, 1, "S10")] = 45.0
        assert [(e.fault_name, e.severity, e.consequence) for e in evaluate_rules(frame, kb)] == [
            ("Door Closure Fault", BLOCKING, CYCLE_STOP),
            ("Angle Measurement Fault", NON_BLOCKING, ACKNOWLEDGE)]

    def test_duplicate_rule_id_rejected(self, tmp_path):
        doc = stock_doc()
        doc["rules"][1]["id"] = doc["rules"][0]["id"]
        with pytest.raises(ValueError, match="duplicate rule ids"):
            load_doc(doc, tmp_path)


class TestTypes:
    def test_sensor_predicate_needs_valid_comparator(self):
        with pytest.raises(ValueError, match="comparator"):
            SensorPredicate("x", "~", 1.0, "u")
        with pytest.raises(ValueError, match="range"):
            SensorPredicate("x", "outside", (5.0, 1.0), "u")

    def test_sensor_predicate_never_fires_on_missing(self):
        pred = SensorPredicate("x", ">", 10.0, "u")
        assert not pred.holds(np.array([np.nan])).any()
        pred = SensorPredicate("x", "outside", (0.0, 1.0), "u")
        assert not pred.holds(np.array([np.nan])).any()

    def test_log_predicate_needs_a_log(self):
        with pytest.raises(ValueError):
            LogPredicate(logs=(), value=1)

    def test_rule_needs_a_predicate(self):
        with pytest.raises(ValueError, match="predicate"):
            MonitoringRule(id=9, sequence_id="S10", fault_name="X")

    def test_no_memory_excludes_other_qualifiers(self):
        sensor = SensorPredicate("x", "<", 50.0, "hPa")
        with pytest.raises(ValueError, match="no-memory"):
            MonitoringRule(id=9, sequence_id="S10", fault_name="X", sensor=sensor,
                           step_minute=3, no_memory_first_minutes=5)

    def test_envelope_needs_known_sequence(self):
        with pytest.raises(ValueError, match="unknown sequence"):
            OperatingEnvelope("x", "S77", 0.0, 1.0)

    def test_event_source_validated(self):
        with pytest.raises(ValueError, match="source"):
            FaultEvent(onset=np.datetime64("2025-01-01", "s"), cycle=1,
                       sequence_id="S10", fault_name="X",
                       cause="c", severity=BLOCKING, source="Rumor")

    @pytest.mark.parametrize("severity, consequence", [
        (BLOCKING, CYCLE_STOP), (NON_BLOCKING, ACKNOWLEDGE)])
    def test_event_consequence_follows_its_severity(self, severity, consequence):
        event = FaultEvent(onset=np.datetime64("2025-01-01", "s"), cycle=1,
                           sequence_id="S04", fault_name="X", cause="c", severity=severity)
        assert event.consequence == consequence
        assert replace(event, severity=BLOCKING).consequence == CYCLE_STOP
        with pytest.raises(TypeError, match="consequence"):
            FaultEvent(onset=event.onset, cycle=1, sequence_id="S04", fault_name="X",
                       cause="c", severity=severity, consequence=consequence)

    def test_event_with_unknown_severity_refused(self):
        with pytest.raises(ValueError, match="event 'X': unknown severity 'Severe'"):
            FaultEvent(onset=np.datetime64("2025-01-01", "s"), cycle=1,
                       sequence_id="S04", fault_name="X", cause="c", severity="Severe")

    def test_event_json(self, kb, tmp_path):
        event = FaultEvent(
            onset=np.datetime64("2025-01-05T18:05:00", "s"), cycle=3,
            sequence_id="S10", fault_name="Needle Valve Fault",
            cause="needle valve clogging", severity=BLOCKING, priority=True)
        _write_json(tmp_path / "event.json", event)
        assert json.loads((tmp_path / "event.json").read_text()) == {
            "onset": "2025-01-05T18:05:00", "cycle": 3, "sequence_id": "S10",
            "fault_name": "Needle Valve Fault", "cause": "needle valve clogging",
            "severity": BLOCKING, "consequence": CYCLE_STOP, "priority": True,
            "source": "RuleEngine"}


class TestLookups:
    def test_envelope_check(self, kb):
        frame = quiet_frame()
        s10 = segment_rows(frame, 1, "S10")
        s11 = segment_rows(frame, 1, "S11")
        assert not any(mask.any() for mask in envelope_breaches(frame, kb).values())

        angle = frame.channels["angle_platform"]
        angle[s10[:4]] = [40.0, 40.5, -31.0, np.nan]   # band [-31, 40] in S10
        angle[s11[0]] = 500.0                          # no angle band in S11
        frame.channels["temp_external_a"][s10[0]] = 1e6   # no band at all
        breaches = envelope_breaches(frame, kb)
        assert set(breaches) == set(frame.channels)
        assert np.flatnonzero(breaches["angle_platform"]).tolist() == [s10[1]]
        assert not breaches["temp_external_a"].any()

    def test_one_envelope_bounds_a_channel_and_sequence(self, kb):
        frame = quiet_frame()
        s10 = segment_rows(frame, 1, "S10")
        frame.channels["angle_platform"][s10[0]] = 10.0
        narrow = OperatingEnvelope("angle_platform", "S10", -5.0, 5.0)
        wide = OperatingEnvelope("angle_platform", "S10", -50.0, 50.0)
        for envelopes, hit in (((narrow,), True), ((wide,), False)):
            breaches = envelope_breaches(frame, replace(kb, envelopes=envelopes))
            assert breaches["angle_platform"][s10[0]] == hit
        for envelopes in ((narrow, wide), (wide, narrow)):
            with pytest.raises(ValueError, match=r"envelopes\[1\]: second envelope for "
                                                 r"angle_platform in S10"):
                replace(kb, envelopes=envelopes)


class TestRuleEngine:
    def test_quiet_frame_raises_nothing(self, kb):
        assert evaluate_rules(quiet_frame(), kb) == []

    def test_over_temperature_late_in_heating(self, kb):
        frame = quiet_frame()
        rows = segment_rows(frame, 1, "S09")
        frame.channels["temp_internal"][rows[890:]] = 320.0
        events = evaluate_rules(frame, kb)
        assert len(events) == 1
        e = events[0]
        assert e.fault_name == "Heating Fault"
        assert e.cause == "thermal regulation drift"
        assert (e.severity, e.consequence) == (BLOCKING, CYCLE_STOP)
        assert e.onset == frame.timestamps[rows[890]]

    def test_over_temperature_before_step_minute_ignored(self, kb):
        frame = quiet_frame()
        rows = segment_rows(frame, 1, "S09")
        frame.channels["temp_internal"][rows[100:200]] = 320.0
        assert evaluate_rules(frame, kb) == []

    def test_platform_angle_out_of_range(self, kb):
        frame = quiet_frame()
        rows = segment_rows(frame, 1, "S10")
        frame.channels["angle_platform"][rows] = -35.0
        events = evaluate_rules(frame, kb)
        assert [e.fault_name for e in events] == ["Angle Measurement Fault"]
        assert events[0].onset == frame.timestamps[rows[0]]

    def test_vacuum_never_reached_fires_at_window_end(self, kb):
        # the no-memory check fires AT minute 5 when pressure never made
        # it below the vacuum threshold earlier in the sampling sequence
        frame = quiet_frame()
        rows = segment_rows(frame, 1, "S10")
        frame.channels["pressure_internal_a"][rows] = 750.0
        events = evaluate_rules(frame, kb)
        assert [e.fault_name for e in events] == ["Needle Valve Fault"]
        assert events[0].onset == frame.timestamps[rows[5]]

    def test_a_missing_reading_before_minute_n_spoils_the_vacuum_check(self, kb):
        # a reading that is missing may have been below the vacuum threshold,
        # so the check cannot say that pressure never got there
        frame = quiet_frame()
        rows = segment_rows(frame, 1, "S10")
        pressure = frame.channels["pressure_internal_a"]
        pressure[rows] = 750.0
        pressure[rows[5:9]] = np.nan
        events = evaluate_rules(frame, kb)
        assert [(e.fault_name, e.onset) for e in events] == [
            ("Needle Valve Fault", frame.timestamps[rows[5]])]
        pressure[rows[4]] = np.nan
        assert evaluate_rules(frame, kb) == []

    def test_valve_open_at_sampling_start(self, kb):
        frame = quiet_frame()
        rows = segment_rows(frame, 1, "S10")
        frame.logs["valve_0002"][rows[0]] = 1
        events = evaluate_rules(frame, kb)
        assert [e.fault_name for e in events] == ["Sample Taking Fault"]

    def test_valve_open_after_first_minute_ignored(self, kb):
        frame = quiet_frame()
        rows = segment_rows(frame, 1, "S10")
        frame.logs["valve_0001"][rows[2:4]] = 1
        assert evaluate_rules(frame, kb) == []

    def test_overpressure_needs_stopped_fan(self, kb):
        frame = quiet_frame()
        rows = segment_rows(frame, 1, "S09")
        frame.channels["pressure_internal_a"][rows[610:]] = 3200.0
        assert evaluate_rules(frame, kb) == []  # fan still running
        frame.logs["brewing_fan"][rows[610:]] = 0
        events = evaluate_rules(frame, kb)
        assert [e.cause for e in events] == ["brewing fan failure"]

    def test_open_door_is_non_blocking(self, kb):
        frame = quiet_frame()
        rows = segment_rows(frame, 1, "S04")
        frame.logs["door_z013"][rows[3:8]] = 1
        events = evaluate_rules(frame, kb)
        assert [e.fault_name for e in events] == ["Door Closure Fault"]
        assert events[0].severity == NON_BLOCKING
        assert events[0].consequence == ACKNOWLEDGE

    def test_rule_latches_once_per_cycle(self, kb):
        frame = quiet_frame(cycles=2)
        for cycle in (1, 2):
            rows = segment_rows(frame, cycle, "S10")
            frame.channels["angle_platform"][rows] = 45.0
        events = evaluate_rules(frame, kb)
        assert [(e.cycle, e.fault_name) for e in events] == [
            (1, "Angle Measurement Fault"), (2, "Angle Measurement Fault")]

    def test_events_sorted_by_onset(self, kb):
        frame = quiet_frame()
        frame.logs["door_z013"][segment_rows(frame, 1, "S04")[0]] = 1
        rows = segment_rows(frame, 1, "S10")
        frame.channels["angle_platform"][rows] = 45.0
        events = evaluate_rules(frame, kb)
        onsets = [e.onset for e in events]
        assert onsets == sorted(onsets)
        assert [e.fault_name for e in events] == [
            "Door Closure Fault", "Angle Measurement Fault"]

    def test_unit_mismatch_rejected(self, kb):
        frame = quiet_frame()
        units = dict(frame.units)
        units["pressure_internal_a"] = "kPa"
        bad = type(frame)(timestamps=frame.timestamps, channels=frame.channels,
                          units=units, logs=frame.logs, step_minutes=1)
        with pytest.raises(ValueError, match="expects"):
            evaluate_rules(bad, kb)

    def test_missing_rule_channel_rejected(self, kb):
        frame = quiet_frame().drop_channels(["angle_platform"])
        with pytest.raises(ValueError, match="lacks channel"):
            evaluate_rules(frame, kb)


def oracle_evaluate_rules(frame, kb):
    """The rule engine as it walked the frame instance by instance: one
    onset search per (instance, rule) with elapsed minutes from the
    instance's first row, and a latch on the (rule, cycle) pairs fired."""

    def onset_offset(rule, start, end, elapsed):
        cond = np.ones(end - start, dtype=bool)
        if rule.sensor is not None:
            cond &= rule.sensor.holds(frame.channels[rule.sensor.channel][start:end])
        if rule.log is not None:
            hit = np.zeros(end - start, dtype=bool)
            for name in rule.log.logs:
                hit |= frame.logs[name][start:end] == rule.log.value
            cond &= hit
        if rule.no_memory_first_minutes is not None:
            n_min = rule.no_memory_first_minutes
            if np.any(cond[elapsed < n_min]):
                return None
            later = np.flatnonzero(elapsed >= n_min)
            return int(later[0]) if later.size else None
        mask = elapsed >= rule.step_minute
        if rule.within_first_minutes is not None:
            mask &= elapsed < rule.within_first_minutes
        hits = np.flatnonzero(cond & mask)
        return int(hits[0]) if hits.size else None

    by_sequence = {}
    for rule in kb.rules:
        by_sequence.setdefault(rule.sequence_id, []).append(rule)
    events = []
    fired = set()
    for start, end in zip(*_instances(frame)):
        seq = str(frame.sequence[start])
        cycle = int(frame.cycle[start])
        delta = frame.timestamps[start:end] - frame.timestamps[start]
        elapsed = delta.astype("timedelta64[s]").astype(np.int64) // 60
        for rule in by_sequence.get(seq, ()):
            if (rule.id, cycle) in fired:
                continue
            offset = onset_offset(rule, start, end, elapsed)
            if offset is None:
                continue
            fired.add((rule.id, cycle))
            entry = kb.entry(rule.fault_name)
            events.append(FaultEvent(
                onset=frame.timestamps[start + offset], cycle=cycle, sequence_id=seq,
                fault_name=rule.fault_name,
                cause=rule.cause if rule.cause is not None else entry.causes[0],
                severity=entry.severity))
    events.sort(key=lambda e: (e.onset.astype("datetime64[s]").astype(np.int64),
                               e.cycle, e.fault_name))
    return events


def scaled_thresholds(kb, factor):
    """``kb`` with every sensor threshold times ``factor``."""
    rules = []
    for rule in kb.rules:
        if rule.sensor is not None:
            thr = rule.sensor.threshold
            thr = tuple(v * factor for v in thr) if isinstance(thr, tuple) else thr * factor
            rule = replace(rule, sensor=replace(rule.sensor, threshold=thr))
        rules.append(rule)
    return replace(kb, rules=tuple(rules))


# S10 twice in one cycle, with S11 between the two runs
REPEATED_S10 = (("S09", 30), ("S10", 20), ("S11", 10), ("S10", 20), ("IDLE", 10))


class TestRuleEngineOracle:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_the_per_instance_engine_with_and_without_row_deletion(self, kb, sim_mid, seed):
        frame, _ = sim_mid
        rng = np.random.default_rng(seed)
        n = len(frame)
        blocks = np.ones(n, dtype=bool)
        for start in rng.integers(0, n, 20):
            blocks[start:start + int(rng.integers(5, 400))] = False
        rows = frame.take(rng.random(n) >= rng.uniform(0.02, 0.4))
        for survived in (frame, rows, frame.take(blocks)):
            for factor in (0.97, 1.0, 1.03):
                rules = scaled_thresholds(kb, factor)
                events = evaluate_rules(survived, rules)
                assert events == oracle_evaluate_rules(survived, rules)
                assert events

    def test_a_spoiled_no_memory_run_does_not_latch(self, kb):
        # the first S10 run reaches vacuum at once, so the needle check
        # holds there; the second never does, so it fires at its minute 5
        frame = quiet_frame(segments=REPEATED_S10)
        runs = frame.sequence == "S10"
        second = np.flatnonzero(runs)[20:]
        frame.channels["pressure_internal_a"][second] = 750.0
        events = evaluate_rules(frame, kb)
        assert [(e.fault_name, e.onset) for e in events] == [
            ("Needle Valve Fault", frame.timestamps[second[5]])]
        assert events == oracle_evaluate_rules(frame, kb)

    def test_a_rule_latches_at_its_first_run_in_the_cycle(self, kb):
        frame = quiet_frame(cycles=2, segments=REPEATED_S10)
        frame.channels["pressure_internal_a"][frame.sequence == "S10"] = 750.0
        frame.channels["angle_platform"][frame.sequence == "S10"] = 45.0
        first_runs = [segment_rows(frame, cycle, "S10")[:20] for cycle in (1, 2)]
        events = evaluate_rules(frame, kb)
        assert [(e.cycle, e.fault_name, e.onset) for e in events] == [
            (cycle, name, frame.timestamps[rows[row]])
            for cycle, rows in zip((1, 2), first_runs)
            for row, name in ((0, "Angle Measurement Fault"), (5, "Needle Valve Fault"))]
        assert events == oracle_evaluate_rules(frame, kb)

    def test_an_empty_frame_has_no_instances_and_no_events(self, kb):
        frame = quiet_frame().take(np.zeros(len(quiet_frame()), dtype=bool))
        starts, stops = _instances(frame)
        assert starts.dtype == stops.dtype == np.int64
        assert starts.size == stops.size == 0
        assert evaluate_rules(frame, kb) == oracle_evaluate_rules(frame, kb) == []


def needle_event(cycle, onset):
    return FaultEvent(onset=onset, cycle=cycle, sequence_id="S10",
                      fault_name="Needle Valve Fault", cause="needle valve clogging",
                      severity=BLOCKING)


def oracle_event_rows(frame, event):
    """The per-run scan fault annotation made: the first run of the event's
    (cycle, sequence) pair whose last row reaches the onset, from the onset on."""
    t = frame.timestamps
    for s, stop in zip(*_instances(frame)):
        if (frame.cycle[s] == event.cycle and frame.sequence[s] == event.sequence_id
                and t[stop - 1] >= event.onset):
            rows = np.arange(s, stop)[t[s:stop] >= event.onset]
            return int(rows[0]), int(rows[-1]) + 1
    return None


def without(frame, rows):
    keep = np.ones(len(frame), dtype=bool)
    keep[rows] = False
    return frame.take(keep)


class TestEventRows:
    def test_span_runs_from_the_onset_row_to_the_end_of_the_run(self):
        frame = quiet_frame()
        s10 = segment_rows(frame, 1, "S10")
        event = needle_event(1, frame.timestamps[s10[5]])
        assert _event_rows(frame, [event]) == [(int(s10[5]), int(s10[-1]) + 1)]

    def test_deleted_onset_row_starts_the_span_at_the_first_later_row(self):
        frame = quiet_frame()
        s10 = segment_rows(frame, 1, "S10")
        event = needle_event(1, frame.timestamps[s10[5]])
        survived = without(frame, s10[5:8])
        later = segment_rows(survived, 1, "S10")[5:]
        assert survived.timestamps[later[0]] == frame.timestamps[s10[8]]
        assert _event_rows(survived, [event]) == [(int(later[0]), int(later[-1]) + 1)]

    def test_no_row_of_the_run_at_or_after_the_onset_gives_none(self):
        frame = quiet_frame()
        s10 = segment_rows(frame, 1, "S10")
        event = needle_event(1, frame.timestamps[s10[5]])
        survived = without(frame, s10[5:])
        assert len(segment_rows(survived, 1, "S10")) == 5    # the run's head survives
        assert _event_rows(survived, [event]) == [None]

    def test_absent_cycle_and_sequence_pair_gives_none(self):
        frame = quiet_frame(cycles=2)
        event = needle_event(1, frame.timestamps[segment_rows(frame, 1, "S10")[5]])
        # cycle 2 still runs S10, after the onset
        survived = without(frame, segment_rows(frame, 1, "S10"))
        assert _event_rows(survived, [event, needle_event(3, event.onset)]) == [None, None]

    def test_each_cycle_and_sequence_is_one_run(self, sim_small):
        frame, _ = sim_small
        for f in (frame, resample(frame, 15)):
            pairs = [(int(f.cycle[s]), str(f.sequence[s])) for s, _ in zip(*_instances(f))]
            assert len(pairs) == len(set(pairs))

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_the_per_run_scan_after_row_deletion(self, seed):
        rng = np.random.default_rng(seed)
        frame = quiet_frame(cycles=2)
        n = len(frame)
        survived = without(frame, np.flatnonzero(rng.random(n) < rng.uniform(0.1, 0.9)))
        events = []
        for _ in range(20):
            row = int(rng.integers(n))
            cycle = int(rng.integers(1, 4))
            events.append(replace(needle_event(cycle, frame.timestamps[row]),
                                  sequence_id=str(rng.choice(["S09", "S10", "IDLE"]))))
        spans = _event_rows(survived, events)
        assert spans == [oracle_event_rows(survived, e) for e in events]
        assert None in spans and any(s is not None for s in spans)
