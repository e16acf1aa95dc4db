"""YAML configuration loading and the pdm command-line entry point."""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import math
import types
from pathlib import Path

import numpy as np
import pytest
import yaml

import pdmpipe
from pdmpipe import SimConfig, features, load_config, make_config
from pdmpipe.cli import main
from pdmpipe.config import ConfigError, PipelineConfig, _from_doc
from pdmpipe.features import PreprocessParams
from pdmpipe.models import FAMILY_PARAMS, GbdtParams
from pdmpipe.simulator import (DEFAULT_INJECTION, DEFAULT_NOISE, DEFAULT_WANDER, Blanket,
                               Dropout, MissingScenario, Outlier)
from helpers import run_pdm, run_python, stock_doc

DEFAULT_YAML = Path(__file__).resolve().parent.parent / "configs" / "default.yaml"


def field_names(record, *leave_out) -> set:
    return {f.name for f in dataclasses.fields(record)} - set(leave_out)


class TestMakeConfig:
    def test_minimal_config_gets_the_documented_defaults(self):
        config = make_config(7)
        assert config.seed == 7
        assert config.sim.seed == 7
        assert config.sim.cycles == 55
        assert config.horizons_minutes == (180, 720, 1440)
        assert config.split == (0.6, 0.2, 0.2)
        assert set(config.models) == {"forest", "gbdt", "svm"}
        assert config.missing == MissingScenario()
        assert config.outliers == ()

    def test_yaml_file_round_trips(self, tmp_path):
        doc = {"seed": 9, "horizons_minutes": [180, 360],
               "sim": {"schedule": [[2, "needle"]], "wander_phi": 0.5}}
        path = tmp_path / "run.yaml"
        path.write_text(yaml.safe_dump(doc))
        assert load_config(path) == make_config(**doc)
        assert load_config(path).sim.schedule == ((2, "needle"),)

    def test_injection_overrides_merge_into_defaults(self):
        config = make_config(7, sim={"injection": {"needle": 0.5}})
        assert config.sim.injection["needle"] == 0.5
        assert "door" in config.sim.injection

    def test_default_yaml_spells_out_every_key(self):
        doc = yaml.safe_load(DEFAULT_YAML.read_text())
        load_config(DEFAULT_YAML)
        assert set(doc) == field_names(PipelineConfig)
        assert set(doc["sim"]) == field_names(SimConfig, "seed")
        for name, defaults in (("injection", DEFAULT_INJECTION), ("noise", DEFAULT_NOISE),
                               ("wander", DEFAULT_WANDER)):
            assert set(doc["sim"][name]) == set(defaults)
        assert set(doc["missing"]) == field_names(MissingScenario)
        for kind, entry in (("blanket", Blanket), ("dropout", Dropout)):
            assert all(set(e) == field_names(entry) for e in doc["missing"][kind])
        assert all(set(o) == field_names(Outlier, "value") for o in doc["outliers"])
        assert set(doc["preprocess"]) == field_names(PreprocessParams)
        assert set(doc["models"]) == set(FAMILY_PARAMS)

    def test_null_sections_get_the_defaults(self):
        assert make_config(7, sim=None, missing=None, outliers=None, preprocess=None,
                           out=None, kb=None) == make_config(7)

    def test_entry_numbers_are_converted_at_load(self):
        config = make_config(7, missing={"blanket": [{"cycle": "7", "start_minute": 1500.0,
                                                      "minutes": 180}]},
                             outliers=[{"cycle": 9, "channel": "temp_internal", "minute": 10,
                                        "kind": "FalseSpike", "delta": 5}])
        blanket, = config.missing.blanket
        assert blanket == Blanket(cycle=7, start_minute=1500, minutes=180)
        assert all(type(v) is int for v in vars(blanket).values())
        assert type(config.outliers[0].delta) is float

    def test_integral_floats_load_as_integers(self):
        config = make_config(7, missing={"blanket": [{"cycle": 7.0, "start_minute": 1500,
                                                      "minutes": 180.0}]})
        blanket, = config.missing.blanket
        assert blanket == Blanket(cycle=7, start_minute=1500, minutes=180)
        assert all(type(v) is int for v in vars(blanket).values())

    def test_integral_float_sim_keys_load_as_integers(self):
        config = make_config(7, sim={"cycles": 7.0, "idle_minutes": 10.0,
                                     "schedule": [[7.0, "needle"]]},
                             missing={"non_use": True}, outliers=[])
        assert (config.sim.cycles, config.sim.idle_minutes) == (7, 10)
        assert config.sim.schedule == ((7, "needle"),)
        assert all(type(v) is int for v in (config.sim.cycles, config.sim.idle_minutes,
                                            config.sim.schedule[0][0]))

    def test_integral_float_horizons_load_as_integers(self):
        # the tuning substream is keyed by the horizon's text, so 180.0 would fit
        # another model than 180
        horizons = make_config(7, horizons_minutes=[180.0]).horizons_minutes
        assert horizons == (180,) and type(horizons[0]) is int

    def test_records_convert_and_refuse_on_direct_construction(self):
        assert type(GbdtParams(iterations=80.0).iterations) is int
        with pytest.raises(ValueError, match="iqr_k must be a number >= 0, got nan"):
            PreprocessParams(iqr_k=float("nan"))
        with pytest.raises(ValueError, match="seed must be an integer >= 0, got 7.9"):
            SimConfig(seed=7.9)

    def test_unquoted_yaml_start_loads(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text("seed: 7\nsim:\n  start: 2025-01-05T00:00:00\n")
        start = load_config(path).sim.start
        assert np.datetime64(start, "s") == np.datetime64("2025-01-05T00:00:00")

    def test_noise_and_wander_overrides_merge_into_defaults(self):
        config = make_config(7, sim={"noise": {"angle_platform": 0.4},
                                     "wander": {"temp_internal": 0}})
        assert config.sim.noise == dict(DEFAULT_NOISE, angle_platform=0.4)
        assert config.sim.wander == dict(DEFAULT_WANDER, temp_internal=0.0)


class TestConfigValidation:
    def test_seed_is_mandatory_and_integral(self, tmp_path):
        path = tmp_path / "no_seed.yaml"
        path.write_text("out: somewhere\n")
        with pytest.raises(ConfigError, match="seed"):
            load_config(path)
        with pytest.raises(ConfigError, match="integer"):
            _from_doc({"seed": "lots"})

    def test_unknown_keys_rejected_loudly(self):
        with pytest.raises(ConfigError, match=r"^unknown keys: \['seeed'\]$"):
            make_config(7, seeed=8)
        with pytest.raises(ConfigError, match=r"^sim: unknown keys: \['cycels'\]$"):
            make_config(7, sim={"cycels": 10})
        with pytest.raises(ConfigError, match=r"^sim: unknown keys: \['seed'\]$"):
            make_config(7, sim={"seed": 8})
        with pytest.raises(ConfigError, match=r"^sim.injection: unknown keys: \['gremlin'\]$"):
            make_config(7, sim={"injection": {"gremlin": 0.1}})
        with pytest.raises(ConfigError, match=r"^sim.noise: unknown keys: \['bogus'\]$"):
            make_config(7, sim={"noise": {"bogus": 1.0}})
        with pytest.raises(ConfigError, match=r"^sim.wander: unknown keys: \['bogus'\]$"):
            make_config(7, sim={"wander": {"bogus": 1.0}})
        with pytest.raises(ConfigError, match="^preprocess: must be a mapping"):
            make_config(7, preprocess=[{"tau": 0.3}])

    @pytest.mark.parametrize("name", ["noise", "wander"])
    @pytest.mark.parametrize("value, match", [
        (-0.5, "must be a number >= 0, got -0.5"), (float("nan"), "must be a number >= 0, got nan"),
        (float("inf"), "must be a number >= 0, got inf"),
        ("loud", "must be a number >= 0, got 'loud'"), (None, "must be a number >= 0, got None"),
    ])
    def test_bad_channel_scales_rejected(self, name, value, match):
        with pytest.raises(ConfigError,
                           match=f"^sim.{name}: temp_internal {match}"):
            make_config(7, sim={name: {"temp_internal": value}})
        with pytest.raises(ConfigError, match=f"^sim.{name}: must be a mapping"):
            make_config(7, sim={name: [1.0]})
        with pytest.raises(ConfigError, match="preprocess"):
            make_config(7, preprocess={"tua": 0.3})

    def test_horizon_and_split_constraints(self):
        with pytest.raises(ConfigError, match="multiple"):
            make_config(7, horizons_minutes=[100])
        with pytest.raises(ConfigError, match="at least one"):
            make_config(7, horizons_minutes=[])
        for split in ([0.5, 0.4, 0.2], [0.0, 0.5, 0.5], [1.2, -0.1, -0.1]):
            with pytest.raises(ConfigError, match="positive fractions summing to 1"):
                make_config(7, split=split)

    def test_model_grid_constraints(self):
        with pytest.raises(ConfigError, match="unknown model family"):
            make_config(7, models={"forest": [{}], "gbdt": [{}], "svm": [{}],
                                   "mlp": [{}]})
        with pytest.raises(ConfigError, match="missing grid"):
            make_config(7, models={"forest": [{"trees": 5}]})
        with pytest.raises(ConfigError, match="empty grid"):
            make_config(7, models={"forest": (), "gbdt": [{}], "svm": [{}]})
        with pytest.raises(ConfigError, match=r"^models.forest\[0\]: must be a mapping, got 3$"):
            make_config(7, models={"forest": [3], "gbdt": [{}], "svm": [{}]})

    @pytest.mark.parametrize("key, value", [
        ("resample_minutes", 0), ("variance_threshold", 0.0),
        ("variance_threshold", 1.5), ("tau", -0.1), ("tau", 1.1), ("top_n", 0),
        ("iqr_k", -0.5), ("iqr_window", 30), ("iqr_window", 1), ("ics_m", 0), ("ics_m", 10),
        ("ics_alpha", 0.0), ("ics_alpha", 1.0), ("impute_k", 0),
        ("verify_window_minutes", -1), ("column_drop_missing_fraction", 1.5),
    ])
    def test_preprocess_ranges(self, key, value):
        with pytest.raises(ConfigError, match=f"^preprocess: {key}"):
            make_config(7, preprocess={key: value})

    @pytest.mark.parametrize("family, entry, match", [
        ("gbdt", {"min_leaf": 0}, "min_leaf"),
        ("gbdt", {"max_depth": 0}, "max_depth"),
        ("forest", {"min_leaf": 0}, "min_leaf"),
        ("svm", {"reg": 0.0}, "reg"),
    ])
    def test_grid_entries_are_built_at_load(self, family, entry, match):
        grids = {"forest": [{}], "gbdt": [{}], "svm": [{}]}
        grids[family] = [{}, entry]
        with pytest.raises(ConfigError, match=rf"^models.{family}\[1\]: {match}"):
            make_config(7, models=grids)

    def test_file_level_failures(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "missing.yaml")
        bad = tmp_path / "bad.yaml"
        bad.write_text("seed: [unclosed\n")
        with pytest.raises(ConfigError, match="valid YAML"):
            load_config(bad)
        listy = tmp_path / "list.yaml"
        listy.write_text("- 1\n- 2\n")
        with pytest.raises(ConfigError, match="mapping"):
            load_config(listy)


CLI_DOC = {
    "seed": 77,
    "sim": {
        "cycles": 6,
        "logging_probability": 1.0,
        "schedule": [[2, "needle"], [4, "heating_temp"], [5, "sample"]],
    },
    "missing": {},
    "outliers": [],
    "models": {
        "forest": [{"trees": 5, "max_depth": 5}],
        "gbdt": [{"iterations": 10, "learning_rate": 0.2, "max_depth": 3}],
        "svm": [{"reg": 0.001}],
    },
    "horizons_minutes": [180],
}


# sha256 of the files that ``simulate`` writes for CLI_DOC. A change to these
# bytes is declared in CHANGES.md with the new digests.
TELEMETRY_DIGEST = "aeda6ecb0c43c484f3396c7094feed81dfbfbd21d419d9e49359260b68a4b727"
SIMULATE_JSON_DIGESTS = {
    "telemetry_schema.json": "d9364e399240a3e72a60a78eda53f5c8f1aaa1c02386174446b16f13b912370a",
    "ground_truth.json": "a062ec1d19ae3806179756460d7bfaf5d4f1e35b9a3ad534769ba61f267d7e21",
}
# sha256 of ``ground_truth.json`` that ``simulate`` writes for
# configs/default.yaml cut to 35 cycles
DEFAULT_GROUND_TRUTH_DIGEST = "e8d1997751f8e5c167e0ceb5242d601ab4306183c4b87d007bbaa402400391d8"


@pytest.fixture(scope="module")
def cli_config(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    path = root / "run.yaml"
    path.write_text(yaml.safe_dump(CLI_DOC))
    return str(path)


class TestCliSimulate:
    def test_writes_telemetry_and_ground_truth(self, cli_config, tmp_path, capsys):
        out = tmp_path / "sim"
        rc = main(["simulate", "--config", cli_config, "--out", str(out)])
        assert rc == 0
        assert (out / "telemetry.csv").exists()
        assert (out / "ground_truth.json").exists()
        schema = json.loads((out / "telemetry_schema.json").read_text())
        assert "channels" in schema
        gt = json.loads((out / "ground_truth.json").read_text())
        assert {(e["event"]["cycle"], e["event"]["fault_name"])
                for e in gt["events"]} == \
            {(2, "Needle Valve Fault"), (4, "Heating Fault"),
             (5, "Sample Taking Fault")}
        assert "simulated 6 cycles" in capsys.readouterr().out

    def test_same_config_gives_identical_bytes(self, cli_config, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", cli_config, "--out", str(a)]) == 0
        assert main(["simulate", "--config", cli_config, "--out", str(b)]) == 0
        for name in ("telemetry.csv", "telemetry_schema.json",
                     "ground_truth.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
        digest = hashlib.sha256((a / "telemetry.csv").read_bytes()).hexdigest()
        assert digest == TELEMETRY_DIGEST
        for name, want in SIMULATE_JSON_DIGESTS.items():
            assert hashlib.sha256((a / name).read_bytes()).hexdigest() == want, name

    def test_left_out_missing_and_outliers_inject_nothing(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text(yaml.safe_dump({"seed": 5, "sim": {"cycles": 5}}))
        out = tmp_path / "sim"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        gt = json.loads((out / "ground_truth.json").read_text())
        assert (gt["missing"], gt["outliers"]) == ([], [])

    def test_default_sections_ground_truth_bytes(self, tmp_path):
        # CLI_DOC injects nothing; the default missing and outlier sections put
        # every ground-truth record type (27 events, 39 missing intervals, 3
        # outlier points) into the written file
        doc = yaml.safe_load(DEFAULT_YAML.read_text())
        doc["sim"]["cycles"] = 35
        path = tmp_path / "run.yaml"
        path.write_text(yaml.safe_dump(doc))
        out = tmp_path / "sim"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        written = (out / "ground_truth.json").read_bytes()
        assert {k: len(v) for k, v in json.loads(written).items()} == \
            {"events": 27, "missing": 39, "outliers": 3}
        assert hashlib.sha256(written).hexdigest() == DEFAULT_GROUND_TRUTH_DIGEST


class TestCliPipeline:
    def test_preprocess_writes_a_loadable_dataset(self, cli_config, tmp_path,
                                                  capsys):
        out = tmp_path / "pre"
        rc = main(["preprocess", "--config", cli_config, "--scenario", "s1",
                   "--out", str(out)])
        assert rc == 0
        meta = json.loads((out / "curated_s1.json").read_text())
        assert meta["scenario"] == "s1"
        with open(out / "curated_s1.csv", newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["timestamp", "cycle", "sequence", *meta["feature_names"], "target"]
        assert rows and all(len(row) == len(header) for row in rows)
        assert "curated s1" in capsys.readouterr().out

    def test_evaluate_baseline_writes_a_report(self, cli_config, tmp_path,
                                               capsys):
        out = tmp_path / "eval"
        rc = main(["evaluate", "--config", cli_config, "--scenario", "baseline",
                   "--out", str(out)])
        assert rc == 0
        doc = json.loads((out / "baseline_report.json").read_text())
        assert doc["scenario"] == "baseline"
        assert (out / "baseline_cells.csv").exists()
        assert "baseline:" in capsys.readouterr().out

    def test_compare_writes_the_side_by_side(self, cli_config, tmp_path, capsys):
        out = tmp_path / "cmp"
        rc = main(["compare", "--config", cli_config, "--out", str(out)])
        assert rc == 0
        doc = json.loads((out / "comparison.json").read_text())
        assert [r["scenario"] for r in doc["comparison"]] == \
            ["baseline", "s1", "s2"]
        assert (out / "comparison.csv").exists()
        assert "reports ->" in capsys.readouterr().out

    def test_partial_noise_mapping_simulates(self, tmp_path):
        doc = dict(CLI_DOC, sim={"cycles": 1, "noise": {"angle_platform": 0.4}})
        path = tmp_path / "run.yaml"
        path.write_text(yaml.safe_dump(doc))
        rc = main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")])
        assert rc == 0
        assert (tmp_path / "out" / "telemetry.csv").exists()

    def test_scaler_is_fitted_on_the_split_train_cycles(self, tmp_path, monkeypatch):
        seen = []

        def standardize(frame, fit_mask):
            seen.append(frame)
            return real(frame, fit_mask)

        real = features.standardize
        monkeypatch.setattr(features, "standardize", standardize)
        path = tmp_path / "run.yaml"
        path.write_text(yaml.safe_dump(dict(CLI_DOC, split=[0.4, 0.3, 0.3])))
        out = tmp_path / "pre"
        assert main(["preprocess", "--config", str(path), "--scenario", "s1",
                     "--out", str(out)]) == 0
        frame, = seen
        cycles = np.unique(frame.cycle)
        rows = np.isin(frame.cycle, cycles[:math.floor(0.4 * len(cycles))])
        scaler = json.loads((out / "curated_s1.json").read_text())["scaler"]
        assert set(scaler) == set(frame.channels)
        for name, values in frame.channels.items():
            assert scaler[name] == [np.mean(values[rows]), np.std(values[rows])]

    def test_out_falls_back_to_the_config_value(self, tmp_path, monkeypatch):
        doc = dict(CLI_DOC, out=str(tmp_path / "from_config"))
        path = tmp_path / "run.yaml"
        path.write_text(yaml.safe_dump(doc))
        rc = main(["simulate", "--config", str(path)])
        assert rc == 0
        assert (tmp_path / "from_config" / "telemetry.csv").exists()


class TestCliFailures:
    def test_missing_config_file_is_usage_error(self, tmp_path, capsys):
        rc = main(["simulate", "--config", str(tmp_path / "nope.yaml")])
        assert rc == 2
        assert "configuration error" in capsys.readouterr().err

    def test_config_is_read_as_utf8_in_an_ascii_locale(self, tmp_path):
        path = tmp_path / "run.yaml"
        doc = dict(CLI_DOC, sim=dict(CLI_DOC["sim"], cycles=1, schedule=[]))
        path.write_text("# café, 5 °C\n" + yaml.safe_dump(doc), encoding="utf-8")
        proc = run_pdm("simulate", "--config", str(path), "--out", str(tmp_path / "sim"),
                       timeout=60, env={"LC_ALL": "C", "PYTHONUTF8": "0",
                                        "PYTHONCOERCECLOCALE": "0"})
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "sim" / "telemetry.csv").exists()

    def test_module_entry_point_exits_with_mains_code(self, tmp_path):
        proc = run_pdm("compare", "--config", str(tmp_path / "nope.yaml"),
                       timeout=60)
        assert proc.returncode == 2
        assert "configuration error" in proc.stderr

    def test_invalid_config_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump({"seed": 1, "bogus": True}))
        rc = main(["simulate", "--config", str(path), "--out", str(tmp_path)])
        assert rc == 2
        assert "configuration error: unknown keys: ['bogus']" in capsys.readouterr().err

    def test_malformed_kb_is_usage_error(self, tmp_path, capsys):
        kb_path = tmp_path / "kb.yaml"
        kb_path.write_text(yaml.safe_dump({"mode_model": {}, "rules": [], "fmeca": [],
                                           "envelopes": [], "redundancy": []}))
        path = tmp_path / "run.yaml"
        path.write_text(yaml.safe_dump(dict(CLI_DOC, kb=str(kb_path))))
        rc = main(["simulate", "--config", str(path), "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "mode_model" in err

    @pytest.mark.parametrize("section, message", [
        ({"preprocess": {"iqr_window": 30}}, "iqr_window must be odd and >= 3, got 30"),
        ({"preprocess": {"resample_minutes": 0}}, "resample_minutes must be an integer >= 1, got 0"),
        ({"models": dict(CLI_DOC["models"], gbdt=[{"min_leaf": 0}])},
         "min_leaf must be an integer >= 1, got 0"),
        ({"preprocess": {"train_fraction": 0.6}},
         "configuration error: preprocess: unknown keys: ['train_fraction']"),
        ({"models": dict(CLI_DOC["models"], gbdt=[{"depth": 3}])},
         "configuration error: models.gbdt[0]: unknown keys: ['depth']"),
        ({"preprocess": {"ics_m": 50}},
         "preprocess: ics_m must be at most 9, the number of channels, got 50"),
        ({"outliers": 5}, "outliers: must be a list of mappings, got 5"),
        ({"horizons_minutes": 180}, "horizons_minutes must be a list, got 180"),
        ({"split": 0.6}, "split must be a list, got 0.6"),
        ({"missing": 5}, "missing: must be a mapping, got 5"),
        ({"sim": dict(CLI_DOC["sim"], idle_minutes=-5)},
         "sim: idle_minutes must be an integer >= 0, got -5"),
        ({"sim": []}, "sim: must be a mapping, got []"),
        ({"preprocess": []}, "preprocess: must be a mapping, got []"),
        ({"preprocess": 0}, "preprocess: must be a mapping, got 0"),
        ({"sim": dict(CLI_DOC["sim"], wander_phi="x")},
         "sim: wander_phi must be a number in [0, 1), got 'x'"),
        ({"sim": dict(CLI_DOC["sim"], wander_phi=1.5)},
         "sim: wander_phi must be a number in [0, 1), got 1.5"),
        ({"sim": dict(CLI_DOC["sim"], wander_phi=-2)},
         "sim: wander_phi must be a number in [0, 1), got -2"),
        ({"sim": dict(CLI_DOC["sim"], cycles=7.9)},
         "sim: cycles must be an integer >= 1, got 7.9"),
        ({"sim": dict(CLI_DOC["sim"], cycles=True)},
         "sim: cycles must be an integer >= 1, got True"),
        ({"sim": dict(CLI_DOC["sim"], idle_minutes=10.5)},
         "sim: idle_minutes must be an integer >= 0, got 10.5"),
        ({"sim": dict(CLI_DOC["sim"], start="tomorrow")},
         "sim: start must be an ISO date and time, got 'tomorrow'"),
    ])
    def test_bad_parameters_exit_two_before_simulating(self, tmp_path, capsys,
                                                       section, message):
        path = tmp_path / "run.yaml"
        path.write_text(yaml.safe_dump(dict(CLI_DOC, **section)))
        out = tmp_path / "out"
        rc = main(["preprocess", "--config", str(path), "--scenario", "s1",
                   "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and message in err
        assert not out.exists()

    @pytest.mark.parametrize("section, key", [
        ("sim", "logging_model"),
        ("preprocess", "train_fraction"),
    ])
    def test_removed_keys_are_usage_errors(self, tmp_path, capsys, section, key):
        doc = dict(CLI_DOC, **{section: dict(CLI_DOC.get(section, {}), **{key: 0.6})})
        path = tmp_path / "run.yaml"
        path.write_text(yaml.safe_dump(doc))
        rc = main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and key in err

    def test_svm_epochs_is_a_usage_error(self, tmp_path, capsys):
        # the svm fit has no epochs; a grid written for the old solver is refused
        doc = dict(CLI_DOC, models=dict(CLI_DOC["models"],
                                        svm=[{"reg": 0.001, "epochs": 30}]))
        path = tmp_path / "run.yaml"
        path.write_text(yaml.safe_dump(doc))
        out = tmp_path / "out"
        rc = main(["compare", "--config", str(path), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "configuration error: models.svm[0]: unknown keys: ['epochs']" in err
        assert not out.exists()

    def test_unknown_noise_channel_is_usage_error(self, tmp_path, capsys):
        doc = dict(CLI_DOC, sim=dict(CLI_DOC["sim"], noise={"bogus": 1.0}))
        path = tmp_path / "run.yaml"
        path.write_text(yaml.safe_dump(doc))
        rc = main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "'bogus'" in err
        assert not (tmp_path / "out").exists()

    def test_runtime_failure_exits_three(self, tmp_path, capsys):
        # the config loads; inject_missing refuses the overlap after simulating
        doc = dict(CLI_DOC,
                   missing={"blanket": [{"cycle": 2, "start_minute": 0, "minutes": 100},
                                        {"cycle": 2, "start_minute": 50, "minutes": 100}]})
        path = tmp_path / "run.yaml"
        path.write_text(yaml.safe_dump(doc))
        rc = main(["simulate", "--config", str(path), "--out", str(tmp_path)])
        assert rc == 3
        assert "pipeline error: blanket maintenance intervals overlap" in capsys.readouterr().err

    def test_argparse_usage_errors(self):
        with pytest.raises(SystemExit) as exc:
            main(["simulate"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate", "--config", "x"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["preprocess", "--config", "x", "--scenario", "s9"])
        assert exc.value.code == 2


def kb_copy(tmp_path, edit) -> str:
    """Path of the stock knowledge base written out after ``edit(doc)``."""
    doc = stock_doc()
    edit(doc)
    path = tmp_path / "kb.yaml"
    path.write_text(yaml.safe_dump(doc))
    return str(path)


def absent_channel(doc):
    rule = doc["rules"][0]
    assert rule["id"] == 1
    rule["sensor"]["channel"] = "no_such_channel"


def bar_unit(doc):
    rule = next(r for r in doc["rules"] if r.get("sensor", {}).get("unit") == "hPa")
    rule["sensor"]["unit"] = "bar"


def threshold_nan(doc):
    doc["rules"][0]["sensor"]["threshold"] = float("nan")


def qualifier_text(doc):
    doc["rules"][1]["within_first_minutes"] = "soon"


def heating_step_past_sequence(doc):
    doc["rules"][2]["step_minute"] = 5000


def within_first_minute(doc):
    rule = doc["rules"][1]
    rule["within_first_minute"] = rule.pop("within_first_minutes")


def rules_misspelled(doc):
    doc["rulez"] = []


def heating_short(doc):
    # S09 ends before the heating_temp fault's onset at minute 890; rule 3,
    # which watches from minute 890 on, could never fire and goes too
    doc["durations"]["S09"] = 800
    del doc["rules"][2]


OUTLIER = {"cycle": 3, "channel": "temp_internal", "minute": 100, "kind": "FalseSpike",
           "delta": 50.0}
DROPOUT = {"cycle": 3, "channel": "temp_internal", "start_minute": 100, "minutes": 30}


def entry_without(entry, key):
    return {k: v for k, v in entry.items() if k != key}


# (config overrides, knowledge-base edit, command, exit code, message); on
# exit 0 the message is the report's reason for selecting no cell
BAD_INPUTS = {
    "four_cycles": ({"sim": dict(CLI_DOC["sim"], cycles=4,
                                 schedule=[[2, "needle"], [4, "heating_temp"]]),
                     "missing": {"non_use": True}, "outliers": []},
                    None, ["compare"], 3, "need at least 5 cycles to split, got 4"),
    "kb_absent_channel": ({}, absent_channel, ["compare"], 3,
                          "rule 1: frame lacks channel 'no_such_channel'"),
    "kb_unit_mismatch": ({}, bar_unit, ["compare"], 2, "conflicts with 'bar'"),
    "horizon_beyond_data": ({"sim": dict(CLI_DOC["sim"], cycles=10),
                             "horizons_minutes": [99990]},
                            None, ["compare"], 3, "horizon 99990 leaves an empty split part"),
    # dropping the 65%-missing temp_external_a leaves 8 channels for ICS
    "ics_m_above_channels_left": ({"sim": dict(CLI_DOC["sim"], cycles=8),
                                   "preprocess": {"ics_m": 9},
                                   "missing": {"dropout": [
                                       {"cycle": cycle, "channel": "temp_external_a",
                                        "start_minute": 0, "minutes": 2910}
                                       for cycle in range(1, 6)]}},
                                  None, ["preprocess", "--scenario", "s2"], 3,
                                  "ics_m must be between 1 and 8, the number of channels "
                                  "left, got 9"),
    "nothing_logged": ({"sim": dict(CLI_DOC["sim"], logging_probability=0)},
                       None, ["evaluate", "--scenario", "s1"], 0,
                       "no cell exceeded accuracy 0.7 with nonzero F1"),
    "schedule_not_a_list": ({"sim": dict(CLI_DOC["sim"], schedule=5)}, None, ["simulate"], 2,
                            "sim: schedule must be a list of [cycle, fault key] pairs, got 5"),
    "schedule_entry_not_a_pair": ({"sim": dict(CLI_DOC["sim"], schedule=[[2]])}, None,
                                  ["simulate"], 2, "sim: schedule must be a list"),
    "schedule_cycle_not_integral": ({"sim": dict(CLI_DOC["sim"], schedule=[[7.9, "needle"]])},
                                    None, ["simulate"], 2,
                                    "sim: schedule[0] cycle must be an integer in [1, 6], "
                                    "got 7.9"),
    "kb_rule_key_typo": ({}, within_first_minute, ["simulate"], 2,
                         "knowledge base rules[1]: unknown keys: ['within_first_minute']"),
    "kb_unknown_section": ({}, rules_misspelled, ["simulate"], 2,
                           "knowledge base: unknown keys: ['rulez']"),
    # keys of the format before FMECA alone stated severity and consequence
    "kb_rule_mode": ({}, lambda doc: doc["rules"][0].update(mode="Sampling"), ["simulate"], 2,
                     "knowledge base rules[0]: unknown keys: ['mode']"),
    "kb_rule_severity": ({}, lambda doc: doc["rules"][0].update(severity="Blocking"),
                         ["simulate"], 2, "knowledge base rules[0]: unknown keys: ['severity']"),
    "kb_envelope_mode": ({}, lambda doc: doc["envelopes"][0].update(mode="Heating"),
                         ["simulate"], 2,
                         "knowledge base envelopes[0]: unknown keys: ['mode']"),
    "kb_mode_model": ({}, lambda doc: doc.update(mode_model={"durations": doc.pop("durations")}),
                      ["simulate"], 2, "knowledge base: unknown keys: ['mode_model']"),
    "kb_onset_past_sequence": ({}, heating_short, ["simulate"], 2,
                               "fault heating_temp can start at minute 890 of S09, "
                               "which lasts only 800 minutes"),
    "missing_unknown_key": ({"missing": {"bogus": True}}, None, ["simulate"], 2,
                            "missing: unknown keys: ['bogus']"),
    "missing_dropouts_typo": ({"missing": {"dropouts": [DROPOUT]}}, None, ["simulate"], 2,
                              "missing: unknown keys: ['dropouts']"),
    "blanket_not_a_list": ({"missing": {"blanket": 5}}, None, ["simulate"], 2,
                           "missing.blanket: must be a list of mappings, got 5"),
    "dropout_not_a_list": ({"missing": {"dropout": DROPOUT}}, None, ["simulate"], 2,
                           "missing.dropout: must be a list of mappings"),
    "dropout_entry_not_a_mapping": ({"missing": {"dropout": [DROPOUT, 3]}}, None,
                                    ["simulate"], 2,
                                    "missing.dropout[1]: must be a mapping, got 3"),
    "dropout_without_channel": ({"missing": {"dropout": [entry_without(DROPOUT, "channel")]}},
                                None, ["simulate"], 2,
                                "missing.dropout[0]: lacks required keys: ['channel']"),
    "blanket_without_minutes": ({"missing": {"blanket": [{"cycle": 3, "start_minute": 100}]}},
                                None, ["simulate"], 2,
                                "missing.blanket[0]: lacks required keys: ['minutes']"),
    "blanket_unknown_key": ({"missing": {"blanket": [dict(entry_without(DROPOUT, "channel"),
                                                          length=30)]}},
                            None, ["simulate"], 2, "missing.blanket[0]: unknown keys: ['length']"),
    "outlier_without_channel": ({"outliers": [entry_without(OUTLIER, "channel")]}, None,
                                ["simulate"], 2, "outliers[0]: lacks required keys: ['channel']"),
    "outlier_without_minute_and_kind": ({"outliers": [OUTLIER, {"cycle": 3, "channel": "x",
                                                                "delta": 1.0}]},
                                        None, ["simulate"], 2,
                                        "outliers[1]: lacks required keys: ['minute', 'kind']"),
    "outlier_without_delta_or_value": ({"outliers": [entry_without(OUTLIER, "delta")]}, None,
                                       ["simulate"], 2,
                                       "outliers[0]: needs a delta or a value key"),
    "outlier_with_delta_and_value": ({"outliers": [dict(OUTLIER, value=900.0)]}, None,
                                     ["simulate"], 2,
                                     "outliers[0]: takes a delta or a value key, not both"),
    "outlier_unknown_key": ({"outliers": [dict(OUTLIER, size=3)]}, None, ["simulate"], 2,
                            "outliers[0]: unknown keys: ['size']"),
    "outlier_not_a_mapping": ({"outliers": [[3, "temp_internal"]]}, None, ["simulate"], 2,
                              "outliers[0]: must be a mapping, got [3, 'temp_internal']"),
    "blanket_cycle_not_a_number": ({"missing": {"blanket": [{"cycle": "x", "start_minute": 0,
                                                             "minutes": 5}]}},
                                   None, ["simulate"], 2,
                                   "missing.blanket[0]: cycle must be an integer >= 1, got 'x'"),
    "dropout_minutes_not_a_number": ({"missing": {"dropout": [DROPOUT,
                                                              dict(DROPOUT, minutes="long")]}},
                                     None, ["simulate"], 2,
                                     "missing.dropout[1]: minutes must be an integer >= 1, "
                                     "got 'long'"),
    "outlier_minute_null": ({"outliers": [dict(OUTLIER, minute=None)]}, None, ["simulate"], 2,
                            "outliers[0]: minute must be an integer >= 0, got None"),
    "outlier_minute_infinite": ({"outliers": [dict(OUTLIER, minute=float("inf"))]}, None,
                                ["simulate"], 2,
                                "outliers[0]: minute must be an integer >= 0, got inf"),
    "outlier_delta_not_a_number": ({"outliers": [dict(OUTLIER, delta="big")]}, None,
                                   ["simulate"], 2,
                                   "outliers[0]: delta must be a number, got 'big'"),
    "outlier_value_not_a_number": ({"outliers": [dict(entry_without(OUTLIER, "delta"),
                                                      value=[1.0])]},
                                   None, ["simulate"], 2,
                                   "outliers[0]: value must be a number, got [1.0]"),
    "blanket_cycle_not_integral": ({"missing": {"blanket": [{"cycle": 7.9, "start_minute": 0,
                                                             "minutes": 5}]}},
                                   None, ["simulate"], 2,
                                   "missing.blanket[0]: cycle must be an integer >= 1, got 7.9"),
    "blanket_start_minute_bool": ({"missing": {"blanket": [{"cycle": 3, "start_minute": True,
                                                            "minutes": 5}]}},
                                  None, ["simulate"], 2,
                                  "missing.blanket[0]: start_minute must be an integer >= 0, "
                                  "got True"),
    "outlier_delta_bool": ({"outliers": [dict(OUTLIER, delta=True)]}, None, ["simulate"], 2,
                           "outliers[0]: delta must be a number, got True"),
    "logging_probability_not_a_number": ({"sim": dict(CLI_DOC["sim"], logging_probability="x")},
                                         None, ["simulate"], 2,
                                         "sim: logging_probability must be a "
                                         "number in [0, 1], got 'x'"),
    "logging_probability_bool": ({"sim": dict(CLI_DOC["sim"], logging_probability=True)},
                                 None, ["simulate"], 2,
                                 "sim: logging_probability must be a number "
                                 "in [0, 1], got True"),
    "injection_bool": ({"sim": dict(CLI_DOC["sim"], injection={"needle": True})}, None,
                       ["simulate"], 2,
                       "sim.injection: needle must be a number in [0, 1], got True"),
    "noise_bool": ({"sim": dict(CLI_DOC["sim"], noise={"temp_internal": False})}, None,
                   ["simulate"], 2,
                   "sim.noise: temp_internal must be a number >= 0, got False"),
    "wander_bool": ({"sim": dict(CLI_DOC["sim"], wander={"angle_platform": True})}, None,
                    ["simulate"], 2,
                    "sim.wander: angle_platform must be a number >= 0, got True"),
    "outlier_value_nan": ({"outliers": [dict(entry_without(OUTLIER, "delta"),
                                             value=float("nan"))]},
                          None, ["simulate"], 2, "outliers[0]: value must be a number, got nan"),
    "outlier_delta_infinite": ({"outliers": [dict(OUTLIER, delta=float("inf"))]}, None,
                               ["simulate"], 2,
                               "outliers[0]: delta must be a number, got inf"),
    "outlier_delta_minus_infinite": ({"outliers": [dict(OUTLIER, delta=float("-inf"))]}, None,
                                     ["preprocess", "--scenario", "s1"], 2,
                                     "outliers[0]: delta must be a number, got -inf"),
    "noise_infinite": ({"sim": dict(CLI_DOC["sim"], noise={"temp_internal": float("inf")})},
                       None, ["preprocess", "--scenario", "s1"], 2,
                       "sim.noise: temp_internal must be a number >= 0, got inf"),
    "logging_probability_nan": ({"sim": dict(CLI_DOC["sim"], logging_probability=float("nan"))},
                                None, ["simulate"], 2,
                                "sim: logging_probability must be a number in "
                                "[0, 1], got nan"),
    "seed_not_integral": ({"seed": 7.9}, None, ["simulate"], 2,
                          "seed must be an integer >= 0, got 7.9"),
    "seed_bool": ({"seed": True}, None, ["simulate"], 2, "seed must be an integer >= 0, got True"),
    "seed_negative": ({"seed": -1}, None, ["simulate"], 2, "seed must be an integer >= 0, got -1"),
    "iqr_k_nan": ({"preprocess": {"iqr_k": float("nan")}}, None, ["simulate"], 2,
                  "preprocess: iqr_k must be a number >= 0, got nan"),
    "verify_window_infinite": ({"preprocess": {"verify_window_minutes": float("inf")}}, None,
                               ["simulate"], 2, "preprocess: verify_window_minutes "
                                                "must be an integer >= 0, got inf"),
    "top_n_bool": ({"preprocess": {"top_n": True}}, None, ["simulate"], 2,
                   "preprocess: top_n must be an integer >= 1, got True"),
    "gbdt_iterations_not_integral": ({"models": dict(CLI_DOC["models"],
                                                     gbdt=[{"iterations": 80.5}])},
                                     None, ["simulate"], 2,
                                     "models.gbdt[0]: iterations "
                                     "must be an integer >= 1, got 80.5"),
    "gbdt_reg_lambda_negative": ({"models": dict(CLI_DOC["models"],
                                                 gbdt=[{"reg_lambda": -1.0}])},
                                 None, ["simulate"], 2,
                                 "models.gbdt[0]: reg_lambda "
                                 "must be a number >= 0, got -1.0"),
    "svm_reg_nan": ({"models": dict(CLI_DOC["models"], svm=[{"reg": float("nan")}])}, None,
                    ["simulate"], 2,
                    "models.svm[0]: reg must be a number > 0, got nan"),
    "forest_trees_bool": ({"models": dict(CLI_DOC["models"], forest=[{"trees": True}])}, None,
                          ["simulate"], 2, "models.forest[0]: trees "
                                           "must be an integer >= 1, got True"),
    "forest_max_depth_not_integral": ({"models": dict(CLI_DOC["models"],
                                                      forest=[{"max_depth": 2.5}])},
                                      None, ["simulate"], 2,
                                      "models.forest[0]: max_depth "
                                      "must be an integer >= 1, got 2.5"),
    "split_nan": ({"split": [0.6, 0.2, float("nan")]}, None, ["simulate"], 2,
                  "split[2] must be a number, got nan"),
    "kb_threshold_nan": ({}, threshold_nan, ["evaluate", "--scenario", "baseline"], 2,
                         "knowledge base rules[0].sensor: threshold must be a number, got nan"),
    "kb_qualifier_text": ({}, qualifier_text, ["simulate"], 2,
                          "knowledge base rules[1]: within_first_minutes must be an "
                          "integer >= 1, got 'soon'"),
    "kb_step_past_sequence": ({}, heating_step_past_sequence,
                              ["evaluate", "--scenario", "baseline"], 2,
                              "rule 3: step_minute 5000 is at or past the 960 minutes "
                              "S09 lasts"),
    "dropout_past_cycles": ({"missing": {"dropout": [dict(DROPOUT, cycle=9)]}}, None,
                            ["simulate"], 2, "missing.dropout[0]: cycle 9 is past sim.cycles, 6"),
    "outlier_past_cycles": ({"outliers": [dict(OUTLIER, cycle=9)]}, None, ["simulate"], 2,
                            "outliers[0]: cycle 9 is past sim.cycles, 6"),
    "blanket_start_negative": ({"missing": {"blanket": [{"cycle": 3, "start_minute": -100,
                                                         "minutes": 180}]}},
                               None, ["simulate"], 2,
                               "missing.blanket[0]: start_minute must be an integer >= 0, "
                               "got -100"),
    "dropout_minutes_zero": ({"missing": {"dropout": [dict(DROPOUT, minutes=0)]}}, None,
                             ["simulate"], 2,
                             "missing.dropout[0]: minutes must be an integer >= 1, got 0"),
    "blanket_cycle_zero": ({"missing": {"blanket": [{"cycle": 0, "start_minute": 100,
                                                     "minutes": 30}]}},
                           None, ["simulate"], 2,
                           "missing.blanket[0]: cycle must be an integer >= 1, got 0"),
    "outlier_minute_negative": ({"outliers": [dict(OUTLIER, minute=-5)]}, None, ["simulate"], 2,
                                "outliers[0]: minute must be an integer >= 0, got -5"),
    "outlier_unknown_kind": ({"outliers": [dict(OUTLIER, kind="Spike")]}, None, ["simulate"], 2,
                             "outliers[0]: kind must be one of FalseSpike, "
                             "TruePrecursorRelevant, TrueIrrelevant, got 'Spike'"),
    "outlier_unknown_channel": ({"outliers": [dict(OUTLIER, channel="temp_inside")]}, None,
                                ["simulate"], 2,
                                "outliers[0]: channel must be a simulated channel, "
                                "got 'temp_inside'"),
    "dropout_unknown_channel": ({"missing": {"dropout": [dict(DROPOUT, channel="temp_inside")]}},
                                None, ["simulate"], 2,
                                "missing.dropout[0]: channel must be a simulated channel, "
                                "got 'temp_inside'"),
    "non_use_quoted": ({"missing": {"non_use": "no"}}, None, ["simulate"], 2,
                       "missing: non_use must be true or false, got 'no'"),
    "horizons_repeated": ({"horizons_minutes": [180, 180]}, None, ["simulate"], 2,
                          "horizons_minutes[1]: 180 is given twice"),
    "kb_not_a_path": ({"kb": ["a"]}, None, ["simulate"], 2, "kb must be a path, got ['a']"),
    "kb_file_descriptor": ({"kb": 0}, None, ["simulate"], 2, "kb must be a path, got 0"),
    "out_not_a_path": ({"out": True}, None, ["simulate"], 2, "out must be a path, got True"),
    "out_empty": ({"out": ""}, None, ["simulate"], 2, "out must be a path, got ''"),
    "out_flag_empty": ({}, None, ["simulate", "--out", ""], 2,
                      "argument --out: must be a path, got ''"),
}


class TestCliBadInputs:
    @pytest.mark.parametrize("overrides, kb_edit, command, code, message",
                             BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
    def test_cause_is_named(self, tmp_path, capsys, overrides, kb_edit, command,
                            code, message):
        doc = dict(CLI_DOC, **overrides)
        if kb_edit is not None:
            doc["kb"] = kb_copy(tmp_path, kb_edit)
        path = tmp_path / "run.yaml"
        path.write_text(yaml.safe_dump(doc))
        out = tmp_path / "out"
        prefix = "configuration error" if code == 2 else "pipeline error"
        try:
            # the command's own options come last, so an --out there is the one used
            rc = main([command[0], "--config", str(path), "--out", str(out), *command[1:]])
        except SystemExit as exc:   # argparse refuses bad usage itself
            rc, prefix = exc.code, "usage"
        assert rc == code
        err = capsys.readouterr().err
        if code == 0:
            report = json.loads((out / "s1_report.json").read_text())
            assert report["best"] is None
            assert report["reason"] == message
        else:
            assert f"{prefix}: " in err and message in err
            assert code == 3 or not out.exists()


IMPORT_SURFACE = """
import json, sys

def loaded():
    return sorted(m for m in sys.modules if m.startswith(("scipy.stats", "scipy.signal")))

import pdmpipe
import pdmpipe.cli
after_import = loaded()
rc = pdmpipe.cli.main(["simulate", "--config", sys.argv[1], "--out", sys.argv[2]])
print(json.dumps({"after_import": after_import, "rc": rc, "after_simulate": loaded()}))
"""


class TestImportSurface:
    def test_neither_scipy_stats_nor_signal_is_imported(self, tmp_path):
        # every pdm command pays for these imports, and no command needs them
        path = tmp_path / "run.yaml"
        path.write_text(yaml.safe_dump(CLI_DOC))
        proc = run_python("-c", IMPORT_SURFACE, str(path), str(tmp_path / "out"),
                          timeout=120)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result == {"after_import": [], "rc": 0, "after_simulate": []}

    def test_package_exports_the_documented_library(self):
        # the names the README's Library section, the demos, the knowledge-base
        # doc and the benchmark worker use, and the types of their values
        exported = {name for name, value in vars(pdmpipe).items()
                    if not name.startswith("_") and not isinstance(value, types.ModuleType)}
        assert exported == {
            "SimConfig", "simulate", "inject_missing", "inject_outliers",
            "default_kb", "load_kb", "evaluate_rules",
            "classify_gaps", "impute_single_sensor", "drop_intervals", "verify_outliers",
            "apply_verdicts",
            "build_dataset", "label_horizon", "split_chronological",
            "GbdtParams", "fit_gbdt", "compute_metrics",
            "compare", "make_config", "load_config",
            "TimeSeriesFrame", "KnowledgeBase",
        }

    def test_import_loads_every_layer_module(self):
        # the benchmark times ``import pdmpipe`` as set-up; a narrower export
        # list must not move a layer's import into a command
        proc = run_python("-c", "import json, sys, pdmpipe; print(json.dumps(sorted("
                          "m for m in sys.modules if m.split('.')[0] == 'pdmpipe')))",
                          timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [
            "pdmpipe", "pdmpipe._fork", "pdmpipe._seeding", "pdmpipe._spec", "pdmpipe.cleaning",
            "pdmpipe.config", "pdmpipe.evaluation", "pdmpipe.features",
            "pdmpipe.knowledge", "pdmpipe.models", "pdmpipe.simulator",
            "pdmpipe.timeseries",
        ]
