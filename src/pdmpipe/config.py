"""Run configuration: one YAML file drives every command.

A config must carry an explicit seed; there is no implicit randomness
anywhere downstream. Unknown keys are rejected loudly since a typoed
parameter silently falling back to a default is worse than an error.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import yaml

from .features import PreprocessParams
from .models import ForestParams, GbdtParams, SvmParams
from .simulator import (CHANNEL_UNITS, DEFAULT_INJECTION, DEFAULT_NOISE, DEFAULT_WANDER,
                        SimConfig)


class ConfigError(ValueError):
    """Bad or missing run configuration."""


DEFAULT_HORIZONS = (180, 720, 1440)
DEFAULT_SPLIT = (0.6, 0.2, 0.2)

GRID_PARAMS = {"forest": ForestParams, "gbdt": GbdtParams, "svm": SvmParams}

DEFAULT_GRIDS = {
    "forest": ({"trees": 30, "max_depth": 10}, {"trees": 60, "max_depth": 10}),
    "gbdt": ({"iterations": 80, "learning_rate": 0.1, "max_depth": 3},
             {"iterations": 120, "learning_rate": 0.1, "max_depth": 4}),
    "svm": ({"reg": 0.001}, {"reg": 0.0001}),
}

DEFAULT_MISSING = {
    "non_use": True,
    "blanket": ({"cycle": 7, "start_minute": 1500, "minutes": 180},
                {"cycle": 23, "start_minute": 1620, "minutes": 120}),
    "dropout": ({"cycle": 12, "channel": "temp_external_a",
                 "start_minute": 200, "minutes": 120},
                {"cycle": 31, "channel": "temp_external_c",
                 "start_minute": 1400, "minutes": 90}),
}

DEFAULT_OUTLIERS = (
    {"cycle": 9, "channel": "pressure_internal_b", "minute": 1900,
     "kind": "FalseSpike", "delta": 500.0},
    {"cycle": 17, "channel": "temp_external_c", "minute": 400,
     "kind": "TrueIrrelevant", "delta": 60.0},
)


@dataclass(frozen=True)
class PipelineConfig:
    """A validated run configuration; ``_from_doc`` fills in every default."""

    seed: int
    out_dir: str
    kb_path: str
    sim: SimConfig
    missing: dict
    outliers: tuple
    preprocess: PreprocessParams
    grids: dict
    horizons_minutes: tuple
    split: tuple

    def __post_init__(self):
        if not self.horizons_minutes:
            raise ConfigError("need at least one horizon")
        for h in self.horizons_minutes:
            if h < 0:
                raise ConfigError("horizons must be >= 0")
            if h % self.preprocess.resample_minutes != 0:
                raise ConfigError(
                    f"horizon {h} is not a multiple of the "
                    f"{self.preprocess.resample_minutes}-minute row interval")
        if (len(self.split) != 3 or abs(sum(self.split) - 1.0) > 1e-9
                or min(self.split) <= 0):
            raise ConfigError("split must be three positive fractions summing to 1")
        for family, grid in self.grids.items():
            if family not in GRID_PARAMS:
                raise ConfigError(f"unknown model family {family!r}")
            if not grid:
                raise ConfigError(f"empty grid for {family}")
            for entry in grid:
                unknown = _unknown_keys(GRID_PARAMS[family], entry)
                if unknown:
                    raise ConfigError(f"unknown {family} grid keys: {unknown} in {entry}")
                try:
                    GRID_PARAMS[family](**entry)
                except (TypeError, ValueError) as exc:
                    raise ConfigError(f"bad {family} grid entry {entry}: {exc}") from None
        for family in GRID_PARAMS:
            if family not in self.grids:
                raise ConfigError(f"missing grid for {family}")

    def to_dict(self) -> dict:
        missing = {k: [dict(i) for i in v] if isinstance(v, (list, tuple)) else v
                   for k, v in self.missing.items()}
        return {
            "seed": self.seed,
            "out": self.out_dir,
            "kb": self.kb_path,
            "sim": {
                "cycles": self.sim.cycles,
                "idle_minutes": self.sim.idle_minutes,
                "start": self.sim.start,
                "injection": dict(self.sim.injection),
                "schedule": None if self.sim.schedule is None
                else [list(entry) for entry in self.sim.schedule],
                "logging_probability": self.sim.logging_probability,
                "noise": dict(self.sim.noise),
                "wander": dict(self.sim.wander),
                "wander_phi": self.sim.wander_phi,
            },
            "missing": missing,
            "outliers": [dict(o) for o in self.outliers],
            "preprocess": self.preprocess.to_dict(),
            "models": {k: [dict(g) for g in v] for k, v in self.grids.items()},
            "horizons_minutes": list(self.horizons_minutes),
            "split": list(self.split),
        }


_TOP_KEYS = {"seed", "out", "kb", "sim", "missing", "outliers", "preprocess",
             "models", "horizons_minutes", "split"}
_SIM_KEYS = {"cycles", "idle_minutes", "start", "injection", "schedule",
             "logging_probability", "noise", "wander", "wander_phi"}
# sim mappings merged into their defaults: (key, defaults, what its keys name)
_SIM_MAPPINGS = (("injection", DEFAULT_INJECTION, "fault"),
                 ("noise", DEFAULT_NOISE, "channel"),
                 ("wander", DEFAULT_WANDER, "channel"))


def _unknown_keys(params, section: dict) -> list:
    """Keys of ``section`` that name no field of the dataclass ``params``, sorted."""
    return sorted(set(section) - {f.name for f in fields(params)}, key=str)


def _build_sim(seed: int, section: dict) -> SimConfig:
    unknown = set(section) - _SIM_KEYS
    if unknown:
        raise ConfigError(f"unknown sim keys: {sorted(unknown)}")
    kwargs = dict(section)
    # a partial mapping overrides only the keys it names
    for name, defaults, what in _SIM_MAPPINGS:
        if name not in kwargs:
            continue
        if not isinstance(kwargs[name], dict):
            raise ConfigError(f"sim {name} must be a mapping")
        merged = dict(defaults)
        for key, value in kwargs[name].items():
            if key not in defaults:
                raise ConfigError(f"unknown {what} key {key!r} in {name}")
            try:
                merged[key] = float(value)
            except (TypeError, ValueError):
                raise ConfigError(f"sim {name} {key!r} must be a number, "
                                  f"got {value!r}") from None
            if not merged[key] >= 0:
                raise ConfigError(f"sim {name} {key!r} must be >= 0, got {value!r}")
        kwargs[name] = merged
    if "schedule" in kwargs and kwargs["schedule"] is not None:
        kwargs["schedule"] = tuple((int(c), str(k)) for c, k in kwargs["schedule"])
    try:
        return SimConfig(seed=seed, **kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad sim section: {exc}") from None


def make_config(seed: int, **overrides) -> PipelineConfig:
    """Programmatic constructor mirroring the YAML schema."""
    doc = {"seed": seed}
    doc.update(overrides)
    return _from_doc(doc)


def _from_doc(doc: dict) -> PipelineConfig:
    if not isinstance(doc, dict):
        raise ConfigError("configuration must be a mapping")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown configuration keys: {sorted(unknown)}")
    if "seed" not in doc or doc["seed"] is None:
        raise ConfigError("seed is required; no implicit randomness")
    try:
        seed = int(doc["seed"])
    except (TypeError, ValueError):
        raise ConfigError("seed must be an integer") from None

    sim = _build_sim(seed, doc.get("sim") or {})
    pp_section = doc.get("preprocess") or {}
    if not isinstance(pp_section, dict):
        raise ConfigError("preprocess must be a mapping")
    unknown = _unknown_keys(PreprocessParams, pp_section)
    if unknown:
        raise ConfigError(f"unknown preprocess keys: {unknown}")
    try:
        preprocess = PreprocessParams(**pp_section)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad preprocess section: {exc}") from None
    if preprocess.ics_m > len(CHANNEL_UNITS):
        # the ICS screen would skip every sequence, so outliers would pass unscreened
        raise ConfigError(f"bad preprocess section: ics_m must be at most "
                          f"{len(CHANNEL_UNITS)}, the number of channels, "
                          f"got {preprocess.ics_m}")

    grids = doc.get("models")
    if grids is None:
        grids = {k: tuple(dict(g) for g in v) for k, v in DEFAULT_GRIDS.items()}
    else:
        try:
            grids = {str(k): tuple(dict(g) for g in v) for k, v in grids.items()}
        except (AttributeError, TypeError, ValueError):
            raise ConfigError("models must map each family to a list of "
                              "parameter mappings") from None

    missing = doc.get("missing")
    if missing is None:
        missing = dict(DEFAULT_MISSING)
    elif not isinstance(missing, dict):
        raise ConfigError(f"missing must be a mapping, got {missing!r}")
    outliers = doc.get("outliers")
    if outliers is None:
        outliers = DEFAULT_OUTLIERS
    elif isinstance(outliers, (list, tuple)) and all(isinstance(o, dict) for o in outliers):
        outliers = tuple(dict(o) for o in outliers)
    else:
        raise ConfigError(f"outliers must be a list of mappings, got {outliers!r}")

    try:
        return PipelineConfig(
            seed=seed,
            out_dir=str(doc.get("out", "out")),
            kb_path=doc.get("kb"),
            sim=sim,
            missing=missing,
            outliers=outliers,
            preprocess=preprocess,
            grids=grids,
            horizons_minutes=_list(doc, "horizons_minutes", DEFAULT_HORIZONS),
            split=_list(doc, "split", DEFAULT_SPLIT),
        )
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None


def _list(doc: dict, key: str, default: tuple) -> tuple:
    """``doc[key]`` as a tuple, or ``default`` when the key is absent."""
    if key not in doc:
        return default
    if not isinstance(doc[key], (list, tuple)):
        raise ConfigError(f"{key} must be a list, got {doc[key]!r}")
    return tuple(doc[key])


def load_config(path) -> PipelineConfig:
    """Read and validate a YAML run configuration."""
    try:
        with open(path) as fh:
            doc = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read configuration: {exc}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"configuration is not valid YAML: {exc}") from None
    return _from_doc(doc)
