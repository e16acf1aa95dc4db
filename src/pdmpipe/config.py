"""Run configuration: one YAML file drives every command.

A config must carry an explicit seed; there is no implicit randomness
anywhere downstream. Unknown keys are rejected loudly, in every section
and list entry, since a typoed parameter silently falling back to a
default is worse than an error.

``PipelineConfig`` is the document as a record: its fields are the
document's keys, and it builds each section and list entry into its own
record with ``_spec.record``. Every refusal starts with the path of the
entry it refuses: ``missing.blanket[0]: minutes must be an integer >= 1,
got 0``.
"""

from __future__ import annotations

from dataclasses import dataclass

import yaml

from ._spec import bounded, check_fields, number, record, records
from .features import DEFAULT_SPLIT, PreprocessParams
from .knowledge import _load_yaml
from .models import FAMILY_PARAMS
from .simulator import CHANNEL_UNITS, MissingScenario, Outlier, SimConfig


class ConfigError(ValueError):
    """Bad or missing run configuration."""


DEFAULT_HORIZONS = (180, 720, 1440)

DEFAULT_GRIDS = {
    "forest": ({"trees": 30, "max_depth": 10}, {"trees": 60, "max_depth": 10}),
    "gbdt": ({"iterations": 80, "learning_rate": 0.1, "max_depth": 3},
             {"iterations": 120, "learning_rate": 0.1, "max_depth": 4}),
    "svm": ({"reg": 0.001}, {"reg": 0.0001}),
}


@dataclass(frozen=True)
class PipelineConfig:
    """A validated run configuration. Its fields are the document's keys;
    a key left out or null takes its default, and each section is built
    into its record."""

    seed: int = bounded(">= 0")
    out: str = "out"
    kb: str = None
    sim: SimConfig = None
    missing: MissingScenario = None
    outliers: tuple = None
    preprocess: PreprocessParams = None
    models: dict = None
    horizons_minutes: tuple = DEFAULT_HORIZONS
    split: tuple = DEFAULT_SPLIT

    def __post_init__(self):
        check_fields(self)
        for key, path in (("out", self.out), ("kb", self.kb)):
            if path is not None and not (isinstance(path, str) and path):
                raise ValueError(f"{key} must be a path, got {path!r}")
        sim = record(SimConfig, _section(self.sim), "sim", seed=self.seed)
        preprocess = record(PreprocessParams, _section(self.preprocess), "preprocess")
        if preprocess.ics_m > len(CHANNEL_UNITS):
            # the ICS screen would skip every sequence, so outliers would pass unscreened
            raise ValueError(f"preprocess: ics_m must be at most {len(CHANNEL_UNITS)}, "
                             f"the number of channels, got {preprocess.ics_m}")
        missing = record(MissingScenario, _section(self.missing), "missing")
        outliers = () if self.outliers is None else records(Outlier, self.outliers, "outliers")
        for path, entries in (("missing.blanket", missing.blanket),
                              ("missing.dropout", missing.dropout), ("outliers", outliers)):
            for i, entry in enumerate(entries):
                if entry.cycle > sim.cycles:
                    raise ValueError(f"{path}[{i}]: cycle {entry.cycle} is past "
                                     f"sim.cycles, {sim.cycles}")
        models = DEFAULT_GRIDS if self.models is None else self.models
        if not isinstance(models, dict):
            raise ValueError(f"models: must be a mapping, got {models!r}")
        for family in models:
            if family not in FAMILY_PARAMS:
                raise ValueError(f"models: unknown model family {family!r}")
        for family, params in FAMILY_PARAMS.items():
            if family not in models:
                raise ValueError(f"models: missing grid for {family}")
            # built only to refuse a bad entry: a report lists the keys an entry gives
            if not records(params, models[family], f"models.{family}"):
                raise ValueError(f"models.{family}: empty grid")
        horizons = _numbers(self.horizons_minutes, "horizons_minutes", int, ">= 0")
        if not horizons:
            raise ValueError("need at least one horizon")
        for i, h in enumerate(horizons):
            if h in horizons[:i]:
                raise ValueError(f"horizons_minutes[{i}]: {h} is given twice")
            if h % preprocess.resample_minutes != 0:
                raise ValueError(f"horizon {h} is not a multiple of the "
                                 f"{preprocess.resample_minutes}-minute row interval")
        split = _numbers(self.split, "split", float)
        if len(split) != 3 or abs(sum(split) - 1.0) > 1e-9 or min(split) <= 0:
            raise ValueError("split must be three positive fractions summing to 1")
        built = {"out": "out" if self.out is None else self.out, "sim": sim,
                 "missing": missing, "outliers": outliers, "preprocess": preprocess,
                 "models": {k: tuple(dict(g) for g in v) for k, v in models.items()},
                 "horizons_minutes": horizons, "split": split}
        for key, value in built.items():
            object.__setattr__(self, key, value)


def make_config(seed: int, **overrides) -> PipelineConfig:
    """Programmatic constructor mirroring the YAML schema."""
    doc = {"seed": seed}
    doc.update(overrides)
    return _from_doc(doc)


def _from_doc(doc) -> PipelineConfig:
    try:
        return record(PipelineConfig, doc, "")
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _section(value):
    """``value``, or an empty mapping when it is null."""
    return {} if value is None else value


def _numbers(value, key: str, kind, span: str = None) -> tuple:
    """``value``, a list, as a tuple of numbers converted by ``kind`` within ``span``."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{key} must be a list, got {value!r}")
    return tuple(number(v, kind, f"{key}[{i}]", span) for i, v in enumerate(value))


def load_config(path) -> PipelineConfig:
    """Read and validate a YAML run configuration."""
    try:
        with open(path, "rb") as fh:
            doc = _load_yaml(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read configuration: {exc}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"configuration is not valid YAML: {exc}") from None
    return _from_doc(doc)
