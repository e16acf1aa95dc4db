"""Run configuration: one YAML file drives every command.

A config must carry an explicit seed; there is no implicit randomness
anywhere downstream. Unknown keys are rejected loudly, in every section
and list entry, since a typoed parameter silently falling back to a
default is worse than an error.

Every number goes through ``_spec.number``. The parameter records state
each field's type and range and convert themselves; this module converts
the list entries, ``seed``, ``horizons_minutes`` and ``split``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import yaml

from ._spec import number
from .features import PreprocessParams
from .models import FAMILY_PARAMS
from .simulator import (CHANNEL_UNITS, DEFAULT_INJECTION, DEFAULT_NOISE, DEFAULT_WANDER,
                        SimConfig)


class ConfigError(ValueError):
    """Bad or missing run configuration."""


DEFAULT_HORIZONS = (180, 720, 1440)
DEFAULT_SPLIT = (0.6, 0.2, 0.2)

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
            if h % self.preprocess.resample_minutes != 0:
                raise ConfigError(
                    f"horizon {h} is not a multiple of the "
                    f"{self.preprocess.resample_minutes}-minute row interval")
        if (len(self.split) != 3 or abs(sum(self.split) - 1.0) > 1e-9
                or min(self.split) <= 0):
            raise ConfigError("split must be three positive fractions summing to 1")
        for family, grid in self.grids.items():
            if family not in FAMILY_PARAMS:
                raise ConfigError(f"unknown model family {family!r}")
            if not grid:
                raise ConfigError(f"empty grid for {family}")
            for entry in grid:
                _keys(entry, f"{family} grid", _fields(FAMILY_PARAMS[family]),
                      context=f" in {entry}")
                try:
                    FAMILY_PARAMS[family](**entry)
                except (TypeError, ValueError) as exc:
                    raise ConfigError(f"bad {family} grid entry {entry}: {exc}") from None
        for family in FAMILY_PARAMS:
            if family not in self.grids:
                raise ConfigError(f"missing grid for {family}")


_TOP_KEYS = ("seed", "out", "kb", "sim", "missing", "outliers", "preprocess",
             "models", "horizons_minutes", "split")
_MISSING_KEYS = ("non_use", "blanket", "dropout")
# required keys of one entry of each list section; an outlier also needs a
# delta or a value
_ENTRY_KEYS = {
    "blanket": ("cycle", "start_minute", "minutes"),
    "dropout": ("cycle", "channel", "start_minute", "minutes"),
    "outliers": ("cycle", "channel", "minute", "kind"),
}
_OUTLIER_VALUES = ("delta", "value")
# the number type of each numeric key of a list-section entry
_ENTRY_NUMBERS = {"cycle": int, "start_minute": int, "minutes": int, "minute": int,
                  "delta": float, "value": float}
# sim mappings merged into their defaults: (key, defaults, what its keys name)
_SIM_MAPPINGS = (("injection", DEFAULT_INJECTION, "fault"),
                 ("noise", DEFAULT_NOISE, "channel"),
                 ("wander", DEFAULT_WANDER, "channel"))


def _fields(params) -> set:
    """Field names of the dataclass ``params``."""
    return {f.name for f in fields(params)}


def _keys(section, name: str, allowed, required=(), context: str = "") -> dict:
    """``section`` after checking that it is a mapping, that each of its keys
    is in ``allowed`` and that it has every key in ``required``; the error
    names the section ``name``, and ``context`` follows an unknown-key list."""
    if not isinstance(section, dict):
        raise ConfigError(f"{name} must be a mapping, got {section!r}")
    unknown = sorted(set(section) - set(allowed), key=str)
    if unknown:
        raise ConfigError(f"unknown {name} keys: {unknown}{context}")
    lacking = [key for key in required if key not in section]
    if lacking:
        raise ConfigError(f"{name} lacks required keys: {lacking}")
    return section


def _entries(items, name: str, required, optional=()) -> tuple:
    """The list section ``items`` as a tuple of mappings, each checked by
    ``_keys`` as ``name[i]``: it needs the ``required`` keys and may add
    ``optional`` ones. Numeric keys are converted by ``_ENTRY_NUMBERS``; a
    bool, or a non-integral value for an integer key, is refused."""
    if not isinstance(items, (list, tuple)):
        raise ConfigError(f"{name} must be a list of mappings, got {items!r}")
    entries = []
    for i, item in enumerate(items):
        entry = dict(_keys(item, f"{name}[{i}]", (*required, *optional), required))
        for key, kind in _ENTRY_NUMBERS.items():
            if key in entry:
                entry[key] = _number(entry[key], kind, f"{name}[{i}] {key}")
        entries.append(entry)
    return tuple(entries)


def _number(value, kind, name: str, span: str = None):
    """``_spec.number`` with its error raised as a ``ConfigError``."""
    try:
        return number(value, kind, name, span)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _build_sim(seed: int, section) -> SimConfig:
    kwargs = dict(_keys(section, "sim", _fields(SimConfig) - {"seed"}))
    # a partial mapping overrides only the keys it names
    for name, defaults, what in _SIM_MAPPINGS:
        if name not in kwargs:
            continue
        if not isinstance(kwargs[name], dict):
            raise ConfigError(f"sim {name} must be a mapping")
        for key in kwargs[name]:
            if key not in defaults:
                raise ConfigError(f"unknown {what} key {key!r} in {name}")
        kwargs[name] = {**defaults, **kwargs[name]}
    schedule = kwargs.get("schedule")
    if schedule is not None:
        try:
            pairs = [(c, str(k)) for c, k in schedule]
        except (TypeError, ValueError):
            raise ConfigError(f"sim schedule must be a list of [cycle, fault key] "
                              f"pairs, got {schedule!r}") from None
        kwargs["schedule"] = tuple((_number(c, int, f"sim schedule[{i}] cycle"), k)
                                   for i, (c, k) in enumerate(pairs))
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
    _keys(doc, "configuration", _TOP_KEYS)
    if "seed" not in doc or doc["seed"] is None:
        raise ConfigError("seed is required; no implicit randomness")
    seed = _number(doc["seed"], int, "seed", ">= 0")

    sim = _build_sim(seed, _section(doc, "sim"))
    pp_section = _keys(_section(doc, "preprocess"), "preprocess", _fields(PreprocessParams))
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
    else:
        missing = dict(_keys(missing, "missing", _MISSING_KEYS))
        for kind in ("blanket", "dropout"):
            if kind in missing:
                missing[kind] = _entries(missing[kind], f"missing.{kind}",
                                         _ENTRY_KEYS[kind])
    outliers = doc.get("outliers")
    if outliers is None:
        outliers = DEFAULT_OUTLIERS
    else:
        outliers = _entries(outliers, "outliers", _ENTRY_KEYS["outliers"], _OUTLIER_VALUES)
        for i, outlier in enumerate(outliers):
            if not any(key in outlier for key in _OUTLIER_VALUES):
                raise ConfigError(f"outliers[{i}] needs a delta or a value key")

    return PipelineConfig(
        seed=seed,
        out_dir=str(doc.get("out", "out")),
        kb_path=doc.get("kb"),
        sim=sim,
        missing=missing,
        outliers=outliers,
        preprocess=preprocess,
        grids=grids,
        horizons_minutes=_list(doc, "horizons_minutes", DEFAULT_HORIZONS, int, ">= 0"),
        split=_list(doc, "split", DEFAULT_SPLIT, float),
    )


def _section(doc: dict, key: str):
    """``doc[key]``, or an empty mapping when the key is absent or null."""
    section = doc.get(key)
    return {} if section is None else section


def _list(doc: dict, key: str, default: tuple, kind, span: str = None) -> tuple:
    """``doc[key]`` as a tuple of numbers converted by ``kind`` within
    ``span``, or ``default`` when the key is absent."""
    if key not in doc:
        return default
    if not isinstance(doc[key], (list, tuple)):
        raise ConfigError(f"{key} must be a list, got {doc[key]!r}")
    return tuple(_number(value, kind, f"{key}[{i}]", span) for i, value in enumerate(doc[key]))


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
