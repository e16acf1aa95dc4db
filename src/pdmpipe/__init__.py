"""Knowledge-informed predictive maintenance for cyclic sampling equipment.

The package covers the full loop: simulate telemetry with known faults,
monitor it with a rule engine driven by a declarative knowledge base,
curate datasets under a data-driven and a knowledge-informed scenario,
train native classifiers over several prediction horizons, and compare
the scenarios against the rule baseline.

The package exports the documented library only; every other name is
imported from its module, such as ``pdmpipe.cleaning``.
"""

from .cleaning import (
    apply_verdicts,
    classify_gaps,
    drop_intervals,
    impute_single_sensor,
    verify_outliers,
)
from .config import load_config, make_config
from .evaluation import compare, compute_metrics, label_horizon, split_chronological
from .features import build_dataset
from .knowledge import KnowledgeBase, default_kb, evaluate_rules, load_kb
from .models import GbdtParams, fit_gbdt
from .simulator import SimConfig, inject_missing, inject_outliers, simulate
from .timeseries import TimeSeriesFrame

__version__ = "0.1.0"
