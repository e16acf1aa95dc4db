"""Knowledge-informed predictive maintenance for cyclic sampling equipment.

The package covers the full loop: simulate telemetry with known faults,
monitor it with a rule engine driven by a declarative knowledge base,
curate datasets under a data-driven and a knowledge-informed scenario,
train native classifiers over several prediction horizons, and compare
the scenarios against the rule baseline.
"""

from .cleaning import (
    GapInterval,
    GapReport,
    OutlierVerdict,
    apply_verdicts,
    classify_gaps,
    detect_outliers_ics,
    drop_intervals,
    impute_single_sensor,
    verify_outliers,
)
from .config import ConfigError, PipelineConfig, load_config, make_config
from .evaluation import (
    MetricsReport,
    ScenarioReport,
    Split,
    compare,
    compute_metrics,
    label_horizon,
    run_scenario,
    select_best,
    split_chronological,
    tune_and_fit,
    write_comparison,
    write_report,
)
from .features import (
    CuratedDataset,
    FeatureSelection,
    PcaResult,
    PreprocessParams,
    add_statistical_features,
    annotate_faults,
    build_dataset,
    encode_sequence,
    pca,
    prioritize,
    reconstruct_target,
    select_features,
    standardize,
)
from .knowledge import (
    FaultEvent,
    FmecaEntry,
    KnowledgeBase,
    ModeModel,
    MonitoringRule,
    OperatingEnvelope,
    default_kb,
    envelope_breaches,
    evaluate_rules,
    load_kb,
)
from .models import (
    Forest,
    ForestParams,
    Gbdt,
    GbdtParams,
    Svm,
    SvmParams,
    Tree,
    fit_forest,
    fit_gbdt,
    fit_svm,
)
from .simulator import (
    GroundTruth,
    GtEvent,
    MissingInterval,
    OutlierPoint,
    SimConfig,
    inject_missing,
    inject_outliers,
    simulate,
)
from .timeseries import (
    TimeSeriesFrame,
    resample,
    slice_by_sequence,
    write_csv,
)

__version__ = "0.1.0"
