"""Rainfall-driven debris-flow early warning.

Pipeline pieces: hourly rainfall series and EAR computation, event-window
dataset construction with lead-time labels, EAR-threshold alert baselines,
from-scratch forest/logistic/boosted classifiers, a PR/ROC evaluation suite
with circular block bootstrap intervals, exact Shapley attributions, and a
seeded synthetic corpus generator. The `debris-ews` CLI chains them end to end.
"""
from ._common import InputError
from .baselines import (
    ThresholdTable,
    WindowEar,
    compute_window_ear,
    etm_predict,
    etm_scores,
    hm_predict,
    hm_scores,
)
from .bootstrap import BootstrapCI, block_bootstrap_ci
from .dataset import (
    DatasetWindow,
    ExampleSet,
    FeatureSpec,
    LabelingConfig,
    WindowConfig,
    WindowKind,
    build_corpus_windows,
    build_examples,
    build_windows,
    compose_features,
    kfold_windows,
    label_hours,
    split_windows,
)
from .explain import (
    ShapAttribution,
    brute_shap,
    importance_ranking,
    subsample_background,
    tree_shap,
    tree_shap_batch,
)
from .forest import ForestModel, ForestParams, fit_forest
from .gbt import GbtModel, GbtParams, fit_gbt
from .linear import LinearModel, LogisticParams, fit_logistic
from .metrics import (
    ConfusionCounts,
    Curve,
    OperatingPoint,
    PointMetrics,
    auc,
    auprc,
    auroc,
    counts_at,
    event_capture,
    operating_points,
    point_metrics,
    pr_curve,
    roc_curve,
)
from .modelio import load_model, predict_proba, save_model
from .rainfall import (
    DailyWindowMode,
    EarTrace,
    MainEvent,
    RainSeries,
    ear_series,
    ear_trace,
    segment_events,
)
from .synth import SynthConfig, SynthCorpus, generate_corpus
from .trees import DecisionTree, TreeParams, fit_tree
from .tuning import GridResult, default_grid, grid_search_cv

__version__ = "0.1.0"
