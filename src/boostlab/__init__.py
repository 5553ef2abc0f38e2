"""boostlab: bias-aware adaptive sampling experiments.

Calibrated-confidence inverted sampling with temperature scheduling,
per-class bias metrics, and a small fully differentiable classifier to
run it all end to end.
"""

from .calibration import OdinConfig, calibrate_batch_full, perturb, ts_softmax
from .data import (
    Dataset,
    ParetoTailSpec,
    compute_feature_std,
    load_csv,
    make_blobs,
    pareto_resample,
    save_csv,
    train_test_split,
)
from .harness import (
    ExperimentConfig,
    RunRecord,
    evaluate_run,
    export_reports,
    run_evaluation,
    run_experiment,
    run_training,
)
from .metrics import (
    MetricsReport,
    OodPartition,
    PredictionLog,
    build_metrics_report,
    classification_metrics,
    mab,
    recategorize,
    sdb,
    sodc_per_class,
    sodc_total,
)
from .model import (
    ClassifierModel,
    forward,
    init_model,
    input_gradient,
    load_model,
    save_model,
    train_step,
)
from .sampler import (
    STRATEGIES,
    SamplerState,
    aggregate_class_scores,
    boost_probabilities,
    draw_batch,
    epoch_resample,
)
from .scheduler import TemperatureSchedule, temperature_at

__version__ = "0.1.0"

__all__ = [
    "ClassifierModel",
    "Dataset",
    "ExperimentConfig",
    "MetricsReport",
    "OdinConfig",
    "OodPartition",
    "ParetoTailSpec",
    "PredictionLog",
    "RunRecord",
    "STRATEGIES",
    "SamplerState",
    "TemperatureSchedule",
    "aggregate_class_scores",
    "boost_probabilities",
    "build_metrics_report",
    "calibrate_batch_full",
    "classification_metrics",
    "compute_feature_std",
    "draw_batch",
    "epoch_resample",
    "evaluate_run",
    "export_reports",
    "forward",
    "init_model",
    "input_gradient",
    "load_csv",
    "load_model",
    "mab",
    "make_blobs",
    "pareto_resample",
    "perturb",
    "recategorize",
    "run_evaluation",
    "run_experiment",
    "run_training",
    "save_csv",
    "save_model",
    "sdb",
    "sodc_per_class",
    "sodc_total",
    "temperature_at",
    "train_step",
    "train_test_split",
    "ts_softmax",
]
