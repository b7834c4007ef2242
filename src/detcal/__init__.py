"""Box-sensitive confidence calibration and D-ECE evaluation for object detectors."""

from .calibrators import (
    CalibrationModel,
    apply,
    fit,
    fit_hist_binning,
    fit_parametric,
    load_model,
    loglik_ratio,
    save_model,
)
from .detections import (
    BoxGeometry,
    Detection,
    DetectionTable,
    GroundTruthObject,
    GroundTruthTable,
    ImageRecord,
    load_dataset,
)
from .features import FeatureSet, build_feature_matrix, feature_set, labels
from .harness import ProtocolConfig, ResultsTable, render_table, run_protocol
from .matching import (
    MatchedSample,
    SampleColumns,
    columns,
    iou,
    match_detections,
    read_matched_samples,
    write_matched_samples,
)
from .metrics import BinningSpec, compute_d_ece, heatmap, reliability_curve
from .optimizer import FitReport, OptimizerConfig, check_gradient, minimize
from .synth import ScenarioSpec, builtin_scenarios, generate, make_scenario

__version__ = "0.1.0"

__all__ = [
    "BoxGeometry",
    "BinningSpec",
    "CalibrationModel",
    "Detection",
    "DetectionTable",
    "FeatureSet",
    "FitReport",
    "GroundTruthObject",
    "GroundTruthTable",
    "ImageRecord",
    "MatchedSample",
    "OptimizerConfig",
    "ProtocolConfig",
    "ResultsTable",
    "SampleColumns",
    "ScenarioSpec",
    "apply",
    "build_feature_matrix",
    "builtin_scenarios",
    "check_gradient",
    "columns",
    "compute_d_ece",
    "feature_set",
    "fit",
    "fit_hist_binning",
    "fit_parametric",
    "generate",
    "heatmap",
    "iou",
    "labels",
    "load_dataset",
    "load_model",
    "loglik_ratio",
    "make_scenario",
    "match_detections",
    "minimize",
    "read_matched_samples",
    "reliability_curve",
    "render_table",
    "run_protocol",
    "save_model",
    "write_matched_samples",
]
