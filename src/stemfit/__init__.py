"""Stem attachment-point estimation from wrist force/torque pull recordings."""

from .errors import (
    DegenerateInputError,
    EvaluationFailureError,
    InsufficientSamplesError,
    ParseError,
    SimulationConfigError,
    SingularityError,
    StemfitError,
    UnknownPlotKindError,
    ValidationError,
)
from .geometry import UnitQuaternion, Vec3, angle_between
from .spring_model import (
    Label,
    ModelEval,
    SampleColumns,
    SpringParams,
    Trial,
    apple_position_world,
    bias_compensate,
    evaluate,
    predict_force,
)
from .solver import FitResult, SolverConfig, fit, initial_guess, minimize
from .simulator import SimConfig, SimTrialRecord, generate_corpus, generate_trial, sample_orientation
from .evaluation import (
    ClassComparison,
    SummaryStats,
    TrialMetrics,
    WelchResult,
    class_comparison,
    localization_error,
    orientation_error,
    summarize,
    welch_t_test,
)
from .trial_io import load_corpus, load_trial, save_corpus, save_trial
from .batch import emit_plot_data, load_report, run_batch, save_report

__version__ = "0.1.0"

__all__ = [
    "ClassComparison",
    "DegenerateInputError",
    "EvaluationFailureError",
    "FitResult",
    "InsufficientSamplesError",
    "Label",
    "ModelEval",
    "ParseError",
    "SampleColumns",
    "SimConfig",
    "SimTrialRecord",
    "SimulationConfigError",
    "SingularityError",
    "SolverConfig",
    "SpringParams",
    "StemfitError",
    "SummaryStats",
    "Trial",
    "TrialMetrics",
    "UnitQuaternion",
    "UnknownPlotKindError",
    "ValidationError",
    "Vec3",
    "WelchResult",
    "angle_between",
    "apple_position_world",
    "bias_compensate",
    "class_comparison",
    "emit_plot_data",
    "evaluate",
    "fit",
    "generate_corpus",
    "generate_trial",
    "initial_guess",
    "load_corpus",
    "load_report",
    "load_trial",
    "localization_error",
    "minimize",
    "orientation_error",
    "predict_force",
    "run_batch",
    "sample_orientation",
    "save_corpus",
    "save_report",
    "save_trial",
    "summarize",
    "welch_t_test",
]
