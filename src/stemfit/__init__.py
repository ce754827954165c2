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
    SampleColumns,
    SpringParams,
    Trial,
    apple_position_world,
    bias_compensate,
)
from .solver import FitResult, SolverConfig, fit
from .simulator import SimConfig, SimTrialRecord, generate_corpus, generate_trial, sample_orientation
from .evaluation import (
    SummaryStats,
    WelchResult,
    localization_error,
    orientation_error,
    summarize,
    welch_t_test,
)
from .trial_io import load_trial, save_corpus, save_trial
from .batch import emit_plot_data, load_report, run_batch, save_report

__version__ = "0.1.0"

__all__ = [
    "DegenerateInputError",
    "EvaluationFailureError",
    "FitResult",
    "InsufficientSamplesError",
    "Label",
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
    "UnitQuaternion",
    "UnknownPlotKindError",
    "ValidationError",
    "Vec3",
    "WelchResult",
    "angle_between",
    "apple_position_world",
    "bias_compensate",
    "emit_plot_data",
    "fit",
    "generate_corpus",
    "generate_trial",
    "load_report",
    "load_trial",
    "localization_error",
    "orientation_error",
    "run_batch",
    "sample_orientation",
    "save_corpus",
    "save_report",
    "save_trial",
    "summarize",
    "welch_t_test",
]
