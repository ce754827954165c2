"""Exception types shared across the package."""


class StemfitError(Exception):
    """Base class for all package-specific errors."""


class DegenerateInputError(StemfitError):
    """Geometric input is too close to a singular configuration."""


class SingularityError(StemfitError):
    """A candidate attachment point coincides with a fruit position sample."""


class EvaluationFailureError(StemfitError):
    """The solver could not produce a usable iterate."""


class SimulationConfigError(StemfitError):
    """Simulator configuration cannot produce a valid trial."""


class ParseError(StemfitError):
    """File contents could not be parsed."""


class ValidationError(StemfitError):
    """Parsed contents violate the trial, corpus, or report schema."""


class InsufficientSamplesError(StemfitError):
    """Not enough data points for the requested statistic."""


class UnknownPlotKindError(StemfitError):
    """Requested plot-data kind is not one of the supported kinds."""
