"""Per-trial accuracy metrics, summary statistics, and Welch's t-test."""

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import InsufficientSamplesError
from .geometry import Vec3, angle_between


@dataclass(frozen=True)
class SummaryStats:
    """Median, interquartile range, mean, and sample standard deviation."""

    median: float
    iqr: float
    mean: float
    std: float

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class WelchResult:
    t_statistic: float
    p_value: float
    degrees_of_freedom: float


def localization_error(r_hat: Vec3, r_true: Vec3) -> float:
    """Euclidean distance between estimated and true attachment points (m)."""
    return (r_hat - r_true).norm()


def orientation_error(r_hat: Vec3, r_true: Vec3, r_a0: Vec3) -> float:
    """Angle (degrees) between the fruit-to-estimate and fruit-to-truth rays,
    both anchored at the initial fruit position."""
    return angle_between(r_true - r_a0, r_hat - r_a0)


def _exponent(*samples) -> int:
    """Binary exponent of the largest magnitude in the samples.

    The statistics are computed on the samples divided by ``2**exponent``,
    which puts every value below 1 in magnitude, so squares and sums of
    squares cannot overflow (nor, for Welch, underflow). Scaling by a power
    of two is exact, so a statistic keeps its bits wherever the unscaled
    arithmetic stays finite and normal.
    """
    return math.frexp(max(float(np.abs(s).max()) for s in samples))[1]


def summarize(values) -> SummaryStats:
    """Summary statistics: interpolated quartiles for the IQR, sample (n-1)
    standard deviation. A single value yields zero spread."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError("summarize requires at least one value")
    exponent = _exponent(arr)
    arr = np.ldexp(arr, -exponent)
    q1, q3 = np.quantile(arr, [0.25, 0.75])
    std = arr.std(ddof=1) if arr.size > 1 else 0.0
    median, iqr, mean, std = np.ldexp([np.median(arr), q3 - q1, arr.mean(), std], exponent)
    return SummaryStats(median=float(median), iqr=float(iqr), mean=float(mean), std=float(std))


def welch_t_test(sample_a, sample_b) -> WelchResult:
    """Welch's unequal-variance two-sample t-test, two-sided.

    Degrees of freedom follow Welch-Satterthwaite; the p-value comes from the
    Student t CDF. Zero pooled variance degenerates to t=0, p=1 for equal
    means and an infinite statistic otherwise. Both samples are scaled by
    one power of two (``_exponent``), which leaves every result unchanged.
    """
    a = np.asarray(list(sample_a), dtype=float)
    b = np.asarray(list(sample_b), dtype=float)
    if a.size < 2 or b.size < 2:
        raise InsufficientSamplesError(
            f"welch_t_test needs >= 2 values per sample, got {a.size} and {b.size}"
        )
    exponent = _exponent(a, b)
    a, b = np.ldexp(a, -exponent), np.ldexp(b, -exponent)
    mean_diff = float(a.mean() - b.mean())
    va = float(a.var(ddof=1)) / a.size
    vb = float(b.var(ddof=1)) / b.size
    se2 = va + vb
    if se2 == 0.0:
        if mean_diff == 0.0:
            return WelchResult(0.0, 1.0, float(a.size + b.size - 2))
        return WelchResult(
            math.copysign(math.inf, mean_diff), 0.0, float(a.size + b.size - 2)
        )
    t = mean_diff / math.sqrt(se2)
    df = se2 * se2 / (va * va / (a.size - 1) + vb * vb / (b.size - 1))
    from scipy import special  # here, so that importing stemfit does not load scipy

    p = 2.0 * float(special.stdtr(df, -abs(t)))
    return WelchResult(float(t), min(p, 1.0), float(df))

