"""Spring-tether force model: the columnar trial container plus the fit cost,
the tension constraints, and their analytic derivatives.

The stem is modeled as a linear spring of stiffness ``k`` and resting length
``l`` anchored at a fixed world-frame attachment point ``r_o``. With
``d_t = r_o - r_fruit(t)`` the predicted pull on the fruit is
``k * (|d_t| - l) * d_t / |d_t|``. The fit cost is the mean squared residual
between predicted and measured world-frame forces over a trial, and each
sample contributes one tension constraint ``l - |d_t| <= 0``.
"""

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import SingularityError, ValidationError
from .geometry import (
    Vec3,
    _quaternion_norms,
    _rotation_rows,
    finite_number,
    rotate_rows,
    rotation_matrices,
)

SINGULARITY_DISTANCE = 1e-12


class Label(Enum):
    SUCCESS = "success"
    FAILURE = "failure"


@dataclass(frozen=True)
class SpringParams:
    """Stiffness (N/m) and resting length (m) of the stem spring, each a
    positive finite number stored as a float."""

    k: float
    l: float

    def __post_init__(self):
        for name, what in (("k", "spring stiffness"), ("l", "spring resting length")):
            value = float(finite_number(what, getattr(self, name)))
            if not value > 0.0:
                raise ValueError(f"{what} must be positive and finite, got {value}")
            object.__setattr__(self, name, value)


COLUMN_WIDTHS = {"t": None, "translation": 3, "rotation_wxyz": 4, "force": 3, "torque": 3}
# Trials hold normalized quaternions; trial_io normalizes once at parse.
UNIT_QUATERNION_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class SampleColumns:
    """A trial's samples as read-only columns, one row per timestep.

    ``t`` (n,) in seconds; the sensor pose as ``translation`` (n, 3) in the
    world frame and ``rotation_wxyz`` (n, 4), a world-from-sensor unit
    quaternion; the sensor-frame wrench as ``force`` (n, 3) and
    ``torque`` (n, 3). Each column is copied to C-ordered float64, checked
    for its shape and for finite values in one whole-array pass, and made
    read-only on construction; a column that holds a NaN or an infinity is
    a ValueError naming its first bad ``samples[i]``. :class:`Trial` checks
    how the rows relate.
    """

    t: np.ndarray
    translation: np.ndarray
    rotation_wxyz: np.ndarray
    force: np.ndarray
    torque: np.ndarray

    def __post_init__(self):
        n = None
        for name, width in COLUMN_WIDTHS.items():
            column = np.array(getattr(self, name), dtype=float, order="C")
            if n is None:
                if column.ndim != 1:
                    raise ValueError(f"samples.t: expected shape (n,), got {column.shape}")
                n = column.size
            elif column.shape != (n, width):
                raise ValueError(
                    f"samples.{name}: expected shape {(n, width)}, got {column.shape}"
                )
            finite = np.isfinite(column)
            if not finite.all():
                i = int(np.argmin(finite)) // (width or 1)
                raise ValueError(f"samples[{i}]: {name} must be finite")
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    def __len__(self) -> int:
        return self.t.size

    def __reduce__(self):
        # rebuild through __post_init__: unpickled arrays come back writeable
        return (SampleColumns, tuple(getattr(self, name) for name in COLUMN_WIDTHS))


@dataclass(frozen=True)
class Trial:
    """A pull recording: sample columns, spring parameters, grasp geometry, labels.

    Construction checks the type of every field (a TypeError), then the
    columns, whose values :class:`SampleColumns` has checked: at least 2
    samples, strictly increasing ``t`` and unit quaternions (within
    ``UNIT_QUATERNION_TOL``). Each check is one whole-array pass; only a
    check that fails searches for the first bad ``samples[i]``, which its
    message names. A ``ground_truth`` must lie away from the first fruit
    position, ``apple_position_world``, whose rotation is the one formula
    (``geometry._rotation_rows``) behind every rotation matrix in the package.
    """

    samples: SampleColumns
    spring: SpringParams
    grasp_point: Vec3
    label: Label = Label.SUCCESS
    ground_truth: Vec3 | None = None
    id: str = ""

    def __post_init__(self):
        kinds = {
            "samples": SampleColumns,
            "spring": SpringParams,
            "grasp_point": Vec3,
            "label": Label,
            "id": str,
        }
        if self.ground_truth is not None:
            kinds["ground_truth"] = Vec3
        for name, kind in kinds.items():
            value = getattr(self, name)
            if not isinstance(value, kind):
                raise TypeError(f"Trial.{name} must be {kind.__name__}, got {type(value).__name__}")
        s = self.samples
        if len(s) < 2:
            raise ValueError(f"trial needs at least 2 samples, got {len(s)}")
        increasing = s.t[1:] > s.t[:-1]  # np.diff can overflow
        if not increasing.all():
            i = int(np.argmin(increasing)) + 1
            raise ValueError(
                f"samples[{i}]: timestamp {s.t[i]} not strictly greater "
                f"than previous {s.t[i - 1]}"
            )
        q = s.rotation_wxyz
        # an infinite norm (a finite entry beyond ~1e154) fails the check
        unit = np.abs(_quaternion_norms(q) - 1.0) <= UNIT_QUATERNION_TOL
        if not unit.all():
            i = int(np.argmin(unit))
            raise ValueError(
                f"samples[{i}]: rotation_wxyz {q[i].tolist()} is not a unit quaternion"
            )
        if self.ground_truth is not None:
            # an overflowing fruit position fails the check, not a warning
            with np.errstate(over="ignore", invalid="ignore"):
                try:
                    dist = (self.ground_truth - apple_position_world(self)).norm()
                except ValueError:
                    dist = math.inf
            if not (math.isfinite(dist) and dist > 0.0):
                raise ValueError(
                    "ground_truth must lie at a positive distance from the "
                    f"initial fruit position (got {dist})"
                )


class TrialArrays:
    """Per-trial arrays precomputed for fast repeated model evaluation.

    ``grasp_world`` holds the fruit positions implied by the poses and the
    constant sensor-frame grasp point; ``force_world`` holds the measured
    forces already rotated into the world frame. Both are (n, 3); the model
    kernels read their contiguous (3, n) copies ``grasp_columns`` and
    ``force_columns``, because numpy's reductions over a length-3 inner axis
    cost several times an elementwise pass over the columns.
    """

    def __init__(self, times, grasp_world, force_world, k, l):
        self.times = times
        self.grasp_world = grasp_world
        self.force_world = force_world
        self.grasp_columns = np.ascontiguousarray(grasp_world.T)
        self.force_columns = np.ascontiguousarray(force_world.T)
        self.k = float(k)
        self.l = float(l)

    @classmethod
    def from_trial(cls, trial: Trial) -> "TrialArrays":
        s = trial.samples
        rot = rotation_matrices(s.rotation_wxyz)
        # two stacked matrix-vector products keep each sample's bits; one
        # (n, 3, 2) matrix product for both would not
        grasp_world = rot @ trial.grasp_point.as_array() + s.translation
        force_world = rotate_rows(rot, s.force)
        return cls(s.t, grasp_world, force_world, trial.spring.k, trial.spring.l)

    def __len__(self) -> int:
        return self.times.size


# The kernels below compute on the (3, n) columns and keep the bits of the
# (n, 3) formulas in tests/conftest.py: a sum over one sample's three
# coordinates is written out left to right, the cost sums its squares laid
# out as (n, 3) rows (numpy's pairwise sum follows the memory layout), and
# the gradient and the Hessian add the samples one at a time with
# np.add.accumulate, as a sum over the rows did; a pairwise sum along the
# columns would not.
#
# Each kernel is a ``point_terms`` call plus pieces that read those terms, so
# a caller that keeps the terms of a point (the solver's model) computes each
# quantity only when it needs it.

# the Hessian's six unique entries (i, j), i <= j; the identity's value at
# each; and the (3, 3) matrix as indices into the six
_HESSIAN_ROWS = np.array([0, 0, 0, 1, 1, 2])
_HESSIAN_COLS = np.array([0, 1, 2, 1, 2, 2])
_HESSIAN_EYE = (_HESSIAN_ROWS == _HESSIAN_COLS).astype(float)[:, None]
_HESSIAN_INDEX = np.array([[0, 1, 2], [1, 3, 4], [2, 4, 5]])


class PointTerms(NamedTuple):
    """The per-sample terms of the model at one point: the distances
    ``|r_o - grasp|`` (n,), the unit columns of ``r_o - grasp`` (3, n) and
    the force residual columns (3, n), predicted minus measured."""

    dist: np.ndarray
    unit: np.ndarray
    resid: np.ndarray


def point_terms(r_o: np.ndarray, arrays: TrialArrays) -> PointTerms:
    """The model's per-sample terms at ``r_o``; a point within
    ``SINGULARITY_DISTANCE`` of a sample raises ``SingularityError``."""
    d = r_o[:, None] - arrays.grasp_columns
    xx, yy, zz = d * d
    dist = np.sqrt(xx + yy + zz)
    if dist.min() <= SINGULARITY_DISTANCE:
        idx = int(np.argmin(dist))
        raise SingularityError(
            f"candidate attachment point coincides with fruit position at "
            f"sample {idx} (distance {dist[idx]:.3e} m)"
        )
    unit = np.divide(d, dist, out=d)
    resid = (arrays.k * (dist - arrays.l)) * unit
    resid -= arrays.force_columns
    return PointTerms(dist, unit, resid)


def terms_cost(terms: PointTerms) -> float:
    """Mean squared force residual."""
    resid = terms.resid
    n = resid.shape[1]
    squares = np.empty((n, 3))
    np.multiply(resid, resid, out=squares.T)
    return float(np.add.reduce(squares, axis=None) / n)


def _spring_slopes(dist: np.ndarray, arrays: TrialArrays):
    """Per-sample ``a = k (1 - l/|d|)`` and ``b = k l / |d|``: the force
    Jacobian wrt ``r_o`` is ``a I + b u u^T``."""
    a = arrays.k * (1.0 - arrays.l / dist)
    b = arrays.k * arrays.l / dist
    return a, b


def _along(unit: np.ndarray, resid: np.ndarray) -> np.ndarray:
    """Each sample's residual component along its unit vector."""
    x, y, z = unit * resid
    return x + y + z


def terms_gradient(terms: PointTerms, arrays: TrialArrays) -> np.ndarray:
    """Analytic gradient of the cost: the transposed force Jacobian applied
    to each residual, averaged."""
    dist, unit, resid = terms
    a, b = _spring_slopes(dist, arrays)
    parts = a * resid + (b * _along(unit, resid)) * unit
    return (2.0 / dist.size) * np.add.accumulate(parts, axis=1, out=parts)[:, -1]


def terms_hessian(terms: PointTerms, arrays: TrialArrays) -> np.ndarray:
    """Exact Hessian of the cost (Gauss-Newton part plus residual
    curvature), its six unique entries computed as (6, n) rows."""
    dist, unit, resid = terms
    a, b = _spring_slopes(dist, arrays)
    dot = _along(unit, resid)
    perp = resid - dot * unit
    u_i, u_j = unit[_HESSIAN_ROWS], unit[_HESSIAN_COLS]
    uu = u_i * u_j
    eye = _HESSIAN_EYE
    jtj = (a * a) * eye + (2.0 * a * b + b * b) * uu
    pu = perp[_HESSIAN_ROWS] * u_j + perp[_HESSIAN_COLS] * u_i
    curv = (b / dist) * (pu + dot * (eye - uu))
    entries = np.add(jtj, curv, out=jtj)
    entries = (2.0 / dist.size) * np.add.accumulate(entries, axis=1, out=entries)[:, -1]
    return entries[_HESSIAN_INDEX]


def terms_constraint_values(terms: PointTerms, arrays: TrialArrays) -> np.ndarray:
    """Tension constraints ``l - |d_t|`` (feasible when <= 0)."""
    return arrays.l - terms.dist


def terms_constraint_jacobian(terms: PointTerms) -> np.ndarray:
    """The tension constraints' gradient rows (n, 3)."""
    return (-terms.unit).T


def cost_and_gradient(r_o: np.ndarray, arrays: TrialArrays) -> tuple[float, np.ndarray]:
    """Mean squared force residual and its analytic gradient at ``r_o``."""
    terms = point_terms(r_o, arrays)
    return terms_cost(terms), terms_gradient(terms, arrays)


def constraint_values_jacobian(
    r_o: np.ndarray, arrays: TrialArrays
) -> tuple[np.ndarray, np.ndarray]:
    """Tension constraints ``l - |d_t|`` (feasible when <= 0) and their rows."""
    terms = point_terms(r_o, arrays)
    return terms_constraint_values(terms, arrays), terms_constraint_jacobian(terms)


def apple_position_world(trial: Trial) -> Vec3:
    """World-frame fruit position at the first sample (grasp point is
    sensor-fixed). The first rotation is ``geometry._rotation_rows``' formula on
    the first quaternion's floats, the formula ``rotation_matrices`` stacks, so
    the position keeps the bits of the first row of ``TrialArrays.grasp_world``."""
    s = trial.samples
    rot = np.array(_rotation_rows(*s.rotation_wxyz[0].tolist()))
    return Vec3.from_array(rot @ trial.grasp_point.as_array() + s.translation[0])


def bias_compensate(trial: Trial) -> Trial:
    """Subtract the first sample's wrench from every sample.

    Makes the measured force exactly zero at the start of the pull, matching
    the model's zero force at rest; removes constant sensor offsets and the
    fruit's weight in one step.
    """
    s = trial.samples
    try:
        with np.errstate(over="ignore"):
            columns = replace(s, force=s.force - s.force[0], torque=s.torque - s.torque[0])
    except ValueError as exc:  # a difference of two finite values overflowed
        raise ValidationError(f"{trial.id}: bias compensation overflows: {exc}") from exc
    return replace(trial, samples=columns)
