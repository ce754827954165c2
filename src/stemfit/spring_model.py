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

import numpy as np

from .errors import SingularityError
from .geometry import Vec3, rotate_rows, rotation_matrices

SINGULARITY_DISTANCE = 1e-12


class Label(Enum):
    SUCCESS = "success"
    FAILURE = "failure"


@dataclass(frozen=True)
class SpringParams:
    """Stiffness (N/m) and resting length (m) of the stem spring."""

    k: float
    l: float

    def __post_init__(self):
        if not (0.0 < self.k < math.inf):
            raise ValueError(f"spring stiffness must be positive and finite, got {self.k}")
        if not (0.0 < self.l < math.inf):
            raise ValueError(f"spring resting length must be positive and finite, got {self.l}")


_COLUMN_WIDTHS = {"t": None, "translation": 3, "rotation_wxyz": 4, "force": 3, "torque": 3}
# Trials hold normalized quaternions; trial_io normalizes once at parse.
UNIT_QUATERNION_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class SampleColumns:
    """A trial's samples as read-only columns, one row per timestep.

    ``t`` (n,) in seconds; the sensor pose as ``translation`` (n, 3) in the
    world frame and ``rotation_wxyz`` (n, 4), a world-from-sensor unit
    quaternion; the sensor-frame wrench as ``force`` (n, 3) and
    ``torque`` (n, 3). Each column is copied to float64 and made read-only on
    construction; :class:`Trial` checks the values.
    """

    t: np.ndarray
    translation: np.ndarray
    rotation_wxyz: np.ndarray
    force: np.ndarray
    torque: np.ndarray

    def __post_init__(self):
        n = None
        for name, width in _COLUMN_WIDTHS.items():
            column = np.array(getattr(self, name), dtype=float)
            if n is None:
                if column.ndim != 1:
                    raise ValueError(f"samples.t: expected shape (n,), got {column.shape}")
                n = column.size
            elif column.shape != (n, width):
                raise ValueError(
                    f"samples.{name}: expected shape {(n, width)}, got {column.shape}"
                )
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    def __len__(self) -> int:
        return self.t.size

    def __reduce__(self):
        # rebuild through __post_init__: unpickled arrays come back writeable
        return (SampleColumns, tuple(getattr(self, name) for name in _COLUMN_WIDTHS))


@dataclass(frozen=True)
class Trial:
    """A pull recording: sample columns, spring parameters, grasp geometry, labels."""

    samples: SampleColumns
    spring: SpringParams
    grasp_point: Vec3
    label: Label = Label.SUCCESS
    ground_truth: Vec3 | None = None
    id: str = ""

    def __post_init__(self):
        s = self.samples
        if not isinstance(s, SampleColumns):
            raise TypeError(f"Trial.samples must be SampleColumns, got {type(s).__name__}")
        if len(s) < 2:
            raise ValueError(f"trial needs at least 2 samples, got {len(s)}")
        for name in _COLUMN_WIDTHS:
            column = getattr(s, name)
            finite = np.isfinite(column).reshape(len(s), -1).all(axis=1)
            if not finite.all():
                i = int(np.argmin(finite))
                raise ValueError(f"samples[{i}]: {name} must be finite")
        steps = np.flatnonzero(~(np.diff(s.t) > 0.0))
        if steps.size:
            i = int(steps[0]) + 1
            raise ValueError(
                f"samples[{i}]: timestamp {s.t[i]} not strictly greater "
                f"than previous {s.t[i - 1]}"
            )
        q = s.rotation_wxyz
        off_unit = ~(np.abs(np.sqrt(np.sum(q * q, axis=1)) - 1.0) <= UNIT_QUATERNION_TOL)
        if off_unit.any():
            i = int(np.argmax(off_unit))
            raise ValueError(
                f"samples[{i}]: rotation_wxyz {q[i].tolist()} is not a unit quaternion"
            )
        if self.ground_truth is not None:
            dist = (self.ground_truth - apple_position_world(self)).norm()
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
# the gradient adds the samples one at a time with np.add.accumulate, as a
# sum over the rows did; a pairwise sum along the columns would not.


def _distances(r_o: np.ndarray, arrays: TrialArrays):
    """Displacement columns ``r_o - grasp`` (3, n) and their lengths (n,)."""
    d = r_o[:, None] - arrays.grasp_columns
    dx, dy, dz = d
    return d, np.sqrt(dx * dx + dy * dy + dz * dz)


def _displacements(r_o: np.ndarray, arrays: TrialArrays):
    d, dist = _distances(r_o, arrays)
    if dist.min() <= SINGULARITY_DISTANCE:
        idx = int(np.argmin(dist))
        raise SingularityError(
            f"candidate attachment point coincides with fruit position at "
            f"sample {idx} (distance {dist[idx]:.3e} m)"
        )
    return d, dist


def cost_and_gradient(r_o: np.ndarray, arrays: TrialArrays) -> tuple[float, np.ndarray]:
    """Mean squared force residual and its analytic gradient at ``r_o``."""
    d, dist = _displacements(r_o, arrays)
    unit = d / dist
    ux, uy, uz = unit
    resid = (arrays.k * (dist - arrays.l)) * unit - arrays.force_columns
    rx, ry, rz = resid
    n = dist.size
    squares = np.empty((n, 3))
    np.multiply(resid, resid, out=squares.T)
    cost = float(np.sum(squares) / n)
    # Force Jacobian wrt r_o is k[(1 - l/|d|) I + (l/|d|) u u^T]; apply its
    # transpose to each residual and average.
    a = arrays.k * (1.0 - arrays.l / dist)
    b = arrays.k * arrays.l / dist
    dot = ux * rx + uy * ry + uz * rz
    terms = a * resid + (b * dot) * unit
    grad = (2.0 / n) * np.add.accumulate(terms, axis=1, out=terms)[:, -1]
    return cost, grad


def cost_hessian(r_o: np.ndarray, arrays: TrialArrays) -> np.ndarray:
    """Exact Hessian of the cost (Gauss-Newton part plus residual curvature)."""
    d, dist = _displacements(r_o, arrays)
    # only the polish asks for the Hessian, so it stays on (n, 3) rows
    d = np.ascontiguousarray(d.T)
    unit = d / dist[:, None]
    pred = (arrays.k * (dist - arrays.l))[:, None] * unit
    resid = pred - arrays.force_world
    n = dist.size
    a = arrays.k * (1.0 - arrays.l / dist)
    b = arrays.k * arrays.l / dist
    eye = np.eye(3)
    uu = np.einsum("ti,tj->tij", unit, unit)
    jtj = (a * a)[:, None, None] * eye[None] + (2.0 * a * b + b * b)[:, None, None] * uu
    dot = np.sum(unit * resid, axis=1)
    perp = resid - dot[:, None] * unit
    pu = np.einsum("ti,tj->tij", perp, unit)
    curv = (b / dist)[:, None, None] * (
        pu + pu.transpose(0, 2, 1) + dot[:, None, None] * (eye[None] - uu)
    )
    return (2.0 / n) * np.sum(jtj + curv, axis=0)


def constraint_values_jacobian(
    r_o: np.ndarray, arrays: TrialArrays
) -> tuple[np.ndarray, np.ndarray]:
    """Tension constraints ``l - |d_t|`` (feasible when <= 0) and their rows."""
    d, dist = _displacements(r_o, arrays)
    values = arrays.l - dist
    jac = (-d / dist).T
    return values, jac


def min_sample_distance(r_o: np.ndarray, arrays: TrialArrays) -> float:
    return float(_distances(r_o, arrays)[1].min())


def apple_position_world(trial: Trial) -> Vec3:
    """World-frame fruit position at the first sample (grasp point is sensor-fixed)."""
    s = trial.samples
    first = rotation_matrices(s.rotation_wxyz[:1]) @ trial.grasp_point.as_array()
    return Vec3.from_array(first[0] + s.translation[0])


def predict_force(r_o: Vec3, r_a_t: Vec3, spring: SpringParams) -> Vec3:
    """Spring force on the fruit for attachment ``r_o`` and fruit at ``r_a_t``.

    Evaluated as written even when ``|d| < l`` (a pushing force): the solver's
    tension constraint excludes that regime at the solution, but keeping the
    function smooth there keeps line searches well behaved.
    """
    d = r_o.as_array() - r_a_t.as_array()
    dist = float(np.linalg.norm(d))
    if dist <= SINGULARITY_DISTANCE:
        raise SingularityError(
            f"attachment point within {SINGULARITY_DISTANCE} m of the fruit position"
        )
    return Vec3.from_array(spring.k * (dist - spring.l) * d / dist)


def bias_compensate(trial: Trial) -> Trial:
    """Subtract the first sample's wrench from every sample.

    Makes the measured force exactly zero at the start of the pull, matching
    the model's zero force at rest; removes constant sensor offsets and the
    fruit's weight in one step.
    """
    s = trial.samples
    columns = replace(s, force=s.force - s.force[0], torque=s.torque - s.torque[0])
    return replace(trial, samples=columns)
