"""Vectors, quaternions and rotation matrices.

Conventions used throughout the package:

* quaternions are scalar-first ``(w, x, y, z)``,
* a pose carries the world-from-sensor rotation and the sensor origin
  expressed in the world frame, so ``p_world = R @ p_sensor + t``,
* angles returned to callers are degrees; internal math is radians.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError

DEGENERATE_NORM = 1e-12


def finite_number(name: str, value):
    """``value`` if it is a finite int or float (not a bool), else a
    ValueError naming ``name``; integers too large for a float count as
    non-finite."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:
        finite = False
    if not finite:
        raise ValueError(f"{name} must be finite")
    return value


@dataclass(frozen=True)
class Vec3:
    """Immutable 3-vector with finite components (SI units per context)."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        for name in ("x", "y", "z"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"Vec3.{name} must be finite, got {value!r}")
            object.__setattr__(self, name, value)

    @classmethod
    def from_array(cls, a) -> "Vec3":
        ax = np.asarray(a, dtype=float).reshape(3)
        return cls(float(ax[0]), float(ax[1]), float(ax[2]))

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)

    def norm(self) -> float:
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)

    def __add__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x - other.x, self.y - other.y, self.z - other.z)

    def __neg__(self) -> "Vec3":
        return Vec3(-self.x, -self.y, -self.z)

    def __mul__(self, scalar: float) -> "Vec3":
        return Vec3(self.x * scalar, self.y * scalar, self.z * scalar)

    __rmul__ = __mul__


@dataclass(frozen=True)
class UnitQuaternion:
    """Scalar-first unit quaternion; normalized on construction."""

    w: float
    x: float
    y: float
    z: float

    def __post_init__(self):
        w, x, y, z = (float(self.w), float(self.x), float(self.y), float(self.z))
        norm = math.sqrt(w * w + x * x + y * y + z * z)
        if not math.isfinite(norm) or norm < DEGENERATE_NORM:
            raise ValueError(f"quaternion norm {norm!r} too small to normalize")
        object.__setattr__(self, "w", w / norm)
        object.__setattr__(self, "x", x / norm)
        object.__setattr__(self, "y", y / norm)
        object.__setattr__(self, "z", z / norm)

    @classmethod
    def from_rotation_matrix(cls, matrix) -> "UnitQuaternion":
        m = np.asarray(matrix, dtype=float)
        trace = m[0, 0] + m[1, 1] + m[2, 2]
        if trace > 0.0:
            s = math.sqrt(trace + 1.0) * 2.0
            w = 0.25 * s
            x = (m[2, 1] - m[1, 2]) / s
            y = (m[0, 2] - m[2, 0]) / s
            z = (m[1, 0] - m[0, 1]) / s
        elif m[0, 0] >= m[1, 1] and m[0, 0] >= m[2, 2]:
            s = math.sqrt(1.0 + m[0, 0] - m[1, 1] - m[2, 2]) * 2.0
            w = (m[2, 1] - m[1, 2]) / s
            x = 0.25 * s
            y = (m[0, 1] + m[1, 0]) / s
            z = (m[0, 2] + m[2, 0]) / s
        elif m[1, 1] >= m[2, 2]:
            s = math.sqrt(1.0 + m[1, 1] - m[0, 0] - m[2, 2]) * 2.0
            w = (m[0, 2] - m[2, 0]) / s
            x = (m[0, 1] + m[1, 0]) / s
            y = 0.25 * s
            z = (m[1, 2] + m[2, 1]) / s
        else:
            s = math.sqrt(1.0 + m[2, 2] - m[0, 0] - m[1, 1]) * 2.0
            w = (m[1, 0] - m[0, 1]) / s
            x = (m[0, 2] + m[2, 0]) / s
            y = (m[1, 2] + m[2, 1]) / s
            z = 0.25 * s
        return cls(w, x, y, z)

    def rotation_matrix(self) -> np.ndarray:
        return rotation_matrices(np.array([[self.w, self.x, self.y, self.z]]))[0]


def rotation_matrices(wxyz: np.ndarray) -> np.ndarray:
    """Rotation matrices ``(n, 3, 3)`` of unit quaternions given as rows
    ``(n, 4)`` in scalar-first order; the rows are used as given."""
    w, x, y, z = np.asarray(wxyz, dtype=float).T
    rot = np.empty((w.size, 3, 3))
    rot[:, 0, 0] = 1.0 - 2.0 * (y * y + z * z)
    rot[:, 0, 1] = 2.0 * (x * y - w * z)
    rot[:, 0, 2] = 2.0 * (x * z + w * y)
    rot[:, 1, 0] = 2.0 * (x * y + w * z)
    rot[:, 1, 1] = 1.0 - 2.0 * (x * x + z * z)
    rot[:, 1, 2] = 2.0 * (y * z - w * x)
    rot[:, 2, 0] = 2.0 * (x * z - w * y)
    rot[:, 2, 1] = 2.0 * (y * z + w * x)
    rot[:, 2, 2] = 1.0 - 2.0 * (x * x + y * y)
    return rot


def rotate_rows(rot: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rotate each row of ``v`` ``(n, 3)`` by ``rot``, one ``(3, 3)`` matrix or
    a stack ``(n, 3, 3)``.

    Stacked matrix-vector products give each row the same bits as ``rot @ row``
    alone; a single matrix-matrix product such as ``v @ rot.T`` need not.
    """
    return (rot @ v[:, :, None])[:, :, 0]


def angle_between(r1: Vec3, r2: Vec3) -> float:
    """Angle between two vectors in degrees, covering [0, 180] continuously.

    Uses the two-argument arctangent of (cross-product norm, dot product) so
    obtuse angles are well defined instead of wrapping. Each vector is first
    scaled by a power of two that puts its largest component below 1 in
    magnitude, so the products cannot overflow. The scaling is exact, so the
    angle keeps the bits of the unscaled arithmetic wherever that stays
    finite and normal.
    """
    a = r1.as_array()
    b = r2.as_array()
    norm_a = math.hypot(*a)
    norm_b = math.hypot(*b)
    if norm_a < DEGENERATE_NORM or norm_b < DEGENERATE_NORM:
        raise DegenerateInputError(
            f"angle_between needs nonzero vectors (norms {norm_a:.3e}, {norm_b:.3e})"
        )
    a, b = (np.ldexp(v, -math.frexp(float(np.abs(v).max()))[1]) for v in (a, b))
    cross = float(np.linalg.norm(np.cross(a, b)))
    dot = float(np.dot(a, b))
    return math.degrees(math.atan2(cross, dot))
