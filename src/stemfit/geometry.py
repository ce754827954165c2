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


def finite_numbers(name: str, values, shape: tuple) -> tuple:
    """``values``, nested lists or tuples of ``shape``, as nested tuples of
    entries that each pass ``finite_number`` and are kept as given; an
    ndarray at any level is read through ``.tolist()``, so its entries meet
    the same rule. Wrong nesting or length is a ValueError naming ``name``."""

    def read(node, dims):
        if isinstance(node, np.ndarray):
            node = node.tolist()
        if not dims:
            return finite_number(name, node)
        if not (isinstance(node, (list, tuple)) and len(node) == dims[0]):
            size = "x".join(map(str, shape))
            what = f"an array of {size} numbers" if len(shape) == 1 else f"a {size} matrix"
            raise ValueError(f"{name} must be {what}")
        return tuple(read(entry, dims[1:]) for entry in node)

    return read(values, shape)


@dataclass(frozen=True)
class Vec3:
    """Immutable 3-vector with finite components (SI units per context)."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        for name in ("x", "y", "z"):
            value = finite_number(f"Vec3.{name}", getattr(self, name))
            object.__setattr__(self, name, float(value))

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
        w, x, y, z = (
            float(finite_number(f"UnitQuaternion.{name}", getattr(self, name))) for name in "wxyz"
        )
        norm = math.sqrt(w * w + x * x + y * y + z * z)
        if not math.isfinite(norm) or norm < DEGENERATE_NORM:
            raise ValueError(f"quaternion norm {norm!r} too small to normalize")
        object.__setattr__(self, "w", w / norm)
        object.__setattr__(self, "x", x / norm)
        object.__setattr__(self, "y", y / norm)
        object.__setattr__(self, "z", z / norm)

    def rotation_matrix(self) -> np.ndarray:
        """The (3, 3) rotation matrix, by ``rotation_matrices``' formula."""
        return np.array(_rotation_rows(self.w, self.x, self.y, self.z))


def _rotation_rows(w, x, y, z):
    """The rotation matrix of the quaternion ``(w, x, y, z)``, used as given,
    as three rows of three entries. The one formula behind every rotation
    matrix in the package: the entries are floats for float arguments and
    arrays for array arguments, with the same bits either way."""
    return (
        (1.0 - 2.0 * (y * y + z * z), 2.0 * (x * y - w * z), 2.0 * (x * z + w * y)),
        (2.0 * (x * y + w * z), 1.0 - 2.0 * (x * x + z * z), 2.0 * (y * z - w * x)),
        (2.0 * (x * z - w * y), 2.0 * (y * z + w * x), 1.0 - 2.0 * (x * x + y * y)),
    )


def rotation_matrices(wxyz: np.ndarray) -> np.ndarray:
    """Rotation matrices ``(n, 3, 3)`` of unit quaternions given as rows
    ``(n, 4)`` in scalar-first order; the rows are used as given. Each entry
    is ``_rotation_rows``' formula, the one that ``UnitQuaternion.rotation_matrix``
    and ``spring_model.apple_position_world`` evaluate on one quaternion's
    floats, so a matrix keeps its bits whichever of them builds it."""
    w, x, y, z = np.asarray(wxyz, dtype=float).T
    rot = np.empty((w.size, 3, 3))
    for i, row in enumerate(_rotation_rows(w, x, y, z)):
        for j, entry in enumerate(row):
            rot[:, i, j] = entry
    return rot


def _quaternion_norms(wxyz: np.ndarray) -> np.ndarray:
    """The norms ``sqrt(w*w + x*x + y*y + z*z)`` of quaternion rows ``(n, 4)``,
    summed left to right as ``np.sum(q * q, axis=1)`` sums each row, but in
    elementwise passes over the columns. A finite entry beyond ~1e154 gives
    an infinite norm, without a warning."""
    with np.errstate(over="ignore"):
        ww, xx, yy, zz = (wxyz * wxyz).T
        return np.sqrt(ww + xx + yy + zz)


def rotate_rows(rot: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rotate each row of ``v`` ``(n, 3)`` by ``rot``, one ``(3, 3)`` matrix or
    a stack ``(n, 3, 3)``.

    Stacked matrix-vector products give each row the same bits as ``rot @ row``
    alone; a single matrix-matrix product such as ``v @ rot.T`` need not.
    """
    return (rot @ v[:, :, None])[:, :, 0]


def cross3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The cross product of two 3-vectors with the bits of ``np.cross``: the
    same products and differences, component by component, without the
    axis handling that ``np.cross`` pays for on every call."""
    a1, a2, a3 = a.tolist()
    b1, b2, b3 = b.tolist()
    return np.array((a2 * b3 - a3 * b2, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1))


def angle_between(r1: Vec3, r2: Vec3) -> float:
    """Angle between two vectors in degrees, covering [0, 180] continuously.

    Uses the two-argument arctangent of (cross-product norm, dot product) so
    obtuse angles are well defined instead of wrapping. Each vector is first
    scaled by a power of two that puts its largest component below 1 in
    magnitude, so the products cannot overflow. The scaling is exact, so the
    angle keeps the bits of the unscaled arithmetic wherever that stays
    finite and normal. The cross product is ``cross3``'s.
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
    cross = cross3(a, b)
    # np.linalg.norm's own arithmetic, without its call overhead
    return math.degrees(math.atan2(math.sqrt(cross.dot(cross)), float(a.dot(b))))
