import math

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from stemfit.errors import DegenerateInputError
from stemfit.geometry import UnitQuaternion, Vec3, angle_between, rotation_matrices

from conftest import (
    pose_point_reference,
    random_unit_quaternion,
    rotation_matrix_reference,
    wrench_to_world_reference,
    wxyz,
)

IDENTITY = [1.0, 0.0, 0.0, 0.0]


def scipy_rotation(q: UnitQuaternion) -> Rotation:
    # scipy uses scalar-last ordering
    return Rotation.from_quat([q.x, q.y, q.z, q.w])


class TestVec3:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Vec3(1.0, float("nan"), 0.0)
        with pytest.raises(ValueError):
            Vec3(float("inf"), 0.0, 0.0)

    def test_arithmetic(self):
        v = Vec3(1.0, 2.0, 3.0) + Vec3(0.5, -1.0, 0.0)
        assert (v.x, v.y, v.z) == (1.5, 1.0, 3.0)
        assert (2.0 * Vec3(1.0, 0.0, -1.0)).z == -2.0
        assert Vec3(3.0, 4.0, 0.0).norm() == 5.0


class TestUnitQuaternion:
    def test_normalized_on_construction(self, rng):
        for _ in range(20):
            q = rng.normal(size=4) * 3.0
            quat = UnitQuaternion(*q)
            norm = math.sqrt(quat.w**2 + quat.x**2 + quat.y**2 + quat.z**2)
            assert abs(norm - 1.0) < 1e-9

    def test_zero_norm_rejected(self):
        with pytest.raises(ValueError):
            UnitQuaternion(0.0, 0.0, 0.0, 0.0)

    def test_rotation_matrix_matches_reference(self, rng):
        for _ in range(50):
            q = random_unit_quaternion(rng)
            np.testing.assert_allclose(
                q.rotation_matrix(), scipy_rotation(q).as_matrix(), atol=1e-12
            )

    def test_matrix_round_trip(self, rng):
        for _ in range(50):
            q = random_unit_quaternion(rng)
            back = UnitQuaternion.from_rotation_matrix(q.rotation_matrix())
            np.testing.assert_allclose(
                back.rotation_matrix(), q.rotation_matrix(), atol=1e-9
            )

    def test_rotation_matrices_equal_per_quaternion_reference(self, rng):
        rows = np.array([wxyz(random_unit_quaternion(rng)) for _ in range(200)])
        stacked = rotation_matrices(rows)
        for row, matrix in zip(rows, stacked):
            np.testing.assert_array_equal(matrix, rotation_matrix_reference(row))


class TestTransformPoint:
    """The per-sample pose mapping that tests use as a reference."""

    def test_identity(self):
        p = pose_point_reference(IDENTITY, [0.0, 0.0, 0.0], [1.0, 2.0, 3.0])
        assert p.tolist() == [1.0, 2.0, 3.0]

    def test_pure_translation(self):
        p = pose_point_reference(IDENTITY, [0.0, 0.0, 0.5], [0.0, 0.0, 0.0])
        assert p.tolist() == [0.0, 0.0, 0.5]

    def test_quarter_turn_about_z(self):
        q = UnitQuaternion(math.cos(math.pi / 4.0), 0.0, 0.0, math.sin(math.pi / 4.0))
        p = pose_point_reference(wxyz(q), [0.0, 0.0, 0.0], [1.0, 0.0, 0.0])
        expected = Rotation.from_euler("z", 90, degrees=True).apply([1.0, 0.0, 0.0])
        np.testing.assert_allclose(p, expected, atol=1e-12)
        np.testing.assert_allclose(p, [0.0, 1.0, 0.0], atol=1e-12)


class TestAdjointWrench:
    """The per-sample wrench mapping that tests use as a reference."""

    def test_identity_changes_only_the_frame(self):
        force, torque = [1.0, -2.0, 3.0], [0.1, 0.2, -0.3]
        force_w, torque_w = wrench_to_world_reference(IDENTITY, [0.0, 0.0, 0.0], force, torque)
        np.testing.assert_allclose(force_w, force)
        np.testing.assert_allclose(torque_w, torque)

    def test_translation_adds_moment_arm(self):
        force_w, torque_w = wrench_to_world_reference(
            IDENTITY, [1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]
        )
        expected = np.cross([1.0, 0.0, 0.0], [0.0, 0.0, 1.0])
        np.testing.assert_allclose(force_w, [0.0, 0.0, 1.0])
        np.testing.assert_allclose(torque_w, expected)
        np.testing.assert_allclose(torque_w, [0.0, -1.0, 0.0])

    def test_rotation_maps_force(self):
        q = UnitQuaternion(math.cos(math.pi / 4.0), 0.0, 0.0, math.sin(math.pi / 4.0))
        force_w, torque_w = wrench_to_world_reference(
            wxyz(q), [0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]
        )
        expected = Rotation.from_euler("z", 90, degrees=True).apply([1.0, 0.0, 0.0])
        np.testing.assert_allclose(force_w, expected, atol=1e-12)
        np.testing.assert_allclose(torque_w, [0.0, 0.0, 0.0], atol=1e-12)

    def test_force_magnitude_preserved(self, rng):
        for _ in range(50):
            q = random_unit_quaternion(rng)
            force = rng.normal(size=3)
            force_w, _ = wrench_to_world_reference(
                wxyz(q), rng.normal(size=3), force, rng.normal(size=3)
            )
            assert abs(np.linalg.norm(force_w) - np.linalg.norm(force)) < 1e-9


class TestAngleBetween:
    def test_identical_vectors(self):
        assert angle_between(Vec3(1.0, 0.0, 0.0), Vec3(1.0, 0.0, 0.0)) == 0.0

    def test_orthogonal_vectors(self):
        assert angle_between(Vec3(1.0, 0.0, 0.0), Vec3(0.0, 1.0, 0.0)) == 90.0

    def test_45_degrees(self):
        oracle = math.degrees(math.acos(1.0 / math.sqrt(2.0)))
        got = angle_between(Vec3(1.0, 0.0, 0.0), Vec3(1.0, 1.0, 0.0))
        assert abs(got - oracle) < 1e-12
        assert abs(got - 45.0) < 1e-12

    def test_opposite_vectors(self, rng):
        for _ in range(20):
            v = Vec3.from_array(rng.normal(size=3))
            assert abs(angle_between(v, -v) - 180.0) < 1e-9

    def test_symmetric_and_scale_invariant(self, rng):
        for _ in range(50):
            a = Vec3.from_array(rng.normal(size=3))
            b = Vec3.from_array(rng.normal(size=3))
            s = float(rng.uniform(0.1, 50.0))
            assert abs(angle_between(a, b) - angle_between(b, a)) < 1e-9
            assert abs(angle_between(a, b) - angle_between(s * a, b)) < 1e-9
            assert abs(angle_between(a, b) - angle_between(a, s * b)) < 1e-9

    def test_long_vectors_do_not_overflow(self):
        # unscaled, the cross product's norm squares 1e200 and overflows
        assert angle_between(Vec3(1e100, 0.0, 0.0), Vec3(1e100, 1e100, 0.0)) == 45.0
        assert angle_between(Vec3(1e300, 0.0, 0.0), Vec3(-1e300, 0.0, 1e-300)) == 180.0

    def test_scaling_keeps_the_bits_of_the_unscaled_formula(self, rng):
        for _ in range(1000):
            a, b = (rng.normal(size=3) * 10.0 ** rng.uniform(-6.0, 6.0) for _ in range(2))
            unscaled = math.degrees(
                math.atan2(float(np.linalg.norm(np.cross(a, b))), float(np.dot(a, b)))
            )
            assert angle_between(Vec3(*a), Vec3(*b)) == unscaled

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(DegenerateInputError):
            angle_between(Vec3(0.0, 0.0, 0.0), Vec3(1.0, 0.0, 0.0))
        with pytest.raises(DegenerateInputError):
            angle_between(Vec3(1.0, 0.0, 0.0), Vec3(1e-13, 0.0, 0.0))
