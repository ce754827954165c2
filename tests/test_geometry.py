import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from stemfit.errors import DegenerateInputError
from stemfit.geometry import UnitQuaternion, Vec3, angle_between, cross3, rotation_matrices

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
        with pytest.raises(ValueError, match="^Vec3.x must be finite$"):
            Vec3(10**400, 0, 0)
        for bad in ("0.5", True, None):
            with pytest.raises(ValueError, match=f"^Vec3.y must be a number, got {bad!r}$"):
                Vec3(0.5, bad, 0)

    def test_arithmetic(self):
        v = Vec3(1.0, 2.0, 3.0) - Vec3(0.5, -1.0, 0.0)
        assert (v.x, v.y, v.z) == (0.5, 3.0, 3.0)
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

    @pytest.mark.parametrize(
        "bad", ["1", True, math.nan, math.inf, 10**400], ids=["str", "bool", "nan", "inf", "huge_int"]
    )
    def test_rejects_a_component_that_is_not_a_finite_number(self, bad):
        with pytest.raises(ValueError, match="^UnitQuaternion.w must be "):
            UnitQuaternion(bad, 0, 0, 0)

    def test_rotation_matrix_matches_reference(self, rng):
        for _ in range(50):
            q = random_unit_quaternion(rng)
            np.testing.assert_allclose(
                q.rotation_matrix(), scipy_rotation(q).as_matrix(), atol=1e-12
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
            assert abs(angle_between(v, Vec3.from_array(-v.as_array())) - 180.0) < 1e-9

    def test_symmetric_and_scale_invariant(self, rng):
        for _ in range(50):
            a = Vec3.from_array(rng.normal(size=3))
            b = Vec3.from_array(rng.normal(size=3))
            s = float(rng.uniform(0.1, 50.0))
            assert abs(angle_between(a, b) - angle_between(b, a)) < 1e-9
            scaled_a = Vec3.from_array(s * a.as_array())
            scaled_b = Vec3.from_array(s * b.as_array())
            assert abs(angle_between(a, b) - angle_between(scaled_a, b)) < 1e-9
            assert abs(angle_between(a, b) - angle_between(a, scaled_b)) < 1e-9

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

    @settings(max_examples=500, deadline=None)
    @given(
        st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6),
        st.lists(
            st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308])
            | st.floats(-1.0, 1.0),
            min_size=6,
            max_size=6,
        ),
        # below 2**-40 a vector of three components in [-1, 1] is shorter than
        # the 1e-12 the assume below asks for, so such exponents are not drawn
        st.integers(-40, 1000),
        st.integers(-40, 1000),
    )
    def test_keeps_the_bits_of_the_numpy_cross_product(self, components, small, exp_a, exp_b):
        # exponents that reach past the square root of the largest float take
        # the power-of-two scaling that keeps the products finite
        a = np.ldexp(np.array(components[:3]), exp_a)
        b = np.ldexp(np.array(components[3:]), exp_b)
        a_scaled, b_scaled = (np.ldexp(v, -math.frexp(float(np.abs(v).max()))[1]) for v in (a, b))
        # cross3 is np.cross bit for bit, signed zeros and subnormals included
        for x, y in ((a_scaled, b_scaled), (np.array(small[:3]), np.array(small[3:]))):
            np.testing.assert_array_equal(
                cross3(x, y).view(np.uint64), np.cross(x, y).view(np.uint64)
            )
        assume(math.hypot(*a) >= 1e-12 and math.hypot(*b) >= 1e-12)
        cross = float(np.linalg.norm(np.cross(a_scaled, b_scaled)))
        want = math.degrees(math.atan2(cross, float(np.dot(a_scaled, b_scaled))))
        assert angle_between(Vec3(*a), Vec3(*b)) == want

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(DegenerateInputError):
            angle_between(Vec3(0.0, 0.0, 0.0), Vec3(1.0, 0.0, 0.0))
        with pytest.raises(DegenerateInputError):
            angle_between(Vec3(1.0, 0.0, 0.0), Vec3(1e-13, 0.0, 0.0))
