import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from stemfit.errors import SingularityError
from stemfit.geometry import UnitQuaternion, Vec3
from stemfit.simulator import SimConfig, generate_corpus, generate_trial
from stemfit.solver import fit
from stemfit.spring_model import (
    SpringParams,
    Trial,
    TrialArrays,
    apple_position_world,
    bias_compensate,
    cost_and_gradient,
    constraint_values_jacobian,
    point_terms,
)

from conftest import (
    assert_kernels_match_reference,
    columns,
    point_hessian,
    pose_point_reference,
    predict_force,
    pull_trial,
    random_unit_quaternion,
    rotation_matrix_reference,
    static_trial,
    wxyz,
)


def posed_trial(q, translation, grasp):
    """Two-sample trial whose first pose is ``(q, translation)``."""
    samples = columns(
        [0.0, 0.002],
        translation=[translation, translation],
        rotation_wxyz=[wxyz(q), wxyz(q)],
    )
    return Trial(samples, SpringParams(632.0, 0.1), grasp)


class TestApplePositionWorld:
    def test_identity_pose(self):
        trial = posed_trial(UnitQuaternion(1.0, 0.0, 0.0, 0.0), [0.0, 0.0, 0.0], Vec3(0.0, 0.0, 0.05))
        np.testing.assert_allclose(apple_position_world(trial).as_array(), [0.0, 0.0, 0.05])

    def test_translation_only(self):
        trial = posed_trial(UnitQuaternion(1.0, 0.0, 0.0, 0.0), [0.1, 0.0, 0.0], Vec3(0.0, 0.0, 0.0))
        np.testing.assert_allclose(apple_position_world(trial).as_array(), [0.1, 0.0, 0.0])

    def test_rotation_and_translation(self):
        q = UnitQuaternion(math.cos(math.pi / 4.0), 0.0, 0.0, math.sin(math.pi / 4.0))
        trial = posed_trial(q, [1.0, 0.0, 0.0], Vec3(0.05, 0.0, 0.0))
        np.testing.assert_allclose(
            apple_position_world(trial).as_array(), [1.0, 0.05, 0.0], atol=1e-12
        )


class TestTrialArrays:
    def test_stacked_arrays_equal_per_sample_reference(self):
        record = generate_trial(SimConfig(off_axis_angle_deg=30.0), np.random.default_rng(5), "a")
        trial = record.trial
        s = trial.samples
        # vary the pose per sample so every row takes its own rotation
        rng = np.random.default_rng(6)
        quats = np.array([wxyz(random_unit_quaternion(rng)) for _ in range(len(s))])
        trial = replace(trial, samples=replace(s, rotation_wxyz=quats), ground_truth=None)
        s = trial.samples
        arrays = TrialArrays.from_trial(trial)
        grasp = trial.grasp_point.as_array()
        for i in range(len(s)):
            q = s.rotation_wxyz[i]
            np.testing.assert_array_equal(
                arrays.grasp_world[i], pose_point_reference(q, s.translation[i], grasp)
            )
            np.testing.assert_array_equal(
                arrays.force_world[i], rotation_matrix_reference(q) @ s.force[i]
            )
        np.testing.assert_array_equal(arrays.times, s.t)
        assert len(arrays) == len(s)


# hold times (s) that give generated success trials of 2, 12 (the default
# pull speed), 226 and 2001 samples; failure trials, whose fruit drifts in
# the hand, run longer (7 to ~12,000 samples). The pull speed is
# force_cap / k / hold, so a rigid pull's noiseless force reaches the cap a
# quarter or half of a sample period after a sample row: a hold that is a
# whole number of periods would put the cap on a row, where a trial's length
# hangs on the last bit of its pose
HOLD_TIMES = {"n2": 0.0025, "n12": None, "n226": 0.4505, "n2000": 4.001}
SUCCESS_LENGTHS = {"n2": 2, "n12": 12, "n226": 226, "n2000": 2001}


class TestColumnarKernels:
    """The columnar kernels give the bits of the (n, 3) formulas."""

    @pytest.mark.parametrize("label", ["success", "failure"])
    @pytest.mark.parametrize("length", sorted(HOLD_TIMES))
    def test_generated_trials_match_reference(self, length, label):
        cfg = SimConfig(seed=11)
        if HOLD_TIMES[length] is not None:
            cfg = replace(cfg, pull_speed=cfg.force_cap / cfg.k / HOLD_TIMES[length])
        record = generate_corpus(cfg, 1, 1.0 if label == "failure" else 0.0)[0]
        trial = bias_compensate(record.trial)
        arrays = TrialArrays.from_trial(trial)
        if label == "success":
            assert len(arrays) == SUCCESS_LENGTHS[length]
        rng = np.random.default_rng(12)
        truth = trial.ground_truth.as_array()
        points = [truth] + [truth + rng.normal(scale=s, size=3) for s in (1e-4, 1e-2, 1.0)]
        for i in rng.choice(len(arrays), size=min(5, len(arrays)), replace=False):
            sample = arrays.grasp_world[i]
            points += [sample, sample + rng.normal(scale=1e-12, size=3)]
            points += [sample + rng.normal(scale=s, size=3) for s in (1e-9, 1e-6)]
        for x in points:
            assert_kernels_match_reference(x, arrays)

    def test_singularity_names_the_first_coincident_sample(self):
        translation = np.zeros((6, 3))
        translation[:, 2] = -0.01 * np.arange(6)
        translation[4] = translation[2]
        samples = columns(0.002 * np.arange(6), translation=translation)
        trial = Trial(samples, SpringParams(632.0, 0.1), Vec3(0, 0, 0))
        arrays = TrialArrays.from_trial(trial)
        x = translation[2].copy()
        for kernel in (point_terms, cost_and_gradient, constraint_values_jacobian, point_hessian):
            with pytest.raises(SingularityError, match="at sample 2 "):
                kernel(x, arrays)
        assert_kernels_match_reference(x, arrays)


class TestPredictForce:
    spring = SpringParams(632.0, 0.1)

    def test_zero_at_resting_length(self):
        f = predict_force(Vec3(0, 0, 0.1), Vec3(0, 0, 0), self.spring)
        np.testing.assert_allclose(f.as_array(), [0.0, 0.0, 0.0], atol=1e-12)

    def test_stretched(self):
        f = predict_force(Vec3(0, 0, 0.2), Vec3(0, 0, 0), self.spring)
        np.testing.assert_allclose(f.as_array(), [0.0, 0.0, 63.2], atol=1e-12)

    def test_compressed_pushes(self):
        f = predict_force(Vec3(0, 0, 0.05), Vec3(0, 0, 0), self.spring)
        np.testing.assert_allclose(f.as_array(), [0.0, 0.0, -632.0 * 0.05], atol=1e-12)

    def test_singularity_guard(self):
        with pytest.raises(SingularityError):
            predict_force(Vec3(0, 0, 0), Vec3(0, 0, 0), self.spring)

    def test_rotation_equivariance(self, rng):
        for _ in range(30):
            r_o = Vec3.from_array(rng.normal(size=3))
            r_a = Vec3.from_array(r_o.as_array() + rng.normal(scale=0.2, size=3))
            rot = random_unit_quaternion(rng).rotation_matrix()
            f = predict_force(r_o, r_a, self.spring).as_array()
            f_rot = predict_force(
                Vec3.from_array(rot @ r_o.as_array()),
                Vec3.from_array(rot @ r_a.as_array()),
                self.spring,
            ).as_array()
            np.testing.assert_allclose(f_rot, rot @ f, atol=1e-9)

    def test_magnitude_is_k_times_elongation(self, rng):
        for _ in range(30):
            r_o = Vec3.from_array(rng.normal(size=3))
            r_a = Vec3.from_array(r_o.as_array() + rng.normal(scale=0.3, size=3))
            d = (r_o - r_a).norm()
            f = predict_force(r_o, r_a, self.spring)
            assert abs(f.norm() - self.spring.k * abs(d - self.spring.l)) < 1e-9


class TestEvaluate:
    def test_zero_cost_at_truth_on_noiseless_trial(self):
        trial = pull_trial([0.5, -0.2, 0.8])
        cost, grad = cost_and_gradient(trial.ground_truth.as_array(), TrialArrays.from_trial(trial))
        assert cost < 1e-12
        assert np.linalg.norm(grad) < 1e-10

    def test_mse_definition(self):
        # residual of 1 N on each of two samples: mean squared norm is 1
        spring = SpringParams(632.0, 0.1)
        r_o = Vec3(0.0, 0.0, 0.1)
        forces = []
        for dz in (0.0, -0.001):
            r_a = Vec3(0.0, 0.0, dz)
            pred = predict_force(r_o, r_a, spring).as_array()
            forces.append(pred + np.array([0.0, 0.0, 1.0]))
        translation = [[0.0, 0.0, 0.0], [0.0, 0.0, -0.001]]
        samples = columns([0.0, 0.002], translation=translation, force=forces)
        trial = Trial(samples, spring, Vec3(0, 0, 0), id="mse")
        cost, _ = cost_and_gradient(r_o.as_array(), TrialArrays.from_trial(trial))
        assert abs(cost - 1.0) < 1e-12

    def test_constraint_fields(self):
        trial = pull_trial([0.0, 0.0, 0.5], n=5)
        arrays = TrialArrays.from_trial(trial)
        values, jac = constraint_values_jacobian(np.array([0.0, 0.0, 0.55]), arrays)
        assert len(values) == len(arrays)
        assert len(jac) == len(arrays)
        d0 = np.array([0.0, 0.0, 0.55]) - arrays.grasp_world[0]
        expected = arrays.l - np.linalg.norm(d0)
        assert abs(values[0] - expected) < 1e-12
        np.testing.assert_allclose(jac[0], -d0 / np.linalg.norm(d0), atol=1e-12)

    def test_cost_invariant_under_rigid_reexpression(self, rng):
        trial = pull_trial([0.4, 0.1, 0.7], n=12)
        candidate = Vec3(0.42, 0.08, 0.75)
        base, _ = cost_and_gradient(candidate.as_array(), TrialArrays.from_trial(trial))
        s = trial.samples
        for _ in range(10):
            g_rot = random_unit_quaternion(rng).rotation_matrix()
            g_shift = rng.normal(size=3)
            rotations = [
                Rotation.from_matrix(g_rot @ rotation_matrix_reference(q)).as_quat(
                    scalar_first=True
                )
                for q in s.rotation_wxyz
            ]
            moved_samples = replace(
                s, translation=s.translation @ g_rot.T + g_shift, rotation_wxyz=rotations
            )
            moved_trial = replace(trial, samples=moved_samples, ground_truth=None)
            moved_candidate = g_rot @ candidate.as_array() + g_shift
            moved, _ = cost_and_gradient(moved_candidate, TrialArrays.from_trial(moved_trial))
            assert abs(moved - base) < 1e-9


class TestDerivatives:
    @staticmethod
    def fd_gradient(x, arrays, step=1e-6):
        grad = np.zeros(3)
        for j in range(3):
            plus, minus = x.copy(), x.copy()
            plus[j] += step
            minus[j] -= step
            grad[j] = (
                cost_and_gradient(plus, arrays)[0] - cost_and_gradient(minus, arrays)[0]
            ) / (2.0 * step)
        return grad

    @staticmethod
    def fd_constraint_jacobian(x, arrays, step=1e-6):
        n = len(arrays)
        jac = np.zeros((n, 3))
        for j in range(3):
            plus, minus = x.copy(), x.copy()
            plus[j] += step
            minus[j] -= step
            vp = constraint_values_jacobian(plus, arrays)[0]
            vm = constraint_values_jacobian(minus, arrays)[0]
            jac[:, j] = (vp - vm) / (2.0 * step)
        return jac

    def test_gradient_matches_finite_differences(self, rng):
        trial = pull_trial([0.5, -0.3, 0.6], n=15)
        arrays = TrialArrays.from_trial(trial)
        checked = 0
        while checked < 20:
            x = trial.ground_truth.as_array() + rng.normal(scale=0.1, size=3)
            d = x[None, :] - arrays.grasp_world
            if np.linalg.norm(d, axis=1).min() < 1e-3:
                continue
            checked += 1
            analytic = cost_and_gradient(x, arrays)[1]
            numeric = self.fd_gradient(x, arrays)
            rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12)
            assert rel < 1e-5

    def test_constraint_jacobian_matches_finite_differences(self, rng):
        trial = pull_trial([0.2, 0.4, 0.5], n=10)
        arrays = TrialArrays.from_trial(trial)
        for _ in range(10):
            x = trial.ground_truth.as_array() + rng.normal(scale=0.1, size=3)
            if np.linalg.norm(x[None, :] - arrays.grasp_world, axis=1).min() < 1e-3:
                continue
            analytic = constraint_values_jacobian(x, arrays)[1]
            numeric = self.fd_constraint_jacobian(x, arrays)
            rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12)
            assert rel < 1e-5

    def test_hessian_matches_gradient_differences(self, rng):
        trial = pull_trial([0.3, 0.3, 0.4], n=10)
        arrays = TrialArrays.from_trial(trial)
        step = 1e-6
        for _ in range(10):
            x = trial.ground_truth.as_array() + rng.normal(scale=0.08, size=3)
            if np.linalg.norm(x[None, :] - arrays.grasp_world, axis=1).min() < 1e-3:
                continue
            analytic = point_hessian(x, arrays)
            numeric = np.zeros((3, 3))
            for j in range(3):
                plus, minus = x.copy(), x.copy()
                plus[j] += step
                minus[j] -= step
                numeric[:, j] = (
                    cost_and_gradient(plus, arrays)[1]
                    - cost_and_gradient(minus, arrays)[1]
                ) / (2.0 * step)
            rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12)
            assert rel < 1e-5


class TestBiasCompensate:
    def test_constant_wrench_zeros_out(self):
        trial = static_trial([[1.0, -2.0, 0.5]] * 4)
        out = bias_compensate(trial)
        np.testing.assert_allclose(out.samples.force, 0.0, atol=0.0)

    def test_two_sample_definition(self):
        trial = static_trial([[1.0, 0.0, 0.0], [3.0, 1.0, -1.0]])
        out = bias_compensate(trial)
        np.testing.assert_allclose(out.samples.force, [[0, 0, 0], [2, 1, -1]])

    def test_original_trial_untouched(self):
        trial = static_trial([[1.0, 0.0, 0.0], [3.0, 1.0, -1.0]])
        bias_compensate(trial)
        np.testing.assert_allclose(trial.samples.force[0], [1, 0, 0])

    def test_bias_recovery_matches_unbiased_fit(self, rng):
        cfg = replace(SimConfig(), noise_sigma=0.0)
        record = generate_trial(cfg, np.random.default_rng(99), "bias")
        clean = record.trial
        bias = np.array([0.0, 0.0, -1.5])
        biased = replace(clean, samples=replace(clean.samples, force=clean.samples.force + bias))
        fit_clean = fit(clean)
        fit_biased = fit(bias_compensate(biased))
        delta = (fit_clean.r_o_hat - fit_biased.r_o_hat).norm()
        assert delta < 1e-6


class TestTrialValidation:
    def test_needs_two_samples(self):
        with pytest.raises(ValueError, match="at least 2"):
            Trial(columns([0.0]), SpringParams(1.0, 1.0), Vec3(0, 0, 0))

    def test_timestamps_strictly_increasing(self):
        with pytest.raises(ValueError, match="samples\\[1\\]"):
            Trial(columns([0.0, 0.0]), SpringParams(1.0, 1.0), Vec3(0, 0, 0))

    def test_non_finite_value_names_the_sample(self):
        force = np.zeros((3, 3))
        force[2, 1] = np.inf
        with pytest.raises(ValueError, match="samples\\[2\\]: force"):
            Trial(columns([0.0, 1.0, 2.0], force=force), SpringParams(1.0, 1.0), Vec3(0, 0, 0))

    def test_quaternions_must_be_unit(self):
        rotations = [[1.0, 0.0, 0.0, 0.0], [1.0 + 1e-6, 0.0, 0.0, 0.0]]
        with pytest.raises(ValueError, match="samples\\[1\\].*unit quaternion"):
            Trial(
                columns([0.0, 1.0], rotation_wxyz=rotations),
                SpringParams(1.0, 1.0),
                Vec3(0, 0, 0),
            )

    def test_column_shapes_checked(self):
        with pytest.raises(ValueError, match="samples.force"):
            columns([0.0, 1.0], force=np.zeros((3, 3)))
        with pytest.raises(ValueError, match="samples.t"):
            columns(np.zeros((2, 1)))

    def test_samples_must_be_sample_columns(self):
        with pytest.raises(TypeError, match="^Trial.samples must be SampleColumns, got list$"):
            Trial([[0.0, 1.0]], SpringParams(1.0, 1.0), Vec3(0, 0, 0))

    def test_ground_truth_must_be_apart_from_start(self):
        with pytest.raises(ValueError, match="positive distance"):
            Trial(
                columns([0.0, 1.0]),
                SpringParams(1.0, 1.0),
                Vec3(0, 0, 0),
                ground_truth=Vec3(0, 0, 0),
            )

    def test_spring_params_positive(self):
        with pytest.raises(ValueError):
            SpringParams(0.0, 0.1)
        with pytest.raises(ValueError):
            SpringParams(632.0, -0.1)
        with pytest.raises(ValueError):
            SpringParams(math.inf, 0.1)
        with pytest.raises(ValueError):
            SpringParams(632.0, math.nan)
        with pytest.raises(ValueError, match="^spring stiffness must be a number, got True$"):
            SpringParams(True, 0.1)
        with pytest.raises(ValueError, match="^spring resting length must be a number, got '0.1'$"):
            SpringParams(632, "0.1")
        with pytest.raises(ValueError, match="^spring stiffness must be finite$"):
            SpringParams(10**400, 0.1)

    def test_spring_params_are_stored_as_floats(self):
        spring = SpringParams(632, 1)
        assert (spring.k, spring.l) == (632.0, 1.0)
        assert type(spring.k) is float and type(spring.l) is float

    @pytest.mark.parametrize(
        "field, value, kind",
        [
            ("spring", (632.0, 0.1), "SpringParams"),
            ("grasp_point", (0.0, 0.0, 0.05), "Vec3"),
            ("ground_truth", (0.5, 0.0, 0.4), "Vec3"),
            ("label", "success", "Label"),
            ("id", 5, "str"),
        ],
    )
    def test_fields_must_have_their_types(self, field, value, kind):
        trial = pull_trial([0.3, 0.0, 0.5], n=3)
        message = f"^Trial.{field} must be {kind}, got {type(value).__name__}$"
        with pytest.raises(TypeError, match=message):
            replace(trial, **{field: value})
