import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from stemfit import solver, spring_model
from stemfit.errors import EvaluationFailureError
from stemfit.geometry import Vec3
from stemfit.simulator import SimConfig, generate_corpus, generate_trial
from stemfit.solver import (
    KKT_GRADIENT_TOL,
    MAX_ITERATIONS_PER_RUN,
    MAX_RESTARTS,
    SolverConfig,
    fit,
)
from stemfit.spring_model import (
    SpringParams,
    Trial,
    TrialArrays,
    bias_compensate,
    constraint_values_jacobian,
)

from conftest import columns, pose_point_reference, pull_trial, static_trial


def noiseless_config(**overrides):
    return replace(SimConfig(), noise_sigma=0.0, **overrides)


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.mse_target == 5.0
        assert cfg.max_restarts == 5
        assert cfg.max_iterations_per_run == 300

    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(max_restarts=-1)
        with pytest.raises(ValueError):
            SolverConfig(mse_target=0.0)
        with pytest.raises(ValueError):
            SolverConfig(max_iterations_per_run=0)

    def test_count_limits(self):
        SolverConfig(max_restarts=MAX_RESTARTS, max_iterations_per_run=MAX_ITERATIONS_PER_RUN)
        with pytest.raises(ValueError, match="max_restarts"):
            SolverConfig(max_restarts=MAX_RESTARTS + 1)
        with pytest.raises(ValueError, match="max_iterations_per_run"):
            SolverConfig(max_iterations_per_run=MAX_ITERATIONS_PER_RUN + 1)

    def test_dict_round_trip(self):
        cfg = SolverConfig(mse_target=2.0, max_restarts=3)
        assert SolverConfig.from_dict(cfg.to_dict()) == cfg
        with pytest.raises(ValueError):
            SolverConfig.from_dict({"bogus": 1})


def initial_guess(trial: Trial) -> np.ndarray:
    return solver._initial_guess_array(TrialArrays.from_trial(trial))


def one_run(trial: Trial, x0: np.ndarray):
    """One run of the solver from ``x0``, as ``fit`` starts each run."""
    model = solver._Model(TrialArrays.from_trial(trial))
    with np.errstate(over="ignore", invalid="ignore"):
        return solver._minimize_arrays(model, np.asarray(x0, dtype=float), SolverConfig(), False, 0)


class TestInitialGuess:
    def test_forces_along_z(self):
        trial = static_trial([[0.0, 0.0, 1.0], [0.0, 0.0, 2.0]])
        guess = initial_guess(trial)
        np.testing.assert_allclose(guess, [0.0, 0.0, 0.1], atol=1e-12)

    def test_zero_force_fallback_is_z(self):
        trial = static_trial([[0.0, 0.0, 0.0]] * 3)
        guess = initial_guess(trial)
        np.testing.assert_allclose(guess, [0.0, 0.0, 0.1], atol=1e-15)

    def test_diagonal_forces_and_offset(self):
        trial = static_trial(
            [[1.0, 1.0, 0.0], [2.0, 2.0, 0.0]],
            spring=SpringParams(632.0, 0.2),
            grasp=Vec3(1.0, 0.0, 0.0),
        )
        guess = initial_guess(trial)
        expected = np.array([1.0, 0.0, 0.0]) + 0.2 * np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)
        np.testing.assert_allclose(guess, expected, atol=1e-12)

    def test_guess_sits_on_first_constraint_boundary(self):
        record = generate_trial(noiseless_config(), np.random.default_rng(3), "g")
        trial = record.trial
        guess = initial_guess(trial)
        s = trial.samples
        grasp = trial.grasp_point.as_array()
        r_a0 = pose_point_reference(s.rotation_wxyz[0], s.translation[0], grasp)
        assert abs(np.linalg.norm(guess - r_a0) - trial.spring.l) < 1e-12


class TestMinimize:
    def test_start_at_optimum_converges_immediately(self):
        trial = pull_trial([0.4, 0.0, 0.6], n=12)
        result = one_run(trial, trial.ground_truth.as_array())
        assert result.converged
        assert result.iterations <= 2
        assert np.linalg.norm(result.iterate.x - trial.ground_truth.as_array()) < 1e-9

    def test_infeasible_start_recovers(self):
        trial = pull_trial([0.4, 0.0, 0.6], n=12)
        inside = np.array([0.4, 0.0, 0.55])  # within resting length of the fruit path
        result = one_run(trial, inside)
        assert result.converged
        assert result.iterate.viol <= 1e-8
        assert np.linalg.norm(result.iterate.x - trial.ground_truth.as_array()) < 1e-6

    def test_singular_start_raises(self):
        trial = pull_trial([0.4, 0.0, 0.6], n=12)
        s = trial.samples
        grasp = trial.grasp_point.as_array()
        fruit0 = pose_point_reference(s.rotation_wxyz[0], s.translation[0], grasp)
        with pytest.raises(EvaluationFailureError, match="starting point coincides"):
            one_run(trial, fruit0)

    def test_singular_sqp_point_is_skipped(self, monkeypatch):
        trial = pull_trial([0.4, 0.0, 0.6], n=12)
        fruit0 = TrialArrays.from_trial(trial).grasp_world[0].copy()
        start = np.array([0.4, 0.0, 0.55])
        monkeypatch.setattr(
            solver, "_scipy_minimize", lambda *args, **kwargs: SimpleNamespace(x=fruit0, nit=1)
        )
        result = one_run(trial, start)
        assert np.array_equal(result.iterate.x, start)
        assert not result.converged


class TestFitRecovery:
    def test_noiseless_straight_pulls(self):
        cfg = noiseless_config()
        for i in range(20):
            record = generate_trial(cfg, np.random.default_rng(100 + i), f"r{i}")
            result = fit(record.trial)
            assert result.converged
            assert (result.r_o_hat - record.trial.ground_truth).norm() < 1e-6
            assert result.final_mse < 1e-12

    def test_noiseless_multi_direction_pulls(self):
        # off-axis pulls rotate the force direction through the window
        cfg = noiseless_config(off_axis_angle_deg=55.0, pull_speed=0.12)
        errors = []
        for i in range(100):
            record = generate_trial(cfg, np.random.default_rng(900 + i), f"m{i}")
            result = fit(record.trial)
            errors.append((result.r_o_hat - record.trial.ground_truth).norm())
        assert sum(1 for e in errors if e < 1e-4) >= 99

    def test_noisy_mse_near_noise_floor(self):
        sigma = 0.15
        cfg = replace(SimConfig(), noise_sigma=sigma)
        mses, errors = [], []
        for i in range(60):
            record = generate_trial(cfg, np.random.default_rng(2000 + i), f"n{i}")
            result = fit(record.trial)
            mses.append(result.final_mse)
            errors.append((result.r_o_hat - record.trial.ground_truth).norm())
        assert 1.0 * sigma**2 < np.median(mses) < 5.0 * sigma**2
        assert np.median(errors) < 0.05


class TestFitContracts:
    def test_determinism_bit_identical(self):
        record = generate_trial(
            replace(SimConfig(), noise_sigma=0.15), np.random.default_rng(5), "d"
        )
        a = fit(record.trial)
        b = fit(record.trial)
        assert (a.r_o_hat.x, a.r_o_hat.y, a.r_o_hat.z) == (
            b.r_o_hat.x,
            b.r_o_hat.y,
            b.r_o_hat.z,
        )
        assert a.final_mse == b.final_mse
        assert a.iterations_total == b.iterations_total

    @pytest.mark.skipif(solver._BLAS_THREADS is None, reason="scipy links no OpenBLAS")
    def test_bits_do_not_depend_on_the_blas_thread_count(self):
        # SLSQP takes another path on this failure-class trial with two
        # OpenBLAS threads than with one; a fit runs on one whatever is set
        cfg = replace(SimConfig(), noise_sigma=0.05, seed=101)
        trial = bias_compensate(generate_corpus(cfg, 10, 0.4)[6].trial)
        get, put = solver._BLAS_THREADS
        before = get()
        results = []
        try:
            for threads in (1, 2):
                put(threads)
                results.append(fit(trial))
                assert get() == threads
        finally:
            put(before)
        one, two = results
        assert one.r_o_hat == two.r_o_hat
        assert (one.final_mse, one.iterations_total) == (two.final_mse, two.iterations_total)

    def test_translation_equivariance(self):
        shift = np.array([0.7, -0.4, 0.25])
        for sigma, tol in ((0.0, 1e-9), (0.1, 1e-6)):
            record = generate_trial(
                replace(SimConfig(), noise_sigma=sigma), np.random.default_rng(8), "t"
            )
            trial = record.trial
            moved_samples = replace(trial.samples, translation=trial.samples.translation + shift)
            moved = replace(
                trial,
                samples=moved_samples,
                ground_truth=Vec3.from_array(trial.ground_truth.as_array() + shift),
            )
            base = fit(trial).r_o_hat.as_array()
            shifted = fit(moved).r_o_hat.as_array()
            assert np.linalg.norm(shifted - (base + shift)) < tol

    def test_converged_implies_kkt_quality(self):
        cfg = replace(SimConfig(), noise_sigma=0.12)
        for i in range(25):
            record = generate_trial(cfg, np.random.default_rng(4000 + i), f"k{i}")
            result = fit(record.trial)
            if result.converged:
                assert result.projected_gradient < KKT_GRADIENT_TOL
                assert result.max_constraint_violation <= 1e-8
                arrays = TrialArrays.from_trial(record.trial)
                values, _ = constraint_values_jacobian(result.r_o_hat.as_array(), arrays)
                assert values.max() <= 1e-8

    def test_trace_collection(self):
        record = generate_trial(
            replace(SimConfig(), noise_sigma=0.1), np.random.default_rng(11), "tr"
        )
        result = fit(record.trial, collect_trace=True)
        assert result.trace is not None and len(result.trace) >= 1
        iteration, point, cost = result.trace[-1]
        assert isinstance(iteration, int) and isinstance(point, Vec3)
        assert cost >= 0.0
        assert fit(record.trial).trace is None


def heavy_violation_trial(n=40):
    """Sign-flipping forces no spring placement can explain."""
    forces = [[50.0 if i % 2 else -50.0, 0.0, 12.0] for i in range(n)]
    translations = [[0.0, 0.0, -0.001 * i] for i in range(n)]
    samples = columns(0.002 * np.arange(n), translation=translations, force=forces)
    return Trial(samples, SpringParams(632.0, 0.1), Vec3(0, 0, 0), id="heavy")


class TestReseedingSchedule:
    def test_clean_trial_uses_no_restarts(self):
        record = generate_trial(noiseless_config(), np.random.default_rng(21), "c")
        result = fit(record.trial)
        assert result.restarts_used == 0
        assert result.final_mse <= 5.0

    def test_heavy_violation_exhausts_restarts(self):
        result = fit(heavy_violation_trial())
        assert result.restarts_used == 5
        assert result.final_mse > 5.0
        assert math.isfinite(result.final_mse)

    def test_restart_cap_configurable(self):
        result = fit(heavy_violation_trial(), SolverConfig(max_restarts=2))
        assert result.restarts_used == 2

    def test_best_so_far_monotone_in_restart_budget(self):
        record = generate_trial(
            replace(SimConfig(), noise_sigma=0.2), np.random.default_rng(31), "m"
        )
        # an unreachable target forces the full schedule at every budget
        previous = math.inf
        for budget in range(4):
            cfg = SolverConfig(mse_target=1e-30, max_restarts=budget)
            result = fit(record.trial, cfg)
            assert result.restarts_used == budget
            assert result.final_mse <= previous + 1e-15
            previous = result.final_mse

    def test_runtime_and_iterations_aggregate(self):
        result = fit(heavy_violation_trial())
        assert result.runtime > 0.0
        assert result.iterations_total >= result.restarts_used + 1


def default_trial():
    return generate_trial(SimConfig(), np.random.default_rng(3), "default").trial


class TestEvaluationsPerPoint:
    @pytest.mark.parametrize("make_trial", [default_trial, heavy_violation_trial])
    def test_each_kernel_evaluates_each_point_once(self, monkeypatch, make_trial):
        points = {}
        for name in ("cost_and_gradient", "constraint_values_jacobian"):
            seen = points[name] = []

            def counted(x, arrays, kernel=getattr(solver, name), seen=seen):
                seen.append(x.tobytes())
                return kernel(x, arrays)

            monkeypatch.setattr(solver, name, counted)
        fit(make_trial())
        assert points["cost_and_gradient"] and points["constraint_values_jacobian"]
        # no kernel sees a point twice: its call count is its distinct points
        for seen in points.values():
            assert len(seen) == len(set(seen))

    @staticmethod
    def _record_model_calls(monkeypatch):
        """Wrap the kernels and the per-point pieces the solver calls; each
        call is recorded as the bytes of the point it was made at."""
        calls = {}
        point_of = {}  # id of a PointTerms -> its point; the terms stay alive in it
        for name in (
            "point_terms",
            "terms_cost",
            "terms_gradient",
            "terms_constraint_values",
            "terms_constraint_jacobian",
            "cost_and_gradient",
            "constraint_values_jacobian",
        ):
            seen = calls[name] = []
            piece = name.startswith("terms_")

            def counted(first, *rest, fn=getattr(solver, name), seen=seen, piece=piece):
                if piece:
                    seen.append(point_of[id(first)][0])
                    return fn(first, *rest)
                result = fn(first, *rest)
                seen.append(first.tobytes())
                if fn is spring_model.point_terms:
                    point_of[id(result)] = (first.tobytes(), result)
                return result

            monkeypatch.setattr(solver, name, counted)
        return calls

    @pytest.mark.parametrize("make_trial", [default_trial, heavy_violation_trial])
    def test_each_point_gets_its_terms_at_most_once(self, monkeypatch, make_trial):
        calls = self._record_model_calls(monkeypatch)
        fit(make_trial())
        terms = calls["point_terms"]
        assert terms and len(terms) == len(set(terms))

    @pytest.mark.parametrize("make_trial", [default_trial, heavy_violation_trial])
    def test_derivatives_only_where_asked(self, monkeypatch, make_trial):
        calls = self._record_model_calls(monkeypatch)
        fit(make_trial())
        full = calls["cost_and_gradient"]
        values = set(calls["terms_cost"] + full)
        gradients = calls["terms_gradient"] + full
        jacobians = calls["terms_constraint_jacobian"] + calls["constraint_values_jacobian"]
        # SLSQP asks for derivatives only at the points it accepts
        assert len(gradients) < len(values)
        assert len(jacobians) < len(values)
        # and nothing is computed twice at a point
        for seen in (gradients, jacobians, calls["terms_cost"], calls["terms_constraint_values"]):
            assert len(seen) == len(set(seen))

    @pytest.mark.parametrize("make_trial", [default_trial, heavy_violation_trial])
    def test_slsqp_receives_the_kernel_bits(self, monkeypatch, make_trial):
        received = []

        def recorded(kind, fn):
            def call(x):
                result = fn(x)
                received.append((kind, x.copy(), np.copy(result)))
                return result

            return call

        def recording(fun, x0, *, jac, constraints, **kwargs):
            (cons,) = constraints
            cons = {**cons, "jac": recorded("jacobian", cons["jac"])}
            return minimize_slsqp(
                recorded("cost", fun), x0, jac=recorded("gradient", jac), constraints=[cons], **kwargs
            )

        minimize_slsqp = solver._scipy_minimize
        monkeypatch.setattr(solver, "_scipy_minimize", recording)
        trial = make_trial()
        fit(trial)
        arrays = TrialArrays.from_trial(trial)
        assert {kind for kind, _, _ in received} == {"cost", "gradient", "jacobian"}
        for kind, x, got in received:
            if kind == "jacobian":
                want = -constraint_values_jacobian(x, arrays)[1]
            else:
                want = spring_model.cost_and_gradient(x, arrays)[kind == "gradient"]
            assert np.array_equal(got.view(np.uint64), np.asarray(want).view(np.uint64))
