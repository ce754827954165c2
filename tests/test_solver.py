import contextlib
import math
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from stemfit import solver, spring_model
from stemfit.errors import EvaluationFailureError, SingularityError
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
    Label,
    SpringParams,
    Trial,
    TrialArrays,
    bias_compensate,
    constraint_values_jacobian,
)

from conftest import (
    FitRecorder,
    columns,
    one_run,
    pose_point_reference,
    pull_trial,
    recording_of,
    rigid_corpus,
    static_trial,
    trial_showing,
)


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

    @pytest.mark.parametrize("data", [[], 5, None, "{}"])
    def test_from_dict_needs_an_object(self, data):
        with pytest.raises(ValueError, match="^solver config must be a JSON object$"):
            SolverConfig.from_dict(data)


def initial_guess(trial: Trial) -> np.ndarray:
    return solver._initial_guess_array(TrialArrays.from_trial(trial))


def test_a_behaviour_no_pool_trial_shows_fails_by_name():
    def shown_by_no_trial(seen):
        return False

    with pytest.raises(pytest.fail.Exception, match="shows shown_by_no_trial$"):
        trial_showing(shown_by_no_trial)


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

        def at_the_fruit(fun, y0, **kwargs):
            # SLSQP's variables y of the point x0 + M y at the first sample
            x0, metric = recorder.metrics[-1]
            return SimpleNamespace(x=np.linalg.solve(metric, fruit0 - x0), nit=1)

        monkeypatch.setattr(solver, "_scipy_minimize", at_the_fruit)
        recorder = FitRecorder(monkeypatch)
        result = one_run(trial, start)
        (call,) = recorder.calls
        assert np.linalg.norm(call.end - fruit0) < spring_model.SINGULARITY_DISTANCE
        # the run goes on from its start, and the singular point is never returned
        assert [polish.start.x.tobytes() for polish in recorder.polishes] == [start.tobytes()]
        assert np.linalg.norm(result.iterate.x - fruit0) > spring_model.SINGULARITY_DISTANCE
        assert result.converged
        assert np.linalg.norm(result.iterate.x - trial.ground_truth.as_array()) < 1e-9


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


def blas_thread_fits(trial):
    """The estimate, MSE and iterations of ``trial``'s fit with scipy's
    OpenBLAS set to one thread, and to two."""
    get, put = solver._blas_threads()
    before = get()
    results = []
    try:
        for threads in (1, 2):
            put(threads)
            result = fit(trial)
            assert get() == threads
            results.append((result.r_o_hat, result.final_mse, result.iterations_total))
    finally:
        put(before)
    return results


def depends_on_the_blas_thread_count(seen):
    """Without the one-thread pin, its fits differ between one and two
    OpenBLAS threads."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(solver, "_one_blas_thread", contextlib.nullcontext)
        one, two = blas_thread_fits(seen.trial)
    return one != two


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

    @pytest.mark.skipif(solver._blas_threads() is None, reason="scipy links no OpenBLAS")
    def test_bits_do_not_depend_on_the_blas_thread_count(self):
        # a fit runs on one OpenBLAS thread whatever is set
        one, two = blas_thread_fits(trial_showing(depends_on_the_blas_thread_count))
        assert one == two

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

    def test_runtime_and_iterations_aggregate(self, monkeypatch):
        recorder = FitRecorder(monkeypatch)
        result = fit(heavy_violation_trial())
        assert result.runtime > 0.0
        assert len(recorder.runs) == result.restarts_used + 1
        assert result.iterations_total == sum(run.used for run in recorder.runs)

    @pytest.mark.parametrize(
        "seed, index, certifies", [(2, 91, True), (4, 92, True), (6, 85, True), (12, 74, False)]
    )
    def test_a_failure_fit_leaves_its_initial_guess(self, seed, index, certifies):
        # trials of the mixed-12 corpora whose fits used to end at their
        # initial guess, a few mm from the truth, as if they were successes
        record = generate_corpus(SimConfig(seed=seed), 105, 35 / 105)[index]
        trial = bias_compensate(record.trial)
        assert trial.id == f"trial_{index:03d}" and trial.label.value == "failure"
        guess = initial_guess(trial)
        guess_mse, _ = spring_model.cost_and_gradient(guess, TrialArrays.from_trial(trial))
        result = fit(trial)
        assert not np.array_equal(result.r_o_hat.as_array(), guess)
        assert result.converged or not certifies
        assert result.final_mse < guess_mse


def default_trial():
    return generate_trial(SimConfig(), np.random.default_rng(3), "default").trial


def reruns_a_cycle(seen):
    """Its run from ``mean_force_start`` reruns its SQP cycle on all rows."""
    return len(recording_of(lambda: one_run(seen.trial)).calls) == 2


def rerunning_trial():
    return trial_showing(reruns_a_cycle)


def backtracks(seen):
    """In its fit SLSQP asks for the cost at a point where it asks for no
    derivative and that no iterate evaluates."""
    recorded = seen.fit
    return bool(recorded.asked("cost") - recorded.asked("gradient") - set(recorded.iterates))


class TestEvaluationsPerPoint:
    @pytest.mark.parametrize("make_trial", [default_trial, heavy_violation_trial])
    def test_each_kernel_evaluates_each_point_once(self, monkeypatch, make_trial):
        calls = self._record_model_calls(monkeypatch)
        fit(make_trial())
        points = [calls["cost_and_gradient"], calls["constraint_values_jacobian"]]
        assert all(points)
        # no kernel sees a point twice: its call count is its distinct points
        for seen in points:
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
        recorder = FitRecorder(monkeypatch)
        fit(make_trial())
        # at the point SLSQP returns, the model may hold only the cost and the
        # constraint values; the iterate asks for the derivatives there too
        iterated = set(recorder.iterates)
        full = calls["cost_and_gradient"]
        values = set(calls["terms_cost"] + full)
        gradients = calls["terms_gradient"] + full
        jacobians = calls["terms_constraint_jacobian"] + calls["constraint_values_jacobian"]
        # the model computes SLSQP's derivatives only at the points it asks
        # them at or an iterate evaluates, and every other derivative comes
        # with a full evaluation
        assert calls["terms_gradient"] and calls["terms_constraint_jacobian"]
        assert set(calls["terms_gradient"]) <= recorder.asked("gradient") | iterated
        assert set(calls["terms_constraint_jacobian"]) <= recorder.asked("jacobian") | iterated
        assert set(gradients) <= values and set(jacobians) <= values
        # and nothing is computed twice at a point
        for seen in (gradients, jacobians, calls["terms_cost"], calls["terms_constraint_values"]):
            assert len(seen) == len(set(seen))

    def test_no_derivatives_where_the_line_search_backtracks(self, monkeypatch):
        # where SLSQP asks for the cost and no derivative, the model computes none
        trial = trial_showing(backtracks)
        calls = self._record_model_calls(monkeypatch)
        recorder = FitRecorder(monkeypatch)
        fit(trial)
        iterated = set(recorder.iterates)
        assert recorder.asked("cost") - recorder.asked("gradient") - iterated
        assert set(calls["terms_gradient"]) <= recorder.asked("gradient") | iterated
        assert set(calls["terms_constraint_jacobian"]) <= recorder.asked("jacobian") | iterated

    @pytest.mark.parametrize("make_trial", [default_trial, heavy_violation_trial, rerunning_trial])
    def test_slsqp_receives_the_kernel_bits(self, monkeypatch, make_trial):
        trial = make_trial()
        calls = FitRecorder(monkeypatch).calls
        # a rerun belongs to one run, not to a fit
        (one_run if make_trial is rerunning_trial else fit)(trial)
        arrays = TrialArrays.from_trial(trial)
        n = len(arrays)

        def values_at(x):
            return constraint_values_jacobian(x, arrays)[0]

        assert calls
        reruns = 0
        previous = None
        for call in calls:
            # a cycle runs again on all n rows when the working-set point
            # breaks a row the working set left out
            rerun = (
                previous is not None
                and np.array_equal(previous.x0, call.x0)
                and (values_at(previous.end)[~previous.rows] > 0.0).any()
            )
            reruns += rerun
            # else the working set: the rows within 1 mm of their boundary
            call.rows = np.full(n, True) if rerun else values_at(call.x0) >= -1e-3
            assert {kind for kind, _, _ in call.received} >= {"cost", "values"}
            # in SLSQP's variables: x = x0 + M y, so the derivatives carry M
            for kind, x, got in call.received:
                if kind in ("values", "jacobian"):
                    want = -constraint_values_jacobian(x, arrays)[kind == "jacobian"][call.rows]
                    if kind == "jacobian":
                        want = want @ call.metric
                else:
                    want = spring_model.cost_and_gradient(x, arrays)[kind == "gradient"]
                    if kind == "gradient":
                        want = call.metric.T @ want
                assert np.array_equal(got.view(np.uint64), np.asarray(want).view(np.uint64))
            previous = call
        kinds = {kind for call in calls for kind, _, _ in call.received}
        assert kinds == {"cost", "gradient", "values", "jacobian"}
        assert (reruns > 0) == (make_trial is rerunning_trial)


def polishes(recorded) -> bool:
    """A polish of the recorded fit accepts a step."""
    return any(polish.end is not polish.start for polish in recorded.polishes)


def polishes_a_success_fit(seen):
    """A success-class fit whose polish accepts a step."""
    return seen.trial.label is Label.SUCCESS and polishes(seen.fit)


def restarts_five_times_and_polishes(seen):
    """A failure-class fit that restarts five times, and whose polish accepts a step."""
    if seen.trial.label is not Label.FAILURE:
        return False
    return seen.fit.result.restarts_used == 5 and polishes(seen.fit)


def finite_fields(result) -> bool:
    return all(
        math.isfinite(v)
        for v in (
            *result.r_o_hat.as_array(),
            result.final_mse,
            result.max_constraint_violation,
            result.projected_gradient,
        )
    )


class TestWorkingSet:
    """Each SQP cycle hands SLSQP the tension constraints near their boundary,
    and runs again on all of them when its point breaks one it left out."""

    def test_agrees_with_every_constraint_given(self, monkeypatch):
        trials = rigid_corpus()
        screened = [fit(trial) for trial in trials]
        monkeypatch.setattr(solver, "_WORKING_SET_SLACK", math.inf)
        full = [fit(trial) for trial in trials]
        both = [(a, b) for a, b in zip(screened, full) if a.converged and b.converged]
        assert len(both) == len(trials)
        for a, b in both:
            assert (a.r_o_hat - b.r_o_hat).norm() <= 1e-8

    def test_working_set_is_smaller_on_long_pulls(self, monkeypatch):
        trial = rigid_corpus()[0]
        calls = FitRecorder(monkeypatch).calls
        fit(trial)
        assert calls and all(call.m < len(trial.samples) / 2 for call in calls)

    def test_a_point_that_breaks_an_omitted_row_reruns_its_cycle(self, monkeypatch):
        trial = rerunning_trial()
        arrays = TrialArrays.from_trial(trial)
        calls = FitRecorder(monkeypatch).calls
        one_run(trial)
        first, second = calls
        near = constraint_values_jacobian(first.x0, arrays)[0] >= -1e-3
        broken = constraint_values_jacobian(first.end, arrays)[0] > 0.0
        assert (broken & ~near).any()
        assert np.array_equal(second.x0, first.x0)
        assert (first.m, second.m) == (near.sum(), len(arrays))
        # the rerun is the cycle's full call: cut short, it can stop far above
        # the floor of its basin
        assert second.maxiter == first.maxiter

    def test_an_empty_working_set_still_gives_finite_fields(self, monkeypatch):
        trials = (default_trial(), rerunning_trial())
        calls = FitRecorder(monkeypatch).calls
        monkeypatch.setattr(solver, "_WORKING_SET_SLACK", -1.0)
        for trial in trials:
            assert finite_fields(fit(trial))
        assert any(call.m == 0 for call in calls)

    def test_a_converged_fit_holds_every_constraint(self):
        trials = [default_trial(), rerunning_trial(), *rigid_corpus()]
        trials.append(trial_showing(restarts_five_times_and_polishes))
        trials += [
            bias_compensate(record.trial) for record in generate_corpus(SimConfig(seed=42), 12, 0.5)
        ]
        results = [fit(trial) for trial in trials]
        assert sum(result.converged for result in results) >= len(trials) - 2
        tolerance = SolverConfig().constraint_tolerance
        for trial, result in zip(trials, results):
            if result.converged:
                arrays = TrialArrays.from_trial(trial)
                values, _ = constraint_values_jacobian(result.r_o_hat.as_array(), arrays)
                assert values.max() <= tolerance


class TestScaledVariables:
    """SLSQP solves in the variables y of x = x0 + M y, where M whitens the
    cost Hessian at the run's start x0."""

    def test_the_metric_whitens_the_start_hessian(self):
        for trial in (default_trial(), rigid_corpus()[0]):
            model = solver._Model(TrialArrays.from_trial(trial))
            x0 = initial_guess(trial)
            metric = solver._metric(model, x0)
            hess = model.hessian(x0)
            size = np.abs(np.linalg.eigvalsh(hess))
            # unit curvature in y along every direction the floor leaves alone
            whitened = np.abs(np.linalg.eigvalsh(metric.T @ hess @ metric))
            floored = size < solver._METRIC_FLOOR * size.max()
            np.testing.assert_allclose(whitened[~floored], 1.0, rtol=1e-9)
            assert (whitened[floored] <= 1.0).all()

    def test_slsqp_evaluates_few_points(self, monkeypatch):
        # at the identity metric SLSQP's line search backtracks: 16 to 40
        # cost evaluations per call on these trials
        trials = (default_trial(), rigid_corpus()[0])
        recorder = FitRecorder(monkeypatch)
        for trial in trials:
            recorder.calls.clear()
            assert fit(trial).converged
            kinds = [[kind for kind, _, _ in call.received] for call in recorder.calls]
            assert kinds and max(called.count("cost") for called in kinds) <= 12

    @pytest.mark.parametrize("hessian", [np.nan, 0.0])
    def test_a_hessian_without_a_metric_gives_the_identity(self, monkeypatch, hessian):
        # the polish reads the same Hessian, so its steps end at once too
        metrics = FitRecorder(monkeypatch).metrics
        monkeypatch.setattr(
            solver, "terms_hessian", lambda terms, arrays: np.full((3, 3), hessian)
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = fit(default_trial())
        assert finite_fields(result)
        assert metrics and all(np.array_equal(m, np.eye(3)) for _, m in metrics)


def projections(recorded) -> list:
    """Each ``_on_sphere`` call whose point a polish of the recorded fit returned."""
    projected = {call.point.tobytes(): call for call in recorded.spheres if call.point is not None}
    return [
        projected[polish.end.x.tobytes()]
        for polish in recorded.polishes
        if polish.end is not polish.start and polish.end.x.tobytes() in projected
    ]


def projects_onto_a_sphere(seen):
    """A polish of its fit returns a point moved onto the sphere of its one
    binding constraint."""
    return bool(projections(seen.fit))


THREE_BUDGETS = SolverConfig(max_iterations_per_run=20)


def spends_three_budgets(seen):
    """Its run from ``mean_force_start`` takes more than two of
    ``THREE_BUDGETS``' budgets."""
    run = one_run(seen.trial, config=THREE_BUDGETS)
    return run.iterations > 2 * THREE_BUDGETS.max_iterations_per_run


class TestRunStages:
    """A run is SLSQP, its rerun on all rows when needed, and one polish."""

    def test_a_run_spends_at_most_three_budgets(self, monkeypatch):
        trial = trial_showing(spends_three_budgets)
        budget = THREE_BUDGETS.max_iterations_per_run
        recorder = FitRecorder(monkeypatch)
        fit(trial, THREE_BUDGETS)
        run = one_run(trial, config=THREE_BUDGETS)
        # each stage gets the whole budget
        assert {call.maxiter for call in recorder.calls} == {budget}
        assert {polish.budget for polish in recorder.polishes} == {budget}
        assert max(each.used for each in recorder.runs) <= 3 * budget
        # beyond twice the budget: the three stages all counted
        assert run.iterations > 2 * budget

    def test_a_polish_point_on_one_binding_constraint_lies_on_its_sphere(self, monkeypatch):
        trial = trial_showing(projects_onto_a_sphere)
        recorder = FitRecorder(monkeypatch)
        fit(trial)
        accepted = projections(recorder)
        assert accepted
        for call in accepted:
            distance = np.linalg.norm(call.point - call.centre)
            assert abs(distance - call.radius) <= 4 * np.spacing(call.radius)

    def test_a_trial_point_at_the_centre_is_halved(self, monkeypatch):
        model = solver._Model(TrialArrays.from_trial(heavy_violation_trial()))
        centre = model.arrays.grasp_world[0]
        # a start on sample 0's sphere, straight above it, where the later
        # samples have pulled away; it binds only sample 0's constraint
        start = solver._Iterate(centre + [0.0, 0.0, model.arrays.l], model)
        assert start.active.tolist() == [0] and start.lam[0] > 0.0
        step = centre - start.x
        assert np.array_equal(start.x + step, centre)
        recorder = FitRecorder(monkeypatch)
        monkeypatch.setattr(solver, "_kkt_step", lambda hess, it: centre - it.x)
        with np.errstate(over="ignore", invalid="ignore"):
            polished, used = solver._polish(start, model, SolverConfig().constraint_tolerance, 1)
        # the step to the centre is halved, not evaluated
        points = [call.x for call in recorder.spheres]
        assert np.array_equal(points[0], centre)
        assert np.array_equal(points[1], start.x + 0.5 * step)
        assert used == 1
        with pytest.raises(SingularityError, match="centre"):
            solver._on_sphere(centre, centre, model.arrays.l)


class _PointTermsCalls:
    """Record a fit's ``point_terms`` calls, each as its stage (as a
    ``FitRecorder`` tells it) and point, and make the point of call
    ``singular_at`` (counting from 1) singular: that call and every later one
    there raise ``SingularityError``.

    Singularity is a property of the point, so only a call at a point not
    evaluated before can make it singular. Both names are patched: the
    public kernels call ``spring_model``'s, the model's lazy terms the
    solver's.
    """

    def __init__(self, monkeypatch, singular_at=None):
        self.calls = []
        singular = set()
        terms = spring_model.point_terms
        recorder = FitRecorder(monkeypatch)

        def counted(x, arrays):
            key = x.tobytes()
            self.calls.append((recorder.stage, key))
            if len(self.calls) == singular_at:
                singular.add(key)
            if key in singular:
                raise SingularityError("injected singular point")
            return terms(x, arrays)

        monkeypatch.setattr(spring_model, "point_terms", counted)
        monkeypatch.setattr(solver, "point_terms", counted)


def _new_point_calls(monkeypatch, trial):
    """(k, stage) of each ``point_terms`` call of a clean fit at a point not
    evaluated before, and how many calls the first run's start makes."""
    clean = _PointTermsCalls(monkeypatch)
    fit(trial)
    monkeypatch.undo()
    seen = set()
    new = []
    for k, (stage, key) in enumerate(clean.calls, 1):
        if key not in seen:
            seen.add(key)
            new.append((k, stage))
    first_start = [stage for stage, _ in clean.calls].index("sqp")
    return new, first_start


class TestSingularPointAnywhere:
    """A singular point met anywhere in a fit is skipped, except at the first
    run's start, which has nothing to fall back on."""

    @staticmethod
    def _check(monkeypatch, trial, calls, first_start):
        for k, stage in calls:
            injected = _PointTermsCalls(monkeypatch, singular_at=k)
            try:
                result = fit(trial)
            except EvaluationFailureError:
                result = None
            finally:
                monkeypatch.undo()
            assert injected.calls[k - 1][0] == stage
            if k <= first_start:
                assert stage == "run start" and result is None, k
            else:
                assert result is not None and finite_fields(result), k

    def test_every_point_of_a_success_trial(self, monkeypatch):
        trial = trial_showing(polishes_a_success_fit)
        calls, first_start = _new_point_calls(monkeypatch, trial)
        assert {stage for _, stage in calls} == {"run start", "sqp", "polish"}
        self._check(monkeypatch, trial, calls, first_start)

    def test_a_spread_of_points_on_a_failure_trial(self, monkeypatch):
        trial = trial_showing(restarts_five_times_and_polishes)
        calls, first_start = _new_point_calls(monkeypatch, trial)
        # every point outside the SQP stage, and about 40 spread through it
        sqp = [(k, stage) for k, stage in calls if stage == "sqp"]
        calls = [(k, stage) for k, stage in calls if stage != "sqp"] + sqp[:: len(sqp) // 40 + 1]
        assert {stage for _, stage in calls} == {"run start", "sqp", "polish"}
        self._check(monkeypatch, trial, calls, first_start)


class TestFailedPolishSteps:
    """Only ``_kkt_step`` calls ``numpy.linalg.solve`` and ``lstsq`` in a fit;
    scipy's ``nnls`` is compiled."""

    @staticmethod
    def _nan_solution(a, b, *args, **kwargs):
        return np.full(np.shape(b), np.nan)

    @staticmethod
    def _singular_matrix(a, b):
        raise np.linalg.LinAlgError("Singular matrix")

    @staticmethod
    def _each_polish_ends_at_once(polishes):
        assert polishes
        for polish in polishes:
            assert polish.end is polish.start and polish.used == 1

    @pytest.mark.parametrize("broken_solve", ["_singular_matrix", "_nan_solution"])
    def test_a_failed_kkt_solve_falls_back_to_least_squares(self, monkeypatch, broken_solve):
        trial = trial_showing(polishes_a_success_fit)
        clean = fit(trial)
        monkeypatch.setattr(np.linalg, "solve", getattr(self, broken_solve))
        recorder = FitRecorder(monkeypatch)
        result = fit(trial)
        assert recorder.lstsq  # the polish ran
        assert result.converged
        assert (result.r_o_hat - clean.r_o_hat).norm() < 1e-6

    def test_a_non_finite_step_ends_the_polish(self, monkeypatch):
        trial = trial_showing(polishes_a_success_fit)
        polishes = FitRecorder(monkeypatch).polishes
        monkeypatch.setattr(np.linalg, "solve", self._nan_solution)
        monkeypatch.setattr(
            np.linalg, "lstsq", lambda a, b, rcond: (self._nan_solution(a, b), None, 0, None)
        )
        assert finite_fields(fit(trial))
        self._each_polish_ends_at_once(polishes)

    def test_a_step_that_cannot_move_the_point_ends_the_polish(self, monkeypatch):
        # a quarter of the point's resolution rounds away, at every halving
        trial = trial_showing(polishes_a_success_fit)
        recorder = FitRecorder(monkeypatch)
        monkeypatch.setattr(solver, "_kkt_step", lambda hess, it: np.spacing(it.x) / 4)
        assert finite_fields(fit(trial))
        self._each_polish_ends_at_once(recorder.polishes)
        for polish in recorder.polishes:
            assert recorder.iterates.count(polish.start.x.tobytes()) == 1 + solver._MAX_HALVINGS

    def test_a_non_finite_kkt_system_ends_the_polish_before_lstsq(self, monkeypatch):
        # numpy's lstsq can spin, never returning, on a system that holds a NaN
        trial = trial_showing(polishes_a_success_fit)
        polishes = FitRecorder(monkeypatch).polishes
        lstsq = np.linalg.lstsq

        def finite_only(a, b, *args, **kwargs):
            if not (np.isfinite(a).all() and np.isfinite(b).all()):
                raise AssertionError("lstsq was given a non-finite system")
            return lstsq(a, b, *args, **kwargs)

        monkeypatch.setattr(solver, "terms_hessian", lambda terms, arrays: np.full((3, 3), np.nan))
        monkeypatch.setattr(np.linalg, "lstsq", finite_only)
        assert finite_fields(fit(trial))
        self._each_polish_ends_at_once(polishes)

    def test_a_singular_finite_kkt_system_is_solved_by_least_squares(self, monkeypatch):
        # two equal working-set rows, as two samples taken while the hand pauses give
        row = np.array([1.0, 0.0, 0.0])
        it = SimpleNamespace(
            values=np.array([0.5, 0.5]),
            active=(),
            lam=(),
            jac=np.array([row, row]),
            grad=np.array([-1.0, 2.0, 3.0]),
        )
        recorder = FitRecorder(monkeypatch)
        step = solver._kkt_step(np.eye(3), it)
        assert len(recorder.lstsq) == 1
        # on the constraint boundary, and a Newton step along the free axes
        np.testing.assert_allclose(step, [-0.5, -2.0, -3.0], rtol=0, atol=1e-15)


SHORT_BUDGET = SolverConfig(max_iterations_per_run=5)


def restarts_uncertified_on_a_short_budget(seen):
    """On ``SHORT_BUDGET`` its fit restarts five times, and no run certifies."""
    recorded = recording_of(lambda: fit(seen.trial, SHORT_BUDGET))
    certified = [run.best.meets(SHORT_BUDGET.constraint_tolerance) for run in recorded.runs]
    return recorded.result.restarts_used == 5 and not any(certified)


class TestNonFiniteCost:
    """A model evaluation whose cost is not finite fails its run."""

    @staticmethod
    def _evaluations(monkeypatch, inf_at=None):
        """Wrap ``_Model.evaluate``; each call is recorded as the number of
        the run it is made in (0 for the first), and call ``inf_at``
        (counting from 1) returns an infinite cost."""
        runs = FitRecorder(monkeypatch).runs
        evaluations = []
        evaluate = solver._Model.evaluate

        def counted(model, x):
            evaluations.append(len(runs) - 1)
            cost, *rest = evaluate(model, x)
            return (math.inf if len(evaluations) == inf_at else cost, *rest)

        monkeypatch.setattr(solver._Model, "evaluate", counted)
        return evaluations

    def test_in_the_first_run_it_fails_the_fit(self, monkeypatch):
        trial = default_trial()
        evaluations = self._evaluations(monkeypatch)
        fit(trial)
        monkeypatch.undo()
        assert evaluations[:3] == [0, 0, 0]
        for k in (1, 2, 3):  # the run's start, and two points after it
            self._evaluations(monkeypatch, inf_at=k)
            with pytest.raises(EvaluationFailureError, match="overflowed"):
                fit(trial)
            monkeypatch.undo()

    def test_in_a_restart_it_ends_the_schedule_with_the_best_earlier_run(self, monkeypatch):
        trial = trial_showing(restarts_five_times_and_polishes)
        evaluations = self._evaluations(monkeypatch)
        assert fit(trial).restarts_used == 5
        monkeypatch.undo()
        assert evaluations.count(0) < len(evaluations)
        for at, restart in enumerate(evaluations, 1):
            if restart == 0:
                continue
            self._evaluations(monkeypatch, inf_at=at)
            result = fit(trial)
            monkeypatch.undo()
            earlier = fit(trial, SolverConfig(max_restarts=restart - 1))
            assert result.restarts_used == restart
            assert (result.r_o_hat, result.final_mse, result.converged) == (
                earlier.r_o_hat,
                earlier.final_mse,
                earlier.converged,
            )
            assert result.iterations_total == earlier.iterations_total

    def test_a_restart_that_fails_after_noting_its_start_adds_nothing_to_the_trace(
        self, monkeypatch
    ):
        # a short budget leaves each run uncertified, so every restart works
        trial = trial_showing(restarts_uncertified_on_a_short_budget)
        evaluations = self._evaluations(monkeypatch)
        assert fit(trial, SHORT_BUDGET).restarts_used == 5
        monkeypatch.undo()
        for restart in range(1, 6):
            # the restart's first evaluation is its start, which it notes
            after_start = [at for at, run in enumerate(evaluations, 1) if run == restart][1]
            self._evaluations(monkeypatch, inf_at=after_start)
            result = fit(trial, SHORT_BUDGET, collect_trace=True)
            monkeypatch.undo()
            earlier_config = replace(SHORT_BUDGET, max_restarts=restart - 1)
            earlier = fit(trial, earlier_config, collect_trace=True)
            assert result.restarts_used == restart
            assert result.trace == earlier.trace
