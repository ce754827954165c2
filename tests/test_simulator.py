import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stemfit.errors import SimulationConfigError
from stemfit.geometry import Vec3
from stemfit.simulator import (
    FIRST_PREFIX_ROWS,
    MAX_WINDOW_SAMPLES,
    SimConfig,
    _newton_steps,
    generate_corpus,
    generate_trial,
    sample_orientation,
)
from stemfit.spring_model import (
    COLUMN_WIDTHS,
    Label,
    TrialArrays,
    apple_position_world,
    cost_and_gradient,
)

from conftest import (
    corpus_trials,
    draw_pull_reference,
    generate_corpus_reference,
    generate_trial_reference,
    pull_rows_reference,
    pose_point_reference,
    predict_force,
    rotation_matrix_reference,
    trial_to_dict,
    wrench_to_world_reference,
)


def noiseless(**overrides):
    return replace(SimConfig(), noise_sigma=0.0, **overrides)


def time_to_cap_oracle(config: SimConfig, off_axis_deg: float) -> float:
    """Closed-form window length for a constant-speed pull.

    With rest direction s and pull-back direction p at angle theta, the
    stretch after travel s is |l*s_hat + s*p_hat| - l; solve for the travel
    where the force k*stretch reaches the cap.
    """
    stretch = config.force_cap / config.k
    l = config.l
    cos_t = math.cos(math.radians(off_axis_deg))
    target = (l + stretch) ** 2
    # travel^2 + 2 l cos(theta) travel + l^2 = target
    travel = -l * cos_t + math.sqrt(l * l * cos_t * cos_t - l * l + target)
    return travel / config.pull_speed


class TestSampleOrientation:
    def test_area_uniform_elevation(self):
        rng = np.random.default_rng(123)
        z = np.array(
            [
                (sample_orientation(rng).rotation_matrix() @ [0.0, 0.0, 1.0])[2]
                for _ in range(10_000)
            ]
        )
        elevations = np.degrees(np.arcsin(np.clip(z, -1.0, 1.0)))
        for probe in (30.0, 45.0, 60.0):
            empirical = float(np.mean(elevations < probe))
            assert abs(empirical - math.sin(math.radians(probe))) < 0.02

    def test_normal_never_points_with_gravity(self):
        rng = np.random.default_rng(7)
        for _ in range(2000):
            normal = sample_orientation(rng).rotation_matrix() @ [0.0, 0.0, 1.0]
            assert normal[2] >= -1e-12

    def test_azimuth_within_half_plane(self):
        rng = np.random.default_rng(8)
        for _ in range(2000):
            normal = sample_orientation(rng).rotation_matrix() @ [0.0, 0.0, 1.0]
            assert normal[0] >= -1e-12

    def test_deterministic_for_fixed_seed(self):
        a = sample_orientation(np.random.default_rng(99))
        b = sample_orientation(np.random.default_rng(99))
        assert (a.w, a.x, a.y, a.z) == (b.w, b.x, b.y, b.z)


class TestGenerateTrial:
    def test_equilibrium_at_first_sample(self):
        cfg = noiseless()
        for seed in range(10):
            record = generate_trial(cfg, np.random.default_rng(seed), f"e{seed}")
            trial = record.trial
            assert np.linalg.norm(trial.samples.force[0]) < 1e-12
            r_a0 = apple_position_world(trial)
            d0 = (trial.ground_truth - r_a0).norm()
            assert abs(d0 - cfg.l) < 1e-9

    def test_forces_stay_under_cap_and_end_near_it(self):
        cfg = noiseless()
        record = generate_trial(cfg, np.random.default_rng(42), "cap")
        trial = record.trial
        norms = [float(np.linalg.norm(f)) for f in trial.samples.force]
        assert max(norms) < cfg.force_cap
        # one more sampling step would have crossed the cap
        per_step = cfg.k * cfg.pull_speed / cfg.sample_rate
        assert norms[-1] > cfg.force_cap - 1.5 * per_step

    def test_frame_round_trip_reproduces_model_force(self):
        cfg = noiseless()
        record = generate_trial(cfg, np.random.default_rng(17), "rt")
        trial = record.trial
        s = trial.samples
        grasp = trial.grasp_point.as_array()
        for i in range(1, len(s)):
            q, translation = s.rotation_wxyz[i], s.translation[i]
            force_w, torque_w = wrench_to_world_reference(q, translation, s.force[i], s.torque[i])
            fruit = pose_point_reference(q, translation, grasp)
            model = predict_force(trial.ground_truth, Vec3.from_array(fruit), trial.spring)
            np.testing.assert_allclose(force_w, model.as_array(), atol=1e-9)
            # a rigid grasp applies the force at the fruit: moment about the world origin
            np.testing.assert_allclose(torque_w, np.cross(fruit, force_w), atol=1e-9)

    def test_straight_pull_window_matches_kinematic_oracle(self):
        cfg = noiseless()
        record = generate_trial(cfg, np.random.default_rng(3), "w")
        window = record.trial.samples.t[-1]
        oracle = time_to_cap_oracle(cfg, 0.0)
        assert oracle - 1.0 / cfg.sample_rate <= window <= oracle

    @pytest.mark.parametrize("angle", [30.0, 60.0])
    def test_off_axis_window_matches_kinematic_oracle(self, angle):
        cfg = noiseless(off_axis_angle_deg=angle, pull_speed=0.14)
        for seed in range(5):
            record = generate_trial(cfg, np.random.default_rng(50 + seed), "oa")
            window = record.trial.samples.t[-1]
            oracle = time_to_cap_oracle(cfg, angle)
            assert oracle - 1.0 / cfg.sample_rate <= window <= oracle

    def test_sixty_degree_off_axis_lengthens_window(self):
        # at 0.14 m/s a 60-degree off-axis pull needs more than 0.1 s to load
        cfg = noiseless(off_axis_angle_deg=60.0, pull_speed=0.14)
        assert time_to_cap_oracle(cfg, 60.0) >= 0.1
        record = generate_trial(cfg, np.random.default_rng(4), "long")
        assert record.trial.samples.t[-1] >= 0.1

    def test_window_of_about_226_samples(self):
        # a pull slow enough to take 0.45 s to the cap yields 226 samples
        cfg = noiseless(pull_speed=5.0 / 632.0 / 0.45)
        record = generate_trial(cfg, np.random.default_rng(5), "n226")
        assert 220 <= len(record.trial.samples) <= 230

    def test_pull_too_short_raises(self):
        cfg = noiseless(pull_distance=0.004)  # under the 7.9 mm needed
        with pytest.raises(SimulationConfigError, match="force cap"):
            generate_trial(cfg, np.random.default_rng(6), "short")

    def test_overflowing_pull_raises_config_error(self):
        # finite noise this large makes the recorded forces non-finite
        cfg = replace(SimConfig(), noise_sigma=1e308)
        with pytest.raises(SimulationConfigError, match="over: "):
            generate_trial(cfg, np.random.default_rng(6), "over")

    def test_ground_truth_recorded(self):
        record = generate_trial(noiseless(), np.random.default_rng(9), "gt")
        assert record.trial.ground_truth is not None
        lo, hi = SimConfig().attachment_region
        gt = record.trial.ground_truth
        assert lo.x <= gt.x <= hi.x and lo.y <= gt.y <= hi.y and lo.z <= gt.z <= hi.z

    def test_noise_is_seed_deterministic(self):
        cfg = replace(SimConfig(), noise_sigma=0.2)
        a = generate_trial(cfg, np.random.default_rng(12), "a")
        b = generate_trial(cfg, np.random.default_rng(12), "a")
        assert trial_to_dict(a.trial) == trial_to_dict(b.trial)


class TestCompliance:
    def compliant_config(self, c=0.004):
        return noiseless(grasp_compliance=((c, 0, 0), (0, c, 0), (0, 0, c)))

    def test_model_cost_positive_at_ground_truth(self):
        cfg = self.compliant_config()
        record = generate_trial(cfg, np.random.default_rng(13), "c")
        assert record.compliance_applied
        assert record.trial.label is Label.FAILURE
        truth = record.trial.ground_truth.as_array()
        cost, _ = cost_and_gradient(truth, TrialArrays.from_trial(record.trial))
        assert cost > 1e-6

    def test_rigid_trial_cost_zero_at_ground_truth(self):
        record = generate_trial(noiseless(), np.random.default_rng(13), "r")
        assert not record.compliance_applied
        truth = record.trial.ground_truth.as_array()
        cost, _ = cost_and_gradient(truth, TrialArrays.from_trial(record.trial))
        assert cost < 1e-12

    def test_compliance_softens_the_ramp(self):
        rigid = generate_trial(noiseless(), np.random.default_rng(14), "r")
        soft = generate_trial(self.compliant_config(0.008), np.random.default_rng(14), "s")
        assert len(soft.trial.samples) > len(rigid.trial.samples)

    def test_equilibrium_consistency(self):
        cfg = self.compliant_config(0.006)
        record = generate_trial(cfg, np.random.default_rng(15), "eq")
        trial = record.trial
        comp = cfg.compliance_matrix
        s = trial.samples
        for q, translation, f_s in zip(s.rotation_wxyz, s.translation, s.force):
            rot = rotation_matrix_reference(q)
            rigid_fruit = rot @ trial.grasp_point.as_array() + translation
            true_fruit = rigid_fruit + rot @ (comp @ f_s)
            model = predict_force(
                trial.ground_truth, Vec3.from_array(true_fruit), trial.spring
            )
            np.testing.assert_allclose(rot.T @ model.as_array(), f_s, atol=1e-8)

    def test_psd_validation(self):
        with pytest.raises(ValueError, match="symmetric"):
            SimConfig(grasp_compliance=((0, 1e-3, 0), (0, 0, 0), (0, 0, 0)))
        with pytest.raises(ValueError, match="semidefinite"):
            SimConfig(grasp_compliance=((-1e-3, 0, 0), (0, 0, 0), (0, 0, 0)))


def isotropic(c):
    return ((c, 0.0, 0.0), (0.0, c, 0.0), (0.0, 0.0, c))


ANISOTROPIC = ((0.006, 0.001, -0.002), (0.001, 0.003, 0.0005), (-0.002, 0.0005, 0.004))
PULL_SPEEDS = [0.33, 5.0 / 632.0 / 0.45, 5.0 / 632.0 / 4.0]


def assert_matches_reference(config, seed):
    """Run ``generate_trial`` and the whole-window reference on the same seed
    and require the same column bits, trial fields and generator state, or
    the same SimulationConfigError message; return ``generate_trial``'s
    record or message."""
    outcomes, states = [], []
    for generate in (generate_trial, generate_trial_reference):
        rng = np.random.default_rng(seed)
        try:
            outcomes.append(generate(config, rng, "p"))
        except SimulationConfigError as exc:
            outcomes.append(str(exc))
        states.append(rng.bit_generator.state)
    got, want = outcomes
    assert states[0] == states[1]
    assert type(got) is type(want)
    if isinstance(want, str):
        assert got == want
        return got
    assert_same_record(got, want)
    return got


def assert_same_record(got, want):
    """Two records hold the same column bits and trial fields."""
    for name in COLUMN_WIDTHS:
        a, b = getattr(got.trial.samples, name), getattr(want.trial.samples, name)
        assert a.shape == b.shape, name
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), name
    assert got.trial.ground_truth.as_array().tobytes() == want.trial.ground_truth.as_array().tobytes()
    assert (got.trial.label, got.trial.spring, got.trial.grasp_point, got.trial.id) == (
        want.trial.label,
        want.trial.spring,
        want.trial.grasp_point,
        want.trial.id,
    )
    assert got.compliance_applied == want.compliance_applied


def boundary_config(cap_index, compliance, pull_speed):
    """A noiseless straight pull whose first capped sample is ``cap_index``:
    the cap sits half a sampling step of force below that sample's force.
    With isotropic compliance c the pull loads at k / (1 + k c)."""
    cfg = noiseless(pull_speed=pull_speed, grasp_compliance=isotropic(compliance))
    stiffness = cfg.k / (1.0 + cfg.k * compliance)
    step = cfg.pull_speed / cfg.sample_rate
    return replace(cfg, force_cap=stiffness * step * (cap_index - 0.5))


# extreme but finite configs whose pull overflows, divides by zero or meets a
# singular matrix; a numpy warning fails the suite
EXTREME_CONFIGS = [
    {"k": 1e300},
    {"k": 1e300, "grasp_compliance": isotropic(0.004)},
    {"l": 1e-300},
    {"l": 1e-300, "grasp_compliance": isotropic(0.004)},
    {"grasp_compliance": ((1e300, 0, 0), (0, 0, 0), (0, 0, 0))},
]

NOT_CONVERGED = "compliant-grasp equilibrium solve did not converge"

# first capped samples on either side of the first two prefix boundaries
BOUNDARY_CAPS = [
    edge + offset for edge in (FIRST_PREFIX_ROWS, 2 * FIRST_PREFIX_ROWS) for offset in (-1, 0, 1)
]


class TestPrefixMatchesWholeWindow:
    """``generate_trial`` evaluates a growing prefix of the pull window; the
    whole-window reference in conftest must give the same bits."""

    @pytest.mark.parametrize("speed", PULL_SPEEDS)
    @pytest.mark.parametrize("angle", [0.0, 30.0, 60.0])
    def test_rigid_bit_exact(self, speed, angle):
        cfg = replace(SimConfig(), pull_speed=speed, off_axis_angle_deg=angle)
        for seed in (0, 7, 77):
            assert not assert_matches_reference(cfg, seed).compliance_applied

    @pytest.mark.parametrize("speed", PULL_SPEEDS)
    @pytest.mark.parametrize("angle", [0.0, 30.0, 60.0])
    @pytest.mark.parametrize("compliance", [isotropic(0.004), ANISOTROPIC], ids=["iso", "aniso"])
    def test_compliant_bit_exact(self, speed, angle, compliance):
        cfg = replace(
            SimConfig(), pull_speed=speed, off_axis_angle_deg=angle, grasp_compliance=compliance
        )
        for seed in (1, 9090):
            assert assert_matches_reference(cfg, seed).compliance_applied

    @pytest.mark.parametrize("cap_index", BOUNDARY_CAPS)
    @pytest.mark.parametrize("compliance", [0.0, 0.004])
    def test_cap_on_either_side_of_a_prefix_boundary(self, cap_index, compliance):
        cfg = boundary_config(cap_index, compliance, pull_speed=0.01)
        record = assert_matches_reference(cfg, 3)
        assert len(record.trial.samples) == cap_index

    @pytest.mark.parametrize("compliance", [0.0, 0.004])
    def test_cap_in_the_last_row_of_the_window(self, compliance):
        cfg = boundary_config(1500, compliance, pull_speed=0.01)
        step = cfg.pull_speed / cfg.sample_rate
        cfg = replace(cfg, pull_distance=1500.25 * step)  # rows 0..1500
        record = assert_matches_reference(cfg, 4)
        assert len(record.trial.samples) == 1500

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"pull_distance": 0.004}, "not reached within pull_distance"),
            # a window of several prefixes that never reaches the cap
            ({"pull_speed": 0.01, "pull_distance": 0.005}, "not reached within pull_distance"),
            ({"force_cap": 1e-3}, "before the second sample"),
        ],
    )
    @pytest.mark.parametrize("compliance", [0.0, 0.004])
    def test_config_errors_keep_their_messages(self, overrides, message, compliance):
        cfg = replace(noiseless(grasp_compliance=isotropic(compliance)), **overrides)
        got = assert_matches_reference(cfg, 11)
        assert isinstance(got, str) and message in got

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"pull_distance": 0.004}, "force cap 5.0 N not reached within pull_distance"),
            ({"force_cap": 1e-3}, "force cap reached before the second sample"),
            ({"l": 1e-300}, NOT_CONVERGED),
        ],
    )
    def test_compliant_errors_name_their_trial(self, overrides, message):
        cfg = replace(noiseless(grasp_compliance=isotropic(0.004)), **overrides)
        with pytest.raises(SimulationConfigError, match=f"^t7: {message}"):
            generate_trial(cfg, np.random.default_rng(11), "t7")

    @pytest.mark.parametrize("overrides", EXTREME_CONFIGS)
    def test_extreme_configs_are_config_errors(self, overrides):
        assert isinstance(assert_matches_reference(replace(noiseless(), **overrides), 11), str)

    @settings(deadline=None, max_examples=30)
    @given(
        seed=st.integers(0, 2**32 - 1),
        speed=st.floats(0.003, 0.5),
        angle=st.sampled_from([0.0, 30.0, 60.0]),
        compliance=st.sampled_from([0.0, 0.002]),
        noise=st.sampled_from([0.0, 0.1]),
    )
    def test_any_pull_matches_reference(self, seed, speed, angle, compliance, noise):
        cfg = replace(
            SimConfig(),
            pull_speed=speed,
            off_axis_angle_deg=angle,
            grasp_compliance=isotropic(compliance),
            noise_sigma=noise,
        )
        assert_matches_reference(cfg, seed)

    @settings(deadline=None, max_examples=20)
    @given(
        seed=st.integers(0, 2**32 - 1),
        speed=st.floats(0.002, 0.03),
        cap_index=st.sampled_from(BOUNDARY_CAPS),
        compliance=st.sampled_from([0.0, 0.002]),
    )
    def test_any_boundary_cap_matches_reference(self, seed, speed, cap_index, compliance):
        record = assert_matches_reference(boundary_config(cap_index, compliance, speed), seed)
        assert len(record.trial.samples) == cap_index


@pytest.mark.parametrize("compliance", [0.0, 0.001], ids=["rigid", "compliant"])
def test_memory_follows_the_recorded_pull_not_the_window(compliance):
    # a window of ~990,000 samples whose cap comes within a few thousand
    cfg = noiseless(
        pull_speed=0.15 * 500.0 / 990_000, force_cap=0.2, grasp_compliance=isotropic(compliance)
    )
    window_rows = math.floor(cfg.pull_distance / (cfg.pull_speed / cfg.sample_rate)) + 1
    assert 0.9 * MAX_WINDOW_SAMPLES < window_rows <= MAX_WINDOW_SAMPLES + 1
    tracemalloc.start()
    try:
        record = generate_trial(cfg, np.random.default_rng(3), "alloc")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(record.trial.samples) < 5000
    # numpy reports its buffers to tracemalloc; one (window, 3) float64 array
    assert peak < window_rows * 3 * 8


def test_corpus_memory_follows_the_recorded_pulls_not_the_window():
    # several compliant pulls on a window of ~990,000 samples, each capped
    # within a few thousand
    cfg = noiseless(
        pull_speed=0.15 * 500.0 / 990_000, force_cap=0.2, failure_compliance_range=(0.0005, 0.001)
    )
    window_rows = math.floor(cfg.pull_distance / (cfg.pull_speed / cfg.sample_rate)) + 1
    assert 0.9 * MAX_WINDOW_SAMPLES < window_rows <= MAX_WINDOW_SAMPLES + 1
    tracemalloc.start()
    try:
        records = generate_corpus(cfg, 4, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(r.compliance_applied and len(r.trial.samples) < 5000 for r in records)
    assert peak < window_rows * 3 * 8


def corpus_outcome(generate, config, n_trials, failure_fraction):
    try:
        return generate(config, n_trials, failure_fraction)
    except SimulationConfigError as exc:
        return str(exc)


def assert_corpus_matches_reference(config, n_trials, failure_fraction):
    """``generate_corpus`` gives the records of the trial-by-trial reference
    bit for bit, or raises its SimulationConfigError; return its records or
    message."""
    got = corpus_outcome(generate_corpus, config, n_trials, failure_fraction)
    want = corpus_outcome(generate_corpus_reference, config, n_trials, failure_fraction)
    assert type(got) is type(want)
    if isinstance(want, str):
        assert got == want
        return got
    assert len(got) == len(want) == n_trials
    for a, b in zip(got, want):
        assert_same_record(a, b)
    return got


class TestCorpusMatchesReference:
    """``generate_corpus`` generates its trials one by one; the
    trial-by-trial reference in conftest must give the same bits and raise
    the same error."""

    @pytest.mark.parametrize("speed", PULL_SPEEDS)
    @pytest.mark.parametrize("angle", [0.0, 30.0, 60.0])
    @pytest.mark.parametrize("failure_fraction", [0.5, 1.0])
    def test_corpus_bit_exact(self, speed, angle, failure_fraction):
        # a low cap keeps the slowest compliant pulls to a few thousand rows
        cfg = replace(SimConfig(seed=5), pull_speed=speed, off_axis_angle_deg=angle, force_cap=2.0)
        records = assert_corpus_matches_reference(cfg, 4, failure_fraction)
        assert sum(r.compliance_applied for r in records) == 4 * failure_fraction

    @settings(deadline=None, max_examples=15)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_trials=st.integers(1, 8),
        failure_fraction=st.sampled_from([0.25, 0.5, 1.0]),
    )
    def test_any_seed_matches_reference(self, seed, n_trials, failure_fraction):
        assert_corpus_matches_reference(SimConfig(seed=seed), n_trials, failure_fraction)

    def test_only_some_failure_trials_miss_the_cap(self):
        # a wide compliance range: trials 4 and 7 miss the cap, the pulls
        # between and after them do not
        cfg = SimConfig(seed=1, failure_compliance_range=(0.002, 0.05))
        missed = []
        for trial_cfg, rng, trial_id in corpus_trials(cfg, 8, 0.75):
            try:
                generate_trial_reference(trial_cfg, rng, trial_id)
                missed.append(False)
            except SimulationConfigError:
                missed.append(True)
        assert missed == [False, False, False, False, True, False, False, True]
        got = assert_corpus_matches_reference(cfg, 8, 0.75)
        assert got.startswith("trial_004: force cap 5.0 N not reached within pull_distance")

    @pytest.mark.parametrize(
        "overrides, message",
        zip(
            EXTREME_CONFIGS + [{"k": 1e300, "failure_compliance_range": (1e-3, 1e-2)}],
            # the drawn compliance replaces an extreme grasp_compliance
            ["Singular matrix"] * 2 + [NOT_CONVERGED] * 2 + [None, NOT_CONVERGED],
        ),
    )
    def test_extreme_compliant_corpus_raises_the_first_trials_error(self, overrides, message):
        got = assert_corpus_matches_reference(replace(noiseless(), **overrides), 4, 1.0)
        if message is not None:
            assert got == f"trial_000: {message}"

    def test_a_singular_newton_matrix_stops_only_its_own_row(self):
        rng = np.random.default_rng(0)
        jacobian = rng.normal(size=(5, 3, 3))
        h = rng.normal(size=(5, 3))
        want = np.linalg.solve(jacobian, h[:, :, None])[:, :, 0]
        jacobian[2] = 0.0
        steps, singular = _newton_steps(jacobian, h)
        assert singular.tolist() == [False, False, True, False, False]
        assert np.array_equal(steps[~singular].view(np.uint64), want[~singular].view(np.uint64))


# mixed-12 seeds 42 and 4242 and mixed-226 seed 9090
CROSS_CHECKED_CORPORA = {
    "mixed-12-42": (SimConfig(seed=42), 105, 35 / 105),
    "mixed-12-4242": (SimConfig(seed=4242), 105, 35 / 105),
    "mixed-226-9090": (SimConfig(seed=9090, pull_speed=5.0 / 632.0 / 0.45), 42, 14 / 42),
}


@pytest.mark.parametrize("corpus", CROSS_CHECKED_CORPORA)
def test_cold_and_warm_started_solves_agree(corpus):
    # each row's Newton solve starts at its rigid position; warm-starting it
    # from the previous row's solution, as the simulator once did, reaches
    # the same rows within rounding and ends the pull at the same sample
    config, n_trials, failure_fraction = CROSS_CHECKED_CORPORA[corpus]
    compliant = 0
    for cfg, rng, trial_id in corpus_trials(config, n_trials, failure_fraction):
        if cfg is config:
            continue
        pull = draw_pull_reference(cfg, rng)
        fruit, forces = pull_rows_reference(cfg, pull, trial_id)
        warm_fruit, warm_forces = pull_rows_reference(cfg, pull, trial_id, warm_start=True)
        assert len(fruit) == len(warm_fruit)
        assert np.max(np.abs(fruit - warm_fruit)) < 1e-12
        assert np.max(np.abs(forces - warm_forces)) < 1e-9
        compliant += 1
    assert compliant == round(n_trials * failure_fraction)


class TestGenerateCorpus:
    def test_all_success(self):
        records = generate_corpus(SimConfig(seed=1), 10, 0.0)
        assert len(records) == 10
        assert all(r.trial.label is Label.SUCCESS for r in records)

    def test_split_counts(self):
        records = generate_corpus(SimConfig(seed=1), 105, 35.0 / 105.0)
        labels = [r.trial.label for r in records]
        assert labels.count(Label.FAILURE) == 35
        assert labels.count(Label.SUCCESS) == 70

    def test_ids_unique_and_ordered(self):
        records = generate_corpus(SimConfig(seed=2), 12, 0.25)
        ids = [r.trial.id for r in records]
        assert ids == sorted(ids) and len(set(ids)) == 12

    def test_bit_identical_for_fixed_seed(self):
        a = generate_corpus(SimConfig(seed=33), 8, 0.5)
        b = generate_corpus(SimConfig(seed=33), 8, 0.5)
        for ra, rb in zip(a, b):
            assert trial_to_dict(ra.trial) == trial_to_dict(rb.trial)

    def test_invalid_drawn_compliance_is_a_config_error(self):
        # equal large eigenvalues leave off-diagonal rounding noise above
        # SimConfig's absolute symmetry tolerance
        cfg = SimConfig(failure_compliance_range=(1e5, 1e5))
        with pytest.raises(SimulationConfigError, match="trial_000: drawn failure-class"):
            generate_corpus(cfg, 2, 1.0)

    def test_unreachable_cap_fails_after_one_pass_over_the_window(self):
        # trial_001 is compliant and never reaches the cap in its 100,001-row
        # window; each row is solved once, not re-solved per prefix
        cfg = SimConfig(pull_speed=0.15 * 500 / 100_000, failure_compliance_range=(0.5, 0.6))
        with pytest.raises(SimulationConfigError, match="^trial_001: force cap 5.0 N not reached"):
            generate_corpus(cfg, 2, 0.5)

    def test_failure_fraction_validated(self):
        with pytest.raises(ValueError):
            generate_corpus(SimConfig(), 4, 1.5)


class TestSimConfigSerialization:
    def test_dict_round_trip(self):
        cfg = replace(
            SimConfig(),
            noise_sigma=0.05,
            off_axis_angle_deg=20.0,
            grasp_compliance=((1e-3, 0, 0), (0, 2e-3, 0), (0, 0, 3e-3)),
            seed=9,
        )
        assert SimConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            SimConfig.from_dict({"bogus": 1.0})
