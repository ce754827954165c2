"""Acceptance gate: one test per criterion, each pinned to its stated
tolerance and budget. Run with ``pytest tests/test_acceptance.py -v`` to get
one pass/fail line per criterion; each test also prints a summary line.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from stemfit.batch import run_batch, save_report
from stemfit.evaluation import (
    orientation_error,
    summarize,
    welch_t_test,
)
from stemfit.geometry import Vec3
from stemfit.simulator import SimConfig, generate_corpus, generate_trial, sample_orientation
from stemfit.solver import SolverConfig, fit
from stemfit.spring_model import (
    Label,
    TrialArrays,
    constraint_values_jacobian,
    cost_and_gradient,
)
from stemfit.trial_io import load_trial, save_corpus

from conftest import corpus_files
from test_solver import heavy_violation_trial


def _fit_sweep(configs_and_seeds):
    results = []
    start = time.perf_counter()
    for cfg, seed, name in configs_and_seeds:
        record = generate_trial(cfg, np.random.default_rng(seed), name)
        result = fit(record.trial)
        results.append((record.trial, result))
    return results, time.perf_counter() - start


@pytest.fixture(scope="module")
def noiseless_fits():
    """Criterion 2 corpus: 100 rigid noiseless trials, straight and off-axis."""
    straight = replace(SimConfig(), noise_sigma=0.0)
    off_axis = replace(
        SimConfig(), noise_sigma=0.0, off_axis_angle_deg=40.0, pull_speed=0.12
    )
    jobs = [(straight, 10_000 + i, f"s{i}") for i in range(50)]
    jobs += [(off_axis, 20_000 + i, f"o{i}") for i in range(50)]
    return _fit_sweep(jobs)


@pytest.fixture(scope="module")
def noisefloor_fits():
    """Criterion 3 corpus: 200 rigid trials at 0.15 N noise per axis."""
    cfg = replace(SimConfig(), noise_sigma=0.15)
    return _fit_sweep([(cfg, 30_000 + i, f"n{i}") for i in range(200)])


@pytest.fixture(scope="module")
def mixed_corpus_dir(tmp_path_factory):
    """Criterion 4/8 corpus: 70 rigid Success plus 35 compliant Failure."""
    out = tmp_path_factory.mktemp("acceptance") / "mixed"
    cfg = SimConfig(seed=4242)
    records = generate_corpus(cfg, 105, 35.0 / 105.0)
    save_corpus(
        [r.trial for r in records], out, sim_config_dict=cfg.to_dict(), seed=4242
    )
    return out


@pytest.fixture(scope="module")
def mixed_report(mixed_corpus_dir):
    start = time.perf_counter()
    report = run_batch(mixed_corpus_dir, SolverConfig(), jobs=1)
    return report, time.perf_counter() - start


def test_criterion_01_gradient_correctness():
    rng = np.random.default_rng(777)
    trial_configs = [
        replace(SimConfig(), noise_sigma=0.1),
        replace(SimConfig(), noise_sigma=0.15, off_axis_angle_deg=35.0, pull_speed=0.15),
    ]
    start = time.perf_counter()
    step = 1e-6
    checked = 0
    worst_grad = 0.0
    worst_cons = 0.0
    for t_idx in range(10):
        cfg = trial_configs[t_idx % 2]
        record = generate_trial(cfg, np.random.default_rng(500 + t_idx), f"g{t_idx}")
        arrays = TrialArrays.from_trial(record.trial)
        truth = record.trial.ground_truth.as_array()
        points = 0
        while points < 10:
            x = truth + rng.normal(scale=rng.uniform(0.02, 0.2), size=3)
            if np.linalg.norm(x[None, :] - arrays.grasp_world, axis=1).min() < 1e-3:
                continue
            points += 1
            checked += 1
            grad_fd = np.zeros(3)
            jac_fd = np.zeros((len(arrays), 3))
            for j in range(3):
                plus, minus = x.copy(), x.copy()
                plus[j] += step
                minus[j] -= step
                grad_fd[j] = (
                    cost_and_gradient(plus, arrays)[0]
                    - cost_and_gradient(minus, arrays)[0]
                ) / (2 * step)
                jac_fd[:, j] = (
                    constraint_values_jacobian(plus, arrays)[0]
                    - constraint_values_jacobian(minus, arrays)[0]
                ) / (2 * step)
            grad = cost_and_gradient(x, arrays)[1]
            jac = constraint_values_jacobian(x, arrays)[1]
            rel_g = np.linalg.norm(grad - grad_fd) / max(np.linalg.norm(grad_fd), 1e-12)
            rel_c = np.linalg.norm(jac - jac_fd) / max(np.linalg.norm(jac_fd), 1e-12)
            worst_grad = max(worst_grad, rel_g)
            worst_cons = max(worst_cons, rel_c)
    elapsed = time.perf_counter() - start
    assert checked == 100
    assert worst_grad < 1e-5
    assert worst_cons < 1e-5
    assert elapsed < 5.0
    print(
        f"[criterion 01] PASS gradient/constraint FD agreement: worst rel err "
        f"{worst_grad:.2e}/{worst_cons:.2e} over 100 points in {elapsed:.2f}s"
    )


def test_criterion_02_noiseless_recovery(noiseless_fits):
    results, elapsed = noiseless_fits
    hits = 0
    for trial, result in results:
        err = (result.r_o_hat - trial.ground_truth).norm()
        if err < 1e-4 and result.final_mse < 1e-8:
            hits += 1
    assert hits >= 99, f"only {hits}/100 trials recovered"
    assert elapsed < 60.0
    print(f"[criterion 02] PASS noiseless recovery {hits}/100 in {elapsed:.1f}s")


def test_criterion_03_noise_floor(noisefloor_fits):
    sigma = 0.15
    results, elapsed = noisefloor_fits
    mses = [r.final_mse for _, r in results]
    errors = [(r.r_o_hat - t.ground_truth).norm() for t, r in results]
    med_mse = float(np.median(mses))
    med_err = float(np.median(errors))
    assert 1.5 * sigma**2 <= med_mse <= 4.5 * sigma**2, med_mse
    assert med_err < 0.05, med_err
    assert elapsed < 180.0
    print(
        f"[criterion 03] PASS noise floor: median MSE {med_mse:.4f} N^2 "
        f"({med_mse / sigma**2:.2f} sigma^2), median error {med_err * 100:.2f} cm "
        f"in {elapsed:.1f}s"
    )


def test_criterion_04_failure_class_signature(mixed_report):
    report, elapsed = mixed_report
    assert report["counts"]["success"] == 70
    assert report["counts"]["failure"] == 35
    comparison = report["class_comparison"]
    loc = comparison["localization_error"]
    mse = comparison["final_mse"]
    assert loc["failure"]["median"] > loc["success"]["median"]
    assert loc["p_value"] < 0.01
    assert mse["p_value"] < 0.01
    assert elapsed < 180.0
    print(
        f"[criterion 04] PASS class signature: failure median "
        f"{loc['failure']['median'] * 100:.1f} cm vs success "
        f"{loc['success']['median'] * 100:.2f} cm; p_loc {loc['p_value']:.2e}, "
        f"p_mse {mse['p_value']:.2e} in {elapsed:.1f}s"
    )


def test_criterion_05_constraint_satisfaction(
    noiseless_fits, noisefloor_fits, mixed_report, mixed_corpus_dir
):
    pairs = []
    for trial, result in noiseless_fits[0] + noisefloor_fits[0]:
        if result.converged:
            pairs.append((trial, result.r_o_hat))
    report, _ = mixed_report
    files = corpus_files(mixed_corpus_dir)
    for row in report["per_trial"]:
        if row["status"] == "ok" and row["converged"]:
            trial = load_trial(files[row["id"]])
            pairs.append((trial, Vec3.from_array(row["r_o_hat"])))
    assert len(pairs) >= 300
    worst = -math.inf
    for trial, point in pairs:
        arrays = TrialArrays.from_trial(trial)
        values, _ = constraint_values_jacobian(point.as_array(), arrays)
        worst = max(worst, float(values.max()))
    assert worst <= 1e-8, worst
    print(
        f"[criterion 05] PASS tension constraint on {len(pairs)} converged fits: "
        f"worst violation {worst:.2e} m"
    )


def test_criterion_06_reseeding_schedule():
    heavy = fit(heavy_violation_trial())
    assert heavy.restarts_used == 5
    assert heavy.final_mse > 5.0
    assert math.isfinite(heavy.final_mse)
    clean_record = generate_trial(
        replace(SimConfig(), noise_sigma=0.0), np.random.default_rng(60_001), "clean"
    )
    clean = fit(clean_record.trial)
    assert clean.restarts_used == 0
    print(
        f"[criterion 06] PASS reseeding: heavy-violation trial used "
        f"{heavy.restarts_used}/5 restarts (MSE {heavy.final_mse:.0f} N^2), "
        f"clean trial used {clean.restarts_used}"
    )


def test_criterion_07_performance_envelope(tmp_path):
    # straight pulls slow enough to load for ~0.45 s: about 226 samples each
    cfg = replace(SimConfig(), pull_speed=5.0 / 632.0 / 0.45, seed=9090)
    records = generate_corpus(cfg, 105, 35.0 / 105.0)
    n_samples = [len(r.trial.samples) for r in records if r.trial.label is Label.SUCCESS]
    assert 220 <= int(np.median(n_samples)) <= 230
    out = tmp_path / "perf"
    save_corpus([r.trial for r in records], out, sim_config_dict=cfg.to_dict(), seed=9090)
    start = time.perf_counter()
    report = run_batch(out, SolverConfig(), jobs=1, include_timing=True)
    elapsed = time.perf_counter() - start
    per_fit = list(report["timing"]["per_trial"].values())
    median_fit = float(np.median(per_fit))
    assert report["counts"]["fitted"] == 105
    assert median_fit < 0.5, median_fit
    assert elapsed < 120.0, elapsed
    print(
        f"[criterion 07] PASS performance: median fit {median_fit * 1000:.1f} ms at "
        f"~{int(np.median(n_samples))} samples, batch of 105 in {elapsed:.1f}s"
    )


def test_criterion_08_determinism_across_jobs(mixed_corpus_dir, tmp_path):
    paths = []
    for jobs in (1, 8):
        path = tmp_path / f"report_jobs{jobs}.json"
        save_report(run_batch(mixed_corpus_dir, SolverConfig(), jobs=jobs), path)
        paths.append(path)
    a, b = (p.read_bytes() for p in paths)
    assert a == b
    print(f"[criterion 08] PASS determinism: jobs 1 vs 8 reports byte-identical ({len(a)} bytes)")


def test_criterion_09_metric_fixtures():
    # orientation error examples
    assert orientation_error(Vec3(0, 0, 0.1), Vec3(0, 0, 0.1), Vec3(0, 0, 0)) == 0.0
    assert orientation_error(
        Vec3(0, 0, -0.1), Vec3(0, 0, 0.1), Vec3(0, 0, 0)
    ) == pytest.approx(180.0, abs=1e-9)
    assert orientation_error(
        Vec3(0, 0.1, 0.1), Vec3(0, 0, 0.1), Vec3(0, 0, 0)
    ) == pytest.approx(45.0, abs=1e-12)
    # summary statistic examples
    s = summarize([1, 2, 3, 4, 5])
    assert s.median == 3.0 and s.mean == 3.0
    s = summarize([1, 1, 1, 1])
    assert s.median == 1.0 and s.iqr == 0.0 and s.std == 0.0
    s = summarize([1, 2, 3, 4])
    assert s.median == 2.5 and s.iqr == pytest.approx(1.5, abs=1e-15)
    # independent statistics oracle for the unequal-variance t-test
    a = [27.5, 21.0, 19.0, 23.6, 17.0, 17.9, 16.9, 20.1, 21.9, 22.6, 23.1, 19.6, 19.0, 21.7, 21.4]
    b = [27.1, 22.0, 20.8, 23.4, 23.4, 23.5, 25.8, 22.0, 24.8, 20.2, 21.9, 22.1, 22.9, 30.5]
    mine = welch_t_test(a, b)
    ref_t, ref_p = stats.ttest_ind(a, b, equal_var=False)
    assert abs(mine.t_statistic - float(ref_t)) < 1e-6
    assert abs(mine.p_value - float(ref_p)) < 1e-6
    print(
        f"[criterion 09] PASS metric fixtures exact; Welch vs reference "
        f"dt {abs(mine.t_statistic - float(ref_t)):.1e}, dp {abs(mine.p_value - float(ref_p)):.1e}"
    )


def test_criterion_10_quarter_sphere_sampling():
    rng = np.random.default_rng(31_415)
    z = np.array(
        [
            (sample_orientation(rng).rotation_matrix() @ [0.0, 0.0, 1.0])[2]
            for _ in range(10_000)
        ]
    )
    elevations = np.degrees(np.arcsin(np.clip(z, -1.0, 1.0)))
    worst = 0.0
    for probe in (30.0, 45.0, 60.0):
        empirical = float(np.mean(elevations < probe))
        analytic = math.sin(math.radians(probe))
        worst = max(worst, abs(empirical - analytic))
        assert abs(empirical - analytic) < 0.02
    print(
        f"[criterion 10] PASS quarter-sphere sampling: worst CDF gap {worst:.4f} "
        f"over 10000 draws at 3 probe elevations"
    )
