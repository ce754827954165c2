import csv
import functools
import json
import math
import multiprocessing
import os
import subprocess
import sys
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import stemfit
from stemfit.batch import (
    _ROW_KEYS,
    PLOT_KINDS,
    _by_class,
    _comparison,
    emit_plot_data,
    load_report,
    run_batch,
    save_report,
)
from stemfit.cli import main
from stemfit.errors import (
    DegenerateInputError,
    StemfitError,
    UnknownPlotKindError,
    ValidationError,
)
from stemfit.evaluation import orientation_error, summarize, welch_t_test
from stemfit.geometry import Vec3
from stemfit.simulator import SimConfig, generate_corpus
from stemfit.solver import FitResult
from stemfit.spring_model import COLUMN_WIDTHS, Label, SpringParams, apple_position_world
from stemfit.trial_io import MANIFEST_NAME, load_trial, save_corpus

from conftest import (
    corpus_files,
    edit_v3_head,
    encode_column,
    pull_trial,
    split_v3,
    trial_to_dict,
    trial_to_v2_dict,
    v3_file,
)


def _as_v1(path, edit):
    """Rewrite the trial file at ``path`` as its v1 document, changed by ``edit``."""
    doc = trial_to_dict(load_trial(path))
    edit(doc)
    path.write_text(json.dumps(doc))


def _in_column(path, name, row, values):
    """Overwrite one row of one column of the v3 file at ``path``."""
    head, _ = split_v3(path.read_bytes())
    samples = load_trial(path).samples
    columns = {column: getattr(samples, column).copy() for column in COLUMN_WIDTHS}
    columns[name][row] = values
    path.write_bytes(v3_file(head, columns))


def _in_v2_column(path, name, row, values):
    """Rewrite the trial file at ``path`` as its v2 document, with one row of
    one encoded column overwritten."""
    trial = load_trial(path)
    column = getattr(trial.samples, name).copy()
    column[row] = values
    doc = trial_to_v2_dict(trial)
    doc["columns"][name] = encode_column(column)
    path.write_text(json.dumps(doc))


def _huge_number(path):
    def edit(doc):
        doc["samples"][1]["wrench"]["force"][0] = 10**400

    _as_v1(path, edit)


def _non_utf8(path):
    path.write_bytes(path.read_bytes().replace(b'"label"', b'"lab\xffel"', 1))


def _infinite_in_column(path):
    _in_column(path, "force", 1, [np.inf, 0.0, 0.0])


def _nan_force(path, version):
    """Rewrite the trial file at ``path`` as ``version`` with a NaN in
    ``samples[3]``'s force."""
    force = load_trial(path).samples.force[3].copy()
    force[1] = np.nan
    if version == "v1":
        _as_v1(path, lambda doc: doc["samples"][3]["wrench"].update(force=force.tolist()))
    elif version == "v2":
        _in_v2_column(path, "force", 3, force)
    else:
        _in_column(path, "force", 3, force)


NAN_FORCES = {
    version: functools.partial(_nan_force, version=version) for version in ("v1", "v2", "v3")
}
CORRUPTIONS = {
    "huge_number": _huge_number,
    "non_utf8": _non_utf8,
    "infinite_in_column": _infinite_in_column,
    **{f"nan_in_column_{version}": corrupt for version, corrupt in NAN_FORCES.items()},
}


def _overflowing_translation(path):
    """A finite value that every load check passes but whose square overflows."""

    def edit(doc):
        doc["samples"][1]["pose"]["translation"] = [1.34078079e154, 0.0, 0.0]

    _as_v1(path, edit)


def _overflowing_translation_v2(path):
    _in_v2_column(path, "translation", 1, [1.34078079e154, 0.0, 0.0])


def _overflowing_translation_v3(path):
    _in_column(path, "translation", 1, [1.34078079e154, 0.0, 0.0])


def _huge_quaternion(path):
    """A quaternion whose squared norm overflows; the load must reject it."""

    def edit(doc):
        doc["samples"][1]["pose"]["rotation_wxyz"] = [1e200, 0.0, 0.0, 0.0]

    _as_v1(path, edit)


def _huge_quaternion_v2(path):
    _in_v2_column(path, "rotation_wxyz", 1, [1e200, 0.0, 0.0, 0.0])


def _huge_quaternion_v3(path):
    _in_column(path, "rotation_wxyz", 1, [1e200, 0.0, 0.0, 0.0])


HUGE_QUATERNIONS = {"v1": _huge_quaternion, "v2": _huge_quaternion_v2, "v3": _huge_quaternion_v3}


def _fresh_python(*args, env=None):
    """Run a fresh interpreter that imports this stemfit, with ``args`` and
    the variables of ``env`` set in its environment."""
    src = str(Path(stemfit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *map(str, args)],
        capture_output=True,
        text=True,
        env={**os.environ, **(env or {}), "PYTHONPATH": path},
        timeout=120,
    )


def _stemfit_cli(*args, env=None):
    """Run the CLI in a fresh interpreter, which prints the warnings a user would see."""
    return _fresh_python("-m", "stemfit.cli", *args, env=env)


# config files the CLI must reject with "error: ..." and exit 1, each with
# the --failure-fraction it is simulated at
BAD_SIM_CONFIGS = {
    "empty_attachment_region": ('{"attachment_region": {}}', "0"),
    "400_digit_k": ('{"k": 1' + "0" * 399 + "}", "0"),
    "nan_noise_sigma": ('{"noise_sigma": NaN}', "0"),
    "fractional_seed": ('{"seed": 1.5}', "0"),
    "huge_pull_distance": ('{"pull_distance": 1e300}', "0"),
    "string_grasp_point": ('{"grasp_point": ["0", "0", "0.05"]}', "0"),
    "boolean_grasp_point": ('{"grasp_point": [0, 0, true]}', "0"),
    "string_attachment_region": (
        '{"attachment_region": {"min": ["0.4", -0.3, 0.2], "max": [0.8, 0.3, 0.6]}}',
        "0",
    ),
    "boolean_grasp_compliance": ('{"grasp_compliance": [[true, 0, 0], [0, 0, 0], [0, 0, 0]]}', "0"),
    "string_grasp_compliance": (
        '{"grasp_compliance": [["0.001", 0, 0], [0, 0, 0], [0, 0, 0]]}',
        "0",
    ),
    "extra_region_key": (
        '{"attachment_region": {"min": [0.4, -0.3, 0.2], "max": [0.8, 0.3, 0.6], '
        '"extra": [1, 2, 3]}}',
        "0",
    ),
}
# configs with extreme numbers, rejected with one error line and no numpy
# warning: valid ones whose pulls overflow, divide by zero or meet a
# singular matrix, or whose drawn failure-class compliance is not symmetric
# within SimConfig's tolerance, and one whose symmetry check overflows
EXTREME_SIM_CONFIGS = {
    "huge_k": ('{"k": 1e300}', "0"),
    "huge_k_compliant": ('{"k": 1e300}', "1"),
    "tiny_l": ('{"l": 1e-300}', "0"),
    "tiny_l_compliant": ('{"l": 1e-300}', "1"),
    "huge_grasp_compliance": ('{"grasp_compliance": [[1e300, 0, 0], [0, 0, 0], [0, 0, 0]]}', "0"),
    "equal_large_failure_compliance": ('{"failure_compliance_range": [1e5, 1e5]}', "1"),
    "extreme_antisymmetric_grasp_compliance": (
        '{"grasp_compliance": [[0, 1.7e308, 0], [-1.7e308, 0, 0], [0, 0, 0]]}',
        "0",
    ),
}
BAD_SIM_CONFIGS.update(EXTREME_SIM_CONFIGS)
BAD_SOLVER_CONFIGS = {
    "overflowing_max_restarts": '{"max_restarts": 1e400}',
    "infinite_constraint_tolerance": '{"constraint_tolerance": Infinity}',
    "removed_field": '{"relative_cost_tolerance": 1e-10}',
    "max_iterations_per_run_2_63": '{"max_iterations_per_run": 9223372036854775808}',
    "max_restarts_10_12": '{"max_restarts": 1000000000000}',
}
# simulate arguments the CLI must reject as usage errors (exit 1)
BAD_SIMULATE_ARGS = {
    "n_negative": ["--n", "-1"],
    "n_zero": ["--n", "0"],
    "n_fractional": ["--n", "1.5"],
    "fraction_nan": ["--n", "2", "--failure-fraction", "nan"],
    "fraction_infinite": ["--n", "2", "--failure-fraction", "inf"],
    "fraction_above_one": ["--n", "2", "--failure-fraction", "1.5"],
    "fraction_negative": ["--n", "2", "--failure-fraction", "-0.1"],
    "fraction_not_a_number": ["--n", "2", "--failure-fraction", "abc"],
}


def _duplicate_id(trials):
    trials[1]["id"] = trials[0]["id"]


# manifest edits that load_manifest must reject
BAD_MANIFEST_ENTRIES = {
    "file_not_a_string": lambda trials: trials[0].update(file=5),
    "no_file": lambda trials: trials[0].pop("file"),
    "id_not_a_string": lambda trials: trials[0].update(id=["x"]),
    "duplicate_id": _duplicate_id,
    "file_outside_corpus": lambda trials: trials[0].update(file="../trial_000.json"),
    "absolute_file": lambda trials: trials[0].update(file="/trial_000.json"),
}


# manifest edits that leave a number a report cannot hold
NON_FINITE_MANIFESTS = {
    "nan_seed": lambda manifest: manifest.update(seed=math.nan),
    "infinite_sim_config": lambda manifest: manifest["sim_config"].update(k=math.inf),
    "negative_infinite_digest": lambda manifest: manifest.update(config_digest=-math.inf),
    "nan_label": lambda manifest: manifest["trials"][1].update(label=math.nan),
}


# a fitted row that load_report accepts: every key of the row table with a
# valid value of its kind
_KIND_VALUES = {"bool": True, "count": 3, "number": 0.5, "vec3": [0.0, 0.0, 1.0]}
_OK_ROW = {
    "id": "a",
    "label": "success",
    "status": "ok",
    **{key: _KIND_VALUES[spec.kind] for key, spec in _ROW_KEYS.items()},
}
# report documents (beside "kind") that load_report must reject
BAD_REPORTS = {
    "empty_row": {"per_trial": [{}]},
    "per_trial_not_a_list": {"per_trial": 5},
    "no_per_trial": {},
    "row_not_an_object": {"per_trial": [[]]},
    "missing_final_mse": {"per_trial": [{k: v for k, v in _OK_ROW.items() if k != "final_mse"}]},
    "short_ground_truth": {"per_trial": [{**_OK_ROW, "ground_truth": [1]}]},
    "string_r_o_hat": {"per_trial": [{**_OK_ROW, "r_o_hat": ["1", "2", "3"]}]},
    "boolean_error": {"per_trial": [{**_OK_ROW, "localization_error": True}]},
    "id_not_a_string": {"per_trial": [{**_OK_ROW, "id": ["a"]}]},
    "converged_not_a_bool": {"per_trial": [{**_OK_ROW, "converged": "yes"}]},
    "timing_not_an_object": {"per_trial": [_OK_ROW], "timing": 5},
    "timing_per_trial_not_an_object": {"per_trial": [_OK_ROW], "timing": {"per_trial": []}},
    "timing_not_seconds": {"per_trial": [_OK_ROW], "timing": {"per_trial": {"a": "1"}}},
    "negative_iterations": {"per_trial": [{**_OK_ROW, "iterations": -1}]},
    "string_iterations": {"per_trial": [{**_OK_ROW, "iterations": "3"}]},
    "boolean_iterations": {"per_trial": [{**_OK_ROW, "iterations": True}]},
    "fractional_iterations": {"per_trial": [{**_OK_ROW, "iterations": 1.5}]},
    "missing_restarts": {"per_trial": [{k: v for k, v in _OK_ROW.items() if k != "restarts"}]},
    "string_projected_gradient": {"per_trial": [{**_OK_ROW, "projected_gradient": "0"}]},
    "boolean_max_constraint_violation": {
        "per_trial": [{**_OK_ROW, "max_constraint_violation": True}]
    },
    "nan_final_mse": {"per_trial": [{**_OK_ROW, "final_mse": math.nan}]},
    "infinite_localization_error": {"per_trial": [{**_OK_ROW, "localization_error": math.inf}]},
    "negative_infinite_ground_truth": {
        "per_trial": [{**_OK_ROW, "ground_truth": [0.0, -math.inf, 1.0]}]
    },
    "nan_timing": {"per_trial": [_OK_ROW], "timing": {"per_trial": {"a": math.nan}}},
    # neither a boolean nor an integer too large for a float is a finite number
    "huge_final_mse": {"per_trial": [{**_OK_ROW, "final_mse": 10**400}]},
    "huge_r_o_hat": {"per_trial": [{**_OK_ROW, "r_o_hat": [0.0, 10**400, 1.0]}]},
    "boolean_timing": {"per_trial": [_OK_ROW], "timing": {"per_trial": {"a": True}}},
    "huge_timing": {"per_trial": [_OK_ROW], "timing": {"per_trial": {"a": 10**400}}},
}


def _small_corpus(out, seed, n=3):
    cfg = replace(SimConfig(), noise_sigma=0.0, seed=seed)
    records = generate_corpus(cfg, n, 0.0)
    save_corpus([r.trial for r in records], out, sim_config_dict=cfg.to_dict(), seed=seed)
    return out


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus") / "c"
    cfg = replace(SimConfig(), noise_sigma=0.05, seed=101)
    records = generate_corpus(cfg, 10, 0.4)
    save_corpus([r.trial for r in records], out, sim_config_dict=cfg.to_dict(), seed=101)
    return out


class TestRunBatch:
    def test_report_structure_and_metrics(self, corpus_dir):
        report = run_batch(corpus_dir)
        assert report["counts"] == {
            "total": 10,
            "fitted": 10,
            "failed": 0,
            "converged": 10,
            "success": 6,
            "failure": 4,
        }
        assert len(report["per_trial"]) == 10
        ids = [r["id"] for r in report["per_trial"]]
        assert ids == sorted(ids)
        for row in report["per_trial"]:
            assert row["status"] == "ok"
            assert row["localization_error"] is not None
            assert row["orientation_error"] is not None
            assert row["max_constraint_violation"] <= 1e-8
        assert report["summary"]["final_mse"]["overall"]["count"] == 10
        assert report["summary"]["localization_error"]["success"]["median"] < 0.01
        assert report["class_comparison"]["final_mse"]["p_value"] < 0.05
        assert "timing" not in report

    def test_rerun_is_identical(self, corpus_dir):
        a = run_batch(corpus_dir)
        b = run_batch(corpus_dir)
        assert a == b

    def test_jobs_do_not_change_output(self, corpus_dir):
        serial = run_batch(corpus_dir, jobs=1)
        parallel = run_batch(corpus_dir, jobs=4)
        assert serial == parallel

    @pytest.mark.parametrize("jobs, n, started", [(2, 3, [2]), (64, 3, [3]), (4, 1, [])])
    def test_no_more_workers_than_trials(self, tmp_path, monkeypatch, jobs, n, started):
        # a stand-in pool that records its size and fits in this process; the
        # real one would start every worker at its first submit
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, work):
                return map(fn, work)

        out = _small_corpus(tmp_path / "c", seed=7, n=n)
        serial = run_batch(out)
        monkeypatch.setattr(stemfit.batch, "ProcessPoolExecutor", RecordingPool)
        assert run_batch(out, jobs=jobs) == serial
        assert sizes == started

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the patched fit reaches the workers only through fork",
    )
    def test_a_worker_that_dies_is_an_error(self, tmp_path, monkeypatch, capsys):
        out = _small_corpus(tmp_path / "c", seed=7, n=3)
        fit = stemfit.batch.fit

        def dies_on_the_second_trial(trial, config):
            if trial.id.endswith("1"):
                os._exit(1)
            return fit(trial, config)

        monkeypatch.setattr(stemfit.batch, "fit", dies_on_the_second_trial)
        with pytest.raises(StemfitError, match="a batch worker process died"):
            run_batch(out, jobs=2)
        report = tmp_path / "r.json"
        assert main(["batch", "--corpus", str(out), "--jobs", "2", "--report", str(report)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: a batch worker process died") and err.count("\n") == 1
        assert "Traceback" not in err and not report.exists()

    def test_timing_section_optional(self, corpus_dir):
        report = run_batch(corpus_dir, include_timing=True)
        timing = report["timing"]
        assert len(timing["per_trial"]) == 10
        assert timing["all"]["median"] > 0.0
        assert timing["total"] > 0.0

    def test_class_comparison_matches_summaries_and_welch(self, corpus_dir):
        report = run_batch(corpus_dir)
        rows = report["per_trial"]
        for key in ("localization_error", "final_mse"):
            success = [r[key] for r in rows if r["label"] == "success"]
            failure = [r[key] for r in rows if r["label"] == "failure"]
            welch = welch_t_test(success, failure)
            assert report["class_comparison"][key] == {
                "success": summarize(success).to_dict(),
                "failure": summarize(failure).to_dict(),
                "t_statistic": welch.t_statistic,
                "p_value": welch.p_value,
                "degrees_of_freedom": welch.degrees_of_freedom,
            }

    def test_all_success_corpus_has_no_class_comparison(self, tmp_path):
        report = run_batch(_small_corpus(tmp_path / "c", seed=5, n=3))
        assert report["counts"]["failure"] == 0
        assert report["class_comparison"] is None

    @pytest.mark.parametrize(
        "rows",
        [
            [("success", 0.1, 0.1), ("failure", 0.1, 0.1), ("failure", 0.2, 0.2)],
            [("success", None, 0.1), ("success", None, 0.2), ("failure", 0.1, 0.2)] * 2,
        ],
        ids=["one_success_row", "no_localization_error"],
    )
    def test_class_comparison_needs_two_values_per_class(self, rows):
        fitted = [
            {"label": label, "localization_error": loc, "final_mse": mse}
            for label, loc, mse in rows
        ]
        assert _comparison(_by_class(fitted)) is None

    def test_ground_truth_beside_the_initial_fruit_has_no_orientation_error(self, tmp_path):
        # 1e-13 m is a positive distance, so the trial loads, but too short a
        # ray for angle_between
        out = _small_corpus(tmp_path / "c", seed=9, n=2)
        path = corpus_files(out)["trial_000"]
        r_a0 = apple_position_world(load_trial(path))
        edit_v3_head(path, lambda head: head.update(ground_truth=[r_a0.x + 1e-13, r_a0.y, r_a0.z]))
        trial = load_trial(path)
        r_o_hat = Vec3.from_array(r_a0.as_array() + [0.1, 0.0, 0.0])
        with pytest.raises(DegenerateInputError, match="angle_between needs nonzero vectors"):
            orientation_error(r_o_hat, trial.ground_truth, r_a0)
        report = run_batch(out)
        row = report["per_trial"][0]
        assert row["status"] == "ok" and row["localization_error"] is not None
        assert row["orientation_error"] is None
        emit_plot_data(report, "error_vs_mse", tmp_path / "t.csv")
        first = (tmp_path / "t.csv").read_text().splitlines()[1]
        assert first == f"{row['final_mse']!r},{row['localization_error']!r},,success"

    def test_a_trial_at_1e100_m_gets_a_finite_orientation_error(self, tmp_path):
        # every length scaled by 1e100 and the stiffness by 1e-100: the same
        # forces, and rays whose cross product would overflow unscaled
        scale = 1e100
        trial = pull_trial(
            np.array([0.4, 0.0, 0.6]) * scale,
            spring=SpringParams(632.0 / scale, 0.1 * scale),
            n=6,
            speed=0.05 * scale,
            rng=np.random.default_rng(0),
            noise=0.01,
        )
        save_corpus([trial], tmp_path / "c")
        row = run_batch(tmp_path / "c")["per_trial"][0]
        assert row["status"] == "ok"
        assert 0.0 < row["orientation_error"] < 90.0

    def test_corrupted_trial_recorded_not_fatal(self, tmp_path):
        cfg = replace(SimConfig(), noise_sigma=0.0, seed=7)
        records = generate_corpus(cfg, 3, 0.0)
        out = tmp_path / "c"
        save_corpus([r.trial for r in records], out, sim_config_dict=cfg.to_dict(), seed=7)
        (corpus_files(out)["trial_001"]).write_text("{broken")
        report = run_batch(out)
        assert report["counts"]["fitted"] == 2
        assert report["counts"]["failed"] == 1
        statuses = {r["id"]: r["status"] for r in report["per_trial"]}
        assert statuses["trial_001"].startswith("error:")
        assert statuses["trial_000"] == "ok"
        # an error row has the keys of a fitted row, in the same order
        keys = [list(row) for row in report["per_trial"]]
        assert keys[0] == keys[1] == keys[2]
        assert keys[0][:3] == ["id", "label", "status"]


    def _one_overflow_error_row(self, tmp_path, corrupt):
        out = _small_corpus(tmp_path / "c", seed=7, n=2)
        corrupt(corpus_files(out)["trial_001"])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = run_batch(out)
        assert [str(w.message) for w in caught if w.category is RuntimeWarning] == []
        statuses = {r["id"]: r["status"] for r in report["per_trial"]}
        assert statuses["trial_000"] == "ok"
        assert statuses["trial_001"].startswith("error: ")
        save_report(report, tmp_path / "r.json")
        assert load_report(tmp_path / "r.json")["counts"]["failed"] == 1

    def test_overflowing_trial_gives_one_error_row(self, tmp_path):
        self._one_overflow_error_row(tmp_path, _overflowing_translation)

    def test_overflowing_v2_trial_gives_one_error_row(self, tmp_path):
        self._one_overflow_error_row(tmp_path, _overflowing_translation_v2)

    def test_overflowing_v3_trial_gives_one_error_row(self, tmp_path):
        self._one_overflow_error_row(tmp_path, _overflowing_translation_v3)

    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
    def test_unreadable_trial_gives_one_error_row(self, tmp_path, corruption):
        out = _small_corpus(tmp_path / "c", seed=7)
        CORRUPTIONS[corruption](corpus_files(out)["trial_001"])
        report = run_batch(out)
        statuses = {r["id"]: r["status"] for r in report["per_trial"]}
        assert [i for i, status in statuses.items() if status != "ok"] == ["trial_001"]
        assert statuses["trial_001"].startswith("error:")

    @pytest.mark.parametrize("version", sorted(HUGE_QUATERNIONS))
    def test_huge_quaternion_gives_one_error_row(self, tmp_path, version):
        out = _small_corpus(tmp_path / "c", seed=7, n=2)
        HUGE_QUATERNIONS[version](corpus_files(out)["trial_001"])
        report = run_batch(out)  # a RuntimeWarning fails the suite
        status = {r["id"]: r["status"] for r in report["per_trial"]}["trial_001"]
        assert status.startswith("error: ")
        assert "samples[1]: rotation: quaternion norm inf" in status

    def test_overflowing_bias_compensation_gives_one_error_row(self, tmp_path):
        out = _small_corpus(tmp_path / "c", seed=7, n=2)

        def edit(doc):
            doc["samples"][0]["wrench"]["force"][0] = 1.7e308
            doc["samples"][1]["wrench"]["force"][0] = -1.7e308

        _as_v1(corpus_files(out)["trial_001"], edit)
        report = run_batch(out)
        status = {r["id"]: r["status"] for r in report["per_trial"]}["trial_001"]
        assert status.startswith("error: ") and "bias compensation overflows" in status


class TestReportFiles:
    def test_save_load_round_trip(self, corpus_dir, tmp_path):
        report = run_batch(corpus_dir)
        path = tmp_path / "report.json"
        save_report(report, path)
        assert load_report(path) == report

    def test_report_bytes_deterministic(self, corpus_dir, tmp_path):
        for name in ("a.json", "b.json"):
            save_report(run_batch(corpus_dir), tmp_path / name)
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_existing_tmp_file_survives_save(self, corpus_dir, tmp_path):
        bystander = tmp_path / "report.json.tmp"
        bystander.write_text("not ours")
        save_report(run_batch(corpus_dir), tmp_path / "report.json")
        assert bystander.read_text() == "not ours"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json", "report.json.tmp"]

    def test_not_a_report_rejected(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("{}")
        with pytest.raises(ValidationError):
            load_report(path)

    def test_well_formed_report_loads(self, tmp_path, capsys):
        # the row and timing that each BAD_REPORTS case breaks in one place
        timing = {"per_trial": {"a": 0.25}}
        doc = {"kind": "stemfit-report", "per_trial": [_OK_ROW], "timing": timing}
        path = tmp_path / "r.json"
        path.write_text(json.dumps(doc))
        assert load_report(path) == doc
        for kind in PLOT_KINDS:
            assert main(["report", "--in", str(path), "--plot-data", kind,
                         "--out", str(tmp_path / f"{kind}.csv")]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("case", sorted(BAD_REPORTS))
    def test_malformed_report_rejected(self, tmp_path, capsys, case):
        path = tmp_path / "r.json"
        path.write_text(json.dumps({"kind": "stemfit-report", **BAD_REPORTS[case]}))
        with pytest.raises(ValidationError):
            load_report(path)
        for kind in PLOT_KINDS:
            assert main(["report", "--in", str(path), "--plot-data", kind,
                         "--out", str(tmp_path / "x.csv")]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "Traceback" not in err
        assert not (tmp_path / "x.csv").exists()

    def test_written_report_with_error_rows_loads(self, tmp_path):
        out = _small_corpus(tmp_path / "c", seed=7, n=2)
        (corpus_files(out)["trial_001"]).write_text("{broken")
        report = run_batch(out, include_timing=True)
        save_report(report, tmp_path / "r.json")
        assert load_report(tmp_path / "r.json") == report


class TestPlotData:
    def test_error_vs_mse(self, corpus_dir, tmp_path):
        report = run_batch(corpus_dir)
        out = tmp_path / "e.csv"
        emit_plot_data(report, "error_vs_mse", out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "final_mse,localization_error,orientation_error,label"
        assert len(lines) == 11
        first = lines[1].split(",")
        assert float(first[0]) >= 0.0 and first[3] in ("success", "failure")

    def test_joint_locations(self, corpus_dir, tmp_path):
        report = run_batch(corpus_dir)
        out = tmp_path / "j.csv"
        emit_plot_data(report, "joint_locations", out)
        lines = out.read_text().strip().splitlines()
        assert lines[0].split(",") == [
            "trial_id", "true_x", "true_y", "true_z", "est_x", "est_y", "est_z", "label",
        ]
        assert len(lines) == 11

    def test_runtime_hist_needs_timing(self, corpus_dir, tmp_path):
        report = run_batch(corpus_dir)
        with pytest.raises(ValidationError, match="timing"):
            emit_plot_data(report, "runtime_hist", tmp_path / "r.csv")
        timed = run_batch(corpus_dir, include_timing=True)
        out = tmp_path / "r.csv"
        emit_plot_data(timed, "runtime_hist", out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "trial_id,runtime,converged"
        assert len(lines) == 11

    def test_ids_that_need_quoting_round_trip(self, tmp_path):
        # a trial id may hold a comma, a double quote, CR or LF; each plot
        # kind quotes it, so every row reads back at the header's width; a
        # non-ASCII id is written as its UTF-8 bytes
        ids = ['a,b "x"', "line\nbreak", "cr\ronly", "plain", "\u00e9\u6837"]
        cfg = replace(SimConfig(), noise_sigma=0.0, seed=3)
        trials = [replace(r.trial, id=i) for r, i in zip(generate_corpus(cfg, len(ids), 0.0), ids)]
        save_corpus(trials, tmp_path / "c", sim_config_dict=cfg.to_dict(), seed=3)
        report = run_batch(tmp_path / "c", include_timing=True)
        for kind in PLOT_KINDS:
            out = tmp_path / f"{kind}.csv"
            emit_plot_data(report, kind, out)
            with open(out, newline="", encoding="utf-8") as f:
                header, *rows = csv.reader(f)
            assert len(rows) == len(ids)
            assert all(len(row) == len(header) for row in rows)
            if header[0] == "trial_id":
                assert [row[0] for row in rows] == [r["id"] for r in report["per_trial"]]
                assert sorted(row[0] for row in rows) == sorted(ids)

    def test_unknown_kind(self, corpus_dir, tmp_path):
        report = run_batch(corpus_dir)
        with pytest.raises(UnknownPlotKindError):
            emit_plot_data(report, "pie_chart", tmp_path / "p.csv")


class TestCli:
    def test_pipeline(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        report = tmp_path / "report.json"
        plot = tmp_path / "plot.csv"
        cfg_path = tmp_path / "sim.json"
        cfg_path.write_text(json.dumps(replace(SimConfig(), noise_sigma=0.05).to_dict()))

        again = tmp_path / "again"
        for out in (corpus, again):
            assert main([
                "simulate", "--config", str(cfg_path), "--n", "6",
                "--failure-fraction", "0.5", "--seed", "3", "--out", str(out),
            ]) == 0
        # a seed reproduces its corpus, manifest included, byte for byte
        files = {path.name: path.read_bytes() for path in sorted(corpus.iterdir())}
        assert {path.name: path.read_bytes() for path in sorted(again.iterdir())} == files
        assert MANIFEST_NAME in files and len(files) == 7

        assert main(["batch", "--corpus", str(corpus), "--jobs", "1",
                     "--report", str(report)]) == 0
        doc = json.loads(report.read_text())
        assert doc["counts"]["total"] == 6
        assert doc["seed"] == 3

        assert main(["report", "--in", str(report), "--plot-data",
                     "error_vs_mse", "--out", str(plot)]) == 0
        assert plot.read_text().startswith("final_mse,")
        capsys.readouterr()

    def test_huge_ground_truths_give_a_loadable_report(self, tmp_path):
        # localization errors near 1e80 m once overflowed the Welch test's
        # squared variances to a NaN p-value, which a report cannot hold
        out = tmp_path / "c"
        save_corpus([r.trial for r in generate_corpus(SimConfig(seed=5), 4, 0.5)], out)
        for i, path in enumerate(corpus_files(out).values()):
            edit_v3_head(path, lambda head: head.update(ground_truth=[1e80 * (i + 1), 0.0, 0.0]))
        report = tmp_path / "r.json"
        assert main(["batch", "--corpus", str(out), "--report", str(report)]) == 0
        loaded = load_report(report)
        assert loaded["counts"]["success"] == loaded["counts"]["failure"] == 2
        welch = loaded["class_comparison"]["localization_error"]
        assert all(math.isfinite(welch[key]) for key in ("p_value", "degrees_of_freedom"))
        assert loaded["summary"]["localization_error"]["overall"]["std"] > 1e79

    def test_infinite_welch_t_is_written_as_null(self, tmp_path, capsys):
        # each class is one trial fitted twice: zero variance, different means
        out = tmp_path / "c"
        args = ["--n", "4", "--failure-fraction", "0.5", "--seed", "5", "--out", str(out)]
        assert main(["simulate", *args]) == 0
        files = corpus_files(out)
        for source, copy in (("trial_000", "trial_001"), ("trial_002", "trial_003")):
            files[copy].write_bytes(files[source].read_bytes())
            edit_v3_head(files[copy], lambda head: head.update(id=copy))
        report = tmp_path / "r.json"
        assert main(["batch", "--corpus", str(out), "--report", str(report)]) == 0
        capsys.readouterr()
        comparison = load_report(report)["class_comparison"]
        for key in ("localization_error", "final_mse"):
            assert comparison[key]["t_statistic"] is None
            assert comparison[key]["p_value"] == 0.0
            assert comparison[key]["degrees_of_freedom"] == 2.0

    def test_fit_single_trial(self, tmp_path, capsys):
        corpus = tmp_path / "c"
        cfg = replace(SimConfig(), noise_sigma=0.0, seed=9)
        records = generate_corpus(cfg, 2, 0.0)
        save_corpus([r.trial for r in records], corpus, sim_config_dict=cfg.to_dict(), seed=9)
        trial_file = corpus_files(corpus)["trial_000"]
        assert main(["fit", "--trial", str(trial_file)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["converged"] is True
        assert doc["final_mse"] < 1e-8
        assert "trace" not in doc
        result_fields = {field.name for field in fields(FitResult)}
        assert set(doc) == result_fields - {"trace"} | {"trial_id"}

        assert main(["fit", "--trial", str(trial_file), "--trace"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["trace"]) >= 1
        assert set(doc) == result_fields | {"trial_id"}

    def test_fit_runtime_only_with_timing(self, tmp_path, capsys):
        trial_file = corpus_files(_small_corpus(tmp_path / "c", seed=9, n=1))["trial_000"]
        outputs = []
        for _ in range(2):
            assert main(["fit", "--trial", str(trial_file)]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])["runtime"] is None

        assert main(["fit", "--trial", str(trial_file), "--with-timing"]) == 0
        timed = json.loads(capsys.readouterr().out)
        assert isinstance(timed["runtime"], float) and timed["runtime"] > 0.0
        assert timed | {"runtime": None} == json.loads(outputs[0])

    def test_fit_flags_change_behavior(self, tmp_path, capsys):
        corpus = tmp_path / "c"
        cfg = replace(SimConfig(), noise_sigma=0.1, seed=13)
        records = generate_corpus(cfg, 2, 0.0)
        save_corpus([r.trial for r in records], corpus, sim_config_dict=cfg.to_dict(), seed=13)
        trial_file = corpus_files(corpus)["trial_000"]
        code_default = main(["fit", "--trial", str(trial_file)])
        out_default = json.loads(capsys.readouterr().out)
        code_raw = main(["fit", "--trial", str(trial_file), "--no-bias-compensation"])
        out_raw = json.loads(capsys.readouterr().out)
        assert code_default in (0, 2) and code_raw in (0, 2)
        assert out_default["final_mse"] != out_raw["final_mse"]

    def test_fit_nonconvergence_exit_code(self, tmp_path, capsys):
        corpus = tmp_path / "c"
        cfg = replace(SimConfig(), noise_sigma=0.2, seed=17)
        records = generate_corpus(cfg, 2, 0.0)
        save_corpus([r.trial for r in records], corpus, sim_config_dict=cfg.to_dict(), seed=17)
        solver_path = tmp_path / "solver.json"
        solver_path.write_text(json.dumps({"max_iterations_per_run": 1}))
        code = main([
            "fit", "--trial", str(corpus_files(corpus)["trial_000"]),
            "--solver-config", str(solver_path),
        ])
        capsys.readouterr()
        assert code == 2

    def test_validation_exit_codes(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["fit", "--trial", str(bad)]) == 1
        assert main(["fit", "--trial", str(tmp_path / "missing.json")]) == 3
        capsys.readouterr()

    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
    def test_fit_unreadable_trial_exits_1(self, tmp_path, capsys, corruption):
        out = _small_corpus(tmp_path / "c", seed=9, n=1)
        CORRUPTIONS[corruption](corpus_files(out)["trial_000"])
        assert main(["fit", "--trial", str(corpus_files(out)["trial_000"])]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def _fit_fails_cleanly(self, tmp_path, capsys, corrupt):
        out = _small_corpus(tmp_path / "c", seed=7, n=1)
        corrupt(corpus_files(out)["trial_000"])
        assert main(["fit", "--trial", str(corpus_files(out)["trial_000"])]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("fit failed: ") and "Traceback" not in captured.err
        run = _stemfit_cli("fit", "--trial", corpus_files(out)["trial_000"])
        assert run.returncode == 2
        assert run.stderr.startswith("fit failed: ") and "RuntimeWarning" not in run.stderr

    def test_fit_overflowing_trial_fails_cleanly(self, tmp_path, capsys):
        self._fit_fails_cleanly(tmp_path, capsys, _overflowing_translation)

    def test_fit_overflowing_v2_trial_fails_cleanly(self, tmp_path, capsys):
        self._fit_fails_cleanly(tmp_path, capsys, _overflowing_translation_v2)

    def test_fit_overflowing_v3_trial_fails_cleanly(self, tmp_path, capsys):
        self._fit_fails_cleanly(tmp_path, capsys, _overflowing_translation_v3)

    @pytest.mark.parametrize("version", sorted(HUGE_QUATERNIONS))
    def test_fit_huge_quaternion_exits_1_without_a_warning(self, tmp_path, capsys, version):
        out = _small_corpus(tmp_path / "c", seed=9, n=1)
        HUGE_QUATERNIONS[version](corpus_files(out)["trial_000"])
        assert main(["fit", "--trial", str(corpus_files(out)["trial_000"])]) == 1
        capsys.readouterr()
        run = _stemfit_cli("fit", "--trial", corpus_files(out)["trial_000"])
        assert run.returncode == 1
        assert run.stderr.startswith("error: ") and "quaternion norm inf" in run.stderr
        assert "Warning" not in run.stderr

    def test_a_nan_force_is_one_error_line_that_reads_the_same_from_every_version(
        self, tmp_path
    ):
        saved = corpus_files(_small_corpus(tmp_path / "c", seed=9, n=1))["trial_000"]
        for version, corrupt in NAN_FORCES.items():
            path = tmp_path / f"{version}.trial"
            path.write_bytes(saved.read_bytes())
            corrupt(path)
            run = _stemfit_cli("fit", "--trial", path)
            assert run.returncode == 1
            assert run.stderr == f"error: {path}: samples[3]: force must be finite\n"

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_exits_1(self, tmp_path, capsys, jobs):
        out = _small_corpus(tmp_path / "c", seed=9, n=1)
        report = tmp_path / "r.json"
        assert main(["batch", "--corpus", str(out), "--jobs", jobs, "--report", str(report)]) == 1
        assert "--jobs" in capsys.readouterr().err
        assert not report.exists()

    def test_unknown_plot_kind_exits_1(self, tmp_path, capsys):
        corpus = tmp_path / "c"
        cfg = replace(SimConfig(), noise_sigma=0.0, seed=23)
        records = generate_corpus(cfg, 2, 0.0)
        save_corpus([r.trial for r in records], corpus, sim_config_dict=cfg.to_dict(), seed=23)
        report = tmp_path / "rep.json"
        assert main(["batch", "--corpus", str(corpus), "--report", str(report)]) == 0
        assert main(["report", "--in", str(report), "--plot-data", "nope",
                     "--out", str(tmp_path / "x.csv")]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("case", sorted(BAD_SIM_CONFIGS))
    def test_bad_sim_config_exits_1(self, tmp_path, capsys, case):
        text, fraction = BAD_SIM_CONFIGS[case]
        config = tmp_path / "sim.json"
        config.write_text(text)
        out = tmp_path / "c"
        args = ["simulate", "--config", config, "--n", "2", "--failure-fraction", fraction]
        assert main([*map(str, args), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("case", sorted(EXTREME_SIM_CONFIGS))
    def test_extreme_sim_config_prints_only_the_error(self, tmp_path, case):
        text, fraction = EXTREME_SIM_CONFIGS[case]
        config = tmp_path / "sim.json"
        config.write_text(text)
        run = _stemfit_cli(
            "simulate", "--config", config, "--n", "2", "--failure-fraction", fraction,
            "--out", tmp_path / "c",
        )
        assert run.returncode == 1
        assert run.stderr.startswith("error: ") and run.stderr.count("\n") == 1
        assert "Traceback" not in run.stderr and "Warning" not in run.stderr

    @pytest.mark.parametrize("case", sorted(BAD_SOLVER_CONFIGS))
    def test_bad_solver_config_exits_1(self, tmp_path, capsys, case):
        trial = corpus_files(_small_corpus(tmp_path / "c", seed=9, n=1))["trial_000"]
        config = tmp_path / "solver.json"
        config.write_text(BAD_SOLVER_CONFIGS[case])
        assert main(["fit", "--trial", str(trial), "--solver-config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("case", sorted(BAD_SIMULATE_ARGS))
    def test_bad_simulate_args_exit_1(self, tmp_path, capsys, case):
        out = tmp_path / "c"
        assert main(["simulate", *BAD_SIMULATE_ARGS[case], "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "error: argument --" in err and "Traceback" not in err
        assert not out.exists()

    def test_negative_seed_exits_1(self, tmp_path, capsys):
        assert main(["simulate", "--n", "2", "--seed", "-1", "--out", str(tmp_path / "c")]) == 1
        assert capsys.readouterr().err.startswith("error: --seed")

    @pytest.mark.parametrize("case", sorted(BAD_MANIFEST_ENTRIES))
    def test_bad_manifest_entry_exits_1(self, tmp_path, capsys, case):
        out = _small_corpus(tmp_path / "c", seed=9, n=3)
        manifest = json.loads((out / MANIFEST_NAME).read_text())
        BAD_MANIFEST_ENTRIES[case](manifest["trials"])
        (out / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(ValidationError, match=r"trials\[[01]\]"):
            run_batch(out)
        report = tmp_path / "r.json"
        assert main(["batch", "--corpus", str(out), "--report", str(report)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not report.exists()

    @pytest.mark.parametrize("case", sorted(NON_FINITE_MANIFESTS))
    def test_non_finite_manifest_exits_1(self, tmp_path, capsys, monkeypatch, case):
        out = _small_corpus(tmp_path / "c", seed=9, n=2)
        (corpus_files(out)["trial_001"]).write_text("{broken")
        manifest = json.loads((out / MANIFEST_NAME).read_text())
        NON_FINITE_MANIFESTS[case](manifest)
        (out / MANIFEST_NAME).write_text(json.dumps(manifest))
        monkeypatch.setattr("stemfit.batch.fit", lambda *args: pytest.fail("a trial was fitted"))
        report = tmp_path / "r.json"
        assert main(["batch", "--corpus", str(out), "--report", str(report)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and MANIFEST_NAME in err
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert not report.exists()

    def test_bad_usage_exits_1(self, capsys):
        assert main(["simulate", "--n", "notanumber", "--out", "x"]) == 1
        capsys.readouterr()

    def test_empty_corpus_exits_1(self, tmp_path, capsys):
        empty = tmp_path / "none"
        empty.mkdir()
        assert main(["batch", "--corpus", str(empty), "--report",
                     str(tmp_path / "r.json")]) == 1
        capsys.readouterr()


@pytest.fixture(scope="module")
def quick_start_corpus(tmp_path_factory):
    """The quick-start corpus cut to 6 trials (seed 42): 4 success, 2 failure."""
    out = tmp_path_factory.mktemp("quick_start") / "corpus"
    args = ["--n", "6", "--failure-fraction", "0.34", "--seed", "42", "--out", str(out)]
    assert main(["simulate", *args]) == 0
    return out


class TestFreshProcesses:
    """A fit gives the same bits whatever the process it runs in."""

    def test_the_blas_thread_count_a_process_starts_with_does_not_change_a_report(
        self, quick_start_corpus, tmp_path
    ):
        # 2 is set, not left to the default, so that the two runs differ on
        # a one-CPU machine too; a fit pins scipy's OpenBLAS to one thread
        reports = []
        for threads in ("1", "2"):
            report = tmp_path / f"threads_{threads}.json"
            run = _stemfit_cli(
                "batch", "--corpus", quick_start_corpus, "--jobs", "2", "--report", report,
                env={"OPENBLAS_NUM_THREADS": threads},
            )
            assert run.returncode == 0, run.stderr
            reports.append(report.read_bytes())
        assert reports[0] == reports[1]

    def test_two_traced_fits_print_the_same_bytes(self, quick_start_corpus):
        # each process hashes strings with its own seed
        path = corpus_files(quick_start_corpus)["trial_005"]
        assert load_trial(path).label is Label.FAILURE
        runs = [
            _stemfit_cli("fit", "--trial", path, "--trace", env={"PYTHONHASHSEED": seed})
            for seed in ("1", "2")
        ]
        for run in runs:
            assert run.returncode in (0, 2), run.stderr
        assert len(json.loads(runs[0].stdout)["trace"]) > 1
        assert runs[0].stdout == runs[1].stdout


# run first in each fresh interpreter of TestScipyLoading
_LOADED = """
import sys

def loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
"""


def _in_fresh_python(code, *args):
    """Run ``code`` after ``_LOADED`` in a fresh interpreter that imports this
    stemfit, with ``args`` as its ``sys.argv[1:]``; it must exit 0."""
    done = _fresh_python("-c", _LOADED + code, *args)
    assert done.returncode == 0, done.stderr


class TestScipyLoading:
    """scipy is loaded by a process's first fit, not by importing stemfit."""

    def test_import_loads_no_scipy(self):
        _in_fresh_python("import stemfit\nassert loaded() == [], loaded()")

    def test_simulate_and_report_load_no_scipy(self, corpus_dir, tmp_path):
        save_report(run_batch(corpus_dir), tmp_path / "report.json")
        code = """
from stemfit.cli import main
out = sys.argv[1]
assert main(["simulate", "--n", "3", "--failure-fraction", "0.34", "--out", out + "/corpus"]) == 0
assert loaded() == [], loaded()
assert main(["report", "--in", out + "/report.json", "--plot-data", "error_vs_mse",
             "--out", out + "/error_vs_mse.csv"]) == 0
assert loaded() == [], loaded()
"""
        _in_fresh_python(code, tmp_path)

    def test_a_fit_loads_scipy_and_keeps_the_solver_bindings(self):
        code = """
import numpy as np
import stemfit
from stemfit import solver
minimize, nnls = solver._scipy_minimize, solver.nnls
record = stemfit.generate_trial(stemfit.SimConfig(), np.random.default_rng(3), "t")
stemfit.fit(stemfit.bias_compensate(record.trial))
assert "scipy.optimize" in loaded(), loaded()
assert solver._scipy_minimize is minimize and solver.nnls is nnls
"""
        _in_fresh_python(code)

    def test_a_jobs_1_batch_loads_scipy_in_its_first_fit(self, corpus_dir):
        code = """
from stemfit import batch
fit, at_entry = batch.fit, []

def recorded(*args, **kwargs):
    at_entry.append(loaded())
    return fit(*args, **kwargs)

batch.fit = recorded
batch.run_batch(sys.argv[1], jobs=1)
assert at_entry[0] == [] and "scipy.optimize" in at_entry[1], at_entry[:2]
"""
        _in_fresh_python(code, corpus_dir)

    def test_a_jobs_2_batch_loads_scipy_in_the_parent(self, corpus_dir):
        code = """
import stemfit
stemfit.run_batch(sys.argv[1], jobs=2)
assert "scipy.optimize" in loaded(), loaded()
"""
        _in_fresh_python(code, corpus_dir)
