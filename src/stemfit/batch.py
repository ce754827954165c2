"""Batch fitting over a corpus, report assembly, and plot-data export.

Reports are deterministic by construction: rows follow manifest order and
every value is recomputable from the trial files and the configuration.
Wall-clock timing is therefore kept out of the report unless explicitly
requested, in a clearly separated ``timing`` section.
"""

import math
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict
from pathlib import Path

from .errors import (
    EvaluationFailureError,
    ParseError,
    StemfitError,
    UnknownPlotKindError,
    ValidationError,
)
from .evaluation import localization_error, orientation_error, summarize, welch_t_test
from .solver import SolverConfig, fit
from .spring_model import Label, apple_position_world, bias_compensate
from .trial_io import atomic_write_text, dump_json, load_manifest, load_trial, read_json

REPORT_SCHEMA_VERSION = 1

PLOT_KINDS = ("error_vs_mse", "runtime_hist", "joint_locations")


# a report row's values after id, label and status, as an unfitted trial has them
_UNFITTED_ROW = {
    "converged": False,
    "final_mse": None,
    "iterations": 0,
    "restarts": 0,
    "max_constraint_violation": None,
    "projected_gradient": None,
    "r_o_hat": None,
    "ground_truth": None,
    "localization_error": None,
    "orientation_error": None,
}


def _fit_entry(args):
    """Load, bias-compensate and fit one trial; never raises for per-trial
    problems."""
    trial_path, entry, solver_config = args
    try:
        trial = bias_compensate(load_trial(trial_path))
        result = fit(trial, solver_config)
        row = {"id": entry["id"], "label": trial.label.value, "status": "ok"} | _UNFITTED_ROW
        row.update(
            converged=result.converged,
            final_mse=result.final_mse,
            iterations=result.iterations_total,
            restarts=result.restarts_used,
            max_constraint_violation=result.max_constraint_violation,
            projected_gradient=result.projected_gradient,
            r_o_hat=result.r_o_hat.as_array().tolist(),
        )
        if trial.ground_truth is not None:
            gt = trial.ground_truth
            row["ground_truth"] = gt.as_array().tolist()
            row["localization_error"] = localization_error(result.r_o_hat, gt)
            r_a0 = apple_position_world(trial)
            try:
                row["orientation_error"] = orientation_error(result.r_o_hat, gt, r_a0)
            except StemfitError:
                pass
        return row, result.runtime
    except (ParseError, ValidationError, EvaluationFailureError, OSError) as exc:
        row = {"id": entry["id"], "label": entry.get("label"), "status": f"error: {exc}"}
        return row | _UNFITTED_ROW, 0.0


def run_batch(
    corpus_dir,
    solver_config: SolverConfig = SolverConfig(),
    jobs: int = 1,
    *,
    include_timing: bool = False,
) -> dict:
    """Fit every bias-compensated trial in a corpus and assemble the report
    document.

    Per-trial failures are recorded in their row and never abort the batch.
    Output is identical for any ``jobs`` value: work is keyed by manifest
    order, not completion order. At most one worker process runs per trial.
    A worker process that dies (killed by a signal or by the system's
    out-of-memory killer, say) ends the batch with a StemfitError.
    """
    corpus_dir = Path(corpus_dir)
    manifest = load_manifest(corpus_dir)
    work = [
        (str(corpus_dir / entry["file"]), entry, solver_config)
        for entry in manifest["trials"]
    ]
    # the pool starts all its workers at the first submit
    workers = min(jobs, len(work))
    if workers > 1:
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                outcomes = list(pool.map(_fit_entry, work))
        except BrokenProcessPool as exc:
            raise StemfitError(f"a batch worker process died: {exc}") from exc
    else:
        outcomes = [_fit_entry(item) for item in work]
    rows = [row for row, _ in outcomes]
    runtimes = {row["id"]: runtime for (row, runtime) in outcomes}

    fitted = [r for r in rows if r["status"] == "ok"]
    report = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "kind": "stemfit-report",
        "seed": manifest.get("seed"),
        "corpus": {
            "config_digest": manifest.get("config_digest"),
            "sim_config": manifest.get("sim_config"),
            "n_trials": len(rows),
        },
        "solver_config": solver_config.to_dict(),
        "bias_compensation": True,
        "counts": {
            "total": len(rows),
            "fitted": len(fitted),
            "failed": len(rows) - len(fitted),
            "converged": sum(1 for r in fitted if r["converged"]),
            "success": sum(1 for r in fitted if r["label"] == Label.SUCCESS.value),
            "failure": sum(1 for r in fitted if r["label"] == Label.FAILURE.value),
        },
        "per_trial": rows,
        "summary": _summaries(fitted),
        "class_comparison": _comparison(fitted),
    }
    if include_timing:
        ok_rt = [runtimes[r["id"]] for r in fitted]
        conv_rt = [runtimes[r["id"]] for r in fitted if r["converged"]]
        report["timing"] = {
            "note": "wall-clock seconds; not reproducible across runs",
            "per_trial": {r["id"]: runtimes[r["id"]] for r in fitted},
            "all": summarize(ok_rt).to_dict() if ok_rt else None,
            "converged_only": summarize(conv_rt).to_dict() if conv_rt else None,
            "total": sum(runtimes.values()),
        }
    return report


def _metric_values(rows, key):
    return [r[key] for r in rows if r[key] is not None]


def _summaries(fitted):
    summary = {}
    for key in ("final_mse", "localization_error", "orientation_error"):
        block = {}
        for scope, subset in (
            ("overall", fitted),
            ("success", [r for r in fitted if r["label"] == Label.SUCCESS.value]),
            ("failure", [r for r in fitted if r["label"] == Label.FAILURE.value]),
        ):
            values = _metric_values(subset, key)
            block[scope] = (
                {"count": len(values), **summarize(values).to_dict()} if values else None
            )
        summary[key] = block
    return summary


def _comparison(fitted):
    """Per-class summaries and a Welch test of success against failure, for
    localization error and final MSE; None unless both classes have at least
    two values of both metrics. JSON has no infinity, so an infinite t (each
    class one repeated value, the two values different) is written as null."""
    blocks = {}
    for key in ("localization_error", "final_mse"):
        success = _metric_values([r for r in fitted if r["label"] == Label.SUCCESS.value], key)
        failure = _metric_values([r for r in fitted if r["label"] == Label.FAILURE.value], key)
        if len(success) < 2 or len(failure) < 2:
            return None
        welch = asdict(welch_t_test(success, failure))
        if not math.isfinite(welch["t_statistic"]):
            welch["t_statistic"] = None
        blocks[key] = {
            "success": summarize(success).to_dict(),
            "failure": summarize(failure).to_dict(),
            **welch,
        }
    return blocks


def save_report(report: dict, path):
    atomic_write_text(path, dump_json(report))


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_row(row, where: str):
    """A per-trial row carries what ``emit_plot_data`` reads of it: the
    status of every row, and the values of the rows that were fitted."""
    if not isinstance(row, dict) or not isinstance(row.get("status"), str):
        raise ValidationError(f"{where}: expected an object with a string 'status'")
    if row["status"] != "ok":
        return
    if not (isinstance(row.get("id"), str) and isinstance(row.get("label"), str)):
        raise ValidationError(f"{where}: 'id' and 'label' must be strings")
    if not isinstance(row.get("converged"), bool):
        raise ValidationError(f"{where}: 'converged' must be true or false")
    for key in ("final_mse", "localization_error", "orientation_error"):
        if key not in row or not (row[key] is None or _is_number(row[key])):
            raise ValidationError(f"{where}: '{key}' must be a number or null")
    for key in ("ground_truth", "r_o_hat"):
        value = row.get(key, ())
        if value is not None and not (
            isinstance(value, list) and len(value) == 3 and all(map(_is_number, value))
        ):
            raise ValidationError(f"{where}: '{key}' must be a 3-element array or null")


def load_report(path) -> dict:
    """Read a report file; everything ``emit_plot_data`` reads is checked, and
    a report that lacks or malforms any of it is a ValidationError."""
    report = read_json(path)
    if not isinstance(report, dict) or report.get("kind") != "stemfit-report":
        raise ValidationError(f"{path}: not a stemfit report file")
    rows = report.get("per_trial")
    if not isinstance(rows, list):
        raise ValidationError(f"{path}: per_trial must be an array")
    for i, row in enumerate(rows):
        _check_row(row, f"{path}: per_trial[{i}]")
    timing = report.get("timing")
    if timing is not None:
        per_trial = timing.get("per_trial") if isinstance(timing, dict) else None
        if not isinstance(per_trial, dict) or not all(map(_is_number, per_trial.values())):
            raise ValidationError(
                f"{path}: timing must be an object whose per_trial maps ids to seconds"
            )
    return report


def _csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    text = str(value)
    if any(c in text for c in ',"\r\n'):  # quoted as RFC 4180 has it
        return '"' + text.replace('"', '""') + '"'
    return text


def emit_plot_data(report: dict, kind: str, out_path):
    """Write one of the plot-ready tables: header row plus one row per trial."""
    if kind not in PLOT_KINDS:
        raise UnknownPlotKindError(
            f"unknown plot-data kind {kind!r}; expected one of {', '.join(PLOT_KINDS)}"
        )
    rows = [r for r in report.get("per_trial", []) if r["status"] == "ok"]
    if kind == "error_vs_mse":
        header = ["final_mse", "localization_error", "orientation_error", "label"]
        table = [
            [r["final_mse"], r["localization_error"], r["orientation_error"], r["label"]]
            for r in rows
        ]
    elif kind == "runtime_hist":
        timing = report.get("timing")
        if not timing:
            raise ValidationError(
                "report has no timing section; rerun the batch with timing enabled"
            )
        header = ["trial_id", "runtime", "converged"]
        table = [
            [r["id"], timing["per_trial"].get(r["id"]), r["converged"]]
            for r in rows
            if r["id"] in timing["per_trial"]
        ]
    else:  # joint_locations
        header = ["trial_id", "true_x", "true_y", "true_z", "est_x", "est_y", "est_z", "label"]
        table = [
            [r["id"], *r["ground_truth"], *r["r_o_hat"], r["label"]]
            for r in rows
            if r["ground_truth"] is not None and r["r_o_hat"] is not None
        ]
    lines = [",".join(header)]
    lines.extend(",".join(_csv_cell(cell) for cell in row) for row in table)
    atomic_write_text(out_path, "\n".join(lines) + "\n")
