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
from typing import NamedTuple

from .errors import (
    EvaluationFailureError,
    ParseError,
    StemfitError,
    UnknownPlotKindError,
    ValidationError,
)
from .evaluation import localization_error, orientation_error, summarize, welch_t_test
from .geometry import finite_number, finite_numbers
from .solver import SolverConfig, fit
from .spring_model import Label, apple_position_world, bias_compensate
from .trial_io import atomic_write_text, dump_json, load_manifest, load_trial, read_json

REPORT_SCHEMA_VERSION = 1

PLOT_KINDS = ("error_vs_mse", "runtime_hist", "joint_locations")


class _Key(NamedTuple):
    kind: str  # a key of _KINDS
    unfitted: object  # the value in the row of a trial that could not be fitted
    summarized: bool = False  # per-class statistics in the report's summary
    compared: bool = False  # a Welch test of success against failure


# the keys of a report row after id, label and status, in row order
_ROW_KEYS = {
    "converged": _Key("bool", False),
    "final_mse": _Key("number", None, summarized=True, compared=True),
    "iterations": _Key("count", 0),
    "restarts": _Key("count", 0),
    "max_constraint_violation": _Key("number", None),
    "projected_gradient": _Key("number", None),
    "r_o_hat": _Key("vec3", None),
    "ground_truth": _Key("vec3", None),
    "localization_error": _Key("number", None, summarized=True, compared=True),
    "orientation_error": _Key("number", None, summarized=True),
}
_UNFITTED_ROW = {key: spec.unfitted for key, spec in _ROW_KEYS.items()}


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
    classes = _by_class(fitted)
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
            **{label: len(subset) for label, subset in classes.items()},
        },
        "per_trial": rows,
        "summary": _summaries({"overall": fitted, **classes}),
        "class_comparison": _comparison(classes),
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


def _by_class(fitted) -> dict:
    """The fitted rows of each class, keyed by label: success, then failure."""
    return {label.value: [r for r in fitted if r["label"] == label.value] for label in Label}


def _metric_values(rows, key):
    return [r[key] for r in rows if r[key] is not None]


def _summaries(scopes):
    summary = {}
    for key in (k for k, spec in _ROW_KEYS.items() if spec.summarized):
        block = {}
        for scope, subset in scopes.items():
            values = _metric_values(subset, key)
            block[scope] = (
                {"count": len(values), **summarize(values).to_dict()} if values else None
            )
        summary[key] = block
    return summary


def _comparison(classes):
    """Per-class summaries and a Welch test of success against failure, for
    each compared key; None unless both classes have at least two values of
    every compared key. JSON has no infinity, so an infinite t (each class
    one repeated value, the two values different) is written as null."""
    blocks = {}
    for key in (k for k, spec in _ROW_KEYS.items() if spec.compared):
        success = _metric_values(classes[Label.SUCCESS.value], key)
        failure = _metric_values(classes[Label.FAILURE.value], key)
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


# what a row value of each kind must be, and the test of it; a value fails
# when its test is false or raises the number rule's ValueError
_KINDS = {
    "bool": ("true or false", lambda v: isinstance(v, bool)),
    "count": ("a non-negative integer", lambda v: type(v) is int and v >= 0),
    "number": ("a finite number or null", lambda v: v is None or finite_number("", v) == v),
    "vec3": (
        "an array of 3 finite numbers or null",
        lambda v: v is None or finite_numbers("", v, (3,)) == tuple(v),
    ),
}


def _check_row(row, where: str):
    """A per-trial row has a string status; a fitted one (status "ok") also
    has a string id and label, and every key of ``_ROW_KEYS`` with a value of its kind."""
    if not isinstance(row, dict) or not isinstance(row.get("status"), str):
        raise ValidationError(f"{where}: expected an object with a string 'status'")
    if row["status"] != "ok":
        return
    if not (isinstance(row.get("id"), str) and isinstance(row.get("label"), str)):
        raise ValidationError(f"{where}: 'id' and 'label' must be strings")
    for key, spec in _ROW_KEYS.items():
        what, valid = _KINDS[spec.kind]
        try:
            ok = key in row and valid(row[key])
        except ValueError:
            ok = False
        if not ok:
            raise ValidationError(f"{where}: {key!r} must be {what}")


def load_report(path) -> dict:
    """Read a report file whose rows pass ``_check_row`` and whose timing, if
    any, maps ids to finite seconds; any other file is a ValidationError."""
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
        try:
            if not isinstance(per_trial, dict):
                raise ValueError("timing has no per_trial object")
            for seconds in per_trial.values():
                finite_number("timing", seconds)
        except ValueError as exc:
            raise ValidationError(
                f"{path}: timing must be an object whose per_trial maps ids to finite seconds"
            ) from exc
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
        table = [[r[key] for key in header] for r in rows]
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
