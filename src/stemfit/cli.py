"""Command-line interface: simulate, fit, batch, report.

Exit codes: 0 success, 1 validation or parse error, 2 solver non-convergence
(single-trial fit only), 3 I/O error.
"""

import argparse
import math
import sys
from dataclasses import fields, replace

from .batch import emit_plot_data, load_report, run_batch, save_report
from .errors import EvaluationFailureError, StemfitError, ValidationError
from .simulator import SimConfig, generate_corpus
from .solver import SolverConfig, fit
from .spring_model import Label, bias_compensate
from .trial_io import dump_json, load_trial, read_json, save_corpus

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NOT_CONVERGED = 2
EXIT_IO = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; 2 is reserved for solver
    # non-convergence, so route usage errors to the validation exit code.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer of at least 1, got {text!r}")
    return value


def _fraction(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 <= value <= 1.0:  # also rejects nan
        raise argparse.ArgumentTypeError(f"must be a number in [0, 1], got {text!r}")
    return value


def _config_file(cls, path):
    """``cls`` read from the JSON file ``path``, or its default when ``path`` is None."""
    if path is None:
        return cls()
    try:
        return cls.from_dict(read_json(path))
    except ValueError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def _sim_config(args) -> SimConfig:
    config = _config_file(SimConfig, args.config)
    if args.seed is not None:
        try:
            config = replace(config, seed=args.seed)
        except ValueError as exc:
            raise ValidationError(f"--seed: {exc}") from exc
    return config


def _solver_config(args) -> SolverConfig:
    return _config_file(SolverConfig, args.solver_config)


def _cmd_simulate(args) -> int:
    config = _sim_config(args)
    records = generate_corpus(config, args.n, args.failure_fraction)
    save_corpus(
        [record.trial for record in records],
        args.out,
        sim_config_dict=config.to_dict(),
        seed=config.seed,
    )
    n_fail = sum(1 for r in records if r.trial.label is Label.FAILURE)
    print(
        f"wrote {len(records)} trials ({len(records) - n_fail} success, "
        f"{n_fail} failure) to {args.out}"
    )
    return EXIT_OK


def _cmd_fit(args) -> int:
    trial = load_trial(args.trial)
    if not args.no_bias_compensation:
        trial = bias_compensate(trial)
    config = _solver_config(args)
    try:
        result = fit(trial, config, collect_trace=args.trace)
    except EvaluationFailureError as exc:
        print(f"fit failed: {exc}", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    doc = {"trial_id": trial.id, **{f.name: getattr(result, f.name) for f in fields(result)}}
    doc["r_o_hat"] = result.r_o_hat.as_array().tolist()
    if not args.with_timing:
        doc["runtime"] = None
    if args.trace:
        doc["trace"] = [[i, point.as_array().tolist(), cost] for i, point, cost in result.trace]
    else:
        del doc["trace"]
    sys.stdout.write(dump_json(doc))
    return EXIT_OK if result.converged else EXIT_NOT_CONVERGED


def _cmd_batch(args) -> int:
    config = _solver_config(args)
    report = run_batch(
        args.corpus, config, jobs=args.jobs, include_timing=args.with_timing
    )
    save_report(report, args.report)
    counts = report["counts"]
    print(
        f"fitted {counts['fitted']}/{counts['total']} trials "
        f"({counts['converged']} converged, {counts['failed']} failed) -> {args.report}"
    )
    return EXIT_OK


def _cmd_report(args) -> int:
    report = load_report(args.in_path)
    emit_plot_data(report, args.plot_data, args.out)
    print(f"wrote {args.plot_data} table to {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="stemfit",
        description=(
            "Estimate a fruit's stem attachment point from force/torque pull "
            "recordings; generate synthetic trial corpora and evaluation reports."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_sim = sub.add_parser("simulate", help="generate a synthetic trial corpus")
    p_sim.add_argument("--config", help="simulator config JSON file")
    p_sim.add_argument(
        "--n", type=_positive_int, required=True, help="number of trials (at least 1)"
    )
    p_sim.add_argument(
        "--failure-fraction",
        type=_fraction,
        default=0.0,
        help="fraction of trials generated with a compliant grasp, in [0, 1] (default 0)",
    )
    p_sim.add_argument("--seed", type=int, help="override the config seed")
    p_sim.add_argument("--out", required=True, help="output corpus directory")
    p_sim.set_defaults(func=_cmd_simulate)

    p_fit = sub.add_parser("fit", help="fit a single trial file")
    p_fit.add_argument("--trial", required=True, help="trial file (.trial, or a v1/v2 .json)")
    p_fit.add_argument(
        "--no-bias-compensation",
        action="store_true",
        help="do not subtract the first sample's wrench before fitting",
    )
    p_fit.add_argument("--solver-config", help="solver config JSON file")
    p_fit.add_argument("--trace", action="store_true", help="include the iterate trace")
    p_fit.add_argument(
        "--with-timing",
        action="store_true",
        help="give the wall-clock runtime (makes the output non-reproducible)",
    )
    p_fit.set_defaults(func=_cmd_fit)

    p_batch = sub.add_parser("batch", help="fit a corpus and write a report")
    p_batch.add_argument("--corpus", required=True, help="corpus directory")
    p_batch.add_argument("--solver-config", help="solver config JSON file")
    p_batch.add_argument(
        "--jobs", type=_positive_int, default=1, help="parallel workers (at least 1)"
    )
    p_batch.add_argument("--report", required=True, help="output report JSON file")
    p_batch.add_argument(
        "--with-timing",
        action="store_true",
        help="embed wall-clock timing (makes the report non-reproducible)",
    )
    p_batch.set_defaults(func=_cmd_batch)

    p_rep = sub.add_parser("report", help="export plot-ready tables from a report")
    p_rep.add_argument("--in", dest="in_path", required=True, help="report JSON file")
    p_rep.add_argument(
        "--plot-data",
        required=True,
        help="table kind: error_vs_mse, runtime_hist, or joint_locations",
    )
    p_rep.add_argument("--out", required=True, help="output CSV file")
    p_rep.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help exits 0, usage errors exit 1
        return int(exc.code or 0)
    try:
        return args.func(args)
    except StemfitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
