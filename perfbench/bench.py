"""Three-regime stemfit benchmark: simulate -> batch -> report.

Each workload is a seeded corpus. One run generates it with
``generate_corpus`` + ``save_corpus``, fits it with ``run_batch(jobs=1)`` and
``run_batch(jobs=nproc)``, writes the report and plot tables with
``save_report`` + ``emit_plot_data`` (the library calls the CLI makes), and
checks the outputs. The untraced run repeats simulate -> batch(jobs=1) ->
report until ``--seconds`` have passed (the jobs=N batch and the checks are
outside that window) and pools or averages the passes.
The traced run does one pass with every layer wrapped (see ``tracing``),
then repeats the batch untraced to get the tracing overhead and the parallel
figures. See README.md for the workloads, metrics and baseline.
"""

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import scipy

import stemfit
from stemfit.batch import PLOT_KINDS
from stemfit.spring_model import TrialArrays, constraint_values_jacobian
from stemfit.trial_io import dump_json, load_manifest

import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / ".out"
WORK_DIR = BENCH_DIR / ".work"

SETUP_PROBES = 5
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Welch p-value under which the failure-class signature (criterion 04) holds
WELCH_P_MAX = 0.01
# units of the end-to-end figures that are printed but not bounded
INFO_UNITS = {
    "batch_trials_per_s": "trials/s",
    "batch_parallel_trials_per_s": "trials/s",
    "fit_tail_ms": "ms",
    "fit_tail_percentile": "pct",
    "fit_failure_fraction": "ratio",
    "worker_peak_rss_mb": "MB",
}


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    held_out_seed: int
    n_trials: int
    failure_fraction: float
    pull_speed: float | None  # None keeps the SimConfig default

    def sim_config(self, seed: int) -> stemfit.SimConfig:
        config = stemfit.SimConfig(seed=seed)
        if self.pull_speed is not None:
            config = replace(config, pull_speed=self.pull_speed)
        return config


# Why each workload exists is in README.md. mixed-226 runs on request but is
# not in BENCHMARK.json: one pass takes ~35 s before any repeat, so its timings
# cannot be made steady within the run budget.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("mixed-12", 42, 4242, 105, 35 / 105, None),
        Workload("mixed-226", 9090, 9191, 42, 14 / 42, 5.0 / 632.0 / 0.45),
        Workload("rigid-2000", 7, 77, 30, 0.0, 5.0 / 632.0 / 4.0),
    )
}


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten of ``n`` samples beyond it
    (never below the median)."""
    if n <= 0:
        raise ValueError("tail_percentile needs at least one sample")
    return max(50, min(99, math.floor(100.0 * (1.0 - 10.0 / n) + 1e-9)))


def spec_metrics(kind: str) -> list[dict]:
    """The metric declarations of one kind (end_to_end or per_layer) in BENCHMARK.json."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())[kind]


def result_line(correct: bool, attempted: int, failed: int, values: dict, kind: str) -> str:
    specs = spec_metrics(kind)
    declared = [s["name"] for s in specs]
    if sorted(declared) != sorted(values):
        missing = sorted(set(declared) - set(values))
        extra = sorted(set(values) - set(declared))
        raise RuntimeError(f"metric set differs from BENCHMARK.json: missing {missing}, extra {extra}")
    metrics = {s["name"]: {"value": float(values[s["name"]]), "unit": s["unit"]} for s in specs}
    return json.dumps(
        {"correct": bool(correct), "attempted": int(attempted), "failed": int(failed), "metrics": metrics}
    )


def _blas(module) -> str:
    try:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')}"


def machine_facts() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"numpy": _blas(np), "scipy": _blas(scipy)},
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "platform": platform.platform(),
    }


def setup_seconds() -> float:
    """Wall time of a fresh interpreter importing stemfit."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import stemfit"
    start = time.perf_counter()
    # No timeout: with one, the wait polls every 50 ms and rounds the time up to that step.
    subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def simulate(workload: Workload, seed: int, corpus: Path):
    """generate_corpus + save_corpus as the CLI does; returns (seconds, samples)."""
    config = workload.sim_config(seed)
    start = time.perf_counter()
    records = stemfit.generate_corpus(config, workload.n_trials, workload.failure_fraction)
    stemfit.save_corpus(
        [r.trial for r in records], corpus, sim_config_dict=config.to_dict(), seed=config.seed
    )
    elapsed = time.perf_counter() - start
    return elapsed, sum(len(r.trial.samples) for r in records)


def batch(corpus: Path, jobs: int):
    start = time.perf_counter()
    report = stemfit.run_batch(corpus, stemfit.SolverConfig(), jobs=jobs, include_timing=True)
    return report, time.perf_counter() - start


def write_report(report: dict, out: Path) -> float:
    start = time.perf_counter()
    stemfit.save_report(report, out / "report.json")
    for kind in PLOT_KINDS:
        stemfit.emit_plot_data(report, kind, out / f"{kind}.csv")
    return time.perf_counter() - start


def without_timing(report: dict) -> str:
    return dump_json({key: value for key, value in report.items() if key != "timing"})


def fit_times(report: dict) -> list[float]:
    return list(report["timing"]["per_trial"].values())


def error_rows(report: dict) -> int:
    return sum(1 for row in report["per_trial"] if row["status"] != "ok")


def check_outputs(workload: Workload, corpus: Path, out: Path, report1: dict, report_n: dict):
    """Every check the run must pass; returns the list of failures (empty when correct)."""
    problems = []
    entries = load_manifest(corpus)["trials"]
    rows = report1["per_trial"]
    if [r["id"] for r in rows] != [e["id"] for e in entries]:
        problems.append("report rows do not match the manifest trials")
    if error_rows(report1):
        problems.append(f"{error_rows(report1)} of {len(entries)} trials not fitted")
    for label in ("success", "failure"):
        expected = sum(1 for e in entries if e["label"] == label)
        if report1["counts"][label] != expected:
            problems.append(f"{label} count {report1['counts'][label]} != manifest {expected}")

    tolerance = report1["solver_config"]["constraint_tolerance"]
    worst = -math.inf
    for row, entry in zip(rows, entries):
        if row["status"] == "ok" and row["converged"]:
            arrays = TrialArrays.from_trial(stemfit.load_trial(corpus / entry["file"]))
            values, _ = constraint_values_jacobian(np.asarray(row["r_o_hat"], dtype=float), arrays)
            worst = max(worst, float(values.max()))
    if worst > tolerance:
        problems.append(f"tension constraint violated by {worst:.3e} m > {tolerance:.1e} m")

    if without_timing(report1) != without_timing(report_n):
        problems.append("jobs=1 and jobs=N reports differ outside 'timing'")

    fitted = report1["counts"]["fitted"]
    for kind in PLOT_KINDS:
        lines = (out / f"{kind}.csv").read_text().splitlines()
        if len(lines) != fitted + 1:
            problems.append(f"{kind}.csv has {len(lines) - 1} rows, expected {fitted}")

    if workload.failure_fraction > 0.0:
        loc = (report1.get("class_comparison") or {}).get("localization_error")
        if loc is None:
            problems.append("no class comparison in the report")
        elif not (loc["failure"]["median"] > loc["success"]["median"] and loc["p_value"] < WELCH_P_MAX):
            problems.append(
                f"failure-class signature missing: medians {loc['failure']['median']:.4g} vs "
                f"{loc['success']['median']:.4g} m, Welch p {loc['p_value']:.3g}"
            )
    return problems, (worst if math.isfinite(worst) else None)


def peak_rss_mb(who=resource.RUSAGE_SELF) -> float:
    """Peak RSS of this process, or with ``RUSAGE_CHILDREN`` that of its
    largest ended child. A forked pool worker's peak includes the pages it
    shared with this process at the fork."""
    return resource.getrusage(who).ru_maxrss / 1024.0


@dataclass
class RunResult:
    """What one run hands to ``main``: metric values plus the bookkeeping."""

    values: dict
    problems: list
    attempted: int
    failed: int
    detail: dict
    info: dict = field(default_factory=dict)
    sample_counts: dict = field(default_factory=dict)


def run_untraced(workload: Workload, seed: int, seconds: float, work: Path, jobs: int) -> RunResult:
    """Passes of simulate -> batch(jobs=1) -> report until ``seconds`` have
    passed. After pass 0 the window stops while the jobs=N batch and the
    output checks run; the import probes come after the last pass, so the
    largest ended child is then a pool worker."""
    start = time.perf_counter()
    out = work / "pass0"
    corpus = out / "corpus"
    sim_s, samples = simulate(workload, seed, corpus)
    report1, batch1_s = batch(corpus, 1)
    passes = [{"simulate_s": sim_s, "batch1_s": batch1_s, "fits": fit_times(report1),
               "report_s": write_report(report1, out)}]
    paused = time.perf_counter()
    report_n, batch_n_s = batch(corpus, jobs)
    worker_mb = peak_rss_mb(resource.RUSAGE_CHILDREN)
    problems, worst = check_outputs(workload, corpus, out, report1, report_n)
    reference = without_timing(report1)
    failed = error_rows(report1) + error_rows(report_n)
    shutil.rmtree(out)
    start += time.perf_counter() - paused
    while time.perf_counter() - start < seconds:
        out = work / f"pass{len(passes)}"
        sim_s, _ = simulate(workload, seed, out / "corpus")
        report, batch1_s = batch(out / "corpus", 1)
        passes.append({"simulate_s": sim_s, "batch1_s": batch1_s, "fits": fit_times(report),
                       "report_s": write_report(report, out)})
        failed += error_rows(report)
        if without_timing(report) != reference:
            problems.append(f"pass {len(passes) - 1} report differs from pass 0 on the same seed")
        shutil.rmtree(out)
    setup = [setup_seconds() for _ in range(SETUP_PROBES)]

    n = workload.n_trials
    counts = report1["counts"]
    loc_success = report1["summary"]["localization_error"]["success"]
    tail = tail_percentile(n)
    k = len(passes)
    values = {
        "setup_s": statistics.median(setup),
        # Per-pass figures are averaged, not medianed: the machine's speed
        # switches between a fast and a slow state every few passes, and a
        # median of four to ten passes snaps to one state or the other.
        "simulate_trials_per_s": k * n / sum(p["simulate_s"] for p in passes),
        "fit_p50_ms": 1000.0 * statistics.mean(statistics.median(p["fits"]) for p in passes),
        "batch_nonfit_ms_per_trial": 1000.0
        * sum(p["batch1_s"] - sum(p["fits"]) for p in passes) / (k * n),
        "fit_converged_fraction": counts["converged"] / n,
        "success_loc_err_median_mm": 1000.0 * loc_success["median"],
        "peak_rss_mb": peak_rss_mb(),
    }
    info = {
        "batch_trials_per_s": n / passes[0]["batch1_s"],
        "batch_parallel_trials_per_s": n / batch_n_s,
        "fit_tail_ms": 1000.0 * statistics.mean(float(np.percentile(p["fits"], tail)) for p in passes),
        "fit_tail_percentile": tail,
        "fit_failure_fraction": (n - counts["converged"]) / n,
        "worker_peak_rss_mb": worker_mb,
    }
    sample_counts = {
        "setup_s": f"{SETUP_PROBES} imports",
        "simulate_trials_per_s": f"{k} passes x {n} trials",
        "fit_p50_ms": f"{k} passes x {n} fits",
        "batch_nonfit_ms_per_trial": f"{k} passes x {n} trials",
        "fit_converged_fraction": f"{counts['converged']}/{n} fits",
        "success_loc_err_median_mm": f"{loc_success['count']} success fits",
        "peak_rss_mb": "this process",
        "batch_trials_per_s": f"1 batch of {n}",
        "batch_parallel_trials_per_s": f"1 batch of {n}, jobs={jobs}",
        "fit_tail_ms": f"p{tail} of {n} fits, {k} passes",
        "fit_tail_percentile": f"highest with >= 10 of {n} fits beyond",
        "fit_failure_fraction": f"{n - counts['converged']}/{n} fits",
        "worker_peak_rss_mb": f"largest of {jobs} pool workers, incl. pages shared at fork",
    }
    detail = {"passes": passes, "batchN_s": batch_n_s, "samples": samples, "worst_constraint_m": worst,
              "setup_probes_s": setup}
    return RunResult(values, problems, (k + 1) * n, failed, detail, info, sample_counts)


# top-level spans of the write path (simulate) and the read path (batch)
PATH_ROOTS = {
    "simulate": ("simulator.generate_corpus", "trial_io.save_corpus"),
    "batch": ("batch.run_batch",),
}


def layer_metrics(tracer, manifest, traced_report, corpus, samples, sim_bytes):
    """Per-layer figures from the traced pass: spans, counts and the report."""
    spans = tracer.spans
    self_s = tracing.self_times(spans)
    by_name = defaultdict(list)
    for index, span in enumerate(spans):
        by_name[span[tracing.NAME]].append(index)

    def total(name):
        return sum(spans[i][tracing.END] - spans[i][tracing.START] for i in by_name[name])

    def own(name):
        return sum(self_s[i] for i in by_name[name])

    def calls(name):
        return len(by_name[name])

    n_trials = len(manifest["trials"])
    labels = {e["id"]: e["label"] for e in manifest["trials"]}
    fit_by_class = defaultdict(float)
    for i in by_name["solver.fit"]:
        span = spans[i]
        fit_by_class[labels.get(span[tracing.TRIAL])] += span[tracing.END] - span[tracing.START]

    rows = [r for r in traced_report["per_trial"] if r["status"] == "ok"]
    by_class = {c: [r for r in rows if r["label"] == c] for c in ("success", "failure")}
    restarted = [r for r in rows if r["restarts"] > 0]
    mse_target = traced_report["solver_config"]["mse_target"]
    bytes_read = sum((corpus / e["file"]).stat().st_size for e in manifest["trials"])

    evaluation_names = {"evaluation.summarize", "evaluation.class_comparison", "evaluation.welch_t_test"}
    summary_s = sum(
        spans[i][tracing.END] - spans[i][tracing.START]
        for name in evaluation_names
        for i in by_name[name]
        if spans[i][tracing.PARENT] < 0 or spans[spans[i][tracing.PARENT]][tracing.NAME] not in evaluation_names
    )
    generate_s = total("simulator.generate_corpus")
    load_s = total("trial_io.load_trial")
    values = {
        "simulator.generate_s": generate_s,
        "simulator.samples": samples,
        "simulator.us_per_sample": 1e6 * generate_s / samples,
        "trial_io.save_s": total("trial_io.save_corpus"),
        "trial_io.bytes_written": sim_bytes,
        "trial_io.load_s": load_s,
        "trial_io.bytes_read": bytes_read,
        "trial_io.load_us_per_sample": 1e6 * load_s / samples,
        **{
            f"{key}_per_trial.{path}": sum(tracer.root_counts[key, root] for root in roots) / n_trials
            for key in tracing.GEOMETRY_COUNTS
            for path, roots in PATH_ROOTS.items()
        },
        "spring_model.bias_s": total("spring_model.bias_compensate"),
        "spring_model.arrays_s": total("spring_model.TrialArrays.from_trial"),
        "spring_model.arrays_calls": calls("spring_model.TrialArrays.from_trial"),
        "spring_model.cost_calls": calls("spring_model.cost_and_gradient"),
        "spring_model.cost_s": total("spring_model.cost_and_gradient"),
        "spring_model.constraint_calls": calls("spring_model.constraint_values_jacobian"),
        "spring_model.constraint_s": total("spring_model.constraint_values_jacobian"),
        "spring_model.hessian_calls": calls("spring_model.cost_hessian"),
        "spring_model.hessian_s": total("spring_model.cost_hessian"),
        "spring_model.sample_passes": tracer.counts["spring_model.sample_passes"],
        "solver.fit_s.success": fit_by_class["success"],
        "solver.fit_s.failure": fit_by_class["failure"],
        "solver.fits.success": len(by_class["success"]),
        "solver.fits.failure": len(by_class["failure"]),
        "solver.iterations.success": sum(r["iterations"] for r in by_class["success"]),
        "solver.iterations.failure": sum(r["iterations"] for r in by_class["failure"]),
        "solver.iterations_median.success": _median_or_zero(r["iterations"] for r in by_class["success"]),
        "solver.iterations_median.failure": _median_or_zero(r["iterations"] for r in by_class["failure"]),
        "solver.restarts": sum(r["restarts"] for r in rows),
        "solver.restarted_fits": len(restarted),
        "solver.restart_yield": (
            sum(1 for r in restarted if r["final_mse"] <= mse_target) / len(restarted) if restarted else 0.0
        ),
        "solver.slsqp_calls": calls("solver.slsqp"),
        "solver.slsqp_s": own("solver.slsqp"),
        "solver.nnls_calls": calls("solver.nnls"),
        "solver.nnls_s": total("solver.nnls"),
        "solver.self_s": own("solver.fit"),
        "solver.converged.success": sum(1 for r in by_class["success"] if r["converged"]),
        "solver.converged.failure": sum(1 for r in by_class["failure"] if r["converged"]),
        "batch.overhead_s": total("batch.run_batch")
        - load_s
        - total("spring_model.bias_compensate")
        - total("solver.fit"),
        "batch.save_report_s": total("batch.save_report"),
        "batch.emit_plot_data_s": total("batch.emit_plot_data"),
        "evaluation.summary_s": summary_s,
    }
    return values


def _median_or_zero(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


def _tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def run_traced(workload: Workload, seed: int, work: Path, jobs: int, spans_path: Path) -> RunResult:
    """One traced pass (simulate, batch jobs=1, report), then the batch again
    untraced at jobs=1 and jobs=N; per-layer figures from spans and reports."""
    corpus = work / "corpus"
    with tracing.Tracer() as tracer:
        origin = time.perf_counter()
        _, samples = simulate(workload, seed, corpus)
        traced_report, traced_s = batch(corpus, 1)
        write_report(traced_report, work)
    restored = stemfit.solver.cost_and_gradient is stemfit.spring_model.cost_and_gradient
    sim_bytes = _tree_bytes(corpus)
    report1, batch1_s = batch(corpus, 1)
    report_n, batch_n_s = batch(corpus, jobs)
    worker_mb = peak_rss_mb(resource.RUSAGE_CHILDREN)
    problems, worst = check_outputs(workload, corpus, work, report1, report_n)
    if not restored:
        problems.append("tracer left wrappers installed")
    if without_timing(traced_report) != without_timing(report1):
        problems.append("traced and untraced reports differ outside 'timing'")
    manifest = load_manifest(corpus)
    values = layer_metrics(tracer, manifest, traced_report, corpus, samples, sim_bytes)
    n = workload.n_trials
    tail = tail_percentile(n)
    slowest_n = max(fit_times(report_n))
    values.update(
        {
            "batch.run_s.jobs1": batch1_s,
            "batch.run_s.jobsN": batch_n_s,
            "batch.jobs": jobs,
            "batch.trials_per_s.jobs1": n / batch1_s,
            "batch.trials_per_s.jobsN": n / batch_n_s,
            "batch.parallel_efficiency": batch1_s / (jobs * batch_n_s),
            "batch.straggler_share": slowest_n / batch_n_s,
            "batch.worker_peak_rss_mb": worker_mb,
            "batch.report_bytes": len(without_timing(traced_report).encode()),
            "batch.trace_overhead_s": traced_s - batch1_s,
            "solver.fit_tail_ms": 1000.0 * float(np.percentile(fit_times(report1), tail)),
            "solver.fit_tail_pct": tail,
        }
    )
    tracing.write_spans(tracer.spans, spans_path, origin)
    failed = error_rows(traced_report) + error_rows(report1) + error_rows(report_n)
    detail = {"spans": len(tracer.spans), "spans_file": spans_path.name, "worst_constraint_m": worst,
              "geometry_counts_by_root": {f"{key}@{root}": c for (key, root), c in tracer.root_counts.items()}}
    return RunResult(values, problems, 3 * n, failed, detail)


def _fmt(value) -> str:
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None, help="corpus seed (default: the workload's)")
    parser.add_argument(
        "--seconds", type=int, required=True, help="measurement window of the untraced run: run_seconds of BENCHMARK.json"
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    workload = WORKLOADS[args.workload]
    seed = workload.seed if args.seed is None else args.seed
    jobs = len(os.sched_getaffinity(0))
    facts = machine_facts()
    print(f"workload {workload.name}: seed {seed} (default {workload.seed}, held-out {workload.held_out_seed}), "
          f"{workload.n_trials} trials, failure fraction {workload.failure_fraction:.4f}, jobs {jobs}")
    print("machine " + json.dumps(facts, sort_keys=True))

    WORK_DIR.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-{seed}-", dir=WORK_DIR))
    tag = f"{workload.name}-seed{seed}-trace{args.trace}"
    try:
        if args.trace:
            spans_path = OUT_DIR / f"spans-{workload.name}-seed{seed}.csv.gz"
            result = run_traced(workload, seed, work, jobs, spans_path)
            kind = "per_layer"
        else:
            result = run_untraced(workload, seed, args.seconds, work, jobs)
            kind = "end_to_end"
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = {s["name"]: s["unit"] for s in spec_metrics(kind)}
    for name, value in result.values.items():
        note = f"  [{result.sample_counts[name]}]" if name in result.sample_counts else ""
        print(f"  {name:<36} {_fmt(value):>14} {units[name]}{note}")
    for name, value in result.info.items():
        print(f"  {name:<36} {_fmt(value):>14} {INFO_UNITS[name]} (info, not bounded)  "
              f"[{result.sample_counts[name]}]")
    for problem in result.problems:
        print(f"CHECK FAILED: {problem}")
    print("checks: " + ("all passed" if not result.problems else f"{len(result.problems)} failed"))
    elapsed = time.perf_counter() - started
    print(f"run took {elapsed:.1f} s")

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"result-{tag}.json").write_text(
        json.dumps(
            {"workload": workload.name, "seed": seed, "trace": args.trace, "machine": facts,
             "metrics": result.values, "info": result.info, "sample_counts": result.sample_counts,
             "problems": result.problems, "detail": result.detail, "elapsed_s": elapsed},
            indent=2, sort_keys=True,
        ) + "\n"
    )
    correct = not result.problems
    print(result_line(correct, result.attempted, result.failed + len(result.problems), result.values, kind))
    return 0 if correct else 1
