"""Run one workload over several seeds; report each metric's median, quartiles and spread.

    python3 perfbench/spread.py --workload mixed-12 --seeds 1-10 [--trace 0|1]

Each run measures for run_seconds of BENCHMARK.json. Spread is
(Q3 - Q1) / median, with the quartiles of ``statistics.quantiles(values, n=4)``.
For end-to-end metrics it is also given as a share of the metric's bound in
BENCHMARK.json. Every run's result line is appended to
``perfbench/.out/spread-<workload>-trace<t>.jsonl``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    log = BENCH_DIR / ".out" / f"spread-{args.workload}-trace{args.trace}.jsonl"
    log.parent.mkdir(parents=True, exist_ok=True)
    values, incorrect = {}, 0
    for seed in parse_seeds(args.seeds):
        command = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
        out = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        with log.open("a") as handle:
            handle.write(json.dumps({"seed": seed, **result}) + "\n")
        incorrect += not result["correct"]
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: correct={result['correct']} exit={out.returncode}", flush=True)

    print(f"{'metric':<36} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'/bound':>7}")
    for name, vals in values.items():
        q1, median, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        spread = (q3 - q1) / median if median else float("nan")
        share = f"{spread / bounds[name]:7.2f}" if name in bounds else ""
        print(f"{name:<36} {median:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f} {share}")
    print(f"{incorrect} incorrect runs")
    return 1 if incorrect else 0


if __name__ == "__main__":
    sys.exit(main())
