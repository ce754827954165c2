"""Run the stemfit benchmark from a checkout of the repository.

    python3 perfbench/run.py --workload mixed-12 [--seed N] --seconds 40 [--trace 0|1]

``--seconds`` is the measurement window; pass ``run_seconds`` of BENCHMARK.json.

The program is imported from the checkout's ``src/`` tree, never from an
installed copy; without that tree the run stops with exit code 2.
"""

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"


def main() -> int:
    if not (SRC / "stemfit" / "__init__.py").is_file():
        print(f"error: no stemfit source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import stemfit

    if Path(stemfit.__file__).resolve().parent != (SRC / "stemfit").resolve():
        print(f"error: imported stemfit from {stemfit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import bench

    return bench.main()


if __name__ == "__main__":
    sys.exit(main())
