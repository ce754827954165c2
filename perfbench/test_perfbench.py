"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench -q
"""

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import stemfit  # noqa: E402
import bench  # noqa: E402
import tracing  # noqa: E402


def test_tail_percentile_is_highest_with_ten_beyond():
    assert bench.tail_percentile(105) == 90
    assert bench.tail_percentile(42) == 76
    assert bench.tail_percentile(30) == 66
    assert bench.tail_percentile(100) == 90
    assert bench.tail_percentile(20) == 50
    assert bench.tail_percentile(7) == 50
    assert bench.tail_percentile(5000) == 99
    for n in range(20, 1001):
        p = bench.tail_percentile(n)
        assert n * (100 - p) >= 1000
        assert p == 99 or n * (100 - (p + 1)) < 1000
        values = np.arange(n, dtype=float)
        assert np.count_nonzero(values > np.percentile(values, p)) >= 10


def test_self_time_subtracts_union_of_overlapping_children():
    spans = [
        ["root", 0.0, 10.0, -1, None],
        ["a", 1.0, 4.0, 0, None],
        ["b", 3.0, 6.0, 0, None],  # overlaps a on [3, 4]
        ["c", 5.0, 5.5, 2, None],  # grandchild: counts against b only
        ["d", 9.0, 12.0, 0, None],  # runs past its parent's end
    ]
    assert tracing.self_times(spans) == pytest.approx([4.0, 3.0, 2.5, 0.5, 3.0])


def _package_bindings():
    bindings = {}
    for name, module in list(sys.modules.items()):
        if name == "stemfit" or name.startswith("stemfit."):
            bindings.update({(name, k): v for k, v in vars(module).items()})
    classes = (
        stemfit.geometry.Vec3,
        stemfit.geometry.UnitQuaternion,
        stemfit.spring_model.TrialArrays,
    )
    for cls in classes:
        bindings.update({(cls.__qualname__, k): v for k, v in vars(cls).items()})
    return bindings


def test_tracer_records_spans_and_removes_its_wrappers():
    original = stemfit.spring_model.cost_and_gradient
    before = _package_bindings()
    record = stemfit.generate_trial(stemfit.SimConfig(), np.random.default_rng(3), "t-1")
    with tracing.Tracer() as tracer:
        assert stemfit.solver.cost_and_gradient is not original
        assert stemfit.solver.cost_and_gradient is stemfit.spring_model.cost_and_gradient
        stemfit.fit(stemfit.bias_compensate(record.trial))
    assert stemfit.solver.cost_and_gradient is stemfit.spring_model.cost_and_gradient
    assert stemfit.solver.cost_and_gradient is original
    after = _package_bindings()
    assert before.keys() == after.keys()
    assert [k for k in before if before[k] is not after[k]] == []

    names = [s[tracing.NAME] for s in tracer.spans]
    roots = [s[tracing.NAME] for s in tracer.spans if s[tracing.PARENT] < 0]
    assert roots == ["spring_model.bias_compensate", "solver.fit"]
    fit_index = names.index("solver.fit")
    kernels = [s for s in tracer.spans if s[tracing.NAME] == "spring_model.cost_and_gradient"]
    assert kernels and all(s[tracing.TRIAL] == "t-1" for s in kernels)
    assert any(s[tracing.PARENT] == fit_index for s in kernels)
    assert any(s[tracing.NAME] == "solver.slsqp" for s in tracer.spans)
    assert tracer.counts["spring_model.sample_passes"] >= len(kernels) * len(record.trial.samples)
    assert tracer.root_counts["geometry.vec3_built", "solver.fit"] > 0
    assert tracer.root_counts["geometry.vec3_built", "spring_model.bias_compensate"] > 0


def test_tracer_restores_after_an_exception():
    before = _package_bindings()
    with pytest.raises(RuntimeError):
        with tracing.Tracer():
            raise RuntimeError("boom")
    after = _package_bindings()
    assert [k for k in before if before[k] is not after[k]] == []


@pytest.fixture
def tiny_workload(monkeypatch, tmp_path):
    tiny = bench.Workload("tiny", 5, 6, 6, 0.0, None)
    monkeypatch.setitem(bench.WORKLOADS, "tiny", tiny)
    monkeypatch.setattr(bench, "OUT_DIR", tmp_path / "out")
    monkeypatch.setattr(bench, "WORK_DIR", tmp_path / "work")
    return tiny


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metric_names_equal_declared(tiny_workload, capsys, trace, kind):
    code = bench.main(["--workload", "tiny", "--seconds", "0", "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in declared]
    table = {line.split()[0] for line in lines[:-1] if line.startswith("  ")}
    assert {m["name"] for m in declared} <= table
    assert [m["unit"] for m in result["metrics"].values()] == [m["unit"] for m in declared]
    assert stemfit.solver.cost_and_gradient is stemfit.spring_model.cost_and_gradient
