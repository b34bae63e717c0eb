"""Self-tests of the benchmark, at tiny sizes.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import child  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


@functools.lru_cache(maxsize=None)
def bench_run(workload: str, trace: int, repeat: int = 0):
    """(result, detail) of one shortest run.py invocation: with --seconds 0
    both modes run the workload's trace_ops operations."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["detail"]


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_runs_are_whole_cycles(name):
    wl = workloads.WORKLOADS[name]
    assert wl.trace_ops > 0 and wl.trace_ops % wl.cycle_len == 0


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_workload_emits_every_metric(workload, trace, section):
    result, detail = bench_run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, detail
    assert result["attempted"] == workloads.WORKLOADS[workload].trace_ops
    expected = {m["name"]: m["unit"] for m in BENCH[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if section == "end_to_end":
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        assert detail["digest_matches_untraced"]


def test_wrong_expected_secret_is_a_failure_not_a_crash(tmp_path):
    wl = workloads.ShareIdealized(5, tmp_path)
    wl.setup()
    make_op = wl.op

    def corrupted(i):
        op = make_op(i)
        if i == 1:
            op.expected = op.expected + b"!"
        return op

    wl.op = corrupted
    wl.trace_ops = wl.cycle_len
    res = child.measure(wl, "fixed", 0.0, 5)
    assert (res["attempted"], res["failed"], res["correct"]) == (5, 1, False)
    assert res["latency_ms"]["n"] == 4
    assert "wrong output" in res["failures"][0]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_two_seeds_give_disjoint_inputs(name, tmp_path):
    def inputs(seed):
        wl = workloads.WORKLOADS[name](seed, tmp_path)
        wl.setup()
        return {wl.op(i).inputs for i in range(wl.cycle_len)}

    first, second = inputs(1), inputs(2)
    assert len(first) == len(second) == workloads.WORKLOADS[name].cycle_len
    assert first.isdisjoint(second)


@pytest.mark.parametrize("workload,counters", [
    ("reduction", ("rng.Stream.draws", "harness.mest.calls")),
    ("share_cnf", ("rng.Stream.draws", "circuits.compile_mprime.gates", "cnf.tseitin.clauses")),
])
def test_traced_counts_repeat_exactly(workload, counters):
    first, _ = bench_run(workload, 1)
    second, _ = bench_run(workload, 1, repeat=1)
    for name in counters:
        assert first["metrics"][name]["value"] > 0
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(
        ".out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "reduction", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_only_timed_operations_are_counted():
    import tracing

    tracer = tracing.Tracer()
    square = tracer.wrap("demo.square", lambda x: x * x)
    square(2)                        # input building: op id -1
    tracer.op = 0
    assert square(3) == 9
    tracer.op = -1
    assert tracer.calls["demo.square"] == 1
    assert list(tracer.span_op) == [-1, 0]
