"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest bench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(run.SRC))


def traced_pass(name, seed):
    ctx = workloads.Context(seed)
    ops = workloads.WORKLOADS[name](ctx, workloads.SIZES[name]["tiny"])
    tracer = tracing.Tracer()
    ctx.tracer = tracer
    times, failures = run.run_pass(ops, tracer)
    wall = sum(t[run.WALL] for t in times)
    return failures, dict(tracer.counters), tracer.spans, wall


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_counters_repeat_exactly_for_a_fixed_seed(name):
    failures, counters, spans, wall = traced_pass(name, 3)
    again = traced_pass(name, 3)
    assert failures == [] and again[0] == []
    assert counters == again[1]
    assert [s[0] for s in spans] == [s[0] for s in again[2]]
    metrics = tracing.layer_metrics(spans, counters, wall)
    busy = sum(metrics[f"{layer}.busy_s"] for layer in tracing.LAYERS)
    assert busy + metrics["other_s"] == pytest.approx(wall)


def test_tracing_rebinds_imported_names_and_restores_them():
    ctx = workloads.Context(0)
    m = ctx.mcf
    original = m.stochastic.batch_fire_steps
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert m.stochastic.batch_fire_steps is not original
        assert m.thermo.find_positive_path is m.graph.find_positive_path
        assert m.cli.cylinder_measure is m.stochastic.cylinder_measure
        gauss = m.catalog.build("gauss").system
        m.thermo.pressure_analysis(gauss, 6, 1)
    finally:
        tracer.uninstall()
    assert m.stochastic.batch_fire_steps is original
    names = [span[0] for span in tracer.spans]
    assert "graph.find_positive_path" in names
    root = names.index("thermo.pressure_analysis")
    assert tracer.spans[names.index("thermo.solve_kappa")][3] == root


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True,
        text=True, timeout=120,
    )


def test_last_line_is_the_result_object():
    proc = _run(ROOT, "--workload", "pressure", "--seed", "1", "--seconds", "1",
                "--trace", "0", "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "--workload", "pressure", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
