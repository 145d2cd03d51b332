"""Tests of the benchmark itself.

    python3 -m pytest perfbench

The tracing test runs each workload's operation untraced (warm-up), traced,
and untraced again, with Adam cut to a few iterations, at the benchmark's
pinned BLAS thread count, and requires all three to write identical files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
from worker import tail_percentile  # noqa: E402


def test_benchmark_json_matches_the_code():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == spans.per_layer_specs()


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_operation_writes_the_same_bytes(workload, tmp_path):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", "3",
           "--seconds", "0", "--trace", "1", "--adam-iters", "30", "--out", str(tmp_path / "ops")]
    done = subprocess.run(cmd, capture_output=True, text=True, env=run._env(), cwd=ROOT, timeout=170)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["attempted"] == 3
    assert not [p for p in result["problems"] if "bytes differ" in p], result["problems"]
    layers = result["layers"]
    assert layers["trace.self_sum_s"] == pytest.approx(layers["trace.wall_s"], rel=0.02)
    assert {s["op"] for s in result["spans"]} == {1}


def test_tracer_restores_every_binding():
    import importlib

    before = {(m, a): getattr(importlib.import_module(m), a)
              for layer in spans.LAYERS for m, a in layer.sites}
    tracer = spans.Tracer()
    tracer.install(0)
    assert all(getattr(importlib.import_module(m), a) is not f for (m, a), f in before.items())
    tracer.uninstall()
    assert all(getattr(importlib.import_module(m), a) is f for (m, a), f in before.items())


def test_tail_percentile_leaves_ten_samples_above():
    assert tail_percentile([1.0] * 10) is None
    pct, value = tail_percentile([float(v) for v in range(20)])
    assert (pct, value) == (50, 9.0)
    assert sum(v > value for v in range(20)) == 10


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "model-gmp",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
