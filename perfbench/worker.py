"""Measuring process: runs one workload in a closed loop and prints a JSON line.

Started by run.py with the BLAS thread variables already pinned, so numpy
picks them up at import. It prints ``ready`` once padpd is imported and the
workload's configs are built (the end of set-up), then runs operations one
at a time until the next one would not fit in ``--seconds``. With
``--trace 1`` the first operation only warms up, and the rest alternate
traced and untraced (at least one of each). Every call's output is checked,
and every operation's files must match the first operation's byte for byte,
traced or not.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from padpd.experiment import config_hash  # noqa: E402
from run import THREAD_VARS  # noqa: E402
from spans import Tracer, layer_values  # noqa: E402
from workloads import WORKLOADS, with_adam_iters  # noqa: E402


def fingerprint(configs) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": "unknown", "version": "unknown"}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "cpu_count": os.cpu_count(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "config_hashes": [config_hash(c) for c in configs],
    }


def _snapshot(directory: Path) -> dict:
    return {str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples above it."""
    n = len(samples)
    if n < 11:
        return None
    return int(100 * (n - 10) / n), sorted(samples)[n - 11]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, configs, seconds: float, trace: bool, out_root: Path) -> dict:
    tracer = Tracer() if trace else None
    warmup = 1 if trace else 0
    times = {False: [], True: []}
    every = []
    problems: list[str] = []
    reference = quality = None
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        op = attempted
        traced = trace and op % 2 == 1
        op_dir = out_root / f"op{op}"
        if traced:
            tracer.install(op)
        t0 = time.perf_counter()
        try:
            reports = [workload.call(cfg, op_dir / f"call{j}") for j, cfg in enumerate(configs)]
            error = None
        except Exception as exc:  # a failed operation is counted, not fatal
            reports, error = None, f"op {op}: {type(exc).__name__}: {exc}"
        finally:
            elapsed = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
        attempted += 1
        if op == 0:
            # A second operation can raise the process's high-water mark (the
            # allocator keeps freed pages), so how many fit in the run would
            # move the figure; the bounded one is set-up plus one operation.
            first_rss = _peak_rss_mb()
        op_problems = [error] if error else []
        if reports is not None:
            for j, report in enumerate(reports):
                op_problems += [f"op {op}: {p}" for p in workload.check(report, op_dir / f"call{j}")]
            snapshot = _snapshot(op_dir)
            if reference is None:
                reference, quality = snapshot, workload.quality(reports)
            elif snapshot != reference:
                op_problems.append(f"op {op} (traced={traced}): output bytes differ from op 0")
        shutil.rmtree(op_dir, ignore_errors=True)
        problems += op_problems
        failed += bool(op_problems)
        every.append(elapsed)
        if op >= warmup:
            times[traced].append(elapsed)
        done = time.perf_counter() - start
        if attempted >= warmup + (2 if trace else 1) and done + statistics.median(every) > seconds:
            break

    walls = times[False]
    result = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "wall_s": statistics.median(walls),
        "wall_n": len(walls),
        "wall_samples": walls,
        "tail": tail_percentile(walls),
        "peak_rss_mb": first_rss,
        "peak_rss_run_mb": _peak_rss_mb(),
        "quality": quality or {},
    }
    if trace:
        summaries = [tracer.op_summary(op) for op in range(1, attempted, 2)]
        per_op = [layer_values(s) for s in summaries]
        layers = {k: statistics.median(v[k] for v in per_op) for k in per_op[0]}
        traced_wall = statistics.median(times[True])
        layers["trace.wall_s"] = traced_wall
        layers["trace.untraced_wall_s"] = result["wall_s"]
        layers["trace.overhead_s"] = traced_wall - result["wall_s"]
        layers["trace.self_sum_s"] = statistics.median(
            sum(e["self_s"] for e in s.values()) for s in summaries)
        result["layers"] = layers
        result["spans"] = [asdict(s) for s in tracer.spans]
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="directory for scratch outputs")
    parser.add_argument("--probe", action="store_true", help="stop after set-up")
    parser.add_argument("--adam-iters", type=int, help="shorten Adam further (tests only)")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    configs = workload.configs(args.seed)
    if args.adam_iters:
        configs = with_adam_iters(configs, args.adam_iters)
    print("ready", flush=True)
    if args.probe:
        return 0
    out_root = args.out or HERE / "out" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result = measure(workload, configs, args.seconds, bool(args.trace), out_root)
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
    result["fingerprint"] = fingerprint(configs)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
