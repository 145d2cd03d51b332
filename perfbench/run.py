"""padpd benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload model-conv --seed 1 --seconds 24 --trace 0

Run from the repository root (it needs ``src/padpd``). BLAS and OpenMP
threads are pinned to BLAS_THREADS in every process it starts. Set-up time
is the median over SETUP_PROBES fresh interpreters plus the measuring
worker's own start: from process launch to padpd imported and the workload
ready. Everything is printed by name with its unit; the last line is the
JSON result, whose metrics are the end-to-end ones with ``--trace 0`` and
the per-layer ones with ``--trace 1``. Spans and the full result are also
written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("model-conv", "dpd-conv", "model-gmp", "model-mlp")
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 2
TIME_LIMIT_S = 170.0

# (name, unit) of every end-to-end metric, in BENCHMARK.json order.
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
    ("nmse_depth_db", "dB"),
    ("acpr_db", "dB"),
)


def _env() -> dict:
    return dict(os.environ, **{v: BLAS_THREADS for v in THREAD_VARS})


def _start(args, extra: list[str], deadline: float):
    """Launch the worker; return (process, seconds until it printed 'ready')."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), *extra]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=_env(), cwd=ROOT)
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        line = proc.stdout.readline() if sel.select(deadline - time.perf_counter()) else ""
    ready = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not get ready (said {line.strip()!r})")
    return proc, ready


def _finish(proc, deadline: float) -> str:
    """Wait for a worker (killing it at the deadline); return its stdout."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker ran past {TIME_LIMIT_S:.0f} s")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return out


def run(args) -> dict:
    deadline = time.perf_counter() + TIME_LIMIT_S
    setups = []
    for _ in range(SETUP_PROBES):
        proc, ready = _start(args, ["--probe"], deadline)
        _finish(proc, deadline)
        setups.append(ready)
    proc, ready = _start(args, ["--seconds", str(args.seconds), "--trace", str(args.trace)], deadline)
    setups.append(ready)
    result = json.loads(_finish(proc, deadline).strip().splitlines()[-1])
    result["setup_s"] = statistics.median(setups)
    result["setup_samples"] = setups
    return result


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def report(args, result: dict) -> dict:
    attempted, failed = result["attempted"], result["failed"]
    quality = result["quality"]
    values = {
        "wall_s": result["wall_s"],
        "setup_s": result["setup_s"],
        "peak_rss_mb": result["peak_rss_mb"],
        "ok_frac": (attempted - failed) / attempted,
        "nmse_depth_db": quality.get("nmse_depth_db", float("nan")),
        "acpr_db": quality.get("acpr_db", float("nan")),
    }
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print(f"fingerprint {json.dumps(result['fingerprint'], sort_keys=True)}")
    for problem in result["problems"]:
        print(f"FAILED CHECK {problem}")
    print(f"operations attempted {attempted}  failed {failed}  fail_frac {failed / attempted:.6g}")
    tail = result["tail"]
    tail_text = f"p{tail[0]} {_fmt(tail[1])} s" if tail else "no tail percentile (fewer than 11 samples)"
    print(f"wall_s {_fmt(values['wall_s'])} s  (median of n={result['wall_n']}; {tail_text})")
    print(f"setup_s {_fmt(values['setup_s'])} s  (median of n={len(result['setup_samples'])})")
    for name, unit in END_TO_END[2:]:
        print(f"{name} {_fmt(values[name])} {unit}")
    print(f"  peak_rss_run_mb {_fmt(result['peak_rss_run_mb'])} MB  (whole run, {attempted} operations)")
    for name, value in sorted(quality.items()):
        if name not in values:
            print(f"  {name} {_fmt(value)} dB")
    if args.trace:
        from spans import per_layer_specs

        units = {name: unit for name, unit, _better in per_layer_specs()}
        for name, value in result["layers"].items():
            print(f"  {name} {_fmt(value)} {units[name]}")
        metrics = {n: {"value": result["layers"][n], "unit": units[n]} for n in units}
    else:
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return {
        "correct": failed == 0 and not result["problems"],
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "padpd" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'padpd'} not found; run from a padpd checkout",
              file=sys.stderr)
        return 2
    try:
        result = run(args)
    except (RuntimeError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    line = report(args, result)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(dict(result, summary=line)) + "\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
