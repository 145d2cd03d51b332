"""How much each pipeline stage raises a process's memory high-water mark.

    python3 tools/stage_memory.py --checkout . [--workload model-gmp ...] [--seed 1]

Each call of each perfbench workload (``perfbench/workloads.py``; model-gmp
and model-mlp make three) runs in a fresh interpreter on the checkout's
``src`` at OPENBLAS_NUM_THREADS=1, into a temporary directory. There every
stage that ``padpd.experiment`` runs through `_run_stage` (signal, pa,
transmit, dataset, train, metrics, linearize) and every padpd function it
calls by name is wrapped, and each call records how far it raised
``ru_maxrss``, the process's high-water mark. The tool prints, per call, the
mark after import and after the run, then one line per stage or function
nested as the calls were: how many calls, their summed rise and the mark
after the last of them, in MB of 1024 KB as perfbench's ``peak_rss_mb``.
A rise belongs to the innermost call running when it happened and to every
call around it. A run that exits non-zero stops the tool with exit 1.
"""

from __future__ import annotations

import argparse
import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_call(name: str, bench, index: int, seed: int) -> None:
    """Call ``index`` of workload ``bench`` in this process, with its stage
    table on stdout."""
    import padpd.experiment as experiment

    start = _maxrss_mb()
    rows: dict[tuple, list] = {}  # nesting path -> [calls, rise, mark after], in order of first call
    stack: list[str] = []
    stages = set()

    def record(name, fn, *args, **kwargs):
        stack.append(name)
        path, before = tuple(stack), _maxrss_mb()
        row = rows.setdefault(path, [0, 0.0, 0.0])
        try:
            return fn(*args, **kwargs)
        finally:
            after = _maxrss_mb()
            row[0] += 1
            row[1] += after - before
            row[2] = after
            stack.pop()

    def wrap(name, fn):
        return lambda *args, **kwargs: record(name, fn, *args, **kwargs)

    stage = experiment._run_stage

    def run_stage(name, fn, *args, **kwargs):
        stages.add(name)
        return record(name, stage, name, fn, *args, **kwargs)

    experiment._run_stage = run_stage
    for attr, value in vars(experiment).copy().items():
        if callable(value) and getattr(value, "__module__", "").startswith("padpd.") \
                and value.__module__ != experiment.__name__ and not isinstance(value, type):
            setattr(experiment, attr, wrap(attr, value))

    cfg = bench.configs(seed)[index]
    with tempfile.TemporaryDirectory() as out:
        getattr(experiment, bench.pipeline)(cfg, Path(out))
    print(f"{name}[{index}] seed {seed}: {start:.1f} MB after import, {_maxrss_mb():.1f} MB after the run")
    print(f"  {'stage or function':<34}{'calls':>6}{'rise MB':>10}{'mark MB':>10}")
    for path, (calls, rise, mark) in rows.items():
        if path[-1] not in stages and rise < 0.05:  # a function that raised nothing
            continue
        print(f"  {'  ' * (len(path) - 1) + path[-1]:<34}{calls:>6}{rise:>+10.1f}{mark:>10.1f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", type=Path, required=True, help="the padpd tree whose code runs")
    parser.add_argument("--workload", action="append",
                        help="a workload to measure (repeatable; default: every one)")
    parser.add_argument("--seed", type=int, default=1, help="the workload seed, as perfbench/run.py's")
    parser.add_argument("--call", help=argparse.SUPPRESS)  # WORKLOAD:INDEX, run in this process
    args = parser.parse_args(argv)

    checkout = args.checkout.resolve()
    sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]
    from workloads import WORKLOADS

    if args.call:
        workload, index = args.call.split(":")
        run_call(workload, WORKLOADS[workload], int(index), args.seed)
        return 0
    if unknown := sorted(set(args.workload or ()) - set(WORKLOADS)):
        parser.error(f"unknown workloads {unknown}; expected some of {sorted(WORKLOADS)}")

    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env.pop("PADPD_VERBOSE", None)
    for workload in args.workload or WORKLOADS:
        for index in range(len(WORKLOADS[workload].configs(args.seed))):
            proc = subprocess.run([sys.executable, __file__, "--checkout", str(checkout), "--seed", str(args.seed),
                                   "--call", f"{workload}:{index}"], env=env, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{workload}[{index}] exited {proc.returncode}: {proc.stderr.strip()}", file=sys.stderr)
                return 1
            print(proc.stdout, end="", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
