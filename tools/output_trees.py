"""Output trees of a fixed list of CLI runs, for byte-identity checks.

    python3 tools/output_trees.py --checkout ../parent --out ../trees-parent
    python3 tools/output_trees.py --checkout . --out ../trees-change
    diff -r ../trees-parent ../trees-change

Each run is ``python -m padpd.cli`` from the checkout's ``src``, at
OPENBLAS_NUM_THREADS=1 (outputs keep their bytes only at a fixed BLAS thread
count), with ``--out`` as the working directory, so that the paths written
into the outputs are the same for every checkout. A run's output directory
is ``<out>/<name>``, and its stdout goes to ``<out>/<name>/stdout.txt``. The
runs go in list order, since two reuse the filter of an earlier one; a run
that exits non-zero stops the tool with exit 1.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

_MLP_MODELS = ("rvtdnn", "arvtdnn", "dnn")
_SEED_1 = ("signal.seed=1", "split_seed=1")
_CRITERION_10 = ["signal.n_symbols=6", "adam.max_iters=200", "lm.max_iters=15", "dataset_count=800", "segment=512"]

# (name, subcommand, --set overrides, further arguments)
RUNS = [
    ("conv-300", "run", ["adam.max_iters=300"], []),
    ("dpd-2000", "dpd", ["dataset_count=5000", "adam.max_iters=2000"], []),
    ("dpd-reuse", "dpd",
     ["dataset_count=5000", "adam.max_iters=2000", "reuse_filter_from=dpd-2000/inverse_model.json"], []),
    ("conv-case3-sigmoid", "run",
     ["adam.max_iters=300", "impairment_case=3", "arch.fc_activation.kind=sigmoid"], []),
    ("criterion-10", "run", _CRITERION_10, []),
    # LM starts above its damping limit: two accepted steps, then the first rejected one stops it
    ("lm-damping-limit", "run", [*_CRITERION_10, "lm.mu_max=0.001"], []),
    # a second calibration shape: another PA seed, and no fifth-order term
    ("pa-seed1-k3", "run", [*_CRITERION_10, "pa_seed=1", "pa_k_order=3"], []),
    # LM stops at its first gradient check: a conv fit that writes no history_stage2.csv
    ("lm-first-check", "run", [*_CRITERION_10, "lm.grad_tol=1"], []),
    # the DPD report at a second operating point: 6 dB of drive backoff
    ("dpd-backoff6", "dpd", [*_CRITERION_10, "drive_backoff_db=6"], []),
    ("conv-reuse", "run", ["adam.max_iters=300", "reuse_filter_from=conv-300/model.json"], []),
    ("gmp", "run", ["model=gmp", "adam.max_iters=200"], []),
    ("gmp-ridge", "run", ["model=gmp", "ridge=1e-8"], []),
    # 899 train rows: the fit's basis is one QR block
    ("gmp-one-block", "run", ["model=gmp", "dataset_count=1500"], []),
    *[(m, "run", [f"model={m}", "adam.max_iters=200"], []) for m in _MLP_MODELS],
    ("sweep-2-3", "sweep-memory",
     ["signal.n_symbols=4", "dataset_count=400", "segment=256", "adam.max_iters=150", "lm.max_iters=10"],
     ["--memory-depths", "2,3"]),
    # perfbench's four workloads at seed 1; the two conv workloads do not use the seed
    ("model-conv-seed1", "run", ["adam.max_iters=300"], []),
    ("dpd-conv-seed1", "dpd", ["dataset_count=5000", "adam.max_iters=2000"], []),
    *[(f"model-gmp-case{c}-seed1", "run", ["model=gmp", f"impairment_case={c}", *_SEED_1], [])
      for c in (1, 2, 3)],
    *[(f"model-mlp-{m}-seed1", "run", [f"model={m}", "adam.max_iters=200", *_SEED_1], [])
      for m in _MLP_MODELS],
]


def cli_args(name: str, command: str, overrides: list[str], extra: list[str]) -> list[str]:
    """The `padpd` arguments of one run."""
    return [command, *(a for o in overrides for a in ("--set", o)), *extra, "--output-dir", name]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", type=Path, required=True, help="the padpd tree whose code runs")
    parser.add_argument("--out", type=Path, required=True, help="directory for the output trees")
    args = parser.parse_args(argv)

    src = (args.checkout / "src").resolve()
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(src))
    env.pop("PADPD_VERBOSE", None)
    args.out.mkdir(parents=True, exist_ok=True)
    for name, command, overrides, extra in RUNS:
        proc = subprocess.run([sys.executable, "-m", "padpd.cli", *cli_args(name, command, overrides, extra)],
                              cwd=args.out, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"{name} exited {proc.returncode}: {proc.stderr.strip()}", file=sys.stderr)
            return 1
        (args.out / name / "stdout.txt").write_text(proc.stdout)
        print(f"{name}: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
