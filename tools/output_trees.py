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

# (name, subcommand, --set overrides)
RUNS = [
    ("conv-300", "run", ["adam.max_iters=300"]),
    ("dpd-2000", "dpd", ["dataset_count=5000", "adam.max_iters=2000"]),
    ("dpd-reuse", "dpd",
     ["dataset_count=5000", "adam.max_iters=2000", "reuse_filter_from=dpd-2000/inverse_model.json"]),
    ("conv-case3-sigmoid", "run",
     ["adam.max_iters=300", "impairment_case=3", "arch.fc_activation.kind=sigmoid"]),
    ("criterion-10", "run",
     ["signal.n_symbols=6", "adam.max_iters=200", "lm.max_iters=15", "dataset_count=800", "segment=512"]),
    ("conv-reuse", "run", ["adam.max_iters=300", "reuse_filter_from=conv-300/model.json"]),
    ("gmp", "run", ["model=gmp", "adam.max_iters=200"]),
    *[(m, "run", [f"model={m}", "adam.max_iters=200"]) for m in _MLP_MODELS],
    # perfbench's four workloads at seed 1; the two conv workloads do not use the seed
    ("model-conv-seed1", "run", ["adam.max_iters=300"]),
    ("dpd-conv-seed1", "dpd", ["dataset_count=5000", "adam.max_iters=2000"]),
    *[(f"model-gmp-case{c}-seed1", "run", ["model=gmp", f"impairment_case={c}", *_SEED_1]) for c in (1, 2, 3)],
    *[(f"model-mlp-{m}-seed1", "run", [f"model={m}", "adam.max_iters=200", *_SEED_1]) for m in _MLP_MODELS],
]


def cli_args(name: str, command: str, overrides: list[str]) -> list[str]:
    """The `padpd` arguments of one run."""
    return [command, *(a for o in overrides for a in ("--set", o)), "--output-dir", name]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", type=Path, required=True, help="the padpd tree whose code runs")
    parser.add_argument("--out", type=Path, required=True, help="directory for the output trees")
    args = parser.parse_args(argv)

    src = (args.checkout / "src").resolve()
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(src))
    env.pop("PADPD_VERBOSE", None)
    args.out.mkdir(parents=True, exist_ok=True)
    for name, command, overrides in RUNS:
        proc = subprocess.run([sys.executable, "-m", "padpd.cli", *cli_args(name, command, overrides)],
                              cwd=args.out, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"{name} exited {proc.returncode}: {proc.stderr.strip()}", file=sys.stderr)
            return 1
        (args.out / name / "stdout.txt").write_text(proc.stdout)
        print(f"{name}: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
