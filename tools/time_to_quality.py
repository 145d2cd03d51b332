"""Time to quality of the default case-1 conv model at several Adam budgets.

    python3 tools/time_to_quality.py --checkout ../parent --adam 300,1000,2000
    python3 tools/time_to_quality.py --checkout . --adam 300,1000,2000

For each budget, a fresh interpreter running the checkout's ``src`` at
OPENBLAS_NUM_THREADS=1 reads the config of ``padpd run --set
adam.max_iters=<budget>`` through the CLI's own parser, runs
`run_experiment` once into a temporary directory, and prints one JSON line:
the budget, the in-process wall time of that call in seconds, the test NMSE
and its train/test gap in dB, and LM's steps, accepted steps and stop
reason. A run that exits non-zero stops the tool with exit 1.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

_CHILD = """
import json, sys, tempfile, time
from pathlib import Path
from padpd.cli import _load_config, build_parser
from padpd.experiment import run_experiment

cfg = _load_config(build_parser().parse_args(sys.argv[1:]))
with tempfile.TemporaryDirectory() as out:
    start = time.perf_counter()
    report = run_experiment(cfg, Path(out))
    wall = time.perf_counter() - start
    rows = (Path(out) / "history_stage2.csv").read_text().splitlines()[2:]
res = report["results"]
print(json.dumps({
    "adam_iters": cfg.adam.max_iters,
    "wall_s": round(wall, 3),
    "nmse_test_db": round(res["nmse_test_db"], 3),
    "gap_db": round(abs(res["nmse_train_db"] - res["nmse_test_db"]), 3),
    "lm_steps": res["stage2"]["iters"],
    "lm_accepted": sum(int(row.split(",")[3]) for row in rows),
    "lm_reason": res["stage2"]["reason"],
}))
"""


def cli_args(adam_iters: int) -> list[str]:
    """The `padpd` arguments whose config one budget's run reads."""
    return ["run", "--set", f"adam.max_iters={adam_iters}", "--output-dir", "time-to-quality"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", type=Path, required=True, help="the padpd tree whose code runs")
    parser.add_argument("--adam", default="300,1000,2000", help="comma-separated Adam budgets")
    args = parser.parse_args(argv)

    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str((args.checkout / "src").resolve()))
    env.pop("PADPD_VERBOSE", None)
    for budget in (int(b) for b in args.adam.split(",")):
        proc = subprocess.run([sys.executable, "-c", _CHILD, *cli_args(budget)], env=env,
                              capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"adam {budget} exited {proc.returncode}: {proc.stderr.strip()}", file=sys.stderr)
            return 1
        print(proc.stdout.strip().splitlines()[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
