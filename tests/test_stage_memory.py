"""tools/stage_memory.py on one model-gmp call: the stages nest as the
pipeline runs them, and no row reads past the run's final mark."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
STAGES = ("signal", "pa", "transmit", "train", "dataset", "metrics")


def test_one_call_prints_each_stage_in_call_order():
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "stage_memory.py"), "--checkout", str(ROOT),
                           "--call", "model-gmp:0"], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    head, columns, *rows = proc.stdout.splitlines()
    assert head.startswith("model-gmp[0] seed 1: ") and head.endswith(" MB after the run")
    assert columns.split() == ["stage", "or", "function", "calls", "rise", "MB", "mark", "MB"]
    final = float(head.split()[-5])
    stage_rows = [row for row in rows if row.split()[0] in STAGES]
    assert [row.split()[0] for row in stage_rows] == list(STAGES)
    # only the dataset stage runs inside another one, the train stage
    assert [row.split()[0] for row in stage_rows if row.startswith("    ")] == ["dataset"]
    for row in rows:
        calls, rise, mark = row.split()[-3:]
        assert int(calls) >= 1 and float(rise) >= 0 and float(mark) <= final
