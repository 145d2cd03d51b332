"""Tests for the verdicts of tools/bench_pairs.py, on synthetic run values."""

import importlib.util
import json
import os
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def judge(parent, change, better="lower", bound=0.25):
    runs = {side: [{"metrics": {"m": {"value": v, "unit": "s"}}} for v in values]
            for side, values in (("parent", parent), ("change", change))}
    summary = bench_pairs.summarize(runs, {"m": better})["m"]
    return bench_pairs.verdict(summary, bound)


PARENT = [3.30, 3.34, 3.28, 3.36, 3.31, 3.33, 3.29, 3.35, 3.32, 3.30]


@pytest.mark.parametrize("parent, change, better, expect", [
    # wins 10/10 by more than the parent's interquartile spread
    (PARENT, [v - 0.3 for v in PARENT], "lower", "gain"),
    # wins 9/10: still a gain
    (PARENT, [v - 0.3 for v in PARENT[:9]] + [3.40], "lower", "gain"),
    # wins 8/10: not a gain, and within the bound
    (PARENT, [v - 0.3 for v in PARENT[:8]] + [3.40, 3.40], "lower", "same"),
    # wins every pair, but by less than the parent's spread
    (PARENT, [v - 0.001 for v in PARENT], "lower", "same"),
    # median 30 % worse, bound 25 %
    (PARENT, [v * 1.3 for v in PARENT], "lower", "worse"),
    # median 20 % worse: within the bound
    (PARENT, [v * 1.2 for v in PARENT], "lower", "same"),
    # a parent spread wider than the bound hides whatever the change does
    ([1.0, 3.0, 1.2, 2.8, 1.1, 2.9, 1.0, 3.1, 1.2, 2.9], [2.0] * 10, "lower", "unresolved"),
    # so does a change spread that wide
    (PARENT, [2.0, 4.5, 2.1, 4.4, 2.0, 4.6, 2.2, 4.5, 2.1, 4.4], "lower", "unresolved"),
    # higher is better: a quality figure in dB that drops by 10 dB at a 15 % bound of 35 dB
    ([-35.0] * 5, [-45.0] * 5, "higher", "worse"),
    ([-35.0] * 5, [-35.0] * 5, "higher", "same"),
    # a gain needs all of 5 pairs
    ([-35.0, -35.1, -34.9, -35.0, -35.0], [-34.0, -34.1, -33.9, -34.0, -35.5], "higher", "same"),
    ([-35.0, -35.1, -34.9, -35.0, -35.0], [-34.0, -34.1, -33.9, -34.0, -33.5], "higher", "gain"),
    # identical success ratios
    ([1.0] * 5, [1.0] * 5, "higher", "same"),
    # a spread wider than the bound leaves a metric resolved when every run of
    # the change reads better than every run of the parent
    ([1.0, 3.0, 1.2, 2.8, 1.1, 2.9, 1.0, 3.1, 1.2, 2.9], [0.9] * 10, "lower", "same"),
    ([-40.0, -30.0, -30.5, -30.2, -40.1], [-29.9] * 5, "higher", "same"),
])
def test_verdicts(parent, change, better, expect):
    bound = 0.15 if better == "higher" else 0.25
    assert judge(parent, change, better, bound) == expect


def test_env_reaches_every_run_and_the_output(tmp_path, monkeypatch):
    """Each --env setting is in the environment of every perfbench run on both
    sides, and the output file records the settings."""
    checkouts = {side: tmp_path / side for side in ("parent", "change")}
    for path in checkouts.values():
        path.mkdir()
    (checkouts["change"] / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.25}], "per_layer": []}))
    seen = []

    def fake_run(cmd, cwd=None, env=None, **kwargs):
        if cmd[0] == "git":  # the commit lookup: not a git tree
            raise subprocess.CalledProcessError(128, cmd)
        seen.append((Path(cwd), env))
        line = {"correct": True, "metrics": {"wall_s": {"value": 1.0 + len(seen), "unit": "s"}}}
        return subprocess.CompletedProcess(cmd, 0, stdout=f'fingerprint {{"numpy": "x"}}\n{json.dumps(line)}\n',
                                           stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    out = tmp_path / "bench.json"
    tunable = "glibc.malloc.mmap_threshold=131072"
    assert bench_pairs.main(["--workload", "model-gmp", "--parent", str(checkouts["parent"]),
                             "--change", str(checkouts["change"]), "--pairs", "2", "--out", str(out),
                             "--env", f"GLIBC_TUNABLES={tunable}", "--env", "PADPD_X=a=b"]) == 0
    assert sorted(cwd.name for cwd, _ in seen) == ["change", "change", "parent", "parent"]
    for _, env in seen:
        assert env["GLIBC_TUNABLES"] == tunable and env["PADPD_X"] == "a=b"
        assert env["PATH"] == os.environ["PATH"]  # added to the caller's environment
    entry = json.loads(out.read_text())["model-gmp"]
    assert entry["env"] == {"GLIBC_TUNABLES": tunable, "PADPD_X": "a=b"}
    assert entry["metrics"]["wall_s"]["parent"]["values"] == [2.0, 5.0]

    with pytest.raises(SystemExit):
        bench_pairs.main(["--workload", "w", "--parent", ".", "--change", ".", "--out", str(out),
                          "--env", "NOVALUE"])
