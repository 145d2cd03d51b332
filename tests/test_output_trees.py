"""The run lists of tools/output_trees.py and tools/time_to_quality.py parse
as CLI configs (nothing runs), and tools/tree_diff.py reports the differences
of two synthetic trees."""

import importlib.util
import json
import math
from dataclasses import replace
from pathlib import Path

import pytest

from padpd.cli import _load_config, build_parser
from padpd.experiment import ExperimentConfig


def _load_tool(name):
    path = Path(__file__).resolve().parents[1] / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


output_trees = _load_tool("output_trees")
time_to_quality = _load_tool("time_to_quality")
tree_diff = _load_tool("tree_diff")


def test_run_names_are_unique():
    names = [name for name, _, _, _ in output_trees.RUNS]
    assert len(names) == 23 and len(set(names)) == len(names)


@pytest.mark.parametrize("name, command, overrides, extra", output_trees.RUNS,
                         ids=[r[0] for r in output_trees.RUNS])
def test_every_run_parses_as_a_config(name, command, overrides, extra):
    args = build_parser().parse_args(output_trees.cli_args(name, command, overrides, extra))
    assert args.command == command and args.output_dir == name
    assert isinstance(_load_config(args), ExperimentConfig)


@pytest.mark.parametrize("budget", [300, 1000, 2000])
def test_time_to_quality_budgets_parse_as_default_configs(budget):
    cfg = _load_config(build_parser().parse_args(time_to_quality.cli_args(budget)))
    assert cfg == replace(ExperimentConfig(), adam=replace(ExperimentConfig().adam, max_iters=budget))


def _write_tree(root, files):
    for rel, text in files.items():
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_text(text)


def test_tree_diff_lists_the_largest_relative_difference_per_column_and_number(tmp_path, capsys):
    history = "# config_hash=ab\niter,mse,mu,accepted\n1,{},0.01,1\n2,{},0.001,{}\n"
    report = {"results": {"stage2": {"final_mse": 0.25, "reason": "stalled"}, "acpr_db": [-40.0, -41.5]},
              "n": 3}
    same = {"model.json": json.dumps({"w": [1.0, 2.0]}), "history.csv": history.format(0.5, 0.25, 0)}
    a, b = tmp_path / "a", tmp_path / "b"
    _write_tree(a, {"run/history.csv": history.format(1.0, 0.5, 1),
                    "run/report.json": json.dumps(report),
                    "run/stdout.txt": "ok\n", "run/old.csv": "x\n1\n",
                    **{f"same/{k}": v for k, v in same.items()}})
    report["results"]["stage2"]["final_mse"] = 0.25 * (1 + 2**-50)
    report["results"]["acpr_db"][1] = -41.0
    _write_tree(b, {"run/history.csv": history.format(1.0 + 2**-48, 0.5 * (1 - 2**-52), 1),
                    "run/report.json": json.dumps(report),
                    "run/stdout.txt": "done\n",
                    **{f"same/{k}": v for k, v in same.items()}})
    assert tree_diff.main([str(a), str(b)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "run/history.csv",
        f"  mse: {2**-48 / (1 + 2**-48):.2g}",
        f"run/old.csv: only in {a}",
        "run/report.json",
        f"  results.stage2.final_mse: {2**-50 / (1 + 2**-50):.2g}",
        f"  results.acpr_db[1]: {0.5 / 41.5:.2g}",
        "run/stdout.txt",
        "  contents: differs",
    ]
    assert tree_diff.main([str(a / "same"), str(b / "same")]) == 0
    assert capsys.readouterr().out == ""


def test_tree_diff_names_what_has_no_relative_difference():
    assert tree_diff.rel_diff(math.nan, math.nan) == 0.0
    assert tree_diff.rel_diff(math.nan, 1.0) == math.inf
    assert tree_diff.rel_diff(0.0, -0.0) == 0.0
    assert tree_diff.rel_diff(-2.0, 2.0) == 2.0
    assert tree_diff.csv_diffs("a,b\n1,x\n", "a,b\n1,y\n") == [("b", None)]
    assert tree_diff.csv_diffs("a\n1\n", "a\n1\n2\n") == [("header or row count", None)]
    # a differing comment does not hide the columns under it
    assert tree_diff.csv_diffs("# h=1\na\n1\n", "# h=2\na\n2\n") == [("comment", None), ("a", 0.5)]
    assert tree_diff.json_diffs({"k": [1, 2]}, {"k": [1]}) == [("k", None)]
    assert tree_diff.json_diffs({"k": True}, {"k": False}) == [("k", None)]
    assert tree_diff.json_diffs({"k": 1}, {"j": 1}) == [(".", None)]
