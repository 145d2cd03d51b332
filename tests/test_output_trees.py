"""The run list of tools/output_trees.py parses as CLI configs (nothing runs)."""

import importlib.util
from pathlib import Path

import pytest

from padpd.cli import _load_config, build_parser
from padpd.experiment import ExperimentConfig

_PATH = Path(__file__).resolve().parents[1] / "tools" / "output_trees.py"
_SPEC = importlib.util.spec_from_file_location("output_trees", _PATH)
output_trees = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(output_trees)


def test_run_names_are_unique():
    names = [name for name, _, _ in output_trees.RUNS]
    assert len(names) == 18 and len(set(names)) == len(names)


@pytest.mark.parametrize("name, command, overrides", output_trees.RUNS, ids=[r[0] for r in output_trees.RUNS])
def test_every_run_parses_as_a_config(name, command, overrides):
    args = build_parser().parse_args(output_trees.cli_args(name, command, overrides))
    assert args.command == command and args.output_dir == name
    assert isinstance(_load_config(args), ExperimentConfig)
