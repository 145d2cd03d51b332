"""Every name a padpd module imports is used in that module."""

import ast
import importlib.util
import sys
from pathlib import Path

import padpd

SRC = Path(padpd.__file__).parent

# Imported only so that perfbench/spans.py can bind its stage spans under
# these module names; `experiment.train_dpd` does the training.
KEPT_FOR_PERFBENCH = {("dpd.py", "train_stage1_adam"), ("dpd.py", "train_stage2_lm")}


def unused_imports(tree: ast.Module) -> list[str]:
    """The names bound by the module's imports that nothing in it reads."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def _perfbench_spans():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_unused_imports_finds_an_unread_name():
    tree = ast.parse("import json\nimport numpy as np\nfrom .x import a, b\nprint(np.pi, b)\n")
    assert unused_imports(tree) == ["json", "a"]


def test_no_module_imports_a_name_it_does_not_use():
    unused = {(path.name, name)
              for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"
              for name in unused_imports(ast.parse(path.read_text()))}
    assert unused == KEPT_FOR_PERFBENCH


def test_kept_imports_are_still_span_sites():
    """Each allowed unused import is still a binding that a perfbench span
    patches; once the spans stop binding there, the import must go."""
    sites = {site for layer in _perfbench_spans().LAYERS for site in layer.sites}
    for file, name in KEPT_FOR_PERFBENCH:
        assert (f"padpd.{Path(file).stem}", name) in sites
