"""Largest relative differences between two output trees of tools/output_trees.py.

    python3 tools/tree_diff.py ../trees-parent ../trees-change

For each file whose bytes differ between the trees, prints its path and then
one line per numeric CSV column (named by its header) or JSON number (named
by its path of keys and list indices) whose values differ: the largest
relative difference |a - b| / max(|a|, |b|) over the column's rows, or the
number's. Values that match exactly are not listed. A NaN against a number
reads inf. Anything else that differs is named without a figure: a file in
one tree only, a file that is neither CSV nor JSON (such as ``stdout.txt``),
a CSV comment, header or row count, a text cell, or a JSON key, type or list
length. A file whose values all match, in other formatting, is listed with
no lines under it. Exits 0 when the trees are byte-identical, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path


def rel_diff(a: float, b: float) -> float:
    """|a - b| over the larger magnitude; 0 for equal values (NaN equals NaN)."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if math.isnan(a) or math.isnan(b) or math.isinf(a) or math.isinf(b):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def _split_csv(text: str) -> tuple[list[str], list[str], list[list[str]]]:
    """(comment lines, header, rows) of a table written by `padpd.csvio`."""
    lines = text.splitlines()
    comments = [line for line in lines if line.startswith("#")]
    body = [line.split(",") for line in lines if not line.startswith("#")]
    return comments, body[0] if body else [], body[1:]


def csv_diffs(a: str, b: str) -> list[tuple[str, float | None]]:
    """(column or part, largest relative difference or None) of two CSV texts."""
    (ca, ha, ra), (cb, hb, rb) = _split_csv(a), _split_csv(b)
    comment = [("comment", None)] if ca != cb else []
    if ha != hb or len(ra) != len(rb):
        return [*comment, ("header or row count", None)]
    worst: dict[str, float | None] = {}
    for row_a, row_b in zip(ra, rb):
        for name, x, y in zip(ha, row_a, row_b):
            if x == y:
                continue
            fx, fy = _number(x), _number(y)
            d = None if fx is None or fy is None else rel_diff(fx, fy)
            if d is None or worst.get(name, 0.0) is None:
                worst[name] = None
            elif d:
                worst[name] = max(worst.get(name, 0.0), d)
    return [*comment, *worst.items()]


def json_diffs(a, b, path: str = "") -> list[tuple[str, float | None]]:
    """(key path, relative difference or None) of every differing leaf."""
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            return [(path or ".", None)]
        return [d for k in a for d in json_diffs(a[k], b[k], f"{path}.{k}" if path else k)]
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return [(path, None)]
        return [d for i, (x, y) in enumerate(zip(a, b)) for d in json_diffs(x, y, f"{path}[{i}]")]
    if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b)):
        d = rel_diff(float(a), float(b))
        return [(path, d)] if d else []
    return [] if a == b else [(path, None)]


def file_diffs(a: Path, b: Path) -> list[tuple[str, float | None]]:
    """The differences of two files that differ in bytes."""
    text_a, text_b = a.read_text(), b.read_text()
    if a.suffix == ".csv":
        return csv_diffs(text_a, text_b)
    if a.suffix == ".json":
        return json_diffs(json.loads(text_a), json.loads(text_b))
    return [("contents", None)]


def tree_diff(a: Path, b: Path) -> list[str]:
    """The report's lines: each differing file, then its indented differences."""
    files_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    lines = []
    for rel in sorted(files_a | files_b):
        if rel not in files_b or rel not in files_a:
            lines.append(f"{rel}: only in {a if rel in files_a else b}")
        elif (a / rel).read_bytes() != (b / rel).read_bytes():
            lines.append(str(rel))
            lines += [f"  {name}: {'differs' if d is None else f'{d:.2g}'}"
                      for name, d in file_diffs(a / rel, b / rel)]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="the first output tree")
    parser.add_argument("b", type=Path, help="the second output tree")
    args = parser.parse_args(argv)
    lines = tree_diff(args.a, args.b)
    for line in lines:
        print(line)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
