"""The one CSV writer behind every table the package saves."""

from __future__ import annotations

from pathlib import Path

import numpy as np

__all__ = ["write_csv"]


def write_csv(path, header, columns, comment: str | None = None) -> None:
    """An optional ``# comment`` line, the header, then one line per row.

    ``columns`` holds one 1-D sequence per header entry. Integer columns are
    written as integers and float columns as ``repr`` of each value, so
    floats read back exactly.
    """
    cells = [map(repr, np.asarray(col).tolist()) for col in columns]
    lines = [f"# {comment}"] if comment else []
    lines.append(",".join(header))
    lines += map(",".join, zip(*cells))
    Path(path).write_text("\n".join(lines) + "\n")
