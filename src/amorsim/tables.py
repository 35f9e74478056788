"""The one writer and reader for every file amorsim writes.

A table file is a block of ``# key = value`` comment lines (values are
Python literals), a title row, then one row per sample. The suffix picks
the layout: ``.csv`` has a comma-separated title row and cells, ``.dat``
(gnuplot-style) a ``# columns: a b c`` title row and space-separated
cells. Floats are written with ``repr``, which round-trips in double
precision, so ``write_table(path, *read_table(path))`` rewrites a file
byte for byte. JSON reports are indented, key-sorted and newline-ended.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path

import numpy as np

__all__ = ["write_table", "read_table", "write_json"]

# Rows formatted per write, so a long series never sits in memory as text.
_CHUNK_ROWS = 4096


def write_table(path, columns, data, meta=()) -> None:
    """Write named columns (``data[i]`` holds column ``columns[i]``).

    ``meta`` (a mapping or ``(key, value)`` pairs) becomes the comment block.
    """
    lines = [f"# {key} = {float(v) if isinstance(v, float) else v!r}"
             for key, v in dict(meta).items()]
    sep = " " if Path(path).suffix == ".dat" else ","
    lines.append("# columns: " + " ".join(columns) if sep == " "
                 else ",".join(columns))
    cols = [np.asarray(col) for col in data]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
        for start in range(0, len(cols[0]) if cols else 0, _CHUNK_ROWS):
            cells = [map(str, col[start:start + _CHUNK_ROWS].tolist())
                     for col in cols]
            fh.write("\n".join(map(sep.join, zip(*cells))) + "\n")


def write_json(path, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _literal(raw: str):
    try:
        return ast.literal_eval(raw)
    except (ValueError, SyntaxError):
        return float(raw)  # inf and nan are not Python literals


def _column(cells) -> np.ndarray:
    try:
        return np.array(cells, dtype=float)
    except ValueError:
        return np.array(cells, dtype=str)


def read_table(path) -> tuple[list[str], list[np.ndarray], dict]:
    """Read a ``write_table`` file as ``(columns, data, meta)``.

    The order matches ``write_table``'s arguments. Numeric columns come
    back as float64 arrays, text columns as string arrays.
    """
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    sep = " " if Path(path).suffix == ".dat" else ","
    meta = {}
    for start, line in enumerate(lines):
        if sep == " " and line.startswith("# columns:"):
            columns = line[len("# columns:"):].split()
            break
        if not line.startswith("#"):
            columns = line.split(",")
            break
        key, _, raw = line[1:].partition("=")
        meta[key.strip()] = _literal(raw.strip())
    else:
        raise ValueError(f"{path}: no title row")
    rows = [line.split(sep) for line in lines[start + 1:]]
    cells = zip(*rows) if rows else [[] for _ in columns]
    return columns, [_column(list(col)) for col in cells], meta
