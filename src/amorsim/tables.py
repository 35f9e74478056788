"""The one writer and reader for every file amorsim writes.

A table file is a block of ``# key = value`` comment lines (values are
Python literals), a title row, then one row per sample. The suffix picks
the layout: ``.csv`` has a comma-separated title row and cells, ``.dat``
(gnuplot-style) a ``# columns: a b c`` title row and space-separated
cells. Floats are written with ``repr``, which round-trips in double
precision, so ``write_table(path, *read_table(path))`` rewrites a file
byte for byte. JSON reports are indented, key-sorted and newline-ended.

Tables of at least ``_CHUNK_ROWS`` rows format float columns a chunk at
a time with ``_float_cells``: the shortest round-trip digit search of
Steele & White and Ryu, done in exact integer arithmetic over the whole
chunk, so its bytes equal ``repr``'s for every float64. The few values it
cannot decide exactly (zeros, non-finite, subnormal, tiny or huge values,
powers of two, exact ties) are passed to ``repr`` itself.
"""

from __future__ import annotations

import ast
import functools
import json
import math
from pathlib import Path

import numpy as np

__all__ = ["write_table", "read_table", "write_json"]

# Rows formatted per write, so a long series never sits in memory as text
# (4096 was the fastest of 1k-32k rows). Shorter tables are formatted with
# ``str``: below about 200 rows numpy's per-call overhead costs more than
# ``repr`` does.
_CHUNK_ROWS = 4096

# Characters no title or text cell may hold: ``str.splitlines`` breaks a
# row at each of them, and NUL is the padding of the cell matrices.
_LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029\0"


def _plain(value):
    """numpy scalars as Python scalars, so the header reads back."""
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, tuple):
        return tuple(map(_plain, value))
    return value


def _check_text(name, cells, sep) -> None:
    text = "".join(cells)
    if any(char in text for char in sep + _LINE_BREAKS):
        raise ValueError(f"column {name!r}: a name or cell holds the "
                         f"separator {sep!r} or a line break")


def write_table(path, columns, data, meta=()) -> None:
    """Write named columns (``data[i]`` holds column ``columns[i]``).

    ``meta`` (a mapping or ``(key, value)`` pairs) becomes the comment block.
    Columns must have equal lengths; no title or text cell may hold the
    separator or a line break, and no ``.dat`` title whitespace.
    """
    lines = [f"# {key} = {_plain(v)!r}" for key, v in dict(meta).items()]
    sep = " " if Path(path).suffix == ".dat" else ","
    for name in columns:
        _check_text(name, [name], sep)
        if sep == " " and name.split() != [name]:  # read back by split()
            raise ValueError(f"column {name!r}: a .dat title holds "
                             "whitespace or is empty")
    lines.append("# columns: " + " ".join(columns) if sep == " "
                 else ",".join(columns))
    cols = [np.asarray(col) for col in data]
    if len(cols) != len(columns):
        raise ValueError(f"{len(columns)} column names for {len(cols)} "
                         "columns")
    if len({len(col) for col in cols}) > 1:
        raise ValueError("columns differ in length: " + ", ".join(
            f"{name}={len(col)}" for name, col in zip(columns, cols)))
    rows = len(cols[0]) if cols else 0
    with open(path, "wb") as fh:
        fh.write(("\n".join(lines) + "\n").encode())
        for start in range(0, rows, _CHUNK_ROWS):
            chunk = [col[start:start + _CHUNK_ROWS] for col in cols]
            if rows < _CHUNK_ROWS:  # shorter than one chunk
                cells = [_text_cells(name, col, sep)
                         for name, col in zip(columns, chunk)]
                text = "\n".join(map(sep.join, zip(*cells))) + "\n"
                fh.write(text.encode())
            else:
                fh.write(_rows_bytes([_cell_matrix(name, col, sep)
                                      for name, col in zip(columns, chunk)],
                                     sep))


def _text_cells(name, col, sep) -> list[str]:
    cells = list(map(str, col.tolist()))
    if col.dtype.kind != "f":
        _check_text(name, cells, sep)
    return cells


def _cell_matrix(name, col, sep) -> np.ndarray:
    """One zero-padded uint8 row per cell of ``col``."""
    if col.dtype.kind == "f" and col.dtype.itemsize <= 8:
        return _float_cells(col)
    cells = [cell.encode() for cell in _text_cells(name, col, sep)]
    width = max(map(len, cells), default=0)
    return np.array(cells, dtype=f"S{max(width, 1)}").view(
        np.uint8).reshape(len(cells), -1)


def _rows_bytes(mats, sep) -> bytes:
    """Join cell matrices into newline-ended rows and drop the padding."""
    rows = len(mats[0])
    parts = []
    for mat in mats:
        parts += [mat, np.full((rows, 1), ord(sep), np.uint8)]
    parts[-1] = np.full((rows, 1), ord("\n"), np.uint8)
    return np.hstack(parts).tobytes().translate(None, b"\0")


# ---------------------------------------------------------------------------
# Exact vectorized float formatting
# ---------------------------------------------------------------------------
#
# For 1e-11 <= |x| < 1e15, write |x| = m·2^q (m < 2^53) and scale it to
# X = x·10^k in [1e16, 1e17), k = 16 - floor(log10|x|) in [2, 27], so that
# P = m·5^k < 2^116 is exact in two uint64 limbs and X = P/2^t with t in
# [1, 62] fraction bits. The reals that round to x form the open interval
# (L, U) = X ± 5^k/2^(t+1); neither end is a decimal of 17 digits or
# fewer in this range. repr's digits are the multiple of the largest power
# of ten 10^j inside it that lies nearest to X (j = 0: round(X)). Zeros,
# non-finite values, subnormals, powers of two (their interval is
# lopsided), exact ties and magnitudes outside the range go to ``repr``.

_FIRST_DECADE = -11
_LAST_DECADE = 14
_U64 = np.uint64
_LOW32 = _U64(2**32 - 1)
_POW5 = np.array([5**k for k in range(28)], dtype=np.uint64)
_POW10 = np.array([10**j for j in range(18)], dtype=np.uint64)


def _decade_start(e: int) -> float:
    """The smallest double >= 10**e."""
    f = float(f"1e{e}")
    num, den = f.as_integer_ratio()
    below = num * 10 ** max(-e, 0) < den * 10 ** max(e, 0)
    return math.nextafter(f, math.inf) if below else f


# A fast cell is 11 little-endian uint32 words, its zero bytes dropped on
# output. Bytes 0-19 and 20-39 each hold the 20-digit field (3 zeros, then
# the 17 digits), masked to the digits before the point and to those
# after it; bytes 40-43 hold the exponent. The other constants sit in
# bytes the masks clear: the sign (0), '0' of 0.ddd (1), the point (19)
# and the zeros of 0.000ddd (20-22). decpt places the point: the value is
# 0.ddd × 10^decpt, written as d.ddde±XX when decpt <= -4 or > 16.
_DECPT_MIN = 17 - (16 - _FIRST_DECADE)
_DECPT_MAX = 17 - (16 - _LAST_DECADE) + 1  # +1: digits round up to 10^17
_WIDTH = 44  # >= 24, the longest float repr ('-2.2250738585072014e-308')


def _templates() -> tuple[np.ndarray, np.ndarray]:
    """A cell's digit mask, per ``(decpt - _DECPT_MIN)·18 + digit count``,
    and its constant bytes, per ``((decpt - _DECPT_MIN)·2 + (count > 1))·2
    + negative``, each row as 11 uint32 words."""
    decpts = range(_DECPT_MIN, _DECPT_MAX + 1)
    decpt = np.array(decpts)[:, None, None]
    n = np.arange(18)[None, :, None]
    place = np.arange(_WIDTH)[None, None, :]
    before = np.where(decpt <= -4, 1, np.maximum(decpt, 0))
    last = np.where(decpt > 0, np.maximum(n, decpt + 1), n)  # ddd00.0
    mask = (((place >= 3) & (place < 3 + before))
            | ((place >= 23 + before) & (place < 23 + last)))
    masks = (mask * np.uint8(255)).view("<u4").reshape(-1, _WIDTH // 4)

    const = np.zeros((len(decpts), 2, 2, _WIDTH), np.uint8)
    const[:, :, 1, 0] = ord("-")
    for cell, d in zip(const, decpts):
        if d <= -4:
            cell[1, :, 19] = ord(".")  # none after a lone digit
            cell[:, :, 40:44] = list(f"e{d - 1:+03d}".encode())
        else:
            cell[:, :, 19] = ord(".")
            if d <= 0:
                cell[:, :, 1] = ord("0")
                cell[:, :, 20:20 - d] = ord("0")
    return masks, const.view("<u4").reshape(-1, _WIDTH // 4)


@functools.cache
def _tables():
    """The lookup tables of ``_float_cells``, built on its first call: runs
    that write no long table neither build nor hold them.

    Per biased binary exponent, the decades started below the binade (none
    for zeros and subnormals, all for inf and nan) and the start of the one
    decade that may begin inside it; "0000" .. "9999" as little-endian
    ASCII quads; the cell masks and constants of ``_templates``.
    """
    starts = np.array([_decade_start(e)
                       for e in range(_FIRST_DECADE, _LAST_DECADE + 2)]
                      + [math.inf])
    binade_decade = np.append(np.searchsorted(
        starts, np.ldexp(1.0, np.arange(2047) - 1023), side="right"),
        len(starts))
    binade_next = starts[np.minimum(binade_decade, len(starts) - 1)]
    quads = sum((48 + np.arange(10_000, dtype="<u4") // 10**(3 - i) % 10)
                << (8 * i) for i in range(4)).astype("<u4")
    return (binade_decade, binade_next, quads) + _templates()


def _float_cells(x) -> np.ndarray:
    """A ``(len(x), _WIDTH)`` uint8 matrix; row i, its zero bytes dropped,
    is ``repr(float(x[i]))``."""
    binade_decade, binade_next, quads, masks, const = _tables()
    x = np.asarray(x, dtype=np.float64)
    bits = x.view(np.uint64)
    binade = (bits >> _U64(52) & _U64(0x7FF)).astype(np.intp)
    decade = binade_decade.take(binade) + (np.abs(x) >= binade_next.take(
        binade))
    fast = ((decade >= 1) & (decade <= _LAST_DECADE - _FIRST_DECADE + 1)
            & (bits & _U64(2**52 - 1) != 0))
    rows = np.flatnonzero(fast)
    bits = bits[rows]
    k = 17 - _FIRST_DECADE - decade[rows]
    m = bits & _U64(2**52 - 1) | _U64(2**52)
    t = (1075 - binade[rows] - k).astype(np.uint64)

    # P = m·5^k = hi·2^64 + lo from 32-bit partial products, then
    # X = whole + frac/2^t
    p5 = _POW5.take(k)
    m1, m0, f1, f0 = m >> _U64(32), m & _LOW32, p5 >> _U64(32), p5 & _LOW32
    low = m0 * f0
    mid = m1 * f0 + m0 * f1
    lo = low + (mid << _U64(32))
    hi = m1 * f1 + (mid >> _U64(32)) + (lo < low)
    whole = hi << (_U64(64) - t) | lo >> t
    frac = lo & ((_U64(1) << t) - _U64(1))

    # U = top + ε and L = top - width + ε' (0 < ε, ε' < 1): a multiple of
    # 10^j lies in (L, U) iff top % 10^j < width. As width <= 23, that holds
    # for j >= 2 iff it holds at j = 2 and digits 2 .. j-1 of top are zero.
    # (x - x // d * d is x % d: numpy divides by a constant much faster.)
    t1 = t + _U64(1)
    top_off = (frac * _U64(2) + p5) >> t1
    low_off = (frac * _U64(2)).view(np.int64) - p5.view(np.int64) >> t1.view(
        np.int64)
    width = top_off - low_off.view(np.uint64)
    top = whole + top_off
    tens, hundreds = top // _U64(10), top // _U64(100)
    zeros = (top - tens * _U64(10) < width).astype(np.intp)
    live = np.flatnonzero(top - hundreds * _U64(100) < width)
    top = hundreds[live]
    while live.size:
        zeros[live] += 1
        tens = top // _U64(10)
        zero = top == tens * _U64(10)
        live, top = live[zero], tens[zero]

    # the multiple of 10^zeros nearest X: compare 2·(X mod 10^zeros) with
    # 10^zeros using the integer part and the first fraction bit
    step = _POW10.take(zeros)
    rem = whole % step
    half = t - _U64(1)
    twice = rem * _U64(2) + (frac >> half)
    undecided = (twice == step) & (frac & ((_U64(1) << half) - _U64(1)) == 0)
    digits = whole - rem + step * (twice >= step)

    decpt = 17 - k
    n = 17 - zeros
    carry = digits == _POW10[17]  # then zeros == 17
    digits[carry] = _POW10[16]
    decpt[carry] += 1
    n[carry] = 1

    # the 20-digit field as five ASCII quads, twice
    words = np.empty((len(rows), _WIDTH // 4), "<u4")
    upper = digits // _U64(10**8)
    lower = (digits - upper * _U64(10**8)).astype(np.uint32)
    upper = upper.astype(np.uint32)
    for col, part in ((0, upper // 10**8), (1, upper // 10**4), (2, upper),
                      (3, lower // 10**4), (4, lower)):
        quad = part - part // 10**4 * 10**4
        words[:, col] = words[:, col + 5] = quads.take(quad)
    decpt -= _DECPT_MIN
    words &= masks.take(decpt * 18 + n, axis=0)
    sign = (bits >> _U64(63)).astype(np.intp)
    words |= const.take((decpt * 2 + (n > 1)) * 2 + sign, axis=0)
    cells = words.view(np.uint8)

    if len(rows) == len(x):
        out = cells
    else:
        out = np.zeros((len(x), _WIDTH), np.uint8)
        out[rows] = cells
    slow = np.concatenate([np.flatnonzero(~fast), rows[undecided]])
    if slow.size:
        out[slow] = np.array(list(map(repr, x[slow].tolist())),
                             dtype=f"S{_WIDTH}").view(np.uint8).reshape(
                                 -1, _WIDTH)
    return out


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
