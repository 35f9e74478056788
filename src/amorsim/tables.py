"""The one writer and reader for every file amorsim writes.

A table file is a block of ``# key = value`` comment lines (values are
Python literals), a title row, then one row per sample. The suffix picks
the layout: ``.csv`` has a comma-separated title row and cells, ``.dat``
(gnuplot-style) a ``# columns: a b c`` title row and space-separated
cells. Floats are written with ``repr``, which round-trips in double
precision, so ``write_table(path, *read_table(path))`` rewrites a file
byte for byte. JSON reports are indented, key-sorted and newline-ended.

Tables of at least ``_SHORT_ROWS`` rows format float columns up to
``_CHUNK_ROWS`` rows at a time with ``_float_cells``: the shortest
round-trip digit search of Steele & White and Ryu, done in exact integer
arithmetic (three 64-bit limbs) over the whole chunk, so its bytes equal
``repr``'s for every float64. It decides every value from 1e-24 up to
1e15; the few it leaves (zeros, non-finite, subnormal, smaller or larger
values, powers of two, exact ties) are passed to ``repr`` itself.
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
# (a chunk's cells take about 100 KB). Tables under _SHORT_ROWS rows are
# formatted with ``str``: there the fast path's fixed cost, about 0.25 ms a
# float column, exceeds ``repr``'s 1-1.5 µs a cell (one to three float
# columns, 2-vCPU Xeon, numpy 2.4).
_CHUNK_ROWS = 4096
_SHORT_ROWS = 200

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
    separator or a line break, and no ``.dat`` title whitespace. A missing
    parent directory is created.
    """
    path = Path(path)
    lines = [f"# {key} = {_plain(v)!r}" for key, v in dict(meta).items()]
    sep = " " if path.suffix == ".dat" else ","
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
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(("\n".join(lines) + "\n").encode())
        for start in range(0, rows, _CHUNK_ROWS):
            chunk = [col[start:start + _CHUNK_ROWS] for col in cols]
            if rows < _SHORT_ROWS:
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
    ends = np.cumsum([mat.shape[1] + 1 for mat in mats])
    buf = np.empty((len(mats[0]), ends[-1]), np.uint8)
    for mat, end in zip(mats, ends):
        buf[:, end - 1 - mat.shape[1]:end - 1] = mat
        buf[:, end - 1] = ord(sep)
    buf[:, -1] = ord("\n")
    return buf.tobytes().translate(None, b"\0")


# ---------------------------------------------------------------------------
# Exact vectorized float formatting
# ---------------------------------------------------------------------------
#
# For 1e-24 <= |x| < 1e15, write |x| = m·2^q (2^52 <= m < 2^53) and scale it
# to X = x·10^k in [1e16, 1e17), k = 16 - floor(log10|x|) in [2, 40], so
# that X = m·5^k/2^t with t in [1, 93] fraction bits. With G = 5^k·2^(128-t)
# (exact, < 2^133), m·G = X·2^128 is formed from 32-bit partial products in
# three uint64 limbs: the whole part of X (< 2^57) and its fraction F as 128
# fixed-point bits (at most 93 of them set). The reals that round to x form
# the open interval X ± δ, δ = 5^k/2^(t+1) = G/2^129, whose ends' whole
# parts follow from 128-bit comparisons of F with δ's fraction; neither end
# is a decimal of 17 digits or fewer in this range. repr's digits are the
# multiple of the largest power of ten 10^j inside it that lies nearest to
# X (j = 0: round(X)). Zeros, non-finite values, subnormals, powers of two
# (their interval is lopsided), exact ties and magnitudes outside the range
# go to ``repr``.

_FIRST_DECADE = -24
_LAST_DECADE = 14
_LOW32 = 2**32 - 1
_POW10 = np.array([10**j for j in range(18)], dtype=np.uint64)


def _decade_start(e: int) -> float:
    """The smallest double >= 10**e."""
    f = float(f"1e{e}")
    num, den = f.as_integer_ratio()
    below = num * 10 ** max(-e, 0) < den * 10 ** max(e, 0)
    return math.nextafter(f, math.inf) if below else f


# A fast cell is 3 little-endian uint64 words, its zero bytes dropped on
# output. The 17 digits are laid once, as byte values 0-9, at bytes 1-17:
# those before the point stay there, those after it are shifted up by one
# byte (past the point) or, in 0.000ddd, by two to five (past "0." and the
# zeros). Then the constant bytes are OR-ed in: the point, "0." and its
# zeros, the exponent (bytes 19-22) and '0' (0x30) over each digit kept, so
# the zeros that end the digits stay zero bytes. decpt places the point: the
# value is 0.ddd × 10^decpt, written as d.ddde-XX when decpt <= -4. Byte 0
# holds the sign.
_DECPT_MIN = _FIRST_DECADE + 1
_DECPT_MAX = _LAST_DECADE + 2  # +1: digits round up to 10^17
_WIDTH = 24  # the longest float repr ('-2.2250738585072014e-308')


def _layouts() -> np.ndarray:
    """Per ``(decpt - _DECPT_MIN)·18 + digit count``, for positive and
    then for negative values, as 7 uint64 rows: the mask of the digits
    before the point and the constant bytes with the sign (3 words each),
    and the shift of the digits after the point in bits."""
    decpt = np.arange(_DECPT_MIN, _DECPT_MAX + 1)[:, None, None]
    n = np.arange(18)[None, :, None]
    place = np.arange(_WIDTH)[None, None, :]
    before = np.where(decpt <= -4, 1, np.maximum(decpt, 0))
    end = np.where(decpt > 0, np.maximum(n, decpt + 1), n)  # ddd00.0
    shift = np.where((decpt <= 0) & (decpt > -4), 2 - decpt, 1)
    shape = (len(decpt), 18, _WIDTH)
    head = np.broadcast_to((place >= 1) & (place <= before), shape)
    const = np.where(head | (place > before + shift) & (place <= end + shift),
                     np.uint8(ord("0")), np.uint8(0))
    for cell, d in zip(const, decpt.ravel()):
        if d <= -4:
            cell[2:, 2] = ord(".")  # none after a lone digit
            cell[:, 19:23] = list(f"e{d - 1:+03d}".encode())
        elif d <= 0:
            cell[:, 1:3 - d] = ord("0")
            cell[:, 2] = ord(".")
        else:
            cell[:, d + 1] = ord(".")
    signed = const.copy()
    signed[..., 0] = ord("-")
    words = [np.ascontiguousarray(b, np.uint8).view("<u8").reshape(-1, 3).T
             for b in (head * np.uint8(255), const, signed)]
    bits = np.broadcast_to(8 * shift[..., 0], shape[:2]).ravel().astype(
        np.uint64)
    return np.hstack([np.vstack(words[:2] + [bits]),
                      np.vstack([words[0], words[2], bits])])


def _scales(starts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per sign and biased binary exponent, the index of its first scale
    entry and the fraction bits of the one decade start that may lie inside
    the binade (2^52: none); per entry (the binade below that start, and
    from it), 9 uint64 rows: whether it lies in the exact range, the row of
    its 17-digit layout, the 32-bit pieces of G above bit 32, twice the
    integer part of δ and δ's fraction times 2^128 as two 64-bit limbs.
    Entry 0, for every binade outside the range, carries the scale of
    [1, 2), so that the arithmetic of those rows stays in bounds."""
    low = np.ldexp(1.0, np.arange(2047) - 1023)
    decade = np.append(np.searchsorted(starts, low, side="right"), 0)
    decade[0] = 0  # zeros and subnormals; inf and nan at 2047
    nxt = starts[np.minimum(decade, len(starts) - 1)]
    split = np.append(nxt[:-1] / 2 < low, False)  # a decade starts inside
    last = _LAST_DECADE - _FIRST_DECADE + 1
    ranged = np.flatnonzero((decade >= 1) & (decade <= last)
                            | split & (decade >= 0) & (decade < last))
    first = np.zeros(2048, np.intp)
    columns = [_scale_entry(0, 0)]
    for binade in ranged.tolist():
        first[binade] = len(columns)
        columns += [_scale_entry(binade, d) for d in
                    range(decade[binade], decade[binade] + 1 + split[binade])]
    start_bits = np.where(split, nxt, 1.0).view(np.uint64) & 2**52 - 1
    start_bits[~split] = 2**52
    positive = np.array(columns, dtype=np.uint64).T
    negative = positive.copy()
    negative[1] += (_DECPT_MAX + 1 - _DECPT_MIN) * 18
    return (np.append(first, first + len(columns)), np.tile(start_bits, 2),
            np.hstack([positive, negative]))


def _scale_entry(binade: int, decade: int) -> list[int]:
    inside = 1 <= decade <= _LAST_DECADE - _FIRST_DECADE + 1
    if not inside:
        binade, decade = 1023, 1 - _FIRST_DECADE  # [1, 2), k = 16
    k = 17 - _FIRST_DECADE - decade
    g = 5**k << (128 - (1075 - binade - k))
    frac = g >> 1 & (1 << 128) - 1
    return ([int(inside), (17 - k - _DECPT_MIN) * 18 + 17]
            + [g >> 32 * i & 2**32 - 1 for i in (1, 2, 3, 4)]
            + [g >> 129 << 1, frac >> 64, frac & 2**64 - 1])


@functools.cache
def _tables():
    """The lookup tables of ``_float_cells``, built on its first call: runs
    that write no long table neither build nor hold them.

    Those of ``_scales``; the digits of 0 .. 9999 as four little-endian
    bytes of a uint64, and their trailing zeros (4 for 0); the cell layouts
    of ``_layouts``.
    """
    starts = np.array([_decade_start(e)
                       for e in range(_FIRST_DECADE, _LAST_DECADE + 2)]
                      + [math.inf])
    quad = np.arange(10_000)
    quads = sum((quad // 10**(3 - i) % 10).astype(np.uint64) << 8 * i
                for i in range(4))
    trailing = sum((quad % 10**i == 0).astype(np.uint8) for i in (1, 2, 3, 4))
    return _scales(starts) + (quads, trailing, _layouts())


def _float_cells(x) -> np.ndarray:
    """A ``(len(x), _WIDTH)`` uint8 matrix; row i, its zero bytes dropped,
    is ``repr(float(x[i]))``."""
    x = np.asarray(x, dtype=np.float64)
    digits, layout, slow = _shortest_digits(x)
    out = _digit_cells(digits, layout)
    if slow.size:
        out[slow] = np.array(list(map(repr, x[slow].tolist())),
                             dtype=f"S{_WIDTH}").view(np.uint8).reshape(
                                 -1, _WIDTH)
    return out


def _shortest_digits(x):
    """Per value, repr's digits as a 17-digit integer, its cell layout row,
    and the rows left to ``repr``."""
    first, start_bits, scales, _, trailing, _ = _tables()
    bits = x.view(np.uint64)
    frac_bits = bits & 2**52 - 1
    binade = (bits >> 52).view(np.int64)  # with the sign
    entry = first.take(binade) + (frac_bits >= start_bits.take(binade))
    inside, layout, g1, g2, g3, g4, width2, d_hi, d_lo = scales.take(
        entry, axis=1, mode="clip")
    # X = whole + F, F = (hi·2^64 + lo)/2^128
    whole, hi, lo = _times_g(frac_bits | 2**52, g1, g2, g3, g4)

    # U = top + ε and L = top - width + ε' (0 < ε, ε' < 1): a multiple of
    # 10^j lies in (L, U) iff top % 10^j < width. As width <= 23, that holds
    # for j >= 2 iff it holds at j = 2 and digits 2 .. j-1 of top are zero.
    # (x - x // d * d is x % d: numpy divides by a constant much faster.)
    up = _below(~hi, ~lo, d_hi, d_lo)  # F + δ's fraction >= 1
    width = width2 + up + _below(hi, lo, d_hi, d_lo)
    top = whole + (width2 >> 1) + up
    tens, hundreds = top // 10, top // 100
    zeros = (top - tens * 10 < width).astype(np.intp)
    live = np.flatnonzero(top - hundreds * 100 < width)
    top = hundreds[live]
    zeros[live] += 1
    while live.size:  # four digits a pass
        quad = top // 10_000
        more = trailing.take((top - quad * 10_000).view(np.int64))
        zeros[live] += more
        live, top = live[more == 4], quad[more == 4]

    # the multiple of 10^zeros nearest X: compare 2·(X mod 10^zeros) with
    # 10^zeros using the integer part and the first fraction bit
    step = _POW10.take(zeros)
    rem = whole % step
    twice = rem * 2 + (hi >> 63)
    digits = whole - rem + step * (twice >= step)
    tie = np.flatnonzero(twice == step)
    tie = tie[(hi[tie] << 1 | lo[tie]) == 0]

    layout = layout.view(np.int64) - zeros
    carry = digits == _POW10[17]  # then zeros == 17
    digits[carry] = _POW10[16]
    layout[carry] += 19  # decpt + 1, one digit
    slow = np.concatenate([np.flatnonzero(frac_bits * inside == 0), tie])
    return digits, layout, slow


def _times_g(m, g1, g2, g3, g4):
    """m·G = whole·2^128 + hi·2^64 + lo for m < 2^53 and G = g1·2^32 +
    g2·2^64 + g3·2^96 + g4·2^128 < 2^133, summed in 32-bit columns."""
    m1, m0 = m >> 32, m & _LOW32
    p1, p2, p3 = m0 * g1, m0 * g2, m0 * g3
    col2 = (p1 >> 32) + (p2 & _LOW32) + m1 * g1
    col3 = (col2 >> 32) + (p2 >> 32) + (p3 & _LOW32) + m1 * g2
    whole = (col3 >> 32) + (p3 >> 32) + m1 * g3 + m * g4
    return whole, col2 & _LOW32 | col3 << 32, p1 << 32


def _below(a_hi, a_lo, b_hi, b_lo):
    """Whether the 128-bit a = a_hi·2^64 + a_lo is below b."""
    return (a_hi < b_hi) | (a_hi == b_hi) & (a_lo < b_lo)


def _digit_cells(digits, layout) -> np.ndarray:
    """The cells of ``_float_cells`` from 17-digit integers and their
    layout rows."""
    *_, quads, _, layouts = _tables()
    # split 3|4 (word 0), 4|4 (word 1) and 2 (word 2)
    top7 = digits // 10**10
    rest = digits - top7 * 10**10
    mid8, a = rest // 100, top7 // 10**4
    b = mid8 // 10**4
    s0, s0_low, s1, s1_low, s2 = (quads.take(part.view(np.int64), mode="clip")
                                  for part in (a, top7 - a * 10**4, b,
                                               mid8 - b * 10**4,
                                               rest - mid8 * 100))
    s0 |= s0_low << 32
    s1 |= s1_low << 32
    s2 >>= 16
    h0, h1, h2, k0, k1, k2, shift = layouts.take(layout, axis=1,
                                                  mode="clip")
    back = 64 - shift
    h0, h1, h2 = s0 & h0, s1 & h1, s2 & h2
    s0 ^= h0  # now the digits after the point
    s1 ^= h1
    s2 ^= h2
    words = np.empty((len(digits), _WIDTH // 8), np.uint64)
    np.bitwise_or(h0 | s0 << shift, k0, out=words[:, 0])
    np.bitwise_or(h1 | s1 << shift | k1, s0 >> back, out=words[:, 1])
    np.bitwise_or(h2 | s2 << shift | k2, s1 >> back, out=words[:, 2])
    return words.view(np.uint8)


def write_json(path, doc: dict) -> None:
    """Write doc as indented, key-sorted JSON, creating a missing parent."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
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
