"""The shared table writer and reader."""

import ast
import math
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from amorsim import tables
from amorsim.cli import main
from amorsim.tables import (
    _CHUNK_ROWS,
    _FIRST_DECADE,
    _LAST_DECADE,
    _SHORT_ROWS,
    _below,
    _decade_start,
    _float_cells,
    _rows_bytes,
    _tables,
    _times_g,
    read_table,
    write_json,
    write_table,
)


def test_csv_layout_and_read_back(tmp_path):
    path = tmp_path / "t.csv"
    write_table(path, ["x", "ok", "label"],
                [np.array([0.1, 2.0]), [True, False], ["SNL(4)", "a"]],
                [("seed", (3, 1)), ("rate_hz", np.float64(320e3)),
                 ("freq", None), ("bracketed", True)])
    assert path.read_text() == (
        "# seed = (3, 1)\n"
        "# rate_hz = 320000.0\n"
        "# freq = None\n"
        "# bracketed = True\n"
        "x,ok,label\n"
        "0.1,True,SNL(4)\n"
        "2.0,False,a\n"
    )
    columns, data, meta = read_table(path)
    assert meta == {"seed": (3, 1), "rate_hz": 320e3, "freq": None,
                    "bracketed": True}
    assert columns == ["x", "ok", "label"]
    assert data[0].dtype == np.float64
    np.testing.assert_array_equal(data[0], [0.1, 2.0])
    assert data[1].tolist() == ["True", "False"]
    assert data[2].tolist() == ["SNL(4)", "a"]


def test_dat_layout_and_non_finite_values(tmp_path):
    path = tmp_path / "t.dat"
    write_table(path, ["p", "q"], [[1.5, math.inf], [-0.0, 3e-300]],
                {"seed": 7, "limit": math.inf})
    assert path.read_text() == (
        "# seed = 7\n"
        "# limit = inf\n"
        "# columns: p q\n"
        "1.5 -0.0\n"
        "inf 3e-300\n"
    )
    columns, data, meta = read_table(path)
    assert meta == {"seed": 7, "limit": math.inf}
    assert columns == ["p", "q"]
    np.testing.assert_array_equal(data[1], [-0.0, 3e-300])


@pytest.mark.parametrize("name", ["empty.csv", "empty.dat"])
def test_empty_table_round_trips(tmp_path, name):
    path = tmp_path / name
    write_table(path, ["a", "b"], [[], []], [("seed", 0)])
    columns, data, meta = read_table(path)
    assert (meta, columns) == ({"seed": 0}, ["a", "b"])
    assert [col.size for col in data] == [0, 0]
    copy = tmp_path / ("copy" + path.suffix)
    write_table(copy, columns, data, meta)
    assert copy.read_bytes() == path.read_bytes()


def test_floats_round_trip_bit_exactly(tmp_path):
    values = np.random.default_rng(0).standard_normal(1000) * 1e-7
    path = tmp_path / "x.csv"
    write_table(path, ["v"], [values])
    _, (back,), _ = read_table(path)
    assert back.tobytes() == values.tobytes()


def test_read_table_needs_a_title_row(tmp_path):
    path = tmp_path / "meta_only.csv"
    path.write_text("# seed = 1\n")
    with pytest.raises(ValueError, match="title row"):
        read_table(path)


def test_write_json_format(tmp_path):
    path = tmp_path / "doc.json"
    write_json(path, {"b": 1.0, "a": [1, 2]})
    assert path.read_text() == (
        '{\n  "a": [\n    1,\n    2\n  ],\n  "b": 1.0\n}\n'
    )


def test_writers_create_a_missing_parent(tmp_path):
    table, doc = tmp_path / "a" / "b" / "t.dat", tmp_path / "c" / "d.json"
    with pytest.raises(ValueError, match="differ in length"):
        write_table(table, ["x", "y"], [[1.0], []])
    assert not (tmp_path / "a").exists()  # a refused table makes no parent
    write_table(table, ["x"], [[1.0]])
    write_json(doc, {"x": 1})
    assert read_table(table)[1][0].tolist() == [1.0]
    assert doc.read_text() == '{\n  "x": 1\n}\n'


# ---------------------------------------------------------------------------
# The vectorized float formatter
# ---------------------------------------------------------------------------

def formatted(values) -> bytes:
    """Newline-ended rows of ``values`` as the fast path writes them."""
    return _rows_bytes([_float_cells(np.asarray(values, float))], ",")


def reprs(values) -> bytes:
    return ("".join(repr(v) + "\n" for v in np.asarray(values, float)
                    .tolist())).encode()


def near_power_of_ten(e, ulps):
    """``ulps`` doubles away from the double nearest 10**e."""
    return (np.array([float(f"1e{e}")]).view(np.int64) + ulps).view(
        np.float64)[0]


def counting_repr(monkeypatch):
    """Count the cells ``amorsim.tables`` hands to ``repr``."""
    calls = []

    def counted(value):
        calls.append(value)
        return repr(value)

    monkeypatch.setattr(tables, "repr", counted, raising=False)
    return calls


@given(arrays(np.float64, st.integers(0, 40), elements=st.floats()))
def test_float_cells_are_repr_for_any_float(values):
    assert formatted(values) == reprs(values)


@given(arrays(np.float64, st.integers(1, 40),
              elements=st.floats(1e-25, 2e15) | st.floats(-2e15, -1e-25)))
def test_float_cells_are_repr_in_the_exact_range(values):
    assert formatted(values) == reprs(values)


@given(st.lists(st.builds(near_power_of_ten, st.integers(-25, 18),
                          st.integers(-3, 3)), max_size=20))
def test_float_cells_are_repr_next_to_powers_of_ten(values):
    values = np.array(values + [-v for v in values])
    assert formatted(values) == reprs(values)


def test_float_cells_are_repr_at_the_edges():
    values = [0.0, -0.0, 5e-324, -5e-324, math.inf, -math.inf, math.nan,
              1e-4, 9.999999999999999e-05, 1e-05, 1e16, 1e22, 1e23, 1e15,
              999999999999999.9, 1e-11, 9.999999999999999e-12, 0.1, 0.5,
              1 / 3, 2.2250738585072014e-308, 1.7976931348623157e308]
    values += [1e-24, 9.999999999999999e-25, 1.0000000000000001e-24]
    values += [2.0**k for k in range(-82, 60)]
    values += [near_power_of_ten(e, u) for e in range(-25, 18)
               for u in (-1, 0, 1)]
    values += [float(i) for i in range(-1000, 1001, 7)]
    values += [float(10**k + 1) for k in range(16)]
    values = np.array(values + [-v for v in values])
    assert formatted(values) == reprs(values)


def test_halves_and_powers_of_two_below_1e_11(monkeypatch):
    # decimal midpoints in 1e-24 .. 1e-11 and the doubles beside them, whose
    # rounding decides between two multiples of a power of ten, take the
    # fast path: an exact tie there would need m divisible by 2^(t-1), with
    # t >= 60 fraction bits. Powers of two there go to repr.
    calls = counting_repr(monkeypatch)
    mids = np.array([float(f"0.{d}5e{p}") for d in (1, 12, 25, 333, 4999,
                                                      12345678)
                     for p in range(-23, -10)])
    values = np.concatenate([mids, np.nextafter(mids, 0),
                             np.nextafter(mids, 1)])
    values = np.concatenate([values, -values])
    assert formatted(values) == reprs(values)
    assert calls == []
    powers = [2.0**k for k in range(-79, -36)]
    assert 1e-24 < powers[0] and powers[-1] < 1e-11
    assert formatted(powers) == reprs(powers)
    assert len(calls) == len(powers)


def test_the_scaled_mantissa_is_exact():
    # every scale entry in the exact range, against Python integers
    scales = _tables()[2]
    entries = np.flatnonzero(scales[0] == 1)
    rng = np.random.default_rng(5)
    entry = np.concatenate([entries, rng.choice(entries, 20_000)])
    m = np.concatenate([np.full(len(entries), 2**53 - 1, np.uint64),
                        rng.integers(2**52, 2**53, 20_000, dtype=np.uint64)])
    g = scales[2:6].take(entry, axis=1)
    whole, hi, lo = _times_g(m, *g)
    for i in range(len(m)):
        big = int(m[i]) * sum(int(g[j, i]) << 32 * (j + 1) for j in range(4))
        assert (int(whole[i]), int(hi[i]), int(lo[i])) == (
            big >> 128, big >> 64 & 2**64 - 1, big & 2**64 - 1)


def test_128_bit_comparison_reads_the_low_limbs_on_a_tie():
    u = np.uint64
    a_hi = np.array([5, 5, 5, 4, 6, 2**64 - 1], u)
    a_lo = np.array([1, 2, 3, 2**64 - 1, 0, 0], u)
    b_hi = np.array([5, 5, 5, 5, 5, 2**64 - 1], u)
    b_lo = np.array([2, 2, 2, 0, 2**64 - 1, 1], u)
    assert _below(a_hi, a_lo, b_hi, b_lo).tolist() == [
        True, False, False, True, False, True]


def test_decades_start_at_the_smallest_double_not_below_the_power():
    for e in range(_FIRST_DECADE, _LAST_DECADE + 2):
        start = _decade_start(e)
        assert Fraction(start) >= Fraction(10) ** e
        assert Fraction(math.nextafter(start, 0)) < Fraction(10) ** e


def test_float_cells_are_repr_for_random_bit_patterns():
    rng = np.random.default_rng(7)
    bits = rng.integers(0, 2**64, 20_000, dtype=np.uint64).view(np.float64)
    scaled = rng.standard_normal(20_000) * 10.0 ** rng.integers(-25, 17,
                                                               20_000)
    for values in (bits, scaled):
        assert formatted(values) == reprs(values)


@pytest.mark.parametrize("rows", [_SHORT_ROWS - 1, _SHORT_ROWS,
                                  _SHORT_ROWS + 1, _CHUNK_ROWS - 1,
                                  _CHUNK_ROWS, _CHUNK_ROWS + 1])
@pytest.mark.parametrize("name", ["t.csv", "t.dat"])
def test_chunk_lengths_and_mixed_columns(tmp_path, rows, name):
    rng = np.random.default_rng(rows)
    floats = rng.standard_normal(rows) * 1e-3
    floats[:4] = [0.0, -0.0, math.inf, 1e-300]
    labels = np.array([f"L{i}" for i in range(rows)])
    flags = np.arange(rows) % 3 == 0
    path = tmp_path / name
    write_table(path, ["x", "label", "flag", "i"],
                [floats, labels, flags, np.arange(rows)], {"seed": (1, 2)})
    sep = " " if name.endswith(".dat") else ","
    title = "# columns: x label flag i" if sep == " " else "x,label,flag,i"
    body = "".join(f"{x!r}{sep}{s}{sep}{f}{sep}{i}\n" for x, s, f, i in zip(
        floats.tolist(), labels.tolist(), flags.tolist(), range(rows)))
    assert path.read_text() == "# seed = (1, 2)\n" + title + "\n" + body
    _, data, _ = read_table(path)
    assert data[0].tobytes() == floats.tobytes()
    assert data[1].tolist() == labels.tolist()


def test_long_floats_round_trip_bit_exactly(tmp_path):
    rng = np.random.default_rng(3)
    values = rng.integers(0, 2**64, 3 * _CHUNK_ROWS, dtype=np.uint64).view(
        np.float64)
    values = values[np.isfinite(values)]
    path = tmp_path / "bits.csv"
    write_table(path, ["v"], [values])
    _, (back,), _ = read_table(path)
    assert back.tobytes() == values.tobytes()


def test_fast_path_leaves_no_spectrum_or_series_cell_to_repr(tmp_path,
                                                             monkeypatch):
    # a spectrum's PSD column (1e-15 .. 1e-5 W/Hz) and a 128 k-sample
    # series: no zeros, subnormals, powers of two or out-of-range values
    calls = counting_repr(monkeypatch)
    rng = np.random.default_rng(20)
    psd = 10.0 ** rng.uniform(-15, -5, 5001)
    series = rng.standard_normal(128_000) * 1e-3
    write_table(tmp_path / "psd.csv", ["f", "psd"],
                [70914.30757975498 + 8.0 * np.arange(-2500, 2501), psd])
    write_table(tmp_path / "series.csv", ["v"], [series])
    assert calls == []
    assert formatted([0.0, 2.0**-70, 5e-324, 1e-25, 1e15]) == reprs(
        [0.0, 2.0**-70, 5e-324, 1e-25, 1e15])
    assert len(calls) == 5  # each of a class the fast path leaves to repr


def test_spectrum_tables_leave_no_cell_to_repr(tmp_path, monkeypatch):
    calls = counting_repr(monkeypatch)
    config = Path(__file__).resolve().parents[1] / "configs" / "default.cfg"
    assert main(["spectrum", "--config", str(config), "--seed", "1",
                 "--out", str(tmp_path)]) == 0
    _, (freq, psd), _ = read_table(tmp_path / "spectrum_on.csv")
    assert freq.size == psd.size > _CHUNK_ROWS and psd.max() < 1e-4
    assert calls == []


def test_importing_the_cli_builds_no_formatter_table():
    child = ("import amorsim.cli, amorsim.tables as t; "
             "print(t._tables.cache_info().currsize)")
    src = str(Path(__file__).resolve().parents[1] / "src")
    run = subprocess.run([sys.executable, "-c", child], capture_output=True,
                         text=True, timeout=120, env={"PYTHONPATH": src})
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "0"


def _imports_tables(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        return any(a.name == "amorsim.tables" for a in node.names)
    if not isinstance(node, ast.ImportFrom):
        return False
    if node.module == "amorsim.tables" or (node.level, node.module) == (
            1, "tables"):
        return True
    return ((node.level, node.module) in ((1, None), (0, "amorsim"))
            and any(a.name == "tables" for a in node.names))


def test_only_the_cli_imports_tables():
    # cli fixes every output's layout; the physics modules write no file
    modules = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
               for path in Path(tables.__file__).parent.glob("*.py")}
    importers = {name for name, tree in modules.items()
                 if any(map(_imports_tables, ast.walk(tree)))}
    assert importers == {"cli"}
    for name in ("signal_model", "detector", "dsp", "analysis", "fitting"):
        opens = [node.lineno for node in ast.walk(modules[name])
                 if isinstance(node, ast.Call)
                 and "open" in (getattr(node.func, "id", None),
                                getattr(node.func, "attr", None))]
        assert opens == [], name


# ---------------------------------------------------------------------------
# Refused tables and header values
# ---------------------------------------------------------------------------

def test_columns_of_unequal_length_are_refused(tmp_path):
    with pytest.raises(ValueError, match=r"a=5, b=3"):
        write_table(tmp_path / "t.csv", ["a", "b"],
                    [np.arange(5.0), np.arange(3.0)])
    with pytest.raises(ValueError, match="2 column names for 1 columns"):
        write_table(tmp_path / "t.csv", ["a", "b"], [np.arange(5.0)])


@pytest.mark.parametrize("name, column, cell", [
    ("t.csv", "x,y", "a"),
    ("t.csv", "a", "x,y"),
    ("t.csv", "a", "x\ny"),
    ("t.csv", "a", "x\ry"),
    ("t.csv", "a", "x\0y"),
    ("t.dat", "a b", "a"),
    ("t.dat", "a", "x y"),
    ("t.dat", "a\n", "x"),
    ("t.dat", "a\tb", "x"),
])
def test_separator_or_line_break_in_text_is_refused(tmp_path, name, column,
                                                    cell):
    for rows in (1, _CHUNK_ROWS):
        with pytest.raises(ValueError, match=re.escape(repr(column))):
            write_table(tmp_path / name, [column], [[cell] * rows])


def test_numpy_scalar_header_values_read_back(tmp_path):
    path = tmp_path / "t.csv"
    meta = {"f": np.float32(0.5), "i": np.int64(3), "b": np.bool_(True),
            "seed": (np.int64(4), (1, np.uint8(2))), "g": np.float64(0.1)}
    write_table(path, ["a"], [[1.0]], meta)
    assert "np." not in path.read_text()
    _, _, back = read_table(path)
    assert back == {"f": 0.5, "i": 3, "b": True, "seed": (4, (1, 2)),
                    "g": 0.1}
    assert type(back["i"]) is int and type(back["f"]) is float
