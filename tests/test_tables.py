"""The shared table writer and reader."""

import math

import numpy as np
import pytest

from amorsim.tables import read_table, write_json, write_table


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
