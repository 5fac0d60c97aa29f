"""Deterministic serialization: the columnar CSV rows and the JSON emitter."""

import numpy as np
import pytest

from sgdm_sched._fmt import csv_rows, csv_text, dumps17, fmt_float

NON_FINITE = [np.nan, np.inf, -np.inf]


def test_rows_match_per_value_formatting():
    rng = np.random.default_rng(5)
    floats = np.concatenate([
        rng.standard_normal(200) * 10.0 ** rng.integers(-300, 300, 200),
        [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308, 0.1, 1e16, 3.0],
    ])
    ints = rng.integers(-(2**62), 2**62, floats.size)
    flags = rng.random(floats.size) < 0.5
    expected = [f"{int(i)},{fmt_float(x)},{int(b)}" for i, x, b in zip(ints, floats, flags)]
    assert csv_rows((ints, floats, flags)) == expected


def test_lead_column_is_placed_first():
    lead = csv_rows((np.arange(3), np.array([0.5, 0.25, 0.125])))
    text = csv_text("t,lr,x", (np.array([1.0, 2.0, 3.0]),), lead)
    assert text == "t,lr,x\n0,0.5,1\n1,0.25,2\n2,0.125,3\n"


def test_empty_body_is_header_only():
    assert csv_text("t,x", (np.arange(0), np.empty(0))) == "t,x\n"


def test_columns_of_unequal_length_are_refused():
    with pytest.raises(ValueError, match="length"):
        csv_rows((np.arange(3), np.zeros(2)))
    with pytest.raises(ValueError, match="length"):
        csv_rows((np.zeros(2),), lead=["a", "b", "c"])


@pytest.mark.parametrize("bad", NON_FINITE, ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("position", [0, 1, 2])
def test_non_finite_float_column_is_refused(bad, position):
    columns = [np.linspace(0.0, 1.0, 5) for _ in range(3)]
    columns[position][3] = bad
    with pytest.raises(ValueError, match=f"non-finite value {float(bad)!r}"):
        csv_rows((np.arange(5), *columns))


@pytest.mark.parametrize("bad", NON_FINITE, ids=["nan", "+inf", "-inf"])
def test_dumps17_refuses_non_finite(bad):
    with pytest.raises(ValueError, match="non-finite"):
        dumps17({"x": [1.0, bad]})
    with pytest.raises(ValueError, match="non-finite"):
        dumps17({"x": np.float64(bad)})
