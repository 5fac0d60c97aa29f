"""Deterministic serialization: the columnar CSV writer and the JSON emitter."""

import math
from fractions import Fraction

import numpy as np
import pytest

from sgdm_sched._csv import _decimal, csv_cells, csv_text
from sgdm_sched._fmt import dumps17, fmt_float

NON_FINITE = [np.nan, np.inf, -np.inf]
# Remainders in the undecided window: the truncated product rounds down, the
# exact value (rounded by ``%.17g``) up.  Narrowing the window writes them wrong.
UNDERSHOT = [-6.43882256301672e+234, -8.663560150947353e-112, -1.613086466457549e-89,
             -1.1552727467836099e-64, 2.6634525807784418e-217, -2.331856509780099e+196]
# Exact decimal ties at the 17th digit, which %.17g rounds half to even.
TIES = [2.0**-25, 2178612368000097.8, 795681248817363.4, -7383714953916.344]
# Doubles below 10^X whose 17 digits round up to 10^X: the carry into 10^17.
CARRIES = [1e-305, 1e-243, 1e-14, 1e98, 1e220]


def _neighbours(x):
    x = np.asarray(x, np.float64)
    with np.errstate(over="ignore"):
        near = np.concatenate([x, np.nextafter(x, np.inf), np.nextafter(x, -np.inf)])
    return near[np.isfinite(near)]


def _special_floats():
    powers = np.array([float(f"1e{j}") for j in range(-307, 309)])
    edges = [1e-5, 1e-4, 1e16, 1e17, 0.0, 5e-324, 2.2250738585072014e-308,
             np.nextafter(2.2250738585072014e-308, 0), 1.7976931348623157e308]
    near_2_53 = 2.0**53 + np.arange(-64, 65)
    named = np.concatenate([_neighbours(powers), _neighbours(edges), near_2_53,
                            UNDERSHOT, TIES, CARRIES])
    return np.concatenate([named, -named])


def test_rows_match_per_value_formatting():
    # adjacent float columns are formatted in one pass and share a word
    # count: a row where one column needs exponent words or the scalar
    # fallback and another does not must still match per-value formatting
    rng = np.random.default_rng(5)
    bits = rng.integers(0, 2**64, 200_000, dtype=np.uint64)
    random_bits = bits.view(np.float64)[np.isfinite(bits.view(np.float64))]
    floats = np.concatenate([
        random_bits,
        rng.standard_normal(200) * 10.0 ** rng.integers(-300, 300, 200),
        [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308, 0.1, 1e16, 3.0],
        _special_floats(),
    ])
    ints = rng.integers(-(2**62), 2**62, floats.size)
    ints[:4] = [-(2**63), 2**63 - 1, 0, -1]
    flags = rng.random(floats.size) < 0.5
    plain = rng.standard_normal(floats.size)  # mostly fixed notation
    (_, X, decided), (_, X_plain, decided_plain) = _decimal(floats), _decimal(plain)
    assert (((X < -4) | (X > 16)) & (X_plain >= -4) & (X_plain <= 16)).any()  # exponent words
    assert (~decided & decided_plain).any()  # the scalar fallback
    values = {"i": ints, "x": floats, "b": flags, "p": plain, "r": floats[::-1]}
    text = {"i": [str(v) for v in ints.tolist()], "b": [str(int(v)) for v in flags.tolist()],
            "x": [fmt_float(v) for v in floats.tolist()],
            "p": [fmt_float(v) for v in plain.tolist()]}
    text["r"] = text["x"][::-1]
    for header in ("i,x,b", "i,x,p,r", "x,r,b"):  # three float columns; a float one first
        names = header.split(",")
        lines = csv_text(header, [values[c] for c in names]).split("\n")
        expected = [header, *map(",".join, zip(*(text[c] for c in names))), ""]
        # the first wrong row, not a diff of 200,000 lines
        wrong = next(((i, a, b) for i, (a, b) in enumerate(zip(lines, expected)) if a != b), None)
        assert wrong is None and len(lines) == len(expected)


def test_unsigned_columns_use_every_bit():
    u = np.array([0, 1, 10**19, 2**64 - 1], np.uint64)
    assert csv_text("u", (u,)) == "u\n0\n1\n10000000000000000000\n18446744073709551615\n"


def test_undecided_remainders_go_to_the_scalar_formatter():
    x = np.array(UNDERSHOT + TIES + [0.0, -0.0, 5e-324, -1e-310])
    assert not _decimal(x)[2].any()
    assert csv_text("x", (x,)) == "x\n" + "".join(fmt_float(v) + "\n" for v in x.tolist())


def test_exponent_correction_and_carry_are_reached():
    # 2^53 <= 1e16 < 2^54 gives the binade estimate 15; the threshold corrects it
    x = np.array([1e16, 1e17, 1e-5, np.nextafter(1e16, 0)])
    estimate = [math.floor((math.frexp(v)[1] - 1) * math.log10(2)) for v in x.tolist()]
    D, X, decided = _decimal(x)
    assert decided.all()
    assert estimate == [15, 16, -6, 15]
    assert X.tolist() == [16, 17, -5, 15]
    # each of CARRIES lies below 10^X, so the threshold gives X - 1 and the
    # rounding of D to 10^17 carries it to X
    c = np.array(CARRIES)
    D, X, decided = _decimal(c)
    powers = [round(math.log10(v)) for v in CARRIES]
    assert all(Fraction(v) < Fraction(10) ** p for v, p in zip(CARRIES, powers))
    assert decided.all() and (D == 10**16).all() and X.tolist() == powers
    assert csv_text("x", (c,)) == "x\n" + "".join(f"1e{p:+03d}\n" for p in powers)


def test_lead_column_is_placed_first():
    lead = csv_cells((np.arange(3), np.array([0.5, 0.25, 0.125])))
    text = csv_text("t,lr,x", (np.array([1.0, 2.0, 3.0]),), lead)
    assert text == "t,lr,x\n0,0.5,1\n1,0.25,2\n2,0.125,3\n"


def test_blocks_join_into_one_text():
    n = 10_000  # more than two blocks of rows
    x = np.random.default_rng(7).standard_normal(n) * 1e3
    lead = csv_cells((np.arange(n),))
    expected = "".join(f"{i},{fmt_float(v)}\n" for i, v in enumerate(x.tolist()))
    assert csv_text("t,x", (x,), lead) == "t,x\n" + expected


def test_empty_body_is_header_only():
    assert csv_text("t,x", (np.arange(0), np.empty(0))) == "t,x\n"


def test_columns_of_unequal_length_are_refused():
    with pytest.raises(ValueError, match="length"):
        csv_text("t,x", (np.arange(3), np.zeros(2)))
    with pytest.raises(ValueError, match="length"):
        csv_text("t,x", (np.zeros(2),), lead=csv_cells((np.arange(3),)))
    with pytest.raises(ValueError, match="length"):
        csv_cells((np.arange(3), np.zeros(2)))


@pytest.mark.parametrize("bad", NON_FINITE, ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("position", [0, 1, 2])
def test_non_finite_float_column_is_refused(bad, position):
    columns = [np.linspace(0.0, 1.0, 5) for _ in range(3)]
    columns[position][3] = bad
    with pytest.raises(ValueError, match=f"non-finite value {float(bad)!r}"):
        csv_text("t,a,b,c", (np.arange(5), *columns))
    with pytest.raises(ValueError, match=f"non-finite value {float(bad)!r}"):
        csv_cells((np.arange(5), *columns))


@pytest.mark.parametrize("bad", NON_FINITE, ids=["nan", "+inf", "-inf"])
def test_dumps17_refuses_non_finite(bad):
    with pytest.raises(ValueError, match="non-finite"):
        dumps17({"x": [1.0, bad]})
    with pytest.raises(ValueError, match="non-finite"):
        dumps17({"x": np.float64(bad)})
