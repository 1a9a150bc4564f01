"""Every cell of the table kernel equals the standard library's spelling of its value."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chancap import _floattext

SPELL = {"csv": "%.16e".__mod__, "json": json.dumps}
CELLS = {"csv": _floattext.csv_cells, "json": _floattext.json_cells}


def texts(x, fmt):
    """The cells of x in a format, as str, NUL padding removed."""
    cells = CELLS[fmt](np.asarray(x, dtype=np.float64), (b"",))
    return [row.tobytes().replace(b"\0", b"").decode() for row in cells]


def mismatches(x, fmt):
    """(value, kernel text, stdlib text) wherever the two differ."""
    x = np.asarray(x, dtype=np.float64)
    spell = SPELL[fmt]
    return [(v, got, spell(v)) for v, got in zip(x.tolist(), texts(x, fmt)) if got != spell(v)]


def with_neighbours(x):
    x = np.asarray(x, dtype=np.float64)
    return np.concatenate([x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf)])


POWERS_OF_TWO = with_neighbours(np.ldexp(1.0, np.arange(-1074, 1024)))
POWERS_OF_TEN = with_neighbours([float(f"1e{j}") for j in range(-323, 309)])
SUBNORMALS = np.random.default_rng(1).integers(1, 2**52, 2000).view(np.float64)
SPECIAL = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 2.2250738585072014e-308,
           2.225073858507201e-308, 1.7976931348623157e308, 1e23, 2.0**-25, -(2.0**-25),
           1609875588752389.75, 0.1, 1.5, 1e16, 1e-5, 1e-4]
FIXED = {
    "special": SPECIAL,
    "powers of two": POWERS_OF_TWO,
    "powers of ten": POWERS_OF_TEN,
    "subnormals": np.concatenate([SUBNORMALS, -SUBNORMALS]),
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", sorted(FIXED))
def test_fixed_values_match_stdlib(name, fmt):
    assert mismatches(FIXED[name], fmt) == []


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_random_bit_patterns_match_stdlib(fmt):
    bits = np.random.default_rng(20261019).integers(-(2**63), 2**63 - 1, 100_000, dtype=np.int64)
    assert mismatches(bits.view(np.float64), fmt) == []


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_log_uniform_values_match_stdlib(fmt):
    # Values with few fractional bits near 1e13-1e16 hold many exact 17-digit ties.
    rng = np.random.default_rng(7)
    x = 10.0 ** rng.uniform(-30.0, 30.0, 50_000) * rng.choice([-1.0, 1.0], 50_000)
    assert mismatches(x, fmt) == []


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=20))
def test_hypothesis_floats_match_stdlib(values):
    for fmt in ("csv", "json"):
        assert mismatches(values, fmt) == []


def test_csv_spelling_of_1e23():
    assert texts([1e23], "csv") == ["9.9999999999999992e+22"]
    assert texts([1e23], "json") == ["1e+23"]


class TestCertificate:
    """Which values the kernel leaves to the standard library."""

    def test_csv_declines_non_finite_and_inexact_ties(self):
        # 2**-25 = 2.98023223876953125e-08: 18 digits, the last a 5, and 10**24 is no double.
        x = np.array([math.nan, math.inf, -math.inf, 2.0**-25, -(2.0**-25)])
        assert not _floattext.digits17(x)[2].any()

    def test_csv_takes_exact_ties_half_even(self):
        # y = 16098755887523897.5 is exact, since 10**1 is a double: ties to even.
        D, k, ok = _floattext.digits17(np.array([1609875588752389.75, 0.0, -0.0]))
        assert ok.all()
        assert (D[0], k[0]) == (16098755887523898, 15)
        assert list(D[1:]) == [0, 0]

    def test_json_declines_non_finite_subnormal_least_normal_and_boundary(self):
        # 1e23's shortest spelling lies on its rounding boundary.
        x = np.array([math.nan, math.inf, 5e-324, 2.225073858507201e-308, 2.2250738585072014e-308, 1e23])
        assert not _floattext.shortest(x)[2].any()

    def test_json_takes_powers_of_two_but_a_tie(self):
        # Below a power of two the rounding interval is half as wide; the
        # kernel takes that in. 2**-25 is a 17-digit tie it cannot resolve.
        j = np.arange(-1021, 1024)
        D, k, ok = _floattext.shortest(np.ldexp(1.0, j))
        assert list(j[~ok]) == [-25]
        assert (D[j == 0][0], k[j == 0][0]) == (10**16, 0)

    def test_declined_share_of_random_doubles_is_small(self):
        x = np.random.default_rng(3).standard_normal(100_000)
        assert _floattext.digits17(x)[2].all()
        assert (~_floattext.shortest(x)[2]).sum() <= 100
