import math

import pytest

from chancap.units import HBAR_SI, Constants, UnitMode, constants_for


def test_si_hbar_value():
    c = constants_for(UnitMode.SI)
    assert c.hbar == 1.054571817e-34
    assert c.mode is UnitMode.SI


def test_natural_hbar_is_one():
    c = constants_for(UnitMode.NATURAL)
    assert c.hbar == 1.0
    assert c.mode is UnitMode.NATURAL


def test_modes_are_distinct():
    si = constants_for(UnitMode.SI)
    nat = constants_for(UnitMode.NATURAL)
    assert si != nat
    assert si.hbar != nat.hbar


def test_repeated_calls_identical():
    assert constants_for(UnitMode.SI) == constants_for(UnitMode.SI)
    assert constants_for(UnitMode.NATURAL) == constants_for(UnitMode.NATURAL)


def test_unknown_mode_rejected():
    with pytest.raises(ValueError, match="unknown unit mode: 'natural'"):
        constants_for("natural")


def test_hbar_si_constant_matches():
    assert constants_for(UnitMode.SI).hbar == HBAR_SI


def test_nonpositive_hbar_rejected():
    with pytest.raises(ValueError):
        Constants(hbar=0.0, mode=UnitMode.SI)
    with pytest.raises(ValueError):
        Constants(hbar=-1.0, mode=UnitMode.NATURAL)
    # A NaN hbar used to pass and make every closed form return NaN.
    with pytest.raises(ValueError, match="hbar must be positive and finite, got nan"):
        Constants(hbar=math.nan, mode=UnitMode.NATURAL)
    with pytest.raises(ValueError, match="hbar must be positive and finite, got inf"):
        Constants(hbar=math.inf, mode=UnitMode.SI)
