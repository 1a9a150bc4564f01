import math
import re

import numpy as np
import pytest

from chancap.gaussian import GaussianPrep, density_at, noise_variance
from chancap.oracle import discretize, propagate_spectral, unitary_evolve_2x2
from chancap.twolevel import PrepBias, TwoLevelHamiltonian, TwoLevelState, channel_at, evolve, transition_probs
from chancap.units import HBAR_SI, Constants, UnitMode, _require, constants_for


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


def test_require_names_each_value_of_a_tuple_at_the_first_failing_index():
    full = np.arange(6.0).reshape(2, 3)
    row = np.array([10.0, 20.0, 30.0])  # broadcast against full
    ok = (full != 2.0) & (full != 3.0)  # fails at [0, 2], then [1, 0]: first in C order, not Fortran
    with pytest.raises(ValueError, match=r"^a=0\.5, b=30\.0, c=2\.0$"):
        _require(ok, (0.5, row, full), "a={}, b={}, c={}")
    with pytest.raises(ValueError, match=r"^a=0\.5, b=1$"):
        _require(False, (0.5, 1), "a={}, b={}")
    _require(np.ones((2, 3), bool), (0.5, row, full), "a={}, b={}, c={}")


def test_require_formats_a_single_value_as_before():
    with pytest.raises(ValueError, match=r"^got 2\.5$"):
        _require(np.array([[True, True], [False, False]]), np.array([[1.0, 2.0], [2.5, 3.0]]), "got {}")
    with pytest.raises(ValueError, match=r"^got 3$"):
        _require(False, 3, "got {}")
    with pytest.raises(ValueError, match=r"^got nan$"):
        _require(math.nan > 0.0, math.nan, "got {}")
    _require(True, 3, "got {}")


@pytest.mark.parametrize("bad", [math.nan, -1.0, math.inf])
@pytest.mark.parametrize("as_array", [False, True], ids=["float", "array"])
def test_every_delay_has_one_guard(bad, as_array):
    # noise_variance, density_at and propagate_spectral had spellings of their own.
    nat = constants_for(UnitMode.NATURAL)
    prep, h, r0 = GaussianPrep(0.0, 1.0, 1.0), TwoLevelHamiltonian(0.0, 1.0, 0.5), PrepBias(0.2)
    grid = discretize(prep, 1.0, 16, nat)
    t = np.array([1.0, bad]) if as_array else bad
    calls = [
        lambda: noise_variance(prep, t, nat),
        lambda: density_at(prep, 0.0, t, nat),
        lambda: transition_probs(h, r0, t, nat),
        lambda: channel_at(h, r0, t, nat),
        lambda: evolve(h, r0, t, nat),
        lambda: propagate_spectral(grid, 1.0, t, nat),
        lambda: unitary_evolve_2x2(h, TwoLevelState(1.0 + 0.0j, 0.0j), t, nat),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=f"^{re.escape(f'delay t must be finite and >= 0, got t = {bad}')}$"):
            call()
