import math

import numpy as np
import pytest

from chancap.gaussian import GaussianPrep, density_at, noise_variance
from chancap.oracle import (
    GridState,
    discretize,
    grid_variance,
    propagate_spectral,
    unitary_evolve_2x2,
)
from chancap.twolevel import PrepBias, TwoLevelHamiltonian, evolve
from chancap.units import UnitMode, constants_for

NAT = constants_for(UnitMode.NATURAL)

UNIT_PREP = GaussianPrep(x0=0.0, sigma2_A=1.0, mass=1.0)


class TestDiscretize:
    def test_grid_norm_is_one(self):
        g = discretize(UNIT_PREP, t_max=2.0, n=4096, c=NAT)
        assert abs(g.norm() - 1.0) < 1e-12

    def test_grid_mean_at_center(self):
        prep = GaussianPrep(x0=1.7, sigma2_A=0.5, mass=1.0)
        g = discretize(prep, t_max=1.0, n=4096, c=NAT)
        w = g.density() * g.dx
        mean = float((g.x * w).sum())
        assert abs(mean - 1.7) < g.dx

    def test_grid_variance_matches_preparation(self):
        g = discretize(UNIT_PREP, t_max=1.0, n=4096, c=NAT)
        assert grid_variance(g) == pytest.approx(1.0, rel=1e-6)

    def test_narrow_packet_variance(self):
        prep = GaussianPrep(x0=0.0, sigma2_A=1e-3, mass=1.0)
        g = discretize(prep, t_max=0.0, n=8192, c=NAT)
        assert grid_variance(g) == pytest.approx(1e-3, rel=1e-6)

    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            discretize(UNIT_PREP, t_max=1.0, n=1000, c=NAT)


class TestPropagate:
    def test_identity_at_t_zero(self):
        g = discretize(UNIT_PREP, t_max=1.0, n=2048, c=NAT)
        g0 = propagate_spectral(g, 1.0, 0.0, NAT)
        assert float(np.max(np.abs(g0.amps - g.amps))) < 1e-12

    def test_composition_law(self):
        g = discretize(UNIT_PREP, t_max=2.0, n=2048, c=NAT)
        a = propagate_spectral(propagate_spectral(g, 1.0, 0.7, NAT), 1.0, 0.9, NAT)
        b = propagate_spectral(g, 1.0, 1.6, NAT)
        assert float(np.max(np.abs(a.amps - b.amps))) < 1e-10

    def test_norm_preserved(self):
        g = discretize(UNIT_PREP, t_max=2.0, n=2048, c=NAT)
        for t in (0.5, 1.0, 2.0):
            assert abs(propagate_spectral(g, 1.0, t, NAT).norm() - 1.0) < 1e-10

    def test_density_matches_closed_form(self):
        g = discretize(UNIT_PREP, t_max=2.0, n=4096, c=NAT)
        for t in (0.5, 1.0, 2.0):
            gt = propagate_spectral(g, 1.0, t, NAT)
            rho = density_at(UNIT_PREP, gt.x, t, NAT)
            assert float(np.max(np.abs(gt.density() - rho))) < 1e-6

    def test_variance_growth_matches_closed_form(self):
        g = discretize(UNIT_PREP, t_max=2.0, n=4096, c=NAT)
        gt = propagate_spectral(g, 1.0, 1.0, NAT)
        # Delta^2 = 1 + (1/2)^2 = 1.25 at t=1
        assert grid_variance(gt) == pytest.approx(1.25, rel=1e-4)

    def test_refinement_reduces_error(self):
        # narrow packet: the coarse grid clips the momentum tail
        narrow = GaussianPrep(x0=0.0, sigma2_A=0.003, mass=1.0)
        errs = {}
        for n in (4096, 8192):
            g = discretize(narrow, t_max=1.0, n=n, c=NAT)
            gt = propagate_spectral(g, 1.0, 1.0, NAT)
            rho = density_at(narrow, gt.x, 1.0, NAT)
            errs[n] = float(np.max(np.abs(gt.density() - rho)))
        assert errs[8192] < errs[4096]

    def test_random_draw_agreement(self):
        rng = np.random.default_rng(41)
        worst = 0.0
        for _ in range(50):
            prep = GaussianPrep(
                x0=rng.uniform(-1, 1), sigma2_A=rng.uniform(0.5, 2), mass=rng.uniform(0.5, 2)
            )
            t = rng.uniform(0, 2)
            g = discretize(prep, t_max=2.0, n=4096, c=NAT)
            gt = propagate_spectral(g, prep.mass, t, NAT)
            worst = max(worst, float(np.max(np.abs(gt.density() - density_at(prep, gt.x, t, NAT)))))
        assert worst < 1e-6

    def test_negative_time_rejected(self):
        g = discretize(UNIT_PREP, t_max=1.0, n=2048, c=NAT)
        with pytest.raises(ValueError):
            propagate_spectral(g, 1.0, -0.5, NAT)


GRID = discretize(UNIT_PREP, t_max=1.0, n=256, c=NAT)
H = TwoLevelHamiltonian(E=1e300, Delta=1.0, epsilon=0.3)
STATE = evolve(H, PrepBias(0.3), 0.0, NAT)


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: propagate_spectral(GRID, math.nan, 1.0, NAT), "mass must be positive and finite, got nan"),
        (lambda: propagate_spectral(GRID, math.inf, 1.0, NAT), "mass must be positive and finite, got inf"),
        # These two keep the ids they had under the earlier delay message.
        pytest.param(
            lambda: propagate_spectral(GRID, 1.0, math.nan, NAT),
            "delay t must be finite and >= 0, got t = nan",
            id="<lambda>-time must be finite and >= 0, got nan",
        ),
        pytest.param(
            lambda: propagate_spectral(GRID, 1.0, math.inf, NAT),
            "delay t must be finite and >= 0, got t = inf",
            id="<lambda>-time must be finite and >= 0, got inf",
        ),
        (
            lambda: GridState(x_min=GRID.x_min, x_max=GRID.x_max, n=GRID.n, amps=GRID.amps * math.nan),
            "grid norm deviates from 1 by nan",
        ),
        (
            lambda: GridState(x_min=math.nan, x_max=GRID.x_max, n=GRID.n, amps=GRID.amps),
            "x_max must exceed x_min, both finite",
        ),
        (
            lambda: GridState(x_min=GRID.x_min, x_max=GRID.x_max, n=GRID.n, amps=GRID.amps[:-1]),
            "expected 256 amplitudes, got shape",
        ),
        (lambda: unitary_evolve_2x2(H, STATE, math.nan, NAT), "delay t must be finite and >= 0, got t = nan"),
        (lambda: unitary_evolve_2x2(H, STATE, math.inf, NAT), "delay t must be finite and >= 0, got t = inf"),
        (lambda: unitary_evolve_2x2(H, STATE, -1.0, NAT), "delay t must be finite and >= 0, got t = -1.0"),
        (lambda: unitary_evolve_2x2(H, STATE, 1e10, NAT), "delay t = 10000000000.0 gives a phase"),
    ],
)
def test_non_finite_input_rejected(call, message):
    # Each guard is a positive condition: these inputs used to pass and give
    # NaN amplitudes, or a grid that held them; the 2x2 oracle also evolved
    # backwards at t = -1, and its phase exp(-iwt/hbar) overflowed at 1e10.
    # The amplitude shape is checked here too.
    with pytest.raises(ValueError, match=message):
        call()


class TestGridState:
    def test_norm_validation(self):
        amps = np.ones(1024, dtype=complex)
        with pytest.raises(ValueError):
            GridState(x_min=-1.0, x_max=1.0, n=1024, amps=amps)

    def test_power_of_two_validation(self):
        amps = np.ones(6, dtype=complex)
        with pytest.raises(ValueError):
            GridState(x_min=0.0, x_max=1.0, n=6, amps=amps)


class TestUnitary2x2:
    def test_identity_at_t_zero(self):
        h = TwoLevelHamiltonian(E=0.5, Delta=1.0, epsilon=0.3)
        st = evolve(h, PrepBias(0.3), 0.0, NAT)
        out = unitary_evolve_2x2(h, st, 0.0, NAT)
        assert out.amp0 == pytest.approx(st.amp0)
        assert out.amp1 == pytest.approx(st.amp1)

    def test_diagonal_keeps_populations(self):
        h = TwoLevelHamiltonian(E=1.0, Delta=0.7, epsilon=0.0)
        st = evolve(h, PrepBias(0.2), 0.0, NAT)
        for t in (0.5, 3.3):
            out = unitary_evolve_2x2(h, st, t, NAT)
            assert out.populations()[0] == pytest.approx(0.8, abs=1e-12)

    def test_norm_preserved(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            h = TwoLevelHamiltonian(
                E=rng.uniform(-2, 2), Delta=rng.uniform(0, 3), epsilon=rng.uniform(0, 3)
            )
            st = evolve(h, PrepBias(rng.uniform(0, 1)), 0.0, NAT)
            out = unitary_evolve_2x2(h, st, rng.uniform(0, 10), NAT)
            assert abs(sum(out.populations()) - 1.0) < 1e-12

    def test_agrees_with_closed_form(self):
        rng = np.random.default_rng(43)
        worst = 0.0
        for _ in range(1000):
            h = TwoLevelHamiltonian(
                E=rng.uniform(-2, 2), Delta=rng.uniform(0, 3), epsilon=rng.uniform(0, 3)
            )
            p = PrepBias(rng.uniform(0, 1))
            t = rng.uniform(0, 10)
            closed = evolve(h, p, t, NAT)
            ref = unitary_evolve_2x2(h, evolve(h, p, 0.0, NAT), t, NAT)
            v = np.array([closed.amp0, closed.amp1])
            u = np.array([ref.amp0, ref.amp1])
            k = int(np.argmax(np.abs(v)))
            phase = (v[k] / u[k]) / abs(v[k] / u[k])
            worst = max(worst, float(np.max(np.abs(v - phase * u))))
        assert worst < 1e-10


def test_spectral_accuracy_beats_tolerance_with_margin():
    """The unit-packet benchmark should sit far below the 1e-6 gate."""
    g = discretize(UNIT_PREP, t_max=2.0, n=4096, c=NAT)
    gt = propagate_spectral(g, 1.0, 1.0, NAT)
    rho = density_at(UNIT_PREP, gt.x, 1.0, NAT)
    assert float(np.max(np.abs(gt.density() - rho))) < 1e-10


def test_si_scale_oracle_is_out_of_scope():
    """Natural-unit magnitudes only: document the limit rather than hide it.

    At SI magnitudes the dispersion phases underflow double precision, so
    the spectral oracle is exercised at O(1) scales (the closed forms are
    dimensionally exact, so this verifies them at every scale).
    """
    si = constants_for(UnitMode.SI)
    prep = GaussianPrep(x0=0.0, sigma2_A=1.0, mass=1.0)
    # phase scale hbar * k^2 * t ~ 1e-34: indistinguishable from zero evolution
    g = discretize(prep, t_max=1.0, n=1024, c=si)
    gt = propagate_spectral(g, 1.0, 1.0, si)
    assert float(np.max(np.abs(gt.amps - g.amps))) < 1e-12
