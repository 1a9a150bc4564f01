import math

import numpy as np
import pytest

from chancap.gaussian import (
    ComplexDensityParams,
    GaussianPrep,
    PowerBudget,
    beta,
    capacity_at_optimum,
    capacity_nats,
    capacity_vs_precision_curve,
    complex_density_params,
    density_at,
    noise_variance,
    optimal_sigma2,
    placement_power,
    wavefunction_at,
)
from chancap.units import Constants, UnitMode, constants_for

NAT = constants_for(UnitMode.NATURAL)
SI = constants_for(UnitMode.SI)


class TestNoiseVariance:
    def test_no_evolution_at_t_zero(self):
        for s in (0.1, 1.0, 7.5):
            prep = GaussianPrep(x0=0.0, sigma2_A=s, mass=1.0)
            assert noise_variance(prep, 0.0, NAT) == s

    def test_hand_value(self):
        # sigma2=1, hbar=m=1, t=2: 1 + (2/2)^2 = 2
        prep = GaussianPrep(x0=0.0, sigma2_A=1.0, mass=1.0)
        assert noise_variance(prep, 2.0, NAT) == pytest.approx(2.0, rel=1e-15)

    def test_at_threshold_variance_noise_is_linear_in_t(self):
        # sigma2 = hbar t / 2m gives exactly hbar t / m
        rng = np.random.default_rng(7)
        for _ in range(50):
            mass = rng.uniform(0.2, 5.0)
            t = rng.uniform(0.1, 5.0)
            vstar = NAT.hbar * t / (2 * mass)
            prep = GaussianPrep(x0=0.0, sigma2_A=vstar, mass=mass)
            assert noise_variance(prep, t, NAT) == pytest.approx(NAT.hbar * t / mass, rel=1e-12)

    def test_amgm_floor(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            mass = rng.uniform(0.2, 5.0)
            t = rng.uniform(0.1, 5.0)
            sigma2 = rng.uniform(1e-3, 10.0)
            prep = GaussianPrep(x0=0.0, sigma2_A=sigma2, mass=mass)
            assert noise_variance(prep, t, NAT) >= NAT.hbar * t / mass * (1 - 1e-12)

    def test_negative_time_rejected(self):
        prep = GaussianPrep(x0=0.0, sigma2_A=1.0, mass=1.0)
        with pytest.raises(ValueError):
            noise_variance(prep, -0.1, NAT)


class TestDensity:
    def test_peak_value_at_t_zero(self):
        prep = GaussianPrep(x0=1.5, sigma2_A=0.7, mass=1.0)
        assert density_at(prep, 1.5, 0.0, NAT) == pytest.approx(
            1.0 / math.sqrt(2 * math.pi * 0.7), rel=1e-14
        )

    def test_normalization_on_wide_grid(self):
        prep = GaussianPrep(x0=-0.3, sigma2_A=1.3, mass=0.8)
        for t in (0.0, 0.7, 2.5):
            width = 10 * math.sqrt(noise_variance(prep, t, NAT))
            x = np.linspace(prep.x0 - width, prep.x0 + width, 8192, endpoint=False)
            total = density_at(prep, x, t, NAT).sum() * (2 * width / 8192)
            assert abs(total - 1.0) < 1e-8

    def test_hand_value_one_sigma_out(self):
        # hbar=m=1, sigma2=1, t=1: Delta^2 = 1.25
        prep = GaussianPrep(x0=0.4, sigma2_A=1.0, mass=1.0)
        expected = 1 / math.sqrt(2 * math.pi * 1.25) * math.exp(-1 / 2.5)
        assert density_at(prep, prep.x0 + 1.0, 1.0, NAT) == pytest.approx(expected, rel=1e-14)


class TestWavefunction:
    def test_reduces_to_initial_gaussian_at_t_zero(self):
        prep = GaussianPrep(x0=0.2, sigma2_A=0.9, mass=1.0)
        x = np.linspace(-3, 3, 7)
        psi = wavefunction_at(prep, x, 0.0, NAT)
        expected = (2 * math.pi * 0.9) ** -0.25 * np.exp(-((x - 0.2) ** 2) / (4 * 0.9))
        assert np.max(np.abs(psi.imag)) == 0.0
        np.testing.assert_allclose(psi.real, expected, rtol=1e-14)

    def test_modulus_squared_matches_density(self):
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(300):
            prep = GaussianPrep(
                x0=rng.uniform(-1, 1), sigma2_A=rng.uniform(0.3, 3), mass=rng.uniform(0.3, 3)
            )
            t = rng.uniform(0, 4)
            x = prep.x0 + rng.uniform(-5, 5) * math.sqrt(noise_variance(prep, t, NAT))
            psi = wavefunction_at(prep, x, t, NAT)
            worst = max(worst, abs(abs(psi) ** 2 - density_at(prep, x, t, NAT)))
        assert worst < 1e-12

    def test_grid_norm_is_unitary(self):
        prep = GaussianPrep(x0=0.0, sigma2_A=1.0, mass=1.0)
        for t in (0.0, 1.0, 3.0):
            width = 10 * math.sqrt(noise_variance(prep, t, NAT))
            x = np.linspace(-width, width, 8192, endpoint=False)
            psi = wavefunction_at(prep, x, t, NAT)
            norm = (np.abs(psi) ** 2).sum() * (2 * width / 8192)
            assert abs(norm - 1.0) < 1e-8


class TestCapacity:
    def test_zero_signal(self):
        assert capacity_nats(0.0, 1.0) == 0.0
        assert capacity_nats(0.0, 1e-9) == 0.0

    def test_one_nat_point(self):
        # 0.5 ln(1 + x) = 1  <=>  x = e^2 - 1
        assert capacity_nats(math.e**2 - 1, 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_atomic_scale_value(self):
        # P = 1 m^2, noise = hbar * 1s / 1e-27 kg; cross-checks the mass/delay contour
        delta2 = SI.hbar * 1.0 / 1e-27
        assert capacity_nats(1.0, delta2) == pytest.approx(8.032480466267351, abs=1e-12)

    def test_monotonicity(self):
        assert capacity_nats(2.0, 1.0) > capacity_nats(1.0, 1.0)
        assert capacity_nats(1.0, 2.0) < capacity_nats(1.0, 1.0)

    def test_invalid_noise_rejected(self):
        with pytest.raises(ValueError):
            capacity_nats(1.0, 0.0)
        with pytest.raises(ValueError):
            capacity_nats(1.0, -1.0)
        with pytest.raises(ValueError):
            capacity_nats(-1.0, 1.0)


class TestOptimalSigma2:
    def test_hand_value(self):
        assert optimal_sigma2(1.0, 1.0, NAT) == 0.5

    def test_atomic_scale_precision(self):
        # sqrt of the optimal noise floor for an atomic-scale mass, ~1e-4 m
        vstar = optimal_sigma2(1.0, 1e-27, SI)
        assert math.sqrt(2 * vstar) == pytest.approx(3.2474e-4, rel=5e-2)

    def test_strict_minimum(self):
        prep = lambda s: GaussianPrep(x0=0.0, sigma2_A=s, mass=1.3)
        t = 0.9
        vstar = optimal_sigma2(t, 1.3, NAT)
        base = noise_variance(prep(vstar), t, NAT)
        for delta in (0.1, 0.5):
            assert noise_variance(prep(vstar * (1 + delta)), t, NAT) > base
            assert noise_variance(prep(vstar * (1 - delta)), t, NAT) > base

    def test_proportional_to_hbar(self):
        for k in (1, 5, 17):
            scaled = Constants(hbar=NAT.hbar * 10.0**-k, mode=UnitMode.NATURAL)
            assert optimal_sigma2(2.0, 3.0, scaled) == pytest.approx(
                optimal_sigma2(2.0, 3.0, NAT) * 10.0**-k, rel=1e-15
            )

    def test_nonpositive_time_rejected(self):
        with pytest.raises(ValueError):
            optimal_sigma2(0.0, 1.0, NAT)
        with pytest.raises(ValueError):
            optimal_sigma2(-1.0, 1.0, NAT)


class TestPlacementPower:
    def test_hand_value(self):
        # m=2, T=1, t=1, E[X^2]=4: 2*4 / (2*1*2) = 2
        b = PowerBudget(prep_time_T=1.0, measure_delay_t=1.0, mass=2.0, mean_square_X=4.0)
        assert placement_power(b) == pytest.approx(2.0, rel=1e-15)

    def test_zero_displacement(self):
        b = PowerBudget(prep_time_T=1.0, measure_delay_t=0.5, mass=2.0, mean_square_X=0.0)
        assert placement_power(b) == 0.0

    def test_power_is_beta_times_second_moment(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            b = PowerBudget(
                prep_time_T=rng.uniform(0.1, 4),
                measure_delay_t=rng.uniform(0, 4),
                mass=rng.uniform(0.1, 4),
                mean_square_X=rng.uniform(0, 4),
            )
            assert placement_power(b) == pytest.approx(beta(b) * b.mean_square_X, rel=1e-12)

    def test_invalid_budget_rejected(self):
        with pytest.raises(ValueError):
            PowerBudget(prep_time_T=0.0, measure_delay_t=1.0, mass=1.0, mean_square_X=1.0)
        with pytest.raises(ValueError):
            PowerBudget(prep_time_T=1.0, measure_delay_t=-1.0, mass=1.0, mean_square_X=1.0)


class TestPrecisionCurve:
    def test_single_point_at_threshold(self):
        vstar = optimal_sigma2(1.0, 1.0, NAT)
        P = vstar
        curve = capacity_vs_precision_curve(1.0, 1.0, P, [vstar], NAT)
        assert curve.shape == (1, 2)
        assert curve[0, 0] == pytest.approx(1.0, rel=1e-14)
        # noise at the threshold is 2 v*, so C = 0.5 ln(1.5)
        assert curve[0, 1] == pytest.approx(0.2027325540540822, rel=1e-13)

    def test_symmetric_grid_peaks_at_center(self):
        vstar = optimal_sigma2(1.0, 1.0, NAT)
        grid = vstar * np.logspace(-2, 2, 41)
        for ratio in (0.5, 5.0, 50.0):
            curve = capacity_vs_precision_curve(1.0, 1.0, ratio * vstar, grid, NAT)
            assert int(np.argmax(curve[:, 1])) == 20

    def test_zero_signal_curve_is_flat_zero(self):
        grid = np.logspace(-1, 1, 11) * 0.5
        curve = capacity_vs_precision_curve(1.0, 1.0, 0.0, grid, NAT)
        assert np.all(curve[:, 1] == 0.0)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            capacity_vs_precision_curve(1.0, 1.0, 1.0, [], NAT)

    def test_capacity_nonincreasing_in_delay(self):
        prep = GaussianPrep(x0=0.0, sigma2_A=0.8, mass=1.2)
        caps = [
            capacity_nats(2.0, noise_variance(prep, t, NAT)) for t in np.linspace(0, 5, 21)
        ]
        assert all(c2 <= c1 for c1, c2 in zip(caps, caps[1:]))


class TestPrepValidation:
    def test_bad_prep_rejected(self):
        with pytest.raises(ValueError):
            GaussianPrep(x0=0.0, sigma2_A=0.0, mass=1.0)
        with pytest.raises(ValueError):
            GaussianPrep(x0=0.0, sigma2_A=1.0, mass=0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_prep_rejected(self, bad):
        with pytest.raises(ValueError, match="x0 must be finite"):
            GaussianPrep(x0=bad, sigma2_A=1.0, mass=1.0)
        with pytest.raises(ValueError, match="sigma2_A must be positive and finite"):
            GaussianPrep(x0=0.0, sigma2_A=bad, mass=1.0)
        with pytest.raises(ValueError, match="mass must be positive and finite"):
            GaussianPrep(x0=0.0, sigma2_A=1.0, mass=bad)


PREP = GaussianPrep(x0=0.0, sigma2_A=1.0, mass=1.0)
GRID = [0.5, 1.0]
NAN = math.nan


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: capacity_nats(NAN, 1.0), "signal constraint P must be >= 0, got nan"),
        (lambda: capacity_nats(1.0, NAN), "noise variance must be positive, got nan"),
        (lambda: optimal_sigma2(NAN, 1.0, NAT), "measurement delay must be positive, got nan"),
        (lambda: optimal_sigma2(1.0, NAN, NAT), "mass must be positive, got nan"),
        (lambda: noise_variance(PREP, NAN, NAT), "time delay must be >= 0, got nan"),
        (lambda: density_at(PREP, 0.0, NAN, NAT), "time delay must be >= 0, got nan"),
        (lambda: complex_density_params(PREP, NAN, NAT), "time delay must be >= 0, got nan"),
        (lambda: wavefunction_at(PREP, 0.0, NAN, NAT), "time delay must be >= 0, got nan"),
        (
            lambda: capacity_vs_precision_curve(NAN, 1.0, 1.0, GRID, NAT),
            "measurement delay must be positive, got nan",
        ),
        (
            lambda: capacity_vs_precision_curve(1.0, 1.0, NAN, GRID, NAT),
            "signal constraint P must be >= 0, got nan",
        ),
        (
            lambda: capacity_vs_precision_curve(1.0, 1.0, 1.0, [0.5, NAN], NAT),
            "sigma2_grid values must be positive",
        ),
        (
            lambda: PowerBudget(prep_time_T=NAN, measure_delay_t=1.0, mass=1.0, mean_square_X=1.0),
            "prep_time_T must be positive, got nan",
        ),
        (
            lambda: PowerBudget(prep_time_T=1.0, measure_delay_t=NAN, mass=1.0, mean_square_X=1.0),
            "measure_delay_t must be >= 0, got nan",
        ),
        (
            lambda: PowerBudget(prep_time_T=1.0, measure_delay_t=1.0, mass=NAN, mean_square_X=1.0),
            "mass must be positive, got nan",
        ),
        (
            lambda: PowerBudget(prep_time_T=1.0, measure_delay_t=1.0, mass=1.0, mean_square_X=NAN),
            "mean_square_X must be >= 0, got nan",
        ),
        (
            lambda: ComplexDensityParams(center=0.0, complex_width=complex(NAN, 1.0), time=1.0),
            "real part of complex_width must be positive",
        ),
    ],
)
def test_nan_rejected(call, message):
    # Each guard is a positive condition: a NaN used to pass it and come out
    # as a NaN result.
    with pytest.raises(ValueError, match=message):
        call()


def threshold_point(t, mass, P, c):
    """The scalar chain that capacity_at_optimum evaluates as arrays."""
    vstar = optimal_sigma2(t, mass, c)
    prep = GaussianPrep(x0=0.0, sigma2_A=vstar, mass=mass)
    return vstar, capacity_nats(P, noise_variance(prep, t, c))


class TestCapacityAtOptimum:
    def test_matches_scalar_chain_bit_for_bit(self):
        t = np.tile(np.logspace(-3, 3, 23), 19)
        mass = np.repeat(np.logspace(-31, -6, 19), 23)
        for P in (0.0, 1.0, 1e-20, 3e7):
            vstar, cap = capacity_at_optimum(t, mass, P, SI)
            want = np.array([threshold_point(float(a), float(m), P, SI) for a, m in zip(t, mass)])
            np.testing.assert_array_equal(vstar.view(np.int64), want[:, 0].view(np.int64))
            np.testing.assert_array_equal(cap.view(np.int64), want[:, 1].view(np.int64))

    @pytest.mark.parametrize(
        "t,mass,P",
        [
            ([1.0, 1e-300, 1.0], [1.0, 1e300, 1.0], 1.0),  # v* underflows to 0
            ([1.0, 1e300], [1.0, 1e-300], 1.0),  # v* overflows to inf
            ([1.0, -1.0], [1.0, 1.0], 1.0),
            ([1.0, 1.0], [1.0, 0.0], 1.0),
            ([1.0, -1.0], [1.0, -1.0], 1.0),  # v* > 0, but t and mass are not
            ([1.0, 1.0], [1.0, math.inf], 1.0),
            ([1.0, math.nan], [1.0, 1.0], 1.0),
            ([1.0, 1e-300], [1.0, 1e300], -1.0),  # P fails at the first point
            ([1.0, 1.0], [1.0, 1.0], math.nan),
        ],
    )
    def test_raises_the_scalar_chain_error(self, t, mass, P):
        with pytest.raises(ValueError) as scalar:
            for a, m in zip(t, mass):
                threshold_point(a, m, P, NAT)
        with pytest.raises(ValueError) as array:
            capacity_at_optimum(np.array(t), np.array(mass), P, NAT)
        assert str(array.value) == str(scalar.value)

    def test_empty_grid(self):
        vstar, cap = capacity_at_optimum(np.array([]), np.array([]), 1.0, SI)
        assert vstar.shape == cap.shape == (0,)
