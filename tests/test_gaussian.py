import math
import re

import exact
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chancap.gaussian import (
    GaussianPrep,
    PowerBudget,
    beta,
    capacity_at_optimum,
    capacity_nats,
    capacity_vs_precision_curve,
    density_at,
    noise_variance,
    optimal_sigma2,
    placement_power,
    wavefunction_at,
)
from chancap.units import Constants, UnitMode, constants_for

NAT = constants_for(UnitMode.NATURAL)
SI = constants_for(UnitMode.SI)

# The inputs of the tests that compare against tests/exact.py; tests/test_exact.py checks its precision on them.
FAR_TAILS = [  # (sigma2_A, x)
    (1e-300, 3.86e-149),  # gave 1.971e-174
    (1e-300, 3.9e-149),  # gave 0.0
    (1e-310, 3.86e-154),  # scaled packets: both gave 0.0
    (1e-310, 3.9e-154),
]
OVERFLOWED_RATIOS = [(1e308, 1e-34), (1.7e308, 5e-324), (2.0, 1e-308)]  # (P, Delta^2)
SUBNORMAL_DENOMINATORS = [  # (sigma2_A, mass, t)
    (1e-200, 3.5e-224, 1e-300),  # 2 m sigma_A = 7e-324 rounded to 5e-324: 4.097e46, not 2.041e46
    (1e-200, 1e-215, 1e-290),  # 2 m sigma_A = 2e-315
    (4e-300, 1e-160, 1e-250),  # 2 m sigma_A = 4e-310
    (1e-200, 1.1e-208, 1e-250),  # 2 m sigma_A = 2.2e-308, just below the least normal double
]
#: Where 2 m overflowed, or hbar t lost bits, and the dispersion came out 0 or far off.
SPREAD_EDGES = [
    (GaussianPrep(0.0, 1.0, 1e308), 1e308, NAT),  # Delta_t^2 = 1.25: it gave 1.0
    (GaussianPrep(0.0, 5e-324, 1.7e308), 1e300, NAT),  # 1.7509e306: it gave 5e-324
    (GaussianPrep(0.0, 1e-100, 1e-250), 1e-290, SI),  # 2.7803e-49: it gave 1e-100
    (GaussianPrep(0.0, 8.39e-142, 2.5e-323), 3.88e-304, SI),  # 8.1749e110: it gave 8.39e-142
]
VSTAR_EDGES = [(1e308, 1e308, NAT, 0.5), (1e-300, 1e-300, SI, 5.272859085e-35)]  # (t, mass, c, v*)
OVERFLOWING_DENSITIES = [  # (prep, x, t)
    # it raised "leaves the double range"; wavefunction_at gives 6.3e-81 - 6.3e-81j
    (GaussianPrep(0.0, 1e-160, 1e-80), 0.5, 1.0),
    (GaussianPrep(0.0, 1e-160, 1e-80), 1e160, 1.0),  # (x - x0)^2 overflows too
    (GaussianPrep(0.0, 1.5e308, 1e-154), 1e154, 1.5e154),  # sigma2_A + disp^2 overflows, not disp^2
    (GaussianPrep(0.0, 1.0, 1e-300), 0.0, 3.5e8),  # Delta_t = 1.75e308: a subnormal density
    (GaussianPrep(-1e308, 1.0, 1e-300), 1e308, 2e8),  # x - x0 overflows
    # a subnormal sigma2_A: 2 pi sigma2_A lost bits, and the density was 1.8367e161, 2.3% off
    (GaussianPrep(0.0, 5e-324, 1.0), 0.0, 0.0),
    (GaussianPrep(0.0, 5e-324, 1.0), 0.0, 5e-324),  # b = hbar t / (2m) underflows to 0
]
WIDE_PACKET = (GaussianPrep(0.0, 1e306, 1.0), 1.5e154)  # (prep, x) at t = 0, where (x - x0)^2 overflows


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

    @pytest.mark.parametrize("s2,x", FAR_TAILS)
    def test_far_tail_of_a_narrow_packet_matches_decimal(self, s2, x):
        # exp of the exponent is subnormal or 0, but the prefactor lifts the density to a normal double.
        prep = GaussianPrep(0.0, s2, 1.0)
        want = float(exact.density(prep, x, 0.0, NAT))
        assert want >= 2.0**-1022
        got = density_at(prep, x, 0.0, NAT)
        assert got == pytest.approx(want, rel=3e-13, abs=0.0)
        assert bits(density_at(prep, np.array([x, 0.0]), 0.0, NAT)[0]) == bits(got)


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

    def test_real_parts_give_numpys_complex_division(self):
        # Inside the band, the exponent on real parts keeps the bits of numpy's complex division.
        rng = np.random.default_rng(29)
        root = math.sqrt(2.0 * math.pi)
        for _ in range(200):
            s2, m = 10.0 ** rng.uniform(-60, 60, 2)
            prep, t = GaussianPrep(0.0, s2, m), float(10.0 ** rng.uniform(-40, 40)) * m * s2
            x = rng.normal(size=64) * math.sqrt(noise_variance(prep, t, NAT)) * 10.0 ** rng.uniform(-1, 0.5)
            b, sigma_A = t / (2.0 * m), math.sqrt(s2)
            pref = 1.0 / np.sqrt(complex(root * (s2 / sigma_A), root * (b / sigma_A)))
            gauss = np.exp(-(x * x) / np.full(x.shape, complex(4.0 * s2, 4.0 * b)))
            want = np.empty(x.shape, complex)
            want.real = pref.real * gauss.real - pref.imag * gauss.imag
            want.imag = pref.real * gauss.imag + pref.imag * gauss.real
            np.testing.assert_array_equal(bits(wavefunction_at(prep, x, t, NAT)), bits(want))

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

    @pytest.mark.parametrize("P,delta2", OVERFLOWED_RATIOS)
    def test_overflowed_ratio_stays_finite(self, P, delta2):
        # P / delta2 overflows a double, but (1/2) ln(1 + P / delta2) is below 400.
        want = float(exact.capacity_nats(P, delta2))
        got = capacity_nats(P, delta2)
        assert got == pytest.approx(want, rel=1e-15)
        # An array call gives the float calls' bits, next to a finite ratio, with no warning.
        array = capacity_nats(np.array([P, 3.0]), np.array([delta2, 0.5]))
        assert array.tobytes() == np.array([got, capacity_nats(3.0, 0.5)]).tobytes()

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

    @pytest.mark.parametrize(
        "field,message",
        [
            ("prep_time_T", "prep_time_T must be positive and finite, got inf"),
            ("measure_delay_t", "measure_delay_t must be finite and >= 0, got inf"),
            ("mass", "mass must be positive and finite, got inf"),
            ("mean_square_X", "mean_square_X must be finite and >= 0, got inf"),
        ],
    )
    def test_infinite_budget_rejected(self, field, message):
        # Infinite fields used to pass: mass = inf gave beta = inf, and
        # infinite times a silent beta = 0.
        fields = {"prep_time_T": 1.0, "measure_delay_t": 1.0, "mass": 1.0, "mean_square_X": 1.0}
        with pytest.raises(ValueError, match=message):
            PowerBudget(**{**fields, field: math.inf})


    @pytest.mark.parametrize(
        "fields,match",
        [
            # T = 1e-160: beta was a silent inf
            ((1e-160, 1.0, 1.0, 1.0), "beta .* overflows for .*prep_time_T=1e-160"),
            # T = 1e-300: T*T underflows, and beta raised ZeroDivisionError
            ((1e-300, 1.0, 1.0, 1.0), "beta .* overflows for .*prep_time_T=1e-300"),
            # beta is finite, beta * E[X^2] was a silent inf
            ((1.0, 1.0, 1e300, 1e300), "placement power .* overflows for mean_square_X=1e\\+300"),
        ],
    )
    def test_overflow_rejected(self, fields, match):
        b = PowerBudget(*fields)
        with pytest.raises(ValueError, match=match):
            placement_power(b)
        if "beta" in match:
            with pytest.raises(ValueError, match=match):
                beta(b)

    def test_finite_results_keep_their_bits(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            T, t, m, x2 = (float(v) for v in 10.0 ** rng.uniform(-100, 100, 4))
            b = PowerBudget(T, t, m, x2)
            ref = m / (2.0 * T * T * (T + t))
            if 0.0 < ref < math.inf and ref * x2 < math.inf:
                assert beta(b) == ref and placement_power(b) == ref * x2


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

    @pytest.mark.parametrize(
        "c,t,mass,levels",
        [
            (NAT, 1.0, 1.0, [0.0, 0.5, 5.0, 50.0]),
            # v* = 5.3e-16 m^2, so P / Delta_t^2 overflows at P = 1e300: ln P - ln Delta_t^2
            (SI, 1e-6, 1e-25, [0.0, 1e-20, 1e300]),
        ],
    )
    def test_levels_stack_the_float_curves_bit_for_bit(self, c, t, mass, levels):
        vstar = optimal_sigma2(t, mass, c)
        grid = vstar * np.logspace(-2, 2, 41)
        floats = [capacity_vs_precision_curve(t, mass, P, grid, c) for P in levels]
        assert all(curve.shape == (41, 2) for curve in floats)
        got = capacity_vs_precision_curve(t, mass, np.array(levels), grid, c)
        assert got.shape == (len(levels), 41, 2)
        np.testing.assert_array_equal(got.view(np.int64), np.stack(floats).view(np.int64))
        square = capacity_vs_precision_curve(t, mass, np.array([levels, levels]), grid, c)
        assert square.shape == (2, len(levels), 41, 2) and square.tobytes() == (2 * got.tobytes())
        if levels[-1] / (2.0 * vstar) == math.inf:  # at the peak, Delta_t^2 = 2 v*
            assert got[-1, 20, 1] == 0.5 * (math.log(levels[-1]) - math.log(noise_variance(
                GaussianPrep(0.0, float(grid[20]), mass), t, c)))
        else:
            assert c is NAT

    def test_negative_level_named(self):
        with pytest.raises(ValueError, match=r"signal constraint P must be >= 0, got -2\.0"):
            capacity_vs_precision_curve(1.0, 1.0, np.array([1.0, -2.0, 3.0]), GRID, NAT)

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
        (lambda: noise_variance(PREP, NAN, NAT), "delay t must be finite and >= 0, got t = nan"),
        (lambda: density_at(PREP, 0.0, NAN, NAT), "delay t must be finite and >= 0, got t = nan"),
        (
            lambda: noise_variance(PREP, np.array([1.0, NAN]), NAT),
            "delay t must be finite and >= 0, got t = nan",
        ),
        (lambda: wavefunction_at(PREP, 0.0, NAN, NAT), "delay t must be finite and >= 0, got t = nan"),
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
            "prep_time_T must be positive and finite, got nan",
        ),
        (
            lambda: PowerBudget(prep_time_T=1.0, measure_delay_t=NAN, mass=1.0, mean_square_X=1.0),
            "measure_delay_t must be finite and >= 0, got nan",
        ),
        (
            lambda: PowerBudget(prep_time_T=1.0, measure_delay_t=1.0, mass=NAN, mean_square_X=1.0),
            "mass must be positive and finite, got nan",
        ),
        (
            lambda: PowerBudget(prep_time_T=1.0, measure_delay_t=1.0, mass=1.0, mean_square_X=NAN),
            "mean_square_X must be finite and >= 0, got nan",
        ),
        (lambda: density_at(PREP, NAN, 1.0, NAT), "position x must be finite, got nan"),
        (lambda: wavefunction_at(PREP, NAN, 1.0, NAT), "position x must be finite, got nan"),
        (
            lambda: density_at(PREP, np.array([[0.0, 1.0], [NAN, 2.0]]), np.array([1.0, 2.0]), NAT),
            "position x must be finite, got nan",
        ),
    ],
)
def test_nan_rejected(call, message):
    # Each guard is a positive condition: a NaN used to pass it and come out
    # as a NaN result.
    with pytest.raises(ValueError, match=message):
        call()


INF = math.inf


@pytest.mark.parametrize(
    "call,message",
    [
        # These three keep the ids they had under the earlier delay message.
        pytest.param(
            lambda: noise_variance(PREP, INF, NAT),
            "delay t must be finite and >= 0, got t = inf",
            id="<lambda>-time delay must be >= 0, got inf0",
        ),
        pytest.param(
            lambda: density_at(PREP, 0.0, INF, NAT),
            "delay t must be finite and >= 0, got t = inf",
            id="<lambda>-time delay must be >= 0, got inf1",
        ),
        pytest.param(
            lambda: wavefunction_at(PREP, 0.0, INF, NAT),
            "delay t must be finite and >= 0, got t = inf",
            id="<lambda>-time delay must be >= 0, got inf2",
        ),
        (lambda: optimal_sigma2(INF, 1.0, NAT), "measurement delay must be positive, got inf"),
        (lambda: density_at(PREP, INF, 1.0, NAT), "position x must be finite, got inf"),
        (lambda: wavefunction_at(PREP, -INF, 1.0, NAT), "position x must be finite, got -inf"),
        # The first bad position in C order is named.
        (
            lambda: wavefunction_at(PREP, np.array([0.0, INF, NAN]), 1.0, NAT),
            "position x must be finite, got inf",
        ),
        (lambda: capacity_nats(INF, 1.0), "signal constraint P must be >= 0, got inf"),
        (lambda: capacity_nats(INF, INF), "signal constraint P must be >= 0, got inf"),
        (lambda: capacity_nats(1.0, INF), "noise variance must be positive, got inf"),
        (lambda: capacity_nats(np.array([1.0, INF]), 1.0), "signal constraint P must be >= 0, got inf"),
        (lambda: capacity_nats(1.0, np.array([INF, 1.0])), "noise variance must be positive, got inf"),
    ],
)
def test_infinite_delay_rejected(call, message):
    # It used to give inf (noise_variance, optimal_sigma2, capacity_nats), a
    # silent 0.0 (density_at, capacity_nats) or NaN with a RuntimeWarning
    # (wavefunction_at, capacity_nats of arrays). An infinite position gave a
    # silent 0.0 density.
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize(
    "t,mass,message",
    [
        (1.0, INF, "mass must be positive, got inf"),
        (1e-300, 1e300, "sigma2_A must be positive and finite, got 0.0; v"),
        (1e300, 1e-300, "sigma2_A must be positive and finite, got inf; v"),
    ],
)
def test_optimal_sigma2_out_of_range_rejected(t, mass, message):
    # These used to return a silent 0.0 or inf. Arrays fail alike, with no
    # overflow warning (pytest turns warnings into errors).
    with pytest.raises(ValueError, match=message):
        optimal_sigma2(t, mass, NAT)
    with pytest.raises(ValueError, match=message):
        optimal_sigma2(np.array([1.0, t]), np.array([1.0, mass]), NAT)


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda t: noise_variance(PREP, t, NAT), "delay t must be finite and >= 0, got t = -2.0"),
        (lambda t: density_at(PREP, 0.0, t, NAT), "delay t must be finite and >= 0, got t = -2.0"),
        (lambda t: wavefunction_at(PREP, 0.0, t, NAT), "delay t must be finite and >= 0, got t = -2.0"),
        (lambda t: optimal_sigma2(t, 1.0, NAT), "measurement delay must be positive, got 0.0"),
        (lambda t: optimal_sigma2(1.0, t, NAT), "mass must be positive, got 0.0"),
        (lambda t: capacity_nats(t, 1.0), "signal constraint P must be >= 0, got -2.0"),
        (lambda t: capacity_nats(1.0, t), "noise variance must be positive, got 0.0"),
    ],
)
def test_array_guard_names_first_bad_value(call, message):
    t = np.array([[1.0, 0.0], [-2.0, math.nan]])  # C order: 0.0, then -2.0, then nan
    with pytest.raises(ValueError, match=message):
        call(t)


def bits(a):
    return np.asarray(a).view(np.int64)


#: Log-uniform on [1e-30, 1e30]: with these, no scaled operand of a law leaves the normal range.
SIZES = st.floats(-30.0, 30.0).map(lambda e: 10.0**e)
UNITS = st.sampled_from([NAT, SI])


class TestScalingLaws:
    """Scaled by powers of two, the Gaussian closed forms scale exactly, so each law holds to the bit."""

    @settings(deadline=None)
    @given(s2=SIZES, m=SIZES, t=SIZES, c=UNITS)
    def test_noise_variance(self, s2, m, t, c):
        v = noise_variance(GaussianPrep(0.0, s2, m), t, c)
        assert noise_variance(GaussianPrep(0.0, 4.0 * s2, m), 4.0 * t, c) == 4.0 * v
        assert noise_variance(GaussianPrep(0.0, s2, 2.0 * m), 2.0 * t, c) == v

    @settings(deadline=None)
    @given(P=SIZES, delta2=SIZES)
    def test_capacity_nats(self, P, delta2):
        assert capacity_nats(4.0 * P, 4.0 * delta2) == capacity_nats(P, delta2)

    @settings(deadline=None)
    @given(s2=SIZES, m=SIZES, t=SIZES, k=st.floats(-37.0, 37.0), c=UNITS)
    def test_density(self, s2, m, t, k, c):
        # x is k widths from x0 = 0, so exp of the exponent, at least e**-685, stays normal.
        prep = GaussianPrep(0.0, s2, m)
        x = k * math.sqrt(noise_variance(prep, t, c))
        half = density_at(prep, x, t, c) / 2.0
        assume(half >= 2.0**-1022)
        assert density_at(GaussianPrep(0.0, 4.0 * s2, m), 2.0 * x, 4.0 * t, c) == half


class TestArraysMatchPointByPoint:
    """An array call gives the bits of the float calls made point by point."""

    def test_wavefunction_density_match_draw(self):
        # The draw of verify's wavefunction-density-match check, smaller.
        rng = np.random.default_rng(42)
        for _ in range(16):
            prep = GaussianPrep(
                x0=float(rng.uniform(-1.0, 1.0)),
                sigma2_A=float(rng.uniform(0.5, 2.0)),
                mass=float(rng.uniform(0.5, 2.0)),
            )
            ts = rng.uniform(0.0, 3.0, size=625)
            xs = prep.x0 + rng.uniform(-4, 4, size=ts.size) * math.sqrt(noise_variance(prep, 3.0, NAT))
            points = list(zip(xs.tolist(), ts.tolist()))
            want_psi = np.array([wavefunction_at(prep, x, t, NAT) for x, t in points])
            want_rho = np.array([density_at(prep, x, t, NAT) for x, t in points])
            want_var = np.array([noise_variance(prep, t, NAT) for t in ts.tolist()])
            np.testing.assert_array_equal(bits(wavefunction_at(prep, xs, ts, NAT)), bits(want_psi))
            np.testing.assert_array_equal(bits(density_at(prep, xs, ts, NAT)), bits(want_rho))
            np.testing.assert_array_equal(bits(noise_variance(prep, ts, NAT)), bits(want_var))

    def test_positions_broadcast_against_delays(self):
        x = np.linspace(-6.0, 6.0, 31)
        cases = [
            (GaussianPrep(x0=0.3, sigma2_A=0.8, mass=1.7), x, [0.0, 0.5, 2.0, 7.0]),
            # Scaled delays beside unscaled ones: a subnormal sigma2_A, a Delta_t^2 that
            # overflows, and an x - x0 that overflows.
            (GaussianPrep(0.0, 5e-324, 1.0), x * 2e-162, [0.0, 5e-324, 1e-170, 1.0]),
            (GaussianPrep(0.0, 1e-160, 1e-80), x * 5e159, [1e-200, 0.0, 1.0, 2.0]),
            (GaussianPrep(-1e308, 1.0, 1e-300), x * 1.6e307, [0.0, 1.0, 2e8, 3.5e8]),
        ]
        for prep, x, t in cases:
            t = np.array(t)[:, None]
            for f in (wavefunction_at, density_at):
                got = f(prep, x, t, NAT)
                assert got.shape == (4, 31)
                want = np.array([[f(prep, float(a), float(b[0]), NAT) for a in x] for b in t])
                np.testing.assert_array_equal(bits(got), bits(want))

    def test_optimal_sigma2_and_capacity(self):
        rng = np.random.default_rng(5)
        t = 10.0 ** rng.uniform(-3, 3, 2000)
        mass = 10.0 ** rng.uniform(-31, -6, 2000)
        want = [optimal_sigma2(a, m, SI) for a, m in zip(t.tolist(), mass.tolist())]
        np.testing.assert_array_equal(bits(optimal_sigma2(t, mass, SI)), bits(want))
        P = rng.uniform(0.0, 10.0, 2000)
        delta2 = 10.0 ** rng.uniform(-12, 12, 2000)
        want = [capacity_nats(p, d) for p, d in zip(P.tolist(), delta2.tolist())]
        np.testing.assert_array_equal(bits(capacity_nats(P, delta2)), bits(want))


def threshold_point(t, mass, P, c):
    """The scalar chain that capacity_at_optimum evaluates as arrays."""
    vstar = optimal_sigma2(t, mass, c)
    prep = GaussianPrep(x0=0.0, sigma2_A=vstar, mass=mass)
    return vstar, capacity_nats(P, noise_variance(prep, t, c))


class _NoNumpy:
    def __getattr__(self, name):
        raise AssertionError(f"numpy.{name} used on a float path")


def test_float_paths_make_no_numpy_call(monkeypatch):
    # capacity_vs_precision_curve makes 401 noise_variance calls per placement-oracle op.
    import chancap.gaussian

    monkeypatch.setattr(chancap.gaussian, "np", _NoNumpy())
    prep = GaussianPrep(0.0, 0.5, 2.0)
    for got in (noise_variance(prep, 0.0, NAT), noise_variance(prep, 1.5, NAT), noise_variance(prep, 1.5, SI)):
        assert type(got) is float


def test_float_capacity_is_a_float():
    for P, delta2 in ((1.0, 2.0), (0.0, 2.0), (1e300, 1e-300)):  # the last P / delta2 overflows
        assert type(capacity_nats(P, delta2)) is float


def test_float_capacity_keeps_the_scalar_bits():
    # math.log1p of the ratio, or ln P - ln delta2 where the ratio overflows, as scalar math gives them.
    rng = np.random.default_rng(11)
    P, delta2 = (10.0 ** rng.uniform(-300, 300, (2, 20_000))).tolist()
    want = [0.5 * math.log1p(p / d) if p / d < math.inf else 0.5 * (math.log(p) - math.log(d))
            for p, d in zip(P, delta2)]
    assert sum(p / d == math.inf for p, d in zip(P, delta2)) > 1000
    np.testing.assert_array_equal(bits([capacity_nats(p, d) for p, d in zip(P, delta2)]), bits(want))


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
            ([1.0, 1.0], [1.0, 4e-309], 1.0),  # v* = 1.25e308, but 2 v* overflows
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


@pytest.mark.filterwarnings("error")
class TestOutOfRange:
    """Inputs whose closed forms leave the double range: a ValueError naming them, or an exact 0."""

    @pytest.mark.parametrize(
        "prep,t",
        [
            # each of these gave a silent inf
            (GaussianPrep(0.0, 1.0, 1e-160), 1.0),
            (GaussianPrep(0.0, 5e-324, 1.0), 1.0),
            (GaussianPrep(0.0, 1.0, 1.0), 1e160),
            # 2 m sigma_A underflows to 0: ZeroDivisionError
            (GaussianPrep(0.0, 1e-100, 1e-300), 1.0),
        ],
    )
    def test_noise_variance_overflow_rejected(self, prep, t):
        match = f"sigma2_A={prep.sigma2_A}, mass={prep.mass} at delay t = {t}"
        with pytest.raises(ValueError, match=re.escape(match)):
            noise_variance(prep, t, NAT)
        # the first bad delay is named, with no overflow warning
        with pytest.raises(ValueError, match=re.escape(match)):
            noise_variance(prep, np.array([t, 2.0 * t]), NAT)

    def test_curve_names_the_overflow(self):
        # It failed with "noise variance must be positive, got inf".
        with pytest.raises(ValueError, match=re.escape("sigma2_A=1.0, mass=1e-160 at delay t = 1.0")):
            capacity_vs_precision_curve(1.0, 1e-160, 1.0, [1.0], NAT)

    def test_finite_noise_variance_keeps_its_bits_and_the_rest_is_rejected(self):
        rng = np.random.default_rng(13)
        wide = 10.0 ** rng.uniform(-200, 200, (3, 2000))
        # Then draws where 2 m sigma_A mostly underflows to 0; delays below 5e-324 round to 0.
        tiny = 10.0 ** rng.uniform([[-200], [-320], [-330]], [[-50], [-250], [-200]], (3, 1000))
        underflowed = {True: 0, False: 0}  # by whether Delta_t^2 is finite
        for s2_i, m_i, t_i in zip(*np.hstack((wide, tiny)).tolist()):
            den = 2.0 * m_i * math.sqrt(s2_i)
            prep = GaussianPrep(0.0, s2_i, m_i)
            # As written where hbar t = t and 2 m sigma_A are normal; elsewhere against exact.variance.
            written = 2.0**-1022 <= den < INF and (2.0**-1022 <= t_i or t_i == 0.0)
            if written:
                disp = t_i / den
                ref = s2_i + disp * disp
            else:
                ref = float(exact.variance(prep, t_i, NAT))
            if den == 0.0:
                underflowed[ref < INF] += 1
            if ref < INF:
                got = noise_variance(prep, t_i, NAT)
                assert got == ref if written else got == pytest.approx(ref, rel=1e-15, abs=0.0)
                assert bits(noise_variance(prep, np.array([t_i]), NAT)) == bits(got)
            else:
                with pytest.raises(ValueError, match="leaves the double range"):
                    noise_variance(prep, t_i, NAT)
        assert min(underflowed.values()) > 50, underflowed

    @pytest.mark.parametrize("t,want", [(0.0, 1e-200), (1e-300, 2.5e99)])
    def test_underflowed_denominator_gives_the_true_variance(self, t, want):
        # 2 m sigma_A = 2e-350 underflows to 0: both raised "leaves the double range".
        prep = GaussianPrep(0.0, 1e-200, 1e-250)
        got = noise_variance(prep, t, NAT)
        assert got == pytest.approx(want, rel=1e-15, abs=0.0)
        arr = noise_variance(prep, np.array([1.0e-320, t]), NAT)
        assert bits(arr[1]) == bits(got)
        assert arr.tolist() == [noise_variance(prep, 1.0e-320, NAT), got]

    @pytest.mark.parametrize("s2,m,t", SUBNORMAL_DENOMINATORS)
    def test_subnormal_denominator_matches_decimal(self, s2, m, t):
        prep = GaussianPrep(0.0, s2, m)
        want = float(exact.variance(prep, t, NAT))
        assert 0.0 < 2.0 * m * math.sqrt(s2) < 2.0**-1022
        got = noise_variance(prep, t, NAT)
        assert got == pytest.approx(want, rel=1e-15, abs=0.0)
        assert bits(noise_variance(prep, np.array([t, 0.0]), NAT)[0]) == bits(got)

    @pytest.mark.parametrize("prep,t,c", SPREAD_EDGES)
    def test_spread_edges_match_decimal(self, prep, t, c):
        got = noise_variance(prep, t, c)
        assert got == pytest.approx(float(exact.variance(prep, t, c)), rel=1e-15, abs=0.0)
        assert bits(noise_variance(prep, np.array([t]), c)) == bits(got)
        peak = float(exact.density(prep, prep.x0, t, c))
        assert density_at(prep, prep.x0, t, c) == pytest.approx(peak, rel=1e-15, abs=0.0)
        assert abs(wavefunction_at(prep, prep.x0, t, c)) ** 2 == pytest.approx(peak, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("t,mass,c,want", VSTAR_EDGES)
    def test_optimal_sigma2_at_the_spread_edges(self, t, mass, c, want):
        # 2 m overflowed, or hbar t underflowed to 0: v* came out 0 and it raised "sigma2_A must be positive".
        ref = float(exact.vstar(t, mass, c))
        assert ref == pytest.approx(want, rel=1e-15, abs=0.0)
        got = optimal_sigma2(t, mass, c)
        assert got == pytest.approx(ref, rel=1e-15, abs=0.0)
        assert bits(optimal_sigma2(np.array([1.0, t]), np.array([1.0, mass]), c)[1]) == bits(got)

    def test_underflowed_denominator_density(self):
        # It raised "leaves the double range"; the density is 1 / sqrt(2 pi 1e-200).
        prep = GaussianPrep(0.0, 1e-200, 1e-250)
        got = density_at(prep, 0.0, 0.0, NAT)
        assert got == pytest.approx(3.989422804014327e99, rel=1e-15, abs=0.0)
        assert density_at(prep, np.array([0.0, 1e-100]), np.array([[0.0]]), NAT)[0, 0] == got

    @pytest.mark.parametrize("v", [2.0**1021, 2.9e307, 1e308, 2.0**1023, 1.7976931348623157e308])
    def test_wide_density_is_scaled_not_zero(self, v):
        # 2 pi Delta_t^2 overflowed to inf above about 2.86e307 and the density came out 0.0.
        # Scaled by 1/16, the density is exactly 4 times the density of Delta_t^2 / 16 at x / 4.
        x = np.array([0.0, 1e153, 1.3e154, -2.0**511])
        narrow = density_at(GaussianPrep(0.0, v / 16.0, 1.0), x / 4.0, 0.0, NAT)
        got = density_at(GaussianPrep(0.0, v, 1.0), x, 0.0, NAT)
        np.testing.assert_array_equal(bits(got), bits(narrow / 4.0))
        assert got.tolist() == [density_at(GaussianPrep(0.0, v, 1.0), x_k, 0.0, NAT) for x_k in x.tolist()]
        assert np.all(got > 0.0)

    def test_wide_density_hand_value(self):
        want = pytest.approx(3.989422804014327e-155, rel=1e-15, abs=0.0)  # 1 / sqrt(2 pi 1e308)
        assert density_at(GaussianPrep(0.0, 1e308, 1.0), 0.0, 0.0, NAT) == want
        # an array of delays across the scaling threshold: Delta_t^2 = 1e307, then 3.25e307
        prep, t = GaussianPrep(0.0, 1e307, 1.0), np.array([0.0, 3e307])
        got = density_at(prep, np.array([0.0, 1e150]), t[:, None], NAT)
        assert got.tolist() == [[density_at(prep, x, t_k, NAT) for x in (0.0, 1e150)] for t_k in t.tolist()]
        want = 1.0 / math.sqrt(2.0 * math.pi) / math.sqrt(3.25e307)
        assert got[1, 0] == pytest.approx(want, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("prep,x,t", OVERFLOWING_DENSITIES)
    def test_overflowing_noise_variance_density_matches_decimal(self, prep, x, t):
        want = float(exact.density(prep, x, t, NAT))
        # Delta_t^2 overflows a double, or sigma2_A is subnormal
        assert exact.variance(prep, t, NAT) > 1.7976931348623157e308 or prep.sigma2_A < 2.0**-1022
        got = density_at(prep, x, t, NAT)
        assert got == pytest.approx(want, rel=1e-14, abs=1e-322)
        assert got > 0.0
        assert density_at(prep, np.array([x]), np.array([[t]]), NAT)[0, 0] == got
        assert abs(wavefunction_at(prep, x, t, NAT)) ** 2 == pytest.approx(want, rel=1e-14, abs=1e-322)

    def test_overflowing_noise_variance_density_is_the_squared_wavefunction(self):
        prep, x = GaussianPrep(0.0, 1e-160, 1e-80), np.array([0.5, -3.0, 1e154])
        for t in (1.0, 2.0, 1e10):
            psi = wavefunction_at(prep, x, t, NAT)
            np.testing.assert_allclose(density_at(prep, x, t, NAT), np.abs(psi) ** 2, rtol=1e-14, atol=0.0)

    def test_overflowing_noise_variance_array_matches_points(self):
        # Delays where Delta_t^2 overflows (1, 2) beside ones where it fits (1e-200, 0).
        prep, x = GaussianPrep(0.0, 1e-160, 1e-80), np.array([0.5, 1e160, -3e159, 0.0])
        t = np.array([[1.0], [1e-200], [0.0], [2.0]])
        got = density_at(prep, x, t, NAT)
        want = [[density_at(prep, x_j, t_i, NAT) for x_j in x.tolist()] for t_i in t.ravel().tolist()]
        np.testing.assert_array_equal(bits(got), bits(np.array(want)))
        assert np.all(got[[0, 3]] > 0.0)

    def test_overflowing_noise_width_rejected(self):
        # Delta_t itself overflows: 4e8 / (2e-300) = 2e308
        match = re.escape("Delta_t = sqrt(sigma2_A + (hbar t / (2 m sigma_A))^2) leaves the double range "
                          "for sigma2_A=1.0, mass=1e-300 at delay t = 400000000.0")
        with pytest.raises(ValueError, match=match):
            density_at(GaussianPrep(0.0, 1.0, 1e-300), 0.0, 4e8, NAT)
        with pytest.raises(ValueError, match=match):
            density_at(GaussianPrep(0.0, 1.0, 1e-300), np.array([0.0, 1.0]), np.array([[3e8], [4e8]]), NAT)

    def test_density_that_fits_keeps_its_bits(self):
        # Today's expression, where 2 pi Delta_t^2 fits, against the scaled form.
        rng = np.random.default_rng(23)
        var = 2.0 ** rng.uniform(1015, 1024, 2000)
        x = rng.uniform(-1.0, 1.0, 2000) * 2.0**511  # (x - x0)^2 stays finite
        for v, x_k in zip(var.tolist(), x.tolist()):
            old = np.exp(-(x_k * x_k) / (2.0 * v)) / np.sqrt(2.0 * math.pi * v)  # 0.0 where 2 pi v is inf
            got = density_at(GaussianPrep(0.0, v, 1.0), x_k, 0.0, NAT)
            assert got == old if old > 0.0 else got > 0.0

    @pytest.mark.parametrize("fn", [density_at, wavefunction_at])
    def test_overflowing_square_gives_exact_zero(self, fn):
        # (x - x0)^2 overflows: the right 0 came with an overflow warning.
        assert fn(PREP, 1e160, 1.0, NAT) == 0.0
        x, t = np.array([0.5, 1e160, -1e200]), np.array([[1.0], [2.0]])
        out = fn(PREP, x, t, NAT)
        assert np.all(out[:, 1:] == 0.0)
        assert out[:, 0].tolist() == [fn(PREP, 0.5, t_k, NAT) for t_k in (1.0, 2.0)]

    @pytest.mark.parametrize("fn", [density_at, wavefunction_at])
    def test_overflowing_square_of_a_wide_packet_answers(self, fn):
        # Delta_t^2 = 1e306 at x = 1.5e154, where (x - x0)^2 overflows: it raised "noise variance
        # 1e+306 is too wide". The density is 5.530709549844319e-203; |psi| is checked
        # against its root, since squaring doubles the relative error.
        prep, x = WIDE_PACKET
        want = float(exact.density(prep, x, 0.0, NAT))
        got = fn(prep, x, 0.0, NAT)
        assert abs(got) == pytest.approx(want if fn is density_at else math.sqrt(want), rel=1e-14, abs=0.0)
        assert fn(prep, np.array([0.0, x]), 0.0, NAT)[1] == got

    def test_wavefunction_width_overflow_rejected(self):
        # b = hbar t / (2 m) overflows: it gave nan+nanj with an "invalid value" warning. Delta_t
        # overflows there too, and both forms name it as density_at does.
        prep = GaussianPrep(0.0, 1.0, 5e-324)
        match = re.escape("noise width Delta_t = sqrt(sigma2_A + (hbar t / (2 m sigma_A))^2) leaves the double range "
                          "for sigma2_A=1.0, mass=5e-324 at delay t = 1.0")
        for fn in (wavefunction_at, density_at):
            with pytest.raises(ValueError, match=match):
                fn(prep, 0.5, 1.0, NAT)
            with pytest.raises(ValueError, match=match):
                fn(prep, np.array([0.5, 1.0]), np.array([[0.0], [1.0]]), NAT)

    def test_curve_ratio_overflow_names_the_grid_value(self):
        # v* = 5e-321: 1e308 / v* gave inf in the ratio column, with an overflow warning.
        vstar = optimal_sigma2(1e-160, 1e160, NAT)
        with pytest.raises(ValueError, match=re.escape("sigma2_grid value 1e+308 at v* = 5e-321")):
            capacity_vs_precision_curve(1e-160, 1e160, 1.0, [1e-30, 1e308], NAT)
        got = capacity_vs_precision_curve(1e-160, 1e160, 1.0, [1e-30, 1e-20], NAT)
        assert got[:, 0].tolist() == [1e-30 / vstar, 1e-20 / vstar]
