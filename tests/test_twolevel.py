import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chancap import twolevel
from chancap.infotheory import two_level_capacities
from chancap.oracle import unitary_evolve_2x2
from chancap.twolevel import (
    PROB_CLAMP,
    BinaryChannel,
    PrepBias,
    TwoLevelHamiltonian,
    TwoLevelState,
    channel_at,
    channel_matrices,
    eigensystem,
    eps_for_gamma,
    evolve,
    period,
    stochastic_rows,
    transition_probs,
)
from chancap.units import UnitMode, constants_for

NAT = constants_for(UnitMode.NATURAL)


def random_hamiltonian(rng):
    return TwoLevelHamiltonian(
        E=rng.uniform(-2, 2), Delta=rng.uniform(0, 3), epsilon=rng.uniform(0, 3)
    )


class TestHamiltonian:
    def test_derived_parameters(self):
        h = TwoLevelHamiltonian(E=0.5, Delta=2.0, epsilon=1.5)
        assert h.a == pytest.approx(math.sqrt(4 + 9) / 2, rel=1e-15)
        assert h.b == 1.0
        # epsilon^2 = a^2 - b^2
        assert h.epsilon**2 == pytest.approx(h.a**2 - h.b**2, rel=1e-12)

    def test_negative_parameters_rejected(self):
        with pytest.raises(ValueError):
            TwoLevelHamiltonian(E=0.0, Delta=-0.1, epsilon=1.0)
        with pytest.raises(ValueError):
            TwoLevelHamiltonian(E=0.0, Delta=1.0, epsilon=-0.1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameters_rejected(self, bad):
        with pytest.raises(ValueError, match="E must be finite"):
            TwoLevelHamiltonian(E=bad, Delta=1.0, epsilon=1.0)
        with pytest.raises(ValueError, match="Delta must be finite"):
            TwoLevelHamiltonian(E=0.0, Delta=bad, epsilon=1.0)
        with pytest.raises(ValueError, match="epsilon must be finite"):
            TwoLevelHamiltonian(E=0.0, Delta=1.0, epsilon=bad)

    def test_overflowing_splitting_rejected(self):
        # a = inf used to pass: transition_probs then gave (nan, nan) and period 0.0.
        message = "a = hypot(Delta/2, epsilon) must be finite, got inf from Delta = 1.7e+308 and epsilon = 1.7e+308"
        with pytest.raises(ValueError, match=re.escape(message)):
            TwoLevelHamiltonian(E=0.0, Delta=1.7e308, epsilon=1.7e308)
        assert TwoLevelHamiltonian(E=0.0, Delta=1.7e308, epsilon=8e307).a < math.inf

    def test_overflowing_upper_level_rejected(self):
        # E + Delta = inf used to pass: matrix() then held inf, and evolve
        # rejected every delay, t = 0 included, for its phase (E + b) t / hbar.
        message = "E + Delta must be finite, got inf from E = 1e+308 and Delta = 1.7e+308"
        with pytest.raises(ValueError, match=re.escape(message)):
            TwoLevelHamiltonian(E=1e308, Delta=1.7e308, epsilon=0.0)
        h = TwoLevelHamiltonian(E=-1e308, Delta=1.7e308, epsilon=0.0)
        assert np.all(np.isfinite(h.matrix()))
        assert evolve(h, PrepBias(0.1), 0.0, NAT).populations() == pytest.approx((0.9, 0.1))

    def test_matrix_layout(self):
        h = TwoLevelHamiltonian(E=1.0, Delta=0.5, epsilon=0.25)
        np.testing.assert_array_equal(h.matrix(), [[1.0, 0.25], [0.25, 1.5]])


class TestEigensystem:
    def test_pure_tunneling(self):
        # [[0,1],[1,0]]: energies +-1, eigenvectors (1, +-1)/sqrt(2)
        eig = eigensystem(TwoLevelHamiltonian(E=0.0, Delta=0.0, epsilon=1.0))
        assert eig.E_plus == pytest.approx(1.0)
        assert eig.E_minus == pytest.approx(-1.0)
        np.testing.assert_allclose(eig.v_plus, np.array([1, 1]) / np.sqrt(2), rtol=1e-15)
        np.testing.assert_allclose(eig.v_minus, np.array([1, -1]) / np.sqrt(2), rtol=1e-15)

    def test_already_diagonal(self):
        eig = eigensystem(TwoLevelHamiltonian(E=5.0, Delta=2.0, epsilon=0.0))
        assert eig.E_plus == pytest.approx(7.0)
        assert eig.E_minus == pytest.approx(5.0)
        np.testing.assert_allclose(eig.v_plus, [0.0, 1.0], atol=1e-15)
        np.testing.assert_allclose(eig.v_minus, [1.0, 0.0], atol=1e-15)

    def test_degenerate_point(self):
        eig = eigensystem(TwoLevelHamiltonian(E=2.0, Delta=0.0, epsilon=0.0))
        assert eig.E_plus == eig.E_minus == 2.0
        np.testing.assert_array_equal(eig.v_plus, [1.0, 0.0])
        np.testing.assert_array_equal(eig.v_minus, [0.0, 1.0])

    @settings(deadline=None)
    @given(log_ratio=st.floats(-300.0, 300.0))
    def test_no_cancellation_at_any_ratio(self, log_ratio):
        # sqrt(a - b) used to be taken from a - b, which cancels to 0 when
        # eps << Delta: at eps / Delta = 1e-10 the residual was 2e-10 * a.
        ratio = 10.0**log_ratio  # eps / Delta, with the larger of the two at 1
        h = TwoLevelHamiltonian(E=0.0, Delta=min(1.0, 1.0 / ratio), epsilon=min(1.0, ratio))
        eig = eigensystem(h)
        m = h.matrix()
        for e, v in ((eig.E_plus, eig.v_plus), (eig.E_minus, eig.v_minus)):
            assert np.linalg.norm(m @ v - e * v) <= 1e-15 * h.a
            assert abs(v @ v - 1.0) <= 1e-15
        assert abs(eig.v_plus @ eig.v_minus) <= 1e-15

    def test_orthonormal_at_the_top_of_the_range(self):
        # 2a overflowed: the vectors used to come out as zeros, v @ v == 0.
        h = TwoLevelHamiltonian(E=0.0, Delta=0.0, epsilon=1e308)
        eig = eigensystem(h)
        m = h.matrix()
        for e, v in ((eig.E_plus, eig.v_plus), (eig.E_minus, eig.v_minus)):
            assert np.max(np.abs(m @ v - e * v)) <= 1e-15 * h.a  # the 2-norm would overflow
            assert abs(v @ v - 1.0) <= 1e-15
        assert abs(eig.v_plus @ eig.v_minus) <= 1e-15

    def test_overflowing_energy_rejected(self):
        # E + a + b = inf used to come back as E_plus, with NaN vectors and a RuntimeWarning.
        with pytest.raises(ValueError, match=re.escape("E + a + b = inf must be finite")):
            eigensystem(TwoLevelHamiltonian(E=0.0, Delta=1.7e308, epsilon=1e308))
        with pytest.raises(ValueError, match=re.escape("E - a + b = -inf and")):
            eigensystem(TwoLevelHamiltonian(E=-1.7e308, Delta=0.0, epsilon=1e308))

    def test_residual_on_random_draws(self):
        rng = np.random.default_rng(21)
        worst = 0.0
        for _ in range(1000):
            h = random_hamiltonian(rng)
            eig = eigensystem(h)
            m = h.matrix()
            worst = max(
                worst,
                np.linalg.norm(m @ eig.v_plus - eig.E_plus * eig.v_plus),
                np.linalg.norm(m @ eig.v_minus - eig.E_minus * eig.v_minus),
                abs(eig.v_plus @ eig.v_minus),
            )
        assert worst < 1e-12


class TestEvolve:
    def test_initial_state(self):
        st = evolve(TwoLevelHamiltonian(E=1.0, Delta=0.5, epsilon=0.3), PrepBias(0.3), 0.0, NAT)
        assert st.amp0 == pytest.approx(math.sqrt(0.7))
        assert st.amp1 == pytest.approx(math.sqrt(0.3))

    def test_diagonal_hamiltonian_keeps_populations(self):
        h = TwoLevelHamiltonian(E=1.0, Delta=2.0, epsilon=0.0)
        for t in (0.3, 1.7, 9.2):
            pops = evolve(h, PrepBias(0.25), t, NAT).populations()
            assert pops[0] == pytest.approx(0.75, abs=1e-12)
            assert pops[1] == pytest.approx(0.25, abs=1e-12)

    def test_norm_preserved(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            h = random_hamiltonian(rng)
            st = evolve(h, PrepBias(rng.uniform(0, 1)), rng.uniform(0, 10), NAT)
            assert abs(sum(st.populations()) - 1.0) < 1e-12

    def test_matches_unitary_oracle_up_to_global_phase(self):
        rng = np.random.default_rng(23)
        worst = 0.0
        for _ in range(1000):
            h = random_hamiltonian(rng)
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

    def test_degenerate_point_is_pure_phase(self):
        h = TwoLevelHamiltonian(E=1.3, Delta=0.0, epsilon=0.0)
        st = evolve(h, PrepBias(0.4), 2.0, NAT)
        assert st.amp0 == pytest.approx(math.sqrt(0.6) * np.exp(-1j * 1.3 * 2.0), abs=1e-15)
        assert st.amp1 == pytest.approx(math.sqrt(0.4) * np.exp(-1j * 1.3 * 2.0), abs=1e-15)


class TestTransitionProbs:
    def test_initial_probabilities(self):
        h = TwoLevelHamiltonian(E=0.3, Delta=1.0, epsilon=0.7)
        assert transition_probs(h, PrepBias(0.2), 0.0, NAT) == pytest.approx((0.8, 0.2))

    def test_full_swap_at_half_period(self):
        # Delta=0: resonant tunneling fully inverts the population
        h = TwoLevelHamiltonian(E=0.0, Delta=0.0, epsilon=1.3)
        t_half = period(h, NAT) / 2
        prob0, prob1 = transition_probs(h, PrepBias(0.0), t_half, NAT)
        assert prob0 == pytest.approx(0.0, abs=1e-12)
        assert prob1 == pytest.approx(1.0, abs=1e-12)

    def test_detuned_oscillation_maximum(self):
        # Delta>0 caps the transfer at 4 eps^2 / (Delta^2 + 4 eps^2)
        h = TwoLevelHamiltonian(E=0.0, Delta=1.0, epsilon=0.8)
        t_half = period(h, NAT) / 2
        _, prob1 = transition_probs(h, PrepBias(0.0), t_half, NAT)
        expected = 4 * 0.8**2 / (1.0 + 4 * 0.8**2)
        assert prob1 == pytest.approx(expected, rel=1e-12)
        # the closed form agrees with evolving and squaring
        pops = evolve(h, PrepBias(0.0), t_half, NAT).populations()
        assert prob1 == pytest.approx(pops[1], abs=1e-13)

    def test_matches_squared_amplitudes(self):
        rng = np.random.default_rng(24)
        worst = 0.0
        for _ in range(500):
            h = random_hamiltonian(rng)
            p = PrepBias(rng.uniform(0, 1))
            t = rng.uniform(0, 10)
            probs = transition_probs(h, p, t, NAT)
            pops = evolve(h, p, t, NAT).populations()
            worst = max(worst, abs(probs[0] - pops[0]), abs(probs[1] - pops[1]))
        assert worst < 1e-12

    def test_global_phase_shift_has_no_effect(self):
        rng = np.random.default_rng(25)
        for _ in range(100):
            h = random_hamiltonian(rng)
            shifted = TwoLevelHamiltonian(E=h.E + rng.uniform(-20, 20), Delta=h.Delta, epsilon=h.epsilon)
            p = PrepBias(rng.uniform(0, 1))
            t = rng.uniform(0, 10)
            a = transition_probs(h, p, t, NAT)
            b = transition_probs(shifted, p, t, NAT)
            assert a[0] == pytest.approx(b[0], abs=1e-12)
            assert a[1] == pytest.approx(b[1], abs=1e-12)

    def test_static_at_degenerate_point(self):
        h = TwoLevelHamiltonian(E=0.7, Delta=0.0, epsilon=0.0)
        assert transition_probs(h, PrepBias(0.35), 5.0, NAT) == (0.65, 0.35)

    @pytest.mark.parametrize("bad", [math.nan, -1.0, -5e-324, math.inf, -math.inf])
    @pytest.mark.parametrize("epsilon", [0.7, 0.0])  # oscillating, and static (a = 0)
    def test_bad_delay_rejected_on_float_and_array_paths(self, bad, epsilon):
        # A NaN delay used to give (nan, nan), t = -1 a channel, and t = inf
        # a bare "math domain error" from math.cos. evolve, which shares the
        # guard, gave a NaN state, a backward evolution and the same error.
        h = TwoLevelHamiltonian(E=0.0, Delta=1.0 if epsilon else 0.0, epsilon=epsilon)
        message = re.escape(f"delay t must be finite and >= 0, got t = {bad}")
        with pytest.raises(ValueError, match=message):
            transition_probs(h, PrepBias(0.1), bad, NAT)
        with pytest.raises(ValueError, match=message):
            transition_probs(h, PrepBias(0.1), np.array([[0.5, bad], [bad, 1.0]]), NAT)
        with pytest.raises(ValueError, match=message):
            evolve(h, PrepBias(0.1), bad, NAT)


class TestPhaseGuard:
    def test_overflowing_phase_names_the_delay(self):
        # transition_probs ended in math.cos's bare "math domain error", and
        # evolve gave a NaN state from its global phase (E + b)t/hbar. The
        # array path raises no overflow warning (pytest makes it an error).
        message = "delay t = 10000000000.0 gives a phase"
        h = TwoLevelHamiltonian(E=0.0, Delta=1e300, epsilon=1.0)
        with pytest.raises(ValueError, match=message):
            transition_probs(h, PrepBias(0.1), 1e10, NAT)
        with pytest.raises(ValueError, match=message):
            transition_probs(h, PrepBias(0.1), np.array([0.0, 1e10]), NAT)
        with pytest.raises(ValueError, match=message):
            evolve(TwoLevelHamiltonian(E=1e300, Delta=1.0, epsilon=1.0), PrepBias(0.1), 1e10, NAT)

    def test_phase_whose_double_overflows_rejected(self):
        # cos(2at/hbar) needs twice the phase: at/hbar = 1.5 * 2**1023 is
        # finite, its double is not.
        h = TwoLevelHamiltonian(E=0.0, Delta=0.0, epsilon=2.0**1000)
        probs = transition_probs(h, PrepBias(0.1), 2.0**22, NAT)  # phase 2**1022
        assert all(0.0 <= x <= 1.0 for x in probs)
        with pytest.raises(ValueError, match=re.escape(f"delay t = {1.5 * 2.0**23} gives a phase")):
            transition_probs(h, PrepBias(0.1), 1.5 * 2.0**23, NAT)


class TestClampProb:
    """The one snap, stochastic_rows: entries within PROB_CLAMP outside [0, 1] are cancellation noise."""

    BELOW = math.nextafter(-PROB_CLAMP, -math.inf)
    ABOVE = math.nextafter(1.0 + PROB_CLAMP, math.inf)

    def test_bands_snap_to_zero_and_one(self):
        # Each row pairs a value of the lower band with one of the upper.
        rows = [[-PROB_CLAMP, 1.0 + PROB_CLAMP], [-5e-13, 1.0 + 5e-13], [-5e-324, 1.0 + 2**-52]]
        assert stochastic_rows(rows).tolist() == [[0.0, 1.0]] * 3
        assert stochastic_rows([row[::-1] for row in rows]).tolist() == [[1.0, 0.0]] * 3

    def test_negative_zero_kept(self):
        got = stochastic_rows([[-0.0, 1.0], [1.0, -0.0]])
        assert bits(got).tolist() == bits([[-0.0, 1.0], [1.0, -0.0]]).tolist()

    def test_beyond_the_bands_or_nan_rejected(self):
        for bad in (self.BELOW, self.ABOVE, math.nan):
            with pytest.raises(ValueError, match="stray from"):
                stochastic_rows([[bad, 0.5], [0.5, 0.5]])

    def test_transition_probs_snaps_rounding_above_one(self):
        # p = 1, Delta = 0, t = 0: prob1 = (a^2/2 + a^2 - a^2/2) / a^2, and for eps = 0.3 the
        # rounded sums leave 1 + 2**-52 before the snap.
        h = TwoLevelHamiltonian(E=0.0, Delta=0.0, epsilon=0.3)
        assert transition_probs(h, PrepBias(1.0), 0.0, NAT) == (0.0, 1.0)
        prob0, prob1 = transition_probs(h, PrepBias(1.0), np.zeros(3), NAT)
        assert prob0.tolist() == [0.0] * 3 and prob1.tolist() == [1.0] * 3


class TestPeriod:
    def test_hand_value(self):
        # Delta=0, eps=1: 2 pi / sqrt(4) = pi
        assert period(TwoLevelHamiltonian(E=0.0, Delta=0.0, epsilon=1.0), NAT) == pytest.approx(
            math.pi, rel=1e-15
        )

    def test_shared_frequency_parameterization(self):
        # eps = 2/sqrt(gamma^2+4) pins the period at pi for every gamma
        for gamma in (0.0, 0.5, 1.0, 2.0, 4.0, 10.0, 1e160, 1e300):
            eps = eps_for_gamma(gamma)
            if gamma < 1e150:  # gamma**2 overflows beyond about 1.3e154
                assert eps == pytest.approx(2 / math.sqrt(gamma**2 + 4), rel=1e-15, abs=0)
            h = TwoLevelHamiltonian(E=0.0, Delta=gamma * eps, epsilon=eps)
            assert abs(period(h, NAT) - math.pi) < 1e-12

    @pytest.mark.parametrize("bad", [math.nan, -1.0, math.inf, -math.inf])
    def test_eps_for_gamma_rejects_bad_gamma(self, bad):
        # NaN used to give NaN, and -1 the value for +1.
        with pytest.raises(ValueError, match=re.escape(f"gamma must be finite and >= 0, got {bad}")):
            eps_for_gamma(bad)

    def test_periodicity_of_probabilities(self):
        rng = np.random.default_rng(26)
        for _ in range(100):
            h = TwoLevelHamiltonian(E=rng.uniform(-2, 2), Delta=rng.uniform(0, 3),
                                    epsilon=rng.uniform(0.1, 3))
            p = PrepBias(rng.uniform(0, 1))
            t = rng.uniform(0, 10)
            t0 = period(h, NAT)
            a = transition_probs(h, p, t, NAT)
            b = transition_probs(h, p, t + t0, NAT)
            assert a[0] == pytest.approx(b[0], abs=1e-12)

    def test_static_channel_has_no_period(self):
        with pytest.raises(ValueError):
            period(TwoLevelHamiltonian(E=1.0, Delta=0.0, epsilon=0.0), NAT)

    def test_overflowing_period_rejected(self):
        # pi * hbar / a used to come back as a silent inf for a subnormal a.
        message = "period pi * hbar / a overflows for a = 1e-320 and hbar = 1.0"
        with pytest.raises(ValueError, match=re.escape(message)):
            period(TwoLevelHamiltonian(E=0.0, Delta=0.0, epsilon=1e-320), NAT)
        assert period(TwoLevelHamiltonian(E=0.0, Delta=0.0, epsilon=1e-300), NAT) == math.pi * 1e300


class TestChannelAt:
    def test_identity_at_full_periods(self):
        h = TwoLevelHamiltonian(E=0.0, Delta=1.0, epsilon=0.5)
        t0 = period(h, NAT)
        for k in (0, 1, 3):
            ch = channel_at(h, PrepBias(0.0), k * t0, NAT)
            np.testing.assert_allclose(ch.matrix, np.eye(2), atol=1e-12)

    def test_indistinguishable_inputs_at_half_bias(self):
        h = TwoLevelHamiltonian(E=0.0, Delta=1.0, epsilon=0.5)
        for t in (0.0, 0.8, 2.2):
            ch = channel_at(h, PrepBias(0.5), t, NAT)
            np.testing.assert_allclose(ch.matrix[0], ch.matrix[1], atol=1e-12)

    def test_full_swap_matrix(self):
        h = TwoLevelHamiltonian(E=0.0, Delta=0.0, epsilon=1.0)
        ch = channel_at(h, PrepBias(0.0), period(h, NAT) / 2, NAT)
        np.testing.assert_allclose(ch.matrix, [[0, 1], [1, 0]], atol=1e-12)

    def test_rows_stochastic_on_random_draws(self):
        rng = np.random.default_rng(27)
        for _ in range(300):
            h = random_hamiltonian(rng)
            ch = channel_at(h, PrepBias(rng.uniform(0, 0.5)), rng.uniform(0, 10), NAT)
            assert np.all(ch.matrix >= 0) and np.all(ch.matrix <= 1)
            np.testing.assert_allclose(ch.matrix.sum(axis=1), 1.0, atol=1e-12)

    def test_r0_above_half_rejected(self):
        h = TwoLevelHamiltonian(E=0.0, Delta=1.0, epsilon=0.5)
        with pytest.raises(ValueError):
            channel_at(h, PrepBias(0.6), 1.0, NAT)


def bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


class TestChannelMatrices:
    """The array path gives, bit for bit, what the float path gives point by point."""

    HAMILTONIANS = [
        TwoLevelHamiltonian(E=0.0, Delta=0.0, epsilon=1.0),
        TwoLevelHamiltonian(E=0.3, Delta=1.7, epsilon=0.4),
        TwoLevelHamiltonian(E=0.0, Delta=4 * 2 / math.sqrt(20), epsilon=2 / math.sqrt(20)),
        TwoLevelHamiltonian(E=1.0, Delta=0.0, epsilon=0.0),  # static
    ]

    @pytest.mark.parametrize("h", HAMILTONIANS)
    @pytest.mark.parametrize("r0", [0.0, 0.2, 0.5])
    def test_matches_channel_at(self, h, r0):
        t0 = period(h, NAT) if h.a else 1.0
        ts = np.concatenate([np.linspace(0.0, 2 * t0, 37), np.random.default_rng(3).uniform(0, 50, 40)])
        stack = channel_matrices(h, PrepBias(r0), ts, NAT)
        assert stack.shape == (ts.size, 2, 2)
        want = [channel_at(h, PrepBias(r0), float(t), NAT).matrix for t in ts]
        np.testing.assert_array_equal(bits(stack), bits(want))

    @pytest.mark.parametrize("t", [0.7, np.linspace(0.0, 3.0, 5)])
    def test_one_phase_per_call(self, t, monkeypatch):
        # Both rows share one delay guard and one cos map.
        calls = []
        phase = twolevel._phase
        monkeypatch.setattr(twolevel, "_phase", lambda *args: calls.append(args) or phase(*args))
        channel_matrices(self.HAMILTONIANS[1], PrepBias(0.2), t, NAT)
        assert len(calls) == 1

    @pytest.mark.parametrize("h", HAMILTONIANS)
    @pytest.mark.parametrize("r0", [0.0, 0.2, 0.5])
    def test_rows_are_transition_probs(self, h, r0):
        ts = np.random.default_rng(5).uniform(0, 20, (3, 4))
        assert_rows_are_transition_probs(h, r0, ts)
        assert_rows_are_transition_probs(h, r0, 1.3)

    @pytest.mark.parametrize("h", HAMILTONIANS)
    def test_transition_probs_arrays_match_floats(self, h):
        ts = np.random.default_rng(4).uniform(0, 20, (3, 5))
        p = PrepBias(0.37)
        prob0, prob1 = transition_probs(h, p, ts, NAT)
        assert prob0.shape == prob1.shape == ts.shape
        want = np.array([transition_probs(h, p, float(t), NAT) for t in ts.ravel()])
        np.testing.assert_array_equal(bits(prob0).ravel(), bits(want[:, 0]))
        np.testing.assert_array_equal(bits(prob1).ravel(), bits(want[:, 1]))

    def test_float_delay_gives_floats(self):
        h = self.HAMILTONIANS[1]
        probs = transition_probs(h, PrepBias(0.1), 0.7, NAT)
        assert all(type(v) is float for v in probs)
        assert channel_matrices(h, PrepBias(0.1), 0.7, NAT).shape == (2, 2)

    def test_r0_above_half_rejected(self):
        with pytest.raises(ValueError, match="r0 must lie in"):
            channel_matrices(self.HAMILTONIANS[1], PrepBias(0.6), np.linspace(0, 1, 3), NAT)

    def test_stack_validation(self):
        good = np.array([[1.0 + 5e-13, -5e-13], [0.25, 0.75]])
        stack = stochastic_rows(np.stack([good, good]))
        assert stack[1, 0, 0] == 1.0 and stack[1, 0, 1] == 0.0
        for bad in (np.array([[0.6, 0.5], [0.5, 0.5]]), np.array([[math.nan, 0.5], [0.3, 0.7]])):
            with pytest.raises(ValueError):
                stochastic_rows(np.stack([good, bad, good]))


def assert_rows_are_transition_probs(h, r0, t):
    """Each row of channel_matrices is, bit for bit, transition_probs of its preparation."""
    stack = channel_matrices(h, PrepBias(r0), t, NAT)
    for row, p in ((0, r0), (1, 1.0 - r0)):
        want = np.stack(transition_probs(h, PrepBias(p), t, NAT), axis=-1)
        np.testing.assert_array_equal(bits(stack[..., row, :]), bits(want))


class TestValidation:
    def test_prep_bias_range(self):
        with pytest.raises(ValueError):
            PrepBias(-0.01)
        with pytest.raises(ValueError):
            PrepBias(1.01)
        assert PrepBias(0.25).variance == pytest.approx(0.1875)

    def test_state_rejects_nan(self):
        # The norm guard abs(norm - 1) > 1e-12 used to let a NaN through.
        with pytest.raises(ValueError, match="state norm deviates from 1 by nan"):
            TwoLevelState(amp0=math.nan, amp1=0.0)

    def test_binary_channel_row_sums(self):
        with pytest.raises(ValueError):
            BinaryChannel(matrix=np.array([[0.6, 0.5], [0.5, 0.5]]))

    def test_binary_channel_rejects_nan(self):
        with pytest.raises(ValueError):
            BinaryChannel(matrix=np.array([[math.nan, 0.5], [0.3, 0.7]]))
        with pytest.raises(ValueError):
            BinaryChannel(matrix=np.full((2, 2), math.nan))

    def test_binary_channel_clamps_cancellation_noise(self):
        ch = BinaryChannel(matrix=np.array([[1.0 + 5e-13, -5e-13], [0.0, 1.0]]))
        assert ch.matrix[0, 0] == 1.0
        assert ch.matrix[0, 1] == 0.0


def reference_probs(h, p, t, scale=1.0):
    """The closed form as it stood before rescaling: (prob0, prob1) and every value it rounds.

    It forms a*a unscaled, and gives None where that underflows. With
    scale = 2**-k it runs on (a, b, eps) * scale, as transition_probs does;
    the phase takes the unscaled a either way.
    """
    a = 0.5 * math.hypot(h.Delta, 2.0 * h.epsilon)
    cos2 = math.cos(2.0 * a * t / NAT.hbar)
    a, b, eps = a * scale, 0.5 * h.Delta * scale, h.epsilon * scale
    half_eps, eps_term, b_term = 0.5 * eps, eps * (1.0 - 2.0 * p.p), 2.0 * b * math.sqrt(p.variance)
    zeta = half_eps * (eps_term + b_term)
    a2 = a * a
    if a2 == 0.0:
        return None, []  # a*a underflowed: the unscaled form raised here
    swing, stay, arrive = zeta * cos2, a2 * (1.0 - p.p), a2 * p.p
    prob0 = (swing + stay - zeta) / a2
    prob1 = (-swing + arrive + zeta) / a2
    steps = [a, b, eps, half_eps, eps_term, b_term, zeta, a2, swing, stay, arrive, prob0, prob1]
    return (np.clip(prob0, 0.0, 1.0), np.clip(prob1, 0.0, 1.0)), steps  # stochastic_rows' snap


TINY = 2.0**-1022  # the smallest normal double


def rounds_alike(x, y):
    """A step and its rescaled twin are both zero, or both normal and finite, so it rounded alike."""
    return x == y == 0.0 or (TINY <= abs(x) < math.inf and TINY <= abs(y) < math.inf)

#: Delta and eps: log-uniform over [1e-300, 1e300], plus exact 0.
SCALES = st.floats(-300.0, 300.0).map(lambda e: 10.0**e) | st.just(0.0)
MODERATE = st.floats(1e-3, 1e3) | st.just(0.0)


class TestScaleFree:
    """transition_probs rescales (a, b, eps) by a power of two, so no finite scale is out of range."""

    @settings(deadline=None)
    @given(delta=MODERATE, eps=MODERATE, p=st.floats(0.0, 1.0), t=MODERATE, k=st.integers(-1000, 1000))
    def test_power_of_two_scaling_is_exact(self, delta, eps, p, t, k):
        # h * 2**k at t / 2**k is the same channel, and every step of the
        # rescaled form sees the same numbers; the unscaled form ran out of
        # range beyond about |k| = 510.
        h = TwoLevelHamiltonian(E=0.0, Delta=delta, epsilon=eps)
        big = TwoLevelHamiltonian(E=0.0, Delta=math.ldexp(delta, k), epsilon=math.ldexp(eps, k))
        got = transition_probs(big, PrepBias(p), math.ldexp(t, -k), NAT)
        assert bits(got).tolist() == bits(transition_probs(h, PrepBias(p), t, NAT)).tolist()

    @settings(deadline=None)
    @given(delta=SCALES, eps=SCALES, r0=st.floats(0.0, 0.5), theta=st.floats(0.0, 100.0))
    def test_channel_invariants_at_every_scale(self, delta, eps, r0, theta):
        h = TwoLevelHamiltonian(E=0.0, Delta=delta, epsilon=eps)
        t0 = period(h, NAT) if h.a else 1.0  # static at a = 0
        t = theta * t0 / math.pi  # theta = at/hbar
        ts = np.array([t, t + t0])
        stack = channel_matrices(h, PrepBias(r0), ts, NAT)
        assert np.all((stack >= 0.0) & (stack <= 1.0))
        np.testing.assert_allclose(stack.sum(axis=-1), 1.0, rtol=0, atol=1e-15)
        np.testing.assert_allclose(stack[1], stack[0], rtol=0, atol=1e-12)
        caps = two_level_capacities(h, PrepBias(r0), ts, NAT)
        assert np.all((caps >= 0.0) & (caps <= 1.0 + 1e-15))

    @settings(deadline=None)
    @given(delta=SCALES, eps=SCALES, r0=st.floats(0.0, 0.5), theta=st.floats(0.0, 100.0))
    def test_channel_rows_are_transition_probs(self, delta, eps, r0, theta):
        h = TwoLevelHamiltonian(E=0.0, Delta=delta, epsilon=eps)
        t = theta * NAT.hbar / h.a if h.a else theta
        assert_rows_are_transition_probs(h, r0, np.array([t, 2.0 * t]))
        assert_rows_are_transition_probs(h, r0, t)

    @settings(deadline=None)
    @given(delta=SCALES, eps=SCALES, p=st.floats(0.0, 1.0), theta=st.floats(0.0, 100.0))
    def test_matches_the_unscaled_formula_and_the_oracle(self, delta, eps, p, theta):
        h = TwoLevelHamiltonian(E=0.0, Delta=delta, epsilon=eps)
        if h.a == 0.0:
            return
        t = theta * NAT.hbar / h.a
        prep = PrepBias(p)
        got = transition_probs(h, prep, t, NAT)
        want, steps = reference_probs(h, prep, t)
        _, scaled = reference_probs(h, prep, t, math.ldexp(1.0, -math.frexp(h.a)[1]))
        # Scaling by a power of two is exact, so the two forms round alike
        # wherever each step is zero or normal at both scales. Elsewhere the
        # unscaled one loses bits to underflow, or a*a leaves the range.
        if want is not None and all(map(rounds_alike, steps, scaled)):
            assert bits(got).tolist() == bits(want).tolist()
        if all(x == 0.0 or 1e-100 <= x <= 1e100 for x in (delta, eps, t)):
            ref = unitary_evolve_2x2(h, evolve(h, prep, 0.0, NAT), t, NAT).populations()
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-10)
