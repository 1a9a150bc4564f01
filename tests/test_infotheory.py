import math

import numpy as np
import pytest

from chancap.infotheory import (
    DMC,
    Distribution,
    blahut_arimoto,
    capacity_binary,
    capacity_grid,
    mutual_information,
    shannon_entropy,
    two_level_capacities,
    two_level_capacity,
)
from chancap.twolevel import PrepBias, TwoLevelHamiltonian, period
from chancap.units import UnitMode, constants_for

NAT = constants_for(UnitMode.NATURAL)

H2_011_BITS = 0.499915958164528
BSC_011_CAPACITY_BITS = 0.500084041835472

IDENTITY = DMC(matrix=np.eye(2))
BSC_011 = DMC(matrix=np.array([[0.89, 0.11], [0.11, 0.89]]))
USELESS = DMC(matrix=np.array([[0.5, 0.5], [0.5, 0.5]]))


def random_channel(rng, nx=2, ny=2):
    m = rng.uniform(0, 1, (nx, ny))
    m /= m.sum(axis=1, keepdims=True)
    return DMC(matrix=m)


class TestEntropy:
    def test_uniform_binary_is_one_bit(self):
        assert shannon_entropy(Distribution(np.array([0.5, 0.5])), "bits") == pytest.approx(1.0)

    def test_deterministic_is_zero(self):
        assert shannon_entropy(Distribution(np.array([1.0, 0.0]))) == 0.0

    def test_hand_value(self):
        d = Distribution(np.array([0.11, 0.89]))
        assert shannon_entropy(d, "bits") == pytest.approx(H2_011_BITS, abs=1e-14)

    def test_nats_bits_conversion(self):
        d = Distribution(np.array([0.3, 0.7]))
        assert shannon_entropy(d, "nats") == pytest.approx(
            shannon_entropy(d, "bits") * math.log(2), rel=1e-14
        )

    def test_bad_base_rejected(self):
        with pytest.raises(ValueError):
            shannon_entropy(Distribution(np.array([1.0])), "trits")


class TestMutualInformation:
    def test_noiseless_binary(self):
        q = Distribution(np.array([0.5, 0.5]))
        assert mutual_information(q, IDENTITY, "bits") == pytest.approx(1.0)

    def test_useless_channel(self):
        for w in (0.1, 0.5, 0.9):
            q = Distribution(np.array([w, 1 - w]))
            assert mutual_information(q, USELESS) == pytest.approx(0.0, abs=1e-15)

    def test_bsc_hand_value(self):
        q = Distribution(np.array([0.5, 0.5]))
        assert mutual_information(q, BSC_011, "bits") == pytest.approx(
            BSC_011_CAPACITY_BITS, abs=1e-14
        )

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mutual_information(Distribution(np.array([0.5, 0.25, 0.25])), IDENTITY)

    def test_concavity_in_input(self):
        rng = np.random.default_rng(31)
        worst = 0.0
        for _ in range(500):
            ch = random_channel(rng)
            q1, q2 = rng.uniform(0, 1, 2)
            mids = [
                mutual_information(Distribution(np.array([q, 1 - q])), ch)
                for q in (q1, q2, 0.5 * (q1 + q2))
            ]
            worst = max(worst, 0.5 * (mids[0] + mids[1]) - mids[2])
        assert worst < 1e-12


class TestCapacityBinary:
    def test_identity_channel(self):
        res = capacity_binary(IDENTITY, "bits")
        assert res.capacity == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_allclose(res.optimizer.probs, [0.5, 0.5], atol=1e-9)

    def test_useless_channel(self):
        res = capacity_binary(USELESS)
        assert res.capacity == 0.0
        np.testing.assert_array_equal(res.optimizer.probs, [0.5, 0.5])

    def test_bsc_value_and_optimizer(self):
        res = capacity_binary(BSC_011, "bits")
        assert res.capacity == pytest.approx(BSC_011_CAPACITY_BITS, abs=1e-9)
        assert abs(res.optimizer.probs[0] - 0.5) < 1e-10

    def test_optimizer_matches_stationarity_condition(self):
        # interior optimum: the output marginal satisfies
        # ln(y1/y0) = (h(p00) - h(p10)) / (p00 - p10)
        rng = np.random.default_rng(32)
        h2 = lambda p: -p * math.log(p) - (1 - p) * math.log(1 - p)
        for _ in range(200):
            p00, p10 = rng.uniform(0.02, 0.98, 2)
            if abs(p00 - p10) < 0.05:
                continue
            kappa = (h2(p00) - h2(p10)) / (p00 - p10)
            y0_star = 1.0 / (1.0 + math.exp(kappa))
            q_star = (y0_star - p10) / (p00 - p10)
            ch = DMC(matrix=np.array([[p00, 1 - p00], [p10, 1 - p10]]))
            res = capacity_binary(ch)
            assert res.optimizer.probs[0] == pytest.approx(q_star, abs=1e-10)

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError):
            capacity_binary(DMC(matrix=np.eye(3)))


class TestBlahutArimoto:
    def test_identity_channel(self):
        res = blahut_arimoto(IDENTITY, base="bits")
        assert res.converged
        assert res.capacity == pytest.approx(1.0, abs=1e-9)

    def test_bsc_matches_ternary(self):
        res = blahut_arimoto(BSC_011)
        assert res.converged
        assert res.capacity == pytest.approx(capacity_binary(BSC_011).capacity, abs=1e-9)

    def test_ternary_symmetric_channel(self):
        # 3x3 symmetric channel: capacity = log(3) + sum p log p
        p = np.array([0.8, 0.1, 0.1])
        m = np.array([np.roll(p, k) for k in range(3)])
        res = blahut_arimoto(DMC(matrix=m), tol=1e-12)
        expected = math.log(3) + float((p * np.log(p)).sum())
        assert res.converged
        assert res.capacity == pytest.approx(expected, abs=1e-9)
        np.testing.assert_allclose(res.optimizer.probs, np.full(3, 1 / 3), atol=1e-6)

    def test_max_iter_exhaustion_is_reported(self):
        # nearly identical (asymmetric) rows: the bound gap pinches too slowly
        ch = DMC(matrix=np.array([[0.15, 0.85], [0.156, 0.844]]))
        res = blahut_arimoto(ch, tol=1e-15, max_iter=5)
        assert not res.converged
        assert res.iterations == 5
        # the lower bound is still a usable estimate
        assert res.capacity == pytest.approx(capacity_binary(ch).capacity, abs=1e-8)

    def test_agreement_with_grid_on_random_channels(self):
        rng = np.random.default_rng(33)
        for _ in range(50):
            ch = random_channel(rng)
            ba = blahut_arimoto(ch, tol=1e-9, max_iter=100_000).capacity
            grid = capacity_grid(ch, step=1e-4).capacity
            assert ba == pytest.approx(grid, abs=1e-5)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            blahut_arimoto(IDENTITY, tol=0.0)
        with pytest.raises(ValueError):
            blahut_arimoto(IDENTITY, max_iter=0)


class TestCapacityGrid:
    def test_identity_channel(self):
        res = capacity_grid(IDENTITY, step=1e-4, base="bits")
        assert res.capacity == pytest.approx(1.0, abs=1e-7)

    def test_bsc_fine_grid(self):
        res = capacity_grid(BSC_011, step=1e-6, base="bits")
        assert res.capacity == pytest.approx(BSC_011_CAPACITY_BITS, abs=1e-9)
        assert res.optimizer.probs[0] == pytest.approx(0.5, abs=1e-6)

    def test_evaluation_count(self):
        res = capacity_grid(IDENTITY, step=1e-3)
        assert res.iterations == 1001


class TestTwoLevelCapacity:
    def test_identity_at_full_periods(self):
        h = TwoLevelHamiltonian(E=0.0, Delta=1.0, epsilon=0.7)
        t0 = period(h, NAT)
        for k in (0, 1, 2):
            res = two_level_capacity(h, PrepBias(0.0), k * t0, NAT)
            assert res.base == "bits"
            assert res.capacity == pytest.approx(1.0, abs=1e-9)

    def test_half_bias_kills_capacity(self):
        h = TwoLevelHamiltonian(E=0.0, Delta=1.0, epsilon=0.7)
        for t in (0.0, 0.9, 2.4):
            assert two_level_capacity(h, PrepBias(0.5), t, NAT).capacity == pytest.approx(
                0.0, abs=1e-12
            )

    def test_quarter_period_resonant_swap_is_useless(self):
        # Delta=0 at T0/4 gives the fully symmetric flip channel
        h = TwoLevelHamiltonian(E=0.0, Delta=0.0, epsilon=1.0)
        res = two_level_capacity(h, PrepBias(0.0), period(h, NAT) / 4, NAT)
        assert res.capacity == pytest.approx(0.0, abs=1e-9)

    def test_capacity_within_one_bit(self):
        rng = np.random.default_rng(34)
        for _ in range(200):
            h = TwoLevelHamiltonian(
                E=rng.uniform(-2, 2), Delta=rng.uniform(0, 3), epsilon=rng.uniform(0, 3)
            )
            cap = two_level_capacity(h, PrepBias(rng.uniform(0, 0.5)), rng.uniform(0, 10), NAT)
            assert -1e-12 <= cap.capacity <= 1.0 + 1e-12

    @pytest.mark.parametrize("base", ["bits", "nats"])
    @pytest.mark.parametrize("r0", [0.0, 0.2, 0.5])
    @pytest.mark.parametrize(
        "h",
        [
            TwoLevelHamiltonian(E=0.0, Delta=1.0, epsilon=0.7),
            TwoLevelHamiltonian(E=0.0, Delta=0.0, epsilon=1.0),
            TwoLevelHamiltonian(E=0.0, Delta=2.0, epsilon=0.0),  # static
        ],
    )
    def test_array_form_matches_point_by_point(self, h, r0, base):
        ts = np.concatenate([np.linspace(0.0, 7.0, 41), [period(h, NAT) if h.a else 1.0]])
        caps = two_level_capacities(h, PrepBias(r0), ts, NAT, base=base)
        want = [two_level_capacity(h, PrepBias(r0), float(t), NAT, base=base).capacity for t in ts]
        np.testing.assert_array_equal(caps.view(np.int64), np.array(want).view(np.int64))


class TestValidation:
    def test_distribution_must_sum_to_one(self):
        with pytest.raises(ValueError):
            Distribution(np.array([0.5, 0.6]))
        with pytest.raises(ValueError):
            Distribution(np.array([1.5, -0.5]))

    def test_dmc_row_sums(self):
        with pytest.raises(ValueError):
            DMC(matrix=np.array([[0.9, 0.2], [0.5, 0.5]]))

    def test_nan_entries_rejected(self):
        with pytest.raises(ValueError):
            Distribution(np.array([math.nan, 1.0]))
        with pytest.raises(ValueError):
            Distribution(np.array([math.nan, math.nan]))
        with pytest.raises(ValueError):
            DMC(matrix=np.array([[math.nan, 0.5], [0.3, 0.7]]))
        with pytest.raises(ValueError):
            DMC(matrix=np.array([[0.2, 0.3, 0.5], [0.1, math.nan, 0.9]]))

    def test_capacity_result_unit_tag(self):
        res = capacity_binary(BSC_011, base="nats")
        assert res.base == "nats"
        res_bits = capacity_binary(BSC_011, base="bits")
        assert res_bits.capacity == pytest.approx(res.capacity / math.log(2), rel=1e-12)
