import math
import re

import exact
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_kernels import corner_channels

from chancap import cli, infotheory, kernels, verify
from chancap.infotheory import (
    blahut_arimoto,
    capacity_binary,
    capacity_grid,
    shannon_entropy,
    two_level_capacities,
    two_level_capacity,
    _binary_capacity,
    _channel_capacity,
)
from chancap.twolevel import (
    BinaryChannel,
    PrepBias,
    TwoLevelHamiltonian,
    channel_at,
    channel_matrices,
    period,
)
from chancap.units import UnitMode, constants_for

NAT = constants_for(UnitMode.NATURAL)

H2_011_BITS = 0.499915958164528
BSC_011_CAPACITY_BITS = 0.500084041835472

IDENTITY = BinaryChannel(matrix=np.eye(2))
BSC_011 = BinaryChannel(matrix=np.array([[0.89, 0.11], [0.11, 0.89]]))
USELESS = BinaryChannel(matrix=np.array([[0.5, 0.5], [0.5, 0.5]]))


def random_channel(rng):
    m = rng.uniform(0, 1, (2, 2))
    m /= m.sum(axis=1, keepdims=True)
    return BinaryChannel(matrix=m)


def binary(p00, p10):
    return BinaryChannel(matrix=np.array([[p00, 1.0 - p00], [p10, 1.0 - p10]]))


_LOG_UNIFORM = st.floats(min_value=-300.0, max_value=0.0).map(lambda e: 10.0**e)
#: Channel entries: log-uniform on [1e-300, 1], the same distances below 1,
#: and the exact edges 0, 1 and the smallest subnormal.
ENTRIES = st.one_of(
    _LOG_UNIFORM,
    _LOG_UNIFORM.map(lambda x: 1.0 - x),
    st.sampled_from([0.0, 1.0, 5e-324]),
)


def bits(x):
    return int(np.float64(x).view(np.int64))


def assert_twins_agree(a, b):
    """_channel_capacity and a 1-element _binary_capacity give the same bits, signs of zero included."""
    caps, qs = _binary_capacity(np.array([a]), np.array([b]))
    cap, q = _channel_capacity(a, b)
    assert (bits(cap), bits(q)) == (bits(caps[0]), bits(qs[0])), (a, b)


class TestEntropy:
    def test_uniform_binary_is_one_bit(self):
        assert shannon_entropy([0.5, 0.5], "bits") == pytest.approx(1.0)

    def test_deterministic_is_zero(self):
        assert shannon_entropy([1.0, 0.0]) == 0.0

    def test_hand_value(self):
        d = np.array([0.11, 0.89])
        assert shannon_entropy(d, "bits") == pytest.approx(H2_011_BITS, abs=1e-14)

    def test_nats_bits_conversion(self):
        d = np.array([0.3, 0.7])
        assert shannon_entropy(d, "nats") == pytest.approx(
            shannon_entropy(d, "bits") * math.log(2), rel=1e-14
        )

    def test_bad_base_rejected(self):
        with pytest.raises(ValueError):
            shannon_entropy([1.0], "trits")


class TestMutualInformation:
    """The 2x2 mutual information, kernels.mi_binary, in nats."""

    def test_noiseless_binary(self):
        assert kernels.mi_binary(1.0, 0.0, 0.5) / math.log(2) == pytest.approx(1.0)

    def test_useless_channel(self):
        for w in (0.1, 0.5, 0.9):
            assert kernels.mi_binary(0.5, 0.5, w) == pytest.approx(0.0, abs=1e-15)

    def test_bsc_hand_value(self):
        assert kernels.mi_binary(0.89, 0.11, 0.5) / math.log(2) == pytest.approx(
            BSC_011_CAPACITY_BITS, abs=1e-14
        )

    def test_concavity_in_input(self):
        rng = np.random.default_rng(31)
        worst = 0.0
        for _ in range(500):
            ch = random_channel(rng)
            q1, q2 = rng.uniform(0, 1, 2)
            mids = [
                kernels.mi_binary(ch.matrix[0, 0], ch.matrix[1, 0], q)
                for q in (q1, q2, 0.5 * (q1 + q2))
            ]
            worst = max(worst, 0.5 * (mids[0] + mids[1]) - mids[2])
        assert worst < 1e-12


class TestCapacityBinary:
    def test_identity_channel(self):
        res = capacity_binary(IDENTITY, "bits")
        assert res.capacity == pytest.approx(1.0, abs=1e-9)
        assert res.q == pytest.approx(0.5, abs=1e-9)

    def test_useless_channel(self):
        res = capacity_binary(USELESS)
        assert res.capacity == 0.0
        assert res.q == 0.5

    def test_bsc_value_and_optimizer(self):
        res = capacity_binary(BSC_011, "bits")
        assert res.capacity == pytest.approx(BSC_011_CAPACITY_BITS, abs=1e-9)
        assert abs(res.q - 0.5) < 1e-10

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
            res = capacity_binary(binary(p00, p10))
            assert res.q == pytest.approx(q_star, abs=1e-10)

    def test_non_binary_rejected(self):
        # Every solver takes a BinaryChannel, which refuses a 3x3 matrix.
        for solver in (capacity_binary, capacity_grid, blahut_arimoto):
            with pytest.raises(ValueError, match=r"expected a 2x2 matrix, got shape \(3, 3\)"):
                solver(BinaryChannel(matrix=np.full((3, 3), 1 / 3)))


class TestClosedForm:
    @settings(max_examples=400, deadline=None)
    @given(ENTRIES, ENTRIES)
    def test_bounded_and_invariant(self, p00, p10):
        cap = capacity_binary(binary(p00, p10)).capacity
        assert math.isfinite(cap) and 0.0 <= cap <= math.log(2)
        assert abs(capacity_binary(binary(p10, p00)).capacity - cap) <= 1e-15
        # Relabelled, a row (p, 1-p) is read back as (1-p, 1 - (1-p)), and
        # 1 - (1-p) is p only where 1-p is exact: below 1e-16 it is not (at
        # p = 5e-17 that moves C by 1.2e-15). p = 1 - (1-p) makes it exact.
        p00, p10 = 1.0 - (1.0 - p00), 1.0 - (1.0 - p10)
        cap = capacity_binary(binary(p00, p10)).capacity
        assert abs(capacity_binary(binary(1.0 - p00, 1.0 - p10)).capacity - cap) <= 1e-15

    @settings(max_examples=400, deadline=None)
    @given(ENTRIES, ENTRIES)
    def test_matches_ternary_search_and_its_optimizer(self, p00, p10):
        res = capacity_binary(binary(p00, p10))
        assert abs(kernels.capacity_ternary(p00, p10)[0] - res.capacity) <= 1e-12
        assert abs(kernels.mi_binary(p00, p10, res.q) - res.capacity) <= 1e-12

    @pytest.mark.parametrize("p00,p10", verify.ADVERSARIAL_CHANNELS)
    def test_adversarial_corners_match_the_grid(self, p00, p10):
        ch = binary(p00, p10)
        assert abs(capacity_binary(ch).capacity - capacity_grid(ch, step=1e-6).capacity) <= 1e-12

    def test_z_channel_near_one(self):
        # Rows (1, 0) and (1-d, d): C = ln(1 + d (1-d)^((1-d)/d)), about d/e.
        p10 = 1.0 - 1e-9
        want = float(exact.capacity(1.0, p10))
        assert capacity_binary(binary(1.0, p10)).capacity == pytest.approx(want, rel=1e-12)
        assert want == pytest.approx(3.68e-10, rel=1e-3)

    #: The closed form's worst absolute error, in nats, on the channels below.
    #: Measured: 1.95e-16 on a uniform channel, 1.49e-16 on a corner, 7.7e-17
    #: on an adversarial one. Where C is below 1e-16 the error is all of C or
    #: more: (0.3, 0.3 + 1e-16) gives 5.55e-17 for C = 7.3e-33.
    BUDGET = 2.2e-16

    def test_within_an_absolute_budget_of_the_exact_capacity(self):
        rng = np.random.default_rng(0)
        uniform = [random_channel(rng).matrix[:, 0].tolist() for _ in range(100)]
        corners = [c for seed in range(4) for c in corner_channels(np.random.default_rng(seed))]
        for p00, p10 in list(verify.ADVERSARIAL_CHANNELS) + corners + uniform:
            err = exact.error(_channel_capacity(p00, p10)[0], exact.capacity(p00, p10))
            assert err <= self.BUDGET, (p00, p10, float(err))

    def test_stack_is_bounded_and_matches_single_channels_bit_for_bit(self):
        rng = np.random.default_rng(35)
        n = 2000
        tiny = 10.0 ** rng.uniform(-300.0, 0.0, (2, n))
        edges = np.array([0.0, 1.0, 5e-324])[rng.integers(0, 3, (2, n))]
        kind = rng.integers(0, 4, (2, n))
        pick = [rng.uniform(0.0, 1.0, (2, n)), tiny, 1.0 - tiny, edges]
        p00, p10 = np.choose(kind, pick)
        # a quarter of the rows 1e-16 to 1e-10 apart, where rounding
        # pushes the formula below 0
        offset = 10.0 ** rng.uniform(-16.0, -10.0, n) * rng.choice([-1.0, 1.0], n)
        p10 = np.where(np.arange(n) % 4 == 0, np.clip(p00 + offset, 0.0, 1.0), p10)
        caps, qs = _binary_capacity(p00, p10)
        assert np.all((caps >= 0.0) & (caps <= math.log(2)))
        for a, b, cap, q in zip(p00.tolist(), p10.tolist(), caps.tolist(), qs.tolist()):
            res = capacity_binary(binary(a, b))
            assert res.capacity.hex() == cap.hex() and res.q.hex() == q.hex()

    @settings(max_examples=400, deadline=None)
    @given(ENTRIES, ENTRIES)
    def test_float_twin_matches_the_array_path(self, a, b):
        assert_twins_agree(a, b)

    def test_float_twin_matches_the_array_path_at_the_edges(self):
        rng = np.random.default_rng(17)
        rows = rng.uniform(0.0, 1.0, 50).tolist() + [1e-300, 1e-17, 0.5, 1.0 - 2**-53]
        cases = [*verify.ADVERSARIAL_CHANNELS]
        for a in rows:
            cases += [(a, math.nextafter(a, 1.0)), (a, math.nextafter(a, 0.0)), (a, a)]
            cases += [(a, min(a + 1e-12, 1.0)), (a, max(a - 1e-12, 0.0))]
        edges = [0.0, -0.0, 5e-324, 1.0, 0.3]
        cases += [(a, b) for a in edges for b in edges]
        for a, b in cases:
            assert_twins_agree(a, b)
            assert_twins_agree(b, a)

    def test_numpy_tie_rules_the_float_twin_mirrors(self):
        # _channel_capacity writes np.maximum and np.clip as comparisons; a
        # numpy that changed these rules would split the two paths' bits.
        assert math.copysign(1.0, np.maximum(0.0, -0.0)) == -1.0
        assert math.copysign(1.0, np.maximum(-0.0, 0.0)) == 1.0
        assert math.copysign(1.0, np.minimum(0.0, -0.0)) == -1.0
        assert math.copysign(1.0, np.clip(-0.0, 0.0, 1.0)) == -1.0

    def test_negative_zero_entries_solve_alike_on_both_paths(self, monkeypatch):
        stack = np.array([[[-0.0, 1.0], [0.3, 0.7]], [[0.6, 0.4], [-0.0, 1.0]],
                          [[-0.0, 1.0], [0.0, 1.0]], [[-0.0, 1.0], [5e-324, 1.0]]])
        singles = [capacity_binary(BinaryChannel(matrix=m), base="bits") for m in stack]
        monkeypatch.setattr(infotheory, "channel_matrices", lambda h, r0, t, c: stack)
        caps = two_level_capacities(TwoLevelHamiltonian(0.0, 1.0, 1.0), PrepBias(0.1), 0.0, NAT)
        assert [bits(c) for c in caps] == [bits(res.capacity) for res in singles]
        assert singles[2].capacity == 0.0 and singles[2].q == 0.5

    def test_one_channel_never_reaches_the_array_path(self, monkeypatch):
        def refuse(a, b):
            raise AssertionError("array path")

        monkeypatch.setattr(infotheory, "_binary_capacity", refuse)
        h, r0 = TwoLevelHamiltonian(0.0, 1.0, 1.0), PrepBias(0.1)
        assert capacity_binary(BSC_011).capacity > 0.0
        assert two_level_capacity(h, r0, 0.7, NAT).capacity > 0.0
        with pytest.raises(AssertionError, match="array path"):
            two_level_capacities(h, r0, np.array([0.7]), NAT)


class TestBlahutArimoto:
    def test_identity_channel(self):
        res = blahut_arimoto(IDENTITY, base="bits")
        assert res.converged
        assert res.capacity == pytest.approx(1.0, abs=1e-9)

    def test_bsc_matches_ternary(self):
        res = blahut_arimoto(BSC_011)
        assert res.converged
        assert res.capacity == pytest.approx(capacity_binary(BSC_011).capacity, abs=1e-9)

    def test_max_iter_exhaustion_is_reported(self):
        # nearly identical (asymmetric) rows: the bound gap pinches too slowly
        ch = binary(0.15, 0.156)
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

    def test_nan_parameters_rejected(self):
        # A NaN fails every comparison: it used to run max_iter iterations
        # (tol) or none (max_iter) and report converged=False.
        with pytest.raises(ValueError, match="tol must be positive, got nan"):
            blahut_arimoto(IDENTITY, tol=math.nan)
        with pytest.raises(ValueError, match="max_iter must be >= 1, got nan"):
            blahut_arimoto(IDENTITY, max_iter=math.nan)


class TestCapacityGrid:
    def test_identity_channel(self):
        res = capacity_grid(IDENTITY, step=1e-4, base="bits")
        assert res.capacity == pytest.approx(1.0, abs=1e-7)

    def test_bsc_fine_grid(self):
        res = capacity_grid(BSC_011, step=1e-6, base="bits")
        assert res.capacity == pytest.approx(BSC_011_CAPACITY_BITS, abs=1e-9)
        assert res.q == pytest.approx(0.5, abs=1e-6)

    def test_evaluation_count(self):
        # The points evaluated: the window around q = 1/2 settles it, of the 1,001 on the grid.
        res = capacity_grid(IDENTITY, step=1e-3)
        assert res.iterations == 65


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

    @pytest.mark.parametrize("delta,eps", [(0.0, 1e-170), (1e200, 1e200)])
    def test_extreme_scales_give_valid_channels_alike(self, delta, eps):
        # a*a underflows (eps = 1e-170) or overflows (1e200) a double, and the
        # closed form used to refuse these. Rescaled, it gives the channel of
        # (Delta, eps) / eps at t * eps, with the same bits for a float and an
        # array of delays and no numpy warning (pytest turns them into errors).
        h = TwoLevelHamiltonian(E=0.0, Delta=delta, epsilon=eps)
        r0 = PrepBias(0.1)
        ts = period(h, NAT) * np.array([0.0, 0.15, 0.3, 0.5])
        stack = channel_matrices(h, r0, ts, NAT)
        assert np.all((stack >= 0.0) & (stack <= 1.0))
        np.testing.assert_allclose(stack.sum(axis=-1), 1.0, rtol=0, atol=1e-15)
        unit = TwoLevelHamiltonian(E=0.0, Delta=delta / eps, epsilon=1.0)
        np.testing.assert_allclose(stack, channel_matrices(unit, r0, ts * eps, NAT), rtol=0, atol=1e-12)
        want = [channel_at(h, r0, float(t), NAT).matrix for t in ts]
        np.testing.assert_array_equal(stack.view(np.int64), np.array(want).view(np.int64))
        caps = two_level_capacities(h, r0, ts, NAT)
        want = [two_level_capacity(h, r0, float(t), NAT).capacity for t in ts]
        np.testing.assert_array_equal(caps.view(np.int64), np.array(want).view(np.int64))
        assert np.all((caps >= 0.0) & (caps <= 1.0))

    def test_two_level_tables_make_no_per_point_search(self, monkeypatch, tmp_path):
        def refuse(p00, p10):
            raise AssertionError("per-point ternary search")

        monkeypatch.setattr(kernels, "capacity_ternary", refuse)
        assert cli.main(["fig-two-level", "--out", str(tmp_path / "fig.csv")]) == 0
        assert len(verify.monotonicity_findings()) == 400


class TestValidation:
    def test_distribution_must_sum_to_one(self):
        # shannon_entropy validates its probability vector as one channel row.
        for p in ([0.5, 0.6], [1.5, -0.5], [], [0.5], [0.2, -1e-9, 0.8]):
            with pytest.raises(ValueError):
                shannon_entropy(p)
        with pytest.raises(ValueError, match="expected a probability vector"):
            shannon_entropy(np.eye(2))

    def test_empty_distribution_is_named(self):
        with pytest.raises(ValueError, match=re.escape("rows must sum to 1, got 0.0 for []")):
            shannon_entropy([])

    def test_dmc_row_sums(self):
        with pytest.raises(ValueError, match="rows must sum to 1"):
            BinaryChannel(matrix=np.array([[0.9, 0.2], [0.5, 0.5]]))

    def test_dmc_is_an_alias_of_the_one_channel_type(self):
        assert infotheory.DMC is BinaryChannel

    def test_nan_entries_rejected(self):
        for p in ([math.nan, 1.0], [math.nan, math.nan]):
            with pytest.raises(ValueError):
                shannon_entropy(p)
        with pytest.raises(ValueError):
            BinaryChannel(matrix=np.array([[math.nan, 0.5], [0.3, 0.7]]))

    def test_capacity_result_unit_tag(self):
        res = capacity_binary(BSC_011, base="nats")
        assert res.base == "nats"
        res_bits = capacity_binary(BSC_011, base="bits")
        assert res_bits.capacity == pytest.approx(res.capacity / math.log(2), rel=1e-12)
