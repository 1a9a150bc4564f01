"""The scalar capacity kernels: known values, validation and the grid scan's bit identity."""

import math
import re

import numpy as np
import pytest

from chancap import kernels

BSC_NATS = 0.3466318436412791  # capacity of BSC(0.11), hand value


def random_channels(n, seed=0):
    rng = np.random.default_rng(seed)
    m = rng.uniform(0, 1, (n, 2, 2))
    m /= m.sum(axis=2, keepdims=True)
    return [(float(a[0, 0]), float(a[1, 0])) for a in m]


class TestKernels:
    def test_mi_known_values(self):
        assert kernels.mi_binary(1.0, 0.0, 0.5) == pytest.approx(math.log(2), rel=1e-14)
        assert kernels.mi_binary(0.5, 0.5, 0.3) == pytest.approx(0.0, abs=1e-15)
        assert kernels.mi_binary(0.89, 0.11, 0.5) == pytest.approx(BSC_NATS, rel=1e-13)

    def test_ternary_bsc(self):
        cap, q, _ = kernels.capacity_ternary(0.89, 0.11)
        assert cap == pytest.approx(BSC_NATS, abs=1e-12)
        assert abs(q - 0.5) < 1e-10

    def test_ternary_degenerate_rows(self):
        cap, q, iters = kernels.capacity_ternary(0.37, 0.37)
        assert cap == 0.0 and q == 0.5 and iters == 0

    def test_grid_identity(self):
        cap, q, evals = kernels.capacity_grid(1.0, 0.0, 1e-4)
        assert cap == pytest.approx(math.log(2), abs=1e-8)
        assert q == pytest.approx(0.5, abs=1e-4)
        assert evals == 10001

    def test_grid_step_validation(self):
        for step in (0.0, -1e-3, 1.5, math.inf, -math.inf, math.nan):
            message = re.escape(f"step must lie in (0, 1], got {step}")
            with pytest.raises(ValueError, match=message):
                kernels.capacity_grid(0.5, 0.4, step)

    def test_ba_identity(self):
        cap, q, iters, converged = kernels.ba_binary(1.0, 0.0, 1e-12, 100)
        assert converged and iters == 1
        assert cap == pytest.approx(math.log(2), rel=1e-14)

    def test_ba_reports_exhaustion(self):
        cap, q, iters, converged = kernels.ba_binary(0.15, 0.156, 1e-15, 5)
        assert not converged and iters == 5

    def test_ba_parameter_validation(self):
        with pytest.raises(ValueError):
            kernels.ba_binary(0.5, 0.4, -1.0, 100)
        with pytest.raises(ValueError):
            kernels.ba_binary(0.5, 0.4, 1e-9, 0)


BAD_CHANNELS = [
    (math.nan, 0.3),
    (0.3, math.nan),
    (-0.1, 0.3),
    (0.3, 1.0 + 1e-9),
    (math.inf, 0.3),
    (0.3, -math.inf),
]


class TestChannelValidation:
    """kernels rejects a channel entry outside [0, 1], NaN included."""

    @pytest.mark.parametrize("p00,p10", BAD_CHANNELS)
    def test_mi_binary(self, p00, p10):
        with pytest.raises(ValueError, match="must lie in \\[0, 1\\]"):
            kernels.mi_binary(p00, p10, 0.5)

    @pytest.mark.parametrize("p00,p10", BAD_CHANNELS)
    def test_capacity_ternary(self, p00, p10):
        with pytest.raises(ValueError, match="must lie in \\[0, 1\\]"):
            kernels.capacity_ternary(p00, p10)

    @pytest.mark.parametrize("p00,p10", BAD_CHANNELS)
    def test_capacity_grid(self, p00, p10):
        with pytest.raises(ValueError, match="must lie in \\[0, 1\\]"):
            kernels.capacity_grid(p00, p10, 1e-3)

    @pytest.mark.parametrize("p00,p10", BAD_CHANNELS)
    def test_ba_binary(self, p00, p10):
        with pytest.raises(ValueError, match="must lie in \\[0, 1\\]"):
            kernels.ba_binary(p00, p10, 1e-9, 100)

    def test_endpoints_accepted(self):
        assert kernels.capacity_ternary(1.0, 0.0)[0] == pytest.approx(math.log(2), abs=1e-12)
        assert kernels.capacity_grid(0.0, 1.0, 1e-3)[0] == pytest.approx(math.log(2), abs=1e-6)
        assert kernels.ba_binary(1.0, 0.0, 1e-12, 100)[3]
        assert kernels.mi_binary(0.0, 0.0, 0.5) == 0.0


def reference_grid(p00, p10, step):
    """The grid scan as one unblocked numpy expression over all n + 1 points."""
    n = int(1.0 / step + 0.5)
    h0, h1 = kernels._h2(p00), kernels._h2(p10)
    q = np.arange(n + 1) / n
    y0 = q * p00 + (1.0 - q) * p10
    y1 = 1.0 - y0
    np.clip(y0, kernels._TINY, None, out=y0)
    np.clip(y1, kernels._TINY, None, out=y1)
    mi = -y0 * np.log(y0) - y1 * np.log(y1) - q * h0 - (1.0 - q) * h1
    j = int(np.argmax(mi))
    return max(float(mi[j]), 0.0), j / n, n + 1


def corner_channels(rng):
    """The adversarial classes: nearly equal rows, entries within 1e-9 of 0 or 1."""
    a = float(rng.uniform(0.05, 0.95))
    e, f = (float(x) for x in rng.uniform(0, 1e-9, 2))
    return [
        (a, a + float(rng.uniform(-1e-12, 1e-12))),
        (e, a),
        (1.0 - e, a),
        (e, f),
        (1.0 - e, 1.0 - f),
    ]


class TestGridBitIdentity:
    """The blocked scan returns exactly what the unblocked expression does."""

    def assert_identical(self, p00, p10, step):
        got = kernels.capacity_grid(p00, p10, step)
        want = reference_grid(p00, p10, step)
        assert got == want, (p00, p10, step)
        assert math.copysign(1.0, got[0]) == math.copysign(1.0, want[0])

    def test_random_and_corner_channels(self):
        rng = np.random.default_rng(5)
        chans = random_channels(60, seed=5)
        for _ in range(4):
            chans += corner_channels(rng)
        for p00, p10 in chans:
            self.assert_identical(p00, p10, 1e-4)

    def test_fine_grid(self):
        rng = np.random.default_rng(6)
        for p00, p10 in random_channels(2, seed=6) + corner_channels(rng):
            self.assert_identical(p00, p10, 1e-6)

    def test_block_boundaries(self):
        block = kernels._GRID_BLOCK
        # n + 1 points: two, one short of a block, one block, one past it.
        # Rows of all 0 or all 1 tie at every point, across blocks too.
        for n in (1, block - 2, block - 1, block, 3 * block + 5):
            for p00, p10 in random_channels(3, seed=n) + [(0.0, 0.0), (1.0, 1.0)]:
                self.assert_identical(p00, p10, 1.0 / n)

    def test_all_points_tie(self):
        # At step 1 both points of a useless channel give exactly zero
        # information: the lowest q wins and the capacity is +0.0.
        for p in (0.5, 0.25, 0.3, 0.75):
            cap, q, evals = kernels.capacity_grid(p, p, 1.0)
            assert (cap, q, evals) == (0.0, 0.0, 2)
            assert math.copysign(1.0, cap) == 1.0
            self.assert_identical(p, p, 1.0)

