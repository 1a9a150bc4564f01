"""The scalar capacity kernels: known values, validation, and bit identity to reference loops."""

import math
import re
import tracemalloc

import exact
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chancap import kernels, verify

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
        assert evals == 2 * kernels._WINDOW + 1  # the window settles it

    def test_grid_step_validation(self):
        # Steps below 2**-52 would give more than 2**53 grid points; they
        # raise at once instead of scanning for days.
        for step in (0.0, -1e-3, 1.5, math.inf, -math.inf, math.nan, 1e-17, 1e-300, 2**-60):
            message = re.escape(f"step must lie in [2**-52, 1], got {step}")
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
        for tol in (-1.0, 0.0, -0.0, math.nan):
            with pytest.raises(ValueError, match=re.escape(f"tol must be positive, got {tol}")):
                kernels.ba_binary(0.5, 0.4, tol, 100)
        for max_iter in (0, -1, math.nan):
            message = re.escape(f"max_iter must be >= 1, got {max_iter}")
            with pytest.raises(ValueError, match=message):
                kernels.ba_binary(0.5, 0.4, 1e-9, max_iter)


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

    def test_mi_binary_rejects_a_prior_outside_0_1(self):
        # A prior outside [0, 1] is no distribution; a NaN one fails the check too.
        for q in (-0.1, 1.5, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=re.escape(f"q must lie in [0, 1], got {q}")):
                kernels.mi_binary(0.7, 0.3, q)
        for q in (0.0, -0.0, 1.0):
            assert kernels.mi_binary(0.7, 0.3, q) == 0.0

    def test_endpoints_accepted(self):
        assert kernels.capacity_ternary(1.0, 0.0)[0] == pytest.approx(math.log(2), abs=1e-12)
        assert kernels.capacity_grid(0.0, 1.0, 1e-3)[0] == pytest.approx(math.log(2), abs=1e-6)
        assert kernels.ba_binary(1.0, 0.0, 1e-12, 100)[3]
        assert kernels.mi_binary(0.0, 0.0, 0.5) == 0.0


def reference_grid(p00, p10, step):
    """(capacity, q) of the grid scan as one unblocked numpy expression over all n + 1 points."""
    n = int(1.0 / step + 0.5)
    h0, h1 = kernels._h2(p00), kernels._h2(p10)
    q = np.arange(n + 1) / n
    y0 = q * p00 + (1.0 - q) * p10
    y1 = 1.0 - y0
    np.clip(y0, kernels._TINY, None, out=y0)
    np.clip(y1, kernels._TINY, None, out=y1)
    mi = -y0 * np.log(y0) - y1 * np.log(y1) - q * h0 - (1.0 - q) * h1
    j = int(np.argmax(mi))
    return max(float(mi[j]), 0.0), j / n


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

    def test_random_and_corner_channels(self):
        rng = np.random.default_rng(5)
        chans = random_channels(60, seed=5)
        for _ in range(4):
            chans += corner_channels(rng)
        for p00, p10 in chans:
            assert_full_scan_bits(p00, p10, 1e-4)

    def test_fine_grid(self):
        rng = np.random.default_rng(6)
        for p00, p10 in random_channels(2, seed=6) + corner_channels(rng):
            assert_full_scan_bits(p00, p10, 1e-6)

    def test_block_boundaries(self):
        block, edges = kernels._GRID_BLOCK, kernels._GRID_EDGES
        # n around the window's 2 _WINDOW steps and the _GRID_EDGES steps up to which a
        # grid is scanned whole; n + 1 points one short of a block, one block, one past it.
        # Rows of all 0 or all 1 tie at every point, across blocks too.
        for n in (1, 2, 64, 65, edges - 1, edges, edges + 1, block - 2, block - 1, block, 3 * block + 5):
            chans = random_channels(3, seed=n) + corner_channels(np.random.default_rng(n))
            for p00, p10 in chans + [(0.0, 0.0), (1.0, 1.0)]:
                assert_full_scan_bits(p00, p10, 1.0 / n)

    def test_buffers_start_on_a_cache_line(self):
        # Whatever malloc returns, each scan buffer starts on a 64-byte boundary.
        kept = []
        for size in (1, 2, 7, 1000, kernels._GRID_BLOCK):
            for _ in range(8):
                kept.append(np.empty(size % 5 + 1))  # shift the heap between calls
                buffers = kernels._aligned_empty(6, size)
                assert buffers.shape == (6, size)
                assert buffers.ctypes.data % 64 == 0

    def test_all_points_tie(self):
        # At step 1 both points of a useless channel give exactly zero
        # information: the lowest q wins and the capacity is +0.0.
        for p in (0.5, 0.25, 0.3, 0.75):
            cap, q, evals = kernels.capacity_grid(p, p, 1.0)
            assert (cap, q, evals) == (0.0, 0.0, 2)
            assert math.copysign(1.0, cap) == 1.0
            assert_full_scan_bits(p, p, 1.0)


def counted_grid(p00, p10, step):
    """capacity_grid's tuple, and the points its passes hand to _y0, which every evaluation goes through."""
    sizes, y0 = [], kernels._y0
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels, "_y0", lambda idx, *args: sizes.append(idx.size) or y0(idx, *args))
        return kernels.capacity_grid(p00, p10, step), sum(sizes)


def assert_full_scan_bits(p00, p10, step):
    """capacity_grid returns reference_grid's capacity and q, sign of zero included, and counts its evaluations."""
    got, evaluated = counted_grid(p00, p10, step)
    want = reference_grid(p00, p10, step)
    assert got[:2] == want, (p00, p10, step)
    assert math.copysign(1.0, got[0]) == math.copysign(1.0, want[0])
    assert got[2] == evaluated, (p00, p10, step)


_NEAR_0 = st.floats(0.0, 1e-9)
#: Channel entries: anywhere in [0, 1], within 1e-9 of 0 or 1, subnormal,
#: and the exact edges.
GRID_ENTRIES = st.one_of(
    st.floats(0.0, 1.0),
    _NEAR_0,
    _NEAR_0.map(lambda x: 1.0 - x),
    st.floats(0.0, 2.0**-1022),
    st.sampled_from([0.0, 1.0, 5e-324]),
)
#: Rows within 1e-12 of each other, where I(q) is below the rounding noise.
NEAR_EQUAL_ROWS = st.tuples(st.floats(0.0, 1.0), st.floats(-1e-12, 1e-12)).map(
    lambda t: (t[0], min(max(t[0] + t[1], 0.0), 1.0))
)


class TestPrunedScan:
    """The scan skips only points that cannot tie the best, so its bits are the full scan's."""

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(st.tuples(GRID_ENTRIES, GRID_ENTRIES), NEAR_EQUAL_ROWS))
    def test_matches_full_scan(self, chan):
        assert_full_scan_bits(*chan, 1e-5)

    def test_seeded_channels_fine_grid(self):
        rng = np.random.default_rng(12)
        chans = random_channels(12, seed=12) + corner_channels(rng) + corner_channels(rng)
        for p00, p10 in chans + [(0.0, 1.0), (1.0, 0.0), (1.0, 1.0), (5e-324, 0.5)]:
            assert_full_scan_bits(p00, p10, 1e-6)

    def test_evaluates_few_points_unless_flat(self, monkeypatch):
        # Every evaluated point goes through the y0 step, whether its L(y0)
        # is computed or looked up in a table.
        evaluated = []
        y0 = kernels._y0

        def counting(idx, *args):
            evaluated.append((idx.size, idx[0], idx[-1]))
            return y0(idx, *args)

        monkeypatch.setattr(kernels, "_y0", counting)
        kernels.capacity_grid(0.7, 0.3, 1e-6)
        assert len(evaluated) == 1  # the window alone
        assert evaluated[0][0] <= 2 * kernels._WINDOW + 1
        # Too flat for the window to settle: the scan starts at the edges. Rows
        # within 1e-12 prune nothing, as I(q) is below the rounding noise.
        for chan in ((0.3, 0.3), (3e-10, 7e-10), (0.3, 0.3 + 1e-13)):
            evaluated.clear()
            kernels.capacity_grid(*chan, 1e-6)
            size, first, last = evaluated[0]
            assert (first, last) == (0, 10**6) and size > 2 * kernels._WINDOW + 1, chan
            if chan[1] - chan[0] < 1e-12:
                assert sum(e[0] for e in evaluated) > 10**6

    def test_counts_the_points_it_evaluates(self, monkeypatch):
        # The count is what the window, the edges and the block scan were asked for.
        seen = []
        evaluate, scan = kernels._evaluate, kernels._block_scan
        monkeypatch.setattr(kernels, "_evaluate", lambda idx, *a: seen.append(idx.size) or evaluate(idx, *a))
        monkeypatch.setattr(kernels, "_block_scan", lambda lo, hi, *a: seen.append(hi + 1 - lo) or scan(lo, hi, *a))
        chans = random_channels(8, seed=31) + corner_channels(np.random.default_rng(31)) + [(0.0, 1.0), (1.0, 1.0)]
        for chan in chans:
            for step in (1e-6, 1e-3, 1 / 7, 1.0):
                seen.clear()
                assert kernels.capacity_grid(*chan, step)[2] == sum(seen), (chan, step)
        # The window alone; every point of rows within 1e-12, plus the 1,025 edges.
        assert kernels.capacity_grid(0.7, 0.3, 1e-6)[2] == 2 * kernels._WINDOW + 1
        assert kernels.capacity_grid(0.3, 0.3, 1e-6)[2] == 10**6 + 1 + 1025

    def test_scans_a_small_grid_once(self):
        # Up to _GRID_EDGES steps every point would be an edge: the blocks form each point once.
        assert kernels.capacity_grid(0.3, 0.3, 1e-3)[2] == 1001
        assert kernels.capacity_grid(1e-12, 2e-12, 1 / 1024)[2] == 1025

    def test_flat_channel_footprint(self):
        kernels.capacity_grid(0.3, 0.3, 1e-6)  # one-time allocations are not the scan's
        tracemalloc.start()
        try:
            kernels.capacity_grid(0.3, 0.3, 1e-6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # numpy reports its buffers to tracemalloc, so the three scan rows show.
        assert 3 * 8 * kernels._GRID_BLOCK <= peak <= 256 * 1024


#: Start indices on a grid of n + 1 points: its ends and its middle.
FIXED_STARTS = {"0": lambda n: 0, "n": lambda n: n, "n//2": lambda n: n // 2}
#: A fixed start, or any index of the grid.
STARTS = st.one_of(
    st.sampled_from(list(FIXED_STARTS.values())),
    st.floats(0.0, 1.0).map(lambda x: lambda n: int(x * n)),
)


class TestStartIndex:
    """The start index moves only the cost: from any start the scan returns the full scan's bits."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(
            st.tuples(GRID_ENTRIES, GRID_ENTRIES),
            NEAR_EQUAL_ROWS,
            st.sampled_from(verify.ADVERSARIAL_CHANNELS),
        ),
        STARTS,
        st.sampled_from([1e-5, 1 / 7]),
    )
    def test_any_start_gives_full_scan_bits(self, chan, start, step):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kernels, "_stationary_index", lambda p00, p10, h0, h1, n: start(n))
            assert_full_scan_bits(*chan, step)

    @pytest.mark.parametrize("step", [1e-5, 1 / 7])
    @pytest.mark.parametrize("start", list(FIXED_STARTS.values()), ids=list(FIXED_STARTS))
    def test_fixed_starts_on_adversarial_channels(self, monkeypatch, start, step):
        monkeypatch.setattr(kernels, "_stationary_index", lambda p00, p10, h0, h1, n: start(n))
        for p00, p10 in verify.ADVERSARIAL_CHANNELS:
            assert_full_scan_bits(p00, p10, step)

    def test_stationary_index_is_a_grid_index(self):
        n = 10**6
        for p00, p10 in list(verify.ADVERSARIAL_CHANNELS) + [(0.0, 5e-324), (5e-324, 0.0), (0.3, 0.3), (0.7, 0.3)]:
            i = kernels._stationary_index(p00, p10, kernels._h2(p00), kernels._h2(p10), n)
            assert isinstance(i, int) and 0 <= i <= n, (p00, p10, i)
        assert kernels._stationary_index(0.7, 0.3, kernels._h2(0.7), kernels._h2(0.3), n) == n // 2


def scan_values(p00, p10, indices, n):
    """The scan's s(i) at the given indices, with the row entropies it uses."""
    h0, h1 = kernels._h2(p00), kernels._h2(p10)
    idx = np.asarray(indices, dtype=float)
    a, b, s = np.empty((3, idx.size))
    clamp = kernels._needs_clamp(p00, p10)
    return kernels._neg_mi(idx, n, p00, p10, h0, h1, clamp, a, b, s), h0, h1


_TINY = kernels._TINY
#: Channel entries at and one ulp around the bounds of kernels._needs_clamp,
#: lo >= 2 _TINY and hi <= 1 - 2**-50, with the grid's extremes.
CLAMP_EDGES = (
    0.0, 5e-324, _TINY,
    float(np.nextafter(2 * _TINY, 0)), 2 * _TINY, float(np.nextafter(2 * _TINY, 1)),
    float(np.nextafter(1 - 2.0**-50, 0)), 1 - 2.0**-50, float(np.nextafter(1 - 2.0**-50, 1)),
    1 - 2.0**-53, 1.0,
)


class TestClampSkip:
    """Where _needs_clamp is False, the clamps at _TINY would not move a bit of s."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(st.sampled_from(CLAMP_EDGES), st.floats(0.0, 1.0)),
        st.one_of(st.sampled_from(CLAMP_EDGES), st.floats(0.0, 1.0)),
        st.sampled_from([2**12, 7]),
    )
    # lo >= _TINY would not do: at n = 12, (_TINY, _TINY) gives y0 = _TINY - 5e-324 at i = 1.
    @example(_TINY, _TINY, 12)
    @example(0.5, 1.0, 7)  # hi = 1: y1 = 0 at q = 1
    def test_skipped_clamps_keep_every_bit(self, p00, p10, n):
        h0, h1 = kernels._h2(p00), kernels._h2(p10)
        idx = np.arange(n + 1, dtype=float)
        clamp = kernels._needs_clamp(p00, p10)
        got = kernels._neg_mi(idx, n, p00, p10, h0, h1, clamp, *np.empty((3, n + 1)))
        want = kernels._neg_mi(idx, n, p00, p10, h0, h1, True, *np.empty((3, n + 1)))
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), (p00, p10, n)


#: Entries where a table meets zero of either sign, underflow, the clamps and 1.
TABLE_EDGES = (0.0, -0.0, 5e-324, _TINY, 1 - 2.0**-53, 1.0)
#: Rows whose y0 takes few doubles per block: within 1e-12 of each other,
#: each edge entry alone or nudged, and pairs of edge entries.
FLAT_ROWS = st.one_of(
    NEAR_EQUAL_ROWS,
    st.sampled_from(TABLE_EDGES).map(lambda p: (p, p)),
    st.tuples(st.sampled_from(TABLE_EDGES), st.floats(-1e-12, 1e-12)).map(
        lambda t: (t[0], min(max(t[0] + t[1], 0.0), 1.0))
    ),
    st.tuples(st.sampled_from(TABLE_EDGES), st.sampled_from(TABLE_EDGES)),
)


class TestEntropyTable:
    """A block that looks L(y0) up by the bits of y0 keeps the full scan's bits."""

    @settings(max_examples=300, deadline=None)
    @given(FLAT_ROWS, st.booleans(), st.sampled_from([7, 12, 4096]))
    @example((0.3, 0.3 + 1e-13), False, 4096)
    @example((1.0, 1.0), False, 4096)  # y0 = 1 + 2u: the table reaches past 1
    @example((_TINY, _TINY), False, 4096)  # y0 below _TINY: the clamps in the table
    def test_matches_full_scan_and_y0_stays_in_range(self, rows, flip, n):
        p00, p10 = rows[::-1] if flip else rows
        passes = []
        y0 = kernels._y0

        def recording(idx, *args):
            s = y0(idx, *args)
            passes.append((int(idx[0]), int(idx[-1]), s.view(np.int64).copy()))
            return s

        with pytest.MonkeyPatch.context() as patch:
            # Small blocks and tables, so that a scan of 4097 points builds several.
            patch.setattr(kernels, "_GRID_BLOCK", 48)
            patch.setattr(kernels, "_TABLE", 40)
            patch.setattr(kernels, "_y0", recording)
            assert_full_scan_bits(p00, p10, 1.0 / n)
        slack = 2 * (kernels._y0_error(p00, p10) + 2**-1070)
        for first, last, bits in passes:  # window, edges and blocks
            span = kernels._y0_bits(first, last, n, p00, p10, slack)
            if span:
                assert span[0] <= bits.min() and bits.max() <= span[1], (p00, p10, n, first, last)

    @pytest.mark.parametrize("chan", [(0.3, 0.3 + 1e-13), (0.3 + 1e-13, 0.3), (0.7, 0.7)])
    def test_flat_scan_looks_up_every_block(self, monkeypatch, chan):
        # y0 drifts over about 1,800 doubles in the whole scan. A table built
        # in the scan's direction covers it in one or two builds; one built
        # the other way would be left by every block.
        builds, direct = [], []
        table, neg_mi = kernels._y_ln_y_table, kernels._neg_mi
        monkeypatch.setattr(kernels, "_y_ln_y_table", lambda *args: builds.append(args[0]) or table(*args))
        monkeypatch.setattr(kernels, "_neg_mi", lambda idx, *args: direct.append(idx.size) or neg_mi(idx, *args))
        assert_full_scan_bits(*chan, 1e-6)
        assert 1 <= len(builds) <= 2
        assert len(direct) == 1 and direct[0] <= kernels._GRID_EDGES + 1  # the edges alone


class TestGridErrorBound:
    """E bounds the scan's rounding error, and np.log stays within the ulps E assumes."""

    CHANNELS = (
        list(verify.ADVERSARIAL_CHANNELS)
        + [c for seed in range(3) for c in corner_channels(np.random.default_rng(seed))]
        + [(0.0, 1.0), (1.0, 0.0), (0.0, 0.0), (1.0, 1.0), (5e-324, 1.0), (0.7, 0.3)]
    )

    @pytest.mark.parametrize("n", [7, 10**6])
    def test_scan_within_bound(self, n):
        rng = np.random.default_rng(n)
        for p00, p10 in self.CHANNELS:
            i_best = round(kernels.capacity_grid(p00, p10, 1.0 / n)[1] * n)
            near_best = range(max(i_best - 2, 0), min(i_best + 3, n + 1))
            indices = sorted({0, 1, n - 1, n, *near_best, *rng.integers(0, n + 1, 16).tolist()})
            s, h0, h1 = scan_values(p00, p10, indices, n)
            bound = kernels._grid_error_bound(p00, p10)
            for i, got in zip(indices, s.tolist()):
                err = exact.error(got, exact.neg_mi(p00, p10, h0, h1, i, n))
                assert err <= bound, (p00, p10, i, float(err), bound)

    def test_log_within_assumed_ulps(self):
        ys = np.concatenate(
            [
                np.geomspace(kernels._TINY, 1.0, 3000),
                1.0 - np.arange(1, 64) * 2.0**-53,
                1.0 + np.arange(1, 64) * 2.0**-52,
                np.random.default_rng(3).uniform(0.0, 1.0, 500),
            ]
        )
        for y, got in zip(ys.tolist(), np.log(ys).tolist()):
            want = exact.ln(y)
            ulp = float(np.spacing(abs(float(want))))
            assert exact.error(got, want) <= kernels._LOG_ULPS * ulp, y


def reference_ba(p00, p10, tol, max_iter):
    """Blahut-Arimoto as first written: a branch per zero entry and an exp per input."""
    p01, p11 = 1.0 - p00, 1.0 - p10
    lp00 = math.log(p00) if p00 > 0.0 else 0.0
    lp01 = math.log(p01) if p01 > 0.0 else 0.0
    lp10 = math.log(p10) if p10 > 0.0 else 0.0
    lp11 = math.log(p11) if p11 > 0.0 else 0.0
    q0 = q1 = 0.5
    it = 0
    converged = False
    cap = 0.0
    while it < max_iter:
        it += 1
        r0 = q0 * p00 + q1 * p10
        r1 = 1.0 - r0
        lr0 = math.log(r0) if r0 > 0.0 else 0.0
        lr1 = math.log(r1) if r1 > 0.0 else 0.0
        d0 = (p00 * (lp00 - lr0) if p00 > 0.0 else 0.0) + (
            p01 * (lp01 - lr1) if p01 > 0.0 else 0.0
        )
        d1 = (p10 * (lp10 - lr0) if p10 > 0.0 else 0.0) + (
            p11 * (lp11 - lr1) if p11 > 0.0 else 0.0
        )
        il = q0 * d0 + q1 * d1
        iu = max(d0, d1)
        cap = il
        if iu - il < tol:
            converged = True
            break
        w0 = q0 * math.exp(d0 - iu)
        w1 = q1 * math.exp(d1 - iu)
        s = w0 + w1
        q0, q1 = w0 / s, w1 / s
    return max(cap, 0.0), q0, it, converged


SPECIAL_ENTRIES = (0.0, -0.0, 1.0, 5e-324)


class TestBABitIdentity:
    """ba_binary returns exactly what reference_ba does, signs of zero included.

    Each channel runs at every tol with max_iter 1, 2, 5 (mostly the
    exhaustion exit) and 100_000 (mostly the convergence exit).
    """

    def assert_identical(self, chans):
        """Compare on every (tol, max_iter); return the exits taken (converged or not)."""
        exits = set()
        for p00, p10 in chans:
            for tol in (1e-9, 1e-12, 1e-15):
                for max_iter in (1, 2, 5, 100_000):
                    got = kernels.ba_binary(p00, p10, tol, max_iter)
                    want = reference_ba(p00, p10, tol, max_iter)
                    assert got == want, (p00, p10, tol, max_iter)
                    signs = [math.copysign(1.0, x) for x in got[:2] + want[:2]]
                    assert signs[:2] == signs[2:], (p00, p10, tol, max_iter)
                    exits.add(got[3])
        return exits

    def test_random_channels(self):
        assert self.assert_identical(random_channels(200, seed=8)) == {True, False}

    def test_adversarial_channels(self):
        assert self.assert_identical(verify.ADVERSARIAL_CHANNELS) == {True, False}

    def test_zero_one_and_subnormal_entries(self):
        others = SPECIAL_ENTRIES + (1e-300, 0.3, 0.7, 1.0 - 1e-16)
        chans = [(e, o) for e in SPECIAL_ENTRIES for o in others]
        assert self.assert_identical(chans + [(o, e) for e, o in chans]) == {True, False}

    def test_equal_rows(self):
        # Equal rows give d0 == d1: the tie branch, and convergence at once.
        chans = [(p, p) for p in SPECIAL_ENTRIES + (1e-300, 0.25, 0.5, 0.9)]
        assert self.assert_identical(chans) == {True}
