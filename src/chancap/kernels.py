"""Scalar binary-channel capacity kernels: the oracles for the closed form.

A channel enters as (p00, p10), the probabilities of output 0 under inputs
0 and 1. Every kernel checks both: a value outside [0, 1], or a NaN, raises
ValueError. Blahut-Arimoto is a plain loop over Python floats with two
math.log calls and one math.exp per iteration: the side with the larger
divergence keeps its prior as its weight, since exp(0) = 1.

The pruned grid scan
--------------------
capacity_grid returns the first argmin of s(i), i = 0..n, the computed
value of

    f(q) = y0 ln y0 + y1 ln y1 + q h0 + (1 - q) h1 = -I(q)

at q = i/n, with y0 = q p00 + (1 - q) p10, y1 = 1 - y0, 0 ln 0 = 0, and the
computed row entropies h0, h1 as constants. f is convex in q whatever h0
and h1 are, because y0 is affine in q and y ln y is convex; this is the
concavity of I in the prior (Cover & Thomas, Thm 2.7.4).

Let E bound |s(i) - f(i/n)| for every i. Take any grid point k, and on
each side of k either a point e with s(e) > s(k) + 2E or the grid's end.
Nothing beyond such an e can tie s(k): s(e) > s(k) + 2E gives f(e) > f(k),
so by convexity f(j) > f(e) for every j beyond e, and

    s(j) >= f(j) - E > f(e) - E >= s(e) - 2E > s(k).

So if k is the first argmin over the points between the two, it is the
full scan's, bits included. The scan uses this with two choices of k:

1. The window. s is evaluated on the 2 _WINDOW + 1 points around the index
   nearest the stationary prior, where I'(q) = 0 in closed form, and k is
   the window's first argmin. If both ends of the window clear s(k) + 2E,
   or lie at the grid's ends, k is the answer. The stationary prior only
   says where to look: a start anywhere gives the same bits. Over _WINDOW
   steps f rises by about r = (p00 - p10)**2 (_WINDOW/n)**2 / (2 y0 y1),
   from f'' = (p00 - p10)**2 / (y0 y1) at the start. A window short of
   the whole grid is skipped where r < E: as the rounding errors are far
   below E, it settles only where r exceeds about 2E (none of 9,072
   sampled channels with r < E, 19,306 of 19,317 with r > 2E).
2. The edges, above _GRID_EDGES steps, if either end falls short or the
   window is skipped (a smaller grid is scanned whole). s is evaluated at
   about _GRID_EDGES evenly spaced edges, k is the first with the least s,
   and walking out from k the scan stops on each side at the first edge
   that clears s(k) + 2E; it scans the range between the two, in blocks.

Window, edges and blocks go through one ufunc sequence (_neg_mi), so a
point gets the same double in any of them. It has three steps: _y0 forms
y0 from q; _y_ln_y forms L(y0) = y0 ln y0 + y1 ln y1, with y1 = 1 - y0 and
the _TINY clamps; _add_row_entropies adds q h0 and then (1 - q) h1. Each
pass hands it a row of grid indices i, exact integers in doubles as every
index is below 2**53, and q is formed as i / n. Rows within about 1e-12
of each other prune nothing: their I(q) is below the rounding noise, and
every point is scanned, most of it by the table step below.

The bound E comes from a forward error analysis of _neg_mi, with
u = 2**-53, every +, -, *, / correctly rounded, max exact, products that
underflow off by at most 2**-1075, and np.log within _LOG_ULPS = 4 ulps of
ln, that is within 8u |ln y| (ulp(x) <= 2u|x|). With lo = min(p00, p10),
hi = max(p00, p10), m0 = lo <= y0 and m1 = 1 - hi <= y1:

1. q is off by u q and 1 - q by u (1 + u). The computed y0 is off by at
   most u (3 y0 + q p10) plus O(u**2), so by d0 = 1.01 u (3 hi + p10), and
   y1 = 1 - y0 by d1 = 1.01 (d0 + u (1 - lo)). Clamping at _TINY adds at
   most _TINY to an error, as the exact y is at least 0: d0 carries 2 _TINY,
   which d1 inherits. The clamps run only where a y can fall below _TINY.
   If lo >= 2 _TINY, the larger of q and the computed 1 - q is at least
   1/2, so one product, and with it y0, is at least _TINY. If
   hi <= 1 - 2**-50 = 1 - 8u, then y0 <= (1 + u)**3 (1 - 8u) < 1, as the
   computed q and 1 - q sum to at most 1 + u; so y0 <= 1 - u and
   y1 = 1 - y0 >= u. Under both conditions each clamp leaves its row as
   it is, and _neg_mi skips the two.
2. If |y - y'| <= d and y >= m, then |y ln y - y' ln y'| <= spread(d, m) =
   d (|ln max(m - d, d)| + 2): integrate |ln t| + 1 over an interval of
   length d, which lies above m - d or, near 0, is worst at [0, d]. This
   is the dominant term, (|ln y| + 1) times the error of y; it peaks where
   y1 is small, with both rows near 1.
3. The log and the product y ln y add (2 L + 1) u y |ln y| <= (2 L + 1) u / e
   for each of y0 and y1, L = _LOG_ULPS.
4. The three sums and the products q h0 and (1 - q) h1 add at most
   (6/e + 4 h0 + 3 h1) u <= (6/e + 4.9) u: each partial sum is below
   2/e + h0 + h1 in size, and h0, h1 <= ln 2 < 0.7.
5. One more u covers rounding the threshold s(k) + 2E, which is below 1 in
   size: the rounded threshold still exceeds s(k) plus twice the bound
   of steps 1-4.

So E = 1.01 (spread(d0, m0) + spread(d1, m1) + ((4 L + 8)/e + 5.9) u); the
factor 1.01 covers the O(u**2) terms, the underflows and the rounding in
evaluating E. n does not enter, as each step holds for every q in [0, 1].
E is 18-78u over 2,000 uniform random channels, and at most 358u, at
(0, 1). Against a 60-digit decimal evaluation of f, the measured error
reaches 34u on the adversarial channels of verify, under 0.28 E.

The table step
--------------
L depends on y0 alone, and where the rows are close y0 takes few doubles:
rows 1e-12 apart move y0 by about 7e-15 over a block of the 1e-6 grid,
some 70 doubles near 1/2. There _block_scan looks L up instead of taking
two logs per point. A table holds L at the _TABLE doubles whose int64
bits are base, base + 1, ..., computed by _y_ln_y itself, clamps included,
so each entry has the bits the direct step gives; a y0 is looked up at
its bits minus base. The bits of positive doubles ascend with their values.

A block uses a table only where it is proven to hold every y0 the block
computes, decided from the input alone. Let y_a and y_b be the computed
y0 at the block's first and last index, evaluated in Python floats with
the same correctly rounded operations, and d = _y0_error + 2**-1070
= 1.01 u (3 hi + p10) + 2**-1070, the bound of step 1 above without the
clamp, plus an underflow term: each of the two products is off by at
most 2**-1075 beyond its relative bound,
and d by as much again where it is evaluated. The sum is exact unless d is
above about 2**-1019, where its 0.01 alone exceeds both. The exact y0 is
affine in the index, so it lies between its values at the two ends, each
within d of y_a or y_b, and the computed y0 is within d of the exact one.
So every computed y0 lies in [min(y_a, y_b) - 2d, max(y_a, y_b) + 2d],
and also between those bounds rounded to doubles, as rounding to nearest
never passes the nearest double. A block looks up only where the rounded
lower bound is positive and the bounds are fewer than _TABLE doubles
apart: a range through 0 or -0.0 stays direct, and so do the both-near
corners, whose y0 moves over far more doubles. A block that leaves the
table gets a new one, which starts at its low end where y0 rises with the
index (p00 >= p10) and ends at its high end otherwise, so that it covers
the blocks to come. The table is not capped at 1, as at hi = 1 a y0 of
1 + 2u occurs. Entries past 1 without the clamps, or at y0 <= 0, may be
NaN; no block looks them up. A table costs _TABLE evaluations of L, so a
range of fewer points, or one whose y0 drifts over more than 2 u hi
_TABLE per block, stays direct. A looked-up point takes 12 ufunc passes
instead of 17.

Each pass gets three rows of scratch, on a 64-byte boundary and reused
through out= ufuncs, plus its row of indices, sized to the points it
evaluates: 2 _WINDOW + 1 for the window, the edges, and at most _GRID_BLOCK
for a block. The block scan keeps one index row and adds the block size to
it in place, which is exact below 2**53, and builds its tables in two of
its scratch rows. The window's and the edges' buffers are freed before the
blocks', so a call, table included, stays under 256 KiB.
"""

from __future__ import annotations

import functools
import math
import struct

import numpy as np

_GRID_BLOCK = 7424  # four rows of 58 KiB, three of scratch and one of indices, and the table: under 256 KiB
_TABLE = 2048  # entries of the table of L(y0) in a flat block scan
_GRID_EDGES = 1024
_WINDOW = 32  # the first pass evaluates 2 _WINDOW + 1 points around the stationary prior
_U = 2.0**-53  # unit roundoff of a double
_LOG_ULPS = 4  # assumed error bound of np.log, in ulps of its result
_TERNARY_WIDTH = 1e-8
_POLISH_HALFWIDTH = 1e-4
_POLISH_WIDTH = 1e-13
_TINY = np.finfo(float).tiny


def _checked(kernel):
    @functools.wraps(kernel)
    def call(p00, p10, *args):
        # Positive condition, so that a NaN fails it.
        if not (0.0 <= p00 <= 1.0 and 0.0 <= p10 <= 1.0):
            raise ValueError(f"channel entries must lie in [0, 1], got p00={p00}, p10={p10}")
        return kernel(p00, p10, *args)

    return call


def _h2(p: float) -> float:
    h = 0.0
    if p > 0.0:
        h -= p * math.log(p)
    if p < 1.0:
        h -= (1.0 - p) * math.log(1.0 - p)
    return h


def _mi(p00: float, p10: float, h0: float, h1: float, q: float) -> float:
    y0 = q * p00 + (1.0 - q) * p10
    y1 = 1.0 - y0
    hy = 0.0
    if y0 > 0.0:
        hy -= y0 * math.log(y0)
    if y1 > 0.0:
        hy -= y1 * math.log(y1)
    return hy - q * h0 - (1.0 - q) * h1


def _mi_slope(p00: float, p10: float, h0: float, h1: float, q: float) -> float:
    y0 = max(q * p00 + (1.0 - q) * p10, _TINY)
    y1 = max(1.0 - y0, _TINY)
    return (p00 - p10) * math.log(y1 / y0) - (h0 - h1)


@_checked
def mi_binary(p00: float, p10: float, q: float) -> float:
    """I(X;Y) in nats for input distribution (q, 1-q)."""
    if not 0.0 <= q <= 1.0:  # positive, so that a NaN fails it
        raise ValueError(f"q must lie in [0, 1], got {q}")
    return _mi(p00, p10, _h2(p00), _h2(p10), q)


@_checked
def capacity_ternary(p00: float, p10: float) -> tuple[float, float, int]:
    """Maximize the mutual information over the input prior.

    Ternary search on the concave objective down to the width where value
    comparisons drown in rounding noise, then bisection on the sign of the
    derivative to pin the optimizer. Returns (capacity_nats, q, iterations).
    """
    h0, h1 = _h2(p00), _h2(p10)
    if p00 == p10:
        return 0.0, 0.5, 0

    lo, hi = 0.0, 1.0
    iters = 0
    while hi - lo > _TERNARY_WIDTH:
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        f1 = _mi(p00, p10, h0, h1, m1)
        f2 = _mi(p00, p10, h0, h1, m2)
        iters += 1
        if f1 < f2:
            lo = m1
        elif f1 > f2:
            hi = m2
        else:
            lo, hi = m1, m2

    mid = 0.5 * (lo + hi)
    blo = max(mid - _POLISH_HALFWIDTH, 1e-15)
    bhi = min(mid + _POLISH_HALFWIDTH, 1.0 - 1e-15)
    if not (_mi_slope(p00, p10, h0, h1, blo) > 0.0 > _mi_slope(p00, p10, h0, h1, bhi)):
        blo, bhi = 1e-15, 1.0 - 1e-15
    while bhi - blo > _POLISH_WIDTH:
        mid = 0.5 * (blo + bhi)
        iters += 1
        if _mi_slope(p00, p10, h0, h1, mid) > 0.0:
            blo = mid
        else:
            bhi = mid
    mid = 0.5 * (blo + bhi)

    return max(_mi(p00, p10, h0, h1, mid), 0.0), mid, iters


def _aligned_empty(rows: int, size: int) -> np.ndarray:
    """np.empty((rows, size)) whose data starts on a 64-byte boundary.

    On an Intel Xeon the scan ran 8-18% slower on buffers 16, 32 or 48
    bytes off a cache line, so with malloc's alignment alone its speed
    depended on the heap state that unrelated code left behind.
    """
    raw = np.empty(rows * size + 8)
    start = (-raw.ctypes.data % 64) // 8
    return raw[start : start + rows * size].reshape(rows, size)


def _y0_error(p00: float, p10: float) -> float:
    """d = 1.01 u (3 max(p00, p10) + p10): a bound on the error of a computed y0 (error analysis, step 1)."""
    return 1.01 * _U * (3.0 * max(p00, p10) + p10)


def _grid_error_bound(p00: float, p10: float) -> float:
    """E: a bound on |s(i) - f(i/n)| over the whole grid, derived in the module docstring."""
    lo, hi = min(p00, p10), max(p00, p10)
    d0 = _y0_error(p00, p10) + 2.0 * _TINY
    d1 = 1.01 * (d0 + _U * (1.0 - lo))
    spread = d0 * (abs(math.log(max(lo - d0, d0))) + 2.0)
    spread += d1 * (abs(math.log(max(1.0 - hi - d1, d1))) + 2.0)
    return 1.01 * (spread + ((4 * _LOG_ULPS + 8) / math.e + 5.9) * _U)


def _needs_clamp(p00: float, p10: float) -> bool:
    """Whether a grid y may fall below _TINY; if not, the clamps are idle (error analysis, step 1)."""
    return not (min(p00, p10) >= 2.0 * _TINY and max(p00, p10) <= 1.0 - 2.0**-50)


def _y0(idx, n, p00, p10, a, b, s):
    """s = y0 = q p00 + (1 - q) p10 at q = idx / n; a is left holding q and b is scratch."""
    np.divide(idx, n, out=a)  # q
    np.subtract(1.0, a, out=b)  # 1 - q
    np.multiply(a, p00, out=s)
    np.multiply(b, p10, out=b)
    np.add(s, b, out=s)
    return s


def _y_ln_y(s, clamp, a, b):
    """s = L(y0) = y0 ln y0 + y1 ln y1, y1 = 1 - y0, from y0 in s; a and b are scratch.

    clamp is _needs_clamp(p00, p10): where it is False, the clamps at _TINY
    would change nothing.
    """
    np.subtract(1.0, s, out=b)  # y1
    if clamp:
        np.maximum(s, _TINY, out=s)
        np.maximum(b, _TINY, out=b)
    np.log(s, out=a)
    np.multiply(s, a, out=s)
    np.log(b, out=a)
    np.multiply(b, a, out=b)
    np.add(s, b, out=s)
    return s


def _add_row_entropies(s, a, h0, h1, b):
    """s += q h0, then s += (1 - q) h1, from q in a; a and b are overwritten."""
    np.multiply(a, h0, out=b)
    np.add(s, b, out=s)
    np.subtract(1.0, a, out=a)
    np.multiply(a, h1, out=a)
    np.add(s, a, out=s)
    return s


def _neg_mi(idx, n, p00, p10, h0, h1, clamp, a, b, s):
    """s = -I(q) at q = idx / n, written into s; a and b are scratch.

    The one ufunc sequence of the grid scan, so a grid point gets the same
    bits wherever it is evaluated: y0, then L(y0), then the row entropies.
    The logs take a's row, so q is formed again for the last step.
    """
    _y_ln_y(_y0(idx, n, p00, p10, a, b, s), clamp, a, b)
    np.divide(idx, n, out=a)  # q again
    return _add_row_entropies(s, a, h0, h1, b)


def _stationary_index(p00: float, p10: float, h0: float, h1: float, n: int) -> int:
    """The grid index nearest the stationary prior of I(q), where the scan starts.

    I'(q) = (p00 - p10) ln(y1/y0) - (h0 - h1) vanishes at y0 = 1/(1 + e**c),
    c = (h0 - h1)/(p00 - p10). Only the scan's cost depends on this index.
    """
    if p00 == p10:
        return n // 2
    c = (h0 - h1) / (p00 - p10)
    if c >= 0.0:
        e = math.exp(-c)
        y0 = e / (1.0 + e)
    else:
        y0 = 1.0 / (1.0 + math.exp(c))
    q = (y0 - p10) / (p00 - p10)
    if not q > 0.0:  # a NaN starts at 0 too
        return 0
    return int(q * n + 0.5) if q < 1.0 else n


def _evaluate(idx, n, p00, p10, h0, h1, clamp):
    """s at the indices idx, in aligned buffers sized to idx."""
    a, b, s = _aligned_empty(3, idx.size)
    return _neg_mi(idx, n, p00, p10, h0, h1, clamp, a, b, s)


def _edge_range(n, p00, p10, h0, h1, clamp, reach):
    """The indices lo..hi between the stopping edges around the best of about _GRID_EDGES edges, and their count."""
    if n <= _GRID_EDGES:  # an edge at every point: the whole grid, with no edges evaluated
        return 0, n, 0
    width = -(-n // _GRID_EDGES)  # edges at 0, width, 2 width, ..., and n
    edges = np.arange(-(-n // width) + 1, dtype=float) * width
    np.minimum(edges, n, out=edges)
    at_edges = _evaluate(edges, n, p00, p10, h0, h1, clamp)
    k = int(at_edges.argmin())
    above = at_edges > at_edges[k] + reach
    right = int(above[k:].argmax())  # 0: no edge to the right rises above
    left = int(above[k::-1].argmax())
    lo = (k - left) * width if left else 0
    hi = min((k + right) * width, n) if right else n
    return lo, hi, edges.size


def _y0_bits(first, last, n, p00, p10, slack):
    """(low, high): int64 bits of two doubles that bound every computed y0 at first..last.

    None unless the lower bound is positive, where the bits of doubles are
    in the order of their values.
    """
    ends = [i / n * p00 + (1.0 - i / n) * p10 for i in (first, last)]
    low, high = min(ends) - slack, max(ends) + slack
    if not low > 0.0:
        return None
    return struct.unpack("<2q", struct.pack("<2d", low, high))


def _y_ln_y_table(base, clamp, a, b):
    """L(y0) at the _TABLE doubles whose bits are base, base + 1, ...; a and b are scratch."""
    table = np.arange(base, base + _TABLE, dtype=np.int64).view(float)
    # Entries past y0 = 1 unclamped, or at y0 <= 0, give NaN; no block looks them up.
    with np.errstate(all="ignore"):
        return _y_ln_y(table, clamp, a[:_TABLE], b[:_TABLE])


def _block_scan(lo, hi, n, p00, p10, h0, h1, clamp):
    """(s, i) of the first argmin of s over lo..hi, in blocks of at most _GRID_BLOCK points.

    Where a block's y0 can take fewer than _TABLE doubles, L(y0) is looked
    up by the bits of y0 in a table, built in the scan's direction.
    """
    size = min(_GRID_BLOCK, hi + 1 - lo)
    idx = np.arange(lo, lo + size, dtype=float)
    a, b, s = _aligned_empty(3, size)
    ta, tb = a, b  # the table's scratch, whole rows even in a short last block
    slack = 2.0 * (_y0_error(p00, p10) + 2.0**-1070)  # 2 d, underflow included (module docstring)
    # A block's y0 spans about |p00 - p10| (size - 1) / n, and _TABLE
    # doubles below hi span at most 2 u hi _TABLE.
    flat = size >= _TABLE and abs(p00 - p10) * (size - 1) < 2.0 * _U * _TABLE * max(p00, p10) * n
    table, base = None, 0
    best_s, best_i = 1.0, 0
    for start in range(lo, hi + 1, size):
        m = hi + 1 - start
        if m < size:  # the last block is short
            idx, a, b, s = idx[:m], a[:m], b[:m], s[:m]
        span = flat and _y0_bits(start, min(start + size - 1, hi), n, p00, p10, slack)
        if span and span[1] - span[0] < _TABLE:
            low, high = span
            if table is None or low < base or high >= base + _TABLE:
                table = None  # free the old table before the new one is built
                base = low if p00 >= p10 else high - _TABLE + 1
                table = _y_ln_y_table(base, clamp, ta, tb)
            _y0(idx, n, p00, p10, a, b, s)
            k = b.view(np.int64)
            np.subtract(s.view(np.int64), base, out=k)
            # "clip" writes straight into s (the default buffers); the bound keeps k in range.
            np.take(table, k, out=s, mode="clip")
            block = _add_row_entropies(s, a, h0, h1, b)
        else:
            block = _neg_mi(idx, n, p00, p10, h0, h1, clamp, a, b, s)
        j = int(block.argmin())
        if block[j] < best_s:
            best_s = float(block[j])
            best_i = start + j
        idx += size
    return best_s, best_i


@_checked
def capacity_grid(p00: float, p10: float, step: float) -> tuple[float, float, int]:
    """Brute-force capacity: the best input prior on a uniform grid.

    Finds the maximum of the mutual information over q = i/n, i = 0..n,
    for n = round(1/step), and returns (capacity_nats, q_argmax, evaluations).
    Ties keep the lowest q. The result is exactly the full scan's over all
    n + 1 points. Only a window around the stationary prior is evaluated
    when its ends prove that no point outside it can tie its best, and
    otherwise, or where I is too flat for the window to prove that, only
    the points between the stopping edges (see the module docstring).
    evaluations counts the points of the window, the edges and the blocks,
    looked up or not, at which s was formed.
    step must lie in [2**-52, 1], so that n + 1 <= 2**53 and every index
    is exact in a double.
    """
    if not (2.0**-52 <= step <= 1.0):
        raise ValueError(f"step must lie in [2**-52, 1], got {step}")
    n = int(1.0 / step + 0.5)
    h0, h1 = _h2(p00), _h2(p10)
    # s = y0 ln y0 + y1 ln y1 + q h0 + (1-q) h1 is exactly -I(q), since
    # -x - y == -(x + y) under round-to-nearest: argmin(s) is argmax(I),
    # with the same ties.
    reach = 2.0 * _grid_error_bound(p00, p10)
    clamp = _needs_clamp(p00, p10)
    i = _stationary_index(p00, p10, h0, h1, n)
    q = i / n
    y0 = q * p00 + (1.0 - q) * p10
    d = (p00 - p10) * _WINDOW / n
    found, evals = None, 0
    # A window short of the grid is skipped where f rises by less than E
    # over it: d**2 / (2 y0 y1) < reach / 2 (see the window in the module docstring).
    if n <= 2 * _WINDOW or d * d >= reach * y0 * (1.0 - y0):
        lo = min(max(i - _WINDOW, 0), max(n - 2 * _WINDOW, 0))
        hi = min(lo + 2 * _WINDOW, n)
        window = _evaluate(np.arange(lo, hi + 1, dtype=float), n, p00, p10, h0, h1, clamp)
        evals = window.size
        k = int(window.argmin())
        rise = window[k] + reach
        if (lo == 0 or window[0] > rise) and (hi == n or window[-1] > rise):
            found = float(window[k]), lo + k
        del window  # its buffers are not needed in the block scan
    if found is None:
        lo, hi, edges = _edge_range(n, p00, p10, h0, h1, clamp, reach)
        found = _block_scan(lo, hi, n, p00, p10, h0, h1, clamp)
        evals += edges + hi + 1 - lo
    best_s, best_i = found
    best = -best_s  # -0.0 when s cancels exactly; report +0.0 then
    return (best if best > 0.0 else 0.0), best_i / n, evals


@_checked
def ba_binary(
    p00: float, p10: float, tol: float, max_iter: int
) -> tuple[float, float, int, bool]:
    """Alternating-maximization capacity of a 2x2 channel.

    Iterates the multiplicative prior update and stops once the standard
    capacity bounds pinch to within tol: max_x D_x - sum_x q_x D_x < tol
    with D_x = KL(p(.|x) || output marginal). Returns
    (capacity_nats, q, iterations, converged); capacity is the lower bound.
    """
    # Positive conditions, so that a NaN fails them.
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    if not max_iter >= 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    log, exp = math.log, math.exp
    p01, p11 = 1.0 - p00, 1.0 - p10
    lp00 = log(p00) if p00 > 0.0 else 0.0
    lp01 = log(p01) if p01 > 0.0 else 0.0
    lp10 = log(p10) if p10 > 0.0 else 0.0
    lp11 = log(p11) if p11 > 0.0 else 0.0
    q0 = q1 = 0.5
    it = 0
    converged = False
    while it < max_iter:
        it += 1
        r0 = q0 * p00 + q1 * p10
        r1 = 1.0 - r0
        lr0 = log(r0) if r0 > 0.0 else 0.0
        lr1 = log(r1) if r1 > 0.0 else 0.0
        # A zero entry p adds p * (lp - lr) = +-0.0 (lp = 0, lr <= 0), which
        # leaves the sum as it is: no branch needed.
        d0 = p00 * (lp00 - lr0) + p01 * (lp01 - lr1)
        d1 = p10 * (lp10 - lr0) + p11 * (lp11 - lr1)
        cap = q0 * d0 + q1 * d1
        # The larger D (d0 on a tie) bounds the capacity from above. Its
        # weight is exp(0) = 1 times its prior, so only the other side
        # needs an exp.
        if d1 > d0:
            if d1 - cap < tol:
                converged = True
                break
            q0 *= exp(d0 - d1)
        else:
            if d0 - cap < tol:
                converged = True
                break
            q1 *= exp(d1 - d0)
        s = q0 + q1
        q0, q1 = q0 / s, q1 / s
    return max(cap, 0.0), q0, it, converged
