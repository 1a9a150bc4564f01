"""Scalar binary-channel capacity kernels: the oracles for the closed form.

A channel enters as (p00, p10), the probabilities of output 0 under inputs
0 and 1. Every kernel checks both: a value outside [0, 1], or a NaN, raises
ValueError.

The grid scan is a cache-blocked, in-place numpy scan: a few buffers of
_GRID_BLOCK doubles are allocated once per call and reused through out=
ufuncs, so the working set stays in L2. The rest is scalar math.
"""

from __future__ import annotations

import functools
import math

import numpy as np

_GRID_BLOCK = 1 << 14  # 128 KiB per buffer: six buffers stay in L2
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


@_checked
def capacity_grid(p00: float, p10: float, step: float) -> tuple[float, float, int]:
    """Brute-force capacity: scan the input prior on a uniform grid.

    Evaluates the mutual information at q = i/n for n = round(1/step) and
    returns (capacity_nats, q_argmax, evaluations). Ties keep the lowest q.
    """
    if not (0.0 < step <= 1.0):
        raise ValueError(f"step must lie in (0, 1], got {step}")
    n = int(1.0 / step + 0.5)
    h0, h1 = _h2(p00), _h2(p10)
    size = min(_GRID_BLOCK, n + 1)
    offsets = np.arange(size, dtype=float)
    buffers = np.empty((6, size))
    # s = y0 ln y0 + y1 ln y1 + q h0 + (1-q) h1 is exactly -I(q), since
    # -a - b == -(a + b) under round-to-nearest: argmin(s) is argmax(I),
    # with the same ties.
    best_s, best_i = 1.0, 0
    for start in range(0, n + 1, size):
        m = min(size, n + 1 - start)
        q, omq, y0, y1, tmp, s = buffers[:, :m]
        np.add(offsets[:m], start, out=q)
        np.divide(q, n, out=q)
        np.subtract(1.0, q, out=omq)
        np.multiply(q, p00, out=y0)
        np.multiply(omq, p10, out=tmp)
        np.add(y0, tmp, out=y0)
        np.subtract(1.0, y0, out=y1)
        np.maximum(y0, _TINY, out=y0)
        np.maximum(y1, _TINY, out=y1)
        np.log(y0, out=tmp)
        np.multiply(y0, tmp, out=s)
        np.log(y1, out=tmp)
        np.multiply(y1, tmp, out=tmp)
        np.add(s, tmp, out=s)
        np.multiply(q, h0, out=tmp)
        np.add(s, tmp, out=s)
        np.multiply(omq, h1, out=tmp)
        np.add(s, tmp, out=s)
        j = int(np.argmin(s))
        if s[j] < best_s:
            best_s = float(s[j])
            best_i = start + j
    best = -best_s  # -0.0 when s cancels exactly; report +0.0 then
    return (best if best > 0.0 else 0.0), best_i / n, n + 1


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
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
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
