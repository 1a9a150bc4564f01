"""Entropy and capacity solvers for the binary (2x2) channel.

Every channel is a twolevel.BinaryChannel, the one validated 2x2 channel
type: the two-level system induces no other. Its mutual information at a
prior is kernels.mi_binary. Everything is computed internally in nats;
``base="bits"`` converts at the boundary by 1/ln(2). Four independent
routes to binary-channel capacity cross-check each other:

- the closed form of Muroga (1953) and Silverman (1955): the primary
  solver, array-valued over a stack of channels (two_level_capacities) and
  on floats for one channel (capacity_binary, two_level_capacity), with the
  same bits;
- ternary search on the concave I(q) (kernels.capacity_ternary);
- alternating maximization (blahut_arimoto, over kernels.ba_binary);
- an exhaustive scan of the prior (capacity_grid, over kernels.capacity_grid).

The last three are the scalar kernels of ``kernels``; they stay as oracles
for the closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from . import kernels
from .twolevel import (
    BinaryChannel,
    PrepBias,
    TwoLevelHamiltonian,
    channel_at,
    channel_matrices,
    stochastic_rows,
)
from .units import Constants

__all__ = [
    "CapacityResult",
    "shannon_entropy",
    "capacity_binary",
    "capacity_grid",
    "blahut_arimoto",
    "two_level_capacity",
    "two_level_capacities",
]

Base = Literal["nats", "bits"]

_LN2 = math.log(2.0)


def _base_factor(base: Base) -> float:
    if base == "nats":
        return 1.0
    if base == "bits":
        return 1.0 / _LN2
    raise ValueError(f"base must be 'nats' or 'bits', got {base!r}")


#: An alias, not a second channel type. The benchmark's solver-agreement
#: workload (perfbench/workloads.py) builds infotheory.DMC(matrix=m), and the
#: benchmark is kept fixed so that its runs compare across commits.
DMC = BinaryChannel


@dataclass(frozen=True)
class CapacityResult:
    """Capacity value with the achieving prior q of input 0 and solver stats."""

    capacity: float
    q: float
    iterations: int
    converged: bool
    base: Base


def shannon_entropy(p, base: Base = "nats") -> float:
    """-sum p_i log p_i of a probability vector, with the 0 log 0 = 0 convention."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 1:
        raise ValueError(f"expected a probability vector, got shape {p.shape}")
    p = stochastic_rows(p)
    nz = p[p > 0]
    return float(-(nz * np.log(nz)).sum()) * _base_factor(base)


def _log0(x: np.ndarray) -> np.ndarray:
    """ln x, with 0 in place of ln 0, so that 0 ln 0 = 0."""
    return np.log(x, out=np.zeros_like(x), where=x > 0.0)


def _xlogx_slope(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Divided difference (x ln x - y ln y) / (x - y) of entries in [0, 1], elementwise.

    With lo <= hi the two entries: where lo >= hi/2, lo = hi (1 - u) with
    u = (hi - lo)/hi <= 1/2, and the quotient is ln hi - (lo/hi) ln(1-u)/u,
    free of cancellation (ln hi + 1 where the entries are equal). Elsewhere
    hi - lo >= hi/2, and the direct quotient is stable.
    """
    lo, hi = np.minimum(x, y), np.maximum(x, y)
    log_hi = _log0(hi)
    near = lo + lo >= hi
    # Safe stand-ins keep the branch np.where discards free of 0/0 and ln 0.
    safe_hi = np.where(hi > 0.0, hi, 1.0)
    u = (hi - lo) / safe_hi
    safe_u = np.where(near & (u > 0.0), u, 0.5)
    log1p_ratio = np.where(u > 0.0, np.log1p(-safe_u) / safe_u, -1.0)
    near_slope = log_hi - (lo / safe_hi) * log1p_ratio
    direct_slope = (hi * log_hi - lo * _log0(lo)) / np.where(near, 1.0, hi - lo)
    return np.where(near, near_slope, direct_slope)


def _binary_capacity(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Capacity in nats, and optimal prior q* of input 0, of channels with rows (a, 1-a), (b, 1-b).

    a and b are 1-D float arrays with entries in [0, 1]. The closed form of
    Muroga (1953) and Silverman (1955): with D = (h(a) - h(b))/(a - b),

        C = -h(b) + log(exp(-(1-b) D) + exp(b D)),  q* = (sigma(-D) - b)/(a - b),

    the output marginal sigma(-D) = 1/(1 + exp(D)) being optimal. D is the
    difference of two divided differences of x ln x, one per output, each
    taken stably. Equal rows give C = 0 and q* = 1/2. One channel is solved
    by the float twin _channel_capacity, with the same bits; the test
    TestClosedForm::test_float_twin_matches_the_array_path pins the two.
    """
    ca, cb = 1.0 - a, 1.0 - b
    slopes = _xlogx_slope(np.stack([ca, a]), np.stack([cb, b]))
    d = slopes[0] - slopes[1]
    h_b = -(b * _log0(b) + cb * _log0(cb))
    # log-sum-exp of -(1-b) D and b D, whose difference is |D|
    e = np.exp(-np.abs(d))
    cap = -h_b + np.maximum(-cb * d, b * d) + np.log1p(e)
    y0 = np.where(d > 0.0, e / (1.0 + e), 1.0 / (1.0 + e))
    same = a == b
    q = np.clip((y0 - b) / np.where(same, 1.0, a - b), 0.0, 1.0)
    # Rows a few ulps apart leave cap at -2e-16 or so.
    return np.where(same, 0.0, np.maximum(cap, 0.0)), np.where(same, 0.5, q)


def _log0_float(x: float) -> float:
    """_log0 of one float, through numpy's log loop: math.log differs from it in the last bit."""
    return float(np.log(x)) if x > 0.0 else 0.0


def _xlogx_slope_float(x: float, y: float) -> float:
    """_xlogx_slope of two floats, the larger of them positive.

    Each np.where is an if on the branch it keeps. As hi > 0, the stand-in
    safe_hi would be hi itself, so it is left out.
    """
    # np.minimum and np.maximum give their second operand on a tie.
    lo, hi = (x if x < y else y), (x if x > y else y)
    log_hi = float(np.log(hi))
    if lo + lo >= hi:
        u = (hi - lo) / hi
        log1p_ratio = float(np.log1p(-u)) / u if u > 0.0 else -1.0
        return log_hi - (lo / hi) * log1p_ratio
    return (hi * log_hi - lo * _log0_float(lo)) / (hi - lo)


def _channel_capacity(a: float, b: float) -> tuple[float, float]:
    """_binary_capacity of one channel, on Python floats, with the same bits.

    The same expressions run in the same order. Float arithmetic is IEEE, as
    numpy's elementwise loops are; logarithms and exponentials go through
    numpy, whose loops give other bits than math's. The ties of np.maximum
    and np.clip are numpy's, signed zeros included.
    """
    if a == b:
        return 0.0, 0.5
    # Unequal rows: one of a, b and one of 1-a, 1-b is positive.
    ca, cb = 1.0 - a, 1.0 - b
    d = _xlogx_slope_float(ca, cb) - _xlogx_slope_float(a, b)
    h_b = -(b * _log0_float(b) + cb * _log0_float(cb))
    e = float(np.exp(-abs(d)))
    t0, t1 = -cb * d, b * d
    cap = -h_b + (t0 if t0 > t1 else t1) + float(np.log1p(e))
    y0 = e / (1.0 + e) if d > 0.0 else 1.0 / (1.0 + e)
    q = (y0 - b) / (a - b)
    # np.clip keeps q on a tie with a bound: -0.0 stays -0.0.
    q = 0.0 if q < 0.0 else 1.0 if q > 1.0 else q
    return (cap if cap > 0.0 else 0.0), q


def capacity_binary(ch: BinaryChannel, base: Base = "nats") -> CapacityResult:
    """Capacity of a binary channel from the Muroga-Silverman closed form.

    The optimizer q (probability of input 0) comes from the same closed
    form, so iterations is 0; channels with coinciding rows report q = 1/2.
    """
    factor = _base_factor(base)
    cap, q = _channel_capacity(float(ch.matrix[0, 0]), float(ch.matrix[1, 0]))
    return CapacityResult(
        capacity=cap * factor,
        q=q,
        iterations=0,
        converged=True,
        base=base,
    )


def capacity_grid(ch: BinaryChannel, step: float = 1e-6, base: Base = "nats") -> CapacityResult:
    """Brute-force capacity of a binary channel: a scan of the prior; iterations counts the points it evaluated."""
    factor = _base_factor(base)
    cap, q, evals = kernels.capacity_grid(float(ch.matrix[0, 0]), float(ch.matrix[1, 0]), step)
    return CapacityResult(
        capacity=cap * factor,
        q=q,
        iterations=evals,
        converged=True,
        base=base,
    )


def blahut_arimoto(
    ch: BinaryChannel,
    tol: float = 1e-12,
    max_iter: int = 10_000,
    base: Base = "nats",
) -> CapacityResult:
    """Blahut-Arimoto capacity of a binary channel.

    Stops once the standard upper and lower capacity bounds differ by less
    than tol; channels with nearly coinciding rows may exhaust max_iter at
    very small tol, which is reported through converged=False (the returned
    lower bound is still a valid capacity estimate within the final gap).
    """
    # Before the kernel, which checks tol and max_iter: a bad base fails before the loop runs.
    factor = _base_factor(base)
    cap, q, iters, converged = kernels.ba_binary(
        float(ch.matrix[0, 0]), float(ch.matrix[1, 0]), tol, max_iter
    )
    return CapacityResult(
        capacity=cap * factor,
        q=q,
        iterations=iters,
        converged=converged,
        base=base,
    )


def two_level_capacity(
    h: TwoLevelHamiltonian,
    r0: PrepBias,
    t: float,
    c: Constants,
    base: Base = "bits",
) -> CapacityResult:
    """Capacity of the binary channel induced by the two-level system at delay t.

    Reported in bits by default.
    """
    return capacity_binary(channel_at(h, r0, t, c), base=base)


def two_level_capacities(
    h: TwoLevelHamiltonian,
    r0: PrepBias,
    t,
    c: Constants,
    base: Base = "bits",
) -> np.ndarray:
    """Capacities of the channels induced at every delay in t, in bits by default.

    The array form of two_level_capacity, equal to its capacity bit for bit:
    one validated stack of channels (channel_matrices), solved at once by
    the same closed form.
    """
    factor = _base_factor(base)
    m = channel_matrices(h, r0, t, c)
    caps, _ = _binary_capacity(m[..., 0, 0].ravel(), m[..., 1, 0].ravel())
    return caps.reshape(m.shape[:-2]) * factor
