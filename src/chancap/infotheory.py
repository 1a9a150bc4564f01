"""Entropies, mutual information, and capacity solvers for discrete channels.

Everything is computed internally in nats; ``base="bits"`` converts at the
boundary by 1/ln(2). Four independent routes to binary-channel capacity
cross-check each other:

- the closed form of Muroga (1953) and Silverman (1955), array-valued over
  channels: the primary solver, behind capacity_binary and the two-level
  capacities;
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
    "Distribution",
    "DMC",
    "CapacityResult",
    "shannon_entropy",
    "mutual_information",
    "capacity_binary",
    "capacity_grid",
    "blahut_arimoto",
    "two_level_capacity",
    "two_level_capacities",
]

Base = Literal["nats", "bits"]

_SUM_TOL = 1e-12
_LN2 = math.log(2.0)


def _base_factor(base: Base) -> float:
    if base == "nats":
        return 1.0
    if base == "bits":
        return 1.0 / _LN2
    raise ValueError(f"base must be 'nats' or 'bits', got {base!r}")


@dataclass(frozen=True)
class Distribution:
    """Probability vector: nonnegative entries summing to 1."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        p = np.asarray(self.probs, dtype=float).ravel()
        if p.size == 0:
            raise ValueError("distribution must not be empty")
        # Positive conditions, so that a NaN fails them.
        if not np.all(p >= -_SUM_TOL):
            raise ValueError("probabilities must be nonnegative")
        total = p.sum()
        if not abs(total - 1.0) <= _SUM_TOL:
            raise ValueError(f"probabilities must sum to 1, got {total}")
        object.__setattr__(self, "probs", np.clip(p, 0.0, None))


@dataclass(frozen=True)
class DMC:
    """Discrete memoryless channel: |X| x |Y| row-stochastic matrix."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
            raise ValueError(f"expected a 2-D transition matrix, got shape {m.shape}")
        object.__setattr__(self, "matrix", stochastic_rows(m))

    @classmethod
    def from_binary(cls, ch: BinaryChannel) -> "DMC":
        return cls(matrix=ch.matrix)


@dataclass(frozen=True)
class CapacityResult:
    """Capacity value with the achieving input distribution and solver stats."""

    capacity: float
    optimizer: Distribution
    iterations: int
    converged: bool
    base: Base


def _entropy_nats(p: np.ndarray) -> float:
    nz = p[p > 0]
    return float(-(nz * np.log(nz)).sum())


def shannon_entropy(d: Distribution, base: Base = "nats") -> float:
    """-sum p_i log p_i with the 0 log 0 = 0 convention."""
    return _entropy_nats(d.probs) * _base_factor(base)


def mutual_information(input: Distribution, ch: DMC, base: Base = "nats") -> float:
    """I(X;Y) = H(Y) - sum_x q_x H(Y|X=x); clamped at 0 against cancellation."""
    q = input.probs
    m = ch.matrix
    if q.size != m.shape[0]:
        raise ValueError(
            f"input size {q.size} does not match channel with {m.shape[0]} inputs"
        )
    y = q @ m
    h_cond = sum(q[x] * _entropy_nats(m[x]) for x in range(m.shape[0]) if q[x] > 0)
    mi = _entropy_nats(y) - h_cond
    if mi < -_SUM_TOL:
        raise AssertionError(f"mutual information fell below 0 by {-mi:.3e}")
    return max(mi, 0.0) * _base_factor(base)


def _require_binary(ch: DMC) -> tuple[float, float]:
    if ch.matrix.shape != (2, 2):
        raise ValueError(f"expected a 2x2 channel, got shape {ch.matrix.shape}")
    return float(ch.matrix[0, 0]), float(ch.matrix[1, 0])


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
    taken stably. Equal rows give C = 0 and q* = 1/2. A single channel goes
    through here as a 1-element array, so it gets the same bits as a stack.
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


def capacity_binary(ch: DMC, base: Base = "nats") -> CapacityResult:
    """Capacity of a binary channel from the Muroga-Silverman closed form.

    The optimizer q (probability of input 0) comes from the same closed
    form, so iterations is 0; channels with coinciding rows report q = 1/2.
    """
    factor = _base_factor(base)
    p00, p10 = _require_binary(ch)
    cap, q = _binary_capacity(np.array([p00]), np.array([p10]))
    q0 = float(q[0])
    return CapacityResult(
        capacity=float(cap[0]) * factor,
        optimizer=Distribution(np.array([q0, 1.0 - q0])),
        iterations=0,
        converged=True,
        base=base,
    )


def capacity_grid(ch: DMC, step: float = 1e-6, base: Base = "nats") -> CapacityResult:
    """Brute-force capacity of a binary channel: exhaustive scan of the prior."""
    factor = _base_factor(base)
    p00, p10 = _require_binary(ch)
    cap, q, evals = kernels.capacity_grid(p00, p10, step)
    return CapacityResult(
        capacity=cap * factor,
        optimizer=Distribution(np.array([q, 1.0 - q])),
        iterations=evals,
        converged=True,
        base=base,
    )


def _ba_general(
    m: np.ndarray, tol: float, max_iter: int
) -> tuple[float, np.ndarray, int, bool]:
    nx = m.shape[0]
    q = np.full(nx, 1.0 / nx)
    masked = np.where(m > 0, m, 1.0)
    plogp = np.einsum("xy,xy->x", m, np.log(masked))
    it = 0
    converged = False
    cap = 0.0
    while it < max_iter:
        it += 1
        r = q @ m
        logr = np.log(np.where(r > 0, r, 1.0))
        d = plogp - m @ logr
        il = float(q @ d)
        iu = float(d.max())
        cap = il
        if iu - il < tol:
            converged = True
            break
        w = q * np.exp(d - iu)
        q = w / w.sum()
    return max(cap, 0.0), q, it, converged


def blahut_arimoto(
    ch: DMC,
    tol: float = 1e-12,
    max_iter: int = 10_000,
    base: Base = "nats",
) -> CapacityResult:
    """Blahut-Arimoto capacity of a DMC.

    Stops once the standard upper and lower capacity bounds differ by less
    than tol; channels with nearly coinciding rows may exhaust max_iter at
    very small tol, which is reported through converged=False (the returned
    lower bound is still a valid capacity estimate within the final gap).
    """
    # Positive conditions, so that a NaN fails them.
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    if not max_iter >= 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    factor = _base_factor(base)
    m = ch.matrix
    if m.shape == (2, 2):
        cap, q0, iters, converged = kernels.ba_binary(
            float(m[0, 0]), float(m[1, 0]), tol, max_iter
        )
        probs = np.array([q0, 1.0 - q0])
    else:
        cap, probs, iters, converged = _ba_general(m, tol, max_iter)
    return CapacityResult(
        capacity=cap * factor,
        optimizer=Distribution(probs),
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
    ch = DMC.from_binary(channel_at(h, r0, t, c))
    return capacity_binary(ch, base=base)


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
