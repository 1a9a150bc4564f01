"""Closed-form dynamics and capacity of the particle-placement channel.

Alice localizes a free particle of mass m at position x0 with a Gaussian
wavefunction of variance sigma2_A; Bob measures the position a delay t
later. Free evolution disperses the packet, so Bob sees a Gaussian with
variance

    Delta_t^2 = sigma_A^2 + (hbar*t / (2*m*sigma_A))^2,

which acts as additive Gaussian noise on Alice's placement. With the
placement second moment bounded by P, the capacity per use is the AWGN
expression C = (1/2) ln(1 + P / Delta_t^2) in nats.

The dispersion term shrinks as sigma_A^2 grows, so over-localizing hurts:
Delta_t^2 is minimized at sigma_A^2 = v* = hbar*t/(2m), where it equals
hbar*t/m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import inf

import numpy as np

from .units import Constants

__all__ = [
    "GaussianPrep",
    "ComplexDensityParams",
    "PowerBudget",
    "noise_variance",
    "density_at",
    "wavefunction_at",
    "complex_density_params",
    "capacity_nats",
    "optimal_sigma2",
    "capacity_at_optimum",
    "placement_power",
    "beta",
    "capacity_vs_precision_curve",
]


@dataclass(frozen=True)
class GaussianPrep:
    """Alice's initial wavepacket: center x0, variance sigma2_A, mass."""

    x0: float
    sigma2_A: float
    mass: float

    def __post_init__(self) -> None:
        # Positive conditions, so that a NaN fails them. A bare global `inf`
        # keeps them as cheap as the old sign checks in per-point loops.
        if not -inf < self.x0 < inf:
            raise ValueError(f"x0 must be finite, got {self.x0}")
        if not 0.0 < self.sigma2_A < inf:
            raise ValueError(f"sigma2_A must be positive and finite, got {self.sigma2_A}")
        if not 0.0 < self.mass < inf:
            raise ValueError(f"mass must be positive and finite, got {self.mass}")


@dataclass(frozen=True)
class ComplexDensityParams:
    """Parameters of the dispersed packet: the complex width sigma2_A + i*hbar*t/(2m).

    The real part is Alice's preparation variance; the imaginary part carries
    the accumulated dispersion.
    """

    center: float
    complex_width: complex
    time: float

    def __post_init__(self) -> None:
        if not self.complex_width.real > 0:
            raise ValueError("real part of complex_width must be positive")


@dataclass(frozen=True)
class PowerBudget:
    """Inputs of the preparation-energy bookkeeping.

    Alice drags the particle from the origin to X within prep_time_T; the
    scheme cycles every prep_time_T + measure_delay_t seconds.
    """

    prep_time_T: float
    measure_delay_t: float
    mass: float
    mean_square_X: float

    def __post_init__(self) -> None:
        # Positive conditions, so that a NaN fails them.
        if not 0.0 < self.prep_time_T < inf:
            raise ValueError(f"prep_time_T must be positive and finite, got {self.prep_time_T}")
        if not 0.0 <= self.measure_delay_t < inf:
            raise ValueError(f"measure_delay_t must be finite and >= 0, got {self.measure_delay_t}")
        if not 0.0 < self.mass < inf:
            raise ValueError(f"mass must be positive and finite, got {self.mass}")
        if not 0.0 <= self.mean_square_X < inf:
            raise ValueError(f"mean_square_X must be finite and >= 0, got {self.mean_square_X}")


def _check_time(t: float) -> None:
    if not t >= 0:  # a NaN fails it
        raise ValueError(f"time delay must be >= 0, got {t}")


def _dispersed_variance(sigma2_A, sigma_A, mass, t, hbar):
    # Scalars or arrays. The caller takes sigma_A = sqrt(sigma2_A) with
    # math.sqrt or np.sqrt, which agree (both are correctly rounded), so a
    # scalar caller stays in Python floats.
    disp = hbar * t / (2.0 * mass * sigma_A)
    return sigma2_A + disp * disp


def noise_variance(prep: GaussianPrep, t: float, c: Constants) -> float:
    """Variance of Bob's position measurement after a delay t.

    Delta_t^2 = sigma_A^2 + (hbar*t / (2*m*sigma_A))^2. Grows quadratically
    in t for fixed preparation variance.
    """
    _check_time(t)
    return _dispersed_variance(prep.sigma2_A, math.sqrt(prep.sigma2_A), prep.mass, t, c.hbar)


def density_at(prep: GaussianPrep, x, t: float, c: Constants):
    """Probability density of finding the particle at x after a delay t.

    Gaussian with mean x0 and variance ``noise_variance(prep, t, c)``.
    Accepts scalar or array x.
    """
    _check_time(t)
    var = noise_variance(prep, t, c)
    dx = np.asarray(x, dtype=float) - prep.x0
    out = np.exp(-(dx * dx) / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)
    return float(out) if out.ndim == 0 else out


def complex_density_params(prep: GaussianPrep, t: float, c: Constants) -> ComplexDensityParams:
    """Complex width sigma2_A + i*hbar*t/(2m) of the dispersed packet."""
    _check_time(t)
    return ComplexDensityParams(
        center=prep.x0,
        complex_width=complex(prep.sigma2_A, c.hbar * t / (2.0 * prep.mass)),
        time=t,
    )


def wavefunction_at(prep: GaussianPrep, x, t: float, c: Constants):
    """Complex amplitude of the freely evolved packet at position x, delay t.

    psi(x, t) = [sqrt(2*pi) * (sigma_A + i*hbar*t/(2*m*sigma_A))]^(-1/2)
                * exp(-(x - x0)^2 / (4*(sigma_A^2 + i*hbar*t/(2m)))),

    with the principal branch of the complex square root. Its squared
    modulus equals ``density_at``. Accepts scalar or array x.
    """
    params = complex_density_params(prep, t, c)
    w = params.complex_width
    sigma_A = math.sqrt(prep.sigma2_A)
    prefactor = 1.0 / np.sqrt(math.sqrt(2.0 * math.pi) * (w / sigma_A))
    dx = np.asarray(x, dtype=float) - prep.x0
    out = prefactor * np.exp(-(dx * dx) / (4.0 * w))
    return complex(out) if out.ndim == 0 else out


def capacity_nats(P: float, delta2: float) -> float:
    """AWGN capacity (1/2) ln(1 + P / delta2) in nats per use."""
    # Positive conditions, so that a NaN fails them.
    if not P >= 0:
        raise ValueError(f"signal constraint P must be >= 0, got {P}")
    if not delta2 > 0:
        raise ValueError(f"noise variance must be positive, got {delta2}")
    return 0.5 * math.log1p(P / delta2)


def optimal_sigma2(t: float, mass: float, c: Constants) -> float:
    """Preparation variance v* = hbar*t/(2m) that minimizes the noise.

    By AM-GM, sigma2 + (hbar*t/(2m))^2/sigma2 >= hbar*t/m with equality
    iff sigma2 = v*.
    """
    if not t > 0:
        raise ValueError(f"measurement delay must be positive, got {t}")
    if not mass > 0:
        raise ValueError(f"mass must be positive, got {mass}")
    return c.hbar * t / (2.0 * mass)


def _log1p(x: np.ndarray) -> np.ndarray:
    """math.log1p of every element: np.log1p is not bit-identical to it on every double.

    One C-level map over the values, with no per-element numpy call.
    """
    return np.fromiter(map(math.log1p, x.ravel().tolist()), float, x.size).reshape(x.shape)


def capacity_at_optimum(t, mass, P: float, c: Constants) -> tuple[np.ndarray, np.ndarray]:
    """v* and the capacity at sigma2_A = v*, elementwise over arrays t and mass.

    Equal, bit for bit, to optimal_sigma2, noise_variance of
    GaussianPrep(0, v*, mass) and capacity_nats applied point by point:
    the same IEEE operations, with math.log1p per point. Raises the
    ValueError that this scalar chain raises at the first point, in C
    order, where it fails.
    """
    t, mass = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(mass, dtype=float))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        vstar = c.hbar * t / (2.0 * mass)
    # The scalar chain passes exactly where all of these hold; a NaN fails each.
    bad = ~((t > 0.0) & (mass > 0.0) & (0.0 < vstar) & (vstar < inf) & (P >= 0))
    if bad.any():
        i = int(np.argmax(bad))
        t_i, m_i = float(t.flat[i]), float(mass.flat[i])
        prep = GaussianPrep(x0=0.0, sigma2_A=optimal_sigma2(t_i, m_i, c), mass=m_i)
        capacity_nats(P, noise_variance(prep, t_i, c))
    noise = _dispersed_variance(vstar, np.sqrt(vstar), mass, t, c.hbar)
    return vstar, 0.5 * _log1p(P / noise)


def beta(b: PowerBudget) -> float:
    """Power per unit of placement second moment: m / (2*T^2*(T + t))."""
    T = b.prep_time_T
    return b.mass / (2.0 * T * T * (T + b.measure_delay_t))


def placement_power(b: PowerBudget) -> float:
    """Minimum average power to run the placement cycle: beta * E[X^2]."""
    return beta(b) * b.mean_square_X


def capacity_vs_precision_curve(
    t: float,
    mass: float,
    P: float,
    sigma2_grid,
    c: Constants,
) -> np.ndarray:
    """Capacity as a function of preparation precision, for one signal level.

    Returns an (n, 2) array of (sigma2_A / v*, capacity in nats) pairs, one
    per grid value. The curve peaks at sigma2_A = v*.
    """
    grid = np.asarray(sigma2_grid, dtype=float)
    if grid.size == 0:
        raise ValueError("sigma2_grid must not be empty")
    if not np.all(grid > 0):
        raise ValueError("sigma2_grid values must be positive")
    vstar = optimal_sigma2(t, mass, c)
    out = np.empty((grid.size, 2))
    for i, sigma2 in enumerate(grid.ravel()):
        prep = GaussianPrep(x0=0.0, sigma2_A=float(sigma2), mass=mass)
        out[i, 0] = sigma2 / vstar
        out[i, 1] = capacity_nats(P, noise_variance(prep, t, c))
    return out
