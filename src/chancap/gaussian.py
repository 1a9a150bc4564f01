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

The closed forms are array-first: a delay, mass, signal level or noise
variance may be a float or an ndarray, and positions x broadcast against
the delays. An array call gives the same bits as float calls made point by
point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import inf

import numpy as np

from .units import Constants, _elementwise, _require

__all__ = [
    "GaussianPrep",
    "PowerBudget",
    "noise_variance",
    "density_at",
    "wavefunction_at",
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


def _check_time(t) -> None:
    # `is not True` first saves a call per float: capacity_vs_precision_curve makes one per grid value.
    if (ok := (0.0 <= t) & (t < inf)) is not True:
        _require(ok, t, "time delay must be >= 0, got {}; it must also be finite")


def _position(x) -> np.ndarray:
    """x as a float array, checked finite."""
    x = np.asarray(x, dtype=float)
    _require(np.isfinite(x), x, "position x must be finite, got {}")
    return x


def _check_signal(P) -> None:
    _require((P >= 0.0) & (P < inf), P, "signal constraint P must be >= 0, got {}; it must also be finite")


def _complex(re, im) -> np.ndarray:
    """re + i*im as a complex array, broadcast, with both parts exactly as given."""
    out = np.empty(np.broadcast(re, im).shape, complex)
    out.real = re
    out.imag = im
    return out


def _dispersed_variance(sigma2_A, sigma_A, mass, t, hbar):
    # Scalars or arrays. The caller takes sigma_A = sqrt(sigma2_A) with
    # math.sqrt or np.sqrt, which agree (both are correctly rounded), so a
    # scalar caller stays in Python floats.
    disp = hbar * t / (2.0 * mass * sigma_A)
    return sigma2_A + disp * disp


# A noise variance at or below this is narrow enough that both closed forms
# are 0 wherever (x - x0)^2 overflows; see _square.
_NARROW = 2.0**1012


def _square(dx, prep: GaussianPrep, t, c: Constants):
    """dx * dx, inf where it overflows, without a warning.

    Where dx * dx overflows, dx^2 > 2**1023.99; with Delta_t^2 <= 2**1012
    the exponent -dx^2 / (4 Delta_t^2) of the amplitude is below -1000, so
    |psi| <= (2 pi 2**-1074)**(-1/4) e**-1000 < 2**-1170 (Delta_t^2 >=
    sigma2_A >= 2**-1074): psi and the density round to 0, as the closed
    forms give them from an inf. A wider packet at such an x raises
    ValueError.
    """
    with np.errstate(over="ignore"):
        sq = dx * dx
    if sq.max(initial=0.0) == inf:
        var = noise_variance(prep, t, c)
        ok = (sq < inf) | (var <= _NARROW)
        _require(ok, np.broadcast_to(var, ok.shape),
                 "noise variance {} is too wide to resolve a position x where (x - x0)^2 overflows; "
                 "it must be at most 2**1012 there")
    return sq


def noise_variance(prep: GaussianPrep, t, c: Constants):
    """Variance of Bob's position measurement after a delay t.

    Delta_t^2 = sigma_A^2 + (hbar*t / (2*m*sigma_A))^2. Grows quadratically
    in t for fixed preparation variance. t is a float or an array; a delay
    that is NaN, negative or infinite raises ValueError, and so does a
    Delta_t^2 that overflows or whose 2*m*sigma_A underflows to 0.
    """
    sigma2_A, sigma_A = prep.sigma2_A, math.sqrt(prep.sigma2_A)
    if ((0.0 <= t) & (t < inf)) is True:  # a valid float delay: Python floats, which never warn
        try:
            var = _dispersed_variance(sigma2_A, sigma_A, prep.mass, t, c.hbar)
        except ZeroDivisionError:
            var = inf
        if var < inf:
            return var
    else:
        _check_time(t)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # rejected below
            var = _dispersed_variance(sigma2_A, sigma_A, prep.mass, t, c.hbar)
    _require(var < inf, t, f"noise variance Delta_t^2 = sigma2_A + (hbar t / (2 m sigma_A))^2 leaves the "
                           f"double range for sigma2_A={sigma2_A}, mass={prep.mass} at delay t = {{}}")
    return var


def density_at(prep: GaussianPrep, x, t, c: Constants):
    """Probability density of finding the particle at x after a delay t.

    Gaussian with mean x0 and variance ``noise_variance(prep, t, c)``.
    x and t are floats or arrays, broadcast against each other; a float
    for both gives a float. A position that is NaN or infinite raises
    ValueError, and so does a noise variance above 2**1012 at an x where
    (x - x0)^2 overflows (see ``_square``).
    """
    var = noise_variance(prep, t, c)
    out = np.exp(-_square(_position(x) - prep.x0, prep, t, c) / (2.0 * var)) / np.sqrt(2.0 * math.pi * var)
    return float(out) if out.ndim == 0 else out


def wavefunction_at(prep: GaussianPrep, x, t, c: Constants):
    """Complex amplitude of the freely evolved packet at position x, delay t.

    psi(x, t) = [sqrt(2*pi) * (sigma_A + i*hbar*t/(2*m*sigma_A))]^(-1/2)
                * exp(-(x - x0)^2 / (4*(sigma_A^2 + i*hbar*t/(2m)))),

    with the principal branch of the complex square root. Its squared
    modulus equals ``density_at``. x and t are floats or arrays, broadcast
    against each other; a float for both gives a complex. A position that
    is NaN or infinite raises ValueError, and so does a b = hbar*t/(2m)
    whose 4*b or sqrt(2*pi)*b/sigma_A overflows, or a wide packet as in
    ``density_at``.
    """
    _check_time(t)
    # The complex width sigma2_A + i*b, scaled one part at a time as Python
    # complex arithmetic scales it.
    sigma_A = math.sqrt(prep.sigma2_A)
    root = math.sqrt(2.0 * math.pi)
    with np.errstate(over="ignore"):  # rejected below
        b = c.hbar * t / (2.0 * prep.mass)
        width, root_width = 4.0 * b, root * (b / sigma_A)
    _require((width < inf) & (root_width < inf), t,
             f"the packet's width b = hbar t / (2 m) overflows for mass={prep.mass}, "
             f"sigma2_A={prep.sigma2_A} at delay t = {{}}")
    prefactor = 1.0 / np.sqrt(_complex(root * (prep.sigma2_A / sigma_A), root_width))
    sq = _square(_position(x) - prep.x0, prep, t, c)
    far = sq == inf  # psi is 0 there; kept out of the complex division, which would give NaN
    gauss = np.where(far, 0.0, np.exp(-np.where(far, 0.0, sq) / _complex(4.0 * prep.sigma2_A, width)))
    # The product one component at a time: numpy's array complex multiply
    # does not round as its scalar multiply does.
    pr, pi, gr, gi = prefactor.real, prefactor.imag, gauss.real, gauss.imag
    out = _complex(pr * gr - pi * gi, pr * gi + pi * gr)
    return complex(out) if out.ndim == 0 else out


def capacity_nats(P, delta2):
    """AWGN capacity (1/2) ln(1 + P / delta2) in nats per use, for finite P >= 0 and delta2 > 0.

    P and delta2 are floats or arrays, broadcast; math.log1p of every
    element, so that both give the same bits. Where P / delta2 overflows,
    ln(1 + P / delta2) is ln P - ln delta2 to double precision, and that is
    taken instead, with math.log on both paths.
    """
    if (P >= 0.0) is True and (delta2 > 0.0) is True and delta2 < inf:  # two valid floats: no numpy call
        if (ratio := P / delta2) < inf:
            return 0.5 * math.log1p(ratio)
        if P < inf:
            return 0.5 * (math.log(P) - math.log(delta2))
    _check_signal(P)
    _require((delta2 > 0.0) & (delta2 < inf), delta2,
             "noise variance must be positive, got {}; it must also be finite")
    with np.errstate(over="ignore"):  # an overflowed ratio is replaced below, not warned about
        ratio = np.asarray(P / delta2)
    log = _elementwise(math.log1p, ratio)
    if np.any(over := ratio == inf):
        P, delta2 = np.broadcast_arrays(P, delta2)
        log[over] = _elementwise(math.log, P[over]) - _elementwise(math.log, delta2[over])
    return 0.5 * log


def optimal_sigma2(t, mass, c: Constants):
    """Preparation variance v* = hbar*t/(2m) that minimizes the noise.

    By AM-GM, sigma2 + (hbar*t/(2m))^2/sigma2 >= hbar*t/m with equality
    iff sigma2 = v*. t and mass are floats or arrays, broadcast, positive
    and finite; a v* that under- or overflows raises ValueError too.
    """
    _require((0.0 < t) & (t < inf), t, "measurement delay must be positive, got {}; it must also be finite")
    _require((0.0 < mass) & (mass < inf), mass, "mass must be positive, got {}; it must also be finite")
    with np.errstate(over="ignore"):  # an array v* that overflows is rejected, not warned about
        vstar = c.hbar * t / (2.0 * mass)
    _require(
        (0.0 < vstar) & (vstar < inf),
        vstar,
        "sigma2_A must be positive and finite, got {}; v* = hbar*t/(2m) left the floating-point range",
    )
    return vstar


def capacity_at_optimum(t, mass, P: float, c: Constants) -> tuple[np.ndarray, np.ndarray]:
    """v* and the capacity at sigma2_A = v*, elementwise over arrays t and mass.

    Equal, bit for bit, to optimal_sigma2, noise_variance of
    GaussianPrep(0, v*, mass) and capacity_nats applied point by point.
    Checks P, then t, then mass, then v*, then the noise variance, and
    raises ValueError for the first bad value in C order.
    """
    _check_signal(P)
    t, mass = np.asarray(t, dtype=float), np.asarray(mass, dtype=float)
    vstar = optimal_sigma2(t, mass, c)
    with np.errstate(over="ignore"):  # rejected below
        noise = _dispersed_variance(vstar, np.sqrt(vstar), mass, t, c.hbar)
    if (over := ~(noise < inf)).any():  # noise_variance raises its error at the first such point
        k = np.argmax(over)
        t_k, mass_k = (float(np.broadcast_to(a, over.shape).flat[k]) for a in (t, mass))
        noise_variance(GaussianPrep(0.0, float(vstar.flat[k]), mass_k), t_k, c)
    return vstar, capacity_nats(P, noise)


def beta(b: PowerBudget) -> float:
    """Power per unit of placement second moment: m / (2*T^2*(T + t)).

    Raises ValueError where that overflows, or where T*T underflows to 0.
    """
    T = b.prep_time_T
    denominator = 2.0 * T * T * (T + b.measure_delay_t)
    value = b.mass / denominator if denominator > 0.0 else inf
    if not value < inf:
        raise ValueError(
            f"beta = m / (2 T^2 (T + t)) overflows for mass={b.mass}, prep_time_T={T}, "
            f"measure_delay_t={b.measure_delay_t}"
        )
    return value


def placement_power(b: PowerBudget) -> float:
    """Minimum average power to run the placement cycle: beta * E[X^2]. ValueError where it overflows."""
    power = beta(b) * b.mean_square_X
    if not power < inf:
        raise ValueError(f"placement power beta * E[X^2] overflows for mean_square_X={b.mean_square_X}")
    return power


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
