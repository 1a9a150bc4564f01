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
    _require((0.0 <= t) & (t < inf), t, "time delay must be >= 0, got {}; it must also be finite")


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


# The least normal double: a 2*m*sigma_A below it has lost bits to underflow.
_MIN_NORMAL = 2.0**-1022


def _dispersion(sigma2_A, mass, t, hbar):
    """The dispersion hbar*t / (2*m*sigma_A) for floats or broadcast arrays, under the module's one range rule.

    Where 2*m*sigma_A is below _MIN_NORMAL (subnormal, or 0), it is taken
    as (hbar*t / (2*m)) / sigma_A, on those elements only; everywhere else
    it is noise_variance's float expression, bit for bit (math.sqrt and
    np.sqrt are both correctly rounded). It is inf, without a warning, where
    it overflows.
    """
    sigma_A = np.sqrt(sigma2_A)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # replaced below, or left to the caller
        den = 2.0 * mass * sigma_A
        disp = hbar * t / den
        if not np.all(normal := den >= _MIN_NORMAL):  # the fallback costs ops on every element
            disp = np.where(normal, disp, hbar * t / (2.0 * mass) / sigma_A)
    return disp


def _noise(sigma2_A, mass, t, hbar):
    """Delta_t^2 = sigma2_A + _dispersion^2 for floats or broadcast arrays.

    A Delta_t^2 that overflows raises ValueError naming sigma2_A, mass and t
    at the first such point.
    """
    disp = _dispersion(sigma2_A, mass, t, hbar)
    with np.errstate(over="ignore"):  # rejected below
        var = sigma2_A + disp * disp
    _require(var < inf, (sigma2_A, mass, t),
             "noise variance Delta_t^2 = sigma2_A + (hbar t / (2 m sigma_A))^2 leaves the double range "
             "for sigma2_A={}, mass={} at delay t = {}")
    return var


# A noise variance at or below this is narrow enough that both closed forms
# are 0 wherever (x - x0)^2 overflows; see _square.
_NARROW = 2.0**1012

# 2*pi*Delta_t^2 overflows only for a noise variance above this (from about 2.86e307).
_WIDE = 2.0**1021

# Where Delta_t^2 overflows (Delta_t >= 2**512), density_at scales Delta_t and x - x0
# by this exact power of two: (s Delta_t)^2 lies in [2**-4, 2**1020), and the scaled
# x - x0 of two finite positions below 2**511.
_HUGE = 2.0**-514


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
        _require(ok, var,
                 "noise variance {} is too wide to resolve a position x where (x - x0)^2 overflows; "
                 "it must be at most 2**1012 there")
    return sq


def noise_variance(prep: GaussianPrep, t, c: Constants):
    """Variance of Bob's position measurement after a delay t.

    Delta_t^2 = sigma_A^2 + (hbar*t / (2*m*sigma_A))^2. Grows quadratically
    in t for fixed preparation variance. t is a float or an array; a delay
    that is NaN, negative or infinite raises ValueError, and so does a
    Delta_t^2 that overflows (see ``_noise``).
    """
    # A valid float delay with a normal 2*m*sigma_A: Python floats, which never warn.
    if ((0.0 <= t) & (t < inf)) is True and (den := 2.0 * prep.mass * math.sqrt(prep.sigma2_A)) >= _MIN_NORMAL:
        disp = c.hbar * t / den
        if (var := prep.sigma2_A + disp * disp) < inf:
            return var
    _check_time(t)
    return _noise(prep.sigma2_A, prep.mass, t, c.hbar)


def density_at(prep: GaussianPrep, x, t, c: Constants):
    """Probability density of finding the particle at x after a delay t.

    Gaussian with mean x0 and variance ``noise_variance(prep, t, c)``.
    x and t are floats or arrays, broadcast against each other; a float
    for both gives a float. A position that is NaN or infinite raises
    ValueError, and so does a noise variance above 2**1012 at an x where
    (x - x0)^2 overflows (see ``_square``). Where Delta_t^2 overflows but
    Delta_t does not, see ``_huge_density``.
    """
    try:
        var = noise_variance(prep, t, c)
    except ValueError:  # an invalid delay, or a Delta_t^2 that overflows: _huge_density raises again for the first
        return _huge_density(prep, x, t, c)
    sq, s = _square(_position(x) - prep.x0, prep, t, c), 1.0
    if (narrow := var < _WIDE) is not True and not np.all(narrow):
        # 2*pi*Delta_t^2 may overflow: there x - x0 and Delta_t are scaled by s = 1/4, an exact
        # power of two, which keeps the bits of every density that fits.
        s = np.where(narrow, 1.0, 0.25)
        sq, var = sq * (s * s), var * (s * s)
    out = np.exp(-sq / (2.0 * var)) / (np.sqrt(2.0 * math.pi * var) / s)
    return float(out) if out.ndim == 0 else out


def _huge_density(prep: GaussianPrep, x, t, c: Constants):
    """density_at where Delta_t^2 overflows at some delay.

    There x - x0 and Delta_t are scaled by s = _HUGE, an exact power of two,
    and the density is exp(-(s dx)^2 / (2 (s Delta_t)^2)) / sqrt(2 pi (s
    Delta_t)^2) * s: it is at most 2**-512, subnormal from Delta_t of about
    2**1021 on. Every other point is density_at's, bit for bit. An invalid
    delay or position raises as in density_at, and so does a Delta_t that
    overflows.
    """
    _check_time(t)
    x = _position(x)
    disp = _dispersion(prep.sigma2_A, prep.mass, t, c.hbar)
    _require(disp < inf, t,
             f"noise width Delta_t = sqrt(sigma2_A + (hbar t / (2 m sigma_A))^2) leaves the double range "
             f"for sigma2_A={prep.sigma2_A}, mass={prep.mass} at delay t = {{}}")
    with np.errstate(over="ignore"):  # split off below
        var = prep.sigma2_A + disp * disp
    x, t, disp, fits = np.broadcast_arrays(x, t, disp, var < inf)
    out = np.empty(x.shape)
    out[fits] = density_at(prep, x[fits], t[fits], c)
    s, disp = _HUGE, disp[~fits]
    dx = s * x[~fits] - s * prep.x0  # x - x0 itself may overflow
    var = (s * s) * prep.sigma2_A + (s * disp) * (s * disp)
    out[~fits] = np.exp(-(dx * dx) / (2.0 * var)) / np.sqrt(2.0 * math.pi * var) * s
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
    return vstar, capacity_nats(P, _noise(vstar, mass, t, c.hbar))


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
