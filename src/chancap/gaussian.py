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

Every form takes the spreading hbar*t/(2*m*sigma_A), v* its sigma_A = 1
case, from ``_spread``. density_at and wavefunction_at share one range rule
(``_packet``). Where sigma_A and the dispersion lie in [2**-511, 2**505]
they are evaluated as written; elsewhere on the packet scaled by an exact
power of four, and scaled back. Both answer wherever Delta_t is a finite
double, unless the phase of psi overflows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import inf

import numpy as np

from .units import Constants, _delay, _elementwise, _require

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


def _check_signal(P) -> None:
    _require((P >= 0.0) & (P < inf), P, "signal constraint P must be >= 0, got {}; it must also be finite")


def _complex(re, im) -> np.ndarray:
    """re + i*im as a complex array, broadcast, with both parts exactly as given."""
    out = np.empty(np.broadcast(re, im).shape, complex)
    out.real = re
    out.imag = im
    return out


# The least normal double: a product below it may have lost bits to underflow.
_MIN_NORMAL = 2.0**-1022
_LN_MIN_NORMAL = math.log(_MIN_NORMAL)

# The band of sigma_A and the dispersion where the packet is not scaled: see _packet.
_LOW, _HIGH = 2.0**-511, 2.0**505


def _spread(hbar, t, mass, sigma_A=1.0):
    """hbar*t / (2*m*sigma_A), the spreading of a delay t >= 0, for floats or broadcast arrays.

    As written wherever hbar*t and 2*m*sigma_A, each tested on its own shape, lie in
    [2**-1022, inf), or t = 0; the float shortcut of noise_variance tests the same.
    Elsewhere a product lost bits or overflowed, so the four factors are split by
    frexp: the mantissas' products and quotient stay in range, and ldexp applies the
    exponents. It is inf, without a warning, where the spreading overflows.
    """
    with np.errstate(all="ignore"):  # a lost product is replaced below, an overflow left to the caller
        num, den = hbar * t, 2.0 * mass * sigma_A
        num_ok, den_ok = ((_MIN_NORMAL <= num) | (t == 0.0)) & (num < inf), (_MIN_NORMAL <= den) & (den < inf)
        if (num_ok is True or np.all(num_ok)) and (den_ok is True or np.all(den_ok)):
            return num / den
        (fh, eh), (ft, et), (fm, em), (fs, es) = map(np.frexp, (hbar, t, mass, sigma_A))
        out = np.where(num_ok & den_ok, np.divide(num, den), np.ldexp(fh * ft / (fm * fs), eh + et - em - es - 1))
    return float(out) if out.ndim == 0 else out


def _noise(sigma2_A, mass, t, hbar):
    """Delta_t^2 = sigma2_A + _spread^2 for floats or broadcast arrays.

    A Delta_t^2 that overflows raises ValueError naming sigma2_A, mass and t
    at the first such point.
    """
    disp = _spread(hbar, t, mass, np.sqrt(sigma2_A))
    with np.errstate(over="ignore"):  # rejected below
        var = sigma2_A + disp * disp
    _require(var < inf, (sigma2_A, mass, t, hbar),
             "noise variance Delta_t^2 = sigma2_A + (hbar t / (2 m sigma_A))^2 leaves the double range "
             "for sigma2_A={}, mass={} at delay t = {}, hbar = {}")
    return var


def noise_variance(prep: GaussianPrep, t, c: Constants):
    """Variance of Bob's position measurement after a delay t.

    Delta_t^2 = sigma_A^2 + (hbar*t / (2*m*sigma_A))^2. Grows quadratically
    in t for fixed preparation variance. t is a float or an array; a delay
    that is NaN, negative or infinite raises ValueError, and so does a
    Delta_t^2 that overflows (see ``_noise``).
    """
    # A valid float delay where _spread is as written: Python floats, which never warn. A normal
    # hbar*t needs t > 0, and an inf one (t = inf, say) gives an inf var, which goes on below.
    if (type(t) is float and (_MIN_NORMAL <= (num := c.hbar * t) or t == 0.0)
            and _MIN_NORMAL <= (den := 2.0 * prep.mass * math.sqrt(prep.sigma2_A)) < inf):
        disp = num / den
        if (var := prep.sigma2_A + disp * disp) < inf:
            return var
    _delay(t)
    return _noise(prep.sigma2_A, prep.mass, t, c.hbar)


def _packet(prep: GaussianPrep, x, t, c: Constants, geometric: bool = False):
    """The packet at x after delays t, scaled by s: s (x - x0), s^2 sigma2_A, s * dispersion (_spread) and s.

    The module's range rule, per delay. It checks the delay, then x, and raises
    ValueError where the dispersion overflows. s is 1 where sigma_A and the
    dispersion lie in [2**-511, 2**505]: there sigma2_A is normal, Delta_t^2 <=
    2**1011, and an (x - x0)^2 that overflows (x - x0 may too, without a warning)
    puts either exponent below -2**11, so that its inf gives the exact 0. Elsewhere
    s is the power of four, from frexp, that brings s w near 1 for w = max(sigma_A,
    dispersion), or with geometric=True for sqrt(sigma_A w), the complex width's scale.
    """
    _delay(t)
    x = np.asarray(x, dtype=float)
    _require(np.isfinite(x), x, "position x must be finite, got {}")
    sigma_A = math.sqrt(prep.sigma2_A)
    disp = _spread(c.hbar, t, prep.mass, sigma_A)
    _require(disp < inf, (prep.sigma2_A, prep.mass, t, c.hbar),
             "noise width Delta_t = sqrt(sigma2_A + (hbar t / (2 m sigma_A))^2) leaves the double range "
             "for sigma2_A={}, mass={} at delay t = {}, hbar = {}")
    inband = (_LOW <= sigma_A <= _HIGH) & (disp <= _HIGH)
    with np.errstate(over="ignore"):  # an x - x0 that overflows: see above
        if inband is True or np.all(inband):
            return x - prep.x0, prep.sigma2_A, disp, 1.0
        e = np.frexp(np.maximum(sigma_A, disp))[1]
        if geometric:
            e = (e + math.frexp(sigma_A)[1]) // 2
        s = np.where(inband, 1.0, np.ldexp(1.0, -2 * ((e - 1) // 2)))
        lo = np.minimum(s, 1.0)  # s x - s x0 where s < 1, as x - x0 may overflow; s (x - x0) where s > 1
        dx = s / lo * (lo * x - lo * prep.x0)
    return dx, s * (s * prep.sigma2_A), s * disp, s


def density_at(prep: GaussianPrep, x, t, c: Constants):
    """Probability density of finding the particle at x after a delay t.

    Gaussian with mean x0 and variance Delta_t^2, on the packet scaled by
    ``_packet`` and scaled back by s; where a prefactor s / sqrt(2 pi var)
    above 1 meets an exp(z) below 2**-1022, exp(z + ln prefactor), so the
    tail it lifts keeps its digits. x and t are floats or arrays, broadcast;
    a float for both gives a float. A delay or position that is NaN or
    infinite raises ValueError, and so does a Delta_t that overflows.
    """
    dx, sigma2, disp, s = _packet(prep, x, t, c)
    var = sigma2 + disp * disp
    root = np.sqrt(2.0 * math.pi * var)
    with np.errstate(over="ignore"):  # an exponent that overflows gives the exact 0: see _packet
        z = -(dx * dx) / (2.0 * var)
    out = np.exp(z) / root
    if isinstance(s, np.ndarray):  # scaled at some delay
        out = out * s
    if (lift := s > root).any():
        out = np.where(lift & (z < _LN_MIN_NORMAL), np.exp(z + np.log(s / root)), out)
    return float(out) if out.ndim == 0 else out


def wavefunction_at(prep: GaussianPrep, x, t, c: Constants):
    """Complex amplitude of the freely evolved packet at position x, delay t.

    psi(x, t) = [sqrt(2*pi) * (sigma_A + i*hbar*t/(2*m*sigma_A))]^(-1/2)
                * exp(-(x - x0)^2 / (4*(sigma_A^2 + i*hbar*t/(2m)))),

    with the principal branch of the complex square root, on the packet
    scaled by ``_packet(geometric=True)`` and scaled back by sqrt(s). Its
    squared modulus equals ``density_at``. x and t broadcast as there; a
    float for both gives a complex. It raises ValueError where density_at
    does, and where the phase overflows but psi does not underflow to 0.
    """
    dx, sigma2, disp, s = _packet(prep, x, t, c, geometric=True)
    sigma_A = s * math.sqrt(prep.sigma2_A)
    b = _spread(c.hbar, t, prep.mass)  # inf where it overflows: replaced below
    # s^2 b, or s sigma_A * s dispersion where b left the normal range
    b = np.where((s == 1.0) | (_MIN_NORMAL <= b) & (b < inf), s * (s * b), sigma_A * disp)
    root = math.sqrt(2.0 * math.pi)
    prefactor = np.sqrt(s) / np.sqrt(_complex(root * (sigma2 / sigma_A), root * (b / sigma_A)))
    # -(x - x0)^2 / (4 sigma2_A + 4ib) on real parts, in numpy's complex division steps (Smith's): rat, scl, products.
    re, im = 4.0 * sigma2, 4.0 * b
    lo, hi = np.minimum(re, im), np.maximum(re, im)
    rat = lo / hi
    scl = 1.0 / (hi + lo * rat)
    a, bb = np.where(re >= im, 1.0, rat), np.where(re >= im, rat, 1.0)
    with np.errstate(over="ignore", invalid="ignore"):  # an exponent that is not finite is settled below
        sq = dx * dx
        zr, zi = (0.0 - sq * a) * scl, sq * bb * scl
    if not np.all(ok := np.isfinite(zi)):
        # (x - x0)^2 or the phase overflowed: the products again, in an order that overflows
        # only with the phase or below -2**11; psi is 0 below -1000, its prefactor being below 2**272.
        with np.errstate(over="ignore", invalid="ignore"):
            zr = np.where(ok, zr, (0.0 - dx * a * scl) * dx)
            zi = np.where(ok, zi, dx * bb * scl * dx)
        lost = ~ok & (zr < -1000.0)
        _require(np.isfinite(zi) | lost, (x, t), f"the phase of psi overflows for sigma2_A={prep.sigma2_A}, "
                 f"mass={prep.mass} at position x = {{}}, delay t = {{}}")
        zr, zi = np.where(lost, -inf, zr), np.where(lost, 0.0, zi)
    gauss = np.exp(_complex(zr, zi))
    # The product one component at a time: numpy's array complex multiply
    # does not round as its scalar multiply does.
    pr, pi, gr, gi = prefactor.real, prefactor.imag, gauss.real, gauss.imag
    out = _complex(pr * gr - pi * gi, pr * gi + pi * gr)
    return complex(out) if out.ndim == 0 else out


def capacity_nats(P, delta2):
    """AWGN capacity (1/2) ln(1 + P / delta2) in nats per use, for finite P >= 0 and delta2 > 0.

    P and delta2 are floats or arrays, broadcast; math.log1p of every
    element, so that both give the same bits, and a float for both gives a
    float. Where P / delta2 overflows, ln(1 + P / delta2) is ln P - ln delta2
    to double precision, and that is taken instead, with math.log.
    """
    _check_signal(P)
    _require((delta2 > 0.0) & (delta2 < inf), delta2,
             "noise variance must be positive, got {}; it must also be finite")
    with np.errstate(over="ignore"):  # an overflowed ratio is replaced below, not warned about
        ratio = np.asarray(P / delta2)
    log = _elementwise(math.log1p, ratio)
    if np.any(over := ratio == inf):
        P, delta2 = np.broadcast_arrays(P, delta2)
        log[over] = _elementwise(math.log, P[over]) - _elementwise(math.log, delta2[over])
    out = 0.5 * log
    return float(out) if out.ndim == 0 else out


def optimal_sigma2(t, mass, c: Constants):
    """Preparation variance v* = hbar*t/(2m) that minimizes the noise.

    By AM-GM, sigma2 + (hbar*t/(2m))^2/sigma2 >= hbar*t/m with equality
    iff sigma2 = v*. t and mass are floats or arrays, broadcast, positive
    and finite; a v* that under- or overflows raises ValueError too.
    """
    _require((0.0 < t) & (t < inf), t, "measurement delay must be positive, got {}; it must also be finite")
    _require((0.0 < mass) & (mass < inf), mass, "mass must be positive, got {}; it must also be finite")
    vstar = _spread(c.hbar, t, mass)
    _require((0.0 < vstar) & (vstar < inf), (vstar, t, mass, c.hbar), "sigma2_A must be positive and finite, "
             "got {}; v* = hbar*t/(2m) left the floating-point range for t = {}, mass = {}, hbar = {}")
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


def capacity_vs_precision_curve(t: float, mass: float, P, sigma2_grid, c: Constants) -> np.ndarray:
    """Capacity as a function of preparation precision, at one signal level or an array of them.

    Returns an array of shape np.shape(P) + (n, 2) of (sigma2_A / v*, capacity
    in nats) pairs, one per grid value, from one Delta_t^2 per grid value. The
    curve peaks at sigma2_A = v*. Checks every grid value, then P. A ratio
    that overflows raises ValueError naming its grid value.
    """
    grid = np.asarray(sigma2_grid, dtype=float).ravel()
    if grid.size == 0:
        raise ValueError("sigma2_grid must not be empty")
    _require(grid > 0, grid, "sigma2_grid values must be positive, got {}")
    vstar = optimal_sigma2(t, mass, c)
    noise = np.array([noise_variance(GaussianPrep(0.0, sigma2, mass), t, c) for sigma2 in grid.tolist()])
    levels = np.asarray(P, dtype=float)[..., None]
    out = np.empty(levels.shape[:-1] + (grid.size, 2))
    out[..., 1] = capacity_nats(levels, noise)
    with np.errstate(over="ignore"):  # rejected below
        ratio = grid / vstar
    _require(ratio < inf, (grid, vstar, t, mass, c.hbar), "the ratio sigma2_A / v* overflows for "
             "sigma2_grid value {} at v* = {} (t = {}, mass = {}, hbar = {})")
    out[..., 0] = ratio
    return out
