"""Brute-force numerical oracles for the closed-form channel dynamics.

Two independent verification routes:

* free-particle propagation by Fourier decomposition on a periodic grid
  (each mode k picks up the dispersion phase exp(-i*hbar*k^2*t/(2m)),
  since E(k) = hbar^2 k^2 / (2m)), checked against the dispersed-Gaussian
  closed form;
* direct 2x2 unitary evolution exp(-iHt/hbar) via numerical
  diagonalization, checked against the trigonometric closed form of the
  two-level channel.

Oracle runs are meant for natural-unit-scale magnitudes (hbar, m, sigma2, t
all O(1)); double precision cannot resolve hbar^2-scale phases on SI grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gaussian import GaussianPrep, noise_variance
from .twolevel import TwoLevelHamiltonian, TwoLevelState, _phase
from .units import Constants

__all__ = [
    "GridState",
    "discretize",
    "propagate_spectral",
    "grid_variance",
    "unitary_evolve_2x2",
]

#: Domain half-width in units of the dispersed standard deviation; keeps
#: wraparound mass below 1e-8 for all verification runs.
DOMAIN_SIGMAS = 10.0

_NORM_TOL = 1e-8


def _is_power_of_two(n: int) -> bool:
    return n >= 2 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class GridState:
    """Complex amplitudes on a uniform periodic grid over [x_min, x_max).

    Grid points are x_min + i*dx for i < n with dx = (x_max - x_min)/n;
    the state is normalized so that sum |amps|^2 dx = 1.
    """

    x_min: float
    x_max: float
    n: int
    amps: np.ndarray

    def __post_init__(self) -> None:
        if not _is_power_of_two(self.n):
            raise ValueError(f"n must be a power of two >= 2, got {self.n}")
        # Positive conditions, so that a NaN fails them.
        if not -math.inf < self.x_min < self.x_max < math.inf:
            raise ValueError(f"x_max must exceed x_min, both finite; got [{self.x_min}, {self.x_max})")
        amps = np.asarray(self.amps, dtype=complex)
        if amps.shape != (self.n,):
            raise ValueError(f"expected {self.n} amplitudes, got shape {amps.shape}")
        norm = float((np.abs(amps) ** 2).sum() * self.dx)
        if not abs(norm - 1.0) <= _NORM_TOL:
            raise ValueError(f"grid norm deviates from 1 by {abs(norm - 1.0):.3e}")
        object.__setattr__(self, "amps", amps)

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n

    @property
    def x(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.n)

    def density(self) -> np.ndarray:
        return np.abs(self.amps) ** 2

    def norm(self) -> float:
        return float(self.density().sum() * self.dx)


def discretize(prep: GaussianPrep, t_max: float, n: int, c: Constants) -> GridState:
    """Sample the initial Gaussian wavefunction on a grid sized for delay t_max.

    The domain half-width is DOMAIN_SIGMAS times the dispersed standard
    deviation at t_max, so the packet stays clear of the periodic boundary
    for all delays up to t_max, and the initial tail mass outside it stays
    below erfc(10/sqrt(2)) = 1.5e-23. The sampled state is renormalized to
    grid norm 1.
    """
    if not _is_power_of_two(n):
        raise ValueError(f"n must be a power of two >= 2, got {n}")
    half_width = DOMAIN_SIGMAS * math.sqrt(noise_variance(prep, t_max, c))
    x_min = prep.x0 - half_width
    x_max = prep.x0 + half_width
    dx = (x_max - x_min) / n
    x = x_min + dx * np.arange(n)
    amps = (2.0 * math.pi * prep.sigma2_A) ** -0.25 * np.exp(
        -((x - prep.x0) ** 2) / (4.0 * prep.sigma2_A)
    )
    amps = amps.astype(complex)
    amps /= math.sqrt(float((np.abs(amps) ** 2).sum() * dx))
    return GridState(x_min=x_min, x_max=x_max, n=n, amps=amps)


def propagate_spectral(g: GridState, mass: float, t: float, c: Constants) -> GridState:
    """Evolve a grid state for time t by phasing its Fourier modes.

    Mode k picks up the dispersion phase exp(-i*hbar*k^2*t/(2m)).
    """
    # Positive conditions, so that a NaN fails them.
    if not 0.0 <= t < math.inf:
        raise ValueError(f"time must be finite and >= 0, got {t}")
    if not 0.0 < mass < math.inf:
        raise ValueError(f"mass must be positive and finite, got {mass}")
    k = 2.0 * math.pi * np.fft.fftfreq(g.n, d=g.dx)
    phases = np.exp(-1j * c.hbar * k * k * t / (2.0 * mass))
    amps = np.fft.ifft(np.fft.fft(g.amps) * phases)
    return GridState(x_min=g.x_min, x_max=g.x_max, n=g.n, amps=amps)


def grid_variance(g: GridState) -> float:
    """Position variance sum x^2 |psi|^2 dx - (sum x |psi|^2 dx)^2."""
    w = g.density() * g.dx
    x = g.x
    mean = float((x * w).sum())
    return float((x * x * w).sum()) - mean * mean


def unitary_evolve_2x2(
    h: TwoLevelHamiltonian, state: TwoLevelState, t: float, c: Constants
) -> TwoLevelState:
    """Apply exp(-iHt/hbar) by numerical diagonalization of H.

    Deliberately independent of the closed-form eigenpairs: numpy's
    symmetric eigensolver supplies the basis, so this path cross-checks the
    analytic evolution.
    """
    w, v = np.linalg.eigh(h.matrix())
    _phase(float(np.max(np.abs(w))), t, c)  # check the delay, and that no phase overflows
    psi0 = np.array([state.amp0, state.amp1])
    psi_t = v @ (np.exp(-1j * w * t / c.hbar) * (v.T @ psi0))
    return TwoLevelState(amp0=complex(psi_t[0]), amp1=complex(psi_t[1]))
