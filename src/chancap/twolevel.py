"""Exact dynamics of the two-level tunneling channel and its induced binary channel.

The system Hamiltonian is

    H = [[E, eps], [eps, E + Delta]],

with level gap Delta >= 0 and tunneling strength eps >= 0. Its eigenpairs
are known in closed form through b = Delta/2 and a = sqrt(b^2 + eps^2):
energies E +- a + b with eigenvectors (sqrt(a -+ b), +-sqrt(a +- b)) / sqrt(2a).

Alice prepares sqrt(1-p)|0> + sqrt(p)|1>. The measurement probabilities
oscillate with angular frequency 2a/hbar (period T0 = pi*hbar/a); their
oscillation amplitude is set by

    zeta_p = (eps/2) * (eps*(1 - 2p) + 2*b*sqrt(p*(1-p))).

Using the two preparations p = r0 and p = 1 - r0 as the binary input
alphabet turns the measurement into a 2x2 discrete channel.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .units import Constants, _delay, _elementwise, _require

__all__ = [
    "TwoLevelHamiltonian",
    "PrepBias",
    "TwoLevelState",
    "EigenSystem",
    "BinaryChannel",
    "eigensystem",
    "evolve",
    "transition_probs",
    "period",
    "eps_for_gamma",
    "channel_at",
    "channel_matrices",
]

#: Magnitude below which floating-point excursions outside [0, 1] are
#: treated as cancellation noise and clamped.
PROB_CLAMP = 1e-12


@dataclass(frozen=True)
class TwoLevelHamiltonian:
    """Symmetric 2x2 Hamiltonian [[E, eps], [eps, E + Delta]].

    Negative eps is rejected: the closed forms below assume eps >= 0
    (zeta_p is not even in eps).
    """

    E: float
    Delta: float
    epsilon: float

    def __post_init__(self) -> None:
        # Positive conditions, so that a NaN fails them.
        if not -math.inf < self.E < math.inf:
            raise ValueError(f"E must be finite, got {self.E}")
        if not 0.0 <= self.Delta < math.inf:
            raise ValueError(f"Delta must be finite and >= 0, got {self.Delta}")
        if not self.E + self.Delta < math.inf:
            raise ValueError(f"E + Delta must be finite, got inf from E = {self.E} and Delta = {self.Delta}")
        if not 0.0 <= self.epsilon < math.inf:
            raise ValueError(f"epsilon must be finite and >= 0, got {self.epsilon}")
        if not self.a < math.inf:
            raise ValueError(f"a = hypot(Delta/2, epsilon) must be finite, got inf "
                             f"from Delta = {self.Delta} and epsilon = {self.epsilon}")

    @property
    def a(self) -> float:
        """Half the level splitting: sqrt(b^2 + eps^2) = sqrt(Delta^2 + 4*eps^2) / 2."""
        return math.hypot(self.b, self.epsilon)

    @property
    def b(self) -> float:
        """Half the bare gap: Delta / 2."""
        return 0.5 * self.Delta

    def matrix(self) -> np.ndarray:
        return np.array([[self.E, self.epsilon], [self.epsilon, self.E + self.Delta]])


@dataclass(frozen=True)
class PrepBias:
    """Preparation bias p: probability of measuring |1> at t = 0."""

    p: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"prep bias must lie in [0, 1], got {self.p}")

    @property
    def variance(self) -> float:
        """Bernoulli variance p(1-p) of the preparation."""
        return self.p * (1.0 - self.p)


@dataclass(frozen=True)
class TwoLevelState:
    """Normalized amplitudes over the measurement basis {|0>, |1>}."""

    amp0: complex
    amp1: complex

    def __post_init__(self) -> None:
        norm = abs(self.amp0) ** 2 + abs(self.amp1) ** 2
        # A positive condition, so that a NaN fails it.
        if not abs(norm - 1.0) <= 1e-12:
            raise ValueError(f"state norm deviates from 1 by {abs(norm - 1.0):.3e}")

    def populations(self) -> tuple[float, float]:
        return abs(self.amp0) ** 2, abs(self.amp1) ** 2


@dataclass(frozen=True)
class EigenSystem:
    """Eigenpairs of a two-level Hamiltonian, labeled by energy."""

    E_plus: float
    E_minus: float
    v_plus: np.ndarray
    v_minus: np.ndarray


def stochastic_rows(m) -> np.ndarray:
    """Validate row-stochastic matrices, rows along the last axis, and clip them to [0, 1].

    Entries may stray from [0, 1], and row sums from 1, by PROB_CLAMP of
    cancellation noise; anything further, or a NaN, is rejected. A stack of
    matrices is checked in one pass.
    """
    m = np.asarray(m, dtype=float)
    # Positive conditions, so that a NaN fails them; `initial` keeps an empty stack valid.
    if not (m.min(initial=0.0) >= -PROB_CLAMP and m.max(initial=1.0) <= 1.0 + PROB_CLAMP):
        _require((m >= -PROB_CLAMP) & (m <= 1.0 + PROB_CLAMP), m,
                 "transition probabilities stray from [0, 1] beyond cancellation noise, got {}")
    rowsums = m.sum(axis=-1)
    if not abs(rowsums - 1.0).max(initial=0.0) <= PROB_CLAMP:
        k = np.argmin(abs(rowsums.ravel() - 1.0) <= PROB_CLAMP)
        raise ValueError(f"rows must sum to 1, got {rowsums.flat[k]} for {m.reshape(rowsums.size, -1)[k].tolist()}")
    return np.clip(m, 0.0, 1.0)


@dataclass(frozen=True)
class BinaryChannel:
    """Row-stochastic 2x2 transition matrix p(y|x)."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (2, 2):
            raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
        object.__setattr__(self, "matrix", stochastic_rows(m))


def eigensystem(h: TwoLevelHamiltonian) -> EigenSystem:
    """Closed-form eigenpairs E +- a + b, (sqrt(a -+ b), +-sqrt(a +- b))/sqrt(2a).

    The degenerate point a = 0 (Delta = eps = 0) returns the standard basis
    with both energies E. An energy that overflows raises ValueError.
    """
    a, b = h.a, h.b
    if a == 0.0:
        return EigenSystem(
            E_plus=h.E,
            E_minus=h.E,
            v_plus=np.array([1.0, 0.0]),
            v_minus=np.array([0.0, 1.0]),
        )
    e_plus, e_minus = h.E + a + b, h.E - a + b
    if not (-math.inf < e_minus and e_plus < math.inf):
        raise ValueError(f"energies E - a + b = {e_minus} and E + a + b = {e_plus} must be finite, "
                         f"for E = {h.E}, Delta = {h.Delta} and epsilon = {h.epsilon}")
    # Scaled by an even power of two, so that each square root scales exactly
    # and 2a and a + b stay in range; the vectors do not depend on the scale.
    k = -2 * (math.frexp(a)[1] // 2)
    a, b, eps = math.ldexp(a, k), math.ldexp(b, k), math.ldexp(h.epsilon, k)
    s = 1.0 / math.sqrt(2.0 * a)
    root_apb = math.sqrt(a + b)
    # sqrt(a - b) = eps / sqrt(a + b), as (a - b)(a + b) = eps^2: a - b cancels when eps << Delta.
    root_amb = eps / root_apb
    v_plus = np.array([root_amb, root_apb]) * s
    v_minus = np.array([root_apb, -root_amb]) * s
    return EigenSystem(E_plus=e_plus, E_minus=e_minus, v_plus=v_plus, v_minus=v_minus)


def _phase(rate, t, c: Constants):
    """The phase rate*t/hbar of a delay t, a float or an array of t's shape.

    A delay that units._delay rejects, or one whose phase or twice it
    overflows, raises ValueError naming it, with no warning.
    """
    _delay(t)
    with np.errstate(over="ignore"):  # an overflowed phase is rejected below, not warned about
        phase = rate * t / c.hbar
    if (ok := abs(phase) < 2.0**1023) is not True:
        _require(ok, t, f"delay t = {{}} gives a phase {rate} * t / hbar (hbar = {c.hbar}) of 2**1023 or more")
    return phase


def evolve(h: TwoLevelHamiltonian, p: PrepBias, t: float, c: Constants) -> TwoLevelState:
    """Amplitudes of the evolved preparation sqrt(1-p)|0> + sqrt(p)|1>.

    Closed form: up to the global phase exp(-i(E+b)t/hbar),

        amp0 = sqrt(1-p) cos(at/hbar) + i (b sqrt(1-p) - eps sqrt(p)) sin(at/hbar) / a
        amp1 = sqrt(p)   cos(at/hbar) - i (eps sqrt(1-p) + b sqrt(p)) sin(at/hbar) / a

    A delay that is NaN, negative or infinite, or whose phase at/hbar or
    (E+b)t/hbar reaches 2**1023, raises ValueError.
    """
    a, b, eps = h.a, h.b, h.epsilon
    c0 = math.sqrt(1.0 - p.p)
    c1 = math.sqrt(p.p)
    if a == 0.0:
        phase = cmath.exp(-1j * _phase(h.E, t, c))
        return TwoLevelState(amp0=phase * c0, amp1=phase * c1)
    theta = _phase(a, t, c)
    phase = cmath.exp(-1j * _phase(h.E + b, t, c))
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    amp0 = phase * (c0 * cos_t + 1j * (b * c0 - eps * c1) * sin_t / a)
    amp1 = phase * (c1 * cos_t - 1j * (eps * c0 + b * c1) * sin_t / a)
    return TwoLevelState(amp0=amp0, amp1=amp1)


def _probs(h: TwoLevelHamiltonian, preps, t, c: Constants) -> list:
    """Unsnapped (prob0, prob1) of each PrepBias in preps, a delay t after preparation.

    (prob0, prob1) = ( [ zeta_p cos(2at/hbar) + a^2 (1-p) - zeta_p ] / a^2,
                       [-zeta_p cos(2at/hbar) + a^2 p     + zeta_p ] / a^2 ),

    with zeta_p = (eps/2)(eps(1-2p) + 2b sqrt(p(1-p))). Static when a = 0.
    The delay guard, the cos map and the scaling are shared by all of preps.
    The phase takes a; the rest takes (a, b, eps) / 2**k, exactly, with a / 2**k
    in [1/2, 1). Each step then rounds as unscaled unless it is subnormal either
    way, and a*a stays in range: every Delta and eps whose a and phase are finite
    give valid rows.
    """
    a, b, eps = h.a, h.b, h.epsilon
    theta = _phase(a, t, c)
    if a == 0.0:
        return [(_elementwise(lambda _: 1.0 - p.p, t), _elementwise(lambda _: p.p, t)) for p in preps]
    # 2(at/hbar) is (2a)t/hbar exactly, and stays finite where 2a alone would not.
    cos2 = _elementwise(math.cos, 2.0 * theta)
    k = -math.frexp(a)[1]
    a, b, eps = math.ldexp(a, k), math.ldexp(b, k), math.ldexp(eps, k)
    a2 = a * a
    zetas = (0.5 * eps * (eps * (1.0 - 2.0 * p.p) + 2.0 * b * math.sqrt(p.variance)) for p in preps)
    return [((zeta * cos2 + a2 * (1.0 - p.p) - zeta) / a2, (-zeta * cos2 + a2 * p.p + zeta) / a2)
            for p, zeta in zip(preps, zetas)]


def transition_probs(h: TwoLevelHamiltonian, p: PrepBias, t, c: Constants):
    """Probabilities (prob0, prob1) of measuring |0> and |1> a delay t after preparation.

    The pair of _probs, snapped by stochastic_rows: a value past PROB_CLAMP
    outside [0, 1] raises "stray from", a sum off 1 by more than PROB_CLAMP
    "rows must sum to 1"; no valid input reaches either. t is a float, giving two
    floats, or an ndarray, giving two arrays of its shape. A delay that is
    NaN, negative or infinite, or whose phase at/hbar reaches 2**1023, raises
    ValueError.
    """
    m = stochastic_rows(np.stack(_probs(h, (p,), t, c)[0], axis=-1))
    if isinstance(t, np.ndarray):
        return m[..., 0], m[..., 1]
    return float(m[0]), float(m[1])


def period(h: TwoLevelHamiltonian, c: Constants) -> float:
    """Oscillation period T0 = 2*pi*hbar / sqrt(Delta^2 + 4*eps^2)."""
    a = h.a
    if a == 0.0:
        raise ValueError("Delta = epsilon = 0 gives a static channel with no period")
    if not (t0 := math.pi * c.hbar / a) < math.inf:
        raise ValueError(f"period pi * hbar / a overflows for a = {a} and hbar = {c.hbar}")
    return t0


def eps_for_gamma(gamma: float) -> float:
    """Tunneling strength eps = 2/sqrt(gamma^2 + 4) of the Delta = gamma*eps family.

    Every member has a = 1, so the period is pi*hbar whatever gamma is.
    Taken as 2/hypot(gamma, 2), since gamma**2 overflows for gamma above
    about 1.3e154. A gamma that is NaN, negative or infinite raises ValueError.
    """
    # Positive condition, so that a NaN fails it.
    if not 0.0 <= gamma < math.inf:
        raise ValueError(f"gamma must be finite and >= 0, got {gamma}")
    return 2.0 / math.hypot(gamma, 2.0)


def channel_matrices(h: TwoLevelHamiltonian, r0: PrepBias, t, c: Constants) -> np.ndarray:
    """Transition matrices of the channels induced at delays t, shape np.shape(t) + (2, 2).

    Row 0 is the preparation p = r0 (input 0), row 1 is p = 1 - r0 (input 1).
    r0 is restricted to [0, 1/2]; larger values merely relabel the inputs.
    Both rows come from one evaluation, and the whole stack is validated and
    clipped as BinaryChannel does, in one pass.
    """
    if r0.p > 0.5:
        raise ValueError(f"r0 must lie in [0, 1/2], got {r0.p}")
    rows = np.array(_probs(h, (r0, PrepBias(1.0 - r0.p)), t, c))
    # (row, output, *t.shape) -> (*t.shape, row, output)
    return stochastic_rows(np.moveaxis(rows, (0, 1), (-2, -1)))


def channel_at(h: TwoLevelHamiltonian, r0: PrepBias, t: float, c: Constants) -> BinaryChannel:
    """Binary channel induced by the preparations p = r0 (input 0) and p = 1 - r0 (input 1).

    channel_matrices at one delay, as a BinaryChannel.
    """
    return BinaryChannel(matrix=channel_matrices(h, r0, t, c))
