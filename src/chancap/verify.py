"""Randomized verification suites: closed forms vs. brute-force oracles.

`CHECKS` is the one list of checks: for each suite, in report order, every
check name with its default tolerance and kind. A suite body is a generator
that draws each block of inputs in one `rng.uniform` call (`_uniform`),
evaluates a check on arrays where its closed form takes them, and yields
``(name, deviations)`` pairs, where deviations is a float or an array of any
shape. `run_suite` joins each check's deviations into one vector and reduces
it once: the check's worst deviation is the largest of 0 and the vector.
numpy's max keeps a NaN, so a NaN deviation fails its check. Tolerances can
be overridden per check name, which the test harness uses to prove that a
corrupted tolerance actually trips the suite.

A check that reports one signed value rather than a worst case yields
``(name, value, note)`` once instead: the value is reported as it is, and
``note(tolerance)`` gives the details text for the tolerance in force.

The r0-monotonicity sweep is special: it probes an unproved monotonicity
claim about the two-level capacity, so violations are reported as findings
and do not fail the suite.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from . import gaussian, infotheory, kernels, oracle
from .twolevel import (
    BinaryChannel,
    PrepBias,
    TwoLevelHamiltonian,
    channel_matrices,
    eigensystem,
    eps_for_gamma,
    evolve,
    period,
    transition_probs,
)
from .units import Constants, UnitMode, constants_for

__all__ = [
    "Check",
    "CheckResult",
    "SuiteReport",
    "MonotonicityCell",
    "CHECKS",
    "SUITES",
    "DEFAULT_TOLERANCES",
    "ADVERSARIAL_CHANNELS",
    "run_suite",
    "monotonicity_findings",
]


class Check(NamedTuple):
    tolerance: float
    kind: str = "invariant"  # "invariant" counts toward pass/fail, "finding" does not


#: Every check by suite, in report order, with its default tolerance and kind.
CHECKS: dict[str, dict[str, Check]] = {
    "gaussian": {
        "noise-floor": Check(1e-12),
        "noise-unimodal": Check(0.0),
        "capacity-monotone": Check(0.0),
        "capacity-time-monotone": Check(0.0),
        "wavefunction-density-match": Check(1e-12),
        "density-normalization": Check(1e-8),
        "vstar-hbar-scaling": Check(1e-15),
        "power-identity": Check(1e-12),
        "spectral-supnorm": Check(1e-6),
        "spectral-variance": Check(1e-4),
        "spectral-unitarity": Check(1e-10),
        "spectral-composition": Check(1e-10),
        "spectral-convergence": Check(0.0),
        "spectral-random-draws": Check(1e-6),
    },
    "two_level": {
        "eigen-residual": Check(1e-12),
        "eigen-orthonormal": Check(1e-12),
        "evolve-norm": Check(1e-12),
        "closed-vs-unitary-amps": Check(1e-10),
        "closed-vs-unitary-probs": Check(1e-10),
        "probs-vs-evolve": Check(1e-12),
        "channel-rows": Check(1e-12),
        "channel-periodicity": Check(1e-12),
        "epsilon-zero-static": Check(1e-15),
        "global-phase-invariance": Check(1e-12),
        "shared-frequency-period": Check(1e-12),
    },
    "infotheory": {
        "entropy-known-values": Check(1e-12),
        "mi-concavity": Check(1e-12),
        "solver-agreement": Check(1e-5),
        "bsc-known-capacity": Check(1e-6),
        "capacity-bounds": Check(1e-12),
        "capacity-periodicity": Check(1e-9),
        "r0-monotonicity": Check(1e-9, "finding"),
    },
}
SUITES = tuple(CHECKS)
DEFAULT_TOLERANCES: dict[str, float] = {
    name: check.tolerance for checks in CHECKS.values() for name, check in checks.items()
}

#: Binary entropy of 0.11 in bits, evaluated by hand.
H2_011_BITS = 0.499915958164528
#: Capacity of the binary symmetric channel with flip probability 0.11.
BSC_011_CAPACITY_BITS = 0.500084041835472

#: (p00, p10) channels that solver-agreement runs after its random draws:
#: rows within 1e-12 of each other, entries within 1e-9 of 0 or 1, and
#: entries far apart in scale. There the naive D = (h(a) - h(b))/(a - b)
#: loses its digits: 0.08 nats at (0.3, 0.3 + 1e-16) and 2.7e-4 nats at
#: (0.8, 0.8 + 1e-15), where the capacity is below 1e-30. The divided
#: difference ln hi - (lo/hi) ln(1-u)/u, taken for every pair, returns inf
#: at (1e-300, 0.5) and NaN at (0, 5e-324).
ADVERSARIAL_CHANNELS: tuple[tuple[float, float], ...] = (
    (0.3, 0.3 + 1e-16),  # adjacent doubles
    (0.8, 0.8 + 1e-15),
    (0.5, 0.5 + 1e-12),
    (0.9, 0.9 - 5e-13),
    (1e-6, 1e-6 + 1e-12),
    (1.0, 1.0 - 1e-9),  # Z-channel, capacity about 1e-9/e = 3.68e-10 nats
    (0.0, 1e-9),
    (1e-9, 3e-10),
    (1.0 - 1e-9, 1.0 - 4e-10),
    (1e-9, 0.7),
    (1.0 - 1e-9, 0.2),
    (1e-300, 0.5),
    (0.0, 5e-324),
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    tolerance: float
    max_deviation: float
    kind: str = "invariant"
    details: str = ""


@dataclass
class SuiteReport:
    suite: str
    seed: int
    trials: int
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks if c.kind == "invariant")

    def failing(self) -> list[CheckResult]:
        return [c for c in self.checks if c.kind == "invariant" and not c.passed]

    def to_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}


@dataclass(frozen=True)
class MonotonicityCell:
    gamma: float
    t_over_period: float
    max_violation: float


#: (low, high) of the uniform draws of a GaussianPrep's x0, sigma2_A and mass.
_PREP = ((-1.0, 1.0), (0.5, 2.0), (0.5, 2.0))
#: (low, high) of the uniform draws of a general TwoLevelHamiltonian's E, Delta and epsilon.
_HAMILTONIAN = ((-2.0, 2.0), (0.0, 3.0), (0.0, 3.0))


def _uniform(rng: np.random.Generator, n: int, *bounds: tuple[float, float]) -> np.ndarray:
    """n rows of draws, one column per (low, high) bound.

    Equal bit for bit to drawing the rows in order, one scalar at a time,
    and leaves the stream at the same place.
    """
    low, high = np.transpose(bounds)
    return rng.uniform(low, high, (n, len(bounds)))


def _random_hamiltonian(rng: np.random.Generator, i: int) -> TwoLevelHamiltonian:
    # Force the structural edge cases into every sweep.
    if i == 0:
        return TwoLevelHamiltonian(E=0.0, Delta=0.0, epsilon=0.0)
    if i == 1:
        return TwoLevelHamiltonian(E=float(rng.uniform(-2, 2)), Delta=float(rng.uniform(0, 3)), epsilon=0.0)
    if i == 2:
        return TwoLevelHamiltonian(E=float(rng.uniform(-2, 2)), Delta=0.0, epsilon=float(rng.uniform(0.1, 3)))
    return TwoLevelHamiltonian(*[float(rng.uniform(low, high)) for low, high in _HAMILTONIAN])


# ---------------------------------------------------------------------------
# gaussian suite
# ---------------------------------------------------------------------------


def _gaussian(rng: np.random.Generator, trials: int, c: Constants) -> Iterator[tuple]:
    tenth = max(trials // 10, 1)
    # noise floor: Delta_t^2 >= hbar t / m with equality exactly at v*
    mass, t, ratio = _uniform(rng, trials, (0.5, 2.0), (0.1, 3.0), (0.05, 20.0)).T
    floor = c.hbar * t / mass
    vstar = gaussian.optimal_sigma2(t, mass, c)
    # at sigma2, at v*, then 10% and 50% above and below v*
    noise = gaussian._noise(
        np.array([vstar * ratio, vstar, vstar * 1.1, vstar * 0.9, vstar * 1.5, vstar * 0.5]), mass, t, c.hbar
    )
    yield "noise-floor", (floor - noise[0]) / floor
    yield "noise-floor", abs(noise[1] - floor) / floor
    yield "noise-floor", (noise[1] - noise[2:]) / floor

    # unimodality: strictly decreasing below v*, strictly increasing above
    mass, t = _uniform(rng, tenth, (0.5, 2.0), (0.1, 3.0)).T[:, :, None]  # (n, 1): a grid row per draw
    grid = gaussian.optimal_sigma2(t, mass, c) * np.logspace(-1.5, 1.5, 41)
    steps, mid = np.diff(gaussian._noise(grid, mass, t, c.hbar)), grid.shape[1] // 2
    yield "noise-unimodal", steps[:, :mid]
    yield "noise-unimodal", -steps[:, mid:]

    # capacity monotone in P (up) and in noise (down), over a sorted pair of each per draw
    (p_lo, d_lo), (p_hi, d_hi) = np.sort(_uniform(rng, trials, *[(0.01, 10.0)] * 4).reshape(trials, 2, 2)).T
    at_lo = gaussian.capacity_nats(p_hi, d_lo)
    yield "capacity-monotone", (gaussian.capacity_nats(p_lo, d_lo) - at_lo)[p_lo < p_hi]
    yield "capacity-monotone", (gaussian.capacity_nats(p_hi, d_hi) - at_lo)[d_lo < d_hi]

    # capacity non-increasing in the measurement delay for fixed preparation (x0 is drawn, not used)
    draws = _uniform(rng, tenth, *_PREP, (0.1, 10.0), *[(0.0, 5.0)] * 8)
    sigma2_A, mass, P = draws[:, 1:4].T[:, :, None]  # (n, 1): a row of sorted delays per draw
    caps = gaussian.capacity_nats(P, gaussian._noise(sigma2_A, mass, np.sort(draws[:, 4:]), c.hbar))
    yield "capacity-time-monotone", np.diff(caps)

    # |psi(x,t)|^2 equals the closed-form density
    n_points = trials * 100
    for row in _uniform(rng, 16, *_PREP).tolist():
        prep = gaussian.GaussianPrep(*row)
        ts = rng.uniform(0.0, 3.0, size=n_points // 16)
        spread = np.sqrt(gaussian.noise_variance(prep, 3.0, c))
        xs = prep.x0 + rng.uniform(-4, 4, size=ts.size) * spread
        psi = gaussian.wavefunction_at(prep, xs, ts, c)
        rho = gaussian.density_at(prep, xs, ts, c)
        # Python abs() per element: np.abs and np.hypot do not round as it does.
        match = [abs(abs(p) ** 2 - r) for p, r in zip(psi.tolist(), rho.tolist())]
        yield "wavefunction-density-match", np.array(match)

    # density integrates to 1 over +-10 dispersed sigmas
    for x0, sigma2_A, mass, t in _uniform(rng, min(trials, 20), *_PREP, (0.0, 3.0)).tolist():
        prep = gaussian.GaussianPrep(x0, sigma2_A, mass)
        width = 10.0 * math.sqrt(gaussian.noise_variance(prep, t, c))
        x = np.linspace(prep.x0 - width, prep.x0 + width, 4096, endpoint=False)
        total = gaussian.density_at(prep, x, t, c).sum() * (2 * width / 4096)
        yield "density-normalization", abs(total - 1.0)

    # v* is proportional to hbar: scaling hbar by 10^-k scales v* by 10^-k
    for k in (1, 3, 9, 17):
        scaled = Constants(hbar=c.hbar * 10.0**-k, mode=c.mode)
        mass, t = _uniform(rng, 10, (0.5, 2.0), (0.1, 3.0)).T
        ref = gaussian.optimal_sigma2(t, mass, c) * 10.0**-k
        got = gaussian.optimal_sigma2(t, mass, scaled)
        yield "vstar-hbar-scaling", abs(got - ref) / ref

    # power = kinetic energy of the drag at constant speed sqrt(E[X^2]) / T, per cycle T + t
    for row in _uniform(rng, trials, (0.1, 5.0), (0.0, 5.0), (0.1, 5.0), (0.0, 5.0)).tolist():
        budget = gaussian.PowerBudget(*row)
        v = math.sqrt(budget.mean_square_X) / budget.prep_time_T
        ref = 0.5 * budget.mass * v * v / (budget.prep_time_T + budget.measure_delay_t)
        got = gaussian.placement_power(budget)
        yield "power-identity", abs(got - ref) / max(abs(ref), 1.0)

    # spectral oracle, benchmark case: unit packet, delays 0.5/1/2, 2^12 grid
    prep = gaussian.GaussianPrep(x0=0.0, sigma2_A=1.0, mass=1.0)
    g0 = oracle.discretize(prep, t_max=2.0, n=4096, c=c)
    for t in (0.5, 1.0, 2.0):
        gt = oracle.propagate_spectral(g0, prep.mass, t, c)
        rho = gaussian.density_at(prep, gt.x, t, c)
        yield "spectral-supnorm", float(np.max(np.abs(gt.density() - rho)))
        ref = gaussian.noise_variance(prep, t, c)
        yield "spectral-variance", abs(oracle.grid_variance(gt) - ref) / ref

    # unitarity and composition
    for x0, sigma2_A, mass, t1, t2 in _uniform(rng, min(trials, 100), *_PREP, (0.0, 1.0), (0.0, 1.0)).tolist():
        p = gaussian.GaussianPrep(x0, sigma2_A, mass)
        g = oracle.discretize(p, t_max=2.0, n=2048, c=c)
        g1 = oracle.propagate_spectral(g, p.mass, t1, c)
        yield "spectral-unitarity", abs(g1.norm() - 1.0)
        g12 = oracle.propagate_spectral(g1, p.mass, t2, c)
        g_both = oracle.propagate_spectral(g, p.mass, t1 + t2, c)
        yield "spectral-composition", float(np.max(np.abs(g12.amps - g_both.amps)))

    # refining the grid must reduce the sup-norm error (narrow packet so the
    # 2^12 grid undersamples the momentum tail)
    narrow = gaussian.GaussianPrep(x0=0.0, sigma2_A=0.003, mass=1.0)
    errs = {}
    for n in (4096, 8192):
        g = oracle.discretize(narrow, t_max=1.0, n=n, c=c)
        gt = oracle.propagate_spectral(g, narrow.mass, 1.0, c)
        rho = gaussian.density_at(narrow, gt.x, 1.0, c)
        errs[n] = float(np.max(np.abs(gt.density() - rho)))
    note = f"sup error {errs[4096]:.3e} at n=4096, {errs[8192]:.3e} at n=8192"
    yield "spectral-convergence", errs[8192] - errs[4096], lambda tol: note

    # randomized closed-form vs oracle sweep
    for x0, sigma2_A, mass, t in _uniform(rng, trials, *_PREP, (0.0, 2.0)).tolist():
        p = gaussian.GaussianPrep(x0, sigma2_A, mass)
        g = oracle.discretize(p, t_max=2.0, n=4096, c=c)
        gt = oracle.propagate_spectral(g, p.mass, t, c)
        rho = gaussian.density_at(prep=p, x=gt.x, t=t, c=c)
        yield "spectral-random-draws", float(np.max(np.abs(gt.density() - rho)))


# ---------------------------------------------------------------------------
# two-level suite
# ---------------------------------------------------------------------------


def _two_level(rng: np.random.Generator, trials: int, c: Constants) -> Iterator[tuple]:
    for i in range(trials):
        h = _random_hamiltonian(rng, i)
        p = PrepBias(float(rng.uniform(0.0, 1.0)))
        t = float(rng.uniform(0.0, 10.0))

        eig = eigensystem(h)
        m = h.matrix()
        for e, v in ((eig.E_plus, eig.v_plus), (eig.E_minus, eig.v_minus)):
            yield "eigen-residual", float(np.linalg.norm(m @ v - e * v))
        yield "eigen-orthonormal", abs(float(eig.v_plus @ eig.v_minus))
        for v in (eig.v_plus, eig.v_minus):
            yield "eigen-orthonormal", abs(float(v @ v) - 1.0)

        state = evolve(h, p, t, c)
        pops = state.populations()
        yield "evolve-norm", abs(pops[0] + pops[1] - 1.0)

        start = evolve(h, p, 0.0, c)
        ref = oracle.unitary_evolve_2x2(h, start, t, c)
        u = np.array([ref.amp0, ref.amp1])
        v = np.array([state.amp0, state.amp1])
        k = int(np.argmax(np.abs(v)))
        phase = (v[k] / u[k]) / abs(v[k] / u[k]) if abs(u[k]) > 0 else 1.0
        yield "closed-vs-unitary-amps", float(np.max(np.abs(v - phase * u)))

        probs = transition_probs(h, p, t, c)
        for prob, amp in zip(probs, (ref.amp0, ref.amp1)):
            yield "closed-vs-unitary-probs", abs(prob - abs(amp) ** 2)
        for prob, pop in zip(probs, pops):
            yield "probs-vs-evolve", abs(prob - pop)

        r0 = PrepBias(float(rng.uniform(0.0, 0.5)))
        yield "channel-rows", float(np.max(np.abs(channel_matrices(h, r0, t, c).sum(axis=1) - 1.0)))

    # periodicity of the induced channel
    for E, Delta, eps, r0, t in _uniform(rng, min(trials, 200), *_HAMILTONIAN, (0.0, 0.5), (0.0, 10.0)).tolist():
        h, r0 = TwoLevelHamiltonian(E, Delta, eps), PrepBias(r0)  # general: the a=0 case has no period
        m = channel_matrices(h, r0, np.array([t, t + period(h, c)]), c)
        yield "channel-periodicity", float(np.max(np.abs(m[0] - m[1])))

    # epsilon = 0 freezes the channel
    for E, Delta, r0, t in _uniform(rng, min(trials, 100), *_HAMILTONIAN[:2], (0.0, 0.5), (0.0, 20.0)).tolist():
        h, r0 = TwoLevelHamiltonian(E, Delta, 0.0), PrepBias(r0)
        m = channel_matrices(h, r0, np.array([0.0, t]), c)
        yield "epsilon-zero-static", float(np.max(np.abs(m[0] - m[1])))

    # shifting E only changes the global phase, never the probabilities
    for i in range(min(trials, 200)):
        h = _random_hamiltonian(rng, i)
        shift = float(rng.uniform(-10, 10))
        h2 = TwoLevelHamiltonian(E=h.E + shift, Delta=h.Delta, epsilon=h.epsilon)
        p = PrepBias(float(rng.uniform(0.0, 1.0)))
        t = float(rng.uniform(0.0, 10.0))
        a = transition_probs(h, p, t, c)
        b = transition_probs(h2, p, t, c)
        for x, y in zip(a, b):
            yield "global-phase-invariance", abs(x - y)

    # the eps_for_gamma family shares the period pi (hbar = 1)
    for gamma in np.linspace(0.0, 8.0, 33):
        eps = eps_for_gamma(gamma)
        h = TwoLevelHamiltonian(E=0.0, Delta=float(gamma * eps), epsilon=float(eps))
        yield "shared-frequency-period", abs(period(h, c) - math.pi)


# ---------------------------------------------------------------------------
# infotheory suite
# ---------------------------------------------------------------------------


def _stochastic(draws: np.ndarray) -> np.ndarray:
    """Rows of four uniform draws as 2x2 matrices, each row divided by its sum."""
    m = draws.reshape(-1, 2, 2)
    return m / m.sum(axis=2, keepdims=True)


def _four_capacities(ch: BinaryChannel) -> tuple[float, float, float, float]:
    """Capacity in nats by the closed form, ternary search, Blahut-Arimoto and the 1e-6 grid."""
    return (
        infotheory.capacity_binary(ch).capacity,
        kernels.capacity_ternary(float(ch.matrix[0, 0]), float(ch.matrix[1, 0]))[0],
        infotheory.blahut_arimoto(ch, tol=1e-9, max_iter=100_000).capacity,
        infotheory.capacity_grid(ch, step=1e-6).capacity,
    )


def _infotheory(rng: np.random.Generator, trials: int, c: Constants) -> Iterator[tuple]:
    # hand-computed entropies
    yield "entropy-known-values", abs(infotheory.shannon_entropy([0.5, 0.5], "bits") - 1.0)
    yield "entropy-known-values", abs(infotheory.shannon_entropy([1.0, 0.0], "bits"))
    yield "entropy-known-values", abs(infotheory.shannon_entropy([0.11, 0.89], "bits") - H2_011_BITS)

    # concavity of I(q) in the input distribution: its maximum is the one
    # stationary point the closed form solves for, and the ternary search
    # and the grid scan find it
    draws = _uniform(rng, trials, *[(0.0, 1.0)] * 6)
    for (p00, p10), (q1, q2) in zip(_stochastic(draws[:, :4])[:, :, 0].tolist(), draws[:, 4:].tolist()):
        mid = 0.5 * (q1 + q2)
        i1, i2, im = (kernels.mi_binary(p00, p10, q) for q in (q1, q2, mid))
        yield "mi-concavity", 0.5 * (i1 + i2) - im

    # four solvers agree pairwise: the closed form, the ternary search,
    # Blahut-Arimoto and the 1e-6 grid, on random and adversarial channels
    adversarial = [[[p00, 1.0 - p00], [p10, 1.0 - p10]] for p00, p10 in ADVERSARIAL_CHANNELS]
    matrices = np.concatenate((_stochastic(_uniform(rng, trials, *[(0.0, 1.0)] * 4)), adversarial))
    caps = np.array([_four_capacities(BinaryChannel(matrix=m)) for m in matrices])
    yield "solver-agreement", caps.max(axis=1) - caps.min(axis=1)

    # the flip-0.11 binary symmetric channel against its hand value
    bsc = BinaryChannel(matrix=np.array([[0.89, 0.11], [0.11, 0.89]]))
    for solve in (infotheory.capacity_binary, infotheory.capacity_grid, infotheory.blahut_arimoto):
        yield "bsc-known-capacity", abs(solve(bsc, base="bits").capacity - BSC_011_CAPACITY_BITS)

    # 0 <= C <= 1 bit over two-level channel samples
    for i in range(min(trials, 500)):
        h = _random_hamiltonian(rng, i)
        r0 = PrepBias(float(rng.uniform(0.0, 0.5)))
        t = float(rng.uniform(0.0, 10.0))
        cap = infotheory.two_level_capacity(h, r0, t, c, base="bits").capacity
        yield "capacity-bounds", -cap
        yield "capacity-bounds", cap - 1.0

    # capacity is periodic in the delay
    for E, Delta, eps, r0, t in _uniform(rng, min(trials, 100), *_HAMILTONIAN, (0.0, 0.5), (0.0, 10.0)).tolist():
        h, r0 = TwoLevelHamiltonian(E, Delta, eps), PrepBias(r0)
        c1, c2 = infotheory.two_level_capacities(h, r0, np.array([t, t + period(h, c)]), c).tolist()
        yield "capacity-periodicity", abs(c1 - c2)

    # the claimed monotonic decrease of capacity in r0(1-r0): findings only
    rises = np.array([cell.max_violation for cell in monotonicity_findings()])

    def note(tol: float) -> str:
        above = np.count_nonzero(~(rises <= tol))  # a NaN cell counts
        return f"{above} of {rises.size} cells violate the monotonicity claim"

    yield "r0-monotonicity", rises.max(), note


_BODIES = {"gaussian": _gaussian, "two_level": _two_level, "infotheory": _infotheory}


def monotonicity_findings() -> list[MonotonicityCell]:
    """Probe capacity monotonicity in the preparation variance r0(1-r0).

    Sweeps r0 over 51 points of [0, 1/2], along which r0(1-r0) increases, in
    each cell of a 20 x 20 (gamma, t/T0) grid in natural units, and records the
    largest capacity rise, or 0 (NaN if a capacity is NaN). The claim is
    unproved, so callers treat violations as findings rather than failures.
    """
    c = constants_for(UnitMode.NATURAL)
    r0s = np.linspace(0.0, 0.5, 51)
    fracs = np.linspace(0.0, 1.0, 20)
    cells = []
    for gamma in np.linspace(0.0, 4.0, 20):
        eps = eps_for_gamma(gamma)
        h = TwoLevelHamiltonian(E=0.0, Delta=float(gamma * eps), epsilon=float(eps))
        ts = fracs * period(h, c)
        caps = np.array([infotheory.two_level_capacities(h, PrepBias(float(r)), ts, c) for r in r0s])
        rises = np.diff(caps, axis=0).max(axis=0, initial=0.0).tolist()  # np.max keeps a NaN
        cells += [MonotonicityCell(float(gamma), frac, rise) for frac, rise in zip(fracs.tolist(), rises)]
    return cells


def run_suite(
    suite: str,
    seed: int = 42,
    trials: int = 1000,
    tolerances: dict[str, float] | None = None,
) -> list[SuiteReport]:
    """Run one named suite, or all of them in `CHECKS` order."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if suite != "all" and suite not in CHECKS:
        raise ValueError(f"unknown suite {suite!r}; expected one of {SUITES + ('all',)}")
    tolerances = tolerances or {}
    unknown = sorted(tolerances.keys() - DEFAULT_TOLERANCES.keys())
    if unknown:
        known = ", ".join(sorted(DEFAULT_TOLERANCES))
        raise ValueError(f"unknown check {', '.join(unknown)} in tolerances; expected one of: {known}")
    reports = []
    for name in SUITES if suite == "all" else (suite,):
        deviations = {check: [[]] for check in CHECKS[name]}  # the floats, then each array
        notes = {}
        body = _BODIES[name](np.random.default_rng(seed), trials, constants_for(UnitMode.NATURAL))
        for check, deviation, *note in body:
            if isinstance(deviation, float):  # into one list: np.concatenate converts each item on its own
                deviations[check][0].append(deviation)
            else:
                deviations[check].append(deviation)
            if note:
                notes[check] = note[0]
        report = SuiteReport(suite=name, seed=seed, trials=trials)
        for check, (default, kind) in CHECKS[name].items():
            tol = tolerances.get(check, default)
            vector = np.concatenate(deviations[check], axis=None)
            if check in notes:  # one value, reported as it is
                dev, details = float(vector[0]), notes[check](tol)
            else:  # the worst deviation, or 0; np.max keeps a NaN
                dev, details = float(np.max(vector, initial=0.0)), ""
            report.checks.append(CheckResult(check, bool(dev <= tol), tol, dev, kind, details))
        reports.append(report)
    return reports
