"""Randomized verification suites: closed forms vs. brute-force oracles.

Each suite runs a fixed list of named checks, records the worst observed
deviation against the check's tolerance, and returns a machine-readable
report. Tolerances can be overridden per check name, which the test
harness uses to prove that a corrupted tolerance actually trips the suite.

The r0-monotonicity sweep is special: it probes an unproved monotonicity
claim about the two-level capacity, so violations are reported as findings
and do not fail the suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import gaussian, infotheory, kernels, oracle
from .twolevel import (
    BinaryChannel,
    PrepBias,
    TwoLevelHamiltonian,
    channel_at,
    eigensystem,
    eps_for_gamma,
    evolve,
    period,
    transition_probs,
)
from .units import Constants, UnitMode, constants_for

__all__ = [
    "CheckResult",
    "SuiteReport",
    "MonotonicityCell",
    "SUITES",
    "DEFAULT_TOLERANCES",
    "ADVERSARIAL_CHANNELS",
    "run_suite",
    "run_gaussian_suite",
    "run_two_level_suite",
    "run_infotheory_suite",
    "monotonicity_findings",
]

SUITES = ("gaussian", "two_level", "infotheory")

DEFAULT_TOLERANCES: dict[str, float] = {
    "noise-floor": 1e-12,
    "noise-unimodal": 0.0,
    "capacity-monotone": 0.0,
    "capacity-time-monotone": 0.0,
    "wavefunction-density-match": 1e-12,
    "density-normalization": 1e-8,
    "vstar-hbar-scaling": 1e-15,
    "power-identity": 1e-12,
    "spectral-supnorm": 1e-6,
    "spectral-variance": 1e-4,
    "spectral-unitarity": 1e-10,
    "spectral-composition": 1e-10,
    "spectral-convergence": 0.0,
    "spectral-random-draws": 1e-6,
    "eigen-residual": 1e-12,
    "eigen-orthonormal": 1e-12,
    "evolve-norm": 1e-12,
    "closed-vs-unitary-amps": 1e-10,
    "closed-vs-unitary-probs": 1e-10,
    "probs-vs-evolve": 1e-12,
    "channel-rows": 1e-12,
    "channel-periodicity": 1e-12,
    "epsilon-zero-static": 1e-15,
    "global-phase-invariance": 1e-12,
    "shared-frequency-period": 1e-12,
    "entropy-known-values": 1e-12,
    "mi-concavity": 1e-12,
    "solver-agreement": 1e-5,
    "bsc-known-capacity": 1e-6,
    "capacity-bounds": 1e-12,
    "capacity-periodicity": 1e-9,
    "r0-monotonicity": 1e-9,
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
    kind: str = "invariant"  # "invariant" counts toward pass/fail, "finding" does not
    details: str = ""

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "tolerance": self.tolerance,
            "max_deviation": self.max_deviation,
            "kind": self.kind,
            "details": self.details,
        }


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
        return {
            "suite": self.suite,
            "seed": self.seed,
            "trials": self.trials,
            "passed": self.passed,
            "checks": [c.to_dict() for c in self.checks],
        }


@dataclass(frozen=True)
class MonotonicityCell:
    gamma: float
    t_over_period: float
    max_violation: float

    @property
    def passed(self) -> bool:
        return self.max_violation <= DEFAULT_TOLERANCES["r0-monotonicity"]


def _tol(name: str, overrides: dict[str, float] | None) -> float:
    if overrides and name in overrides:
        return overrides[name]
    return DEFAULT_TOLERANCES[name]


def _result(name: str, max_dev: float, tol: float, kind: str = "invariant", details: str = "") -> CheckResult:
    return CheckResult(
        name=name,
        passed=bool(max_dev <= tol),
        tolerance=tol,
        max_deviation=float(max_dev),
        kind=kind,
        details=details,
    )


def _random_prep(rng: np.random.Generator) -> gaussian.GaussianPrep:
    return gaussian.GaussianPrep(
        x0=float(rng.uniform(-1.0, 1.0)),
        sigma2_A=float(rng.uniform(0.5, 2.0)),
        mass=float(rng.uniform(0.5, 2.0)),
    )


def _random_hamiltonian(rng: np.random.Generator, i: int) -> TwoLevelHamiltonian:
    # Force the structural edge cases into every sweep.
    if i == 0:
        return TwoLevelHamiltonian(E=0.0, Delta=0.0, epsilon=0.0)
    if i == 1:
        return TwoLevelHamiltonian(E=float(rng.uniform(-2, 2)), Delta=float(rng.uniform(0, 3)), epsilon=0.0)
    if i == 2:
        return TwoLevelHamiltonian(E=float(rng.uniform(-2, 2)), Delta=0.0, epsilon=float(rng.uniform(0.1, 3)))
    return TwoLevelHamiltonian(
        E=float(rng.uniform(-2, 2)),
        Delta=float(rng.uniform(0, 3)),
        epsilon=float(rng.uniform(0, 3)),
    )


# ---------------------------------------------------------------------------
# gaussian suite
# ---------------------------------------------------------------------------


def run_gaussian_suite(
    seed: int, trials: int, tolerances: dict[str, float] | None = None
) -> SuiteReport:
    rng = np.random.default_rng(seed)
    c = constants_for(UnitMode.NATURAL)
    report = SuiteReport(suite="gaussian", seed=seed, trials=trials)
    add = report.checks.append

    # noise floor: Delta_t^2 >= hbar t / m with equality exactly at v*
    tol = _tol("noise-floor", tolerances)
    worst = 0.0
    for _ in range(trials):
        mass = float(rng.uniform(0.5, 2.0))
        t = float(rng.uniform(0.1, 3.0))
        floor = c.hbar * t / mass
        vstar = gaussian.optimal_sigma2(t, mass, c)
        sigma2 = vstar * float(rng.uniform(0.05, 20.0))
        prep = gaussian.GaussianPrep(x0=0.0, sigma2_A=sigma2, mass=mass)
        worst = max(worst, (floor - gaussian.noise_variance(prep, t, c)) / floor)
        at_opt = gaussian.noise_variance(
            gaussian.GaussianPrep(x0=0.0, sigma2_A=vstar, mass=mass), t, c
        )
        worst = max(worst, abs(at_opt - floor) / floor)
        for delta in (0.1, 0.5):
            for s in (vstar * (1 + delta), vstar * (1 - delta)):
                off = gaussian.noise_variance(
                    gaussian.GaussianPrep(x0=0.0, sigma2_A=s, mass=mass), t, c
                )
                worst = max(worst, (at_opt - off) / floor)
    add(_result("noise-floor", worst, tol))

    # unimodality: strictly decreasing below v*, strictly increasing above
    tol = _tol("noise-unimodal", tolerances)
    worst = 0.0
    for _ in range(max(trials // 10, 1)):
        mass = float(rng.uniform(0.5, 2.0))
        t = float(rng.uniform(0.1, 3.0))
        vstar = gaussian.optimal_sigma2(t, mass, c)
        grid = vstar * np.logspace(-1.5, 1.5, 41)
        noise = [
            gaussian.noise_variance(gaussian.GaussianPrep(0.0, float(s), mass), t, c)
            for s in grid
        ]
        mid = len(grid) // 2
        for i in range(mid):
            worst = max(worst, noise[i + 1] - noise[i])
        for i in range(mid, len(grid) - 1):
            worst = max(worst, noise[i] - noise[i + 1])
    add(_result("noise-unimodal", worst, tol))

    # capacity monotone in P (up) and in noise (down)
    tol = _tol("capacity-monotone", tolerances)
    worst = 0.0
    for _ in range(trials):
        p_lo, p_hi = sorted(rng.uniform(0.01, 10.0, size=2))
        d_lo, d_hi = sorted(rng.uniform(0.01, 10.0, size=2))
        if p_lo < p_hi:
            worst = max(worst, gaussian.capacity_nats(p_lo, d_lo) - gaussian.capacity_nats(p_hi, d_lo))
        if d_lo < d_hi:
            worst = max(worst, gaussian.capacity_nats(p_hi, d_hi) - gaussian.capacity_nats(p_hi, d_lo))
    add(_result("capacity-monotone", worst, tol))

    # capacity non-increasing in the measurement delay for fixed preparation
    tol = _tol("capacity-time-monotone", tolerances)
    worst = 0.0
    for _ in range(max(trials // 10, 1)):
        prep = _random_prep(rng)
        P = float(rng.uniform(0.1, 10.0))
        times = np.sort(rng.uniform(0.0, 5.0, size=8))
        caps = [gaussian.capacity_nats(P, gaussian.noise_variance(prep, float(t), c)) for t in times]
        for i in range(len(caps) - 1):
            worst = max(worst, caps[i + 1] - caps[i])
    add(_result("capacity-time-monotone", worst, tol))

    # |psi(x,t)|^2 equals the closed-form density
    tol = _tol("wavefunction-density-match", tolerances)
    worst = 0.0
    n_points = trials * 100
    preps = [_random_prep(rng) for _ in range(16)]
    for prep in preps:
        ts = rng.uniform(0.0, 3.0, size=n_points // 16)
        spread = np.sqrt(gaussian.noise_variance(prep, 3.0, c))
        xs = prep.x0 + rng.uniform(-4, 4, size=ts.size) * spread
        for x, t in zip(xs, ts):
            psi = gaussian.wavefunction_at(prep, float(x), float(t), c)
            rho = gaussian.density_at(prep, float(x), float(t), c)
            worst = max(worst, abs(abs(psi) ** 2 - rho))
    add(_result("wavefunction-density-match", worst, tol))

    # density integrates to 1 over +-10 dispersed sigmas
    tol = _tol("density-normalization", tolerances)
    worst = 0.0
    for _ in range(min(trials, 20)):
        prep = _random_prep(rng)
        t = float(rng.uniform(0.0, 3.0))
        width = 10.0 * math.sqrt(gaussian.noise_variance(prep, t, c))
        x = np.linspace(prep.x0 - width, prep.x0 + width, 4096, endpoint=False)
        total = gaussian.density_at(prep, x, t, c).sum() * (2 * width / 4096)
        worst = max(worst, abs(total - 1.0))
    add(_result("density-normalization", worst, tol))

    # v* is proportional to hbar: scaling hbar by 10^-k scales v* by 10^-k
    tol = _tol("vstar-hbar-scaling", tolerances)
    worst = 0.0
    for k in (1, 3, 9, 17):
        scaled = Constants(hbar=c.hbar * 10.0**-k, mode=c.mode)
        for _ in range(10):
            mass = float(rng.uniform(0.5, 2.0))
            t = float(rng.uniform(0.1, 3.0))
            ref = gaussian.optimal_sigma2(t, mass, c) * 10.0**-k
            got = gaussian.optimal_sigma2(t, mass, scaled)
            worst = max(worst, abs(got - ref) / ref)
    add(_result("vstar-hbar-scaling", worst, tol))

    # power = beta * E[X^2]
    tol = _tol("power-identity", tolerances)
    worst = 0.0
    for _ in range(trials):
        budget = gaussian.PowerBudget(
            prep_time_T=float(rng.uniform(0.1, 5.0)),
            measure_delay_t=float(rng.uniform(0.0, 5.0)),
            mass=float(rng.uniform(0.1, 5.0)),
            mean_square_X=float(rng.uniform(0.0, 5.0)),
        )
        ref = gaussian.beta(budget) * budget.mean_square_X
        got = gaussian.placement_power(budget)
        scale = max(abs(ref), 1.0)
        worst = max(worst, abs(got - ref) / scale)
    add(_result("power-identity", worst, tol))

    report.checks.extend(_spectral_checks(rng, trials, tolerances, c))
    return report


def _spectral_checks(
    rng: np.random.Generator,
    trials: int,
    tolerances: dict[str, float] | None,
    c: Constants,
) -> list[CheckResult]:
    checks = []

    # benchmark case: unit packet, delays 0.5/1/2, 2^12 grid
    sup_tol = _tol("spectral-supnorm", tolerances)
    var_tol = _tol("spectral-variance", tolerances)
    prep = gaussian.GaussianPrep(x0=0.0, sigma2_A=1.0, mass=1.0)
    worst_sup = 0.0
    worst_var = 0.0
    g0 = oracle.discretize(prep, t_max=2.0, n=4096, c=c)
    for t in (0.5, 1.0, 2.0):
        gt = oracle.propagate_spectral(g0, prep.mass, t, c)
        rho = gaussian.density_at(prep, gt.x, t, c)
        worst_sup = max(worst_sup, float(np.max(np.abs(gt.density() - rho))))
        ref = gaussian.noise_variance(prep, t, c)
        worst_var = max(worst_var, abs(oracle.grid_variance(gt) - ref) / ref)
    checks.append(_result("spectral-supnorm", worst_sup, sup_tol))
    checks.append(_result("spectral-variance", worst_var, var_tol))

    # unitarity and composition
    tol = _tol("spectral-unitarity", tolerances)
    worst = 0.0
    comp_tol = _tol("spectral-composition", tolerances)
    worst_comp = 0.0
    for _ in range(min(trials, 100)):
        p = _random_prep(rng)
        g = oracle.discretize(p, t_max=2.0, n=2048, c=c)
        t1 = float(rng.uniform(0.0, 1.0))
        t2 = float(rng.uniform(0.0, 1.0))
        g1 = oracle.propagate_spectral(g, p.mass, t1, c)
        worst = max(worst, abs(g1.norm() - 1.0))
        g12 = oracle.propagate_spectral(g1, p.mass, t2, c)
        g_both = oracle.propagate_spectral(g, p.mass, t1 + t2, c)
        worst_comp = max(worst_comp, float(np.max(np.abs(g12.amps - g_both.amps))))
    checks.append(_result("spectral-unitarity", worst, tol))
    checks.append(_result("spectral-composition", worst_comp, comp_tol))

    # refining the grid must reduce the sup-norm error (narrow packet so the
    # 2^12 grid undersamples the momentum tail)
    tol = _tol("spectral-convergence", tolerances)
    narrow = gaussian.GaussianPrep(x0=0.0, sigma2_A=0.003, mass=1.0)
    errs = {}
    for n in (4096, 8192):
        g = oracle.discretize(narrow, t_max=1.0, n=n, c=c)
        gt = oracle.propagate_spectral(g, narrow.mass, 1.0, c)
        rho = gaussian.density_at(narrow, gt.x, 1.0, c)
        errs[n] = float(np.max(np.abs(gt.density() - rho)))
    checks.append(
        _result(
            "spectral-convergence",
            errs[8192] - errs[4096],
            tol,
            details=f"sup error {errs[4096]:.3e} at n=4096, {errs[8192]:.3e} at n=8192",
        )
    )

    # randomized closed-form vs oracle sweep
    tol = _tol("spectral-random-draws", tolerances)
    worst = 0.0
    for _ in range(trials):
        p = _random_prep(rng)
        t = float(rng.uniform(0.0, 2.0))
        g = oracle.discretize(p, t_max=2.0, n=4096, c=c)
        gt = oracle.propagate_spectral(g, p.mass, t, c)
        rho = gaussian.density_at(prep=p, x=gt.x, t=t, c=c)
        worst = max(worst, float(np.max(np.abs(gt.density() - rho))))
    checks.append(_result("spectral-random-draws", worst, tol))
    return checks


# ---------------------------------------------------------------------------
# two-level suite
# ---------------------------------------------------------------------------


def run_two_level_suite(
    seed: int, trials: int, tolerances: dict[str, float] | None = None
) -> SuiteReport:
    rng = np.random.default_rng(seed)
    c = constants_for(UnitMode.NATURAL)
    report = SuiteReport(suite="two_level", seed=seed, trials=trials)
    add = report.checks.append

    worst_res = 0.0
    worst_orth = 0.0
    worst_norm = 0.0
    worst_amps = 0.0
    worst_probs = 0.0
    worst_self = 0.0
    worst_rows = 0.0
    for i in range(trials):
        h = _random_hamiltonian(rng, i)
        p = PrepBias(float(rng.uniform(0.0, 1.0)))
        t = float(rng.uniform(0.0, 10.0))

        eig = eigensystem(h)
        m = h.matrix()
        worst_res = max(
            worst_res,
            float(np.linalg.norm(m @ eig.v_plus - eig.E_plus * eig.v_plus)),
            float(np.linalg.norm(m @ eig.v_minus - eig.E_minus * eig.v_minus)),
        )
        worst_orth = max(
            worst_orth,
            abs(float(eig.v_plus @ eig.v_minus)),
            abs(float(eig.v_plus @ eig.v_plus) - 1.0),
            abs(float(eig.v_minus @ eig.v_minus) - 1.0),
        )

        state = evolve(h, p, t, c)
        pops = state.populations()
        worst_norm = max(worst_norm, abs(pops[0] + pops[1] - 1.0))

        start = evolve(h, p, 0.0, c)
        ref = oracle.unitary_evolve_2x2(h, start, t, c)
        u = np.array([ref.amp0, ref.amp1])
        v = np.array([state.amp0, state.amp1])
        k = int(np.argmax(np.abs(v)))
        phase = (v[k] / u[k]) / abs(v[k] / u[k]) if abs(u[k]) > 0 else 1.0
        worst_amps = max(worst_amps, float(np.max(np.abs(v - phase * u))))

        probs = transition_probs(h, p, t, c)
        worst_probs = max(
            worst_probs,
            abs(probs[0] - abs(ref.amp0) ** 2),
            abs(probs[1] - abs(ref.amp1) ** 2),
        )
        worst_self = max(worst_self, abs(probs[0] - pops[0]), abs(probs[1] - pops[1]))

        r0 = PrepBias(float(rng.uniform(0.0, 0.5)))
        ch = channel_at(h, r0, t, c)
        worst_rows = max(worst_rows, float(np.max(np.abs(ch.matrix.sum(axis=1) - 1.0))))

    add(_result("eigen-residual", worst_res, _tol("eigen-residual", tolerances)))
    add(_result("eigen-orthonormal", worst_orth, _tol("eigen-orthonormal", tolerances)))
    add(_result("evolve-norm", worst_norm, _tol("evolve-norm", tolerances)))
    add(_result("closed-vs-unitary-amps", worst_amps, _tol("closed-vs-unitary-amps", tolerances)))
    add(_result("closed-vs-unitary-probs", worst_probs, _tol("closed-vs-unitary-probs", tolerances)))
    add(_result("probs-vs-evolve", worst_self, _tol("probs-vs-evolve", tolerances)))
    add(_result("channel-rows", worst_rows, _tol("channel-rows", tolerances)))

    # periodicity of the induced channel
    tol = _tol("channel-periodicity", tolerances)
    worst = 0.0
    for i in range(min(trials, 200)):
        h = _random_hamiltonian(rng, i + 3)  # skip the a=0 case, it has no period
        if h.a == 0.0:
            continue
        r0 = PrepBias(float(rng.uniform(0.0, 0.5)))
        t = float(rng.uniform(0.0, 10.0))
        t0 = period(h, c)
        m1 = channel_at(h, r0, t, c).matrix
        m2 = channel_at(h, r0, t + t0, c).matrix
        worst = max(worst, float(np.max(np.abs(m1 - m2))))
    add(_result("channel-periodicity", worst, tol))

    # epsilon = 0 freezes the channel
    tol = _tol("epsilon-zero-static", tolerances)
    worst = 0.0
    for _ in range(min(trials, 100)):
        h = TwoLevelHamiltonian(
            E=float(rng.uniform(-2, 2)), Delta=float(rng.uniform(0, 3)), epsilon=0.0
        )
        r0 = PrepBias(float(rng.uniform(0.0, 0.5)))
        m0 = channel_at(h, r0, 0.0, c).matrix
        mt = channel_at(h, r0, float(rng.uniform(0.0, 20.0)), c).matrix
        worst = max(worst, float(np.max(np.abs(m0 - mt))))
    add(_result("epsilon-zero-static", worst, tol))

    # shifting E only changes the global phase, never the probabilities
    tol = _tol("global-phase-invariance", tolerances)
    worst = 0.0
    for i in range(min(trials, 200)):
        h = _random_hamiltonian(rng, i)
        shift = float(rng.uniform(-10, 10))
        h2 = TwoLevelHamiltonian(E=h.E + shift, Delta=h.Delta, epsilon=h.epsilon)
        p = PrepBias(float(rng.uniform(0.0, 1.0)))
        t = float(rng.uniform(0.0, 10.0))
        a = transition_probs(h, p, t, c)
        b = transition_probs(h2, p, t, c)
        worst = max(worst, abs(a[0] - b[0]), abs(a[1] - b[1]))
    add(_result("global-phase-invariance", worst, tol))

    # the eps_for_gamma family shares the period pi (hbar = 1)
    tol = _tol("shared-frequency-period", tolerances)
    worst = 0.0
    for gamma in np.linspace(0.0, 8.0, 33):
        eps = eps_for_gamma(gamma)
        h = TwoLevelHamiltonian(E=0.0, Delta=float(gamma * eps), epsilon=float(eps))
        worst = max(worst, abs(period(h, c) - math.pi))
    add(_result("shared-frequency-period", worst, tol))

    return report


# ---------------------------------------------------------------------------
# infotheory suite
# ---------------------------------------------------------------------------


def _random_channel(rng: np.random.Generator) -> BinaryChannel:
    m = rng.uniform(0.0, 1.0, size=(2, 2))
    m /= m.sum(axis=1, keepdims=True)
    return BinaryChannel(matrix=m)


def _four_capacities(ch: BinaryChannel) -> tuple[float, float, float, float]:
    """Capacity in nats by the closed form, ternary search, Blahut-Arimoto and the 1e-6 grid."""
    return (
        infotheory.capacity_binary(ch).capacity,
        kernels.capacity_ternary(float(ch.matrix[0, 0]), float(ch.matrix[1, 0]))[0],
        infotheory.blahut_arimoto(ch, tol=1e-9, max_iter=100_000).capacity,
        infotheory.capacity_grid(ch, step=1e-6).capacity,
    )


def run_infotheory_suite(
    seed: int, trials: int, tolerances: dict[str, float] | None = None
) -> SuiteReport:
    rng = np.random.default_rng(seed)
    c = constants_for(UnitMode.NATURAL)
    report = SuiteReport(suite="infotheory", seed=seed, trials=trials)
    add = report.checks.append

    # hand-computed entropies
    tol = _tol("entropy-known-values", tolerances)
    dev = max(
        abs(infotheory.shannon_entropy([0.5, 0.5], "bits") - 1.0),
        abs(infotheory.shannon_entropy([1.0, 0.0], "bits")),
        abs(infotheory.shannon_entropy([0.11, 0.89], "bits") - H2_011_BITS),
    )
    add(_result("entropy-known-values", dev, tol))

    # concavity of I(q) in the input distribution: its maximum is the one
    # stationary point the closed form solves for, and the ternary search
    # and the grid scan find it
    tol = _tol("mi-concavity", tolerances)
    worst = 0.0
    for _ in range(trials):
        ch = _random_channel(rng)
        q1, q2 = rng.uniform(0.0, 1.0, size=2)
        mid = 0.5 * (q1 + q2)
        i1 = kernels.mi_binary(ch.matrix[0, 0], ch.matrix[1, 0], q1)
        i2 = kernels.mi_binary(ch.matrix[0, 0], ch.matrix[1, 0], q2)
        im = kernels.mi_binary(ch.matrix[0, 0], ch.matrix[1, 0], mid)
        worst = max(worst, 0.5 * (i1 + i2) - im)
    add(_result("mi-concavity", worst, tol))

    # four solvers agree pairwise: the closed form, the ternary search,
    # Blahut-Arimoto and the 1e-6 grid, on random and adversarial channels
    tol = _tol("solver-agreement", tolerances)
    channels = [_random_channel(rng) for _ in range(trials)]
    channels += [
        BinaryChannel(matrix=np.array([[p00, 1.0 - p00], [p10, 1.0 - p10]]))
        for p00, p10 in ADVERSARIAL_CHANNELS
    ]
    caps = np.array([_four_capacities(ch) for ch in channels])
    # np.max propagates a NaN, which then fails the check.
    add(_result("solver-agreement", np.max(caps.max(axis=1) - caps.min(axis=1)), tol))

    # the flip-0.11 binary symmetric channel against its hand value
    tol = _tol("bsc-known-capacity", tolerances)
    bsc = BinaryChannel(matrix=np.array([[0.89, 0.11], [0.11, 0.89]]))
    dev = max(
        abs(infotheory.capacity_binary(bsc, base="bits").capacity - BSC_011_CAPACITY_BITS),
        abs(infotheory.capacity_grid(bsc, base="bits").capacity - BSC_011_CAPACITY_BITS),
        abs(infotheory.blahut_arimoto(bsc, base="bits").capacity - BSC_011_CAPACITY_BITS),
    )
    add(_result("bsc-known-capacity", dev, tol))

    # 0 <= C <= 1 bit over two-level channel samples
    tol = _tol("capacity-bounds", tolerances)
    worst = 0.0
    for i in range(min(trials, 500)):
        h = _random_hamiltonian(rng, i)
        r0 = PrepBias(float(rng.uniform(0.0, 0.5)))
        t = float(rng.uniform(0.0, 10.0))
        cap = infotheory.two_level_capacity(h, r0, t, c, base="bits").capacity
        worst = max(worst, -cap, cap - 1.0)
    add(_result("capacity-bounds", worst, tol))

    # capacity is periodic in the delay
    tol = _tol("capacity-periodicity", tolerances)
    worst = 0.0
    for i in range(min(trials, 100)):
        h = _random_hamiltonian(rng, i + 3)
        if h.a == 0.0:
            continue
        r0 = PrepBias(float(rng.uniform(0.0, 0.5)))
        t = float(rng.uniform(0.0, 10.0))
        t0 = period(h, c)
        c1 = infotheory.two_level_capacity(h, r0, t, c).capacity
        c2 = infotheory.two_level_capacity(h, r0, t + t0, c).capacity
        worst = max(worst, abs(c1 - c2))
    add(_result("capacity-periodicity", worst, tol))

    # the claimed monotonic decrease of capacity in r0(1-r0): findings only
    tol = _tol("r0-monotonicity", tolerances)
    cells = monotonicity_findings(c=c)
    violations = [cell for cell in cells if cell.max_violation > tol]
    worst = max((cell.max_violation for cell in cells), default=0.0)
    add(
        _result(
            "r0-monotonicity",
            worst,
            tol,
            kind="finding",
            details=f"{len(violations)} of {len(cells)} cells violate the monotonicity claim",
        )
    )

    return report


def monotonicity_findings(
    c: Constants | None = None,
    gamma_points: int = 20,
    time_points: int = 20,
    r0_points: int = 51,
) -> list[MonotonicityCell]:
    """Probe capacity monotonicity in the preparation variance r0(1-r0).

    For every (gamma, t/T0) cell, sweeps r0 over [0, 1/2] (along which
    r0(1-r0) increases) and records the largest observed capacity increase.
    The underlying claim is unproved, so callers treat violations as
    findings rather than failures.
    """
    if c is None:
        c = constants_for(UnitMode.NATURAL)
    r0s = np.linspace(0.0, 0.5, r0_points)
    fracs = np.linspace(0.0, 1.0, time_points)
    cells = []
    for gamma in np.linspace(0.0, 4.0, gamma_points):
        eps = eps_for_gamma(gamma)
        h = TwoLevelHamiltonian(E=0.0, Delta=float(gamma * eps), epsilon=float(eps))
        ts = fracs * period(h, c)
        by_r0 = [
            infotheory.two_level_capacities(h, PrepBias(float(r)), ts, c).tolist() for r in r0s
        ]
        for j, frac in enumerate(fracs):
            caps = [col[j] for col in by_r0]
            violation = max(
                (caps[i + 1] - caps[i] for i in range(len(caps) - 1)), default=0.0
            )
            cells.append(
                MonotonicityCell(
                    gamma=float(gamma),
                    t_over_period=float(frac),
                    max_violation=max(violation, 0.0),
                )
            )
    return cells


def run_suite(
    suite: str,
    seed: int = 42,
    trials: int = 1000,
    tolerances: dict[str, float] | None = None,
) -> list[SuiteReport]:
    """Run one named suite, or all of them."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    runners = {
        "gaussian": run_gaussian_suite,
        "two_level": run_two_level_suite,
        "infotheory": run_infotheory_suite,
    }
    if suite == "all":
        return [runners[name](seed, trials, tolerances) for name in SUITES]
    if suite not in runners:
        raise ValueError(f"unknown suite {suite!r}; expected one of {SUITES + ('all',)}")
    return [runners[suite](seed, trials, tolerances)]
