"""Acceptance suite: every exit criterion at its stated tolerance.

Run with ``pytest -v -s tests/test_acceptance.py`` to see one summary line
per criterion. The full suite is sized to finish in well under a minute;
criterion 5's exhaustive 1e-6 grid scans take most of that time.
"""

import math

import numpy as np
import pytest

from chancap import gaussian, infotheory, kernels, oracle, verify
from chancap.cli import main
from chancap.twolevel import (
    BinaryChannel,
    PrepBias,
    TwoLevelHamiltonian,
    channel_at,
    evolve,
    period,
    transition_probs,
)
from chancap.units import UnitMode, constants_for

NAT = constants_for(UnitMode.NATURAL)
SI = constants_for(UnitMode.SI)


def report(num: int, name: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num} {name}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"criterion {num} ({name}): {detail}"


def test_criterion_1_optimal_precision_threshold():
    """Grid search over the preparation variance bottoms out at v* = hbar t / 2m,
    where the noise equals hbar t / m."""
    rng = np.random.default_rng(1001)
    worst_rel = 0.0
    argmin_hits = 0
    draws = 100
    for _ in range(draws):
        mass = float(rng.uniform(0.2, 5.0))
        t = float(rng.uniform(0.1, 5.0))
        vstar = gaussian.optimal_sigma2(t, mass, NAT)
        grid = np.logspace(math.log10(vstar) - 2, math.log10(vstar) + 2, 1001)
        noise = np.array([
            gaussian.noise_variance(gaussian.GaussianPrep(0.0, float(s), mass), t, NAT)
            for s in grid
        ])
        nearest = int(np.argmin(np.abs(np.log(grid) - math.log(vstar))))
        if int(np.argmin(noise)) == nearest:
            argmin_hits += 1
        floor = NAT.hbar * t / mass
        worst_rel = max(worst_rel, abs(float(noise.min()) - floor) / floor)
    report(
        1,
        "optimal-precision-threshold",
        argmin_hits == draws and worst_rel < 1e-10,
        f"argmin at nearest-to-v* grid point in {argmin_hits}/{draws} draws, "
        f"worst |min - hbar*t/m| relative {worst_rel:.3e} vs 1e-10",
    )


def test_criterion_2_spectral_oracle_vs_closed_form():
    """FFT propagation on a 2^12 grid reproduces the dispersed Gaussian."""
    prep = gaussian.GaussianPrep(x0=0.0, sigma2_A=1.0, mass=1.0)
    g0 = oracle.discretize(prep, t_max=2.0, n=4096, c=NAT)
    worst_sup = 0.0
    worst_var = 0.0
    for t in (0.5, 1.0, 2.0):
        gt = oracle.propagate_spectral(g0, prep.mass, t, NAT)
        rho = gaussian.density_at(prep, gt.x, t, NAT)
        worst_sup = max(worst_sup, float(np.max(np.abs(gt.density() - rho))))
        ref = gaussian.noise_variance(prep, t, NAT)
        worst_var = max(worst_var, abs(oracle.grid_variance(gt) - ref) / ref)
    # spot value: Delta^2 = 1.25 at t = 1
    var_t1 = oracle.grid_variance(oracle.propagate_spectral(g0, 1.0, 1.0, NAT))
    ok = worst_sup < 1e-6 and worst_var < 1e-4 and abs(var_t1 - 1.25) / 1.25 < 1e-4
    report(
        2,
        "spectral-oracle-vs-closed-form",
        ok,
        f"sup-norm {worst_sup:.3e} vs 1e-6, variance rel dev {worst_var:.3e} vs 1e-4, "
        f"variance(t=1) = {var_t1:.6f}",
    )


def test_criterion_3_two_level_closed_form_vs_unitary_oracle():
    """Closed-form transition probabilities match diagonalize-phase-recompose."""
    rng = np.random.default_rng(1003)
    worst_prob = 0.0
    worst_row = 0.0
    for _ in range(1000):
        h = TwoLevelHamiltonian(
            E=float(rng.uniform(-2, 2)),
            Delta=float(rng.uniform(0, 3)),
            epsilon=float(rng.uniform(0, 3)),
        )
        p = PrepBias(float(rng.uniform(0, 1)))
        t = float(rng.uniform(0, 10))
        probs = transition_probs(h, p, t, NAT)
        ref = oracle.unitary_evolve_2x2(h, evolve(h, p, 0.0, NAT), t, NAT)
        worst_prob = max(
            worst_prob,
            abs(probs[0] - abs(ref.amp0) ** 2),
            abs(probs[1] - abs(ref.amp1) ** 2),
        )
        ch = channel_at(h, PrepBias(float(rng.uniform(0, 0.5))), t, NAT)
        worst_row = max(worst_row, float(np.max(np.abs(ch.matrix.sum(axis=1) - 1.0))))
    ok = worst_prob < 1e-10 and worst_row < 1e-12
    report(
        3,
        "two-level-closed-form-vs-oracle",
        ok,
        f"worst probability deviation {worst_prob:.3e} vs 1e-10, "
        f"worst row-sum deviation {worst_row:.3e} vs 1e-12",
    )


def test_criterion_4_periodicity():
    """Channel and capacity repeat after T0; the shared-frequency family has T0 = pi."""
    rng = np.random.default_rng(1004)
    worst = 0.0
    for _ in range(100):
        h = TwoLevelHamiltonian(
            E=float(rng.uniform(-2, 2)),
            Delta=float(rng.uniform(0, 3)),
            epsilon=float(rng.uniform(0.05, 3)),
        )
        r0 = PrepBias(float(rng.uniform(0, 0.5)))
        t = float(rng.uniform(0, 10))
        t0 = period(h, NAT)
        m1 = channel_at(h, r0, t, NAT).matrix
        m2 = channel_at(h, r0, t + t0, NAT).matrix
        worst = max(worst, float(np.max(np.abs(m1 - m2))))
        c1 = infotheory.two_level_capacity(h, r0, t, NAT).capacity
        c2 = infotheory.two_level_capacity(h, r0, t + t0, NAT).capacity
        worst = max(worst, abs(c1 - c2))
    worst_t0 = 0.0
    for gamma in (0.0, 1.0, 2.0, 4.0, 7.5):
        eps = 2.0 / math.sqrt(gamma**2 + 4.0)
        h = TwoLevelHamiltonian(E=0.0, Delta=gamma * eps, epsilon=eps)
        worst_t0 = max(worst_t0, abs(period(h, NAT) - math.pi))
    ok = worst < 1e-9 and worst_t0 < 1e-12
    report(
        4,
        "periodicity",
        ok,
        f"worst t vs t+T0 deviation {worst:.3e} vs 1e-9, "
        f"worst |T0 - pi| {worst_t0:.3e} vs 1e-12",
    )


def test_criterion_5_capacity_solver_agreement():
    """Closed form, ternary search, alternating maximization and the 1e-6-step grid agree,
    on random channels and on verify's adversarial corners."""
    rng = np.random.default_rng(1005)
    matrices = []
    for _ in range(1000):
        m = rng.uniform(0, 1, (2, 2))
        m /= m.sum(axis=1, keepdims=True)
        matrices.append(m)
    matrices += [np.array([[a, 1 - a], [b, 1 - b]]) for a, b in verify.ADVERSARIAL_CHANNELS]
    worst = 0.0
    for m in matrices:
        ch = BinaryChannel(matrix=m)
        caps = (
            infotheory.capacity_binary(ch).capacity,
            kernels.capacity_ternary(float(ch.matrix[0, 0]), float(ch.matrix[1, 0]))[0],
            infotheory.capacity_grid(ch, step=1e-6).capacity,
            infotheory.blahut_arimoto(ch, tol=1e-9, max_iter=100_000).capacity,
        )
        assert all(math.isfinite(c) for c in caps), (m, caps)
        worst = max(worst, max(caps) - min(caps))
    bsc = BinaryChannel(matrix=np.array([[0.89, 0.11], [0.11, 0.89]]))
    bsc_dev = max(
        abs(infotheory.capacity_binary(bsc, base="bits").capacity - 0.500084041835472),
        abs(infotheory.capacity_grid(bsc, step=1e-6, base="bits").capacity - 0.500084041835472),
        abs(infotheory.blahut_arimoto(bsc, base="bits").capacity - 0.500084041835472),
    )
    ok = worst < 1e-5 and bsc_dev < 1e-6
    report(
        5,
        "capacity-solver-agreement",
        ok,
        f"worst pairwise disagreement {worst:.3e} nats vs 1e-5, "
        f"BSC(0.11) deviation {bsc_dev:.3e} bits vs 1e-6",
    )


def test_criterion_6_two_level_capacity_anchor_points():
    """Identity channel at full periods; swap and useless channels for gamma=0."""
    devs = []
    for gamma in (0.0, 1.0, 2.0, 4.0):
        eps = 2.0 / math.sqrt(gamma**2 + 4.0)
        h = TwoLevelHamiltonian(E=0.0, Delta=gamma * eps, epsilon=eps)
        t0 = period(h, NAT)
        devs.append(abs(infotheory.two_level_capacity(h, PrepBias(0.0), 0.0, NAT).capacity - 1))
        devs.append(abs(infotheory.two_level_capacity(h, PrepBias(0.0), t0, NAT).capacity - 1))
    h0 = TwoLevelHamiltonian(E=0.0, Delta=0.0, epsilon=1.0)
    t0 = period(h0, NAT)
    devs.append(abs(infotheory.two_level_capacity(h0, PrepBias(0.0), t0 / 2, NAT).capacity - 1))
    devs.append(abs(infotheory.two_level_capacity(h0, PrepBias(0.0), t0 / 4, NAT).capacity))
    worst = max(devs)
    report(
        6,
        "two-level-anchor-points",
        worst < 1e-9,
        f"worst anchor deviation {worst:.3e} bits vs 1e-9",
    )


def test_criterion_7_si_worked_numbers():
    """Optimal precision scales at atomic and macroscopic masses, contour value.

    The sqrt(hbar*t/m) scale at m = 1e-6 kg is 1.0269e-14 m; asserted
    against the hand-derived value and the order-of-magnitude 1e-14 claim.
    """
    atomic = math.sqrt(SI.hbar * 1.0 / 1e-27)
    macro = math.sqrt(SI.hbar * 1.0 / 1e-6)
    vstar = gaussian.optimal_sigma2(1.0, 1e-27, SI)
    prep = gaussian.GaussianPrep(x0=0.0, sigma2_A=vstar, mass=1e-27)
    contour_c = gaussian.capacity_nats(1.0, gaussian.noise_variance(prep, 1.0, SI))
    checks = {
        "atomic scale": abs(atomic / 3.2e-4 - 1.0) < 0.05,
        "atomic consistency": abs(math.sqrt(2 * vstar) / atomic - 1.0) < 1e-12,
        "macroscopic scale": abs(macro / 1.0269e-14 - 1.0) < 0.05,
        "macroscopic order": 1e-14 <= macro < 1e-13,
        "contour value": abs(contour_c - 8.032480466267351) < 1e-3,
    }
    report(
        7,
        "si-worked-numbers",
        all(checks.values()),
        f"sqrt(hbar t/m): atomic {atomic:.4e} m, macroscopic {macro:.4e} m, "
        f"contour C {contour_c:.6f} nats; failed: "
        f"{[k for k, v in checks.items() if not v] or 'none'}",
    )


def test_criterion_8_r0_monotonicity_findings():
    """Capacity should fall as the preparation variance r0(1-r0) grows.

    The claim is unproved, so grid cells that violate it are reported as
    findings rather than failures; the criterion checks that the sweep
    covers the full grid and that every cell's verdict is recorded.
    """
    cells = verify.monotonicity_findings()
    violations = [c for c in cells if c.max_violation > 1e-9]
    worst = max(c.max_violation for c in cells)
    for cell in violations:
        print(
            f"  FINDING: capacity rises by {cell.max_violation:.3e} along r0 "
            f"at gamma={cell.gamma:.3f}, t/T0={cell.t_over_period:.3f}"
        )
    coverage_ok = len(cells) == 400 and all(c.max_violation >= 0 for c in cells)
    report(
        8,
        "r0-monotonicity-findings",
        coverage_ok,
        f"{len(violations)}/400 cells violate the claim (worst excess {worst:.3e} "
        f"vs 1e-9 slack); violations are findings, not failures",
    )


def test_criterion_9_deterministic_outputs(tmp_path):
    """Re-running a figure subcommand with the same config is byte-identical."""
    commands = {
        "fig-gaussian": ["fig-gaussian", "--grid-points", "25"],
        "fig-two-level": ["fig-two-level", "--time-points", "25"],
        "contour": ["contour", "--mass-points", "5", "--t-points", "5"],
    }
    identical = {}
    for name, args in commands.items():
        out = tmp_path / f"{name}.csv"
        argv = args + ["--out", str(out)]
        assert main(argv) == 0
        first = out.read_bytes()
        assert main(argv) == 0
        identical[name] = out.read_bytes() == first
    report(
        9,
        "deterministic-outputs",
        all(identical.values()),
        f"byte-identical reruns: {identical}",
    )
