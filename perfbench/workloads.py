"""The four benchmark workloads.

Each workload turns (seed, op index) into one op's inputs, runs the op
through the public ``chancap`` API, and checks its output against
thresholds read by check name from ``verify.DEFAULT_TOLERANCES``. Layer
functions are looked up on their module at call time, so the tracer's
wrappers are seen.

An op's inputs depend only on the seed and the op index, so every run with
a given seed sees the same op sequence and the exact work counts repeat.

``run(x, between)`` calls ``between()`` between the steps of an op that has
several; the benchmark times each step and gauges the host's speed in
between, outside the timed steps.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

from chancap import cli, gaussian, infotheory, oracle, twolevel, verify
from chancap.units import UnitMode, constants_for

TOL = verify.DEFAULT_TOLERANCES
NAT = constants_for(UnitMode.NATURAL)
SI = constants_for(UnitMode.SI)


def _rng(seed: int, i: int) -> np.random.Generator:
    return np.random.default_rng([seed, i])


def _finite(*values) -> bool:
    return all(np.all(np.isfinite(v)) for v in values)


class SolverAgreement:
    """One 2x2 channel solved three ways: ternary search, Blahut-Arimoto, 1e-6 grid."""

    name = "solver-agreement"
    warmup_ops = 2
    count_ops = 40
    #: Every CORNER_EVERY-th op is an adversarial corner, cycling through
    #: CORNERS, so the corner share is fixed at 1/CORNER_EVERY.
    CORNER_EVERY = 8
    CORNERS = ("rows-within-1e-12", "entry-near-0", "entry-near-1", "both-near-0", "both-near-1")
    #: Step of the additive recurrence that spreads the uniform rows' four
    #: entries evenly over the unit cube: (1/phi)^(j+1) for j = 0..3, where
    #: phi is the real root of x^5 = x + 1.
    STEP = np.array([1.1673039782614187 ** -(j + 1) for j in range(4)])

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.tol = TOL["solver-agreement"]
        self.shift = np.random.default_rng(seed).uniform(0.0, 1.0, 4)

    def make_input(self, i: int) -> np.ndarray:
        """Op i's channel: uniform rows, or every CORNER_EVERY-th op an adversarial corner.

        Uniform rows are entries of (shift + i * STEP) mod 1, normalised by
        row. With the seeded shift, each input is uniform on the cube, and
        every stretch of ops covers the cube evenly. Independent draws left
        the share of slow inputs, Blahut-Arimoto's long iteration tail, to
        chance, which moved the p95 latency by about a tenth between seeds
        in a 30-s run.
        """
        if i % self.CORNER_EVERY != self.CORNER_EVERY - 1:
            m = ((self.shift + i * self.STEP) % 1.0).reshape(2, 2)
            return m / m.sum(axis=1, keepdims=True)
        rng = _rng(self.seed, i)
        kind = self.CORNERS[(i // self.CORNER_EVERY) % len(self.CORNERS)]
        a, u, v = rng.uniform(0.0, 1.0, 3)
        p00, p10 = {
            "rows-within-1e-12": (a, min(max(a + (2.0 * u - 1.0) * 1e-12, 0.0), 1.0)),
            "entry-near-0": (u * 1e-9, a),
            "entry-near-1": (1.0 - u * 1e-9, a),
            "both-near-0": (u * 1e-9, v * 1e-9),
            "both-near-1": (1.0 - u * 1e-9, 1.0 - v * 1e-9),
        }[kind]
        return np.array([[p00, 1.0 - p00], [p10, 1.0 - p10]])

    def run(self, m: np.ndarray, between):
        ch = infotheory.DMC(matrix=m)
        return (
            infotheory.capacity_binary(ch),
            infotheory.blahut_arimoto(ch, tol=1e-9, max_iter=100_000),
            infotheory.capacity_grid(ch, step=1e-6),
        )

    def check(self, m, out) -> tuple[bool, int]:
        caps = [r.capacity for r in out]
        if not _finite(caps):
            return False, 0
        spread = max(caps) - min(caps)
        return spread <= self.tol, 0

    def corrupt(self, m, out):
        tern, ba, grid = out
        return tern, ba, dataclasses.replace(grid, capacity=grid.capacity + 10 * self.tol)


class TwoLevelSweep:
    """One (gamma, t/T0) cell of the r0-monotonicity family at 51 r0 values."""

    name = "two-level-sweep"
    warmup_ops = 20
    count_ops = 200
    R0S = np.linspace(0.0, 0.5, 51)

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.bound_tol = TOL["capacity-bounds"]
        self.rise_tol = TOL["r0-monotonicity"]

    def make_input(self, i: int) -> tuple[float, float]:
        gamma, frac = _rng(self.seed, i).uniform(0.0, 1.0, 2)
        return 4.0 * float(gamma), float(frac)

    def run(self, x, between) -> list[float]:
        gamma, frac = x
        eps = 2.0 / math.sqrt(gamma**2 + 4.0)
        h = twolevel.TwoLevelHamiltonian(E=0.0, Delta=gamma * eps, epsilon=eps)
        t = frac * twolevel.period(h, NAT)
        return [
            infotheory.two_level_capacity(h, twolevel.PrepBias(float(r)), t, NAT).capacity
            for r in self.R0S
        ]

    def check(self, x, caps) -> tuple[bool, int]:
        if not _finite(caps):
            return False, 0
        in_bounds = all(-self.bound_tol <= c <= 1.0 + self.bound_tol for c in caps)
        useless_at_half = abs(caps[-1]) <= self.bound_tol
        rise = max(b - a for a, b in zip(caps, caps[1:]))
        return in_bounds and useless_at_half, int(rise > self.rise_tol)

    def corrupt(self, x, caps):
        return caps[:-1] + [10 * self.bound_tol]


class PlacementOracle:
    """One seeded preparation and delay through the FFT oracle, plus a capacity curve."""

    name = "placement-oracle"
    warmup_ops = 30
    count_ops = 300
    NS = (2048, 4096, 8192)
    #: sigma2/v* grid of fig-gaussian; index CENTER holds exactly 1.
    GRID = np.logspace(-2.0, 2.0, 401)
    CENTER = 200

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.draw_tol = TOL["spectral-random-draws"]
        self.var_tol = TOL["spectral-variance"]

    def make_input(self, i: int) -> dict:
        rng = _rng(self.seed, i)
        # The spectral-random-draws distribution of verify's gaussian suite.
        x0, sigma2, mass, t = rng.uniform([-1.0, 0.5, 0.5, 0.0], [1.0, 2.0, 2.0, 2.0])
        return {
            "x0": float(x0),
            "sigma2": float(sigma2),
            "mass": float(mass),
            "t": float(t),
            "n": int(rng.choice(self.NS)),
            "ratio": float(10.0 ** rng.uniform(-1.0, 2.0)),
        }

    def run(self, x: dict, between) -> dict:
        prep = gaussian.GaussianPrep(x0=x["x0"], sigma2_A=x["sigma2"], mass=x["mass"])
        g = oracle.discretize(prep, t_max=2.0, n=x["n"], c=NAT)
        gt = oracle.propagate_spectral(g, x["mass"], x["t"], NAT)
        vstar = gaussian.optimal_sigma2(x["t"], x["mass"], NAT)
        return {
            "density": gt.density(),
            "closed": gaussian.density_at(prep, gt.x, x["t"], NAT),
            "variance": oracle.grid_variance(gt),
            "noise": gaussian.noise_variance(prep, x["t"], NAT),
            "curve": gaussian.capacity_vs_precision_curve(
                x["t"], x["mass"], x["ratio"] * vstar, vstar * self.GRID, NAT
            ),
        }

    def check(self, x, out) -> tuple[bool, int]:
        if not _finite(*out.values()):
            return False, 0
        sup = float(np.max(np.abs(out["density"] - out["closed"])))
        rel_var = abs(out["variance"] - out["noise"]) / out["noise"]
        peak = int(np.argmax(out["curve"][:, 1]))
        ok = sup <= self.draw_tol and rel_var <= self.var_tol and peak == self.CENTER
        return ok, 0

    def corrupt(self, x, out):
        density = out["density"].copy()
        density[int(np.argmax(density))] += 10 * self.draw_tol
        return {**out, "density": density}


class CliTables:
    """One full default table set written through in-process ``cli.main``."""

    name = "cli-tables"
    # One set takes about 2 s; the cold op is warm-up enough.
    warmup_ops = 0
    count_ops = 2
    COMMANDS = (
        ("fig-gaussian",),
        ("fig-two-level",),
        ("contour",),
        ("evolve", "--channel", "gaussian", "--times", "0", "0.5", "1", "2"),
        ("evolve", "--channel", "two_level", "--times", "0", "0.5", "1", "2"),
    )

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.bound_tol = TOL["capacity-bounds"]
        self.floor_tol = TOL["noise-floor"]
        self.reference: list[str] | None = None

    def make_input(self, i: int) -> list[list[str]]:
        argvs = []
        for k, cmd in enumerate(self.COMMANDS):
            for fmt in ("csv", "json"):
                out = self.workdir / f"{k}-{cmd[0]}.{fmt}"
                argvs.append([*cmd, "--format", fmt, "--out", str(out), "--seed", str(self.seed)])
        return argvs

    def run(self, argvs, between) -> list[int]:
        """One step per table: a set takes seconds, over which the host's speed moves."""
        codes = []
        with contextlib.redirect_stdout(io.StringIO()):
            for k, argv in enumerate(argvs):
                if k:
                    between()
                codes.append(cli.main(argv))
        return codes

    @staticmethod
    def _table(argv) -> Path:
        return Path(argv[argv.index("--out") + 1])

    def _digests(self, argvs) -> list[str]:
        digests = []
        for argv in argvs:
            table = self._table(argv)
            for path in (table, table.with_suffix(".meta.json")):
                digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
        return digests

    def _values_ok(self, argvs) -> bool:
        """Check the CSV tables whose values the program can recompute.

        fig-two-level capacities lie in [0, 1] bit within capacity-bounds.
        Every contour row sits at the noise floor hbar*t/m: v* is half the
        floor, and the capacity is capacity_nats(P, floor), both within
        noise-floor.
        """
        # argvs holds each of COMMANDS as CSV, then as JSON.
        two_level = np.loadtxt(self._table(argvs[2]), delimiter=",", skiprows=1)
        caps = two_level[:, 2]
        in_bounds = np.all((caps >= -self.bound_tol) & (caps <= 1.0 + self.bound_tol))
        contour = self._table(argvs[4])
        p = json.loads(contour.with_suffix(".meta.json").read_text())["params"]["p_constraint"]
        mass, t, vstar, cap = np.loadtxt(contour, delimiter=",", skiprows=1).T
        floor = SI.hbar * t / mass
        ref = np.array([gaussian.capacity_nats(p, f) for f in floor])
        vstar_err = np.max(np.abs(vstar - floor / 2.0) / (floor / 2.0))
        cap_err = np.max(np.abs(cap - ref) / np.maximum(np.abs(ref), 1.0))
        return bool(in_bounds and vstar_err <= self.floor_tol and cap_err <= self.floor_tol)

    def check(self, argvs, codes) -> tuple[bool, int]:
        """Exit codes 0; the first set's values recomputed; every set identical to it."""
        if any(code != 0 for code in codes):
            return False, 0
        digests = self._digests(argvs)
        if self.reference is None:
            if not self._values_ok(argvs):
                return False, 0
            self.reference = digests
        return digests == self.reference, 0

    def corrupt(self, argvs, codes):
        with self._table(argvs[0]).open("ab") as f:
            f.write(b"0")
        return codes


WORKLOADS = {w.name: w for w in (SolverAgreement, TwoLevelSweep, PlacementOracle, CliTables)}
