import itertools
import math

import numpy as np
import pytest

from chancap import gaussian, infotheory, verify
from chancap.twolevel import PrepBias, TwoLevelHamiltonian, period
from chancap.units import UnitMode, constants_for


class TestSuites:
    def test_gaussian_suite_passes(self):
        [report] = verify.run_suite("gaussian", seed=7, trials=30)
        assert report.passed, [c.name for c in report.failing()]
        assert report.suite == "gaussian"

    def test_two_level_suite_passes(self):
        [report] = verify.run_suite("two_level", seed=7, trials=50)
        assert report.passed, [c.name for c in report.failing()]

    def test_infotheory_suite_passes(self):
        [report] = verify.run_suite("infotheory", seed=7, trials=30)
        assert report.passed, [c.name for c in report.failing()]

    def test_run_all_collects_three_reports(self):
        reports = verify.run_suite("all", seed=3, trials=10)
        assert [r.suite for r in reports] == list(verify.SUITES) == list(verify.CHECKS)
        assert all(r.passed for r in reports)
        # The reports list every registered check once, in CHECKS order.
        for report in reports:
            assert [c.name for c in report.checks] == list(verify.CHECKS[report.suite])
        names = [c.name for r in reports for c in r.checks]
        assert names == list(verify.DEFAULT_TOLERANCES)

    @pytest.mark.parametrize("suite", verify.SUITES)
    def test_every_registered_check_gets_a_deviation(self, suite):
        # At one trial each body still feeds every check it registers, and
        # feeds no check it does not register.
        body = verify._BODIES[suite](np.random.default_rng(0), 1, constants_for(UnitMode.NATURAL))
        fed = {name for name, *_ in body}
        assert fed == set(verify.CHECKS[suite])

    def test_a_block_of_draws_equals_the_scalar_draws(self):
        # One rng.uniform call per block gives the bits of the scalar draws, row by row,
        # and leaves the stream where they leave it.
        bounds = ((0.5, 2.0), (0.1, 3.0), (0.05, 20.0))
        block, scalar = np.random.default_rng(42), np.random.default_rng(42)
        rows = verify._uniform(block, 1000, *bounds).tolist()
        assert rows == [[float(scalar.uniform(low, high)) for low, high in bounds] for _ in range(1000)]
        assert block.uniform() == scalar.uniform()

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 1000])
    def test_hamiltonian_draws_equal_the_per_trial_scalar_draws(self, n):
        # The edge cases one value at a time, then one block for the general trials: the same
        # (h, *values) as drawing each trial's Hamiltonian and then its values, and the same stream.
        bounds = ((-10.0, 10.0), (0.0, 1.0), (0.0, 10.0))
        block, scalar = np.random.default_rng(42), np.random.default_rng(42)

        def draw(low, high):
            return float(scalar.uniform(low, high))

        def trial(i):
            if i == 0:
                h = TwoLevelHamiltonian(E=0.0, Delta=0.0, epsilon=0.0)
            elif i == 1:
                h = TwoLevelHamiltonian(E=draw(-2, 2), Delta=draw(0, 3), epsilon=0.0)
            elif i == 2:
                h = TwoLevelHamiltonian(E=draw(-2, 2), Delta=0.0, epsilon=draw(0.1, 3))
            else:
                h = TwoLevelHamiltonian(E=draw(-2, 2), Delta=draw(0, 3), epsilon=draw(0, 3))
            return (h, *[draw(low, high) for low, high in bounds])

        assert list(verify._hamiltonian_draws(block, n, *bounds)) == [trial(i) for i in range(n)]
        assert block.uniform() == scalar.uniform()

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            verify.run_suite("bogus")

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError):
            verify.run_suite("gaussian", trials=0)

    @staticmethod
    def every_fifth_nan(real):
        calls = itertools.count()

        def patched(*args):
            probs = real(*args)
            return (math.nan, math.nan) if next(calls) % 5 == 4 else probs

        return patched

    @staticmethod
    def one_nan_in_each_array(real):
        def patched(*args):
            out = np.array(real(*args))
            out.flat[out.size // 2] = math.nan  # not first, where Python's max would keep it
            return out

        return patched

    @pytest.mark.parametrize(
        "suite, module, name, poison, check",
        [
            ("two_level", verify, "transition_probs", every_fifth_nan, "closed-vs-unitary-probs"),
            ("gaussian", gaussian, "capacity_nats", one_nan_in_each_array, "capacity-monotone"),
        ],
        ids=["closed-vs-unitary-probs", "capacity-monotone"],
    )
    def test_nan_deviation_fails_its_check(self, monkeypatch, suite, module, name, poison, check):
        # Python's max(0.0, nan) is 0.0 and np.nanmax drops a NaN; the reduction must keep it.
        # transition_probs feeds scalar deviations, capacity_nats array-evaluated ones.
        monkeypatch.setattr(module, name, poison(getattr(module, name)))
        [report] = verify.run_suite(suite, seed=7, trials=50)
        assert not report.passed
        failed = next(c for c in report.checks if c.name == check)
        assert not failed.passed
        assert math.isnan(failed.max_deviation)

    def test_power_identity_catches_a_wrong_beta(self, monkeypatch):
        # The check used to compare placement_power with its own body,
        # beta * E[X^2], so a wrong beta went unseen. This one forgets the
        # measurement delay in the cycle time.
        monkeypatch.setattr(gaussian, "beta", lambda b: b.mass / (2.0 * b.prep_time_T**3))
        [report] = verify.run_suite("gaussian", seed=7, trials=5)
        assert [c.name for c in report.failing()] == ["power-identity"]


class TestToleranceOverrides:
    def test_corrupted_tolerance_trips_the_check(self):
        [report] = verify.run_suite("gaussian", seed=7, trials=5, tolerances={"noise-floor": -1.0})
        assert not report.passed
        assert [c.name for c in report.failing()] == ["noise-floor"]

    def test_overrides_leave_other_checks_alone(self):
        [report] = verify.run_suite("two_level", seed=7, trials=5, tolerances={"evolve-norm": -1.0})
        failing = report.failing()
        assert [c.name for c in failing] == ["evolve-norm"]
        assert all(c.passed for c in report.checks if c.name != "evolve-norm")

    def test_unknown_override_name_rejected(self):
        with pytest.raises(ValueError, match="evolve-nrom"):
            verify.run_suite("two_level", seed=7, trials=5, tolerances={"evolve-nrom": -1.0})

    def test_override_names_check_in_another_suite(self):
        # Every registered name is accepted, whichever suite runs.
        [report] = verify.run_suite("two_level", seed=7, trials=5, tolerances={"noise-floor": -1.0})
        assert report.passed


class TestReportStructure:
    def test_to_dict_roundtrip_fields(self):
        [report] = verify.run_suite("infotheory", seed=1, trials=5)
        payload = report.to_dict()
        assert set(payload) == {"suite", "seed", "trials", "passed", "checks"}
        assert payload["suite"] == "infotheory"
        assert payload["seed"] == 1
        assert payload["trials"] == 5
        names = {c["name"] for c in payload["checks"]}
        assert "solver-agreement" in names
        assert "r0-monotonicity" in names
        for c in payload["checks"]:
            assert set(c) == {"name", "passed", "tolerance", "max_deviation", "kind", "details"}

    def test_findings_do_not_fail_the_suite(self):
        # force the finding to "fail" with an impossible tolerance: suite still passes
        [report] = verify.run_suite("infotheory", seed=1, trials=5, tolerances={"r0-monotonicity": -1.0})
        finding = next(c for c in report.checks if c.name == "r0-monotonicity")
        assert finding.kind == "finding"
        assert not finding.passed
        assert report.passed
        # The details count the cells above the tolerance in force.
        assert finding.details == "400 of 400 cells violate the monotonicity claim"

    def test_determinism_same_seed(self):
        a = verify.run_suite("all", seed=11, trials=3)
        b = verify.run_suite("all", seed=11, trials=3)
        assert [r.to_dict() for r in a] == [r.to_dict() for r in b]

    def test_spectral_convergence_reports_its_signed_value(self):
        # The one check that reports a value as it is, not folded from 0.
        [report] = verify.run_suite("gaussian", seed=1, trials=1)
        check = next(c for c in report.checks if c.name == "spectral-convergence")
        assert check.max_deviation < 0.0
        assert check.passed
        assert check.details.startswith("sup error ")


class TestMonotonicityFindings:
    def test_full_grid_is_covered(self):
        cells = verify.monotonicity_findings()
        assert len(cells) == 400
        gammas = {c.gamma for c in cells}
        assert len(gammas) == 20

    def test_claim_holds_on_coarse_grid(self):
        cells = verify.monotonicity_findings()
        worst = max(c.max_violation for c in cells)
        assert worst <= 1e-9, f"monotonicity violated by {worst:.3e}"

    @staticmethod
    def nan_at_r0_quarter(monkeypatch):
        real = infotheory.two_level_capacities

        def patched(h, r0, ts, c):
            caps = real(h, r0, ts, c)
            return caps * math.nan if r0.p == 0.25 else caps

        monkeypatch.setattr(infotheory, "two_level_capacities", patched)

    def test_nan_capacity_shows_in_its_cells(self, monkeypatch):
        # A NaN in the middle of the r0 column (0.25 is a grid point): Python's
        # max() over the rises would drop it, np.max keeps it.
        self.nan_at_r0_quarter(monkeypatch)
        cells = verify.monotonicity_findings()
        assert len(cells) == 400
        assert all(math.isnan(cell.max_violation) for cell in cells)

    def test_nan_cells_are_counted_in_the_details(self, monkeypatch):
        # The details used to count rise > tol, which a NaN fails: the report
        # said "0 of 400" beside a NaN deviation.
        self.nan_at_r0_quarter(monkeypatch)
        [report] = verify.run_suite("infotheory", seed=1, trials=1)
        finding = next(c for c in report.checks if c.name == "r0-monotonicity")
        assert math.isnan(finding.max_deviation)
        assert not finding.passed
        assert finding.details == "400 of 400 cells violate the monotonicity claim"

    def test_cells_match_point_by_point_sweep(self):
        # The sweep as it reads: one two_level_capacity call per (gamma, t, r0),
        # for three of its 20 gammas (the whole grid takes about 3 s this way).
        c = constants_for(UnitMode.NATURAL)
        picked = (0, 7, 19)
        want = []
        for gamma in np.linspace(0.0, 4.0, 20)[list(picked)]:
            eps = 2.0 / math.sqrt(gamma**2 + 4.0)
            h = TwoLevelHamiltonian(E=0.0, Delta=float(gamma * eps), epsilon=float(eps))
            for frac in np.linspace(0.0, 1.0, 20):
                t = float(frac * period(h, c))
                caps = [
                    infotheory.two_level_capacity(h, PrepBias(float(r)), t, c).capacity
                    for r in np.linspace(0.0, 0.5, 51)
                ]
                rise = max((b - a for a, b in zip(caps, caps[1:])), default=0.0)
                want.append((float(gamma), float(frac), max(rise, 0.0)))
        cells = verify.monotonicity_findings()
        got = [
            (cell.gamma, cell.t_over_period, cell.max_violation)
            for k in picked
            for cell in cells[20 * k : 20 * k + 20]
        ]
        assert [tuple(map(float.hex, g)) for g in got] == [tuple(map(float.hex, w)) for w in want]
