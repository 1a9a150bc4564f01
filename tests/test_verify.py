import math

import numpy as np
import pytest

from chancap import infotheory, verify
from chancap.twolevel import PrepBias, TwoLevelHamiltonian, period
from chancap.units import UnitMode, constants_for


class TestSuites:
    def test_gaussian_suite_passes(self):
        report = verify.run_gaussian_suite(seed=7, trials=30)
        assert report.passed, [c.name for c in report.failing()]
        assert report.suite == "gaussian"

    def test_two_level_suite_passes(self):
        report = verify.run_two_level_suite(seed=7, trials=50)
        assert report.passed, [c.name for c in report.failing()]

    def test_infotheory_suite_passes(self):
        report = verify.run_infotheory_suite(seed=7, trials=30)
        assert report.passed, [c.name for c in report.failing()]

    def test_run_all_collects_three_reports(self):
        reports = verify.run_suite("all", seed=3, trials=10)
        assert [r.suite for r in reports] == list(verify.SUITES)
        assert all(r.passed for r in reports)
        # Every tolerance entry names exactly one check that runs.
        names = [c.name for r in reports for c in r.checks]
        assert len(names) == len(set(names))
        assert set(names) == set(verify.DEFAULT_TOLERANCES)

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            verify.run_suite("bogus")

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError):
            verify.run_suite("gaussian", trials=0)


class TestToleranceOverrides:
    def test_corrupted_tolerance_trips_the_check(self):
        report = verify.run_gaussian_suite(seed=7, trials=5, tolerances={"noise-floor": -1.0})
        assert not report.passed
        assert [c.name for c in report.failing()] == ["noise-floor"]

    def test_overrides_leave_other_checks_alone(self):
        report = verify.run_two_level_suite(seed=7, trials=5, tolerances={"evolve-norm": -1.0})
        failing = report.failing()
        assert [c.name for c in failing] == ["evolve-norm"]
        assert all(c.passed for c in report.checks if c.name != "evolve-norm")


class TestReportStructure:
    def test_to_dict_roundtrip_fields(self):
        report = verify.run_infotheory_suite(seed=1, trials=5)
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
        report = verify.run_infotheory_suite(seed=1, trials=5, tolerances={"r0-monotonicity": -1.0})
        finding = next(c for c in report.checks if c.name == "r0-monotonicity")
        assert finding.kind == "finding"
        assert not finding.passed
        assert report.passed

    def test_determinism_same_seed(self):
        a = verify.run_two_level_suite(seed=11, trials=10)
        b = verify.run_two_level_suite(seed=11, trials=10)
        assert [(c.name, c.max_deviation) for c in a.checks] == [
            (c.name, c.max_deviation) for c in b.checks
        ]


class TestMonotonicityFindings:
    def test_full_grid_is_covered(self):
        cells = verify.monotonicity_findings(gamma_points=4, time_points=4, r0_points=11)
        assert len(cells) == 16
        gammas = {c.gamma for c in cells}
        assert len(gammas) == 4

    def test_claim_holds_on_coarse_grid(self):
        cells = verify.monotonicity_findings(gamma_points=6, time_points=6, r0_points=21)
        worst = max(c.max_violation for c in cells)
        assert worst <= 1e-9, f"monotonicity violated by {worst:.3e}"

    def test_cells_match_point_by_point_sweep(self):
        # The sweep as it reads: one two_level_capacity call per (gamma, t, r0).
        c = constants_for(UnitMode.NATURAL)
        want = []
        for gamma in np.linspace(0.0, 4.0, 5):
            eps = 2.0 / math.sqrt(gamma**2 + 4.0)
            h = TwoLevelHamiltonian(E=0.0, Delta=float(gamma * eps), epsilon=float(eps))
            for frac in np.linspace(0.0, 1.0, 7):
                t = float(frac * period(h, c))
                caps = [
                    infotheory.two_level_capacity(h, PrepBias(float(r)), t, c).capacity
                    for r in np.linspace(0.0, 0.5, 9)
                ]
                rise = max((b - a for a, b in zip(caps, caps[1:])), default=0.0)
                want.append((float(gamma), float(frac), max(rise, 0.0)))
        cells = verify.monotonicity_findings(gamma_points=5, time_points=7, r0_points=9)
        got = [(cell.gamma, cell.t_over_period, cell.max_violation) for cell in cells]
        assert [tuple(map(float.hex, g)) for g in got] == [tuple(map(float.hex, w)) for w in want]
