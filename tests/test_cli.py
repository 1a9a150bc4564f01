import json
import math
import os
import re
import stat
from pathlib import Path

import numpy as np
import pytest

import artefacts
from chancap import _floattext, cli, gaussian, infotheory
from chancap.cli import main
from chancap.twolevel import PrepBias, TwoLevelHamiltonian, period, transition_probs
from chancap.units import UnitMode, constants_for

NAT = constants_for(UnitMode.NATURAL)
SI = constants_for(UnitMode.SI)


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, rows


def exit_code(argv):
    """main's exit code, or that of the SystemExit with which argparse rejects an option."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestFigGaussian:
    def test_columns_and_peak_location(self, tmp_path):
        out = tmp_path / "fig.csv"
        assert main(["fig-gaussian", "--out", str(out), "--grid-points", "101"]) == 0
        header, rows = read_csv(out)
        assert header == ["sigma2_over_vstar", "ratio", "capacity_nats"]
        assert rows.shape == (3 * 101, 3)
        for ratio in (0.5, 5.0, 50.0):
            curve = rows[rows[:, 1] == ratio]
            peak = curve[np.argmax(curve[:, 2])]
            assert peak[0] == pytest.approx(1.0, rel=1e-12)

    def test_threshold_capacity_value(self, tmp_path):
        out = tmp_path / "fig.csv"
        main(["fig-gaussian", "--out", str(out), "--ratios", "1", "--grid-points", "1",
              "--grid-min", "1", "--grid-max", "1"])
        _, rows = read_csv(out)
        assert rows[0, 2] == pytest.approx(0.2027325540540822, abs=1e-13)

    def test_zero_ratio_gives_zero_curve(self, tmp_path):
        out = tmp_path / "fig.csv"
        main(["fig-gaussian", "--out", str(out), "--ratios", "0", "--grid-points", "11"])
        _, rows = read_csv(out)
        assert np.all(rows[:, 2] == 0.0)

    def test_invalid_grid_is_usage_error(self, tmp_path):
        out = tmp_path / "fig.csv"
        assert main(["fig-gaussian", "--out", str(out), "--grid-min", "-1"]) == 2


class TestFigTwoLevel:
    def test_anchor_points_for_resonant_case(self, tmp_path):
        out = tmp_path / "fig.csv"
        assert main(["fig-two-level", "--out", str(out), "--gammas", "0",
                     "--time-points", "5"]) == 0
        header, rows = read_csv(out)
        assert header == ["gamma", "t", "capacity_bits"]
        # t = 0, T0/4, T0/2, 3T0/4, T0 with T0 = pi
        assert rows[-1, 1] == pytest.approx(math.pi, rel=1e-15)
        caps = rows[:, 2]
        assert caps[0] == pytest.approx(1.0, abs=1e-9)   # identity channel
        assert caps[2] == pytest.approx(1.0, abs=1e-9)   # full swap
        assert caps[1] == pytest.approx(0.0, abs=1e-9)   # symmetric flip
        assert caps[4] == pytest.approx(1.0, abs=1e-9)   # one full period

    def test_curves_share_the_period(self, tmp_path):
        out = tmp_path / "fig.csv"
        main(["fig-two-level", "--out", str(out), "--gammas", "0", "1", "4",
              "--time-points", "3"])
        _, rows = read_csv(out)
        for gamma in (0.0, 1.0, 4.0):
            curve = rows[rows[:, 0] == gamma]
            assert curve[-1, 1] == pytest.approx(math.pi, rel=1e-12)
            assert curve[-1, 2] == pytest.approx(1.0, abs=1e-9)

    def test_large_gamma_curve_flattens(self, tmp_path):
        # eps = 2/sqrt(gamma^2+4) -> 0 as gamma grows, so the channel goes static
        out = tmp_path / "fig.csv"
        main(["fig-two-level", "--out", str(out), "--gammas", "1", "100",
              "--time-points", "41"])
        _, rows = read_csv(out)
        spans = {}
        for gamma in (1.0, 100.0):
            caps = rows[rows[:, 0] == gamma][:, 2]
            spans[gamma] = caps.max() - caps.min()
        assert spans[100.0] < 0.01 < spans[1.0]

    def test_huge_gamma_does_not_overflow(self, tmp_path):
        # gamma**2 overflows a double; eps = 2/hypot(gamma, 2) does not
        out = tmp_path / "fig.csv"
        assert main(["fig-two-level", "--out", str(out), "--gammas", "1e160", "1e200",
                     "--time-points", "9"]) == 0
        _, rows = read_csv(out)
        caps = rows[:, 2]
        assert caps.size == 18
        assert np.all(np.isfinite(caps))
        assert np.all((caps >= 0.0) & (caps <= 1.0))

    def test_small_bias_caps_at_bsc_value(self, tmp_path):
        out = tmp_path / "fig.csv"
        main(["fig-two-level", "--out", str(out), "--gammas", "1", "--r0", "0.11",
              "--time-points", "2"])
        _, rows = read_csv(out)
        assert rows[0, 2] == pytest.approx(0.500084041835472, abs=1e-9)

    def test_r0_range_enforced(self, tmp_path):
        out = tmp_path / "fig.csv"
        assert main(["fig-two-level", "--out", str(out), "--r0", "0.5"]) == 2


class TestContour:
    def test_atomic_scale_spot_value(self, tmp_path):
        out = tmp_path / "contour.csv"
        assert main(["contour", "--out", str(out),
                     "--mass-min", "1e-27", "--mass-max", "1e-27", "--mass-points", "1",
                     "--t-min", "1", "--t-max", "1", "--t-points", "1"]) == 0
        header, rows = read_csv(out)
        assert header == ["mass", "t", "vstar", "capacity_nats"]
        assert rows[0, 3] == pytest.approx(8.032480466267351, abs=1e-3)
        # optimal precision scale sqrt(2 v*) = sqrt(hbar t / m) ~ 1e-4 m
        assert math.sqrt(2 * rows[0, 2]) == pytest.approx(3.2474e-4, rel=5e-2)

    def test_macroscopic_mass_precision_scale(self, tmp_path):
        # a grain-of-sand mass pushes the optimal precision to the 1e-14 m scale
        out = tmp_path / "contour.csv"
        main(["contour", "--out", str(out),
              "--mass-min", "1e-6", "--mass-max", "1e-6", "--mass-points", "1",
              "--t-min", "1", "--t-max", "1", "--t-points", "1"])
        _, rows = read_csv(out)
        assert 1e-14 <= math.sqrt(2 * rows[0, 2]) < 1e-13

    def test_mass_doubling_adds_half_log_two(self, tmp_path):
        out = tmp_path / "contour.csv"
        main(["contour", "--out", str(out),
              "--mass-min", "1e-27", "--mass-max", "2e-27", "--mass-points", "2",
              "--t-min", "1", "--t-max", "1", "--t-points", "1"])
        _, rows = read_csv(out)
        assert rows[1, 3] - rows[0, 3] == pytest.approx(0.5 * math.log(2), abs=1e-6)

    def test_huge_p_constraint_gives_finite_capacities(self, tmp_path):
        # P / noise overflows a double at every row; the capacity does not.
        out = tmp_path / "contour.csv"
        assert main(["contour", "--out", str(out), "--p-constraint", "1e308",
                     "--mass-points", "2", "--t-points", "2"]) == 0
        _, rows = read_csv(out)
        assert rows.shape == (4, 4)
        assert np.all(np.isfinite(rows[:, 3]))


class TestEvolve:
    def test_gaussian_initial_samples(self, tmp_path):
        out = tmp_path / "evolve.csv"
        assert main(["evolve", "--channel", "gaussian", "--times", "0",
                     "--out", str(out), "--grid-points", "101"]) == 0
        header, rows = read_csv(out)
        assert header == ["t", "x", "density"]
        peak = rows[np.argmax(rows[:, 2])]
        assert peak[1] == pytest.approx(0.0, abs=1e-12)
        assert peak[2] == pytest.approx(1 / math.sqrt(2 * math.pi), rel=1e-12)

    def test_two_level_static_when_no_tunneling(self, tmp_path):
        out = tmp_path / "evolve.csv"
        main(["evolve", "--channel", "two_level", "--epsilon", "0", "--p", "0.2",
              "--times", "0", "1", "2", "--out", str(out)])
        _, rows = read_csv(out)
        np.testing.assert_allclose(rows[:, 1], 0.8, atol=1e-15)
        np.testing.assert_allclose(rows[:, 2], 0.2, atol=1e-15)

    def test_two_level_periodic_row(self, tmp_path):
        out = tmp_path / "evolve.csv"
        # gamma=1 with eps = 2/sqrt(5) has period pi
        eps = 2 / math.sqrt(5)
        main(["evolve", "--channel", "two_level", "--gamma", "1", "--epsilon", str(eps),
              "--p", "0.1", "--times", "0", str(math.pi), "--out", str(out)])
        _, rows = read_csv(out)
        assert rows[0, 1] == pytest.approx(rows[1, 1], abs=1e-12)
        assert rows[0, 2] == pytest.approx(rows[1, 2], abs=1e-12)

    def test_negative_time_rejected(self, tmp_path):
        out = tmp_path / "evolve.csv"
        assert main(["evolve", "--channel", "gaussian", "--times", "-1",
                     "--out", str(out)]) == 2


RUN_FIELDS = ("subcommand", "units", "out", "format", "seed")
# evolve leaves the options of the channel it did not run out of its sidecar.
OTHER_CHANNEL = {
    "gaussian": ("gamma", "epsilon", "p"),
    "two_level": ("x0", "sigma2", "mass", "grid_points"),
}
SIDECAR_CASES = {
    "fig-gaussian": (
        ["fig-gaussian", "--ratios", "5", "0.5", "2", "--grid-points", "5"],
        "natural",
        ["sigma2_over_vstar", "ratio", "capacity_nats"],
    ),
    "fig-two-level": (
        ["fig-two-level", "--gammas", "4", "0", "1", "--time-points", "3", "--r0", "0.1"],
        "natural",
        ["gamma", "t", "capacity_bits"],
    ),
    "contour": (
        ["contour", "--mass-points", "2", "--t-points", "3", "--p-constraint", "2"],
        "si",
        ["mass", "t", "vstar", "capacity_nats"],
    ),
    "evolve-gaussian": (
        ["evolve", "--channel", "gaussian", "--times", "2", "0", "1", "--grid-points", "5", "--x0", "1"],
        "natural",
        ["t", "x", "density"],
    ),
    "evolve-two_level": (
        ["evolve", "--channel", "two_level", "--times", "2", "0", "1", "--p", "0.2", "--gamma", "3"],
        "natural",
        ["t", "prob0", "prob1"],
    ),
}


def written(directory, argv, monkeypatch):
    """Run chancap with argv in directory (made if absent); return {file name: bytes} of what it holds."""
    directory.mkdir(exist_ok=True)
    monkeypatch.chdir(directory)
    assert main(argv) == 0
    return {p.name: p.read_bytes() for p in directory.iterdir()}


# Given a relative --out, a table's sidecar holds the same bytes in any directory.
REWRITE_ARGV = SIDECAR_CASES["fig-two-level"][0]
REPORT_ARGV = ["verify", "--suite", "two_level", "--trials", "10"]


class TestOutputs:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("before", ["longer table", "longer sidecar", "shorter files", "its own output"])
    def test_rewrite_matches_a_fresh_write(self, tmp_path, monkeypatch, before, fmt):
        argv = [*REWRITE_ARGV, "--format", fmt, "--out", f"t.{fmt}"]
        want = written(tmp_path / "fresh", argv, monkeypatch)
        again = tmp_path / "again"
        again.mkdir()
        table, sidecar = again / f"t.{fmt}", again / "t.meta.json"
        if before == "longer table":
            table.write_bytes(b"x" * 2**20)
        elif before == "longer sidecar":
            sidecar.write_bytes(b"x" * 2**20)
        elif before == "shorter files":
            table.write_bytes(b"x")
            sidecar.write_bytes(b"x")
        else:
            written(again, argv, monkeypatch)
        assert written(again, argv, monkeypatch) == want

    def test_report_over_a_longer_file(self, tmp_path, monkeypatch):
        argv = [*REPORT_ARGV, "--out", "r.json"]
        want = written(tmp_path / "fresh", argv, monkeypatch)
        (tmp_path / "again").mkdir()
        (tmp_path / "again" / "r.json").write_bytes(b"x" * 2**20)
        assert written(tmp_path / "again", argv, monkeypatch) == want

    def test_symlinked_out_stays_a_link(self, tmp_path, monkeypatch):
        argv = [*REWRITE_ARGV, "--out", "link.csv"]
        want = written(tmp_path / "fresh", argv, monkeypatch)
        target = tmp_path / "target.csv"
        target.write_bytes(b"x" * 2**20)
        (tmp_path / "again").mkdir()
        (tmp_path / "again" / "link.csv").symlink_to(target)
        written(tmp_path / "again", argv, monkeypatch)
        assert (tmp_path / "again" / "link.csv").is_symlink()
        assert target.read_bytes() == want["link.csv"]
        assert (tmp_path / "again" / "link.meta.json").read_bytes() == want["link.meta.json"]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_device_out_is_written_uncut(self, fmt):
        # /dev/null cannot be cut to length; "wb" does not try either.
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)
        assert cli._write_table(Path(os.devnull), {"t": np.arange(5.0)}, fmt) == 5
        assert main([*REPORT_ARGV, "--out", os.devnull]) == 0

    def test_new_files_get_the_default_mode(self, tmp_path):
        old = os.umask(0o027)
        try:
            assert main([*REWRITE_ARGV, "--out", str(tmp_path / "t.csv")]) == 0
            assert main([*REPORT_ARGV, "--out", str(tmp_path / "r.json")]) == 0
        finally:
            os.umask(old)
        for name in ("t.csv", "t.meta.json", "r.json"):
            assert stat.S_IMODE((tmp_path / name).stat().st_mode) == 0o666 & ~0o027

    def test_outputs_are_opened_without_truncation(self, tmp_path, monkeypatch):
        # O_TRUNC frees an existing output's blocks at open; chancap writes over them and cuts the rest.
        flags, real_open = {}, os.open

        def recording_open(path, flag, *args, **kwargs):
            flags[os.fspath(path)] = flag
            return real_open(path, flag, *args, **kwargs)

        monkeypatch.setattr(os, "open", recording_open)
        assert main([*REWRITE_ARGV, "--out", str(tmp_path / "t.csv")]) == 0
        assert main([*REPORT_ARGV, "--out", str(tmp_path / "r.json")]) == 0
        for name in ("t.csv", "t.meta.json", "r.json"):
            flag = flags[str(tmp_path / name)]
            assert flag & (os.O_WRONLY | os.O_CREAT | os.O_TRUNC) == os.O_WRONLY | os.O_CREAT, name

    @pytest.mark.parametrize("exc", [ValueError, KeyboardInterrupt])
    def test_failed_write_keeps_only_the_bytes_written(self, tmp_path, monkeypatch, exc):
        # No level column, so the second csv_cells call formats the second chunk.
        argv = ["evolve", "--channel", "two_level", "--times", *map(str, range(2000)), "--out", "t.csv"]
        want = written(tmp_path / "fresh", argv, monkeypatch)["t.csv"]
        first_chunk = b"\n".join(want.split(b"\n")[: 1 + cli._CHUNK_VALUES // 3])
        again = tmp_path / "again"
        again.mkdir()
        (again / "t.csv").write_bytes(b"x" * 2**20)
        monkeypatch.chdir(again)
        calls, cells = [], _floattext.csv_cells

        def failing_cells(*args):
            calls.append(args)
            if len(calls) == 2:
                raise exc("formatting failed")
            return cells(*args)

        monkeypatch.setattr(_floattext, "csv_cells", failing_cells)
        if exc is KeyboardInterrupt:
            with pytest.raises(KeyboardInterrupt):
                main(argv)
        else:
            assert main(argv) == 2
        assert (again / "t.csv").read_bytes() == first_chunk
        assert 0 < len(first_chunk) < len(want)
        assert not (again / "t.meta.json").exists()

    def test_csv_is_deterministic(self, tmp_path):
        out = tmp_path / "fig.csv"
        args = ["fig-two-level", "--out", str(out), "--gammas", "0", "2",
                "--time-points", "11"]
        main(args)
        first = out.read_bytes()
        main(args)
        assert out.read_bytes() == first

    @pytest.mark.parametrize("case", sorted(SIDECAR_CASES))
    def test_meta_sidecar_records_config(self, tmp_path, case):
        argv, units, columns = SIDECAR_CASES[case]
        argv = [*argv, "--out", str(tmp_path / "t.csv"), "--seed", "9"]
        assert main(argv) == 0
        meta = json.loads((tmp_path / "t.meta.json").read_text())
        assert meta["subcommand"] == argv[0]
        assert meta["units"] == units
        assert meta["out"] == str(tmp_path / "t.csv")
        assert meta["format"] == "csv"
        assert meta["seed"] == 9
        assert meta["columns"] == columns
        assert meta["artifact_version"]
        # params: every other option of the subcommand, as parsed, lists sorted.
        parsed = vars(cli.build_parser().parse_args(argv))
        unused = {"handler", *RUN_FIELDS, *OTHER_CHANNEL.get(parsed.get("channel"), ())}
        want = {k: sorted(v) if isinstance(v, list) else v for k, v in parsed.items() if k not in unused}
        assert meta["params"] == want

    @pytest.mark.parametrize("case", sorted(SIDECAR_CASES))
    def test_wrote_line_counts_rows(self, tmp_path, case, capsys):
        # The count a benchmark reads from stdout: rows of the grid, not values of a level column.
        out = tmp_path / "t.csv"
        assert main([*SIDECAR_CASES[case][0], "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert capsys.readouterr().out == f"wrote {len(rows)} rows to {out}\n"

    def test_json_format(self, tmp_path):
        out = tmp_path / "fig.json"
        main(["fig-gaussian", "--out", str(out), "--grid-points", "5", "--format", "json"])
        payload = json.loads(out.read_text())
        assert payload["columns"] == ["sigma2_over_vstar", "ratio", "capacity_nats"]
        assert len(payload["rows"]) == 15

    def test_csv_cells_roundtrip_doubles(self, tmp_path):
        out = tmp_path / "fig.csv"
        main(["fig-gaussian", "--out", str(out), "--ratios", "5", "--grid-points", "3"])
        _, rows = read_csv(out)
        from chancap import gaussian
        from chancap.units import UnitMode, constants_for
        c = constants_for(UnitMode.NATURAL)
        vstar = gaussian.optimal_sigma2(1.0, 1.0, c)
        grid = vstar * np.logspace(-2, 2, 3)
        curve = gaussian.capacity_vs_precision_curve(1.0, 1.0, 5 * vstar, grid, c)
        np.testing.assert_array_equal(rows[:, 2], curve[:, 1])


class TestVerifyCommand:
    def test_passing_suite_exits_zero(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        code = main(["verify", "--suite", "two_level", "--trials", "10",
                     "--out", str(report)])
        assert code == 0
        payload = json.loads(report.read_text())
        assert payload["passed"] is True
        assert payload["reports"][0]["suite"] == "two_level"
        out = capsys.readouterr().out
        assert "eigen-residual: PASS" in out

    def test_corrupted_tolerance_fails_and_names_check(self, tmp_path, capsys):
        code = main(["verify", "--suite", "gaussian", "--trials", "5",
                     "--tolerance", "noise-floor=-1"])
        assert code == 1
        captured = capsys.readouterr()
        assert "noise-floor: FAIL" in captured.out
        assert "noise-floor" in captured.err

    def test_zero_trials_is_usage_error(self, capsys):
        assert main(["verify", "--trials", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # rejected before any check runs
        assert "trials must be >= 1, got 0" in captured.err

    def test_unknown_tolerance_name_is_usage_error(self, capsys):
        assert main(["verify", "--tolerance", "nonsense=1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # rejected before any check runs
        assert "nonsense" in captured.err and "noise-floor" in captured.err

    def test_tolerance_without_value_is_usage_error(self, capsys):
        assert main(["verify", "--tolerance", "noise-floor"]) == 2
        assert "NAME=VALUE" in capsys.readouterr().err

    def test_report_lists_every_check_deviation(self, tmp_path):
        report = tmp_path / "report.json"
        main(["verify", "--suite", "infotheory", "--trials", "5", "--out", str(report)])
        payload = json.loads(report.read_text())
        checks = payload["reports"][0]["checks"]
        assert all("max_deviation" in c and "tolerance" in c for c in checks)


SUBCOMMANDS = ("fig-gaussian", "fig-two-level", "contour", "evolve", "verify")


class TestParser:
    def test_missing_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_choice_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["evolve", "--channel", "spin9", "--times", "1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["-h"],
            ["--version"],
            [],
            *([name, "-h"] for name in SUBCOMMANDS),
            ["fig-gauss"],
            ["--bogus", "verify"],
            ["verify", "--bogus"],
            ["verify", "--suite", "none"],
            ["evolve", "--times", "1"],
            ["contour", "--t-min"],
        ],
    )
    def test_output_matches_the_full_parser(self, argv, capsys, monkeypatch):
        # What main prints, and its exit code, are those of the parser.
        monkeypatch.setenv("COLUMNS", "80")
        outputs = []
        for parse in (main, cli.build_parser().parse_args):
            with pytest.raises(SystemExit) as exc:
                parse(list(argv))
            outputs.append((exc.value.code, *capsys.readouterr()))
        assert outputs[0] == outputs[1]
        assert outputs[0][1] or outputs[0][2]

    @pytest.mark.parametrize("name", SUBCOMMANDS)
    def test_full_parser_gives_every_subcommand_its_options(self, name):
        argv = [name, "--seed", "7", "--channel", "gaussian", "--times", "1"]
        args, _ = cli.build_parser().parse_known_args(argv)
        assert args.seed == 7 and args.handler.__name__ == "_cmd_" + name.replace("-", "_")

    def test_one_parser_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_runs_leave_the_defaults_alone(self, tmp_path):
        # The parser is shared, so a run must not change a default list.
        out = str(tmp_path / "g.csv")
        assert main(["fig-gaussian", "--ratios", "50", "1", "--grid-points", "3", "--out", out]) == 0
        assert cli.build_parser().parse_args(["fig-gaussian"]).ratios == [0.5, 5.0, 50.0]
        argv = ["verify", "--suite", "gaussian", "--trials", "2"]
        assert main([*argv, "--tolerance", "noise-floor=1"]) == 0
        assert cli.build_parser().parse_args(argv).tolerance == []


def expanded(table):
    """The table's columns broadcast to one grid, each flattened in C order."""
    shape = np.broadcast_shapes(*(np.shape(col) for col in table.values()))
    return {name: np.broadcast_to(col, shape).ravel() for name, col in table.items()}


def row_table_bytes(columns, rows, fmt):
    """The row-by-row table format: .16e CSV cells, or json.dumps(indent=1)."""
    if fmt == "csv":
        lines = [",".join(columns)]
        lines.extend(",".join(f"{float(v):.16e}" for v in row) for row in rows)
        return ("\n".join(lines) + "\n").encode()
    payload = {"columns": columns, "rows": [[float(v) for v in row] for row in rows]}
    return (json.dumps(payload, indent=1) + "\n").encode()


SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, math.nan, math.inf, -math.inf, 1.0, 1.0, 0.1]
LEVELS = [-0.0, 0.0, math.nan, math.inf, -math.inf, 2.0**-25, 1e23, 5e-324, -2.5e-310, 1e300]
WRITER_TABLES = {
    "repeats": {"a": np.repeat([1.5, -2.0, 1.5], 4), "b": np.tile([0.0, -0.0, 1e-310, 3.0], 3)},
    "special": {"x": np.array(SPECIAL), "y": np.array(SPECIAL[::-1]), "z": np.ones(len(SPECIAL))},
    "negzero-first": {"x": np.array([-0.0, 0.0, -0.0]), "y": np.array([0.0, -0.0, 0.0])},
    "one-row": {"x": np.array([math.pi]), "y": np.array([-math.nan]), "z": np.array([1e300])},
    "one-column": {"only": np.array([2.5, math.inf, 2.5])},
    "empty": {"x": np.array([]), "y": np.array([])},
    # Both signs, and 2- and 3-digit exponents, in one column.
    "signs-exponents": {
        "x": np.array([1.5e5, -2.5e-105, 3e200, -4e-7, 7.0, -1e100, 9.99e99, 1e-100]),
        "y": np.array([-1.0, 2.0, -3.0, 4.0, -5.0, 6.0, -7.0, 8.0]),
    },
    # Every cell left to the standard library, in one format each: CSV declines
    # NaN, inf and 2**-25 (a 17-digit tie); JSON NaN, inf, subnormals, the
    # least normal double and 1e23 (on its rounding boundary).
    "declined-csv": {
        "x": np.array([math.nan, math.inf, -math.inf, 2.0**-25, -(2.0**-25)]),
        "y": np.array([-(2.0**-25), math.nan, 2.0**-25, -math.inf, math.inf]),
    },
    "declined-json": {
        "x": np.array([math.nan, -math.inf, 5e-324, 2.2250738585072014e-308, 1e23]),
        "y": np.array([1e23, math.inf, -5e-324, math.nan, -2.2250738585072014e-308]),
    },
    # Level columns, which broadcast to the table's grid with fewer values
    # than rows: levels that need a sign, the fallback or nothing at all,
    # level columns first (the JSON first row opens the list) and last (the
    # tail closes the row), and tables of level columns only.
    "levels-first": {
        "a": np.array(LEVELS)[:, None],
        "b": np.arange(30.0).reshape(10, 3) / 3.0,
        "c": np.array([4.0, -0.5, 1e-7]),
    },
    "levels-middle": {
        "x": np.linspace(-1.0, 1.0, 20).reshape(10, 2),
        "level": np.array(LEVELS[::-1])[:, None],
        "y": np.resize([2.0**-25, 1e23, 5e-324, 0.0, -0.0, math.nan], (10, 2)),
    },
    "levels-only": {"t": np.array([[0.0], [-0.0], [5e-324]]), "x": np.array(LEVELS)[[9, 3, 0, 2]]},
    # (3, 1) against (2,): a grid of 3 x 2 rows.
    "levels-outer-inner": {"x": np.array([[1e23], [-math.inf], [2.0**-25]]), "y": np.array([-0.0, 5e-324])},
    # One level of the outer axis.
    "levels-one-row": {"x": np.array([[1e23]]), "y": np.array([[-0.0, -math.inf]])},
    # A (10, 1) column against a (0,) one: a (10, 0) grid, no row.
    "levels-empty": {"x": np.array(LEVELS)[:, None], "y": np.array([])},
    # JSON switches between fixed and exponent notation at 1e-4 and 1e16.
    "notation-switch": {
        "x": np.array([
            np.nextafter(1e-5, 0), 1e-5, np.nextafter(1e-5, 1), np.nextafter(1e-4, 0), 1e-4,
            np.nextafter(1e-4, 1), np.nextafter(1e16, 0), 1e16, np.nextafter(1e16, np.inf), 1e15,
            123456789012345.67, -0.00012345678901234567, 0.5, 100.0,
        ]),
    },
}


EDGE = [-0.0, 0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -2.5e-310]
# Rows per chunk of chunked_table, whose len(EDGE) columns s<j> are its only plain columns.
CHUNK = cli._CHUNK_VALUES // len(EDGE)


def chunked_table(nrows):
    """Every EDGE value in the last row of a chunk and in the first row of the next, in some column.

    The table is a grid of nrows / width by width rows, width the largest
    divisor of nrows up to CHUNK. Column s<j> holds EDGE rotated by j in the
    rows edge-4 .. edge+3 around the table's start, end and every chunk
    boundary, and random normals elsewhere. Three level columns follow:
    "same" repeats one value, "outer" takes a new level every width rows and
    "inner" (EDGE repeated) a new one every row, so both change across
    chunk boundaries.
    """
    width = max(d for d in range(1, CHUNK + 1) if nrows % d == 0)
    rng = np.random.default_rng(nrows)
    table = {}
    for j in range(len(EDGE)):
        col = rng.standard_normal(nrows)
        for edge in {*range(0, nrows, CHUNK), nrows}:
            for k, i in enumerate(range(edge - 4, edge + 4)):
                if 0 <= i < nrows:
                    col[i] = EDGE[(k + j) % len(EDGE)]
        table[f"s{j}"] = col.reshape(-1, width)
    table["same"] = np.array([[0.1]])
    table["outer"] = np.arange(nrows // width)[:, None] / 7.0
    table["inner"] = np.resize(EDGE, width)
    return table


class TestColumnWriter:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("name", sorted(WRITER_TABLES))
    def test_bytes_match_row_formatter(self, tmp_path, name, fmt):
        table = WRITER_TABLES[name]
        out = tmp_path / f"t.{fmt}"
        assert cli._write_table(out, table, fmt) == len(expanded(table)[next(iter(table))])
        rows = list(zip(*expanded(table).values()))
        assert out.read_bytes() == row_table_bytes(list(table), rows, fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    # 8 * CHUNK and 16 * CHUNK: row counts of 4096 and 8192 at a CHUNK of 512 rows. CHUNK + 1:
    # the first chunk's 4,096 values, then one row.
    @pytest.mark.parametrize("nrows", [0, 1, 8 * CHUNK - 1, 8 * CHUNK, 8 * CHUNK + 1, 16 * CHUNK + 3, CHUNK + 1])
    def test_chunk_boundaries_match_row_formatter(self, tmp_path, nrows, fmt):
        table = chunked_table(nrows)
        out = tmp_path / f"t.{fmt}"
        cli._write_table(out, table, fmt)
        rows = list(zip(*expanded(table).values()))
        assert out.read_bytes() == row_table_bytes(list(table), rows, fmt)

    def test_declined_tables_are_all_fallback(self):
        for kernel, fmt in ((_floattext.digits17, "csv"), (_floattext.shortest, "json")):
            for column in WRITER_TABLES[f"declined-{fmt}"].values():
                assert not kernel(column)[2].any()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_declined_values_either_side_of_a_chunk_boundary(self, tmp_path, fmt):
        edge = cli._CHUNK_VALUES // 2  # rows per chunk of a two-column table
        x = np.linspace(1.0, 2.0, edge + 2)
        x[edge - 1], x[edge] = (2.0**-25, math.nan) if fmt == "csv" else (1e23, 5e-324)
        table = {"x": x, "y": x[::-1].copy()}
        out = tmp_path / f"t.{fmt}"
        cli._write_table(out, table, fmt)
        assert out.read_bytes() == row_table_bytes(list(table), list(zip(*table.values())), fmt)

    def test_default_set_caches_at_most_seven_frame_tables(self, tmp_path, monkeypatch):
        # One frame table per distinct separators of a kernel call; one per separator tuple made 12.
        monkeypatch.chdir(tmp_path)
        frames = (_floattext._csv_frames, _floattext._json_frames)
        for cache in frames:
            cache.cache_clear()
        for k, cmd in enumerate(artefacts.TABLES):
            for fmt in ("csv", "json"):
                assert main([*cmd, "--format", fmt, "--out", f"{k}.{fmt}"]) == 0
        assert sum(cache.cache_info().currsize for cache in frames) <= 7

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    # Each entry is the shape of a column of zeros.
    @pytest.mark.parametrize("lengths", [(3, 2), (2, 3), (3, 3, 0), ((3, 1), (2, 1))])
    def test_unequal_columns_rejected(self, tmp_path, lengths, fmt):
        table = {f"c{k}": np.zeros(n) for k, n in enumerate(lengths)}
        out = tmp_path / f"t.{fmt}"
        named = ", ".join(f"{name}={col.shape}" for name, col in table.items())
        with pytest.raises(ValueError, match=f"do not broadcast to one grid: {re.escape(named)}$"):
            cli._write_table(out, table, fmt)
        assert not out.exists()


def fig_gaussian_rows():
    vstar = gaussian.optimal_sigma2(1.0, 1.0, NAT)
    grid = vstar * np.logspace(-2, 2, 401)
    rows = []
    for ratio in (0.5, 5.0, 50.0):
        curve = gaussian.capacity_vs_precision_curve(1.0, 1.0, ratio * vstar, grid, NAT)
        rows.extend((u, ratio, cap) for u, cap in curve)
    return ["sigma2_over_vstar", "ratio", "capacity_nats"], rows


def fig_two_level_rows(r0=0.0, time_points=501):
    rows = []
    for gamma in (0.0, 1.0, 2.0, 4.0):
        eps = 2.0 / math.sqrt(gamma**2 + 4.0)
        h = TwoLevelHamiltonian(E=0.0, Delta=gamma * eps, epsilon=eps)
        for t in np.linspace(0.0, period(h, NAT), time_points):
            cap = infotheory.two_level_capacity(h, PrepBias(r0), float(t), NAT, base="bits")
            rows.append((gamma, float(t), cap.capacity))
    return ["gamma", "t", "capacity_bits"], rows


def contour_rows(mass_points=201, t_points=201):
    rows = []
    for m in np.logspace(-31, -6, mass_points):
        for t in np.logspace(-3, 3, t_points):
            vstar = gaussian.optimal_sigma2(float(t), float(m), SI)
            prep = gaussian.GaussianPrep(x0=0.0, sigma2_A=vstar, mass=float(m))
            noise = gaussian.noise_variance(prep, float(t), SI)
            rows.append((float(m), float(t), vstar, gaussian.capacity_nats(1.0, noise)))
    return ["mass", "t", "vstar", "capacity_nats"], rows


def evolve_gaussian_rows():
    times = [0.0, 0.5, 1.0, 2.0]
    prep = gaussian.GaussianPrep(x0=0.0, sigma2_A=1.0, mass=1.0)
    width = 10.0 * math.sqrt(gaussian.noise_variance(prep, times[-1], NAT))
    x = np.linspace(-width, width, 101)
    rows = []
    for t in times:
        rows.extend((t, xi, ri) for xi, ri in zip(x, gaussian.density_at(prep, x, t, NAT)))
    return ["t", "x", "density"], rows


def evolve_two_level_rows():
    h = TwoLevelHamiltonian(E=0.0, Delta=1.0, epsilon=1.0)
    rows = [(t, *transition_probs(h, PrepBias(0.0), t, NAT)) for t in (0.0, 0.5, 1.0, 2.0)]
    return ["t", "prob0", "prob1"], rows


TABLE_CASES = {
    "fig-gaussian": (["fig-gaussian"], fig_gaussian_rows),
    "fig-two-level": (["fig-two-level"], fig_two_level_rows),
    "fig-two-level-r0": (
        ["fig-two-level", "--r0", "0.2", "--time-points", "37"],
        lambda: fig_two_level_rows(r0=0.2, time_points=37),
    ),
    "contour": (["contour"], contour_rows),
    "contour-3x1": (
        ["contour", "--mass-points", "3", "--t-points", "1"],
        lambda: contour_rows(mass_points=3, t_points=1),
    ),
    "evolve-gaussian": (
        ["evolve", "--channel", "gaussian", "--times", "0", "0.5", "1", "2"],
        evolve_gaussian_rows,
    ),
    "evolve-two-level": (
        ["evolve", "--channel", "two_level", "--times", "0", "0.5", "1", "2"],
        evolve_two_level_rows,
    ),
}


class TestTablesMatchPointByPoint:
    """Each table equals its rows built one point at a time from the scalar functions."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("case", sorted(TABLE_CASES))
    def test_bytes(self, tmp_path, case, fmt):
        argv, build = TABLE_CASES[case]
        out = tmp_path / f"table.{fmt}"
        assert main([*argv, "--format", fmt, "--out", str(out)]) == 0
        assert out.read_bytes() == row_table_bytes(*build(), fmt)


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["fig-gaussian", "--grid-points", "0"],
            ["fig-gaussian", "--grid-min", "0"],
            ["fig-gaussian", "--grid-min", "2", "--grid-max", "1"],
            ["fig-gaussian", "--ratios", "1", "-1"],
            ["fig-two-level", "--time-points", "1"],
            ["fig-two-level", "--gammas", "-1"],
            ["fig-two-level", "--r0", "-0.1"],
            ["contour", "--mass-min", "0"],
            ["contour", "--t-max", "-1"],
            ["contour", "--mass-points", "-1"],
            ["contour", "--p-constraint", "-1"],
            ["evolve", "--channel", "gaussian", "--times", "1", "--grid-points", "-1"],
        ],
    )
    def test_invalid_grid_exits_two(self, tmp_path, argv):
        assert exit_code([*argv, "--out", str(tmp_path / "t.csv")]) == 2
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("value", ["0", "-1"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["fig-gaussian", "--grid-points"],
            ["fig-two-level", "--time-points"],
            ["contour", "--mass-points"],
            ["contour", "--t-points"],
            ["evolve", "--channel", "gaussian", "--times", "1", "--grid-points"],
        ],
    )
    def test_count_below_one_names_its_option(self, tmp_path, capsys, argv, value):
        # A zero count used to write a header-only table, and a negative one
        # ended in numpy's "Number of samples, -1, must be non-negative."
        with pytest.raises(SystemExit) as exc:
            main([*argv, value, "--out", str(tmp_path / "t.csv")])
        assert exc.value.code == 2
        assert f"argument {argv[-1]}: invalid count value: '{value}'" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_underflowed_vstar_names_the_scalar_error(self, tmp_path, capsys):
        argv = ["contour", "--out", str(tmp_path / "t.csv"), "--mass-min", "1e300",
                "--mass-max", "1e300", "--mass-points", "1", "--t-min", "1e-300",
                "--t-max", "1e-300", "--t-points", "1"]
        assert main(argv) == 2
        assert "sigma2_A must be positive and finite, got 0.0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["fig-gaussian", "--t", "nan"],
            ["fig-gaussian", "--mass", "inf"],
            ["fig-gaussian", "--ratios", "1", "nan"],
            ["fig-two-level", "--gammas", "0", "-inf"],
            ["contour", "--p-constraint", "nan"],
            ["evolve", "--channel", "gaussian", "--times", "0", "nan"],
            ["evolve", "--channel", "two_level", "--times", "1", "--epsilon", "inf"],
            # verify has no --units or --format: it runs in natural units and writes JSON.
            ["verify", "--suite", "two_level", "--trials", "1", "--units", "si"],
            ["verify", "--suite", "two_level", "--trials", "1", "--format", "csv"],
            # fig-two-level runs in natural units and contour in SI: neither has --units.
            ["fig-two-level", "--units", "si"],
            ["contour", "--units", "natural"],
        ],
    )
    def test_non_finite_argument_is_usage_error(self, tmp_path, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(tmp_path / "t.csv")])
        assert exc.value.code == 2
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["evolve", "--channel", "two_level", "--times", "1"],
            # verify writes its report last, after every check has run.
            ["verify", "--suite", "two_level", "--trials", "1"],
        ],
    )
    def test_unwritable_output_is_usage_error(self, tmp_path, argv, capsys):
        # It used to end in a FileNotFoundError traceback with exit code 1,
        # the code of a failed verification.
        out = tmp_path / "nodir" / "t.csv"
        assert main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{out}'\n"
        assert not out.parent.exists()

    def test_non_finite_tolerance_is_usage_error(self):
        assert main(["verify", "--suite", "gaussian", "--tolerance", "noise-floor=nan"]) == 2
