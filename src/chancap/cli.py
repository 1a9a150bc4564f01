"""Command-line front end: figure data, channel evolution tables, verification.

Subcommands emit machine-readable tables (CSV with 17-significant-digit
scientific notation, or JSON) plus a ``.meta.json`` sidecar recording the
full run configuration, so identical configurations reproduce byte-identical
outputs. Exit codes: 0 success, 1 verification failure, 2 usage errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, gaussian, infotheory, verify
from .twolevel import PrepBias, TwoLevelHamiltonian, eps_for_gamma, period, transition_probs
from .units import UnitMode, constants_for

USAGE_ERROR = 2


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Everything that determines a run's output, recorded in the sidecar."""

    subcommand: str
    units: str
    out: str
    format: str
    seed: int
    params: dict


def finite(text: str) -> float:
    """argparse type of every float option: NaN and +-inf are usage errors."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


#: Rows gathered and joined per write: bounds the text held at once, whatever the table size.
_CHUNK_ROWS = 4096


def _distinct_cells(column: np.ndarray, fmt: str, before: str, after: str):
    """Texts before + cell + after of a column's distinct values, and the index of each row's text.

    Values are keyed on their bit pattern, so -0.0 and 0.0 stay apart. All
    distinct values are formatted in one call: "%.16e" for CSV, and for
    JSON json's own spelling, float.__repr__ or NaN / Infinity.
    """
    keys, inverse = np.unique(column.view(np.int64), return_inverse=True)
    values = keys.view(np.float64).tolist()
    if fmt == "csv":
        texts = ("\0".join(["%.16e"] * len(values)) % tuple(values)).split("\0")
    else:
        texts = json.dumps(values)[1:-1].split(", ")
    # No cell or separator contains NUL, so one join and one split frame every text.
    framed = (before + (after + "\0" + before).join(texts) + after).split("\0")
    return np.array(framed, dtype=object), inverse


def _write_table(path: Path, table: dict[str, np.ndarray], fmt: str) -> None:
    """Write equal-length columns as CSV, or as json.dumps({"columns", "rows"}, indent=1) does.

    Every cell carries the separator that precedes it, so each chunk of
    _CHUNK_ROWS rows is gathered into one block and joined in one pass.
    """
    columns = list(table)
    values = [np.ascontiguousarray(col, dtype=np.float64).ravel() for col in table.values()]
    nrows = len(values[0]) if values else 0
    if any(len(col) != nrows for col in values):
        lengths = ", ".join(f"{name}={len(col)}" for name, col in zip(columns, values))
        raise ValueError(f"table columns differ in length: {lengths}")
    if fmt == "csv":
        seps = [("," if k else "\n", "") for k in range(len(values))]
        head, tail = ",".join(columns), "\n"
    else:
        last = len(values) - 1
        seps = [
            (",\n   " if k else ",\n  [\n   ", "\n  ]" if k == last else "")
            for k in range(len(values))
        ]
        head = json.dumps({"columns": columns, "rows": []}, indent=1)[: -len("]\n}")]
        tail = "\n ]\n}\n" if nrows else "]\n}\n"
    cells = [_distinct_cells(col, fmt, *sep) for col, sep in zip(values, seps)]
    with path.open("w") as f:
        f.write(head)
        for start in range(0, nrows, _CHUNK_ROWS):
            rows = slice(start, start + _CHUNK_ROWS)
            block = np.column_stack([texts[inverse[rows]] for texts, inverse in cells])
            if start == 0 and fmt == "json":
                block[0, 0] = block[0, 0][1:]  # no comma before the first row
            f.write("".join(block.ravel().tolist()))
        f.write(tail)


def _write_meta(path: Path, config: RunConfig, columns: list[str]) -> None:
    meta = dataclasses.asdict(config)
    meta["columns"] = columns
    meta["artifact_version"] = __version__
    path.with_suffix(".meta.json").write_text(json.dumps(meta, indent=1, sort_keys=True) + "\n")


def _emit(args, table: dict[str, np.ndarray], params: dict) -> int:
    out = Path(args.out) if args.out else Path(f"{args.subcommand}.{args.format}")
    config = RunConfig(
        subcommand=args.subcommand,
        units=args.units,
        out=str(out),
        format=args.format,
        seed=args.seed,
        params=params,
    )
    _write_table(out, table, args.format)
    _write_meta(out, config, list(table))
    print(f"wrote {len(next(iter(table.values())))} rows to {out}")
    return 0


def _constants(args):
    return constants_for(UnitMode(args.units))


def _cmd_fig_gaussian(args) -> int:
    """Capacity vs preparation precision, one curve per signal-to-threshold ratio."""
    if any(r < 0 for r in args.ratios):
        raise ValueError("ratios must be >= 0")
    if args.grid_points < 1 or args.grid_min <= 0 or args.grid_max < args.grid_min:
        raise ValueError("invalid precision grid")
    c = _constants(args)
    vstar = gaussian.optimal_sigma2(args.t, args.mass, c)
    grid = vstar * np.logspace(
        math.log10(args.grid_min), math.log10(args.grid_max), args.grid_points
    )
    ratios = sorted(args.ratios)
    curves = np.concatenate(
        [gaussian.capacity_vs_precision_curve(args.t, args.mass, r * vstar, grid, c) for r in ratios]
    )
    return _emit(
        args,
        {
            "sigma2_over_vstar": curves[:, 0],
            "ratio": np.repeat(ratios, grid.size),
            "capacity_nats": curves[:, 1],
        },
        {
            "ratios": ratios,
            "t": args.t,
            "mass": args.mass,
            "grid_min": args.grid_min,
            "grid_max": args.grid_max,
            "grid_points": args.grid_points,
        },
    )


def _cmd_fig_two_level(args) -> int:
    """Two-level capacity over one oscillation period, one curve per gamma."""
    if args.units != "natural":
        raise ValueError("fig-two-level runs in natural units (use --units natural)")
    if not 0.0 <= args.r0 < 0.5:
        raise ValueError(f"r0 must lie in [0, 0.5), got {args.r0}")
    if any(g < 0 for g in args.gammas):
        raise ValueError("gamma values must be >= 0")
    if args.time_points < 2:
        raise ValueError("need at least 2 time points")
    c = _constants(args)
    r0 = PrepBias(args.r0)
    gammas = sorted(args.gammas)
    times, caps = [], []
    for gamma in gammas:
        eps = eps_for_gamma(gamma)
        h = TwoLevelHamiltonian(E=0.0, Delta=gamma * eps, epsilon=eps)
        t = np.linspace(0.0, period(h, c), args.time_points)
        times.append(t)
        caps.append(infotheory.two_level_capacities(h, r0, t, c, base="bits"))
    return _emit(
        args,
        {
            "gamma": np.repeat(gammas, args.time_points),
            "t": np.concatenate(times),
            "capacity_bits": np.concatenate(caps),
        },
        {"gammas": gammas, "r0": args.r0, "time_points": args.time_points},
    )


def _cmd_contour(args) -> int:
    """Capacity at the optimal preparation variance over a mass/delay grid."""
    if args.units != "si":
        raise ValueError("contour reports SI worked numbers (use --units si)")
    for name in ("mass_min", "mass_max", "t_min", "t_max"):
        if getattr(args, name) <= 0:
            raise ValueError(f"--{name.replace('_', '-')} must be positive")
    if args.p_constraint < 0:
        raise ValueError("--p-constraint must be >= 0")
    c = _constants(args)
    masses = np.logspace(math.log10(args.mass_min), math.log10(args.mass_max), args.mass_points)
    times = np.logspace(math.log10(args.t_min), math.log10(args.t_max), args.t_points)
    # Row order: mass outer, t inner.
    mass, t = np.repeat(masses, times.size), np.tile(times, masses.size)
    vstar, cap = gaussian.capacity_at_optimum(t, mass, args.p_constraint, c)
    return _emit(
        args,
        {"mass": mass, "t": t, "vstar": vstar, "capacity_nats": cap},
        {
            "mass_min": args.mass_min,
            "mass_max": args.mass_max,
            "mass_points": args.mass_points,
            "t_min": args.t_min,
            "t_max": args.t_max,
            "t_points": args.t_points,
            "p_constraint": args.p_constraint,
        },
    )


def _cmd_evolve(args) -> int:
    """Raw time evolution: position densities or measurement probabilities."""
    if not args.times or any(t < 0 for t in args.times):
        raise ValueError("--times must list delays >= 0")
    c = _constants(args)
    times = sorted(args.times)
    if args.channel == "gaussian":
        prep = gaussian.GaussianPrep(x0=args.x0, sigma2_A=args.sigma2, mass=args.mass)
        width = 10.0 * math.sqrt(gaussian.noise_variance(prep, times[-1], c))
        x = np.linspace(prep.x0 - width, prep.x0 + width, args.grid_points)
        table = {
            "t": np.repeat(times, x.size),
            "x": np.tile(x, len(times)),
            "density": np.concatenate([gaussian.density_at(prep, x, t, c) for t in times]),
        }
        params = {
            "channel": "gaussian",
            "x0": args.x0,
            "sigma2": args.sigma2,
            "mass": args.mass,
            "times": times,
            "grid_points": args.grid_points,
        }
    else:
        eps = args.epsilon
        h = TwoLevelHamiltonian(E=0.0, Delta=args.gamma * eps, epsilon=eps)
        prob0, prob1 = transition_probs(h, PrepBias(args.p), np.array(times), c)
        table = {"t": np.array(times), "prob0": prob0, "prob1": prob1}
        params = {
            "channel": "two_level",
            "gamma": args.gamma,
            "epsilon": eps,
            "p": args.p,
            "times": times,
        }
    return _emit(args, table, params)


def _parse_tolerance_overrides(pairs: list[str]) -> dict[str, float]:
    overrides = {}
    for pair in pairs:
        name, _, value = pair.partition("=")
        if not value:
            raise ValueError(f"--tolerance expects NAME=VALUE, got {pair!r}")
        overrides[name] = finite(value)
    return overrides


def _cmd_verify(args) -> int:
    """Run the oracle-equivalence and invariant suites; exit 0 iff all pass."""
    overrides = _parse_tolerance_overrides(args.tolerance)
    reports = verify.run_suite(args.suite, seed=args.seed, trials=args.trials, tolerances=overrides)
    payload = {
        "artifact_version": __version__,
        "suite": args.suite,
        "seed": args.seed,
        "trials": args.trials,
        "tolerance_overrides": overrides,
        "passed": all(r.passed for r in reports),
        "reports": [r.to_dict() for r in reports],
    }
    for report in reports:
        for check in report.checks:
            status = "PASS" if check.passed else ("FINDING" if check.kind == "finding" else "FAIL")
            line = (
                f"[{report.suite}] {check.name}: {status} "
                f"(max deviation {check.max_deviation:.3e}, tolerance {check.tolerance:.3e})"
            )
            if check.details:
                line += f" - {check.details}"
            print(line)
    if args.out:
        Path(args.out).write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
        print(f"wrote report to {args.out}")
    if not payload["passed"]:
        failing = [c.name for r in reports for c in r.failing()]
        print(f"FAILED checks: {', '.join(failing)}", file=sys.stderr)
        return 1
    return 0


def _add_common(parser: argparse.ArgumentParser, default_units: str) -> None:
    parser.add_argument("--units", choices=["si", "natural"], default=default_units)
    parser.add_argument("--out", default=None, help="output path (default: <subcommand>.<format>)")
    parser.add_argument("--format", choices=["csv", "json"], default="csv")
    parser.add_argument("--seed", type=int, default=42)


def build_parser(subcommand: str | None = None) -> argparse.ArgumentParser:
    """The chancap parser; only `subcommand` gets its options, or every one when None.

    Every subcommand is registered either way, so usage and help lines are
    the same. Adding one subcommand's options instead of all five's is most
    of the cost of a parse.
    """
    parser = argparse.ArgumentParser(
        prog="chancap",
        description="Capacity analysis of the particle-placement and two-level channels",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name: str, help_line: str) -> argparse.ArgumentParser | None:
        p = sub.add_parser(name, help=help_line)
        return p if subcommand in (None, name) else None

    if p := add("fig-gaussian", "capacity vs preparation precision curves"):
        _add_common(p, "natural")
        p.add_argument("--ratios", type=finite, nargs="+", default=[0.5, 5.0, 50.0],
                       help="signal-to-threshold ratios P/v*")
        p.add_argument("--t", type=finite, default=1.0, help="measurement delay")
        p.add_argument("--mass", type=finite, default=1.0)
        p.add_argument("--grid-min", type=finite, default=1e-2, help="smallest sigma2/v*")
        p.add_argument("--grid-max", type=finite, default=1e2, help="largest sigma2/v*")
        p.add_argument("--grid-points", type=int, default=401)
        p.set_defaults(handler=_cmd_fig_gaussian)

    if p := add("fig-two-level", "two-level capacity over one period"):
        _add_common(p, "natural")
        p.add_argument("--gammas", type=finite, nargs="+", default=[0.0, 1.0, 2.0, 4.0],
                       help="gap-to-tunneling ratios Delta/epsilon")
        p.add_argument("--r0", type=finite, default=0.0, help="preparation bias in [0, 0.5)")
        p.add_argument("--time-points", type=int, default=501)
        p.set_defaults(handler=_cmd_fig_two_level)

    if p := add("contour", "capacity over a mass/delay grid at optimal precision"):
        _add_common(p, "si")
        p.add_argument("--mass-min", type=finite, default=1e-31)
        p.add_argument("--mass-max", type=finite, default=1e-6)
        p.add_argument("--mass-points", type=int, default=201)
        p.add_argument("--t-min", type=finite, default=1e-3)
        p.add_argument("--t-max", type=finite, default=1e3)
        p.add_argument("--t-points", type=int, default=201)
        p.add_argument("--p-constraint", type=finite, default=1.0,
                       help="placement second-moment bound P (m^2 in SI)")
        p.set_defaults(handler=_cmd_contour)

    if p := add("evolve", "raw densities or transition probabilities over time"):
        _add_common(p, "natural")
        p.add_argument("--channel", choices=["gaussian", "two_level"], required=True)
        p.add_argument("--times", type=finite, nargs="+", required=True)
        p.add_argument("--x0", type=finite, default=0.0)
        p.add_argument("--sigma2", type=finite, default=1.0)
        p.add_argument("--mass", type=finite, default=1.0)
        p.add_argument("--grid-points", type=int, default=101)
        p.add_argument("--gamma", type=finite, default=1.0)
        p.add_argument("--epsilon", type=finite, default=1.0)
        p.add_argument("--p", type=finite, default=0.0, help="preparation bias")
        p.set_defaults(handler=_cmd_evolve)

    if p := add("verify", "run the verification suites"):
        _add_common(p, "natural")
        p.add_argument("--suite", choices=[*verify.SUITES, "all"], default="all")
        p.add_argument("--trials", type=int, default=1000)
        p.add_argument("--tolerance", action="append", default=[], metavar="NAME=VALUE",
                       help="override a check tolerance (repeatable; harness self-test hook)")
        p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # The top-level options take no value, so the first word that is not an
    # option is the subcommand argparse will dispatch to.
    chosen = next((a for a in argv if not a.startswith("-")), None)
    args = build_parser(chosen).parse_args(argv)
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
