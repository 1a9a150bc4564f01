"""Command-line front end: figure data, channel evolution tables, verification.

The table subcommands emit machine-readable tables (CSV with
17-significant-digit scientific notation, or JSON) plus a ``.meta.json``
sidecar. The sidecar records the run fields (subcommand, units, out, format,
seed) and, under ``params``, every other option of the subcommand as the
handler parsed and sorted it, so identical configurations reproduce
byte-identical outputs. ``verify`` writes its report only when given
``--out``. Exit codes: 0 success, 1 verification failure, 2 usage errors,
an output path that cannot be written among them.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, gaussian, infotheory, verify
from .twolevel import PrepBias, TwoLevelHamiltonian, eps_for_gamma, period, transition_probs
from .units import UnitMode, constants_for

USAGE_ERROR = 2

#: Options of every table subcommand, recorded at the top level of its sidecar.
_RUN_FIELDS = ("subcommand", "units", "out", "format", "seed")


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
    distinct values are formatted and framed in one call: "%.16e" for CSV,
    and for JSON json's own spelling, float.__repr__ or NaN / Infinity.
    The separators go into that one call, so the framed texts are split
    out of one string and no column's texts are ever held twice.
    """
    keys, inverse = np.unique(column.view(np.int64), return_inverse=True)
    values = keys.view(np.float64).tolist()
    # No cell or separator contains NUL or "%", and no JSON number contains ", ".
    if fmt == "csv":
        text = "\0".join([before + "%.16e" + after] * len(values)) % tuple(values)
    else:
        text = before + json.dumps(values)[1:-1].replace(", ", after + "\0" + before) + after
    return np.array(text.split("\0"), dtype=object), inverse


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


def _emit(args, table: dict[str, np.ndarray], unused: tuple[str, ...] = ()) -> int:
    """Write the table and its sidecar, whose params are the options but run fields and `unused`."""
    out = Path(args.out or f"{args.subcommand}.{args.format}")
    options = vars(args)
    skip = {*_RUN_FIELDS, "handler", *unused}
    meta = {
        **{name: options[name] for name in _RUN_FIELDS},
        "out": str(out),
        "params": {name: value for name, value in options.items() if name not in skip},
        "columns": list(table),
        "artifact_version": __version__,
    }
    _write_table(out, table, args.format)
    out.with_suffix(".meta.json").write_text(json.dumps(meta, indent=1, sort_keys=True) + "\n")
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
    ratios = args.ratios = sorted(args.ratios)
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
    )


def _cmd_fig_two_level(args) -> int:
    """Two-level capacity over one oscillation period, one curve per gamma."""
    if not 0.0 <= args.r0 < 0.5:
        raise ValueError(f"r0 must lie in [0, 0.5), got {args.r0}")
    if args.time_points < 2:
        raise ValueError("need at least 2 time points")
    c = _constants(args)
    r0 = PrepBias(args.r0)
    gammas = args.gammas = sorted(args.gammas)
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
    )


def _cmd_contour(args) -> int:
    """Capacity at the optimal preparation variance over a mass/delay grid."""
    for name in ("mass_min", "mass_max", "t_min", "t_max"):
        if getattr(args, name) <= 0:
            raise ValueError(f"--{name.replace('_', '-')} must be positive")
    c = _constants(args)
    masses = np.logspace(math.log10(args.mass_min), math.log10(args.mass_max), args.mass_points)
    times = np.logspace(math.log10(args.t_min), math.log10(args.t_max), args.t_points)
    # Row order: mass outer, t inner.
    mass, t = np.repeat(masses, times.size), np.tile(times, masses.size)
    vstar, cap = gaussian.capacity_at_optimum(t, mass, args.p_constraint, c)
    return _emit(args, {"mass": mass, "t": t, "vstar": vstar, "capacity_nats": cap})


def _cmd_evolve(args) -> int:
    """Raw time evolution: position densities or measurement probabilities."""
    c = _constants(args)
    times = args.times = sorted(args.times)
    if args.channel == "gaussian":
        prep = gaussian.GaussianPrep(x0=args.x0, sigma2_A=args.sigma2, mass=args.mass)
        width = 10.0 * math.sqrt(gaussian.noise_variance(prep, times[-1], c))
        x = np.linspace(prep.x0 - width, prep.x0 + width, args.grid_points)
        table = {
            "t": np.repeat(times, x.size),
            "x": np.tile(x, len(times)),
            "density": gaussian.density_at(prep, x, np.array(times)[:, None], c).ravel(),
        }
        unused = ("gamma", "epsilon", "p")
    else:
        eps = args.epsilon
        h = TwoLevelHamiltonian(E=0.0, Delta=args.gamma * eps, epsilon=eps)
        prob0, prob1 = transition_probs(h, PrepBias(args.p), np.array(times), c)
        table = {"t": np.array(times), "prob0": prob0, "prob1": prob1}
        unused = ("x0", "sigma2", "mass", "grid_points")
    return _emit(args, table, unused)


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


def _add_common(parser: argparse.ArgumentParser, default_units: str | None = None) -> None:
    if default_units:  # else the subcommand runs in one convention, set with its handler
        parser.add_argument("--units", choices=["si", "natural"], default=default_units)
    parser.add_argument("--out", default=None, help="output path (default: <subcommand>.<format>)")
    parser.add_argument("--format", choices=["csv", "json"], default="csv")
    parser.add_argument("--seed", type=int, default=42)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The chancap parser, built once per process: handlers are bound at the first build.

    Parsing never changes it. Handlers rebind list options rather than mutate
    their defaults, and argparse copies the --tolerance default.
    """
    parser = argparse.ArgumentParser(
        prog="chancap", description="Capacity analysis of the particle-placement and two-level channels")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("fig-gaussian", help="capacity vs preparation precision curves")
    _add_common(p, "natural")
    p.add_argument("--ratios", type=finite, nargs="+", default=[0.5, 5.0, 50.0],
                   help="signal-to-threshold ratios P/v*")
    p.add_argument("--t", type=finite, default=1.0, help="measurement delay")
    p.add_argument("--mass", type=finite, default=1.0)
    p.add_argument("--grid-min", type=finite, default=1e-2, help="smallest sigma2/v*")
    p.add_argument("--grid-max", type=finite, default=1e2, help="largest sigma2/v*")
    p.add_argument("--grid-points", type=int, default=401)
    p.set_defaults(handler=_cmd_fig_gaussian)

    p = sub.add_parser("fig-two-level", help="two-level capacity over one period")
    _add_common(p)
    p.add_argument("--gammas", type=finite, nargs="+", default=[0.0, 1.0, 2.0, 4.0],
                   help="gap-to-tunneling ratios Delta/epsilon")
    p.add_argument("--r0", type=finite, default=0.0, help="preparation bias in [0, 0.5)")
    p.add_argument("--time-points", type=int, default=501)
    p.set_defaults(handler=_cmd_fig_two_level, units="natural")

    p = sub.add_parser("contour", help="capacity over a mass/delay grid at optimal precision")
    _add_common(p)
    p.add_argument("--mass-min", type=finite, default=1e-31)
    p.add_argument("--mass-max", type=finite, default=1e-6)
    p.add_argument("--mass-points", type=int, default=201)
    p.add_argument("--t-min", type=finite, default=1e-3)
    p.add_argument("--t-max", type=finite, default=1e3)
    p.add_argument("--t-points", type=int, default=201)
    p.add_argument("--p-constraint", type=finite, default=1.0,
                   help="placement second-moment bound P (m^2 in SI)")
    p.set_defaults(handler=_cmd_contour, units="si")

    p = sub.add_parser("evolve", help="raw densities or transition probabilities over time")
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

    p = sub.add_parser("verify", help="run the verification suites")
    p.add_argument("--out", default=None, help="report path (default: no report)")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--suite", choices=[*verify.SUITES, "all"], default="all")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--tolerance", action="append", default=[], metavar="NAME=VALUE",
                   help="override a check tolerance (repeatable; harness self-test hook)")
    p.set_defaults(handler=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
