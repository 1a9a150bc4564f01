"""Command-line front end: figure data, channel evolution tables, verification.

The table subcommands emit machine-readable tables (CSV with
17-significant-digit scientific notation, or JSON) plus a ``.meta.json``
sidecar. The sidecar records the run fields (subcommand, units, out, format,
seed) and, under ``params``, every other option of the subcommand as the
handler parsed and sorted it, so identical configurations reproduce
byte-identical outputs. ``verify`` writes its report only when given
``--out``. Every output file is written over in place and cut to the bytes
written, not truncated at open (``_overwrite``). Exit codes: 0 success, 1
verification failure, 2 usage errors, an output path that cannot be written
among them.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import stat
import sys
from pathlib import Path

import numpy as np

from . import __version__, _floattext, gaussian, infotheory, verify
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


def count(text: str) -> int:
    """argparse type of every count option: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise ValueError(f"expected an integer >= 1, got {text!r}")
    return value


#: Values formatted per kernel call: bounds the bytes held at once, whatever the table size.
_CHUNK_VALUES = 4096

def _packed(units: np.ndarray) -> np.ndarray:
    """The rows of a uint8 array with their NUL bytes deleted, each NUL-padded to the longest."""
    width = np.count_nonzero(units, axis=1)
    out = np.zeros((len(units), width.max(initial=0)), dtype=np.uint8)
    text = units.tobytes().translate(None, b"\0")
    out[np.arange(out.shape[1]) < width[:, None]] = np.frombuffer(text, dtype=np.uint8)
    return out


def _no_trunc(path: str, flags: int) -> int:
    """open()'s opener for _overwrite: the flags of open(path, "wb"), O_TRUNC left out, and its 0o666 mode."""
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


@contextlib.contextmanager
def _overwrite(path: str | Path):
    """open(path, "wb") that writes over an existing file in place and cuts it to the bytes written.

    Truncating an existing output at open frees its blocks, which the rerun
    then allocates again; writing over the pages the file owns is cheaper.
    The cut runs on every exit, by an exception too, so no old byte is ever
    left after the new ones, except where the process dies before it. A file
    that is not regular (a pipe, a tty, /dev/null) is not cut, as "wb" does
    not cut it.
    """
    with open(path, "wb", opener=_no_trunc) as f:
        try:
            yield f
        finally:
            if stat.S_ISREG(os.fstat(f.fileno()).st_mode):
                f.truncate()  # flushes, then cuts at the position: the bytes written


def _write_json(path: str | Path, payload: dict) -> None:
    """Write payload as json.dumps(indent=1, sort_keys=True) and a newline, in UTF-8."""
    with _overwrite(path) as f:
        f.write((json.dumps(payload, indent=1, sort_keys=True) + "\n").encode())


def _write_table(path: Path, table: dict[str, np.ndarray], fmt: str) -> int:
    """Write columns as CSV, or as json.dumps({"columns", "rows"}, indent=1) does; return the row count.

    The columns broadcast to one grid, whose rows are written in C order; a
    ValueError names every column's shape where they do not. Cells are
    "%.16e" for CSV and json's float spelling for JSON, from _floattext;
    each comes as a unit, the cell after its column's separator. A column
    that holds one value per row is plain; any other is a level column. The
    units of every value of every level column come from one kernel call,
    before any row, and are kept NUL-stripped. A chunk of rows takes
    _CHUNK_VALUES values of the plain columns row by row through one kernel
    call into one uint8 block of equal-width units, and gathers each level
    column's units by its broadcast index beside them. Bytes a unit does not
    use are NUL and are deleted before the chunk is written.
    """
    columns = list(table)
    arrays = [np.asarray(col, dtype=np.float64) for col in table.values()]
    try:
        shape = np.broadcast_shapes(*(a.shape for a in arrays))
    except ValueError:
        named = ", ".join(f"{name}={a.shape}" for name, a in zip(columns, arrays))
        raise ValueError(f"table columns do not broadcast to one grid: {named}") from None
    nrows = math.prod(shape) if columns else 0
    plain = {k: a.ravel() for k, a in enumerate(arrays) if a.size == nrows}
    levels = {}
    for k, a in enumerate(arrays):
        if k not in plain:
            # Its values, and per row the flat position of the row's value, in the smallest integer type.
            position = np.arange(a.size, dtype=np.min_scalar_type(a.size)).reshape(a.shape)
            levels[k] = a.ravel(), np.broadcast_to(position, shape).ravel()
    if fmt == "csv":
        cells, first, sep = _floattext.csv_cells, "\n", ","
        head, tail = ",".join(columns), "\n"
    else:
        # Each row closes the one before it; the first drops that, and the tail closes the last.
        cells, first, sep = _floattext.json_cells, "\n  ],\n  [\n   ", ",\n   "
        head = json.dumps({"columns": columns, "rows": []}, indent=1)[: -len("]\n}")]
        tail = "\n  ]\n ]\n}\n" if nrows else "]\n}\n"
    seps = [(sep if k else first).encode() for k in range(len(columns))]
    units = {}
    if levels and nrows:
        # Every level column side by side, the shorter ones padded with zeros.
        grid = np.zeros((max(len(values) for values, _ in levels.values()), len(levels)))
        for j, (values, _) in enumerate(levels.values()):
            grid[: len(values), j] = values
        block = cells(grid.ravel(), tuple(seps[k] for k in levels)).reshape(len(grid), len(levels), -1)
        units = {k: _packed(block[: len(values), j]) for j, (k, (values, _)) in enumerate(levels.items())}
    step = _CHUNK_VALUES // max(len(plain), 1)
    with _overwrite(path) as f:
        f.write(head.encode())
        for start in range(0, nrows, step):
            stop = min(start + step, nrows)
            if plain:
                chunk = np.stack([col[start:stop] for col in plain.values()], axis=1)
                block = cells(chunk.ravel(), tuple(seps[k] for k in plain)).reshape(stop - start, -1)
            if levels:
                parts = dict(zip(plain, np.split(block, len(plain), axis=1))) if plain else {}
                for k, (_, index) in levels.items():
                    parts[k] = np.take(units[k], index[start:stop], axis=0)
                block = np.concatenate([parts.pop(k) for k in range(len(columns))], axis=1)
            data = block.tobytes()
            if b"\0" in data:
                data = data.translate(None, b"\0")
            if start == 0 and fmt == "json":
                data = data[len("\n  ],") :]
            f.write(data)
        f.write(tail.encode())
    return nrows


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
    nrows = _write_table(out, table, args.format)
    _write_json(out.with_suffix(".meta.json"), meta)
    print(f"wrote {nrows} rows to {out}")
    return 0


def _constants(args):
    return constants_for(UnitMode(args.units))


def _cmd_fig_gaussian(args) -> int:
    """Capacity vs preparation precision, one curve per signal-to-threshold ratio."""
    if any(r < 0 for r in args.ratios):
        raise ValueError("ratios must be >= 0")
    if args.grid_min <= 0 or args.grid_max < args.grid_min:
        raise ValueError("invalid precision grid")
    c = _constants(args)
    vstar = gaussian.optimal_sigma2(args.t, args.mass, c)
    grid = vstar * np.logspace(
        math.log10(args.grid_min), math.log10(args.grid_max), args.grid_points
    )
    ratios = args.ratios = sorted(args.ratios)
    curves = gaussian.capacity_vs_precision_curve(args.t, args.mass, np.array(ratios) * vstar, grid, c)
    return _emit(
        args,
        {
            "sigma2_over_vstar": curves[..., 0],
            "ratio": np.array(ratios)[:, None],
            "capacity_nats": curves[..., 1],
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
            "gamma": np.array(gammas)[:, None],
            "t": np.stack(times),
            "capacity_bits": np.stack(caps),
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
    vstar, cap = gaussian.capacity_at_optimum(times, masses[:, None], args.p_constraint, c)
    return _emit(args, {"mass": masses[:, None], "t": times, "vstar": vstar, "capacity_nats": cap})


def _cmd_evolve(args) -> int:
    """Raw time evolution: position densities or measurement probabilities."""
    c = _constants(args)
    times = args.times = sorted(args.times)
    if args.channel == "gaussian":
        prep = gaussian.GaussianPrep(x0=args.x0, sigma2_A=args.sigma2, mass=args.mass)
        width = 10.0 * math.sqrt(gaussian.noise_variance(prep, times[-1], c))
        x = np.linspace(prep.x0 - width, prep.x0 + width, args.grid_points)
        table = {
            "t": np.repeat(times, x.size),  # as a level column its own kernel call cost more: 4 levels, 404 rows
            "x": np.tile(x, len(times)),  # as a level column it measured slower: 101 levels, 404 rows
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
        _write_json(args.out, payload)
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
    p.add_argument("--grid-points", type=count, default=401)
    p.set_defaults(handler=_cmd_fig_gaussian)

    p = sub.add_parser("fig-two-level", help="two-level capacity over one period")
    _add_common(p)
    p.add_argument("--gammas", type=finite, nargs="+", default=[0.0, 1.0, 2.0, 4.0],
                   help="gap-to-tunneling ratios Delta/epsilon")
    p.add_argument("--r0", type=finite, default=0.0, help="preparation bias in [0, 0.5)")
    p.add_argument("--time-points", type=count, default=501)
    p.set_defaults(handler=_cmd_fig_two_level, units="natural")

    p = sub.add_parser("contour", help="capacity over a mass/delay grid at optimal precision")
    _add_common(p)
    p.add_argument("--mass-min", type=finite, default=1e-31)
    p.add_argument("--mass-max", type=finite, default=1e-6)
    p.add_argument("--mass-points", type=count, default=201)
    p.add_argument("--t-min", type=finite, default=1e-3)
    p.add_argument("--t-max", type=finite, default=1e3)
    p.add_argument("--t-points", type=count, default=201)
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
    p.add_argument("--grid-points", type=count, default=101)
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
