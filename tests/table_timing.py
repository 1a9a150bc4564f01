"""Time each default table command per format in two checkouts, in fresh processes and in one.

    python tests/table_timing.py --parent DIR --change DIR --runs 10

Each of DIR is a checkout. Run i is one pair, in two parts.

* Fresh processes: one per checkout, with that checkout's src/ on
  PYTHONPATH, in the order bench_pairs.order(i) gives. The process imports
  chancap.cli and times ``cli.main`` once for each command of
  artefacts.TABLES in CSV and then in JSON, writing into a new temporary
  directory, so the first write of a process pays any set-up the writer
  builds on first use and creates its files. It then runs each command
  again under tracemalloc and records the peak of the ``cli._write_table``
  call alone: the bytes the writer holds at once, not the table's own
  arrays.
* One process: this one, which has both checkouts' chancap loaded under
  two package names (``load``) and has written the whole set once with
  each. It writes the set WARM_SETS more times with each, as perfbench's
  cli-tables op does, each tree into its own temporary directory over the
  file its previous set left at the path, alternating the trees call by
  call in bench_pairs.order (each table's first tree alternates from set to
  set), and keeps the median of each table's warm writes. Fresh processes
  on one host differ by up to 1.5x; calls alternated in one process do not.

Prints bench_pairs.table with one group per table and format and three
metrics, the first write's time `ms`, the warm time `warm_ms` and the
writer peak `writer_peak_mb`: each side's median [q1, q3] and mean, the
ratio change / parent (below 1: the change is faster or smaller), the runs
the change won and the gap against the parent's IQR. A first write also
times the table builds of first use and moves with where the tree sits;
`warm_ms` is the writer's steady cost.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import io
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from artefacts import TABLES
from bench_pairs import SIDES, order, summarize_pairs, table

FORMATS = ("csv", "json")
METRICS = {"ms": "lower", "warm_ms": "lower", "writer_peak_mb": "lower"}
#: In-process writes of the whole set per run and tree, for warm_ms.
WARM_SETS = 5

# Runs in the fresh process: argv[1] is a JSON list of [name, argv] pairs.
_CHILD = r"""
import contextlib, io, json, sys, time, tracemalloc
from chancap import cli

tables = json.loads(sys.argv[1])
result = {}
with contextlib.redirect_stdout(io.StringIO()):
    for name, argv in tables:
        start = time.perf_counter()
        code = cli.main(argv)
        result[name] = {"s": time.perf_counter() - start, "code": code}
    write, peaks = cli._write_table, []

    def traced(*args):
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]  # the table's arrays and all else held before the call
        nrows = write(*args)
        peaks.append(tracemalloc.get_traced_memory()[1] - held)
        return nrows

    cli._write_table = traced
    tracemalloc.start()
    for name, argv in tables:
        result[name]["code"] = result[name]["code"] or cli.main(argv)
        result[name]["peak"] = peaks.pop()
    tracemalloc.stop()
print(json.dumps(result))
"""


def tables() -> list[tuple[str, list[str]]]:
    """(name, argv) of every default table in each format, --out relative to the working directory."""
    return [
        (f"{cmd[0]}{'-' + cmd[2] if cmd[0] == 'evolve' else ''} {fmt}",
         [*cmd, "--format", fmt, "--out", f"{k}.{fmt}"])
        for fmt in FORMATS
        for k, cmd in enumerate(TABLES)
    ]


def run_once(checkout: Path) -> dict:
    """One fresh process in a checkout: {name: {"s": seconds, "code": exit code, "peak": bytes}}.

    "code" is the first nonzero exit code of the table's writes, or 0.
    """
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    with tempfile.TemporaryDirectory() as tmp:
        proc = subprocess.run([sys.executable, "-c", _CHILD, json.dumps(tables())], cwd=tmp,
                              env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode:
        raise SystemExit(f"{checkout}: exited {proc.returncode}: {proc.stderr.strip()}")
    result = json.loads(proc.stdout)
    failed = [name for name, r in result.items() if r["code"] != 0]
    if failed:
        raise SystemExit(f"{checkout}: {', '.join(failed)} exited nonzero")
    return result


def load(checkout: Path, name: str):
    """The cli module of a checkout's chancap, imported as the package `name` with its submodules."""
    init = checkout / "src" / "chancap" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.cli")


def timed(cli, directory: str, argv: list[str]) -> float:
    """Seconds of one in-process cli.main(argv), run in directory."""
    os.chdir(directory)
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        code = cli.main(argv)
        seconds = time.perf_counter() - start
    if code:
        raise SystemExit(f"{cli.__name__} {' '.join(argv)} exited {code}")
    return seconds


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--runs", type=int, default=10, help="fresh processes per checkout")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be >= 1")
    checkouts = {side: getattr(args, side).resolve() for side in SIDES}
    samples = {name: {metric: {side: [] for side in SIDES} for metric in METRICS} for name, _ in tables()}
    with contextlib.ExitStack() as stack:
        stack.callback(os.chdir, os.getcwd())
        clis = {side: load(checkouts[side], f"chancap_{side}") for side in SIDES}
        dirs = {side: stack.enter_context(tempfile.TemporaryDirectory()) for side in SIDES}
        for side in SIDES:  # the first set, which builds the tables of first use
            for _, argv in tables():
                timed(clis[side], dirs[side], argv)
        sets = 0
        for i in range(args.runs):
            for side in order(i):
                for name, r in run_once(checkouts[side]).items():
                    samples[name]["ms"][side].append(r["s"] * 1e3)
                    samples[name]["writer_peak_mb"][side].append(r["peak"] / 1e6)
            warm = {name: {side: [] for side in SIDES} for name, _ in tables()}
            for _ in range(WARM_SETS):
                # Each table's first tree alternates from set to set, and from table to table within a set.
                for j, (name, argv) in enumerate(tables()):
                    for side in order(sets + j):
                        warm[name][side].append(timed(clis[side], dirs[side], argv))
                sets += 1
            for name, by_side in warm.items():
                for side, seconds in by_side.items():
                    samples[name]["warm_ms"][side].append(statistics.median(seconds) * 1e3)
    print(table(summarize_pairs(samples, METRICS), "table"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
