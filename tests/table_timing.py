"""Time each default table command per format in two checkouts, in alternating fresh processes.

    python tests/table_timing.py --parent DIR --change DIR --runs 10

Each of DIR is a checkout. Run i is one pair: it starts one fresh Python
process per checkout, with that checkout's src/ on PYTHONPATH, in the order
bench_pairs.order(i) gives. The process imports chancap.cli and times
``cli.main`` once for each command of artefacts.TABLES in CSV and then in
JSON, writing into a temporary directory, so the first write of a process
pays any set-up the writer builds on first use. It then runs each command
again under tracemalloc and records the peak of the ``cli._write_table``
call alone: the bytes the writer holds at once, not the table's own arrays.

Prints bench_pairs.table with one group per table and format and two
metrics, the time `ms` and the writer peak `writer_peak_mb`: each side's
median [q1, q3] and mean, the ratio change / parent (below 1: the change
is faster or smaller), the runs the change won and the gap against the
parent's IQR.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from artefacts import TABLES
from bench_pairs import SIDES, order, summarize_pairs, table

FORMATS = ("csv", "json")
METRICS = {"ms": "lower", "writer_peak_mb": "lower"}

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
        write(*args)
        peaks.append(tracemalloc.get_traced_memory()[1])

    cli._write_table = traced
    tracemalloc.start()
    for name, argv in tables:
        cli.main(argv)
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
    """One fresh process in a checkout: {name: {"s": seconds, "code": exit code, "peak": bytes}}."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    with tempfile.TemporaryDirectory() as tmp:
        proc = subprocess.run([sys.executable, "-c", _CHILD, json.dumps(tables())], cwd=tmp, env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode:
        raise SystemExit(f"{checkout}: exited {proc.returncode}: {proc.stderr.strip()}")
    result = json.loads(proc.stdout)
    failed = [name for name, r in result.items() if r["code"] != 0]
    if failed:
        raise SystemExit(f"{checkout}: {', '.join(failed)} exited nonzero")
    return result


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
    for i in range(args.runs):
        for side in order(i):
            for name, r in run_once(checkouts[side]).items():
                samples[name]["ms"][side].append(r["s"] * 1e3)
                samples[name]["writer_peak_mb"][side].append(r["peak"] / 1e6)
    print(table(summarize_pairs(samples, METRICS), "table"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
