"""Time each default table command per format in two checkouts, in alternating fresh processes.

    python tests/table_timing.py --parent DIR --change DIR --runs 10

Each of DIR is a checkout. Run i starts one fresh Python process per
checkout, with that checkout's src/ on PYTHONPATH, the checkout that starts
first alternating with i. The process imports chancap.cli and times
``cli.main`` once for each command of artefacts.TABLES in CSV and then in
JSON, writing into a temporary directory, so the first write of a process
pays any set-up the writer builds on first use. It then runs each command
again under tracemalloc and records the peak of the ``cli._write_table``
call alone: the bytes the writer holds at once, not the table's own arrays.

Prints, per table and format, each side's p50 in milliseconds, the ratio
parent / change (above 1: the change is faster) and each side's writer peak
in MB (the largest over the runs).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from artefacts import TABLES

SIDES = ("parent", "change")
FORMATS = ("csv", "json")

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


def summarize(runs: dict[str, list[dict]]) -> dict[str, dict]:
    """Per table: each side's p50 seconds and largest peak bytes, and the p50 ratio parent / change.

    runs[side] holds one run_once result per run; both sides hold the same
    tables.
    """
    summary = {}
    for name in runs["parent"][0]:
        row = {}
        for side in SIDES:
            row[side] = {
                "p50": statistics.median(r[name]["s"] for r in runs[side]),
                "peak": max(r[name]["peak"] for r in runs[side]),
            }
        row["p50_ratio"] = row["parent"]["p50"] / row["change"]["p50"]
        summary[name] = row
    return summary


def table(summary: dict[str, dict]) -> str:
    """The summary as aligned text, times in ms and peaks in MB."""
    rows = [("table", "parent p50", "change p50", "p50 ratio", "parent peak", "change peak")]
    for name, row in summary.items():
        rows.append((
            name,
            *(f"{row[side]['p50'] * 1e3:.1f}" for side in SIDES),
            f"{row['p50_ratio']:.3f}",
            *(f"{row[side]['peak'] / 1e6:.2f}" for side in SIDES),
        ))
    widths = [max(len(row[k]) for row in rows) for k in range(len(rows[0]))]
    return "\n".join("  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in rows)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--runs", type=int, default=10, help="fresh processes per checkout")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be >= 1")
    checkouts = {side: getattr(args, side).resolve() for side in SIDES}
    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    for i in range(args.runs):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            runs[side].append(run_once(checkouts[side]))
    print(table(summarize(runs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
