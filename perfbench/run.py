#!/usr/bin/env python3
"""Layered benchmark for chancap.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Runs from the root of a checkout and imports the package from its ``src/``.
Each workload runs in a fresh subprocess (one process, one thread, BLAS
thread pools set to 1) as a closed loop with one client. With ``--trace 0``
the last line of standard output is a JSON object with the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics of a traced run.
The line before it records the environment and how each figure was taken.
``--self-test`` feeds each workload's checker deliberately wrong results
and exits 0 only if every one of them is counted as a failed op.

This file uses only the standard library, so it can report a missing
package instead of crashing on an import.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("solver-agreement", "two-level-sweep", "placement-oracle", "cli-tables")
#: Fresh interpreters timed for setup_s; the median is reported. Half run
#: before the measured run and half after it, so that the median spans two
#: moments some 30 s apart rather than one slow or fast stretch of the host.
SETUP_PROBES = 4
#: Wall-clock limit of one invocation; a step still running at the limit is stopped.
TIME_LIMIT_S = 170.0
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}


class BenchError(Exception):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _child(role: str, args, deadline: float) -> dict:
    """Run child.py in a fresh interpreter and return its JSON result."""
    cmd = [sys.executable, str(HERE / "child.py"), "--role", role, "--seed", str(args.seed)]
    if args.workload:
        cmd += ["--workload", args.workload, "--seconds", str(args.seconds), "--trace", str(args.trace)]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"time limit of {TIME_LIMIT_S:.0f} s reached before the {role} step")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, text=True, timeout=remaining
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{role} step exceeded the time limit of {TIME_LIMIT_S:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{role} step exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{role} step printed no result")
    return json.loads(lines[-1])


def run(args) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    probes = []
    if not args.trace:
        probes += [_child("setup", args, deadline) for _ in range(SETUP_PROBES // 2)]
    result = _child("run", args, deadline)
    if not args.trace:
        probes += [_child("setup", args, deadline) for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    attempted = result["attempted"] + sum(p["attempted"] for p in probes)
    failed = result["failed"] + sum(p["failed"] for p in probes)
    detail = result["detail"]
    values = dict(result["metrics"])
    if args.trace:
        sys.path.insert(0, str(HERE))
        from tracing import per_layer_units

        units = per_layer_units()
    else:
        setup = [p["setup_s"] for p in probes]
        values["setup_s"] = statistics.median(setup)
        values["ok_frac"] = 1.0 - failed / attempted
        detail.update(
            setup_probes_s=setup,
            raw_setup_probes_s=[p["raw_setup_s"] for p in probes],
            setup_slowdowns=[p["slowdown"] for p in probes],
            attempted=attempted,
            failed=failed,
            failed_frac=failed / attempted,
        )
        units = END_TO_END_UNITS
    missing = set(units) - set(values)
    if missing:
        raise BenchError(f"metrics not reported: {sorted(missing)}")
    print("perfbench-detail: " + json.dumps(detail, sort_keys=True))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def self_test(args) -> int:
    report = _child("self-test", args, time.monotonic() + TIME_LIMIT_S)
    ok = True
    for name, fracs in report.items():
        good = fracs["clean_failed_frac"] == 0.0 and fracs["corrupted_failed_frac"] == 1.0
        ok &= good
        print(
            f"{name}: failed_frac {fracs['clean_failed_frac']:.2f} on clean ops, "
            f"{fracs['corrupted_failed_frac']:.2f} on corrupted ops - {'PASS' if good else 'FAIL'}"
        )
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "chancap" / "__init__.py").is_file():
        print(f"error: no chancap sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    try:
        if args.self_test:
            args.workload = None
            return self_test(args)
        if args.workload is None:
            parser.error("--workload is required")
        if args.seconds < 1:
            parser.error("--seconds must be >= 1")
        print(json.dumps(run(args)))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
