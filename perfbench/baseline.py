#!/usr/bin/env python3
"""One-shot baseline report, outside the gated benchmark runs.

    python3 perfbench/baseline.py --out perfbench/results/baseline-LABEL.json

Records the wall time of ``verify.run_suite(suite, trials=1000)`` for each
suite, of each CLI subcommand with its default arguments (``evolve`` needs
``--channel`` and ``--times``, so it runs once per channel with
``--times 0 0.5 1 2``), and of the Tier-1 test command from ROADMAP.md.
Each figure is a single run. Run it from the root of a checkout; it takes
about four minutes on a 2-core machine.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
os.environ.update({var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")})
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from child import OUT_DIR, environment, import_program  # noqa: E402

TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
CLI_DEFAULTS = {
    "fig-gaussian": ["fig-gaussian"],
    "fig-two-level": ["fig-two-level"],
    "contour": ["contour"],
    "evolve --channel gaussian": ["evolve", "--channel", "gaussian", "--times", "0", "0.5", "1", "2"],
    "evolve --channel two_level": ["evolve", "--channel", "two_level", "--times", "0", "0.5", "1", "2"],
    "verify": ["verify"],
}


def timed(fn) -> tuple[float, object]:
    start = time.perf_counter()
    out = fn()
    return time.perf_counter() - start, out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", required=True, help="JSON report path")
    args = parser.parse_args()

    import_program()
    from chancap import cli, verify

    report = {"environment": environment(seed=42), "verify_suites_trials_1000_s": {}, "cli_defaults_s": {}}
    for suite in verify.SUITES:
        seconds, reports = timed(lambda: verify.run_suite(suite, trials=1000))
        report["verify_suites_trials_1000_s"][suite] = seconds
        print(f"verify suite {suite}: {seconds:.2f} s, passed={all(r.passed for r in reports)}")

    workdir = OUT_DIR / f"baseline-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        for label, argv in CLI_DEFAULTS.items():
            out = str(workdir / f"{argv[0]}.out")
            with contextlib.redirect_stdout(io.StringIO()):
                seconds, code = timed(lambda: cli.main([*argv, "--out", out]))
            report["cli_defaults_s"][label] = seconds
            print(f"chancap {label}: {seconds:.2f} s, exit {code}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    seconds, proc = timed(
        lambda: subprocess.run(TIER1, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    )
    summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    report["tier1"] = {"command": "PYTHONPATH=src " + " ".join(TIER1[1:]), "seconds": seconds,
                       "summary": re.sub(r"\s+in [\d.]+s.*$", "", summary)}
    print(f"tier-1: {seconds:.1f} s ({summary})")

    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
