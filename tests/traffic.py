"""Lines of src/chancap that no benchmark workload runs: the traffic map.

    python tests/traffic.py [--seed 1] [--ops N]

Takes the workload names from BENCHMARK.json and each workload's class from
perfbench/workloads.py, which it imports read only, with chancap imported
inside the trace. Runs ops 0 to count_ops - 1 of each workload at the seed
(40 `solver-agreement`, 300 `placement-oracle` and 2 `cli-tables` ops), or
the first N where N is fewer, under linecov.LineCollector. Only an op's run
is traced: its inputs are made and its check is run outside the trace, and
an op whose check fails stops the script. Then prints, as path:line: text,
each line of src/chancap that no op ran, def and class lines aside, as
tests/linecov.py does for the test suite. `cli-tables` writes its tables in
a temporary directory. The full map took about 3.5 s on a 2-vCPU Xeon.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

from linecov import PACKAGE, LineCollector, print_unrun

ROOT = Path(__file__).resolve().parent.parent


def collect(seed: int, ops: int | None, workdir: Path) -> LineCollector:
    """The lines the benchmark workloads run: ops of each workload at the seed, at most `ops` if given."""
    names = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    collector = LineCollector(PACKAGE)
    with collector:
        from workloads import WORKLOADS
    for name in names:
        workload = WORKLOADS[name](seed, workdir)
        for i in range(workload.count_ops if ops is None else min(ops, workload.count_ops)):
            x = workload.make_input(i)
            with collector:
                out = workload.run(x, lambda: None)
            if not workload.check(x, out)[0]:
                raise SystemExit(f"{name} op {i} at seed {seed} failed its check")
    return collector


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--ops", type=int, default=None, help="at most OPS ops of each workload")
    args = parser.parse_args(argv)
    if args.ops is not None and args.ops < 1:
        parser.error("--ops must be >= 1")
    with tempfile.TemporaryDirectory() as workdir:
        collector = collect(args.seed, args.ops, Path(workdir))
    print_unrun(collector)
    return 0


if __name__ == "__main__":
    sys.exit(main())
