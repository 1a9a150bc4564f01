"""Time the 1e-6 grid oracle per input class in two checkouts, interleaved.

    PYTHONPATH=src python tests/grid_classes.py --parent DIR --change DIR --ops 4000 --seed 1

Each of DIR is a checkout; its src/chancap/kernels.py is loaded as a module
of its own, so the two trees run side by side in one process. The channels
are those of the first OPS `solver-agreement` inputs of the seed, taken
from perfbench's SolverAgreement.make_input in this checkout (read only),
and each input is labelled uniform or by its corner class. Each channel's
capacity_grid(p00, p10, 1e-6) is timed once in each tree; each op is one
pair. Within each class the tree that runs first alternates as in
bench_pairs, so neither tree always runs on a warm cache. The two
capacities and the two q must agree as int64 bits, or the script stops;
the evaluation counts may differ between the trees.

Prints bench_pairs.table of the per-class times in microseconds (metric
`us`) and evaluation counts (metric `evals`): each tree's median [q1, q3]
and mean, the ratio change / parent (below 1: the change is faster or
evaluates fewer points), the ops the change won and the gap against the
parent's IQR.
"""

from __future__ import annotations

import argparse
import importlib.util
import sys
import time
from pathlib import Path

import numpy as np

from bench_pairs import SIDES, order, summarize_pairs, table

ROOT = Path(__file__).resolve().parent.parent
STEP = 1e-6


def load_kernels(checkout: Path, name: str):
    """src/chancap/kernels.py of a checkout, as a module named name."""
    spec = importlib.util.spec_from_file_location(name, checkout / "src" / "chancap" / "kernels.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bits(result) -> tuple:
    """The int64 bits of the capacity and q."""
    return tuple(int(np.float64(v).view(np.int64)) for v in result[:2])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--ops", type=int, default=4000, help="the first OPS inputs of the workload")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.ops < 1:
        parser.error("--ops must be >= 1")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from workloads import SolverAgreement

    kernels = {side: load_kernels(getattr(args, side).resolve(), f"kernels_{side}") for side in SIDES}
    workload = SolverAgreement(args.seed, ROOT)
    every, corners = workload.CORNER_EVERY, workload.CORNERS
    times: dict[str, dict[str, dict[str, list[float]]]] = {}
    for i in range(args.ops):
        m = workload.make_input(i)
        p00, p10 = float(m[0, 0]), float(m[1, 0])
        cls = "uniform" if i % every != every - 1 else corners[(i // every) % len(corners)]
        by_metric = times.setdefault(cls, {metric: {side: [] for side in SIDES} for metric in ("us", "evals")})
        results = {}
        for side in order(len(by_metric["us"]["parent"])):
            start = time.perf_counter()
            results[side] = kernels[side].capacity_grid(p00, p10, STEP)
            by_metric["us"][side].append((time.perf_counter() - start) * 1e6)
            by_metric["evals"][side].append(results[side][2])
        if _bits(results["parent"]) != _bits(results["change"]):
            raise SystemExit(f"op {i}, channel ({p00!r}, {p10!r}): parent {results['parent']} "
                             f"but change {results['change']}")
    print(table(summarize_pairs(times, {"us": "lower", "evals": "lower"}), "class"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
