"""Time the 1e-6 grid oracle per input class in two checkouts, interleaved.

    PYTHONPATH=src python tests/grid_classes.py --parent DIR --change DIR --ops 4000 --seed 1

Each of DIR is a checkout; its src/chancap/kernels.py is loaded as a module
of its own, so the two trees run side by side in one process. The channels
are those of the first OPS `solver-agreement` inputs of the seed, taken
from perfbench's SolverAgreement.make_input in this checkout (read only),
and each input is labelled uniform or by its corner class. Each channel's
capacity_grid(p00, p10, 1e-6) is timed once in each tree. Within each class
the tree that runs first alternates, so neither tree always runs on a warm
cache. The two results must agree as int64 bits, or the script stops.

Prints, per class, the op count, each tree's p50 and mean in microseconds
and the ratios parent / change (above 1: the change is faster).
"""

from __future__ import annotations

import argparse
import importlib.util
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
STEP = 1e-6


def load_kernels(checkout: Path, name: str):
    """src/chancap/kernels.py of a checkout, as a module named name."""
    spec = importlib.util.spec_from_file_location(name, checkout / "src" / "chancap" / "kernels.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def summarize(times: dict[str, dict[str, list[float]]]) -> dict[str, dict]:
    """Per class: the op count, each side's p50 and mean, and parent / change for both.

    times[cls][side] holds one duration per op, in seconds; both sides of a
    class hold the same number.
    """
    summary = {}
    for cls, by_side in times.items():
        row = {"ops": len(by_side["parent"])}
        for side in SIDES:
            row[side] = {"p50": statistics.median(by_side[side]), "mean": statistics.fmean(by_side[side])}
        for stat in ("p50", "mean"):
            row[f"{stat}_ratio"] = row["parent"][stat] / row["change"][stat]
        summary[cls] = row
    return summary


def table(summary: dict[str, dict]) -> str:
    """The summary as aligned text, times in microseconds."""
    rows = [("class", "ops", "parent p50", "change p50", "parent mean", "change mean",
             "p50 ratio", "mean ratio")]
    for cls, row in summary.items():
        rows.append((
            cls,
            str(row["ops"]),
            *(f"{row[side][stat] * 1e6:.1f}" for stat in ("p50", "mean") for side in SIDES),
            f"{row['p50_ratio']:.3f}",
            f"{row['mean_ratio']:.3f}",
        ))
    widths = [max(len(row[k]) for row in rows) for k in range(len(rows[0]))]
    return "\n".join("  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in rows)


def _bits(result) -> tuple:
    cap, q, evals = result
    return int(np.float64(cap).view(np.int64)), int(np.float64(q).view(np.int64)), evals


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
    times: dict[str, dict[str, list[float]]] = {}
    for i in range(args.ops):
        m = workload.make_input(i)
        p00, p10 = float(m[0, 0]), float(m[1, 0])
        cls = "uniform" if i % every != every - 1 else corners[(i // every) % len(corners)]
        by_side = times.setdefault(cls, {side: [] for side in SIDES})
        order = SIDES if len(by_side["parent"]) % 2 == 0 else SIDES[::-1]
        results = {}
        for side in order:
            start = time.perf_counter()
            results[side] = kernels[side].capacity_grid(p00, p10, STEP)
            by_side[side].append(time.perf_counter() - start)
        if _bits(results["parent"]) != _bits(results["change"]):
            raise SystemExit(f"op {i}, channel ({p00!r}, {p10!r}): parent {results['parent']} "
                             f"but change {results['change']}")
    print(table(summarize(times)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
