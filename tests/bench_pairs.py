"""Run the benchmark in alternating parent/change pairs and write BENCH_<tag>.json.

    python tests/bench_pairs.py --parent DIR --change DIR --tag TAG \\
        --workloads solver-agreement cli-tables --pairs 10 --first-seed 11

Each of DIR is a checkout with its own perfbench/ and src/. Pair i of a
workload runs, in each checkout, the unchanged command

    python perfbench/run.py --workload W --seed S --seconds T --trace 0

with S = first seed + i and T the run_seconds of the parent's BENCHMARK.json.
The parent runs first in even pairs and the change in odd ones. Give the two
checkouts paths of the same length: some timings follow where a buffer lands,
and the path's length moves that.

The file holds `what`, `host`, `runs` (the last line each run printed) and
`summary`. For each workload and end-to-end metric of BENCHMARK.json the
summary gives each side's median, quartiles and mean, the pairs the change
won (ties count for neither), the parent's IQR and the ratio of the medians,
change / parent. The same summary is printed as a table.

`summarize_pairs`, `table` and `order` are also the summary, the table and
the run order of tests/grid_classes.py and tests/table_timing.py, so the
three tools print the same columns. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def order(i: int) -> tuple[str, str]:
    """The sides in the order pair i runs them: the parent first in even pairs, the change in odd ones."""
    return SIDES if i % 2 == 0 else SIDES[::-1]


def _stats(values: list[float]) -> dict:
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "mean": statistics.fmean(values)}


def summarize_pairs(samples: dict, better: dict[str, str]) -> dict:
    """Per group and metric: each side's median, quartiles and mean, pairs won, parent's IQR, median ratio.

    samples[group][metric][side] holds one value per pair, in pair order; every
    metric and side of a group holds the same number of pairs. better[metric]
    is "lower" or "higher". Ties count for neither side, and the ratio is
    change / parent (None where the parent's median is 0).
    """
    summary = {}
    for group, by_metric in samples.items():
        entry = summary[group] = {"pairs": len(next(iter(by_metric.values()))["parent"])}
        if not entry["pairs"]:
            continue
        for name, value in by_metric.items():
            sign = 1.0 if better[name] == "higher" else -1.0
            parent, change = (_stats(value[side]) for side in SIDES)
            entry[name] = {
                "better": better[name],
                "parent": parent,
                "change": change,
                "change_wins": sum(sign * (c - p) > 0.0 for p, c in zip(value["parent"], value["change"])),
                "parent_iqr": parent["q3"] - parent["q1"],
                "median_ratio": change["median"] / parent["median"] if parent["median"] else None,
            }
    return summary


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """summarize_pairs of benchmark runs, one group per workload.

    `runs` holds {"workload", "seed", "tree", "result"} records; a pair is the
    two trees' runs of one workload and seed, and a pair with a failed run
    (result None) is left out. `metrics` are BENCHMARK.json's end_to_end
    entries, each with a name and whether "lower" or "higher" is better.
    """
    results = {(r["workload"], r["seed"], r["tree"]): r["result"] for r in runs}
    samples = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        seeds = [
            seed for seed in dict.fromkeys(r["seed"] for r in runs if r["workload"] == workload)
            if all(results.get((workload, seed, side)) for side in SIDES)
        ]
        samples[workload] = {
            m["name"]: {side: [results[workload, seed, side]["metrics"][m["name"]]["value"] for seed in seeds]
                        for side in SIDES}
            for m in metrics
        }
    return summarize_pairs(samples, {m["name"]: m["better"] for m in metrics})


def table(summary: dict, group: str = "workload") -> str:
    """The summary as aligned text, one row per group and metric."""
    rows = [(group, "metric", "parent median [q1, q3]", "parent mean", "change median [q1, q3]",
             "change mean", "change/parent", "wins", "gap/IQR")]
    for label, entry in summary.items():
        for name, m in entry.items():
            if name == "pairs":
                continue
            gap = abs(m["change"]["median"] - m["parent"]["median"])
            ratio = m["median_ratio"]
            rows.append((
                label,
                name,
                "{median:.4g} [{q1:.4g}, {q3:.4g}]".format(**m["parent"]),
                f"{m['parent']['mean']:.4g}",
                "{median:.4g} [{q1:.4g}, {q3:.4g}]".format(**m["change"]),
                f"{m['change']['mean']:.4g}",
                "-" if ratio is None else f"{ratio:.3f}",
                f"{m['change_wins']}/{entry['pairs']}",
                f"{gap / m['parent_iqr']:.2f}" if m["parent_iqr"] else ("0" if not gap else "inf"),
            ))
    widths = [max(len(row[k]) for row in rows) for k in range(len(rows[0]))]
    return "\n".join("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows)


def _run(checkout: Path, workload: str, seed: int, seconds: int) -> tuple[dict | None, str]:
    """One benchmark run in a checkout: its result line and its detail line, or None on failure."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        print(f"{checkout}: {' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()}", file=sys.stderr)
        return None, ""
    detail = next((line for line in lines if line.startswith("perfbench-detail: ")), "")
    return json.loads(lines[-1]), detail.removeprefix("perfbench-detail: ")


def _host(detail: str) -> str:
    env = json.loads(detail)["environment"] if detail else {}
    return (f"{env.get('nproc', '?')}-vCPU {env.get('cpu_model', '?')}, "
            f"Python {env.get('python', '?')}, numpy {env.get('numpy', '?')}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--tag", required=True, help="writes BENCH_<tag>.json")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    if len(str(checkouts["parent"])) != len(str(checkouts["change"])):
        print("warning: the two checkouts' paths differ in length", file=sys.stderr)
    bench = json.loads((checkouts["parent"] / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    runs, detail = [], ""
    for workload in args.workloads:
        for i in range(args.pairs):
            seed = args.first_seed + i
            for side in order(i):
                result, run_detail = _run(checkouts[side], workload, seed, seconds)
                detail = detail or run_detail
                runs.append({"workload": workload, "seed": seed, "tree": side, "result": result})
                print(f"{workload} seed {seed} {side}: "
                      + (json.dumps({k: v["value"] for k, v in result["metrics"].items()}) if result else "failed"),
                      flush=True)
    summary = summarize(runs, bench["end_to_end"])
    out = Path(f"BENCH_{args.tag}.json")
    out.write_text(json.dumps({
        "what": (f"perfbench/run.py --workload W --seed S --seconds {seconds} --trace 0 in a parent "
                 f"and a change checkout, seeds {args.first_seed}-{args.first_seed + args.pairs - 1}, "
                 "the side that runs first alternating; 'result' is the last line each run printed"),
        "host": _host(detail),
        "runs": runs,
        "summary": summary,
    }, indent=1) + "\n")
    print(table(summary))
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
