"""bench_pairs' summary on made-up and recorded runs, and the timers that print it."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import bench_pairs
import table_timing

ROOT = Path(__file__).resolve().parents[1]

METRICS = [{"name": "ops_per_s", "better": "higher"}, {"name": "latency_p50_ms", "better": "lower"}]


def run(workload, seed, tree, ops, p50):
    metrics = {"ops_per_s": {"value": ops, "unit": "1/s"}, "latency_p50_ms": {"value": p50, "unit": "ms"}}
    return {"workload": workload, "seed": seed, "tree": tree, "result": {"metrics": metrics}}


def test_summary_counts_wins_and_gives_quartiles():
    runs = []
    for seed, (ops_parent, ops_change, p50_parent, p50_change) in enumerate(
        [(10, 12, 1.0, 0.8), (11, 11, 1.2, 0.9), (12, 15, 1.1, 1.1), (13, 14, 1.3, 0.7), (14, 13, 0.9, 0.8)]
    ):
        # alternating order, as the script runs them
        pair = [run("w", seed, "parent", ops_parent, p50_parent), run("w", seed, "change", ops_change, p50_change)]
        runs += pair if seed % 2 == 0 else pair[::-1]
    summary = bench_pairs.summarize(runs, METRICS)["w"]
    assert summary["pairs"] == 5
    ops = summary["ops_per_s"]
    assert ops["parent"] == {"median": 12, "q1": 11, "q3": 13, "mean": 12.0}
    assert ops["change"] == {"median": 13, "q1": 12, "q3": 14, "mean": 13.0}
    assert ops["change_wins"] == 3  # one tie, one loss
    assert ops["parent_iqr"] == 2 and ops["median_ratio"] == 13 / 12
    p50 = summary["latency_p50_ms"]
    assert p50["change_wins"] == 4  # lower is better; seed 2 ties
    assert p50["parent"]["median"] == 1.1 and p50["change"]["median"] == 0.8
    assert "latency_p50_ms" in bench_pairs.table({"w": summary})


def test_a_pair_with_a_failed_run_is_left_out():
    runs = [run("w", 1, "parent", 10, 1.0), run("w", 1, "change", 12, 0.9),
            run("w", 2, "parent", 10, 1.0), {"workload": "w", "seed": 2, "tree": "change", "result": None},
            {"workload": "v", "seed": 1, "tree": "parent", "result": None}, run("v", 1, "change", 1, 1.0)]
    summary = bench_pairs.summarize(runs, METRICS)
    assert summary["w"]["pairs"] == 1 and summary["w"]["ops_per_s"]["change_wins"] == 1
    assert summary["w"]["ops_per_s"]["parent"] == {"median": 10, "q1": 10, "q3": 10, "mean": 10.0}
    assert summary["v"] == {"pairs": 0}


def rows(text):
    """The table's rows below its header, split into cells."""
    return [re.split(r"\s{2,}", line) for line in text.splitlines()[1:]]


@pytest.mark.parametrize("tag", ["pr17", "pr18", "pr19", "pr20", "pr21"])
def test_recorded_summaries_come_back_from_their_runs(tag):
    record = json.loads((ROOT / f"BENCH_{tag}.json").read_text())
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    again = bench_pairs.summarize(record["runs"], metrics)
    for entry in again.values():
        for m in entry.values():
            if isinstance(m, dict):  # the mean is the one field added since these were written
                for side in bench_pairs.SIDES:
                    del m[side]["mean"]
    assert again == record["summary"]


def test_timers_print_one_row_per_group_and_metric(tmp_path):
    # This checkout as both sides; -B, so that no bytecode is written under perfbench/.
    def run(script, *args):
        cmd = [sys.executable, "-B", str(ROOT / "tests" / script), "--parent", str(ROOT), "--change", str(ROOT), *args]
        return subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, check=True).stdout

    grid, tables = run("grid_classes.py", "--ops", "16"), run("table_timing.py", "--runs", "1")
    assert grid.splitlines()[0].split()[1:] == tables.splitlines()[0].split()[1:]
    # ops 7 and 15 are the corners of the first 16 inputs
    assert [(r[0], r[1], r[-2].split("/")[1]) for r in rows(grid)] == [
        (name, metric, ops) for name, ops in (("uniform", "14"), ("rows-within-1e-12", "1"), ("entry-near-0", "1"))
        for metric in ("us", "evals")]
    assert [(r[0], r[1], r[-2].split("/")[1]) for r in rows(tables)] == [
        (name, metric, "1") for name, _ in table_timing.tables() for metric in table_timing.METRICS]
