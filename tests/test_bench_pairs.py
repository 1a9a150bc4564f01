"""bench_pairs' summary on made-up runs: no benchmark is run."""

import bench_pairs

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
    assert ops["parent"] == {"median": 12, "q1": 11, "q3": 13}
    assert ops["change"] == {"median": 13, "q1": 12, "q3": 14}
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
    assert summary["w"]["ops_per_s"]["parent"] == {"median": 10, "q1": 10, "q3": 10}
    assert summary["v"] == {"pairs": 0}
