"""grid_classes' summary on made-up timings: nothing is timed."""

import re

import grid_classes


def test_summary_gives_p50_mean_and_ratios():
    # Shaped as the timer builds them: one group per grid class, metric us, one value per pair.
    times = {
        "flat": {"us": {"parent": [4.0, 1.0, 3.0], "change": [2.0, 1.0, 3.0]}},
        "uniform": {"us": {"parent": [1.0, 3.0], "change": [2.0, 2.0]}},
    }
    summary = grid_classes.summarize_pairs(times, {"us": "lower"})
    flat = summary["flat"]
    assert flat["pairs"] == 3
    assert flat["us"]["parent"] == {"median": 3.0, "q1": 2.0, "q3": 3.5, "mean": 8.0 / 3.0}
    assert flat["us"]["change"] == {"median": 2.0, "q1": 1.5, "q3": 2.5, "mean": 2.0}
    assert flat["us"]["change_wins"] == 1  # two ties
    assert flat["us"]["parent_iqr"] == 1.5 and flat["us"]["median_ratio"] == 2.0 / 3.0
    uniform = summary["uniform"]
    assert uniform["pairs"] == 2 and uniform["us"]["change_wins"] == 1 and uniform["us"]["median_ratio"] == 1.0
    lines = grid_classes.table(summary, "class").splitlines()
    assert len(lines) == 3 and lines[0].split()[:2] == ["class", "metric"]
    assert [re.split(r"\s{2,}", line) for line in lines[1:]] == [
        ["flat", "us", "3 [2, 3.5]", "2.667", "2 [1.5, 2.5]", "2", "0.667", "1/3", "0.67"],
        ["uniform", "us", "2 [1.5, 2.5]", "2", "2 [2, 2]", "2", "1.000", "1/2", "0.00"],
    ]
