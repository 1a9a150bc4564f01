"""grid_classes' summary on made-up timings: nothing is timed."""

import grid_classes


def test_summary_gives_p50_mean_and_ratios():
    times = {
        "flat": {"parent": [4.0, 1.0, 3.0], "change": [2.0, 1.0, 3.0]},
        "uniform": {"parent": [1.0, 3.0], "change": [2.0, 2.0]},
    }
    summary = grid_classes.summarize(times)
    flat = summary["flat"]
    assert flat["ops"] == 3
    assert flat["parent"] == {"p50": 3.0, "mean": 8.0 / 3.0}
    assert flat["change"] == {"p50": 2.0, "mean": 2.0}
    assert flat["p50_ratio"] == 1.5 and flat["mean_ratio"] == (8.0 / 3.0) / 2.0
    uniform = summary["uniform"]
    assert uniform["parent"]["p50"] == 2.0 and uniform["p50_ratio"] == 1.0
    text = grid_classes.table(summary)
    lines = text.splitlines()
    assert len(lines) == 3 and lines[0].split()[:2] == ["class", "ops"]
    # microseconds, parent then change, p50 then mean
    assert lines[1].split() == ["flat", "3", "3000000.0", "2000000.0", "2666666.7", "2000000.0", "1.500", "1.333"]
