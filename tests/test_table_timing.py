"""table_timing's table commands and summary on made-up runs: nothing is timed."""

import re

import table_timing


def test_tables_cover_every_default_command_in_both_formats():
    names = [name for name, _ in table_timing.tables()]
    assert len(names) == len(set(names)) == 2 * len(table_timing.TABLES)
    assert names[0] == "fig-gaussian csv" and names[-1] == "evolve-two_level json"



def test_summary_gives_p50_peak_and_ratio():
    # Shaped as the timer builds them: one group per table, metrics ms and writer_peak_mb, one value per run.
    samples = {
        "contour csv": {
            "ms": {"parent": [40.0, 50.0, 30.0], "change": [20.0, 25.0, 30.0]},
            "writer_peak_mb": {"parent": [4.0, 4.5, 4.2], "change": [2.0, 2.1, 1.9]},
        },
    }
    row = table_timing.summarize_pairs(samples, table_timing.METRICS)["contour csv"]
    assert row["pairs"] == 3
    assert row["ms"]["change_wins"] == 2 and row["ms"]["median_ratio"] == 25.0 / 40.0
    assert row["writer_peak_mb"]["change_wins"] == 3
    assert row["writer_peak_mb"]["parent"]["median"] == 4.2
    lines = table_timing.table({"contour csv": row}, "table").splitlines()
    assert lines[0].split()[:2] == ["table", "metric"]
    assert [re.split(r"\s{2,}", line) for line in lines[1:]] == [
        ["contour csv", "ms", "40 [35, 45]", "40", "25 [22.5, 27.5]", "25", "0.625", "2/3", "1.50"],
        ["contour csv", "writer_peak_mb", "4.2 [4.1, 4.35]", "4.233", "2 [1.95, 2.05]", "2", "0.476", "3/3", "8.80"],
    ]
