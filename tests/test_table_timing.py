"""table_timing's summary on made-up runs: nothing is timed."""

import table_timing


def test_tables_cover_every_default_command_in_both_formats():
    names = [name for name, _ in table_timing.tables()]
    assert len(names) == len(set(names)) == 2 * len(table_timing.TABLES)
    assert names[0] == "fig-gaussian csv" and names[-1] == "evolve-two_level json"


def test_summary_gives_p50_peak_and_ratio():
    def run(seconds, peak):
        return {"contour csv": {"s": seconds, "code": 0, "peak": peak}}

    runs = {
        "parent": [run(0.04, 4_000_000), run(0.05, 4_500_000), run(0.03, 4_200_000)],
        "change": [run(0.02, 2_000_000), run(0.025, 2_100_000), run(0.03, 1_900_000)],
    }
    row = table_timing.summarize(runs)["contour csv"]
    assert row["parent"] == {"p50": 0.04, "peak": 4_500_000}
    assert row["change"] == {"p50": 0.025, "peak": 2_100_000}
    assert row["p50_ratio"] == 0.04 / 0.025
    lines = table_timing.table(table_timing.summarize(runs)).splitlines()
    assert lines[0].split()[:3] == ["table", "parent", "p50"]
    # milliseconds, parent then change; then the ratio; then MB
    assert lines[1].split() == ["contour", "csv", "40.0", "25.0", "1.600", "4.50", "2.10"]
