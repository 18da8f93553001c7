"""The summary of ``python -m tests.bench_pairs``, on fixed numbers: no
bench runs."""

import pytest

from bench_pairs import parse_seeds, report, summarize

PARENT = [100.0, 102.0, 98.0, 101.0, 99.0, 103.0, 97.0, 100.0, 104.0, 96.0]
# 5 above the parent in every pair but the last, which loses by 1
CHANGE = [p + 5.0 for p in PARENT[:-1]] + [PARENT[-1] - 1.0]


def test_summary_of_a_gain():
    s = summarize(list(zip(PARENT, CHANGE)), "higher")
    # inclusive quartiles of the sorted parent runs 96 ... 104: 98.25 and 101.75
    assert s == {"parent_median": 100.0, "change_median": 105.0, "parent_iqr": 3.5,
                 "wins": 9, "pairs": 10, "gain": True}


@pytest.mark.parametrize("pairs, why", [
    (list(zip(PARENT, CHANGE))[:9], "nine pairs"),
    (list(zip(PARENT, CHANGE[:8] + [PARENT[8] - 1.0, CHANGE[9]])), "eight wins"),
    ([(p, p + 3.0) for p in PARENT], "medians 3 apart, IQR 3.5"),
    (list(zip(PARENT, CHANGE)) + [(100.0, 101.0), (100.0, 99.0)], "10 wins in 12 pairs"),
])
def test_no_gain(pairs, why):
    assert not summarize(pairs, "higher")["gain"], why


def test_lower_is_better_counts_the_other_way():
    mirrored = [(-p, -c) for p, c in zip(PARENT, CHANGE)]
    s = summarize(mirrored, "lower")
    assert (s["wins"], s["parent_iqr"], s["gain"]) == (9, 3.5, True)
    assert summarize(list(zip(PARENT, CHANGE)), "lower")["wins"] == 1


def test_report_lines():
    text = report("items_per_s", list(range(1, 11)), list(zip(PARENT, CHANGE)), "higher")
    lines = text.splitlines()
    assert lines[0] == "items_per_s (higher is better)"
    assert lines[1] == "  seed 1  parent 100  change 105  1.050x"
    assert lines[-2] == ("  medians: parent 100, change 105 (1.050x); parent IQR 3.5; "
                         "change wins 9 of 10")
    assert lines[-1].endswith(": yes")


def test_seed_ranges():
    assert parse_seeds("4101-4103") == [4101, 4102, 4103]
    assert parse_seeds("7") == [7]
