"""Comparator arithmetic: bounds, directions, spreads and pair wins."""

import pytest

from compare import compare, compare_metric


def test_lower_is_better_regression_beyond_bound():
    row = compare_metric([10.0] * 5, [11.5] * 5, bound=0.10,
                         higher_is_better=False)
    assert row["change"] == pytest.approx(-0.15)
    assert row["verdict"] == "regressed"
    assert not row["gain"]


def test_higher_is_better_change_within_bound_is_ok():
    row = compare_metric([100, 101, 99, 100, 100],
                         [95, 96, 94, 95, 95], bound=0.10,
                         higher_is_better=True)
    assert row["change"] == pytest.approx(-0.05)
    assert row["verdict"] == "ok"


def test_wide_spread_is_unresolved_unless_every_run_is_better():
    noisy = [80.0, 90.0, 100.0, 110.0, 120.0]
    row = compare_metric(noisy, noisy, bound=0.10, higher_is_better=True)
    assert row["verdict"] == "unresolved"
    better = [130.0, 131.0, 132.0, 133.0, 134.0]
    row = compare_metric(noisy, better, bound=0.10, higher_is_better=True)
    assert row["verdict"] == "ok"


def test_gain_needs_nine_of_ten_pair_wins_and_a_gap_beyond_the_iqr():
    a = [100.0 + i for i in range(10)]
    b = [110.0 + i for i in range(10)]
    row = compare_metric(a, b, bound=0.25, higher_is_better=True)
    assert (row["wins"], row["pairs"]) == (10, 10)
    assert row["gain"]
    b_two_losses = b[:8] + [90.0, 91.0]
    row = compare_metric(a, b_two_losses, bound=0.25,
                         higher_is_better=True)
    assert row["wins"] == 8 and not row["gain"]
    ties = list(a)
    ties[0] += 20
    row = compare_metric(a, ties, bound=0.25, higher_is_better=True)
    assert row["wins"] == 1 and not row["gain"]


def test_gain_also_needs_the_medians_apart_by_more_than_the_spread():
    a = [100.0, 80.0, 120.0, 90.0, 110.0, 100.0, 85.0, 115.0, 95.0, 105.0]
    b = [x + 1 for x in a]
    row = compare_metric(a, b, bound=0.25, higher_is_better=True)
    assert row["wins"] == 10 and not row["gain"]


def test_compare_rows_follow_the_spec():
    spec = {"end_to_end": [
        {"name": "p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
        {"name": "throughput_per_s", "unit": "1/s", "better": "higher",
         "bound": 0.1}]}

    def payload(p50, rate):
        return {"summary": {"serve": {
            "p50_ms": {"values": p50},
            "throughput_per_s": {"values": rate}}}}

    rows = compare(payload([1.0] * 3, [50.0] * 3),
                   payload([2.0] * 3, [60.0] * 3), spec)
    verdicts = {row["metric"]: row["verdict"] for row in rows}
    assert verdicts == {"p50_ms": "regressed", "throughput_per_s": "ok"}
    assert all(row["workload"] == "serve" for row in rows)
