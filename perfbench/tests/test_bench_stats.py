"""Tail-percentile rule and summary figures of the benchmark."""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import stats  # noqa: E402


def test_tail_takes_highest_percentile_with_ten_beyond():
    values = [float(v) for v in range(1, 101)]
    value, p, beyond = stats.tail(values)
    assert (value, p, beyond) == (90.0, 90.0, 10)
    # one percentile higher leaves only nine samples beyond
    assert sum(1 for v in values if v > stats.percentile(values, 91)) == 9


def test_tail_on_a_pass_of_23_items():
    values = [0.01 * k for k in range(1, 24)]
    value, p, beyond = stats.tail(values)
    assert beyond >= 10
    assert sum(1 for v in values if v > stats.percentile(values, p + 1)) < 10
    assert p > 50 and value == stats.percentile(values, p)


def test_tail_with_too_few_samples_reports_the_maximum():
    assert stats.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_ties_do_not_count_as_beyond():
    value, p, beyond = stats.tail([1.0] * 30 + [2.0] * 5)
    assert (value, p, beyond) == (2.0, 100.0, 0)


def test_summary_counts_every_failure_kind():
    items = [{"seconds": 0.5, "status": "ok"}, {"seconds": 2.0, "status": "ok"},
             {"seconds": 0.1, "status": "wrong"}, {"seconds": 6.0, "status": "limit"},
             {"seconds": 0.2, "status": "error"}]
    s = stats.summarize(items)
    assert s["failed"] == 3
    assert s["failed_frac"] == 3 / 5
    # a wrong verdict is not decided correctly, however fast
    assert s["within_1s"] == 1 and s["within_1s_frac"] == 1 / 5
    assert s["verdict_p50_s"] == 0.5

