"""Per-item limits and known-answer checks of a pass."""

import collections
import io
import os
import sys
import time
from contextlib import redirect_stdout
from types import SimpleNamespace

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
import stats  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _stall():
    # a stall that even swallows ordinary exceptions
    while True:
        try:
            time.sleep(0.01)
        except Exception:
            pass


def test_limit_interrupts_a_stalled_item():
    start = time.perf_counter()
    status, value, seconds, detail = worker.run_item(_stall, 0.2)
    assert status == "limit" and value is None
    assert 0.2 <= seconds < 2.0 and time.perf_counter() - start < 2.0
    assert "0.2" in detail


def test_errors_and_results_are_told_apart():
    assert worker.run_item(lambda: 1 / 0, 1.0)[0] == "error"
    status, value, _, _ = worker.run_item(lambda: 42, 1.0)
    assert (status, value) == ("done", 42)


def _report(n_stages, verdict="exact"):
    return SimpleNamespace(stages=[SimpleNamespace(stage="syzygy", subject="#1",
                                                   verdict=verdict)] * n_stages)


def test_pass_counts_stalls_wrong_stage_counts_and_wrong_verdicts():
    check = workloads._check_report("ex1.1")
    items = [
        workloads.Item("ex1.1", lambda: _report(7), check, 1.0),
        workloads.Item("ex1.1-short", lambda: _report(6), check, 1.0),
        workloads.Item("ex1.1-weak", lambda: _report(7, "probabilistic"), check, 1.0),
        workloads.Item("stalled", _stall, lambda v: None, 0.2),
    ]
    records, wall = worker.run_pass(items, collections.Counter())
    status = {r["id"]: r["status"] for r in records}
    assert status == {"ex1.1": "ok", "ex1.1-short": "wrong", "ex1.1-weak": "wrong",
                      "stalled": "limit"}
    details = {r["id"]: r["detail"] for r in records}
    assert "6 stages, expected 7" in details["ex1.1-short"]
    assert "probabilistic" in details["ex1.1-weak"]
    assert wall >= 0.2
    assert stats.summarize(records)["failed_frac"] == 3 / 4

    out = io.StringIO()
    metrics = {"setup_s": 1.0, "wall_s": wall, "verdict_p50_s": 0.1,
               "verdict_tail_s": 0.2, "peak_rss_mb": 100.0}
    summary = stats.summarize(records)
    extra = {"within_1s_frac": summary["within_1s_frac"], "within_1s": summary["within_1s"],
             "failed_frac": summary["failed_frac"], "exact_frac": None,
             "zero_tests": (0, 0), "setups": 1, "passes": 1, "tail": (100.0, 0)}
    with redirect_stdout(out):
        result = run.report("verify-catalog", 1, 0, {}, metrics, run.END_TO_END, extra, records,
                            shown=run.UNBOUNDED)
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (4, 3)
    text = out.getvalue()
    assert set(result["metrics"]) == {"setup_s", "wall_s", "peak_rss_mb"}
    assert "verdict_p50_s" in text and "verdict_tail_s" in text
    assert "FAILED wrong  ex1.1-short" in text and "FAILED limit  stalled" in text


def test_probabilistic_zero_tests_fail_an_exact_item():
    modes = collections.Counter()

    def weak():
        modes["probabilistic"] += 1
        return "done"

    item = workloads.Item("weak", weak, lambda v: None, 1.0, exact=True)
    records, _ = worker.run_pass([item], modes)
    assert records[0]["status"] == "wrong"


def test_refuted_twin_check():
    check = workloads._check_refuted({"entry": "ex1.1", "kind": "syzygy", "delta": "1/2"})
    assert check(SimpleNamespace(is_zero=False, mode="nonzero")) is None
    reason = check(SimpleNamespace(is_zero=True, mode="deterministic"))
    assert "ex1.1 syzygy" in reason and "expected FAIL" in reason


def test_surface_closed_form_matches_quadrature():
    import mpmath

    tv, wv = 1.25, -0.75
    xq = mpmath.quad(lambda v: (tv * v + 2) ** 2 * mpmath.exp(v) / 4, [0, wv])
    uq = mpmath.quad(lambda v: (tv * v + 2) * v * mpmath.exp(v) / 2, [0, wv])
    x, u = workloads.surface_exp(tv, wv)
    assert abs(x - float(xq)) < 1e-12 and abs(u - float(uq)) < 1e-12
