"""Summary statistics shared by the runner and the traced run.

Pure functions over lists of numbers and item records; nothing here
imports jetquot, so the benchmark's own tests run without SymPy work.
"""

from __future__ import annotations

import math
import statistics

#: a tail percentile is reported only when this many samples lie beyond it
TAIL_MIN_BEYOND = 10


def median(values: list[float]) -> float:
    if not values:
        raise ValueError("median of no values")
    return float(statistics.median(values))


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with p% of samples at or below it."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(values: list[float], min_beyond: int = TAIL_MIN_BEYOND) -> tuple[float, float, int]:
    """The highest whole percentile (50..99) with at least ``min_beyond``
    samples strictly above it, as (value, percentile, samples beyond).

    With too few samples for even the median to qualify, the maximum is
    reported as percentile 100 with nothing beyond it.
    """
    if not values:
        raise ValueError("tail of no values")
    for p in range(99, 49, -1):
        q = percentile(values, p)
        beyond = sum(1 for v in values if v > q)
        if beyond >= min_beyond:
            return q, float(p), beyond
    return max(values), 100.0, 0


def summarize(items: list[dict], limit_s: float = 1.0) -> dict:
    """End-to-end figures over item records of one or more passes.

    Each record has ``seconds`` and ``status`` (``ok``, ``wrong``,
    ``error`` or ``limit``); every status but ``ok`` counts as failed.
    """
    times = [it["seconds"] for it in items]
    tail_value, tail_p, tail_beyond = tail(times)
    failed = [it for it in items if it["status"] != "ok"]
    fast = sum(1 for it in items if it["status"] == "ok" and it["seconds"] <= limit_s)
    return {
        "items": len(items),
        "failed": len(failed),
        "verdict_p50_s": median(times),
        "verdict_tail_s": tail_value,
        "tail_percentile": tail_p,
        "tail_beyond": tail_beyond,
        "within_1s": fast,
        "within_1s_frac": fast / len(items),
        "failed_frac": len(failed) / len(items),
    }
