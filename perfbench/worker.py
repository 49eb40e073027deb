"""One fresh interpreter of the benchmark; started by run.py, never imported.

    worker.py setup OUT                          time import + catalog build
    worker.py draw WORKLOAD SEED OUT             draw refute-twins inputs
    worker.py pass WORKLOAD SEED TRACE IN OUT    run one pass over the items

Every mode writes one JSON document to OUT. ``ready_wall`` is the wall
clock when ``import jetquot`` and ``catalog.entries()`` are done, so that
the parent can subtract the moment it started this interpreter.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import sys
import time


class ItemLimit(BaseException):
    """Raised by the alarm when an item runs past its limit.

    A BaseException, so that ``except Exception`` inside the program
    cannot swallow it.
    """


def _alarm(signum, frame):
    raise ItemLimit()


def run_item(fn, limit_s: float) -> tuple[str, object, float, str]:
    """Call ``fn`` under a wall-clock limit: (status, value, seconds, detail).

    status is ``done``, ``error`` (it raised) or ``limit`` (interrupted).
    """
    previous = signal.signal(signal.SIGALRM, _alarm)
    start = time.perf_counter()
    value, status, detail = None, "done", ""
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, limit_s)
            value = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except ItemLimit:
        status, detail = "limit", f"no verdict within {limit_s:g} s"
    except Exception as exc:
        status, detail = "error", f"{type(exc).__name__}: {exc}"[:300]
    seconds = time.perf_counter() - start
    signal.signal(signal.SIGALRM, previous)
    return status, value, seconds, detail


def run_pass(items, zero_modes, on_item=None) -> tuple[list[dict], float]:
    """Run items one after another, then check each finished one.

    ``zero_modes`` is the live count of ``is_zero`` verdicts by mode. An
    item marked ``exact`` contradicts its known answer if any of its zero
    tests came out probabilistic. Known answers are checked after the
    loop so that the pass time holds only the program's work. Returns the
    item records and the loop time.
    """
    import mpmath

    results = []
    start = time.perf_counter()
    for item in items:
        if on_item:
            on_item(item.id)
        before = zero_modes["probabilistic"]
        outcome = run_item(item.run, item.limit)
        results.append((item, *outcome, zero_modes["probabilistic"] - before))
        mpmath.mp.dps = 15
    wall = time.perf_counter() - start
    records = []
    for item, status, value, seconds, detail, probabilistic in results:
        if status == "done":
            detail = item.check(value) or ""
            if not detail and item.exact and probabilistic:
                detail = f"{item.id}: {probabilistic} zero tests decided probabilistically"
            status = "wrong" if detail else "ok"
        records.append({"id": item.id, "seconds": seconds, "status": status,
                        "detail": detail})
    return records, wall


def _setup() -> dict:
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import jetquot
    from jetquot import catalog
    from sympy.external.gmpy import GROUND_TYPES

    here = os.path.dirname(os.path.abspath(jetquot.__file__))
    if here != os.path.join(os.getcwd(), "src", "jetquot"):
        raise SystemExit(f"jetquot imported from {here}, not from this checkout")
    catalog.entries()
    return {"ready_wall": time.time(), "ground_types": GROUND_TYPES}


def _write(path: str, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh)


def main(argv: list[str]) -> int:
    mode = argv[0]
    doc = _setup()
    if mode == "setup":
        _write(argv[1], doc)
        return 0

    import layers
    import spans
    import workloads

    workload, seed = argv[1], int(argv[2])
    if mode == "draw":
        _write(argv[3], {**doc, "specs": workloads.draw_twins(seed)})
        return 0

    trace, in_path, out_path = argv[3] == "1", argv[4], argv[5]
    specs = None
    if in_path != "-":
        with open(in_path) as fh:
            specs = json.load(fh)["specs"]
    items = workloads.build(workload, seed, specs)
    zero_modes = layers.count_zero_tests()
    tracer = None
    if trace:
        tracer = spans.Tracer()
        layers.install(tracer)
    on_item = (lambda item_id: setattr(tracer, "item", item_id)) if tracer else None
    records, wall = run_pass(items, zero_modes, on_item)
    doc.update({
        "wall_s": wall,
        "items": records,
        "zero_modes": dict(zero_modes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    })
    if tracer is not None:
        doc["layers"] = layers.layer_metrics(tracer.spans)
        doc["spans_file"] = out_path + ".spans.json"
        with open(doc["spans_file"], "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "item", "attrs"],
                       "spans": tracer.spans}, fh)
    _write(out_path, doc)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    sys.exit(main(sys.argv[1:]))
