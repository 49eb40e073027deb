"""Span recording, self time, rebinding and layer aggregation."""

import os
import sys
import types

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import pytest  # noqa: E402

import layers  # noqa: E402
import spans  # noqa: E402


def _span(name, start, end, parent, attrs=None):
    return [name, start, end, parent, "item", attrs]


def test_self_time_subtracts_children_only_once():
    tree = [
        _span("outer", 0.0, 10.0, -1),
        _span("child", 1.0, 3.0, 0),
        _span("grandchild", 1.5, 2.0, 1),
        _span("child", 5.0, 6.0, 0),
    ]
    assert spans.self_times(tree) == pytest.approx([7.0, 1.5, 0.5, 1.0])


def test_self_time_clips_overlapping_children():
    tree = [_span("outer", 0.0, 4.0, -1), _span("a", 1.0, 3.0, 0), _span("b", 2.0, 5.0, 0)]
    assert spans.self_times(tree)[0] == pytest.approx(1.0)


def test_tracer_nests_spans_and_closes_them_on_exceptions():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)

    def boom():
        inner(1)
        raise ValueError("x")

    outer = tracer.wrap("outer", lambda: inner(inner(0)))
    tracer.item = "one"
    assert outer() == 2
    with pytest.raises(ValueError):
        tracer.wrap("boom", boom)()
    names = [s[spans.NAME] for s in tracer.spans]
    assert names == ["outer", "inner", "inner", "boom", "inner"]
    assert [s[spans.PARENT] for s in tracer.spans] == [-1, 0, 0, -1, 3]
    assert all(s[spans.END] >= s[spans.START] for s in tracer.spans)
    assert tracer._stack == []


def test_rebind_replaces_every_imported_copy():
    def f():
        return "orig"

    pkg, a, b = (types.ModuleType(n) for n in ("fakepkg", "fakepkg.a", "fakepkg.b"))
    a.f = f
    b.g = f
    b.other = len
    saved = {n: sys.modules.get(n) for n in ("fakepkg", "fakepkg.a", "fakepkg.b")}
    sys.modules.update({"fakepkg": pkg, "fakepkg.a": a, "fakepkg.b": b})
    try:
        assert spans.rebind(f, lambda: "new", "fakepkg") == 2
        assert a.f() == "new" and b.g() == "new" and b.other is len
    finally:
        for n, m in saved.items():
            if m is None:
                sys.modules.pop(n, None)
            else:
                sys.modules[n] = m


def test_layer_metrics_from_nested_spans():
    tree = [
        _span("catalog.stage.symmetry", 0.0, 10.0, -1),
        _span("jetcalc.total_derivative", 1.0, 4.0, 0),
        _span("jetcalc.total_derivative", 1.5, 3.0, 1),
        _span("symcore.normalize", 4.0, 6.0, 0, {"out_terms": 7}),
        _span(spans.OVERHEAD, 6.0, 6.5, 0),
        _span("symcore.is_zero", 7.0, 9.0, 0, {"nonzero": 1}),
        _span("symcore.is_zero", 9.0, 9.5, 0, {"deterministic": 1}),
        _span("catalog.verify_entry", 20.0, 23.0, -1),
        _span("catalog.verify_entry", 30.0, 31.0, -1),
    ]
    m = layers.layer_metrics(tree)
    assert m["jetcalc.total_derivative.calls"] == 1
    assert m["jetcalc.total_derivative.self_s"] == pytest.approx(3.0)
    assert m["symcore.normalize.calls"] == 1 and m["symcore.normalize.out_terms"] == 7
    assert m["symcore.is_zero.calls"] == 2
    assert m["symcore.is_zero.nonzero"] == 1 and m["symcore.is_zero.deterministic"] == 1
    assert m["symcore.is_zero.refute_s"] == pytest.approx(2.0)
    assert m["catalog.stage.symmetry_s"] == pytest.approx(10.0)
    assert m["catalog.verify_entry.max_s"] == pytest.approx(3.0)
    assert m["hs.excluded.calls"] == 0
    assert set(m) | {"bench.trace_overhead_s"} == {n for n, _ in layers.PER_LAYER}


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    import json

    import run

    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
