"""Which functions of jetquot are wrapped, and how spans become layer metrics.

Layer spans are named ``<module>.<layer>``. Several functions may feed
one layer (``Dt``, ``Dx`` and ``total_derivative``); a call counts once
when its parent span belongs to another layer. Stage spans
(``catalog.stage.<kind>``) wrap the checks that ``catalog.verify_entry``
calls and give inclusive times per kind of claim.
"""

from __future__ import annotations

import collections
import importlib
import inspect
import math

from spans import END, NAME, OVERHEAD, PARENT, START, ATTRS, Tracer, rebind, self_times

PACKAGE = "jetquot"

#: every per-layer metric, in the order BENCHMARK.json lists them
PER_LAYER = [
    ("symcore.normalize.calls", "count"),
    ("symcore.normalize.self_s", "s"),
    ("symcore.normalize.out_terms", "count"),
    ("symcore.is_zero.calls", "count"),
    ("symcore.is_zero.self_s", "s"),
    ("symcore.is_zero.deterministic", "count"),
    ("symcore.is_zero.probabilistic", "count"),
    ("symcore.is_zero.nonzero", "count"),
    ("symcore.is_zero.refute_s", "s"),
    ("symcore.is_zero.indeterminate", "count"),
    ("symcore.parse.calls", "count"),
    ("symcore.parse.self_s", "s"),
    ("jetcalc.total_derivative.calls", "count"),
    ("jetcalc.total_derivative.self_s", "s"),
    ("jetcalc.prolong.calls", "count"),
    ("jetcalc.prolong.self_s", "s"),
    ("pde.restrict.calls", "count"),
    ("pde.restrict.self_s", "s"),
    ("pde.solution_residual.calls", "count"),
    ("pde.solution_residual.self_s", "s"),
    ("invariants.derivation.calls", "count"),
    ("invariants.derivation.self_s", "s"),
    ("invariants.discover.self_s", "s"),
    ("invariants.discover.monomials", "count"),
    ("invariants.discover.found", "count"),
    ("invariants.discover.spurious", "count"),
    ("invariants.check_quotient_solution.calls", "count"),
    ("invariants.check_quotient_solution.self_s", "s"),
    ("catalog.verify_entry.max_s", "s"),
    ("catalog.stage.symmetry_s", "s"),
    ("catalog.stage.invariance_s", "s"),
    ("catalog.stage.frame_s", "s"),
    ("catalog.stage.syzygy_s", "s"),
    ("catalog.stage.quotient_s", "s"),
    ("catalog.stage.reconstruction_s", "s"),
    ("catalog.characteristics.self_s", "s"),
    ("hs.general_solution.self_s", "s"),
    ("hs.cauchy_g.self_s", "s"),
    ("hs.fit_C.self_s", "s"),
    ("hs.surface_csv.self_s", "s"),
    ("hs.surface_csv.rows", "count"),
    ("hs.residual.self_s", "s"),
    ("hs.residual.points", "count"),
    ("hs.singular_curve.self_s", "s"),
    ("hs.singular_curve.points", "count"),
    ("hs.excluded.calls", "count"),
    ("hs.excluded.self_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("cli.main.nonzero_exit", "count"),
    ("bench.trace_overhead_s", "s"),
]


def _bound(fn, args, kwargs) -> dict:
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _out_terms(args, kwargs, result, exc):
    if exc is not None:
        return None
    import sympy as sp
    return {"out_terms": len(sp.Add.make_args(sp.fraction(result)[0]))}


def _zero_mode(indeterminate):
    def attrs(args, kwargs, result, exc):
        if isinstance(exc, indeterminate):
            return {"indeterminate": 1}
        return None if exc is not None else {result.mode: 1}
    return attrs


def _discover(fn):
    def attrs(args, kwargs, result, exc):
        a = _bound(fn, args, kwargs)
        n_tokens = 2 + 3 * len(a["invariants"])
        out = {"monomials": math.comb(n_tokens + a["degree"], a["degree"])}
        if exc is None:
            out.update(found=len(result.syzygies), spurious=len(result.spurious))
        return out
    return attrs


def _grid_points(fn):
    def attrs(args, kwargs, result, exc):
        return {"points": len(list(_bound(fn, args, kwargs)["grid"]))}
    return attrs


def _scan_points(fn):
    def attrs(args, kwargs, result, exc):
        a = _bound(fn, args, kwargs)
        return {"points": len(list(a["times"])) * a["n"]}
    return attrs


def _rows(args, kwargs, result, exc):
    return None if exc is not None else {"rows": result}


def _exit(args, kwargs, result, exc):
    return {"nonzero_exit": int(exc is not None or result != 0)}


def _targets():
    """(layer, module, attribute, attrs factory) for every wrapped function."""
    symcore = importlib.import_module(f"{PACKAGE}.symcore")
    return [
        ("symcore.normalize", "symcore", "normalize", lambda fn: _out_terms),
        ("symcore.is_zero", "symcore", "is_zero",
         lambda fn: _zero_mode(symcore.IndeterminateZeroTest)),
        ("symcore.parse", "symcore", "parse", None),
        ("jetcalc.total_derivative", "jetcalc", "total_derivative", None),
        ("jetcalc.total_derivative", "jetcalc", "Dt", None),
        ("jetcalc.total_derivative", "jetcalc", "Dx", None),
        ("jetcalc.prolong", "jetcalc", "prolong", None),
        ("jetcalc.prolong", "jetcalc", "apply_prolonged", None),
        ("pde.restrict", "pde", "PdeManifold.restrict", None),
        ("pde.solution_residual", "pde", "solution_residual", None),
        ("invariants.derivation", "invariants", "InvariantDerivation.apply", None),
        ("invariants.discover", "invariants", "discover_syzygy", _discover),
        ("invariants.check_quotient_solution", "invariants", "check_quotient_solution", None),
        ("catalog.verify_entry", "catalog", "verify_entry", None),
        ("catalog.characteristics", "catalog", "characteristics_solve", None),
        ("hs.general_solution", "hs", "general_solution", None),
        ("hs.cauchy_g", "hs", "cauchy_g", None),
        ("hs.fit_C", "hs", "fit_C", None),
        ("hs.surface_csv", "hs", "surface_csv", lambda fn: _rows),
        ("hs.residual", "hs", "residual", _grid_points),
        ("hs.singular_curve", "hs", "singular_curve", _scan_points),
        ("hs.excluded", "hs", "ParamSolution.excluded", None),
        ("cli.main", "cli", "main", lambda fn: _exit),
    ]


#: names in the catalog module whose calls from verify_entry make up a stage
_STAGE_NAMES = {
    "check_symmetry": "symmetry",
    "check_invariant": "invariance",
    "check_commutation": "frame",
    "check_syzygy": "syzygy",
    "check_quotient_solution": "quotient",
    "solution_residual": "reconstruction",
    "is_zero": "reconstruction",
}

#: methods that build or check a frame, wherever they are called from
_FRAME_METHODS = [
    ("invariants", "TresseFrame.__init__"),
    ("invariants", "TresseFrame.duality_residuals"),
    ("catalog", "SingleFrame.__init__"),
    ("catalog", "SingleFrame.duality_residuals"),
]


def _wrap_method(tracer: Tracer, layer: str, module, path: str, factory=None):
    cls_name, meth = path.split(".")
    cls = getattr(module, cls_name)
    fn = cls.__dict__[meth]
    setattr(cls, meth, tracer.wrap(layer, fn, factory(fn) if factory else None))


def install(tracer: Tracer) -> None:
    """Wrap every layer function and every catalog stage of jetquot."""
    for layer, mod_name, attr, factory in _targets():
        module = importlib.import_module(f"{PACKAGE}.{mod_name}")
        if "." in attr:
            _wrap_method(tracer, layer, module, attr, factory)
            continue
        fn = getattr(module, attr)
        rebind(fn, tracer.wrap(layer, fn, factory(fn) if factory else None), PACKAGE)
    catalog = importlib.import_module(f"{PACKAGE}.catalog")
    for attr, kind in _STAGE_NAMES.items():
        setattr(catalog, attr, tracer.wrap(f"catalog.stage.{kind}", getattr(catalog, attr)))
    for mod_name, path in _FRAME_METHODS:
        module = importlib.import_module(f"{PACKAGE}.{mod_name}")
        _wrap_method(tracer, "catalog.stage.frame", module, path)


def count_zero_tests() -> collections.Counter:
    """Count ``is_zero`` verdicts by mode, without recording spans."""
    symcore = importlib.import_module(f"{PACKAGE}.symcore")
    original = symcore.is_zero
    counts: collections.Counter = collections.Counter()

    def counted(*args, **kwargs):
        verdict = original(*args, **kwargs)
        counts[verdict.mode] += 1
        return verdict

    rebind(original, counted, PACKAGE)
    return counts


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics from the spans of one traced pass."""
    selfs = self_times(spans)
    out = {name: 0 for name, _ in PER_LAYER}
    out.pop("bench.trace_overhead_s")
    for i, s in enumerate(spans):
        layer = s[NAME]
        if layer == OVERHEAD:
            continue
        duration = s[END] - s[START]
        if layer.startswith("catalog.stage."):
            out[f"{layer}_s"] += duration
            continue
        if layer == "catalog.verify_entry":
            out["catalog.verify_entry.max_s"] = max(out["catalog.verify_entry.max_s"], duration)
            continue
        parent = spans[s[PARENT]][NAME] if s[PARENT] >= 0 else None
        if f"{layer}.calls" in out and parent != layer:
            out[f"{layer}.calls"] += 1
        if f"{layer}.self_s" in out:
            out[f"{layer}.self_s"] += selfs[i]
        for key, value in (s[ATTRS] or {}).items():
            if f"{layer}.{key}" in out:
                out[f"{layer}.{key}"] += value
        if layer == "symcore.is_zero" and (s[ATTRS] or {}).get("nonzero"):
            out["symcore.is_zero.refute_s"] += selfs[i]
    return out
