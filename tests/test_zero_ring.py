"""Stage 1 of is_zero: the factored-denominator polynomial ring.

Covers the in-ring reductions, the refusal of undefined input, the
checks that normalize only failing claims, and a differential test of
the ring against SymPy's Expr-level rational normal form over the whole
catalog and a seeded twin of each entry's first generator and syzygy.
"""

import random

import pytest
import sympy as sp

from jetquot import catalog, symcore
from jetquot.invariants import Syzygy, check_invariant, check_syzygy
from jetquot.jetcalc import VectorField
from jetquot.pde import PdeManifold, check_symmetry
from jetquot.symcore import (
    UndefinedExpressionError,
    _Kernelizer,
    _kernel_rational_zero,
    _ring_numerator,
    exact_zero,
    is_zero,
    jet,
    normalize,
    t,
    x,
)

a = sp.Symbol("a")
u, u_t, u_x, u_xx = jet(0, 0), jet(1, 0), jet(0, 1), jet(0, 2)
DELTA = sp.Rational(1, 1000)


def _unevaluated(*factors):
    return sp.Mul(*factors, evaluate=False)


REDUCTIONS = {
    # root relations r**L = base
    "sqrt(x)**2 - x": _unevaluated(sp.sqrt(x), sp.sqrt(x)) - x,
    "x**(1/3)*x**(2/3) - x": _unevaluated(x ** sp.Rational(1, 3), x ** sp.Rational(2, 3)) - x,
    "(sqrt(x)+1)**2 expanded": (sp.sqrt(x) + 1) ** 2 - x - 2 * sp.sqrt(x) - 1,
    "nested root": sp.sqrt(1 + sp.sqrt(x)) ** 2 * (1 - sp.sqrt(x)) - (1 - x),
    "root of exp": (sp.exp(x / 2) + 1) ** 2 - sp.exp(x) - 2 * sp.exp(x / 2) - 1,
    # symbolic exponents differing, or summing, to an integer
    "x**a*x - x**(a+1)": _unevaluated(x**a, x) - x ** (a + 1),
    "x**(a+2)/x**a - x**2": x ** (a + 2) / x**a - x**2,
    "(x+u)**(a-1)*(x+u) - (x+u)**a": _unevaluated((x + u) ** (a - 1), x + u) - (x + u) ** a,
    # atoms outside QQ are generators: sound, and I**2 = -1 is reduced
    "pi*x - x*pi": sp.Add(_unevaluated(sp.pi, x), -_unevaluated(x, sp.pi), evaluate=False),
    "I**2 + 1": sp.Add(sp.Pow(sp.I, 2, evaluate=False), 1, evaluate=False),
    "(x+I)*(x-I) - x**2 - 1": (x + sp.I) * (x - sp.I) - x**2 - 1,
    # rational functions with denominators that share factors
    "partial fractions": 1 / (x + 1) + 1 / (x - 1) - 2 * x / (x**2 - 1),
    "scaled base": 1 / (2 * x + 2) - 1 / (4 * x + 4) - 1 / (4 * (x + 1)),
}


@pytest.mark.parametrize("name", sorted(REDUCTIONS))
def test_in_ring_reductions_are_deterministic(name):
    e = REDUCTIONS[name]
    assert _kernel_rational_zero(e)
    assert is_zero(e).mode == "deterministic"
    perturbed = e + DELTA * x
    assert not exact_zero(perturbed)
    assert not is_zero(perturbed)


def test_relations_are_needed_for_roots_and_exponents():
    for name in ("sqrt(x)**2 - x", "x**a*x - x**(a+1)", "(x+I)*(x-I) - x**2 - 1"):
        k = _Kernelizer()
        body = k.run(REDUCTIONS[name])
        assert _ring_numerator(body, k.table, relations=False)
        assert not _ring_numerator(body, k.table)


def test_ex41_stages_need_the_exponent_relation(monkeypatch):
    decided_by_relations = []

    def spy(e):
        k = _Kernelizer()
        body = k.run(e)
        plain = not _ring_numerator(body, k.table, relations=False)
        full = not _ring_numerator(body, k.table)
        decided_by_relations.append(full and not plain)
        return full

    monkeypatch.setattr(symcore, "_kernel_rational_zero", spy)
    report = catalog.verify_entry("ex4.1")
    assert all(s.verdict == "exact" for s in report.stages)
    assert any(decided_by_relations)


# ---------------------------------------------------------------------------
# Undefined input never gives a deterministic zero
# ---------------------------------------------------------------------------

BURGERS = PdeManifold(u_t + u * u_x - u_xx, (1, 0))


@pytest.mark.parametrize("e", [
    sp.zoo,
    sp.zoo + x,
    sp.nan,
    sp.oo * x,
    x * sp.exp(sp.zoo * x) + x,
    1 / ((x + 1) ** 2 - x**2 - 2 * x - 1),
    BURGERS.restrict(x + 1 / (u_t + u * u_x - u_xx)),
    BURGERS.restrict(1 / (u_t * (u + 1) - u_xx * (u + 1) + _unevaluated(u * u_x, u + 1))),
], ids=["zoo", "zoo+x", "nan", "oo*x", "exp(zoo*x)", "zero denominator",
        "restricted 1/F", "restricted (u+1)/F"])
def test_undefined_input_is_refused(e):
    with pytest.raises(UndefinedExpressionError):
        exact_zero(e)
    with pytest.raises(symcore.IndeterminateZeroTest):
        is_zero(e)


# ---------------------------------------------------------------------------
# Checks normalize only a claim that fails
# ---------------------------------------------------------------------------


def _count_normalize(monkeypatch, modules):
    calls = []

    def counting(e):
        calls.append(e)
        return normalize(e)

    for module in modules:
        monkeypatch.setattr(module, "normalize", counting)
    return calls


def test_holding_claims_are_not_normalized(monkeypatch):
    import jetquot.invariants as inv
    import jetquot.pde as pde

    calls = _count_normalize(monkeypatch, [symcore, pde, inv])
    e = catalog.get("hunter-saxton")
    M, fr = e.manifold, e.frame
    for X in e.gens:
        res = check_symmetry(X, M)
        assert res.verdict.mode == "deterministic" and res.residual == 0
    report = check_invariant(fr.I, e.gens, M)
    assert all(v.mode == "deterministic" and r == 0 for _, v, r in report.verdicts)
    assert fr.duality_residuals() == [0, 0, 0, 0]
    assert check_syzygy(e.syzygies[0], fr, e.higher_invariants(), M).mode == "deterministic"
    assert calls == []


def test_quotient_solutions_are_decided_exactly(monkeypatch):
    # holding quotient solutions, the implicit ones too, never reach
    # normalize or the random-evaluation stage
    import jetquot.invariants as inv

    calls = _count_normalize(monkeypatch, [symcore, inv])
    modes = []
    monkeypatch.setattr(inv, "is_zero", lambda e, **kw: modes.append(is_zero(e, **kw)))
    solved = 0
    for e in catalog.entries().values():
        for spec in e.solutions:
            verdict = inv.check_quotient_solution(spec.specialized_syzygy(e.syzygies),
                                                  spec.solution)
            assert verdict.mode == "deterministic"
            solved += 1
    assert solved == 17 and calls == [] and modes == []


def test_failing_claim_certificate_is_the_normal_form(monkeypatch):
    import jetquot.pde as pde

    calls = _count_normalize(monkeypatch, [symcore, pde])
    M = catalog.get("hunter-saxton").manifold
    X = VectorField(0, 0, t**2 * u**2)
    res = check_symmetry(X, M)
    assert not res.holds and res.verdict.mode == "nonzero"
    assert len(calls) == 1
    assert res.residual == normalize(calls[0]) and res.residual != 0


# ---------------------------------------------------------------------------
# Differential test: the ring against the Expr rational normal form
# ---------------------------------------------------------------------------


def _ring_and_oracle(e):
    """(ring verdict, Expr verdict) on the same kernelized body, no relations."""
    k = _Kernelizer()
    body = k.run(e)
    ring_zero = not _ring_numerator(body, k.table, relations=False)
    return ring_zero, sp.cancel(sp.together(body)) == 0


def _canon(e):
    return symcore._canon_integral_dummies(sp.sympify(e))


def _first_generator_twin(e, rng):
    X = e.gens[0]
    delta = sp.Rational(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
    return VectorField(X.a, X.b, X.c + delta * t**2 * u**2)


def _first_syzygy_twin(e, rng):
    terms = sorted(sp.Add.make_args(e.syzygies[0].lhs), key=sp.default_sort_key)
    k = rng.randrange(len(terms))
    coeff, mono = terms[k].as_coeff_Mul()
    return Syzygy(sp.Add(*terms[:k], *terms[k + 1:], (coeff + DELTA) * mono))


def test_ring_matches_expr_normal_form_over_the_catalog(monkeypatch):
    from jetquot.jetcalc import apply_prolonged

    seen = []
    original = symcore._kernel_rational_zero

    def differential(e):
        ring_zero, expr_zero = _ring_and_oracle(e)
        seen.append(e)
        assert ring_zero == expr_zero, e
        return original(e)

    monkeypatch.setattr(symcore, "_kernel_rational_zero", differential)
    for name in catalog.names():
        assert catalog.verify_entry(name).passed
    assert len(seen) > 20

    rng = random.Random(20260823)
    for name in catalog.names():
        e = catalog.get(name)
        M = e.manifold
        twin = _first_generator_twin(e, rng)
        raw = _canon(M.restrict(apply_prolonged(twin, M.F, cap=M.cap)))
        assert _ring_and_oracle(raw) == (False, False), name
        if e.syzygies:
            s = _first_syzygy_twin(e, rng)
            raw = _canon(M.restrict(s.realize(e.frame, e.higher_invariants())))
            assert _ring_and_oracle(raw) == (False, False), name
