"""Stage 1 of is_zero: the factored-denominator polynomial ring.

Covers the in-ring reductions, the walks that visit each distinct
subexpression once, kernel expressions built only when read and the
guard on the symbols inside them, remainders modulo an implicit quotient
solution, the refusal of undefined input, the
checks that normalize only failing claims, and a differential test of
the ring against SymPy's Expr-level rational normal form over the whole
catalog and a seeded twin of each entry's first generator and syzygy.
"""

import random

import pytest
import sympy as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from jetquot import catalog, symcore
from jetquot.invariants import (
    FrameRing,
    QuotientSolution,
    Syzygy,
    check_invariant,
    check_quotient_solution,
    check_syzygy,
)
from jetquot.jetcalc import VectorField
from jetquot.pde import PdeManifold, check_symmetry
from jetquot.symcore import (
    SymcoreError,
    UndefinedExpressionError,
    _Kernelizer,
    _stage1,
    bind_formal,
    exact_zero,
    is_zero,
    jet,
    normalize,
    t,
    x,
)

from tresse_reference import Reference

a, b = sp.symbols("a b")
u, u_t, u_x, u_xx = jet(0, 0), jet(1, 0), jet(0, 1), jet(0, 2)
DELTA = sp.Rational(1, 1000)


def _unevaluated(*factors):
    return sp.Mul(*factors, evaluate=False)


_g, _v = symcore.formal("g"), sp.Symbol("v")
INTEGRAL_FACTOR = (symcore.formal_integral(u_t * _g(_v), _v, u_x)
                   - u_t * symcore.formal_integral(_g(_v), _v, u_x))


REDUCTIONS = {
    # root relations r**L = base
    "sqrt(x)**2 - x": _unevaluated(sp.sqrt(x), sp.sqrt(x)) - x,
    "x**(1/3)*x**(2/3) - x": _unevaluated(x ** sp.Rational(1, 3), x ** sp.Rational(2, 3)) - x,
    "(sqrt(x)+1)**2 expanded": (sp.sqrt(x) + 1) ** 2 - x - 2 * sp.sqrt(x) - 1,
    "nested root": sp.sqrt(1 + sp.sqrt(x)) ** 2 * (1 - sp.sqrt(x)) - (1 - x),
    "root of exp": (sp.exp(x / 2) + 1) ** 2 - sp.exp(x) - 2 * sp.exp(x / 2) - 1,
    # exponents split into terms; terms differing, or summing, to a
    # rational share one kernel
    "x**a*x - x**(a+1)": _unevaluated(x**a, x) - x ** (a + 1),
    "x**(a+2)/x**a - x**2": x ** (a + 2) / x**a - x**2,
    "(x+u)**(a-1)*(x+u) - (x+u)**a": _unevaluated((x + u) ** (a - 1), x + u) - (x + u) ** a,
    "x**a*x**b - x**(a+b)": _unevaluated(x**a, x**b) - x ** (a + b),
    "x**(a+1/2)/sqrt(x) - x**a": x ** (a + sp.Rational(1, 2)) / sp.sqrt(x) - x**a,
    "x**(a/2)**2 - x**a": _unevaluated(x ** (a / 2), x ** (a / 2)) - x**a,
    "x**(1/(1-a))*x**(a/(a-1)) - x": _unevaluated(x ** (1 / (1 - a)), x ** (a / (a - 1))) - x,
    "x**(1/(2-2a))**2 - x**(1/(1-a))":
        _unevaluated(x ** (1 / (2 - 2 * a)), x ** (1 / (2 - 2 * a))) - x ** (1 / (1 - a)),
    "exp(a*x)*exp(x*u) - exp(a*x+x*u)":
        _unevaluated(sp.exp(a * x), sp.exp(x * u)) - sp.exp(a * x + x * u),
    # atoms outside QQ are generators: sound, and I**2 = -1 is reduced
    "pi*x - x*pi": sp.Add(_unevaluated(sp.pi, x), -_unevaluated(x, sp.pi), evaluate=False),
    "I**2 + 1": sp.Add(sp.Pow(sp.I, 2, evaluate=False), 1, evaluate=False),
    "(x+I)*(x-I) - x**2 - 1": (x + sp.I) * (x - sp.I) - x**2 - 1,
    # rational functions with denominators that share factors
    "partial fractions": 1 / (x + 1) + 1 / (x - 1) - 2 * x / (x**2 - 1),
    "scaled base": 1 / (2 * x + 2) - 1 / (4 * x + 4) - 1 / (4 * (x + 1)),
    # integrand factors free of the integration variable move outside
    "constant factor of an integrand": INTEGRAL_FACTOR,
}


@pytest.mark.parametrize("name", sorted(REDUCTIONS))
def test_in_ring_reductions_are_deterministic(name):
    e = REDUCTIONS[name]
    assert not _stage1(e).num
    assert is_zero(e).mode == "deterministic"
    perturbed = e + DELTA * x
    assert not exact_zero(perturbed)
    assert not is_zero(perturbed)


def test_integrand_factor_twin_is_refuted():
    twin = INTEGRAL_FACTOR + DELTA * u_x
    assert not exact_zero(twin) and is_zero(twin).mode == "nonzero"


def _decided(e, relations):
    form = _stage1(e)
    return not (form.num if relations else form.raw)


def test_relations_are_needed_for_roots_and_i_only():
    for name in ("sqrt(x)**2 - x", "root of exp", "x**(a/2)**2 - x**a",
                 "(x+I)*(x-I) - x**2 - 1"):
        assert not _decided(REDUCTIONS[name], False) and _decided(REDUCTIONS[name], True)
    for name in ("x**a*x - x**(a+1)", "x**(a+2)/x**a - x**2",
                 "(x+u)**(a-1)*(x+u) - (x+u)**a", "x**(1/(1-a))*x**(a/(a-1)) - x"):
        assert _decided(REDUCTIONS[name], False)


def test_symbolic_exponents_are_combined_in_one_ring_pass(monkeypatch):
    passes = []
    stage1 = symcore._stage1
    monkeypatch.setattr(symcore, "_stage1",
                        lambda e, modulo=None: passes.append(e) or stage1(e, modulo))
    e = _unevaluated(x**a, x**b) - x ** (a + b)
    assert exact_zero(e) and len(passes) == 1
    assert not is_zero(e + DELTA * x) and len(passes) == 2


def test_stage1_never_calls_powsimp(monkeypatch):
    calls = []
    powsimp = sp.powsimp
    monkeypatch.setattr(sp, "powsimp", lambda e, **kw: calls.append(e) or powsimp(e, **kw))
    assert not exact_zero(sp.exp(a * x) * sp.exp(x * u) - sp.exp(a * x + x * u) + DELTA * x)
    assert not exact_zero(_unevaluated(x**a, x**b) - x ** (a + b) + DELTA * x)
    assert exact_zero(_unevaluated(x**a, x**b) - x ** (a + b))
    assert not is_zero(sp.exp(a * u) + x)
    assert calls == []


def test_ex41_stages_are_exact_without_exponent_relations(monkeypatch):
    # H = (g(x) + (1-A)t)**(1/(1-A)): every power of its base shares one
    # kernel, so no relation decides an ex4.1 claim
    decided = []
    stage1 = symcore._stage1

    def spy(e, modulo=None):
        form = stage1(e, modulo)
        if not form.num:
            powers = any(kernel.is_Pow for kernel in form.table)
            decided.append((powers, not form.raw))
        return form

    monkeypatch.setattr(symcore, "_stage1", spy)
    report = catalog.verify_entry("ex4.1")
    assert all(s.verdict == "exact" for s in report.stages)
    assert any(powers for powers, _ in decided)
    assert all(plain for _, plain in decided)


POSITIVE_BASES = (x, 1 + x**2, sp.exp(x), u_x**2 + 1)
EXPONENT_FORMS = (sp.S.One, a, b, a / (a - 1), 1 / (a - 1), 1 / (1 - a), (a + b) / (a - 1),
                  b / (b + 1), a * b)
# positive bases; a and b away from the poles of the exponent forms
POSITIVE_POINTS = (
    {x: sp.Rational(3, 7), u_x: sp.Rational(5, 2), a: sp.Rational(2, 7), b: sp.Rational(5, 3)},
    {x: sp.Rational(9, 4), u_x: sp.Rational(1, 3), a: sp.Rational(-3, 2), b: sp.Rational(7, 2)},
)
_exponents = st.builds(
    lambda c, form, r: c * form + r,
    st.sampled_from((1, -1, 2, sp.Rational(1, 2), sp.Rational(-2, 3))),
    st.sampled_from(EXPONENT_FORMS),
    st.sampled_from((0, 1, -1, sp.Rational(1, 2), sp.Rational(1, 3))),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.sampled_from(POSITIVE_BASES), _exponents), min_size=1, max_size=4))
def test_power_products_are_sound(factors):
    # a product of powers against one power per base with the summed
    # exponent: a deterministic zero holds to 50 digits, and no twin is one
    sums = {}
    for base, expo in factors:
        sums[base] = sums.get(base, 0) + expo
    claim = (_unevaluated(*[base**expo for base, expo in factors])
             - sp.Mul(*[base**expo for base, expo in sums.items()]))
    if is_zero(claim).mode == "deterministic":
        for point in POSITIVE_POINTS:
            assert abs(claim.xreplace(point).evalf(50)) < 1e-40, claim
    assert not exact_zero(claim + DELTA * x)


@pytest.mark.xfail(strict=True, reason="nested powers are flattened on the real principal "
                   "branch, which ex4.1 needs until verdicts carry validity conditions")
def test_flattening_does_not_prove_sqrt_of_square():
    assert is_zero(sp.sqrt(x**2) - x).mode != "deterministic"


_w = sp.Symbol("w")


@pytest.mark.parametrize("claim, mode", [
    (sp.sqrt(_w / (2 - _w)) - sp.sqrt(-_w / (_w - 2)), "deterministic"),
    (sp.sqrt((_w**2 + 1) / (_w**2 + 2)) - sp.sqrt((-_w**2 - 1) / (-_w**2 - 2)),
     "deterministic"),
    (sp.sqrt((_w**2 + 1) / (_w**2 + 2)) - 2 * sp.sqrt((-_w**2 - 1) / (-_w**2 - 2)), "nonzero"),
], ids=["negative radicand off [0, 2)", "signs in both parts", "twice the root"])
def test_a_radicand_written_two_ways_is_one_kernel(claim, mode):
    # a rational power's base is cancelled before it becomes a kernel
    assert is_zero(claim).mode == mode


@pytest.mark.xfail(strict=True, reason="a kernel base takes its root from the first power "
                   "walked: exp(x)**(5/3) makes exp(x)**(1/3), unrelated to exp(x)**(1/6)")
def test_roots_of_a_kernel_base_do_not_depend_on_term_order():
    e = sp.exp(x)
    terms = (_unevaluated(e**sp.Rational(5, 6), e**sp.Rational(5, 6)), -e**sp.Rational(5, 3))
    assert is_zero(sp.Add(*terms, evaluate=False)).mode == "deterministic"
    assert is_zero(sp.Add(*reversed(terms), evaluate=False)).mode == "deterministic"


# ---------------------------------------------------------------------------
# One canonical form for kernel arguments
# ---------------------------------------------------------------------------

_y, _z = sp.symbols("y z")
_g = symcore.formal("g")
_polys = st.lists(st.tuples(st.integers(-3, 3), st.integers(0, 2), st.integers(0, 2),
                            st.integers(0, 1)), min_size=1, max_size=4)


def _poly(terms):
    return sp.Add(*[c * x**a * _y**b * _z**d for c, a, b, d in terms])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_polys, _polys, _polys)
def test_cancel_is_one_canonical_form(p, q, r):
    p, q, r = _poly(p), _poly(q), _poly(r)
    assume(q != 0 and r != 0)
    e = p / q
    forms = [sp.factor(p) / sp.factor(q), sp.expand(p) / sp.expand(q),
             sp.expand(p * r) / sp.expand(q * r)]
    canon = [symcore._cancel(f) for f in forms]
    assert canon[0] == canon[1] == canon[2]
    assert sp.cancel(canon[0] - e) == 0
    # over QQ, the form prints as SymPy's, which hs relies on for its outputs
    assert canon[0] == sp.cancel(sp.together(e))


@pytest.mark.parametrize("e", [
    sp.sqrt(x) + 1 / sp.sqrt(x),
    sp.exp(x) + sp.exp(-x),
    sp.exp(-2) / (_w**3 + 2),
    x ** sp.Rational(3, 2) + sp.sqrt(x),
    _unevaluated(sp.sqrt(a), sp.sqrt(a)) - a + x,
    sp.sqrt(a) * (sp.sqrt(a) + x) * (_y + 1) / ((a + sp.sqrt(a) * x) * (_y + 2)),
    symcore.differentiate((t * _w + 2)**2 * sp.sqrt(_w + 3) / 4, _w),
], ids=["root and its inverse", "exponential and its inverse", "exp(-2)", "x**(3/2) + sqrt(x)",
        "sqrt(a)*sqrt(a) in a sum", "sqrt(a)*sqrt(a) in a gcd", "X_ww of sqrt(w + 3)"])
def test_cancel_prints_as_sympy_for_roots_and_exponentials_of_one_base(e):
    # as sp.cancel reads them: b**(p/q) is (b**(1/q))**p, exp(k*a) is
    # exp(a)**k, exp(-2) is E**-2, and a root to a multiple of its index is
    # that power of its base
    assert symcore._cancel(e) == sp.cancel(e)
    if e.has(sp.exp(-2)):
        assert str(symcore._cancel(e)) == "1/(w**3*exp(2) + 2*exp(2))"


def test_cancel_of_a_root_whose_base_has_a_denominator_differs_from_sympy_in_form_only():
    # the product walks to r**2 + r for r = sqrt(1/x); r**2 is a multiple of
    # the root's index, so p/q is read again with it multiplied out as 1/x,
    # which puts the sum over the one denominator x. sp.cancel keeps r**2 = 1/x
    # as a term of its own
    e = sp.sqrt(1 / x) * (sp.sqrt(1 / x) + 1)
    ours, theirs = symcore._cancel(e), sp.cancel(e)
    assert str(ours) == "(x*sqrt(1/x) + 1)/x"
    assert str(theirs) == "sqrt(1/x) + 1/x"
    assert is_zero(ours - theirs).mode == "deterministic"


@pytest.mark.parametrize("claim", [
    _g(x * (1 + _y)) - _g(x + x * _y),
    _g((x**2 - 1) / (x - 1)) - _g(x + 1),
    _g((2.0 * x + 2) / (x + 1)) - _g(2.0),
    _g(1 / (x + sp.I)) - _g((x - sp.I) / (x**2 + 1)),
    _g(0.5 * x + 0.5 * x) - _g(x),
], ids=["factored", "gcd", "float", "imaginary unit", "float sum"])
def test_kernel_arguments_written_two_ways_share_one_kernel(claim):
    assert is_zero(claim).mode == "deterministic"
    assert is_zero(claim + x / 7).mode == "nonzero"


def test_a_float_argument_is_its_binary_rational():
    # 0.1 is not 1/10 in binary
    assert is_zero(_g(0.1 * x) - _g(x / 10)).mode == "nonzero"


# ---------------------------------------------------------------------------
# Shared subexpressions are walked once
# ---------------------------------------------------------------------------


def test_kernelizer_rewrites_each_distinct_subexpression_once(monkeypatch):
    # the burgers-full S_app claim realized by the Expr Tresse derivations
    # reuses restricted subexpressions: about 300 distinct ones in a tree
    # of about 22,000 nodes
    e = catalog.get("burgers-full")
    claim = Reference(e).syzygy(e.syzygies[0].lhs)
    claim = symcore._canon_integral_dummies(claim)
    visits = []
    rewrite = _Kernelizer._rewrite
    monkeypatch.setattr(_Kernelizer, "_rewrite",
                        lambda self, n: visits.append(n) or rewrite(self, n))
    _Kernelizer().run(claim)
    distinct = set(symcore._nodes(claim))
    assert sum(1 for _ in sp.preorder_traversal(claim)) > 50 * len(distinct)
    assert len(visits) == len(set(visits)) and set(visits) <= distinct


_alpha, _J = symcore.formal("alpha"), sp.Symbol("J")
#: A = ∫₀ᴶ v/α(v) dv, a kernel with a kernel inside it
_A = symcore.formal_integral(_v / _alpha(_v), _v, _J)


def test_kernel_expressions_are_built_only_when_read(monkeypatch):
    calls = []
    unkernelize = symcore.unkernelize
    monkeypatch.setattr(symcore, "unkernelize", lambda *a: calls.append(a) or unkernelize(*a))
    assert exact_zero((_A + 1)**2 - _A**2 - 2 * _A - 1)
    assert calls == []


def test_no_symbol_inside_a_kernel_takes_a_value():
    # the inner symbols of sqrt(A) are those of A, less its bound variable
    k = _Kernelizer()
    assert k.inner[k.run(symcore._canon_integral_dummies(sp.sqrt(_A)))] == {_J}
    ring = symcore._DiffRing()
    with pytest.raises(SymcoreError, match=r"J takes a value .* kernel sqrt\(Integral"):
        ring.walk(sp.sqrt(_A) + 1, values={_J: ring.walk(a)})
    # a principal jet takes its rhs in a frame's ring
    frame_ring = FrameRing(catalog.get("hunter-saxton").manifold)
    with pytest.raises(SymcoreError, match=r"u_tx takes a value .* kernel exp\(u_tx\)"):
        frame_ring.walk(sp.exp(jet(1, 1)) * u_x)
    frame_ring.walk(sp.exp(jet(0, 2)))
    assert frame_ring.kernel(frame_ring.gens[-1]) == sp.exp(jet(0, 2))


def test_a_chain_of_shared_products_is_decided():
    # f_k+1 = f_k*y + f_k*z: a tree of about 6*2**40 nodes over 123 distinct ones
    y, z = sp.symbols("y z")
    f = x
    for _ in range(40):
        f = f * y + f * z
    assert exact_zero(f - x * (y + z) ** 40)
    assert is_zero(f - x * (y + z) ** 40 + y).mode == "nonzero"


# ---------------------------------------------------------------------------
# Remainders modulo an implicit quotient solution
# ---------------------------------------------------------------------------

H, I_, J = sp.symbols("H I J")
ROOT_QUOTIENT = Syzygy(4 * I_ * sp.Symbol("H_I") ** 2 - 1)


@pytest.mark.parametrize("phi", [H**2 - I_, (H**2 - I_) * (J + 1)],
                         ids=["monic", "non-monic leading coefficient"])
def test_implicit_solution_is_a_zero_modulo_phi(phi):
    verdict = check_quotient_solution(ROOT_QUOTIENT, QuotientSolution(implicit=phi))
    assert verdict.mode == "deterministic"


@pytest.mark.parametrize("phi", [H**2 - I_ - J / 7, (H**2 - I_) * (J + 1) + J / 5],
                         ids=["J only in phi", "non-monic leading coefficient"])
def test_implicit_twin_is_refuted_by_its_remainder(phi):
    verdict = check_quotient_solution(ROOT_QUOTIENT, QuotientSolution(implicit=phi))
    assert verdict.mode == "nonzero"
    assert isinstance(verdict.witness, sp.Rational) and verdict.witness > 0
    # the certificate is the remainder modulo phi, free of the base token
    assert verdict.residual != 0 and H not in verdict.residual.free_symbols


def test_quotient_check_never_divides_outside_the_ring(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("sp.div or sp.together called")

    monkeypatch.setattr(sp, "div", refuse)
    monkeypatch.setattr(sp, "together", refuse)
    for phi, mode in ((H**2 - I_, "deterministic"), (H**2 - I_ - J / 7, "nonzero")):
        verdict = check_quotient_solution(ROOT_QUOTIENT, QuotientSolution(implicit=phi))
        assert verdict.mode == mode
    e = catalog.get("hunter-saxton")
    spec = e.solutions[0]
    verdict = check_quotient_solution(spec.specialized_syzygy(e.syzygies), spec.solution)
    assert verdict.mode == "deterministic"


def test_claim_and_modulus_are_walked_in_one_pass():
    # one pre-scan of e and Φ makes sqrt(x) the cube of Φ's root x**(1/6);
    # walked apart, sqrt(x) and x**(1/6) are two root kernels of x that no
    # relation ties together
    phi = H - x ** sp.Rational(1, 6)
    e = sp.sqrt(x) - H**3
    assert is_zero(e, modulo=(H, phi)).mode == "deterministic"
    twin = is_zero(e + x / 7, modulo=(H, phi))
    assert twin.mode == "nonzero" and twin.witness == sp.Rational(3, 7)
    ring = symcore._DiffRing()
    apart = ring.walk(e), ring.walk(phi)
    assert ring._form(apart[0], modulo=(H, apart[1])).num


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
        # raising=False: a module that does not import normalize gets a
        # counting one it never calls
        monkeypatch.setattr(module, "normalize", counting, raising=False)
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
    assert all(v.mode == "deterministic" and v.residual == 0 for _, v in report.verdicts)
    assert fr.duality_residuals() == [0, 0, 0, 0]
    assert check_syzygy(e.syzygies[0], fr, e.higher_invariants(), M).mode == "deterministic"
    assert calls == []


def test_quotient_solutions_are_decided_exactly(monkeypatch):
    # holding quotient solutions, the implicit ones too, are decided by
    # one deterministic is_zero call each and never reach normalize
    import jetquot.invariants as inv

    calls = _count_normalize(monkeypatch, [symcore, inv])
    modes = []

    def spy(e, **kw):
        verdict = is_zero(e, **kw)
        modes.append(verdict.mode)
        return verdict

    monkeypatch.setattr(inv, "is_zero", spy)
    solved = 0
    for e in catalog.entries().values():
        for spec in e.solutions:
            verdict = inv.check_quotient_solution(spec.specialized_syzygy(e.syzygies),
                                                  spec.solution)
            assert verdict.mode == "deterministic"
            solved += 1
    assert solved == 17 and calls == [] and modes == ["deterministic"] * 17


def test_failing_quotient_claim_is_sampled_once(monkeypatch):
    # an implicit twin Φ + δ·I is refuted by one is_zero call on its
    # remainder modulo Φ: one stage-1 pass, one exact point, no normalize
    from dataclasses import replace

    import jetquot.invariants as inv

    passes, calls = [], []
    normalized = _count_normalize(monkeypatch, [symcore, inv])
    stage1 = symcore._stage1

    def counting(e, modulo=None):
        passes.append(e)
        return stage1(e, modulo)

    monkeypatch.setattr(symcore, "_stage1", counting)
    monkeypatch.setattr(inv, "is_zero", lambda e, **kw: calls.append(e) or is_zero(e, **kw))
    e = catalog.get("hunter-saxton")
    spec = e.solutions[0]
    twin = replace(spec.solution, implicit=spec.solution.implicit + DELTA * inv.I_tok)
    verdict = inv.check_quotient_solution(spec.specialized_syzygy(e.syzygies), twin)
    assert not verdict.is_zero and verdict.mode == "nonzero"
    assert isinstance(verdict.witness, sp.Rational) and verdict.witness > 0
    assert verdict.samples == 1
    assert len(passes) == 1 and len(calls) == 1 and normalized == []


# ---------------------------------------------------------------------------
# The exact witness: the ring form evaluated over QQ
# ---------------------------------------------------------------------------


def _hs_generator_twin():
    e = catalog.get("hunter-saxton")
    X = e.gens[0]
    return check_symmetry(VectorField(X.a, X.b, X.c + DELTA * t**2 * u**2), e.manifold).verdict


def _burgers_syzygy_twin():
    e = catalog.get("burgers-full")
    twin = _first_syzygy_twin(e, random.Random(1))
    return check_syzygy(twin, e.frame, e.higher_invariants(), e.manifold)


def _ex31_quotient_twin():
    from dataclasses import replace

    from jetquot.invariants import I_tok, check_quotient_solution

    e = catalog.get("ex3.1")
    spec = e.solutions[0]
    twin = replace(spec.solution, h=spec.solution.h + DELTA * I_tok)
    return check_quotient_solution(spec.specialized_syzygy(e.syzygies), twin)


def _replayed_value(verdict, seed=symcore._SEED):
    """|expr| at the witness's point, recomputed in plain SymPy: the
    stand-ins are bound into the expression, then the point substituted.
    Bound variables are aligned first, as stage 1 aligns them, so that
    integrals equal up to their bound variable cancel."""
    e = symcore._canon_integral_dummies(verdict.expr)
    rng = random.Random(seed)
    for _ in range(verdict.samples):
        stand_ins = symcore._stand_ins(e.atoms(symcore.FormalFunction), rng)
        point = symcore._draw_point(e.free_symbols, rng)
    for name, (params, poly) in stand_ins.items():
        e = bind_formal(e, name, params, poly)
    return abs(e.xreplace(point))


@pytest.mark.parametrize("twin", [_hs_generator_twin, _burgers_syzygy_twin, _ex31_quotient_twin],
                         ids=["hunter-saxton generator", "burgers-full syzygy", "ex3.1 quotient"])
def test_twins_are_refuted_by_an_exact_witness(twin):
    verdict = twin()
    assert not verdict.is_zero and verdict.mode == "nonzero"
    assert isinstance(verdict.witness, sp.Rational) and verdict.witness > 0
    assert _replayed_value(verdict) == verdict.witness


def test_a_vanishing_denominator_redraws_the_witness_point():
    # a seed whose first point puts x at 0, where the base x vanishes
    seed = next(s for s in range(10**4)
                if symcore._draw_point({x}, random.Random(s))[x] == 0)
    verdict = is_zero(1 / x + 1, seed=seed)
    assert verdict.mode == "nonzero" and verdict.samples == 2
    assert verdict.witness == _replayed_value(verdict, seed)


g = symcore.formal("g")
v = sp.Symbol("v")


@pytest.mark.parametrize("e", [
    sp.exp(x) * g(t) + u,
    sp.sqrt(x) + g(t),
    symcore.formal_integral(g(v), v, x) + u,
], ids=["exp", "root", "integral"])
def test_claims_without_rational_values_reach_stage2(e, monkeypatch):
    samples = []
    sample = symcore._sample
    monkeypatch.setattr(symcore, "_sample", lambda *args: samples.append(args) or sample(*args))
    verdict = is_zero(e)
    assert verdict.mode == "nonzero" and isinstance(verdict.witness, sp.Float)
    assert samples


def test_failing_claim_certificate_is_the_normal_form(monkeypatch):
    import jetquot.pde as pde

    calls = _count_normalize(monkeypatch, [symcore, pde])
    M = catalog.get("hunter-saxton").manifold
    X = VectorField(0, 0, t**2 * u**2)
    res = check_symmetry(X, M)
    assert not res.holds and res.verdict.mode == "nonzero"
    # the certificate is computed when it is first read, once
    assert calls == []
    residual = res.residual
    assert res.residual is residual and len(calls) == 1
    assert residual == normalize(calls[0]) and residual != 0


def test_failing_invariance_claim_certificate_is_read_lazily(monkeypatch):
    import jetquot.invariants as inv
    import jetquot.pde as pde

    calls = _count_normalize(monkeypatch, [symcore, pde, inv])
    e = catalog.get("hunter-saxton")
    report = check_invariant(u, e.gens, e.manifold)
    assert not report and calls == []
    failed = [v for _, v in report.verdicts if not v.is_zero]
    assert failed and calls == []
    assert failed[0].residual != 0 and len(calls) == 1


def test_holding_claim_certificate_is_zero_without_normalize(monkeypatch):
    calls = _count_normalize(monkeypatch, [symcore])
    verdict = is_zero(x * (x + 1) - x**2 - x)
    assert verdict.mode == "deterministic" and verdict.residual == 0
    assert calls == []


# ---------------------------------------------------------------------------
# Differential test: the ring against the Expr rational normal form
# ---------------------------------------------------------------------------


def _expr_zero(e, modulo=None):
    """The Expr verdict on e kernelized as stage 1 kernelizes it, no
    relations: with a modulus (base, Φ), Φ is kernelized with e in one
    pass, and when Φ is polynomial in base the remainder of the body's
    numerator divided by Φ in base is judged."""
    k = _Kernelizer()
    if modulo is None:
        body = k.run(_canon(e))
    else:
        body, phi = k.run(_canon(sp.Tuple(e, modulo[1])))
        if modulo[1].is_polynomial(modulo[0]):
            num, _ = sp.fraction(sp.together(body))
            _, body = sp.div(sp.expand(num), sp.expand(phi), modulo[0])
    return sp.cancel(sp.together(body)) == 0


def _ring_and_oracle(e, modulo=None):
    """(ring verdict, Expr verdict) on the same claim, no relations: the
    ring side reads the raw numerator of stage 1's form."""
    return not _stage1(e, modulo).raw, _expr_zero(e, modulo)


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
    # the claims verify_entry sends to is_zero as expressions are checked as
    # they pass; the Tresse claims, which it builds in the frame's ring, are
    # built here by the Expr reference derivations
    from jetquot.jetcalc import apply_prolonged

    seen = []
    original = symcore._stage1

    def differential(e, modulo=None):
        form = original(e, modulo)
        ring_zero, expr_zero = not form.raw, _expr_zero(e, modulo)
        seen.append(e)
        assert ring_zero == expr_zero, e
        return form

    monkeypatch.setattr(symcore, "_stage1", differential)
    for name in catalog.names():
        assert catalog.verify_entry(name).passed
    # all 170 claims outside the Tresse stages; 151 of them are 0 as built
    assert len(seen) > 15
    monkeypatch.undo()

    tresse = 0
    for name in catalog.names():
        e = catalog.get(name)
        ref = Reference(e)
        claims = ref.duality() + [ref.syzygy(s.lhs) for s in e.syzygies]
        if e.commutation_probe is not None:
            claims.append(ref.commutation(e.commutation_probe))
        for claim in claims:
            assert _ring_and_oracle(_canon(claim)) == (True, True), (name, claim)
        tresse += len(claims)
    assert tresse == 120

    rng = random.Random(20260823)
    for name in catalog.names():
        e = catalog.get(name)
        M = e.manifold
        twin = _first_generator_twin(e, rng)
        raw = _canon(M.restrict(apply_prolonged(twin, M.F, cap=M.cap)))
        assert _ring_and_oracle(raw) == (False, False), name
        if e.syzygies:
            s = _first_syzygy_twin(e, rng)
            raw = _canon(Reference(e).syzygy(s.lhs))
            assert _ring_and_oracle(raw) == (False, False), name
