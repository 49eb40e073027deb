"""Stage 2 of is_zero: random evaluation at 40 digits.

Covers that the sample point does not depend on the hash seed, that
formal integrals are evaluated by quadrature, or exactly when the
integrand is a polynomial, and never integrated symbolically otherwise,
that the fixed-point quadrature nodes are mpmath's, that quadrature
neither hides a nonzero value nor turns a divergent integral into a
verdict, that a kernel which cancels out of the fraction takes no value,
the resample count, that a value which cancels to all 40 digits is a
zero sample, that the polynomial stand-ins are rich enough for the
claims made on them and equal the expression-built reference, and that
substituting the point before binding them gives a kernel the value
binding first gives.
"""

import os
import random
import subprocess
import sys
from dataclasses import replace
from itertools import combinations_with_replacement
from pathlib import Path

import mpmath
import pytest
import sympy as sp
import sympy.integrals.risch
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.calculus.quadrature import GaussLegendre
from sympy.polys.domains import QQ

import jetquot
from jetquot import catalog, cli, symcore
from jetquot.invariants import I_tok, check_quotient_solution
from jetquot.symcore import (
    IndeterminateZeroTest,
    formal,
    formal_integral,
    is_zero,
    parse,
    t,
    x,
)

a, b, c = sp.symbols("a b c")
v, s = sp.symbols("v s")
g = formal("g")
DELTA = sp.Rational(1, 3)
# zero by the substitution v = I*s, which stage 1 does not see
SCALED = formal_integral(g(v), v, I_tok) - I_tok * formal_integral(g(I_tok * s), s, 1)


def _witness(hash_seed: str) -> str:
    src = str(Path(jetquot.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONHASHSEED": hash_seed,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code = ("import sympy as sp\n"
            "from jetquot.symcore import formal, is_zero, t, x\n"
            "a, b, c = sp.symbols('a b c')\n"
            "print(is_zero(formal('g')(t)*a + b*x - c*t + sp.Rational(1, 3)).witness)\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    return out.stdout.strip()


def test_stage2_point_does_not_depend_on_the_hash_seed():
    # this interpreter's hash seed is a third one
    verdict = is_zero(g(t) * a + b * x - c * t + sp.Rational(1, 3))
    assert verdict.mode == "nonzero" and verdict.samples == 1
    assert _witness("0") == _witness("3") == str(verdict.witness)


@pytest.mark.parametrize("name", ["ex2.1", "ex4.3"])
def test_stage2_never_integrates_symbolically(name, monkeypatch):
    e = catalog.get(name)
    spec = e.solutions[0]
    syzygy = spec.specialized_syzygy(e.syzygies)
    twin = replace(spec.solution, h=spec.solution.h + DELTA * I_tok)

    def refuse(*args, **kwargs):
        raise AssertionError("stage 2 integrated symbolically")

    monkeypatch.setattr(sp.Integral, "doit", refuse)
    monkeypatch.setattr(sympy.integrals.risch, "risch_integrate", refuse)
    verdict = check_quotient_solution(syzygy, twin)
    assert not verdict.is_zero and verdict.mode == "nonzero"
    assert verdict.samples >= 1


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_quadrature_keeps_the_verdict_sound(seed):
    zero = is_zero(SCALED, seed=seed)
    assert zero.is_zero and zero.mode == "probabilistic"
    assert zero.samples >= 8
    nonzero = is_zero(SCALED + I_tok / 10**6, seed=seed)
    assert not nonzero.is_zero and nonzero.mode == "nonzero"
    assert 1 <= nonzero.samples <= 32
    # a divergent integral fails quadrature at every point: no verdict
    with pytest.raises(IndeterminateZeroTest):
        is_zero(formal_integral(1 / v, v, I_tok), seed=seed)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_quadrature_decides_a_non_polynomial_integrand(seed, monkeypatch):
    # with g bound to a polynomial, SCALED's integrals are taken exactly;
    # dividing by 1 + v**2 keeps this twin of it on the quadrature path
    def f(z):
        return g(z) / (1 + z**2)

    quadratures = _quadratures(monkeypatch)
    scaled = formal_integral(f(v), v, I_tok) - I_tok * formal_integral(f(I_tok * s), s, 1)
    zero = is_zero(scaled, seed=seed)
    assert zero.is_zero and zero.mode == "probabilistic" and quadratures
    nonzero = is_zero(scaled + I_tok / 10**6, seed=seed)
    assert not nonzero.is_zero and nonzero.mode == "nonzero"


@pytest.mark.parametrize("degree", range(1, 7))
def test_fixed_point_nodes_match_mpmath(degree):
    with mpmath.workdps(40):
        prec = mpmath.mp.prec + 20
        fast = symcore._FastGaussLegendre(mpmath.mp).calc_nodes(degree, prec)
        slow = GaussLegendre(mpmath.mp).calc_nodes(degree, prec)
        assert len(fast) == len(slow) == 3 * 2 ** (degree - 1)
        tol = mpmath.ldexp(1, -prec)
        for (x1, w1), (x2, w2) in zip(fast, slow):
            assert abs(x1 - x2) < tol and abs(w1 - w2) < tol
        with mpmath.workprec(2 * prec):
            assert abs(mpmath.fsum(w for _, w in fast) - 2) < tol


def _quadratures(monkeypatch) -> list:
    calls = []
    gauss_legendre = symcore._gauss_legendre
    monkeypatch.setattr(symcore, "_gauss_legendre",
                        lambda *args: calls.append(args) or gauss_legendre(*args))
    return calls


def test_ex11_quotient_twin_is_refuted_exactly(monkeypatch):
    # g(I + int(1/alpha, 0, J)) is a factor of the numerator and the
    # denominator: it cancels, and its quadrature is never computed
    e = catalog.get("ex1.1")
    spec = e.solutions[0]
    twin = replace(spec.solution, h=spec.solution.h + DELTA * I_tok)
    quadratures = _quadratures(monkeypatch)
    verdict = check_quotient_solution(spec.specialized_syzygy(e.syzygies), twin)
    assert verdict.mode == "nonzero" and verdict.samples == 1
    assert isinstance(verdict.witness, sp.Rational) and not quadratures


K = g(formal_integral(1 / (1 + v**2), v, symcore.u))


def test_a_kernel_that_cancels_takes_no_value(monkeypatch):
    quadratures = _quadratures(monkeypatch)
    verdict = is_zero((x * K + K) / K - x)
    assert verdict.mode == "nonzero" and verdict.witness == 1
    assert isinstance(verdict.witness, sp.Rational) and not quadratures


def test_a_kernel_that_does_not_divide_is_computed(monkeypatch):
    # the numerator is 1: no power of K to cancel, so K takes its value
    quadratures = _quadratures(monkeypatch)
    verdict = is_zero((x * K + 1) / K - x)
    assert verdict.mode == "nonzero" and isinstance(verdict.witness, sp.Float)
    assert quadratures


def test_nested_integrals_are_computed_one_limit_at_a_time():
    # the integrand stays non-polynomial under the stand-ins, so the inner
    # limit is integrated by quadrature at every node of the outer one
    nested = parse("int(int(exp(s)*v, s, 0, v), v, 0, u)")
    refuted = is_zero(nested + sp.Rational(1, 7))
    assert refuted.mode == "nonzero" and isinstance(refuted.witness, sp.Float)
    zero = is_zero(nested - parse("int(v*(exp(v)-1), v, 0, u)"))
    assert zero.is_zero and zero.mode == "probabilistic"


def test_quadrature_makes_each_constant_once_per_precision(monkeypatch):
    # a nested integral's constants are made once at each working
    # precision, not at every node, and the values stay bit-identical to
    # those of mpf(p)/mpf(q) written into the integrand
    from mpmath import ctx_mp_python

    made = []
    from_int = ctx_mp_python.from_int
    monkeypatch.setattr(ctx_mp_python, "from_int",
                        lambda n, *args: made.append(n) or from_int(n, *args))
    seen = []
    legendre = symcore._gauss_legendre

    def recording(f, interval):
        out = legendre(f, interval)
        seen.append(out[0])
        return out

    monkeypatch.setattr(symcore, "_gauss_legendre", recording)
    k = sp.Integral(sp.exp(s * v) / 7, (s, 0, v), (v, 0, sp.Rational(5, 11)))
    with mpmath.workdps(40):
        value = symcore._integral_value(k)
        assert made.count(7) <= 2 and made.count(11) <= 2

        def inner(v_):
            return mpmath.quad(lambda s_: mpmath.mpf(1) / mpmath.mpf(7) * mpmath.exp(s_ * v_),
                               (0, v_), method=symcore._FastGaussLegendre, maxdegree=6)

        outer = mpmath.quad(inner, (0, mpmath.mpf(5) / mpmath.mpf(11)),
                            method=symcore._FastGaussLegendre, maxdegree=6)
    assert seen[-1] == outer and outer in value


def test_samples_count_rejected_points(monkeypatch):
    assert is_zero((a + b)**2 - a**2 - 2*a*b - b**2).samples == 0
    sample = symcore._sample
    rejected = []

    def reject_three(*args):
        if len(rejected) < 3:
            rejected.append(sample(*args))
            return None
        return sample(*args)

    monkeypatch.setattr(symcore, "_sample", reject_three)
    verdict = is_zero(SCALED, samples=5)
    assert verdict.mode == "probabilistic" and verdict.samples == 3 + 5


@pytest.mark.parametrize("identity", [
    sp.sin(x)**2 + sp.cos(x)**2 - 1,
    sp.log(2 * x) - sp.log(2) - sp.log(x),
], ids=["pythagoras", "log of a product"])
def test_stage2_counts_a_value_that_cancels_exactly_as_zero(identity):
    # the 40-digit enclosures of the kernels leave 0 inside that of the sum
    zero = is_zero(identity)
    assert zero.is_zero and zero.mode == "probabilistic"
    nonzero = is_zero(identity + x / 1000)
    assert not nonzero.is_zero and nonzero.mode == "nonzero"


@pytest.mark.parametrize("seed", [20260823, 2])
def test_an_unresolved_zero_with_large_terms_is_not_a_refutation(seed):
    # the terms of this identity are huge at some points: the enclosure of
    # their sum is as wide, holds 0, and is no witness that it is nonzero
    scaled = x**60 * sp.exp(x)**10 * (sp.sin(x)**2 + sp.cos(x)**2 - 1)
    assert is_zero(scaled, seed=seed).is_zero


def test_expr_zero_confirms_a_trigonometric_identity(capsys):
    assert cli.main(["expr", "zero", "sin(x)^2+cos(x)^2-1"]) == 0
    assert "probabilistic" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# Stand-ins rich enough for every claim on them
# ---------------------------------------------------------------------------

u_x = symcore.jet(0, 1)
FOOLED_BY_CUBICS = {
    "g''''(t)": formal("g", 1, (4,))(t),
    "fourth difference": sum(k * g(t + i) for i, k in enumerate((1, -4, 6, -4, 1))),
    "f_123(t, x, u_x)": formal("f", 3, (1, 1, 1))(t, x, u_x),
}


@pytest.mark.parametrize("name", sorted(FOOLED_BY_CUBICS))
def test_stand_ins_refute_what_cubics_annihilate(name):
    # a cubic has no fourth derivative or difference, and a cubic without
    # the a*b*c monomial has no mixed partial f_123
    e = FOOLED_BY_CUBICS[name]
    verdict = is_zero(e)
    assert not verdict.is_zero and verdict.mode == "nonzero"
    # a factor exp(x) has no rational value: the claim is refuted in
    # 40-digit enclosures instead of over QQ
    for seed in (1, 2, 3):
        verdict = is_zero(e * sp.exp(x), seed=seed)
        assert verdict.mode == "nonzero" and isinstance(verdict.witness, sp.Float)


def test_stand_in_degree_covers_points_and_derivatives():
    nodes = [g(t), g(t + 1), formal("g", 1, (2,))(t + 2), formal("f", 3)(t, x, u_x)]
    polys = {name: sp.Poly(poly, *params)
             for name, (params, poly) in symcore._stand_ins(nodes, random.Random(0)).items()}
    # g at three argument tuples with derivatives up to order 2: 3*3 - 1
    assert polys["g"].total_degree() == 8
    # f at one tuple, no derivative: the cubic floor, with every monomial
    assert polys["f"].total_degree() == 3 and (1, 1, 1) in polys["f"].monoms()


def _stand_ins_by_expression(nodes, rng: random.Random) -> dict:
    """The reference stand-ins, built by SymPy expression arithmetic: a sum
    of terms, one random coefficient per monomial, in the order
    :func:`symcore._stand_ins` draws them."""
    uses = {}
    for node in nodes:
        nargs, tuples, k = uses.get(node.base_name, (len(node.args), set(), 0))
        tuples.add(node.args)
        uses[node.base_name] = (nargs, tuples, max(k, sum(node.deriv_orders)))
    out = {}
    for name, (nargs, tuples, k) in sorted(uses.items()):
        params = sp.symbols(f"_p_{name}_0:{nargs}")
        d = max(3, len(tuples) * (k + 1) - 1)
        mono = [sp.Mul(*c) for n in range(d + 1)
                for c in combinations_with_replacement(params, n)]
        terms = [symcore._random_rational(rng) * m for m in mono]
        out[name] = (params, sp.Poly(sp.Add(*terms), *params))
    return out


@pytest.mark.parametrize("seed", range(10))
def test_stand_ins_draw_the_same_polynomials(seed):
    nodes = [g(t), g(t + 1), formal("g", 1, (2,))(t + 2), formal("f", 3)(t, x, u_x),
             formal("h", 2, (1, 1))(t, x), formal("h", 2)(x, t)]
    rng, reference_rng = random.Random(seed), random.Random(seed)
    stand_ins = symcore._stand_ins(nodes, rng)
    reference = _stand_ins_by_expression(nodes, reference_rng)
    assert stand_ins.keys() == reference.keys()
    for name, (params, poly) in stand_ins.items():
        ref_params, ref_poly = reference[name]
        assert params == ref_params and poly.domain == QQ
        assert poly == ref_poly.set_domain(QQ)
    # the same stream, used up to the same place
    assert rng.random() == reference_rng.random()


# ---------------------------------------------------------------------------
# Point first: the stand-ins are bound at the point's rational arguments
# ---------------------------------------------------------------------------

f2 = formal("f", 2)
_ARGS = [t, x, t + 1, 2 * x - t, t * x, 1 / (t - 1), (x + 1) / (t**2 + 1)]
_IV0, _IV1 = sp.symbols("_iv0 _iv1")
# integrals whose integrands are polynomials once the stand-ins are bound
_INTEGRALS = [sp.Integral(g(_IV0) * _IV0, (_IV0, 0, t)),
              sp.Integral(formal("g", 1, (1,))(2 * _IV0 - t) * x, (_IV0, t, x + 1)),
              sp.Integral(f2(_IV0, t * x) + _IV0**2, (_IV0, -1, x)),
              sp.Integral(g(_IV0) * _IV1, (_IV0, 0, _IV1), (_IV1, 0, t))]
_ATOMS = ([g(a) for a in _ARGS] + [formal("g", 1, (k,))(a) for k in (1, 3) for a in _ARGS[:4]]
          + [f2(p, q) for p, q in zip(_ARGS, _ARGS[1:])] + [formal("f", 2, (1, 2))(t, x), a, b]
          + _INTEGRALS)


@st.composite
def _formal_expressions(draw):
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        coeff = sp.Rational(draw(st.integers(-9, 9)), draw(st.integers(1, 5)))
        factors = draw(st.lists(st.sampled_from(_ATOMS), min_size=1, max_size=3))
        power = draw(st.sampled_from([1, 1, 2, -1]))
        terms.append(coeff * sp.Mul(*factors) ** power)
    return sp.Add(*terms)


def _bind_first(k, stand_ins, point):
    """A kernel's value as the probe once computed it: bind the stand-ins,
    then substitute the point, then let SymPy take the integrals, here of
    polynomials. An integral's value is the interval stage 2 puts around
    it."""
    for name, (params, poly) in stand_ins.items():
        k = symcore.bind_formal(k, name, params, poly)
    value = k.xreplace(point).doit()
    if value.has(sp.zoo, sp.nan, sp.oo, -sp.oo):
        return None
    return symcore._value(value, {}, {}) if k.has(sp.Integral) else value


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_formal_expressions(), st.integers(0, 2**32))
def test_point_first_probe_equals_bind_first(e, seed):
    rng = random.Random(seed)
    stand_ins = symcore._stand_ins(e.atoms(symcore.FormalFunction), rng)
    point = symcore._draw_point(e.free_symbols, rng)
    # the integrals, and the formal functions outside them
    kernels = e.atoms(sp.Integral) | {k for k in e.atoms(symcore.FormalFunction)
                                      if not k.has(_IV0, _IV1)}
    for k in kernels:
        assert symcore._value(k, stand_ins, point) == _bind_first(k, stand_ins, point)


@pytest.mark.parametrize("seed", range(5))
def test_formal_partials_at_rational_points_are_polynomial_values(seed):
    partials = [formal("g", 1, (k,))(a) for k in range(4) for a in _ARGS[:5]]
    partials += [formal("f", 2, orders)(p, q) for orders in ((0, 0), (1, 0), (1, 2))
                 for p, q in zip(_ARGS[:4], _ARGS[1:5])]
    rng = random.Random(seed)
    stand_ins = symcore._stand_ins(partials, rng)
    point = symcore._draw_point({t, x}, rng)
    for k in partials:
        params, poly = stand_ins[k.base_name]
        orders = [(p, o) for p, o in zip(params, k.deriv_orders) if o]
        partial = poly.as_expr().diff(*orders) if orders else poly.as_expr()
        value = symcore._value(k, stand_ins, point)
        assert isinstance(value, sp.Rational)
        assert value == partial.xreplace(dict(zip(params, k.xreplace(point).args)))
