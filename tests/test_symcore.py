"""Kernel-level behavior: jets, parsing, formal functions, zero tests."""

import random

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from jetquot.symcore import (
    EvalError,
    ExprSyntaxError,
    JetVar,
    bind_formal,
    canonical_jet_name,
    compile_numeric,
    differentiate,
    formal,
    formal_integral,
    is_zero,
    jet,
    jets_in,
    kernelize,
    max_jet_order,
    normalize,
    parse,
    substitute,
    t,
    unkernelize,
    x,
)

u, u_t, u_x, u_xx, u_tx = jet(0, 0), jet(1, 0), jet(0, 1), jet(0, 2), jet(1, 1)


# ---------------------------------------------------------------------------
# Jet naming
# ---------------------------------------------------------------------------


def test_jet_names_are_canonical():
    assert jet(0, 0) == sp.Symbol("u")
    assert jet(1, 0) == sp.Symbol("u_t")
    assert jet(1, 2) == sp.Symbol("u_txx")
    assert canonical_jet_name("u_xt") == "u_tx"
    assert canonical_jet_name("u_xtx") == "u_txx"
    assert canonical_jet_name("v_x") is None


def test_jets_in_and_order():
    e = u_tx * u + u_x**2
    found = jets_in(e)
    assert found[u_tx] == (1, 1)
    assert found[u_x] == (0, 1)
    assert max_jet_order(e) == 2
    assert max_jet_order(sp.Integer(3)) == -1


def test_jetvar_shift():
    v = JetVar(1, 1)
    assert v.shift(dx=1).name == "u_txx"
    assert v.order == 2


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def test_parse_jets_and_arithmetic():
    assert parse("u_tx + u*u_xx + u_x^2/2") == u_tx + u * u_xx + u_x**2 / 2
    # subscript order is canonicalized
    assert parse("u_xt") == u_tx


def test_parse_power_precedence():
    # ^ binds tighter than / and *
    assert parse("x^2/3") == x**2 / 3
    assert sp.expand(parse("-(t-1)^2/3") + (t - 1) ** 2 / 3) == 0
    assert parse("2*x^3") == 2 * x**3
    assert parse("x^-2") == x**-2
    assert parse("x^(1/2)") == sp.sqrt(x)


def test_parse_formal_functions_and_primes():
    g = formal("g")
    gp = formal("g", 1, (1,))
    assert parse("g(u_x)") == g(u_x)
    assert parse("g'(u_x)") == gp(u_x)
    assert parse("D(g(u_x), 2)") == formal("g", 1, (2,))(u_x)


def test_parse_formal_integral():
    v = sp.Symbol("v")
    e = parse("int(g(v), v, 0, u_x)")
    assert isinstance(e, sp.Integral)
    assert e.limits == ((v, 0, u_x),)


def test_parse_errors():
    with pytest.raises(ExprSyntaxError):
        parse("u_x +")
    with pytest.raises(ExprSyntaxError):
        parse("int(g(v), v, 1, u_x)")  # lower bound must be 0
    with pytest.raises(ExprSyntaxError):
        parse("g(x) + g(x, t)")  # inconsistent arity


# ---------------------------------------------------------------------------
# Formal functions
# ---------------------------------------------------------------------------


def test_formal_chain_rule():
    g = formal("g")
    gp = formal("g", 1, (1,))
    e = g(u_x**2)
    assert sp.diff(e, u_x) == 2 * u_x * gp(u_x**2)
    # no Derivative/Subs wrappers ever appear
    assert not sp.diff(e, u_x).has(sp.Derivative, sp.Subs)


def test_bind_formal_derivatives():
    w = sp.Symbol("w")
    g = formal("g")
    gpp = formal("g", 1, (2,))
    e = g(t) + gpp(t**2)
    bound = bind_formal(e, "g", (w,), sp.exp(2 * w))
    assert sp.simplify(bound - (sp.exp(2 * t) + 4 * sp.exp(2 * t**2))) == 0


def test_substitute_mixed():
    g = formal("g")
    w = sp.Symbol("w")
    e = g(u_x) + t
    out = substitute(e, {"g": ((w,), w**2), t: 3})
    assert out == u_x**2 + 3


def test_formal_integral_fundamental_theorem():
    v, w = sp.symbols("v w")
    g = formal("g")
    F = formal_integral(g(v), v, w)
    assert differentiate(F, w) == g(w)


# ---------------------------------------------------------------------------
# Normalization and kernelization
# ---------------------------------------------------------------------------


def test_normalize_rational_zero():
    e = (u_x + u) ** 2 - u_x**2 - 2 * u * u_x - u**2
    assert normalize(e) == 0


def test_normalize_exponential_relation():
    # e^{a+b} = e^a e^b must normalize away
    a, b = sp.symbols("a b")
    assert normalize(sp.exp(a + b) - sp.exp(a) * sp.exp(b)) == 0


def test_normalize_is_idempotent():
    g = formal("g")
    e = (g(u_x) ** 2 - 1) / (g(u_x) - 1)
    n1 = normalize(e)
    assert normalize(n1) == n1


def test_kernelize_roundtrip():
    g = formal("g")
    e = sp.exp(u_x) * g(t) + sp.log(u)
    body, table = kernelize(e)
    assert not body.has(sp.exp, sp.log)
    assert unkernelize(body, table) == e


def test_fractional_power_kernels_share_a_root():
    y = sp.Symbol("y")
    e = y ** sp.Rational(3, 2) - y * sp.sqrt(y)
    assert normalize(e) == 0
    assert is_zero(e).mode == "deterministic"


def test_integral_dummy_names_are_immaterial():
    # the same integral written with two different bound variables
    v, w, s = sp.symbols("v w s")
    g = formal("g")
    e = sp.exp(formal_integral(g(v), v, w)) - sp.exp(formal_integral(g(s), s, w))
    verdict = is_zero(e)
    assert verdict.is_zero and verdict.mode == "deterministic"


def test_symbolic_exponent_monomial_relation():
    # base**e and base**(e+1) differ by one factor of the base
    a, y = sp.symbols("a y", positive=True)
    e = y ** (a / (a - 1)) - y * y ** (1 / (a - 1))
    assert is_zero(e).is_zero


# ---------------------------------------------------------------------------
# Zero testing
# ---------------------------------------------------------------------------


def test_is_zero_deterministic():
    v = is_zero(sp.expand((t + x) ** 3) - (t + x) ** 3)
    assert v.is_zero and v.mode == "deterministic"


def test_is_zero_nonzero_with_witness():
    v = is_zero(u_x**2 + 1)
    assert not v.is_zero
    assert v.mode == "nonzero"


def test_is_zero_probabilistic_formal_identity():
    # (g+h)' = g' + h' realized through proxies
    g, gp = formal("g"), formal("g", 1, (1,))
    e = sp.diff(g(t) * g(t), t) - 2 * g(t) * gp(t)
    assert is_zero(e).is_zero


def test_is_zero_seed_determinism():
    g = formal("g")
    e = g(t) ** 2 - g(t) * g(t) + sp.exp(t) - sp.exp(t)
    assert is_zero(e, seed=1).is_zero == is_zero(e, seed=1).is_zero


# ---------------------------------------------------------------------------
# Numeric evaluation
# ---------------------------------------------------------------------------


def test_eval_numeric_basic():
    f = compile_numeric(t**2 + 1, (t,))
    assert f(3.0) == 10.0 and type(f(3)) is float


def test_eval_numeric_closure_and_quadrature():
    import math

    v, w = sp.symbols("v w")
    # integrals, nested ones too, are filled by quadrature at call time
    f = compile_numeric(formal_integral(sp.exp(v), v, w), (w,))
    assert abs(f(1.0) - (math.e - 1)) < 1e-9
    inner = formal_integral(t, t, v)
    f = compile_numeric(formal_integral(inner, v, w) + w, (w,))
    assert abs(f(1.0) - (1 / 6 + 1)) < 1e-12
    # a formal function has no numeric value: refused when compiled
    with pytest.raises(EvalError):
        compile_numeric(formal_integral(formal("g")(v), v, w), (w,))


def test_eval_numeric_pole():
    with pytest.raises(EvalError):
        compile_numeric(1 / t, (t,))(0.0)


def test_eval_numeric_unbound():
    with pytest.raises(EvalError):
        compile_numeric(t + x, (t,))


@pytest.mark.parametrize("e, at", [
    (sp.sqrt(t), -1.0),
    (t ** sp.Rational(1, 3), -8.0),  # odd roots too take the principal branch
    (sp.exp(sp.sqrt(t)), -1.0),      # a complex value inside a real function
    (sp.log(t), -1.0),
    (sp.exp(t), 1000.0),
    (formal_integral(1 / sp.Symbol("v"), sp.Symbol("v"), t), 1.0),
], ids=["even root", "odd root", "complex inside exp", "domain", "overflow",
        "divergent quadrature"])
@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_eval_numeric_error_contract(e, at):
    with pytest.raises(EvalError):
        compile_numeric(e, (t,))(at)


def test_lambdify_only_in_symcore():
    import pathlib

    import jetquot

    package = pathlib.Path(jetquot.__file__).parent
    users = sorted(p.name for p in package.glob("*.py") if "lambdify" in p.read_text())
    assert users == ["symcore.py"]


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------

_coeff = st.integers(min_value=-5, max_value=5)


def _poly(c0, c1, c2, c3):
    return c0 + c1 * u_x + c2 * t * u + c3 * u_xx**2


@given(_coeff, _coeff, _coeff, _coeff)
@settings(max_examples=30, deadline=None)
def test_normalize_maps_differences_to_zero(c0, c1, c2, c3):
    p = _poly(c0, c1, c2, c3)
    assert normalize(sp.expand((p + 1) ** 2) - (p**2 + 2 * p + 1)) == 0


@given(_coeff, _coeff, _coeff, _coeff, st.integers(min_value=0, max_value=2**31))
@settings(max_examples=20, deadline=None)
def test_parse_print_roundtrip(c0, c1, c2, c3, seed):
    rng = random.Random(seed)
    p = _poly(c0, c1, c2, c3) + sp.Rational(rng.randint(-9, 9), rng.randint(1, 9))
    assert parse(sp.sstr(p).replace("**", "^")) == p
