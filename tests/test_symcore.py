"""Kernel-level behavior: jets, parsing, formal functions, zero tests."""

import random

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from jetquot.symcore import (
    EvalError,
    ExprSyntaxError,
    IndeterminateZeroTest,
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


def test_parse_numbers_with_exponents():
    # decimals parse exactly, with or without a decimal exponent
    assert parse("0.5") == sp.Rational(1, 2)
    assert parse("1e-05") == sp.Rational(1, 100000)
    assert parse("2.5E3*x") == 2500 * x
    with pytest.raises(ExprSyntaxError):
        parse("3e")


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


def test_bind_formal_binds_a_python_number():
    w = sp.Symbol("w")
    g = formal("g")
    gp = formal("g", 1, (1,))
    assert bind_formal(g(t) + t * gp(x), "g", (w,), 0) == 0


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


def test_normalize_shares_integrals_that_differ_only_in_their_bound_variable():
    # normalize and stage 1 agree; a surviving integral keeps a written variable
    assert parse("int(g(v), v, 0, x) - int(g(s), s, 0, x)") == 0
    assert is_zero(parse("int(g(v), v, 0, x) - int(g(s), s, 0, x) + x")).residual == x
    assert str(parse("int(g(v), v, 0, x) + 2*int(g(s), s, 0, x)")) == "3*Integral(g(s), (s, 0, x))"
    # the integrand's own variable is not renamed with the bound one
    assert parse("int(exp(v), s, 0, x) - int(exp(v), v, 0, x)") != 0


@pytest.mark.parametrize("text", ["int(x*g(v), v, 0, t) - x*int(g(v), v, 0, t)",
                                  "int(3*g(v), v, 0, x) - 3*int(g(s), s, 0, x)"])
def test_normalize_moves_factors_free_of_the_bound_variable_as_stage_1_does(text):
    # one kernel for ∫c·g and ∫g, whether the claim is normalized or decided
    assert parse(text) == 0
    assert is_zero(parse(text)).mode == "deterministic"
    assert is_zero(parse(text + " + x")).residual == x


def test_nested_integral_dummies_are_renamed_in_the_inner_bounds():
    # ∫₀ᵇ∫₀ᵛ s·v ds dv = b⁴/8 and ∫₀ᵇ∫₀ᵛ s·w ds dw = b²v²/4 differ: the
    # outer variable v of the first also bounds its inner limit
    different = parse("int(int(s*v, s, 0, v), v, 0, b) - int(int(s*w, s, 0, v), w, 0, b)")
    assert is_zero(different).mode == "nonzero"
    # equal integrals with both bound variables renamed still share a kernel
    renamed = parse("int(int(s*v, s, 0, v), v, 0, b) - int(int(r*w, r, 0, w), w, 0, b)")
    assert is_zero(renamed).mode == "deterministic"


def test_renamed_integration_variables_capture_no_free_symbol():
    # a free symbol named _iv0 is not captured by the renamed bound variables
    assert is_zero(parse("int(_iv0*v, v, 0, u) - u^3/3")).mode == "nonzero"
    assert is_zero(parse("int(_iv0*v, v, 0, u) - _iv0*u^2/2"))
    assert is_zero(parse("int(v, v, 0, _iv0) - _iv0^2/2"))


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


def test_is_zero_gives_no_verdict_on_undefined_functions():
    # formal functions are the only unknown functions with a stand-in
    f = sp.Function("f")
    with pytest.raises(IndeterminateZeroTest):
        is_zero(f(x) - x)
    with pytest.raises(IndeterminateZeroTest):
        is_zero(f(x) + formal_integral(t, t, x))
    v = is_zero((f(x) + 1) ** 2 - f(x) ** 2 - 2 * f(x) - 1)
    assert v.is_zero and v.mode == "deterministic"


def test_symcore_vocabulary_is_closed():
    import pathlib

    import jetquot

    package = pathlib.Path(jetquot.__file__).parent
    for path in package.glob("*.py"):
        text = path.read_text()
        for name in ("sp.Function(", "sp.Derivative", "sp.Subs"):
            assert name not in text, (path.name, name)
    # command-line text becomes an expression only through parse
    assert "sympify" not in (package / "cli.py").read_text()


def test_zero_decisions_go_through_the_zero_test():
    import pathlib
    import re

    import jetquot

    sources = {p.name: p.read_text() for p in pathlib.Path(jetquot.__file__).parent.glob("*.py")}
    # the certificate rule lives in ZeroVerdict.residual alone
    for name in ("zero_certificate", "exact_residual"):
        assert not [f for f, text in sources.items() if name in text], name
    # no simplify or cancel result is compared with 0
    compared = re.compile(r"sp\.(simplify|cancel)\((?:[^()]|\([^()]*\))*\)\s*[!=]=\s*0")
    assert [f for f, text in sources.items() if compared.search(text)] == []


def test_symcore_and_pde_have_one_rational_normal_form():
    import ast
    import pathlib
    import re

    import jetquot

    package = pathlib.Path(jetquot.__file__).parent
    # every cancel is symcore._cancel, computed in the stage-1 ring; only an
    # expression holding I is left to SymPy, which cancels over ZZ_I
    texts = {p.name: p.read_text() for p in sorted(package.glob("*.py"))}
    assert [name for name, text in texts.items() if "sp.together(" in text] == []
    assert {name: text.count("sp.cancel(") for name, text in texts.items()
            if "sp.cancel(" in text} == {"symcore.py": 1}
    assert re.search(r"if sp\.I in leaves:\n\s+return sp\.cancel\(w\)", texts["symcore.py"])
    # hs and cli take the same form, calling _cancel directly
    calls = [(name, node.func.attr)
             for name in ("hs.py", "cli.py")
             for node in ast.walk(ast.parse(texts[name]))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and getattr(node.func.value, "id", None) == "sp"
             and node.func.attr in ("cancel", "together")]
    assert calls == []
    assert "_form(" not in texts["hs.py"] + texts["cli.py"]


def test_stage1_has_one_ring_type():
    import ast
    import pathlib

    import jetquot

    package = pathlib.Path(jetquot.__file__).parent
    # an expression claim is walked into a fresh _DiffRing: only _cancel
    # builds a bare _RingWalk, and _DiffRing is its one subclass
    tree = ast.parse((package / "symcore.py").read_text())
    owners = {top.name for top in tree.body if isinstance(top, (ast.FunctionDef, ast.ClassDef))
              for node in ast.walk(top)
              if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_RingWalk")
              or (isinstance(node, ast.ClassDef)
                  and any(getattr(b, "id", None) == "_RingWalk" for b in node.bases))}
    assert owners == {"_cancel", "_DiffRing"}
    others = [p.name for p in package.glob("*.py") if p.name != "symcore.py"]
    assert [name for name in others if "_RingWalk" in (package / name).read_text()] == []


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


def test_eval_numeric_refuses_a_function_math_cannot_name():
    with pytest.raises(EvalError, match="polar_lift"):
        compile_numeric(sp.polar_lift(t) + 1, (t,))


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
