"""The Hunter-Saxton pipeline: surfaces, Cauchy data, singular curves, flows."""

import inspect
import json
import math

import pytest
import sympy as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from jetquot import hs
from jetquot.hs import (
    GENERATORS,
    CauchyError,
    cauchy_g,
    closed_form_solution,
    constraint_G,
    fit_C,
    flow_jet,
    flowed_constraint_residual,
    general_solution,
    residual,
    singular_curve,
    surface_csv,
    transform_g,
    u_x_of_w,
)
from jetquot.pde import solution_residual
from jetquot.symcore import SymcoreError, differentiate, is_zero, jet, t, x

w = sp.Symbol("w")
u_x, u_xx = jet(0, 1), jet(0, 2)

# g = e^(-x) Cauchy problem: explicit antiderivatives (the base-point-0
# integrals diverge at w = 0)
G_EXP = -8 / (w * (w + 2) ** 3)
XP_EXP = (-2 * (t - 1) ** 2 / (w + 2) ** 2 + 2 * (t**2 - 1) / (w + 2)
          - sp.log(-w) + sp.log(w + 2))
UP_EXP = 4 * (1 - t) / (w + 2) ** 2 + 4 * t / (w + 2)
C_EXP = -t**2 / 2 - t + 2 - sp.log(2)


def grid(ts, ws):
    return [(tv, wv) for tv in ts for wv in ws]


# ---------------------------------------------------------------------------
# Slope identity and constraint
# ---------------------------------------------------------------------------


def test_slope_maps_are_inverse():
    ux = u_x_of_w(0.7, 1.3)
    assert abs(2 * ux / (2 - 0.7 * ux) - 1.3) < 1e-14


def test_constraint_form():
    G = constraint_G(sp.exp(w))
    assert sp.simplify(
        G - (16 * sp.exp(2 * u_x / (2 - t * u_x)) * u_xx - (2 - t * u_x) ** 4)
    ) == 0


@given(st.integers(min_value=-8, max_value=8), st.integers(min_value=1, max_value=5))
@settings(max_examples=25, deadline=None)
def test_slope_identity_property(n, d):
    g = sp.Rational(n, d) * w**2 + 1
    sol = general_solution(g, t**2)
    # U_w/X_w = 2w/(tw+2), read off the antiderivatives themselves
    assert is_zero(sol.U.diff(w) * (t * w + 2) - 2 * w * sol.X.diff(w)).mode == "deterministic"


# ---------------------------------------------------------------------------
# Solution surfaces
# ---------------------------------------------------------------------------


def test_general_solution_exact_residual():
    sol = general_solution(sp.exp(w), sp.Integer(0))
    assert is_zero(sol.hs_residual_expr()).mode == "deterministic"


def test_general_solution_polynomial_g():
    sol = general_solution(w * (1 + w) * (1 - w), sp.Integer(0))
    assert is_zero(sol.hs_residual_expr()).mode == "deterministic"
    rep = residual(sol, grid([0.3, 0.9], [-0.5, 0.4]), method="exact")
    assert rep.max_residual < 1e-12


def test_reconstructed_jets_solve_hs_symbolically():
    sol = general_solution(sp.exp(w), t**2)
    j = sol.jets
    # the defining relations: u_x matches the slope, u_t from the chain rule
    assert is_zero(j["u_tx"] + j["u"] * j["u_xx"] + j["u_x"] ** 2 / 2).mode == "deterministic"


def test_closed_form_solution_checks_antiderivatives():
    sol = closed_form_solution(G_EXP, C_EXP, XP_EXP, UP_EXP)
    assert is_zero(sol.hs_residual_expr()).mode == "deterministic"
    with pytest.raises(Exception):
        closed_form_solution(G_EXP, C_EXP, XP_EXP + w, UP_EXP)


@pytest.mark.parametrize("g", [sp.exp(w), 8 / (2 + w) ** 4], ids=["exp", "quartic"])
def test_general_solution_checks_its_antiderivatives(g, monkeypatch):
    # a moment off by w no longer differentiates to its integrand
    calls, closed = [], hs._closed
    monkeypatch.setattr(hs, "_closed",
                        lambda e: calls.append(e) or closed(e) + (w if len(calls) == 2 else 0))
    with pytest.raises(SymcoreError):
        general_solution(g, 0)


@pytest.mark.parametrize("g, same_form", [(sp.exp(w), True), (8 / (2 + w) ** 4, True),
                                           (1 / (1 + w**2), True), (sp.sqrt(w + 3), False),
                                           (None, True)],
                         ids=["exp", "quartic", "atan", "sqrt", "closed-form"])
def test_partials_are_the_forms_of_the_antiderivatives(g, same_form):
    # the partials taken from the integrand are the canonical forms of the
    # partials of X and U. For sqrt(w + 3) the first partials differ in form
    # only: from X, cancel keeps sqrt(w + 3) in the denominator; from the
    # integrand, the form is a polynomial in sqrt(w + 3)
    sol = (closed_form_solution(G_EXP, C_EXP, XP_EXP, UP_EXP) if g is None
           else general_solution(g, t**2))
    X_w = sp.cancel(sp.together(sol.X.diff(w)))
    U_w = sp.cancel(sp.together(sol.U.diff(w)))
    assert sol.X_ww == sp.cancel(sp.together(X_w.diff(w)))
    for ours, theirs in ((sol.X_w, X_w), (sol.U_w, U_w)):
        assert ours == theirs if same_form else is_zero(ours - theirs).mode == "deterministic"


@pytest.mark.parametrize("g", [sp.exp(w), sp.exp(t * w)],
                         ids=["closed", "integral"])
def test_with_C_is_the_surface_of_that_C(g):
    C = t**2 + 1
    assert general_solution(g, 0).with_C(C) == general_solution(g, C)


@pytest.mark.parametrize("g", [1 / (1 + w**2), sp.sqrt(w + 3)], ids=["atan", "sqrt"])
def test_elementary_g_gives_an_evaluable_closed_surface(g):
    sol = general_solution(g, t**2)
    assert sol.closed
    rep = residual(sol, grid([0.0, 0.5, 1.0], [-0.5, 0.0, 0.5]), method="exact")
    assert rep.evaluated == 9 and rep.max_residual < 1e-10


@pytest.mark.parametrize("g", [(w**2 + 1) / (w - 3)**3, 1 / ((w - 3)**2 * (w**2 + 1))],
                         ids=["cubic-pole", "pole-and-atan"])
def test_a_log_part_negative_at_zero_gives_a_real_surface(g):
    # ratint gives log(w - 3): c*log(a(w)) - c*log(a(0)) would hold log(-3)
    sol = general_solution(g, t**2)
    assert sol.closed and not sol.X.has(sp.I) and not sol.U.has(sp.I)
    assert sol.X.has(sp.log(1 - w / 3))
    rep = residual(sol, grid([0.0, 0.5, 1.0], [-0.5, 0.0, 0.5]), method="exact")
    assert rep.evaluated == 9 and rep.max_residual < 1e-8


def test_divergent_moment_keeps_an_integral_and_no_infinity():
    # ∫₀ʷ g diverges at w = 0, so X keeps its Integral; U needs only the
    # convergent moments and closes
    sol = general_solution(G_EXP, 0)
    assert not sol.closed and sol.X.has(sp.Integral) and not sol.U.has(sp.Integral)
    assert not sol.X.has(sp.oo, -sp.oo, sp.zoo, sp.nan)


@pytest.mark.parametrize("g", [sp.exp(w), 8 / (2 + w) ** 4, 1 / (1 + w**2)],
                         ids=["exp", "quartic", "atan"])
def test_surface_is_linear_in_the_comparison_moments(g):
    C = t**2 + 1
    sol, (M0, M1, M2) = general_solution(g, C), hs._moments(g)
    for gap in (sol.X - (M0 + t * M1 + t**2 * M2 / 4 + C),
                sol.U - (M1 + t * M2 / 2 + C.diff(t))):
        assert is_zero(gap).mode == "deterministic"


@pytest.mark.parametrize("g", [8 / (2 + w) ** 4, 1 / (w + 1), 1 / (w**2 + 1), G_EXP],
                         ids=["quartic", "log", "atan", "divergent"])
def test_rational_moments_match_the_general_integrator(g, monkeypatch):
    # no rational moment reaches Integral.doit, ratint is used only for a
    # moment with a log part, and each moment equals what doit gives
    v = sp.Symbol("v")
    moments = [sp.Integral(v**k * g.subs(w, v), (v, 0, w)) for k in range(3)]
    expected = [moment.doit() for moment in moments]
    logs = [m.function for m in moments if hs.ratint(m.function, v).has(sp.log, sp.atan)]
    used, ratint = [], hs.ratint

    def refuse(self, **hints):
        raise AssertionError(f"{self} reached Integral.doit")

    with monkeypatch.context() as patch:
        patch.setattr(hs, "ratint", lambda f, var: used.append(f) or ratint(f, var))
        patch.setattr(sp.Integral, "doit", refuse)
        closed = [hs._closed(moment) for moment in moments]
    assert used == logs
    for k, (moment, got, ref) in enumerate(zip(moments, closed, expected)):
        if g == G_EXP and k == 0:
            # ∫₀ʷ diverges at 0: the Integral is kept
            assert got == moment
            continue
        assert not got.has(sp.Integral)
        assert is_zero(got - ref).mode == "deterministic"


def _factorizations():
    v = sp.Symbol("v")
    linear = st.integers(-3, 3).map(lambda a: v - a)
    quadratic = st.sampled_from([v**2 + 1, v**2 + 2, v**2 + v + 1, v**2 - 2])
    return st.lists(st.tuples(st.one_of(linear, quadratic), st.integers(1, 3)),
                    min_size=1, max_size=3, unique_by=lambda fm: fm[0])


def _polynomials(degree: int):
    v = sp.Symbol("v")
    return st.lists(st.integers(-4, 4), min_size=1, max_size=degree + 1).map(
        lambda cs: sum(c * v**k for k, c in enumerate(cs)))


@given(_factorizations(), _polynomials(5), st.booleans())
@settings(max_examples=40, deadline=None)
def test_hermite_reduction_property(factors, numerator, derivative):
    # on QQ integrands with repeated factors: f = R' + A/S exactly, and the
    # log part A/S is zero exactly when the antiderivative is rational
    v = sp.Symbol("v")
    den = sp.Mul(*[f**m for f, m in factors])
    f = sp.diff(numerator / den, v) if derivative else numerator / den
    R, A, S = hs._hermite(f, v)
    assert A.is_zero == (not hs.ratint(f, v).has(sp.log, sp.atan))
    assert is_zero(R.diff(v) + A.as_expr() / S.as_expr() - f).mode == "deterministic"


@pytest.mark.parametrize("g", [1 / (w**3 + w + 1), 1 / (w**3 - w - 1),
                               1 / ((w**2 + 1) * (w**3 - 3))],
                         ids=["w3+w+1", "w3-w-1", "(w2+1)(w3-3)"])
def test_a_cubic_log_part_is_kept_for_quadrature(g, monkeypatch):
    # ratint's real form of such a log part is a RootSum or takes minutes:
    # the moment stays an Integral, and the surface is evaluated numerically
    def refuse(f, var):
        raise AssertionError(f"ratint called on {f}")

    monkeypatch.setattr(hs, "ratint", refuse)
    sol = general_solution(g, sp.Integer(0))
    assert sol.X.has(sp.Integral) and sol.U.has(sp.Integral)
    assert math.isfinite(sol.x_of(0.5, 0.3)) and math.isfinite(sol.u_of(0.5, 0.3))


_slopes = st.sampled_from([-2, sp.Rational(-1, 2), 1, 3])
_rationals = st.builds(sp.Rational, st.integers(-4, 4), st.integers(1, 3))


@given(st.lists(_rationals, min_size=1, max_size=4).filter(any), _slopes, _rationals)
@settings(max_examples=30, deadline=None, derandomize=True)
def test_exp_poly_moments_differentiate_to_their_integrand(coeffs, a, c):
    # a nonzero P of degree <= 3 over QQ: F' = P·exp(a·v + c) exactly, and F + v
    # is refuted
    v = sp.Symbol("v")
    f = sum(q * v**k for k, q in enumerate(coeffs)) * sp.exp(a * v + c)
    F = hs._exp_poly(f, v)
    assert is_zero(differentiate(F, v) - f).mode == "deterministic"
    assert is_zero(differentiate(F + v, v) - f).mode == "nonzero"


@pytest.mark.parametrize("f", ["exp(v**2)", "exp(v)/(v + 1)", "exp(v)*sqrt(v)", "exp(t*v)",
                               "exp(v)*exp(v**2)"])
def test_exp_poly_refuses_other_integrands(f):
    v = sp.Symbol("v")
    assert hs._exp_poly(sp.sympify(f, locals={"t": t, "v": v}), v) is None


@pytest.mark.parametrize("g", [sp.exp(w), (w**2 + 1) * sp.exp(-2 * w)], ids=["exp", "exp2"])
def test_exp_poly_moments_give_the_surface_of_doit(g, monkeypatch):
    # no exp-polynomial moment reaches Integral.doit, and the surface is the
    # one that doit gives
    def refuse(self, **hints):
        raise AssertionError(f"{self} reached Integral.doit")

    with monkeypatch.context() as patch:
        patch.setattr(sp.Integral, "doit", refuse)
        sol = general_solution(g, t**2)
    monkeypatch.setattr(hs, "_exp_poly", lambda f, var: None)
    ref = general_solution(g, t**2)
    assert (sol.X, sol.U) == (ref.X, ref.U)


def test_degenerate_g_is_flagged():
    sol = general_solution(sp.Integer(0), t)
    assert sol.degenerate


def test_finite_difference_residual():
    sol = general_solution(sp.exp(w), sp.Integer(0))
    rep = residual(sol, grid([0.2, 0.5], [-0.5, 0.3]), method="fd", h=1e-4)
    assert rep.max_residual < 1e-7


def test_quadrature_matches_closed_form():
    g = sp.exp(w)
    closed = general_solution(g, sp.Integer(0))
    gv = g.subs(w, sp.Symbol("v"))
    v = sp.Symbol("v")
    quad_sol = hs.ParamSolution(
        g, sp.Integer(0),
        sp.Integral((t * v + 2) ** 2 * gv, (v, 0, w)) / 4,
        sp.Integral((t * v + 2) * v * gv, (v, 0, w)) / 2,
    )
    for tv, wv in grid([0.0, 0.7, 1.4], [-1.0, 0.2, 0.8]):
        assert abs(quad_sol.x_of(tv, wv) - closed.x_of(tv, wv)) < 1e-10
        assert abs(quad_sol.u_of(tv, wv) - closed.u_of(tv, wv)) < 1e-10


def test_validity_exclusion():
    sol = general_solution(sp.exp(w), sp.Integer(0), validity=(t * w + 2,))
    assert sol.excluded(1.0, -2.0)
    assert not sol.excluded(1.0, 0.5)


def test_validity_without_a_value_excludes():
    # a pole or a non-real value of a condition excludes the point
    sol = general_solution(sp.exp(w), sp.Integer(0), validity=(1 / w, sp.sqrt(w + 1)))
    assert sol.excluded(1.0, 0.0)
    assert sol.excluded(1.0, -2.0)
    assert not sol.excluded(1.0, 0.5)


# ---------------------------------------------------------------------------
# Cauchy data
# ---------------------------------------------------------------------------


def test_cauchy_g_quadratic():
    g = cauchy_g(1, x**2)
    assert sp.simplify(g - 8 / (2 + w) ** 4) == 0


def test_cauchy_g_exponential():
    g = cauchy_g(1, sp.exp(-x))
    assert sp.simplify(g - G_EXP) == 0


def test_cauchy_g_t0_zero_quadratic():
    g = cauchy_g(0, x**2)
    assert sp.simplify(g - sp.Rational(1, 2)) == 0


def test_cauchy_g_rejects_linear_data():
    with pytest.raises(CauchyError):
        cauchy_g(1, 2 * x + 1)


def test_cauchy_g_rejects_data_linear_by_an_identity():
    # u0'' is zero only by sin^2 + cos^2 = 1, which stage 1 does not see
    with pytest.raises(CauchyError, match="vanishes identically"):
        cauchy_g(1, x**2 / 2 * (sp.sin(x)**2 + sp.cos(x)**2) - x**2 / 2)


def test_fit_C_exponential_decay():
    C = fit_C(closed_form_solution(G_EXP, 0, XP_EXP, UP_EXP), 1, sp.exp(-x),
              w_end=0, side="-")
    # decay at the w -> 0 end pins C' = -t - 1; slice matching adds the
    # constant 3/2 - ln 2
    expected = -t**2 / 2 - t + sp.Rational(3, 2) - sp.log(2)
    assert sp.simplify(C - expected) == 0


def test_fit_C_quadratic():
    C = fit_C(general_solution(8 / (2 + w) ** 4, 0), 1, x**2)
    sol = general_solution(8 / (2 + w) ** 4, C)
    # the fitted surface reproduces the initial profile u(1, x) = x^2
    for wv in (-0.8, -0.2, 0.6, 1.5):
        xv, uv = sol.x_of(1.0, wv), sol.u_of(1.0, wv)
        assert abs(uv - xv**2) < 1e-10


def test_polynomial_cauchy_data_never_call_solve(monkeypatch):
    # the slope map is inverted as a Möbius map and the slice constant
    # found by polynomial roots, in the order sp.solve lists them
    def refuse(*args, **kwargs):
        raise AssertionError("sp.solve called")

    monkeypatch.setattr(sp, "solve", refuse)
    assert cauchy_g(1, x**2) == 8 / (w**4 + 8 * w**3 + 24 * w**2 + 32 * w + 16)
    branches = cauchy_g(1, x**3)
    assert len(branches) == 2 and sp.simplify(branches[0] + branches[1]) == 0
    assert fit_C(general_solution(8 / (2 + w) ** 4, 0), 1, x**2) == 0


def test_cauchy_path_never_calls_simplify(monkeypatch, capsys):
    # every result of the README Cauchy and transform commands is rational
    # or an exponential, whose canonical forms need no sp.simplify
    from jetquot import cli

    def refuse(*args, **kwargs):
        raise AssertionError("sp.simplify called")

    monkeypatch.setattr(sp, "simplify", refuse)
    assert cauchy_g(1, x**2) == 8 / (w**4 + 8 * w**3 + 24 * w**2 + 32 * w + 16)
    assert (cauchy_g(sp.Rational(1, 2), x**2)
            == 128 / (w**4 + 16 * w**3 + 96 * w**2 + 256 * w + 256))
    assert fit_C(general_solution(8 / (2 + w) ** 4, 0), 1, x**2) == 0
    assert cli.main(["hs", "transform", "--generator", "projective", "--s", "1",
                     "--g", "exp(w)"]) == 0
    assert capsys.readouterr().out == "g_s(w) = exp(w + 2)\n"


@pytest.mark.parametrize("u0", [1 / (1 + x**2), x**4 / 4 + x**2 / 2, x**2 + 1 / x])
def test_rational_slope_equation_beyond_poly_solve_is_refused(monkeypatch, u0):
    # sp.solve would reach for the cubic or quartic formulas here
    def refuse(*args, **kwargs):
        raise AssertionError("sp.solve called")

    monkeypatch.setattr(sp, "solve", refuse)
    with pytest.raises(CauchyError, match="could not invert the slope map"):
        cauchy_g(1, u0)


def test_cli_cauchy_refuses_a_quartic_slope_equation(capsys):
    from jetquot import cli

    assert cli.main(["hs", "cauchy", "--t0", "1", "--u0", "1/(1+x^2)"]) == 1
    assert "cauchy inversion failed" in capsys.readouterr().err


def test_fit_C_needs_a_closed_surface():
    with pytest.raises(CauchyError):
        fit_C(general_solution(G_EXP, 0), 1, sp.exp(-x))


# ---------------------------------------------------------------------------
# Singular curves
# ---------------------------------------------------------------------------


def test_singular_curve_exponential():
    sol = closed_form_solution(G_EXP, C_EXP, XP_EXP, UP_EXP,
                               validity=(w, w + 2))
    curve = singular_curve(sol, [1.5, 2.0, 2.5], w_window=(-1.999, -1e-3))
    assert curve.samples
    u_sym = sp.Symbol("u")
    assert curve.max_violation(2 * u_sym - sp.exp(2 - x)) < 1e-10


def test_singular_curve_quadratic_even_order_zero():
    # X_w has a squared root at w = -2/t: needs the even-order detector
    sol = general_solution(8 / (2 + w) ** 4, -((t - 1) ** 2) / 3,
                           validity=(w + 2,))
    curve = singular_curve(sol, [1.5, 2.0, 2.5, 3.0], w_window=(-1.9, -0.1))
    assert len(curve.samples) >= 4
    u_sym = sp.Symbol("u")
    assert curve.max_violation(
        3 * x**2 * u_sym**2 + 4 * x**3 - u_sym**3 + 1) < 1e-10


def test_singular_curve_empty_raises():
    sol = general_solution(sp.exp(w), sp.Integer(0))
    curve = singular_curve(sol, [0.5], w_window=(0.1, 0.5))
    with pytest.raises(Exception):
        curve.max_violation(x)


def test_singular_curve_grid_is_numpy_linspace(monkeypatch):
    np = pytest.importorskip("numpy")
    params = inspect.signature(singular_curve).parameters
    lo, hi = params["w_window"].default
    n = params["n"].default
    assert n == 2000
    sol = general_solution(sp.exp(w), sp.Integer(0))
    seen = []
    monkeypatch.setattr(type(sol), "excluded", lambda self, tv, wv: seen.append(wv))
    singular_curve(sol, [1.0])
    assert [wv.hex() for wv in seen] == [wv.hex() for wv in np.linspace(lo, hi, n).tolist()]


@pytest.mark.parametrize("tv", [2.0, 3.0])
def test_singular_curve_roots_of_exponential_are_within_four_ulps(tv):
    # X_w = (tw+2)^2 e^w/4 touches 0 at w = -2/t
    sol = general_solution(sp.exp(w), sp.Integer(0))
    (sample,) = singular_curve(sol, [tv]).samples
    assert abs(sample[1] - float(-2 / tv)) <= 4 * math.ulp(2 / tv)


def _singular_cli(capsys, tmp_path, monkeypatch, *argv):
    from jetquot import cli

    monkeypatch.setenv("JETQUOT_OUTPUT_DIR", str(tmp_path))
    code = cli.main(["hs", "singular", *argv])
    err = capsys.readouterr().err
    assert code == 0 and err == ""
    return (tmp_path / "hs_singular.csv").read_text().strip().split("\n")[1:]


def test_singular_scan_reads_signs_not_their_underflowing_product(capsys, tmp_path,
                                                                   monkeypatch):
    # X_w > 0 is below 1e-160 here: the product of two neighbours is 0
    rows = _singular_cli(capsys, tmp_path, monkeypatch, "--g", "exp(w)", "--times", "1",
                         "--w-window=-400:-350")
    assert rows == []


def test_singular_scan_takes_a_zero_on_a_grid_node_once(capsys, tmp_path, monkeypatch):
    # w = -1 is a node of the 2001-point grid on [-2, 0], and X_w is 0 there at t = 2
    rows = _singular_cli(capsys, tmp_path, monkeypatch, "--g", "exp(w)", "--times", "2",
                         "--w-window=-2:0", "--samples", "2001")
    assert [row.split(",")[:2] for row in rows] == [["2", "-1"]]


def test_singular_scan_takes_no_pole_for_a_root(capsys, tmp_path, monkeypatch):
    # X_w = (4w+2)^2/(4(w+1)) changes sign at its pole w = -1 and touches 0 at -1/2
    rows = _singular_cli(capsys, tmp_path, monkeypatch, "--g", "1/(w+1)", "--times", "4",
                         "--w-window=-3:-0.1")
    assert len(rows) == 1
    assert abs(float(rows[0].split(",")[1]) + 0.5) < 1e-12


def test_singular_scan_skips_a_zero_where_the_surface_has_no_real_value(capsys, tmp_path,
                                                                        monkeypatch):
    # at t = 1, X_w touches 0 at w = -2, where X holds log(w + 1)
    rows = _singular_cli(capsys, tmp_path, monkeypatch, "--g", "1/(w+1)", "--times", "1,4",
                         "--w-window=-3:-0.1")
    assert [row.split(",")[0] for row in rows] == ["4"]


# ---------------------------------------------------------------------------
# Bracketed root finding: bisection to adjacent floats
# ---------------------------------------------------------------------------

_FAMILIES = (
    lambda c, z: c[0] + c[1] * z + c[2] * z**2 + c[3] * z**3,
    lambda c, z: math.tanh(c[0] * z + c[1]) + c[2] / 10,
    lambda c, z: math.sin(3 * c[0] * z) + c[1] / 3,
    lambda c, z: math.exp(c[0] * z) - abs(c[1]) - 0.01,
    lambda c, z: 1e-150 * (z - c[0]) ** 3,  # products of two values underflow
)
_real = st.floats(-5, 5)


@given(st.sampled_from(_FAMILIES), st.lists(_real, min_size=4, max_size=4),
       st.floats(-5, 0), st.floats(0, 5), st.floats(0, 1))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_bisection_ends_at_a_zero_or_a_sign_change_between_adjacent_floats(family, c, a, b, s):
    # f vanishes at r in [a, b], and changes sign there unless r is an extremum
    r = a + s * (b - a)

    def f(z):
        return family(c, z) - family(c, r)

    fa, fb = f(a), f(b)
    assume(fa != 0 and fb != 0 and (fa < 0) != (fb < 0))
    m = hs._bisect(f, a, b)
    fm = f(m)
    assert a <= m <= b
    assert fm == 0 or any(fn != 0 and (fn < 0) != (fm < 0)
                          for fn in (f(math.nextafter(m, -math.inf)),
                                     f(math.nextafter(m, math.inf))))


def test_a_sign_change_at_a_pole_is_no_zero():
    # (z + 1/2)/(z² - 2) changes sign at its zero -1/2 and at its pole √2,
    # neither of them a node of the grid; no float z has z² = 2
    def f(z):
        return (z + 0.5) / (z * z - 2)

    ws = [k / 10 - 0.97 for k in range(30)]
    (zero,) = hs._zeros(f, ws, [f(z) for z in ws])
    assert abs(zero + 0.5) <= math.ulp(0.5)


# ---------------------------------------------------------------------------
# Symmetry action on g
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("g, printed", [
    ("exp(w)", "256*exp(-4*w/(w - 4))/(w - 4)**4"),
    ("sqrt(w)", "512*sqrt(-w/(w - 4))/(w - 4)**4"),
])
def test_time_translation_prints_reduced_forms(capsys, g, printed):
    from jetquot import cli

    assert cli.main(["hs", "transform", "--generator", "time-translation", "--s", "1/2",
                     "--g", g]) == 0
    assert capsys.readouterr().out == f"g_s(w) = {printed}\n"


def test_time_translation_cancels_the_rational_factors_of_g(capsys):
    from jetquot import cli

    assert cli.main(["hs", "transform", "--generator", "time-translation", "--s", "1",
                     "--g", "exp(2*w)/(1+w)"]) == 0
    assert capsys.readouterr().out == "g_s(w) = -16*exp(-4*w/(w - 2))/((w - 2)**3*(w + 2))\n"


@pytest.mark.parametrize("generator, s, g, printed", [
    ("time-translation", "1", "1/(1+w^2)", "16/(5*w**4 - 24*w**3 + 40*w**2 - 32*w + 16)"),
    ("scaling", "2", "1/(w^3+2)", "1/(w**3*exp(2) + 2*exp(2))"),
], ids=["over QQ", "exp(-2)"])
def test_a_rational_label_prints_as_sympy_cancels_it(capsys, generator, s, g, printed):
    # symcore's normal form over QQ, SymPy's where a number such as exp(-2)
    # is a power of exp(2): _cancel would keep exp(-2)/(w**3 + 2)
    from jetquot import cli

    assert cli.main(["hs", "transform", "--generator", generator, "--s", s, "--g", g]) == 0
    assert capsys.readouterr().out == f"g_s(w) = {printed}\n"


def test_transform_g_table():
    s = sp.Symbol("s")
    assert sp.simplify(transform_g("scaling", s, sp.exp(w))
                       - sp.exp(-s) * sp.exp(w)) == 0
    assert transform_g("projective", s, sp.exp(w)) == sp.exp(w + 2 * s)
    assert transform_g("anisotropic-scaling", s, w**2) == sp.exp(-2 * s) * w**2


def test_transform_unknown_generator():
    with pytest.raises(Exception):
        transform_g("rotation", 1, sp.exp(w))


@pytest.mark.parametrize("gen", GENERATORS)
def test_flowed_surface_satisfies_transformed_constraint(gen):
    sol = general_solution(sp.exp(w), sp.Integer(0))
    worst = flowed_constraint_residual(sol, gen, 0.3,
                                       grid([0.2, 0.6], [-0.5, 0.4]))
    assert worst < 1e-10


def test_flowed_constraint_residual_skips_failed_points():
    # sqrt(w) has no real value on the quadrature nodes of the w < 0 point
    sol = general_solution(sp.sqrt(w), 0)
    pts = [(0.5, -0.5), (0.5, 0.5)]
    assert residual(sol, pts).excluded == [(0.5, -0.5)]
    assert flowed_constraint_residual(sol, "scaling", 0.3, pts) < 1e-10
    assert flowed_constraint_residual(sol, "scaling", 0.3, pts[:1]) == 0.0


def test_flow_jet_projective_inverse():
    pt = {"t": 0.5, "x": 1.0, "u": 2.0, "u_x": 0.3, "u_xx": 0.7}
    fwd = flow_jet("projective", 0.2, pt)
    # the flows form a one-parameter group: s then -s restores the point
    back = flow_jet("projective", -0.2, fwd)
    for key in pt:
        assert abs(float(back[key]) - pt[key]) < 1e-12


# ---------------------------------------------------------------------------
# Export formats
# ---------------------------------------------------------------------------


def test_surface_csv_flags_and_precision(tmp_path):
    sol = general_solution(sp.exp(w), sp.Integer(0), validity=(w - 0.85,))
    path = tmp_path / "surface.csv"
    n = surface_csv(sol, [0.0, 1.0], [-2.0, 0.5, 0.85], str(path))
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "t,w,x,u,u_x,flag"
    assert n == len(lines) - 1 == 6
    # t=1, w=-2 sits on the slope pole tw+2=0 -> flagged, no NaNs anywhere
    assert "nan" not in path.read_text().lower()
    flagged = [ln for ln in lines[1:] if ln.split(",")[-1] != "0"]
    assert flagged
    # full precision: 17 significant digits on surviving x values
    ok_row = next(ln for ln in lines[1:] if ln.split(",")[-1] == "0")
    assert len(ok_row.split(",")[2].replace("-", "").replace(".", "")) >= 16


def test_cauchy_report_json(tmp_path):
    path = tmp_path / "report.json"
    hs.cauchy_report_json(1, x**2, 8 / (2 + w) ** 4, -t,
                          {"max": "1e-12"}, [(1.5, -1.0, 0.5, 0.25)], str(path))
    doc = json.loads(path.read_text())
    assert doc["t0"] == "1"
    assert doc["singular_curve"][0]["x"] == "0.5"


# ---------------------------------------------------------------------------
# Full solutions of the PDE in closed form
# ---------------------------------------------------------------------------


def test_explicit_power_solution():
    # eliminating w from the x^2 Cauchy surface yields this closed form
    F = jet(1, 1) + jet(0, 0) * u_xx + u_x**2 / 2
    u_expr = (2 * x * (t - 1) + 1
              - ((t - 1) ** 3 + 3 * x * (t - 1) + 1) ** sp.Rational(2, 3)) \
        / (t - 1) ** 2
    assert is_zero(solution_residual(F, u_expr)).is_zero
