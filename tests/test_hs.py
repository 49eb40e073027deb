"""The Hunter-Saxton pipeline: surfaces, Cauchy data, singular curves, flows."""

import json
import math

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from jetquot import hs
from jetquot.hs import (
    GENERATORS,
    CauchyError,
    cauchy_g,
    cauchy_g_numeric,
    closed_form_solution,
    constraint_G,
    fit_C,
    flow_jet,
    flowed_constraint_residual,
    general_solution,
    hs_comparison,
    residual,
    singular_curve,
    surface_csv,
    transform_g,
    u_x_of_w,
    w_of_u_x,
)
from jetquot.pde import solution_residual
from jetquot.symcore import is_zero, jet, t, x

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
    assert abs(u_x_of_w(0.7, w_of_u_x(0.7, 1.3)) - 1.3) < 1e-14


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
    assert sp.cancel(sol.slope_residual()) == 0


# ---------------------------------------------------------------------------
# Solution surfaces
# ---------------------------------------------------------------------------


def test_general_solution_exact_residual():
    sol = general_solution(sp.exp(w), sp.Integer(0))
    assert sp.cancel(sp.together(sol.hs_residual_expr())) == 0


def test_general_solution_polynomial_g():
    sol = general_solution(w * (1 + w) * (1 - w), sp.Integer(0))
    assert sp.cancel(sp.together(sol.hs_residual_expr())) == 0
    rep = residual(sol, grid([0.3, 0.9], [-0.5, 0.4]), method="exact")
    assert rep.max_residual < 1e-12


def test_reconstructed_jets_solve_hs_symbolically():
    sol = general_solution(sp.exp(w), t**2)
    j = sol.jets
    # the defining relations: u_x matches the slope, u_t from the chain rule
    assert sp.cancel(sp.together(j["u_tx"] + j["u"] * j["u_xx"]
                                 + j["u_x"] ** 2 / 2)) == 0


def test_closed_form_solution_checks_antiderivatives():
    sol = closed_form_solution(G_EXP, C_EXP, XP_EXP, UP_EXP)
    assert sp.cancel(sp.together(sol.hs_residual_expr())) == 0
    with pytest.raises(Exception):
        closed_form_solution(G_EXP, C_EXP, XP_EXP + w, UP_EXP)


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


def test_cauchy_g_numeric_agrees():
    gsym = sp.lambdify(w, 8 / (2 + w) ** 4, "math")
    # bracket below the slope-map pole at x = 1
    gnum = cauchy_g_numeric(1.0, lambda z: z**2, lambda z: 2 * z, lambda z: 2.0,
                            bracket=(-50.0, 0.9))
    for wv in (-0.5, 0.3, 1.7):
        assert abs(gnum(wv) - gsym(wv)) < 1e-10


def test_fit_C_exponential_decay():
    C = fit_C(G_EXP, 1, sp.exp(-x), w_end=0, side="-",
              X_part=XP_EXP, U_part=UP_EXP)
    # decay at the w -> 0 end pins C' = -t - 1; slice matching adds the
    # constant 3/2 - ln 2
    expected = -t**2 / 2 - t + sp.Rational(3, 2) - sp.log(2)
    assert sp.simplify(C - expected) == 0


def test_fit_C_explicit_rule_passthrough():
    assert fit_C(G_EXP, 1, sp.exp(-x), rule=-t) == -t


def test_fit_C_quadratic():
    C = fit_C(8 / (2 + w) ** 4, 1, x**2)
    sol = general_solution(8 / (2 + w) ** 4, C)
    # the fitted surface reproduces the initial profile u(1, x) = x^2
    for wv in (-0.8, -0.2, 0.6, 1.5):
        xv, uv = sol.x_of(1.0, wv), sol.u_of(1.0, wv)
        assert abs(uv - xv**2) < 1e-10


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


# ---------------------------------------------------------------------------
# Symmetry action on g
# ---------------------------------------------------------------------------


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


def test_flow_jet_projective_inverse():
    pt = {"t": 0.5, "x": 1.0, "u": 2.0, "u_x": 0.3, "u_xx": 0.7}
    fwd = flow_jet("projective", 0.2, pt)
    # the flows form a one-parameter group: s then -s restores the point
    back = flow_jet("projective", -0.2, fwd)
    for key in pt:
        assert abs(float(back[key]) - pt[key]) < 1e-12


# ---------------------------------------------------------------------------
# Classical solution formula comparison
# ---------------------------------------------------------------------------


def test_comparison_maps_identity():
    maps = hs_comparison(sp.exp(w))
    assert sp.simplify(maps.beta_identity_residual()) == 0


def test_comparison_rejects_zero_g():
    with pytest.raises(Exception):
        hs_comparison(sp.Integer(0))


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
