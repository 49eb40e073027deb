"""The Hunter-Saxton pipeline.

The Hunter-Saxton equation (u_t + u u_x)_x = u_x²/2 has the symmetry
family f(t)∂_x + f'(t)∂_u. Its quotient 2∂̂_I(H) − J²∂̂_J(H) + 4JH = 0
is solved by 16 g(2J/(2−IJ)) H = (2−IJ)⁴, and each choice of g (plus an
integration "constant" C(t)) yields a solution surface parametrized by
t and w = 2u_x/(2−t u_x):

    x = ¼ ∫₀ʷ (tv+2)² g(v) dv + C(t),
    u = ½ ∫₀ʷ (tv+2) v g(v) dv + C'(t).

This module builds those surfaces, inverts Cauchy data to g, fits C by
a decay condition, extracts singular curves, verifies residuals, and
implements the action of the remaining point symmetries on g.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import sympy as sp
from scipy.optimize import brentq

from .symcore import EvalError, SymcoreError, compile_numeric, jet, t, x

u_sym = jet(0, 0)
u_x = jet(0, 1)
u_xx = jet(0, 2)

w, v = sp.symbols("w v")

#: the Hunter-Saxton equation
F_HS = jet(1, 1) + u_sym * u_xx + u_x**2 / 2


class CauchyError(SymcoreError):
    pass


def u_x_of_w(t_val, w_val):
    """Invert w = 2u_x/(2 − t u_x)."""
    return 2 * w_val / (t_val * w_val + 2)


def w_of_u_x(t_val, ux_val):
    return 2 * ux_val / (2 - t_val * ux_val)


def _in_w(g) -> sp.Expr:
    """Coerce a one-variable expression to the parameter symbol w."""
    g = sp.sympify(g)
    free = g.free_symbols - {t, x}
    if len(free) > 1:
        raise SymcoreError(f"g must depend on one variable, got {sorted(free, key=str)}")
    if free:
        g = g.subs(free.pop(), w)
    return g


def constraint_G(g) -> sp.Expr:
    """The first-order constraint 16 g(2u_x/(2−t u_x)) u_xx − (2−t u_x)⁴."""
    g = _in_w(g)
    return 16 * g.subs(w, 2 * u_x / (2 - t * u_x)) * u_xx - (2 - t * u_x)**4


# ---------------------------------------------------------------------------
# Parametrized solution surfaces
# ---------------------------------------------------------------------------


def _closed(e: sp.Expr) -> sp.Expr | None:
    """doit() an integral expression; None if an Integral survives."""
    out = e.doit()
    if out.has(sp.Integral) or out.has(sp.nan, sp.zoo):
        return None
    return sp.cancel(sp.together(out))


@dataclass
class ParamSolution:
    """A Hunter-Saxton solution surface (t, w) ↦ (t, x, u)."""

    g: sp.Expr                       # expression in w
    C: sp.Expr                       # expression in t
    X: sp.Expr                       # x(t, w)
    U: sp.Expr                       # u(t, w)
    validity: tuple = ()             # expressions in (t, w) required nonzero
    degenerate: bool = False         # dX/dw ≡ 0

    # -- exact partials ------------------------------------------------------

    @cached_property
    def X_w(self) -> sp.Expr:
        return sp.cancel(sp.together(self.X.diff(w)))

    @cached_property
    def U_w(self) -> sp.Expr:
        return sp.cancel(sp.together(self.U.diff(w)))

    @cached_property
    def X_t(self) -> sp.Expr:
        return self.X.diff(t)

    @cached_property
    def U_t(self) -> sp.Expr:
        return self.U.diff(t)

    def slope_residual(self) -> sp.Expr:
        """U_w/X_w − 2w/(tw+2); zero wherever the surface is immersed."""
        return sp.cancel(sp.together(self.U_w / self.X_w - 2 * w / (t * w + 2)))

    # -- jets of the reconstructed u(t, x) ------------------------------------

    @cached_property
    def jets(self) -> dict[str, sp.Expr]:
        """u, u_t, u_x, u_xx, u_tx on the surface, as functions of (t, w).

        With w(t, x) implicitly defined by X(t, w) = x one has
        w_x = 1/X_w and w_t = −X_t/X_w; the slope identity makes
        u_x = 2w/(tw+2) exactly.
        """
        ux = 2 * w / (t * w + 2)
        wt = -self.X_t / self.X_w
        return {
            "u": self.U,
            "u_x": ux,
            "u_t": self.U_t + self.U_w * wt,
            "u_xx": sp.cancel(ux.diff(w)) / self.X_w,
            "u_tx": ux.diff(t) + ux.diff(w) * wt,
        }

    def hs_residual_expr(self) -> sp.Expr:
        j = self.jets
        return j["u_tx"] + j["u"] * j["u_xx"] + j["u_x"]**2 / 2

    # -- numerics --------------------------------------------------------------

    def x_of(self, tv: float, wv: float) -> float:
        return self._xf(tv, wv)

    def u_of(self, tv: float, wv: float) -> float:
        return self._uf(tv, wv)

    @cached_property
    def _xf(self):
        return compile_numeric(self.X, (t, w))

    @cached_property
    def _uf(self):
        return compile_numeric(self.U, (t, w))

    @cached_property
    def _validity_fns(self):
        return [compile_numeric(cond, (t, w)) for cond in self.validity]

    def excluded(self, tv: float, wv: float, tol: float = 1e-9) -> bool:
        """True where a validity condition is within ``tol`` of 0 or has
        no real value."""
        for cond in self._validity_fns:
            try:
                if abs(cond(tv, wv)) < tol:
                    return True
            except EvalError:
                return True
        return False


def general_solution(g, C, validity: tuple = ()) -> ParamSolution:
    """The parametrized solution surface for a given g(w) and C(t).

    Antiderivatives use the base point 0 (∫₀ʷ); integrals are evaluated
    in closed form when possible, otherwise kept for quadrature.
    """
    g = _in_w(g)
    C = sp.sympify(C)
    gv = g.subs(w, v)
    X_int = sp.Integral((t * v + 2)**2 * gv, (v, 0, w)) / 4
    U_int = sp.Integral((t * v + 2) * v * gv, (v, 0, w)) / 2
    X = (_closed(X_int) if g.free_symbols <= {w} else None)
    U = (_closed(U_int) if g.free_symbols <= {w} else None)
    X = (X if X is not None else X_int) + C
    U = (U if U is not None else U_int) + C.diff(t)
    degenerate = sp.cancel(g) == 0
    conds = tuple(sp.sympify(c) for c in validity)
    return ParamSolution(g, C, X, U, conds, degenerate)


def closed_form_solution(g, C, X_part, U_part, validity: tuple = ()) -> ParamSolution:
    """Surface from explicitly supplied antiderivatives.

    Needed when ∫₀ʷ diverges (e.g. g = −8/(w(w+2)³), whose x-integrand
    has a pole at w = 0): ``X_part``/``U_part`` are any antiderivatives
    of ¼(tw+2)²g and ½(tw+2)w g in w, as expressions in (t, w).
    """
    g, C = _in_w(g), sp.sympify(C)
    X_part, U_part = sp.sympify(X_part), sp.sympify(U_part)
    for part, target in ((X_part, (t * w + 2)**2 * g / 4),
                         (U_part, (t * w + 2) * w * g / 2)):
        if sp.simplify(part.diff(w) - target) != 0:
            raise SymcoreError("supplied antiderivative does not differentiate "
                               "to the required integrand")
    return ParamSolution(g, C, X_part + C, U_part + C.diff(t),
                         tuple(sp.sympify(c) for c in validity))


# ---------------------------------------------------------------------------
# Residual verification
# ---------------------------------------------------------------------------


@dataclass
class ResidualReport:
    max_residual: float
    evaluated: int
    excluded: list[tuple[float, float]]

    def __float__(self):
        return self.max_residual


def residual(sol: ParamSolution, grid, h: float = 1e-5,
             jacobian_floor: float = 1e-8, method: str = "auto") -> ResidualReport:
    """max |F| of the Hunter-Saxton equation over a (t, w) grid.

    Uses exact symbolic partials when the surface is integral-free,
    otherwise Richardson-extrapolated central differences with step h.
    Points with |X_w| below ``jacobian_floor`` or inside a validity
    exclusion are skipped and reported.
    """
    closed = not (sol.X.has(sp.Integral) or sol.U.has(sp.Integral))
    if method == "auto":
        method = "exact" if closed else "fd"
    if method == "exact" and not closed:
        raise SymcoreError("exact residual needs integral-free X and U")

    xw_f = compile_numeric(sol.X_w, (t, w))
    excluded = []
    worst = 0.0
    n_eval = 0

    if method == "exact":
        res_f = compile_numeric(sol.hs_residual_expr(), (t, w))
        for tv, wv in grid:
            if sol.excluded(tv, wv) or abs(xw_f(tv, wv)) < jacobian_floor:
                excluded.append((tv, wv))
                continue
            worst = max(worst, abs(res_f(tv, wv)))
            n_eval += 1
        return ResidualReport(worst, n_eval, excluded)

    X_f, U_f = sol._xf, sol._uf

    def d(fn, tv, wv, wrt):
        # 4th-order Richardson central difference
        def shift(k):
            if wrt == "t":
                return fn(tv + k * h, wv)
            return fn(tv, wv + k * h)
        return (8 * (shift(1) - shift(-1)) - (shift(2) - shift(-2))) / (12 * h)

    for tv, wv in grid:
        if sol.excluded(tv, wv):
            excluded.append((tv, wv))
            continue
        Xw = d(X_f, tv, wv, "w")
        if abs(Xw) < jacobian_floor:
            excluded.append((tv, wv))
            continue
        Xt = d(X_f, tv, wv, "t")
        Ut = d(U_f, tv, wv, "t")
        ux = u_x_of_w(tv, wv)
        wt = -Xt / Xw
        uval = U_f(tv, wv)
        ut = Ut + d(U_f, tv, wv, "w") * wt
        # u_x(t, w) = 2w/(tw+2) exactly; differentiate it analytically
        ux_w = 4 / (tv * wv + 2)**2
        ux_t = -2 * wv**2 / (tv * wv + 2)**2
        uxx = ux_w / Xw
        utx = ux_t + ux_w * wt
        worst = max(worst, abs(utx + uval * uxx + ux**2 / 2))
        n_eval += 1
    return ResidualReport(worst, n_eval, excluded)


# ---------------------------------------------------------------------------
# Cauchy data
# ---------------------------------------------------------------------------


def cauchy_g(t0, u0) -> sp.Expr | list[sp.Expr]:
    """Solve 16 g(2u₀'/(2−t₀u₀')) u₀'' = (2−t₀u₀')⁴ for g.

    ``u0`` is an expression in x. The slope map x ↦ 2u₀'/(2−t₀u₀') is
    inverted symbolically; each invertible branch yields a g(w). A
    single branch is returned bare, several as a list.
    """
    t0 = sp.sympify(t0)
    u0 = sp.sympify(u0)
    u0p = u0.diff(x)
    u0pp = u0.diff(x, 2)
    if sp.simplify(u0pp) == 0:
        raise CauchyError("u0'' vanishes identically; the constraint "
                          "16 g(w) u_xx = (2-t u_x)^4 cannot hold")
    slope = 2 * u0p / (2 - t0 * u0p)
    g_of_x = (2 - t0 * u0p)**4 / (16 * u0pp)
    branches = sp.solve(sp.Eq(slope, w), x)
    if not branches:
        raise CauchyError("could not invert the slope map symbolically; "
                          "supply g numerically instead")
    out = []
    for sol_x in branches:
        gw = sp.simplify(sp.cancel(sp.together(g_of_x.subs(x, sol_x))))
        if gw not in out:
            out.append(gw)
    return out[0] if len(out) == 1 else out


def cauchy_g_numeric(t0: float, u0_fn, u0p_fn, u0pp_fn, bracket=(-50.0, 50.0)):
    """Numeric fallback: g(w) as a closure via monotone root-finding."""
    def g(wv: float) -> float:
        def slope_gap(xv):
            p = u0p_fn(xv)
            return 2 * p / (2 - t0 * p) - wv
        a, b = bracket
        xa, xb = slope_gap(a), slope_gap(b)
        if xa * xb > 0:
            raise CauchyError(f"slope map does not attain w = {wv} on {bracket}")
        xv = brentq(slope_gap, a, b, xtol=1e-14)
        p = u0p_fn(xv)
        return (2 - t0 * p)**4 / (16 * u0pp_fn(xv))
    return g


def fit_C(g, t0, u0, rule="decay", w_end=0, side="-",
          X_part=None, U_part=None) -> sp.Expr:
    """Determine C(t) for a Cauchy problem.

    rule="decay" imposes u → 0 along the surface end w → ``w_end``
    (a decay-at-infinity boundary condition in x), which fixes C'(t); the
    remaining constant comes from matching u(t0, ·) = u0. An explicit
    expression passed as ``rule`` is returned unchanged.

    ``X_part``/``U_part`` override the ∫₀ʷ antiderivatives when those
    diverge (see :func:`closed_form_solution`).
    """
    if rule != "decay":
        return sp.sympify(rule)
    g = _in_w(g)
    t0 = sp.sympify(t0)
    u0 = sp.sympify(u0)
    gv = g.subs(w, v)
    if U_part is None:
        U_part = _closed(sp.Integral((t * v + 2) * v * gv, (v, 0, w)) / 2)
    if X_part is None:
        X_part = _closed(sp.Integral((t * v + 2)**2 * gv, (v, 0, w)) / 4)
    if U_part is None or X_part is None:
        raise CauchyError("antiderivatives are not elementary here; supply "
                          "X_part and U_part explicitly")
    U_part, X_part = sp.sympify(U_part), sp.sympify(X_part)

    end = sp.limit(U_part, w, sp.sympify(w_end), side)
    if end.has(sp.oo, -sp.oo, sp.zoo, sp.nan):
        raise CauchyError(f"u does not approach a finite value as w -> {w_end}{side}")
    Cp = -end

    # slice matching: u(t0, x) = u0(x) along the t = t0 slice determines C(t0)
    K = sp.Symbol("_C0")
    u_slice = (U_part + Cp).subs(t, t0)
    x_slice = X_part.subs(t, t0) + K
    gap = sp.simplify(u0.subs(x, x_slice) - u_slice)
    sols = sp.solve(gap, K)
    consts = [s for s in sols if w not in s.free_symbols]
    if not consts:
        raise CauchyError("decay rule is inconsistent with the initial slice")
    C0 = sp.simplify(consts[0])
    # the solved constant must make the slice match identically in w
    if sp.simplify(gap.subs(K, C0)) != 0:
        raise CauchyError("initial-slice matching does not hold identically")
    return sp.integrate(Cp, (t, t0, t)) + C0


# ---------------------------------------------------------------------------
# Singular curves
# ---------------------------------------------------------------------------


@dataclass
class SingularCurve:
    samples: list[tuple[float, float, float, float]]  # (t, w, x, u)

    def max_violation(self, implicit: sp.Expr) -> float:
        """max |Φ(t, x, u)| of an implicit curve equation over the samples."""
        if not self.samples:
            raise SymcoreError("singular curve is empty")
        f = compile_numeric(implicit, (t, x, u_sym))
        return max(abs(f(tv, xv, uv)) for tv, _, xv, uv in self.samples)


def singular_curve(sol: ParamSolution, times, w_window=(-40.0, -1e-3),
                   n: int = 2000, zero_tol: float = 1e-9) -> SingularCurve:
    """Points where ∂X/∂w = 0, found along t-slices.

    Odd-order zeros come from sign changes of X_w; even-order zeros
    (X_w touching 0, e.g. a squared factor) from sign changes of X_ww
    at which |X_w| falls below ``zero_tol``.
    """
    xw_f = compile_numeric(sol.X_w, (t, w))
    xww_f = compile_numeric(sp.cancel(sp.together(sol.X_w.diff(w))), (t, w))
    samples = []
    lo, hi = w_window
    for tv in times:
        ws = np.linspace(lo, hi, n)
        vals, dvals = [], []
        for wv in ws:
            pair = math.nan, math.nan
            if not sol.excluded(tv, wv):
                try:
                    pair = xw_f(tv, wv), xww_f(tv, wv)
                except EvalError:
                    pass
            vals.append(pair[0])
            dvals.append(pair[1])
        roots = []
        # a sign change may come from a pole rather than a root, in which
        # case the bracketed solve blows up and the bracket is skipped
        for a, b, fa, fb in zip(ws, ws[1:], vals, vals[1:]):
            if math.isnan(fa) or math.isnan(fb) or fa * fb > 0:
                continue
            try:
                roots.append(brentq(lambda z: xw_f(tv, z), a, b, xtol=1e-14))
            except EvalError:
                continue
        for a, b, da, db in zip(ws, ws[1:], dvals, dvals[1:]):
            if math.isnan(da) or math.isnan(db) or da * db > 0:
                continue
            try:
                crit = brentq(lambda z: xww_f(tv, z), a, b, xtol=1e-14)
                near_zero = abs(xw_f(tv, crit)) < zero_tol
            except EvalError:
                continue
            if near_zero and not any(abs(crit - r) < 1e-8 for r in roots):
                roots.append(crit)
        for wv in sorted(roots):
            samples.append((float(tv), float(wv), sol.x_of(tv, wv), sol.u_of(tv, wv)))
    return SingularCurve(samples)


# ---------------------------------------------------------------------------
# Symmetry action on g
# ---------------------------------------------------------------------------

#: the four symmetries of Hunter-Saxton that are not in the f(t)-family
GENERATORS = ("time-translation", "anisotropic-scaling", "scaling", "projective")


def transform_g(generator: str, s, g) -> sp.Expr:
    """Action of the remaining point symmetries on the class label g.

    time-translation      ∂_t                    g ↦ 16 g(2w/(2−sw))/(2−sw)⁴
    anisotropic-scaling   t∂_t − x∂_x − 2u∂_u    g ↦ g(e⁻ˢw)
    scaling               x∂_x + u∂_u            g ↦ e⁻ˢ g(w)
    projective            t²∂_t + 2tx∂_x + 2x∂_u g ↦ g(w + 2s)
    """
    g = _in_w(g)
    s = sp.sympify(s)
    if generator == "time-translation":
        return 16 * g.subs(w, 2 * w / (2 - s * w)) / (2 - s * w)**4
    if generator == "anisotropic-scaling":
        return g.subs(w, sp.exp(-s) * w)
    if generator == "scaling":
        return sp.exp(-s) * g
    if generator == "projective":
        return g.subs(w, w + 2 * s)
    raise SymcoreError(f"unknown generator {generator!r}; expected one of {GENERATORS}")


def flow_jet(generator: str, s, point: dict) -> dict:
    """Push a 2-jet (t, x, u, u_x, u_xx) along the *inverse* flow.

    The inverse flow matches the transform_g table: the flowed surface
    of a solution labelled g satisfies constraint_G(transform_g(g)).
    """
    s = sp.sympify(s)
    tv, xv, uv = point["t"], point["x"], point["u"]
    ux, uxx = point["u_x"], point["u_xx"]
    if generator == "time-translation":
        return {"t": tv - s, "x": xv, "u": uv, "u_x": ux, "u_xx": uxx}
    if generator == "anisotropic-scaling":
        e = sp.exp(s)
        return {"t": tv / e, "x": e * xv, "u": e**2 * uv,
                "u_x": e * ux, "u_xx": uxx}
    if generator == "scaling":
        e = sp.exp(-s)
        return {"t": tv, "x": e * xv, "u": e * uv, "u_x": ux, "u_xx": uxx / e}
    if generator == "projective":
        d = 1 + s * tv
        return {"t": tv / d, "x": xv / d**2,
                "u": uv - 2 * s * xv / d,
                "u_x": (ux - 2 * s / d) * d**2,
                "u_xx": uxx * d**4}
    raise SymcoreError(f"unknown generator {generator!r}; expected one of {GENERATORS}")


def flowed_constraint_residual(sol: ParamSolution, generator: str, s: float,
                               grid) -> float:
    """max |constraint_G(transform_g(g))| over the flowed surface."""
    g2 = transform_g(generator, s, sol.g)
    G2 = constraint_G(g2)
    G2_f = compile_numeric(G2, (t, u_x, u_xx))
    uxx_f = compile_numeric(sol.jets["u_xx"], (t, w))
    worst = 0.0
    for tv, wv in grid:
        if sol.excluded(tv, wv):
            continue
        pt = {"t": tv, "x": sol.x_of(tv, wv), "u": sol.u_of(tv, wv),
              "u_x": u_x_of_w(tv, wv), "u_xx": uxx_f(tv, wv)}
        moved = flow_jet(generator, s, pt)
        worst = max(worst, abs(G2_f(moved["t"], moved["u_x"], moved["u_xx"])))
    return worst


# ---------------------------------------------------------------------------
# Relation to the Hunter-Saxton representation of the general solution
# ---------------------------------------------------------------------------


@dataclass
class ComparisonMaps:
    """ξ, α, β of the classical solution formula, parametrized by w.

    With ξ(w) = ∫₀ʷ g, α(w) = ∫₀ʷ g v dv, β(w) = ½∫₀ʷ g v² dv one has
    w = α'(ξ) and β'(ξ) = ½ α'(ξ)².
    """

    xi: sp.Expr
    alpha: sp.Expr
    beta: sp.Expr

    def beta_identity_residual(self) -> sp.Expr:
        """β'(ξ) − ½α'(ξ)² expressed in the parameter w (chain rule)."""
        dxi = self.xi.diff(w)
        return sp.cancel(self.beta.diff(w) / dxi
                         - (self.alpha.diff(w) / dxi)**2 / 2)


def hs_comparison(g) -> ComparisonMaps:
    g = _in_w(g)
    if sp.cancel(g) == 0:
        raise SymcoreError("g = 0 makes the change of variables degenerate")
    gv = g.subs(w, v)
    def anti(e):
        c = _closed(sp.Integral(e, (v, 0, w)))
        return c if c is not None else sp.Integral(e, (v, 0, w))
    return ComparisonMaps(anti(gv), anti(gv * v), anti(gv * v**2) / 2)


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------


def format_float(val: float) -> str:
    """17 significant digits, so written artifacts rerun byte-identically."""
    return format(float(val), ".17g")


def surface_csv(sol: ParamSolution, times, w_values, path: str,
                jacobian_floor: float = 1e-8) -> int:
    """Write surface samples as CSV (t, w, x, u, u_x, flag); returns row count.

    flag: 0 ok, 1 validity exclusion, 2 singular (|X_w| below floor),
    3 evaluation failure. Failed rows carry empty x/u fields, never NaNs.
    """
    xw_f = compile_numeric(sol.X_w, (t, w))
    rows = ["t,w,x,u,u_x,flag"]
    count = 0
    for tv in times:
        for wv in w_values:
            flag = 0
            xs = us = uxs = ""
            if sol.excluded(tv, wv):
                flag = 1
            elif tv * wv + 2 == 0:
                # the slope u_x = 2w/(tw+2) blows up on this locus
                flag = 2
            else:
                uxs = format_float(u_x_of_w(tv, wv))
                try:
                    if abs(xw_f(tv, wv)) < jacobian_floor:
                        flag = 2
                    xs, us = format_float(sol.x_of(tv, wv)), format_float(sol.u_of(tv, wv))
                except EvalError:
                    flag = 3
                    xs = us = ""
            rows.append(",".join([format_float(tv), format_float(wv), xs, us, uxs, str(flag)]))
            count += 1
    with open(path, "w") as fh:
        fh.write("\n".join(rows) + "\n")
    return count


def cauchy_report_json(t0, u0, g, C, residual_stats: dict | None,
                       singular_samples, path: str) -> None:
    doc = {
        "t0": str(t0),
        "u0": str(u0),
        "g": str(g),
        "C": str(C),
        "residual": residual_stats or {},
        "singular_curve": [
            dict(zip("twxu", map(format_float, sample)))
            for sample in singular_samples
        ],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
