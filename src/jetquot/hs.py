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
from dataclasses import dataclass, replace
from functools import cached_property

import sympy as sp
from sympy.integrals.rationaltools import ratint

from .symcore import (EvalError, SymcoreError, ZeroVerdict, _cancel, compile_numeric,
                      differentiate, exact_zero, is_zero, jet, t, x)

u_sym = jet(0, 0)
u_x = jet(0, 1)
u_xx = jet(0, 2)

w, v = sp.symbols("w v")


class CauchyError(SymcoreError):
    pass


def u_x_of_w(t_val, w_val):
    """Invert w = 2u_x/(2 − t u_x)."""
    return 2 * w_val / (t_val * w_val + 2)


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


_UNCLOSED = (sp.Integral, sp.RootSum, sp.nan, sp.zoo, sp.oo, -sp.oo)

#: |X_w| below this is a fold: ``residual`` skips the point, ``surface_csv`` flags it 2
_JACOBIAN_FLOOR = 1e-8
#: a validity condition, or a factor of g at a critical point of it, this close to 0 is 0
_NEAR_ZERO = 1e-9


def _hermite(f: sp.Expr, var: sp.Symbol) -> tuple[sp.Expr, sp.Poly, sp.Poly] | None:
    """(R, A, S) with ∫f = R + ∫A/S for f ∈ QQ(var), R a rational function
    and S squarefree, or None when f is not over QQ: Hermite reduction with
    gcds alone (Bronstein, Symbolic Integration I, §2.2). A is zero when
    the antiderivative is rational."""
    try:
        A, D = (sp.Poly(p, var, domain=sp.QQ) for p in sp.fraction(_cancel(f)))
    except sp.polys.polyerrors.CoercionFailed:
        return None
    P, A = A.div(D)
    Dm = den = D.gcd(D.diff())
    Ds, num = D.exquo(Dm), P.integrate() * den
    while Dm.degree() > 0:
        # one power off Dm: B·a + C·Dms = A with deg B < deg Dms
        Dm2 = Dm.gcd(Dm.diff())
        Dms = Dm.exquo(Dm2)
        a = -(Ds * Dm.diff()).exquo(Dm)
        B = (a.gcdex(Dms)[0] * A).rem(Dms)  # gcd(a, Dms) = 1
        A = (A - B * a).exquo(Dms) - B.diff() * Ds.exquo(Dms)
        num, Dm = num + B * den.exquo(Dm), Dm2
    num, den = num.cancel(den, include=True)
    return num.as_expr() / den.as_expr(), A, Ds


def _closed(e: sp.Integral) -> sp.Expr:
    """The moment ``e`` = ∫₀ʷ f(v) dv in closed form, or ``e`` itself if an
    infinity, a RootSum or an Integral survives.

    A rational f takes its antiderivative F from Hermite reduction in
    QQ[v] (:func:`_hermite`), and from ``ratint`` when a log part ∫A/S
    remains, unless S/gcd(A, S) has an irreducible factor of degree ≥ 3
    over QQ: its real form is a RootSum or costs ``ratint`` minutes, so the
    moment is kept for quadrature. The moment is F(w) − F(0), with each
    log term c·log(a) of F taken as c·log(a(w)/a(0)), which is real where
    a keeps its sign at 0 (log(w − 3) − log(−3) is not). An f of the
    form P(v)·exp(a·v + c) takes F from :func:`_exp_poly`. Any other f
    goes through ``doit``. X and U are put in canonical form once.
    """
    f, (var, lo, hi) = e.function, e.limits[0]
    if f.is_rational_function(var):
        parts = _hermite(f, var)
        if parts is not None and parts[1].is_zero:
            F = parts[0]
        elif parts is not None and _cubic_log(*parts[1:]):
            return e
        else:
            F = ratint(f, var)
        logs = [(c, a.args[0]) for c, a in
                (term.as_independent(sp.log, as_Add=False) for term in sp.Add.make_args(F))
                if isinstance(a, sp.log)]
        F -= sum(c * sp.log(a) for c, a in logs)
        F0 = F.subs(var, lo)
        if F0.has(*_UNCLOSED):
            return e
        out = F.subs(var, hi) - F0 + sum(c * sp.log(a.subs(var, hi) / a.subs(var, lo))
                                          for c, a in logs)
    elif (F := _exp_poly(f, var)) is not None:
        out = F.subs(var, hi) - F.subs(var, lo)
    else:
        out = e.doit()
    return e if out.has(*_UNCLOSED) else out


def _exp_poly(f: sp.Expr, var: sp.Symbol) -> sp.Expr | None:
    """The antiderivative exp(a·var + c)·Σⱼ (−1)ʲ P⁽ʲ⁾/aʲ⁺¹ of
    f = P(var)·exp(a·var + c), for P a polynomial in var and a a nonzero
    number; None for any other f."""
    factors = sp.Mul.make_args(f)
    exps = [m for m in factors if isinstance(m, sp.exp)]
    P = sp.Mul(*[m for m in factors if not isinstance(m, sp.exp)])
    a = sp.Add(*[m.args[0] for m in exps]).diff(var)
    if not (a.is_number and a.is_zero is False and P.is_polynomial(var)):
        return None
    return sp.Mul(*exps) * sp.Add(*[(-1)**j * P.diff(var, j) / a**(j + 1)
                                    for j in range(sp.degree(P, var) + 1)])


def _cubic_log(A: sp.Poly, S: sp.Poly) -> bool:
    """∫A/S has a denominator with an irreducible factor of degree ≥ 3."""
    return any(p.degree() >= 3 for p, _ in S.exquo(S.gcd(A)).factor_list()[1])


def _integrands(g: sp.Expr) -> tuple[sp.Expr, sp.Expr]:
    """(tw+2)²g/4 and (tw+2)wg/2, the w-partials of X − C and U − C′."""
    return (t * w + 2)**2 * g / 4, (t * w + 2) * w * g / 2


def _check_parts(g: sp.Expr, X_part: sp.Expr, U_part: sp.Expr) -> None:
    """Raise unless X − C and U − C′ differentiate in w to g's integrands."""
    for part, target in zip((X_part, U_part), _integrands(g)):
        if not is_zero(differentiate(part, w) - target):
            raise SymcoreError("antiderivative does not differentiate to the required integrand")


def _canonical(e: sp.Expr) -> sp.Expr:
    """The canonical p/q form (:func:`symcore._cancel`) of a rational
    function of e's symbols; sp.simplify only for anything else."""
    if e.is_rational_function():
        return _cancel(e)
    return sp.simplify(e)


def _moments(g: sp.Expr) -> tuple[sp.Expr, sp.Expr, sp.Expr]:
    """M₀, M₁, M₂ with Mₖ = ∫₀ʷ vᵏ g(v) dv, each in closed form or kept as
    an Integral. The surface is linear in them:
    X = M₀ + tM₁ + t²M₂/4 + C and U = M₁ + tM₂/2 + C′."""
    moments = tuple(sp.Integral(v**k * g.subs(w, v), (v, 0, w)) for k in range(3))
    return tuple(map(_closed, moments)) if g.free_symbols <= {w} else moments


@dataclass
class ParamSolution:
    """A Hunter-Saxton solution surface (t, w) ↦ (t, x, u). Its w-partials are the
    canonical forms of the :func:`_integrands`, which X and U are checked against."""

    g: sp.Expr                       # expression in w
    C: sp.Expr                       # expression in t
    X: sp.Expr                       # x(t, w)
    U: sp.Expr                       # u(t, w)
    validity: tuple = ()             # expressions in (t, w) required nonzero
    degenerate: bool = False         # dX/dw ≡ 0

    def with_C(self, C) -> ParamSolution:
        """The surface of the same g with C(t) in place of this one's C; no
        antiderivative is taken again."""
        C = sp.sympify(C)
        return replace(self, C=C, X=self.X - self.C + C,
                       U=self.U - self.C.diff(t) + C.diff(t))

    @cached_property
    def closed(self) -> bool:
        """X and U are integral-free."""
        return not (self.X.has(sp.Integral) or self.U.has(sp.Integral))

    # -- exact partials ------------------------------------------------------

    @cached_property
    def X_w(self) -> sp.Expr:
        return _cancel(_integrands(self.g)[0])

    @cached_property
    def U_w(self) -> sp.Expr:
        return _cancel(_integrands(self.g)[1])

    @cached_property
    def X_t(self) -> sp.Expr:
        return self.X.diff(t)

    @cached_property
    def U_t(self) -> sp.Expr:
        return self.U.diff(t)

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
            "u_xx": _cancel(ux.diff(w)) / self.X_w,
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

    def excluded(self, tv: float, wv: float) -> bool:
        """True where a validity condition is within 1e-9 of 0 or has no
        real value."""
        for cond in self._validity_fns:
            try:
                if abs(cond(tv, wv)) < _NEAR_ZERO:
                    return True
            except EvalError:
                return True
        return False


def general_solution(g, C, validity: tuple = ()) -> ParamSolution:
    """The parametrized solution surface for a given g(w) and C(t).

    X and U are built from the t-free moments of g (base point 0, ∫₀ʷ).
    Where a moment they need does not close, each keeps one Integral
    for quadrature.
    """
    g = _in_w(g)
    C = sp.sympify(C)
    M0, M1, M2 = _moments(g)
    gv = g.subs(w, v)
    X, U = M0 + t * M1 + t**2 * M2 / 4, M1 + t * M2 / 2
    X = sp.Integral((t * v + 2)**2 * gv, (v, 0, w)) / 4 if X.has(sp.Integral) else _cancel(X)
    U = sp.Integral((t * v + 2) * v * gv, (v, 0, w)) / 2 if U.has(sp.Integral) else _cancel(U)
    _check_parts(g, X, U)
    degenerate = exact_zero(g)
    conds = tuple(sp.sympify(c) for c in validity)
    return ParamSolution(g, C, X + C, U + C.diff(t), conds, degenerate)


def closed_form_solution(g, C, X_part, U_part, validity: tuple = ()) -> ParamSolution:
    """Surface from explicitly supplied antiderivatives.

    Needed when ∫₀ʷ diverges (e.g. g = −8/(w(w+2)³), whose x-integrand
    has a pole at w = 0): ``X_part``/``U_part`` are any antiderivatives
    of ¼(tw+2)²g and ½(tw+2)w g in w, as expressions in (t, w).
    """
    g, C = _in_w(g), sp.sympify(C)
    X_part, U_part = sp.sympify(X_part), sp.sympify(U_part)
    _check_parts(g, X_part, U_part)
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


def residual(sol: ParamSolution, grid, h: float = 1e-5,
             method: str = "auto") -> ResidualReport:
    """max |F| of the Hunter-Saxton equation over a (t, w) grid.

    Uses exact symbolic partials when the surface is integral-free,
    otherwise Richardson-extrapolated central differences with step h.
    Points with |X_w| below ``_JACOBIAN_FLOOR``, inside a validity
    exclusion or where evaluation fails are skipped and reported.
    """
    if method == "auto":
        method = "exact" if sol.closed else "fd"
    if method == "exact" and not sol.closed:
        raise SymcoreError("exact residual needs integral-free X and U")

    if method == "exact":
        xw_f = compile_numeric(sol.X_w, (t, w))
        res_f = compile_numeric(sol.hs_residual_expr(), (t, w))

        def at(tv, wv):
            if abs(xw_f(tv, wv)) < _JACOBIAN_FLOOR:
                return None
            return abs(res_f(tv, wv))
    else:
        X_f, U_f = sol._xf, sol._uf

        def d(fn, tv, wv, wrt):
            # 4th-order Richardson central difference
            def shift(k):
                if wrt == "t":
                    return fn(tv + k * h, wv)
                return fn(tv, wv + k * h)
            return (8 * (shift(1) - shift(-1)) - (shift(2) - shift(-2))) / (12 * h)

        def at(tv, wv):
            Xw = d(X_f, tv, wv, "w")
            if abs(Xw) < _JACOBIAN_FLOOR:
                return None
            wt = -d(X_f, tv, wv, "t") / Xw
            ux = u_x_of_w(tv, wv)
            # u_x(t, w) = 2w/(tw+2) exactly; differentiate it analytically
            ux_w = 4 / (tv * wv + 2)**2
            ux_t = -2 * wv**2 / (tv * wv + 2)**2
            uxx = ux_w / Xw
            utx = ux_t + ux_w * wt
            return abs(utx + U_f(tv, wv) * uxx + ux**2 / 2)

    excluded = []
    worst = 0.0
    n_eval = 0
    for tv, wv in grid:
        try:
            r = None if sol.excluded(tv, wv) else at(tv, wv)
        except EvalError:
            r = None
        if r is None:
            excluded.append((tv, wv))
            continue
        worst = max(worst, r)
        n_eval += 1
    return ResidualReport(worst, n_eval, excluded)


# ---------------------------------------------------------------------------
# Cauchy data
# ---------------------------------------------------------------------------


def _poly_solve(eq: sp.Expr, var: sp.Symbol) -> list[sp.Expr] | None:
    """The solutions of eq = 0 for ``var`` as ``sp.solve`` lists them (the
    same roots, canonical when at most two, in default-key order) when eq
    is a polynomial in ``var`` whose roots it finds without general cubic
    or quartic formulas; else None. No ``sp.solve`` solution check runs."""
    if not eq.is_polynomial(var):
        return None
    poly = sp.Poly(eq, var)
    found = sp.roots(poly, cubics=False, quartics=False, quintics=False)
    if sum(found.values()) != poly.degree():
        return None
    sols = list(found)
    if len(sols) <= 2:
        sols = [_canonical(r) for r in sols]
    return sorted(sols, key=sp.default_sort_key)


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
    if is_zero(u0pp):
        raise CauchyError("u0'' vanishes identically; the constraint "
                          "16 g(w) u_xx = (2-t u_x)^4 cannot hold")
    g_of_x = (2 - t0 * u0p)**4 / (16 * u0pp)
    # the slope map w = 2p/(2 - t0 p) is a Möbius map in p = u0'(x);
    # its inverse is p = 2w/(2 + t0 w)
    slope = u0p - 2 * w / (2 + t0 * w)
    branches = _poly_solve(slope, x)
    # sp.solve is not tried on a rational slope equation whose numerator
    # has roots that _poly_solve cannot find: it reaches for the cubic and
    # quartic formulas there, and may not return
    if branches is None and not (
            slope.is_rational_function(x)
            and _poly_solve(sp.numer(_cancel(slope)), x) is None):
        branches = sp.solve(sp.Eq(2 * u0p / (2 - t0 * u0p), w), x)
    if not branches:
        raise CauchyError("could not invert the slope map symbolically; "
                          "give g(w) itself instead of the Cauchy data")
    out = []
    for sol_x in branches:
        # a non-rational g (u0 = x^3) is simplified from its cancelled form,
        # which keeps the expanded denominator that the command prints
        gw = _canonical(_cancel(g_of_x.subs(x, sol_x)))
        if gw not in out:
            out.append(gw)
    return out[0] if len(out) == 1 else out


def fit_C(sol: ParamSolution, t0, u0, w_end=0, side="-") -> sp.Expr:
    """Determine C(t) for a Cauchy problem on the surface ``sol``.

    The antiderivatives are read from the surface (X − C and U − C′), so
    nothing is integrated again. Decay u → 0 along the surface end
    w → ``w_end`` (a decay-at-infinity boundary condition in x) fixes
    C'(t); the remaining constant comes from matching u(t0, ·) = u0.
    """
    if not sol.closed:
        raise CauchyError("the surface keeps an integral; use closed_form_solution")
    t0, u0 = sp.sympify(t0), sp.sympify(u0)
    X_part, U_part = sol.X - sol.C, sol.U - sol.C.diff(t)

    w_end, end = sp.sympify(w_end), None
    if w_end.is_finite and U_part.is_rational_function(w):  # its value, where continuous
        num, den = (p.subs(w, w_end) for p in sp.fraction(_cancel(U_part)))
        end = None if exact_zero(den) else num / den
    end = sp.limit(U_part, w, w_end, side) if end is None else end
    if end.has(sp.oo, -sp.oo, sp.zoo, sp.nan):
        raise CauchyError(f"u does not approach a finite value as w -> {w_end}{side}")
    Cp = -end

    # slice matching: u(t0, x) = u0(x) along the t = t0 slice determines C(t0)
    K = sp.Symbol("_C0")
    u_slice = (U_part + Cp).subs(t, t0)
    x_slice = X_part.subs(t, t0) + K
    gap = _canonical(u0.subs(x, x_slice) - u_slice)
    sols = _poly_solve(gap, K)
    if sols is None:
        sols = sp.solve(gap, K)
    consts = [s for s in sols if w not in s.free_symbols]
    if not consts:
        raise CauchyError("decay rule is inconsistent with the initial slice")
    C0 = _canonical(consts[0])
    # the solved constant must make the slice match identically in w
    if not is_zero(gap.subs(K, C0)):
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


def _bisect(f, a: float, b: float) -> float:
    """A root of ``f`` on [a, b], where f(a) and f(b) have opposite signs.

    The bracket is halved until no float lies strictly inside it, so f is
    0 at the result or has opposite signs there and at a neighbouring
    float; of two adjacent ends the one with the smaller |f| is returned.
    A float bracket closes in at most about 1,100 halvings, a grid bracket
    of :func:`singular_curve` in about 43. Signs are compared, never
    multiplied: a product of two tiny values underflows to 0.
    """
    fa, fb = f(a), f(b)
    while (m := a / 2 + b / 2) not in (a, b):
        fm = f(m)
        if fm == 0:
            return m
        if (fm < 0) == (fa < 0):
            a, fa = m, fm
        else:
            b, fb = m, fm
    return a if abs(fa) <= abs(fb) else b


def _value(f, wv: float) -> float:
    """f(wv), or NaN where f raises EvalError."""
    try:
        return f(wv)
    except EvalError:
        return math.nan


def _zeros(f, ws: list[float]) -> list[float]:
    """The zeros of ``f`` on the grid ``ws``: every node where f is 0, and
    every pair of neighbours of opposite signs (a node where f raises
    EvalError has no sign), bisected and kept only if |f| at the root is no
    larger than at both ends, since a pole is a sign change whose |f| grows."""
    vals = [_value(f, wv) for wv in ws]
    zeros = [wv for wv, fv in zip(ws, vals) if fv == 0]
    for a, b, fa, fb in zip(ws, ws[1:], vals, vals[1:]):
        if fa == 0 or fb == 0 or math.isnan(fa) or math.isnan(fb) or (fa < 0) == (fb < 0):
            continue
        try:
            root = _bisect(f, a, b)
            if abs(f(root)) <= min(abs(fa), abs(fb)):
                zeros.append(root)
        except EvalError:
            continue
    return zeros


def singular_curve(sol: ParamSolution, times, w_window=(-40.0, -1e-3),
                   n: int = 2000) -> SingularCurve:
    """Points where ∂X/∂w = (tw+2)²g(w)/4 vanishes in the window: at time t,
    the branch w = −2/t and the real zeros of g, read once off the factors of
    g's numerator. A factor free of w or an exponential never vanishes, and a
    power vanishes where its base does. A base in QQ[w] gives its roots by exact
    real root isolation, each refined until it rounds to one float; n is the
    resolution of the one scan of any other base, which takes its sign changes
    (:func:`_zeros`) and, for an even-order zero, the sign changes of its
    derivative at which |base| < 1e-9. A zero that a validity condition
    excludes, or where x or u has no real value, is skipped."""
    if sol.degenerate:
        raise SymcoreError("X_w vanishes identically: every point of the surface is singular")
    lo, hi = map(float, w_window)
    step = (hi - lo) / max(n - 1, 1)
    ws = [k * step + lo for k in range(n - 1)] + [hi]  # np.linspace's formula, to the bit
    zeros = []
    for factor in sp.Mul.make_args(sp.factor(sp.numer(_cancel(sol.g)))):
        if factor.is_Pow and factor.exp.is_Rational and factor.exp > 0:
            factor = factor.base
        if w not in factor.free_symbols or isinstance(factor, sp.exp):
            continue
        poly = sp.Poly(factor, w) if factor.is_polynomial(w) else None
        if poly is None or poly.domain not in (sp.ZZ, sp.QQ):
            f = compile_numeric(factor, (w,))
            found = _zeros(f, ws)
            # where the factor touches 0 without a sign change, its derivative changes sign
            for crit in _zeros(compile_numeric(differentiate(factor, w), (w,)), ws):
                touches = abs(_value(f, crit)) < _NEAR_ZERO
                if touches and not any(abs(crit - z) < 1e-8 for z in found):
                    found.append(crit)
            zeros += found
            continue
        for (a, b), _ in poly.intervals(inf=sp.Rational(lo), sup=sp.Rational(hi)):
            while float(a) != float(b):
                a, b = poly.refine_root(a, b, eps=(b - a) / 2**20)
            zeros.append(float(a))
    samples = []
    for tv in times:
        branch = [-2 / tv] if tv != 0 and lo <= -2 / tv <= hi else []
        for wv in sorted(set(zeros + branch)):
            try:
                if not sol.excluded(tv, wv):
                    samples.append((float(tv), float(wv), sol.x_of(tv, wv), sol.u_of(tv, wv)))
            except EvalError:
                continue
    return SingularCurve(samples)


def branch_verdict(sol: ParamSolution, implicit: sp.Expr) -> ZeroVerdict | None:
    """The :func:`is_zero` verdict on an implicit curve equation Φ(t, x, u)
    along the branch w = −2/t, where X_w vanishes for every g; None for a
    surface that keeps an integral."""
    if not sol.closed:
        return None
    on = {w: -2 / t}
    return is_zero(implicit.subs({x: sol.X.subs(on), u_sym: sol.U.subs(on)}))


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
        # a reduced argument, and the prefactor factored with the factors of
        # g that are rational in w, so the result prints in lowest terms
        factors = sp.Mul.make_args(g.subs(w, _cancel(2 * w / (2 - s * w))))
        rational = [f for f in factors if f.is_rational_function(w)]
        rest = [f for f in factors if not f.is_rational_function(w)]
        return sp.factor(16 / (2 - s * w)**4 * sp.Mul(*rational)) * sp.Mul(*rest)
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
    """max |constraint_G(transform_g(g))| over the flowed surface.

    Grid points inside a validity exclusion or where evaluation fails are
    skipped, as in :func:`residual`.
    """
    g2 = transform_g(generator, s, sol.g)
    G2 = constraint_G(g2)
    G2_f = compile_numeric(G2, (t, u_x, u_xx))
    uxx_f = compile_numeric(sol.jets["u_xx"], (t, w))
    worst = 0.0
    for tv, wv in grid:
        try:
            if sol.excluded(tv, wv):
                continue
            pt = {"t": tv, "x": sol.x_of(tv, wv), "u": sol.u_of(tv, wv),
                  "u_x": u_x_of_w(tv, wv), "u_xx": uxx_f(tv, wv)}
            moved = flow_jet(generator, s, pt)
            worst = max(worst, abs(G2_f(moved["t"], moved["u_x"], moved["u_xx"])))
        except EvalError:
            continue
    return worst


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------


def format_float(val: float) -> str:
    """17 significant digits, so written artifacts rerun byte-identically."""
    return format(float(val), ".17g")


def surface_csv(sol: ParamSolution, times, w_values, path: str) -> int:
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
                    if abs(xw_f(tv, wv)) < _JACOBIAN_FLOOR:
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
