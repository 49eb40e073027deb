"""Known answers for perturbed claims, decided without ``normalize`` or ``is_zero``.

A claim's restricted residual is evaluated to 50 digits at seeded
rational points. Formal functions get random cubic polynomial stand-ins
and formal integrals are computed with ``mpmath.quad``. A point is used
only where the unperturbed claim's residual evaluates to zero, so a point
where the evaluation itself is unreliable (a pole, a stand-in that makes
an integral singular) cannot decide the twin.
"""

from __future__ import annotations

import random

import mpmath
import sympy as sp

DPS = 50
#: below this a residual counts as zero, above NONZERO as nonzero
ZERO = sp.Float("1e-25", DPS)
NONZERO = sp.Float("1e-12", DPS)


def _rational(rng: random.Random) -> sp.Rational:
    return sp.Rational(rng.randint(-40, 40), rng.randint(1, 12))


def _formal_nodes(e: sp.Expr):
    return [n for n in sp.preorder_traversal(e) if hasattr(n, "deriv_orders")]


def standins(exprs, rng: random.Random) -> dict[str, tuple[tuple, sp.Expr]]:
    """A random cubic polynomial for every formal function in ``exprs``."""
    arity = {}
    for e in exprs:
        for node in _formal_nodes(e):
            arity[node.base_name] = len(node.args)
    table = {}
    for name, n in sorted(arity.items()):
        params = sp.symbols(f"_z0:{n}")
        mono = [sp.Integer(1), *params]
        mono += [a * b for a in params for b in params]
        mono += [a * a * b for a in params for b in params]
        table[name] = (params, sp.Add(*[_rational(rng) * m for m in mono]))
    return table


def bind(e: sp.Expr, table) -> sp.Expr:
    """Replace every formal function (and its derivatives) by its stand-in."""
    def value(node):
        params, poly = table[node.base_name]
        for p, order in zip(params, node.deriv_orders):
            poly = sp.diff(poly, p, order)
        return poly.xreplace(dict(zip(params, node.args)))

    return e.replace(lambda n: hasattr(n, "deriv_orders"), value)


def _quad(f, interval):
    """mpmath.quad with a capped degree; NaN unless it converged to 40 digits."""
    value, error = mpmath.quad(f, list(interval), method="gauss-legendre", error=True, maxdegree=6)
    return value if error < mpmath.mpf(10) ** -40 * max(1, abs(value)) else mpmath.nan


def _mp(v: sp.Expr):
    if v.is_Rational:
        return mpmath.mpf(v.p) / v.q
    re, im = (str(sp.N(c, DPS)) for c in v.as_real_imag())
    return mpmath.mpc(re, im)


def magnitude(e: sp.Expr, point: dict) -> sp.Float | None:
    """|e| at ``point`` to 50 digits, None at a pole or failed quadrature.

    Integral-free residuals are evaluated exactly before rounding. With
    formal integrals the point stays symbolic through ``lambdify``, so that
    the printer never evaluates a closed integral, and ``mpmath.quad``
    runs on the nested integrands.
    """
    e = sp.sympify(e)
    try:
        if e.has(sp.Integral):
            syms = sorted(e.free_symbols, key=str)
            f = sp.lambdify(syms, e, [{"quad": _quad}, "mpmath"])
            with mpmath.workdps(DPS):
                return _abs(f(*(_mp(point[s]) for s in syms)))
        num = sp.N(e.xreplace(point), DPS)
    except (ZeroDivisionError, ValueError, TypeError, OverflowError):
        return None
    if num.has(sp.zoo, sp.oo, -sp.oo, sp.nan) or not num.is_number:
        return None
    out = sp.N(sp.Abs(num), DPS)
    return out if out.is_comparable else None


def _abs(z) -> sp.Float | None:
    if not mpmath.isfinite(z):
        return None
    return sp.Float(mpmath.fabs(z), DPS)


def _root(phi, base, point, rng: random.Random):
    """A point of Φ = 0 over ``point``: solve for ``base`` numerically."""
    try:
        f = sp.lambdify(base, phi.xreplace(point), "mpmath")
    except (ZeroDivisionError, ValueError, TypeError):
        return None
    with mpmath.workdps(DPS):
        for _ in range(4):
            try:
                h = mpmath.findroot(f, mpmath.mpf(float(_rational(rng))) + mpmath.mpf("0.5"))
                if mpmath.fabs(f(h)) < mpmath.mpf(10) ** (-40):
                    return h
            except (ZeroDivisionError, ValueError, TypeError, OverflowError):
                continue
    return None


def _value(residual, phi, base, point, rng):
    if phi is None:
        return magnitude(residual, point)
    h = _root(phi, base, point, rng)
    if h is None:
        return None
    h = sp.Float(mpmath.re(h), DPS) + sp.I * sp.Float(mpmath.im(h), DPS)
    return magnitude(residual, {**point, base: h})


def classify(original: sp.Expr, twin: sp.Expr, rng: random.Random,
             implicit: tuple | None = None, points: int = 3,
             attempts: int = 16) -> str:
    """``invalid`` if the twin's residual is nonzero at a point where the
    original's vanishes; ``valid`` if it vanishes at ``points`` such points;
    ``unknown`` otherwise.

    ``implicit`` is (Φ, Φ_twin, base token) for solutions given as Φ = 0:
    each residual is then evaluated on its own surface Φ = 0.
    """
    phi0, phi1, base = implicit if implicit else (None, None, None)
    exprs = [e for e in (original, twin, phi0, phi1) if e is not None]
    zeros = 0
    for _ in range(attempts):
        table = standins(exprs, rng)
        o, t = bind(original, table), bind(twin, table)
        p0 = bind(phi0, table) if phi0 is not None else None
        p1 = bind(phi1, table) if phi1 is not None else None
        syms = set().union(*(e.free_symbols for e in (o, t, p0, p1) if e is not None))
        point = {s: _rational(rng) for s in sorted(syms - {base}, key=str)}
        vo = _value(o, p0, base, point, rng)
        if vo is None or vo > ZERO:
            continue
        vt = _value(t, p1, base, point, rng)
        if vt is None:
            continue
        if vt > NONZERO:
            return "invalid"
        if vt < ZERO:
            zeros += 1
            if zeros >= points:
                return "valid"
    return "unknown"
