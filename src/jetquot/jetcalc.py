"""Jet-space calculus.

Total derivatives, contact forms on J^k and prolongation of point
vector fields to jet space.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import sympy as sp

from .symcore import JetVar, SymcoreError, jet, jets_in, max_jet_order, t, x

DEFAULT_ORDER_CAP = 8


class OrderCapError(SymcoreError):
    pass


def total_derivative(e: sp.Expr, direction: str, cap: int = DEFAULT_ORDER_CAP) -> sp.Expr:
    """Total derivative D_t or D_x of a jet expression.

    D_t = ∂_t + u_t ∂_u + u_tt ∂_{u_t} + u_tx ∂_{u_x} + ...
    """
    if direction not in ("t", "x"):
        raise SymcoreError(f"direction must be 't' or 'x', not {direction!r}")
    e = sp.sympify(e)
    dt, dx = (1, 0) if direction == "t" else (0, 1)
    base = t if direction == "t" else x
    out = e.diff(base)
    for sym, (i, j) in jets_in(e).items():
        if i + j + 1 > cap:
            raise OrderCapError(
                f"total derivative of {sym} exceeds jet order cap {cap}"
            )
        out += jet(i + dt, j + dx) * e.diff(sym)
    return out


def Dt(e: sp.Expr, cap: int = DEFAULT_ORDER_CAP) -> sp.Expr:
    return total_derivative(e, "t", cap)


def Dx(e: sp.Expr, cap: int = DEFAULT_ORDER_CAP) -> sp.Expr:
    return total_derivative(e, "x", cap)


@dataclass(frozen=True)
class ContactForm:
    """The form du_σ − u_{σt} dt − u_{σx} dx, recorded by coefficients."""

    base: JetVar
    dt_coefficient: sp.Expr
    dx_coefficient: sp.Expr


def cartan_forms(k: int) -> list[ContactForm]:
    """Contact one-forms on J^k, one per jet variable of order ≤ k−1."""
    if k < 1:
        raise SymcoreError("cartan_forms needs k >= 1")
    forms = []
    for n in range(k):
        for i in range(n + 1):
            v = JetVar(i, n - i)
            forms.append(ContactForm(v, -v.shift(dt=1).symbol, -v.shift(dx=1).symbol))
    return forms


@dataclass(frozen=True)
class VectorField:
    """A point vector field a ∂_t + b ∂_x + c ∂_u."""

    a: sp.Expr
    b: sp.Expr
    c: sp.Expr

    def __post_init__(self):
        object.__setattr__(self, "a", sp.sympify(self.a))
        object.__setattr__(self, "b", sp.sympify(self.b))
        object.__setattr__(self, "c", sp.sympify(self.c))

    def __mul__(self, scalar):
        return VectorField(scalar * self.a, scalar * self.b, scalar * self.c)

    __rmul__ = __mul__


@dataclass(frozen=True)
class ProlongedField:
    """A vector field lifted to J^order.

    ``coeffs`` maps each JetVar of total order ≤ order to the coefficient
    of the corresponding ∂ in the prolongation; the (0,0) entry is c.
    """

    field: VectorField
    order: int
    coeffs: dict[JetVar, sp.Expr] = field(repr=False, default_factory=dict)

    def coefficient(self, v: JetVar) -> sp.Expr:
        return self.coeffs[v]

    def truncate(self, k: int) -> "ProlongedField":
        if k > self.order:
            raise SymcoreError("cannot truncate upward")
        kept = {v: c for v, c in self.coeffs.items() if v.order <= k}
        return ProlongedField(self.field, k, kept)

    def apply(self, e: sp.Expr) -> sp.Expr:
        """Directional derivative of e along the prolonged field."""
        e = sp.sympify(e)
        out = self.field.a * e.diff(t) + self.field.b * e.diff(x)
        for sym, (i, j) in jets_in(e).items():
            v = JetVar(i, j)
            if v.order > self.order:
                raise OrderCapError(
                    f"{sym} has order {v.order} > prolongation order {self.order}"
                )
            out += self.coeffs[v] * e.diff(sym)
        return out


def prolong(X: VectorField, k: int, cap: int = DEFAULT_ORDER_CAP) -> ProlongedField:
    """Prolong a point vector field to order k.

    Coefficients follow the recursion
        φ^{σ,y} = D_y(φ^σ) − u_{σt} D_y(a) − u_{σx} D_y(b),
    seeded with φ^{()} = c.
    """
    if k < 0:
        raise SymcoreError("prolongation order must be non-negative")
    Da_t, Da_x = Dt(X.a, cap), Dx(X.a, cap)
    Db_t, Db_x = Dt(X.b, cap), Dx(X.b, cap)
    coeffs = {JetVar(0, 0): X.c}
    for n in range(1, k + 1):
        for i in range(n, -1, -1):
            j = n - i
            v = JetVar(i, j)
            if i > 0:
                prev = coeffs[JetVar(i - 1, j)]
                coeffs[v] = (
                    Dt(prev, cap)
                    - jet(i, j) * Da_t
                    - jet(i - 1, j + 1) * Db_t
                )
            else:
                prev = coeffs[JetVar(i, j - 1)]
                coeffs[v] = (
                    Dx(prev, cap)
                    - jet(i + 1, j - 1) * Da_x
                    - jet(i, j) * Db_x
                )
    return ProlongedField(X, k, coeffs)


def apply_prolonged(X: VectorField, e: sp.Expr, k: int | None = None,
                    cap: int = DEFAULT_ORDER_CAP) -> sp.Expr:
    """Convenience: prolong X far enough for e and apply it."""
    e = sp.sympify(e)
    if k is None:
        k = max(max_jet_order(e), 0)
    return prolong(X, k, cap).apply(e)
