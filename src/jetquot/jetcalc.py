"""Jet-space calculus.

Total derivatives and prolongation of point vector fields to jet space.

D_t, D_x and a prolonged field are derivations, fixed by their values on
the symbols (t, x, the jets u_σ). Each is applied to an expression in one
memoized walk, ``symcore._derivation``: every distinct subtree is
differentiated once, formal functions follow the chain rule and formal
integrals the Leibniz rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import sympy as sp

from .symcore import JetVar, SymcoreError, _derivation, jet, jet_orders, max_jet_order, t, x

DEFAULT_ORDER_CAP = 8


class OrderCapError(SymcoreError):
    pass


def total_derivative(e: sp.Expr, direction: str, cap: int = DEFAULT_ORDER_CAP) -> sp.Expr:
    """Total derivative D_t or D_x of a jet expression.

    D_t = ∂_t + u_t ∂_u + u_tt ∂_{u_t} + u_tx ∂_{u_x} + ...

    One derivation walk over e (see ``symcore._derivation``) with
    D_t(t) = 1 and D_t(u_σ) = u_{σt}.
    """
    return _derivation(sp.sympify(e), total_leaf(direction, cap))


def total_leaf(direction: str, cap: int = DEFAULT_ORDER_CAP):
    """The values of D_t or D_x on the symbols: D_t(t) = 1 and
    D_t(u_σ) = u_{σt}, 0 on any other symbol."""
    if direction not in ("t", "x"):
        raise SymcoreError(f"direction must be 't' or 'x', not {direction!r}")
    dt, dx = (1, 0) if direction == "t" else (0, 1)
    base = t if direction == "t" else x

    def leaf(sym):
        if sym == base:
            return sp.S.One
        ij = jet_orders(sym)
        if ij is None:
            return sp.S.Zero
        i, j = ij
        if i + j + 1 > cap:
            raise OrderCapError(f"total derivative of {sym} exceeds jet order cap {cap}")
        return jet(i + dt, j + dx)

    return leaf


def Dt(e: sp.Expr, cap: int = DEFAULT_ORDER_CAP) -> sp.Expr:
    return total_derivative(e, "t", cap)


def Dx(e: sp.Expr, cap: int = DEFAULT_ORDER_CAP) -> sp.Expr:
    return total_derivative(e, "x", cap)


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


@dataclass(frozen=True)
class ProlongedField:
    """A vector field lifted to J^order.

    ``coeffs`` maps each JetVar read so far to the coefficient of the
    corresponding ∂ in the prolongation; it is seeded with the (0,0)
    entry c, and :meth:`coefficient` adds the others on first read.
    """

    field: VectorField
    order: int
    cap: int = DEFAULT_ORDER_CAP
    coeffs: dict[JetVar, sp.Expr] = field(repr=False, default_factory=dict)

    def __post_init__(self):
        self.coeffs.setdefault(JetVar(0, 0), self.field.c)

    def coefficient(self, v: JetVar) -> sp.Expr:
        """φ^σ for v = u_σ, made from its lower neighbour by the recursion
            φ^{σ,y} = D_y(φ^σ) − u_{σt} D_y(a) − u_{σx} D_y(b),
        t from (i−1, j) when i > 0 and x from (i, j−1) otherwise, as
        ``PdeManifold.rhs`` is made."""
        if v.order > self.order:
            raise OrderCapError(f"{v.symbol} has order {v.order} > prolongation order {self.order}")
        out = self.coeffs.get(v)
        if out is None:
            i, j = v.t_order, v.x_order
            if i > 0:
                D, prev, u_st, u_sx = Dt, JetVar(i - 1, j), jet(i, j), jet(i - 1, j + 1)
            else:
                D, prev, u_st, u_sx = Dx, JetVar(i, j - 1), jet(i + 1, j - 1), jet(i, j)
            out = self.coeffs[v] = (D(self.coefficient(prev), self.cap)
                                    - u_st * D(self.field.a, self.cap)
                                    - u_sx * D(self.field.b, self.cap))
        return out

    def apply(self, e: sp.Expr) -> sp.Expr:
        """Directional derivative of e along the prolonged field: one
        derivation walk with t → a, x → b and u_σ → φ^σ."""
        images = {t: self.field.a, x: self.field.b}

        def leaf(sym):
            if sym in images:
                return images[sym]
            ij = jet_orders(sym)
            return sp.S.Zero if ij is None else self.coefficient(JetVar(*ij))

        return _derivation(sp.sympify(e), leaf)


def prolong(X: VectorField, k: int, cap: int = DEFAULT_ORDER_CAP) -> ProlongedField:
    """Prolong a point vector field to order k; each coefficient is made
    when it is first read (see :meth:`ProlongedField.coefficient`)."""
    if k < 0:
        raise SymcoreError("prolongation order must be non-negative")
    return ProlongedField(X, k, cap)


def apply_prolonged(X: VectorField, e: sp.Expr, k: int | None = None,
                    cap: int = DEFAULT_ORDER_CAP) -> sp.Expr:
    """Convenience: prolong X far enough for e and apply it."""
    e = sp.sympify(e)
    if k is None:
        k = max(max_jet_order(e), 0)
    return prolong(X, k, cap).apply(e)
