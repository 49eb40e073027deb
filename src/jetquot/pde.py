"""Equation manifolds.

A PDE F = 0 together with a chosen principal derivative gives a
submanifold E_k of jet space on which the principal derivative and all
its total-derivative consequences are expressed through the remaining
(parametric) coordinates. Restriction to E_k and symmetry verification
live here.
"""

from __future__ import annotations

from dataclasses import dataclass

import sympy as sp

from .jetcalc import DEFAULT_ORDER_CAP, Dt, Dx, VectorField, apply_prolonged
from .symcore import (
    JetVar,
    SymcoreError,
    ZeroVerdict,
    _cancel,
    _xreplace,
    differentiate,
    is_zero,
    jet_orders,
    jets_in,
    t,
    x,
)


class RestrictionError(SymcoreError):
    pass


class PdeManifold:
    """The equation manifold of F = 0 with a chosen principal derivative.

    The principal derivative is solved for once; its total-derivative
    consequences are derived lazily and cached. ``restrict`` eliminates
    the principal derivative and everything above it from an expression.
    """

    # Restriction intermediates run a bit above the order of the final
    # result (eliminating an order-k jet differentiates the solved rhs up
    # to order k+1), so the manifold cap sits above the jetcalc default.
    DEFAULT_CAP = DEFAULT_ORDER_CAP + 4

    def __init__(self, F: sp.Expr, principal: JetVar | tuple[int, int],
                 cap: int | None = None):
        cap = self.DEFAULT_CAP if cap is None else cap
        self.F = sp.sympify(F)
        if isinstance(principal, tuple):
            principal = JetVar(*principal)
        self.principal = principal
        self.cap = cap
        p = principal.symbol
        coeff = differentiate(self.F, p)
        if coeff == 0:
            raise RestrictionError(f"{p} does not occur in F")
        if p in coeff.free_symbols:
            raise RestrictionError(f"F is not affine in the principal derivative {p}")
        rhs = _cancel(-(self.F - coeff * p) / coeff)
        if p in rhs.free_symbols:
            raise RestrictionError(f"could not solve F = 0 for {p}")
        self._rhs: dict[tuple[int, int], sp.Expr] = {}
        self._rhs[(0, 0)] = self.restrict(rhs)

    def rhs(self, offset: tuple[int, int]) -> sp.Expr:
        """Restricted expression for the principal derivative shifted by offset."""
        if offset not in self._rhs:
            i, j = offset
            if i > 0:
                r = self.restrict(Dt(self.rhs((i - 1, j)), self.cap))
            else:
                r = self.restrict(Dx(self.rhs((i, j - 1)), self.cap))
            self._rhs[offset] = r
        return self._rhs[offset]

    def restrict(self, e: sp.Expr) -> sp.Expr:
        """Eliminate the principal derivative and all its consequences from
        e, in one pass: every stored rhs is already restricted."""
        pi, pj = self.principal.t_order, self.principal.x_order

        def rule(n):
            ij = jet_orders(n) if n.is_Symbol else None
            if ij is not None and ij[0] >= pi and ij[1] >= pj:
                return self.rhs((ij[0] - pi, ij[1] - pj))
            return None

        return _xreplace(sp.sympify(e), rule)

    def is_parametric(self, v: JetVar) -> bool:
        return not (v.t_order >= self.principal.t_order
                    and v.x_order >= self.principal.x_order)

    def __repr__(self):
        return f"PdeManifold({self.F} = 0, principal={self.principal.name})"


@dataclass
class SymmetryVerdict:
    verdict: ZeroVerdict

    @property
    def holds(self) -> bool:
        return self.verdict.is_zero

    @property
    def residual(self) -> sp.Expr:
        return self.verdict.residual

    def __bool__(self):
        return self.holds


def check_symmetry(X: VectorField, M: PdeManifold) -> SymmetryVerdict:
    """Zero-test X^{(k)}(F)|_E; the verdict carries the certificate."""
    return SymmetryVerdict(is_zero(M.restrict(apply_prolonged(X, M.F, cap=M.cap))))


def solution_residual(F: sp.Expr, u_expr: sp.Expr) -> sp.Expr:
    """Residual of F on a candidate solution u(t, x).

    Every jet variable in F is replaced by the corresponding partial
    derivative of ``u_expr``. The residual is returned as it is, in no
    normal form; an exact solution gives an expression that zero-tests
    to 0.
    """
    F = sp.sympify(F)
    partials = {(0, 0): sp.sympify(u_expr)}

    def partial(i, j):
        # ∂_t^i ∂_x^j u from its lower neighbour, the t derivatives first
        if (i, j) not in partials:
            partials[(i, j)] = (differentiate(partial(i, j - 1), x) if j
                                else differentiate(partial(i - 1, 0), t))
        return partials[(i, j)]

    return F.xreplace({sym: partial(i, j) for sym, (i, j) in jets_in(F).items()})
