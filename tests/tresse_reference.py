"""Tresse derivations as expressions: the reference the frame rings are
compared against.

A frame's derivation is ∂̂ = α D_t + β D_x followed by restriction to the
equation manifold. For a pair of invariants (I, J), with It = D_t(I)|_E
etc. and Δ = It Jx − Ix Jt, ∂̂_I has (α, β) = (Jx/Δ, −Jt/Δ) and ∂̂_J has
(−Ix/Δ, It/Δ); a single-derivation entry records its (α, β). Here every
derivative is an expression built by ``jetcalc.Dt``/``Dx`` and
``PdeManifold.restrict``, with no ring involved.
"""

import sympy as sp

from jetquot.invariants import I_tok, J_tok, _split_token
from jetquot.jetcalc import Dt, Dx
from jetquot.symcore import _xreplace


class Reference:
    """The Expr Tresse derivations of a catalog entry's frame."""

    def __init__(self, entry):
        self.entry = entry
        self.M = M = entry.manifold
        I = entry.invariants["I"]
        if entry.single_derivation is not None:
            self.coeffs = {"I": tuple(map(sp.sympify, entry.single_derivation))}
            return
        J = entry.invariants["J"]
        It, Ix = M.restrict(Dt(I, M.cap)), M.restrict(Dx(I, M.cap))
        Jt, Jx = M.restrict(Dt(J, M.cap)), M.restrict(Dx(J, M.cap))
        det = It * Jx - Ix * Jt
        self.coeffs = {"I": (Jx / det, -Jt / det), "J": (-Ix / det, It / det)}

    def derive(self, which: str, e: sp.Expr) -> sp.Expr:
        alpha, beta = self.coeffs[which]
        M = self.M
        return M.restrict(alpha * Dt(e, M.cap) + beta * Dx(e, M.cap))

    def tokens(self, e: sp.Expr, bindings: dict) -> dict:
        """The realization of each token of e, as ``realize_tokens`` gives it."""
        base = {sp.Symbol(k): self.M.restrict(sp.sympify(v)) for k, v in bindings.items()}
        base.setdefault(I_tok, self.M.restrict(self.entry.invariants["I"]))
        if "J" in self.coeffs:
            base.setdefault(J_tok, self.M.restrict(self.entry.invariants["J"]))
        out = {}
        for sym in e.free_symbols:
            split = _split_token(sym)
            if sym in base:
                out[sym] = base[sym]
            elif split is not None:
                stem, word = split
                r = base[sp.Symbol(stem)]
                for which in word:
                    r = self.derive(which, r)
                out[sym] = r
        return out

    def syzygy(self, lhs: sp.Expr) -> sp.Expr:
        """The restricted realization of a syzygy: the claim check_syzygy decides."""
        tokens = self.tokens(lhs, self.entry.higher_invariants())
        return self.M.restrict(_xreplace(lhs, tokens.get))

    def duality(self) -> list[sp.Expr]:
        """∂̂_I(I) − 1, ∂̂_I(J), ∂̂_J(I) and ∂̂_J(J) − 1 (the first alone
        for a single derivation)."""
        invs = [self.entry.invariants[n] for n in self.coeffs]
        return [self.derive(w, f) - int(v == w) for w in self.coeffs
                for f, v in zip(invs, self.coeffs)]

    def commutation(self, probe: sp.Expr) -> sp.Expr:
        """[∂̂_I, ∂̂_J](probe) on the manifold."""
        d = self.derive
        return self.M.restrict(d("I", d("J", probe)) - d("J", d("I", probe)))
