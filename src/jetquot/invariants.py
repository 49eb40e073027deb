"""Differential invariants, Tresse frames and differential syzygies.

Syzygies are written over *token* symbols: I, J, the higher invariants
(H, K) and derivative tokens like H_I, K_J, H_IJ. A token expression is
turned back into a jet expression by substituting each token's
realization on the equation manifold; derivative tokens are produced by
applying the frame's dual derivations.
"""

from __future__ import annotations

import itertools
import random
import re
from dataclasses import dataclass, field

import sympy as sp
from sympy import Symbol

from .jetcalc import Dt, Dx, VectorField, apply_prolonged
from .pde import GenericityCondition, PdeManifold
from .symcore import (
    SymcoreError,
    ZeroVerdict,
    exact_residual,
    exact_zero,
    is_zero,
    jets_in,
    max_jet_order,
    normalize,
    t,
    x,
    zero_certificate,
)

# Token symbols for writing syzygies. First-order derivative tokens are
# X_I / X_J; second-order ones X_II, X_IJ, X_JJ (mixed partials commute).
I_tok, J_tok, H_tok, K_tok = sp.symbols("I J H K")

_DERIV_TOKEN = re.compile(r"^([A-Z])_([IJ]{1,2})$")


def token(name: str) -> Symbol:
    return Symbol(name)


def _split_token(s: Symbol) -> tuple[str, str] | None:
    m = _DERIV_TOKEN.match(s.name)
    if m is None:
        return None
    return m.group(1), m.group(2)


class DegenerateFrameError(SymcoreError):
    """The wedge of the two horizontal differentials vanishes identically."""


class InvariantDerivation:
    """A derivation α D_t + β D_x followed by restriction to the manifold."""

    def __init__(self, alpha: sp.Expr, beta: sp.Expr, M: PdeManifold):
        self.alpha = sp.sympify(alpha)
        self.beta = sp.sympify(beta)
        self.M = M

    def apply(self, e: sp.Expr) -> sp.Expr:
        out = self.M.restrict(
            self.alpha * Dt(e, self.M.cap) + self.beta * Dx(e, self.M.cap)
        )
        return sp.together(out)

    def __call__(self, e: sp.Expr) -> sp.Expr:
        return self.apply(e)


class TresseFrame:
    """Dual derivations ∂̂_I, ∂̂_J of a pair of invariants (I, J).

    With It = D_t(I)|_E etc., the dual frame of (dI, dJ) is
        ∂̂_I = (Jx D_t − Jt D_x)/Δ,   ∂̂_J = (−Ix D_t + It D_x)/Δ,
    where Δ = It Jx − Ix Jt must not vanish identically.
    """

    def __init__(self, I: sp.Expr, J: sp.Expr, M: PdeManifold):
        self.I = sp.sympify(I)
        self.J = sp.sympify(J)
        self.M = M
        It, Ix = M.restrict(Dt(self.I, M.cap)), M.restrict(Dx(self.I, M.cap))
        Jt, Jx = M.restrict(Dt(self.J, M.cap)), M.restrict(Dx(self.J, M.cap))
        self.dI = (It, Ix)
        self.dJ = (Jt, Jx)
        det = sp.cancel(It * Jx - Ix * Jt)
        if det == 0:
            raise DegenerateFrameError(
                f"horizontal differentials of {self.I} and {self.J} are "
                f"dependent on the equation manifold"
            )
        self.det = det
        self.d_I = InvariantDerivation(sp.cancel(Jx / det), sp.cancel(-Jt / det), M)
        self.d_J = InvariantDerivation(sp.cancel(-Ix / det), sp.cancel(It / det), M)
        self.genericity = M.genericity.extended(det)

    def derivation(self, which: str) -> InvariantDerivation:
        if which == "I":
            return self.d_I
        if which == "J":
            return self.d_J
        raise SymcoreError(f"no derivation {which!r}")

    def duality_residuals(self) -> list[sp.Expr]:
        """[∂̂_I(I)−1, ∂̂_I(J), ∂̂_J(I), ∂̂_J(J)−1], all restricted; 0 where
        exactly zero, else normalized."""
        return [
            exact_residual(self.d_I(self.I) - 1),
            exact_residual(self.d_I(self.J)),
            exact_residual(self.d_J(self.I)),
            exact_residual(self.d_J(self.J) - 1),
        ]


@dataclass
class InvarianceReport:
    invariant: sp.Expr
    verdicts: list[tuple[VectorField, ZeroVerdict, sp.Expr]]

    def __bool__(self):
        return all(v.is_zero for _, v, _ in self.verdicts)


def check_invariant(e: sp.Expr, gens: list[VectorField], M: PdeManifold,
                    k: int | None = None, **zero_opts) -> InvarianceReport:
    """Check X^{(k)}(e)|_E = 0 for each generator.

    Formal-function families are covered automatically: residuals are
    tested identically in the formal function and its derivatives.
    """
    e = M.restrict(sp.sympify(e))
    verdicts = []
    for X in gens:
        verdict, residual = zero_certificate(
            M.restrict(apply_prolonged(X, e, k, cap=M.cap)), **zero_opts)
        verdicts.append((X, verdict, residual))
    return InvarianceReport(e, verdicts)


def check_commutation(fr: TresseFrame, M: PdeManifold, probe: sp.Expr,
                      **zero_opts) -> ZeroVerdict:
    """Zero-test [∂̂_I, ∂̂_J](probe) on the manifold."""
    lhs = fr.d_I(fr.d_J(probe)) - fr.d_J(fr.d_I(probe))
    return is_zero(M.restrict(lhs), **zero_opts)


# ---------------------------------------------------------------------------
# Syzygies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Syzygy:
    """A relation among invariant tokens, e.g. 2*H_I - J**2*H_J + 4*J*H."""

    lhs: sp.Expr

    def tokens(self) -> set[Symbol]:
        return {s for s in self.lhs.free_symbols if not s.name.startswith("_")}

    def realize(self, fr: TresseFrame, bindings: dict) -> sp.Expr:
        """Substitute jet realizations for every token.

        ``bindings`` maps base tokens (H, K, ...) to jet expressions;
        I and J come from the frame; derivative tokens are generated by
        applying the frame derivations to the base realizations.
        """
        return self.lhs.xreplace(realize_tokens(self.lhs, fr, bindings))


def realize_tokens(e: sp.Expr, fr: TresseFrame, bindings: dict) -> dict[Symbol, sp.Expr]:
    base = {Symbol(k) if isinstance(k, str) else k: fr.M.restrict(sp.sympify(v))
            for k, v in bindings.items()}
    base.setdefault(I_tok, fr.M.restrict(fr.I))
    if getattr(fr, "J", None) is not None:
        base.setdefault(J_tok, fr.M.restrict(fr.J))
    cache = dict(base)

    def realization(sym: Symbol) -> sp.Expr:
        if sym in cache:
            return cache[sym]
        split = _split_token(sym)
        if split is None:
            raise SymcoreError(f"token {sym} has no jet realization")
        stem, derivs = split
        parent = realization(Symbol(stem if len(derivs) == 1 else f"{stem}_{derivs[0]}"))
        out = fr.derivation(derivs[-1])(parent)
        cache[sym] = out
        return out

    out = {}
    for sym in sorted(e.free_symbols, key=lambda s: (len(s.name), s.name)):
        if sym in base or _split_token(sym) is not None:
            out[sym] = realization(sym)
    return out


def check_syzygy(s: Syzygy, fr: TresseFrame, bindings: dict, M: PdeManifold | None = None,
                 **zero_opts) -> ZeroVerdict:
    """Realize the syzygy on the manifold and zero-test it."""
    M = M or fr.M
    return is_zero(M.restrict(s.realize(fr, bindings)), **zero_opts)


@dataclass(frozen=True)
class QuotientSolution:
    """A solution of a first-order quotient.

    Either explicit, H = h(I, J) (``h`` given, ``implicit`` None), or
    implicit, Φ(I, J, H) = 0 with Φ_H ≠ 0 on the working domain.
    """

    h: sp.Expr | None = None
    implicit: sp.Expr | None = None
    base: Symbol = H_tok

    def token_substitution(self) -> dict[Symbol, sp.Expr]:
        b = self.base.name
        if self.h is not None:
            h = sp.sympify(self.h)
            return {
                Symbol(f"{b}_I"): h.diff(I_tok),
                Symbol(f"{b}_J"): h.diff(J_tok),
                self.base: h,
            }
        phi = sp.sympify(self.implicit)
        dH = phi.diff(self.base)
        return {
            Symbol(f"{b}_I"): -phi.diff(I_tok) / dH,
            Symbol(f"{b}_J"): -phi.diff(J_tok) / dH,
        }


def check_quotient_solution(s: Syzygy, sol: QuotientSolution, **zero_opts) -> ZeroVerdict:
    """Verify that a closed-form solution satisfies the syzygy identically.

    Works at the token level (functions of I, J and formal parameters),
    no jet realization involved. The residual is zero-tested exactly; an
    implicit solution may instead annihilate it only modulo Φ = 0, which
    is decided exactly when Φ is polynomial in the base token. Only a
    claim that neither test proves is normalized and sampled.
    """
    residual = s.lhs.xreplace(sol.token_substitution())
    if exact_zero(residual):
        return ZeroVerdict(True, "deterministic")
    rem = None
    phi = None if sol.implicit is None else sp.sympify(sol.implicit)
    if phi is not None and phi.is_polynomial(sol.base):
        num, _ = sp.fraction(sp.together(residual))
        _, rem = sp.div(sp.expand(num), sp.expand(phi), sol.base)
        if exact_zero(rem):
            return ZeroVerdict(True, "deterministic")
    verdict = is_zero(normalize(residual), **zero_opts)
    if verdict.is_zero or rem is None:
        return verdict
    return is_zero(normalize(rem), **zero_opts)


# ---------------------------------------------------------------------------
# Discovery
# ---------------------------------------------------------------------------


@dataclass
class DiscoveryResult:
    syzygies: list[Syzygy]
    spurious: list[sp.Expr] = field(default_factory=list)

    def __iter__(self):
        return iter(self.syzygies)

    def __len__(self):
        return len(self.syzygies)


def _random_rational(rng: random.Random) -> sp.Rational:
    return sp.Rational(rng.randint(-30, 30), rng.randint(1, 7))


def discover_syzygy(invariants: dict[str, sp.Expr], fr: TresseFrame, M: PdeManifold,
                    degree: int = 3, seed: int = 7, max_retries: int = 40) -> DiscoveryResult:
    """Finite-ansatz search for relations among invariants.

    ``invariants`` names the higher invariants (e.g. {"H": u_xx}); the
    token set is I, J, the named invariants and their first Tresse
    derivatives. All monomials of total degree ≤ ``degree`` are evaluated
    at random rational points of the manifold and a nullspace basis is
    extracted, normalized by reduced row echelon form, and re-verified
    symbolically. Candidates failing symbolic verification are returned
    in ``spurious``, never silently.
    """
    if degree > 4:
        raise SymcoreError("ansatz degree capped at 4")
    rng = random.Random(seed)
    bindings = {Symbol(name): M.restrict(sp.sympify(e)) for name, e in invariants.items()}

    realizations: dict[Symbol, sp.Expr] = {
        I_tok: M.restrict(fr.I),
        J_tok: M.restrict(fr.J),
    }
    realizations.update(bindings)
    for name in invariants:
        realizations[Symbol(f"{name}_I")] = fr.d_I(bindings[Symbol(name)])
        realizations[Symbol(f"{name}_J")] = fr.d_J(bindings[Symbol(name)])

    tokens = sorted(realizations.keys(), key=lambda s: (len(s.name), s.name))
    monomials = []
    for d in range(degree + 1):
        for combo in itertools.combinations_with_replacement(tokens, d):
            monomials.append(sp.Mul(*combo))

    free = sorted(
        set().union(*(r.free_symbols for r in realizations.values())),
        key=lambda s: s.name,
    )
    n_points = len(monomials) + 10
    rows = []
    attempts = 0
    while len(rows) < n_points:
        attempts += 1
        if attempts > n_points + max_retries:
            raise SymcoreError("could not sample enough generic points")
        point = {s: _random_rational(rng) for s in free}
        try:
            vals = {tok: sp.cancel(r.xreplace(point)) for tok, r in realizations.items()}
        except ZeroDivisionError:
            continue
        if any(v.has(sp.zoo, sp.nan, sp.oo) or not v.is_Rational for v in vals.values()):
            continue
        rows.append([m.xreplace(vals) for m in monomials])

    null = sp.Matrix(rows).nullspace()
    if not null:
        return DiscoveryResult([])
    basis = sp.Matrix([list(v) for v in null])
    basis, _ = basis.rref()
    result = DiscoveryResult([])
    for r in range(basis.rows):
        coeffs = basis.row(r)
        if all(c == 0 for c in coeffs):
            continue
        lhs = sp.Add(*[c * m for c, m in zip(coeffs, monomials)])
        candidate = Syzygy(lhs)
        if check_syzygy(candidate, fr, bindings, M):
            result.syzygies.append(candidate)
        else:
            result.spurious.append(lhs)
    return result
