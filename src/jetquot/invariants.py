"""Differential invariants, Tresse frames and differential syzygies.

Syzygies are written over *token* symbols: I, J, the higher invariants
(H, K) and derivative tokens like H_I, K_J, H_IJ. A token expression is
turned back into a jet expression by substituting each token's
realization on the equation manifold; derivative tokens are produced by
applying the frame's dual derivations.
"""

from __future__ import annotations

import itertools
import math
import random
import re
from dataclasses import dataclass, field

import sympy as sp
from sympy import Symbol

from .jetcalc import Dt, Dx, VectorField, apply_prolonged
from .pde import PdeManifold
from .symcore import (
    SymcoreError,
    ZeroVerdict,
    _ring_leaves,
    _RingWalk,
    _xreplace,
    differentiate,
    exact_zero,
    is_zero,
)

# Token symbols for writing syzygies. First-order derivative tokens are
# X_I / X_J; second-order ones X_II, X_IJ, X_JJ (mixed partials commute).
I_tok, J_tok, H_tok, K_tok = sp.symbols("I J H K")

_DERIV_TOKEN = re.compile(r"^([A-Z])_([IJ]{1,2})$")


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
        """The restricted derivative, in no normal form: the zero test
        reduces it once, in the ring."""
        return self.M.restrict(
            self.alpha * Dt(e, self.M.cap) + self.beta * Dx(e, self.M.cap)
        )

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
        det = It * Jx - Ix * Jt
        if exact_zero(det):
            raise DegenerateFrameError(
                f"horizontal differentials of {self.I} and {self.J} are "
                f"dependent on the equation manifold"
            )
        self.det = det
        self.d_I = InvariantDerivation(Jx / det, -Jt / det, M)
        self.d_J = InvariantDerivation(-Ix / det, It / det, M)

    def derivation(self, which: str) -> InvariantDerivation:
        if which == "I":
            return self.d_I
        if which == "J":
            return self.d_J
        raise SymcoreError(f"no derivation {which!r}")

    def duality_verdicts(self) -> list[ZeroVerdict]:
        """Zero tests of ∂̂_I(I) = 1, ∂̂_I(J) = 0, ∂̂_J(I) = 0 and
        ∂̂_J(J) = 1 on the manifold."""
        pairs = [(self.d_I, self.I, 1), (self.d_I, self.J, 0),
                 (self.d_J, self.I, 0), (self.d_J, self.J, 1)]
        return [is_zero(d(f) - c) for d, f, c in pairs]

    def duality_residuals(self) -> list[sp.Expr]:
        """The certificates of the duality identities."""
        return [v.residual for v in self.duality_verdicts()]


@dataclass
class InvarianceReport:
    invariant: sp.Expr
    verdicts: list[tuple[VectorField, ZeroVerdict]]

    def __bool__(self):
        return all(v.is_zero for _, v in self.verdicts)


def check_invariant(e: sp.Expr, gens: list[VectorField], M: PdeManifold) -> InvarianceReport:
    """Check X^{(k)}(e)|_E = 0 for each generator, k the order of e.

    Formal-function families are covered automatically: residuals are
    tested identically in the formal function and its derivatives.
    """
    e = M.restrict(sp.sympify(e))
    return InvarianceReport(e, [(X, is_zero(M.restrict(apply_prolonged(X, e, cap=M.cap))))
                                for X in gens])


def check_commutation(fr: TresseFrame, M: PdeManifold, probe: sp.Expr) -> ZeroVerdict:
    """Zero-test [∂̂_I, ∂̂_J](probe) on the manifold."""
    lhs = fr.d_I(fr.d_J(probe)) - fr.d_J(fr.d_I(probe))
    return is_zero(M.restrict(lhs))


# ---------------------------------------------------------------------------
# Syzygies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Syzygy:
    """A relation among invariant tokens, e.g. 2*H_I - J**2*H_J + 4*J*H."""

    lhs: sp.Expr

    def realize(self, fr: TresseFrame, bindings: dict) -> sp.Expr:
        """Substitute jet realizations for every token.

        ``bindings`` maps base tokens (H, K, ...) to jet expressions;
        I and J come from the frame; derivative tokens are generated by
        applying the frame derivations to the base realizations.
        """
        return _xreplace(self.lhs, realize_tokens(self.lhs, fr, bindings).get)


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


def check_syzygy(s: Syzygy, fr: TresseFrame, bindings: dict,
                 M: PdeManifold | None = None) -> ZeroVerdict:
    """Realize the syzygy on the manifold and zero-test it."""
    M = M or fr.M
    return is_zero(M.restrict(s.realize(fr, bindings)))


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
                Symbol(f"{b}_I"): differentiate(h, I_tok),
                Symbol(f"{b}_J"): differentiate(h, J_tok),
                self.base: h,
            }
        phi = sp.sympify(self.implicit)
        dH = differentiate(phi, self.base)
        return {
            Symbol(f"{b}_I"): -differentiate(phi, I_tok) / dH,
            Symbol(f"{b}_J"): -differentiate(phi, J_tok) / dH,
        }


def check_quotient_solution(s: Syzygy, sol: QuotientSolution) -> ZeroVerdict:
    """Verify that a closed-form solution satisfies the syzygy identically.

    Works at the token level (functions of I, J and formal parameters),
    no jet realization involved. An implicit solution Φ = 0 need annihilate
    the residual only where Φ vanishes: the zero test judges, in its own
    ring, the pseudo-remainder of the residual's numerator by Φ's in the
    base token (``is_zero(..., modulo=(base, Φ))``), and that remainder is
    the certificate of a verdict that is not deterministic. A Φ in which
    the base token occurs only inside kernels (roots, formal functions,
    exp) reduces nothing.
    """
    residual = s.lhs.xreplace(sol.token_substitution())
    modulo = None if sol.implicit is None else (sol.base, sp.sympify(sol.implicit))
    return is_zero(residual, modulo=modulo)


# ---------------------------------------------------------------------------
# Discovery
# ---------------------------------------------------------------------------


@dataclass
class DiscoveryResult:
    syzygies: list[Syzygy]
    spurious: list[sp.Expr] = field(default_factory=list)


#: discovery samples and solves modulo _P1 and confirms each lifted
#: vector modulo _P2, at _CONFIRM_ROWS fresh points
_P1 = 2**61 - 1
_P2 = 2**62 - 57
_CONFIRM_ROWS = 4
#: points that may be redrawn, beyond those needed, for a vanishing denominator
_MAX_RETRIES = 40


class _ModularTokens:
    """Token realizations as num / Π base**power over the ring of their
    generators, converted once by the ring walk of the zero test's stage 1
    and evaluated at random points modulo a prime."""

    def __init__(self, realizations: dict[Symbol, sp.Expr]):
        leaves: set = set()
        for tok, r in realizations.items():
            found = _ring_leaves(r, set())
            kernel = next((g for g in found if not g.is_Symbol), None)
            if kernel is not None:
                raise SymcoreError(
                    f"token {tok} is not a rational function of jets: it contains {kernel}")
            leaves |= found
        self.gens = sorted(leaves, key=lambda s: s.name)
        walk = _RingWalk(self.gens)
        self.parts = [walk(r) for r in realizations.values()]

    def sample(self, p: int, rng: random.Random) -> list[int] | None:
        """Token values at a random point mod p; None where a denominator
        base vanishes mod p."""
        point = [rng.randrange(p) for _ in self.gens]
        values = []
        for num, den in self.parts:
            d = 1
            for base, power in den.items():
                b = _eval_mod(base, point, p)
                if not b:
                    return None
                d = d * pow(b, power, p) % p
            values.append(_eval_mod(num, point, p) * pow(d, -1, p) % p)
        return values


def _eval_mod(poly, point: list[int], p: int) -> int:
    total = 0
    for monom, c in poly.items():
        term = c.numerator * pow(c.denominator, -1, p)
        for v, e in zip(point, monom):
            if e:
                term = term * pow(v, e, p) % p
        total += term
    return total % p


def _sample_rows(tokens: _ModularTokens, monomials: list[tuple[int, ...]], p: int,
                 count: int, rng: random.Random) -> list[list[int]]:
    """``count`` rows of monomial values mod p, at points where no
    denominator vanishes."""
    rows = []
    for _ in range(count + _MAX_RETRIES):
        values = tokens.sample(p, rng)
        if values is None:
            continue
        rows.append([math.prod(values[i] for i in m) % p for m in monomials])
        if len(rows) == count:
            return rows
    raise SymcoreError("could not sample enough generic points")


def _rref_mod(rows: list[list[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """(nonzero rows of the reduced row echelon form over GF(p), pivot columns)."""
    a = [list(r) for r in rows]
    pivots: list[int] = []
    for c in range(len(a[0]) if a else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = pow(a[r][c], -1, p)
        a[r] = pivot = [v * inv % p for v in a[r]]
        # the pivot row is zero left of c, so only columns from c change
        tail = pivot[c:]
        for i, row in enumerate(a):
            if i != r and row[c]:
                f = row[c]
                row[c:] = [(v - f * w) % p for v, w in zip(row[c:], tail)]
        pivots.append(c)
        if len(pivots) == len(a):
            break
    return a[:len(pivots)], pivots


def _nullspace_mod(rows: list[list[int]], p: int) -> list[list[int]]:
    """A basis of {v : rows·v = 0} over GF(p) in reduced row echelon form,
    so each vector's first nonzero entry is 1."""
    ncols = len(rows[0])
    reduced, pivots = _rref_mod(rows, p)
    basis = []
    for f in sorted(set(range(ncols)) - set(pivots)):
        v = [0] * ncols
        v[f] = 1
        for row, c in zip(reduced, pivots):
            v[c] = -row[f] % p
        basis.append(v)
    return _rref_mod(basis, p)[0]


def _rational_reconstruction(a: int, p: int) -> sp.Rational | None:
    """The n/d ≡ a (mod p) with |n|, d ≤ √(p/2), or None when there is none
    (Wang's half-extended Euclidean algorithm); the bound makes it unique."""
    bound = math.isqrt(p // 2)
    r0, r1, s0, s1 = p, a % p, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if abs(s1) > bound or math.gcd(r1, s1) != 1:
        return None
    return sp.Rational(r1, s1)


def discover_syzygy(invariants: dict[str, sp.Expr], fr: TresseFrame, M: PdeManifold,
                    degree: int = 3, seed: int = 7) -> DiscoveryResult:
    """Finite-ansatz search for relations among invariants.

    ``invariants`` names the higher invariants (e.g. {"H": u_xx}); the
    token set is I, J, the named invariants and their first Tresse
    derivatives, each of which must be a rational function of jets. All
    monomials of total degree ≤ ``degree`` are evaluated at random
    points modulo a prime p₁ = 2⁶¹−1, and the nullspace is found over
    GF(p₁) in reduced row echelon form (first nonzero coefficient 1).
    Each basis vector is lifted to QQ by rational reconstruction and
    confirmed at fresh points modulo p₂ = 2⁶²−57; a vector that passes is
    re-verified exactly by :func:`check_syzygy`. Candidates that do not
    lift (reported with their residues mod p₁ as coefficients), fail the
    second prime or fail exact verification are returned in
    ``spurious``, never silently.
    """
    if degree > 4:
        raise SymcoreError("ansatz degree capped at 4")
    rng = random.Random(seed)
    tokens = [I_tok, J_tok]
    for name in invariants:
        tokens += sp.symbols(f"{name} {name}_I {name}_J")
    realizations = realize_tokens(sp.Add(*tokens), fr, invariants)
    modular = _ModularTokens(realizations)
    tokens = list(realizations)
    combos = [combo for d in range(degree + 1)
              for combo in itertools.combinations_with_replacement(range(len(tokens)), d)]
    monomials = [sp.Mul(*[tokens[i] for i in combo]) for combo in combos]

    rows = _sample_rows(modular, combos, _P1, len(combos) + 10, rng)
    basis = _nullspace_mod(rows, _P1)
    if not basis:
        return DiscoveryResult([])
    confirm = _sample_rows(modular, combos, _P2, _CONFIRM_ROWS, rng)
    result = DiscoveryResult([])
    for vector in basis:
        coeffs = [_rational_reconstruction(c, _P1) for c in vector]
        if None in coeffs:
            residues = [c if c <= _P1 // 2 else c - _P1 for c in vector]
            result.spurious.append(sp.Add(*[c * m for c, m in zip(residues, monomials)]))
            continue
        candidate = Syzygy(sp.Add(*[c * m for c, m in zip(coeffs, monomials)]))
        lifted = [c.p * pow(c.q, -1, _P2) % _P2 for c in coeffs]
        if any(sum(c * v for c, v in zip(lifted, row)) % _P2 for row in confirm):
            result.spurious.append(candidate.lhs)
        elif check_syzygy(candidate, fr, invariants, M):
            result.syzygies.append(candidate)
        else:
            result.spurious.append(candidate.lhs)
    return result
