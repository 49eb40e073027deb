"""Differential invariants, Tresse frames and differential syzygies.

Syzygies are written over *token* symbols: I, J, the higher invariants
(H, K) and derivative tokens like H_I, K_J, H_IJ. A token expression is
turned back into a jet expression by substituting each token's
realization on the equation manifold; derivative tokens are produced by
applying the frame's dual derivations.

A frame computes in its own differential ring (:class:`FrameRing`): a
fraction ring over ZZ whose generators are t, x, the parametric jets and
the kernels, with D_t and D_x restricted to the manifold. Frame
construction, token realization, duality, commutation and syzygy claims
stay in that ring and reach the zero test as ring elements; no
expression is built on the way.
"""

from __future__ import annotations

import itertools
import random
import re
from dataclasses import dataclass, field

import sympy as sp
from sympy import Symbol

from .jetcalc import VectorField, apply_prolonged, total_leaf
from .modular import _eval_mod, _nullspace_mod, _rational_reconstruction
from .pde import PdeManifold
from .symcore import (
    _KERNELS,
    JetVar,
    SymcoreError,
    ZeroVerdict,
    _Derivation,
    _DiffRing,
    _xreplace,
    differentiate,
    is_zero,
    jet_orders,
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


class FrameRing(_DiffRing):
    """The differential ring of a frame on the manifold M: D_t and D_x
    take the total derivative's values on t, x and the jets, and a
    principal jet is not a generator but its rhs, walked from
    ``M.rhs((0, 0))`` once and derived from its lower neighbour, t first,
    as ``PdeManifold.rhs`` makes it; so both are restricted to M."""

    def __init__(self, M: PdeManifold):
        super().__init__()
        self.M = M
        self.Dt = _Derivation(self, total_leaf("t", M.cap))
        self.Dx = _Derivation(self, total_leaf("x", M.cap))
        self.rhs_forms = {(0, 0): self.walk(M.rhs((0, 0)))}
        #: token realizations, keyed by (jet expression of the stem, derivation word)
        self.tokens: dict[tuple, tuple] = {}

    def substitute(self, sym):
        ij = jet_orders(sym) if sym.is_Symbol else None
        if ij is None or self.M.is_parametric(JetVar(*ij)):
            return None
        p = self.M.principal
        return self._rhs((ij[0] - p.t_order, ij[1] - p.x_order))

    def _rhs(self, offset: tuple[int, int]):
        out = self.rhs_forms.get(offset)
        if out is None:
            i, j = offset
            if i > 0:
                out = self.Dt(self._rhs((i - 1, j)))
            else:
                out = self.Dx(self._rhs((i, j - 1)))
            self.rhs_forms[offset] = out
        return out

    def restricted(self, e: sp.Expr):
        """The element of a jet expression on the manifold."""
        return self.walk(self.M.restrict(sp.sympify(e)))


class InvariantDerivation:
    """α D_t + β D_x on a frame's ring, α and β elements of it."""

    def __init__(self, alpha, beta, ring: FrameRing):
        self.alpha, self.beta, self.ring = alpha, beta, ring

    def element(self, p):
        """The derivative of an element of the ring."""
        R = self.ring
        return R.add(R.mul(self.alpha, R.Dt(p)), R.mul(self.beta, R.Dx(p)))

    def apply(self, e: sp.Expr) -> sp.Expr:
        """The derivative of a jet expression on the manifold, computed in
        the ring and unkernelized."""
        return self.ring.expr(self.element(self.ring.restricted(e)))


class Frame:
    """What token realization and the frame checks need: the ``ring``, the
    invariants ``I`` and ``J`` (None for a single derivation) on the
    manifold ``M``, the ``derivations`` by name, and the ``duals``
    (derivation, invariant element, value) of the duality identities."""

    def derivation(self, which: str) -> InvariantDerivation:
        if which not in self.derivations:
            raise SymcoreError(f"no derivation {which!r} in this frame")
        return self.derivations[which]

    def duality_verdicts(self) -> list[ZeroVerdict]:
        R = self.ring
        return [is_zero(R.claim(R.add(d.element(f), R.walk(-c)))) for d, f, c in self.duals]


class TresseFrame(Frame):
    """Dual derivations ∂̂_I, ∂̂_J of a pair of invariants (I, J).

    With It = D_t(I)|_E etc., the dual frame of (dI, dJ) is
        ∂̂_I = (Jx D_t − Jt D_x)/Δ,   ∂̂_J = (−Ix D_t + It D_x)/Δ,
    where Δ = It Jx − Ix Jt must not vanish identically: the frame is
    degenerate when the numerator of Δ in the ring is zero.
    """

    def __init__(self, I: sp.Expr, J: sp.Expr, M: PdeManifold):
        self.I, self.J, self.M = sp.sympify(I), sp.sympify(J), M
        self.ring = R = FrameRing(M)
        i, j = R.restricted(self.I), R.restricted(self.J)
        R.tokens[self.I, ""], R.tokens[self.J, ""] = i, j
        It, Ix, Jt, Jx = R.Dt(i), R.Dx(i), R.Dt(j), R.Dx(j)
        det = R.add(R.mul(It, Jx), R.neg(R.mul(Ix, Jt)))
        if not R.lift(det)[0]:
            raise DegenerateFrameError(f"horizontal differentials of {self.I} and {self.J} "
                                       f"are dependent on the equation manifold")
        self.det = det
        inv = R._invert(R.lift(det))
        self.d_I = InvariantDerivation(R.mul(Jx, inv), R.neg(R.mul(Jt, inv)), R)
        self.d_J = InvariantDerivation(R.neg(R.mul(Ix, inv)), R.mul(It, inv), R)
        self.derivations = {"I": self.d_I, "J": self.d_J}
        self.duals = [(self.d_I, i, 1), (self.d_I, j, 0), (self.d_J, i, 0), (self.d_J, j, 1)]

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


def _on_frame(fr: Frame, M: PdeManifold | None) -> FrameRing:
    if M is not None and M is not fr.M:
        raise SymcoreError("a frame's claims are checked on the frame's own manifold")
    return fr.ring


def check_commutation(fr: Frame, M: PdeManifold, probe: sp.Expr) -> ZeroVerdict:
    """Zero-test [∂̂_I, ∂̂_J](probe) on the manifold M of the frame."""
    R = _on_frame(fr, M)
    p = R.restricted(probe)
    lhs = R.add(fr.d_I.element(fr.d_J.element(p)), R.neg(fr.d_J.element(fr.d_I.element(p))))
    return is_zero(R.claim(lhs))


# ---------------------------------------------------------------------------
# Syzygies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Syzygy:
    """A relation among invariant tokens, e.g. 2*H_I - J**2*H_J + 4*J*H."""

    lhs: sp.Expr


def _token_elements(e: sp.Expr, fr: Frame, bindings: dict) -> dict[Symbol, tuple]:
    """The ring element of each token of e, by name length, then name:
    ``bindings`` maps base tokens (H, K, ...) to jet expressions, I and J
    come from the frame, and a derivative token is the frame derivation
    of its parent token. Each is realized once per frame."""
    R = fr.ring
    base = {Symbol(k) if isinstance(k, str) else k: sp.sympify(v) for k, v in bindings.items()}
    base.setdefault(I_tok, fr.I)
    if fr.J is not None:
        base.setdefault(J_tok, fr.J)

    def realization(stem: Symbol, word: str):
        if stem not in base:
            raise SymcoreError(f"token {stem} has no jet realization")
        key = (base[stem], word)
        out = R.tokens.get(key)
        if out is None:
            if word:
                out = fr.derivation(word[-1]).element(realization(stem, word[:-1]))
            else:
                out = R.restricted(base[stem])
            R.tokens[key] = out
        return out

    out = {}
    for sym in sorted(e.free_symbols, key=lambda s: (len(s.name), s.name)):
        split = (sym.name, "") if sym in base else _split_token(sym)
        if split is not None:
            out[sym] = realization(Symbol(split[0]), split[1])
    return out


def realize_tokens(e: sp.Expr, fr: Frame, bindings: dict) -> dict[Symbol, sp.Expr]:
    """The jet realization of each token of e on the frame's manifold."""
    return {sym: fr.ring.expr(r) for sym, r in _token_elements(e, fr, bindings).items()}


def check_syzygy(s: Syzygy, fr: Frame, bindings: dict,
                 M: PdeManifold | None = None) -> ZeroVerdict:
    """Realize the syzygy in the frame's ring and zero-test it.

    A token outside every kernel takes its ring element; inside a kernel
    (a formal function, exp, a power) it takes its realization as an
    expression, and the kernel is walked into the ring.
    """
    R = _on_frame(fr, M)
    tokens = _token_elements(s.lhs, fr, bindings)

    def inside(n):
        if not (isinstance(n, _KERNELS) or (n.is_Pow and not n.exp.is_Integer)):
            return None
        held = n.free_symbols & tokens.keys()
        return n.xreplace({t: R.expr(tokens[t]) for t in held}) if held else n

    return is_zero(R.claim(R.walk(_xreplace(s.lhs, inside), tokens)))


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
    """Token realizations, elements num / (c * Π base**power) of the
    frame's ring, evaluated at random points modulo a prime."""

    def __init__(self, ring: FrameRing, realizations: dict[Symbol, tuple]):
        self.parts = [ring.lift(r) for r in realizations.values()]
        used: set[int] = set()
        for tok, r in zip(realizations, self.parts):
            for i in sorted(ring.used(r)):
                kernel = ring.kernel(ring.gens[i])
                if kernel is not None:
                    raise SymcoreError(f"token {tok} is not a rational function of jets: "
                                       f"it contains {kernel}")
                used.add(i)
        # values are drawn in name order, one per generator in use
        self.order = sorted(used, key=lambda i: str(ring.gens[i]))
        self.ngens = len(ring.gens)

    def sample(self, p: int, rng: random.Random) -> list[int] | None:
        """Token values at a random point mod p; None where a denominator
        base vanishes mod p."""
        point = [0] * self.ngens
        for i in self.order:
            point[i] = rng.randrange(p)
        values = []
        for num, den, c in self.parts:
            d = c % p
            for base, power in den.items():
                b = _eval_mod(base, point, p)
                if not b:
                    return None
                d = d * pow(b, power, p) % p
            if not d:
                return None
            values.append(_eval_mod(num, point, p) * pow(d, -1, p) % p)
        return values


def _sample_rows(tokens: _ModularTokens, monomials: list[tuple[int, ...]], p: int,
                 count: int, rng: random.Random) -> list[list[int]]:
    """``count`` rows of monomial values mod p, at points where no
    denominator vanishes. ``monomials`` starts with (), and each comes
    after its prefix, whose value times one token value is its own."""
    index = {m: k for k, m in enumerate(monomials)}
    steps = [(index[m[:-1]], m[-1]) for m in monomials[1:]]
    rows = []
    for _ in range(count + _MAX_RETRIES):
        values = tokens.sample(p, rng)
        if values is None:
            continue
        rows.append(row := [1])
        for k, i in steps:
            row.append(row[k] * values[i] % p)
        if len(rows) == count:
            return rows
    raise SymcoreError("could not sample enough generic points")


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
    realizations = _token_elements(sp.Add(*tokens), fr, invariants)
    modular = _ModularTokens(fr.ring, realizations)
    tokens = list(realizations)
    combos = [combo for d in range(degree + 1)
              for combo in itertools.combinations_with_replacement(range(len(tokens)), d)]

    def expr(coeffs) -> sp.Expr:
        return sp.Add(*[c * sp.Mul(*[tokens[i] for i in m]) for c, m in zip(coeffs, combos) if c])

    rows = _sample_rows(modular, combos, _P1, len(combos) + 10, rng)
    basis = _nullspace_mod(rows, _P1)
    if not basis:
        return DiscoveryResult([])
    confirm = _sample_rows(modular, combos, _P2, _CONFIRM_ROWS, rng)
    result = DiscoveryResult([])
    for vector in basis:
        coeffs = [_rational_reconstruction(c, _P1) for c in vector]
        if None in coeffs:
            result.spurious.append(expr([c if c <= _P1 // 2 else c - _P1 for c in vector]))
            continue
        candidate = Syzygy(expr(coeffs))
        lifted = [c.p * pow(c.q, -1, _P2) % _P2 for c in coeffs]
        confirmed = not any(sum(c * v for c, v in zip(lifted, row)) % _P2 for row in confirm)
        if confirmed and check_syzygy(candidate, fr, invariants, M):
            result.syzygies.append(candidate)
        else:
            result.spurious.append(candidate.lhs)
    return result
