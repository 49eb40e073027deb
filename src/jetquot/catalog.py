"""Executable catalog of equations with known symmetry quotients.

Each entry bundles a PDE, a symmetry algebra, generating differential
invariants, a Tresse frame, the differential syzygies (the quotient PDE)
and — where available — the closed-form solution of the quotient plus the
reconstructed u(t, x), both expressions in the entry's parameters and the
formal functions g and C. ``verify_entry`` replays every claim
symbolically; ``instantiate`` produces concrete solutions;
``characteristics_solve`` integrates first-order quotients numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import sympy as sp
from sympy import Symbol, exp, log

from .invariants import (
    Frame,
    FrameRing,
    H_tok,
    I_tok,
    InvariantDerivation,
    J_tok,
    K_tok,
    QuotientSolution,
    Syzygy,
    TresseFrame,
    check_commutation,
    check_invariant,
    check_quotient_solution,
    check_syzygy,
)
from .jetcalc import VectorField
from .pde import PdeManifold, check_symmetry, solution_residual
from .symcore import (
    EvalError,
    SymcoreError,
    ZeroVerdict,
    _bind,
    bind_formal,
    compile_numeric,
    exact_zero,
    formal,
    formal_integral,
    is_zero,
    jet,
    t,
    x,
)

u = jet(0, 0)
u_t, u_x = jet(1, 0), jet(0, 1)
u_tt, u_tx, u_xx = jet(2, 0), jet(1, 1), jet(0, 2)
u_xxx, u_xxxx, u_xxxxx, u_xxxxxx = jet(0, 3), jet(0, 4), jet(0, 5), jet(0, 6)

HI, HJ = Symbol("H_I"), Symbol("H_J")
HII, HIJ, HJJ = Symbol("H_II"), Symbol("H_IJ"), Symbol("H_JJ")
KI, KJ = Symbol("K_I"), Symbol("K_J")

A_par = Symbol("A")

g_ = formal("g")
C_ = formal("C")
f_ = formal("f")


class UnknownEntryError(SymcoreError):
    pass


class ParameterError(SymcoreError):
    pass


class SingleFrame(Frame):
    """Frame of a quotient with a single independent invariant: only the
    derivation dual to I, α D_t + β D_x, exists."""

    def __init__(self, I: sp.Expr, alpha: sp.Expr, beta: sp.Expr, M: PdeManifold):
        self.I, self.J, self.M = sp.sympify(I), None, M
        self.ring = R = FrameRing(M)
        self.d_I = InvariantDerivation(R.restricted(alpha), R.restricted(beta), R)
        self.derivations = {"I": self.d_I}
        self.duals = [(self.d_I, R.restricted(self.I), 1)]

    def duality_residuals(self) -> list[sp.Expr]:
        return [v.residual for v in self.duality_verdicts()]


@dataclass(frozen=True)
class SolutionSpec:
    """A closed-form quotient solution attached to one syzygy."""

    syzygy_index: int
    solution: QuotientSolution
    # formal functions to pin before checking (e.g. a vanishing γ)
    pre_bindings: tuple = ()

    def specialized_syzygy(self, syzygies) -> Syzygy:
        lhs = syzygies[self.syzygy_index].lhs
        for name, params, expr in self.pre_bindings:
            lhs = bind_formal(lhs, name, params, expr)
        return Syzygy(lhs)


@dataclass(frozen=True)
class Reconstruction:
    """u(t, x) recovered from the quotient solution: an expression in the
    entry's parameters and the formal functions g and C."""

    description: str
    u: sp.Expr


@dataclass
class CatalogEntry:
    name: str
    description: str
    F: sp.Expr
    principal: tuple[int, int]
    gens: list[VectorField]
    invariants: dict[str, sp.Expr]  # I and J span the frame
    single_derivation: tuple[sp.Expr, sp.Expr] | None = None  # (α, β) when no J
    syzygies: list[Syzygy] = field(default_factory=list)
    solutions: list[SolutionSpec] = field(default_factory=list)
    reconstruction: Reconstruction | None = None
    validity: list[sp.Expr] = field(default_factory=list)
    parameters: dict[str, Symbol] = field(default_factory=dict)
    characteristic: tuple[int, Symbol] | None = None  # (syzygy index, base token)
    commutation_probe: sp.Expr | None = None

    @cached_property
    def manifold(self) -> PdeManifold:
        return PdeManifold(self.F, self.principal)

    @cached_property
    def frame(self):
        I = self.invariants["I"]
        if self.single_derivation is not None:
            return SingleFrame(I, *self.single_derivation, self.manifold)
        return TresseFrame(I, self.invariants["J"], self.manifold)

    def higher_invariants(self) -> dict[str, sp.Expr]:
        return {n: e for n, e in self.invariants.items() if n not in ("I", "J")}

    def constraint(self, spec: SolutionSpec) -> sp.Expr:
        """The quotient solution as a differential constraint in jets."""
        sol = spec.solution
        tokens = {Symbol(n): e for n, e in self.invariants.items()}
        if sol.h is not None:
            expr = sol.base - sol.h
        else:
            expr = sol.implicit
        return sp.sympify(expr).xreplace(
            {k: self.manifold.restrict(v) for k, v in tokens.items()}
        )


@dataclass
class Stage:
    stage: str
    subject: str
    verdict: str  # "exact" | "probabilistic" | "fail"
    residual: sp.Expr | None = None

    @property
    def passed(self) -> bool:
        return self.verdict in ("exact", "probabilistic")


@dataclass
class VerificationReport:
    entry: str
    stages: list[Stage]

    @property
    def passed(self) -> bool:
        return all(s.passed for s in self.stages)

    def summary(self) -> str:
        lines = [f"[{self.entry}]"]
        for s in self.stages:
            mark = "ok " if s.passed else "FAIL"
            lines.append(f"  {mark} {s.stage:<18} {s.subject:<28} {s.verdict}")
        return "\n".join(lines)


def _stage(stage: str, subject: str, verdicts) -> Stage:
    """The worst of a stage's zero tests, with the certificate of the
    first test that failed (None when none did)."""
    exact = True
    for v in verdicts:
        if not v.is_zero:
            return Stage(stage, subject, "fail", v.residual)
        exact = exact and v.mode == "deterministic"
    return Stage(stage, subject, "exact" if exact else "probabilistic")


# ---------------------------------------------------------------------------
# Entry construction
# ---------------------------------------------------------------------------


def _formal_family(kind: int) -> VectorField:
    """The four infinite families f(t)∂_x+f'(t)∂_u, f∂_t−f'∂_u, f∂_t, f∂_u."""
    f, fp = f_(t), f_(t).diff(t)
    return {
        1: VectorField(0, f, fp),
        2: VectorField(f, 0, -fp),
        3: VectorField(f, 0, 0),
        4: VectorField(0, 0, f),
    }[kind]


def _entries() -> dict[str, CatalogEntry]:
    entries = {}

    def add(entry: CatalogEntry):
        entries[entry.name] = entry

    v, s, tau = sp.symbols("v s tau")

    # -- Burgers with the three-dimensional algebra --------------------------
    F_b = u_xx - u_t - u * u_x
    gens_h3 = [VectorField(1, 0, 0), VectorField(0, 1, 0), VectorField(0, t, 1)]
    S2 = Syzygy(J_tok * HI + H_tok * HJ - K_tok)
    S1 = Syzygy(
        (I_tok**2 * H_tok - 3 * I_tok * J_tok**2 + J_tok * K_tok - H_tok**2) * HI
        + J_tok * H_tok * KI + H_tok**2 * KJ
        - K_tok**2 + 3 * I_tok * J_tok * K_tok
        - 4 * I_tok * H_tok**2 - 3 * J_tok**2 * H_tok
    )
    S_one = Syzygy(
        J_tok**2 * HII + 2 * J_tok * H_tok * HIJ + H_tok**2 * HJJ
        + I_tok**2 * HI + 3 * I_tok * J_tok * HJ
        - 4 * I_tok * H_tok - 3 * J_tok**2
    )
    add(CatalogEntry(
        name="burgers-h3",
        description="Burgers equation under translations and the Galilean "
                    "boost; x-derivative invariants and a pair of first-order "
                    "syzygies (plus the single second-order form).",
        F=F_b, principal=(1, 0), gens=gens_h3,
        invariants={"I": u_x, "J": u_xx, "H": u_xxx, "K": u_xxxx},
        syzygies=[S2, S1, S_one],
        commutation_probe=u_xxx,
        validity=[u_xx],
    ))

    # -- Burgers with the full five-dimensional algebra ----------------------
    gens_full = gens_h3 + [
        VectorField(t**2, t * x, x - t * u),
        VectorField(2 * t, x, -u),
    ]
    I_a = u_xxx**3 / u_xx**4
    J_a = u_xxx * u_xxxx / u_xx**3
    H_a = u_xxxxx / u_xx**2
    K_a = u_xxx**2 * u_xxxxxx / u_xx**5
    S_app = Syzygy(
        I_tok**2 * (4 * I_tok - 3 * J_tok)**2 * HII
        + 2 * I_tok * (4 * I_tok - 3 * J_tok)
        * ((3 * J_tok - H_tok) * I_tok - J_tok**2) * HIJ
        + ((3 * J_tok - H_tok) * I_tok - J_tok**2)**2 * HJJ
        + I_tok * ((9 - 2 * I_tok) * I_tok + 6 * (I_tok - J_tok)**2) * HI
        - I_tok * (2 * (I_tok - J_tok) * H_tok - 10 * I_tok
                   + J_tok * (2 * J_tok - 3)) * HJ
        + 2 * (H_tok - 5) * I_tok**2 - 15 * I_tok * J_tok
    )
    S_K = Syzygy(
        K_tok + I_tok * (4 * I_tok - 3 * J_tok) * HI
        + ((3 * J_tok - H_tok) * I_tok - J_tok**2) * HJ
        - 2 * I_tok * H_tok
    )
    add(CatalogEntry(
        name="burgers-full",
        description="Burgers equation under its full five-dimensional point "
                    "symmetry algebra; order-six invariants, one second-order "
                    "syzygy and the elimination identity for K.",
        F=F_b, principal=(1, 0), gens=gens_full,
        invariants={"I": I_a, "J": J_a, "H": H_a, "K": K_a},
        syzygies=[S_app, S_K],
        validity=[u_xx, u_xxx],
    ))

    # -- Third-order ODE reduced by translations ------------------------------
    B_par, C2_par = sp.symbols("B C")
    add(CatalogEntry(
        name="ode-reduction",
        description="u_xxx = u_xx under translations in x and u: a single "
                    "invariant derivation, quotient H_I = 1 and the full "
                    "three-parameter solution u = Ax + B + C e^x.",
        F=u_xxx - u_xx, principal=(0, 3),
        gens=[VectorField(0, 1, 0), VectorField(0, 0, 1)],
        invariants={"I": u_x, "H": u_xx},
        single_derivation=(sp.Integer(0), 1 / u_xx),
        syzygies=[Syzygy(HI - 1)],
        solutions=[SolutionSpec(0, QuotientSolution(h=I_tok - A_par))],
        reconstruction=Reconstruction("u = A x + B + C e^x",
                                      A_par * x + B_par + C2_par * exp(x)),
        parameters={"A": A_par, "B": B_par, "C": C2_par},
        validity=[u_xx],
    ))

    # -- Hunter-Saxton ---------------------------------------------------------
    F_hs = u_tx + u * u_xx + u_x**2 / 2
    w_hs = 2 * J_tok / (2 - I_tok * J_tok)
    hs_quotient = Syzygy(2 * HI - J_tok**2 * HJ + 4 * J_tok * H_tok)
    hs_solution = QuotientSolution(
        implicit=16 * g_(w_hs) * H_tok - (2 - I_tok * J_tok)**4
    )
    add(CatalogEntry(
        name="hunter-saxton",
        description="The Hunter-Saxton equation (u_t + u u_x)_x = u_x^2/2 "
                    "under its infinite family f(t)∂_x + f'(t)∂_u; quotient "
                    "2 H_I - J^2 H_J + 4 J H = 0 and its general solution.",
        F=F_hs, principal=(1, 1), gens=[_formal_family(1)],
        invariants={"I": t, "J": u_x, "H": u_xx},
        syzygies=[hs_quotient],
        solutions=[SolutionSpec(0, hs_solution)],
        characteristic=(0, H_tok),
        commutation_probe=u_xx,
        validity=[u_xx, 2 - t * u_x],
    ))

    # -- family 1: f(t)∂_x + f'(t)∂_u -----------------------------------------
    al3 = formal("alpha", 3)
    al3_J = formal("alpha", 3, (0, 1, 0))
    al3_H = formal("alpha", 3, (0, 0, 1))
    a1_args = (I_tok, J_tok, H_tok)
    add(CatalogEntry(
        name="type1-general",
        description="u_tx + u u_xx + α(t, u_x, u_xx) = 0, the general "
                    "equation invariant under f(t)∂_x + f'(t)∂_u.",
        F=u_tx + u * u_xx + al3(t, u_x, u_xx), principal=(1, 1),
        gens=[_formal_family(1)],
        invariants={"I": t, "J": u_x, "H": u_xx},
        syzygies=[Syzygy(
            HI - (al3(*a1_args) - H_tok * al3_H(*a1_args)) * HJ
            + (J_tok + al3_J(*a1_args)) * H_tok
        )],
        validity=[u_xx],
    ))

    al1 = formal("alpha", 1)
    al1p = formal("alpha", 1, (1,))
    # antiderivatives entering the closed form, with base point 0
    int_inv_alpha = formal_integral(1 / al1(v), v, J_tok)
    int_rate = formal_integral((v + al1p(v)) / al1(v), v, J_tok)
    add(CatalogEntry(
        name="ex1.1",
        description="u_tx + u u_xx + α(u_x) = 0 (α = ε u_x² is a generalized "
                    "Hunter-Saxton equation); quotient solved by separation.",
        F=u_tx + u * u_xx + al1(u_x), principal=(1, 1),
        gens=[_formal_family(1)],
        invariants={"I": t, "J": u_x, "H": u_xx},
        syzygies=[Syzygy(
            HI - al1(J_tok) * HJ + (J_tok + al1p(J_tok)) * H_tok
        )],
        solutions=[SolutionSpec(0, QuotientSolution(
            h=exp(int_rate) / g_(int_inv_alpha + I_tok)
        ))],
        validity=[u_xx],
    ))

    al2 = formal("alpha", 2)
    al2_J = formal("alpha", 2, (0, 1))
    add(CatalogEntry(
        name="ex1.2",
        description="u_tx + u u_xx + α(t, u_x) u_xx = 0; the quotient is "
                    "linear in H after dividing by H².",
        F=u_tx + u * u_xx + al2(t, u_x) * u_xx, principal=(1, 1),
        gens=[_formal_family(1)],
        invariants={"I": t, "J": u_x, "H": u_xx},
        syzygies=[Syzygy(HI + (J_tok + al2_J(I_tok, J_tok) * H_tok) * H_tok)],
        solutions=[SolutionSpec(0, QuotientSolution(
            h=exp(-I_tok * J_tok) / (
                g_(J_tok)
                + formal_integral(al2_J(v, J_tok) * exp(-v * J_tok), v, I_tok)
            )
        ))],
        validity=[u_xx],
    ))

    R13 = sp.sqrt(J_tok**2 + H_tok**2)
    add(CatalogEntry(
        name="ex1.3",
        description="u_tx + u u_xx + u_xx² = 0; the quotient solution is "
                    "implicit (inverse hyperbolic tangent) and is verified as "
                    "a first integral, with no reconstruction attempted.",
        F=u_tx + u * u_xx + u_xx**2, principal=(1, 1),
        gens=[_formal_family(1)],
        invariants={"I": t, "J": u_x, "H": u_xx},
        syzygies=[Syzygy(HI + H_tok**2 * HJ + J_tok * H_tok)],
        solutions=[SolutionSpec(0, QuotientSolution(
            implicit=(g_(J_tok**2 + H_tok**2) - I_tok) * R13
            + sp.atanh(J_tok / R13)
        ))],
        validity=[u_xx],
    ))

    # -- family 2: f(t)∂_t − f'(t)∂_u ------------------------------------------
    a2_args = (I_tok, J_tok, H_tok)
    al3_I = formal("alpha", 3, (1, 0, 0))
    add(CatalogEntry(
        name="type2-general",
        description="u_tx − α(x, u_x, u_xx) e^u = 0, the general equation "
                    "invariant under f(t)∂_t − f'(t)∂_u.",
        F=u_tx - al3(x, u_x, u_xx) * exp(u), principal=(1, 1),
        gens=[_formal_family(2)],
        invariants={"I": x, "J": u_x, "H": u_xx},
        syzygies=[Syzygy(
            al3_H(*a2_args) * HI
            + (H_tok * al3_H(*a2_args) - al3(*a2_args)) * HJ
            + al3_J(*a2_args) * H_tok + al3(*a2_args) * J_tok + al3_I(*a2_args)
        )],
        validity=[u_tx],
    ))

    be2 = formal("beta", 2)
    be2_I = formal("beta", 2, (1, 0))
    be2_J = formal("beta", 2, (0, 1))
    add(CatalogEntry(
        name="ex2.1",
        description="u_tx − u_xx β(x, u_x) e^u = 0 (α proportional to H).",
        F=u_tx - u_xx * be2(x, u_x) * exp(u), principal=(1, 1),
        gens=[_formal_family(2)],
        invariants={"I": x, "J": u_x, "H": u_xx},
        syzygies=[Syzygy(
            be2(I_tok, J_tok) * HI + be2_J(I_tok, J_tok) * H_tok**2
            + be2(I_tok, J_tok) * J_tok * H_tok + be2_I(I_tok, J_tok) * H_tok
        )],
        solutions=[SolutionSpec(0, QuotientSolution(
            # the recorded implicit form H e^{IJ} β (∫...+g) = 1 is linear
            # in H, so we store it solved for H
            h=exp(-I_tok * J_tok) / (be2(I_tok, J_tok) * (
                formal_integral(
                    be2_J(v, J_tok) / (exp(v * J_tok) * be2(v, J_tok)**2), v, I_tok
                ) + g_(J_tok)
            ))
        ))],
        validity=[u_tx],
    ))

    add(CatalogEntry(
        name="ex2.2",
        description="u_tx − α(x, u_x) e^u = 0 (α independent of u_xx).",
        F=u_tx - al2(x, u_x) * exp(u), principal=(1, 1),
        gens=[_formal_family(2)],
        invariants={"I": x, "J": u_x, "H": u_xx},
        syzygies=[Syzygy(
            -al2(I_tok, J_tok) * HJ + al2_J(I_tok, J_tok) * H_tok
            + al2(I_tok, J_tok) * J_tok + formal("alpha", 2, (1, 0))(I_tok, J_tok)
        )],
        solutions=[SolutionSpec(0, QuotientSolution(
            h=(formal_integral(
                (v * al2(I_tok, v) + formal("alpha", 2, (1, 0))(I_tok, v))
                / al2(I_tok, v)**2, v, J_tok
            ) + g_(I_tok)) * al2(I_tok, J_tok)
        ))],
        validity=[u_tx],
    ))

    add(CatalogEntry(
        name="ex2.3",
        description="Liouville's equation u_tx + e^u = 0; the quotient "
                    "H_J − J = 0 gives the Riccati constraint "
                    "u_xx = u_x²/2 + g(x), linearized by u_x = −2 v_x/v.",
        F=u_tx + exp(u), principal=(1, 1),
        gens=[_formal_family(2)],
        invariants={"I": x, "J": u_x, "H": u_xx},
        syzygies=[Syzygy(HJ - J_tok)],
        solutions=[SolutionSpec(0, QuotientSolution(
            h=J_tok**2 / 2 + g_(I_tok)
        ))],
        validity=[u_tx],
    ))

    # -- family 3: f(t)∂_t ------------------------------------------------------
    al4 = formal("alpha", 4)
    add(CatalogEntry(
        name="type3-general",
        description="u_tx − u_t α(x, u, u_x, u_xx) = 0, the general equation "
                    "invariant under f(t)∂_t.",
        F=u_tx - u_t * al4(x, u, u_x, u_xx), principal=(1, 1),
        gens=[_formal_family(3)],
        invariants={"I": x, "J": u, "H": u_x},
        syzygies=[Syzygy(
            HJ - al4(I_tok, J_tok, H_tok, HI + H_tok * HJ)
        )],
        validity=[u_t],
    ))

    aa1 = formal("alpha1", 2)
    aa2 = formal("alpha2", 2)
    inner = formal_integral(aa1(I_tok, s), s, v)
    add(CatalogEntry(
        name="ex3.1",
        description="u_tx = u_t (α₁(x,u) u_x + α₂(x,u)); the quotient is "
                    "linear in H and solved by an integrating factor.",
        F=u_tx - u_t * (aa1(x, u) * u_x + aa2(x, u)), principal=(1, 1),
        gens=[_formal_family(3)],
        invariants={"I": x, "J": u, "H": u_x},
        syzygies=[Syzygy(
            HJ - aa1(I_tok, J_tok) * H_tok - aa2(I_tok, J_tok)
        )],
        solutions=[SolutionSpec(0, QuotientSolution(
            h=(formal_integral(aa2(I_tok, v) * exp(-inner), v, J_tok)
               + g_(I_tok))
            * exp(formal_integral(aa1(I_tok, v), v, J_tok))
        ))],
        validity=[u_t],
    ))

    b1 = formal("alpha1", 1)
    b2 = formal("alpha2", 1)
    # the inner antiderivative keeps the outer dummy v, so that
    # differentiating under the integral reproduces exp(B2)
    B2 = formal_integral(b2(v), v, x)
    add(CatalogEntry(
        name="ex3.2",
        description="u_tx = u_t (α₁(x) u + α₂(x)), a Riccati quotient; "
                    "explicit solution for g ≡ 0.",
        F=u_tx - u_t * (b1(x) * u + b2(x)), principal=(1, 1),
        gens=[_formal_family(3)],
        invariants={"I": x, "J": u, "H": u_x},
        syzygies=[Syzygy(
            HJ - b1(I_tok) * J_tok - b2(I_tok)
        )],
        solutions=[SolutionSpec(0, QuotientSolution(
            h=b1(I_tok) * J_tok**2 / 2 + b2(I_tok) * J_tok + g_(I_tok)
        ))],
        reconstruction=Reconstruction(
            "g ≡ 0: u = 2 e^{∫α₂} / (C(t) − ∫α₁ e^{∫α₂})",
            2 * exp(B2) / (C_(t) - formal_integral(b1(s) * exp(B2.xreplace({x: s})), s, x)),
        ),
        validity=[u_t],
    ))

    Gx = formal_integral(g_(s), s, x)
    add(CatalogEntry(
        name="ex3.3",
        description="u_tx = u_t u_x with quotient H_J = H; solution "
                    "u = −ln(C(t) − ∫g).",
        F=u_tx - u_t * u_x, principal=(1, 1),
        gens=[_formal_family(3)],
        invariants={"I": x, "J": u, "H": u_x},
        syzygies=[Syzygy(HJ - H_tok)],
        solutions=[SolutionSpec(0, QuotientSolution(
            h=g_(I_tok) * exp(J_tok)
        ))],
        reconstruction=Reconstruction("u = −ln(C(t) − ∫₀ˣ g)", -log(C_(t) - Gx)),
        characteristic=(0, H_tok),
        validity=[u_t],
    ))

    # -- family 4: f(t)∂_u -------------------------------------------------------
    a4_args = (I_tok, J_tok, H_tok, HJ)
    add(CatalogEntry(
        name="type4-general",
        description="u_tx = α(t, x, u_x, u_xx), the general equation "
                    "invariant under f(t)∂_u; the quotient is the equation "
                    "itself read as a first-order PDE on u_x.",
        F=u_tx - al4(t, x, u_x, u_xx), principal=(1, 1),
        gens=[_formal_family(4)],
        invariants={"I": t, "J": x, "H": u_x},
        syzygies=[Syzygy(HI - al4(*a4_args))],
        validity=[],
    ))

    base41 = g_(J_tok) + (1 - A_par) * I_tok
    add(CatalogEntry(
        name="ex4.1",
        description="u_tx = u_x^A (A ≠ 1); separable quotient with solution "
                    "H = (g(x) + (1−A) t)^{1/(1−A)}.",
        F=u_tx - u_x**A_par, principal=(1, 1),
        gens=[_formal_family(4)],
        invariants={"I": t, "J": x, "H": u_x},
        syzygies=[Syzygy(HI - H_tok**A_par)],
        solutions=[SolutionSpec(0, QuotientSolution(
            h=base41**(1 / (1 - A_par))
        ))],
        reconstruction=Reconstruction(
            "u = ∫₀ˣ (g(s) + (1−A) t)^{1/(1−A)} ds + C(t)",
            formal_integral((g_(s) + (1 - A_par) * t)**(1 / (1 - A_par)), s, x) + C_(t),
        ),
        characteristic=(0, H_tok),
        parameters={"A": A_par},
        validity=[1 - A_par],
    ))

    add(CatalogEntry(
        name="ex4.2",
        description="u_tx = u_x^A u_xx; quotient H_I = H^A H_J with implicit "
                    "solution J + I H^A − g(H) = 0.",
        F=u_tx - u_x**A_par * u_xx, principal=(1, 1),
        gens=[_formal_family(4)],
        invariants={"I": t, "J": x, "H": u_x},
        syzygies=[Syzygy(HI - H_tok**A_par * HJ)],
        solutions=[SolutionSpec(0, QuotientSolution(
            implicit=J_tok + I_tok * H_tok**A_par - g_(H_tok)
        ))],
        parameters={"A": A_par},
        validity=[],
    ))

    ga2 = formal("gamma", 2)
    # matching dummies: differentiating D43 by I must reproduce exp(B43)
    B43 = formal_integral(be2(s, J_tok), s, I_tok)
    D43 = formal_integral(
        al2(v, J_tok) * exp(formal_integral(be2(s, J_tok), s, v)), v, I_tok
    )
    add(CatalogEntry(
        name="ex4.3",
        description="u_tx = α(t,x) u_x² + β(t,x) u_x + γ(t,x), a Riccati "
                    "quotient; closed form for γ ≡ 0.",
        F=u_tx - al2(t, x) * u_x**2 - be2(t, x) * u_x - ga2(t, x),
        principal=(1, 1),
        gens=[_formal_family(4)],
        invariants={"I": t, "J": x, "H": u_x},
        syzygies=[Syzygy(
            HI - al2(I_tok, J_tok) * H_tok**2 - be2(I_tok, J_tok) * H_tok
            - ga2(I_tok, J_tok)
        )],
        solutions=[SolutionSpec(
            0,
            QuotientSolution(h=exp(B43) / (g_(J_tok) - D43)),
            pre_bindings=(("gamma", (I_tok, J_tok), sp.Integer(0)),),
        )],
        validity=[],
    ))

    # -- the same family in disguised coordinates -------------------------------
    F_disg = (-x**2 * u_t**2 + 2 * x**2 * u_t * u_x - x**2 * u_x**2
              + 2 * x * u * u_t - 2 * x * u * u_x - x * u_tt + x * u_tx
              - u**2 + u_t)
    add(CatalogEntry(
        name="disguised",
        description="A second-order PDE whose symmetries f(t+x)/x ∂_u hide "
                    "a translation family; invariant H = u + x(u_x − u_t) "
                    "obeys H_I = H².",
        F=F_disg, principal=(1, 1),
        gens=[VectorField(0, 0, f_(t + x) / x)],
        invariants={"I": t, "J": x, "H": u + x * (u_x - u_t)},
        syzygies=[Syzygy(HI - H_tok**2)],
        solutions=[SolutionSpec(0, QuotientSolution(
            h=1 / (g_(J_tok) - I_tok)
        ))],
        reconstruction=Reconstruction(
            "u = (1/x)(∫₀ᵗ dτ/(τ − g(x+t−τ)) + C(t+x))",
            (formal_integral(1 / (tau - g_(x + t - tau)), tau, t) + C_(t + x)) / x,
        ),
        validity=[x],
    ))

    # -- finite-dimensional subalgebras ------------------------------------------
    add(CatalogEntry(
        name="hs-3dim",
        description="Hunter-Saxton under the three-dimensional subalgebra "
                    "⟨∂_x, t∂_x+∂_u, t²∂_x+2t∂_u⟩: an extra invariant K and "
                    "a decoupled pair of first-order syzygies.",
        F=F_hs, principal=(1, 1),
        gens=[
            VectorField(0, 1, 0),
            VectorField(0, t, 1),
            VectorField(0, t**2, 2 * t),
        ],
        invariants={"I": t, "J": u_x, "H": u_xx,
                    "K": u_tt - u**2 * u_xx + u_t * u_x},
        syzygies=[hs_quotient, Syzygy(KJ)],
        solutions=[
            SolutionSpec(0, hs_solution),
            SolutionSpec(1, QuotientSolution(h=C_(I_tok), base=K_tok)),
        ],
        commutation_probe=u_xx,
        validity=[u_xx, 2 - t * u_x],
    ))

    add(CatalogEntry(
        name="liouville-3dim",
        description="Liouville's equation under ⟨∂_t, t∂_t−∂_u, t²∂_t−2t∂_u⟩: "
                    "extra invariant K = (2u_tt − u_t²) e^{−2u} and a pair of "
                    "first-order syzygies.",
        F=u_tx + exp(u), principal=(1, 1),
        gens=[
            VectorField(1, 0, 0),
            VectorField(t, 0, -1),
            VectorField(t**2, 0, -2 * t),
        ],
        invariants={"I": x, "J": u_x, "H": u_xx,
                    "K": (2 * u_tt - u_t**2) * exp(-2 * u)},
        syzygies=[
            Syzygy(HJ - J_tok),
            Syzygy(KI + H_tok * KJ + 2 * J_tok * K_tok),
        ],
        validity=[u_tx],
    ))

    return entries


_CATALOG: dict[str, CatalogEntry] | None = None


def entries() -> dict[str, CatalogEntry]:
    global _CATALOG
    if _CATALOG is None:
        _CATALOG = _entries()
    return _CATALOG


def names() -> list[str]:
    return list(entries().keys())


def get(name: str) -> CatalogEntry:
    try:
        return entries()[name]
    except KeyError:
        raise UnknownEntryError(f"no catalog entry named {name!r}") from None


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------


def verify_entry(name: str) -> VerificationReport:
    """Re-derive every claim the entry makes, stage by stage."""
    e = get(name)
    M = e.manifold
    stages: list[Stage] = []

    for idx, X in enumerate(e.gens):
        stages.append(_stage("symmetry", f"generator {idx + 1}",
                             [check_symmetry(X, M).verdict]))

    for inv_name, inv in e.invariants.items():
        report = check_invariant(inv, e.gens, M)
        stages.append(_stage("invariance", inv_name, [v for _, v in report.verdicts]))

    fr = e.frame
    stages.append(_stage("frame-duality", "∂̂ dual to d", fr.duality_verdicts()))

    if e.commutation_probe is not None:
        stages.append(_stage("commutation", str(e.commutation_probe),
                             [check_commutation(fr, M, e.commutation_probe)]))

    bindings = e.higher_invariants()
    for idx, s in enumerate(e.syzygies):
        stages.append(_stage("syzygy", f"#{idx + 1}", [check_syzygy(s, fr, bindings, M)]))

    for spec in e.solutions:
        s = spec.specialized_syzygy(e.syzygies)
        stages.append(_stage("quotient-solution", f"syzygy #{spec.syzygy_index + 1}",
                             [check_quotient_solution(s, spec.solution)]))

    if e.reconstruction is not None:
        stages.append(_stage("reconstruction", e.reconstruction.description[:28],
                             [is_zero(solution_residual(e.F, e.reconstruction.u))]))

    return VerificationReport(name, stages)


def verify_all() -> list[VerificationReport]:
    return [verify_entry(n) for n in names()]


# ---------------------------------------------------------------------------
# Instantiation
# ---------------------------------------------------------------------------


@dataclass
class Instantiation:
    entry: str
    constraint: sp.Expr          # first-order constraint G = 0 in jet variables
    u: sp.Expr | None            # reconstructed solution, when a recipe exists
    verdict: ZeroVerdict | None  # zero test of the residual of F on u


def _check_declared(entry: CatalogEntry, params: dict) -> None:
    unknown = sorted(set(params) - set(entry.parameters))
    if unknown:
        raise ParameterError(f"entry {entry.name!r} has no parameter {', '.join(unknown)}")


def instantiate(name: str, g=None, C=None, params: dict | None = None,
                which: int = 0) -> Instantiation:
    """Pin the quotient solution of an entry to concrete g, C and parameters.

    ``g``/``C`` are expressions in a single variable (any symbol) or
    (params, expr) pairs; entry parameters (e.g. A) come via ``params``.
    Parameters at which a validity expression of the entry vanishes, and
    a ``which`` outside the recorded solutions, raise ParameterError.
    """
    e = get(name)
    params = dict(params or {})
    if not e.solutions and e.reconstruction is None:
        raise ParameterError(f"entry {name!r} records no closed-form solution")
    _check_declared(e, params)
    if e.solutions and not 0 <= which < len(e.solutions):
        raise ParameterError(f"entry {name!r} records {len(e.solutions)} solution(s); "
                             f"there is no solution {which}")
    values = {e.parameters[n]: sp.sympify(val) for n, val in params.items()}
    for cond in e.validity:
        if exact_zero(cond.xreplace(values)):
            at = ", ".join(f"{n} = {val}" for n, val in params.items())
            raise ParameterError(f"{cond} vanishes at {at}")

    def as_binding(val, default_var):
        if isinstance(val, tuple):
            return val
        val = sp.sympify(val)
        free = sorted(val.free_symbols, key=lambda s: s.name)
        var = free[0] if len(free) == 1 else Symbol(default_var)
        return ((var,), val)

    formals = {name: as_binding(val, var)
               for name, val, var in (("g", g, "w"), ("C", C, "t")) if val is not None}

    def pin(expr: sp.Expr) -> sp.Expr:
        return _bind(expr.xreplace(values), formals)

    constraint = pin(e.constraint(e.solutions[which])) if e.solutions else None
    u_expr = verdict = None
    if e.reconstruction is not None:
        u_expr = pin(e.reconstruction.u).doit()
        verdict = is_zero(solution_residual(e.F.xreplace(values), u_expr))

    return Instantiation(name, constraint, u_expr, verdict)


# ---------------------------------------------------------------------------
# Method of characteristics
# ---------------------------------------------------------------------------


class CharacteristicsError(SymcoreError):
    pass


@dataclass
class CharacteristicSample:
    I: float
    J: float
    H: float
    flag: int  # 0 ok, 1 blow-up, 2 crossing


@dataclass
class CharacteristicsResult:
    entry: str
    step: float
    curves: list[list[CharacteristicSample]]
    error_estimate: float
    crossings: list[tuple[float, float]]

    def samples(self) -> list[CharacteristicSample]:
        return [s for c in self.curves for s in c]


def _charspeeds(entry: CatalogEntry, params: dict):
    """Extract (a, b, c): the syzygy a·H_I + b·H_J + c, quasilinear in H."""
    if entry.characteristic is None:
        raise CharacteristicsError(
            f"entry {entry.name!r} has no quasilinear characteristic syzygy")
    idx, base = entry.characteristic
    lhs = entry.syzygies[idx].lhs
    dI, dJ = Symbol(f"{base.name}_I"), Symbol(f"{base.name}_J")
    a = lhs.diff(dI)
    b = lhs.diff(dJ)
    c = sp.expand(lhs - a * dI - b * dJ)
    for part in (a, b, c):
        if part.has(dI) or part.has(dJ):
            raise CharacteristicsError("syzygy is not quasilinear in the base token")
    _check_declared(entry, params)
    subs = {entry.parameters[n]: sp.sympify(v) for n, v in params.items()}
    syms = (I_tok, J_tok, base)
    return tuple(compile_numeric(p.xreplace(subs), syms) for p in (a, b, c))


def _rk4(fa, fb, fc, state, h):
    def rhs(y):
        i, j, hh = y
        return (fa(i, j, hh), fb(i, j, hh), -fc(i, j, hh))

    k1 = rhs(state)
    k2 = rhs([y + h / 2 * k for y, k in zip(state, k1)])
    k3 = rhs([y + h / 2 * k for y, k in zip(state, k2)])
    k4 = rhs([y + h * k for y, k in zip(state, k3)])
    return [y + h / 6 * (a + 2 * b + 2 * c + d)
            for y, a, b, c, d in zip(state, k1, k2, k3, k4)]


def characteristics_solve(name: str, initial: list[tuple[float, float, float]],
                          span: tuple[float, float], step: float,
                          params: dict | None = None,
                          blowup: float = 1e9) -> CharacteristicsResult:
    """Integrate the characteristic system of a first-order quotient.

    ``initial`` lists (I, J, H) triples on the initial curve; ``span`` is
    the range of the characteristic parameter s; fixed-step RK4 with a
    step-halving error estimate.
    """
    entry = get(name)
    fa, fb, fc = _charspeeds(entry, params or {})
    s0, s1 = span
    if step <= 0 or s1 <= s0:
        raise CharacteristicsError("need step > 0 and a nonempty span")
    n = max(1, round((s1 - s0) / step))

    def integrate(h, m):
        curves = []
        for start in initial:
            state = list(map(float, start))
            samples = [CharacteristicSample(*state, 0)]
            for _ in range(m):
                try:
                    state = _rk4(fa, fb, fc, state, h)
                except EvalError:
                    samples[-1].flag = 1
                    break
                if any(not math.isfinite(y) for y in state) or abs(state[2]) > blowup:
                    samples.append(CharacteristicSample(*state, 1))
                    break
                samples.append(CharacteristicSample(*state, 0))
            curves.append(samples)
        return curves

    curves = integrate(step, n)
    fine = integrate(step / 2, 2 * n)
    err = 0.0
    for coarse_curve, fine_curve in zip(curves, fine):
        m = min(len(coarse_curve), (len(fine_curve) + 1) // 2)
        for k in range(m):
            if coarse_curve[k].flag or fine_curve[2 * k].flag:
                continue
            err = max(err, abs(coarse_curve[k].H - fine_curve[2 * k].H))

    crossings = []
    tol = max(step**2, 1e-9)
    flat = [s for c in curves for s in c if s.flag == 0]
    for a_idx, sa in enumerate(flat):
        for sb in flat[a_idx + 1:]:
            if (abs(sa.I - sb.I) < tol and abs(sa.J - sb.J) < tol
                    and abs(sa.H - sb.H) > 100 * tol):
                crossings.append((sa.I, sa.J))
                sa.flag = sb.flag = 2
    return CharacteristicsResult(name, step, curves, err, crossings)
