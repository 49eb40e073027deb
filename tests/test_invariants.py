"""Tresse frames, invariants, syzygies and discovery."""

import itertools
import math
import random

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from jetquot import invariants, modular
from jetquot.catalog import get, names
from jetquot.invariants import (
    DegenerateFrameError,
    H_tok,
    I_tok,
    J_tok,
    K_tok,
    QuotientSolution,
    Syzygy,
    TresseFrame,
    check_commutation,
    check_invariant,
    check_quotient_solution,
    check_syzygy,
    discover_syzygy,
    realize_tokens,
)
from jetquot.jetcalc import VectorField
from jetquot.pde import PdeManifold
from jetquot.symcore import SymcoreError, formal, is_zero, jet, t, x

from tresse_reference import Reference

u, u_x, u_xx, u_xxx, u_xxxx = jet(0, 0), jet(0, 1), jet(0, 2), jet(0, 3), jet(0, 4)
u_t, u_tx = jet(1, 0), jet(1, 1)

F_BURGERS = u_xx - u_t - u * u_x
F_HS = u_tx + u * u_xx + u_x**2 / 2

HI, HJ = sp.Symbol("H_I"), sp.Symbol("H_J")


@pytest.fixture(scope="module")
def burgers():
    return PdeManifold(F_BURGERS, (1, 0))


@pytest.fixture(scope="module")
def hs():
    return PdeManifold(F_HS, (1, 1))


@pytest.fixture(scope="module")
def burgers_frame(burgers):
    return TresseFrame(u_x, u_xx, burgers)


@pytest.fixture(scope="module")
def hs_frame(hs):
    return TresseFrame(t, u_x, hs)


def test_duality_identities(burgers_frame, hs_frame):
    for fr in (burgers_frame, hs_frame):
        assert all(r == 0 for r in fr.duality_residuals())


@pytest.mark.parametrize("I, J", [(u_x, 2 * u_x), (u_x / u_xx, u_xx / u_x)],
                         ids=["proportional", "reciprocal"])
def test_degenerate_frame_raises(burgers, I, J):
    # the second pair's raw determinant is zero only after cancellation
    with pytest.raises(DegenerateFrameError):
        TresseFrame(I, J, burgers)


def test_tresse_derivations_take_no_expr_normal_form():
    # the ring zero test is the only exact step between derive and verdict
    import inspect

    from jetquot.invariants import InvariantDerivation

    for cls in (InvariantDerivation, TresseFrame):
        source = inspect.getsource(cls)
        assert "together" not in source and "cancel" not in source, cls.__name__


@pytest.mark.parametrize("name", names())
def test_ring_derivations_match_the_expr_reference(name):
    # ∂̂_I and ∂̂_J of every invariant of the frame and of every first-order
    # token of its syzygies, computed in its ring, equal α D_t + β D_x
    # restricted, computed on expressions
    e = get(name)
    fr, ref = e.frame, Reference(e)
    tokens = {s for syzygy in e.syzygies for s in syzygy.lhs.free_symbols
              if len((invariants._split_token(s) or ("", ""))[1]) == 1}
    realized = list(e.invariants.values())
    realized += realize_tokens(sp.Add(*tokens), fr, e.higher_invariants()).values()
    for r in realized:
        for which in fr.derivations:
            ring_side = fr.derivation(which).apply(r)
            assert is_zero(ring_side - ref.derive(which, r)).mode == "deterministic", (r, which)


def test_kernel_derivatives_become_generators():
    # α(t, u_x, u_xx) and α(u_x) bring their partials into the frame's ring
    for name, partial in (("type1-general", formal("alpha", 3, (0, 1, 0))),
                          ("ex1.1", formal("alpha", 1, (1,)))):
        e = get(name)
        fr = TresseFrame(e.invariants["I"], e.invariants["J"], e.manifold)
        assert partial not in {type(fr.ring.kernel(g)) for g in fr.ring.gens}
        fr.derivation("I").apply(u_xx)  # D_t u_xx is D_x of the rhs
        assert partial in {type(fr.ring.kernel(g)) for g in fr.ring.gens}, name


def test_burgers_full_frame_and_syzygies_take_no_expr_total_derivative(monkeypatch):
    from jetquot import jetcalc

    def refuse(*args, **kwargs):
        raise AssertionError("an Expr total derivative was taken")

    e = get("burgers-full")
    M = PdeManifold(e.F, e.principal)
    monkeypatch.setattr(jetcalc, "total_derivative", refuse)
    fr = TresseFrame(e.invariants["I"], e.invariants["J"], M)
    for s in e.syzygies:
        assert check_syzygy(s, fr, e.higher_invariants(), M).mode == "deterministic"
    assert all(v.mode == "deterministic" for v in fr.duality_verdicts())


def test_frame_claims_are_checked_on_the_frame_manifold(burgers_frame):
    other = PdeManifold(F_BURGERS, (1, 0))
    with pytest.raises(SymcoreError, match="own manifold"):
        check_syzygy(Syzygy(HI), burgers_frame, {"H": u_xxx}, other)


def test_commutation(burgers_frame, burgers, hs_frame, hs):
    assert check_commutation(burgers_frame, burgers, u_xxx).is_zero
    assert check_commutation(hs_frame, hs, u_xx).is_zero


def test_invariance_of_burgers_jets(burgers):
    gens = [VectorField(1, 0, 0), VectorField(0, 1, 0), VectorField(0, t, 1)]
    for e in (u_x, u_xx, u_xxx):
        report = check_invariant(e, gens, burgers)
        assert bool(report)
    # u itself is moved by the boost
    assert not bool(check_invariant(u, gens, burgers))


def test_a_zero_derivative_is_the_zero_expression(burgers_frame):
    # the ring's expressions are built unevaluated, but a zero is 0
    assert burgers_frame.derivation("J").apply(u_x) is sp.S.Zero


def test_realize_tokens_builds_derivative_tokens(burgers_frame):
    e = HI + H_tok * HJ
    table = realize_tokens(e, burgers_frame, {"H": u_xxx})
    assert set(table) == {HI, HJ, H_tok}
    assert table[H_tok] == burgers_frame.M.restrict(u_xxx)


def test_burgers_syzygy(burgers_frame, burgers):
    s = Syzygy(J_tok * HI + H_tok * HJ - K_tok)
    v = check_syzygy(s, burgers_frame, {"H": u_xxx, "K": u_xxxx}, burgers)
    assert v.is_zero and v.mode == "deterministic"


def test_hs_syzygy(hs_frame, hs):
    s = Syzygy(2 * HI - J_tok**2 * HJ + 4 * J_tok * H_tok)
    v = check_syzygy(s, hs_frame, {"H": u_xx}, hs)
    assert v.is_zero and v.mode == "deterministic"


def test_wrong_syzygy_fails(hs_frame, hs):
    s = Syzygy(2 * HI - J_tok**2 * HJ + 5 * J_tok * H_tok)
    assert not check_syzygy(s, hs_frame, {"H": u_xx}, hs).is_zero


def test_quotient_solution_explicit():
    # H_J = H is solved by H = g(I) e^J
    g = formal("g")
    s = Syzygy(HJ - H_tok)
    sol = QuotientSolution(h=g(I_tok) * sp.exp(J_tok))
    assert check_quotient_solution(s, sol).is_zero


def test_quotient_solution_implicit():
    # H_I = H^2 is solved implicitly by 1/H - (g(J) - I) = 0
    g = formal("g")
    s = Syzygy(HI - H_tok**2)
    sol = QuotientSolution(implicit=1 / H_tok - g(J_tok) + I_tok)
    assert check_quotient_solution(s, sol).is_zero


def test_quotient_solution_wrong():
    g = formal("g")
    s = Syzygy(HJ - H_tok)
    sol = QuotientSolution(h=g(I_tok) * sp.exp(2 * J_tok))
    assert not check_quotient_solution(s, sol).is_zero


def test_hs_quotient_solution_formal_g():
    g = formal("g")
    s = Syzygy(2 * HI - J_tok**2 * HJ + 4 * J_tok * H_tok)
    w = 2 * J_tok / (2 - I_tok * J_tok)
    sol = QuotientSolution(implicit=16 * g(w) * H_tok - (2 - I_tok * J_tok) ** 4)
    assert check_quotient_solution(s, sol).is_zero


def test_discovery_burgers(burgers_frame, burgers):
    found = discover_syzygy({"H": u_xxx, "K": u_xxxx}, burgers_frame, burgers,
                            degree=2, seed=3)
    target = J_tok * HI + H_tok * HJ - K_tok
    assert _contains_up_to_scale(found.syzygies, target)
    assert not found.spurious


def test_discovery_hs(hs_frame, hs):
    found = discover_syzygy({"H": u_xx}, hs_frame, hs, degree=3, seed=3)
    target = 2 * HI - J_tok**2 * HJ + 4 * J_tok * H_tok
    assert _contains_up_to_scale(found.syzygies, target)


def test_discovery_degree_cap(hs_frame, hs):
    with pytest.raises(SymcoreError, match="ansatz degree capped at 4"):
        discover_syzygy({"H": u_xx}, hs_frame, hs, degree=5)


def test_discovery_output_is_stable_over_seeds():
    # the nullspace basis is in reduced row echelon form, so the result is
    # the same expression at every seed, not merely equal up to scale
    hs_entry, bh_entry = get("hunter-saxton"), get("burgers-h3")
    hs_target = sp.srepr(2 * H_tok * J_tok + HI - HJ * J_tok**2 / 2)
    bh_target = sp.srepr(-H_tok * HJ - HI * J_tok + K_tok)
    for seed in range(10):
        found = discover_syzygy({"H": u_xx}, hs_entry.frame, hs_entry.manifold,
                                degree=3, seed=seed)
        assert [sp.srepr(s.lhs) for s in found.syzygies] == [hs_target]
        assert not found.spurious
        found = discover_syzygy({"H": u_xxx, "K": u_xxxx}, bh_entry.frame,
                                bh_entry.manifold, degree=2, seed=seed)
        assert [sp.srepr(s.lhs) for s in found.syzygies] == [bh_target]
        assert not found.spurious


def test_discovery_rejects_realizations_outside_the_rational_jets(hs_frame, hs):
    with pytest.raises(SymcoreError, match="token H is not a rational function"):
        discover_syzygy({"H": sp.exp(u_xx)}, hs_frame, hs, degree=2)


@pytest.mark.parametrize("lift", ["perturbed", "failed"])
def test_discovery_unconfirmed_vectors_are_spurious(hs_frame, hs, monkeypatch, lift):
    # a lift that is wrong fails the second prime, one that fails is kept
    # with its residues; neither reaches the exact check
    reconstruct = invariants._rational_reconstruction

    def wrong(a, p):
        c = reconstruct(a, p)
        if lift == "failed" and c == 2:
            return None
        return c + 1 if c == 2 else c

    def never(*args):
        raise AssertionError("an unconfirmed vector reached check_syzygy")

    monkeypatch.setattr(invariants, "_rational_reconstruction", wrong)
    monkeypatch.setattr(invariants, "check_syzygy", never)
    found = discover_syzygy({"H": u_xx}, hs_frame, hs, degree=3, seed=3)
    assert not found.syzygies
    assert len(found.spurious) == 1
    if lift == "perturbed":
        assert found.spurious[0] == 3 * H_tok * J_tok + HI - HJ * J_tok**2 / 2
    else:
        # -1/2 mod p is (p - 1)/2, which is its own symmetric residue
        half = (invariants._P1 - 1) // 2
        assert found.spurious[0] == 2 * H_tok * J_tok + HI + half * HJ * J_tok**2


_P = invariants._P1
_BOUND = math.isqrt(_P // 2)


@settings(max_examples=200, deadline=None)
@given(st.integers(-_BOUND, _BOUND), st.integers(1, _BOUND))
def test_rational_reconstruction_round_trips(n, d):
    q = sp.Rational(n, d)
    assert invariants._rational_reconstruction(q.p * pow(q.q, -1, _P) % _P, _P) == q


@settings(max_examples=200, deadline=None)
@given(st.integers(0, _P - 1))
def test_rational_reconstruction_stays_within_its_bound(a):
    q = invariants._rational_reconstruction(a, _P)
    if q is not None:
        assert abs(q.p) <= _BOUND and q.q <= _BOUND
        assert (q.p - a * q.q) % _P == 0


def test_discovery_does_no_linear_algebra_over_qq():
    import inspect

    for module in (invariants, modular):
        source = inspect.getsource(module)
        assert "sp.Matrix(" not in source and ".nullspace(" not in source


def test_sample_rows_are_the_monomial_products(hs_frame):
    # each monomial's value is built from its prefix's; the rows are the
    # products of the token values that the same draws give
    tokens = [I_tok, J_tok, H_tok, HI, HJ]
    realizations = invariants._token_elements(sp.Add(*tokens), hs_frame, {"H": u_xx})
    modular_tokens = invariants._ModularTokens(hs_frame.ring, realizations)
    combos = [combo for d in range(4)
              for combo in itertools.combinations_with_replacement(range(len(tokens)), d)]
    rows = invariants._sample_rows(modular_tokens, combos, _P, 12, random.Random(11))
    rng, expected = random.Random(11), []
    while len(expected) < 12:
        values = modular_tokens.sample(_P, rng)
        if values is not None:
            expected.append([math.prod(values[i] for i in m) % _P for m in combos])
    assert rows == expected
    assert len(rows[0]) == 56 and rows[0][0] == 1


def _contains_up_to_scale(syzygies, target):
    target = sp.expand(target)
    for s in syzygies:
        lhs = sp.expand(s.lhs)
        ratio = sp.simplify(lhs / target)
        if ratio.is_Number and ratio != 0:
            return True
        # also accept candidates containing the relation plus a multiple of it
        if sp.simplify(lhs - target) == 0:
            return True
    return False


def test_a_walk_refuses_a_symbol_that_takes_a_value_inside_a_kernel(hs_frame):
    # u_tx is the principal jet: outside a kernel it is its rhs, inside one
    # it would stay unrestricted, and exp(u_tx) - restricted(exp(u_tx)) would
    # be refuted
    ring, u_tx, H = hs_frame.ring, jet(1, 1), sp.Symbol("H")
    assert ring.walk(u_tx) == ring.restricted(u_tx)
    with pytest.raises(SymcoreError, match=r"u_tx .* kernel exp\(u_tx\)"):
        ring.walk(sp.exp(u_tx))
    with pytest.raises(SymcoreError, match=r"u_tx .* kernel exp\(u_tx\)"):
        ring.walk(sp.exp(u_tx))  # the kernel was not kept as a generator
    with pytest.raises(SymcoreError, match=r"H .* kernel exp\(H\)"):
        ring.walk(H + sp.exp(H), values={H: ring.walk(u_x)})
    assert is_zero(ring.expr(ring.restricted(sp.exp(u_tx)))
                   - hs_frame.M.restrict(sp.exp(u_tx))).mode == "deterministic"
