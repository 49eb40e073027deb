"""Tresse frames, invariants, syzygies and discovery."""

import pytest
import sympy as sp

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
from jetquot.symcore import formal, jet, t, x

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
    with pytest.raises(Exception):
        discover_syzygy({"H": u_xx}, hs_frame, hs, degree=5)


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
