"""Equation manifolds: restriction, parametric coordinates, symmetry checks."""

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from jetquot.jetcalc import VectorField
from jetquot.pde import (
    PdeManifold,
    RestrictionError,
    check_symmetry,
    solution_residual,
)
from jetquot.symcore import jet, t, x

u, u_t, u_x = jet(0, 0), jet(1, 0), jet(0, 1)
u_tt, u_tx, u_xx = jet(2, 0), jet(1, 1), jet(0, 2)

F_BURGERS = u_xx - u_t - u * u_x
F_HS = u_tx + u * u_xx + u_x**2 / 2

BURGERS_GENS = [
    VectorField(1, 0, 0),
    VectorField(0, 1, 0),
    VectorField(0, t, 1),
    VectorField(t**2, t * x, x - t * u),
    VectorField(2 * t, x, -u),
]


@pytest.fixture(scope="module")
def burgers():
    return PdeManifold(F_BURGERS, (1, 0))


@pytest.fixture(scope="module")
def hs():
    return PdeManifold(F_HS, (1, 1))


def test_solved_rhs(burgers, hs):
    assert burgers.rhs((0, 0)) == u_xx - u * u_x
    assert sp.expand(hs.rhs((0, 0)) + u * u_xx + u_x**2 / 2) == 0


def test_restrict_eliminates_principal(burgers):
    e = u_t**2 + u_tx
    r = burgers.restrict(e)
    assert u_t not in r.free_symbols
    assert sp.Symbol("u_tx") not in r.free_symbols


def test_restrict_is_idempotent(burgers, hs):
    for M in (burgers, hs):
        e = jet(2, 1) + u_t * u_x + jet(1, 2)
        r = M.restrict(e)
        assert M.restrict(r) == r


def test_restriction_requires_affine_principal():
    with pytest.raises(RestrictionError):
        PdeManifold(u_t**2 - u_xx, (1, 0))
    with pytest.raises(RestrictionError):
        PdeManifold(u_xx - u, (1, 0))  # u_t absent


@pytest.mark.parametrize("X", BURGERS_GENS)
def test_burgers_symmetries_exact(burgers, X):
    res = check_symmetry(X, burgers)
    assert res.holds
    assert res.verdict.mode == "deterministic"


def test_non_symmetry_is_rejected(burgers):
    res = check_symmetry(VectorField(0, 0, x), burgers)
    assert not res.holds


def test_solution_residual_exact():
    # u = x/(1+t) solves Burgers' inviscid part u_t + u u_x = 0; use the
    # full equation with the viscous term, for which u_xx = 0
    cand = x / (1 + t)
    assert sp.simplify(solution_residual(u_t + u * u_x - u_xx, cand)) == 0
    assert sp.simplify(solution_residual(u_t + u * u_x, x)) != 0


@given(st.integers(min_value=-3, max_value=3), st.integers(min_value=-3, max_value=3))
@settings(max_examples=20, deadline=None)
def test_restrict_linearity(c1, c2):
    M = PdeManifold(F_BURGERS, (1, 0))
    e1, e2 = u_t * u_x, jet(1, 1) + u
    lhs = M.restrict(c1 * e1 + c2 * e2)
    rhs = c1 * M.restrict(e1) + c2 * M.restrict(e2)
    assert sp.expand(lhs - rhs) == 0
