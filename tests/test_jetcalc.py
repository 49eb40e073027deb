"""Total derivatives, contact forms and prolongation."""

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from jetquot.jetcalc import (
    Dt,
    Dx,
    OrderCapError,
    VectorField,
    apply_prolonged,
    cartan_forms,
    prolong,
)
from jetquot.symcore import JetVar, jet, normalize, t, x

u, u_t, u_x = jet(0, 0), jet(1, 0), jet(0, 1)
u_tt, u_tx, u_xx = jet(2, 0), jet(1, 1), jet(0, 2)


def test_total_derivative_definition():
    assert Dx(u) == u_x
    assert Dt(u) == u_t
    assert Dx(t * u_x) == t * u_xx
    assert Dt(x * u) == x * u_t
    assert Dx(u * u_x) == u_x**2 + u * u_xx
    assert Dt(u_x**2) == 2 * u_x * u_tx
    assert Dx(u_x**2) == 2 * u_x * u_xx


def test_total_derivatives_commute():
    e = u * u_x**2 + t * sp.exp(u_t)
    assert sp.expand(Dt(Dx(e)) - Dx(Dt(e))) == 0


def test_total_derivative_leibniz():
    a = u * u_x
    b = sp.exp(u_t) + t
    assert sp.expand(Dx(a * b) - (Dx(a) * b + a * Dx(b))) == 0


def test_order_cap():
    e = jet(0, 8)
    with pytest.raises(OrderCapError):
        Dx(e)
    assert Dx(e, cap=9) == jet(0, 9)


def test_cartan_forms_count_and_shape():
    forms = cartan_forms(2)
    # one form per jet of order <= 1: u, u_t, u_x
    assert len(forms) == 3
    base = {f.base for f in forms}
    assert base == {JetVar(0, 0), JetVar(1, 0), JetVar(0, 1)}
    f_u = next(f for f in forms if f.base == JetVar(0, 0))
    assert f_u.dt_coefficient == -u_t
    assert f_u.dx_coefficient == -u_x


def test_prolongation_first_order_formula():
    """phi^x = D_x(c) - u_t D_x(a) - u_x D_x(b) for X = a dt + b dx + c du."""
    a, b, c = t * x, u, x**2
    X = VectorField(a, b, c)
    P = prolong(X, 1)
    expected = Dx(c) - u_t * Dx(a) - u_x * Dx(b)
    assert sp.expand(P.coefficient(JetVar(0, 1)) - expected) == 0


def test_prolongation_translation_is_trivial():
    P = prolong(VectorField(1, 0, 0), 3)
    assert all(coeff == 0 for coeff in P.coeffs.values())


def test_prolongation_scaling():
    # x dx + u du scales u_x by 0 and u_xx by -1
    P = prolong(VectorField(0, x, u), 2)
    assert sp.expand(P.coefficient(JetVar(0, 1))) == 0
    assert sp.expand(P.coefficient(JetVar(0, 2)) + u_xx) == 0


def test_truncate():
    P = prolong(VectorField(0, x, u), 3)
    Q = P.truncate(1)
    assert Q.order == 1
    with pytest.raises(Exception):
        Q.coefficient(JetVar(0, 2))


def test_apply_prolonged_on_known_symmetry():
    # Galilean boost t dx + du of Burgers u_t = u_xx - u u_x
    F = u_xx - u_t - u * u_x
    X = VectorField(0, t, 1)
    out = apply_prolonged(X, F)
    # the action is -u_x + u_x = ... must vanish modulo F's consequences;
    # here it is exactly -(u_x) * 1 + ... = -u_x + u_x = 0 off-shell
    assert normalize(out) == 0


_coeff = st.integers(min_value=-4, max_value=4)


@given(_coeff, _coeff, _coeff)
@settings(max_examples=25, deadline=None)
def test_commutation_property(c1, c2, c3):
    e = c1 * u * u_x + c2 * t * u_t**2 + c3 * x * u_xx
    assert sp.expand(Dt(Dx(e)) - Dx(Dt(e))) == 0


@given(_coeff, _coeff)
@settings(max_examples=25, deadline=None)
def test_prolongation_linearity(c1, c2):
    X1 = VectorField(0, 1, 0)
    X2 = VectorField(0, t, 1)
    e = u_xx + u * u_x
    lhs = apply_prolonged(VectorField(0, c1 + c2 * t, c2), e)
    rhs = c1 * apply_prolonged(X1, e) + c2 * apply_prolonged(X2, e)
    assert sp.expand(lhs - rhs) == 0
