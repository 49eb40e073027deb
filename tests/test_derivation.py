"""The derivation walk behind D_t, D_x, prolongation and token partials.

The oracle is the per-symbol formula Σ D(s)·∂e/∂s with one SymPy
``Expr.diff`` per symbol, kept here only.
"""

from collections import Counter

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from jetquot import catalog, jetcalc, symcore
from jetquot.invariants import I_tok, J_tok
from jetquot.jetcalc import Dt, Dx, OrderCapError, VectorField, prolong
from jetquot.symcore import (
    _derivation,
    differentiate,
    formal,
    formal_integral,
    is_zero,
    jet,
    jets_in,
    t,
    x,
)

u, u_t, u_x = jet(0, 0), jet(1, 0), jet(0, 1)
u_tx, u_xx = jet(1, 1), jet(0, 2)
A, v, s = sp.symbols("A v s")
g, f2, f3 = formal("g"), formal("f", 2), formal("k", 3)
DELTA = sp.Rational(1, 7)


def total_oracle(e, direction):
    dt, dx = (1, 0) if direction == "t" else (0, 1)
    base = t if direction == "t" else x
    return e.diff(base) + sum((jet(i + dt, j + dx) * e.diff(sym)
                               for sym, (i, j) in jets_in(e).items()), sp.S.Zero)


def prolonged_oracle(P, e):
    out = P.field.a * e.diff(t) + P.field.b * e.diff(x)
    for sym, (i, j) in jets_in(e).items():
        out += P.coefficient(symcore.JetVar(i, j)) * e.diff(sym)
    return out


# ---------------------------------------------------------------------------
# Differential test against the per-symbol formula
# ---------------------------------------------------------------------------

_ATOMS = [t, x, u, u_t, u_x, u_tx, u_xx, A, I_tok, J_tok]


def _kind(name, build):
    """A rule of the strategy; a drawn value is (kinds of all its nodes, e)."""
    def make(*args):
        drawn = [a for a in args if isinstance(a, tuple)]
        plain = [a[1] if isinstance(a, tuple) else a for a in args]
        return frozenset({name}).union(*(k for k, _ in drawn)), build(*plain)
    return make


def _nonconstant(e):
    return e if not e.is_Number else e + u_x


_leaves = st.one_of(
    st.sampled_from(_ATOMS),
    st.sampled_from([sp.Integer(2), sp.Integer(3), sp.Rational(1, 2)]),
).map(lambda e: (frozenset({"atom"}), e))


def _extend(e):
    ops = [
        st.builds(_kind("sum", lambda a, b: a + b), e, e),
        st.builds(_kind("product", lambda a, b: a * b), e, e),
        st.builds(_kind("integer power", lambda a, n: _nonconstant(a)**n), e,
                  st.sampled_from([2, 3, -1, -2])),
        st.builds(_kind("rational power", lambda a, q: _nonconstant(a)**q), e,
                  st.sampled_from([sp.Rational(1, 3), sp.Rational(-3, 2)])),
        st.builds(_kind("symbolic power", lambda a: _nonconstant(a)**A), e),
        st.builds(_kind("jet exponent", lambda a, b: _nonconstant(a)**_nonconstant(b)), e, e),
        st.builds(_kind("exp", sp.exp), e),
        st.builds(_kind("log", lambda a: sp.log(_nonconstant(a))), e),
        st.builds(_kind("sqrt", lambda a: sp.sqrt(_nonconstant(a))), e),
        st.builds(_kind("formal/1", g), e),
        st.builds(_kind("formal/2", f2), e, e),
        st.builds(_kind("formal/3 repeated", lambda a, b: f3(a, b, a)), e, e),
        st.builds(_kind("integral", lambda a, b: formal_integral(g(v) * a, v, b)), e, e),
        st.builds(_kind("nested integral", lambda a, b: formal_integral(
            formal_integral(g(s) * a * v, s, v), v, b)), e, e),
    ]
    return st.one_of(ops)


_expressions = st.recursive(_leaves, _extend, max_leaves=5)

_FULL = [prolong(X, 2) for X in catalog.get("burgers-full").gens]


def test_walk_matches_the_per_symbol_formula():
    kinds = Counter()

    @given(_expressions, st.sampled_from(range(len(_FULL))))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def check(drawn_e, which):
        drawn, e = drawn_e
        kinds.update(drawn)
        for walk, oracle in [
            (Dt(e), total_oracle(e, "t")),
            (Dx(e), total_oracle(e, "x")),
            (_FULL[which].apply(e), prolonged_oracle(_FULL[which], e)),
            (differentiate(e, I_tok), e.diff(I_tok)),
            (differentiate(e, u_x), e.diff(u_x)),
        ]:
            assert is_zero(walk - oracle), (e, walk, oracle)
        # the twin: one extra term on one side must be refuted
        assert not is_zero(Dx(e) + DELTA * u_x - total_oracle(e, "x")), e

    check()
    assert kinds["atom"] >= 100  # every expression has an atom: the examples run
    # every rule of the strategy occurs in some tested expression
    assert set(kinds) == {"atom", "sum", "product", "integer power", "rational power",
                          "symbolic power", "jet exponent", "exp", "log", "sqrt", "formal/1",
                          "formal/2", "formal/3 repeated", "integral",
                          "nested integral"}, kinds


@pytest.mark.parametrize("e", [
    u * sp.sign(u_x),
    u_x * sp.floor(u),
    x * sp.re(u_t),
    sp.sign(u_x * u) + sp.floor(u_xx)**2,
], ids=["sign", "floor", "re", "sign and floor"])
def test_unknown_nodes_fall_back_to_partials(monkeypatch, e):
    calls = []
    diff = sp.Expr.diff

    def spy(self, *args, **kwargs):
        calls.append(self)
        return diff(self, *args, **kwargs)

    for direction in ("t", "x"):
        oracle = total_oracle(e, direction)
        monkeypatch.setattr(sp.Expr, "diff", spy)
        walk = jetcalc.total_derivative(e, direction)
        monkeypatch.setattr(sp.Expr, "diff", diff)
        assert sp.expand(walk - oracle) == 0
    assert calls


# ---------------------------------------------------------------------------
# Contracts
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("wrap", [
    lambda j: j,
    lambda j: u * g(j),
    lambda j: formal_integral(g(v) * u, v, j),
    lambda j: formal_integral(g(v) * j, v, u),
], ids=["plain", "formal argument", "integral bound", "integrand"])
def test_order_cap_is_kept(wrap):
    with pytest.raises(OrderCapError):
        Dx(wrap(jet(0, 8)))
    with pytest.raises(OrderCapError):
        Dt(wrap(jet(3, 5)))
    assert Dx(wrap(jet(0, 7))) != 0
    assert Dt(wrap(jet(3, 4)), cap=8) != 0


def test_prolonged_field_refuses_jets_above_its_order():
    P = prolong(VectorField(t, x, u), 1)
    assert P.apply(u * u_x) != 0
    with pytest.raises(OrderCapError):
        P.apply(u * u_xx)
    with pytest.raises(OrderCapError):
        P.apply(g(u_tx))


def test_leaf_is_consulted_once_per_symbol():
    e = sum((g(u_x + k) * u_x**k + sp.exp(k * u_x * u) for k in range(1, 26)), sp.S.Zero)
    e += formal_integral(g(v) * u_x, v, u_x * t)
    assert sum(1 for n in sp.preorder_traversal(e) if n == u_x) >= 50
    asked = Counter()

    def leaf(sym):
        asked[sym] += 1
        return {u: u_x, u_x: u_xx}.get(sym, sp.S.Zero)

    out = _derivation(e, leaf)
    assert set(asked) == e.free_symbols
    assert set(asked.values()) == {1}
    assert is_zero(out - total_oracle(e, "x"))


# ---------------------------------------------------------------------------
# The verify path never reaches the fallback
# ---------------------------------------------------------------------------


def test_verify_path_makes_no_diff_call_inside_the_walk(monkeypatch):
    depth = [0]
    walks = [0]
    inside = []
    walk, diff = symcore._derivation, sp.Expr.diff

    def counted(e, leaf):
        depth[0] += 1
        walks[0] += 1
        try:
            return walk(e, leaf)
        finally:
            depth[0] -= 1

    def spy(self, *args, **kwargs):
        if depth[0]:
            inside.append((self, args))
        return diff(self, *args, **kwargs)

    monkeypatch.setattr(symcore, "_derivation", counted)
    monkeypatch.setattr(jetcalc, "_derivation", counted)
    monkeypatch.setattr(sp.Expr, "diff", spy)
    # the spy sees a fallback
    Dx(u * sp.sign(u_x))
    assert inside
    inside.clear()
    for name in catalog.names():
        assert catalog.verify_entry(name).passed, name
    assert walks[0] > 100
    assert inside == []
