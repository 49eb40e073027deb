"""Exact symbolic kernel shared by every other module.

Expressions are sympy objects over a fixed vocabulary:

* independent variables ``t``, ``x`` and free parameters (plain symbols),
* jet variables ``u, u_t, u_x, u_tx, ...`` (symbols with a canonical
  t-before-x naming scheme),
* formal functions ``g, g', alpha_1, ...`` created by :func:`formal`,
  which differentiate by the chain rule and never evaluate; they are the
  only unknown functions, so no ``Derivative`` or ``Subs`` node arises,
* formal integrals ``Integral(h(v), (v, 0, w))`` with lower bound 0.

Text becomes an expression only through :func:`parse`, which builds this
vocabulary and evaluates nothing.

Zero-testing works in two stages. Stage 1 is deterministic: every
transcendental subexpression becomes an independent kernel symbol, and
the kernelized expression is walked into a fresh :class:`_DiffRing`, a
sparse polynomial ring over ZZ, as numerator / (integer · product of
primitive denominator factors), then read over QQ. Such a ring grows its
generators as walks and derivations need them, so a claim built by
derivations can stay in it from the start, and the zero test takes its
elements the same way. A power that
is not an integer power, exp included, is split by the terms of its
exponent: each term is a power of its own kernel, and terms that differ
or sum to a rational share one. No gcd is taken, so the value is zero
exactly when the numerator is; the root relations r**L = base and
I**2 = -1 are then reduced inside the ring. When the numerator is not
zero, stage 2 samples the same ring form, with the numerator as it was
before those reductions and each denominator base that is one generator
cancelled against its lowest power in the numerator, so a kernel that
divides out takes no value: at a random rational point, with a random
polynomial stand-in for each formal function, every generator of the
numerator and the denominator bases takes its value. A symbol and a
formal function at rational arguments take exact values, and when every
value is exact the form is evaluated over QQ, so a nonzero value is an
exact witness.
Any other kernel (exp, log, a root, a symbolic power, an integral, pi)
takes a 40-digit value with an error enclosure, and the form is
evaluated in interval arithmetic: a numerator whose enclosure holds 0 is
a zero sample. A formal function applied at m argument tuples with
partials up to order k gets every monomial of total degree
max(3, m(k+1) - 1), so no relation among those values holds for the
stand-in alone. A formal integral of a polynomial integrand is taken
exactly before it is rounded; any other is computed by 40-digit
Gauss-Legendre quadrature (nodes by Newton's method in fixed point), one
limit at a time, never integrated symbolically. A pole, a vanishing
denominator base, a complex value or a quadrature that misses its error
bound rejects the sample, and another point is drawn; a SymPy function
that is not formal has no stand-in, so its samples are all rejected and
the test is indeterminate. Asked whether e vanishes where Φ = 0, both
stages judge the pseudo-remainder of e's numerator by Φ's instead (see
:func:`is_zero`).

There is one rational normal form, :func:`_cancel`: p/q over ZZ in the
ring of an expression's generators with gcd(p, q) removed, each leaf a
power of one generator as in ``sp.cancel``. It is the key of a kernel's
arguments and power bases, the solved rhs of a ``PdeManifold``, the body
of :func:`normalize`, the printable normal form, and every form of
:mod:`jetquot.hs`; a verdict's ``residual`` calls it when the
certificate of a claim that is not proved zero is first read.
"""

from __future__ import annotations

import builtins
import math
import operator
import random
import re
import warnings
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import combinations_with_replacement
from typing import Callable, Mapping, NamedTuple, Sequence

import mpmath
import sympy as sp
from mpmath import iv
from mpmath.calculus.quadrature import GaussLegendre
from sympy import Rational, Symbol
from sympy.core.function import AppliedUndef
from sympy.polys.domains import QQ, ZZ
from sympy.polys.polyutils import _sort_gens, decompose_power
from sympy.polys.rings import ring
from sympy.printing.pycode import MpmathPrinter

t = Symbol("t")
x = Symbol("x")


class SymcoreError(Exception):
    pass


class ExprSyntaxError(SymcoreError):
    """Raised by :func:`parse`; carries the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class EvalError(SymcoreError):
    """Numeric evaluation hit a pole, a domain or overflow error, a
    non-real value, failed quadrature or an unbound symbol."""

    def __init__(self, message, subexpr=None):
        if subexpr is not None:
            message = f"{message}: {subexpr}"
        super().__init__(message)
        self.subexpr = subexpr


class IndeterminateZeroTest(SymcoreError):
    pass


class UndefinedExpressionError(IndeterminateZeroTest):
    """The expression has no value: it holds a non-finite constant (zoo,
    oo, nan) or a denominator that vanishes identically."""


# ---------------------------------------------------------------------------
# Jet variables
# ---------------------------------------------------------------------------

_JET_NAME = re.compile(r"^u(?:_(t*)(x*))?$")


@dataclass(frozen=True, order=True)
class JetVar:
    """A derivative coordinate of the dependent variable u."""

    t_order: int
    x_order: int

    @property
    def name(self) -> str:
        if self.t_order == self.x_order == 0:
            return "u"
        return "u_" + "t" * self.t_order + "x" * self.x_order

    @property
    def order(self) -> int:
        return self.t_order + self.x_order

    @property
    def symbol(self) -> Symbol:
        return Symbol(self.name)


def jet(t_order: int, x_order: int = 0) -> Symbol:
    """The symbol for the jet variable with the given derivative orders."""
    return JetVar(t_order, x_order).symbol


def jet_orders(sym: Symbol) -> tuple[int, int] | None:
    """(t_order, x_order) if ``sym`` is a jet variable, else None."""
    m = _JET_NAME.match(sym.name)
    if m is None:
        return None
    return (len(m.group(1) or ""), len(m.group(2) or ""))


def jets_in(e: sp.Expr) -> dict[Symbol, tuple[int, int]]:
    out = {}
    for s in e.free_symbols:
        ij = jet_orders(s)
        if ij is not None:
            out[s] = ij
    return out


def max_jet_order(e: sp.Expr) -> int:
    orders = [i + j for i, j in jets_in(e).values()]
    return max(orders, default=-1)


def canonical_jet_name(name: str) -> str | None:
    """Canonicalize a jet name, reordering the subscript (u_xt -> u_tx)."""
    m = re.match(r"^u(?:_([tx]+))?$", name)
    if m is None:
        return None
    sub = m.group(1) or ""
    return JetVar(sub.count("t"), sub.count("x")).name


u = jet(0, 0)
u_t, u_x = jet(1, 0), jet(0, 1)
u_tt, u_tx, u_xx = jet(2, 0), jet(1, 1), jet(0, 2)


# ---------------------------------------------------------------------------
# Formal functions
# ---------------------------------------------------------------------------


class FormalFunction(sp.Function):
    """Base class for uninterpreted function symbols.

    Differentiation produces another FormalFunction class whose
    ``deriv_orders`` multi-index is bumped in the corresponding slot,
    so the chain rule works through ``fdiff`` (in :func:`differentiate`
    and sympy's ``diff`` alike) without ever creating
    ``Derivative``/``Subs`` wrappers.
    """

    base_name: str = ""
    deriv_orders: tuple[int, ...] = ()

    def fdiff(self, argindex=1):
        orders = list(self.deriv_orders)
        orders[argindex - 1] += 1
        cls = formal(self.base_name, len(self.deriv_orders), tuple(orders))
        return cls(*self.args)


_formal_cache: dict[tuple, type] = {}


def _formal_display(base: str, orders: tuple[int, ...]) -> str:
    if len(orders) == 1:
        return base + "'" * orders[0]
    slots = "".join(str(i + 1) * o for i, o in enumerate(orders))
    return base + ("_" + slots if slots else "")


def formal(name: str, nargs: int = 1, orders: tuple[int, ...] | None = None) -> type:
    """The (class of the) formal function ``name`` with ``nargs`` arguments.

    ``orders`` selects a partial derivative; ``formal('g', 1, (2,))`` is g''.
    """
    if orders is None:
        orders = (0,) * nargs
    if len(orders) != nargs:
        raise SymcoreError(f"derivative multi-index {orders} does not match arity {nargs}")
    key = (name, nargs, orders)
    if key not in _formal_cache:
        cls = type(
            _formal_display(name, orders),
            (FormalFunction,),
            {"base_name": name, "deriv_orders": orders, "nargs": nargs},
        )
        _formal_cache[key] = cls
    return _formal_cache[key]


def is_formal(e) -> bool:
    return isinstance(e, FormalFunction)


def bind_formal(e: sp.Expr, name: str, params: Sequence[Symbol], expr: sp.Expr) -> sp.Expr:
    """Replace the formal function ``name`` (and all its derivatives) by a
    concrete expression in ``params``.

    ``bind_formal(G, "g", (w,), exp(w))`` turns every g^(k)(a) into
    (d^k/dw^k exp(w))|_{w=a}. Each partial is differentiated once, and
    the arguments replace the parameters in one simultaneous ``xreplace``.
    """
    return _bind(e, {name: (tuple(params), sp.sympify(expr))})


def _bind(e: sp.Expr, bindings: Mapping[str, tuple[tuple, sp.Expr]]) -> sp.Expr:
    """:func:`bind_formal` for every ``name: (params, expr)`` of
    ``bindings`` at once, in one walk of e."""
    partials: dict[tuple, sp.Expr] = {}

    def query(node):
        return is_formal(node) and node.base_name in bindings

    def value(node):
        params, expr = bindings[node.base_name]
        if len(node.args) != len(params):
            raise SymcoreError(f"arity mismatch binding {node.base_name}")
        key = (node.base_name, node.deriv_orders)
        d = partials.get(key)
        if d is None:
            orders = [(p, o) for p, o in zip(params, node.deriv_orders) if o]
            if isinstance(expr, sp.Poly):  # a stand-in
                d = (expr.diff(*orders) if orders else expr).as_expr()
            else:
                d = expr.diff(*orders) if orders else expr
            partials[key] = d
        return d.xreplace(dict(zip(params, node.args)))

    return e.replace(query, value)


def formal_integral(integrand: sp.Expr, var: Symbol, upper: sp.Expr) -> sp.Expr:
    """The formal integral of ``integrand`` dvar from 0 to ``upper``."""
    return sp.Integral(integrand, (var, sp.Integer(0), upper))


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d+)?(?:[eE][-+]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*'*)|(?P<op>[-+*/^(),]))"
)

_BUILTINS: dict[str, Callable] = {
    "exp": sp.exp,
    "ln": sp.log,
    "log": sp.log,
    "sqrt": sp.sqrt,
    "sin": sp.sin,
    "cos": sp.cos,
    "atanh": sp.atanh,
}


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if m is None or m.end() == pos:
                if text[pos:].strip():
                    raise ExprSyntaxError(f"unexpected character {text[pos]!r}", pos)
                break
            kind = m.lastgroup
            self.tokens.append((kind, m.group(kind), m.start(kind)))
            pos = m.end()
        self.i = 0
        self.arities: dict[str, int] = {}

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None, len(self.text))

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect(self, value):
        kind, val, pos = self.next()
        if val != value:
            raise ExprSyntaxError(f"expected {value!r}, found {val!r}", pos)

    def parse(self):
        e = self.expr()
        kind, val, pos = self.peek()
        if kind is not None:
            raise ExprSyntaxError(f"trailing input {val!r}", pos)
        return e

    def expr(self):
        kind, val, _ = self.peek()
        sign = 1
        if val in ("+", "-"):
            self.next()
            sign = -1 if val == "-" else 1
        e = sign * self.term()
        while True:
            kind, val, _ = self.peek()
            if val == "+":
                self.next()
                e = e + self.term()
            elif val == "-":
                self.next()
                e = e - self.term()
            else:
                return e

    def term(self):
        e = self.factor()
        while True:
            kind, val, _ = self.peek()
            if val == "*":
                self.next()
                e = e * self.factor()
            elif val == "/":
                self.next()
                e = e / self.factor()
            else:
                return e

    def factor(self):
        e = self.base()
        kind, val, _ = self.peek()
        if val == "^":
            self.next()
            e = e ** self.exponent()
        return e

    def exponent(self):
        kind, val, pos = self.peek()
        if val == "(":
            self.next()
            e = self.expr()
            self.expect(")")
            return e
        sign = 1
        if val == "-":
            self.next()
            sign = -1
            kind, val, pos = self.peek()
        if kind == "num":
            self.next()
            return sign * sp.Rational(val)
        if kind == "ident":
            # a bare symbol exponent like x^n; anything larger needs parentheses
            self.next()
            return sign * self.atom(val, pos)
        raise ExprSyntaxError("expected an exponent", pos)

    def base(self):
        kind, val, pos = self.next()
        if val == "(":
            e = self.expr()
            self.expect(")")
            return e
        if kind == "num":
            return sp.Rational(val)
        if kind != "ident":
            raise ExprSyntaxError(f"unexpected token {val!r}", pos)
        nxt_kind, nxt_val, _ = self.peek()
        if nxt_val == "(":
            return self.call(val, pos)
        return self.atom(val, pos)

    def atom(self, name, pos):
        primes = len(name) - len(name.rstrip("'"))
        stem = name.rstrip("'")
        if primes:
            raise ExprSyntaxError(f"derivative {name!r} must be applied to arguments", pos)
        canon = canonical_jet_name(stem)
        if canon is not None:
            return Symbol(canon)
        return Symbol(stem)

    def call(self, name, pos):
        if name == "int":
            return self.integral(pos)
        self.expect("(")
        args = [self.expr()]
        while self.peek()[1] == ",":
            self.next()
            args.append(self.expr())
        self.expect(")")
        if name == "D":
            if len(args) != 2:
                raise ExprSyntaxError("D(g, k) takes two arguments", pos)
            fn, order = args
            if not (is_formal(fn) or isinstance(fn, Symbol)):
                raise ExprSyntaxError("first argument of D must be a function", pos)
            if isinstance(fn, Symbol):
                raise ExprSyntaxError("D(g, k) needs g applied to arguments", pos)
            k = int(order)
            cls = formal(fn.base_name, len(fn.args),
                         tuple(o + (k if i == 0 else 0)
                               for i, o in enumerate(fn.deriv_orders)))
            return cls(*fn.args)
        primes = len(name) - len(name.rstrip("'"))
        stem = name.rstrip("'")
        if stem in _BUILTINS:
            if primes:
                raise ExprSyntaxError(f"cannot differentiate builtin {stem!r} with primes", pos)
            if len(args) != 1:
                raise ExprSyntaxError(f"{stem} takes one argument", pos)
            return _BUILTINS[stem](args[0])
        if self.arities.setdefault(stem, len(args)) != len(args):
            raise ExprSyntaxError(
                f"{stem!r} used with {len(args)} argument(s) after "
                f"{self.arities[stem]}", pos
            )
        orders = list((0,) * len(args))
        orders[0] += primes
        try:
            cls = formal(stem, len(args), tuple(orders))
        except SymcoreError as exc:
            raise ExprSyntaxError(str(exc), pos) from None
        return cls(*args)

    def integral(self, pos):
        self.expect("(")
        integrand = self.expr()
        self.expect(",")
        kind, var, vpos = self.next()
        if kind != "ident":
            raise ExprSyntaxError("expected an integration variable", vpos)
        self.expect(",")
        kind, low, lpos = self.next()
        if low != "0":
            raise ExprSyntaxError("formal integrals start at 0", lpos)
        self.expect(",")
        upper = self.expr()
        self.expect(")")
        return formal_integral(integrand, Symbol(var), upper)


def parse(text: str) -> sp.Expr:
    """Parse an expression string into a normalized sympy expression."""
    return normalize(_Parser(text).parse())


# ---------------------------------------------------------------------------
# Core operations
# ---------------------------------------------------------------------------


def differentiate(e: sp.Expr, a: Symbol) -> sp.Expr:
    """Partial derivative with respect to one atom.

    Every other atom is held constant; formal functions follow the chain
    rule and formal integrals follow the Leibniz rule (under the integral
    sign and through the bounds). This is the one-atom case of the
    derivation walk behind every total derivative and prolongation.
    """
    if not isinstance(a, Symbol):
        raise SymcoreError(f"can only differentiate with respect to an atom, not {a}")
    return _derivation(sp.sympify(e), lambda s: sp.S.One if s == a else sp.S.Zero)


def _is_nonzero(d: sp.Expr) -> bool:
    return not (d.is_Number and d.is_zero)


def _own_chain_rule(f: sp.Function) -> bool:
    """f differentiates through ``fdiff`` alone (formal functions, exp,
    log, atanh, ...), not through a ``_eval_derivative`` of its own."""
    cls = type(f)
    return (cls._eval_derivative is sp.Function._eval_derivative
            and cls.fdiff is not sp.Function.fdiff)


def _derivation(e: sp.Expr, leaf: Callable[[Symbol], sp.Expr]) -> sp.Expr:
    """The derivation D with D(s) = leaf(s) for every symbol s, applied to e.

    One post-order walk: every distinct subtree is differentiated once
    (memoized by node) and ``leaf`` is consulted once per distinct symbol.
    The rules are SymPy's own (product rule over the factors, the power
    rule n·(D(p)·log b + p·D(b)/b), the chain rule through ``fdiff``), so
    the result has the shapes ``Expr.diff`` gives. A formal integral
    follows the Leibniz rule: D(hi)·f(hi) − D(lo)·f(lo) plus
    Σ D(s)·∫ ∂f/∂s over the free symbols s of the integrand f, so its
    integral kernels are those of the partial derivatives. Any other node
    (``floor``, ``sign``, ``re``, ``Piecewise``, ...) falls back to
    Σ D(s)·∂n/∂s over its free symbols.
    """
    memo: dict[sp.Expr, sp.Expr] = {}

    def D(n: sp.Expr) -> sp.Expr:
        d = memo.get(n)
        if d is None:
            d = memo[n] = rule(n)
        return d

    def rule(n: sp.Expr) -> sp.Expr:
        if n.is_Symbol:
            return sp.sympify(leaf(n))
        if n.is_Number or n.is_NumberSymbol or n is sp.I:
            return sp.S.Zero
        if n.is_Add:
            return sp.Add(*[D(a) for a in n.args])
        if n.is_Mul:
            args = list(n.args)
            terms = []
            for i, a in enumerate(args):
                d = D(a)
                if _is_nonzero(d):
                    terms.append(reduce(operator.mul, args[:i] + [d] + args[i + 1:], sp.S.One))
            return sp.Add(*terms)
        if n.is_Pow:
            b, p = n.args
            db, dp = D(b), D(p)
            out = dp * sp.log(b) if _is_nonzero(dp) else sp.S.Zero
            if _is_nonzero(db):
                out += db * p / b
            return n * out if _is_nonzero(out) else sp.S.Zero
        if isinstance(n, sp.Function) and _own_chain_rule(n):
            terms = []
            for k, a in enumerate(n.args, 1):
                d = D(a)
                if _is_nonzero(d):
                    terms.append(n.fdiff(k) * d)
            return sp.Add(*terms)
        if isinstance(n, sp.Integral) and all(len(lim) == 3 for lim in n.limits):
            return leibniz(n)
        return sp.Add(*[D(s) * n.diff(s) for s in _free_sorted(n) if _is_nonzero(D(s))])

    def leibniz(n: sp.Integral) -> sp.Expr:
        # the outermost limit (v, lo, hi); any inner limits stay on f
        (v, lo, hi), inner = n.limits[-1], n.limits[:-1]
        f = n.func(n.function, *inner) if inner else n.function
        out = sp.S.Zero
        for end, sign in ((hi, 1), (lo, -1)):
            d = D(end)
            if _is_nonzero(d):
                out += sign * f.subs(v, end) * d
        for s in _free_sorted(f):
            if s != v and _is_nonzero(D(s)):
                df = differentiate(f, s)
                if _is_nonzero(df):
                    out += D(s) * n.func(df, (v, lo, hi))
        return out

    return D(e)


def _free_sorted(e: sp.Expr) -> list[Symbol]:
    return sorted(e.free_symbols, key=sp.default_sort_key)


# -- walks that visit each distinct subexpression once -----------------------
# Claims reuse restricted subexpressions: a tree walk would visit a shared
# node once per path to it.


def _nodes(e: sp.Basic, into: Callable[[sp.Basic], bool] = lambda n: True):
    """Each distinct subexpression of e once, a node before its args; the
    args of a node n are walked only when ``into(n)``."""
    stack, seen = [e], set()
    while stack:
        n = stack.pop()
        if n not in seen:
            seen.add(n)
            yield n
            if into(n):
                stack.extend(n.args)


def _free_symbols(e: sp.Basic) -> set:
    """``e.free_symbols`` by :func:`_nodes`: an integral adds its own free
    symbols, which leave out its bound variables."""
    out = set()
    for n in _nodes(e, lambda n: not isinstance(n, sp.Integral)):
        if n.is_Symbol:
            out.add(n)
        elif isinstance(n, sp.Integral):
            out |= n.free_symbols
    return out


def _xreplace(e: sp.Basic, rule: Callable[[sp.Basic], sp.Basic | None]) -> sp.Basic:
    """``e.xreplace`` with ``rule(node)`` in place of a mapping (None keeps
    the node), memoized by node: each distinct subexpression is visited
    once, a replaced node is not walked into, and a node none of whose
    args changed is returned itself."""
    memo: dict[sp.Basic, sp.Basic] = {}

    def walk(n):
        out = memo.get(n)
        if out is None:
            out = rule(n)
            if out is None:
                args = [walk(a) for a in n.args]
                out = n if all(a is b for a, b in zip(args, n.args)) else n.func(*args)
            memo[n] = out
        return out

    return walk(e)


# -- kernelization for normalization / zero testing -------------------------

#: exp, log, atanh, formal functions, ... and formal integrals
_KERNELS = (sp.Function, sp.Integral)


class _Kernelizer:
    """Replaces transcendental kernels by fresh symbols.

    Every power that is not an integer power, exp(a) = E**a included,
    follows one rule. Its walked exponent is expanded and split into
    terms. The rational part becomes whole powers of the base times a
    power of the root kernel base**(1/L), L the lcm of all denominators
    seen for that base. Every other term m, with rational coefficient c,
    becomes the c-th power of the kernel base**m, through the root kernel
    base**(m/L) when c is not an integer. A term that differs by a
    rational from a term already seen for the same base, or whose sum
    with it is rational, reuses that term's kernel, and the rational goes
    to the rational part. Each rewrite holds on the principal branch:
    b**(m+n) = b**m * b**n and (b**(m/L))**L = b**m. Kernel arguments,
    power bases, exponent differences and flattened exponents are put in
    the canonical form :func:`_cancel`, so two writings of one rational
    function of the same leaves make one kernel.
    """

    def __init__(self):
        self.table: dict[sp.Expr, Symbol] = {}
        self.frac_bases: dict[sp.Expr, int] = {}
        #: the exponent terms m seen for each base, one kernel base**m each
        self.terms: dict[sp.Expr, list[sp.Expr]] = {}
        self.counter = 0
        #: each node's walk, as made on its first visit; integrals that differ
        #: only in their bound variables are one key, walked as first written
        self.walked: dict[sp.Expr, sp.Expr] = {}
        #: the free symbols of each kernel symbol's kernel, the kernels inside it unkernelized
        self.inner: dict[Symbol, set] = {}

    def _sym(self, kernel: sp.Expr) -> Symbol:
        if kernel not in self.table:
            self.counter += 1
            sym = self.table[kernel] = Symbol(f"_k{self.counter}")
            inner = set().union(*[self.inner.get(s, {s}) for s in _free_symbols(kernel)])
            self.inner[sym] = inner - set(kernel.variables if isinstance(kernel, sp.Integral) else ())
        return self.table[kernel]

    def run(self, e: sp.Expr) -> sp.Expr:
        # pre-scan: the lcm of the denominators of each base's rational powers
        for node in _nodes(e):
            if node.is_Pow and node.exp.is_Rational and not node.exp.is_Integer:
                L = sp.ilcm(self.frac_bases.get(node.base, 1), node.exp.q)
                self.frac_bases[node.base] = L
        return self._walk(e)

    def _walk(self, e: sp.Expr) -> sp.Expr:
        # an integral with a free Dummy keys itself: renaming could capture it
        key = (_canon_integral_dummies(e) if isinstance(e, sp.Integral)
               and not any(s.is_Dummy for s in e.free_symbols) else e)
        out = self.walked.get(key)
        if out is None:
            out = self.walked[key] = self._rewrite(e)
        return out

    def _rewrite(self, e: sp.Expr) -> sp.Expr:
        if e.is_Atom:
            if e is sp.E:
                return self._sym(sp.E)
            return e
        if isinstance(e, sp.exp):
            return self._power(sp.E, e.args[0])
        if isinstance(e, sp.Integral):
            # factors free of the bound variables leave the kernel: ∫3g = 3·∫g
            outside, inside = e.function.as_independent(*e.variables, as_Add=False)
            if outside is not sp.S.One:
                return self._walk(outside) * self._walk(e.func(inside, *e.limits))
        if isinstance(e, _KERNELS):
            canon = e.func(*[self._canon_arg(a) for a in e.args])
            return self._sym(canon)
        if e.is_Pow:
            base, expo = e.args
            # flatten nested powers (real principal branch throughout)
            while base.is_Pow and not (base.exp.is_Integer and expo.is_Integer):
                base, expo = base.base, _cancel(base.exp * expo)
            if expo.is_Integer:
                return self._walk(base) ** expo
            return self._power(base, expo)
        args = [self._walk(a) for a in e.args]
        return e if all(a is b for a, b in zip(args, e.args)) else e.func(*args)

    def _canon_arg(self, a):
        if isinstance(a, sp.Tuple):
            return sp.Tuple(*[self._canon_arg(b) for b in a])
        return _cancel(self._walk(a))

    def _power(self, base: sp.Expr, expo: sp.Expr) -> sp.Expr:
        """base**expo for an exponent that is not an Integer."""
        if expo.is_Rational:
            return self._root(_cancel(self._walk(base)), expo)
        # exp(a) is E**a; the symbol of E is made only for a rational part
        wbase = base if base is sp.E else self._walk(base)
        kbase = base if base is sp.E else _cancel(wbase)
        rational, out = sp.S.Zero, sp.S.One
        for m, c in sp.expand(self._walk(expo)).as_coefficients_dict().items():
            if not c.is_Rational:
                m, c = m * c, sp.S.One
            if m is sp.S.One:
                rational += c
                continue
            # a rational factor inside a denominator: 1/(2 - 2*a) = (1/2)/(1 - a)
            content, m = m.as_content_primitive()
            m0, sign, d = self._term(kbase, m)
            rational += c * content * d
            out *= self._root(kbase, sign * c * content, m0)
        if rational:
            out *= self._root(self._sym(sp.E) if base is sp.E else wbase, rational)
        return out

    def _term(self, kbase: sp.Expr, m: sp.Expr):
        """(m0, sign, d) with m = sign*m0 + d for the first term m0 seen
        for kbase and a Rational d; (m, 1, 0) when m matches none, and m is
        seen from then on. Terms whose free symbols differ are not compared."""
        seen = self.terms.setdefault(kbase, [])
        for m0 in seen:
            if m0.free_symbols == m.free_symbols:
                for sign in (1, -1):
                    d = _cancel(m - sign * m0)
                    if d.is_Rational:
                        return m0, sign, d
        seen.append(m)
        return m, 1, sp.S.Zero

    def _root(self, base: sp.Expr, expo: sp.Rational, m: sp.Expr = sp.S.One) -> sp.Expr:
        """(base**m)**expo as whole powers of the kernel base**m times a
        power of the root kernel base**(m/L), L the lcm of the denominators
        seen for base**m. With m = 1, base**m is the walked base itself."""
        whole_kernel = base if m is sp.S.One else self._sym(_power_kernel(base, m))
        if expo.is_Integer:
            return whole_kernel**expo
        L = sp.ilcm(self.frac_bases.get(whole_kernel, 1), expo.q)
        self.frac_bases[whole_kernel] = L
        root = self._sym(_power_kernel(base, m / L))
        whole, rem = divmod(int(expo * L), L)
        return whole_kernel**whole * root**rem


def _cancel(w: sp.Expr) -> sp.Expr:
    """w as p/q over ZZ in the ring of its generators with gcd(p, q) removed
    and q's leading coefficient positive, the generators in SymPy's order,
    so that the form is the one ``sp.cancel`` prints. As there, each leaf
    (see :func:`_ring_leaves`) is a power of one generator
    (``decompose_power``): b**(p/q) is (b**(1/q))**p, exp(k*a) is
    exp(a)**k and exp(-2) is E**-2; and a root b**(1/q) to a multiple of q
    is that power of b, as SymPy's Mul makes sqrt(a)*sqrt(a) = a, so p/q
    holding one is read again with it multiplied out. Equal rational
    functions of the same generators give the identical expression; a
    Float leaf is its exact binary Rational. w holding I is left to
    ``sp.cancel``, which reduces I**2 = -1 over ZZ_I; w is returned as it
    is when a walk fails (a non-finite constant, a vanishing denominator)."""
    if w.is_Symbol or w.is_Rational:
        return w
    try:
        leaves = _ring_leaves(w, set())
        if sp.I in leaves:
            return sp.cancel(w)
        powers = {f: (Rational(f), 1) if f.is_Float else decompose_power(f) for f in leaves}
        gens = list(_sort_gens(sorted({g for g, _ in powers.values() if not g.is_Rational},
                                      key=sp.default_sort_key)))
        walk = _RingWalk(gens)
        walk.memo.update((f, walk(sp.Pow(*powers[f], evaluate=False)))
                         for f in leaves if powers[f] != (f, 1))
        num, den, c = walk(w)
    except (UndefinedExpressionError, ValueError, sp.PolynomialError):
        return w
    den = reduce(operator.mul, [b**k for b, k in den.items()], walk.R(c))
    roots = [(i, q) for i, g in enumerate(gens) if not g.is_Symbol
             and (q := g.as_base_exp()[1].as_coeff_Mul(rational=True)[0].q) > 1]
    if any(m[i] and not m[i] % q for p in (num, den) for m in p.keys() for i, q in roots):
        return _cancel(num.as_expr() / den.as_expr())
    p, q = num.cancel(den)
    return p.as_expr() / q.as_expr()


def _power_kernel(base: sp.Expr, m: sp.Expr) -> sp.Expr:
    """The kernel base**m, written exp(m) for the base E."""
    return sp.exp(m) if base is sp.E else sp.Pow(base, m, evaluate=False)


def _canon_integral_dummies(e: sp.Expr, depth: int = 0) -> sp.Expr:
    """Rename integration variables to a fixed sequence keyed by nesting.

    Two integrals that differ only in the choice of bound variable then
    compare structurally equal, so they share a single kernel. The new
    variables are Dummies with fixed indices, which equal no symbol that
    ``parse`` makes, so no free symbol is captured. Integrand factors
    free of every integration variable move outside the integral.
    """
    def rule(n):
        if not isinstance(n, sp.Integral):
            return None
        func = n.function
        limits = []
        d = depth
        for var, *bounds in n.limits:
            rename = {var: sp.Dummy(f"iv{d}", dummy_index=d)}
            d += 1
            func = func.xreplace(rename)
            # limits are innermost first: the bounds before this one may
            # hold its variable too
            limits = [lim.xreplace(rename) for lim in limits]
            limits.append(sp.Tuple(rename[var], *[
                _canon_integral_dummies(b, d) for b in bounds
            ]))
        outside, func = func.as_independent(*[lim[0] for lim in limits], as_Add=False)
        return (_canon_integral_dummies(outside, depth)
                * sp.Integral(_canon_integral_dummies(func, d), *limits))

    return _xreplace(sp.sympify(e), rule)


def kernelize(e: sp.Expr) -> tuple[sp.Expr, dict[sp.Expr, Symbol]]:
    """(expression with kernels replaced by symbols, kernel table)."""
    k = _Kernelizer()
    out = k.run(sp.sympify(e))
    return out, k.table


def unkernelize(e: sp.Expr, table: dict[sp.Expr, Symbol]) -> sp.Expr:
    """Undo a kernel table; kernels may nest, so substitute to a fixpoint."""
    inverse = {s: k for k, s in table.items()}
    for _ in range(len(table) + 1):
        out = _xreplace(e, inverse.get)
        if out is e:
            return out
        e = out
    return e


def normalize(e: sp.Expr) -> sp.Expr:
    """Rational normal form over the expression's kernels: the body of
    :func:`kernelize` in the canonical form :func:`_cancel`, unkernelized.

    Idempotent; maps anything that is zero as a rational function of its
    kernels to the literal 0.
    """
    body, table = kernelize(e)
    return unkernelize(_cancel(body), table)


# -- zero testing ------------------------------------------------------------


@dataclass
class ZeroVerdict:
    is_zero: bool
    mode: str  # "deterministic" | "probabilistic" | "nonzero"
    witness: object = None  # |value| at a point: exact Rational or 40-digit Float
    samples: int = 0  # points drawn by stage 2, rejected ones included
    expr: sp.Expr = sp.S.Zero  # the expression judged; 0 for a ring claim proved zero

    def __bool__(self):
        return self.is_zero

    @cached_property
    def residual(self) -> sp.Expr:
        """The certificate: 0 for a deterministic zero, else the normal
        form of the expression judged. It is computed on first read, so
        only a claim whose certificate is wanted pays for it."""
        if self.mode == "deterministic":
            return sp.S.Zero
        return normalize(self.expr)

    def __repr__(self):
        return f"ZeroVerdict({self.is_zero}, {self.mode!r})"


def exact_zero(e: sp.Expr) -> bool:
    """Stage 1 of :func:`is_zero` alone: True when e is provably zero."""
    return not _stage1(sp.sympify(e)).num


def _stage1(e: sp.Expr, modulo: tuple | None = None) -> "_RingForm":
    """The ring form of e (modulo Φ, see :func:`is_zero`) in a fresh
    :class:`_DiffRing`; with ``modulo = (base, Φ)``, e and Φ are walked in
    one kernelizer pass."""
    ring = _DiffRing()
    if modulo is None:
        return ring._form(ring.walk(e))
    elem, phi = ring.walk(sp.Tuple(e, modulo[1]))
    return ring._form(elem, modulo=(modulo[0], phi))


# -- stage 1 in a factored-denominator polynomial ring ------------------------

_NON_FINITE = frozenset({sp.S.ComplexInfinity, sp.S.Infinity, sp.S.NegativeInfinity, sp.S.NaN})


def _ring_leaves(e: sp.Expr, out: set) -> set:
    """Add the generators of e to ``out``: every leaf that is not a Rational.

    Sums, products and integer powers are ring operations, and a Tuple's
    parts are walked; any other node (a symbol, pi, I, a float, an
    unexpected compound) is one generator.
    """
    stack, seen = [e], set()
    while stack:
        node = stack.pop()
        if node in seen or node.is_Rational:
            continue
        seen.add(node)
        if (node.is_Add or node.is_Mul or (node.is_Pow and node.exp.is_Integer)
                or isinstance(node, sp.Tuple)):
            stack.extend(node.args)
        elif node in _NON_FINITE:
            raise UndefinedExpressionError(f"non-finite constant {node}")
        else:
            out.add(node)
    return out


def _accumulate(acc: dict, p) -> None:
    """acc += p, on the term dict of a ring element, in place."""
    for monom, coeff in p.items():
        c = acc.get(monom)
        if c is None:
            acc[monom] = coeff
        elif c + coeff:
            acc[monom] = c + coeff
        else:
            del acc[monom]


class _RingWalk:
    """Walks a kernelized body into (num, {base: power}, c) over ZZ.

    The value is num / (c * Π base**power): ``num`` lies in
    ``ring(gens, ZZ)``, c is a positive integer, and each base is a
    primitive ring element with positive leading coefficient, never
    multiplied out. No gcd of polynomials is taken: every base is a
    nonzero polynomial, so the value is zero exactly when ``num`` is.
    :meth:`qq` gives the value over QQ, as num/c and the bases.
    """

    def __init__(self, gens: list):
        self.R, *elems = ring(gens, ZZ)
        self.gen = dict(zip(gens, elems))
        self.memo: dict = {}

    def __call__(self, e: sp.Expr):
        out = self.memo.get(e)
        if out is None:
            out = self.memo[e] = self._convert(e)
        return out

    def _convert(self, e: sp.Expr):
        R = self.R
        if e.is_Rational:
            return R.ground_new(int(e.p)), {}, int(e.q)
        g = self.gen.get(e)
        if g is not None:
            return g, {}, 1
        if e.is_Add:
            return self._add([self(a) for a in e.args])
        if e.is_Mul:
            return self._mul([self(a) for a in e.args])
        # an integer power: _ring_leaves made every other node a generator
        n = int(e.exp)
        num, den, c = self(e.base)
        if n < 0:
            (num, den, c), n = self._invert((num, den, c)), -n
        return num**n, {b: p * n for b, p in den.items()}, c**n

    def _mul(self, factors):
        num, den, c = self.R.one, {}, 1
        for n, d, k in factors:
            num, c = num * n, c * k
            for b, p in d.items():
                den[b] = den.get(b, 0) + p
        return num, den, c

    def _add(self, terms):
        # scale the numerators to one scalar, sum them over each distinct
        # denominator, then bring the sums to the common denominator (the
        # highest power of each base)
        c = math.lcm(*[k for _, _, k in terms]) if terms else 1
        sums: dict[frozenset, dict] = {}
        for num, den, k in terms:
            _accumulate(sums.setdefault(frozenset(den.items()), {}),
                        num if k == c else num.mul_ground(c // k))
        common: dict = {}
        for key in sums:
            for b, p in key:
                common[b] = max(common.get(b, 0), p)
        total: dict = {}
        for key, acc in sums.items():
            num, have = self.R.dtype(acc), dict(key)
            for b, p in common.items():
                if p > have.get(b, 0):
                    num = num * b ** (p - have.get(b, 0))
            _accumulate(total, num)
        num = self.R.dtype(total)
        if c > 1 and num:  # the scalar reduced by its gcd with the coefficients
            g = math.gcd(c, *num.values())
            num, c = num.quo_ground(g), c // g
        return num, common, c

    def _invert(self, elem):
        num, den, c = elem
        if not num:
            raise UndefinedExpressionError("a denominator vanishes identically")
        top = self.R.ground_new(c)
        for b, p in den.items():
            top = top * b**p
        if len(num) == 1:
            # a monomial splits into one base per generator
            (monom, coeff), = num.items()
            return (top if coeff > 0 else -top), {
                self.R.gens[i]: k for i, k in enumerate(monom) if k
            }, abs(coeff)
        content, base = num.primitive()
        if base.LC < 0:
            top, base = -top, -base
        return top, {base: 1}, content

    def qq(self, elem):
        """(num / c, {base: power}) in ``ring(gens, QQ)``."""
        num, den, c = elem
        Q = self.R.clone(domain=QQ)
        return (Q.dtype({m: QQ(k, c) for m, k in num.items()}),
                {Q.dtype({m: QQ(k) for m, k in b.items()}): p for b, p in den.items()})


def _reduce(num, i: int, q: int, value):
    """num with gens[i]**q replaced by value = (vnum, vden), times the
    power of the denominator product that keeps it a polynomial."""
    split: dict[int, dict] = {}
    for monom, coeff in num.items():
        a, b = divmod(monom[i], q)
        split.setdefault(a, {})[monom[:i] + (b,) + monom[i + 1:]] = coeff
    top = max(split)
    if top == 0:
        return num
    R = num.ring
    vnum, vden = value
    D = R.one
    for b, p in vden.items():
        D = D * b**p
    out: dict = {}
    for a, terms in split.items():
        _accumulate(out, R.dtype(terms) * vnum**a * D ** (top - a))
    return R.dtype(out)


def _relation(kernel: sp.Expr, table: dict):
    """(L, value) with sym**L = value for a root kernel, else None.

    The root base**(1/L) of the walked base gives sym**L = base, and the
    root base**(m/L) of the kernel base**m gives sym**L = that kernel's
    symbol. No other kernel has a relation.
    """
    base, expo = kernel.as_base_exp()  # exp(m) is E**m
    c, m = expo.as_content_primitive()
    if not (c.is_Rational and c.q > 1):
        return None
    whole = base if m is sp.S.One else table.get(_power_kernel(base, m))
    return None if whole is None else (c.q, whole**c.p)


class _RingForm(NamedTuple):
    """Stage 1's result in ``ring(gens, QQ)``, as :meth:`_DiffRing._form`
    makes it: the value is raw / Π base**power, with ``den`` as
    ``{base: power}``, and ``num`` is ``raw`` with the kernel relations
    reduced, latest kernel first, so it is zero exactly when the value is
    zero as a function of the kernels. The relations are those of the
    roots, r**L = base, and I**2 = -1."""

    num: object
    raw: object
    den: dict
    gens: list
    table: dict


def _relation_plan(table: dict, leaves: set) -> list[tuple]:
    """(generator, L, value) with generator**L = value for each generator
    in ``leaves`` that has a relation, latest kernel first so that what a
    reduction brings in is reduced afterwards; the generators of each
    value join ``leaves``."""
    plan = []
    for kernel, sym in reversed(table.items()):
        rel = _relation(kernel, table) if sym in leaves else None
        if rel is not None:
            plan.append((sym, *rel))
            _ring_leaves(rel[1], leaves)
    if sp.I in leaves:
        plan.append((sp.I, 2, sp.Integer(-1)))
    return plan


def _reduce_relations(num, gens: list, plan: list, value: Callable):
    """num over QQ with each relation of ``plan`` reduced, ``value``
    taking a relation's value to its (num, den) over QQ."""
    for sym, q, v in plan:
        if not num:
            break
        num = _reduce(num, gens.index(sym), q, value(v))
    return num


# -- a differential ring for claims built by derivations ------------------------


class _DiffRing(_RingWalk):
    """The arithmetic of :class:`_RingWalk` on generators that are appended
    as walks and derivations meet new symbols and kernels; an element made
    before is lifted (its monomials padded with zeros) when next used.
    One kernelizer serves every walk, so equal kernels share a generator,
    and a subclass may give a symbol a value (:meth:`substitute`) instead
    of a generator. ``is_zero(ring.claim(element))`` decides an element;
    an expression is decided in a fresh ring (:func:`_stage1`)."""

    def __init__(self):
        super().__init__([])
        self.kernelizer = _Kernelizer()

    @property
    def gens(self) -> tuple:
        return self.R.symbols

    def kernel(self, sym: sp.Expr) -> sp.Expr | None:
        """The expression of a kernel generator, None for any other."""
        return unkernelize(sym, self.kernelizer.table) if sym in self.kernelizer.inner else None

    def substitute(self, sym: sp.Expr):
        """The value of a leaf that is not a generator, or None."""
        return None

    def _lift_poly(self, p):
        if p.ring is self.R:
            return p
        pad = (0,) * (self.R.ngens - p.ring.ngens)
        return self.R.dtype({m + pad: k for m, k in p.items()})

    def lift(self, elem):
        """elem in the current ring."""
        num, den, c = elem
        if num.ring is self.R and all(b.ring is self.R for b in den):
            return elem
        return self._lift_poly(num), {self._lift_poly(b): p for b, p in den.items()}, c

    def walk(self, e: sp.Expr, values: Mapping | None = None):
        """The element of e, each symbol of ``values`` taking its element;
        a tuple of elements for a Tuple e, walked in one kernelizer pass."""
        body = self.kernelizer.run(sp.sympify(e))
        leaves = sorted(_ring_leaves(body, set()), key=lambda a: (str(a), sp.default_sort_key(a)))
        given = dict(values or {})
        for leaf in leaves:
            if leaf not in self.gen and leaf not in given:
                value = self.substitute(leaf)  # may grow the ring
                if value is not None:
                    given[leaf] = value
        new = [leaf for leaf in leaves if leaf not in self.gen and leaf not in given]
        if new:
            inverse = {s: k for k, s in self.kernelizer.table.items()}
            for sym in new:
                if sym in inverse and inverse[sym].has(*_NON_FINITE):
                    raise UndefinedExpressionError(f"non-finite constant in {inverse[sym]}")
        # a kernel generator stays its expression, so no symbol inside it may
        # take a value; a new kernel is checked against substitute once
        inner, fresh = self.kernelizer.inner, set(new)
        for leaf in leaves:
            if leaf in inner and (leaf in fresh or given):
                for s in inner[leaf]:
                    if s in given or (leaf in fresh and self.substitute(s) is not None):
                        raise SymcoreError(f"{s} takes a value but occurs inside "
                                           f"the kernel {self.kernel(leaf)}")
        if new:
            self.R, *elems = ring(self.gens + tuple(new), ZZ)
            self.gen = dict(zip(self.gens, elems))
        self.memo = {leaf: self.lift(v) for leaf, v in given.items()}
        return tuple(map(self, body)) if isinstance(body, sp.Tuple) else self(body)

    def add(self, *elems):
        return self._add([self.lift(e) for e in elems])

    def mul(self, *elems):
        return self._mul([self.lift(e) for e in elems])

    def neg(self, elem):
        num, den, c = self.lift(elem)
        return -num, den, c

    def expr(self, elem) -> sp.Expr:
        """elem as an expression, its kernels unkernelized. Sums and
        products are built unevaluated: SymPy's flattening of a numerator
        with hundreds of terms costs more than the claim itself."""
        num, den, c = elem
        if not num:
            return sp.S.Zero
        factors = [_unevaluated(num), *[sp.Pow(_unevaluated(b), -p) for b, p in den.items()]]
        if c != 1:
            factors.append(Rational(1, c))
        e = factors[0] if len(factors) == 1 else sp.Mul(*factors, evaluate=False)
        return unkernelize(e, self.kernelizer.table)

    def used(self, elem) -> set[int]:
        """The indices of the generators that elem holds."""
        return {i for p in (elem[0], *elem[1]) if p for i, d in enumerate(p.degrees()) if d > 0}

    def claim(self, elem) -> "_Claim":
        return _Claim(self, self.lift(elem))

    def _form(self, elem, modulo: tuple | None = None) -> _RingForm:
        """Stage 1 of a claim: its ring form over QQ, whose ``num`` is 0
        exactly when it is provably zero.

        With ``modulo = (base, divisor)``, the form is that of elem's
        numerator alone (``den`` is empty), with ``raw`` its
        pseudo-remainder by the divisor's numerator in the generator
        ``base``, taken before the relations are reduced. A divisor whose
        numerator is free of ``base`` reduces nothing: its leading
        coefficient would be the divisor itself.
        """
        used = self.used(elem) | (self.used(modulo[1]) if modulo else set())
        plan = _relation_plan(self.kernelizer.table, {self.gens[i] for i in used})
        values = {v: self.walk(v) for _, _, v in plan}  # may grow the ring
        raw, den = self.qq(self.lift(elem))
        if modulo is not None:
            base, divisor = modulo
            divisor, _ = self.qq(self.lift(divisor))
            i = self.gens.index(base) if base in self.gen else None
            if i is not None and divisor.degree(i) > 0:
                raw = raw.prem(divisor, i)
            den = {}
        num = _reduce_relations(raw, list(self.gens), plan,
                                lambda v: self.qq(self.lift(values[v])))
        return _RingForm(num, raw, den, list(self.gens), self.kernelizer.table)


def _unevaluated(p) -> sp.Expr:
    """The polynomial p as an unevaluated sum of unevaluated products."""
    terms = []
    for monom, coeff in p.items():
        factors = [s if k == 1 else sp.Pow(s, k) for s, k in zip(p.ring.symbols, monom) if k]
        if coeff != 1 or not factors:
            factors.insert(0, sp.Integer(coeff))
        terms.append(factors[0] if len(factors) == 1 else sp.Mul(*factors, evaluate=False))
    return sp.Add(*terms, evaluate=False) if len(terms) != 1 else terms[0]


class _Claim(NamedTuple):
    """An element of a :class:`_DiffRing`, sent to :func:`is_zero`."""

    ring: _DiffRing
    elem: tuple


class _Derivation:
    """The derivation of a :class:`_DiffRing` with the values ``leaf`` gives
    the symbols, as for :func:`_derivation`. Each generator's image is made
    once, ``leaf`` of a symbol or :func:`_derivation` of a kernel walked
    into the ring, so the kernels it brings in (f', log b, ...) become
    generators. A polynomial p has the image Σ_g ∂p/∂g · D(g); a fraction
    follows the quotient rule over its factored denominator."""

    def __init__(self, ring: _DiffRing, leaf: Callable[[Symbol], sp.Expr]):
        self.ring, self.leaf = ring, leaf
        self.images: dict = {}
        self.bases: dict = {}

    def image(self, g):
        out = self.images.get(g)
        if out is None:
            kernel = self.ring.kernel(g)
            e = _derivation(kernel, self.leaf) if kernel is not None else (
                self.leaf(g) if g.is_Symbol else sp.S.Zero)
            out = self.images[g] = self.ring.walk(e)
        return out

    def poly(self, p):
        """The image of a polynomial p of the ring."""
        R = self.ring
        if not p:
            return p, {}, 1
        images = [(i, self.image(R.gens[i])) for i, d in enumerate(p.degrees()) if d > 0]
        p, acc, terms = R._lift_poly(p), {}, []  # the images may have grown the ring
        for i, image in images:
            num, den, c = R.lift(image)
            if num:
                dp = R.R.dtype({m[:i] + (m[i] - 1,) + m[i + 1:]: k * m[i]
                                for m, k in p.items() if m[i]})
                if den or c != 1:
                    terms.append((dp * num, den, c))
                else:
                    _accumulate(acc, dp * num)
        return R._add([(R.R.dtype(acc), {}, 1), *terms])

    def __call__(self, elem):
        R = self.ring
        num, den, c = elem
        dnum = self.poly(num)
        for b in den:
            if b not in self.bases:
                self.bases[b] = self.poly(b)
        terms = [R.mul(dnum, (R.R.one, den, c))]
        for b, p in den.items():
            if self.bases[b][0]:
                raised = {**den, b: p + 1}
                terms.append(R.mul((num * -p, raised, c), self.bases[b]))
        return R.add(*terms)


#: the default seed of the zero test's random points and stand-ins
_SEED = 20260823


def _random_rational(rng: random.Random) -> Rational:
    num = rng.randint(-40, 40)
    den = rng.randint(1, 12)
    return Rational(num, den)


def _stand_ins(nodes, rng: random.Random) -> dict[str, tuple[tuple, sp.Poly]]:
    """A random polynomial stand-in ``{name: (params, poly)}`` for every
    formal function applied in ``nodes``, the formal applications of an
    expression, ready for :func:`_bind`, which differentiates a ``Poly``
    term by term instead of through ``Derivative``.

    A function applied at m distinct argument tuples, with partials of
    total order up to k, gets every monomial of total degree at most
    d = max(3, m(k+1) - 1). Such polynomials take any values and partials
    up to order k at m distinct points (Hermite interpolation), so no
    relation between those values, such as a vanishing fourth difference
    or fourth derivative, holds for the stand-in alone.
    """
    uses: dict[str, tuple[int, set, int]] = {}
    for node in nodes:
        nargs, tuples, k = uses.get(node.base_name, (len(node.args), set(), 0))
        tuples.add(node.args)
        uses[node.base_name] = (nargs, tuples, max(k, sum(node.deriv_orders)))
    out = {}
    for name, (nargs, tuples, k) in sorted(uses.items()):
        params = sp.symbols(f"_p_{name}_0:{nargs}")
        d = max(3, len(tuples) * (k + 1) - 1)
        terms = {tuple(map(c.count, range(nargs))): _random_rational(rng)
                 for n in range(d + 1) for c in combinations_with_replacement(range(nargs), n)}
        out[name] = (params, sp.Poly.from_dict(terms, *params, domain=QQ))
    return out


def _draw_point(symbols, rng: random.Random) -> dict[Symbol, Rational]:
    # name order, so that the point does not depend on the hash seed
    syms = sorted(symbols, key=lambda s: (s.name, sp.default_sort_key(s)))
    return {s: _random_rational(rng) for s in syms}


def _evaluate(p, values: list, lift=lambda c: c):
    """The ring element p at ``values``, one per generator: over QQ, or
    in interval arithmetic with ``lift`` taking each coefficient to an
    interval."""
    total = 0
    for monom, coeff in p.items():
        term = lift(coeff)
        for v, n in zip(values, monom):
            if n:
                term *= v**n
        total += term
    return total


def _lift(c) -> iv.mpf:
    return iv.mpf(int(c.numerator)) / int(c.denominator)


def _interval(value: mpmath.mpf, radius: mpmath.mpf):
    return iv.mpf([value - radius, value + radius])


#: digits of every value that is not exact
_DPS = 40


def _radius(value: mpmath.mpf) -> mpmath.mpf:
    """The error allowed a _DPS-digit value: relative above 1 and absolute
    below, since evalf cannot tell a vanishing argument from a tiny one."""
    return mpmath.mpf(10) ** (3 - _DPS) * max(1, abs(value))


def _value(k: sp.Expr, stand_ins: dict, point: dict):
    """The value of a generator's expression ``k`` at the point, with the
    stand-ins bound. A symbol and a formal function at rational arguments
    take an exact Rational, and the imaginary unit a complex interval; any
    other kernel takes an interval around its real _DPS-digit value.
    None means no real value: a pole, a complex value, a failed
    quadrature, a function that is not formal, a stray symbol.

    The point is substituted first, then the stand-ins are bound at its
    rational arguments, then an integral of a polynomial becomes its
    exact value; what integrals remain are computed by quadrature.
    """
    if k.is_Symbol:
        return point.get(k)
    if k is sp.I:
        return iv.mpc(0, 1)
    try:
        value = _integrate_polynomials(_bind(k.xreplace(point), stand_ins))
        if value.has(sp.Integral):
            return _integral_value(value)
        if is_formal(k) and value.is_Rational:
            return value
        n = value.evalf(_DPS)
    except (ZeroDivisionError, ValueError, TypeError, EvalError, NameError):
        # NameError: compiled quadrature calls a function that is not formal
        return None
    if not n.is_Float:
        return None
    value = mpmath.mpf(n)
    return _interval(value, _radius(value))


class _QuadPrinter(MpmathPrinter):
    """Prints an integral as nested ``quad`` calls, one per limit with the
    innermost limit innermost, so that an inner bound may name an outer
    variable, and a Rational p/q as ``_c(i)``, i its index in
    ``rationals``."""

    def __init__(self, settings):
        super().__init__(settings)
        self.rationals: dict[tuple[int, int], int] = {}

    def _print_Rational(self, e):
        return f"_c({self.rationals.setdefault((int(e.p), int(e.q)), len(self.rationals))})"

    def _print_Integral(self, e):
        out = self._print(e.function)
        for var, lo, hi in e.limits:
            out = f"quad(lambda {self._print(var)}: {out}, ({self._print(lo)}, {self._print(hi)}))"
        return out


def _integral_value(k: sp.Expr):
    """An interval around the value of k, which holds integrals and no
    free symbol. Each integral is computed one limit at a time, an inner
    quadrature at every node of the outer one. The radius is the
    quadratures' own error bound: an inner quadrature's error counts once
    per unit length of the interval outside it."""
    errors = [mpmath.mpf(0)]  # the largest error inside each quadrature in progress

    def quad(f, interval):
        errors.append(mpmath.mpf(0))
        value, error = _gauss_legendre(f, interval)
        inner = errors.pop()
        errors[-1] = max(errors[-1], error + inner * abs(interval[1] - interval[0]))
        return value

    made: dict[tuple[int, int], mpmath.mpf] = {}

    def constant(i):
        # each Rational p/q once per working precision, not at every node:
        # quad raises the precision before it calls the integrand, so this
        # is the mpf(p)/mpf(q) the integrand would make, bit for bit
        key = (i, mpmath.mp.prec)
        if key not in made:
            p, q = list(printer.rationals)[i]
            made[key] = mpmath.mpf(p) / mpmath.mpf(q)
        return made[key]

    printer = _QuadPrinter({"fully_qualified_modules": False, "inline": True,
                            "allow_unknown_functions": True})
    f = sp.lambdify([], k, [{"quad": quad, "_c": constant}, "mpmath"], printer=printer,
                    docstring_limit=0)  # no docstring: it would print k again
    z = f()
    if not (isinstance(z, mpmath.mpf) and mpmath.isfinite(z)):
        return None
    return _interval(z, max(errors[0], _radius(z)))


def _integrate_polynomials(e: sp.Expr) -> sp.Expr:
    """e with every integral of a polynomial integrand replaced by its
    exact value, innermost first, so that an integral whose integrand
    becomes a polynomial is taken too. Bound stand-ins make many
    integrands polynomial, and a polynomial's antiderivative is one more
    polynomial: nothing is integrated symbolically beyond that."""
    def polynomial(node):
        return (isinstance(node, sp.Integral)
                and node.function.is_polynomial(node.limits[0][0]))

    def value(node):
        # a nested integral is one Integral with its innermost limit first
        (var, lo, hi), outer = node.limits[0], node.limits[1:]
        antiderivative = sp.Poly(node.function, var).integrate().as_expr()
        inner = antiderivative.xreplace({var: hi}) - antiderivative.xreplace({var: lo})
        if not outer:
            return inner
        rest = node.func(inner, *outer)
        return value(rest) if polynomial(rest) else rest

    return e.replace(polynomial, value)


class _FastGaussLegendre(GaussLegendre):
    """mpmath's nodes by its Newton iteration from a float start, in fixed-point
    integers at 1.5·prec bits; quad makes an instance per call, so the class caches."""

    _nodes: dict = {}

    def calc_nodes(self, degree, prec, verbose=False):
        if degree == 1:  # 3 nodes, one of them 0
            return super().calc_nodes(degree, prec, verbose)
        if (degree, prec) not in self._nodes:
            self._nodes[degree, prec] = self._newton(3 * 2 ** (degree - 1), prec)
        return self._nodes[degree, prec]

    def _newton(self, n: int, prec: int) -> list:
        ctx, bits, nodes = self.ctx, int(prec * 1.5), []
        one, eps = 1 << bits, 1 << max(0, bits - prec - 8)
        for j in range(1, n // 2 + 1):
            r = int(math.cos(math.pi * (j - 0.25) / (n + 0.5)) * 2**53) << (bits - 53)
            step = eps
            while abs(step) >= eps:  # P_n(r) by its recurrence, then P_n'(r)
                p1, p0 = one, 0
                for k in range(1, n + 1):
                    p1, p0 = ((2 * k - 1) * (r * p1 >> bits) - (k - 1) * p0) // k, p1
                dp = (n * ((r * p1 >> bits) - p0) << bits) // ((r * r >> bits) - one)
                step = (p1 << bits) // dp
                r -= step
            with ctx.workprec(bits):  # -x too would round to the caller's precision
                x = ctx.mpf((r, -bits))
                w = ctx.ldexp(2, 3 * bits) / ((one - (r * r >> bits)) * dp * dp)
                nodes += [(x, w), (-x, w)]
        return nodes


def _gauss_legendre(f, interval):
    """(value, error estimate) of mpmath.quad of bounded degree; raises
    EvalError unless the estimate is within 10**-(dps-5) of max(1, |value|)."""
    value, error = mpmath.quad(f, interval, method=_FastGaussLegendre, error=True,
                               maxdegree=6)
    tol = mpmath.mpf(10) ** (5 - mpmath.mp.dps) * max(1, abs(value))
    if not (mpmath.isfinite(value) and error < tol):
        raise EvalError(f"quadrature failed: error {error}")
    return value, error


def _sample(form: _RingForm, kernels: dict, stand_ins: dict, point: dict):
    """One draw of stage 2: ``form`` at the point, its generators at index
    i taking the values of ``kernels[i]``. None rejects the draw, 0 is a
    zero sample, and anything else refutes as |num / den|: an exact
    Rational when every value is rational, else a _DPS-digit Float.
    A kernel that :func:`is_zero` cancelled out of ``form`` is not sampled.

    Rational values are evaluated exactly over QQ. Otherwise numerator and
    denominator bases are enclosed in intervals: a base whose enclosure
    holds 0 rejects the draw, and a numerator whose enclosure holds 0 is
    a zero sample.
    """
    values = [None] * len(form.gens)
    prec = iv.prec
    try:
        with mpmath.workdps(_DPS):
            iv.dps = _DPS
            for i, k in kernels.items():
                values[i] = _value(k, stand_ins, point)
                if values[i] is None:
                    return None
            if all(isinstance(values[i], Rational) for i in kernels):
                exact = [None if v is None else QQ(v.p, v.q) for v in values]
                den = [(_evaluate(b, exact), p) for b, p in form.den.items()]
                if not all(b for b, _ in den):
                    return None
                value = _evaluate(form.raw, exact)
                for b, p in den:
                    value /= b**p
                return abs(Rational(int(value.numerator), int(value.denominator)))
            box = [iv.mpf(v.p) / v.q if isinstance(v, Rational) else v for v in values]
            den = [(_evaluate(b, box, _lift), p) for b, p in form.den.items()]
            if any(0 in b for b, _ in den):
                return None
            num = _evaluate(form.raw, box, _lift)
            if 0 in num:
                return sp.S.Zero
            value = mpmath.mpf(abs(num).mid)
            for b, p in den:
                value /= mpmath.mpf(abs(b).mid) ** p
            return sp.Float(value, _DPS)
    finally:
        iv.prec = prec


def _cancel_generator_bases(form: _RingForm) -> _RingForm:
    """``form`` with each denominator base that is one generator cancelled
    against its lowest power in ``raw``: an exponent shift, no division."""
    raw, den = form.raw, dict(form.den)
    for base, p in form.den.items():
        i = raw.ring.gens.index(base) if base in raw.ring.gens else None
        c = 0 if i is None else min(p, *(monom[i] for monom in raw))
        if c:
            raw = raw.ring.dtype({m[:i] + (m[i] - c,) + m[i + 1:]: a for m, a in raw.items()})
            den[base] = p - c
    return form._replace(raw=raw, den={b: p for b, p in den.items() if p})


#: points drawn, rejected ones included, before the zero test gives up
_MAX_RESAMPLES = 32


def is_zero(e: sp.Expr, samples: int = 8, seed: int = _SEED,
            modulo: tuple[Symbol, sp.Expr] | None = None) -> ZeroVerdict:
    """Two-stage zero test (see the module docstring).

    Stage 1 is the ring test of :func:`exact_zero`. Stage 2 cancels the
    denominator bases that are single generators from the ring form it
    leaves (:func:`_cancel_generator_bases`) and samples the rest (see
    :func:`_sample`) until ``samples`` draws are zero samples or one
    refutes; ``_MAX_RESAMPLES`` draws without a verdict raise
    :class:`IndeterminateZeroTest`. The verdict's ``samples`` counts the
    points drawn, rejected ones included.

    e may be a claim of a differential ring, ``ring.claim(element)``: its
    form is the element's, and a verdict that is not deterministic carries
    the element unkernelized as its ``expr``.

    ``modulo = (base, Φ)`` asks whether e vanishes where Φ = 0: both
    stages judge the pseudo-remainder of e's numerator by Φ's in the
    symbol ``base`` (see :meth:`_DiffRing._form`), stage 2 draws its point and
    stand-ins for the symbols and formal functions of Φ too, and a verdict
    that is not deterministic carries that remainder as its ``expr``.
    """
    claim = isinstance(e, _Claim)
    e = e if claim else sp.sympify(e)
    form = e.ring._form(e.elem) if claim else _stage1(e, modulo)
    if not form.num:
        return ZeroVerdict(True, "deterministic", expr=sp.S.Zero if claim else e)
    if claim:
        e = e.ring.expr(e.elem)
    scope = e  # the point and the stand-ins cover its symbols and formal functions
    if modulo is not None:
        scope, e = sp.Tuple(e, modulo[1]), unkernelize(form.raw.as_expr(), form.table)
    form = _cancel_generator_bases(form)
    # only generators left in the numerator or a denominator base get a value
    used = sorted({i for p in (form.raw, *form.den) for monom in p
                   for i, n in enumerate(monom) if n})
    # bound variables renamed, so that no point substitutes one
    kernels = dict(zip(used, _canon_integral_dummies(
        unkernelize(sp.Tuple(*[form.gens[i] for i in used]), form.table))))
    nodes = {n for n in _nodes(scope) if is_formal(n)}
    symbols = _free_symbols(scope)
    rng = random.Random(seed)
    good = 0
    for attempt in range(1, _MAX_RESAMPLES + 1):
        stand_ins = _stand_ins(nodes, rng)
        value = _sample(form, kernels, stand_ins, _draw_point(symbols, rng))
        if value is None:
            continue
        if value:
            return ZeroVerdict(False, "nonzero", value, attempt, e)
        good += 1
        if good >= samples:
            return ZeroVerdict(True, "probabilistic", samples=attempt, expr=e)
    raise IndeterminateZeroTest(f"zero test indeterminate after {_MAX_RESAMPLES} samples: {e}")


# ---------------------------------------------------------------------------
# Numeric evaluation
# ---------------------------------------------------------------------------


def compile_numeric(expr: sp.Expr, args: Sequence[Symbol]) -> Callable[..., float]:
    """Compile ``expr`` once into a float function of ``args``.

    Each Integral becomes a slot that adaptive quadrature fills at call
    time. A call returns a float or raises :class:`EvalError` at a pole,
    on a domain or overflow error, for a non-real value (an even root or
    a fractional power of a negative number) and when quadrature does
    not converge. A free symbol outside ``args``, a formal function or a
    function the ``math`` printer cannot name raises EvalError here, at
    compile time.
    """
    expr = sp.sympify(expr)
    args = tuple(args)
    unbound = (expr.free_symbols - set(args)) | expr.atoms(AppliedUndef, FormalFunction)
    if unbound:
        raise EvalError("no numeric value for " + ", ".join(sorted(map(str, unbound))), expr)
    integrals = sorted(expr.atoms(sp.Integral), key=sp.default_sort_key)
    slots = tuple(Symbol(f"_quad{k}") for k in range(len(integrals)))
    quads = [_quadrature(integral, args) for integral in integrals]
    f = sp.lambdify(args + slots, expr.xreplace(dict(zip(integrals, slots))), "math",
                    docstring_limit=0)
    unnamed = [n for n in f.__code__.co_names
               if n not in f.__globals__ and not hasattr(builtins, n)]
    if unnamed:
        raise EvalError("no numeric function for " + ", ".join(unnamed), expr)

    def evaluate(*point) -> float:
        point = tuple(map(float, point))
        try:
            val = f(*point, *[q(point) for q in quads]) if quads else f(*point)
        except ZeroDivisionError:
            raise EvalError(f"pole at {point}") from None
        except (OverflowError, ValueError) as exc:
            raise EvalError(f"{exc} at {point}") from None
        except TypeError:
            if len(point) != len(args):
                raise
            # a complex intermediate reached a real function
            raise EvalError(f"non-real value at {point}") from None
        if isinstance(val, complex):
            raise EvalError(f"non-real value at {point}")
        return float(val)

    return evaluate


def _quadrature(integral: sp.Integral, args: tuple) -> Callable[[tuple], float]:
    """point -> value of a definite integral, by adaptive quadrature over
    its outermost variable (inner ones recurse through the integrand).
    SciPy is imported here, so only a surface that keeps an integral loads it."""
    from scipy.integrate import IntegrationWarning, quad

    *inner, (var, lo, hi) = integral.limits
    integrand = sp.Integral(integral.function, *inner) if inner else integral.function
    integrand = compile_numeric(integrand, (var,) + args)
    lo_f, hi_f = compile_numeric(lo, args), compile_numeric(hi, args)

    def value(point: tuple) -> float:
        with warnings.catch_warnings():  # the error estimate below decides failure
            warnings.simplefilter("ignore", IntegrationWarning)
            val, err = quad(lambda z: integrand(z, *point), lo_f(*point), hi_f(*point),
                            epsabs=1e-12, epsrel=1e-12, limit=200)
        if not math.isfinite(val) or err > 1e-8:
            raise EvalError(f"quadrature failed at {point}: error {err}")
        return val

    return value
