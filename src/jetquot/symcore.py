"""Exact symbolic kernel shared by every other module.

Expressions are sympy objects over a fixed vocabulary:

* independent variables ``t``, ``x`` and free parameters (plain symbols),
* jet variables ``u, u_t, u_x, u_tx, ...`` (symbols with a canonical
  t-before-x naming scheme),
* formal functions ``g, g', alpha_1, ...`` created by :func:`formal`,
  which differentiate by the chain rule and never evaluate,
* formal integrals ``Integral(h(v), (v, 0, w))`` with lower bound 0.

Zero-testing works in two stages. Stage 1 is deterministic: every
transcendental subexpression becomes an independent kernel symbol, and
the kernelized expression is walked into a sparse polynomial ring over
QQ as numerator / product of primitive denominator factors. No gcd is
taken, so the value is zero exactly when the numerator is; the root
relations r**L = base and integer shifts between symbolic exponents are
then reduced inside the ring. Stage 2 is a probabilistic fallback that
evaluates the expression at random rational points (formal functions get
random polynomial stand-ins). :func:`normalize` is the separate, printable
rational normal form; the verification checks call it only to build the
certificate of a claim that fails.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import sympy as sp
from scipy.integrate import quad
from sympy import Rational, Symbol
from sympy.core.function import AppliedUndef
from sympy.polys.domains import QQ
from sympy.polys.rings import ring

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

    def shift(self, dt=0, dx=0) -> "JetVar":
        return JetVar(self.t_order + dt, self.x_order + dx)


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
    so the chain rule works through sympy's ``diff`` without ever
    creating ``Derivative``/``Subs`` wrappers.
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
    (d^k/dw^k exp(w))|_{w=a}.
    """
    params = tuple(params)

    def query(node):
        return is_formal(node) and node.base_name == name

    def value(node):
        if len(node.args) != len(params):
            raise SymcoreError(f"arity mismatch binding {name}")
        d = expr
        for p, o in zip(params, node.deriv_orders):
            if o:
                d = sp.diff(d, p, o)
        return d.subs(dict(zip(params, node.args)), simultaneous=True)

    return e.replace(query, value)


def formal_integral(integrand: sp.Expr, var: Symbol, upper: sp.Expr) -> sp.Expr:
    """The formal integral of ``integrand`` dvar from 0 to ``upper``."""
    return sp.Integral(integrand, (var, sp.Integer(0), upper))


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d+)?)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*'*)|(?P<op>[-+*/^(),]))"
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
    rule and formal integrals differentiate under the integral sign /
    through the upper bound.
    """
    if not isinstance(a, Symbol):
        raise SymcoreError(f"can only differentiate with respect to an atom, not {a}")
    return sp.diff(sp.sympify(e), a)


def substitute(e: sp.Expr, bindings: Mapping) -> sp.Expr:
    """Simultaneous substitution.

    Keys may be symbols (plain replacement) or formal-function names,
    in which case the value must be a pair ``(params, expr)``.
    """
    e = sp.sympify(e)
    sym_map = {}
    for key, val in bindings.items():
        if isinstance(key, str):
            params, expr = val
            e = bind_formal(e, key, params, expr)
        else:
            sym_map[key] = sp.sympify(val)
    if sym_map:
        e = e.xreplace(sym_map)
    return e


# -- kernelization for normalization / zero testing -------------------------

_KERNEL_CONTAINERS = (sp.Integral, sp.Derivative, sp.Subs)


def _is_kernel(e) -> bool:
    if isinstance(e, _KERNEL_CONTAINERS):
        return True
    if isinstance(e, sp.Function):  # exp, log, atanh, formal functions, ...
        return True
    return False


def _exp_factors(arg: sp.Expr):
    """Split exp(arg) into rational powers of exp(monomial) kernels."""
    factors = []
    leftover = []
    for term, coeff in arg.as_coefficients_dict().items():
        if coeff.is_Rational:
            factors.append((sp.exp(term), coeff))
        else:
            leftover.append(term * coeff)
    if leftover:
        factors.append((sp.exp(sp.Add(*leftover)), sp.Integer(1)))
    return factors


class _Kernelizer:
    """Replaces transcendental kernels by fresh symbols.

    Rational powers base**(p/q) become r**p with r a kernel symbol for
    base**(1/L) (L the lcm of all denominators seen for that base), with
    integer parts split off so that distinct fractional powers of one
    base stay algebraically related.
    """

    def __init__(self):
        self.table: dict[sp.Expr, Symbol] = {}
        self.frac_bases: dict[sp.Expr, int] = {}
        self.counter = 0

    def _sym(self, kernel: sp.Expr) -> Symbol:
        if kernel not in self.table:
            self.counter += 1
            self.table[kernel] = Symbol(f"_k{self.counter}")
        return self.table[kernel]

    def scan_fracs(self, e: sp.Expr):
        for node in sp.preorder_traversal(e):
            if node.is_Pow and node.exp.is_Rational and not node.exp.is_Integer:
                base = node.base
                q = node.exp.q
                self.frac_bases[base] = sp.ilcm(self.frac_bases.get(base, 1), q)

    def run(self, e: sp.Expr) -> sp.Expr:
        self.scan_fracs(e)
        return self._walk(e)

    def _walk(self, e: sp.Expr) -> sp.Expr:
        if e.is_Atom:
            if e is sp.E:
                return self._sym(sp.E)
            return e
        if isinstance(e, sp.exp):
            arg = self._walk(e.args[0])
            out = sp.Integer(1)
            for kernel, power in _exp_factors(arg):
                out *= self._pow_kernel(kernel, power)
            return out
        if _is_kernel(e):
            canon = e.func(*[self._canon_arg(a) for a in e.args])
            return self._sym(canon)
        if e.is_Pow:
            base, expo = e.args
            # flatten nested powers (real principal branch throughout)
            while base.is_Pow and not (base.exp.is_Integer and expo.is_Integer):
                base, expo = base.base, sp.cancel(base.exp * expo)
            if expo.is_Integer:
                return self._walk(base) ** expo
            if expo.is_Rational:
                wbase = self._walk(base)
                return self._frac_pow(wbase, expo)
            # symbolic exponent: the whole power is a kernel, but walk inside
            canon = sp.Pow(self._canon_arg(base), sp.cancel(self._walk(expo)),
                           evaluate=False)
            return self._sym(canon)
        return e.func(*[self._walk(a) for a in e.args])

    def _canon_arg(self, a):
        if isinstance(a, sp.Tuple):
            return sp.Tuple(*[self._canon_arg(b) for b in a])
        w = self._walk(a)
        try:
            return sp.cancel(w)
        except (ValueError, sp.PolynomialError):
            return w

    def _frac_pow(self, base: sp.Expr, expo: sp.Rational) -> sp.Expr:
        L = self.frac_bases.get(base, expo.q)
        L = sp.ilcm(L, expo.q)
        self.frac_bases[base] = L
        root = self._sym(sp.Pow(base, sp.Rational(1, L), evaluate=False))
        k = int(expo * L)
        whole, rem = divmod(k, L)
        return base**whole * root**rem

    def _pow_kernel(self, kernel: sp.Expr, power: sp.Rational) -> sp.Expr:
        if power.is_Integer:
            return self._sym(kernel) ** power
        return self._frac_pow_kernel(kernel, power)

    def _frac_pow_kernel(self, kernel: sp.Expr, expo: sp.Rational) -> sp.Expr:
        L = sp.ilcm(self.frac_bases.get(kernel, 1), expo.q)
        self.frac_bases[kernel] = L
        root = self._sym(sp.Pow(kernel, sp.Rational(1, L), evaluate=False))
        k = int(expo * L)
        whole, rem = divmod(k, L)
        return self._sym(kernel) ** whole * root**rem


def _canon_integral_dummies(e: sp.Expr, depth: int = 0) -> sp.Expr:
    """Rename integration variables to a fixed sequence keyed by nesting.

    Two integrals that differ only in the choice of bound variable then
    compare structurally equal, so they share a single kernel.
    """
    e = sp.sympify(e)
    if not e.has(sp.Integral):
        return e
    if isinstance(e, sp.Integral):
        func = e.function
        limits = []
        d = depth
        for var, *bounds in e.limits:
            new = Symbol(f"_iv{d}")
            d += 1
            func = func.xreplace({var: new})
            limits.append(sp.Tuple(new, *[
                _canon_integral_dummies(b, d) for b in bounds
            ]))
        return sp.Integral(_canon_integral_dummies(func, d), *limits)
    if e.is_Atom:
        return e
    return e.func(*[_canon_integral_dummies(a, depth) for a in e.args])


def kernelize(e: sp.Expr) -> tuple[sp.Expr, dict[sp.Expr, Symbol]]:
    """(expression with kernels replaced by symbols, kernel table)."""
    k = _Kernelizer()
    out = k.run(sp.sympify(e))
    return out, k.table


def unkernelize(e: sp.Expr, table: dict[sp.Expr, Symbol]) -> sp.Expr:
    """Undo a kernel table; kernels may nest, so substitute to a fixpoint."""
    inverse = {s: k for k, s in table.items()}
    for _ in range(len(table) + 1):
        out = e.xreplace(inverse)
        if out == e:
            return out
        e = out
    return e


def normalize(e: sp.Expr) -> sp.Expr:
    """Rational normal form over the expression's kernels.

    Idempotent; maps anything that is zero as a rational function of its
    kernels to the literal 0.
    """
    e = sp.sympify(e)
    body, table = kernelize(e)
    body = sp.cancel(sp.together(body))
    return unkernelize(body, table)


# -- zero testing ------------------------------------------------------------


@dataclass
class ZeroVerdict:
    is_zero: bool
    mode: str  # "deterministic" | "probabilistic" | "nonzero"
    witness: object = None

    def __bool__(self):
        return self.is_zero

    def __repr__(self):
        return f"ZeroVerdict({self.is_zero}, {self.mode!r})"


def _deterministic_zero(e: sp.Expr) -> bool:
    # align bound variables so dummy-renamed integrals share one kernel
    e = _canon_integral_dummies(sp.sympify(e))
    if _kernel_rational_zero(e):
        return True
    # same-base powers with symbolic exponents (x**a * x**b) kernelize to
    # unrelated symbols; combining exponents first is always sound
    combined = sp.powsimp(e, combine="exp")
    return combined is not e and _kernel_rational_zero(combined)


def exact_zero(e: sp.Expr) -> bool:
    """Stage 1 of :func:`is_zero` alone: True when e is provably zero."""
    return e == 0 or _deterministic_zero(e)


def exact_residual(e: sp.Expr) -> sp.Expr:
    """0 when e is exactly zero, else its normal form as a certificate."""
    return sp.Integer(0) if exact_zero(e) else normalize(e)


def zero_certificate(e: sp.Expr, **zero_opts) -> tuple[ZeroVerdict, sp.Expr]:
    """(verdict, residual): the residual is 0 when the verdict is
    deterministic, else ``normalize(e)``, so only failures pay for it."""
    verdict = is_zero(e, **zero_opts)
    if verdict.mode == "deterministic":
        return verdict, sp.Integer(0)
    return verdict, normalize(e)


def _kernel_rational_zero(e: sp.Expr) -> bool:
    k = _Kernelizer()
    return not _ring_numerator(k.run(e), k.table)


# -- stage 1 in a factored-denominator polynomial ring ------------------------

_NON_FINITE = frozenset({sp.S.ComplexInfinity, sp.S.Infinity, sp.S.NegativeInfinity, sp.S.NaN})


def _ring_leaves(e: sp.Expr, out: set) -> set:
    """Add the generators of e to ``out``: every leaf that is not a Rational.

    Sums, products and integer powers are ring operations; any other node
    (a symbol, pi, I, a float, an unexpected compound) is one generator.
    """
    stack, seen = [e], set()
    while stack:
        node = stack.pop()
        if node in seen or node.is_Rational:
            continue
        seen.add(node)
        if node.is_Add or node.is_Mul or (node.is_Pow and node.exp.is_Integer):
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
    """Walks a kernelized body into (num, {base: power}) over QQ.

    ``num`` lies in ``ring(gens, QQ)``; the denominator is the product of
    its bases, each a primitive ring element with positive leading
    coefficient, never multiplied out. No gcd is taken: every base is a
    nonzero polynomial, so the value is zero exactly when ``num`` is.
    """

    def __init__(self, gens: list):
        self.R, *elems = ring(gens, QQ)
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
            return R.ground_new(QQ(e.p, e.q)), {}
        g = self.gen.get(e)
        if g is not None:
            return g, {}
        if e.is_Add:
            return self._add([self(a) for a in e.args])
        if e.is_Mul:
            num, den = R.one, {}
            for a in e.args:
                n, d = self(a)
                num = num * n
                for b, p in d.items():
                    den[b] = den.get(b, 0) + p
            return num, den
        # an integer power: _ring_leaves made every other node a generator
        n = int(e.exp)
        num, den = self(e.base)
        if n < 0:
            (num, den), n = self._invert(num, den), -n
        return num**n, {b: p * n for b, p in den.items()}

    def _add(self, terms):
        # sum the numerators over each distinct denominator, then bring the
        # sums to the common denominator (the highest power of each base)
        sums: dict[frozenset, dict] = {}
        for num, den in terms:
            _accumulate(sums.setdefault(frozenset(den.items()), {}), num)
        if len(sums) == 1:
            (key, acc), = sums.items()
            return self.R.dtype(acc), dict(key)
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
        return self.R.dtype(total), common

    def _invert(self, num, den):
        if not num:
            raise UndefinedExpressionError("a denominator vanishes identically")
        top = self.R.one
        for b, p in den.items():
            top = top * b**p
        if len(num) == 1:
            # a monomial splits into one base per generator
            (monom, coeff), = num.items()
            return top.quo_ground(coeff), {
                self.R.gens[i]: k for i, k in enumerate(monom) if k
            }
        content, base = num.primitive()
        if base.LC < 0:
            content, base = -content, -base
        return top.quo_ground(content), {base: 1}


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


def _relation(kernel: sp.Expr, sym: Symbol, table: dict, exponents: dict):
    """(q, value) with sym**q = value for the kernel's symbol, or None.

    Root kernels base**(p/q) give sym**q = base**p. A symbolic power
    base**e2 gives sym = ref * base**(e2 - e1) when an earlier kernel
    ref = base**e1 has an exponent differing from e2 by an integer, and
    sym = base**(e2 + e1) / ref when the exponents sum to an integer.
    """
    if not kernel.is_Pow:
        return None
    base, expo = kernel.args
    if expo.is_Rational:
        return expo.q, table.get(base, base) ** expo.p
    for e1, ref in exponents.get(base, ()):
        if ref == sym:
            return None
        d = sp.cancel(expo - e1)
        if d.is_Integer:
            return 1, ref * base**d
        d = sp.cancel(expo + e1)
        if d.is_Integer:
            return 1, base**d / ref
    return None


def _ring_numerator(body: sp.Expr, table: dict, relations: bool = True):
    """The numerator of ``body`` in the ring of its generators.

    It is the zero polynomial exactly when body is zero as a rational
    function of its kernels, after the kernel relations (when
    ``relations``) are reduced, latest kernel first so that what a
    reduction brings in is reduced afterwards.
    """
    leaves = _ring_leaves(body, set())
    plan = []
    if relations:
        exponents: dict = {}
        for kernel, sym in table.items():
            if kernel.is_Pow and not kernel.exp.is_Rational:
                exponents.setdefault(kernel.base, []).append((kernel.exp, sym))
        for kernel, sym in reversed(table.items()):
            rel = _relation(kernel, sym, table, exponents) if sym in leaves else None
            if rel is not None:
                plan.append((sym, *rel))
                _ring_leaves(rel[1], leaves)
        if sp.I in leaves:
            plan.append((sp.I, 2, sp.Integer(-1)))
    for kernel, sym in table.items():
        if sym in leaves and kernel.has(*_NON_FINITE):
            raise UndefinedExpressionError(f"non-finite constant in {kernel}")
    gens = sorted(leaves, key=lambda a: (str(a), sp.default_sort_key(a)))
    walk = _RingWalk(gens)
    num = walk(body)[0]
    for sym, q, value in plan:
        if not num:
            break
        num = _reduce(num, gens.index(sym), q, walk(value))
    return num


def _random_rational(rng: random.Random) -> Rational:
    num = rng.randint(-40, 40)
    den = rng.randint(1, 12)
    return Rational(num, den)


def _proxy_env(e: sp.Expr, rng: random.Random):
    """Random cubic-polynomial stand-ins for every formal function in e."""
    names = {}
    for node in sp.preorder_traversal(e):
        if is_formal(node):
            names[node.base_name] = len(node.args)
        elif isinstance(node, AppliedUndef):
            names[str(node.func).rstrip("'")] = len(node.args)
    proxies = []
    for name, nargs in sorted(names.items()):
        params = sp.symbols(f"_p_{name}_0:{nargs}")
        if nargs == 1:
            params = (params[0],)
        mono = [sp.Integer(1)] + list(params)
        mono += [a * b for a in params for b in params]
        mono += [a * a * b for a in params for b in params]
        expr = sp.Add(*[_random_rational(rng) * m for m in mono])
        proxies.append((name, params, expr))
    return proxies


def _numeric_probe(e: sp.Expr, rng: random.Random, dps=40):
    """Evaluate e at one random rational point; None signals a bad sample."""
    probe = e
    for name, params, expr in _proxy_env(e, rng):
        probe = bind_formal(probe, name, params, expr)
        probe = probe.replace(
            lambda n: isinstance(n, AppliedUndef) and str(n.func).rstrip("'") == name,
            lambda n: expr.subs(dict(zip(params, n.args)), simultaneous=True),
        )
    probe = probe.doit()
    point = {s: _random_rational(rng) for s in probe.free_symbols}
    try:
        val = probe.xreplace(point)
        val = val.doit() if val.has(sp.Integral, sp.Derivative) else val
        num = sp.N(val, dps)
    except (ZeroDivisionError, ValueError, TypeError):
        return None
    if num.has(sp.zoo, sp.oo, -sp.oo, sp.nan):
        return None
    if not num.is_comparable:
        num = sp.N(sp.Abs(val), dps)
        if not num.is_comparable:
            return None
        return abs(num)
    return abs(num)


def is_zero(e: sp.Expr, samples: int = 8, max_resamples: int = 32,
            seed: int = 20260823) -> ZeroVerdict:
    """Two-stage zero test.

    Stage 1 is deterministic (rational normal form over kernels); stage 2
    evaluates at ``samples`` random rational points. Poles trigger
    resampling; too many bad samples raise :class:`IndeterminateZeroTest`.
    """
    e = sp.sympify(e)
    if exact_zero(e):
        return ZeroVerdict(True, "deterministic")
    rng = random.Random(seed)
    good = 0
    attempts = 0
    while good < samples:
        attempts += 1
        if attempts > max_resamples:
            raise IndeterminateZeroTest(
                f"zero test indeterminate after {max_resamples} samples: {e}"
            )
        val = _numeric_probe(e, rng)
        if val is None:
            continue
        if val > sp.Float("1e-20"):
            return ZeroVerdict(False, "nonzero", val)
        good += 1
    return ZeroVerdict(True, "probabilistic")


# ---------------------------------------------------------------------------
# Numeric evaluation
# ---------------------------------------------------------------------------


def compile_numeric(expr: sp.Expr, args: Sequence[Symbol]) -> Callable[..., float]:
    """Compile ``expr`` once into a float function of ``args``.

    Each Integral becomes a slot that adaptive quadrature fills at call
    time. A call returns a float or raises :class:`EvalError` at a pole,
    on a domain or overflow error, for a non-real value (an even root or
    a fractional power of a negative number) and when quadrature does
    not converge. A free symbol outside ``args`` or a formal function
    raises EvalError here, at compile time.
    """
    expr = sp.sympify(expr)
    args = tuple(args)
    unbound = (expr.free_symbols - set(args)) | expr.atoms(AppliedUndef, FormalFunction)
    if unbound:
        raise EvalError("no numeric value for " + ", ".join(sorted(map(str, unbound))), expr)
    integrals = sorted(expr.atoms(sp.Integral), key=sp.default_sort_key)
    slots = tuple(Symbol(f"_quad{k}") for k in range(len(integrals)))
    quads = [_quadrature(integral, args) for integral in integrals]
    f = sp.lambdify(args + slots, expr.xreplace(dict(zip(integrals, slots))), "math")

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
    its outermost variable (inner ones recurse through the integrand)."""
    *inner, (var, lo, hi) = integral.limits
    integrand = sp.Integral(integral.function, *inner) if inner else integral.function
    integrand = compile_numeric(integrand, (var,) + args)
    lo_f, hi_f = compile_numeric(lo, args), compile_numeric(hi, args)

    def value(point: tuple) -> float:
        val, err = quad(lambda z: integrand(z, *point), lo_f(*point), hi_f(*point),
                        epsabs=1e-12, epsrel=1e-12, limit=200)
        if not math.isfinite(val) or err > 1e-8:
            raise EvalError(f"quadrature failed at {point}: error {err}")
        return val

    return value
