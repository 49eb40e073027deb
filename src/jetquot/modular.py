"""GF(p) linear algebra: evaluation, row reduction, nullspaces, rational
reconstruction. Gauss–Jordan runs on packed rows, one int per row with
column c in the w-bit slot at bit c·w: eliminating column c is row +=
(p − f)·pivot, f the row's slot c mod p. A row takes one addend, below p²
per slot, per pivot, so the rows are reduced every ``budget`` pivots."""

import math

import sympy as sp


def _eval_mod(poly, point: list[int], p: int) -> int:
    total = 0
    for monom, c in poly.items():
        term = c
        for v, e in zip(point, monom):
            if e:
                term = term * pow(v, e, p) % p
        total += term
    return total % p


def _packing(p: int) -> tuple[int, int]:
    """(w, budget): the slot width, and the updates a reduced slot takes below 2**w."""
    w = 2 * p.bit_length() + 8
    return w, ((1 << w) - p) // (p - 1) ** 2


def _rref_mod(rows: list[list[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """(nonzero rows of the reduced row echelon form over GF(p), pivot columns)."""
    ncols = len(rows[0]) if rows else 0
    w, budget = _packing(p)
    mask = (1 << w) - 1

    def pack(values):
        return sum((v % p) << (i * w) for i, v in enumerate(values))

    def unpack(row):
        return [(row >> (i * w) & mask) % p for i in range(ncols)]

    a = [pack(r) for r in rows]
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        f = [(row >> (c * w) & mask) % p for row in a]
        piv = next((i for i in range(r, len(a)) if f[i]), None)
        if piv is None:
            continue
        a[r], a[piv], f[r], f[piv] = a[piv], a[r], f[piv], f[r]
        inv = pow(f[r], -1, p)
        a[r] = pivot = pack([v * inv for v in unpack(a[r])])
        for i, fi in enumerate(f):
            if fi and i != r:
                a[i] += (p - fi) * pivot
        pivots.append(c)
        if len(pivots) == len(a):
            break
        if len(pivots) % budget == 0:
            a = [pack(unpack(row)) for row in a]
    return [unpack(row) for row in a[:len(pivots)]], pivots


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
