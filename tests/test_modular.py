"""The packed-row Gauss–Jordan over GF(p) against the list reference."""

import random

import pytest

from jetquot import invariants
from jetquot.modular import _nullspace_mod, _packing, _rref_mod

from modular_reference import rref_mod

PRIMES = [7, 2**31 - 1, invariants._P1, invariants._P2]

#: (rows, columns, rank) of the B·C products
SHAPES = [(70, 70, 70), (70, 70, 35), (70, 40, 40), (70, 40, 12), (40, 70, 25),
          (66, 56, 52), (55, 45, 44), (1, 1, 1), (1, 9, 1), (9, 1, 1), (6, 8, 0)]


def _product(m: int, n: int, rank: int, p: int, rng: random.Random) -> list[list[int]]:
    """An m×n matrix B·C over GF(p), B of size m×rank and C of size rank×n."""
    B = [[rng.randrange(p) for _ in range(rank)] for _ in range(m)]
    C = [[rng.randrange(p) for _ in range(n)] for _ in range(rank)]
    columns = list(zip(*C)) or [()] * n
    return [[sum(b * c for b, c in zip(row, col)) % p for col in columns] for row in B]


def _with_zero_lines(rows: list[list[int]], rng: random.Random) -> list[list[int]]:
    """rows with three zero columns and three zero rows put in at random places."""
    rows = [list(r) for r in rows]
    for _ in range(3):
        c = rng.randrange(len(rows[0]) + 1)
        for r in rows:
            r.insert(c, 0)
    for _ in range(3):
        rows.insert(rng.randrange(len(rows) + 1), [0] * len(rows[0]))
    return rows


def _matrices(p: int) -> list[tuple[tuple[int, int, int], list[list[int]]]]:
    """((rows, columns, rank), matrix) for each shape, without and with zero lines."""
    rng = random.Random(p % 1000)
    out = []
    for m, n, rank in SHAPES:
        rows = _product(m, n, rank, p, rng)
        out += [((m, n, rank), rows), ((m + 3, n + 3, rank), _with_zero_lines(rows, rng))]
    return out


@pytest.mark.parametrize("p", PRIMES)
def test_rref_mod_matches_the_reference(p):
    for (m, n, rank), rows in _matrices(p):
        reduced, pivots = _rref_mod(rows, p)
        assert (reduced, pivots) == rref_mod(rows, p), (m, n, rank)
        if p > 2**30:
            # a B·C product over a large field has full rank at these seeds
            assert len(pivots) == rank
        basis = _nullspace_mod(rows, p)
        assert len(basis) == n - len(pivots) and _rref_mod(basis, p)[0] == basis
        for v in basis:
            assert all(sum(a * b for a, b in zip(row, v)) % p == 0 for row in rows), (m, n, rank)


@pytest.mark.parametrize("p", PRIMES)
def test_rref_mod_of_empty_input(p):
    assert _rref_mod([], p) == rref_mod([], p) == ([], [])
    assert _rref_mod([[], []], p) == rref_mod([[], []], p) == ([], [])
    assert _rref_mod([[0, 0, 0]] * 4, p) == ([], [])


@pytest.mark.parametrize("p", PRIMES)
def test_rref_mod_reduces_a_row_before_its_slots_overflow(p):
    # row 0 takes budget + 2 updates that each add (p - 1)² to its last
    # three slots; without the reduction those slots would carry
    _, budget = _packing(p)
    k = budget + 3
    rows = [[1] * k + [0, 0, 0]]
    rows += [[int(i == j) for j in range(k)] + [p - 1] * 3 for i in range(1, k)]
    reduced, pivots = _rref_mod(rows, p)
    assert (reduced, pivots) == rref_mod(rows, p)
    assert reduced[0][k:] == [(k - 1) % p] * 3
    assert len(pivots) - 1 > budget
