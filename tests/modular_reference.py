"""Gauss–Jordan over GF(p) on lists of ints: the reference the packed-row
kernel ``jetquot.modular._rref_mod`` is compared against. Every entry is
reduced mod p after every row operation, and no row is packed."""


def rref_mod(rows: list[list[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """(nonzero rows of the reduced row echelon form over GF(p), pivot columns)."""
    a = [list(r) for r in rows]
    pivots: list[int] = []
    for c in range(len(a[0]) if a else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = pow(a[r][c], -1, p)
        a[r] = pivot = [v * inv % p for v in a[r]]
        # the pivot row is zero left of c, so only columns from c change
        tail = pivot[c:]
        for i, row in enumerate(a):
            if i != r and row[c]:
                f = row[c]
                row[c:] = [(v - f * w) % p for v, w in zip(row[c:], tail)]
        pivots.append(c)
        if len(pivots) == len(a):
            break
    return a[:len(pivots)], pivots
