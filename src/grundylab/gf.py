"""Small finite fields and canonical subspace enumeration.

F_q is supported for the primes q <= 31 and for the seven prime powers
4, 8, 9, 16, 25, 27 and 32 that `_CONWAY` holds a modulus for.  Elements are
encoded as integers 0..q-1 via base-p digits, read as coefficient vectors of
polynomials over Z/p, constant term first, modulo that degree-k Conway
polynomial, so element encodings are reproducible.  A field is its two
exhaustive tables, made once: a - b is `f.sub[a][b]` and a * b `f.mul[a][b]`.

Subspaces of F_q^n are represented by their reduced row echelon basis (a
tuple of row tuples), which is a unique canonical form: enumeration by pivot
columns times free entries produces each subspace exactly once.
`extensions` lists the subspaces one dimension up by adding one row.
"""

from __future__ import annotations

from itertools import combinations, product


# Conway polynomial coefficients, constant term first.
_CONWAY = {
    4: (1, 1, 1),            # x^2 + x + 1 over F_2
    8: (1, 1, 0, 1),         # x^3 + x + 1
    16: (1, 1, 0, 0, 1),     # x^4 + x + 1
    32: (1, 0, 1, 0, 0, 1),  # x^5 + x^2 + 1
    9: (2, 2, 1),            # x^2 + 2x + 2 over F_3
    27: (1, 2, 0, 1),        # x^3 + 2x + 1
    25: (2, 4, 1),           # x^2 + 4x + 2 over F_5
}


class FiniteField:
    """F_q, for q a prime <= 31 or a key of `_CONWAY`, as its two tables."""

    def __init__(self, q: int):
        if not (q in _CONWAY or 2 <= q <= 31 and all(q % d for d in range(2, q))):
            raise ValueError(f"q={q} is not a supported prime power (q <= 32)")
        self.q = q
        p = next(d for d in range(2, q + 1) if q % d == 0)
        # a prime field has degree k = 1, so its modulus x is never read
        mod = _CONWAY.get(q, (0, 1))
        k = len(mod) - 1
        polys = [[a // p**i % p for i in range(k)] for a in range(q)]

        def encode(digits):
            return sum(d % p * p**i for i, d in enumerate(digits))

        def times(u, v):
            # the product over Z, then each term of degree >= k replaced
            # by that multiple of x^(deg - k) * (x^k - mod)
            prod = [0] * (2 * k - 1)
            for i, x in enumerate(u):
                for j, y in enumerate(v):
                    prod[i + j] += x * y
            for deg in range(2 * k - 2, k - 1, -1):
                c = prod[deg]
                for j in range(k + 1):
                    prod[deg - k + j] -= c * mod[j]
            return encode(prod[:k])

        self.sub = [[encode([x - y for x, y in zip(u, v)]) for v in polys] for u in polys]
        self.mul = [[times(u, v) for v in polys] for u in polys]


def rref_matrices(f: FiniteField, n: int, r: int):
    """Yield every r-dimensional subspace of F_q^n as a canonical RREF tuple.

    Pivot columns run over r-subsets of columns; entries right of a pivot and
    outside pivot columns range freely, so no deduplication is needed.
    """
    if r == 0:
        yield ()
        return
    if r > n:
        return
    for pivots in combinations(range(n), r):
        pivot_set = set(pivots)
        free = [
            (i, j)
            for i in range(r)
            for j in range(pivots[i] + 1, n)
            if j not in pivot_set
        ]
        for values in product(range(f.q), repeat=len(free)):
            rows = [[0] * n for _ in range(r)]
            for i, c in enumerate(pivots):
                rows[i][c] = 1
            for (i, j), v in zip(free, values):
                rows[i][j] = v
            yield tuple(tuple(row) for row in rows)


def extensions(f: FiniteField, n: int, rows, lines):
    """Yield the RREF of each subspace one dimension above the span of RREF
    `rows`: span(rows, v) for each v that is zero on the pivots of `rows`
    and has leading entry 1, which is `rows` with v's pivot column cleared,
    plus v, in pivot order.  `lines` holds the v's entries on the other
    columns, as `rref_matrices(f, n - len(rows), 1)` yields them, so that a
    caller extending many subspaces lists them once."""
    sub, mul = f.sub, f.mul
    free = [j for j in range(n) if all(r.index(1) != j for r in rows)]
    for (line,) in lines:
        v = [0] * n
        for j, x in zip(free, line):
            v[j] = x
        p = v.index(1)
        rest = [tuple([sub[x][mul[r[p]][y]] for x, y in zip(r, v)]) if r[p] else r for r in rows]
        yield tuple(sorted(rest + [tuple(v)], reverse=True))

