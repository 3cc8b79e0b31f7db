"""Small finite fields and canonical subspace enumeration.

Fields F_q are supported for prime powers q <= 32.  Elements are encoded as
integers 0..q-1 via base-p digits, read as coefficient vectors of
polynomials over Z/p modulo a fixed irreducible of degree k.  The moduli are
Conway polynomials, so element encodings are reproducible.

Subspaces of F_q^n are represented by their reduced row echelon basis (a
tuple of row tuples), which is a unique canonical form: enumeration by pivot
columns times free entries produces each subspace exactly once.
`extensions` lists the subspaces one dimension up by adding one row;
`subspace_leq` row-reduces instead and is kept as the independent oracle
for containment.
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

MAX_FIELD_ORDER = 32


def prime_power(q: int):
    """(p, k) with q = p^k, or None if q is not a prime power >= 2."""
    if q < 2:
        return None
    for p in range(2, q + 1):
        if p * p > q and p < q:
            break
        if q % p == 0:
            k = 0
            m = q
            while m % p == 0:
                m //= p
                k += 1
            return (p, k) if m == 1 else None
    return (q, 1)


class FiniteField:
    """Arithmetic in F_q with exhaustively precomputed op tables."""

    def __init__(self, q: int):
        pk = prime_power(q)
        if pk is None or q > MAX_FIELD_ORDER:
            raise ValueError(f"q={q} is not a supported prime power (q <= {MAX_FIELD_ORDER})")
        self.q = q
        self.p, self.k = pk
        if self.k > 1 and q not in _CONWAY:
            raise ValueError(f"no modulus on record for q={q}")
        self._mul = [[self._poly_mul(a, b) for b in range(q)] for a in range(q)]
        self._add = [[self._poly_add(a, b) for b in range(q)] for a in range(q)]
        self._neg = [self._find_neg(a) for a in range(q)]

    def _digits(self, a: int):
        p = self.p
        out = []
        for _ in range(self.k):
            a, r = divmod(a, p)
            out.append(r)
        return out

    def _encode(self, digits) -> int:
        a = 0
        for d in reversed(digits):
            a = a * self.p + d
        return a

    def _poly_add(self, a: int, b: int) -> int:
        p = self.p
        return self._encode([(x + y) % p for x, y in zip(self._digits(a), self._digits(b))])

    def _poly_mul(self, a: int, b: int) -> int:
        p, k = self.p, self.k
        if k == 1:
            return (a * b) % p
        da, db = self._digits(a), self._digits(b)
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    prod[i + j] = (prod[i + j] + x * y) % p
        mod = _CONWAY[self.q]
        for deg in range(2 * k - 2, k - 1, -1):
            c = prod[deg]
            if c:
                prod[deg] = 0
                for j in range(k):
                    prod[deg - k + j] = (prod[deg - k + j] - c * mod[j]) % p
        return self._encode(prod[:k])

    def _find_neg(self, a: int) -> int:
        for b in range(self.q):
            if self._add[a][b] == 0:
                return b
        raise AssertionError("no additive inverse")

    def add(self, a: int, b: int) -> int:
        return self._add[a][b]

    def sub(self, a: int, b: int) -> int:
        return self._add[a][self._neg[b]]

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def elements(self):
        return range(self.q)

    def __repr__(self):
        return f"FiniteField({self.q})"


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
        for values in product(f.elements(), repeat=len(free)):
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
    free = [j for j in range(n) if all(r.index(1) != j for r in rows)]
    for (line,) in lines:
        v = [0] * n
        for j, x in zip(free, line):
            v[j] = x
        p = v.index(1)
        rest = [tuple([f.sub(x, f.mul(r[p], y)) for x, y in zip(r, v)]) if r[p] else r for r in rows]
        yield tuple(sorted(rest + [tuple(v)], reverse=True))


def reduce_row(f: FiniteField, row, basis):
    """Reduce a vector against RREF basis rows; the result has no component
    in the span of `basis`."""
    row = list(row)
    for b in basis:
        pivot = next(j for j, v in enumerate(b) if v)
        c = row[pivot]
        if c:
            row = [f.sub(x, f.mul(c, y)) for x, y in zip(row, b)]
    return row


def subspace_leq(f: FiniteField, small, big) -> bool:
    """Containment of spans of two RREF tuples."""
    for row in small:
        if any(reduce_row(f, row, big)):
            return False
    return True
