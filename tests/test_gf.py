import hashlib
import json

import pytest

from grundylab.families import q_binomial
from grundylab.gf import FiniteField, extensions, rref_matrices
from helpers import subspace_leq

SUPPORTED_Q = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32]


def test_field_tables_are_pinned():
    # subspace values depend only on dimension, so no grundy output pins the
    # element encoding; this digest of every sub and mul table does
    tables = []
    for q in SUPPORTED_Q:
        f = FiniteField(q)
        tables.append([q, f.sub, f.mul])
    digest = hashlib.sha256(json.dumps(tables, separators=(",", ":")).encode()).hexdigest()
    assert digest == "c038c7275ef28e47918f6db1913063c4bfdee3763e54bc149db50c5420b23ac8"


def test_unsupported_orders():
    # every order up to 64 but the supported ones: 0, 1, the non-prime-powers
    # and the primes and prime powers above 32
    for q in sorted(set(range(65)) - set(SUPPORTED_Q)):
        with pytest.raises(ValueError, match=rf"^q={q} is not a supported prime power \(q <= 32\)$"):
            FiniteField(q)


@pytest.mark.parametrize("q", SUPPORTED_Q)
def test_field_axioms_exhaustive(q):
    f = FiniteField(q)
    sub, mul = f.sub, f.mul
    els = range(q)

    def add(a, b):
        return sub[a][sub[0][b]]

    for a in els:
        assert add(a, 0) == a
        assert mul[a][1] == a
        assert add(a, sub[0][a]) == 0
        for b in els:
            assert add(a, b) == add(b, a)
            assert mul[a][b] == mul[b][a]
            for c in els:
                assert add(add(a, b), c) == add(a, add(b, c))
                assert mul[mul[a][b]][c] == mul[a][mul[b][c]]
                assert mul[a][add(b, c)] == add(mul[a][b], mul[a][c])


def test_field_has_no_zero_divisors():
    # a finite commutative ring with no zero divisors is a field, so every
    # nonzero element has an inverse
    for q in SUPPORTED_Q:
        f = FiniteField(q)
        for a in range(1, q):
            for b in range(1, q):
                assert f.mul[a][b] != 0


@pytest.mark.parametrize("q", [2, 3, 4, 5])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
def test_subspace_counts_match_q_binomials(n, q):
    f = FiniteField(q)
    for r in range(n + 1):
        count = sum(1 for _ in rref_matrices(f, n, r))
        assert count == q_binomial(n, r, q)


def test_rref_canonical_and_distinct():
    f = FiniteField(3)
    seen = set(rref_matrices(f, 3, 2))
    assert len(seen) == q_binomial(3, 2, 3)
    for rows in seen:
        pivots = [next(j for j, v in enumerate(row) if v) for row in rows]
        assert pivots == sorted(pivots)
        for i, row in enumerate(rows):
            assert row[pivots[i]] == 1
            for k, other in enumerate(pivots):
                if k != i:
                    assert row[other] == 0


def test_subspace_leq():
    f = FiniteField(2)
    zero = ()
    full = tuple(rref_matrices(f, 2, 2))[0]
    lines = list(rref_matrices(f, 2, 1))
    assert subspace_leq(f, zero, zero)
    for line in lines:
        assert subspace_leq(f, zero, line)
        assert subspace_leq(f, line, full)
        assert not subspace_leq(f, full, line)
    assert not subspace_leq(f, lines[0], lines[1])


@pytest.mark.parametrize("n, q", [(4, 2), (3, 3), (3, 4), (2, 9)])
def test_extensions_are_the_subspaces_one_dimension_up(n, q):
    # rref_matrices yields every subspace once in canonical form, so each
    # extension must be one of its (k+1)-dimensional tuples
    f = FiniteField(q)
    for k in range(n + 1):
        above = set(rref_matrices(f, n, k + 1))
        for rows in rref_matrices(f, n, k):
            ext = list(extensions(f, n, rows, list(rref_matrices(f, n - k, 1))))
            assert len(ext) == len(set(ext))
            assert set(ext) == {t for t in above if subspace_leq(f, rows, t)}


def test_interval_in_subspace_lattice_looks_like_smaller_lattice():
    # layer sizes of [U, W] match the subspace counts of a (dim W - dim U)-
    # dimensional space, by quotient dimension counting
    import random

    from grundylab.families import subspace_dimensions, subspace_lattice
    from grundylab.poset import iter_bits
    from helpers import leq

    rng = random.Random(1)
    for q in (2, 3):
        for n in (2, 3, 4):
            p = subspace_lattice(n, q)
            dims = subspace_dimensions(n, q)
            for _ in range(5):
                u = rng.randrange(p.n)
                above = [w for w in range(p.n) if leq(p, u, w)]
                w = rng.choice(above)
                members = [t for t in iter_bits(p.down_mask(w)) if leq(p, u, t)]
                du, dw = dims[u], dims[w]
                for r in range(dw - du + 1):
                    layer = sum(1 for t in members if dims[t] == du + r)
                    assert layer == q_binomial(dw - du, r, q)
