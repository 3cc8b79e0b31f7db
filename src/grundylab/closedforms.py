"""Closed-form Grundy functions and the recurrences that certify them.

Each function here evaluates a proven formula directly; the test suite
re-derives every one of them from `solve_elementwise` on small instances.
A per-element formula takes the key its rows print (a divisor, a dimension,
an ASM (rank, z) fiber) and raises ValueError outside its domain.
"""

from __future__ import annotations

from .families import q_binomial_parity
from .nimber import mex, nim_product, nu2, ruler_phi


def divisor_ruler_grundy(n: int, y: int) -> int:
    """Ruler on the divisors of n: nim-product of ruler values over the
    prime exponents of the divisor y, each shifted by one."""
    if n < 1 or y < 1 or n % y != 0:
        raise ValueError(f"{y} does not divide {n}")
    exps = []
    m = y
    d = 2
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            exps.append(e)
        d += 1
    if m > 1:
        exps.append(1)
    return nim_product(ruler_phi(e + 1) for e in exps)


def subspace_ruler_grundy(q: int, d: int) -> int:
    """Ruler on the lattice of subspaces: a d-dimensional subspace scores
    ruler_phi(d+1) when q is even and d mod 3 + 1 when q is odd."""
    if d < 0:
        raise ValueError("dimension must be non-negative")
    if q % 2 == 0:
        return ruler_phi(d + 1)
    return d % 3 + 1


def subspace_recurrence(q: int, d_max: int) -> tuple[list[int], dict[tuple[int, int], int]]:
    """The tables (g, s) of subspace-ruler Grundy values by dimension, via
    the recurrence

        s(d, m) = nim-sum over k in [m, d) of parity(qbinom(d-m, k-m)) * g(k)
        g(d)    = mex { s(d, m) : m = 0..d }

    The s table is filled by increasing d and, within one d, by decreasing m,
    matching the dependency order of the reduction identity
    s(d, m) = s(d, m+1) + s(d-1, m) + g(d-1) that holds for odd q.
    """
    g: list[int] = []
    s: dict[tuple[int, int], int] = {}
    for d in range(d_max + 1):
        for m in range(d, -1, -1):
            acc = 0
            for k in range(m, d):
                if q_binomial_parity(d - m, k - m, q):
                    acc ^= g[k]
            s[(d, m)] = acc
        g.append(mex(s[(d, m)] for m in range(d + 1)))
    return g, s


def asm_ideal_grundy(r: int, z: int) -> int:
    """Order-ideal game on the ASM poset, by the (rank, z) fiber that
    `families.asm_pi` projects an element to: value 1 iff r is 0 or equals
    2z +/- 1."""
    if not 0 <= z <= r:
        raise ValueError(f"({r}, {z}) is not a (rank, z) fiber: needs 0 <= z <= rank")
    return 1 if r == 0 or r == 2 * z + 1 or r == 2 * z - 1 else 0


# -- ruler-sequence mex characterization -----------------------------------


def suffix_nim_sum_set(n: int) -> set[int]:
    """All suffix nim-sums ending at n: { H(x, n) : x = 1..n }, where
    H(x, n) is the nim-sum of the ruler values over [x, n)."""
    acc = 0
    out = {0}
    for x in range(n - 1, 0, -1):
        acc ^= ruler_phi(x)
        out.add(acc)
    return out


def ruler_mex_characterization(n_max: int) -> list[str]:
    """Check, for every n <= n_max: the suffix nim-sums H(m, n) are pairwise
    distinct; S(2^k) = {0..2^k - 1}; for k = nu2(n), S(2^k) is contained in
    S(n) while 2^k is not; hence mex S(n) equals the ruler value of n.
    Returns the failures, empty when every check holds.

    Distinctness is `len(S(n)) == n`.  It also covers H(m, n) != 0 for
    m < n: H(n, n) = 0 is in S(n), so any other zero is a repeat, and a
    separate zero test would pass and fail on exactly the same n.
    """
    failures: list[str] = []
    pow_sets = {}
    k = 0
    while (1 << k) <= n_max:
        pow_sets[k] = suffix_nim_sum_set(1 << k)
        if pow_sets[k] != set(range(1 << k)):
            failures.append(f"S(2^{k}) != {{0..2^{k}-1}}")
        k += 1
    for n in range(1, n_max + 1):
        sn = suffix_nim_sum_set(n)
        if len(sn) != n:
            failures.append(f"suffix nim-sums not distinct at n={n}")
        kn = nu2(n)
        if kn in pow_sets and not pow_sets[kn] <= sn:
            failures.append(f"S(2^{kn}) not within S({n})")
        if (1 << kn) in sn:
            failures.append(f"2^{kn} belongs to S({n})")
        if mex(sn) != ruler_phi(n):
            failures.append(f"mex S({n}) != ruler value")
    return failures
