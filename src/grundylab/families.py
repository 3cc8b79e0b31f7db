"""Constructors for the poset families the solvers run on.

Five families: chains, divisor posets, subspace lattices over finite fields,
set partitions under refinement, and the three-coordinate poset of lattice
points x + y + z <= n - 2 (the join-irreducibles of the alternating-sign-
matrix lattice, called the ASM poset here).  Plus the (rank, z) projection
of the ASM poset and exact q-binomials with their parities.

All constructors are pure and return immutable FinitePoset instances with
human-readable labels.  Each states its covers on its own listing of the
elements and leaves the ids and the down closure to
`FinitePoset.from_covers`, which renumbers set partitions and ASM points
(`ids` keeps their listing).  Set partitions and subspaces read their covers
off canonical forms: RREF tuples extended by one row, and restricted
growth strings held as byte strings, whose block merges are
`bytes.translate` calls and whose labels grow with them.
"""

from __future__ import annotations

from math import isqrt

from .poset import FinitePoset


def chain(n: int) -> FinitePoset:
    """Total order on n elements, labeled 1..n."""
    if n < 1:
        raise ValueError("chain needs n >= 1")
    covers = [(i, i + 1) for i in range(n - 1)]
    return FinitePoset.from_covers(n, covers, labels=list(range(1, n + 1)))


def divisor_poset(n: int) -> FinitePoset:
    """Divisors of n ordered by divisibility, labeled by their values.

    d is covered by d * p for each prime p dividing n / d."""
    if n < 1:
        raise ValueError("divisor poset needs n >= 1")
    divs = set()
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            divs.update((d, n // d))
    divs = sorted(divs)
    primes = []  # a divisor > 1 that no smaller prime divides is prime
    for d in divs[1:]:
        if all(d % p for p in primes):
            primes.append(d)
    index = {d: i for i, d in enumerate(divs)}
    covers = [(index[d], index[d * p]) for d in divs for p in primes if n // d % p == 0]
    return FinitePoset.from_covers(len(divs), covers, labels=divs)


# -- subspace lattices ----------------------------------------------------


def q_binomial(n: int, r: int, q: int) -> int:
    """Exact Gaussian binomial; each partial product is itself [n, k+1]_q."""
    if q < 2:
        raise ValueError("q_binomial needs q >= 2")
    if r < 0 or r > n:
        return 0
    g = 1
    for k in range(r):
        g = g * (q ** (n - k) - 1) // (q ** (k + 1) - 1)
    return g


def q_binomial_parity(n: int, r: int, q: int) -> int:
    """Gaussian binomial mod 2.

    For even q every in-range coefficient is odd.  For odd q it is the
    ordinary binomial mod 2 (the q-binomial is a polynomial in q with integer
    coefficients), which by Lucas is odd exactly when r and n - r share no
    binary digit.
    """
    if r < 0 or r > n:
        return 0
    return 1 if q % 2 == 0 or r & (n - r) == 0 else 0


def _subspace_label(rows) -> str:
    if not rows:
        return "0"
    digits = "0123456789abcdefghijklmnopqrstuv"
    return ";".join("".join(digits[v] for v in row) for row in rows)


def subspace_lattice(n: int, q: int) -> FinitePoset:
    """All subspaces of F_q^n ordered by inclusion.

    Elements are canonical RREF matrices, listed by increasing dimension and
    lexicographically within a dimension; each is covered by its one-row
    extensions (`gf.extensions`), which go up one dimension, so this listing
    is the ids.  The lines that extend a k-space depend only on n - k, so
    each list of them is made once per build.
    """
    if n < 0:
        raise ValueError("dimension must be non-negative")
    from . import gf

    f = gf.FiniteField(q)
    elems = [s for r in range(n + 1) for s in sorted(gf.rref_matrices(f, n, r))]
    index = {s: i for i, s in enumerate(elems)}
    lines = [list(gf.rref_matrices(f, m, 1)) for m in range(n + 1)]
    covers = [(i, index[t]) for i, s in enumerate(elems) for t in gf.extensions(f, n, s, lines[n - len(s)])]
    labels = [_subspace_label(s) for s in elems]
    return FinitePoset.from_covers(len(elems), covers, labels=labels)


def subspace_dimensions(n: int, q: int) -> list[int]:
    """Dimension of each element of subspace_lattice(n, q), by id."""
    return [r for r in range(n + 1) for _ in range(q_binomial(n, r, q))]


# -- set partitions -------------------------------------------------------


def bell_number(n: int) -> int:
    """Number of set partitions of an n-set, read off the Bell triangle."""
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


def _grow_rgs(elems, e: int):
    """Each (RGS as bytes, its blocks as label strings) of `elems`, in
    lexicographic order, extended by element e: it joins block v or opens
    a new one.  The extensions of a string follow it in that order."""
    s = str(e)
    for r, blocks in elems:
        k = len(blocks)
        for v in range(k):
            yield r + bytes((v,)), (*blocks[:v], f"{blocks[v]},{s}", *blocks[v + 1 :])
        yield r + bytes((k,)), (*blocks, s)


def set_partition_poset(n: int) -> FinitePoset:
    """Set partitions of {1..n} under refinement.

    pi <= sigma iff every block of pi is contained in a block of sigma, so
    the all-singletons partition is the minimum and the one-block partition
    the maximum.  Elements are listed as the RGS, byte strings in
    lexicographic order, each grown with its label one position at a time.
    A cover merges block b into an earlier block a: b becomes a and the
    later blocks move down one, so the RGS stays canonical; that is one
    `bytes.translate` per block pair.  A merge makes the RGS smaller, so
    the ids are renumbered; `ids` keeps the lexicographic RGS order, the
    order `grundy` prints the labels in.  No cap of its own: the caller
    bounds n (`cli.parse_poset_spec` checks Bell(n) against its cap).
    """
    if n < 1:
        raise ValueError("set partition poset needs n >= 1")
    elems = [(b"\0", ("1",))]
    for e in range(2, n + 1):  # a chain of generators: no level is held in full
        elems = _grow_rgs(elems, e)
    index, labels = {}, []
    for r, blocks in elems:
        index[r] = len(labels)
        labels.append("|".join(blocks))
    # merge[b][a] sends byte b to a and every byte above b down one
    merge = [
        [bytes(a if v == b else v - (v > b) for v in range(256)) for a in range(b)] for b in range(n)
    ]
    covers = [
        (i, index[r.translate(table)])
        for r, i in index.items()
        for b in range(1, max(r) + 1)
        for table in merge[b]
    ]
    return FinitePoset.from_covers(len(labels), covers, labels=labels)


# -- the ASM poset --------------------------------------------------------


def asm_elements(n: int) -> list[tuple[int, int, int]]:
    """Lattice points (x, y, z) >= 0 with x + y + z <= n - 2, sorted."""
    if n < 2:
        return []
    return [
        (x, y, z)
        for x in range(n - 1)
        for y in range(n - 1 - x)
        for z in range(n - 1 - x - y)
    ]


def asm_poset(n: int) -> FinitePoset:
    """The ASM poset, closed from the four lattice points each element can
    cover, kept where they lie in the poset: (x1, y1, z1) <= (x2, y2, z2)
    iff x1 >= x2, y1 >= y2, z1 <= z2 and the coordinate sums weakly
    decrease.  `ids` follows the listing of `asm_elements`."""
    if n < 2:
        raise ValueError("asm poset needs n >= 2")
    elems = asm_elements(n)
    index = {e: i for i, e in enumerate(elems)}
    covers = [
        (index[c], j)
        for j, (x, y, z) in enumerate(elems)
        for c in ((x + 1, y, z), (x, y + 1, z), (x + 1, y, z - 1), (x, y + 1, z - 1))
        if c in index
    ]
    return FinitePoset.from_covers(len(elems), covers, labels=elems)


def asm_pi(n: int, e) -> tuple[int, int]:
    """Projection to (rank, z), r = n - 2 - (x + y); a point outside ASM_n
    raises ValueError.

    The per-element Grundy data depends only on this pair.  Lemma:
    translating by (x, y, 0) maps down((x, y, z)) onto
    D(r, z) = {(a, b, c) >= 0 : c <= z <= a + b + c <= r} and keeps the
    order, since every order comparison and coordinate sum shifts by the
    same amount.  So the tt, ideal and ruler values of an element depend
    only on (r, z), and not on n.  Replacing z by n - 2 - (x + y + z) is an
    order automorphism that fixes the rank and sends z to r - z, so those
    values also satisfy g(r, z) = g(r, r - z)."""
    x, y, z = e
    if not (x >= 0 and y >= 0 and z >= 0 and x + y + z <= n - 2):
        raise ValueError(f"{e} is not in the poset for n={n}")
    return n - 2 - (x + y), z

