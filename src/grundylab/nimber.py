"""Nimber arithmetic: mex, nim-addition and nim-multiplication.

The fast operations (`nim_add`, `nim_mul`) are the ones the rest of the
library uses.  `nim_add_inductive` and `nim_mul_inductive` evaluate the
defining mex recursions literally; they are quadratic, capped, and exist
purely as correctness oracles for the fast paths.

All functions are pure.  The oracle tables and the `nim_mul` memo only
grow; a grown oracle table is built on the side and published by one
assignment, so an interrupted growth leaves the previous table intact.
"""

from __future__ import annotations

from .errors import CapExceededError

NIM_ADD_ORACLE_CAP = 1024
NIM_MUL_ORACLE_CAP = 256

_nim_add_table: list[list[int]] = []
_nim_mul_table: list[list[int]] = []


def mex(values) -> int:
    """Least non-negative integer not contained in `values`."""
    seen = 0
    for v in values:
        seen |= 1 << v
    return ((seen + 1) & ~seen).bit_length() - 1


def nim_add(a, b):
    """Nim-sum of a and b: binary addition without carries (XOR).

    Accepts plain ints or numpy integer arrays elementwise.
    """
    return a ^ b


def nim_sum(xs) -> int:
    """Nim-sum over a collection; the empty sum is 0."""
    acc = 0
    for x in xs:
        acc ^= x
    return acc


def _grow_nim_add_table(limit: int) -> None:
    # Cell (a, b) takes the mex over column {t[a'][b]} and row {t[a][b']}.
    # Option sets are kept as int bitmasks so each cell costs O(1) big-int ops.
    global _nim_add_table
    table = [[0] * limit for _ in range(limit)]
    colmask = [0] * limit
    for a in range(limit):
        rowmask = 0
        row = table[a]
        for b in range(limit):
            m = rowmask | colmask[b]
            v = ((m + 1) & ~m).bit_length() - 1
            row[b] = v
            bit = 1 << v
            rowmask |= bit
            colmask[b] |= bit
    _nim_add_table = table


def nim_add_inductive(a: int, b: int, cap: int = NIM_ADD_ORACLE_CAP) -> int:
    """Nim-sum by the literal mex recursion over smaller arguments.

    Oracle for `nim_add`; refuses inputs at or above `cap`.
    """
    if a < 0 or b < 0:
        raise ValueError("nimbers are non-negative")
    if a >= cap or b >= cap:
        raise CapExceededError(f"inductive nim-add capped at {cap}, got ({a}, {b})")
    need = max(a, b) + 1
    if len(_nim_add_table) < need:
        _grow_nim_add_table(need)
    return _nim_add_table[a][b]


def _grow_nim_mul_table(limit: int) -> None:
    # t[a][b] = mex{ t[a'][b] ^ t[a][b'] ^ t[a'][b'] : a' < a, b' < b }.
    # Only the cells outside the current table are computed, in row-major
    # order.  Along row a, diffs[a'] holds t[a][b'] ^ t[a'][b'] for every
    # b' < b, so the options at (a, b) are t[a'][b] ^ diffs[a'].  The grown
    # table is built on the side and published by one assignment.
    global _nim_mul_table
    done = len(_nim_mul_table)
    t = [row + [0] * (limit - done) for row in _nim_mul_table]
    t += [[0] * limit for _ in range(limit - done)]
    for a in range(1, limit):
        row = t[a]
        start = done if a < done else 1
        diffs = [[x ^ y for x, y in zip(row[:start], t[a2])] for a2 in range(a)]
        for b in range(start, limit):
            opts = set()
            for a2 in range(a):
                opts.update(map(t[a2][b].__xor__, diffs[a2]))
            v = mex(opts)
            row[b] = v
            for a2 in range(a):
                diffs[a2].append(v ^ t[a2][b])
    _nim_mul_table = t


def nim_mul_inductive(a: int, b: int, cap: int = NIM_MUL_ORACLE_CAP) -> int:
    """Nim-product by the literal double-mex recursion.

    Oracle for `nim_mul`; refuses inputs at or above `cap`.
    """
    if a < 0 or b < 0:
        raise ValueError("nimbers are non-negative")
    if a >= cap or b >= cap:
        raise CapExceededError(f"inductive nim-mul capped at {cap}, got ({a}, {b})")
    need = max(a, b) + 1
    if len(_nim_mul_table) < need:
        _grow_nim_mul_table(need)
    return _nim_mul_table[a][b]


_nim_mul_memo: dict[tuple[int, int], int] = {}


def nim_mul(a: int, b: int) -> int:
    """Nim-product, computed by recursive splitting at Fermat 2-powers.

    Splitting a, b < F*F at F = 2^(2^k) uses F (x) F = F + F/2 and the fact
    that F multiplies anything smaller ordinarily.  Agreement with
    `nim_mul_inductive` is asserted by the test suite; the algebraic laws
    (commutativity, associativity, distributivity over nim_add) hold.
    """
    if a < b:
        a, b = b, a
    if b < 2:
        return a * b
    key = (a, b)
    cached = _nim_mul_memo.get(key)
    if cached is not None:
        return cached
    shift = 1 << ((a.bit_length() - 1).bit_length() - 1)
    half = 1 << shift
    a1, a0 = divmod(a, half)
    b1, b0 = divmod(b, half)
    t00 = nim_mul(a0, b0)
    t11 = nim_mul(a1, b1)
    cross = nim_mul(a1 ^ a0, b1 ^ b0) ^ t00 ^ t11
    result = ((t11 ^ cross) << shift) ^ nim_mul(t11, half >> 1) ^ t00
    _nim_mul_memo[key] = result
    return result


def nim_product(xs) -> int:
    """Nim-product over a collection; the empty product is 1."""
    acc = 1
    for x in xs:
        acc = nim_mul(acc, x)
    return acc


def nu2(x: int) -> int:
    """2-adic valuation: index of the least significant set bit of x >= 1."""
    if x < 1:
        raise ValueError("nu2 requires a positive integer")
    return (x & -x).bit_length() - 1


def ruler_phi(x: int) -> int:
    """Ruler sequence 2^nu2(x): 1, 2, 1, 4, 1, 2, 1, 8, ..."""
    if x < 1:
        raise ValueError("ruler_phi requires a positive integer")
    return x & -x


def msb(x: int) -> int:
    """Index of the most significant set bit of x >= 1."""
    if x < 1:
        raise ValueError("msb requires a positive integer")
    return x.bit_length() - 1
