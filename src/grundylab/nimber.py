"""Nimber arithmetic: mex, nim-addition and nim-multiplication.

Nim-addition is XOR, which the library writes as `^`; `nim_add` is
`operator.xor` under that name, for `verify`, which checks it and its
inductive oracle against `^`.
`nim_mul` is the fast product the rest of the library uses.
`nim_add_inductive` and `nim_mul_inductive` evaluate the defining mex
recursions literally; they are quadratic, capped, and exist purely as
correctness oracles for the fast paths.

Each oracle reads its table through one lookup.  It indexes the table
first, once the arguments' sign is checked, since a list index would wrap
a negative one; the cap and the table's size are checked only when that
index misses.  A cell reads only cells with smaller coordinates, so a
table that is too small is rebuilt from scratch, to the missed cell or to
twice its old size, whichever is larger (at most log2(cap) + 1 builds in
an ascending sweep, one in a sweep that starts at its largest cell), and
published by one assignment; an interrupted build leaves the old table in
place.  The nim-add builder keeps option sets as int bitmasks.  Every value
below the nim-mul cap fits in one byte, so the nim-mul builder keeps each
column's options as bytes packed in one int: a cell's options are one XOR
of that int with its row's bytes repeated, and its mex is the first byte
that `bytes.translate` does not delete.  These tables and the `nim_mul`
memo are the only state.
"""

from __future__ import annotations

from operator import xor

from .errors import TooLargeError

NIM_ADD_ORACLE_CAP = 1024
NIM_MUL_ORACLE_CAP = 256  # = 2^(2^3), so every product below it stays below it

_tables: dict[str, list[list[int]]] = {}


def mex(values) -> int:
    """Least non-negative integer not contained in `values`."""
    seen = 0
    for v in values:
        seen |= 1 << v
    return ((seen + 1) & ~seen).bit_length() - 1


# the nim-sum, binary addition without carries: XOR itself, so a call
# runs no Python frame
nim_add = xor


def _lookup(name: str, build, cap: int, a: int, b: int) -> int:
    # a | b is negative when either is
    try:
        if a | b >= 0:
            return _tables[name][a][b]
    except (KeyError, IndexError):
        pass
    if a < 0 or b < 0:
        raise ValueError("nimbers are non-negative")
    if a >= cap or b >= cap:
        raise TooLargeError(f"inductive {name} capped at {cap}, got ({a}, {b})")
    size = max(max(a, b) + 1, 2 * len(_tables.get(name, ())))
    table = _tables[name] = build(min(cap, size))
    return table[a][b]


def _build_nim_add_table(limit: int) -> list[list[int]]:
    # Cell (a, b) takes the mex over column {t[a'][b]} and row {t[a][b']}.
    table = [[0] * limit for _ in range(limit)]
    colmask = [0] * limit
    for a in range(limit):
        rowmask = 0
        row = table[a]
        for b in range(limit):
            m = rowmask | colmask[b]
            v = ((m + 1) & ~m).bit_length() - 1
            row[b] = v
            rowmask |= 1 << v
            colmask[b] |= 1 << v
    return table


def nim_add_inductive(a: int, b: int) -> int:
    """Nim-sum by the literal mex recursion: the oracle for `nim_add`, below NIM_ADD_ORACLE_CAP."""
    return _lookup("nim-add", _build_nim_add_table, NIM_ADD_ORACLE_CAP, a, b)


def _build_nim_mul_table(limit: int) -> list[list[int]]:
    # t[a][b] = mex{ t[a'][b] ^ t[a][b'] ^ t[a'][b'] : a' < a, b' < b }.  Every
    # value is below NIM_MUL_ORACLE_CAP = 256, one byte, though not always
    # below limit (2 (x) 4 = 8).  cols[b] is the big-endian int of the bytes
    # t[a'][b] ^ t[a'][b'] over the finished rows a' < a, a'-major, b' < b
    # within each, so the options at (a, b) are one XOR of cols[b] with row
    # a's first b bytes repeated a times; the mex is the first byte of
    # 0..255 left after deleting them.  A finished row appends to cols[b]
    # its first b bytes, each XORed with t[a][b] by one multiple of the int
    # whose b bytes are all 1.
    every = bytes(range(NIM_MUL_ORACLE_CAP))
    cols = [0] * limit
    t: list[list[int]] = []
    for a in range(limit):
        row = bytearray(limit)
        for b in range(limit):
            options = cols[b] ^ int.from_bytes(row[:b] * a, "big")
            row[b] = every.translate(None, options.to_bytes(a * b, "big"))[0]
        for b in range(limit):
            ones = (1 << 8 * b) // 255
            cols[b] = cols[b] << 8 * b | int.from_bytes(row[:b], "big") ^ row[b] * ones
        t.append(list(row))
    return t


def nim_mul_inductive(a: int, b: int) -> int:
    """Nim-product by the literal double-mex recursion: the oracle for `nim_mul`, below NIM_MUL_ORACLE_CAP."""
    return _lookup("nim-mul", _build_nim_mul_table, NIM_MUL_ORACLE_CAP, a, b)


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

