import random
from functools import reduce
from operator import xor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grundylab import nimber
from grundylab.errors import BudgetExceededError, TooLargeError
from grundylab.nimber import (
    mex,
    nim_add,
    nim_add_inductive,
    nim_mul,
    nim_mul_inductive,
    nim_product,
    nu2,
    ruler_phi,
)

PHI_ROW = [1, 2, 1, 4, 1, 2, 1, 8, 1, 2, 1, 4, 1, 2, 1]
NU_ROW = [0, 1, 0, 2, 0, 1, 0, 3, 0, 1, 0, 2, 0, 1, 0]


def test_mex_examples():
    assert mex(set()) == 0
    assert mex({0, 1, 3}) == 2
    assert mex({1, 2, 5}) == 0
    assert mex(range(10)) == 10


def test_nim_add_worked_example():
    assert nim_add(5, 9) == 12


def test_nim_add_group_laws():
    for a in range(64):
        assert nim_add(a, a) == 0
        assert nim_add(a, 0) == a == nim_add(0, a)
        for b in range(64):
            assert nim_add(a, b) == nim_add(b, a)
            for c in range(64):
                assert nim_add(nim_add(a, b), c) == nim_add(a, nim_add(b, c))


def test_nim_add_injective_in_each_argument():
    for a in range(32):
        seen = {nim_add(a, b) for b in range(64)}
        assert len(seen) == 64


def test_nim_add_inductive_small_cases():
    assert nim_add_inductive(0, 0) == 0
    assert nim_add_inductive(1, 1) == 0
    assert nim_add_inductive(5, 9) == 12


def test_nim_add_inductive_matches_xor():
    for a in range(64):
        for b in range(64):
            assert nim_add_inductive(a, b) == a ^ b


def test_nim_add_inductive_cap():
    with pytest.raises(TooLargeError, match=r"inductive nim-add capped at 1024, got \(0, 10000\)"):
        nim_add_inductive(0, 10_000)


def test_inductive_oracles_refuse_negative_arguments():
    for oracle in (nim_add_inductive, nim_mul_inductive):
        for a, b in ((-1, 0), (0, -1), (-3, -3)):
            with pytest.raises(ValueError):
                oracle(a, b)


@pytest.mark.parametrize(
    "oracle, builder, fast, limit",
    [
        (nim_add_inductive, "_build_nim_add_table", nim_add, 256),
        (nim_mul_inductive, "_build_nim_mul_table", nim_mul, 32),
    ],
)
def test_ascending_sweep_builds_each_table_log_times(monkeypatch, oracle, builder, fast, limit):
    # a table grows to the next power of two, so log2(limit) + 1 builds
    build = getattr(nimber, builder)
    sizes = []

    def counting(size):
        sizes.append(size)
        return build(size)

    monkeypatch.setattr(nimber, "_tables", {})
    monkeypatch.setattr(nimber, builder, counting)
    for a in range(limit):
        for b in range(limit):
            assert oracle(a, b) == fast(a, b)
    assert sizes == [1 << k for k in range(limit.bit_length())]


def test_an_interrupted_build_leaves_the_previous_table(monkeypatch):
    monkeypatch.setattr(nimber, "_tables", {})
    assert nim_mul_inductive(5, 7) == nim_mul(5, 7)
    table = nimber._tables["nim-mul"]
    build = nimber._build_nim_mul_table

    def interrupted(size):
        build(size // 2)
        raise BudgetExceededError("interrupted mid-build")

    monkeypatch.setattr(nimber, "_build_nim_mul_table", interrupted)
    with pytest.raises(BudgetExceededError):
        nim_mul_inductive(3, 40)
    assert nimber._tables["nim-mul"] is table
    assert [nim_mul_inductive(a, b) for a in range(8) for b in range(8)] == [
        nim_mul(a, b) for a in range(8) for b in range(8)
    ]


def test_nim_mul_table_matches_a_set_double_mex():
    # the builder's byte lists against the defining double mex over Python
    # sets, which uses neither builder; products below 32 reach 255, so the
    # builder's translations must cover every byte, not only those below 32
    limit = 32
    t = [[0] * limit for _ in range(limit)]
    for a in range(limit):
        for b in range(limit):
            t[a][b] = mex(
                {t[x][b] ^ t[a][y] ^ t[x][y] for x in range(a) for y in range(b)}
            )
    assert nimber._build_nim_mul_table(limit) == t


def test_nim_mul_inductive_identities():
    for a in range(16):
        assert nim_mul_inductive(a, 0) == 0
        assert nim_mul_inductive(a, 1) == a
    assert nim_mul_inductive(2, 2) == 3


def test_nim_mul_inductive_cap():
    with pytest.raises(TooLargeError, match=r"inductive nim-mul capped at 256, got \(300, 1\)"):
        nim_mul_inductive(300, 1)


def test_nim_mul_matches_inductive_oracle():
    for a in range(48):
        for b in range(48):
            assert nim_mul(a, b) == nim_mul_inductive(a, b)


def test_nim_mul_small_table():
    # classic multiplication table corner
    assert nim_mul(1, 2) == 2
    assert nim_mul(2, 2) == 3
    assert nim_mul(2, 3) == 1
    assert nim_mul(3, 3) == 2
    assert nim_mul(4, 4) == 6


def test_nim_mul_laws():
    rng = range(32)
    for a in rng:
        assert nim_mul(a, 0) == 0
        assert nim_mul(a, 1) == a
        for b in rng:
            assert nim_mul(a, b) == nim_mul(b, a)
    for a in (0, 1, 2, 5, 13, 31):
        for b in rng:
            for c in rng:
                assert nim_mul(nim_mul(a, b), c) == nim_mul(a, nim_mul(b, c))
                assert nim_mul(a ^ b, c) == nim_mul(a, c) ^ nim_mul(b, c)


# the Fermat 2-powers F = 2^(2^k) up to 2^32, where nim_mul splits
FERMAT_POWERS = [1 << (1 << k) for k in range(6)]


def test_nim_mul_fermat_identities(monkeypatch):
    # F (x) F = 3F/2, and F multiplies anything smaller ordinarily: every
    # x < F up to F = 2^16, seeded x at F = 2^32.  With the laws and the
    # Frobenius identity below these pin the field to the nim field, past
    # the oracle's cap of 256
    monkeypatch.setattr(nimber, "_nim_mul_memo", {})
    rng = random.Random(1)
    for f in FERMAT_POWERS:
        assert nim_mul(f, f) == 3 * f // 2
        xs = range(f) if f <= 1 << 16 else [f - 1, *(rng.randrange(f) for _ in range(2000))]
        assert all(nim_mul(f, x) == f * x for x in xs), f


def test_nim_mul_frobenius_fixes_every_value_below_2_16(monkeypatch):
    # x^(2^16) = x for every x < 2^16: sixteen squarings, read off a table
    # of the squares
    monkeypatch.setattr(nimber, "_nim_mul_memo", {})
    size = 1 << 16
    square = [nim_mul(x, x) for x in range(size)]
    power = list(range(size))
    for _ in range(16):
        power = [square[y] for y in power]
    assert power == list(range(size))


def test_nim_mul_laws_on_random_triples_below_2_32(monkeypatch):
    monkeypatch.setattr(nimber, "_nim_mul_memo", {})
    rng = random.Random(1)
    for _ in range(2000):
        x, y, z = (rng.getrandbits(32) for _ in range(3))
        assert nim_mul(x, y) == nim_mul(y, x), (x, y)
        assert nim_mul(nim_mul(x, y), z) == nim_mul(x, nim_mul(y, z)), (x, y, z)
        assert nim_mul(x ^ y, z) == nim_mul(x, z) ^ nim_mul(y, z), (x, y, z)


def test_nim_mul_cancellation():
    for b in range(1, 32):
        images = {nim_mul(a, b) for a in range(32)}
        assert len(images) == 32


def test_nim_product_fold():
    assert nim_product([]) == 1
    assert nim_product([1, 2]) == 2
    assert nim_product([2, 2, 2]) == nim_mul(3, 2)


finite_sets = st.sets(st.integers(min_value=0, max_value=120), max_size=40)


@settings(max_examples=200, deadline=None)
@given(finite_sets, finite_sets)
def test_mex_translation_identity(s, t):
    # mex(S) + mex(T) = mex({s + mex(T)} union {mex(S) + t}), + being nim-add
    a, b = mex(s), mex(t)
    shifted = {x ^ b for x in s} | {a ^ x for x in t}
    assert nim_add(a, b) == mex(shifted)


@settings(max_examples=100, deadline=None)
@given(st.lists(finite_sets, min_size=1, max_size=4))
def test_mex_translation_n_ary(sets):
    ms = [mex(s) for s in sets]
    total = reduce(xor, ms, 0)
    shifted = set()
    for i, s in enumerate(sets):
        rest = reduce(xor, (m for j, m in enumerate(ms) if j != i), 0)
        shifted |= {rest ^ x for x in s}
    assert total == mex(shifted)


@settings(max_examples=200, deadline=None)
@given(finite_sets, finite_sets)
def test_mex_subset_monotone(s, t):
    u = s | t
    assert mex(s) <= mex(u)
    if mex(s) not in u:
        assert mex(s) == mex(u)


def test_binary_helpers():
    assert nu2(26) == 1
    assert ruler_phi(26) == 2
    assert ruler_phi(8) == 8
    assert ruler_phi(12) == 4
    for k in range(10):
        assert ruler_phi(1 << k) == 1 << k
    for bad in (nu2, ruler_phi):
        with pytest.raises(ValueError):
            bad(0)


def test_ruler_table_row():
    assert [nu2(x) for x in range(1, 16)] == NU_ROW
    assert [ruler_phi(x) for x in range(1, 16)] == PHI_ROW


def test_nim_add_elementwise_on_arrays():
    # the 256 x 256 grid, cell by cell
    for a in range(256):
        assert [nim_add(a, b) for b in range(256)] == [a ^ b for b in range(256)]
