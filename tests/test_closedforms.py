from functools import reduce
from operator import xor

import pytest

from grundylab.closedforms import (
    asm_ideal_grundy,
    divisor_ruler_grundy,
    ruler_mex_characterization,
    subspace_recurrence,
    subspace_ruler_grundy,
    suffix_nim_sum_set,
)
from grundylab.families import (
    asm_pi,
    asm_poset,
    chain,
    divisor_poset,
    set_partition_poset,
    subspace_dimensions,
    subspace_lattice,
)
from grundylab.games import order_ideal_family, ruler_family, solve_elementwise
from grundylab.nimber import ruler_phi
from grundylab.poset import iter_bits
from helpers import minimum, rank_function

PHI_ROW = [1, 2, 1, 4, 1, 2, 1, 8, 1, 2, 1, 4, 1, 2, 1]


def suffix_nim_sum(m, n):
    """H(m, n): the nim-sum of the ruler values over [m, n)."""
    return reduce(xor, (ruler_phi(x) for x in range(m, n)), 0)


def test_chain_ruler_closed_form():
    assert [ruler_phi(x) for x in range(1, 16)] == PHI_ROW
    for k in range(8):
        assert ruler_phi(1 << k) == 1 << k
    got = solve_elementwise(ruler_family(chain(64))).values
    assert got == [ruler_phi(x) for x in range(1, 65)]


def test_divisor_ruler_closed_form():
    assert [divisor_ruler_grundy(12, y) for y in [1, 2, 3, 4, 6, 12]] == [1, 2, 2, 1, 3, 2]
    assert divisor_ruler_grundy(360, 1) == 1
    with pytest.raises(ValueError, match="^5 does not divide 12$"):
        divisor_ruler_grundy(12, 5)
    for n in (12, 30, 60, 360):
        p = divisor_poset(n)
        got = solve_elementwise(ruler_family(p)).values
        assert got == [divisor_ruler_grundy(n, y) for y in p.labels]


def test_subspace_ruler_closed_form_rows():
    assert [subspace_ruler_grundy(2, d) for d in range(15)] == PHI_ROW
    assert [subspace_ruler_grundy(4, d) for d in range(15)] == PHI_ROW
    odd_row = [1, 2, 3] * 5
    assert [subspace_ruler_grundy(3, d) for d in range(15)] == odd_row
    assert [subspace_ruler_grundy(5, d) for d in range(15)] == odd_row


def test_subspace_recurrence_base_cases():
    g, s = subspace_recurrence(3, 5)
    assert s[(0, 0)] == 0
    assert g[0] == 1
    assert s[(1, 1)] == 0 and s[(1, 0)] == 1
    assert g[1] == 2


def test_subspace_recurrence_matches_closed_form():
    for q in (2, 3, 4, 5):
        g, _ = subspace_recurrence(q, 60)
        assert g == [subspace_ruler_grundy(q, d) for d in range(61)]


def test_subspace_recurrence_odd_q_claim():
    # for odd q: s(d, m) is 0 when d = m mod 3, else m mod 3 + 1
    for q in (3, 5):
        _, s = subspace_recurrence(q, 40)
        for (d, m), val in s.items():
            expected = 0 if (d - m) % 3 == 0 else m % 3 + 1
            assert val == expected


def test_subspace_reduction_identity_odd_q():
    # s(d, m) = s(d, m+1) + s(d-1, m) + g(d-1) in nim arithmetic
    g, s = subspace_recurrence(3, 40)
    for d in range(1, 41):
        for m in range(d):
            assert s[(d, m)] == s[(d, m + 1)] ^ s[(d - 1, m)] ^ g[d - 1]


def test_full_solver_on_b32():
    p = subspace_lattice(3, 2)
    dims = subspace_dimensions(3, 2)
    got = solve_elementwise(ruler_family(p)).values
    assert got == [subspace_ruler_grundy(2, d) for d in dims]
    by_dim = {}
    for v, d in zip(got, dims):
        by_dim.setdefault(d, set()).add(v)
    assert by_dim == {0: {1}, 1: {2}, 2: {1}, 3: {4}}


def test_full_solver_on_small_subspace_lattices():
    for q in (2, 3):
        for n in (0, 1, 2, 3):
            p = subspace_lattice(n, q)
            dims = subspace_dimensions(n, q)
            got = solve_elementwise(ruler_family(p)).values
            assert got == [subspace_ruler_grundy(q, d) for d in dims]


def test_graded_order_ideal_closed_form():
    # on a graded poset with a unique minimum, the ideal game scores 1 at
    # the minimum and 0 everywhere else
    for p in (chain(9), divisor_poset(12), subspace_lattice(3, 2), set_partition_poset(4)):
        assert rank_function(p) is not None
        bottom = minimum(p)
        assert bottom is not None
        expect = [1 if x == bottom else 0 for x in range(p.n)]
        assert solve_elementwise(order_ideal_family(p)).values == expect


def test_order_ideal_parity_rule():
    # an element scores 1 exactly when an even number of the elements
    # strictly below it score 1
    p = asm_poset(5)
    values = solve_elementwise(order_ideal_family(p)).values
    acc = {}
    for x in range(p.n):  # ids are a linear extension
        ones = sum(acc[t] for t in iter_bits(p.down_mask(x)) if t != x)
        acc[x] = 0 if ones % 2 else 1
    assert [acc[x] for x in range(p.n)] == values


def test_asm_ideal_closed_form():
    assert asm_ideal_grundy(3, 0) == 0
    assert asm_ideal_grundy(3, 1) == 1  # rank 3 = 2z + 1
    # the formula reads a fiber: z runs over 0..rank
    for r, z in ((3, 4), (3, -1), (0, 1), (-1, 0)):
        with pytest.raises(ValueError, match=rf"^\({r}, {z}\) is not a \(rank, z\) fiber"):
            asm_ideal_grundy(r, z)
    # asm:20 and asm:30 reach ranks 18 and 28, every element of each
    for n in (*range(3, 8), 20, 30):
        p = asm_poset(n)
        got = solve_elementwise(order_ideal_family(p)).values
        ranks = rank_function(p)
        for i, e in enumerate(p.labels):
            v = asm_ideal_grundy(*asm_pi(n, e))
            assert got[i] == v
            if ranks[i] == 0:
                assert v == 1


def test_asm_ideal_constant_on_projection_fibers():
    for n in range(3, 8):
        p = asm_poset(n)
        got = solve_elementwise(order_ideal_family(p)).values
        fibers = {}
        for i, e in enumerate(p.labels):
            fibers.setdefault(asm_pi(n, e), set()).add(got[i])
        assert all(len(vals) == 1 for vals in fibers.values())


def test_suffix_nim_sums():
    assert suffix_nim_sum(3, 6) == 4
    assert suffix_nim_sum(6, 6) == 0
    assert sorted(suffix_nim_sum_set(6)) == [0, 1, 4, 5, 6, 7]
    for n in range(1, 40):
        assert suffix_nim_sum_set(n) == {suffix_nim_sum(m, n) for m in range(1, n + 1)}


def test_ruler_mex_characterization():
    failures = ruler_mex_characterization(256)
    assert not failures, failures
    # spot checks of the statements the characterization certifies
    for n in (2, 3, 7, 12, 100):
        sums = [suffix_nim_sum(m, n) for m in range(1, n + 1)]
        assert 0 not in sums[:-1]
        assert len(set(sums)) == n
    for k in range(6):
        assert suffix_nim_sum_set(1 << k) == set(range(1 << k))
    for n in (6, 24, 96):
        assert ruler_phi(n) not in suffix_nim_sum_set(n)
