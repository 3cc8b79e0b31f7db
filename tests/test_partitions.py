import random
from collections import Counter
from itertools import combinations

import pytest

from grundylab.families import set_partition_poset
from grundylab.games import ruler_family, solve_elementwise
from grundylab.nimber import mex
from grundylab.partitions import (
    H_ROW,
    decompositions,
    g_of_type,
    h_sequence,
    iter_partitions,
    multiplicity_M,
    option_sums,
    partitions_of,
    s_of_mu,
)
from helpers import leq, minimum, refinement_poset, refines, restricted_growth_strings, rgs_to_blocks

H_TABLE = list(H_ROW)


def bell(n):
    row = [1]
    for _ in range(n):
        new = [row[-1]]
        for v in row:
            new.append(new[-1] + v)
        row = new
    return row[0]


def test_partitions_of():
    assert partitions_of(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    counts = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    for n, c in enumerate(counts):
        assert len(partitions_of(n)) == c


def test_iter_partitions_is_lazy_and_matches_partitions_of():
    for n in range(0, 13):
        assert tuple(iter_partitions(n)) == partitions_of(n)
        assert len(set(partitions_of(n))) == len(partitions_of(n))
        assert all(sum(p) == n and list(p) == sorted(p, reverse=True) for p in partitions_of(n))
    first = next(iter_partitions(1000))
    assert first == (1000,)


def test_refines_examples():
    assert refines((5, 5, 1), (6, 5))
    assert not refines((5, 5, 1), (7, 4))
    for lam in partitions_of(6):
        assert refines(lam, lam)
        assert refines((1,) * 6, lam)
        assert refines(lam, (6,))


def test_decompositions_worked_example():
    got = decompositions((4, 2), (2, 2, 1, 1))
    assert sorted(got) == sorted([((2, 2), (1, 1)), ((2, 1, 1), (2,))])
    assert decompositions((3, 1), (2, 1, 1)) == [((2, 1), (1,))]
    for lam in partitions_of(5):
        assert decompositions(lam, lam) == [tuple((p,) for p in lam)]
    assert decompositions((7, 4), (5, 5, 1)) == []


def test_decompositions_components_recombine():
    for lam in partitions_of(7):
        for mu in partitions_of(7):
            for nu in decompositions(lam, mu):
                assert tuple(sorted((sum(c) for c in nu), reverse=True)) == lam
                merged = []
                for c in nu:
                    merged.extend(c)
                assert tuple(sorted(merged, reverse=True)) == mu
            seen = set(decompositions(lam, mu))
            assert len(seen) == len(decompositions(lam, mu))


@pytest.mark.parametrize("n", range(1, 9))
def test_decompositions_are_complete(n):
    # independent reference: group the parts of mu by every restricted
    # growth string, and bucket each canonical grouping by its sums
    for mu in partitions_of(n):
        expected = {lam: set() for lam in partitions_of(n)}
        for rgs in restricted_growth_strings(len(mu)):
            groups = [[] for _ in range(max(rgs) + 1)]
            for part, g in zip(mu, rgs):
                groups[g].append(part)
            groups = [tuple(sorted(c, reverse=True)) for c in groups]
            lam = tuple(sorted((sum(c) for c in groups), reverse=True))
            expected[lam].add(tuple(sorted(groups, key=lambda c: (sum(c), c), reverse=True)))
        for lam in partitions_of(n):
            assert set(decompositions(lam, mu)) == expected[lam], (lam, mu)


def test_multiplicity_worked_values():
    mu = (2, 1, 1)
    assert multiplicity_M((2, 1, 1), mu) == 1
    assert multiplicity_M((3, 1), mu) == 2
    assert multiplicity_M((2, 2), mu) == 1
    with pytest.raises(ValueError, match=r"^\|\(3,\)\| != \|\(2, 1, 1\)\|$"):
        multiplicity_M((3,), (2, 1, 1))


def brute_count_above(n, lam, pi_rgs):
    pi_blocks = rgs_to_blocks(pi_rgs)
    count = 0
    for tau in restricted_growth_strings(n):
        if tuple(sorted(Counter(tau).values(), reverse=True)) != lam:
            continue
        tau_owner = {}
        for i, b in enumerate(tau):
            tau_owner[i + 1] = b
        if all(len({tau_owner[e] for e in block}) == 1 for block in pi_blocks):
            count += 1
    return count


def test_multiplicity_against_brute_force_counts():
    rng = random.Random(0)
    for n in range(1, 7):
        by_type = {}
        for rgs in restricted_growth_strings(n):
            by_type.setdefault(tuple(sorted(Counter(rgs).values(), reverse=True)), []).append(rgs)
        for mu, reps in by_type.items():
            chosen = reps if len(reps) <= 3 else rng.sample(reps, 3)
            for lam in partitions_of(n):
                expected = multiplicity_M(lam, mu)
                for pi in chosen:
                    assert brute_count_above(n, lam, pi) == expected


def test_sum_over_singletons_is_bell():
    for n in range(1, 9):
        total = sum(multiplicity_M(lam, (1,) * n) for lam in partitions_of(n))
        assert total == bell(n)


def test_g_of_type():
    h = [0, 1, 2, 1, 4]
    assert g_of_type((1, 1, 1), h) == 1
    assert g_of_type((2, 2), h) == 3
    assert g_of_type((2, 1, 1), h) == 2
    assert g_of_type((4,), h) == 4


def test_s_of_mu_worked_example():
    h = [0, 1, 2, 1]
    assert s_of_mu(4, (4,), h) == 0
    assert s_of_mu(4, (2, 1, 1), h) == 1
    assert s_of_mu(4, (1, 1, 1, 1), h) == 2
    got = [s_of_mu(4, mu, h) for mu in partitions_of(4)]
    assert got == [0, 1, 3, 1, 2]


def test_h_sequence_table():
    h = h_sequence(12)
    assert h[1:] == H_TABLE[:12]
    assert h[4] == 4


def test_dp_option_sums_match_the_recurrence():
    """The block-multiset DP gives the paper's s_n(mu) for every mu, n <= 10.

    F(mu), the nim-sum over all coarsenings, is s_n(mu) plus the top
    coarsening's h(n)."""
    h = [0] + H_TABLE[:10]
    coarse = {(): 1}
    for n in range(1, 11):
        got = dict(option_sums(n, h, coarse))
        assert list(got) == list(partitions_of(n))
        for mu, s in got.items():
            assert s == s_of_mu(n, mu, h), (n, mu)
            coarse[mu] = s ^ h[n]


def test_h_sequence_matches_the_literal_mex_loop(top=12):
    h = [0, 1]
    for n in range(2, top + 1):
        h.append(mex(s_of_mu(n, mu, h) for mu in partitions_of(n)))
    assert h_sequence(top) == h


@pytest.mark.deep
def test_h_sequence_matches_the_literal_mex_loop_to_14():
    # the paper's M_n recurrence, by the literal mex over s_of_mu
    test_h_sequence_matches_the_literal_mex_loop(14)


def test_h_sequence_past_the_paper_table():
    h = h_sequence(24)
    assert h[1:18] == H_TABLE
    assert h[18:] == [1, 11, 26, 92, 21, 256, 95]


def test_h_matches_ruler_solver_on_set_partitions():
    h = h_sequence(5)
    for n in range(1, 6):
        p = set_partition_poset(n)
        table = solve_elementwise(ruler_family(p))
        assert table.values[p.maximum()] == h[n]


def test_grundy_values_constant_on_type_classes():
    h = h_sequence(5)
    for n in range(2, 6):
        p = set_partition_poset(n)
        table = solve_elementwise(ruler_family(p))
        rgs_list = list(restricted_growth_strings(n))
        for i, rgs in enumerate(rgs_list):
            lam = tuple(sorted(Counter(rgs).values(), reverse=True))
            if lam == (n,):
                assert table.values[p.ids[i]] == h[n]
            else:
                assert table.values[p.ids[i]] == g_of_type(lam, h)


def test_refinement_poset_is_valid_partial_order():
    # the poset is built from part merges; `refines` (a decomposition
    # search) is the independent relation its masks are checked against
    for n in range(1, 13):
        p = refinement_poset(n)
        pars = partitions_of(n)
        ids = p.ids
        assert p.n == len(pars) and [p.labels[x] for x in ids] == list(pars)
        for y in range(p.n):
            expect = sum(1 << ids[x] for x in range(p.n) if refines(pars[x], pars[y]))
            assert p.down_mask(ids[y]) == expect
        merges = set()
        for x, lam in enumerate(pars):
            for a, b in combinations(range(len(lam)), 2):
                rest = [v for k, v in enumerate(lam) if k not in (a, b)]
                merges.add((x, pars.index(tuple(sorted(rest + [lam[a] + lam[b]], reverse=True)))))
        assert {(ids[x], ids[y]) for x, y in merges} == set(p.covers())
    p4 = refinement_poset(4)
    labels = p4.labels
    idx = {lam: i for i, lam in enumerate(labels)}
    assert set(p4.covers()) == {
        (idx[(1, 1, 1, 1)], idx[(2, 1, 1)]),
        (idx[(2, 1, 1)], idx[(3, 1)]),
        (idx[(2, 1, 1)], idx[(2, 2)]),
        (idx[(3, 1)], idx[(4,)]),
        (idx[(2, 2)], idx[(4,)]),
    }
    assert p4.labels[p4.maximum()] == (4,)
    assert p4.labels[minimum(p4)] == (1, 1, 1, 1)


def test_type_map_is_order_preserving():
    for n in range(2, 7):
        p = set_partition_poset(n)
        types = [tuple(sorted(Counter(r).values(), reverse=True)) for r in restricted_growth_strings(n)]
        for i in range(p.n):
            for j in range(p.n):
                if leq(p, p.ids[i], p.ids[j]):
                    assert refines(types[i], types[j])
