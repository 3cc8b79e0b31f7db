import pytest

from grundylab.cli import parse_poset_spec
from grundylab.errors import TooLargeError
from grundylab.families import (
    asm_elements,
    asm_pi,
    asm_poset,
    chain,
    divisor_poset,
    q_binomial,
    q_binomial_parity,
    set_partition_poset,
    subspace_dimensions,
    subspace_lattice,
)
from grundylab.poset import FinitePoset
from helpers import (
    asm_eta,
    asm_leq,
    asm_xi,
    leq,
    minimum,
    principal_ideal,
    rank_function,
    restricted_growth_strings,
    rgs_to_blocks,
)


def test_chain_basics():
    c1 = chain(1)
    assert c1.n == 1 and c1.covers() == []
    c7 = chain(7)
    assert len(c7.covers()) == 6
    assert rank_function(c7) == list(range(7))


def test_divisor_poset_examples():
    d12 = divisor_poset(12)
    assert d12.labels == [1, 2, 3, 4, 6, 12]
    for p in (2, 3, 5, 7):
        dp = divisor_poset(p)
        assert dp.n == 2
        assert dp.covers() == [(0, 1)]


def test_subspace_lattice_b32():
    p = subspace_lattice(3, 2)
    assert p.n == 16
    dims = subspace_dimensions(3, 2)
    assert [dims.count(r) for r in range(4)] == [1, 7, 7, 1]
    assert p.labels[minimum(p)] == "0"
    ranks = rank_function(p)
    assert ranks == dims


@pytest.mark.parametrize("n, q", [(4, 2), (3, 3), (3, 4), (2, 9)])
def test_subspace_lattice_covers_go_up_one_dimension(monkeypatch, n, q):
    edges = []
    build = FinitePoset.from_covers

    def spy(size, covers, labels=None):
        edges.extend(covers)
        return build(size, covers, labels=labels)

    monkeypatch.setattr(FinitePoset, "from_covers", spy)
    p = subspace_lattice(n, q)
    dims = subspace_dimensions(n, q)
    assert edges and all(dims[j] == dims[i] + 1 for i, j in edges)
    # each k-space lies in [n - k, 1]_q spaces of dimension k + 1
    count = sum(q_binomial(n, k, q) * q_binomial(n - k, 1, q) for k in range(n + 1))
    assert len(p.covers()) == len(edges) == count


def test_subspace_lattice_size_guard():
    # The element cap on subspaces:N:Q is checked from the q-binomial count
    # in parse_poset_spec, before any subspace is enumerated.
    with pytest.raises(TooLargeError, match=r"67 elements \(cap 10\)"):
        parse_poset_spec("subspaces:4:2", max_elements=10)
    assert parse_poset_spec("subspaces:4:2", max_elements=67).n == 67


def test_set_partition_poset_size_guard():
    # The element cap on setpartitions:N is checked from the Bell number in
    # parse_poset_spec; the constructor has no cap of its own.
    with pytest.raises(TooLargeError, match=r"203 elements \(cap 202\)"):
        parse_poset_spec("setpartitions:6", max_elements=202)
    assert parse_poset_spec("setpartitions:6", max_elements=203).n == 203


def test_rgs_enumeration():
    all3 = list(restricted_growth_strings(3))
    assert all3 == [(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1), (0, 1, 2)]
    bells = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203}
    for n, b in bells.items():
        assert sum(1 for _ in restricted_growth_strings(n)) == b


def test_rgs_block_round_trip():
    for rgs in restricted_growth_strings(5):
        blocks = rgs_to_blocks(rgs)
        # block r[i-1] holds i, and the blocks are ordered by least element
        assert tuple(next(k for k, b in enumerate(blocks) if i in b) for i in range(1, 6)) == rgs
        assert sorted(e for b in blocks for e in b) == [1, 2, 3, 4, 5]
        assert all(list(b) == sorted(b) for b in blocks)
        assert [b[0] for b in blocks] == sorted(b[0] for b in blocks)


def tuple_set_partition_poset(n):
    """Pi_n built from the tuple oracle: `restricted_growth_strings` for the
    elements, `rgs_to_blocks` for the labels, and each cover as the merge of
    block b into an earlier block a (b becomes a, later blocks move down)."""
    elems = list(restricted_growth_strings(n))
    index = {r: i for i, r in enumerate(elems)}
    covers = [
        (i, index[tuple(a if v == b else v - (v > b) for v in r)])
        for i, r in enumerate(elems)
        for b in range(1, max(r) + 1)
        for a in range(b)
    ]
    labels = ["|".join(",".join(map(str, b)) for b in rgs_to_blocks(r)) for r in elems]
    return FinitePoset.from_covers(len(elems), covers, labels=labels)


@pytest.mark.parametrize("n", range(1, 9))
def test_set_partition_poset_matches_the_tuple_oracle(n):
    p, q = set_partition_poset(n), tuple_set_partition_poset(n)
    assert p.labels == q.labels
    assert p.preds == q.preds
    assert [p.down_mask(x) for x in range(p.n)] == [q.down_mask(x) for x in range(q.n)]


def test_set_partition_poset():
    p4 = set_partition_poset(4)
    assert p4.n == 15
    bottom, top = minimum(p4), p4.maximum()
    assert p4.labels[bottom] == "1|2|3|4"
    assert p4.labels[top] == "1,2,3,4"
    ranks = rank_function(p4)
    for x in range(p4.n):
        blocks = p4.labels[x].count("|") + 1
        assert ranks[x] == 4 - blocks
    # {{1},{3},{2,4}} refines {{1,3},{2,4}}
    fine = p4.labels.index("1|2,4|3")
    coarse = p4.labels.index("1,3|2,4")
    assert leq(p4, fine, coarse)
    assert not leq(p4, coarse, fine)
    for n in (0, -2):
        with pytest.raises(ValueError):
            set_partition_poset(n)


def test_asm_element_counts():
    # |A_n| = C(n+1, 3)
    from math import comb

    for n in range(2, 9):
        assert len(asm_elements(n)) == comb(n + 1, 3)
    assert len(asm_elements(4)) == 10


def test_asm_cover_example():
    p5 = asm_poset(5)
    a = p5.labels.index((1, 0, 2))
    b = p5.labels.index((0, 0, 3))
    assert (a, b) in p5.covers()


def test_asm_rank():
    for n in range(2, 8):
        p = asm_poset(n)
        ranks = rank_function(p)
        assert ranks is not None
        for i, (x, y, z) in enumerate(p.labels):
            assert ranks[i] == n - 2 - (x + y)
            assert asm_pi(n, (x, y, z)) == (ranks[i], z)


def test_asm_covers_match_candidate_rule():
    # (x, y, z) covers each of (x+1, y, z), (x, y+1, z), (x+1, y, z-1) and
    # (x, y+1, z-1) that lies in the poset
    for n in range(2, 9):
        p = asm_poset(n)
        idx = {e: i for i, e in enumerate(p.labels)}
        expected = set()
        for x, y, z in p.labels:
            for c in ((x + 1, y, z), (x, y + 1, z), (x + 1, y, z - 1), (x, y + 1, z - 1)):
                if c in idx:
                    expected.add((idx[c], idx[(x, y, z)]))
        assert set(p.covers()) == expected
        # the poset is closed from those candidates, so check the order
        # itself against the coordinate rule
        for j, b in enumerate(p.labels):
            assert p.down_mask(j) == sum(1 << i for i, a in enumerate(p.labels) if asm_leq(a, b))


def test_asm_maps_are_involutive_order_automorphisms():
    for n in range(2, 9):
        elems = asm_elements(n)
        for f in (asm_xi, asm_eta):
            imgs = [f(n, e) for e in elems]
            assert sorted(imgs) == elems
            for e in elems:
                assert f(n, f(n, e)) == e
            for a in elems:
                for b in elems:
                    if asm_leq(a, b):
                        assert asm_leq(f(n, a), f(n, b))


def test_asm_pi_examples():
    assert asm_pi(5, (1, 0, 2)) == (2, 2)
    for n in range(2, 8):
        for e in asm_elements(n):
            s, t = asm_pi(n, e)
            assert 0 <= t <= s <= n - 2
            assert asm_pi(n, asm_eta(n, e)) == (s, s - t)
    with pytest.raises(ValueError, match=r"^\(4, 0, 0\) is not in the poset for n=5$"):
        asm_pi(5, (4, 0, 0))


def test_asm_principal_ideal_inequality_description():
    for n in range(2, 8):
        p = asm_poset(n)
        for i, (x0, y0, z0) in enumerate(p.labels):
            ideal = {p.labels[t] for t in principal_ideal(p, i)}
            expected = {
                (x, y, z)
                for (x, y, z) in p.labels
                if x >= x0 and y >= y0 and z <= z0
                and x0 + y0 + z0 <= x + y + z <= n - 2
            }
            assert ideal == expected


def test_asm_ideal_fiber_sizes():
    # within a principal ideal, each (rank, z) fiber on its support has
    # exactly rank(top) - rank + 1 elements, independent of z
    for n in range(2, 8):
        p = asm_poset(n)
        for i, e0 in enumerate(p.labels):
            r0, s0 = asm_pi(n, e0)
            fibers = {}
            for t in principal_ideal(p, i):
                fibers.setdefault(asm_pi(n, p.labels[t]), 0)
                fibers[asm_pi(n, p.labels[t])] += 1
            support = {
                (r, s)
                for r in range(n - 1)
                for s in range(r + 1)
                if 0 <= s <= s0 and 0 <= r - s <= r0 - s0
            }
            assert set(fibers) == support
            for (r, s), size in fibers.items():
                assert size == r0 - r + 1


def test_q_binomial():
    for q in (2, 3, 4, 5):
        assert q_binomial(0, 0, q) == 1
        assert q_binomial(2, 1, q) == 1 + q
        assert q_binomial(4, 2, q) == (1 + q + q * q) * (1 + q * q)
        for n in range(8):
            assert q_binomial(n, 0, q) == q_binomial(n, n, q) == 1
            assert q_binomial(n, n + 1, q) == 0
    # the product formula against the q-Pascal recurrence
    for q in (2, 3, 4, 5, 7, 9, 16, 32):
        for n in range(1, 40):
            for r in range(1, n):
                assert q_binomial(n, r, q) == (
                    q_binomial(n - 1, r - 1, q) + q**r * q_binomial(n - 1, r, q)
                )


def test_q_binomial_parity():
    for q in (2, 4, 8, 16):
        for n in range(10):
            for r in range(n + 1):
                assert q_binomial_parity(n, r, q) == 1
                assert q_binomial(n, r, q) % 2 == 1
    for q in (3, 5, 7, 9):
        for n in range(12):
            for r in range(-1, n + 2):
                assert q_binomial_parity(n, r, q) == q_binomial(n, r, q) % 2


def test_q_binomial_parity_matches_exact_values_up_to_n_89():
    for q in (2, 3, 4, 5, 9):
        row = [1]  # [n, r]_q for r = 0..n, by the q-Pascal rule
        for n in range(90):
            assert [q_binomial_parity(n, r, q) for r in range(n + 1)] == [v % 2 for v in row]
            row = [1] + [row[r - 1] + q**r * row[r] for r in range(1, n + 1)] + [1]
