import json
import random

import pytest

from grundylab.families import chain, divisor_poset
from grundylab.games import ruler_family
from grundylab.poset import FinitePoset, iter_bits
from helpers import antichain, leq, minimum, principal_ideal, product, rank_function, to_json


def random_poset(n, rng, p=0.3):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return FinitePoset.from_covers(n, edges)


def test_chain_covers():
    assert chain(3).covers() == [(0, 1), (1, 2)]
    assert antichain(3).covers() == []


def test_divisor_covers_brute_force():
    d12 = divisor_poset(12)
    divs = d12.labels
    expected = set()
    for i, a in enumerate(divs):
        for j, b in enumerate(divs):
            if a != b and b % a == 0:
                if not any(
                    c != a and c != b and c % a == 0 and b % c == 0 for c in divs
                ):
                    expected.add((i, j))
    assert set(d12.covers()) == expected
    assert len(expected) == 7
    assert (divs.index(4), divs.index(12)) in expected
    assert (divs.index(6), divs.index(12)) in expected


def test_principal_ideal():
    c4 = chain(4)
    assert {c4.labels[t] for t in principal_ideal(c4, 2)} == {1, 2, 3}
    d12 = divisor_poset(12)
    six = d12.labels.index(6)
    assert {d12.labels[t] for t in principal_ideal(d12, six)} == {1, 2, 3, 6}
    d30 = divisor_poset(30)
    assert principal_ideal(d30, d30.labels.index(1)) == {d30.labels.index(1)}


def intervals(p, y):
    """The ruler's bucket of y as {x: members of [x, y]}, keyed by the x in
    down(y) in the order the bucket lists its intervals."""
    bucket = ruler_family(p).bucket(y)
    return {x: set(iter_bits(m)) for x, m in zip(iter_bits(p.down_mask(y)), bucket, strict=True)}


def interval(p, x, y):
    """Members of [x, y] as the ruler game reads them; empty unless x <= y."""
    return intervals(p, y).get(x, set())


def test_interval():
    d12 = divisor_poset(12)
    two, twelve = d12.labels.index(2), d12.labels.index(12)
    assert {d12.labels[t] for t in interval(d12, two, twelve)} == {2, 4, 6, 12}
    assert interval(d12, two, two) == {two}
    c6 = chain(6)
    assert {c6.labels[t] for t in interval(c6, 2, 5)} == {3, 4, 5, 6}
    assert interval(d12, d12.labels.index(4), d12.labels.index(6)) == set()


def test_interval_is_ideal_meet_filter():
    rng = random.Random(7)
    for _ in range(10):
        p = random_poset(rng.randint(2, 50), rng)
        for y in range(p.n):
            got = intervals(p, y)
            for x in range(p.n):
                expect = {t for t in range(p.n) if leq(p, x, t) and leq(p, t, y)}
                assert got.get(x, set()) == expect


def test_product_isomorphic_to_divisors():
    prod = product(chain(3), chain(2))
    d12 = divisor_poset(12)
    assert prod.n == d12.n == 6
    # (a, b) -> 2^a * 3^b is an order isomorphism onto the divisors of 12
    mapping = {}
    for i, (la, lb) in enumerate(prod.labels):
        mapping[i] = d12.labels.index(2 ** (la - 1) * 3 ** (lb - 1))
    for i in range(6):
        for j in range(6):
            assert leq(prod, i, j) == leq(d12, mapping[i], mapping[j])


def test_product_unit_and_size():
    p = divisor_poset(30)
    unit = chain(1)
    prod = product(p, unit)
    assert prod.n == p.n
    for i in range(p.n):
        for j in range(p.n):
            assert leq(prod, i, j) == leq(p, i, j)
    q = chain(4)
    assert product(p, q).n == p.n * q.n


def test_product_associative_on_random_posets():
    rng = random.Random(11)
    for _ in range(5):
        p = random_poset(rng.randint(1, 5), rng)
        q = random_poset(rng.randint(1, 5), rng)
        r = random_poset(rng.randint(1, 5), rng)
        left = product(product(p, q), r)
        right = product(p, product(q, r))
        # ((a, b), c) and (a, (b, c)) flatten to the same integer id
        assert left.n == right.n
        assert all(left.down_mask(x) == right.down_mask(x) for x in range(left.n))


def test_rank_function():
    c5 = chain(5)
    assert rank_function(c5) == [0, 1, 2, 3, 4]
    # a < b < d and c < d: maximal chains of different lengths
    bad = FinitePoset.from_covers(4, [(0, 1), (1, 3), (2, 3)])
    assert rank_function(bad) is None
    d12 = divisor_poset(12)
    ranks = rank_function(d12)
    for i, j in d12.covers():
        assert ranks[j] == ranks[i] + 1
    assert [x for x in range(d12.n) if ranks[x] == 0] == [d12.labels.index(1)]


def test_linear_extension():
    # from_covers numbers the elements along a linear extension: x <= y
    # implies x <= y as ids, so down(y) lies within bits 0..y
    assert chain(4).ids == [0, 1, 2, 3]
    assert antichain(5).ids == [0, 1, 2, 3, 4]
    rng = random.Random(3)
    for _ in range(10):
        n = rng.randint(1, 30)
        perm = list(range(n))
        rng.shuffle(perm)
        edges = [(perm[i], perm[j]) for i, j in random_poset(n, rng).covers()]
        p = FinitePoset.from_covers(n, edges)
        assert sorted(p.ids) == list(range(n))
        # unlabelled elements are labelled by the caller's ids
        assert [p.labels[x] for x in p.ids] == list(range(n))
        for j in range(n):
            assert p.down_mask(j) >> j == 1
        for i, j in edges:
            assert leq(p, p.ids[i], p.ids[j]) and p.ids[i] < p.ids[j]


def test_minimum_maximum():
    assert minimum(chain(4)) == 0
    assert chain(4).maximum() == 3
    assert minimum(antichain(2)) is None
    assert antichain(2).maximum() is None
    d = divisor_poset(60)
    assert d.labels[minimum(d)] == 1
    assert d.labels[d.maximum()] == 60


def test_minimum_maximum_match_their_definition():
    rng = random.Random(11)
    posets = [FinitePoset.from_covers(0, [])]
    posets += [random_poset(rng.randint(1, 12), rng, p=rng.choice((0.2, 0.5, 0.9))) for _ in range(200)]
    for p in posets:
        below_all = [x for x in range(p.n) if all(leq(p, x, y) for y in range(p.n))]
        above_all = [x for x in range(p.n) if all(leq(p, y, x) for y in range(p.n))]
        assert minimum(p) == (below_all[0] if below_all else None)
        assert p.maximum() == (above_all[0] if above_all else None)


def test_from_covers_rejects_cycles():
    with pytest.raises(ValueError, match="^cover edges contain a cycle$"):
        FinitePoset.from_covers(3, [(0, 1), (1, 2), (2, 0)])


def test_json_round_trip():
    d12 = divisor_poset(12)
    text = to_json(d12)
    obj = json.loads(text)
    assert obj["n"] == 6
    back = FinitePoset.from_json(text)
    assert back.n == d12.n
    assert all(back.down_mask(x) == d12.down_mask(x) for x in range(6))
    assert back.labels == [str(l) for l in d12.labels]


def test_from_json_numbers_along_a_linear_extension():
    # 4 < 0 < 2 < 1 and 3 < 2: the caller's ids run against the order
    text = json.dumps({"n": 5, "covers": [[4, 0], [0, 2], [3, 2], [2, 1]]})
    p = FinitePoset.from_json(text)
    assert all(p.down_mask(y) >> y == 1 for y in range(p.n))
    assert p.ids != list(range(5))
    assert [p.labels[x] for x in p.ids] == list(range(5))
    for i, j in [(4, 0), (0, 2), (3, 2), (2, 1)]:
        assert leq(p, p.ids[i], p.ids[j])
