"""Differential test of the closures `FinitePoset.from_covers` builds.

Every constructor only states covers, so each down mask is checked against
the family's own order relation over all pairs, read in the constructor's
own ids through `ids`, and must lie within the bits up to its element: ids
are a linear extension.  `covers()`, which filters the edges the poset was
built from, is checked against the Hasse diagram of the closed down masks.
"""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grundylab import gf
from grundylab.families import (
    asm_elements,
    asm_poset,
    chain,
    divisor_poset,
    set_partition_poset,
    subspace_lattice,
)
from grundylab.partitions import partitions_of
from grundylab.poset import FinitePoset, iter_bits
from helpers import (
    antichain,
    asm_leq,
    caller_ids,
    product,
    refinement_poset,
    refines,
    restricted_growth_strings,
    rgs_to_blocks,
    subspace_leq,
    to_json,
)


def hasse(down):
    """Covering pairs (i, j), i covered by j, of the order with these down
    masks: i < j with nothing strictly between them."""
    out = []
    for j, m in enumerate(down):
        strict = m & ~(1 << j)
        shadow = 0
        for t in iter_bits(strict):
            shadow |= down[t] & ~(1 << t)
        out.extend((i, j) for i in iter_bits(strict & ~shadow))
    return sorted(out)


def assert_closures(p, leq):
    """`leq` is the order on the caller's ids."""
    n = p.n
    down = [p.down_mask(y) for y in range(n)]
    assert all(m >> y == 1 for y, m in enumerate(down))
    ids = p.ids
    assert sorted(ids) == list(range(n))
    assert [down[ids[y]] for y in range(n)] == [
        sum(1 << ids[x] for x in range(n) if leq(x, y)) for y in range(n)
    ]
    assert p.covers() == hasse(down)


def chain_case(n):
    return chain(n), lambda x, y: x <= y


def antichain_case(n):
    return antichain(n), lambda x, y: x == y


def divisor_case(n):
    p = divisor_poset(n)
    divs = [p.labels[x] for x in p.ids]
    return p, lambda x, y: divs[y] % divs[x] == 0


def subspace_case(n, q):
    f = gf.FiniteField(q)
    subs = [s for r in range(n + 1) for s in sorted(gf.rref_matrices(f, n, r))]
    return subspace_lattice(n, q), lambda x, y: subspace_leq(f, subs[x], subs[y])


def set_partition_case(n):
    rgs = list(restricted_growth_strings(n))

    def leq(x, y):
        return all(len({rgs[y][e - 1] for e in block}) == 1 for block in rgs_to_blocks(rgs[x]))

    return set_partition_poset(n), leq


def asm_case(n):
    elems = asm_elements(n)
    return asm_poset(n), lambda x, y: asm_leq(elems[x], elems[y])


def refinement_case(n):
    pars = partitions_of(n)
    return refinement_poset(n), lambda x, y: refines(pars[x], pars[y])


def product_case(left, right):
    """`product` pairs the parts' ids, so the parts' relations are read
    through their caller ids."""
    (p, p_leq), (q, q_leq) = left, right
    pc, qc = caller_ids(p), caller_ids(q)

    def leq(x, y):
        (a, b), (c, d) = divmod(x, q.n), divmod(y, q.n)
        return p_leq(pc[a], pc[c]) and q_leq(qc[b], qc[d])

    return product(p, q), leq


CASES = {
    "chain:1": lambda: chain_case(1),
    "chain:9": lambda: chain_case(9),
    "antichain:0": lambda: antichain_case(0),
    "antichain:6": lambda: antichain_case(6),
    "divisors:1": lambda: divisor_case(1),
    "divisors:97": lambda: divisor_case(97),
    "divisors:720720": lambda: divisor_case(720720),
    **{f"subspaces:{n}:2": (lambda n=n: subspace_case(n, 2)) for n in range(5)},
    **{f"subspaces:{n}:3": (lambda n=n: subspace_case(n, 3)) for n in range(4)},
    **{f"subspaces:{n}:4": (lambda n=n: subspace_case(n, 4)) for n in range(4)},
    # an odd prime and two prime powers, for gf.extensions' field arithmetic
    # when it clears a pivot column
    "subspaces:3:5": lambda: subspace_case(3, 5),
    "subspaces:2:8": lambda: subspace_case(2, 8),
    "subspaces:2:9": lambda: subspace_case(2, 9),
    **{f"setpartitions:{n}": (lambda n=n: set_partition_case(n)) for n in range(1, 7)},
    **{f"asm:{n}": (lambda n=n: asm_case(n)) for n in range(2, 9)},
    **{f"refinement:{n}": (lambda n=n: refinement_case(n)) for n in range(1, 9)},
    "chain:3*divisors:12": lambda: product_case(chain_case(3), divisor_case(12)),
    "antichain:2*chain:3": lambda: product_case(antichain_case(2), chain_case(3)),
    "subspaces:2:2*asm:4": lambda: product_case(subspace_case(2, 2), asm_case(4)),
    "chain:2*(chain:2*antichain:2)": lambda: product_case(
        chain_case(2), product_case(chain_case(2), antichain_case(2))
    ),
    "chain:4*antichain:0": lambda: product_case(chain_case(4), antichain_case(0)),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_constructor_closures_match_their_relation(name):
    assert_closures(*CASES[name]())


@st.composite
def cover_dags(draw):
    """Edges of a DAG on shuffled ids, duplicates and non-cover edges included."""
    n = draw(st.integers(0, 24))
    if n == 0:
        return 0, []
    perm = draw(st.permutations(range(n)))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n))
    return n, [(perm[min(a, b)], perm[max(a, b)]) for a, b in pairs if a != b]


def reachability(n, edges):
    succ = [[] for _ in range(n)]
    for i, j in edges:
        succ[i].append(j)
    reach = []
    for s in range(n):
        seen, stack = {s}, [s]
        while stack:
            for j in succ[stack.pop()]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        reach.append(seen)
    return lambda x, y: y in reach[x]


@settings(max_examples=150, deadline=None)
@given(cover_dags())
def test_random_dag_closures_match_reachability(dag):
    n, edges = dag
    leq = reachability(n, edges)
    p = FinitePoset.from_covers(n, edges)
    assert_closures(p, leq)
    inv = caller_ids(p)
    assert {(inv[x], inv[y]) for x, y in p.covers()} <= set(edges)
    q = FinitePoset.from_covers(n, p.covers())
    assert [q.down_mask(x) for x in range(n)] == [p.down_mask(x) for x in range(n)]
    assert q.covers() == p.covers()


@settings(max_examples=100, deadline=None)
@given(cover_dags())
def test_upward_edges_keep_their_ids(dag):
    n, edges = dag
    up = [(min(i, j), max(i, j)) for i, j in edges]
    assert FinitePoset.from_covers(n, up).ids == list(range(n))


@pytest.mark.parametrize("name", ["chain:9", "divisors:720720", "subspaces:3:3", "subspaces:4:2"])
def test_constructors_listed_upward_keep_their_ids(name):
    p, _ = CASES[name]()
    assert p.ids == list(range(p.n))


def test_set_partitions_and_asm_points_are_renumbered():
    # a merge makes the RGS smaller, so the first RGS, the one-block
    # partition, is the maximum and takes the last id
    p = set_partition_poset(4)
    assert p.ids != list(range(p.n))
    assert p.maximum() == p.ids[0] == p.n - 1
    assert asm_poset(5).ids != list(range(asm_poset(5).n))


# SHA-256 of `to_json(p)` as written when covers were read off the closed
# masks by the Hasse oracle above
TO_JSON_SHA256 = {
    "asm:8": (lambda: asm_poset(8), "aed5b0cee8c6932a8cd096c9ebb0633ec57f60eb89d5a0ffc6c28fd394e652e4"),
    "setpartitions:5": (
        lambda: set_partition_poset(5),
        "b3226c84ed8c7b178f259ab463890bde7a4090d2a4c919546ecce45826dd52ba",
    ),
    "subspaces:3:2": (
        lambda: subspace_lattice(3, 2),
        "b6af0052ae1dfa35abdfb248cd50426bc16f7487a63ab2c9e1a2c0776b883962",
    ),
    "divisors:360": (lambda: divisor_poset(360), "d0395be6cee87acecfba45d34039b8b120496457f586718cbcf2a711110f393f"),
}


@pytest.mark.parametrize("name", sorted(TO_JSON_SHA256))
def test_to_json_is_unchanged(name):
    build, digest = TO_JSON_SHA256[name]
    assert hashlib.sha256(to_json(build()).encode()).hexdigest() == digest
