"""Posets, maps and checks that several test modules share.

The library has no caller for any of them: they build the test cases
(antichains, products, the refinement order on integer partitions), state
the relations the tests compare against, check a theorem on a solved
game, or read a child process's peak memory.  Import them as
`from helpers import ...`; pytest puts this directory on `sys.path`.
"""

import json

from grundylab.games import solve_elementwise
from grundylab.partitions import decompositions, partitions_of
from grundylab.poset import FinitePoset, iter_bits

# Runs its argv as a child and prints the child's exit code and ru_maxrss.
# A child's peak RSS includes the image of the process that started it, so
# the memory tests start this small launcher rather than the program itself.
RSS_LAUNCHER = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""

# -- posets -----------------------------------------------------------------


def antichain(n):
    return FinitePoset.from_covers(n, [], labels=list(range(1, n + 1)))


def product(p, q):
    """Componentwise order on pairs; (a, b) gets id a * q.n + b.

    (a, b) is covered by (c, b) when a is covered by c, and by (a, d) when
    b is covered by d."""
    n2 = q.n
    covers = [(a * n2 + b, c * n2 + b) for a, c in p.covers() for b in range(n2)]
    covers += [(a * n2 + b, a * n2 + d) for a in range(p.n) for b, d in q.covers()]
    labels = None
    if p.labels is not None and q.labels is not None:
        labels = [(la, lb) for la in p.labels for lb in q.labels]
    return FinitePoset.from_covers(p.n * n2, covers, labels=labels)


def refines(mu, lam):
    """True when the parts of lam split into groups of parts of mu, every
    part of mu used once."""
    return bool(decompositions(lam, mu))


def refinement_poset(n):
    """Par_n under refinement, labeled by the partitions.

    A cover merges two parts: the part count drops by exactly one, so every
    merge is a cover, and merges generate the order."""
    pars = partitions_of(n)
    index = {lam: i for i, lam in enumerate(pars)}
    covers = []
    for i, lam in enumerate(pars):
        for b in range(1, len(lam)):
            for a in range(b):
                merged = lam[:a] + lam[a + 1 : b] + lam[b + 1 :] + (lam[a] + lam[b],)
                covers.append((i, index[tuple(sorted(merged, reverse=True))]))
    return FinitePoset.from_covers(len(pars), covers, labels=pars)


# -- queries ----------------------------------------------------------------


def leq(p, i, j):
    return bool(p.down_mask(j) >> i & 1)


def principal_ideal(p, x):
    return frozenset(iter_bits(p.down_mask(x)))


def minimum(p):
    """The unique minimal element, else None: in a finite poset it is the minimum."""
    mins = [x for x in range(p.n) if p.down_mask(x) == 1 << x]
    return mins[0] if len(mins) == 1 else None


def rank_function(p):
    """Ranks if the poset is graded (0 on minimal elements, +1 along
    covers), else None.  Consistency is checked on the cover DAG."""
    rank = [0] * p.n
    lower = [[] for _ in range(p.n)]
    for c, x in p.covers():
        lower[x].append(c)
    for x in range(p.n):  # ids are a linear extension
        if lower[x]:
            rank[x] = 1 + max(rank[c] for c in lower[x])
    graded = all(rank[x] == rank[c] + 1 for x in range(p.n) for c in lower[x])
    return rank if graded else None


def caller_ids(p):
    """The inverse of `p.ids`: the caller's id of each element."""
    inv = [0] * p.n
    for i, x in enumerate(p.ids):
        inv[x] = i
    return inv


def to_json(p):
    """The poset as `FinitePoset.from_json` reads it, in the caller's ids:
    its covers, and its labels as strings."""
    inv = caller_ids(p)
    obj = {
        "n": p.n,
        "covers": sorted([inv[x], inv[y]] for x, y in p.covers()),
        "labels": [str(p.labels[x]) for x in p.ids],
    }
    return json.dumps(obj, sort_keys=True)


# -- the ASM poset's automorphisms ------------------------------------------


def asm_xi(n, e):
    """Order automorphism swapping x and y; an involution."""
    x, y, z = e
    return (y, x, z)


def asm_eta(n, e):
    """Order automorphism replacing z by n - 2 - (x + y + z); an involution."""
    x, y, z = e
    return (x, y, n - 2 - (x + y + z))


# -- theorems ---------------------------------------------------------------


def assert_grundy_respects_isomorphism(p1, f1, p2, f2, mapping):
    """g1(x) == g2(mapping[x]) for every x, once `mapping` is shown to be an
    order-preserving bijection that carries the family f1 onto f2."""
    n = p1.n
    assert p2.n == n and sorted(mapping) == list(range(n))
    for i in range(n):
        for j in iter_bits(p1.down_mask(i)):
            assert leq(p2, mapping[j], mapping[i]), (j, i)
    assert sorted(sum(1 << mapping[t] for t in iter_bits(m)) for m in f1.masks) == sorted(f2.masks)
    g1, g2 = solve_elementwise(f1).values, solve_elementwise(f2).values
    assert [g2[mapping[x]] for x in range(n)] == g1
