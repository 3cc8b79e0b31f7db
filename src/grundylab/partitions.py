"""Integer partitions under refinement, and the ruler on set partitions.

The Grundy value of a set partition in the interval game depends only on its
type (the partition of block sizes), and the value of a type is the
nim-product of the values of its parts.  That reduces the whole game to the
sequence h(n) = value of the one-block partition.  The paper computes it by

    h(n) = mex { s_n(mu) : mu in Par_n }
    s_n(mu) = nim-sum over types lam in [mu, (n)) of M_n(lam, mu) * g_n(lam)

where M_n(lam, mu) counts the set partitions of type lam above a fixed one
of type mu, and m * a means a nim-added to itself m times (so only the
parity of M matters).  `s_of_mu` and `multiplicity_M` implement that
recurrence literally and serve as the oracle.  They count the coarsenings
of a fixed set partition of type mu from the definition: its blocks are
taken in order, and each opens a new group or joins one made so far.

`h_sequence` evaluates the same sums by a DP over block multisets (the
exponential formula, Stanley EC2 5.1).  Fix a set partition of type S and
let F(S) be the nim-sum, over all its coarsenings, of the nim-product of h
over the group sizes.  Grouping by the group that holds the first block S0,

    F(S) = nim-sum over T of [odd] h(S0 + |T|) (x) F(S - S0 - T),  F(()) = 1,

where T runs over the sub-multisets of the remaining blocks.  Taking t_i of
the c_i blocks of size p_i can be done in prod C(c_i, t_i) ways, and by
Lucas' theorem that count is odd exactly when t_i & c_i == t_i for every i;
nim arithmetic has characteristic 2, so only those T contribute.  s_n(mu) is
the same sum without the top coarsening T = "all remaining blocks", so once
h(n) is known, F(mu) = s_n(mu) + h(n) for every mu of weight n, and the memo
F, keyed by the partition tuples, is shared by every n and dies with the
call.  It holds one entry per partition of every n <= n_max, which
`count_partitions_up_to` counts before the CLI starts the DP.

Partitions are plain tuples of parts in weakly decreasing order.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import groupby

from .nimber import mex, nim_mul, nim_product

# the paper's h(1..17), the ruler values of the one-block set partitions
H_ROW = (1, 2, 1, 4, 1, 2, 1, 7, 15, 16, 8, 5, 19, 5, 37, 17, 14)


def iter_partitions(n: int):
    """Partitions of n as weakly decreasing tuples, lazily, in reverse
    lexicographic order starting from (n,)."""
    if n == 0:
        yield ()
        return
    parts = [n]
    while True:
        yield tuple(parts)
        ones = 0
        while parts and parts[-1] == 1:
            parts.pop()
            ones += 1
        if not parts:
            return
        k = parts[-1] - 1
        parts[-1] = k
        q, r = divmod(ones + 1, k)
        parts.extend([k] * q)
        if r:
            parts.append(r)


@lru_cache(maxsize=None)
def partitions_of(n: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of n, in the order of `iter_partitions`."""
    return tuple(iter_partitions(n))


def _coarsenings(mu) -> Counter:
    """The coarsenings of a fixed set partition of type mu, counted by
    type: entry lam is M_n(lam, mu).  A state is the sorted tuple of the
    sizes of the groups made so far, with the number of groupings of the
    blocks taken so far that reach it."""
    states = Counter({(): 1})
    for p in mu:
        grown = Counter()
        for groups, ways in states.items():
            grown[tuple(sorted(groups + (p,), reverse=True))] += ways
            for i, size in enumerate(groups):
                joined = groups[:i] + (size + p,) + groups[i + 1 :]
                grown[tuple(sorted(joined, reverse=True))] += ways
        states = grown
    return states


def multiplicity_M(lam, mu) -> int:
    """Number of set partitions of type lam lying above any fixed set
    partition of type mu; zero unless mu refines lam."""
    if sum(lam) != sum(mu):
        raise ValueError(f"|{lam}| != |{mu}|")
    return _coarsenings(mu)[tuple(sorted(lam, reverse=True))]


def g_of_type(lam, h) -> int:
    """Grundy value of any set partition of type lam: the nim-product of
    h over the parts."""
    return nim_product(h[p] for p in lam)


def s_of_mu(n: int, mu, h) -> int:
    """Option nim-sum for the turning set below the one-block partition
    anchored at a partition of type mu: nim-sum of M_n(lam, mu) * g_n(lam)
    over types lam above mu, the top type (n) excluded."""
    acc = 0
    for lam, count in _coarsenings(mu).items():
        if count & 1 and lam != (n,):
            acc ^= g_of_type(lam, h)
    return acc


def option_sums(n: int, h, coarse):
    """Yield (mu, s_n(mu)) for every mu in Par_n, lazily, by the block
    multiset DP; `coarse` must map every partition of weight < n to F."""
    for mu in iter_partitions(n):
        # (weight joined to the first block, blocks left) for every T with
        # an odd number of choices, built one part size at a time
        choices = [(0, ())]
        for p, run in groupby(mu[1:]):
            c = len(tuple(run))
            picks = [(t * p, (p,) * (c - t)) for t in range(c + 1) if t & c == t]
            choices = [(w + tw, rest + left) for w, rest in choices for tw, left in picks]
        first = mu[0]
        acc = 0
        for w, rest in choices:
            if rest:
                acc ^= nim_mul(h[first + w], coarse[rest])
        yield mu, acc


def count_partitions_up_to(n_max: int, cap: int) -> int:
    """p(1) + ... + p(n_max), the partitions `h_sequence(n_max)` visits, by
    Euler's pentagonal recurrence; it stops at the first running total over
    `cap` and returns that total, so the cap bounds its cost, however large
    n_max is."""
    p = [1]
    total = 0
    for n in range(1, n_max + 1):
        pn, k = 0, 1
        while (g := k * (3 * k - 1) // 2) <= n:  # the pentagonal numbers g and g + k
            sign = 1 if k & 1 else -1
            pn += sign * (p[n - g] + (p[n - g - k] if g + k <= n else 0))
            k += 1
        p.append(pn)
        total += pn
        if total > cap:
            break
    return total


def h_sequence(n_max: int) -> list[int]:
    """h(1..n_max), indexable by n (index 0 is unused)."""
    h = [0]
    coarse = {(): 1}
    for n in range(1, n_max + 1):
        sums = dict(option_sums(n, h, coarse))
        hn = mex(sums.values())
        h.append(hn)
        for mu, s in sums.items():
            coarse[mu] = s ^ hn
    return h
