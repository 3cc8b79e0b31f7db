"""Integer partitions under refinement, and the ruler on set partitions.

The Grundy value of a set partition in the interval game depends only on its
type (the partition of block sizes), and the value of a type is the
nim-product of the values of its parts.  That reduces the whole game to the
sequence h(n) = value of the one-block partition.  The paper computes it by

    h(n) = mex { s_n(mu) : mu in Par_n }
    s_n(mu) = nim-sum over types lam in [mu, (n)) of M_n(lam, mu) * g_n(lam)

where M_n(lam, mu) counts the set partitions of type lam above a fixed one
of type mu, and m * a means a nim-added to itself m times (so only the
parity of M matters).  `s_of_mu`, `multiplicity_M` and `decompositions`
implement that recurrence literally and serve as the oracle;
`decompositions` draws every component from `partitions_of`, the one
partition enumerator here.

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
from math import factorial

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


@lru_cache(maxsize=None)
def _counted_partitions(n: int) -> tuple[tuple[tuple[int, ...], Counter], ...]:
    """Each partition of `partitions_of(n)` with the Counter of its parts;
    read-only, shared by every `decompositions` call."""
    return tuple((comp, Counter(comp)) for comp in partitions_of(n))


def decompositions(lam, mu) -> list[tuple[tuple[int, ...], ...]]:
    """All ways to write mu as a multiset union of sub-partitions, one of
    weight lam_i per part of lam, as canonical multisets.

    Parts of lam are matched in decreasing order, each to a partition from
    `partitions_of` whose parts are still unused in mu; inside a run of
    equal parts the components are forced weakly decreasing, so each
    multiset appears exactly once and no dedup pass is needed.
    """
    if sum(mu) != sum(lam):
        return []
    lam = sorted(lam, reverse=True)
    results: list[tuple[tuple[int, ...], ...]] = []

    def rec(i, left, acc):
        if i == len(lam):
            results.append(acc)
            return
        for comp, use in _counted_partitions(lam[i]):
            if use <= left and not (i and lam[i] == lam[i - 1] and comp > acc[-1]):
                rec(i + 1, left - use, acc + (comp,))

    rec(0, Counter(mu), ())
    return results


def _mult_factorial(part) -> int:
    out = 1
    for c in Counter(part).values():
        out *= factorial(c)
    return out


def multiplicity_M(lam, mu) -> int:
    """Number of set partitions of type lam lying above any fixed set
    partition of type mu; zero unless mu refines lam.

    Each decomposition nu contributes the multinomial of mu's part
    multiplicities over the component part multiplicities, divided by the
    multiplicities of repeated components.
    """
    if sum(lam) != sum(mu):
        raise ValueError(f"|{lam}| != |{mu}|")
    total = 0
    numerator = _mult_factorial(mu)
    for nu in decompositions(lam, mu):
        denom = _mult_factorial(nu)
        for comp in nu:
            denom *= _mult_factorial(comp)
        total += numerator // denom
    return total


def g_of_type(lam, h) -> int:
    """Grundy value of any set partition of type lam: the nim-product of
    h over the parts."""
    return nim_product(h[p] for p in lam)


def s_of_mu(n: int, mu, h) -> int:
    """Option nim-sum for the turning set below the one-block partition
    anchored at a partition of type mu: nim-sum of M_n(lam, mu) * g_n(lam)
    over types lam above mu, the top type (n) excluded."""
    acc = 0
    for lam in partitions_of(n):
        if lam == (n,):
            continue
        if multiplicity_M(lam, mu) & 1:
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
