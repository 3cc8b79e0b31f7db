"""Posets, maps, oracles and checks that several test modules share.

The library has no caller for any of them: they build the test cases
(antichains, products, the refinement order on integer partitions, turning
sets made outside the library), state the relations the tests compare
against (span containment by row reduction, the set partitions as tuples,
the ASM coordinate rule), give the reference solver rule, the literal
move rule, the set-bit nim-sum of a position and the ASM ruler's (rank, z)
recurrence, check a theorem on a
solved game, or run a fresh interpreter and read its peak memory.  Import
them as `from helpers import ...`; pytest puts this directory on
`sys.path`.
"""

import json
import os
import subprocess
import sys
from itertools import accumulate
from operator import xor
from pathlib import Path

from grundylab.games import TurningFamily, solve_elementwise
from grundylab.nimber import mex
from grundylab.partitions import decompositions, partitions_of
from grundylab.poset import FinitePoset, iter_bits

ROOT = Path(__file__).resolve().parents[1]

# Runs its argv as a child and prints the child's exit code and ru_maxrss.
# A child's peak RSS includes the image of the process that started it, so
# the memory tests start this small launcher rather than the program itself.
RSS_LAUNCHER = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""

# -- fresh interpreters -------------------------------------------------------


def run_python(*args, code=0, timeout=None):
    """Run `python *args` in a fresh interpreter from the repository root,
    with `src/` and this directory on PYTHONPATH, and check that it exits
    with `code`.  Returns the completed process, its output as text."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")])}
    proc = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
    )
    assert proc.returncode == code, proc.stderr
    return proc


def peak_rss_mb(*args, code=0):
    """Run `python *args` from RSS_LAUNCHER and check that it exits with
    `code`.  Returns its peak RSS in MB (ru_maxrss is in KiB on Linux) and
    its stderr."""
    proc = run_python("-c", RSS_LAUNCHER, sys.executable, *args)
    child_code, maxrss_kib = map(int, proc.stdout.split())
    assert child_code == code, proc.stderr
    return maxrss_kib / 1024, proc.stderr


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


# -- turning families made outside the library -------------------------------


def bucket_family(poset, bucket):
    """The family with these buckets under the reference rule for the
    solver: bit i of option plane V[b] is the parity of set i of `bucket(y)`
    in value plane b.  It reads every set, so it serves any family."""

    def option_planes(g, planes):
        for y in range(poset.n):
            sets = bucket(y)
            V = [0] * len(planes)
            for i, m in enumerate(sets):
                for b, plane in enumerate(planes):
                    if (m & plane).bit_count() & 1:
                        V[b] |= 1 << i
            yield V, (1 << len(sets)) - 1

    return TurningFamily(poset, bucket, option_planes)


def from_masks(poset, masks):
    """Bucket arbitrary sets by maximum, the member t with m <= down(t),
    under the reference rule.

    Raises ValueError naming the first set with no unique maximum (an
    empty set, a set with no top element, or one with a bit outside the
    poset, as every negative int has).
    """
    n = poset.n
    by_max = [[] for _ in range(n)]
    for idx, m in enumerate(masks):
        # iter_bits never ends on a negative int: refuse outside bits first
        tops = [] if m >> n else [t for t in iter_bits(m) if m & ~poset.down_mask(t) == 0]
        if not tops:
            raise ValueError(f"turning set {idx} ({m:#b}) has no unique maximum")
        by_max[tops[0]].append(m)
    return bucket_family(poset, by_max.__getitem__)


# -- the rules the library's fast paths are compared with --------------------


def moves(fam, position):
    """All positions reachable in one move: flip any set whose maximum is in
    the position.  Empty exactly when the position avoids every maximum."""
    return [position ^ m for x in iter_bits(position) for m in fam.bucket(x)]


def set_bit_grundy(values, position):
    """Nim-sum of `values` over the position's set bits, one bit at a time,
    the lowest first.  A bit at or above len(values), a negative position's
    included, raises IndexError."""
    s = 0
    while position:
        lsb = position & -position
        s ^= values[lsb.bit_length() - 1]
        position ^= lsb
    return s


def asm_ruler_fibers(n):
    """The ruler game's value G(r, z) on every (rank, z) fiber of ASM_n, as
    rows[r][z], by a recurrence over fibers that builds no poset.

    By the lemma in `families.asm_pi`, down((x, y, z0)) is
    D(r, z0) = {(a, b, c) >= 0 : c <= z0 <= a + b + c <= r} with top
    t = (0, 0, z0), and (a, b, c) lies in fiber (r - a - b, c).  The option
    of the interval [w, t], w = (a, b, c), is the nim-sum X(w) of G over
    [w, t).  Its elements (a', b', c') with a' + b' = s number
    N(s) = min(a, s) - max(0, s - b) + 1 and have
    max(c, z0 - s) <= c' <= min(z0, a + b + c - s), so

        X(w) = XOR over s = 1..a+b with N(s) odd of
               XOR over those c' of G(r - s, c')
        G(r, z0) = mex({0} | {X(w) : w in D(r, z0), w != t})

    Row r reads only rows below it, each through its prefix nim-sums, so
    the inner XOR is two lookups."""
    rows, prefix = [], []
    for r in range(n - 1):
        row = []
        for z0 in range(r + 1):
            seen = {0}
            for c in range(z0 + 1):
                # m = a + b; m = 0 leaves only w = t
                for m in range(max(1, z0 - c), r - c + 1):
                    for a in range(m + 1):
                        b = m - a
                        x = 0
                        for s in range(1, m + 1):
                            if (min(a, s) - max(0, s - b)) % 2 == 0:  # N(s) odd
                                p = prefix[r - s]
                                x ^= p[min(z0, m + c - s) + 1] ^ p[max(c, z0 - s)]
                        seen.add(x)
            row.append(mex(seen))
        rows.append(row)
        prefix.append(list(accumulate(row, xor, initial=0)))
    return rows


# -- relations the constructors must reproduce ------------------------------


def reduce_row(f, row, basis):
    """Reduce a vector over the field f against RREF basis rows; the result
    has no component in the span of `basis`."""
    row = list(row)
    for b in basis:
        pivot = next(j for j, v in enumerate(b) if v)
        c = row[pivot]
        if c:
            row = [f.sub[x][f.mul[c][y]] for x, y in zip(row, b)]
    return row


def subspace_leq(f, small, big):
    """Containment of the spans of two RREF tuples."""
    for row in small:
        if any(reduce_row(f, row, big)):
            return False
    return True


def restricted_growth_strings(n):
    """All RGS of length n in lexicographic order."""
    rgs = [0] * n
    while True:
        yield tuple(rgs)
        # advance: find rightmost position that can still grow
        i = n - 1
        while i > 0:
            prefix_max = max(rgs[:i])
            if rgs[i] <= prefix_max:
                break
            i -= 1
        if i == 0:
            return
        rgs[i] += 1
        for j in range(i + 1, n):
            rgs[j] = 0


def rgs_to_blocks(rgs):
    """Blocks of {1..n}, each sorted, ordered by least element."""
    nblocks = max(rgs) + 1 if rgs else 0
    blocks = [[] for _ in range(nblocks)]
    for i, b in enumerate(rgs):
        blocks[b].append(i + 1)
    return tuple(tuple(b) for b in blocks)


def asm_leq(a, b):
    """(x1,y1,z1) <= (x2,y2,z2) iff x1>=x2, y1>=y2, z1<=z2 and the
    coordinate sums weakly decrease."""
    x1, y1, z1 = a
    x2, y2, z2 = b
    return x1 >= x2 and y1 >= y2 and z1 <= z2 and x1 + y1 + z1 >= x2 + y2 + z2


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
