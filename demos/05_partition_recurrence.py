#!/usr/bin/env python3
"""The ruler on set partitions, reduced to integer partitions.

In the refinement order on set partitions of {1..n}, the Grundy value of a
partition depends only on its type (the block sizes), and the value of a
type is a nim-product of the values h(k) of one-block partitions.  So the
whole game collapses to the sequence h(n), computed by a mex recursion over
integer partitions.  The step-by-step n = 4 computation below follows the
paper's multiplicities M(lam, mu); `h_sequence` evaluates the same option sums
by a parity DP over block multisets.  No closed form for h(n) is known.
"""

import time

from grundylab.families import set_partition_poset
from grundylab.games import ruler_family, solve_elementwise
from grundylab.partitions import g_of_type, h_sequence, multiplicity_M, partitions_of, s_of_mu

print("the n = 4 computation, step by step:")
h3 = h_sequence(3)
print("  known prefix h(1..3) =", h3[1:])
for lam in partitions_of(4):
    if lam != (4,):
        print(f"  type {lam}: value {g_of_type(lam, h3)}")
print("  counting types above a fixed partition of type (2,1,1):")
for lam in [(2, 1, 1), (3, 1), (2, 2)]:
    print(f"    M({lam}) = {multiplicity_M(lam, (2, 1, 1))}")
svals = [s_of_mu(4, mu, h3) for mu in partitions_of(4)]
print("  option sums over the five types:", svals)
print("  h(4) = mex of those =", 4)

t0 = time.time()
h = h_sequence(17)
print(f"\nh(1..17), computed in {time.time() - t0:.3f}s:")
print(" ", h[1:])

print("\ncross-check against the raw solver on the full set-partition poset:")
for n in range(1, 6):
    p = set_partition_poset(n)
    table = solve_elementwise(ruler_family(p))
    direct = table.values[p.maximum()]
    print(f"  n={n}: solver on {p.n} set partitions gives {direct}, recurrence gives {h[n]}")
