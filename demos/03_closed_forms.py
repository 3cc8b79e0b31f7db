#!/usr/bin/env python3
"""Closed forms: chains, divisor posets, and subspace lattices.

The ruler on a chain follows the ruler sequence.  On a divisor poset the
value of a divisor is the nim-product of ruler values over its prime
exponents (shifted by one).  On the lattice of subspaces of F_q^n the value
depends only on the dimension, with a parity split on q: the ruler sequence
again for even q, and a period-3 pattern for odd q.
"""

from grundylab.closedforms import divisor_ruler_grundy, subspace_recurrence, subspace_ruler_grundy
from grundylab.families import chain, divisor_poset
from grundylab.games import ruler_family, solve_elementwise
from grundylab.nimber import ruler_phi

print("ruler on the 16-element chain:")
print("  closed form:", [ruler_phi(x) for x in range(1, 17)])
print("  solver     :", solve_elementwise(ruler_family(chain(16))).values)

n = 360  # 2^3 * 3^2 * 5
d = divisor_poset(n)
print(f"\nruler on the divisors of {n} ({d.n} elements):")
solved = solve_elementwise(ruler_family(d)).values
closed = [divisor_ruler_grundy(n, y) for y in d.labels]
print("  closed form equals solver:", solved == closed)
print("  a few values:", {y: v for y, v in list(zip(d.labels, closed))[:8]})

print("\nsubspace rulers by dimension (d = 0..14):")
print("  q even:", [subspace_ruler_grundy(2, k) for k in range(15)])
print("  q odd :", [subspace_ruler_grundy(3, k) for k in range(15)])

print("\nthe recurrence rebuilds both rows from scratch:")
for q in (2, 3):
    g, _ = subspace_recurrence(q, 14)
    print(f"  q={q}:", g)
