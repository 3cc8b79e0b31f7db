#!/usr/bin/env python3
"""Games on the ASM poset: a solved ideal game and an open ruler.

The board is the set of lattice points (x, y, z) >= 0 with x + y + z <= n-2,
ordered so that rank = n - 2 - (x + y).  Values only depend on the
projection (rank, z), so both games print naturally as triangular tables.

The ideal game has a closed form: value 1 exactly at rank 0 and where
rank = 2z +/- 1.  The ruler has no known formula; its computed table is
symmetric under (s, t) -> (s, s - t).
"""

from grundylab.closedforms import asm_ideal_grundy
from grundylab.families import asm_pi, asm_poset
from grundylab.games import order_ideal_family, ruler_family, solve_elementwise

n = 10
poset = asm_poset(n)
print(f"ASM poset for n={n}: {poset.n} elements, rank 0..{n - 2}")


def fiber_table(values):
    out = {}
    for i, e in enumerate(poset.labels):
        out[asm_pi(n, e)] = values[i]
    return out


ideal_values = solve_elementwise(order_ideal_family(poset)).values
closed = [asm_ideal_grundy(*asm_pi(n, e)) for e in poset.labels]
print("ideal game solver equals the closed form:", ideal_values == closed)

print("\nideal game on (rank, z) fibers (rows: z top-down, columns: rank):")
table = fiber_table(ideal_values)
for t in range(n - 2, -1, -1):
    row = " ".join(str(table[(s, t)]) if (s, t) in table else " " for s in range(n - 1))
    print(f"  z={t}: {row}")

print("\nruler on the same board (no closed form known):")
ruler_values = solve_elementwise(ruler_family(poset)).values
rtable = fiber_table(ruler_values)
for t in range(n - 2, -1, -1):
    row = " ".join(f"{rtable[(s, t)]:3d}" if (s, t) in rtable else "   " for s in range(n - 1))
    print(f"  z={t}: {row}")

symmetric = all(rtable[(s, t)] == rtable[(s, s - t)] for (s, t) in rtable)
print("\nsymmetry under (s, t) -> (s, s - t):", symmetric)
