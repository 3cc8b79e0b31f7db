#!/usr/bin/env python3
"""Coin-turning games from scratch, on the divisors of 12.

A position puts a coin (heads or tails) on each element of a poset.  A move
picks a turning set whose maximum element currently shows heads and flips
every coin in it.  The last player able to move wins.  Three classic
turning-set families:

  turning turtles - all comparable pairs {x, y} with x <= y
  ideal game      - all principal order ideals
  ruler           - all closed intervals [x, y]

The per-element Grundy values determine every position's value by nim-sum;
we verify that against raw game-tree search over all 2^6 positions.
"""

from grundylab.families import divisor_poset
from grundylab.games import (
    GenericGame,
    brute_force_grundy,
    grundy_position,
    order_ideal_family,
    ruler_family,
    solve_elementwise,
    turning_turtles,
)

d12 = divisor_poset(12)
print("board: divisors of 12 =", d12.labels)
print("cover relations:", [(d12.labels[i], d12.labels[j]) for i, j in d12.covers()])

for name, build in [("turning turtles", turning_turtles), ("ideal game", order_ideal_family), ("ruler", ruler_family)]:
    fam = build(d12)
    table = solve_elementwise(fam)
    print(f"\n{name}: {len(fam)} turning sets")
    print("  per-element values:", dict(zip(d12.labels, table.values)))
    game = GenericGame.from_turning_family(fam)
    mismatches = sum(
        1
        for pos in range(1 << d12.n)
        if brute_force_grundy(game, pos) != grundy_position(table, pos)
    )
    print(f"  brute force vs nim-sum over all {1 << d12.n} positions: {mismatches} mismatches")

fam = ruler_family(d12)
table = solve_elementwise(fam)
full_board = (1 << d12.n) - 1
value = grundy_position(table, full_board)
print(f"\nall heads on the ruler: Grundy value {value} ->", "first player wins" if value else "second player wins")
