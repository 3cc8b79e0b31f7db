"""Check grundylab against its own oracles on seeded inputs.

For each seeded random poset (12, 13 and 14 elements) and each built-in
family (tt, ideal, ruler), every position is evaluated by the brute-force
game-tree search and compared with the nim-sum of the per-element values
from `solve_elementwise`.  Then `nim_mul` is compared with the literal
double-mex oracle `nim_mul_inductive` on every pair below NIM_MUL_LIMIT,
and `nim_add_inductive` with XOR on every pair below NIM_ADD_LIMIT.  Pairs
are visited in ascending order, the way the test suite sweeps them, so the
oracles grow their tables step by step.

Prints one line per check and exits 1 on any mismatch.  Run as
`python oracle_driver.py --seed N` with grundylab importable.

All library calls go through module attributes (`games.solve_elementwise`,
`nimber.nim_mul`, ...), so the traced run's wrappers see them.
"""

from __future__ import annotations

import argparse
import random
import sys

from grundylab import games, nimber
from grundylab.poset import FinitePoset

SIZES = (12, 13, 14)
RELATIONS_PER_ELEMENT = 2.5
NIM_MUL_LIMIT = 64
NIM_ADD_LIMIT = 128
FAMILIES = ("tt", "ideal", "ruler")


def random_poset(seed: int, n: int) -> FinitePoset:
    """A random order on n elements with exactly round(RELATIONS_PER_ELEMENT
    * n) strict relations: cover edges i -> j, i < j, are tried in a seeded
    order and kept while the transitive closure stays within that count.
    Every seed then gives families of the same size, so the brute-force
    search does the same amount of work."""
    rng = random.Random(f"oracle:{seed}:{n}")
    pairs = [(i, j) for j in range(n) for i in range(j)]
    rng.shuffle(pairs)
    target = round(RELATIONS_PER_ELEMENT * n)
    down = [1 << x for x in range(n)]
    relations = 0
    edges = []
    for i, j in pairs:
        if (down[j] >> i) & 1:
            continue
        grown = [d | down[i] if (d >> j) & 1 else d for d in down]
        gained = sum(d.bit_count() for d in grown) - n - relations
        if relations + gained <= target:
            down, relations = grown, relations + gained
            edges.append((i, j))
            if relations == target:
                break
    return FinitePoset.from_covers(n, sorted(edges))


def check_poset(poset: FinitePoset, family: str) -> tuple[int, list[int]]:
    builder = {
        "tt": games.turning_turtles,
        "ideal": games.order_ideal_family,
        "ruler": games.ruler_family,
    }[family]
    fam = builder(poset)
    table = games.solve_elementwise(fam)
    game = games.GenericGame.from_turning_family(fam)
    bad = sum(
        games.brute_force_grundy(game, pos) != games.grundy_position(table, pos)
        for pos in range(game.n_positions)
    )
    return bad, table.values


def check_nimbers() -> tuple[int, int]:
    mul_bad = sum(
        nimber.nim_mul(a, b) != nimber.nim_mul_inductive(a, b)
        for a in range(NIM_MUL_LIMIT)
        for b in range(NIM_MUL_LIMIT)
    )
    add_bad = sum(
        nimber.nim_add_inductive(a, b) != a ^ b
        for a in range(NIM_ADD_LIMIT)
        for b in range(NIM_ADD_LIMIT)
    )
    return mul_bad, add_bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    failures = 0
    for n in SIZES:
        poset = random_poset(args.seed, n)
        for family in FAMILIES:
            bad, values = check_poset(poset, family)
            failures += bad
            print(
                f"brute n={n} family={family} positions={1 << n} "
                f"mismatches={bad} values={','.join(map(str, values))}"
            )
    mul_bad, add_bad = check_nimbers()
    failures += mul_bad + add_bad
    print(f"nim_mul limit={NIM_MUL_LIMIT} mismatches={mul_bad}")
    print(f"nim_add limit={NIM_ADD_LIMIT} mismatches={add_bad}")
    print(f"{'OK' if not failures else 'FAILED'}: {failures} mismatch(es)")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
