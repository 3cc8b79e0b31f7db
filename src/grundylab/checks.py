"""Named verification checks, shared by `grundylab verify` and the acceptance suite.

Each check is a generator of `(name, ok, detail)` lines.  Its size parameters
default to the sizes `verify` runs and appear in the names; the acceptance
suite calls the same generators at its own sizes.  The oracles are those of
Winning Ways vol. 3, ch. 14: brute force against the per-element nim-sums, and
the ruler values.  The library is called through module attributes
(`games.solve_elementwise`, ...), so a wrapper installed on one sees the call.
Only `grundylab verify` imports this module, when it runs: the CLI's parser
spells the family and suite names out itself and does not read them here.
"""

from __future__ import annotations

from itertools import product

from . import closedforms, families, games, nimber, partitions
from .partitions import H_ROW

PHI_ROW = (1, 2, 1, 4, 1, 2, 1, 8, 1, 2, 1, 4, 1, 2, 1)
# posets played position by position, with the families played on each
BRUTE_FORCE_SUITE = (
    ("chain4", lambda: families.chain(4), ("tt", "ideal", "ruler")),
    ("divisors12", lambda: families.divisor_poset(12), ("ruler", "ideal")),
    ("setpartitions3", lambda: families.set_partition_poset(3), ("ruler",)),
    ("asm4", lambda: families.asm_poset(4), ("ideal", "ruler")),
    ("subspaces2q2", lambda: families.subspace_lattice(2, 2), ("ruler",)),
)


def nim_add_checks(grid=512, inductive_below=64):
    ok = all(nimber.nim_add(x, y) == x ^ y for x, y in product(range(grid), repeat=2))
    yield f"nim-add equals carry-free binary addition (a,b < {grid})", ok, ""
    pairs = product(range(inductive_below), repeat=2)
    bad = next(((x, y) for x, y in pairs if nimber.nim_add_inductive(x, y) != x ^ y), None)
    yield f"inductive nim-add matches fast path (a,b < {inductive_below})", bad is None, str(bad)


def nim_mul_checks(inductive_below=48, laws_below=16):
    mul = nimber.nim_mul
    # largest first, so that the oracle builds its table once
    pairs = product(reversed(range(inductive_below)), repeat=2)
    bad = next(((x, y) for x, y in pairs if mul(x, y) != nimber.nim_mul_inductive(x, y)), None)
    yield f"inductive nim-mul matches fast path (a,b < {inductive_below})", bad is None, str(bad)
    ok = all(
        mul(x, y) == mul(y, x)
        and mul(mul(x, y), z) == mul(x, mul(y, z))
        and mul(x ^ y, z) == mul(x, z) ^ mul(y, z)
        for x, y, z in product(range(laws_below), repeat=3)
    )
    yield f"nim-mul laws: commutative, associative, distributive (a,b,c < {laws_below})", ok, ""


def ruler_row_checks():
    row = tuple(nimber.ruler_phi(x) for x in range(1, len(PHI_ROW) + 1))
    yield f"ruler sequence values for x = 1..{len(PHI_ROW)}", row == PHI_ROW, str(list(row))


def brute_force_checks():
    builders = games.family_builders()
    for name, build, fam_names in BRUTE_FORCE_SUITE:
        poset = build()
        positions = range(1 << poset.n)
        for fam_name in fam_names:
            fam = builders[fam_name](poset)
            table = games.solve_elementwise(fam)
            game = games.GenericGame.from_turning_family(fam)
            value = games.grundy_position
            bad = next((p for p in positions if games.brute_force_grundy(game, p) != value(table, p)), None)
            detail = f"position {bad}" if bad is not None else ""
            label = f"{name} {fam_name}"
            yield f"elementwise solution equals brute force on {label} (all positions)", bad is None, detail
            # ids are a linear extension, so the potential, the sum of 2^x
            # over the position, is the position's mask itself; the moves
            # are the game's flips, made once from the family's buckets
            dec = all(pos ^ f < pos for pos, flips in enumerate(game.flips) for f in flips)
            yield f"potential strictly decreases on {label}", dec, ""


def combined_game_checks():
    g1 = games.GenericGame.from_turning_family(games.ruler_family(families.chain(3)))
    g2 = games.GenericGame.from_turning_family(games.ruler_family(families.chain(4)))
    both = games.combined(g1, g2)
    value = games.brute_force_grundy
    ok = all(
        value(both, p1 * g2.n_positions + p2) == value(g1, p1) ^ value(g2, p2)
        for p1, p2 in product(range(g1.n_positions), range(g2.n_positions))
    )
    yield "combined-game values are the nim-sums of the parts", ok, ""


def closed_form_checks(chain_n=32, divisor_ns=(12, 30, 60), qs=(2, 3), d_max=40):
    """Ruler closed forms on a chain and on divisor posets, and the subspace
    dimension recurrence against its closed form."""
    t = games.solve_elementwise(games.ruler_family(families.chain(chain_n)))
    ok = t.values == [nimber.ruler_phi(x) for x in range(1, chain_n + 1)]
    yield f"chain ruler equals the ruler sequence (n = {chain_n})", ok, ""
    for n in divisor_ns:
        poset = families.divisor_poset(n)
        t = games.solve_elementwise(games.ruler_family(poset))
        expect = [closedforms.divisor_ruler_grundy(n, d) for d in poset.labels]
        yield f"divisor ruler closed form on divisors of {n}", t.values == expect, ""
    for q in qs:
        g, _ = closedforms.subspace_recurrence(q, d_max)
        cf = [closedforms.subspace_ruler_grundy(q, d) for d in range(d_max + 1)]
        yield f"subspace recurrence equals closed form (q={q}, d <= {d_max})", g == cf, ""


def subspace_solver_checks(n=3, q=2):
    poset = families.subspace_lattice(n, q)
    dims = families.subspace_dimensions(n, q)
    t = games.solve_elementwise(games.ruler_family(poset))
    ok = all(t.values[i] == closedforms.subspace_ruler_grundy(q, dims[i]) for i in range(poset.n))
    yield f"full solver on the subspace lattice (n={n}, q={q}) matches by dimension", ok, ""


def asm_ideal_checks(ns=(3, 4, 5)):
    for n in ns:
        poset = families.asm_poset(n)
        t = games.solve_elementwise(games.order_ideal_family(poset))
        expect = [closedforms.asm_ideal_grundy(*families.asm_pi(n, e)) for e in poset.labels]
        yield f"ideal-game closed form on the ASM poset (n={n})", t.values == expect, ""


def suffix_nim_sum_checks(n=256):
    failures = closedforms.ruler_mex_characterization(n)
    name = f"suffix nim-sum characterization of the ruler sequence (n <= {n})"
    yield name, not failures, "; ".join(failures[:3])


def option_sum_checks():
    h = (0,) + H_ROW[:3]
    s4 = [partitions.s_of_mu(4, mu, h) for mu in partitions.partitions_of(4)]
    yield "worked option sums over the partitions of 4", s4 == [0, 1, 3, 1, 2], str(s4)


def h_row_checks(n_max=8, solver_ns=(4, 5)):
    """h(1..n_max) against the paper's row, and h(n) for each n in
    `solver_ns` against the raw solver on the set-partition lattice."""
    h = partitions.h_sequence(n_max)
    yield f"one-block values h(1..{n_max})", tuple(h[1:]) == H_ROW[:n_max], str(h[1:])
    for n in solver_ns:
        poset = families.set_partition_poset(n)
        t = games.solve_elementwise(games.ruler_family(poset))
        ok = t.values[poset.maximum()] == h[n]
        yield f"h({n}) equals the solver value at the one-block partition", ok, ""


SUITES = {
    "nimber": (nim_add_checks, nim_mul_checks, ruler_row_checks),
    "ft": (brute_force_checks, combined_game_checks),
    "closed-forms": (closed_form_checks, subspace_solver_checks, asm_ideal_checks, suffix_nim_sum_checks),
    "partitions": (option_sum_checks, h_row_checks),
}
SUITES["all"] = sum(SUITES.values(), ())
