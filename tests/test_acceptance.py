"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import time

import numpy as np

from grundylab.closedforms import (
    asm_ideal_grundy,
    ruler_mex_characterization,
    subspace_recurrence,
    subspace_ruler_grundy,
)
from grundylab.families import (
    asm_elements,
    asm_eta,
    asm_pi,
    asm_poset,
    asm_xi,
    chain,
    divisor_poset,
    set_partition_poset,
    subspace_dimensions,
    subspace_lattice,
)
from grundylab.games import (
    GenericGame,
    brute_force_grundy,
    combined,
    grundy_position,
    grundy_respects_isomorphism,
    order_ideal_family,
    ruler_family,
    solve_elementwise,
    turning_turtles,
)
from grundylab.nimber import (
    nim_add,
    nim_add_inductive,
    nim_mul,
    nim_mul_inductive,
    ruler_phi,
)
from grundylab.partitions import (
    h_sequence,
    multiplicity_M,
    partitions_of,
    s_of_mu,
)

PHI_ROW = [1, 2, 1, 4, 1, 2, 1, 8, 1, 2, 1, 4, 1, 2, 1]
H_TABLE = [1, 2, 1, 4, 1, 2, 1, 7, 15, 16, 8, 5, 19, 5, 37, 17, 14]


class _Criterion:
    def __init__(self, number, description, budget_seconds):
        self.number = number
        self.description = description
        self.budget = budget_seconds

    def __enter__(self):
        self.started = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.started
        status = "PASS" if exc_type is None and elapsed <= self.budget else "FAIL"
        print(f"{status}  criterion {self.number}: {self.description}  ({elapsed:.2f}s / budget {self.budget}s)")
        if exc_type is None:
            assert elapsed <= self.budget, (
                f"criterion {self.number} exceeded its {self.budget}s budget ({elapsed:.2f}s)"
            )
        return False


def test_criterion_01_nim_add_is_xor():
    with _Criterion(1, "nim-add equals XOR (a,b < 4096); inductive oracle agrees (a,b < 256)", 5):
        a = np.arange(4096, dtype=np.uint32)
        got = nim_add(a[:, None], a[None, :])
        assert (got == np.bitwise_xor(a[:, None], a[None, :])).all()
        for x in range(256):
            for y in range(256):
                assert nim_add_inductive(x, y) == x ^ y


def test_criterion_02_nim_mul_oracle_and_laws():
    with _Criterion(2, "nim-mul fast path = inductive oracle (a,b < 128); field laws (a,b,c < 32)", 30):
        for x in range(128):
            for y in range(128):
                assert nim_mul(x, y) == nim_mul_inductive(x, y)
        rng = range(32)
        for x in rng:
            assert nim_mul(x, 0) == 0 and nim_mul(x, 1) == x
            for y in rng:
                assert nim_mul(x, y) == nim_mul(y, x)
                for z in rng:
                    assert nim_mul(nim_mul(x, y), z) == nim_mul(x, nim_mul(y, z))
                    assert nim_mul(x ^ y, z) == nim_mul(x, z) ^ nim_mul(y, z)


def test_criterion_03_ruler_sequence_row():
    with _Criterion(3, "ruler sequence x = 1..15 matches the reference row", 5):
        assert [ruler_phi(x) for x in range(1, 16)] == PHI_ROW


def test_criterion_04_brute_force_oracle():
    suite = [
        ("chain [4]", chain(4), (turning_turtles, order_ideal_family, ruler_family)),
        ("divisors of 12", divisor_poset(12), (ruler_family, order_ideal_family)),
        ("set partitions of [3]", set_partition_poset(3), (ruler_family,)),
        ("ASM poset n=4", asm_poset(4), (order_ideal_family, ruler_family)),
        ("subspaces n=2 q=2", subspace_lattice(2, 2), (ruler_family,)),
    ]
    with _Criterion(4, "brute force equals elementwise nim-sums on the full suite, every position", 60):
        for name, poset, builders in suite:
            for build in builders:
                fam = build(poset)
                table = solve_elementwise(fam)
                game = GenericGame.from_turning_family(fam)
                for pos in range(1 << poset.n):
                    assert brute_force_grundy(game, pos) == grundy_position(table, pos), (
                        f"{name} {build.__name__} position {pos}"
                    )


def test_criterion_05_combined_games():
    with _Criterion(5, "combined chain rulers [3]+[4]: brute force equals nim-sum on all pairs", 10):
        g1 = GenericGame.from_turning_family(ruler_family(chain(3)))
        g2 = GenericGame.from_turning_family(ruler_family(chain(4)))
        both = combined(g1, g2)
        for p1 in range(g1.n_positions):
            for p2 in range(g2.n_positions):
                got = brute_force_grundy(both, p1 * g2.n_positions + p2)
                assert got == brute_force_grundy(g1, p1) ^ brute_force_grundy(g2, p2)


def test_criterion_06_divisor_poset_figures():
    with _Criterion(6, "divisors of 12: ruler values (1,2,2,1,3,2); ideal values 1 at bottom else 0", 5):
        d12 = divisor_poset(12)
        ruler_values = solve_elementwise(ruler_family(d12)).values
        assert list(zip(d12.labels, ruler_values)) == [
            (1, 1), (2, 2), (3, 2), (4, 1), (6, 3), (12, 2)
        ]
        ideal_values = solve_elementwise(order_ideal_family(d12)).values
        assert ideal_values == [1, 0, 0, 0, 0, 0]


def test_criterion_07_subspace_rulers():
    with _Criterion(7, "subspace ruler rows d=0..14 for q in {2,4,3,5}; full solver on n=3 q=2", 30):
        even_row = PHI_ROW
        odd_row = [1, 2, 3] * 5
        for q in (2, 4):
            assert [subspace_ruler_grundy(q, d) for d in range(15)] == even_row
            assert subspace_recurrence(q, 14).g == even_row
        for q in (3, 5):
            assert [subspace_ruler_grundy(q, d) for d in range(15)] == odd_row
            assert subspace_recurrence(q, 14).g == odd_row
        p = subspace_lattice(3, 2)
        dims = subspace_dimensions(3, 2)
        values = solve_elementwise(ruler_family(p)).values
        assert values == [(1, 2, 1, 4)[d] for d in dims]


def test_criterion_08_asm_ideal_game():
    with _Criterion(8, "ASM ideal game closed form for n = 3..7, with projection-fiber constancy", 60):
        for n in range(3, 8):
            poset = asm_poset(n)
            values = solve_elementwise(order_ideal_family(poset)).values
            fibers = {}
            for i, e in enumerate(poset.labels):
                assert values[i] == asm_ideal_grundy(n, e), (n, e)
                fibers.setdefault(asm_pi(n, e), set()).add(values[i])
            assert all(len(vs) == 1 for vs in fibers.values())


def test_criterion_09_one_block_partition_table():
    with _Criterion(9, "h(1..12) within 60 s and matches the reference row", 60):
        h12 = h_sequence(12)
        assert h12[1:] == H_TABLE[:12]
    with _Criterion(9, "h(1..17) within the 30-minute budget; solver confirms h(n) for n <= 8", 1800):
        h = h_sequence(17)
        assert h[1:] == H_TABLE
        for n in range(1, 9):
            p = set_partition_poset(n)
            table = solve_elementwise(ruler_family(p))
            assert table.values[p.maximum()] == h[n]


def test_criterion_10_worked_example_n4():
    with _Criterion(10, "worked n=4 example: option sums (0,1,3,1,2) and multiplicities (1,2,1)", 5):
        h3 = h_sequence(3)
        s_values = [s_of_mu(4, mu, h3) for mu in partitions_of(4)]
        assert s_values == [0, 1, 3, 1, 2]
        mu = (2, 1, 1)
        assert multiplicity_M((2, 1, 1), mu) == 1
        assert multiplicity_M((3, 1), mu) == 2
        assert multiplicity_M((2, 2), mu) == 1


def test_criterion_11_suffix_nim_sums():
    with _Criterion(11, "mex of suffix nim-sums equals the ruler value, sums nonzero, up to 1024", 10):
        report = ruler_mex_characterization(1024)
        assert report.ok, report.failures


def test_criterion_12_asm_ruler_symmetries():
    with _Criterion(12, "ASM ruler tables for n = 6, 8, 10: fiber symmetry and xi/eta invariance", 300):
        for n in (6, 8, 10):
            poset = asm_poset(n)
            fam = ruler_family(poset)
            values = solve_elementwise(fam).values
            table = {}
            for i, e in enumerate(poset.labels):
                key = asm_pi(n, e)
                table.setdefault(key, set()).add(values[i])
            assert all(len(vs) == 1 for vs in table.values())
            flat = {k: vs.pop() for k, vs in table.items()}
            for (s, t), v in flat.items():
                assert flat[(s, s - t)] == v
            elems = asm_elements(n)
            index = {e: i for i, e in enumerate(elems)}
            for automorphism in (asm_xi, asm_eta):
                mapping = [index[automorphism(n, e)] for e in elems]
                assert grundy_respects_isomorphism(poset, fam, poset, fam, mapping) is None
