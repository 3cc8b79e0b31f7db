"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Where `grundylab verify` runs the same check, a criterion
calls its generator in `grundylab.checks` at the acceptance sizes.
"""

import operator
import time

from grundylab import checks, nimber
from grundylab.closedforms import subspace_recurrence, subspace_ruler_grundy
from grundylab.families import asm_pi, asm_poset, divisor_poset
from grundylab.games import order_ideal_family, ruler_family, solve_elementwise
from grundylab.nimber import nim_mul
from grundylab.partitions import multiplicity_M
from helpers import asm_eta, asm_xi, assert_grundy_respects_isomorphism


def assert_all_pass(lines):
    failed = [(name, detail) for name, ok, detail in lines if not ok]
    assert not failed, failed


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
    with _Criterion(1, "nim-add is operator.xor; inductive oracle agrees (a,b < 256)", 5):
        assert nimber.nim_add is operator.xor
        assert_all_pass(checks.nim_add_checks(inductive_below=256))


def test_criterion_02_nim_mul_oracle_and_laws():
    with _Criterion(2, "nim-mul fast path = inductive oracle (a,b < 128); field laws (a,b,c < 32)", 30):
        assert_all_pass(checks.nim_mul_checks(inductive_below=128, laws_below=32))
        for x in range(32):
            assert nim_mul(x, 0) == 0 and nim_mul(x, 1) == x


def test_criterion_03_ruler_sequence_row():
    with _Criterion(3, "ruler sequence x = 1..15 matches the reference row", 5):
        assert_all_pass(checks.ruler_row_checks())


def test_criterion_04_brute_force_oracle():
    with _Criterion(4, "brute force equals elementwise nim-sums on the full suite, every position", 60):
        assert_all_pass(checks.brute_force_checks())


def test_criterion_05_combined_games():
    with _Criterion(5, "combined chain rulers [3]+[4]: brute force equals nim-sum on all pairs", 10):
        assert_all_pass(checks.combined_game_checks())


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
        even_row = list(checks.PHI_ROW)
        odd_row = [1, 2, 3] * 5
        for q in (2, 4):
            assert [subspace_ruler_grundy(q, d) for d in range(15)] == even_row
            assert subspace_recurrence(q, 14)[0] == even_row
        for q in (3, 5):
            assert [subspace_ruler_grundy(q, d) for d in range(15)] == odd_row
            assert subspace_recurrence(q, 14)[0] == odd_row
        assert_all_pass(checks.subspace_solver_checks())


def test_criterion_08_asm_ideal_game():
    with _Criterion(8, "ASM ideal game closed form for n = 3..7, with projection-fiber constancy", 60):
        assert_all_pass(checks.asm_ideal_checks(ns=range(3, 8)))
        for n in range(3, 8):
            poset = asm_poset(n)
            values = solve_elementwise(order_ideal_family(poset)).values
            fibers = {}
            for i, e in enumerate(poset.labels):
                fibers.setdefault(asm_pi(n, e), set()).add(values[i])
            assert all(len(vs) == 1 for vs in fibers.values())


def test_criterion_09_one_block_partition_table():
    with _Criterion(9, "h(1..12) within 60 s and matches the reference row", 60):
        assert_all_pass(checks.h_row_checks(n_max=12, solver_ns=()))
    with _Criterion(9, "h(1..17) within the 30-minute budget; solver confirms h(n) for n <= 8", 1800):
        assert_all_pass(checks.h_row_checks(n_max=17, solver_ns=range(1, 9)))
    with _Criterion(9, "solver confirms h(9) on the 21 147 set partitions of 9 within 60 s", 60):
        assert_all_pass(checks.h_row_checks(n_max=9, solver_ns=(9,)))


def test_criterion_10_worked_example_n4():
    with _Criterion(10, "worked n=4 example: option sums (0,1,3,1,2) and multiplicities (1,2,1)", 5):
        assert_all_pass(checks.option_sum_checks())
        mu = (2, 1, 1)
        assert multiplicity_M((2, 1, 1), mu) == 1
        assert multiplicity_M((3, 1), mu) == 2
        assert multiplicity_M((2, 2), mu) == 1


def test_criterion_11_suffix_nim_sums():
    with _Criterion(11, "mex of suffix nim-sums equals the ruler value, sums nonzero, up to 1024", 10):
        assert_all_pass(checks.suffix_nim_sum_checks(n=1024))


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
            index = {e: i for i, e in enumerate(poset.labels)}
            for automorphism in (asm_xi, asm_eta):
                mapping = [index[automorphism(n, e)] for e in poset.labels]
                assert_grundy_respects_isomorphism(poset, fam, poset, fam, mapping)
