#!/usr/bin/env python3
"""A tour of nimber arithmetic: mex, nim-addition, nim-multiplication.

Nim-addition is binary addition without carries (XOR).  Nim-multiplication
is trickier: it is defined by a double mex recursion, and the fast
implementation splits numbers at Fermat 2-powers.  Both fast paths are
checked here against the literal inductive definitions.
"""

from grundylab.nimber import mex, nim_add, nim_add_inductive, nim_mul, nim_mul_inductive, nu2, ruler_phi

print("mex of some sets:")
for s in [set(), {0, 1, 3}, {1, 2, 5}, set(range(6))]:
    print(f"  mex({sorted(s)}) = {mex(s)}")

print("\nnim-addition is XOR: 5 + 9 = (101)_2 + (1001)_2 =", nim_add(5, 9))
print("the inductive definition agrees:", nim_add_inductive(5, 9))

print("\nnim-multiplication table (8 x 8):")
for a in range(8):
    print("  " + " ".join(f"{nim_mul(a, b):2d}" for b in range(8)))

print("\nfast path vs inductive definition for a, b < 32:", end=" ")
print(all(nim_mul(a, b) == nim_mul_inductive(a, b) for a in range(32) for b in range(32)))

print("\nthe ruler sequence 2^nu2(x) (x = 1..16):")
print(" ", [ruler_phi(x) for x in range(1, 17)])
print("its exponents, the classic ruler pattern:")
print(" ", [nu2(x) for x in range(1, 17)])
