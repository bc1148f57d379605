#!/usr/bin/env python3
"""The braiding, its unitarization, and the crystal limit.

flip.R braids tensor products of symbolic modules but involves positive
powers of q, so it cannot survive at q = infinity.  Dividing by the
square root of the composite of the two braiding directions produces an
involution whose product-frame entries are regular at infinity; reducing
them recovers a signed permutation of the crystal words that matches the
crystal commutor sign by sign.
"""

from qcactus import crystals
from qcactus.uqsl2 import (
    LatticeError,
    braiding_matrix,
    irreducible,
    lattice_check_and_reduce,
    unitarized_matrix,
    verify_kt07,
)

v1 = irreducible(1)

print("flip.R on V1(x)V1, product frame:")
print(braiding_matrix(v1, v1, "s1"))
print("\nflip.R in the isotypic frame (block scalars):")
print(braiding_matrix(v1, v1, "s2"))

print("\nflip.R does not preserve the crystal lattice:")
try:
    lattice_check_and_reduce(braiding_matrix(v1, v1))
except LatticeError as exc:
    print(f"  {exc}")

print("\nunitarized braiding flip.Rbar, product frame:")
print(unitarized_matrix(v1, v1, "s1"))
print("\n... and in the isotypic frame it is the diagonal of signs:")
print(unitarized_matrix(v1, v1, "s2"))

print("\nreduction at q = infinity gives the signed permutation table:")
for row in lattice_check_and_reduce(unitarized_matrix(v1, v1)):
    print(f"  {row}")

print("\ncomparison with the signed crystal commutor for m, n <= 2:")
for m in range(3):
    for n in range(3):
        report = verify_kt07(m, n)
        print(f"  V{m} (x) V{n}: {'match' if report.ok else 'MISMATCH'}")

print("\nthe sign on each word is (-1)^((m+n-nu)/2) with nu its component:")
for w in crystals.words((1, 1)):
    nu = crystals.component_of(w).highest_weight
    sign = -1 if ((2 - nu) // 2) % 2 else 1
    print(f"  {str(w):10} component {nu}, sign {sign:+d}")
