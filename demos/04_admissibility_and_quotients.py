"""Finite quotients of the group and where the congruence obstructions live.

The quotients are multiplicative, the 2-power tower stabilizes at 8 (one
more factor of 2 costs exactly 2^6), and away from 2 and 3 the quotient is
the index-2 spinor kernel of the special orthogonal group of the Descartes
form: all four reflections are mirrors of norm-one vectors.
"""

from apollonian import congruence as cg

print("quotient orders:")
for q in (2, 3, 4, 5, 6, 7, 8, 16):
    print(f"  q={q:2d}: {cg.quotient_order(q)}")

print("multiplicative at 6:",
      cg.quotient_order(6) == cg.quotient_order(2) * cg.quotient_order(3))
print("2-power stabilization:",
      cg.quotient_order(16) == 2**6 * cg.quotient_order(8))

for p in (5, 7):
    so = cg.so_f_order(p)
    print(f"p={p}: sphere-count oracle |SO_F| = {so}, "
          f"quotient = {cg.quotient_order(p)} = |SO_F|/2 (spinor kernel)")

# read off the orbit mod gcd(q, 24) in closed form (Fuchs 2011), so q = 1009,
# about 1.03e9 rows, is answered without closing the orbit mod q
print("orbit of the root mod q (affine ~ q^3, projective ~ q^2):")
for q in (5, 7, 11, 13, 1009):
    print(f"  q={q:4d}: affine {cg.stabilizer_index(q):13,d}  "
          f"projective {cg.stabilizer_index_projective(q):9,d}")
