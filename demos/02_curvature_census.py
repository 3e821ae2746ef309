"""Which integers occur as curvatures?

The quadruple tree is walked with pruning at the bound (fresh entries only
grow), bits are set for every curvature seen, and the census compares the
result against the admissible residue classes mod 24.
"""

import numpy as np

from apollonian import congruence, orbit

root = (-11, 21, 24, 28)
cs = orbit.enumerate_curvatures(root, 100)
print("curvatures up to 100:", cs.values().tolist())

adm = congruence.admissible_classes(24, root)
print("admissible classes mod 24:", sorted(adm))

n_max = 10**6
cs = orbit.enumerate_curvatures(root, n_max, record_witnesses=True)
rep = orbit.census(cs, adm)
print(f"N = {n_max}: {rep.curvature_count} curvatures "
      f"of {rep.admissible_count} admissible integers "
      f"({rep.exceptions.size} exceptions, density {rep.density:.4f})")

print("exception density per dyadic block:")
for k, c, length in rep.dyadic_exceptions:
    print(f"  [2^{k:2d}, 2^{k+1:2d}): {c:5d}  ({c / length:.4f})")

# every set bit is certified by a word of reflections from the root
n = int(cs.values()[len(cs.values()) // 2])
word, quad = cs.witness_word(n)
print(f"witness for {n}: word {word} reaches {quad}")
