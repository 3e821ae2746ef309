"""A desk-scale run of the circle-method harness.

Representation numbers sum smoothed weights over a bilinear family of
shifted forms at coprime arguments; the spike bump splits the transform
into major and error pieces whose sum reproduces the (grid-folded)
weights to machine precision.  Every represented integer is certified to
be a curvature by reducing its witness quadruple to the root.
"""

import numpy as np

from apollonian import congruence, core, expsums as es, orbit

root = (-11, 21, 24, 28)
fam = orbit.build_family(root, 8, 8)
print(f"family: {len(fam)} products of two norm-shell elements, "
      f"anchor curvatures {fam.a.min()}..{fam.a.max()}")

rep = es.representation_number(fam, 32)
print(f"support: {rep.values.size} integers, total mass {rep.total_mass():.2f}")

n_scale = fam.t * 32 * 32
dec = es.major_arc_decomposition(rep, n_scale, 8, 64.0, 1 << 16)
resid = np.abs(dec.major + dec.error - dec.folded).max()
print(f"max |M + E - folded R| = {resid:.2e}")

n = int(rep.values[0])
idx, x, y = rep.witnesses[0].tolist()
gam = tuple(map(tuple, fam.mats[idx].tolist()))
quad = core.mat_vec(core.mat_mul(core.xi(x, y), gam), root)
print(f"smallest represented n = {n}: witness quadruple {quad}, "
      f"reduces to {core.reduce_to_root(quad)[0]}, "
      f"admissible: {congruence.is_admissible(n, root)}")

for u in (2, 4, 8):
    ru = es.representation_number(fam, 32, truncation=u)
    # |R(n) - R_U(n)| summed over the union of the two supports
    _, inverse = np.unique(np.concatenate((rep.values, ru.values)), return_inverse=True)
    l1 = np.abs(np.bincount(inverse, np.concatenate((rep.weights, -ru.weights)))).sum()
    print(f"L1 cost of truncating the coprimality at U={u}: {l1:.1f}")

print("minor-arc dissection report:",
      es.minor_arc_report(rep, n_scale, 8, 64.0, 1 << 12, 256))
