"""The combinatorial spectral gap of the congruence quotients.

After a conjugation-and-twist the group sits in SL(2, Z[i]) with two real
SL(2, Z) subgroups; bounded-length alternating products of the two fill
every finite quotient, and the walk operators of the quotient Cayley
graphs keep their second eigenvalue away from 1.
"""

from apollonian import spectral as sp

print("twist correspondence reproduces the working generators:",
      sp.generator_correspondence_check()["all_match"])

print("local congruence identities: p=2, m=8:",
      sp.local_identity_check(2, 8)["identities"])
print("                             p=3, m=2:",
      sp.local_identity_check(3, 2)["identities"])
print("p>=5 unipotent identity at (7, 2), a=3:",
      sp.unipotent_conjugation_identity(7, 2, 3))
print("8 as a sum of unit squares mod 3^4:", sp.sum_of_unit_squares(8, 3, 4))

for q in (2, 3, 4, 8):
    k, sizes = sp.alternation_length(q)
    print(f"alternating products fill the quotient mod {q} at k = {k} "
          f"(sizes {sizes})")

print("walk spectra (second eigenvalue):")
spectra = {q: sp.markov_spectrum(q) for q in (2, 3, 4, 5, 8)}
for q, spec in spectra.items():
    print(f"  q={q}: |G| = {spec.group_order:5d}, |S| = {spec.s_size:2d}, "
          f"lambda1 = {spec.eigenvalues[1]:.6f}")

for q in (2, 4):
    rep = sp.transference_check(spectra[q])
    print(f"transference at q={q}: 1 - lambda1 = {rep.lhs:.4f} >= "
          f"{rep.rhs:.4f} (k = {rep.k_alt}) -> {rep.holds}")
