"""The local exponential sums and the singular series.

S_f is a normalized complete sum in two variables; for odd moduli it
collapses to Gauss sums and the closed form reproduces the direct sum to
ten digits on its whole domain.  The singular series multiplies local
densities: at 2 and 3 they are read off the orbit mod 8 and mod 3, and at
p >= 5, where the orbit mod p is the whole punctured Descartes cone, they
have a closed form.  It vanishes exactly on the non-admissible classes.
"""

import numpy as np

from apollonian import congruence, expsums as es
from apollonian.forms import ShiftedForm

f = ShiftedForm(10, 7, 17, -11)
print("S_f(3, 1; 0, 0) =", es.sf_direct(f, 3, 1, 0, 0), " (exactly -1/3)")

for (q0, r, n, m) in ((49, 3, 5, 2), (33, 2, 4, 7), (25, 7, 1, 1)):
    d = es.sf_direct(f, q0, r, n, m)
    c = es.sf_closed(f, q0, r, n, m)
    print(f"q0={q0:2d}: direct {d:.10f}  closed {c:.10f}  "
          f"|diff| = {abs(d - c):.1e}")

print("Kloosterman K(1,1;5) =", es.kloosterman(1, 1, 5))
print("Ramanujan c_12(m):", [es.ramanujan(12, m) for m in range(12)])

root = (-11, 21, 24, 28)
for n in (5, 96, 1000, 13):
    print(f"singular series at {n}: {es.singular_series(n, root):.6f}  "
          f"(admissible: {congruence.is_admissible(n, root)})")

ns = np.arange(1, 2001)
vals = es.singular_series_sweep(ns, root)
print("zero exactly off the admissible classes:",
      bool(((vals > 0) == np.isin(ns % 24, (0, 4, 12, 13, 16, 21))).all()))
