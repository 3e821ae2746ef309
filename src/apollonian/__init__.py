"""Exact and numerical machinery for integral Apollonian gaskets.

Submodules:
    core        exact Descartes/Apollonian-group arithmetic and the spin cover
    orbit       curvature enumeration, norm balls, the bilinear family
    congruence  finite quotients of the Apollonian group and admissibility
    forms       shifted binary quadratic forms and their coincidence counts
    expsums     local exponential sums, singular series, circle-method harness
    spectral    SL(2, Z[i]) quotients, generation length, Markov spectra
    cli         command-line reports and rendering
"""

import os

# One BLAS thread per process, unless the caller chose (OpenBLAS reads these
# three in this order).  numpy's bundled OpenBLAS otherwise starts a helper
# thread for every CPU but one at import, and each spins for about 0.1 s
# after the import and after every BLAS call, for little wall time: the only
# BLAS user, spectral's LOBPCG, multiplies 9 x n Gram blocks.  On 2 CPUs
# (medians of 10 runs a side), `spectral --q 5,7` took 2.32 s CPU for 1.62 s
# wall with the helper and 1.66 s CPU for 1.67 s wall without it, and
# `import apollonian.cli` 0.45 s CPU for 0.32 s wall against 0.30 s for
# 0.30 s (40 runs a side).  This must run before numpy is imported: a
# process that imported numpy first keeps the BLAS threads it already has.
if not any(v in os.environ for v in
           ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

__version__ = "0.1.0"
