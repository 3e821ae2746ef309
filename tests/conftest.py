import pathlib
from math import gcd

import numpy as np
import pytest

from apollonian import expsums as es, orbit
from apollonian.cli import FrozenRegistry
from apollonian.forms import ShiftedForm

ROOT = (-11, 21, 24, 28)

REGISTRY_PATH = pathlib.Path(__file__).parent / "frozen.json"


@pytest.fixture(scope="session")
def registry():
    """Regression registry: records on first run, compares afterwards."""
    reg = FrozenRegistry(REGISTRY_PATH, freeze=not REGISTRY_PATH.exists())
    yield reg
    reg.check()
    reg.save()


@pytest.fixture(scope="session")
def curvatures_1e6():
    return orbit.enumerate_curvatures(ROOT, 10**6, record_witnesses=True)


@pytest.fixture(scope="session")
def family_8():
    return orbit.build_family(ROOT, 8, 8)


@pytest.fixture(scope="session")
def family_32():
    return orbit.build_family(ROOT, 32, 32)


# the shifted form of the root gasket, as in test_expsums and test_acceptance
F0 = ShiftedForm(10, 7, 17, -11)


def _units(q0):
    """The r in [1, q0] coprime to q0."""
    return [r for r in range(1, q0 + 1) if gcd(r, q0) == 1]


@pytest.fixture(scope="session")
def sf_closed_error():
    """Odd q0 <= 49 -> max |sf_closed - sf_table| of F0 over the units r and
    all (n, m).  A NaN anywhere makes its q0's entry NaN."""
    err = {}
    for q0 in range(1, 50, 2):
        closed = [[[es.sf_closed(F0, q0, r, n, m) for m in range(q0)] for n in range(q0)]
                  for r in _units(q0)]
        direct = [es.sf_table(F0, q0, r) for r in _units(q0)]
        err[q0] = float(np.max(np.abs(np.subtract(closed, direct))))
    return err


@pytest.fixture(scope="session")
def sf_bound():
    """q0 <= 200 -> max |S_f(q0, r; n, m)| sqrt(q0) of F0 over the units r
    and all (n, m)."""
    return {q0: max(float(np.abs(es.sf_table(F0, q0, r)).max()) for r in _units(q0)) * q0**0.5
            for q0 in range(1, 201)}


@pytest.fixture(scope="session")
def crt_mismatches():
    """Count of (qa, qb, r, n, m), qa qb <= 200 coprime, at which S_f(qa qb)
    of F0 differs by more than 1e-9 from the product of its CRT factors."""
    bad = 0
    for qa in range(2, 201):
        for qb in range(2, 201 // qa + 1):
            if gcd(qa, qb) != 1:
                continue
            q0 = qa * qb
            for (r, n, m) in ((1, 0, 0), (1, 2, 3), (q0 - 1, 5, 1)):
                if gcd(r, q0) != 1:
                    continue
                fa, fb = es.sf_crt_factors(F0, qa, qb, r, n, m)
                if abs(es.sf_direct(F0, q0, r, n, m) - fa * fb) > 1e-9:
                    bad += 1
    return bad
