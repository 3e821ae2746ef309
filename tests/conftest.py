import pathlib
from functools import lru_cache
from math import gcd

import numpy as np
import pytest

from apollonian import congruence as cg, expsums as es, orbit, spectral as sp
from apollonian.cli import FrozenRegistry
from apollonian.forms import ShiftedForm

ROOT = (-11, 21, 24, 28)

REGISTRY_PATH = pathlib.Path(__file__).parent / "frozen.json"


@pytest.fixture(scope="session")
def registry():
    """The frozen constants of the suite, read-only: check fails the test
    that measured a value outside its tolerance or a name not in the file."""
    return FrozenRegistry(REGISTRY_PATH)


@pytest.fixture(scope="session")
def curvatures_1e6():
    return orbit.enumerate_curvatures(ROOT, 10**6)


@pytest.fixture(scope="session")
def family_8():
    return orbit.build_family(ROOT, 8, 8)


@pytest.fixture(scope="session")
def family_32():
    return orbit.build_family(ROOT, 32, 32)


@lru_cache(maxsize=None)
def full_group(q: int, gens: tuple) -> cg.QuotientClosure:
    """Every element of the group the generators generate mod q, encoded as
    in spectral and sorted by bytes: the element closure that closure_sl2
    ran before it closed the classes {g, -g}, kept as the oracle.  Cached:
    callers must not write to the rows."""
    genc = np.unique(sp._encode(gens, q), axis=0)
    rows = cg._bfs_closure(sp._encode([sp.IDENTITY2], q),
                           lambda f: np.concatenate([sp._gmul(f, g, q) for g in genc]),
                           2 * sp.CLOSURE_CAP)
    return cg.QuotientClosure(q, rows)


def negate(w: tuple, q: int) -> tuple:
    """-w mod q of an encoded element given as a tuple."""
    return tuple(-x % q for x in w)


def fold(rows, q: int) -> list:
    """The classes {w, -w} of the encoded elements as their smaller member,
    sorted: the rows closure_sl2 returns for a group that contains -I."""
    return sorted({min(tuple(w), negate(tuple(w), q)) for w in rows})


def unfold(rows, q: int) -> set:
    """Both members w and -w of each class, as a set of tuples."""
    return {v for w in rows for v in (tuple(w), negate(tuple(w), q))}


# the shifted form of the root gasket, as in test_expsums and test_acceptance
F0 = ShiftedForm(10, 7, 17, -11)


def sf_table(form: ShiftedForm, q0: int, r: int) -> np.ndarray:
    """All values S_f(q0, r; n, m) as an (n, m)-indexed array via a 2-d FFT."""
    if gcd(r, q0) != 1:
        raise ValueError("requires (r, q0) = 1")
    if q0 == 1:
        return np.ones((1, 1), dtype=complex)
    k = np.arange(q0, dtype=np.int64)
    fk = (form.A % q0) * k[:, None] % q0 * k[:, None] \
        + 2 * (form.B % q0) * k[:, None] * k[None, :] \
        + (form.C % q0) * k[None, :] % q0 * k[None, :]
    t = es._roots_of_unity(q0)[(r * fk) % q0]
    # S[n, m] = q0^{-2} sum_{k,l} t[k,l] e_q0(nk + ml) = ifft2(t)[(-n) mod, ...]
    full = np.fft.ifft2(t)  # gives q0^{-2} sum t e^{+2pi i (nk+ml)/q0} at [n, m]
    return full


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
        direct = [sf_table(F0, q0, r) for r in _units(q0)]
        err[q0] = float(np.max(np.abs(np.subtract(closed, direct))))
    return err


def square_classes(q0):
    """One unit r in [1, q0] per class of (Z/q0)^x modulo squares."""
    squares = {u * u % q0 for u in _units(q0)}
    reps, covered = [], set()
    for r in _units(q0):
        if r % q0 not in covered:
            reps.append(r)
            covered |= {r * s % q0 for s in squares}
    return reps


@pytest.fixture(scope="session")
def sf_bound():
    """q0 <= 200 -> max |S_f(q0, r; n, m)| sqrt(q0) of F0 over the units r
    and all (n, m).  Substituting (k, l) -> (u k, u l) gives exactly
    S_f(q0, r u^2; n, m) = S_f(q0, r; n/u, m/u) for every unit u (checked
    table for table by test_sf_table_square_class_identity), so the maximum
    over (n, m) depends on r only through its class modulo squares, and one
    r per class is taken."""
    return {q0: max(float(np.abs(sf_table(F0, q0, r)).max()) for r in square_classes(q0))
            * q0**0.5 for q0 in range(1, 201)}


def sf_crt_factors(form: ShiftedForm, qa: int, qb: int, r: int, n: int, m: int):
    """CRT split of sf over coprime moduli: sf(qa*qb, r; n, m) equals the
    product of the factors returned here (computed with sf_direct)."""
    if gcd(qa, qb) != 1:
        raise ValueError("moduli must be coprime")
    ib = pow(qb % qa, -1, qa) if qa > 1 else 0
    ia = pow(qa % qb, -1, qb) if qb > 1 else 0
    fa = es.sf_direct(form, qa, (r * ib) % qa if qa > 1 else 1, n * ib, m * ib)
    fb = es.sf_direct(form, qb, (r * ia) % qb if qb > 1 else 1, n * ia, m * ia)
    return fa, fb


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
                fa, fb = sf_crt_factors(F0, qa, qb, r, n, m)
                if abs(es.sf_direct(F0, q0, r, n, m) - fa * fb) > 1e-9:
                    bad += 1
    return bad
