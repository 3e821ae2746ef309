import dataclasses
import tracemalloc
from math import gcd

import numpy as np
import pytest

from apollonian import congruence as cg
from apollonian import core, expsums as es, orbit
from apollonian.forms import ShiftedForm

from conftest import sf_table, square_classes

ROOT = (-11, 21, 24, 28)
F0 = ShiftedForm(10, 7, 17, -11)


def test_sf_direct_basics():
    assert es.sf_direct(F0, 1, 1, 0, 0) == 1
    # nine-term brute case: residue counts {0:1, 1:4, 2:4} give -1/3
    v = es.sf_direct(F0, 3, 1, 0, 0)
    assert abs(v - (-1 / 3)) < 1e-12
    with pytest.raises(ValueError):
        es.sf_direct(F0, 6, 2, 0, 0)


def test_sf_table_matches_direct():
    for q0 in (3, 4, 5, 8, 9, 12):
        for r in range(1, q0):
            if gcd(r, q0) != 1:
                continue
            tab = sf_table(F0, q0, r)
            for (n, m) in ((0, 0), (1, 2), (q0 - 1, 3 % q0)):
                assert abs(tab[n % q0, m % q0]
                           - es.sf_direct(F0, q0, r, n, m)) < 1e-10


def test_closed_form_oracle_equivalence(sf_closed_error):
    """The central contract: the Gauss-sum closed form reproduces the direct
    sum on its entire supported domain (odd q0, all units, all n, m)."""
    for q0 in (1, 3, 5, 7, 9, 15, 25, 33, 49):
        assert sf_closed_error[q0] < 1e-9, q0
    with pytest.raises(es.UnsupportedModulusError):
        es.sf_closed(F0, 4, 1, 0, 0)


def test_gcd_split_invariants():
    for q0 in (3, 11, 33, 121, 99):
        for (n, m) in ((0, 0), (1, 2), (5, 7)):
            s = es.gcd_split(F0, q0, n, m)
            assert s.qt * s.q1 == q0
            assert s.qt * s.a1 == 121            # a^2 = 121
            assert gcd(s.a1, s.q1) == 1          # lowest terms
            if s.L is not None:
                assert s.qt * s.L == F0.C * n - F0.B * m
            else:
                assert (F0.C * n - F0.B * m) % s.qt != 0


def test_closed_form_vanishing_and_magnitude():
    q0, r = 33, 2
    qt = gcd(121, q0)
    for n in range(q0):
        for m in range(q0):
            c = es.sf_closed(F0, q0, r, n, m)
            if (F0.C * n - F0.B * m) % qt != 0:
                assert c == 0
            else:
                assert abs(abs(c) - qt**0.5 / q0) < 1e-12


def test_closed_form_shear_path():
    # a form whose trailing coefficient shares a factor with q0
    f = ShiftedForm(17, 7, 10, -11)
    for q0 in (5, 25, 35):
        for (r, n, m) in ((1, 0, 0), (2, 1, 3), (q0 - 1, 2, 2)):
            if gcd(r, q0) != 1:
                continue
            assert abs(es.sf_closed(f, q0, r, n, m)
                       - es.sf_direct(f, q0, r, n, m)) < 1e-9


def test_sf_table_square_class_identity():
    """S_f(q0, r u^2; n, m) = S_f(q0, r; n/u, m/u) for every unit r and u and
    every q0 <= 60, table for table: the reduction the sf_bound fixture makes.
    Each q0's tables are built once and compared by index permutation."""
    for q0 in range(2, 61):
        units = [r for r in range(1, q0) if gcd(r, q0) == 1]
        tabs = np.stack([sf_table(F0, q0, r) for r in units])
        pos = {r: i for i, r in enumerate(units)}
        for u in units:
            idx = pow(u, -1, q0) * np.arange(q0) % q0
            lhs = tabs[[pos[r * u * u % q0] for r in units]]
            assert np.abs(lhs - tabs[:, idx][:, :, idx]).max() < 1e-12, (q0, u)


def test_square_classes_cover_the_units():
    """One r per square class: the classes r * squares partition the units."""
    for q0 in range(1, 201):
        units = {r % q0 for r in range(1, q0 + 1) if gcd(r, q0) == 1}
        squares = {u * u % q0 for u in units}
        classes = [{r * s % q0 for s in squares} for r in square_classes(q0)]
        assert sum(map(len, classes)) == len(units) == len(set().union(*classes)), q0


def test_sqrt_bound_odd_moduli(sf_bound):
    worst = max(sf_bound[q0] for q0 in range(1, 201, 2))
    assert worst <= 1.0 + 1e-9


def test_sqrt_bound_fails_two_adically(sf_bound):
    """|S_f(2, 1; 0, 1)| = 1: the square-root bound printed without the
    2-adic analysis is off by sqrt(2) at even moduli (f + l is even there).
    The suite records the true worst constant instead."""
    assert abs(es.sf_direct(F0, 2, 1, 0, 1)) == pytest.approx(1.0)
    worst = max(sf_bound[q0] for q0 in range(2, 201, 2))
    assert worst == pytest.approx(2.0**0.5)


def test_multiplicativity_exhaustive(crt_mismatches):
    assert crt_mismatches == 0


def s_avg(q: int, q0: int, f: ShiftedForm, f2: ShiftedForm,
          n: int, m: int, n2: int, m2: int, u0: int = 1) -> complex:
    """sum over (r, q)=1 of S_f(q0, r u0; n, m) conj(S_f2(q0, r u0; n2, m2))
    times e_q(r (a2 - a))."""
    if q % q0 != 0:
        raise ValueError("q0 must divide q")
    if gcd(u0, q0) != 1:
        raise ValueError("(u0, q0) = 1 required")
    roots = es._roots_of_unity(q)
    # cache the two tables over r mod q0
    tabs = {}
    total = 0.0 + 0.0j
    da = f2.a - f.a
    for r in range(1, q + 1):
        if gcd(r, q) != 1:
            continue
        r0 = (r * u0) % q0 if q0 > 1 else 0
        if r0 not in tabs:
            if q0 == 1:
                tabs[r0] = (1.0 + 0j, 1.0 + 0j)
            else:
                tabs[r0] = (
                    sf_table(f, q0, r0)[n % q0, m % q0],
                    sf_table(f2, q0, r0)[n2 % q0, m2 % q0],
                )
        sa, sb = tabs[r0]
        total += sa * np.conj(sb) * roots[(r * da) % q]
    return complex(total)


def test_s_avg():
    assert s_avg(1, 1, F0, F0, 0, 0, 0, 0) == 1
    # coset reduction when the shifts agree: sum over r mod 9 collapses
    full = s_avg(9, 3, F0, F0, 1, 2, 1, 2, u0=1)
    short = sum(
        sf_table(F0, 3, r)[1, 2] * np.conj(sf_table(F0, 3, r)[1, 2])
        for r in (1, 2))
    assert abs(full - 3 * short) < 1e-9
    with pytest.raises(ValueError):
        s_avg(10, 3, F0, F0, 0, 0, 0, 0)


def test_s_avg_bound(registry):
    # |S| q^{5/4} against (q/q0)^2 (a^2,q0) (a-a',q)^{1/4}; here a = a', so the
    # last gcd is q itself
    worst = 0.0
    for q in range(3, 101, 2):
        for q0 in (d for d in range(1, q + 1) if q % d == 0):
            val = abs(s_avg(q, q0, F0, F0, 1, 0, 0, 1, u0=1))
            gfac = (q / q0) ** 2 * gcd(121, q0) * (q ** 0.25)
            worst = max(worst, val * q ** 1.25 / gfac)
    registry.check("expsums.s_avg_bound_ratio", worst)


def test_kloosterman():
    assert es.kloosterman(1, 1, 1) == 1
    direct = sum(np.exp(2j * np.pi * (x + pow(x, -1, 5)) / 5)
                 for x in range(1, 5))
    assert abs(es.kloosterman(1, 1, 5) - direct) < 1e-12
    # K(a,b;c) is real for symmetric reasons at b=a
    assert abs(es.kloosterman(2, 2, 13).imag) < 1e-12


def test_kloosterman_bound(registry):
    worst = 0.0
    for c in range(1, 501):
        val = abs(es.kloosterman(1, 2, c))
        worst = max(worst, val / (c**0.75 * gcd(gcd(1, 2), c) ** 0.25))
    registry.check("expsums.kloosterman_34_ratio", worst)
    assert worst <= 1.0 + 1e-9  # Kloosterman's elementary 3/4 bound, a = b = units


def ramanujan_direct(q: int, m: int) -> complex:
    """Oracle for expsums.ramanujan: the sum of e_q(r m) over the units r."""
    roots = np.exp(2j * np.pi * np.arange(q) / q)
    return complex(sum(roots[(r * m) % q] for r in range(q) if gcd(r, q) == 1))


def test_ramanujan():
    assert es.ramanujan(1, 7) == 1
    assert es.ramanujan(3, 1) == -1
    for p in (3, 5, 7):
        assert es.ramanujan(p, 0) == p - 1
    for q in range(1, 501):
        for m in (0, 1, q // 2, q - 1):
            assert abs(es.ramanujan(q, m) - ramanujan_direct(q, m)) < 1e-7


def test_ramanujan_exhaustive_small():
    for q in range(1, 121):
        for m in range(q):
            assert abs(es.ramanujan(q, m) - ramanujan_direct(q, m)) < 1e-8


def test_singular_series_vanishing():
    ns = np.arange(1, 10001)
    vals = es.singular_series_sweep(ns, ROOT, 13)
    adm = np.array([n % 24 in cg.admissible_classes(24, ROOT) for n in ns])
    assert ((vals > 0) == adm).all()
    assert (vals >= 0).all()
    assert es.singular_series(5, ROOT) == 0.0


def test_singular_series_values(registry):
    registry.check("expsums.singular_96", es.singular_series(96, ROOT))
    registry.check("expsums.singular_1000000", es.singular_series(10**6, ROOT))
    assert es.singular_series(96, ROOT) > 0


def test_singular_series_pfactor_trend():
    worst = 0.0
    for p in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        tab = es._slot_factor_table(ROOT, p, 1)[3]
        worst = max(worst, abs(float(tab[96 % p]) - 1) * p * p)
    assert worst < 4.0


def test_singular_series_computes_each_orbit_once(monkeypatch):
    calls = []
    real = cg.vector_orbit

    def counted(root, q):
        calls.append(q)
        return real(root, q)

    monkeypatch.setattr(cg, "vector_orbit", counted)
    cg._orbit_cached.cache_clear()
    es.singular_series_sweep([96, 97], ROOT, prime_cutoff=7)
    # one orbit mod 8 and one mod 3, shared by the four slots; no orbit mod
    # p >= 5 is closed
    assert sorted(calls) == [3, 8]


SIX_ROOTS = [(-11, 21, 24, 28), (-1, 2, 2, 3), (-2, 3, 6, 7), (-3, 5, 8, 8),
             (-6, 10, 15, 19), (0, 0, 1, 1)]


@pytest.mark.parametrize("root", SIX_ROOTS)
def test_closed_form_factors_match_the_orbits(root):
    """The closed-form factor at p >= 5 against the orbit mod p: the sweep at
    cutoff 31 equals the slot average of the product of the orbit tables
    mod 8, 3 and every prime 5 <= p <= 31, and both vanish together."""
    ns = np.arange(20001)
    oracle = np.ones((4, ns.size))
    for p, kappa in ((2, 3), (3, 1), (5, 1), (7, 1), (11, 1), (13, 1), (17, 1),
                     (19, 1), (23, 1), (29, 1), (31, 1)):
        oracle *= es._slot_factor_table(root, p, kappa)[:, ns % p ** kappa]
    oracle = oracle.sum(axis=0) / 4.0
    vals = es.singular_series_sweep(ns, root, 31)
    assert ((vals == 0) == (oracle == 0)).all()
    np.testing.assert_allclose(vals, oracle, rtol=1e-14, atol=0)


def test_singular_series_checks_root_and_range():
    for bad in ((1, 2, 3, 4), (-22, 42, 48, 56)):
        with pytest.raises(es.InputError):
            es.singular_series(5, bad)
    with pytest.raises(es.InputError):
        es.singular_series(10**20, ROOT)
    with pytest.raises(es.CapExceededError):
        es.singular_series(5, ROOT, es.PRIME_CUTOFF_CAP + 1)


def ramanujan_factor_table(root, p: int, kappa: int) -> np.ndarray:
    """Oracle for _slot_factor_table: the local factors as the Ramanujan-sum
    expansion 1 + sum_{k<=kappa} |O_k|^{-1} sum_{w in O_k} c_{p^k}(w_slot - n)
    over the orbits O_k mod p^k, one convolution per level and slot."""
    q = p ** kappa
    table = np.ones((4, q))
    for k in range(1, kappa + 1):
        pk = p ** k
        orb = cg._orbit_cached(root, pk)
        ctab = np.array([es.ramanujan(pk, t) for t in range(pk)], dtype=float)
        for slot in range(4):
            hist = np.bincount(orb[:, slot], minlength=pk).astype(float)
            contrib = np.array([hist @ ctab[(np.arange(pk) - n) % pk]
                                for n in range(pk)]) / orb.shape[0]
            # the level-k term depends on n mod p^k only
            table[slot] += contrib[np.arange(q) % pk]
    return table


# every kappa whose orbit has at most 200,000 rows (131,072 mod 256); the
# next ones, mod 512 (1,048,576 rows), 243 (5,314,410) and 125 (2,250,000),
# are too large for a unit test, and mod 343 is above ORBIT_CAP
@pytest.mark.parametrize("p, kappa", [(2, k) for k in range(1, 9)]
                         + [(3, k) for k in range(1, 5)]
                         + [(5, 1), (5, 2), (7, 1), (7, 2)])
def test_slot_factor_table_matches_ramanujan_expansion(p, kappa):
    table = es._slot_factor_table(ROOT, p, kappa)
    assert table.shape == (4, p ** kappa)
    assert (table >= 0).all()
    np.testing.assert_allclose(table, ramanujan_factor_table(ROOT, p, kappa),
                               rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("p, small, larger", [(2, 3, (4, 5, 6, 7, 8)), (3, 1, (2, 3, 4)),
                                              (5, 1, (2,)), (7, 1, (2,))])
def test_slot_factor_table_is_tiled_above_the_prime_cap(p, small, larger):
    """The local factors mod 8 and mod 3 are those of every higher power of
    2 and 3, which singular_series_sweep relies on; for p >= 5 the factor mod
    p^2 is the factor mod p (strong approximation, Fuchs, J. Number Theory
    131, 2011), so a higher power of p changes no factor at these primes."""
    base = es._slot_factor_table(ROOT, p, small)
    for kappa in larger:
        tiled = np.tile(base, p ** (kappa - small))
        table = es._slot_factor_table(ROOT, p, kappa)
        assert ((table == 0) == (tiled == 0)).all()
        np.testing.assert_allclose(table, tiled, rtol=1e-15, atol=0)


def hat_t_fourier(y) -> np.ndarray:
    """Fourier transform of the tent: (sin(pi y)/(pi y))^2, value 1 at 0."""
    y = np.asarray(y, dtype=float)
    out = np.ones_like(y)
    nz = y != 0
    s = np.sin(np.pi * y[nz]) / (np.pi * y[nz])
    out[nz] = s * s
    return out


def big_theta_full_pass(theta, n_scale, q0_cut, k0):
    """big_theta as one pass over every point for each (q, r, m) term."""
    scale = n_scale / k0
    theta = np.asarray(theta, dtype=float)
    out = np.zeros_like(theta)
    x = np.empty_like(theta)
    for q in range(1, q0_cut):
        for r in range(q):
            if gcd(r, q) != 1:
                continue
            for m in (-2, -1, 0, 1, 2):
                np.add(theta, m, out=x)
                x -= r / q
                x *= scale
                out += es.hat_t(x, out=x)
    return out


def test_hat_functions():
    assert hat_t_fourier(np.array([0.0]))[0] == 1.0
    v = float(hat_t_fourier(np.array([0.5]))[0])
    assert v == pytest.approx((2 / np.pi) ** 2)
    assert v > 0.4
    from scipy.integrate import quad
    for y in (0.25, 0.5, 1.3, 2.7):
        val, _ = quad(lambda x: max(min(1 + x, 1 - x), 0.0)
                      * np.cos(2 * np.pi * x * y), -1, 1)
        assert abs(val - float(hat_t_fourier(np.array([y]))[0])) < 1e-8
    # spike field: nonnegative, and at least 1 on low fractions
    theta = np.array([0.0, 0.5, 1 / 3, 0.25, 2 / 7])
    b = es.big_theta(theta, 65536.0, 8, 64.0)
    assert np.array_equal(b, big_theta_full_pass(theta, 65536.0, 8, 64.0))
    assert (b >= 0).all()
    assert (b[:4] >= 1 - 1e-12).all()


@pytest.mark.parametrize("grid, q0_cut, k0", [
    (1 << 12, 2, 65536.0 / 2.1), (1 << 16, 8, 64.0), (1 << 22, 8, 64.0)])
def test_big_theta_windows_match_full_pass(grid, q0_cut, k0):
    # each term is evaluated on its spike's window alone; the points left
    # out add +0.0, so the bump is bit-identical to the full pass
    theta = np.arange(grid) / grid
    assert np.array_equal(es.big_theta(theta, 65536.0, q0_cut, k0),
                          big_theta_full_pass(theta, 65536.0, q0_cut, k0))


def test_upsilon_normalization():
    xs = np.linspace(0.5, 2.5, 200001)
    mass = float(np.trapezoid(es.upsilon(xs), xs))
    assert mass == pytest.approx(1.0, abs=1e-8)
    assert (es.upsilon(np.array([0.9, 2.1])) == 0).all()


def test_representation_numbers(family_8, curvatures_1e6):
    rep = es.representation_number(family_8, 32)
    # total mass identity
    rhat = es.rhat_on_grid(rep, 2048)
    assert abs(rep.total_mass() - rhat[0].real) < 1e-8
    # positivity and support admissibility
    for n, w in zip(rep.values[:200].tolist(), rep.weights[:200].tolist()):
        assert w > 0
        assert cg.is_admissible(n, ROOT)
    # membership: spot-check reduction certificates
    import random
    rng = random.Random(4)
    for i in rng.sample(range(rep.values.size), 40):
        idx, x, y = rep.witnesses[i].tolist()
        gam = tuple(map(tuple, family_8.mats[idx].tolist()))
        quad = core.mat_vec(core.mat_mul(core.xi(x, y), gam), ROOT)
        assert quad[3] == rep.values[i]
        assert core.reduce_to_root(quad)[0] == ROOT


def reference_representation(family, X, truncation=None):
    """Independent oracle: one np.unique per member, merged into dicts one
    (member, value) pair at a time.  Returns ({n: R(n)}, {n: witness})."""
    xs = np.arange((X + 1) // 2, X + 1, dtype=np.int64)
    ys = np.arange(X, 2 * X + 1, dtype=np.int64)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    weights = np.outer(es.upsilon(2.0 * xs / X), es.upsilon(ys / X))
    g = np.gcd(2 * gx, gy)
    if truncation is None:
        mult = (g == 1).astype(float)
    else:
        mu_tab = np.zeros(int(g.max()) + 1)
        for gg in range(1, mu_tab.size):
            mu_tab[gg] = sum(es.mobius(u) for u in range(1, min(truncation, gg + 1))
                             if gg % u == 0)
        mult = mu_tab[g]
    weights = weights * mult
    values, witnesses = {}, {}
    live = np.abs(weights) > 0
    fx, fy, fw = gx[live], gy[live], weights[live]
    coprime = g[live] == 1
    for idx, (A, B, C, a) in enumerate(family.forms):
        vals = (4 * int(A) * fx * fx + 4 * int(B) * fx * fy
                + int(C) * fy * fy - int(a))
        uniq, first, inverse = np.unique(vals, return_index=True, return_inverse=True)
        sums = np.bincount(inverse, weights=fw)
        for v, s in zip(uniq.tolist(), sums.tolist()):
            values[v] = values.get(v, 0.0) + s
        if truncation is None:
            for v, fi in zip(uniq.tolist(), first.tolist()):
                if v not in witnesses and coprime[fi]:
                    witnesses[v] = (idx, int(fx[fi]), int(fy[fi]))
    values = {v: s for v, s in values.items() if abs(s) > 1e-14}
    return values, witnesses


# build_family(ROOT, 8, 16) is empty (no element of Gamma has its norm in
# (16, 32)), so (8, 32) adds a family of two different shells
@pytest.mark.parametrize("shells", [(8, 8), (8, 16), (8, 32)], ids=["8x8", "8x16", "8x32"])
@pytest.mark.parametrize("truncation", [None, 2, 4, 8])
@pytest.mark.parametrize("chunk", [None, 1000], ids=["default_chunk", "chunk1000"])
def test_representation_matches_reference(shells, truncation, chunk, monkeypatch):
    # chunk=1000 merges a few members at a time, as large families do
    if chunk is not None:
        monkeypatch.setattr(es, "_CHUNK_ELEMENTS", chunk)
    family = orbit.build_family(ROOT, *shells)
    rep = es.representation_number(family, 32, truncation)
    values, witnesses = reference_representation(family, 32, truncation)
    keys = sorted(values)
    assert rep.values.dtype == np.int64 and rep.values.tolist() == keys
    ref = np.array([values[k] for k in keys])
    assert rep.weights.shape == ref.shape
    assert np.all(np.abs(rep.weights - ref) <= 1e-12 * np.abs(ref))
    if truncation is None:
        assert rep.witnesses.dtype == np.int64
        assert rep.witnesses.tolist() == [list(witnesses[k]) for k in keys]
    else:
        assert rep.witnesses is None


@pytest.mark.parametrize("truncation", [None, 4])
def test_representation_independent_of_chunk(truncation, monkeypatch):
    # every (member, point) pair is reduced in one pass after evaluation, so
    # the chunk size changes no bit of the values, weights or witnesses
    family = orbit.build_family(ROOT, 8, 32)
    reps = []
    for chunk in (1, 1000, es._CHUNK_ELEMENTS):
        monkeypatch.setattr(es, "_CHUNK_ELEMENTS", chunk)
        reps.append(es.representation_number(family, 32, truncation))
    for rep in reps[1:]:
        for name in ("values", "weights", "witnesses"):
            assert np.array_equal(getattr(rep, name), getattr(reps[0], name)), name


def test_representation_runs_longer_than_a_chunk(family_8, monkeypatch):
    # 500 copies of one member: every value is a run of at least 500 pairs,
    # longer than the 192-pair chunk that a chunk size of 1 comes to
    family = dataclasses.replace(family_8, quads=np.repeat(family_8.quads[:1], 500, axis=0),
                                 forms=np.repeat(family_8.forms[:1], 500, axis=0))
    values, witnesses = reference_representation(family, 32)
    reps = []
    for chunk in (1, 1000, es._CHUNK_ELEMENTS):
        monkeypatch.setattr(es, "_CHUNK_ELEMENTS", chunk)
        reps.append(es.representation_number(family, 32))
    keys = sorted(values)
    ref = np.array([values[k] for k in keys])
    assert reps[0].values.tolist() == keys
    assert np.all(np.abs(reps[0].weights - ref) <= 1e-12 * np.abs(ref))
    assert reps[0].witnesses.tolist() == [list(witnesses[k]) for k in keys]
    for rep in reps[1:]:
        for name in ("values", "weights", "origin"):
            assert np.array_equal(getattr(rep, name), getattr(reps[0], name)), name


def test_representation_count_cap(family_8, monkeypatch):
    # 96 members at 192 live points of the X = 32 box (561 points)
    monkeypatch.setattr(es, "REPRESENTATION_CAP", 96 * 192)
    es.representation_number(family_8, 32)
    monkeypatch.setattr(es, "REPRESENTATION_CAP", 96 * 192 - 1)
    with pytest.raises(orbit.CapExceededError):
        es.representation_number(family_8, 32)
    # the box is checked before it is built, even for an empty family
    monkeypatch.setattr(es, "REPRESENTATION_CAP", 560)
    with pytest.raises(orbit.CapExceededError):
        es.representation_number(orbit.build_family(ROOT, 8, 16), 32)


def test_witnesses_built_when_read(family_8, monkeypatch):
    calls = []
    live_points = es._live_points

    def counted(*args, **kw):
        calls.append(args)
        return live_points(*args, **kw)

    monkeypatch.setattr(es, "_live_points", counted)
    rep = es.representation_number(family_8, 32)
    assert len(calls) == 1 and "witnesses" not in vars(rep)
    _, witnesses = reference_representation(family_8, 32)
    assert rep.witnesses.dtype == np.int64
    assert rep.witnesses.tolist() == [list(witnesses[k]) for k in rep.values.tolist()]
    assert len(calls) == 2  # built once, on the first read
    assert es.representation_number(family_8, 32, truncation=4).witnesses is None


def test_representation_key_cap(family_8):
    # a root with entries near 1e12 spreads the values over about 8e16
    # integers, so the keys of its 610,560 pairs would pass 2^63; the cap is
    # read off the forms before the 4.9 MB of keys is allocated
    n = 10**6
    family = orbit.build_family((-n, n + 1, n * (n + 1), n * (n + 1) + 1), 32, 32)
    tracemalloc.start()
    try:
        with pytest.raises(orbit.CapExceededError, match="key cap"):
            es.representation_number(family, 32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(family) * 192 == 610_560 and peak < 1 << 20
    # values that may leave +-2^62 are refused before any int64 arithmetic
    huge = dataclasses.replace(family_8, forms=family_8.forms << 50)
    with pytest.raises(orbit.CapExceededError, match="key cap"):
        es.representation_number(huge, 32)


def reference_fold(rep, grid):
    """Independent oracle: the weights folded one (n, R(n)) pair at a time."""
    folded = np.zeros(grid)
    for v, s in zip(rep.values.tolist(), rep.weights.tolist()):
        folded[v % grid] += s
    return folded


def test_fold_weights_matches_loop(family_8):
    signed = es.representation_number(family_8, 32, truncation=4)
    odd = es.Representation(family_8, 32, None, np.array([-7, 3, 5, 10**12 + 3]),
                            np.array([0.5, -1.25, 0.25, 2.0]), None)
    for rep in (signed, odd):
        for grid in (1, 7, 2048):
            assert np.array_equal(es.fold_weights(rep, grid), reference_fold(rep, grid))


def l1_distance(rep, other):
    """Sum over n of |R(n) - R'(n)|, an n missing from one side counting 0."""
    _, inverse = np.unique(np.concatenate((rep.values, other.values)), return_inverse=True)
    return float(np.abs(np.bincount(
        inverse, np.concatenate((rep.weights, -other.weights)))).sum())


def test_truncated_moebius_l1(family_8):
    rep = es.representation_number(family_8, 32)
    truncated = [es.representation_number(family_8, 32, truncation=u) for u in (2, 4, 8)]
    diffs = [l1_distance(rep, ru) for ru in truncated]
    assert diffs[0] > diffs[1] > diffs[2]
    # l1_distance against a sum over the union of the two supports
    exact = dict(zip(rep.values.tolist(), rep.weights.tolist()))
    for ru, diff in zip(truncated, diffs):
        cut = dict(zip(ru.values.tolist(), ru.weights.tolist()))
        direct = sum(abs(exact.get(k, 0.0) - cut.get(k, 0.0)) for k in exact.keys() | cut)
        assert abs(diff - direct) <= 1e-12 * direct


def test_major_arc_decomposition(family_8):
    rep = es.representation_number(family_8, 32)
    n_scale = family_8.t * 32 * 32
    dec = es.major_arc_decomposition(rep, es.bump_on_grid(n_scale, 8, 64.0, 1 << 16))
    resid = np.abs(dec.major + dec.error - dec.folded).max()
    assert resid <= 1e-6 * max(np.abs(dec.folded).max(), 1.0)
    # wide-bump limit: E is tiny relative to the mass
    dec2 = es.major_arc_decomposition(
        rep, es.bump_on_grid(n_scale, 2, n_scale / 2.1, 1 << 12))
    assert np.abs(dec2.error).max() <= 0.01 * rep.total_mass()
    with pytest.raises(es.GridTooCoarseError):
        es.bump_on_grid(n_scale, 8, 0.25, 256)


def test_major_arc_sign_report(family_8, registry):
    rep = es.representation_number(family_8, 32)
    n_scale = family_8.t * 32 * 32
    dec = es.major_arc_decomposition(rep, es.bump_on_grid(n_scale, 8, 64.0, 1 << 16))
    adm_bulk = np.array([n for n in range(n_scale // 2, n_scale)
                         if cg.is_admissible(n, ROOT)])
    frac = float((dec.major[adm_bulk % dec.grid].real > 0).mean())
    registry.check("expsums.major_sign_fraction", frac)


def test_minor_arc_report(family_8):
    rep = es.representation_number(family_8, 32)
    n_scale = family_8.t * 32 * 32
    out = es.minor_arc_report(rep, n_scale, 8, 64.0, 1 << 12, 256)
    assert set(out) == {"I_Q0K0", "I_Q0", "I_Q_dyadic"}
    assert all(v >= 0 for v in (out["I_Q0K0"], out["I_Q0"]))
