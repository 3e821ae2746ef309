"""Acceptance suite: one test per criterion, each printing a PASS line.

Two often-quoted clauses are false as universally stated; each is kept as
a strict xfail documenting the exact counterexample, next to a passing
test of the corrected exact identity:

  * criterion 3, third clause: the quotient mod p equals the full special
    orthogonal group order.  The generators are products of reflections in
    norm-one mirrors, so the quotient is the index-2 spinor kernel; the
    exact identity is 2 |Gamma/Gamma(p)| = |SO_F(F_p)|.
  * criterion 7, second clause: |S_f| <= q0^{-1/2} for all q0 <= 200.  At
    q0 = 2 the value S_f(2,1;0,1) has modulus 1 (the quadratic f(k,l) + l
    is even for this form); the bound holds exhaustively for odd q0 and
    the even worst constant is exactly sqrt(2).
"""

import random
from math import gcd

import numpy as np
import pytest

from apollonian import congruence as cg
from apollonian import core, expsums as es, forms, orbit, spectral as sp
from apollonian.forms import ShiftedForm
from conftest import sf_table
from test_congruence import so_f_order_pairs
from test_expsums import l1_distance, s_avg
from test_forms import coincidence_bruteforce, zero_pairs_bruteforce

ROOT = (-11, 21, 24, 28)
F0 = ShiftedForm(10, 7, 17, -11)


def passline(num, msg):
    print(f"ACCEPTANCE {num:02d} PASS - {msg}")


def test_criterion_01_descartes_identities():
    assert core.descartes_form(ROOT) == 0
    rng = random.Random(0)
    for _ in range(10_000):
        word = [rng.randint(1, 4) for _ in range(rng.randint(0, 12))]
        v = core.apply_word(word, ROOT)
        i = rng.randint(1, 4)
        assert core.descartes_form(core.apply_reflection(i, v)) == 0
    passline(1, "F(root) = 0 and reflections preserve the cone on 10^4 samples")


def test_criterion_02_admissibility():
    assert sorted(cg.admissible_classes(24, ROOT)) == [0, 4, 12, 13, 16, 21]
    passline(2, "admissible classes mod 24 are {0,4,12,13,16,21}")


def test_criterion_03_quotient_structure():
    assert cg.quotient_order(6) == cg.quotient_order(2) * cg.quotient_order(3)
    assert cg.quotient_order(16) == 2**6 * cg.quotient_order(8)
    # corrected third clause: the quotient is the index-2 spinor kernel of
    # SO_F(F_p), with both sides computed by independent algorithms
    assert 2 * cg.quotient_order(5) == cg.so_f_order(5) == so_f_order_pairs(5)
    assert 2 * cg.quotient_order(7) == cg.so_f_order(7) == so_f_order_pairs(7)
    passline(3, "multiplicativity, 2-power stabilization, and the exact "
                "index-2 spinor identity against the sphere-count oracle")


@pytest.mark.xfail(strict=True,
                   reason="the quotient mod 5 is the spinor kernel, of index "
                          "2 in SO_F(F_5): 7200 != 14400")
def test_criterion_03_stated_so_f_equality():
    assert cg.quotient_order(5) == cg.so_f_order(5)


def test_criterion_04_curvature_census(curvatures_1e6, registry):
    cs100 = orbit.enumerate_curvatures(ROOT, 100)
    assert set(cs100.values().tolist()) == {21, 24, 28, 40, 52, 61, 76, 85, 96}
    rep = orbit.census(curvatures_1e6, cg.admissible_classes(24, ROOT))
    assert 0.2 <= rep.density <= 0.25
    registry.check("acceptance.exception_count_1e6", int(rep.exceptions.size))
    # per-block exception density, nonincreasing beyond the frozen threshold;
    # the last block is cut at N, so each count is divided by its block length
    dens = [c / length for k, c, length in rep.dyadic_exceptions]
    k0 = int(registry.check("acceptance.dyadic_threshold_k0", 10))
    tail = dens[k0:]
    assert all(b <= a + 1e-12 for a, b in zip(tail, tail[1:])), tail
    rng = random.Random(1)
    for n in rng.sample(curvatures_1e6.values().tolist(), 50):
        word, quad = curvatures_1e6.witness_word(n)
        assert n in core.apply_word(word, ROOT)
    passline(4, "exact set at 100, density and frozen dyadic regression at "
                "10^6, 50 witness words verified")


def test_criterion_05_delta_fit():
    ys = np.geomspace(100, 10000, 25)
    table = orbit.norm_ball_count(ys)
    delta = orbit.fit_delta(table)
    assert 1.25 <= delta <= 1.36, delta
    passline(5, f"fitted norm-ball exponent {delta:.4f} in [1.25, 1.36]")


def test_criterion_06_form_machinery(curvatures_1e6):
    rng = random.Random(2)
    gens = core.GAMMA_GENERATORS + core.GAMMA_GENERATOR_INVERSES
    for _ in range(10_000):
        m = core.IDENTITY
        last = None
        for _ in range(rng.randint(0, 6)):
            while True:
                k = rng.randrange(6)
                if last is None or k != (last + 3) % 6:
                    break
            last = k
            m = core.mat_mul(m, gens[k])
        x, y = rng.randint(-12, 12), rng.randint(-12, 12)
        f = forms.extract_form(m, ROOT)
        v = core.mat_vec(m, ROOT)
        assert forms.evaluate(f, x, y) == sum(
            a * b for a, b in zip(core.w_vector(x, y), v))
        assert f.discriminant() == -4 * f.a * f.a
    assert forms.evaluate(F0, 1, 1) == 96
    present = curvatures_1e6.to_bool()
    checked = 0
    while checked < 100:
        x, y = rng.randint(-10, 10), rng.randint(-10, 10)
        if gcd(2 * x, y) != 1:
            continue
        val = forms.evaluate(F0, x, y)
        if 1 <= val <= 10**6:
            assert present[val]
            checked += 1
    passline(6, "boundary identity on 10^4 samples, locked discriminant, "
                "value 96, and 100 coprime values inside the curvature set")


def test_criterion_07_exp_sum_oracle(sf_closed_error, sf_bound):
    for q0 in range(1, 50, 2):
        assert sf_closed_error[q0] < 1e-9, q0
    worst_odd = max(sf_bound[q0] for q0 in range(1, 201, 2))
    worst_even = max(sf_bound[q0] for q0 in range(2, 201, 2))
    assert worst_odd <= 1.0 + 1e-9
    assert worst_even == pytest.approx(2.0**0.5)  # documented 2-adic constant
    passline(7, "closed form = direct sum exhaustively (odd q0 <= 49, all r, "
                "all n, m); square-root bound exhaustive for odd q0 <= 200 "
                "with even worst constant sqrt(2)")


@pytest.mark.xfail(strict=True,
                   reason="|S_f(2,1;0,1)| = 1 > 2^{-1/2}: the square-root "
                          "bound needs the 2-adic correction sqrt(2)")
def test_criterion_07_stated_bound_all_moduli(sf_bound):
    worst = max(sf_bound[q0] for q0 in range(1, 201))
    assert worst <= 1.0 + 1e-9


def test_criterion_08_s_identities(crt_mismatches):
    full = s_avg(9, 3, F0, F0, 1, 2, 1, 2, u0=1)
    short = sum(sf_table(F0, 3, r)[1, 2] * np.conj(sf_table(F0, 3, r)[1, 2])
                for r in (1, 2))
    assert abs(full - 3 * short) < 1e-9
    assert crt_mismatches == 0
    passline(8, "coset reduction at (q, q0) = (9, 3) and multiplicativity "
                "exhaustive over coprime products up to 200")


def test_criterion_09_singular_series(registry):
    ns = np.arange(1, 10001)
    vals = es.singular_series_sweep(ns, ROOT, 13)
    adm = np.array([n % 24 in cg.admissible_classes(24, ROOT) for n in ns])
    assert ((vals > 0) == adm).all()
    registry.check("acceptance.singular_96", es.singular_series(96, ROOT))
    registry.check("acceptance.singular_sum_1e4", float(vals.sum()))
    passline(9, "singular series vanishes exactly on the non-admissible "
                "sweep of [1, 10^4] at P = 13; positive values frozen")


def test_criterion_10_local_lemmata(family_8):
    for d in (11, 121):
        assert forms.kl_lift_check(10, 7, 17, d)
    assert forms.zero_pairs_count(10, 7, 17, 11, 11) == \
        zero_pairs_bruteforce(10, 7, 17, 11, 11)
    assert forms.zero_pairs_count(10, 7, 17, 121, 50) == \
        zero_pairs_bruteforce(10, 7, 17, 121, 50)
    f = ShiftedForm(*(int(v) for v in family_8.forms[0]))
    assert forms.coincidence_count(f, family_8, 12) == \
        coincidence_bruteforce(f, family_8, 12)
    passline(10, "(k,l) lifts exhaustive at d in {11,121}, zero-pair sieve "
                 "and coincidence join match brute force")


def test_criterion_11_appendix_generators():
    assert sp.generator_correspondence_check()["all_match"]
    import itertools
    h1 = sp.closure_sl2(4, sp.H1_GENS)
    got = {tuple(int(x) for x in row) for row in h1.elements}
    want = {(a, 0, b, 0, c, 0, d, 0)
            for a, b, c, d in itertools.product(range(4), repeat=4)
            if (a * d - b * c) % 4 == 1 and b % 4 == 0}
    assert got == want
    for m in (8, 10, 12):
        assert sp.local_identity_check(2, m)["all_hold"]
    for m in (1, 2, 3):
        assert sp.local_identity_check(3, m)["all_hold"]
    for (p, m) in ((5, 1), (5, 3), (7, 2)):
        for a in range(1, p):
            assert sp.unipotent_conjugation_identity(p, m, a)
    passline(11, "twist correspondence, b=0(4) characterization, all six "
                 "mod-2^m and three mod-3^m identities, p >= 5 unipotent "
                 "identity over all units")


def test_criterion_12_spectral_gap(registry):
    for q in (2, 3, 4, 5, 8):
        lam1 = sp.markov_spectrum(q).eigenvalues[1]
        assert lam1 < 1 - 1e-3
        registry.check(f"acceptance.lambda1_q{q}", lam1)
    for q in (2, 4):
        rep = sp.transference_check(sp.markov_spectrum(q))
        assert rep.holds
    passline(12, "lambda1 < 1 - 1e-3 for q in {2,3,4,5,8} (frozen to 1e-6); "
                 "transference inequality holds at q in {2,4}")


def test_criterion_13_circle_method(family_8):
    rep = es.representation_number(family_8, 32)
    n_scale = family_8.t * 32 * 32
    dec = es.major_arc_decomposition(rep, es.bump_on_grid(n_scale, 8, 64.0, 1 << 16))
    resid = np.abs(dec.major + dec.error - dec.folded).max()
    assert resid <= 1e-6 * max(np.abs(dec.folded).max(), 1.0)
    assert rep.witnesses.shape == (rep.values.size, 3)
    for n, w, (idx, x, y) in zip(rep.values.tolist(), rep.weights.tolist(),
                                 rep.witnesses.tolist()):
        assert w > 0
        assert cg.is_admissible(n, ROOT)
        gam = tuple(map(tuple, family_8.mats[idx].tolist()))
        quad = core.mat_vec(core.mat_mul(core.xi(x, y), gam), ROOT)
        assert quad[3] == n
        assert core.reduce_to_root(quad)[0] == ROOT
    diffs = [l1_distance(rep, es.representation_number(family_8, 32, truncation=u))
             for u in (2, 4, 8)]
    assert diffs[0] > diffs[1] > diffs[2]
    passline(13, "M + E = R to 1e-6 on the 2^16 grid, every represented n "
                 "certified admissible and in the gasket, L1 Moebius "
                 "truncation decreasing over U in {2,4,8}")
