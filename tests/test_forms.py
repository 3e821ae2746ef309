import random
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apollonian import core, forms, orbit

ROOT = (-11, 21, 24, 28)
GENS = core.GAMMA_GENERATORS + core.GAMMA_GENERATOR_INVERSES


def same_class(f1, f2) -> bool:
    return forms.reduce_class(f1) == forms.reduce_class(f2)


def rand_gamma(rng, max_len=8):
    m = core.IDENTITY
    last = None
    for _ in range(rng.randint(0, max_len)):
        while True:
            k = rng.randrange(6)
            if last is None or k != (last + 3) % 6:
                break
        last = k
        m = core.mat_mul(m, GENS[k])
    return m


def test_identity_form():
    f = forms.extract_form(core.IDENTITY, ROOT)
    assert (f.A, f.B, f.C, f.a) == (10, 7, 17, -11)
    assert f.discriminant() == -484 == 4 * (49 - 170)
    assert forms.evaluate(f, 0, 1) == 28
    assert forms.evaluate(f, 1, 1) == 96


def test_discriminant_always_locked():
    rng = random.Random(5)
    for _ in range(100):
        g = rand_gamma(rng)
        f = forms.extract_form(g, ROOT)
        assert f.discriminant() == -4 * f.a * f.a
        assert f.a != 0 and f.A > 0 and f.A * f.C - f.B * f.B > 0
    with pytest.raises(ValueError):
        forms.ShiftedForm(1, 1, 1, 5)


def test_boundary_identity_with_core():
    rng = random.Random(6)
    for _ in range(300):
        g = rand_gamma(rng)
        x, y = rng.randint(-15, 15), rng.randint(-15, 15)
        f = forms.extract_form(g, ROOT)
        v = core.mat_vec(g, ROOT)
        w = core.w_vector(x, y)
        assert forms.evaluate(f, x, y) == sum(a * b for a, b in zip(w, v))


def test_values_are_curvatures(curvatures_1e6):
    present = curvatures_1e6.to_bool()
    f = forms.extract_form(core.IDENTITY, ROOT)
    rng = random.Random(2)
    checked = 0
    while checked < 100:
        x, y = rng.randint(-10, 10), rng.randint(-10, 10)
        if gcd(2 * x, y) != 1:
            continue
        v = forms.evaluate(f, x, y)
        if 1 <= v <= 10**6:
            assert present[v], (x, y, v)
            checked += 1


def test_tangency_parabola():
    assert forms.tangency_parabola(ROOT, 0) == 28
    assert forms.tangency_parabola(ROOT, -1) == 40
    assert forms.tangency_parabola(ROOT, 1) == 96
    for n in range(-5, 6):
        v = core.mat_vec(core.unipotent_c1_power(n), ROOT)
        assert v[3] == forms.tangency_parabola(ROOT, n)


def test_gl2_action():
    f = forms.extract_form(core.IDENTITY, ROOT)
    assert forms.gl2_act(f, ((1, 0), (0, 1))) == f
    assert forms.gl2_act(f, ((1, 0), (1, 1))).A == 41
    with pytest.raises(ValueError):
        forms.gl2_act(f, ((2, 0), (0, 1)))


@settings(max_examples=60, deadline=None)
@given(st.integers(-6, 6), st.integers(-6, 6))
def test_gl2_discriminant_invariance(t, s):
    f = forms.ShiftedForm(10, 7, 17, -11)
    g1 = ((1, t), (0, 1))
    g2 = ((1, 0), (s, 1))
    acted = forms.gl2_act(forms.gl2_act(f, g1), g2)
    assert acted.discriminant() == f.discriminant()
    prod = ((1 + t * s, t), (s, 1))
    assert acted == forms.gl2_act(f, prod)     # right action composes
    assert same_class(f, acted)


def test_reduction():
    rc = forms.reduce_class((10, 7, 17))
    assert (rc.A, rc.B, rc.C) == (10, -3, 13)
    assert rc.discriminant() == -484
    assert forms.reduce_class((10, -3, 13)) == rc   # idempotent
    assert forms.reduce_class((1, 0, 121)) != rc
    with pytest.raises(ValueError):
        forms.reduce_class((1, 5, 1))
    # boundary convention: B >= 0 on |2B| = A or A = C
    bc = forms.reduce_class((2, -1, 61))
    assert bc == forms.FormClass(2, 1, 61)


def test_reduced_forms_catalog():
    cat = forms.reduced_forms_of_discriminant(11)
    assert forms.FormClass(1, 0, 121) in cat
    assert forms.FormClass(10, -3, 13) in cat
    assert all(c.discriminant() == -484 for c in cat)
    assert all(2 * abs(c.B) <= c.A <= c.C for c in cat)


def test_representing_classes_vs_bruteforce():
    for z in (1, 2, 4, 9, 11, 17, 28, 30, 96, 121, 242):
        assert forms.representing_classes(z, -11) == \
            forms.representing_classes_bruteforce(z, -11), z
    # the identity-derived class (10,7,17) takes the value 17 at (0, 1)
    assert forms.representing_classes(17, -11) >= 1
    assert forms.representing_classes(10, -11) >= 1


def test_representing_classes_gcd_ratio(registry):
    worst = 0.0
    for z in range(1, 10001, 37):
        c = forms.representing_classes(z, -11)
        worst = max(worst, c / gcd(z, 484) ** 0.5)
    registry.check("forms.representing_ratio_a11", worst)


def test_kl_lift():
    assert forms.kl_lift(10, 7, 17, 1) == (1, 0)
    assert forms.kl_lift(10, 7, 17, 11) == (1, 4)
    for d in (11, 121):
        assert forms.kl_lift_check(10, 7, 17, d)
    # a case with p | A
    assert forms.kl_lift_check(11, 11, 12, 11)
    with pytest.raises(ValueError):
        forms.kl_lift(10, 7, 17, 7)


def zero_pairs_bruteforce(A, B, C, d, M) -> int:
    """Oracle for forms.zero_pairs_count: every pair tested one at a time."""
    cnt = 0
    for m in range(M):
        for n in range(M):
            if (A * m * m + 2 * B * m * n + C * n * n) % d == 0:
                cnt += 1
    return cnt


def coincidence_bruteforce(form, family, M: int) -> int:
    """Oracle for forms.coincidence_count: every quadruple (m, n, m', n')
    compared one at a time."""
    total = 0
    rng = range(M)
    for A, B, C, a in family.forms:
        if a != form.a:
            continue
        A, B, C, a = int(A), int(B), int(C), int(a)
        for m in rng:
            for n in rng:
                lhs = form.A * m * m - 2 * form.B * m * n + form.C * n * n - form.a
                for m2 in rng:
                    for n2 in rng:
                        if lhs == A * m2 * m2 - 2 * B * m2 * n2 + C * n2 * n2 - a:
                            total += 1
    return total


def test_zero_pairs():
    assert forms.zero_pairs_count(10, 7, 17, 1, 13) == 169
    for (d, M) in ((11, 11), (121, 50), (11, 100)):
        assert forms.zero_pairs_count(10, 7, 17, d, M) == \
            zero_pairs_bruteforce(10, 7, 17, d, M)


def test_zero_pairs_bound(registry):
    worst = 0.0
    for d in (11, 121):
        for M in (100, 1000):
            c = forms.zero_pairs_count(10, 7, 17, d, M)
            worst = max(worst, c / (d ** 0.1 * (M * M / d ** 0.5 + M)))
    registry.check("forms.zero_pairs_ratio", worst)


def test_coincidences(family_8):
    f = forms.ShiftedForm(*(int(v) for v in family_8.forms[0]))
    assert forms.coincidence_count(f, family_8, 1) == \
        int((family_8.a == f.a).sum())
    assert forms.coincidence_count(f, family_8, 12) == \
        coincidence_bruteforce(f, family_8, 12)


def test_coincidence_ratio(registry, family_8):
    # the frozen ratios belong to this member (gamma1 = gamma2), named here
    # because the family's row order follows the sorted norm shells
    f = forms.ShiftedForm(1418, 711, 929, 901)
    assert [f.A, f.B, f.C, f.a] in family_8.forms.tolist()
    t = family_8.t
    for M in (10, 30, 100):
        c = forms.coincidence_count(f, family_8, M)
        registry.check(f"forms.coincidence_ratio_M{M}", c / (M * M + t * M))


def test_family_class_multiplicity(family_32, registry):
    rep = forms.family_class_multiplicity(family_32)
    registry.check("forms.max_class_multiplicity_T32", rep["max_multiplicity"])
    registry.check("forms.window_hi_T32", rep["window_hi"])
    # A, C of order T and AC of order T^2, with the family's a > T/100
    A, B, C, a = family_32.forms.T
    assert (a * a == A * C - B * B).all()
    assert ((A * C) >= (a * a)).all()
    assert rep["ac_over_t2_min"] > 0
