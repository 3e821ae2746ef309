import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apollonian import core

ROOT = (-11, 21, 24, 28)


def mat_det(m: core.Mat4):
    # Laplace along first row; matrices here are 4x4 and exact.
    def det3(r):
        (a, b, c), (d, e, f), (g, h, i) = r
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)

    total = 0
    for j in range(4):
        minor = tuple(
            tuple(m[r][c] for c in range(4) if c != j) for r in range(1, 4)
        )
        total += (-1) ** j * m[0][j] * det3(minor)
    return total


def mat_transpose(m: core.Mat4) -> core.Mat4:
    return tuple(tuple(m[j][i] for j in range(4)) for i in range(4))


def preserves_descartes(m: core.Mat4) -> bool:
    return core.mat_mul(mat_transpose(m), core.mat_mul(core.GRAM, m)) == core.GRAM


def test_descartes_form_values():
    assert core.descartes_form(ROOT) == 0
    assert core.descartes_form((0, 0, 1, 1)) == 0
    assert core.descartes_form((1, 1, 1, 1)) == -8  # 2*4 - 16


def test_gram_signature():
    # characteristic polynomial of 2I - J factors as (x+2)(x-2)^3
    x = Fraction(0)
    # evaluate det(GRAM - tI) at enough points to pin the quartic exactly
    def charpoly_at(t):
        m = tuple(tuple(Fraction(core.GRAM[i][j]) - (t if i == j else 0)
                        for j in range(4)) for i in range(4))
        return mat_det(m)
    for t in (-3, -2, -1, 0, 1, 2, 3):
        assert charpoly_at(Fraction(t)) == (t + 2) * (t - 2) ** 3


def test_reflections():
    s1 = core.reflection(1)
    assert core.mat_vec(s1, ROOT) == (157, 21, 24, 28)
    for i in (1, 2, 3, 4):
        s = core.reflection(i)
        assert core.mat_mul(s, s) == core.IDENTITY
        assert preserves_descartes(s)
        assert mat_det(s) == -1
    assert core.mat_mul(core.reflection(4), core.reflection(3)) == (
        (1, 0, 0, 0), (0, 1, 0, 0), (2, 2, -1, 2), (6, 6, -2, 3))
    with pytest.raises(ValueError):
        core.reflection(0)


def test_sum_swap_identity():
    rng = random.Random(1)
    for _ in range(200):
        v = tuple(rng.randint(-50, 50) for _ in range(4))
        a2 = core.apply_reflection(1, v)[0]
        assert v[0] + a2 == 2 * (v[1] + v[2] + v[3])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 4), min_size=0, max_size=8))
def test_reflections_preserve_cone(word):
    v = core.apply_word(word, ROOT)
    assert core.descartes_form(v) == 0
    for i in (1, 2, 3, 4):
        assert core.descartes_form(core.apply_reflection(i, v)) == 0


def test_reduce_to_root():
    assert core.reduce_to_root(ROOT) == (ROOT, [])
    assert core.reduce_to_root((157, 21, 24, 28)) == (ROOT, [1])
    rt, word = core.reduce_to_root((-11, 21, 52, 96))
    assert rt == ROOT and len(word) == 2
    with pytest.raises(core.NotOnConeError):
        core.reduce_to_root((1, 2, 3, 4))
    with pytest.raises(core.NegativeSheetError):
        core.reduce_to_root((11, -21, -24, -28))


def test_reduce_round_trip():
    rng = random.Random(7)
    for _ in range(100):
        word = [rng.randint(1, 4) for _ in range(rng.randint(0, 10))]
        v = core.apply_word(word, ROOT)
        rt, back = core.reduce_to_root(v)
        assert rt == ROOT
        assert core.apply_word(list(reversed(back)), rt) == v


def unipotent_c2_power(n: int):
    """C2^n = (S2 S3)^n."""
    return (
        (1, 0, 0, 0),
        (4 * n * n + 2 * n, 2 * n + 1, -2 * n, 4 * n * n + 2 * n),
        (4 * n * n - 2 * n, 2 * n, 1 - 2 * n, 4 * n * n - 2 * n),
        (0, 0, 0, 1),
    )


def test_unipotent_powers():
    assert core.unipotent_c1_power(0) == core.IDENTITY
    assert core.unipotent_c1_power(1) == core.C1
    assert core.unipotent_c1_power(2)[3] == (20, 20, -4, 5)
    assert core.C2 == ((1, 0, 0, 0), (6, 3, -2, 6), (2, 2, -1, 2), (0, 0, 0, 1))
    for n in (-4, -1, 0, 1, 2, 7):
        via_spin = core.mat_mul(
            core.J_CONJ,
            core.mat_mul(core.spin_rho(((1, 2 * n), (0, 1))), core.J_CONJ_INV))
        assert tuple(tuple(int(x) for x in r) for r in via_spin) == \
            core.unipotent_c1_power(n)
        via_spin2 = core.mat_mul(
            core.J_CONJ,
            core.mat_mul(core.spin_rho(((1, 0), (2 * n, 1))), core.J_CONJ_INV))
        assert tuple(tuple(int(x) for x in r) for r in via_spin2) == \
            unipotent_c2_power(n)


def test_spin_rho_display():
    assert core.spin_rho(((1, 2), (0, 1))) == (
        (1, 0, 0, 0), (0, 1, 0, 0), (0, 2, 1, 0), (0, 4, 4, 1))
    assert core.spin_rho(((1, 0), (2, 1))) == (
        (1, 0, 0, 0), (0, 1, 4, 4), (0, 0, 1, 2), (0, 0, 0, 1))
    assert core.spin_rho(((1, 0), (0, 1))) == core.IDENTITY
    with pytest.raises(ZeroDivisionError):
        core.spin_rho(((1, 1), (1, 1)))


@settings(max_examples=40, deadline=None)
@given(st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9),
       st.integers(-9, 9))
def test_spin_rho_multiplication_rule(a, b, c, d):
    # the displayed matrix composes in the reversed order (see docstring);
    # the kernel still contains -I and powers behave as for a homomorphism
    g = core.m2_mul(((1, a), (0, 1)), ((1, 0), (b, 1)))
    h = core.m2_mul(((1, c), (0, 1)), ((1, 0), (d, 1)))
    lhs = core.mat_mul(core.spin_rho(g), core.spin_rho(h))
    assert lhs == core.spin_rho(core.m2_mul(h, g))
    neg = tuple(tuple(-x for x in row) for row in g)
    assert core.spin_rho(neg) == core.spin_rho(g)
    sq = core.m2_mul(g, g)
    assert core.mat_mul(core.spin_rho(g), core.spin_rho(g)) == core.spin_rho(sq)


def test_w_vector_and_xi():
    assert core.w_vector(0, 1) == (0, 0, 0, 1)
    assert core.w_vector(1, 1) == (6, 6, -2, 3)
    assert core.w_vector(1, -1) == (2, 2, 2, -1)
    assert core.xi(0, 1) == core.IDENTITY
    for (x, y) in ((0, 1), (1, 1), (1, -1), (2, 3), (-3, 5), (4, -7), (0, -1),
                   (6, 13), (-5, -9)):
        m = core.xi(x, y)
        assert m[3] == core.w_vector(x, y)
        assert m[0] == (1, 0, 0, 0)
        assert preserves_descartes(m)
        assert mat_det(m) == 1
    # the integer product against J rho J^-1 in Fractions
    rng = random.Random(7)
    checked = 0
    while checked < 300:
        x, y = rng.randint(-60, 60), rng.randint(-60, 60)
        if gcd(2 * x, y) != 1:
            continue
        r = core.spin_rho(core.lambda2_completion(x, y))
        assert core.xi(x, y) == core.mat_mul(core.J_CONJ, core.mat_mul(r, core.J_CONJ_INV))
        checked += 1
    with pytest.raises(core.CompletionError):
        core.xi(1, 2)  # gcd(2, 2) != 1
    with pytest.raises(core.CompletionError):
        core.xi(3, 9)


def test_xi_completion_independence():
    # the bottom row must not depend on the chosen completion column
    for (x, y) in ((1, 3), (2, -5), (-4, 7)):
        p, s = core.lambda2_completion(x, y)[0][0], core.lambda2_completion(x, y)[1][0]
        # alternative completion: shift by (2x, y)
        alt = ((p + 2 * x, 2 * x), (s + y, y))
        assert alt[0][0] * y - 2 * x * alt[1][0] == 1
        r = core.spin_rho(alt)
        m = core.mat_mul(core.J_CONJ, core.mat_mul(r, core.J_CONJ_INV))
        assert tuple(int(v) for v in m[3]) == core.w_vector(x, y)


def test_gamma_membership_words():
    # gamma_word certifies products of the free generators
    rng = random.Random(3)
    gens = core.GAMMA_GENERATORS + core.GAMMA_GENERATOR_INVERSES
    for _ in range(50):
        m = core.IDENTITY
        for _ in range(rng.randint(0, 6)):
            m = core.mat_mul(m, gens[rng.randrange(6)])
        w = core.gamma_word(m)
        assert w is not None
        assert core.word_to_matrix(w) == m
    # odd words are rejected
    assert core.gamma_word(core.reflection(1)) is None


def test_root_stabilizer_trivial_to_length_6():
    # no nonempty reduced word of length <= 6 fixes the root quadruple
    seen = {ROOT: 0}
    frontier = [(ROOT, 0)]
    for _ in range(6):
        nxt = []
        for v, last in frontier:
            for i in (1, 2, 3, 4):
                if i == last:
                    continue
                w = core.apply_reflection(i, v)
                assert w != ROOT
                nxt.append((w, i))
        frontier = nxt


def test_iota_generators_and_homomorphism():
    words = []
    for g in core.SPIN_PREIMAGE_GENERATORS:
        m = core.iota(g)
        assert all(isinstance(x, int) for row in m for x in row)
        assert preserves_descartes(m)
        w = core.gamma_word(m)
        assert w is not None and len(w) == 2
        words.append(tuple(w))
    # the three generators map onto the standard generating products
    assert set(words) == {(4, 1), (2, 1), (3, 1)}  # S1S4, S1S2, S1S3

    ident = ((core.gi(1), core.gi(0)), (core.gi(0), core.gi(1)))
    assert core.iota(ident) == core.IDENTITY

    rng = random.Random(11)

    def rnd():
        g = ident
        for _ in range(5):
            t = core.gi(rng.randint(-3, 3), rng.randint(-3, 3))
            if rng.random() < 0.5:
                e = ((core.gi(1), t), (core.gi(0), core.gi(1)))
            else:
                e = ((core.gi(1), core.gi(0)), (t, core.gi(1)))
            g = core.m2_mul(g, e)
        return g

    for _ in range(15):
        a, b = rnd(), rnd()
        A, B = core.iota(a), core.iota(b)
        assert core.mat_mul(A, B) == core.iota(core.m2_mul(a, b))
        assert preserves_descartes(A)
        assert core.iota(core.m2_neg(a)) == A

    with pytest.raises(ValueError):
        core.iota(((core.gi(2), core.gi(0)), (core.gi(0), core.gi(1))))
