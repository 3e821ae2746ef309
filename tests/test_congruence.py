from math import gcd

import numpy as np
import pytest

from apollonian import congruence as cg
from apollonian import core
from apollonian import spectral as sp
from apollonian.orbit import CapExceededError

ROOT = (-11, 21, 24, 28)
GENS6 = core.GAMMA_GENERATORS + core.GAMMA_GENERATOR_INVERSES


def reference_closure(start, images):
    """Plain breadth-first closure over a Python set of tuples."""
    seen, frontier = {start}, [start]
    while frontier:
        nxt = []
        for x in frontier:
            for y in images(x):
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def element_set(closure):
    """The rows of a QuotientClosure as a set of bytes."""
    return {row.tobytes() for row in closure.elements}


def so_f_order_pairs(p: int) -> int:
    """Cross-check of so_f_order via a 2-transitive (pair-orbit) decomposition.

    |O(Q_4)| = #{v : Q(v)=c1} * #{w : Q(w)=c2, B(v0,w)=t} * |O(Q_2'')| for the
    stabilizer of a fixed nondegenerate pair, counted by brute force.
    """
    if p in (2, 3) or p > 13:
        raise ValueError("oracle supports primes 5 <= p <= 13")
    gram = np.array(core.GRAM, dtype=np.int64) % p
    u1 = cg._anisotropic_vector(gram, p)
    c1 = int(u1 @ gram @ u1 % p)
    n1 = cg._count_norm(gram, p, c1)
    # second vector: anisotropic in the complement
    g3, b3 = cg._orthogonal_complement_gram(gram, u1, p)
    u2r = cg._anisotropic_vector(g3, p)
    u2 = (b3 @ u2r) % p
    c2 = int(u2 @ gram @ u2 % p)
    t = int(u1 @ gram @ u2 % p)
    # count w with Q(w)=c2, B(u1,w)=t
    grids = np.meshgrid(*[np.arange(p)] * 4, indexing="ij")
    v = np.stack([g.ravel() for g in grids])
    qv = np.einsum("in,ij,jn->n", v, gram, v) % p
    bv = (u1 @ gram @ v) % p
    m = int(((qv == c2 % p) & (bv == t % p)).sum())
    # stabilizer of the pair: O of the 2-dim complement, brute force over 2x2
    g2h, b2 = cg._orthogonal_complement_gram(gram, u1, p)
    # restrict again by u2r inside the 3-dim space
    g2, _ = cg._orthogonal_complement_gram(g2h, u2r, p)
    cnt = 0
    for a in range(p):
        for b in range(p):
            for c in range(p):
                for d in range(p):
                    m22 = np.array([[a, b], [c, d]], dtype=np.int64)
                    if ((m22.T @ g2 @ m22) % p == g2 % p).all():
                        cnt += 1
    return n1 * m * cnt // 2


def test_quotient_closure_matches_reference():
    for q in range(1, 7):
        def images(x):
            m = np.array(x, dtype=np.int64).reshape(4, 4)
            return [tuple((m @ np.array(g) % q).ravel().tolist()) for g in GENS6]
        ref = reference_closure(tuple(np.eye(4, dtype=int).ravel() % q), images)
        assert cg.quotient_closure(q).elements.tolist() == sorted(map(list, ref)), q


def test_closure_sl2_matches_reference():
    def encode(m, q):
        return tuple(x % q for row in m for e in row for x in (e.re, e.im))

    def decode(t):
        e = [core.gi(t[k], t[k + 1]) for k in range(0, 8, 2)]
        return ((e[0], e[1]), (e[2], e[3]))

    for q in range(1, 6):
        for gens in (sp.S_BAR, sp.H1_GENS, sp.H2_GENS):
            def images(x):
                return [encode(core.m2_mul(decode(x), g), q) for g in gens]
            ref = reference_closure((1 % q, 0, 0, 0, 0, 0, 1 % q, 0), images)
            got = sp.closure_sl2(q, gens).elements.tolist()
            assert got == sorted(map(list, ref)), q


def test_vector_orbit_matches_reference():
    # q = 300 needs residues wider than a byte; rows stay in lexicographic order
    for q in (1, 8, 24, 25, 300):
        def images(v):
            a, b, c, d = v
            return [tuple((r0 * a + r1 * b + r2 * c + r3 * d) % q for r0, r1, r2, r3 in g)
                    for g in GENS6]
        ref = reference_closure(tuple(x % q for x in ROOT), images)
        orb = cg.vector_orbit(ROOT, q)
        assert orb.dtype == np.int64
        assert orb.tolist() == sorted(map(list, ref)), q


@pytest.mark.parametrize("dtype,cols", [
    # uint8 rows of 1, 2, 4 and 8 bytes, and big-endian uint16 rows of 2, 4
    # and 8 bytes, as vector_orbit builds them for q > 256
    (np.uint8, 1), (np.uint8, 2), (np.uint8, 4), (np.uint8, 8),
    (">u2", 1), (">u2", 2), (">u2", 4),
])
def test_integer_keys_order_rows_as_void_keys(dtype, cols):
    rng = np.random.default_rng(cols)
    hi = np.iinfo(np.dtype(dtype)).max
    # a small range as well as the full one, so that equal rows occur
    for top in (3, hi):
        rows = rng.integers(0, top, size=(4000, cols), endpoint=True).astype(dtype)
        keys = cg._row_keys(rows)
        assert keys.dtype.kind == "u" and keys.dtype.isnative
        void = rows.view(np.dtype((np.void, rows.dtype.itemsize * cols))).ravel()
        order = np.argsort(keys, kind="stable")
        assert (order == np.argsort(void, kind="stable")).all()
        assert ((keys[1:] == keys[:-1]) == (void[1:] == void[:-1])).all()
        back = cg._key_rows(keys[order], rows)
        assert back.dtype == rows.dtype and (back == rows[order]).all()
        assert back.tolist() == sorted(rows.tolist())


def test_trivial_and_small_orders():
    assert cg.quotient_order(1) == 1
    # every generator of Gamma reduces to the identity mod 2
    assert cg.quotient_order(2) == 1
    assert cg.quotient_order(4) == 8
    assert cg.quotient_order(8) == 64


@pytest.fixture(scope="module")
def closure_15():
    return cg.quotient_closure(15)


def test_multiplicativity(closure_15):
    assert cg.quotient_order(6) == cg.quotient_order(2) * cg.quotient_order(3)
    assert closure_15.order == cg.quotient_order(3) * cg.quotient_order(5)


def test_power_stabilization():
    # powers of 2 stabilize at 8: one more factor of 2 scales by 2^6
    assert cg.quotient_order(16) == 2**6 * cg.quotient_order(8)
    # powers of 3 stabilize at 3: the kernel of mod-9 -> mod-3 has order 3^6
    assert cg.quotient_order(9) == 3**6 * cg.quotient_order(3)


def test_closure_idempotent_and_group_axioms():
    cl = cg.quotient_closure(5)
    elems = element_set(cl)
    # closed under the generators; identity present
    ident = (np.eye(4, dtype=np.int64) % 5).astype(np.uint8).reshape(1, 16)
    assert ident.tobytes() in elems
    gens = np.array(core.GAMMA_GENERATORS, dtype=np.int64) % 5
    sample = cl.elements[:50].reshape(-1, 4, 4).astype(np.int64)
    for g in gens:
        prods = (sample @ g % 5).astype(np.uint8).reshape(-1, 16)
        for row in prods:
            assert row.tobytes() in elems
    # every element preserves the Gram matrix mod q and has det 1
    gram = np.array(core.GRAM, dtype=np.int64) % 5
    for row in cl.elements[:200]:
        m = row.reshape(4, 4).astype(np.int64)
        assert ((m.T @ gram @ m) % 5 == gram).all()
        assert round(np.linalg.det(m)) % 5 == 1


def test_projection_compatibility(closure_15):
    # mod-q1 reduction of the closure mod q1*q2 equals the closure mod q1
    small = cg.quotient_closure(3)
    reduced = cg._key_rows(np.unique(cg._row_keys(closure_15.elements % 3)),
                           closure_15.elements)
    assert reduced.shape[0] == small.order
    got = {r.tobytes() for r in reduced}
    want = element_set(small)
    assert got == want


def test_so_f_order_oracle():
    # the independent sphere-count recursion, cross-checked two ways
    assert cg.so_f_order(5) == so_f_order_pairs(5)
    assert cg.so_f_order(7) == so_f_order_pairs(7)
    # split/non-split type orders for the Descartes form (disc -16):
    # q^2 (q^2-1) (q^2 - chi(q)) with chi(5) = +1, chi(7) = -1
    assert cg.so_f_order(5) == 25 * 24 * 24
    assert cg.so_f_order(7) == 49 * 48 * 50


def test_quotient_vs_so_f_spinor_index():
    """Strong approximation lands Gamma in the spinor kernel: the quotient
    is exactly half of SO_F(F_p).  All four reflections are mirrors of
    norm-one vectors, so every even word has trivial spinor norm; the
    often-quoted identification with all of SO_F overcounts by this
    index 2.
    """
    for p in (5, 7):
        assert 2 * cg.quotient_order(p) == cg.so_f_order(p)


def test_admissible_classes():
    assert sorted(cg.admissible_classes(24, ROOT)) == [0, 4, 12, 13, 16, 21]
    assert cg.admissible_classes(1, ROOT) == {0}
    assert sorted(cg.admissible_classes(2, ROOT)) == [0, 1]
    # divisor compatibility: classes mod d are the mod-d reductions
    for d in (2, 3, 4, 6, 8, 12):
        lhs = cg.admissible_classes(d, ROOT)
        rhs = {c % d for c in cg.admissible_classes(24, ROOT)}
        assert lhs == rhs


def test_is_admissible():
    assert cg.is_admissible(96, ROOT)
    assert not cg.is_admissible(5, ROOT)
    from apollonian import orbit
    vals = orbit.enumerate_curvatures(ROOT, 10**4).values()
    assert all(cg.is_admissible(int(n), ROOT) for n in vals[:500])
    assert np.isin(vals % 24, sorted(cg.admissible_classes(24, ROOT))).all()


def test_stabilizer_index():
    """The affine orbit of the root mod q has size of order q^3; the count
    of scalar classes has size of order q^2.  (The source text calls the
    index 'of order q^2'; that matches the projective count, computed
    here alongside the affine one.)"""
    assert cg.stabilizer_index(1, ROOT) == 1
    assert cg.stabilizer_index_projective(1, ROOT) == 1
    for q in (5, 7, 11, 13):
        idx = cg.stabilizer_index(q, ROOT)
        proj = cg.stabilizer_index_projective(q, ROOT)
        assert q**3 / 8 <= idx <= 8 * q**3
        assert q * q / 8 <= proj <= 8 * q * q
    assert cg.stabilizer_index(35, ROOT) == \
        cg.stabilizer_index(5, ROOT) * cg.stabilizer_index(7, ROOT)


def reference_stabilizer_index_projective(q: int, root=ROOT) -> int:
    """Oracle for stabilizer_index_projective: walk the orbit rows, count
    each row not yet seen, and mark every unit multiple of it as seen."""
    seen = set()
    count = 0
    for r in cg._orbit_cached(tuple(root), q).tolist():
        if tuple(r) in seen:
            continue
        count += 1
        for lam in range(1, q):
            if gcd(lam, q) == 1:
                seen.add(tuple(lam * x % q for x in r))
    return count


@pytest.mark.parametrize("q", [*range(1, 14), 15, 16, 24, 25, 27, 35, 49])
def test_stabilizer_index_projective_matches_reference(q):
    assert cg.stabilizer_index_projective(q, ROOT) == reference_stabilizer_index_projective(q)


def test_stabilizer_exact_values(registry):
    for q in (5, 7, 11, 13):
        registry.check(f"congruence.orbit_size_{q}", cg.stabilizer_index(q, ROOT))


def test_caps(monkeypatch):
    # the uncached closures: _orbit_cached and _closure_cached return an
    # earlier result whatever the cap
    monkeypatch.setattr(cg, "QUOTIENT_CAP", 100)
    with pytest.raises(CapExceededError):
        cg.quotient_closure(7)
    with pytest.raises(CapExceededError):
        cg.quotient_closure(300)
    monkeypatch.setattr(sp, "CLOSURE_CAP", 100)
    with pytest.raises(CapExceededError):
        sp.closure_sl2(7)
    with pytest.raises(CapExceededError):
        sp.closure_sl2(300)
    # 4 (q - 1)^2 passes int64 above 2^30: the modulus is refused first
    for q in (2**30 + 1, 3_000_000_000, 10**20):
        with pytest.raises(CapExceededError, match=f"modulus {q} is above the cap"):
            cg.vector_orbit(ROOT, q)
    monkeypatch.setattr(cg, "ORBIT_CAP", 100)
    with pytest.raises(CapExceededError):
        cg.vector_orbit(ROOT, 49)
