import numpy as np
import pytest

from apollonian import core, spectral as sp

ROOT = (-11, 21, 24, 28)


def test_generator_correspondence():
    rep = sp.generator_correspondence_check()
    assert rep["all_match"]
    # the first generator commutes with the shear up to the twist: end result
    # is exactly gamma1
    first = rep["matches"][0]
    assert first["twisted"] == sp.GAMMA1
    # second generator lands on gamma2 up to sign
    second = rep["matches"][1]
    assert second["twisted"] in (sp.GAMMA2, core.m2_neg(sp.GAMMA2))


def test_gamma_constants():
    for g in (sp.GAMMA1, sp.GAMMA2, sp.GAMMA3):
        assert core.m2_det(g) == core.gi(1)
    assert len(sp.S_BAR) == 12


def sl2_zi_full_order(q: int) -> int:
    """|SL(2, Z[i]/(q))| by direct enumeration; oracle for small q."""
    if q > 5:
        raise ValueError("full enumeration oracle kept to q <= 5")
    units = [(a, b) for a in range(q) for b in range(q)]
    count = 0
    for a in units:
        for b in units:
            for c in units:
                for d in units:
                    det_re = (a[0] * d[0] - a[1] * d[1] - b[0] * c[0] + b[1] * c[1]) % q
                    det_im = (a[0] * d[1] + a[1] * d[0] - b[0] * c[1] - b[1] * c[0]) % q
                    if det_re == 1 and det_im == 0:
                        count += 1
    return count


def quotient_order_sl2(q: int) -> int:
    return sp._closure_cached(q, sp.S_BAR).order


def test_closure_orders(registry):
    assert quotient_order_sl2(1) == 1
    o2 = quotient_order_sl2(2)
    registry.check("spectral.order_q2", o2)
    assert sl2_zi_full_order(2) == 48
    assert 48 % o2 == 0
    for q in (3, 4, 5, 8):
        registry.check(f"spectral.order_q{q}", quotient_order_sl2(q))
    # mod 5 the closure is everything
    assert quotient_order_sl2(5) == 14400


def test_closure_multiplicativity():
    assert quotient_order_sl2(6) == \
        quotient_order_sl2(2) * quotient_order_sl2(3)
    assert quotient_order_sl2(12) == \
        quotient_order_sl2(4) * quotient_order_sl2(3)


def test_h1_characterization():
    # the subgroup generated by gamma1, gamma2 (with signs) is the b = 0 mod 4
    # subgroup, reduced mod q
    import itertools
    for q in (4, 8, 12):
        h1 = sp.closure_sl2(q, sp.H1_GENS)
        got = {tuple(int(x) for x in row) for row in h1.elements}
        want = set()
        for a, b, c, d in itertools.product(range(q), repeat=4):
            if (a * d - b * c) % q == 1 and b % 4 == 0:
                want.add((a, 0, b, 0, c, 0, d, 0))
        assert got == want, q


def test_alternation_length(registry):
    for q in (2, 3, 4, 8):
        k, sizes = sp.alternation_length(q)
        registry.check(f"spectral.alternation_k_{q}", k)
        assert k <= 72
        assert all(b > a for a, b in zip(sizes, sizes[1:]))  # strict growth
    # multiplicativity compatibility on a computed coprime pair
    assert sp.alternation_length(6)[0] == max(
        sp.alternation_length(2)[0], sp.alternation_length(3)[0])
    assert sp.alternation_length(12)[0] == max(
        sp.alternation_length(4)[0], sp.alternation_length(3)[0])


def reference_alternation(q, k_max=64):
    """(H1 H2)^k by right multiplication with every element of H1 and of H2,
    through one |H| x |G| index table per subgroup: the set products
    alternation_length computed before it went through the generators,
    kept as the oracle.  Returns (k, sizes)."""
    G = sp.closure_sl2(q)
    tables = []
    for gens in (sp.H1_GENS, sp.H2_GENS):
        H = sp.closure_sl2(q, gens)
        tables.append(np.stack([G.index_of(sp._gmul(G.elements, h, q))
                                for h in H.elements]))
    current = np.zeros(G.order, dtype=bool)
    current[G.index_of(sp._encode([sp.IDENTITY2], q))] = True
    sizes = []
    for k in range(1, k_max + 1):
        for table in tables:
            nxt = np.zeros_like(current)
            nxt[table[:, current]] = True
            current = nxt
        sizes.append(int(current.sum()))
        if sizes[-1] == G.order:
            return k, sizes
    raise AssertionError(f"reference alternation exceeded {k_max} for q={q}")


@pytest.mark.parametrize("q", [2, 3, 4, 5, 6, 8, 12])
def test_alternation_matches_reference(q):
    assert sp.alternation_length(q) == reference_alternation(q)


def test_gmul_exact_at_largest_modulus():
    # every residue at most 254, so the int32 products reach 4 * 254^2
    q = 255
    rng = np.random.default_rng(255)
    x = rng.integers(0, q, size=(200, 8)).astype(np.uint8)
    y = rng.integers(0, q, size=(200, 8)).astype(np.uint8)
    x[0] = y[0] = q - 1
    x[1], y[1] = [q - 1, 0] * 4, [0, q - 1] * 4

    def decode(t):
        e = [core.gi(int(t[k]), int(t[k + 1])) for k in range(0, 8, 2)]
        return ((e[0], e[1]), (e[2], e[3]))

    want = [[v % q for row in core.m2_mul(decode(a), decode(b)) for e in row
             for v in (e.re, e.im)] for a, b in zip(x, y)]
    assert sp._gmul(x, y, q).tolist() == want


def reference_left_mult_perms(q, s_mats):
    """perms[k][i] = index of s_k g_i by a dict lookup of each product,
    with the distinct generators mod q in the order of their encoded rows."""
    def encode(m):
        return tuple(x % q for row in m for e in row for x in (e.re, e.im))

    def decode(t):
        e = [core.gi(t[k], t[k + 1]) for k in range(0, 8, 2)]
        return ((e[0], e[1]), (e[2], e[3]))

    elements = sp.closure_sl2(q, s_mats).elements.tolist()
    index = {tuple(row): i for i, row in enumerate(elements)}
    gens = {encode(s): s for s in s_mats}
    return np.array([[index[encode(core.m2_mul(gens[key], decode(g)))] for g in elements]
                     for key in sorted(gens)])


def full_walk_perms(q, s_mats):
    """perms[k][i] = index of s_k g_i over the whole of G, for each distinct s_k mod q."""
    G = sp._closure_cached(q, s_mats)
    enc = np.unique(sp._encode(s_mats, q), axis=0)
    return np.stack([G.index_of(sp._gmul(s, G.elements, q)) for s in enc])


@pytest.mark.parametrize("q", [2, 3, 4, 5, 6])
def test_left_mult_perms_match_reference(q):
    # _class_perms is the left multiplication of G folded to the classes
    # {g, -g}: cls names the pairs, and each row is the fold of the
    # reference permutation of some s, one row for each pair {s, -s}
    for gens in (sp.S_BAR, sp.H1_GENS, sp.H2_GENS):
        G = sp.closure_sl2(q, gens)
        genc = sp._walk_generators(gens, q)
        perms, cls = sp._class_perms(G, genc, q)
        full = reference_left_mult_perms(q, gens)
        index = {tuple(row): i for i, row in enumerate(G.elements.tolist())}
        neg = [index[tuple(-x % q for x in row)] for row in G.elements.tolist()]
        pairs = {frozenset((i, neg[i])) for i in range(G.order)}
        assert {frozenset(np.flatnonzero(cls == c).tolist())
                for c in range(perms.shape[1])} == pairs
        assert perms.dtype == np.int32 and genc.shape[0] == full.shape[0]
        folded = {tuple(cls[row].tolist()) for row in full}
        assert {tuple(row[cls].tolist()) for row in perms} == folded
        assert perms.shape[0] == len(folded)


def test_local_identities():
    for m in (8, 10, 12):
        assert sp.local_identity_check(2, m)["all_hold"]
    for m in (1, 2, 3):
        assert sp.local_identity_check(3, m)["all_hold"]
    with pytest.raises(ValueError):
        sp.local_identity_check(2, 5)
    with pytest.raises(ValueError):
        sp.local_identity_check(5, 2)


def test_unipotent_conjugation_identity():
    assert sp.unipotent_conjugation_identity(5, 1, 1)
    assert sp.unipotent_conjugation_identity(7, 2, 3)
    for p, m in ((5, 1), (5, 3), (7, 2)):
        for a in range(1, p):
            assert sp.unipotent_conjugation_identity(p, m, a)
    with pytest.raises(ValueError):
        sp.unipotent_conjugation_identity(3, 1, 1)
    with pytest.raises(ValueError):
        sp.unipotent_conjugation_identity(5, 1, 5)


def test_sum_of_unit_squares():
    assert sp.sum_of_unit_squares(1, 5, 1) == [1]
    for x in range(81):
        units = sp.sum_of_unit_squares(x, 3, 4)
        assert 1 <= len(units) <= 4
        assert all(u % 3 != 0 for u in units)
        assert sum(u * u for u in units) % 81 == x
    zeros = sp.sum_of_unit_squares(0, 5, 2)
    assert sum(u * u for u in zeros) % 25 == 0


def test_markov_spectrum_small(registry):
    for q in (2, 3, 4, 5, 8):
        spec = sp.markov_spectrum(q)
        lam1 = spec.eigenvalues[1]
        assert spec.eigenvalues[0] == pytest.approx(1.0, abs=1e-12)
        assert lam1 < 1 - 1e-3
        assert all(-1 - 1e-9 <= e <= 1 + 1e-9 for e in spec.eigenvalues)
        assert all(b <= a + 1e-9 for a, b in zip(spec.eigenvalues,
                                                 spec.eigenvalues[1:]))
        registry.check(f"spectral.lambda1_q{q}", lam1)
        registry.check(f"spectral.s_size_q{q}", spec.s_size)


def reference_power_spectrum(q, s_mats=None, top_k=3, tol=1e-8,
                             max_iter=100_000, seed=0):
    """Deflated power iteration on (T+1)/2, one vector at a time: the
    eigensolver markov_spectrum had before its block iteration, kept as the
    oracle.  Returns (1.0, then the top_k largest eigenvalues below it)."""
    s_mats = sp.S_BAR if s_mats is None else s_mats
    perms = full_walk_perms(q, s_mats)
    n, ns = perms.shape[1], perms.shape[0]

    def apply_t(v):
        acc = np.zeros_like(v)
        for row in perms:
            acc += v[row]
        return acc / ns

    rng = np.random.default_rng(seed)
    found_vecs = []
    eigs = [1.0]
    for _ in range(min(top_k, n - 1)):
        v = rng.standard_normal(n)
        v -= v.mean()
        for w in found_vecs:
            v -= (v @ w) * w
        v /= np.linalg.norm(v)
        lam = None
        for it in range(max_iter):
            tv = apply_t(v)
            w = 0.5 * (v + tv)
            w -= w.mean()
            for fv in found_vecs:
                w -= (w @ fv) * fv
            nw = np.linalg.norm(w)
            if nw < 1e-14:
                lam = -1.0
                break
            w /= nw
            mu = w @ apply_t(w)
            if lam is not None and abs(mu - lam) < tol * 0.01:
                resid = np.linalg.norm(apply_t(w) - mu * w)
                if resid < tol * 10:
                    lam = mu
                    v = w
                    break
            lam = mu
            v = w
        else:
            raise AssertionError("reference power iteration did not converge")
        eigs.append(float(lam))
        found_vecs.append(v)
    return tuple(eigs)


def dense_walk_eigenvalues(q, s_mats=None):
    """Every eigenvalue of the walk operator, descending, from a dense solve."""
    s_mats = sp.S_BAR if s_mats is None else s_mats
    perms = full_walk_perms(q, s_mats)
    n = perms.shape[1]
    T = np.zeros((n, n))
    for row in perms:
        T[np.arange(n), row] += 1
    T /= perms.shape[0]
    return np.linalg.eigvalsh((T + T.T) / 2)[::-1]


def test_markov_vs_dense():
    for q in (2, 3, 4, 8):
        dense = dense_walk_eigenvalues(q)[1]
        assert sp.markov_spectrum(q).eigenvalues[1] == pytest.approx(
            dense, abs=1e-6)


@pytest.mark.parametrize("q,gens", [
    (3, None), (4, None), (6, None), (8, None),
    (3, sp.H1_GENS), (3, sp.H2_GENS), (5, sp.H1_GENS), (5, sp.H2_GENS),
    (12, None),
])
def test_block_spectrum_matches_dense_with_multiplicity(q, gens):
    spec = sp.markov_spectrum(q, gens)
    # the walk runs on G/{+-I}: mod 4 that has 8 elements, few enough for
    # the dense branch; every other case runs the block iteration
    assert spec.group_order > 3 * 3 + 1
    assert (spec.matvecs == 0) == ((q, gens) == (4, None))
    dense = dense_walk_eigenvalues(q, gens)
    assert spec.eigenvalues == pytest.approx(tuple(dense[:4]), abs=1e-9)


@pytest.mark.parametrize("q", [3, 4, 5, 8])
def test_walk_annihilates_odd_functions(q):
    # S is closed under s -> -s, so f(s g) + f(-s g) = 0 for an odd f
    rng = np.random.default_rng(q)
    for gens in (sp.S_BAR, sp.H1_GENS, sp.H2_GENS):
        G = sp._closure_cached(q, gens)
        perms = full_walk_perms(q, gens)
        neg = G.index_of(((-G.elements.astype(np.int64)) % q).astype(np.uint8))
        r = rng.standard_normal(G.order)
        f = r - r[neg]
        assert np.abs(f).max() > 0.1
        tf = sum(f[row] for row in perms) / perms.shape[0]
        assert np.abs(tf).max() < 1e-12, (q, len(gens))


@pytest.mark.parametrize("k", [1, 3, 6, 10])
@pytest.mark.parametrize("q,gens", [
    (3, None), (4, None), (3, sp.H1_GENS), (4, sp.H1_GENS), (5, sp.H1_GENS),
    (6, sp.H2_GENS),
    # no fold: -I = I mod 2
    (2, None), (2, sp.H1_GENS),
])
def test_folded_spectrum_matches_dense(q, gens, k):
    # the solve on G/{+-I} with the odd functions' zeros merged in gives the
    # full-G list; at (4, H1, 10) the list runs past the folded spectrum
    # into the zeros and the eigenvalue -1/3
    spec = sp.markov_spectrum(q, gens, top_k=k)
    dense = dense_walk_eigenvalues(q, gens)[:k + 1]
    assert len(spec.eigenvalues) == len(dense)
    assert spec.eigenvalues == pytest.approx(tuple(dense), abs=1e-9)


@pytest.mark.parametrize("gens", [
    (sp.GAMMA1, sp.GAMMA2),
    (sp.GAMMA1, core.m2_inv_det1(sp.GAMMA1), sp.GAMMA2, core.m2_inv_det1(sp.GAMMA2)),
])
def test_markov_spectrum_rejects_unsymmetric_generators(gens):
    # the walk on G/{+-I} needs S closed under s -> -s and s -> s^-1
    with pytest.raises(ValueError, match="symmetric_set"):
        sp.markov_spectrum(3, gens)


def test_markov_spectrum_rejects_before_the_closure(monkeypatch):
    # the check runs before closure_sl2, which at q = 11 would build and
    # cache 1,771,440 elements (about 2 s and 150 MB) for nothing
    calls = []
    monkeypatch.setattr(sp, "closure_sl2", lambda *a, **k: calls.append(a))
    with pytest.raises(ValueError, match="symmetric_set"):
        sp.markov_spectrum(11, (sp.GAMMA1, sp.GAMMA2, sp.GAMMA3))
    assert calls == []


def test_block_spectrum_matches_power_oracle():
    spec = sp.markov_spectrum(5)
    oracle = reference_power_spectrum(5)
    assert spec.eigenvalues == pytest.approx(oracle, abs=1e-9)
    # lambda1 mod 5 has multiplicity at least 3: every returned value is it
    assert spec.eigenvalues[1:] == pytest.approx((oracle[1],) * 3, abs=1e-9)
    # the block iteration needs far fewer applications of T than deflation
    assert spec.matvecs < 300


def test_block_spectrum_independent_of_seed():
    for q in (5, 8):
        base = sp.markov_spectrum(q, seed=0).eigenvalues
        for seed in range(1, 5):
            assert sp.markov_spectrum(q, seed=seed).eigenvalues == \
                pytest.approx(base, abs=1e-9)


def test_block_spectrum_reports_non_convergence(monkeypatch):
    monkeypatch.setattr(sp, "EIGEN_MAX_ITER", 2)
    with pytest.raises(sp.EigensolverError, match="did not converge"):
        sp.markov_spectrum(5)
    # the dense branch, for groups too small for a block step, counts no matvecs
    assert sp.markov_spectrum(2).matvecs == 0
    with pytest.raises(ValueError):
        sp.markov_spectrum(5, top_k=0)


def test_spectral_gap_flatness(registry):
    lams = [sp.markov_spectrum(q).eigenvalues[1] for q in (2, 3, 4, 5, 8)]
    registry.check("spectral.gap_spread", float(max(lams) - min(lams)))
    assert max(lams) < 1 - 1e-3


def test_transference():
    for q in (2, 4):
        rep = sp.transference_check(sp.markov_spectrum(q))
        assert rep.holds
        assert rep.lhs >= rep.rhs > 0
    # degenerate single-factor bound where H1 already fills the quotient
    g = sp.closure_sl2(2, sp.S_BAR)
    h1 = sp.closure_sl2(2, sp.H1_GENS)
    assert g.order == h1.order
    spec_g = sp.markov_spectrum(2)
    spec_h = sp.markov_spectrum(2, sp.H1_GENS)
    lhs = 1 - spec_g.eigenvalues[1]
    rhs = (spec_h.s_size / spec_g.s_size) * (1 - spec_h.eigenvalues[1]) / 2
    assert lhs >= rhs
