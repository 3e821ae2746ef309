import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from apollonian import core, orbit

ROOT = (-11, 21, 24, 28)


def brute_curvatures(root, n_max, depth):
    """Independent oracle: exhaustive reduced-word enumeration, no pruning."""
    out = set()

    def rec(v, last, d):
        for x in v:
            if 1 <= x <= n_max:
                out.add(x)
        if d == 0:
            return
        for i in (1, 2, 3, 4):
            if i == last:
                continue
            rec(core.apply_reflection(i, v), i, d - 1)

    rec(root, 0, depth)
    return out


def test_enumerate_against_bruteforce():
    cs = orbit.enumerate_curvatures(ROOT, 100)
    got = set(cs.values().tolist())
    assert got == {21, 24, 28, 40, 52, 61, 76, 85, 96}
    assert got == brute_curvatures(ROOT, 100, 8)
    cs28 = orbit.enumerate_curvatures(ROOT, 28)
    assert set(cs28.values().tolist()) == {21, 24, 28} == brute_curvatures(ROOT, 28, 6)
    assert brute_curvatures(ROOT, 300, 10) == set(
        orbit.enumerate_curvatures(ROOT, 300).values().tolist())


def test_enumerate_validation():
    with pytest.raises(ValueError):
        orbit.enumerate_curvatures((1, 2, 3, 4), 100)       # off cone
    with pytest.raises(ValueError):
        orbit.enumerate_curvatures((157, 21, 24, 28), 100)  # not reduced
    with pytest.raises(ValueError):
        orbit.enumerate_curvatures((-22, 42, 48, 56), 100)  # imprimitive
    assert orbit.enumerate_curvatures(ROOT, 0).count() == 0


def test_residues_mod_24():
    vals = orbit.enumerate_curvatures(ROOT, 10**4).values()
    assert set(np.unique(vals % 24).tolist()) == {0, 4, 12, 13, 16, 21}


def test_monotone_and_thread_determinism():
    a = orbit.enumerate_curvatures(ROOT, 2000)
    b = orbit.enumerate_curvatures(ROOT, 5000)
    assert set(a.values().tolist()) <= set(b.values().tolist())
    c = orbit.enumerate_curvatures(ROOT, 5000, threads=3)
    assert np.array_equal(b.bits, c.bits)
    d = orbit.enumerate_curvatures(ROOT, 5000, block_size=64)
    assert np.array_equal(b.bits, d.bits)
    for bad in (0, -3):
        with pytest.raises(ValueError):
            orbit.enumerate_curvatures(ROOT, 100, threads=bad)


@settings(max_examples=40, deadline=None)
@given(n_max=st.integers(1, 3000), block_size=st.integers(1, 512),
       threads=st.integers(1, 6))
def test_walk_independent_of_blocks_and_threads(n_max, block_size, threads):
    ref = orbit.enumerate_curvatures(ROOT, n_max)
    cs = orbit.enumerate_curvatures(ROOT, n_max, record_witnesses=True,
                                    block_size=block_size, threads=threads)
    assert np.array_equal(cs.bits, ref.bits)
    vals = cs.values()
    assert (cs.witnesses[vals] == vals[:, None]).any(axis=1).all()
    w = cs.witnesses[vals].astype(np.int64)
    assert (w.sum(axis=1) ** 2 == 2 * (w * w).sum(axis=1)).all()


def reference_curvatures(root, n_max):
    """Independent oracle: the walk over unsorted int64 rows that remembers
    which entry each quadruple last replaced.  A child replaces any other
    entry i when the fresh entry 2*sum - 3*old is larger than the old one
    and at most n_max."""
    mask = np.zeros(n_max + 1, dtype=bool)
    for x in root:
        if 1 <= x <= n_max:
            mask[x] = True
    stack = [(np.array([root], dtype=np.int64), np.array([-1], dtype=np.int8))]
    while stack:
        quads, last = stack.pop()
        s = quads.sum(axis=1)
        children, lasts = [], []
        for i in range(4):
            old = quads[:, i]
            new = 2 * s - 3 * old
            keep = (last != i) & (new > old) & (new <= n_max)
            child = quads[keep].copy()
            child[:, i] = new[keep]
            mask[child[:, i]] = True
            children.append(child)
            lasts.append(np.full(child.shape[0], i, dtype=np.int8))
        if sum(c.shape[0] for c in children):
            stack.append((np.concatenate(children), np.concatenate(lasts)))
    return mask


@pytest.mark.parametrize("root", [(-1, 2, 2, 3), (-2, 3, 6, 7), (-3, 5, 8, 8),
                                  (-6, 11, 14, 15), ROOT])
@pytest.mark.parametrize("n_max", [1, 28, 100, 5000, 2 * 10**5])
def test_walk_matches_reference(root, n_max):
    want = reference_curvatures(root, n_max)
    # one-row blocks cost about 50 us a step: 65 s for (-1, 2, 2, 3) at 2e5
    small = (1, 7) if n_max <= 5000 else (1 << 10,)
    for block_size in small + (1 << 20,):
        for threads in (1, 3):
            cs = orbit.enumerate_curvatures(root, n_max, block_size=block_size,
                                            threads=threads)
            assert np.array_equal(cs.to_bool(), want), (block_size, threads)


def test_shared_witnesses_under_thread_switching():
    # more threads than cores, switching as often as the interpreter allows:
    # a witness row torn between two threads would leave the Descartes cone
    root, n_max = (-1, 2, 2, 3), 20000
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        cs = orbit.enumerate_curvatures(root, n_max, record_witnesses=True,
                                        block_size=16, threads=8)
    finally:
        sys.setswitchinterval(old)
    assert np.array_equal(cs.to_bool(), reference_curvatures(root, n_max))
    vals = cs.values()
    w = cs.witnesses[vals].astype(np.int64)
    assert (w == vals[:, None]).any(axis=1).all()
    assert (w.sum(axis=1) ** 2 == 2 * (w * w).sum(axis=1)).all()


@pytest.mark.parametrize("root_min", [0, -11])
def test_children_at_the_int32_bound(root_min):
    # the largest bound with int32 columns; rows whose entries sit at it,
    # where every child is pruned, and rows spread below it, where some are kept
    n_max = (2**31 - 1 - abs(root_min)) // 6
    assert orbit._column_dtype((root_min, 1, 1, 1), n_max) == np.int32
    assert orbit._column_dtype((root_min, 1, 1, 1), n_max + 1) == np.int64
    rng = np.random.default_rng(0)
    rows = np.sort(np.concatenate([
        rng.integers(n_max - 1000, n_max, (1000, 4), endpoint=True),
        rng.integers(abs(root_min) + 1, n_max, (1000, 4), endpoint=True),
        rng.integers(abs(root_min) + 1, n_max // 3, (1000, 4), endpoint=True)]), axis=1)
    rows[::2, 0] = root_min
    rows[:500, 1:] = n_max
    want = orbit._children(*rows.T, n_max)
    got = orbit._children(*rows.astype(np.int32).T, n_max)
    assert got[3].dtype == np.int32 and got[3].size > 0
    for g, w in zip(got, want):
        assert np.array_equal(g.astype(np.int64), w)


def test_witness_words(curvatures_1e6):
    cs = curvatures_1e6
    rng = random.Random(0)
    sample = rng.sample(cs.values().tolist(), 50)
    for n in sample:
        word, quad = cs.witness_word(n)
        v = core.apply_word(word, ROOT)
        assert v == quad
        assert n in v


def test_tangency_parabola_all_present(curvatures_1e6):
    present = curvatures_1e6.to_bool()
    ns = np.arange(0, 200)
    vals = 40 * ns * ns + 28 * ns + 28
    vals = vals[vals <= 10**6]
    assert present[vals].all()
    # lower-bound sanity: the single parabola yields >> sqrt(N) values
    assert vals.size >= int(np.sqrt(10**6) / 10)


def reference_census(cs, admissible_classes):
    """Independent oracle: the census over explicit int64 arrays of [1, N]."""
    n_max = cs.n_max
    vals = cs.values()
    res = vals % 24
    residue_counts = {int(r): int((res == r).sum()) for r in np.unique(res)}
    ns = np.arange(1, n_max + 1, dtype=np.int64)
    adm_mask = np.isin(ns % 24, sorted(admissible_classes))
    exceptions = ns[adm_mask & ~cs.to_bool()[1:]]
    dyadic = []
    k = 0
    while (1 << k) <= n_max:
        lo, hi = 1 << k, min((1 << (k + 1)) - 1, n_max)
        count = int(((exceptions >= lo) & (exceptions <= hi)).sum())
        dyadic.append((k, count, hi - lo + 1))
        k += 1
    return orbit.CensusReport(
        n_max=n_max, residue_counts=residue_counts, curvature_count=int(vals.size),
        admissible_count=int(adm_mask.sum()), exceptions=exceptions,
        dyadic_exceptions=dyadic, density=float(vals.size) / n_max)


def assert_same_census(got, want):
    assert got.n_max == want.n_max
    assert list(got.residue_counts.items()) == list(want.residue_counts.items())
    assert got.curvature_count == want.curvature_count
    assert got.admissible_count == want.admissible_count
    assert got.exceptions.dtype == want.exceptions.dtype
    assert np.array_equal(got.exceptions, want.exceptions)
    assert got.dyadic_exceptions == want.dyadic_exceptions
    assert got.density == want.density


@pytest.mark.parametrize("n_max", [1, 23, 24, 25, 1023, 1024, 1025, 10**5])
def test_census_matches_reference(n_max):
    cs = orbit.enumerate_curvatures(ROOT, n_max)
    for adm in ({0, 4, 12, 13, 16, 21}, {1, 5}, set(), set(range(24))):
        assert_same_census(orbit.census(cs, adm), reference_census(cs, adm))


def test_census(curvatures_1e6):
    adm = {0, 4, 12, 13, 16, 21}
    rep = orbit.census(curvatures_1e6, adm)
    assert_same_census(rep, reference_census(curvatures_1e6, adm))
    assert sum(rep.residue_counts.values()) == rep.curvature_count
    assert set(rep.residue_counts) <= adm
    assert rep.admissible_count == sum(
        1 for n in range(1, 10**6 + 1) if n % 24 in adm)
    assert 0.2 <= rep.density <= 0.25
    # exceptions are admissible and absent
    present = curvatures_1e6.to_bool()
    assert not present[rep.exceptions].any()
    assert all(int(n) % 24 in adm for n in rep.exceptions[:100])


def test_snapshot_roundtrip(tmp_path, curvatures_1e6):
    path = tmp_path / "snap.bin"
    curvatures_1e6.save(path)
    back = orbit.CurvatureSet.load(path)
    assert back.n_max == curvatures_1e6.n_max
    assert np.array_equal(back.bits, curvatures_1e6.bits)
    raw = path.read_bytes()
    assert raw[:4] == b"APBS"
    assert int.from_bytes(raw[4:12], "little") == 10**6
    with pytest.raises(ValueError):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"XXXX" + raw[4:])
        orbit.CurvatureSet.load(bad)


def test_merge():
    a = orbit.enumerate_curvatures(ROOT, 1000)
    b = orbit.CurvatureSet(1000, np.zeros_like(a.bits))
    m = a.merge(b)
    assert np.array_equal(m.bits, a.bits)


def test_norm_ball_counts_and_slack():
    t = orbit.norm_ball_count([2.1, 5, 10, 30, 100])
    assert t.counts[0] >= 1           # identity has norm 2
    assert (np.diff(t.counts) >= 0).all()
    t16 = orbit.norm_ball_count([10, 30, 100, 300], slack=16.0)
    t4 = orbit.norm_ball_count([10, 30, 100, 300], slack=4.0)
    assert np.array_equal(t4.counts, t16.counts)
    with pytest.raises(orbit.CapExceededError):
        orbit.norm_ball_count([10**5], y_cap=2.0e4)


def test_fit_delta_needs_two_counts():
    flat = orbit.NormBallTable(ys=np.array([100.0, 100.0000005, 100.000001]),
                               counts=np.array([30, 30, 30]))
    with pytest.raises(ValueError):
        orbit.fit_delta(flat)


def test_family_constraints(family_8):
    fam = family_8
    assert len(fam) > 0
    n1 = np.einsum("nij,nij->n", fam.shell1, fam.shell1)
    assert ((n1 > fam.t1 ** 2) & (n1 < 4 * fam.t1 ** 2)).all()
    g1 = fam.shell1[fam.g1_index]
    g2 = fam.shell2[fam.g2_index]
    assert np.array_equal(np.einsum("nij,njk->nik", g1, g2), fam.mats)
    assert (100 * fam.a > fam.t).all()
    A, B, C, a = fam.forms.T
    assert np.array_equal(A * C - B * B, a * a)
    v0 = np.array(ROOT)
    assert np.array_equal(fam.mats @ v0, fam.quads)


def test_family_multiplicity_and_d_values(family_8, curvatures_1e6):
    # the fourth coordinate d = evaluate(form, 0, 1) is a curvature
    present = curvatures_1e6.to_bool()
    d = fam_d = family_8.quads[:, 3]
    inrange = fam_d[(fam_d >= 1) & (fam_d <= 10**6)]
    assert present[inrange].all()


def test_density_approaches_quarter():
    # one in four integers is admissible; the curvature density climbs
    # toward 1/4 from below as the bound grows
    d5 = orbit.enumerate_curvatures(ROOT, 10**5).count() / 10**5
    d6 = orbit.enumerate_curvatures(ROOT, 10**6).count() / 10**6
    assert d5 < d6 < 0.25


def test_family_count_scaling(registry):
    # family sizes against T^delta at the 10^2 and 10^3 scales; the group's
    # Frobenius norms are discrete (2, 10, 34, ...), so the windows use the
    # realizable dyadic bounds T = 64 and T = 1024
    delta = 1.3056
    ratios = []
    for t1 in (8, 32):
        fam = orbit.build_family(ROOT, t1, t1)
        t = t1 * t1
        ratios.append(len(fam) / t**delta)
    med = sorted(ratios)[len(ratios) // 2]
    assert all(med / 10 <= r <= 10 * med for r in ratios)
    registry.record("orbit.family_ratio_T64", ratios[0], rtol=1e-9)
    registry.record("orbit.family_ratio_T1024", ratios[1], rtol=1e-9)


def test_family_anchor_bound(family_8):
    # Cauchy-Schwarz: the anchor curvature is at most ||gamma||_F ||v0||
    norms = np.sqrt(np.einsum("nij,nij->n", family_8.mats, family_8.mats))
    v0_norm = np.sqrt(sum(x * x for x in ROOT))
    assert (family_8.a <= norms * v0_norm + 1e-9).all()
    assert (family_8.a <= 4 * norms * v0_norm).all()


def test_family_empty_window():
    fam = orbit.build_family(ROOT, 4, 4)
    assert len(fam) == 0
    with pytest.raises(ValueError):
        orbit.build_family(ROOT, 2, 8)


def test_modular_equidistribution(family_32):
    rep1 = orbit.modular_equidistribution_report(family_32, 1)
    assert rep1["occupied_classes"] == 1
    assert rep1["counts"][0] == len(family_32)
    rep24 = orbit.modular_equidistribution_report(family_32, 24)
    assert set(rep24["counts"]) <= {0, 4, 12, 13, 16, 21}
    rep5 = orbit.modular_equidistribution_report(family_32, 5)
    counts = list(rep5["counts"].values())
    assert max(counts) <= 4 * min(counts)
