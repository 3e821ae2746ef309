import random
import sys
import threading

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


@pytest.mark.parametrize("root", [(-1, 2, 2, 3), (-2, 3, 6, 7), (-3, 5, 8, 8),
                                  (-6, 11, 14, 15), ROOT])
def test_walk_expands_each_quadruple_once(root, monkeypatch):
    # equal root children and the equal b-/c- and a-/b-children below the
    # root would walk one subtree twice
    rows = []
    children = orbit._children

    def spy(a, b, c, d, n_max):
        rows.append(np.stack([a, b, c, d], axis=1))
        return children(a, b, c, d, n_max)

    monkeypatch.setattr(orbit, "_children", spy)
    orbit.enumerate_curvatures(root, 10**5)
    rows = np.concatenate(rows)
    assert np.unique(rows, axis=0).shape[0] == rows.shape[0]


def test_rows_independent_of_blocks_and_threads(monkeypatch):
    ref = orbit.enumerate_curvatures(ROOT, 10**5)
    for block_size, threads in ((1, 1), (7, 3), (1 << 10, 2), (1 << 20, 4)):
        cs = orbit.enumerate_curvatures(ROOT, 10**5, block_size=block_size,
                                        threads=threads)
        assert cs.rows == ref.rows, (block_size, threads)
    # rows counts exactly the quadruples handed to _children
    rows = []
    children = orbit._children

    def spy(a, b, c, d, n_max):
        rows.append(a.size)
        return children(a, b, c, d, n_max)

    monkeypatch.setattr(orbit, "_children", spy)
    assert orbit.enumerate_curvatures(ROOT, 10**5, threads=3).rows == sum(rows) > 0
    assert orbit.enumerate_curvatures(ROOT, 0).rows == 0


@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize("fail_on", [1, 5])
def test_worker_failure_is_raised(threads, fail_on, monkeypatch):
    # a failing step must stop every worker and reach the caller; the walk
    # runs in a thread of its own, so a deadlock fails the join below.  The
    # first step holds the root's children alone, so the other workers are
    # waiting on an empty stack when it fails.
    calls = []
    children = orbit._children

    def failing(*cols):
        calls.append(1)
        if len(calls) == fail_on:
            raise RuntimeError("the step fails")
        return children(*cols)

    monkeypatch.setattr(orbit, "_children", failing)
    raised = []

    def walk():
        try:
            orbit.enumerate_curvatures(ROOT, 10**5, block_size=16, threads=threads)
        except RuntimeError as e:
            raised.append(e)

    t = threading.Thread(target=walk, daemon=True)
    t.start()
    t.join(timeout=60)
    assert not t.is_alive(), "the walk hung after a worker failed"
    assert [str(e) for e in raised] == ["the step fails"]


def test_interrupted_caller_stops_the_workers(monkeypatch):
    # an exception in the calling thread, here raised where the caller would
    # wait on the stack, must stop the other workers within their current
    # step rather than leave them walking the whole tree in the background
    class Interrupt(BaseException):
        pass

    caller = threading.get_ident()
    run = orbit._SharedWalk.run

    def interrupted(walk):
        if threading.get_ident() == caller:
            raise Interrupt
        return run(walk)

    full = []
    children = orbit._children

    def spy(*cols):
        full.append(1)
        return children(*cols)

    monkeypatch.setattr(orbit, "_children", spy)
    orbit.enumerate_curvatures(ROOT, 10**6, block_size=64)
    steps, full[:] = len(full), []
    monkeypatch.setattr(orbit._SharedWalk, "run", interrupted)
    before = threading.active_count()
    with pytest.raises(Interrupt):
        orbit.enumerate_curvatures(ROOT, 10**6, block_size=64, threads=3)
    assert threading.active_count() == before
    assert len(full) < steps // 10, (len(full), steps)


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


@pytest.mark.parametrize("n_max", [1, 7, 8, 23, 24, 25, 1023, 1025, 100_007])
def test_packed_census_on_random_bits(n_max):
    # random bytes, with the padding bits past n_max set as often as not
    rng = np.random.default_rng(n_max)
    for density in (0.0, 0.3, 1.0):
        bits = np.packbits(rng.random(8 * (-(-n_max // 8))) < density, bitorder="little")
        cs = orbit.CurvatureSet(n_max, bits)
        assert cs.count() == int(cs.to_bool().sum())
        for adm in ({0, 4, 12, 13, 16, 21}, {1, 5, 23}, set(), set(range(24))):
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


def reference_gamma(norm_cap_sq, keep_window=None):
    """Independent oracle: the depth-first walk over reduced words, one
    block of children per letter, pushed on a stack."""
    norms = [np.array([4], dtype=np.int64)]
    kept = []
    if keep_window is not None and keep_window[0] < 4 < keep_window[1]:
        kept.append(np.eye(4, dtype=np.int64)[None])
    stack = [(np.eye(4, dtype=np.int64)[None], np.array([-1], dtype=np.int8))]
    while stack:
        mats, last = stack.pop()
        for letter in range(6):
            child = mats[last != (letter + 3) % 6] @ orbit._GEN_STACK[letter]
            nsq = np.einsum("nij,nij->n", child, child)
            keep = nsq <= norm_cap_sq
            child, nsq = child[keep], nsq[keep]
            if not nsq.size:
                continue
            norms.append(nsq)
            if keep_window is not None:
                lo, hi = keep_window
                kept.append(child[(nsq > lo) & (nsq < hi)])
            stack.append((child, np.full(nsq.size, letter, dtype=np.int8)))
    kept = np.concatenate(kept) if kept else np.empty((0, 4, 4), dtype=np.int64)
    return np.sort(np.concatenate(norms)), kept


@pytest.mark.parametrize("y", [2.1, 10, 100, 1000])
def test_gamma_walk_matches_reference(y):
    cap = int((4 * y) ** 2) + 1
    want, _ = reference_gamma(cap)
    for block_size in (1, 5, 1 << 18):
        got, kept = orbit.enumerate_gamma(cap, block_size=block_size)
        assert got.dtype == want.dtype and np.array_equal(got, want), block_size
        assert kept.shape == (0, 4, 4)


@pytest.mark.parametrize("t", [4, 8, 32])
def test_gamma_window_matches_reference(t):
    cap, window = (4 * t) ** 2, (t * t, 4 * t * t)
    want_norms, want = reference_gamma(cap, window)
    for block_size in (1, 5, 1 << 18):
        norms, kept = orbit.enumerate_gamma(cap, keep_window=window,
                                            block_size=block_size)
        assert np.array_equal(norms, want_norms)
        # the same set, in lexicographic order of the 16 entries
        assert kept.reshape(-1, 16).tolist() == sorted(want.reshape(-1, 16).tolist())


def test_gamma_count_cap():
    cap = (4 * 100) ** 2 + 1
    total = reference_gamma(cap)[0].size
    with pytest.raises(orbit.CapExceededError):
        orbit.enumerate_gamma(cap, count_cap=total - 1)
    assert orbit.enumerate_gamma(cap, count_cap=total)[0].size == total


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


def test_family_count_cap():
    # the T = 8 shell holds 12 elements, so the family multiplies 144 pairs
    fam = orbit.build_family(ROOT, 8, 8, count_cap=144)
    assert fam.shell1.shape[0] * fam.shell2.shape[0] == 144
    with pytest.raises(orbit.CapExceededError):
        orbit.build_family(ROOT, 8, 8, count_cap=143)
