import contextlib
import multiprocessing
import os
import random
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from multiprocessing import resource_tracker
from pathlib import Path
from unittest import mock

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


def test_monotone_and_thread_determinism(monkeypatch):
    a = orbit.enumerate_curvatures(ROOT, 2000)
    b = orbit.enumerate_curvatures(ROOT, 5000)
    assert set(a.values().tolist()) <= set(b.values().tolist())
    c = orbit.enumerate_curvatures(ROOT, 5000, threads=3)
    assert np.array_equal(b.bits, c.bits)
    for bad in (0, -3):
        with pytest.raises(ValueError):
            orbit.enumerate_curvatures(ROOT, 100, threads=bad)
    monkeypatch.setattr(orbit, "WALK_BLOCK_ROWS", 64)
    d = orbit.enumerate_curvatures(ROOT, 5000)
    assert np.array_equal(b.bits, d.bits)


@settings(max_examples=40, deadline=None)
@given(n_max=st.integers(1, 3000), block_size=st.integers(1, 512),
       threads=st.integers(1, 6))
def test_walk_independent_of_blocks_and_threads(n_max, block_size, threads):
    # a function-scoped monkeypatch fixture fails Hypothesis's health check
    ref = orbit.enumerate_curvatures(ROOT, n_max)
    with mock.patch.object(orbit, "WALK_BLOCK_ROWS", block_size):
        cs = orbit.enumerate_curvatures(ROOT, n_max, record_witnesses=True,
                                        threads=threads)
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
def test_walk_matches_reference(root, n_max, monkeypatch):
    want = reference_curvatures(root, n_max)
    # one-row blocks cost about 50 us a step: 65 s for (-1, 2, 2, 3) at 2e5
    small = (1, 7) if n_max <= 5000 else (1 << 10,)
    for block_size in small + (1 << 20,):
        monkeypatch.setattr(orbit, "WALK_BLOCK_ROWS", block_size)
        for threads in (1, 3):
            cs = orbit.enumerate_curvatures(root, n_max, threads=threads)
            assert np.array_equal(cs.to_bool(), want), (block_size, threads)


def shared_count():
    """A counter that the forked workers of a walk all add to."""
    return multiprocessing.get_context("fork").Value("q", 0)


def add(counter, n):
    with counter.get_lock():
        counter.value += n
        return counter.value


def assert_no_child_left():
    # every worker was reaped, and no multiprocessing resource tracker runs
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert resource_tracker._resource_tracker._pid is None


@pytest.mark.parametrize("root", [(-1, 2, 2, 3), (-2, 3, 6, 7), (-3, 5, 8, 8),
                                  (-6, 11, 14, 15), ROOT])
def test_walk_ors_only_clear_bits(root, monkeypatch):
    # a block's fresh entries whose bits read set are dropped before the OR:
    # with one-row blocks and one worker each curvature is ORed exactly
    # once, by the root or by the step that finds it; larger blocks may OR
    # a curvature repeated within a block, but never one marked before it
    ored = shared_count()
    bit_at = orbit._bit_at

    def spy(vals):
        add(ored, vals.size)
        return bit_at(vals)

    monkeypatch.setattr(orbit, "_bit_at", spy)
    want = reference_curvatures(root, 5000)
    for blocks in (1, 7, orbit.WALK_BLOCK_ROWS):
        monkeypatch.setattr(orbit, "WALK_BLOCK_ROWS", blocks)
        for threads in (1, 3):
            ored.value = 0
            cs = orbit.enumerate_curvatures(root, 5000, threads=threads)
            assert np.array_equal(cs.to_bool(), want), (blocks, threads)
            assert ored.value < cs.rows, (blocks, threads)
            if (blocks, threads) == (1, 1):
                # the root's entries are ORed before the walk, both of an equal pair
                pos = [x for x in root if x > 0]
                assert ored.value == cs.count() + len(pos) - len(set(pos))


def test_worker_allocates_nothing_of_n():
    # a worker that finds the frontier dealt out leaves at once, allocating
    # nothing that grows with N: at N = 1e9 the walk's only N-sized array
    # is the shared 125 MB bitset
    bits = np.zeros(10**9 // 8, dtype=np.uint8)
    frontier = tuple(np.zeros(0, dtype=np.int64) for _ in range(4))
    ctl = np.zeros(2, dtype=np.int64)
    tracemalloc.start()
    try:
        rows = orbit._work(frontier, 10**9, bits, None, contextlib.nullcontext(), ctl)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows == 0 and peak < 2**16, peak


class _SlowOr(np.ndarray):
    """A bitset whose ufunc.at reads, sleeps, then writes all its bytes back:
    two workers ORing at once overwrite each other's bits.  Every other
    ufunc, the in-place shift of a take of the bitset included, runs on
    plain arrays, its out= too."""

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        def plain(xs):
            return tuple(x.view(np.ndarray) if isinstance(x, _SlowOr) else x for x in xs)

        inputs = plain(inputs)
        if out is not None:
            kwargs["out"] = plain(out)
        if method != "at":
            return getattr(ufunc, method)(*inputs, **kwargs)
        new = inputs[0].copy()
        ufunc.at(new, *inputs[1:])
        time.sleep(1e-4)
        inputs[0][...] = new


@pytest.mark.parametrize("record_witnesses", [False, True], ids=["bits", "witnesses"])
@pytest.mark.parametrize("root", [(-1, 2, 2, 3), ROOT])
def test_flushes_race_for_no_bit(root, record_witnesses, monkeypatch):
    # more workers than cores, each ORing the clear bits of a block of 16
    # rows while the others read and OR the same bytes: an OR made outside
    # the walk's lock loses bits here
    n_max = 20000
    mark = orbit._mark

    def slow_or(d, kids, bits, wit, lock):
        mark(d, kids, bits.view(_SlowOr), wit, lock)

    monkeypatch.setattr(orbit, "_mark", slow_or)
    monkeypatch.setattr(orbit, "WALK_BLOCK_ROWS", 16)
    cs = orbit.enumerate_curvatures(root, n_max, record_witnesses=record_witnesses,
                                    threads=8)
    assert type(cs.bits) is np.ndarray
    assert np.array_equal(cs.to_bool(), reference_curvatures(root, n_max))


def test_walk_holds_no_byte_per_integer():
    # the walk's traced peak grows by about an eighth of a byte per integer
    # of [1, N] (the bitset); a mask of one byte per integer alone would
    # grow it by 4 MB here.  The walk's stack
    # and blocks take about 7 MB at 4e6, so the bound is on the growth
    peaks = []
    for n_max in (4_000_000, 8_000_000):
        tracemalloc.start()
        try:
            orbit.enumerate_curvatures(ROOT, n_max, threads=1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 4_000_000 / 2, peaks


def test_split_entry_goes_back_as_a_copy():
    # the rest of a split entry must not keep the popped arrays, rows
    # already expanded included, alive behind a view
    cols = tuple(np.arange(40, dtype=np.int32) + k for k in range(4))
    stack = [cols]
    taken = orbit._take(stack, 16)
    (rest,) = stack
    assert taken[0].size == 16 and rest[0].size == 24
    assert not any(np.shares_memory(r, x) for r in rest for x in cols)
    for x, r, t in zip(cols, rest, taken):
        assert np.array_equal(np.sort(np.concatenate((r, t))), x)


@pytest.mark.parametrize("root", [(-1, 2, 2, 3), (-2, 3, 6, 7), (-3, 5, 8, 8),
                                  (-6, 11, 14, 15), ROOT])
def test_walk_expands_each_quadruple_once(root, monkeypatch):
    # equal root children and the equal b-/c- and a-/b-children below the
    # root would walk one subtree twice.  Every quadruple, leaf or not, is
    # marked in its parent's step: with witnesses `_mark` sees the rows, and
    # without them the same fresh entries, as often
    rows, fresh = [], []
    mark = orbit._mark

    def spy(d, kids, bits, wit, lock):
        fresh.append(d.copy())
        if kids is not None:
            rows.append(np.stack(kids, axis=1))
        return mark(d, kids, bits, wit, lock)

    monkeypatch.setattr(orbit, "_mark", spy)
    cs = orbit.enumerate_curvatures(root, 10**5, record_witnesses=True)
    quads = np.concatenate(rows)
    assert np.unique(quads, axis=0).shape[0] == quads.shape[0] == cs.rows
    marked = np.sort(np.concatenate(fresh))
    fresh.clear()
    assert orbit.enumerate_curvatures(root, 10**5).rows == cs.rows
    assert np.array_equal(np.sort(np.concatenate(fresh)), marked)


def test_rows_independent_of_blocks_and_threads(monkeypatch):
    ref = orbit.enumerate_curvatures(ROOT, 10**5)
    for block_size, threads in ((1, 1), (7, 3), (1 << 10, 2), (1 << 20, 4)):
        with monkeypatch.context() as m:
            m.setattr(orbit, "WALK_BLOCK_ROWS", block_size)
            cs = orbit.enumerate_curvatures(ROOT, 10**5, threads=threads)
        assert cs.rows == ref.rows, (block_size, threads)
    # rows counts exactly the quadruples marked, in every worker, and the
    # forked workers mark some of them
    rows, forked = shared_count(), shared_count()
    mark = orbit._mark
    caller = os.getpid()

    def spy(d, kids, bits, wit, lock):
        add(rows, d.size)
        add(forked, d.size if os.getpid() != caller else 0)
        return mark(d, kids, bits, wit, lock)

    monkeypatch.setattr(orbit, "_mark", spy)
    monkeypatch.setattr(orbit, "WALK_BLOCK_ROWS", 64)
    assert orbit.enumerate_curvatures(ROOT, 10**5, threads=3).rows == rows.value > 0
    assert forked.value > 0
    assert orbit.enumerate_curvatures(ROOT, 0).rows == 0


@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize("fail_on", [1, 5, "child"])
def test_worker_failure_is_raised(threads, fail_on, monkeypatch):
    # a failing step must stop every worker and reach the caller; the walk
    # runs in a thread of its own, so a deadlock fails the join below.  The
    # first step expands the root's children, before any fork; the fifth
    # runs in some worker, and "child" fails every step of a forked worker
    calls = shared_count()
    step = orbit._step
    caller = os.getpid()

    def failing(*args):
        if add(calls, 1) == fail_on or fail_on == "child" and os.getpid() != caller:
            raise RuntimeError("the step fails")
        return step(*args)

    monkeypatch.setattr(orbit, "_step", failing)
    monkeypatch.setattr(orbit, "WALK_BLOCK_ROWS", 16)
    raised = []

    def walk():
        try:
            orbit.enumerate_curvatures(ROOT, 10**5, threads=threads)
        except RuntimeError as e:
            raised.append(e)

    t = threading.Thread(target=walk, daemon=True)
    t.start()
    t.join(timeout=60)
    assert not t.is_alive(), "the walk hung after a worker failed"
    assert [str(e) for e in raised] == ([] if fail_on == "child" and threads == 1
                                        else ["the step fails"])
    assert_no_child_left()


class Interrupt(BaseException):
    pass


def test_interrupted_caller_stops_the_workers(monkeypatch):
    # an exception in the calling process, here raised where the caller
    # would start its own share of the walk, must stop the forked workers
    # within their current step rather than leave them walking the whole
    # tree, and reap them
    caller = os.getpid()
    work = orbit._work

    def interrupted(*args):
        if os.getpid() == caller:
            raise Interrupt
        return work(*args)

    full = shared_count()
    step = orbit._step

    def spy(*args):
        add(full, 1)
        return step(*args)

    monkeypatch.setattr(orbit, "_step", spy)
    monkeypatch.setattr(orbit, "WALK_BLOCK_ROWS", 64)
    orbit.enumerate_curvatures(ROOT, 10**6)
    steps, full.value = full.value, 0
    monkeypatch.setattr(orbit, "_work", interrupted)
    with pytest.raises(Interrupt):
        orbit.enumerate_curvatures(ROOT, 10**6, threads=3)
    assert full.value < steps // 10, (full.value, steps)
    assert_no_child_left()


def test_worker_killed_by_a_signal_is_raised(monkeypatch):
    # a worker that dies with no message, here by SIGKILL at its first
    # step, becomes a RuntimeError that names the signal, and is reaped
    caller = os.getpid()
    step = orbit._step

    def killed(*args):
        if os.getpid() != caller:
            os.kill(os.getpid(), signal.SIGKILL)
        return step(*args)

    monkeypatch.setattr(orbit, "_step", killed)
    monkeypatch.setattr(orbit, "WALK_BLOCK_ROWS", 64)
    with pytest.raises(RuntimeError, match="SIGKILL"):
        orbit.enumerate_curvatures(ROOT, 10**5, threads=2)
    assert_no_child_left()


@pytest.mark.parametrize("threads", [2, 3])
def test_worker_killed_inside_the_lock_is_raised(threads, monkeypatch):
    # a worker SIGKILLed while it holds the walk's lock leaves the lock held:
    # the caller, waiting for it or for the workers, finds the dead worker,
    # stops the others (one may wait for the lock too) and raises its signal
    caller = os.getpid()
    mark = orbit._mark

    def killed(*args):
        if os.getpid() != caller:
            with args[-1]:  # the lock
                os.kill(os.getpid(), signal.SIGKILL)
        return mark(*args)

    monkeypatch.setattr(orbit, "_mark", killed)
    monkeypatch.setattr(orbit, "WALK_BLOCK_ROWS", 64)
    raised = []

    def walk():
        try:
            orbit.enumerate_curvatures(ROOT, 10**5, threads=threads)
        except RuntimeError as e:
            raised.append(e)

    t = threading.Thread(target=walk, daemon=True)
    start = time.monotonic()
    t.start()
    t.join(timeout=30)
    assert not t.is_alive(), "the walk hung on the lock of a killed worker"
    assert time.monotonic() - start < 10
    assert len(raised) == 1 and "SIGKILL" in str(raised[0])
    assert_no_child_left()


@pytest.mark.parametrize("threads", [2, 3])
def test_blocks_are_full_while_the_frontier_lasts(threads, monkeypatch):
    # before each block a forked worker whose stack holds fewer than
    # WALK_BLOCK_ROWS rows puts one more chunk of the frontier under it, so
    # a chunk's narrow end shares its blocks with the next chunk: while rows
    # remain undealt, no block is shorter than a chunk.  (A worker's first
    # block is its first chunk: one chunk is dealt a block, not a block's
    # worth, which would hand one worker all the large subtrees.)
    block, state = 64, {}
    checked, short = shared_count(), shared_count()
    take, work = orbit._take, orbit._work

    def spy_work(frontier, n_max, bits, wit, lock, ctl, parent=None):
        state.update(size=frontier[0].size, ctl=ctl)
        return work(frontier, n_max, bits, wit, lock, ctl, parent)

    def spy_take(stack, block_size):
        cols = take(stack, block_size)
        if state and state["ctl"][0] < state["size"]:  # rows remain undealt
            add(checked, 1)
            add(short, cols[0].size < block_size >> 5)
        return cols

    monkeypatch.setattr(orbit, "_work", spy_work)
    monkeypatch.setattr(orbit, "_take", spy_take)
    monkeypatch.setattr(orbit, "WALK_BLOCK_ROWS", block)
    want = orbit.enumerate_curvatures(ROOT, 10**5)
    cs = orbit.enumerate_curvatures(ROOT, 10**5, threads=threads)
    assert np.array_equal(cs.bits, want.bits) and cs.rows == want.rows
    assert checked.value > 0 and short.value == 0, (checked.value, short.value)


def test_walk_leaves_no_child():
    # after a success; the failure and interrupt cases check it above
    orbit.enumerate_curvatures(ROOT, 10**5, threads=3)
    assert_no_child_left()


def test_failed_fork_stops_the_workers(monkeypatch):
    # the second fork fails: the error reaches the caller, and the worker
    # already forked stops and is reaped instead of walking on alone
    forks = []
    fork = os.fork

    def failing_fork():
        forks.append(1)
        if len(forks) == 2:
            raise BlockingIOError("fork: resource temporarily unavailable")
        return fork()

    monkeypatch.setattr(os, "fork", failing_fork)
    monkeypatch.setattr(orbit, "WALK_BLOCK_ROWS", 64)
    with pytest.raises(BlockingIOError):
        orbit.enumerate_curvatures(ROOT, 10**6, threads=4)
    assert len(forks) == 2
    assert_no_child_left()


def test_worker_stops_once_its_parent_is_gone(monkeypatch):
    # a forked worker reads os.getppid() before each block: once the
    # process that forked it is gone it expands no further block
    steps = []
    step = orbit._step

    def spy(cols, *args):
        steps.append(cols[0].size)
        return step(cols, *args)

    ppid = os.getppid()
    monkeypatch.setattr(orbit, "_step", spy)
    monkeypatch.setattr(os, "getppid", lambda: 1 if steps else ppid)
    monkeypatch.setattr(orbit, "WALK_BLOCK_ROWS", 64)
    frontier = tuple(np.array([[21, 24, 28, 157]] * 1000).T)  # the root's child
    bits = np.zeros(10**6 // 8, dtype=np.uint8)
    rows = orbit._work(frontier, 10**6, bits, None, contextlib.nullcontext(),
                       np.zeros(2, dtype=np.int64), ppid)
    # one block, the first chunk of two rows, whose children (376, 388 and
    # 397 each) are marked
    assert steps == [2] and rows == 6


@pytest.mark.skipif(not Path(f"/proc/self/task/{os.getpid()}/children").exists(),
                    reason="no /proc children list to find the workers")
def test_workers_of_a_killed_parent_exit():
    # a walk's parent killed by SIGKILL reaps no one and sets no stop flag:
    # its worker sees os.getppid() change and leaves within one block
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("from apollonian import orbit\n"
            "orbit.enumerate_curvatures((-11, 21, 24, 28), 10**9, threads=2)")
    proc = subprocess.Popen([sys.executable, "-c", code],
                            env=dict(os.environ, PYTHONPATH=str(src)))
    listing = Path(f"/proc/{proc.pid}/task/{proc.pid}/children")
    try:
        deadline = time.time() + 60
        while not listing.read_text().split() and time.time() < deadline:
            time.sleep(0.05)
        (worker,) = [int(x) for x in listing.read_text().split()]
    finally:
        proc.kill()
        proc.wait()
    def running():  # neither reaped by its new parent nor a zombie
        try:
            return Path(f"/proc/{worker}/stat").read_text().rsplit(")", 1)[1].split()[0] != "Z"
        except FileNotFoundError:
            return False

    deadline = time.time() + 10
    while running():
        assert time.time() < deadline, "the worker outlived its parent"
        time.sleep(0.05)


def test_shared_witnesses_across_workers(monkeypatch):
    # more workers than cores on 16-row blocks: a witness row torn between
    # two workers would leave the Descartes cone
    root, n_max = (-1, 2, 2, 3), 20000
    monkeypatch.setattr(orbit, "WALK_BLOCK_ROWS", 16)
    cs = orbit.enumerate_curvatures(root, n_max, record_witnesses=True, threads=8)
    assert np.array_equal(cs.to_bool(), reference_curvatures(root, n_max))
    vals = cs.values()
    w = cs.witnesses[vals].astype(np.int64)
    assert (w == vals[:, None]).any(axis=1).all()
    assert (w.sum(axis=1) ** 2 == 2 * (w * w).sum(axis=1)).all()


@pytest.mark.parametrize("root_min", [0, -11])
def test_step_at_the_int32_bound(root_min):
    # the largest bound with int32 columns: a step over rows spread below
    # it, each with a c-child, whose b- and a-children and grandchildren
    # fall on both sides of it, marks and keeps what the same step over
    # int64 columns does
    n_max = (2**31 - 1 - abs(root_min)) // 6
    assert orbit._column_dtype((root_min, 1, 1, 1), n_max) == np.int32
    assert orbit._column_dtype((root_min, 1, 1, 1), n_max + 1) == np.int64
    rng = np.random.default_rng(0)
    near = rng.integers(n_max // 4, n_max - 5000, 4000)  # small a, b and c close to d
    rows = np.sort(np.concatenate([
        np.stack([rng.integers(1, 1000, (2, 4000)), near - rng.integers(0, 1000, (2, 4000))]
                 ).reshape(4, -1).T,
        rng.integers(abs(root_min) + 1, n_max // 3, (4000, 4), endpoint=True),
        rng.integers(abs(root_min) + 1, n_max // 50, (4000, 4), endpoint=True)]), axis=1)
    rows[::2, 0] = root_min
    a, b, c, d = rows.T
    rows = rows[2 * (a + b + d) - c <= n_max]
    a, b, c, d = rows.T
    nb, na = 2 * (a + c + d) - b, 2 * (b + c + d) - a
    assert (nb > n_max).any() and (nb <= n_max).any() and (na > 3 * n_max).any()
    out = []
    for dtype in (np.int64, np.int32):
        bits = np.zeros((n_max + 7) // 8, dtype=np.uint8)
        marked, kids = orbit._step(tuple(rows.astype(dtype).T), n_max, bits, None,
                                   contextlib.nullcontext())
        assert kids[3].dtype == dtype
        out.append((marked, tuple(x.astype(np.int64) for x in kids), bits))
        del bits
    (want_marked, want, want_bits), (got_marked, got, got_bits) = out
    assert got_marked == want_marked > want[0].size > 0
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    assert np.array_equal(got_bits, want_bits)
    u, v, w, f = want
    assert (2 * (u + v + f) - w <= n_max).all()


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
        dyadic_exceptions=dyadic, density=float(vals.size) / n_max if n_max else 0.0)


def assert_same_census(got, want):
    assert got.n_max == want.n_max
    assert list(got.residue_counts.items()) == list(want.residue_counts.items())
    assert got.curvature_count == want.curvature_count
    assert got.admissible_count == want.admissible_count
    assert got.exceptions.dtype == want.exceptions.dtype
    assert np.array_equal(got.exceptions, want.exceptions)
    assert got.dyadic_exceptions == want.dyadic_exceptions
    assert got.density == want.density


# census windows of 1 and 5 rows split the bitset at many byte and mod-24
# boundaries; the default holds every case below in one window
CENSUS_WINDOWS = (1, 5, orbit.CENSUS_WINDOW_ROWS)


@pytest.mark.parametrize("n_max", [0, 1, 23, 24, 25, 1023, 1024, 1025, 10**5])
def test_census_matches_reference(n_max, monkeypatch):
    cs = orbit.enumerate_curvatures(ROOT, n_max)
    for adm in ({0, 4, 12, 13, 16, 21}, {1, 5}, set(), set(range(24))):
        want = reference_census(cs, adm)
        for window in CENSUS_WINDOWS:
            monkeypatch.setattr(orbit, "CENSUS_WINDOW_ROWS", window)
            assert_same_census(orbit.census(cs, adm), want)


@pytest.mark.parametrize("n_max", [0, 1, 7, 8, 23, 24, 25, 1023, 1025, 100_007])
def test_packed_census_on_random_bits(n_max, monkeypatch):
    # random bytes, with the padding bits past n_max set as often as not
    rng = np.random.default_rng(n_max)
    for density in (0.0, 0.3, 1.0):
        bits = np.packbits(rng.random(8 * (-(-n_max // 8))) < density, bitorder="little")
        cs = orbit.CurvatureSet(n_max, bits)
        assert cs.count() == int(cs.to_bool().sum())
        for adm in ({0, 4, 12, 13, 16, 21}, {1, 5, 23}, set(), set(range(24))):
            want = reference_census(cs, adm)
            for window in CENSUS_WINDOWS:
                monkeypatch.setattr(orbit, "CENSUS_WINDOW_ROWS", window)
                assert_same_census(orbit.census(cs, adm), want)


def test_census_memory_is_one_window():
    # the census's traced peak grows by no more than one window's 3-byte
    # rows from N = 4e6 to 8e6: the windows' temporaries do not grow with N,
    # and the exceptions (about 20,000 int64 here) grow little.  Reading the
    # whole bitset at once grew it by about five times N/8 bytes, 2.5 MB
    adm = {0, 4, 12, 13, 16, 21}
    peaks = []
    for n_max in (4_000_000, 8_000_000):
        cs = orbit.enumerate_curvatures(ROOT, n_max)
        tracemalloc.start()
        try:
            orbit.census(cs, adm)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= 3 * orbit.CENSUS_WINDOW_ROWS, peaks


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
def test_gamma_walk_matches_reference(y, monkeypatch):
    cap = int((4 * y) ** 2) + 1
    want, _ = reference_gamma(cap)
    for block_size in (1, 5, 1 << 18):
        monkeypatch.setattr(orbit, "GAMMA_BLOCK_ROWS", block_size)
        got, kept = orbit.enumerate_gamma(cap)
        assert got.dtype == want.dtype and np.array_equal(got, want), block_size
        assert kept.shape == (0, 4, 4)


@pytest.mark.parametrize("t", [4, 8, 32])
def test_gamma_window_matches_reference(t, monkeypatch):
    cap, window = (4 * t) ** 2, (t * t, 4 * t * t)
    want_norms, want = reference_gamma(cap, window)
    for block_size in (1, 5, 1 << 18):
        monkeypatch.setattr(orbit, "GAMMA_BLOCK_ROWS", block_size)
        norms, kept = orbit.enumerate_gamma(cap, keep_window=window)
        assert np.array_equal(norms, want_norms)
        # the same set, in lexicographic order of the 16 entries
        assert kept.reshape(-1, 16).tolist() == sorted(want.reshape(-1, 16).tolist())


def test_gamma_count_cap(monkeypatch):
    cap = (4 * 100) ** 2 + 1
    total = reference_gamma(cap)[0].size
    monkeypatch.setattr(orbit, "GAMMA_COUNT_CAP", total - 1)
    with pytest.raises(orbit.CapExceededError):
        orbit.enumerate_gamma(cap)
    monkeypatch.setattr(orbit, "GAMMA_COUNT_CAP", total)
    assert orbit.enumerate_gamma(cap)[0].size == total


def test_norm_ball_counts_and_slack(monkeypatch):
    t = orbit.norm_ball_count([2.1, 5, 10, 30, 100])
    assert t.counts[0] >= 1           # identity has norm 2
    assert (np.diff(t.counts) >= 0).all()
    monkeypatch.setattr(orbit, "NORM_BALL_SLACK", 16.0)
    t16 = orbit.norm_ball_count([10, 30, 100, 300])
    monkeypatch.setattr(orbit, "NORM_BALL_SLACK", 4.0)
    t4 = orbit.norm_ball_count([10, 30, 100, 300])
    assert np.array_equal(t4.counts, t16.counts)
    monkeypatch.setattr(orbit, "NORM_BALL_Y_CAP", 2.0e4)
    with pytest.raises(orbit.CapExceededError):
        orbit.norm_ball_count([10**5])


def test_fit_delta_needs_two_counts():
    flat = orbit.NormBallTable(ys=np.array([100.0, 100.0000005, 100.000001]),
                               counts=np.array([30, 30, 30]))
    with pytest.raises(ValueError):
        orbit.fit_delta(flat)


@pytest.mark.parametrize("t1,t2", [(6, 4096), (8, 32), (32, 32)])
def test_norm_shells_match_one_walk_per_shell(t1, t2):
    # one walk keeps the two shells alone, not every element between them
    cap_sq = (4 * max(t1, t2)) ** 2
    got = orbit.norm_shells(t1, t2)
    for shell, t in zip(got, (t1, t2)):
        want = orbit.enumerate_gamma(cap_sq, keep_window=(t * t, 4 * t * t))[1]
        assert shell.dtype == want.dtype and np.array_equal(shell, want)
    # a sequence of windows keeps their union, in lexicographic order
    kept = orbit.enumerate_gamma(cap_sq, keep_window=[(t * t, 4 * t * t) for t in (t1, t2)])[1]
    union = np.unique(np.concatenate(got).reshape(-1, 16), axis=0)
    assert kept.reshape(-1, 16).tolist() == union.tolist()


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


def reference_family(root, t1, t2):
    """Independent oracle: the shells from one walk per shell, every 4x4
    product gamma1 gamma2 formed, then cut on its anchor curvature."""
    cap_sq = (4 * max(t1, t2)) ** 2
    shell1, shell2 = (orbit.enumerate_gamma(cap_sq, keep_window=(t * t, 4 * t * t))[1]
                      for t in (t1, t2))
    prods = np.einsum("aij,bjk->abik", shell1, shell2).reshape(-1, 4, 4)
    i1 = np.repeat(np.arange(shell1.shape[0]), shell2.shape[0])
    i2 = np.tile(np.arange(shell2.shape[0]), shell1.shape[0])
    quads = prods @ np.array(root, dtype=np.int64)
    keep = 100 * quads[:, 0] > t1 * t2  # strict: a > T/100
    prods, i1, i2, quads = prods[keep], i1[keep], i2[keep], quads[keep]
    forms = np.stack([
        quads[:, 0] + quads[:, 1],
        (quads[:, 0] + quads[:, 1] - quads[:, 2] + quads[:, 3]) // 2,
        quads[:, 0] + quads[:, 3],
        quads[:, 0],
    ], axis=1)
    return dict(mats=prods, g1_index=i1, g2_index=i2, shell1=shell1, shell2=shell2,
                quads=quads, a=quads[:, 0], forms=forms)


@pytest.mark.parametrize("t1,t2", [(8, 8), (8, 16), (16, 8), (32, 32), (64, 128)])
def test_family_matches_reference(t1, t2):
    fam = orbit.build_family(ROOT, t1, t2)
    want = reference_family(ROOT, t1, t2)
    assert len(fam) == want["quads"].shape[0]
    for name, arr in want.items():
        got = getattr(fam, name)
        assert got.dtype == arr.dtype and np.array_equal(got, arr), name


def test_family_just_under_the_int64_bound():
    # roots -n, n + 1, n(n + 1), n(n + 1) + 1: at the largest n build_family
    # takes at T1 = T2 = 8 its quadruples and forms are those of Python
    # integers; at n = 1e9 they used to wrap silently
    def root(n):
        return (-n, n + 1, n * (n + 1), n * (n + 1) + 1)

    def accepted(n):
        try:
            orbit.build_family(root(n), 8, 8)
        except orbit.CapExceededError:
            return False
        return True

    lo, hi = 1, 10**9
    assert accepted(lo) and not accepted(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if accepted(mid) else (lo, mid)
    fam = orbit.build_family(root(lo), 8, 8)
    w = fam.shell2.astype(object) @ np.array(root(lo), dtype=object)
    quads = fam.shell1.astype(object) @ w.T  # (n1, 4, n2): gamma1 (gamma2 v0)
    g1, g2 = np.nonzero(quads[:, 0, :] > 8 * 8 // 100)
    assert fam.g1_index.tolist() == g1.tolist() and fam.g2_index.tolist() == g2.tolist()
    exact = quads[g1, :, g2]
    a, b, c, d = exact.T
    assert fam.quads.tolist() == exact.tolist()
    assert fam.forms.tolist() == np.stack([a + b, (a + b - c + d) // 2, a + d, a],
                                          axis=1).tolist()
    assert max(abs(x) for x in exact.ravel()) > 2**60


def test_family_memory():
    # the cut reads the four entries of gamma1 (gamma2 v0) per pair and forms
    # no 4x4 product: the all-pairs products peaked at 280 MB, the cut at 85 MB
    code = ("import re; from apollonian import orbit\n"
            f"fam = orbit.build_family({ROOT}, 256, 512)\n"
            "hwm = re.search(r'VmHWM:\\s*(\\d+) kB', open('/proc/self/status').read())\n"
            "print(len(fam), int(hwm.group(1)))")
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(src)), timeout=120)
    assert out.returncode == 0, out.stderr
    members, peak_kb = map(int, out.stdout.split())
    assert members > 0 and peak_kb < 150 * 1024


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
    registry.check("orbit.family_ratio_T64", ratios[0])
    registry.check("orbit.family_ratio_T1024", ratios[1])


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


def modular_equidistribution_report(family, q: int) -> dict:
    """Histogram of the anchor curvatures a_gamma mod q."""
    if q < 1:
        raise ValueError("q >= 1")
    counts = np.bincount(family.a % q, minlength=q)
    occupied = {int(r): int(c) for r, c in enumerate(counts) if c > 0}
    return {
        "q": q,
        "counts": occupied,
        "occupied_classes": len(occupied),
        "max_count": int(counts.max()) if len(family) else 0,
        "family_size": len(family),
    }


def test_modular_equidistribution(family_32):
    rep1 = modular_equidistribution_report(family_32, 1)
    assert rep1["occupied_classes"] == 1
    assert rep1["counts"][0] == len(family_32)
    rep24 = modular_equidistribution_report(family_32, 24)
    assert set(rep24["counts"]) <= {0, 4, 12, 13, 16, 21}
    rep5 = modular_equidistribution_report(family_32, 5)
    counts = list(rep5["counts"].values())
    assert max(counts) <= 4 * min(counts)


def test_family_count_cap(monkeypatch):
    # the T = 8 shell holds 12 elements, so the family multiplies 144 pairs
    monkeypatch.setattr(orbit, "FAMILY_PAIR_CAP", 144)
    fam = orbit.build_family(ROOT, 8, 8)
    assert fam.shell1.shape[0] * fam.shell2.shape[0] == 144
    monkeypatch.setattr(orbit, "FAMILY_PAIR_CAP", 143)
    with pytest.raises(orbit.CapExceededError):
        orbit.build_family(ROOT, 8, 8)
