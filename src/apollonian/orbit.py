"""Curvature enumeration, norm balls in the Apollonian group, and the
bilinear family of shifted forms.

The curvature set of a gasket is enumerated by walking the quadruple tree:
children of a quadruple are the three (four at the root) swap reflections
that do not undo the parent, and a child is pruned once its fresh entry
exceeds the bound N.  Below the root the fresh entry is the strict maximum,
so quadruples are kept as four sorted columns a <= b <= c <= d, and the
children (b, c, d, 2(b+c+d) - a), (a, c, d, 2(a+c+d) - b) and
(a, b, d, 2(a+b+d) - c) come out sorted: each fresh entry exceeds d, since
a - d <= 0 < b + c, a + c > 0 and a + b > 0.  So the fresh entry grows
along the walk and the pruning is exact.  A step of the walk takes a
block of quadruples that all have a child and marks the fresh entries of
all their children, leaves included, straight into a packed bitset of N/8
bytes, one bit per integer, which is the result: it has set semantics,
whatever the worker count or block size.  Only the children that have
children of their own go on the stack, so about half of all quadruples,
the leaves, are marked in their parent's block and never taken again.  A
block's entries are read against the bitset first and only those whose
bits read clear are ORed in.  The census reads its counts off the packed
bits one window at a time.  So the bitset, which forked workers share, is
the only array of N/8 bytes that a walk and its census hold; the rest is
each worker's stack and blocks and the census's windows.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import core

BITSET_MAGIC = b"APBS"


class CapExceededError(RuntimeError):
    pass


@dataclass
class CurvatureSet:
    """Bitset over [1, N]: bit n set means n occurs as a curvature."""

    n_max: int
    bits: np.ndarray                    # packed little-endian uint8, bit k <-> curvature k+1
    witnesses: np.ndarray | None = None  # optional (N+1, 4), first sorted quadruple seen per curvature
    rows: int | None = None             # quadruples the walk expanded; None when loaded

    def to_bool(self) -> np.ndarray:
        out = np.zeros(self.n_max + 1, dtype=bool)
        out[1:] = np.unpackbits(self.bits, count=self.n_max, bitorder="little")
        return out

    def contains(self, n: int) -> bool:
        if not (1 <= n <= self.n_max):
            return False
        k = n - 1
        return bool(self.bits[k >> 3] >> (k & 7) & 1)

    def count(self) -> int:
        total = int(np.bitwise_count(self.bits).sum())
        if self.n_max & 7:  # bits past n_max in the last byte are not curvatures
            total -= (int(self.bits[-1]) >> (self.n_max & 7)).bit_count()
        return total

    def values(self) -> np.ndarray:
        return np.flatnonzero(self.to_bool())

    def witness_quadruple(self, n: int):
        if self.witnesses is None:
            raise ValueError("witnesses were not recorded")
        if not self.contains(n):
            raise KeyError(n)
        return tuple(int(x) for x in self.witnesses[n])

    def witness_word(self, n: int):
        """Reflection word from the sorted root and the quadruple it reaches, holding n:
        the letters and the sorted witness's slots are relabelled by the argsort
        of the witness reduced to the root."""
        quad = self.witness_quadruple(n)
        _, word = core.reduce_to_root(quad)
        order = np.argsort(core.apply_word(word, quad), kind="stable")
        slot = np.argsort(order)
        return ([int(slot[i - 1]) + 1 for i in reversed(word)],
                tuple(quad[k] for k in order))

    def save(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(BITSET_MAGIC)
            fh.write(struct.pack("<Q", self.n_max))
            fh.write(self.bits.tobytes())

    @classmethod
    def load(cls, path) -> "CurvatureSet":
        with open(path, "rb") as fh:
            magic = fh.read(4)
            if magic != BITSET_MAGIC:
                raise ValueError("bad magic in bitset snapshot")
            (n_max,) = struct.unpack("<Q", fh.read(8))
            bits = np.frombuffer(fh.read(), dtype=np.uint8).copy()
        expected = (n_max + 7) // 8
        if bits.size != expected:
            raise ValueError("truncated bitset snapshot")
        return cls(int(n_max), bits)


def enumerate_curvatures(root, n_max: int, record_witnesses: bool = False,
                         threads: int = 1) -> CurvatureSet:
    """Exact set of integers in [1, n_max] occurring as curvatures of the gasket.

    The root's children are marked here; threads=1 runs one depth-first
    `_walk` here from those that have children, threads=k > 1 runs it in k
    processes over one shared bitset (`_forked_walk`; in this process alone
    where os.fork is missing).  The result's rows counts the quadruples
    marked, once each quadruple below the root whose fresh entry is at most
    n_max, when its parent is expanded: 1.02e8 at 3e7, of which 5.3e7 have
    children and are taken in blocks, for 7.47e6 curvatures.  The walk ORs
    into the bitset, which the result holds as it is, only the fresh entries
    whose bits read clear, about 7.5e6 at 3e7.  Besides the bitset each
    worker holds its stack, block and children at one to eight bytes a row.
    The witness of a curvature is the first sorted quadruple seen to hold
    it, among the children marked in one step, so it is fixed only at
    threads=1.  An exception in any worker, or a worker's death, stops the
    walk and is raised here.
    """
    root = core.validate_root(root)
    if threads < 1:
        raise core.InputError(f"threads must be at least 1, got {threads}")
    if n_max <= 0:
        return CurvatureSet(max(n_max, 0), np.zeros(0, dtype=np.uint8), rows=0)
    dtype = _column_dtype(root, n_max)
    nbytes, ctl = (n_max + 7) // 8, None
    if threads > 1 and hasattr(os, "fork"):
        import mmap
        # zero-filled, MAP_SHARED: deal counter and stop flag, bits, witnesses
        at = 64 + -(-nbytes // 64) * 64
        shared = mmap.mmap(-1, at + 4 * (n_max + 1) * np.dtype(dtype).itemsize * record_witnesses)
        ctl, bits = np.frombuffer(shared, np.int64, 2), np.frombuffer(shared, np.uint8, nbytes, 64)
        wit = np.frombuffer(shared, dtype, 4 * n_max + 4, at).reshape(-1, 4) \
            if record_witnesses else None
    else:
        bits = np.zeros(nbytes, dtype=np.uint8)
        wit = np.zeros((n_max + 1, 4), dtype=dtype) if record_witnesses else None
    seen = np.array([x for x in root if 1 <= x <= n_max], dtype=np.int64)
    np.bitwise_or.at(bits, *_bit_at(seen))
    if wit is not None:
        wit[seen] = sorted(root)
    s = sum(root)
    # a root with two equal entries has two equal children: walk one of them
    kids = tuple(np.unique(np.array([sorted(root[:i] + (2 * s - 3 * x,) + root[i + 1:])
                                     for i, x in enumerate(root) if x < 2 * s - 3 * x <= n_max],
                                    dtype=dtype).reshape(-1, 4), axis=0).T)
    _mark(kids[3], kids, bits, wit, contextlib.nullcontext())
    rows, (u, v, w, f) = kids[0].size, kids
    keep = f <= (n_max + w) // 2 - (u + v)  # those with a c-child, as in `_step`
    kids = tuple(x[keep] for x in kids)
    rows += _walk([kids] if kids[0].size else [], n_max, bits, wit, contextlib.nullcontext()) \
        if ctl is None else _forked_walk(kids, n_max, bits, wit, ctl, threads)
    return CurvatureSet(n_max, bits, wit, rows)


def _bit_at(vals):
    """Byte and bit of each curvature of vals in the packed bitset."""
    k = vals - 1
    return k >> 3, (1 << (k & 7)).astype(np.uint8)


# rows a worker of enumerate_curvatures takes off its stack per step, read at
# each call by gasket, verify and demo 02, and changed only by tests; no bit
# or row count depends on it.  A forked walk deals a 32nd of a block at a time
# off a frontier of two blocks or more.  At 3e7 on 2 CPUs 2^16 rows walk in
# 1.40-1.47 s against 1.44-1.88 s, but the caller peaks at 55 MB, not 44, and
# each worker at 45 MB, not 36
WALK_BLOCK_ROWS = 1 << 15


def _take(stack, block_size):
    """Pop stack entries until block_size rows are held, as one tuple of
    columns.  A split entry is taken from its tail, the a-children of
    `_step`, whose fresh entries are the largest, so their subtrees the
    smallest: the stack then peaks at 4.3 MB at N = 3e7, against 16 MB head
    first.  The head goes back as a copy, keeping no taken rows alive."""
    parts, held = [], 0
    while stack and held < block_size:
        cols = stack.pop()
        room = block_size - held
        if cols[0].size > room:
            cut = cols[0].size - room
            stack.append(tuple(x[:cut].copy() for x in cols))
            cols = tuple(x[cut:] for x in cols)
        parts.append(cols)
        held += cols[0].size
    return parts[0] if len(parts) == 1 else tuple(np.concatenate(x) for x in zip(*parts))


def _stopped(ctl, parent):
    """A forked worker stops once ctl[1] is set or its parent pid is gone."""
    return ctl is not None and bool(ctl[1]) or parent is not None and os.getppid() != parent


def _walk(stack, n_max, bits, wit, lock, deal=None, ctl=None, parent=None):
    """Depth-first walk of the column tuples on stack, in any worker; each
    step, unless `_stopped`, takes a block off the stack and marks its rows'
    children (`_step`), pushing those that have children of their own.
    Before a block, while the stack holds fewer than WALK_BLOCK_ROWS rows,
    deal() puts one more chunk of rows under the stack, until it returns
    None.  Returns the rows marked."""
    rows = 0
    while not _stopped(ctl, parent):
        if deal is not None and sum(x[0].size for x in stack) < WALK_BLOCK_ROWS:
            chunk = deal()
            if chunk is None:
                deal = None
            else:
                stack.insert(0, chunk)
        if not stack:
            break
        marked, kids = _step(_take(stack, WALK_BLOCK_ROWS), n_max, bits, wit, lock)
        rows += marked
        if kids[0].size:
            stack.append(kids)
    return rows


def _work(frontier, n_max, bits, wit, lock, ctl, parent=None):
    """A worker of a forked walk: one `_walk` whose stack, whenever it holds
    fewer than WALK_BLOCK_ROWS rows before a block, takes the next
    WALK_BLOCK_ROWS // 32 frontier rows, dealt off the counter ctl[0], until
    none is left.  A chunk's narrow end so shares its blocks with the next
    chunk; dealing one chunk a block, not a block's worth, keeps the large
    subtrees at the head of the frontier spread over the workers."""
    step = max(1, WALK_BLOCK_ROWS >> 5)

    def deal():
        with lock:
            start, ctl[0] = int(ctl[0]), ctl[0] + step
        return tuple(x[start:start + step] for x in frontier) if start < frontier[0].size else None

    return _walk([], n_max, bits, wit, lock, deal, ctl, parent)


class _Stopped(Exception):
    """A forked worker waiting for the walk's lock finds the walk stopping."""


class _Locked:
    """The forked walk's process-shared lock, taken with a timeout: each half
    second a process waits for it, watch() runs and raises once the walk is
    to stop.  So a worker killed while it holds the lock leaves no one
    waiting for ever: the caller's watch finds it dead and raises."""

    def __init__(self, lock, watch):
        self.lock, self.watch = lock, watch

    def __enter__(self):
        while not self.lock.acquire(True, 0.5):
            self.watch()

    def __exit__(self, *exc):
        self.lock.release()


def _forked_walk(level, n_max, bits, wit, ctl, workers):
    """The walk by `workers` processes over bits, wit and ctl in shared memory:
    the tree is expanded here by levels until one holds 2 WALK_BLOCK_ROWS rows,
    which this process and workers - 1 forked ones walk, large subtrees first.
    A child pipes back its rows or its error and leaves by os._exit, flushing
    no stdio.  The caller reaps each child whose pipe is ready, its message
    or the end of file of one that died, while it waits for the lock and,
    all together, at the end; a failure sets ctl[1], and every child is
    reaped before an error is raised."""
    import select
    from multiprocessing import get_context

    lock, rows, pipes, errors, me = get_context("fork").Lock(), 0, {}, [], os.getpid()

    def reap(timeout):
        nonlocal rows
        for r in select.select(list(pipes), [], [], timeout)[0]:
            pid = pipes.pop(r)
            with r:
                msg = r.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if not msg:  # killed, by a signal (-code) or by exit code
                import signal
                how = f"exit code {code}" if code >= 0 else signal.Signals(-code).name
                msg = pickle.dumps((False, RuntimeError(f"walk worker gave no result: {how}")))
            ok, value = pickle.loads(msg)
            if ok:
                rows += value
            else:
                ctl[1] = 1
                errors.append(value)

    def watch():  # the caller, waiting for the lock
        reap(0)
        if errors:
            raise errors[0]

    def stop():  # a forked worker, waiting for the lock
        if _stopped(ctl, me):
            raise _Stopped

    while 0 < level[0].size < 2 * WALK_BLOCK_ROWS:
        marked, level = _step(level, n_max, bits, wit, lock)
        rows += marked
    order = np.argsort(level[3], kind="stable")
    frontier = tuple(x[order] for x in level)
    del level, order  # the walk reads the sorted copy only
    try:
        for _ in range(workers - 1 if frontier[0].size else 0):
            r, w = (open(fd, mode) for fd, mode in zip(os.pipe(), ("rb", "wb")))
            try:
                pid = os.fork()
            except BaseException:
                r.close(), w.close()
                raise
            if pid == 0:
                try:
                    try:
                        out = (True, _work(frontier, n_max, bits, wit, _Locked(lock, stop),
                                           ctl, me))
                    except _Stopped:
                        out = (True, 0)
                    except BaseException as e:
                        ctl[1], out = 1, (False, e)
                    try:  # an error that does not survive the round trip goes as its repr
                        pickle.loads(msg := pickle.dumps(out))
                    except Exception:
                        msg = pickle.dumps((False, RuntimeError(f"walk worker: {out[1]!r}")))
                    with w:
                        w.write(msg)
                finally:
                    os._exit(0)
            w.close()
            pipes[r] = pid
        rows += _work(frontier, n_max, bits, wit, _Locked(lock, watch), ctl)
    except BaseException:
        ctl[1] = 1
        raise
    finally:
        while pipes:
            reap(None)
    if errors:
        raise errors[0]
    return rows


def _clear(d, bits):
    """Mask of the entries of d whose bits read clear: one take of their
    bytes, shifted right by each entry's bit."""
    k = d - 1
    byte = bits.take(k >> 3)
    shift = k.astype(np.uint8)
    shift &= 7
    byte >>= shift
    byte &= 1
    return byte == 0


def _step(cols, n_max, bits, wit, lock):
    """One step of the walk over a block of sorted quadruples a <= b <= c <= d
    with fresh entry d, each of which has a c-child: marks all its children
    whose fresh entry is at most n_max (`_mark`) and returns how many, with
    the sorted columns of those that have a c-child of their own, the only
    rows the walk pushes, so a leaf is never taken.  The fresh entries obey
    na >= nb >= nc, with nb - nc = 3(c - b) and na - nb = 3(b - a): the
    b-child equals the c-child when b == c, and the a-child the b-child
    when a == b, so each is kept only when the entries differ.  A child
    (u, v, w, f) has a c-child when 2(u + v + f) - w <= n_max, that is when
    f <= (n_max + w) // 2 - (u + v), a form in which no value leaves
    `_column_dtype`'s range, not even for a child whose f is past n_max.
    Rows are selected by gathers at the indices kept, which cost about a
    quarter of the time of boolean masks over the same rows."""
    a, b, c, d = cols
    ab, ac, bc = a + b, a + c, b + c
    nc = ab + d
    nc *= 2
    nc -= c
    nb = ac + d
    nb *= 2
    nb -= b
    na = bc + d
    na *= 2
    na -= a
    b_ne_c, a_ne_b = b != c, a != b
    kb = np.flatnonzero((nb <= n_max) & b_ne_c)
    ka = np.flatnonzero((na <= n_max) & a_ne_b)
    fresh = np.concatenate((nc, nb.take(kb), na.take(ka)))
    kids = None if wit is None else (
        *(np.concatenate(x) for x in ((a, a.take(kb), b.take(ka)), (b, c.take(kb), c.take(ka)),
                                      (d, d.take(kb), d.take(ka)))), fresh)
    _mark(fresh, kids, bits, wit, lock)
    # each of ab, ac, bc becomes (n_max + d) // 2 - (u + v) for its children
    half = d + n_max
    half >>= 1
    for uv in (ab, ac, bc):
        np.subtract(half, uv, out=uv)
    fc = np.flatnonzero(nc <= ab)
    fb = np.flatnonzero((nb <= ac) & b_ne_c)
    fa = np.flatnonzero((na <= bc) & a_ne_b)
    i, j = fc.size, fc.size + fb.size
    # gathered straight into one array: the indices are in range, and
    # mode="clip" skips the copy through a buffer that take makes with out=
    out = np.empty((4, j + fa.size), dtype=a.dtype)
    for col, (x, y, z) in zip(out, ((a, a, b), (b, c, c), (d, d, d), (nc, nb, na))):
        x.take(fc, out=col[:i], mode="clip")
        y.take(fb, out=col[i:j], mode="clip")
        z.take(fa, out=col[j:], mode="clip")
    return fresh.size, tuple(out)


def _mark(d, kids, bits, wit, lock):
    """Set the bits of the fresh entries d and, with witnesses, write for
    each new curvature the first row of kids, the columns of the quadruples
    whose fresh entries are d, that holds it.  The bytes are read unlocked: a
    bit only goes from 0 to 1, and all workers share one copy of each byte,
    so a stale read costs at most an OR that changes nothing.  An OR rewrites
    whole bytes, and two processes ORing one byte at once lose bits, so the
    entries that read clear are ORed at once under the lock; with witnesses
    they are read again under it, and only those still clear are written."""
    if wit is None:
        at, bit = _bit_at(np.compress(_clear(d, bits), d))
        with lock:
            np.bitwise_or.at(bits, at, bit)
        return
    new = np.flatnonzero(_clear(d, bits))
    with lock:
        new = new[_clear(d[new], bits)]
        vals, first = np.unique(d[new], return_index=True)
        wit[vals] = np.stack([x[new[first]] for x in kids], axis=1)
        np.bitwise_or.at(bits, *_bit_at(vals))


def _column_dtype(root, n_max):
    """int32 when every value the walk forms fits, else int64: entries are
    at most n_max and only the root's outer circle can be negative, so the
    largest value `_step` forms is 2*(b + c + d) - a <= 6*n_max + |min(root)|;
    its test for grandchildren adds no fresh entry to anything."""
    return np.int32 if 6 * n_max + abs(min(root)) < 2**31 else np.int64


@dataclass
class CensusReport:
    n_max: int
    residue_counts: dict          # class mod 24 -> count of curvatures
    curvature_count: int
    admissible_count: int
    exceptions: np.ndarray        # admissible integers missing from the set
    dyadic_exceptions: list       # (k, exceptions, integers) in [2^k, 2^(k+1)) and [1, N]
    density: float


# 3-byte rows of the bitset (24 integers each) census reads at a time, read
# at each call; only tests change it.  A window's temporaries are a few
# arrays of 3 x CENSUS_WINDOW_ROWS bytes, whatever N: at 3e7 the census's
# traced peak is 1.7 MB (0.5 MB of it the exceptions) and it takes 0.03 s
# with 2^16 rows, 2.1 MB with 2^17 and 1.3 MB with 2^15, at the same speed
CENSUS_WINDOW_ROWS = 1 << 16


def census(curvatures: CurvatureSet, admissible_classes) -> CensusReport:
    """Counts per residue class mod 24, admissible totals, and exception list.

    The census reads the packed bits one window of CENSUS_WINDOW_ROWS 3-byte
    rows at a time: bit j of row i is the integer 24 i + j + 1, so each
    class mod 24 is one bit position of a (-1, 3) byte view, and the
    admissible integers are one 3-byte pattern tiled over the window.  The
    counts are summed and the exceptions concatenated over the windows, so
    besides the CurvatureSet nothing of N/8 bytes is allocated.  The empty
    set (N = 0) has zero counts and density 0.0."""
    n = int(curvatures.n_max)
    pattern = np.packbits([(j + 1) % 24 in admissible_classes for j in range(24)],
                          bitorder="little")
    per_class = np.zeros(24, dtype=np.int64)
    admissible_count = 0
    exceptions = [np.zeros(0, dtype=np.int64)]
    rows = -(-n // 24)
    step = CENSUS_WINDOW_ROWS
    for r0 in range(0, rows, step):
        r1 = min(r0 + step, rows)
        win = curvatures.bits[3 * r0:3 * r1]
        adm = np.tile(pattern, r1 - r0)
        if r1 == rows:  # the last window: padded to whole rows, zero past n
            m = n - 24 * r0
            valid = np.zeros(adm.size, dtype=np.uint8)
            valid[:m >> 3] = 0xFF
            if m & 7:
                valid[m >> 3] = (1 << (m & 7)) - 1
            adm &= valid
            valid[:win.size] &= win
            win = valid
        by_row = win.reshape(-1, 3)
        for j in range(24):
            per_class[(j + 1) % 24] += np.count_nonzero(by_row[:, j >> 3] & np.uint8(1 << (j & 7)))
        admissible_count += int(np.bitwise_count(adm).sum())
        adm &= ~win
        at = np.flatnonzero(adm)
        held = np.unpackbits(adm[at][:, None], axis=1, bitorder="little").view(bool)
        exceptions.append((8 * (at[:, None] + 3 * r0) + np.arange(1, 9))[held])
    exceptions = np.concatenate(exceptions)
    residue_counts = {r: int(c) for r, c in enumerate(per_class) if c}
    edges = np.minimum(1 << np.arange(n.bit_length() + 1), n + 1)
    counts = np.diff(np.searchsorted(exceptions, edges))
    dyadic = [(k, int(c), int(length))
              for k, (c, length) in enumerate(zip(counts, np.diff(edges)))]
    curvature_count = int(per_class.sum())
    return CensusReport(
        n_max=n,
        residue_counts=residue_counts,
        curvature_count=curvature_count,
        admissible_count=admissible_count,
        exceptions=exceptions,
        dyadic_exceptions=dyadic,
        density=curvature_count / n if n else 0.0,
    )


# ---------------------------------------------------------------------------
# Norm balls in Gamma
# ---------------------------------------------------------------------------

_GEN_STACK = np.array(
    core.GAMMA_GENERATORS + core.GAMMA_GENERATOR_INVERSES, dtype=np.int64
)  # letters 0,1,2 generators; 3,4,5 their inverses


# elements enumerate_gamma keeps, at most, read at each call: delta-fit
# (through norm_ball_count) and circle (through norm_shells) reach it, and
# only tests change it.  Their own caps keep them far below it: the walk to
# 4 NORM_BALL_Y_CAP keeps 549,595 elements, to 4 SHELL_T_CAP 1,318,367.  At
# the cap the sorted int64 norms alone take 0.4 GB
GAMMA_COUNT_CAP = 50_000_000
# words of a level enumerate_gamma multiplies at once, read at each call and
# changed only by tests: no product holds more than this many 4x4 int64
# matrices (32 MB), and the result does not depend on it
GAMMA_BLOCK_ROWS = 1 << 18


def enumerate_gamma(norm_cap_sq: int, keep_window=None):
    """Walk reduced words of the free group Gamma, pruning at norm^2 > cap.

    The walk goes one word length at a time: each step multiplies every
    word of the level by each letter that does not cancel its last one and
    keeps the products with norm^2 <= norm_cap_sq, GAMMA_BLOCK_ROWS words of
    a level at a time.  A CapExceededError is raised once more than
    GAMMA_COUNT_CAP elements are kept.

    Returns (norms_sq sorted ascending, kept) where kept is an (m,4,4) array,
    in lexicographic order of the 16 entries, of the elements whose norm^2
    lies in the integer window keep_window = (lo_sq, hi_sq) with
    lo_sq < norm^2 < hi_sq (strict), or in any of a sequence of such
    windows, or None.  The identity is included.
    """
    windows = None if keep_window is None else np.atleast_2d(keep_window)

    def in_window(nsq):
        return ((nsq[:, None] > windows[:, 0]) & (nsq[:, None] < windows[:, 1])).any(axis=1)

    mats = np.eye(4, dtype=np.int64)[None]
    last = np.array([-1], dtype=np.int8)
    norms = [np.array([4], dtype=np.int64)]  # ||I||^2 = 4
    kept = [mats] if windows is not None and in_window(norms[0])[0] else []
    total = 1
    while mats.shape[0]:
        level, letters = [], []
        for start in range(0, mats.shape[0], GAMMA_BLOCK_ROWS):
            stop = start + GAMMA_BLOCK_ROWS
            block, block_last = mats[start:stop], last[start:stop]
            for letter in range(6):
                child = block[block_last != (letter + 3) % 6] @ _GEN_STACK[letter]
                nsq = np.einsum("nij,nij->n", child, child)
                keep = nsq <= norm_cap_sq
                child, nsq = child[keep], nsq[keep]
                total += nsq.size
                if total > GAMMA_COUNT_CAP:
                    raise CapExceededError(f"norm-ball walk exceeded {GAMMA_COUNT_CAP} elements")
                norms.append(nsq)
                if windows is not None:
                    kept.append(child[in_window(nsq)])
                level.append(child)
                letters.append(np.full(nsq.size, letter, dtype=np.int8))
        mats, last = np.concatenate(level), np.concatenate(letters)
    all_norms = np.sort(np.concatenate(norms))
    kept_arr = np.concatenate(kept) if kept else np.empty((0, 4, 4), dtype=np.int64)
    return all_norms, kept_arr[np.lexsort(kept_arr.reshape(-1, 16).T[::-1])]


@dataclass
class NormBallTable:
    ys: np.ndarray
    counts: np.ndarray


@lru_cache(maxsize=1)
def _gamma_norms(cap_sq: int) -> np.ndarray:
    return enumerate_gamma(cap_sq)[0]


# norm_ball_count walks to NORM_BALL_SLACK * max(Y): the Frobenius norm is
# not monotone along words, so a margin is kept.  At Y = 3000 slack 3, 4, 6,
# 8 and 12 all give the frozen 9,325 and slack 2 gives 9,211; the margin has
# no proof.  Read at each call; delta-fit and demo 03 reach it, only tests
# change it
NORM_BALL_SLACK = 4.0
# largest Y norm_ball_count takes, read at each call: delta-fit --ymax above
# it exits 3; the walk to 4 x 2e4 takes about 0.7 s and 79 MB
NORM_BALL_Y_CAP = 2.0e4


def norm_ball_count(ys) -> NormBallTable:
    """Counts #{gamma in Gamma : ||gamma||_F < Y} for each Y.

    The walk prunes only beyond NORM_BALL_SLACK * max(Y), and a Y above
    NORM_BALL_Y_CAP raises CapExceededError.
    """
    ys = np.asarray(sorted(ys), dtype=float)
    if ys.size == 0:
        raise core.InputError("norm_ball_count needs at least one radius Y")
    if ys[-1] > NORM_BALL_Y_CAP:
        raise CapExceededError(f"Y={ys[-1]} exceeds cap {NORM_BALL_Y_CAP}")
    norms = _gamma_norms(int((NORM_BALL_SLACK * ys[-1]) ** 2) + 1)
    counts = np.searchsorted(norms, ys * ys, side="left")
    return NormBallTable(ys=ys, counts=counts.astype(np.int64))


def fit_delta(table: NormBallTable) -> float:
    """Least-squares slope of log count against log Y."""
    sel = table.counts > 0
    if np.unique(table.counts[sel]).size < 2:
        raise core.InputError("fitting delta needs two distinct nonzero counts")
    x = np.log(table.ys[sel])
    y = np.log(table.counts[sel].astype(float))
    slope, _ = np.polyfit(x, y, 1)
    return float(slope)


# ---------------------------------------------------------------------------
# The bilinear family
# ---------------------------------------------------------------------------

@dataclass
class Family:
    """gamma = gamma1 gamma2 with both factors in dyadic norm shells and the
    anchor curvature a = <e1, gamma v0> larger than T/100, T = T1*T2."""

    root: tuple
    t1: int
    t2: int
    g1_index: np.ndarray   # index into shell1
    g2_index: np.ndarray
    shell1: np.ndarray
    shell2: np.ndarray
    quads: np.ndarray      # (k, 4) gamma . v0
    a: np.ndarray          # anchor curvatures
    forms: np.ndarray      # (k, 4): A, B, C, a

    @property
    def t(self) -> int:
        return self.t1 * self.t2

    @property
    def mats(self) -> np.ndarray:
        """The members gamma1 gamma2 as a (k, 4, 4) array, formed on each call."""
        return np.einsum("nij,njk->nik", self.shell1[self.g1_index],
                         self.shell2[self.g2_index])

    def __len__(self):
        return self.quads.shape[0]


# shell pairs norm_shells and build_family take, read at each call: circle
# (and its --t1 help), demos 05 and 07 reach it, and only tests change it.
# About 72 bytes of peak memory each, so near the cap the family peaks near
# 0.33 GB (4,043,520 pairs at T1 = 632, T2 = 1024: 321 MB, 3,664,119
# members); `circle` adds the representation numbers and the grid, 0.97 GB
# at X = 4 and 1.05 GB at X = 5 with a 2^22-point grid, so twice the cap
# would pass 1.4 GB
FAMILY_PAIR_CAP = 1 << 22
# largest T_i norm_shells walks to: the smallest non-empty shell holds 12
# elements (T = 6 to 9), and at T = 38,300 12 times the T-shell is already
# above FAMILY_PAIR_CAP; the walk to 4 T at T = 38,000 takes about 2-3 s and
# 0.22 GB
SHELL_T_CAP = 38_000


def norm_shells(t1: int, t2: int):
    """The two norm shells of build_family, T_i < ||gamma_i||_F < 2 T_i,
    split by norm from one walk that keeps the two shells alone.

    A CapExceededError is raised before the walk when a T_i is above
    SHELL_T_CAP, and after it when the shells hold more than
    FAMILY_PAIR_CAP pairs."""
    if t1 < 4 or t2 < 4:
        raise core.InputError("norm windows need T1, T2 >= 4")
    hi = max(t1, t2)
    if hi > SHELL_T_CAP:
        raise CapExceededError(f"norm shell T = {hi} is above the cap {SHELL_T_CAP}")
    windows = [(t * t, 4 * t * t) for t in (t1, t2)]
    _, kept = enumerate_gamma((4 * hi) ** 2, keep_window=windows)
    nsq = np.einsum("nij,nij->n", kept, kept)
    shell1, shell2 = (kept[(nsq > t * t) & (nsq < 4 * t * t)] for t in (t1, t2))
    pairs = shell1.shape[0] * shell2.shape[0]
    if pairs > FAMILY_PAIR_CAP:
        raise CapExceededError(f"norm shells at T1 = {t1}, T2 = {t2} hold {pairs} pairs, "
                               f"above the cap {FAMILY_PAIR_CAP}")
    return shell1, shell2


def build_family(root, t1: int, t2: int) -> Family:
    """All products gamma1*gamma2 from the two norm shells passing the anchor
    cut, in row-major (gamma1, gamma2) order.

    The cut reads gamma1 (gamma2 v0) for every pair, so no 4x4 product is
    formed.  A CapExceededError is raised, before anything per pair is
    allocated, when the shells hold more than FAMILY_PAIR_CAP pairs, or when
    an entry of a quadruple or of a doubled form could pass int64: each
    partial sum is at most sqrt(8) ||gamma1||_F ||gamma2||_F ||v0||, so the
    bound taken is 4 N1 N2 ||v0|| < 2^63, with N_i the largest norm of shell
    i, checked in Python integers."""
    root = core.validate_root(root)
    shell1, shell2 = norm_shells(t1, t2)
    n1, n2 = (int(np.einsum("nij,nij->n", s, s).max(initial=0)) for s in (shell1, shell2))
    if 16 * n1 * n2 * sum(x * x for x in root) >= 2**126:
        raise CapExceededError(f"root {root} with the norm shells at T1 = {t1}, T2 = {t2} "
                               f"gives family entries that may pass int64")
    w = shell2 @ np.array(root, dtype=np.int64)  # gamma2 v0
    quads = np.einsum("aij,bj->iab", shell1, w)  # (4, n1, n2): gamma1 (gamma2 v0)
    # a > T/100 exactly, as a is an integer
    g1_index, g2_index = np.nonzero(quads[0] > t1 * t2 // 100)
    quads = quads[:, g1_index, g2_index].T
    # twice (A, B, C, a) is linear in (a, b, c, d): 2(a + b), a + b - c + d,
    # 2(a + d), 2a; one product, with no temporary per column
    forms = quads @ np.array([[2, 1, 2, 2], [2, 1, 0, 0], [0, -1, 0, 0], [0, 1, 2, 0]])
    forms //= 2
    return Family(root, t1, t2, g1_index, g2_index, shell1, shell2, quads, quads[:, 0],
                  forms)
