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
along the walk and the pruning is exact.  The result is a bitset with set
semantics, whatever the thread count or block size.  The census reads its
counts off the packed bits.
"""

from __future__ import annotations

import struct
import threading
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

    @classmethod
    def from_bool(cls, n_max, mask, witnesses=None, rows=None):
        return cls(n_max, np.packbits(mask[1:n_max + 1], bitorder="little"), witnesses, rows)

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
                         block_size: int = 1 << 15, threads: int = 1) -> CurvatureSet:
    """Exact set of integers in [1, n_max] occurring as curvatures of the gasket.

    threads workers share one LIFO stack of sorted quadruple columns.  A
    worker takes about block_size rows off the top, gathers their fresh
    entries in a mark buffer of its own and pushes their children back,
    until the stack is empty and no worker holds rows; a full buffer, and
    the buffer of a worker leaving the walk, is sorted and written into the
    shared mask.  Besides the N-byte mask the walk holds its stack and one
    buffer of at most N/8 bytes per worker.  The witness of a curvature is
    the first sorted quadruple seen to hold it; it follows the traversal, so
    it is fixed only at threads=1.  An exception in a worker stops the walk
    and is raised here.  The result's rows counts the quadruples expanded.
    """
    root = core.validate_root(root)
    if threads < 1:
        raise core.InputError(f"threads must be at least 1, got {threads}")
    if block_size < 1:
        raise core.InputError(f"block_size must be at least 1, got {block_size}")
    if n_max <= 0:
        return CurvatureSet.from_bool(max(n_max, 0), np.zeros(1, dtype=bool), rows=0)
    dtype = _column_dtype(root, n_max)
    mask = np.zeros(n_max + 1, dtype=bool)
    wit = np.zeros((n_max + 1, 4), dtype=dtype) if record_witnesses else None
    seen = [x for x in root if 1 <= x <= n_max]
    mask[seen] = True
    if wit is not None:
        wit[seen] = sorted(root)
    s = sum(root)
    # a root with two equal entries has two equal children: walk one of them
    kids = np.unique(np.array([sorted(root[:i] + (2 * s - 3 * x,) + root[i + 1:])
                               for i, x in enumerate(root) if x < 2 * s - 3 * x <= n_max],
                              dtype=dtype).reshape(-1, 4), axis=0)
    walk = _SharedWalk([tuple(kids.T)] if kids.size else [], n_max, block_size, mask, wit,
                       dtype)
    workers = []
    try:
        for _ in range(threads - 1):
            w = threading.Thread(target=walk.run, daemon=True)
            w.start()
            workers.append(w)
        walk.run()
    except BaseException as e:  # a failed start or an interrupt: stop the workers too
        walk.fail(e)
        raise
    finally:
        for w in workers:
            w.join()
    if walk.errors:
        raise walk.errors[0]
    return CurvatureSet.from_bool(n_max, mask, wit, walk.rows)


# entries of a worker's mark buffer, at most; it also holds at most n_max/8
# bytes, so a small walk pays no more for it than the packed bitset.  At
# N = 3e7 a full buffer holds one value per 32 bytes of the mask: a random
# write into the mask costs 25-38 ns a value, sorting the buffer about 4 ns
# and writing it in order about 5 ns (2-CPU VM, numpy 2.4)
MARK_BUFFER_ENTRIES = 1 << 20
# values written into the mask per fancy-index call: its intp index
# temporary is 512 KB, not the whole buffer
MARK_CHUNK = 1 << 16


class _SharedWalk:
    """Depth-first walk of the quadruple tree by any number of threads.

    stack holds column tuples of sorted quadruples not yet expanded, each
    owning its memory: the rest of a split entry goes back as a copy, so no
    expanded rows stay alive behind a view.  busy counts the workers holding
    rows taken off it: the walk is over when the stack is empty and busy is
    0, or when a worker has failed.  Without witnesses each worker gathers the
    fresh entries of its blocks in a buffer of its own and, when it is full
    or the worker leaves, sorts it and writes it into the mask outside the
    lock: setting True is idempotent and order-free.  With witnesses the
    marks are immediate, and new bits and their witnesses are read and
    written under the lock."""

    def __init__(self, stack, n_max, block_size, mask, wit, dtype):
        self.stack = stack
        self.n_max = n_max
        self.block_size = block_size
        self.mask = mask
        self.wit = wit
        self.dtype = np.dtype(dtype)
        self.mark_entries = max(1, min(MARK_BUFFER_ENTRIES,
                                       n_max // (8 * self.dtype.itemsize)))
        self.cond = threading.Condition()
        self.busy = 0
        self.rows = 0
        self.errors = []

    def _take(self):
        """Pop stack entries, under the lock, until block_size rows are held.
        A split entry is taken from its tail, where `_children` puts the
        a-children: each has the largest fresh entry of its parent's children,
        so the smallest subtree.  The head goes back on the stack as a copy.
        Finishing the small subtrees first keeps the stack small: at N = 3e7
        it peaks at 5 MB, where taking the head first peaks at 25 MB."""
        parts, held = [], 0
        while self.stack and held < self.block_size:
            cols = self.stack.pop()
            room = self.block_size - held
            if cols[0].size > room:
                cut = cols[0].size - room
                self.stack.append(tuple(x[:cut].copy() for x in cols))
                cols = tuple(x[cut:] for x in cols)
            parts.append(cols)
            held += cols[0].size
        self.rows += held
        return parts

    def fail(self, e):
        """Record e, which stops every worker at its next take."""
        with self.cond:
            self.errors.append(e)
            self.cond.notify_all()

    def run(self):
        cond = self.cond
        marks = np.empty(self.mark_entries, self.dtype) if self.wit is None else None
        held = 0
        while True:
            with cond:
                while not self.stack and self.busy and not self.errors:
                    cond.wait()
                if self.errors or not self.stack:
                    break
                parts = self._take()
                self.busy += 1
            kids = None
            try:
                cols = parts[0] if len(parts) == 1 else tuple(
                    np.concatenate(x) for x in zip(*parts))
                d = cols[3]
                if marks is not None:
                    held = self._gather(marks, held, d)
                else:
                    with cond:
                        new = np.flatnonzero(~self.mask[d])
                        vals, first = np.unique(d[new], return_index=True)
                        self.wit[vals] = np.stack([x[new[first]] for x in cols], axis=1)
                        self.mask[d] = True
                kids = _children(*cols, self.n_max)
            except BaseException as e:  # handed to the caller of the walk
                self.fail(e)
            finally:
                with cond:
                    self.busy -= 1
                    if kids is not None and kids[0].size:
                        self.stack.append(kids)
                    cond.notify_all()
        if held and not self.errors:
            try:
                self._flush(marks[:held])
            except BaseException as e:
                self.fail(e)

    def _gather(self, marks, held, d):
        """Copy d into marks[held:], flushing marks whenever it fills;
        returns the entries it holds after."""
        start = 0
        while start < d.size:
            n = min(marks.size - held, d.size - start)
            marks[held:held + n] = d[start:start + n]
            held += n
            start += n
            if held == marks.size:
                self._flush(marks)
                held = 0
        return held

    def _flush(self, vals):
        """Sort vals in place and set their bits in the mask, in chunks."""
        vals.sort()
        for i in range(0, vals.size, MARK_CHUNK):
            self.mask[vals[i:i + MARK_CHUNK]] = True


def _column_dtype(root, n_max):
    """int32 when every value `_children` forms fits, else int64: entries are
    at most n_max and only the root's outer circle can be negative, so the
    largest value formed is 2*(b + c + d) - a <= 6*n_max + |min(root)|."""
    return np.int32 if 6 * n_max + abs(min(root)) < 2**31 else np.int64


def _children(a, b, c, d, n_max):
    """Sorted columns of the children of sorted quadruples with fresh entry d
    whose fresh entry is at most n_max; the fresh entries obey na >= nb >= nc.
    The b-child equals the c-child when b == c, and the a-child the b-child
    when a == b, so each is kept only when the entries differ.  Rows are
    selected by gathers at the indices kept, which cost about half the
    time of boolean masks over the same rows."""
    nc = a + b
    nc += d
    nc *= 2
    nc -= c
    keep = np.flatnonzero(nc <= n_max)
    a, b, c, d, nc = a.take(keep), b.take(keep), c.take(keep), d.take(keep), nc.take(keep)
    nb = a + c
    nb += d
    nb *= 2
    nb -= b
    na = b + c
    na += d
    na *= 2
    na -= a
    kb = np.flatnonzero((nb <= n_max) & (b != c))
    ka = np.flatnonzero((na <= n_max) & (a != b))
    return (np.concatenate((a, a.take(kb), b.take(ka))),
            np.concatenate((b, c.take(kb), c.take(ka))),
            np.concatenate((d, d.take(kb), d.take(ka))),
            np.concatenate((nc, nb.take(kb), na.take(ka))))


@dataclass
class CensusReport:
    n_max: int
    residue_counts: dict          # class mod 24 -> count of curvatures
    curvature_count: int
    admissible_count: int
    exceptions: np.ndarray        # admissible integers missing from the set
    dyadic_exceptions: list       # (k, exceptions, integers) in [2^k, 2^(k+1)) and [1, N]
    density: float


def census(curvatures: CurvatureSet, admissible_classes) -> CensusReport:
    """Counts per residue class mod 24, admissible totals, and exception list.

    The census reads the packed bits: bit j of the 3-byte row i is the
    integer 24 i + j + 1, so each class mod 24 is one bit position of a
    (-1, 3) byte view, and the admissible integers are one 3-byte pattern
    tiled over the bitset.  No array of one byte per integer is formed."""
    n = int(curvatures.n_max)
    size = -(-n // 24) * 3
    # packed bits 0 .. n-1, zero past n and padded to whole 3-byte rows
    valid = np.zeros(size, dtype=np.uint8)
    valid[:n >> 3] = 0xFF
    if n & 7:
        valid[n >> 3] = (1 << (n & 7)) - 1
    bits = np.zeros(size, dtype=np.uint8)
    bits[:curvatures.bits.size] = curvatures.bits
    bits &= valid
    rows = bits.reshape(-1, 3)
    per_class = np.zeros(24, dtype=np.int64)
    for j in range(24):
        per_class[(j + 1) % 24] = np.count_nonzero(rows[:, j >> 3] & np.uint8(1 << (j & 7)))
    residue_counts = {r: int(c) for r, c in enumerate(per_class) if c}
    pattern = np.packbits([(j + 1) % 24 in admissible_classes for j in range(24)],
                          bitorder="little")
    adm = np.tile(pattern, size // 3)
    adm &= valid
    admissible_count = int(np.bitwise_count(adm).sum())
    adm &= ~bits
    at = np.flatnonzero(adm)
    held = np.unpackbits(adm[at][:, None], axis=1, bitorder="little").view(bool)
    exceptions = (8 * at[:, None] + np.arange(1, 9))[held]
    edges = np.minimum(1 << np.arange(n.bit_length() + 1), n + 1)
    counts = np.diff(np.searchsorted(exceptions, edges))
    dyadic = [(k, int(c), int(length))
              for k, (c, length) in enumerate(zip(counts, np.diff(edges)))]
    curvature_count = int(np.bitwise_count(bits).sum())
    return CensusReport(
        n_max=n,
        residue_counts=residue_counts,
        curvature_count=curvature_count,
        admissible_count=admissible_count,
        exceptions=exceptions,
        dyadic_exceptions=dyadic,
        density=curvature_count / n,
    )


# ---------------------------------------------------------------------------
# Norm balls in Gamma
# ---------------------------------------------------------------------------

_GEN_STACK = np.array(
    core.GAMMA_GENERATORS + core.GAMMA_GENERATOR_INVERSES, dtype=np.int64
)  # letters 0,1,2 generators; 3,4,5 their inverses


def enumerate_gamma(norm_cap_sq: int, keep_window=None, count_cap: int = 50_000_000,
                    block_size: int = 1 << 18):
    """Walk reduced words of the free group Gamma, pruning at norm^2 > cap.

    The walk goes one word length at a time: each step multiplies every
    word of the level by each letter that does not cancel its last one and
    keeps the products with norm^2 <= norm_cap_sq.  block_size caps how
    many words of a level are multiplied at once, so no product holds more
    than block_size 4x4 int64 matrices; it does not change the result.  A
    CapExceededError is raised once more than count_cap elements are kept.

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
        for start in range(0, mats.shape[0], block_size):
            stop = start + block_size
            block, block_last = mats[start:stop], last[start:stop]
            for letter in range(6):
                child = block[block_last != (letter + 3) % 6] @ _GEN_STACK[letter]
                nsq = np.einsum("nij,nij->n", child, child)
                keep = nsq <= norm_cap_sq
                child, nsq = child[keep], nsq[keep]
                total += nsq.size
                if total > count_cap:
                    raise CapExceededError(f"norm-ball walk exceeded {count_cap} elements")
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


def norm_ball_count(ys, slack: float = 4.0, y_cap: float = 2.0e4) -> NormBallTable:
    """Counts #{gamma in Gamma : ||gamma||_F < Y} for each Y.

    The walk prunes only beyond slack*max(Y): the Frobenius norm is not
    monotone along words, so a margin is kept and validated separately.
    """
    ys = np.asarray(sorted(ys), dtype=float)
    if ys.size == 0:
        raise core.InputError("norm_ball_count needs at least one radius Y")
    if ys[-1] > y_cap:
        raise CapExceededError(f"Y={ys[-1]} exceeds cap {y_cap}")
    norms = _gamma_norms(int((slack * ys[-1]) ** 2) + 1)
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


# shell pairs build_family takes by default: about 72 bytes of peak memory
# each, so near the cap the family peaks near 0.33 GB (4,043,520 pairs at
# T1 = 632, T2 = 1024: 321 MB, 3,664,119 members); `circle` adds the
# representation numbers and the grid, 0.97 GB at X = 4 and 1.05 GB at X = 5
# with a 2^22-point grid, so twice the cap would pass 1.4 GB
FAMILY_PAIR_CAP = 1 << 22
# largest T_i norm_shells walks to: the smallest non-empty shell holds 12
# elements (T = 6 to 9), and at T = 38,300 12 times the T-shell is already
# above FAMILY_PAIR_CAP; the walk to 4 T at T = 38,000 takes about 2-3 s and
# 0.22 GB
SHELL_T_CAP = 38_000


def norm_shells(t1: int, t2: int, count_cap: int = FAMILY_PAIR_CAP):
    """The two norm shells of build_family, T_i < ||gamma_i||_F < 2 T_i,
    split by norm from one walk that keeps the two shells alone.

    A CapExceededError is raised before the walk when a T_i is above
    SHELL_T_CAP, and after it when the shells hold more than count_cap
    pairs."""
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
    if pairs > count_cap:
        raise CapExceededError(f"norm shells at T1 = {t1}, T2 = {t2} hold {pairs} pairs, "
                               f"above the cap {count_cap}")
    return shell1, shell2


def build_family(root, t1: int, t2: int, count_cap: int = FAMILY_PAIR_CAP) -> Family:
    """All products gamma1*gamma2 from the two norm shells passing the anchor
    cut, in row-major (gamma1, gamma2) order.

    The cut reads gamma1 (gamma2 v0) for every pair, so no 4x4 product is
    formed.  A CapExceededError is raised, before anything per pair is
    allocated, when the shells hold more than count_cap pairs."""
    root = core.validate_root(root)
    shell1, shell2 = norm_shells(t1, t2, count_cap)
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
