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
                         block_size: int = 1 << 14, threads: int = 1) -> CurvatureSet:
    """Exact set of integers in [1, n_max] occurring as curvatures of the gasket.

    threads workers share one LIFO stack of sorted quadruple columns.  A
    worker takes about block_size rows off the top, marks their fresh
    entries in the shared mask and pushes their children back, until the
    stack is empty and no worker holds rows.  The witness of a curvature is
    the first sorted quadruple seen to hold it; it follows the traversal, so
    it is fixed only at threads=1.  An exception in a worker stops the walk
    and is raised here.  The result's rows counts the quadruples expanded.
    """
    root = core.validate_root(root)
    if threads < 1:
        raise core.InputError(f"threads must be at least 1, got {threads}")
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
    walk = _SharedWalk([tuple(kids.T)] if kids.size else [], n_max, block_size, mask, wit)
    workers = [threading.Thread(target=walk.run, daemon=True) for _ in range(threads - 1)]
    for w in workers:
        w.start()
    try:
        walk.run()
    except BaseException as e:  # an interrupt while waiting: stop the workers too
        walk.fail(e)
        raise
    finally:
        for w in workers:
            w.join()
    if walk.errors:
        raise walk.errors[0]
    return CurvatureSet.from_bool(n_max, mask, wit, walk.rows)


class _SharedWalk:
    """Depth-first walk of the quadruple tree by any number of threads.

    stack holds column tuples of sorted quadruples not yet expanded.  busy
    counts the workers holding rows taken off it: the walk is over when the
    stack is empty and busy is 0, or when a worker has failed.  Setting True
    in the mask is idempotent, so without witnesses the mask is written
    outside the lock; new bits and their witnesses are read and written
    under it."""

    def __init__(self, stack, n_max, block_size, mask, wit):
        self.stack = stack
        self.n_max = n_max
        self.block_size = block_size
        self.mask = mask
        self.wit = wit
        self.cond = threading.Condition()
        self.busy = 0
        self.rows = 0
        self.errors = []

    def _take(self):
        """Pop stack entries, under the lock, until block_size rows are held;
        the rows past block_size go back on the stack."""
        parts, held = [], 0
        while self.stack and held < self.block_size:
            cols = self.stack.pop()
            room = self.block_size - held
            if cols[0].size > room:
                self.stack.append(tuple(x[room:] for x in cols))
                cols = tuple(x[:room] for x in cols)
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
        while True:
            with cond:
                while not self.stack and self.busy and not self.errors:
                    cond.wait()
                if self.errors or not self.stack:
                    return
                parts = self._take()
                self.busy += 1
            kids = None
            try:
                cols = parts[0] if len(parts) == 1 else tuple(
                    np.concatenate(x) for x in zip(*parts))
                d = cols[3]
                if self.wit is None:
                    self.mask[d.astype(np.intp)] = True
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
    lies in the half-open integer window keep_window = (lo_sq, hi_sq) with
    lo_sq < norm^2 < hi_sq (strict), or None.  The identity is included.
    """
    mats = np.eye(4, dtype=np.int64)[None]
    last = np.array([-1], dtype=np.int8)
    norms = [np.array([4], dtype=np.int64)]  # ||I||^2 = 4
    kept = [mats] if keep_window is not None and keep_window[0] < 4 < keep_window[1] else []
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
                if keep_window is not None:
                    kept.append(child[(nsq > keep_window[0]) & (nsq < keep_window[1])])
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
    mats: np.ndarray       # (k, 4, 4)
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

    def __len__(self):
        return self.mats.shape[0]


# shell pairs build_family multiplies by default: about 330 bytes of peak
# memory each, so 2^22 pairs peak near 1.4 GB
FAMILY_PAIR_CAP = 1 << 22


def norm_shells(t1: int, t2: int, count_cap: int = FAMILY_PAIR_CAP):
    """The two norm shells of build_family, T_i < ||gamma_i||_F < 2 T_i.

    A CapExceededError is raised when they hold more than count_cap pairs."""
    if t1 < 4 or t2 < 4:
        raise core.InputError("norm windows need T1, T2 >= 4")
    cap_sq = int((4 * max(t1, t2)) ** 2)
    _, shell1 = enumerate_gamma(cap_sq, keep_window=(t1 * t1, 4 * t1 * t1))
    if t1 == t2:
        shell2 = shell1
    else:
        _, shell2 = enumerate_gamma(cap_sq, keep_window=(t2 * t2, 4 * t2 * t2))
    pairs = shell1.shape[0] * shell2.shape[0]
    if pairs > count_cap:
        raise CapExceededError(f"norm shells at T1 = {t1}, T2 = {t2} hold {pairs} pairs, "
                               f"above the cap {count_cap}")
    return shell1, shell2


def build_family(root, t1: int, t2: int, count_cap: int = FAMILY_PAIR_CAP) -> Family:
    """All products gamma1*gamma2 from the two norm shells passing the anchor cut.

    A CapExceededError is raised, before the products are formed, when the
    shells hold more than count_cap pairs."""
    root = core.validate_root(root)
    shell1, shell2 = norm_shells(t1, t2, count_cap)
    t = t1 * t2
    if shell1.size == 0 or shell2.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return Family(root, t1, t2, np.empty((0, 4, 4), dtype=np.int64), empty,
                      empty, shell1, shell2, np.empty((0, 4), dtype=np.int64),
                      empty, np.empty((0, 4), dtype=np.int64))
    prods = np.einsum("aij,bjk->abik", shell1, shell2).reshape(-1, 4, 4)
    i1 = np.repeat(np.arange(shell1.shape[0]), shell2.shape[0])
    i2 = np.tile(np.arange(shell2.shape[0]), shell1.shape[0])
    v0 = np.array(root, dtype=np.int64)
    quads = prods @ v0
    a = quads[:, 0]
    keep = 100 * a > t  # strict: a > T/100
    prods, i1, i2, quads, a = prods[keep], i1[keep], i2[keep], quads[keep], a[keep]
    forms = np.stack([
        quads[:, 0] + quads[:, 1],
        (quads[:, 0] + quads[:, 1] - quads[:, 2] + quads[:, 3]) // 2,
        quads[:, 0] + quads[:, 3],
        quads[:, 0],
    ], axis=1)
    return Family(root, t1, t2, prods, i1, i2, shell1, shell2, quads, a, forms)


def modular_equidistribution_report(family: Family, q: int) -> dict:
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
