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
counts off one boolean view of that bitset.
"""

from __future__ import annotations

import contextlib
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

    @classmethod
    def from_bool(cls, n_max, mask, witnesses=None):
        return cls(n_max, np.packbits(mask[1:n_max + 1], bitorder="little"), witnesses)

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
        return int(np.unpackbits(self.bits, count=self.n_max, bitorder="little").sum())

    def values(self) -> np.ndarray:
        return np.flatnonzero(self.to_bool())

    def merge(self, other: "CurvatureSet") -> "CurvatureSet":
        if self.n_max != other.n_max:
            raise ValueError("bitset bounds differ")
        return CurvatureSet(self.n_max, np.bitwise_or(self.bits, other.bits), self.witnesses)

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


def _validate_root(root):
    root = tuple(int(x) for x in root)
    if core.descartes_form(root) != 0:
        raise ValueError(f"root {root} is not on the Descartes cone")
    if not core.is_primitive(root):
        raise ValueError(f"root {root} is not primitive")
    if not core.is_reduced(root):
        raise ValueError(f"root {root} is not reduced")
    return root


def enumerate_curvatures(root, n_max: int, record_witnesses: bool = False,
                         block_size: int = 1 << 16, threads: int = 1) -> CurvatureSet:
    """Exact set of integers in [1, n_max] occurring as curvatures of the gasket.

    The root's children, sorted once, are dealt round-robin to
    min(threads, children) depth-first walks over sorted columns of at most
    block_size quadruples a step, which all write one shared mask.  The
    witness of a curvature is the first sorted quadruple seen to hold it; it
    follows the traversal, so it is fixed only at threads=1.
    """
    root = _validate_root(root)
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    if n_max <= 0:
        return CurvatureSet.from_bool(max(n_max, 0), np.zeros(1, dtype=bool))
    from concurrent.futures import ThreadPoolExecutor

    dtype = _column_dtype(root, n_max)
    mask = np.zeros(n_max + 1, dtype=bool)
    wit = np.zeros((n_max + 1, 4), dtype=dtype) if record_witnesses else None
    seen = [x for x in root if 1 <= x <= n_max]
    mask[seen] = True
    if wit is not None:
        wit[seen] = sorted(root)
    s = sum(root)
    kids = np.array([sorted(root[:i] + (2 * s - 3 * x,) + root[i + 1:])
                     for i, x in enumerate(root) if x < 2 * s - 3 * x <= n_max],
                    dtype=dtype).reshape(-1, 4)
    # setting True is idempotent: without witnesses the mask needs no lock
    lock = threading.Lock() if record_witnesses else contextlib.nullcontext()
    parts = min(threads, kids.shape[0])
    with ThreadPoolExecutor(max_workers=max(parts, 1)) as ex:
        list(ex.map(lambda k: _walk(tuple(kids[k::parts].T), n_max, block_size,
                                    mask, wit, lock),
                    range(parts)))
    return CurvatureSet.from_bool(n_max, mask, wit)


def _column_dtype(root, n_max):
    """int32 when every value `_children` forms fits, else int64: entries are
    at most n_max and only the root's outer circle can be negative, so the
    largest value formed is 2*(b + c + d) - a <= 6*n_max + |min(root)|."""
    return np.int32 if 6 * n_max + abs(min(root)) < 2**31 else np.int64


def _children(a, b, c, d, n_max):
    """Sorted columns of the children of sorted quadruples with fresh entry d
    whose fresh entry is at most n_max; the fresh entries obey na >= nb >= nc."""
    nc = 2 * (a + b + d) - c
    keep = nc <= n_max
    a, b, c, d, nc = a[keep], b[keep], c[keep], d[keep], nc[keep]
    nb = 2 * (a + c + d) - b
    na = 2 * (b + c + d) - a
    kb, ka = nb <= n_max, na <= n_max
    return (np.concatenate((a, a[kb], b[ka])), np.concatenate((b, c[kb], c[ka])),
            np.concatenate((d, d[kb], d[ka])), np.concatenate((nc, nb[kb], na[ka])))


def _walk(cols, n_max, block_size, mask, wit, lock):
    """Depth-first walk from the given sorted quadruples, marking each as
    popped; new bits and their witnesses are read and written under the lock."""
    stack = [cols]
    while stack:
        cols = stack.pop()
        if cols[0].size > block_size:
            stack.append(tuple(x[block_size:] for x in cols))
            cols = tuple(x[:block_size] for x in cols)
        d = cols[3]
        with lock:
            if wit is not None:
                new = np.flatnonzero(~mask[d])
                vals, first = np.unique(d[new], return_index=True)
                wit[vals] = np.stack([x[new[first]] for x in cols], axis=1)
            mask[d] = True
        cols = _children(*cols, n_max)
        if cols[0].size:
            stack.append(cols)


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
    """Counts per residue class mod 24, admissible totals, and exception list."""
    n = int(curvatures.n_max)
    # entry i is the integer i + 1, padded with zeros to whole rows of 24, so
    # column j of the (-1, 24) reshape holds the class (j + 1) mod 24
    present = np.unpackbits(curvatures.bits, count=-(-n // 24) * 24,
                            bitorder="little").view(bool)
    present[n:] = False
    per_class = np.roll(np.count_nonzero(present.reshape(-1, 24), axis=0), 1)
    residue_counts = {r: int(c) for r, c in enumerate(per_class) if c}
    admissible = np.resize(np.isin(np.roll(np.arange(24), -1),
                                   list(admissible_classes)), n)
    admissible_count = int(np.count_nonzero(admissible))
    admissible &= ~present[:n]
    exceptions = np.flatnonzero(admissible) + 1
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

    Returns (norms_sq sorted ascending, kept) where kept is an (m,4,4) array
    of the elements whose norm^2 lies in the half-open integer window
    keep_window = (lo_sq, hi_sq) with lo_sq < norm^2 < hi_sq (strict), or
    None.  The identity is included.
    """
    norms = [np.array([4], dtype=np.int64)]  # ||I||^2 = 4
    kept = []
    if keep_window is not None:
        lo, hi = keep_window
        if lo < 4 < hi:
            kept.append(np.eye(4, dtype=np.int64)[None])
    total = 1
    stack = [(np.eye(4, dtype=np.int64)[None], np.array([-1], dtype=np.int8))]
    while stack:
        mats, last = stack.pop()
        if mats.shape[0] > block_size:
            stack.append((mats[block_size:], last[block_size:]))
            mats, last = mats[:block_size], last[:block_size]
        for letter in range(6):
            allowed = last != ((letter + 3) % 6)
            if not allowed.any():
                continue
            child = mats[allowed] @ _GEN_STACK[letter]
            nsq = np.einsum("nij,nij->n", child, child)
            keep = nsq <= norm_cap_sq
            if not keep.any():
                continue
            child = child[keep]
            nsq = nsq[keep]
            total += child.shape[0]
            if total > count_cap:
                raise CapExceededError(f"norm-ball walk exceeded {count_cap} elements")
            norms.append(nsq)
            if keep_window is not None:
                lo, hi = keep_window
                inwin = (nsq > lo) & (nsq < hi)
                if inwin.any():
                    kept.append(child[inwin])
            stack.append((child, np.full(child.shape[0], letter, dtype=np.int8)))
    all_norms = np.sort(np.concatenate(norms))
    kept_arr = np.concatenate(kept) if kept else np.empty((0, 4, 4), dtype=np.int64)
    return all_norms, kept_arr


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
        raise ValueError("norm_ball_count needs at least one radius Y")
    if ys[-1] > y_cap:
        raise CapExceededError(f"Y={ys[-1]} exceeds cap {y_cap}")
    norms = _gamma_norms(int((slack * ys[-1]) ** 2) + 1)
    counts = np.searchsorted(norms, ys * ys, side="left")
    return NormBallTable(ys=ys, counts=counts.astype(np.int64))


def fit_delta(table: NormBallTable) -> float:
    """Least-squares slope of log count against log Y."""
    sel = table.counts > 0
    if np.unique(table.counts[sel]).size < 2:
        raise ValueError("fitting delta needs two distinct nonzero counts")
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


def build_family(root, t1: int, t2: int) -> Family:
    """All products gamma1*gamma2 from the two norm shells passing the anchor cut."""
    if t1 < 4 or t2 < 4:
        raise ValueError("norm windows need T1, T2 >= 4")
    root = _validate_root(root)
    cap_sq = int((4 * max(t1, t2)) ** 2)
    _, shell1 = enumerate_gamma(cap_sq, keep_window=(t1 * t1, 4 * t1 * t1))
    if t1 == t2:
        shell2 = shell1
    else:
        _, shell2 = enumerate_gamma(cap_sq, keep_window=(t2 * t2, 4 * t2 * t2))
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
