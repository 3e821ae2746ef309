"""Finite quotients of the Apollonian group, admissibility, and stabilizers.

One breadth-first closure engine serves every finite quotient in the
package: the image of Gamma modulo q (4x4 matrices as 16 bytes of entries
in [0, q)), the orbit of the root quadruple modulo q, and, in spectral, the
image of the spin preimage in SL(2, Z[i]/(q)).  Each caller encodes an
element as a fixed-width row and supplies a vectorised step giving all its
generator images; the engine deduplicates rows by sorting their keys,
one machine word per row where the row fits in one.
The order of the special orthogonal group of the Descartes form over F_p is
computed independently by orbit-stabilizer counting on spheres, giving an
oracle for the structure of the quotients at primes away from 2 and 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

import numpy as np

from . import core
from .orbit import _GEN_STACK, CapExceededError


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One key per row, ordered as the row's bytes.

    A row of 1, 2, 4 or 8 bytes is read as a big-endian unsigned integer and
    kept in native byte order, so integer order is byte order and sorting
    and searching run on machine words.  Wider rows get a void scalar."""
    rows = np.ascontiguousarray(rows)
    width = rows.dtype.itemsize * rows.shape[1]
    if width in (1, 2, 4, 8):
        return rows.view(f">u{width}").ravel().astype(f"=u{width}")
    return rows.view(np.dtype((np.void, width))).ravel()


def _key_rows(keys: np.ndarray, like: np.ndarray) -> np.ndarray:
    """The rows of the dtype and width of like whose keys are keys."""
    if keys.dtype.kind == "u":
        keys = keys.astype(keys.dtype.newbyteorder(">"))
    return keys.view(like.dtype).reshape(-1, like.shape[1])


def _bfs_closure(start: np.ndarray, step, cap: int) -> np.ndarray:
    """Every row reachable from the (1, d) row start, sorted by its bytes.

    step maps an (n, d) frontier to all of its generator images, in the
    dtype of start.  Rows are deduplicated by sorting their keys, so rows
    wider than a byte sort lexicographically only in a big-endian dtype.
    Raises CapExceededError once more than cap rows are reached.
    """
    seen = _row_keys(start)
    frontier = start
    while frontier.shape[0]:
        keys = np.sort(_row_keys(step(frontier)))
        pos = np.searchsorted(seen, keys)
        new = seen[np.minimum(pos, seen.size - 1)] != keys
        new[1:] &= keys[1:] != keys[:-1]
        keys = keys[new]
        seen = np.insert(seen, pos[new], keys)
        if seen.size > cap:
            raise CapExceededError(f"closure exceeded cap {cap}")
        frontier = _key_rows(keys, start)
    return _key_rows(seen, start)


@dataclass
class QuotientClosure:
    """A finite quotient as the encoded rows of its elements, sorted by their
    bytes: (n, 16) entries of 4x4 matrices here, (n, 8) residues in spectral."""
    q: int
    elements: np.ndarray  # (n, d) uint8, rows in lexicographic order

    @property
    def order(self) -> int:
        return self.elements.shape[0]

    def index_of(self, rows: np.ndarray) -> np.ndarray:
        """Positions of the given encoded rows, by binary search."""
        keys, k = _row_keys(self.elements), _row_keys(rows)
        idx = np.searchsorted(keys, k)
        if (idx >= keys.size).any() or (keys[idx] != k).any():
            raise KeyError("element outside the closure")
        return idx

    def element_set(self) -> set:
        """The rows as a set of bytes."""
        return {row.tobytes() for row in self.elements}


def quotient_closure(q: int, cap: int = 100_000_000) -> QuotientClosure:
    """Image of Gamma in matrices mod q."""
    if q < 1:
        raise core.InputError("q >= 1")
    if q > 255:
        raise CapExceededError("modulus above byte range is past the supported cap")
    gmats = _GEN_STACK % q

    def step(frontier):
        mats = frontier.reshape(-1, 4, 4).astype(np.int64)
        return (np.einsum("nij,gjk->ngik", mats, gmats) % q).reshape(-1, 16).astype(np.uint8)

    ident = np.eye(4, dtype=np.uint8).reshape(1, 16) % q
    return QuotientClosure(q, _bfs_closure(ident, step, cap))


@lru_cache(maxsize=64)
def quotient_order(q: int) -> int:
    return quotient_closure(q).order


def _count_norm(gram: np.ndarray, p: int, target: int) -> int:
    """#{v in F_p^k : v^t gram v = target}, by vectorized enumeration."""
    k = gram.shape[0]
    grids = np.meshgrid(*[np.arange(p)] * k, indexing="ij")
    v = np.stack([g.ravel() for g in grids])  # (k, p^k)
    q = np.einsum("in,ij,jn->n", v, gram % p, v) % p
    return int((q == target % p).sum())


def _orthogonal_complement_gram(gram: np.ndarray, u: np.ndarray, p: int):
    """Gram matrix of the form restricted to the hyperplane orthogonal to u."""
    k = gram.shape[0]
    w = (gram @ u) % p
    # basis of the kernel of w^t x = 0 mod p
    basis = []
    pivot = next(i for i in range(k) if w[i] % p)
    inv = pow(int(w[pivot]), -1, p)
    for i in range(k):
        if i == pivot:
            continue
        e = np.zeros(k, dtype=np.int64)
        e[i] = 1
        e[pivot] = (-w[i] * inv) % p
        basis.append(e)
    b = np.stack(basis, axis=1)  # k x (k-1)
    return (b.T @ gram @ b) % p, b


def so_f_order(p: int) -> int:
    """|SO of the Descartes form over F_p| by orbit-stabilizer on spheres.

    Independent of the group generators:  |O(Q_k)| = N_k * |O(Q_{k-1})|
    where N_k counts the vectors of the chosen anisotropic norm, down to
    |O(Q_1)| = 2; then halve for SO.
    """
    if p in (2, 3) or p > 13:
        raise ValueError("oracle supports primes 5 <= p <= 13")
    gram = np.array(core.GRAM, dtype=np.int64) % p
    total = 1
    dim = 4
    while dim >= 2:
        u = _anisotropic_vector(gram, p)
        target = int(u @ gram @ u % p)
        total *= _count_norm(gram, p, target)
        gram, _ = _orthogonal_complement_gram(gram, u, p)
        dim -= 1
    total *= 2  # |O(Q_1)| = 2
    return total // 2


def _anisotropic_vector(gram: np.ndarray, p: int) -> np.ndarray:
    k = gram.shape[0]
    for i in range(k):
        if gram[i, i] % p:
            e = np.zeros(k, dtype=np.int64)
            e[i] = 1
            return e
    for i in range(k):
        for j in range(i + 1, k):
            if gram[i, j] % p:
                e = np.zeros(k, dtype=np.int64)
                e[i] = 1
                e[j] = 1
                if (e @ gram @ e) % p:
                    return e
    raise ValueError("form is degenerate mod p")


def so_f_order_pairs(p: int) -> int:
    """Cross-check of so_f_order via a 2-transitive (pair-orbit) decomposition.

    |O(Q_4)| = #{v : Q(v)=c1} * #{w : Q(w)=c2, B(v0,w)=t} * |O(Q_2'')| for the
    stabilizer of a fixed nondegenerate pair, counted by brute force.
    """
    if p in (2, 3) or p > 13:
        raise ValueError("oracle supports primes 5 <= p <= 13")
    gram = np.array(core.GRAM, dtype=np.int64) % p
    u1 = _anisotropic_vector(gram, p)
    c1 = int(u1 @ gram @ u1 % p)
    n1 = _count_norm(gram, p, c1)
    # second vector: anisotropic in the complement
    g3, b3 = _orthogonal_complement_gram(gram, u1, p)
    u2r = _anisotropic_vector(g3, p)
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
    g2h, b2 = _orthogonal_complement_gram(gram, u1, p)
    # restrict again by u2r inside the 3-dim space
    g2, _ = _orthogonal_complement_gram(g2h, u2r, p)
    cnt = 0
    for a in range(p):
        for b in range(p):
            for c in range(p):
                for d in range(p):
                    m22 = np.array([[a, b], [c, d]], dtype=np.int64)
                    if ((m22.T @ g2 @ m22) % p == g2 % p).all():
                        cnt += 1
    return n1 * m * cnt // 2


# Largest orbit vector_orbit closes.  The peak is about 250 bytes per row of
# the largest BFS level, which holds up to 0.68 of the rows reached: q = 151
# (3,420,300 rows) peaks at 506 MB, q = 199 (7,841,196) at 1.08 GB, and
# q = 223 stopped at a cap of 8,000,000 peaks at 1.38 GB, so a closure
# stopped at this cap peaks near 1.2 GB.
ORBIT_CAP = 7_000_000
# Largest modulus vector_orbit takes: a step's entries are sums of four
# products of residues, below 4 (q - 1)^2, which fits in int64 up to here.
ORBIT_MODULUS_CAP = 1 << 30


def vector_orbit(root, q: int, cap: int = ORBIT_CAP) -> np.ndarray:
    """Orbit of the root quadruple mod q under Gamma, as an (n, 4) array
    with rows in lexicographic order.  A modulus above ORBIT_MODULUS_CAP
    raises CapExceededError before any arithmetic."""
    if q < 1:
        raise core.InputError("q >= 1")
    if q > ORBIT_MODULUS_CAP:
        raise CapExceededError(f"modulus {q} is above the cap {ORBIT_MODULUS_CAP}")
    gens = _GEN_STACK % q
    # big-endian residues, so that byte order is lexicographic order
    dtype = np.dtype(f">u{np.min_scalar_type(q - 1).itemsize}")

    def step(frontier):
        imgs = np.einsum("gij,nj->gni", gens, frontier.astype(np.int64))
        imgs %= q
        return imgs.reshape(-1, 4).astype(dtype)

    start = (np.array(root, dtype=np.int64) % q).astype(dtype).reshape(1, 4)
    return _bfs_closure(start, step, cap).astype(np.int64)


@lru_cache(maxsize=256)
def _orbit_cached(root, q):
    """vector_orbit(root, q) in the smallest unsigned dtype holding q - 1,
    so that the cached orbits take 4 to 16 bytes a row, not 32."""
    return vector_orbit(root, q).astype(np.min_scalar_type(q - 1))


def admissible_classes(q: int, root=core.DEFAULT_ROOT) -> set:
    """Residues mod q arising as some entry of the orbit of the root."""
    orb = _orbit_cached(tuple(root), q)
    return {int(x) for x in np.unique(orb)}


def is_admissible(n: int, root=core.DEFAULT_ROOT) -> bool:
    return n % 24 in admissible_classes(24, root)


def stabilizer_index(q: int, root=core.DEFAULT_ROOT) -> int:
    """Index of the mod-q stabilizer of the root = size of its orbit mod q.

    The affine orbit grows like q^3; the projective count (see
    stabilizer_index_projective) grows like q^2."""
    return _orbit_cached(tuple(root), q).shape[0]


def stabilizer_index_projective(q: int, root=core.DEFAULT_ROOT) -> int:
    """Number of scalar classes in the orbit of the root mod q.

    Unit scalars commute with Gamma, so lam * O is the orbit of lam * root:
    it is O itself when lam * root lies in O and disjoint from O otherwise.
    The units keeping O form a group U, and every row of O is primitive mod
    q (Gamma is invertible and the root is primitive), so lam * w = w only
    for lam = 1: each class meets O in |U| rows, and the count is |O| / |U|.
    For q = 1 the one unit is 0."""
    orb = _orbit_cached(tuple(root), q)
    big = orb.dtype.newbyteorder(">")
    units = np.array([lam for lam in range(q) if gcd(lam, q) == 1], dtype=np.int64)
    scaled = units[:, None] * (np.array(root, dtype=np.int64) % q) % q
    kept = np.isin(_row_keys(scaled.astype(big)), _row_keys(orb.astype(big)))
    return orb.shape[0] // int(kept.sum())
