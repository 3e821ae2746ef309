"""Finite quotients of the Apollonian group, admissibility, and stabilizers.

One breadth-first closure engine serves every finite quotient in the
package: the image of Gamma modulo q (4x4 matrices as 16 bytes of entries
in [0, q)), the orbit of the root quadruple modulo q, and, in spectral, the
classes {g, -g} of the image of the spin preimage in SL(2, Z[i]/(q)).  Each
caller encodes an element (or a class's representative) as a fixed-width
row and supplies a vectorised step giving all its generator images; the
engine deduplicates rows by sorting their keys, one machine word per row
where the row fits in one.
Admissible classes and orbit sizes modulo any q are read off the orbit
modulo gcd(q, 24) in closed form (strong approximation, Fuchs 2011); the
closures of the orbit modulo q are their oracle.
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
from .forms import _factorize
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
    bytes: (n, 16) entries of 4x4 matrices here; in spectral, (n, 8)
    residues of the representatives of the n classes {g, -g}."""
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


# Largest image quotient_closure closes, read at each call.  Only verify
# (q = 2, 3, 6), demo 04 (q up to 16) and tests reach quotient_closure (the
# largest, mod 15, has 432,000 elements), and only tests change it.  The cap
# is checked after each BFS level, and stepping a level of F rows peaks
# near 1.7 kB a row: q = 7 (58,800 elements) peaks at 72 MB, q = 11
# (885,720) at 783 MB, and q = 13 (2,384,928) at 1.72 GB, 1.61 GB of it
# while stepping its 939,224-row level.  A level is at most 5 times the one
# before (one of a row's 6 images leads back), so at most 0.8 of the rows
# reached, and a closure stopped at this cap peaks near 1.4 GB at most:
# stopped at q = 13, 17, 19, 23, 29, 101 and 251 it peaked at 561-811 MB.
QUOTIENT_CAP = 1_000_000


def quotient_closure(q: int) -> QuotientClosure:
    """Image of Gamma in matrices mod q; CapExceededError once more than
    QUOTIENT_CAP elements are reached."""
    if q < 1:
        raise core.InputError("q >= 1")
    if q > 255:
        raise CapExceededError("modulus above byte range is past the supported cap")
    gmats = _GEN_STACK % q

    def step(frontier):
        mats = frontier.reshape(-1, 4, 4).astype(np.int64)
        return (np.einsum("nij,gjk->ngik", mats, gmats) % q).reshape(-1, 16).astype(np.uint8)

    ident = np.eye(4, dtype=np.uint8).reshape(1, 16) % q
    return QuotientClosure(q, _bfs_closure(ident, step, QUOTIENT_CAP))


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


# Largest orbit vector_orbit closes, read at each call.  Only tests and the
# closures mod divisors of 24 that the closed forms below start from (40
# rows for the default root) reach it, and only tests change it.  The peak
# is about 250 bytes per row of the largest BFS level, which holds up to
# 0.68 of the rows reached: q = 151 (3,420,300 rows) peaks at 506 MB, q = 199
# (7,841,196) at 1.08 GB, and q = 223 stopped at a cap of 8,000,000 peaks at
# 1.38 GB, so a closure stopped at this cap peaks near 1.2 GB.
ORBIT_CAP = 7_000_000
# Largest modulus vector_orbit and the closed forms take: a step's entries
# are sums of four products of residues, below 4 (q - 1)^2, which fits in
# int64 up to here, and trial division of q takes at most 2^15 steps.
ORBIT_MODULUS_CAP = 1 << 30


def vector_orbit(root, q: int) -> np.ndarray:
    """Orbit of the root quadruple mod q under Gamma, as an (n, 4) array
    with rows in lexicographic order.  The root is reduced mod q in Python
    integers, so its entries may be of any size.  A modulus above
    ORBIT_MODULUS_CAP raises CapExceededError before any arithmetic, and an
    orbit of more than ORBIT_CAP rows once it is reached."""
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

    start = np.array([[x % q for x in root]], dtype=dtype)
    return _bfs_closure(start, step, ORBIT_CAP).astype(np.int64)


@lru_cache(maxsize=64)
def _orbit_cached(root, q):
    return vector_orbit(root, q)


def _orbit_mod_24_part(q: int, root):
    """g = gcd(q, 24), the root and its orbit mod g, with q and the root
    checked: a modulus above ORBIT_MODULUS_CAP is refused before it is
    factored, and the root must be primitive for the closed forms below."""
    if q < 1:
        raise core.InputError("q >= 1")
    if q > ORBIT_MODULUS_CAP:
        raise CapExceededError(f"modulus {q} is above the cap {ORBIT_MODULUS_CAP}")
    g, root = gcd(q, 24), core.validate_root(root)
    return g, root, _orbit_cached(root, g)


# Most classes admissible_classes lists, and `admissible` over all its
# moduli, read at each call.  `admissible` holds each class as a Python int
# in a set and a sorted list and then as JSON text (json's C encoder, no
# indent), about 85 bytes a class: 4,000,002 classes (q = 16,000,008) take
# 3.2 s and 408 MB and 9,000,000 (q = 36,000,000) 6.7 s and 775 MB on a
# 2-CPU machine, so more classes than this raise before any is listed
ADMISSIBLE_CLASSES_CAP = 10_000_000


def admissible_count(q: int, root=core.DEFAULT_ROOT) -> int:
    """The number of admissible classes mod q, without listing them: the
    admissible classes mod g = gcd(q, 24) times q / g."""
    g, _, orb = _orbit_mod_24_part(q, root)
    return np.unique(orb).size * (q // g)


def admissible_classes(q: int, root=core.DEFAULT_ROOT) -> set:
    """Residues mod q arising as some entry of the orbit of the root.

    They are the n whose class mod g = gcd(q, 24) is admissible (see
    stabilizer_index): every residue mod the rest of q occurs in each slot.
    More than ADMISSIBLE_CLASSES_CAP classes raise CapExceededError before
    any is listed."""
    count = admissible_count(q, root)
    if count > ADMISSIBLE_CLASSES_CAP:
        raise CapExceededError(f"{count} admissible classes mod {q} are above "
                               f"the cap {ADMISSIBLE_CLASSES_CAP}")
    g, _, orb = _orbit_mod_24_part(q, root)
    return set((np.arange(0, q, g)[:, None] + np.unique(orb)).ravel().tolist())


def is_admissible(n: int, root=core.DEFAULT_ROOT) -> bool:
    return n % 24 in admissible_classes(24, root)


def stabilizer_index(q: int, root=core.DEFAULT_ROOT) -> int:
    """Index of the mod-q stabilizer of the root = size of its orbit mod q.

    Closed form from the orbit mod g = gcd(q, 24), by strong approximation
    for the Apollonian group (Fuchs, J. Number Theory 131, 2011): the orbit
    mod q is the orbit mod the 2- and 3-parts times, for each p^k || q with
    p >= 5, every primitive vector on the Descartes cone mod p^k, of which
    there are p^(3(k-1)) (p^3 - 1 + e (p^2 - p)), e = (-1)^((p-1)/2); and
    the orbits mod 2^a and 3^b are the preimages of those mod 8 and mod 3.
    vector_orbit is the oracle.  The affine orbit grows like q^3; the
    projective count (see stabilizer_index_projective) grows like q^2."""
    g, _, orb = _orbit_mod_24_part(q, root)
    size = orb.shape[0] * (q // g) ** 3
    for p, _ in _factorize(q):
        if p >= 5:
            e = 1 if p % 4 == 1 else -1
            size = size // p**3 * (p**3 - 1 + e * (p * p - p))
    return size


def stabilizer_index_projective(q: int, root=core.DEFAULT_ROOT) -> int:
    """Number of scalar classes in the orbit of the root mod q.

    Unit scalars commute with Gamma, so lam * O is the orbit of lam * root:
    it is O itself when lam * root lies in O and disjoint from O otherwise.
    The units keeping O form a group U, and every row of O is primitive mod
    q (Gamma is invertible and the root is primitive), so lam * w = w only
    for lam = 1: each class meets O in |U| rows, and the count is |O| / |U|.
    By the closed form of stabilizer_index (Fuchs 2011), lam keeps O mod q
    exactly when lam mod g = gcd(q, 24) keeps O mod g, so |U| is phi(q) /
    phi(g) times the units mod g keeping the orbit mod g.  For q = 1 the one
    unit is 0."""
    g, root, orb = _orbit_mod_24_part(q, root)
    rows = set(map(tuple, orb.tolist()))
    kept = sum(tuple(lam * x % g for x in root) in rows
               for lam in range(g) if gcd(lam, g) == 1)
    units = q // g  # phi(q) / phi(g)
    for p, _ in _factorize(q):
        if p >= 5:
            units = units // p * (p - 1)
    return stabilizer_index(q, root) // (kept * units)
