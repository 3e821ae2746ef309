"""Finite quotients of the Gaussian-integer form of the Apollonian group,
alternating generation length, local congruence identities, and the
combinatorial spectral gap of Cayley-graph Markov operators.

Working generators (after the off-diagonal twist of the spin preimage):

    gamma1 = (1 4; 0 1),  gamma2 = (1 0; 1 1),  gamma3 = (1+2i 4; 1 1-2i),

with the symmetric set S = {+-gamma_j^{+-1}}.  Quotients mod q live in
SL(2, Z[i]/(q)); elements are encoded as eight residues (real/imag parts
of the four entries), one byte each.  Closures come from the breadth-first
engine in congruence, which returns the encoded rows in lexicographic
order, so an element's index is found by binary search over its bytes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from math import gcd

import numpy as np

from .congruence import QuotientClosure, _bfs_closure
from .core import (SPIN_PREIMAGE_GENERATORS, GaussInt, InputError, gi, m2_mul, m2_neg,
                   m2_inv_det1)
from .orbit import CapExceededError

GAMMA1 = ((gi(1), gi(4)), (gi(0), gi(1)))
GAMMA2 = ((gi(1), gi(0)), (gi(1), gi(1)))
GAMMA3 = ((gi(1, 2), gi(4)), (gi(1), gi(1, -2)))

IDENTITY2 = ((gi(1), gi(0)), (gi(0), gi(1)))

# the conjugating data for the spin-preimage generators
TWIST_A = ((gi(1), gi(0, 1)), (gi(0), gi(1)))


def symmetric_set(mats) -> tuple:
    """All of +-g^{+-1} for g in mats, as a tuple (duplicates possible mod q)."""
    return tuple(s for g in mats for h in (g, m2_inv_det1(g)) for s in (h, m2_neg(h)))


S_BAR = symmetric_set((GAMMA1, GAMMA2, GAMMA3))
H1_GENS = symmetric_set((GAMMA1, GAMMA2))
H2_GENS = symmetric_set((GAMMA1, GAMMA3))


def generator_correspondence_check() -> dict:
    """Conjugate the spin-preimage generators by (1 i; 0 1), twist the
    off-diagonal entries by -i and i, and compare with gamma1..gamma3.

    Returns a witness report; the comparison is up to overall sign."""
    a_inv = m2_inv_det1(TWIST_A)
    report = {"matches": [], "all_match": True}
    targets = (GAMMA1, GAMMA2, GAMMA3)
    for g, t in zip(SPIN_PREIMAGE_GENERATORS, targets):
        conj = m2_mul(a_inv, m2_mul(g, TWIST_A))
        minus_i, plus_i = gi(0, -1), gi(0, 1)
        twisted = (
            (conj[0][0], conj[0][1] * minus_i),
            (conj[1][0] * plus_i, conj[1][1]),
        )
        ok = twisted == t or twisted == m2_neg(t)
        report["matches"].append({
            "conjugated": conj,
            "twisted": twisted,
            "target": t,
            "match_up_to_sign": ok,
        })
        report["all_match"] &= ok
    return report


# ---------------------------------------------------------------------------
# residue arithmetic and closures
# ---------------------------------------------------------------------------

def _encode(mats, q: int) -> np.ndarray:
    """(n, 8) uint8 of residues: (re, im) of entries in row-major order.

    Every quotient starts here, so q is checked here: InputError below 1,
    CapExceededError above the byte range."""
    if q < 1:
        raise InputError("q >= 1")
    if q > 255:
        raise CapExceededError("modulus above byte range is past the supported cap")
    out = np.empty((len(mats), 8), dtype=np.uint8)
    for k, m in enumerate(mats):
        flat = []
        for row in m:
            for e in row:
                flat += [e.re % q, e.im % q]
        out[k] = flat
    return out


def _gmul(x: np.ndarray, y: np.ndarray, q: int) -> np.ndarray:
    """Products x y mod q of encoded matrices; x and y are (..., 8) arrays
    that broadcast against each other, so either may be a single (8,) row.

    Residues are below q <= 255, so each entry, a sum of four products of
    two residues, stays below 4 * 254^2 < 2^31: int32 does not wrap."""
    ar, ai, br, bi, cr, ci, dr, di = np.moveaxis(np.asarray(x, dtype=np.int32), -1, 0)
    er, ei, fr, fi, gr_, gi_, hr, hi = np.moveaxis(np.asarray(y, dtype=np.int32), -1, 0)
    out = np.stack([
        # row 1
        ar * er - ai * ei + br * gr_ - bi * gi_,
        ar * ei + ai * er + br * gi_ + bi * gr_,
        ar * fr - ai * fi + br * hr - bi * hi,
        ar * fi + ai * fr + br * hi + bi * hr,
        # row 2
        cr * er - ci * ei + dr * gr_ - di * gi_,
        cr * ei + ci * er + dr * gi_ + di * gr_,
        cr * fr - ci * fi + dr * hr - di * hi,
        cr * fi + ci * fr + dr * hi + di * hr,
    ], axis=-1)
    return (out % q).astype(np.uint8)


# Largest closure closure_sl2 builds, read at each call: spectral (and its
# --q help), verify and demo 08 reach it through _closure_cached, and only
# tests change it.  spectral --q at q = 9 (87,480 elements) takes 1.1 s and
# 52 MB, at q = 11 (1,771,440) 23 s and 407 MB on a 2-CPU machine, about 230
# bytes an element; q = 13 (4,769,856) would need about 1.1 GB, so the
# closure stops between the two.
CLOSURE_CAP = 2_000_000


def closure_sl2(q: int, gens=None) -> QuotientClosure:
    """Breadth-first closure of the given generators (S_BAR if None) mod q.

    Raises CapExceededError once more than CLOSURE_CAP elements are reached,
    before anything that scales with the closure times the generators is
    built."""
    genc = np.unique(_encode(S_BAR if gens is None else gens, q), axis=0)
    elements = _bfs_closure(_encode([IDENTITY2], q),
                            lambda f: np.concatenate([_gmul(f, g, q) for g in genc]),
                            CLOSURE_CAP)
    return QuotientClosure(q, elements)


@lru_cache(maxsize=32)
def _closure_cached(q: int, gens: tuple) -> QuotientClosure:
    # gens has no default: the cache keys on the arguments as passed, and a
    # default would give the closure of S_BAR two keys
    return closure_sl2(q, gens)


# ---------------------------------------------------------------------------
# alternating set products
# ---------------------------------------------------------------------------

def _left_product(perms: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """H A as a boolean mask over the classes {g, -g}, for the set A given
    by mask and the subgroup H whose generators act as the rows of perms
    (the class of g -> the class of s g).

    H A is the smallest superset of A closed under left multiplication by
    the generators, because H is finite: the frontier loop finds it with
    one gather per generator per step."""
    mask = mask.copy()
    frontier = np.flatnonzero(mask)
    while frontier.size:
        images = perms[:, frontier].ravel()
        frontier = np.unique(images[~mask[images]])
        mask[frontier] = True
    return mask


def alternation_length(q: int):
    """Minimal k with (H1 H2)^k = the full quotient G mod q.

    Set products are boolean masks over the classes {g, -g} of G: H1 and H2
    contain -I = (-s) s^-1, so H A is a union of classes for every A, and a
    set's size is the sum of its classes' sizes.  Since (H1 H2)^k =
    H1 H2 (H1 H2)^(k-1), each step left-multiplies by H2 and then by H1,
    through the class permutations of their generators, so no subgroup is
    enumerated.  The products are nested (I lies in H1 H2), so they grow
    until they reach G or stop growing for good, which raises RuntimeError.
    Returns (k, sizes) where sizes[j] is |(H1 H2)^(j+1)|."""
    G = _closure_cached(q, S_BAR)
    p1, cls = _class_perms(G, _walk_generators(H1_GENS, q), q)
    p2, _ = _class_perms(G, _walk_generators(H2_GENS, q), q)
    class_size = G.order // p1.shape[1]
    current = np.zeros(p1.shape[1], dtype=bool)
    current[cls[G.index_of(_encode([IDENTITY2], q))]] = True
    sizes = []
    while True:
        current = _left_product(p1, _left_product(p2, current))
        sizes.append(int(current.sum()) * class_size)
        if sizes[-1] == G.order:
            return len(sizes), sizes
        if len(sizes) > 1 and sizes[-1] == sizes[-2]:
            raise RuntimeError(
                f"set products stalled at {sizes[-1]} < {G.order} for q={q}"
            )


# ---------------------------------------------------------------------------
# local congruence identities
# ---------------------------------------------------------------------------

def _int_mat(rows):
    return tuple(tuple(gi(x) if isinstance(x, int) else x for x in row) for row in rows)


_GAMMA3_INV = m2_inv_det1(GAMMA3)


def _conj_by_gamma3_power(m, c: int):
    out = m
    if c == 0:
        return out
    g = GAMMA3 if c > 0 else _GAMMA3_INV
    ginv = _GAMMA3_INV if c > 0 else GAMMA3
    for _ in range(abs(c)):
        out = m2_mul(g, m2_mul(out, ginv))
    return out


# (terms, T) for each identity of local_identity_check, with T a Gaussian
# matrix and each term (delta, c, X) for an integer matrix X
_LOCAL_IDENTITIES = {
    2: [
        ([(1, 0, ((0, 1), (0, 0)))], _int_mat(((0, 1), (0, 0)))),
        ([(1, 0, ((0, 0), (1, 0)))], _int_mat(((0, 0), (1, 0)))),
        ([(1, 0, ((1, 0), (0, -1)))], _int_mat(((1, 0), (0, -1)))),
        ([(2, 0, ((1, 3), (1, -1))), (2, 1, ((0, 1), (0, 0)))],
         _int_mat(((gi(0, -1), 0), (0, gi(0, 1))))),
        ([(3, 0, ((-4, 0), (3, 4))), (3, 1, ((0, 0), (1, 0)))],
         _int_mat(((0, 0), (gi(0, 1), 0)))),
        ([(4, 0, ((2, 15), (4, -2))), (4, 2, ((0, 1), (0, 0)))],
         _int_mat(((gi(0, -1), gi(0, 1)), (0, gi(0, 1))))),
    ],
    3: [
        ([(1, 0, ((1, 3), (1, -1))), (1, 1, ((0, 1), (0, 0)))],
         _int_mat(((gi(0, 1), gi(0, 1)), (0, gi(0, -1))))),
        ([(1, 0, ((-4, 16), (3, 4))), (1, 1, ((0, 0), (1, 0)))],
         _int_mat(((gi(0, 1), 0), (gi(0, -1), gi(0, -1))))),
        ([(1, 0, ((2, 15), (4, -2))), (1, 2, ((0, 1), (0, 0)))],
         _int_mat(((gi(0, 1), gi(0, -1)), (0, gi(0, -1))))),
    ],
}


def local_identity_check(p: int, m: int) -> dict:
    """Verify the displayed matrix congruences mod p^m by exact arithmetic.

    Each identity reads  sum_t p^(m - d_t) gamma3^(c_t) X_t gamma3^(-c_t)
    = p^(m-1) T  (mod p^m)."""
    if p not in (2, 3):
        raise ValueError("identities are for p in {2, 3}")
    if p == 2 and m < 8:
        raise ValueError("the 2-adic identities are stated for m >= 8")
    if p == 3 and m < 1:
        raise ValueError("m >= 1")
    pm = p ** m
    results = []
    for terms, target in _LOCAL_IDENTITIES[p]:
        acc = ((gi(0), gi(0)), (gi(0), gi(0)))
        for (delta, c, rows) in terms:
            x = _int_mat(rows)
            x = _conj_by_gamma3_power(x, c)
            scale = p ** (m - delta)
            term = tuple(tuple(gi(e.re * scale, e.im * scale) for e in row) for row in x)
            acc = tuple(
                tuple(acc[i][j] + term[i][j] for j in range(2)) for i in range(2)
            )
        scale = p ** (m - 1)
        ok = all(
            (acc[i][j].re - scale * target[i][j].re) % pm == 0
            and (acc[i][j].im - scale * target[i][j].im) % pm == 0
            for i in range(2) for j in range(2)
        )
        results.append(ok)
    return {"p": p, "m": m, "identities": results, "all_hold": all(results)}


def unipotent_conjugation_identity(p: int, m: int, a: int) -> bool:
    """The p >= 5 display: conjugating a fixed word of gamma3 and rational
    shears by diag(a^{-1}, a) yields the lower unipotent (1, 0; -3 i a^2/2, 1)
    mod p^m, with fractions read as inverses mod p^m."""
    if p < 5:
        raise ValueError("identity holds away from 2 and 3")
    if gcd(a, p) != 1:
        raise ValueError("(a, p) = 1 required")
    pm = p ** m

    def red(x: GaussInt):
        return gi(x.re % pm, x.im % pm)

    def mmulq(x, y):
        z = m2_mul(x, y)
        return tuple(tuple(red(e) for e in row) for row in z)

    inv2 = pow(2, -1, pm)
    inv8 = pow(8, -1, pm)
    ainv = pow(a % pm, -1, pm)
    d1 = ((gi(ainv), gi(0)), (gi(0), gi(a % pm)))
    d2 = ((gi(a % pm), gi(0)), (gi(0), gi(ainv)))
    w1 = ((gi(inv2), gi(0)), (gi((-inv8) % pm), gi(2)))
    w2 = ((gi(1), gi(0)), (gi(inv8), gi(1)))
    g3 = tuple(tuple(red(e) for e in row) for row in GAMMA3)
    g3i = tuple(tuple(red(e) for e in row) for row in _GAMMA3_INV)
    prod = d1
    for f in (w1, g3, g3, w2, g3i, d2):
        prod = mmulq(prod, f)
    target_c = (-3 * pow(2, -1, pm) * a * a) % pm
    return (prod[0][0] == gi(1) and prod[0][1] == gi(0)
            and prod[1][1] == gi(1)
            and prod[1][0] == gi(0, target_c))


def sum_of_unit_squares(x: int, p: int, m: int) -> list:
    """Units a_1..a_k (k <= 4) mod p^m with sum of squares = x mod p^m.

    Found mod p by the smallest lexicographic tuple of units, then the
    first one is Hensel-lifted (p odd)."""
    if p < 3:
        raise ValueError("p >= 3 required")
    pm = p ** m
    x %= pm
    units = list(range(1, p))
    base = None
    for k in (1, 2, 3, 4):
        base = _unit_square_tuple(x % p, units, p, k)
        if base is not None:
            break
    if base is None:
        raise ArithmeticError(f"no unit-square representation mod {p} for {x}")
    rest = sum(u * u for u in base[1:])
    target = (x - rest) % pm
    a1 = _hensel_sqrt(base[0], target, p, m)
    out = [a1] + list(base[1:])
    assert sum(u * u for u in out) % pm == x
    return out


def _unit_square_tuple(x, units, p, k):
    if k == 1:
        for u in units:
            if u * u % p == x:
                return (u,)
        return None
    for u in units:
        sub = _unit_square_tuple((x - u * u) % p, units, p, k - 1)
        if sub is not None:
            return (u,) + sub
    return None


def _hensel_sqrt(a0: int, target: int, p: int, m: int) -> int:
    """Lift a0 with a0^2 = target (mod p) to a root mod p^m by Newton."""
    pm = p ** m
    a = a0 % pm
    assert (a * a - target) % p == 0
    k = 1
    while k < m:
        k = min(2 * k, m)
        mod = p ** k
        a = (a - (a * a - target) * pow(2 * a, -1, mod)) % mod
    assert (a * a - target) % pm == 0
    return a


# ---------------------------------------------------------------------------
# Markov operators and spectra
# ---------------------------------------------------------------------------

class EigensolverError(RuntimeError):
    pass


@dataclass
class CayleySpectrum:
    q: int
    group_order: int
    s_size: int            # distinct walk generators mod q
    eigenvalues: tuple     # descending, starting with 1.0
    matvecs: int           # single-vector applications of T on G/{+-I}; 0 for a dense solve
    stages: dict           # seconds spent in closure_s, permutations_s and solve_s


def _negate(rows: np.ndarray, q: int) -> np.ndarray:
    """-x mod q of encoded matrices."""
    return ((q - rows) % q).astype(np.uint8)


def _walk_generators(s_mats, q: int) -> np.ndarray:
    """The distinct s mod q, encoded; ValueError unless they are closed under
    s -> -s and s -> s^-1, as symmetric_set makes them."""
    genc = np.unique(_encode(s_mats, q), axis=0)
    if not np.array_equal(np.unique(_encode(symmetric_set(s_mats), q), axis=0), genc):
        raise ValueError(f"the walk generators mod {q} are not closed under "
                         f"s -> -s and s -> s^-1; pass them through symmetric_set")
    return genc


def _class_perms(G: QuotientClosure, genc: np.ndarray, q: int):
    """The walk of the distinct s_k mod q on G/{+-I}, as permutations of the
    classes {g, -g}: perms[k][c] = class of (s_k * g_c) for the first
    element g_c of class c, with one s_k from each pair {s, -s}.  Also
    returns cls, the class of each element of G.

    genc is _walk_generators(S, q), so S mod q is closed under s -> -s and
    s -> s^-1.  Then -I = (-s) s^-1 lies in G, and an odd function f
    (f(-g) = -f(g)) has f(s g) + f(-s g) = 0, so T f = 0, and T acts on
    the even functions as the walk on the classes.
    So spec T = spec(walk on the classes) and 0 once for each of the
    |G| - (number of classes) odd dimensions.  For q <= 2, -g = g and every
    element is its own class."""
    n = G.order
    neg = G.index_of(_negate(G.elements, q))
    reps = np.flatnonzero(np.arange(n) <= neg)
    cls = np.empty(n, dtype=np.int32)
    cls[reps] = cls[neg[reps]] = np.arange(reps.size)
    gidx = G.index_of(genc)
    gens = genc[gidx <= neg[gidx]]
    rep_rows = G.elements[reps]
    out = np.empty((gens.shape[0], reps.size), dtype=np.int32)
    for k in range(gens.shape[0]):
        out[k] = cls[G.index_of(_gmul(gens[k], rep_rows, q))]
    return out, cls


def _apply_walk(perms: np.ndarray, X: np.ndarray, out: np.ndarray,
                buf: np.ndarray) -> np.ndarray:
    """T applied to each row of the (b, n) block X, written into out: the
    mean of the rows gathered through every generator's permutation.  buf
    is (b, n) scratch."""
    # the indices are in range; mode="clip" skips the buffered copy that
    # the default bounds check makes of out
    np.take(X, perms[0], axis=1, out=out, mode="clip")
    for row in perms[1:]:
        np.take(X, row, axis=1, out=buf, mode="clip")
        out += buf
    out /= perms.shape[0]
    return out


def _lengths(V: np.ndarray) -> np.ndarray:
    """The length of each row of V, with no temporary of the size of V."""
    return np.sqrt(np.einsum("ij,ij->i", V, V))


def _row_norms(V: np.ndarray) -> np.ndarray:
    """The length of each row of V, as a column, kept above zero."""
    return np.maximum(_lengths(V), np.finfo(float).tiny)[:, None]


def _residual(X: np.ndarray, TX: np.ndarray, mu: np.ndarray, out: np.ndarray) -> float:
    """Write the residual rows TX - mu X into out; return the largest length."""
    np.multiply(mu[:, None], X, out=out)
    np.subtract(TX, out, out=out)
    return _lengths(out).max()


def _rayleigh_ritz(S: np.ndarray, TS: np.ndarray, b: int):
    """The b largest Ritz pairs of T on the span of the rows of S, where TS
    holds T applied to each row.

    Works on the small Gram matrices only.  Directions along which the rows
    are dependent to rounding are dropped, so the rows need not be
    independent.  Returns the Ritz values, descending, and a (b, rows)
    coefficient matrix C whose product with S gives orthonormal Ritz
    vectors."""
    gram = S @ S.T
    tgram = S @ TS.T
    w, v = np.linalg.eigh(gram)
    keep = w > 1e-12 * w[-1]
    whiten = v[:, keep] / np.sqrt(w[keep])
    small = whiten.T @ tgram @ whiten
    theta, z = np.linalg.eigh(0.5 * (small + small.T))
    return theta[::-1][:b], (whiten @ z[:, ::-1][:, :b]).T


def _top_eigenvalues(perms: np.ndarray, b: int, rng):
    """The b largest eigenvalues of T on the functions of mean zero, with
    multiplicity, by LOBPCG (Knyazev, SIAM J. Sci. Comput. 23(2), 2001).

    X holds the current Ritz vectors, R their residuals and P the last step
    taken, each as b rows of one (3b, n) array S, so that each Gram matrix
    is one product; TS holds TX, TR and TP, carried along as the same linear
    combinations, so each step applies T only to the new residual block.
    Every update is written in place; the next P and TP are formed in two
    (b, n) buffers, which are the scratch of the other steps.  A block
    Krylov space started from b random rows meets every eigenspace in
    min(b, multiplicity) dimensions, so repeated eigenvalues come back as
    often as the block has room for.  Returns (eigenvalues, matvecs)."""
    n = perms.shape[1]
    S, TS = np.empty((3 * b, n)), np.empty((3 * b, n))
    buf, tbuf = np.empty((b, n)), np.empty((b, n))
    X, R, P = S[:b], S[b:2 * b], S[2 * b:]
    TX, TR, TP = TS[:b], TS[b:2 * b], TS[2 * b:]
    rng.standard_normal(out=X)
    X -= X.mean(axis=1, keepdims=True)
    _apply_walk(perms, X, TX, buf)
    matvecs = b
    mu, c = _rayleigh_ritz(X, TX, b)
    X[...] = np.matmul(c, X, out=buf)
    TX[...] = np.matmul(c, TX, out=buf)
    rows = 2 * b   # rows of S in the basis: X and R, then also P
    resid = np.inf
    for _ in range(EIGEN_MAX_ITER):
        resid = _residual(X, TX, mu, R)
        if resid < EIGEN_TOL * 10:
            # confirm on a fresh product, which also clears the rounding
            # that the carried combination TX has gathered
            _apply_walk(perms, X, TX, buf)
            matvecs += b
            resid = _residual(X, TX, mu, R)
            if resid < EIGEN_TOL * 10:
                return mu, matvecs
        R -= R.mean(axis=1, keepdims=True)
        R -= np.matmul(R @ X.T, X, out=buf)
        R /= _row_norms(R)
        _apply_walk(perms, R, TR, buf)
        matvecs += b
        mu, c = _rayleigh_ritz(S[:rows], TS[:rows], b)
        # the next P is cr R + cp P; X moves to cx X + P, with cx X formed
        # in the rows of R, which are spent
        np.matmul(c[:, b:], S[b:rows], out=buf)
        np.matmul(c[:, b:], TS[b:rows], out=tbuf)
        np.add(np.matmul(c[:, :b], X, out=R), buf, out=X)
        np.add(np.matmul(c[:, :b], TX, out=TR), tbuf, out=TX)
        norms = _row_norms(buf)
        np.divide(buf, norms, out=P)
        np.divide(tbuf, norms, out=TP)
        rows = 3 * b
    raise EigensolverError(
        f"block eigensolver did not converge in {EIGEN_MAX_ITER} iterations "
        f"(residual {resid:.3g})")


# residual bound and block steps of markov_spectrum's eigensolver, read at
# each call: spectral, verify and demo 08 reach them, and only tests change
# them.  Every returned pair has |Tv - mu v| < 10 EIGEN_TOL.  spectral --q 5
# and 7 converge after 171 and 147 matvecs (about 50 block steps of 3 rows),
# so EIGEN_MAX_ITER only stops a solve that does not converge
EIGEN_TOL = 1e-8
EIGEN_MAX_ITER = 100_000


def markov_spectrum(q: int, s_mats=None, top_k: int = 3, seed: int = 0) -> CayleySpectrum:
    """Top eigenvalues of the walk operator T f(g) = |S|^-1 sum f(s g).

    S (S_BAR if None) is deduplicated mod q and must be closed under
    s -> -s and s -> s^-1 there, as symmetric_set makes it, or ValueError
    is raised before the closure is built.  So the operator is
    self-adjoint, the spectrum is real in [-1, 1], and 1 is simple with the
    constants as eigenvectors because S generates the group.  T is solved on G/{+-I}
    (see _class_perms), and the eigenvalue 0 of the odd functions is
    merged in.  The top_k largest signed eigenvalues below 1 come, with
    multiplicity, from one block iteration (LOBPCG) of top_k rows drawn
    from seed on the functions of mean zero; T is applied as gathers
    through the permutations of the classes.  Every returned pair has
    residual |Tv - mu v| < 10 EIGEN_TOL, or EigensolverError is raised after
    EIGEN_MAX_ITER block steps.  When the classes are too few for a block step
    (at most 3 top_k + 1) the spectrum comes from a dense eigvalsh
    instead."""
    if top_k < 1:
        raise ValueError(f"top_k must be at least 1, got {top_k}")
    s_mats = S_BAR if s_mats is None else tuple(s_mats)
    genc = _walk_generators(s_mats, q)
    stages = dict.fromkeys(("closure_s", "permutations_s", "solve_s"), 0.0)
    t0 = time.perf_counter()
    G = _closure_cached(q, s_mats)
    t1 = time.perf_counter()
    stages["closure_s"] = t1 - t0
    perms, _ = _class_perms(G, genc, q)
    t0 = time.perf_counter()
    stages["permutations_s"] = t0 - t1
    n, m = G.order, perms.shape[1]
    if m <= 3 * top_k + 1:
        T = np.zeros((m, m))
        for row in perms:
            T[np.arange(m), row] += 1.0 / perms.shape[0]
        eigs, matvecs = np.linalg.eigvalsh(T)[::-1][1:], 0
    else:
        eigs, matvecs = _top_eigenvalues(perms, top_k, np.random.default_rng(seed))
    eigs = np.sort(np.concatenate([eigs, np.zeros(min(top_k, n - m))]))[::-1][:top_k]
    stages["solve_s"] = time.perf_counter() - t0
    return CayleySpectrum(q, n, genc.shape[0], (1.0,) + tuple(float(e) for e in eigs), matvecs,
                          stages)


@dataclass
class TransferenceReport:
    q: int
    k_alt: int
    lhs: float          # 1 - lambda1(G, S)
    rhs: float          # min_i weight_i (1 - lambda1(G_i, S cap G_i)) / (2 k'^2)
    holds: bool
    details: dict


def transference_check(spec_g: CayleySpectrum) -> TransferenceReport:
    """The subgroup-decomposition bound for the spectral gap, with the
    2k-factor alternating H1, H2 decomposition from alternation_length.

    spec_g is the spectrum of the full walk mod q, markov_spectrum(q), as
    the caller already has it; only the H1 and H2 walks are solved here."""
    q = spec_g.q
    k_alt, _ = alternation_length(q)
    kprime = 2 * k_alt
    g_order = spec_g.group_order
    s_total = spec_g.s_size
    # a group of order 1 has no eigenvalue below 1; its lambda1 reads -1.0
    lam_g = spec_g.eigenvalues[1] if g_order > 1 else -1.0
    lhs = 1.0 - lam_g
    rhs_terms = []
    details = {"G_order": g_order, "S_size": s_total, "lambda1_G": lam_g}
    for name, gens in (("H1", H1_GENS), ("H2", H2_GENS)):
        spec_h = markov_spectrum(q, gens)
        s_cap = spec_h.s_size
        lam = spec_h.eigenvalues[1] if spec_h.group_order > 1 else -1.0
        term = (s_cap / s_total) * (1.0 - lam) / (2.0 * kprime * kprime)
        rhs_terms.append(term)
        details[name] = {"order": spec_h.group_order, "s_cap": s_cap, "lambda1": lam}
    rhs = min(rhs_terms)
    return TransferenceReport(q, k_alt, lhs, rhs, bool(lhs >= rhs), details)
