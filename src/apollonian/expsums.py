"""Local exponential sums, the singular series, and a toy circle-method
harness for representation numbers of shifted forms.

The central object is the normalized complete sum

    S_f(q0, r; n, m) = q0^{-2} sum_{k, l mod q0} e_q0(r f(k,l) + n k + m l),

f(k,l) = A k^2 + 2B kl + C l^2, (r, q0) = 1.  For odd q0 it collapses to a
product of Gauss sums; the closed form is implemented next to the direct
sum, which stays the ground truth on the whole domain (including even q0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import gcd

import numpy as np

from . import congruence
from .core import DEFAULT_ROOT, InputError, validate_root
from .forms import ShiftedForm, _factorize
from .orbit import CapExceededError, Family


class UnsupportedModulusError(InputError):
    pass


class GridTooCoarseError(InputError):
    pass


def mobius(n: int) -> int:
    mu = 1
    for _, e in _factorize(n):
        if e > 1:
            return 0
        mu = -mu
    return mu


@lru_cache(maxsize=512)
def _roots_of_unity(q: int) -> np.ndarray:
    return np.exp(2j * np.pi * np.arange(q) / q)


def _residue_counts(form: ShiftedForm, q0: int, r: int, n: int, m: int) -> np.ndarray:
    """Counts of (r*f(k,l) + nk + ml) mod q0 over all residue pairs, chunked."""
    A, B, C = form.A % q0, form.B % q0, form.C % q0
    k = np.arange(q0, dtype=np.int64)
    counts = np.zeros(q0, dtype=np.int64)
    chunk = max(1, (1 << 22) // q0)
    for lo in range(0, q0, chunk):
        l = np.arange(lo, min(lo + chunk, q0), dtype=np.int64)
        vals = (
            r * (A * k[:, None] % q0 * k[:, None] + 2 * B * k[:, None] * l[None, :]
                 + C * l[None, :] % q0 * l[None, :])
            + n * k[:, None] + m * l[None, :]
        ) % q0
        counts += np.bincount(vals.ravel(), minlength=q0)
    return counts


def sf_direct(form: ShiftedForm, q0: int, r: int, n: int, m: int) -> complex:
    """The normalized double sum, exactly tallied by residue classes."""
    if q0 < 1:
        raise InputError("q0 >= 1")
    if gcd(r, q0) != 1:
        raise InputError("requires (r, q0) = 1")
    if q0 == 1:
        return 1.0 + 0.0j
    counts = _residue_counts(form, q0, r % q0, n % q0, m % q0)
    return complex(counts @ _roots_of_unity(q0)) / (q0 * q0)


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n >= 1."""
    if n < 1 or n % 2 == 0:
        raise ValueError("jacobi needs odd n >= 1")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _eps(q: int) -> complex:
    """Gauss-sum sign: 1 for q = 1 mod 4, i for q = 3 mod 4 (odd q)."""
    return 1.0 + 0.0j if q % 4 == 1 else 1j


@dataclass(frozen=True)
class GcdSplit:
    """The modulus split driving the closed form: qt = (a^2, q0),
    q1 = q0/qt, a1 = a^2/qt (so a^2/q0 = a1/q1 in lowest terms), and
    L = (C n - B m)/qt when integral, else None (the sum vanishes)."""
    qt: int
    q1: int
    a1: int
    L: int | None


def gcd_split(form: ShiftedForm, q0: int, n: int, m: int) -> GcdSplit:
    qt = gcd(form.a * form.a, q0)
    q1 = q0 // qt
    a1 = (form.a * form.a) // qt
    num = form.C * n - form.B * m
    return GcdSplit(qt, q1, a1, num // qt if num % qt == 0 else None)


def sf_closed(form: ShiftedForm, q0: int, r: int, n: int, m: int) -> complex:
    """Gauss-sum closed form of sf_direct for odd q0.

    When the trailing coefficient shares a factor with q0, the first
    unimodular shear (k, l) -> (k + t l, l) making it a unit is applied,
    carrying (n, m) -> (n, n t + m).
    """
    if q0 < 1:
        raise InputError("q0 >= 1")
    if q0 % 2 == 0:
        raise UnsupportedModulusError("closed form implemented for odd q0 only")
    if gcd(r, q0) != 1:
        raise InputError("requires (r, q0) = 1")
    if q0 == 1:
        return 1.0 + 0.0j
    A, B, C, a = form.A, form.B, form.C, form.a
    if gcd(C, q0) != 1:
        t = 0
        while gcd(A * t * t + 2 * B * t + C, q0) != 1:
            t += 1
            if t > q0:
                raise InputError(f"no unimodular shear makes the form a unit mod {q0}; "
                                 f"is {form} imprimitive?")
        A, B, C = A, A * t + B, A * t * t + 2 * B * t + C
        n, m = n, n * t + m
        form = ShiftedForm(A, B, C, a)
    split = gcd_split(form, q0, n, m)
    if split.L is None:
        return 0.0 + 0.0j
    qt, q1, a1, L = split.qt, split.q1, split.a1, split.L
    phase = 1.0 + 0.0j
    inv4rC = pow(4 * r * C % q0, -1, q0)
    phase *= _roots_of_unity(q0)[(-inv4rC * m * m) % q0]
    if q1 > 1:
        inv4a1rC = pow(4 * a1 * r * C % q1, -1, q1)
        phase *= _roots_of_unity(q1)[(-inv4a1rC * L * L) % q1]
        legs = jacobi(a1 * r * pow(C, -1, q1), q1)
    else:
        legs = 1
    legs *= jacobi(r * C, q0)
    return _eps(q0) * _eps(q1) * math.sqrt(qt) / q0 * legs * phase


def kloosterman(a: int, b: int, c: int) -> complex:
    """K(a, b; c) = sum over units x mod c of e_c(a x + b x^-1)."""
    if c < 1:
        raise ValueError("c >= 1")
    if c == 1:
        return 1.0 + 0.0j
    roots = _roots_of_unity(c)
    total = 0.0 + 0.0j
    for x in range(1, c):
        if gcd(x, c) == 1:
            total += roots[(a * x + b * pow(x, -1, c)) % c]
    return complex(total)


def ramanujan(q: int, m: int) -> int:
    """c_q(m) as an exact integer: sum over d | (q, m) of mu(q/d) d."""
    if q < 1:
        raise ValueError("q >= 1")
    g = gcd(q, abs(m)) if m != 0 else q
    total = 0
    d = 1
    while d * d <= g:
        if g % d == 0:
            total += mobius(q // d) * d
            if d != g // d:
                total += mobius(q // (g // d)) * (g // d)
        d += 1
    return total


# ---------------------------------------------------------------------------
# Singular series
# ---------------------------------------------------------------------------

# Largest prime_cutoff taken: the sieve is a byte per integer, and 10^8
# (5,761,455 primes) takes about 2.3 s and 0.39 GB for one n.
PRIME_CUTOFF_CAP = 10**8


def _slot_factor_table(root, p: int, kappa: int) -> np.ndarray:
    """The local factors at p of the four slots for every class mod
    q = p^kappa, a (4, q) array: q * #{w in O : w_slot = n mod q} / |O| at
    (slot, n), O the orbit of the root mod q (0 where O misses the class).
    Too large a kappa raises CapExceededError at the congruence caps."""
    q = p ** kappa
    orb = congruence._orbit_cached(root, q)
    counts = np.stack([np.bincount(orb[:, slot], minlength=q) for slot in range(4)])
    return counts * (q / orb.shape[0])


def singular_series(n: int, root=DEFAULT_ROOT, prime_cutoff: int = 13) -> float:
    """singular_series_sweep at one n."""
    return float(singular_series_sweep([n], root, prime_cutoff)[0])


def singular_series_sweep(ns, root=DEFAULT_ROOT, prime_cutoff: int = 13) -> np.ndarray:
    """Truncated Euler product of local densities over the primes up to
    prime_cutoff, averaged over the four slots; zero exactly off the
    admissible classes.  The 2- and 3-factors are read off the orbit mod 8
    and mod 3, which higher powers tile.  At p >= 5 the orbit mod p is the
    punctured cone (strong approximation, Fuchs, J. Number Theory 131, 2011):
    with e = (-1)^((p-1)/2) the factor in each slot is p^2/(p^2 - e) if p
    does not divide n, else p(p - e)/(p^2 - e)."""
    root = validate_root(root)
    if prime_cutoff < 2:
        raise InputError(f"no prime is at most the cutoff {prime_cutoff}")
    if prime_cutoff > PRIME_CUTOFF_CAP:
        raise CapExceededError(f"prime cutoff {prime_cutoff} is above the cap {PRIME_CUTOFF_CAP}")
    try:
        ns = np.asarray(ns, dtype=np.int64)
    except OverflowError:
        raise InputError("n must lie in the int64 range") from None
    slots = _slot_factor_table(root, 2, 3)[:, ns % 8]
    if prime_cutoff >= 3:
        slots *= _slot_factor_table(root, 3, 1)[:, ns % 3]
    sieve = np.ones(prime_cutoff + 1, dtype=bool)
    for q in range(2, math.isqrt(prime_cutoff) + 1):
        if sieve[q]:
            sieve[q * q::q] = False
    primes = np.flatnonzero(sieve[5:]) + 5
    p, e = primes.astype(float), np.where(primes % 4 == 1, 1.0, -1.0)
    coprime, divides = p * p / (p * p - e), p * (p - e) / (p * p - e)
    tail = np.ones(ns.shape)
    step = max(1, (1 << 20) // max(ns.size, 1))  # primes per block of n x p
    for lo in range(0, primes.size, step):
        hit = ns[..., None] % primes[lo:lo + step] == 0
        tail *= np.where(hit, divides[lo:lo + step], coprime[lo:lo + step]).prod(axis=-1)
    return slots.sum(axis=0) / 4.0 * tail


# ---------------------------------------------------------------------------
# Hat function, smoothing, and the representation-number harness
# ---------------------------------------------------------------------------

def hat_t(x, out=None) -> np.ndarray:
    """Tent function min(1+x, 1-x)^+, computed as max(1 - |x|, 0), which
    rounds the same; out may be x itself."""
    out = np.abs(np.asarray(x, dtype=float), out=out)
    np.subtract(1.0, out, out=out)
    return np.maximum(out, 0.0, out=out)


def big_theta(theta, n_scale: float, q0_cut: int, k0: float) -> np.ndarray:
    """Spike bump: sum over q < q0_cut, (r,q)=1, |m| <= 2 of
    t((n_scale/k0)(theta + m - r/q)).  The m-window suffices because the
    spike width k0/n_scale is below 1."""
    scale = n_scale / k0 if k0 > 0 else math.inf
    if not (k0 < n_scale and math.isfinite(scale)):
        raise InputError(f"need 0 < K0 < N with N/K0 finite, got K0 = {k0}, N = {n_scale}")
    theta = np.asarray(theta, dtype=float)
    out = np.zeros_like(theta)
    x = np.empty_like(theta)  # one buffer for every term
    for q in range(1, q0_cut):
        for r in range(q):
            if gcd(r, q) != 1:  # for q = 1 this keeps r = 0 alone
                continue
            for m in (-2, -1, 0, 1, 2):
                np.add(theta, m, out=x)
                x -= r / q
                x *= scale
                out += hat_t(x, out=x)
    return out


def _bump_raw(s):
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    inside = np.abs(s) < 1
    out[inside] = np.exp(-1.0 / (1.0 - s[inside] ** 2))
    return out


def _bump_mass() -> float:
    # deterministic Simpson integral of exp(-1/(1-s^2)) over [-1, 1]
    grid = np.linspace(-1.0, 1.0, 20001)
    vals = _bump_raw(grid)
    h = grid[1] - grid[0]
    weights = np.ones_like(vals)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return float((vals * weights).sum() * h / 3.0)

_BUMP_MASS = _bump_mass()


def upsilon(t) -> np.ndarray:
    """Smooth nonnegative bump supported in [1, 2] with unit mass."""
    t = np.asarray(t, dtype=float)
    return _bump_raw(2.0 * t - 3.0) * (2.0 / _BUMP_MASS)


# (member, point) pairs evaluated, and sorted keys reduced, per chunk: bounds
# the temporaries, not the result, and changes no bit of it
_CHUNK_ELEMENTS = 1 << 16
# cap on family size times live (x, y) points, and on the points of the
# (x, y) box, read at each call of box_axes and representation_number:
# circle (and its --x help) and demo 07 reach it, and only tests change it.
# The representation holds an 8-byte key per (member, point) pair and 24
# bytes per represented integer (at most one per pair), 32-36 bytes a pair
# with its temporaries (0.26 GB at 7.3M pairs, 0.40 GB at 11.0M and 0.53 GB
# at 16.3M); with the largest family (T1 = 632, T2 = 1024, 11.0M pairs at
# X = 5) and a 2^22-point grid `circle` peaks at 1.05 GB on a 2-CPU machine,
# and 2^25 would pass 1.4 GB
REPRESENTATION_CAP = 1 << 24
# the key of a pair is the int64 (n - n_lo) P + pair, P the number of pairs:
# (n_hi - n_lo + 1) P above this cap, or a value n that may leave +-2^62,
# exits before the keys are allocated; at the pair cap the default root
# needs at most a sixth of it (1.5e18 at T1 = T2 = 64, X = 158), so only
# roots with large entries reach it
REPRESENTATION_KEY_CAP = 2**63 - 1


@dataclass
class Representation:
    """Weighted representation numbers of a family at scale X.

    values holds the represented integers n in ascending order and weights
    the R(n) aligned with them.  origin holds, aligned with them, the first
    (member, point) pair giving n, as member * points + point over the live
    points of the (x, y) box in row-major order: the first pair in member
    order, then in box order.  pairs counts the (member, point) pairs summed.
    """
    family: Family
    x_scale: int
    truncation: int | None
    values: np.ndarray
    weights: np.ndarray
    origin: np.ndarray
    pairs: int = 0

    @cached_property
    def witnesses(self) -> np.ndarray | None:
        """For exact-coprime runs only (else None), the (m, 3) int64 array of
        (member index, x, y) aligned with values, n = (f - a)(2x, y) and
        gcd(2x, y) = 1, read off origin when first accessed."""
        if self.truncation is not None:
            return None
        fx, fy, _ = _live_points(self.x_scale, None)
        member, point = np.divmod(self.origin, fx.size)
        return np.stack([member, fx[point], fy[point]], axis=1)

    def total_mass(self) -> float:
        return float(self.weights.sum())


def box_axes(x_scale: int):
    """The x and y ranges of the smoothed box at scale X: X/2 <= x <= X and
    X <= y <= 2X.  A CapExceededError is raised when the box holds more than
    REPRESENTATION_CAP points."""
    X = x_scale
    if X < 4:
        raise InputError("X >= 4")
    xs = np.arange((X + 1) // 2, X + 1, dtype=np.int64)
    ys = np.arange(X, 2 * X + 1, dtype=np.int64)
    if xs.size * ys.size > REPRESENTATION_CAP:
        raise CapExceededError(f"the (x, y) box at X = {X} has {xs.size * ys.size} "
                               f"points, above the cap {REPRESENTATION_CAP}")
    return xs, ys


def _live_points(x_scale: int, truncation: int | None):
    """The points (x, y) of the box with a nonzero weight, in row-major
    order, and their weights: the smoothing times 1 if gcd(2x, y) = 1 (else
    0) or, with truncation U, times the Moebius sum over u | (2x, y), u < U."""
    X = x_scale
    xs, ys = box_axes(X)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    weights = np.outer(upsilon(2.0 * xs / X), upsilon(ys / X))
    g = np.gcd(2 * gx, gy)
    if truncation is None:
        mult = (g == 1).astype(float)
    else:
        gmax = int(g.max())
        mu_tab = np.zeros(gmax + 1)
        for gg in range(1, gmax + 1):
            mu_tab[gg] = sum(mobius(u) for u in range(1, min(truncation, gg + 1))
                             if gg % u == 0)
        mult = mu_tab[g]
    weights *= mult
    live = np.abs(weights) > 0
    return gx[live], gy[live], weights[live]


def _value_bounds(forms: np.ndarray, mono: np.ndarray, step: int):
    """Integers n_lo <= n_hi bounding every value n = A m0 + B m1 + C m2 - a
    of the forms (rows A, B, C, a) at the monomials (one positive column per
    point), from the least and largest of each monomial, step members at a
    time.  A CapExceededError is raised when a value may leave +-2^62, where
    the int64 keys would overflow."""
    if forms.shape[0] == 0 or mono.shape[1] == 0:
        return 0, 0
    lo_m, hi_m = mono.min(axis=1), mono.max(axis=1)
    size = np.append(hi_m, 1).astype(float)
    n_lo, n_hi = math.inf, -math.inf
    for lo in range(0, forms.shape[0], step):
        f = forms[lo:lo + step]
        biggest = float((np.abs(f.astype(float)) @ size).max())
        if biggest >= 2.0**62:
            raise CapExceededError(f"represented values reach about {biggest:.3g}, "
                                   f"past the int64 key cap {REPRESENTATION_KEY_CAP}")
        at_lo, at_hi = f[:, :3] * lo_m, f[:, :3] * hi_m
        n_lo = min(n_lo, int((np.minimum(at_lo, at_hi).sum(axis=1) - f[:, 3]).min()))
        n_hi = max(n_hi, int((np.maximum(at_lo, at_hi).sum(axis=1) - f[:, 3]).max()))
    return n_lo, n_hi


def representation_number(family: Family, x_scale: int,
                          truncation: int | None = None) -> Representation:
    """Direct double sum over the family and the smoothed (x, y) box.

    With truncation=None the coprimality gcd(2x, y) = 1 is enforced exactly;
    with truncation=U >= 2 the Moebius sum over u | (2x, y), u < U is used
    instead (values may then be negative).  The (member, point) pair k =
    member * points + point of value n gets the int64 key (n - n_lo) P + k,
    P the number of pairs and n_lo <= n <= n_hi read off the forms and the
    box.  The keys are evaluated into one array, sorted in place and reduced
    in chunks of about max(_CHUNK_ELEMENTS, points) pairs; a run of equal n
    lists its pairs in ascending order and is never split, so the result
    does not depend on the chunk size.  The peak is 8 bytes a pair plus the
    result.  A CapExceededError is raised, before anything that
    size is allocated, when the (x, y) box or family size times live points
    exceeds REPRESENTATION_CAP, or the keys exceed REPRESENTATION_KEY_CAP."""
    X = x_scale
    if truncation is not None and truncation < 2:
        raise InputError(f"truncation U must be at least 2 (the Moebius sum over "
                         f"u < U is empty below), got {truncation}")
    fx, fy, fw = _live_points(X, truncation)
    members, points = len(family), fx.size
    pairs = members * points
    if pairs > REPRESENTATION_CAP:
        raise CapExceededError(f"{members} members at {points} live points "
                               f"exceed the cap {REPRESENTATION_CAP}")
    # n = A (4x^2) + B (4xy) + C y^2 - a
    mono = np.stack([4 * fx * fx, 4 * fx * fy, fy * fy])
    chunk = max(_CHUNK_ELEMENTS, points, 1)  # pairs evaluated or reduced at once
    step = chunk // max(points, 1)  # members per chunk
    n_lo, n_hi = _value_bounds(family.forms, mono, step)
    if (n_hi - n_lo + 1) * pairs > REPRESENTATION_KEY_CAP:
        raise CapExceededError(f"{pairs} pairs with values in [{n_lo}, {n_hi}] need keys "
                               f"above the int64 key cap {REPRESENTATION_KEY_CAP}")
    keys = np.empty(pairs, dtype=np.int64)
    term = np.empty((min(step, members), points), dtype=np.int64)
    offsets = np.arange(term.size, dtype=np.int64)
    for lo in range(0, members, step):
        hi = min(lo + step, members)
        flat = keys[lo * points:hi * points]
        rows, t = flat.reshape(hi - lo, points), term[:hi - lo]
        A, B, C, a = family.forms[lo:hi].T[:, :, None]
        np.multiply(A, mono[0], out=rows)
        np.multiply(B, mono[1], out=t)
        rows += t
        np.multiply(C, mono[2], out=t)
        rows += t
        rows -= a + n_lo
        flat *= pairs
        flat += offsets[:flat.size]
        flat += lo * points
    del term, offsets
    keys.sort()
    # reduce a chunk of keys at a time, cut where a run starts; the kept
    # n - n_lo go to the front of keys, which is read ahead of them
    origin, weights = [np.empty(0, dtype=np.int64)], [np.empty(0)]
    pos = m = 0
    while pos < pairs:
        end = min(pos + chunk, pairs)
        if end < pairs:  # end where the run holding keys[end] starts
            run = keys[end] // pairs * pairs
            end = pos + int(np.searchsorted(keys[pos:end], run))
            if end == pos:  # one run fills the chunk: take all of it
                end = int(np.searchsorted(keys, run + pairs))
        rel = keys[pos:end] // pairs
        head = np.ones(rel.size, dtype=bool)
        np.not_equal(rel[1:], rel[:-1], out=head[1:])
        starts = np.flatnonzero(head)
        pair = keys[pos:end] - rel * pairs
        sums = np.add.reduceat(fw[pair % points], starts)
        # drop numerically zero entries
        keep = np.abs(sums) > 1e-14
        starts, sums = starts[keep], sums[keep]
        keys[m:m + starts.size] = rel[starts]
        origin.append(pair[starts])
        weights.append(sums)
        m, pos = m + starts.size, end
    origin = np.concatenate(origin)  # one list at a time, each freed once joined
    weights = np.concatenate(weights)
    values = keys[:m] + n_lo
    return Representation(family, X, truncation, values, weights, origin, pairs)


def fold_weights(rep: Representation, grid: int) -> np.ndarray:
    """The weights R(n) summed over each class n mod grid."""
    return np.bincount(rep.values % grid, rep.weights, minlength=grid)


def rhat_on_grid(rep: Representation, grid: int) -> np.ndarray:
    """Exact samples of the exponential sum at theta = j/grid via one FFT."""
    return grid * np.fft.ifft(fold_weights(rep, grid))


@dataclass
class ArcDecomposition:
    grid: int
    major: np.ndarray      # M(n) for n = 0..grid-1 (mod-grid frequencies)
    error: np.ndarray      # E(n)
    folded: np.ndarray     # exact folded representation weights


def bump_on_grid(n_scale: float, q0_cut: int, k0: float, grid: int) -> np.ndarray:
    """The spike bump on a uniform grid of the circle, checked against its
    exact mass: a GridTooCoarseError is raised when the grid does not
    resolve the spikes.  It depends only on these four numbers, so callers
    can check a grid before building anything."""
    theta = np.arange(grid) / grid
    bump = big_theta(theta, n_scale, q0_cut, k0)
    # quadrature sanity: total bump mass vs exact sum of spike masses
    exact_mass = (k0 / n_scale) * sum(
        1 for q in range(1, q0_cut) for r in range(q) if gcd(r, q) == 1
    )
    got = float(bump.mean())
    if exact_mass > 0 and abs(got - exact_mass) > max(1e-3 * exact_mass, 1e-12):
        raise GridTooCoarseError(
            f"bump quadrature {got} vs exact {exact_mass}; refine the grid"
        )
    return bump


def major_arc_decomposition(rep: Representation, bump: np.ndarray) -> ArcDecomposition:
    """Split R(n) = M(n) + E(n) through the spike bump on a uniform grid.

    bump is bump_on_grid(n_scale, q0_cut, k0, grid), which checks that the
    grid resolves the spikes; the grid is its length.  M integrates
    bump * Rhat against e(-n theta); E the complement.
    The sum M + E reproduces the grid-folded representation weights
    exactly (up to float roundoff); for parameter choices whose values
    exceed the grid this folding is the documented aliasing.
    """
    grid = bump.size
    folded = fold_weights(rep, grid)
    rhat = grid * np.fft.ifft(folded)
    major = np.fft.fft(bump * rhat) / grid
    error = np.fft.fft((1.0 - bump) * rhat) / grid
    return ArcDecomposition(grid, major, error, folded)


def minor_arc_report(rep: Representation, n_scale: float, q0_cut: int,
                     k0: float, grid: int, m_depth: int) -> dict:
    """Toy-scale quadrature of the three dissection integrals of
    |1 - bump|^2 |Rhat|^2: the inner major-arc rim, the near region, and
    the dyadic minor blocks.  Reported, never asserted."""
    if q0_cut < 1:
        # the dyadic blocks double q from q0_cut
        raise InputError(f"q0_cut must be at least 1, got {q0_cut}")
    theta = np.arange(grid) / grid
    rhat2 = np.abs(rhat_on_grid(rep, grid)) ** 2
    bump = big_theta(theta, n_scale, q0_cut, k0)
    weight = np.abs(1.0 - bump) ** 2 * rhat2
    # classify each grid point by its Dirichlet approximation q <= m_depth
    qs = np.zeros(grid, dtype=np.int64)
    betas = np.zeros(grid)
    for j in range(grid):
        q, r = _dirichlet(j / grid, m_depth)
        qs[j] = q
        betas[j] = j / grid - r / q
    def region_mean(sel):
        return float(weight[sel].mean()) if sel.any() else 0.0

    i_q0k0 = region_mean((qs < q0_cut) & (np.abs(betas) < k0 / n_scale))
    i_q0 = region_mean((qs < q0_cut) & (np.abs(betas) >= k0 / n_scale))
    blocks = {}
    q = q0_cut
    while q < m_depth:
        blocks[q] = region_mean((qs >= q) & (qs < 2 * q))
        q *= 2
    return {"I_Q0K0": i_q0k0, "I_Q0": i_q0, "I_Q_dyadic": blocks}


def _dirichlet(theta: float, m_depth: int):
    """Best rational r/q, q <= m_depth, via continued fractions."""
    p0, q0_, p1, q1 = 0, 1, 1, 0
    x = theta
    best = (1, 0)
    for _ in range(64):
        a = int(math.floor(x))
        p0, q0_, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0_
        if q1 > m_depth:
            break
        best = (q1, p1) if q1 >= 1 else best
        frac = x - a
        if frac < 1e-15:
            break
        x = 1.0 / frac
    q, r = best
    return max(q, 1), r
