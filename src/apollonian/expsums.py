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
from functools import lru_cache
from math import gcd

import numpy as np

from . import congruence
from .core import DEFAULT_ROOT, InputError
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


def sf_table(form: ShiftedForm, q0: int, r: int) -> np.ndarray:
    """All values S_f(q0, r; n, m) as an (n, m)-indexed array via a 2-d FFT."""
    if gcd(r, q0) != 1:
        raise ValueError("requires (r, q0) = 1")
    if q0 == 1:
        return np.ones((1, 1), dtype=complex)
    k = np.arange(q0, dtype=np.int64)
    fk = (form.A % q0) * k[:, None] % q0 * k[:, None] \
        + 2 * (form.B % q0) * k[:, None] * k[None, :] \
        + (form.C % q0) * k[None, :] % q0 * k[None, :]
    t = _roots_of_unity(q0)[(r * fk) % q0]
    # S[n, m] = q0^{-2} sum_{k,l} t[k,l] e_q0(nk + ml) = ifft2(t)[(-n) mod, ...]
    full = np.fft.ifft2(t)  # gives q0^{-2} sum t e^{+2pi i (nk+ml)/q0} at [n, m]
    return full


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


def sf_crt_factors(form: ShiftedForm, qa: int, qb: int, r: int, n: int, m: int):
    """CRT split of sf over coprime moduli: sf(qa*qb, r; n, m) equals the
    product of the factors returned here (computed with sf_direct)."""
    if gcd(qa, qb) != 1:
        raise ValueError("moduli must be coprime")
    ib = pow(qb % qa, -1, qa) if qa > 1 else 0
    ia = pow(qa % qb, -1, qb) if qb > 1 else 0
    fa = sf_direct(form, qa, (r * ib) % qa if qa > 1 else 1, n * ib, m * ib)
    fb = sf_direct(form, qb, (r * ia) % qb if qb > 1 else 1, n * ia, m * ia)
    return fa, fb


def s_avg(q: int, q0: int, f: ShiftedForm, f2: ShiftedForm,
          n: int, m: int, n2: int, m2: int, u0: int = 1) -> complex:
    """sum over (r, q)=1 of S_f(q0, r u0; n, m) conj(S_f2(q0, r u0; n2, m2))
    times e_q(r (a2 - a))."""
    if q % q0 != 0:
        raise ValueError("q0 must divide q")
    if gcd(u0, q0) != 1:
        raise ValueError("(u0, q0) = 1 required")
    roots = _roots_of_unity(q)
    # cache the two tables over r mod q0
    tabs = {}
    total = 0.0 + 0.0j
    da = f2.a - f.a
    for r in range(1, q + 1):
        if gcd(r, q) != 1:
            continue
        r0 = (r * u0) % q0 if q0 > 1 else 0
        if r0 not in tabs:
            if q0 == 1:
                tabs[r0] = (1.0 + 0j, 1.0 + 0j)
            else:
                tabs[r0] = (
                    sf_table(f, q0, r0)[n % q0, m % q0],
                    sf_table(f2, q0, r0)[n2 % q0, m2 % q0],
                )
        sa, sb = tabs[r0]
        total += sa * np.conj(sb) * roots[(r * da) % q]
    return complex(total)


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

def _prime_cap(p: int, depth: int) -> int:
    # the quotients stabilize at 8 and 3: the 2-factor is always taken mod 8
    # and the 3-factor mod 3; extra depth applies to the other primes
    if p == 2:
        return 3
    if p == 3:
        return 1
    return depth


def _slot_factor_table(root, p: int, kappa: int, slot: int) -> np.ndarray:
    """factor_p(n) for n mod p^kappa, from the orbit of the root and
    Ramanujan sums: 1 + sum_{k<=kappa} |O_k|^{-1} sum_w c_{p^k}(w_slot - n)."""
    table = np.ones(p ** kappa, dtype=float)
    for k in range(1, kappa + 1):
        pk = p ** k
        orb = congruence._orbit_cached(root, pk)
        hist = np.bincount(orb[:, slot] % pk, minlength=pk).astype(float)
        ctab = np.array([ramanujan(pk, t) for t in range(pk)], dtype=float)
        # contribution(n) = sum_v hist[v] c_{p^k}(v - n) / |O|
        contrib = np.array([
            float(hist @ ctab[(np.arange(pk) - nn) % pk]) for nn in range(pk)
        ]) / orb.shape[0]
        # the level-k contribution depends on n mod p^k only
        table = table + contrib[np.arange(p ** kappa) % pk]
    return table


@lru_cache(maxsize=64)
def _slot_factor_cached(root, p, kappa, slot):
    return _slot_factor_table(root, p, kappa, slot)


def singular_series(n: int, root=DEFAULT_ROOT, prime_cutoff: int = 13,
                    depth: int = 1) -> float:
    """Truncated Euler product of local densities, averaged over the four
    coordinate slots of the orbit.

    The per-slot product over p <= prime_cutoff uses exponent depth
    min(depth, cap(p)) with the powers of 2 capped at 8 and of 3 at 3.
    Nonnegative; vanishes exactly on the non-admissible classes.
    """
    return float(singular_series_sweep(np.array([n]), root, prime_cutoff, depth)[0])


def singular_series_sweep(ns, root=DEFAULT_ROOT, prime_cutoff: int = 13,
                          depth: int = 1) -> np.ndarray:
    ns = np.asarray(ns, dtype=np.int64)
    primes = [p for p in range(2, prime_cutoff + 1) if _factorize(p) == [(p, 1)]]
    if not primes:
        raise InputError(f"no prime is at most the cutoff {prime_cutoff}")
    if depth < 1:
        raise InputError(f"depth must be at least 1, got {depth}")
    root = tuple(root)
    total = np.zeros(ns.shape, dtype=float)
    for slot in range(4):
        prod = np.ones(ns.shape, dtype=float)
        for p in primes:
            kappa = _prime_cap(p, depth)
            tab = _slot_factor_cached(root, p, kappa, slot)
            prod *= tab[ns % (p ** kappa)]
        total += prod
    out = total / 4.0
    # clip tiny negative rounding
    out[np.abs(out) < 1e-12] = 0.0
    if (out < 0).any():
        raise AssertionError("singular series went negative")
    return out


# ---------------------------------------------------------------------------
# Hat function, smoothing, and the representation-number harness
# ---------------------------------------------------------------------------

def hat_t(x, out=None) -> np.ndarray:
    """Tent function min(1+x, 1-x)^+, computed as max(1 - |x|, 0), which
    rounds the same; out may be x itself."""
    out = np.abs(np.asarray(x, dtype=float), out=out)
    np.subtract(1.0, out, out=out)
    return np.maximum(out, 0.0, out=out)


def hat_t_fourier(y) -> np.ndarray:
    """Fourier transform of the tent: (sin(pi y)/(pi y))^2, value 1 at 0."""
    y = np.asarray(y, dtype=float)
    out = np.ones_like(y)
    nz = y != 0
    s = np.sin(np.pi * y[nz]) / (np.pi * y[nz])
    out[nz] = s * s
    return out


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
            if q > 1 and (gcd(r, q) != 1 or r == 0):
                continue
            if q == 1 and r != 0:
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


# (member, point) values evaluated per chunk; bounds the evaluation's
# temporaries, not the result
_CHUNK_ELEMENTS = 1 << 20
# default cap on family size times live (x, y) points, and on the points of
# the (x, y) box: `circle` peaks at about 50 MB plus 71 bytes per (member,
# point) pair (measured at 5.8M and 16.3M pairs), so near 1.2 GB at the cap
REPRESENTATION_CAP = 1 << 24


@dataclass
class Representation:
    """Weighted representation numbers of a family at scale X.

    values holds the represented integers n in ascending order and weights
    the R(n) aligned with them.  witnesses, for exact-coprime runs only (else
    None), is the aligned (m, 3) array of (member index, x, y) with
    n = (f - a)(2x, y) and gcd(2x, y) = 1: the first such pair in member
    order, then in row-major order of the (x, y) box.
    """
    family: Family
    x_scale: int
    truncation: int | None
    values: np.ndarray
    weights: np.ndarray
    witnesses: np.ndarray | None

    def total_mass(self) -> float:
        return float(self.weights.sum())


def box_axes(x_scale: int, count_cap: int = REPRESENTATION_CAP):
    """The x and y ranges of the smoothed box at scale X: X/2 <= x <= X and
    X <= y <= 2X.  A CapExceededError is raised when the box holds more than
    count_cap points."""
    X = x_scale
    if X < 4:
        raise InputError("X >= 4")
    xs = np.arange((X + 1) // 2, X + 1, dtype=np.int64)
    ys = np.arange(X, 2 * X + 1, dtype=np.int64)
    if xs.size * ys.size > count_cap:
        raise CapExceededError(f"the (x, y) box at X = {X} has {xs.size * ys.size} "
                               f"points, above the cap {count_cap}")
    return xs, ys


def representation_number(family: Family, x_scale: int,
                          truncation: int | None = None,
                          count_cap: int = REPRESENTATION_CAP) -> Representation:
    """Direct double sum over the family and the smoothed (x, y) box.

    With truncation=None the coprimality gcd(2x, y) = 1 is enforced exactly;
    with truncation=U >= 2 the Moebius sum over u | (2x, y), u < U is used
    instead (values may then be negative).  Whole members are evaluated at
    every live point in chunks of about _CHUNK_ELEMENTS values; all the
    (member, point) values are then sorted once and reduced once, so the
    result does not depend on the chunk size.  A CapExceededError is raised,
    before anything that size is allocated, when the (x, y) box or family
    size times live points exceeds count_cap."""
    X = x_scale
    if truncation is not None and truncation < 2:
        raise InputError(f"truncation U must be at least 2 (the Moebius sum over "
                         f"u < U is empty below), got {truncation}")
    xs, ys = box_axes(X, count_cap)
    wx = upsilon(2.0 * xs / X)
    wy = upsilon(ys / X)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    weights = np.outer(wx, wy)
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
    weights = weights * mult
    live = np.abs(weights) > 0
    fx, fy, fw = gx[live], gy[live], weights[live]
    points = fx.size
    if len(family) * points > count_cap:
        raise CapExceededError(f"{len(family)} members at {points} live points "
                               f"exceed the cap {count_cap}")
    # n = A (4x^2) + B (4xy) + C y^2 - a, one row per member of a chunk; pair
    # k of the concatenation is member k // points at point k % points
    mono = np.stack([4 * fx * fx, 4 * fx * fy, fy * fy])
    chunks = [np.empty(0, dtype=np.int64)]
    step = max(1, _CHUNK_ELEMENTS // max(points, 1))
    for lo in range(0, len(family), step):
        A, B, C, a = family.forms[lo:lo + step].T[:, :, None]
        chunks.append((A * mono[0] + B * mono[1] + C * mono[2] - a).ravel())
    vals = np.concatenate(chunks)
    del chunks
    order = np.argsort(vals)
    vals = vals[order]
    head = np.ones(vals.size, dtype=bool)
    np.not_equal(vals[1:], vals[:-1], out=head[1:])
    starts = np.flatnonzero(head)
    values = vals[starts]
    del vals, head
    sums = np.add.reduceat(fw[order % points], starts)
    origin = np.minimum.reduceat(order, starts)   # first pair of each value
    del order, starts
    # drop numerically zero entries
    keep = np.abs(sums) > 1e-14
    values, sums, origin = values[keep], sums[keep], origin[keep]
    witnesses = None
    if truncation is None:
        member, point = np.divmod(origin, points)
        witnesses = np.stack([member, fx[point], fy[point]], axis=1)
    return Representation(family, X, truncation, values, sums, witnesses)


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

    def at(self, n: int):
        return self.major[n % self.grid], self.error[n % self.grid]


def bump_on_grid(n_scale: float, q0_cut: int, k0: float, grid: int) -> np.ndarray:
    """The spike bump on a uniform grid of the circle, checked against its
    exact mass: a GridTooCoarseError is raised when the grid does not
    resolve the spikes.  It depends only on these four numbers, so callers
    can check a grid before building anything."""
    theta = np.arange(grid) / grid
    bump = big_theta(theta, n_scale, q0_cut, k0)
    # quadrature sanity: total bump mass vs exact sum of spike masses
    exact_mass = (k0 / n_scale) * sum(
        max(1, sum(1 for r in range(1, q) if gcd(r, q) == 1)) if q > 1 else 1
        for q in range(1, q0_cut)
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
