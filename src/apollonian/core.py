"""Exact arithmetic for Descartes quadruples and the Apollonian group.

A Descartes quadruple is a 4-vector of oriented curvatures of four mutually
tangent circles; it lies on the cone of the Descartes quadratic form

    F(a,b,c,d) = 2(a^2+b^2+c^2+d^2) - (a+b+c+d)^2.

The four swap reflections S1..S4 generate the Apollonian group; its
orientation-preserving (even-word) subgroup Gamma is free on S1S2, S2S3,
S3S4.  This module also carries the spin machinery: the 2x2 story (the
SL2 unipotents behind the tangency parabolas, the xi/w vectors whose inner
products against orbit quadruples are curvatures) and the exact rational
spin cover from 2x2 Gaussian-integer matrices to 4x4 Descartes-form
automorphs.

Everything here is exact: Python integers and Fractions, no floats.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import NamedTuple


class InputError(ValueError):
    """A value given by the user is malformed or out of range: the command
    line reports it with exit code 2.  Any other ValueError is a fault."""


Mat4 = tuple  # 4x4 nested tuples, int or Fraction entries
Vec4 = tuple

# Gram matrix of F: 2*I - J (all-ones J), so F(v) = v^t Gram v.
GRAM: Mat4 = tuple(tuple(2 * (i == j) - 1 for j in range(4)) for i in range(4))

IDENTITY: Mat4 = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))

# The root quadruple of the gasket the package studies.
DEFAULT_ROOT = (-11, 21, 24, 28)


def descartes_form(v) -> int:
    """2*sum(v_i^2) - (sum v_i)^2; zero exactly on Descartes quadruples."""
    a, b, c, d = v
    s = a + b + c + d
    return 2 * (a * a + b * b + c * c + d * d) - s * s


def is_primitive(v) -> bool:
    a, b, c, d = v
    return gcd(gcd(abs(a), abs(b)), gcd(abs(c), abs(d))) == 1


def mat_mul(a: Mat4, b: Mat4) -> Mat4:
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(4)) for j in range(4))
        for i in range(4)
    )


def mat_vec(m: Mat4, v) -> Vec4:
    return tuple(sum(m[i][j] * v[j] for j in range(4)) for i in range(4))


def mat_transpose(m: Mat4) -> Mat4:
    return tuple(tuple(m[j][i] for j in range(4)) for i in range(4))


def mat_det(m: Mat4):
    # Laplace along first row; matrices here are 4x4 and exact.
    def det3(r):
        (a, b, c), (d, e, f), (g, h, i) = r
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)

    total = 0
    for j in range(4):
        minor = tuple(
            tuple(m[r][c] for c in range(4) if c != j) for r in range(1, 4)
        )
        total += (-1) ** j * m[0][j] * det3(minor)
    return total


def preserves_descartes(m: Mat4) -> bool:
    return mat_mul(mat_transpose(m), mat_mul(GRAM, m)) == GRAM


def reflection(i: int) -> Mat4:
    """Swap reflection S_i (1-based), replacing entry i by 2*(sum of others) - it."""
    if i not in (1, 2, 3, 4):
        raise ValueError(f"reflection index must be in 1..4, got {i}")
    rows = []
    for r in range(4):
        if r == i - 1:
            row = [2] * 4
            row[r] = -1
        else:
            row = [0] * 4
            row[r] = 1
        rows.append(tuple(row))
    return tuple(rows)


REFLECTIONS = tuple(reflection(i) for i in (1, 2, 3, 4))


def apply_reflection(i: int, v) -> Vec4:
    """S_i . v without building the matrix."""
    s = sum(v)
    w = list(v)
    w[i - 1] = 2 * (s - v[i - 1]) - v[i - 1]
    return tuple(w)


# Free generators of Gamma (even subgroup) and their inverses.
GAMMA_GENERATORS = (
    mat_mul(REFLECTIONS[0], REFLECTIONS[1]),  # S1 S2
    mat_mul(REFLECTIONS[1], REFLECTIONS[2]),  # S2 S3
    mat_mul(REFLECTIONS[2], REFLECTIONS[3]),  # S3 S4
)
GAMMA_GENERATOR_INVERSES = (
    mat_mul(REFLECTIONS[1], REFLECTIONS[0]),
    mat_mul(REFLECTIONS[2], REFLECTIONS[1]),
    mat_mul(REFLECTIONS[3], REFLECTIONS[2]),
)

C1 = mat_mul(REFLECTIONS[3], REFLECTIONS[2])  # S4 S3
C2 = mat_mul(REFLECTIONS[1], REFLECTIONS[2])  # S2 S3

J_CONJ: Mat4 = (
    (1, 0, 0, 0),
    (-1, 1, 0, 0),
    (-1, 1, -2, 1),
    (-1, 0, 0, 1),
)


def _frac_mat(m) -> Mat4:
    return tuple(tuple(Fraction(x) for x in row) for row in m)


def mat_inv(m: Mat4) -> Mat4:
    """Exact inverse over Fractions (Gauss-Jordan)."""
    n = 4
    aug = [
        [Fraction(m[i][j]) for j in range(n)]
        + [Fraction(int(i == j)) for j in range(n)]
        for i in range(n)
    ]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


J_CONJ_INV = mat_inv(J_CONJ)
# det J_CONJ = -2, so J_CONJ^-1 = J_CONJ_ADJ / -2 with an integer adjugate
J_CONJ_ADJ: Mat4 = tuple(tuple(int(-2 * x) for x in row) for row in J_CONJ_INV)


class NotOnConeError(ValueError):
    pass


class NegativeSheetError(ValueError):
    """Quadruple lies on the descending sheet of the cone (no root below it)."""


def reduce_to_root(v, max_steps: int = 10**6):
    """Reduce an on-cone quadruple by sum-decreasing reflections.

    Returns (root, word) with root sorted ascending and word the list of
    reflection indices applied, first applied first.  Applying the word in
    reverse order to the (unsorted) reduced quadruple reproduces v; for
    inputs reached from a sorted root the sort is a no-op and the round
    trip is exact.  Ties are broken by the smallest reflection index.
    """
    if descartes_form(v) != 0:
        raise NotOnConeError(f"descartes_form{tuple(v)} != 0")
    cur = tuple(v)
    word = []
    for _ in range(max_steps):
        s = sum(cur)
        best = None
        for i in (1, 2, 3, 4):
            w = apply_reflection(i, cur)
            if sum(w) < s:
                best = (i, w)
                break
        if best is None:
            return tuple(sorted(cur)), word
        if s <= 0:
            raise NegativeSheetError(
                f"sum-decreasing run through nonpositive sums at {cur}"
            )
        word.append(best[0])
        cur = best[1]
    raise NegativeSheetError("reduction did not terminate")


def is_reduced(v) -> bool:
    s = sum(v)
    return all(sum(apply_reflection(i, v)) >= s for i in (1, 2, 3, 4))


def validate_root(root):
    """The root as a tuple of ints; InputError unless it is on the Descartes
    cone, primitive and reduced."""
    root = tuple(int(x) for x in root)
    if descartes_form(root) != 0:
        raise InputError(f"root {root} is not on the Descartes cone")
    if not is_primitive(root):
        raise InputError(f"root {root} is not primitive")
    if not is_reduced(root):
        raise InputError(f"root {root} is not reduced")
    return root


def apply_word(word, v) -> Vec4:
    """Apply reflections in the given order: word [i1, i2, ...] does S_i1 first."""
    cur = tuple(v)
    for i in word:
        cur = apply_reflection(i, cur)
    return cur


def word_to_matrix(word) -> Mat4:
    """Matrix of S_ik ... S_i1 (so that word_to_matrix(w) @ v == apply_word(w, v))."""
    m = IDENTITY
    for i in word:
        m = mat_mul(reflection(i), m)
    return m


def gamma_word(m: Mat4, root=DEFAULT_ROOT):
    """Word certificate for membership of an integer matrix in Gamma.

    Returns an even reflection word w with word_to_matrix(w) == m, or None
    if m is not in Gamma.  Relies on the root quadruple having trivial
    stabilizer, which holds for roots with four distinct entries.
    """
    if any(not isinstance(x, int) and getattr(x, "denominator", 1) != 1 for row in m for x in row):
        return None
    w = mat_vec(m, root)
    try:
        rt, word = reduce_to_root(w)
    except (NotOnConeError, NegativeSheetError):
        return None
    if rt != tuple(sorted(root)):
        return None
    candidate = word_to_matrix(list(reversed(word)))
    ints = tuple(tuple(int(x) for x in row) for row in m)
    if candidate == ints and len(word) % 2 == 0:
        return list(reversed(word))
    return None


def in_gamma(m: Mat4, root=DEFAULT_ROOT) -> bool:
    return gamma_word(m, root) is not None


def unipotent_c1_power(n: int) -> Mat4:
    """C1^n = (S4 S3)^n, the tangency translation; entries quadratic in n."""
    return (
        (1, 0, 0, 0),
        (0, 1, 0, 0),
        (4 * n * n - 2 * n, 4 * n * n - 2 * n, 1 - 2 * n, 2 * n),
        (4 * n * n + 2 * n, 4 * n * n + 2 * n, -2 * n, 2 * n + 1),
    )


def spin_rho(g) -> Mat4:
    """Spin map SL2 -> SO(2,1) inside 4x4, with 1/det prefactor.

    Kernel contains -I; for det g = 1 the output is integral whenever g is.
    As displayed the matrix is anti-multiplicative, rho(g) rho(h) = rho(hg)
    (a row/column convention); images, powers, and the xi construction are
    unaffected.  The exact 4x4 cover iota is a genuine homomorphism.
    """
    (al, be), (ga, de) = g
    det = al * de - be * ga
    if det == 0:
        raise ZeroDivisionError("spin_rho of singular matrix")
    d = Fraction(1, 1) / det
    rows = (
        (1, 0, 0, 0),
        (0, al * al, 2 * al * ga, ga * ga),
        (0, al * be, al * de + be * ga, ga * de),
        (0, be * be, 2 * be * de, de * de),
    )
    out = tuple(
        tuple(x if i == 0 else x * d for x in row) for i, row in enumerate(rows)
    )
    # normalize Fractions that are integral back to int for cleanliness
    return tuple(
        tuple(int(x) if isinstance(x, Fraction) and x.denominator == 1 else x for x in row)
        for row in out
    )


def w_vector(x: int, y: int) -> Vec4:
    """The inner-product vector whose pairing with orbit quadruples gives curvatures."""
    return (
        4 * x * x + 2 * x * y + y * y - 1,
        4 * x * x + 2 * x * y,
        -2 * x * y,
        2 * x * y + y * y,
    )


class CompletionError(ValueError):
    pass


def lambda2_completion(x: int, y: int):
    """Deterministic M = ((p, 2x), (s, y)) in the level-2 principal congruence
    subgroup with det 1: p odd, s even, p*y - 2*x*s = 1.

    Chooses the minimal nonnegative even s.  Requires gcd(2x, y) = 1.
    """
    if gcd(2 * x, y) != 1:
        raise CompletionError(f"gcd(2*{x}, {y}) != 1, no completion exists")
    # p*y - 2x*s = 1 says s = -(2x)^-1 mod |y|; |y| is odd, so adding |y|
    # to an odd s gives the least even one
    s = pow(-2 * x, -1, abs(y))
    if s % 2:
        s += abs(y)
    p = (1 + 2 * x * s) // y
    assert p * y - 2 * x * s == 1
    return ((p, 2 * x), (s, y))


def xi(x: int, y: int) -> Mat4:
    """The 4x4 unipotent-family element with bottom row w_vector(x, y).

    Built as J . rho(M) . J^-1 for the deterministic level-2 completion M,
    in integers: rho(M) is integral at det M = 1 and J^-1 = adj J / -2, so
    the division by -2 is exact.
    """
    out = mat_mul(J_CONJ, mat_mul(spin_rho(lambda2_completion(x, y)), J_CONJ_ADJ))
    return tuple(tuple(v // -2 for v in row) for row in out)


# ---------------------------------------------------------------------------
# Gaussian integers and the exact spin cover SL(2, Z[i]) -> SO_F
# ---------------------------------------------------------------------------

class GaussInt(NamedTuple):
    """a + bi; the parts are ints, or Fractions inside the spin cover iota."""
    re: int | Fraction
    im: int | Fraction

    def __add__(self, other):
        return GaussInt(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return GaussInt(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        return GaussInt(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __neg__(self):
        return GaussInt(-self.re, -self.im)

    def conj(self):
        return GaussInt(self.re, -self.im)

    def norm(self):
        return self.re * self.re + self.im * self.im


def gi(re, im=0) -> GaussInt:
    return GaussInt(re, im)


Mat2 = tuple  # ((GaussInt, GaussInt), (GaussInt, GaussInt))


def m2_mul(a: Mat2, b: Mat2) -> Mat2:
    return tuple(
        tuple(a[i][0] * b[0][j] + a[i][1] * b[1][j] for j in range(2))
        for i in range(2)
    )


def m2_det(a: Mat2):
    return a[0][0] * a[1][1] - a[0][1] * a[1][0]


def m2_neg(a: Mat2) -> Mat2:
    return tuple(tuple(-x for x in row) for row in a)


def m2_inv_det1(a: Mat2) -> Mat2:
    """Inverse of a 2x2 with determinant 1 (adjugate)."""
    return ((a[1][1], -a[0][1]), (-a[1][0], a[0][0]))


# Circle-coordinate basis of the degenerate strip quadruple (0,0,1,1) in
# (curvature, curvature*center, co-curvature) coordinates, and the
# normalizing 2x2 conjugator.  Fixed once: with these choices the three
# standard generators of the spin preimage of Gamma map to S1S4, S1S2, S1S3.
_IOTA_R = _frac_mat(((0, 0, 1, 1), (0, 0, 2, 0), (-1, 1, 1, 1), (0, 4, 4, 0)))
_IOTA_R_INV = mat_inv(_IOTA_R)
_IOTA_K = ((gi(0, 4), gi(1)), (gi(0), gi(0, -1)))
# K^-1 = adj(K)/det(K), det = 4i*(-i) = 4
_IOTA_K_INV = (
    (gi(0, Fraction(-1, 4)), gi(Fraction(-1, 4))),
    (gi(0), gi(0, 1)),
)

_HERM_BASIS = (
    ((gi(1), gi(0)), (gi(0), gi(0))),
    ((gi(0), gi(1)), (gi(1), gi(0))),
    ((gi(0), gi(0, 1)), (gi(0, -1), gi(0))),
    ((gi(0), gi(0)), (gi(0), gi(1))),
)


def _hermitian_action(u):
    """4x4 matrix of M |-> u M u^* on (A, x, y, C), M = [[A, x+iy], [x-iy, C]]."""
    ustar = tuple(tuple(u[j][i].conj() for j in range(2)) for i in range(2))
    cols = []
    for m in _HERM_BASIS:
        p = m2_mul(m2_mul(u, m), ustar)
        cols.append((p[0][0].re, p[0][1].re, p[0][1].im, p[1][1].re))
    return tuple(tuple(cols[j][i] for j in range(4)) for i in range(4))


def iota(g) -> Mat4:
    """Exact spin cover SL(2, Z[i]) -> SO_F as a 4x4 rational matrix.

    Homomorphism with iota(-g) = iota(g); preserves the Descartes form
    exactly.  The three standard generators of the preimage of Gamma,
    (1, 4i; 0, 1), (-2, i; i, 0), (2+2i, 4+3i; -i, -2i), map to the
    integer matrices S1S4, S1S2, S1S3 respectively.
    """
    if m2_det(g) != gi(1):
        raise ValueError("iota requires determinant 1")
    u = m2_mul(m2_mul(_IOTA_K_INV, g), _IOTA_K)
    out = mat_mul(_IOTA_R_INV, mat_mul(_hermitian_action(u), _IOTA_R))
    return tuple(
        tuple(int(x) if x.denominator == 1 else x for x in row) for row in out
    )


# The three generators of the spin preimage of Gamma.
SPIN_PREIMAGE_GENERATORS = (
    ((gi(1), gi(0, 4)), (gi(0), gi(1))),
    ((gi(-2), gi(0, 1)), (gi(0, 1), gi(0))),
    ((gi(2, 2), gi(4, 3)), (gi(0, -1), gi(0, -2))),
)
