"""Shifted binary quadratic forms attached to orbit quadruples.

A quadruple (a,b,c,d) = gamma . v0 yields f(x,y) = A x^2 + 2B xy + C y^2
with A = a+b, B = (a+b-c+d)/2, C = a+d and the shifted form f - a, whose
values at coprime arguments (2x, y) are curvatures of the gasket.  The
discriminant is locked: 4(B^2 - AC) = -4 a^2.  This module carries the
classical reduction/equivalence theory for these forms and the counting
lemmas about coincidences of values inside a family.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import gcd, isqrt

import numpy as np

from . import core
from .orbit import Family


@dataclass(frozen=True)
class ShiftedForm:
    A: int
    B: int
    C: int
    a: int

    def __post_init__(self):
        if 4 * (self.B * self.B - self.A * self.C) != -4 * self.a * self.a:
            raise core.InputError(
                f"discriminant violation: 4(B^2-AC) != -4a^2 for {self}"
            )

    def discriminant(self) -> int:
        return 4 * (self.B * self.B - self.A * self.C)


def extract_form(gamma, root=core.DEFAULT_ROOT) -> ShiftedForm:
    """Shifted form of the quadruple gamma . root."""
    a, b, c, d = core.mat_vec(gamma, root)
    t = a + b - c + d
    if t % 2:
        raise AssertionError("odd a+b-c+d: input quadruple is off the cone")
    return ShiftedForm(A=a + b, B=t // 2, C=a + d, a=a)


def evaluate(form: ShiftedForm, x: int, y: int) -> int:
    """4A x^2 + 4B xy + C y^2 - a = (f - a)(2x, y); a curvature when (2x,y)=1."""
    return 4 * form.A * x * x + 4 * form.B * x * y + form.C * y * y - form.a


def tangency_parabola(v, n: int) -> int:
    """Fourth entry of C1^n . v: 4(a+b) n^2 + 2(a+b-c+d) n + d."""
    a, b, c, d = v
    return 4 * (a + b) * n * n + 2 * (a + b - c + d) * n + d


def gl2_act(form: ShiftedForm, g) -> ShiftedForm:
    """Right action (f.g)(v) = f(g v) for unimodular integer g = ((p,q),(r,s))."""
    (p, q), (r, s) = g
    if abs(p * s - q * r) != 1:
        raise ValueError("gl2_act needs determinant +-1")
    A, B, C = form.A, form.B, form.C
    A2 = p * p * A + 2 * p * r * B + r * r * C
    B2 = p * q * A + (p * s + q * r) * B + r * s * C
    C2 = q * q * A + 2 * q * s * B + s * s * C
    return ShiftedForm(A=A2, B=B2, C=C2, a=form.a)


@dataclass(frozen=True)
class FormClass:
    A: int
    B: int
    C: int

    def discriminant(self) -> int:
        return 4 * (self.B * self.B - self.A * self.C)


def reduce_class(form) -> FormClass:
    """Classical reduced representative: |2B| <= A <= C, with B >= 0 on the
    boundary |2B| = A or A = C."""
    if isinstance(form, ShiftedForm):
        A, B, C = form.A, form.B, form.C
    else:
        A, B, C = form
    if A <= 0 or A * C - B * B <= 0:
        raise ValueError("reduction requires a positive-definite form")
    while True:
        if 2 * abs(B) > A:
            Bn = B % A
            if 2 * Bn > A:
                Bn -= A
            det = A * C - B * B
            C = (det + Bn * Bn) // A
            B = Bn
        elif A > C:
            A, B, C = C, -B, A
        else:
            break
    if (2 * abs(B) == A or A == C) and B < 0:
        B = -B
    return FormClass(A, B, C)


def reduced_forms_of_discriminant(a: int) -> list:
    """All reduced primitive classes (gcd(A,B,C)=1) of discriminant -4a^2."""
    det = a * a  # AC - B^2
    out = []
    b = 0
    while 3 * b * b <= det:
        rem = det + b * b
        # A ranges over divisors of rem with 2|b| <= A <= sqrt(rem)
        A = max(2 * abs(b), 1)
        while A * A <= rem:
            if A >= 2 * abs(b) and rem % A == 0:
                C = rem // A
                for B in {b, -b}:
                    if 2 * abs(B) <= A <= C:
                        if (2 * abs(B) == A or A == C) and B < 0:
                            continue
                        if gcd(gcd(A, abs(B)), C) == 1:
                            out.append(FormClass(A, B, C))
            A += 1
        b += 1
    return sorted(set(out), key=lambda f: (f.A, f.B, f.C))


def representing_classes(z: int, a: int) -> int:
    """Number of inequivalent primitive classes of discriminant -4a^2
    representing z, deduplicated by reduced representatives.

    A class represents z iff it primitively represents z1 = z/w^2 for some
    square divisor; primitive representation of z1 pins the class to
    (z1, B, (B^2 + a^2)/z1) for a residue B mod z1 with z1 | B^2 + a^2.
    """
    if z < 1 or a == 0:
        raise ValueError("z >= 1 and a != 0 required")
    classes = set()
    w = 1
    while w * w <= z:
        if z % (w * w) == 0:
            z1 = z // (w * w)
            a2 = a * a
            for B in range(z1):
                if (B * B + a2) % z1 == 0:
                    C = (B * B + a2) // z1
                    if gcd(gcd(z1, B), C) == 1:
                        classes.add(reduce_class((z1, B, C)))
        w += 1
    return len(classes)


def representing_classes_bruteforce(z: int, a: int) -> int:
    """Oracle: scan all reduced classes and search representations directly."""
    count = 0
    for cls in reduced_forms_of_discriminant(a):
        # f(m,n) = A m^2 + 2B mn + C n^2 = z has |m| <= sqrt(z*C/det), etc.
        det = cls.A * cls.C - cls.B * cls.B
        mbound = isqrt(z * cls.C // det) + 1
        nbound = isqrt(z * cls.A // det) + 1
        found = False
        for m in range(-mbound, mbound + 1):
            for n in range(-nbound, nbound + 1):
                if cls.A * m * m + 2 * cls.B * m * n + cls.C * n * n == z:
                    found = True
                    break
            if found:
                break
        count += found
    return count


def kl_lift(A: int, B: int, C: int, d: int):
    """Integers (k, l) with gcd(k, l, d) = 1 such that every zero of the form
    mod d satisfies (mk + nl)^2 = 0 mod d.

    Per prime power p^e || d: if p does not divide A take (1, B/A mod p^e);
    otherwise p divides A, so p cannot divide C, and take (B/C mod p^e, 1).
    """
    if gcd(gcd(A, B), C) != 1:
        raise ValueError("form must be primitive")
    if d < 1 or (A * C - B * B) % d != 0:
        raise ValueError("d must divide AC - B^2")
    if d == 1:
        return (1, 0)
    k, l, mod = 0, 0, 1
    for p, e in _factorize(d):
        pe = p ** e
        if A % p:
            kp, lp = 1, (pow(A, -1, pe) * B) % pe
        else:
            kp, lp = (pow(C, -1, pe) * B) % pe, 1
        k, l, mod = _crt2(k, l, mod, kp, lp, pe)
    return (k % d, l % d)


def _crt2(k1, l1, m1, k2, l2, m2):
    m = m1 * m2
    inv = pow(m1, -1, m2)
    t_k = ((k2 - k1) * inv) % m2
    t_l = ((l2 - l1) * inv) % m2
    return (k1 + m1 * t_k) % m, (l1 + m1 * t_l) % m, m


def _factorize(n: int):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def kl_lift_check(A: int, B: int, C: int, d: int) -> bool:
    """Exhaustive postcondition of kl_lift over all residue pairs mod d."""
    k, l = kl_lift(A, B, C, d)
    if gcd(gcd(k, l), d) != 1:
        return False
    m = np.arange(d)
    fm = (A * m * m) % d
    for n in range(d):
        vals = (fm + (2 * B * n) * m + C * n * n) % d
        zeros = np.flatnonzero(vals == 0)
        lhs = (zeros * k + n * l) % d
        if ((lhs * lhs) % d != 0).any():
            return False
    return True


def zero_pairs_count(A: int, B: int, C: int, d: int, M: int) -> int:
    """#{0 <= m, n < M : A m^2 + 2B mn + C n^2 = 0 mod d}, exactly by
    counting residue pairs and lattice translates."""
    if d < 1 or (A * C - B * B) % d != 0:
        raise ValueError("d must divide AC - B^2")
    if d == 1:
        return M * M
    m = np.arange(d, dtype=np.int64)
    grid_m, grid_n = np.meshgrid(m, m, indexing="ij")
    vals = (A * grid_m * grid_m + 2 * B * grid_m * grid_n + C * grid_n * grid_n) % d
    rm, rn = np.nonzero(vals == 0)
    # count of x in [0, M) with x = r (mod d) is floor((M-1-r)/d)+1 when r < M
    cm = np.where(rm < M, (M - 1 - rm) // d + 1, 0)
    cn = np.where(rn < M, (M - 1 - rn) // d + 1, 0)
    return int((cm * cn).sum())


def coincidence_count(form: ShiftedForm, family: Family, M: int) -> int:
    """#{(f', m, n, m', n') : a' = a, (f-a)(m,-n) = (f'-a')(m',-n'),
    0 <= m,n,m',n' < M} by a value-indexed hash join."""
    mm, nn = np.meshgrid(np.arange(M), np.arange(M), indexing="ij")
    mm = mm.ravel()
    nn = nn.ravel()

    def values(A, B, C, a):
        return A * mm * mm - 2 * B * mm * nn + C * nn * nn - a

    base = values(form.A, form.B, form.C, form.a)
    base_counter = Counter(base.tolist())
    total = 0
    for A, B, C, a in family.forms:
        if a != form.a:
            continue
        vals = values(int(A), int(B), int(C), int(a))
        total += sum(base_counter.get(v, 0) for v in vals.tolist())
    return total


def family_class_multiplicity(family: Family):
    """Histogram of GL2-classes of the family's forms and the window constants."""
    hist = Counter()
    for A, B, C, a in family.forms:
        hist[reduce_class((int(A), int(B), int(C)))] += 1
    t = family.t
    if len(family):
        ratios = [max(int(A), int(C)) / t for A, _, C, _ in family.forms]
        lo = min(min(int(A), int(C)) / t for A, _, C, _ in family.forms)
        hi = max(ratios)
        ac_over_t2 = [int(A) * int(C) / (t * t) for A, _, C, _ in family.forms]
    else:
        lo = hi = 0.0
        ac_over_t2 = []
    return {
        "max_multiplicity": max(hist.values()) if hist else 0,
        "classes": len(hist),
        "window_lo": lo,
        "window_hi": hi,
        "ac_over_t2_min": min(ac_over_t2) if ac_over_t2 else 0.0,
        "ac_over_t2_max": max(ac_over_t2) if ac_over_t2 else 0.0,
        "histogram": hist,
    }
