"""Exact references for the kernel bound tests, on numpy and the standard library only.

Every function takes the doubles a kernel was given and evaluates the
kernel's formula on them exactly: rational arithmetic (``fractions``) for
everything but roots, arctangents and sines, which are taken in 50-digit
``decimal``.
"""

from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import NamedTuple

import numpy as np

EPS = float(np.finfo(float).eps)
DIGITS = 50


def fractions(values) -> list:
    return [Fraction(float(v)) for v in np.asarray(values, dtype=float).ravel()]


def decimal(x) -> Decimal:
    """A Fraction as a 50-digit Decimal."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        return Decimal(x.numerator) / Decimal(x.denominator)


def sqrt(x) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = DIGITS
        return decimal(Fraction(x)).sqrt()


def cbrt(x) -> Decimal:
    """The real cube root."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        x = decimal(Fraction(x))
        return (abs(x) ** (Decimal(1) / Decimal(3))).copy_sign(x) if x else x


def _det(rows) -> int:
    """Determinant of a square integer matrix by Bareiss's fraction-free elimination."""
    m = [list(r) for r in rows]
    n, sign, prev = len(m), 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap], sign = m[swap], m[k], -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1]


def conic(points) -> list:
    """The conic through five points, as exact integers (A, B, C, D, E, F0) up to a common factor.

    Each coefficient is a signed 5x5 minor of the design rows
    [x^2, 2xy, y^2, 2x, 2y, 1]; all six vanish when the conic is not unique.
    """
    rows = []
    for x, y in zip(*[iter(fractions(points))] * 2):
        row = [x * x, 2 * x * y, y * y, 2 * x, 2 * y, Fraction(1)]
        scale = lcm(*(v.denominator for v in row))
        rows.append([int(v * scale) for v in row])
    return [(-1) ** j * _det([r[:j] + r[j + 1:] for r in rows]) for j in range(6)]


def unit_conic(coef) -> list:
    """coef scaled to unit norm with its first non-zero entry of (A, B, C) positive, as Decimals."""
    lead = next((c for c in coef[:3] if c != 0), None) or next(c for c in coef if c != 0)
    norm = sqrt(sum(Fraction(c) ** 2 for c in coef))
    with localcontext() as ctx:
        ctx.prec = DIGITS
        return [decimal(Fraction(c)) / norm * (1 if lead > 0 else -1) for c in coef]


def invariants(coef) -> tuple[Fraction, Fraction]:
    """S = AC - B^2 and F = det [[A, B, D], [B, C, E], [D, E, F0]]."""
    a, b, c, d, e, f = (Fraction(v) for v in coef)
    return a * c - b * b, a * (c * f - e * e) - b * (b * f - e * d) + d * (b * e - c * d)


def invariant_scales(coef) -> tuple[Fraction, Fraction]:
    """|A C| + B^2 and the sum of the absolute Leibniz terms of F: the magnitudes their roundings scale with."""
    a, b, c, d, e, f = (abs(Fraction(v)) for v in coef)
    return a * c + b * b, a * c * f + 2 * b * e * d + a * e * e + b * b * f + c * d * d


# pi, to more digits than DIGITS
PI = Decimal("3.14159265358979323846264338327950288419716939937510582097494")


def atan2(y, x) -> Decimal:
    """The angle of (x, y) in (-pi, pi], for Decimals or Fractions."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        y, x = (v if isinstance(v, Decimal) else decimal(Fraction(v)) for v in (y, x))
        if x == 0:
            return (PI / 2).copy_sign(y) if y else Decimal(0)
        # atan t = 2 atan(t / (1 + sqrt(1 + t^2))): halve the angle until the series converges fast
        t, halvings = y / x, 0
        while abs(t) > Decimal("1e-3"):
            t, halvings = t / (1 + (1 + t * t).sqrt()), halvings + 1
        term, total, n = t, t, 1
        while abs(term) > Decimal(10) ** -(DIGITS + 5):
            term, n = -term * t * t, n + 2
            total += term / n
        angle = total * 2 ** halvings
        if x < 0:
            angle += PI if y >= 0 else -PI
        return angle


def segment(delta: Decimal) -> Decimal:
    """delta - sin(delta) by its alternating series, free of the difference's cancellation."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        term, total, n = delta ** 3 / 6, Decimal(0), 3
        while abs(term) > Decimal(10) ** -(2 * DIGITS):
            total += term
            term, n = -term * delta * delta / ((n + 1) * (n + 2)), n + 2
        return total


def ellipse_area(S, F) -> Decimal:
    """pi |F| / S^(3/2)."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        s = Fraction(float(S))
        return PI * decimal(abs(Fraction(float(F))) / s) / sqrt(s)


def sector(coef, S, F, center, window) -> tuple[Decimal, Fraction, list]:
    """(sector, shoelace, angles) of the elliptic conic coef, center and five-point window.

    The sector is |shoelace(center, window)| plus the four segments
    r^2 / 2 (delta_j - sin delta_j), r^2 = rho / sqrt(S), rho = sgn(A + C) (-F / S).
    delta_j is the angle from window point j to j + 1 on the equal-area circle,
    atan2(sqrt(AC - B^2) (e_j x e_j+1), e_j^T Q e_j+1) with e_j = window_j - center
    and Q = sgn(A + C) [[A, B], [B, C]], in [0, 2 pi) in the shoelace's turning direction.
    """
    a, b, c = fractions(coef)[:3]
    s, f = Fraction(float(S)), Fraction(float(F))
    sgn = 1 if a + c > 0 else -1
    cx, cy = fractions(center)
    pts = [(cx, cy)] + list(zip(*[iter(fractions(window))] * 2))
    shoelace = sum(x0 * y1 - y0 * x1 for (x0, y0), (x1, y1) in zip(pts, pts[1:] + pts[:1])) / 2
    turn = 1 if shoelace >= 0 else -1
    rel = [(x - cx, y - cy) for x, y in pts[1:]]
    root_det = sqrt(a * c - b * b)
    angles = []
    for (x0, y0), (x1, y1) in zip(rel, rel[1:]):
        dot = sgn * (a * x0 * x1 + b * (x0 * y1 + y0 * x1) + c * y0 * y1)
        with localcontext() as ctx:
            ctx.prec = DIGITS
            angle = atan2(root_det * decimal(turn * (x0 * y1 - y0 * x1)), dot)
            angles.append(angle + 2 * PI if angle < 0 else angle)
    with localcontext() as ctx:
        ctx.prec = DIGITS
        r2 = decimal(sgn * (-f / s)) / sqrt(s)
        return abs(decimal(shoelace)) + r2 / 2 * sum(segment(d) for d in angles), shoelace, angles


def gap_radicand(a, b, c, f) -> tuple[Decimal | None, Decimal]:
    """(radicand, lam): -F / (|lam| (AC - B^2)) with lam the larger-magnitude root of t^2 - (A+C) t + AC - B^2.

    a, b, c and f are exact (Fractions); radicand is None where the quotient divides by zero.
    """
    a, b, c, f = (Fraction(v) for v in (a, b, c, f))
    tr = a + c
    with localcontext() as ctx:
        ctx.prec = DIGITS
        root = sqrt((a - c) ** 2 + 4 * b * b)
        r1, r2 = (decimal(tr) + root) / 2, (decimal(tr) - root) / 2
        lam = r1 if abs(r1) > abs(r2) else r2 if abs(r2) > abs(r1) else max(r1, r2)
        s = a * c - b * b
        if lam == 0 or s == 0:
            return None, lam
        return -decimal(f / s) / abs(lam), lam


def frame(points, centre, exp: int) -> list:
    """Frame points 2^-exp (p - centre), rounded as the equiaffine fit forms them, as (x, y) Fractions."""
    u = np.ldexp(np.asarray(points, dtype=float) - np.asarray(centre, dtype=float), -int(exp))
    return [tuple(fractions(p)) for p in u.reshape(-1, 2)]


def _orientation(p, q, r) -> tuple[Fraction, Fraction]:
    """(q - p) x (r - p) and the sum of the absolute values of its two products, exactly."""
    (qx, qy), (rx, ry) = ((a - b for a, b in zip(v, p)) for v in (q, r))
    return qx * ry - qy * rx, abs(qx * ry) + abs(qy * rx)


class FrameConic(NamedTuple):
    brackets: list  # [ijk] of the ten triples, in combinations order
    products: list  # P_t: bracket t's two products in absolute value, from its first point (2 where it has 2)
    conic: list     # A, B, C, D, E, F0 of the pencil, each line pair doubled
    scales: list    # each entry with every bracket-pair and line-pair product in absolute value


def frame_conic(u) -> FrameConic:
    """The bracket pencil [024][134] L01 L23 - [014][234] L02 L13 through five frame points u (u[2] = 0), exactly.

    L_ij(x) = [ijx] = (y_i - y_j) x + (x_j - x_i) y + [2ij], and each line
    pair L L' is written as the symmetric matrix of L L' + L' L.
    """
    triples = [t[t.index(2):] + t[:t.index(2)] if 2 in t else t for t in combinations(range(5), 3)]
    brackets, products = zip(*(_orientation(*(u[k] for k in t)) for t in triples))
    br = dict(zip(combinations(range(5), 3), brackets))

    def line(i, j):
        (xi, yi), (xj, yj) = u[i], u[j]
        return yi - yj, xj - xi, _orientation(u[2], u[i], u[j])[0]

    def pair(l, k, a, b):
        return l[a] * k[b] + l[b] * k[a], abs(l[a] * k[b]) + abs(l[b] * k[a])

    k4, k2 = br[0, 2, 4] * br[1, 3, 4], br[0, 1, 4] * br[2, 3, 4]
    conic, scales = [], []
    for a, b in ((0, 0), (0, 1), (1, 1), (0, 2), (1, 2), (2, 2)):
        (p0, s0), (p1, s1) = pair(line(0, 1), line(2, 3), a, b), pair(line(0, 2), line(1, 3), a, b)
        conic.append(k4 * p0 - k2 * p1)
        scales.append(abs(k4) * s0 + abs(k2) * s1)
    return FrameConic(list(brackets), list(products), conic, scales)
