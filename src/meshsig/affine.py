"""Conic fitting and the equiaffine curvature / arc-length / signature layer.

A point's curvature data comes from the unique conic through its
two-neighborhood (five points, no three collinear):

    A x^2 + 2B xy + C y^2 + 2D x + 2E y + F0 = 0

with the quadratic invariant S = AC - B^2 and the cubic invariant F the
determinant of [[A,B,D],[B,C,E],[D,E,F0]]. The curvature S / cbrt(F)^2 is
unchanged by coefficient rescaling and by unimodular maps.

Each mesh's derived data holds one equiaffine block, built in one pass on
first use and never changed afterwards. The block is two read-only tables,
one float and one bool, with one row per point: row i belongs to the
window centred at p[i] and holds its conic (the bracket pencil through
its five points, all windows in one stack), S, F, the curvature, the centre,
the window's four consecutive arc lengths, its fineness and its hyperbola
gap bound, plus the flags that say which of them may be read. An arc
length is read on a window's conic exactly where its curvature is: one
formula (`_arcs`) serves ellipses, hyperbolas and parabolas alike. Each column
reads by name through one name-to-column map. The fit's two screens,
coinciding points and a collinear triple, both judged in the window's
frame, are the layer's only test of a degenerate window: five points that
pass them lie on exactly one conic, and it is real. A degenerate window is
recorded in the block and raises only when that window is read, through
one helper (`_row`) shared by every per-index and array function,
`sd_affine` included: it reads the window's three turns off the fit.
`build_blocks` builds the missing blocks of several meshes in one pass
over all their windows, as the equiaffine rules do for a pair; a mesh's
block from such a pass is a read-only copy of its rows of the two tables,
identical bit for bit to the mesh's own build. Each scheme's SA-signature
columns are an entry of their own. The per-index functions (`conic_at`,
`affine_curvature`, `has_fine_area`, ...) read the block, and
`fit_conic`, `invariants` and `kappa_from_invariants` run the same
kernels on one row.

Numerical contract: each kernel's docstring states a bound against the
exact evaluation (rational arithmetic, roots and angles to 50 digits) of
its formula on the same doubles it was given. A function over many
windows raises what its first failing index raises, as one window would.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import (
    DegenerateConfiguration,
    IndexOutOfRange,
    MeshTooShort,
    NonRealMu,
    NotConvex,
    NotOrdinary,
    ParabolicConic,
    SchemeSpacingMismatch,
    WrongCurvatureSign,
    ZeroF,
)
from .geometry import (
    SPACING_REL_TOL,
    Mesh,
    NeighborhoodSpec,
    Point2,
    SigDirection,
    _first_short,
    _frozen,
    _gather,
    derived,
    derived_jointly,
    is_convex,
    is_ordinary,
    orient_rows,
    row_norms,
)
from .signatures import Scheme, Signature, _check_edge_spacing, signature_columns

# |S| below this (unit-norm coefficients) marks the conic parabolic.
PARABOLIC_TOL = 1e-10
# |F| below this (unit-norm coefficients) marks a degenerate conic (line pair).
ZERO_F_TOL = 1e-12

# Conic fit window: the two-neighborhood on each side of the center point.
FIT_HALF_WIDTH = 2
# Arc lengths at a point are only defined inside its five-neighborhood.
ARC_HALF_WIDTH = 5
# Each curvature reads the conic fit window around its center.
SA_SPEC = NeighborhoodSpec(FIT_HALF_WIDTH, FIT_HALF_WIDTH)


@dataclass(frozen=True)
class ConicCoeffs:
    """Coefficients of A x^2 + 2B xy + C y^2 + 2D x + 2E y + F0 = 0.

    Stored at unit Euclidean norm and signed so that the first of A, B, C
    over 1e-12 in magnitude is positive, or, where none is, the first of all
    six: a conic has one representation.
    """

    A: float
    B: float
    C: float
    D: float
    E: float
    F0: float

    @property
    def vector(self) -> np.ndarray:
        return np.array([self.A, self.B, self.C, self.D, self.E, self.F0])

    def evaluate(self, point) -> float:
        x, y = float(point[0]), float(point[1])
        return (
            self.A * x * x
            + 2.0 * self.B * x * y
            + self.C * y * y
            + 2.0 * self.D * x
            + 2.0 * self.E * y
            + self.F0
        )

    @classmethod
    def from_vector(cls, vec) -> "ConicCoeffs":
        a, b, c, d, e, f0 = (float(v) for v in np.asarray(vec, dtype=float))
        return cls(a, b, c, d, e, f0)

    def scaled(self, factor: float) -> "ConicCoeffs":
        return ConicCoeffs.from_vector(self.vector * factor)


@dataclass(frozen=True)
class AffineInvariants:
    S: float
    F: float


@dataclass(frozen=True)
class ArcLengthSet:
    """Arc lengths L[at-2], L[at-1], L[at], L[at+1], all from the conic at `at`."""

    at: int
    values: tuple[float, float, float, float]


# ---------------------------------------------------------------------------
# Kernels: each works on a stack of windows or conics, one row per window
# ---------------------------------------------------------------------------

_PAIRS = np.array(list(combinations(range(5), 2))).T
# the ten triples, each through the centre point 2 rotated to start there: its orientation is then u_j x u_k
_TRIPLES = np.array([t[t.index(2):] + t[:t.index(2)] if 2 in t else t for t in combinations(range(5), 3)]).T
_FIT_OFFSETS = range(-FIT_HALF_WIDTH, FIT_HALF_WIDTH + 1)
# _fit's lines L01, L02, L23, L13, each through its two points (i, j)
_LINES = np.array([(0, 1), (0, 2), (2, 3), (1, 3)]).T
# A, B, C, D, E, F0 in a flattened symmetric conic matrix, and their degrees in the coordinates' scale
_UPPER, _DEGREE = [0, 1, 4, 2, 5, 8], np.array([2, 2, 2, 1, 1, 0])


def _fit(pts: np.ndarray) -> tuple[np.ndarray, dict[int, str], np.ndarray]:
    """Conics through a (w, 5, 2) stack of five-point windows.

    Returns (coef, errors, turns): coef is (w, 6), unit-norm and
    sign-normalized, NaN on the rows of degenerate windows; errors maps each
    of those rows to its DegenerateConfiguration message, coinciding points
    first, then a collinear triple; turns is (w, 3), the window's
    orientations [012], [123] and [234] in its frame.

    Each window is worked in its own frame: u = 2^-e (p - p2), the
    differences to its centre point p2, with e chosen so that max|u| lies in
    [1/2, 1). There, two of its points coincide when their gap is at most
    1e-12 max|u|, and a triple is collinear when its orientation [ijk] is at
    most 1e-12 max|u|^2 in magnitude. These two screens are the only test of
    a degenerate window: a window that passes them has no three points
    collinear, so its conic is unique. Their verdicts do not change under
    translation (up to the rounding of p - p2) or under power-of-two
    dilation.

    Five points with no three collinear lie on exactly one conic, the member
    of the pencil through p0 ... p3 that passes through p4 (Richter-Gebert,
    Perspectives on Projective Geometry, 2011, ch. 10): C(x) = [024][134]
    L01(x) L23(x) - [014][234] L02(x) L13(x), [ijk] the orientation of p_i,
    p_j, p_k and L_ij(x) = [ijx] = (y_i - y_j) x + (x_j - x_i) y + [2ij].
    Every bracket is one of the ten orientations of the collinearity screen:
    L01's constant is [012], L13's is -[123], and L02 and L23 pass through
    p2 = 0. The conic is mapped back to the given coordinates.

    Bound: each entry of a fitted row is within 2 eps sigma_1 / sigma_5 of
    the unit-norm, sign-normalized exact conic through the same five
    doubles, where sigma_1 / sigma_5 is the condition of the window's 5x6
    design [x^2, 2xy, y^2, 2x, 2y, 1] in the given coordinates.
    """
    diff = pts - pts[:, 2, None]
    big, exp = np.frexp(np.abs(diff).max(axis=(1, 2)))  # big = max|u|
    u = np.ldexp(diff, -exp[:, None, None]).transpose(1, 0, 2).copy()  # (5, w, 2): point j of every window in u[j]
    gaps = row_norms((u[_PAIRS[0]] - u[_PAIRS[1]]).reshape(-1, 2)).reshape(len(_PAIRS[0]), -1)
    br = orient_rows(*(u[t].reshape(-1, 2) for t in _TRIPLES)).reshape(len(_TRIPLES[0]), -1)
    close, collinear = gaps <= 1e-12 * big, np.abs(br) <= 1e-12 * big * big
    errors = {int(r): "fit points {}, {}, {} are collinear".format(*sorted(_TRIPLES[:, collinear[:, r].argmax()]))
              for r in np.flatnonzero(collinear.any(axis=0))}
    errors.update({int(r): "fit points {} and {} coincide".format(*_PAIRS[:, close[:, r].argmax()])
                   for r in np.flatnonzero(close.any(axis=0))})
    # br in _TRIPLES order: [012], [013], [014], [023], [024], [034], [123], [124], [134], [234]
    (i, j), x, y, zero = _LINES, u[..., 0], u[..., 1], np.zeros(len(pts))
    lines = np.stack([y[i] - y[j], x[j] - x[i], np.stack([br[0], zero, zero, -br[6]])], axis=2)
    pair = lines[:2, :, :, None] * lines[2:, :, None, :]  # L01 L23 and L02 L13 as outer products
    pair = pair + pair.transpose(0, 1, 3, 2)  # twice each line pair's symmetric conic matrix
    conic = (br[4] * br[8])[:, None, None] * pair[0] - (br[2] * br[9])[:, None, None] * pair[1]
    # back to the given coordinates: x -> u = 2^-exp (x - p2) is the scale 2^-exp, then the shift by -2^-exp p2. The
    # shift is a matmul; the scale enters A, B and C twice and D and E once, and is applied exactly, as powers of two,
    # together with the one that puts the largest entry in [1/2, 1) (-4096 is below every exponent), so none overflows
    shift = np.tile(np.eye(3), (len(pts), 1, 1))
    shift[:, :2, 2] = np.ldexp(-pts[:, 2], -exp[:, None])
    mant, power = np.frexp((shift.transpose(0, 2, 1) @ conic @ shift).reshape(-1, 9)[:, _UPPER])
    power = power - exp[:, None] * _DEGREE
    vec = np.ldexp(mant, power - np.where(mant == 0.0, -4096, power).max(axis=1)[:, None])
    with np.errstate(invalid="ignore"):  # the pencil of a screened window may vanish
        vec = vec / row_norms(vec)[:, None]
    large = np.abs(vec) > 1e-12
    lead = np.where(large[:, :3].any(axis=1), np.argmax(large[:, :3], axis=1), np.argmax(large, axis=1))
    vec = np.where((vec[np.arange(len(pts)), lead] < 0)[:, None], -vec, vec)
    vec[list(errors)] = np.nan
    return vec, errors, br[[0, 6, 9]].T


# F = A C F0 + 2 B D E - A E^2 - B^2 F0 - C D^2: column t of (i, j, k, factor) is the term factor coef_i coef_j coef_k
_LEIBNIZ = np.array([(0, 2, 5, 1), (1, 3, 4, 2), (0, 4, 4, -1), (1, 1, 5, -1), (2, 3, 3, -1)]).T


def _invariants(coef: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """S = AC - B^2 and F = det [[A, B, D], [B, C, E], [D, E, F0]] of each row of an (m, 6) coefficient stack.

    F is the compensated sum of its five Leibniz terms (Ogita, Rump and Oishi, SISC 26, 2005): Dekker's
    error-free products and two-sums, whose low parts are added once at the end. Bound, against exact
    evaluation of the same coefficients, barring overflow and underflow: |S error| <= 2 eps (|AC| + B^2) and
    |F error| <= eps |F| + 32 eps^2 P <= 64 eps P, P the sum of the absolute values of F's six products.
    """
    i, j, k, factor = _LEIBNIZ
    q, low = factor[:, None] * coef.T[i], 0.0  # (5, m): term t in row t, as q + low
    for y in (coef.T[j], coef.T[k]):
        cq, cy = 134217729.0 * q, 134217729.0 * y  # 2^27 + 1: Veltkamp's split into 26-bit halves
        qh, yh = cq - (cq - q), cy - (cy - y)
        ql, yl, p = q - qh, y - yh, q * y
        q, low = p, low * y + (ql * yl - (((p - qh * yh) - ql * yh) - qh * yl))  # p + that = q y exactly
    hi = np.cumsum(q, axis=0)  # the partial sums, whose two-sum errors follow
    back = hi[1:] - hi[:-1]
    lo = low.sum(axis=0) + ((hi[:-1] - (hi[1:] - back)) + (q[1:] - back)).sum(axis=0)
    return coef[:, 0] * coef[:, 2] - coef[:, 1] * coef[:, 1], hi[-1] + lo


def _kappa(S: np.ndarray, F: np.ndarray) -> np.ndarray:
    """S / cbrt(F)^2, within 4 eps (relative) of its exact value for the same S and F."""
    return S / np.cbrt(F) ** 2


def _centers(coef: np.ndarray, S: np.ndarray) -> np.ndarray:
    """(m, 2) centers ((BE - CD)/S, -(AE - BD)/S).

    Bound, against exact evaluation of the same coefficients and S: each
    coordinate within 2 eps (|BE| + |CD|) / |S|, resp. 2 eps (|AE| + |BD|) / |S|.
    """
    a, b, c, d, e = coef[:, :5].T
    return np.stack([(b * e - c * d) / S, -(a * e - b * d) / S], axis=1)


def _ellipse_areas(S: np.ndarray, F: np.ndarray) -> np.ndarray:
    """pi |F| / S^(3/2), within 4 eps (relative) of its exact value for the same S and F."""
    return np.pi * np.abs(F) / S ** 1.5


def _sectors(coef, S, F, center, win) -> tuple[np.ndarray, np.ndarray]:
    """(rho, sector) of the rows of an (m, 6) stack; meaningful where S > 0.

    rho = sgn(A + C) (-F / S). Where rho > 0, sector is the shoelace area H
    of (center, window points) plus the segments r^2 / 2 (delta_j - sin
    delta_j), r^2 = rho / sqrt(S), delta_j in [0, 2 pi] the angle from point
    j to j + 1, in H's direction, after the unimodular map of the ellipse
    onto an equal-area circle: e = point - center goes to L^T e, scaled, L =
    [[sqrt qa, 0], [qb / sqrt qa, sqrt(S / qa)]] the Cholesky factor of Q =
    sgn(A + C) [[A, B], [B, C]] = [[qa, qb], [qb, qc]]; det L = sqrt S > 0,
    and the angle of L^T e is that of (qa e_x + qb e_y, sqrt(S) e_y). Bound, against
    exact evaluation: 4 eps (sum|h| + sector) + sum_j r^2 / 2 ((1 - cos
    delta_j) t + 2 eps delta_j), sum|h| the absolute shoelace products, t =
    4 eps (cond(Q) + 4) the angle error (each angle is within 3 eps
    (sqrt(cond(Q)) + 1)); an angle within t of 0 or 2 pi, or H within 4 eps
    sum|h| of 0, may wrap. Elsewhere sector is NaN.
    """
    sgn = np.where(coef[:, 0] + coef[:, 2] > 0, 1.0, -1.0)
    rho = sgn * (-F / S)
    e = win - center[:, None]
    qa, qb = (sgn * coef[:, 0])[:, None], (sgn * coef[:, 1])[:, None]
    theta = np.arctan2(np.sqrt(S)[:, None] * e[..., 1], qa * e[..., 0] + qb * e[..., 1])
    # the polygon (center, window points), closed by repeating its center
    ring = np.concatenate([center[:, None], win, center[:, None]], axis=1)
    px, py = ring[..., 0], ring[..., 1]
    sh = 0.5 * (px[:, :-1] * py[:, 1:] - py[:, :-1] * px[:, 1:]).sum(axis=1)
    step = np.diff(theta, axis=1)
    step = np.where((sh >= 0)[:, None], step, -step)
    delta = np.where(step < 0.0, step + 2.0 * np.pi, step)  # np.mod(step, 2 pi), fast on NaN rows
    seg = (0.5 * rho / np.sqrt(S))[:, None] * (delta - np.sin(delta))
    return rho, np.where(rho > 0.0, np.abs(sh) + seg.sum(axis=1), np.nan)


def _gap_bounds(coef: np.ndarray, S: np.ndarray, F: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Branch-separation bounds 2*sqrt(-F / (lambda1^2 S)) of an (m, 6) stack and its S and F.

    Returns (undefined, radicand, mu): undefined marks rows where the
    quotient divides by zero. The bound is evaluated in the coefficient
    scale where the larger-magnitude characteristic root lambda1 of
    t^2 - (A+C) t + S = 0 (ties toward the larger value) has unit magnitude:
    the radicand is -F / (|lambda1| S), from the given S and F.

    Bound, against -F / (|lambda1| (AC - B^2)) evaluated exactly for the same
    doubles: the radicand within a relative (3 eps sqrt(D) + 2 eps |A + C|) /
    |lambda1| + eps (70 P / |F| + 4 (|AC| + B^2) / |AC - B^2| + 4), P as in
    `_invariants`, where D = (A - C)^2 + 4 B^2 is the discriminant (A + C)^2 -
    4 S, formed without cancellation; mu within half of that plus 2 eps.
    The terms are lambda1's error, F's and S's bounds, and two roundings.
    """
    tr, diff = coef[:, 0] + coef[:, 2], coef[:, 0] - coef[:, 2]
    root = np.sqrt(diff * diff + 4.0 * coef[:, 1] * coef[:, 1])
    r1, r2 = (tr + root) / 2.0, (tr - root) / 2.0
    lam = np.where(np.abs(r1) > np.abs(r2), r1, np.where(np.abs(r2) > np.abs(r1), r2, np.where(r2 > r1, r2, r1)))
    radicand = -F / (np.abs(lam) * S)
    return (lam == 0.0) | (S == 0.0), radicand, 2.0 * np.sqrt(radicand)


# The block's float table, column by column (name, width), and its bool table, one column per flag.
_FLOATS = (("coef", 6), ("S", 1), ("F", 1), ("kappa", 1), ("center", 2), ("arcs", 4), ("rho", 1), ("sector", 1),
           ("area", 1), ("radicand", 1), ("mu", 1))
_FLAGS = ("has_window", "fitted", "zero_f", "kappa_ok", "fine_area", "gap_undefined", "position", "affine_fine",
          "convex_position", "ccw")
_STARTS = np.cumsum([0] + [width for _, width in _FLOATS]).tolist()
# name -> (table, column): an index for a one-wide column, a slice for coef, center and arcs
_COLUMNS = {**{name: ("values", start if width == 1 else slice(start, start + width))
               for (name, width), start in zip(_FLOATS, _STARTS)},
            **{name: ("flags", j) for j, name in enumerate(_FLAGS)}}


class _Block:
    """The equiaffine arrays of a stack of five-point windows, one row per window.

    Built from a (N, 5, 2) window stack and its has-window mask, drawn from
    one or more meshes: a mesh's block is its rows of the stack (`rows`),
    row i belonging to the window centered at p[i]. Two read-only tables
    hold every column: ``values``, (N, 20) float64, and ``flags``, (N, 10)
    bool, laid out by ``_COLUMNS``; each column also reads by its name
    (``blk.kappa``, ``blk.coef``, ``blk.kappa_ok``, ...) as a view of its
    table. Rows without a window (the two ends of an open mesh) or with a
    degenerate fit hold NaN; `fit_errors` maps the degenerate rows to
    fit_conic's message. A row's curvature and its arc lengths can be read
    where ``kappa_ok`` holds; ``convex_position`` (the fit's three turns
    share a strict sign) and ``ccw`` (its middle turn is positive) give
    `sd_affine`. A row's failures are raised only when it is read, by
    `_row`. Every kernel works row by row, so a mesh's rows of a stack over
    several meshes equal its own one-mesh build bit for bit.
    """

    __slots__ = ("values", "flags", "fit_errors")

    def __init__(self, win: np.ndarray, has_window: np.ndarray):
        tol, rows = PARABOLIC_TOL, np.flatnonzero(has_window)
        self.values, self.flags = np.full((len(win), _STARTS[-1]), np.nan), np.zeros((len(win), len(_FLAGS)), bool)
        coef, turns = np.full((len(win), 6), np.nan), np.full((len(win), 3), np.nan)
        coef[rows], errors, turns[rows] = _fit(win[rows])
        self.fit_errors = {int(rows[r]): msg for r, msg in errors.items()}
        fitted = has_window.copy()
        fitted[list(self.fit_errors)] = False
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            S, F = _invariants(coef)
            kappa, center, zero_f = _kappa(S, F), _centers(coef, S), np.abs(F) <= ZERO_F_TOL
            kappa_ok = fitted & ~zero_f
            self._fill(coef=coef, S=S, F=F, kappa=kappa, center=center, has_window=has_window, fitted=fitted,
                       zero_f=zero_f, kappa_ok=kappa_ok, ccw=turns[:, 1] > 0.0,
                       convex_position=(turns > 0.0).all(axis=1) | (turns < 0.0).all(axis=1))
            # kappa = S / cbrt(F)^2 > 0 implies S > 0: the conic is an ellipse
            elliptic = kappa_ok & (kappa > tol)
            rho, sector = (np.where(elliptic, v, np.nan) for v in _sectors(coef, S, F, center, win))
            area = _ellipse_areas(S, F)
            gap_undefined, radicand, mu = _gap_bounds(coef, S, F)
            position = (row_norms(np.diff(win, axis=1).reshape(-1, 2)).reshape(len(win), -1) < mu[:, None]).all(axis=1)
            # is_affine_fine's condition per window: fine-area where the curvature
            # is positive, fine-position (a non-real bound failing) where negative
            fine_area, in_position = area >= sector * (1.0 - 1e-9), ~gap_undefined & (radicand >= 0.0) & position
            self._fill(arcs=_arcs(self, slice(None), win[:, :-1], win[:, 1:]), rho=rho, sector=sector, area=area,
                       fine_area=fine_area, gap_undefined=gap_undefined, radicand=radicand, mu=mu, position=position,
                       affine_fine=kappa_ok & np.where(kappa > tol, fine_area,
                                                       np.where(kappa < -tol, in_position, True)))
        _frozen(self.values, self.flags)

    def _fill(self, **columns: np.ndarray) -> None:
        for name, column in columns.items():
            table, col = _COLUMNS[name]
            getattr(self, table)[:, col] = column

    def rows(self, start: int, stop: int) -> "_Block":
        """Rows start..stop - 1 as a block of their own, fit_errors keyed from start.

        All rows are the block itself. Fewer are read-only copies of the two
        tables, so that a mesh's block never keeps the other meshes' rows of
        a joint build alive.
        """
        if start == 0 and stop == len(self.values):
            return self
        part = object.__new__(type(self))
        part.values, part.flags = _frozen(self.values[start:stop].copy(), self.flags[start:stop].copy())
        part.fit_errors = {r - start: msg for r, msg in self.fit_errors.items() if start <= r < stop}
        return part


for _name, (_table, _col) in _COLUMNS.items():
    setattr(_Block, _name, property(lambda blk, table=_table, col=_col: getattr(blk, table)[:, col]))


def _arcs(blk: _Block, rows, pk: np.ndarray, pl: np.ndarray) -> np.ndarray:
    """Arc lengths from pk[r, j] to pl[r, j] on the conic of block row rows[r].

    rows (an index array or a slice) picks the block rows; pk and pl are (m,
    k, 2). The arc length is |kappa (d x (pk - center))|, d = pk - pl, the
    center parallelogram area, taken as

        L = |S (d x pk) - d x c| / cbrt(F)^2,   c = (BE - CD, BD - AE) = S center,

    which divides by neither S nor A: one formula for every conic, parabolas
    included (there it is |cbrt(A^2 / (AE - BD)) (d_x + (B / A) d_y)|).
    Values on rows whose curvature raises (`_row` with read="kappa") are
    meaningless.

    Bound, against exact evaluation of L for the row's coefficients, S and
    F and the given points: 4 eps (T / cbrt(F)^2 + L), where T = |S|
    (|d_x pk_y| + |d_y pk_x|) + |d_x| (|BD| + |AE|) + |d_y| (|BE| + |CD|).
    """
    a, b, c, d, e = (blk.coef[rows, k, None] for k in range(5))
    cx, cy = b * e - c * d, b * d - a * e
    dx, dy = pk[..., 0] - pl[..., 0], pk[..., 1] - pl[..., 1]
    area = blk.S[rows, None] * (dx * pk[..., 1] - dy * pk[..., 0]) - (dx * cy - dy * cx)
    return np.abs(area) / np.cbrt(blk.F[rows, None]) ** 2


def _build_blocks(meshes: list[Mesh]) -> list[_Block]:
    """Each mesh's block, as its rows of one `_Block` over all the meshes' windows.

    Row start + i of the stack holds the window centered at p[i], wrapped
    mod n, of the mesh whose rows begin at start.
    """
    starts = np.cumsum([0] + [m.n for m in meshes]).tolist()
    spans = [(affine_fine_interior(m), np.arange(m.n)) for m in meshes]
    has_window = np.concatenate([(s.start <= c) & (c < s.stop) for s, c in spans])
    windows = np.concatenate([np.stack(_gather(m.points, _FIT_OFFSETS, range(m.n)), axis=1) for m in meshes])
    stack = _Block(windows, has_window)
    return [stack.rows(start, start + m.n) for m, start in zip(meshes, starts)]


def build_blocks(*meshes: Mesh) -> list[_Block]:
    """The meshes' equiaffine blocks, entries of their derived data; the missing ones are built in one pass."""
    return derived_jointly(meshes, "affine", _build_blocks)


def _block(mesh: Mesh) -> _Block:
    """The mesh's equiaffine block: `build_blocks` of one mesh."""
    return build_blocks(mesh)[0]


def _row(mesh: Mesh, i: int, read: str = "") -> tuple[_Block, int]:
    """Block and row of the window at p[i], raising what reading that row raises.

    In this order: IndexOutOfRange for a window reaching past an end, the
    fit's DegenerateConfiguration (its coincidence or collinearity screen,
    the only degeneracy test of a window), and then, for ``read="kappa"``
    (the curvature, or an arc length on the row's conic), ZeroF. Every
    function of this module that reads a row raises through here.
    """
    i = mesh.resolve(i)
    blk = _block(mesh)
    if not blk.has_window[i]:
        for off in _FIT_OFFSETS:
            mesh.resolve(i, off)  # the window reaches past an end: IndexOutOfRange
    if i in blk.fit_errors:
        raise DegenerateConfiguration(f"window at index {i}: {blk.fit_errors[i]}")
    if read and blk.zero_f[i]:
        raise ZeroF(f"cubic invariant {float(blk.F[i])!r} at index {i} too small: degenerate conic")
    return blk, i


# ---------------------------------------------------------------------------
# Per-conic and per-index views
# ---------------------------------------------------------------------------

def fit_conic(points) -> ConicCoeffs:
    """Unique conic through five points, the bracket pencil of `_fit`, within 2 eps sigma_1 / sigma_5.

    Parameters
    ----------
    points : array-like (5, 2)
        Five distinct points, no three collinear.

    Returns
    -------
    ConicCoeffs
        Unit-norm, sign-normalized coefficients, within `_fit`'s bound.

    Raises
    ------
    DegenerateConfiguration
        Not a (5, 2) array, or, in the window's frame (its differences to
        the centre point p2, scaled by a power of two so that the largest
        magnitude lies in [1/2, 1)), coincident points (a gap of at most
        1e-12 of the largest magnitude) or a collinear triple (an
        orientation of at most 1e-12 of its square: no unique conic). These
        two screens are the only degeneracy test: five points that pass
        them lie on exactly one conic.
    """
    pts = np.asarray(points, dtype=float)
    if pts.shape != (5, 2):
        raise DegenerateConfiguration(f"conic fit needs exactly 5 points, got {pts.shape}")
    coef, errors, _ = _fit(pts[None])
    if errors:
        raise DegenerateConfiguration(errors[0])
    return ConicCoeffs.from_vector(coef[0])


def invariants(c: ConicCoeffs) -> AffineInvariants:
    """Quadratic invariant S = AC - B^2 and cubic invariant F = det(3x3)."""
    s, f = _invariants(c.vector[None])
    return AffineInvariants(S=float(s[0]), F=float(f[0]))


def kappa_from_invariants(inv: AffineInvariants) -> float:
    """S / (real cube root of F)^2; well-defined for either sign of F."""
    if abs(inv.F) <= ZERO_F_TOL:
        raise ZeroF(f"cubic invariant {inv.F!r} too small: degenerate conic")
    return float(_kappa(np.array([inv.S]), np.array([inv.F]))[0])


def conic_at(mesh: Mesh, i: int) -> ConicCoeffs:
    """Conic through the two-neighborhood of p[i], read from the mesh's block."""
    blk, i = _row(mesh, i)
    return ConicCoeffs.from_vector(blk.coef[i])


def affine_curvature(mesh: Mesh, i: int) -> float:
    """Equiaffine curvature at p[i] from its two-neighborhood conic."""
    blk, i = _row(mesh, i, "kappa")
    return float(blk.kappa[i])


def interior_curvatures(mesh: Mesh) -> np.ndarray:
    """Curvature at every center of ``affine_fine_interior(mesh)``, as one array.

    The values are :func:`affine_curvature`'s: each within 4 eps of S /
    cbrt(F)^2 for its window's S and F, whose own bounds are those of the
    fit and of the invariants (see the module docstring). Raises what the
    first failing center raises.
    """
    blk, interior = _block(mesh), affine_fine_interior(mesh)
    rows = slice(interior.start, interior.stop)
    bad = np.flatnonzero(~blk.kappa_ok[rows])
    if len(bad):
        _row(mesh, interior[bad[0]], "kappa")
    return blk.kappa[rows]


def conic_center(c: ConicCoeffs, tol: float = PARABOLIC_TOL) -> Point2:
    """Center ((BE-CD)/S, -(AE-BD)/S) of a central conic."""
    inv = invariants(c)
    if abs(inv.S) <= tol:
        raise ParabolicConic(f"quadratic invariant {inv.S!r} ~ 0: no center")
    x, y = _centers(c.vector[None], np.array([inv.S]))[0].tolist()
    return Point2(x, y)


def _check_arc_offset(mesh: Mesh, at: int, j: int) -> None:
    off = j - at
    if mesh.closed:
        off = (off + mesh.n // 2) % mesh.n - mesh.n // 2  # shortest cyclic offset
    if abs(off) > ARC_HALF_WIDTH:
        raise IndexOutOfRange(
            f"point {j} outside the five-neighborhood of {at} (offset {off})"
        )


def affine_arc_length(mesh: Mesh, at: int, k: int, l: int) -> float:
    """Arc length between p[k] and p[l] measured by the conic fitted at `at`, within the bound of ``_arcs``.

    The length is the center parallelogram area |kappa (d x (p[k] - center))|,
    d = p[k] - p[l], in a form that also holds on parabolas. Both endpoints
    must lie in the five-neighborhood of `at`; it raises where the curvature
    at `at` raises.
    """
    if mesh.closed:
        at, k, l = (mesh.resolve(j) for j in (at, k, l))
    _check_arc_offset(mesh, at, k)
    _check_arc_offset(mesh, at, l)
    pk, pl = mesh.p(k), mesh.p(l)
    blk, at = _row(mesh, at, "kappa")
    return float(_arcs(blk, np.array([at]), pk[None, None], pl[None, None])[0, 0])


def arc_length_set(mesh: Mesh, i: int) -> ArcLengthSet:
    """The four consecutive arc lengths of the two-neighborhood of p[i]."""
    blk, i = _row(mesh, i, "kappa")
    return ArcLengthSet(at=i, values=tuple(blk.arcs[i].tolist()))


def interior_arc_length_sets(mesh: Mesh) -> tuple[np.ndarray, np.ndarray]:
    """(values, ok): the arc-length set of every center of ``affine_fine_interior``.

    values is (k, 4) and holds :func:`arc_length_set`'s values, within the
    bound of ``_arcs``, on the rows where ok is True: the rows whose
    curvature can be read (``kappa_ok``). arc_length_set raises at the other
    rows.
    """
    blk, interior = _block(mesh), affine_fine_interior(mesh)
    rows = slice(interior.start, interior.stop)
    return blk.arcs[rows], blk.kappa_ok[rows]


def sd_affine(mesh: Mesh, i: int) -> SigDirection:
    """Traversal orientation of the two-neighborhood on its fitted conic.

    The window is read through `_row`, so it raises what its fit raises; a
    collinear turn is one of the fit's collinear triples, judged in the
    window's frame. The fit's three turns, its orientations at p[i-1], p[i]
    and p[i+1], must then share a sign, else the window is not in convex
    position and raises DegenerateConfiguration. SD when they are positive.
    """
    blk, i = _row(mesh, i)
    if not blk.convex_position[i]:
        raise DegenerateConfiguration(f"two-neighborhood of {i} is not in convex position")
    return SigDirection.SD if blk.ccw[i] else SigDirection.NOT_SD


def ellipse_area(c: ConicCoeffs) -> float:
    """Area pi * |F| / S^(3/2) of an elliptic conic."""
    inv = invariants(c)
    if inv.S <= PARABOLIC_TOL:
        raise WrongCurvatureSign("area defined for elliptic conics only")
    return float(_ellipse_areas(np.array([inv.S]), np.array([inv.F]))[0])


def has_fine_area(mesh: Mesh, i: int) -> bool:
    """Ellipse-side fineness: the fitted ellipse's area covers the sector its window sweeps (`_sectors`).

    A conic through five real points is real, so a positive curvature reads
    a real ellipse; were rounding to make it imaginary, its sector would be
    NaN and the window would read as not fine.
    """
    blk, i = _row(mesh, i, "kappa")
    kappa = float(blk.kappa[i])
    if kappa <= PARABOLIC_TOL:
        raise WrongCurvatureSign(f"fine-area needs positive curvature, got {kappa!r}")
    return bool(blk.fine_area[i])


def hyperbola_gap_bound(mesh: Mesh, i: int) -> float:
    """Branch-separation bound 2*sqrt(-F / (lambda1^2 S)) at p[i].

    The quotient is not invariant under coefficient rescaling, so it is
    evaluated in the scale where the larger characteristic root has unit
    magnitude; there it is scale-free and equals twice the transverse
    semi-axis of the approximating hyperbola.
    """
    blk, w = _row(mesh, i)
    if blk.gap_undefined[w]:
        raise ParabolicConic(f"conic at index {w} is parabolic in the unit scale: no gap bound")
    radicand = float(blk.radicand[w])
    if radicand < 0.0:
        raise NonRealMu(f"gap bound radicand {radicand!r} negative at index {w}")
    return float(blk.mu[w])


def in_fine_position(mesh: Mesh, i: int) -> bool:
    """Hyperbola-side fineness: consecutive gaps stay under the branch bound."""
    kappa = affine_curvature(mesh, i)
    if kappa >= -PARABOLIC_TOL:
        raise WrongCurvatureSign(f"fine-position needs negative curvature, got {kappa!r}")
    hyperbola_gap_bound(mesh, i)
    return bool(_block(mesh).position[mesh.resolve(i)])


def affine_fine_interior(mesh: Mesh) -> range:
    """Indices whose two-neighborhood exists."""
    return mesh.interior(FIT_HALF_WIDTH, FIT_HALF_WIDTH)


def is_affine_fine(mesh: Mesh) -> bool:
    """Fine-area at every elliptic point, fine-position at every hyperbolic one.

    Parabolic points (curvature within the parabolic band) carry no
    condition. A non-real gap bound counts as not fine.
    """
    blk, interior = _block(mesh), affine_fine_interior(mesh)
    bad = np.flatnonzero(~blk.affine_fine[interior.start : interior.stop])
    if not len(bad):
        return True
    # the first flagged window is not fine, or its condition raises
    i = interior[bad[0]]
    try:
        (in_fine_position if blk.kappa[i] < -PARABOLIC_TOL else has_fine_area)(mesh, i)
    except NonRealMu:
        pass
    return False


def consecutive_arc_lengths(mesh: Mesh) -> np.ndarray:
    """L[i] = arc length from p[i] to p[i+1] on the conic at p[i], i in ``mesh.interior(2, 3)``: the block's arcs[i, 2].

    Raises what :func:`arc_length_set` raises at the first failing i.
    """
    blk, interior = _block(mesh), mesh.interior(FIT_HALF_WIDTH, FIT_HALF_WIDTH + 1)
    rows = slice(interior.start, interior.stop)
    bad = np.flatnonzero(~blk.kappa_ok[rows])
    if len(bad):
        _row(mesh, interior[bad[0]], "kappa")
    return blk.arcs[rows, 2]


def _signature_columns(mesh: Mesh, scheme: Scheme) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The signature's read-only (indices, kappas, kappa_s) columns: the block's curvatures over arc lengths."""
    blk = _block(mesh)

    def denominators(lo: int, hi: int, rows: range) -> tuple[np.ndarray, np.ndarray]:
        own = slice(rows.start, rows.stop)
        denom = _arcs(blk, own, *(end[:, None] for end in _gather(mesh.points, (lo, hi), rows)))[:, 0]
        return denom, blk.kappa_ok[own] & (denom > 1e-15)

    def vanishing(i: int, lo: int, hi: int) -> str:
        return f"{scheme.label} arc length at index {i} vanishes"  # its conic's curvature at i was read first

    return signature_columns(mesh, scheme, SA_SPEC, (0, blk.kappa, blk.kappa_ok),
                             lambda c: _row(mesh, c, "kappa"), denominators, vanishing)


def sa_signature(
    mesh: Mesh,
    scheme: Scheme,
    spacing: str = "affine",
    spacing_tol: float = SPACING_REL_TOL,
) -> Signature:
    """The SA-signature of a convex ordinary mesh under one of schemes 5-8.

    EQ5/EQ6 require equal spacing of the consecutive arc lengths
    (`spacing="affine"`, the default) or of the edges (`"euclidean"`; any
    other value raises ValueError): SchemeSpacingMismatch names the first
    arc or edge shorter than the longest by more than `spacing_tol` of it.
    EQ7/EQ8 measure their long arc lengths with the conic fitted at the
    row's center point; the signature metadata flags that extrapolation.

    The rows come from :func:`signatures.signature_columns`, as the
    Euclidean ones do: the first that cannot be evaluated raises what its
    first failing curvature center raises (its arc length lies on the conic
    of one of them), else DegenerateStencil if that arc length vanishes. The columns are built
    once per mesh and scheme, as the derived entry ``("sa", scheme)``, and
    a build that raises stores nothing; the ordinary, convex and spacing
    checks run on every call.
    """
    if scheme.value <= 4:
        raise ValueError(f"{scheme} is a Euclidean scheme; use se_signature")
    if spacing not in ("affine", "euclidean"):
        raise ValueError(f"unknown spacing {spacing!r}; expected 'affine' or 'euclidean'")
    if not is_ordinary(mesh):
        raise NotOrdinary("signature of a mesh with a cusp")
    if not is_convex(mesh):
        raise NotConvex("equiaffine signature requires a convex mesh")
    if scheme.needs_equal_spacing:
        if spacing == "euclidean":
            _check_edge_spacing(mesh, scheme, spacing_tol)
        else:
            arcs = consecutive_arc_lengths(mesh)
            if len(arcs) == 0:
                raise MeshTooShort(f"no arc lengths computable on a {mesh.n}-point mesh")
            if (first := _first_short(arcs, spacing_tol)) is not None:
                raise SchemeSpacingMismatch(f"{scheme.label} requires equal arc lengths; arc {first} deviates")
    sig = Signature._of(derived(mesh, ("sa", scheme), _signature_columns, scheme), scheme, SA_SPEC)
    if scheme in (Scheme.EQ7, Scheme.EQ8):
        sig.meta["arc_length_extrapolation"] = (
            "long-span arc lengths evaluated with the conic fitted at the row's center point"
        )
    return sig
