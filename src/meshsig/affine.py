"""Conic fitting and the equiaffine curvature / arc-length / signature layer.

A point's curvature data comes from the unique conic through its
two-neighborhood (five points, no three collinear):

    A x^2 + 2B xy + C y^2 + 2D x + 2E y + F0 = 0

with the quadratic invariant S = AC - B^2 and the cubic invariant F the
determinant of [[A,B,D],[B,C,E],[D,E,F0]]. The curvature S / cbrt(F)^2 is
unchanged by coefficient rescaling and by unimodular maps.

Each window is worked in its own frame u = 2^-e (p - p2), its differences
to its centre point scaled by 2^-e, e a multiple of 3 (`_fit`). There the
fit screens out coinciding points and collinear triples, the layer's only
degeneracy test, and writes the conic as the bracket pencil through the
five points, whose determinant F is twice the product of the screen's ten
brackets: never 0 on a screened window, and exact in sign. S, F, the
curvature, centre, sector, gap bound and arc lengths are all read in the
frame, and nothing is mapped back: the curvature (of weight -4/3 in the
coordinates' scale), the arcs (2/3) and the gap bound (1) return to the
given units by exact powers of two. So the block does not change with
where a mesh lies (up to the rounding of p - p2) or with a power-of-two
dilation, except through PARABOLIC_TOL, which compares the curvature in the
given units.

Each mesh's derived data holds one equiaffine block, built in one pass on
first use and never changed afterwards: two read-only tables, one float
and one bool, whose row i belongs to the window centred at p[i]. One arc
formula (`_arcs`) serves every conic. A degenerate window is recorded in
the block and raises only when read, through one helper (`_row`) shared by
every per-index and array function, `sd_affine` included: it reads the
window's three turns off the fit. `build_blocks` builds the missing blocks
of several meshes in one pass, as the equiaffine rules do for a pair, each
identical bit for bit to the mesh's own build. Each scheme's SA-signature
columns are an entry of their own. `fit_conic` and `conic_at` alone map a
frame conic back to the given coordinates (`_given_conics`), in
ConicCoeffs' form; `invariants` and `kappa_from_invariants` evaluate such
coefficients.

Numerical contract: each kernel's docstring states a bound against the
exact evaluation (rational arithmetic, roots and angles to 50 digits) of
its formula on the same doubles it was given, or, for the frame's values,
against the exact conic through the same frame doubles. A function over
many windows raises what its first failing index raises, as one window
would.
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

# |kappa| (given units), or |S| of unit-norm coefficients, at most this marks a conic parabolic.
PARABOLIC_TOL = 1e-10

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
# the symmetric conic matrix [[A, B, D], [B, C, E], [D, E, F0]] of a coefficient row
_MATRIX = np.array([[0, 1, 3], [1, 2, 4], [3, 4, 5]])


def _fit(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, dict[int, str]]:
    """Conics through a (w, 5, 2) stack of five-point windows, each in its own frame.

    Returns (coef, F, u, exp, turns, errors): the frame points u (w, 5, 2)
    and exponent e (w,); the frame conic's A, B, C, D, E, F0 (w, 6; F0 = 0,
    as p2 is the frame's origin) and its cubic invariant F (w,), both NaN
    on degenerate rows; the orientations [012], [123] and [234] (w, 3); and
    each degenerate row's DegenerateConfiguration message, coinciding points
    first, then a collinear triple.

    The frame is u = 2^-e (p - p2), e a multiple of 3 such that max|u| lies
    in [1/8, 1). Two points coincide when their gap is at most 1e-12 max|u|,
    a triple is collinear when its orientation [ijk] is at most 1e-12
    max|u|^2 in magnitude: the only test of a degenerate window, whose
    verdicts do not change under translation (up to the rounding of p - p2)
    or power-of-two dilation. Five points with no three collinear lie on
    exactly one conic, the bracket pencil (Richter-Gebert, Perspectives on
    Projective Geometry, 2011, ch. 10) C(x) = [024][134] L01(x) L23(x) -
    [014][234] L02(x) L13(x), L_ij(x) = [ijx] = (y_i - y_j) x + (x_j - x_i) y
    + [2ij]; every bracket is one of the screen's ten orientations. coef is
    C's matrix with each line pair doubled, whose determinant is exactly
    twice the product of the ten brackets: F is that product, never 0 on a
    screened window and exact in sign. Both are signed by `_lead_signs`.

    Bounds against the exact conic through the same frame doubles (u = eps /
    2, P_t the absolute products of bracket t's two terms, r_t = ((1 + u)^4
    - 1) P_t / |[t]| its relative error, r = max_t r_t, X_abs an entry X
    with every bracket-pair and line-pair product taken in absolute value):
    F within phi |F|, phi = prod_t (1 + r_t) (1 + u)^9 - 1; each entry
    within rho X_abs, rho = (1 + r)^3 (1 + u)^6 - 1; S = AC - B^2 within
    sigma = eps_2 (A_abs C_abs + B_abs^2), eps_2 = (1 + rho)^2 (1 + u)^2 -
    1; and the curvature S / cbrt(F)^2 within 4 eps of the quotient of some
    S and F in those bounds, and 2^(-4e/3) times it in the given units.
    """
    diff = pts - pts[:, 2, None]
    mant, top = np.frexp(np.abs(diff).max(axis=(1, 2)))
    exp = -(-top // 3) * 3  # 3 ceil(top / 3): max|diff| = mant 2^top, mant in [1/2, 1)
    big = np.ldexp(mant, top - exp)  # max|u|
    u = np.ldexp(diff, -exp[:, None, None])
    ut = u.transpose(1, 0, 2).copy()  # (5, w, 2): point j of every window in ut[j]
    gaps = row_norms((ut[_PAIRS[0]] - ut[_PAIRS[1]]).reshape(-1, 2)).reshape(len(_PAIRS[0]), -1)
    br = orient_rows(*(ut[t].reshape(-1, 2) for t in _TRIPLES)).reshape(len(_TRIPLES[0]), -1)
    close, collinear = gaps <= 1e-12 * big, np.abs(br) <= 1e-12 * big * big
    errors = {int(r): "fit points {}, {}, {} are collinear".format(*sorted(_TRIPLES[:, collinear[:, r].argmax()]))
              for r in np.flatnonzero(collinear.any(axis=0))}
    errors.update({int(r): "fit points {} and {} coincide".format(*_PAIRS[:, close[:, r].argmax()])
                   for r in np.flatnonzero(close.any(axis=0))})
    # br in _TRIPLES order: [012], [013], [014], [023], [024], [034], [123], [124], [134], [234]
    (i, j), x, y, zero = _LINES, ut[..., 0], ut[..., 1], np.zeros(len(pts))
    lines = np.stack([y[i] - y[j], x[j] - x[i], np.stack([br[0], zero, zero, -br[6]])], axis=2)
    pair = lines[:2, :, :, None] * lines[2:, :, None, :]  # L01 L23 and L02 L13 as outer products
    pair = pair + pair.transpose(0, 1, 3, 2)  # twice each line pair's symmetric conic matrix
    conic = (br[4] * br[8])[:, None, None] * pair[0] - (br[2] * br[9])[:, None, None] * pair[1]
    coef = conic.reshape(-1, 9)[:, _UPPER]
    sign = _lead_signs(coef)
    coef, F = sign[:, None] * coef, sign * 2.0 * np.prod(br, axis=0)
    coef[list(errors)], F[list(errors)] = np.nan, np.nan
    return coef, F, u, exp, br[[0, 6, 9]].T, errors


def _lead_signs(coef: np.ndarray) -> np.ndarray:
    """+-1 per row of an (m, 6) stack: the sign of its first of A, B, C over 1e-12 of its norm in magnitude, or,
    where none is, of its first of all six. A conic times its sign has one representation."""
    large = np.abs(coef) > 1e-12 * row_norms(coef)[:, None]
    lead = np.where(large[:, :3].any(axis=1), np.argmax(large[:, :3], axis=1), np.argmax(large, axis=1))
    return np.where(coef[np.arange(len(coef)), lead] < 0, -1.0, 1.0)


def _given_conics(coef: np.ndarray, exp: np.ndarray, centres: np.ndarray) -> np.ndarray:
    """Fitted frame conics (m, 6) in the given coordinates, in ConicCoeffs' form, within 2 eps sigma_1 / sigma_5.

    Row r's frame is x -> 2^-exp[r] (x - centres[r]). The shift is a matmul;
    the scale (twice in A, B and C, once in D and E) is applied exactly, as
    powers of two, with the one that puts the largest entry in [1/2, 1)
    (-4096 is below every exponent), so none overflows. sigma_1 / sigma_5 is
    the condition of the window's 5x6 design [x^2, 2xy, y^2, 2x, 2y, 1], and
    the bound is against the unit-norm, signed exact conic through the same
    five doubles.
    """
    shift = np.tile(np.eye(3), (len(coef), 1, 1))
    shift[:, :2, 2] = np.ldexp(-centres, -exp[:, None])
    mant, power = np.frexp((shift.transpose(0, 2, 1) @ coef[:, _MATRIX] @ shift).reshape(-1, 9)[:, _UPPER])
    power = power - exp[:, None] * _DEGREE
    vec = np.ldexp(mant, power - np.where(mant == 0.0, -4096, power).max(axis=1)[:, None])
    vec = vec / row_norms(vec)[:, None]
    return _lead_signs(vec)[:, None] * vec


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

    Bound against the exact frame conic, in `_fit`'s terms: |lambda1| within
    Lambda = (rho + 5 eps (1 + rho)) (A_abs + 2 B_abs + C_abs) (its rounding,
    and the entries' error, which moves the spectral radius by at most their
    row sums), so the radicand within psi = (1 + phi) (1 + u)^2 / ((1 -
    Lambda / |lambda1*|) (1 - sigma / |S*|)) - 1 (relative) where both
    factors are positive, and mu within psi / 2 + psi^2 + eps for psi < 1,
    and 2^e times it in the given units.
    """
    tr, diff = coef[:, 0] + coef[:, 2], coef[:, 0] - coef[:, 2]
    root = np.sqrt(diff * diff + 4.0 * coef[:, 1] * coef[:, 1])
    r1, r2 = (tr + root) / 2.0, (tr - root) / 2.0
    lam = np.where(np.abs(r1) > np.abs(r2), r1, np.where(np.abs(r2) > np.abs(r1), r2, np.where(r2 > r1, r2, r1)))
    radicand = -F / (np.abs(lam) * S)
    return (lam == 0.0) | (S == 0.0), radicand, 2.0 * np.sqrt(radicand)


# The block's float table, column by column (name, width), and its bool table, one column per flag.
_FLOATS = (("coef", 6), ("exp", 1), ("S", 1), ("F", 1), ("kappa", 1), ("center", 2), ("arcs", 4), ("rho", 1),
           ("sector", 1), ("area", 1), ("radicand", 1), ("mu", 1))
_FLAGS = ("has_window", "fitted", "fine_area", "gap_undefined", "position", "affine_fine", "convex_position", "ccw")
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
    hold every column: ``values``, (N, 21) float64, and ``flags``, (N, 8)
    bool, laid out by ``_COLUMNS``; each column also reads by its name
    (``blk.kappa``, ``blk.coef``, ``blk.fitted``, ...) as a view of its
    table. Rows without a window (the two ends of an open mesh) or with a
    degenerate fit hold NaN; `fit_errors` maps the degenerate rows to
    fit_conic's message, raised by `_row` when the row is read; every other
    row is fitted and can be read. ``convex_position`` (the fit's three
    turns share a strict sign) and ``ccw`` (its middle turn is positive)
    give `sd_affine`. coef, S, F, center, rho, sector, area and radicand are
    the window's frame's (`_fit`), exp its exponent e; kappa, the arcs and
    mu are in the given units. Every kernel works row by row, so a mesh's
    rows of a stack over several meshes equal its own build bit for bit.
    """

    __slots__ = ("values", "flags", "fit_errors")

    def __init__(self, win: np.ndarray, has_window: np.ndarray):
        tol, rows = PARABOLIC_TOL, np.flatnonzero(has_window)
        self.values, self.flags = np.full((len(win), _STARTS[-1]), np.nan), np.zeros((len(win), len(_FLAGS)), bool)
        coef, F, u, turns = (np.full((len(win), *shape), np.nan) for shape in ((6,), (), (5, 2), (3,)))
        exp = np.zeros(len(win), int)
        coef[rows], F[rows], u[rows], exp[rows], turns[rows], errors = _fit(win[rows])
        self.fit_errors = {int(rows[r]): msg for r, msg in errors.items()}
        fitted = has_window.copy()
        fitted[list(self.fit_errors)] = False
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            S = coef[:, 0] * coef[:, 2] - coef[:, 1] * coef[:, 1]
            kappa, center = np.ldexp(_kappa(S, F), -4 * exp // 3), _centers(coef, S)
            self._fill(coef=coef, exp=np.where(has_window, exp, np.nan), S=S, F=F, kappa=kappa, center=center,
                       has_window=has_window, fitted=fitted, ccw=turns[:, 1] > 0.0,
                       convex_position=(turns > 0.0).all(axis=1) | (turns < 0.0).all(axis=1))
            # kappa = S / cbrt(F)^2 > 0 implies S > 0: the conic is an ellipse
            elliptic = fitted & (kappa > tol)
            rho, sector = (np.where(elliptic, v, np.nan) for v in _sectors(coef, S, F, center, u))
            area = _ellipse_areas(S, F)
            gap_undefined, radicand, mu = _gap_bounds(coef, S, F)
            position = (row_norms(np.diff(u, axis=1).reshape(-1, 2)).reshape(len(win), -1) < mu[:, None]).all(axis=1)
            # is_affine_fine's condition per window: fine-area where the curvature
            # is positive, fine-position (a non-real bound failing) where negative
            fine_area, in_position = area >= sector * (1.0 - 1e-9), ~gap_undefined & (radicand >= 0.0) & position
            arcs = np.ldexp(_arcs(coef, S, F, u[:, :-1], u[:, 1:]), 2 * exp[:, None] // 3)
            self._fill(arcs=arcs, rho=rho, sector=sector, area=area, fine_area=fine_area, gap_undefined=gap_undefined,
                       radicand=radicand, mu=np.ldexp(mu, exp), position=position,
                       affine_fine=fitted & np.where(kappa > tol, fine_area, np.where(kappa < -tol, in_position, True)))
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


def _arcs(coef: np.ndarray, S: np.ndarray, F: np.ndarray, uk: np.ndarray, ul: np.ndarray) -> np.ndarray:
    """Arc lengths from uk[r, j] to ul[r, j], (m, k, 2) in row r's frame, on row r's frame conic, S and F.

    The arc length is the center parallelogram area |kappa (d x (uk -
    center))|, d = uk - ul, taken as L = |N| / cbrt(F)^2 with N = S (d x uk)
    - d x c and c = (BE - CD, BD - AE) = S center: one formula for every
    conic, parabolas included, dividing by neither S nor A. Bound against
    the exact frame conic and the exact d of the frame doubles, in `_fit`'s
    terms: within ((1 + eps_N) (1 + 4 eps) / (1 - phi) - 1) N_abs /
    cbrt(F*)^2, eps_N = (1 + eps_2) (1 + u)^5 - 1, N_abs = S_abs (|d_x uk_y|
    + |d_y uk_x|) + |d_x| c_abs_y + |d_y| c_abs_x, S_abs = A_abs C_abs +
    B_abs^2, c_abs = (B_abs E_abs + C_abs D_abs, B_abs D_abs + A_abs E_abs);
    and 2^(2e/3) times that in the given units.
    """
    a, b, c, d, e = (coef[:, k, None] for k in range(5))
    cx, cy = b * e - c * d, b * d - a * e
    dx, dy = uk[..., 0] - ul[..., 0], uk[..., 1] - ul[..., 1]
    area = S[:, None] * (dx * uk[..., 1] - dy * uk[..., 0]) - (dx * cy - dy * cx)
    return np.abs(area) / np.cbrt(F[:, None]) ** 2


def _given_arcs(blk: "_Block", rows, centres: np.ndarray, pk: np.ndarray, pl: np.ndarray) -> np.ndarray:
    """`_arcs` in the given units from pk[r, j] to pl[r, j] (m, k, 2), on windowed block row rows[r] centred at
    centres[r]: on the frame points 2^-e (p - centre), scaled back by 2^(2e/3)."""
    exp = blk.exp[rows].astype(int)
    uk, ul = (np.ldexp(p - centres[:, None], -exp[:, None, None]) for p in (pk, pl))
    return np.ldexp(_arcs(blk.coef[rows], blk.S[rows], blk.F[rows], uk, ul), 2 * exp[:, None] // 3)


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


def _row(mesh: Mesh, i: int) -> tuple[_Block, int]:
    """Block and row of the window at p[i], raising what reading that row raises.

    In this order: IndexOutOfRange for a window reaching past an end, then
    the fit's DegenerateConfiguration (its coincidence or collinearity
    screen, the only degeneracy test of a window). Every function of this
    module that reads a row raises through here.
    """
    i = mesh.resolve(i)
    blk = _block(mesh)
    if not blk.has_window[i]:
        for off in _FIT_OFFSETS:
            mesh.resolve(i, off)  # the window reaches past an end: IndexOutOfRange
    if i in blk.fit_errors:
        raise DegenerateConfiguration(f"window at index {i}: {blk.fit_errors[i]}")
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
        Not a (5, 2) array, or coincident points or a collinear triple by
        `_fit`'s screens in the window's frame: no unique conic.
    """
    pts = np.asarray(points, dtype=float)
    if pts.shape != (5, 2):
        raise DegenerateConfiguration(f"conic fit needs exactly 5 points, got {pts.shape}")
    coef, _, _, exp, _, errors = _fit(pts[None])
    if errors:
        raise DegenerateConfiguration(errors[0])
    return ConicCoeffs.from_vector(_given_conics(coef, exp, pts[None, 2])[0])


def invariants(c: ConicCoeffs) -> AffineInvariants:
    """S = AC - B^2, within 2 eps (|AC| + B^2), and F = det [[A, B, D], [B, C, E], [D, E, F0]] as the plain sum
    A C F0 + 2 B D E - A E^2 - B^2 F0 - C D^2, within 4 eps times its terms' absolute sum, of their exact values."""
    a, b, c, d, e, f0 = c.vector.tolist()
    return AffineInvariants(S=a * c - b * b, F=a * c * f0 + 2.0 * b * d * e - a * e * e - b * b * f0 - c * d * d)


def kappa_from_invariants(inv: AffineInvariants) -> float:
    """S / (real cube root of F)^2, within 4 eps; DegenerateConfiguration where F is 0 (a line pair)."""
    if inv.F == 0.0:
        raise DegenerateConfiguration("cubic invariant F is 0: degenerate conic")
    return float(_kappa(np.array([inv.S]), np.array([inv.F]))[0])


def conic_at(mesh: Mesh, i: int) -> ConicCoeffs:
    """Conic through the two-neighborhood of p[i]: the block's frame conic, in the given coordinates."""
    blk, i = _row(mesh, i)
    row = [i]
    return ConicCoeffs.from_vector(_given_conics(blk.coef[row], blk.exp[row].astype(int), mesh.points[row])[0])


def affine_curvature(mesh: Mesh, i: int) -> float:
    """Equiaffine curvature at p[i] from its two-neighborhood conic."""
    blk, i = _row(mesh, i)
    return float(blk.kappa[i])


def interior_curvatures(mesh: Mesh) -> np.ndarray:
    """Curvature at every center of ``affine_fine_interior(mesh)``, as one array.

    The values are :func:`affine_curvature`'s, within `_fit`'s bound.
    Raises what the first failing center raises.
    """
    blk, interior = _block(mesh), affine_fine_interior(mesh)
    rows = slice(interior.start, interior.stop)
    bad = np.flatnonzero(~blk.fitted[rows])
    if len(bad):
        _row(mesh, interior[bad[0]])
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
    blk, at = _row(mesh, at)
    return float(_given_arcs(blk, [at], mesh.points[[at]], pk[None, None], pl[None, None])[0, 0])


def arc_length_set(mesh: Mesh, i: int) -> ArcLengthSet:
    """The four consecutive arc lengths of the two-neighborhood of p[i]."""
    blk, i = _row(mesh, i)
    return ArcLengthSet(at=i, values=tuple(blk.arcs[i].tolist()))


def interior_arc_length_sets(mesh: Mesh) -> tuple[np.ndarray, np.ndarray]:
    """(values, ok): the arc-length set of every center of ``affine_fine_interior``.

    values is (k, 4) and holds :func:`arc_length_set`'s values, within the
    bound of ``_arcs``, on the rows where ok is True: the fitted rows.
    arc_length_set raises at the other rows.
    """
    blk, interior = _block(mesh), affine_fine_interior(mesh)
    rows = slice(interior.start, interior.stop)
    return blk.arcs[rows], blk.fitted[rows]


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
    blk, i = _row(mesh, i)
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
    if blk.radicand[w] < 0.0:  # in the frame, whose sign survives any dilation; named in the given units
        with np.errstate(over="ignore"):
            radicand = float(np.ldexp(blk.radicand[w], 2 * int(blk.exp[w])))
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
    bad = np.flatnonzero(~blk.fitted[rows])
    if len(bad):
        _row(mesh, interior[bad[0]])
    return blk.arcs[rows, 2]


def _signature_columns(mesh: Mesh, scheme: Scheme) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The signature's read-only (indices, kappas, kappa_s) columns: the block's curvatures over arc lengths."""
    blk = _block(mesh)

    def denominators(lo: int, hi: int, rows: range) -> tuple[np.ndarray, np.ndarray]:
        own = slice(rows.start, rows.stop)
        ends = (end[:, None] for end in _gather(mesh.points, (lo, hi), rows))
        denom = _given_arcs(blk, own, mesh.points[own], *ends)[:, 0]
        return denom, blk.fitted[own] & (denom > 1e-15)

    def vanishing(i: int, lo: int, hi: int) -> str:
        return f"{scheme.label} arc length at index {i} vanishes"  # its conic's curvature at i was read first

    return signature_columns(mesh, scheme, SA_SPEC, (0, blk.kappa, blk.fitted),
                             lambda c: _row(mesh, c), denominators, vanishing)


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
