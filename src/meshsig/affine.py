"""Conic fitting and the equiaffine curvature / arc-length / signature layer.

A point's curvature data comes from the unique conic through its
two-neighborhood (five points, no three collinear):

    A x^2 + 2B xy + C y^2 + 2D x + 2E y + F0 = 0

with the quadratic invariant S = AC - B^2 and the cubic invariant F the
determinant of [[A,B,D],[B,C,E],[D,E,F0]]. The curvature S / cbrt(F)^2 is
unchanged by coefficient rescaling and by unimodular maps.

Each mesh carries one equiaffine block, built in one pass on first use and
never changed afterwards. Row i of the block belongs to the window centred
at p[i]: its conic (every window fitted by one stacked SVD), S, F, the
curvature, the centre, the window's four consecutive arc lengths, its
fineness and its hyperbola gap bound. A degenerate window is recorded in
the block and raises only when that window is read. The per-index
functions (`conic_at`, `affine_curvature`, `has_fine_area`, ...) read the
block, and `fit_conic`, `invariants` and `kappa_from_invariants` run the
same kernels on a one-row stack. Every value, and the exception met first in
index order, equals the former one-index-at-a-time evaluation bit for bit:
each kernel keeps that evaluation's operation order, its BLAS calls and its
C-library `pow` (see `_pow`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateConfiguration,
    DegenerateStencil,
    IndexOutOfRange,
    MeshTooShort,
    NonRealMu,
    NotConvex,
    NotOrdinary,
    ParabolicConic,
    SchemeSpacingMismatch,
    WrongCurvatureSign,
    ZeroDenominator,
    ZeroF,
)
from .geometry import (
    Mesh,
    NeighborhoodSpec,
    Point2,
    SigDirection,
    is_convex,
    is_equally_spaced,
    is_ordinary,
    orient,
    orient_rows,
    row_norms,
)
from .signatures import Scheme, Signature, SignaturePoint

# |S| below this (unit-norm coefficients) marks the conic parabolic.
PARABOLIC_TOL = 1e-10
# |F| below this (unit-norm coefficients) marks a degenerate conic (line pair).
ZERO_F_TOL = 1e-12
# Residual bound for the five fitted points, at unit design-row scale.
RESIDUAL_TOL = 1e-8
# Relative spread tolerated between consecutive arc lengths for EQ5/EQ6.
AFFINE_SPACING_REL_TOL = 1e-6

# Conic fit window: the two-neighborhood on each side of the center point.
FIT_HALF_WIDTH = 2
# Arc lengths at a point are only defined inside its five-neighborhood.
ARC_HALF_WIDTH = 5


@dataclass(frozen=True)
class ConicCoeffs:
    """Coefficients of A x^2 + 2B xy + C y^2 + 2D x + 2E y + F0 = 0.

    Stored at unit Euclidean norm with the first non-negligible entry of
    (A, B, C) positive, so repeated fits are bitwise reproducible.
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

    @property
    def matrix3(self) -> np.ndarray:
        return _matrix3(self.vector[None])[0]

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

def _pow(x: np.ndarray, y: float) -> np.ndarray:
    """x ** y per element, rounded by the C library's pow as float ** y rounds it.

    numpy's array power may run a SIMD pow that rounds differently (on an
    AVX-512 host, x ** 1.5 differed in about one element in twenty, and
    even x ** 2.0 differs from x * x now and then), so the scalars of the
    kernels go through Python floats.
    """
    return np.array([v ** y for v in x.tolist()], dtype=float)


def _matrix3(coef: np.ndarray) -> np.ndarray:
    """(m, 3, 3) stack of [[A, B, D], [B, C, E], [D, E, F0]] from (m, 6) coefficients."""
    return np.ascontiguousarray(coef[:, [[0, 1, 3], [1, 2, 4], [3, 4, 5]]])


def _fit_checks():
    # fit_conic's coincidence and collinearity checks of a five-point window,
    # in the order its nested scan meets them: pair (i, j), then the triples
    # (i, j, k) for k > j. Each check's column indexes [10 pairs, 10 triples].
    pairs, triples, columns, messages = [], [], [], []
    for i in range(5):
        for j in range(i + 1, 5):
            columns.append(len(pairs))
            pairs.append((i, j))
            messages.append(f"fit points {i} and {j} coincide")
            for k in range(j + 1, 5):
                columns.append(10 + len(triples))
                triples.append((i, j, k))
                messages.append(f"fit points {i}, {j}, {k} are collinear")
    return np.array(pairs).T, np.array(triples).T, columns, messages


_PAIRS, _TRIPLES, _CHECK_COLUMN, _CHECK_MESSAGES = _fit_checks()
_FIT_OFFSETS = np.arange(-FIT_HALF_WIDTH, FIT_HALF_WIDTH + 1)


def _fit(pts: np.ndarray) -> tuple[np.ndarray, dict[int, str]]:
    """Conics through a (w, 5, 2) stack of five-point windows.

    Returns (coef, errors): coef is (w, 6), unit-norm and sign-normalized,
    NaN on the rows of degenerate windows, and errors maps each of those
    rows to its DegenerateConfiguration message. Each window is fitted in
    its own centered, isotropically scaled frame by one stacked SVD.
    """
    w = len(pts)
    coef = np.full((w, 6), np.nan)
    if w == 0:
        return coef, {}
    absmax = np.abs(pts).max(axis=(1, 2))
    scale = np.maximum(absmax, 1e-300)
    close = row_norms((pts[:, _PAIRS[0]] - pts[:, _PAIRS[1]]).reshape(-1, 2)).reshape(w, -1)
    close = close <= 1e-12 * scale[:, None]
    area = orient_rows(*(pts[:, t].reshape(-1, 2) for t in _TRIPLES)).reshape(w, -1)
    collinear = np.abs(area) <= (1e-12 * _pow(scale, 2.0))[:, None]
    failed = np.concatenate([close, collinear], axis=1)[:, _CHECK_COLUMN]
    errors = {int(r): _CHECK_MESSAGES[int(np.argmax(failed[r]))] for r in np.flatnonzero(failed.any(axis=1))}
    ok = np.flatnonzero(~failed.any(axis=1))
    if len(ok) == 0:
        return coef, errors
    p = pts[ok]
    centroid = p.mean(axis=1)
    spread = np.sqrt(((p - centroid[:, None]) ** 2).sum(axis=2).mean(axis=1))
    u = (p - centroid[:, None]) / spread[:, None, None]
    x, y = u[..., 0], u[..., 1]
    design = np.stack([x * x, 2.0 * x * y, y * y, 2.0 * x, 2.0 * y, np.ones_like(x)], axis=2)
    _, sv, vt = np.linalg.svd(design)
    frame = np.zeros((len(ok), 3, 3))
    frame[:, 0, 0] = frame[:, 1, 1] = 1.0 / spread
    frame[:, :2, 2] = -centroid / spread[:, None]
    frame[:, 2, 2] = 1.0
    mat = frame.transpose(0, 2, 1) @ _matrix3(vt[:, -1]) @ frame
    # contiguous rows: a strided row would reach BLAS's dot with another summation order
    vec = np.ascontiguousarray(mat[:, [0, 0, 1, 0, 1, 2], [0, 1, 1, 2, 2, 2]])
    vec = vec / row_norms(vec)[:, None]
    big = np.abs(vec) > 1e-12
    lead = np.where(big[:, :3].any(axis=1), np.argmax(big[:, :3], axis=1), np.argmax(big, axis=1))
    vec = np.where((vec[np.arange(len(ok)), lead] < 0)[:, None], -vec, vec)
    a, b, c, d, e, f0 = (vec[:, k, None] for k in range(6))
    px, py = p[..., 0], p[..., 1]
    residual = a * px * px + 2.0 * b * px * py + c * py * py + 2.0 * d * px + 2.0 * e * py + f0
    worst = np.abs(residual).max(axis=1)
    row_scale = _pow(absmax[ok], 2.0)
    row_scale = np.where(row_scale > 1.0, row_scale, 1.0)
    for k in np.flatnonzero(sv[:, 4] <= 1e-13 * sv[:, 0]):
        errors[int(ok[k])] = "conic through the five points is not unique (rank < 5)"
    for k in np.flatnonzero(worst > RESIDUAL_TOL * row_scale):
        errors.setdefault(int(ok[k]), f"conic fit residual {worst[k]:.3e} exceeds tolerance")
    coef[ok] = vec
    coef[list(errors)] = np.nan
    return coef, errors


def _invariants(coef: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """S = AC - B^2 and F = det(3x3) of each row of an (m, 6) coefficient stack."""
    return coef[:, 0] * coef[:, 2] - coef[:, 1] * coef[:, 1], np.linalg.det(_matrix3(coef))


def _kappa(S: np.ndarray, F: np.ndarray) -> np.ndarray:
    # S over the squared real cube root of F
    return S / _pow(np.cbrt(F), 2.0)


def _centers(coef: np.ndarray, S: np.ndarray) -> np.ndarray:
    """(m, 2) centers ((BE - CD)/S, -(AE - BD)/S)."""
    a, b, c, d, e = coef[:, :5].T
    return np.stack([(b * e - c * d) / S, -(a * e - b * d) / S], axis=1)


def _ellipse_areas(S: np.ndarray, F: np.ndarray) -> np.ndarray:
    return np.pi * np.abs(F) / _pow(S, 1.5)


def _fine_areas(coef, S, F, center, win) -> tuple[np.ndarray, np.ndarray]:
    """Whether each elliptic conic contains the sector swept by its window.

    Returns (rho, fine) for (m, 6) coefficients with S > PARABOLIC_TOL; fine
    is meaningful where rho > 0. The sector is the shoelace area of (center,
    window points) plus the four circular-segment corrections, computed
    exactly after the unimodular map of the ellipse onto an equal-area
    circle.
    """
    a, b, c = coef[:, 0], coef[:, 1], coef[:, 2]
    sgn = np.where(a + c > 0, 1.0, -1.0)
    rho = sgn * (-F / S)
    fine = np.zeros(len(coef), dtype=bool)
    e = np.flatnonzero(rho > 0.0)
    if len(e) == 0:
        return rho, fine
    quad = sgn[e, None, None] * coef[e][:, [[0, 1], [1, 2]]]
    evals, evecs = np.linalg.eigh(quad)
    radius = np.sqrt(rho[e] / np.sqrt(S[e]))
    scale = radius / np.sqrt(rho[e])
    rel = win[e] - center[e, None]
    # a column swap keeps the circle map orientation-preserving; the swapped
    # eigenvectors are a reversed-stride view, multiplied without BLAS as before
    swap = np.linalg.det(evecs) < 0
    mapped = np.empty_like(rel)
    mapped[~swap] = rel[~swap] @ evecs[~swap]
    mapped[swap] = rel[swap] @ evecs[swap][:, :, ::-1]
    evals[swap] = evals[swap][:, ::-1]
    u = scale[:, None, None] * mapped * np.sqrt(evals)[:, None, :]
    theta = np.arctan2(u[..., 1], u[..., 0])
    polygon = np.concatenate([center[e, None], win[e]], axis=1)
    px, py = polygon[..., 0], polygon[..., 1]
    dots = [(s[:, None, :] @ np.roll(t, -1, axis=1)[:, :, None])[:, 0, 0] for s, t in ((px, py), (py, px))]
    sh = 0.5 * (dots[0] - dots[1])
    step = np.diff(theta, axis=1)
    delta = np.mod(np.where((sh >= 0)[:, None], step, -step), 2.0 * np.pi)
    seg = (0.5 * _pow(radius, 2.0))[:, None] * (delta - np.sin(delta))
    sector = np.abs(sh) + (seg[:, 0] + seg[:, 1] + seg[:, 2] + seg[:, 3])
    fine[e] = _ellipse_areas(S[e], F[e]) >= sector * (1.0 - 1e-9)
    return rho, fine


def _gap_bounds(coef: np.ndarray, S: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Branch-separation bounds 2*sqrt(-F / (lambda1^2 S)) of an (m, 6) stack.

    Returns (undefined, radicand, mu): undefined marks rows where the
    quotient divides by zero. The bound is evaluated in the coefficient
    scale where the larger-magnitude characteristic root lambda1 of
    t^2 - (A+C) t + S = 0 (ties toward the larger value) has unit magnitude.
    """
    tr = coef[:, 0] + coef[:, 2]
    disc = tr * tr - 4.0 * S
    root = np.sqrt(np.where(0.0 > disc, 0.0, disc))
    r1, r2 = (tr + root) / 2.0, (tr - root) / 2.0
    lam = np.where(np.abs(r1) > np.abs(r2), r1, np.where(np.abs(r2) > np.abs(r1), r2, np.where(r2 > r1, r2, r1)))
    su, fu = _invariants(coef * (1.0 / np.abs(lam))[:, None])
    radicand = -fu / su
    return (lam == 0.0) | (su == 0.0), radicand, 2.0 * np.sqrt(radicand)


class _Block:
    """The equiaffine arrays of one mesh; row i belongs to the window centered at p[i].

    Rows without a window (the two ends of an open mesh) or with a
    degenerate fit hold NaN; `fit_errors` maps the degenerate rows to
    fit_conic's message.
    """

    __slots__ = (
        "has_window", "fit_errors", "fitted", "coef", "S", "F", "kappa", "zero_f", "center",
        "parabolic", "zero_den", "para_scale", "para_ratio", "kappa_ok", "arc_ok", "arcs",
        "rho", "fine_area", "gap_undefined", "radicand", "mu", "position", "affine_fine",
    )

    def __init__(self, mesh: Mesh):
        n, tol = mesh.n, PARABOLIC_TOL
        centers = np.arange(n) if mesh.closed else np.arange(FIT_HALF_WIDTH, n - FIT_HALF_WIDTH)
        win = mesh.points[(centers[:, None] + _FIT_OFFSETS) % n]
        coef, errors = _fit(win)
        self.has_window = np.zeros(n, dtype=bool)
        self.has_window[centers] = True
        self.fit_errors = {int(centers[r]): msg for r, msg in errors.items()}
        ok = np.ones(len(centers), dtype=bool)
        ok[list(errors)] = False
        rows, coef, win = centers[ok], coef[ok], win[ok]
        self.fitted = np.zeros(n, dtype=bool)
        self.fitted[rows] = True

        def full(values, fill=np.nan):
            out = np.full((n,) + values.shape[1:], fill, dtype=values.dtype)
            out[rows] = values
            return out

        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            S, F = _invariants(coef)
            kappa = _kappa(S, F)
            center = _centers(coef, S)
            a, b, d, e = coef[:, 0], coef[:, 1], coef[:, 3], coef[:, 4]
            denom = a * e - b * d
            norm = row_norms(coef)
            self.coef, self.S, self.F, self.kappa, self.center = full(coef), full(S), full(F), full(kappa), full(center)
            self.zero_f = full(np.abs(F) <= ZERO_F_TOL, False)
            self.parabolic = full(~(np.abs(S) > tol), False)
            self.zero_den = full((np.abs(a) <= 1e-12 * norm) | (np.abs(denom) <= 1e-12 * norm * norm), False)
            self.para_scale = full(np.cbrt(a * a / denom))
            self.para_ratio = full(b / a)
            self.kappa_ok = self.fitted & ~self.zero_f
            self.arc_ok = self.fitted & np.where(self.parabolic, ~self.zero_den, ~self.zero_f)
            self.arcs = full(_arcs(self, rows, win[:, :-1], win[:, 1:]))

            elliptic = self.kappa_ok[rows] & (kappa > tol) & (S > tol)
            rho, fine = np.full(len(rows), np.nan), np.zeros(len(rows), dtype=bool)
            if elliptic.any():
                rho[elliptic], fine[elliptic] = _fine_areas(
                    coef[elliptic], S[elliptic], F[elliptic], center[elliptic], win[elliptic]
                )
            self.rho, self.fine_area = full(rho), full(fine, False)
            undefined, radicand, mu = _gap_bounds(coef, S)
            gaps = np.sqrt((np.diff(win, axis=1) ** 2).sum(axis=2))
            self.gap_undefined = full(undefined, False)
            self.radicand, self.mu = full(radicand), full(mu)
            self.position = full((gaps < mu[:, None]).all(axis=1), False)
            # is_affine_fine's condition per window: fine-area where the curvature
            # is positive, fine-position (a non-real bound failing) where negative
            k = self.kappa
            in_position = ~self.gap_undefined & (self.radicand >= 0.0) & self.position
            self.affine_fine = self.kappa_ok & np.where(
                k > tol, (self.rho > 0.0) & self.fine_area, np.where(k < -tol, in_position, True)
            )


def _arcs(blk: _Block, rows: np.ndarray, pk: np.ndarray, pl: np.ndarray) -> np.ndarray:
    """Arc lengths from pk[r, j] to pl[r, j] on the conic of block row rows[r].

    pk and pl are (m, k, 2). Nonzero-curvature conics use the center
    parallelogram area; parabolic conics use the signed linear element.
    Values on rows whose arc length raises (see `_arc_row`) are meaningless.
    """
    # the branch not taken may multiply inf by 0 (an infinite center or parabolic factor)
    with np.errstate(invalid="ignore", over="ignore"):
        d, e = pk - pl, pk - blk.center[rows, None]
        cross = d[..., 0] * e[..., 1] - d[..., 1] * e[..., 0]
        linear = blk.para_scale[rows, None] * (d[..., 0] + blk.para_ratio[rows, None] * d[..., 1])
        return np.where(blk.parabolic[rows, None], linear, np.abs(blk.kappa[rows, None] * cross))


def _block(mesh: Mesh) -> _Block:
    """The mesh's equiaffine block, built on first use.

    The block is written once; concurrent first uses may each build one,
    but every build is identical, so whichever is kept is the same.
    """
    blk = mesh._affine
    if blk is None:
        blk = mesh._affine = _Block(mesh)
    return blk


def _fit_window(mesh: Mesh, i: int) -> np.ndarray:
    return np.array([mesh.p(i, off) for off in range(-FIT_HALF_WIDTH, FIT_HALF_WIDTH + 1)])


def _row(mesh: Mesh, i: int) -> tuple[_Block, int]:
    """Block and row of the conic at p[i]; raises what fitting that window raises."""
    i = mesh.resolve(i)
    blk = _block(mesh)
    if not blk.has_window[i]:
        _fit_window(mesh, i)  # the window reaches past an end: IndexOutOfRange
    if i in blk.fit_errors:
        raise DegenerateConfiguration(blk.fit_errors[i])
    return blk, i


def _zero_f(blk: _Block, i: int) -> ZeroF:
    return ZeroF(f"cubic invariant {float(blk.F[i])!r} too small: degenerate conic")


def _kappa_row(mesh: Mesh, i: int) -> tuple[_Block, int]:
    blk, i = _row(mesh, i)
    if blk.zero_f[i]:
        raise _zero_f(blk, i)
    return blk, i


def _arc_row(mesh: Mesh, i: int) -> tuple[_Block, int]:
    blk, i = _row(mesh, i)
    if blk.parabolic[i] and blk.zero_den[i]:
        raise ZeroDenominator("parabolic arc length: A or AE - BD vanishes")
    if not blk.parabolic[i] and blk.zero_f[i]:
        raise _zero_f(blk, i)
    return blk, i


def _span(r: range) -> np.ndarray:
    return np.arange(r.start, r.stop)


# ---------------------------------------------------------------------------
# Per-conic and per-index views
# ---------------------------------------------------------------------------

def fit_conic(points) -> ConicCoeffs:
    """Unique conic through five points via null-space extraction.

    Parameters
    ----------
    points : array-like (5, 2)
        Five distinct points, no three collinear.

    Returns
    -------
    ConicCoeffs
        Unit-norm, sign-normalized coefficients; every input point has
        residual below ``RESIDUAL_TOL`` at unit design-row scale.

    Raises
    ------
    DegenerateConfiguration
        Coincident points, a collinear triple, or a design matrix of
        rank < 5.
    """
    pts = np.asarray(points, dtype=float)
    if pts.shape != (5, 2):
        raise DegenerateConfiguration(f"conic fit needs exactly 5 points, got {pts.shape}")
    coef, errors = _fit(pts[None])
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
    blk, i = _kappa_row(mesh, i)
    return float(blk.kappa[i])


def interior_curvatures(mesh: Mesh) -> np.ndarray:
    """Curvature at every center of ``affine_fine_interior(mesh)``, as one array.

    Equal bit for bit to :func:`affine_curvature` at each center; raises
    what the first failing center raises.
    """
    blk, rows = _block(mesh), _span(affine_fine_interior(mesh))
    for i in rows[~blk.kappa_ok[rows]].tolist():
        affine_curvature(mesh, i)
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
    """Arc length between p[k] and p[l] measured by the conic fitted at `at`.

    Nonzero-curvature conics use the center parallelogram area; parabolic
    conics use the signed linear element (consumers take abs when a length
    is required). Both endpoints must lie in the five-neighborhood of `at`.
    """
    _check_arc_offset(mesh, at, k)
    _check_arc_offset(mesh, at, l)
    at = _row(mesh, at)[1]
    pk, pl = mesh.p(k), mesh.p(l)
    blk, at = _arc_row(mesh, at)
    return float(_arcs(blk, np.array([at]), pk[None, None], pl[None, None])[0, 0])


def arc_length_set(mesh: Mesh, i: int) -> ArcLengthSet:
    """The four consecutive arc lengths of the two-neighborhood of p[i]."""
    blk, i = _arc_row(mesh, i)
    return ArcLengthSet(at=i, values=tuple(blk.arcs[i].tolist()))


def interior_arc_length_sets(mesh: Mesh) -> tuple[np.ndarray, np.ndarray]:
    """(values, ok): the arc-length set of every center of ``affine_fine_interior``.

    values is (k, 4) and equals :func:`arc_length_set` bit for bit on the
    rows where ok is True; arc_length_set raises at the other rows.
    """
    blk, rows = _block(mesh), _span(affine_fine_interior(mesh))
    return blk.arcs[rows], blk.arc_ok[rows]


def sd_affine(mesh: Mesh, i: int) -> SigDirection:
    """Traversal orientation of the two-neighborhood on its fitted conic.

    All four consecutive turns must share a sign; a zero or mixed-sign turn
    means the window is not in convex position.
    """
    window = _fit_window(mesh, i)
    scale = mesh.diameter
    signs = set()
    for j in range(3):
        o = orient(window[j], window[j + 1], window[j + 2])
        if abs(o) <= 1e-12 * scale ** 2:
            raise DegenerateConfiguration(f"collinear turn in the two-neighborhood of {i}")
        signs.add(1 if o > 0 else -1)
    if len(signs) > 1:
        raise DegenerateConfiguration(f"two-neighborhood of {i} is not in convex position")
    return SigDirection.SD if signs.pop() > 0 else SigDirection.NOT_SD


def ellipse_area(c: ConicCoeffs) -> float:
    """Area pi * |F| / S^(3/2) of an elliptic conic."""
    inv = invariants(c)
    if inv.S <= PARABOLIC_TOL:
        raise WrongCurvatureSign("area defined for elliptic conics only")
    return float(_ellipse_areas(np.array([inv.S]), np.array([inv.F]))[0])


def has_fine_area(mesh: Mesh, i: int) -> bool:
    """Ellipse-side fineness: the fitted ellipse contains the swept sector.

    The sector is the shoelace area of (center, window points) plus the four
    circular-segment corrections computed exactly after the unimodular map
    of the ellipse onto an equal-area circle.
    """
    blk, i = _kappa_row(mesh, i)
    kappa = float(blk.kappa[i])
    if kappa <= PARABOLIC_TOL:
        raise WrongCurvatureSign(f"fine-area needs positive curvature, got {kappa!r}")
    if blk.S[i] <= PARABOLIC_TOL:
        raise WrongCurvatureSign("approximating conic is not an ellipse")
    if blk.rho[i] <= 0.0:
        raise DegenerateConfiguration("imaginary ellipse from conic fit")
    return blk.fine_area[i]


def hyperbola_gap_bound(mesh: Mesh, i: int) -> float:
    """Branch-separation bound 2*sqrt(-F / (lambda1^2 S)) at p[i].

    The quotient is not invariant under coefficient rescaling, so it is
    evaluated in the scale where the larger characteristic root has unit
    magnitude; there it is scale-free and equals twice the transverse
    semi-axis of the approximating hyperbola.
    """
    blk, w = _row(mesh, i)
    if blk.gap_undefined[w]:
        raise ZeroDivisionError("float division by zero")
    radicand = float(blk.radicand[w])
    if radicand < 0.0:
        raise NonRealMu(f"gap bound radicand {radicand!r} negative at index {i}")
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


def _window_is_fine(mesh: Mesh, i: int) -> bool:
    # is_affine_fine's condition at one window, raising as it raises
    kappa = affine_curvature(mesh, i)
    if kappa > PARABOLIC_TOL:
        return has_fine_area(mesh, i)
    if kappa < -PARABOLIC_TOL:
        try:
            return in_fine_position(mesh, i)
        except NonRealMu:
            return False
    return True


def is_affine_fine(mesh: Mesh) -> bool:
    """Fine-area at every elliptic point, fine-position at every hyperbolic one.

    Parabolic points (curvature within the parabolic band) carry no
    condition. A non-real gap bound counts as not fine.
    """
    blk, rows = _block(mesh), _span(affine_fine_interior(mesh))
    # only flagged windows are evaluated one by one, in index order, so the
    # first of them decides: it returns False or raises
    return all(_window_is_fine(mesh, i) for i in rows[~blk.affine_fine[rows]].tolist())


def _sa_offsets(scheme: Scheme) -> tuple[int, int, tuple[int, int]]:
    """(min, max) window offsets and the arc-length endpoint offsets."""
    arc = {
        Scheme.EQ5: (0, 1),
        Scheme.EQ6: (-1, 1),
        Scheme.EQ7: (-2, 3),
        Scheme.EQ8: (-5, 5),
    }[scheme]
    kappa_centers = (-1, 0, 1) if scheme.centered else (0, 1)
    lo = min(min(c - FIT_HALF_WIDTH for c in kappa_centers), arc[0])
    hi = max(max(c + FIT_HALF_WIDTH for c in kappa_centers), arc[1])
    return lo, hi, arc


def sa_scheme_indices(mesh: Mesh, scheme: Scheme) -> range:
    if mesh.closed:
        return range(mesh.n)
    lo, hi, _ = _sa_offsets(scheme)
    return range(max(0, -lo), mesh.n - hi)


def consecutive_arc_lengths(mesh: Mesh, indices=None) -> np.ndarray:
    """L[i] = arc length from p[i] to p[i+1], each from the conic at p[i]."""
    if indices is None:
        indices = mesh.interior(FIT_HALF_WIDTH, FIT_HALF_WIDTH + 1)
    idx = np.array(list(indices), dtype=int)
    blk, n = _block(mesh), mesh.n
    rows = idx % n
    ok = blk.arc_ok[rows] & (mesh.closed | ((idx >= 0) & (idx < n)))
    for i in idx[~ok].tolist():
        affine_arc_length(mesh, i, i, mesh.resolve(i, 1))
    pts = mesh.points
    return _arcs(blk, rows, pts[rows, None], pts[(rows + 1) % n, None])[:, 0]


def _signature_row(mesh: Mesh, scheme: Scheme, i: int) -> None:
    # the reads of sa_signature's row i in their order, raising as they raise
    _, _, (arc_lo, arc_hi) = _sa_offsets(scheme)
    affine_curvature(mesh, i + 1)
    affine_curvature(mesh, i - 1 if scheme.centered else i)
    denom = affine_arc_length(mesh, i, mesh.resolve(i, arc_lo), mesh.resolve(i, arc_hi))
    if abs(denom) <= 1e-15:
        raise DegenerateStencil(f"{scheme.label} arc length at index {i} vanishes")
    affine_curvature(mesh, i)


def sa_signature(
    mesh: Mesh,
    scheme: Scheme,
    spacing: str = "affine",
    spacing_tol: float = AFFINE_SPACING_REL_TOL,
) -> Signature:
    """The SA-signature of a convex ordinary mesh under one of schemes 5-8.

    EQ5/EQ6 require equal spacing, by consecutive arc lengths by default
    (`spacing="euclidean"` switches to Euclidean edge lengths). EQ7/EQ8
    measure their long arc lengths with the conic fitted at the row's
    center point; the signature metadata flags that extrapolation.
    """
    if scheme.value <= 4:
        raise ValueError(f"{scheme} is a Euclidean scheme; use se_signature")
    if not is_ordinary(mesh):
        raise NotOrdinary("signature of a mesh with a cusp")
    if not is_convex(mesh):
        raise NotConvex("equiaffine signature requires a convex mesh")
    if scheme.needs_equal_spacing:
        if spacing == "euclidean":
            if not is_equally_spaced(mesh):
                raise SchemeSpacingMismatch(f"{scheme.label}: mesh not equally spaced (euclidean)")
        else:
            arcs = consecutive_arc_lengths(mesh)
            if len(arcs) == 0:
                raise MeshTooShort(f"no arc lengths computable on a {mesh.n}-point mesh")
            spread = float(np.abs(arcs).max() - np.abs(arcs).min())
            if spread > spacing_tol * float(np.abs(arcs).max()):
                worst = int(np.argmax(np.abs(np.abs(arcs) - np.abs(arcs).mean())))
                raise SchemeSpacingMismatch(
                    f"{scheme.label} requires equal arc lengths; arc {worst} deviates"
                )
    indices = sa_scheme_indices(mesh, scheme)
    if len(indices) == 0:
        raise MeshTooShort(f"no valid {scheme.label} stencil on a {mesh.n}-point open mesh")
    blk, n, pts = _block(mesh), mesh.n, mesh.points
    rows = _span(indices)
    hi, lo = (rows + 1) % n, (rows - int(scheme.centered)) % n
    _, _, (arc_lo, arc_hi) = _sa_offsets(scheme)
    denom = _arcs(blk, rows, pts[(rows + arc_lo) % n, None], pts[(rows + arc_hi) % n, None])[:, 0]
    ok = blk.kappa_ok[hi] & blk.kappa_ok[lo] & blk.kappa_ok[rows] & blk.arc_ok[rows] & (np.abs(denom) > 1e-15)
    for i in rows[~ok].tolist():
        _signature_row(mesh, scheme, i)
    kappa = blk.kappa
    kappa_s = scheme.factor * (kappa[hi] - kappa[lo]) / denom
    rows_out = list(map(SignaturePoint, rows.tolist(), kappa[rows].tolist(), kappa_s.tolist()))
    meta = {}
    if scheme in (Scheme.EQ7, Scheme.EQ8):
        meta["arc_length_extrapolation"] = (
            "long-span arc lengths evaluated with the conic fitted at the row's center point"
        )
    return Signature(rows_out, scheme, NeighborhoodSpec(FIT_HALF_WIDTH, FIT_HALF_WIDTH), meta=meta)
