"""Planar primitives: meshes, group motions, orientation and angle predicates.

All indices are 0-based. Closed meshes wrap neighbor indices mod n; open
meshes restrict every operation to indices where the needed neighborhood
exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import (
    CollinearPoints,
    DegenerateArm,
    IndexOutOfRange,
    InvalidGroupElement,
    InvalidMesh,
    OutOfDomain,
)

# Degeneracy scale: a triple counts as collinear when the 2d cross product of
# its arms is at most COLLINEARITY_REL_TOL * diameter**2.
COLLINEARITY_REL_TOL = 1e-9
# Half-width of the "right angle" classification band, radians.
RIGHT_ANGLE_TOL = 1e-7
# Relative spread tolerated by the equal-spacing predicate.
SPACING_REL_TOL = 1e-6
# Group-membership tolerance for motion matrices.
GROUP_TOL = 1e-12


class Point2(NamedTuple):
    x: float
    y: float


class Group(Enum):
    """Transformation groups acting on the plane."""

    SE = "se"      # rotations + translations
    E = "e"        # SE plus reflections
    SA = "sa"      # unimodular (det = +1) linear maps + translations
    ABAR = "abar"  # SA plus orientation-reversing (det = -1) maps

    @classmethod
    def from_string(cls, name: str) -> "Group":
        try:
            return cls(name.lower())
        except ValueError:
            raise ValueError(f"unknown group {name!r}; expected se, e, sa or abar") from None


class AngleType(Enum):
    ACUTE = "acute"
    RIGHT = "right"
    OBTUSE = "obtuse"


class SigDirection(Enum):
    SD = "sd"
    NOT_SD = "not-sd"
    UNDEFINED = "undefined"


class SignedAngleType(NamedTuple):
    sign: int
    kind: AngleType


@dataclass(frozen=True)
class NeighborhoodSpec:
    """Stencil (m1, m2): the triple p[i-m1], p[i], p[i+m2]."""

    m1: int = 1
    m2: int = 1

    def __post_init__(self) -> None:
        if self.m1 < 1 or self.m2 < 1:
            raise ValueError("neighborhood offsets must be >= 1")


SPEC11 = NeighborhoodSpec(1, 1)


def cross2(u: np.ndarray, v: np.ndarray) -> float:
    """z-component of the 2d cross product u x v."""
    return float(u[0] * v[1] - u[1] * v[0])


def orient(p, q, r) -> float:
    """Twice the signed area of triangle (p, q, r); positive for ccw."""
    return float((q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0]))


def _as_points(points) -> np.ndarray:
    # a private copy, so that freezing it never touches the caller's array
    arr = np.array(points, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise InvalidMesh(f"expected an (n, 2) point array, got shape {arr.shape}")
    return arr


def row_norms(d: np.ndarray) -> np.ndarray:
    """Length of each row of a (k, d) array, rounded as ``np.linalg.norm`` rounds one row.

    ``np.linalg.norm`` of a vector is ``sqrt(dot(v, v))`` through BLAS,
    which can round differently from ``sqrt(dx*dx + dy*dy)``; the stacked
    matmul takes the same dot product for every row at once.
    """
    return np.sqrt((d[:, None, :] @ d[:, :, None]).ravel())


def orient_rows(p: np.ndarray, q: np.ndarray, r: np.ndarray) -> np.ndarray:
    """:func:`orient` of the triples (p[k], q[k], r[k]) of three (k, 2) arrays, bit for bit."""
    return (q[:, 0] - p[:, 0]) * (r[:, 1] - p[:, 1]) - (q[:, 1] - p[:, 1]) * (r[:, 0] - p[:, 0])


def _pointset_diameter(pts: np.ndarray) -> float:
    """Largest pairwise distance of the points, in O(n log n) time and O(n) memory.

    Equal bit for bit to the dense ``sqrt(((pts[:, None] - pts[None]) ** 2).sum(2)).max()``:
    the farthest pair is an antipodal pair of the convex hull, so rotating
    calipers visit it, and the maximum is taken over squared distances
    rounded as the dense form rounds them. Each antipodal vertex is checked
    with its two hull neighbours, so that near-ties between parallel edges
    (regular polygons, circles) cannot skip the maximum.
    """
    hull = _convex_hull(pts)
    h = len(hull)

    def dist2(a, b):
        dx = a[0] - b[0]
        dy = a[1] - b[1]
        return dx * dx + dy * dy

    if h < 3:
        return math.sqrt(dist2(hull[0], hull[-1]))
    best = 0.0
    j = 1
    for i in range(h):
        a, b = hull[i], hull[(i + 1) % h]
        # advance j to the hull vertex farthest from the line through edge (a, b)
        while orient(a, b, hull[(j + 1) % h]) > orient(a, b, hull[j]):
            j = (j + 1) % h
        for k in (j - 1, j, (j + 1) % h):
            best = max(best, dist2(a, hull[k]), dist2(b, hull[k]))
    return math.sqrt(best)


def _convex_hull(pts: np.ndarray) -> list:
    """Counterclockwise hull vertices as [x, y] lists, by Andrew's monotone chain.

    Collinear and repeated points are dropped; all-collinear input gives its
    two extreme points.
    """
    sorted_pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))].tolist()

    def half(points):
        chain: list = []
        for p in points:
            while len(chain) >= 2 and orient(chain[-2], chain[-1], p) <= 0:
                chain.pop()
            chain.append(p)
        return chain

    lower = half(sorted_pts)
    upper = half(reversed(sorted_pts))
    return lower[:-1] + upper[:-1]


class Mesh:
    """Ordered planar point sequence with an open/closed flag.

    Construction rejects non-finite coordinates, fewer than three points and
    successive duplicates (closer than ``COLLINEARITY_REL_TOL * diameter``,
    including the wrap edge of closed meshes). Cusps are permitted at
    construction and reported by :func:`is_ordinary`. The points are copied
    and frozen; the caller's array is left as it was.
    """

    __slots__ = ("_points", "closed", "label", "_diameter", "_affine")

    def __init__(self, points, closed: bool = False, label: str = ""):
        pts = _as_points(points)
        if len(pts) < 3:
            raise InvalidMesh(f"mesh needs at least 3 points, got {len(pts)}")
        if not np.isfinite(pts).all():
            bad = int(np.argwhere(~np.isfinite(pts).all(axis=1))[0][0])
            raise InvalidMesh(f"non-finite coordinates at point {bad}")
        diameter = _pointset_diameter(pts)
        if diameter == 0.0:
            raise InvalidMesh("all points coincide")
        edges = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        if closed:
            edges = np.append(edges, np.linalg.norm(pts[0] - pts[-1]))
        too_close = np.nonzero(edges <= COLLINEARITY_REL_TOL * diameter)[0]
        if len(too_close):
            i = int(too_close[0])
            raise InvalidMesh(f"successive points {i} and {(i + 1) % len(pts)} coincide")
        pts.setflags(write=False)
        self._points = pts
        self.closed = bool(closed)
        self.label = label
        self._diameter = diameter
        self._affine = None  # equiaffine block, built by the affine module on first use

    @property
    def points(self) -> np.ndarray:
        return self._points

    @property
    def n(self) -> int:
        return len(self._points)

    @property
    def diameter(self) -> float:
        return self._diameter

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        kind = "closed" if self.closed else "open"
        tag = f" {self.label!r}" if self.label else ""
        return f"<Mesh{tag} {kind} n={self.n}>"

    def resolve(self, i: int, offset: int = 0) -> int:
        """Index of the point `offset` steps away from i, wrapping when closed."""
        j = i + offset
        if self.closed:
            return j % self.n
        if 0 <= j < self.n:
            return j
        raise IndexOutOfRange(f"index {j} outside open mesh of {self.n} points")

    def p(self, i: int, offset: int = 0) -> np.ndarray:
        return self._points[self.resolve(i, offset)]

    def point(self, i: int) -> Point2:
        x, y = self._points[self.resolve(i)]
        return Point2(float(x), float(y))

    def interior(self, m1: int = 1, m2: int = 1) -> range:
        """Center indices whose (m1, m2)-neighborhood exists."""
        if self.closed:
            return range(self.n)
        return range(m1, self.n - m2)

    def with_points(self, points, label: str | None = None) -> "Mesh":
        return Mesh(points, closed=self.closed, label=self.label if label is None else label)


def edge_lengths(mesh: Mesh) -> np.ndarray:
    """Consecutive edge lengths, including the wrap edge of a closed mesh."""
    pts = mesh.points
    edges = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    if mesh.closed:
        edges = np.append(edges, np.linalg.norm(pts[0] - pts[-1]))
    return edges


class GroupElement:
    """A planar motion: x -> linear @ x + translation, tagged with its group.

    The linear part is validated against the group invariant on construction
    (orthogonality for SE/E, unit |determinant| for SA/ABAR, within
    ``GROUP_TOL``).
    """

    __slots__ = ("linear", "translation", "group")

    def __init__(self, linear, translation, group: Group):
        lin = np.asarray(linear, dtype=float).reshape(2, 2).copy()
        tr = np.asarray(translation, dtype=float).reshape(2).copy()
        self.linear = lin
        self.translation = tr
        self.group = group
        self.check()
        lin.setflags(write=False)
        tr.setflags(write=False)

    def check(self) -> None:
        lin = self.linear
        if not (np.isfinite(lin).all() and np.isfinite(self.translation).all()):
            raise InvalidGroupElement("non-finite motion entries")
        det = float(np.linalg.det(lin))
        if self.group in (Group.SE, Group.E):
            ortho = np.abs(lin.T @ lin - np.eye(2)).max()
            if ortho > GROUP_TOL:
                raise InvalidGroupElement(f"linear part not orthogonal (defect {ortho:.3e})")
            if self.group is Group.SE and abs(det - 1.0) > GROUP_TOL:
                raise InvalidGroupElement(f"SE element must have det +1, got {det!r}")
            if self.group is Group.E and abs(abs(det) - 1.0) > GROUP_TOL:
                raise InvalidGroupElement(f"E element must have det +-1, got {det!r}")
        elif self.group is Group.SA:
            if abs(det - 1.0) > GROUP_TOL:
                raise InvalidGroupElement(f"SA element must have det +1, got {det!r}")
        else:
            if abs(abs(det) - 1.0) > GROUP_TOL:
                raise InvalidGroupElement(f"Abar element must have det +-1, got {det!r}")

    @classmethod
    def identity(cls, group: Group = Group.SE) -> "GroupElement":
        return cls(np.eye(2), np.zeros(2), group)

    @classmethod
    def rotation(cls, theta: float, translation=(0.0, 0.0), group: Group = Group.SE) -> "GroupElement":
        c, s = np.cos(theta), np.sin(theta)
        return cls([[c, -s], [s, c]], translation, group)

    @property
    def det(self) -> float:
        return float(np.linalg.det(self.linear))

    def apply(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        return pts @ self.linear.T + self.translation

    def inverse(self) -> "GroupElement":
        if self.group in (Group.SE, Group.E):
            inv = self.linear.T
        else:
            a, b = self.linear[0]
            c, d = self.linear[1]
            inv = np.array([[d, -b], [-c, a]]) / self.det
        return GroupElement(inv, -inv @ self.translation, self.group)

    def __repr__(self) -> str:
        return f"GroupElement({self.linear.tolist()}, {self.translation.tolist()}, {self.group})"


def apply_motion(g: GroupElement, mesh: Mesh) -> Mesh:
    """Pointwise image of the mesh under g, preserving order and closedness."""
    g.check()
    return Mesh(g.apply(mesh.points), closed=mesh.closed, label=mesh.label)


def random_motion(group: Group, seed) -> GroupElement:
    """Deterministic random element of the group.

    Rotation angles are uniform on [0, 2pi), translations uniform in
    [-10, 10]^2; unimodular parts use a bounded shear/scale decomposition
    (condition number <= ~10).
    """
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, 2.0 * np.pi)
    c, s = np.cos(theta), np.sin(theta)
    rot = np.array([[c, -s], [s, c]])
    translation = rng.uniform(-10.0, 10.0, size=2)
    if group is Group.SE:
        linear = rot
    elif group is Group.E:
        linear = rot.copy()
        if rng.integers(0, 2):
            linear = linear @ np.diag([1.0, -1.0])
    elif group in (Group.SA, Group.ABAR):
        phi = rng.uniform(0.0, 2.0 * np.pi)
        c2, s2 = np.cos(phi), np.sin(phi)
        rot2 = np.array([[c2, -s2], [s2, c2]])
        scale = np.exp(rng.uniform(-1.15, 1.15))
        linear = rot @ np.diag([scale, 1.0 / scale]) @ rot2
        # renormalize rounding drift so det is unimodular to machine precision
        linear /= np.sqrt(abs(np.linalg.det(linear)))
        if group is Group.ABAR and rng.integers(0, 2):
            linear = linear @ np.diag([1.0, -1.0])
    else:
        raise ValueError(f"unknown group {group!r}")
    return GroupElement(linear, translation, group)


def _triple(mesh: Mesh, i: int, spec: NeighborhoodSpec):
    return mesh.p(i, -spec.m1), mesh.p(i), mesh.p(i, spec.m2)


def signature_sign(mesh: Mesh, i: int, spec: NeighborhoodSpec = SPEC11) -> int:
    """Sign of (p[i+m2]-p[i]) x (p[i-m1]-p[i]); 0 when collinear.

    +1 means the triple (p[i-m1], p[i], p[i+m2]) is in counterclockwise
    order. The collinearity band scales with the squared mesh diameter.
    """
    prev_pt, mid, nxt = _triple(mesh, i, spec)
    c = cross2(nxt - mid, prev_pt - mid)
    if abs(c) <= COLLINEARITY_REL_TOL * mesh.diameter ** 2:
        return 0
    return 1 if c > 0 else -1


def signature_direction(mesh: Mesh, i: int, spec: NeighborhoodSpec = SPEC11) -> SigDirection:
    """Counterclockwise (SD) / clockwise (NotSD) orientation of the triple."""
    ss = signature_sign(mesh, i, spec)
    if ss > 0:
        return SigDirection.SD
    if ss < 0:
        return SigDirection.NOT_SD
    return SigDirection.UNDEFINED


def angle(mesh: Mesh, i: int, spec: NeighborhoodSpec = SPEC11) -> float:
    """Unsigned vertex angle at p[i] between the arms of its (m1, m2)-triple."""
    prev_pt, mid, nxt = _triple(mesh, i, spec)
    u = prev_pt - mid
    v = nxt - mid
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise DegenerateArm(f"zero-length angle arm at index {i}")
    return float(np.arctan2(abs(cross2(u, v)), float(u @ v)))


def signed_angle(mesh: Mesh, i: int, spec: NeighborhoodSpec = SPEC11) -> float:
    """Signature-sign times the unsigned angle, on the same (m1, m2)-triple."""
    return signature_sign(mesh, i, spec) * angle(mesh, i, spec)


def angle_type(theta: float, tol: float = RIGHT_ANGLE_TOL) -> AngleType:
    """Classify an angle in (0, pi) as acute, right or obtuse.

    Right means within ``tol`` radians of pi/2.
    """
    if not 0.0 < theta < np.pi:
        raise OutOfDomain(f"angle {theta!r} outside (0, pi)")
    half = np.pi / 2.0
    if abs(theta - half) <= tol:
        return AngleType.RIGHT
    return AngleType.ACUTE if theta < half else AngleType.OBTUSE


def signed_angle_type(
    mesh: Mesh, i: int, spec: NeighborhoodSpec = SPEC11, tol: float = RIGHT_ANGLE_TOL
) -> SignedAngleType:
    """Classification of |signed angle| with the signature sign kept as a flag."""
    ss = signature_sign(mesh, i, spec)
    theta = angle(mesh, i, spec)
    if ss == 0:
        raise OutOfDomain(f"signed angle undefined on collinear triple at index {i}")
    return SignedAngleType(ss, angle_type(theta, tol))


def is_equally_spaced(mesh: Mesh, rel_tol: float = SPACING_REL_TOL) -> bool:
    """True when all edges (wrap edge included for closed meshes) agree."""
    edges = edge_lengths(mesh)
    return float(edges.max() - edges.min()) <= rel_tol * float(edges.max())


def is_ordinary(mesh: Mesh) -> bool:
    """True when the mesh has no cusp (p[i+1] never returns onto p[i-1])."""
    pts = mesh.points
    if mesh.closed:
        spans = np.roll(pts, -1, axis=0) - np.roll(pts, 1, axis=0)
    else:
        spans = pts[2:] - pts[:-2]
    return not (row_norms(spans) <= COLLINEARITY_REL_TOL * mesh.diameter).any()


def neighbor_triples(mesh: Mesh, centers: range) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(p[i-1], p[i], p[i+1]) for every center i of a range, as three (k, 2) arrays."""
    c, pts, n = np.arange(centers.start, centers.stop), mesh.points, mesh.n
    return pts[(c - 1) % n], pts[c], pts[(c + 1) % n]


def _vertex_angles(prev: np.ndarray, mid: np.ndarray, nxt: np.ndarray) -> np.ndarray:
    # angle() of each triple, in its operation order; 0 where an arm has zero length
    u, v = prev - mid, nxt - mid
    return np.arctan2(np.abs(orient_rows(mid, prev, nxt)), (u[:, None, :] @ v[:, :, None]).ravel())


def is_convex(mesh: Mesh) -> bool:
    """Consistent nonzero turning at every interior point.

    Closed meshes must additionally wind exactly once (total turning
    +-2pi), which rules out multiply-wound star traversals.
    """
    prev, mid, nxt = neighbor_triples(mesh, mesh.interior())
    cross = orient_rows(mid, nxt, prev)
    signs = np.where(np.abs(cross) <= COLLINEARITY_REL_TOL * mesh.diameter ** 2, 0, np.where(cross > 0, 1, -1))
    if (signs == 0).any() or (signs != signs[0]).any():
        return False
    if mesh.closed:
        # summed in index order as Python floats, as a per-index loop sums them
        turning = sum((signs * (np.pi - _vertex_angles(prev, mid, nxt))).tolist())
        if abs(abs(turning) - 2.0 * np.pi) > 1e-6:
            return False
    return True


def is_fine(mesh: Mesh, tol: float = RIGHT_ANGLE_TOL) -> bool:
    """True when every interior vertex angle is obtuse."""
    theta = _vertex_angles(*neighbor_triples(mesh, mesh.interior()))
    half = np.pi / 2.0
    # angle_type's tests: inside (0, pi), outside the right-angle band, not acute
    obtuse = (0.0 < theta) & (theta < np.pi) & ~(np.abs(theta - half) <= tol) & ~(theta < half)
    bad = np.flatnonzero(~obtuse)
    if len(bad):
        angle(mesh, mesh.interior()[int(bad[0])])  # raises DegenerateArm on a zero-length arm
    return not len(bad)


def circumcircle(p, q, r) -> tuple[Point2, float]:
    """Center and radius of the unique circle through three points.

    Perpendicular-bisector intersection, solved in coordinates relative to p
    for stability. Raises CollinearPoints when the triple is degenerate.
    """
    (px, py), (qx, qy), (rx, ry) = ((float(x), float(y)) for x, y in (p, q, r))
    ux, uy = qx - px, qy - py
    vx, vy = rx - px, ry - py
    uu = ux * ux + uy * uy
    vv = vx * vx + vy * vy
    scale2 = max(uu, vv, (rx - qx) ** 2 + (ry - qy) ** 2)
    d = 2.0 * (ux * vy - uy * vx)
    if abs(d) <= COLLINEARITY_REL_TOL * scale2 * 2.0:
        raise CollinearPoints("circumcircle of a collinear triple")
    cx = (vy * uu - uy * vv) / d
    cy = (ux * vv - vx * uu) / d
    radius = (math.hypot(cx, cy) + math.hypot(cx - ux, cy - uy) + math.hypot(cx - vx, cy - vy)) / 3.0
    return Point2(px + cx, py + cy), radius
