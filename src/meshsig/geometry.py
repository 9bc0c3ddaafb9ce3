"""Planar primitives: meshes, group motions, orientation and angle predicates.

All indices are 0-based. Closed meshes wrap neighbor indices mod n; open
meshes restrict every operation to indices where the needed neighborhood
exists.

Each (m1, m2) stencil of a mesh has one table (:func:`stencil_table`) of
the sign, vertex angle and curvature of each triple (p[i-m1], p[i], p[i+m2])
and two flags, zero_arm and degenerate (two points coincide), both needed:
(a, b, a) is degenerate with nonzero arms. Its readers raise through
:func:`stencil_row`.
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
    DegenerateTriple,
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
# Up to this many points the diameter is the dense maximum over all pairs,
# which is then faster than the hull route's fixed cost of numpy calls
# (about 0.2 ms; measured on a 2-vCPU VM).
DENSE_DIAMETER_MAX = 128
# Neighbour offsets tested by each reflex-removal pass of the hull chains,
# and the passes made before the monotone chain finishes what is left.
CHAIN_OFFSETS = (1, 2, 4, 8)
CHAIN_PASSES = 32


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


def _orient_xy(px, py, qx, qy, rx, ry):
    """(q - p) x (r - p) from the points' coordinates, as floats or arrays: the one orientation formula.

    Every orientation sign, hull test and stencil cross rounds as this does.
    """
    return (qx - px) * (ry - py) - (qy - py) * (rx - px)


def orient(p, q, r) -> float:
    """Twice the signed area of triangle (p, q, r); positive for ccw."""
    return float(_orient_xy(p[0], p[1], q[0], q[1], r[0], r[1]))


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


def _gather(pts: np.ndarray, offsets, centers: range) -> list[np.ndarray]:
    """pts[i + off] at each center i of a range, wrapped mod len(pts), for each offset: every fixed-offset read.

    Each is a slice of the rows the range reaches: a view of the points where no index wraps, else one wrapped copy.
    """
    base, m = min(offsets), len(centers)
    first, last = centers.start + base, centers.stop + max(offsets)
    reach = pts[first:last] if 0 <= first and last <= len(pts) else pts.take(np.arange(first, last), axis=0, mode="wrap")
    return [reach[off - base : off - base + m] for off in offsets]


def _lengths(pts: np.ndarray, lo: int, hi: int, centers: range) -> np.ndarray:
    """|pts[i + lo] - pts[i + hi]| at each center i of a range, wrapped mod len(pts): every edge, cusp span and chord."""
    a, b = _gather(pts, (lo, hi), centers)
    return row_norms(a - b)


def _first_short(lengths: np.ndarray, rel_tol: float) -> int | None:
    """The equal-spacing test: the first length shorter than the longest by more than rel_tol of it, or None.

    A NaN tolerance admits no length.
    """
    short = np.flatnonzero(~(lengths.max() - lengths <= rel_tol * lengths.max()))
    return int(short[0]) if len(short) else None


def orient_rows(p: np.ndarray, q: np.ndarray, r: np.ndarray) -> np.ndarray:
    """:func:`orient` of the triples (p[k], q[k], r[k]) of three (k, 2) arrays, bit for bit."""
    return _orient_xy(p[:, 0], p[:, 1], q[:, 0], q[:, 1], r[:, 0], r[:, 1])


def _scale_exponent(big: float) -> int:
    """The exponent k of a point set's working frame 2^-k p, from its largest coordinate magnitude ``big``.

    k = 0 while big lies in [2^-64, 2^64], and when it is 0. That window
    keeps the highest-degree products that the kernels and the alignment
    oracle form normal doubles for n <= 10^6 points: the shift scan's g h^2
    terms are of degree 6 in the centred coordinates (each at most 2 big)
    times n^3, at most 2^60 (2^65)^6 = 2^450 at the top, and a degree-6
    product of magnitudes down to 2^-64 is at least 2^-384 at the bottom.
    Outside the window, k puts the largest magnitude into [1, 2): big lies
    in [2^k, 2^(k+1)).
    """
    return 0 if big == 0.0 or 2.0 ** -64 <= big <= 2.0 ** 64 else math.frexp(big)[1] - 1


class Working(NamedTuple):
    """A point set in its working frame: the points scaled by 2^-k, exactly (:func:`_scale_exponent`)."""

    k: int
    points: np.ndarray  # 2^-k p; p itself when k = 0
    big: float          # the largest coordinate magnitude of points


def _working(pts: np.ndarray) -> Working:
    """The (m, 2) points in their working frame; big is nan or inf where a coordinate is."""
    big = float(np.abs(pts).max())
    k = _scale_exponent(big)
    return Working(k, np.ldexp(pts, -k) if k else pts, math.ldexp(big, -k))


def _ldexp(values: np.ndarray, k: int) -> np.ndarray:
    """values * 2^k, exactly where the results are normal; values itself when k = 0, with no array work."""
    return np.ldexp(values, k) if k else values


def _pointset_diameter(pts: np.ndarray) -> float:
    """Largest pairwise distance of the points, in O(n log n) time and O(n) memory.

    Equal bit for bit to the dense ``sqrt(((pts[:, None] - pts[None]) ** 2).sum(2)).max()``,
    which it computes for at most ``DENSE_DIAMETER_MAX`` points. Above that,
    points that are in their order a strictly convex polygon are their own
    hull (:func:`_convex_polygon`); any other set takes :func:`_hull_diameter`.
    It is the one length that :func:`_lengths` does not measure: a maximum
    over all pairs, not a distance at fixed index offsets, defined by the
    dense form that both routes match.
    """
    if len(pts) > DENSE_DIAMETER_MAX:
        polygon = _convex_polygon(pts)
        return _calipers(*polygon) if polygon else _hull_diameter(pts)
    x, y = pts[:, 0], pts[:, 1]
    dx, dy = x[:, None] - x, y[:, None] - y
    return math.sqrt(float((dx * dx + dy * dy).max()))


def _convex_polygon(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """The points as counterclockwise x and y arrays if, taken cyclically, they are a strictly convex polygon, else None.

    Every :func:`_orient_xy` of consecutive triples has the same strict
    sign, so a repeated or collinear vertex fails, and the edges wind
    exactly once: with every turn in (0, pi), the edge directions enter the
    half-plane of angles [0, pi) once per winding, so a star polygon such
    as a pentagram, which turns one way at every vertex, fails too.
    """
    prev, cur, nxt = _gather(pts, (-1, 0, 1), range(len(pts)))
    turns = orient_rows(prev, cur, nxt)
    if turns.max() < 0:
        cur, nxt = cur[::-1], prev[::-1]
    elif not turns.min() > 0:
        return None
    ex, ey = (nxt - cur).T
    upper = (ey > 0) | ((ey == 0) & (ex > 0))
    # contiguous coordinates: the calipers' loop reads them ten times
    return tuple(cur.T.copy()) if np.count_nonzero(upper & ~np.roll(upper, 1)) == 1 else None


def _hull_diameter(pts: np.ndarray) -> float:
    """The dense diameter, bit for bit, from the convex hull in O(n log n) time and O(n) memory."""
    return _calipers(*_convex_hull(pts))


def _calipers(x: np.ndarray, y: np.ndarray) -> float:
    """The dense diameter, bit for bit, of the counterclockwise vertices of a convex polygon, in O(n log n) time.

    The farthest pair is an antipodal pair of the polygon (Shamos's
    rotating calipers), and the maximum is taken over squared distances
    rounded as the dense form rounds them. Each edge's antipodal vertex
    comes from a ``searchsorted`` over the edge angles, and both ends of the
    edge are paired with every vertex within two of it, so that near-ties
    between parallel edges (regular polygons, circles) and the rounding of
    the angles, which may leave nearly parallel edges out of order by an
    ulp, cannot skip the maximum. One or two vertices give their distance.
    """
    h = len(x)
    if h < 3:
        dx, dy = x[0] - x[-1], y[0] - y[-1]
        return math.sqrt(dx * dx + dy * dy)
    # each vertex's successor, the first vertex following the last
    nx, ny = np.concatenate([x[1:], x[:1]]), np.concatenate([y[1:], y[:1]])
    theta = np.arctan2(ny - y, nx - x)
    # the edge angles rise by turns in (0, pi) and fall once, by more than pi, where they wrap
    theta[1:] += 2.0 * np.pi * np.cumsum(np.diff(theta) < -np.pi / 2.0)
    # the first edge at or past the opposite direction starts at the antipodal vertex
    j = np.searchsorted(np.concatenate([theta, theta + 2.0 * np.pi]), theta + np.pi)
    best, dx, dy = 0.0, np.empty(h), np.empty(h)  # dx * dx + dy * dy in place: new arrays cost 30% at 10^5 points
    for offset in range(-2, 3):
        fx, fy = x.take(j + offset, mode="wrap"), y.take(j + offset, mode="wrap")
        for ex, ey in ((x, y), (nx, ny)):
            np.square(np.subtract(ex, fx, out=dx), out=dx)
            np.square(np.subtract(ey, fy, out=dy), out=dy)
            best = max(best, float(np.add(dx, dy, out=dx).max()))
    return math.sqrt(best)


def _outside_octagon(pts: np.ndarray) -> np.ndarray:
    """The points not strictly inside the octagon of the extreme points in the directions k * 45 degrees.

    Akl and Toussaint's filter: a point strictly inside is no hull vertex.
    The test is :func:`_orient_xy` of each octagon edge and the point, so it
    agrees with the hull's own tests.
    """
    x, y = pts[:, 0].copy(), pts[:, 1].copy()
    s, t = x + y, x - y
    ext = np.array([x.argmax(), s.argmax(), y.argmax(), t.argmin(), x.argmin(), s.argmin(), y.argmin(), t.argmax()])
    a = pts[ext]
    inside = np.ones(len(pts), dtype=bool)
    corners = a.tolist()
    for (ax, ay), (bx, by) in zip(corners, corners[1:] + corners[:1]):
        if (ax, ay) != (bx, by):  # an edge of coinciding extreme points bounds nothing
            inside &= _orient_xy(ax, ay, bx, by, x, y) > 0
    inside[ext] = False  # keeps one of a set of coinciding points
    return pts[~inside]


def _convex_hull(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Counterclockwise hull vertices as x and y arrays, starting at the lexicographically least point.

    Collinear and repeated points are dropped; all-collinear input gives its
    two extreme points, coinciding input its one point. The lower chain of
    the sorted points and the lower chain of their reverse (the upper
    chain) are built together by reflex-removal passes: a point is removed
    when it lies on or above the segment between its chain neighbours at
    one of ``CHAIN_OFFSETS``. That certificate refers to points of the
    input, so every removal of a pass is valid at once. Reflex vertices
    left after ``CHAIN_PASSES`` passes go to Andrew's monotone chain, so
    the worst case stays O(n log n).
    """
    q = _outside_octagon(pts)
    q = q[np.lexsort((q[:, 1], q[:, 0]))]
    # repeats must go: two coinciding points would each certify the other's removal
    q = q[np.concatenate([[True], (q[1:] != q[:-1]).any(axis=1)])]
    x, y = np.concatenate([q[:, 0], q[::-1, 0]]), np.concatenate([q[:, 1], q[::-1, 1]])
    b = len(q)  # the upper chain starts at x[b]
    for _ in range(CHAIN_PASSES):
        m = len(x)
        reflex = np.zeros(m, dtype=bool)
        for d in CHAIN_OFFSETS:
            if 2 * d >= m:
                break
            px, py, cx, cy, nx, ny = x[:m - 2 * d], y[:m - 2 * d], x[d:m - d], y[d:m - d], x[2 * d:], y[2 * d:]
            r = _orient_xy(px, py, cx, cy, nx, ny) <= 0  # orient(previous, center, next) <= 0
            r[max(b - 2 * d, 0):b] = False  # a triple that straddles the two chains certifies nothing
            reflex[d:m - d] |= r
        if not reflex.any():
            break
        keep = ~reflex
        b = int(np.count_nonzero(keep[:b]))
        x, y = x[keep], y[keep]
    else:
        rest = np.column_stack([x, y]).tolist()
        lower, upper = _monotone_chain(rest[:b]), _monotone_chain(rest[b:])
        x, y = np.array(lower + upper).T
        b = len(lower)
    if b == 1:
        return x[:1], y[:1]
    return np.concatenate([x[:b - 1], x[b:-1]]), np.concatenate([y[:b - 1], y[b:-1]])


def _monotone_chain(points: list) -> list:
    """Andrew's monotone chain of lexicographically sorted [x, y] lists: the lower hull, strict left turns only."""
    chain: list = []
    for p in points:
        while len(chain) >= 2 and orient(chain[-2], chain[-1], p) <= 0:
            chain.pop()
        chain.append(p)
    return chain


class Mesh:
    """Ordered planar point sequence with an open/closed flag.

    Construction rejects non-finite coordinates, fewer than three points and
    successive duplicates (closer than ``COLLINEARITY_REL_TOL * diameter``,
    including the wrap edge of closed meshes). Cusps are permitted at
    construction and reported by :func:`is_ordinary`. The points are copied
    and frozen; the caller's array is left as it was.

    Everything computed from the points alone, or from the points and one
    stencil or scheme, is kept in one store of derived data (see
    :func:`derived`): the edge lengths and the working points 2^-k p (both
    kept from construction; see :func:`working_points`), the ordinary and
    convex flags, one table per stencil (:func:`stencil_table`), the
    equiaffine block, the signature columns of each SE scheme and stencil,
    ("se", scheme, m1, m2), and of each SA scheme, ("sa", scheme), and the
    alignment oracle's entries: the frame (the centroid and the Gram
    entries of the centred points) and their forward FFT spectrum. An entry is
    built on first use and never changed; its arrays are read-only. The
    per-index Euclidean functions (signature sign and direction, angle,
    signed angle and its type, curvature) each read one row of the stencil
    table through :func:`stencil_row`: their first call on a mesh and
    stencil builds the table in O(n), and later calls read one row in O(1).

    The Euclidean kernels, the ordinary flag and the alignment oracle work
    on the working points and scale lengths and curvatures back by 2^k, so
    they are exactly equivariant under dilations by powers of two wherever
    their results are normal doubles (README, "Scale"). Edge lengths, cusp
    spans and chords come from one kernel, :func:`_lengths`, so an edge
    length is the chord between its ends bit for bit; the diameter is the
    one length it does not measure (:func:`_pointset_diameter`).
    """

    __slots__ = ("_points", "closed", "label", "_diameter", "_derived")

    def __init__(self, points, closed: bool = False, label: str = ""):
        pts = _as_points(points)
        if len(pts) < 3:
            raise InvalidMesh(f"mesh needs at least 3 points, got {len(pts)}")
        # far from 1, squares would overflow or underflow: every kernel reads the working points 2^-k p
        k, scaled, big = work = _working(pts)
        if not math.isfinite(big):
            bad = int(np.argwhere(~np.isfinite(pts).all(axis=1))[0][0])
            raise InvalidMesh(f"non-finite coordinates at point {bad}")
        diameter = math.ldexp(_pointset_diameter(scaled), k)
        if diameter == 0.0:
            raise InvalidMesh("all points coincide")
        edges = _ldexp(_lengths(scaled, 0, 1, range(len(pts) if closed else len(pts) - 1)), k)
        too_close = np.nonzero(edges <= COLLINEARITY_REL_TOL * diameter)[0]
        if len(too_close):
            i = int(too_close[0])
            raise InvalidMesh(f"successive points {i} and {(i + 1) % len(pts)} coincide")
        _frozen(pts, scaled, edges)
        self._points = pts
        self.closed = bool(closed)
        self.label = label
        self._diameter = diameter
        self._derived = {"edges": edges, "working": work}

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


def derived(mesh: Mesh, key, build, *args):
    """The mesh's derived value under ``key``: ``build(mesh, *args)`` on first use, the stored value after.

    A key names an entry kind, and its scheme and stencil where it has
    them, never a tolerance, so a mesh stores a bounded number of entries:
    "ordinary", "convex", ("stencil", m1, m2), "affine", ("se", scheme, m1,
    m2), ("sa", scheme), "frame" and "spectrum". Entries are
    never changed once stored and their arrays are read-only. Concurrent
    first uses may each build the entry; ``setdefault`` keeps one of the
    identical builds. A build that raises stores nothing. An entry may also
    come from a build over several meshes (:func:`derived_jointly`), which
    is identical to the mesh's own build. Two entries are stored by
    ``Mesh()`` itself: "edges" (:func:`edge_lengths`) and "working"
    (:func:`working_points`).
    """
    value = mesh._derived.get(key)
    if value is None:
        value = mesh._derived.setdefault(key, build(mesh, *args))
    return value


def derived_jointly(meshes, key, build) -> list:
    """Each mesh's derived value under ``key``; the missing ones come from one ``build(missing)`` call.

    ``build`` takes a list of distinct meshes and returns one value per mesh,
    each equal to what that mesh's own one-mesh build gives, so an entry may
    come from a build over several meshes. Each is stored with
    :func:`derived`'s ``setdefault`` rule.
    """
    missing = list({id(m): m for m in meshes if key not in m._derived}.values())
    if missing:
        for mesh, value in zip(missing, build(missing)):
            mesh._derived.setdefault(key, value)
    return [m._derived[key] for m in meshes]


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.setflags(write=False)
    return arrays


def edge_lengths(mesh: Mesh) -> np.ndarray:
    """Consecutive edge lengths, including the wrap edge of a closed mesh, as a read-only array."""
    return mesh._derived["edges"]


def working_points(mesh: Mesh) -> Working:
    """The mesh's points in its working frame, kept from construction: (k, 2^-k p, their largest magnitude)."""
    return mesh._derived["working"]


class GroupElement:
    """A planar motion: x -> linear @ x + translation, tagged with its group.

    The linear part is validated against the group invariant on construction
    (orthogonality for SE/E, unit |determinant| for SA/ABAR, within
    ``GROUP_TOL``). Validation, :attr:`det` and :meth:`inverse` work on the
    four entries a, b, c, d of linear = [[a, b], [c, d]] as Python floats.
    """

    __slots__ = ("linear", "translation", "group")

    def __init__(self, linear, translation, group: Group):
        lin = np.array(linear, dtype=float).reshape(2, 2)
        tr = np.array(translation, dtype=float).reshape(2)
        self.linear = lin
        self.translation = tr
        self.group = group
        self.check()
        lin.setflags(write=False)
        tr.setflags(write=False)

    def _entries(self) -> tuple[float, float, float, float, float]:
        # a, b, c, d of the linear part and its determinant
        (a, b), (c, d) = self.linear.tolist()
        return a, b, c, d, a * d - b * c

    def check(self) -> None:
        a, b, c, d, det = self._entries()
        if not all(map(math.isfinite, (a, b, c, d, *self.translation.tolist()))):
            raise InvalidGroupElement("non-finite motion entries")
        # written as "not <=" so that a det left nan by overflowing products is rejected too
        if self.group in (Group.SE, Group.E):
            # the largest entry of linear.T @ linear - I
            ortho = max(abs(a * a + c * c - 1.0), abs(a * b + c * d), abs(b * b + d * d - 1.0))
            if not ortho <= GROUP_TOL:
                raise InvalidGroupElement(f"linear part not orthogonal (defect {ortho:.3e})")
            if self.group is Group.SE and not abs(det - 1.0) <= GROUP_TOL:
                raise InvalidGroupElement(f"SE element must have det +1, got {det!r}")
            if self.group is Group.E and not abs(abs(det) - 1.0) <= GROUP_TOL:
                raise InvalidGroupElement(f"E element must have det +-1, got {det!r}")
        elif self.group is Group.SA:
            if not abs(det - 1.0) <= GROUP_TOL:
                raise InvalidGroupElement(f"SA element must have det +1, got {det!r}")
        elif not abs(abs(det) - 1.0) <= GROUP_TOL:
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
        """a d - b c of linear = [[a, b], [c, d]], in double arithmetic.

        Within eps (1 + eps) (|a d| + |b c|) of the exact determinant of the
        same doubles (eps = 2^-52), where neither product overflows or
        underflows.
        """
        return self._entries()[4]

    def apply(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        return pts @ self.linear.T + self.translation

    def inverse(self) -> "GroupElement":
        """The inverse motion; under SE/E its linear part is linear.T, exactly.

        Under SA/Abar the linear part is [[d, -b], [-c, a]] / det with
        :attr:`det`: each entry within a relative 2 eps (k + 1) of the exact
        inverse of the same doubles, k = (|a d| + |b c|) / |a d - b c|, when
        2 eps k < 1/2; each translation coordinate within 2 eps (k + 2)
        (|i0 t0| + |i1 t1|) of the exact one, i the exact inverse's row and t
        the translation.
        """
        if self.group in (Group.SE, Group.E):
            inv = self.linear.T
        else:
            a, b, c, d, det = self._entries()
            inv = np.array([[d / det, -b / det], [-c / det, a / det]])
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


def stencil_row(mesh: Mesh, i: int, spec: NeighborhoodSpec = SPEC11, read: str = "") -> tuple[Stencil, int]:
    """The mesh's stencil table (:func:`stencil_table`) and the row of center i, raising what reading that row raises.

    In this order: IndexOutOfRange, naming the first of p[i-m1], p[i] and
    p[i+m2] that lies past an open mesh's ends; then, for ``read="angle"``,
    DegenerateArm where an arm has zero length, and for ``read="kappa"``,
    DegenerateTriple where two of the points coincide, both naming the
    resolved center (i mod n on a closed mesh). Every per-index
    Euclidean function reads its row through here, and every reader of a
    whole column raises here, at its first failing center.
    """
    _, c, _ = [mesh.resolve(i, k) for k in (-spec.m1, 0, spec.m2)]
    table, row = stencil_table(mesh, spec), c - mesh.interior(spec.m1, spec.m2).start
    if read == "angle" and table.zero_arm[row]:
        raise DegenerateArm(f"zero-length angle arm at index {c}")
    if read == "kappa" and table.degenerate[row]:
        raise DegenerateTriple(f"two stencil points coincide at index {c}")
    return table, row


def signature_sign(mesh: Mesh, i: int, spec: NeighborhoodSpec = SPEC11) -> int:
    """Sign of (p[i+m2]-p[i]) x (p[i-m1]-p[i]); 0 when collinear.

    +1 means the triple (p[i-m1], p[i], p[i+m2]) is in counterclockwise
    order. The collinearity band scales with the squared mesh diameter.
    Read from the mesh's stencil table (:func:`stencil_row`).
    """
    table, row = stencil_row(mesh, i, spec)
    return int(table.sign[row])


def signature_direction(mesh: Mesh, i: int, spec: NeighborhoodSpec = SPEC11) -> SigDirection:
    """Counterclockwise (SD) / clockwise (NotSD) orientation of the triple."""
    ss = signature_sign(mesh, i, spec)
    if ss > 0:
        return SigDirection.SD
    if ss < 0:
        return SigDirection.NOT_SD
    return SigDirection.UNDEFINED


def angle(mesh: Mesh, i: int, spec: NeighborhoodSpec = SPEC11) -> float:
    """Unsigned vertex angle at p[i] between the arms of its (m1, m2)-triple.

    Read from the mesh's stencil table (:func:`stencil_row`); raises
    DegenerateArm when an arm has zero length.
    """
    table, row = stencil_row(mesh, i, spec, "angle")
    return float(table.theta[row])


def signed_angle(mesh: Mesh, i: int, spec: NeighborhoodSpec = SPEC11) -> float:
    """Signature-sign times the unsigned angle, on the same (m1, m2)-triple."""
    return signature_sign(mesh, i, spec) * angle(mesh, i, spec)


def angle_type(theta: float, tol: float = RIGHT_ANGLE_TOL) -> AngleType:
    """Classify an angle in (0, pi) as acute, right or obtuse.

    Right means within ``tol`` radians of pi/2 (:func:`angle_types`).
    """
    kind = int(angle_types(theta, tol))
    if not kind:
        raise OutOfDomain(f"angle {theta!r} outside (0, pi)")
    return list(AngleType)[kind - 1]


def signed_angle_type(
    mesh: Mesh, i: int, spec: NeighborhoodSpec = SPEC11, tol: float = RIGHT_ANGLE_TOL
) -> SignedAngleType:
    """Classification of |signed angle| with the signature sign kept as a flag; errors name the resolved center."""
    ss = signature_sign(mesh, i, spec)
    theta = angle(mesh, i, spec)
    if ss == 0:
        raise OutOfDomain(f"signed angle undefined on collinear triple at index {mesh.resolve(i)}")
    return SignedAngleType(ss, angle_type(theta, tol))


def is_equally_spaced(mesh: Mesh, rel_tol: float = SPACING_REL_TOL) -> bool:
    """True when no edge (wrap edge included when closed) is shorter than the longest by more than rel_tol of it."""
    return _first_short(edge_lengths(mesh), rel_tol) is None


def _ordinary(mesh: Mesh) -> bool:
    k, pts, _ = working_points(mesh)  # a cusp span |p[i+1] - p[i-1]| within the band
    return not (_lengths(pts, -1, 1, mesh.interior()) <= COLLINEARITY_REL_TOL * math.ldexp(mesh.diameter, -k)).any()


def is_ordinary(mesh: Mesh) -> bool:
    """True when the mesh has no cusp (p[i+1] never returns onto p[i-1])."""
    return derived(mesh, "ordinary", _ordinary)


def neighbor_triples(mesh: Mesh, centers: range, spec: NeighborhoodSpec = SPEC11) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(p[i-m1], p[i], p[i+m2]) of the working points 2^-k p at every center i of a range in [0, n), as three (m, 2) arrays."""
    return tuple(_gather(working_points(mesh).points, (-spec.m1, 0, spec.m2), centers))


def _curvatures(p: np.ndarray, q: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reciprocal circumradii of the triples (p[k], q[k], r[k]) of three (k, 2) arrays.

    Returns (kappa, degenerate, sides): kappa is 0 for collinear triples,
    degenerate marks triples with two coinciding points, whose kappa is
    meaningless, and sides is the (3, k) array of the side lengths |q - p|,
    |r - q| and |r - p|. Per triple, the sides are sorted a >= b >= c and
    kappa is sqrt(t) / (a*b*c) with Kahan's product t = 16 * area**2; its
    relative error is about eps * (a + b + c) / (b + c - a).
    """
    sides = row_norms(np.concatenate([q - p, r - q, r - p])).reshape(3, -1)
    # a sorting network: the sides in descending order, as np.sort orders them
    lo, hi = np.minimum(sides[0], sides[1]), np.maximum(sides[0], sides[1])
    a, inner = np.maximum(hi, sides[2]), np.minimum(hi, sides[2])
    b, c = np.maximum(lo, inner), np.minimum(lo, inner)
    degenerate = c <= 1e-15 * a
    t = (a + (b + c)) * (c - (a - b)) * (c + (a - b)) * (a + (b - c))
    kappa = np.divide(np.sqrt(np.maximum(t, 0.0)), a * b * c, out=np.zeros_like(t), where=t > 0.0)
    return kappa, degenerate, sides


class Stencil(NamedTuple):
    """Per center of ``mesh.interior(m1, m2)``: the data of its (m1, m2)-triple, as read-only arrays."""

    sign: np.ndarray        # signature_sign
    theta: np.ndarray       # angle; meaningless where zero_arm holds
    zero_arm: np.ndarray    # an arm has zero length, so angle raises DegenerateArm
    kappa: np.ndarray       # euclidean_curvature; meaningless where degenerate holds
    degenerate: np.ndarray  # two of the points coincide, so euclidean_curvature raises DegenerateTriple


def _stencil(mesh: Mesh, spec: NeighborhoodSpec) -> Stencil:
    prev, mid, nxt = neighbor_triples(mesh, mesh.interior(spec.m1, spec.m2), spec)
    kappa, degenerate, (back, ahead, _) = _curvatures(prev, mid, nxt)
    u, v = prev - mid, nxt - mid
    # orient(mid, nxt, prev), v x u: its sign is the triple's, its magnitude the angle's
    cross = _orient_xy(mid[:, 0], mid[:, 1], nxt[:, 0], nxt[:, 1], prev[:, 0], prev[:, 1])
    k = working_points(mesh).k
    band = COLLINEARITY_REL_TOL * math.ldexp(mesh.diameter, -k) ** 2
    sign = np.where(np.abs(cross) <= band, 0, np.where(cross > 0, 1, -1))
    theta = np.arctan2(np.abs(cross), (u[:, None, :] @ v[:, :, None]).ravel())
    return Stencil(*_frozen(sign, theta, (back == 0.0) | (ahead == 0.0), _ldexp(kappa, -k), degenerate))


def stencil_table(mesh: Mesh, spec: NeighborhoodSpec = SPEC11) -> Stencil:
    """The table of the (m1, m2)-triples, a row per center of ``mesh.interior(m1, m2)``; rows read via :func:`stencil_row`.

    One derived entry per mesh and stencil, built in O(n) on first use from
    one gather of the triples' working points; kappa is in input units.
    """
    return derived(mesh, ("stencil", spec.m1, spec.m2), _stencil, spec)


def angle_types(theta: np.ndarray, tol: float = RIGHT_ANGLE_TOL) -> np.ndarray:
    """:func:`angle_type` of each angle, as 1 + its position in AngleType; 0 where angle_type raises OutOfDomain."""
    half = np.pi / 2.0
    kind = np.where(np.abs(theta - half) <= tol, 2, np.where(theta < half, 1, 3))
    return np.where((0.0 < theta) & (theta < np.pi), kind, 0)


def _convex(mesh: Mesh) -> bool:
    signs, theta = stencil_table(mesh)[:2]
    if (signs == 0).any() or (signs != signs[0]).any():
        return False
    if mesh.closed:
        turning = float(np.sum(signs * (np.pi - theta)))
        if abs(abs(turning) - 2.0 * np.pi) > 1e-6:
            return False
    return True


def is_convex(mesh: Mesh) -> bool:
    """Consistent nonzero turning at every interior point.

    Closed meshes must additionally wind exactly once (total turning
    +-2pi), which rules out multiply-wound star traversals.
    """
    return derived(mesh, "convex", _convex)


def is_fine(mesh: Mesh, tol: float = RIGHT_ANGLE_TOL) -> bool:
    """True when every interior vertex angle is obtuse."""
    return bool((angle_types(stencil_table(mesh).theta, tol) == 3).all())


def circumcircle(p, q, r) -> tuple[Point2, float]:
    """Center and radius of the unique circle through three points.

    Perpendicular-bisector intersection, solved in coordinates relative to p
    for stability, on the triple's working points 2^-k p (:func:`_working`),
    so that the center and radius are exactly equivariant under dilations by
    powers of two. Raises CollinearPoints when the triple is degenerate.
    """
    k, tri, _ = _working(np.array([p, q, r], dtype=float))
    (px, py), (qx, qy), (rx, ry) = tri.tolist()
    ux, uy = qx - px, qy - py
    vx, vy = rx - px, ry - py
    uu = ux * ux + uy * uy
    vv = vx * vx + vy * vy
    scale2 = max(uu, vv, (rx - qx) ** 2 + (ry - qy) ** 2)
    d = 2.0 * _orient_xy(px, py, qx, qy, rx, ry)
    if abs(d) <= COLLINEARITY_REL_TOL * scale2 * 2.0:
        raise CollinearPoints("circumcircle of a collinear triple")
    cx = (vy * uu - uy * vv) / d
    cy = (ux * vv - vx * uu) / d
    radius = (math.hypot(cx, cy) + math.hypot(cx - ux, cy - uy) + math.hypot(cx - vx, cy - vy)) / 3.0
    return Point2(math.ldexp(px + cx, k), math.ldexp(py + cy, k)), math.ldexp(radius, k)
