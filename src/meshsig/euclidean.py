"""Two-point Euclidean curvature and the four SE-signature schemes.

The curvature of a stencil triple is 1/R of its circumcircle, computed from
the three rounded pairwise distances a >= b >= c with Kahan's sorted-operand
product formula for the area. The product itself is stable, but the sides
carry rounding of order eps * a into b + c - a, so on nearly straight
triples the curvature's relative error grows to about
eps * (a + b + c) / (b + c - a).
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateStencil, DegenerateTriple, MeshTooShort, NotOrdinary, SchemeSpacingMismatch
from .geometry import (
    SPEC11,
    Mesh,
    NeighborhoodSpec,
    _frozen,
    _ldexp,
    _working,
    derived,
    edge_lengths,
    is_equally_spaced,
    is_ordinary,
    neighbor_triples,
    row_norms,
    stencil_row,
    working_points,
)
from .signatures import Scheme, Signature, curvature_centers, denominator_offsets, quotient_signature, scheme_rows

# Denominator chords smaller than this fraction of the diameter abort the quotient.
STENCIL_REL_TOL = 1e-12


def _curvatures(p: np.ndarray, q: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reciprocal circumradii of the triples (p[k], q[k], r[k]) of three (k, 2) arrays.

    Returns (kappa, degenerate): kappa is 0 for collinear triples, and
    degenerate marks triples with two coinciding points, whose kappa is
    meaningless. Per triple, the sides are sorted a >= b >= c and kappa is
    sqrt(t) / (a*b*c) with Kahan's product t = 16 * area**2; its relative
    error is about eps * (a + b + c) / (b + c - a).
    """
    d = np.concatenate([q - p, r - q, r - p])
    a, b, c = np.sort(row_norms(d).reshape(3, -1), axis=0)[::-1]
    degenerate = c <= 1e-15 * a
    t = (a + (b + c)) * (c - (a - b)) * (c + (a - b)) * (a + (b - c))
    kappa = np.zeros_like(t)
    bent = t > 0.0
    kappa[bent] = np.sqrt(t[bent]) / (a[bent] * b[bent] * c[bent])
    return kappa, degenerate


def curvature_of_triple(p, q, r) -> float:
    """Reciprocal circumradius of three points; 0 for collinear triples.

    Relative error about eps * (a + b + c) / (b + c - a) for sides
    a >= b >= c, so nearly straight triples lose accuracy. Computed on the
    triple's working points 2^-k p, as :func:`geometry.circumcircle` is, and
    scaled back by 2^-k. Raises DegenerateTriple when two of the points
    coincide.
    """
    k, tri, _ = _working(np.array([p, q, r], dtype=float))
    kappa, degenerate = _curvatures(*tri[:, None])
    if degenerate[0]:
        raise DegenerateTriple("two stencil points coincide")
    return float(_ldexp(kappa, -k)[0])


def _interior_curvatures(mesh: Mesh, spec: NeighborhoodSpec) -> tuple[np.ndarray, np.ndarray]:
    kappa, degenerate = _curvatures(*neighbor_triples(mesh, mesh.interior(spec.m1, spec.m2), spec))
    return _frozen(_ldexp(kappa, -working_points(mesh).k), degenerate)


def _curvatures_at(mesh: Mesh, spec: NeighborhoodSpec, rows=slice(None)) -> np.ndarray:
    """The stored curvatures at rows (an index array or a slice) of ``mesh.interior(m1, m2)``.

    The (kappa, degenerate) arrays are built once per mesh and stencil.
    Raises DegenerateTriple at the first of the rows whose stencil has two
    coinciding points.
    """
    kappa, degenerate = derived(mesh, ("curvature", spec.m1, spec.m2), _interior_curvatures, spec)
    bad = np.flatnonzero(degenerate[rows])
    if len(bad):
        i = np.arange(len(kappa))[rows][bad[0]] + mesh.interior(spec.m1, spec.m2).start
        raise DegenerateTriple(f"two stencil points coincide at index {i}")
    return kappa[rows]


def euclidean_curvature(mesh: Mesh, i: int, spec: NeighborhoodSpec = SPEC11) -> float:
    """Curvature at p[i] from its (m1, m2)-neighborhood, read from the mesh's stored stencil curvatures.

    Raises IndexOutOfRange when the neighborhood reaches past an open
    mesh's ends and DegenerateTriple when two of its points coincide.
    """
    return float(_curvatures_at(mesh, spec, [stencil_row(mesh, i, spec)])[0])


def interior_curvatures(mesh: Mesh, spec: NeighborhoodSpec = SPEC11) -> np.ndarray:
    """Curvature at every center of ``mesh.interior(m1, m2)``, as one read-only array.

    Each value is :func:`euclidean_curvature`'s at its center, within
    eps * (a + b + c) / (b + c - a) (relative) of the exact reciprocal
    circumradius of the same doubles, for sides a >= b >= c. Raises
    DegenerateTriple when any stencil has two coinciding points. Built once
    per mesh and stencil.
    """
    return _curvatures_at(mesh, spec)


def chord(mesh: Mesh, i: int, j: int) -> float:
    """Euclidean distance between mesh points i and j: one center of :func:`chords`."""
    return float(chords(mesh, mesh.resolve(i), mesh.resolve(j), range(1))[0])


def chords(mesh: Mesh, lo: int, hi: int, centers: range) -> np.ndarray:
    """chord(mesh, i + lo, i + hi) at each center, wrapped mod n; measured on the working points, scaled back."""
    k, pts, _ = working_points(mesh)
    p, q = (pts.take(np.arange(centers.start + off, centers.stop + off), axis=0, mode="wrap") for off in (lo, hi))
    return _ldexp(row_norms(p - q), k)


def se_signature(
    mesh: Mesh,
    scheme: Scheme,
    spec: NeighborhoodSpec = SPEC11,
    spacing_tol: float | None = None,
) -> Signature:
    """The SE-signature of an ordinary mesh under one of schemes 1-4.

    Parameters
    ----------
    mesh : Mesh
        Ordinary planar mesh; closed meshes wrap, open meshes truncate to
        the valid stencil range.
    scheme : Scheme
        EQ1/EQ2 (forward/centered, equally spaced meshes only) or EQ3/EQ4
        (forward/centered with widened chords for unequal spacing).
    spec : NeighborhoodSpec
        Stencil for the per-point curvature.
    spacing_tol : float, optional
        Equal-spacing tolerance for EQ1/EQ2; library default when omitted.

    Returns
    -------
    Signature
        One (kappa, kappa_s) row per valid center index. DegenerateTriple is
        raised when any stencil read has two coinciding points, else
        DegenerateStencil at the first row whose denominator chord vanishes.
    """
    if scheme.value > 4:
        raise ValueError(f"{scheme} is an equiaffine scheme; use sa_signature")
    if not is_ordinary(mesh):
        raise NotOrdinary("signature of a mesh with a cusp")
    if scheme.needs_equal_spacing:
        ok = is_equally_spaced(mesh) if spacing_tol is None else is_equally_spaced(mesh, spacing_tol)
        if not ok:
            edges = edge_lengths(mesh)
            worst = int(np.argmax(np.abs(edges - edges.mean())))
            raise SchemeSpacingMismatch(
                f"{scheme.label} requires an equally spaced mesh; edge {worst} deviates"
            )
    indices = scheme_rows(mesh, scheme, spec)
    if len(indices) == 0:
        raise MeshTooShort(f"no valid {scheme.label} stencil on a {mesh.n}-point open mesh")
    centers = curvature_centers(scheme, indices) % mesh.n
    kappa = _curvatures_at(mesh, spec, centers - mesh.interior(spec.m1, spec.m2).start)
    lo_c, hi_c = denominator_offsets(scheme)
    denom = chords(mesh, lo_c, hi_c, indices)
    bad = np.flatnonzero(denom <= STENCIL_REL_TOL * mesh.diameter)
    if len(bad):
        i = indices[bad[0]]
        raise DegenerateStencil(f"{scheme.label} denominator chord ({i}{lo_c:+d}, {i}{hi_c:+d}) vanishes")
    return quotient_signature(scheme, spec, indices, kappa, denom)
