"""Two-point Euclidean curvature and the four SE-signature schemes.

The curvature of a stencil triple is 1/R of its circumcircle, computed from
the three rounded pairwise distances a >= b >= c with Kahan's sorted-operand
product formula for the area. The product itself is stable, but the sides
carry rounding of order eps * a into b + c - a, so on nearly straight
triples the curvature's relative error grows to about
eps * (a + b + c) / (b + c - a). A mesh's curvatures are the kappa column of
its stencil table (:func:`geometry.stencil_table`), read via ``stencil_row``.
The chords, every quotient's denominators, come from the geometry length
kernel that gives the edge lengths (``geometry._lengths``). The row builder
of both groups (:func:`signatures.signature_columns`) makes the rows, so a
signature raises at its first failing row: DegenerateTriple at its first
degenerate stencil, else DegenerateStencil if its chord vanishes.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateTriple, NotOrdinary
from .geometry import (
    SPACING_REL_TOL,
    SPEC11,
    Mesh,
    NeighborhoodSpec,
    _curvatures,
    _ldexp,
    _lengths,
    _working,
    derived,
    is_ordinary,
    stencil_row,
    stencil_table,
    working_points,
)
from .signatures import Scheme, Signature, _check_edge_spacing, signature_columns

# Denominator chords smaller than this fraction of the diameter abort the quotient.
STENCIL_REL_TOL = 1e-12


def curvature_of_triple(p, q, r) -> float:
    """Reciprocal circumradius of three points; 0 for collinear triples.

    Relative error about eps * (a + b + c) / (b + c - a) for sides
    a >= b >= c, so nearly straight triples lose accuracy. Computed on the
    triple's working points 2^-k p, as :func:`geometry.circumcircle` is, and
    scaled back by 2^-k. Raises DegenerateTriple when two of the points
    coincide.
    """
    k, tri, _ = _working(np.array([p, q, r], dtype=float))
    kappa, degenerate, _ = _curvatures(*tri[:, None])
    if degenerate[0]:
        raise DegenerateTriple("two stencil points coincide")
    return float(_ldexp(kappa, -k)[0])


def euclidean_curvature(mesh: Mesh, i: int, spec: NeighborhoodSpec = SPEC11) -> float:
    """Curvature at p[i] from its (m1, m2)-neighborhood, read from the mesh's stencil table.

    Raises IndexOutOfRange when the neighborhood reaches past an open
    mesh's ends and DegenerateTriple when two of its points coincide
    (:func:`geometry.stencil_row`).
    """
    table, row = stencil_row(mesh, i, spec, "kappa")
    return float(table.kappa[row])


def interior_curvatures(mesh: Mesh, spec: NeighborhoodSpec = SPEC11) -> np.ndarray:
    """Curvature at every center of ``mesh.interior(m1, m2)``, as one read-only array: the stencil table's column.

    Each value is :func:`euclidean_curvature`'s at its center, within
    eps * (a + b + c) / (b + c - a) (relative) of the exact reciprocal
    circumradius of the same doubles, for sides a >= b >= c. Raises
    DegenerateTriple at the first center whose stencil has two coinciding
    points.
    """
    table = stencil_table(mesh, spec)
    if table.degenerate.any():
        stencil_row(mesh, mesh.interior(spec.m1, spec.m2)[int(table.degenerate.argmax())], spec, "kappa")
    return table.kappa


def chord(mesh: Mesh, i: int, j: int) -> float:
    """Euclidean distance between mesh points i and j: one center of :func:`chords`."""
    return float(chords(mesh, mesh.resolve(i), mesh.resolve(j), range(1))[0])


def chords(mesh: Mesh, lo: int, hi: int, centers: range) -> np.ndarray:
    """chord(mesh, i + lo, i + hi) at each center, wrapped mod n: the length kernel on the working points, scaled back."""
    k, pts, _ = working_points(mesh)
    return _ldexp(_lengths(pts, lo, hi, centers), k)


def _signature_columns(mesh: Mesh, scheme: Scheme, spec: NeighborhoodSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The signature's read-only (indices, kappas, kappa_s) columns: the stencil table's curvatures over chords."""
    table, start = stencil_table(mesh, spec), mesh.interior(spec.m1, spec.m2).start

    def denominators(lo: int, hi: int, rows: range) -> tuple[np.ndarray, np.ndarray]:
        denom = chords(mesh, lo, hi, rows)
        return denom, denom > STENCIL_REL_TOL * mesh.diameter

    return signature_columns(mesh, scheme, spec, (start, table.kappa, ~table.degenerate),
                             lambda c: stencil_row(mesh, c, spec, "kappa"), denominators,
                             lambda i, lo, hi: f"{scheme.label} denominator chord ({i}{lo:+d}, {i}{hi:+d}) vanishes")


def se_signature(
    mesh: Mesh,
    scheme: Scheme,
    spec: NeighborhoodSpec = SPEC11,
    spacing_tol: float = SPACING_REL_TOL,
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
        Equal-spacing tolerance for EQ1/EQ2, ``SPACING_REL_TOL`` by default.
        SchemeSpacingMismatch names the first edge shorter than the longest
        by more than this fraction of it.

    Returns
    -------
    Signature
        One (kappa, kappa_s) row per valid center index; MeshTooShort when
        an open mesh has none. The first row that cannot be evaluated raises
        DegenerateTriple at its first stencil with two coinciding points,
        else DegenerateStencil if its denominator chord vanishes.

    The columns are built once per mesh, scheme and stencil, as the derived
    entry ``("se", scheme, m1, m2)``, and a build that raises stores
    nothing; the ordinary and spacing checks run on every call.
    """
    if scheme.value > 4:
        raise ValueError(f"{scheme} is an equiaffine scheme; use sa_signature")
    if not is_ordinary(mesh):
        raise NotOrdinary("signature of a mesh with a cusp")
    if scheme.needs_equal_spacing:
        _check_edge_spacing(mesh, scheme, spacing_tol)
    columns = derived(mesh, ("se", scheme, spec.m1, spec.m2), _signature_columns, scheme, spec)
    return Signature._of(columns, scheme, spec)
