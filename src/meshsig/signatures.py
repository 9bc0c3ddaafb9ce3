"""Signature containers and the one row builder shared by the Euclidean and equiaffine pipelines."""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import DegenerateStencil, MeshTooShort, SchemeSpacingMismatch
from .geometry import Group, NeighborhoodSpec, _first_short, _frozen, _gather, edge_lengths

# Relative tolerance for declaring two signatures equal.
SIGNATURE_REL_TOL = 1e-6


class Scheme(Enum):
    """Difference-quotient schemes 1-4 (Euclidean) and 5-8 (equiaffine).

    Odd/even pairs are forward/centered quotients; the first pair of each
    group requires equal spacing, the second pair targets unequal spacing.
    """

    EQ1 = 1
    EQ2 = 2
    EQ3 = 3
    EQ4 = 4
    EQ5 = 5
    EQ6 = 6
    EQ7 = 7
    EQ8 = 8

    @property
    def group(self) -> Group:
        return Group.SE if self.value <= 4 else Group.SA

    @property
    def centered(self) -> bool:
        return _QUOTIENTS[self].numerator[0] == -1

    @property
    def needs_equal_spacing(self) -> bool:
        return self.value in (1, 2, 5, 6)

    @property
    def factor(self) -> float:
        return _QUOTIENTS[self].factor

    @property
    def label(self) -> str:
        return f"eq{self.value}"

    @classmethod
    def from_id(cls, value: int) -> "Scheme":
        try:
            return cls(int(value))
        except ValueError:
            raise ValueError(f"scheme must be 1..8, got {value!r}") from None


class _Quotient(NamedTuple):
    """kappa_s at center i: factor * (kappa[i + numerator[1]] - kappa[i + numerator[0]]) / the chord (SE)
    or arc length (SA) between the points i + denominator[0] and i + denominator[1]."""

    numerator: tuple[int, int]
    denominator: tuple[int, int]
    factor: float


_QUOTIENTS = {
    Scheme.EQ1: _Quotient((0, 1), (0, 1), 1.0),
    Scheme.EQ2: _Quotient((-1, 1), (-1, 1), 1.0),
    Scheme.EQ3: _Quotient((0, 1), (-1, 2), 3.0),
    Scheme.EQ4: _Quotient((-1, 1), (-3, 3), 3.0),
    Scheme.EQ5: _Quotient((0, 1), (0, 1), 1.0),
    Scheme.EQ6: _Quotient((-1, 1), (-1, 1), 1.0),
    Scheme.EQ7: _Quotient((0, 1), (-2, 3), 5.0),
    Scheme.EQ8: _Quotient((-1, 1), (-5, 5), 5.0),
}


def denominator_offsets(scheme: Scheme) -> tuple[int, int]:
    """Offsets from the row's center of the two points whose distance divides the quotient."""
    return _QUOTIENTS[scheme].denominator


def scheme_rows(mesh, scheme: Scheme, spec: NeighborhoodSpec) -> range:
    """Center indices where the scheme's denominator points and numerator curvature stencils all exist."""
    if mesh.closed:
        return range(mesh.n)
    (num_lo, num_hi), (den_lo, den_hi), _ = _QUOTIENTS[scheme]
    lo, hi = min(num_lo - spec.m1, den_lo), max(num_hi + spec.m2, den_hi)
    return range(max(0, -lo), mesh.n - hi)


def signature_columns(mesh, scheme: Scheme, spec: NeighborhoodSpec, curvatures, read_curvature, denominators,
                      vanishing) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The read-only columns (indices, kappas, kappa_s) of the scheme's rows, from one group's sources.

    Row i reads the curvatures at i (i - 1 when centered) to i + 1, from ``curvatures = (start, kappa, ok)``:
    the curvature at each center start + j and whether it can be read, read through ``geometry._gather``; and
    its denominator between the points i + lo and i + hi, given with whether it can divide by
    ``denominators(lo, hi, rows)``. MeshTooShort when the mesh has no row; else the first row that cannot be
    evaluated raises: ``read_curvature(c)`` raises what reading each of its curvature centers in order raises,
    then ``vanishing(i, lo, hi)`` raises what reading its denominator raises, else names the denominator for
    DegenerateStencil. Each kappa_s is within 2 eps (relative) of the exact quotient of the same curvatures
    and denominator.
    """
    rows = scheme_rows(mesh, scheme, spec)
    if len(rows) == 0:
        raise MeshTooShort(f"no valid {scheme.label} stencil on a {mesh.n}-point open mesh")
    (first, _), (lo, hi), factor = _QUOTIENTS[scheme]
    start, *columns = curvatures
    (kappa,), (kappa_ok,) = (_gather(col, (-start,), range(rows.start + first, rows.stop + 1)) for col in columns)
    denom, ok = denominators(lo, hi, rows)
    if not (ok.all() and kappa_ok.all()):  # every center is read by some row
        reads = 2 - first  # row k reads the curvatures at centers rows[k] + first, ..., rows[k] + 1
        for j in range(reads):
            ok = ok & kappa_ok[j : j + len(rows)]
        k = int(np.argmin(ok))
        for j in range(reads):
            read_curvature((rows[k] + first + j) % mesh.n)
        raise DegenerateStencil(vanishing(rows[k], lo, hi))
    kappa_s = factor * (kappa[1 - first :] - kappa[: len(rows)]) / denom
    return _frozen(np.arange(rows.start, rows.stop), kappa[-first : len(rows) - first], kappa_s)


def _check_edge_spacing(mesh, scheme: Scheme, rel_tol: float) -> None:
    """Raise SchemeSpacingMismatch naming the first edge shorter than the longest by more than rel_tol of it."""
    if (first := _first_short(edge_lengths(mesh), rel_tol)) is not None:
        raise SchemeSpacingMismatch(f"{scheme.label} requires an equally spaced mesh; edge {first} deviates")


class SignaturePoint(NamedTuple):
    index: int
    kappa: float
    kappa_s: float


class Signature:
    """(kappa, kappa_s) pairs indexed by mesh point, held as three read-only columns."""

    def __init__(self, indices, kappas, kappa_s, scheme: Scheme, spec: NeighborhoodSpec, meta: dict | None = None):
        self.indices, self.kappas, self.kappa_s = (
            np.array(col, dtype=dtype) for col, dtype in ((indices, int), (kappas, float), (kappa_s, float))
        )
        for col in (self.indices, self.kappas, self.kappa_s):
            col.setflags(write=False)
        self.scheme = scheme
        self.spec = spec
        self.meta = {} if meta is None else meta

    @classmethod
    def _of(cls, columns: tuple[np.ndarray, np.ndarray, np.ndarray], scheme: Scheme,
            spec: NeighborhoodSpec) -> "Signature":
        """A signature over stored read-only (indices, kappas, kappa_s) columns, not copied; its meta is its own."""
        sig = cls.__new__(cls)
        sig.indices, sig.kappas, sig.kappa_s = columns
        sig.scheme, sig.spec, sig.meta = scheme, spec, {}
        return sig

    @property
    def points(self) -> list[SignaturePoint]:
        return list(map(SignaturePoint, self.indices.tolist(), self.kappas.tolist(), self.kappa_s.tolist()))

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self):
        return iter(self.points)


# A column whose magnitude is below this fraction of the whole signature's
# magnitude is graded against that fraction instead of its own noise floor;
# otherwise a theoretically-zero column (constant curvature) would compare
# float noise against float noise and never be equal to anything. Differences
# masked by the floor are below rel_tol/100 of the signature magnitude.
COLUMN_FLOOR_FRACTION = 1e-2
# Signatures whose every entry is below this count as identically zero
# (a straight or parabolic source leaves only fit noise in both columns).
ZERO_SIGNATURE_ATOL = 1e-9


def abs_difference(u, v) -> np.ndarray:
    """|u - v| elementwise; inf - inf gives nan, without numpy's invalid-value warning."""
    with np.errstate(invalid="ignore"):
        return np.abs(np.subtract(u, v))


def signature_max_error(a: Signature, b: Signature) -> float:
    """Componentwise max relative error over aligned indices.

    Each column is normalized by its own magnitude, floored at
    ``COLUMN_FLOOR_FRACTION`` of the overall signature magnitude. A column
    holding inf or nan gives nan, which no ``err <= tol`` test passes.
    """
    if a.scheme is not b.scheme or a.spec != b.spec:
        raise ValueError("signatures use different schemes or stencils")
    if a.indices.shape != b.indices.shape or (a.indices != b.indices).any():
        raise ValueError("signatures cover different index sets")
    if len(a) == 0:
        return 0.0
    cols = np.array([[a.kappas, a.kappa_s], [b.kappas, b.kappa_s]])
    with np.errstate(invalid="ignore"):  # inf - inf and inf / inf give nan
        magnitudes = np.abs(cols).max(axis=2)
        overall = max(float(magnitudes.max()), 1e-300)
        if overall <= ZERO_SIGNATURE_ATOL:
            return 0.0
        scale = np.maximum(magnitudes.max(axis=0), COLUMN_FLOOR_FRACTION * overall)
        errors = np.abs(cols[0] - cols[1]).max(axis=1) / scale
    return float(errors.max())  # numpy's max, unlike Python's, keeps a nan


def signatures_close(a: Signature, b: Signature, rel_tol: float = SIGNATURE_REL_TOL) -> bool:
    return signature_max_error(a, b) <= rel_tol
