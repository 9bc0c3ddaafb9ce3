"""Congruence oracles and signature-based decision procedures.

The alignment oracle fits one least-squares witness per correspondence
(the Procrustes rotation or reflection for SE/E, the linear fit scaled to
|det| = 1 for SA/Abar) and verifies it pointwise. Cyclic modes get every
shift's least residual at once from FFT cross-covariances, O(n log n), and
verify only the shifts whose residual could pass. What the oracle needs of
one mesh alone is an entry of the mesh's derived data, built once and read
by every alignment the mesh takes part in: the frame (the centroid and the
Gram entries of the centred points, five scalars) and in cyclic modes the
forward FFT spectrum of the centred points, both in the mesh's working
units (``align``). Each decision rule is a row of RULES:
its group, its preconditions and its ordered hypothesis checks. One engine
evaluates any row; when all hypotheses hold it defers to the oracle, so a
Congruent verdict always carries a verified witness motion. NotCongruent
only ever comes from the oracle itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from . import affine
from .errors import (
    LengthMismatch,
    MeshTooShort,
    NoNonCollinearTriple,
    NotClosed,
    NotConvex,
    NotOrdinary,
)
from .euclidean import chord, chords, interior_curvatures, se_signature
from .geometry import (
    RIGHT_ANGLE_TOL,
    SPEC11,
    AngleType,
    Group,
    GroupElement,
    Mesh,
    NeighborhoodSpec,
    _frozen,
    _ldexp,
    angle_types,
    derived,
    edge_lengths,
    is_convex,
    is_equally_spaced,
    is_fine,
    is_ordinary,
    neighbor_triples,
    orient_rows,
    signed_angle,
    stencil_row,
    stencil_table,
    working_points,
)
from .signatures import SIGNATURE_REL_TOL, Scheme, abs_difference, signature_max_error

DEFAULT_POINT_TOL = 1e-6
DEFAULT_ANGLE_TOL = 1e-9
SPEC12 = NeighborhoodSpec(1, 2)
SPEC31 = NeighborhoodSpec(3, 1)
SPEC33 = NeighborhoodSpec(3, 3)


class Verdict(Enum):
    CONGRUENT = "congruent"
    NOT_CONGRUENT = "not-congruent"
    HYPOTHESES_NOT_MET = "hypotheses-not-met"


class MatchMode(Enum):
    INDEX_ALIGNED = "aligned"
    CYCLIC = "cyclic"
    CYCLIC_REVERSAL = "cyclic-reversal"


@dataclass
class CongruenceVerdict:
    status: Verdict
    witness: GroupElement | None = None
    reason: str = ""
    max_deviation: float | None = None
    correspondence: str = "identity"
    oracle_disagreement: bool = False

    @property
    def congruent(self) -> bool:
        return self.status is Verdict.CONGRUENT

    def __repr__(self) -> str:
        extra = f", reason={self.reason!r}" if self.reason else ""
        return f"CongruenceVerdict({self.status.value}{extra})"


class _Frame(NamedTuple):
    """What the oracle keeps of one mesh alone, in its working units 2^k: a read-only 2-vector and three floats."""

    mean: np.ndarray  # the centroid P.sum(axis=0) / n of the working points P
    g00: float        # the entries of G = Pcᵀ Pc, Pc = P - mean
    g01: float
    g11: float


def _build_frame(mesh: Mesh) -> _Frame:
    P = working_points(mesh).points
    mean = P.sum(axis=0) / mesh.n
    centred = P - mean
    (g00, g01), (_, g11) = (centred.T @ centred).tolist()
    return _Frame(*_frozen(mean), g00, g01, g11)


def _frame(mesh: Mesh) -> _Frame:
    """The mesh's alignment frame, built once."""
    return derived(mesh, "frame", _build_frame)


def _build_spectrum(mesh: Mesh) -> np.ndarray:
    centred = working_points(mesh).points - _frame(mesh).mean
    return _frozen(np.fft.rfft(np.ascontiguousarray(centred.T)))[0]


def _spectrum(mesh: Mesh) -> np.ndarray:
    """``np.fft.rfft`` of the centred coordinates, a read-only (2, n // 2 + 1) array in working units, built once.

    It is stored in C order, a row per coordinate, as the transform of the
    C-ordered rows: the transform of the transposed (n, 2) points would be
    column-major, and ``_shift_scan``'s products would read it strided.
    """
    return derived(mesh, "spectrum", _build_spectrum)


def _witness_maps(H: np.ndarray, p: _Frame, group: Group, j: int) -> tuple[list[np.ndarray], str]:
    """Least-squares linear parts taking centred points Pc[k] (frame p) to Qc[k], in trial order, from H = Pcᵀ Qc.

    SE/E: the Procrustes rotation (Kabsch), then for E the Procrustes
    reflection; they maximise tr(A H) by taking (1, 0) along
    (h00 + h11, h01 - h10), resp. (h00 - h11, h01 + h10). SA/Abar: the
    general-linear fit Hᵀ G⁻¹ (G = Pcᵀ Pc) scaled to |det| = 1 (Umeyama),
    as M = Hᵀ adj(G) brought into [1, 2) by a power of two, over √|det M|.
    No map changes when Pc or Qc is scaled by a power of two. SA rejects
    det <= 0, giving the general-linear fit's det in input units for Pc and
    Qc in units 2^k1 and 2^k2, j = k2 - k1. No map comes with a reason.
    """
    (h00, h01), (h10, h11) = H.tolist()
    if group in (Group.SE, Group.E):
        maps = []
        for c, s, det in ((h00 + h11, h01 - h10, 1.0), (h00 - h11, h01 + h10, -1.0))[: 1 + (group is Group.E)]:
            norm = math.hypot(c, s)  # 0 only when every orthogonal map fits equally well
            c, s = (c / norm, s / norm) if norm else (1.0, 0.0)
            maps.append(np.array([[c, -det * s], [s, det * c]]))
        return maps, ""
    g00, g01, g11 = p.g00, p.g01, p.g11
    M = (h00 * g11 - h10 * g01, h10 * g00 - h00 * g01, h01 * g11 - h11 * g01, h11 * g00 - h01 * g01)
    e = math.frexp(max(map(abs, M)))[1]
    a, b, c, d = (math.ldexp(v, 1 - e) for v in M)
    det = a * d - b * c
    if group is Group.SA and det <= 0:
        with np.errstate(over="ignore"):  # beyond the doubles when the meshes' scales are far apart
            det = float(np.ldexp(det / (g00 * g11 - g01 * g01) ** 2, 2 * (e - 1 + j)))
        return [], f"recovered map reverses orientation (det {det:.3g})"
    return ([np.array([[a, b], [c, d]]) / math.sqrt(abs(det))], "") if det else ([], "recovered map is singular")


def _shift_scan(m1: Mesh, m2: Mesh, group: Group, reversal: bool, limit: float):
    """(residual, bound, admitted) of every cyclic correspondence, in O(n log n) time and O(n) memory.

    residual[s, 0] belongs to the shift σ(k) = k + s, residual[s, 1] (with
    ``reversal``) to σ(k) = s - k: the least sum over k of
    |A pc_k + t - qc_σ(k)|² over the group's linear maps A (all of GL for
    SA/Abar, a lower bound on the unimodular fit) and translations t, where
    pc and qc are the centred points of m1 and m2, in the pair's units
    (``align``). It comes in closed form from the cross-covariances H_s,
    all found at once by FFT cross-correlation (forward) or convolution
    (reversed) of the meshes' stored spectra, and scaled from the meshes'
    own units into the pair's. Under SA/Abar the least residual does not
    change when pc is scaled, so it is taken with m1's own G. With the
    Gram traces pp = |Pc|² and qq = |Qc|², G = Pcᵀ Pc and
    κ = tr(G)²/det G (1 for SE/E), each residual is within
    bound = 8 eps (pp + qq) (√(nκ) log2(2n) + nκ) of its exact value on
    the same centred doubles: the FFT's normwise error eps·O(log n)
    (Higham, ASNA §24.1) taken entrywise, through the closed form. A
    witness within limit per coordinate leaves a residual of at most
    2n limit², so ``admitted``, the flat indices of residual within
    2n limit² + bound, holds every correspondence that could verify, up to
    the rounding of the centring and of the deviation check itself.

    The spectrum products are stacked in C order with the shift axis last,
    and the inverse FFT runs over that last axis, so the transform, every
    later pass over h and the computed residual, a C-ordered
    (1 + reversal, n) array returned as its (n, 1 + reversal) transpose,
    run on contiguous memory under every numpy: an FFT over any other axis
    returns a strided array on numpy 1.x. A strided layout gives the same
    values, only more slowly: each of those passes then walks memory out
    of order.
    """
    k1, k2 = working_points(m1).k, working_points(m2).k
    K, n, (_, g00, g01, g11), q, fp, fq = max(k1, k2), m1.n, _frame(m1), _frame(m2), _spectrum(m1), _spectrum(m2)
    spectra = [fp.conj()[:, None] * fq] + ([fp[:, None] * fq] if reversal else [])
    h = np.fft.irfft(np.stack(spectra, axis=2), n)  # in units 2^(k1 + k2), C-ordered (2, 2, 1 + reversal, n)
    pp, qq = math.ldexp(g00 + g11, 2 * (k1 - K)), math.ldexp(q.g00 + q.g11, 2 * (k2 - K))
    if group in (Group.SE, Group.E):
        h00, h01, h10, h11 = _ldexp(h, k1 + k2 - 2 * K).reshape(4, -1, n)
        fit = np.hypot(h00 + h11, h01 - h10)
        if group is Group.E:
            fit = np.maximum(fit, np.hypot(h00 - h11, h01 + h10))
        residual, kappa = pp + qq - 2.0 * fit, 1.0
    else:
        h00, h01, h10, h11 = h.reshape(4, -1, n)
        det = g00 * g11 - g01 * g01
        fit = g11 * (h00 * h00 + h01 * h01) - 2.0 * g01 * (h00 * h10 + h01 * h11) + g00 * (h10 * h10 + h11 * h11)
        residual, kappa = qq - _ldexp(fit / det, 2 * (k2 - K)), (g00 + g11) ** 2 / det
    bound = 8.0 * math.ulp(1.0) * (pp + qq) * (math.sqrt(n * kappa) * math.log2(2 * n) + n * kappa)
    residual = residual.T  # residual[s, rev]; its flat indices s (1 + reversal) + rev
    return residual, bound, np.flatnonzero(residual <= 2 * n * limit ** 2 + bound)


def _cyclic_rows(X: np.ndarray, shift: int, rev: bool) -> np.ndarray:
    """X[σ(k)] for k in [0, n): σ(k) = (shift - k) mod n with rev, else (k + shift) mod n; read as two slices.

    X itself for the identity, else one copy of the two slices joined.
    """
    if rev:
        return np.concatenate((X[shift::-1], X[:shift:-1]))
    return np.concatenate((X[shift:], X[:shift])) if shift else X


def align(
    m1: Mesh,
    m2: Mesh,
    group: Group,
    mode: MatchMode = MatchMode.INDEX_ALIGNED,
    tol: float = DEFAULT_POINT_TOL,
) -> CongruenceVerdict:
    """Congruence oracle: fit a least-squares witness motion and verify it pointwise.

    A correspondence's witness is the group's least-squares linear map of
    the centred point sets (``_witness_maps``) with the translation carrying
    centroid to centroid. Cyclic modes scan all shifts at once
    (``_shift_scan``) and verify only the admitted ones, in the order
    identity, reversed shift+0, shift+1, reversed shift+1, ...; when none is
    admitted, the least-residual shift is verified to report its deviation.
    The arguments are checked first, in this order: equal point counts,
    cusp-free meshes, closed meshes for the cyclic modes.

    Everything is compared in the pair's working units 2^K, K = max(k1, k2)
    of the meshes' working exponents (:func:`geometry.working_points`). The
    fits read each mesh's stored frame and spectrum, and its centred points
    formed once per call, in its own units; only frame scalars and the
    arrays compared at the end are scaled to 2^K, exactly. The witness's
    translation, the maximum deviation and the numbers of the reason are
    scaled back to input units. Under SE/E, meshes whose diameters differ by
    more than 2√2 limit + 64 eps (M + scale) are rejected at once, M the
    largest working coordinate magnitude: a witness within limit per
    coordinate moves each point by at most √2 limit, and 64 eps (M + scale)
    covers the rounding of the diameters and of the deviation check. Under
    SA/Abar, NoNonCollinearTriple is raised when the first mesh's G = Pcᵀ Pc
    is singular: det G <= n eps tr(G)², the rounding of its entries. The
    meshes' frames and spectra are built only after these checks, once per
    mesh.

    Parameters
    ----------
    m1, m2 : Mesh
        Ordinary meshes with the same point count.
    group : Group
        Transformation group the witness must belong to.
    mode : MatchMode
        Index correspondence; cyclic modes (closed meshes only) also try
        index rotations and optionally reversal.
    tol : float
        Maximum pointwise deviation, relative to the larger mesh diameter.

    Returns
    -------
    CongruenceVerdict
        Congruent with the verified witness, or NotCongruent with the
        reason of the last correspondence tried.
    """
    if m1.n != m2.n:
        raise LengthMismatch(f"point counts differ: {m1.n} vs {m2.n}")
    if not is_ordinary(m1) or not is_ordinary(m2):
        raise NotOrdinary("alignment requires cusp-free meshes")
    if mode is not MatchMode.INDEX_ALIGNED and not (m1.closed and m2.closed):
        raise NotClosed("cyclic match modes require closed meshes")
    (k1, P1, big1), (k2, P2, big2) = working_points(m1), working_points(m2)
    n, K = m1.n, max(k1, k2)  # the pair's working units are 2^K
    d1, d2 = math.ldexp(m1.diameter, -K), math.ldexp(m2.diameter, -K)
    limit = tol * max(d1, d2)
    if group in (Group.SE, Group.E):
        rounding = 64 * math.ulp(1.0) * (max(math.ldexp(big1, k1 - K), math.ldexp(big2, k2 - K)) + max(d1, d2))
        if abs(d1 - d2) > 2 * math.sqrt(2) * limit + rounding:
            return CongruenceVerdict(Verdict.NOT_CONGRUENT, reason="diameters differ")
    p, q = _frame(m1), _frame(m2)
    if group in (Group.SA, Group.ABAR) and p.g00 * p.g11 - p.g01 * p.g01 <= n * math.ulp(1.0) * (p.g00 + p.g11) ** 2:
        raise NoNonCollinearTriple("mesh points are collinear")
    Pc, Qc = P1 - p.mean, P2 - q.mean  # each in its own units
    P, Q = _ldexp(P1, k1 - K), _ldexp(P2, k2 - K)
    mean1, mean2 = _ldexp(p.mean, k1 - K), _ldexp(q.mean, k2 - K)
    order, width = [0], 1
    if mode is not MatchMode.INDEX_ALIGNED:
        residual, _, order = _shift_scan(m1, m2, group, mode is MatchMode.CYCLIC_REVERSAL, limit)
        order, width = order if len(order) else [residual.argmin()], residual.shape[1]
    for shift, rev in (divmod(int(j), width) for j in order):
        tag = f"reversed shift+{shift}" if rev else f"shift+{shift}" if shift else "identity"
        maps, why = _witness_maps(Pc.T @ _cyclic_rows(Qc, shift, rev), p, group, k2 - k1)
        matched = _cyclic_rows(Q, shift, rev)
        for linear in maps:
            translation = mean2 - linear @ mean1
            deviation = float(np.abs(P @ linear.T + translation - matched).max())
            if deviation <= limit:  # translation and deviation back in input units
                witness = GroupElement(linear, _ldexp(translation, K), group)
                return CongruenceVerdict(Verdict.CONGRUENT, witness=witness, max_deviation=math.ldexp(deviation, K),
                                         correspondence=tag)
            why = f"max deviation {math.ldexp(deviation, K):.3e} over {math.ldexp(limit, K):.3e}"
        reason = f"{why} ({tag})"
    return CongruenceVerdict(Verdict.NOT_CONGRUENT, reason=reason)


def _hyp_fail(reason: str) -> CongruenceVerdict:
    return CongruenceVerdict(Verdict.HYPOTHESES_NOT_MET, reason=reason)


def _finish_with_oracle(
    m1: Mesh, m2: Mesh, group: Group, tol: float
) -> CongruenceVerdict:
    verdict = align(m1, m2, group, MatchMode.INDEX_ALIGNED, tol)
    if verdict.congruent:
        return verdict
    verdict.reason = f"hypotheses satisfied but alignment refutes congruence: {verdict.reason}"
    verdict.oracle_disagreement = True
    return verdict


def _values_differ(v1, v2, tol, what: str, centers=None) -> str | None:
    """Why v1 and v2 differ, naming the worst position k as centers[k] (as k itself without centers), or None."""
    v = np.array([v1, v2], float)
    with np.errstate(invalid="ignore"):  # inf - inf gives nan
        scale = max(float(np.abs(v).max()), 1e-300)
        diff = np.abs(v[0] - v[1])
    err = float(diff.max())
    if not err <= tol * scale:  # "not <=", so that an inf or nan difference differs
        k = int(diff.argmax())
        return f"{what} differ (max relative error {err / scale:.3e} at index {k if centers is None else centers[k]})"
    return None


def _first_event(*events: np.ndarray) -> tuple[int, int] | None:
    """(k, e): the first position k where any event holds, and the first event e holding there."""
    hits = np.stack(events)
    k = np.flatnonzero(hits.any(axis=0))
    return None if not len(k) else (int(k[0]), int(np.argmax(hits[:, k[0]])))


def _signed_angles(mesh: Mesh, spec: NeighborhoodSpec) -> np.ndarray:
    """signed_angle at every center of the spec's interior, whose arms the rules reading it never let be zero."""
    table = stencil_table(mesh, spec)
    return table.sign * table.theta


# Preconditions, called as (m1, m2), and hypothesis checks, called as
# (m1, m2, p) with the rule parameters p. A check over every index finds the
# first failing one from arrays and raises there what the per-index
# predicates of geometry raise.

def _check_counts(m1: Mesh, m2: Mesh) -> None:
    if m1.n != m2.n:
        raise LengthMismatch(f"point counts differ: {m1.n} vs {m2.n}")
    if m1.closed != m2.closed:
        raise LengthMismatch("one mesh is closed, the other open")


def _closed(m1: Mesh, m2: Mesh) -> None:
    if not (m1.closed and m2.closed):
        raise NotClosed("the traversal rule applies to closed meshes only")


def _ordinary_convex(m1: Mesh, m2: Mesh) -> None:
    if not (is_ordinary(m1) and is_ordinary(m2)):
        raise NotOrdinary("affine decision requires cusp-free meshes")
    if not (is_convex(m1) and is_convex(m2)):
        raise NotConvex("affine decision requires convex meshes")


def _both(test, reason: str):
    """test(mesh, p) holds on the first mesh and then on the second."""
    return lambda m1, m2, p: None if test(m1, p) and test(m2, p) else reason


_NOT_FINE = "a mesh is not fine (has a non-obtuse interior angle)"
_ORDINARY = _both(lambda m, p: is_ordinary(m), "a mesh has a cusp")
_EQUALLY_SPACED = _both(lambda m, p: is_equally_spaced(m), "a mesh is not equally spaced")


def _equal(values, tol: str, what: str, reach: tuple[int, int] | None = None):
    """values(m1) and values(m2) agree within p[tol]; a difference names center m1.interior(*reach)[k], or edge k."""
    return lambda m1, m2, p: _values_differ(values(m1), values(m2), p[tol], what, reach and m1.interior(*reach))


def _same_directions(m1, m2, p):
    centers = m1.interior()
    s1, s2 = (stencil_table(m).sign for m in (m1, m2))
    hit = _first_event((s1 == 0) | (s2 == 0), s1 != s2)
    if hit is None:
        return None
    what = ("signature-direction undefined", "signature-directions differ")[hit[1]]
    return f"{what} at index {centers[hit[0]]}"


def _angle_types(spec: NeighborhoodSpec, signed: bool):
    """Equal angle types (with equal signature signs when signed) of the spec's triples at every center."""
    what = "signed angle type" if signed else "angle type"

    def types(mesh, band):
        table = stencil_table(mesh, spec)
        kind = np.where(table.zero_arm, 0, angle_types(table.theta, band))  # 0 where undefined or an arm is zero
        return table.sign * kind if signed else kind

    def check(m1, m2, p):
        t1, t2 = (types(m, p["right_tol"]) for m in (m1, m2))
        bad = np.flatnonzero((t1 == 0) | (t2 == 0) | (t1 != t2))
        if not len(bad):
            return None
        i = m1.interior(spec.m1, spec.m2)[bad[0]]
        for m, t in ((m1, t1), (m2, t2)):
            if not t[stencil_row(m, i, spec, "angle")[1]]:  # DegenerateArm where an arm is zero
                return f"{what} undefined at index {i}"
        if signed:
            return f"signed angle types differ at index {i}"
        a1, a2 = (list(AngleType)[t[bad[0]] - 1].value for t in (t1, t2))
        return f"angle types differ at index {i} ({a1} vs {a2})"

    return check


def _half_turn_angles(m1, m2, p):
    th1, th2 = (_signed_angles(m, SPEC11) for m in (m1, m2))
    bad = np.flatnonzero(~((0.0 < th1) & (th1 < np.pi) & (0.0 < th2) & (th2 < np.pi)))
    return f"signed angle outside (0, pi) at index {m1.interior()[int(bad[0])]}" if len(bad) else None


def _open_at_least(n: int, message: str):
    def check(m1, m2, p):
        if not m1.closed and m1.n < n:
            raise MeshTooShort(message)

    return check


def _closed_above(n: int, spec: NeighborhoodSpec):
    """A closed mesh of at most n points wraps the spec's stencil onto itself."""
    why = "a closed mesh of n = {} points wraps the ({},{}) stencil onto itself"
    return lambda m1, m2, p: why.format(m1.n, spec.m1, spec.m2) if m1.closed and m1.n <= n else None


def _closing_chord(m1, m2, p):
    n = m1.n
    if m1.closed or abs(chord(m1, n - 4, n - 1) - chord(m2, n - 4, n - 1)) <= p["sig_tol"] * max(m1.diameter, m2.diameter):
        return None
    return f"closing (1,2)-span chords |p[{n - 4}] - p[{n - 1}]| differ"


def _end_angles(m1, m2, p):
    if m1.closed:
        return None
    e1, e2 = ([signed_angle(m, i, SPEC33) for i in (3, m.n - 4)] for m in (m1, m2))
    return _values_differ(e1, e2, p["angle_tol"], "end signed 3-angles", (3, m1.n - 4))


def _obtuse_start(m1, m2, p):
    if m1.closed or all(signed_angle(m, 3, SPEC33) >= np.pi / 2.0 for m in (m1, m2)):
        return None
    return "starting signed 3-angle below pi/2"


def _step3_complete(m1, m2, p):
    # the step-3 walk round n points is complete exactly when gcd(3, n) = 1 (host.traverse)
    if m1.n % 3:
        return None
    return f"step-3 traversal incomplete: n = {m1.n} is divisible by 3"


def _signatures(signature, too_short_holds: bool):
    """Equal signatures; with too_short_holds, a mesh too short for any row satisfies the condition."""

    def check(m1, m2, p):
        try:
            s1, s2 = signature(m1), signature(m2)
        except MeshTooShort:
            if too_short_holds:
                return None
            raise
        err = signature_max_error(s1, s2)
        return None if err <= p["sig_tol"] else f"{s1.scheme.label} signatures differ (max relative error {err:.3e})"

    return check


def _se_signatures(scheme: Scheme, spec: NeighborhoodSpec = SPEC11):
    return _signatures(lambda m: se_signature(m, scheme, spec), too_short_holds=True)


def _affine_fine(m1, m2, p):
    affine.build_blocks(m1, m2)  # both blocks in one pass, though the first mesh may decide alone
    return None if affine.is_affine_fine(m1) and affine.is_affine_fine(m2) else "a mesh is not affine-fine"


def _nonzero_curvature(m1, m2, p):
    interior = affine.affine_fine_interior(m1)
    zeros = [np.abs(affine.interior_curvatures(m)) <= affine.PARABOLIC_TOL for m in (m1, m2)]
    for zero, which in zip(zeros, ("", " (second mesh)")):
        if zero.any():
            return f"curvature vanishes at index {interior[int(np.argmax(zero))]}{which}"
    return None


def _zero_curvature_areas(m1, m2, p):
    affine.build_blocks(m1, m2)
    interior = affine.affine_fine_interior(m1)
    za, zb = (np.abs(affine.interior_curvatures(m)) <= affine.PARABOLIC_TOL for m in (m1, m2))
    t1, t2 = (_ldexp(np.abs(orient_rows(*neighbor_triples(m, interior))) / 2.0, 2 * working_points(m).k)
              for m in (m1, m2))
    scale = np.maximum(np.maximum(t1, t2), 1e-300)
    bad = np.flatnonzero((za != zb) | (za & ~(abs_difference(t1, t2) <= p["sig_tol"] * scale)))
    if not len(bad):
        return None
    k = int(bad[0])
    if za[k] != zb[k]:
        return f"zero-curvature points do not correspond at index {interior[k]}"
    return f"one-neighborhood areas differ at zero-curvature index {interior[k]}"


def _arc_length_sets(m1, m2, p):
    interior, sig_tol = affine.affine_fine_interior(m1), p["sig_tol"]
    (a1, ok1), (a2, ok2) = affine.interior_arc_length_sets(m1), affine.interior_arc_length_sets(m2)
    scale = np.maximum(np.maximum(a1.max(axis=1), a2.max(axis=1)), 1e-300)
    differ = ~(abs_difference(a1, a2).max(axis=1) <= sig_tol * scale)
    bad = np.flatnonzero(~(ok1 & ok2) | differ)
    if not len(bad):
        return None
    # the first row that raises or differs decides
    s1, s2 = (affine.arc_length_set(m, interior[int(bad[0])]) for m in (m1, m2))
    return _values_differ(s1.values, s2.values, sig_tol, f"arc-length sets at {s1.at}")


@dataclass(frozen=True)
class _Choice:
    """The checks one option of a rule selects, by the option's value."""

    option: str
    cases: dict

    def __call__(self, m1, m2, p):
        return _first_failure(self.cases[p[self.option]], m1, m2, p)


@dataclass(frozen=True)
class Rule:
    """A decision rule: the group it decides, its preconditions and its ordered hypothesis checks.

    The preconditions run first and raise when the rule does not apply. A
    check returns the reason its hypothesis fails, or None; the first
    failure gives the HYPOTHESES_NOT_MET verdict, and when every check
    holds the alignment oracle decides in the rule's group.
    """

    group: Group
    preconditions: tuple
    checks: tuple

    @property
    def options(self) -> dict:
        """Each option of the rule, with the values it accepts."""
        return {c.option: tuple(c.cases) for c in self.checks if isinstance(c, _Choice)}


def _first_failure(checks, m1, m2, p) -> str | None:
    for check in checks:
        if (why := check(m1, m2, p)) is not None:
            return why
    return None


_THREE_STEP = (
    _angle_types(SPEC33, signed=True),
    _equal(lambda m: chords(m, -3, 0, m.interior(3, 0)), "sig_tol", "3-step chord sequences", (3, 0)),
    _se_signatures(Scheme.EQ4, SPEC33),
)
_SA_PRECONDITIONS = (_check_counts, _ordinary_convex)
_AFFINE_TAIL = (_arc_length_sets, _signatures(lambda m: affine.sa_signature(m, Scheme.EQ6), too_short_holds=False))

RULES = {
    "thm3.3": Rule(Group.SE, (_check_counts,), (
        _ORDINARY,
        _equal(edge_lengths, "tol", "edge length sequences"),
        _equal(lambda m: _signed_angles(m, SPEC11), "angle_tol", "signed angle sequences", (1, 1)),
    )),
    "thm4.9": Rule(Group.SE, (_check_counts,), (
        _ORDINARY, _EQUALLY_SPACED, _same_directions, _se_signatures(Scheme.EQ1),
    )),
    "thm4.14": Rule(Group.SE, (_check_counts,), (
        _ORDINARY, _EQUALLY_SPACED, _same_directions,
        _Choice("fine_variant", {
            False: (_angle_types(SPEC11, signed=False),),
            True: (_both(lambda m, p: is_fine(m, p["right_tol"]), _NOT_FINE),),
        }),
        _se_signatures(Scheme.EQ2),
    )),
    "thm4.18": Rule(Group.SE, (_check_counts,), (
        _ORDINARY, _EQUALLY_SPACED,
        _Choice("curvature_only", {
            False: (_angle_types(SPEC11, signed=True), _se_signatures(Scheme.EQ2)),
            True: (
                _half_turn_angles,
                _equal(lambda m: _signed_angles(m, SPEC11), "angle_tol", "signed angles", (1, 1)),
                _equal(interior_curvatures, "sig_tol", "curvature sequences", (1, 1)),
            ),
        }),
    )),
    "thm4.25": Rule(Group.SE, (_check_counts,), (
        _ORDINARY,
        _equal(lambda m: chords(m, -1, 1, m.interior()), "sig_tol", "centered chord sequences", (1, 1)),
        _angle_types(SPEC12, signed=True),
        _open_at_least(4, "the closing-chord condition needs at least 4 points"),
        _se_signatures(Scheme.EQ3, SPEC12),
        _closing_chord,
    )),
    "thm4.26": Rule(Group.SE, (_check_counts,), (
        _ORDINARY,
        _open_at_least(8, "EQ4 needs more than 7 points on an open mesh"),
        _closed_above(4, SPEC31),
        _equal(lambda m: interior_curvatures(m, SPEC31), "sig_tol", "(3,1)-curvature sequences", (3, 1)),
        _equal(lambda m: _signed_angles(m, SPEC31), "angle_tol", "signed (3,1)-angles", (3, 1)),
        *_THREE_STEP,
        _Choice("endpoint_rule", {"equal-end-angles": (_end_angles,), "obtuse-start": (_obtuse_start,)}),
    )),
    "thm5.7": Rule(Group.SA, _SA_PRECONDITIONS, (_affine_fine, _nonzero_curvature, *_AFFINE_TAIL)),
    "thm5.8": Rule(Group.SA, _SA_PRECONDITIONS, (_affine_fine, _zero_curvature_areas, *_AFFINE_TAIL)),
    "cor5.9": Rule(Group.SA, _SA_PRECONDITIONS, (
        _both(lambda m, p: is_fine(m, p["right_tol"]), _NOT_FINE), _zero_curvature_areas, *_AFFINE_TAIL,
    )),
    # thm4.26's closed-mesh checks less the (3,1) ones, gated on a complete step-3 walk
    "host": Rule(Group.SE, (_closed, _check_counts), (
        _ORDINARY, _closed_above(3, SPEC33), _step3_complete, *_THREE_STEP,
    )),
}

_DEFAULTS = {
    "sig_tol": SIGNATURE_REL_TOL, "tol": DEFAULT_POINT_TOL, "right_tol": RIGHT_ANGLE_TOL,
    "angle_tol": DEFAULT_ANGLE_TOL, "fine_variant": False, "curvature_only": False, "endpoint_rule": "equal-end-angles",
}


def _decide(via: str, m1: Mesh, m2: Mesh, **params) -> CongruenceVerdict:
    """Evaluate the rule RULES[via] on the pair; params override _DEFAULTS.

    Option values are checked before anything else: an unknown one raises
    ValueError.
    """
    rule, p = RULES[via], {**_DEFAULTS, **params}
    for option, values in rule.options.items():
        if p[option] not in values:
            raise ValueError(f"unknown {option.replace('_', ' ')} {p[option]!r}")
    for precondition in rule.preconditions:
        precondition(m1, m2)
    if (why := _first_failure(rule.checks, m1, m2, p)) is not None:
        return _hyp_fail(why)
    return _finish_with_oracle(m1, m2, rule.group, p["tol"])


def decide_eq1(m1: Mesh, m2: Mesh, sig_tol: float = SIGNATURE_REL_TOL, tol: float = DEFAULT_POINT_TOL) -> CongruenceVerdict:
    """Equal spacing + matching signature-directions + equal forward signatures (rule thm4.9)."""
    return _decide("thm4.9", m1, m2, sig_tol=sig_tol, tol=tol)


def decide_eq2_angle_type(m1: Mesh, m2: Mesh, fine_variant: bool = False, sig_tol: float = SIGNATURE_REL_TOL,
                          tol: float = DEFAULT_POINT_TOL, right_tol: float = RIGHT_ANGLE_TOL) -> CongruenceVerdict:
    """Equal spacing + signature-directions + angle types + centered signatures (rule thm4.14).

    With ``fine_variant`` the per-point angle-type condition is replaced by
    requiring both meshes to be fine (all interior angles obtuse).
    """
    return _decide("thm4.14", m1, m2, fine_variant=fine_variant, sig_tol=sig_tol, tol=tol, right_tol=right_tol)


def decide_eq2_signed(m1: Mesh, m2: Mesh, curvature_only: bool = False, sig_tol: float = SIGNATURE_REL_TOL,
                      tol: float = DEFAULT_POINT_TOL, right_tol: float = RIGHT_ANGLE_TOL,
                      angle_tol: float = DEFAULT_ANGLE_TOL) -> CongruenceVerdict:
    """Equal spacing + signed angle types + centered signatures (rule thm4.18).

    With ``curvature_only`` the signature condition is dropped: equal signed
    angle values in (0, pi) plus equal curvature sequences suffice.
    """
    return _decide("thm4.18", m1, m2, curvature_only=curvature_only, sig_tol=sig_tol, tol=tol,
                   right_tol=right_tol, angle_tol=angle_tol)


def decide_eq3(m1: Mesh, m2: Mesh, sig_tol: float = SIGNATURE_REL_TOL, tol: float = DEFAULT_POINT_TOL,
               right_tol: float = RIGHT_ANGLE_TOL) -> CongruenceVerdict:
    """Centered-chord sequence + signed (1,2)-angle types + EQ3 signatures (rule thm4.25).

    Open meshes additionally require the closing (1,2)-span chord
    |p[n-4] - p[n-1]| to agree, extending congruence to the final point.
    """
    return _decide("thm4.25", m1, m2, sig_tol=sig_tol, tol=tol, right_tol=right_tol)


def decide_eq4(m1: Mesh, m2: Mesh, endpoint_rule: str = "equal-end-angles", sig_tol: float = SIGNATURE_REL_TOL,
               tol: float = DEFAULT_POINT_TOL, right_tol: float = RIGHT_ANGLE_TOL,
               angle_tol: float = DEFAULT_ANGLE_TOL) -> CongruenceVerdict:
    """(3,1)-curvatures and signed angles + 3-step data + EQ4 signatures (rule thm4.26).

    Open meshes need an endpoint rule: "equal-end-angles" compares the
    signed 3-angles at both ends, "obtuse-start" instead requires the
    starting signed 3-angle of both meshes to be at least pi/2.
    """
    return _decide("thm4.26", m1, m2, endpoint_rule=endpoint_rule, sig_tol=sig_tol, tol=tol,
                   right_tol=right_tol, angle_tol=angle_tol)


def decide_affine(m1: Mesh, m2: Mesh, variant: str = "thm5.7", sig_tol: float = SIGNATURE_REL_TOL,
                  tol: float = DEFAULT_POINT_TOL) -> CongruenceVerdict:
    """Equiaffine decision rules over arc-length sets and EQ6 signatures.

    variant "thm5.7": both meshes affine-fine with nowhere-zero curvature;
    "thm5.8": affine-fine, zero-curvature points allowed when the matching
    one-neighborhood triangle areas agree; "cor5.9": as 5.8 with Euclidean
    fineness replacing affine fineness.
    """
    if variant not in ("thm5.7", "thm5.8", "cor5.9"):
        raise ValueError(f"unknown affine variant {variant!r}")
    return _decide(variant, m1, m2, sig_tol=sig_tol, tol=tol)


def decide_dist_angle(m1: Mesh, m2: Mesh, tol: float = DEFAULT_POINT_TOL,
                      angle_tol: float = DEFAULT_ANGLE_TOL) -> CongruenceVerdict:
    """Baseline rule: equal edge lengths and equal signed angles force congruence (rule thm3.3)."""
    return _decide("thm3.3", m1, m2, tol=tol, angle_tol=angle_tol)


# ---------------------------------------------------------------------------
# Counterexample generators
# ---------------------------------------------------------------------------

def _circle_points(angles, radius=1.0, center=(0.0, 0.0)):
    angles = np.asarray(angles, dtype=float)
    return np.column_stack(
        [center[0] + radius * np.cos(angles), center[1] + radius * np.sin(angles)]
    )


def _counterexample_ex1(angles_a=(0.0, 1.2, 2.4), angles_b=(0.0, 0.9, 2.4)):
    """Two 3-point unit-circle samplings: equal curvature 1, not congruent."""
    a = Mesh(_circle_points(angles_a), label="ex1-a")
    b = Mesh(_circle_points(angles_b), label="ex1-b")
    report = {
        "id": "ex1",
        "designated": "curvature at the middle point equals 1 on both meshes",
        "expected": {"align_se": "not-congruent", "align_e": "not-congruent"},
        "notes": ["different chord patterns on the same unit circle"],
    }
    return a, b, report


def _counterexample_ex2(radius=1.0, half_arc=0.8):
    """Equally spaced 3-point arcs of the same radius, mirror images."""
    mid = np.pi / 2.0
    pts = _circle_points([mid - half_arc, mid, mid + half_arc], radius=radius)
    a = Mesh(pts, label="ex2-a")
    b = Mesh(pts * np.array([1.0, -1.0]), label="ex2-b")
    report = {
        "id": "ex2",
        "designated": f"curvature 1/{radius} at the middle point of both meshes",
        "expected": {"align_se": "not-congruent", "align_e": "congruent"},
        "notes": ["a reflection maps one mesh onto the other; no rotation does"],
    }
    return a, b, report


def _counterexample_ex3(big_radius=1.0, small_radius=0.5, span_chord=1.0):
    """5-point meshes with curvature pattern (1/R, 1/R, 1/r) and equal d(p1, p3).

    Both meshes share p0..p3 (placed so p2 and p3 sit exactly on the x axis);
    the second mesh reflects p4 across that axis. The reflection preserves
    the last curvature bitwise, so the centered signatures match to the bit,
    while no motion fixing four non-collinear points can move p4.
    """
    R, r = float(big_radius), float(small_radius)
    two_step = float(span_chord)
    if two_step >= 2.0 * R:
        raise ValueError("span chord must be shorter than the big diameter")
    delta = np.arcsin(two_step / (2.0 * R))       # one-step central angle on the R-circle
    step = 2.0 * R * np.sin(delta / 2.0)          # edge length
    if step >= 2.0 * r:
        raise ValueError("edge too long for the small circle")
    h = np.sqrt(R * R - step * step / 4.0)
    center_big = np.array([step / 2.0, -h])
    phi2 = np.arctan2(h, -step / 2.0)
    p0 = center_big + R * np.array([np.cos(phi2 + 2 * delta), np.sin(phi2 + 2 * delta)])
    p1 = center_big + R * np.array([np.cos(phi2 + delta), np.sin(phi2 + delta)])
    p2 = np.array([0.0, 0.0])
    p3 = np.array([step, 0.0])
    m = np.sqrt(r * r - step * step / 4.0)
    center_small = np.array([step / 2.0, -m])
    psi3 = np.arctan2(m, step / 2.0)
    delta_r = 2.0 * np.arcsin(step / (2.0 * r))
    p4 = center_small + r * np.array([np.cos(psi3 - delta_r), np.sin(psi3 - delta_r)])
    pts_a = np.array([p0, p1, p2, p3, p4])
    pts_b = pts_a.copy()
    pts_b[4, 1] = -pts_b[4, 1]
    a = Mesh(pts_a, label="ex3-a")
    b = Mesh(pts_b, label="ex3-b")
    report = {
        "id": "ex3",
        "designated": "eq2 signatures agree bit for bit (curvature pattern R, R, r)",
        "expected": {"align_se": "not-congruent", "align_e": "not-congruent"},
        "notes": [
            "signature-directions differ at index 3, so the equal-spacing decision rules report unmet hypotheses",
            f"parameters: R={R}, r={r}, d(p1, p3)={two_step}",
        ],
    }
    return a, b, report


def _counterexample_affine():
    """Conic-spliced convex mesh versus its mirror image.

    Curvatures, arc-length sets and the centered equiaffine signature are
    reflection-invariant, yet the unique linear map matching the meshes has
    determinant -1, so they are not equiaffinely congruent.
    """
    t = np.array([0.35, 0.75, 1.15, 1.55, 1.95])
    on_ellipse = np.column_stack([2.0 * np.cos(t), np.sin(t)])
    tail = np.array([[-1.50, 0.72], [-2.00, 0.30]])
    pts = np.vstack([on_ellipse, tail])
    a = Mesh(pts, label="affine-a")
    b = Mesh(pts * np.array([1.0, -1.0]), label="affine-b")
    report = {
        "id": "affine",
        "designated": "curvature sequences and arc-length sets agree at every interior point",
        "expected": {"align_sa": "not-congruent", "align_abar": "congruent"},
        "notes": ["orientation-reversing unimodular maps preserve all the compared invariants"],
    }
    return a, b, report


_COUNTEREXAMPLES = {
    "ex1": _counterexample_ex1,
    "ex2": _counterexample_ex2,
    "ex3": _counterexample_ex3,
    "affine": _counterexample_affine,
}


def counterexample(case: str, **params):
    """Deterministic counterexample pair and its expected-verdict report.

    case is one of "ex1", "ex2", "ex3", "affine"; keyword parameters
    override the fixed defaults of the chosen construction.
    """
    try:
        builder = _COUNTEREXAMPLES[case.lower()]
    except KeyError:
        raise ValueError(f"unknown counterexample {case!r}; expected ex1, ex2, ex3 or affine") from None
    return builder(**params)


def classification_meshes(kappa: float, d_end: float):
    """All congruence classes of equally spaced 3-point meshes with data (kappa, d_end).

    d_end is the first-to-last distance. When kappa * d_end = 2 the chord is
    a diameter and exactly two (mirror) classes exist; otherwise four:
    minor/major arc placement of the middle point times orientation.
    """
    if kappa <= 0 or d_end <= 0:
        raise ValueError("kappa and d_end must be positive")
    product = kappa * d_end
    if product > 2.0 + 1e-9:
        raise ValueError(f"kappa * d_end = {product!r} > 2: no such circle chord")
    R = 1.0 / kappa
    base = [np.array([-d_end / 2.0, 0.0]), None, np.array([d_end / 2.0, 0.0])]
    if abs(product - 2.0) <= 1e-9:
        heights = [R, -R]
    else:
        h = np.sqrt(R * R - d_end * d_end / 4.0)
        heights = [R - h, -(R - h), R + h, -(R + h)]
    meshes = []
    for k, y in enumerate(heights):
        pts = np.array([base[0], [0.0, y], base[2]])
        meshes.append(Mesh(pts, label=f"class-{k + 1}"))
    return meshes
