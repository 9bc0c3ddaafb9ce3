"""Congruence oracles and signature-based decision procedures.

The alignment oracle exploits that the group actions are free: a single edge
(SE/E) or a single non-collinear triple (SA/Abar) determines the only
candidate motion, which is then verified pointwise. Decision procedures
check their rule's hypotheses; when all hold they defer to the oracle, so a
Congruent verdict always carries a verified witness motion. NotCongruent
only ever comes from the oracle itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import affine
from .errors import (
    LengthMismatch,
    MeshTooShort,
    NoNonCollinearTriple,
    NotClosed,
    NotConvex,
    NotOrdinary,
    OutOfDomain,
)
from .euclidean import chord, interior_curvatures, se_signature
from .geometry import (
    SPEC11,
    Group,
    GroupElement,
    Mesh,
    NeighborhoodSpec,
    SigDirection,
    angle,
    angle_type,
    edge_lengths,
    is_convex,
    is_equally_spaced,
    is_fine,
    is_ordinary,
    neighbor_triples,
    orient,
    orient_rows,
    signature_direction,
    signed_angle,
    signed_angle_type,
)
from .signatures import SIGNATURE_REL_TOL, Scheme, signature_max_error

DEFAULT_POINT_TOL = 1e-6
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


def _correspondences(n: int, mode: MatchMode, closed: bool):
    if mode is not MatchMode.INDEX_ALIGNED and not closed:
        raise NotClosed("cyclic match modes require closed meshes")
    base = np.arange(n)
    yield base, "identity"
    if mode is MatchMode.INDEX_ALIGNED:
        return
    for shift in range(n):
        if shift:
            yield (base + shift) % n, f"shift+{shift}"
        if mode is MatchMode.CYCLIC_REVERSAL:
            yield (shift - base) % n, f"reversed shift+{shift}"


def _euclidean_candidates(p0, p1, q0, q1, group: Group, scale: float, tol: float):
    dp = p1 - p0
    dq = q1 - q0
    if abs(np.linalg.norm(dp) - np.linalg.norm(dq)) > tol * scale:
        return None, "first edge lengths differ"
    candidates = []
    ang = np.arctan2(dq[1], dq[0]) - np.arctan2(dp[1], dp[0])
    c, s = np.cos(ang), np.sin(ang)
    candidates.append(np.array([[c, -s], [s, c]]))
    if group is Group.E:
        # reflective candidate: mirror across the x axis, then rotate
        ang_m = np.arctan2(dq[1], dq[0]) - np.arctan2(-dp[1], dp[0])
        c, s = np.cos(ang_m), np.sin(ang_m)
        candidates.append(np.array([[c, -s], [s, c]]) @ np.diag([1.0, -1.0]))
    return candidates, ""


def _anchor_triple(P: np.ndarray):
    """(pick, orientation, edge matrix) of P's first non-collinear consecutive triple.

    None when every consecutive triple is collinear. It depends on P only,
    so a cyclic scan computes it once, not once per shift.
    """
    area_tol = 1e-9 * _pointset_scale(P) ** 2
    o = orient_rows(P[:-2], P[1:-1], P[2:])
    hits = np.flatnonzero(np.abs(o) > area_tol)
    if not len(hits):
        return None
    pick = int(hits[0])
    return pick, float(o[pick]), np.column_stack([P[pick + 1] - P[pick], P[pick + 2] - P[pick]])


def _unimodular_candidate(P: np.ndarray, Q: np.ndarray, group: Group, scale: float, tol: float, triple):
    if triple is None:
        raise NoNonCollinearTriple("mesh has no non-collinear consecutive triple")
    pick, op, dp = triple
    oq = orient(Q[pick], Q[pick + 1], Q[pick + 2])
    if group is Group.SA:
        if abs(op - oq) > tol * scale ** 2:
            return None, f"triangle areas differ at triple {pick}"
    else:
        if abs(abs(op) - abs(oq)) > tol * scale ** 2:
            return None, f"unsigned triangle areas differ at triple {pick}"
    dq = np.column_stack([Q[pick + 1] - Q[pick], Q[pick + 2] - Q[pick]])
    linear = dq @ np.linalg.inv(dp)
    det = float(np.linalg.det(linear))
    if group is Group.SA and det <= 0:
        return None, f"recovered map reverses orientation (det {det:.3g})"
    if abs(abs(det) - 1.0) > 1e-6:
        return None, f"recovered map is not unimodular (det {det:.6g})"
    linear /= np.sqrt(abs(det))
    return [(linear, pick)], ""


def _pointset_scale(P: np.ndarray) -> float:
    return float(np.ptp(P, axis=0).max()) or 1.0


def align(
    m1: Mesh,
    m2: Mesh,
    group: Group,
    mode: MatchMode = MatchMode.INDEX_ALIGNED,
    tol: float = DEFAULT_POINT_TOL,
) -> CongruenceVerdict:
    """Exact congruence oracle: recover the unique candidate motion and verify.

    Parameters
    ----------
    m1, m2 : Mesh
        Ordinary meshes with the same point count.
    group : Group
        Transformation group the witness must belong to.
    mode : MatchMode
        Index correspondence; cyclic modes (closed meshes only) retry over
        index rotations and optionally reversal.
    tol : float
        Maximum pointwise deviation, relative to the larger mesh diameter.

    Returns
    -------
    CongruenceVerdict
        Congruent with the recovered witness, or NotCongruent with the best
        failure reason across attempted correspondences.
    """
    if m1.n != m2.n:
        raise LengthMismatch(f"point counts differ: {m1.n} vs {m2.n}")
    if not is_ordinary(m1) or not is_ordinary(m2):
        raise NotOrdinary("alignment requires cusp-free meshes")
    scale = max(m1.diameter, m2.diameter)
    P = m1.points
    best_reason = "no candidate motion matched"
    if group in (Group.SE, Group.E) and abs(m1.diameter - m2.diameter) > tol * scale:
        return CongruenceVerdict(Verdict.NOT_CONGRUENT, reason="diameters differ")
    triple = _anchor_triple(P) if group in (Group.SA, Group.ABAR) else None
    for idx, tag in _correspondences(m1.n, mode, m1.closed and m2.closed):
        Q = m2.points[idx]
        if group in (Group.SE, Group.E):
            candidates, why = _euclidean_candidates(P[0], P[1], Q[0], Q[1], group, scale, tol)
            if candidates is None:
                best_reason = f"{why} ({tag})"
                continue
            mats = [(m, 0) for m in candidates]
        else:
            mats, why = _unimodular_candidate(P, Q, group, scale, tol, triple)
            if mats is None:
                best_reason = f"{why} ({tag})"
                continue
        for linear, anchor in mats:
            translation = Q[anchor] - linear @ P[anchor]
            deviation = float(np.abs(P @ linear.T + translation - Q).max())
            if deviation <= tol * scale:
                witness = GroupElement(linear, translation, group)
                return CongruenceVerdict(
                    Verdict.CONGRUENT,
                    witness=witness,
                    max_deviation=deviation,
                    correspondence=tag,
                )
            best_reason = f"max deviation {deviation:.3e} over {tol * scale:.3e} ({tag})"
    return CongruenceVerdict(Verdict.NOT_CONGRUENT, reason=best_reason)


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


def _check_counts(m1: Mesh, m2: Mesh) -> None:
    if m1.n != m2.n:
        raise LengthMismatch(f"point counts differ: {m1.n} vs {m2.n}")
    if m1.closed != m2.closed:
        raise LengthMismatch("one mesh is closed, the other open")


def _same_sd(m1: Mesh, m2: Mesh, spec: NeighborhoodSpec = SPEC11) -> str | None:
    for i in m1.interior(spec.m1, spec.m2):
        d1 = signature_direction(m1, i, spec)
        d2 = signature_direction(m2, i, spec)
        if d1 is SigDirection.UNDEFINED or d2 is SigDirection.UNDEFINED:
            return f"signature-direction undefined at index {i}"
        if d1 is not d2:
            return f"signature-directions differ at index {i}"
    return None


def _same_angle_types(m1, m2, spec=SPEC11, tol=None) -> str | None:
    kwargs = {} if tol is None else {"tol": tol}
    for i in m1.interior(spec.m1, spec.m2):
        try:
            t1 = angle_type(angle(m1, i, spec), **kwargs)
            t2 = angle_type(angle(m2, i, spec), **kwargs)
        except OutOfDomain:
            return f"angle type undefined at index {i}"
        if t1 is not t2:
            return f"angle types differ at index {i} ({t1.value} vs {t2.value})"
    return None


def _same_signed_angle_types(m1, m2, spec=SPEC11, tol=None) -> str | None:
    kwargs = {} if tol is None else {"tol": tol}
    for i in m1.interior(spec.m1, spec.m2):
        try:
            t1 = signed_angle_type(m1, i, spec, **kwargs)
            t2 = signed_angle_type(m2, i, spec, **kwargs)
        except OutOfDomain:
            return f"signed angle type undefined at index {i}"
        if t1 != t2:
            return f"signed angle types differ at index {i}"
    return None


def _signatures_differ(m1, m2, scheme, spec=SPEC11, sig_tol=SIGNATURE_REL_TOL) -> str | None:
    try:
        s1 = se_signature(m1, scheme, spec)
        s2 = se_signature(m2, scheme, spec)
    except MeshTooShort:
        return None  # no rows to compare: the condition holds vacuously
    err = signature_max_error(s1, s2)
    if err > sig_tol:
        return f"{scheme.label} signatures differ (max relative error {err:.3e})"
    return None


def _values_differ(v1, v2, tol, what: str) -> str | None:
    v1 = np.asarray(v1, float)
    v2 = np.asarray(v2, float)
    if len(v1) == 0:
        return None
    scale = max(float(np.abs(v1).max()), float(np.abs(v2).max()), 1e-300)
    err = float(np.abs(v1 - v2).max())
    if err > tol * scale:
        return f"{what} differ (max relative error {err / scale:.3e} at index {int(np.abs(v1 - v2).argmax())})"
    return None


def decide_eq1(
    m1: Mesh,
    m2: Mesh,
    sig_tol: float = SIGNATURE_REL_TOL,
    tol: float = DEFAULT_POINT_TOL,
) -> CongruenceVerdict:
    """Equal spacing + matching signature-directions + equal forward signatures."""
    _check_counts(m1, m2)
    if not (is_ordinary(m1) and is_ordinary(m2)):
        return _hyp_fail("a mesh has a cusp")
    if not (is_equally_spaced(m1) and is_equally_spaced(m2)):
        return _hyp_fail("a mesh is not equally spaced")
    if (why := _same_sd(m1, m2)) is not None:
        return _hyp_fail(why)
    if (why := _signatures_differ(m1, m2, Scheme.EQ1, sig_tol=sig_tol)) is not None:
        return _hyp_fail(why)
    return _finish_with_oracle(m1, m2, Group.SE, tol)


def decide_eq2_angle_type(
    m1: Mesh,
    m2: Mesh,
    fine_variant: bool = False,
    sig_tol: float = SIGNATURE_REL_TOL,
    tol: float = DEFAULT_POINT_TOL,
    right_tol: float | None = None,
) -> CongruenceVerdict:
    """Equal spacing + signature-directions + angle types + centered signatures.

    With ``fine_variant`` the per-point angle-type condition is replaced by
    requiring both meshes to be fine (all interior angles obtuse).
    """
    _check_counts(m1, m2)
    if not (is_ordinary(m1) and is_ordinary(m2)):
        return _hyp_fail("a mesh has a cusp")
    if not (is_equally_spaced(m1) and is_equally_spaced(m2)):
        return _hyp_fail("a mesh is not equally spaced")
    if (why := _same_sd(m1, m2)) is not None:
        return _hyp_fail(why)
    if fine_variant:
        fine_kwargs = {} if right_tol is None else {"tol": right_tol}
        if not (is_fine(m1, **fine_kwargs) and is_fine(m2, **fine_kwargs)):
            return _hyp_fail("a mesh is not fine (has a non-obtuse interior angle)")
    else:
        if (why := _same_angle_types(m1, m2, tol=right_tol)) is not None:
            return _hyp_fail(why)
    if (why := _signatures_differ(m1, m2, Scheme.EQ2, sig_tol=sig_tol)) is not None:
        return _hyp_fail(why)
    return _finish_with_oracle(m1, m2, Group.SE, tol)


def decide_eq2_signed(
    m1: Mesh,
    m2: Mesh,
    curvature_only: bool = False,
    sig_tol: float = SIGNATURE_REL_TOL,
    tol: float = DEFAULT_POINT_TOL,
    right_tol: float | None = None,
    angle_tol: float = 1e-9,
) -> CongruenceVerdict:
    """Equal spacing + signed angle types + centered signatures.

    With ``curvature_only`` the signature condition is dropped: equal signed
    angle values in (0, pi) plus equal curvature sequences suffice.
    """
    _check_counts(m1, m2)
    if not (is_ordinary(m1) and is_ordinary(m2)):
        return _hyp_fail("a mesh has a cusp")
    if not (is_equally_spaced(m1) and is_equally_spaced(m2)):
        return _hyp_fail("a mesh is not equally spaced")
    if curvature_only:
        interior = list(m1.interior())
        th1 = [signed_angle(m1, i) for i in interior]
        th2 = [signed_angle(m2, i) for i in interior]
        for i, (a1, a2) in zip(interior, zip(th1, th2)):
            if not (0.0 < a1 < np.pi and 0.0 < a2 < np.pi):
                return _hyp_fail(f"signed angle outside (0, pi) at index {i}")
        if (why := _values_differ(th1, th2, angle_tol, "signed angles")) is not None:
            return _hyp_fail(why)
        k1 = interior_curvatures(m1)
        k2 = interior_curvatures(m2)
        if (why := _values_differ(k1, k2, sig_tol, "curvature sequences")) is not None:
            return _hyp_fail(why)
        return _finish_with_oracle(m1, m2, Group.SE, tol)
    if (why := _same_signed_angle_types(m1, m2, tol=right_tol)) is not None:
        return _hyp_fail(why)
    if (why := _signatures_differ(m1, m2, Scheme.EQ2, sig_tol=sig_tol)) is not None:
        return _hyp_fail(why)
    return _finish_with_oracle(m1, m2, Group.SE, tol)


def decide_eq3(
    m1: Mesh,
    m2: Mesh,
    sig_tol: float = SIGNATURE_REL_TOL,
    tol: float = DEFAULT_POINT_TOL,
    right_tol: float | None = None,
) -> CongruenceVerdict:
    """Centered-chord sequence + signed (1,2)-angle types + EQ3 signatures.

    Open meshes additionally require the closing (1,2)-span chord
    |p[n-4] - p[n-1]| to agree, extending congruence to the final point.
    """
    _check_counts(m1, m2)
    if not (is_ordinary(m1) and is_ordinary(m2)):
        return _hyp_fail("a mesh has a cusp")
    interior = list(m1.interior())
    d1 = [chord(m1, m1.resolve(i, -1), m1.resolve(i, 1)) for i in interior]
    d2 = [chord(m2, m2.resolve(i, -1), m2.resolve(i, 1)) for i in interior]
    if (why := _values_differ(d1, d2, sig_tol, "centered chord sequences")) is not None:
        return _hyp_fail(why)
    if (why := _same_signed_angle_types(m1, m2, SPEC12, tol=right_tol)) is not None:
        return _hyp_fail(why)
    if m1.n < 4 and not m1.closed:
        raise MeshTooShort("the closing-chord condition needs at least 4 points")
    if (why := _signatures_differ(m1, m2, Scheme.EQ3, SPEC12, sig_tol)) is not None:
        return _hyp_fail(why)
    if not m1.closed:
        n = m1.n
        c1 = chord(m1, n - 4, n - 1)
        c2 = chord(m2, n - 4, n - 1)
        scale = max(m1.diameter, m2.diameter)
        if abs(c1 - c2) > sig_tol * scale:
            return _hyp_fail(
                f"closing (1,2)-span chords |p[{n - 4}] - p[{n - 1}]| differ"
            )
    return _finish_with_oracle(m1, m2, Group.SE, tol)


def decide_eq4(
    m1: Mesh,
    m2: Mesh,
    endpoint_rule: str = "equal-end-angles",
    sig_tol: float = SIGNATURE_REL_TOL,
    tol: float = DEFAULT_POINT_TOL,
    right_tol: float | None = None,
    angle_tol: float = 1e-9,
) -> CongruenceVerdict:
    """(3,1)-curvatures and signed angles + 3-step data + EQ4 signatures.

    Open meshes need an endpoint rule: "equal-end-angles" compares the
    signed 3-angles at both ends, "obtuse-start" instead requires the
    starting signed 3-angle of both meshes to be at least pi/2.
    """
    _check_counts(m1, m2)
    if not (is_ordinary(m1) and is_ordinary(m2)):
        return _hyp_fail("a mesh has a cusp")
    if not m1.closed and m1.n <= 7:
        raise MeshTooShort("EQ4 needs more than 7 points on an open mesh")
    i31 = list(m1.interior(3, 1))
    k1 = interior_curvatures(m1, SPEC31)
    k2 = interior_curvatures(m2, SPEC31)
    if (why := _values_differ(k1, k2, sig_tol, "(3,1)-curvature sequences")) is not None:
        return _hyp_fail(why)
    a1 = [signed_angle(m1, i, SPEC31) for i in i31]
    a2 = [signed_angle(m2, i, SPEC31) for i in i31]
    if (why := _values_differ(a1, a2, angle_tol, "signed (3,1)-angles")) is not None:
        return _hyp_fail(why)
    if (why := _same_signed_angle_types(m1, m2, SPEC33, tol=right_tol)) is not None:
        return _hyp_fail(why)
    i3 = list(m1.interior(3, 0)) if not m1.closed else list(range(m1.n))
    d1 = [chord(m1, m1.resolve(i, -3), i) for i in i3]
    d2 = [chord(m2, m2.resolve(i, -3), i) for i in i3]
    if (why := _values_differ(d1, d2, sig_tol, "3-step chord sequences")) is not None:
        return _hyp_fail(why)
    if (why := _signatures_differ(m1, m2, Scheme.EQ4, SPEC33, sig_tol)) is not None:
        return _hyp_fail(why)
    if not m1.closed:
        ends = (3, m1.n - 4)
        if endpoint_rule == "equal-end-angles":
            e1 = [signed_angle(m1, i, SPEC33) for i in ends]
            e2 = [signed_angle(m2, i, SPEC33) for i in ends]
            if (why := _values_differ(e1, e2, angle_tol, "end signed 3-angles")) is not None:
                return _hyp_fail(why)
        elif endpoint_rule == "obtuse-start":
            for mesh in (m1, m2):
                if signed_angle(mesh, 3, SPEC33) < np.pi / 2.0:
                    return _hyp_fail("starting signed 3-angle below pi/2")
        else:
            raise ValueError(f"unknown endpoint rule {endpoint_rule!r}")
    return _finish_with_oracle(m1, m2, Group.SE, tol)


def decide_affine(
    m1: Mesh,
    m2: Mesh,
    variant: str = "thm5.7",
    sig_tol: float = 1e-6,
    tol: float = DEFAULT_POINT_TOL,
) -> CongruenceVerdict:
    """Equiaffine decision rules over arc-length sets and EQ6 signatures.

    variant "thm5.7": both meshes affine-fine with nowhere-zero curvature;
    "thm5.8": affine-fine, zero-curvature points allowed when the matching
    one-neighborhood triangle areas agree; "cor5.9": as 5.8 with Euclidean
    fineness replacing affine fineness.
    """
    _check_counts(m1, m2)
    if not (is_ordinary(m1) and is_ordinary(m2)):
        raise NotOrdinary("affine decision requires cusp-free meshes")
    if not (is_convex(m1) and is_convex(m2)):
        raise NotConvex("affine decision requires convex meshes")
    if variant not in ("thm5.7", "thm5.8", "cor5.9"):
        raise ValueError(f"unknown affine variant {variant!r}")
    if variant == "cor5.9":
        if not (is_fine(m1) and is_fine(m2)):
            return _hyp_fail("a mesh is not fine (has a non-obtuse interior angle)")
    else:
        if not (affine.is_affine_fine(m1) and affine.is_affine_fine(m2)):
            return _hyp_fail("a mesh is not affine-fine")
    interior = affine.affine_fine_interior(m1)
    kap1 = affine.interior_curvatures(m1)
    kap2 = affine.interior_curvatures(m2)
    za, zb = np.abs(kap1) <= affine.PARABOLIC_TOL, np.abs(kap2) <= affine.PARABOLIC_TOL
    if variant == "thm5.7":
        for zero, which in ((za, ""), (zb, " (second mesh)")):
            if zero.any():
                return _hyp_fail(f"curvature vanishes at index {interior[int(np.argmax(zero))]}{which}")
    else:
        t1, t2 = (np.abs(orient_rows(*neighbor_triples(m, interior))) / 2.0 for m in (m1, m2))
        scale = np.maximum(np.maximum(t1, t2), 1e-300)
        bad = np.flatnonzero((za != zb) | (za & (np.abs(t1 - t2) > sig_tol * scale)))
        if len(bad):
            k = int(bad[0])
            if za[k] != zb[k]:
                return _hyp_fail(f"zero-curvature points do not correspond at index {interior[k]}")
            return _hyp_fail(f"one-neighborhood areas differ at zero-curvature index {interior[k]}")
    (a1, ok1), (a2, ok2) = affine.interior_arc_length_sets(m1), affine.interior_arc_length_sets(m2)
    scale = np.maximum(np.maximum(np.abs(a1).max(axis=1), np.abs(a2).max(axis=1)), 1e-300)
    differ = np.abs(a1 - a2).max(axis=1) > sig_tol * scale
    # rows that raise or differ, replayed in index order: the first one decides
    for k in np.flatnonzero(~(ok1 & ok2) | differ).tolist():
        s1 = affine.arc_length_set(m1, interior[k])
        s2 = affine.arc_length_set(m2, interior[k])
        if (why := _values_differ(s1.values, s2.values, sig_tol, f"arc-length sets at {interior[k]}")) is not None:
            return _hyp_fail(why)
    sig1 = affine.sa_signature(m1, Scheme.EQ6)
    sig2 = affine.sa_signature(m2, Scheme.EQ6)
    err = signature_max_error(sig1, sig2)
    if err > sig_tol:
        return _hyp_fail(f"eq6 signatures differ (max relative error {err:.3e})")
    return _finish_with_oracle(m1, m2, Group.SA, tol)


def decide_dist_angle(
    m1: Mesh,
    m2: Mesh,
    tol: float = DEFAULT_POINT_TOL,
    angle_tol: float = 1e-9,
) -> CongruenceVerdict:
    """Baseline rule: equal edge lengths and equal signed angles force congruence."""
    _check_counts(m1, m2)
    if not (is_ordinary(m1) and is_ordinary(m2)):
        return _hyp_fail("a mesh has a cusp")
    e1, e2 = edge_lengths(m1), edge_lengths(m2)
    if (why := _values_differ(e1, e2, tol, "edge length sequences")) is not None:
        return _hyp_fail(why)
    a1 = [signed_angle(m1, i) for i in m1.interior()]
    a2 = [signed_angle(m2, i) for i in m2.interior()]
    if (why := _values_differ(a1, a2, angle_tol, "signed angle sequences")) is not None:
        return _hyp_fail(why)
    return _finish_with_oracle(m1, m2, Group.SE, tol)


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
