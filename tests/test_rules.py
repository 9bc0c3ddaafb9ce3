"""The rule table and its engine against frozen copies of the hand-written rules.

Each ``ref_*`` function below is the rule as it was written before the
rules became rows of ``congruence.RULES``: scalar per-index loops over the
geometry predicates. Since then, ref_decide_eq4 and ref_decide_host also
reject a closed mesh too small for their (3,1) and (3,3) stencils, and
ref_values_differ names the mesh index of the worst center, as the rows
do. The engine must reproduce every verdict field and every
exception (class and message) on a seeded corpus.
"""

import numpy as np
import pytest

import meshsig as ms
from meshsig import affine, congruence, meshio
from meshsig import generators as gen
from meshsig.cli import main
from meshsig.congruence import MatchMode, Verdict
from meshsig.errors import (
    LengthMismatch,
    MeshTooShort,
    NotClosed,
    NotConvex,
    NotOrdinary,
    OutOfDomain,
)
from meshsig.euclidean import chord, interior_curvatures, se_signature
from meshsig.geometry import (
    Group,
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
    orient_rows,
    signature_direction,
    signed_angle,
    signed_angle_type,
)
from meshsig.host import traverse
from meshsig.signatures import SIGNATURE_REL_TOL, Scheme, signature_max_error

SPEC11 = NeighborhoodSpec(1, 1)
SPEC12 = NeighborhoodSpec(1, 2)
SPEC31 = NeighborhoodSpec(3, 1)
SPEC33 = NeighborhoodSpec(3, 3)
TOL = congruence.DEFAULT_POINT_TOL


# ---------------------------------------------------------------------------
# Frozen references: the decision rules as hand-written functions
# ---------------------------------------------------------------------------

def ref_hyp_fail(reason):
    return ms.CongruenceVerdict(Verdict.HYPOTHESES_NOT_MET, reason=reason)


def ref_finish_with_oracle(m1, m2, group, tol):
    verdict = ms.align(m1, m2, group, MatchMode.INDEX_ALIGNED, tol)
    if verdict.congruent:
        return verdict
    verdict.reason = f"hypotheses satisfied but alignment refutes congruence: {verdict.reason}"
    verdict.oracle_disagreement = True
    return verdict


def ref_check_counts(m1, m2):
    if m1.n != m2.n:
        raise LengthMismatch(f"point counts differ: {m1.n} vs {m2.n}")
    if m1.closed != m2.closed:
        raise LengthMismatch("one mesh is closed, the other open")


def ref_same_sd(m1, m2, spec=SPEC11):
    for i in m1.interior(spec.m1, spec.m2):
        d1 = signature_direction(m1, i, spec)
        d2 = signature_direction(m2, i, spec)
        if d1 is SigDirection.UNDEFINED or d2 is SigDirection.UNDEFINED:
            return f"signature-direction undefined at index {i}"
        if d1 is not d2:
            return f"signature-directions differ at index {i}"
    return None


def ref_same_angle_types(m1, m2, spec=SPEC11, tol=None):
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


def ref_same_signed_angle_types(m1, m2, spec=SPEC11, tol=None):
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


def ref_signatures_differ(m1, m2, scheme, spec=SPEC11, sig_tol=SIGNATURE_REL_TOL):
    try:
        s1 = se_signature(m1, scheme, spec)
        s2 = se_signature(m2, scheme, spec)
    except MeshTooShort:
        return None
    err = signature_max_error(s1, s2)
    if err > sig_tol:
        return f"{scheme.label} signatures differ (max relative error {err:.3e})"
    return None


def ref_values_differ(v1, v2, tol, what, centers=None):
    # names the worst position k as the mesh index centers[k], or as k itself (edges, set positions)
    v1 = np.asarray(v1, float)
    v2 = np.asarray(v2, float)
    if len(v1) == 0:
        return None
    scale = max(float(np.abs(v1).max()), float(np.abs(v2).max()), 1e-300)
    err = float(np.abs(v1 - v2).max())
    if err > tol * scale:
        k = int(np.abs(v1 - v2).argmax())
        return f"{what} differ (max relative error {err / scale:.3e} at index {k if centers is None else centers[k]})"
    return None


def ref_decide_eq1(m1, m2, sig_tol=SIGNATURE_REL_TOL, tol=TOL):
    ref_check_counts(m1, m2)
    if not (is_ordinary(m1) and is_ordinary(m2)):
        return ref_hyp_fail("a mesh has a cusp")
    if not (is_equally_spaced(m1) and is_equally_spaced(m2)):
        return ref_hyp_fail("a mesh is not equally spaced")
    if (why := ref_same_sd(m1, m2)) is not None:
        return ref_hyp_fail(why)
    if (why := ref_signatures_differ(m1, m2, Scheme.EQ1, sig_tol=sig_tol)) is not None:
        return ref_hyp_fail(why)
    return ref_finish_with_oracle(m1, m2, Group.SE, tol)


def ref_decide_eq2_angle_type(m1, m2, fine_variant=False, sig_tol=SIGNATURE_REL_TOL, tol=TOL, right_tol=None):
    ref_check_counts(m1, m2)
    if not (is_ordinary(m1) and is_ordinary(m2)):
        return ref_hyp_fail("a mesh has a cusp")
    if not (is_equally_spaced(m1) and is_equally_spaced(m2)):
        return ref_hyp_fail("a mesh is not equally spaced")
    if (why := ref_same_sd(m1, m2)) is not None:
        return ref_hyp_fail(why)
    if fine_variant:
        fine_kwargs = {} if right_tol is None else {"tol": right_tol}
        if not (is_fine(m1, **fine_kwargs) and is_fine(m2, **fine_kwargs)):
            return ref_hyp_fail("a mesh is not fine (has a non-obtuse interior angle)")
    else:
        if (why := ref_same_angle_types(m1, m2, tol=right_tol)) is not None:
            return ref_hyp_fail(why)
    if (why := ref_signatures_differ(m1, m2, Scheme.EQ2, sig_tol=sig_tol)) is not None:
        return ref_hyp_fail(why)
    return ref_finish_with_oracle(m1, m2, Group.SE, tol)


def ref_decide_eq2_signed(m1, m2, curvature_only=False, sig_tol=SIGNATURE_REL_TOL, tol=TOL,
                          right_tol=None, angle_tol=1e-9):
    ref_check_counts(m1, m2)
    if not (is_ordinary(m1) and is_ordinary(m2)):
        return ref_hyp_fail("a mesh has a cusp")
    if not (is_equally_spaced(m1) and is_equally_spaced(m2)):
        return ref_hyp_fail("a mesh is not equally spaced")
    if curvature_only:
        interior = list(m1.interior())
        th1 = [signed_angle(m1, i) for i in interior]
        th2 = [signed_angle(m2, i) for i in interior]
        for i, (a1, a2) in zip(interior, zip(th1, th2)):
            if not (0.0 < a1 < np.pi and 0.0 < a2 < np.pi):
                return ref_hyp_fail(f"signed angle outside (0, pi) at index {i}")
        if (why := ref_values_differ(th1, th2, angle_tol, "signed angles", interior)) is not None:
            return ref_hyp_fail(why)
        k1 = interior_curvatures(m1)
        k2 = interior_curvatures(m2)
        if (why := ref_values_differ(k1, k2, sig_tol, "curvature sequences", interior)) is not None:
            return ref_hyp_fail(why)
        return ref_finish_with_oracle(m1, m2, Group.SE, tol)
    if (why := ref_same_signed_angle_types(m1, m2, tol=right_tol)) is not None:
        return ref_hyp_fail(why)
    if (why := ref_signatures_differ(m1, m2, Scheme.EQ2, sig_tol=sig_tol)) is not None:
        return ref_hyp_fail(why)
    return ref_finish_with_oracle(m1, m2, Group.SE, tol)


def ref_decide_eq3(m1, m2, sig_tol=SIGNATURE_REL_TOL, tol=TOL, right_tol=None):
    ref_check_counts(m1, m2)
    if not (is_ordinary(m1) and is_ordinary(m2)):
        return ref_hyp_fail("a mesh has a cusp")
    interior = list(m1.interior())
    d1 = [chord(m1, m1.resolve(i, -1), m1.resolve(i, 1)) for i in interior]
    d2 = [chord(m2, m2.resolve(i, -1), m2.resolve(i, 1)) for i in interior]
    if (why := ref_values_differ(d1, d2, sig_tol, "centered chord sequences", interior)) is not None:
        return ref_hyp_fail(why)
    if (why := ref_same_signed_angle_types(m1, m2, SPEC12, tol=right_tol)) is not None:
        return ref_hyp_fail(why)
    if m1.n < 4 and not m1.closed:
        raise MeshTooShort("the closing-chord condition needs at least 4 points")
    if (why := ref_signatures_differ(m1, m2, Scheme.EQ3, SPEC12, sig_tol)) is not None:
        return ref_hyp_fail(why)
    if not m1.closed:
        n = m1.n
        c1 = chord(m1, n - 4, n - 1)
        c2 = chord(m2, n - 4, n - 1)
        scale = max(m1.diameter, m2.diameter)
        if abs(c1 - c2) > sig_tol * scale:
            return ref_hyp_fail(f"closing (1,2)-span chords |p[{n - 4}] - p[{n - 1}]| differ")
    return ref_finish_with_oracle(m1, m2, Group.SE, tol)


def ref_decide_eq4(m1, m2, endpoint_rule="equal-end-angles", sig_tol=SIGNATURE_REL_TOL, tol=TOL,
                   right_tol=None, angle_tol=1e-9):
    ref_check_counts(m1, m2)
    if not (is_ordinary(m1) and is_ordinary(m2)):
        return ref_hyp_fail("a mesh has a cusp")
    if not m1.closed and m1.n <= 7:
        raise MeshTooShort("EQ4 needs more than 7 points on an open mesh")
    if m1.closed and m1.n <= 4:
        return ref_hyp_fail(f"a closed mesh of n = {m1.n} points wraps the (3,1) stencil onto itself")
    i31 = list(m1.interior(3, 1))
    k1 = interior_curvatures(m1, SPEC31)
    k2 = interior_curvatures(m2, SPEC31)
    if (why := ref_values_differ(k1, k2, sig_tol, "(3,1)-curvature sequences", i31)) is not None:
        return ref_hyp_fail(why)
    a1 = [signed_angle(m1, i, SPEC31) for i in i31]
    a2 = [signed_angle(m2, i, SPEC31) for i in i31]
    if (why := ref_values_differ(a1, a2, angle_tol, "signed (3,1)-angles", i31)) is not None:
        return ref_hyp_fail(why)
    if (why := ref_same_signed_angle_types(m1, m2, SPEC33, tol=right_tol)) is not None:
        return ref_hyp_fail(why)
    i3 = list(m1.interior(3, 0)) if not m1.closed else list(range(m1.n))
    d1 = [chord(m1, m1.resolve(i, -3), i) for i in i3]
    d2 = [chord(m2, m2.resolve(i, -3), i) for i in i3]
    if (why := ref_values_differ(d1, d2, sig_tol, "3-step chord sequences", i3)) is not None:
        return ref_hyp_fail(why)
    if (why := ref_signatures_differ(m1, m2, Scheme.EQ4, SPEC33, sig_tol)) is not None:
        return ref_hyp_fail(why)
    if not m1.closed:
        ends = (3, m1.n - 4)
        if endpoint_rule == "equal-end-angles":
            e1 = [signed_angle(m1, i, SPEC33) for i in ends]
            e2 = [signed_angle(m2, i, SPEC33) for i in ends]
            if (why := ref_values_differ(e1, e2, angle_tol, "end signed 3-angles", ends)) is not None:
                return ref_hyp_fail(why)
        elif endpoint_rule == "obtuse-start":
            for mesh in (m1, m2):
                if signed_angle(mesh, 3, SPEC33) < np.pi / 2.0:
                    return ref_hyp_fail("starting signed 3-angle below pi/2")
        else:
            raise ValueError(f"unknown endpoint rule {endpoint_rule!r}")
    return ref_finish_with_oracle(m1, m2, Group.SE, tol)


def ref_decide_affine(m1, m2, variant="thm5.7", sig_tol=1e-6, tol=TOL):
    ref_check_counts(m1, m2)
    if not (is_ordinary(m1) and is_ordinary(m2)):
        raise NotOrdinary("affine decision requires cusp-free meshes")
    if not (is_convex(m1) and is_convex(m2)):
        raise NotConvex("affine decision requires convex meshes")
    if variant not in ("thm5.7", "thm5.8", "cor5.9"):
        raise ValueError(f"unknown affine variant {variant!r}")
    if variant == "cor5.9":
        if not (is_fine(m1) and is_fine(m2)):
            return ref_hyp_fail("a mesh is not fine (has a non-obtuse interior angle)")
    else:
        if not (affine.is_affine_fine(m1) and affine.is_affine_fine(m2)):
            return ref_hyp_fail("a mesh is not affine-fine")
    interior = affine.affine_fine_interior(m1)
    kap1 = affine.interior_curvatures(m1)
    kap2 = affine.interior_curvatures(m2)
    za, zb = np.abs(kap1) <= affine.PARABOLIC_TOL, np.abs(kap2) <= affine.PARABOLIC_TOL
    if variant == "thm5.7":
        for zero, which in ((za, ""), (zb, " (second mesh)")):
            if zero.any():
                return ref_hyp_fail(f"curvature vanishes at index {interior[int(np.argmax(zero))]}{which}")
    else:
        t1, t2 = (np.abs(orient_rows(*neighbor_triples(m, interior))) / 2.0 for m in (m1, m2))
        scale = np.maximum(np.maximum(t1, t2), 1e-300)
        bad = np.flatnonzero((za != zb) | (za & (np.abs(t1 - t2) > sig_tol * scale)))
        if len(bad):
            k = int(bad[0])
            if za[k] != zb[k]:
                return ref_hyp_fail(f"zero-curvature points do not correspond at index {interior[k]}")
            return ref_hyp_fail(f"one-neighborhood areas differ at zero-curvature index {interior[k]}")
    (a1, ok1), (a2, ok2) = affine.interior_arc_length_sets(m1), affine.interior_arc_length_sets(m2)
    scale = np.maximum(np.maximum(np.abs(a1).max(axis=1), np.abs(a2).max(axis=1)), 1e-300)
    differ = np.abs(a1 - a2).max(axis=1) > sig_tol * scale
    for k in np.flatnonzero(~(ok1 & ok2) | differ).tolist():
        s1 = affine.arc_length_set(m1, interior[k])
        s2 = affine.arc_length_set(m2, interior[k])
        if (why := ref_values_differ(s1.values, s2.values, sig_tol, f"arc-length sets at {interior[k]}")) is not None:
            return ref_hyp_fail(why)
    sig1 = affine.sa_signature(m1, Scheme.EQ6)
    sig2 = affine.sa_signature(m2, Scheme.EQ6)
    err = signature_max_error(sig1, sig2)
    if err > sig_tol:
        return ref_hyp_fail(f"eq6 signatures differ (max relative error {err:.3e})")
    return ref_finish_with_oracle(m1, m2, Group.SA, tol)


def ref_decide_dist_angle(m1, m2, tol=TOL, angle_tol=1e-9):
    ref_check_counts(m1, m2)
    if not (is_ordinary(m1) and is_ordinary(m2)):
        return ref_hyp_fail("a mesh has a cusp")
    e1, e2 = edge_lengths(m1), edge_lengths(m2)
    if (why := ref_values_differ(e1, e2, tol, "edge length sequences")) is not None:
        return ref_hyp_fail(why)
    a1 = [signed_angle(m1, i) for i in m1.interior()]
    a2 = [signed_angle(m2, i) for i in m2.interior()]
    if (why := ref_values_differ(a1, a2, angle_tol, "signed angle sequences", m1.interior())) is not None:
        return ref_hyp_fail(why)
    return ref_finish_with_oracle(m1, m2, Group.SE, tol)


def ref_decide_host(m1, m2, sig_tol=SIGNATURE_REL_TOL, tol=1e-6, right_tol=None):
    if not (m1.closed and m2.closed):
        raise NotClosed("the traversal rule applies to closed meshes only")
    ref_check_counts(m1, m2)
    if not (is_ordinary(m1) and is_ordinary(m2)):
        return ref_hyp_fail("a mesh has a cusp")
    n = m1.n
    if n <= 3:
        return ref_hyp_fail(f"a closed mesh of n = {n} points wraps the (3,3) stencil onto itself")
    if not traverse(n, 3).complete:
        return ref_hyp_fail(f"step-3 traversal incomplete: n = {n} is divisible by 3")
    if (why := ref_same_signed_angle_types(m1, m2, SPEC33, tol=right_tol)) is not None:
        return ref_hyp_fail(why)
    d1 = [chord(m1, m1.resolve(i, -3), i) for i in range(n)]
    d2 = [chord(m2, m2.resolve(i, -3), i) for i in range(n)]
    if (why := ref_values_differ(d1, d2, sig_tol, "3-step chord sequences", range(n))) is not None:
        return ref_hyp_fail(why)
    if (why := ref_signatures_differ(m1, m2, Scheme.EQ4, SPEC33, sig_tol)) is not None:
        return ref_hyp_fail(why)
    return ref_finish_with_oracle(m1, m2, Group.SE, tol)


# ---------------------------------------------------------------------------
# Corpus
# ---------------------------------------------------------------------------

def outcome(f, *args, **kwargs):
    """Every field of the verdict, witness bits included, or the class and message of the exception."""
    try:
        v = f(*args, **kwargs)
    except ms.MeshSigError as exc:
        return "raised", type(exc), str(exc)
    witness = None if v.witness is None else (v.witness.group, v.witness.linear.tobytes(), v.witness.translation.tobytes())
    return v.status, v.reason, repr(v.max_deviation), v.correspondence, v.oracle_disagreement, witness


# (new, reference, keyword variants): every rule with each of its variants
SE_RULES = [
    (ms.decide_dist_angle, ref_decide_dist_angle, [{}, {"angle_tol": 1e-3}]),
    (ms.decide_eq1, ref_decide_eq1, [{}, {"sig_tol": 1e-2}]),
    (ms.decide_eq2_angle_type, ref_decide_eq2_angle_type,
     [{}, {"fine_variant": True}, {"right_tol": 0.3}, {"fine_variant": True, "right_tol": 0.3}]),
    (ms.decide_eq2_signed, ref_decide_eq2_signed,
     [{}, {"curvature_only": True}, {"right_tol": 0.3}, {"curvature_only": True, "angle_tol": 1e-3}]),
    (ms.decide_eq3, ref_decide_eq3, [{}, {"sig_tol": 1e-2}, {"right_tol": 0.3}]),
    (ms.decide_eq4, ref_decide_eq4,
     [{}, {"endpoint_rule": "obtuse-start"}, {"right_tol": 0.3}, {"sig_tol": 1e-2}, {"angle_tol": 1e-3}]),
    (ms.decide_host, ref_decide_host, [{}, {"right_tol": 0.3}, {"sig_tol": 1e-2}]),
]
SA_RULES = [
    (ms.decide_affine, ref_decide_affine,
     [{"variant": v, "sig_tol": t} for v in ("thm5.7", "thm5.8", "cor5.9") for t in (1e-6, 1e-2)]),
]


def related(rng, mesh, kind):
    """An SE image of the mesh: congruent, with one point moved, or mirrored."""
    pts = ms.random_motion(Group.SE, rng).apply(mesh.points)
    if kind == "perturbed":
        pts[int(rng.integers(0, mesh.n))] += rng.normal(scale=1e-3, size=2)
    elif kind == "mirrored":
        pts = pts * np.array([1.0, -1.0])
    return ms.Mesh(pts, closed=mesh.closed)


def convex_walk(turns):
    """Unit steps turning left by the given angles."""
    heading = np.concatenate([[0.0], np.cumsum(turns)])
    steps = np.column_stack([np.cos(heading), np.sin(heading)])
    return ms.Mesh(np.vstack([[0.0, 0.0], np.cumsum(steps, axis=0)]))


def se_corpus():
    rng = np.random.default_rng(61)
    pairs = []
    makers = (
        lambda n: gen.random_equally_spaced_mesh(rng, n),
        lambda n: gen.random_unequally_spaced_mesh(rng, n),
        lambda n: gen.random_closed_mesh(rng, n),
        lambda n: gen.circle_mesh(n, radius=rng.uniform(0.5, 2.0)),
    )
    for k in range(36):
        n = int(rng.integers(3, 17))
        try:
            base = makers[k % 4](n)
        except ms.MeshSigError:
            continue
        if k % 3 == 1:
            base = ms.Mesh(base.points, closed=not base.closed)
        pairs.append((base, related(rng, base, ("congruent", "perturbed", "mirrored")[k % 3])))
    for case in ("ex1", "ex2", "ex3", "affine"):
        a, b, _ = ms.counterexample(case)
        pairs.append((a, b))
        pairs.append((ms.Mesh(a.points, closed=True), ms.Mesh(b.points, closed=True)))
    # p[3] repeats p[0]: a zero-length (3,1)- and (3,3)-arm without a cusp
    arm = ms.Mesh([(0, 0), (1, 0), (1, 1), (0, 0), (-1, 0.5), (-1.5, -0.5), (-0.5, -1.5), (0.5, -1.8),
                   (1.5, -1.2), (1.2, -0.4)], closed=True)
    pairs.append((arm, related(rng, arm, "congruent")))
    pairs.append((ms.Mesh(arm.points), ms.Mesh(arm.points)))
    # convex equal-step walks: equal directions and angle types, different turns
    walks = [convex_walk(rng.uniform(0.25, 0.55, size=10)) for _ in range(3)]
    pairs += [(walks[0], walks[1]), (walks[1], related(rng, walks[1], "congruent"))]
    turns = rng.uniform(0.25, 0.55, size=10)
    bent = turns.copy()
    bent[4] += 1e-5
    pairs.append((convex_walk(turns), convex_walk(bent)))  # equal angles to 1e-3, curvatures apart
    # an obtuse angle 0.1 from the right-angle band: fine, unless the band widens
    sharp = convex_walk(np.r_[rng.uniform(0.25, 0.55, size=4), 1.4, rng.uniform(0.25, 0.55, size=4)])
    pairs.append((sharp, related(rng, sharp, "congruent")))
    # minor and major arc through the same chord: only the angle types differ
    minor, _, major, _ = ms.classification_meshes(1.0, 1.0)
    pairs.append((minor, major))
    # the last point moved along its edge: only the end angle of the (3,3) stencil moves
    m = gen.random_unequally_spaced_mesh(rng, 14)
    pts = m.points.copy()
    pts[-1] = pts[-2] + (1.0 + 1e-5) * (pts[-1] - pts[-2])
    pairs.append((m, ms.Mesh(pts)))
    # the last point slid along its stencil circle: only the closing chord moves
    base = np.array([(2.3, 2.1), (1.5, 2.45), (0.5, 2.1), (np.cos(2.2), np.sin(2.2)), (-1.0, 0.0),
                     (0.05, -0.75), (1.0, 0.0)])
    moved = base.copy()
    moved[6] = [np.cos(1e-4), np.sin(1e-4)]
    pairs.append((ms.Mesh(base), ms.Mesh(moved)))
    # exactly collinear triples, in the middle and at the start
    line = ms.Mesh([(0, 0), (1, 1), (2, 1), (3, 1), (4, 2), (4, 3), (3, 4), (2, 4.5)])
    pairs.append((line, related(rng, line, "congruent")))
    pairs.append((ms.Mesh(line.points[2:]), ms.Mesh(line.points[2:])))
    pairs.append((ms.Mesh(line.points, closed=True), ms.Mesh(line.points, closed=True)))
    # a cusp, and a right angle inside the right-angle band
    pairs.append((ms.Mesh([(0, 0), (1, 0), (0.5, 0), (0.5, 1), (1, 2)]),) * 2)
    square = ms.Mesh([(0, 0), (1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1)], closed=True)
    pairs.append((square, related(rng, square, "congruent")))
    # too-short open meshes and closed meshes with n divisible by 3
    for n in range(3, 9):
        m = gen.random_unequally_spaced_mesh(rng, n)
        pairs.append((m, related(rng, m, "congruent")))
    for n in (3, 4, 6, 9, 12):
        m = gen.random_closed_mesh(rng, n) if n > 4 else gen.circle_mesh(n)
        pairs.append((m, related(rng, m, "congruent")))
    # different point counts and open against closed
    pairs.append((gen.circle_mesh(8), gen.circle_mesh(9)))
    pairs.append((gen.circle_mesh(8), ms.Mesh(gen.circle_mesh(8).points)))
    return pairs


def sa_corpus():
    rng = np.random.default_rng(62)
    pairs = []
    for k in range(18):
        n = int(rng.integers(5, 20))
        closed = k % 4 == 3
        if k % 6 == 5:
            base = gen.parabola_mesh(n)
        else:
            a, b = rng.uniform(0.8, 2.5, size=2)
            step = 2.0 * np.pi / n if closed else rng.uniform(0.06, 0.3)
            base = gen.ellipse_mesh(n, a, b, t0=rng.uniform(0, 2 * np.pi), step=step, closed=closed)
        image = ms.random_motion(Group.SA, rng).apply(base.points)
        kind = k % 3
        if kind == 1:
            image = image * np.array([1.0, 1.02]) + rng.normal(scale=1e-9, size=image.shape)
        elif kind == 2:
            image = image * np.array([1.0, -1.0])
        pairs.append((base, ms.Mesh(image, closed=closed)))
    a, b, _ = ms.counterexample("affine")
    pairs.append((a, b))
    # zero curvature everywhere, one-neighborhood areas 0.5% apart
    par = gen.parabola_mesh(12)
    pairs.append((par, ms.Mesh(par.points * np.array([1.0, 1.005]))))
    zig = ms.Mesh([(0, 0), (1, 0.4), (2, 0), (3, 0.4), (4, 0), (5, 0.4), (6, 0)])
    pairs.append((zig, zig))
    pairs.append((ms.Mesh([(0, 0), (1, 0), (0.5, 0), (0.5, 1), (1, 2)]),) * 2)
    for n in (5, 6):
        m = gen.ellipse_mesh(n, 2.0, 1.0, step=0.3, closed=False)
        pairs.append((m, m))
    pairs.append((gen.circle_mesh(8), ms.Mesh(gen.circle_mesh(8).points)))
    return pairs


SE_PAIRS = se_corpus()
SA_PAIRS = sa_corpus()


class TestRulesMatchFrozenReferences:
    """Every rule and variant equals its hand-written predecessor on the corpus."""

    @pytest.mark.parametrize("new, ref, variants", SE_RULES, ids=[r[0].__name__ for r in SE_RULES])
    def test_se_rules(self, new, ref, variants):
        seen = set()
        for m1, m2 in SE_PAIRS:
            for kwargs in variants:
                got = outcome(new, m1, m2, **kwargs)
                assert got == outcome(ref, m1, m2, **kwargs), (new.__name__, kwargs, m1, m2)
                seen.add(got[1] if got[0] == "raised" else got[0])
        assert Verdict.HYPOTHESES_NOT_MET in seen

    @pytest.mark.parametrize("new, ref, variants", SA_RULES, ids=["decide_affine"])
    def test_sa_rules(self, new, ref, variants):
        seen = set()
        for m1, m2 in SA_PAIRS:
            for kwargs in variants:
                got = outcome(new, m1, m2, **kwargs)
                assert got == outcome(ref, m1, m2, **kwargs), (kwargs, m1, m2)
                seen.add(got[1] if got[0] == "raised" else got[0])
        assert set(Verdict) | {NotConvex, MeshTooShort} <= seen

    def test_corpus_reaches_every_outcome(self):
        seen, small_closed = set(), False
        for m1, m2 in SE_PAIRS:
            for _, ref, variants in SE_RULES:
                for kwargs in variants:
                    got = outcome(ref, m1, m2, **kwargs)
                    seen.add((got[1], got[2].split(" ")[0]) if got[0] == "raised" else (got[0], got[1].split(" ")[0]))
                    small_closed |= got[0] is Verdict.HYPOTHESES_NOT_MET and got[1].startswith("a closed mesh")
        kinds = {kind for kind, _ in seen}
        assert set(Verdict) <= kinds
        assert {ms.errors.DegenerateArm, ms.errors.DegenerateTriple, MeshTooShort, NotClosed, LengthMismatch} <= kinds
        reasons = {head for kind, head in seen if kind is Verdict.HYPOTHESES_NOT_MET}
        assert small_closed
        assert {"signature-direction", "signature-directions", "angle", "signed", "step-3", "closing",
                "a", "edge", "centered", "(3,1)-curvature", "3-step", "end", "starting", "curvature",
                "eq1", "eq2", "eq3"} <= reasons


class TestReasonsNameMeshIndices:
    """A sequence that differs is named at the mesh index of its worst center, not at its position."""

    @pytest.mark.parametrize("decide, turns, changed, reason", [
        # the signed angles sit at centers 1..5: the third turn is at vertex 3
        (ms.decide_dist_angle, [0.3, 0.2, 0.25, 0.1, 0.2], 2, "signed angle sequences differ"),
        # the (3,1)-curvatures sit at centers 3..8: the last turn moves p[9], read only at center 8
        (ms.decide_eq4, [0.3, 0.2, 0.25, 0.1, 0.2, 0.3, 0.15, 0.2], 7, "(3,1)-curvature sequences differ"),
    ])
    def test_open_walk(self, decide, turns, changed, reason):
        other = list(turns)
        other[changed] += 0.2
        verdict = decide(convex_walk(turns), convex_walk(other))
        assert verdict.status is Verdict.HYPOTHESES_NOT_MET
        assert verdict.reason.startswith(reason)
        assert verdict.reason.endswith(f"at index {changed + 1})")


class TestOptionsValidatedFirst:
    def test_unknown_endpoint_rule(self):
        m = gen.random_closed_mesh(np.random.default_rng(63), 10)
        mg = ms.apply_motion(ms.random_motion(Group.SE, 1), m)
        with pytest.raises(ValueError, match="unknown endpoint rule 'bogus'"):
            ms.decide_eq4(m, mg, endpoint_rule="bogus")
        other = gen.random_closed_mesh(np.random.default_rng(64), 10)
        with pytest.raises(ValueError, match="unknown endpoint rule 'bogus'"):
            ms.decide_eq4(m, other, endpoint_rule="bogus")

    def test_unknown_affine_variant(self):
        zig = ms.Mesh([(0, 0), (1, 0.4), (2, 0), (3, 0.4), (4, 0), (5, 0.4), (6, 0)])
        with pytest.raises(ValueError, match="unknown affine variant 'bogus'"):
            ms.decide_affine(zig, zig, "bogus")
        with pytest.raises(ValueError, match="unknown affine variant 'thm4.9'"):
            ms.decide_affine(zig, zig, "thm4.9")


class TestCliFollowsTable:
    """Every --via value is a row of RULES (or the oracle), with the row's group."""

    @pytest.fixture(scope="class")
    def pair(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("via")
        mesh = gen.circle_mesh(16, radius=1.5)
        moved = ms.apply_motion(ms.random_motion(Group.SE, 65), mesh)
        paths = str(root / "a.csv"), str(root / "b.csv")
        meshio.write_mesh_csv(mesh, paths[0])
        meshio.write_mesh_csv(moved, paths[1])
        return paths

    def test_choices_are_the_table(self):
        action = next(a for a in ms.cli.build_parser()._subparsers._group_actions[0].choices["congruent"]._actions
                      if a.dest == "via")
        assert sorted(action.choices) == sorted(["oracle", *congruence.RULES])

    @pytest.mark.parametrize("via", ["oracle", *congruence.RULES])
    def test_congruent_pair_exits_zero(self, pair, via, capsys):
        group = "se" if via == "oracle" else congruence.RULES[via].group.value
        assert main(["congruent", *pair, "--closed", "--group", group, "--via", via]) == 0
        assert "verdict: congruent" in capsys.readouterr().out

    @pytest.mark.parametrize("via", list(congruence.RULES))
    def test_foreign_group_exits_five(self, pair, via, capsys):
        own = congruence.RULES[via].group
        for group in Group:
            if group is own:
                continue
            assert main(["congruent", *pair, "--closed", "--group", group.value, "--via", via]) == 5
            assert f"rule {via} decides {own.value} congruence, not {group.value}" in capsys.readouterr().err
