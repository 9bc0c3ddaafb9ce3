import numpy as np
import pytest

import meshsig as ms
from meshsig import congruence
from meshsig import generators as gen
from meshsig.congruence import MatchMode, Verdict
from meshsig.errors import LengthMismatch, NoNonCollinearTriple, NotClosed, NotOrdinary
from meshsig.geometry import orient
from meshsig.signatures import signature_max_error


def convex_equal_step_mesh(seed, n=12):
    """Equally spaced walk with positive turns: all signed angles in (0, pi)."""
    rng = np.random.default_rng(seed)
    heading = rng.uniform(0, 2 * np.pi)
    turns = rng.uniform(0.25, 0.55, size=n - 2)
    pts = [np.zeros(2)]
    for k in range(n - 1):
        pts.append(pts[-1] + np.array([np.cos(heading), np.sin(heading)]))
        if k < n - 2:
            heading += turns[k]
    return ms.Mesh(np.array(pts))


class TestAlign:
    @pytest.mark.parametrize("group", list(ms.Group))
    def test_recovers_random_motions(self, group):
        rng = np.random.default_rng(21)
        for _ in range(1000):
            m = gen.random_ordinary_mesh(rng, 10)
            g = ms.random_motion(group, rng)
            mg = ms.apply_motion(g, m)
            verdict = ms.align(m, mg, group)
            assert verdict.congruent
            err = np.abs(ms.apply_motion(verdict.witness, m).points - mg.points).max()
            assert err <= 1e-9 * max(m.diameter, mg.diameter)

    def test_symmetry(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            m1 = gen.random_ordinary_mesh(rng, 8)
            m2 = gen.random_ordinary_mesh(rng, 8)
            for group in (ms.Group.SE, ms.Group.SA):
                assert ms.align(m1, m2, group).status is ms.align(m2, m1, group).status

    def test_different_point_counts(self):
        with pytest.raises(LengthMismatch):
            ms.align(gen.circle_mesh(8), gen.circle_mesh(9), ms.Group.SE)

    def test_different_diameters(self):
        m = gen.circle_mesh(8)
        big = ms.Mesh(m.points * 1.5, closed=True)
        v = ms.align(m, big, ms.Group.SE)
        assert v.status is Verdict.NOT_CONGRUENT
        assert "diameter" in v.reason

    def test_collinear_mesh_has_no_sa_anchor(self):
        m = ms.Mesh([(0, 0), (1, 0), (2, 0), (3, 0)])
        with pytest.raises(NoNonCollinearTriple):
            ms.align(m, m, ms.Group.SA)

    def test_cyclic_modes(self):
        m = gen.random_closed_mesh(np.random.default_rng(23), 10)
        g = ms.random_motion(ms.Group.SE, 5)
        shifted = ms.Mesh(np.roll(ms.apply_motion(g, m).points, 4, axis=0), closed=True)
        assert ms.align(m, shifted, ms.Group.SE).status is Verdict.NOT_CONGRUENT
        v = ms.align(m, shifted, ms.Group.SE, MatchMode.CYCLIC)
        assert v.congruent and "shift" in v.correspondence
        reversed_ = ms.Mesh(shifted.points[::-1], closed=True)
        assert not ms.align(m, reversed_, ms.Group.SE, MatchMode.CYCLIC).congruent
        assert ms.align(m, reversed_, ms.Group.SE, MatchMode.CYCLIC_REVERSAL).congruent

    def test_cyclic_requires_closed(self):
        m = gen.random_ordinary_mesh(np.random.default_rng(24), 8)
        from meshsig.errors import NotClosed

        with pytest.raises(NotClosed):
            ms.align(m, m, ms.Group.SE, MatchMode.CYCLIC)


def scalar_unimodular_candidate(P, Q, group, scale, tol):
    # frozen reference: recomputes the P-only scale, tolerance and anchor triple per call
    area_tol = 1e-9 * congruence._pointset_scale(P) ** 2
    pick = None
    for i in range(len(P) - 2):
        if abs(orient(P[i], P[i + 1], P[i + 2])) > area_tol:
            pick = i
            break
    if pick is None:
        raise NoNonCollinearTriple("mesh has no non-collinear consecutive triple")
    op = orient(P[pick], P[pick + 1], P[pick + 2])
    oq = orient(Q[pick], Q[pick + 1], Q[pick + 2])
    if group is ms.Group.SA:
        if abs(op - oq) > tol * scale ** 2:
            return None, f"triangle areas differ at triple {pick}"
    elif abs(abs(op) - abs(oq)) > tol * scale ** 2:
        return None, f"unsigned triangle areas differ at triple {pick}"
    dp = np.column_stack([P[pick + 1] - P[pick], P[pick + 2] - P[pick]])
    dq = np.column_stack([Q[pick + 1] - Q[pick], Q[pick + 2] - Q[pick]])
    linear = dq @ np.linalg.inv(dp)
    det = float(np.linalg.det(linear))
    if group is ms.Group.SA and det <= 0:
        return None, f"recovered map reverses orientation (det {det:.3g})"
    if abs(abs(det) - 1.0) > 1e-6:
        return None, f"recovered map is not unimodular (det {det:.6g})"
    linear /= np.sqrt(abs(det))
    return [(linear, pick)], ""


def scalar_align(m1, m2, group, mode=MatchMode.INDEX_ALIGNED, tol=congruence.DEFAULT_POINT_TOL):
    # frozen reference: align before the P-only work was hoisted out of the shift loop
    if m1.n != m2.n:
        raise LengthMismatch(f"point counts differ: {m1.n} vs {m2.n}")
    if not ms.is_ordinary(m1) or not ms.is_ordinary(m2):
        raise NotOrdinary("alignment requires cusp-free meshes")
    scale = max(m1.diameter, m2.diameter)
    P = m1.points
    best_reason = "no candidate motion matched"
    if group in (ms.Group.SE, ms.Group.E) and abs(m1.diameter - m2.diameter) > tol * scale:
        return ms.CongruenceVerdict(Verdict.NOT_CONGRUENT, reason="diameters differ")
    for idx, tag in congruence._correspondences(m1.n, mode, m1.closed and m2.closed):
        Q = m2.points[idx]
        if group in (ms.Group.SE, ms.Group.E):
            candidates, why = congruence._euclidean_candidates(P[0], P[1], Q[0], Q[1], group, scale, tol)
            if candidates is None:
                best_reason = f"{why} ({tag})"
                continue
            mats = [(m, 0) for m in candidates]
        else:
            mats, why = scalar_unimodular_candidate(P, Q, group, scale, tol)
            if mats is None:
                best_reason = f"{why} ({tag})"
                continue
        for linear, anchor in mats:
            translation = Q[anchor] - linear @ P[anchor]
            deviation = float(np.abs(P @ linear.T + translation - Q).max())
            if deviation <= tol * scale:
                witness = ms.GroupElement(linear, translation, group)
                return ms.CongruenceVerdict(Verdict.CONGRUENT, witness=witness, max_deviation=deviation, correspondence=tag)
            best_reason = f"max deviation {deviation:.3e} over {tol * scale:.3e} ({tag})"
    return ms.CongruenceVerdict(Verdict.NOT_CONGRUENT, reason=best_reason)


def align_outcome(f, *args):
    try:
        v = f(*args)
    except ms.MeshSigError as exc:
        return type(exc), str(exc)
    witness = None if v.witness is None else (v.witness.linear.tobytes(), v.witness.translation.tobytes())
    return v.status, v.reason, repr(v.max_deviation), v.correspondence, witness


class TestCyclicAlignEquivalence:
    """align equals its frozen per-shift reference bit for bit: verdict, witness, reason and tag."""

    def test_closed_outlines(self):
        rng = np.random.default_rng(25)
        statuses = set()
        for k in range(40):
            n = int(rng.integers(5, 40))
            angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
            pts = np.column_stack([np.cos(angles), np.sin(angles)]) * rng.uniform(0.7, 1.3, size=(n, 1))
            if k % 8 == 0:
                pts[:4] = [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]  # collinear leading triples
            for group in ms.Group:
                g = ms.random_motion(group, rng)
                start, reverse = int(rng.integers(0, n)), bool(rng.integers(0, 2))
                order = (start - np.arange(n)) % n if reverse else (np.arange(n) + start) % n
                image = g.apply(pts)[order]
                if k % 3 == 1:
                    image = image + rng.normal(scale=1e-4, size=image.shape)
                for closed in (True, False):
                    try:
                        m1, m2 = ms.Mesh(pts, closed=closed), ms.Mesh(image, closed=closed)
                    except ms.MeshSigError:
                        continue
                    for mode in MatchMode:
                        got = align_outcome(ms.align, m1, m2, group, mode)
                        assert got == align_outcome(scalar_align, m1, m2, group, mode)
                        statuses.add(got[0])
        assert set(Verdict) - {Verdict.HYPOTHESES_NOT_MET} <= statuses
        assert NotClosed in statuses

    def test_all_collinear_raises_after_not_closed(self):
        line = ms.Mesh([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0)])
        for mode in MatchMode:
            got = align_outcome(ms.align, line, line, ms.Group.SA, mode)
            assert got == align_outcome(scalar_align, line, line, ms.Group.SA, mode)
            assert got[0] is (NoNonCollinearTriple if mode is MatchMode.INDEX_ALIGNED else NotClosed)


class TestCounterexamples:
    def test_ex1_contract(self):
        a, b, report = ms.counterexample("ex1")
        assert ms.euclidean_curvature(a, 1) == pytest.approx(1.0, abs=1e-12)
        assert ms.euclidean_curvature(b, 1) == pytest.approx(1.0, abs=1e-12)
        assert ms.align(a, b, ms.Group.SE).status is Verdict.NOT_CONGRUENT
        assert report["expected"]["align_se"] == "not-congruent"

    def test_ex2_contract(self):
        a, b, _ = ms.counterexample("ex2")
        assert ms.is_equally_spaced(a) and ms.is_equally_spaced(b)
        assert ms.euclidean_curvature(a, 1) == pytest.approx(1.0, rel=1e-12)
        assert ms.euclidean_curvature(b, 1) == pytest.approx(1.0, rel=1e-12)
        assert ms.align(a, b, ms.Group.SE).status is Verdict.NOT_CONGRUENT
        assert ms.align(a, b, ms.Group.E).congruent

    def test_ex2_radius_override(self):
        a, b, _ = ms.counterexample("ex2", radius=2.0)
        assert ms.euclidean_curvature(a, 1) == pytest.approx(0.5, rel=1e-12)

    def test_ex3_contract(self):
        a, b, _ = ms.counterexample("ex3")
        # curvature pattern (1/R, 1/R, 1/r) at the three interior points
        assert ms.euclidean_curvature(a, 1) == pytest.approx(1.0, rel=1e-12)
        assert ms.euclidean_curvature(a, 2) == pytest.approx(1.0, rel=1e-12)
        assert ms.euclidean_curvature(a, 3) == pytest.approx(2.0, rel=1e-12)
        assert ms.chord(a, 1, 3) == pytest.approx(1.0, rel=1e-12)
        sa = ms.se_signature(a, ms.Scheme.EQ2)
        sb = ms.se_signature(b, ms.Scheme.EQ2)
        assert sa.points == sb.points  # bitwise
        assert ms.align(a, b, ms.Group.SE).status is Verdict.NOT_CONGRUENT
        assert ms.align(a, b, ms.Group.E).status is Verdict.NOT_CONGRUENT

    def test_ex3_same_spacing_but_flipped_direction(self):
        a, b, _ = ms.counterexample("ex3")
        assert ms.is_equally_spaced(a) and ms.is_equally_spaced(b)
        assert ms.signature_direction(a, 3) is not ms.signature_direction(b, 3)
        v = ms.decide_eq1(a, b)
        assert v.status is Verdict.HYPOTHESES_NOT_MET
        assert "direction" in v.reason

    def test_affine_contract(self):
        a, b, _ = ms.counterexample("affine")
        assert ms.is_convex(a) and ms.is_ordinary(a)
        interior = range(2, a.n - 2)
        ka = np.array([ms.affine_curvature(a, i) for i in interior])
        kb = np.array([ms.affine_curvature(b, i) for i in interior])
        assert np.abs(ka - kb).max() <= 1e-9 * np.abs(ka).max()
        assert np.ptp(ka) > 0.1  # genuinely varying curvature (spliced conics)
        for i in interior:
            np.testing.assert_allclose(
                ms.arc_length_set(a, i).values, ms.arc_length_set(b, i).values, rtol=1e-9
            )
        assert ms.align(a, b, ms.Group.SA).status is Verdict.NOT_CONGRUENT
        assert ms.align(a, b, ms.Group.ABAR).congruent

    def test_unknown_id(self):
        with pytest.raises(ValueError):
            ms.counterexample("nope")


class TestClassification:
    def test_four_classes(self):
        meshes = ms.classification_meshes(1.0, 1.0)
        assert len(meshes) == 4
        for m in meshes:
            assert ms.is_equally_spaced(m)
            assert ms.euclidean_curvature(m, 1) == pytest.approx(1.0, rel=1e-12)
            assert ms.chord(m, 0, 2) == pytest.approx(1.0, rel=1e-12)
        for i in range(4):
            for j in range(i + 1, 4):
                assert not ms.align(meshes[i], meshes[j], ms.Group.SE).congruent

    def test_two_classes_at_diameter(self):
        meshes = ms.classification_meshes(1.0, 2.0)
        assert len(meshes) == 2
        assert not ms.align(meshes[0], meshes[1], ms.Group.SE).congruent
        assert ms.align(meshes[0], meshes[1], ms.Group.E).congruent

    def test_impossible_chord(self):
        with pytest.raises(ValueError):
            ms.classification_meshes(1.0, 2.5)


class TestDecideEq1:
    def test_congruent_pair(self):
        rng = np.random.default_rng(25)
        m = gen.random_equally_spaced_mesh(rng, 12)
        mg = ms.apply_motion(ms.random_motion(ms.Group.SE, rng), m)
        v = ms.decide_eq1(m, mg)
        assert v.congruent and v.witness.group is ms.Group.SE

    def test_mirror_rejected_by_direction(self):
        m = gen.random_equally_spaced_mesh(np.random.default_rng(26), 10)
        mirror = ms.Mesh(m.points * np.array([1.0, -1.0]))
        v = ms.decide_eq1(m, mirror)
        assert v.status is Verdict.HYPOTHESES_NOT_MET
        assert "direction" in v.reason

    def test_three_point_vacuous_signature_surfaces_oracle_disagreement(self):
        # 3-point meshes carry an empty forward signature: the rule's listed
        # hypotheses hold, and only the oracle refutes congruence
        minor, _, major, _ = ms.classification_meshes(1.0, 1.0)
        v = ms.decide_eq1(minor, major)
        assert v.status is Verdict.NOT_CONGRUENT
        assert v.oracle_disagreement

    def test_unequal_spacing_fails(self):
        m = gen.random_unequally_spaced_mesh(np.random.default_rng(27), 10)
        v = ms.decide_eq1(m, m)
        assert v.status is Verdict.HYPOTHESES_NOT_MET
        assert "spaced" in v.reason


class TestDecideEq2:
    def test_congruent_pair_both_variants(self):
        rng = np.random.default_rng(28)
        m = gen.random_equally_spaced_mesh(rng, 12)
        mg = ms.apply_motion(ms.random_motion(ms.Group.SE, rng), m)
        assert ms.decide_eq2_angle_type(m, mg).congruent
        assert ms.decide_eq2_signed(m, mg).congruent

    def test_angle_type_split(self):
        # equal curvature and end distance, same direction, empty signatures:
        # only the angle types separate the minor-arc and major-arc classes
        minor, _, major, _ = ms.classification_meshes(1.0, 1.0)
        assert ms.signature_direction(minor, 1) is ms.signature_direction(major, 1)
        v = ms.decide_eq2_angle_type(minor, major)
        assert v.status is Verdict.HYPOTHESES_NOT_MET
        assert "angle type" in v.reason

    def test_fine_variant(self):
        rng = np.random.default_rng(29)
        # gentle turns keep every interior angle obtuse
        heading = 0.3
        pts = [np.zeros(2)]
        for k in range(11):
            pts.append(pts[-1] + np.array([np.cos(heading), np.sin(heading)]))
            heading += 0.35
        m = ms.Mesh(np.array(pts))
        assert ms.is_fine(m)
        mg = ms.apply_motion(ms.random_motion(ms.Group.SE, rng), m)
        assert ms.decide_eq2_angle_type(m, mg, fine_variant=True).congruent
        # a mesh with an acute angle fails the fine variant
        acute = ms.Mesh([(0, 0), (1, 0), (0.2, 0.3), (1.0, 0.7), (0.4, 1.2),
                         (1.2, 1.6), (0.6, 2.1)])
        spaced = gen.random_equally_spaced_mesh(np.random.default_rng(1), 7)
        v = ms.decide_eq2_angle_type(spaced, spaced, fine_variant=True)
        if not ms.is_fine(spaced):
            assert v.status is Verdict.HYPOTHESES_NOT_MET

    def test_mirror_flips_signed_types(self):
        m = gen.random_equally_spaced_mesh(np.random.default_rng(30), 10)
        mirror = ms.Mesh(m.points * np.array([1.0, -1.0]))
        v = ms.decide_eq2_signed(m, mirror)
        assert v.status is Verdict.HYPOTHESES_NOT_MET
        assert "signed angle" in v.reason

    def test_curvature_only_variant(self):
        rng = np.random.default_rng(31)
        for seed in range(5):
            m = convex_equal_step_mesh(seed)
            mg = ms.apply_motion(ms.random_motion(ms.Group.SE, rng), m)
            v = ms.decide_eq2_signed(m, mg, curvature_only=True)
            assert v.congruent
            oracle = ms.align(m, mg, ms.Group.SE)
            assert oracle.congruent  # rule agrees with the oracle

    def test_curvature_only_needs_positive_angles(self):
        m = gen.random_equally_spaced_mesh(np.random.default_rng(32), 10)
        mirror = ms.Mesh(m.points * np.array([1.0, -1.0]))
        v = ms.decide_eq2_signed(m, mirror, curvature_only=True)
        assert v.status is Verdict.HYPOTHESES_NOT_MET


class TestDecideEq3:
    def test_congruent_pair(self):
        rng = np.random.default_rng(33)
        m = gen.random_unequally_spaced_mesh(rng, 12)
        mg = ms.apply_motion(ms.random_motion(ms.Group.SE, rng), m)
        assert ms.decide_eq3(m, mg).congruent

    def test_closing_chord_condition(self):
        # final point slides along its stencil circumcircle: the last-point
        # curvature is exact and the near-antipodal chord moves only at
        # second order, so every interior hypothesis survives while the
        # closing chord moves at first order
        p0, p1, p2 = (2.3, 2.1), (1.5, 2.45), (0.5, 2.1)
        p3 = (np.cos(2.2), np.sin(2.2))
        p4 = (-1.0, 0.0)
        p5 = (0.05, -0.75)
        p6 = (1.0, 0.0)
        base = np.array([p0, p1, p2, p3, p4, p5, p6])
        m1 = ms.Mesh(base)
        delta = 1e-4
        rot = np.array([[np.cos(delta), -np.sin(delta)], [np.sin(delta), np.cos(delta)]])
        moved = base.copy()
        moved[6] = rot @ moved[6]
        m2 = ms.Mesh(moved)
        v = ms.decide_eq3(m1, m2)
        assert v.status is Verdict.HYPOTHESES_NOT_MET
        assert "closing" in v.reason

    def test_chord_sequence_condition(self):
        rng = np.random.default_rng(34)
        m1 = gen.random_unequally_spaced_mesh(rng, 10)
        m2 = gen.random_unequally_spaced_mesh(rng, 10)
        v = ms.decide_eq3(m1, m2)
        assert v.status is Verdict.HYPOTHESES_NOT_MET


class TestDecideEq4:
    def test_congruent_pair(self):
        rng = np.random.default_rng(35)
        m = gen.random_unequally_spaced_mesh(rng, 14)
        mg = ms.apply_motion(ms.random_motion(ms.Group.SE, rng), m)
        assert ms.decide_eq4(m, mg).congruent

    def test_closed_pair(self):
        rng = np.random.default_rng(36)
        m = gen.random_closed_mesh(rng, 10)
        mg = ms.apply_motion(ms.random_motion(ms.Group.SE, rng), m)
        assert ms.decide_eq4(m, mg).congruent

    def test_endpoint_rules(self):
        rng = np.random.default_rng(37)
        for seed in range(20):
            m = gen.random_unequally_spaced_mesh(seed, 14)
            if ms.signed_angle(m, 3, ms.NeighborhoodSpec(3, 3)) < np.pi / 2:
                break
        else:
            pytest.fail("no mesh with a non-obtuse starting 3-angle found")
        mg = ms.apply_motion(ms.random_motion(ms.Group.SE, rng), m)
        assert ms.decide_eq4(m, mg, endpoint_rule="equal-end-angles").congruent
        v = ms.decide_eq4(m, mg, endpoint_rule="obtuse-start")
        assert v.status is Verdict.HYPOTHESES_NOT_MET

    def test_perturbed_end_triangle(self):
        rng = np.random.default_rng(38)
        m = gen.random_unequally_spaced_mesh(rng, 14)
        g = ms.random_motion(ms.Group.SE, rng)
        pts = ms.apply_motion(g, m).points.copy()
        pts[0] = pts[0] + np.array([0.11, -0.07])
        v = ms.decide_eq4(m, ms.Mesh(pts))
        assert v.status is Verdict.HYPOTHESES_NOT_MET

    def test_too_short_open(self):
        m = gen.random_unequally_spaced_mesh(np.random.default_rng(39), 7)
        from meshsig.errors import MeshTooShort

        with pytest.raises(MeshTooShort):
            ms.decide_eq4(m, m)


class TestResidueSplice:
    def build(self):
        rng = np.random.default_rng(40)
        m = gen.random_closed_mesh(rng, 12)
        motions = [ms.random_motion(ms.Group.SE, 100 + k) for k in range(3)]
        pts = np.array([motions[i % 3].apply(p) for i, p in enumerate(m.points)])
        spliced = ms.Mesh(pts, closed=True)
        assert ms.is_ordinary(spliced)
        return m, spliced

    def test_wide_stencil_data_is_class_invariant(self):
        m, spliced = self.build()
        # every (3,3) quantity lives inside one residue class mod 3, so the
        # per-class motions leave all of them unchanged
        spec33 = ms.NeighborhoodSpec(3, 3)
        for i in range(12):
            assert ms.signed_angle_type(m, i, spec33) == ms.signed_angle_type(spliced, i, spec33)
            assert ms.chord(m, (i - 3) % 12, i) == pytest.approx(
                ms.chord(spliced, (i - 3) % 12, i), rel=1e-12
            )
        err = signature_max_error(
            ms.se_signature(m, ms.Scheme.EQ4, spec33),
            ms.se_signature(spliced, ms.Scheme.EQ4, spec33),
        )
        assert err <= 1e-9
        assert ms.align(m, spliced, ms.Group.SE).status is Verdict.NOT_CONGRUENT

    def test_eq4_rule_catches_the_splice(self):
        m, spliced = self.build()
        # the (3,1) stencil straddles residue classes and exposes the splice
        v = ms.decide_eq4(m, spliced)
        assert v.status is Verdict.HYPOTHESES_NOT_MET
        assert "(3,1)" in v.reason

    def test_host_rule_gates_on_divisibility(self):
        m, spliced = self.build()
        v = ms.decide_host(m, spliced)
        assert v.status is Verdict.HYPOTHESES_NOT_MET
        assert "divisible by 3" in v.reason


class TestDecideAffine:
    def make_pair(self, seed):
        rng = np.random.default_rng(seed)
        m = gen.random_ellipse_arc_mesh(rng, 12)
        g = ms.random_motion(ms.Group.SA, rng)
        return m, ms.apply_motion(g, m)

    @pytest.mark.parametrize("variant", ["thm5.7", "thm5.8", "cor5.9"])
    def test_congruent_pair(self, variant):
        m, mg = self.make_pair(41)
        if variant == "cor5.9" and not (ms.is_fine(m) and ms.is_fine(mg)):
            pytest.skip("arc not Euclidean-fine for this seed")
        v = ms.decide_affine(m, mg, variant)
        assert v.congruent and v.witness.group is ms.Group.SA

    def test_reparameterized_ellipse_fails_arc_lengths(self):
        m1 = gen.ellipse_mesh(12, 2.0, 1.0, t0=0.1, step=0.22, closed=False)
        m2 = gen.ellipse_mesh(12, 2.0, 1.0, t0=0.1, step=0.26, closed=False)
        v = ms.decide_affine(m1, m2, "thm5.7")
        assert v.status is Verdict.HYPOTHESES_NOT_MET
        assert "arc-length" in v.reason

    def test_zero_curvature_rejected_by_57(self):
        m = gen.parabola_mesh(12)
        v = ms.decide_affine(m, m, "thm5.7")
        assert v.status is Verdict.HYPOTHESES_NOT_MET
        assert "vanishes" in v.reason

    def test_58_handles_zero_curvature(self):
        m = gen.parabola_mesh(12)
        g = ms.random_motion(ms.Group.SA, 42)
        assert ms.decide_affine(m, ms.apply_motion(g, m), "thm5.8").congruent

    def test_mirror_pair_surfaces_oracle_disagreement(self):
        # orientation-reversed copies satisfy every listed hypothesis of the
        # never-zero rule; only the oracle can refute equiaffine congruence
        m = gen.ellipse_mesh(16, 1.8, 1.0, closed=True)
        mirror = ms.Mesh(m.points * np.array([1.0, -1.0]), closed=True)
        v = ms.decide_affine(m, mirror, "thm5.7")
        assert v.status is Verdict.NOT_CONGRUENT
        assert v.oracle_disagreement

    def test_nonconvex_raises(self):
        from meshsig.errors import NotConvex

        zig = ms.Mesh([(0, 0), (1, 0.4), (2, 0), (3, 0.4), (4, 0), (5, 0.4), (6, 0)])
        with pytest.raises(NotConvex):
            ms.decide_affine(zig, zig, "thm5.7")


class TestDecideDistAngle:
    def test_congruent_pair(self):
        rng = np.random.default_rng(43)
        m = gen.random_unequally_spaced_mesh(rng, 10)
        mg = ms.apply_motion(ms.random_motion(ms.Group.SE, rng), m)
        assert ms.decide_dist_angle(m, mg).congruent

    def test_mirror_fails(self):
        m = gen.random_unequally_spaced_mesh(np.random.default_rng(44), 10)
        mirror = ms.Mesh(m.points * np.array([1.0, -1.0]))
        v = ms.decide_dist_angle(m, mirror)
        assert v.status is Verdict.HYPOTHESES_NOT_MET

    def test_agrees_with_oracle_on_random_pairs(self):
        rng = np.random.default_rng(45)
        disagreements = 0
        for k in range(1000):
            m = gen.random_ordinary_mesh(rng, 8)
            if k % 2 == 0:
                other = ms.apply_motion(ms.random_motion(ms.Group.SE, rng), m)
            else:
                other = gen.random_ordinary_mesh(rng, 8)
            rule = ms.decide_dist_angle(m, other)
            oracle = ms.align(m, other, ms.Group.SE)
            if rule.congruent != oracle.congruent:
                disagreements += 1
        assert disagreements == 0
