import math
import tracemalloc

import numpy as np
import pytest

import meshsig as ms
from meshsig import congruence
from meshsig import generators as gen
from meshsig.congruence import MatchMode, Verdict
from meshsig.errors import (
    DegenerateArm,
    DegenerateTriple,
    LengthMismatch,
    NoNonCollinearTriple,
    NotClosed,
    NotOrdinary,
)
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


def pushed_diameter_pair():
    """A radial outline and its copy with the diameter's endpoints pushed apart by 0.9 limit per coordinate.

    The diameters differ by about 1.8 limit, but the identity stays within limit.
    """
    pts = radial_outline(np.random.default_rng(0), 300)
    far = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(axis=2))
    i, j = np.unravel_index(far.argmax(), far.shape)
    m = ms.Mesh(pts, closed=True)
    push = 0.9 * congruence.DEFAULT_POINT_TOL * m.diameter * np.sign(pts[j] - pts[i])
    moved = pts.copy()
    moved[i] -= push
    moved[j] += push
    return m, ms.Mesh(moved, closed=True)


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

    def test_repr_names_status_and_reason(self):
        circle = gen.circle_mesh(8)
        assert repr(ms.align(circle, circle, ms.Group.SE)) == "CongruenceVerdict(congruent)"
        verdict = ms.align(circle, gen.circle_mesh(8, radius=2.0), ms.Group.SE)
        assert repr(verdict) == "CongruenceVerdict(not-congruent, reason='diameters differ')"

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

    def test_diameter_reject_is_admissible(self):
        m, pushed = pushed_diameter_pair()
        limit = congruence.DEFAULT_POINT_TOL * pushed.diameter
        assert pushed.diameter - m.diameter > 2.0 * limit
        for group in ms.Group:
            v = ms.align(m, pushed, group)
            assert v.congruent, (group, v.reason)
            assert v.max_deviation <= limit

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

    def test_cyclic_visit_order(self):
        # every correspondence of a regular polygon onto itself or its mirror image has
        # a witness, so the first one in the documented visiting order is returned
        m = gen.circle_mesh(12)
        mirror = ms.Mesh(m.points * [1.0, -1.0], closed=True)
        assert ms.align(m, m, ms.Group.E, MatchMode.CYCLIC_REVERSAL).correspondence == "identity"
        assert ms.align(m, mirror, ms.Group.SE, MatchMode.CYCLIC_REVERSAL).correspondence == "reversed shift+0"

    def test_cyclic_requires_closed(self):
        m = gen.random_ordinary_mesh(np.random.default_rng(24), 8)
        from meshsig.errors import NotClosed

        # closedness is checked before the diameters are compared, and before any frame is built
        for other in (m, ms.Mesh(2.0 * m.points)):
            for group in ms.Group:
                with pytest.raises(NotClosed):
                    ms.align(m, other, group, MatchMode.CYCLIC)
                assert "frame" not in m._derived and "frame" not in other._derived


def reference_align(m1, m2, group, mode=MatchMode.INDEX_ALIGNED, tol=congruence.DEFAULT_POINT_TOL):
    """The anchor oracle that the least-squares witness replaced, kept as a reference.

    Per correspondence (identity, reversed shift+0, shift+1, ...) the motion
    comes from the first edge (SE/E: the rotation, then for E the
    reflection) or from the first consecutive triple whose area exceeds
    1e-9 bbox² (SA/Abar, after an area prefilter and a 1e-6 det band), and
    is verified pointwise. Reasons are not reproduced.
    """
    if m1.n != m2.n:
        raise LengthMismatch("point counts differ")
    if not ms.is_ordinary(m1) or not ms.is_ordinary(m2):
        raise NotOrdinary("alignment requires cusp-free meshes")
    if mode is not MatchMode.INDEX_ALIGNED and not (m1.closed and m2.closed):
        raise NotClosed("cyclic match modes require closed meshes")
    n, P, scale = m1.n, m1.points, max(m1.diameter, m2.diameter)
    limit = tol * scale
    euclidean = group in (ms.Group.SE, ms.Group.E)
    # a witness within limit per coordinate moves each point by at most sqrt(2) limit
    rounding = 64 * math.ulp(1.0) * (max(float(np.abs(P).max()), float(np.abs(m2.points).max())) + scale)
    if euclidean and abs(m1.diameter - m2.diameter) > 2 * math.sqrt(2) * limit + rounding:
        return ms.CongruenceVerdict(Verdict.NOT_CONGRUENT, reason="diameters differ")
    if not euclidean:
        band = 1e-9 * (float(np.ptp(P, axis=0).max()) or 1.0) ** 2
        picks = [i for i in range(n - 2) if abs(orient(P[i], P[i + 1], P[i + 2])) > band]
        if not picks:
            raise NoNonCollinearTriple("mesh has no non-collinear consecutive triple")
        pick = picks[0]
        dp = np.column_stack([P[pick + 1] - P[pick], P[pick + 2] - P[pick]])
    base, trials = np.arange(n), [(np.arange(n), "identity")]
    for s in range(n) if mode is not MatchMode.INDEX_ALIGNED else ():
        trials += [((base + s) % n, f"shift+{s}")] if s else []
        trials += [((s - base) % n, f"reversed shift+{s}")] if mode is MatchMode.CYCLIC_REVERSAL else []
    for idx, tag in trials:
        Q, maps = m2.points[idx], []
        if euclidean:
            dp, dq, anchor = P[1] - P[0], Q[1] - Q[0], 0
            if abs(np.linalg.norm(dp) - np.linalg.norm(dq)) <= limit:
                for mirror in (1.0, -1.0)[: 2 if group is ms.Group.E else 1]:
                    ang = np.arctan2(dq[1], dq[0]) - np.arctan2(mirror * dp[1], dp[0])
                    maps.append(np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]]) @ np.diag([1.0, mirror]))
        else:
            op, oq, anchor = orient(*P[pick:pick + 3]), orient(*Q[pick:pick + 3]), pick
            if abs(op - oq if group is ms.Group.SA else abs(op) - abs(oq)) <= tol * scale ** 2:
                linear = np.column_stack([Q[pick + 1] - Q[pick], Q[pick + 2] - Q[pick]]) @ np.linalg.inv(dp)
                det = float(np.linalg.det(linear))
                if not (group is ms.Group.SA and det <= 0) and abs(abs(det) - 1.0) <= 1e-6:
                    maps.append(linear / np.sqrt(abs(det)))
        for linear in maps:
            translation = Q[anchor] - linear @ P[anchor]
            deviation = float(np.abs(P @ linear.T + translation - Q).max())
            if deviation <= limit:
                witness = ms.GroupElement(linear, translation, group)
                return ms.CongruenceVerdict(Verdict.CONGRUENT, witness=witness, max_deviation=deviation, correspondence=tag)
    return ms.CongruenceVerdict(Verdict.NOT_CONGRUENT, reason="no candidate motion matched")


def align_outcome(f, *args):
    """(status or exception class, correspondence, witness deviation) of one call."""
    try:
        v = f(*args)
    except ms.MeshSigError as exc:
        return type(exc), None, None
    if not v.congruent:
        return v.status, None, None
    m1, m2 = args[:2]
    matched = m2.points[tag_indices(v.correspondence, m1.n)]
    return v.status, v.correspondence, float(np.abs(v.witness.apply(m1.points) - matched).max())


def tag_indices(tag, n):
    """Index map of a correspondence tag, rebuilt from its documented format."""
    base = np.arange(n)
    if tag == "identity":
        return base
    shift = int(tag.rsplit("+", 1)[1])
    return (shift - base) % n if tag.startswith("reversed") else (base + shift) % n


class TestCyclicAlignEquivalence:
    """align contains the anchor oracle: every reference Congruent is kept, with its correspondence."""

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
                        want = align_outcome(reference_align, m1, m2, group, mode)
                        assert got[:2] == want[:2] or (got[0] is Verdict.CONGRUENT and want[0] is Verdict.NOT_CONGRUENT)
                        if got[0] is Verdict.CONGRUENT:
                            assert got[2] <= congruence.DEFAULT_POINT_TOL * max(m1.diameter, m2.diameter)
                        statuses.add(got[0])
        assert set(Verdict) - {Verdict.HYPOTHESES_NOT_MET} <= statuses
        assert NotClosed in statuses

    def test_pair_in_the_diameter_band(self):
        # diameters differ by more than limit and less than 2 sqrt(2) limit: both oracles find the identity
        m, pushed = pushed_diameter_pair()
        limit = congruence.DEFAULT_POINT_TOL * pushed.diameter
        assert limit < pushed.diameter - m.diameter < 2.0 * math.sqrt(2) * limit
        for group in ms.Group:
            for mode in MatchMode:
                got = align_outcome(ms.align, m, pushed, group, mode)
                want = align_outcome(reference_align, m, pushed, group, mode)
                assert got[:2] == want[:2] == (Verdict.CONGRUENT, "identity"), (group, mode)

    def test_all_collinear_raises_after_not_closed(self):
        line = ms.Mesh([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0)])
        for mode in MatchMode:
            got = align_outcome(ms.align, line, line, ms.Group.SA, mode)
            assert got == align_outcome(reference_align, line, line, ms.Group.SA, mode)
            assert got[0] is (NoNonCollinearTriple if mode is MatchMode.INDEX_ALIGNED else NotClosed)


def radial_outline(rng, n):
    """Closed star-shaped outline with no symmetry: random low harmonics of the radius."""
    t = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    r = 1.0 + sum(rng.uniform(-0.08, 0.08) * np.cos(k * t + rng.uniform(0.0, 2.0 * np.pi)) for k in range(2, 6))
    return np.column_stack([r * np.cos(t), r * np.sin(t)])


CYCLIC_CASES = (
    (ms.Group.SE, MatchMode.CYCLIC, False),
    (ms.Group.E, MatchMode.CYCLIC_REVERSAL, True),
    (ms.Group.SA, MatchMode.CYCLIC, False),
    (ms.Group.ABAR, MatchMode.CYCLIC_REVERSAL, True),
)


def cyclic_image(rng, pts, group, reverse):
    """(image points, true flat scan index shift * 2 + reversed) of pts under a random motion and start."""
    n = len(pts)
    linear = ms.random_motion(group, rng).linear @ np.diag([1.0, -1.0 if reverse else 1.0])
    start = int(rng.integers(1, n))
    order = (start - np.arange(n)) % n if reverse else (np.arange(n) + start) % n
    return (pts @ linear.T + rng.uniform(-10.0, 10.0, size=2))[order], 2 * start + 1 if reverse else 2 * (n - start)


def direct_residual(Pc, Qc, group):
    """Least sum of squared residuals of one correspondence, summed directly after an SVD or lstsq fit."""
    if group in (ms.Group.SA, ms.Group.ABAR):
        linear = np.linalg.lstsq(Pc, Qc, rcond=None)[0].T
    else:
        u, _, vt = np.linalg.svd(Pc.T @ Qc)
        d = 1.0 if group is ms.Group.E else np.sign(np.linalg.det(vt.T @ u.T))
        linear = vt.T @ np.diag([1.0, d]) @ u.T
    return float(((Pc @ linear.T - Qc) ** 2).sum())


class TestLeastSquaresOracle:
    def test_fine_circle_rotation_is_found(self):
        # the anchor oracle raised NoNonCollinearTriple: consecutive triples fell below its area band
        m = gen.circle_mesh(4000)
        rolled = ms.Mesh(np.roll(m.points, 1234, axis=0), closed=True)
        assert ms.align(m, rolled, ms.Group.SA, MatchMode.CYCLIC).congruent

    @pytest.mark.parametrize("n", [1000, 10000])
    def test_noisy_images(self, n):
        rng = np.random.default_rng(n)
        pts = radial_outline(rng, n)
        m = ms.Mesh(pts, closed=True)
        for group, mode, reverse in CYCLIC_CASES:
            aligned = ms.random_motion(group, rng).apply(pts)
            shifted, _ = cyclic_image(rng, pts, group, reverse)
            for image, match in ((aligned, MatchMode.INDEX_ALIGNED), (shifted, mode)):
                noisy = ms.Mesh(image + rng.normal(scale=1e-8, size=image.shape), closed=True)
                v = ms.align(m, noisy, group, match)
                assert v.congruent, (group, match, v.reason)
                assert v.max_deviation <= 1e-7
                moved = noisy.points.copy()
                moved[int(rng.integers(0, n))] += 1e3 * congruence.DEFAULT_POINT_TOL * max(m.diameter, noisy.diameter)
                assert not ms.align(m, ms.Mesh(moved, closed=True), group, match).congruent

    def test_scan_residuals_within_bound(self):
        rng = np.random.default_rng(31)
        for n in (3, 7, 64, 97, 250):
            P = rng.normal(size=(n, 2)) * [1.0, rng.uniform(0.01, 1.0)] + rng.uniform(-100.0, 100.0, size=2)
            for Q in (rng.normal(size=(n, 2)), P[(np.arange(n) + 5) % n] @ rng.normal(size=(2, 2))):
                Pc, Qc = P - P.mean(axis=0), Q - Q.mean(axis=0)
                mp, mq = ms.Mesh(P, closed=True), ms.Mesh(Q, closed=True)
                for group in ms.Group:
                    residual, bound, _ = congruence._shift_scan(mp, mq, group, True, 0.0)
                    base = np.arange(n)
                    for s in range(n):
                        for rev, idx in enumerate(((base + s) % n, (s - base) % n)):
                            assert abs(residual[s, rev] - direct_residual(Pc, Qc[idx], group)) <= bound

    @pytest.mark.parametrize("n", [300, 3000])
    def test_scan_admits_exactly_the_true_correspondence(self, n):
        rng = np.random.default_rng(n + 1)
        pts, other = radial_outline(rng, n), radial_outline(rng, n)
        m = ms.Mesh(pts, closed=True)
        for group, _, reverse in CYCLIC_CASES:
            image, true_index = cyclic_image(rng, pts, group, reverse)
            # every point moved by 0.9 limit per coordinate: residual near 1.6 n limit², still admitted
            edge = image + 0.9e-6 * m.diameter * rng.choice([-1.0, 1.0], size=image.shape)
            for Q, expected in ((image, [true_index]), (edge, [true_index]), (other, [])):
                mq = ms.Mesh(Q, closed=True)
                limit = congruence.DEFAULT_POINT_TOL * max(m.diameter, mq.diameter)
                admitted = congruence._shift_scan(m, mq, group, True, limit)[2]
                assert admitted.tolist() == expected, (group, reverse)

    @pytest.mark.parametrize("n", [3, 4, 7, 300])
    def test_cyclic_rows_are_the_modular_gathers(self, n):
        X, k = np.random.default_rng(n).normal(size=(n, 2)), np.arange(n)
        for s in range(n):
            assert np.array_equal(congruence._cyclic_rows(X, s, False), X[(k + s) % n])
            assert np.array_equal(congruence._cyclic_rows(X, s, True), X[(s - k) % n])

    def test_scan_runs_on_contiguous_arrays(self, monkeypatch):
        rng = np.random.default_rng(35)
        pts = radial_outline(rng, 300)
        m, inputs, irfft = ms.Mesh(pts, closed=True), [], np.fft.irfft
        monkeypatch.setattr(np.fft, "irfft", lambda a, *args, **kwargs: inputs.append(a) or irfft(a, *args, **kwargs))
        for group, _, reverse in CYCLIC_CASES:
            mq = ms.Mesh(cyclic_image(rng, pts, group, reverse)[0], closed=True)
            residual = congruence._shift_scan(m, mq, group, reverse, 0.0)[0]
            assert residual.shape == (300, 1 + reverse) and residual.T.flags.c_contiguous, group
            assert congruence._spectrum(mq).flags.c_contiguous
        assert congruence._spectrum(m).flags.c_contiguous
        # the transform runs over the last axis of a C-ordered input, the one layout numpy 1.x keeps C-ordered
        assert [(a.flags.c_contiguous, a.shape[-1]) for a in inputs] == [(True, 151)] * len(CYCLIC_CASES)

    def test_cyclic_scan_memory_is_linear(self):
        rng = np.random.default_rng(33)
        pts = radial_outline(rng, 20000)
        image, _ = cyclic_image(rng, pts, ms.Group.E, True)
        m1, m2 = ms.Mesh(pts, closed=True), ms.Mesh(image, closed=True)
        tracemalloc.start()
        try:
            assert ms.align(m1, m2, ms.Group.E, MatchMode.CYCLIC_REVERSAL).congruent
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20  # an n x n float array would take 3.2 GB


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

    def test_end_angles_and_their_zero_arms(self):
        # the end rules read signed_angle of the (3,3) stencil; values and exceptions are its own
        spec33 = ms.NeighborhoodSpec(3, 3)
        rng = np.random.default_rng(40)
        p = {"angle_tol": 1e-9}
        for _ in range(20):
            m = gen.random_unequally_spaced_mesh(rng, int(rng.integers(8, 20)))
            obtuse = ms.signed_angle(m, 3, spec33) >= np.pi / 2.0
            assert congruence._obtuse_start(m, m, p) == (None if obtuse else "starting signed 3-angle below pi/2")
            assert congruence._end_angles(m, m, p) is None
        pts = gen.random_unequally_spaced_mesh(rng, 14).points
        start, end = pts.copy(), pts.copy()
        start[3] = start[0]
        end[-1] = end[-4]
        start, end = ms.Mesh(start), ms.Mesh(end)
        for m, i, checks in ((start, 3, (congruence._end_angles, congruence._obtuse_start)), (end, 10, (congruence._end_angles,))):
            with pytest.raises(DegenerateArm, match=f"^zero-length angle arm at index {i}$"):
                ms.signed_angle(m, i, spec33)
            for check in checks:
                with pytest.raises(DegenerateArm, match=f"^zero-length angle arm at index {i}$"):
                    check(m, m, p)
        assert congruence._obtuse_start(end, end, p) in (None, "starting signed 3-angle below pi/2")
        # through the rule, p[0] == p[3] is met first by the (3,1) curvatures, p[n-1] == p[n-4] by the end angles
        with pytest.raises(DegenerateTriple, match="^two stencil points coincide at index 3$"):
            ms.decide_eq4(start, start)
        with pytest.raises(DegenerateArm, match="^zero-length angle arm at index 10$"):
            ms.decide_eq4(end, end)

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
