import tracemalloc

import numpy as np
import pytest

import meshsig as ms
from meshsig import generators as gen
from meshsig.errors import (
    CollinearPoints,
    DegenerateArm,
    IndexOutOfRange,
    InvalidGroupElement,
    InvalidMesh,
    OutOfDomain,
)
from meshsig.geometry import GROUP_TOL, _pointset_diameter, edge_lengths, row_norms


class TestMesh:
    def test_rejects_short_and_nonfinite(self):
        with pytest.raises(InvalidMesh):
            ms.Mesh([(0, 0), (1, 0)])
        with pytest.raises(InvalidMesh):
            ms.Mesh([(0, 0), (1, np.nan), (2, 0)])
        with pytest.raises(InvalidMesh):
            ms.Mesh([(0, 0), (np.inf, 0), (2, 0)])

    def test_rejects_successive_duplicates(self):
        with pytest.raises(InvalidMesh):
            ms.Mesh([(0, 0), (0, 0), (1, 0)])
        # wrap edge of a closed mesh counts as successive
        with pytest.raises(InvalidMesh):
            ms.Mesh([(0, 0), (1, 0), (0, 0)], closed=True)

    def test_open_mesh_index_restrictions(self):
        m = ms.Mesh([(0, 0), (1, 0), (2, 1)])
        with pytest.raises(IndexOutOfRange):
            m.p(0, -1)
        with pytest.raises(IndexOutOfRange):
            ms.signature_sign(m, 0)

    def test_closed_mesh_wraps(self):
        m = gen.circle_mesh(6)
        assert m.resolve(5, 1) == 0
        assert m.resolve(0, -1) == 5

    def test_cusp_mesh_constructs_but_not_ordinary(self):
        m = ms.Mesh([(0, 0), (1, 0), (0, 0.0000000001 * 0 + 0)])  # p2 == p0
        assert not ms.is_ordinary(m)
        assert ms.is_ordinary(gen.circle_mesh(8))


def dense_diameter(pts):
    # the O(n^2) reference: every pairwise distance
    diff = pts[:, None, :] - pts[None, :, :]
    return float(np.sqrt((diff ** 2).sum(axis=2)).max())


def regular_polygon(n, radius=1.0, phase=0.0):
    t = phase + 2.0 * np.pi * np.arange(n) / n
    return radius * np.column_stack([np.cos(t), np.sin(t)])


class TestMeshInput:
    def test_input_array_not_aliased(self):
        a = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        before = a.copy()
        m = ms.Mesh(a, closed=True)
        assert a.flags.writeable
        assert np.array_equal(a, before)
        a[0] = (5.0, 5.0)
        assert np.array_equal(m.points, before)
        assert not m.points.flags.writeable


class TestDiameter:
    """The hull-and-calipers diameter equals the dense maximum bit for bit."""

    def check(self, pts):
        pts = np.asarray(pts, dtype=float)
        assert _pointset_diameter(pts) == dense_diameter(pts)

    def test_random_clouds(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(3, 400))
            scale = 10.0 ** rng.uniform(-6, 6)
            self.check(rng.normal(size=(n, 2)) * scale + rng.uniform(-1e3, 1e3, 2))

    def test_regular_polygons_and_circles(self):
        # many exact or near ties between antipodal pairs
        rng = np.random.default_rng(12)
        for n in list(range(3, 61)) + [64, 99, 100, 256, 1000, 1001, 1600]:
            self.check(regular_polygon(n))
            for _ in range(10 if n <= 60 else 1):
                pts = regular_polygon(n, rng.uniform(0.1, 10.0), rng.uniform(0, 2 * np.pi))
                self.check(pts + rng.uniform(-100, 100, 2))

    def test_integer_grids_with_repeats_and_collinear_points(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            n = int(rng.integers(3, 300))
            side = int(rng.integers(1, 8))
            grid = rng.integers(-side, side + 1, size=(n, 2))
            self.check(grid)
            # rounded coordinates: antipodal distances tie to within an ulp
            self.check(grid * rng.uniform(0.1, 3.0) + rng.uniform(-5, 5, 2))
        xs, ys = np.meshgrid(np.arange(7), np.arange(5))
        self.check(np.column_stack([xs.ravel(), ys.ravel()]))

    def test_all_collinear_two_point_hull(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            t = rng.integers(-20, 20, size=int(rng.integers(3, 60)))
            direction = rng.integers(-3, 4, size=2)
            self.check(np.outer(t, direction) + rng.integers(-5, 5, size=2))
        self.check([[1.0, 2.0], [1.0, 2.0], [1.0, 2.0]])

    def test_mesh_uses_it(self):
        pts = regular_polygon(37, 3.0)
        assert ms.Mesh(pts, closed=True).diameter == dense_diameter(pts)

    def test_large_circle_memory_bounded(self):
        # the dense form would need about 6.4 GB for these 20 000 points
        pts = regular_polygon(20000)
        tracemalloc.start()
        try:
            m = ms.Mesh(pts, closed=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20
        assert m.diameter == pytest.approx(2.0, rel=1e-12)


def test_row_norms_match_linalg_norm():
    rng = np.random.default_rng(15)
    d = rng.normal(size=(20000, 2)) * 10.0 ** rng.uniform(-3, 3, size=(20000, 1))
    expected = np.array([np.linalg.norm(v) for v in d])
    assert np.array_equal(row_norms(d), expected)


class TestMotions:
    def test_apply_identity(self):
        m = gen.circle_mesh(5)
        out = ms.apply_motion(ms.GroupElement.identity(), m)
        np.testing.assert_array_equal(out.points, m.points)
        assert out.closed == m.closed

    def test_quarter_turn(self):
        g = ms.GroupElement.rotation(np.pi / 2)
        np.testing.assert_allclose(g.apply([(1.0, 0.0)]), [[0.0, 1.0]], atol=1e-15)

    def test_reflection_maps_to_mirror_class(self):
        # x-axis reflection sends an arc mesh onto its mirror image
        a, b, _ = ms.counterexample("ex2")
        refl = ms.GroupElement(np.diag([1.0, -1.0]), (0.0, 0.0), ms.Group.E)
        np.testing.assert_allclose(ms.apply_motion(refl, a).points, b.points, atol=1e-15)

    def test_group_invariants_enforced(self):
        with pytest.raises(InvalidGroupElement):
            ms.GroupElement([[1.0, 0.0], [0.0, 2.0]], (0, 0), ms.Group.SE)
        with pytest.raises(InvalidGroupElement):
            ms.GroupElement(np.diag([1.0, -1.0]), (0, 0), ms.Group.SE)
        with pytest.raises(InvalidGroupElement):
            ms.GroupElement([[2.0, 0.0], [0.0, 1.0]], (0, 0), ms.Group.SA)
        # det -1 allowed in E and Abar
        ms.GroupElement(np.diag([1.0, -1.0]), (0, 0), ms.Group.E)
        ms.GroupElement([[0.5, 0.0], [0.0, -2.0]], (0, 0), ms.Group.ABAR)

    def test_random_motion_deterministic(self):
        a = ms.random_motion(ms.Group.SE, 0)
        b = ms.random_motion(ms.Group.SE, 0)
        np.testing.assert_array_equal(a.linear, b.linear)
        np.testing.assert_array_equal(a.translation, b.translation)

    def test_random_motion_group_membership(self):
        for seed in range(25):
            assert abs(ms.random_motion(ms.Group.SA, seed).det - 1.0) <= GROUP_TOL

    def test_random_e_motions_cover_both_det_signs(self):
        dets = {np.sign(ms.random_motion(ms.Group.E, seed).det) for seed in range(1000)}
        assert dets == {1.0, -1.0}

    def test_inverse_roundtrip(self):
        rng = np.random.default_rng(5)
        for group in ms.Group:
            m = gen.random_ordinary_mesh(rng, 8)
            g = ms.random_motion(group, rng)
            back = ms.apply_motion(g.inverse(), ms.apply_motion(g, m))
            err = np.abs(back.points - m.points).max()
            assert err <= 1e-9 * m.diameter


class TestSignatureSign:
    def test_collinear_zero(self):
        m = ms.Mesh([(0, 0), (1, 0), (2, 0)])
        assert ms.signature_sign(m, 1) == 0
        assert ms.signature_direction(m, 1) is ms.SigDirection.UNDEFINED

    def test_ccw_circle_positive(self):
        # (p3-p2) x (p1-p2) = (-1,-1) x (1,-1) -> z = +2
        m = ms.Mesh([(1, 0), (0, 1), (-1, 0)])
        assert ms.signature_sign(m, 1) == 1
        assert ms.signature_direction(m, 1) is ms.SigDirection.SD

    def test_reflection_flips(self):
        m = ms.Mesh([(1, 0), (0, 1), (-1, 0)])
        r = ms.Mesh(m.points * np.array([1.0, -1.0]))
        assert ms.signature_sign(r, 1) == -1
        assert ms.signature_direction(r, 1) is ms.SigDirection.NOT_SD

    def test_rotation_preserves_reflection_flips_everywhere(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            m = gen.random_ordinary_mesh(rng, 10)
            rot = ms.random_motion(ms.Group.SE, rng)
            refl = ms.GroupElement(
                rot.linear @ np.diag([1.0, -1.0]), rot.translation, ms.Group.E
            )
            mr = ms.apply_motion(rot, m)
            mf = ms.apply_motion(refl, m)
            for i in m.interior():
                ss = ms.signature_sign(m, i)
                assert ms.signature_sign(mr, i) == ss
                assert ms.signature_sign(mf, i) == -ss


class TestAngles:
    def test_right_angle(self):
        m = ms.Mesh([(0, 0), (1, 0), (1, 1)])
        assert ms.angle(m, 1) == pytest.approx(np.pi / 2, abs=1e-15)

    def test_straight_angle(self):
        m = ms.Mesh([(0, 0), (1, 0), (2, 0)])
        assert ms.angle(m, 1) == pytest.approx(np.pi, abs=1e-15)

    def test_equilateral_vertex(self):
        m = ms.Mesh([(0, 0), (1, 0), (0.5, np.sqrt(3) / 2)], closed=True)
        for i in range(3):
            assert ms.angle(m, i) == pytest.approx(np.pi / 3, abs=1e-12)

    def test_degenerate_arm(self):
        m = gen.circle_mesh(6)
        # offsets wrap all the way around: both arm endpoints equal the vertex
        with pytest.raises(DegenerateArm):
            ms.angle(m, 0, ms.NeighborhoodSpec(6, 6))

    def test_signed_angle_examples(self):
        collinear = ms.Mesh([(0, 0), (1, 0), (2, 0)])
        assert ms.signed_angle(collinear, 1) == 0.0
        ccw = ms.Mesh([(1, 0), (1, 1), (0, 1)])
        assert ms.signed_angle(ccw, 1) == pytest.approx(np.pi / 2)
        cw = ms.Mesh(ccw.points * np.array([1.0, -1.0]))
        assert ms.signed_angle(cw, 1) == pytest.approx(-np.pi / 2)

    def test_signed_angle_is_sign_times_angle(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            m = gen.random_ordinary_mesh(rng, 8)
            for i in m.interior():
                assert ms.signed_angle(m, i) == ms.signature_sign(m, i) * ms.angle(m, i)

    def test_angle_type_classification(self):
        assert ms.angle_type(np.pi / 2) is ms.AngleType.RIGHT
        assert ms.angle_type(np.pi / 3) is ms.AngleType.ACUTE
        assert ms.angle_type(2.0) is ms.AngleType.OBTUSE
        assert ms.angle_type(np.pi / 2 + 1e-8) is ms.AngleType.RIGHT  # inside the band
        with pytest.raises(OutOfDomain):
            ms.angle_type(0.0)
        with pytest.raises(OutOfDomain):
            ms.angle_type(np.pi)

    def test_signed_angle_type(self):
        m = ms.Mesh([(1, 0), (1, 1), (0, 1)])
        s = ms.signed_angle_type(m, 1)
        assert s.sign == 1 and s.kind is ms.AngleType.RIGHT

    def test_angle_invariance_under_e2(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            m = gen.random_ordinary_mesh(rng, 8)
            g = ms.random_motion(ms.Group.E, rng)
            mg = ms.apply_motion(g, m)
            for i in m.interior():
                assert ms.angle(mg, i) == pytest.approx(ms.angle(m, i), rel=1e-9, abs=1e-12)


class TestPredicates:
    def test_regular_polygon(self):
        m = gen.circle_mesh(8)
        assert ms.is_equally_spaced(m)
        assert ms.is_convex(m)
        assert ms.is_fine(m)
        assert ms.is_ordinary(m)

    def test_cusp_not_ordinary(self):
        m = ms.Mesh([(0, 0), (1, 0), (0, 0.0)])
        assert not ms.is_ordinary(m)

    def test_collinear_not_convex(self):
        m = ms.Mesh([(0, 0), (1, 0), (2, 0), (3, 1)])
        assert not ms.is_convex(m)

    def test_mixed_turning_not_convex(self):
        m = ms.Mesh([(0, 0), (1, 0), (1, 1), (2, 1), (2, 2)])
        assert not ms.is_convex(m)

    def test_triangle_not_fine(self):
        # equilateral triangle angles are acute
        m = ms.Mesh([(0, 0), (1, 0), (0.5, np.sqrt(3) / 2)], closed=True)
        assert not ms.is_fine(m)

    def test_spacing_invariant_under_e2(self):
        rng = np.random.default_rng(13)
        m = gen.random_equally_spaced_mesh(rng, 10)
        g = ms.random_motion(ms.Group.E, rng)
        assert ms.is_equally_spaced(ms.apply_motion(g, m))
        e0 = edge_lengths(m)
        e1 = edge_lengths(ms.apply_motion(g, m))
        np.testing.assert_allclose(e1, e0, rtol=1e-9)


class TestCircumcircle:
    def test_unit_circle_points(self):
        center, radius = ms.circumcircle((1, 0), (0, 1), (-1, 0))
        assert center == pytest.approx((0.0, 0.0), abs=1e-15)
        assert radius == pytest.approx(1.0, abs=1e-15)

    def test_bisector_intersection(self):
        center, radius = ms.circumcircle((0, 0), (1, 0), (1, 1))
        assert center == pytest.approx((0.5, 0.5), abs=1e-15)
        assert radius == pytest.approx(np.sqrt(2) / 2, abs=1e-15)

    def test_collinear_raises(self):
        with pytest.raises(CollinearPoints):
            ms.circumcircle((0, 0), (1, 0), (2, 0))

    def test_center_equidistant(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            pts = rng.uniform(-10, 10, size=(3, 2))
            if abs(ms.geometry.orient(*pts)) < 1e-3 * np.abs(pts).max() ** 2:
                continue
            center, radius = ms.circumcircle(*pts)
            dists = np.linalg.norm(pts - np.array(center), axis=1)
            np.testing.assert_allclose(dists, radius, rtol=1e-9)
