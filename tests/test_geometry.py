import itertools
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

import exact
import meshsig as ms
from meshsig import generators as gen, geometry
from meshsig.euclidean import chords
from meshsig.errors import (
    CollinearPoints,
    DegenerateArm,
    IndexOutOfRange,
    InvalidGroupElement,
    InvalidMesh,
    OutOfDomain,
)
from meshsig.geometry import (
    GROUP_TOL,
    _hull_diameter,
    _monotone_chain as monotone_chain,
    _pointset_diameter,
    edge_lengths,
    orient,
    row_norms,
)


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

    def test_length_repr_and_point(self):
        m = ms.Mesh([(0.0, 0.0), (1.0, 0.0), (2.0, 1.5)], label="tri")
        assert len(m) == 3
        assert repr(m) == "<Mesh 'tri' open n=3>"
        assert repr(ms.Mesh(m.points, closed=True)) == "<Mesh closed n=3>"
        p = m.point(2)
        assert p == ms.Point2(2.0, 1.5) and type(p.x) is float and type(p.y) is float
        assert ms.Mesh(m.points, closed=True).point(-1) == p
        with pytest.raises(IndexOutOfRange):
            m.point(3)

    def test_cusp_spans_match_roll_reference(self):
        """Cusp spans and edge lengths are chords of the one length kernel, bit for bit, at every scale."""
        rng = np.random.default_rng(41)
        point_sets = [gen.circle_mesh(n).points for n in (3, 4, 5, 300)]
        point_sets += [rng.normal(size=(int(rng.integers(3, 60)), 2)) * 10.0 ** rng.uniform(-3, 3) for _ in range(40)]
        for pts, j, closed in itertools.product(point_sets, (0, 600, -600), (True, False)):
            m = ms.Mesh(np.ldexp(pts, j), closed=closed)
            # the reference squares the unscaled spans, which stay normal doubles, and scales by 2^j exactly
            spans = np.roll(pts, -1, axis=0) - np.roll(pts, 1, axis=0) if closed else pts[2:] - pts[:-2]
            assert chords(m, -1, 1, m.interior()).tobytes() == np.ldexp(row_norms(spans), j).tobytes()
            edges = edge_lengths(m)
            assert edges.tobytes() == chords(m, 0, 1, range(len(edges))).tobytes()

    def test_cusp_mesh_constructs_but_not_ordinary(self):
        m = ms.Mesh([(0, 0), (1, 0), (0, 0.0000000001 * 0 + 0)])  # p2 == p0
        assert not ms.is_ordinary(m)
        assert ms.is_ordinary(gen.circle_mesh(8))


def dense_diameter(pts):
    # the O(n^2) reference: every pairwise distance, 256 rows at a time
    pts = np.asarray(pts, dtype=float)
    best = 0.0
    for k in range(0, len(pts), 256):
        diff = pts[k:k + 256, None, :] - pts[None, :, :]
        best = max(best, float(np.sqrt((diff ** 2).sum(axis=2)).max()))
    return best


def calipers_diameter(pts):
    """The Python monotone-chain hull and rotating calipers that Mesh() used before its array code.

    Kept as the reference for sets too large for the dense form.
    """
    sorted_pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))].tolist()

    def half(points):
        chain = []
        for p in points:
            while len(chain) >= 2 and orient(chain[-2], chain[-1], p) <= 0:
                chain.pop()
            chain.append(p)
        return chain

    hull = half(sorted_pts)[:-1] + half(reversed(sorted_pts))[:-1]
    h = len(hull)

    def dist2(a, b):
        dx = a[0] - b[0]
        dy = a[1] - b[1]
        return dx * dx + dy * dy

    if h < 3:
        return math.sqrt(dist2(hull[0], hull[-1]))
    best = 0.0
    j = 1
    for i in range(h):
        a, b = hull[i], hull[(i + 1) % h]
        while orient(a, b, hull[(j + 1) % h]) > orient(a, b, hull[j]):
            j = (j + 1) % h
        for k in (j - 1, j, (j + 1) % h):
            best = max(best, dist2(a, hull[k]), dist2(b, hull[k]))
    return math.sqrt(best)


def regular_polygon(n, radius=1.0, phase=0.0):
    t = phase + 2.0 * np.pi * np.arange(n) / n
    return radius * np.column_stack([np.cos(t), np.sin(t)])


def turning_walk(rng, n, step):
    """Open polyline with smooth turns of either sign, as the se-outlines benchmark draws them."""
    k = np.arange(n - 1)
    turns = 0.02 * np.sin(2.0 * np.pi * k / rng.uniform(200, 600) + rng.uniform(0, 6.3))
    heading = rng.uniform(0.0, 2.0 * np.pi) + np.cumsum(turns + rng.uniform(-0.01, 0.01, size=n - 1))
    edges = np.reshape(step, (-1, 1)) * np.column_stack([np.cos(heading), np.sin(heading)])
    return np.vstack([[0.0, 0.0], np.cumsum(edges, axis=0)]) + rng.uniform(-50, 50, size=2)


def reflex_run(run=600, sides=64):
    """A regular polygon and a convex run just inside one edge, ending in a drop onto the edge's far vertex.

    The run lies outside the octagon of extreme points but is no part of the
    hull, and each reflex-removal pass eats only a few points of its tail.
    """
    poly = regular_polygon(sides, 100.0, np.pi / sides)
    k = int(0.69 * sides)  # an edge between the lowest and the lower-left extreme points
    start, edge = poly[k], poly[k + 1] - poly[k]
    s = np.arange(1, run + 1) / (run + 1)
    inward = np.array([-edge[1], edge[0]])
    return np.vstack([poly, start + s[:, None] * edge + (1e-3 * (s + s * s))[:, None] * inward])


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
    """The diameter equals the dense maximum bit for bit, on both sides of DENSE_DIAMETER_MAX."""

    def check(self, pts):
        pts = np.asarray(pts, dtype=float)
        want = dense_diameter(pts) if len(pts) <= 4000 else calipers_diameter(pts)
        assert _pointset_diameter(pts) == want
        assert _hull_diameter(pts) == want

    def test_random_clouds(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(3, 400))
            scale = 10.0 ** rng.uniform(-6, 6)
            self.check(rng.normal(size=(n, 2)) * scale + rng.uniform(-1e3, 1e3, 2))

    def test_regular_polygons_and_circles(self):
        # many exact or near ties between antipodal pairs
        rng = np.random.default_rng(12)
        for n in list(range(3, 61)) + [64, 99, 100, 128, 129, 256, 1000, 1001, 1600]:
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
            t = rng.integers(-20, 20, size=int(rng.integers(3, 300)))
            direction = rng.integers(-3, 4, size=2)
            self.check(np.outer(t, direction) + rng.integers(-5, 5, size=2))
        self.check([[1.0, 2.0], [1.0, 2.0], [1.0, 2.0]])
        self.check(np.tile([1.0, 2.0], (200, 1)))

    def test_near_collinear_hull_vertices(self):
        rng = np.random.default_rng(16)
        for n in (5, 50, 129, 500, 3000):
            t = np.sort(rng.uniform(-1.0, 1.0, n))
            line = np.column_stack([t, 0.5 * t]) + rng.uniform(-10, 10, 2)
            self.check(line)
            # each point a few ulps off the line
            self.check(line + rng.integers(-3, 4, size=line.shape) * np.spacing(np.abs(line)))
            # a short arc of a huge circle: every point a hull vertex, all turns near 1e-9
            phi = 1e-6 * t
            self.check(1e6 * np.column_stack([np.cos(phi), np.sin(phi)]))

    def test_non_successive_repeats(self):
        # a closed figure-eight passes its crossing twice, and a loop traversed twice repeats every point
        for n in (40, 128, 129, 1000):
            t = 2.0 * np.pi * np.arange(n) / n
            eight = np.column_stack([np.sin(t), np.sin(t) * np.cos(t)])
            eight[n // 2] = eight[0]
            self.check(eight)
            self.check(np.vstack([regular_polygon(n // 2 + 3, 2.0)] * 2))

    def test_convex_run_then_drop_and_spiral(self):
        for n in (50, 129, 2000):
            s = np.linspace(0.0, 1.0, n)
            self.check(np.vstack([np.column_stack([s, s * s]), [[1.0 + 1e-3, -1.0]]]))
            t = np.linspace(0.0, 6.0 * np.pi, n)
            self.check(np.column_stack([t * np.cos(t), t * np.sin(t)]))

    def test_turning_walks(self):
        rng = np.random.default_rng(17)
        for _ in range(12):
            n = int(rng.integers(100, 2000))
            self.check(turning_walk(rng, n, rng.uniform(0.05, 0.5)))
            self.check(turning_walk(rng, n, rng.uniform(0.05, 0.5) * rng.uniform(0.6, 1.6, size=n - 1)))

    def test_fallback_chain(self, monkeypatch):
        calls = []
        monkeypatch.setattr(geometry, "_monotone_chain", lambda points: calls.append(len(points)) or monotone_chain(points))
        pts = reflex_run()
        self.check(pts)
        assert calls and max(calls) > 100

    @pytest.mark.parametrize("n", [100, 1000, 10000, 100000])
    def test_fallback_not_entered_on_round_and_random_sets(self, n, monkeypatch):
        monkeypatch.setattr(geometry, "_monotone_chain", lambda points: pytest.fail("fallback entered"))
        rng = np.random.default_rng(n)
        for pts in (regular_polygon(n), regular_polygon(n) * [2.0, 1.0], rng.normal(size=(n, 2))):
            got = _hull_diameter(pts)
            if n <= 10000:
                assert got == (dense_diameter(pts) if n <= 1000 else calipers_diameter(pts))

    def check_route(self, pts, convex, monkeypatch):
        """check(pts), with the convex route taken, building no hull, if and only if `convex`."""
        assert (geometry._convex_polygon(pts) is not None) == convex
        with monkeypatch.context() as m:
            if convex:
                m.setattr(geometry, "_convex_hull", lambda pts: pytest.fail("hull built for a convex sequence"))
            want = dense_diameter(pts) if len(pts) <= 4000 else calipers_diameter(pts)
            assert _pointset_diameter(pts) == want
        assert _hull_diameter(pts) == want

    def test_convex_sequences_in_both_orientations(self, monkeypatch):
        rng = np.random.default_rng(19)
        for n in (129, 130, 500, 3000):
            t = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
            pts = np.column_stack([3.0 * np.cos(t), np.sin(t)]) @ rng.normal(size=(2, 2)) + rng.uniform(-100, 100, 2)
            self.check_route(pts, True, monkeypatch)
            self.check_route(pts[::-1], True, monkeypatch)

    def test_large_convex_circle(self, monkeypatch):
        pts = regular_polygon(100000, 7.0, 0.3)
        self.check_route(pts, True, monkeypatch)
        self.check_route(pts[::-1], True, monkeypatch)

    def test_star_polygon_winding_twice(self, monkeypatch):
        # every second vertex of a regular 1001-gon, twice round: each turn is a left turn of the same size
        star = regular_polygon(1001, 2.0)[(2 * np.arange(1001)) % 1001]
        assert (geometry.orient_rows(np.roll(star, 1, axis=0), star, np.roll(star, -1, axis=0)) > 0).all()
        self.check_route(star, False, monkeypatch)
        self.check_route(star[::-1], False, monkeypatch)

    def test_convex_sequence_with_a_repeated_or_collinear_vertex(self, monkeypatch):
        t = np.linspace(0.0, np.pi, 300)[1:-1]
        arc = np.column_stack([4.0 * np.cos(t), 3.0 * np.sin(t)])
        # the arc from (4, 0) to (-4, 0) and the chord back, which is an edge of a strictly convex polygon
        polygon = np.vstack([[[4.0, 0.0]], arc, [[-4.0, 0.0]]])
        self.check_route(polygon, True, monkeypatch)
        self.check_route(np.insert(polygon, 100, polygon[100], axis=0), False, monkeypatch)
        # (0, 0) on the chord: its turn is exactly 0
        self.check_route(np.vstack([polygon, [[0.0, 0.0]]]), False, monkeypatch)

    def test_mesh_uses_it(self):
        pts = regular_polygon(37, 3.0)
        assert ms.Mesh(pts, closed=True).diameter == dense_diameter(pts)

    @pytest.mark.parametrize("s", [1e160, 1e-170])
    def test_far_from_unit_scale(self, s):
        # unscaled, the squared differences overflow to inf (1e160) or underflow to 0 (1e-170)
        rng = np.random.default_rng(18)
        for pts in (np.array([[0.0, 0.0], [s, 0.0], [0.0, s]]), s * regular_polygon(200), s * rng.normal(size=(300, 2))):
            k = math.frexp(float(np.abs(pts).max()))[1]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                m = ms.Mesh(pts, closed=True)
            assert m.diameter == math.ldexp(dense_diameter(np.ldexp(pts, -k)), k)
            assert m.diameter == pytest.approx(s * dense_diameter(pts / s), rel=1e-15)
            assert edge_lengths(m) == pytest.approx(s * np.hypot(*(np.roll(pts, -1, axis=0) - pts).T / s), rel=1e-15)
        assert m.diameter != 0.0
        assert ms.Mesh([[0, 0], [s, 0], [0, s]]).diameter == pytest.approx(math.sqrt(2.0) * s, rel=1e-15)

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

    def test_repr_names_linear_part_translation_and_group(self):
        g = ms.GroupElement(np.diag([1.0, -1.0]), (2.0, 3.0), ms.Group.E)
        assert repr(g) == "GroupElement([[1.0, 0.0], [0.0, -1.0]], [2.0, 3.0], Group.E)"

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

    def test_det_within_bound(self):
        # det is the arithmetic on the entries alone, so it is checked on matrices no group admits as well
        rng = np.random.default_rng(43)
        matrices = [rng.normal(size=(2, 2)) for _ in range(200)]
        # near-singular: rank one plus 1e-9
        matrices += [np.outer(*rng.normal(size=(2, 2))) + 1e-9 * rng.normal(size=(2, 2)) for _ in range(100)]
        matrices += [[[1.0, 1.0], [1.0, 1.0 + 2.0 ** -52]], [[3.0, 1.0 / 3.0], [1.0, 1.0 / 9.0]]]
        matrices += [rng.normal(size=(2, 2)) * 10.0 ** rng.integers(-150, 150, size=(2, 2)) for _ in range(100)]
        matrices += [ms.random_motion(group, seed).linear for group in ms.Group for seed in range(50)]
        for linear in matrices:
            g = object.__new__(ms.GroupElement)
            g.linear = np.array(linear, dtype=float)
            a, b, c, d = (Fraction(v) for v in g.linear.ravel().tolist())
            bound = Fraction(exact.EPS) * (1 + Fraction(exact.EPS)) * (abs(a * d) + abs(b * c))
            assert abs(Fraction(g.det) - (a * d - b * c)) <= bound

    def test_inverse_within_bound(self):
        elements = [ms.random_motion(group, seed) for group in (ms.Group.SA, ms.Group.ABAR) for seed in range(100)]
        elements += [ms.GroupElement([[1.0, 1e150], [0.0, 1.0]], (3.0, -1e140), ms.Group.SA),
                     ms.GroupElement([[1e150, 1e150], [0.0, 1e-150]], (1e-3, 7.0), ms.Group.SA),
                     ms.GroupElement([[1e7, 1e7 + 1.0], [1e7 - 1.0, 1e7]], (0.5, 0.25), ms.Group.ABAR)]
        eps = Fraction(exact.EPS)
        for g in elements:
            a, b, c, d = (Fraction(v) for v in g.linear.ravel().tolist())
            t = [Fraction(v) for v in g.translation.tolist()]
            det = a * d - b * c
            k = (abs(a * d) + abs(b * c)) / abs(det)
            expected = [[d / det, -b / det], [-c / det, a / det]]
            inv = g.inverse()
            for row, got_row, got_t, exact_t in zip(expected, inv.linear.tolist(), inv.translation.tolist(),
                                                    (-(r[0] * t[0] + r[1] * t[1]) for r in expected)):
                for x, got in zip(row, got_row):
                    assert abs(Fraction(got) - x) <= 2 * eps * (k + 1) * abs(x)
                assert abs(Fraction(got_t) - exact_t) <= 2 * eps * (k + 2) * (abs(row[0] * t[0]) + abs(row[1] * t[1]))

    def test_check_accepts_every_random_motion(self):
        for group in ms.Group:
            for seed in range(500):
                g = ms.random_motion(group, seed)
                ms.GroupElement(g.linear, g.translation, group).check()
                g.inverse().check()

    @pytest.mark.parametrize("linear, translation, group", [
        ([[1.0, np.nan], [0.0, 1.0]], (0.0, 0.0), ms.Group.SA),
        (np.eye(2), (np.inf, 0.0), ms.Group.SE),
        ([[1.0, 1e-9], [0.0, 1.0]], (0.0, 0.0), ms.Group.SE),
        ([[0.0, 1.0], [1.0, 0.0]], (0.0, 0.0), ms.Group.SE),
        ([[1.0, 0.0], [0.0, -1.0]], (0.0, 0.0), ms.Group.SA),
        ([[2.0, 0.0], [0.0, 2.0]], (0.0, 0.0), ms.Group.ABAR),
        ([[1.0, 0.0], [0.0, 1.0 + 1e-9]], (0.0, 0.0), ms.Group.E),
        # a d and b c overflow: the determinant is no number, which no group admits
        ([[1e200, 1e200], [1e200, 1e200]], (0.0, 0.0), ms.Group.SA),
        ([[1e200, 1e200], [1e200, 1e200]], (0.0, 0.0), ms.Group.ABAR),
        ([[1e200, 1e200], [-1e200, 1e200]], (0.0, 0.0), ms.Group.E),
    ])
    def test_check_rejects(self, linear, translation, group):
        with pytest.raises(InvalidGroupElement):
            ms.GroupElement(linear, translation, group)

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

    def test_spacing_tolerance_edge_values(self):
        """rel_tol 0 admits only equal edges, inf every mesh, NaN none."""
        square, ellipse = ms.Mesh([(0, 0), (1, 0), (1, 1), (0, 1)], closed=True), gen.ellipse_mesh(40, 2.0, 1.0)
        assert ms.is_equally_spaced(square, 0.0) and not ms.is_equally_spaced(ellipse, 0.0)
        assert ms.is_equally_spaced(square, math.inf) and ms.is_equally_spaced(ellipse, math.inf)
        assert not ms.is_equally_spaced(square, math.nan) and not ms.is_equally_spaced(ellipse, math.nan)

    def test_spacing_invariant_under_e2(self):
        rng = np.random.default_rng(13)
        m = gen.random_equally_spaced_mesh(rng, 10)
        g = ms.random_motion(ms.Group.E, rng)
        assert ms.is_equally_spaced(ms.apply_motion(g, m))
        e0 = edge_lengths(m)
        e1 = edge_lengths(ms.apply_motion(g, m))
        np.testing.assert_allclose(e1, e0, rtol=1e-9)


def scalar_triple(mesh, i):
    """Frozen per-index reference on the raw points, in plain floats: the sign and vertex angle of the (1,1)-triple.

    Its arms are edges, which Mesh() never lets be zero.
    """
    (px, py), (cx, cy), (nx, ny) = (mesh.points[mesh.resolve(i, k)].tolist() for k in (-1, 0, 1))
    ux, uy, vx, vy = px - cx, py - cy, nx - cx, ny - cy
    cross = vx * uy - vy * ux  # (p[i+1] - p[i]) x (p[i-1] - p[i])
    sign = 0 if abs(cross) <= ms.geometry.COLLINEARITY_REL_TOL * mesh.diameter ** 2 else (1 if cross > 0 else -1)
    return sign, math.atan2(abs(cross), ux * vx + uy * vy)


def scalar_is_convex(mesh):
    triples = [scalar_triple(mesh, i) for i in mesh.interior()]
    signs = [sign for sign, _ in triples]
    if any(s == 0 for s in signs):
        return False
    if len(set(signs)) > 1:
        return False
    if mesh.closed:
        turning = sum(sign * (math.pi - theta) for sign, theta in triples)
        if abs(abs(turning) - 2.0 * math.pi) > 1e-6:
            return False
    return True


def scalar_is_fine(mesh, tol=ms.geometry.RIGHT_ANGLE_TOL):
    # every angle in (0, pi), outside the right-angle band and above pi/2
    half = math.pi / 2.0
    for i in mesh.interior():
        theta = scalar_triple(mesh, i)[1]
        if not 0.0 < theta < math.pi or abs(theta - half) <= tol or theta < half:
            return False
    return True


def predicate_meshes():
    """Random, star-traversal, collinear and near-right-angle meshes, open and closed."""
    rng = np.random.default_rng(31)
    point_sets = []
    for _ in range(150):
        n = int(rng.integers(3, 30))
        point_sets.append(rng.normal(size=(n, 2)) * 10.0 ** rng.uniform(-3, 3))
        angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
        point_sets.append(np.column_stack([np.cos(angles), np.sin(angles)]) * rng.uniform(0.5, 2.0, size=(n, 1)))
    for k in range(5, 14):
        for wind in (1, 2, 3):
            t = 2.0 * np.pi * wind * np.arange(k) / k
            point_sets.append(np.column_stack([np.cos(t), np.sin(t)]))
            # the same circle traversed twice, slightly shifted so no point repeats
            t2 = 2.0 * np.pi * (np.arange(2 * k) + 0.5 * (np.arange(2 * k) >= k)) / k
            point_sets.append(np.column_stack([np.cos(t2), np.sin(t2)]))
    for _ in range(60):
        # right-angle staircases: some turns inside the RIGHT_ANGLE_TOL band, some just outside
        pts, heading = [np.zeros(2)], 0.0
        for j in range(int(rng.integers(3, 12))):
            pts.append(pts[-1] + rng.uniform(0.5, 2.0) * np.array([np.cos(heading), np.sin(heading)]))
            heading += np.pi / 2.0 + rng.choice([0.0, 5e-8, -5e-8, 9.9e-8, 1.01e-7, 3e-7, 0.3])
        pts = np.array(pts)
        if rng.integers(0, 2):
            pts = np.insert(pts, 2, 0.5 * (pts[1] + pts[2]), axis=0)  # an exactly collinear triple
        point_sets.append(pts)
    meshes = []
    for pts in point_sets:
        for closed in (False, True):
            try:
                meshes.append(ms.Mesh(pts, closed=closed))
            except InvalidMesh:
                pass
    return meshes


class TestArrayPredicates:
    """is_convex and is_fine equal their frozen per-index references."""

    def test_match_scalar_references(self):
        meshes = predicate_meshes()
        convex = [ms.is_convex(m) for m in meshes]
        assert convex == [scalar_is_convex(m) for m in meshes]
        assert any(convex) and not all(convex)
        for tol in (ms.geometry.RIGHT_ANGLE_TOL, 1e-3, 0.5):
            fine = [ms.is_fine(m, tol) for m in meshes]
            assert fine == [scalar_is_fine(m, tol) for m in meshes]
            assert any(fine) and not all(fine)

    def test_twice_wound_star_not_convex(self):
        t = 2.0 * np.pi * 2 * np.arange(7) / 7
        star = ms.Mesh(np.column_stack([np.cos(t), np.sin(t)]), closed=True)
        assert not ms.is_convex(star) and not scalar_is_convex(star)
        assert ms.is_convex(ms.Mesh(star.points[[0, 4, 1, 5, 2, 6, 3]], closed=True))

    def test_right_angle_band(self):
        for dtheta, fine in ((5e-8, False), (-5e-8, False), (2e-7, True), (-2e-7, False)):
            theta = np.pi / 2.0 + dtheta
            m = ms.Mesh([(1.0, 0.0), (0.0, 0.0), (np.cos(theta), np.sin(theta))])
            assert ms.is_fine(m) is fine
            assert scalar_is_fine(m) is fine


class TestFarFromUnitScale:
    """Signs, angles and turns on meshes whose squared coordinates would overflow or underflow."""

    SQUARE = np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.5, 0.5)])

    @pytest.mark.parametrize("s", [1e170, 1e-170])
    @pytest.mark.parametrize("closed", [False, True])
    def test_square(self, s, closed):
        unit, far = ms.Mesh(self.SQUARE, closed=closed), ms.Mesh(s * self.SQUARE, closed=closed)
        for i in unit.interior():
            assert ms.signature_sign(far, i) == ms.signature_sign(unit, i)
            assert ms.angle(far, i) == pytest.approx(ms.angle(unit, i), rel=1e-15)
        assert ms.is_convex(far) == ms.is_convex(unit)
        assert ms.is_fine(far) == ms.is_fine(unit)
        raised = []
        for mesh in (far, unit):  # the window holds the collinear triple p0, p2, p4: the same error at both scales
            with pytest.raises(ms.MeshSigError) as exc:
                ms.sd_affine(mesh, 2)
            raised.append((exc.type, str(exc.value)))
        assert raised[0] == raised[1]

    @pytest.mark.parametrize("s", [1e170, 2.0 ** 600, 1e-170])
    def test_ellipse(self, s):
        unit = gen.ellipse_mesh(40, 2.0, 1.0)
        far = ms.Mesh(s * unit.points, closed=True)
        assert ms.is_convex(far) and ms.is_fine(far)
        assert [ms.sd_affine(far, i) for i in range(40)] == [ms.sd_affine(unit, i) for i in range(40)]


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
