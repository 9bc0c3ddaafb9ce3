import functools
from decimal import Decimal, localcontext

import numpy as np
import pytest

import meshsig as ms
from meshsig import generators as gen
from meshsig.errors import (
    DegenerateStencil,
    DegenerateTriple,
    IndexOutOfRange,
    MeshTooShort,
    NotOrdinary,
    SchemeSpacingMismatch,
)
from meshsig.euclidean import interior_curvatures
from meshsig.geometry import SPACING_REL_TOL, edge_lengths
from meshsig.signatures import scheme_rows, signature_max_error
from test_rules import SE_PAIRS


def scalar_curvature_of_triple(p, q, r):
    # frozen scalar reference: one triple per call, sides by np.linalg.norm
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    r = np.asarray(r, dtype=float)
    d = sorted(
        (
            float(np.linalg.norm(q - p)),
            float(np.linalg.norm(r - q)),
            float(np.linalg.norm(r - p)),
        ),
        reverse=True,
    )
    a, b, c = d
    if c <= 1e-15 * a:
        raise DegenerateTriple("two stencil points coincide")
    t = (a + (b + c)) * (c - (a - b)) * (c + (a - b)) * (a + (b - c))
    if t <= 0.0:
        return 0.0
    return float(np.sqrt(t) / (a * b * c))


def _chord_offsets(scheme):
    # frozen copy: offsets of the quotient denominator chord relative to the center index
    return {
        ms.Scheme.EQ1: (0, 1),
        ms.Scheme.EQ2: (-1, 1),
        ms.Scheme.EQ3: (-1, 2),
        ms.Scheme.EQ4: (-3, 3),
    }[scheme]


def scalar_se_signature(mesh, scheme, spec):
    # scalar reference, row by row: each row's curvatures in index order
    # (DegenerateTriple at the first degenerate stencil), then its chord
    # (DegenerateStencil); it skips the ordinary and spacing checks, which
    # se_signature makes first (TestSeSignature pins the row ranges of (1,1) stencils)
    @functools.cache
    def kappa(j):
        try:
            return scalar_curvature_of_triple(mesh.p(j, -spec.m1), mesh.p(j), mesh.p(j, spec.m2))
        except DegenerateTriple as exc:
            raise DegenerateTriple(f"{exc} at index {mesh.resolve(j)}") from None

    lo_c, hi_c = _chord_offsets(scheme)
    rows = []
    for i in scheme_rows(mesh, scheme, spec):
        k = [kappa(j) for j in range(i - scheme.centered, i + 2)]
        denom = float(np.linalg.norm(mesh.p(i, hi_c) - mesh.p(i, lo_c)))
        if denom <= 1e-12 * mesh.diameter:
            raise DegenerateStencil(f"{scheme.label} denominator chord ({i}{lo_c:+d}, {i}{hi_c:+d}) vanishes")
        rows.append((i, k[scheme.centered], scheme.factor * (k[-1] - k[0]) / denom))
    return rows


def outcome(f, *args):
    try:
        return f(*args)
    except (DegenerateTriple, DegenerateStencil) as exc:
        return type(exc), str(exc)


SE_SCHEMES = (ms.Scheme.EQ1, ms.Scheme.EQ2, ms.Scheme.EQ3, ms.Scheme.EQ4)
SPECS = (ms.NeighborhoodSpec(1, 1), ms.NeighborhoodSpec(2, 1), ms.NeighborhoodSpec(1, 3))


# every reader of the stencil table, as (mesh, i, spec) -> value
READERS = {
    "signature_sign": ms.signature_sign,
    "signature_direction": ms.signature_direction,
    "angle": ms.angle,
    "signed_angle": ms.signed_angle,
    "signed_angle_type": ms.signed_angle_type,
    "euclidean_curvature": ms.euclidean_curvature,
    "interior_curvatures": lambda m, i, spec: interior_curvatures(m, spec),
    "se_signature": lambda m, i, spec: ms.se_signature(m, ms.Scheme.EQ3, spec),
    "is_convex": lambda m, i, spec: ms.is_convex(m),
    "is_fine": lambda m, i, spec: ms.is_fine(m),
}


def read(name, m, i, spec):
    """The reader's value, or the class of what it raises."""
    try:
        return READERS[name](m, i, spec)
    except ms.MeshSigError as exc:
        return type(exc)


class TestCurvature:
    def test_unit_circle_triples(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            t = np.sort(rng.uniform(0, 2 * np.pi, size=3))
            if np.diff(t).min() < 1e-3 or (2 * np.pi - (t[2] - t[0])) < 1e-3:
                continue
            pts = np.column_stack([np.cos(t), np.sin(t)])
            assert ms.curvature_of_triple(*pts) == pytest.approx(1.0, abs=1e-12)

    def test_collinear_zero(self):
        m = ms.Mesh([(0, 0), (1, 0), (2.5, 0)])
        assert ms.euclidean_curvature(m, 1) == 0.0

    def test_against_circumcircle_oracle(self):
        # independent computation path: perpendicular-bisector circumcircle
        m = ms.Mesh([(0, 0), (1, 0), (1, 1)])
        kappa = ms.euclidean_curvature(m, 1)
        _, radius = ms.circumcircle((0, 0), (1, 0), (1, 1))
        assert kappa == pytest.approx(np.sqrt(2), rel=1e-15)
        assert kappa == pytest.approx(1.0 / radius, rel=1e-12)

    def test_oracle_agreement_random(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            pts = rng.uniform(-10, 10, size=(3, 2))
            if abs(ms.geometry.orient(*pts)) < 1e-3 * np.abs(pts).max() ** 2:
                continue
            kappa = ms.curvature_of_triple(*pts)
            _, radius = ms.circumcircle(*pts)
            assert abs(kappa - 1.0 / radius) <= 1e-9 * kappa

    def test_degenerate_triple(self):
        with pytest.raises(DegenerateTriple):
            ms.curvature_of_triple((0, 0), (0, 0), (1, 1))

    def test_e2_invariance_and_scaling_witness(self):
        rng = np.random.default_rng(3)
        m = gen.random_ordinary_mesh(rng, 8)
        g = ms.random_motion(ms.Group.E, rng)
        mg = ms.apply_motion(g, m)
        scaled = ms.Mesh(m.points * 2.0)
        for i in m.interior():
            k = ms.euclidean_curvature(m, i)
            assert ms.euclidean_curvature(mg, i) == pytest.approx(k, rel=1e-9)
            assert ms.euclidean_curvature(scaled, i) == pytest.approx(k / 2.0, rel=1e-12)

    def test_wide_stencils(self):
        m = gen.circle_mesh(12, radius=2.0)
        for spec in (ms.NeighborhoodSpec(2, 2), ms.NeighborhoodSpec(3, 1)):
            assert ms.euclidean_curvature(m, 4, spec) == pytest.approx(0.5, rel=1e-12)


class TestCurvatureKernel:
    """The array kernel equals the frozen scalar reference bit for bit."""

    def test_triples_match_scalar_reference(self):
        rng = np.random.default_rng(21)
        pts = rng.normal(size=(3000, 3, 2)) * 10.0 ** rng.uniform(-4, 4, size=(3000, 1, 1))
        # nearly straight triples too
        pts[::3, 1] = 0.5 * (pts[::3, 0] + pts[::3, 2]) + 1e-9 * pts[::3, 1]
        for p, q, r in pts:
            assert ms.curvature_of_triple(p, q, r) == scalar_curvature_of_triple(p, q, r)

    def test_meshes_match_scalar_reference(self):
        rng = np.random.default_rng(22)
        for k in range(40):
            m = ms.Mesh(gen.random_ordinary_mesh(rng, int(rng.integers(8, 200))).points, closed=bool(k % 2))
            for spec in SPECS:
                interior = m.interior(spec.m1, spec.m2)
                expected = [
                    scalar_curvature_of_triple(m.p(i, -spec.m1), m.p(i), m.p(i, spec.m2)) for i in interior
                ]
                assert interior_curvatures(m, spec).tolist() == expected
                assert [ms.euclidean_curvature(m, i, spec) for i in interior] == expected

    def test_degenerate_triples_raise(self):
        # a closed triangle walked twice: its (2,1)-stencils close up on themselves
        m = ms.Mesh([(0, 0), (1, 0), (0, 1)] * 2, closed=True)
        with pytest.raises(DegenerateTriple, match="two stencil points coincide"):
            interior_curvatures(m, ms.NeighborhoodSpec(2, 1))
        with pytest.raises(DegenerateTriple, match="two stencil points coincide"):
            ms.curvature_of_triple((1, 1), (1, 1), (0, 0))

    def test_per_index_reads_raise_like_the_triple(self):
        doubled = ms.Mesh([(0, 0), (1, 0), (0, 1)] * 2, closed=True)
        with pytest.raises(DegenerateTriple, match="^two stencil points coincide at index 0$"):
            ms.euclidean_curvature(doubled, 0, ms.NeighborhoodSpec(2, 1))
        assert ms.euclidean_curvature(doubled, 7) == ms.euclidean_curvature(doubled, 1)
        m = ms.Mesh(gen.circle_mesh(12, radius=2.0).points[:8])
        for i, spec in ((0, SPECS[0]), (7, SPECS[0]), (-1, SPECS[0]), (1, SPECS[1]), (5, SPECS[2])):
            with pytest.raises(IndexOutOfRange):
                ms.euclidean_curvature(m, i, spec)
        assert ms.euclidean_curvature(m, 3, ms.NeighborhoodSpec(3, 1)) == pytest.approx(0.5, rel=1e-12)
        # every reader of the stencil table on the doubled triangle; both flags of the table stay,
        # since a triple can be degenerate with arms of nonzero length
        m = doubled
        # (2,1) at 0: p[-2] and p[1] coincide, but both arms are (1, 0), so the angle is 0
        expected = {"signature_sign": 0, "signature_direction": ms.SigDirection.UNDEFINED, "angle": 0.0,
                    "signed_angle": 0.0, "signed_angle_type": ms.errors.OutOfDomain,
                    "euclidean_curvature": DegenerateTriple, "interior_curvatures": DegenerateTriple,
                    "se_signature": DegenerateTriple, "is_convex": False, "is_fine": False}
        assert {name: read(name, m, 0, ms.NeighborhoodSpec(2, 1)) for name in READERS} == expected
        table = ms.geometry.stencil_table(m, ms.NeighborhoodSpec(2, 1))
        assert table.degenerate.all() and not table.zero_arm.any()
        # (3,3): p[i-3], p[i] and p[i+3] coincide, so both arms are zero too
        expected.update(angle=ms.errors.DegenerateArm, signed_angle=ms.errors.DegenerateArm,
                        signed_angle_type=ms.errors.DegenerateArm)
        assert {name: read(name, m, 0, ms.NeighborhoodSpec(3, 3)) for name in READERS} == expected
        with pytest.raises(ms.errors.DegenerateArm, match="^zero-length angle arm at index 2$"):
            ms.angle(m, 8, ms.NeighborhoodSpec(3, 3))
        with pytest.raises(DegenerateTriple, match="^two stencil points coincide at index 2$"):
            ms.euclidean_curvature(m, 8, ms.NeighborhoodSpec(3, 3))
        # an open mesh's ends: IndexOutOfRange before either flag
        m = ms.Mesh([(0, 0), (1, 0), (0, 1)] * 2)
        per_index = list(READERS)[:6]
        for spec in (ms.NeighborhoodSpec(2, 1), ms.NeighborhoodSpec(3, 3)):
            for i in (-1, 0, m.n - 1, m.n):
                assert {read(name, m, i, spec) for name in per_index} == {IndexOutOfRange}

    def test_needle_accuracy_bound(self):
        """Relative error <= eps * (a + b + c) / (b + c - a), against 50-digit arithmetic."""
        rng = np.random.default_rng(23)
        eps = Decimal(np.finfo(float).eps)
        worst_err = 0.0
        with localcontext() as ctx:
            ctx.prec = 50
            for _ in range(1000):
                p = rng.uniform(-10, 10, 2)
                r = p + rng.uniform(-5, 5, 2)
                normal = np.array([p[1] - r[1], r[0] - p[0]])
                q = p + rng.uniform(0.05, 0.95) * (r - p) + normal * 10.0 ** rng.uniform(-12, -2)
                (px, py), (qx, qy), (rx, ry) = ([Decimal(float(x)) for x in v] for v in (p, q, r))
                u = ((qx - px) ** 2 + (qy - py) ** 2).sqrt()
                v = ((rx - qx) ** 2 + (ry - qy) ** 2).sqrt()
                w = ((rx - px) ** 2 + (ry - py) ** 2).sqrt()
                exact = 2 * abs((qx - px) * (ry - py) - (qy - py) * (rx - px)) / (u * v * w)
                a, b, c = sorted((u, v, w), reverse=True)
                err = abs(Decimal(ms.curvature_of_triple(p, q, r)) - exact) / exact
                assert err <= eps * (a + b + c) / (b + c - a)
                worst_err = max(worst_err, float(err))
        # the bound is not vacuous: nearly straight triples do lose digits
        assert worst_err > 1e-8


class TestSeSignatureArrays:
    """se_signature equals the scalar loop, exceptions included."""

    def check(self, m):
        for spec in SPECS:
            for scheme in SE_SCHEMES:
                got = outcome(ms.se_signature, m, scheme, spec, 1.0)
                expected = outcome(scalar_se_signature, m, scheme, spec)
                if isinstance(expected, tuple):
                    assert got == expected
                else:
                    assert list(zip(got.indices.tolist(), got.kappas.tolist(), got.kappa_s.tolist())) == expected

    def test_random_meshes(self):
        rng = np.random.default_rng(24)
        for k in range(30):
            self.check(ms.Mesh(gen.random_ordinary_mesh(rng, int(rng.integers(8, 300))).points, closed=bool(k % 2)))

    def test_degenerate_stencils_raise_in_row_order(self):
        # a triangle walked round repeatedly, with one lap displaced: (2,1) and
        # (1,3) stencils close up on themselves, and so do eq2 chords
        rng = np.random.default_rng(25)
        for n in range(8, 40):
            pts = np.tile(rng.uniform(-1, 1, (3, 2)), (n // 3 + 1, 1))[:n]
            pts[int(rng.integers(n // 2, n)):] += 1e-3 * rng.uniform(-1, 1, 2)
            for closed in (False, True):
                try:
                    m = ms.Mesh(pts, closed=closed)
                except ms.errors.InvalidMesh:
                    continue
                if ms.is_ordinary(m):
                    self.check(m)

    @pytest.mark.parametrize(
        "ties, raised",
        [
            # eq4 with (2,1) stencils on 20 points: row i divides by the chord (i - 3, i + 3)
            # and reads the stencils (j - 2, j, j + 1) for j = 2 .. 17
            ([(6, 0)], DegenerateStencil),
            ([(4, 1), (7, 1)], DegenerateTriple),
            ([(14, 8)], DegenerateStencil),
            # a degenerate stencil (4, 6, 7) wins over the earlier vanishing chord (2, 8)
            ([(7, 4), (8, 2)], DegenerateTriple),
            # row 3's vanishing chord (0, 6) wins over the later degenerate stencil (13, 15, 16), first read by row 14
            ([(6, 0), (16, 13)], DegenerateStencil),
        ],
    )
    def test_first_failing_row_decides(self, ties, raised):
        pts = np.random.default_rng(26).uniform(-1, 1, (20, 2))
        for dst, src in ties:
            pts[dst] = pts[src]
        m = ms.Mesh(pts)
        assert ms.is_ordinary(m)
        with pytest.raises(raised):
            ms.se_signature(m, ms.Scheme.EQ4, ms.NeighborhoodSpec(2, 1), spacing_tol=1.0)
        self.check(m)


class TestChord:
    def test_values(self):
        m = ms.Mesh([(0, 0), (3, 4), (6, 0)])
        assert ms.chord(m, 0, 0) == 0.0
        assert ms.chord(m, 0, 1) == 5.0

    def test_motion_invariance(self):
        rng = np.random.default_rng(4)
        m = gen.random_ordinary_mesh(rng, 8)
        g = ms.random_motion(ms.Group.E, rng)
        mg = ms.apply_motion(g, m)
        for i in range(m.n):
            for j in range(i + 1, m.n):
                assert ms.chord(mg, i, j) == pytest.approx(ms.chord(m, i, j), rel=1e-12)


class TestSeSignature:
    def test_circle_eq2_is_one_zero(self):
        for radius in (1.0, 2.5):
            m = gen.circle_mesh(16, radius=radius)
            sig = ms.se_signature(m, ms.Scheme.EQ2)
            assert len(sig) == 16
            np.testing.assert_allclose(sig.kappas, 1.0 / radius, rtol=1e-12)
            assert np.abs(sig.kappa_s).max() <= 1e-9 * (1.0 / radius)

    def test_iterates_its_points(self):
        sig = ms.se_signature(gen.circle_mesh(8), ms.Scheme.EQ2)
        rows = list(sig)
        assert rows == sig.points and len(rows) == len(sig) == 8
        assert [p.index for p in rows] == sig.indices.tolist()

    def test_ex3_middle_signature_point(self):
        # circumradius pattern (R, R, r) with R=1, r=1/2 and d(p1, p3)=1:
        # the middle row must be (1/R, (1/r - 1/R) / d13)
        a, _, _ = ms.counterexample("ex3")
        sig = ms.se_signature(a, ms.Scheme.EQ2)
        assert [p.index for p in sig.points] == [2]
        d13 = ms.chord(a, 1, 3)
        assert d13 == pytest.approx(1.0, rel=1e-12)
        assert sig.points[0].kappa == pytest.approx(1.0, rel=1e-12)
        assert sig.points[0].kappa_s == pytest.approx((2.0 - 1.0) / d13, rel=1e-9)

    def test_congruent_pairs_equal_signatures(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            m = gen.random_equally_spaced_mesh(rng, 12)
            for group in (ms.Group.SE, ms.Group.E):
                mg = ms.apply_motion(ms.random_motion(group, rng), m)
                for scheme in (ms.Scheme.EQ1, ms.Scheme.EQ2, ms.Scheme.EQ3, ms.Scheme.EQ4):
                    err = signature_max_error(
                        ms.se_signature(m, scheme), ms.se_signature(mg, scheme)
                    )
                    assert err <= 1e-9

    def test_open_mesh_index_ranges(self):
        m = gen.random_equally_spaced_mesh(np.random.default_rng(6), 10)
        n = m.n
        expect = {
            ms.Scheme.EQ1: range(1, n - 2),
            ms.Scheme.EQ2: range(2, n - 2),
            ms.Scheme.EQ3: range(1, n - 2),
            ms.Scheme.EQ4: range(3, n - 3),
        }
        for scheme, rng_ in expect.items():
            sig = ms.se_signature(m, scheme)
            assert list(sig.indices) == list(rng_)

    def test_closed_mesh_covers_all_indices(self):
        m = gen.circle_mesh(9)
        for scheme in ms.Scheme:
            if scheme.value > 4:
                continue
            assert list(ms.se_signature(m, scheme).indices) == list(range(9))

    def test_spacing_mismatch(self):
        m = gen.random_unequally_spaced_mesh(np.random.default_rng(7), 10)
        for scheme in (ms.Scheme.EQ1, ms.Scheme.EQ2):
            with pytest.raises(SchemeSpacingMismatch):
                ms.se_signature(m, scheme)
        # the unequal-spacing schemes accept any ordinary mesh
        ms.se_signature(m, ms.Scheme.EQ3)
        ms.se_signature(m, ms.Scheme.EQ4)

    @pytest.mark.parametrize("points, tol, named", [
        ([(0.0, 0.0), (1.0, 0.0), (1.0, 1.001)], None, 0),
        ([(0.0, 0.0), (1.001, 0.0), (1.001, 1.0)], None, 1),
        # edges 1, 1.5, 1 and 0.5: the first edge shorter than 1.5 by more than tol * 1.5
        ([(0.0, 0.0), (1.0, 0.0), (1.0, 1.5), (0.0, 1.5), (0.0, 1.0)], None, 0),
        ([(0.0, 0.0), (1.0, 0.0), (1.0, 1.5), (0.0, 1.5), (0.0, 1.0)], 0.4, 3),
    ])
    def test_spacing_mismatch_names_the_first_edge_outside_the_band(self, points, tol, named):
        m = ms.Mesh(points)
        given = {} if tol is None else {"spacing_tol": tol}  # None: the default, SPACING_REL_TOL
        for scheme in (ms.Scheme.EQ1, ms.Scheme.EQ2):
            with pytest.raises(SchemeSpacingMismatch, match=f"^{scheme.label} requires an equally spaced mesh; "
                                                            f"edge {named} deviates$"):
                ms.se_signature(m, scheme, **given)

    def test_spacing_mismatch_names_an_edge_by_the_band_not_the_last_bits(self):
        """On the rule corpus's meshes, the named edge is the first one outside the band, in plain floats."""
        named = 0
        for m in (m for pair in SE_PAIRS for m in pair):
            edges = edge_lengths(m).tolist()
            if not ms.is_ordinary(m) or ms.is_equally_spaced(m):
                continue
            first = next(i for i, e in enumerate(edges) if max(edges) - e > SPACING_REL_TOL * max(edges))
            with pytest.raises(SchemeSpacingMismatch, match=f"; edge {first} deviates$"):
                ms.se_signature(m, ms.Scheme.EQ1)
            named += 1
        assert named > 20

    def test_degenerate_stencil_on_small_closed_mesh(self):
        m = gen.circle_mesh(6)
        with pytest.raises(DegenerateStencil):
            ms.se_signature(m, ms.Scheme.EQ4)

    def test_too_short(self):
        m = ms.Mesh([(0, 0), (1, 0), (1.5, np.sqrt(3) / 2)])  # equally spaced
        with pytest.raises(MeshTooShort):
            ms.se_signature(m, ms.Scheme.EQ2)

    def test_cusp_rejected(self):
        m = ms.Mesh([(0, 0), (1, 0), (0, 0.0), (1, 1)])
        with pytest.raises(NotOrdinary):
            ms.se_signature(m, ms.Scheme.EQ3)

    def test_signature_comparison_rejects_mismatched(self):
        m = gen.circle_mesh(10)
        s1 = ms.se_signature(m, ms.Scheme.EQ1)
        s2 = ms.se_signature(m, ms.Scheme.EQ2)
        with pytest.raises(ValueError):
            signature_max_error(s1, s2)


class TestRefinement:
    def test_eq2_converges_on_ellipse(self):
        # equal-chord samples of an ellipse arc versus the smooth signature
        a, b = 2.0, 1.0

        def curve(t):
            t = np.asarray(t)
            return np.stack([a * np.cos(t), b * np.sin(t)], axis=-1)

        dense_t = np.linspace(0.6, 3.1, 40000)
        speed = np.hypot(a * np.sin(dense_t), b * np.cos(dense_t))
        kappa = a * b / (a * a * np.sin(dense_t) ** 2 + b * b * np.cos(dense_t) ** 2) ** 1.5
        dkappa = np.gradient(kappa, dense_t)
        analytic = np.column_stack([kappa, dkappa / speed])
        scale = np.array([np.ptp(analytic[:, 0]), np.ptp(analytic[:, 1])])

        errors = []
        total_chord = 3.0  # n points span n-1 chords: keep the covered arc fixed
        for n in (12, 24, 48, 96):
            mesh = gen.equal_chord_curve_mesh(curve, n, total_chord / (n - 1), t0=0.7)
            sig = ms.se_signature(mesh, ms.Scheme.EQ2)
            pts = np.column_stack([sig.kappas, sig.kappa_s])
            dist = [
                np.min(np.linalg.norm((analytic - p) / scale, axis=1)) for p in pts
            ]
            errors.append(max(dist))
        assert errors[0] > errors[1] > errors[2] > errors[3]

    def test_eq4_converges_on_unequally_spaced_ellipse(self):
        # equal-parameter ellipse samples: chord lengths vary smoothly
        a, b = 2.0, 1.0
        dense_t = np.linspace(0.5, 2.75, 40000)
        speed = np.hypot(a * np.sin(dense_t), b * np.cos(dense_t))
        kappa = a * b / (a * a * np.sin(dense_t) ** 2 + b * b * np.cos(dense_t) ** 2) ** 1.5
        kappa_s = np.gradient(kappa, dense_t) / speed
        analytic = np.column_stack([kappa, kappa_s])
        scale = np.array([np.ptp(kappa), np.ptp(kappa_s)])
        errors = []
        for n in (16, 32, 64, 128):
            t = np.linspace(0.6, 2.6, n)
            mesh = ms.Mesh(np.column_stack([a * np.cos(t), b * np.sin(t)]))
            assert not ms.is_equally_spaced(mesh)
            sig = ms.se_signature(mesh, ms.Scheme.EQ4)
            pts = np.column_stack([sig.kappas, sig.kappa_s])
            errors.append(
                max(np.min(np.linalg.norm((analytic - p) / scale, axis=1)) for p in pts)
            )
        assert errors[0] > errors[1] > errors[2] > errors[3]
