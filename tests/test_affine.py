import functools

import numpy as np
import pytest

import meshsig as ms
from meshsig import affine, congruence
from meshsig import generators as gen
from meshsig.errors import (
    DegenerateConfiguration,
    DegenerateStencil,
    IndexOutOfRange,
    MeshTooShort,
    NonRealMu,
    NotConvex,
    NotOrdinary,
    ParabolicConic,
    SchemeSpacingMismatch,
    WrongCurvatureSign,
    ZeroDenominator,
    ZeroF,
)
from meshsig.geometry import cross2, is_convex, is_equally_spaced, is_fine, is_ordinary, orient
from meshsig.signatures import signature_max_error


def conic_through_circle(radius=1.0, center=(0.0, 0.0), phases=(0.1, 0.9, 1.7, 2.8, 4.0)):
    t = np.asarray(phases)
    return np.column_stack([center[0] + radius * np.cos(t), center[1] + radius * np.sin(t)])


class TestFitConic:
    def test_unit_circle_coefficients(self):
        c = ms.fit_conic(conic_through_circle())
        expect = np.array([1.0, 0.0, 1.0, 0.0, 0.0, -1.0]) / np.sqrt(3.0)
        np.testing.assert_allclose(c.vector, expect, atol=1e-12)

    def test_parabola_coefficients(self):
        x = np.array([-1.0, -0.5, 0.0, 0.7, 1.3])
        c = ms.fit_conic(np.column_stack([x, x * x]))
        expect = np.array([1.0, 0.0, 0.0, 0.0, -0.5, 0.0])
        expect /= np.linalg.norm(expect)
        np.testing.assert_allclose(c.vector, expect, atol=1e-12)
        assert ms.invariants(c).S == pytest.approx(0.0, abs=1e-14)

    def test_three_collinear_rejected(self):
        pts = np.array([[0, 0], [1, 0], [2, 0], [0, 1], [1, 2]], dtype=float)
        with pytest.raises(DegenerateConfiguration):
            ms.fit_conic(pts)

    def test_coincident_rejected(self):
        pts = np.array([[0, 0], [0, 0], [1, 1], [2, 0], [0.5, 2]], dtype=float)
        with pytest.raises(DegenerateConfiguration):
            ms.fit_conic(pts)

    def test_residuals_small(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            t = np.sort(rng.uniform(0, 2 * np.pi, size=5))
            if np.diff(t).min() < 0.2:
                continue
            a, b = rng.uniform(0.5, 3.0, size=2)
            pts = np.column_stack([a * np.cos(t), b * np.sin(t)]) + rng.uniform(-5, 5, size=2)
            c = ms.fit_conic(pts)
            assert max(abs(c.evaluate(p)) for p in pts) <= 1e-8


class TestInvariants:
    def test_unit_circle_values(self):
        c = affine.ConicCoeffs(1.0, 0.0, 1.0, 0.0, 0.0, -1.0)
        inv = ms.invariants(c)
        assert inv.S == pytest.approx(1.0)
        assert inv.F == pytest.approx(-1.0)
        assert affine.kappa_from_invariants(inv) == pytest.approx(1.0)

    def test_rescaling_identities(self):
        rng = np.random.default_rng(9)
        c = ms.fit_conic(conic_through_circle(radius=1.7, center=(2.0, -1.0)))
        inv = ms.invariants(c)
        for _ in range(20):
            lam = rng.uniform(0.1, 4.0) * rng.choice([-1.0, 1.0])
            scaled = ms.invariants(c.scaled(lam))
            assert scaled.S == pytest.approx(lam ** 2 * inv.S, rel=1e-12)
            assert scaled.F == pytest.approx(lam ** 3 * inv.F, rel=1e-12)
            k0 = affine.kappa_from_invariants(inv)
            k1 = affine.kappa_from_invariants(scaled)
            assert abs(k0 - k1) <= 1e-12 * abs(k0)


class TestAffineCurvature:
    def test_circle_is_one(self):
        m = gen.circle_mesh(12)
        for i in range(12):
            assert ms.affine_curvature(m, i) == pytest.approx(1.0, rel=1e-10)

    def test_ellipse_value(self):
        m = gen.ellipse_mesh(12, 2.0, 1.0, closed=True)
        assert ms.affine_curvature(m, 3) == pytest.approx((2.0) ** (-2.0 / 3.0), rel=1e-9)

    def test_parabola_zero(self):
        m = gen.parabola_mesh(9)
        assert abs(ms.affine_curvature(m, 4)) <= 1e-9

    def test_hyperbola_negative(self):
        m = gen.hyperbola_mesh(9)
        assert ms.affine_curvature(m, 4) == pytest.approx(-1.0, rel=1e-9)

    def test_sign_matches_conic_class(self):
        ell = gen.ellipse_mesh(10, 1.3, 0.8, closed=True)
        par = gen.parabola_mesh(10)
        hyp = gen.hyperbola_mesh(10)
        assert ms.invariants(affine.conic_at(ell, 2)).S > 0
        assert abs(ms.invariants(affine.conic_at(par, 4)).S) <= 1e-12
        assert ms.invariants(affine.conic_at(hyp, 4)).S < 0

    def test_sa_invariance(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            m = gen.random_ellipse_arc_mesh(rng, 9)
            g = ms.random_motion(ms.Group.SA, rng)
            mg = ms.apply_motion(g, m)
            for i in m.interior(2, 2):
                k0 = ms.affine_curvature(m, i)
                assert ms.affine_curvature(mg, i) == pytest.approx(k0, rel=1e-8)

    def test_det_minus_one_behavior_recorded(self):
        # measured: orientation-reversing unimodular maps preserve the curvature
        rng = np.random.default_rng(11)
        m = gen.random_ellipse_arc_mesh(rng, 9)
        g = ms.random_motion(ms.Group.ABAR, 13)
        assert g.det < 0
        mg = ms.apply_motion(g, m)
        for i in m.interior(2, 2):
            assert ms.affine_curvature(mg, i) == pytest.approx(
                ms.affine_curvature(m, i), rel=1e-8
            )


class TestConicCenter:
    def test_unit_circle(self):
        c = ms.fit_conic(conic_through_circle())
        assert ms.conic_center(c) == pytest.approx((0.0, 0.0), abs=1e-12)

    def test_translated_circle(self):
        c = ms.fit_conic(conic_through_circle(center=(2.0, 0.0)))
        assert ms.conic_center(c) == pytest.approx((2.0, 0.0), abs=1e-10)

    def test_parabola_raises(self):
        x = np.array([-1.0, -0.5, 0.0, 0.7, 1.3])
        c = ms.fit_conic(np.column_stack([x, x * x]))
        with pytest.raises(ParabolicConic):
            ms.conic_center(c)


class TestArcLength:
    def test_same_point_zero(self):
        m = gen.circle_mesh(12)
        assert ms.affine_arc_length(m, 3, 3, 3) == pytest.approx(0.0, abs=1e-15)

    def test_circle_steps_equal(self):
        m = gen.circle_mesh(12)
        values = [ms.affine_arc_length(m, i, i, (i + 1) % 12) for i in range(12)]
        # on the unit circle L(i, i+1) = |sin(2 pi / 12)| = 1/2
        np.testing.assert_allclose(values, 0.5, rtol=1e-9)

    def test_unimodular_invariance(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            m = gen.random_ellipse_arc_mesh(rng, 9)
            g = ms.random_motion(ms.Group.SA, rng)
            mg = ms.apply_motion(g, m)
            for k, l in ((2, 3), (3, 5), (1, 6)):
                v0 = ms.affine_arc_length(m, 4, k, l)
                v1 = ms.affine_arc_length(mg, 4, k, l)
                assert v1 == pytest.approx(v0, rel=1e-8, abs=1e-10)

    def test_five_neighborhood_enforced(self):
        m = gen.ellipse_mesh(16, 1.5, 1.0, closed=False, step=0.3)
        with pytest.raises(IndexOutOfRange):
            ms.affine_arc_length(m, 7, 1, 8)

    def test_parabola_signed_branch(self):
        # y = x^2 fits A=1, B=0, E=-1/2 scaled: L = cbrt(A^2/(AE-BD)) * dx
        m = gen.parabola_mesh(9, -1.0, 1.0)
        L = ms.affine_arc_length(m, 4, 4, 5)
        dx = m.points[4, 0] - m.points[5, 0]
        assert L == pytest.approx(np.cbrt(-2.0) * dx, rel=1e-9)
        # signed: swapping endpoints flips the sign
        assert ms.affine_arc_length(m, 4, 5, 4) == pytest.approx(-L, rel=1e-9)

    def test_zero_denominator(self):
        # degenerate parabolic conic with A = 0 comes from a sideways parabola
        y = np.array([-1.0, -0.5, 0.0, 0.7, 1.3])
        m = ms.Mesh(np.column_stack([y * y, y]))
        with pytest.raises(ZeroDenominator):
            ms.affine_arc_length(m, 2, 2, 3)

    def test_arc_length_set(self):
        m = gen.circle_mesh(12)
        s = ms.arc_length_set(m, 4)
        assert s.at == 4
        np.testing.assert_allclose(s.values, 0.5, rtol=1e-9)
        with pytest.raises(IndexOutOfRange):
            ms.arc_length_set(gen.ellipse_mesh(8, 1.5, 1.0, closed=False, step=0.3), 1)

    def test_arc_length_set_sa_invariant(self):
        rng = np.random.default_rng(13)
        m = gen.random_ellipse_arc_mesh(rng, 10)
        g = ms.random_motion(ms.Group.SA, rng)
        mg = ms.apply_motion(g, m)
        for i in m.interior(2, 2):
            np.testing.assert_allclose(
                ms.arc_length_set(mg, i).values, ms.arc_length_set(m, i).values, rtol=1e-8
            )


class TestSdAffine:
    def test_ccw_ellipse(self):
        m = gen.ellipse_mesh(12, 2.0, 1.0, closed=True)
        assert ms.sd_affine(m, 4) is ms.SigDirection.SD

    def test_reversed_order(self):
        m = gen.ellipse_mesh(12, 2.0, 1.0, closed=True)
        rev = ms.Mesh(m.points[::-1], closed=True)
        assert ms.sd_affine(rev, 4) is ms.SigDirection.NOT_SD

    def test_positive_det_preserves(self):
        rng = np.random.default_rng(14)
        m = gen.random_ellipse_arc_mesh(rng, 9)
        g = ms.random_motion(ms.Group.SA, rng)
        mg = ms.apply_motion(g, m)
        for i in m.interior(2, 2):
            assert ms.sd_affine(mg, i) is ms.sd_affine(m, i)

    def test_degenerate_window(self):
        m = ms.Mesh([(0, 0), (1, 0.5), (2, 0), (3, 0.5), (4, 0)])  # zig-zag
        with pytest.raises(DegenerateConfiguration):
            ms.sd_affine(m, 2)


class TestFineness:
    def test_small_arc_has_fine_area(self):
        m = gen.ellipse_mesh(12, 2.0, 1.0, t0=0.3, step=0.2, closed=False)
        for i in m.interior(2, 2):
            assert ms.has_fine_area(m, i)

    def test_wrong_sign_raises(self):
        hyp = gen.hyperbola_mesh(9)
        with pytest.raises(WrongCurvatureSign):
            ms.has_fine_area(hyp, 4)
        ell = gen.circle_mesh(10)
        with pytest.raises(WrongCurvatureSign):
            ms.in_fine_position(ell, 4)

    def test_fine_position_on_one_branch(self):
        # x^2 - y^2 = 1: gap bound is 2 (twice the unit semi-axis)
        m = gen.hyperbola_mesh(9, -0.8, 0.8)
        assert affine.hyperbola_gap_bound(m, 4) == pytest.approx(2.0, rel=1e-9)
        assert ms.in_fine_position(m, 4)

    def test_fine_position_fails_across_branches(self):
        t = np.linspace(0.2, 1.0, 3)
        right = np.column_stack([np.cosh(t), np.sinh(t)])
        left = np.column_stack([-np.cosh(t[:2]), np.sinh(t[:2]) + 0.1])
        m = ms.Mesh(np.vstack([right, left]))
        assert ms.affine_curvature(m, 2) < 0
        assert not ms.in_fine_position(m, 2)

    def test_gap_bound_not_real_for_conjugate_orientation(self):
        # y^2 - x^2 = 1: the larger characteristic root belongs to the
        # non-transverse axis and the bound's radicand goes negative
        t = np.linspace(-0.8, 0.8, 9)
        m = ms.Mesh(np.column_stack([np.sinh(t), np.cosh(t)]))
        assert ms.affine_curvature(m, 4) < 0
        with pytest.raises(NonRealMu):
            affine.hyperbola_gap_bound(m, 4)
        assert not ms.is_affine_fine(m)

    def test_gap_bound_of_parabolic_conic_raises(self):
        # S is exactly 0 in the unit scale at index 4: the bound divides by it
        m = ms.Mesh([[-2, -3], [1, -1], [-3, 2], [2, 1], [2, -3], [-2, 0], [-2, 2]])
        with pytest.raises(ParabolicConic, match="index 4"):
            affine.hyperbola_gap_bound(m, 4)

    def test_is_affine_fine(self):
        assert ms.is_affine_fine(gen.ellipse_mesh(12, 2.0, 1.0, t0=0.3, step=0.2, closed=False))
        assert ms.is_affine_fine(gen.circle_mesh(12))


class TestSaSignature:
    def test_ellipse_eq6_constant(self):
        m = gen.ellipse_mesh(16, 1.7, 0.9, closed=True)
        sig = ms.sa_signature(m, ms.Scheme.EQ6)
        np.testing.assert_allclose(sig.kappas, (1.7 * 0.9) ** (-2.0 / 3.0), rtol=1e-9)
        assert np.abs(sig.kappa_s).max() <= 1e-10

    def test_parabola_eq6_zero_kappa(self):
        # equal x-steps give equal parabolic arc lengths, so eq6 applies
        m = gen.parabola_mesh(11)
        sig = ms.sa_signature(m, ms.Scheme.EQ6)
        assert np.abs(sig.kappas).max() <= 1e-9

    def test_congruent_pair(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            m = gen.random_ellipse_arc_mesh(rng, 12)
            g = ms.random_motion(ms.Group.SA, rng)
            mg = ms.apply_motion(g, m)
            for scheme in (ms.Scheme.EQ5, ms.Scheme.EQ6, ms.Scheme.EQ7, ms.Scheme.EQ8):
                err = signature_max_error(
                    ms.sa_signature(m, scheme), ms.sa_signature(mg, scheme)
                )
                assert err <= 1e-8

    def test_spacing_mismatch(self):
        # radial jitter breaks the equal-arc-length requirement of eq5/eq6
        rng = np.random.default_rng(16)
        t = np.linspace(0.2, 2.6, 12)
        radii = 1.0 + 0.15 * rng.random(12)
        m = ms.Mesh(np.column_stack([2.0 * radii * np.cos(t), radii * np.sin(t)]))
        if ms.is_convex(m):
            with pytest.raises(SchemeSpacingMismatch):
                ms.sa_signature(m, ms.Scheme.EQ6)

    def test_extrapolation_flagged(self):
        m = gen.ellipse_mesh(16, 1.4, 1.0, closed=True)
        assert "arc_length_extrapolation" in ms.sa_signature(m, ms.Scheme.EQ8).meta
        assert "arc_length_extrapolation" not in ms.sa_signature(m, ms.Scheme.EQ6).meta

    def test_open_mesh_index_ranges(self):
        m = gen.ellipse_mesh(14, 1.5, 1.0, closed=False, step=0.25)
        n = m.n
        expect = {
            ms.Scheme.EQ5: range(2, n - 3),
            ms.Scheme.EQ6: range(3, n - 3),
            ms.Scheme.EQ7: range(2, n - 3),
            ms.Scheme.EQ8: range(5, n - 5),
        }
        for scheme, rng_ in expect.items():
            assert list(ms.sa_signature(m, scheme).indices) == list(rng_)


# ---------------------------------------------------------------------------
# Frozen scalar references: the one-index-at-a-time evaluation that the
# per-mesh block replaced, with its operations in their order (only names
# and the inlining of small helpers differ). The block and its views must
# equal it bit for bit, exceptions (class and message) included.
# ---------------------------------------------------------------------------

PARABOLIC_TOL = affine.PARABOLIC_TOL


def ref_fit_conic(points):
    pts = np.asarray(points, dtype=float)
    if pts.shape != (5, 2):
        raise DegenerateConfiguration(f"conic fit needs exactly 5 points, got {pts.shape}")
    scale = max(float(np.abs(pts).max()), 1e-300)
    for i in range(5):
        for j in range(i + 1, 5):
            if np.linalg.norm(pts[i] - pts[j]) <= 1e-12 * scale:
                raise DegenerateConfiguration(f"fit points {i} and {j} coincide")
            for k in range(j + 1, 5):
                if abs(orient(pts[i], pts[j], pts[k])) <= 1e-12 * scale ** 2:
                    raise DegenerateConfiguration(f"fit points {i}, {j}, {k} are collinear")
    centroid = pts.mean(axis=0)
    spread = float(np.sqrt(((pts - centroid) ** 2).sum(axis=1).mean()))
    u = (pts - centroid) / spread
    x, y = u[:, 0], u[:, 1]
    design = np.stack([x * x, 2.0 * x * y, y * y, 2.0 * x, 2.0 * y, np.ones_like(x)], axis=1)
    _, sv, vt = np.linalg.svd(design)
    if sv[4] <= 1e-13 * sv[0]:
        raise DegenerateConfiguration("conic through the five points is not unique (rank < 5)")
    a, b, c, d, e, f0 = (float(v) for v in vt[-1])
    frame = np.array(
        [
            [1.0 / spread, 0.0, -centroid[0] / spread],
            [0.0, 1.0 / spread, -centroid[1] / spread],
            [0.0, 0.0, 1.0],
        ]
    )
    mat = frame.T @ np.array([[a, b, d], [b, c, e], [d, e, f0]]) @ frame
    vec = np.array([mat[0, 0], mat[0, 1], mat[1, 1], mat[0, 2], mat[1, 2], mat[2, 2]])
    vec = vec / np.linalg.norm(vec)
    lead = vec[:3][np.abs(vec[:3]) > 1e-12]
    pivot = lead[0] if len(lead) else vec[np.abs(vec) > 1e-12][0]
    if pivot < 0:
        vec = -vec
    coeffs = affine.ConicCoeffs.from_vector(vec)
    row_scale = max(1.0, float(np.abs(pts).max()) ** 2)
    worst = max(abs(coeffs.evaluate(p)) for p in pts)
    if worst > affine.RESIDUAL_TOL * row_scale:
        raise DegenerateConfiguration(f"conic fit residual {worst:.3e} exceeds tolerance")
    return coeffs


def ref_invariants(c):
    m3 = np.array([[c.A, c.B, c.D], [c.B, c.C, c.E], [c.D, c.E, c.F0]])
    return affine.AffineInvariants(S=float(c.A * c.C - c.B * c.B), F=float(np.linalg.det(m3)))


def ref_kappa_from_invariants(inv):
    if abs(inv.F) <= affine.ZERO_F_TOL:
        raise ZeroF(f"cubic invariant {inv.F!r} too small: degenerate conic")
    return float(inv.S / np.cbrt(inv.F) ** 2)


def ref_fit_window(mesh, i):
    return np.array([mesh.p(i, off) for off in range(-2, 3)])


@functools.lru_cache(maxsize=None)
def _ref_conic(mesh, i):
    return ref_fit_conic(ref_fit_window(mesh, i))


def ref_conic_at(mesh, i):
    return _ref_conic(mesh, mesh.resolve(i))


def ref_affine_curvature(mesh, i):
    return ref_kappa_from_invariants(ref_invariants(ref_conic_at(mesh, i)))


def ref_conic_center(c, tol=PARABOLIC_TOL):
    inv = ref_invariants(c)
    if abs(inv.S) <= tol:
        raise ParabolicConic(f"quadratic invariant {inv.S!r} ~ 0: no center")
    return ms.Point2((c.B * c.E - c.C * c.D) / inv.S, -(c.A * c.E - c.B * c.D) / inv.S)


def ref_arc_length_on_conic(c, pk, pl):
    inv = ref_invariants(c)
    if abs(inv.S) > PARABOLIC_TOL:
        kappa = ref_kappa_from_invariants(inv)
        center = np.array(ref_conic_center(c))
        return abs(kappa * cross2(pk - pl, pk - center))
    denom = c.A * c.E - c.B * c.D
    norm = float(np.linalg.norm(c.vector))
    if abs(c.A) <= 1e-12 * norm or abs(denom) <= 1e-12 * norm * norm:
        raise ZeroDenominator("parabolic arc length: A or AE - BD vanishes")
    return float(np.cbrt(c.A * c.A / denom) * ((pk[0] - pl[0]) + (c.B / c.A) * (pk[1] - pl[1])))


def ref_affine_arc_length(mesh, at, k, l):
    affine._check_arc_offset(mesh, at, k)
    affine._check_arc_offset(mesh, at, l)
    return ref_arc_length_on_conic(ref_conic_at(mesh, at), mesh.p(k), mesh.p(l))


def ref_arc_length_set(mesh, i):
    c = ref_conic_at(mesh, i)
    values = tuple(ref_arc_length_on_conic(c, mesh.p(i, off), mesh.p(i, off + 1)) for off in (-2, -1, 0, 1))
    return affine.ArcLengthSet(at=mesh.resolve(i), values=values)


def ref_ellipse_geometry(c):
    inv = ref_invariants(c)
    if inv.S <= PARABOLIC_TOL:
        raise WrongCurvatureSign("approximating conic is not an ellipse")
    center = np.array(ref_conic_center(c))
    sgn = 1.0 if (c.A + c.C) > 0 else -1.0
    quad = sgn * np.array([[c.A, c.B], [c.B, c.C]])
    rho = sgn * (-inv.F / inv.S)
    if rho <= 0.0:
        raise DegenerateConfiguration("imaginary ellipse from conic fit")
    evals, evecs = np.linalg.eigh(quad)
    if np.linalg.det(evecs) < 0:
        evecs = evecs[:, ::-1]
        evals = evals[::-1]
    radius = float(np.sqrt(rho / np.sqrt(inv.S)))
    scale = radius / np.sqrt(rho)

    def to_circle(points):
        rel = (np.asarray(points, dtype=float) - center) @ evecs
        return scale * rel * np.sqrt(evals)

    return center, radius, to_circle


def ref_ellipse_area(c):
    inv = ref_invariants(c)
    if inv.S <= PARABOLIC_TOL:
        raise WrongCurvatureSign("area defined for elliptic conics only")
    return float(np.pi * abs(inv.F) / inv.S ** 1.5)


def ref_shoelace(points):
    x, y = points[:, 0], points[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def ref_has_fine_area(mesh, i):
    c = ref_conic_at(mesh, i)
    kappa = ref_kappa_from_invariants(ref_invariants(c))
    if kappa <= PARABOLIC_TOL:
        raise WrongCurvatureSign(f"fine-area needs positive curvature, got {kappa!r}")
    center, radius, to_circle = ref_ellipse_geometry(c)
    window = ref_fit_window(mesh, i)
    sh = ref_shoelace(np.vstack([center, window]))
    u = to_circle(window)
    theta = np.arctan2(u[:, 1], u[:, 0])
    segments = 0.0
    for j in range(4):
        delta = theta[j + 1] - theta[j] if sh >= 0 else theta[j] - theta[j + 1]
        delta = float(np.mod(delta, 2.0 * np.pi))
        segments += 0.5 * radius ** 2 * (delta - np.sin(delta))
    return ref_ellipse_area(c) >= (abs(sh) + segments) * (1.0 - 1e-9)


def ref_hyperbola_gap_bound(mesh, i):
    c = ref_conic_at(mesh, i)
    inv = ref_invariants(c)
    tr = c.A + c.C
    root = float(np.sqrt(max(tr * tr - 4.0 * inv.S, 0.0)))
    r1, r2 = (tr + root) / 2.0, (tr - root) / 2.0
    lam = r1 if abs(r1) > abs(r2) else r2 if abs(r2) > abs(r1) else max(r1, r2)
    try:
        inv_u = ref_invariants(c.scaled(1.0 / abs(lam)))
        radicand = -inv_u.F / inv_u.S
    except ZeroDivisionError:
        raise ParabolicConic(f"conic at index {i} is parabolic in the unit scale: no gap bound") from None
    if radicand < 0.0:
        raise NonRealMu(f"gap bound radicand {radicand!r} negative at index {i}")
    return 2.0 * float(np.sqrt(radicand))


def ref_in_fine_position(mesh, i):
    kappa = ref_affine_curvature(mesh, i)
    if kappa >= -PARABOLIC_TOL:
        raise WrongCurvatureSign(f"fine-position needs negative curvature, got {kappa!r}")
    mu = ref_hyperbola_gap_bound(mesh, i)
    gaps = np.linalg.norm(np.diff(ref_fit_window(mesh, i), axis=0), axis=1)
    return bool((gaps < mu).all())


def ref_is_affine_fine(mesh):
    for i in mesh.interior(2, 2):
        kappa = ref_affine_curvature(mesh, i)
        if kappa > PARABOLIC_TOL:
            if not ref_has_fine_area(mesh, i):
                return False
        elif kappa < -PARABOLIC_TOL:
            try:
                if not ref_in_fine_position(mesh, i):
                    return False
            except NonRealMu:
                return False
    return True


def ref_consecutive_arc_lengths(mesh, indices=None):
    if indices is None:
        indices = mesh.interior(2, 3)
    return np.array([ref_affine_arc_length(mesh, i, i, mesh.resolve(i, 1)) for i in indices])


def ref_sa_offsets(scheme):
    # frozen copy: (min, max) window offsets and the arc-length endpoint offsets
    arc = {
        ms.Scheme.EQ5: (0, 1),
        ms.Scheme.EQ6: (-1, 1),
        ms.Scheme.EQ7: (-2, 3),
        ms.Scheme.EQ8: (-5, 5),
    }[scheme]
    kappa_centers = (-1, 0, 1) if scheme.centered else (0, 1)
    lo = min(min(c - 2 for c in kappa_centers), arc[0])
    hi = max(max(c + 2 for c in kappa_centers), arc[1])
    return lo, hi, arc


def ref_sa_scheme_indices(mesh, scheme):
    if mesh.closed:
        return range(mesh.n)
    lo, hi, _ = ref_sa_offsets(scheme)
    return range(max(0, -lo), mesh.n - hi)


def ref_sa_signature(mesh, scheme, spacing="affine", spacing_tol=affine.AFFINE_SPACING_REL_TOL):
    if not is_ordinary(mesh):
        raise NotOrdinary("signature of a mesh with a cusp")
    if not is_convex(mesh):
        raise NotConvex("equiaffine signature requires a convex mesh")
    if scheme.needs_equal_spacing:
        if spacing == "euclidean":
            if not is_equally_spaced(mesh):
                raise SchemeSpacingMismatch(f"{scheme.label}: mesh not equally spaced (euclidean)")
        else:
            arcs = ref_consecutive_arc_lengths(mesh)
            if len(arcs) == 0:
                raise MeshTooShort(f"no arc lengths computable on a {mesh.n}-point mesh")
            spread = float(np.abs(arcs).max() - np.abs(arcs).min())
            if spread > spacing_tol * float(np.abs(arcs).max()):
                worst = int(np.argmax(np.abs(np.abs(arcs) - np.abs(arcs).mean())))
                raise SchemeSpacingMismatch(f"{scheme.label} requires equal arc lengths; arc {worst} deviates")
    indices = ref_sa_scheme_indices(mesh, scheme)
    if len(indices) == 0:
        raise MeshTooShort(f"no valid {scheme.label} stencil on a {mesh.n}-point open mesh")
    _, _, (arc_lo, arc_hi) = ref_sa_offsets(scheme)
    rows = []
    for i in indices:
        num_lo = i - 1 if scheme.centered else i
        numerator = ref_affine_curvature(mesh, i + 1) - ref_affine_curvature(mesh, num_lo)
        denom = ref_affine_arc_length(mesh, i, mesh.resolve(i, arc_lo), mesh.resolve(i, arc_hi))
        if abs(denom) <= 1e-15:
            raise DegenerateStencil(f"{scheme.label} arc length at index {i} vanishes")
        rows.append(ms.SignaturePoint(i, ref_affine_curvature(mesh, i), scheme.factor * numerator / denom))
    return rows


def ref_decide_affine(m1, m2, variant="thm5.7", sig_tol=1e-6, tol=congruence.DEFAULT_POINT_TOL):
    congruence._check_counts(m1, m2)
    if not (is_ordinary(m1) and is_ordinary(m2)):
        raise NotOrdinary("affine decision requires cusp-free meshes")
    if not (is_convex(m1) and is_convex(m2)):
        raise NotConvex("affine decision requires convex meshes")
    fail = congruence._hyp_fail
    if variant == "cor5.9":
        if not (is_fine(m1) and is_fine(m2)):
            return fail("a mesh is not fine (has a non-obtuse interior angle)")
    elif not (ref_is_affine_fine(m1) and ref_is_affine_fine(m2)):
        return fail("a mesh is not affine-fine")
    interior = list(m1.interior(2, 2))
    kap1 = [ref_affine_curvature(m1, i) for i in interior]
    kap2 = [ref_affine_curvature(m2, i) for i in interior]
    if variant == "thm5.7":
        for i, k in zip(interior, kap1):
            if abs(k) <= PARABOLIC_TOL:
                return fail(f"curvature vanishes at index {i}")
        for i, k in zip(interior, kap2):
            if abs(k) <= PARABOLIC_TOL:
                return fail(f"curvature vanishes at index {i} (second mesh)")
    else:
        for i, (ka, kb) in zip(interior, zip(kap1, kap2)):
            za, zb = abs(ka) <= PARABOLIC_TOL, abs(kb) <= PARABOLIC_TOL
            if za != zb:
                return fail(f"zero-curvature points do not correspond at index {i}")
            if za:
                t1 = abs(orient(m1.p(i, -1), m1.p(i), m1.p(i, 1))) / 2.0
                t2 = abs(orient(m2.p(i, -1), m2.p(i), m2.p(i, 1))) / 2.0
                if abs(t1 - t2) > sig_tol * max(t1, t2, 1e-300):
                    return fail(f"one-neighborhood areas differ at zero-curvature index {i}")
    for i in interior:
        s1, s2 = ref_arc_length_set(m1, i), ref_arc_length_set(m2, i)
        if (why := congruence._values_differ(s1.values, s2.values, sig_tol, f"arc-length sets at {i}")) is not None:
            return fail(why)
    sig1, sig2 = (ms.Signature(*zip(*ref_sa_signature(m, ms.Scheme.EQ6)), ms.Scheme.EQ6, ms.NeighborhoodSpec(2, 2))
                  for m in (m1, m2))
    err = signature_max_error(sig1, sig2)
    if err > sig_tol:
        return fail(f"eq6 signatures differ (max relative error {err:.3e})")
    return congruence._finish_with_oracle(m1, m2, ms.Group.SA, tol)


def outcome(f, *args, **kwargs):
    """What a call returns, or the class and message of what it raises.

    Floats are compared through repr, which is exact (it tells -0.0 from 0.0).
    """
    try:
        value = f(*args, **kwargs)
    except (ms.MeshSigError, ZeroDivisionError) as exc:
        return "raised", type(exc), str(exc)
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, ms.Signature):
        value = value.points
    if isinstance(value, ms.CongruenceVerdict):
        return "verdict", value.status, value.reason, repr(value.max_deviation), value.correspondence
    return type(value), repr(value)


# Five-point windows whose fit fails: a collinear triple, and (found by
# random search) an anisotropic window of numerical rank < 5 and a nearly
# flat ellipse whose cubic invariant |F| falls under ZERO_F_TOL.
COLLINEAR_WINDOW = [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 1.0], [3.5, 2.5]]
RANK_WINDOW = [
    [-93618.56243713814, 1.6568208237096478e-06],
    [42282.7421581867, 2.201818190818402e-06],
    [327.39774867659474, 1.532739479617726e-06],
    [49808.257092461216, -1.7986763456655916e-06],
    [49719.66803502334, -2.9316445394689224e-06],
]
ZERO_F_WINDOW = [
    [0.5863637597020782, 2.1668144337527085e-06],
    [-0.9517132717360007, 8.211697388417176e-07],
    [0.2869716100435681, -2.562411845486543e-06],
    [0.12132892407830453, 2.655160120700914e-06],
    [0.9470553418897729, 8.588380178456221e-07],
]


def unimodular(rng):
    return ms.random_motion(ms.Group.SA, rng).linear


def equivalence_meshes():
    """Seeded ellipse, hyperbola and parabola arcs, open and closed, plus crafted degenerate windows."""
    rng = np.random.default_rng(40)
    out = []
    for k in range(36):
        closed = k % 2 == 1
        n = int(rng.integers(5, 17))
        step = 2.0 * np.pi / n if closed else rng.uniform(0.08, 0.5)
        t = rng.uniform(0.0, 2.0 * np.pi) + step * np.arange(n)
        kind = k % 6 // 2
        if kind == 0:
            a, b = rng.uniform(0.4, 3.0, size=2)
            pts = np.column_stack([a * np.cos(t), b * np.sin(t)])
        elif kind == 1:
            s = np.linspace(-1.2, 1.2, n) if closed else rng.uniform(-1.5, 0.5) + 0.25 * np.arange(n)
            pts = np.column_stack([np.cosh(s), np.sinh(s)])
            if k % 4 == 1:
                pts = pts[:, ::-1]  # conjugate orientation: non-real gap bound
        else:
            x = np.linspace(-1.0, 1.0, n) * rng.uniform(0.5, 2.0)
            pts = np.column_stack([x, x * x])
            if k % 12 == 4:
                pts = pts[:, ::-1]  # sideways parabola: zero arc-length denominator
        if k % 3 == 0:
            pts = pts + rng.normal(scale=10.0 ** rng.uniform(-9, -3), size=pts.shape)
        pts = pts @ unimodular(rng).T + rng.uniform(-5.0, 5.0, size=2)
        out.append(ms.Mesh(pts, closed=closed))
    out.append(ms.Mesh(rng.normal(size=(12, 2))))
    out.append(ms.Mesh(rng.normal(size=(12, 2)), closed=True))
    for window in (COLLINEAR_WINDOW, RANK_WINDOW, ZERO_F_WINDOW):
        out.append(ms.Mesh(window))
        out.append(ms.Mesh(window, closed=True))
    out.append(ms.Mesh(np.vstack([gen.ellipse_mesh(6, 2.0, 1.0, step=0.3).points, [[3.0, 3.0], [4.0, 3.0], [5.0, 3.0]]])))
    out.append(gen.circle_mesh(3))  # closed 3- and 4-point meshes: repeated window points
    out.append(gen.circle_mesh(4))
    # far from the origin, a step that Mesh accepts is below the fit's coincidence scale
    far = gen.ellipse_mesh(8, 2.0, 1.0, step=0.3).points + 1e7
    far[4] = far[3] + 1e-8
    out.append(ms.Mesh(far))
    # convex, and its first window a nearly flat parabolic conic: the centered
    # schemes read that window's raising curvature only as a row's left neighbor
    t = np.array([0.2, 0.6, 1.0, 1.4, 1.8])
    flat = np.column_stack([np.cos(t), 2.6e-6 * np.sin(t)])
    bend = [[-0.8, -0.05], [-1.3, -0.4], [-1.5, -1.0], [-1.4, -1.7], [-1.0, -2.3]]
    out.append(ms.Mesh(np.vstack([flat, bend]) + [0.0, 0.5]))
    return out


EQUIVALENCE_MESHES = equivalence_meshes()
MESH_IDS = [f"mesh{k}" for k in range(len(EQUIVALENCE_MESHES))]


class TestScalarEquivalence:
    """The block and its views equal the frozen scalar references bit for bit."""

    def test_corpus_reaches_every_degeneracy(self):
        seen = set()
        for m in EQUIVALENCE_MESHES:
            for i in m.interior(2, 2):
                for f in (ref_affine_curvature, ref_arc_length_set, ref_has_fine_area, ref_in_fine_position):
                    result = outcome(f, m, i)
                    if result[0] == "raised":
                        seen.add((result[1].__name__, result[2].split(" ")[-1]))
        names = {name for name, _ in seen}
        assert {"DegenerateConfiguration", "ZeroF", "ZeroDenominator", "NonRealMu", "WrongCurvatureSign"} <= names
        tails = {tail for name, tail in seen if name == "DegenerateConfiguration"}
        assert {"coincide", "collinear", "5)"} <= tails

    def test_fit_conic_windows(self):
        rng = np.random.default_rng(41)
        windows = [COLLINEAR_WINDOW, RANK_WINDOW, ZERO_F_WINDOW, np.zeros((5, 2)), np.zeros((4, 2))]
        for _ in range(400):
            w = rng.normal(size=(5, 2)) * 10.0 ** rng.uniform(-3, 3, size=(1, 2))
            w[int(rng.integers(0, 5))] = w[int(rng.integers(0, 5))]
            windows.append(w)
            windows.append(rng.normal(size=(5, 2)) + rng.uniform(-1e3, 1e3, size=2))
        for w in windows:
            assert outcome(ms.fit_conic, w) == outcome(ref_fit_conic, w)
            try:
                c = ref_fit_conic(w)
            except DegenerateConfiguration:
                continue
            assert outcome(ms.invariants, c) == outcome(ref_invariants, c)
            assert outcome(ms.conic_center, c) == outcome(ref_conic_center, c)
            inv = ref_invariants(c)
            assert outcome(affine.kappa_from_invariants, inv) == outcome(ref_kappa_from_invariants, inv)

    def test_curvature_rounding(self):
        # S / cbrt(F)**2 squares through the C library's pow, which rounds
        # differently from x * x about once in two thousand
        rng = np.random.default_rng(43)
        S = rng.normal(size=20000)
        F = rng.normal(size=20000) * 10.0 ** rng.uniform(-6, 3, size=20000)
        for inv in map(affine.AffineInvariants, S.tolist(), F.tolist()):
            assert outcome(affine.kappa_from_invariants, inv) == outcome(ref_kappa_from_invariants, inv)

    @pytest.mark.parametrize("m", EQUIVALENCE_MESHES, ids=MESH_IDS)
    def test_per_index_views(self, m):
        views = (
            (affine.conic_at, ref_conic_at),
            (ms.affine_curvature, ref_affine_curvature),
            (ms.arc_length_set, ref_arc_length_set),
            (ms.has_fine_area, ref_has_fine_area),
            (ms.in_fine_position, ref_in_fine_position),
            (affine.hyperbola_gap_bound, ref_hyperbola_gap_bound),
        )
        for i in range(-1, m.n + 1):
            for new, ref in views:
                assert outcome(new, m, i) == outcome(ref, m, i), (new.__name__, i)
            for dk, dl in ((0, 1), (-1, 1), (-2, 3), (-5, 5), (0, 0), (1, -2), (0, 6)):
                k, l = i + dk, i + dl
                if m.closed:
                    k, l = k % m.n, l % m.n
                assert outcome(ms.affine_arc_length, m, i, k, l) == outcome(ref_affine_arc_length, m, i, k, l)

    @pytest.mark.parametrize("m", EQUIVALENCE_MESHES, ids=MESH_IDS)
    def test_mesh_functions(self, m):
        assert outcome(ms.is_affine_fine, m) == outcome(ref_is_affine_fine, m)
        assert outcome(affine.consecutive_arc_lengths, m) == outcome(ref_consecutive_arc_lengths, m)
        some = [3, 0, -1, m.n - 1, m.n]
        assert outcome(affine.consecutive_arc_lengths, m, some) == outcome(ref_consecutive_arc_lengths, m, some)
        for scheme in (ms.Scheme.EQ5, ms.Scheme.EQ6, ms.Scheme.EQ7, ms.Scheme.EQ8):
            for kwargs in ({}, {"spacing": "euclidean"}, {"spacing_tol": 1.0}):
                assert outcome(ms.sa_signature, m, scheme, **kwargs) == outcome(ref_sa_signature, m, scheme, **kwargs)

    def test_decide_affine_corpus(self):
        rng = np.random.default_rng(42)
        statuses = set()
        for k in range(30):
            n = int(rng.integers(8, 24))
            a, b = rng.uniform(0.8, 2.5), rng.uniform(0.6, 1.8)
            t = rng.uniform(0.0, 2.0 * np.pi) + rng.uniform(0.06, 0.2) * np.arange(n)
            src = np.column_stack([a * np.cos(t), b * np.sin(t)])
            if k % 5 == 4:
                s = np.linspace(-0.8, 0.8, n)
                src = np.column_stack([s, s * s]) if k % 2 else np.column_stack([np.cosh(s), np.sinh(s)])
            kind = k % 3
            if kind == 0:
                other = src  # congruent
            elif kind == 1:
                other = src * np.array([1.0, 1.02]) + rng.normal(scale=1e-9, size=src.shape)  # perturbed
            else:
                other = src * np.array([1.0, -1.0])  # mirrored
            dst = other @ unimodular(rng).T + rng.uniform(-5.0, 5.0, size=2)
            m1, m2 = ms.Mesh(src), ms.Mesh(dst)
            for variant in ("thm5.7", "thm5.8", "cor5.9"):
                for sig_tol in (1e-6, 1e-2):
                    got = outcome(ms.decide_affine, m1, m2, variant, sig_tol)
                    assert got == outcome(ref_decide_affine, m1, m2, variant, sig_tol)
                    statuses.add(got[1])
        assert set(ms.Verdict) <= statuses
