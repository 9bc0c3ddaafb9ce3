from decimal import Decimal
from fractions import Fraction

import exact
import numpy as np
import pytest

import meshsig as ms
from meshsig import affine
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
    ZeroF,
)
from meshsig.geometry import edge_lengths
from meshsig.signatures import denominator_offsets, scheme_rows, signature_max_error


def conic_through_circle(radius=1.0, center=(0.0, 0.0), phases=(0.1, 0.9, 1.7, 2.8, 4.0)):
    t = np.asarray(phases)
    return np.column_stack([center[0] + radius * np.cos(t), center[1] + radius * np.sin(t)])


def quartic_parabola(c):
    """Nine points of y = x^2 + c x^4 on [-1, 1]: a parabola bent by c."""
    x = np.linspace(-1.0, 1.0, 9)
    return ms.Mesh(np.column_stack([x, x * x + c * x ** 4]))


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

    def test_parabola_closed_form(self):
        # y = x^2 fits A=1, B=0, E=-1/2 scaled: L = |cbrt(A^2/(AE-BD)) * dx|
        m = gen.parabola_mesh(9, -1.0, 1.0)
        L = ms.affine_arc_length(m, 4, 4, 5)
        dx = m.points[4, 0] - m.points[5, 0]
        assert L == pytest.approx(abs(np.cbrt(-2.0) * dx), rel=1e-9)
        # a length: swapping the endpoints keeps it
        assert ms.affine_arc_length(m, 4, 5, 4) == pytest.approx(L, rel=1e-9)

    def test_parabola_arcs_sa_invariant(self):
        """A parabola's arc lengths do not depend on its position: turned by 90 degrees (sideways, A = 0), 30 and
        89.999 degrees, or moved by a random SA map, every arc is within `_arcs`' bound of its exact formula and
        within 1e-13 (relative, the fit's rounding) of the upright parabola's."""
        m = gen.parabola_mesh(9)
        want = [ms.arc_length_set(m, i).values for i in m.interior(2, 2)]
        rng = np.random.default_rng(15)
        turns = [np.radians(deg) for deg in (90.0, 30.0, 89.999)]
        motions = [ms.GroupElement([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]], (0.0, 0.0), ms.Group.SE)
                   for t in turns] + [ms.random_motion(ms.Group.SA, rng) for _ in range(5)]
        for g in motions:
            mg = ms.apply_motion(g, m)
            for i, values in zip(mg.interior(2, 2), want):
                got = ms.arc_length_set(mg, i).values
                for off, value in zip(range(-2, 2), got):
                    check_arc(mg, i, mg.resolve(i, off), mg.resolve(i, off + 1), value)
                np.testing.assert_allclose(got, values, rtol=1e-13)

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

    def test_fine_mesh(self):
        """The turns are the fit's, judged in the window's frame: a turn of 3e-14 of the diameter squared is far
        outside the collinearity band, 1e-12 of the square of the window's largest difference to its centre."""
        m = gen.ellipse_mesh(10 ** 5, 2.0, 1.0)
        assert [ms.sd_affine(m, i) for i in (0, m.n // 3, m.n - 1)] == [ms.SigDirection.SD] * 3

    def test_degenerate_window(self):
        m = ms.Mesh([(0, 0), (1, 0.5), (2, 0), (3, 0.5), (4, 0.1)])  # zig-zag, its last point lifted off p0 p2
        with pytest.raises(DegenerateConfiguration, match="^two-neighborhood of 2 is not in convex position$"):
            ms.sd_affine(m, 2)
        # a left turn, a right turn and then a collinear one: the fit's collinearity screen reports it
        m = ms.Mesh([(0, 0), (1, 0), (2, 1), (3, 1), (4, 1)])
        with pytest.raises(DegenerateConfiguration, match="^window at index 2: fit points 2, 3, 4 are collinear$"):
            ms.sd_affine(m, 2)


class TestFineness:
    def test_small_arc_has_fine_area(self):
        m = gen.ellipse_mesh(12, 2.0, 1.0, t0=0.3, step=0.2, closed=False)
        for i in m.interior(2, 2):
            assert ms.has_fine_area(m, i) is True
        # four steps of 1.7 sweep more than the whole ellipse: no window is fine. Both verdicts are Python bools
        wide = gen.ellipse_mesh(12, 2.0, 1.0, t0=0.3, step=1.7, closed=False)
        for i in wide.interior(2, 2):
            assert ms.has_fine_area(wide, i) is False

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

    @pytest.mark.parametrize("mesh", [gen.circle_mesh(8, radius=500.0), quartic_parabola(1e-10)],
                             ids=["circle-radius-500", "quartic-1e-10"])
    def test_positive_curvature_is_an_ellipse(self, mesh):
        """kappa = S / cbrt(F)^2 > 0 implies S > 0, so a window whose curvature clears the parabolic band is an
        ellipse even where S itself, absolute on unit-norm coefficients, lies in the band: a radius-500 circle
        (S = 1.6e-11, kappa = 2.5e-4) and y = x^2 + 1e-10 x^4 (S = 8e-11, kappa = 2.5e-10)."""
        blk = affine._block(mesh)
        assert blk.S[2] <= affine.PARABOLIC_TOL < blk.kappa[2]
        assert all(ms.has_fine_area(mesh, i) for i in mesh.interior(2, 2))
        assert ms.is_affine_fine(mesh)
        assert ms.decide_affine(mesh, mesh, "thm5.7").congruent

    def test_parabolic_band_edge(self):
        """y = x^2 + 3e-10 x^4: every window's curvature, 7.6e-10, lies above the parabolic band, so thm5.7 counts
        the mesh as curved and decides it; a band ten times wider would find the curvature vanishing."""
        m = quartic_parabola(3e-10)
        kappa = affine.interior_curvatures(m)
        assert (7.5e-10 < kappa).all() and (kappa < 7.6e-10).all()
        verdict = ms.decide_affine(m, m, "thm5.7")
        assert verdict.congruent, verdict.reason


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

    def test_spacing_mismatch_names_the_first_arc_outside_the_band(self):
        """The named arc is the first shorter than the longest by more than spacing_tol of it, in plain floats."""
        named = []
        for m in EQUIVALENCE_MESHES:
            for tol in (affine.SPACING_REL_TOL, 1e-2):
                try:
                    ms.sa_signature(m, ms.Scheme.EQ6, spacing_tol=tol)
                except SchemeSpacingMismatch as exc:
                    lengths = np.abs(affine.consecutive_arc_lengths(m)).tolist()
                    first = next(i for i, a in enumerate(lengths) if max(lengths) - a > tol * max(lengths))
                    assert str(exc) == f"eq6 requires equal arc lengths; arc {first} deviates"
                    named.append(first)
                except ms.MeshSigError:
                    continue
        assert len(named) > 10 and len(set(named)) > 1

    def test_euclidean_spacing_honours_the_tolerance(self):
        """The edges of ellipse_mesh(40, 2, 1) spread by 49% of the longest: a tolerance of 1.0 admits them."""
        m = gen.ellipse_mesh(40, 2.0, 1.0)
        assert len(ms.sa_signature(m, ms.Scheme.EQ6, spacing="euclidean", spacing_tol=1.0)) == 40
        with pytest.raises(SchemeSpacingMismatch, match="^eq6 requires an equally spaced mesh; edge 0 deviates$"):
            ms.sa_signature(m, ms.Scheme.EQ6, spacing="euclidean")

    def test_euclidean_spacing_names_the_first_edge_outside_the_band(self):
        """As se_signature does: the first edge shorter than the longest by more than spacing_tol of it."""
        named = set()
        for t0 in (0.0, 0.5, 1.2, 2.0):
            m = gen.ellipse_mesh(40, 2.0, 1.0, t0=t0)
            edges = edge_lengths(m).tolist()
            for tol in (1e-2, 0.1, 0.3):
                first = next(i for i, e in enumerate(edges) if max(edges) - e > tol * max(edges))
                for scheme in (ms.Scheme.EQ5, ms.Scheme.EQ6):
                    with pytest.raises(SchemeSpacingMismatch) as exc:
                        ms.sa_signature(m, scheme, spacing="euclidean", spacing_tol=tol)
                    assert str(exc.value) == f"{scheme.label} requires an equally spaced mesh; edge {first} deviates"
                with pytest.raises(SchemeSpacingMismatch, match=f"^eq1 requires an equally spaced mesh; edge {first} deviates$"):
                    ms.se_signature(m, ms.Scheme.EQ1, spacing_tol=tol)
                named.add(first)
        assert len(named) > 2

    def test_nan_tolerance_admits_no_mesh(self):
        m = gen.ellipse_mesh(16, 1.7, 0.9)
        for kwargs in ({}, {"spacing": "euclidean"}):
            with pytest.raises(SchemeSpacingMismatch, match=" 0 deviates$"):
                ms.sa_signature(m, ms.Scheme.EQ6, spacing_tol=float("nan"), **kwargs)

    def test_unknown_spacing_rejected(self):
        m = gen.ellipse_mesh(16, 1.7, 0.9)
        for scheme in (ms.Scheme.EQ6, ms.Scheme.EQ7):
            with pytest.raises(ValueError, match="^unknown spacing 'euclidian'; expected 'affine' or 'euclidean'$"):
                ms.sa_signature(m, scheme, spacing="euclidian")

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
# Bound checks: each kernel against the exact evaluation (tests/exact.py) of
# its formula on the same doubles, within the bound its docstring states
# ---------------------------------------------------------------------------

PARABOLIC_TOL = affine.PARABOLIC_TOL
EPS = Fraction(exact.EPS)


def assert_within(value, reference, bound, what):
    err = abs(Fraction(float(value)) - Fraction(reference))
    assert err <= bound, f"{what}: error {float(err):.3e} over bound {float(bound):.3e}"


def design_condition(window):
    """sigma_1 / sigma_5 of the window's 5x6 design [x^2, 2xy, y^2, 2x, 2y, 1]."""
    x, y = np.asarray(window, dtype=float).T
    sv = np.linalg.svd(np.stack([x * x, 2 * x * y, y * y, 2 * x, 2 * y, np.ones_like(x)], axis=1), compute_uv=False)
    return sv[0] / sv[4]


def check_fit(coef, window, up_to_sign=False):
    """_fit: every entry within 2 eps sigma_1 / sigma_5 of the exact unit conic through the window.

    With up_to_sign, of that conic or its negative, whichever agrees with coef in the sign of its largest entry.
    """
    bound = 2 * EPS * Fraction(design_condition(window))
    unit = exact.unit_conic(exact.conic(window))
    if up_to_sign:
        k = max(range(6), key=lambda k: abs(unit[k]))
        coef = -coef if (coef[k] < 0) != (unit[k] < 0) else coef
    for got, want, name in zip(coef, unit, "ABCDEF"):
        assert_within(got, want, bound, f"coefficient {name}")


def check_invariants(coef, S, F):
    """_invariants: S within 2 eps (|AC| + B^2), F within 64 eps times its absolute Leibniz terms."""
    (s_ref, f_ref), (s_scale, f_scale) = exact.invariants(coef), exact.invariant_scales(coef)
    assert_within(S, s_ref, 2 * EPS * s_scale, "S")
    assert_within(F, f_ref, 64 * EPS * f_scale, "F")


def check_kappa(S, F, kappa):
    """_kappa: within 4 eps (relative) of S / cbrt(F)^2, that is, kappa / (1 +- 4 eps) brackets it.

    Cubed, the check needs no root: S^3 / F^2 lies between the cubes of the bracket.
    """
    k, cube = Fraction(float(kappa)), Fraction(float(S)) ** 3 / Fraction(float(F)) ** 2
    lo, hi = sorted([(k / (1 + 4 * EPS)) ** 3, (k / (1 - 4 * EPS)) ** 3])
    assert lo <= cube <= hi, f"kappa {kappa!r} off S / cbrt(F)^2 for S={S!r}, F={F!r}"


def check_center(coef, S, center):
    """_centers: within 2 eps (|BE| + |CD|) / |S| and 2 eps (|AE| + |BD|) / |S|."""
    a, b, c, d, e, _ = exact.fractions(coef)
    s = Fraction(float(S))
    ref = ((b * e - c * d) / s, -(a * e - b * d) / s)
    scales = (abs(b * e) + abs(c * d), abs(a * e) + abs(b * d))
    for got, want, scale in zip(center, ref, scales):
        assert_within(got, want, 2 * EPS * scale / abs(s), "center")


def check_arc(mesh, at, k, l, value):
    """_arcs: within 4 eps (T / cbrt(F)^2 + L) of L = |S (d x p_k) - d x c| / cbrt(F)^2 for the row's
    coefficients, S and F, where d = p_k - p_l, c = (BE - CD, BD - AE) and T = |S| (|d_x p_ky| + |d_y p_kx|) +
    |d_x| (|BD| + |AE|) + |d_y| (|BE| + |CD|)."""
    blk, at = affine._block(mesh), mesh.resolve(at)
    a, b, c, d, e, _ = exact.fractions(blk.coef[at])
    s, q = Fraction(float(blk.S[at])), Fraction(exact.cbrt(float(blk.F[at]))) ** 2
    (kx, ky), (lx, ly) = exact.fractions(mesh.p(k)), exact.fractions(mesh.p(l))
    dx, dy = kx - lx, ky - ly
    ref = abs(s * (dx * ky - dy * kx) - (dx * (b * d - a * e) - dy * (b * e - c * d))) / q
    t = abs(s) * (abs(dx * ky) + abs(dy * kx)) + abs(dx) * (abs(b * d) + abs(a * e))
    t += abs(dy) * (abs(b * e) + abs(c * d))
    assert_within(value, ref, 4 * EPS * (t / q + ref), f"arc length ({at}: {k}, {l})")


def check_fine_area(mesh, i, kappa):
    """has_fine_area: area within 4 eps (relative) of pi |F| / S^(3/2) and sector within the bound of
    `affine._sectors`; the verdict area >= sector (1 - 1e-9) is the exact one unless the sides are that close."""
    got, blk, i = outcome(ms.has_fine_area, mesh, i), affine._block(mesh), mesh.resolve(i)
    if kappa <= PARABOLIC_TOL:
        assert got is WrongCurvatureSign
        return
    coef, S, F, center = blk.coef[i], blk.S[i], blk.F[i], blk.center[i]
    a, _, c = coef[:3]
    if (1 if a + c > 0 else -1) * -Fraction(float(F)) / Fraction(float(S)) <= 0:
        assert not got  # an imaginary ellipse, which no fitted window is known to reach: its NaN sector is not fine
        return
    area = Fraction(exact.ellipse_area(S, F))
    assert_within(blk.area[i], area, 4 * EPS * area, "ellipse area")
    window = np.array([mesh.p(i, off) for off in range(-2, 3)])
    sector, shoelace, angles = exact.sector(coef, S, F, center, window)
    quad = np.linalg.eigvalsh(coef[[[0, 1], [1, 2]]])
    angle_error = 4 * exact.EPS * (np.abs(quad).max() / np.abs(quad).min() + 4)
    px, py = np.vstack([center, window]).T
    products = Fraction(float(np.abs(px * np.roll(py, -1)).sum() + np.abs(py * np.roll(px, -1)).sum()))
    wraps = any(not angle_error < d < 2 * exact.PI - Decimal(angle_error) for d in angles)
    if wraps or abs(shoelace) <= 4 * EPS * products:
        assert got in (True, False)  # an angle or the turning direction may wrap
        return
    r2 = Fraction(float(blk.rho[i])) / Fraction(exact.sqrt(S))
    bound = 4 * EPS * (products + Fraction(sector)) + sum(
        r2 / 2 * (Fraction(1 - np.cos(float(d))) * Fraction(angle_error) + 2 * EPS * Fraction(d)) for d in angles)
    assert_within(blk.sector[i], sector, bound, "sector")
    margin, slack = area - Fraction(sector) * (1 - Fraction(1e-9)), 4 * EPS * area + bound + EPS * Fraction(sector)
    assert got == (margin >= 0) if abs(margin) > slack else got in (True, False)


def check_gap_bound(mesh, i, kappa):
    """hyperbola_gap_bound: radicand within the relative bound of `affine._gap_bounds` of -F / (|lam| S), mu
    within half that plus 2 eps; in_fine_position's verdict is the exact one unless a gap is that close to mu."""
    got, blk = outcome(affine.hyperbola_gap_bound, mesh, i), affine._block(mesh)
    position = outcome(ms.in_fine_position, mesh, i) if not isinstance(kappa, type) else None
    i = mesh.resolve(i)
    if position is not None and kappa >= -PARABOLIC_TOL:
        assert position is WrongCurvatureSign
        position = None
    coef = blk.coef[i]
    radicand, lam = exact.gap_radicand(coef)
    if radicand is not None:
        (s, f), (s_scale, f_scale) = exact.invariants(coef), exact.invariant_scales(coef)
        a, b, c = exact.fractions(coef)[:3]
        root = Fraction(exact.sqrt((a - c) ** 2 + 4 * b * b))
        rel = (3 * EPS * root + 2 * EPS * abs(a + c)) / abs(Fraction(lam))
        rel += EPS * (70 * f_scale / abs(f) + 4 * s_scale / abs(s) + 4)
    if radicand is None or rel >= 1:
        assert got is ParabolicConic or got is NonRealMu or isinstance(got, float)
        assert position in (None, True, False, got)
        return
    if radicand < 0:
        assert got is NonRealMu and position in (None, NonRealMu)
        return
    assert_within(blk.radicand[i], radicand, rel * Fraction(radicand), "gap bound radicand")
    mu, mu_rel = 2 * exact.sqrt(Fraction(radicand)), rel / 2 + 2 * EPS
    assert_within(got, mu, mu_rel * Fraction(mu), "gap bound")
    if position is None:
        return
    window = [exact.fractions(mesh.p(i, off)) for off in range(-2, 3)]
    gaps = [Fraction(exact.sqrt((x1 - x0) ** 2 + (y1 - y0) ** 2)) for (x0, y0), (x1, y1) in zip(window, window[1:])]
    close = any(abs(g - Fraction(mu)) <= mu_rel * Fraction(mu) + 2 * EPS * g for g in gaps)
    assert position in (True, False) if close else position == all(g < Fraction(mu) for g in gaps)


def outcome(f, *args, **kwargs):
    """What a call returns, or the class of what it raises."""
    try:
        return f(*args, **kwargs)
    except ms.MeshSigError as exc:
        return type(exc)


# Five-point windows found by random search: a collinear triple, whose fit
# fails; an anisotropic window whose design condition is about 1e17, which
# still fits within its bound; and a nearly flat ellipse whose cubic
# invariant |F| falls under ZERO_F_TOL.
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
    # far from the origin, a step of 1e-8 that Mesh accepts: each window is screened in its own frame, where the
    # step is no coincidence, and its conic in the given coordinates has F under ZERO_F_TOL
    far = gen.ellipse_mesh(8, 2.0, 1.0, step=0.3).points + 1e7
    far[4] = far[3] + 1e-8
    out.append(ms.Mesh(far))
    # convex, and its first window a nearly flat parabolic conic: the centered
    # schemes read that window's raising curvature only as a row's left neighbor
    t = np.array([0.2, 0.6, 1.0, 1.4, 1.8])
    flat = np.column_stack([np.cos(t), 2.6e-6 * np.sin(t)])
    bend = [[-0.8, -0.05], [-1.3, -0.4], [-1.5, -1.0], [-1.4, -1.7], [-1.0, -2.3]]
    out.append(ms.Mesh(np.vstack([flat, bend]) + [0.0, 0.5]))
    # convex: a sideways parabola (zero arc-length denominators from row 2), then a
    # nearly flat ellipse arc (raising curvatures from row 8): the first row decides
    y = np.arange(-1.0, 2.01, 0.5)
    t = np.linspace(1.8, 0.2, 6)
    c, s = np.cos(0.1), np.sin(0.1)
    flat = np.column_stack([np.cos(t), 2.6e-6 * np.sin(t)]) @ [[c, s], [-s, c]] + [4.59, 2.087]
    out.append(ms.Mesh(np.vstack([np.column_stack([y * y, y]), flat])))
    # one hyperbola branch in long steps: gaps on both sides of the gap bound mu = 2
    s = 0.7 * np.arange(-3, 4)
    out.append(ms.Mesh(np.column_stack([np.cosh(s), np.sinh(s)]) @ [[1.0, 0.0], [0.3, 1.0]] + [1.0, -2.0]))
    # near-circular arcs, axes 1 and 1 + k 1e-9: the characteristic discriminant nearly vanishes
    for k in (0, 1, 4, 30):
        t = 0.3 * np.arange(7)
        c, s = np.cos(0.7 * k + 0.2), np.sin(0.7 * k + 0.2)
        arc = np.column_stack([np.cos(t), (1.0 + k * 1e-9) * np.sin(t)])
        out.append(ms.Mesh(arc @ [[c, s], [-s, c]] + [3.0 - k, 0.5 * k]))
    return out


EQUIVALENCE_MESHES = equivalence_meshes()
MESH_IDS = [f"mesh{k}" for k in range(len(EQUIVALENCE_MESHES))]


def fine_by_views(mesh):
    """is_affine_fine's definition, one window at a time through the per-index views."""
    for i in mesh.interior(2, 2):
        kappa = ms.affine_curvature(mesh, i)
        if kappa > PARABOLIC_TOL and not ms.has_fine_area(mesh, i):
            return False
        if kappa < -PARABOLIC_TOL:
            try:
                if not ms.in_fine_position(mesh, i):
                    return False
            except NonRealMu:
                return False
    return True


def arc_to_next(mesh, i):
    return ms.affine_arc_length(mesh, i, i, mesh.resolve(i, 1))


def first_raised(outcomes, default=None):
    return next((o for o in outcomes if isinstance(o, type)), default)


VIEWS = (affine.conic_at, ms.affine_curvature, ms.arc_length_set, ms.has_fine_area, ms.in_fine_position,
         affine.hyperbola_gap_bound)
ARC_OFFSETS = ((0, 1), (-1, 1), (-2, 3), (-5, 5), (0, 0), (1, -2), (0, 6))


class TestScalarEquivalence:
    """The block, its per-index views and the fit of single windows against exact evaluation."""

    def test_corpus_reaches_every_degeneracy(self):
        seen = set()
        for m in EQUIVALENCE_MESHES:
            for i in m.interior(2, 2):
                for f in (ms.affine_curvature, ms.arc_length_set, ms.has_fine_area, ms.in_fine_position):
                    try:
                        f(m, i)
                    except ms.MeshSigError as exc:
                        seen.add((type(exc).__name__, str(exc).split(" ")[-1]))
        names = {name for name, _ in seen}
        assert {"DegenerateConfiguration", "ZeroF", "NonRealMu", "WrongCurvatureSign"} <= names
        tails = {tail for name, tail in seen if name == "DegenerateConfiguration"}
        assert {"coincide", "collinear"} <= tails

    def test_fit_conic_windows(self):
        for window, message in ((COLLINEAR_WINDOW, "collinear"), (np.zeros((5, 2)), "coincide"),
                                (np.zeros((4, 2)), "exactly 5 points")):
            with pytest.raises(DegenerateConfiguration, match=message):
                ms.fit_conic(window)
        with pytest.raises(ZeroF):
            affine.kappa_from_invariants(ms.invariants(ms.fit_conic(ZERO_F_WINDOW)))
        check_fit(ms.fit_conic(RANK_WINDOW).vector, RANK_WINDOW)
        rng = np.random.default_rng(41)
        for _ in range(400):
            w = rng.normal(size=(5, 2)) * 10.0 ** rng.uniform(-3, 3, size=(1, 2))
            i, j = rng.integers(0, 5, size=2)
            w[i] = w[j]
            for window in (w, rng.normal(size=(5, 2)) + rng.uniform(-1e3, 1e3, size=2)):
                if len(np.unique(window, axis=0)) < 5:
                    with pytest.raises(DegenerateConfiguration, match="coincide"):
                        ms.fit_conic(window)
                    continue
                c = ms.fit_conic(window)
                check_fit(c.vector, window)
                inv = ms.invariants(c)
                check_invariants(c.vector, inv.S, inv.F)
                if abs(inv.S) > PARABOLIC_TOL:
                    check_center(c.vector, inv.S, ms.conic_center(c))
                if abs(inv.F) > affine.ZERO_F_TOL:
                    check_kappa(inv.S, inv.F, affine.kappa_from_invariants(inv))

    def test_fit_bound_on_anisotropic_windows(self):
        """Axis spreads up to 10^+-6, on every window that is not screened and whose design condition a
        double SVD can measure (up to 1e13). The check allows the overall sign: the fit's lead is its
        first entry of (A, B, C) over 1e-12 in magnitude, the exact conic's its first non-zero one."""
        rng = np.random.default_rng(44)
        windows = rng.normal(size=(400, 5, 2)) * 10.0 ** rng.uniform(-6, 6, size=(400, 1, 2))
        coef, errors, _ = affine._fit(windows)
        assert all("collinear" in msg or "coincide" in msg for msg in errors.values())
        checked = [r for r in range(len(windows)) if r not in errors and design_condition(windows[r]) <= 1e13]
        for r in checked:
            check_fit(coef[r], windows[r], up_to_sign=True)
        assert len(checked) > 300

    def test_fit_under_power_of_two_dilations(self):
        """A window dilated by 2^k fits the conic of the window, within 2 eps after the exact rescaling, for k
        as far out as +-160, where the pencil's degree-8 products on unscaled differences leave the doubles."""
        rng = np.random.default_rng(47)
        for _ in range(50):
            w = rng.normal(size=(5, 2)) + rng.uniform(-3, 3, size=2)
            want = ms.fit_conic(w).vector
            for k in (-160, -60, 60, 160):
                got = ms.fit_conic(np.ldexp(w, k)).vector * np.ldexp(1.0, [2 * k, 2 * k, 2 * k, k, k, 0])
                got = got / np.abs(got).max()
                got = got / np.sqrt((got * got).sum())
                assert min(np.abs(got - want).max(), np.abs(got + want).max()) <= 2 * exact.EPS, k

    def test_curvature_rounding(self):
        rng = np.random.default_rng(43)
        S = rng.normal(size=20000)
        F = rng.normal(size=20000) * 10.0 ** rng.uniform(-6, 3, size=20000)
        for inv in map(affine.AffineInvariants, S.tolist(), F.tolist()):
            if abs(inv.F) <= affine.ZERO_F_TOL:
                with pytest.raises(ZeroF):
                    affine.kappa_from_invariants(inv)
            else:
                check_kappa(inv.S, inv.F, affine.kappa_from_invariants(inv))

    def test_cubic_invariant_rounding(self):
        """F within eps |F| + 32 eps^2 P: random coefficients over six decades, and rounded line pairs,
        whose exact F is tiny against P."""
        rng = np.random.default_rng(46)
        l, k = rng.normal(size=(2, 1000, 3))
        pairs = np.stack([l[:, 0] * k[:, 0], (l[:, 0] * k[:, 1] + l[:, 1] * k[:, 0]) / 2, l[:, 1] * k[:, 1],
                          (l[:, 0] * k[:, 2] + l[:, 2] * k[:, 0]) / 2, (l[:, 1] * k[:, 2] + l[:, 2] * k[:, 1]) / 2,
                          l[:, 2] * k[:, 2]], axis=1)
        coef = np.vstack([rng.normal(size=(1000, 6)) * 10.0 ** rng.uniform(-6, 0, size=(1000, 6)), pairs])
        for row, F in zip(coef, affine._invariants(coef)[1]):
            (_, f_ref), (_, f_scale) = exact.invariants(row), exact.invariant_scales(row)
            assert_within(F, f_ref, EPS * abs(f_ref) + 32 * EPS * EPS * f_scale, "F")

    @pytest.mark.parametrize("m", EQUIVALENCE_MESHES, ids=MESH_IDS)
    def test_per_index_views(self, m):
        for i in range(-1, m.n + 1):
            if not m.closed and not 2 <= i < m.n - 2:
                for view in VIEWS:
                    assert outcome(view, m, i) is IndexOutOfRange
                continue
            c = outcome(affine.conic_at, m, i)
            if c is DegenerateConfiguration:
                assert all(outcome(view, m, i) is DegenerateConfiguration for view in VIEWS)
                continue
            check_fit(c.vector, [m.p(i, off) for off in range(-2, 3)])
            inv = ms.invariants(c)
            check_invariants(c.vector, inv.S, inv.F)
            kappa = outcome(ms.affine_curvature, m, i)
            if abs(inv.F) <= affine.ZERO_F_TOL:
                assert kappa is ZeroF
                assert outcome(ms.has_fine_area, m, i) is outcome(ms.in_fine_position, m, i) is ZeroF
            else:
                check_kappa(inv.S, inv.F, kappa)
                check_fine_area(m, i, kappa)
            check_gap_bound(m, i, kappa)
            if abs(inv.S) > PARABOLIC_TOL:
                check_center(c.vector, inv.S, ms.conic_center(c))
            arcs = outcome(ms.arc_length_set, m, i)
            if isinstance(arcs, type) or isinstance(kappa, type):
                assert arcs is kappa  # an arc length can be read exactly where the curvature can
            else:
                for off, value in zip(range(-2, 2), arcs.values):
                    check_arc(m, i, m.resolve(i, off), m.resolve(i, off + 1), value)
            for dk, dl in ARC_OFFSETS:
                k, l = i + dk, i + dl
                if m.closed:
                    k, l = k % m.n, l % m.n
                got = outcome(ms.affine_arc_length, m, i, k, l)
                offsets = [(j - i + m.n // 2) % m.n - m.n // 2 if m.closed else j - i for j in (k, l)]
                if max(map(abs, offsets)) > affine.ARC_HALF_WIDTH or not (m.closed or 0 <= min(k, l) <= max(k, l) < m.n):
                    assert got is IndexOutOfRange
                elif isinstance(arcs, type):
                    assert got is arcs
                else:
                    check_arc(m, i, k, l, got)

    @pytest.mark.parametrize("m", EQUIVALENCE_MESHES, ids=MESH_IDS)
    def test_mesh_functions(self, m):
        assert outcome(ms.is_affine_fine, m) == outcome(fine_by_views, m)
        got = outcome(affine.consecutive_arc_lengths, m)
        views = [outcome(arc_to_next, m, i) for i in m.interior(2, 3)]
        if (raised := first_raised(views)) is not None:
            assert got is raised
        else:
            assert got.tolist() == views
        for scheme in (ms.Scheme.EQ5, ms.Scheme.EQ6, ms.Scheme.EQ7, ms.Scheme.EQ8):
            rows = scheme_rows(m, scheme, affine.SA_SPEC)
            lo, hi = denominator_offsets(scheme)
            for kwargs in ({}, {"spacing": "euclidean"}, {"spacing_tol": 1.0}):
                got = outcome(ms.sa_signature, m, scheme, **kwargs)
                if got in (NotOrdinary, NotConvex, SchemeSpacingMismatch, MeshTooShort):
                    continue
                # the first failing row: its first failing curvature center, else its arc, else a vanishing arc
                c = int(scheme.centered)
                kappas = [outcome(ms.affine_curvature, m, j) for j in range(rows.start - c, rows.stop + 1)]
                arcs = [outcome(ms.affine_arc_length, m, i, m.resolve(i, lo), m.resolve(i, hi)) for i in rows]
                per_row = [first_raised(kappas[k : k + 2 + c] + [arc]) or (DegenerateStencil if abs(arc) <= 1e-15 else None)
                           for k, arc in enumerate(arcs)]
                if (raised := next(filter(None, per_row), None)) is not None:
                    assert got is raised
                    continue
                assert got.kappas.tolist() == kappas[c : c + len(rows)]
                for k, (value, arc) in enumerate(zip(got.kappa_s, arcs)):
                    ref = Fraction(scheme.factor) * (Fraction(kappas[k + 1 + c]) - Fraction(kappas[k])) / Fraction(arc)
                    assert_within(value, ref, 2 * EPS * abs(ref), f"{scheme.label} kappa_s at {rows[k]}")

    def test_decide_affine_corpus(self):
        # statuses per pair, in the order (thm5.7, thm5.8, cor5.9) x (sig_tol 1e-6, 1e-2):
        # C congruent, N not congruent, H hypotheses not met
        expected = ["CCCCCC", "HHHHHH", "NNNNNN"] * 3 + ["HHCCCC", "HHHHHH", "NNNNNN", "CCCCCC", "HHHHHH", "HHHHNN"]
        # pair 29, a parabola and its mirror image: thm5.7 finds its curvature vanishing; under thm5.8 and cor5.9
        # its arc-length sets agree, as lengths do under a reflection, and the oracle finds the map reverses orientation
        expected += ["CCCCCC", "HHHHHH", "NNNNNN"] * 3 + ["HHHHCC", "HHHHHH", "NNNNNN", "CCCCCC", "HHHHHH", "HHNNNN"]
        letter = {ms.Verdict.CONGRUENT: "C", ms.Verdict.NOT_CONGRUENT: "N", ms.Verdict.HYPOTHESES_NOT_MET: "H"}
        rng = np.random.default_rng(42)
        got = []
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
            got.append("".join(letter[ms.decide_affine(m1, m2, variant, sig_tol).status]
                               for variant in ("thm5.7", "thm5.8", "cor5.9") for sig_tol in (1e-6, 1e-2)))
        assert got == expected


def told(f, *args):
    """What a call returns, or the class and message of what it raises."""
    try:
        return f(*args)
    except ms.MeshSigError as exc:
        return type(exc), str(exc)


def corpus_windows():
    """The named windows, five coinciding points, every window of the equivalence corpus, and the windows of a
    comb (every fifth point off a line, with 3e-11 noise), whose four nearly collinear points are ill-conditioned."""
    named = [COLLINEAR_WINDOW, RANK_WINDOW, ZERO_F_WINDOW, np.zeros((5, 2))]
    comb = np.where(np.arange(41) % 5 == 0, 0.3, 0.0) + 3e-11 * np.random.default_rng(49).normal(size=41)
    meshes = EQUIVALENCE_MESHES + [ms.Mesh(np.column_stack([np.linspace(-1.0, 1.0, 41), comb]))]
    windows = [np.stack([m.p(i, off) for off in range(-2, 3)]) for m in meshes for i in m.interior(2, 2)]
    return np.array(named + windows, dtype=float)


# (-1, 1), (-0.5, 0.25), (0, 0), (0.5, 0.25), (1, 1), whose largest difference to the centre point is 1, with p4
# moved to p3 + (0, g) (its closest pair at g) or p1 to (-0.5, 0.5 - g) (its orientation [012] at g)
def edge_window(g, moved):
    w = np.array([(-1.0, 1.0), (-0.5, 0.25), (0.0, 0.0), (0.5, 0.25), (1.0, 1.0)])
    w[moved] = (0.5, 0.25 + g) if moved == 4 else (-0.5, 0.5 - g)
    return w


class TestFitFrame:
    """_fit screens each window in its own frame, so its verdicts do not depend on where the window
    lies or on a power-of-two dilation."""

    @pytest.mark.parametrize("j", [-600, -300, -30, 30, 300, 600])
    def test_verdicts_under_power_of_two_dilations(self, j):
        """The same errors, and finite coefficients on every other window: the map back to the given coordinates
        scales exactly, so it overflows nowhere in this range."""
        windows = corpus_windows()
        errors = affine._fit(windows)[1]
        assert {msg.split(" ")[-1] for msg in errors.values()} == {"coincide", "collinear"}
        coef, got, _ = affine._fit(np.ldexp(windows, j))
        assert got == errors
        assert np.isfinite(np.delete(coef, list(errors), axis=0)).all()

    def test_integer_windows_under_integer_translations(self):
        rng = np.random.default_rng(48)
        windows = rng.integers(-6, 7, size=(2000, 5, 2)).astype(float)
        errors = affine._fit(windows)[1]
        assert {msg.split(" ")[-1] for msg in errors.values()} == {"coincide", "collinear"}
        assert 0 < len(errors) < len(windows)
        for k in (1, 13, 27, 40):
            shift = rng.integers(-2 ** k, 2 ** k + 1, size=2).astype(float)
            assert affine._fit(windows + shift)[1] == errors, k

    def test_a_shifted_ellipse_fits_every_window(self):
        m = gen.ellipse_mesh(200, 2.0, 1.0)
        assert affine._block(ms.Mesh(m.points + 1e4, closed=True)).fit_errors == {}

    @pytest.mark.parametrize("g, moved, want", [(1e-11, 4, None), (1e-13, 4, "fit points 3 and 4 coincide"),
                                                (1e-11, 1, None), (1e-13, 1, "fit points 0, 1, 2 are collinear")])
    def test_screening_band_edges(self, g, moved, want):
        """The coincidence band is 1e-12 of the largest difference to the centre point, the collinearity band
        1e-12 of its square: a window at 1e-11 of either fits, at 1e-13 it is screened. So it stays when moved
        by 10^4 times that difference, where the raw coordinates would have to be resolved to 1e-15 of their
        size, and when dilated by 2^+-300."""
        w = edge_window(g, moved)
        for window in (w, w + 1e4, np.ldexp(w, 300), np.ldexp(w, -300), np.ldexp(w + 1e4, -300)):
            coef, errors, _ = affine._fit(window[None])
            assert errors == ({} if want is None else {0: want})
            assert np.isnan(coef).all() == (want is not None)

    @pytest.mark.parametrize("m", [m for m in EQUIVALENCE_MESHES if m.closed],
                             ids=[k for k, m in zip(MESH_IDS, EQUIVALENCE_MESHES) if m.closed])
    def test_messages_name_the_resolved_index(self, m):
        arcs = tuple(lambda m, i, dk=dk, dl=dl: ms.affine_arc_length(m, i, i + dk, i + dl) for dk, dl in ARC_OFFSETS)
        for view in VIEWS + (ms.sd_affine,) + arcs:
            for i in range(m.n):
                assert told(view, m, i + m.n) == told(view, m, i), (view.__name__, i)
