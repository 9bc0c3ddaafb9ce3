"""Exact equivariance of the Euclidean layer and the alignment oracle under dilations by powers of two.

Multiplying every coordinate by 2^j is exact in binary floating point, and
every Euclidean kernel and the oracle work on each mesh's working points
2^-k p. A quantity of weight w (lengths 1, angles 0, curvatures -1, their
arc-length derivatives -2) on the dilated mesh is therefore the undilated
value times 2^(w j), bit for bit, while flags, angles, statuses and
correspondences do not change. Warnings are errors throughout, so an
overflow or underflow that numpy reports fails the row.

Rows of weight |w| <= 1 run at j in {±3, ±30, ±600, ±999}. Rows with
kappa_s (w = -2) stop at |j| = 300: at |j| = 600, 2^(-2j) kappa_s is no
longer a normal double (see ``test_kappa_s_leaves_the_doubles``). The
meshes' coordinates are 0 or at least 2^-20 in magnitude, so that every
dilated coordinate is a normal double and the dilated mesh is exact.
"""

from __future__ import annotations

import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

import meshsig as ms
from meshsig import affine, congruence
from meshsig import generators as gen
from meshsig.errors import MeshSigError, NonRealMu, ParabolicConic
from meshsig.euclidean import chords, interior_curvatures
from meshsig.geometry import edge_lengths

SCALES = (3, -3, 30, -30, 600, -600, 999, -999)
SLOPE_SCALES = (3, -3, 30, -30, 300, -300)
SPECS = (ms.NeighborhoodSpec(1, 1), ms.NeighborhoodSpec(3, 1))
MODES = tuple(ms.MatchMode)


def exact(mesh: ms.Mesh) -> ms.Mesh:
    """The mesh with coordinates below 2^-20 in magnitude (such as cos(pi/2)) set to 0."""
    return ms.Mesh(np.where(np.abs(mesh.points) < 2.0 ** -20, 0.0, mesh.points), closed=mesh.closed)


def meshes() -> dict:
    rng = np.random.default_rng(1601)
    ellipse = exact(gen.ellipse_mesh(40, 2.0, 1.0))
    walk = exact(gen.random_equally_spaced_mesh(rng, 12))
    return {
        "ellipse": ellipse,
        "ellipse SE image": ms.apply_motion(ms.random_motion(ms.Group.SE, 1), ellipse),
        "open ellipse arc": ms.Mesh(ellipse.points[:25]),
        "circle": exact(gen.circle_mesh(64)),
        "equally spaced walk": walk,
        "closed walk": ms.Mesh(walk.points, closed=True),
        "sa-arcs arc": gen.ellipse_mesh(32, 1.6, 1.1, t0=0.4, step=0.094, closed=False),
    }


MESHES = meshes()


def dilated(mesh: ms.Mesh, j: int) -> ms.Mesh:
    far = ms.Mesh(np.ldexp(mesh.points, j), closed=mesh.closed)
    assert np.array_equal(np.ldexp(far.points, -j), mesh.points), "the dilation is not exact"
    return far


def outcome(f, *args):
    """f(*args), or the class and message of the library error it raises; warnings raise."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return f(*args)
        except MeshSigError as exc:
            return type(exc).__name__, str(exc)


def scaled(parts: list, j: int) -> list:
    """Each (weight, value) part with its float value times 2^(weight j), weight j an integer; a part of weight None
    is unchanged."""
    return [(w, v if w is None else np.ldexp(v, int(w * j))) for w, v in parts]


def assert_same(got: list, want: list) -> None:
    assert len(got) == len(want)
    for (w, g), (_, e) in zip(got, want):
        if w is None:
            assert g == e
        else:
            g, e = np.asarray(g, dtype=float), np.asarray(e, dtype=float)
            assert g.shape == e.shape and g.tobytes() == e.tobytes(), (w, g, e)


def per_index(f, mesh, centers, weight):
    """f(mesh, i) at each center as one part, or the outcome of the first center that raises."""
    values = [outcome(f, mesh, i) for i in centers]
    raised = [v for v in values if isinstance(v, tuple)]
    return (None, raised[0]) if raised else (weight, np.array(values, dtype=float))


def geometry_row(mesh):
    parts = [(1, mesh.diameter), (1, edge_lengths(mesh)),
             (None, (ms.is_ordinary(mesh), ms.is_convex(mesh), ms.is_fine(mesh)))]
    for spec in SPECS:
        centers = mesh.interior(spec.m1, spec.m2)
        parts.append((None, [ms.signature_sign(mesh, i, spec) for i in centers]))
        parts.append(per_index(lambda m, i: ms.angle(m, i, spec), mesh, centers, 0))
    return parts


def curvature_row(mesh):
    parts = []
    for spec in SPECS:
        centers = mesh.interior(spec.m1, spec.m2)
        parts.append(per_index(lambda m, i: ms.euclidean_curvature(m, i, spec), mesh, centers, -1))
        parts.append((-1, outcome(interior_curvatures, mesh, spec)))
    return parts


def chords_row(mesh):
    return [(1, chords(mesh, -1, 1, mesh.interior())), (1, chords(mesh, -3, 0, mesh.interior(3, 0))),
            (1, ms.chord(mesh, 0, mesh.n - 1))]


def sd_affine_row(mesh):
    """sd_affine at every window; moved by 10^4 times its extent, the mesh reads the same directions and errors."""
    got = [outcome(ms.sd_affine, mesh, i) for i in mesh.interior(2, 2)]
    far = ms.Mesh(mesh.points + 1e4 * np.ptp(mesh.points, axis=0), closed=mesh.closed)
    assert [outcome(ms.sd_affine, far, i) for i in far.interior(2, 2)] == got
    return [(None, got)]


def circumcircle_row(mesh):
    parts = []
    for i in mesh.interior():
        triple = (mesh.p(i, -1), mesh.p(i), mesh.p(i, 1))
        circle = outcome(ms.circumcircle, *triple)
        if isinstance(circle[0], str):
            parts.append((None, circle))
        else:
            (cx, cy), radius = circle
            parts += [(1, cx), (1, cy), (1, radius)]
        parts.append((-1, ms.curvature_of_triple(*triple)))
    return parts


def signature_row(mesh):
    parts = []
    for scheme in (ms.Scheme.EQ1, ms.Scheme.EQ2, ms.Scheme.EQ3, ms.Scheme.EQ4):
        sig = outcome(ms.se_signature, mesh, scheme)
        if isinstance(sig, tuple):
            parts.append((None, sig))
        else:
            parts += [(None, sig.indices.tolist()), (-1, sig.kappas), (-2, sig.kappa_s)]
    return parts


ROWS = {
    "diameter, edges, flags, signs and angles": (geometry_row, SCALES),
    "curvatures": (curvature_row, SCALES),
    "chords": (chords_row, SCALES),
    "sd_affine": (sd_affine_row, SCALES + (300, -300)),
    "circumcircle and curvature_of_triple": (circumcircle_row, SCALES),
    "se_signature eq1-eq4": (signature_row, SLOPE_SCALES),
}


@pytest.mark.parametrize("row", list(ROWS))
@pytest.mark.parametrize("name", list(MESHES))
def test_row(row, name):
    f, scales = ROWS[row]
    mesh = MESHES[name]
    want = outcome(f, mesh)
    for j in scales:
        assert_same(outcome(f, dilated(mesh, j)), scaled(want, j))


def partners(mesh: ms.Mesh) -> dict:
    """Congruent images of the mesh under each group, re-indexed ones when closed, and a perturbed image."""
    rng = np.random.default_rng(1602)
    images = {g.value: ms.apply_motion(ms.random_motion(g, 1), mesh).points for g in ms.Group}
    out = dict(images)
    if mesh.closed:
        out["se started at 3"] = np.roll(images["se"], -3, axis=0)
        out["abar reversed"] = np.roll(images["abar"][::-1], 5, axis=0)
    out["perturbed sa"] = images["sa"] + rng.normal(scale=1e-3, size=mesh.points.shape)
    return out


MASKED_NUMBER = re.compile(r"\d\.\d{3}e[+-]\d+")


def align_row(m1, m2, group, mode):
    v = outcome(ms.align, m1, m2, group, mode)
    if isinstance(v, tuple):
        return [(None, v)]
    parts = [(None, (v.status, v.correspondence, MASKED_NUMBER.sub("#", v.reason)))]
    if v.congruent:
        parts += [(0, v.witness.linear), (1, v.witness.translation), (1, v.max_deviation)]
    return parts


@pytest.mark.parametrize("name", list(MESHES))
def test_align_row(name):
    mesh = MESHES[name]
    modes = MODES if mesh.closed else (ms.MatchMode.INDEX_ALIGNED,)
    for partner, points in partners(mesh).items():
        other = ms.Mesh(points, closed=mesh.closed)
        want = {(g, mode): align_row(mesh, other, g, mode) for g in ms.Group for mode in modes}
        if partner == "se":
            assert want[ms.Group.SE, ms.MatchMode.INDEX_ALIGNED][0][1][0] is ms.Verdict.CONGRUENT
        for j in SCALES:
            m1, m2 = dilated(mesh, j), dilated(other, j)
            for (g, mode), expected in want.items():
                assert_same(align_row(m1, m2, g, mode), scaled(expected, j))


@pytest.mark.parametrize("j", [600, -600])
def test_kappa_s_leaves_the_doubles(j):
    # kappa_s has weight -2, so at |j| = 600 its exact value 2^(-2j) kappa_s is far outside the normal doubles
    mesh = MESHES["ellipse"]
    unit = ms.se_signature(mesh, ms.Scheme.EQ4)
    exponents = np.frexp(unit.kappa_s[unit.kappa_s != 0.0])[1] - 2 * j
    assert ((exponents > 1024) | (exponents < -1021)).all()
    far = dilated(mesh, j)
    if j < 0:
        with warnings.catch_warnings(), pytest.raises(RuntimeWarning, match="overflow"):
            warnings.simplefilter("error")
            ms.se_signature(far, ms.Scheme.EQ4)
    else:
        sig = ms.se_signature(far, ms.Scheme.EQ4)
        assert sig.kappas.tobytes() == np.ldexp(unit.kappas, -j).tobytes()
        assert (sig.kappa_s == 0.0).all()


class TestScalesThatFailedBefore:
    """Meshes and triples that raised, or gave a wrong answer, before every kernel read the working points."""

    ELLIPSE = MESHES["ellipse"]
    IMAGE = MESHES["ellipse SE image"]

    def pair(self, j):
        return dilated(self.ELLIPSE, j), dilated(self.IMAGE, j)

    @pytest.mark.parametrize("j", [600, -600, 1000, -1000])
    def test_curvatures(self, j):
        want = np.ldexp(interior_curvatures(self.ELLIPSE), -j)
        assert outcome(interior_curvatures, dilated(self.ELLIPSE, j)).tobytes() == want.tobytes()

    @pytest.mark.parametrize("j", [-600, -1000])
    def test_ordinary_and_the_rules(self, j):
        m1, m2 = self.pair(j)
        assert outcome(ms.is_ordinary, m1) is True
        assert outcome(ms.align, m1, m2, ms.Group.SE).congruent
        assert outcome(ms.decide_eq1, m1, m2).reason == "a mesh is not equally spaced"

    @pytest.mark.parametrize("j", [256, 300, -300, -400, -520, 511, 600])
    @pytest.mark.parametrize("group", [ms.Group.SE, ms.Group.SA])
    @pytest.mark.parametrize("mode", [ms.MatchMode.INDEX_ALIGNED, ms.MatchMode.CYCLIC])
    def test_oracle(self, j, group, mode):
        unit = ms.align(self.ELLIPSE, self.IMAGE, group, mode)
        far = outcome(ms.align, *self.pair(j), group, mode)
        assert far.congruent and unit.congruent
        assert far.max_deviation == math.ldexp(unit.max_deviation, j)
        assert far.witness.translation.tobytes() == np.ldexp(unit.witness.translation, j).tobytes()

    def test_an_overflowed_signature_column_differs(self):
        # at 2^-600, kappa_s (weight -2) overflows to inf and inf - inf is nan: a difference, never agreement
        rng = np.random.default_rng(3)
        walks = [gen.random_equally_spaced_mesh(rng, 12) for _ in range(2)]
        with np.errstate(over="ignore"):
            unit, far = ([ms.se_signature(dilated(m, j), ms.Scheme.EQ1) for m in walks] for j in (0, -600))
        # the comparisons themselves run with warnings as errors
        assert ms.signature_max_error(*unit) == pytest.approx(1.0958, abs=1e-4)
        assert math.isnan(ms.signature_max_error(*far)) and not ms.signatures_close(*far)
        assert congruence._values_differ([1.0, np.inf], [1.0, np.inf], 1e-6, "x") is not None
        assert congruence._values_differ([1.0, np.nan], [1.0, 2.0], 1e-6, "x") == (
            "x differ (max relative error nan at index 1)")

    @pytest.mark.parametrize("j", [600, 1000])
    @pytest.mark.parametrize("group", [ms.Group.SA, ms.Group.ABAR])
    def test_equiaffine_oracle_across_far_apart_scales(self, j, group):
        # the areas differ by 2^(2j), so no unimodular map fits; the reason carries a finite deviation
        far = dilated(self.ELLIPSE, j)
        for m1, m2 in ((self.ELLIPSE, far), (far, self.ELLIPSE)):
            for mode in MODES:
                v = outcome(ms.align, m1, m2, group, mode)
                assert v.status is ms.Verdict.NOT_CONGRUENT
                if group is ms.Group.SA and mode is ms.MatchMode.CYCLIC_REVERSAL:
                    continue  # its last trial is a reversed correspondence, which SA rejects by orientation
                deviation, limit = map(float, re.fullmatch(r"max deviation (\S+) over (\S+) \(.*\)", v.reason).groups())
                assert math.isfinite(deviation) and deviation > limit

    @pytest.mark.parametrize("s", [1e170, 1e-170])
    def test_three_point_functions(self, s):
        triple = [(s, 0.0), (0.0, s), (-s, 0.0)]
        center, radius = outcome(ms.circumcircle, *triple)
        assert center == (0.0, 0.0) and radius == s
        assert outcome(ms.curvature_of_triple, *triple) == pytest.approx(1.0 / s, rel=1e-15)


# ---------------------------------------------------------------------------
# The equiaffine block: every window is read in its own frame u = 2^-e (p - p2)
# ---------------------------------------------------------------------------

KAPPA, ARC = Fraction(-4, 3), Fraction(2, 3)  # the weights of the equiaffine curvature and arc length
AFFINE_SCALES = (3, -3, 30, -30, 300, -300, 600, -600, 999, -999)
OFF_LATTICE = (1, -2, 301, -598)  # not multiples of 3


def gap_bound(mesh, i):
    """hyperbola_gap_bound at i, or the name of what it raises: its message's radicand has weight 2."""
    try:
        return "", affine.hyperbola_gap_bound(mesh, i)
    except (NonRealMu, ParabolicConic) as exc:
        return type(exc).__name__, np.nan


def affine_row(mesh, kappas=True, mu=True):
    """The block's reads at every window: its arcs (weight 2/3), what its gap bound raises, with mu the bound (1),
    and, with kappas, its curvatures (-4/3).

    At |j| = 999 a curvature, 2^(-4j/3) kappa, is no longer a double, so those rows leave it out.
    """
    centers = affine.affine_fine_interior(mesh)
    gaps = [gap_bound(mesh, i) for i in centers]
    parts = [(ARC, outcome(affine.consecutive_arc_lengths, mesh)),
             per_index(lambda m, i: list(ms.arc_length_set(m, i).values), mesh, centers, ARC),
             (None, [name for name, _ in gaps])]
    if mu:
        parts.append((1, np.array([bound for _, bound in gaps])))
    if kappas:
        parts += [(KAPPA, outcome(affine.interior_curvatures, mesh)), per_index(ms.affine_curvature, mesh, centers, KAPPA)]
    return parts


def sa_signature_row(mesh):
    parts = []
    for scheme in (ms.Scheme.EQ5, ms.Scheme.EQ6, ms.Scheme.EQ7, ms.Scheme.EQ8):
        sig = outcome(ms.sa_signature, mesh, scheme, "euclidean", 1.0)
        if isinstance(sig, tuple):
            parts.append((None, sig))
        else:
            parts += [(None, sig.indices.tolist()), (KAPPA, sig.kappas), (-2, sig.kappa_s)]
    return parts


@pytest.mark.parametrize("j", AFFINE_SCALES)
@pytest.mark.parametrize("name", list(MESHES))
def test_affine_row(name, j):
    """j a multiple of 3: each window's frame exponent moves by j and its frame points do not change, so every
    curvature, arc and gap bound is 2^(w j) times the undilated one, bit for bit."""
    mesh = MESHES[name]
    kappas = abs(j) <= 600
    assert_same(outcome(affine_row, dilated(mesh, j), kappas), scaled(outcome(affine_row, mesh, kappas), j))


@pytest.mark.parametrize("j", [3, -3, 30, -30, 300])
@pytest.mark.parametrize("name", list(MESHES))
def test_sa_signature_row(name, j):
    """Bit for bit up to 2^300. At 2^-300 the arcs fall under the signature's absolute denominator band, 1e-15
    (ROADMAP item 15), and every row reads as a vanishing denominator."""
    mesh = MESHES[name]
    assert_same(outcome(sa_signature_row, dilated(mesh, j)), scaled(outcome(sa_signature_row, mesh), j))


def assert_cube_root_rounding(got, want, weight, j):
    """got within 8 eps (relative) of 2^(weight j) want, weight a multiple of 1/3: cubed, exactly,
    got^3 / (2^(3 weight j) want^3) lies between ((1 - 4 eps) / (1 + 4 eps))^3 and its inverse."""
    eps = Fraction(np.finfo(float).eps)
    lo = ((1 - 4 * eps) / (1 + 4 * eps)) ** 3
    for g, w in zip(np.ravel(got).tolist(), np.ravel(want).tolist()):
        assert (g == w == 0.0) or lo <= Fraction(g) ** 3 / (Fraction(w) ** 3 * Fraction(2) ** int(3 * weight * j)) <= 1 / lo


@pytest.mark.parametrize("j", OFF_LATTICE)
@pytest.mark.parametrize("name", list(MESHES))
def test_affine_row_off_the_lattice(name, j):
    """j not a multiple of 3: each frame is then 2^s times the undilated one, s in -2 ... 2, exactly, so the
    brackets, S, F, every arc's numerator and the gap bound scale exactly, and only the cube roots round apart.
    The gap bounds and every error are bit for bit; each curvature and arc is within 8 eps of 2^(w j) times its
    undilated value (both are within 4 eps of the same exact quotient)."""
    mesh = MESHES[name]
    got, want = outcome(affine_row, dilated(mesh, j)), outcome(affine_row, mesh)
    assert len(got) == len(want)
    for (w, g), (_, e) in zip(got, want):
        if w in (KAPPA, ARC) and not isinstance(e, tuple):
            assert_cube_root_rounding(g, e, w, j)
        else:
            assert_same([(w, g)], scaled([(w, e)], j))


def translation_bound(mesh, t):
    """The translation rows' bound on a mesh moved by t, D its diameter and h its shortest edge: each curvature
    within 16 eps (|t| / h) (D / h)^2 max(max|kappa|, D^(-4/3)), each arc within 16 eps (|t| / h) (D / h)
    (relative). Moving rounds each coordinate by up to eps |t| / 2, a relative move of eps |t| / h of a window's
    frame points; the curvature, a difference of second order over the window, amplifies it by (D / h)^2 at most
    on these meshes, the arcs by D / h. The bound holds with a margin of at least 3 on every translated mesh below.
    """
    eps, D, h = np.finfo(float).eps, mesh.diameter, edge_lengths(mesh).min()
    move = 16 * eps * np.abs(t).max() / h
    kappas = outcome(affine.interior_curvatures, mesh)
    return move * (D / h) ** 2 * max(np.abs(kappas).max(), D ** (-4 / 3)), move * D / h


def assert_translated(got, want, mesh, t):
    """The outcome of the unmoved mesh: the same errors and flags, and curvatures and arcs within their bounds."""
    kappa_bound, arc_bound = translation_bound(mesh, t)
    assert len(got) == len(want)
    for (w, g), (_, e) in zip(got, want):
        if w is None or isinstance(e, tuple):
            assert g == e
        elif w == KAPPA:
            assert np.abs(np.asarray(g) - e).max() <= kappa_bound, (w, g, e)
        else:
            assert (np.abs(np.asarray(g) - e) <= arc_bound * np.abs(e)).all(), (w, g, e)


def moved(mesh, t):
    return ms.Mesh(mesh.points + t, closed=mesh.closed)


@pytest.mark.parametrize("direction", [(1.0, 1.0), (1.0, -2.0), (-1.0, 0.0)])
@pytest.mark.parametrize("factor", [1e2, 1e4])
@pytest.mark.parametrize("name", list(MESHES))
def test_translation_row(name, factor, direction):
    """Moved by up to 10^4 times its diameter, a mesh reads the same errors, flags and fineness, and every
    curvature and arc within the translation bound. (The gap bound is another function of the conic, with a
    conditioning of its own; its errors are compared.)"""
    mesh = MESHES[name]
    t = factor * mesh.diameter * np.array(direction)
    far = moved(mesh, t)
    assert outcome(ms.is_affine_fine, far) == outcome(ms.is_affine_fine, mesh)
    assert [outcome(ms.sd_affine, far, i) for i in far.interior(2, 2)] == [
        outcome(ms.sd_affine, mesh, i) for i in mesh.interior(2, 2)]
    assert_translated(outcome(affine_row, far, True, False), outcome(affine_row, mesh, True, False), mesh, t)


SA_ARC = MESHES["sa-arcs arc"]


class TestEquiaffineProbes:
    """Calls that raised when the block mapped each conic back to the given coordinates and judged its cubic
    invariant there against an absolute band. Each returns its unmoved, undilated outcome, with no warning."""

    def eq6(self, mesh):
        sig = outcome(ms.sa_signature, mesh, ms.Scheme.EQ6)
        assert isinstance(sig, ms.Signature), sig
        return sig

    @pytest.mark.parametrize("shift", [1e2, 1e3, 1e4])
    def test_shifted_ellipse_signature(self, shift):
        mesh = gen.ellipse_mesh(200, 2.0, 1.0)
        unit, far = self.eq6(mesh), self.eq6(moved(mesh, (shift, shift)))
        assert far.indices.tolist() == unit.indices.tolist()
        assert np.abs(far.kappas - unit.kappas).max() <= translation_bound(mesh, (shift, shift))[0]
        assert outcome(ms.is_affine_fine, moved(mesh, (shift, shift))) is True

    @pytest.mark.parametrize("j", [30, -30, 300, -300, 600, 999])
    def test_dilated_ellipse_is_affine_fine(self, j):
        mesh = exact(gen.ellipse_mesh(40, 2.0, 1.0))
        assert outcome(ms.is_affine_fine, mesh) is outcome(ms.is_affine_fine, dilated(mesh, j)) is True

    def test_large_circle_is_affine_fine(self):
        big = gen.circle_mesh(8, radius=1000.0)
        assert outcome(ms.is_affine_fine, big) is outcome(ms.is_affine_fine, gen.circle_mesh(8)) is True
        np.testing.assert_allclose(outcome(affine.interior_curvatures, big), 1e-4, rtol=1e-12)

    def test_sa_arc_shifted_and_dilated(self):
        unit = self.eq6(SA_ARC)
        far = self.eq6(moved(SA_ARC, (100.0, 100.0)))
        assert far.indices.tolist() == unit.indices.tolist()
        assert np.abs(far.kappas - unit.kappas).max() <= translation_bound(SA_ARC, (100.0, 100.0))[0]
        big = self.eq6(dilated(SA_ARC, 12))
        assert big.kappas.tobytes() == np.ldexp(unit.kappas, -16).tobytes()

    @pytest.mark.parametrize("degrees", [0.0, 30.0, 90.0])
    def test_moved_parabola_arc_length_set(self, degrees):
        c, s = np.cos(np.radians(degrees)), np.sin(np.radians(degrees))
        turned = ms.Mesh(gen.parabola_mesh(9).points @ np.array([[c, -s], [s, c]]).T)
        t = np.array([1e3, -2e3])
        unit, far = outcome(ms.arc_length_set, turned, 4), outcome(ms.arc_length_set, moved(turned, t), 4)
        assert isinstance(far, affine.ArcLengthSet) and far.at == 4
        arc_bound = translation_bound(turned, t)[1]
        np.testing.assert_allclose(far.values, unit.values, rtol=arc_bound, atol=0.0)
        # a turn is in SA: the upright parabola's lengths
        np.testing.assert_allclose(unit.values, ms.arc_length_set(gen.parabola_mesh(9), 4).values, rtol=1e-13)
