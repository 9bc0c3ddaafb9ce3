"""The per-mesh store of derived data: read-only, built once, and safe under concurrent first use."""

import gc
import math
import sys
import threading

import numpy as np
import pytest

import meshsig as ms
from meshsig import affine, congruence, euclidean, geometry
from meshsig import generators as gen
from meshsig.congruence import MatchMode
from meshsig.errors import DegenerateStencil, MeshTooShort, SchemeSpacingMismatch, ZeroF
from test_affine import EQUIVALENCE_MESHES, unimodular
from test_congruence import CYCLIC_CASES, cyclic_image, pushed_diameter_pair, radial_outline

SPECS = [ms.NeighborhoodSpec(*s) for s in ((1, 1), (1, 2), (3, 1), (3, 3))]


def polygon_pair(closed):
    """An equilateral convex 13-gon and its SE image: every Euclidean rule reaches the oracle."""
    pts = gen.circle_mesh(13, radius=2.0).points
    return ms.Mesh(pts, closed=closed), ms.Mesh(ms.random_motion(ms.Group.SE, 3).apply(pts), closed=closed)


def arc_pair():
    """An open ellipse arc and its SA image: every equiaffine rule reaches the oracle."""
    m = gen.ellipse_mesh(14, 2.0, 1.0, step=0.3, closed=False)
    return m, ms.Mesh(ms.random_motion(ms.Group.SA, 4).apply(m.points))


PAIRS = (polygon_pair(False), polygon_pair(True), arc_pair())


def fresh(m):
    return ms.Mesh(np.array(m.points), closed=m.closed)


def encode(value):
    """Every bit of a result: arrays as bytes, signatures and verdicts field by field."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, ms.Signature):
        return tuple(encode(c) for c in (value.indices, value.kappas, value.kappa_s)) + (value.scheme, value.meta)
    if isinstance(value, ms.CongruenceVerdict):
        w = value.witness
        return (value.status, value.reason, repr(value.max_deviation), value.correspondence,
                value.oracle_disagreement, None if w is None else (encode(w.linear), encode(w.translation)))
    if isinstance(value, tuple):
        return tuple(encode(v) for v in value)
    return value


def outcome(f, *args, **kwargs):
    try:
        return encode(f(*args, **kwargs))
    except ms.MeshSigError as exc:
        return "raised", type(exc), str(exc)


def rule_outcomes(m1, m2):
    """Every row of RULES, with each value of each of its options."""
    out = []
    for via, rule in congruence.RULES.items():
        for params in [{}] + [{opt: v} for opt, values in rule.options.items() for v in values]:
            out.append(outcome(congruence._decide, via, m1, m2, **params))
    return out


def mesh_outcomes(m):
    """Every public predicate, stored array and signature of one mesh."""
    out = [outcome(f, m) for f in (ms.is_ordinary, ms.is_convex, ms.is_equally_spaced, ms.is_fine,
                                    ms.is_affine_fine, geometry.edge_lengths, affine.interior_curvatures,
                                    affine.interior_arc_length_sets)]
    out += [outcome(ms.is_fine, m, 0.3), outcome(ms.is_equally_spaced, m, 1e-2)]
    for spec in SPECS:
        out += [outcome(geometry.stencil_table, m, spec), outcome(euclidean.interior_curvatures, m, spec)]
        out += [outcome(ms.se_signature, m, scheme, spec) for scheme in list(ms.Scheme)[:4]]
    out += [outcome(ms.sa_signature, m, scheme) for scheme in list(ms.Scheme)[4:]]
    return out


def align_outcomes(m1, m2):
    modes = list(MatchMode) if m1.closed else [MatchMode.INDEX_ALIGNED]
    return [outcome(ms.align, m1, m2, group, mode) for group in ms.Group for mode in modes]


def every_outcome(m1, m2):
    return rule_outcomes(m1, m2) + mesh_outcomes(m1) + mesh_outcomes(m2) + align_outcomes(m1, m2)


PER_INDEX = (ms.signature_sign, ms.signature_direction, ms.angle, ms.signed_angle, ms.signed_angle_type,
             ms.euclidean_curvature)


def per_index_outcomes(m):
    """Every per-index Euclidean function at every index under every stencil of SPECS."""
    return [outcome(f, m, i, spec) for spec in SPECS for f in PER_INDEX for i in range(m.n)]


def stored_arrays(m):
    every_outcome(m, m)
    arrays = [v for entry in m._derived.values() for v in (entry if isinstance(entry, tuple) else (entry,))
              if isinstance(v, np.ndarray)]
    block = affine._block(m)
    return arrays + [getattr(block, name) for name in block.__slots__ if name != "fit_errors"]


class TestContract:
    @pytest.mark.parametrize("pair", PAIRS, ids=["open", "closed", "arc"])
    def test_handed_out_arrays_are_read_only(self, pair):
        m = fresh(pair[0])
        handed_out = [geometry.edge_lengths(m), affine.interior_curvatures(m), *affine.interior_arc_length_sets(m)]
        for spec in SPECS:
            handed_out += [*geometry.stencil_table(m, spec), euclidean.interior_curvatures(m, spec)]
        for a in handed_out + stored_arrays(m):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[...] = 0

    @pytest.mark.parametrize("pair", PAIRS, ids=["open", "closed", "arc"])
    def test_same_bits_twice_and_on_a_fresh_copy(self, pair):
        m1, m2 = (fresh(m) for m in pair)
        first = every_outcome(m1, m2)
        assert every_outcome(m1, m2) == first
        assert every_outcome(*(fresh(m) for m in pair)) == first

    def test_rules_read_stored_stencils(self, monkeypatch):
        calls = []

        def counted(kernel):
            def wrapper(*args):
                calls.append(kernel.__name__)
                return kernel(*args)
            return wrapper

        monkeypatch.setattr(geometry, "_stencil", counted(geometry._stencil))
        monkeypatch.setattr(geometry, "_curvatures", counted(geometry._curvatures))
        pairs = [tuple(fresh(m) for m in pair) for pair in PAIRS]
        first = [rule_outcomes(*pair) for pair in pairs]
        # each table is one build and one curvature kernel call, over one gather of its triples
        assert calls and set(calls) == {"_stencil", "_curvatures"}
        assert calls.count("_stencil") == calls.count("_curvatures")
        calls.clear()
        assert [rule_outcomes(*pair) for pair in pairs] == first
        assert calls == []

    def test_store_stays_bounded(self):
        stencil_entries = {("stencil", spec.m1, spec.m2) for spec in SPECS}
        for pair in PAIRS:
            m = fresh(pair[0])
            from_construction = set(m._derived)
            first = per_index_outcomes(m)
            assert set(m._derived) == from_construction | stencil_entries
            assert per_index_outcomes(m) == first
        m1, m2 = (fresh(m) for m in PAIRS[1])
        every_outcome(m1, m2)
        keys = set(m1._derived)
        for tol in (1e-3, 1e-5, 0.3):
            ms.is_fine(m1, tol)
            ms.is_equally_spaced(m1, tol)
            congruence._decide("thm4.14", m1, m2, right_tol=tol, sig_tol=tol)
        assert set(m1._derived) == keys


def sa_outcomes(m1, m2):
    return [outcome(ms.decide_affine, m1, m2, variant) for variant in ("thm5.7", "thm5.8", "cor5.9")]


def cyclic_outcomes(m1, m2):
    return [outcome(ms.align, m1, m2, group, mode) for group in ms.Group for mode in list(MatchMode)[1:]]


def outline_triple():
    """A closed radial outline, its rolled SE image, and a reversed, rolled SA image of that."""
    rng = np.random.default_rng(73)
    x = radial_outline(rng, 60)
    y = np.roll(ms.random_motion(ms.Group.SE, 6).apply(x), 17, axis=0)
    z = np.roll(ms.random_motion(ms.Group.SA, 7).apply(y)[::-1], 5, axis=0)
    return tuple(ms.Mesh(pts, closed=True) for pts in (x, y, z))


def oracle_bits(m):
    return [encode(congruence._frame(m)), encode(congruence._spectrum(m))]


def se_outcomes(meshes, reverse: bool):
    """se_signature of each mesh under every Euclidean scheme and stencil, called in reverse order when asked."""
    keys = [(m, scheme, spec) for m in meshes for scheme in list(ms.Scheme)[:4] for spec in SPECS]
    got = {key: outcome(ms.se_signature, *key) for key in (keys[::-1] if reverse else keys)}
    return [got[key] for key in keys]


def test_concurrent_first_uses_agree_with_serial_runs():
    """Eight threads (more than the cores) race on the first uses of the same meshes' entries.

    Each thread starts with every SE-signature of the shared meshes, half of
    the threads in reverse order. The equiaffine rules also run on the
    overlapping pairs (a, b) and (b, c), half of the threads in each order,
    so b's block may come from either pair's joint build. Cyclic align runs under every group on the
    overlapping closed pairs (x, y) and (y, z) in the same way, so y's
    frame and spectrum may come from a call where y is either mesh.
    """
    a, b = arc_pair()
    c = ms.Mesh(ms.random_motion(ms.Group.SA, 5).apply(a.points))
    x, y, z = outline_triple()
    expected = [se_outcomes([fresh(m) for pair in PAIRS for m in pair], False)]
    expected += [every_outcome(*(fresh(m) for m in pair)) for pair in PAIRS]
    expected += [sa_outcomes(fresh(a), fresh(b)), sa_outcomes(fresh(b), fresh(c))]
    expected += [cyclic_outcomes(fresh(x), fresh(y)), cyclic_outcomes(fresh(y), fresh(z))]
    shared = [tuple(fresh(m) for m in pair) for pair in PAIRS]
    a, b, c, x, y, z = (fresh(m) for m in (a, b, c, x, y, z))
    threads_n = 8
    start = threading.Barrier(threads_n)
    results, errors = [None] * threads_n, []

    def work(k):
        try:
            start.wait(timeout=30)
            se = se_outcomes([m for pair in shared for m in pair], k % 2 == 1)
            first, second = ((a, b), (b, c)) if k % 2 else ((b, c), (a, b))
            done = {first: sa_outcomes(*first), second: sa_outcomes(*second)}
            first, second = ((x, y), (y, z)) if k % 2 else ((y, z), (x, y))
            done.update({first: cyclic_outcomes(*first), second: cyclic_outcomes(*second)})
            results[k] = [se] + [every_outcome(*pair) for pair in shared]
            results[k] += [done[p] for p in ((a, b), (b, c), (x, y), (y, z))]
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(threads_n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert all(r == expected for r in results)
    assert [block_bits(affine._block(m)) for m in (a, b, c)] == [block_bits(affine._block(fresh(m))) for m in (a, b, c)]
    assert [oracle_bits(m) for m in (x, y, z)] == [oracle_bits(fresh(m)) for m in (x, y, z)]


def frame_corpus():
    """Pairs shaped like the tests/test_congruence.py corpora.

    Random closed outlines (some with collinear leading triples, some with
    noisy images), open and closed, onto rolled images under each group;
    a radial outline onto its cyclic images and onto an unrelated outline;
    the pair in the diameter band; and an all-collinear mesh.
    """
    rng = np.random.default_rng(71)
    pairs = [pushed_diameter_pair()]
    for k in range(16):
        n = int(rng.integers(5, 40))
        angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
        pts = np.column_stack([np.cos(angles), np.sin(angles)]) * rng.uniform(0.7, 1.3, size=(n, 1))
        if k % 4 == 0:
            pts[:4] = [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]
        image = ms.random_motion(list(ms.Group)[k % 4], rng).apply(pts)[(np.arange(n) + int(rng.integers(0, n))) % n]
        if k % 3 == 1:
            image = image + rng.normal(scale=1e-4, size=image.shape)
        for closed in (True, False):
            try:
                pairs.append((ms.Mesh(pts, closed=closed), ms.Mesh(image, closed=closed)))
            except ms.MeshSigError:
                continue
    pts = radial_outline(rng, 300)
    for group, _, reverse in CYCLIC_CASES:
        pairs.append((ms.Mesh(pts, closed=True), ms.Mesh(cyclic_image(rng, pts, group, reverse)[0], closed=True)))
    pairs.append((ms.Mesh(pts, closed=True), ms.Mesh(radial_outline(rng, 300), closed=True)))
    line = ms.Mesh([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0)])
    return pairs + [(line, line)]


class TestAlignFrames:
    """The oracle's frame and spectrum: built once per mesh, the same bits fresh or stored."""

    def test_stored_entries_give_the_same_bits(self):
        cases = [(group, mode) for group in ms.Group for mode in MatchMode]
        for pair in frame_corpus():
            first = [outcome(ms.align, *(fresh(m) for m in pair), group, mode) for group, mode in cases]
            m1, m2 = (fresh(m) for m in pair)
            for group, mode in cases:  # both meshes' entries, from calls in either order
                outcome(ms.align, m1, m2, group, mode)
                outcome(ms.align, m2, m1, group, mode)
            assert [outcome(ms.align, m1, m2, group, mode) for group, mode in cases] == first

    def test_built_once_per_mesh_across_a_cyclic_match_operation(self, monkeypatch):
        """One outline against its four images and an unrelated outline of its diameter, as cyclic-match runs it."""
        rng = np.random.default_rng(72)
        pts = radial_outline(rng, 300)
        m, other = ms.Mesh(pts, closed=True), ms.Mesh(radial_outline(rng, 300), closed=True)
        unrelated = ms.Mesh(other.points * (m.diameter / other.diameter), closed=True)
        images = [(ms.Mesh(cyclic_image(rng, pts, group, reverse)[0], closed=True), group, mode)
                  for group, mode, reverse in CYCLIC_CASES]
        calls, rfft, build = [], np.fft.rfft, congruence._build_frame
        monkeypatch.setattr(np.fft, "rfft", lambda a, *args, **kw: calls.append("rfft") or rfft(a, *args, **kw))
        monkeypatch.setattr(congruence, "_build_frame", lambda mesh: calls.append("frame") or build(mesh))

        def operation():
            found = [ms.align(m, image, group, mode) for image, group, mode in images]
            return found + [ms.align(m, unrelated, group, mode) for _, group, mode in images]

        verdicts = [v.congruent for v in operation()]
        assert verdicts == [True] * 4 + [False] * 4
        assert sorted(calls) == ["frame"] * 6 + ["rfft"] * 6
        calls.clear()
        assert [v.congruent for v in operation()] == verdicts
        assert calls == []

    def test_a_mesh_keeps_scalars_and_the_spectrum_only(self):
        """An SA alignment stores no Gram inverse, and no frame field grows with n."""
        rng = np.random.default_rng(74)
        pts = radial_outline(rng, 300)
        m1, m2 = ms.Mesh(pts, closed=True), ms.Mesh(ms.random_motion(ms.Group.SA, rng).apply(pts), closed=True)
        assert ms.align(m1, m2, ms.Group.SA, MatchMode.CYCLIC).congruent
        for m in (m1, m2):
            assert {"frame", "spectrum"} <= set(m._derived) and "gram_inverse" not in m._derived
            assert all(np.size(field) <= 2 for field in congruence._frame(m))
        assert congruence._Frame._fields == ("mean", "g00", "g01", "g11")

    def test_a_mixed_exponent_pair_builds_nothing_after_its_first_alignment(self, monkeypatch):
        """Each mesh's entries stay in its own units; the pair's units scale only scalars and compared arrays."""
        pts = gen.ellipse_mesh(64, 2.0, 1.0).points
        m1, m2 = (ms.Mesh(np.ldexp(p, 600), closed=True) for p in (pts, ms.random_motion(ms.Group.SE, 2).apply(pts)))
        assert (geometry.working_points(m1).k, geometry.working_points(m2).k) == (601, 603)
        calls, rfft, build = [], np.fft.rfft, congruence._build_frame
        monkeypatch.setattr(np.fft, "rfft", lambda a, *args, **kw: calls.append("rfft") or rfft(a, *args, **kw))
        monkeypatch.setattr(congruence, "_build_frame", lambda mesh: calls.append("frame") or build(mesh))
        cases = [(g, mode) for g in (ms.Group.SE, ms.Group.SA) for mode in (MatchMode.INDEX_ALIGNED, MatchMode.CYCLIC)]
        first = [encode(ms.align(m1, m2, g, mode)) for g, mode in cases]
        assert all(v[0] is ms.Verdict.CONGRUENT for v in first)
        assert sorted(calls) == ["frame"] * 2 + ["rfft"] * 2
        calls.clear()
        assert [encode(ms.align(m1, m2, g, mode)) for g, mode in cases] == first
        assert calls == []


def uneven_arc():
    """An open ellipse arc whose parameter steps differ by up to 1e-4: equally spaced at 1e-2, not at 1e-6."""
    t = 0.3 + 0.2 * np.arange(14) * (1.0 + 1e-4 * np.sin(np.arange(14)))
    return ms.Mesh(np.column_stack([2.0 * np.cos(t), np.sin(t)]))


def flat_window_mesh():
    """Convex, with a nearly flat first window whose cubic invariant falls under ZERO_F_TOL."""
    t = np.array([0.2, 0.6, 1.0, 1.4, 1.8])
    flat = np.column_stack([np.cos(t), 2.6e-6 * np.sin(t)])
    bend = [[-0.8, -0.05], [-1.3, -0.4], [-1.5, -1.0], [-1.4, -1.7], [-1.0, -2.3]]
    return ms.Mesh(np.vstack([flat, bend]) + [0.0, 0.5])


# the Euclidean rules of the se-rules workload, on an open pair, and the host rule on the closed pair
SE_RULE_CALLS = (
    ms.decide_dist_angle, ms.decide_eq1, ms.decide_eq2_angle_type,
    lambda a, b: ms.decide_eq2_angle_type(a, b, fine_variant=True), ms.decide_eq2_signed,
    lambda a, b: ms.decide_eq2_signed(a, b, curvature_only=True), ms.decide_eq3, ms.decide_eq4,
    lambda a, b: ms.decide_eq4(a, b, endpoint_rule="obtuse-start"),
)


def uneven_walk():
    """An open walk turning by 0.3 whose steps differ by up to 1e-4: equally spaced at 1e-2, not at 1e-6."""
    steps, heading = 1.0 + 1e-4 * np.sin(np.arange(12)), 0.3 * np.arange(12)
    return ms.Mesh(np.cumsum(steps[:, None] * np.column_stack([np.cos(heading), np.sin(heading)]), axis=0))


class TestSignatureColumns:
    """Each SA scheme's, and each SE scheme and stencil's, signature columns are one derived entry.

    The ordinary, convex and spacing checks stay per call.
    """

    def test_built_once_per_mesh_and_scheme(self, monkeypatch):
        calls = []
        build, block = affine._signature_columns, affine._Block
        monkeypatch.setattr(affine, "_signature_columns", lambda m, s: calls.append(s) or build(m, s))
        monkeypatch.setattr(affine, "_Block", lambda win, has_window: calls.append("block") or block(win, has_window))
        m1, m2 = (fresh(m) for m in arc_pair())
        first = encode(ms.sa_signature(m1, ms.Scheme.EQ6))
        assert calls == ["block", ms.Scheme.EQ6]
        calls.clear()
        assert encode(ms.sa_signature(m1, ms.Scheme.EQ6)) == first
        assert calls == []
        # the three equiaffine rules and a later signature of each mesh share one entry per mesh
        for variant in ("thm5.7", "thm5.8", "cor5.9"):
            ms.decide_affine(m1, m2, variant)
        ms.sa_signature(m2, ms.Scheme.EQ6)
        assert calls == ["block", ms.Scheme.EQ6]

    def test_se_built_once_per_mesh_scheme_and_stencil(self, monkeypatch):
        calls = []
        build = euclidean._signature_columns
        monkeypatch.setattr(euclidean, "_signature_columns",
                            lambda m, scheme, spec: calls.append((id(m), scheme, spec)) or build(m, scheme, spec))
        (a, b), (c, d) = ((fresh(m) for m in pair) for pair in PAIRS[:2])

        def operation():
            verdicts = [rule(a, b) for rule in SE_RULE_CALLS] + [ms.decide_host(c, d)]
            sigs = [ms.se_signature(m, scheme, spec) for m in (a, b, c, d)
                    for scheme in list(ms.Scheme)[:4] for spec in SPECS]
            return [encode(v) for v in verdicts + sigs]

        first = operation()
        assert all(v[0] is ms.Verdict.CONGRUENT for v in first[:len(SE_RULE_CALLS) + 1])
        assert len(calls) == len(set(calls)) == 4 * 4 * len(SPECS)
        calls.clear()
        assert operation() == first
        assert calls == []

    def test_stored_columns_are_read_only(self):
        m = fresh(arc_pair()[0])
        calls = [(ms.sa_signature, (scheme,), ("sa", scheme)) for scheme in list(ms.Scheme)[4:]]
        calls += [(ms.se_signature, (scheme, spec, 1.0), ("se", scheme, spec.m1, spec.m2))
                  for scheme in list(ms.Scheme)[:4] for spec in SPECS]
        for signature, args, key in calls:
            sig = signature(m, *args)
            stored = m._derived[key]
            assert all(a is b for a, b in zip(stored, (sig.indices, sig.kappas, sig.kappa_s)))
            for a in stored:
                assert not a.flags.writeable
                with pytest.raises(ValueError):
                    a[...] = 0
            assert signature(m, *args).meta is not sig.meta

    def test_spacing_checked_on_every_call(self):
        m = uneven_arc()
        loose = encode(ms.sa_signature(m, ms.Scheme.EQ6, spacing_tol=1e-2))
        with pytest.raises(SchemeSpacingMismatch, match="eq6 requires equal arc lengths"):
            ms.sa_signature(m, ms.Scheme.EQ6)
        with pytest.raises(SchemeSpacingMismatch, match="eq6 requires an equally spaced mesh; edge 0 deviates"):
            ms.sa_signature(m, ms.Scheme.EQ6, spacing="euclidean", spacing_tol=1e-2)
        assert encode(ms.sa_signature(m, ms.Scheme.EQ6, spacing_tol=1e-2)) == loose
        m = uneven_walk()
        loose = encode(ms.se_signature(m, ms.Scheme.EQ1, spacing_tol=1e-2))
        for given in ({}, {"spacing_tol": 1e-5}):  # the default, SPACING_REL_TOL, and a tighter one
            with pytest.raises(SchemeSpacingMismatch, match="eq1 requires an equally spaced mesh"):
                ms.se_signature(m, ms.Scheme.EQ1, **given)
        assert encode(ms.se_signature(m, ms.Scheme.EQ1, spacing_tol=1e-2)) == loose

    @pytest.mark.parametrize("signature, mesh, scheme, error", [
        (ms.sa_signature, flat_window_mesh(), ms.Scheme.EQ7, ZeroF),
        (ms.sa_signature, gen.ellipse_mesh(8, 2.0, 1.0, step=0.3, closed=False), ms.Scheme.EQ8, MeshTooShort),
        (ms.se_signature, gen.circle_mesh(6), ms.Scheme.EQ4, DegenerateStencil),
        (ms.se_signature, ms.Mesh([(0.0, 0.0), (1.0, 0.0), (1.5, np.sqrt(3.0) / 2.0)]), ms.Scheme.EQ2, MeshTooShort),
    ], ids=["row-fails", "no-rows", "se-chord-vanishes", "se-no-rows"])
    def test_a_raising_build_stores_nothing(self, signature, mesh, scheme, error):
        m = fresh(mesh)
        with pytest.raises(error) as first:
            signature(m, scheme)
        assert not any(isinstance(key, tuple) and key[0] in ("sa", "se") for key in m._derived)
        with pytest.raises(error) as second:
            signature(m, scheme)
        assert str(second.value) == str(first.value)


def test_public_signature_copies_its_inputs():
    indices, kappas, kappa_s = np.arange(4), np.linspace(1.0, 2.0, 4), np.linspace(-1.0, 1.0, 4)
    sig = ms.Signature(indices, kappas, kappa_s, ms.Scheme.EQ1, ms.NeighborhoodSpec())
    before = encode(sig)
    for a in (indices, kappas, kappa_s):
        a[...] = 7
    assert encode(sig) == before
    assert not any(c.flags.writeable for c in (sig.indices, sig.kappas, sig.kappa_s))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("column", ["kappas", "kappa_s"])
def test_signature_error_is_nan_past_a_non_finite_entry(bad, column):
    kappas, kappa_s = np.linspace(1.0, 2.0, 5), np.linspace(-1.0, 1.0, 5)
    clean = ms.Signature(range(5), kappas, kappa_s, ms.Scheme.EQ2, ms.NeighborhoodSpec())
    dirty = {"kappas": kappas.copy(), "kappa_s": kappa_s.copy()}
    dirty[column][3] = bad
    other = ms.Signature(range(5), dirty["kappas"], dirty["kappa_s"], ms.Scheme.EQ2, ms.NeighborhoodSpec())
    assert ms.signature_max_error(clean, clean) == 0.0
    for pair in ((clean, other), (other, clean), (other, other)):
        assert math.isnan(ms.signature_max_error(*pair)), pair
        assert not ms.signatures_close(*pair)


def test_signature_error_is_nan_where_a_zero_column_meets_a_nan():
    """A nan in one column decides, though the other column is zero in both signatures (a float 0 / 0 before)."""
    zeros = np.zeros(3)
    a, b = (ms.Signature(range(3), zeros, kappa_s, ms.Scheme.EQ2, ms.NeighborhoodSpec())
            for kappa_s in ([1.0, np.nan, 2.0], [1.0, 1.0, 2.0]))
    assert math.isnan(ms.signature_max_error(a, b)) and math.isnan(ms.signature_max_error(b, a))


def joint_corpus():
    """The affine equivalence corpus plus larger seeded meshes, open and closed, of 20 to 400 points.

    Between them, their windows coincide, hold a collinear triple, are
    ill-conditioned (the combs' four nearly collinear points), and fit
    ellipses, hyperbolas and parabolas.
    """
    rng = np.random.default_rng(61)
    out = list(EQUIVALENCE_MESHES)
    for k in range(12):
        closed, n = k % 2 == 1, int(rng.integers(20, 401))
        s = np.linspace(-1.0, 1.0, n, endpoint=not closed)
        kind = k % 6 // 2
        if kind == 0:
            t = np.pi * s if closed else rng.uniform(0.0, 2.0 * np.pi) + rng.uniform(0.5, 1.0) * np.pi * s
            pts = np.column_stack([rng.uniform(0.5, 3.0) * np.cos(t), rng.uniform(0.5, 3.0) * np.sin(t)])
        elif kind == 1:
            pts = np.column_stack([np.cosh(2.0 * s), np.sinh(2.0 * s)])
        else:
            pts = np.column_stack([s, s * s])
        if k % 4 == 3:
            pts = pts + rng.normal(scale=1e-6, size=pts.shape)
        out.append(ms.Mesh(pts @ unimodular(rng).T + rng.uniform(-5.0, 5.0, size=2), closed=closed))
    for k in range(4):
        # strongly anisotropic clouds: collinear windows, and windows of design condition up to the 1e17s
        cloud = rng.normal(size=(300, 2)) * [1e5, 1e-6] * 10.0 ** rng.uniform(-1.0, 1.0, size=(300, 1))
        out.append(ms.Mesh(cloud, closed=k % 2 == 1))
        # every fifth point off a line, with 3e-11 noise: windows of four nearly collinear points,
        # of design condition 1e11 to 2e12
        comb = np.where(np.arange(41) % 5 == 0, 0.3, 0.0) + 3e-11 * rng.normal(size=41)
        out.append(ms.Mesh(np.column_stack([np.linspace(-1.0, 1.0, 41), comb])))
    return out


def block_bits(blk):
    return [encode(getattr(blk, name)) for name in blk.__slots__ if name != "fit_errors"] + [blk.fit_errors]


class TestJointBlocks:
    """A block built together with other meshes' blocks equals the mesh's own build bit for bit."""

    def test_joint_equals_solo(self):
        corpus = joint_corpus()
        solo = [block_bits(affine._block(fresh(m))) for m in corpus]
        rng = np.random.default_rng(62)
        order, k = rng.permutation(len(corpus)).tolist(), 0
        while k < len(order):
            group = order[k : k + int(rng.integers(2, 6))]
            k += len(group)
            meshes = [fresh(corpus[j]) for j in group]
            affine._block(meshes[-1])  # a mesh that already has its block keeps it
            for j, m, blk in zip(group, meshes, affine.build_blocks(*meshes, meshes[0])):
                assert block_bits(blk) == solo[j], f"corpus mesh {j}"
                assert m._derived["affine"] is blk

    def test_corpus_reaches_every_kind_of_row(self):
        blocks = affine.build_blocks(*(fresh(m) for m in joint_corpus()))
        tails = {msg.split(" ")[-1] for blk in blocks for msg in blk.fit_errors.values()}
        assert tails == {"coincide", "collinear"}
        assert all(np.isnan(blk.coef[~blk.fitted]).all() for blk in blocks)  # no window, or a degenerate one
        # the converse: a window that passes the fit's two screens has one conic, and it is finite
        assert all(np.isfinite(np.column_stack([blk.coef, blk.S, blk.F])[blk.fitted]).all() for blk in blocks)
        tol = affine.PARABOLIC_TOL
        kinds = [(blk.kappa_ok & (np.abs(blk.kappa) <= tol), blk.kappa_ok & (blk.kappa > tol),
                  blk.kappa_ok & (blk.kappa < -tol)) for blk in blocks]
        assert all(any(row[j].any() for row in kinds) for j in range(3))

    def test_a_joint_block_keeps_none_of_the_other_meshes_rows(self):
        a, b = fresh(gen.ellipse_mesh(1000, 2.0, 1.0)), fresh(arc_pair()[0])
        blk = affine.build_blocks(a, b)[1]
        del a
        gc.collect()
        for name in blk.__slots__:
            if name != "fit_errors":
                array = getattr(blk, name)
                assert array.base is None and len(array) == b.n, name

    def test_the_same_mesh_twice_gets_one_block(self):
        m = fresh(arc_pair()[0])
        first, second = affine.build_blocks(m, m)
        assert first is second is affine._block(m)

    @pytest.mark.parametrize("variant", ["thm5.7", "thm5.8", "cor5.9"])
    def test_each_sa_rule_fits_a_fresh_pair_once(self, monkeypatch, variant):
        calls, fit = [], affine._fit
        monkeypatch.setattr(affine, "_fit", lambda pts: calls.append(len(pts)) or fit(pts))
        m1, m2 = (fresh(m) for m in arc_pair())
        assert ms.decide_affine(m1, m2, variant).congruent
        assert calls == [(m1.n - 4) + (m2.n - 4)]

    def test_a_pair_that_is_not_fine_builds_no_block(self, monkeypatch):
        calls, fit = [], affine._fit
        monkeypatch.setattr(affine, "_fit", lambda pts: calls.append(len(pts)) or fit(pts))
        m1 = gen.ellipse_mesh(6, 2.0, 1.0, step=1.1, closed=False)
        m2 = ms.Mesh(ms.random_motion(ms.Group.SA, 4).apply(m1.points))
        assert ms.decide_affine(m1, m2, "cor5.9").reason == congruence._NOT_FINE
        assert calls == []
        assert "affine" not in m1._derived and "affine" not in m2._derived
