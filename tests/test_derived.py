"""The per-mesh store of derived data: read-only, built once, and safe under concurrent first use."""

import sys
import threading

import numpy as np
import pytest

import meshsig as ms
from meshsig import affine, congruence, euclidean, geometry
from meshsig import generators as gen
from meshsig.congruence import MatchMode
from meshsig.errors import MeshTooShort, SchemeSpacingMismatch, ZeroF

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
        out += [outcome(geometry.triple_angles, m, spec), outcome(euclidean.interior_curvatures, m, spec)]
        out += [outcome(ms.se_signature, m, scheme, spec) for scheme in list(ms.Scheme)[:4]]
    out += [outcome(ms.sa_signature, m, scheme) for scheme in list(ms.Scheme)[4:]]
    return out


def align_outcomes(m1, m2):
    modes = list(MatchMode) if m1.closed else [MatchMode.INDEX_ALIGNED]
    return [outcome(ms.align, m1, m2, group, mode) for group in ms.Group for mode in modes]


def every_outcome(m1, m2):
    return rule_outcomes(m1, m2) + mesh_outcomes(m1) + mesh_outcomes(m2) + align_outcomes(m1, m2)


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
            handed_out += [*geometry.triple_angles(m, spec), euclidean.interior_curvatures(m, spec)]
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

        monkeypatch.setattr(euclidean, "_curvatures", counted(euclidean._curvatures))
        monkeypatch.setattr(geometry, "_vertex_angles", counted(geometry._vertex_angles))
        pairs = [tuple(fresh(m) for m in pair) for pair in PAIRS]
        first = [rule_outcomes(*pair) for pair in pairs]
        assert set(calls) == {"_curvatures", "_vertex_angles"}
        calls.clear()
        assert [rule_outcomes(*pair) for pair in pairs] == first
        assert calls == []

    def test_store_stays_bounded(self):
        m1, m2 = (fresh(m) for m in PAIRS[1])
        every_outcome(m1, m2)
        keys = set(m1._derived)
        for tol in (1e-3, 1e-5, 0.3):
            ms.is_fine(m1, tol)
            ms.is_equally_spaced(m1, tol)
            congruence._decide("thm4.14", m1, m2, right_tol=tol, sig_tol=tol)
        assert set(m1._derived) == keys


def test_concurrent_first_uses_agree_with_serial_runs():
    """Eight threads (more than the cores) race on the first uses of the same meshes' entries."""
    expected = [every_outcome(*(fresh(m) for m in pair)) for pair in PAIRS]
    shared = [tuple(fresh(m) for m in pair) for pair in PAIRS]
    threads_n = 8
    start = threading.Barrier(threads_n)
    results, errors = [None] * threads_n, []

    def work(k):
        try:
            start.wait(timeout=30)
            results[k] = [every_outcome(*pair) for pair in shared]
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


class TestSignatureColumns:
    """Each scheme's SA-signature columns are one derived entry; the spacing check stays per call."""

    def test_built_once_per_mesh_and_scheme(self, monkeypatch):
        calls = []
        build, block = affine._signature_columns, affine._Block
        monkeypatch.setattr(affine, "_signature_columns", lambda m, s: calls.append(s) or build(m, s))
        monkeypatch.setattr(affine, "_Block", lambda m: calls.append("block") or block(m))
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

    def test_stored_columns_are_read_only(self):
        m = fresh(arc_pair()[0])
        for scheme in list(ms.Scheme)[4:]:
            sig = ms.sa_signature(m, scheme)
            rows, kappa, denom = m._derived[("sa", scheme)]
            assert list(rows) == sig.indices.tolist()
            for a in (kappa, denom):
                assert not a.flags.writeable
                with pytest.raises(ValueError):
                    a[...] = 0

    def test_spacing_checked_on_every_call(self):
        m = uneven_arc()
        loose = encode(ms.sa_signature(m, ms.Scheme.EQ6, spacing_tol=1e-2))
        with pytest.raises(SchemeSpacingMismatch, match="eq6 requires equal arc lengths"):
            ms.sa_signature(m, ms.Scheme.EQ6)
        with pytest.raises(SchemeSpacingMismatch, match="not equally spaced"):
            ms.sa_signature(m, ms.Scheme.EQ6, spacing="euclidean", spacing_tol=1e-2)
        assert encode(ms.sa_signature(m, ms.Scheme.EQ6, spacing_tol=1e-2)) == loose

    @pytest.mark.parametrize("mesh, scheme, error", [
        (flat_window_mesh(), ms.Scheme.EQ7, ZeroF),
        (gen.ellipse_mesh(8, 2.0, 1.0, step=0.3, closed=False), ms.Scheme.EQ8, MeshTooShort),
    ], ids=["row-fails", "no-rows"])
    def test_a_raising_build_stores_nothing(self, mesh, scheme, error):
        m = fresh(mesh)
        with pytest.raises(error) as first:
            ms.sa_signature(m, scheme)
        assert ("sa", scheme) not in m._derived
        with pytest.raises(error) as second:
            ms.sa_signature(m, scheme)
        assert str(second.value) == str(first.value)
