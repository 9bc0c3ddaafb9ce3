"""Library raise paths that the module tests do not reach, one test each, with the branches next to them."""

import math
import re

import numpy as np
import pytest

import meshsig as ms
from meshsig import affine, generators as gen, meshio
from meshsig.cli import main
from meshsig.errors import (
    IndexOutOfRange,
    InvalidMesh,
    InvalidStep,
    MeshParseError,
    NotOrdinary,
    WrongCurvatureSign,
    ZeroF,
)
from meshsig.geometry import SPEC11

CUSP = [(0.0, 0.0), (1.0, 0.0), (0.0, 0.0), (0.5, 1.0)]  # p[2] returns onto p[0]


class TestMesh:
    def test_shape(self):
        with pytest.raises(InvalidMesh, match=r"^expected an \(n, 2\) point array, got shape \(4, 3\)$"):
            ms.Mesh(np.zeros((4, 3)))

    def test_all_points_coincide(self):
        with pytest.raises(InvalidMesh, match="^all points coincide$"):
            ms.Mesh([(1.0, 2.0)] * 3)


class TestReadMeshJson:
    @pytest.mark.parametrize("text, message", [
        ('{"points": [', "invalid JSON at line 1: "),
        ("[[0, 0], [1, 0], [2, 1]]", 'expected an object with a "points" array'),
        ('{"points": 3}', '"points" must be an array'),
        ('{"points": [[0, 0], [1, 0]]}', "mesh needs at least 3 points, got 2"),
    ])
    def test_errors(self, tmp_path, text, message):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(MeshParseError, match="^" + re.escape("bad.json: " + message)):
            meshio.read_mesh_json(path)


class TestFineArea:
    def test_ellipse_area(self):
        t = 0.7 * np.arange(5)
        assert affine.ellipse_area(ms.fit_conic(np.column_stack([np.cos(t), np.sin(t)]))) == pytest.approx(math.pi)
        hyperbola = ms.fit_conic(np.column_stack([np.cosh(t - 1.4), np.sinh(t - 1.4)]))
        with pytest.raises(WrongCurvatureSign, match="^area defined for elliptic conics only$"):
            affine.ellipse_area(hyperbola)


def test_open_mesh_without_windows():
    """An open 4-point mesh has no two-neighborhood: its block fits no window, and every read raises IndexOutOfRange."""
    m = gen.ellipse_mesh(4, 1.6, 1.1, t0=0.4, step=0.094, closed=False)
    blk = affine._block(m)
    assert not blk.has_window.any() and blk.fit_errors == {} and np.isnan(blk.values).all()
    for i in range(4):
        with pytest.raises(IndexOutOfRange):
            ms.affine_curvature(m, i)
    assert len(affine.interior_curvatures(m)) == 0


def test_affine_interior_curvatures_raise_at_the_first_failing_center():
    # a nearly flat first window: its cubic invariant falls under ZERO_F_TOL
    t = np.array([0.2, 0.6, 1.0, 1.4, 1.8])
    flat = np.column_stack([np.cos(t), 2.6e-6 * np.sin(t)])
    bend = [[-0.8, -0.05], [-1.3, -0.4], [-1.5, -1.0], [-1.4, -1.7], [-1.0, -2.3]]
    m = ms.Mesh(np.vstack([flat, bend]) + [0.0, 0.5])
    with pytest.raises(ZeroF, match="at index 2 too small"):
        affine.interior_curvatures(m)


class TestSignatureFrontEnds:
    def test_other_groups_scheme(self):
        m = gen.circle_mesh(12)
        with pytest.raises(ValueError, match="^Scheme.EQ2 is a Euclidean scheme; use se_signature$"):
            ms.sa_signature(m, ms.Scheme.EQ2)
        with pytest.raises(ValueError, match="^Scheme.EQ6 is an equiaffine scheme; use sa_signature$"):
            ms.se_signature(m, ms.Scheme.EQ6)

    @pytest.mark.parametrize("signature, scheme", [(ms.se_signature, ms.Scheme.EQ3), (ms.sa_signature, ms.Scheme.EQ7)])
    def test_cusp(self, signature, scheme):
        with pytest.raises(NotOrdinary, match="^signature of a mesh with a cusp$"):
            signature(ms.Mesh(CUSP), scheme)


def test_oracle_and_sa_precondition_reject_a_cusp():
    m = ms.Mesh(CUSP)
    with pytest.raises(NotOrdinary, match="^alignment requires cusp-free meshes$"):
        ms.align(m, m, ms.Group.SE)
    with pytest.raises(NotOrdinary, match="^affine decision requires cusp-free meshes$"):
        ms.decide_affine(m, m)


class TestSignatureMaxError:
    def test_different_index_sets(self):
        a = ms.Signature([0, 1], [1.0, 1.0], [0.0, 0.0], ms.Scheme.EQ1, SPEC11)
        b = ms.Signature([1, 2], [1.0, 1.0], [0.0, 0.0], ms.Scheme.EQ1, SPEC11)
        with pytest.raises(ValueError, match="^signatures cover different index sets$"):
            ms.signature_max_error(a, b)

    def test_empty(self):
        empty = ms.Signature([], [], [], ms.Scheme.EQ1, SPEC11)
        assert ms.signature_max_error(empty, empty) == 0.0


@pytest.mark.parametrize("call, error, message", [
    (lambda: ms.counterexample("ex3", span_chord=3.0), ValueError, "span chord must be shorter than the big diameter"),
    (lambda: ms.counterexample("ex3", small_radius=0.1), ValueError, "edge too long for the small circle"),
    (lambda: ms.classification_meshes(0.0, 1.0), ValueError, "kappa and d_end must be positive"),
    (lambda: ms.Group.from_string("so"), ValueError, "unknown group 'so'; expected se, e, sa or abar"),
    (lambda: ms.random_motion("se", 1), ValueError, "unknown group 'se'"),
    (lambda: ms.valid_steps(1), InvalidStep, "need n >= 2, got 1"),
    (lambda: ms.totient(0), ValueError, "totient needs n >= 1, got 0"),
    (lambda: gen.ellipse_mesh(8, 2.0, 1.0, closed=False), ValueError, "open ellipse arcs need an explicit parameter step"),
])
def test_parameters_checked(call, error, message):
    with pytest.raises(error, match="^" + re.escape(message) + "$"):
        call()


class TestCliExits:
    def test_library_error(self, tmp_path, capsys):
        path = tmp_path / "zigzag.csv"
        meshio.write_mesh_csv(ms.Mesh([(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (3, 2)]), path)
        assert main(["signature", str(path), "--group", "sa", "--scheme", "7"]) == 2
        assert capsys.readouterr().err == "error: NotConvex: equiaffine signature requires a convex mesh\n"

    def test_value_error(self, tmp_path, capsys):
        path = tmp_path / "c.csv"
        meshio.write_mesh_csv(gen.circle_mesh(12), path)
        assert main(["signature", str(path), "--group", "se", "--scheme", "2", "--m1", "0"]) == 2
        assert capsys.readouterr().err == "error: neighborhood offsets must be >= 1\n"

    def test_os_error(self, tmp_path, capsys):
        assert main(["signature", str(tmp_path / "missing.csv"), "--group", "se", "--scheme", "2"]) == 2
        assert capsys.readouterr().err.startswith("error: [Errno 2] ")
