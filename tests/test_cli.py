import json

import numpy as np
import pytest

import meshsig as ms
from meshsig import generators as gen, meshio
from meshsig.cli import main


def write_circle(path, n=16, radius=1.0):
    mesh = gen.circle_mesh(n, radius=radius)
    meshio.write_mesh_csv(mesh, path)
    return mesh


class TestMeshIO:
    def test_csv_roundtrip(self, tmp_path):
        mesh = gen.random_ordinary_mesh(np.random.default_rng(53), 9)
        path = tmp_path / "m.csv"
        meshio.write_mesh_csv(mesh, path)
        back = meshio.read_mesh_csv(path)
        np.testing.assert_array_equal(back.points, mesh.points)

    def test_csv_header_and_comments(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("x,y\n# a comment\n0,0\n1,0 # trailing\n2,1\n")
        mesh = meshio.read_mesh_csv(path)
        assert mesh.n == 3

    def test_csv_error_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,0\n1,zzz\n2,1\n")
        with pytest.raises(meshio.MeshParseError, match="line 2"):
            meshio.read_mesh_csv(path)
        path.write_text("0,0\n1,0,3\n")
        with pytest.raises(meshio.MeshParseError, match="two fields"):
            meshio.read_mesh_csv(path)

    def test_csv_coordinates_are_float_of_each_field(self, tmp_path):
        pairs = [(" 1.5 ", "-2e-3"), ("1_000.25", "3E+2"), ("\t0.1", " 7 "), (".5", "-0.0"),
                 ("1e-320", "12.345678901234567890123"), ("-1_2.5e-1_0", "4.0")]
        rows = [f"{a},{b}" for a, b in pairs]
        text = "\r\n".join([
            "x , y",
            "name,label  # a second header row",
            "# a full-line comment",
            "",
            rows[0],
            "   ",
            rows[1] + "# trailing",
            rows[2] + "  # trailing, with a comma",
            "\t",
            *rows[3:],
            "",
        ])
        path = tmp_path / "m.csv"
        path.write_bytes(text.encode())
        want = np.array([[float(a), float(b)] for a, b in pairs])
        got = meshio.read_mesh_csv(path).points
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("text, message", [
        ("0,0\n1,0,3\n", "bad.csv, line 2: expected two fields, got 3"),
        ("x,y,z\n0,0\n", "bad.csv, line 1: expected two fields, got 3"),
        ("x,y\n# note\n0,0\n\n1,zzz\n2,1\n", "bad.csv, line 5: non-numeric field '1' or 'zzz'"),
        ("0,0\nx,y\n", "bad.csv, line 2: non-numeric field 'x' or 'y'"),
        ("x,1\n0,0\n", "bad.csv, line 1: non-numeric field 'x' or '1'"),
        ("0,0\n1,zzz\n2,1,5\n", "bad.csv, line 2: non-numeric field '1' or 'zzz'"),
        ("", "bad.csv: no data rows"),
        ("x,y\n# only a header\n", "bad.csv: no data rows"),
        ("0,0\n0,0\n1,0\n", "bad.csv: successive points 0 and 1 coincide"),
        ("0,0\n1,nan\n2,1\n", "bad.csv: non-finite coordinates at point 1"),
        ("0,0\n1,0\n", "bad.csv: mesh needs at least 3 points, got 2"),
    ])
    def test_csv_error_messages(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(meshio.MeshParseError) as info:
            meshio.read_mesh_csv(path)
        assert str(info.value) == message

    def test_json_roundtrip(self, tmp_path):
        mesh = gen.circle_mesh(8)
        path = tmp_path / "m.json"
        meshio.write_mesh_json(mesh, path)
        back = meshio.read_mesh_json(path)
        assert back.closed
        np.testing.assert_array_equal(back.points, mesh.points)

    def test_json_errors_anchored(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"points": [[0,0],[1],[2,1]]}')
        with pytest.raises(meshio.MeshParseError, match=r"points\[1\]"):
            meshio.read_mesh_json(path)

    def test_signature_csv_bit_roundtrip(self, tmp_path):
        mesh = gen.random_equally_spaced_mesh(np.random.default_rng(54), 12)
        sig = ms.se_signature(mesh, ms.Scheme.EQ2)
        path = tmp_path / "sig.csv"
        meshio.write_signature_csv(sig, path, provenance={"spacing-tol": 1e-6})
        back = meshio.read_signature_csv(path)
        assert back.scheme is sig.scheme
        assert back.spec == sig.spec
        assert back.points == sig.points  # bit-for-bit at 17 significant digits

    def test_svg_deterministic(self, tmp_path):
        mesh = gen.circle_mesh(12)
        sig = ms.se_signature(mesh, ms.Scheme.EQ2)
        svg1 = meshio.signature_svg(sig)
        svg2 = meshio.signature_svg(sig)
        assert svg1 == svg2
        assert "<polyline" in svg1 and "kappa_s" in svg1


class TestSignatureCommand:
    def test_circle_rows(self, tmp_path, capsys):
        path = tmp_path / "circle.csv"
        write_circle(path)
        out = tmp_path / "sig.csv"
        code = main(["signature", str(path), "--group", "se", "--scheme", "2",
                     "--closed", "--out", str(out)])
        assert code == 0
        sig = meshio.read_signature_csv(out)
        np.testing.assert_allclose(sig.kappas, 1.0, rtol=1e-12)
        assert np.abs(sig.kappa_s).max() <= 1e-9

    def test_parabola_sa_rows(self, tmp_path):
        mesh = gen.parabola_mesh(12)
        path = tmp_path / "parabola.json"
        meshio.write_mesh_json(mesh, path)
        out = tmp_path / "sig.csv"
        code = main(["signature", str(path), "--group", "sa", "--scheme", "6",
                     "--out", str(out)])
        assert code == 0
        sig = meshio.read_signature_csv(out)
        assert np.abs(sig.kappas).max() <= 1e-9

    def test_ex3_byte_identical_outputs(self, tmp_path):
        code = main(["counterexample", "--id", "ex3", "--outdir", str(tmp_path)])
        assert code == 0
        out_a, out_b = tmp_path / "a.sig", tmp_path / "b.sig"
        for src, dst in (("ex3_a.csv", out_a), ("ex3_b.csv", out_b)):
            code = main(["signature", str(tmp_path / src), "--group", "se",
                         "--scheme", "2", "--out", str(dst)])
            assert code == 0
        rows_a = [l for l in out_a.read_text().splitlines() if not l.startswith("#")]
        rows_b = [l for l in out_b.read_text().splitlines() if not l.startswith("#")]
        assert rows_a == rows_b

    def test_stdout_and_file_rows_are_the_17_digit_rows(self, tmp_path, capsys):
        mesh = gen.random_equally_spaced_mesh(np.random.default_rng(61), 12)
        path, out = tmp_path / "m.csv", tmp_path / "s.csv"
        meshio.write_mesh_csv(mesh, path)
        assert main(["signature", str(path), "--group", "se", "--scheme", "2"]) == 0
        stdout = capsys.readouterr().out
        assert main(["signature", str(path), "--group", "se", "--scheme", "2", "--out", str(out)]) == 0
        rows = [line for line in out.read_text().splitlines() if not line.startswith("#")]
        sig = ms.se_signature(meshio.read_mesh_csv(path), ms.Scheme.EQ2)
        expected = [meshio.SIGNATURE_HEADER] + [
            f"{p.index},{format(p.kappa, '.17g')},{format(p.kappa_s, '.17g')},eq2,1,1" for p in sig.points
        ]
        assert stdout == "".join(line + "\n" for line in expected)
        assert rows == expected

    def test_group_scheme_mismatch(self, tmp_path):
        path = tmp_path / "c.csv"
        write_circle(path)
        assert main(["signature", str(path), "--group", "se", "--scheme", "6"]) == 2

    def test_spacing_mismatch_exit_code(self, tmp_path):
        mesh = gen.random_unequally_spaced_mesh(np.random.default_rng(55), 10)
        path = tmp_path / "u.csv"
        meshio.write_mesh_csv(mesh, path)
        assert main(["signature", str(path), "--group", "se", "--scheme", "2"]) == 3

    def test_parse_error_exit_code(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n3,oops\n")
        assert main(["signature", str(path), "--group", "se", "--scheme", "2"]) == 2

    def test_plot_written(self, tmp_path):
        path = tmp_path / "c.csv"
        write_circle(path)
        svg = tmp_path / "sig.svg"
        code = main(["signature", str(path), "--group", "se", "--scheme", "2",
                     "--closed", "--plot", str(svg), "--out", str(tmp_path / "s.csv")])
        assert code == 0
        assert svg.read_text().startswith("<svg")

    def test_open_mesh_truncation_note(self, tmp_path, capsys):
        mesh = gen.random_equally_spaced_mesh(np.random.default_rng(60), 10)
        path = tmp_path / "open.csv"
        meshio.write_mesh_csv(mesh, path)
        assert main(["signature", str(path), "--group", "se", "--scheme", "2",
                     "--out", str(tmp_path / "s.csv")]) == 0
        assert "truncate" in capsys.readouterr().err

    def test_custom_stencil_flags(self, tmp_path):
        path = tmp_path / "c.csv"
        write_circle(path, n=14, radius=2.0)
        out = tmp_path / "s.csv"
        assert main(["signature", str(path), "--group", "se", "--scheme", "3",
                     "--m1", "2", "--m2", "1", "--closed", "--out", str(out)]) == 0
        sig = meshio.read_signature_csv(out)
        assert sig.spec == ms.NeighborhoodSpec(2, 1)
        np.testing.assert_allclose(sig.kappas, 0.5, rtol=1e-9)

    def test_signature_invariant_under_motion_via_cli(self, tmp_path):
        mesh = gen.random_equally_spaced_mesh(np.random.default_rng(56), 12)
        moved = ms.apply_motion(ms.random_motion(ms.Group.SE, 3), mesh)
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        meshio.write_mesh_csv(mesh, pa)
        meshio.write_mesh_csv(moved, pb)
        oa, ob = tmp_path / "a.sig", tmp_path / "b.sig"
        for p, o in ((pa, oa), (pb, ob)):
            assert main(["signature", str(p), "--group", "se", "--scheme", "2",
                         "--out", str(o)]) == 0
        sa = meshio.read_signature_csv(oa)
        sb = meshio.read_signature_csv(ob)
        assert ms.signature_max_error(sa, sb) <= 1e-9


class TestCongruentCommand:
    def test_ex2_exit_codes(self, tmp_path):
        assert main(["counterexample", "--id", "ex2", "--outdir", str(tmp_path)]) == 0
        a, b = str(tmp_path / "ex2_a.csv"), str(tmp_path / "ex2_b.csv")
        assert main(["congruent", a, b, "--group", "se"]) == 1
        assert main(["congruent", a, b, "--group", "e"]) == 0

    def test_ex3_oracle_beats_equal_signatures(self, tmp_path):
        assert main(["counterexample", "--id", "ex3", "--outdir", str(tmp_path)]) == 0
        a, b = str(tmp_path / "ex3_a.csv"), str(tmp_path / "ex3_b.csv")
        assert main(["congruent", a, b, "--via", "oracle", "--group", "se"]) == 1
        assert main(["congruent", a, b, "--via", "thm4.9", "--group", "se"]) == 4

    def test_sa_rule_via_cli(self, tmp_path):
        mesh = gen.random_ellipse_arc_mesh(np.random.default_rng(57), 12)
        moved = ms.apply_motion(ms.random_motion(ms.Group.SA, 4), mesh)
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        meshio.write_mesh_csv(mesh, pa)
        meshio.write_mesh_csv(moved, pb)
        assert main(["congruent", str(pa), str(pb), "--group", "sa", "--via", "thm5.7"]) == 0

    def test_right_tol_reaches_cor59(self, tmp_path, capsys):
        # the 16-gon's angles are 1.18 rad off a right angle: a band of 1.2 rad makes them right
        mesh = gen.circle_mesh(16)
        moved = ms.apply_motion(ms.random_motion(ms.Group.SA, 4), mesh)
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        meshio.write_mesh_csv(mesh, pa)
        meshio.write_mesh_csv(moved, pb)
        args = ["congruent", str(pa), str(pb), "--closed", "--group", "sa", "--via", "cor5.9"]
        assert main(args) == 0
        capsys.readouterr()
        assert main([*args, "--right-tol", "1.2"]) == 4
        assert "reason: a mesh is not fine" in capsys.readouterr().out

    def test_rule_group_mismatch_exit_code(self, tmp_path):
        path = tmp_path / "c.csv"
        write_circle(path)
        assert main(["congruent", str(path), str(path), "--group", "se",
                     "--via", "thm5.7"]) == 5

    def test_witness_printed(self, tmp_path, capsys):
        mesh = gen.random_ordinary_mesh(np.random.default_rng(58), 8)
        moved = ms.apply_motion(ms.random_motion(ms.Group.SE, 9), mesh)
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        meshio.write_mesh_csv(mesh, pa)
        meshio.write_mesh_csv(moved, pb)
        assert main(["congruent", str(pa), str(pb), "--group", "se"]) == 0
        out = capsys.readouterr().out
        assert "witness linear" in out and "witness translation" in out

    def test_cyclic_mode_via_cli(self, tmp_path):
        mesh = gen.random_closed_mesh(np.random.default_rng(59), 10)
        shifted = ms.Mesh(np.roll(mesh.points, 3, axis=0), closed=True)
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        meshio.write_mesh_json(mesh, pa)
        meshio.write_mesh_json(shifted, pb)
        assert main(["congruent", str(pa), str(pb), "--group", "se"]) == 1
        assert main(["congruent", str(pa), str(pb), "--group", "se",
                     "--mode", "cyclic"]) == 0


class TestOtherCommands:
    def test_counterexample_report(self, tmp_path):
        assert main(["counterexample", "--id", "ex1", "--outdir", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "ex1_report.json").read_text())
        assert report["expected"]["align_se"] == "not-congruent"
        assert (tmp_path / "ex1_a.csv").exists()

    def test_host_traversal_output(self, capsys):
        assert main(["host", "--n", "10", "--m", "4"]) == 0
        out = capsys.readouterr().out
        assert "incomplete after 5 steps" in out
        assert main(["host", "--n", "10", "--m", "3"]) == 0
        out = capsys.readouterr().out
        assert "complete" in out

    def test_host_count_output(self, capsys):
        assert main(["host", "--n", "10", "--count"]) == 0
        out = capsys.readouterr().out
        assert "[1, 3, 7, 9]" in out and "totient 4" in out

    def test_selfcheck(self, capsys):
        assert main(["selfcheck", "--seed", "7", "--trials", "5"]) == 0
        out = capsys.readouterr().out
        assert "total failures: 0" in out

    def test_selfcheck_two_hundred_trials(self, capsys):
        assert main(["selfcheck", "--seed", "7", "--trials", "200"]) == 0
        out = capsys.readouterr().out
        assert "total failures: 0" in out

    def test_bad_flags_exit_two(self):
        assert main(["congruent"]) == 2
        assert main(["signature", "nope.csv", "--group", "se", "--scheme", "12"]) == 2
