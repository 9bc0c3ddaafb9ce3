import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import meshsig as ms
from meshsig import cli, generators as gen, meshio
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
        # three commas on three rows: a count of all commas would take this file for three "x,y" rows
        ("0,0\n1\n2,3,4\n", "bad.csv, line 2: expected two fields, got 1"),
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
        # "closed" is a JSON boolean: a string, number or null is no flag
        for closed in ('"false"', "0", "1", "null"):
            path.write_text('{"points": [[0,0],[1,0],[2,1]], "closed": %s}' % closed)
            with pytest.raises(meshio.MeshParseError, match=f'^bad.json: "closed" must be true or false, got {closed}$'):
                meshio.read_mesh_json(path)
            assert main(["signature", str(path), "--group", "se", "--scheme", "3"]) == 2
        path.write_text('{"points": [[0,0],[1,0],[2,1]], "closed": false}')
        assert not meshio.read_mesh_json(path).closed
        assert meshio.read_mesh_json(path, closed=True).closed

    def test_signature_csv_bit_roundtrip(self, tmp_path):
        mesh = gen.random_equally_spaced_mesh(np.random.default_rng(54), 12)
        sig = ms.se_signature(mesh, ms.Scheme.EQ2)
        path = tmp_path / "sig.csv"
        meshio.write_signature_csv(sig, path, provenance={"spacing-tol": 1e-6})
        back = meshio.read_signature_csv(path)
        assert back.scheme is sig.scheme
        assert back.spec == sig.spec
        assert back.points == sig.points  # bit-for-bit at 17 significant digits

    def test_signature_csv_mixed_schemes_rejected(self, tmp_path):
        path = tmp_path / "mixed.csv"
        path.write_text(f"{meshio.SIGNATURE_HEADER}\n0,1,0,eq2,1,1\n# note\n1,1,0,eq2,1,1\n2,1,0,eq3,2,1\n")
        with pytest.raises(meshio.MeshParseError) as info:
            meshio.read_signature_csv(path)
        assert str(info.value) == "mixed.csv, line 5: scheme and stencil eq3,2,1 differ from eq2,1,1 on line 2"
        path.write_text("0,1,0,eq2,1,1\n1,1,0,eq2,1,2\n")
        with pytest.raises(meshio.MeshParseError, match="line 2: scheme and stencil eq2,1,2 differ"):
            meshio.read_signature_csv(path)

    def test_signature_csv_same_kind_spelled_differently(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("0,1,0,eq2,1,1\n1,1,0,eq2, 1,01\n")
        sig = meshio.read_signature_csv(path)
        assert sig.scheme is ms.Scheme.EQ2 and sig.spec == ms.NeighborhoodSpec(1, 1)
        assert sig.indices.tolist() == [0, 1]

    @pytest.mark.parametrize("bad_row, message", [
        ("2,1,0,eq2,1", "expected 6 fields"),
        ("x,1,0,eq2,1,1", "invalid literal for int() with base 10: 'x'"),
        ("2,1.5.5,0,eq2,1,1", "could not convert string to float: '1.5.5'"),
        ("2,1,0,eq9,1,1", "scheme must be 1..8, got 9"),
        ("2,1,0,eqx,1,1", "invalid literal for int() with base 10: 'x'"),
        ("2,1,0,eq2,0,1", "neighborhood offsets must be >= 1"),
    ])
    @pytest.mark.parametrize("k", [2, 4])
    def test_signature_csv_bad_field_names_its_line(self, tmp_path, bad_row, message, k):
        rows = [meshio.SIGNATURE_HEADER, "0,1,0,eq2,1,1", "1,1,0,eq2,1,1", "3,1,0,eq2,1,1"]
        rows.insert(k - 1, bad_row)
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(meshio.MeshParseError) as info:
            meshio.read_signature_csv(path)
        assert str(info.value) == f"bad.csv, line {k}: {message}"

    def test_signature_csv_without_rows(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text(f"# scheme: eq2\n{meshio.SIGNATURE_HEADER}\n")
        with pytest.raises(meshio.MeshParseError, match="empty.csv: no signature rows"):
            meshio.read_signature_csv(path)

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

    def test_stencil_flags_ignored_by_equiaffine_schemes(self, tmp_path, capsys):
        path = tmp_path / "c.csv"
        write_circle(path, n=16)
        plain, flagged = tmp_path / "plain.csv", tmp_path / "flagged.csv"
        args = ["signature", str(path), "--group", "sa", "--scheme", "6", "--closed", "--out"]
        assert main(args + [str(plain)]) == 0
        assert "--m1/--m2" not in capsys.readouterr().err
        assert main(args + [str(flagged), "--m1", "2"]) == 0
        assert "note: --m1/--m2 apply to Euclidean schemes only; ignored" in capsys.readouterr().err
        assert flagged.read_text() == plain.read_text()

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

    def test_entry_exits_with_the_code_of_main(self, tmp_path):
        # `entry` is the console script's target; `python -m meshsig.cli` calls it in a fresh process
        env = {**os.environ, "PYTHONPATH": str(Path(ms.__file__).parents[1])}

        def run(*argv):
            return subprocess.run([sys.executable, "-m", "meshsig.cli", *argv], cwd=tmp_path, env=env,
                                  capture_output=True, text=True)

        done = run("host", "--n", "7", "--count")
        assert done.returncode == 0 and "count: 6 (totient 6)" in done.stdout
        assert run("signature", "nope.csv", "--group", "se", "--scheme", "12").returncode == 2


def reference_signature_text(sig, comments=()):
    """A signature CSV as ``format(v, ".17g")`` wrote it, frozen as the byte reference of the writers."""
    tail = f"{sig.scheme.label},{sig.spec.m1},{sig.spec.m2}"
    rows = [f"{i},{format(k, '.17g')},{format(ks, '.17g')},{tail}"
            for i, k, ks in zip(sig.indices.tolist(), sig.kappas.tolist(), sig.kappa_s.tolist())]
    return "".join(line + "\n" for line in [*comments, meshio.SIGNATURE_HEADER, *rows])


def reference_mesh_text(mesh):
    rows = [f"{format(float(x), '.17g')},{format(float(y), '.17g')}" for x, y in mesh.points]
    header = [f"# label: {mesh.label}", f"# closed: {str(mesh.closed).lower()}", "x,y"]
    return "".join(line + "\n" for line in header + rows)


def outline_1600():
    """A closed 1600-point outline of unequal steps; its eq4 signature has one row per point."""
    walk = gen.random_unequally_spaced_mesh(np.random.default_rng(62), 1600)
    return ms.Mesh(walk.points, closed=True, label="outline")


class TestWriterBytes:
    EDGE_VALUES = [-0.0, 5e-324, 1e308, 1 / 3, 2.0, -7.0, 1e16, 1e17, 123456789.0,
                   1.5e-7, -3.25e-300, 2.0 ** -1074 * 3, 0.1, -1e-5]

    def test_edge_values_in_a_signature(self, tmp_path):
        values = self.EDGE_VALUES
        sig = ms.Signature(range(len(values)), values, values[::-1], ms.Scheme.EQ3, ms.NeighborhoodSpec(2, 1))
        path = tmp_path / "s.csv"
        meshio.write_signature_csv(sig, path, provenance={"spacing-tol": 1e-6})
        want = reference_signature_text(sig, ["# spacing-tol: 1e-06"])
        assert path.read_bytes() == want.encode()
        assert want.splitlines()[2:6] == [
            "0,-0,-1.0000000000000001e-05,eq3,2,1",
            "1,4.9406564584124654e-324,0.10000000000000001,eq3,2,1",
            "2,1e+308,1.4821969375237396e-323,eq3,2,1",
            "3,0.33333333333333331,-3.2499999999999999e-300,eq3,2,1",
        ]

    def test_edge_values_in_a_mesh(self, tmp_path):
        values = [v for v in self.EDGE_VALUES if abs(v) < 1e150]  # the diameter of 1e308 overflows
        mesh = ms.Mesh(np.column_stack([1e20 * np.arange(len(values)), values]), closed=False, label="edge")
        path = tmp_path / "m.csv"
        meshio.write_mesh_csv(mesh, path)
        assert path.read_bytes() == reference_mesh_text(mesh).encode()
        assert path.read_text().splitlines()[3:5] == ["0,-0", "1e+20,4.9406564584124654e-324"]

    def test_1600_row_signature_file_and_stdout(self, tmp_path, capsys):
        mesh = outline_1600()
        sig = ms.se_signature(mesh, ms.Scheme.EQ4)
        assert len(sig) == 1600
        path = tmp_path / "s.csv"
        meshio.write_signature_csv(sig, path)
        assert path.read_bytes() == reference_signature_text(sig).encode()

        src = tmp_path / "outline.csv"
        meshio.write_mesh_csv(mesh, src)
        assert src.read_bytes() == reference_mesh_text(mesh).encode()
        capsys.readouterr()
        assert main(["signature", str(src), "--group", "se", "--scheme", "4", "--closed"]) == 0
        from_file = ms.se_signature(meshio.read_mesh_csv(src, closed=True), ms.Scheme.EQ4)
        assert capsys.readouterr().out == reference_signature_text(from_file)


class TestParserCache:
    @pytest.fixture(autouse=True)
    def fresh_parser(self):
        cli._parser.cache_clear()
        yield
        cli._parser.cache_clear()

    def test_built_once_per_process(self, monkeypatch, capsys):
        built = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
        for n in (7, 8, 9):
            assert main(["host", "--n", str(n), "--count"]) == 0
        assert len(built) == 1

    def test_closed_flag_does_not_leak(self, tmp_path, capsys):
        path = tmp_path / "c.csv"
        write_circle(path, n=12)
        assert main(["signature", str(path), "--group", "se", "--scheme", "2", "--closed"]) == 0
        closed = capsys.readouterr()
        assert main(["signature", str(path), "--group", "se", "--scheme", "2"]) == 0
        opened = capsys.readouterr()
        assert len(closed.out.splitlines()) == 13 and closed.err == ""
        assert len(opened.out.splitlines()) < 13 and "truncate" in opened.err

    def test_out_flag_does_not_leak(self, tmp_path, capsys):
        path, out = tmp_path / "c.csv", tmp_path / "s.csv"
        write_circle(path)
        assert main(["signature", str(path), "--group", "se", "--scheme", "2", "--closed", "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        out.unlink()
        assert main(["signature", str(path), "--group", "se", "--scheme", "2", "--closed"]) == 0
        assert capsys.readouterr().out.startswith(meshio.SIGNATURE_HEADER + "\n")
        assert not out.exists()

    def test_parse_error_on_repeated_calls(self, tmp_path, capsys):
        path = tmp_path / "c.csv"
        write_circle(path)
        bad = ["signature", str(path), "--group", "se", "--scheme", "12"]
        assert main(bad) == 2
        assert main(bad) == 2
        assert main(["signature", str(path), "--group", "se"]) == 2
        assert main(["signature", str(path), "--group", "se", "--scheme", "2", "--closed"]) == 0

    def test_help_follows_columns_set_after_the_first_build(self, monkeypatch, capsys):
        assert main(["host", "--n", "7", "--count"]) == 0
        helps = {}
        for columns in (50, 120):
            monkeypatch.setenv("COLUMNS", str(columns))
            capsys.readouterr()
            assert main(["signature", "--help"]) == 0
            helps[columns] = capsys.readouterr().out
            fresh = cli.build_parser()._subparsers._group_actions[0].choices["signature"]
            assert helps[columns] == fresh.format_help()
        assert max(map(len, helps[50].splitlines())) < max(map(len, helps[120].splitlines()))
