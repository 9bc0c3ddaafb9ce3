"""meshsig and the exact references of the tests run on numpy and the standard library alone.

CI installs only numpy and pytest, so an import of an undeclared package
would pass on a machine that happens to have it and fail there.
"""

import os
import subprocess
import sys
from pathlib import Path

UNDECLARED = ("scipy", "sympy", "mpmath", "hypothesis")

SCRIPT = f"""
import sys


class Undeclared:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] in {UNDECLARED!r}:
            raise ImportError(f"{{name}} is not a declared dependency")


sys.meta_path.insert(0, Undeclared())

import exact
import meshsig
from meshsig import cli, meshio, selfcheck
from meshsig import generators as gen

window = gen.ellipse_mesh(5, 2.0, 1.0, step=0.4).points
assert len(exact.unit_conic(exact.conic(window))) == 6
S, F = exact.invariants(exact.conic(window))
assert abs(float(exact.decimal(S) / exact.cbrt(F) ** 2) - 2.0 ** (-2 / 3)) < 1e-9
assert cli.main(["host", "--n", "10", "--m", "3"]) == 0
"""


def test_imports_without_undeclared_packages():
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tests.parent / "src"), str(tests)]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
