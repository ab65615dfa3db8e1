"""Cold start: no CLI command imports sympy, factoring over Q included, and
neither does reading a curve's ``irreducible_q``; a command that factors
nothing does not load ``factor``.  The exact layers import
neither sympy nor mpmath, and every module imports cleanly as the first
module of the package."""

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

SCRIPT = r'''
import contextlib, io, sys
import mpmath
from orbitforge.cli import main
from orbitforge.curves import PlaneCurve
from orbitforge.dynamics import PolyDS
from orbitforge.exact import BiPoly, Poly
prec = mpmath.mp.prec
assert "sympy" not in sys.modules, "import orbitforge.cli loaded sympy"

def run(argv):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(argv)
    assert code == 0, (argv, code)
    assert out.getvalue(), argv

for argv in (
        ["dynamics", "classify", "--poly", "[-1,0,1]", "--alpha", "1/3"],
        ["boettcher", "--poly", "[-1,0,1]", "--order", "8", "--phi"],
        ["green", "trace", "--poly", "[-1,0,1]", "--r", "1", "--n", "4",
         "--out", "csv"],
        ["padic", "polygon", "--p", "3", "--series",
         '[[0,"3"],[1,"1"],[2,"3"]]'],
        ["orbit", "height", "--poly", "[-1,0,1]", "--alpha", "1/3",
         "--tol", "1/1000"],
        ["combinat", "verify", "--lemma", "box1", "--nmax", "17"],
        ["curve", "nu", "--poly", "[-1,0,1]",
         "--curve", '[[1,0,"1"],[0,1,"-1"]]', "--p", "3", "--phi", "3",
         "--k1", "1", "--k2", "-1", "--window", "8"],
        ["curve", "special", "--poly", "[-1,0,1]",
         "--curve", '[[1,0,"3"],[0,0,"1"]]', "--alpha", "1/3", "--nmax", "2"],
        ["orbit", "small", "--poly", "[-1,0,1]", "--alpha", "1/3", "--level", "2"],
        ["orbit", "small", "--poly", "[-1,0,1]", "--alpha", "1/3", "--level", "3"],
        ["orbit", "grand", "--poly", "[-1,0,1]", "--alpha", "1/3", "--n", "2",
         "--m", "3"],
        ["curve", "intersect", "--poly", "[-1,0,1]",
         "--curve", '[[1,0,"1"],[0,1,"-1"]]', "--alpha", "1/3", "--cap", "3"],
        # f' = 3X^2 + 1 is irreducible: its critical points are factored
        ["green", "trace", "--poly", "[0,1,0,1]", "--r", "1", "--n", "4",
         "--out", "csv"]):
    run(argv)
    assert "sympy" not in sys.modules, argv
assert len(PolyDS(Poly([-1, 0, 1])).critical_points()) == 1
assert "sympy" not in sys.modules, "critical points of X^2 - 1"
assert mpmath.mp.prec == prec, (mpmath.mp.prec, prec)

assert PlaneCurve.from_bipoly(BiPoly({(1, 0): 1, (0, 1): -1})).irreducible_q
assert "sympy" not in sys.modules, "irreducible_q loaded sympy"
'''


# Commands that factor nothing over Q leave the factoring module unloaded.
NO_FACTOR = r'''
import contextlib, io, sys
from orbitforge.cli import main
assert "orbitforge.factor" not in sys.modules, "import orbitforge.cli"
for argv in (
        ["dynamics", "classify", "--poly", "[-1,0,1]", "--alpha", "1/3"],
        ["boettcher", "--poly", "[-1,0,1]", "--order", "8", "--phi"],
        ["padic", "polygon", "--p", "3", "--series",
         '[[0,"3"],[1,"1"],[2,"3"]]'],
        ["combinat", "verify", "--lemma", "box1", "--nmax", "17"]):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == 0, argv
    assert "orbitforge.factor" not in sys.modules, argv
'''


EXACT_LAYERS = r'''
import sys
import orbitforge.exact, orbitforge.padic, orbitforge.combinat
loaded = sorted({"mpmath", "sympy"} & set(sys.modules))
assert not loaded, loaded
'''


# Each module is imported after clearing orbitforge and its submodules from
# sys.modules, so each import runs the import graph from that module on: a
# runtime import cycle (green importing dynamics at run time while dynamics
# imports green) fails here for the module imported first.
EACH_MODULE_FIRST = r'''
import importlib, sys
failed = []
for name in MODULES:
    for key in [k for k in sys.modules if k.split(".")[0] == "orbitforge"]:
        del sys.modules[key]
    try:
        importlib.import_module("orbitforge." + name)
    except ImportError as exc:
        failed.append(f"{name}: {exc}")
assert not failed, failed
'''


def _run_fresh(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_no_command_imports_sympy():
    _run_fresh(SCRIPT)


def test_commands_that_factor_nothing_leave_factor_unloaded():
    _run_fresh(NO_FACTOR)


def test_exact_layers_import_neither_mpmath_nor_sympy():
    _run_fresh(EXACT_LAYERS)


def test_each_module_imports_first():
    modules = sorted(p.stem for p in (SRC / "orbitforge").glob("*.py")
                     if p.stem != "__init__")
    assert {"dynamics", "green", "boettcher"} <= set(modules)
    _run_fresh(f"MODULES = {modules!r}\n" + EACH_MODULE_FIRST)
