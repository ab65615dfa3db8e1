"""Golden-output guard: every README CLI example keeps its exact stdout.

Each example runs in-process through ``cli.main``; the sha256 of its stdout
(plus the written file, for the ``--out level.svg`` example) must match the
digest recorded before the numeric core was consolidated (the SVG trace at
the README's full ``--n 256``: before equipotential traces were pulled back
one step at a time; ``combinat verify`` at the README's full ``--nmax 60``:
before box counts took their closed form; ``orbit small`` and ``curve
intersect``: after level roots were pulled back from f^n(alpha), which
changed only their printed ``rad``; the CSV trace: after Psi's tail was
bounded by the area theorem, whose narrower start balls changed only the
printed ``g_residual``, 7.91511e-16 to 7.9151e-16, every midpoint equal).
The CSV trace is scaled down to ``--n 16``, as the full README command
takes seconds.
``python tests/test_readme_golden.py`` prints the current digests.
"""

import hashlib
import io
import os
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from orbitforge.cli import main

EXAMPLES = {
    "classify": ["dynamics", "classify", "--poly", "[-1,0,1]", "--alpha", "1/3"],
    "boettcher": ["boettcher", "--poly", "[-1,0,1]", "--order", "40", "--phi"],
    "trace_csv": ["green", "trace", "--poly", "[-1,0,1]", "--r", "1",
                  "--n", "16", "--out", "csv"],
    "trace_svg": ["green", "trace", "--poly", "[-6,0,1]", "--r", "1/5",
                  "--n", "256", "--out", "level.svg"],
    "padic": ["padic", "polygon", "--p", "3",
              "--series", '[[0,"3"],[1,"1"],[2,"3"]]',
              "--pj", "--r1", "1/9", "--r", "1"],
    "small": ["orbit", "small", "--poly", "[-1,0,1]", "--alpha", "1/3",
              "--level", "2"],
    "height": ["orbit", "height", "--poly", "[-1,0,1]", "--alpha", "1/3",
               "--tol", "1/10000000000"],
    "special": ["curve", "special", "--poly", "[-1,0,1]",
                "--curve", '[[1,0,"3"],[0,0,"1"]]', "--alpha", "1/3",
                "--nmax", "4"],
    "intersect": ["curve", "intersect", "--poly", "[-1,0,1]",
                  "--curve", '[[1,0,"1"],[0,1,"-1"]]', "--alpha", "1/3",
                  "--cap", "3"],
    "nu": ["curve", "nu", "--poly", "[-1,0,1]",
           "--curve", '[[1,0,"1"],[0,1,"-1"]]', "--p", "3", "--phi", "3",
           "--k1", "1", "--k2", "-1", "--window", "40"],
    "combinat": ["combinat", "verify", "--lemma", "box1", "--nmax", "60"],
}

DIGESTS = {
    "boettcher": "8c4d20a8ae6f73d91031f2843153ce5ac1705817dee180c9a0f6432a95c95976",
    "classify": "24c7cc18a21c77d0a374b67814e5a2088a5bb90a84596dc0eef48e21af12bd80",
    "combinat": "bb5c7a6ed4ca7ca639b6ddca6df2f6e666afea784e3a53e249659e914820abdf",
    "height": "4116cddc99d29204d899b6873bc9d9989c9b399e62d48752930878166f352932",
    "intersect": "cf94ef03026bcc8a65fd265705db8bca421efa1d469ff44fc4803ffdb1337fe0",
    "nu": "0f08088f89ec40ceb873966f0c564a919adb1cdf992b87c8eefd0894dfd16f48",
    "padic": "bd756b0b133c4c14d6a27211a982e6db4e3293b63c2014fcc4ae779a7d30ae41",
    "small": "492affa43bcf9fd91eb4a29850750086ce1a1021a3315ff08570bee007e9255c",
    "special": "48a5b01ab85d540c41382917ca45500904b53b68f5b77aaf446c136ca3045ab0",
    "trace_csv": "3f044da77551e92fcf7a25dc2e50083c4a8707c457624cec1a93a753db86618b",
    "trace_svg": "b2ea91b15e9375ad833320ca755434ceaf1311636a50b6327fc6ce528e3bf13d",
}


def _digest(argv) -> str:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(list(argv))
    data = f"exit {code}\n{out.getvalue()}".encode()
    if "--out" in argv and os.path.exists(argv[argv.index("--out") + 1]):
        with open(argv[argv.index("--out") + 1], "rb") as fh:
            data += fh.read()
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_readme_example_stdout_unchanged(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert _digest(EXAMPLES[name]) == DIGESTS[name]


if __name__ == "__main__":     # pragma: no cover
    import tempfile
    os.chdir(tempfile.mkdtemp())
    for key in sorted(EXAMPLES):
        print(f'    "{key}": "{_digest(EXAMPLES[key])}",', file=sys.stdout)
