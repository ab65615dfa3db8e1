"""Fuzz the CLI's value arguments: every input ends in an exit code of 0, 1
or 2, with JSON or nothing on stdout, and never in a traceback."""

import io
import json
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from orbitforge.cli import main

CURVE = '[[1,0,"1"],[0,1,"-1"]]'
NU = ["curve", "nu", "--poly", "[-1,0,1]", "--curve", CURVE, "--p", "3",
      "--k1", "1", "--k2", "-1", "--window", "4"]

# (flag, the argv around it); numeric arguments are kept small so that no
# example runs long
CASES = [
    ("--poly", ["orbit", "small", "--alpha", "1/3", "--level", "1"]),
    ("--poly", ["boettcher", "--order", "4"]),
    ("--alpha", ["orbit", "small", "--poly", "[-1,0,1]", "--level", "1"]),
    ("--alpha", ["curve", "intersect", "--poly", "[-1,0,1]", "--curve", CURVE,
                 "--cap", "1"]),
    ("--curve", ["curve", "special", "--poly", "[-1,0,1]", "--alpha", "1/3",
                 "--nmax", "1"]),
    ("--curve", ["curve", "intersect", "--poly", "[-1,0,1]", "--alpha", "1/3",
                 "--cap", "1"]),
    ("--series", ["padic", "polygon", "--p", "3"]),
    ("--r", ["padic", "polygon", "--p", "3", "--series", '[[0,"3"],[1,"1"]]',
             "--pj", "--r1", "1/9"]),
    ("--tol", ["orbit", "height", "--poly", "[-1,0,1]", "--alpha", "1/3"]),
    ("--phi", NU + ["--zeta1", "1"]),
    ("--zeta1", NU + ["--phi", "3"]),
]

# values one edit away from valid ones
NEAR_MISSES = [
    "", " ", "-", "/", "1/0", "0", "-0", "x", "nan", "inf", "1e5", "0.5",
    "1//3", "1/-3", "[", "]", "[]", "[0]", "[0,1]", "[1,0,1", "[[]]", "{}",
    "null", "true", '"1"', "[1,[2]]", '["a"]', '[[0,"1"]]', '[[1,0]]',
    '[[-1,0,"1"]]', '[[0,0,"0"]]', '[[0,0,"1"]]', '[[0,"3"],[1]]',
    '[[1.5,"3"]]', '[["1","1"]]', '[[0,"1"],[0,"1"]]', '[1e400]', "[NaN]",
    CURVE, '[[2,0,"1"],[0,1,"-1"]]', '[[0,1,"1"]]', "[-1,0,1]", "[1,0,0,1]",
    "1/3", "-1/3", "3", "1/9", "9", "teich:", "teich:0", "teich:x", "teich:2", "teich:-1",
    "+1", "−1", "1/٣", "١", "9" * 40, "1e5000", "-1e-5000",
]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=st.sampled_from(CASES),
       value=st.one_of(st.sampled_from(NEAR_MISSES), st.text(max_size=12)))
def test_malformed_values_never_raise(case, value):
    flag, argv = case
    out, err = io.StringIO(), io.StringIO()
    old_out, old_err = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        code = main(argv + [f"{flag}={value}"])
    except SystemExit as exc:              # argparse usage errors
        code = exc.code
    finally:
        sys.stdout, sys.stderr = old_out, old_err
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    text = out.getvalue()
    if text:
        data = json.loads(text)
        assert code != 1 or "error" in data
    else:
        assert code == 2
