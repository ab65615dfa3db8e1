"""Golden-value guard: critical escape and the archimedean Boettcher radius.

For X^2 + c with c = k/4, k/8 and k/9 in [-5/2, 1/2], and for five cubics,
each row records the escaping/bounded/undecided counts of
``escaping_critical_points``, the ball of ``radius_archimedean`` (as
printed), whether no critical point is undecided, and the escaping and
undecided counts again.  The rows were recorded while rational critical
points that wander at a finite place still had their own exact archimedean
escape loop, and while a 256-step ball escape walk decided the rest before
a separate Green walk gave the radius; the digests show that the one Green
walk per critical point decides every row the same way.

``ESCAPE_STEP_DIGEST`` covers a seeded sweep of (map, alpha) pairs of degree
2-4, X^2 + 2509/10000 and X^2 + 251/1000 (just past the parabolic c = 1/4)
included: each row is the archimedean ``escape_iterate`` that
``find_place_of_good_reduction_escape`` prints, or None, or the error code.
It was recorded while that step came from a walk of its own (the exact
escape radius, cut at a radius of 10^40) instead of Green's walk.
``python tests/test_escape_golden.py`` prints the current digests.
"""

import hashlib
import json
import random
from fractions import Fraction as F

import mpmath
import pytest

from orbitforge.ball import CBall
from orbitforge.boettcher import radius_archimedean
from orbitforge.cli import main
from orbitforge.dynamics import (PolyDS, escaping_critical_points,
                                 find_place_of_good_reduction_escape)
from orbitforge.errors import OrbitforgeError
from orbitforge.exact import Poly


def _quadratics(den: int) -> list[Poly]:
    lo, hi = -(5 * den // 2), den // 2        # c = k/den in [-5/2, 1/2]
    return [Poly([F(k, den), 0, 1]) for k in range(lo, hi + 1)]


FAMILIES = {
    "quadratic_k4": _quadratics(4),
    "quadratic_k8": _quadratics(8),
    "quadratic_k9": _quadratics(9),
    "cubic": [Poly([1, -1, 0, 1]),                # irrational real critical points
              Poly([0, 2, 0, 1]),                 # complex critical points
              Poly([0, -3, 0, 1]),                # critical points +-1, preperiodic
              Poly([0, 0, 1, 1]),                 # critical points 0 and -2/3
              Poly([F(1, 9), F(-3, 4), 0, 1])],   # critical points +-1/2
}

DIGESTS = {
    "cubic": "9c4d8f242cd8332b7c883216257d28f888a116763aa0cece578020f06c198023",
    "quadratic_k4": "7d365fb31960dfbc2e4cf89ca0e53d1936221f443fbe86f0271883cd7de0467d",
    "quadratic_k8": "521d3e5117c97532ba60f1d62bf4d15e469fff659bbccbcadc569884e9c53bc9",
    "quadratic_k9": "7cd889003155f71b9cd28be101da120cbdbbd62c8516f4f49d8ab32056fc951f",
}


ESCAPE_STEP_DIGEST = "926732bce66ff6f62d3c3e9fa2fa82f4fef8951f7b3c957fc6ccf77b05cb6c42"


def _escape_pairs() -> list[tuple[Poly, F]]:
    pairs = [(Poly([c, 0, 1]), F(j, 8))
             for c in (F(2509, 10000), F(251, 1000)) for j in range(-8, 9)]
    rng = random.Random(20261019)
    while len(pairs) < 240:
        d = rng.randint(2, 4)
        coeffs = [F(rng.randint(-6, 6), rng.choice((1, 2, 3, 4, 5, 10)))
                  for _ in range(d)]
        alpha = F(rng.randint(-9, 9), rng.choice((1, 2, 3, 5, 7, 125)))
        pairs.append((Poly(coeffs + [1]), alpha))
    return pairs


def _escape_row(f: Poly, alpha: F) -> str:
    try:
        arch = find_place_of_good_reduction_escape(PolyDS(f), alpha).archimedean
        step = None if arch is None else arch.escape_iterate
    except OrbitforgeError as exc:
        step = exc.code
    return f"{f!r} {alpha}: {step}"


def _escape_digest() -> str:
    text = "\n".join(_escape_row(f, alpha) for f, alpha in _escape_pairs())
    return hashlib.sha256(text.encode()).hexdigest()


def _row(f: Poly) -> str:
    ds = PolyDS(f)
    rep = escaping_critical_points(ds)
    radius = radius_archimedean(ds)
    return (f"{f!r}: {len(rep.escaping)}/{len(rep.bounded)}/{len(rep.undecided)} "
            f"{radius!r} {not rep.undecided} "
            f"{len(rep.escaping)}/{len(rep.undecided)}")


def _digest(name: str) -> str:
    text = "\n".join(_row(f) for f in FAMILIES[name])
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_escape_and_radius_rows_unchanged(name):
    assert _digest(name) == DIGESTS[name]


def test_rational_critical_point_wandering_at_a_finite_place():
    # X^2 + 1/9: the critical orbit 0 -> 1/9 escapes 3-adically at once but
    # stays bounded archimedeanly (1/9 < 1/4), so its Green walk leaves it
    # undecided; X^2 + 1/2 escapes at both places
    inside = escaping_critical_points(PolyDS(Poly([F(1, 9), 0, 1])))
    assert (len(inside.escaping), len(inside.bounded), len(inside.undecided)) == (0, 0, 1)
    outside = escaping_critical_points(PolyDS(Poly([F(1, 2), 0, 1])))
    assert (len(outside.escaping), len(outside.bounded), len(outside.undecided)) == (1, 0, 0)


def test_slow_escape_is_undecided():
    # X^2 + 2509/10000 escapes (c > 1/4), but so slowly that green_eval's
    # one-sided bound reaches 2/10^10 before the orbit crosses the escape
    # radius: undecided.  The radius prints as when a 256-step escape walk
    # counted the point escaping, and contains that ball's midpoint.
    ds = PolyDS(Poly([F(2509, 10000), 0, 1]))
    rep = escaping_critical_points(ds)
    assert (len(rep.escaping), len(rep.bounded), len(rep.undecided)) == (0, 0, 1)
    assert not rep.undecided[0][1].escaped
    radius = radius_archimedean(ds)
    assert repr(radius) == "CBall((0.999999999947 + 0.0j) +/- 5.338e-11)"
    assert radius.contains(CBall.from_complex(
        mpmath.mpf("0.99999999994662296534809531250424341522496793309")))


def test_archimedean_escape_steps_unchanged():
    assert _escape_digest() == ESCAPE_STEP_DIGEST


@pytest.mark.parametrize("poly, alpha, step", [
    # slow escapers: at the map's tolerance green_eval stops on its Green
    # bound after 33 and 21 steps, undecided; the full walk finds the step
    ('["2509/10000",0,1]', "0", 102),
    ('["7/100","9/16","2/5",1]', "1/125", 104),
    ("[-1,0,1]", "3", 0),
])
def test_classify_prints_archimedean_escape_step(poly, alpha, step, capsys):
    assert main(["dynamics", "classify", "--poly", poly, "--alpha", alpha]) == 0
    search = json.loads(capsys.readouterr().out)["good_reduction_escape"]
    assert search["archimedean"]["escape_iterate"] == step


if __name__ == "__main__":     # pragma: no cover
    for name in sorted(FAMILIES):
        for f in FAMILIES[name]:
            print("#", _row(f))
    print("DIGESTS = {")
    for name in sorted(FAMILIES):
        print(f'    "{name}": "{_digest(name)}",')
    print("}")
    print(f'ESCAPE_STEP_DIGEST = "{_escape_digest()}"')
