"""The ball memos on ``PolyDS``: f's triples and the escape constants
(``green``), Psi's triples and the area sum A (``boettcher``).

A memo read back under another key must not change a bit: every value taken
on one map, across precisions, Psi orders and Boettcher radii, equals the
value on a fresh map.  The work counts are deterministic: they count the
Fraction-to-ball conversions (``ball._rational``), which a memo read makes
none of.
"""

from fractions import Fraction as F

import mpmath
import pytest
from mpmath import mpf

from orbitforge import ball
from orbitforge.ball import CBall
from orbitforge.boettcher import evaluate_psi
from orbitforge.dynamics import PolyDS
from orbitforge.exact import Poly
from orbitforge.green import equipotential_trace, escape_step, green_eval

COEFFS = [F(-1, 3), 0, 1]                # X^2 - 1/3: no coefficient is dyadic
GREEN_POINTS = [(F(1, 5), F(2, 7)), (F(5, 2), F(0)), (F(3, 2), F(-4, 3))]
ANGLES = (0.0, 0.125, 0.3)
# Boettcher radius balls: R_lo is 1 at every precision for the exact ball,
# so only the precision in the key tells its Psi memos apart
R_ONE = CBall.exact_int(1)
R_LOW = CBall.from_rational(F(9, 10))


def _key(x):
    sign, man, exp, bc = x._mpf_
    return sign, int(man), exp, bc


def _ball_key(b: CBall):
    return _key(b.re_mid), _key(b.im_mid), _key(b.rad)


def _psi_values(ds, order, radius):
    s = CBall(mpmath.exp(-1), mpf(0), mpf(0))
    return [_ball_key(evaluate_psi(ds, order, CBall.from_complex(
                mpmath.expjpi(2 * mpf(theta))) * s, radius)) for theta in ANGLES]


def _green_values(ds):
    out = []
    for re, im in GREEN_POINTS:
        g = green_eval(ds, CBall.from_rational(re, im), F(1, 10**10))
        out.append((_ball_key(g.value), g.iterations_used, g.escaped))
    out.append(escape_step(ds, F(3, 2)))
    return out


def _values(ds, prec, order, radius):
    with mpmath.workprec(prec):
        return _green_values(ds), _psi_values(ds, order, radius)


@pytest.mark.parametrize("keys", [
    [(64, 48, R_ONE), (160, 48, R_ONE), (64, 48, R_ONE)],       # precision
    [(160, 24, R_ONE), (160, 48, R_ONE), (160, 24, R_ONE)],     # order
    [(160, 48, R_ONE), (160, 48, R_LOW), (160, 48, R_ONE)],     # R_lo
], ids=["precision", "order", "radius"])
def test_reused_map_equals_fresh_map(keys):
    shared = PolyDS(Poly(COEFFS))
    for prec, order, radius in keys:
        fresh = _values(PolyDS(Poly(COEFFS)), prec, order, radius)
        assert _values(shared, prec, order, radius) == fresh


def _count_rationals(monkeypatch):
    calls = []
    original = ball._rational

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(ball, "_rational", counting)
    return calls


def test_trace_converts_each_coefficient_once(monkeypatch):
    # X^2 - 1 at r = 1 (k = 0): 8 Psi values and 8 Green checks; Psi(48) has
    # 49 coefficients and f has 3
    ds = PolyDS(Poly([-1, 0, 1]))
    ds.critical_points()                 # the critical point's own ball
    calls = _count_rationals(monkeypatch)
    curve = equipotential_trace(ds, F(1), 8, F(1, 10**8))
    assert len(curve.points) == 8
    assert len(calls) <= 49 + 3


def test_green_values_convert_f_once(monkeypatch):
    ds = PolyDS(Poly([-1, 0, 1]))
    points = [CBall.from_complex(z) for z in (0.3 + 1.2j, 2.5, 0.1j)]
    calls = _count_rationals(monkeypatch)
    for z in points:
        green_eval(ds, z, F(1, 10**10))
    assert len(calls) == 3
