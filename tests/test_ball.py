"""Ball layer: the real-axis path and the prebuilt coefficient balls.

Real balls (imaginary midpoint exactly 0) add, multiply and take absolute
values in real arithmetic; each result must equal, bit for bit, the generic
complex formula written out here through ``mpmath.mpc``.  Loops that
evaluate one polynomial many times must build its coefficient balls once.
"""

import random
from fractions import Fraction as F

import mpmath
import pytest
from mpmath import mpf

from orbitforge.ball import CBall
from orbitforge.dynamics import PolyDS
from orbitforge.exact import Poly
from orbitforge.green import green_eval
from orbitforge.rootcert import certify_solution

PRECISIONS = (64, 160, 333)


def _eps():
    return mpmath.ldexp(1, 4 - mpmath.mp.prec)


def _generic_mul(x: CBall, y: CBall):
    a, b = mpmath.mpc(x.re_mid, x.im_mid), mpmath.mpc(y.re_mid, y.im_mid)
    prod = a * b
    rad = abs(a) * y.rad + abs(b) * x.rad + x.rad * y.rad + _eps() * (abs(prod) + 1)
    return mpf(prod.real), mpf(prod.imag), rad


def _generic_add(x: CBall, y: CBall):
    re, im = x.re_mid + y.re_mid, x.im_mid + y.im_mid
    return re, im, x.rad + y.rad + _eps() * (abs(re) + abs(im) + 1)


def _generic_abs(x: CBall):
    mid = abs(mpmath.mpc(x.re_mid, x.im_mid))
    lo = mid * (1 - _eps()) - x.rad
    return mid, mid * (1 + _eps()) + x.rad, lo if lo > 0 else mpf(0)


def _bits(*values):
    return tuple(v._mpf_ for v in values)


def _fields(ball: CBall):
    return _bits(ball.re_mid, ball.im_mid, ball.rad)


def _abs_bits(ball: CBall):
    return _bits(ball.abs_mid(), ball.abs_upper(), ball.abs_lower())


def _random_mid(rng, prec):
    kind = rng.random()
    if kind < 0.05:
        return mpf(0)
    if kind < 0.15:
        return mpf(rng.randint(-9, 9))
    sign = -1 if rng.random() < 0.5 else 1
    exponent = rng.randint(-prec - 40, 40 - prec)
    return sign * mpmath.ldexp(rng.getrandbits(prec), exponent)


def _random_real_ball(rng, prec):
    rad = mpf(0)
    if rng.random() < 0.8:
        rad = mpmath.ldexp(rng.getrandbits(30), rng.randint(-prec - 60, -40))
    return CBall(_random_mid(rng, prec), mpf(0), rad)


@pytest.mark.parametrize("prec", PRECISIONS)
def test_real_path_matches_the_complex_formula(prec):
    rng = random.Random(prec)
    with mpmath.workprec(prec):
        for _ in range(600):
            x, y = _random_real_ball(rng, prec), _random_real_ball(rng, prec)
            assert _fields(x * y) == _bits(*_generic_mul(x, y))
            assert _fields(x + y) == _bits(*_generic_add(x, y))
            assert _abs_bits(x) == _bits(*_generic_abs(x))


@pytest.mark.parametrize("prec", PRECISIONS)
def test_complex_operand_takes_the_complex_path(prec):
    rng = random.Random(prec + 1)
    with mpmath.workprec(prec):
        x = _random_real_ball(rng, prec)
        z = CBall(mpf(3) / 7, mpf(-2) / 9, mpmath.ldexp(1, -prec))
        for a, b in ((x, z), (z, x), (z, z)):
            assert (a * b).im_mid != 0
            assert _fields(a * b) == _bits(*_generic_mul(a, b))
            assert _fields(a + b) == _bits(*_generic_add(a, b))
        assert _abs_bits(z) == _bits(*_generic_abs(z))


@pytest.fixture
def from_rational_calls(monkeypatch):
    """Every call to ``CBall.from_rational`` made during the test."""
    calls = []
    original = CBall.from_rational

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(CBall, "from_rational", staticmethod(counting))
    return calls


def test_green_eval_builds_coefficient_balls_once(from_rational_calls):
    ds = PolyDS(Poly([-1, 0, 1]))
    g = green_eval(ds, F(1, 3))
    assert not g.escaped and g.iterations_used == 256
    # the start point and the deg f + 1 coefficients
    assert len(from_rational_calls) <= ds.d + 2


def test_certify_solution_builds_coefficient_balls_once(from_rational_calls):
    p = Poly([-2, 0, 1])
    dp = p.derivative()
    root = certify_solution(p, CBall.from_complex(1.4))
    assert root is not None and abs(float(root.re_mid) - 2 ** 0.5) < 1e-12
    assert len(from_rational_calls) <= p.degree + dp.degree + 2
