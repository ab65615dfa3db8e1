"""Ball layer: the real-axis path and the prebuilt coefficient balls.

Real balls (imaginary midpoint exactly 0) add, multiply and take absolute
values in real arithmetic; each result must equal, bit for bit, the generic
complex formula written out here through ``mpmath.mpc``.  Loops that
evaluate one polynomial many times must build its coefficient balls once.
Laurent blocks are evaluated by one Horner pass.
"""

import random
from fractions import Fraction as F

import mpmath
import pytest
from mpmath import mpf

from orbitforge.ball import CBall, eval_block_ball
from orbitforge.boettcher import psi_series
from orbitforge.dynamics import PolyDS
from orbitforge.exact import LaurentBlock, Poly
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
    g = green_eval(ds, F(1, 3), F(1, 10**100))       # no early stop
    assert not g.escaped and g.iterations_used == 256
    # the start point and the deg f + 1 coefficients
    assert len(from_rational_calls) <= ds.d + 2


def test_certify_solution_builds_coefficient_balls_once(from_rational_calls):
    p = Poly([-2, 0, 1])
    dp = p.derivative()
    root = certify_solution(p, CBall.from_complex(1.4))
    assert root is not None and abs(float(root.re_mid) - 2 ** 0.5) < 1e-12
    assert len(from_rational_calls) <= p.degree + dp.degree + 2


def _block_cases(rng):
    """Seeded blocks: low in {-1, 0, 2}, odd exponents only, one term, and
    the empty block."""
    def coeff():
        return F(rng.randint(-50, 50), rng.randint(1, 30))
    blocks = [LaurentBlock(low, [coeff() for _ in range(rng.randint(1, 12))], trunc)
              for low in (-1, 0, 2) for trunc in (None, 20)]
    odd = [coeff() if e % 2 else 0 for e in range(-1, 16)]
    blocks += [LaurentBlock(-1, odd), LaurentBlock(3, [coeff()]),
               LaurentBlock(-1, [coeff()]), LaurentBlock.zero(),
               LaurentBlock.zero(trunc=5)]
    return blocks


def _exact(x) -> F:
    sign, man, exp, _ = x._mpf_
    return (-1) ** sign * F(man) * F(2) ** exp


def _exact_block_value(block, re: F, im: F) -> tuple[F, F]:
    """sum c x^e for x = re + i im, in exact complex Fraction arithmetic."""
    def mul(a, b):
        return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]
    if block.low < 0:
        norm = re * re + im * im
        step = (re / norm, -im / norm)
    else:
        step = (re, im)
    power = (F(1), F(0))
    for _ in range(abs(block.low)):
        power = mul(power, step)
    total = (F(0), F(0))
    for c in block.coeffs:
        total = (total[0] + c * power[0], total[1] + c * power[1])
        power = mul(power, (re, im))
    return total


@pytest.mark.parametrize("prec", (64, 160))
def test_block_value_contains_the_exact_sum(prec):
    rng = random.Random(41)
    points = [(F(1, 3), F(0)), (F(-5, 7), F(0)), (F(2, 9), F(-3, 11)),
              (F(-7, 5), F(1, 2))]
    with mpmath.workprec(prec):
        for block in _block_cases(rng):
            for re, im in points:
                ball = eval_block_ball(block, CBall.from_rational(re, im))
                want_re, want_im = _exact_block_value(block, re, im)
                gap_re = _exact(ball.re_mid) - want_re
                gap_im = _exact(ball.im_mid) - want_im
                assert gap_re ** 2 + gap_im ** 2 <= _exact(ball.rad) ** 2


def test_block_value_takes_one_horner_pass(monkeypatch):
    products = []
    original = CBall.__mul__

    def counting(self, other):
        products.append(None)
        return original(self, other)

    monkeypatch.setattr(CBall, "__mul__", counting)
    z = CBall.from_rational(F(1, 5), F(1, 7))
    blocks = [psi_series(PolyDS(Poly([-1, 0, 1])), 48),
              psi_series(PolyDS(Poly([1, -1, 0, 1])), 48),
              LaurentBlock(2, list(range(1, 41)))]
    for block in blocks:
        products.clear()
        eval_block_ball(block, z)
        # one product per coefficient, plus z^low by repeated squaring
        assert len(products) <= len(block.coeffs) + 2 * abs(block.low).bit_length()
