"""Ball layer: the real-axis path and the prebuilt coefficient balls.

Real balls (imaginary midpoint exactly 0) add, multiply and take absolute
values in real arithmetic; each result must equal, bit for bit, the generic
complex formula written out here through ``mpmath.mpc``.  Horner's rule on
raw triples must equal the same formulas applied step by step to ``CBall``s
built through mpf objects.  Loops that evaluate one polynomial many times
must build its coefficient balls once.  Laurent blocks are evaluated by one
Horner pass.
"""

import random
from fractions import Fraction as F

import mpmath
import pytest
from mpmath import mpf

from orbitforge import ball
from orbitforge.ball import CBall, _exact, coeff_balls, eval_block_ball, horner_ball
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
        with mpmath.workprec(2 * prec):     # parts longer than prec: mpc rounds them
            long = CBall(mpf(3) / 7, mpf(-2) / 9, mpmath.ldexp(1, -prec))
        for a, b in ((x, z), (z, x), (z, z), (x, long), (long, z), (long, long)):
            assert (a * b).im_mid != 0
            assert _fields(a * b) == _bits(*_generic_mul(a, b))
            assert _fields(a + b) == _bits(*_generic_add(a, b))
        assert _abs_bits(z) == _bits(*_generic_abs(z))


def _generic_ball(re: F, im: F = F(0)) -> CBall:
    """The ball of a rational through mpf objects: mpf(num) / mpf(den)."""
    r, i = (mpf(q.numerator) / mpf(q.denominator) for q in (re, im))
    return CBall(r, i, _eps() * (abs(r) + abs(i) + 1))


def _generic_horner(balls, z: CBall) -> CBall:
    if not balls:
        return CBall(mpf(0), mpf(0), mpf(0))
    acc = balls[-1]
    for b in reversed(balls[:-1]):
        acc = CBall(*_generic_add(CBall(*_generic_mul(acc, z)), b))
    return acc


def _random_ball(rng, prec):
    """A real, complex or purely imaginary ball; zero midpoints and zero
    radii included."""
    x = _random_real_ball(rng, prec)
    kind = rng.random()
    if kind < 0.3:
        return x
    im = _random_mid(rng, prec)
    return CBall(mpf(0) if kind < 0.45 else x.re_mid, im, x.rad)


def _random_rational(rng):
    if rng.random() < 0.3:          # Psi-sized: beyond 160 bits
        return F(rng.getrandbits(190) - 2 ** 189, rng.getrandbits(230) | 1)
    return F(rng.randint(-50, 50), rng.randint(1, 30))


def _triples(balls):
    return tuple((b.re_mid._mpf_, b.im_mid._mpf_, b.rad._mpf_) for b in balls)


@pytest.mark.parametrize("prec", (64, 160))
def test_horner_matches_the_operator_formulas(prec):
    rng = random.Random(prec + 2)
    with mpmath.workprec(prec):
        for n in (0, 1, 2, 3, 7):
            for _ in range(40):
                z = _random_ball(rng, prec)
                rationals = [_random_rational(rng) if rng.random() < 0.8 else F(0)
                             for _ in range(n)]
                p = Poly(rationals)
                want = _generic_horner([_generic_ball(c) for c in p.coeffs], z)
                assert _fields(horner_ball(coeff_balls(p), z)) == _fields(want)
                balls = [_random_ball(rng, prec) for _ in range(n)]
                want = _generic_horner(balls, z)
                assert _fields(horner_ball(_triples(balls), z)) == _fields(want)


@pytest.mark.parametrize("x, rad_exp", [(100, -155), (40, -156), (-100, -155)])
def test_exp_real_encloses_both_ends(x, rad_exp):
    # at 160 bits, x -+ 2^rad_exp rounded to nearest is x itself
    with mpmath.workprec(160):
        b = CBall(mpf(x), mpf(0), mpmath.ldexp(1, rad_exp)).exp_real()
    with mpmath.workprec(600):
        for end in (x - mpmath.ldexp(1, rad_exp), x + mpmath.ldexp(1, rad_exp)):
            assert abs(mpmath.exp(end) - b.re_mid) <= b.rad


@pytest.fixture
def rational_calls(monkeypatch):
    """Every Fraction-to-ball conversion made during the test: the one rule
    behind ``CBall.from_rational`` and ``coeff_balls``."""
    calls = []
    original = ball._rational

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(ball, "_rational", counting)
    return calls


def test_green_eval_builds_coefficient_balls_once(rational_calls):
    ds = PolyDS(Poly([-1, 0, 1]))
    g = green_eval(ds, F(1, 3), F(1, 10**100))       # no early stop
    assert not g.escaped and g.iterations_used == 256
    # the start point and the deg f + 1 coefficients
    assert len(rational_calls) <= ds.d + 2


def test_certify_solution_builds_coefficient_balls_once(rational_calls):
    p = Poly([-2, 0, 1])
    dp = p.derivative()
    root = certify_solution(p, CBall.from_complex(1.4))
    assert root is not None and abs(float(root.re_mid) - 2 ** 0.5) < 1e-12
    assert len(rational_calls) <= p.degree + dp.degree + 2


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
                ball = eval_block_ball(coeff_balls(block), block.low,
                                       CBall.from_rational(re, im))
                want_re, want_im = _exact_block_value(block, re, im)
                gap_re = _exact(ball.re_mid) - want_re
                gap_im = _exact(ball.im_mid) - want_im
                assert gap_re ** 2 + gap_im ** 2 <= _exact(ball.rad) ** 2


def test_block_value_takes_one_horner_pass(monkeypatch):
    products = []
    original = ball._mul

    def counting(*args):
        products.append(None)
        return original(*args)

    # the one product rule: Horner's steps and CBall's * both call it
    monkeypatch.setattr(ball, "_mul", counting)
    z = CBall.from_rational(F(1, 5), F(1, 7))
    blocks = [psi_series(PolyDS(Poly([-1, 0, 1])), 48),
              psi_series(PolyDS(Poly([1, -1, 0, 1])), 48),
              LaurentBlock(2, list(range(1, 41)))]
    for block in blocks:
        products.clear()
        eval_block_ball(coeff_balls(block), block.low, z)
        # one product per coefficient, plus z^low by repeated squaring
        assert len(products) <= len(block.coeffs) + 2 * abs(block.low).bit_length()
