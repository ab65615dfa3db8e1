"""Certified roots: one root per ball, and balls that cover every root; the
pull-back step f(z) = w for a target ball w."""

import random
from fractions import Fraction as F

import mpmath
import pytest

import orbitforge.rootcert as rootcert
from orbitforge.ball import CBall, eval_poly_ball
from orbitforge.errors import PrecisionError
from orbitforge.exact import Poly
from orbitforge.orbits import _exact           # an mpf as an exact Fraction

X2_MINUS_2 = Poly([-2, 0, 1])


def test_roots_are_certified_disjoint_balls():
    balls = rootcert.certified_roots(X2_MINUS_2)
    assert len(balls) == 2
    assert not (balls[0] - balls[1]).contains_zero()
    for ball in balls:
        assert eval_poly_ball(X2_MINUS_2, ball).contains_zero()
    assert rootcert.certified_roots(Poly([F(-1, 3), 1])) != []


def test_one_root_certified_twice_is_rejected(monkeypatch):
    # both approximations converge to sqrt(2): each ball certifies, but the
    # two balls do not account for the root -sqrt(2)
    approximate = rootcert.approximate_solutions

    def twice_the_first(p, target=None):
        first = max(approximate(p, target), key=lambda z: z.real)
        return [first, first]

    monkeypatch.setattr(rootcert, "approximate_solutions", twice_the_first)
    with pytest.raises(PrecisionError, match="overlap"):
        rootcert.certified_roots(X2_MINUS_2)


def test_targeted_polish_stops_once_converged(monkeypatch):
    # the target's radius is part of every Newton step's ball; polishing must
    # stop on the step's midpoint instead of running all 60 steps
    import mpmath
    from mpmath import mpf

    from orbitforge.ball import CBall, horner_ball

    calls = []

    def counting(coeffs, z):
        calls.append(None)
        return horner_ball(coeffs, z)

    monkeypatch.setattr(rootcert, "horner_ball", counting)
    target = CBall(mpf(3), mpf(0), mpf(10) ** -20)
    root = rootcert.certify_solution(Poly([0, 0, 1]), CBall.from_complex(1.7), target)
    assert root.contains(CBall(mpmath.sqrt(3), mpf(0), mpf(0)))
    assert len(calls) <= 20


# -- the pull-back step ---------------------------------------------------------

def _mpf(q: F) -> mpmath.mpf:
    return mpmath.mpf(q.numerator) / q.denominator    # exact for a dyadic q


def _dyadic(rng, bits: int) -> F:
    return F(rng.randint(-2 ** (bits + 1), 2 ** (bits + 1)), 2 ** bits)


# rational points of the unit circle, from Pythagorean triples
_CIRCLE = [(F(1), F(0)), (F(0), F(1)), (F(-1), F(0)), (F(0), F(-1)),
           (F(3, 5), F(4, 5)), (F(-5, 13), F(12, 13)), (F(-8, 17), F(-15, 17)),
           (F(20, 29), F(-21, 29))]


@pytest.mark.parametrize("seed", range(6))
def test_quadratic_step_holds_every_preimage_of_its_target(seed):
    # X^2 + bX + c against a target ball of non-zero radius: f of each ball
    # encloses the target, and every exact point on the target's boundary
    # has exactly one preimage in each ball (certified by interval Newton
    # against the exact point)
    rng = random.Random(seed)
    b, c = _dyadic(rng, 3), _dyadic(rng, 4)
    f = Poly([c, b, 1])
    crit = c - b * b / 4                                  # the critical value
    while True:
        re, im = _dyadic(rng, 12), _dyadic(rng, 12)
        if abs(re - crit) + abs(im) > F(1, 2):
            break
    rad = F(1, 2 ** rng.randint(6, 40))
    target = CBall(_mpf(re), _mpf(im), _mpf(rad))
    balls = rootcert.preimages(f, target)
    assert len(balls) == 2 and None not in balls
    assert not (balls[0] - balls[1]).contains_zero()
    for ball in balls:
        assert eval_poly_ball(f, ball).contains(target)
    for cos, sin in _CIRCLE:
        point = CBall.from_rational(re + rad * cos, im + rad * sin)
        sols = [rootcert.certify_solution(f, z, point) for z in balls]
        assert None not in sols and not (sols[0] - sols[1]).contains_zero()
        for ball in balls:
            assert [ball.contains(s) for s in sols].count(True) == 1
            assert [(ball - s).contains_zero() for s in sols].count(True) == 1


@pytest.mark.parametrize("value", [2, 3, F(1, 5), -2, -7])
def test_quadratic_step_at_an_exact_target_holds_the_square_roots(value):
    # X^2 against a radius-0 target: the step's radius is the rounding slop
    # of the square root alone, and the balls must hold +-sqrt(q) for the
    # exact target q, checked in exact arithmetic
    target = CBall(_mpf(F(value)), _mpf(F(0)), _mpf(F(0)))
    q = _exact(target.re_mid)
    balls = rootcert.preimages(Poly([0, 0, 1]), target)
    assert None not in balls
    signs = set()
    for ball in balls:
        on, off = (ball.re_mid, ball.im_mid) if q > 0 else (ball.im_mid, ball.re_mid)
        assert off == 0
        mid, rad = _exact(on), _exact(ball.rad)
        signs.add(mid > 0)
        lo, hi = abs(mid) - rad, abs(mid) + rad
        assert lo > 0 and lo * lo <= abs(q) <= hi * hi
    assert signs == {True, False}


@pytest.mark.parametrize("f", [Poly([-1, 0, 1]), Poly([F(1, 4), 0, 1]),
                               Poly([F(3, 2), -3, 1])])
def test_quadratic_step_fails_at_the_critical_value(f):
    crit = f.coeff(0) - f.coeff(1) ** 2 / 4
    assert rootcert.preimages(f, CBall.from_rational(crit)) == [None, None]
    near = CBall.from_rational(crit + F(1, 10 ** 6)).widen(_mpf(F(1, 10 ** 6)))
    assert rootcert.preimages(f, near) == [None, None]


def test_higher_degree_step_certifies_each_solution():
    f = Poly([1, -1, 0, 1])                                # X^3 - X + 1
    target = CBall.from_rational(F(5, 8), F(-1, 3)).widen(_mpf(F(1, 10 ** 20)))
    balls = rootcert.preimages(f, target)
    assert len(balls) == 3 and None not in balls
    for i, ball in enumerate(balls):
        assert eval_poly_ball(f, ball).contains(target)
        assert not any((ball - other).contains_zero() for other in balls[:i])
