"""Certified roots: one root per ball, and balls that cover every root."""

from fractions import Fraction as F

import pytest

import orbitforge.rootcert as rootcert
from orbitforge.ball import eval_poly_ball
from orbitforge.errors import PrecisionError
from orbitforge.exact import Poly

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
