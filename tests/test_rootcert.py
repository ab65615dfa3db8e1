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
