"""Factoring over Q: the degree-1 base case agrees with sympy."""

import random
from fractions import Fraction as F

import sympy

from orbitforge.exact import Poly
from orbitforge.factor import factor_rational


def sympy_monic_factors(p: Poly):
    x = sympy.Symbol("x")
    sp = sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                     for c in reversed(p.coeffs)], x, domain="QQ")
    out = []
    for fac, mult in sp.factor_list()[1]:
        cs = [F(int(c.numerator), int(c.denominator))
              for c in reversed(sympy.Poly(fac, x, domain="QQ").all_coeffs())]
        out.append((Poly([c / cs[-1] for c in cs]), int(mult)))
    return out


def test_linear_factor_matches_sympy():
    rng = random.Random(20261018)
    cases = [Poly([0, 2]), Poly([0, F(-3, 7)]), Poly([5, -1]),
             Poly([F(1, 3), F(-2, 9)]), Poly([F(-4, 5), F(6, 5)]), Poly([0, 1])]
    for _ in range(60):
        lead = F(rng.choice([-1, 1]) * rng.randint(1, 40), rng.randint(1, 12))
        const = F(rng.randint(-50, 50), rng.randint(1, 12))
        cases.append(Poly([const, lead]))
    for p in cases:
        assert p.degree == 1
        got = factor_rational(p)
        assert got == sympy_monic_factors(p) == [(p.scale(1 / p.lead), 1)]
        assert got[0][0].lead == 1


def test_constants_have_no_factors():
    for c in (F(3), F(-2, 7), F(1)):
        assert factor_rational(Poly([c])) == []
