"""Factoring over Q agrees with sympy, the oracle, on a seeded corpus."""

import random
from fractions import Fraction as F

import sympy

from orbitforge.dynamics import PolyDS
from orbitforge.exact import Poly
from orbitforge.factor import factor_rational
from orbitforge.orbits import level_polynomial

X = Poly.x()


def sympy_monic_factors(p: Poly):
    x = sympy.Symbol("x")
    sp = sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                     for c in reversed(p.coeffs)], x, domain="QQ")
    out = []
    for fac, mult in sp.factor_list()[1]:
        cs = [F(int(c.numerator), int(c.denominator))
              for c in reversed(sympy.Poly(fac, x, domain="QQ").all_coeffs())]
        out.append((Poly([c / cs[-1] for c in cs]), int(mult)))
    return sorted(out, key=lambda t: (t[0].degree, t[0].coeffs))


def _random_products(rng, count):
    """Products of random non-monic factors with rational coefficients,
    some raised to powers, some sharing a factor."""
    out = []
    while len(out) < count:
        p = Poly([F(rng.choice([-1, 1]) * rng.randint(1, 30), rng.randint(1, 9))])
        for _ in range(rng.randint(1, 4)):
            deg = rng.randint(1, 5)
            q = Poly([F(rng.randint(-40, 40), rng.randint(1, 8)) for _ in range(deg)]
                     + [F(rng.choice([-1, 1]) * rng.randint(1, 12), rng.randint(1, 5))])
            p = p * q ** rng.choice([1, 1, 2, 3])
        if rng.random() < 0.2:
            p = p * X ** rng.randint(1, 3)
        out.append(p)
    return out


def _level_quotients(f: Poly, alpha: F, top: int):
    """h_0 = f^0(X) - alpha and h_n = (f^n(X) - f^n(alpha)) / (f^(n-1)(X) -
    f^(n-1)(alpha)), the polynomials that orbit level sets factor."""
    ds = PolyDS(f)
    levels = [level_polynomial(ds, alpha, n, n)[1] for n in range(top + 1)]
    return [levels[0]] + [g.divmod(h)[0] for h, g in zip(levels, levels[1:])]


# the Swinnerton-Dyer polynomial of sqrt(2) + sqrt(3) + sqrt(5): irreducible,
# and modulo every prime all its factors have degree <= 2
SWINNERTON_DYER = Poly([576, 0, -960, 0, 352, 0, -40, 0, 1])


def _corpus():
    rng = random.Random(20261019)
    cases = _random_products(rng, 120)
    for c in (F(-1), F(-2)):
        for alpha in (F(0), F(1, 3), F(-2, 5), F(3, 2)):
            cases += _level_quotients(Poly([c, 0, 1]), alpha, 6)
    cases += _level_quotients(Poly([1, -1, 0, 1]), F(1, 2), 3)
    for n in range(1, 40):
        cases += [X ** n - Poly([1]), X ** n - Poly([2]), X ** n + Poly([4])]
    cases += [SWINNERTON_DYER, SWINNERTON_DYER * (X * X - Poly([2])),
              SWINNERTON_DYER * (X * X - Poly([3])) * (X * X - Poly([5]))]
    # repeated roots, as at levels below a critical value: for X^2 - 1,
    # f(X) - f(0) = X^2, f^2(X) - f^2(0) = X^2 (X^2 - 2) and
    # f^2(X) - f^2(1) = (X^2 - 1)^2
    ds = PolyDS(Poly([-1, 0, 1]))
    cases += [level_polynomial(ds, F(0), 1, 1)[1],
              level_polynomial(ds, F(0), 2, 2)[1],
              level_polynomial(ds, F(1), 2, 2)[1],
              (X - Poly([1])) ** 2 * (X * X + Poly([1])) ** 3 * Poly([3, 2])]
    return cases


def test_factor_rational_matches_sympy_on_the_corpus():
    cases = _corpus()
    assert len(cases) > 300
    for p in cases:
        got = factor_rational(p)
        assert got == sympy_monic_factors(p), p
        product = Poly([p.lead])
        for q, mult in got:
            assert q.lead == 1
            product = product * q ** mult
        assert product == p


def test_recombination_joins_modular_factors():
    # X^4 + 1 and the Swinnerton-Dyer polynomial split modulo every prime,
    # so each factor of their product joins two or more lifted factors
    x4 = X ** 4 + Poly([1])
    assert factor_rational(x4 * SWINNERTON_DYER) == [(x4, 1), (SWINNERTON_DYER, 1)]
    cyclotomic = factor_rational(X ** 12 - Poly([1]))
    assert [q.degree for q, _ in cyclotomic] == [1, 1, 2, 2, 2, 4]


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
