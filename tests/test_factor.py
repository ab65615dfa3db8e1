"""Factoring over Q and irreducibility of bivariate polynomials over Q agree
with sympy, the oracle, on seeded corpora."""

import random
from fractions import Fraction as F

import sympy

from orbitforge.dynamics import PolyDS
from orbitforge.exact import BiPoly, Poly
from orbitforge.factor import bivariate_irreducible, factor_rational
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


def sympy_irreducible(b: BiPoly) -> bool:
    x, y = sympy.symbols("x y")
    expr = sum(sympy.Rational(c.numerator, c.denominator) * x ** i * y ** j
               for (i, j), c in b.terms)
    factors = [(f, m) for f, m in sympy.Poly(expr, x, y, domain="QQ").factor_list()[1]
               if sympy.Poly(f, x, y).total_degree() > 0]
    return len(factors) == 1 and factors[0][1] == 1


def _bi_product(*factors: BiPoly) -> BiPoly:
    out = {(0, 0): F(1)}
    for b in factors:
        acc: dict = {}
        for (i, j), c in out.items():
            for (k, l), d in b.terms:
                acc[i + k, j + l] = acc.get((i + k, j + l), 0) + c * d
        out = acc
    return BiPoly(out)


def _random_bivariate(rng, dx, dy):
    """Random rational coefficients at about half the monomials X^i Y^j,
    i <= dx, j <= dy, with X^dx and Y^dy present."""
    terms = {(i, j): F(rng.randint(-6, 6), rng.randint(1, 4))
             for i in range(dx + 1) for j in range(dy + 1) if rng.random() < 0.5}
    terms[dx, rng.randint(0, dy)] = F(rng.choice([-3, -2, -1, 1, 2, 3]))
    terms[rng.randint(0, dx), dy] = F(rng.choice([-3, -2, -1, 1, 2, 3]))
    return BiPoly(terms)


def _bivariate_corpus():
    rng = random.Random(20261020)

    def small():
        return _random_bivariate(rng, rng.randint(0, 2), rng.randint(0, 2))
    X_, Y_ = BiPoly({(1, 0): 1}), BiPoly({(0, 1): 1})
    cases = [_random_bivariate(rng, rng.randint(0, 4), rng.randint(0, 4))
             for _ in range(200)]
    for _ in range(60):
        g, h = small(), small()
        cases += [_bi_product(g, h), _bi_product(g, g), _bi_product(X_, g),
                  _bi_product(Y_, g), _bi_product(Y_, Y_, g)]
        # a factor in X alone: the X-content of the product
        content = _random_bivariate(rng, rng.randint(1, 2), 0)
        cases.append(_bi_product(content, g))
    for _ in range(40):           # one variable only
        cases += [_random_bivariate(rng, rng.randint(1, 6), 0),
                  _random_bivariate(rng, 0, rng.randint(1, 6))]
    cases += [X_, Y_, BiPoly({(1, 0): 1, (0, 1): 1}), BiPoly({(0, 0): 5}),
              BiPoly({(2, 0): 1, (0, 2): -1}), BiPoly({(2, 0): 1, (0, 2): 1}),
              BiPoly({(4, 0): 1, (0, 4): 4}), BiPoly({(4, 0): 1, (0, 0): 4})]
    return cases


def test_bivariate_irreducible_matches_sympy_on_the_corpus():
    cases = _bivariate_corpus()
    verdicts = [bivariate_irreducible(b) for b in cases]
    assert 200 < sum(verdicts) < len(cases) - 300
    for b, got in zip(cases, verdicts):
        assert got == sympy_irreducible(b), b
