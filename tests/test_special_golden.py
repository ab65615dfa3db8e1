"""Golden digest of ``curves.is_special_curve`` verdicts.

Seeded maps of degree 2 to 4 against lines, conics and cubics (with a
constant and with an X-dependent Y-leading coefficient), axis lines through
orbit points and elsewhere, X*(X - Y), (X - Y)^2, and every irreducible
factor of f^n(X) - f^n(Y) for n <= 2, factored here by sympy.  The digest
was recorded from the implementation that divided the whole bivariate
polynomial f^n(X) - f^n(Y) by the curve, level by level.
"""

import hashlib
import random
from fractions import Fraction as F

import sympy

from orbitforge.curves import PlaneCurve, SpecialDiagonal, is_special_curve
from orbitforge.dynamics import PolyDS
from orbitforge.exact import Poly

SPECIAL_DIGEST = "7f354bac55c8790924bd2cb80fee58c95619d532e4b5a555e24451275ff5754a"
ALPHA = F(1, 3)
NMAX = {2: 3, 3: 2, 4: 2}


def _coeff(rng):
    return F(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))


def _maps(rng):
    fixed = [Poly([-1, 0, 1]), Poly([0, -3, 0, 1]), Poly([0, 0, 1, 0, 1]),
             Poly([F(1, 2), 1, 1, 1, 1])]
    seeded = [Poly([_coeff(rng) for _ in range(d)] + [1]) for d in (2, 3, 3, 4)]
    return fixed + seeded


def _random_curve(rng, degree, constant_lead):
    """A curve of total degree at most ``degree`` and Y-degree k >= 1 whose
    Y-leading coefficient is a constant, or has an X term."""
    k = rng.randint(1, degree if constant_lead else degree - 1)
    terms = {(i, j): _coeff(rng) for j in range(k)
             for i in range(degree + 1 - j) if rng.random() < 0.5}
    terms[(0, k)] = _coeff(rng)
    if not constant_lead:
        terms[(rng.randint(1, degree - k), k)] = _coeff(rng)
    return PlaneCurve.from_terms(terms)


def _iterate_difference_factors(f, n):
    x, y = sympy.symbols("x y")
    fx = x
    for _ in range(n):
        fx = sum(sympy.Rational(c.numerator, c.denominator) * fx ** i
                 for i, c in enumerate(f.coeffs))
    diff = sympy.Poly(sympy.expand(fx - fx.subs(x, y)), x, y, domain="QQ")
    out = []
    for fac, _mult in diff.factor_list()[1]:
        terms = {monom: F(int(c.p), int(c.q)) for monom, c in fac.terms()}
        out.append(PlaneCurve.from_terms(terms))
    return sorted(out, key=lambda c: c.poly.terms)


def _cases():
    rng = random.Random(20261019)
    for f in _maps(rng):
        ds, d = PolyDS(f), f.degree
        curves = [_random_curve(rng, degree, constant_lead)
                  for degree, constant_lead in ((1, True), (2, True), (2, False),
                                                (3, True), (3, False))
                  for _ in range(2)]
        curves += [PlaneCurve.from_terms(t) for t in (
            {(1, 0): 3, (0, 0): 1},                     # X = -1/3
            {(0, 1): 3, (0, 0): 1},                     # Y = -1/3
            {(1, 0): 1, (0, 0): -7},                    # X = 7
            {(0, 2): 9, (0, 0): -17},                   # Y^2 = 17/9
            {(2, 0): 1, (1, 1): -1},                    # X (X - Y)
            {(2, 0): 1, (1, 1): -2, (0, 2): 1},         # (X - Y)^2
        )]
        for n in range(3):
            curves += _iterate_difference_factors(f, n)
        for curve in curves:
            yield f, curve, ds, NMAX[d]


def test_special_verdict_digest():
    lines, specials = [], 0
    for f, curve, ds, nmax in _cases():
        verdict = is_special_curve(curve, ds, ALPHA, nmax)
        specials += isinstance(verdict, SpecialDiagonal)
        lines.append(f"{f!r} {curve.poly!r} {verdict!r}")
    assert (len(lines), specials) == (179, 51)
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == SPECIAL_DIGEST
