"""Exact factorization over Q, bridged to sympy.

Only two services are used: univariate factor lists and bivariate
irreducibility.  Everything returned is converted back to this package's
exact types, with monic normalization for univariate factors.
"""

from __future__ import annotations

from fractions import Fraction

import sympy

from .exact import BiPoly, Poly

_X, _Y = sympy.symbols("x y")


def _poly_to_sympy(p: Poly):
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                       for c in reversed(p.coeffs)], _X, domain="QQ")


def _sympy_to_poly(expr) -> Poly:
    sp = sympy.Poly(expr, _X, domain="QQ")
    return Poly([Fraction(int(c.numerator), int(c.denominator))
                 for c in reversed(sp.all_coeffs())])


def factor_rational(p: Poly) -> list[tuple[Poly, int]]:
    """Irreducible monic factors of p over Q with multiplicities."""
    if p.degree < 1:
        return []
    _, factors = _poly_to_sympy(p).factor_list()
    out = []
    for fac, mult in factors:
        q = _sympy_to_poly(fac.as_expr())
        if q.degree < 1:
            continue
        out.append((q.scale(1 / q.lead), int(mult)))
    out.sort(key=lambda t: (t[0].degree, t[0].coeffs))
    return out


def _bipoly_to_sympy(b: BiPoly):
    expr = sympy.Integer(0)
    for (i, j), c in b.terms:
        expr += sympy.Rational(c.numerator, c.denominator) * _X**i * _Y**j
    return expr


def bivariate_irreducible(b: BiPoly) -> bool:
    """Irreducibility over Q (not over Qbar) for a nonconstant BiPoly."""
    if b.total_degree < 1:
        return False
    poly = sympy.Poly(_bipoly_to_sympy(b), _X, _Y, domain="QQ")
    content, factors = poly.factor_list()
    nontrivial = [(f, m) for f, m in factors if sympy.Poly(f, _X, _Y).total_degree() > 0]
    return len(nontrivial) == 1 and nontrivial[0][1] == 1
