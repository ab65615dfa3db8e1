"""Exact factorization over Q, bridged to sympy.

Only two services are used: univariate factor lists and bivariate
irreducibility.  Everything returned is converted back to this package's
exact types, with monic normalization for univariate factors.

sympy is imported inside the two functions, on the first call that needs
it, not when this module is imported: Green functions, heights, Boettcher
series, p-adic polygons and the lattice lemmas never factor, and importing
sympy is most of a cold start.  It is loaded by ``bivariate_irreducible``
and by ``factor_rational`` on a polynomial of degree >= 2.  A degree-1
polynomial is its own monic factor, so ``factor_rational`` returns it
without sympy; that is exactly sympy's answer, and it keeps the critical
points of quadratic maps (f' of degree 1) from loading sympy.
"""

from __future__ import annotations

from fractions import Fraction

from .exact import BiPoly, Poly


def factor_rational(p: Poly) -> list[tuple[Poly, int]]:
    """Irreducible monic factors of p over Q with multiplicities."""
    if p.degree < 1:
        return []
    if p.degree == 1:
        return [(p.scale(1 / p.lead), 1)]
    import sympy

    x = sympy.Symbol("x")
    sp = sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                     for c in reversed(p.coeffs)], x, domain="QQ")
    _, factors = sp.factor_list()
    out = []
    for fac, mult in factors:
        cs = sympy.Poly(fac.as_expr(), x, domain="QQ").all_coeffs()
        q = Poly([Fraction(int(c.numerator), int(c.denominator))
                  for c in reversed(cs)])
        if q.degree < 1:
            continue
        out.append((q.scale(1 / q.lead), int(mult)))
    out.sort(key=lambda t: (t[0].degree, t[0].coeffs))
    return out


def bivariate_irreducible(b: BiPoly) -> bool:
    """Irreducibility over Q (not over Qbar) for a nonconstant BiPoly."""
    if b.total_degree < 1:
        return False
    import sympy

    x, y = sympy.symbols("x y")
    expr = sympy.Integer(0)
    for (i, j), c in b.terms:
        expr += sympy.Rational(c.numerator, c.denominator) * x**i * y**j
    content, factors = sympy.Poly(expr, x, y, domain="QQ").factor_list()
    nontrivial = [(f, m) for f, m in factors if sympy.Poly(f, x, y).total_degree() > 0]
    return len(nontrivial) == 1 and nontrivial[0][1] == 1
