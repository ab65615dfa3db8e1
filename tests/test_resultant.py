"""Res_Y(f_y, P), the exact reference for the pair rule's modular
resultant and partner count.

A digest of ``exact.poly_resultant`` over seeded lines, conics and cubics
against monic f_y of degree 1..8, recorded from the Sylvester-determinant
implementation that evaluation and interpolation replaced; and properties
of ``exact.poly_resultant`` that hold whatever algorithm computes it.
"""

import hashlib
import random
from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from orbitforge.exact import BiPoly, Poly, poly_resultant

ELIMINATION_DIGEST = "8e68a4170bfe04ba2950218fa83b31a14113af2e44a8692a97db539dc2765012"


def _coeff(rng):
    return F(rng.choice([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5]), rng.randint(1, 4))


def _random_curve(rng, degree):
    """A random curve of total degree ``degree`` with a Y term, and with an
    X*Y term from degree 2 on."""
    terms = {(i, j): _coeff(rng) for i in range(degree + 1)
             for j in range(degree + 1 - i) if rng.random() < 0.6}
    terms[(0, 1)] = _coeff(rng)
    if degree >= 2:
        terms[(1, 1)] = _coeff(rng)
    terms[(degree - 1, 1) if degree > 1 else (1, 0)] = _coeff(rng)
    return BiPoly(terms)


def _random_monic(rng, degree):
    return Poly([F(rng.randint(-4, 4), rng.randint(1, 3))
                 for _ in range(degree)] + [1])


def _elimination_cases():
    rng = random.Random(20261018)
    out = []
    for degree in (1, 2, 3):
        for k in range(1, 9):
            for _ in range(2):
                out.append((_random_curve(rng, degree), _random_monic(rng, k)))
    out.append((BiPoly({(2, 0): 1, (0, 0): F(-1, 3)}), _random_monic(rng, 5)))   # no Y
    return out


def test_elimination_digest():
    lines = [repr(poly_resultant(fy, P)) for P, fy in _elimination_cases()]
    assert len(lines) == 49
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == ELIMINATION_DIGEST


small = st.fractions(min_value=-4, max_value=4, max_denominator=3)
monic = st.lists(small, min_size=1, max_size=5).map(lambda cs: Poly(cs + [1]))
univariate = st.lists(small, min_size=1, max_size=4).map(Poly)
bivariate = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)), small, max_size=5).map(BiPoly)


def _product(P, Q):
    """P*Q on term tables."""
    terms: dict = {}
    for (i1, j1), a in P.terms:
        for (i2, j2), b in Q.terms:
            key = (i1 + i2, j1 + j2)
            terms[key] = terms.get(key, 0) + a * b
    return BiPoly(terms)


@given(monic, univariate)
@settings(max_examples=40, deadline=None)
def test_resultant_with_a_graph_is_a_composition(f, g):
    # Res_Y(f, Y - g(X)) = prod (beta - g(X)) = (-1)^deg f f(g(X))
    P = BiPoly({(0, 1): 1, **{(i, 0): -c for i, c in enumerate(g.coeffs)}})
    expected = f.compose(g)
    assert poly_resultant(f, P) == (expected if f.degree % 2 == 0 else -expected)


@given(monic, univariate)
@settings(max_examples=40, deadline=None)
def test_resultant_with_no_y_is_a_power(f, c):
    P = BiPoly({(i, 0): a for i, a in enumerate(c.coeffs)})
    assert poly_resultant(f, P) == c ** f.degree


@given(monic, bivariate, bivariate)
@settings(max_examples=40, deadline=None)
def test_resultant_is_multiplicative(f, P, Q):
    assert poly_resultant(f, _product(P, Q)) == poly_resultant(f, P) * poly_resultant(f, Q)


@given(monic, bivariate)
@settings(max_examples=40, deadline=None)
def test_resultant_degree_bound(f, P):
    assert poly_resultant(f, P).degree <= f.degree * max(P.deg_x, 0)
