"""The intersection pair rule: minimal polynomials, partner counts, balls."""

from fractions import Fraction as F

import mpmath
import pytest

from orbitforge.ball import CBall
from orbitforge.curves import (PlaneCurve, _min_level_roots, _partner_count,
                               intersect_small_orbit)
from orbitforge.dynamics import PolyDS
from orbitforge.exact import BiPoly, Poly
from orbitforge.rootcert import certified_roots

DS1 = PolyDS(Poly([-1, 0, 1]))


def _numeric_partners(P: BiPoly, fx: Poly, fy: Poly) -> set[int]:
    """For each root x of f_x, how many roots y of f_y give |P(x, y)| tiny."""
    counts = set()
    for bx in certified_roots(fx):
        hits = 0
        for by in certified_roots(fy):
            val = P.eval_with(bx, by, convert=CBall.from_rational)
            hits += val.abs_upper() < mpmath.mpf(10) ** -30
        counts.add(hits)
    return counts


def test_conjugate_partners_are_decided():
    # X^2 - Y^2 pairs x with both x and -x; at level 3 of X^2 - 1 at 1/3 the
    # point -x is a conjugate of x, which ball elimination alone cannot split
    curve = PlaneCurve.from_terms({(2, 0): 1, (0, 2): -1})
    rep = intersect_small_orbit(curve, DS1, F(1, 3), 3)
    assert rep.count() == 16
    assert rep.undecided == []


@pytest.mark.parametrize("terms, counts", [
    ({(1, 0): 2, (0, 1): 3, (0, 0): -1}, {0}),      # 2X + 3Y - 1
    ({(1, 0): 1, (0, 1): 1}, {0, 1}),               # X + Y
    ({(1, 0): 1, (0, 1): -1}, {0, 1}),              # X - Y
])
def test_line_partner_count_is_zero_or_one(terms, counts):
    P = BiPoly(terms)
    factors = sorted({r.factor for r in _min_level_roots(DS1, F(1, 3), 3)
                      if not r.exact}, key=lambda f: (f.degree, f.coeffs))
    seen = set()
    for fx in factors:
        for fy in factors:
            k = _partner_count(P, fx, fy)
            assert k in (0, 1)
            assert _numeric_partners(P, fx, fy) == {k}
            seen.add(k)
    assert seen == counts


def test_square_difference_counts_both_signs():
    P = BiPoly({(2, 0): 1, (0, 2): -1})                 # X^2 - Y^2
    sqrt2 = Poly([-2, 0, 1])
    assert _partner_count(P, sqrt2, sqrt2) == 2           # y = x and y = -x
    assert _partner_count(P, sqrt2, Poly([-3, 0, 1])) == 0
    # X - Y^2 against Y^4 - 2: only y = +-2^(1/4) square to x = sqrt(2)
    Q = BiPoly({(1, 0): 1, (0, 2): -1})
    fourth = Poly([-2, 0, 0, 0, 1])
    assert _partner_count(Q, sqrt2, fourth) == 2
    assert _numeric_partners(Q, sqrt2, fourth) == {2}


def test_axis_curves_pair_with_all_or_nothing():
    fy = Poly([-5, 0, 0, 1])                               # Y^3 - 5
    vertical = BiPoly({(2, 0): 1, (0, 0): -2})            # X^2 - 2
    assert _partner_count(vertical, Poly([-2, 0, 1]), fy) == 3
    assert _partner_count(vertical, Poly([-3, 0, 1]), fy) == 0
    horizontal = BiPoly({(0, 3): 1, (0, 0): -5})          # Y^3 - 5
    assert _partner_count(horizontal, Poly([-2, 0, 1]), fy) == 3
    assert _partner_count(horizontal, Poly([-2, 0, 1]), Poly([-7, 0, 0, 1])) == 0


def test_factor_of_every_coefficient_pairs_with_all():
    # (X^2 - 2)(Y^2 + X Y + 1): every Y-coefficient vanishes at x = sqrt(2)
    P = BiPoly({(0, 0): -2, (2, 0): 1, (1, 1): -2, (3, 1): 1,
                (0, 2): -2, (2, 2): 1})
    for fy in (Poly([-3, 0, 1]), Poly([1, 1, 1]), Poly([-5, 0, 0, 1])):
        assert _partner_count(P, Poly([-2, 0, 1]), fy) == fy.degree


def test_rational_y_needs_no_resultant_or_certification(monkeypatch):
    import orbitforge.exact as exact_mod
    import orbitforge.orbits as orbits_mod
    import orbitforge.rootcert as rootcert_mod

    def forbidden(*_args, **_kwargs):
        raise AssertionError("called for a rational y")

    monkeypatch.setattr(exact_mod, "poly_resultant", forbidden)
    monkeypatch.setattr(rootcert_mod, "certified_roots", forbidden)
    monkeypatch.setattr(orbits_mod, "certified_roots", forbidden)
    curve = PlaneCurve.from_terms({(2, 0): 9, (0, 1): 3, (0, 0): -18})
    rep = intersect_small_orbit(curve, DS1, F(1, 3), 3)
    assert rep.undecided == [] and any(pt.y.exact for pt in rep.points)
