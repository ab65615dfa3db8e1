"""Modular certificates of "no" in the curve tests.

A walk or a resultant modulo a prime may only prove non-division: every
divisibility over Q must pass it, at the default prime and at any small
prime that divides no denominator.  A small prime passes many levels and
pairs falsely, so it shows that the exact tests still decide every "yes";
a prime that divides a denominator must leave the input to exact arithmetic.
The pair rule's one exact test, the partner count, must answer what the
exact resultant ``exact.poly_resultant`` answers, which no library path
calls.
"""

import random
from fractions import Fraction as F

import pytest
from test_special_golden import _cases, _iterate_difference_factors, _maps

from orbitforge import curves
from orbitforge.curves import (NotSpecialUpTo, PlaneCurve, SpecialDiagonal,
                               SpecialVertical, _apart_mod, _axis_levels,
                               _diagonal_levels, _min_level_roots, _min_poly,
                               _pair_vanishes, _partner_count,
                               intersect_small_orbit, is_special_curve)
from orbitforge.dynamics import PolyDS
from orbitforge.exact import BiPoly, Poly, poly_resultant
from orbitforge.orbits import level_factors

P61 = 2 ** 61 - 1
SMALL = (2, 3, 5, 7, 11)
ALPHA = F(1, 3)


def _exact_only(monkeypatch):
    """Every level and every pair takes the exact test."""
    monkeypatch.setattr(curves, "_diagonal_levels", lambda *args: None)
    monkeypatch.setattr(curves, "_axis_levels", lambda *args: None)
    monkeypatch.setattr(curves, "_apart_mod", lambda *args: False)


@pytest.fixture(scope="module")
def golden():
    """The special-curve golden corpus with its verdicts at the default prime."""
    cases = list(_cases())
    return cases, [is_special_curve(curve, ds, ALPHA, nmax)
                   for _f, curve, ds, nmax in cases]


def _pair_corpus():
    """(P, systems' level roots) for seeded lines and conics and curves
    that meet the squared level sets in whole conjugate classes."""
    rng = random.Random(20261020)
    curves_ = [BiPoly({(2, 0): rng.randint(1, 3), (0, 2): rng.randint(-3, 3),
                       (1, 1): rng.randint(-2, 2), (1, 0): rng.randint(-3, 3),
                       (0, 1): rng.randint(1, 3), (0, 0): rng.randint(-5, 5)})
               for _ in range(8)]
    curves_ += [BiPoly({(1, 0): rng.randint(1, 5), (0, 1): rng.randint(1, 5),
                        (0, 0): rng.randint(-6, 6)}) for _ in range(4)]
    curves_ += [BiPoly(t) for t in (
        {(1, 0): 1, (0, 1): -1},                   # X - Y
        {(1, 0): 1, (0, 1): 1},                    # X + Y
        {(2, 0): 1, (0, 1): -1, (0, 0): -1},       # Y = X^2 - 1
        {(2, 0): 1, (0, 2): -1},                   # X^2 - Y^2
        {(2, 0): 9, (0, 0): -17},                  # vertical through level 2
        {(0, 1): 3, (0, 0): 1},                    # Y = -1/3
    )]
    systems = [(PolyDS(Poly([-1, 0, 1])), F(1, 3), 3),
               (PolyDS(Poly([-2, 0, 1])), F(1, 2), 3),
               (PolyDS(Poly([1, -1, 0, 1])), F(1, 2), 2)]
    return curves_, [_min_level_roots(ds, alpha, cap) for ds, alpha, cap in systems]


PAIR_CURVES, PAIR_ROOTS = _pair_corpus()
X_MINUS_Y = BiPoly({(1, 0): 1, (0, 1): -1})        # the README curve
DS1 = PolyDS(Poly([-1, 0, 1]))


def _min_polys(roots):
    return sorted({_min_poly(r) for r in roots}, key=lambda f: (f.degree, f.coeffs))


def _pair_decisions():
    """Every pair decision of the pair corpus, one memo per curve and set."""
    return [[_pair_vanishes(P, x, y, memo) for x in roots for y in roots]
            for P in PAIR_CURVES for roots in PAIR_ROOTS for memo in [{}]]


_RESULTANTS: dict = {}


def _resultant(P, fy):
    """Res_Y(f_y, P) over Q by ``exact.poly_resultant``, once per (P, f_y)."""
    if (P, fy) not in _RESULTANTS:
        _RESULTANTS[P, fy] = poly_resultant(fy, P)
    return _RESULTANTS[P, fy]


def _divides_resultant(P, fx, fy):
    """f_x divides Res_Y(f_y, P) over Q, a zero resultant included."""
    res = _resultant(P, fy)
    return res.is_zero or (res.degree >= 1 and res.divmod(fx)[1].is_zero)


# -- soundness -------------------------------------------------------------------

def test_iterate_difference_factors_pass_the_walk_at_their_level():
    seen = 0
    for f in _maps(random.Random(20261019)):
        for n in range(3):
            for curve in _iterate_difference_factors(f, n):
                rows = curve.poly.coeffs_in("y")
                assert len(rows) > 1 and rows[-1].degree == 0
                for prime in (P61,) + SMALL:
                    levels = _diagonal_levels(rows, f, n, prime)
                    assert levels is None or n in levels, (f, curve, prime)
                seen += 1
    assert seen == 51


def test_level_factors_pass_the_axis_walk_at_their_level():
    for ds, alpha, cap in ((PolyDS(Poly([-1, 0, 1])), F(1, 3), 4),
                           (PolyDS(Poly([-2, 0, 1])), F(1, 2), 3),
                           (PolyDS(Poly([1, -1, 0, 1])), F(1, 2), 2),
                           (PolyDS(Poly([-1, 0, 1])), F(0), 3)):
        for n, factors in enumerate(level_factors(ds, alpha, cap, cap)):
            for factor, _mult in factors:
                for prime in (P61,) + SMALL:
                    levels = _axis_levels(factor, ds.f, alpha, cap, prime)
                    assert levels is None or n in levels, (factor, prime)


def test_pair_filter_never_denies_a_division():
    divisions = denied = 0
    for P in PAIR_CURVES:
        for roots in PAIR_ROOTS:
            polys = _min_polys(roots)
            memos = {prime: {} for prime in (P61,) + SMALL}
            for fx in polys:
                for fy in polys:
                    divides = _divides_resultant(P, fx, fy)
                    divisions += divides
                    for prime, memo in memos.items():
                        apart = _apart_mod(P, fx, fy, memo, prime)
                        assert not (apart and divides), (P, fx, fy, prime)
                        denied += apart and prime == P61
                    if not divides:
                        # the default prime proves every "no" of this corpus
                        assert _apart_mod(P, fx, fy, memos[P61], P61), (P, fx, fy)
    assert (divisions, denied) == (47, 691)


# -- the partner count is the pair rule's one exact test ------------------------------

def test_partner_count_answers_the_exact_resultant():
    # Res_Y(f_y, P) = prod P(X, beta) over the roots beta of f_y: f_x divides
    # it exactly when some conjugate of y pairs with x, and it is 0 only when
    # every one does
    cases = [(P, roots) for P in PAIR_CURVES for roots in PAIR_ROOTS]
    cases += [(X_MINUS_Y, _min_level_roots(DS1, ALPHA, cap)) for cap in (3, 4)]
    pairs = zeros = 0
    for P, roots in cases:
        polys = _min_polys(roots)
        for fx in polys:
            for fy in polys:
                k = _partner_count(P, fx, fy)
                assert (k > 0) == _divides_resultant(P, fx, fy), (P, fx, fy)
                if _resultant(P, fy).is_zero:
                    assert k == fy.degree, (P, fx, fy)
                    zeros += 1
                pairs += 1
    assert (pairs, zeros) == (779, 4)


def test_no_library_path_calls_the_exact_resultant(monkeypatch):
    import orbitforge.exact as exact_mod

    def forbidden(*_args, **_kwargs):
        raise AssertionError("the exact resultant was called")

    monkeypatch.setattr(exact_mod, "poly_resultant", forbidden)
    rep = intersect_small_orbit(PlaneCurve.from_bipoly(X_MINUS_Y), DS1, ALPHA, 4)
    assert rep.count() == 16 and rep.undecided == []

    expected = _pair_decisions()
    _exact_only(monkeypatch)
    assert _pair_decisions() == expected


# -- the exact tests still decide every "yes" ---------------------------------------

@pytest.mark.parametrize("prime", [3, 5, 7])
def test_small_prime_false_passes_are_refused_exactly(monkeypatch, golden, prime):
    cases, verdicts = golden
    refused = []
    divides = curves._divides_iterate_difference

    def counting(rows, fn):
        ok = divides(rows, fn)
        refused.append(not ok)
        return ok
    monkeypatch.setattr(curves, "_divides_iterate_difference", counting)
    monkeypatch.setattr(curves, "_PRIME", prime)
    assert [is_special_curve(curve, ds, ALPHA, nmax)
            for _f, curve, ds, nmax in cases] == verdicts
    assert any(refused)


@pytest.mark.parametrize("prime", [3, 5, 7])
def test_small_prime_pair_passes_are_refused_exactly(monkeypatch, prime):
    expected = _pair_decisions()
    monkeypatch.setattr(curves, "_PRIME", prime)
    assert _pair_decisions() == expected
    # the corpus holds a false pass with a rational y, which only the
    # exact partner count refuses
    assert any(not _apart_mod(P, _min_poly(x), _min_poly(y), {}, prime)
               and _partner_count(P, _min_poly(x), _min_poly(y)) == 0
               for P in PAIR_CURVES for roots in PAIR_ROOTS
               for x in roots if not x.exact for y in roots if y.exact)


@pytest.mark.parametrize("prime", [2, 5, 7])
def test_axis_line_whose_degree_drops_mod_the_prime(monkeypatch, prime):
    # (5X + 1)(3X + 1): mod 5 only 3X + 1 is left, and it still holds the
    # orbit point -1/3 of level 1
    curve = PlaneCurve.from_terms({(2, 0): 15, (1, 0): 8, (0, 0): 1})
    monkeypatch.setattr(curves, "_PRIME", prime)
    v = is_special_curve(curve, PolyDS(Poly([-1, 0, 1])), ALPHA, 3)
    assert isinstance(v, SpecialVertical) and (v.beta, v.level) == (F(-1, 3), 1)
    assert v.factor == Poly([F(1, 3), 1])


# -- a prime that divides a denominator leaves the input to exact arithmetic ---

def test_denominator_divisible_by_the_prime_falls_back(monkeypatch):
    tiny = F(1, P61)
    ds = PolyDS(Poly([tiny, 0, 1]))                 # X^2 + 1/(2^61 - 1)
    anti = PlaneCurve.from_terms({(1, 0): 1, (0, 1): 1})
    line = PlaneCurve.from_terms({(1, 0): 1, (0, 1): -1, (0, 0): -1})
    five = PlaneCurve.from_terms({(1, 0): 1, (0, 0): -5})
    through = PlaneCurve.from_terms({(1, 0): P61, (0, 0): 1})     # X = -alpha
    lead = PlaneCurve.from_terms({(1, 0): 1, (0, 1): P61})         # P61 Y + X
    d1 = PolyDS(Poly([-1, 0, 1]))
    assert _diagonal_levels(anti.poly.coeffs_in("y"), ds.f, 3, P61) is None
    assert _axis_levels(five.poly.coeffs_in("y")[0], d1.f, tiny, 3, P61) is None
    assert is_special_curve(anti, ds, ALPHA, 3) == SpecialDiagonal(1)
    assert is_special_curve(line, ds, ALPHA, 3) == NotSpecialUpTo(3)
    assert is_special_curve(lead, d1, ALPHA, 3) == NotSpecialUpTo(3)
    assert is_special_curve(five, d1, tiny, 3) == NotSpecialUpTo(3)
    v = is_special_curve(through, d1, tiny, 3)
    assert isinstance(v, SpecialVertical) and (v.beta, v.level) == (-tiny, 1)
    # level 2 of 1/(2^61 - 1) is the pair of roots of X^2 - 2 + tiny^2
    roots = _min_level_roots(d1, tiny, 2)
    assert all(r.exact or r.factor.coeff(0).denominator % P61 == 0 for r in roots)

    def decide():
        return [_pair_vanishes(c.poly, x, y, memo) for c in (anti, line, through)
                for memo in [{}] for x in roots for y in roots]
    expected = decide()
    assert True in expected and False in expected
    _exact_only(monkeypatch)
    assert decide() == expected
