"""Dynamical systems: normalization, exceptional maps, escape, preperiodicity."""

from fractions import Fraction as F

import pytest

from orbitforge.config import DEFAULTS
from orbitforge.dynamics import (PolyDS, Preperiodic, Wandering,
                                 _rational_kth_root, classify_orbit,
                                 depress, detect_exceptional,
                                 escaping_critical_points,
                                 find_place_of_good_reduction_escape,
                                 normalize_monic)
from orbitforge.errors import DomainError, PrecisionError, UndecidedError
from orbitforge.exact import Poly, _v_p

DS = PolyDS(Poly([-1, 0, 1]))      # X^2 - 1


def _iterate(f: Poly, n: int) -> Poly:
    """The n-th compositional iterate of f by n compositions; X for n = 0."""
    out = Poly.x()
    for _ in range(n):
        out = out.compose(f)
    return out


# -- normalization ---------------------------------------------------------

def test_normalize_examples():
    ds, scale = normalize_monic(Poly([0, 0, 2]))
    assert ds.f == Poly([0, 0, 1]) and scale == 2

    monic = Poly([4, -1, 0, 1])
    ds2, scale2 = normalize_monic(monic)
    assert ds2.f == monic and scale2 == 1

    ds3, scale3 = normalize_monic(Poly([0, 0, 0, 3]))
    assert ds3.f == Poly.monomial(3)
    assert scale3 is None              # the scale sqrt(3) is irrational


def test_normalize_conjugation_commutes_with_iteration():
    g = Poly([1, -2, 0, 0, 2])        # degree 4, lead 2: c^3 = 2 irrational
    with pytest.raises(DomainError):
        normalize_monic(g)            # no rational monic conjugate exists
    g2 = Poly([3, 0, 2])              # lead 2, d=2: c = 2 rational
    ds, c = normalize_monic(g2)
    L = Poly([0, c])
    Linv = Poly([0, 1 / c])
    for n in range(1, 4):
        lhs = ds.iterate(n)
        rhs = L.compose(_iterate(g2, n)).compose(Linv)
        assert lhs == rhs


def test_kth_root_is_exact_beyond_float_range():
    # roots were rounded from floats: wrong above 2^53, OverflowError >1e308
    c = 10**30 + 7
    assert _rational_kth_root(F(c**2), 2) == c
    assert _rational_kth_root(F(c**2 + 1), 2) is None
    ds, scale = normalize_monic(Poly([1, 1, 0, c**2]))
    assert scale == c and ds.f.lead == 1
    assert _rational_kth_root(F(10**400), 2) == 10**200
    assert _rational_kth_root(F(-(10**399), 7**300), 3) == F(-(10**133), 7**100)
    ds, scale = normalize_monic(Poly([0, 1, 0, 10**400]))
    assert scale == 10**200


# -- exceptional detection ---------------------------------------------------

def test_detect_exceptional_examples():
    assert detect_exceptional(PolyDS(Poly([-2, 0, 1]))).kind == "chebyshev"
    assert detect_exceptional(DS).kind is None
    assert detect_exceptional(PolyDS(Poly.monomial(3))).kind == "power"
    # monic form of the negated degree-3 Chebyshev: X^3 + 3X
    assert detect_exceptional(PolyDS(Poly([0, 3, 0, 1]))).kind == "neg-chebyshev"
    # degree-5 alternating flip is Chebyshev over an extension only
    from orbitforge.dynamics import chebyshev_monic, _alternating_flip
    flip5 = _alternating_flip(chebyshev_monic(5))
    verdict = detect_exceptional(PolyDS(flip5))
    assert verdict.kind == "chebyshev" and verdict.over_extension


def test_detect_exceptional_translation_invariant():
    for t in range(-2, 3):
        shift = Poly([t, 1])
        unshift = Poly([-t, 1])
        for f, kind in ((Poly([-2, 0, 1]), "chebyshev"),
                        (Poly.monomial(2), "power"),
                        (Poly([-1, 0, 1]), None)):
            conj = shift.compose(f).compose(unshift)
            assert detect_exceptional(PolyDS(conj)).kind == kind


def test_depress_kills_subleading_term():
    f = Poly([5, -3, 4, 1])
    dep = depress(f)
    assert dep.coeff(dep.degree - 1) == 0


# -- critical escape -----------------------------------------------------------

def test_escaping_critical_points_examples():
    rep = escaping_critical_points(DS)
    assert not rep.escaping and len(rep.bounded) == 1

    rep6 = escaping_critical_points(PolyDS(Poly([-6, 0, 1])))
    assert len(rep6.escaping) == 1

    rep_sq = escaping_critical_points(PolyDS(Poly.monomial(2)))
    assert not rep_sq.escaping


def test_zero_budgets_are_not_defaults():
    with pytest.raises(DomainError):
        escaping_critical_points(PolyDS(DS.f, DEFAULTS.replace(max_iterations=0)))
    # 0 -> -1 -> 0 needs two steps; a budget of 0 must not become 512
    with pytest.raises(UndecidedError):
        classify_orbit(DS, F(0), budget=0)


# -- preperiodicity ---------------------------------------------------------------

def test_is_preperiodic_examples():
    out = classify_orbit(DS, F(0))
    assert isinstance(out, Preperiodic) and out.period == 2

    out = classify_orbit(DS, F(1, 3))
    assert isinstance(out, Wandering)
    assert out.place.place == 3
    assert out.place.good_reduction and out.place.coprime_to_d

    out = classify_orbit(PolyDS(Poly.monomial(2)), F(1))
    assert isinstance(out, Preperiodic) and out.period == 1


def test_agrees_with_brute_force_orbit_tables():
    # quadratic corpus X^2 + c, |c| <= 10: monic integer model, so any
    # non-integer rational wanders (denominators square); integers either
    # cycle or cross the escape radius quickly
    points = [F(0), F(1), F(-1), F(2), F(1, 2), F(-1, 3), F(3), F(5, 2)]
    for c in range(-10, 11):
        ds = PolyDS(Poly([c, 0, 1]))
        for alpha in points:
            verdict = classify_orbit(ds, alpha)
            expected = _brute_force(ds, alpha, 50)
            assert isinstance(verdict, Preperiodic) == (expected == "preperiodic"), \
                (c, alpha, verdict, expected)


def _brute_force(ds: PolyDS, alpha: F, steps: int) -> str:
    if alpha.denominator > 1:
        return "wandering"            # denominators strictly grow under monic integer f
    seen = {alpha}
    x = alpha
    for _ in range(steps):
        x = ds.apply(x)
        if x in seen:
            return "preperiodic"
        if abs(x) > ds.escape_radius:
            return "wandering"
        seen.add(x)
    return "preperiodic"


def test_wandering_place_strictly_increases():
    for alpha in (F(1, 3), F(5, 3), F(3)):
        verdict = classify_orbit(DS, alpha)
        assert isinstance(verdict, Wandering)
        report = verdict.place
        x = alpha
        for _ in range(report.escape_iterate):
            x = DS.apply(x)
        if report.place is None:
            prev = abs(x)
            for _ in range(10):
                x = DS.apply(x)
                assert abs(x) > prev
                prev = abs(x)
        else:
            p = report.place
            prev = _v_p(x, p)
            for _ in range(10):
                x = DS.apply(x)
                cur = _v_p(x, p)
                assert cur < prev     # |f^n(alpha)|_p strictly increasing
                prev = cur


# -- good-reduction escape place ------------------------------------------------

def test_find_place_examples():
    res = find_place_of_good_reduction_escape(DS, F(1, 3))
    assert res.qualifying.place == 3

    res = find_place_of_good_reduction_escape(DS, F(5, 3))
    assert res.qualifying.place == 3

    res = find_place_of_good_reduction_escape(DS, F(3))
    assert res.qualifying is None and res.archimedean is not None

    with pytest.raises(DomainError):
        find_place_of_good_reduction_escape(DS, F(0))


def test_place_rejected_when_dividing_degree():
    # alpha = 1/2 under X^2 - 1 escapes 2-adically but 2 | d: not qualifying
    res = find_place_of_good_reduction_escape(DS, F(1, 2))
    assert res.qualifying is None
    assert any(r.place == 2 and not r.coprime_to_d for r in res.rejected)


def test_place_report_invariants():
    assert DS.good_reduction(3) and DS.good_reduction(2)
    bad = PolyDS(Poly([F(-1, 5), 0, 1]))
    assert not bad.good_reduction(5)
    assert DS.coprime_to_degree(3) and not DS.coprime_to_degree(2)


def test_padic_escape_agrees_with_exact_orbit():
    for c in (F(-1), F(1, 3), F(-2, 9), F(5, 27), F(-1, 9)):
        ds = PolyDS(Poly([c, 0, 1]))
        for alpha in (F(0), F(1, 3), F(2, 9), F(4), F(-5, 3)):
            x, expected = alpha, None
            for n in range(7):
                if x != 0 and -_v_p(x, 3) > ds.padic_escape_radius_exponent(3):
                    expected = (n, _v_p(x, 3))
                    break
                x = ds.apply(x)
            assert ds.padic_escape(alpha, 3, 6) == expected, (c, alpha)


def test_padic_escape_doubles_digits_then_raises(monkeypatch):
    # X^2 - 1/9 at 1/3: the 3-adic orbit 1/3, 0, -1/9 escapes at n = 2, but
    # it passes through zero, so at one digit that step loses every digit
    ds = PolyDS(Poly([F(-1, 9), 0, 1]), DEFAULTS.replace(padic_digits=1))
    assert ds.padic_escape(F(1, 3), 3, 10) == (2, -2)
    # an exhausted prime raises; it is not reported as non-escaping
    import orbitforge.dynamics as dyn
    monkeypatch.setattr(dyn, "_MAX_PADIC_DIGITS", 1)
    with pytest.raises(PrecisionError):
        find_place_of_good_reduction_escape(ds, F(1, 3))
