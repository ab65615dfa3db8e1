"""Curves against orbits: classification, intersections, commuting maps, nu."""

import random
from fractions import Fraction as F

import mpmath
import pytest

from orbitforge import curves
from orbitforge.ball import CBall
from orbitforge.config import Settings
from orbitforge.curves import (NotSpecialUpTo, PlaneCurve, RootRef,
                               SpecialDiagonal, SpecialVertical,
                               _ball_step, _min_level_roots,
                               build_nu, commuting_linear, intersect_small_orbit,
                               is_special_curve, nu_estimates)
from orbitforge.dynamics import PolyDS
from orbitforge.errors import DomainError, ResourceError, WindowError
from orbitforge.exact import BiPoly, Poly
from orbitforge.factor import bivariate_irreducible, factor_rational
from orbitforge.orbits import level_polynomial, level_roots
from orbitforge.padic import PadicScalar, Radius, sup_norm, teichmuller

DS1 = PolyDS(Poly([-1, 0, 1]))
CORPUS_F = [Poly([-1, 0, 1]), Poly([0, 0, 1]), Poly([-6, 0, 1]),
            Poly([-2, 0, 1]), Poly([1, -1, 0, 1])]

DIAG = PlaneCurve.from_terms({(1, 0): 1, (0, 1): -1})            # X - Y
ANTI = PlaneCurve.from_terms({(1, 0): 1, (0, 1): 1})             # X + Y
VERT = PlaneCurve.from_terms({(1, 0): 3, (0, 0): 1})             # 3X + 1
LINE = PlaneCurve.from_terms({(1, 0): 1, (0, 1): -1, (0, 0): -1})  # X - Y - 1


def test_plane_curve_construction():
    assert DIAG.irreducible_q
    assert (DIAG.poly.deg_y, DIAG.poly.deg_x) == (1, 1)
    conic = PlaneCurve.from_terms({(2, 0): 1, (0, 1): -1})
    assert (conic.poly.deg_y, conic.poly.deg_x) == (1, 2)
    with pytest.raises(DomainError):
        PlaneCurve.from_terms({(0, 0): 3})


def test_irreducibility_is_decided_only_when_read(monkeypatch):
    calls = []

    def counting(b):
        calls.append(b)
        return bivariate_irreducible(b)
    monkeypatch.setattr(curves, "bivariate_irreducible", counting)
    reducible = PlaneCurve.from_terms({(2, 0): 2, (0, 2): -2})    # 2(X - Y)(X + Y)
    irreducible = PlaneCurve.from_terms({(2, 0): 1, (0, 1): -1})  # X^2 - Y
    assert calls == []
    assert reducible.poly == BiPoly({(2, 0): 1, (0, 2): -1})
    for curve in (reducible, irreducible):
        assert curve.irreducible_q == bivariate_irreducible(curve.poly)
    assert not reducible.irreducible_q and irreducible.irreducible_q
    assert calls == [reducible.poly, irreducible.poly] * 2


def test_diagonal_divides_every_iterate_difference():
    rows = DIAG.poly.coeffs_in("y")
    for f in CORPUS_F:
        ds = PolyDS(f)
        for n in range(0, 4):
            assert curves._divides_iterate_difference(rows, ds.iterate(n))
            assert is_special_curve(DIAG, ds, F(1, 3), n) == SpecialDiagonal(0)


def test_non_constant_y_lead_builds_no_iterate(monkeypatch):
    # f^n(X) - f^n(Y) has Y-leading coefficient -1, so a curve whose
    # Y-leading coefficient depends on X divides no level
    def no_iterate(self, n):
        raise AssertionError("built an iterate")

    monkeypatch.setattr(PolyDS, "iterate", no_iterate)
    for terms in ({(2, 0): 1, (1, 1): -1},                  # X (X - Y)
                  {(1, 1): 1, (0, 0): -1},                  # XY - 1
                  {(1, 2): 1, (0, 1): 3, (2, 0): -2}):      # X Y^2 + 3Y - 2X^2
        curve = PlaneCurve.from_terms(terms)
        assert is_special_curve(curve, DS1, F(1, 3), 5) == NotSpecialUpTo(5)


def _count_divisions(monkeypatch) -> list[int]:
    """The degrees of f^n at which ``_divides_iterate_difference`` runs."""
    calls = []
    divides = curves._divides_iterate_difference

    def counting(rows, fn):
        calls.append(fn.degree)
        return divides(rows, fn)
    monkeypatch.setattr(curves, "_divides_iterate_difference", counting)
    return calls


def test_not_special_line_makes_no_exact_division(monkeypatch):
    # every level of X - Y - 1 is proven not to divide modulo the prime
    calls = _count_divisions(monkeypatch)
    assert is_special_curve(LINE, DS1, F(1, 3), 4) == NotSpecialUpTo(4)
    assert calls == []


@pytest.mark.parametrize("nmax", [6, 12])
def test_special_line_divides_once_at_its_level(monkeypatch, nmax):
    # X + Y passes the modular walk from level 1 on; only level 1 is divided
    calls = _count_divisions(monkeypatch)
    assert is_special_curve(ANTI, DS1, F(1, 3), nmax) == SpecialDiagonal(1)
    assert calls == [2]


def test_not_special_line_past_the_degree_cap_answers(monkeypatch):
    # no level is left for the exact test, so no iterate past the cap is built
    calls = _count_divisions(monkeypatch)
    capped = PolyDS(Poly([-1, 0, 1]), Settings(max_poly_degree=8))
    assert is_special_curve(LINE, capped, F(1, 3), 30) == NotSpecialUpTo(30)
    assert is_special_curve(ANTI, capped, F(1, 3), 30) == SpecialDiagonal(1)
    assert calls == [2]
    # a level left past the cap is still refused: X^2 + Y^2 - 2 divides
    # f^2(X) - f^2(Y) = (X^2 - Y^2)(X^2 + Y^2 - 2), of degree 4 > 2
    circle = PlaneCurve.from_terms({(2, 0): 1, (0, 2): 1, (0, 0): -2})
    assert is_special_curve(circle, DS1, F(1, 3), 3) == SpecialDiagonal(2)
    with pytest.raises(ResourceError):
        is_special_curve(circle, PolyDS(Poly([-1, 0, 1]), Settings(max_poly_degree=2)),
                         F(1, 3), 3)


def test_axis_line_past_the_level_cap_answers():
    # X = 5 meets no level set of 1/3 under X^2 - 1: every level is proven
    # coprime modulo the prime, so nmax 20 (past orbit_degree_cap at level
    # 13) needs no level polynomial
    line = PlaneCurve.from_terms({(1, 0): 1, (0, 0): -5})
    assert is_special_curve(line, DS1, F(1, 3), 20) == NotSpecialUpTo(20)
    v = is_special_curve(VERT, DS1, F(1, 3), 20)
    assert isinstance(v, SpecialVertical) and (v.beta, v.level) == (F(-1, 3), 1)


def test_special_classification_examples():
    for f in CORPUS_F:
        assert is_special_curve(DIAG, PolyDS(f), F(1, 3), 2) == SpecialDiagonal(0)
    assert is_special_curve(ANTI, DS1, F(1, 3), 2) == SpecialDiagonal(1)
    v = is_special_curve(VERT, DS1, F(1, 3), 2)
    assert isinstance(v, SpecialVertical) and v.beta == F(-1, 3) and v.level == 1
    assert is_special_curve(LINE, DS1, F(1, 3), 3) == NotSpecialUpTo(3)


def test_special_vertical_through_irrational_orbit_point():
    # 9X^2 - 17: vertical lines through the conjugate pair of level 2
    curve = PlaneCurve.from_terms({(2, 0): 9, (0, 0): -17})
    v = is_special_curve(curve, DS1, F(1, 3), 3)
    assert isinstance(v, SpecialVertical) and v.beta is None and v.level == 2
    assert v.factor == Poly([F(-17, 9), 0, 1])


def test_special_horizontal():
    curve = PlaneCurve.from_terms({(0, 1): 3, (0, 0): 1})        # 3Y + 1
    from orbitforge.curves import SpecialHorizontal
    v = is_special_curve(curve, DS1, F(1, 3), 2)
    assert isinstance(v, SpecialHorizontal) and v.beta == F(-1, 3)


def test_vertical_beta_satisfies_level_equation():
    v = is_special_curve(VERT, DS1, F(1, 3), 2)
    fn = DS1.iterate(v.level)
    assert fn(v.beta) == fn(F(1, 3))


# -- intersections -----------------------------------------------------------------

def test_diagonal_intersections():
    rep = intersect_small_orbit(DIAG, DS1, F(1, 3), 2)
    assert rep.count() == 4           # (1/3,1/3), (-1/3,-1/3), two conjugate pairs
    assert rep.levels_hit() == {0, 1, 2}
    assert not rep.undecided and not rep.exceeds_bezout


def test_vertical_intersections():
    rep = intersect_small_orbit(VERT, DS1, F(1, 3), 2)
    # (-1/3, beta2) for every level-<=2 point beta2
    assert rep.count() == 4
    assert all(pt.x.value == F(-1, 3) for pt in rep.points)


def test_nonspecial_line_has_few_points():
    rep = intersect_small_orbit(LINE, DS1, F(1, 3), 3)
    assert isinstance(rep.verdict, NotSpecialUpTo)
    assert rep.count() <= rep.bezout_bound
    assert not rep.exceeds_bezout


def test_preperiodic_alpha_warns():
    rep = intersect_small_orbit(DIAG, DS1, F(0), 1)
    assert rep.preperiodic_warning


def _level_roots_reference(ds, alpha, cap):
    """Every level 0..cap, each whole level polynomial factored at once,
    keeping first appearances."""
    out, seen_values, seen_factors = [], set(), set()
    for n in range(cap + 1):
        rational, batches = level_roots(
            factor_rational(level_polynomial(ds, alpha, n, n)[1]))
        for root, _m in rational:
            if root not in seen_values:
                seen_values.add(root)
                out.append(RootRef(root, None, CBall.from_rational(root), n))
        for batch in batches:
            if batch.factor not in seen_factors:
                seen_factors.add(batch.factor)
                out.extend(RootRef(None, batch.factor, ball, n)
                           for ball in batch.roots)
    return out


@pytest.mark.parametrize("f, alpha, cap", [
    (Poly([-1, 0, 1]), F(1, 3), 4),
    (Poly([-1, 0, 1]), F(0), 3),          # critical, preperiodic: repeated roots
    (Poly([-2, 0, 1]), F(1, 2), 3),
    (Poly([1, -1, 0, 1]), F(1, 2), 2),
    (Poly([1, -1, 0, 1]), F(1, 2), 3),    # the d >= 3 step
])
def test_level_roots_from_quotients_match_every_level(f, alpha, cap):
    # pulled-back balls are other certificates of the same roots: same
    # points, factors, levels and order, each ball meeting the reference's;
    # a critical alpha takes the per-factor certifier and gives its balls
    ds = PolyDS(f)
    mine = _min_level_roots(ds, alpha, cap)
    reference = _level_roots_reference(ds, alpha, cap)
    if f.derivative()(alpha) == 0:
        assert mine == reference
    assert [(r.value, r.factor, r.level) for r in mine] == \
        [(r.value, r.factor, r.level) for r in reference]
    for a, b in zip(mine, reference):
        assert (a.ball - b.ball).contains_zero()


def test_level_roots_keep_the_degree_cap(monkeypatch):
    # the cap is checked for every level before any level is factored
    import orbitforge.orbits as orbits_mod

    def no_factoring(_p):
        raise AssertionError("factored a level below the cap first")

    monkeypatch.setattr(orbits_mod, "factor_rational", no_factoring)
    ds = PolyDS(Poly([-1, 0, 1]), Settings(orbit_degree_cap=8))
    with pytest.raises(ResourceError, match=r"level degree 2\^4 exceeds cap 8"):
        _min_level_roots(ds, F(1, 3), 5)


def test_exact_work_runs_once_per_factor(monkeypatch):
    # the README curve X - Y at cap 4: no exact resultant (the pair rule's
    # one exact test is the partner count), one factorization per level,
    # and no per-factor certification: every level root is pulled back
    import orbitforge.exact as exact_mod
    import orbitforge.orbits as orbits_mod
    import orbitforge.rootcert as rootcert_mod

    calls = {"resultant": [], "certify": [], "factor": []}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name].append(args)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(exact_mod, "poly_resultant",
                        counted("resultant", exact_mod.poly_resultant))
    certify = counted("certify", rootcert_mod.certified_roots)
    monkeypatch.setattr(rootcert_mod, "certified_roots", certify)
    monkeypatch.setattr(orbits_mod, "certified_roots", certify)
    factor = counted("factor", orbits_mod.factor_rational)
    monkeypatch.setattr(orbits_mod, "factor_rational", factor)

    curve = PlaneCurve.from_terms({(1, 0): 1, (0, 1): -1})
    rep = intersect_small_orbit(curve, DS1, F(1, 3), 4)
    assert rep.count() == 16
    assert calls["resultant"] == []
    assert calls["certify"] == []
    assert len(calls["factor"]) == 5


@pytest.mark.parametrize("terms", [
    {(0, 1): 1, (2, 0): -1, (0, 0): 1},       # the graph Y = X^2 - 1
    {(0, 2): 9, (1, 0): 3, (0, 0): -18},      # hits (1/3, +-sqrt(17)/3)
    {(2, 0): 9, (0, 1): 3, (0, 0): -18},      # hits (+-sqrt(17)/3, 1/3)
])
def test_shared_exact_tests_match_per_pair_tests(monkeypatch, terms):
    # the modular filter, shared per f_y, changes no report: with it off
    # every pair of minimal polynomials takes the exact partner count
    curve = PlaneCurve.from_terms(terms)
    rep = intersect_small_orbit(curve, DS1, F(1, 3), 3)
    monkeypatch.setattr(curves, "_apart_mod", lambda *args: False)
    assert intersect_small_orbit(curve, DS1, F(1, 3), 3) == rep


@pytest.mark.parametrize("radius, hits", [
    (2, [True, False]),          # only y = sqrt(2) is near: the one partner
    (3, [None, None]),           # both are near, one more than k = 1
])
def test_ball_step_takes_the_near_balls_only_when_they_are_k(radius, hits):
    # X - Y with f_x = f_y = Y^2 - 2 pairs x with one of the two roots y; a
    # wide ball for x = sqrt(2) makes X - y contain 0 for both when radius 3
    sqrt2 = Poly([-2, 0, 1])
    r2 = mpmath.sqrt(2)

    def ref(mid, rad):
        return RootRef(None, sqrt2, CBall(mid, mpmath.mpf(0), mpmath.mpf(rad)), 1)
    x = ref(r2, radius)
    ys = [ref(r2, "0.1"), ref(-r2, "0.1")]
    assert _ball_step(DIAG.poly, x, ys, 1) == hits


def test_exact_work_runs_once_per_pair_of_minimal_polynomials(monkeypatch):
    # the README curve X - Y at cap 4: one resultant mod the prime per f_y
    # and at most one partner count per (f_x, f_y)
    residues, counts = [], []
    resultant_mod, partner_count = curves._resultant_mod, curves._partner_count
    monkeypatch.setattr(curves, "_resultant_mod", lambda P, fy, prime:
                        residues.append(fy) or resultant_mod(P, fy, prime))
    monkeypatch.setattr(curves, "_partner_count", lambda P, fx, fy:
                        counts.append((fx, fy)) or partner_count(P, fx, fy))
    rep = intersect_small_orbit(DIAG, DS1, F(1, 3), 4)
    polys = {curves._min_poly(r) for r in _min_level_roots(DS1, F(1, 3), 4)}
    assert rep.count() == 16
    assert len(residues) == len(set(residues)) == len(polys)
    assert len(counts) == len(set(counts)) <= len(polys) ** 2
    assert counts


# -- commuting linear maps --------------------------------------------------------

def test_commuting_linear_examples():
    sols = commuting_linear(PolyDS(Poly.monomial(2)), 1)
    assert [(s.a, s.b) for s in sols] == [(1, 0)]
    assert sols[0].zeta == 1

    sols3 = commuting_linear(PolyDS(Poly.monomial(3)), 1)
    assert [(s.a, s.b) for s in sols3] == [(1, 0), (-1, 0)]
    assert [s.zeta for s in sols3] == [1, -1]

    sols1 = commuting_linear(DS1, 1)
    assert [(s.a, s.b) for s in sols1] == [(1, 0)]


def test_commuting_linear_recomposition():
    for f in CORPUS_F:
        ds = PolyDS(f)
        for n in (1, 2):
            F_n = ds.iterate(n)
            for sol in commuting_linear(ds, n, check_boettcher=False):
                L = sol.poly
                assert L.compose(F_n) == F_n.compose(L)


def test_commuting_linear_shifted_map():
    # f = (x-1)^2 + 1 - 1 ... use f = x^2 - 2x + 2 = (x-1)^2 + 1: L must fix
    # the conjugated frame; solved exactly with nonzero b
    f = Poly([2, -2, 1])
    sols = commuting_linear(PolyDS(f), 1, check_boettcher=False)
    assert all(s.poly.compose(f) == f.compose(s.poly) for s in sols)
    assert (F(1), F(0)) in [(s.a, s.b) for s in sols]


# -- nu machinery ------------------------------------------------------------------

def _unit(p, u=1):
    return PadicScalar.from_unit(p, u if u > 0 else p**64 + u, 0, 64)


def test_nu_power_map_degenerates_to_polynomial_substitution():
    # f = X^d: 1/Psi = x exactly, so nu is P(z1 phi x^k1, z2 phi x^k2)
    sq = PolyDS(Poly.monomial(2))
    one = _unit(3)
    nu = build_nu(DIAG, sq, 3, F(3), one, one, 1, -1, window=10)
    assert [(k, s.valuation) for k, s in nu.series.terms] == [(-1, 1), (1, 1)]
    led = nu_estimates(nu)
    assert led.sup1_logp == -1 and led.kappa1 == -1
    assert led.lemma_lhs == 1 and led.lemma_rhs == 1 and led.lemma_holds


def test_nu_normalization_enforced():
    one = _unit(3)
    sq = PolyDS(Poly.monomial(2))
    with pytest.raises(DomainError):
        build_nu(DIAG, sq, 3, F(3), one, one, 0, -1, window=8)
    with pytest.raises(DomainError):
        build_nu(DIAG, sq, 3, F(3), one, one, 2, -4, window=8)
    with pytest.raises(DomainError):
        build_nu(DIAG, sq, 3, F(1, 3), one, one, 1, -1, window=8)   # |phi| > 1
    with pytest.raises(DomainError):
        build_nu(DIAG, PolyDS(Poly([F(-1, 3), 0, 1])), 3, F(3), one, one,
                 1, -1, window=8)    # bad reduction at 3
    with pytest.raises(DomainError):
        build_nu(DIAG, PolyDS(Poly([1, 0, 0, 1])), 3, F(3), one, one,
                 1, -1, window=8)    # p | d


def test_nu_positive_exponents_trivial_branch():
    # k1, k2 > 0: no negative exponents, kappa >= 0 and the bound is trivial
    one = _unit(5)
    nu = build_nu(LINE, DS1, 5, F(5), one, one, 2, 1, window=12)
    assert all(k >= 0 for k, _ in nu.series.terms)
    led = nu_estimates(nu)
    assert led.kappa1 >= 0 and led.lemma_holds


def test_nu_good_reduction_sup_bound():
    rng = random.Random(6)
    one5, m5 = _unit(5), _unit(5, -1)
    t5 = teichmuller(5, 2)
    curves = [DIAG, LINE, PlaneCurve.from_terms({(2, 0): 1, (0, 1): 1, (0, 0): -3}),
              PlaneCurve.from_terms({(1, 1): 1, (0, 0): -2})]
    for curve in curves:
        for (k1, k2) in ((1, -1), (2, -1), (3, -2), (2, 1)):
            zeta = rng.choice([one5, m5, t5])
            nu = build_nu(curve, DS1, 5, F(5), zeta, one5, k1, k2, window=14)
            led = nu_estimates(nu)
            assert led.sup_leq_one
            assert led.lemma_holds
            assert led.pj_count_logp >= 0


def test_nu_tail_outside_the_annulus_is_a_window_error():
    # the tail is certified only for |x| < p^(v(phi)/|k|_inf) = p, not at p^2
    one = _unit(3)
    nu = build_nu(DIAG, DS1, 3, F(3), one, one, 1, -1, window=12)
    with pytest.raises(WindowError):
        sup_norm(nu.series, Radius.ppow(2))


def test_nu_ledger_reports_instance_constants():
    one = _unit(3)
    nu = build_nu(LINE, DS1, 3, F(9), one, one, 2, -1, window=16)
    led = nu_estimates(nu)
    assert led.c1_instance > 0
    assert led.zero_bound >= 0
