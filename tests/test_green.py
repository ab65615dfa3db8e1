"""Green function enclosures and equipotential traces."""

import math
import random
from fractions import Fraction as F

import pytest

from orbitforge.ball import CBall, _exact, eval_poly_ball
from orbitforge.config import DEFAULTS
from orbitforge.dynamics import PolyDS
from orbitforge.errors import DomainError, PrecisionError
from orbitforge.exact import Poly
from orbitforge.green import equipotential_trace, green_eval, green_functional_check

SQ = PolyDS(Poly.monomial(2))
DS1 = PolyDS(Poly([-1, 0, 1]))
DS6 = PolyDS(Poly([-6, 0, 1]))


def _random_disc_point(rng, lo=0.1, hi=10.0):
    r = math.exp(rng.uniform(math.log(lo), math.log(hi)))
    t = rng.uniform(0, 2 * math.pi)
    return complex(r * math.cos(t), r * math.sin(t))


def test_power_map_model():
    rng = random.Random(5)
    for _ in range(60):
        z = _random_disc_point(rng)
        g = green_eval(SQ, CBall.from_complex(z), F(1, 10**11))
        expected = max(0.0, math.log(abs(z)))
        assert abs(float(g.value.re_mid) - expected) <= 1e-10
        assert float(g.value.rad) <= 1e-10 or not g.escaped


def test_interior_point_is_zero():
    # a radius <= tol puts the upper end at <= 2 tol
    g = green_eval(SQ, F(1, 2), F(1, 2 * 10**20))
    assert not g.escaped
    assert float(g.value.re_mid + g.value.rad) < 1e-20


def _bounded_cases():
    """(map, point) pairs for X^2 + c with seeded c in [-2, 1/4] and for
    X^3 - X + 1, at real points, complex points, and points within 1e-9 of a
    repelling fixed point (in the Julia set).  Complex points outside the
    filled Julia set escape; callers skip them."""
    rng = random.Random(29)
    maps = [PolyDS(Poly([F(rng.choice([-7, -6, -5, -3, -2, -1, 1]), 4), 0, 1]))
            for _ in range(4)]
    maps += [PolyDS(Poly([F(-2), 0, 1])), PolyDS(Poly([F(1, 4), 0, 1]))]
    cases = []
    for ds in maps:
        c = float(ds.f.coeff(0))
        beta = (1 + math.sqrt(1 - 4 * c)) / 2      # repelling unless c = 1/4
        cases += [(ds, F(rng.uniform(-beta, beta)).limit_denominator(10**6)),
                  (ds, F(beta - 1e-9).limit_denominator(10**12)),
                  (ds, CBall.from_complex(complex(rng.uniform(-0.3, 0.3),
                                                  rng.uniform(-0.3, 0.3))))]
    cubic = PolyDS(Poly([1, -1, 0, 1]))
    # 0 -> 1 -> 1 (repelling); (sqrt(5) - 1)/2 is attracting
    cases += [(cubic, F(0)), (cubic, F(1) - F(1, 10**9)),
              (cubic, F(618, 1000)), (cubic, CBall.from_complex(0.6 + 0.05j))]
    return cases


@pytest.mark.parametrize("tol", [F(1, 10**10), F(1, 10**20)])
def test_bounded_orbit_stops_at_tol(tol):
    bounded = 0
    for ds, z in _bounded_cases():
        try:
            # no tol stops it: the whole budget, or until the ball blows up
            full = green_eval(ds, z, F(1, 10**200))
        except PrecisionError:           # certified to escape
            continue
        assert not full.escaped
        bounded += 1
        g = green_eval(ds, z, tol)
        assert not g.escaped
        assert _exact(g.value.rad) <= tol
        log_2r = math.log(2 * float(ds.escape_radius))
        least = next(n for n in range(257) if log_2r / (2 * ds.d ** n) <= tol)
        assert abs(g.iterations_used - least) <= 1
        gap = abs(g.value.re_mid - full.value.re_mid)
        assert gap <= g.value.rad + full.value.rad
    assert bounded >= 18


def test_nonnegative_and_escaped_radius_bound():
    g = green_eval(DS1, F(2), F(1, 10**10))
    assert g.escaped
    assert float(g.value.re_mid - g.value.rad) >= 0
    assert float(g.value.rad) <= 1e-10


def test_escaping_walk_takes_the_log_only_where_it_can_stop(monkeypatch):
    # a step whose tail bound alone exceeds tol cannot stop, so only the
    # stopping step (the fifth, for 3 under X^2 - 1) computes log|z_n|
    calls = []
    log_abs = CBall.log_abs
    monkeypatch.setattr(CBall, "log_abs", lambda self: calls.append(self) or log_abs(self))
    g = green_eval(DS1, 3, F(1, 10**10))
    assert (g.escaped, g.iterations_used, len(calls)) == (True, 5, 1)


def test_functional_equation_random_points():
    rng = random.Random(17)
    for ds in (DS1, DS6):
        for _ in range(40):
            z = CBall.from_complex(_random_disc_point(rng))
            residual = green_functional_check(ds, z, F(1, 10**10))
            assert residual.contains_zero()


def test_critical_point_functional_check():
    residual = green_functional_check(DS6, F(0))
    assert residual.contains_zero()


def test_trace_power_map_circle():
    curve = equipotential_trace(SQ, F(7, 10), n_points=16, tol=F(1, 10**8))
    assert len(curve.points) == 16 and curve.dropped == 0 and curve.closed
    target = math.exp(0.7)
    for pt in curve.points:
        radius = math.hypot(float(pt.point.re_mid), float(pt.point.im_mid))
        assert abs(radius - target) < 1e-6
    # theta = 0 lands on the positive real axis at exp(r)
    first = curve.points[0]
    assert abs(float(first.point.re_mid) - target) < 1e-6
    assert abs(float(first.point.im_mid)) < 1e-6


def test_trace_recertifies_level():
    curve = equipotential_trace(DS1, F(1), n_points=12, tol=F(1, 10**8))
    assert len(curve.points) == 12 and curve.dropped == 0
    for pt in curve.points:
        assert pt.g_residual <= 1e-8


def test_trace_points_map_to_deeper_level():
    r = F(1)
    curve = equipotential_trace(DS1, r, n_points=8, tol=F(1, 10**9))
    for pt in curve.points:
        image = eval_poly_ball(DS1.f, pt.point)
        g = green_eval(DS1, image, F(1, 10**9))
        assert abs(float(g.value.re_mid) - 2.0) <= 1e-6


def test_trace_conjugation_symmetry():
    curve = equipotential_trace(DS1, F(1), n_points=8, tol=F(1, 10**8))
    pts = [complex(float(p.point.re_mid), float(p.point.im_mid))
           for p in curve.points]
    for z in pts:
        assert min(abs(z.conjugate() - w) for w in pts) < 1e-6


def test_trace_pullback_sheets():
    # exp(-r) above the convergence radius forces pullback through f^k
    curve = equipotential_trace(DS6, F(1, 5), n_points=8, tol=F(1, 10**6))
    assert not curve.closed
    assert len(curve.points) == 8
    for pt in curve.points:
        assert pt.g_residual <= 1e-6


def test_trace_pullback_counts_uncertified_roots(monkeypatch):
    # X^2 - 6 at r = 1/5 is traced at k = 3 (8 sheets x 2 angles here); the
    # first pull-back step fails, so the d^(k-1) = 4 sheets below it are
    # dropped and counted: points + dropped = d^k * n_base
    import orbitforge.rootcert as rootcert_mod

    preimages = rootcert_mod.preimages
    calls = []

    def first_fails(*args, **kwargs):
        calls.append(None)
        solutions = preimages(*args, **kwargs)
        return [None] + solutions[1:] if len(calls) == 1 else solutions

    monkeypatch.setattr(rootcert_mod, "preimages", first_fails)
    curve = equipotential_trace(DS6, F(1, 5), n_points=16, tol=F(1, 10**6))
    assert not curve.closed
    assert curve.dropped == 4 and len(curve.points) == 12


def test_trace_stepwise_matches_one_shot_pullback():
    # reference: solve f^3(z) = Psi(...) in one go for each base angle and
    # certify every root against f^3; the stepwise trace must find the same
    # points, sheet by sheet
    import mpmath

    from orbitforge.boettcher import radius_archimedean
    from orbitforge.green import _certify_level, _psi_point
    from orbitforge.rootcert import approximate_solutions, certify_solution

    r, tol = F(1, 5), F(1, 10**6)
    radius = radius_archimedean(DS6)
    curve = equipotential_trace(DS6, r, n_points=16, tol=tol)
    assert curve.dropped == 0 and len(curve.points) == 16
    assert max(pt.sheet for pt in curve.points) == 7          # k = 3
    F3 = DS6.iterate(3)
    dF3 = F3.derivative()
    deep_rho = mpmath.exp(-mpmath.mpf(r.numerator) / r.denominator) ** 8
    for theta in sorted({pt.theta for pt in curve.points}):
        target = _psi_point(DS6, DS6.settings.series_order, deep_rho, theta, radius)
        reference = []
        for approx in approximate_solutions(F3, target):
            root = certify_solution(F3, CBall.from_complex(approx), target, dF3)
            reference.append(_certify_level(DS6, root, r, tol)[0])
        reference.sort(key=lambda b: mpmath.atan2(b.im_mid, b.re_mid))
        stepwise = [pt.point for pt in curve.points if pt.theta == theta]
        assert len(stepwise) == len(reference) == 8
        for mine, theirs in zip(stepwise, reference):
            assert (mine - theirs).contains_zero()


def test_trace_pullback_solves_only_degree_d_equations(monkeypatch):
    # every pull-back step is one solve of f(z) = w, never f^k(z) = w
    import orbitforge.rootcert as rootcert_mod

    preimages = rootcert_mod.preimages
    degrees = []

    def recording(p, target, dp=None):
        degrees.append(p.degree)
        return preimages(p, target, dp)

    monkeypatch.setattr(rootcert_mod, "preimages", recording)
    for ds, r in ((DS6, F(1, 5)), (DS1, F(1, 20)), (PolyDS(Poly([0, -3, 0, 1])), F(1, 5))):
        degrees.clear()
        curve = equipotential_trace(ds, r, n_points=8, tol=F(1, 10**6))
        assert not curve.closed and degrees
        assert set(degrees) == {ds.d}


def test_trace_low_order_rescue(monkeypatch):
    # at series order 12 every Psi sample misses the level tolerance and is
    # polished by pulling back a point of a deeper level
    import orbitforge.green as green_mod

    certify = green_mod.certify_solution
    calls = []

    def counting(*args, **kwargs):
        calls.append(None)
        return certify(*args, **kwargs)

    monkeypatch.setattr(green_mod, "certify_solution", counting)
    ds = PolyDS(DS1.f, DEFAULTS.replace(series_order=12))
    curve = equipotential_trace(ds, F(1), n_points=16, tol=F(1, 10**8))
    assert curve.closed and calls
    assert len(curve.points) == 16 and curve.dropped == 0


@pytest.mark.parametrize("r", [F(1), F(1, 2), F(1, 5)])
def test_parabolic_trace_starts_below_a_divergent_psi_tail(r):
    # X^2 + 1/4 has Boettcher radius 1 (its critical point 0 is parabolic, so
    # undecided); the certified Psi tail holds at |x| = exp(-1) <= 1/2, so
    # r = 1 starts at k = 0, while r = 1/2 and 1/5 start one level deeper
    curve = equipotential_trace(PolyDS(Poly([F(1, 4), 0, 1])), r, n_points=8)
    assert len(curve.points) == 8 and curve.dropped == 0
    assert curve.closed is (r == 1)


def test_trace_rejects_nonpositive_level():
    with pytest.raises(DomainError):
        equipotential_trace(DS1, F(0), n_points=4)


def test_trace_rejects_zero_points():
    # 0 is a count, not "use the default"
    with pytest.raises(DomainError):
        equipotential_trace(DS1, F(1), n_points=0)


def test_zero_iteration_budget_is_kept():
    g = green_eval(PolyDS(SQ.f, DEFAULTS.replace(max_iterations=0)), F(1, 2))
    assert g.iterations_used == 0 and not g.escaped
    assert g.value.re_mid - g.value.rad <= 0
    with pytest.raises(DomainError, match="max_iter must be >= 0"):
        green_eval(PolyDS(SQ.f, DEFAULTS.replace(max_iterations=-1)), F(1, 2))


def test_concurrent_green_eval_on_shared_system():
    # green_eval is pure and the iterate memo takes no lock; a shared PolyDS
    # must still give identical answers under concurrent evaluation
    from concurrent.futures import ThreadPoolExecutor

    ds = PolyDS(Poly([-1, 0, 1]))
    rng = random.Random(13)
    points = [CBall.from_complex(_random_disc_point(rng)) for _ in range(24)]
    serial = [float(green_eval(ds, z, F(1, 10**9)).value.re_mid) for z in points]
    with ThreadPoolExecutor(max_workers=8) as pool:
        parallel = list(pool.map(
            lambda z: float(green_eval(ds, z, F(1, 10**9)).value.re_mid), points))
    assert serial == parallel
    # concurrent iterate memo fills without corruption
    with ThreadPoolExecutor(max_workers=8) as pool:
        degrees = list(pool.map(lambda n: ds.iterate(n).degree, [5] * 16))
    assert degrees == [32] * 16


def test_tolerance_defaults_to_the_maps_setting():
    # a map built with tolerance 1/10 runs at 1/10 when no tol is passed:
    # its bounded orbit stops once the one-sided bound is 2/10, not 2/10^10
    from orbitforge.orbits import canonical_height
    coarse = PolyDS(DS1.f, DEFAULTS.replace(tolerance=F(1, 10)))
    g = green_eval(coarse, F(0))
    assert not g.escaped
    assert g.iterations_used == green_eval(coarse, F(0), F(1, 10)).iterations_used
    assert g.iterations_used < green_eval(DS1, F(0)).iterations_used
    check = green_functional_check(coarse, F(0))
    assert check.rad == green_functional_check(coarse, F(0), F(1, 10)).rad
    assert check.rad > green_functional_check(DS1, F(0)).rad
    h = canonical_height(coarse, F(1, 3)).value
    assert h.rad == canonical_height(coarse, F(1, 3), F(1, 10)).value.rad
    assert h.rad > canonical_height(DS1, F(1, 3)).value.rad
