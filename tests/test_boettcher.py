"""Boettcher series: functional equations, inversion, radii."""

import math
import random
from fractions import Fraction as F

import mpmath
import pytest

from orbitforge import boettcher
from orbitforge.boettcher import (phi_equation_residual, phi_psi_identity_residual,
                                  phi_series, psi_equation_residual, psi_series,
                                  radius_archimedean)
from orbitforge.dynamics import PolyDS, escaping_critical_points
from orbitforge.errors import DomainError
from orbitforge.exact import LaurentBlock, Poly, _convolve, _over_common


def test_power_map_psi_is_exact_monomial():
    for d in (2, 3, 4):
        psi = psi_series(PolyDS(Poly.monomial(d)), 60)
        assert psi.coefficient(-1) == 1
        assert all(psi.coefficient(e) == 0 for e in range(0, 60))


def test_quadratic_family_low_coefficients():
    # f = X^2 + c: matching coefficients by hand in Psi(z^2) = Psi(z)^2 + c
    for c in (F(7, 3), F(-1), F(5)):
        ds = PolyDS(Poly([c, 0, 1]))
        psi = psi_series(ds, 6)
        assert psi.coefficient(0) == 0
        assert psi.coefficient(1) == -c / 2
        assert psi.coefficient(2) == 0
        assert psi.coefficient(3) == -c / 4 - c**2 / 8
    assert psi_series(PolyDS(Poly([-1, 0, 1])), 4).coefficient(1) == F(1, 2)


def test_functional_equation_residuals_random_corpus():
    rng = random.Random(31)
    for _ in range(12):
        d = rng.choice([2, 3, 4])
        f = Poly([rng.randint(-5, 5) for _ in range(d)] + [1])
        ds = PolyDS(f)
        assert psi_equation_residual(ds, 40).known_is_zero()
        assert phi_equation_residual(ds, 40).known_is_zero()
        assert phi_psi_identity_residual(ds, 24).known_is_zero()


def test_phi_examples():
    # inverse of 1/X is 1/X: phi = w exactly for power maps
    phi = phi_series(PolyDS(Poly.monomial(3)), 20)
    assert phi.coefficient(1) == 1
    assert all(phi.coefficient(k) == 0 for k in range(2, 20))
    # f = X^2 + c: reversion of X/g gives the w^3 coefficient -c/2
    c = F(7, 3)
    phi_c = phi_series(PolyDS(Poly([c, 0, 1])), 8)
    assert phi_c.coefficient(1) == 1
    assert phi_c.coefficient(2) == 0
    assert phi_c.coefficient(3) == -c / 2


def test_phi_reads_g_from_psi(monkeypatch):
    calls = []
    recursion = boettcher._psi_g_coeffs

    def counting(f, order, pw=None):
        calls.append(order)
        return recursion(f, order, pw)

    monkeypatch.setattr(boettcher, "_psi_g_coeffs", counting)
    ds = PolyDS(Poly([F(-31, 29), F(17, 13), 0, 1]))
    psi_series(ds, 23)
    phi_series(ds, 23)
    assert calls == [23]


def test_lower_order_psi_is_a_truncation_of_the_cached_one(monkeypatch):
    calls = []
    recursion = boettcher._psi_g_coeffs

    def counting(f, order, pw=None):
        calls.append(order)
        return recursion(f, order, pw)

    monkeypatch.setattr(boettcher, "_psi_g_coeffs", counting)
    ds = PolyDS(Poly([F(23, 19), F(-5, 11), F(2, 7), 1]))
    psi_series(ds, 32)
    low = psi_series(ds, 12)
    assert calls == [32]
    fresh = LaurentBlock(-1, recursion(ds.f, 12), trunc=12)
    assert low == fresh and repr(low) == repr(fresh)
    assert (low.low, low.trunc, low.coeffs) == (fresh.low, fresh.trunc, fresh.coeffs)
    psi_series(ds, 40)
    assert calls == [32, 40]


def test_ascending_orders_resume_the_psi_recursion(monkeypatch):
    computed = []
    recursion = boettcher._psi_g_coeffs

    def counting(f, order, pw=None):
        # the recursion computes u_n for n past the columns it is given
        computed.extend(range(len(pw[1]) if pw else 1, order + 1))
        return recursion(f, order, pw)

    monkeypatch.setattr(boettcher, "_psi_g_coeffs", counting)
    f = Poly([F(-7, 5), F(3, 4), F(1, 6), 1])
    ds = PolyDS(f)
    blocks = [psi_series(ds, order) for order in (12, 18, 32)]
    assert psi_series(ds, 18) == blocks[1]
    assert computed == list(range(1, 33))          # each u_n once
    monkeypatch.setattr(boettcher, "_psi_g_coeffs", recursion)
    for order, block in zip((12, 18, 32), blocks):
        fresh = psi_series(PolyDS(f), order)
        assert block == fresh and repr(block) == repr(fresh)


def test_lower_order_phi_is_a_truncation_of_the_memo(monkeypatch):
    calls = []
    reversion = boettcher._phi_e_coeffs

    def counting(psi, order):
        calls.append(order)
        return reversion(psi, order)

    monkeypatch.setattr(boettcher, "_phi_e_coeffs", counting)
    f = Poly([F(-7, 5), F(3, 4), F(1, 6), 1])
    ds = PolyDS(f)
    phi_series(ds, 32)
    low = phi_series(ds, 12)
    assert calls == [32]
    fresh = phi_series(PolyDS(f), 12)
    assert calls == [32, 12]
    assert low == fresh and repr(low) == repr(fresh)
    for order in (0, 1, 2, 5, 16, 31):
        assert phi_series(ds, order) == phi_series(PolyDS(f), order)


def test_maps_share_no_series(monkeypatch):
    calls = []
    recursion = boettcher._psi_g_coeffs

    def counting(f, order, pw=None):
        calls.append(order)
        return recursion(f, order, pw)

    monkeypatch.setattr(boettcher, "_psi_g_coeffs", counting)
    f = Poly([F(1, 3), 0, 1])
    first, second = PolyDS(f), PolyDS(f)
    assert psi_series(first, 16) == psi_series(second, 16)
    psi_series(first, 8)
    psi_series(second, 8)
    assert calls == [16, 16]


def _fraction_psi(f, order):
    """The Psi recursion in Fraction arithmetic, one gcd per term: the
    reference for the recursion on integer numerators."""
    d = f.degree
    a = [f.coeff(d - i) for i in range(d + 1)]
    pw = [[F(1)] for _ in range(d + 1)]
    u = pw[1]
    for n in range(1, order + 1):
        pw[0].append(F(0))
        u.append(F(0))
        for j in range(2, d + 1):
            prev = pw[j - 1]
            pw[j].append(sum((u[k] * prev[n - k] for k in range(n + 1)), F(0)))
        rhs = pw[d][n]
        for i in range(1, min(d, n) + 1):
            rhs += a[i] * pw[d - i][n - i]
        lhs = u[n // d] if n % d == 0 else F(0)
        un = (lhs - rhs) / d
        for j in range(1, d + 1):
            pw[j][n] += j * un
    return u[:order + 1]


def _common_denominator_phi(u, order):
    """e_0..e_order of Phi by reversion, with g's numerators over powers of
    the common denominator of its first max(order, 1) coefficients."""
    width = max(order, 1)
    nums, ud = _over_common(u[:width])
    e = [F(0)] * (order + 1)
    gi, den = [1], 1
    for n in range(1, order + 1):
        gi = _convolve(nums, gi, width)
        den *= ud
        e[n] = F(gi[n - 1], den * n)
    return e


def _series_corpus():
    # power maps, X^2 - 2, and three maps of each degree 2-5 whose constant
    # term is not an integer
    rng = random.Random(30)
    maps = [Poly.monomial(d) for d in (2, 3, 4, 5)] + [Poly([-2, 0, 1])]
    for d in (2, 3, 4, 5):
        for _ in range(3):
            const = F(2 * rng.randint(-4, 4) + 1, rng.choice((2, 3, 5, 7)))
            rest = [F(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(d - 1)]
            maps.append(Poly([const] + rest + [1]))
    return maps


def test_psi_matches_the_fraction_recursion():
    for f in _series_corpus():
        reference = _fraction_psi(f, 64)
        for order in (0, 1, 2, 7, 40, 64):
            assert boettcher._psi_g_coeffs(f, order) == reference[:order + 1], (f, order)


def test_phi_matches_the_common_denominator_reversion():
    for f in _series_corpus():
        u = _fraction_psi(f, 32)
        for order in (0, 1, 2, 9, 32):
            phi = phi_series(PolyDS(f), order)
            e = _common_denominator_phi(u, order)
            assert [phi.coefficient(k) for k in range(order + 1)] == e, (f, order)


def test_resumed_series_match_the_references():
    f = Poly([F(-7, 5), F(3, 4), F(1, 6), 1])
    reference = _fraction_psi(f, 64)
    ds = PolyDS(f)
    for order in (12, 18, 32, 64):
        psi = psi_series(ds, order)
        assert [psi.coefficient(e) for e in range(-1, order)] == reference[:order + 1]
        phi = phi_series(ds, order)
        e = _common_denominator_phi(reference, order)
        assert [phi.coefficient(k) for k in range(order + 1)] == e, order


def test_psi_numerators_over_the_grade_are_integers():
    # u_n (d^2 D)^n is an integer, D the lcm of the denominators of f
    for f in _series_corpus():
        d = f.degree
        w = d * d * math.lcm(*(c.denominator for c in f.coeffs))
        psi = psi_series(PolyDS(f), 48)
        for n in range(49):
            assert (psi.coefficient(n - 1) * w ** n).denominator == 1, (f, n)


def test_too_small_a_grade_is_refused(monkeypatch):
    # over (d D)^n the numerator of u_2 of X^2 + X/3 is not an integer: the
    # recursion must raise rather than round it
    monkeypatch.setattr(boettcher, "_grade",
                        lambda f: f.degree * math.lcm(*(c.denominator for c in f.coeffs)))
    with pytest.raises(ArithmeticError):
        psi_series(PolyDS(Poly([0, F(1, 3), 1])), 8)


def test_phi_psi_identity_at_order_zero_is_truncated():
    # nothing is known at order 0: the residual is O(x), not an exact -x
    ds = PolyDS(Poly([F(1, 4), 0, 1]))
    assert phi_psi_identity_residual(ds, 0) == LaurentBlock.zero(1)


def test_psi_p_integral_at_good_coprime_primes():
    # good reduction + p coprime to d: the recursion only divides by d
    for f in (Poly([-1, 0, 1]), Poly([2, -1, 0, 1])):
        ds = PolyDS(f)
        psi = psi_series(ds, 40)
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
            if not ds.coprime_to_degree(p):
                continue
            for e in range(-1, 40):
                assert psi.coefficient(e).denominator % p != 0, (f, p, e)


def test_psi_not_p_integral_when_p_divides_degree():
    # c_1 = 1/2 for X^2 - 1: integrality fails at p = 2 since the recursion
    # divides by d; the radius report must not claim One there
    psi = psi_series(PolyDS(Poly([-1, 0, 1])), 8)
    assert psi.coefficient(1).denominator % 2 == 0


def test_radius_archimedean_cases():
    # every critical point decided, as the radius's certificate needs: an
    # undecided one would still give a ball this narrow
    sq = PolyDS(Poly.monomial(2))
    assert not escaping_critical_points(sq).undecided
    one = radius_archimedean(sq)
    assert one.rad < 1e-10 and one.contains_value(F(1))

    basilica = PolyDS(Poly([-1, 0, 1]))
    assert not escaping_critical_points(basilica).undecided
    conn = radius_archimedean(basilica)
    assert conn.rad < 1e-10 and conn.contains_value(F(1))

    cantor = PolyDS(Poly([-6, 0, 1]))
    rep = escaping_critical_points(cantor)
    assert not rep.undecided and len(rep.escaping) == 1
    disc = radius_archimedean(cantor)
    assert float(disc.re_mid) < 1 and disc.rad < 1e-10
    # R = exp(-g(0)) with g(0) the escape rate of the critical orbit
    from orbitforge.green import green_eval
    g0 = green_eval(cantor, F(0), F(1, 10**12))
    expected = mpmath.exp(-g0.value.re_mid)
    assert abs(disc.re_mid - expected) < 1e-10


def test_radius_walks_each_critical_orbit_once(monkeypatch):
    # X^2 + 1/4: green_eval's one-sided bound leaves the parabolic critical
    # orbit undecided after 33 steps; a separate 256-step escape walk before
    # it made 289 ball Horner steps in all
    import sys

    from orbitforge import ball
    steps = []
    original = ball.horner_ball

    def counting(*args):
        steps.append(1)
        return original(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("orbitforge") and getattr(module, "horner_ball", None) is original:
            monkeypatch.setattr(module, "horner_ball", counting)
    radius_archimedean(PolyDS(Poly([F(1, 4), 0, 1])))
    assert 0 < len(steps) <= 40


def test_phi_matches_iterated_root_numerically():
    # 1/phi(z) should agree with (f^n(z))^(1/d^n) for large real z
    ds = PolyDS(Poly([-1, 0, 1]))
    phi = phi_series(ds, 40)
    z = mpmath.mpf(4 * float(ds.escape_radius))
    w = 1 / z
    series_val = sum(mpmath.mpf(float(phi.coefficient(k))) * w**k
                     for k in range(1, 40))
    x = z
    n = 6
    for _ in range(n):
        x = x**2 - 1
    iter_val = x ** (mpmath.mpf(1) / mpmath.mpf(2) ** n)
    assert abs(1 / series_val - iter_val) < 1e-12


def test_evaluate_psi_returns_the_ball():
    from orbitforge.ball import CBall
    from orbitforge.boettcher import evaluate_psi
    x = CBall.from_rational(F(1, 4))
    sq_map = PolyDS(Poly.monomial(2))
    exact = evaluate_psi(sq_map, 8, x, radius_archimedean(sq_map))   # Psi = 1/x
    assert isinstance(exact, CBall) and exact.contains_value(F(4))
    ds = PolyDS(Poly([-1, 0, 1]))
    radius = radius_archimedean(ds)
    val = evaluate_psi(ds, 24, x, radius)
    assert isinstance(val, CBall)
    # Psi(x)^2 - 1 = Psi(x^2), and both balls are certified
    sq = evaluate_psi(ds, 24, CBall.from_rational(F(1, 16)), radius)
    assert (val * val - CBall.exact_int(1) - sq).contains_zero()


CERTIFIED_TAIL_MAPS = [[F(1, 4), 0, 1], [-1, 0, 1], [F(-3, 4), 0, 1], [F(1, 2), 0, 1],
                       [1, -1, 0, 1], [-6, 0, 1]]


@pytest.mark.parametrize("coeffs", CERTIFIED_TAIL_MAPS)
def test_psi_tail_is_certified(coeffs):
    # the order-48 ball holds the order-200 ball (its exact partial sum plus
    # its own certified tail) at the start radii of traces at r = 1 and 2,
    # chosen as equipotential_trace chooses them, and at 0.9 R_lo
    from orbitforge.ball import CBall
    from orbitforge.boettcher import evaluate_psi
    ds = PolyDS(Poly(coeffs))
    radius = radius_archimedean(ds)
    r_lo = radius.re_mid - radius.rad
    radii = [r_lo * mpmath.mpf(0.9)]
    for r in (1, 2):
        rho, k = mpmath.exp(-r), 0
        while rho ** (ds.d ** k) > r_lo / 2:
            k += 1
        radii.append(rho ** (ds.d ** k))
    for s in radii:
        for theta in (0, 1 / 7, 5 / 12):
            x = CBall.from_complex(mpmath.expjpi(2 * mpmath.mpf(theta)) * s)
            low, high = evaluate_psi(ds, 48, x, radius), evaluate_psi(ds, 200, x, radius)
            assert low.contains(high)
            assert high.rad < low.rad


def test_evaluate_psi_refuses_points_outside_its_disc():
    from orbitforge.ball import CBall
    from orbitforge.boettcher import evaluate_psi
    for coeffs in ([-1, 0, 1], [-6, 0, 1]):
        ds = PolyDS(Poly(coeffs))
        radius = radius_archimedean(ds)
        r_lo = radius.re_mid - radius.rad
        for s in (r_lo, r_lo * 2):
            with pytest.raises(DomainError):
                evaluate_psi(ds, 48, CBall(s, mpmath.mpf(0), mpmath.mpf(0)), radius)
        # just inside, the ball is wide but finite
        inside = CBall(r_lo * mpmath.mpf(0.99), mpmath.mpf(0), mpmath.mpf(0))
        assert mpmath.isfinite(evaluate_psi(ds, 48, inside, radius).rad)
