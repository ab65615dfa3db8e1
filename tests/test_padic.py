"""p-adic layer: scalars, sup norms, polygons, zero counting, local degrees."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitforge.errors import DomainError, PrecisionError
from orbitforge.padic import (PadicScalar, PadicSeries, Radius,
                              count_zeros_from_polygon, count_zeros_pj,
                              cyclotomic_degree_local, kappa,
                              newton_polygon, sup_norm,
                              teichmuller, zeros_by_slope)


# -- scalars ------------------------------------------------------------------

def test_scalar_from_rational():
    x = PadicScalar.from_rational(F(18, 5), 3)
    assert x.valuation == 2 and x.logp_abs() == -2
    y = PadicScalar.from_rational(F(1, 9), 3)
    assert y.valuation == -2
    assert PadicScalar.from_rational(0, 3).is_exact_zero


def test_scalar_arithmetic_tracks_valuations():
    a = PadicScalar.from_rational(F(3), 3)
    b = PadicScalar.from_rational(F(2), 3)
    assert (a * b).valuation == 1
    assert (a + b).valuation == 0          # unit dominates
    cancel = a + PadicScalar.from_rational(F(-3), 3)
    assert cancel.is_small                 # zero within tracked digits


@pytest.mark.parametrize("digits", [0, -1])
def test_scalars_need_at_least_one_digit(digits):
    with pytest.raises(DomainError):
        PadicScalar.from_rational(1, 3, digits)
    with pytest.raises(DomainError):
        PadicScalar.from_unit(3, 1, 0, digits)
    with pytest.raises(DomainError):
        teichmuller(3, 2, digits)


def test_teichmuller_is_root_of_unity():
    t = teichmuller(5, 2)
    mod = 5 ** t.precision
    assert pow(t.unit, 4, mod) == 1
    assert pow(t.unit, 2, mod) != 1
    assert t.unit % 5 == 2


# -- sup norm and kappa ----------------------------------------------------------

def test_sup_and_kappa_examples():
    g = PadicSeries.from_polynomial([3, 1, 9], 3)
    norm = sup_norm(g, Radius.ppow(0))
    assert isinstance(norm, F) and norm == 0
    assert kappa(g, Radius.ppow(0)) == 1

    inv = PadicSeries.from_coeffs(3, [(-1, 1)])
    assert sup_norm(inv, F(1, 3)) == 1         # value 3

    tie = PadicSeries.from_polynomial([0, 1, 1], 3)
    assert kappa(tie, Radius.ppow(0)) == 1          # inf of the tie {1, 2}

    shifted = PadicSeries.from_coeffs(3, [(-1, 1), (0, 1)])
    assert kappa(shifted, Radius.ppow(0)) == -1

    single = PadicSeries.from_polynomial([7], 7)    # p * z^0
    assert sup_norm(single, Radius.ppow(0)) == -1


def test_radius_must_be_a_power_of_p():
    g = PadicSeries.from_polynomial([3, 1, 9], 3)
    with pytest.raises(DomainError):
        Radius.coerce(F(2), 3)
    with pytest.raises(DomainError):
        sup_norm(g, F(2))
    with pytest.raises(DomainError):
        kappa(g, F(2))
    assert Radius.coerce(F(1, 9), 3) == Radius.ppow(-2)


def _poly_series(rng, p, deg=8, bound=40):
    coeffs = [F(rng.randint(-bound, bound)) for _ in range(deg + 1)]
    if all(c == 0 for c in coeffs):
        coeffs[0] = F(1)
    return coeffs, PadicSeries.from_polynomial(coeffs, p)


def test_ultrametric_inequality_and_gauss_multiplicativity():
    rng = random.Random(23)
    for _ in range(60):
        p = rng.choice([2, 3, 5, 7])
        ca, a = _poly_series(rng, p, deg=5)
        cb, b = _poly_series(rng, p, deg=5)
        t = F(rng.randint(-2, 2))
        na, nb = sup_norm(a, Radius.ppow(t)), sup_norm(b, Radius.ppow(t))
        # sum
        cs = [x + y for x, y in zip(ca + [F(0)] * 6, cb + [F(0)] * 6)]
        if any(c != 0 for c in cs):
            ns = sup_norm(PadicSeries.from_polynomial(cs, p), Radius.ppow(t))
            assert ns <= max(na, nb)
            if na != nb:
                assert ns == max(na, nb)
        # product (Gauss norm)
        prod = [F(0)] * (len(ca) + len(cb) - 1)
        for i, x in enumerate(ca):
            for j, y in enumerate(cb):
                prod[i + j] += x * y
        np_ = sup_norm(PadicSeries.from_polynomial(prod, p), Radius.ppow(t))
        assert np_ == na + nb


def test_kappa_monotone_in_radius():
    rng = random.Random(29)
    for _ in range(40):
        p = rng.choice([2, 3, 5, 7])
        _, g = _poly_series(rng, p)
        values = [kappa(g, Radius.ppow(F(t))) for t in range(-3, 4)]
        assert values == sorted(values)


# -- polygons -------------------------------------------------------------------

def test_polygon_examples():
    g = PadicSeries.from_polynomial([3, 1, 3], 3)
    np_ = newton_polygon(g)
    assert np_.vertices == ((0, F(1)), (1, F(0)), (2, F(1)))
    assert zeros_by_slope(np_) == [(F(1), 1), (F(-1), 1)]

    assert zeros_by_slope(newton_polygon(
        PadicSeries.from_polynomial([-3, 0, 1], 3))) == [(F(1, 2), 2)]

    assert zeros_by_slope(newton_polygon(
        PadicSeries.from_polynomial([-1, 1], 3))) == [(F(0), 1)]


def test_polygon_rejects_empty():
    with pytest.raises(DomainError):
        newton_polygon(PadicSeries.from_polynomial([0], 3))


# -- Poisson-Jensen ---------------------------------------------------------------

def test_pj_examples():
    g = PadicSeries.from_polynomial([-3, 1], 3)        # z - 3
    assert count_zeros_pj(g, F(1, 9), F(1)) == 1       # one zero at |z| = 1/3
    z = PadicSeries.from_polynomial([0, 1], 3)
    assert count_zeros_pj(z, F(1, 3), F(1)) == 0


def test_pj_matches_polygon_on_random_corpus():
    rng = random.Random(2718)
    for _ in range(80):
        p = rng.choice([2, 3, 5, 7])
        _, g = _poly_series(rng, p)
        t1 = F(rng.randint(-3, 1))
        t = t1 + rng.randint(1, 3)
        lhs = count_zeros_pj(g, Radius.ppow(t1), Radius.ppow(t))
        rhs = count_zeros_from_polygon(g, Radius.ppow(t1), Radius.ppow(t))
        assert lhs == rhs


def test_pj_requires_p_power_radii():
    g = PadicSeries.from_polynomial([-3, 1], 3)
    with pytest.raises(DomainError):
        count_zeros_pj(g, F(1, 2), F(2))


# -- cyclotomic degrees -------------------------------------------------------------

def test_cyclotomic_examples():
    assert cyclotomic_degree_local(3, 2) == 2
    assert cyclotomic_degree_local(3, 3) == 2          # ramified: phi(3)
    assert cyclotomic_degree_local(1, 11) == 1
    assert cyclotomic_degree_local(12, 5) == 2         # ord of 5 mod 12


@given(st.integers(min_value=1, max_value=300),
       st.sampled_from([2, 3, 5, 7, 11]))
@settings(max_examples=60, deadline=None)
def test_cyclotomic_against_order_oracle(N, p):
    a, M = 0, N
    while M % p == 0:
        M //= p
        a += 1
    expected = ((p - 1) * p ** (a - 1) if a else 1)
    order, x = 1, p % M if M > 1 else 0
    if M == 1:
        order = 1
    else:
        while x != 1:
            x = x * p % M
            order += 1
    assert cyclotomic_degree_local(N, p) == expected * order


def test_cyclotomic_growth_is_linear_in_prime_power_towers():
    # degrees along N = d^k grow linearly in N: the ratio deg/N stabilizes
    for k in range(1, 13):
        assert cyclotomic_degree_local(2 ** k, 3) * 4 >= 2 ** k
    for k in range(1, 9):
        assert cyclotomic_degree_local(3 ** k, 2) * 3 >= 2 * 3 ** k


def test_small_scalar_refuses_polygon():
    a = PadicScalar.from_rational(F(3), 3)
    small = a + PadicScalar.from_rational(F(-3), 3)
    series = PadicSeries(3, ((0, small), (1, PadicScalar.from_rational(1, 3))))
    with pytest.raises(PrecisionError):
        newton_polygon(series)
