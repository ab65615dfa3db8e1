"""Heights and orbit level sets."""

import hashlib
import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F

import pytest
from conftest import time_limit

from orbitforge.ball import eval_poly_ball
from orbitforge.cli import main
from orbitforge.dynamics import PolyDS, Preperiodic, classify_orbit
from orbitforge.errors import DomainError, ResourceError
from orbitforge.exact import Poly
from orbitforge.factor import factor_rational
from orbitforge.orbits import (canonical_height, grand_orbit_points,
                               level_polynomial, level_root_groups, level_roots,
                               small_orbit_level)

DS1 = PolyDS(Poly([-1, 0, 1]))


# -- canonical heights -----------------------------------------------------------

def test_power_map_height_is_exact_weil_height():
    ds = PolyDS(Poly.monomial(2))
    h = canonical_height(ds, F(2))
    assert h.method == "exact-power-map"
    assert abs(float(h.value.re_mid) - math.log(2)) < 1e-15


def test_preperiodic_height_contains_zero():
    h = canonical_height(DS1, F(0))
    assert h.contains_zero()
    assert float(h.value.rad) < 1e-10


@pytest.mark.parametrize("alpha", ["0", "-1"])
def test_preperiodic_height_is_exact_zero(alpha):
    # 0 and -1 form a 2-cycle of X^2 - 1, so hhat = 0 exactly
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(["orbit", "height", "--poly", "[-1,0,1]", "--alpha", alpha])
    doc = json.loads(out.getvalue())
    assert code == 0 and doc["contains_zero"] is True
    assert doc["value"] == {"im": "0", "rad": "0", "re": "0"}
    assert doc["method"] == "preperiodic"


def test_wandering_height_excludes_zero():
    h = canonical_height(DS1, F(1, 3))
    assert h.excludes_zero()
    # hhat = log(den) + archimedean escape rate; here the orbit is bounded
    # in C, so the value is exactly log 3 up to the Green enclosure
    assert abs(float(h.value.re_mid) - math.log(3)) < 1e-10


def test_height_doubling_random():
    rng = random.Random(99)
    tol = F(1, 10**10)
    for _ in range(25):
        alpha = F(rng.randint(-30, 30), rng.randint(1, 30))
        h1 = canonical_height(DS1, DS1.apply(alpha), tol)
        h2 = canonical_height(DS1, alpha, tol)
        assert abs(float(h1.value.re_mid) - 2 * float(h2.value.re_mid)) <= 2e-10


def test_height_vs_weil_comparison_constant():
    # |h(alpha) - hhat(alpha)| <= sum_i log+|a_i| + log 2, with h the Weil
    # height log max(|num|, den); for X^2 - 1 the constant is log 2
    c_f = math.log(2.0) + sum(math.log(abs(c)) for c in DS1.f.coeffs[:-1] if abs(c) > 1)
    rng = random.Random(7)
    for _ in range(100):
        alpha = F(rng.randint(-40, 40), rng.randint(1, 40))
        weil = math.log(max(abs(alpha.numerator), alpha.denominator))
        h_hat = float(canonical_height(DS1, alpha).value.re_mid)
        assert abs(weil - h_hat) <= c_f + 1e-9


def test_bad_reduction_prime_contribution():
    ds = PolyDS(Poly([F(-1, 5), 0, 1]))       # X^2 - 1/5, bad at 5
    tol = F(1, 10**9)
    h1 = canonical_height(ds, ds.apply(F(1)), tol)
    h2 = canonical_height(ds, F(1), tol)
    assert abs(float(h1.value.re_mid) - 2 * float(h2.value.re_mid)) <= 2e-9


def test_height_bounded_at_a_bad_prime_takes_the_enclosure():
    # orbit height --poly '["1/9","1/3","1"]' --alpha 4/3: alpha escapes at
    # infinity (f(4/3) = 7/3 > R = 13/9) but its orbit stays 3-adically
    # bounded, so the local term at 3 is the one-sided enclosure [0, hi]
    from orbitforge.orbits import _padic_local_height

    ds = PolyDS(Poly([F(1, 9), F(1, 3), 1]))
    tol = ds.settings.tolerance
    assert ds.padic_escape(F(4, 3), 3, 16) is None
    local = _padic_local_height(ds, F(4, 3), 3, tol)
    assert local.re_mid == local.rad > 0
    h1 = canonical_height(ds, F(4, 3))
    h2 = canonical_height(ds, ds.apply(F(4, 3)))
    assert ds.apply(F(4, 3)) == F(7, 3) and h1.method == h2.method == "limit"
    assert max(float(h1.value.rad), float(h2.value.rad)) <= float(tol)
    assert abs(float(h2.value.re_mid - 2 * h1.value.re_mid)) <= 2 * float(tol)


def test_preperiodic_vs_wandering_on_quadratic_corpus():
    for c in range(-2, 3):
        ds = PolyDS(Poly([c, 0, 1]))
        for alpha in (F(0), F(1), F(-1), F(1, 2), F(2, 3)):
            verdict = classify_orbit(ds, alpha)
            h = canonical_height(ds, alpha, F(1, 10**10))
            if isinstance(verdict, Preperiodic):
                assert h.contains_zero(), (c, alpha)
            else:
                assert h.excludes_zero(), (c, alpha)


# -- level sets ---------------------------------------------------------------------

def test_small_orbit_levels_examples():
    lvl0 = small_orbit_level(DS1, F(1, 3), 0)
    assert lvl0.rational_values() == [F(1, 3)]

    lvl1 = small_orbit_level(DS1, F(1, 3), 1)
    assert lvl1.rational_values() == [F(-1, 3), F(1, 3)]
    assert lvl1.root_count() == 2

    lvl2 = small_orbit_level(DS1, F(1, 3), 2)
    assert lvl2.rational_values() == [F(-1, 3), F(1, 3)]
    assert [b.factor for b in lvl2.algebraic] == [Poly([F(-17, 9), 0, 1])]
    assert lvl2.root_count() == 4


def test_level_sizes_and_defining_equation():
    alpha = F(1, 3)
    for n in (1, 2, 3):
        lvl = small_orbit_level(DS1, alpha, n)
        assert lvl.root_count() == 2 ** n
        target = lvl.target
        fn = DS1.iterate(n)
        for root, _ in lvl.rational_roots:
            assert fn(root) == target
        for batch in lvl.algebraic:
            for ball in batch.roots:
                image = eval_poly_ball(fn, ball)
                assert image.contains_value(target)


def test_levels_are_nested():
    alpha = F(1, 3)
    for n in (0, 1, 2):
        lvl = small_orbit_level(DS1, alpha, n)
        nxt = DS1.iterate(n + 1)
        target = nxt(alpha)
        for root, _ in lvl.rational_roots:
            assert nxt(root) == target


def test_grand_orbit_examples():
    sq = PolyDS(Poly.monomial(2))
    g = grand_orbit_points(sq, F(4), 1, 0)
    assert g.rational_values() == [F(-2), F(2)]

    g2 = grand_orbit_points(DS1, F(1, 3), 1, 1)
    assert g2.rational_values() == [F(-1, 3), F(1, 3)]

    g3 = grand_orbit_points(DS1, F(1, 3), 0, 2)
    assert g3.rational_values() == [DS1.iterate(2)(F(1, 3))]


def test_grand_level_with_rational_and_nonlinear_factors(monkeypatch):
    # orbit grand --poly "[-1,0,1]" --alpha 8 --n 2 --m 0: the level
    # X^4 - 2X^2 - 8 = (X - 2)(X + 2)(X^2 + 2) is certified from its
    # pulled-back balls alone, each of -2 and 2 taking the one ball that
    # holds it exactly
    import orbitforge.orbits as orbits_mod

    def refused(p):
        raise AssertionError(f"{p!r} was certified on its own")

    monkeypatch.setattr(orbits_mod, "certified_roots", refused)
    lvl = grand_orbit_points(DS1, F(8), 2, 0)
    assert lvl.rational_roots == ((F(-2), 1), (F(2), 1))
    (batch,) = lvl.algebraic
    assert (batch.factor, batch.multiplicity) == (Poly([2, 0, 1]), 1)
    a, b = batch.roots
    assert not (a - b).contains_zero()
    assert all(eval_poly_ball(batch.factor, z).contains_zero() for z in (a, b))


X2M1, X2M2, X2M34 = Poly([-1, 0, 1]), Poly([-2, 0, 1]), Poly([F(-3, 4), 0, 1])
CUBIC, CHEB3, X3X2 = Poly([1, -1, 0, 1]), Poly([0, -3, 0, 1]), Poly([0, 0, 1, 1])

LEVEL_CASES = [
    (X2M1, F(0), 3, 3),             # critical and periodic: repeated factors
    (X2M1, F(1), 2, 2),             # preperiodic onto the critical cycle
    (X2M1, F(-1), 3, 3),
    (X2M2, F(0), 3, 3),             # critical, strictly preperiodic
    (X2M34, F(1, 2), 3, 3),
    (CHEB3, F(1), 2, 2),            # critical, preperiodic
    (CHEB3, F(-1), 1, 2),
    (CUBIC, F(1, 2), 2, 2),
    (X3X2, F(-2, 3), 2, 2),         # rational critical point
    (X2M1, F(1, 3), 0, 0),          # n = 0
    (X2M1, F(1, 3), 0, 2),
    (CUBIC, F(1, 2), 0, 1),
    (X2M1, F(1, 3), 1, 3),          # m > n
    (X2M2, F(1, 2), 2, 4),
    (CHEB3, F(1, 2), 1, 2),
    (X2M1, F(1, 3), 3, 1),          # n > m
    (Poly.monomial(2), F(4), 2, 0),
    (CUBIC, F(0), 2, 0),
]


def _seeded_level_cases(count: int, seed: int = 20090716) -> list:
    rng = random.Random(seed)
    maps = [X2M1, X2M2, X2M34, Poly([F(1, 4), 0, 1]), CUBIC, CHEB3, X3X2]
    alphas = [F(0), F(1), F(-1), F(1, 2), F(-1, 2), F(1, 3), F(2, 3), F(-3, 2)]
    cases = []
    while len(cases) < count:
        f = rng.choice(maps)
        n = rng.randrange(0, 4 if f.degree == 2 else 3)
        cases.append((f, rng.choice(alphas), n, rng.randrange(0, 5)))
    return cases


@pytest.mark.parametrize("f, alpha, n, m", LEVEL_CASES + _seeded_level_cases(16))
def test_level_sets_match_factoring_the_whole_level_polynomial(f, alpha, n, m):
    # reference: f^n(X) - f^m(alpha) factored at once
    ds = PolyDS(f)
    target, g = level_polynomial(ds, alpha, n, m)
    rational, batches = level_roots(factor_rational(g))
    lvl = small_orbit_level(ds, alpha, n) if n == m else grand_orbit_points(ds, alpha, n, m)
    assert (lvl.level, lvl.source_iterate, lvl.poly, lvl.target) == (n, m, g, target)
    assert lvl.rational_roots == rational
    # pulled-back balls certify the same roots in the same order
    assert [(b.factor, b.multiplicity, len(b.roots)) for b in lvl.algebraic] == \
        [(b.factor, b.multiplicity, len(b.roots)) for b in batches]
    for mine, theirs in zip(lvl.algebraic, batches):
        for a, b in zip(mine.roots, theirs.roots):
            assert (a - b).contains_zero()
    assert lvl.root_count() == f.degree ** n


def test_level_roots_are_pulled_back_unless_alpha_is_critical(monkeypatch):
    # the README orbit small and curve intersect commands certify no level
    # factor on its own; at the critical alpha = 0 of X^2 - 1 the step onto
    # f(0) = -1 fails, and only the entries below it take certified_roots
    import orbitforge.orbits as orbits_mod
    import orbitforge.rootcert as rootcert_mod

    certify = rootcert_mod.certified_roots
    calls = []

    def counting(p):
        calls.append(p)
        return certify(p)

    monkeypatch.setattr(orbits_mod, "certified_roots", counting)
    monkeypatch.setattr(rootcert_mod, "certified_roots", counting)
    for argv in (["orbit", "small", "--poly", "[-1,0,1]", "--alpha", "1/3",
                  "--level", "2"],
                 ["curve", "intersect", "--poly", "[-1,0,1]",
                  "--curve", '[[1,0,"1"],[0,1,"-1"]]', "--alpha", "1/3",
                  "--cap", "3"]):
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            assert main(argv) == 0
    assert calls == []
    lvl = small_orbit_level(DS1, F(0), 3)
    assert calls == [b.factor for b in lvl.algebraic]
    assert all(b.roots == tuple(certify(b.factor)) for b in lvl.algebraic)


def test_level_cap():
    with pytest.raises(ResourceError):
        small_orbit_level(DS1, F(1, 3), 14)


@pytest.mark.parametrize("n, m", [(-1, -1), (-1, 2), (2, -1)])
def test_negative_levels_are_a_domain_error(n, m):
    # with min(n, m) < 0 there is no level to build: the pull-back tree used
    # to read an empty level list and raise IndexError
    with pytest.raises(DomainError, match="levels must be >= 0"):
        level_root_groups(DS1, F(1, 3), n, m)


def test_grand_target_is_f_applied_m_times():
    # f^12(1/3) under X^2 - 1 has a 4096-fold denominator; building the
    # degree-4096 iterate to evaluate it took tens of seconds
    out = io.StringIO()
    with time_limit(10), redirect_stdout(out), redirect_stderr(io.StringIO()):
        main(["orbit", "grand", "--poly", "[-1,0,1]", "--alpha", "1/3",
              "--n", "0", "--m", "12"])
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == (
        "c8bcba6b8bed91d5c243f9f67ed82f6a17545d3b49b4e91692c4a1f74e2b74a1")
    # the size of f^m(alpha) still keeps m to the iterate cap
    with pytest.raises(ResourceError, match=r"iterate degree 2\^17 exceeds cap 65536"):
        level_polynomial(DS1, F(1, 3), 0, 17)
