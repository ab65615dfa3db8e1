"""Canonical heights and bounded-level enumeration of small and grand orbits.

The canonical height of a rational point decomposes into certified local
contributions: at a good-reduction prime the local term is log+|alpha|_p
exactly; at a bad-reduction prime the p-adic orbit either certifiably escapes
(the term becomes exact) or stays bounded, leaving a one-sided enclosure that
shrinks like d^-n; at the archimedean place the Green module supplies a
certified ball.  The sum is a rigorous enclosure of hhat, so doubling
hhat(f(x)) = d*hhat(x) and vanishing on preperiodic points hold at tolerance
by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from fractions import Fraction

import mpmath
from mpmath import mpf

from .ball import CBall, rball
from .config import DEFAULTS
from .dynamics import PolyDS
from .errors import DomainError, ResourceError
from .exact import BiPoly, Poly, _prime_factors, _v_p, rat
from .factor import factor_rational
from .green import green_eval
from .rootcert import certified_roots


@dataclass(frozen=True)
class HeightValue:
    value: CBall                  # real ball, natural-log units
    method: str                   # "limit" | "exact-power-map"

    def contains_zero(self) -> bool:
        return self.value.re_mid - self.value.rad <= 0

    def excludes_zero(self) -> bool:
        return self.value.re_mid - self.value.rad > 0


def weil_height(q: Fraction) -> float:
    q = rat(q)
    return float(mpmath.log(max(abs(q.numerator), q.denominator)))


def _log_ball_int(n: int) -> CBall:
    val = mpmath.log(mpf(n))
    return CBall(val, mpf(0), mpf(2) ** (6 - mpmath.mp.prec) * (1 + abs(val)))


def _padic_local_height(ds: PolyDS, alpha: Fraction, p: int,
                        tol: Fraction) -> CBall:
    """Certified enclosure of lim log+|f^n(alpha)|_p / d^n at a bad prime."""
    logp = mpmath.log(mpf(p))
    cap_exp = ds.padic_escape_radius_exponent(p)   # log_p of the escape bound
    d = ds.d
    # steps until the bounded-case enclosure is below tol
    tol_f = mpf(tol.numerator) / mpf(tol.denominator)
    budget = 1
    while float(cap_exp) * float(logp) / d ** budget >= tol_f and budget < 400:
        budget += 1
    budget = max(budget, 4)
    hit = ds.padic_escape(alpha, p, budget)
    if hit is not None:
        n, v = hit
        val = mpf(-v) * logp / mpf(d) ** n
        return CBall(val, mpf(0), mpf(2) ** (8 - mpmath.mp.prec) * (1 + val))
    hi = mpf(float(cap_exp)) * logp / mpf(d) ** budget * (1 + mpf(2) ** -40)
    return CBall(hi / 2, mpf(0), hi / 2)


def canonical_height(ds: PolyDS, alpha, tol: Fraction = DEFAULTS.tolerance) -> HeightValue:
    """hhat(alpha) = lim h(f^n(alpha)) / d^n, as a certified ball of radius <= tol."""
    alpha = rat(alpha)
    if tol <= 0:
        raise DomainError("tol must be positive")
    if ds.f == Poly.monomial(ds.d):
        # power map: hhat equals the Weil height exactly
        num, den = abs(alpha.numerator), alpha.denominator
        h = max(num, den)
        return HeightValue(_log_ball_int(h) if h > 1 else rball(0),
                           "exact-power-map")
    bad = set(ds.bad_reduction_primes())
    total = rball(0)
    if alpha != 0:
        for p in _prime_factors(alpha.denominator):
            if p in bad:
                continue
            v = _v_p(alpha, p)
            if v < 0:
                total = total + _log_ball_int(p) * CBall.exact_int(-v)
    n_parts = 1 + len(bad)
    part_tol = tol / (2 * n_parts)
    for p in sorted(bad):
        total = total + _padic_local_height(ds, alpha, p, part_tol)
    g = green_eval(ds, CBall.from_rational(alpha), tol / 2)
    total = total + g.value
    return HeightValue(total, "limit")


# ---------------------------------------------------------------------------
# orbit level sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AlgebraicRootBatch:
    factor: Poly                    # monic irreducible over Q
    multiplicity: int
    roots: tuple[CBall, ...]


@dataclass(frozen=True)
class OrbitLevelSet:
    level: int                      # n in f^n(X) = target
    source_iterate: int             # m in target = f^m(alpha)
    poly: Poly                      # f^n(X) - f^m(alpha)
    target: Fraction
    rational_roots: tuple[tuple[Fraction, int], ...]
    algebraic: tuple[AlgebraicRootBatch, ...]

    def root_count(self) -> int:
        total = sum(m for _, m in self.rational_roots)
        total += sum(b.factor.degree * b.multiplicity for b in self.algebraic)
        return total

    def rational_values(self) -> list[Fraction]:
        return [r for r, _ in self.rational_roots]


def level_polynomial(ds: PolyDS, alpha: Fraction, n: int,
                     m: int) -> tuple[Fraction, Poly]:
    """(f^m(alpha), f^n(X) - f^m(alpha)), after the level degree cap check.
    f^m(alpha), f applied m times, grows like d^m, so m > 1 is held to
    ``max_poly_degree`` as ``PolyDS.iterate`` holds f^m."""
    if n < 0 or m < 0:
        raise DomainError("levels must be >= 0")
    if ds.d ** n > ds.settings.orbit_degree_cap:
        raise ResourceError(
            f"level degree {ds.d}^{n} exceeds cap {ds.settings.orbit_degree_cap}")
    if m > 1 and ds.d ** m > ds.settings.max_poly_degree:
        raise ResourceError(
            f"iterate degree {ds.d}^{m} exceeds cap {ds.settings.max_poly_degree}")
    target = alpha
    for _ in range(m):
        target = ds.apply(target)
    return target, ds.iterate(n) - Poly([target])


def level_roots(factors) -> tuple[tuple[tuple[Fraction, int], ...],
                                  tuple[AlgebraicRootBatch, ...]]:
    """Roots of (irreducible monic factor, multiplicity) pairs: ascending
    exact rational roots, and certified balls for each nonlinear factor in
    the given order."""
    rational: list[tuple[Fraction, int]] = []
    batches: list[AlgebraicRootBatch] = []
    for factor, mult in factors:
        if factor.degree == 1:
            rational.append((-factor.coeff(0), mult))
        else:
            batches.append(AlgebraicRootBatch(
                factor, mult, tuple(certified_roots(factor))))
    rational.sort()
    return tuple(rational), tuple(batches)


def level_factors(ds: PolyDS, alpha: Fraction, n: int,
                  m: int) -> list[list[tuple[Poly, int]]]:
    """Factor f^n(X) - f^m(alpha) along its diagonal, the one place a level
    polynomial is factored.  With s = min(n, m), each level
    g_i = f^(n-s+i)(X) - f^(m-s+i)(alpha) divides g_(i+1), since u - v
    divides f(u) - f(v).  Entry i, i = 0..s, holds the irreducible monic
    factors of g_0 or of the exact quotient g_i / g_(i-1), with
    multiplicities, as ``factor_rational`` gives them.  Every level's degree
    cap is checked, ascending, before any factoring."""
    s = min(n, m)
    polys = [level_polynomial(ds, alpha, n - s + i, m - s + i)[1]
             for i in range(s + 1)]
    return [factor_rational(g.divmod(polys[i - 1])[0] if i else g)   # exact
            for i, g in enumerate(polys)]


def _level_set(ds: PolyDS, alpha: Fraction, n: int, m: int) -> OrbitLevelSet:
    target, g = level_polynomial(ds, alpha, n, m)
    mults: dict[Poly, int] = {}
    for fac, mult in chain.from_iterable(level_factors(ds, alpha, n, m)):
        mults[fac] = mults.get(fac, 0) + mult
    rational, batches = level_roots(sorted(     # factor_rational's order
        mults.items(), key=lambda t: (t[0].degree, t[0].coeffs)))
    return OrbitLevelSet(n, m, g, target, rational, batches)


def small_orbit_level(ds: PolyDS, alpha, n: int) -> OrbitLevelSet:
    """Solutions of f^n(X) = f^n(alpha): the level-n slice of the small orbit."""
    return _level_set(ds, rat(alpha), n, n)


def grand_orbit_points(ds: PolyDS, alpha, n: int, m: int) -> OrbitLevelSet:
    """Solutions of f^n(X) = f^m(alpha)."""
    return _level_set(ds, rat(alpha), n, m)


# ---------------------------------------------------------------------------
# height balance along a curve
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HeightBalanceRow:
    x: Fraction
    y: Fraction
    difference: float               # d1*h(x) - d2*h(y)
    scale: float                    # sqrt(1 + min(h(x), h(y)))


@dataclass(frozen=True)
class HeightBalanceReport:
    d1: int
    d2: int
    rows: tuple[HeightBalanceRow, ...]
    fitted_constant: float          # smallest c with |diff| <= c * scale on the sample


def height_balance_check(poly: BiPoly, points) -> HeightBalanceReport:
    """Balanced height difference along exact points of the curve P = 0.

    The coordinate-function degrees are d1 = deg_Y P (degree of x on the
    curve) and d2 = deg_X P (degree of y); the bounded combination is the
    cross pairing d2*h(x) - d1*h(y), compared against c*sqrt(1 + min(h)).
    Points must lie on the curve exactly.
    """
    d1, d2 = poly.deg_y, poly.deg_x
    rows = []
    worst = 0.0
    for x, y in points:
        x, y = rat(x), rat(y)
        if poly.eval(x, y) != 0:
            raise DomainError(f"point ({x}, {y}) is not on the curve")
        hx, hy = weil_height(x), weil_height(y)
        diff = d2 * hx - d1 * hy
        scale = math.sqrt(1 + min(hx, hy))
        rows.append(HeightBalanceRow(x, y, diff, scale))
        worst = max(worst, abs(diff) / scale)
    return HeightBalanceReport(d1, d2, tuple(rows), worst)
