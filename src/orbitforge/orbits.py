"""Canonical heights and bounded-level enumeration of small and grand orbits.

The canonical height of a rational point decomposes into certified local
contributions: at a good-reduction prime the local term is log+|alpha|_p
exactly; at a bad-reduction prime the p-adic orbit either certifiably escapes
(the term becomes exact) or stays bounded, leaving a one-sided enclosure that
shrinks like d^-n; at the archimedean place the Green module supplies a
certified ball.  The sum is a rigorous enclosure of hhat, so doubling
hhat(f(x)) = d*hhat(x) holds at tolerance by construction.  A preperiodic
point, found by the exact orbit walk of ``classify_orbit``, has hhat = 0
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import mpmath
from mpmath import mpf

from .ball import CBall, _exact, coeff_balls, horner_ball, rball
from .dynamics import PolyDS, Preperiodic, classify_orbit
from .errors import DomainError, PrecisionError, ResourceError, UndecidedError
from .exact import Poly, _prime_factors, _v_p, rat
from .factor import factor_rational
from .green import green_eval
from .rootcert import certified_roots, pull_back


@dataclass(frozen=True)
class HeightValue:
    value: CBall                  # real ball, natural-log units
    method: str                   # "limit" | "exact-power-map" | "preperiodic"

    def contains_zero(self) -> bool:
        return self.value.re_mid - self.value.rad <= 0

    def excludes_zero(self) -> bool:
        return self.value.re_mid - self.value.rad > 0


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


def canonical_height(ds: PolyDS, alpha, tol: Optional[Fraction] = None) -> HeightValue:
    """hhat(alpha) = lim h(f^n(alpha)) / d^n, as a certified ball of radius <= tol
    (by default the map's ``settings.tolerance``); a wider ball, as when tol
    is below what the working precision reaches, raises PrecisionError.

    When the ball holds 0 and ``classify_orbit`` proves alpha preperiodic,
    hhat = 0 exactly."""
    alpha = rat(alpha)
    tol = ds.settings.tolerance if tol is None else tol
    if tol <= 0:
        raise DomainError("tol must be positive")
    height = _height(ds, alpha, tol)
    if _exact(height.value.rad) > tol:
        raise PrecisionError(f"the height's radius exceeds tol at {mpmath.mp.prec} bits")
    return height


def _height(ds: PolyDS, alpha: Fraction, tol: Fraction) -> HeightValue:
    if ds.f == Poly.monomial(ds.d):
        # power map: hhat equals the Weil height exactly
        num, den = abs(alpha.numerator), alpha.denominator
        h = max(num, den)
        return HeightValue(_log_ball_int(h) if h > 1 else CBall.exact_int(0),
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
    height = HeightValue(total + g.value, "limit")
    if height.contains_zero():
        # only then can alpha be preperiodic; the exact walk decides it
        try:
            if isinstance(classify_orbit(ds, alpha), Preperiodic):
                return HeightValue(CBall.exact_int(0), "preperiodic")
        except UndecidedError:
            pass                # the ball still encloses hhat
    return height


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


def level_roots(factors, certified: Optional[dict] = None) -> tuple[
        tuple[tuple[Fraction, int], ...], tuple[AlgebraicRootBatch, ...]]:
    """Roots of (irreducible monic factor, multiplicity) pairs: ascending
    exact rational roots, and ``certified_roots`` balls for each nonlinear
    factor in the given order.  A caller that passes a ``certified`` dict
    (factor -> balls) across calls certifies each factor once."""
    certified = {} if certified is None else certified
    rational: list[tuple[Fraction, int]] = []
    batches: list[AlgebraicRootBatch] = []
    for factor, mult in factors:
        if factor.degree == 1:
            rational.append((-factor.coeff(0), mult))
            continue
        if factor not in certified:
            certified[factor] = tuple(certified_roots(factor))
        batches.append(AlgebraicRootBatch(factor, mult, certified[factor]))
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
    if s < 0:
        raise DomainError("levels must be >= 0")
    polys = [level_polynomial(ds, alpha, n - s + i, m - s + i)[1]
             for i in range(s + 1)]
    return [factor_rational(g.divmod(polys[i - 1])[0] if i else g)   # exact
            for i, g in enumerate(polys)]


def _pull_back_tree(ds: PolyDS, alpha: Fraction, n: int, m: int,
                    levels) -> list[Optional[list[CBall]]]:
    """Balls of the solutions of f^n(X) = f^m(alpha) by entry of
    ``levels`` (``level_factors``' output), None where not pulled back.

    The tree pulls back from the exact target a_0 = f^m(alpha) by
    ``rootcert.pull_back``, the one loop over the certified preimage step,
    which drops an uncertified solution with its subtree (a shortfall that
    ``_by_count`` refuses).  Along the alpha-path a_j = f^(m-j)(alpha),
    j <= s = min(n, m), exactly one of the preimages of a_(j-1) must hold
    a_j (decided exactly, so the others exclude it), and the path goes on
    from a_j's own ball.  The subtrees of the other preimages hold the roots
    of g_i that are not roots of g_(i-1), i = s - j + 1; the subtree of a_s
    holds g_0's.  An entry with no nonlinear factor needs no balls and is
    not pulled back."""
    f, s = ds.f, min(n, m)
    a_s = alpha
    for _ in range(m - s):
        a_s = ds.apply(a_s)
    path = [a_s]
    for _ in range(s):
        path.append(ds.apply(path[-1]))
    path.reverse()                                # path[j] = a_j
    wanted = [any(fac.degree > 1 for fac, _mult in factors) for factors in levels]
    out: list[Optional[list[CBall]]] = [None] * (s + 1)
    for j in range(1, s + 1):
        kids = pull_back(f, [CBall.from_rational(path[j - 1])], 1)
        on_path = [z for z in kids if z.contains_value(path[j])]
        if len(on_path) != 1:
            return out                            # entries <= s - j + 1 fail
        if wanted[s - j + 1]:
            out[s - j + 1] = pull_back(
                f, [z for z in kids if z is not on_path[0]], n - j)
    if wanted[0]:
        out[0] = pull_back(f, [CBall.from_rational(path[s])], n - s)
    return out


def _by_count(factors, balls) -> Optional[tuple]:
    """``level_roots(factors)`` with the pulled-back ``balls`` as the
    certificates, or None unless counting proves they hold exactly the
    factors' roots.  Each ball holds one root of the entry's quotient, so
    deg-many pairwise disjoint balls of a squarefree quotient hold all its
    roots, one each.  A rational root takes the one ball holding it
    (exactly); a single nonlinear factor owns the rest, and several must
    each contain 0 on exactly deg F balls, no ball claimed twice."""
    if (balls is None or any(mult > 1 for _fac, mult in factors)
            or len(balls) != sum(fac.degree for fac, _mult in factors)):
        return None
    for i, a in enumerate(balls):
        if any((a - b).contains_zero() for b in balls[:i]):
            return None
    rest = list(balls)
    rational = []
    for fac, _mult in factors:
        if fac.degree == 1:
            root = -fac.coeff(0)
            hits = [i for i, b in enumerate(rest) if b.contains_value(root)]
            if len(hits) != 1:
                return None
            del rest[hits[0]]
            rational.append((root, 1))
    nonlinear = [fac for fac, _mult in factors if fac.degree > 1]
    if len(nonlinear) == 1:
        owned = {nonlinear[0]: rest}
    else:
        owned, claimed = {}, set()
        for fac in nonlinear:
            cballs = coeff_balls(fac)
            mine = {i for i, b in enumerate(rest)
                    if horner_ball(cballs, b).contains_zero()}
            if len(mine) != fac.degree or mine & claimed:
                return None
            claimed |= mine
            owned[fac] = [rest[i] for i in mine]
    return tuple(sorted(rational)), tuple(
        AlgebraicRootBatch(fac, 1, tuple(sorted(
            owned[fac], key=lambda b: (b.re_mid, b.im_mid))))
        for fac in nonlinear)


def level_root_groups(ds: PolyDS, alpha: Fraction, n: int, m: int) -> list:
    """For each entry i of ``level_factors(ds, alpha, n, m)``, the roots of
    its factors as ``level_roots`` gives them: ascending rationals, then
    the nonlinear factors' balls in factor order, each sorted by (real,
    imaginary) midpoint.  The balls come from one pull-back tree of
    f^m(alpha) (``_pull_back_tree``), attached to the factors by counting
    (``_by_count``); an entry whose balls fail either step, such as one
    with a repeated root or one below a critical value, takes
    ``level_roots``, which certifies each factor alone, once."""
    levels = level_factors(ds, alpha, n, m)
    trees = _pull_back_tree(ds, alpha, n, m, levels)
    certified: dict = {}            # a factor in two failed entries
    return [_by_count(factors, balls) or level_roots(factors, certified)
            for factors, balls in zip(levels, trees)]


def _level_set(ds: PolyDS, alpha: Fraction, n: int, m: int) -> OrbitLevelSet:
    """The level set f^n(X) = f^m(alpha) from ``level_root_groups``: equal
    factors of different entries merge, their multiplicities added."""
    target, g = level_polynomial(ds, alpha, n, m)
    rational: dict[Fraction, int] = {}
    batches: dict[Poly, AlgebraicRootBatch] = {}
    for roots, algebraic in level_root_groups(ds, alpha, n, m):
        for root, mult in roots:
            rational[root] = rational.get(root, 0) + mult
        for b in algebraic:
            seen = batches.get(b.factor)
            batches[b.factor] = b if seen is None else AlgebraicRootBatch(
                b.factor, seen.multiplicity + b.multiplicity, seen.roots)
    return OrbitLevelSet(      # factor_rational's order
        n, m, g, target, tuple(sorted(rational.items())),
        tuple(batches[fac] for fac in sorted(
            batches, key=lambda fac: (fac.degree, fac.coeffs))))


def small_orbit_level(ds: PolyDS, alpha, n: int) -> OrbitLevelSet:
    """Solutions of f^n(X) = f^n(alpha): the level-n slice of the small orbit."""
    return _level_set(ds, rat(alpha), n, n)


def grand_orbit_points(ds: PolyDS, alpha, n: int, m: int) -> OrbitLevelSet:
    """Solutions of f^n(X) = f^m(alpha)."""
    return _level_set(ds, rat(alpha), n, m)
