"""Plane curves against orbits: special-curve classification, certified
intersection with squared small-orbit level sets, linear maps commuting with
iterates, and the p-adic pullback series used for zero counting.

A curve is read through the views of its ``BiPoly``: its rows in one
variable, its values and its resultants.  The special-curve test divides
f^n(X) - f^n(Y) by P in Y over Q[X] on P's Y-rows, so it builds no
bivariate polynomial.

Both the special-curve test and the intersection pair rule ask questions
whose answer is almost always "no", and both first try to prove that "no"
modulo one prime p per query, the least prime >= 2^61 - 1 that divides no
denominator of the input (the modular certificates below).  One walk of
f^n(x0) and f^n(Y) mod (p, P(x0, Y)) tests every level n <= nmax without
building an iterate, so only the levels it leaves reach the exact division,
least first, and an nmax past ``max_poly_degree`` answers for a curve with
no level left; axis lines take the same walk mod (p, q) against f^n(alpha).
The pair rule is "modular no, then the exact partner count, then balls",
once per pair of minimal polynomials (f_x, f_y) for the whole block of
their roots: Res_Y(f_y, P) mod p, taken once per f_y, proves most blocks
apart, and one exact partner count decides the rest or hands each x to the
disjoint balls of f_y's roots.  Exact arithmetic decides every "yes".

The pullback series: with s(x) = 1/Psi(x) (a power series with unit linear
coefficient), a curve P defines N(x, y) = P(s(x), s(y)) = sum a_nm x^n y^m.
For a scaling phi with |phi|_p < 1, roots of unity z1, z2, and coprime
integers k1 > 0, k1 >= k2, the series

    nu(x) = N(z1 phi x^k1, z2 phi x^k2),  b_k = sum_{k1 n + k2 m = k}
                                                 a_nm phi^(n+m) z1^n z2^m

is analytic on an annulus around |x| = 1; its sup norm, leading index kappa,
and annulus zero count are computed exactly through the p-adic module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count, groupby
from math import gcd, prod
from typing import Optional, Union

from .ball import CBall
from .boettcher import phi_series, psi_series
from .dynamics import PolyDS, Preperiodic, classify_orbit
from .errors import DomainError, WindowError
from .exact import BiPoly, LaurentBlock, Poly, _is_prime, evaluate_series_at_block, rat
from .factor import (_add, _divmod, _gcd, _monic, _mul, _sub, _trim,
                     bivariate_irreducible)
from .orbits import level_polynomial, level_root_groups
from .padic import (PadicScalar, PadicSeries, Radius, count_zeros_pj, kappa,
                    sup_norm)


@dataclass(frozen=True)
class PlaneCurve:
    """A plane curve is its primitive integer bivariate polynomial.

    deg_Y P is the degree of the first coordinate function on the curve,
    deg_X P the second.  Irreducibility over Q is decided (by Kronecker
    substitution on the integer factorer, ``factor.bivariate_irreducible``)
    each time ``irreducible_q`` is read, never at construction; absolute
    irreducibility is not certified.
    """

    poly: BiPoly

    @property
    def irreducible_q(self) -> bool:
        return bivariate_irreducible(self.poly)

    @staticmethod
    def from_bipoly(b: BiPoly) -> "PlaneCurve":
        if b.is_zero or b.total_degree < 1:
            raise DomainError("a plane curve needs a nonconstant polynomial")
        return PlaneCurve(b.content_primitive()[1])

    @staticmethod
    def from_terms(terms) -> "PlaneCurve":
        return PlaneCurve.from_bipoly(BiPoly(terms))


# ---------------------------------------------------------------------------
# modular certificates of "no"
# ---------------------------------------------------------------------------

# Reduction modulo a prime p and evaluation at a point are ring maps, so a
# divisibility over Q that holds between p-integral polynomials, the divisor
# monic (or with a unit leading coefficient) at p, still holds after them;
# a non-division modulo p proves one over Q (J. von zur Gathen and
# J. Gerhard, *Modern Computer Algebra*, 3rd ed., ch. 5-6).  Exact
# arithmetic decides every "yes".  Modular polynomials are ``factor``'s int
# lists, lowest degree first.

_PRIME = 2 ** 61 - 1


def _prime_for(f: Poly, alpha: Fraction, lead: int = 1) -> int:
    """The least prime p >= 2^61 - 1 dividing no denominator of f or alpha,
    nor lead: every input of the modular certificates is then p-integral."""
    bad = lead * alpha.denominator * prod(c.denominator for c in f.coeffs)
    p = _PRIME
    while bad % p == 0:
        p = next(q for q in count(p + 1) if _is_prime(q))
    return p


def _mod_p(coeffs, prime: int) -> list[int]:
    """p-integral rational coefficients reduced mod prime, trimmed."""
    return _trim([c.numerator * pow(c.denominator, -1, prime) % prime
                  for c in coeffs])


def _value(a: list[int], x: int, prime: int) -> int:
    """a(x) mod prime by Horner."""
    acc = 0
    for c in reversed(a):
        acc = (acc * x + c) % prime
    return acc


def _compose_mod(f: list[int], y: list[int], m: list[int], prime: int) -> list[int]:
    """f(y) mod (prime, m) by Horner, for m with a unit leading coefficient."""
    acc: list[int] = []
    for c in reversed(f):
        acc = _add(_divmod(_mul(acc, y, prime), m, prime)[1], [c], prime)
    return acc


def _first_level(fp: list[int], m: list[int], a: int, nmax: int, prime: int, holds) -> int:
    """The least n <= nmax with holds(z_n - a_n), else nmax + 1, for z_n =
    f^n(Y) mod (prime, m) and a_n = f^n(a) mod prime, O(d deg(m)^2) a step.
    A property that holds at a level must hold at every later one."""
    z = _divmod([0, 1], m, prime)[1]
    for n in range(nmax + 1):
        if holds(_sub(z, [a], prime)):
            return n
        z, a = _compose_mod(fp, z, m, prime), _value(fp, a, prime)
    return nmax + 1


def _diagonal_levels(rows: list[Poly], f: Poly, nmax: int, prime: int) -> range:
    """The levels n <= nmax at which P, by its Y-rows with a constant top row
    that prime does not divide, is not proven mod prime not to divide
    f^n(X) - f^n(Y): that makes P(x0, Y) divide f^n(x0) - f^n(Y) mod prime,
    so the walk at x0 proves every level before its first equality apart.
    Equality holds at every later level (apply f to both sides).  It walks
    at the two points of ``_diagonal_points``."""
    fp = _mod_p(f.coeffs, prime)
    start = 0
    for x0, m in _diagonal_points([_mod_p(row.coeffs, prime) for row in rows], prime):
        if start <= nmax:       # the second point walks while levels remain
            start = max(start, _first_level(fp, m, x0, nmax, prime, lambda r: not r))
    return range(start, nmax + 1)


def _diagonal_points(reduced: list[list[int]], prime: int) -> list[tuple[int, list[int]]]:
    """(x0, P(x0, Y) mod prime) for the first two x0 of 3, 7, 11, .. with
    P(x0, x0) != 0 mod prime, by P's reduced Y-rows; for x0 = 3 and 7 when
    P(X, X) = 0 mod prime.  A walk at a root of P(X, X) passes at level 0
    and proves nothing.  P(X, X) has degree at most ``tries`` - 2, so unless
    it is zero at least two of the ``tries`` points are not its roots."""
    tries = len(reduced) + max(map(len, reduced))
    at = [(x0, [_value(row, x0, prime) for row in reduced])
          for x0 in range(3, 4 * tries, 4)]
    off = [(x0, m) for x0, m in at if _value(m, x0, prime)]
    return off[:2] if len(off) >= 2 else at[:2]


def _axis_levels(q: Poly, f: Poly, alpha: Fraction, nmax: int, prime: int) -> range:
    """The levels n <= nmax at which q is not proven mod prime to be coprime
    to f^n(X) - f^n(alpha), by gcd(q, z_n - a_n) = 1 mod prime.

    A common factor over Q is, made monic, p-integral (its roots are level
    roots, integral over the p-integral f and alpha), so by Gauss's lemma it
    divides q and the level modulo prime, even when q's degree drops there
    (q is primitive, so not zero mod prime).  A common factor at level n is
    one at every later level, as u - v divides f(u) - f(v)."""
    qp = _mod_p(q.coeffs, prime)
    a = (_mod_p([alpha], prime) or [0])[0]
    start = _first_level(_mod_p(f.coeffs, prime), qp, a, nmax, prime,
                         lambda r: len(_gcd(qp, r, prime)) > 1)
    return range(start, nmax + 1)


def _norm_mod(f: list[int], g: list[int], prime: int) -> int:
    """prod g(beta) over the roots beta of a monic f mod prime, by the
    Euclid of ``exact._norm``."""
    acc = 1
    while True:
        g = _divmod(g, f, prime)[1]
        if len(g) < 2:
            return acc * pow(g[0] if g else 0, len(f) - 1, prime) % prime
        sign = -1 if (len(f) - 1) * (len(g) - 1) % 2 else 1
        acc = acc * sign * pow(g[-1], len(f) - 1, prime) % prime
        f, g = _monic(g, prime), f


def _resultant_mod(P: BiPoly, fy: Poly, prime: int) -> Optional[list[int]]:
    """Res_Y(f_y, P) mod prime for a monic p-integral f_y, by the evaluation
    and interpolation of ``exact.poly_resultant`` run mod prime; None when
    there are too few points mod prime.

    f_y is monic, so the resultant is prod P(X, beta) over the roots of f_y
    whatever P's leading coefficients, and reducing it mod prime commutes
    with taking it."""
    fp = _mod_p(fy.coeffs, prime)
    rows = [_mod_p(row.coeffs, prime) for row in P.coeffs_in("y")]
    top = fy.degree * max(P.deg_x, 0)
    if top >= prime:
        return None
    table = [_norm_mod(fp, _trim([_value(row, x, prime) for row in rows]), prime)
             for x in range(top + 1)]
    for k in range(1, top + 1):             # divided differences in place
        inv = pow(k, -1, prime)
        for i in range(top, k - 1, -1):
            table[i] = (table[i] - table[i - 1]) * inv % prime
    out: list[int] = []
    for k in range(top, -1, -1):            # Newton form, Horner from the top
        out = _add(_mul(out, [-k % prime, 1], prime), [table[k]], prime)
    return out


def _apart_mod(res: Optional[list[int]], fx: Poly, prime: int) -> bool:
    """f_x does not divide R = Res_Y(f_y, P) != 0, proven by res = R mod prime.

    f_x is monic and p-integral, so f_x | R over Q gives f_x | R mod prime;
    R mod prime != 0 gives R != 0."""
    return bool(res) and bool(_divmod(res, _mod_p(fx.coeffs, prime), prime)[1])


# ---------------------------------------------------------------------------
# special curves
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpecialDiagonal:
    level: int                      # least n with P | f^n(X) - f^n(Y)


@dataclass(frozen=True)
class SpecialVertical:
    beta: Optional[Fraction]        # rational line X = beta (None: irrational factor)
    factor: Poly                    # shared factor with the orbit level polynomial
    level: int


@dataclass(frozen=True)
class SpecialHorizontal:
    beta: Optional[Fraction]
    factor: Poly
    level: int


@dataclass(frozen=True)
class NotSpecialUpTo:
    nmax: int


SpecialVerdict = Union[SpecialDiagonal, SpecialVertical, SpecialHorizontal,
                       NotSpecialUpTo]


def _axis_factor_level(p_axis: Poly, ds: PolyDS, alpha: Fraction, nmax: int,
                       prime: int) -> Optional[tuple[Optional[Fraction], Poly, int]]:
    """(beta, factor, level): the first factor shared between a one-variable
    curve polynomial and an orbit level polynomial, by exact gcds at the
    levels that ``_axis_levels`` leaves modulo prime."""
    for n in _axis_levels(p_axis, ds.f, alpha, nmax, prime):
        common = p_axis.gcd(level_polynomial(ds, alpha, n, n)[1])
        if common.degree >= 1:
            return (-common.coeff(0) if common.degree == 1 else None), common, n
    return None


def _divides_iterate_difference(rows: list[Poly], fn: Poly) -> bool:
    """P | f^n(X) - f^n(Y) for the Y-rows c_0 .. c_k of P (k >= 1, c_k a
    constant) and fn = f^n: long division in Q[X][Y] by P made monic in Y.

    The dividend's rows are f^n(X) - a_0, -a_1, .., -a_(d^n) for the
    coefficients a_j of f^n; P divides it exactly when the k low rows of
    the remainder are zero."""
    k = len(rows) - 1
    inv = 1 / rows[-1].coeff(0)
    monic = [row.scale(inv) for row in rows[:-1]]
    rem = [Poly([-a]) for a in fn.coeffs]
    rem[0] = rem[0] + fn
    for shift in range(len(rem) - 1 - k, -1, -1):
        c = rem[shift + k]
        if not c.is_zero:
            for j, m in enumerate(monic):
                rem[shift + j] = rem[shift + j] - c * m
    return all(row.is_zero for row in rem[:k])


def is_special_curve(curve: PlaneCurve, ds: PolyDS, alpha, nmax: int) -> SpecialVerdict:
    """Classify components of f^n(X) - f^n(Y) and orbit-point axis lines.

    f is monic, so f^n(X) - f^n(Y) has Y-leading coefficient -1 in Q[X][Y],
    and a factor P of it has a constant Y-leading coefficient and positive
    Y-degree; any other P divides no level and builds no iterate.  For the
    rest, one modular pass (``_diagonal_levels``) proves "no" at every level
    n <= nmax it can, at two points X = x0 off P(X, X) = 0 mod the prime
    (``_diagonal_points``), without building an iterate; the
    levels left are decided least first by division in Y over Q[X]
    (``_divides_iterate_difference``), with univariate arithmetic only.
    Vertical/horizontal lines are matched through exact gcds with the
    level-set polynomials at the levels that the modular pass of
    ``_axis_levels`` leaves (so conjugate irrational orbit points are caught
    too, reported by their shared factor).  So a curve with no level left
    answers ``NotSpecialUpTo`` for an nmax past ``max_poly_degree`` or
    ``orbit_degree_cap`` too.  Both passes run modulo ``_prime_for``'s prime,
    which divides no denominator and not P's Y-leading coefficient.
    """
    if nmax < 0:
        raise DomainError("nmax must be >= 0")
    alpha = rat(alpha)
    P = curve.poly
    rows = P.coeffs_in("y")
    diagonal = len(rows) > 1 and rows[-1].degree == 0
    prime = _prime_for(ds.f, alpha, rows[-1].lead.numerator if diagonal else 1)
    if diagonal:
        for n in _diagonal_levels(rows, ds.f, nmax, prime):
            if _divides_iterate_difference(rows, ds.iterate(n)):
                return SpecialDiagonal(n)
    # a P in one variable is a union of vertical (horizontal) lines
    for axis_rows, verdict in ((rows, SpecialVertical),
                               (P.coeffs_in("x"), SpecialHorizontal)):
        if len(axis_rows) == 1:
            hit = _axis_factor_level(axis_rows[0], ds, alpha, nmax, prime)
            if hit:
                return verdict(*hit)
    return NotSpecialUpTo(nmax)


# ---------------------------------------------------------------------------
# intersection with squared level sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RootRef:
    """A point of a level set: exact rational or a certified ball of a factor."""

    value: Optional[Fraction]
    factor: Optional[Poly]
    ball: CBall
    level: int                       # least level at which the point appears

    @property
    def exact(self) -> bool:
        return self.value is not None


@dataclass(frozen=True)
class IntersectionPoint:
    x: RootRef
    y: RootRef
    certainty: str                   # "exact" | "certified"


@dataclass(frozen=True)
class IntersectionReport:
    points: list[IntersectionPoint]
    undecided: list[tuple[RootRef, RootRef]]
    verdict: SpecialVerdict
    bezout_bound: int
    exceeds_bezout: bool             # would-be counterexample flag
    preperiodic_warning: bool        # alpha was preperiodic (run proceeds anyway)

    def count(self) -> int:
        return len(self.points)

    def levels_hit(self) -> set[int]:
        return {max(pt.x.level, pt.y.level) for pt in self.points}


def _min_level_roots(ds: PolyDS, alpha: Fraction, cap: int) -> list[RootRef]:
    """Level-cap roots annotated with the least level containing each.

    The points first seen at level n are roots of the quotient
    h_n = g_n / g_(n-1) of the level polynomials g_n = f^n(X) - f^n(alpha),
    whose factors ``level_factors`` gives; ``level_root_groups`` pulls all
    of them back from f^cap(alpha) at once, one preimage step at a time,
    and attaches the balls to the factors.  A factor already seen at a
    lower level is skipped.  Per level, rational roots come first in
    ascending order, then the new factors' balls in factor order.
    """
    out: list[RootRef] = []
    seen: set = set()               # rational roots and nonlinear factors
    for n, (rational, batches) in enumerate(level_root_groups(ds, alpha, cap, cap)):
        for root, _mult in rational:
            if root not in seen:
                seen.add(root)
                out.append(RootRef(root, None, CBall.from_rational(root), n))
        for batch in batches:
            if batch.factor not in seen:
                seen.add(batch.factor)
                out.extend(RootRef(None, batch.factor, ball, n)
                           for ball in batch.roots)
    return out


def _field_inverse(a: Poly, m: Poly) -> Poly:
    """a^-1 in Q[t]/(m) for an irreducible m not dividing a (extended Euclid)."""
    r0, r1, s0, s1 = m, a, Poly.zero(), Poly.one()
    while not r1.is_zero:
        q, r = r0.divmod(r1)
        r0, r1, s0, s1 = r1, r, s1, s0 - q * s1
    return s0.scale(1 / r0.lead).divmod(m)[1]     # s0 * a = r0, a constant


def _partner_count(P: BiPoly, fx: Poly, fy: Poly) -> int:
    """deg gcd(P(x, Y), f_y(Y)) over K = Q[t]/(f_x): the number of roots y of
    f_y with P(x, y) = 0, the same for every root x of f_x.

    Monic Euclid in K[Y]; elements of K are polynomials reduced mod f_x, and
    coefficient lists run from Y^0 up with a nonzero top."""
    def reduce(c: Poly) -> Poly:
        return c.divmod(fx)[1]

    def trim(row: list) -> list:
        while row and row[-1].is_zero:
            row.pop()
        return row

    def rem(a: list, b: list) -> list:
        inv, a = _field_inverse(b[-1], fx), list(a)
        while len(a) >= len(b):
            c, shift = reduce(a[-1] * inv), len(a) - len(b)
            for j, bj in enumerate(b):
                a[shift + j] = reduce(a[shift + j] - c * bj)
            trim(a)
        return a

    u = [Poly([c]) for c in fy.coeffs]
    v = trim([reduce(c) for c in P.coeffs_in("y")])
    while v:
        u, v = v, rem(u, v)
    return len(u) - 1


def _min_poly(ref: RootRef) -> Poly:
    return Poly([-ref.value, 1]) if ref.exact else ref.factor


def _ball_step(P: BiPoly, x: RootRef, ys: list[RootRef], k: int) -> list[Optional[bool]]:
    """P(x, y) = 0 for the roots ys of f_y, exactly k of which pair with x
    (0 < k < deg f_y); None when undecided.

    ys are all of f_y's level roots, and their balls are pairwise disjoint,
    each holding exactly one root (``orbits._by_count`` checks this, and
    ``certified_roots`` raises on an overlap).  Every partner's ball makes
    P(x, .) contain 0, so when exactly k balls do, they are the partners.
    A y whose ball excludes the zero is apart."""
    near = [P.eval_with(x.ball, y.ball, convert=CBall.from_rational).contains_zero()
            for y in ys]
    partners = sum(near) == k
    return [(True if partners else None) if hit else False for hit in near]


def intersect_small_orbit(curve: PlaneCurve, ds: PolyDS, alpha,
                          level_cap: int, nmax: Optional[int] = None) -> IntersectionReport:
    """Certified intersection points of the curve with the squared level set.

    Each pair (x, y) from levels <= level_cap is decided from the minimal
    polynomials f_x, f_y of its points, once per pair of minimal polynomials
    for the whole block of their roots.  ``_apart_mod`` first tries to prove
    the block apart by Res_Y(f_y, P) modulo the prime (``_prime_for``,
    chosen once per call), which divides no denominator D of f or alpha: f_x
    and f_y are monic factors of level polynomials in Z[1/D][X], so
    p-integral by Gauss's lemma.  Every other block takes one exact test,
    the partner count k: the number of roots y' of f_y with P(x, y') = 0,
    the degree of gcd(P(x, Y), f_y) over Q(x).  k = 0 decides False for the
    block, k = deg f_y True; short of that ``_ball_step`` decides each x
    against the disjoint balls of f_y's roots.  Undecided pairs are listed,
    never counted.

    k answers all the exact resultant would, as Res_Y(f_y, P) is the product
    of the P(X, beta) over the roots beta of f_y: f_x divides it exactly when
    k >= 1, and a zero resultant makes every P(X, beta) zero (one does, so
    by conjugation all do), so k = deg f_y.

    Level roots come from the successive quotients of the level polynomials,
    each factor's roots together.  A curve whose certified count exceeds the
    Bezout-style cap deg(P)*d^cap while being classified non-special is
    flagged.  No precision is changed.
    """
    if level_cap < 0:
        raise DomainError("levels must be >= 0")
    alpha = rat(alpha)
    warn = isinstance(classify_orbit(ds, alpha), Preperiodic)
    verdict = is_special_curve(curve, ds, alpha, nmax if nmax is not None else level_cap)
    P = curve.poly
    groups = [list(g) for _f, g in groupby(_min_level_roots(ds, alpha, level_cap),
                                           key=_min_poly)]
    polys = [_min_poly(g[0]) for g in groups]
    prime = _prime_for(ds.f, alpha)
    residues = [_resultant_mod(P, fy, prime) for fy in polys]
    points: list[IntersectionPoint] = []
    undecided: list[tuple[RootRef, RootRef]] = []
    for xs, fx in zip(groups, polys):
        counts = [0 if _apart_mod(res, fx, prime) else _partner_count(P, fx, fy)
                  for fy, res in zip(polys, residues)]
        for x in xs:
            for ys, fy, k in zip(groups, polys, counts):
                hits = ([k > 0] * len(ys) if k in (0, fy.degree)
                        else _ball_step(P, x, ys, k))
                for y, hit in zip(ys, hits):
                    if hit is True:
                        points.append(IntersectionPoint(
                            x, y, "exact" if (x.exact and y.exact) else "certified"))
                    elif hit is None:
                        undecided.append((x, y))
    bezout = P.total_degree * ds.d ** level_cap
    exceeds = isinstance(verdict, NotSpecialUpTo) and len(points) > bezout
    return IntersectionReport(points, undecided, verdict, bezout, exceeds, warn)


# ---------------------------------------------------------------------------
# commuting linear maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CommutingLinear:
    a: Fraction
    b: Fraction
    zeta: Optional[Fraction]        # scaling on the Boettcher coordinate, when checked

    @property
    def poly(self) -> Poly:
        return Poly([self.b, self.a])


def commuting_linear(ds: PolyDS, n: int, check_boettcher: bool = True,
                     order: int = 24) -> list[CommutingLinear]:
    """All rational L(X) = aX + b with L o f^n = f^n o L, solved exactly.

    Monic leading coefficients force a^(D-1) = 1 (D = d^n), so a = 1 or, for
    odd D, a = -1; the X^(D-1) coefficient then pins b = e1 (a-1)/D.  Every
    candidate is verified by exact recomposition.  When requested, the
    scaling zeta with Phi(L(X)) = zeta*Phi(X) (zeta^(D-1) = 1) is verified on
    truncated series.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    F = ds.iterate(n)
    D = F.degree
    e1 = F.coeff(D - 1)
    out: list[CommutingLinear] = []
    candidates = [Fraction(1)]
    if D % 2 == 1:
        candidates.append(Fraction(-1))
    for a in candidates:
        b = e1 * (a - 1) / D
        L = Poly([b, a])
        if L.compose(F) == F.compose(L):
            zeta = _boettcher_scaling(ds, a, b, order) if check_boettcher else None
            out.append(CommutingLinear(a, b, zeta))
    return out


def _boettcher_scaling(ds: PolyDS, a: Fraction, b: Fraction,
                       order: int) -> Optional[Fraction]:
    """zeta with Phi(aX + b) = zeta * Phi(X) up to truncation, else None."""
    phi = phi_series(ds, order)
    # w_L = 1/(aX+b) as a series in w = 1/X: w/(a + b w)
    denom = LaurentBlock(0, [a, b], trunc=order + 1)
    w_l = (LaurentBlock.monomial(1, 1) * denom.inverse()).truncate_to(order + 1)
    composed = evaluate_series_at_block([phi.coefficient(k) for k in range(order + 1)],
                                        w_l)
    zeta = 1 / a
    residual = composed - phi.scale(zeta)
    return zeta if residual.known_is_zero() else None


# ---------------------------------------------------------------------------
# pullback series nu
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NuSeries:
    k1: int
    k2: int
    phi: PadicScalar
    series: PadicSeries             # the terms n+m <= window, tail certified
    dropped: tuple[int, ...]        # exponents whose value fell below the tail

    @property
    def kinf(self) -> int:
        return max(abs(self.k1), abs(self.k2))

    def annulus_top_logp(self) -> Fraction:
        """log_p of the outer radius: v(phi) / |k|_inf (inner radius is 1)."""
        return Fraction(self.phi.valuation, self.kinf)


def _n_series_coeffs(curve: PlaneCurve, ds: PolyDS, order: int) -> dict:
    """Exact rational coefficients a_nm of N(x,y) = P(s(x), s(y)), n+m windowed.

    s = 1/Psi is computed from the truncated Boettcher series and kept to
    x^order; the powers s^i are ``LaurentBlock`` products, which stay known
    to x^order because s has lowest exponent 1, and each is read as a row of
    coefficients at exponents 0..order.  a_nm is exact for n, m <= order.
    """
    # s = 1/Psi: lowest exponent 1, unit coefficient
    s = psi_series(ds, order + 2).inverse().truncate_to(order + 1)
    P = curve.poly
    rows: list[list[Fraction]] = []
    power = LaurentBlock.monomial(0, 1)     # s^0
    for i in range(max(P.deg_x, P.deg_y) + 1):
        if i:
            power = power * s
        rows.append([power.coefficient(n) for n in range(order + 1)])
    out: dict[tuple[int, int], Fraction] = {}
    for (i, j), c in P.terms:
        row_i, row_j = rows[i], rows[j]
        for n in range(0, order + 1):
            if row_i[n] == 0:
                continue
            base = c * row_i[n]
            for m in range(0, order + 1 - n):
                if row_j[m] != 0:
                    val = base * row_j[m]
                    if val != 0:
                        out[(n, m)] = out.get((n, m), Fraction(0)) + val
    return {k: v for k, v in out.items() if v != 0}


def build_nu(curve: PlaneCurve, ds: PolyDS, p: int, phi,
             zeta1: PadicScalar, zeta2: PadicScalar,
             k1: int, k2: int, window: int) -> NuSeries:
    """Assemble nu(x) with certified tail bookkeeping.

    Requires good reduction at p with p coprime to d (so 1/Psi has p-integral
    coefficients and all |a_nm| <= 1), |phi|_p < 1, and the normalization
    k1 > 0, k1 >= k2, gcd(k1, k2) = 1.  Terms with n+m <= window are summed
    exactly; every omitted term is bounded by |phi|^(window+1), which the
    attached tail certificate propagates to nonzero radii.  p-adic values
    carry ``settings.padic_digits`` digits.
    """
    if not (k1 > 0 and k1 >= k2 and gcd(k1, k2) == 1):
        raise DomainError("need k1 > 0, k1 >= k2, gcd(k1, k2) = 1")
    if window < 0:
        raise DomainError("window must be >= 0")
    if not ds.good_reduction(p) or not ds.coprime_to_degree(p):
        raise DomainError("need good reduction at p with p coprime to d")
    digits = ds.settings.padic_digits
    phi = phi if isinstance(phi, PadicScalar) else PadicScalar.from_rational(phi, p, digits)
    if phi.zero or phi.valuation < 1:
        raise DomainError("need |phi|_p < 1")
    for z in (zeta1, zeta2):
        if z.p != p or z.zero or z.valuation != 0:
            raise DomainError("zeta parameters must be p-adic units")
    a_nm = _n_series_coeffs(curve, ds, window)
    vphi = phi.valuation
    # powers of the unit parameters
    one = PadicScalar.from_unit(p, 1, 0, digits)
    z1_pow = [one]
    z2_pow = [one]
    for _ in range(window):
        z1_pow.append(z1_pow[-1] * zeta1)
        z2_pow.append(z2_pow[-1] * zeta2)
    phi_pow = [one]
    for _ in range(window):
        phi_pow.append(phi_pow[-1] * phi)
    acc: dict[int, PadicScalar] = {}
    for (n, m), c in a_nm.items():      # n + m <= window
        k = k1 * n + k2 * m
        term = PadicScalar.from_rational(c, p, digits) * phi_pow[n + m]
        term = term * z1_pow[n] * z2_pow[m]
        acc[k] = acc[k] + term if k in acc else term
    tail_v = vphi * (window + 1)          # |omitted| <= p^-tail_v
    kept: dict[int, PadicScalar] = {}
    dropped: list[int] = []
    for k, scalar in sorted(acc.items()):
        up = scalar.logp_abs_upper()
        if up is None or up <= Fraction(-tail_v):
            dropped.append(k)
        else:
            kept[k] = scalar
    kinf = max(abs(k1), abs(k2))

    def tail_bound(t: Fraction) -> Fraction:
        # omitted lines: bound max over ell > window of ell*(max(t k1, t k2) - vphi)
        slope = max(t * k1, t * k2) - vphi
        if slope >= 0:
            raise WindowError("radius outside the certified annulus")
        line = Fraction(window + 1) * slope
        drop = max((Fraction(-tail_v) + k * t for k in dropped),
                   default=None)
        return line if drop is None else max(line, drop)

    series = PadicSeries(p, tuple(sorted(kept.items())), complete=False,
                         tail_logp=tail_bound)
    return NuSeries(k1, k2, phi, series, tuple(dropped))


@dataclass(frozen=True)
class NuLedger:
    sup1_logp: Fraction             # log_p |nu|_1
    kappa1: int
    kinf: int
    lemma_lhs: Fraction             # -kappa(nu, 1)
    lemma_rhs: Fraction             # |k|_inf log|nu|_1 / log|phi|
    lemma_holds: bool
    sup_leq_one: bool
    t_used: Fraction                # outer PJ radius p^t
    pj_count_logp: Fraction         # N(nu, 0, p^t) in units of log p
    zero_bound: Fraction            # unit-circle zero bound -kappa - sup1/t
    c1_instance: Fraction           # |k|_inf * t / vphi for this instance
    bound12: Fraction               # 2*C1*|k|_inf*(-sup1)/vphi


def nu_estimates(nu: NuSeries) -> NuLedger:
    """Exact ledger: sup norm and kappa at |x| = 1, the leading-index
    inequality, and the Poisson-Jensen zero count on the annulus."""
    if nu.series.is_window_zero:
        raise DomainError("window is zero: possibly the zero function; "
                          "cannot certify nonvanishing beyond the window")
    sup1 = sup_norm(nu.series, Radius.ppow(0))
    k1_ = kappa(nu.series, Radius.ppow(0))
    vphi = Fraction(nu.phi.valuation)
    lhs = Fraction(-k1_)
    # log|nu|_1 / log|phi| = sup1 / (-vphi)
    rhs = nu.kinf * sup1 / (-vphi)
    t_top = nu.annulus_top_logp()
    t = t_top / 2
    pj = count_zeros_pj(nu.series, Radius.ppow(0), Radius.ppow(t))
    zero_bound = Fraction(-k1_) - sup1 / t
    c1 = Fraction(nu.kinf) * t / vphi
    bound12 = 2 * c1 * nu.kinf * (-sup1) / vphi
    return NuLedger(
        sup1_logp=sup1,
        kappa1=k1_,
        kinf=nu.kinf,
        lemma_lhs=lhs,
        lemma_rhs=rhs,
        lemma_holds=lhs <= rhs,
        sup_leq_one=sup1 <= 0,
        t_used=t,
        pj_count_logp=pj,
        zero_bound=zero_bound,
        c1_instance=c1,
        bound12=bound12,
    )
