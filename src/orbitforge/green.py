"""Escape-rate potential (Green function) with rigorous enclosures, and
equipotential level-curve tracing.

g(z) = lim log+|f^n(z)| / d^n.  One forward ball walk (``_walk``) serves
``green_eval``, ``escape_step`` and the trace polish: z_n = f^n(z) by
``horner_ball``, certified past the escape radius R = 1 + sum|a_i| once
|z_n| > R (1 + 2^-50), and cut where a radius passes 10^200.  The walk
yields the |z_n| bounds as raw ``mpmath.libmp`` tuples, and ``green_eval``
runs its loop on them with the libmp calls of the mpf operators, so it
keeps every bit of the mpf arithmetic without building mpf objects at each
step.  f's coefficient triples and the escape constants are built once per
map and precision and kept on the map (``_constants``).  Once an orbit
crosses R, the partial value log|f^k(z)|/d^k encloses g within an explicit
geometric tail bound.  An orbit not shown to escape yields the one-sided
enclosure [0, log(2 max(|z_n|, R))/d^n], valid after any n steps; it stops at
the first n where that enclosure has radius <= tol, the same promise as an
escaping orbit's, unless the step budget runs out first.  It is reported with
``escaped=False`` (a heuristic "bounded", never a proof that g = 0).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import TYPE_CHECKING, Iterator, Optional

import mpmath
from mpmath import mpf
from mpmath.libmp import (finf, from_int, fzero, mpf_add, mpf_div, mpf_ge, mpf_gt, mpf_le,
                          mpf_log, mpf_lt, mpf_mul, mpf_mul_int, mpf_pow_int)

from .ball import (CBall, _abs_bounds, _working, as_ball, coeff_balls, eval_poly_ball,
                   horner_ball)
from .errors import DomainError, PrecisionError
from .exact import rat
from .rootcert import certify_solution, pull_back

if TYPE_CHECKING:
    from .dynamics import PolyDS


@dataclass(frozen=True)
class GreenValue:
    value: CBall          # real ball, natural-log units, >= 0
    iterations_used: int
    escaped: bool


@dataclass(frozen=True)
class TracePoint:
    theta: float            # parameter angle of the Boettcher coordinate sample
    point: CBall
    g_residual: float       # certified bound on |g(point) - r|
    sheet: int


@dataclass(frozen=True)
class LevelCurve:
    r: Fraction
    points: list[TracePoint]
    closed: bool
    dropped: int            # samples lost to failed refinement


def _clip_nonneg(ball: CBall) -> CBall:
    if ball.re_mid - ball.rad >= 0:
        return ball
    hi = max(ball.re_mid + ball.rad, mpf(0))
    return CBall(hi / 2, mpf(0), hi / 2)


def _constants(ds: PolyDS):
    """(f's coefficient triples, R (1 + 2^-50), s (1 + 2^-50),
    log(2 R (1 + 2^-50))) with R = 1 + s and s = sum|a_i|, the last three as
    raw mpf tuples, at the working precision: the map's ``_green`` memo,
    rebuilt when the precision changes.  |z| above R (1 + 2^-50) certifies
    escape."""
    prec, rnd = mpmath.mp._prec_rounding
    memo = ds._green
    if memo is None or memo[0] != prec:
        slack = mpf_add(mpf_pow_int(from_int(2, prec, rnd), -50, prec, rnd), from_int(1),
                        prec, rnd)
        r_up, s_up = (mpf_mul(mpf_div(from_int(q.numerator, prec, rnd),
                                      from_int(q.denominator, prec, rnd), prec, rnd),
                              slack, prec, rnd)
                      for q in (ds.escape_radius, ds.coeff_abs_sum))
        log_2r = mpf_log(mpf_mul_int(r_up, 2, prec, rnd), prec, rnd)
        memo = ds._green = (prec, coeff_balls(ds.f), r_up, s_up, log_2r)
    return memo[1:]


def _walk(ds: PolyDS, z: CBall) -> Iterator[tuple[CBall, tuple, tuple]]:
    """(z_n, lo, hi) with z_n = f^n(z) and lo <= |z_n| <= hi as raw mpf
    tuples (``ball._abs_bounds`` on z_n's triple), n = 0, 1, ...; it ends
    before the first z_n of radius above 10^200.  Callers cap n."""
    f_balls = _constants(ds)[0]
    prec, rnd, eps = _working()
    blow_up = mpf_pow_int(from_int(10, prec, rnd), 200, prec, rnd)
    while True:
        lo, hi = _abs_bounds(z._triple(), prec, rnd, eps)
        yield z, lo, hi
        z = horner_ball(f_balls, z)
        if mpf_gt(z.rad._mpf_, blow_up):
            return


def escape_step(ds: PolyDS, z) -> Optional[int]:
    """Least n <= ``settings.max_iterations`` with |f^n(z)| certified above
    R, or None: ``green_eval``'s walk without its Green-bound stop, so a slow
    escaper still gets its step (X^2 + 2509/10000 at 0: 102).  The
    archimedean ``escape_iterate`` of ``find_place_of_good_reduction_escape``
    when the exact |z| > R does not already hold at step 0."""
    r_up = _constants(ds)[1]
    steps = zip(range(ds.settings.max_iterations + 1), _walk(ds, as_ball(z)))
    return next((n for n, (_z, lo, _hi) in steps if mpf_gt(lo, r_up)), None)


def green_eval(ds: PolyDS, z, tol: Optional[Fraction] = None) -> GreenValue:
    """Certified enclosure of the escape rate at z, along ``_walk``.

    When the orbit is certified past the escape radius, the returned ball has
    radius at most tol.  Otherwise the enclosure is [0, log(2 max(|z_n|, R))/d^n]
    at the first step n where its radius is at most tol, or after the step
    budget if that comes first, flagged escaped=False (``iterations_used``
    is then the step whose radius blew up, if one did).  Since the upper end
    bounds g(z), a point with g(z) > 2 tol is never returned as bounded.
    The step budget is ``settings.max_iterations`` and tol defaults to
    ``settings.tolerance``, both the map's.

    The loop runs on raw mpf tuples with the libmp calls of the mpf
    operators it stands for (``mpf(d) ** n`` is ``mpf_pow_int``, ``2 * x``
    is ``mpf_mul_int``), each rounded to nearest at the working precision,
    so every bit is that of the same loop on mpf objects.
    """
    tol = ds.settings.tolerance if tol is None else tol
    if tol <= 0:
        raise DomainError("tol must be positive")
    max_iter = ds.settings.max_iterations
    if max_iter < 0:
        raise DomainError("max_iter must be >= 0")
    r_up, s_up, log_2r = _constants(ds)[1:]
    prec, rnd = mpmath.mp._prec_rounding
    tol_f = mpf_div(from_int(tol.numerator), from_int(tol.denominator), prec, "d")
    tol_2 = mpf_mul_int(tol_f, 2, prec, rnd)
    r_2 = mpf_mul_int(r_up, 2, prec, rnd)
    s_4 = mpf_mul_int(s_up, 4, prec, rnd) if ds.coeff_abs_sum != 0 else None
    d = from_int(ds.d, prec, rnd)

    upper = finf                # running upper bound until escape is certified
    escaped = False
    n = 0
    for cur, lo, hi in _walk(ds, as_ball(z)):
        d_n = mpf_pow_int(d, n, prec, rnd)
        escaped = escaped or mpf_gt(lo, r_up)
        if not escaped:
            # one-sided bound g(z) = g(z_n)/d^n <= log(2 max(|z_n|, R)) / d^n
            log_hi = (mpf_log(mpf_mul_int(hi, 2, prec, rnd), prec, rnd)
                      if mpf_gt(hi, r_up) else log_2r)
            bound = mpf_div(log_hi, d_n, prec, rnd)
            if mpf_lt(bound, upper):
                upper = bound
            if n == max_iter or mpf_le(upper, tol_2):
                break
        elif mpf_ge(lo, r_2):
            # shrink the tail: valid once |z_k| >= 2R (then |z_{j+1}| >= 2|z_j|)
            tail = (fzero if s_4 is None else
                    mpf_div(s_4, mpf_mul(mpf_pow_int(d, n + 1, prec, rnd), lo, prec, rnd),
                            prec, rnd))
            if mpf_le(tail, tol_f):     # else total_rad >= tail exceeds tol
                logball = cur.log_abs()
                total_rad = mpf_add(tail, mpf_div(logball.rad._mpf_, d_n, prec, rnd),
                                    prec, rnd)
                if mpf_le(total_rad, tol_f):
                    make = mpmath.mp.make_mpf
                    val = CBall(make(mpf_div(logball.re_mid._mpf_, d_n, prec, rnd)),
                                mpf(0), make(total_rad))
                    return GreenValue(_clip_nonneg(val), n, True)
        if n == max_iter + 200:
            break
        n += 1
    if escaped:
        raise PrecisionError("escape certified but the tail did not reach tol; "
                             "raise precision or max_iter")
    half = mpmath.mp.make_mpf(upper) / 2
    return GreenValue(CBall(half, mpf(0), half), n, False)


def green_functional_check(ds: PolyDS, z, tol: Optional[Fraction] = None) -> CBall:
    """Residual ball for g(f(z)) - d*g(z); contains 0 for every z.  tol
    defaults to the map's ``settings.tolerance``, as in ``green_eval``."""
    z = as_ball(z)
    fz = eval_poly_ball(ds.f, z)
    g1 = green_eval(ds, fz, tol)
    g2 = green_eval(ds, z, tol)
    return g1.value - g2.value * CBall.exact_int(ds.d)


def _psi_point(ds: PolyDS, order: int, s: mpf, theta: float, radius: CBall) -> CBall:
    from .boettcher import evaluate_psi
    x = CBall.from_complex(mpmath.expjpi(2 * mpf(theta))) * CBall(s, mpf(0), mpf(0))
    return evaluate_psi(ds, order, x, radius)


def equipotential_trace(ds: PolyDS, r: Fraction, n_points: Optional[int] = None,
                        tol: Fraction = Fraction(1, 10**8)) -> LevelCurve:
    """Sample the level curve g = r, re-certifying every point with green_eval.

    The curve Psi(exp(-d^k r) e^{2 pi i theta}) of the level d^k r is pulled
    back k steps by ``rootcert.pull_back``, k >= 0 the first level deep
    inside the Boettcher disc: each step takes the d certified solutions of
    f(z) = w for the ball w (the quadratic formula in ball arithmetic for
    d = 2, interval Newton otherwise), the loop that also pulls orbit level
    sets back.  The d^k sheets of each base angle are ordered by argument
    (ties by real part).  A failed step (a None solution) drops every sheet
    below it, and a failed level check drops its point, so points plus
    dropped equal d^k times the number of base angles (before the list is
    cut to n_points).  At k = 0 a point that fails the level check is first
    polished by pulling back a point of a deeper level.  Every Psi value is
    a certified ball (``boettcher.evaluate_psi``): the start radius is at
    most half the lower end R_lo of the Boettcher radius, where the area
    theorem bounds the tail of Psi truncated at ``settings.series_order``.
    """
    from .boettcher import radius_archimedean

    r = rat(r)
    if r <= 0:
        raise DomainError("the potential level r must be positive")
    n_points = ds.settings.trace_points if n_points is None else n_points
    order = ds.settings.series_order
    if n_points < 1:
        raise DomainError("n_points must be >= 1")
    radius = radius_archimedean(ds)
    safe = (radius.re_mid - radius.rad) / 2
    rho = mpmath.exp(-mpf(r.numerator) / mpf(r.denominator))
    k = 0
    while rho ** (ds.d ** k) > safe:
        k += 1
        if ds.d ** k > ds.settings.orbit_degree_cap:
            raise DomainError("level too shallow to trace within the degree cap")
    n_base = max(1, -(-n_points // ds.d ** k))
    starts = [_psi_point(ds, order, rho ** (ds.d ** k), j / n_base, radius)
              for j in range(n_base)]
    dp = ds.f.derivative()

    points: list[TracePoint] = []
    for j, start in enumerate(starts):
        theta = j / n_base
        layer = []
        for pt in pull_back(ds.f, [start], k):
            accepted = _certify_level(ds, pt, r, tol)
            if accepted is None and k == 0:
                # polish through a deeper level before giving up: pull its
                # point back along the walk's f^(kk-1)(pt), ..., f(pt), pt (a
                # walk cut short pulls back less; the level check decides)
                kk = 1
                while rho ** (ds.d ** kk) > safe * safe and ds.d ** kk <= 64:
                    kk += 1
                guesses = [w for w, _lo, _hi in islice(_walk(ds, pt), kk)]
                refined = _psi_point(ds, order, rho ** (ds.d ** kk),
                                     (theta * ds.d ** kk) % 1.0, radius)
                for guess in reversed(guesses):
                    if refined is not None:
                        refined = certify_solution(ds.f, guess, refined, dp)
                if refined is not None:
                    accepted = _certify_level(ds, refined, r, tol)
            if accepted is not None:
                layer.append(TracePoint(theta, accepted[0], accepted[1], 0))
        layer.sort(key=lambda tp: (mpmath.atan2(tp.point.im_mid, tp.point.re_mid),
                                   tp.point.re_mid))
        points.extend(TracePoint(tp.theta, tp.point, tp.g_residual, i)
                      for i, tp in enumerate(layer))
    dropped = n_base * ds.d ** k - len(points)
    return LevelCurve(r, points[:n_points], k == 0, dropped)


def _certify_level(ds: PolyDS, pt: CBall, r: Fraction,
                   tol: Fraction) -> Optional[tuple[CBall, float]]:
    """Re-certify |g(pt) - r| <= tol; returns (point, residual bound)."""
    if not pt.rad < mpf(1):
        return None
    try:
        g = green_eval(ds, pt, tol / 4)
    except PrecisionError:
        return None
    if not g.escaped:
        return None
    r_f = mpf(r.numerator) / mpf(r.denominator)
    residual = abs(g.value.re_mid - r_f) + g.value.rad
    if residual <= mpf(tol.numerator) / mpf(tol.denominator):
        return pt, float(residual)
    return None
