"""Certified complex solutions of p(z) = t for exact rational polynomials p.

The one pull-back step is ``preimages(f, w)``: the d solutions of f(z) = w
for a target ball w, each as a ball that holds exactly one solution of
f(z) = w' for every w' in w, or None where that solution is not certified.
``pull_back(f, balls, depth)`` is the one loop that chains it, keeping the
certified solutions only: from an exact value it gives every point of an
iterated preimage f^(-n)(t), for the orbit level sets (``orbits``) and the
equipotential traces (``green``).  A monic quadratic step is the quadratic
formula in ball arithmetic; any other degree approximates the solutions
numerically (mpmath), polishes them by plain Newton steps and certifies each
by one interval-Newton step (R. E. Moore, *Interval Analysis*, 1966): for a
ball B around an approximation z0, if ``N = z0 - (p(z0) - t)/p'(B)`` is
contained in B, then B (hence N) contains exactly one solution.

``certified_roots`` certifies all roots of one squarefree polynomial the
same way and checks that its balls are pairwise disjoint; the level sets use
it only where a pull-back cannot be certified, and critical points use it
directly.
"""

from __future__ import annotations

from typing import Optional

import mpmath
from mpmath import mpf

from .ball import CBall, coeff_balls, horner_ball
from .errors import PrecisionError
from .exact import Poly


def approximate_solutions(p: Poly, target: Optional[CBall] = None) -> list:
    """All deg p numerical solutions of p(z) = target.mid (no certificate)."""
    coeffs = [mpf(c.numerator) / mpf(c.denominator) for c in reversed(p.coeffs)]
    if target is not None:
        coeffs[-1] -= target.mid
    return mpmath.polyroots(coeffs, maxsteps=200, extraprec=mpmath.mp.prec)


def certify_solution(p: Poly, guess: CBall, target: Optional[CBall] = None,
                     dp: Optional[Poly] = None) -> Optional[CBall]:
    """Certified ball holding the unique solution of p(z) = target near guess.

    Polishes for at most 60 Newton steps, stopping once the midpoint of a
    step is below 2^(20-prec)(1+|z|) (the step's radius carries the target's,
    which polishing cannot shrink); then tries the interval-Newton box of radius
    2^(8-prec)(1+|z|) + 4 rad(target), quadrupled up to 40 times.  Returns
    None when no box certifies.
    """
    p_balls = coeff_balls(p)
    dp_balls = coeff_balls(dp if dp is not None else p.derivative())

    def residual(z: CBall) -> CBall:
        val = horner_ball(p_balls, z)
        return val if target is None else val - target

    z = CBall(guess.re_mid, guess.im_mid, mpf(0))
    for _ in range(60):
        dz = horner_ball(dp_balls, z)
        if dz.contains_zero():
            break
        step = residual(z) / dz
        z = CBall(z.re_mid - step.re_mid, z.im_mid - step.im_mid, mpf(0))
        if step.abs_mid() < mpf(2) ** (20 - mpmath.mp.prec) * (1 + z.abs_mid()):
            break
    rho = mpf(2) ** (8 - mpmath.mp.prec) * (1 + z.abs_mid())
    if target is not None:
        rho += 4 * target.rad
    for _ in range(40):
        box = CBall(z.re_mid, z.im_mid, rho)
        dball = horner_ball(dp_balls, box)
        if not dball.contains_zero():
            newton = z - residual(z) / dball
            if box.contains(newton):
                return newton
        rho *= 4
    return None


def _quadratic_preimages(f: Poly, w: CBall) -> list[Optional[CBall]]:
    """Both solutions of z^2 + bz + c = w: z = -b/2 +- s, s^2 = u with
    u = w - c + b^2/4.  When rad(u) <= |mid u|/2, every u' in u has
    Re(u' conj(u0)) > 0, so the branch s(u') with Re(s(u') conj(s0)) > 0,
    s0 = sqrt(mid u), satisfies |s(u') + s0| >= |s0| and
    |s(u') - s0| = |u' - u0| / |s(u') + s0| <= rad(u)/|s0|."""
    b = f.coeff(1)
    shift = b * b / 4 - f.coeff(0)
    u = w + CBall.from_rational(shift) if shift else w
    lo = u.abs_lower()
    if lo == 0 or lo < u.rad:                       # rad(u) > |mid u| / 2
        return [None, None]
    s = CBall.from_complex(mpmath.sqrt(u.mid))      # the eps slop of sqrt
    s_lo = s.abs_lower()                            # <= |s0|
    if s_lo == 0:
        return [None, None]
    s = s.widen(mpmath.fdiv(u.rad, s_lo, rounding="u"))
    if b:
        half = CBall.from_rational(-b / 2)
        roots = [half + s, half - s]
    else:
        roots = [s, -s]
    if (roots[0] - roots[1]).contains_zero():
        return [None, None]
    return roots


def preimages(f: Poly, w: CBall, df: Optional[Poly] = None) -> list[Optional[CBall]]:
    """The deg f solutions of f(z) = w, one entry each: a ball holding
    exactly one solution of f(z) = w' for every w' in the ball w, or None
    where that solution could not be certified.  A monic quadratic uses the
    quadratic formula in ball arithmetic (both entries None when w meets or
    nears the critical value); other degrees certify each numerical solution
    by interval Newton, ``df`` being f' when the caller has it."""
    if f.degree == 2 and f.lead == 1:
        return _quadratic_preimages(f, w)
    df = f.derivative() if df is None else df
    return [certify_solution(f, CBall.from_complex(approx), w, df)
            for approx in approximate_solutions(f, w)]


def pull_back(f: Poly, balls, depth: int) -> list[CBall]:
    """The certified solutions ``depth`` steps of ``preimages`` below
    ``balls``: a None solution is dropped, and with it every solution below
    it, so a failed step shows as a shortfall of the d^depth balls each ball
    would have."""
    # f' once per call, and only where a step certifies by interval Newton
    df = None if f.degree == 2 and f.lead == 1 else f.derivative()
    for _ in range(depth):
        balls = [z for w in balls for z in preimages(f, w, df) if z is not None]
    return list(balls)


def certified_roots(p: Poly) -> list[CBall]:
    """All complex roots of a squarefree p as certified balls.

    Each ball holds exactly one root, and the deg p balls are checked to be
    pairwise disjoint, so together they hold every root.  Deterministic
    order: sorted by (real, imaginary) midpoint.
    """
    if p.degree < 1:
        return []
    dp = p.derivative()
    out = []
    for r in approximate_solutions(p):
        ball = certify_solution(p, CBall.from_complex(r), dp=dp)
        if ball is None:
            raise PrecisionError(f"could not certify a root of {p!r} near {r}")
        for other in out:
            # the difference ball excludes zero iff a rigorous lower bound on
            # the gap between midpoints exceeds the sum of the radii
            if (ball - other).contains_zero():
                raise PrecisionError(
                    f"certified root balls of {p!r} overlap near {r}")
        out.append(ball)
    out.sort(key=lambda b: (b.re_mid, b.im_mid))
    return out
