"""Boettcher series for monic polynomials: the inverse coordinate Psi with
Psi(X^d) = f(Psi(X)) and a pole of residue 1 at 0, its compositional inverse
Phi with Phi(f(X)) = Phi(X)^d, and the archimedean convergence radius.

Psi is written X^{-1} g(X) with g(0) = 1; matching coefficients in
g(X^d) = g(X)^d + sum_i a_i X^i g(X)^{d-i} determines each new coefficient
with a unit factor d, so the recursion is exact and never divides by zero.

The recursion runs on graded integer numerators.  With D the lcm of the
denominators of f's coefficients and W = d^2 D, the coefficient of X^m in
every power g^j is N / W^m for an integer N, so every product at index n
lies over W^n and needs no gcd.  Lemma: for m >= 1 these coefficients lie in
d^-(2m-1) D^-m Z.  By induction on n: the provisional [X^n] g^d is a sum of
products of at least two u's of positive index with indices summing to n,
so it lies in d^-(2n-2) D^-n Z; a_i [X^(n-i)] g^(d-i) has one factor 1/D
on an index below n; the left side u_(n/d) has index n/d < n.  So their
difference lies in d^-(2n-2) D^-n Z, and u_n, that difference over d, lies
in d^-(2n-1) D^-n Z; adding j u_n to [X^n] g^j keeps every column there.
The division by d is therefore exact on the numerators, and it is checked.
W = d D is not enough: X^2 + X/3 has u_2 = -5/72, and 72 = d^3 D^2 does
not divide (d D)^2 = 36.

Phi is obtained by Lagrange term-by-term reversion of X / g(X): with
g(z) = sum N_m (z / W)^m, [z^(n-1)] g^n is the integer [z^(n-1)] N^n over
W^(n-1), so the powers of the numerators N, taken by the truncated
convolution of ``exact``, need no gcd.  The defining equation of Phi is kept
as an independent cross-check.
Both series have the prefix property (e_n = [z^(n-1)] g^n / n reads only
g's first n coefficients), so each ``PolyDS`` holds its highest-order Psi
and Phi so far and serves every lower order by truncation.  Psi is kept with
the columns of g^j its recursion fills, so a higher order resumes where the
last one stopped.  Maps share no series, and nothing is kept at module level.
Both Phi residuals compose Phi with a series of positive valuation through
``exact.evaluate_series_at_block``, by Horner's rule over one denominator.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Optional

import mpmath
from mpmath.libmp import (fone, from_int, from_rational, fzero, mpf_add, mpf_div,
                          mpf_mul, mpf_pow_int, mpf_sqrt, mpf_sub)

from .ball import CBall, eval_block_ball, rball
from .dynamics import PolyDS, escaping_critical_points
from .errors import DomainError
from .exact import LaurentBlock, Poly, _convolve, evaluate_series_at_block


def _grade(f: Poly) -> int:
    """W = d^2 D, D the lcm of the denominators of f's coefficients: the
    coefficient of X^m in every g^j is an integer over W^m."""
    return f.degree ** 2 * math.lcm(*(c.denominator for c in f.coeffs))


def _psi_g_coeffs(f: Poly, order: int,
                  pw: Optional[list[list[int]]] = None) -> list[Fraction]:
    """Coefficients u_0..u_order of g with Psi = X^{-1} g(X).

    ``pw[j][n]`` is the integer numerator over W^n (``_grade``) of the
    coefficient of X^n in g^j for j = 0..d, filled jointly with the
    numerators u = pw[1] of g.  Given the columns of an earlier call on the
    same map, the recursion resumes after them and extends them in place.
    """
    d = f.degree
    w = _grade(f)
    # a_i X^i g^(d-i) at X^n is a_i W^i times the numerator at n - i, over
    # W^n; a_i W^i is an integer, as D divides W
    c = [int(f.coeff(d - i) * w ** i) for i in range(d + 1)]
    pw = [] if pw is None else pw
    if not pw:
        pw.extend([1] for _ in range(d + 1))
    u = pw[1]
    for n in range(len(u), order + 1):
        # provisional column with u[n] = 0
        pw[0].append(0)
        u.append(0)
        for j in range(2, d + 1):
            pw[j].append(sum(map(mul, u, pw[j - 1][n::-1])))
        rhs = pw[d][n]
        for i in range(1, min(d, n) + 1):
            if c[i]:
                rhs += c[i] * pw[d - i][n - i]
        lhs = u[n // d] * w ** (n - n // d) if n % d == 0 else 0
        un, rem = divmod(lhs - rhs, d)
        if rem:
            raise ArithmeticError(f"u_{n} of Psi is not an integer over W^{n}")
        # fix the provisional column: adding u_n X^n changes [X^n] g^j by j*u_n
        if un:
            for j in range(1, d + 1):
                pw[j][n] += j * un
    out, wm = [], 1
    for num in u[:order + 1]:
        out.append(Fraction(num, wm))
        wm *= w
    return out


def psi_series(ds: PolyDS, order: int) -> LaurentBlock:
    """Truncated Psi: coefficients at exponents -1..order-1, residue 1.

    The map's memo of order >= ``order`` is truncated instead of recomputed;
    a higher order resumes the recursion from the memo's columns of g^j.
    """
    if order < 0:
        raise DomainError("order must be >= 0")
    memo, pw = ds._psi or (None, [])
    if memo is None or order > memo.trunc:
        memo = LaurentBlock(-1, _psi_g_coeffs(ds.f, order, pw), trunc=order)
        ds._psi = (memo, pw)
    return memo if order == memo.trunc else memo.truncate_to(order)


def _phi_e_coeffs(ds: PolyDS, order: int) -> list[Fraction]:
    """e_0..e_order of Phi = sum e_n w^n by reversion of t = z / g(z), g = X Psi.

    The coefficient of t^n is [z^(n-1)] g(z)^n / n.  The map's Psi columns
    hold g as numerators N_m over W^m, so g(z) = sum N_m (z / W)^m and
    [z^(n-1)] g^n is the integer [z^(n-1)] N^n over W^(n-1): the powers of
    N take no gcd and each e_n is one division.  The columns must reach
    N_(order-1), as ``psi_series(ds, max(order, 1))`` leaves them.
    """
    width = max(order, 1)
    nums = ds._psi[1][1][:width]
    w = _grade(ds.f)
    e = [Fraction(0)] * (order + 1)
    gi = [1]                              # numerators of g^(n-1)
    den = 1                               # W^(n-1)
    for n in range(1, order + 1):
        gi = _convolve(nums, gi, width)
        e[n] = Fraction(gi[n - 1], den * n)
        den *= w
    return e


def phi_series(ds: PolyDS, order: int) -> LaurentBlock:
    """Truncated Phi as a series in w = 1/X: w + e_2 w^2 + ... + e_order w^order.

    g = X * Psi is read from ``psi_series(ds, max(order, 1))``, usually the
    map's memo, so the Psi recursion is not run again.  The map's Phi memo
    of order >= ``order`` is truncated instead of recomputed.
    """
    if order < 0:
        raise DomainError("order must be >= 0")
    memo = ds._phi
    if memo is None or order >= memo.trunc:
        psi_series(ds, max(order, 1))
        e = _phi_e_coeffs(ds, order)
        memo = ds._phi = LaurentBlock(1, e[1:], trunc=order + 1)
    return memo if order + 1 == memo.trunc else memo.truncate_to(order + 1)


def psi_equation_residual(ds: PolyDS, order: int) -> LaurentBlock:
    """Psi(X^d) - f(Psi(X)) on all computable coefficients."""
    psi = psi_series(ds, order)
    return psi.compose_monomial(ds.d) - psi.compose_poly(ds.f)


def phi_equation_residual(ds: PolyDS, order: int) -> LaurentBlock:
    """Phi(f(X)) - Phi(X)^d, computed in the variable w = 1/X."""
    phi = phi_series(ds, order)
    # 1/f(1/w) = w^d / h(w) with h(w) = 1 + a_1 w + ... + a_d w^d
    h = Poly(list(reversed(ds.f.coeffs)))
    h_inv = LaurentBlock.from_poly(h, trunc=order + 1).inverse()
    w_f = (LaurentBlock.monomial(ds.d, 1) * h_inv).truncate_to(order + 1)
    phi_coeffs = [phi.coefficient(k) for k in range(order + 1)]
    return evaluate_series_at_block(phi_coeffs, w_f) - phi ** ds.d


def phi_psi_identity_residual(ds: PolyDS, order: int) -> LaurentBlock:
    """Phi(Psi(x)) - x in the variable x (compositional inverse check).

    Phi is a series in w = 1/X, so Phi(Psi(x)) = sum e_k (1/Psi(x))^k.
    """
    # 1/Psi has lowest exponent 1; the first missing Phi coefficient (index
    # order+1) feeds exponent order+1, so the sum is known below order+1
    s = psi_series(ds, order).inverse().truncate_to(order + 1)
    phi = phi_series(ds, order)
    total = evaluate_series_at_block([phi.coefficient(k) for k in range(order + 1)], s)
    return total - LaurentBlock.monomial(1, 1, trunc=total.trunc)


def evaluate_psi(ds: PolyDS, order: int, x: CBall, radius: CBall) -> CBall:
    """Certified ball for Psi(x): the truncated series plus a bound on the rest.

    Psi = sum u_m x^(m-1) is univalent on |x| < R, and ``radius`` (from
    ``radius_archimedean``) encloses R; let R_lo be its lower end.  The area
    theorem (Gronwall 1914; Pommerenke 1975, ch. 1) for R_lo Psi(R_lo / z)
    on |z| > 1 gives sum_{n>=1} n |u_(n+1)|^2 R_lo^(2(n+1)) <= 1.  With A
    that sum over the computed n < order, s >= |x| and q = (s / R_lo)^2,
    Cauchy-Schwarz bounds the omitted terms by
    sqrt(1 - A) sqrt(q^order / (order R_lo^2 (1 - q))).  Every step rounds
    outward.  Raises DomainError unless s < R_lo.
    """
    if order < 1:
        raise DomainError("order must be >= 1")
    r_lo = mpmath.fsub(radius.re_mid, radius.rad, rounding="d")
    s = x.abs_upper()
    if not s < r_lo:
        raise DomainError("Psi is certified only inside its disc |x| < R")
    psi = psi_series(ds, order)
    # on raw mpf tuples, each operation rounded to the safe side ("d" toward
    # 0, "u" away from it, on positive numbers): this runs on every call
    prec = mpmath.mp.prec
    r2 = mpf_mul(r_lo._mpf_, r_lo._mpf_, prec, "d")
    t = mpf_div(s._mpf_, r_lo._mpf_, prec, "u")
    q = mpf_mul(t, t, prec, "u")
    # A / R_lo^2 = sum n u_(n+1)^2 R_lo^(2n), by Horner's rule
    area = fzero
    for n in range(order - 1, 0, -1):
        u = psi.coefficient(n)                                 # u_(n+1)
        if u:
            term = from_rational(n * u.numerator ** 2, u.denominator ** 2, prec, "d")
            area = mpf_add(area, term, prec, "d")
        area = mpf_mul(area, r2, prec, "d")
    area = mpf_mul(area, r2, prec, "d")
    num = mpf_mul(mpf_sub(fone, area, prec, "u"), mpf_pow_int(q, order, prec, "u"),
                  prec, "u")
    den = mpf_mul(mpf_mul(from_int(order), r2, prec, "d"), mpf_sub(fone, q, prec, "d"),
                  prec, "d")
    tail = mpmath.mpf(mpf_sqrt(mpf_div(num, den, prec, "u"), prec, "u"))
    return eval_block_ball(psi, x).widen(tail)


def radius_archimedean(ds: PolyDS) -> CBall:
    """Ball for R = min over escaping critical points of exp(-g(c)); 1 when
    none escape.

    Each g(c) is the Green value to 1/10^10 that ``escaping_critical_points``
    computed while deciding c.  An undecided point c has g(c) in [0, U], so
    exp(-g(c)) may reach down to exp(-U) while the connected case (radius 1)
    stays possible: undecided points widen the ball to cover both.
    """
    report = escaping_critical_points(ds)
    best = min(((-g.value).exp_real() for _cp, g in report.escaping),
               key=lambda b: b.re_mid - b.rad, default=rball(1))
    if not report.undecided:
        return best
    lo = best.re_mid - best.rad
    for _cp, g in report.undecided:
        lo = min(lo, (-g.value).exp_real().re_mid - g.value.rad)
    lo = max(lo, mpmath.mpf(0))
    hi = mpmath.mpf(1)
    return CBall((lo + hi) / 2, mpmath.mpf(0), (hi - lo) / 2)
