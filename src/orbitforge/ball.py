"""Complex ball arithmetic: midpoint + rigorous absolute error radius.

Midpoints are mpmath floats at mpmath's working precision, the only
precision there is: importing this module sets it to the default
``precision_bits``, and the CLI sets it once per run from its settings.
Every operation widens the radius by the exact-arithmetic error bound plus a
conservative rounding slop (a few ulp of the result), eps = 2^(4 - prec),
built from the working precision at each use.  The represented exact value
is always within ``rad`` of ``re_mid + i*im_mid``.

Balls on the real axis (imaginary midpoints exactly 0) add, multiply and
take absolute values in real mpf arithmetic.  That gives the same bits as
the complex formulas: mpmath's complex product rounds the exact product
minus an exact 0, hypot(x, 0) is |x|, and adding an exact 0 to a number at
the working precision leaves it unchanged.

The product and the sum of two balls exist once, as ``_mul`` and ``_add`` on
triples (re, im, rad) of raw ``mpmath.libmp`` mpf tuples.  ``CBall``'s ``*``
and ``+`` unpack into them; ``horner_ball`` runs its whole loop on triples
and wraps one ``CBall`` at the end.  Each rule makes the libmp calls that
the mpf and mpc operators make, in the same order and each rounded to
nearest at the working precision: the real-axis product and sum, ``mpc_mul``
and ``mpf_hypot`` off the axis (after rounding each part as ``mpc()`` does),
and the radius terms summed left to right.  So a result is bit for bit the
same whichever caller computed it, and the same as the mpf and mpc operators
give; the triples only skip the Python objects around each call.
Coefficient triples come straight from Fractions (``_rational``), with
numerator and denominator each rounded before the division, as
``mpf(num) / mpf(den)`` rounds them.  A loop that evaluates the same
polynomial many times builds them once with ``coeff_balls``.  A Laurent
block goes through the same loop over its dense coefficients, times one
power z^low.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath import mpf
from mpmath.libmp import (MPZ_ONE, fone, fzero, from_int, mpc_mul, mpf_abs, mpf_add,
                          mpf_div, mpf_exp, mpf_gt, mpf_hypot, mpf_mul, mpf_sub,
                          normalize)

from .config import DEFAULTS
from .errors import DomainError, PrecisionError

mpmath.mp.prec = DEFAULTS.precision_bits


def _eps() -> mpf:
    """eps = 2^(4 - prec) at the working precision."""
    return mpmath.mp.make_mpf(_working()[2])


# -- the rules on (re, im, rad) triples of raw mpf tuples -------------------

def _working():
    """(precision, rounding mode, eps tuple) of the working precision; eps
    = 2^(4 - prec) is the raw mpf (sign 0, mantissa 1, exponent 4 - prec,
    bit count 1)."""
    prec, rnd = mpmath.mp._prec_rounding
    return prec, rnd, (0, MPZ_ONE, 4 - prec, 1)


def _round(x, prec, rnd):
    """x rounded to prec, as ``mpf(x)`` rounds it (only when it is longer)."""
    return normalize(*x, prec, rnd) if x[3] > prec else x


def _mul(x, y, prec, rnd, eps):
    """Product of two ball triples: the midpoint product, and the radius
    |a| rad_y + |b| rad_x + rad_x rad_y + eps (|a b| + 1), left to right."""
    a_re, a_im, a_rad = x
    b_re, b_im, b_rad = y
    if a_im == fzero and b_im == fzero:
        re, im = mpf_mul(a_re, b_re, prec, rnd), fzero
        abs_a, abs_b = mpf_abs(a_re, prec, rnd), mpf_abs(b_re, prec, rnd)
        abs_p = mpf_abs(re, prec, rnd)
    else:
        a_re, a_im = _round(a_re, prec, rnd), _round(a_im, prec, rnd)
        b_re, b_im = _round(b_re, prec, rnd), _round(b_im, prec, rnd)
        re, im = mpc_mul((a_re, a_im), (b_re, b_im), prec, rnd)
        abs_a, abs_b = mpf_hypot(a_re, a_im, prec, rnd), mpf_hypot(b_re, b_im, prec, rnd)
        abs_p = mpf_hypot(re, im, prec, rnd)
    rad = mpf_add(mpf_mul(abs_a, b_rad, prec, rnd), mpf_mul(abs_b, a_rad, prec, rnd),
                  prec, rnd)
    rad = mpf_add(rad, mpf_mul(a_rad, b_rad, prec, rnd), prec, rnd)
    slop = mpf_mul(eps, mpf_add(abs_p, fone, prec, rnd), prec, rnd)
    return re, im, mpf_add(rad, slop, prec, rnd)


def _add(x, y, prec, rnd, eps):
    """Sum of two ball triples: the midpoint sum, and the radius
    rad_x + rad_y + eps (|re| + |im| + 1), left to right."""
    a_re, a_im, a_rad = x
    b_re, b_im, b_rad = y
    re = mpf_add(a_re, b_re, prec, rnd)
    size = mpf_abs(re, prec, rnd)
    if a_im == fzero and b_im == fzero:
        im = fzero
    else:
        im = mpf_add(a_im, b_im, prec, rnd)
        size = mpf_add(size, mpf_abs(im, prec, rnd), prec, rnd)
    slop = mpf_mul(eps, mpf_add(size, fone, prec, rnd), prec, rnd)
    return re, im, mpf_add(mpf_add(a_rad, b_rad, prec, rnd), slop, prec, rnd)


def _rational(re, im, prec, rnd, eps):
    """Triple of the ball around re + i im (Fractions or ints): each part is
    mpf(numerator) / mpf(denominator), and the radius eps (|re| + |im| + 1)."""
    parts = [mpf_div(from_int(q.numerator, prec, rnd), from_int(q.denominator, prec, rnd),
                     prec, rnd) for q in (re, im)]
    size = mpf_add(mpf_abs(parts[0], prec, rnd), mpf_abs(parts[1], prec, rnd), prec, rnd)
    return parts[0], parts[1], mpf_mul(eps, mpf_add(size, fone, prec, rnd), prec, rnd)


def _ball(t) -> "CBall":
    make = mpmath.mp.make_mpf
    return CBall(make(t[0]), make(t[1]), make(t[2]))


@dataclass(frozen=True)
class CBall:
    re_mid: mpf
    im_mid: mpf
    rad: mpf

    # -- constructors -------------------------------------------------------
    @staticmethod
    def from_rational(re: Fraction, im: Fraction = Fraction(0)) -> "CBall":
        return _ball(_rational(Fraction(re), Fraction(im), *_working()))

    @staticmethod
    def from_complex(z) -> "CBall":
        zc = mpmath.mpmathify(z)
        return CBall(mpf(zc.real), mpf(zc.imag), _eps() * (abs(zc) + 1))

    @staticmethod
    def exact_int(n: int) -> "CBall":
        return CBall(mpf(n), mpf(0), mpf(0))

    # -- views ---------------------------------------------------------------
    @property
    def mid(self):
        return mpmath.mpc(self.re_mid, self.im_mid)

    def abs_mid(self) -> mpf:
        prec, rnd = mpmath.mp._prec_rounding      # hypot(x, 0) is |x|
        return mpmath.mp.make_mpf(mpf_hypot(self.re_mid._mpf_, self.im_mid._mpf_,
                                            prec, rnd))

    def abs_bounds(self) -> tuple[mpf, mpf]:
        """(lower, upper) bounds of |z| over the ball, from one |mid|:
        |mid| (1 - eps) - rad, clipped at 0, and |mid| (1 + eps) + rad."""
        prec, rnd, eps = _working()
        mid, rad = self.abs_mid()._mpf_, self.rad._mpf_
        lo = mpf_sub(mpf_mul(mid, mpf_sub(fone, eps, prec, rnd), prec, rnd), rad, prec, rnd)
        hi = mpf_add(mpf_mul(mid, mpf_add(eps, fone, prec, rnd), prec, rnd), rad, prec, rnd)
        make = mpmath.mp.make_mpf
        return make(lo if mpf_gt(lo, fzero) else fzero), make(hi)

    def abs_upper(self) -> mpf:
        return self.abs_bounds()[1]

    def abs_lower(self) -> mpf:
        return self.abs_bounds()[0]

    def contains_zero(self) -> bool:
        return self.abs_lower() == 0

    def contains(self, other: "CBall") -> bool:
        gap = mpmath.hypot(self.re_mid - other.re_mid, self.im_mid - other.im_mid)
        return gap * (1 + _eps()) + other.rad <= self.rad

    def contains_value(self, re: Fraction, im: Fraction = Fraction(0)) -> bool:
        return self.contains(CBall.from_rational(re, im))

    def __repr__(self) -> str:
        return f"CBall({mpmath.nstr(self.mid, 12)} +/- {mpmath.nstr(self.rad, 4)})"

    # -- arithmetic ------------------------------------------------------------
    def widen(self, extra) -> "CBall":
        return CBall(self.re_mid, self.im_mid, self.rad + mpf(extra))

    def _triple(self):
        return self.re_mid._mpf_, self.im_mid._mpf_, self.rad._mpf_

    def __add__(self, other: "CBall") -> "CBall":
        return _ball(_add(self._triple(), other._triple(), *_working()))

    def __neg__(self) -> "CBall":
        return CBall(-self.re_mid, -self.im_mid, self.rad)

    def __sub__(self, other: "CBall") -> "CBall":
        return self + (-other)

    def __mul__(self, other: "CBall") -> "CBall":
        return _ball(_mul(self._triple(), other._triple(), *_working()))

    def reciprocal(self) -> "CBall":
        lo = self.abs_lower()
        if lo == 0:
            raise PrecisionError("reciprocal of a ball containing zero")
        inv = 1 / self.mid
        rad = self.rad / (lo * self.abs_mid()) + _eps() * (abs(inv) + 1)
        return CBall(mpf(inv.real), mpf(inv.imag), rad)

    def __truediv__(self, other: "CBall") -> "CBall":
        return self * other.reciprocal()

    def pow_int(self, n: int) -> "CBall":
        if n < 0:
            return self.pow_int(-n).reciprocal()
        out = CBall.exact_int(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    # -- real interval helpers ---------------------------------------------
    def log_abs(self) -> "CBall":
        """Real ball enclosing log|z|; requires the ball to exclude zero."""
        lo, hi = self.abs_lower(), self.abs_upper()
        if lo <= 0:
            raise PrecisionError("log|z| of a ball touching zero")
        llo, lhi = mpmath.log(lo), mpmath.log(hi)
        mid = (llo + lhi) / 2
        rad = (lhi - llo) / 2 + _eps() * (abs(mid) + 1)
        return CBall(mid, mpf(0), rad)

    def exp_real(self) -> "CBall":
        """Real ball for exp(x) of a real ball: the ends re -+ rad are rounded
        outward, exp down at the lower end and up at the upper one."""
        if self.im_mid != 0:
            raise DomainError("exp_real expects a real ball")
        prec, make = mpmath.mp.prec, mpmath.mp.make_mpf
        re, rad = self.re_mid._mpf_, self.rad._mpf_
        lo = make(mpf_exp(mpf_sub(re, rad, prec, "d"), prec, "d"))
        hi = make(mpf_exp(mpf_add(re, rad, prec, "u"), prec, "u"))
        mid = (lo + hi) / 2
        rad = (hi - lo) / 2 + _eps() * (abs(mid) + 1)
        return CBall(mid, mpf(0), rad)


def rball(mid) -> CBall:
    """Real ball around an mpf-able value."""
    m = mpf(mid)
    return CBall(m, mpf(0), _eps() * (abs(m) + 1))


def as_ball(z) -> CBall:
    if isinstance(z, CBall):
        return z
    if isinstance(z, (int, Fraction)):
        return CBall.from_rational(Fraction(z))
    if isinstance(z, tuple) and len(z) == 2:
        return CBall.from_rational(Fraction(z[0]), Fraction(z[1]))
    return CBall.from_complex(z)


def coeff_balls(p) -> tuple:
    """Ball triples of the Fraction coefficients of p (a ``Poly`` or a
    ``LaurentBlock``), ascending, at the working precision; build them once
    per loop that evaluates p repeatedly."""
    prec, rnd, eps = _working()
    return tuple(_rational(c, 0, prec, rnd, eps) for c in p.coeffs)


def horner_ball(cballs, z: CBall) -> CBall:
    """Evaluate the polynomial with coefficient triples ``cballs`` (ascending
    degree, as built by ``coeff_balls``) at a ball, by Horner's rule on
    triples.  Real coefficients at a real z stay on the real-axis path
    throughout."""
    terms = reversed(cballs)
    acc = next(terms, None)
    if acc is None:
        return CBall.exact_int(0)
    prec, rnd, eps = _working()
    zt = z._triple()
    for c in terms:
        acc = _add(_mul(acc, zt, prec, rnd, eps), c, prec, rnd, eps)
    return _ball(acc)


def eval_poly_ball(p, z: CBall) -> CBall:
    return horner_ball(coeff_balls(p), z)


def eval_block_ball(block, z: CBall) -> CBall:
    """Evaluate a Laurent block's known terms at a ball (no tail estimate):
    one Horner pass over its dense coefficients, times z^low."""
    val = horner_ball(coeff_balls(block), z)
    return val * z.pow_int(block.low) if block.low else val
