"""Complex ball arithmetic: midpoint + rigorous absolute error radius.

Midpoints are mpmath floats at mpmath's working precision, the only
precision there is: importing this module sets it to the default
``precision_bits``, and the CLI sets it once per run from its settings.
Every operation widens the radius by the exact-arithmetic error bound plus a
conservative rounding slop (a few ulp of the result), eps = 2^(4 - prec),
computed once per precision.  The represented exact value is always within
``rad`` of ``re_mid + i*im_mid``.

Balls on the real axis (imaginary midpoints exactly 0) add, multiply and
take absolute values in real mpf arithmetic.  That gives the same bits as
the complex formulas: mpmath's complex product rounds the exact product
minus an exact 0, hypot(x, 0) is |x|, and adding an exact 0 to a number at
the working precision leaves it unchanged.  Polynomials are evaluated by one
Horner loop over coefficient balls; a loop that evaluates the same
polynomial many times builds them once with ``coeff_balls``.  A Laurent
block goes through the same loop over its dense coefficients, times one
power z^low.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath import mpf

from .config import DEFAULTS
from .errors import DomainError, PrecisionError

mpmath.mp.prec = DEFAULTS.precision_bits

_ZERO = mpf(0)
_EPS: dict[int, mpf] = {}       # precision -> 2^(4 - precision)


def _eps() -> mpf:
    prec = mpmath.mp.prec
    eps = _EPS.get(prec)
    if eps is None:
        eps = _EPS[prec] = mpmath.ldexp(1, 4 - prec)
    return eps


@dataclass(frozen=True)
class CBall:
    re_mid: mpf
    im_mid: mpf
    rad: mpf

    # -- constructors -------------------------------------------------------
    @staticmethod
    def from_rational(re: Fraction, im: Fraction = Fraction(0)) -> "CBall":
        re, im = Fraction(re), Fraction(im)
        rm = mpf(re.numerator) / mpf(re.denominator)
        im_ = mpf(im.numerator) / mpf(im.denominator)
        slop = _eps() * (abs(rm) + abs(im_) + 1)
        return CBall(rm, im_, slop)

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
        if not self.im_mid:
            return abs(self.re_mid)
        return mpmath.hypot(self.re_mid, self.im_mid)

    def abs_upper(self) -> mpf:
        return self.abs_mid() * (1 + _eps()) + self.rad

    def abs_lower(self) -> mpf:
        lo = self.abs_mid() * (1 - _eps()) - self.rad
        return lo if lo > 0 else mpf(0)

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

    def __add__(self, other: "CBall") -> "CBall":
        re = self.re_mid + other.re_mid
        if not self.im_mid and not other.im_mid:
            return CBall(re, _ZERO, self.rad + other.rad + _eps() * (abs(re) + 1))
        im = self.im_mid + other.im_mid
        rad = self.rad + other.rad + _eps() * (abs(re) + abs(im) + 1)
        return CBall(re, im, rad)

    def __neg__(self) -> "CBall":
        return CBall(-self.re_mid, -self.im_mid, self.rad)

    def __sub__(self, other: "CBall") -> "CBall":
        return self + (-other)

    def __mul__(self, other: "CBall") -> "CBall":
        if not self.im_mid and not other.im_mid:
            a, b = self.re_mid, other.re_mid
            prod = a * b
            rad = (abs(a) * other.rad + abs(b) * self.rad + self.rad * other.rad
                   + _eps() * (abs(prod) + 1))
            return CBall(prod, _ZERO, rad)
        a, b = self.mid, other.mid
        prod = a * b
        rad = (abs(a) * other.rad + abs(b) * self.rad + self.rad * other.rad
               + _eps() * (abs(prod) + 1))
        return CBall(mpf(prod.real), mpf(prod.imag), rad)

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

    def conjugate(self) -> "CBall":
        return CBall(self.re_mid, -self.im_mid, self.rad)

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
        """Real ball for exp(x) of a real ball."""
        if self.im_mid != 0:
            raise DomainError("exp_real expects a real ball")
        lo = mpmath.exp(self.re_mid - self.rad)
        hi = mpmath.exp(self.re_mid + self.rad)
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


def coeff_balls(p) -> tuple[CBall, ...]:
    """Balls of the Fraction coefficients of p, ascending, at the working
    precision; build them once per loop that evaluates p repeatedly."""
    return tuple(CBall.from_rational(c) for c in p.coeffs)


def horner_ball(cballs, z: CBall) -> CBall:
    """Evaluate the polynomial with coefficient balls ``cballs`` (ascending
    degree, as built by ``coeff_balls``) at a ball, by Horner's rule.  Real
    coefficients at a real z stay on the real-axis path throughout."""
    terms = reversed(cballs)
    acc = next(terms, None)
    if acc is None:
        return CBall.exact_int(0)
    for cb in terms:
        acc = acc * z + cb
    return acc


def eval_poly_ball(p, z: CBall) -> CBall:
    return horner_ball(coeff_balls(p), z)


def eval_block_ball(block, z: CBall) -> CBall:
    """Evaluate a Laurent block's known terms at a ball (no tail estimate):
    one Horner pass over its dense coefficients, times z^low."""
    val = horner_ball([CBall.from_rational(c) for c in block.coeffs], z)
    return val * z.pow_int(block.low) if block.low else val
