"""p-adic scalars and Laurent series on annuli: sup-norms, the leading-index
statistic kappa, Newton polygons with the slope/zero dictionary, the
ultrametric Poisson-Jensen zero count, and local cyclotomic degrees.

Scalars are scaled integers: value = p^valuation * unit with the unit known
modulo p^precision.  A radius is a power p^t with t rational, so every
logarithm stays a rational multiple of log p; a positive rational that is
not such a power is refused.  Any comparison that the tracked precision
cannot decide raises instead of guessing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .config import DEFAULTS
from .errors import DomainError, PrecisionError, WindowError
from .exact import _is_prime, _v_p, rat


def _check_prime(p: int) -> None:
    if not _is_prime(p):
        raise DomainError(f"{p} is not prime")


def _check_digits(digits: int) -> None:
    if digits < 1:
        raise DomainError(f"p-adic precision must be >= 1 digit, got {digits}")


@dataclass(frozen=True)
class PadicScalar:
    """p^valuation * unit, unit invertible mod p and known mod p^precision.

    Exact zero is flagged; a sum that cancels all tracked digits becomes a
    "small" scalar: known only to satisfy |x| <= p^(-small_bound).
    """

    p: int
    valuation: int
    unit: int
    precision: int
    zero: bool = False
    small_bound: Optional[int] = None   # set on zero-within-precision values

    # -- constructors -----------------------------------------------------
    @staticmethod
    def exact_zero(p: int) -> "PadicScalar":
        return PadicScalar(p, 0, 0, 0, zero=True, small_bound=None)

    @staticmethod
    def from_rational(q, p: int, digits: int = DEFAULTS.padic_digits) -> "PadicScalar":
        _check_prime(p)
        _check_digits(digits)
        q = rat(q)
        if q == 0:
            return PadicScalar.exact_zero(p)
        v, num, den = 0, q.numerator, q.denominator
        while num % p == 0:
            num //= p
            v += 1
        while den % p == 0:
            den //= p
            v -= 1
        mod = p ** digits
        unit = (num % mod) * pow(den % mod, -1, mod) % mod
        return PadicScalar(p, v, unit, digits)

    @staticmethod
    def from_unit(p: int, unit: int, valuation: int = 0,
                  digits: int = DEFAULTS.padic_digits) -> "PadicScalar":
        _check_prime(p)
        _check_digits(digits)
        mod = p ** digits
        unit %= mod
        if unit % p == 0:
            raise DomainError("unit must be invertible mod p")
        return PadicScalar(p, valuation, unit, digits)

    # -- structure -----------------------------------------------------------
    @property
    def is_exact_zero(self) -> bool:
        return self.zero and self.small_bound is None

    @property
    def is_small(self) -> bool:
        return self.zero and self.small_bound is not None

    def logp_abs(self) -> Fraction:
        """log_p |x| = -valuation; refuses on zero-like values."""
        if self.zero:
            raise PrecisionError("absolute value of a (possibly) zero scalar")
        return Fraction(-self.valuation)

    def logp_abs_upper(self) -> Optional[Fraction]:
        """Upper bound on log_p |x| (None means -infinity: exact zero)."""
        if self.is_exact_zero:
            return None
        if self.is_small:
            return Fraction(-self.small_bound)
        return Fraction(-self.valuation)

    def __repr__(self) -> str:
        if self.is_exact_zero:
            return f"PadicScalar(0; p={self.p})"
        if self.is_small:
            return f"PadicScalar(|x|<=p^-{self.small_bound}; p={self.p})"
        return (f"PadicScalar({self.p}^{self.valuation} * {self.unit} "
                f"mod {self.p}^{self.precision})")

    # -- arithmetic -------------------------------------------------------------
    def _require_same_p(self, other: "PadicScalar") -> None:
        if self.p != other.p:
            raise DomainError("mixed primes")

    def __mul__(self, other: "PadicScalar") -> "PadicScalar":
        self._require_same_p(other)
        if self.is_exact_zero or other.is_exact_zero:
            return PadicScalar.exact_zero(self.p)
        if self.zero or other.zero:
            bounds = []
            for x in (self, other):
                bounds.append(x.small_bound if x.zero else x.valuation)
            return PadicScalar(self.p, 0, 0, 0, zero=True,
                               small_bound=sum(bounds))
        prec = min(self.precision, other.precision)
        mod = self.p ** prec
        return PadicScalar(self.p, self.valuation + other.valuation,
                           (self.unit * other.unit) % mod, prec)

    def __neg__(self) -> "PadicScalar":
        if self.zero:
            return self
        mod = self.p ** self.precision
        return PadicScalar(self.p, self.valuation, (-self.unit) % mod,
                           self.precision)

    def __add__(self, other: "PadicScalar") -> "PadicScalar":
        self._require_same_p(other)
        if self.is_exact_zero:
            return other
        if other.is_exact_zero:
            return self
        # absolute precision of each summand
        def abs_prec(x: PadicScalar) -> int:
            return x.small_bound if x.zero else x.valuation + x.precision
        known_to = min(abs_prec(self), abs_prec(other))
        vals = [x for x in (self, other) if not x.zero]
        if not vals:
            return PadicScalar(self.p, 0, 0, 0, zero=True,
                               small_bound=min(self.small_bound, other.small_bound))
        v0 = min(x.valuation for x in vals)
        if known_to <= v0:
            raise PrecisionError("addition lost all tracked digits")
        mod = self.p ** (known_to - v0)
        total = 0
        for x in vals:
            total = (total + x.unit * self.p ** (x.valuation - v0)) % mod
        if total == 0:
            return PadicScalar(self.p, 0, 0, 0, zero=True, small_bound=known_to)
        v_extra = 0
        while total % self.p == 0:
            total //= self.p
            v_extra += 1
        new_prec = known_to - v0 - v_extra
        return PadicScalar(self.p, v0 + v_extra, total, new_prec)


def teichmuller(p: int, c: int, digits: int = DEFAULTS.padic_digits) -> PadicScalar:
    """Teichmuller lift: the unique (p-1)-th root of unity congruent to c mod p."""
    _check_prime(p)
    _check_digits(digits)
    if c % p == 0:
        raise DomainError("Teichmuller lift needs a unit residue")
    mod = p ** digits
    x = c % mod
    for _ in range(digits + 2):
        x = pow(x, p, mod)
    return PadicScalar.from_unit(p, x, 0, digits)


# ---------------------------------------------------------------------------
# radii
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Radius:
    """Exact positive radius p^t, t rational."""

    t: Fraction

    @staticmethod
    def ppow(t) -> "Radius":
        return Radius(Fraction(t))

    @staticmethod
    def coerce(value, p: int) -> "Radius":
        """A positive rational that is an exact power of p, as p^t."""
        if isinstance(value, Radius):
            return value
        q = rat(value)
        if q <= 0:
            raise DomainError("radius must be positive")
        t = _v_p(q, p)
        if q != Fraction(p) ** t:
            raise DomainError(f"radius {q} is not an exact power of {p}")
        return Radius(Fraction(t))


# ---------------------------------------------------------------------------
# series
# ---------------------------------------------------------------------------

TailBound = Callable[[Fraction], Fraction]


@dataclass(frozen=True)
class PadicSeries:
    """Finite window of a Laurent series over Q_p.

    ``complete=True`` asserts every omitted coefficient is exactly zero.
    Otherwise ``tail_logp(t)`` must bound log_p |a_n p^(t n)| = log_p(|a_n| r^n)
    for every omitted exponent n at radius r = p^t (raising WindowError when
    the radius is outside the certified range).
    """

    p: int
    terms: tuple[tuple[int, PadicScalar], ...]
    complete: bool = True
    tail_logp: Optional[TailBound] = None

    @staticmethod
    def from_coeffs(p: int, pairs, digits: int = DEFAULTS.padic_digits) -> "PadicSeries":
        """Build a complete series from (exponent, rational) pairs with
        distinct exponents."""
        terms, seen = [], set()
        for n, c in pairs:
            if int(n) in seen:
                raise DomainError(f"exponent {n} is given twice")
            seen.add(int(n))
            scalar = (c if isinstance(c, PadicScalar)
                      else PadicScalar.from_rational(c, p, digits))
            if not scalar.is_exact_zero:
                terms.append((int(n), scalar))
        terms.sort()
        return PadicSeries(p, tuple(terms))

    @staticmethod
    def from_polynomial(coeffs: Sequence, p: int,
                        digits: int = DEFAULTS.padic_digits) -> "PadicSeries":
        return PadicSeries.from_coeffs(p, enumerate(coeffs), digits)

    @property
    def is_window_zero(self) -> bool:
        return all(s.zero for _, s in self.terms)

    def _tail_at(self, t: Fraction) -> Optional[Fraction]:
        """Bound on omitted log_p|a_n| + n t, or None when all omitted are 0."""
        if self.complete:
            return None
        if self.tail_logp is None:
            raise WindowError("series has no tail certificate")
        return self.tail_logp(t)


def _term_logp(n: int, scalar: PadicScalar, t: Fraction) -> Optional[Fraction]:
    up = scalar.logp_abs_upper()
    return None if up is None else up + n * t


def sup_norm(g: PadicSeries, r) -> Fraction:
    """log_p of |g|_r = sup_n |a_n| r^n, exact."""
    val, _ = _sup_and_kappa(g, Radius.coerce(r, g.p).t)
    return val


def kappa(g: PadicSeries, r) -> int:
    """inf of the exponents attaining the sup norm at radius r."""
    _, k = _sup_and_kappa(g, Radius.coerce(r, g.p).t)
    return k


def _sup_and_kappa(g: PadicSeries, t: Fraction) -> tuple[Fraction, int]:
    best: Optional[Fraction] = None
    best_n: Optional[int] = None
    small_max: Optional[Fraction] = None
    for n, s in g.terms:
        val = _term_logp(n, s, t)
        if val is None:
            continue
        if s.zero:
            if small_max is None or val > small_max:
                small_max = val
            continue
        if best is None or val > best or (val == best and n < best_n):
            best, best_n = val, n
    tail = g._tail_at(t)
    if best is None:
        raise (WindowError("window cannot certify a nonzero sup norm")
               if (tail is not None or small_max is not None)
               else DomainError("sup norm of the zero series"))
    for bound in (tail, small_max):
        if bound is not None and bound >= best:
            raise WindowError(
                "uncertified terms may reach the sup; enlarge the window "
                f"(need a tail bound below p^{best})")
    # a small/omitted term below the sup cannot attain it; kappa is exact if
    # no small term with exponent < best_n could attain -- checked above
    return best, best_n


# ---------------------------------------------------------------------------
# Newton polygon
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NewtonPolygon:
    vertices: tuple[tuple[int, Fraction], ...]   # (exponent, valuation), lower hull


def newton_polygon(g: PadicSeries) -> NewtonPolygon:
    """Lower convex hull of the points (n, v_p(a_n)) over the stored window."""
    pts = []
    for n, s in g.terms:
        if s.zero:
            if s.is_small:
                raise PrecisionError("polygon needs exact valuations; "
                                     "a term is only bounded")
            continue
        pts.append((n, Fraction(s.valuation)))
    if not pts:
        raise DomainError("Newton polygon of the (window-)zero series")
    pts.sort()
    hull: list[tuple[int, Fraction]] = []
    for pt in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # drop the middle point when it lies on or above the chord
            if (y2 - y1) * (pt[0] - x1) >= (pt[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    return NewtonPolygon(tuple(hull))


def zeros_by_slope(np_: NewtonPolygon) -> list[tuple[Fraction, int]]:
    """(valuation of roots, count) per hull segment: slope -s <-> valuation s."""
    out = []
    for (x1, y1), (x2, y2) in zip(np_.vertices, np_.vertices[1:]):
        slope = Fraction(y2 - y1, x2 - x1)
        out.append((-slope, x2 - x1))
    return out


# ---------------------------------------------------------------------------
# Poisson-Jensen zero counting
# ---------------------------------------------------------------------------

def count_zeros_pj(g: PadicSeries, r1, r) -> Fraction:
    """Weighted zero count N(g,0,r) = sum over zeros in the annulus [r1, r)
    of log(r/|z|), via the exact identity

        N(g,0,r) = log|g|_r - kappa(g,r1) * log(r) - log|a_kappa(g,r1)|.

    Radii must be p-powers; the result is in units of log p.
    """
    rad1 = Radius.coerce(r1, g.p)
    rad = Radius.coerce(r, g.p)
    if not rad1.t < rad.t:
        raise DomainError("need r1 < r")
    if g.is_window_zero and g.complete:
        raise DomainError("zero function on the annulus")
    sup_r, _ = _sup_and_kappa(g, rad.t)
    _, k1 = _sup_and_kappa(g, rad1.t)
    a_k1 = dict(g.terms)[k1]
    return sup_r - k1 * rad.t - a_k1.logp_abs()


def count_zeros_from_polygon(g: PadicSeries, r1, r) -> Fraction:
    """Independent N(g,0,r) from Newton-polygon slopes (complete windows)."""
    rad1 = Radius.coerce(r1, g.p)
    rad = Radius.coerce(r, g.p)
    if not g.complete:
        raise WindowError("polygon-based counting requires a complete window")
    total = Fraction(0)
    for root_val, count in zeros_by_slope(newton_polygon(g)):
        # |z| = p^(-root_val) in [p^t1, p^t)  <=>  t1 <= -root_val < t
        if rad1.t <= -root_val < rad.t:
            total += count * (rad.t + root_val)
    return total


# ---------------------------------------------------------------------------
# cyclotomic degrees
# ---------------------------------------------------------------------------

def cyclotomic_degree_local(N: int, p: int) -> int:
    """[Q_p(zeta_N) : Q_p] = phi(p^a) * ord of p modulo N/p^a, a = v_p(N)."""
    if N < 1:
        raise DomainError("N must be >= 1")
    _check_prime(p)
    a = 0
    M = N
    while M % p == 0:
        M //= p
        a += 1
    ram = (p - 1) * p ** (a - 1) if a >= 1 else 1
    order, x = 1, p % M
    while M > 1 and x != 1:          # the order of p modulo M, prime to p
        x = x * p % M
        order += 1
    return ram * order
