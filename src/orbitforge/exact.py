"""Exact arithmetic substrate over Q.

Everything symbolic in this package runs on ``fractions.Fraction`` (always
canonical: gcd 1, positive denominator), parsed from and printed as
``"num/den"`` strings by ``rat`` and ``rat_str``, and on three
representations built from it:

* ``Poly`` -- dense univariate polynomials, coefficient of X^i at index i;
* ``BiPoly`` -- a plane curve's term table, keyed by (i, j) for X^i Y^j,
  with its views but no ring operations;
* ``LaurentBlock`` -- truncated Laurent series: coefficients are known for
  exponents ``low .. trunc_order-1`` (implicitly zero where not stored) and
  unknown from ``trunc_order`` on.  ``trunc_order=None`` means the block is a
  full Laurent polynomial (everything outside the stored range is zero).

Truncation bookkeeping is pessimistic: any operation mixing blocks takes the
minimum valid order, so a coefficient is never reported unless it is fully
determined by known data.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable, Literal, Optional, Sequence

from .errors import DomainError


_MINUS_VARIANTS = ("−", "–", "—")
_LONG_LITERAL = re.compile(r"([+-]?)(?=\.?[0-9])([0-9]*)"
                           r"(?:/([0-9]+)|(?:\.([0-9]*))?(?:[eE]([+-]?[0-9]+))?)")


def rat(value) -> Fraction:
    """Parse an int, Fraction, or ``"num/den"`` string into a canonical Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        for sign in _MINUS_VARIANTS:
            text = text.replace(sign, "-")
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError):
            pass
        # Fraction refuses digit strings past Python's str-to-int limit;
        # exponents past 18 digits are refused, as 10^exp cannot be built
        literal = _LONG_LITERAL.fullmatch(text)
        if literal:
            sign, num, den, frac, exp = literal.groups()
            den = _int_parse(den) if den else 1
            if den and len(exp or "") <= 18:
                frac = frac or ""
                q = (Fraction(_int_parse(num + frac), den)
                     * Fraction(10) ** (int(exp or 0) - len(frac)))
                return -q if sign == "-" else q
    raise DomainError(f"cannot interpret {value!r} as a rational")


def _int_parse(digits: str) -> int:
    """Value of a decimal digit string, also past Python's str-to-int digit
    limit; the inverse of ``_int_str``."""
    if len(digits) <= 3600:
        return int(digits)
    low = len(digits) // 2
    return _int_parse(digits[:-low]) * 10 ** low + _int_parse(digits[-low:])


def _int_str(n: int) -> str:
    """Decimal digits of n, also past Python's int-to-str digit limit."""
    if n.bit_length() < 12000:               # about 3600 digits
        return str(n)
    half = n.bit_length() * 3 // 20          # about half the digits
    high, low = divmod(abs(n), 10 ** half)
    return ("-" if n < 0 else "") + _int_str(high) + _int_str(low).zfill(half)


def integer_kth_root(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 0, on integers: isqrt, or Newton from above."""
    if k == 2 or n < 2:
        return math.isqrt(n)
    x = 1 << -(-n.bit_length() // k)      # 2^ceil(bits/k) > n^(1/k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _v_p(q: Fraction, p: int) -> int:
    """p-adic valuation of a nonzero rational."""
    if q == 0:
        raise DomainError("valuation of zero")
    v, n, d = 0, q.numerator, q.denominator
    while n % p == 0:
        n //= p
        v += 1
    while d % p == 0:
        d //= p
        v -= 1
    return v


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Miller-Rabin to the bases _SMALL_PRIMES is exact below this bound, the
# least strong pseudoprime to all of them (J. Sorenson and J. Webster, "Strong
# pseudoprimes to twelve prime bases", Math. Comp. 86, 2017); the first
# twelve bases alone pass 318665857834031151167461 = 399165290221 *
# 798330580441
_MILLER_RABIN_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """n is prime: trial division by the primes up to 41, then Miller-Rabin
    to those bases below ``_MILLER_RABIN_BOUND``, and trial division above
    it."""
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    if n >= _MILLER_RABIN_BOUND:
        return all(n % f for f in range(43, math.isqrt(n) + 1, 2))
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n, ascending, by trial division until
    the cofactor is 1 or prime."""
    n = abs(n)
    out, f, prime = [], 2, _is_prime(n)
    while n > 1 and not prime:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
            prime = _is_prime(n)
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return out


def rat_str(q: Fraction) -> str:
    """Render a Fraction as ``"num"`` or ``"num/den"``."""
    num = _int_str(q.numerator)
    return num if q.denominator == 1 else f"{num}/{_int_str(q.denominator)}"


class Poly:
    """Dense univariate polynomial over Q; immutable and hashable."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):  # ascending degree
        cs = [rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("Poly is immutable")

    # -- constructors -----------------------------------------------------
    @staticmethod
    def zero() -> "Poly":
        return Poly()

    @staticmethod
    def one() -> "Poly":
        return Poly([1])

    @staticmethod
    def x() -> "Poly":
        return Poly([0, 1])

    @staticmethod
    def monomial(n: int, c=1) -> "Poly":
        if n < 0:
            raise DomainError("monomial exponent must be >= 0")
        return Poly([0] * n + [c])

    # -- structure ---------------------------------------------------------
    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lead(self) -> Fraction:
        if self.is_zero:
            raise DomainError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, i: int) -> Fraction:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        if self.is_zero:
            return "Poly(0)"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            term = rat_str(c) if i == 0 else (f"{rat_str(c)}*X^{i}" if c != 1 else f"X^{i}")
            parts.append(term)
        return "Poly(" + " + ".join(parts) + ")"

    # -- ring operations ----------------------------------------------------
    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        if self.is_zero or other.is_zero:
            return Poly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if b != 0:
                    out[i + j] += a * b
        return Poly(out)

    def scale(self, c) -> "Poly":
        c = rat(c)
        return Poly([c * a for a in self.coeffs])

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise DomainError("negative power of a polynomial")
        result, base = Poly.one(), self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def derivative(self) -> "Poly":
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def __call__(self, x: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def compose(self, inner: "Poly") -> "Poly":
        acc = Poly.zero()
        for c in reversed(self.coeffs):
            acc = acc * inner + Poly([c])
        return acc

    # -- euclidean layer -----------------------------------------------------
    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if other.is_zero:
            raise DomainError("division by the zero polynomial")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Poly(), self
        quot = [Fraction(0)] * (dq + 1)
        oc = other.coeffs
        for k in range(dq, -1, -1):
            c = rem[k + len(oc) - 1] / oc[-1]
            quot[k] = c
            if c != 0:
                for j, b in enumerate(oc):
                    rem[k + j] -= c * b
        return Poly(quot), Poly(rem[: len(oc) - 1])

    def gcd(self, other: "Poly") -> "Poly":
        a, b = self, other
        while not b.is_zero:
            a, b = b, a.divmod(b)[1]
        if a.is_zero:
            return a
        return a.scale(1 / a.lead)

    # -- serialization --------------------------------------------------------
    def to_json(self) -> list[str]:
        return [rat_str(c) for c in self.coeffs]

    @staticmethod
    def from_json(data: Sequence) -> "Poly":
        return Poly([rat(c) for c in data])


class BiPoly:
    """A plane curve's polynomial as its term table over Q, keyed by
    (i, j) -> X^i Y^j; immutable.  It has no ring operations, only views:
    degrees, evaluation (``eval_with``), fixing one variable
    (``subs_values``), the coefficient rows in one variable (``coeffs_in``),
    content and primitive part, and JSON."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for (i, j), c in (terms.items() if isinstance(terms, dict) else terms):
                c = rat(c)
                if c != 0:
                    key = (int(i), int(j))
                    clean[key] = clean.get(key, Fraction(0)) + c
        object.__setattr__(
            self, "terms",
            tuple(sorted((k, v) for k, v in clean.items() if v != 0)))

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("BiPoly is immutable")

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def deg_x(self) -> int:
        return max((i for (i, _), _ in self.terms), default=-1)

    @property
    def deg_y(self) -> int:
        return max((j for (_, j), _ in self.terms), default=-1)

    @property
    def total_degree(self) -> int:
        return max((i + j for (i, j), _ in self.terms), default=-1)

    def __eq__(self, other) -> bool:
        return isinstance(other, BiPoly) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(self.terms)

    def __repr__(self) -> str:
        if self.is_zero:
            return "BiPoly(0)"
        bits = [f"{rat_str(c)}*X^{i}*Y^{j}" for (i, j), c in self.terms]
        return "BiPoly(" + " + ".join(bits) + ")"

    def eval_with(self, x, y, convert=lambda c: c):
        """P(x, y) in any ring accepting + and *: exactly on Fractions, or
        on complex balls with ``convert`` turning coefficients into balls."""
        by_i: dict = {}
        for (i, j), c in self.terms:
            by_i.setdefault(i, []).append((j, c))
        total = None
        for i, row in sorted(by_i.items()):
            inner = None
            for j, c in sorted(row, reverse=True):
                cc = convert(c)
                if inner is None:
                    inner = cc
                    prev_j = j
                else:
                    inner = inner * _pow(y, prev_j - j) + cc
                    prev_j = j
            inner = inner * _pow(y, prev_j) if prev_j else inner
            part = inner * _pow(x, i) if i else inner
            total = part if total is None else total + part
        return total if total is not None else convert(Fraction(0))

    def subs_values(self, x=None, y=None) -> Poly:
        """Fix one variable to a rational; returns a Poly in the other."""
        if (x is None) == (y is None):
            raise DomainError("fix exactly one variable")
        acc: dict = {}
        for (i, j), c in self.terms:
            if x is not None:
                acc[j] = acc.get(j, Fraction(0)) + c * x**i
            else:
                acc[i] = acc.get(i, Fraction(0)) + c * y**j
        size = max(acc, default=-1) + 1
        return Poly([acc.get(k, Fraction(0)) for k in range(size)])

    def coeffs_in(self, var: Literal["x", "y"]) -> list[Poly]:
        """Coefficient list in the given variable; entries are Poly in the other."""
        if var not in ("x", "y"):
            raise DomainError("variable must be 'x' or 'y'")
        deg = self.deg_x if var == "x" else self.deg_y
        rows: list[dict] = [dict() for _ in range(deg + 1)]
        for (i, j), c in self.terms:
            main, other = (i, j) if var == "x" else (j, i)
            rows[main][other] = c
        out = []
        for row in rows:
            size = max(row, default=-1) + 1
            out.append(Poly([row.get(k, Fraction(0)) for k in range(size)]))
        return out

    def content_primitive(self) -> tuple[Fraction, "BiPoly"]:
        """(content, primitive part), the part's last term (largest key) positive."""
        if self.is_zero:
            return Fraction(0), self
        nums, den = _over_common([c for _, c in self.terms])
        g = math.gcd(*nums) * (1 if nums[-1] > 0 else -1)
        return Fraction(g, den), BiPoly(
            {k: Fraction(n, g) for (k, _), n in zip(self.terms, nums)})

    def to_json(self) -> list:
        return [[i, j, rat_str(c)] for (i, j), c in self.terms]

    @staticmethod
    def from_json(data) -> "BiPoly":
        """[i, j, "num/den"] terms with distinct (i, j)."""
        terms: dict = {}
        for i, j, c in data:
            if (int(i), int(j)) in terms:
                raise DomainError(f"term ({i}, {j}) is given twice")
            terms[int(i), int(j)] = rat(c)
        return BiPoly(terms)


def _pow(x, n: int):
    if n == 0:
        raise DomainError("internal: zero power should be skipped")
    out = x
    for _ in range(n - 1):
        out = out * x
    return out


def _norm(f: Poly, g: Poly) -> Fraction:
    """prod g(beta) over the roots beta of a monic f, by Euclid:
    prod g(beta) = prod r(beta) for r = g mod f, and for r of degree k with
    leading coefficient c, prod r(beta) = c^deg f (-1)^(k deg f) prod f(gamma)
    over the roots gamma of r / c."""
    acc = Fraction(1)
    while True:
        g = g.divmod(f)[1]
        if g.degree < 1:
            return acc * g.coeff(0) ** f.degree
        c = g.lead
        acc *= c ** f.degree * (-1 if f.degree * g.degree % 2 else 1)
        f, g = g.scale(1 / c), f


def poly_resultant(f: Poly, P: BiPoly) -> Poly:
    """Res_Y(f(Y), P(X, Y)) for a monic f: the product of P(X, beta) over the
    roots beta of f, a polynomial in X of degree at most deg f * deg_X P.

    Evaluation and interpolation (Collins 1971): at X = 0, 1, ..., deg f *
    deg_X P the value is the univariate resultant of f and P(x, Y), which
    Newton's divided differences interpolate.

    No library path calls it: the pair rule takes the resultant mod a prime
    (``curves._resultant_mod``) and decides the rest by the partner count
    (``curves._partner_count``).  It stays as the tests' independent
    reference for both, and the benchmark's tracer (``perfbench/tracer.py``)
    wraps it by name."""
    if f.degree < 1 or f.lead != 1:
        raise DomainError("resultant requires a monic f of positive degree")
    points = range(f.degree * max(P.deg_x, 0) + 1)
    table = [_norm(f, P.subs_values(x=Fraction(x))) for x in points]
    for k in range(1, len(table)):           # divided differences in place
        for i in range(len(table) - 1, k - 1, -1):
            table[i] = (table[i] - table[i - 1]) / k
    out = Poly()
    for k in reversed(points):                # Newton form, Horner from the top
        out = out * Poly([-k, 1]) + Poly([table[k]])
    return out


def _over_common(coeffs: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integer numerators over one common denominator: (nums, den) with
    den the lcm of the denominators and coeffs[i] == nums[i] / den."""
    den = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _convolve(a: Sequence[int], b: Sequence[int], width: int) -> list[int]:
    """The first ``width`` coefficients of the product of two integer
    coefficient lists: the one convolution loop of the series layer."""
    out = [0] * width
    nonzero_b = [(j, y) for j, y in enumerate(b[:width]) if y]
    for i, x in enumerate(a[:width]):
        if x:
            for j, y in nonzero_b:
                if i + j >= width:
                    break
                out[i + j] += x * y
    return out


class LaurentBlock:
    """Truncated Laurent series with exact coefficients.

    Coefficients are stored for exponents ``low .. low+len(coeffs)-1`` and are
    implicitly zero elsewhere below ``trunc_order``.  ``trunc_order=None``
    marks a full Laurent polynomial.

    The product, the inverse and ``evaluate_series_at_block`` put each
    operand over its common denominator once, run on the integer numerators
    (the product and the composition through ``_convolve``), and reduce each
    output coefficient once at the end: one gcd per output coefficient
    instead of one per term, the layout of FLINT's ``fmpq_poly``.
    """

    __slots__ = ("low", "coeffs", "trunc")

    def __init__(self, low: int, coeffs: Iterable, trunc: Optional[int] = None):
        cs = [rat(c) for c in coeffs]
        # trim zeros on both ends (this only changes the stored range)
        while cs and cs[0] == 0:
            cs.pop(0)
            low += 1
        while cs and cs[-1] == 0:
            cs.pop()
        if trunc is not None and cs and low + len(cs) > trunc:
            cs = cs[: max(0, trunc - low)]
            while cs and cs[-1] == 0:
                cs.pop()
        if not cs:
            low = 0
        if trunc is not None and cs and low > trunc:
            raise DomainError("block invariant violated: low > trunc_order")
        object.__setattr__(self, "low", low)
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "trunc", trunc)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("LaurentBlock is immutable")

    # -- queries ---------------------------------------------------------
    @staticmethod
    def zero(trunc: Optional[int] = None) -> "LaurentBlock":
        return LaurentBlock(0, (), trunc)

    @staticmethod
    def monomial(exponent: int, c=1, trunc: Optional[int] = None) -> "LaurentBlock":
        return LaurentBlock(exponent, [c], trunc)

    @staticmethod
    def from_poly(p: Poly, trunc: Optional[int] = None) -> "LaurentBlock":
        return LaurentBlock(0, p.coeffs, trunc)

    @property
    def is_exact_zero(self) -> bool:
        return not self.coeffs and self.trunc is None

    @property
    def top(self) -> int:
        """Highest stored exponent."""
        if not self.coeffs:
            raise DomainError("empty block has no top exponent")
        return self.low + len(self.coeffs) - 1

    def coefficient(self, e: int) -> Fraction:
        if self.trunc is not None and e >= self.trunc:
            raise DomainError(
                f"coefficient at exponent {e} is beyond trunc_order {self.trunc}")
        if self.coeffs and self.low <= e <= self.top:
            return self.coeffs[e - self.low]
        return Fraction(0)

    def known_terms(self) -> list[tuple[int, Fraction]]:
        return [(self.low + i, c) for i, c in enumerate(self.coeffs) if c != 0]

    def known_is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __eq__(self, other) -> bool:
        return (isinstance(other, LaurentBlock) and self.low == other.low
                and self.coeffs == other.coeffs and self.trunc == other.trunc)

    def __hash__(self) -> int:
        return hash((self.low, self.coeffs, self.trunc))

    def __repr__(self) -> str:
        body = " + ".join(f"{rat_str(c)}*x^{e}" for e, c in self.known_terms()) or "0"
        tail = "" if self.trunc is None else f" + O(x^{self.trunc})"
        return f"LaurentBlock({body}{tail})"

    # -- arithmetic --------------------------------------------------------
    def _known_start(self) -> Optional[int]:
        """Lowest exponent carrying information (None for exact zero)."""
        if self.coeffs:
            return self.low
        return self.trunc  # empty: known-zero below trunc (or everywhere)

    def __add__(self, other: "LaurentBlock") -> "LaurentBlock":
        truncs = [t for t in (self.trunc, other.trunc) if t is not None]
        t = min(truncs) if truncs else None
        lows = [b.low for b in (self, other) if b.coeffs]
        if not lows:
            return LaurentBlock.zero(t)
        lo = min(lows)
        hi = max(b.top for b in (self, other) if b.coeffs)
        if t is not None:
            hi = min(hi, t - 1)
        out = []
        for e in range(lo, hi + 1):
            c = Fraction(0)
            for b in (self, other):
                if b.coeffs and b.low <= e <= b.top:
                    c += b.coeffs[e - b.low]
            out.append(c)
        return LaurentBlock(lo, out, t)

    def __neg__(self) -> "LaurentBlock":
        return LaurentBlock(self.low, [-c for c in self.coeffs], self.trunc)

    def __sub__(self, other: "LaurentBlock") -> "LaurentBlock":
        return self + (-other)

    def __mul__(self, other: "LaurentBlock") -> "LaurentBlock":
        if self.is_exact_zero or other.is_exact_zero:
            return LaurentBlock.zero(None)
        starts = []
        if self.trunc is not None:
            ks = other._known_start()
            starts.append(None if ks is None else self.trunc + ks)
        if other.trunc is not None:
            ks = self._known_start()
            starts.append(None if ks is None else other.trunc + ks)
        starts = [s for s in starts if s is not None]
        t = min(starts) if starts else None
        if not self.coeffs or not other.coeffs:
            return LaurentBlock.zero(t)
        lo = self.low + other.low
        hi = self.top + other.top
        if t is not None:
            hi = min(hi, t - 1)
        if hi < lo:
            return LaurentBlock.zero(t)
        na, da = _over_common(self.coeffs)
        nb, db = _over_common(other.coeffs)
        den = da * db
        out = _convolve(na, nb, hi - lo + 1)
        return LaurentBlock(lo, [Fraction(n, den) for n in out], t)

    def scale(self, c) -> "LaurentBlock":
        c = rat(c)
        return LaurentBlock(self.low, [c * a for a in self.coeffs], self.trunc)

    def __pow__(self, n: int) -> "LaurentBlock":
        if n < 0:
            raise DomainError("negative block power; use inverse() first")
        result = LaurentBlock.monomial(0, 1, None)
        for _ in range(n):
            result = result * self
        return result

    def compose_monomial(self, k: int) -> "LaurentBlock":
        """Substitute x -> x^k (k positive)."""
        if k <= 0:
            raise DomainError("monomial substitution needs a positive exponent")
        t = None if self.trunc is None else self.trunc * k
        if not self.coeffs:
            return LaurentBlock.zero(t)
        out = [Fraction(0)] * ((len(self.coeffs) - 1) * k + 1)
        for i, c in enumerate(self.coeffs):
            out[i * k] = c
        return LaurentBlock(self.low * k, out, t)

    def truncate_to(self, t: int) -> "LaurentBlock":
        new_t = t if self.trunc is None else min(t, self.trunc)
        return LaurentBlock(self.low, self.coeffs, new_t)

    def inverse(self) -> "LaurentBlock":
        """Multiplicative inverse of a truncated block, known to the
        matching order.

        With the block x^low * A / a over the common denominator a, the
        inverse is x^-low * a * sum_n B_n x^n / A_0^(n+1), where the integers
        B_0 = 1, B_n = -sum_j A_j * A_0^(j-1) * B_(n-j) need no division;
        each coefficient is reduced once at the end.
        """
        if self.trunc is None:
            raise DomainError("only a truncated block can be inverted")
        if not self.coeffs:
            raise DomainError("cannot invert a block with no known nonzero term")
        nterms = self.trunc - self.low
        nums, den = _over_common(self.coeffs)
        a0 = nums[0]
        scaled = [(j, c * a0 ** (j - 1)) for j, c in enumerate(nums) if j and c]
        b = [1]
        for n in range(1, nterms):
            s = 0
            for j, c in scaled:
                if j > n:
                    break
                s += c * b[n - j]
            b.append(-s)
        out, a0_pow = [], 1
        for bn in b:
            a0_pow *= a0
            out.append(Fraction(den * bn, a0_pow))
        return LaurentBlock(-self.low, out, -self.low + nterms)

    def compose_poly(self, p: Poly) -> "LaurentBlock":
        """Evaluate the polynomial p at this block (Horner)."""
        acc = LaurentBlock.zero(None)
        for c in reversed(p.coeffs):
            acc = acc * self + LaurentBlock(0, [c], None)
        # An empty Horner (zero polynomial) is exact zero.
        return acc


def evaluate_series_at_block(coeffs: Sequence[Fraction],
                             arg: LaurentBlock) -> LaurentBlock:
    """Sum_k coeffs[k] * arg^k for an argument of positive valuation.

    This is the one place where a series is composed with a block: Phi with
    w_f = 1/f(1/w), with 1/Psi and with 1/L(1/w).  ``arg`` must be known to
    start at exponent low >= 1, and the sum is known exactly as far as
    ``arg`` is.  Only the terms with k * low < ``arg.trunc`` reach that far,
    so a truncated argument costs fewer than ``arg.trunc`` steps, however
    long ``coeffs`` is.

    The sum runs by Horner's rule on integers: with arg = x^low * A / a and
    c_k = C_k / D over common denominators, H <- H * x^low * A + C_j * a^(n-j)
    for j = n-1 .. 0 from H = C_n, each product truncated where it can no
    longer reach below ``arg.trunc``.  Then every coefficient is H_e / (D a^n),
    reduced once.
    """
    start = arg._known_start()
    if start is None:                          # exact zero: the constant term
        return LaurentBlock(0, coeffs[:1])
    if start < 1:
        raise DomainError("series composition needs an argument of positive valuation")
    t = arg.trunc
    n = len(coeffs) - 1 if t is None else min(len(coeffs) - 1, (t - 1) // start)
    if n < 0:
        return LaurentBlock.zero(t)
    nums, d = _over_common(coeffs[:n + 1])
    A, a = _over_common(arg.coeffs)
    h, a_pow = [nums[n]], 1
    for j in range(n - 1, -1, -1):
        a_pow *= a
        # H_j is needed below t - j*low; exact arguments keep every term
        width = len(h) + start + len(A) - 1 if t is None else t - j * start
        h = [0] * start + _convolve(h, A, width - start)
        h[0] += nums[j] * a_pow
    den = d * a_pow
    return LaurentBlock(0, [Fraction(c, den) for c in h], t)
