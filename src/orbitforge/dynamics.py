"""Monic polynomial dynamical systems over Q.

Covers monic normalization by linear conjugation, detection of power-map /
Chebyshev conjugates, certified escape of critical points, exact
preperiodicity classification of rational points, and the search for finite
places of good reduction witnessing escape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Optional, Union

from .ball import CBall
from .config import DEFAULTS, Settings
from .errors import DomainError, PrecisionError, ResourceError, UndecidedError
from .exact import Poly, _prime_factors, _v_p, integer_kth_root, rat, rat_str
from .rootcert import certified_roots

if TYPE_CHECKING:
    from .green import GreenValue

_MAX_PADIC_DIGITS = 4096   # the p-adic escape walk gives up beyond this


class PolyDS:
    """A monic polynomial map of degree >= 2 with cached iterates.

    The memos are the only mutable state: the iterates and critical points,
    the exact Psi and Phi series (written by ``boettcher`` alone), and two
    memos of balls at the working precision.  ``_green`` holds f's
    coefficient triples and the escape constants (written by ``green``
    alone), keyed by ``mpmath.mp.prec``; ``_psi_balls`` holds Psi's
    coefficient triples and the area sum A of ``boettcher.evaluate_psi``
    (written by ``boettcher`` alone), keyed by the precision, the order and
    R_lo.  A changed key replaces a memo, so neither grows.
    """

    def __init__(self, f: Poly, settings: Settings = DEFAULTS):
        if f.degree < 2:
            raise DomainError("dynamical degree must be >= 2")
        if f.lead != 1:
            raise DomainError("PolyDS requires a monic polynomial; use normalize_monic")
        self.f = f
        self.d = f.degree
        self.settings = settings
        self._iterates: dict[int, Poly] = {0: Poly.x(), 1: f}
        self._crit: Optional[list["CriticalPoint"]] = None
        self._psi = None          # highest-order Psi so far, with its g^j numerators
        self._phi = None          # highest-order Phi so far
        self._green = None        # (prec, f's triples, escape constants)
        self._psi_balls = None    # ((prec, order, R_lo), Psi's triples, R_lo^2, A)
        self.coeff_abs_sum = sum((abs(c) for c in f.coeffs[:-1]), Fraction(0))
        # any |z| > R strictly escapes: R = 1 + sum_i |a_i|, and then
        # |f(z)| >= |z|^d / R > |z|
        self.escape_radius = 1 + self.coeff_abs_sum

    def __repr__(self) -> str:
        return f"PolyDS({self.f!r})"

    def iterate(self, n: int) -> Poly:
        if n < 0:
            raise DomainError("iterate index must be >= 0")
        if n in self._iterates:
            return self._iterates[n]
        if self.d ** n > self.settings.max_poly_degree:
            raise ResourceError(
                f"iterate degree {self.d}^{n} exceeds cap "
                f"{self.settings.max_poly_degree}")
        m = max(k for k in self._iterates if k <= n)
        cur = self._iterates[m]
        for k in range(m + 1, n + 1):
            cur = cur.compose(self.f)
            self._iterates[k] = cur
        return cur

    def apply(self, x: Fraction) -> Fraction:
        return self.f(x)

    # -- standard constants ---------------------------------------------------
    def good_reduction(self, p: int) -> bool:
        """Good reduction at p: every non-leading coefficient is p-integral."""
        return all(c == 0 or _v_p(c, p) >= 0 for c in self.f.coeffs[:-1])

    def coprime_to_degree(self, p: int) -> bool:
        return self.d % p != 0

    def padic_escape_radius_exponent(self, p: int) -> Fraction:
        """log_p of the p-adic escape bound max(1, max_i |a_i|_p^{1/i}).

        For |x|_p above this bound the leading term dominates and
        |f(x)|_p = |x|_p^d exactly: with E this exponent, v_p(x) = v escapes
        exactly when -v > E, that is v_p(a_(d-i)) > i v for every i.
        """
        best = Fraction(0)
        d = self.d
        for i in range(1, d + 1):
            a = self.f.coeff(d - i)
            if a != 0:
                best = max(best, Fraction(-_v_p(a, p), i))
        return best

    def padic_escape(self, alpha: Fraction, p: int,
                     budget: int) -> Optional[tuple[int, int]]:
        """The p-adic orbit walk: first certified escape of alpha at p.

        Returns (n, v) for the least n <= budget where v = v_p(f^n(alpha)) < 0
        and the leading term dominates, so |f^(n+j)(alpha)|_p = p^(-v d^j)
        for all j; None when no step of the budget certifies escape.  The
        walk starts at ``settings.padic_digits`` digits and doubles them on
        precision loss; past 4096 digits the PrecisionError propagates.
        """
        from .padic import PadicScalar   # keeps it off the CLI's cold start

        digits = self.settings.padic_digits
        escape_exp = self.padic_escape_radius_exponent(p)
        while True:
            x = PadicScalar.from_rational(alpha, p, digits)
            coeffs = [PadicScalar.from_rational(c, p, digits)
                      for c in self.f.coeffs]
            try:
                for n in range(budget + 1):
                    if n:
                        acc = coeffs[-1]
                        for c in reversed(coeffs[:-1]):
                            acc = acc * x + c
                        x = acc
                    if not x.zero and -x.valuation > escape_exp:
                        return n, x.valuation
                return None
            except PrecisionError:
                digits *= 2
                if digits > _MAX_PADIC_DIGITS:
                    raise

    def bad_reduction_primes(self) -> list[int]:
        primes: set[int] = set()
        for c in self.f.coeffs[:-1]:
            if c != 0:
                primes.update(_prime_factors(c.denominator))
        return sorted(primes)

    # -- critical points -------------------------------------------------------
    def critical_points(self) -> list["CriticalPoint"]:
        if self._crit is None:
            self._crit = _critical_points(self.f)
        return list(self._crit)


@dataclass(frozen=True)
class CriticalPoint:
    ball: CBall
    exact: Optional[Fraction]   # set when the point is rational


def _critical_points(f: Poly) -> list[CriticalPoint]:
    from .factor import factor_rational     # loaded only when f' is factored
    df = f.derivative()
    out: list[CriticalPoint] = []
    for factor, _mult in factor_rational(df):
        if factor.degree == 1:
            root = -factor.coeff(0)
            out.append(CriticalPoint(CBall.from_rational(root), root))
        else:
            for ball in certified_roots(factor):
                out.append(CriticalPoint(ball, None))
    out.sort(key=lambda cp: (cp.ball.re_mid, cp.ball.im_mid))
    return out


# ---------------------------------------------------------------------------
# monic normalization
# ---------------------------------------------------------------------------

def _rational_kth_root(q: Fraction, k: int) -> Optional[Fraction]:
    """Exact real k-th root of q over Q, or None.  k >= 1."""
    if k == 1:
        return q
    if q < 0 and k % 2 == 0:
        return None
    sign = -1 if q < 0 else 1
    num, den = abs(q.numerator), q.denominator
    rn, rd = integer_kth_root(num, k), integer_kth_root(den, k)
    if rn ** k != num or rd ** k != den:
        return None
    return Fraction(sign * rn, rd)


def normalize_monic(g: Poly, settings: Settings = DEFAULTS) -> tuple[PolyDS, Optional[Fraction]]:
    """Monic model of g by the conjugation L(x) = c*x with c^(d-1) = lead(g),
    with the scale c, or None when no rational c exists.

    The model L o g o L^{-1} has coefficient a_(d-i) * c^i / lead(g) at
    X^(d-i).  With G = gcd(d - 1, every i with a_(d-i) != 0), each c^i it
    needs is a power of r = c^G, and r^((d-1)/G) = lead(g); so a model over
    Q exists exactly when lead(g) has a rational ((d-1)/G)-th root r, taken
    real, and positive for an even order.  Then r = c^G for the rational c
    (the positive one for odd d) whenever there is one.
    """
    if g.degree < 2:
        raise DomainError("normalization requires degree >= 2")
    d, lead = g.degree, g.lead
    step = math.gcd(d - 1, *(d - j for j, a in enumerate(g.coeffs) if a))
    order = (d - 1) // step
    r = _rational_kth_root(lead, order)
    if r is None:
        raise DomainError("no monic conjugate with rational coefficients exists: "
                          f"{rat_str(lead)} has no rational root of order {order}")
    coeffs = [a * r ** ((d - j) // step) / lead for j, a in enumerate(g.coeffs)]
    return PolyDS(Poly(coeffs), settings), _rational_kth_root(lead, d - 1)


# ---------------------------------------------------------------------------
# exceptional polynomials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExceptionalVerdict:
    kind: Optional[str]          # "power" | "chebyshev" | "neg-chebyshev" | None
    over_extension: bool = False  # conjugacy witness needs an irrational scaling


def chebyshev_monic(d: int) -> Poly:
    """Monic Chebyshev-normalized family: T2 = X^2 - 2, T_{n+1} = X*T_n - T_{n-1}."""
    if d < 0:
        raise DomainError("degree must be >= 0")
    prev, cur = Poly([2]), Poly.x()
    if d == 0:
        return prev
    for _ in range(d - 1):
        prev, cur = cur, Poly.x() * cur - prev
    return cur


def _alternating_flip(p: Poly) -> Poly:
    """Coefficient of X^e scaled by (-1)^((d-e)/2), for a p whose offsets
    d - e are all even, as T_d's are; conjugation by a 4th root of 1."""
    d = p.degree
    return Poly([-c if (d - e) % 4 else c for e, c in enumerate(p.coeffs)])


def depress(f: Poly) -> Poly:
    """Translate conjugation killing the X^(d-1) term: f(x - s) + s with
    s = a_{d-1}/d."""
    s = f.coeff(f.degree - 1) / f.degree
    return f.compose(Poly([-s, 1])) + Poly([s])


def detect_exceptional(ds: PolyDS) -> ExceptionalVerdict:
    """Classify conjugates of power maps and Chebyshev maps.

    The depressed representative is compared with X^d and the monic Chebyshev
    normal forms under the rational residual conjugations x -> +/-x.  A match
    with the alternating-flip form is a Chebyshev conjugate over Q(i): it is
    reported with ``over_extension`` when the rational witness does not exist.
    """
    f = depress(ds.f)
    d = ds.d
    if f == Poly.monomial(d):
        return ExceptionalVerdict("power")
    cheb = chebyshev_monic(d)
    if f == cheb:
        return ExceptionalVerdict("chebyshev")
    if d % 2 == 1 and f == _alternating_flip(cheb):
        # flip = conjugate of -T_d for d = 3 mod 4 (rational witness exists),
        # of +T_d for d = 1 mod 4 (witness needs a 4th root of unity).
        if d % 4 == 3:
            return ExceptionalVerdict("neg-chebyshev")
        return ExceptionalVerdict("chebyshev", over_extension=True)
    return ExceptionalVerdict(None)


# ---------------------------------------------------------------------------
# critical escape
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CriticalEscapeReport:
    escaping: list[tuple[CriticalPoint, GreenValue]]
    bounded: list[CriticalPoint]
    undecided: list[tuple[CriticalPoint, GreenValue]]


def escaping_critical_points(ds: PolyDS) -> CriticalEscapeReport:
    """Certify which critical points escape to infinity, within
    ``settings.max_iterations`` steps, with the Green value of each one
    that is not proven bounded.

    A rational critical point is decided exactly when its orbit is
    preperiodic (bounded) or crosses the escape radius (escaping).  Every
    other critical point takes one ``green_eval`` to 1/10^10: its ``escaped``
    certifies escape, and anything else is reported undecided, never
    silently dropped.  An orbit that escapes so slowly that the one-sided
    bound reaches 2/10^10 first is undecided too, though ``escape_step``,
    the same walk without that stop, may find its step.  The Green values of
    the escaping and undecided points are kept for ``radius_archimedean``.
    """
    from .green import green_eval   # loaded only when a Green value is needed

    max_iter = ds.settings.max_iterations
    if max_iter < 1:
        raise DomainError("max_iter must be >= 1")
    tol = Fraction(1, 10**10)
    escaping, bounded, undecided = [], [], []
    for cp in ds.critical_points():
        escapes = False
        if cp.exact is not None:
            verdict = classify_orbit(ds, cp.exact, budget=max_iter)
            if isinstance(verdict, Preperiodic):
                bounded.append(cp)
                continue
            escapes = verdict.place.place is None
        g = green_eval(ds, cp.ball, tol)
        (escaping if escapes or g.escaped else undecided).append((cp, g))
    return CriticalEscapeReport(escaping, bounded, undecided)


# ---------------------------------------------------------------------------
# preperiodicity over Q
# ---------------------------------------------------------------------------

_BIT_CAP = 1 << 16   # exact orbit values beyond this size stop exact loops


@dataclass(frozen=True)
class PlaceReport:
    place: Optional[int]            # prime p, or None for the archimedean place
    good_reduction: Optional[bool]
    coprime_to_d: Optional[bool]
    escape_iterate: Optional[int]

    def to_json(self) -> dict:
        return {
            "place": "infinity" if self.place is None else self.place,
            "good_reduction": self.good_reduction,
            "coprime_to_d": self.coprime_to_d,
            "escape_iterate": self.escape_iterate,
        }


@dataclass(frozen=True)
class Preperiodic:
    preperiod: int
    period: int


@dataclass(frozen=True)
class Wandering:
    place: PlaceReport


def _candidate_primes(ds: PolyDS, alpha: Fraction) -> list[int]:
    primes = set(_prime_factors(alpha.denominator))
    primes.update(ds.bad_reduction_primes())
    return sorted(primes)


def classify_orbit(ds: PolyDS, alpha: Fraction,
                   budget: Optional[int] = None) -> Union[Preperiodic, Wandering]:
    """Exact dichotomy for rational alpha: preperiodic or certified wandering.

    Escape certificates: at a finite prime, a dominated negative valuation
    forces |f^n(alpha)|_p = |alpha'|_p^(d^n) -> infinity; at the archimedean
    place, crossing the escape radius does.  The finite place is preferred
    when both fire at the same step.
    """
    alpha = rat(alpha)
    budget = ds.settings.preperiodic_budget if budget is None else budget
    primes = _candidate_primes(ds, alpha)
    escape_exp = {p: ds.padic_escape_radius_exponent(p) for p in primes}
    radius = ds.escape_radius
    seen = {alpha: 0}
    x = alpha
    for n in range(0, budget + 1):
        if x != 0:
            for p in primes:
                if -_v_p(x, p) > escape_exp[p]:
                    report = PlaceReport(p, ds.good_reduction(p),
                                         ds.coprime_to_degree(p), n)
                    return Wandering(report)
        if abs(x) > radius:
            return Wandering(PlaceReport(None, None, None, n))
        nxt = ds.apply(x)
        if nxt in seen:
            k = seen[nxt]
            return Preperiodic(preperiod=k, period=n + 1 - k)
        seen[nxt] = n + 1
        x = nxt
        if max(abs(x.numerator), x.denominator).bit_length() > _BIT_CAP:
            raise UndecidedError("orbit heights exploded before a verdict")
    raise UndecidedError(f"no verdict within the iteration budget {budget}")


@dataclass(frozen=True)
class GoodPlaceSearch:
    qualifying: Optional[PlaceReport]       # finite place with all 3 conditions
    archimedean: Optional[PlaceReport]      # archimedean escape certificate
    rejected: list[PlaceReport]             # escaping finite places failing a condition

    def to_json(self) -> dict:
        return {
            "qualifying": self.qualifying.to_json() if self.qualifying else None,
            "archimedean": self.archimedean.to_json() if self.archimedean else None,
            "rejected": [r.to_json() for r in self.rejected],
        }


def find_place_of_good_reduction_escape(ds: PolyDS, alpha: Fraction) -> GoodPlaceSearch:
    """Scan finite places for escape + good reduction + coprimality to d.

    Wandering input required.  Returns the smallest qualifying prime if one
    certifies escape within the budget; escaping-but-rejected places and the
    archimedean step are reported alongside: 0 when the exact |alpha| > R
    holds, else the step of ``green.escape_step`` (when it fires), whose
    bound R (1 + 2^-50) would put a rational just past R one step late.  A
    prime whose p-adic walk still loses precision at 4096 digits raises
    PrecisionError rather than being reported as non-escaping.
    """
    from .green import escape_step  # loaded only when a walk is needed

    alpha = rat(alpha)
    if isinstance(classify_orbit(ds, alpha), Preperiodic):
        raise DomainError("point is preperiodic; no escape place exists")
    budget = ds.settings.preperiodic_budget
    qualifying = None
    rejected = []
    for p in _candidate_primes(ds, alpha):
        hit = ds.padic_escape(alpha, p, budget)
        if hit is None:
            continue
        report = PlaceReport(p, ds.good_reduction(p), ds.coprime_to_degree(p), hit[0])
        if report.good_reduction and report.coprime_to_d and qualifying is None:
            qualifying = report
        elif not (report.good_reduction and report.coprime_to_d):
            rejected.append(report)
    n = 0 if abs(alpha) > ds.escape_radius else escape_step(ds, alpha)
    arch = None if n is None else PlaceReport(None, None, None, n)
    return GoodPlaceSearch(qualifying, arch, rejected)
