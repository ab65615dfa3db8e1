"""Exact lattice-coset counting and root-of-unity pair decompositions.

Everything here is integer arithmetic over the coset S_a = Z*a + N*Z^2
intersected with sup-norm boxes B_c = {|x|_inf <= c}.  Under the lemmas'
hypothesis gcd(a1, a2, N) = 1 the vector a has order N in (Z/N)^2, so each
coset point is k*a + N*t for exactly one k in 0..N-1: box counts are then a
closed-form sum over k, and the primitive-vector search visits each box
point once.  Box thresholds N^c with rational c are compared exactly by
cross-powering (k <= N^c iff k^q <= N^p for c = p/q), so float rounding can
never fake or mask a bound violation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterator

from .errors import DomainError
from .exact import integer_kth_root, rat


def floor_pow(N: int, c: Fraction) -> int:
    """floor(N^c) for N >= 1 and rational c = p/q >= 0: the integer q-th
    root of N^p."""
    if N < 1:
        raise DomainError("N must be >= 1")
    c = rat(c)
    if c.numerator < 0:
        raise DomainError("c must be >= 0")
    return integer_kth_root(N ** c.numerator, c.denominator)


@dataclass(frozen=True)
class LatticeCoset:
    """S_a = Z*(a1, a2) + N*Z^2."""

    a1: int
    a2: int
    N: int

    def __post_init__(self):
        if self.N < 2:
            raise DomainError("N must be >= 2")

    @property
    def gcd_with_n(self) -> int:
        return gcd(gcd(self.a1, self.a2), self.N)

    def box_vectors(self, limit: int) -> Iterator[tuple[int, int, int]]:
        """All (x1, x2, k) with (x1, x2) = k*a + N*t in the box |x|_inf <= limit.

        The multiplier k runs over 0..N-1.  When gcd(a1, a2, N) = 1 each
        vector has exactly one such k, so every vector is yielded once and
        (0, 0) only with k = 0.
        """
        N = self.N
        for k in range(N):
            r1 = (k * self.a1) % N
            r2 = (k * self.a2) % N
            # each range starts at its least value >= -limit
            for x1 in range(r1 - N * ((r1 + limit) // N), limit + 1, N):
                for x2 in range(r2 - N * ((r2 + limit) // N), limit + 1, N):
                    yield (x1, x2, k)


def admissible_cosets(n_lo: int, n_hi: int) -> Iterator[LatticeCoset]:
    """Every S_a with n_lo <= N <= n_hi, 0 <= a1, a2 < N and
    gcd(a1, a2, N) = 1, ordered by N, then a1, then a2."""
    for N in range(n_lo, n_hi + 1):
        for a1 in range(N):
            for a2 in range(N):
                if gcd(gcd(a1, a2), N) == 1:
                    yield LatticeCoset(a1, a2, N)


def _check_hypotheses(S: LatticeCoset, c: Fraction) -> None:
    """The lemmas' hypotheses: N >= 17, gcd(a1, a2, N) = 1, 3/4 <= c <= 1."""
    if S.N < 17:
        raise DomainError("hypothesis violated: N >= 17 required")
    if S.gcd_with_n != 1:
        raise DomainError("hypothesis violated: gcd(a1, a2, N) = 1 required")
    if not (3 * c.denominator <= 4 * c.numerator <= 4 * c.denominator):
        raise DomainError("hypothesis violated: c must lie in [3/4, 1]")


@dataclass(frozen=True)
class BoxCount:
    count: int
    bound_ok: bool                    # count >= N^(2c-1)/4
    witnesses: tuple[tuple[int, int], ...]


def coset_points_in_box(S: LatticeCoset, c, max_witnesses: int = 12) -> BoxCount:
    """Exact |S_a intersect B_{N^c}| with the guaranteed lower bound check.

    Requires N >= 17 and gcd(a1, a2, N) = 1 (the hypotheses of the bound
    count >= N^(2c-1)/4 for 3/4 <= c <= 1).  Under the gcd hypothesis every
    box point is k*a + N*t for exactly one k in 0..N-1, so with
    L = floor(N^c)

        count = sum_k n(k*a1 mod N) * n(k*a2 mod N),
        n(r) = #{x = r mod N : |x| <= L} = (L - r)//N + (L + r)//N + 1,

    which takes O(N) integer steps.  Points are listed only for the
    witnesses: the ``max_witnesses`` lexicographically least box points.
    With c = p/q, L is the integer q-th root of N^p and the bound is tested
    as (4*count)^q >= N^(2p - q).
    """
    c = rat(c)
    _check_hypotheses(S, c)
    p, q = c.numerator, c.denominator
    N, a1, a2 = S.N, S.a1, S.a2
    limit = floor_pow(N, c)
    n = [(limit - r) // N + (limit + r) // N + 1 for r in range(N)]
    count = sum(n[(k * a1) % N] * n[(k * a2) % N] for k in range(N))
    witnesses = ()
    if max_witnesses > 0:
        witnesses = tuple(sorted((x1, x2) for x1, x2, _k
                                 in S.box_vectors(limit))[:max_witnesses])
    return BoxCount(count, (4 * count) ** q >= N ** (2 * p - q), witnesses)


def e_branch_holds(e: int, C: Fraction, N: int, c: Fraction, C1: Fraction) -> bool:
    """Exact test e <= C1 * C^2 * N^(1-c) by cross-powering rationals."""
    expo = 1 - Fraction(c)          # >= 0
    lhs = Fraction(e) / (Fraction(C1) * Fraction(C) ** 2)
    if lhs <= 0:
        return True
    # lhs <= N^expo  <=>  lhs^q <= N^p for expo = p/q
    return lhs ** expo.denominator <= Fraction(N) ** expo.numerator


@dataclass(frozen=True)
class PrimitiveWitness:
    k1: int
    k2: int
    e: int
    multiplier: int                   # k with e*(k1,k2) = k*a mod N
    kinf_exceeds_C: bool              # second branch of the disjunction
    c1_required: Fraction             # minimal C1 for the first branch (approx)


def find_primitive_decomposition(S: LatticeCoset, C, c) -> PrimitiveWitness:
    """A vector e*(k1, k2) in S_a with gcd(k1, k2) = 1 inside B_{N^c} such
    that either e is small (e <= C1*C^2*N^(1-c)) or |(k1,k2)|_inf > C.

    The box is searched exhaustively; among vectors with a nonzero multiplier
    the one least in the lexicographic order of (e, |k|_inf, |k1|, k1 < 0,
    |k2|, k2 < 0), then of the multiplier, is returned: at equal e, |k|_inf
    and |k1| a positive k1 comes first, then likewise for k2.  So output is
    deterministic and e-minimal.  ``c1_required`` approximates
    e / (C^2 N^(1-c)) for corpus sweeps exhibiting the absolute constant;
    exact checks should use :func:`e_branch_holds`.
    """
    C = rat(C)
    c = rat(c)
    _check_hypotheses(S, c)
    if C < 1:
        raise DomainError("C must be >= 1")
    limit = floor_pow(S.N, c)
    best = None     # ordering key; positive k1 preferred at equal (e, |k|_inf)
    for x1, x2, k in S.box_vectors(limit):
        if k == 0:          # the multiples of N, (0, 0) among them
            continue
        e = gcd(abs(x1), abs(x2))
        k1, k2 = x1 // e, x2 // e
        key = (e, max(abs(k1), abs(k2)), abs(k1), k1 < 0, abs(k2), k2 < 0, k,
               k1, k2)
        if best is None or key < best:
            best = key
    if best is None:
        raise DomainError("box contains no usable coset vector")
    e, kinf, k1, k2 = best[0], best[1], best[7], best[8]
    mult = best[6]
    c1_required = Fraction(
        float(e) / (float(C) ** 2 * float(S.N) ** float(1 - c))
    ).limit_denominator(10**6)
    return PrimitiveWitness(k1, k2, e, mult,
                            kinf_exceeds_C=Fraction(kinf) > C,
                            c1_required=c1_required)


def gcd_shift(k: int, N: int) -> int:
    """An integer L coprime to N with k = L * gcd(N, k) mod N.

    Scans L = k/f + t*N/f, f = gcd(N, k); existence is guaranteed.
    """
    if N < 2:
        raise DomainError("N must be >= 2")
    if k < 1:
        raise DomainError("k must be >= 1")
    f = gcd(N, k)
    base, step = k // f, N // f
    for t in range(N + 1):
        ell = base + t * step
        if gcd(ell, N) == 1:
            return ell % N if ell % N else ell
    raise DomainError("no coprime shift found (unreachable)")   # pragma: no cover


@dataclass(frozen=True)
class RootPairDecomposition:
    """zeta_N^(a_i) = zeta_N^(s_i * N/f) * (zeta_N^(l_star * e/f))^(k_i).

    The first factor has order dividing f (hence dividing e); the second is a
    power of the primitive root zeta_N^(l_star).  gcd(k1, k2) = 1 and
    |e*(k1, k2)|_inf <= N^c, so |k|_inf <= N^c / e.
    """

    k1: int
    k2: int
    e: int
    l_star: int                      # zeta = zeta_N^(l_star) is primitive
    s1: int                          # eps_i = zeta_N^(s_i * N/f), order | f | e
    s2: int
    f: int                           # gcd(multiplier, N); divides e
    c1_required: Fraction

    def verify(self, a1: int, a2: int, N: int) -> bool:
        M = N // self.f
        e_prime = self.e // self.f
        for a_i, k_i, s_i in ((a1, self.k1, self.s1), (a2, self.k2, self.s2)):
            if (s_i * M + self.l_star * e_prime * k_i - a_i) % N != 0:
                return False
        return True


def decompose_root_pair(a1: int, a2: int, N: int, C, c) -> RootPairDecomposition:
    """Constructive decomposition of a pair of N-th roots of unity.

    The pair (zeta_N^a1, zeta_N^a2) of exact order N >= 17 is rewritten on a
    primitive N-th root zeta = zeta_N^(l_star) as small-order factors times
    coprime powers (k1, k2); every congruence is verified exactly.  The
    disjunction on e from the primitive-vector search carries over.
    """
    if N < 17:
        raise DomainError("hypothesis violated: N >= 17 required")
    if gcd(gcd(a1, a2), N) != 1:
        raise DomainError("hypothesis violated: the pair must have exact order N")
    S = LatticeCoset(a1 % N, a2 % N, N)
    w = find_primitive_decomposition(S, C, c)
    e, k = w.e, w.multiplier
    f = gcd(N, k)
    if e % f != 0:
        raise DomainError("primitive part mismatch (unreachable)")  # pragma: no cover
    ell = gcd_shift(k, N)
    l_star = pow(ell, -1, N)
    e_prime = e // f
    M = N // f
    # a_i = l_star * e' * k_i  (mod N/f); the residue determines the eps part
    s = []
    for a_i, k_i in ((a1, w.k1), (a2, w.k2)):
        diff = (a_i - l_star * e_prime * k_i) % N
        if diff % M != 0:
            raise DomainError("decomposition failed verification")
        s.append(diff // M)
    out = RootPairDecomposition(w.k1, w.k2, e, l_star, s[0], s[1], f,
                                w.c1_required)
    if not out.verify(a1, a2, N):
        raise DomainError("reconstruction failed")   # pragma: no cover
    return out
