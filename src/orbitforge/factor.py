"""Exact factorization over Q.

Univariate factoring is Zassenhaus's algorithm on dense integer lists
(H. Zassenhaus, "On Hensel factorization I", J. Number Theory 1, 1969;
J. von zur Gathen and J. Gerhard, *Modern Computer Algebra*, ch. 15): a
square-free split over Q, then, for each square-free part, a factorization
modulo a small prime, Hensel lifting past a coefficient bound, and
recombination of the lifted factors, every candidate checked by exact
division in Z[x].  Irreducibility of a bivariate polynomial
(``bivariate_irreducible``, read through ``PlaneCurve.irreducible_q``)
reduces to the univariate factorization by Kronecker substitution.

Modular polynomials are lists of ints, lowest degree first like ``Poly``,
reduced into [0, p) and monic unless said otherwise.
"""

from __future__ import annotations

import math
from itertools import combinations, islice, product

from .exact import BiPoly, Poly, _is_prime, _over_common

# primes tried: by the square-free test, and whose modular factor counts
# are compared to pick the prime to lift from
_PRIMES_TRIED = 3


def factor_rational(p: Poly) -> list[tuple[Poly, int]]:
    """Irreducible monic factors of p over Q with multiplicities, sorted by
    (degree, coeffs)."""
    if p.degree < 1:
        return []
    out = []
    for part, mult in _square_free(p):
        for g in _factor_square_free(part):
            q = Poly(g)
            out.append((q.scale(1 / q.lead), mult))
    out.sort(key=lambda t: (t[0].degree, t[0].coeffs))
    return out


def _square_free(p: Poly) -> list[tuple[list[int], int]]:
    """Primitive integer a_i, square-free and pairwise coprime, with p a
    rational multiple of prod a_i^i, as (a_i, i) for deg a_i > 0.

    p is square-free when it is so modulo a prime that does not divide its
    leading coefficient, which the first few such primes usually show;
    otherwise Yun's algorithm splits it over Q."""
    f = _primitive(p)
    if any(_square_free_mod(f, prime)
           for prime in islice(_odd_primes_not_dividing(f[-1]), _PRIMES_TRIED)):
        return [(f, 1)]
    dp = p.derivative()
    a = p.gcd(dp)
    b, c = p.divmod(a)[0], dp.divmod(a)[0]
    d = c - b.derivative()
    out, i = [], 1
    while b.degree > 0:
        a = b.gcd(d)
        b, c = b.divmod(a)[0], d.divmod(a)[0]
        d = c - b.derivative()
        if a.degree > 0:
            out.append((_primitive(a), i))
        i += 1
    return out


def _primitive(p: Poly) -> list[int]:
    """p times a rational: integer coefficients with gcd 1."""
    ints, _ = _over_common(p.coeffs)
    g = math.gcd(*ints)
    return [c // g for c in ints]


def _square_free_mod(f: list[int], prime: int) -> bool:
    """f mod prime is square-free, for a prime not dividing lead(f)."""
    fp = _monic([c % prime for c in f], prime)
    return len(_gcd(fp, _derivative(fp, prime), prime)) == 1


# ---------------------------------------------------------------------------
# Zassenhaus over Z
# ---------------------------------------------------------------------------

def _factor_square_free(f: list[int]) -> list[list[int]]:
    """Irreducible factors in Z[x] of a primitive, square-free f of degree
    >= 1, each primitive."""
    n = len(f) - 1
    b = f[-1]
    best = None
    good = (prime for prime in _odd_primes_not_dividing(b)
            if _square_free_mod(f, prime))
    for prime in islice(good, _PRIMES_TRIED):
        fp = _monic([c % prime for c in f], prime)
        basis = _berlekamp_basis(fp, prime)
        if len(basis) == 1:
            return [f]
        if best is None or len(basis) < len(best[2]):
            best = (prime, fp, basis)
    prime, fp, basis = best
    modular = _berlekamp_split(fp, basis, prime)
    # Landau-Mignotte: a factor of f has |coefficients| <= 2^n * |f|_2, so a
    # candidate scaled to lead b has them <= |b| times that bound
    bound = 2 ** n * (math.isqrt(sum(c * c for c in f)) + 1)
    k = 1
    while prime ** k <= 2 * abs(b) * bound:
        k += 1
    return _recombine(f, _hensel_lift(f, modular, prime, k), prime ** k)


def _recombine(f: list[int], lifted: list[list[int]],
               modulus: int) -> list[list[int]]:
    """Split f by products of subsets of its lifted factors, by increasing
    subset size.  A candidate is lead(f) times the product, in symmetric
    residues mod modulus and made primitive; it is accepted only when it
    divides f in Z[x]."""
    out = []
    left = list(range(len(lifted)))
    size = 1
    while 2 * size <= len(left):
        for subset in combinations(left, size):
            cand = [f[-1]]
            for i in subset:
                cand = [c % modulus for c in _mul_int(cand, lifted[i])]
            cand = [c - modulus if 2 * c > modulus else c for c in cand]
            content = math.gcd(*cand)
            cand = [c // content for c in cand]
            quot = _exact_quotient(f, cand)
            if quot is None:
                continue
            out.append(cand)
            f = quot
            left = [i for i in left if i not in subset]
            break
        else:
            size += 1
    out.append(f)
    return out


def _mul_int(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _exact_quotient(f: list[int], g: list[int]) -> list[int] | None:
    """f / g in Z[x] when g divides f there, else None."""
    rem = list(f)
    dq = len(f) - len(g)
    if dq < 0:
        return None
    quot = [0] * (dq + 1)
    lead = g[-1]
    for k in range(dq, -1, -1):
        q, r = divmod(rem[k + len(g) - 1], lead)
        if r:
            return None
        quot[k] = q
        if q:
            for j, c in enumerate(g):
                rem[k + j] -= q * c
    if any(rem[:len(g) - 1]):
        return None
    return quot


def _hensel_lift(f: list[int], factors: list[list[int]], prime: int,
                 k: int) -> list[list[int]]:
    """Monic F_i with f = lead(f) * prod F_i mod prime^k, F_i = factors[i]
    mod prime, for pairwise coprime monic factors with that product mod
    prime.  Quadratic lifting along a balanced split (von zur Gathen and
    Gerhard, Algorithms 15.10 and 15.17)."""
    modulus = prime ** k
    if len(factors) == 1:
        inv = pow(f[-1], -1, modulus)
        return [[c * inv % modulus for c in f]]
    half = len(factors) // 2
    g = [f[-1] % prime]
    for h in factors[:half]:
        g = _mul(g, h, prime)
    h = [1]
    for q in factors[half:]:
        h = _mul(h, q, prime)
    s, t = _bezout(g, h, prime)
    m = prime
    while m < modulus:
        g, h, s, t = _hensel_step(f, g, h, s, t, m)
        m *= m
    return (_hensel_lift(g, factors[:half], prime, k)
            + _hensel_lift(h, factors[half:], prime, k))


def _hensel_step(f, g, h, s, t, m):
    """From f = g*h and s*g + t*h = 1 mod m, with h monic, the same
    relations mod m^2 (von zur Gathen and Gerhard, Algorithm 15.10)."""
    mm = m * m
    e = _sub(f, _mul(g, h, mm), mm)
    q, r = _divmod(_mul(s, e, mm), h, mm)
    g = _add(g, _add(_mul(t, e, mm), _mul(q, g, mm), mm), mm)
    h = _add(h, r, mm)
    b = _sub(_add(_mul(s, g, mm), _mul(t, h, mm), mm), [1], mm)
    c, d = _divmod(_mul(s, b, mm), h, mm)
    s = _sub(s, d, mm)
    t = _sub(t, _add(_mul(t, b, mm), _mul(c, g, mm), mm), mm)
    return g, h, s, t


# ---------------------------------------------------------------------------
# factoring modulo a prime (Berlekamp)
# ---------------------------------------------------------------------------

def _berlekamp_basis(f: list[int], p: int) -> list[list[int]]:
    """A basis of the Berlekamp algebra {v : v^p = v mod (f, p)} of a monic
    square-free f, its first vector the constant 1.  Its size is the number
    of irreducible factors of f mod p (Knuth, TAOCP vol. 2, 4.6.2)."""
    n = len(f) - 1
    # row i of Q - I is x^(i p) - x^i mod f; v is in the algebra when
    # sum v_i * row_i = 0, so the rows are the columns of the system
    cols = []
    power = [1] + [0] * (n - 1)
    for i in range(n):
        col = list(power)
        col[i] -= 1
        cols.append(col)
        for _ in range(p):
            top = power[-1]
            power = [0] + power[:-1]
            if top:
                power = [(c - top * g) % p for c, g in zip(power, f)]
    rows = [[col[j] % p for col in cols] for j in range(n)]
    pivots = []
    for col in range(n):
        r = len(pivots)
        piv = next((i for i in range(r, n) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][col], -1, p)
        rows[r] = [c * inv % p for c in rows[r]]
        for i in range(n):
            c = rows[i][col]
            if c and i != r:
                rows[i] = [(x - c * y) % p for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
    basis = []
    for free in range(n):
        if free in pivots:
            continue
        v = [0] * n
        v[free] = 1
        for r, col in enumerate(pivots):
            v[col] = -rows[r][free] % p
        basis.append(_trim(v))
    return basis


def _berlekamp_split(f: list[int], basis: list[list[int]],
                     p: int) -> list[list[int]]:
    """The monic irreducible factors of a monic square-free f mod p: each
    factor u splits into the gcd(u, v - s), s in F_p, for each basis vector
    v, and the basis separates every two irreducible factors."""
    factors = [f]
    for v in basis[1:]:
        if len(factors) == len(basis):
            break
        split = []
        for u in factors:
            for s in range(p):
                h = _gcd(u, _sub(v, [s], p), p)
                if 1 < len(h) < len(u):
                    split.append(h)
                    u = _divmod(u, h, p)[0]
            split.append(u)
        factors = split
    return factors


def _odd_primes_not_dividing(b: int):
    """3, 5, 7, 11, ..., skipping the divisors of b."""
    n = 3
    while True:
        if b % n and _is_prime(n):
            yield n
        n += 2


# -- arithmetic on coefficient lists mod m -------------------------------------

def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _add(a, b, m):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _trim([c % m for c in out])


def _sub(a, b, m):
    return _add(a, [-c for c in b], m)


def _mul(a, b, m):
    if not a or not b:
        return []
    return _trim([c % m for c in _mul_int(a, b)])


def _divmod(a, b, m):
    """Quotient and remainder of a by b mod m; b's leading coefficient must
    be a unit mod m."""
    rem = list(a)
    dq = len(a) - len(b)
    if dq < 0:
        return [], _trim(rem)
    inv = pow(b[-1], -1, m)
    quot = [0] * (dq + 1)
    for k in range(dq, -1, -1):
        q = rem[k + len(b) - 1] * inv % m
        quot[k] = q
        if q:
            for j, c in enumerate(b):
                rem[k + j] = (rem[k + j] - q * c) % m
    return _trim(quot), _trim(rem[:len(b) - 1])


def _monic(a, p):
    _trim(a)
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _derivative(a, p):
    return _trim([i * c % p for i, c in enumerate(a)][1:])


def _gcd(a, b, p):
    """Monic gcd mod a prime p; a must be nonzero."""
    while b:
        a, b = b, _divmod(a, b, p)[1]
    return _monic(a, p)


def _bezout(g, h, p):
    """s, t with s*g + t*h = 1 mod a prime p, deg s < deg h and
    deg t < deg g, for coprime g and h."""
    r0, r1 = g, h
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = _divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _sub(s0, _mul(q, s1, p), p)
        t0, t1 = t1, _sub(t0, _mul(q, t1, p), p)
    inv = pow(r0[0], -1, p)        # r0 is a nonzero constant
    return [c * inv % p for c in s0], [c * inv % p for c in t0]


def bivariate_irreducible(b: BiPoly) -> bool:
    """Irreducibility over Q (not over Qbar) for a nonconstant BiPoly, by
    Kronecker substitution (von zur Gathen and Gerhard, section 8.4).

    With D = deg_X P + 1, the ring homomorphism K: Y -> X^D sends P to
    U(X) = P(X, X^D), whose coefficients are P's at the exponents i + D j.
    K is injective on polynomials of X-degree < D, and K^-1 splits an
    exponent k into (k mod D, k div D).  A factorization P = g h maps to
    the sub-multiset S of U's irreducible factors whose product h_S is K(g)
    up to a constant, and S or its complement has degree <= deg U / 2.
    Conversely, when g = K^-1(h_S) and q = K^-1(U / h_S) have
    deg_X g + deg_X q <= deg_X P, then K(g q) = U = K(P) with both sides of
    X-degree < D, so g q = P.  Sub-multisets are tried by increasing size;
    each X-degree is read off the exponents of a product of factors."""
    if b.total_degree < 1:
        return False
    dx = b.deg_x
    D = dx + 1
    u = [0] * (dx + D * b.deg_y + 1)
    for (i, j), c in b.terms:
        u[i + D * j] = c
    U = Poly(u)
    factors = factor_rational(U)

    def x_degree(exponents) -> int:
        h = Poly.one()
        for (f, _), e in zip(factors, exponents):
            h = h * f ** e
        return max(k % D for k, c in enumerate(h.coeffs) if c)

    for chosen in sorted(product(*(range(m + 1) for _, m in factors)), key=sum):
        degree = sum(e * f.degree for (f, _), e in zip(factors, chosen))
        rest = [m - e for (_, m), e in zip(factors, chosen)]
        if (0 < 2 * degree <= U.degree
                and x_degree(chosen) + x_degree(rest) <= dx):
            return False
    return True
