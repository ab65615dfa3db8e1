"""Exact layer: polynomials, resultants, Laurent blocks."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitforge import exact
from orbitforge.dynamics import PolyDS
from orbitforge.errors import DomainError, ResourceError
from orbitforge.exact import (BiPoly, LaurentBlock, Poly, _is_prime, _prime_factors,
                              evaluate_series_at_block, poly_resultant, rat, rat_str)

X2_MINUS_1 = Poly([-1, 0, 1])


def _iterate(f: Poly, n: int) -> Poly:
    """The n-th compositional iterate of f by n compositions; X for n = 0."""
    out = Poly.x()
    for _ in range(n):
        out = out.compose(f)
    return out


def test_rational_canonicalization():
    assert rat("2/4") == rat("1/2")
    assert (rat("2/4").numerator, rat("2/4").denominator) == (1, 2)
    assert rat("-6/4") == F(-3, 2)
    assert rat_str(F(5)) == "5"
    assert rat_str(F(-3, 7)) == "-3/7"
    # unicode minus from shell examples
    assert rat("−1/3") == F(-1, 3)


def test_rat_str_past_the_int_digit_limit():
    # Python refuses str() of ints above 4300 digits
    assert rat_str(rat("1e5000")) == "1" + "0" * 5000
    assert rat_str(F(1 - 10**5000, 7)) == "-" + "9" * 5000 + "/7"
    n = 0
    for _ in range(700):
        n = n * 10**9 + 123456789
    assert rat_str(F(n)) == "123456789" * 700
    assert rat_str(F(1, 10**5000)) == "1/1" + "0" * 5000


def test_rat_parses_integers_past_the_int_digit_limit():
    # Python refuses int() of strings above 4300 digits; Fraction inherits it
    nines = "9" * 5000
    assert rat(nines) == 10**5000 - 1
    assert rat("-" + nines) == 1 - 10**5000
    assert rat("+" + nines + "/" + "3" * 4400) == F(10**5000 - 1, (10**4400 - 1) // 3)
    assert rat(nines + "/" + "9" * 4999) == F(10**5000 - 1, 10**4999 - 1)
    assert rat_str(rat("123456789" * 700)) == "123456789" * 700
    for bad in (nines + "/0", nines + "x", nines + "/-1", "1/" + "0" * 5000):
        with pytest.raises(DomainError):
            rat(bad)


def test_rat_parses_decimals_past_the_int_digit_limit():
    assert rat("0." + "9" * 5000) == 1 - F(1, 10**5000)
    assert rat("9" * 5000 + "e2") == (10**5000 - 1) * 100
    assert rat("1" + "0" * 4400 + ".5") == 10**4400 + F(1, 2)
    assert rat("-." + "5" * 5000 + "E-3") == -F(5 * (10**5000 - 1), 9 * 10**5003)
    for bad in ("9" * 5000 + "e", "9" * 5000 + ".5/3", "9" * 5000 + "e1" + "0" * 20):
        with pytest.raises(DomainError):
            rat(bad)


def test_poly_hash_is_kept_and_immutability_holds():
    big = F(3**200 + 1, 2**150)
    p, q = Poly([big, -1, F(1, 7), 1]), Poly([big, -1, F(1, 7), 1, 0])
    assert p == q and p is not q
    assert hash(p) == hash(q) == hash(p) == hash(p.coeffs)
    assert {p: 1}[q] == 1
    assert hash(Poly([])) == hash(Poly.zero())
    with pytest.raises(AttributeError, match="immutable"):
        p.coeffs = ()
    with pytest.raises(AttributeError, match="immutable"):
        p._hash = 0
    assert hash(p) == hash(p.coeffs)


def test_compose_examples():
    sq = Poly([0, 0, 1])
    assert sq.compose(X2_MINUS_1) == Poly([1, 0, -2, 0, 1])   # (X^2-1)^2
    q = Poly([3, 1, 4])
    assert Poly.x().compose(q) == q
    assert X2_MINUS_1.compose(X2_MINUS_1) == Poly([0, 0, -2, 0, 1])


def test_iterate_examples():
    assert PolyDS(X2_MINUS_1).iterate(0) == Poly.x()
    assert PolyDS(Poly([0, 0, 1])).iterate(3) == Poly.monomial(8)
    assert PolyDS(X2_MINUS_1).iterate(2) == Poly([0, 0, -2, 0, 1])
    assert PolyDS(X2_MINUS_1).iterate(3) == _iterate(X2_MINUS_1, 3)


def test_iterate_degree_guard():
    # 2^20 exceeds the default max_poly_degree 2^16
    with pytest.raises(ResourceError):
        PolyDS(Poly([0, 0, 1])).iterate(20)


small_coeff = st.integers(min_value=-3, max_value=3)


@given(st.lists(small_coeff, min_size=1, max_size=2),
       st.integers(min_value=0, max_value=2),
       st.integers(min_value=0, max_value=2))
@settings(max_examples=40, deadline=None)
def test_iterate_homomorphism(lower, m, n):
    f = Poly(lower + [1])     # monic, degree = len(lower)
    if f.degree < 1:
        return
    lhs = _iterate(f, m + n)
    rhs = _iterate(f, m).compose(_iterate(f, n))
    assert lhs == rhs
    if f.degree >= 2:
        assert PolyDS(f).iterate(m + n) == lhs


def test_resultant_examples():
    # Res_Y(Y - X, X - 1) = X - 1 and Res_Y(Y^2 - 2, X - Y) = X^2 - 2
    assert poly_resultant(Poly([0, 1]), BiPoly({(1, 0): 1, (0, 0): -1})) == Poly([-1, 1])
    assert poly_resultant(Poly([-2, 0, 1]),
                          BiPoly({(1, 0): 1, (0, 1): -1})) == Poly([-2, 0, 1])
    # X^2 - Y against Y^2 + 1: (X^2 - i)(X^2 + i) = X^4 + 1
    assert poly_resultant(Poly([1, 0, 1]),
                          BiPoly({(2, 0): 1, (0, 1): -1})) == Poly([1, 0, 0, 0, 1])


def test_resultant_degree_guard():
    curve = BiPoly({(0, 1): 1})
    for f in (Poly(), Poly([3]), Poly([1, 2])):    # zero, constant, non-monic
        with pytest.raises(DomainError):
            poly_resultant(f, curve)


@given(st.lists(small_coeff, min_size=1, max_size=5), small_coeff)
@settings(max_examples=50, deadline=None)
def test_resultant_evaluation_property(coeffs, a):
    # Res_Y(Y - a, P) = P(X, a)
    P = BiPoly({(k % 3, k // 3): c for k, c in enumerate(coeffs)})
    assert poly_resultant(Poly([-a, 1]), P) == P.subs_values(y=F(a))


def test_block_monomial_substitution():
    inv = LaurentBlock.monomial(-1, 1)
    assert inv.compose_monomial(2) == LaurentBlock.monomial(-2, 1)
    for k in (0, -1):
        with pytest.raises(DomainError):
            inv.compose_monomial(k)


def test_block_product_example():
    a = LaurentBlock(-1, [1, 0, 1])          # 1/x + x
    b = LaurentBlock(-1, [1, 0, -1])         # 1/x - x
    prod = a * b
    assert prod == LaurentBlock(-2, [1, 0, 0, 0, -1])     # 1/x^2 - x^2


def _reference_product(a: LaurentBlock, b: LaurentBlock) -> LaurentBlock:
    """Term-by-term Fraction convolution with the pessimistic truncation rule:
    a block truncated at t knows its product with b below t + (b's lowest
    known exponent)."""
    if a.is_exact_zero or b.is_exact_zero:
        return LaurentBlock.zero(None)
    starts = []
    for x, y in ((a, b), (b, a)):
        y_start = y.low if y.coeffs else y.trunc
        if x.trunc is not None and y_start is not None:
            starts.append(x.trunc + y_start)
    t = min(starts, default=None)
    terms: dict[int, F] = {}
    for i, ca in enumerate(a.coeffs):
        for j, cb in enumerate(b.coeffs):
            e = a.low + i + b.low + j
            if t is None or e < t:
                terms[e] = terms.get(e, F(0)) + ca * cb
    if not terms:
        return LaurentBlock.zero(t)
    lo = min(terms)
    return LaurentBlock(lo, [terms.get(e, F(0)) for e in range(lo, max(terms) + 1)], t)


def _random_block(rng, trunc: bool) -> LaurentBlock:
    low = rng.randint(-6, 4)
    dens = (1, 2, 3, 36, 10**12 + 39, 7**25, 2**70)
    coeffs = [F(rng.randint(-10**6, 10**6), rng.choice(dens))
              if rng.random() < 0.7 else F(0)          # interior zeros
              for _ in range(rng.randint(0, 9))]
    t = low + len(coeffs) + rng.randint(-len(coeffs), 2) if trunc else None
    return LaurentBlock(low, coeffs, t)


def _block_key(b: LaurentBlock):
    return (b.low, b.coeffs, b.trunc)


def test_block_product_equals_fraction_convolution():
    rng = random.Random(641)
    for _ in range(600):
        a = _random_block(rng, rng.random() < 0.6)
        b = _random_block(rng, rng.random() < 0.6)
        assert _block_key(a * b) == _block_key(_reference_product(a, b)), (a, b)


@pytest.mark.parametrize("a, b", [
    # truncated x full and truncated x truncated, negative low, mixed denominators
    (LaurentBlock(-3, [F(1, 7**25), 0, 0, F(-5, 6), F(2**70, 3)], trunc=4),
     LaurentBlock(-2, [F(3, 10**12 + 39), 0, 1])),
    (LaurentBlock(-1, [1, F(1, 2), 0, F(1, 8)], trunc=4),
     LaurentBlock(-1, [F(-9, 4), 0, F(7, 3)], trunc=3)),
    # empty truncated blocks: known zero below trunc
    (LaurentBlock.zero(5), LaurentBlock(-2, [F(1, 3), 2])),
    (LaurentBlock.zero(5), LaurentBlock.zero(-1)),
    (LaurentBlock.zero(2), LaurentBlock(-4, [1, 0, F(5, 11)], trunc=0)),
    # a stored coefficient always lies below trunc, so hi < lo cannot arise;
    # here the window closes right after the lowest product exponent
    (LaurentBlock(2, [F(3, 5)], trunc=3), LaurentBlock(-1, [F(7, 2), 1], trunc=1)),
    (LaurentBlock(0, [1, 1, 1], trunc=3), LaurentBlock.monomial(4, F(1, 9))),
    # products that cancel to zero inside the window
    (LaurentBlock(0, [1, 1]), LaurentBlock(0, [1, -1], trunc=2)),
])
def test_block_product_edge_cases(a, b):
    assert _block_key(a * b) == _block_key(_reference_product(a, b))
    assert _block_key(b * a) == _block_key(_reference_product(b, a))


def _reference_series_sum(coeffs, arg: LaurentBlock) -> LaurentBlock:
    """Full power sum: every c_k * arg^k with arg^k from the reference
    convolution, no early stop, known wherever every term and arg are."""
    terms: dict[int, F] = {}
    truncs = [] if arg.trunc is None else [arg.trunc]
    power = LaurentBlock.monomial(0, 1)
    for k, c in enumerate(coeffs):
        if k:
            power = _reference_product(power, arg)
        if c == 0:
            continue
        if power.trunc is not None:
            truncs.append(power.trunc)
        for i, cp in enumerate(power.coeffs):
            terms[power.low + i] = terms.get(power.low + i, F(0)) + c * cp
    t = min(truncs, default=None)
    terms = {e: v for e, v in terms.items() if t is None or e < t}
    if not terms:
        return LaurentBlock.zero(t)
    lo = min(terms)
    return LaurentBlock(lo, [terms.get(e, F(0)) for e in range(lo, max(terms) + 1)], t)


def _random_argument(rng) -> LaurentBlock:
    """Valuation >= 1: exact or truncated, interior zeros, sometimes empty."""
    low = rng.randint(1, 3)
    coeffs = [F(rng.randint(-50, 50), rng.choice((1, 2, 3, 36, 10**12 + 39)))
              if rng.random() < 0.7 else F(0)
              for _ in range(rng.randint(0, 5))]
    if rng.random() < 0.3:
        return LaurentBlock(low, coeffs)
    return LaurentBlock(low, coeffs, low + len(coeffs) + rng.randint(-len(coeffs), 3))


def test_series_at_block_equals_full_power_sum():
    rng = random.Random(929)
    for _ in range(300):
        arg = _random_argument(rng)
        coeffs = [F(rng.randint(-9, 9), rng.choice((1, 2, 5, 7)))
                  if rng.random() < 0.7 else F(0)          # interior zeros
                  for _ in range(rng.randint(0, 14))]       # often longer than trunc
        got = evaluate_series_at_block(coeffs, arg)
        assert _block_key(got) == _block_key(_reference_series_sum(coeffs, arg)), \
            (coeffs, arg)


@pytest.mark.parametrize("coeffs, arg", [
    # empty truncated argument: only c_0 is known, up to trunc
    ([F(3), F(5), F(7)], LaurentBlock.zero(4)),
    ([F(0), F(5)], LaurentBlock.zero(1)),
    # exact zero argument: exactly c_0
    ([F(-2), F(1)], LaurentBlock.zero(None)),
    # argument known only below its lowest exponent's successor
    ([F(1), F(1, 2), F(1, 3)], LaurentBlock(1, [F(1), F(4)], trunc=2)),
    # no coefficients, and more coefficients than known exponents
    ([], LaurentBlock(1, [F(2)], trunc=6)),
    ([F(k + 1, 3) for k in range(40)], LaurentBlock(2, [F(1), 0, F(-1, 5)], trunc=9)),
])
def test_series_at_block_edge_cases(coeffs, arg):
    expected = _reference_series_sum(coeffs, arg)
    assert _block_key(evaluate_series_at_block(coeffs, arg)) == _block_key(expected)


def test_series_at_block_stops_at_trunc(monkeypatch):
    steps = []
    convolve = exact._convolve

    def counting(a, b, width):
        steps.append(width)
        return convolve(a, b, width)

    monkeypatch.setattr(exact, "_convolve", counting)
    arg = LaurentBlock(3, [F(1), F(1, 2), F(2)], trunc=20)
    evaluate_series_at_block([F(1)] * 100, arg)
    # arg^6 starts at 18 and arg^7 at 21, beyond trunc: c_0..c_6 take six
    # Horner steps, however many coefficients follow
    assert len(steps) == 6


@pytest.mark.parametrize("arg", [
    LaurentBlock(0, [F(1), F(1)]),
    LaurentBlock(-1, [F(2)], trunc=3),
    LaurentBlock(0, [F(1)], trunc=1),
    LaurentBlock.zero(0),
    LaurentBlock.zero(-2),
])
def test_series_at_block_needs_positive_valuation(arg):
    with pytest.raises(DomainError):
        evaluate_series_at_block([F(1), F(1)], arg)


def test_block_agrees_with_polynomials():
    p = Poly([2, 0, -1, 5])
    q = Poly([1, 3])
    bp = LaurentBlock.from_poly(p, trunc=20)
    bq = LaurentBlock.from_poly(q, trunc=20)
    prod = bp * bq
    expected = p * q
    for e in range(0, expected.degree + 1):
        assert prod.coefficient(e) == expected.coeff(e)


def test_block_truncation_is_pessimistic():
    a = LaurentBlock(0, [1, 1], trunc=2)       # 1 + x + O(x^2)
    b = LaurentBlock(0, [1, -1], trunc=2)
    prod = a * b
    assert prod.trunc == 2
    assert prod.coefficient(1) == 0
    with pytest.raises(DomainError):
        prod.coefficient(2)


def test_block_inverse_roundtrip():
    a = LaurentBlock(-1, [1, F(1, 2), 0, F(1, 8)], trunc=4)
    inv = a.inverse()
    prod = a * inv
    assert prod.coefficient(0) == 1
    assert all(prod.coefficient(e) == 0
               for e in range(prod.low, prod.trunc) if e != 0)


def _reference_inverse(b: LaurentBlock) -> LaurentBlock:
    """The Fraction recursion, one division by the leading coefficient per term."""
    nterms = b.trunc - b.low
    a = b.coeffs
    inv = [F(0)] * nterms
    inv[0] = 1 / a[0]
    for n in range(1, nterms):
        s = F(0)
        for j in range(1, min(n, len(a) - 1) + 1):
            if a[j] != 0:
                s += a[j] * inv[n - j]
        inv[n] = -s / a[0]
    return LaurentBlock(-b.low, inv, -b.low + nterms)


def test_block_inverse_equals_fraction_recursion():
    rng = random.Random(1637)
    leads = (F(1), F(-1), F(2), F(-3), F(5, 7), F(-(10**12 + 39), 11),
             F(1, 10**12 + 39), F(7**25, 2**70))
    dens = (1, 2, 3, 36, 10**12 + 39, 7**25)
    cases = [LaurentBlock(-2, [F(-3), F(1, 2)], trunc=-1),       # nterms = 1
             LaurentBlock(3, [F(5, 7)], trunc=9)]                # a monomial
    for _ in range(300):
        low = rng.randint(-4, 4)
        coeffs = [rng.choice(leads)] + [
            F(rng.randint(-10**6, 10**6), rng.choice(dens))
            if rng.random() < 0.7 else F(0)                      # interior zeros
            for _ in range(rng.randint(0, 8))]
        cases.append(LaurentBlock(low, coeffs, trunc=low + rng.randint(1, 12)))
    for b in cases:
        got, want = b.inverse(), _reference_inverse(b)
        assert _block_key(got) == _block_key(want) and repr(got) == repr(want), b


def test_block_inverse_needs_a_truncated_block():
    with pytest.raises(DomainError):
        LaurentBlock.monomial(-1, 1).inverse()
    with pytest.raises(DomainError):
        LaurentBlock(0, [1, 2]).inverse()


def test_poly_json_roundtrip():
    p = Poly([F(-1, 3), 0, 1])
    assert Poly.from_json(p.to_json()) == p
    b = BiPoly({(1, 2): F(5, 7), (0, 0): -2})
    assert BiPoly.from_json(b.to_json()) == b


M61 = 2 ** 61 - 1


def test_is_prime_matches_a_sieve():
    sieve = [True] * 20000
    sieve[0] = sieve[1] = False
    for n in range(2, 142):
        if sieve[n]:
            sieve[n * n::n] = [False] * len(range(n * n, 20000, n))
    assert [n for n in range(-5, 20000) if _is_prime(n)] == \
        [n for n, prime in enumerate(sieve) if prime]


def test_is_prime_refuses_strong_pseudoprimes():
    assert _is_prime(M61) and _is_prime(2 ** 31 - 1)
    assert not _is_prime((2 ** 13 - 1) * M61)
    assert not _is_prime(43 * M61 ** 2)          # past the bound: trial division
    # the least strong pseudoprimes to the first 4, 5, 7 and 11 prime bases,
    # and to the first twelve, which base 41 refuses
    for n in (3215031751, 2152302898747, 341550071728321, 3825123056546413051,
              318665857834031151167461):
        assert not _is_prime(n), n


def test_prime_factors_stop_at_a_prime_cofactor():
    assert _prime_factors(M61) == [M61]
    assert _prime_factors(-12 * M61) == [2, 3, M61]
    assert _prime_factors(2 ** 10 * 3 ** 4 * 1009) == [2, 3, 1009]
    assert _prime_factors(0) == _prime_factors(1) == []
