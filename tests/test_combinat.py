"""Lattice-coset lemmas: exact counting and decompositions."""

import random
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitforge.combinat import (LatticeCoset, coset_points_in_box,
                                 decompose_root_pair, e_branch_holds,
                                 find_primitive_decomposition, floor_pow,
                                 gcd_shift)
from orbitforge.errors import DomainError


def pow_le(k: int, N: int, c: F) -> bool:
    """Reference: the exact test k <= N^c for k >= 0, N >= 1, c >= 0."""
    return k ** c.denominator <= N ** c.numerator


def test_floor_pow_exactness():
    assert floor_pow(17, F(1)) == 17
    assert floor_pow(17, F(3, 4)) == 8          # 17^0.75 = 8.372...
    assert floor_pow(16, F(1, 2)) == 4
    assert floor_pow(15, F(1, 2)) == 3
    assert pow_le(8, 17, F(3, 4)) and not pow_le(9, 17, F(3, 4))
    with pytest.raises(DomainError):
        floor_pow(17, F(-1, 2))


def test_floor_pow_against_pow_le():
    for N in range(1, 401):
        for c in (F(0), F(1, 2), F(3, 4), F(4, 5), F(7, 8), F(1)):
            L = floor_pow(N, c)
            assert pow_le(L, N, c) and not pow_le(L + 1, N, c), (N, c)


def _admissible_random(rng, lo, hi):
    while True:
        N = rng.randrange(lo, hi + 1)
        a1, a2 = rng.randrange(N), rng.randrange(N)
        if gcd(gcd(a1, a2), N) == 1:
            return a1, a2, N


def test_box_count_matches_independent_count():
    """The closed form against the kernel of x -> a1*x2 - a2*x1 mod N over
    the box, which equals S_a there when gcd(a1, a2, N) = 1."""
    rng = random.Random(2026)
    for _ in range(40):
        a1, a2, N = _admissible_random(rng, 17, 200)
        for c in (F(3, 4), F(7, 8), F(1)):
            L = floor_pow(N, c)
            span = range(-L, L + 1)
            points = [(x1, x2) for x1 in span for x2 in span
                      if (a1 * x2 - a2 * x1) % N == 0]     # sorted
            res = coset_points_in_box(LatticeCoset(a1, a2, N), c)
            assert res.count == len(points), (a1, a2, N, c)
            assert res.witnesses == tuple(points[:12]), (a1, a2, N, c)


def test_box_count_at_c_one_closed_identity():
    """With L = N every residue r != 0 has two representatives in [-N, N]
    and r = 0 has three, so |S_a cap B_N| = 4N + 2 gcd(a1,N) + 2 gcd(a2,N) + 1."""
    rng = random.Random(11)
    for _ in range(300):
        a1, a2, N = _admissible_random(rng, 17, 200)
        res = coset_points_in_box(LatticeCoset(a1, a2, N), F(1), max_witnesses=0)
        assert res.count == 4 * N + 2 * gcd(a1, N) + 2 * gcd(a2, N) + 1
        assert res.witnesses == ()


def test_box_count_without_witnesses_lists_no_points(monkeypatch):
    def no_listing(self, limit):
        raise AssertionError("box points listed although no witness was asked for")
    monkeypatch.setattr(LatticeCoset, "box_vectors", no_listing)
    res = coset_points_in_box(LatticeCoset(3, 5, 101), F(7, 8), max_witnesses=0)
    assert res.count > 0 and res.bound_ok


def test_box_count_examples():
    res = coset_points_in_box(LatticeCoset(1, 0, 17), F(1))
    assert res.count >= 5 and res.bound_ok          # >= 17/4

    res2 = coset_points_in_box(LatticeCoset(1, 1, 17), F(3, 4))
    assert res2.count >= 2 and res2.bound_ok        # >= 17^(1/2)/4

    with pytest.raises(DomainError):
        coset_points_in_box(LatticeCoset(0, 0, 17), F(1))   # gcd hypothesis
    with pytest.raises(DomainError):
        coset_points_in_box(LatticeCoset(1, 0, 16), F(1))   # N >= 17


def test_box_count_monotone_in_c():
    rng = random.Random(3)
    for _ in range(20):
        N = rng.randrange(17, 80)
        a1, a2 = rng.randrange(N), rng.randrange(N)
        if gcd(gcd(a1, a2), N) != 1:
            continue
        S = LatticeCoset(a1, a2, N)
        counts = [coset_points_in_box(S, c).count
                  for c in (F(3, 4), F(4, 5), F(1))]
        assert counts == sorted(counts)


def test_primitive_decomposition_examples():
    w = find_primitive_decomposition(LatticeCoset(1, 0, 17), F(1), F(1))
    assert (w.k1, w.k2, w.e) == (1, 0, 1)
    assert e_branch_holds(w.e, F(1), 17, F(1), F(4))

    w2 = find_primitive_decomposition(LatticeCoset(1, 4, 25), F(2), F(4, 5))
    assert gcd(w2.k1, w2.k2) == 1
    limit = floor_pow(25, F(4, 5))
    assert max(abs(w2.e * w2.k1), abs(w2.e * w2.k2)) <= limit

    # huge C: the |k|_inf > C branch is unreachable, small-e branch must fire
    w3 = find_primitive_decomposition(LatticeCoset(3, 7, 31), F(10**6), F(1))
    assert not w3.kinf_exceeds_C
    assert e_branch_holds(w3.e, F(1), 31, F(1), F(4))


@given(st.integers(min_value=2, max_value=400),
       st.integers(min_value=2, max_value=400))
@settings(max_examples=120, deadline=None)
def test_gcd_shift_congruence_and_coprimality(k, N):
    ell = gcd_shift(k, N)
    f = gcd(N, k)
    assert gcd(ell, N) == 1
    assert (ell * f - k) % N == 0


def test_decompose_examples():
    d = decompose_root_pair(1, 0, 17, F(1), F(1))
    assert d.e == 1 and (d.k1, d.k2) == (1, 0)
    assert d.verify(1, 0, 17)

    d2 = decompose_root_pair(3, 5, 19, F(1), F(1))
    assert gcd(d2.k1, d2.k2) == 1 and d2.verify(3, 5, 19)

    with pytest.raises(DomainError):
        decompose_root_pair(1, 0, 16, F(1), F(1))


def test_decompose_random_corpus_verifies():
    rng = random.Random(37)
    done = 0
    while done < 60:
        N = rng.randrange(17, 150)
        a1, a2 = rng.randrange(N), rng.randrange(N)
        if gcd(gcd(a1, a2), N) != 1:
            continue
        done += 1
        for c in (F(3, 4), F(1)):
            d = decompose_root_pair(a1, a2, N, F(2), c)
            assert d.verify(a1, a2, N)
            assert gcd(d.k1, d.k2) == 1
            assert d.e % d.f == 0
            limit = floor_pow(N, c)
            assert max(abs(d.e * d.k1), abs(d.e * d.k2)) <= limit
