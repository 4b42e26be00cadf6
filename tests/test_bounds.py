"""Tests for the counting formulas and the upper-bound report."""

import math

import pytest

from migsets.bounds import (
    MAX_BOUNDS_DEGREE,
    BoundsError,
    bound_report,
    corollary_inequality,
    count_binomial,
    count_perfect_power,
    count_projective,
    divisor_count,
    final_inequality_holds,
    table1_lookup,
    upper_bound,
)


def naive_divisor_count(n):
    return sum(1 for d in range(1, n + 1) if n % d == 0)


def naive_projective(n):
    def is_prime_power(q):
        if q < 2:
            return False
        for p in range(2, q + 1):
            if q % p == 0:
                while q % p == 0:
                    q //= p
                return q == 1
        return False

    count = 0
    for q in range(2, n):
        if not is_prime_power(q):
            continue
        val = 1 + q
        d = 2
        while val <= n:
            if val == n:
                count += 1
                break
            val += q**d
            d += 1
    return count


def naive_binomial(n):
    # C(d, k) >= C(d, 2) on 2 <= k <= d/2, so d is bounded by the k=2 row
    count = 0
    d = 2
    while d == 2 or math.comb(d - 1, 2) <= n:
        for k in range(2, d // 2 + 1):
            v = math.comb(d, k)
            if v == n:
                count += 1
            if v > n:
                break
        d += 1
    return count


def naive_perfect_power(n):
    return sum(
        1
        for k in range(2, n.bit_length())
        for d in range(2, n)
        if d**k == n
    )


def test_divisor_count_against_naive():
    for n in range(1, 500):
        assert divisor_count(n) == naive_divisor_count(n)


def test_divisor_count_frozen():
    assert divisor_count(12) == 6
    assert divisor_count(1) == 1
    for p in (2, 3, 5, 7, 97):
        assert divisor_count(p) == 2
    assert divisor_count(22) == 4
    assert divisor_count(40) == 8


def test_count_projective_against_naive():
    for n in range(3, 400):
        assert count_projective(n) == naive_projective(n), n


def test_count_projective_frozen():
    assert count_projective(7) == 1  # q=2, d=3
    assert count_projective(31) == 2  # q=2,d=5 and q=5,d=3
    assert count_projective(12) == 1  # q=11, d=2
    assert count_projective(13) == 1  # q=3, d=3
    assert count_projective(40) == 1  # q=3, d=4
    # 21 = 3*7 is not a prime power and no higher-dimensional shape gives 22
    assert count_projective(22) == 0


def test_count_binomial_against_naive():
    for n in range(2, 300):
        assert count_binomial(n) == naive_binomial(n), n


def test_count_binomial_frozen():
    assert count_binomial(10) == 1  # C(5,2)
    assert count_binomial(20) == 1  # C(6,3)
    assert count_binomial(22) == 0
    assert count_binomial(3003) == 3  # C(78,2), C(15,5), C(14,6)
    assert math.comb(15, 5) == 3003 and math.comb(14, 6) == 3003


def test_count_perfect_power_against_naive():
    for n in range(4, 2000):
        assert count_perfect_power(n) == naive_perfect_power(n), n


def test_count_perfect_power_matches_kth_roots():
    # the gcd-of-exponents count against direct k-th-root testing
    def kth_root_count(n):
        count = 0
        for k in range(2, n.bit_length()):
            r = round(n ** (1 / k))
            count += any(d**k == n for d in (r - 1, r, r + 1))
        return count

    for n in range(4, 10001):
        assert count_perfect_power(n) == kth_root_count(n), n


def test_count_perfect_power_frozen():
    assert count_perfect_power(64) == 3  # squares, cubes, sixth powers
    assert count_perfect_power(16) == 2
    assert count_perfect_power(12) == 0
    assert count_perfect_power(22) == 0
    for p in (2, 3, 5, 11):
        assert count_perfect_power(p * p) == 1


def test_domain_errors():
    with pytest.raises(BoundsError):
        divisor_count(0)
    with pytest.raises(BoundsError):
        count_projective(2)
    with pytest.raises(BoundsError):
        count_binomial(1)
    with pytest.raises(BoundsError):
        count_perfect_power(3)
    with pytest.raises(BoundsError):
        upper_bound(4)
    with pytest.raises(BoundsError):
        corollary_inequality(4)


def test_bound_report_degree_cap():
    # trial division of n and n - 1 stays cheap up to the cap; past it the
    # report is refused before any factorization
    assert bound_report(MAX_BOUNDS_DEGREE).n == 10**12
    with pytest.raises(BoundsError, match="degree capped at 1000000000000, got 1000000000001"):
        bound_report(MAX_BOUNDS_DEGREE + 1)


@pytest.mark.parametrize("bad", [22.0, "22", True])
def test_non_integer_degree_is_refused(bad):
    for fn in (
        bound_report,
        upper_bound,
        corollary_inequality,
        divisor_count,
        count_projective,
        count_binomial,
        count_perfect_power,
        table1_lookup,
        final_inequality_holds,
    ):
        with pytest.raises(BoundsError, match="^degree must be an integer, got "):
            fn(bad)


def test_report_invariants_are_checked(monkeypatch):
    # explicit checks rather than asserts, so python -O keeps them
    import migsets.bounds as b

    monkeypatch.setattr(b, "count_binomial", lambda n: 5)
    with pytest.raises(BoundsError, match="2\\^b >= n"):
        bound_report(30)
    monkeypatch.setattr(b, "count_binomial", lambda n: 0)
    monkeypatch.setattr(b, "count_projective", lambda n: 4)
    with pytest.raises(BoundsError, match="exceeds omega"):
        bound_report(31)


def test_upper_bound_frozen():
    assert upper_bound(12).upper == 6 + 6 + 1 + 0 + 0 - 1 == 12
    assert upper_bound(13).upper == 6 + 2 + 1 + 0 + 0 - 1 == 8
    assert upper_bound(40).upper == 20 + 8 + 1 + 0 + 0 - 1 == 28
    r = upper_bound(22)
    assert (r.delta, r.a, r.b, r.c) == (4, 0, 0, 0)
    assert r.upper == 11 + 4 + 0 + 0 + 0 - 1 == 14
    assert r.as_dict()["table1_hits"] == [("M_22.2", 21)]


def test_report_fields_and_invariants():
    for n in range(2, 3000):
        r = bound_report(n)
        assert r.lower < r.upper
        assert r.b_with_k1 == r.b + 1
        assert 1 << r.b < n or n < 2
        assert r.a <= r.omega_nm1 or n == 2
        tail = r.a + r.b + r.c - 1
        # the non-divisor terms stay within 3*log2(n)
        assert tail <= 0 or (1 << tail) <= n**3


def test_table1_lookup():
    assert table1_lookup(22) == [("M_22.2", 21)]
    assert table1_lookup(40) == [("SU_4(2).2", 25)]
    assert table1_lookup(45) == [("SU_4(2).2", 25)]
    assert table1_lookup(23) == []


def test_final_inequality_boundary():
    assert not final_inequality_holds(70)
    assert final_inequality_holds(71)
    for n in range(71, 1000):
        assert final_inequality_holds(n)
    for n in range(5, 71):
        assert not final_inequality_holds(n), n


def test_final_inequality_matches_float_when_clear():
    for n in (100, 1234, 99991):
        expected = 2 * math.sqrt(n) + 3 * math.log2(n) <= n / 2
        assert final_inequality_holds(n) == expected


def test_corollary_reports():
    c5 = corollary_inequality(5)
    assert not c5["checks"]["direct"]
    assert not c5["checks"]["final"]
    c70 = corollary_inequality(70)
    assert c70["checks"]["direct"] and not c70["checks"]["final"]
    c71 = corollary_inequality(71)
    assert all(c71["checks"].values())
    for n in (100, 441, 4096):
        assert all(corollary_inequality(n)["checks"].values())
