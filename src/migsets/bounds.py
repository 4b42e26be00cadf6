"""Counting formulas behind the upper bound on minimal invariable
generating sets of S_n.

The bound is  ⌊n/2⌋ + Δ(n) + a_n + b_n + c_n − 1  where Δ counts divisors
of n, a_n counts projective-space degrees (pairs (q, d) with
(q^d − 1)/(q − 1) = n), b_n counts binomial representations (pairs (d, k)
with C(d, k) = n and k ≤ d/2), and c_n counts perfect-power shapes
(exponents k ≥ 2 with n = d^k).  Each term is the number of ways classes
can hide inside one kind of maximal subgroup, less the overlaps a finer
analysis removes.

b_n is taken at k ≥ 2: the k = 1 pair (n, 1) corresponds to the natural
action itself, not a proper subgroup.  Since the source definition is
ambiguous, reports also carry the k ≥ 1 reading, b_n + 1 (`b_with_k1`).

All gating comparisons are exact integer arithmetic; in particular the
closing inequality 2√n + 3·log2(n) ≤ n/2 is decided by interval refinement
over rationals, never by floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .partitions import _check_integer, _factorize


# `bound_report` factorizes n and n - 1 by trial division up to their square
# roots; past this degree one report no longer answers within a second
MAX_BOUNDS_DEGREE = 10**12


class BoundsError(ValueError):
    """Input outside a counting formula's domain."""


def divisor_count(n):
    """Δ(n) from the prime factorization of n."""
    _check_integer(n, BoundsError)
    if n < 1:
        raise BoundsError(f"need n >= 1, got {n}")
    return math.prod(e + 1 for e in _factorize(n).values())


def _is_prime_power(q):
    if q < 2:
        return False
    return len(_factorize(q)) == 1


def _solve(f, lo, hi, n):
    """The x in lo..hi with f(x) = n for an increasing f, or None."""
    while lo <= hi:
        x = (lo + hi) // 2
        val = f(x)
        if val == n:
            return x
        if val < n:
            lo = x + 1
        else:
            hi = x - 1
    return None


def count_projective(n):
    """a_n: pairs (q, d), q a prime power, d >= 2, with 1+q+...+q^(d-1) = n."""
    _check_integer(n, BoundsError)
    if n < 3:
        raise BoundsError(f"need n >= 3, got {n}")
    count = 1 if _is_prime_power(n - 1) else 0  # d = 2
    d = 3
    while (1 << d) - 1 <= n:  # q = 2 is the smallest candidate
        q = _solve(lambda q: (q**d - 1) // (q - 1), 2, n, n)
        if q is not None and _is_prime_power(q):
            count += 1
        d += 1
    return count


def count_binomial(n):
    """b_n: pairs (d, k) with 2 <= k <= d/2 and C(d, k) = n.

    k stays below log2(n) because C(2k, k) > 2^k; for each k the value is
    monotone in d, so binary search finds the only possible d."""
    _check_integer(n, BoundsError)
    if n < 2:
        raise BoundsError(f"need n >= 2, got {n}")
    count = 0
    k = 2
    while math.comb(2 * k, k) <= n:
        # C(2k + n, k) >= n for k >= 2
        count += _solve(lambda d: math.comb(d, k), 2 * k, 2 * k + n, n) is not None
        k += 1
    return count


def count_perfect_power(n):
    """c_n: exponents k >= 2 with n = d^k for some integer d.

    n = d^k exactly when k divides every prime exponent of n, so c_n is the
    number of divisors k >= 2 of the gcd of the exponents."""
    _check_integer(n, BoundsError)
    if n < 4:
        raise BoundsError(f"need n >= 4, got {n}")
    return divisor_count(math.gcd(*_factorize(n).values())) - 1


TABLE1 = (
    (22, "M_22.2", 21),
    (40, "SU_4(2).2", 25),
    (45, "SU_4(2).2", 25),
)


def table1_lookup(n):
    """Known almost simple groups beating the generic count at degree n."""
    _check_integer(n, BoundsError)
    return [(label, k) for deg, label, k in TABLE1 if deg == n]


@dataclass(frozen=True)
class BoundReport:
    n: int
    delta: int
    a: int
    b: int  # k >= 2 convention
    b_with_k1: int
    c: int
    omega_nm1: int  # distinct primes of n - 1
    upper: int

    @property
    def lower(self):
        return self.n / 2 - math.log2(self.n)

    def as_dict(self):
        return {
            "n": self.n,
            "delta": self.delta,
            "a": self.a,
            "b": self.b,
            "b_with_k1": self.b_with_k1,
            "c": self.c,
            "omega_nm1": self.omega_nm1,
            "lower": self.lower,
            "upper": self.upper,
            "table1_hits": table1_lookup(self.n),
        }


def bound_report(n):
    _check_integer(n, BoundsError)
    if n < 2:
        raise BoundsError(f"need n >= 2, got {n}")
    if n > MAX_BOUNDS_DEGREE:
        raise BoundsError(f"degree capped at {MAX_BOUNDS_DEGREE}, got {n}")
    delta = divisor_count(n)
    a = count_projective(n) if n >= 3 else 0  # no pairs exist below 3
    b = count_binomial(n)
    c = count_perfect_power(n) if n >= 4 else 0  # nor perfect powers below 4
    omega = len(_factorize(n - 1)) if n > 2 else 0
    report = BoundReport(
        n=n,
        delta=delta,
        a=a,
        b=b,
        b_with_k1=b + 1,
        c=c,
        omega_nm1=omega,
        upper=n // 2 + delta + a + b + c - 1,
    )
    # distinct pairs (q, d) force coprime q's, each dividing n - 1
    if report.a > report.omega_nm1 and n != 2:
        raise BoundsError(f"a_{n} = {report.a} exceeds omega(n-1) = {report.omega_nm1}")
    if 1 << report.b >= n:  # C(2k, k) > 2^k
        raise BoundsError(f"b_{n} = {report.b} has 2^b >= n")
    return report


def upper_bound(n):
    _check_integer(n, BoundsError)
    if n < 5:
        raise BoundsError(f"upper bound applies from n=5, got {n}")
    return bound_report(n)


def _log2_bounds(n, precision):
    """Integer L with L <= 2^precision * log2(n) < L + 1."""
    L = (n ** (1 << precision)).bit_length() - 1
    return Fraction(L, 1 << precision), Fraction(L + 1, 1 << precision)


def _sqrt_bounds(n, precision):
    scaled = math.isqrt(n << (2 * precision))
    return Fraction(scaled, 1 << precision), Fraction(scaled + 1, 1 << precision)


def final_inequality_holds(n):
    """Exact decision of 2*sqrt(n) + 3*log2(n) <= n/2 by interval refinement."""
    _check_integer(n, BoundsError)
    if n < 2:
        raise BoundsError(f"need n >= 2, got {n}")
    rhs = Fraction(n, 2)
    for precision in (8, 16, 32, 64, 128):
        s_lo, s_hi = _sqrt_bounds(n, precision)
        l_lo, l_hi = _log2_bounds(n, precision)
        if 2 * s_hi + 3 * l_hi <= rhs:
            return True
        if 2 * s_lo + 3 * l_lo > rhs:
            return False
    # would need sqrt(n) and log2(n) rational, i.e. n a square power of
    # two; then both endpoints above were already exact
    raise AssertionError(f"interval refinement failed to separate at n={n}")


def corollary_inequality(n):
    """Every link of the chain bounding the non-floor terms of the upper
    bound, evaluated exactly, plus the closing inequality."""
    _check_integer(n, BoundsError)
    if n < 5:
        raise BoundsError(f"need n >= 5, got {n}")
    r = bound_report(n)
    log_floor = n.bit_length() - 1
    max_delta = max(divisor_count(x) for x in range(1, log_floor + 1))
    checks = {
        # Delta + a + b + c < n/2
        "direct": 2 * (r.delta + r.a + r.b + r.c) < n,
        "a_le_omega": r.a <= r.omega_nm1,
        "omega_le_log": 1 << r.omega_nm1 <= n,
        "c_le_max_delta": r.c <= max_delta,
        "max_delta_le_log": 1 << max_delta <= n,
        "b_lt_log": 1 << r.b < n,
        "delta_lt_two_sqrt": r.delta * r.delta < 4 * n,
        "final": final_inequality_holds(n),
    }
    return {"n": n, "report": r.as_dict(), "checks": checks}
