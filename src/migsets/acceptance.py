"""The acceptance gate: every shipped claim of the package as a runnable
check, one result line per criterion.

Each check returns ``(passed, expected_failure, detail)``; the one runner,
the `_criterion` decorator, lists it in ALL_CRITERIA, times it and builds
its CriterionResult, so the CLI can print a full report.  A check that
raises a package error (any `ValueError`) becomes a FAIL line naming the
exception, and the remaining criteria still run.  Two checks fail by
design, faithfully reproducing source-material claims our own enumerations
contradict; they are marked expected_failure and documented in the README:

  * criterion 4 at n = 6: no family of cycle types of S_6 satisfying the
    partial-sum properties is a minimal invariable generating set (the
    exhaustive scan in criterion 5 shows why: every candidate pair is
    swallowed by one of the six maximal subgroups);
  * criterion 6's component claim a_22 = 1: 21 = 3 * 7 is not a prime
    power and no longer geometric series reaches 22, so a_22 = 0.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import time
from dataclasses import dataclass

from .bounds import final_inequality_holds, table1_lookup, upper_bound
from .constructions import (
    _lower_bound_checks,
    _raise_if_failed,
    _size_exceeds_half_minus_log,
    build_x_family,
    lemma_partition,
    verify_lemma,
    verify_x_family,
)
from .family_search import max_family, max_family_bruteforce
from .partitions import (
    Partition,
    enumerate_partitions,
    partial_sums,
    wreath_realizable,
    wreath_types,
)
from .perms import PermGroup
from .subgroup_oracle import incidence_mask, is_mig_set, wreath_generators


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    expected_failure: bool
    runtime: float
    detail: str

    def line(self):
        if self.passed:
            status = "PASS"
        elif self.expected_failure:
            status = "FAIL (expected, documented)"
        else:
            status = "FAIL"
        return f"criterion {self.number} [{self.name}]: {status} ({self.runtime:.1f}s) {self.detail}"

    @property
    def acceptable(self):
        return self.passed or self.expected_failure


# wall-clock budgets (s) of the two sweeps, and the random partial-sum check
GAP_SWEEP_BUDGET = 30.0
FAMILY_SWEEP_BUDGET = 120.0
SUM_SAMPLES = 10_000
SUM_SEED = 2024

# (number, criterion) pairs in definition order, filled by `_criterion`
ALL_CRITERIA = []


def _criterion(number, name):
    """Make a check returning ``(passed, expected_failure, detail)`` into
    criterion `number` and list it in ALL_CRITERIA: it is timed, and a
    package error it raises gives a FAIL line naming the error instead of
    ending the run."""

    def wrap(check):
        @functools.wraps(check)  # perfbench keys its spans on the name
        def timed():
            start = time.time()
            try:
                passed, expected, detail = check()
            except ValueError as exc:
                passed, expected = False, False
                detail = f"raised {type(exc).__name__}: {exc}"
            return CriterionResult(number, name, passed, expected, time.time() - start, detail)

        ALL_CRITERIA.append((number, timed))
        return timed

    return wrap


def _within_budget(start, budget, detail):
    elapsed = time.time() - start
    if elapsed < budget:
        return True, False, detail
    return False, False, f"{detail}; over {budget}s budget"


@_criterion(1, "gap partition sweep")
def criterion_1():
    """Gap partitions verify for every 5 <= n <= 300, 1 <= i < n/3."""
    start = time.time()
    count = 0
    for n in range(5, 301):
        for i in range(1, (n + 2) // 3):
            verify_lemma(lemma_partition(i, n))
            count += 1
    return _within_budget(start, GAP_SWEEP_BUDGET, f"{count} (i, n) pairs verified")


@_criterion(2, "family construction sweep")
def criterion_2():
    """Families for 5 <= n <= 500 satisfy all three defining properties."""
    start = time.time()
    for n in range(5, 501):
        verify_x_family(build_x_family(n))
    return _within_budget(start, FAMILY_SWEEP_BUDGET, "degrees 5..500 verified")


@_criterion(3, "lower-bound proof replay")
def criterion_3():
    """Lower-bound verification for 11 <= n <= 500."""
    methods = {"exact": 0, "replay": 0}
    for n in range(11, 501):
        checks = _lower_bound_checks(build_x_family(n))
        _raise_if_failed({"n": n, "checks": checks}, "lower-bound verification")
        if "oracle" in checks["method"]["detail"]:
            methods["exact"] += 1
        else:
            methods["replay"] += 1
    return (
        True,
        False,
        f"degrees 11..500; {methods['exact']} by exact oracle, {methods['replay']} by replay",
    )


@_criterion(4, "exact oracle cross-check")
def criterion_4():
    """Constructed families pass the exact subgroup oracle for 5 <= n <= 12.

    Fails at n = 6, where no valid family is minimally invariably
    generating; every other degree passes."""
    failures = []
    for n in range(5, 13):
        xf = build_x_family(n)
        if not is_mig_set(xf.members, n):
            failures.append(n)
    if failures:
        return False, failures == [6], f"oracle rejects degrees {failures}"
    return True, False, "degrees 5..12 all minimal invariable generating sets"


STAR_LIST = ("2,1^4", "2^2,1^2", "2^3", "3,1^3", "3^2", "4,1^2", "4,2")


@_criterion(5, "degree-6 exhaustive scan")
def criterion_5():
    """Degree 6: no minimal invariable generating set of size >= 5 exists,
    and the types meeting at least four maximal subgroups are exactly the
    seven known ones."""
    nontrivial = [p for p in enumerate_partitions(6) if p.parts != (1,) * 6]
    star = tuple(
        sorted(p.text() for p in nontrivial if incidence_mask(p).bit_count() >= 4)
    )
    scanned = 0
    oversized = []
    for k in range(5, len(nontrivial) + 1):
        for combo in itertools.combinations(nontrivial, k):
            scanned += 1
            if is_mig_set(combo, 6):
                oversized.append(combo)
    passed = star == tuple(sorted(STAR_LIST)) and not oversized and scanned == 638
    return passed, False, f"{scanned} subsets scanned, none generate minimally; star list {star}"


@_criterion(6, "degree-22 bound components")
def criterion_6_components():
    """Upper-bound components at n = 22 as the source states them: the
    a_22 = 1 claim contradicts our enumeration (a_22 = 0), so this check
    fails by design; the Table 1 hit and the other components do hold."""
    r = upper_bound(22)
    hits_ok = r.as_dict()["table1_hits"] == [("M_22.2", 21)]
    stated = (r.delta, r.a, r.b, r.c) == (4, 1, 0, 0) and r.upper == 15
    actual = (r.delta, r.a, r.b, r.c) == (4, 0, 0, 0) and r.upper == 14
    return (
        hits_ok and stated,
        hits_ok and actual,
        f"computed (delta,a,b,c)=({r.delta},{r.a},{r.b},{r.c}), upper={r.upper}; "
        "stated a_22=1/upper=15 unreachable: 21=3*7 is not a prime power",
    )


@_criterion(6, "corollary inequality range")
def criterion_6_corollary():
    """Closing inequality holds exactly on 71..10000 and fails at 70."""
    bad = [n for n in range(71, 10001) if not final_inequality_holds(n)]
    boundary = not final_inequality_holds(70)
    if bad or not boundary:
        return False, False, f"failures {bad[:5]}, n=70 gives {not boundary}"
    return True, False, "holds on 71..10000, fails at 70"


@_criterion(7, "extremal search cross-check")
def criterion_7():
    """Exact search agrees with the naive oracle on 5..14; sandwich bounds
    and witness injectivity hold.  Returns the data table in the detail."""
    rows = ["n\tt_max\tlower\thalf\tnodes"]
    ok = True
    for n in range(5, 15):
        r = max_family(n)
        naive = max_family_bruteforce(n)
        ok &= r.t_max == naive
        ok &= _size_exceeds_half_minus_log(n, r.t_max) and r.t_max <= n // 2
        ok &= len(set(r.witness_assignment.values())) == len(r.witness_assignment)
        rows.append(
            f"{n}\t{r.t_max}\t{n / 2 - math.log2(n):.3f}\t{n // 2}\t{r.nodes_explored}"
        )
    return ok, False, "table:\n" + "\n".join(rows)


@_criterion(8, "block realizability vs enumeration")
def criterion_8_wreath():
    """wreath_realizable and wreath_types agree with element-level
    enumeration for every partition of every n <= 8 and every block shape."""
    mismatches = []
    for n in range(4, 9):
        for a in range(2, n // 2 + 1):
            if n % a:
                continue
            b = n // a
            group = PermGroup(n, wreath_generators(a, b))
            if group.order() != math.factorial(a) ** b * math.factorial(b):
                mismatches.append((n, a, b, "wrong wreath order"))
                continue
            types = group.cycle_types()
            if wreath_types(a, b) != {p.parts for p in types}:
                mismatches.append((n, a, b, "wreath_types"))
            for p in enumerate_partitions(n):
                if wreath_realizable(p, a, b) != (p in types):
                    mismatches.append((n, a, b, p.text()))
    if mismatches:
        return False, False, f"mismatches: {mismatches[:5]}"
    return True, False, "all degrees <= 8, all block shapes"


@_criterion(8, "partial sums vs subset enumeration")
def criterion_8_sums():
    """partial_sums agrees with a set recurrence (each part a adds s + a to
    every sum s so far) on random partitions of up to 20 parts."""
    rng = random.Random(SUM_SEED)
    mismatches = 0
    for _ in range(SUM_SAMPLES):
        k = rng.randint(1, 20)
        parts = [rng.randint(1, 12) for _ in range(k)]
        p = Partition(parts)
        claimed = partial_sums(p).bits
        sums = {0}
        for a in parts:
            sums |= {s + a for s in sums}
        expected = 0
        for s in sums:
            expected |= 1 << s
        if claimed != expected:
            mismatches += 1
    return mismatches == 0, False, f"{SUM_SAMPLES} random partitions, {mismatches} mismatches"


def run(numbers=None):
    """Run the acceptance checks (all, or the given criterion numbers)."""
    results = []
    for number, fn in ALL_CRITERIA:
        if numbers and number not in numbers:
            continue
        results.append(fn())
    return results
