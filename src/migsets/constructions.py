"""Explicit families of conjugacy classes witnessing the lower bound.

The target object is a family X of cycle types (partitions of n) such that,
writing M_x for the partial sums of x in [1, n/2]:

  (1) no integer is a partial sum of every member,
  (2) every member x has a private witness i: a partial sum of every other
      member but not of x, and
  (3) |X| > n/2 - log2(n).

Such a family, once its classes are also known to avoid lying together in a
single transitive proper subgroup, is a set of classes any choice of whose
representatives generates S_n, and minimally so: dropping x leaves the
witness subgroup fixing a set of size witness(x) meeting all the others.

`lemma_partition(i, n)` builds the basic ingredient: a partition of n whose
only missing partial sums in (0, n) are i and n - i (sometimes also n/2).
`build_x_family` assembles these into X, repairs the two known failure
modes, and `verify_x_family` / `verify_mig_lower_bound` re-check everything
from scratch, producing a JSON-ready certificate.

The construction checks each ingredient's gaps once and keeps no
`LemmaPartition` record of it.  A block member is its ingredient with one
dominant part c put in front, and its mask is the ingredient's checked mask
extended by one shift by c (`partitions._with_top_part`), not a second DP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .family_search import (
    _bits,
    _min_bit,
    _witness_map,
    iter_families,
    max_family,
    witness_sets,
)
from .partitions import (
    Partition,
    _check_integer,
    _check_sum_cap,
    _divisors,
    _universe,
    _with_top_part,
    jordan_witness,
    parity,
    partial_sums,
    power_type,
    wreath_realizable,
)
from .subgroup_oracle import (
    MAX_DEGREE,
    MIN_DEGREE,
    incidence,
    is_mig_set,
    maximal_subgroups,
)


class ConstructionError(ValueError):
    """A construction precondition or verification failed."""


@dataclass(frozen=True)
class LemmaPartition:
    """Partition of n missing exactly the partial sums i and n-i (and n/2 in
    the two exceptional shapes)."""

    i: int
    n: int
    p: Partition
    case_tag: str  # generic | n_eq_4i_plus_2 | n_eq_4i_plus_4 | eight_one

    def expected_missing(self):
        return _expected_missing(self.i, self.n, self.case_tag)


def _expected_missing(i, n, case_tag):
    if case_tag in ("n_eq_4i_plus_2", "eight_one"):
        return (i, n // 2, n - i)
    return (i, n - i)


def lemma_partition(i, n):
    """The canonical partition of n avoiding the partial sums i and n-i.

    Requires 1 <= i < n/3.  Shape: i-1 ones, then parts i+1 / i+2 packed so
    that every value outside {i, n-i} (plus n/2 in the 4i+2 case) remains
    reachable.
    """
    _check_integer(i, ConstructionError, "i")
    _check_integer(n, ConstructionError)
    p, tag = _lemma(i, n)
    return LemmaPartition(i=i, n=n, p=p, case_tag=tag)


def _lemma(i, n):
    """`lemma_partition`'s partition, its gaps checked, and its case tag,
    without the record."""
    if i < 1:
        raise ConstructionError(f"need i >= 1, got {i}")
    if 3 * i >= n:
        raise ConstructionError(f"need i < n/3, got i={i}, n={n}")
    _check_sum_cap(n)  # the gap check's DP refuses it; fail before building
    if n == 4 * i + 2:
        runs = [(1, i - 1), (i + 1, 3)]
        tag = "n_eq_4i_plus_2"
    elif n == 4 * i + 4 and (n, i) != (8, 1):
        # the straightforward packing would also miss n/2 here; widening the
        # middle part restores it
        runs = [(1, i - 1), (i + 1, 2), (i + 3, 1)]
        tag = "n_eq_4i_plus_4"
    else:
        if n - 2 * i <= 2 * i + 1:
            runs = [(1, i - 1), (i + 1, 1), (n - 2 * i, 1)]
        else:
            # after i-1 ones, i+1 and i+2, parts i+1 follow while at least
            # 2i+2 is left, then the rest (i+1 <= rest <= 2i+1) closes: q parts
            # i+1 in all, and a last part i+1+r
            q, r = divmod(n - 3 * i - 2, i + 1)
            runs = [(1, i - 1), (i + 1, q), (i + 2, 1), (i + 1 + r, 1)]
        tag = "eight_one" if (n, i) == (8, 1) else "generic"
    p = Partition._from_runs(runs)
    _check_gaps(p, n, _expected_missing(i, n, tag))
    return p, tag


def _check_gaps(p, n, expected):
    """Raise unless p partitions n and its partial sums miss exactly the
    interior values of ``expected``, which must ascend strictly; return
    them.  The non-sums in 0..n, as a bitmask, must equal the expected gaps
    (0 and n are always sums)."""
    if p.n != n:
        raise ConstructionError(f"partition sums to {p.n}, not {n}")
    mask = partial_sums(p)
    gaps = 0
    ascending = True
    for g in expected:
        if gaps >> g:  # an earlier gap is >= g
            ascending = False
        gaps |= 1 << g
    if ~mask.bits & ((1 << (n + 1)) - 1) != gaps or not ascending:
        raise ConstructionError(
            f"partition {p} of {n} misses {mask.missing_interior()}, "
            f"expected {expected}"
        )
    return expected


def verify_lemma(lp):
    """Recompute the partial-sum mask and demand exactly the promised gaps."""
    missing = _check_gaps(lp.p, lp.n, lp.expected_missing())
    return {
        "i": lp.i,
        "n": lp.n,
        "partition": lp.p.text(),
        "case": lp.case_tag,
        "missing": list(missing),
    }


@dataclass(frozen=True)
class XFamily:
    """A family X with its witness table and construction bookkeeping.

    alpha/tvals/m/z describe the block structure used for n >= 13 (z is the
    long-cycle tail class); for the searched degrees n <= 12 they keep their
    empty defaults and repair_case is "small_n".  Families rebuilt from
    serialized members get repair_case "imported" and empty bookkeeping too.
    """

    n: int
    members: tuple
    witnesses: dict  # member -> witness integer
    repair_case: str  # small_n | case1_z_added | case2_rebuilt | imported
    alpha: tuple = ()
    tvals: tuple = ()  # Fractions, block upper boundaries
    m: int = 0
    z: Partition | None = None


def _witness_sets(members, n):
    """Return ``(common, wsets)``: the partial sums in 1..n/2 shared by every
    member, and per member the sums all the others have and it lacks."""
    universe = _universe(n)
    masks = [partial_sums(p).bits & universe for p in members]
    return witness_sets(masks, universe)


def _require(ok, invariant):
    """Raise unless an invariant of the construction holds; an explicit check
    rather than an assert, so ``python -O`` keeps it."""
    if not ok:
        raise ConstructionError(f"construction invariant violated: {invariant}")


def _size_exceeds_half_minus_log(n, count):
    # count > n/2 - log2(n)  <=>  (with d = n - 2*count)  d <= 0 or n^2 > 2^d
    d = n - 2 * count
    return d <= 0 or n * n > 1 << d


def build_x_family(n):
    """The family X for degree n.

    5 <= n <= MAX_DEGREE (12): found by exhaustive search and filtered
    through the exact subgroup oracle (largest size first, then
    deterministic order).  n > MAX_DEGREE: the block construction with its
    two repair cases.
    """
    _check_integer(n, ConstructionError)
    if n < 5:
        raise ConstructionError(f"families start at n=5, got {n}")
    _check_sum_cap(n)  # every member's partial sums are needed
    if n <= MAX_DEGREE:
        return _searched_family(n)
    return _block_family(n)


def _searched_family(n):
    result = max_family(n)
    candidates = (
        fam for size in range(result.t_max, 1, -1) for fam in iter_families(n, size)
    )
    # no searched family passes the oracle at n = 6, where no two classes
    # suffice; fall back to the first optimal family so the shape of the
    # result is still usable downstream
    members = next(
        (fam for fam in candidates if is_mig_set(fam, n)), result.optimal_family
    )
    return XFamily(
        n=n,
        members=members,
        witnesses=_witness_map(members, _witness_sets(members, n)[1]),
        repair_case="small_n",
    )


def _first_member(n):
    """Replacement for the i=1 ingredient: all of 2..n/2 as partial sums,
    nothing at 1, and an odd permutation."""
    if n in (14, 16):
        base = [5, 3]
    elif n in (13, 15, 17):
        base = [3]
    elif n % 2 == 0:
        base = [7, 3]
    else:
        base = [7, 3, 3]
    rem = n - sum(base)
    if (rem // 2) % 2 == 1:
        twos, fours = rem // 2, 0
    else:
        twos, fours = (rem - 4) // 2, 1
    p = Partition._from_runs([(b, 1) for b in base] + [(4, fours), (2, twos)])
    _require(parity(p) == "odd", f"first member {p} of {n} is odd")
    mask = partial_sums(p).restricted_bits()
    _require(mask == _universe(n) & ~0b10, f"first member {p} has every sum but 1")
    return p


def _block_family(n):
    m = (n // 6).bit_length() - 1  # floor(log2(n/6)); n >= 13 keeps m >= 1
    tvals = tuple(
        Fraction(n * (6 * (1 << (j - 1)) - 1), 6 * (1 << j)) for j in range(1, m + 1)
    )
    alpha = tuple(
        math.ceil(Fraction(n, 6 * (1 << (j - 1))) - 1) for j in range(1, m + 1)
    )
    for a in alpha:
        _require(1 <= a and 6 * a < n, f"alpha {a} lies in 1..n/6")
    top = math.floor(tvals[-1])
    _require(2 * top > n - 6, f"block structure reaches past n/2 - 3 (top {top})")

    # the i=1 ingredient is replaced by the first member, so never built
    x = {1: _first_member(n)}
    for t in range(2, math.ceil(n / 3)):
        x[t] = _lemma(t, n)[0]
    lo = math.ceil(n / 3)
    for j in range(1, m + 1):
        hi = math.floor(tvals[j - 1])
        a = alpha[j - 1]
        for t in range(lo, hi + 1):
            c = n - a - t
            # keeps the appended part above every part of the ingredient
            # (each at most t - a) and its precondition a < (a+t)/3 satisfied
            _require(c > t > 2 * a, f"{c} > {t} > 2*{a} at t={t}")
            x[t] = _with_top_part(_lemma(a, a + t)[0], c)
        lo = hi + 1
    _require(sorted(x) == list(range(1, top + 1)), f"blocks cover 1..{top}")

    dropped = set(alpha)
    members = {t: p for t, p in x.items() if t not in dropped}

    window = _universe(n) & ~((1 << (top + 1)) - 1)  # bits top+1 .. n//2
    common = _witness_sets(members.values(), n)[0] & window

    if common:
        # repair case 1: one tail class squashes the shared sums
        _require(_min_bit(common) == top + 1, f"smallest shared sum is {top + 1}")
        _require(n != 6 << m, f"repair case 1 needs n != 6*2^{m}")
        z = Partition._from_runs([(1, top), (n - top, 1)])
        repair = "case1_z_added"
    else:
        # repair case 2: only when n = 6*2^m; the top block collapses to the
        # single index t_m = n/2 - 1 whose ingredient degenerated (alpha = 1),
        # so drop it, keep the first member, and use a wider tail class
        _require(n == 6 << m and alpha[-1] == 1, f"repair case 2: n = 6*2^{m}, alpha 1")
        _require(tvals[-1] == n // 2 - 1, f"top block boundary is {n // 2 - 1}")
        del members[n // 2 - 1]
        members[1] = x[1]
        z = Partition._from_runs([(1, n // 2 - 2), (n // 2 + 2, 1)])
        repair = "case2_rebuilt"

    ordered = tuple(members[t] for t in sorted(members)) + (z,)
    inter, wsets = _witness_sets(ordered, n)
    witnesses = _witness_map(ordered, wsets)
    _require(inter == 0, "no partial sum is shared by every member")
    _require(_size_exceeds_half_minus_log(n, len(ordered)), "size > n/2 - log2(n)")
    return XFamily(
        n=n,
        members=ordered,
        witnesses=witnesses,
        alpha=alpha,
        tvals=tvals,
        m=m,
        repair_case=repair,
        z=z,
    )


def family_from_members(members, witnesses=None):
    """Rebuild an XFamily from bare partitions (e.g. parsed from JSON).

    Witnesses default to the smallest-witness rule; members without any
    witness get 0, which verification then rejects."""
    ps = tuple(p if isinstance(p, Partition) else Partition(p) for p in members)
    if not ps:
        raise ConstructionError("a family needs at least one member")
    n = ps[0].n
    if any(p.n != n for p in ps):
        raise ConstructionError("family members must partition the same n")
    if len(set(ps)) != len(ps):
        raise ConstructionError("family members must be pairwise distinct")
    if witnesses is None:
        wsets = _witness_sets(ps, n)[1]
        witnesses = {p: _min_bit(w) if w else 0 for p, w in zip(ps, wsets)}
    else:
        try:
            witnesses = {p: witnesses[p] for p in ps}
        except KeyError as exc:
            raise ConstructionError(f"member {exc.args[0]} has no witness") from None
        for w in witnesses.values():
            if not isinstance(w, int) or isinstance(w, bool):
                raise ConstructionError(f"witnesses must be integers, got {w!r}")
    return XFamily(n=n, members=ps, witnesses=witnesses, repair_case="imported")


def _check(ok, detail):
    return {"pass": bool(ok), "detail": detail}


def certificate(xf, checks):
    masks = [partial_sums(p) for p in xf.members]
    return {
        "n": xf.n,
        "members": [p.text() for p in xf.members],
        "witnesses": {p.text(): xf.witnesses.get(p, 0) for p in xf.members},
        "masks": [mk.bitstring() for mk in masks],
        "checks": checks,
    }


def _raise_if_failed(cert, label):
    failed = [k for k, v in cert["checks"].items() if not v["pass"]]
    if failed:
        err = ConstructionError(
            f"{label} failed at n={cert['n']}: "
            + "; ".join(f"{k}: {cert['checks'][k]['detail']}" for k in failed)
        )
        err.certificate = cert
        raise err
    return cert


def verify_x_family(xf, *, raise_on_failure=True):
    """Re-check properties (1)-(3) from the members alone."""
    n = xf.n
    inter, wsets = _witness_sets(xf.members, n)
    p1 = _check(
        inter == 0,
        "no common partial sum"
        if inter == 0
        else f"common partial sums {_bits(inter)}",
    )

    bad = []
    seen = {}
    for p, w in zip(xf.members, wsets):
        claimed = xf.witnesses.get(p, 0)
        if w == 0:
            bad.append(f"{p} has empty witness set")
        elif claimed < 1 or not w >> claimed & 1:
            bad.append(f"claimed witness {claimed} of {p} is not valid")
        elif claimed in seen:
            bad.append(f"witness {claimed} reused by {seen[claimed]} and {p}")
        else:
            seen[claimed] = p
    p2 = _check(
        not bad,
        "every member has its private witness" if not bad else "; ".join(bad),
    )

    ok3 = _size_exceeds_half_minus_log(n, len(xf.members))
    p3 = _check(
        ok3,
        f"size {len(xf.members)} vs n/2 - log2(n) = {n / 2 - math.log2(n):.3f}",
    )

    cert = certificate(xf, {"property1": p1, "property2": p2, "property3": p3})
    if raise_on_failure:
        _raise_if_failed(cert, "family verification")
    return cert


def verify_mig_lower_bound(xf, *, raise_on_failure=True):
    """Check that no proper transitive subgroup meets every class of X.

    Together with properties (1) and (2) this makes X a witness that a
    minimal invariable generating set of size |X| exists.  For n from
    MIN_DEGREE (5) to MAX_DEGREE (12) the bundled maximal-subgroup data
    answers exactly; above it the checks replay the proof's eliminations:
    an odd member (nothing inside the alternating group), a member with a
    power that is a prime cycle fixing at least 3 points (by Jordan's
    theorem nothing else primitive), and for each block size a of n a
    member outside S_a wr S_{n/a} (nothing imprimitive).
    """
    cert = certificate(xf, _lower_bound_checks(xf))
    if raise_on_failure:
        _raise_if_failed(cert, "lower-bound verification")
    return cert


def _lower_bound_checks(xf):
    """The checks of `verify_mig_lower_bound`, without the certificate, for
    callers that keep only the checks."""
    n = xf.n
    if n < MIN_DEGREE:
        raise ConstructionError(
            f"lower-bound verification starts at n={MIN_DEGREE}, got {n}"
        )
    if n <= MAX_DEGREE:
        checks = _exact_oracle_checks(xf)
        checks["method"] = _check(True, "exact maximal-subgroup oracle")
    else:
        checks = _replay_checks(xf)
        checks["method"] = _check(True, "proof replay")
    return checks


def _exact_oracle_checks(xf):
    n = xf.n
    common, others = incidence(xf.members, n)
    by_kind = {}
    for i, rec in enumerate(maximal_subgroups(n)):
        if common >> i & 1:
            by_kind.setdefault(rec.kind, []).append(rec.label)
    parity_ok = "alternating" not in by_kind
    jordan_ok = not any(k in by_kind for k in ("affine", "almost_simple"))
    blocks_ok = "imprimitive" not in by_kind
    mig = common == 0 and all(others)
    return {
        "parity": _check(
            parity_ok,
            "some member is odd"
            if parity_ok
            else "every member lies in the alternating group",
        ),
        "jordan": _check(
            jordan_ok,
            "no primitive subgroup meets every class"
            if jordan_ok
            else f"primitive subgroup(s) meet all classes: {by_kind}",
        ),
        "blocks": _check(
            blocks_ok,
            "no imprimitive subgroup meets every class"
            if blocks_ok
            else f"imprimitive subgroup(s) meet all classes: {by_kind}",
        ),
        "minimal": _check(
            mig,
            "family is a minimal invariable generating set"
            if mig
            else "oracle rejects the family",
        ),
    }


def _replay_checks(xf):
    """The proof's eliminations of the transitive maximal subgroups, each
    naming the member that does the work.  Members with the fewest distinct
    parts are tried first: the long-cycle tail class usually settles a check
    at once."""
    n = xf.n
    order = sorted(xf.members, key=lambda p: len(p.multiplicities()))

    odd = next((p for p in order if parity(p) == "odd"), None)
    parity_check = _check(
        odd is not None,
        f"{odd} is odd" if odd else "every member lies in the alternating group",
    )

    jordan_check = _check(
        False, "no member has a power that is a prime cycle fixing >= 3 points"
    )
    for p in order:
        ell = jordan_witness(p)
        if ell is None:
            continue
        k = math.lcm(*(a for a, _ in p.multiplicities() if a != ell))
        if power_type(p, k) == Partition._from_runs([(ell, 1), (1, n - ell)]):
            jordan_check = _check(
                True, f"power {k} of {p} is a {ell}-cycle fixing {n - ell} >= 3 points"
            )
            break

    eliminated, survivors = [], []
    for a in _divisors(n)[1:-1]:  # block sizes 2..n/2
        b = n // a
        p = next((q for q in order if not wreath_realizable(q, a, b)), None)
        if p is None:
            survivors.append(f"every member fits S_{a} wr S_{b}")
        else:
            eliminated.append(f"{p} fits no S_{a} wr S_{b}")
    detail = "; ".join(survivors or eliminated) or f"{n} is prime: no block system"
    return {
        "parity": parity_check,
        "jordan": jordan_check,
        "blocks": _check(not survivors, detail),
    }
