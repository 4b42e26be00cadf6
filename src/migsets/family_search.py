"""Exact maximum-size search for partition families with private witnesses.

A family of partitions of n is valid when, writing M_x for the set of
partial sums of x restricted to [1, n/2]:

  (1) the intersection of all M_x is empty, and
  (2) every member x has a witness: an integer lying in M_y for every other
      member y but not in M_x.

Witness sets of distinct members are pairwise disjoint: if i were a witness
for both x and y, then i would lie in M_y (as a witness for x) and outside
M_y (as a witness for y).  Two consequences are used freely below.  First, a
valid family never repeats a restricted mask, so the search runs over
distinct masks and treats partitions sharing a mask as interchangeable.
Second, picking each member's smallest witness already yields an injective
assignment, so per-node feasibility reduces to "all witness sets non-empty";
a bipartite matching between members and witness integers exists exactly
then, and `match_witnesses` re-derives the assignment that way as a
cross-check.

The branch-and-bound engine prunes by three rules, none of which can change
the reported result (each only cuts branches that cannot beat the incumbent):

  (a) capacity: every member added after vector v needs a private witness
      inside inter & v (inter: the bits common to all chosen vectors), and
      witness sets are disjoint, so a child can reach at most
      len(chosen) + 1 + popcount(inter & v) members; it is skipped when
      that is <= the incumbent size.  Evaluated per child, against the
      current incumbent.  Its root case bounds every family by
      popcount(universe) (⌊n/2⌋ for masks), so no separate depth cap is
      needed.
  (b) remaining: fewer candidates left than needed to beat the incumbent.
  (c) seeding: an optional externally known family size starts the
      incumbent one below it (only branches that cannot reach a size known
      to exist are cut).

`iter_families` applies (a) and (b) against the requested size instead of
an incumbent.  Feasibility filtering is not a heuristic: supersets of an
infeasible family are infeasible.  `prune=False` switches (a) and (b) off, and
`max_family_bruteforce` is a deliberately naive include/exclude oracle kept
free of (a)-(c); both serve as cross-checks.

Candidate masks are ordered by popcount then value, and the DFS explores
index-increasing subsets, so the first optimum found is the
lexicographically smallest mask sequence; reported results are deterministic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .partitions import (
    DEFAULT_ENUMERATION_CAP,
    Partition,
    enumerate_partitions,
    partial_sums,
    wreath_realizable,
)


class SearchError(ValueError):
    """Search preconditions violated (degree out of range, cap exceeded)."""


@dataclass(frozen=True)
class MaskGroup:
    """All partitions of n sharing one restricted partial-sum mask."""

    n: int
    bits: int  # bit i set iff i is a partial sum, 1 <= i <= n//2
    representatives: tuple

    def contains(self, i):
        return bool(self.bits >> i & 1)


@dataclass(frozen=True)
class SearchResult:
    n: int
    t_max: int
    optimal_family: tuple  # one representative partition per chosen mask
    witness_assignment: dict  # member -> witness integer (or descriptor index)
    masks: tuple  # chosen masks (or descriptor vectors), family order
    nodes_explored: int
    exhaustive: bool
    descriptors: tuple = ()  # set by the descriptor variant only
    prunes: dict = field(default_factory=dict)  # rule name -> times it fired

    def summary_row(self):
        return (self.n, self.t_max, self.nodes_explored)


def _universe(n):
    return (1 << (n // 2 + 1)) - 2  # bits 1..n//2


def enumerate_masks(n, *, cap=DEFAULT_ENUMERATION_CAP):
    """All partitions of n grouped by restricted mask; groups ordered by
    popcount then mask value, representatives ordered by parts."""
    if n < 2:
        raise SearchError(f"need n >= 2, got {n}")
    if n > cap:
        raise SearchError(f"full partition enumeration capped at n={cap}, got {n}")
    half = _universe(n)
    groups = {}
    for p in enumerate_partitions(n, cap=cap):
        bits = partial_sums(p).bits & half
        groups.setdefault(bits, []).append(p)
    return [
        MaskGroup(n=n, bits=bits, representatives=tuple(sorted(ps, key=lambda p: p.parts)))
        for bits, ps in sorted(groups.items(), key=lambda kv: (kv[0].bit_count(), kv[0]))
    ]


def _min_bit(x):
    return (x & -x).bit_length() - 1


def leave_one_out(masks, full):
    """Return ``(common, others)``: the AND of ``full`` with every mask, and
    for each i the AND of ``full`` with every mask but ``masks[i]``.  Prefix
    and suffix ANDs make it linear in the number of masks."""
    suffix = [full]
    for m in reversed(masks):
        suffix.append(suffix[-1] & m)
    suffix.reverse()
    common = full
    others = []
    for i, m in enumerate(masks):
        others.append(common & suffix[i + 1])
        common &= m
    return common, others


def match_witnesses(wsets):
    """Injective witness assignment via augmenting paths; None if impossible.

    Exists iff all sets are non-empty (disjointness theorem above); kept as
    an independent cross-check of that argument.
    """
    owner = {}  # witness integer -> member index

    def augment(i, banned):
        w = wsets[i]
        while w:
            b = _min_bit(w)
            w &= w - 1
            if b in banned:
                continue
            banned.add(b)
            if b not in owner or augment(owner[b], banned):
                owner[b] = i
                return True
        return False

    for i in range(len(wsets)):
        if not augment(i, set()):
            return None
    return {i: b for b, i in owner.items()}


class _Engine:
    """Shared DFS over candidate bit vectors.

    require_empty: demand the intersection over chosen vectors be empty
    (property (1)); the descriptor variant drops it.
    """

    def __init__(self, vectors, universe, *, require_empty, prune=True, seed=0):
        self.vectors = vectors
        self.universe = universe
        self.require_empty = require_empty
        self.prune = prune
        self.best_size = max(seed - 1, 0)
        self.seeded = seed > 0
        self.best = None
        self.nodes = 0
        self.prunes = {"remaining": 0, "capacity": 0}

    def run(self):
        self._rec(0, [], [], self.universe)
        if self.seeded and self.best is None:
            raise SearchError(
                "seeded lower bound exceeds the true maximum; incumbent is wrong"
            )
        return self.best

    def _rec(self, start, chosen, wsets, inter):
        self.nodes += 1
        if chosen and len(chosen) > self.best_size and (
            not self.require_empty or inter == 0
        ):
            self.best_size = len(chosen)
            self.best = (list(chosen), list(wsets))
        for k in range(start, len(self.vectors)):
            if self.prune and len(chosen) + (len(self.vectors) - k) <= self.best_size:
                self.prunes["remaining"] += 1
                return
            v = self.vectors[k]
            common = inter & v
            if self.prune and len(chosen) + 1 + common.bit_count() <= self.best_size:
                self.prunes["capacity"] += 1
                continue
            new_wsets = [w & v for w in wsets]
            fresh = inter & ~v
            if fresh == 0 or any(w == 0 for w in new_wsets):
                continue
            new_wsets.append(fresh)
            chosen.append(k)
            self._rec(k + 1, chosen, new_wsets, common)
            chosen.pop()


def _witness_map(members, wsets):
    """Each member's smallest witness, cross-checked by bipartite matching."""
    if match_witnesses(wsets) is None:
        raise SearchError("witness sets non-empty yet unmatchable; theorem violated")
    witness = {members[i]: _min_bit(wsets[i]) for i in range(len(members))}
    if len(set(witness.values())) != len(witness):
        raise SearchError("witness sets overlap; theorem violated")
    return witness


def max_family(n, *, cap=DEFAULT_ENUMERATION_CAP, known_lower_bound=0, prune=True):
    """Exact maximum family size, with a lexicographically smallest optimal
    family and its witness assignment.

    known_lower_bound may carry the size of a family known to exist (e.g.
    from the explicit construction); it only seeds the incumbent, never
    changes the result.
    """
    if n < 5:
        raise SearchError(f"need n >= 5, got {n}")
    groups = enumerate_masks(n, cap=cap)
    engine = _Engine(
        [g.bits for g in groups],
        _universe(n),
        require_empty=True,
        prune=prune,
        seed=known_lower_bound,
    )
    found = engine.run()
    if found is None:
        raise SearchError(f"no valid family at n={n}")  # size 1 always exists
    idxs, wsets = found
    members = tuple(groups[k].representatives[0] for k in idxs)
    return SearchResult(
        n=n,
        t_max=len(members),
        optimal_family=members,
        witness_assignment=_witness_map(members, wsets),
        masks=tuple(groups[k].bits for k in idxs),
        nodes_explored=engine.nodes,
        exhaustive=True,
        prunes=engine.prunes,
    )


def iter_families(n, size, *, cap=DEFAULT_ENUMERATION_CAP):
    """All valid families of exactly the given size, in deterministic order:
    lexicographic over mask indices, then over representative choices."""
    if size < 1:
        raise SearchError("family size must be positive")
    groups = enumerate_masks(n, cap=cap)
    vectors = [g.bits for g in groups]
    universe = _universe(n)

    def rec(start, chosen, wsets, inter):
        if len(chosen) == size:
            if inter == 0:
                yield from itertools.product(
                    *(groups[k].representatives for k in chosen)
                )
            return
        for k in range(start, len(vectors)):
            if len(chosen) + (len(vectors) - k) < size:
                return
            v = vectors[k]
            common = inter & v
            if len(chosen) + 1 + common.bit_count() < size:
                continue
            new_wsets = [w & v for w in wsets]
            fresh = inter & ~v
            if fresh == 0 or any(w == 0 for w in new_wsets):
                continue
            yield from rec(k + 1, chosen + [k], new_wsets + [fresh], common)

    yield from rec(0, [], [], universe)


def max_family_bruteforce(n, *, limit=14):
    """Independent slow oracle: include/exclude over distinct masks with a
    from-scratch validity check at every completed subset.  The only
    speed-up is abandoning supersets of witness-infeasible sets, which is
    part of validity, not a bound."""
    if n > limit:
        raise SearchError(f"naive oracle limited to n <= {limit}")
    masks = [g.bits for g in enumerate_masks(n)]
    universe = _universe(n)

    def witnesses_ok(subset):
        for i, m in enumerate(subset):
            w = universe & ~m
            for j, other in enumerate(subset):
                if j != i:
                    w &= other
            if w == 0:
                return False
        return True

    def valid(subset):
        inter = universe
        for m in subset:
            inter &= m
        return inter == 0 and witnesses_ok(subset)

    best = 0

    def rec(idx, subset):
        nonlocal best
        if valid(subset):
            best = max(best, len(subset))
        if idx == len(masks):
            return
        if witnesses_ok(subset + [masks[idx]]):
            rec(idx + 1, subset + [masks[idx]])
        rec(idx + 1, subset)

    rec(0, [])
    return best


def descriptors(n):
    """Intransitive and imprimitive subgroup descriptors of degree n:
    set sizes 1..⌊n/2⌋, then block shapes (a, b) with ab = n, a, b >= 2."""
    out = [("intransitive", s) for s in range(1, n // 2 + 1)]
    out.extend(
        ("imprimitive", a, n // a)
        for a in range(2, n // 2 + 1)
        if n % a == 0
    )
    return tuple(out)


def _meets(p, desc):
    _, a, b = desc
    return wreath_realizable(p, a, b)


DESCRIPTOR_SEARCH_CAP = 24


def max_family_intransitive_imprimitive(n, *, cap=DESCRIPTOR_SEARCH_CAP, prune=True):
    """Largest family of classes each privately avoiding one intransitive or
    imprimitive descriptor while meeting all the others' (the descriptor
    analogue of max_family, without the empty-intersection demand)."""
    if n < 5:
        raise SearchError(f"need n >= 5, got {n}")
    if n > cap:
        raise SearchError(f"descriptor search capped at n={cap}, got {n}")
    descs = descriptors(n)
    half = _universe(n)
    blocks = descs[n // 2 :]
    groups = {}
    for p in enumerate_partitions(n):
        # descriptor d < n//2 is the intransitive size d + 1: a partial sum
        vec = (partial_sums(p).bits & half) >> 1
        for j, desc in enumerate(blocks):
            if _meets(p, desc):
                vec |= 1 << (n // 2 + j)
        groups.setdefault(vec, []).append(p)
    ordered = sorted(groups.items(), key=lambda kv: (kv[0].bit_count(), kv[0]))
    vectors = [vec for vec, _ in ordered]
    engine = _Engine(
        vectors,
        (1 << len(descs)) - 1,
        require_empty=False,
        prune=prune,
    )
    found = engine.run()
    if found is None:
        raise SearchError(f"no descriptor family at n={n}")  # size 1 always exists
    idxs, wsets = found
    members = tuple(sorted(ordered[k][1], key=lambda p: p.parts)[0] for k in idxs)
    return SearchResult(
        n=n,
        t_max=len(members),
        optimal_family=members,
        witness_assignment=_witness_map(members, wsets),
        masks=tuple(vectors[k] for k in idxs),
        nodes_explored=engine.nodes,
        exhaustive=True,
        descriptors=descs,
        prunes=engine.prunes,
    )
