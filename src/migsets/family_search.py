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

All three searches run the one engine, `_Engine`, which hands every
feasible node to a visit function of the caller's.  `max_family` and the
descriptor search keep the first largest node and raise the incumbent;
`iter_families` pins the incumbent one below the requested size, so (a) and
(b) cut exactly the branches that cannot reach it, and records each family
of that size without descending further.  Feasibility filtering is not a
heuristic: supersets of an infeasible family are infeasible.
`prune=False` switches (a) and (b) off, and `max_family_bruteforce` is a
deliberately naive include/exclude oracle kept free of (a)-(c); both serve
as cross-checks.

Candidate masks are ordered by popcount then value, and the DFS explores
index-increasing subsets, so the first optimum found is the
lexicographically smallest mask sequence; reported results are deterministic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .partitions import (
    DEFAULT_ENUMERATION_CAP,
    _divisors,
    enumerate_partitions,
    partial_sums,
    wreath_realizable,
)


class SearchError(ValueError):
    """Search preconditions violated (degree out of range, cap exceeded)."""


@dataclass(frozen=True)
class MaskGroup:
    """All partitions of n sharing one bit vector: the restricted partial-sum
    mask, or in the descriptor search the descriptors a class meets."""

    n: int
    bits: int  # bit i set iff i is a partial sum, 1 <= i <= n//2 (masks)
    representatives: tuple


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


def _universe(n):
    return (1 << (n // 2 + 1)) - 2  # bits 1..n//2


def _group(n, vector, *, cap=DEFAULT_ENUMERATION_CAP):
    """All partitions of n grouped by ``vector(p)``; groups ordered by
    popcount then vector value, representatives ordered by parts."""
    groups = {}
    for p in enumerate_partitions(n, cap=cap):
        groups.setdefault(vector(p), []).append(p)
    return [
        MaskGroup(n=n, bits=bits, representatives=tuple(sorted(ps, key=lambda p: p.parts)))
        for bits, ps in sorted(groups.items(), key=lambda kv: (kv[0].bit_count(), kv[0]))
    ]


def enumerate_masks(n, *, cap=DEFAULT_ENUMERATION_CAP):
    """All partitions of n grouped by restricted mask (ordered as `_group`)."""
    if n < 2:
        raise SearchError(f"need n >= 2, got {n}")
    if n > cap:
        raise SearchError(f"full partition enumeration capped at n={cap}, got {n}")
    half = _universe(n)
    return _group(n, lambda p: partial_sums(p).bits & half, cap=cap)


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
    """The branch-and-bound DFS over candidate bit vectors.

    Every node whose members all keep a witness, the root included, goes to
    ``visit(engine, chosen, wsets, inter)``: the chosen vector indices, their
    witness sets, and the bits of the universe common to all chosen vectors.
    The visitor records what it needs, may raise ``best_size``, and returns
    whether to descend.  Rules (a) and (b) cut every child that cannot grow
    past ``best_size``.
    """

    def __init__(self, vectors, universe, visit, *, prune=True, best_size=0):
        self.vectors = vectors
        self.universe = universe
        self.visit = visit
        self.prune = prune
        self.best_size = best_size
        self.nodes = 0
        self.prunes = {"remaining": 0, "capacity": 0}

    def run(self):
        self._rec(0, [], [], self.universe)
        return self

    def _rec(self, start, chosen, wsets, inter):
        self.nodes += 1
        if not self.visit(self, chosen, wsets, inter):
            return
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
    for p, w in zip(members, wsets):
        if w == 0:
            raise SearchError(f"member {p} has no witness")
    if match_witnesses(wsets) is None:
        raise SearchError("witness sets non-empty yet unmatchable; theorem violated")
    witness = {p: _min_bit(w) for p, w in zip(members, wsets)}
    if len(set(witness.values())) != len(witness):
        raise SearchError("witness sets overlap; theorem violated")
    return witness


def _search(n, groups, universe, *, require_empty, prune, seed=0, descriptors=()):
    """Run the engine over the groups' vectors and report the first largest
    family, one representative per group.  require_empty demands property
    (1), an empty intersection; seed is a family size known to exist."""
    best = None

    def keep_largest(engine, chosen, wsets, inter):
        nonlocal best
        if len(chosen) > engine.best_size and not (require_empty and inter):
            engine.best_size = len(chosen)
            best = (list(chosen), list(wsets))
        return True

    vectors = [g.bits for g in groups]
    engine = _Engine(
        vectors, universe, keep_largest, prune=prune, best_size=max(seed - 1, 0)
    ).run()
    if best is None:  # one-member families always exist: only a seed gets here
        raise SearchError(
            "seeded lower bound exceeds the true maximum; incumbent is wrong"
        )
    idxs, wsets = best
    members = tuple(groups[k].representatives[0] for k in idxs)
    return SearchResult(
        n=n,
        t_max=len(members),
        optimal_family=members,
        witness_assignment=_witness_map(members, wsets),
        masks=tuple(vectors[k] for k in idxs),
        nodes_explored=engine.nodes,
        exhaustive=True,
        descriptors=descriptors,
        prunes=engine.prunes,
    )


def max_family(n, *, cap=DEFAULT_ENUMERATION_CAP, known_lower_bound=0, prune=True):
    """Exact maximum family size, with a lexicographically smallest optimal
    family and its witness assignment.

    known_lower_bound may carry the size of a family known to exist (e.g.
    from the explicit construction); it only seeds the incumbent, never
    changes the result.
    """
    if n < 5:
        raise SearchError(f"need n >= 5, got {n}")
    return _search(
        n,
        enumerate_masks(n, cap=cap),
        _universe(n),
        require_empty=True,
        prune=prune,
        seed=known_lower_bound,
    )


def iter_families(n, size, *, cap=DEFAULT_ENUMERATION_CAP):
    """All valid families of exactly the given size, in deterministic order:
    lexicographic over mask indices, then over representative choices."""
    if size < 1:
        raise SearchError("family size must be positive")
    groups = enumerate_masks(n, cap=cap)
    found = []

    def collect(engine, chosen, wsets, inter):
        if len(chosen) < size:
            return True
        if inter == 0:
            found.append(list(chosen))
        return False

    _Engine([g.bits for g in groups], _universe(n), collect, best_size=size - 1).run()
    for idxs in found:
        yield from itertools.product(*(groups[k].representatives for k in idxs))


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
    return tuple(
        [("intransitive", s) for s in range(1, n // 2 + 1)]
        + [("imprimitive", a, n // a) for a in _divisors(n)[1:-1]]
    )


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
    blocks = tuple(enumerate(descs[n // 2 :], n // 2))

    def vector(p):
        # descriptor d < n//2 is the intransitive size d + 1: a partial sum
        vec = (partial_sums(p).bits & half) >> 1
        for d, (_, a, b) in blocks:
            if wreath_realizable(p, a, b):
                vec |= 1 << d
        return vec

    return _search(
        n,
        _group(n, vector),
        (1 << len(descs)) - 1,
        require_empty=False,
        prune=prune,
        descriptors=descs,
    )
