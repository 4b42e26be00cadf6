"""Exact maximum-size search for partition families with private witnesses.

A family of partitions of n is valid when, writing M_x for the set of
partial sums of x restricted to [1, n/2]:

  (1) the intersection of all M_x is empty, and
  (2) every member x has a witness: an integer lying in M_y for every other
      member y but not in M_x.

Witness sets of distinct members are pairwise disjoint: if i were a witness
for both x and y, then i would lie in M_y (as a witness for x) and outside
M_y (as a witness for y).  So a valid family never repeats a restricted
mask, and picking each member's smallest witness already yields an
injective assignment; the tests check this against a bipartite matching.

Disjointness also turns the search around.  Choosing one witness b_x per
member gives a set B of universe bits with M_x & B == B minus b_x for every
x.  Conversely, a *witness set* -- a set B such that every bit b of B has a
vector v with v & B == B ^ (1 << b) -- yields a family satisfying (2), one
such vector per bit (the column of b), each with the private witness b;
the members are distinct because their restrictions to B differ.  So the
largest family is the largest witness set (up to property (1)), and witness
sets are closed under subsets.  The search is one DFS over increasing
universe bits that adds a bit only when every column of the enlarged set
still has a vector.  A node holds, as bitsets of vector positions, the
vectors having every bit of B and per column of B those fitting it.  A
child c is checked on its own fit first (the vectors having B and lacking
c), then one chosen column at a time, ANDing in the vectors having c, and
is dropped at the first empty fit.  The one bound cuts a branch when
len(B) plus the bits left cannot beat the incumbent; its cut index is
recomputed only after a child returns, since only a child grows the
incumbent.  Each vector's row of binary digits is padded by a top bit, so
`bin()` spells every row in the same width and a column is one slice of
the rows joined.

Those bitsets start as wide as the number of vectors (130,631 bits at
n=80), but below a node only its *live* vectors -- those in any of its
bitsets -- can fit a column, and deep in a wide search a few hundred are.
So every third level, when the live vectors are fewer than an eighth of the
width, `_search` rebuilds the columns over the live vectors alone, in
ascending group order, with an index list from a position back to its
group; the lowest position of a bitset is still its lowest group, so the
nodes and the first pick do not change.  It does so only while the width
is at least `REINDEX_MIN_VECTORS`: narrower ANDs cost little more than the
interpreter's overhead, and the checks would cost more than they save, so
the mask searches to n=55 and every descriptor search never re-index.

The search takes its vectors as ``(bits, parts)`` pairs, ordered by
popcount then bits, and builds a `Partition` only for the groups of the
reported family: it realizes the first largest witness set B once, for each
column of B, in bit order, by the lowest group whose vector fits, so
results are deterministic.  `max_family` then checks property (1) on that
pick and raises `SearchError` if its AND over the universe is not 0; the
first pick has had an empty AND at every degree 5..80, so no search over
other picks is kept.  The descriptor search has no property (1).

`max_family` only needs one partition per mask, and there are far fewer
masks than partitions: 2,273 among 37,338 at n=40, 130,631 among about
15.8 million at n=80.  `mask_groups(n)` finds them by a DFS over the parts
of a partition, largest first.  The state -- the sum left, the largest part
allowed, and the partial sums so far within [0, n/2] -- fixes every mask
below it, so each state is expanded once.  Children are tried in increasing
part order, so the first partition to reach a mask is the lexicographically
smallest one with it: the representative `enumerate_masks` lists first.
A tail of ones is closed in O(log) shifts, as `partial_sums` closes a run.
This runs the search to degree 80 (`MAX_FAMILY_DEGREE`).  `enumerate_masks`
still groups every partition, to degree 40: `iter_families` and
`max_family_bruteforce` take all representatives of a mask.

The descriptor search, `subgroup_oracle.max_family_intransitive_imprimitive`,
runs `_search` on the vectors of the intransitive and imprimitive maximal
subgroups each class meets.  Its wreath bits depend on the whole partition,
not on a mask state, so `vector_groups` keeps the last parts tuple per
vector (the lexicographically smallest) over one walk of all partitions,
`partitions._walk_partitions`, which `enumerate_masks` groups on too.

Both properties are read off one kernel, `witness_sets(masks, full)`: the
AND of the masks, and per mask the bits every other mask has and it lacks.

`iter_families` is a plain filter over combinations of the mask groups, and
`max_family_bruteforce` a deliberately naive include/exclude oracle; both
serve as references for the search.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field

from .partitions import (
    DEFAULT_ENUMERATION_CAP,
    _check_integer,
    _shift_copies,
    _unchecked,
    _universe,
    _walk_partitions,
)


# The include/exclude oracle doubles its work per mask; refuse past this.
BRUTEFORCE_LIMIT = 14

# `max_family` on the mask-state DP: 757k states and 131k masks at n=80.
MAX_FAMILY_DEGREE = 80

# `_search` re-indexes to its live vectors when they are fewer than its
# width over REINDEX_SHRINK and the width is at least REINDEX_MIN_VECTORS
# (see the module docstring).
REINDEX_MIN_VECTORS = 13_000
REINDEX_SHRINK = 8


class SearchError(ValueError):
    """Search preconditions violated (degree out of range, cap exceeded)."""


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
    prunes: dict = field(default_factory=dict)  # bound name -> times it fired


def _check_degree(n, *, low, high, what):
    _check_integer(n, SearchError)
    if n < low:
        raise SearchError(f"need n >= {low}, got {n}")
    if n > high:
        raise SearchError(f"{what} capped at n={high}, got {n}")


def _by_popcount(items):
    """(bits, value) pairs ordered by popcount, then bits."""
    return sorted(items, key=lambda kv: (kv[0].bit_count(), kv[0]))


def vector_groups(n, vector):
    """``(bits, parts)`` for each value of ``vector(parts, sums)``, sums the
    partial sums in 0..n//2, over the partitions of n, ordered by popcount
    then bits, with the parts tuple of the lexicographically smallest
    partition: the last in enumeration order, so the last wins."""
    groups = {}

    def visit(parts, sums):
        groups[vector(parts, sums)] = parts

    _walk_partitions(n, n // 2, visit)
    return _by_popcount(groups.items())


def enumerate_masks(n):
    """``(bits, representatives)`` for every restricted mask of the
    partitions of n: bit i of bits set iff i is a partial sum, 1 <= i <=
    n//2, and every partition with that mask, ordered by parts
    (enumeration reversed); pairs ordered by popcount then bits."""
    what = "full partition enumeration"
    _check_degree(n, low=2, high=DEFAULT_ENUMERATION_CAP, what=what)
    half = _universe(n)
    groups = {}

    def visit(parts, sums):
        groups.setdefault(sums & half, []).append(parts)

    _walk_partitions(n, n // 2, visit)
    return [
        (bits, tuple(_unchecked(parts, n) for parts in reversed(ps)))
        for bits, ps in _by_popcount(groups.items())
    ]


def mask_groups(n):
    """``(bits, parts)`` for each group of `enumerate_masks(n)`, in its
    order, with the parts tuple of its first representative, the
    lexicographically smallest partition with that mask; by a DFS over mask
    states, so n may go to `MAX_FAMILY_DEGREE`."""
    _check_degree(n, low=2, high=MAX_FAMILY_DEGREE, what="the mask-state DP")
    universe = _universe(n)
    kept = universe | 1  # sums 0..n//2: the rest never matter
    width = n.bit_length()
    first = {}  # restricted mask -> parts of the first partition reaching it
    seen = set()  # states expanded, one int each: (sums, left, top)
    parts = []

    def rec(left, top, sums):
        # parts so far sum to n - left with partial sums `sums`; add a part
        # a <= top, smallest first.  a = 1 leaves only ones, each adding
        # every sum + 1; a larger a leaving at most one 1 closes at once
        mask = _shift_copies(sums, 1, left) & universe
        if mask not in first:
            first[mask] = (*parts, *(1,) * left)
        for a in range(2, top + 1):
            rest = left - a
            s = (sums | sums << a) & kept
            if rest <= 1:
                mask = (s | s << rest) & universe
                if mask not in first:
                    first[mask] = (*parts, a, *(1,) * rest)
                continue
            t = a if a < rest else rest
            key = (s << width | rest) << width | t
            if key in seen:
                continue
            seen.add(key)
            parts.append(a)
            rec(rest, t, s)
            parts.pop()

    rec(n, n, 1)
    return _by_popcount(first.items())


def _min_bit(x):
    return (x & -x).bit_length() - 1


def _bits(x):
    """The positions of the set bits of x, ascending: one regex scan of its
    binary digits, so a wide sparse x costs no Python step per zero bit."""
    return [m.start() for m in re.finditer("1", format(x, "b")[::-1])]


def witness_sets(masks, full):
    """Return ``(common, wsets)``: the AND of ``full`` with every mask, and
    for each i the bits of ``full`` that every other mask has and
    ``masks[i]`` lacks.  Prefix and suffix ANDs make it linear in the
    number of masks."""
    suffix = [full]
    for m in reversed(masks):
        suffix.append(suffix[-1] & m)
    suffix.reverse()
    common = full
    wsets = []
    for i, m in enumerate(masks):
        wsets.append(common & suffix[i + 1] & ~m)
        common &= m
    return common, wsets


def _witness_map(members, wsets):
    """Each member's smallest witness; distinct when the witness sets are
    disjoint, as the theorem above says they are.  One pass hashes each
    member once: a member's first hash computes its runs."""
    witness = {}
    for p, w in zip(members, wsets):
        if w == 0:
            raise SearchError(f"member {p} has no witness")
        witness[p] = _min_bit(w)
    if len(set(witness.values())) != len(witness):
        raise SearchError("witness sets overlap; theorem violated")
    return witness


def _search(n, groups, universe):
    """Find the first largest witness set over the ``(bits, parts)``
    groups' vectors and report its first pick as the family, building one
    Partition per chosen group."""
    # the vectors are indexed by position: position j is group index[j],
    # and index ascends, so a bitset's lowest position is its lowest group
    w = universe.bit_length()
    top = 1 << w  # pads each row to "0b1" and w digits
    rows = [bin(bits & universe | top) for bits, _ in groups]
    cols = _bits(universe)
    best = []  # the incumbent's fits, over the positions of best_index
    best_index = None
    nodes = cuts = 0

    def columns(index):
        # per column, the positions whose vector holds its bit, and those
        # whose vector lacks it: the vectors' padded rows joined, last
        # first, so column b is every (w + 3)-th character, and building
        # it costs no big-int arithmetic
        joined = "".join([rows[k] for k in reversed(index)])
        has = [int(joined[w + 2 - b :: w + 3] or "0", 2) for b in cols]
        full = (1 << len(index)) - 1
        return index, has, [full ^ h for h in has]

    def rec(chosen, fits, common, view):
        # chosen: the chosen columns; fits: per chosen column, the vectors
        # fitting it; common: the vectors holding every chosen bit
        nonlocal best, best_index, nodes, cuts
        nodes += 1
        index, has, lacks = view
        if len(fits) > len(best):
            best, best_index = fits, index
        if len(index) >= REINDEX_MIN_VECTORS and len(chosen) % 3 == 0:
            live = common
            for f in fits:
                live |= f
            if live.bit_count() * REINDEX_SHRINK < len(index):
                # only the live vectors can fit a column below this node
                view = index, has, lacks = columns([index[j] for j in _bits(live)])
                full = (1 << len(index)) - 1
                common, fits = witness_sets([has[c] for c in chosen], full)
        # the bound: column i on cannot beat the incumbent, which only a
        # child can grow
        stop = len(fits) + len(has) - len(best)
        for i in range(chosen[-1] + 1 if chosen else 0, len(has)):
            if i >= stop:
                cuts += 1
                return
            own = common & lacks[i]
            if not own:
                continue
            h = has[i]
            grown = []
            for f in fits:
                f &= h
                if not f:
                    break
                grown.append(f)
            else:
                grown.append(own)
                rec(chosen + (i,), grown, common & h, view)
                stop = len(fits) + len(has) - len(best)

    rec((), [], (1 << len(groups)) - 1, columns(range(len(groups))))
    # the first pick: each column's lowest group index, listed in group order
    idxs = sorted(best_index[_min_bit(f)] for f in best)
    members = tuple(_unchecked(groups[k][1], n) for k in idxs)
    masks = tuple(groups[k][0] for k in idxs)
    return SearchResult(
        n=n,
        t_max=len(members),
        optimal_family=members,
        witness_assignment=_witness_map(members, witness_sets(masks, universe)[1]),
        masks=masks,
        nodes_explored=nodes,
        exhaustive=True,
        prunes={"bound": cuts},
    )


def max_family(n):
    """Exact maximum family size, with the first pick of the first largest
    witness set and its witness assignment; SearchError if that pick shares
    a partial sum."""
    _check_degree(n, low=5, high=MAX_FAMILY_DEGREE, what="the mask search")
    universe = _universe(n)
    r = _search(n, mask_groups(n), universe)
    common, _ = witness_sets(r.masks, universe)
    if common:
        raise SearchError(
            f"property (1) fails: every member has partial sums {_bits(common)}"
        )
    return r


def iter_families(n, size):
    """An iterator over all valid families of exactly the given size, in
    deterministic order: lexicographic over mask indices, then over
    representative choices.  The call groups the masks, so a bad n or size
    is refused by it, not by the first `next()`."""
    _check_integer(size, SearchError, "family size")
    if size < 1:
        raise SearchError("family size must be positive")
    groups = enumerate_masks(n)
    universe = _universe(n)

    def families():
        for combo in itertools.combinations(groups, size):
            masks, representatives = zip(*combo)
            common, wsets = witness_sets(masks, universe)
            if common == 0 and all(wsets):
                yield from itertools.product(*representatives)

    return families()


def max_family_bruteforce(n):
    """Independent slow oracle: include/exclude over distinct masks with a
    from-scratch validity check at every completed subset.  The only
    speed-up is abandoning supersets of witness-infeasible sets, which is
    part of validity, not a bound."""
    if n > BRUTEFORCE_LIMIT:
        raise SearchError(f"naive oracle limited to n <= {BRUTEFORCE_LIMIT}")
    masks = [bits for bits, _ in enumerate_masks(n)]
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
