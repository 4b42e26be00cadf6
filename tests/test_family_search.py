"""Tests for the exact family search."""

import itertools
import math
import random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from migsets import family_search, subgroup_oracle
from migsets.constructions import build_x_family
from migsets.family_search import (
    MAX_FAMILY_DEGREE,
    SearchError,
    SearchResult,
    _min_bit,
    _search,
    _universe,
    _witness_map,
    enumerate_masks,
    iter_families,
    mask_groups,
    max_family,
    max_family_bruteforce,
    witness_sets,
)
from migsets.partitions import (
    Partition,
    _unchecked,
    is_partial_sum,
    partial_sums,
    wreath_realizable,
)
from migsets.subgroup_oracle import (
    incidence_mask,
    max_family_intransitive_imprimitive,
    maximal_subgroups,
    structural_records,
)


def match_witnesses(wsets):
    """Injective witness assignment via augmenting paths; None if impossible.

    The reference for the disjointness argument in `family_search`: one
    exists iff all the sets are non-empty."""
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


def bits(*values):
    out = 0
    for v in values:
        out |= 1 << v
    return out


def test_enumerate_masks_n5():
    groups = enumerate_masks(5)
    assert [mask for mask, _ in groups] == [0, bits(1), bits(2), bits(1, 2)]
    byte = {mask: [p.text() for p in reps] for mask, reps in groups}
    assert byte[0] == ["5"]
    assert byte[bits(1)] == ["4,1"]
    assert byte[bits(2)] == ["3,2"]
    assert byte[bits(1, 2)] == ["1^5", "2,1^3", "2^2,1", "3,1^2"]


def test_enumerate_masks_n2():
    assert [mask for mask, _ in enumerate_masks(2)] == [0, bits(1)]


def test_enumerate_masks_n6_has_no_two_three_mask():
    # no partition of 6 realizes sums {2,3} without 1: parts would need a 2
    # and then 6-2-3 is forced badly; the group simply does not occur
    assert bits(2, 3) not in {mask for mask, _ in enumerate_masks(6)}


def test_enumerate_masks_groups_sorted_and_complete():
    for n in range(2, 13):
        groups = enumerate_masks(n)
        keys = [(mask.bit_count(), mask) for mask, _ in groups]
        assert keys == sorted(keys)
        total = sum(len(reps) for _, reps in groups)
        assert total == len(list(_all_partitions(n)))
        for mask, reps in groups:
            for p in reps:
                assert partial_sums(p).restricted_bits() == mask
            parts = [p.parts for p in reps]
            assert parts == sorted(parts)


def _all_partitions(n):
    from migsets.partitions import enumerate_partitions

    return enumerate_partitions(n)


def test_enumerate_masks_cap():
    with pytest.raises(SearchError):
        enumerate_masks(41)
    with pytest.raises(SearchError):
        enumerate_masks(1)


def test_mask_groups_are_the_first_representatives():
    # the mask-state DP finds every mask, in the same order, with the
    # partition that full enumeration lists first
    for n in range(2, 41):
        groups, full = mask_groups(n), enumerate_masks(n)
        assert [bits for bits, _ in groups] == [bits for bits, _ in full], n
        firsts = [reps[0].parts for _, reps in full]
        assert [parts for _, parts in groups] == firsts, n
        for bits, parts in groups:
            assert partial_sums(Partition(parts)).restricted_bits() == bits


def test_max_family_on_mask_groups_matches_partition_groups():
    # every field, node counts and prunes included
    for n in range(5, 41):
        firsts = [(bits, reps[0].parts) for bits, reps in enumerate_masks(n)]
        assert max_family(n) == _search(n, firsts, _universe(n)), n


def _count_bits_calls(monkeypatch):
    # `_search` lists the set bits of its universe once, and of the live
    # vectors once per re-index, so its calls beyond one count re-indexes
    calls = []
    real = family_search._bits

    def counted(x):
        calls.append(x)
        return real(x)

    monkeypatch.setattr(family_search, "_bits", counted)
    return calls


def test_forced_reindex_runs_on_small_inputs(monkeypatch):
    monkeypatch.setattr(family_search, "REINDEX_MIN_VECTORS", 0)
    monkeypatch.setattr(family_search, "REINDEX_SHRINK", 1)
    calls = _count_bits_calls(monkeypatch)
    width, vectors = REINDEXED_CASE
    _search(0, [(v, _member(k).parts) for k, v in enumerate(vectors)], (1 << width) - 1)
    assert len(calls) >= 2


@pytest.mark.parametrize("shrink", [8, 1])
def test_reindex_leaves_every_field(shrink, monkeypatch):
    # forced onto every width (and with shrink 1, wherever a vector is
    # dead), the re-index must visit the same nodes and report the same
    # first pick: every field, node counts and prunes included
    plain = {n: max_family(n) for n in range(5, 41)}
    described = {n: max_family_intransitive_imprimitive(n) for n in range(5, 26)}
    monkeypatch.setattr(family_search, "REINDEX_MIN_VECTORS", 0)
    monkeypatch.setattr(family_search, "REINDEX_SHRINK", shrink)
    calls = _count_bits_calls(monkeypatch)
    for n in range(5, 41):
        assert max_family(n) == plain[n], n
    for n in range(5, 26):
        assert max_family_intransitive_imprimitive(n) == described[n], n
    # 1,100 re-indexes with shrink 8 and 3,967 with shrink 1
    assert len(calls) - len(plain) - len(described) >= 1000


def _reference_search(n, groups, universe):
    # the DFS as first written, to pin `_search`'s node and prune counts:
    # the bound tested at every column, the whole list of ANDs built, then
    # all(); columns are plain bitsets over every group, never re-indexed
    cols = [b for b in range(universe.bit_length()) if universe >> b & 1]
    has = [sum(1 << k for k, (v, _) in enumerate(groups) if v >> b & 1) for b in cols]
    full = (1 << len(groups)) - 1
    best = []
    nodes = cuts = 0

    def rec(chosen, fits, common):
        nonlocal best, nodes, cuts
        nodes += 1
        if len(fits) > len(best):
            best = fits
        for i in range(chosen[-1] + 1 if chosen else 0, len(has)):
            if len(fits) + len(has) - i <= len(best):
                cuts += 1
                return
            h = has[i]
            grown = [f & h for f in fits] + [common & (full ^ h)]
            if all(grown):
                rec(chosen + (i,), grown, common & h)

    rec((), [], full)
    idxs = sorted(_min_bit(f) for f in best)
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


def _reference_cases():
    for n in range(5, 31):
        yield mask_groups(n), _universe(n)
    for n in range(5, 25):
        full = (1 << len(structural_records(n))) - 1
        yield list(subgroup_oracle.structural_groups(n)), full
    rng = random.Random(20)
    for _ in range(60):
        width = rng.randint(1, 10)
        vectors = [rng.getrandbits(width) for _ in range(rng.randint(0, 40))]
        yield [(v, _member(k).parts) for k, v in enumerate(vectors)], (1 << width) - 1


@pytest.mark.parametrize("reindex", [False, True])
def test_search_matches_reference_dfs(reindex, monkeypatch):
    # every field, node counts and prunes included, on the mask groups, the
    # descriptor groups and random vectors; with `reindex`, the re-index
    # runs wherever a vector is dead
    if reindex:
        monkeypatch.setattr(family_search, "REINDEX_MIN_VECTORS", 0)
        monkeypatch.setattr(family_search, "REINDEX_SHRINK", 1)
    calls = _count_bits_calls(monkeypatch)
    searches = 0
    for groups, universe in _reference_cases():
        n = sum(groups[0][1]) if groups else 0
        assert _search(n, groups, universe) == _reference_search(n, groups, universe)
        searches += 1
    assert (len(calls) > searches) == reindex


def test_search_caps_name_their_method():
    # the mask search runs on the DP to degree 80; the descriptor search
    # and enumerate_masks enumerate every partition, to degree 40
    assert MAX_FAMILY_DEGREE == 80
    with pytest.raises(SearchError, match="^the mask-state DP capped at n=80, got 81$"):
        mask_groups(81)
    with pytest.raises(SearchError, match="^need n >= 2, got 1$"):
        mask_groups(1)
    with pytest.raises(SearchError, match="^the mask search capped at n=80, got 81$"):
        max_family(81)
    with pytest.raises(
        SearchError,
        match=r"^the descriptor search \(full partition enumeration\) capped at n=40, got 41$",
    ):
        max_family_intransitive_imprimitive(41)
    with pytest.raises(SearchError, match="^full partition enumeration capped at n=40, got 41$"):
        enumerate_masks(41)


def test_max_family_small_frozen():
    r5 = max_family(5)
    assert r5.t_max == 2
    assert [p.text() for p in r5.optimal_family] == ["4,1", "3,2"]
    assert {p.text(): w for p, w in r5.witness_assignment.items()} == {
        "4,1": 2,
        "3,2": 1,
    }
    assert r5.exhaustive

    assert max_family(6).t_max == 2
    assert max_family(7).t_max == 3


def test_max_family_requires_degree_five():
    with pytest.raises(SearchError):
        max_family(4)


def test_witnesses_valid_and_injective():
    for n in range(5, 14):
        r = max_family(n)
        masks = [partial_sums(p).restricted_bits() for p in r.optimal_family]
        inter = (1 << (n // 2 + 1)) - 2
        for m in masks:
            inter &= m
        assert inter == 0
        seen = set()
        for i, p in enumerate(r.optimal_family):
            w = r.witness_assignment[p]
            assert 1 <= w <= n // 2
            assert not masks[i] >> w & 1
            for j, m in enumerate(masks):
                if j != i:
                    assert m >> w & 1
            assert w not in seen
            seen.add(w)


def test_agrees_with_bruteforce():
    for n in range(5, 15):
        assert max_family(n).t_max == max_family_bruteforce(n)


def test_bruteforce_degree_limit():
    with pytest.raises(SearchError):
        max_family_bruteforce(15)


def _meets(p, desc):
    if desc[0] == "intransitive":
        return is_partial_sum(p, desc[1])
    return wreath_realizable(p, desc[1], desc[2])


def _largest_witness_family(vectors, universe):
    """Include/exclude over distinct vectors: the largest subset in which
    every member keeps a private witness."""
    best = 0

    def witnesses_ok(chosen):
        for i, v in enumerate(chosen):
            w = universe & ~v
            for j, other in enumerate(chosen):
                if j != i:
                    w &= other
            if w == 0:
                return False
        return True

    def rec(idx, chosen):
        nonlocal best
        best = max(best, len(chosen))
        if idx == len(vectors):
            return
        if witnesses_ok(chosen + [vectors[idx]]):
            rec(idx + 1, chosen + [vectors[idx]])
        rec(idx + 1, chosen)

    rec(0, [])
    return best


def test_pruning_does_not_change_answer():
    # the descriptor search against include/exclude over its vectors, each
    # built from the definitions of the records it witnesses by
    for n in range(5, 14):
        descs = [(rec.kind, *rec.param) for rec in structural_records(n)]
        vectors = sorted(
            {
                sum(1 << d for d, desc in enumerate(descs) if _meets(p, desc))
                for p in _all_partitions(n)
            }
        )
        r = max_family_intransitive_imprimitive(n)
        assert r.t_max == _largest_witness_family(vectors, (1 << len(descs)) - 1), n
        assert set(r.masks) <= set(vectors)


# exact t_max tables; the drops from 11 at n=25 to 10 at n=26 are real
MAX_FAMILY_T = dict(
    zip(
        range(12, 51),
        (4, 5, 5, 6, 6, 7, 7, 7, 8, 8, 9, 9, 10, 11, 10, 11, 12, 12, 12)
        + (13, 13, 14, 14, 15, 15, 16, 16, 17, 17)
        + (18, 18, 19, 19, 19, 20, 21, 21, 22, 22),
    )
)
DESCRIPTOR_T = dict(
    zip(
        range(12, 36),
        (5, 5, 5, 6, 6, 7, 7, 7, 8, 8, 9, 9, 10, 11, 10, 11, 12, 12, 12, 13, 13)
        + (14, 14, 15),
    )
)


def test_max_family_frozen_table():
    assert {n: max_family(n).t_max for n in MAX_FAMILY_T} == MAX_FAMILY_T


def test_descriptor_variant_frozen_table():
    got = {n: max_family_intransitive_imprimitive(n).t_max for n in DESCRIPTOR_T}
    assert got == DESCRIPTOR_T


def test_search_node_budget():
    assert max_family(30).nodes_explored < 10_000
    assert max_family_intransitive_imprimitive(24).nodes_explored < 10_000


# reported families at the degrees where the witness-set search picks a
# different optimum than the first family in mask order
FROZEN_FAMILIES = {
    9: ("7,1^2", "5,3,1", "3,2^3"),
    13: ("9,1^4", "5^2,1^3", "7,4,1^2", "5,4,3,1", "3,2^5"),
    23: (
        "13,4^2,1^2",
        "8^2,5,1^2",
        "14,1^9",
        "13,6,1^4",
        "11,6,4,1^2",
        "12,5,4,1^2",
        "6,4^4,1",
        "5,2^9",
        "11,7,1^5",
    ),
}


@pytest.mark.parametrize("n", sorted(FROZEN_FAMILIES))
def test_max_family_frozen_families(n):
    r = max_family(n)
    assert tuple(p.text() for p in r.optimal_family) == FROZEN_FAMILIES[n]
    common, wsets = witness_sets(list(r.masks), (1 << (n // 2 + 1)) - 2)
    assert common == 0
    assert [r.witness_assignment[p] for p in r.optimal_family] == [
        _min_bit(w) for w in wsets
    ]


# nodes explored are machine-independent and part of `search --json`
MAX_FAMILY_NODES = (3, 3, 4, 4, 4, 5, 5, 14, 6, 18, 16, 25)
DESCRIPTOR_NODES = (3, 5, 4, 8, 10, 11, 5, 48, 6, 38, 54, 94)


def test_node_counts_frozen():
    degrees = range(5, 17)
    assert tuple(max_family(n).nodes_explored for n in degrees) == MAX_FAMILY_NODES
    got = tuple(max_family_intransitive_imprimitive(n).nodes_explored for n in degrees)
    assert got == DESCRIPTOR_NODES


def test_witness_map_rejects_broken_witness_sets():
    # an empty witness set is named as such, not as a failed matching
    with pytest.raises(SearchError, match="member b has no witness"):
        _witness_map(("a", "b"), [0b10, 0])
    # unmatchable, and both smallest witnesses are 1
    with pytest.raises(SearchError, match="overlap"):
        _witness_map(("a", "b"), [0b10, 0b10])
    # matchable (a->1, b->2) but both smallest witnesses are 1
    with pytest.raises(SearchError, match="overlap"):
        _witness_map(("a", "b"), [0b10, 0b110])


def _member(k):
    # hand-built group k's member: parts (k + 1,), so it names its group
    return Partition((k + 1,))


def _hand_built(*vectors):
    return [(bits(*v), _member(k).parts) for k, v in enumerate(vectors)]


def test_first_pick_with_common_bits_is_refused(monkeypatch):
    # {1, 2} is the first largest witness set: column 1 first picks
    # {2, 3}, whose AND with column 2's {1, 3} keeps bit 3 (the later
    # pick {2} would empty it, but only the first pick is taken)
    groups = _hand_built((2, 3), (1, 3), (2,))
    r = _search(0, groups, bits(1, 2, 3))
    assert r.t_max == 2
    assert r.optimal_family == (_member(0), _member(1))
    assert r.witness_assignment == {_member(0): 1, _member(1): 2}
    monkeypatch.setattr(family_search, "mask_groups", lambda n: groups)
    with pytest.raises(SearchError, match=r"partial sums \[3\]"):
        max_family(6)


def _fits(v, chosen, b):
    # v fits column b of the bit set `chosen`: it lacks b and holds the rest
    return v & chosen == chosen ^ (1 << b)


VECTOR_CASES = st.integers(1, 6).flatmap(
    lambda width: st.tuples(
        st.just(width), st.lists(st.integers(0, (1 << width) - 1), max_size=10)
    )
)
# columns {0, 1, 2} leave 8 of these 10 vectors live: a forced re-index runs
REINDEXED_CASE = (4, [0b0110, 0b0101, 0b0011, 0b1110, 0b1101, 0b1011, 0b0111, 0b1111, 0, 0b1000])


@settings(max_examples=300, deadline=None)
@given(VECTOR_CASES)
@example((3, [0, 0b011, 0b011, 0b001, 0b110, 0b111, 0]))
def test_search_matches_brute_force_witness_sets(case):
    _assert_search_matches_brute_force(case)


@settings(max_examples=300, deadline=None)
@given(VECTOR_CASES)
@example(REINDEXED_CASE)
def test_search_matches_brute_force_witness_sets_reindexed(case):
    # the same check with the re-index forced wherever a vector is dead
    with mock.patch.multiple(family_search, REINDEX_MIN_VECTORS=0, REINDEX_SHRINK=1):
        _assert_search_matches_brute_force(case)


def _assert_search_matches_brute_force(case):
    # independent of the bitset DFS: the first largest witness set is the
    # lexicographically first largest subset of columns that is one, and
    # each column of it is realized by the lowest-index vector fitting it
    width, vectors = case

    def is_witness_set(cols):
        chosen = bits(*cols)
        return all(any(_fits(v, chosen, b) for v in vectors) for b in cols)

    first = next(
        cols
        for size in range(width, -1, -1)
        for cols in itertools.combinations(range(width), size)
        if is_witness_set(cols)
    )
    chosen = bits(*first)
    picks = sorted(
        next(k for k, v in enumerate(vectors) if _fits(v, chosen, b)) for b in first
    )
    groups = [(v, _member(k).parts) for k, v in enumerate(vectors)]
    r = _search(0, groups, (1 << width) - 1)
    assert r.t_max == len(first)
    assert r.optimal_family == tuple(_member(k) for k in picks)
    assert r.masks == tuple(vectors[k] for k in picks)


def test_sandwich_bounds():
    for n in range(5, 15):
        t = max_family(n).t_max
        assert n / 2 - math.log2(n) < t <= n // 2


def test_sandwich_bounds_past_partition_enumeration():
    # t_max for n=41..50 (frozen above, searched by the frozen-table test)
    # against the paper's bounds and the block construction, which it
    # beats exactly at 41, 43, 47, 49 and 50
    beaten = []
    for n in range(41, 51):
        t = MAX_FAMILY_T[n]
        assert n / 2 - math.log2(n) < t <= n / 2
        built = len(build_x_family(n).members)
        assert built <= t
        if built < t:
            beaten.append(n)
    assert beaten == [41, 43, 47, 49, 50]


def test_iter_families_contains_optimum_first_at_max_size():
    for n in (5, 7, 8):
        r = max_family(n)
        fams = list(iter_families(n, r.t_max))
        assert fams, f"no family of size {r.t_max} at n={n}"
        assert r.optimal_family in fams
        assert fams[0] == r.optimal_family
        assert list(iter_families(n, r.t_max + 1)) == []


def test_iter_families_members_are_valid():
    for n in (6, 9):
        for fam in iter_families(n, 2):
            masks = [partial_sums(p).restricted_bits() for p in fam]
            inter = (1 << (n // 2 + 1)) - 2
            for m in masks:
                inter &= m
            assert inter == 0
            for i, m in enumerate(masks):
                w = (1 << (n // 2 + 1)) - 2
                for j, other in enumerate(masks):
                    if j != i:
                        w &= other
                assert w & ~m


def _families_by_filter(n, size):
    """Plain filter over combinations of mask groups, representatives last."""
    universe = (1 << (n // 2 + 1)) - 2
    out = []
    for combo in itertools.combinations(enumerate_masks(n), size):
        masks = [mask for mask, _ in combo]
        inter = universe
        for m in masks:
            inter &= m
        if inter:
            continue
        witnesses = []
        for i, m in enumerate(masks):
            w = universe & ~m
            for j, other in enumerate(masks):
                if j != i:
                    w &= other
            witnesses.append(w)
        if all(witnesses):
            out.extend(itertools.product(*(reps for _, reps in combo)))
    return out


@pytest.mark.parametrize("n", range(5, 11))
def test_iter_families_matches_plain_filter(n):
    for size in range(1, n // 2 + 2):
        assert list(iter_families(n, size)) == _families_by_filter(n, size)


@pytest.mark.parametrize(
    "n,size,message",
    [
        (8.0, 2, "^degree must be an integer, got 8.0$"),
        (True, 2, "^degree must be an integer, got True$"),
        (41, 2, "^full partition enumeration capped at n=40, got 41$"),
        (8, True, "^family size must be an integer, got True$"),
        (8, 2.0, "^family size must be an integer, got 2.0$"),
        (8, 0, "^family size must be positive$"),
    ],
)
def test_iter_families_refuses_at_the_call(n, size, message):
    # the call itself raises: nothing is iterated
    with pytest.raises(SearchError, match=message):
        iter_families(n, size)


def test_iter_families_deterministic():
    a = [tuple(p.text() for p in fam) for fam in iter_families(8, 3)]
    b = [tuple(p.text() for p in fam) for fam in iter_families(8, 3)]
    assert a == b
    assert len(a) == len(set(a))


def test_match_witnesses_agrees_with_nonemptiness():
    # witness sets drawn as arbitrary bit vectors: a matching must exist
    # exactly when the sets that arise from real families are all non-empty;
    # for real families the sets are pairwise disjoint, which we also check
    rng = random.Random(7)
    for n in range(6, 13):
        groups = enumerate_masks(n)
        universe = (1 << (n // 2 + 1)) - 2
        for _ in range(40):
            size = rng.randint(2, min(4, len(groups)))
            picks = rng.sample(range(len(groups)), size)
            masks = [groups[k][0] for k in picks]
            wsets = []
            for i, m in enumerate(masks):
                w = universe & ~m
                for j, other in enumerate(masks):
                    if j != i:
                        w &= other
                wsets.append(w)
            matching = match_witnesses(wsets)
            if all(wsets):
                assert matching is not None
                for i, w in enumerate(wsets):
                    assert wsets[i] >> matching[i] & 1
                assert len(set(matching.values())) == len(matching)
                for i in range(len(wsets)):
                    for j in range(i + 1, len(wsets)):
                        assert wsets[i] & wsets[j] == 0
            else:
                assert matching is None


def test_witness_sets_matches_plain_scan():
    rng = random.Random(5)
    assert witness_sets([], 0b111) == (0b111, [])
    for _ in range(300):
        full = rng.getrandbits(12)
        masks = [rng.getrandbits(12) for _ in range(rng.randint(1, 8))]
        common, wsets = witness_sets(masks, full)
        expected_common = full
        for m in masks:
            expected_common &= m
        assert common == expected_common
        for i in range(len(masks)):
            expected = full & ~masks[i]
            for j, m in enumerate(masks):
                if j != i:
                    expected &= m
            assert wsets[i] == expected


def test_match_witnesses_handles_contention():
    # three members all wanting the same single bit cannot be matched
    assert match_witnesses([0b10, 0b10, 0b10]) is None
    # chain that forces reassignment
    m = match_witnesses([0b0110, 0b0010, 0b1100])
    assert m is not None and len(set(m.values())) == 3


def test_descriptors_are_the_oracle_structural_records():
    # the search witnesses by the intransitive and imprimitive maximal
    # subgroups, with the vectors the oracle's incidence masks start with
    for n in range(5, 13):
        kinds = ("intransitive", "imprimitive")
        structural = [rec for rec in maximal_subgroups(n) if rec.kind in kinds]
        r = max_family_intransitive_imprimitive(n)
        assert r.descriptors == tuple((rec.kind, *rec.param) for rec in structural), n
        low = (1 << len(structural)) - 1
        assert list(r.masks) == [incidence_mask(p) & low for p in r.optimal_family]


def test_structural_records_match_divisor_scan():
    # S_{n/2} x S_{n/2} lies in S_{n/2} wr S_2, so no record is intransitive at n/2
    for n in range(5, 41):
        intransitive = [("intransitive", (s,)) for s in range(1, n) if 2 * s < n]
        blocks = [("imprimitive", (a, n // a)) for a in range(2, n) if n % a == 0]
        records = structural_records(n)
        assert [(rec.kind, rec.param) for rec in records] == intransitive + blocks, n
        assert all(rec.param != (n / 2,) for rec in records)


def test_descriptor_variant_dominates_mask_search():
    for n in range(5, 15):
        t_desc = max_family_intransitive_imprimitive(n).t_max
        t_mask = max_family(n).t_max
        assert t_desc >= t_mask


def test_descriptor_variant_frozen_values():
    assert max_family_intransitive_imprimitive(6).t_max == 3
    assert max_family_intransitive_imprimitive(12).t_max == 5


def test_descriptor_variant_witnesses():
    r = max_family_intransitive_imprimitive(10)
    from migsets.partitions import is_partial_sum, wreath_realizable

    def meets(p, desc):
        if desc[0] == "intransitive":
            return is_partial_sum(p, desc[1])
        return wreath_realizable(p, desc[1], desc[2])

    seen = set()
    for i, p in enumerate(r.optimal_family):
        d = r.witness_assignment[p]
        desc = r.descriptors[d]
        assert not meets(p, desc)
        for q in r.optimal_family:
            if q is not p:
                assert meets(q, desc)
        assert d not in seen
        seen.add(d)
    # each member's vector has bit d set iff it meets descriptor d
    for p, vec in zip(r.optimal_family, r.masks):
        for d, desc in enumerate(r.descriptors):
            assert bool(vec >> d & 1) == meets(p, desc), (p, desc)


def test_descriptor_search_builds_wreath_types_once(monkeypatch):
    # the descriptor vectors come from one wreath_types call per block shape
    # and degree, not from a wreath_realizable call per partition and shape
    from migsets import partitions

    def refuse(*args):
        raise AssertionError("wreath_realizable called")

    built = []

    def counted(a, b):
        built.append((a, b))
        return partitions.wreath_types(a, b)

    for module in (partitions, family_search, subgroup_oracle):
        monkeypatch.setattr(module, "wreath_realizable", refuse, raising=False)
    monkeypatch.setattr(subgroup_oracle, "wreath_types", counted)
    subgroup_oracle.structural_groups.cache_clear()
    for n in (16, 24):
        for _ in range(2):
            assert max_family_intransitive_imprimitive(n).t_max == DESCRIPTOR_T[n]
    shapes_24 = [(2, 12), (3, 8), (4, 6), (6, 4), (8, 3), (12, 2)]
    assert built == [(2, 8), (4, 4), (8, 2)] + shapes_24


def test_descriptor_search_caches_groups_not_vectors():
    # a degree's groups are built once and kept; its structural vector, with
    # its {parts: bits} dict, is built for the walk and not kept
    structural_groups = subgroup_oracle.structural_groups
    structural_groups.cache_clear()
    for n in (16, 24):
        cold = max_family_intransitive_imprimitive(n)
        warm = max_family_intransitive_imprimitive(n)
        assert warm == cold  # nodes, prunes and witnesses included
    info = structural_groups.cache_info()
    assert (info.misses, info.hits) == (2, 2)
    assert not hasattr(subgroup_oracle.structural_vector, "cache_info")
    assert isinstance(structural_groups(24), tuple)


@pytest.mark.parametrize("bad", [16.0, "16", True, None])
def test_non_integer_degree_is_refused_before_any_work(bad):
    # refused by the degree check itself, before any cache lookup: a cache
    # keyed on 16 would also answer 16.0
    searches = (max_family, mask_groups, enumerate_masks, max_family_intransitive_imprimitive)

    def refused():
        for search in searches:
            with pytest.raises(SearchError, match="^degree must be an integer, got "):
                search(bad)

    refused()
    for search in searches:
        search(16)
    refused()


def test_descriptor_variant_cap():
    with pytest.raises(SearchError):
        max_family_intransitive_imprimitive(41)


def test_nodes_explored_counts_and_determinism():
    a = max_family(9)
    b = max_family(9)
    assert a.nodes_explored == b.nodes_explored > 0
    assert a.optimal_family == b.optimal_family
