"""Permutation engine: orders via the stabilizer chain are checked against
factorial formulas and against independent breadth-first element closures."""

import dataclasses
import hashlib
import itertools
import math
import random

import pytest
from test_subgroup_oracle import _count_chains

from migsets.partitions import Partition
from migsets.subgroup_oracle import (
    OracleError,
    _alternating_record,
    _jordan,
    _validate_record,
    maximal_subgroups,
    structural_records,
    wreath_generators,
)
from migsets.perms import (
    MAX_POINTS,
    PermGroup,
    PermError,
    _block_closure,
    cycle_type,
    format_cycles,
    from_cycles,
    identity,
    inverse,
    is_primitive,
    is_transitive,
    multiply,
    orbits,
    parse_cycles,
)


def closure_by_bfs(degree, gens, cap=200_000):
    """Independent element listing: repeated right-multiplication."""
    ident = tuple(range(degree))
    seen = {ident}
    frontier = [ident]
    while frontier:
        new = []
        for p in frontier:
            for g in gens:
                q = tuple(g[p[i]] for i in range(degree))
                if q not in seen:
                    seen.add(q)
                    new.append(q)
        frontier = new
        assert len(seen) <= cap
    return seen


def symmetric_gens(n):
    t = list(range(n))
    t[0], t[1] = t[1], t[0]
    c = tuple(list(range(1, n)) + [0])
    return [tuple(t), c]


# ---------------------------------------------------------------------------
# primitive permutation operations


def test_multiply_applies_left_then_right():
    # x^(pq) = (x^p)^q
    p = from_cycles(3, [(0, 1)])
    q = from_cycles(3, [(1, 2)])
    assert multiply(p, q) == (2, 0, 1)  # 0->1->2, 1->0->0, 2->2->1


def test_inverse_and_identity():
    rng = random.Random(1)
    for _ in range(50):
        n = rng.randint(1, 9)
        p = tuple(rng.sample(range(n), n))
        assert multiply(p, inverse(p)) == identity(n)
        assert multiply(inverse(p), p) == identity(n)


def test_cycle_type():
    p = from_cycles(6, [(0, 1, 2), (3, 4)])
    assert cycle_type(p) == Partition([3, 2, 1])
    assert cycle_type(identity(4)) == Partition([1, 1, 1, 1])


def test_cycle_parsing_round_trip():
    text = "(0 1 2)(3 4)"
    p = parse_cycles(text, 6)
    assert p == from_cycles(6, [(0, 1, 2), (3, 4)])
    assert parse_cycles(format_cycles(p), 6) == p
    assert format_cycles(identity(3)) == "()"


def test_cycle_parsing_rejects_garbage():
    with pytest.raises(PermError):
        parse_cycles("(0 1", 3)
    with pytest.raises(PermError):
        parse_cycles("(0 1)(1 2)", 3)  # repeated point
    with pytest.raises(PermError):
        parse_cycles("(0 5)", 3)  # out of range


def test_from_cycles_validates():
    with pytest.raises(PermError):
        from_cycles(4, [(0, 0)])
    with pytest.raises(PermError):
        from_cycles(4, [(0, 1), (1, 2)])


# ---------------------------------------------------------------------------
# group order


def test_order_symmetric_groups():
    for n in range(2, 9):
        g = PermGroup(n, symmetric_gens(n))
        assert g.order() == math.factorial(n)


def test_order_alternating_group():
    # A_n via 3-cycles
    for n in (4, 5, 6, 7):
        gens = [from_cycles(n, [(i, i + 1, i + 2)]) for i in range(n - 2)]
        g = PermGroup(n, gens)
        assert g.order() == math.factorial(n) // 2


def test_order_trivial_and_cyclic():
    assert PermGroup(5, []).order() == 1
    assert PermGroup(5, [identity(5)]).order() == 1
    assert PermGroup(6, [from_cycles(6, [(0, 1, 2, 3, 4, 5)])]).order() == 6


def test_order_affine_20():
    g = PermGroup(5, [parse_cycles("(0 1 2 3 4)", 5), parse_cycles("(1 2 4 3)", 5)])
    assert g.order() == 20
    assert is_transitive(5, g.generators)


def test_order_matches_bfs_closure_random():
    rng = random.Random(2024)
    for _ in range(30):
        n = rng.randint(2, 7)
        gens = []
        for _ in range(rng.randint(1, 3)):
            gens.append(tuple(rng.sample(range(n), n)))
        g = PermGroup(n, gens)
        assert g.order() == len(closure_by_bfs(n, gens))


def test_membership():
    n = 5
    sym = PermGroup(n, symmetric_gens(n))
    alt = PermGroup(n, [from_cycles(n, [(i, i + 1, i + 2)]) for i in range(n - 2)])
    transposition = from_cycles(n, [(0, 1)])
    assert sym.contains(transposition)
    assert not alt.contains(transposition)
    assert alt.contains(from_cycles(n, [(0, 1, 2)]))
    rng = random.Random(9)
    for _ in range(20):
        p = tuple(rng.sample(range(n), n))
        assert sym.contains(p)


def test_elements_and_cycle_types():
    g = PermGroup(5, [parse_cycles("(0 1 2 3 4)", 5), parse_cycles("(1 2 4 3)", 5)])
    elements = list(g.elements())
    assert len(elements) == 20
    assert len(set(elements)) == 20
    types = {cycle_type(p) for p in elements}
    assert types == {
        Partition([1] * 5),
        Partition([2, 2, 1]),
        Partition([4, 1]),
        Partition([5]),
    }


def test_public_permutations_stay_tuples():
    # callers hash elements and compare them with image tuples
    g = PermGroup(5, [parse_cycles("(0 1 2 3 4)", 5), [1, 0, 2, 3, 4]])
    assert g.generators == ((1, 2, 3, 4, 0), (1, 0, 2, 3, 4))
    assert all(type(p) is tuple for p in g.generators)
    elements = g.elements()
    assert all(type(p) is tuple and len(p) == 5 for p in elements)
    assert identity(5) in elements and (1, 0, 2, 3, 4) in set(elements)
    assert g.contains([4, 3, 2, 1, 0])


def test_degree_bound_checked_before_any_work():
    # the chain's byte tables hold at most 256 points; the generators are
    # never read past the degree check
    def never_read():
        raise AssertionError("generators read")
        yield

    for degree in (0, MAX_POINTS + 1, 10**9):
        with pytest.raises(PermError, match="degree"):
            PermGroup(degree, never_read())
    shift = tuple(range(1, MAX_POINTS)) + (0,)
    g = PermGroup(MAX_POINTS, [shift])
    assert g.order() == MAX_POINTS
    assert g.contains(multiply(shift, shift))


def test_cycle_types_match_per_element_types():
    for gens in (symmetric_gens(5), [from_cycles(6, [(0, 1, 2, 3, 4, 5)])]):
        g = PermGroup(len(gens[0]), gens)
        assert g.cycle_types() == {cycle_type(p) for p in g.elements()}


def test_elements_cap():
    # |S_11| = 39,916,800 is refused before any element is built
    g = PermGroup(11, symmetric_gens(11))
    with pytest.raises(PermError):
        g.elements()


# ---------------------------------------------------------------------------
# orbits, blocks, primitivity


def test_orbits():
    gens = [from_cycles(5, [(0, 1)]), from_cycles(5, [(2, 3, 4)])]
    assert orbits(5, gens) == ((0, 1), (2, 3, 4))
    assert not is_transitive(5, gens)


def test_block_closure_cyclic6():
    # the 6-cycle's smallest blocks through 0: opposite points, the even
    # points, and everything from a neighbour
    gens = [from_cycles(6, [(0, 1, 2, 3, 4, 5)])]
    assert _block_closure(6, gens, 0, 3) == {0, 3}
    assert _block_closure(6, gens, 0, 2) == _block_closure(6, gens, 0, 4) == {0, 2, 4}
    assert _block_closure(6, gens, 0, 1) == _block_closure(6, gens, 0, 5) == set(range(6))
    assert not is_primitive(6, gens)


def test_symmetric_group_primitive():
    assert is_primitive(6, symmetric_gens(6))


def test_blocks_require_transitivity():
    # the trivial group on two points has {0, 1} as its one block closure,
    # so only the transitivity check rejects it
    assert not is_primitive(2, [])
    assert not is_primitive(4, [from_cycles(4, [(0, 1)])])


def test_imprimitive_wreath_blocks():
    # S_2 wr S_3 on 6 points: blocks {0,1},{2,3},{4,5}
    gens = [
        from_cycles(6, [(0, 1)]),
        from_cycles(6, [(0, 2), (1, 3)]),
        from_cycles(6, [(0, 2, 4), (1, 3, 5)]),
    ]
    g = PermGroup(6, gens)
    assert g.order() == 48
    assert _block_closure(6, gens, 0, 1) == {0, 1}
    assert not is_primitive(6, gens)


def _has_block_through_0(g):
    """Brute force: some B with 0 in B and 1 < |B| < degree is a block.  B is
    one iff its images under the group, found by closing the generators'
    images into an orbit, are pairwise equal or disjoint; the generators'
    images of B alone do not decide it."""
    for rest in range(1, 1 << (g.degree - 1)):
        block = frozenset([0] + [x + 1 for x in range(g.degree - 1) if rest >> x & 1])
        if len(block) == g.degree:
            continue
        orbit, frontier, clean = [block], [block], True
        while frontier and clean:
            image = frontier.pop()
            for gen in g.generators:
                new = frozenset(gen[x] for x in image)
                if new in orbit:
                    continue
                if any(new & other for other in orbit):
                    clean = False
                    break
                orbit.append(new)
                frontier.append(new)
        if clean:
            return True
    return False


def _reference_groups():
    for d in range(2, 13):
        rotation = tuple((x + 1) % d for x in range(d))
        yield f"C_{d}", PermGroup(d, [rotation])
        yield f"D_{d}", PermGroup(d, [rotation, tuple(-x % d for x in range(d))])
    for n in range(5, 11):
        for rec in maximal_subgroups(n):
            if rec.kind != "intransitive":
                yield rec.label, rec.group()
    for a, b in itertools.product(range(2, 7), repeat=2):
        if a * b <= 12:
            yield f"S_{a} wr S_{b}", PermGroup(a * b, wreath_generators(a, b))


def test_is_primitive_matches_brute_force_blocks():
    checked = 0
    for label, g in _reference_groups():
        assert is_transitive(g.degree, g.generators), label
        assert is_primitive(g.degree, g.generators) == (not _has_block_through_0(g)), label
        checked += 1
    assert checked == 53


def test_primitivity_of_two_transitive_group():
    # PGL_2(5) on 6 points is 3-transitive, so primitive
    gens = [
        parse_cycles("(0 1 2 3 4)", 6),
        parse_cycles("(1 2 4 3)", 6),
        parse_cycles("(0 5)(2 3)", 6),
    ]
    g = PermGroup(6, gens)
    assert g.order() == 120
    assert is_primitive(6, gens)


# ---------------------------------------------------------------------------
# Jordan's theorem, which certifies the structural and alternating records


def test_jordan_matches_bfs_closure_random():
    # where the test passes, the generators fixing every point off `points`
    # generate Sym(points), or a group of at least half its order; random
    # generators are mixed with transpositions and 3-cycles so that it often
    # passes on three points or more
    rng = random.Random(7)
    passed = {2: 0, 3: 0}
    for _ in range(200):
        n = rng.randint(2, 7)
        points = range(n) if rng.random() < 0.5 else sorted(rng.sample(range(n), rng.randint(1, n)))
        gens = [
            from_cycles(n, [rng.sample(range(n), min(rng.choice((2, 3, n)), n))])
            for _ in range(rng.randint(0, 4))
        ]
        own = [g for g in gens if all(g[x] == x for x in range(n) if x not in points)]
        size = len(closure_by_bfs(n, own))
        k = math.factorial(len(points))
        for moved, sizes in ((2, (k,)), (3, (k // 2, k))):
            if _jordan(points, gens, moved):
                assert size in sizes, (n, points, gens, moved)
                passed[moved] += len(points) >= 3
    assert passed[2] >= 10 and passed[3] >= 10, passed


def test_structural_records_certified_without_a_chain(monkeypatch):
    built = _count_chains(monkeypatch)
    records = [
        rec
        for n in range(5, 17)
        for rec in (*structural_records(n), _alternating_record(n))
    ]
    for rec in records:
        assert _validate_record(rec) is None, rec.label
    assert built == [] and len(records) == 84
    for rec in records:
        assert rec.group().order() == rec.expected_order, rec.label


def test_jordan_sound_on_generator_sub_lists(monkeypatch):
    # dropping generators may break the record's invariant or its order,
    # but wherever the record still validates without a chain, the chain
    # of those generators has the stated order
    built = _count_chains(monkeypatch)
    certified = 0
    for n in range(5, 13):
        for rec in (*structural_records(n), _alternating_record(n)):
            for size in range(len(rec.generators)):
                for sub in itertools.combinations(rec.generators, size):
                    built.clear()
                    try:
                        _validate_record(dataclasses.replace(rec, generators=sub))
                    except OracleError:
                        continue
                    if not built:
                        certified += 1
                        assert PermGroup(n, sub).order() == rec.expected_order, (rec.label, sub)
    assert certified > 0


# ---------------------------------------------------------------------------
# golden stabilizer chains

# One line per maximal-subgroup record of S_5..S_12 and per wreath product
# that acceptance criterion 8 enumerates (n <= 8): label | order | each
# level's base point and sorted transversal keys, as hex digits | the first
# 16 hex digits of the SHA-256 of elements(), in order, for orders <= 100,000.
CHAIN_GOLDEN = """
5 S_1 x S_4 | 24 | 1:1234 2:234 3:34 | fc9349ed24e87fd5
5 S_2 x S_3 | 12 | 0:01 2:234 3:34 | 6103e92616551d86
5 A_5 | 60 | 0:01234 2:1234 1:134 | 35525fdb118a94b4
5 AGL(1,5) | 20 | 0:01234 1:1234 | cfb01741c050db45
6 S_1 x S_5 | 120 | 1:12345 2:2345 3:345 4:45 | 4cebd279585ba673
6 S_2 x S_4 | 48 | 0:01 2:2345 3:345 4:45 | 0af6d0bd5a0f0291
6 S_2 wr S_3 | 48 | 0:012345 2:2345 4:45 | 59b7f768fdc47aab
6 S_3 wr S_2 | 72 | 0:012345 1:12 3:345 4:45 | e31cbcf8b23cf6c3
6 A_6 | 360 | 0:012345 1:12345 2:2345 3:345 | f21af158c1ca2a3e
6 PGL(2,5) | 120 | 0:012345 1:12345 2:2345 | 0a35d94193b81797
7 S_1 x S_6 | 720 | 1:123456 2:23456 3:3456 5:456 4:46 | 8bb4dc739f264b32
7 S_2 x S_5 | 240 | 0:01 2:23456 3:3456 4:456 5:56 | 91a9c637f1e71e24
7 S_3 x S_4 | 144 | 0:012 3:3456 4:456 5:56 1:12 | 054998a9dd5e41cb
7 A_7 | 2520 | 0:0123456 2:123456 1:13456 3:3456 4:456 | 9567d18a8d54cd2d
7 AGL(1,7) | 42 | 0:0123456 1:123456 | cf16d180ef6c9c44
8 S_1 x S_7 | 5040 | 1:1234567 2:234567 3:34567 6:4567 5:457 4:47 | 9a756a987c1f9b73
8 S_2 x S_6 | 1440 | 0:01 2:234567 3:34567 4:4567 6:567 5:57 | 723b6aa7cd15fad9
8 S_3 x S_5 | 720 | 0:012 3:34567 4:4567 5:567 6:67 1:12 | 26ae9b040a988787
8 S_2 wr S_4 | 384 | 0:01234567 2:234567 6:4567 4:45 | aa05e85ca33248e9
8 S_4 wr S_2 | 1152 | 0:01234567 1:123 2:23 4:4567 5:567 6:67 | 21b4f88c6e27a66a
8 A_8 | 20160 | 0:01234567 1:1234567 2:234567 5:34567 4:3467 3:367 | 6ab43516df022a43
8 PGL(2,7) | 336 | 0:01234567 1:1234567 2:234567 | 1e721418f9d40c3a
9 S_1 x S_8 | 40320 | 1:12345678 2:2345678 3:345678 7:45678 6:4568 5:458 4:48 | 6d4854265632b4e4
9 S_2 x S_7 | 10080 | 0:01 2:2345678 3:345678 4:45678 7:5678 6:568 5:58 | c8b121a9ccaa3af8
9 S_3 x S_6 | 4320 | 0:012 3:345678 4:45678 5:5678 7:678 6:68 1:12 | a895e162ea840301
9 S_4 x S_5 | 2880 | 0:0123 4:45678 5:5678 6:678 7:78 1:123 2:23 | c9fa4ec841437e37
9 S_3 wr S_3 | 1296 | 0:012345678 1:12 3:345678 6:678 4:45 7:78 | b8e23fc9f344ad02
9 A_9 | 181440 | 0:012345678 2:12345678 1:1345678 3:345678 6:45678 5:4578 4:478 | -
9 AGL(2,3) | 432 | 0:012345678 1:12345678 3:345678 | 31df4cfec0005193
10 S_1 x S_9 | 362880 | 1:123456789 2:23456789 3:3456789 8:456789 7:45679 6:4569 5:459 4:49 | -
10 S_2 x S_8 | 80640 | 0:01 2:23456789 3:3456789 4:456789 8:56789 7:5679 6:569 5:59 | 70be623dce47310e
10 S_3 x S_7 | 30240 | 0:012 3:3456789 4:456789 5:56789 8:6789 7:679 6:69 1:12 | 94227bdb1355e590
10 S_4 x S_6 | 17280 | 0:0123 4:456789 5:56789 6:6789 8:789 7:79 1:123 2:23 | def07b7d7ef4158f
10 S_2 wr S_5 | 3840 | 0:0123456789 2:23456789 8:456789 6:4567 4:45 | 9ca8bb113f9593de
10 S_5 wr S_2 | 28800 | 0:0123456789 1:1234 2:234 3:34 5:56789 6:6789 7:789 8:89 | 329515257380c6d8
10 A_10 | 1814400 | 0:0123456789 1:123456789 2:23456789 7:3456789 6:345689 5:34589 4:3489 3:389 | -
10 PGammaL(2,9) | 1440 | 0:0123456789 1:123456789 3:23456789 2:25 | 4decd9e14298e7d2
11 S_1 x S_10 | 3628800 | 1:123456789a 2:23456789a 3:3456789a 9:456789a 8:45678a 7:4567a 6:456a 5:45a 4:4a | -
11 S_2 x S_9 | 725760 | 0:01 2:23456789a 3:3456789a 4:456789a 9:56789a 8:5678a 7:567a 6:56a 5:5a | -
11 S_3 x S_8 | 241920 | 0:012 3:3456789a 4:456789a 5:56789a 9:6789a 8:678a 7:67a 6:6a 1:12 | -
11 S_4 x S_7 | 120960 | 0:0123 4:456789a 5:56789a 6:6789a 9:789a 8:78a 7:7a 1:123 2:23 | -
11 S_5 x S_6 | 86400 | 0:01234 5:56789a 6:6789a 7:789a 9:89a 8:8a 1:1234 2:234 3:34 | aaf164aca51aef90
11 A_11 | 19958400 | 0:0123456789a 2:123456789a 1:13456789a 3:3456789a 8:456789a 7:45679a 6:4569a 5:459a 4:49a | -
11 AGL(1,11) | 110 | 0:0123456789a 1:123456789a | 4834195075f095f2
12 S_1 x S_11 | 39916800 | 1:123456789ab 2:23456789ab 3:3456789ab a:456789ab 9:456789b 8:45678b 7:4567b 6:456b 5:45b 4:4b | -
12 S_2 x S_10 | 7257600 | 0:01 2:23456789ab 3:3456789ab 4:456789ab a:56789ab 9:56789b 8:5678b 7:567b 6:56b 5:5b | -
12 S_3 x S_9 | 2177280 | 0:012 3:3456789ab 4:456789ab 5:56789ab a:6789ab 9:6789b 8:678b 7:67b 6:6b 1:12 | -
12 S_4 x S_8 | 967680 | 0:0123 4:456789ab 5:56789ab 6:6789ab a:789ab 9:789b 8:78b 7:7b 1:123 2:23 | -
12 S_5 x S_7 | 604800 | 0:01234 5:56789ab 6:6789ab 7:789ab a:89ab 9:89b 8:8b 1:1234 2:234 3:34 | -
12 S_2 wr S_6 | 46080 | 0:0123456789ab 2:23456789ab a:456789ab 8:456789 6:4567 4:45 | 22964df78775b5e5
12 S_3 wr S_4 | 31104 | 0:0123456789ab 1:12 3:3456789ab 9:6789ab 6:678 4:45 a:ab 7:78 | 552bbbc3db73bced
12 S_4 wr S_3 | 82944 | 0:0123456789ab 1:123 4:456789ab 2:23 8:89ab 5:567 6:67 9:9ab a:ab | d0196a3f8332d279
12 S_6 wr S_2 | 1036800 | 0:0123456789ab 1:12345 2:2345 4:345 3:35 6:6789ab 7:789ab 8:89ab a:9ab 9:9b | -
12 A_12 | 239500800 | 0:0123456789ab 1:123456789ab 2:23456789ab 9:3456789ab 8:345678ab 7:34567ab 6:3456ab 3:345ab 4:45ab 5:5ab | -
12 PGL(2,11) | 1320 | 0:0123456789ab 1:123456789ab 2:23456789ab | 94ce63dd87ed0304
4 S_2 wr S_2 wreath | 8 | 0:0123 2:23 | 4f06db8327b0812a
6 S_2 wr S_3 wreath | 48 | 0:012345 2:2345 4:45 | 59b7f768fdc47aab
6 S_3 wr S_2 wreath | 72 | 0:012345 1:12 3:345 4:45 | e31cbcf8b23cf6c3
8 S_2 wr S_4 wreath | 384 | 0:01234567 2:234567 6:4567 4:45 | aa05e85ca33248e9
8 S_4 wr S_2 wreath | 1152 | 0:01234567 1:123 2:23 4:4567 5:567 6:67 | 21b4f88c6e27a66a
"""


def _golden_groups():
    for n in range(5, 13):
        for rec in maximal_subgroups(n):
            yield f"{n} {rec.label}", rec.group()
    for n in range(4, 9):
        for a in range(2, n // 2 + 1):
            if n % a == 0:
                group = PermGroup(n, wreath_generators(a, n // a))
                yield f"{n} S_{a} wr S_{n // a} wreath", group


def test_stabilizer_chain_golden():
    # base points, transversals and element order are part of the output:
    # a faster chain must build the very same one
    expected = {}
    for line in CHAIN_GOLDEN.strip().splitlines():
        label, order, chain, digest = (f.strip() for f in line.split("|"))
        expected[label] = (int(order), chain, digest)
    found = {}
    for label, g in _golden_groups():
        chain = " ".join(
            f"{lev.point:x}:" + "".join(f"{x:x}" for x in sorted(lev.transversal))
            for lev in g._levels
        )
        digest = "-"
        if g.order() <= 100_000:
            data = b"".join(bytes(e) for e in g.elements())
            digest = hashlib.sha256(data).hexdigest()[:16]
        found[label] = (g.order(), chain, digest)
    assert found == expected


def test_chain_sift_count_pinned(monkeypatch):
    # a chain build sifts each Schreier generator of a level at most once
    # (14,742 sifts for these records without that memo); the count is
    # deterministic, so it is pinned exactly
    records = [rec for n in range(5, 13) for rec in maximal_subgroups(n)]
    sifts = []
    strip = PermGroup._strip

    def counting_strip(self, h, start):
        sifts.append(start)
        return strip(self, h, start)

    monkeypatch.setattr(PermGroup, "_strip", counting_strip)
    for rec in records:
        rec.group()
    assert len(records) == 55
    assert len(sifts) == 4402
