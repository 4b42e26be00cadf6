"""Permutation engine: orders via the stabilizer chain are checked against
factorial formulas and against independent breadth-first element closures."""

import itertools
import math
import random

import pytest

from migsets.partitions import Partition
from migsets.perms import (
    PermGroup,
    PermError,
    cycle_type,
    format_cycles,
    from_cycles,
    identity,
    inverse,
    multiply,
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
    assert g.is_transitive()


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


def test_elements_cap():
    # |S_11| = 39,916,800 is refused before any element is built
    g = PermGroup(11, symmetric_gens(11))
    with pytest.raises(PermError):
        g.elements()


# ---------------------------------------------------------------------------
# orbits, blocks, primitivity


def test_orbits():
    g = PermGroup(5, [from_cycles(5, [(0, 1)]), from_cycles(5, [(2, 3, 4)])])
    assert g.orbits() == ((0, 1), (2, 3, 4))
    assert not g.is_transitive()


def test_minimal_blocks_cyclic6():
    g = PermGroup(6, [from_cycles(6, [(0, 1, 2, 3, 4, 5)])])
    systems = g.minimal_block_systems()
    sizes = sorted(len(sys[0]) for sys in systems)
    assert sizes == [2, 3]
    # the size-2 system of the 6-cycle pairs opposite points
    two = next(sys for sys in systems if len(sys[0]) == 2)
    assert two == ((0, 3), (1, 4), (2, 5))


def test_minimal_blocks_cyclic12_minimality():
    g = PermGroup(12, [tuple(list(range(1, 12)) + [0])])
    sizes = sorted(len(sys[0]) for sys in g.minimal_block_systems())
    # size 4 and 6 systems exist but refine to 2 and 3; only minimal ones reported
    assert sizes == [2, 3]


def test_symmetric_group_primitive():
    g = PermGroup(6, symmetric_gens(6))
    assert g.minimal_block_systems() == ()
    assert g.is_primitive()


def test_blocks_require_transitivity():
    g = PermGroup(4, [from_cycles(4, [(0, 1)])])
    with pytest.raises(PermError):
        g.minimal_block_systems()


def test_imprimitive_wreath_blocks():
    # S_2 wr S_3 on 6 points: blocks {0,1},{2,3},{4,5}
    gens = [
        from_cycles(6, [(0, 1)]),
        from_cycles(6, [(0, 2), (1, 3)]),
        from_cycles(6, [(0, 2, 4), (1, 3, 5)]),
    ]
    g = PermGroup(6, gens)
    assert g.order() == 48
    systems = g.minimal_block_systems()
    assert systems == (((0, 1), (2, 3), (4, 5)),)
    assert not g.is_primitive()


def test_primitivity_of_two_transitive_group():
    # PGL_2(5) on 6 points is 3-transitive, so primitive
    gens = [
        parse_cycles("(0 1 2 3 4)", 6),
        parse_cycles("(1 2 4 3)", 6),
        parse_cycles("(0 5)(2 3)", 6),
    ]
    g = PermGroup(6, gens)
    assert g.order() == 120
    assert g.is_primitive()
