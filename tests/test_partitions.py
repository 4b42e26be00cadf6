"""Partition core: frozen examples plus independent slow oracles.

The oracles here deliberately avoid the package's own algorithms: partial
sums are enumerated over explicit sub-multisets, cycle-type powering is done
on actual permutations, and wreath membership is decided by listing every
element of S_a wr S_b.
"""

import copy
import dataclasses
import enum
import itertools
import math
import pickle
import random
import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from migsets.constructions import build_x_family
from migsets.family_search import max_family
from migsets.partitions import (
    PartialSumMask,
    Partition,
    PartitionError,
    PartitionTooLarge,
    _mask_of,
    _partition_tuples,
    _walk_partitions,
    enumerate_partitions,
    is_partial_sum,
    jordan_witness,
    parity,
    partial_sums,
    power_type,
    wreath_realizable,
    wreath_types,
)
from migsets import partitions


# ---------------------------------------------------------------------------
# independent oracles


def sums_by_enumeration(parts):
    """All partial sums, via explicit choice of a count per distinct part."""
    counts = sorted(Counter(parts).items())
    sums = set()
    for takes in itertools.product(*(range(c + 1) for _, c in counts)):
        sums.add(sum(v * t for (v, _), t in zip(counts, takes)))
    return sums


def perm_of_type(parts):
    """A concrete permutation (image tuple on 0..n-1) with the given type."""
    images = [0] * sum(parts)
    start = 0
    for a in parts:
        for j in range(a):
            images[start + j] = start + (j + 1) % a
        start += a
    return tuple(images)


def type_of_perm(images):
    seen = [False] * len(images)
    lens = []
    for s in range(len(images)):
        if seen[s]:
            continue
        length = 0
        p = s
        while not seen[p]:
            seen[p] = True
            p = images[p]
            length += 1
        lens.append(length)
    return tuple(sorted(lens, reverse=True))


def perm_power(images, k):
    n = len(images)
    result = list(range(n))
    base = list(images)
    e = k
    while e:
        if e & 1:
            result = [base[p] for p in result]
        base = [base[p] for p in base]
        e >>= 1
    return tuple(result)


def perm_parity(images):
    """'odd'/'even' by counting inversions of the image tuple."""
    inv = sum(
        1
        for i in range(len(images))
        for j in range(i + 1, len(images))
        if images[i] > images[j]
    )
    return "odd" if inv % 2 else "even"


def wreath_types_by_enumeration(a, b):
    """Cycle types of every element of S_a wr S_b acting on a*b points.

    Point (i, j) = block i, slot j, laid out as i*a + j.  An element is a
    block permutation plus one S_a permutation per block; image of (i, j)
    is (top[i], bottom[i][j]).

    Block 0 takes one permutation per cycle type of S_a: conjugating every
    block by the same h commutes with the block permutation and keeps the
    element's cycle type, and some h brings block 0 to its representative.
    """
    perms = list(itertools.permutations(range(a)))
    first = {type_of_perm(h): h for h in perms}
    types = set()
    for top in itertools.permutations(range(b)):
        for bottoms in itertools.product(first.values(), *[perms] * (b - 1)):
            images = [0] * (a * b)
            for i in range(b):
                for j in range(a):
                    images[i * a + j] = top[i] * a + bottoms[i][j]
            types.add(type_of_perm(images))
    return types


def random_partition(rng, n_max=40, max_parts=20):
    n = rng.randint(1, n_max)
    parts = []
    remaining = n
    while remaining and len(parts) < max_parts - 1:
        a = rng.randint(1, remaining)
        parts.append(a)
        remaining -= a
    if remaining:
        parts.append(remaining)
    return Partition(parts)


# ---------------------------------------------------------------------------
# Partition construction and text format


def test_canonicalization_and_fields():
    p = Partition([1, 5, 3, 3])
    assert p.parts == (5, 3, 3, 1)
    assert p.n == 12
    assert len(p) == 4
    assert list(p) == [5, 3, 3, 1]


def test_equality_and_hash():
    assert Partition([2, 3]) == Partition([3, 2])
    assert hash(Partition([2, 3])) == hash(Partition([3, 2]))
    assert Partition([4]) != Partition([2, 2])


def test_invalid_partitions_rejected():
    with pytest.raises(PartitionError):
        Partition([])
    with pytest.raises(PartitionError):
        Partition([3, 0])
    with pytest.raises(PartitionError):
        Partition([-1, 2])


@pytest.mark.parametrize(
    "parts, named",
    [
        ([True], "True"),
        ([True, 2], "True"),
        ([2, True], "True"),
        ([1.0, 2], "1.0"),
        ([2, 1.0], "1.0"),
        (["a", 2], "'a'"),
        ([2, "a"], "'a'"),
        ([3, 0, -1], "0"),
        ([3, -1, 0], "-1"),
    ],
)
def test_invalid_part_is_named(parts, named):
    # the first offending part in input order is the one reported
    message = rf"^parts must be positive integers, got {re.escape(named)}$"
    with pytest.raises(PartitionError, match=message):
        Partition(parts)


def test_generator_parts_are_read_once():
    with pytest.raises(PartitionError, match=r"got 'x'$"):
        Partition(a for a in (3, "x", 1))
    with pytest.raises(PartitionError, match=r"got 0$"):
        Partition(a for a in (3, 0, 1))
    with pytest.raises(PartitionError, match="needs at least one part"):
        Partition(a for a in ())
    assert Partition(a for a in (1, 4, 2)).parts == (4, 2, 1)


def test_int_subclasses_other_than_bool_are_parts():
    class Size(enum.IntEnum):
        SMALL = 1
        LARGE = 3

    p = Partition([Size.SMALL, 2, Size.LARGE, 2**70])
    assert p.parts == (2**70, 3, 2, 1)
    assert p.n == 2**70 + 6
    assert p == Partition([2**70, 3, 2, 1])
    assert p.text() == f"{2**70},3,2,1"


def _counter_text(parts):
    items = sorted(Counter(parts).items(), reverse=True)
    return items, ",".join(f"{v}^{c}" if c > 1 else f"{v}" for v, c in items)


def test_text_and_multiplicities_match_counter_reference():
    for n in range(1, 21):
        for p in enumerate_partitions(n):
            for q in (p, Partition(list(reversed(p.parts)))):
                items, text = _counter_text(q.parts)
                assert q.multiplicities() == tuple(items)
                assert q.text() == text
                assert q.text() == text  # a second call gives the same text


def test_pickle_and_deepcopy_keep_text():
    for p in (Partition([5, 3, 3, 1]), Partition.from_text("7,5,1^3"), Partition([2**70])):
        text = p.text()
        for back in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p), copy.copy(p)):
            assert back == p and back.parts == p.parts and back.n == p.n
            assert back.text() == text
            assert str(back) == text and repr(back) == repr(p)
    fresh = pickle.loads(pickle.dumps(Partition([4, 4, 2])))
    assert fresh.text() == "4^2,2"


def test_text_round_trip():
    p = Partition.from_text("1^3,5,7")
    assert p.parts == (7, 5, 1, 1, 1)
    assert p.text() == "7,5,1^3"
    assert Partition.from_text(p.text()) == p
    assert Partition.from_text(" 2 , 2 ,2 ").text() == "2^3"
    assert Partition.from_text("4").text() == "4"


def test_text_rejects_garbage():
    # "3\n": a trailing newline; "\u0663": ARABIC-INDIC DIGIT THREE
    for bad in ["", "0", "3^0", "a", "2^", "^2", "3,,4", "3\n,2\n", "\u0663,2", "2^\u0663"]:
        with pytest.raises(PartitionError):
            Partition.from_text(bad)


def test_text_total_is_capped_before_expanding():
    # 20000 ones would be a 20000-element list; the cap refuses it first
    for big in ["1^20000", "5000,5001", "2^4000,1^2001", "1^" + "9" * 5000]:
        with pytest.raises(PartitionTooLarge):
            Partition.from_text(big)
    assert Partition.from_text("5000,4999,1").n == 10_000
    assert Partition.from_text("0001^007").parts == (1,) * 7


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.integers(min_value=1, max_value=60), min_size=1, max_size=40))
def test_text_round_trip_property(parts):
    p = Partition(parts)
    assert Partition.from_text(p.text()) == p


# the parser's error for each input: (text, exception class, offending
# token); a token is named with its spaces removed
FROM_TEXT_ERRORS = [
    ("", PartitionError, ""),
    ("0", PartitionError, "0"),
    ("3^0", PartitionError, "3^0"),
    ("a", PartitionError, "a"),
    ("2^", PartitionError, "2^"),
    ("^2", PartitionError, "^2"),
    ("3,,4", PartitionError, ""),
    ("3\n,2\n", PartitionError, "3\n"),
    ("\u0663,2", PartitionError, "\u0663"),
    ("2^\u0663", PartitionError, "2^\u0663"),
    ("3^", PartitionError, "3^"),
    ("^3", PartitionError, "^3"),
    ("3^^2", PartitionError, "3^^2"),
    ("3^2^2", PartitionError, "3^2^2"),
    ("3,,2", PartitionError, ""),
    ("\t3", PartitionError, "\t3"),
    ("\uff13", PartitionError, "\uff13"),  # FULLWIDTH DIGIT THREE
    ("2^\u00b2", PartitionError, "2^\u00b2"),  # SUPERSCRIPT TWO: str.isdigit takes it
    ("5, 3 ^ ,2", PartitionError, "3^"),
    ("2^" + "9" * 5000, PartitionTooLarge, None),
    ("0^" + "9" * 5000, PartitionTooLarge, None),
]


@pytest.mark.parametrize(
    "text, kind, token", FROM_TEXT_ERRORS, ids=[repr(t[:12]) for t, _, _ in FROM_TEXT_ERRORS]
)
def test_text_error_class_and_message(text, kind, token):
    if token is None:
        message = f"partition text sums past the cap 10000: {text[:40]!r}"
    else:
        message = f"bad partition token {token!r} in {text!r}"
    with pytest.raises(PartitionError) as info:
        Partition.from_text(text)
    assert type(info.value) is kind
    assert str(info.value) == message


@st.composite
def spelled_runs(draw):
    """Runs with distinct values, descending, and a text for them whose
    tokens may have spaces, leading zeros or a ^1, in an order that may be
    shuffled."""
    values = draw(st.lists(st.integers(1, 60), min_size=1, max_size=6, unique=True))
    runs = [(value, draw(st.integers(1, 12))) for value in sorted(values, reverse=True)]
    tokens = []
    for value, count in runs:
        token = "0" * draw(st.sampled_from([0, 0, 0, 1, 2])) + str(value)
        if count > 1 or draw(st.sampled_from([False, False, False, True])):
            token += "^" + "0" * draw(st.sampled_from([0, 0, 0, 1])) + str(count)
        tokens.append(token)
    if draw(st.sampled_from([False, False, True])):
        tokens = draw(st.permutations(tokens))
    text = ",".join(tokens)
    if draw(st.sampled_from([False, False, False, True])):
        spot = draw(st.integers(0, len(text)))
        text = text[:spot] + " " + text[spot:]
    return tuple(runs), text


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(spelled_runs())
def test_text_is_kept_exactly_when_canonical(case):
    runs, text = case
    canonical = ",".join(f"{v}^{c}" if c > 1 else f"{v}" for v, c in runs)
    p = Partition.from_text(text)
    kept = p._text
    assert p.multiplicities() == runs
    assert p.text() == canonical
    assert (kept is not None) == (text == canonical)
    assert kept is None or kept is text
    assert p == Partition(list(p.parts))


@st.composite
def scattered_text(draw, parts=None):
    """A parts list (drawn unless given) and a text for it: equal parts
    split over several tokens, tokens shuffled, spaces put anywhere."""
    if parts is None:
        parts = draw(st.lists(st.integers(min_value=1, max_value=60), min_size=1, max_size=40))
    tokens = []
    for value, count in Counter(parts).items():
        while count:
            take = draw(st.integers(min_value=1, max_value=count))
            count -= take
            spelled = draw(st.sampled_from(["", "^"]))
            tokens.append(f"{value}^{take}" if take > 1 or spelled else f"{value}")
    tokens = draw(st.permutations(tokens))
    text = ",".join(tokens)
    spaced = "".join(c + " " * draw(st.integers(0, 2)) for c in text)
    return parts, " " * draw(st.integers(0, 2)) + spaced


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(scattered_text())
def test_text_with_split_runs_matches_parts(case):
    parts, text = case
    p = Partition.from_text(text)
    q = Partition(parts)
    # the per-part DP runs on q, which carries no runs yet
    assert partial_sums(p).bits == partial_sums(q).bits
    assert p.parts == q.parts and p.n == q.n
    assert p.multiplicities() == q.multiplicities()
    assert p.text() == q.text()
    assert p == q and hash(p) == hash(q)
    for back in (pickle.loads(pickle.dumps(p)), copy.copy(p), copy.deepcopy(p)):
        assert back == q and back.text() == q.text()
        assert partial_sums(back).bits == partial_sums(q).bits


def test_run_dp_matches_part_dp_for_every_count():
    # binary splitting around 2^k - 1, 2^k and 2^k + 1 copies of a part,
    # against a plain shift per part
    for a in (1, 2, 3, 7):
        for count in range(1, 71):
            for tail in ((), ((5, 1),), ((a + 1, 3), (1, 2))):
                runs = [(a, count), *tail]
                by_runs = Partition._from_runs(runs)
                by_parts = Partition([v for v, c in runs for _ in range(c)])
                assert by_runs.parts == by_parts.parts
                per_part = 1
                for part in by_parts.parts:
                    per_part |= per_part << part
                assert partial_sums(by_runs).bits == per_part
                assert partial_sums(by_parts).bits == per_part


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    st.lists(
        st.tuples(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=70)),
        min_size=1,
        max_size=5,
    ).filter(lambda runs: any(c for _, c in runs))
)
def test_runs_constructor_merges_and_sorts(runs):
    p = Partition._from_runs(runs)
    parts = [v for v, c in runs for _ in range(c)]
    q = Partition(parts)
    assert p.parts == q.parts and p.n == q.n
    assert p.multiplicities() == tuple(sorted(Counter(parts).items(), reverse=True))
    assert partial_sums(p).bits == partial_sums(q).bits
    sums = {0}
    for a in parts:
        sums |= {s + a for s in sums}
    assert {i for i in range(q.n + 1) if partial_sums(p).contains(i)} == sums


@st.composite
def four_builds(draw):
    """One partition built four ways: by `Partition(parts)` from shuffled
    parts, by `_from_runs` from split runs with zero counts mixed in, by
    `from_text` from shuffled tokens with spaces added, and (small n) from
    `enumerate_partitions`."""
    if draw(st.booleans()):
        n = draw(st.integers(min_value=1, max_value=16))
        enumerated = draw(st.sampled_from(list(enumerate_partitions(n))))
        parts = list(enumerated.parts)
    else:
        parts = draw(st.lists(st.integers(min_value=1, max_value=60), min_size=1, max_size=40))
        enumerated = None
    runs = []
    for value, count in Counter(parts).items():
        while count:
            take = draw(st.integers(min_value=1, max_value=count))
            count -= take
            runs.append((value, take))
        runs += [(value, 0)] * draw(st.integers(0, 1))
    _, text = draw(scattered_text(parts))
    builds = [
        Partition(draw(st.permutations(parts))),
        Partition._from_runs(draw(st.permutations(runs))),
        Partition.from_text(text),
    ]
    return parts, builds + [enumerated] * (enumerated is not None)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(four_builds())
def test_partitions_built_every_way_are_interchangeable(case):
    parts, builds = case
    other = Partition([*parts, 1])
    # identity first, before any build has made its parts
    for p in builds:
        for q in builds:
            assert p == q and hash(p) == hash(q)
            assert {q: "found"}[p] == "found" and p in {q}
        assert p != other and other not in set(builds)
    expected = tuple(sorted(parts, reverse=True))
    for p in builds:
        for back in (p, pickle.loads(pickle.dumps(p)), copy.copy(p), copy.deepcopy(p)):
            assert back == builds[0] and hash(back) == hash(builds[0])
            assert back.parts == expected and back.n == sum(parts)
            assert len(back) == len(parts)
            assert parity(back) == ("odd" if (sum(parts) - len(parts)) % 2 else "even")
            assert back.text() == builds[0].text()
            assert partial_sums(back).bits == partial_sums(builds[0]).bits


def test_enumerate_partitions_counts():
    # p(n) for n = 1..10
    expected = [1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    for n, count in enumerate(expected, start=1):
        ps = list(enumerate_partitions(n))
        assert len(ps) == count
        assert len(set(ps)) == count
        assert all(p.n == n for p in ps)


def test_enumerate_partitions_order_is_deterministic():
    first = [p.parts for p in enumerate_partitions(6)]
    second = [p.parts for p in enumerate_partitions(6)]
    assert first == second
    assert first[0] == (6,)
    assert first[-1] == (1, 1, 1, 1, 1, 1)


def test_enumerated_partitions_are_checked_partitions():
    # enumeration skips Partition's checks; each value must still be one
    for n in range(1, 21):
        ps = list(enumerate_partitions(n))
        assert [p.parts for p in ps] == sorted({p.parts for p in ps}, reverse=True)
        for p in ps:
            checked = Partition(list(p.parts))
            assert p == checked and p.parts == checked.parts and p.n == checked.n == n
            back = pickle.loads(pickle.dumps(p))
            assert back == p and back.n == n and back.parts == p.parts
    assert len(list(enumerate_partitions(20))) == 627


def test_enumerate_partitions_cap():
    with pytest.raises(PartitionTooLarge):
        list(enumerate_partitions(41))


@pytest.mark.parametrize("n", range(1, 31))
def test_walk_matches_parts_tuples_and_kept_sums(n):
    # the walk visits every partition once, in reverse-lexicographic order,
    # each with the partial sums that the DP gives, kept within the window:
    # the listing window 0, the descriptor window (n-1)//2 and the mask
    # window n//2; p(n) comes from the coin-change count
    counts = [1] + [0] * n
    for a in range(1, n + 1):
        for m in range(a, n + 1):
            counts[m] += counts[m - a]
    for window in (0, (n - 1) // 2, n // 2):
        kept = (1 << window + 1) - 1
        visited = []
        _walk_partitions(n, window, lambda parts, sums: visited.append((parts, sums)))
        tuples = [parts for parts, _ in visited]
        assert len(tuples) == counts[n] and tuples == sorted(set(tuples), reverse=True)
        assert all(sum(t) == n and list(t) == sorted(t, reverse=True) for t in tuples)
        assert tuples[0] == (n,) and tuples[-1] == (1,) * n
        assert visited == [
            (parts, partial_sums(Partition(parts)).bits & kept) for parts in tuples
        ]
        assert _partition_tuples(n) == tuples


# ---------------------------------------------------------------------------
# partial sums


def test_partial_sums_frozen_238():
    mask = partial_sums(Partition([2, 3, 3]))
    assert {i for i in range(9) if mask.contains(i)} == {0, 2, 3, 5, 6, 8}
    assert mask.missing_interior() == (1, 4, 7)


def test_partial_sums_frozen_4331():
    mask = partial_sums(Partition([4, 3, 3, 1]))
    assert mask.missing_interior() == (2, 9)


def test_partial_sums_all_ones():
    mask = partial_sums(Partition([1] * 9))
    assert mask.missing_interior() == ()


def test_partial_sums_endpoints_always_set():
    for p in enumerate_partitions(8):
        mask = partial_sums(p)
        assert mask.contains(0) and mask.contains(p.n)


def test_is_partial_sum_examples():
    assert is_partial_sum(Partition([2, 3, 3]), 4) is False
    assert is_partial_sum(Partition([2, 3, 3]), 0) is True
    assert is_partial_sum(Partition([5, 1]), 1) is True


def test_is_partial_sum_range_errors():
    p = Partition([2, 3])
    with pytest.raises(PartitionError):
        is_partial_sum(p, -1)
    with pytest.raises(PartitionError):
        is_partial_sum(p, 6)


def test_partial_sums_cap():
    with pytest.raises(PartitionTooLarge):
        partial_sums(Partition([20000]))


def test_mask_bitstring_and_restricted():
    mask = partial_sums(Partition([4, 1]))
    # indices 0..5, characters left to right
    assert mask.bitstring() == "110011"
    # restricted view keeps bits 1..n//2, here {1} of {1,2}
    assert mask.restricted_bits() == 0b10


def test_partial_sums_vs_enumeration_exhaustive_small():
    for n in range(1, 9):
        for p in enumerate_partitions(n):
            expected = sums_by_enumeration(p.parts)
            mask = partial_sums(p)
            assert {i for i in range(n + 1) if mask.contains(i)} == expected


def test_partial_sums_vs_enumeration_random():
    rng = random.Random(90121)
    for _ in range(400):
        p = random_partition(rng)
        expected = sums_by_enumeration(p.parts)
        mask = partial_sums(p)
        got = {i for i in range(p.n + 1) if mask.contains(i)}
        assert got == expected, p


def test_mask_complement_symmetry_random():
    rng = random.Random(17)
    for _ in range(300):
        p = random_partition(rng)
        mask = partial_sums(p)
        for i in range(p.n + 1):
            assert mask.contains(i) == mask.contains(p.n - i)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=60))
def test_mask_symmetry_and_bitstring_property(parts):
    # partial sums are closed under complement, so every mask is a palindrome
    p = Partition(parts)
    mask = partial_sums(p)
    chars = "".join("1" if mask.bits >> i & 1 else "0" for i in range(p.n + 1))
    assert mask.bitstring() == chars
    assert mask.is_symmetric()
    assert all(mask.contains(i) == mask.contains(p.n - i) for i in range(p.n + 1))


def test_is_symmetric_rejects_lopsided_mask():
    assert not PartialSumMask(3, 0b0011).is_symmetric()
    assert PartialSumMask(3, 0b1001).is_symmetric()


def test_mask_of_is_the_dataclass_mask():
    # the DP's masks are made through their slots; they must be the same
    # values the frozen dataclass makes
    for n, bits in [(7, 0b10110111), (1, 0b11), (12, partial_sums(Partition([5, 4, 3])).bits)]:
        made, built = _mask_of(n, bits), PartialSumMask(n, bits)
        assert type(made) is PartialSumMask
        assert made == built and hash(made) == hash(built) and repr(made) == repr(built)
        with pytest.raises(dataclasses.FrozenInstanceError):
            made.bits = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            made.n = 3
        assert pickle.loads(pickle.dumps(made)) == built
        assert copy.deepcopy(made) == built
    assert type(partial_sums(Partition([5, 4, 3]))) is PartialSumMask


# ---------------------------------------------------------------------------
# parity


def test_parity_frozen():
    assert parity(Partition([2] + [1] * 7)) == "odd"
    assert parity(Partition([3, 7, 4, 2, 2])) == "odd"
    assert parity(Partition([1] * 6)) == "even"
    assert parity(Partition([4, 2])) == "even"
    assert parity(Partition([5, 1])) == "even"


def test_parity_matches_inversion_count():
    rng = random.Random(4242)
    for _ in range(200):
        p = random_partition(rng, n_max=9)
        assert parity(p) == perm_parity(perm_of_type(p.parts))


def test_parity_even_part_count_rule():
    rng = random.Random(77)
    for _ in range(200):
        p = random_partition(rng)
        evens = sum(1 for a in p.parts if a % 2 == 0)
        assert (parity(p) == "odd") == (evens % 2 == 1)


# ---------------------------------------------------------------------------
# power_type


def test_power_type_frozen():
    assert power_type(Partition([4]), 2) == Partition([2, 2])
    assert power_type(Partition([2, 3, 3]), 3) == Partition([2, 1, 1, 1, 1, 1, 1])
    assert power_type(Partition([6]), 2) == Partition([3, 3])
    assert power_type(Partition([6]), 3) == Partition([2, 2, 2])
    p = Partition([5, 4, 2, 1])
    assert power_type(p, 1) == p


def test_power_type_rejects_bad_k():
    with pytest.raises(PartitionError):
        power_type(Partition([3]), 0)


def test_power_type_matches_real_permutation_powers():
    rng = random.Random(555)
    for _ in range(250):
        p = random_partition(rng, n_max=12)
        sigma = perm_of_type(p.parts)
        k = rng.randint(1, 30)
        assert power_type(p, k).parts == type_of_perm(perm_power(sigma, k))


@st.composite
def partitions_up_to_12(draw):
    remaining = draw(st.integers(min_value=1, max_value=12))
    parts = []
    while remaining:
        parts.append(draw(st.integers(min_value=1, max_value=remaining)))
        remaining -= parts[-1]
    return Partition(parts)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(p=partitions_up_to_12(), k=st.integers(min_value=1, max_value=30))
def test_power_type_property_against_permutation_power(p, k):
    sigma = perm_of_type(p.parts)
    assert power_type(p, k).parts == type_of_perm(perm_power(sigma, k))


def test_power_type_composition():
    rng = random.Random(556)
    for _ in range(250):
        p = random_partition(rng, n_max=15)
        j, k = rng.randint(1, 12), rng.randint(1, 12)
        assert power_type(power_type(p, j), k) == power_type(p, j * k)


def test_power_type_even_exponent_gives_even_parity():
    rng = random.Random(557)
    for _ in range(200):
        p = random_partition(rng)
        k = 2 * rng.randint(1, 10)
        assert parity(power_type(p, k)) == "even"


# ---------------------------------------------------------------------------
# jordan_witness


def test_jordan_witness_frozen():
    assert jordan_witness(Partition([3, 7, 4, 2, 2])) == 7
    assert jordan_witness(Partition([1, 1, 1, 5, 7])) == 7
    assert jordan_witness(Partition([1] * 8)) is None
    assert jordan_witness(Partition([2, 3, 3])) == 2
    assert jordan_witness(Partition([4, 3, 3, 1])) is None
    assert jordan_witness(Partition([5, 5, 1])) is None  # multiplicity 2
    assert jordan_witness(Partition([3, 6, 1])) is None  # 3 divides 6


def test_jordan_witness_picks_largest():
    # both 5 and 3 qualify (multiplicity 1, divide nothing else, n-l >= 3)
    assert jordan_witness(Partition([5, 3])) == 5


def test_jordan_witness_requires_three_fixed_points():
    assert jordan_witness(Partition([5, 1, 1])) is None  # n - 5 = 2 < 3
    assert jordan_witness(Partition([5, 1, 1, 1])) == 5


def test_jordan_witness_power_consequence():
    # if the witness is l, raising to the lcm of the other parts leaves an
    # l-cycle with n - l fixed points
    for parts in [(3, 7, 4, 2, 2), (1, 1, 1, 5, 7), (5, 3), (11, 4, 2, 1)]:
        p = Partition(parts)
        ell = jordan_witness(p)
        assert ell is not None
        others = [a for a in p.parts if a != ell]
        k = math.lcm(*others) if others else 1
        assert power_type(p, k) == Partition([ell] + [1] * (p.n - ell))


# ---------------------------------------------------------------------------
# wreath_realizable


def test_wreath_frozen():
    assert wreath_realizable(Partition([6]), 3, 2) is True
    assert wreath_realizable(Partition([2, 2, 2]), 3, 2) is True
    assert wreath_realizable(Partition([4, 1, 1]), 3, 2) is False
    assert wreath_realizable(Partition([4]), 2, 2) is True
    assert wreath_realizable(Partition([5, 1]), 2, 3) is False
    assert wreath_realizable(Partition([4, 2]), 2, 3) is True
    # an l-cycle with k not dividing l never fits blocks of size k
    assert wreath_realizable(Partition([1, 1, 1, 9]), 2, 6) is False
    assert wreath_realizable(Partition([1, 1, 1, 9]), 3, 4) is True


def test_wreath_n15_members():
    # the degree-15 special case of the lower-bound proof
    p = Partition([7, 5, 1, 1, 1])
    assert wreath_realizable(p, 3, 5) is False
    assert wreath_realizable(p, 5, 3) is False
    # while the generic first member of the degree-15 family IS 3|5-realizable
    assert wreath_realizable(Partition([4, 3, 2, 2, 2, 2]), 3, 5) is True


def test_wreath_rejects_bad_arguments():
    with pytest.raises(PartitionError):
        wreath_realizable(Partition([3, 3]), 2, 2)  # 2*2 != 6
    with pytest.raises(PartitionError):
        wreath_realizable(Partition([6]), 6, 1)
    with pytest.raises(PartitionError):
        wreath_realizable(Partition([6]), 1, 6)


def _realizable_by_plain_backtracking(p, a, b):
    """Today's grouping step expanded at every state, with no state decided
    early: the reference for the one-value rule."""
    seen = set()
    stack = [iter([(p.multiplicities(), b)])]
    while stack:
        state = next(stack[-1], None)
        if state is None:
            stack.pop()
        elif state not in seen:
            seen.add(state)
            items, blocks_left = state
            if items:
                stack.append(partitions._next_states(items, blocks_left, a))
            elif blocks_left == 0:
                return True
    return False


def test_wreath_one_value_rule_vs_plain_backtracking():
    # every member of the constructed families at every block size, where the
    # tail class (n - top, 1^top) ends in a one-value state
    for n in range(13, 301, 7):
        for p in build_x_family(n).members:
            for a in range(2, n // 2 + 1):
                if n % a == 0:
                    expected = _realizable_by_plain_backtracking(p, a, n // a)
                    assert wreath_realizable(p, a, n // a) is expected, (p, a)
    # 3^60 on 36 blocks of 5 after the group {4, 1}: five 3-cycles span three
    # blocks
    p = Partition.from_text("4,3^60,1")
    assert wreath_realizable(p, 5, 37) is True
    assert _realizable_by_plain_backtracking(p, 5, 37) is True


def _count_expansions(monkeypatch):
    calls = []
    real = partitions._next_states

    def counted(items, blocks_left, a):
        calls.append(items)
        return real(items, blocks_left, a)

    monkeypatch.setattr(partitions, "_next_states", counted)
    return calls


def test_wreath_one_value_states_are_not_expanded(monkeypatch):
    calls = _count_expansions(monkeypatch)
    # the group {142} on 71 blocks leaves 1^138 on 69 blocks, decided at once
    assert wreath_realizable(Partition.from_text("142,1^138"), 2, 140) is True
    assert len(calls) <= 1
    calls.clear()
    # one value from the start: no state is expanded
    assert wreath_realizable(Partition.from_text("2^3000"), 2, 3000) is True
    assert calls == []


@pytest.mark.parametrize("bad", [2.0, "2", True])
def test_wreath_non_integer_arguments_are_refused(bad):
    p = Partition([6])
    with pytest.raises(PartitionError, match="^block size must be an integer, got "):
        wreath_realizable(p, bad, 3)
    with pytest.raises(PartitionError, match="^block count must be an integer, got "):
        wreath_realizable(p, 3, bad)
    with pytest.raises(PartitionError, match="^block size must be an integer, got "):
        wreath_types(bad, 3)
    with pytest.raises(PartitionError, match="^block count must be an integer, got "):
        wreath_types(3, bad)


@pytest.mark.parametrize("bad", [6.0, "6", True])
def test_enumerate_partitions_non_integer_degree_is_refused(bad):
    with pytest.raises(PartitionError, match="^degree must be an integer, got "):
        list(enumerate_partitions(bad))


@pytest.mark.parametrize(
    "bad,error,message",
    [
        (6.0, PartitionError, "^degree must be an integer, got 6.0$"),
        (True, PartitionError, "^degree must be an integer, got True$"),
        (0, PartitionError, "^need n >= 1, got 0$"),
        (41, PartitionTooLarge, "^partition enumeration capped at 40, got n=41$"),
    ],
)
def test_enumerate_partitions_refuses_at_the_call(bad, error, message):
    # the call itself raises: nothing is iterated
    with pytest.raises(error, match=message):
        enumerate_partitions(bad)


def test_wreath_many_blocks():
    assert wreath_realizable(Partition([2] * 3000), 2, 3000) is True
    assert wreath_realizable(Partition([2] * 2999 + [1, 1]), 3, 2000) is True
    # two values to the end: one backtracking step per group {3, 1}, 2000
    # groups deep, past Python's recursion limit
    assert wreath_realizable(Partition.from_text("3^2000,1^2000"), 4, 2000) is True


@pytest.mark.parametrize(
    "a,b",
    [(2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (3, 3), (2, 5), (5, 2), (2, 6), (6, 2), (3, 4), (4, 3)],
)
def test_wreath_vs_element_enumeration(a, b):
    realizable = wreath_types_by_enumeration(a, b)
    assert wreath_types(a, b) == realizable
    for p in enumerate_partitions(a * b):
        assert wreath_realizable(p, a, b) == (p.parts in realizable), (p, a, b)


def test_wreath_types_match_realizable():
    for n in range(4, 21):
        for a in [d for d in range(2, n // 2 + 1) if n % d == 0]:
            b = n // a
            expected = {p.parts for p in enumerate_partitions(n) if wreath_realizable(p, a, b)}
            assert wreath_types(a, b) == expected, (a, b)


def test_wreath_types_rejects_bad_arguments():
    for a, b in [(1, 6), (6, 1), (0, 4)]:
        with pytest.raises(PartitionError):
            wreath_types(a, b)
    with pytest.raises(PartitionTooLarge):
        wreath_types(2, 21)


def test_partition_values_pickle_and_copy():
    p = Partition.from_text("7,5,1^3")
    partial_sums(p)  # fills the cached mask slot
    for back in (pickle.loads(pickle.dumps(p)), copy.copy(p), copy.deepcopy(p)):
        assert back == p and back.parts == p.parts and back.n == p.n
        assert partial_sums(back) == partial_sums(p)
        with pytest.raises(AttributeError):
            back.n = 3
    for value in (build_x_family(13), max_family(9)):
        assert pickle.loads(pickle.dumps(value)) == value
        assert copy.deepcopy(value) == value
    assert dataclasses.astuple(max_family(5))[:2] == (5, 2)
