"""Invariable-generation oracle: the per-kind class membership tests are
checked against direct element enumeration of every maximal subgroup for
degrees up to 8, and against hand-derived facts at degree 5, 6, 11, 12.
The incidence-mask engine is checked against the definition: per-record
membership bit by bit, and generation/minimality against a plain
leave-one-out scan."""

import dataclasses
import itertools

import pytest

from migsets.partitions import (
    Partition,
    _partition_tuples,
    enumerate_partitions,
    parity,
    partial_sums,
)
from migsets import subgroup_oracle
from migsets.perms import PermGroup, cycle_type, format_cycles, from_cycles, is_primitive
from migsets.subgroup_oracle import (
    OracleError,
    _alternating_record,
    _parts_mask,
    _validate_record,
    class_meets_subgroup,
    incidence,
    incidence_mask,
    invariably_generates,
    is_mig_set,
    maximal_subgroups,
    structural_records,
    structural_vector,
)
from migsets.family_search import vector_groups


def P(text):
    return Partition.from_text(text)


# ---------------------------------------------------------------------------
# record lists


def test_record_counts_and_labels():
    recs = maximal_subgroups(6)
    labels = [r.label for r in recs]
    assert labels == ["S_1 x S_5", "S_2 x S_4", "S_2 wr S_3", "S_3 wr S_2", "A_6", "PGL(2,5)"]
    assert maximal_subgroups(5)[-1].label == "AGL(1,5)"
    assert [r.label for r in maximal_subgroups(12) if r.kind == "imprimitive"] == [
        "S_2 wr S_6",
        "S_3 wr S_4",
        "S_4 wr S_3",
        "S_6 wr S_2",
    ]


def test_primitive_record_inside_alternating_group_refused():
    # PGL(2,5)'s even generators give PSL(2,5): order 60, primitive on 6
    # points, but not maximal in S_6
    pgl = maximal_subgroups(6)[-1]
    even = tuple(g for g in pgl.generators if parity(cycle_type(g)) == "even")
    psl = dataclasses.replace(pgl, generators=even, expected_order=60)
    assert is_primitive(6, psl.generators)
    with pytest.raises(OracleError, match="contained in the alternating group"):
        _validate_record(psl)


def _mutated(n, label, extra=None, drop=None):
    """The structural or alternating record of that label, with the cycle
    `extra` added as a generator or the generator at index `drop` removed."""
    rec = next(r for r in (*structural_records(n), _alternating_record(n)) if r.label == label)
    gens = [g for i, g in enumerate(rec.generators) if i != drop]
    if extra:
        gens.append(from_cycles(n, [extra]))
    return dataclasses.replace(rec, generators=tuple(gens))


@pytest.mark.parametrize(
    "rec, message",
    [
        # each invariant is checked before the order it bounds: every record
        # here generates a larger group than it states
        (_mutated(7, "S_3 x S_4", extra=(2, 3)), r"orbits \(\(0, 1, 2, 3, 4, 5, 6\),\)$"),
        (_mutated(6, "S_2 wr S_3", extra=(1, 2)), "does not permute the blocks of size 2$"),
        (_mutated(7, "A_7", extra=(0, 1)), "A_7: generators must be even$"),
        # a dropped generator keeps the invariant and loses order
        (_mutated(7, "S_3 x S_4", drop=0), r"S_3 x S_4: generated order 72 != 144$"),
        (_mutated(6, "S_2 wr S_3", drop=2), r"S_2 wr S_3: generated order 24 != 48$"),
        (_mutated(7, "A_7", drop=0), r"A_7: generated order 7 != 2520$"),
    ],
    ids=[
        "joined-orbits",
        "broken-blocks",
        "odd-generator",
        "drop-intransitive",
        "drop-wreath",
        "drop-alternating",
    ],
)
def test_mutated_structural_record_refused(rec, message):
    with pytest.raises(OracleError, match=message):
        _validate_record(rec)


def _count_chains(monkeypatch):
    built = []
    init = PermGroup.__init__

    def counting_init(self, degree, generators):
        built.append(degree)
        init(self, degree, generators)

    monkeypatch.setattr(PermGroup, "__init__", counting_init)
    return built


def test_record_without_transposition_validates_through_one_chain(monkeypatch):
    # S_4 from a 4-cycle and a 3-cycle is the right group, but Jordan's
    # theorem reads no transposition in it: the chain gives the order
    rec = _mutated(7, "S_3 x S_4", extra=(3, 4, 5), drop=2)
    assert [format_cycles(g) for g in rec.generators[2:]] == ["(3 4 5 6)", "(3 4 5)"]
    built = _count_chains(monkeypatch)
    assert _validate_record(rec) is None
    assert built == [7]


def test_structural_records_to_degree_20_validate(monkeypatch):
    # Jordan's theorem certifies every stated order at n=13..40, the range
    # `structural_records` covers, past the oracle's MAX_DEGREE, without a
    # chain
    built = _count_chains(monkeypatch)
    for n in range(13, 41):
        for rec in (*structural_records(n), _alternating_record(n)):
            assert _validate_record(rec) is None, rec.label
    assert built == []


def test_loading_builds_one_chain_per_primitive_record(monkeypatch):
    # the structural and alternating records are certified by their
    # invariant and Jordan's theorem (`_jordan`), so loading n=5..12 builds
    # only the eight primitive chains
    built = _count_chains(monkeypatch)
    maximal_subgroups.cache_clear()
    assert sum(len(maximal_subgroups(n)) for n in range(5, 13)) == 55
    assert built == list(range(5, 13))


def test_degree_range_enforced():
    with pytest.raises(OracleError):
        maximal_subgroups(4)
    with pytest.raises(OracleError):
        maximal_subgroups(13)
    # refused before the cache, which would answer 6.0 and True for 6 and 1
    maximal_subgroups(6)
    for bad in (6.0, "6", True):
        with pytest.raises(OracleError, match="^degree must be an integer, got "):
            maximal_subgroups(bad)


def test_record_orders_and_class_counts():
    for n in range(5, 13):
        for rec in maximal_subgroups(n):
            assert rec.group().order() == rec.expected_order


def test_primitive_orders_frozen():
    frozen = {
        5: ("AGL(1,5)", 20),
        6: ("PGL(2,5)", 120),
        7: ("AGL(1,7)", 42),
        8: ("PGL(2,7)", 336),
        9: ("AGL(2,3)", 432),
        10: ("PGammaL(2,9)", 1440),
        11: ("AGL(1,11)", 110),
        12: ("PGL(2,11)", 1320),
    }
    for n, (label, order) in frozen.items():
        prim = [r for r in maximal_subgroups(n) if r.kind in ("affine", "almost_simple")]
        assert [(r.label, r.expected_order) for r in prim] == [(label, order)]


def test_primitive_records_carry_kind_and_cycle_types():
    # the kind is read off the label, and the cycle types ride on the record
    # without entering its identity: a loaded record equals and hashes like
    # the bare one parsed from the data file
    kinds = {
        5: ("AGL(1,5)", "affine"),
        6: ("PGL(2,5)", "almost_simple"),
        7: ("AGL(1,7)", "affine"),
        8: ("PGL(2,7)", "almost_simple"),
        9: ("AGL(2,3)", "affine"),
        10: ("PGammaL(2,9)", "almost_simple"),
        11: ("AGL(1,11)", "affine"),
        12: ("PGL(2,11)", "almost_simple"),
    }
    bare = subgroup_oracle._load_primitive_records()
    for n, pair in kinds.items():
        records = maximal_subgroups(n)
        prim = records[len(records) - len(bare[n]) :]
        assert [(r.label, r.kind) for r in prim] == [pair]
        for rec, original in zip(prim, bare[n], strict=True):
            assert rec.cycle_types == rec.group().cycle_types()
            assert original.cycle_types is None
            assert rec == original and hash(rec) == hash(original)
        assert all(r.cycle_types is None for r in records[: -len(prim)])


# ---------------------------------------------------------------------------
# class membership per kind, against direct enumeration


def subgroup_cycle_types(rec):
    return {cycle_type(e) for e in rec.group().elements()}


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_class_meets_subgroup_matches_enumeration(n):
    # The conjugacy class of p meets a conjugate of the subgroup iff some
    # element of the subgroup itself has cycle type p.
    for rec in maximal_subgroups(n):
        types = subgroup_cycle_types(rec)
        for p in enumerate_partitions(n):
            assert class_meets_subgroup(rec, p) == (p in types), (rec.label, p.text())


def test_class_membership_frozen_examples():
    recs = {r.label: r for r in maximal_subgroups(6)}
    assert class_meets_subgroup(recs["A_6"], P("3,3"))
    assert not class_meets_subgroup(recs["A_6"], P("6"))
    assert class_meets_subgroup(recs["S_3 wr S_2"], P("6"))
    assert not class_meets_subgroup(recs["S_3 wr S_2"], P("4,1,1"))
    assert class_meets_subgroup(recs["S_2 x S_4"], P("2,2,1,1"))
    assert not class_meets_subgroup(recs["S_1 x S_5"], P("6"))
    assert class_meets_subgroup(recs["PGL(2,5)"], P("5,1"))
    assert not class_meets_subgroup(recs["PGL(2,5)"], P("3,2,1"))


def test_primitive_cycle_types_frozen():
    expected = {
        "AGL(1,5)": {"1^5", "2^2,1", "4,1", "5"},
        "AGL(1,7)": {"1^7", "2^3,1", "3^2,1", "6,1", "7"},
        "AGL(1,11)": {"1^11", "2^5,1", "5^2,1", "10,1", "11"},
        "PGL(2,7)": {"1^8", "2^3,1^2", "2^4", "3^2,1^2", "4^2", "6,1^2", "7,1", "8"},
        "PGL(2,11)": {
            "1^12", "2^5,1^2", "2^6", "3^4", "4^3", "5^2,1^2",
            "6^2", "10,1^2", "11,1", "12",
        },
    }
    for n in (5, 7, 8, 11, 12):
        rec = maximal_subgroups(n)[-1]
        assert {t.text() for t in subgroup_cycle_types(rec)} == expected[rec.label]


def test_primitive_types_closed_under_powers():
    # a subgroup's set of cycle types is closed under taking element powers
    from migsets.partitions import power_type

    for n in range(5, 13):
        for rec in maximal_subgroups(n):
            if rec.kind not in ("affine", "almost_simple"):
                continue
            types = subgroup_cycle_types(rec)
            for p in types:
                for k in range(2, 13):
                    assert power_type(p, k) in types


def test_class_membership_rejects_degree_mismatch():
    rec = maximal_subgroups(6)[0]
    with pytest.raises(OracleError):
        class_meets_subgroup(rec, P("5,2"))


# ---------------------------------------------------------------------------
# invariable generation


def test_invariable_generation_frozen_examples():
    # both classes are even, so the alternating group meets both
    assert not invariably_generates([P("5,1"), P("4,2")], 6)
    # minimal invariably generating set of degree 6: every maximal subgroup
    # misses a member, and every pair is covered by some subgroup
    family = [P("4,1,1"), P("3,1^3"), P("3,3")]
    assert invariably_generates(family, 6)
    assert is_mig_set(family, 6)
    # dropping any member must break generation (minimality, directly)
    for i in range(3):
        rest = family[:i] + family[i + 1 :]
        assert not invariably_generates(rest, 6)
    # a strict superset still generates but is no longer minimal
    assert invariably_generates(family + [P("2,1^4")], 6)
    assert not is_mig_set(family + [P("2,1^4")], 6)


def test_no_small_invariably_generating_sets_degree6():
    types = [p for p in enumerate_partitions(6) if len(p.parts) < 6]
    singles = sum(invariably_generates([p], 6) for p in types)
    assert singles == 0
    pairs = sum(
        invariably_generates(list(pair), 6) for pair in itertools.combinations(types, 2)
    )
    assert pairs == 0


def test_identity_class_never_in_mig_set():
    # the identity type lies in every subgroup, so minimality always fails
    family = [P("1^6"), P("4,1,1"), P("3,1^3"), P("3,3")]
    assert invariably_generates(family, 6)
    assert not is_mig_set(family, 6)


def test_mig_set_rejects_duplicates_and_degree_mix():
    bad = [
        ([P("3,3"), P("3,3")], 6),
        ([P("3,3"), P("5,2")], 6),
        ([], 6),
        ([P("4")], 4),  # degrees outside the bundled range 5..12
        ([P("13")], 13),
        # a degree that is not an int, though 6.0 == 6
        *(([P("4,1,1"), P("3,1^3"), P("3,3")], bad) for bad in (6.0, "6", True)),
    ]
    for fn in (incidence, invariably_generates, is_mig_set):
        for classes, n in bad:
            with pytest.raises(OracleError):
                fn(classes, n)
    with pytest.raises(OracleError):
        incidence_mask(P("13"))


def test_explicit_families_degree_11_and_12():
    eleven = [P("4,3,2,2"), P("4,3,3,1"), P("9,1,1")]
    assert is_mig_set(eleven, 11)
    twelve = [P("5,3,2,2"), P("4,4,3,1"), P("10,1,1")]
    assert is_mig_set(twelve, 12)


def test_accepts_raw_part_tuples():
    assert not invariably_generates([(5, 1), (4, 2)], 6)


# ---------------------------------------------------------------------------
# the incidence-mask engine against the definition


def test_incidence_mask_bits_match_class_meets_subgroup():
    for n in range(5, 13):
        records = maximal_subgroups(n)
        for p in enumerate_partitions(n):
            mask = incidence_mask(p)
            assert mask >> len(records) == 0
            for i, rec in enumerate(records):
                assert (mask >> i & 1) == class_meets_subgroup(rec, p), (rec.label, p)


def test_incidence_masks_come_from_class_meets_subgroup(monkeypatch):
    # the oracle builds no structural vector and no wreath-type set: every
    # bit of every mask of n=5..12 comes from `class_meets_subgroup`
    classes = [p for n in range(5, 13) for p in enumerate_partitions(n)]
    want = [incidence_mask(p) for p in classes]

    def refuse(*args):
        raise AssertionError("called on the oracle's path")

    monkeypatch.setattr(subgroup_oracle, "structural_vector", refuse)
    monkeypatch.setattr(subgroup_oracle, "wreath_types", refuse)
    _parts_mask.cache_clear()
    assert [incidence_mask(p) for p in classes] == want
    assert _parts_mask.cache_info().currsize == len(classes) == 260


def _scan_generates(classes, n):
    records = maximal_subgroups(n)
    return not any(all(class_meets_subgroup(r, p) for p in classes) for r in records)


def _scan_is_mig_set(classes, n):
    return _scan_generates(classes, n) and not any(
        _scan_generates(classes[:i] + classes[i + 1 :], n) for i in range(len(classes))
    )


def test_engine_matches_leave_one_out_scan():
    checked = 0
    for n in range(5, 13):
        nontrivial = [p for p in enumerate_partitions(n) if p.parts != (1,) * n]
        for k in range(1, (3 if n <= 9 else 2) + 1):
            for combo in itertools.combinations(nontrivial, k):
                classes = list(combo)
                assert invariably_generates(classes, n) == _scan_generates(classes, n)
                assert is_mig_set(classes, n) == _scan_is_mig_set(classes, n), combo
                checked += 1
    assert checked == 11_662


def test_incidence_returns_common_and_leave_one_out_masks():
    family = [P("4,1,1"), P("3,1^3"), P("3,3")]
    masks = [incidence_mask(p) for p in family]
    common, leave_one_out = incidence(family, 6)
    assert common == masks[0] & masks[1] & masks[2] == 0
    assert leave_one_out == [
        masks[1] & masks[2],
        masks[0] & masks[2],
        masks[0] & masks[1],
    ]
    # a single class has as witnesses every record it does not meet
    full = (1 << 6) - 1
    mask = incidence_mask(P("6"))
    assert incidence([P("6")], 6) == (mask, [full & ~mask])


@pytest.mark.parametrize("n", range(5, 23))
def test_structural_vector_matches_class_meets_subgroup(n):
    # the descriptor vectors (shift-or partial sums and one wreath-type dict
    # lookup per parts tuple) against `class_meets_subgroup` record by record
    # (the partial-sum DP and `wreath_realizable`), and the descriptor groups
    # against grouping those reference vectors by hand
    records = structural_records(n)
    vector = structural_vector(n)
    reference = {}
    for p in enumerate_partitions(n):
        want = sum(1 << i for i, rec in enumerate(records) if class_meets_subgroup(rec, p))
        assert vector(p.parts, partial_sums(p).bits) == want, p.text()
        reference.setdefault(want, []).append(p.parts)
    order = sorted(reference, key=lambda bits: (bin(bits).count("1"), bits))
    expected = [(bits, min(reference[bits])) for bits in order]
    got = vector_groups(n, vector)
    assert got == expected
    assert all(sum(parts) == n for _, parts in got)


def test_vector_groups_match_per_tuple_grouping_to_30():
    # past the degrees checked record by record above: the walk's groups,
    # order and representatives included, against the vector of each parts
    # tuple on its own, grouped with the last tuple winning
    for n in range(23, 31):
        vector = structural_vector(n)
        by_tuple = {
            vector(parts, partial_sums(Partition(parts)).bits): parts
            for parts in _partition_tuples(n)
        }
        expected = sorted(by_tuple.items(), key=lambda kv: (bin(kv[0]).count("1"), kv[0]))
        assert vector_groups(n, vector) == expected, n


def test_equal_classes_share_one_cache_entry():
    first, second = P("4,1,1"), Partition((1, 4, 1))
    assert first is not second and first == second
    mask = incidence_mask(first)
    before = _parts_mask.cache_info()
    assert incidence_mask(second) == mask
    after = _parts_mask.cache_info()
    assert after.hits == before.hits + 1
    assert after.currsize == before.currsize


def test_leave_one_out_only_for_generating_sets(monkeypatch):
    calls = []
    real = subgroup_oracle.witness_sets

    def counting(masks, full):
        calls.append(len(masks))
        return real(masks, full)

    monkeypatch.setattr(subgroup_oracle, "witness_sets", counting)
    mig = [P("4,1,1"), P("3,1^3"), P("3,3")]
    blocked = [P("5,1"), P("4,2")]
    assert invariably_generates(mig, 6)
    assert not invariably_generates(blocked, 6)
    assert not is_mig_set(blocked, 6)
    assert calls == []
    # generating sets still get the leave-one-out answer, minimal or not
    assert is_mig_set(mig, 6)
    assert not is_mig_set([P("1^6")] + mig, 6)
    assert calls == [3, 4]
