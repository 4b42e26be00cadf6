"""Tests for the explicit family construction and its verifiers."""

import hashlib
import itertools
import json
import random
import re
from fractions import Fraction

import pytest

from migsets.cli import _family_payload, main
from migsets.constructions import (
    ConstructionError,
    LemmaPartition,
    _check_gaps,
    _replay_checks,
    build_x_family,
    family_from_members,
    lemma_partition,
    verify_lemma,
    verify_mig_lower_bound,
    verify_x_family,
)
from migsets.partitions import (
    Partition,
    PartitionTooLarge,
    enumerate_partitions,
    parity,
    partial_sums,
    wreath_realizable,
)
from migsets.subgroup_oracle import is_mig_set

LEMMA_FROZEN = {
    # (i, n): (partition text, case, missing interior sums)
    (1, 5): ("3,2", "generic", (1, 4)),
    (1, 6): ("2^3", "n_eq_4i_plus_2", (1, 3, 5)),
    (1, 8): ("3^2,2", "eight_one", (1, 4, 7)),
    (1, 12): ("3^2,2^3", "generic", (1, 11)),
    (2, 7): ("3^2,1", "generic", (2, 5)),
    (2, 11): ("4,3^2,1", "generic", (2, 9)),
    (2, 12): ("5,3^2,1", "n_eq_4i_plus_4", (2, 10)),
    (2, 13): ("5,4,3,1", "generic", (2, 11)),
    (2, 24): ("4^2,3^5,1", "generic", (2, 22)),
    (3, 13): ("7,4,1^2", "generic", (3, 10)),
    (3, 14): ("4^3,1^2", "n_eq_4i_plus_2", (3, 7, 11)),
    (4, 13): ("5^2,1^3", "generic", (4, 9)),
    (4, 15): ("7,5,1^3", "generic", (4, 11)),
    (4, 24): ("6,5^3,1^3", "generic", (4, 20)),
    (5, 24): ("8,6^2,1^4", "n_eq_4i_plus_4", (5, 19)),
    (6, 24): ("12,7,1^5", "generic", (6, 18)),
    (7, 24): ("10,8,1^6", "generic", (7, 17)),
}


def test_lemma_frozen_values():
    for (i, n), (text, tag, missing) in LEMMA_FROZEN.items():
        lp = lemma_partition(i, n)
        assert lp.p.text() == text
        assert lp.case_tag == tag
        assert partial_sums(lp.p).missing_interior() == missing


def test_lemma_preconditions():
    for i, n in ((2, 6), (0, 9), (5, 14), (1, 3), (-1, 10), (3, 9)):
        with pytest.raises(ConstructionError):
            lemma_partition(i, n)


def test_lemma_sweep_small():
    for n in range(5, 81):
        for i in range(1, (n - 1) // 3 + 1):
            if 3 * i >= n:
                continue
            lp = lemma_partition(i, n)
            report = verify_lemma(lp)
            assert report["missing"][0] == i
            assert report["missing"][-1] == n - i


def test_verify_lemma_rejects_wrong_partition():
    fake = LemmaPartition(i=1, n=8, p=Partition([4, 2, 2]), case_tag="eight_one")
    with pytest.raises(ConstructionError):
        verify_lemma(fake)
    short = LemmaPartition(i=1, n=9, p=Partition([4, 2, 2]), case_tag="generic")
    with pytest.raises(ConstructionError):
        verify_lemma(short)
    # 4^2,1^2 misses exactly 3 and 7, but i = 7 promises them in the order
    # (7, 3), which is not the ascending list of gaps
    unordered = LemmaPartition(i=7, n=10, p=Partition([4, 4, 1, 1]), case_tag="generic")
    assert partial_sums(unordered.p).missing_interior() == (3, 7)
    with pytest.raises(ConstructionError, match=r"misses \(3, 7\), expected \(7, 3\)"):
        verify_lemma(unordered)


def test_check_gaps_rejects_repeated_or_descending_gaps():
    p = Partition([4, 4, 1, 1])  # misses exactly 3 and 7
    assert _check_gaps(p, 10, (3, 7)) == (3, 7)
    # each of these sets the bits of 3 and 7 and nothing else, so only the
    # order check can refuse it
    for expected in ((3, 3, 7), (3, 7, 7), (7, 3), (7, 3, 3), (7, 7, 3)):
        with pytest.raises(ConstructionError, match=re.escape(f"expected {expected}")):
            _check_gaps(p, 10, expected)
    with pytest.raises(ConstructionError, match="partition sums to 10, not 9"):
        _check_gaps(p, 9, (3, 6))


FAMILY_FROZEN = {
    5: (["4,1", "3,2"], {"4,1": 2, "3,2": 1}),
    6: (["5,1", "2^3"], {"5,1": 2, "2^3": 1}),
    7: (["6,1", "5,2"], {"6,1": 2, "5,2": 1}),
    8: (["6,1^2", "3^2,2", "4,3,1"], {"6,1^2": 3, "3^2,2": 1, "4,3,1": 2}),
    9: (["7,1^2", "4^2,1", "3,2^3"], {"7,1^2": 4, "4^2,1": 2, "3,2^3": 1}),
    10: (
        ["7,1^3", "6,3,1", "4^2,1^2", "3^2,2^2"],
        {"7,1^3": 4, "6,3,1": 2, "4^2,1^2": 3, "3^2,2^2": 1},
    ),
    11: (
        ["8,1^3", "7,3,1", "5,4,1^2", "3,2^4"],
        {"8,1^3": 4, "7,3,1": 2, "5,4,1^2": 3, "3,2^4": 1},
    ),
    12: (
        ["9,1^3", "8,3,1", "5,3,2^2", "6,4,1^2"],
        {"9,1^3": 4, "8,3,1": 2, "5,3,2^2": 1, "6,4,1^2": 3},
    ),
    13: (
        ["3,2^5", "7,4,1^2", "5^2,1^3", "6,3^2,1", "8,1^5"],
        {"3,2^5": 1, "7,4,1^2": 3, "5^2,1^3": 4, "6,3^2,1": 2, "8,1^5": 6},
    ),
    24: (
        [
            "7,3,2^7",
            "4^2,3^5,1",
            "6,5^3,1^3",
            "8,6^2,1^4",
            "12,7,1^5",
            "10,8,1^6",
            "13,5,4,1^2",
            "12,6,4,1^2",
            "11,7,4,1^2",
            "14,1^10",
        ],
        {
            "7,3,2^7": 1,
            "4^2,3^5,1": 2,
            "6,5^3,1^3": 4,
            "8,6^2,1^4": 5,
            "12,7,1^5": 6,
            "10,8,1^6": 7,
            "13,5,4,1^2": 8,
            "12,6,4,1^2": 9,
            "11,7,4,1^2": 10,
            "14,1^10": 11,
        },
    ),
}


def test_build_frozen_families():
    for n, (members, witnesses) in FAMILY_FROZEN.items():
        xf = build_x_family(n)
        assert [p.text() for p in xf.members] == members
        assert {p.text(): w for p, w in xf.witnesses.items()} == witnesses


def test_build_repair_cases():
    for n in range(5, 13):
        assert build_x_family(n).repair_case == "small_n"
        assert build_x_family(n).alpha == ()
        assert build_x_family(n).z is None
    assert build_x_family(13).repair_case == "case1_z_added"
    assert build_x_family(24).repair_case == "case2_rebuilt"
    assert build_x_family(48).repair_case == "case2_rebuilt"
    assert build_x_family(96).repair_case == "case2_rebuilt"
    for n in (14, 15, 16, 17, 18, 19, 20, 25, 47, 49, 95, 97):
        assert build_x_family(n).repair_case == "case1_z_added", n


def test_build_block_bookkeeping_n13():
    xf = build_x_family(13)
    assert xf.m == 1
    assert xf.alpha == (2,)
    assert xf.tvals == (Fraction(65, 12),)
    assert xf.z == Partition([8, 1, 1, 1, 1, 1])


def test_build_block_bookkeeping_n96():
    xf = build_x_family(96)
    assert xf.m == 4
    assert xf.alpha == (15, 7, 3, 1)
    assert xf.tvals == (
        Fraction(40),
        Fraction(44),
        Fraction(46),
        Fraction(47),
    )
    assert xf.z == Partition([50] + [1] * 46)
    assert xf.members[-1] == xf.z


def test_member_masks_match_a_fresh_dp():
    # a block member's mask extends its ingredient's by one shift; check it
    # against the per-part DP of a partition rebuilt from its parts, over
    # both repair cases (case 2 at n = 6*2^m: 24, 48, 96, 192)
    repairs = {}
    for n in range(13, 301):
        xf = build_x_family(n)
        repairs.setdefault(xf.repair_case, []).append(n)
        for p in xf.members:
            assert partial_sums(p) == partial_sums(Partition(p.parts)), (n, p)
            values = [value for value, _ in p._runs]
            assert values == sorted(set(values), reverse=True), (n, p._runs)
            assert all(count >= 1 for _, count in p._runs)
    assert repairs["case2_rebuilt"] == [24, 48, 96, 192]
    assert len(repairs["case1_z_added"]) == 288 - 4


FIRST_MEMBER_FROZEN = {
    13: "3,2^5",
    14: "5,3,2^3",
    15: "4,3,2^4",
    16: "5,4,3,2^2",
    17: "3,2^7",
    18: "7,4,3,2^2",
    19: "7,3^2,2^3",
    20: "7,3,2^5",
    21: "7,4,3^2,2^2",
    22: "7,4,3,2^4",
    24: "7,3,2^7",
}


def test_first_member_patterns():
    for n, text in FIRST_MEMBER_FROZEN.items():
        xf = build_x_family(n)
        first = xf.members[0]
        assert first.text() == text
        assert parity(first) == "odd"
        mask = partial_sums(first)
        assert not mask.contains(1)
        for s in range(2, n // 2 + 1):
            assert mask.contains(s)


def test_construction_invariants_are_checked(monkeypatch):
    # the invariants are explicit checks, not asserts: they fire under -O too
    import migsets.constructions as c

    monkeypatch.setattr(c, "parity", lambda p: "even")
    with pytest.raises(ConstructionError, match="construction invariant violated"):
        build_x_family(13)
    monkeypatch.undo()
    monkeypatch.setattr(c, "_size_exceeds_half_minus_log", lambda n, k: False)
    with pytest.raises(ConstructionError, match=re.escape("size > n/2 - log2(n)")):
        build_x_family(40)


def test_build_rejects_tiny_degrees():
    for n in (0, 1, 4):
        with pytest.raises(ConstructionError):
            build_x_family(n)


@pytest.mark.parametrize("bad", [13.0, "13", True])
def test_non_integer_degree_is_refused(bad):
    with pytest.raises(ConstructionError, match="^degree must be an integer, got "):
        build_x_family(bad)
    with pytest.raises(ConstructionError, match="^degree must be an integer, got "):
        lemma_partition(2, bad)


@pytest.mark.parametrize("bad", [2.0, "2", True])
def test_lemma_non_integer_i_is_refused(bad):
    with pytest.raises(ConstructionError, match="^i must be an integer, got "):
        lemma_partition(bad, 13)


def test_verify_x_family_sweep():
    for n in range(5, 61):
        xf = build_x_family(n)
        cert = verify_x_family(xf)
        assert set(cert["checks"]) == {"property1", "property2", "property3"}
        assert all(v["pass"] for v in cert["checks"].values())
        assert cert["members"] == [p.text() for p in xf.members]
        assert len(cert["masks"]) == len(xf.members)


def test_verify_x_family_rejects_common_sum():
    bad = family_from_members([Partition([1] * 9)])
    with pytest.raises(ConstructionError) as exc:
        verify_x_family(bad)
    cert = exc.value.certificate
    assert not cert["checks"]["property1"]["pass"]


def test_verify_x_family_rejects_tampering():
    # replacing the long-cycle member of the degree-11 family destroys the
    # witness of the middle member
    bad = family_from_members([(4, 3, 2, 2), (4, 3, 3, 1), (10, 1)])
    cert = verify_x_family(bad, raise_on_failure=False)
    assert cert["checks"]["property1"]["pass"]
    assert not cert["checks"]["property2"]["pass"]
    assert "4,3^2,1" in cert["checks"]["property2"]["detail"]
    with pytest.raises(ConstructionError):
        verify_x_family(bad)


def test_verify_x_family_rejects_wrong_claimed_witness():
    xf = build_x_family(13)
    # a negative witness is reported like any other invalid one
    for wrong in (3, -1):
        fudged = family_from_members(
            xf.members, {p: (wrong if w == 1 else w) for p, w in xf.witnesses.items()}
        )
        cert = verify_x_family(fudged, raise_on_failure=False)
        assert not cert["checks"]["property2"]["pass"]
        with pytest.raises(ConstructionError):
            verify_x_family(fudged)


def test_verify_mig_lower_bound_range():
    # the exact oracle covers every degree from 5; n = 6 is criterion 4's
    # documented failure, where no searched family is a MIG set
    for n in range(5, 11):
        cert = verify_mig_lower_bound(build_x_family(n), raise_on_failure=False)
        assert "oracle" in cert["checks"]["method"]["detail"]
        assert cert["checks"]["minimal"]["pass"] == (n != 6), n
    with pytest.raises(ConstructionError, match="minimal: oracle rejects"):
        verify_mig_lower_bound(build_x_family(6))
    with pytest.raises(ConstructionError, match="starts at n=5"):
        verify_mig_lower_bound(family_from_members([(3, 1), (2, 2)]))


def test_verify_mig_lower_bound_exact_small():
    for n in (11, 12):
        cert = verify_mig_lower_bound(build_x_family(n))
        assert all(v["pass"] for v in cert["checks"].values())
        assert cert["checks"]["minimal"]["pass"]
        assert "oracle" in cert["checks"]["method"]["detail"]


def test_verify_mig_lower_bound_replay_sweep():
    for n in range(13, 41):
        cert = verify_mig_lower_bound(build_x_family(n))
        assert all(v["pass"] for v in cert["checks"].values()), (n, cert)
        assert "replay" in cert["checks"]["method"]["detail"]


def test_verify_mig_lower_bound_degree_4000():
    # 2000 blocks of 2 and 2 blocks of 2000, among the 22 block sizes
    cert = verify_mig_lower_bound(build_x_family(4000))
    assert all(v["pass"] for v in cert["checks"].values())
    assert "2002,1^1998 fits no S_2000 wr S_2" in cert["checks"]["blocks"]["detail"]


def test_verify_mig_lower_bound_block_details():
    # prime degree: there is no block system to eliminate
    cert = verify_mig_lower_bound(build_x_family(13))
    assert cert["checks"]["blocks"]["detail"] == "13 is prime: no block system"
    # composite degrees: one named member per block size, and that member
    # really fits no wreath product with those blocks
    for n in (15, 24):
        xf = build_x_family(n)
        detail = verify_mig_lower_bound(xf)["checks"]["blocks"]["detail"]
        named = re.findall(r"(\S+) fits no S_(\d+) wr S_(\d+)", detail)
        sizes = [a for a in range(2, n // 2 + 1) if n % a == 0]
        assert [int(a) for _, a, _ in named] == sizes
        for text, a, b in named:
            p = Partition.from_text(text)
            assert p in xf.members
            assert int(a) * int(b) == n
            assert not wreath_realizable(p, int(a), int(b))


def test_verify_mig_lower_bound_rejects_even_first_member():
    # every member even, the first one included: nothing rules out A_13
    bad = family_from_members(
        [
            (5, 2, 2, 2, 2),
            (7, 3, 1, 1, 1),
            (5, 5, 1, 1, 1),
            (3, 3, 3, 3, 1),
            (9, 1, 1, 1, 1),
        ]
    )
    cert = verify_mig_lower_bound(bad, raise_on_failure=False)
    assert not cert["checks"]["parity"]["pass"]


def test_verify_mig_lower_bound_rejects_missing_tail():
    # without its tail class the degree-13 family shares the partial sum 6
    xf = build_x_family(13)
    bad = family_from_members([p for p in xf.members if p != xf.z])
    cert = verify_x_family(bad, raise_on_failure=False)
    assert not cert["checks"]["property1"]["pass"]
    assert cert["checks"]["property1"]["detail"] == "common partial sums [6]"
    with pytest.raises(ConstructionError):
        verify_x_family(bad)
    # the subgroup checks cover transitive groups only; 13 is prime
    lower = verify_mig_lower_bound(bad, raise_on_failure=False)
    assert all(c["pass"] for c in lower["checks"].values())


def _properties_1_and_2(masks, universe):
    """Plain scan: no common partial sum, and every member has a sum that all
    the others have and it lacks."""
    common = universe
    for m in masks:
        common &= m
    if common:
        return False
    for i, m in enumerate(masks):
        w = universe & ~m
        for j, other in enumerate(masks):
            if j != i:
                w &= other
        if not w:
            return False
    return True


def test_generic_certificate_is_sound_against_exact_oracle():
    # every 2- and 3-set of nontrivial classes at n = 5..12 plus seeded
    # random 4..6-sets: wherever properties (1), (2) and the three generic
    # eliminations all pass, the exact oracle must confirm a MIG set
    rng = random.Random(2024)
    accepted = 0
    for n in range(5, 13):
        classes = [p for p in enumerate_partitions(n) if len(p) < n]
        universe = (1 << (n // 2 + 1)) - 2
        mask = {p: partial_sums(p).bits & universe for p in classes}
        sets = [fam for k in (2, 3) for fam in itertools.combinations(classes, k)]
        sets += [tuple(rng.sample(classes, rng.randint(4, 6))) for _ in range(3000)]
        for fam in sets:
            if not _properties_1_and_2([mask[p] for p in fam], universe):
                continue
            xf = family_from_members(fam)
            props = verify_x_family(xf, raise_on_failure=False)["checks"]
            assert props["property1"]["pass"] and props["property2"]["pass"]
            if all(c["pass"] for c in _replay_checks(xf).values()):
                accepted += 1
                assert is_mig_set(fam, n), [p.text() for p in fam]
    assert accepted > 500  # the generic certificate is not vacuous


def test_family_from_members_roundtrip():
    xf = build_x_family(13)
    back = family_from_members([p.parts for p in xf.members])
    assert back.members == xf.members
    assert back.witnesses == xf.witnesses
    assert back.repair_case == "imported"
    cert = verify_x_family(back)
    assert all(v["pass"] for v in cert["checks"].values())


def test_family_from_members_validation():
    with pytest.raises(ConstructionError):
        family_from_members([])
    with pytest.raises(ConstructionError):
        family_from_members([(3, 2), (4, 2)])
    # a witness map that lacks a member names it, not a bare KeyError
    with pytest.raises(ConstructionError, match=r"member 4,1 has no witness"):
        family_from_members([[3, 2], [4, 1]], {Partition([3, 2]): 1})


def test_family_size_beats_half_minus_log():
    import math

    for n in range(13, 101):
        xf = build_x_family(n)
        assert len(xf.members) > n / 2 - math.log2(n)
        # and the first member survived every repair
        assert xf.members[0] == build_x_family(n).members[0]
        assert not partial_sums(xf.members[0]).contains(1)


def _digest(records):
    h = hashlib.sha256()
    for record in records:
        h.update(json.dumps(record, sort_keys=True, separators=(",", ":")).encode())
        h.update(b"\n")
    return h.hexdigest()


# SHA-256 of the canonical JSON, one record a line, of the `construct --json`
# payload for n = 5..300 and of both certificates for n = 13..300: any change
# to a member, witness, mask string or check detail moves it
CONSTRUCT_DIGEST = "05bfe20b874c220188a2b199b00b318de7df16174cc11a6cb553eaef9633c93f"
CERTIFICATES_DIGEST = "20b51e66032bae9a2697f5245d91851ca4e1cf515dd817c18028ed39b7918c45"


def test_construct_and_certificates_digest():
    payloads, certificates = [], []
    for n in range(5, 301):
        xf = build_x_family(n)
        payloads.append(_family_payload(xf))
        if n >= 13:
            certificates.append(verify_x_family(xf))
            certificates.append(verify_mig_lower_bound(xf))
    assert _digest(payloads) == CONSTRUCT_DIGEST
    assert _digest(certificates) == CERTIFICATES_DIGEST


def test_build_refuses_degree_past_sum_cap_before_building(monkeypatch, capsys):
    # no member is built: the refusal comes before the first partition
    def refuse(runs):
        raise AssertionError("a member was built")

    monkeypatch.setattr(Partition, "_from_runs", refuse)
    with pytest.raises(PartitionTooLarge, match="^partial-sum DP capped at n=10000, got 1000000000$"):
        build_x_family(10**9)
    assert main(["construct", "--n", "1000000000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: partial-sum DP capped at n=10000, got 1000000000\n"
