"""Exact invariable-generation oracle for small symmetric groups.

For 5 <= n <= 12 this module knows the full list of conjugacy-class
representatives of maximal subgroups of the symmetric group: the subset and
block-system stabilizers (`structural_records`, built without a group for
any n <= 40), the alternating group, and the handful of primitive groups,
which ship as generator strings in ``data/maximal_subgroups.txt``.  Every
record is validated against its kind and stated order when `maximal_subgroups`
loads it.  A structural or alternating record's generators must keep an
invariant that puts its group inside one of that order (the orbits of
S_s x S_{n-s}, the blocks {ia, ..., ia+a-1} of S_a wr S_b, evenness for A_n),
and Jordan's theorem (`_jordan`) then puts one of that order inside it,
without a chain; generators it cannot read build the chain instead.  A
primitive record builds its deterministic chain, for its order and cycle
types, and must be primitive and hold an odd generator.

`class_meets_subgroup` decides every kind directly: a subset stabilizer by
the partial sums, a block stabilizer by `wreath_realizable`, the alternating
group by parity and a primitive group by the cycle-type set its record
carries (enumerated once, when `maximal_subgroups` loads the record, from
the chain that validated it; all have order at most 1440).  A primitive
record's kind comes from its label: affine for AGL(..), almost simple
otherwise.  The oracle's masks take every bit from it.

Only the descriptor search builds a vector of the structural records a
class meets, `structural_vector(n)`: the partial sums its walk carries and
one lookup in a {parts: bits} dict built from `wreath_types`.  It keeps
only the groups, `structural_groups(n)` (`family_search.vector_groups`,
0.5 MB against 7.3 MB of dict at n=40), so a repeated search at a degree
skips the walk; the tests hold the vector to `class_meets_subgroup`.

Every question about a set of classes goes through one incidence engine:
`incidence_mask(p)` is the bitmask of the records (in `maximal_subgroups`
order) that the class p meets, memoised per parts tuple (there are 260
classes of degree 5..12; a tuple hashes and compares in C), and
`incidence(classes, n)` is `family_search.witness_sets` over the masks: the
records meeting every class and, per class, the records meeting all the
others but not it.  Invariable generation needs only the AND:
`invariably_generates` is an empty AND, and `is_mig_set` returns False on a
non-empty one before it computes the witness sets, which must then all be
non-empty (when the AND is empty, a record meeting all the other classes
cannot meet the omitted one).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache, reduce
from importlib import resources
from operator import and_

from .family_search import _check_degree, _search, vector_groups, witness_sets
from .partitions import (
    DEFAULT_ENUMERATION_CAP,
    Partition,
    _check_integer,
    _divisors,
    is_partial_sum,
    parity,
    wreath_realizable,
    wreath_types,
)
from .perms import PermGroup, cycle_type, from_cycles, is_primitive, orbits, parse_cycles

MIN_DEGREE = 5
MAX_DEGREE = 12


class OracleError(ValueError):
    """Degree out of range, malformed data file, or inconsistent input."""


@dataclass(frozen=True)
class MaximalSubgroupRecord:
    """One conjugacy class of maximal subgroups of the symmetric group."""

    degree: int
    label: str
    kind: str  # intransitive | imprimitive | alternating | affine | almost_simple
    param: tuple  # (s,) for intransitive, (a, b) for imprimitive, () otherwise
    generators: tuple
    expected_order: int
    # a primitive record's cycle types, set by `maximal_subgroups`; not part
    # of the record's identity, so hashes, equality and messages ignore it
    cycle_types: frozenset | None = field(default=None, compare=False, repr=False)

    def group(self):
        return PermGroup(self.degree, self.generators)


def _sym_gens(n, points):
    """Standard generators of the symmetric group on an ordered point list,
    as permutations of degree n: a transposition and a full cycle."""
    if len(points) < 2:
        return []
    return [from_cycles(n, [points[:2]]), from_cycles(n, [points])]


def wreath_generators(a, b):
    """Generators of S_a wr S_b on 0..ab-1, blocks {0..a-1}, {a..2a-1}, ...:
    S_a on the first block, the swap of the first two blocks, and (b > 2)
    the block rotation x -> x + a mod ab."""
    n = a * b
    gens = _sym_gens(n, tuple(range(a)))
    gens.append(from_cycles(n, [(i, i + a) for i in range(a)]))
    if b > 2:
        gens.append(from_cycles(n, [tuple(range(i, n, a)) for i in range(a)]))
    return tuple(gens)


def _intransitive_record(n, s):
    # stabilizer of the set {0, ..., s-1}
    gens = tuple(_sym_gens(n, tuple(range(s))) + _sym_gens(n, tuple(range(s, n))))
    order = math.factorial(s) * math.factorial(n - s)
    return MaximalSubgroupRecord(
        degree=n,
        label=f"S_{s} x S_{n - s}",
        kind="intransitive",
        param=(s,),
        generators=gens,
        expected_order=order,
    )


def _imprimitive_record(n, a, b):
    # stabilizer of the block system {0..a-1}, {a..2a-1}, ...
    order = math.factorial(a) ** b * math.factorial(b)
    return MaximalSubgroupRecord(
        degree=n,
        label=f"S_{a} wr S_{b}",
        kind="imprimitive",
        param=(a, b),
        generators=wreath_generators(a, b),
        expected_order=order,
    )


def _alternating_record(n):
    cycle = tuple(range(n)) if n % 2 == 1 else tuple(range(1, n))
    gens = (from_cycles(n, [(0, 1, 2)]), from_cycles(n, [cycle]))
    return MaximalSubgroupRecord(
        degree=n,
        label=f"A_{n}",
        kind="alternating",
        param=(),
        generators=gens,
        expected_order=math.factorial(n) // 2,
    )


@lru_cache(maxsize=None)
def _load_primitive_records():
    text = (
        resources.files("migsets").joinpath("data/maximal_subgroups.txt").read_text()
    )
    records = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 4:
            raise OracleError(f"malformed dataset line: {line!r}")
        degree, label, order, gen_text = fields
        degree, order = int(degree), int(order)
        gens = tuple(parse_cycles(t, degree) for t in gen_text.split(";"))
        rec = MaximalSubgroupRecord(
            degree=degree,
            label=label,
            kind="affine" if label.startswith("AGL") else "almost_simple",
            param=(),
            generators=gens,
            expected_order=order,
        )
        records.setdefault(degree, []).append(rec)
    if sorted(records) != list(range(MIN_DEGREE, MAX_DEGREE + 1)):
        raise OracleError("dataset must cover each degree from 5 to 12")
    return records


def _validate_record(rec):
    """Refuse a record whose group is not of its kind and stated order;
    return the chain of a primitive record, None for the others."""
    n, gens = rec.degree, rec.generators
    # a group lies in A_n exactly when all its generators are even
    even = all(parity(cycle_type(g)) == "even" for g in gens)
    # each invariant puts the group inside one of the stated order, and
    # Jordan's theorem puts one of that order inside it
    if rec.kind == "intransitive":
        s = rec.param[0]
        if orbits(n, gens) != (tuple(range(s)), tuple(range(s, n))):
            raise OracleError(f"{rec.label}: unexpected orbits {orbits(n, gens)}")
        certified = _jordan(range(s), gens, 2) and _jordan(range(s, n), gens, 2)
    elif rec.kind == "imprimitive":
        a = rec.param[0]
        if any(len({g[x] // a for x in range(i, i + a)}) > 1 for g in gens for i in range(0, n, a)):
            raise OracleError(f"{rec.label}: a generator does not permute the blocks of size {a}")
        # S_b on the blocks is transitive, so it conjugates S_a on block 0
        # onto every block: the base group S_a^b lies in the group too
        on_blocks = [tuple(g[i] // a for i in range(0, n, a)) for g in gens]
        certified = _jordan(range(a), gens, 2) and _jordan(range(n // a), on_blocks, 2)
    elif rec.kind == "alternating":
        if not even:
            raise OracleError(f"{rec.label}: generators must be even")
        certified = _jordan(range(n), gens, 3)
    else:
        grp = rec.group()
        _check_order(rec, grp.order())
        if not is_primitive(n, gens):
            raise OracleError(f"{rec.label}: expected a primitive group")
        if even:
            raise OracleError(
                f"{rec.label}: contained in the alternating group, not maximal"
            )
        return grp
    # generators that the theorem cannot read still give the exact order
    if not certified:
        _check_order(rec, rec.group().order())
    return None


def _jordan(points, gens, moved):
    """Does the group of the generators fixing every point off `points`
    contain Sym(points) (moved=2) or Alt(points) (moved=3) by Jordan's
    theorem?  A primitive group holding a transposition is symmetric, one
    holding a 3-cycle contains the alternating group (Dixon and Mortimer,
    Permutation Groups, Thm 3.3A); so ask whether one of the generators,
    restricted to `points`, moves exactly `moved` points and whether the
    restrictions are primitive.  A single point passes."""
    index = {x: i for i, x in enumerate(points)}
    local = [
        tuple(index[g[x]] for x in points)
        for g in gens
        if all(x == y for x, y in enumerate(g) if x not in index)
    ]
    return len(index) == 1 or (
        any(sum(x != y for x, y in enumerate(g)) == moved for g in local)
        and is_primitive(len(index), local)
    )


def _check_order(rec, order):
    if order != rec.expected_order:
        raise OracleError(f"{rec.label}: generated order {order} != {rec.expected_order}")


@lru_cache(maxsize=None)
def structural_records(n):
    """The maximal S_s x S_{n-s} of S_n for s = 1..(n-1)//2, then S_a wr S_b
    for each divisor 1 < a < n; no group is built, so any n <= 40 works."""
    return tuple(
        [_intransitive_record(n, s) for s in range(1, (n - 1) // 2 + 1)]
        + [_imprimitive_record(n, a, n // a) for a in _divisors(n)[1:-1]]
    )


def structural_vector(n):
    """The function (parts, sums) -> bitmask of the `structural_records(n)`
    the class meets: bit s - 1 when s in 1..(n-1)//2 is in sums, its partial
    sums in any window that covers these, and the bits of the block shapes
    whose `wreath_types` hold parts, from one dict built per call."""
    records = structural_records(n)
    k = (n - 1) // 2  # records[:k] are S_s x S_{n-s} for s = 1..k
    kept = (1 << (k + 1)) - 1
    blocks = {}
    for i, rec in enumerate(records[k:], k):
        for parts in wreath_types(*rec.param):
            blocks[parts] = blocks.get(parts, 0) | 1 << i
    get = blocks.get

    def vector(parts, sums):
        return (sums & kept) >> 1 | get(parts, 0)

    return vector


@lru_cache(maxsize=None)
def structural_groups(n):
    """The descriptor search's ``(bits, parts)`` groups of degree n, as a
    tuple: `vector_groups` over `structural_vector(n)`, whose {parts: bits}
    dict goes once the walk is done."""
    return tuple(vector_groups(n, structural_vector(n)))


def max_family_intransitive_imprimitive(n):
    """Largest family of classes each privately avoiding one intransitive or
    imprimitive maximal subgroup while meeting all the others' (the analogue
    of `family_search.max_family` without the empty-intersection demand)."""
    what = "the descriptor search (full partition enumeration)"
    _check_degree(n, low=5, high=DEFAULT_ENUMERATION_CAP, what=what)
    records = structural_records(n)
    full = (1 << len(records)) - 1
    descriptors = tuple((rec.kind, *rec.param) for rec in records)
    return replace(_search(n, structural_groups(n), full), descriptors=descriptors)


@lru_cache(maxsize=None, typed=True)  # so 6.0 and True miss 6's and 1's entries
def maximal_subgroups(n):
    """Conjugacy-class representatives of the maximal subgroups of S_n.

    Supported for 5 <= n <= 12.  Ordered: intransitive by subset size,
    imprimitive by block size, the alternating group, then the primitive
    groups from the bundled dataset.
    """
    _check_integer(n, OracleError)
    if not MIN_DEGREE <= n <= MAX_DEGREE:
        raise OracleError(f"degree {n} outside supported range {MIN_DEGREE}..{MAX_DEGREE}")
    records = [*structural_records(n), _alternating_record(n)]
    for rec in records:
        _validate_record(rec)
    for rec in _load_primitive_records()[n]:
        # the chain that validates the record also gives its cycle types;
        # only these sets are kept, not the chains
        records.append(replace(rec, cycle_types=_validate_record(rec).cycle_types()))
    return tuple(records)


def class_meets_subgroup(rec, p):
    """Does the conjugacy class with cycle type p meet some conjugate of the
    subgroup the record describes?"""
    if p.n != rec.degree:
        raise OracleError(f"cycle type of degree {p.n} against degree {rec.degree}")
    if rec.kind == "intransitive":
        return is_partial_sum(p, rec.param[0])
    if rec.kind == "imprimitive":
        a, b = rec.param
        return wreath_realizable(p, a, b)
    if rec.kind == "alternating":
        return parity(p) == "even"
    return p in rec.cycle_types


def _class_masks(classes, n):
    """The incidence mask of each class, in order.  Raises `OracleError` on
    a non-int degree, a class of another degree, a repeated class or none."""
    if type(n) is not int:  # the hot path pays one type test, not a call
        _check_integer(n, OracleError)
    keys = []
    for p in classes:
        if not isinstance(p, Partition):
            p = Partition(p)
        if p.n != n:
            raise OracleError(f"class {p.text()} is not a cycle type of degree {n}")
        keys.append(p.parts)
    if len(set(keys)) != len(keys):
        raise OracleError("classes must be pairwise distinct")
    if not keys:
        raise OracleError("need at least one class")
    return list(map(_parts_mask, keys))


@lru_cache(maxsize=None)
def _parts_mask(parts):
    # keyed on the parts tuple, whose hash and equality run in C
    p = Partition(parts)
    mask = 0
    for i, rec in enumerate(maximal_subgroups(p.n)):
        if class_meets_subgroup(rec, p):
            mask |= 1 << i
    return mask


def incidence_mask(p):
    """Bit i is set iff the class with cycle type p meets
    ``maximal_subgroups(p.n)[i]``."""
    return _parts_mask(p.parts)


def _full(n):
    return (1 << len(maximal_subgroups(n))) - 1


def incidence(classes, n):
    """Return ``(common, wsets)``: the bitmask of the maximal subgroups
    meeting every class, and for each class the bitmask of those meeting all
    the other classes but not it."""
    return witness_sets(_class_masks(classes, n), _full(n))


def invariably_generates(classes, n):
    """True iff picking any element from each class always generates S_n,
    i.e. no maximal subgroup meets every class."""
    return reduce(and_, _class_masks(classes, n)) == 0


def is_mig_set(classes, n):
    """True iff the classes invariably generate S_n and no proper subset does.

    Minimality is equivalent to: for each class there is a maximal subgroup
    meeting all the others (such a subgroup avoids the omitted class
    automatically, else it would contradict generation).
    """
    masks = _class_masks(classes, n)
    if reduce(and_, masks):
        return False
    return all(witness_sets(masks, _full(n))[1])
