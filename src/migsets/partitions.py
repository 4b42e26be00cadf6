"""Integer partitions as cycle types of symmetric-group elements.

A partition of n is a non-increasing tuple of positive parts summing to n.
Throughout the package a partition doubles as a conjugacy class of S_n (the
cycle type of its elements), so alongside the combinatorial basics this
module carries the class-level predicates everything else is built on:
partial-sum masks, parity, power maps, and realizability inside an
imprimitive wreath product.

A partition's identity is its runs, the (value, count) pairs of its
distinct parts, values descending: equality compares them and the hash
hashes them.  The lemma partitions behind every certified family have a
hundred or more parts but at most five distinct values, so they are
parsed, built, hashed and compared per run, not per part.
`Partition._from_runs` builds a partition from runs in any order, and
`from_text`, `lemma_partition` and `power_type` build through it; such a
partition makes its `parts` tuple only when it is first read, and keeps
its hash.  `from_text` takes tokens in descending order straight as the
runs, and keeps canonical input (no spaces, no leading zeros, no ``^1``)
as the partition's text, so that text is never rendered again.
Partitions built from parts (`Partition(parts)`, `enumerate_partitions`)
hold `parts` as a plain slot and get their runs from `multiplicities()` on
first use, which keeps them.  The DP splits each run of c parts a into
shifts by a, 2a, 4a, ... and the rest (binary splitting), and `_mask_of`
makes its `PartialSumMask` by setting the two slots, as `_unchecked` makes
a `Partition`, without the frozen dataclass's __init__.
`_with_top_part` adds one part above all the others to a partition whose
mask is known: the runs get one pair in front, and the mask is the old one
extended by one shift, with no second DP; the block members of a certified
family are built this way from their lemma ingredients.

All values are immutable and every function is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Bit-vector DP over n+1 bits is quadratic in n; this cap keeps accidental
# huge inputs from stalling; partition text is refused past it too.
DEFAULT_SUM_CAP = 10_000

# Full partition enumeration is exponential; refuse past this degree.
DEFAULT_ENUMERATION_CAP = 40


class PartitionError(ValueError):
    """Malformed partition, bad argument, or out-of-range query."""


class PartitionTooLarge(PartitionError):
    """An operation exceeded its configured size cap."""


# the part types that skip Partition's per-part check
_INT_ONLY = {int}


class Partition:
    """A partition of a positive integer; parts stored non-increasing."""

    __slots__ = ("parts", "n", "_mask", "_text", "_runs")

    def __init__(self, parts):
        parts = tuple(parts)
        try:
            ordered = sorted(parts, reverse=True)
        except TypeError:  # a part that does not compare; the loop names it
            ordered = []
        # plain ints with a positive smallest part pass without a Python loop
        if not (
            ordered and _INT_ONLY.issuperset(map(type, ordered)) and ordered[-1] >= 1
        ):
            for a in parts:
                if not isinstance(a, int) or isinstance(a, bool) or a < 1:
                    raise PartitionError(f"parts must be positive integers, got {a!r}")
            if not parts:
                raise PartitionError("a partition needs at least one part")
        _set_parts(self, tuple(ordered))
        _set_n(self, sum(ordered))
        _set_mask(self, None)
        _set_text(self, None)
        _set_runs(self, None)

    def __setattr__(self, name, value):
        raise AttributeError("Partition is immutable")

    def __reduce__(self):
        # pickle and copy rebuild through __init__, not the blocked setattr
        return Partition, (self.parts,)

    @classmethod
    def _from_runs(cls, runs):
        """A Partition from (value, count) pairs of ints, value >= 1 and
        count >= 0 with some count positive, in any order.  Equal values are
        merged and the merged runs kept.  The caller vouches for the pairs."""
        merged = []
        n = 0
        last = None
        for value, count in sorted(runs, reverse=True):
            if count:
                n += value * count
                if value == last:
                    count += merged.pop()[1]
                merged.append((value, count))
                last = value
        return _of_runs(tuple(merged), n)

    @classmethod
    def from_text(cls, text: str) -> "Partition":
        """Parse ``7,5,1^3`` style text (any part order, optional spaces)."""
        if not isinstance(text, str):
            raise PartitionError(f"partition text must be a string, got {text!r}")
        runs = []
        total = 0
        last = DEFAULT_SUM_CAP + 1  # above every value that passes the cap
        descending = True
        # canonical text (no spaces, no leading zeros, no ^1, values strictly
        # descending) is kept as the partition's text
        canonical = " " not in text
        for token in text.replace(" ", "").split(","):
            # ASCII digits only: str.isdigit alone also takes other scripts'
            # digits and superscripts
            value, caret, count = token.partition("^")
            if not (
                value.isascii()
                and value.isdigit()
                and (not caret or count.isascii() and count.isdigit())
            ):
                raise PartitionError(f"bad partition token {token!r} in {text!r}")
            canonical = (
                canonical
                and value[0] != "0"
                and (not caret or count[0] != "0" and count != "1")
            )
            try:
                value = int(value)
                count = int(count) if caret else 1
            except ValueError:  # more digits than int() parses: past the cap
                value = count = DEFAULT_SUM_CAP + 1
            if value < 1 or count < 1:
                raise PartitionError(f"bad partition token {token!r} in {text!r}")
            # the running total is checked before a token is expanded
            total += value * count
            if total > DEFAULT_SUM_CAP:
                raise PartitionTooLarge(
                    f"partition text sums past the cap {DEFAULT_SUM_CAP}: {text[:40]!r}"
                )
            runs.append((value, count))
            descending = descending and value < last
            last = value
        if not descending:
            return cls._from_runs(runs)
        p = _of_runs(tuple(runs), total)  # canonical order: already the runs
        if canonical:
            _set_text(p, text)
        return p

    def text(self) -> str:
        """Canonical text: descending, exponent-compressed, e.g. ``7,5,1^3``."""
        text = self._text
        if text is None:
            text = ",".join(
                [
                    f"{value}^{count}" if count > 1 else f"{value}"
                    for value, count in self.multiplicities()
                ]
            )
            _set_text(self, text)
        return text

    def multiplicities(self) -> tuple[tuple[int, int], ...]:
        """(value, count) pairs, values descending: the runs, kept once known."""
        runs = self._runs
        if runs is None:
            runs = []
            parts = self.parts
            last = parts[0]
            count = 0
            for a in parts:
                if a == last:
                    count += 1
                else:
                    runs.append((last, count))
                    last = a
                    count = 1
            runs.append((last, count))
            runs = tuple(runs)
            _set_runs(self, runs)
        return runs

    def __eq__(self, other):
        return (
            isinstance(other, Partition)
            and self.multiplicities() == other.multiplicities()
        )

    def __hash__(self):
        return hash(self.multiplicities())

    def __len__(self):
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __repr__(self):
        return f"Partition({self.text()!r})"

    def __str__(self):
        return self.text()


# slot setters, called directly: __setattr__ is blocked, and these skip the
# attribute-name lookup of object.__setattr__
_set_parts = Partition.parts.__set__
_set_n = Partition.n.__set__
_set_mask = Partition._mask.__set__
_set_text = Partition._text.__set__
_set_runs = Partition._runs.__set__


def _unchecked(parts, n):
    """A Partition of n from a non-increasing tuple of positive ints, made
    without __init__'s checks and sort; the caller vouches for the parts."""
    p = object.__new__(Partition)
    _set_parts(p, parts)
    _set_n(p, n)
    _set_mask(p, None)
    _set_text(p, None)
    _set_runs(p, None)
    return p


class _RunsPartition(Partition):
    """A Partition built from its runs: its parts tuple is made on first
    read, and its hash once.  `Partition(parts)` and `_unchecked` keep
    `parts` a plain slot, so the partitions of the oracle and the searches
    read it without a property call."""

    __slots__ = ("_hash",)

    @property
    def parts(self):
        parts = _get_parts(self)
        if parts is None:
            parts = ()
            for value, count in self._runs:
                parts += (value,) * count
            _set_parts(self, parts)
        return parts

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(self._runs)
            _set_hash(self, h)
        return h

    def __len__(self):
        return sum([count for _, count in self._runs])


_get_parts = Partition.parts.__get__
_set_hash = _RunsPartition._hash.__set__


def _of_runs(runs, n):
    """A Partition of n from its runs, values strictly descending and counts
    positive, its parts not yet made; the caller vouches for the runs."""
    p = object.__new__(_RunsPartition)
    _set_parts(p, None)
    _set_n(p, n)
    _set_mask(p, None)
    _set_text(p, None)
    _set_runs(p, runs)
    _set_hash(p, None)
    return p


def _universe(n: int) -> int:
    """Bits 1..floor(n/2): the window a restricted mask lives in."""
    return (1 << (n // 2 + 1)) - 2


def _check_integer(n, error, what="degree") -> None:
    """Refuse an argument (a degree unless ``what`` names it otherwise) whose
    type is not int (a bool too) with ``error``, before any work or cache
    lookup: a cache keyed on 6 also answers 6.0."""
    if type(n) is not int:
        raise error(f"{what} must be an integer, got {n!r}")


def _check_sum_cap(n: int) -> None:
    """Refuse n past the partial-sum DP's cap, before any work on it."""
    if n > DEFAULT_SUM_CAP:
        raise PartitionTooLarge(f"partial-sum DP capped at n={DEFAULT_SUM_CAP}, got {n}")


def _partition_tuples(n: int):
    """The parts tuples of all partitions of n in reverse-lexicographic
    order, unchecked: the tuples `_walk_partitions` visits at window 0, for
    `enumerate_partitions` and `wreath_types`."""
    tuples = []
    _walk_partitions(n, 0, lambda parts, sums: tuples.append(parts))
    return tuples


def enumerate_partitions(n: int):
    """An iterator over all partitions of n, parts descending, in
    reverse-lexicographic order: (n) first, (1^n) last; a bad n is refused
    by the call, not by the first `next()`.  The order is part of the
    contract; the first partition carrying a given property is used as its
    canonical representative elsewhere in the package.  The parts are
    positive and non-increasing by construction, so each is made by
    `_unchecked`."""
    _check_integer(n, PartitionError)
    if n < 1:
        raise PartitionError(f"need n >= 1, got {n}")
    if n > DEFAULT_ENUMERATION_CAP:
        raise PartitionTooLarge(
            f"partition enumeration capped at {DEFAULT_ENUMERATION_CAP}, got n={n}"
        )
    return (_unchecked(parts, n) for parts in _partition_tuples(n))


@dataclass(frozen=True, slots=True)
class PartialSumMask:
    """Which integers in 0..n arise as sums of sub-multisets of a partition.

    bits has bit i set iff i is a partial sum.  0 and n are always set, and
    the mask is symmetric under i <-> n-i (complement the chosen parts).
    """

    n: int
    bits: int

    def contains(self, i: int) -> bool:
        if not 0 <= i <= self.n:
            raise PartitionError(f"partial-sum query {i} out of range 0..{self.n}")
        return bool(self.bits >> i & 1)

    def missing_interior(self) -> tuple[int, ...]:
        """The non-sums strictly between 0 and n, ascending."""
        return tuple(i for i in range(1, self.n) if not self.bits >> i & 1)

    def restricted_bits(self) -> int:
        """Bits 1..floor(n/2) only; by symmetry this determines the mask."""
        return self.bits & _universe(self.n)

    def bitstring(self) -> str:
        """Length n+1, character i (from the left) is '1' iff i is a sum."""
        return bin(self.bits)[:1:-1].ljust(self.n + 1, "0")

    def is_symmetric(self) -> bool:
        s = self.bitstring()
        return s == s[::-1]


# slot setters of the frozen mask, for `_mask_of`
_set_mask_n = PartialSumMask.n.__set__
_set_mask_bits = PartialSumMask.bits.__set__


def _mask_of(n, bits):
    """``PartialSumMask(n, bits)`` made by setting its two slots, without the
    frozen __init__'s ``object.__setattr__`` calls; the caller vouches for
    the bits."""
    mask = object.__new__(PartialSumMask)
    _set_mask_n(mask, n)
    _set_mask_bits(mask, bits)
    return mask


def _shift_copies(bits, a, count):
    """The sums of ``bits`` plus 0..count copies of a: shifts by a, 2a, 4a,
    ... and the rest, which reach every multiple 0..count of a."""
    k = 1
    while k <= count:
        bits |= bits << k * a
        count -= k
        k <<= 1
    if count:
        bits |= bits << count * a
    return bits


def _walk_partitions(n, window, visit):
    """Call ``visit(parts, sums)`` on every parts tuple of n in
    reverse-lexicographic order, (n) first and (1^n) last, with its partial
    sums in 0..window: the one enumeration of partitions, a DFS over the
    parts, largest first, that carries each prefix's sums, so a partition
    costs one shift-or, and a tail of ones one `_shift_copies`."""
    kept = (1 << window + 1) - 1

    def rec(prefix, left, top, sums):
        # prefix has partial sums `sums` and leaves `left` for parts <= top
        for a in range(top if top < left else left, 1, -1):
            s = (sums | sums << a) & kept
            if a == left:
                visit(prefix + (a,), s)
            else:
                rec(prefix + (a,), left - a, a, s)
        visit(prefix + (1,) * left, _shift_copies(sums, 1, left) & kept)

    rec((), n, n, 1)


def partial_sums(p: Partition) -> PartialSumMask:
    """Subset-sum DP over a bit vector; each part usable once per occurrence.

    Each run's copies take O(log count) shifts (`_shift_copies`).  A mask
    is cached only once its n has passed the cap, so a cached one is
    returned first."""
    if p._mask is not None:
        return p._mask
    _check_sum_cap(p.n)
    bits = 1
    for a, count in p.multiplicities():
        bits = _shift_copies(bits, a, count)
    mask = _mask_of(p.n, bits)
    _set_mask(p, mask)
    return mask


def _with_top_part(p: Partition, c: int) -> Partition:
    """p with one more part c, which must exceed every part of p: the runs
    get (c, 1) in front, with no sort or merge, and the mask is p's
    extended by one shift, not a second DP over every run."""
    n = p.n + c
    _check_sum_cap(n)
    q = _of_runs(((c, 1),) + p.multiplicities(), n)
    _set_mask(q, _mask_of(n, _shift_copies(partial_sums(p).bits, c, 1)))
    return q


def is_partial_sum(p: Partition, i: int) -> bool:
    return partial_sums(p).contains(i)


def parity(p: Partition) -> str:
    """'odd' or 'even': the sign of a permutation with this cycle type.

    A part of length a contributes a-1 transpositions, so the permutation is
    odd iff n - (number of parts) is odd, equivalently iff the number of
    even-length parts is odd."""
    return "odd" if (p.n - len(p)) % 2 else "even"


def power_type(p: Partition, k: int) -> Partition:
    """Cycle type of sigma^k for sigma of type p: a part a splits into
    gcd(a, k) cycles of length a/gcd(a, k)."""
    if k < 1:
        raise PartitionError(f"need k >= 1, got {k}")
    runs = []
    for a, count in p.multiplicities():
        g = math.gcd(a, k)
        runs.append((a // g, g * count))
    return Partition._from_runs(runs)


def _divisors(m: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= m:
        if m % d == 0:
            small.append(d)
            if d != m // d:
                large.append(m // d)
        d += 1
    return small + large[::-1]


def _factorize(m: int) -> dict[int, int]:
    """Prime factorization {prime: exponent} by trial division; {} for 1."""
    out: dict[int, int] = {}
    rest = m
    q = 2
    while q * q <= rest:
        while rest % q == 0:
            out[q] = out.get(q, 0) + 1
            rest //= q
        q += 1 if q == 2 else 2
    if rest > 1:
        out[rest] = out.get(rest, 0) + 1
    return out


def _is_prime(m: int) -> bool:
    return m >= 2 and _factorize(m) == {m: 1}


def jordan_witness(p: Partition) -> int | None:
    """Largest prime l such that some power of a permutation of type p is an
    l-cycle fixing at least 3 points; None if no such prime exists.

    Criterion: l is a part of multiplicity 1, l divides no other part (so
    raising to the lcm of the rest kills everything else but keeps the
    l-cycle), and n - l >= 3."""
    best = None
    runs = p.multiplicities()
    for value, count in runs:
        if count != 1 or not _is_prime(value) or p.n - value < 3:
            continue
        if any(other != value and other % value == 0 for other, _ in runs):
            continue
        if best is None or value > best:
            best = value
    return best


def wreath_realizable(p: Partition, a: int, b: int) -> bool:
    """Can a permutation of cycle type p preserve some partition of the n
    points into b blocks of size a (i.e. lie in S_a wr S_b)?

    If it can, its cycles split into groups: the blocks met by a group's
    cycles form an m-cycle of blocks, every cycle length in the group is
    divisible by m, the quotient lengths sum to a (they tile one block), and
    the m's over all groups sum to b.  Conversely any such grouping is
    realizable, so backtracking over groupings decides membership exactly.
    Groups are anchored on the largest remaining part to kill symmetry.
    The backtracking keeps its own stack of pending choices, since one level
    per group would exceed Python's recursion limit at a few thousand blocks.
    A state met again is skipped: every step removes parts, so it is not on
    the current path, and it was already explored without success.

    A state whose parts left all have one value v, c of them, on B blocks
    left, is decided at once: it is realizable iff v*c = a*B.  Equal point
    counts are always necessary.  They suffice: with g = gcd(a, v), a group
    of a/g parts v spanning v/g blocks obeys the rule above (v/g divides v,
    and the a/g quotients g sum to a), and (a/g) | c, since c*(v/g) =
    (a/g)*B with a/g and v/g coprime, so c/(a/g) such groups use every part
    and span c*v/a = B blocks.  For v = 1 this says the fixed points fill
    the blocks.  Every other state backtracks.
    """
    _check_integer(a, PartitionError, "block size")
    _check_integer(b, PartitionError, "block count")
    if a < 2 or b < 2:
        raise PartitionError(f"need block size and count >= 2, got a={a}, b={b}")
    if a * b != p.n:
        raise PartitionError(f"need a*b = n: {a}*{b} != {p.n}")

    seen = set()
    stack = [iter([(p.multiplicities(), b)])]
    while stack:
        state = next(stack[-1], None)
        if state is None:
            stack.pop()
        elif state not in seen:
            seen.add(state)
            items, blocks_left = state
            if len(items) == 1:
                ((v, c),) = items
                if v * c == a * blocks_left:
                    return True
            elif items:
                stack.append(_next_states(items, blocks_left, a))
            elif blocks_left == 0:
                return True
    return False


def wreath_types(a: int, b: int) -> set:
    """The cycle types (parts tuples) of all elements of S_a wr S_b.

    The grouping of `wreath_realizable`, built bottom-up: an m-cycle of the
    top permutation on blocks contributes m*lam for some lam |- a, and the
    m's sum to b.  That is an unbounded knapsack with one set of types per
    block count k: a group (m, lam) extends the types on k - m blocks.
    Taking the groups one at a time, each in increasing k, builds every
    multiset of groups once.  Each set holds at most p(ab) types, so ab is
    capped like partition enumeration."""
    _check_integer(a, PartitionError, "block size")
    _check_integer(b, PartitionError, "block count")
    if a < 2 or b < 2:
        raise PartitionError(f"need block size and count >= 2, got a={a}, b={b}")
    if a * b > DEFAULT_ENUMERATION_CAP:
        raise PartitionTooLarge(
            f"wreath types capped at n={DEFAULT_ENUMERATION_CAP}, got {a}*{b}"
        )
    shapes = _partition_tuples(a)
    levels = [{()}] + [set() for _ in range(b)]
    for m in range(1, b + 1):
        for lam in shapes:
            group = tuple(m * x for x in lam)
            for k in range(m, b + 1):
                levels[k].update(
                    tuple(sorted(t + group, reverse=True)) for t in levels[k - m]
                )
    return levels[b]


def _next_states(items, blocks_left, a):
    """The (items, blocks_left) states reached by removing one group that
    holds the largest remaining part and spans m blocks."""
    anchor = items[0][0]
    for m in _divisors(anchor):
        if m <= blocks_left and m * a >= anchor:
            for rest in _anchor_groups(items, m, m * a):
                yield rest, blocks_left - m


def _anchor_groups(items, m, target):
    """Yield the item tuples left after removing a group that contains the
    largest value, uses only values divisible by m, and sums to target.
    Choices are made per distinct value (a count each), so equal parts never
    blow up the branching."""
    usable = [(v, c) for v, c in items if v % m == 0]

    def rec(idx, remaining, taken):
        if remaining == 0:
            counts = dict(items)
            for v, t in taken:
                counts[v] -= t
            yield tuple((v, counts[v]) for v, _ in items if counts[v] > 0)
            return
        if idx == len(usable):
            return
        v, c = usable[idx]
        low = 1 if idx == 0 else 0
        high = min(c, remaining // v)
        for take in range(low, high + 1):
            yield from rec(idx + 1, remaining - take * v, taken + [(v, take)])

    yield from rec(0, target, [])
