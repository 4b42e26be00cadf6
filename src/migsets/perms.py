"""Permutations on {0, ..., n-1} and a deterministic stabilizer-chain engine.

Permutations are image tuples: p[i] is the image of i.  Products act left to
right, x^(p*q) = (x^p)^q, matching the convention used for cycle notation in
the bundled subgroup data.  The stabilizer chain is built by the classical
Schreier-Sims procedure with no randomization, so group order, membership and
element enumeration are reproducible across runs.

The chain itself holds each permutation as a 256-byte translation table:
the bytes of its images, padded with the identity on the points past the
degree.  A product p*q is then the C-level ``p.translate(q)``, and an
inverse is ``bytes.maketrans(p, identity)``.  Next to each transversal the
chain keeps the inverse of every transversal element, built during the
orbit search as inv(rep*g) = inv(g)*inv(rep); each generator is inverted
once, when it joins the chain.  Sifting therefore never inverts.  The public
interface stays on image tuples: `PermGroup.generators`, the input of
`contains` and the output of `elements` are tuples, and a group has at most
`MAX_POINTS` (256) points, checked before any work.  The algorithm is the
plain one, without Schreier vectors or randomization; the degrees handled
here are small (at most a few dozen points in the package itself).
"""

from __future__ import annotations

import re
from collections import deque

from .partitions import Partition


class PermError(ValueError):
    """Invalid permutation input or an enumeration exceeding its cap."""


# the points a chain table (one byte per point) can hold
MAX_POINTS = 256
_IDENTITY = bytes(range(MAX_POINTS))


def identity(degree):
    return tuple(range(degree))


def is_perm(p, degree):
    return len(p) == degree and sorted(p) == list(range(degree))


def multiply(p, q):
    """Product acting left to right: x^(p*q) = (x^p)^q."""
    return tuple(map(q.__getitem__, p))


def inverse(p):
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def _cycle_lengths(p):
    """The cycle lengths of p (image tuple or bytes), descending."""
    seen = [False] * len(p)
    parts = []
    for start in range(len(p)):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = p[x]
            length += 1
        parts.append(length)
    parts.sort(reverse=True)
    return tuple(parts)


def cycle_type(p):
    return Partition(_cycle_lengths(p))


def _with_inverse(table):
    return table, bytes.maketrans(table, _IDENTITY)


def _first_moved(table):
    """The least point a non-identity table moves."""
    return next(x for x, y in enumerate(table) if x != y)


def from_cycles(degree, cycles):
    """Build an image tuple from disjoint cycles given as point sequences."""
    images = list(range(degree))
    used = set()
    for cyc in cycles:
        for pt in cyc:
            if not isinstance(pt, int) or not 0 <= pt < degree:
                raise PermError(f"point {pt!r} out of range for degree {degree}")
            if pt in used:
                raise PermError(f"point {pt} appears in more than one cycle")
            used.add(pt)
        for i, pt in enumerate(cyc):
            images[pt] = cyc[(i + 1) % len(cyc)]
    return tuple(images)


_CYCLES_SHAPE = re.compile(r"\s*(?:\(\s*(?:\d+(?:\s+\d+)*)?\s*\)\s*)+")
_CYCLE_BODY = re.compile(r"\(([^()]*)\)")


def parse_cycles(text, degree):
    """Parse cycle notation like ``(0 1 2)(3 4)``; ``()`` is the identity."""
    if not _CYCLES_SHAPE.fullmatch(text):
        raise PermError(f"malformed cycle notation: {text!r}")
    cycles = []
    for body in _CYCLE_BODY.findall(text):
        pts = [int(tok) for tok in body.split()]
        if pts:
            cycles.append(tuple(pts))
    return from_cycles(degree, cycles)


def format_cycles(p):
    seen = [False] * len(p)
    pieces = []
    for start in range(len(p)):
        if seen[start] or p[start] == start:
            seen[start] = True
            continue
        cyc = []
        x = start
        while not seen[x]:
            seen[x] = True
            cyc.append(x)
            x = p[x]
        pieces.append("(" + " ".join(str(pt) for pt in cyc) + ")")
    return "".join(pieces) if pieces else "()"


class _Level:
    """One stabilizer-chain level: a base point, the generators fixing all
    earlier base points (as (table, inverse table) pairs), a transversal
    mapping the base point around its orbit, and the inverse of each
    transversal element."""

    __slots__ = ("point", "gens", "transversal", "inverses")

    def __init__(self, point):
        self.point = point
        self.gens = []
        self.transversal = {point: _IDENTITY}
        self.inverses = {point: _IDENTITY}


class PermGroup:
    """Group generated by image tuples, with a deterministic stabilizer chain."""

    DEFAULT_ELEMENT_CAP = 10_000_000

    def __init__(self, degree, generators):
        if not 1 <= degree <= MAX_POINTS:
            raise PermError(f"degree must be in 1..{MAX_POINTS}, got {degree}")
        self.degree = degree
        ident = identity(degree)
        gens = []
        for g in generators:
            g = tuple(g)
            if not is_perm(g, degree):
                raise PermError(f"not a permutation of degree {degree}: {g!r}")
            if g != ident and g not in gens:
                gens.append(g)
        self.generators = tuple(gens)
        self._levels = []
        self._build_chain()

    def _table(self, p):
        return bytes(p) + _IDENTITY[self.degree :]

    # -- stabilizer chain ---------------------------------------------------

    def _build_chain(self):
        # Seed the chain: each level's own list holds the input generators
        # that fix all earlier base points and move this one, the base point
        # being the least point moved at its level.  The generating set *at*
        # level i is cumulative (this level's list plus all deeper lists);
        # the verification pass below completes the seed to a BSGS.
        current = [_with_inverse(self._table(g)) for g in self.generators]
        while current:
            moved = min(_first_moved(g) for g, _ in current)
            level = _Level(moved)
            level.gens = [pair for pair in current if pair[0][moved] != moved]
            self._levels.append(level)
            current = [pair for pair in current if pair[0][moved] == moved]
        # Bottom-up pass: a level is accepted once every one of its Schreier
        # generators sifts to the identity through the (already accepted)
        # deeper levels.  A failed sift adds the residue where it stuck and
        # resumes verification there; each failure strictly enlarges the
        # group known at that level, so the pass terminates.  Levels above
        # the modified one are revisited on the way back up, which also
        # refreshes orbits that the new generator may have extended.
        i = len(self._levels) - 1
        while i >= 0:
            stuck = self._verify_level(i)
            i = i - 1 if stuck is None else stuck

    def _cumulative_gens(self, l):
        return [g for lev in self._levels[l:] for g in lev.gens]

    def _rebuild_orbit(self, l):
        # breadth-first orbit of the base point; the inverse of rep*g is
        # inv(g)*inv(rep), so no transversal element is inverted directly
        lev = self._levels[l]
        gens = self._cumulative_gens(l)
        transversal = lev.transversal = {lev.point: _IDENTITY}
        inverses = lev.inverses = {lev.point: _IDENTITY}
        queue = deque([lev.point])
        while queue:
            beta = queue.popleft()
            rep = transversal[beta]
            rep_inv = inverses[beta]
            for g, g_inv in gens:
                target = g[beta]
                if target not in transversal:
                    transversal[target] = rep.translate(g)
                    inverses[target] = g_inv.translate(rep_inv)
                    queue.append(target)

    def _verify_level(self, i):
        self._rebuild_orbit(i)
        lev = self._levels[i]
        transversal, inverses = lev.transversal, lev.inverses
        gens = self._cumulative_gens(i)
        for beta in sorted(transversal):
            rep = transversal[beta]
            for g, _ in gens:
                target = g[beta]
                product = rep.translate(g)
                if product == transversal[target]:
                    continue  # the Schreier generator is the identity
                schreier = product.translate(inverses[target])
                residue, drop = self._strip(schreier, i + 1)
                if residue != _IDENTITY:
                    if drop == len(self._levels):
                        self._levels.append(_Level(_first_moved(residue)))
                    self._levels[drop].gens.append(_with_inverse(residue))
                    self._rebuild_orbit(drop)
                    return drop
        return None

    def _strip(self, h, start):
        """Reduce the table h through the transversals; returns
        (residue, level reached)."""
        levels = self._levels
        for l in range(start, len(levels)):
            lev = levels[l]
            rep_inv = lev.inverses.get(h[lev.point])
            if rep_inv is None:
                return h, l
            h = h.translate(rep_inv)
        return h, len(levels)

    # -- queries ------------------------------------------------------------

    def order(self):
        n = 1
        for lev in self._levels:
            n *= len(lev.transversal)
        return n

    def contains(self, p):
        p = tuple(p)
        if not is_perm(p, self.degree):
            raise PermError(f"not a permutation of degree {self.degree}: {p!r}")
        residue, _ = self._strip(self._table(p), 0)
        return residue == _IDENTITY

    def _element_images(self):
        # each element as the bytes of its first `degree` images: a short
        # string translated by a full table keeps its own length
        cap = PermGroup.DEFAULT_ELEMENT_CAP
        if self.order() > cap:
            raise PermError(f"group order {self.order()} exceeds cap {cap}")
        current = [_IDENTITY[: self.degree]]
        for lev in reversed(self._levels):
            reps = [lev.transversal[beta] for beta in sorted(lev.transversal)]
            current = [e.translate(rep) for rep in reps for e in current]
        return current

    def elements(self):
        """All elements as image tuples, in a deterministic order.  Raises
        above the cap."""
        return [tuple(e) for e in self._element_images()]

    def cycle_types(self):
        """The cycle types of all elements, one `Partition` per type."""
        return frozenset(
            Partition(t) for t in set(map(_cycle_lengths, self._element_images()))
        )

    # -- orbit and block structure --------------------------------------------

    def orbits(self):
        parent = list(range(self.degree))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for g in self.generators:
            for x in range(self.degree):
                rx, ry = find(x), find(g[x])
                if rx != ry:
                    parent[ry] = rx
        groups = {}
        for x in range(self.degree):
            groups.setdefault(find(x), []).append(x)
        return tuple(tuple(sorted(v)) for v in sorted(groups.values()))

    def is_transitive(self):
        return len(self.orbits()) == 1

    def _block_closure(self, alpha, beta):
        """Smallest block containing both points (Atkinson's union-find
        closure); returned as the class of alpha."""
        parent = list(range(self.degree))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        queue = [(alpha, beta)]
        while queue:
            a, b = queue.pop()
            ra, rb = find(a), find(b)
            if ra == rb:
                continue
            parent[rb] = ra
            for g in self.generators:
                queue.append((g[ra], g[rb]))
        root = find(alpha)
        return frozenset(x for x in range(self.degree) if find(x) == root)

    def minimal_block_systems(self):
        """All minimal nontrivial block systems, as sorted tuples of blocks.

        Requires transitivity.  An empty result on a transitive group means
        the group is primitive.
        """
        if not self.is_transitive():
            raise PermError("block systems are only defined for transitive groups")
        everything = frozenset(range(self.degree))
        blocks = set()
        for beta in range(1, self.degree):
            b = self._block_closure(0, beta)
            if b != everything:
                blocks.add(b)
        minimal = [b for b in blocks if not any(other < b for other in blocks)]
        systems = []
        for b in minimal:
            seen = {b}
            frontier = [b]
            while frontier:
                blk = frontier.pop()
                for g in self.generators:
                    img = frozenset(g[x] for x in blk)
                    if img not in seen:
                        seen.add(img)
                        frontier.append(img)
            systems.append(tuple(sorted(tuple(sorted(blk)) for blk in seen)))
        return tuple(sorted(systems, key=lambda sys: (len(sys[0]), sys)))

    def is_primitive(self):
        if not self.is_transitive():
            return False
        return not self.minimal_block_systems()

    def __repr__(self):
        return f"PermGroup(degree={self.degree}, order={self.order()})"
