"""Permutations on {0, ..., n-1} and a deterministic stabilizer-chain engine.

Permutations are image tuples: p[i] is the image of i.  Products act left to
right, x^(p*q) = (x^p)^q, matching the convention used for cycle notation in
the bundled subgroup data.  The stabilizer chain is built by the classical
Schreier-Sims procedure with no randomization, so group order, membership and
element enumeration are reproducible across runs.

The degrees handled here are small (at most a few dozen points); the code
favours clarity over asymptotics.
"""

from __future__ import annotations

import re
from collections import deque

from .partitions import Partition


class PermError(ValueError):
    """Invalid permutation input or an enumeration exceeding its cap."""


def identity(degree):
    return tuple(range(degree))


def is_perm(p, degree):
    return len(p) == degree and sorted(p) == list(range(degree))


def multiply(p, q):
    """Product acting left to right: x^(p*q) = (x^p)^q."""
    return tuple(q[x] for x in p)


def inverse(p):
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def cycle_type(p):
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
    return Partition(parts)


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
    earlier base points, and a transversal mapping the base point around its
    orbit."""

    __slots__ = ("point", "gens", "transversal")

    def __init__(self, point, ident):
        self.point = point
        self.gens = []
        self.transversal = {point: ident}


class PermGroup:
    """Group generated by image tuples, with a deterministic stabilizer chain."""

    DEFAULT_ELEMENT_CAP = 10_000_000

    def __init__(self, degree, generators):
        if degree < 1:
            raise PermError("degree must be at least 1")
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
        self._identity = ident
        self._levels = []
        self._build_chain()

    # -- stabilizer chain ---------------------------------------------------

    def _build_chain(self):
        # Seed the chain: each level's own list holds the input generators
        # that fix all earlier base points and move this one, the base point
        # being the least point moved at its level.  The generating set *at*
        # level i is cumulative (this level's list plus all deeper lists);
        # the verification pass below completes the seed to a BSGS.
        current = list(self.generators)
        while current:
            moved = min(
                x for x in range(self.degree) if any(g[x] != x for g in current)
            )
            level = _Level(moved, self._identity)
            level.gens = [g for g in current if g[moved] != moved]
            self._levels.append(level)
            current = [g for g in current if g[moved] == moved]
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
        lev = self._levels[l]
        gens = self._cumulative_gens(l)
        lev.transversal = {lev.point: self._identity}
        queue = deque([lev.point])
        while queue:
            beta = queue.popleft()
            rep = lev.transversal[beta]
            for g in gens:
                target = g[beta]
                if target not in lev.transversal:
                    lev.transversal[target] = multiply(rep, g)
                    queue.append(target)

    def _verify_level(self, i):
        self._rebuild_orbit(i)
        lev = self._levels[i]
        gens = self._cumulative_gens(i)
        for beta in sorted(lev.transversal):
            rep = lev.transversal[beta]
            for g in gens:
                schreier = multiply(
                    multiply(rep, g), inverse(lev.transversal[g[beta]])
                )
                residue, drop = self._strip(schreier, i + 1)
                if residue != self._identity:
                    if drop == len(self._levels):
                        moved = min(
                            x for x in range(self.degree) if residue[x] != x
                        )
                        self._levels.append(_Level(moved, self._identity))
                    self._levels[drop].gens.append(residue)
                    self._rebuild_orbit(drop)
                    return drop
        return None

    def _strip(self, p, start):
        """Reduce p through transversals; returns (residue, level reached)."""
        h = p
        for l in range(start, len(self._levels)):
            lev = self._levels[l]
            rep = lev.transversal.get(h[lev.point])
            if rep is None:
                return h, l
            h = multiply(h, inverse(rep))
        return h, len(self._levels)

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
        residue, _ = self._strip(p, 0)
        return residue == self._identity

    def elements(self):
        """All elements, in a deterministic order.  Raises above the cap."""
        cap = PermGroup.DEFAULT_ELEMENT_CAP
        if self.order() > cap:
            raise PermError(f"group order {self.order()} exceeds cap {cap}")
        current = [self._identity]
        for lev in reversed(self._levels):
            reps = [lev.transversal[beta] for beta in sorted(lev.transversal)]
            current = [multiply(e, rep) for rep in reps for e in current]
        return current

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
