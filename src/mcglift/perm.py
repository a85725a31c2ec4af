"""Permutations and permutation groups with exact big-integer orders.

Composition convention, used everywhere in this package:

    (p * q)(x) = p(q(x))        -- q acts first.

Groups are held as a base and strong generating set (deterministic
Schreier-Sims), so orders are exact Python integers and membership is
decided by sifting.  Groups are immutable once constructed.  The chain
works on raw image tuples and wraps them as `Permutation` only at its
public edges.  Each strong generator's inverse is stored once, beside it,
and only coset representatives at depth >= 2 of a Schreier tree are
cached, until that orbit is next rebuilt: a cache of every point would
keep a full-degree inverse per orbit point per level, which on chains of
hundreds of levels over tens of thousands of points costs more memory,
and time, than the compositions it saves.

`Permutation.from_blocks` builds every block-diagonal permutation (block j
is the points n*j ... n*j+n-1): product images, the S3 odd basis and sign
images, the hall route's Borel factors and the C2^k basis.

Two reference algorithms work on any group small enough to list:
`sylow2` grows a Sylow 2-subgroup element by element, and
`normalizer_is_self` scans the ambient group.  The structural versions for
groups in S3-block form live in `forge`, and tests compare them against
these two.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import chain
from operator import add

from .budgets import DEFAULT


class PermError(ValueError):
    pass


class MembershipError(PermError):
    """Raised when an operation requires an element the group does not contain."""


class EnumerationBoundExceeded(PermError):
    """Raised when an operation would enumerate more elements than allowed."""


class Sylow2Stalled(PermError):
    """Raised if the grown 2-subgroup stalls below the 2-part of the order."""


class Permutation:
    """An immutable permutation of {0, ..., n-1}, stored as its image tuple."""

    __slots__ = ("images", "_hash")

    def __init__(self, images):
        images = tuple(images)
        seen = [False] * len(images)
        for x in images:
            if not 0 <= x < len(images) or seen[x]:
                raise PermError(f"not a permutation: {images!r}")
            seen[x] = True
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "_hash", hash(images))

    @classmethod
    def _trusted(cls, images):
        """A permutation from an image tuple known to be one; products and
        inverses of permutations come here and skip the validation."""
        p = object.__new__(cls)
        object.__setattr__(p, "images", images)
        object.__setattr__(p, "_hash", hash(images))
        return p

    def __setattr__(self, name, value):
        raise AttributeError("Permutation is immutable")

    @staticmethod
    def identity(degree):
        return Permutation(range(degree))

    @classmethod
    def from_blocks(cls, blocks):
        """The permutation of n * len(blocks) points that acts on block j,
        the points n*j ... n*j+n-1, the way the image tuple blocks[j] acts
        on 0 ... n-1.  Each distinct block is checked once; an empty list,
        blocks of mixed length or a block that is not a permutation raise
        PermError."""
        if not blocks:
            raise PermError("no blocks to place")
        n = len(blocks[0])
        points = list(range(n))
        for block in dict.fromkeys(map(tuple, blocks)):
            if len(block) != n:
                raise PermError(f"blocks of mixed length {n} and {len(block)}")
            if sorted(block) != points:
                raise PermError(f"not a permutation: {block!r}")
        # the offset n*j of block j, repeated once per point of the block
        offsets = chain.from_iterable(zip(*[range(0, n * len(blocks), n)] * n))
        return cls._trusted(
            tuple(map(add, chain.from_iterable(blocks), offsets)))

    @staticmethod
    def from_cycles(degree, cycles):
        images = list(range(degree))
        for cyc in cycles:
            for i, x in enumerate(cyc):
                images[x] = cyc[(i + 1) % len(cyc)]
        return Permutation(images)

    @staticmethod
    def parse(text, degree):
        """Parse cycle notation like "(0 1 2)(3 4)" or "()" for the identity."""
        text = text.strip().replace(",", " ")
        cycles = []
        depth = 0
        cur = []
        token = ""
        for ch in text:
            if ch == "(":
                if depth:
                    raise PermError(f"bad cycle notation: {text!r}")
                depth = 1
                cur = []
                token = ""
            elif ch == ")":
                if token:
                    cur.append(int(token))
                    token = ""
                if cur:
                    cycles.append(cur)
                depth = 0
            elif ch.isspace():
                if token:
                    cur.append(int(token))
                    token = ""
            elif ch.isdigit():
                if not depth:
                    raise PermError(f"bad cycle notation: {text!r}")
                token += ch
            else:
                raise PermError(f"bad cycle notation: {text!r}")
        if depth or token:
            raise PermError(f"unterminated cycle: {text!r}")
        return Permutation.from_cycles(degree, cycles)

    @property
    def degree(self):
        return len(self.images)

    def __call__(self, x):
        return self.images[x]

    def __mul__(self, other):
        if not isinstance(other, Permutation):
            return NotImplemented
        if other.degree != self.degree:
            raise PermError("degree mismatch")
        return Permutation._trusted(
            tuple(map(self.images.__getitem__, other.images)))

    def inverse(self):
        inv = [0] * len(self.images)
        for i, x in enumerate(self.images):
            inv[x] = i
        return Permutation._trusted(tuple(inv))

    def is_identity(self):
        return self.images == tuple(range(len(self.images)))

    def cycles(self, include_fixed=False):
        seen = [False] * self.degree
        out = []
        for start in range(self.degree):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            x = self.images[start]
            while x != start:
                seen[x] = True
                cyc.append(x)
                x = self.images[x]
            if len(cyc) > 1 or include_fixed:
                out.append(tuple(cyc))
        return out

    def cycle_string(self):
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + " ".join(str(x) for x in c) + ")" for c in cycs)

    def order(self):
        return math.lcm(*(len(c) for c in self.cycles()))

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __lt__(self, other):
        return self.images < other.images

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Permutation({self.cycle_string()!r}, degree={self.degree})"


class _Level:
    """One level of a stabilizer chain: a base point, the strong generators
    placed at this level (they fix all earlier base points and move this
    one or deeper), and a Schreier tree for the orbit.

    The orbit at level j is computed under every strong generator fixing the
    first j base points — i.e. the generators placed at levels j, j+1, … —
    so trees are rebuilt with that union, not with this level's list alone.

    Elements are image tuples, and each strong generator is the pair
    (g, g^-1), inverted once when it is placed; tree entries point at these
    pairs.  A point one edge from the base has that pair as its coset
    representative, so only points at depth >= 2 compose one, and those are
    cached until the next rebuild.  A cache of every point would hold an
    inverse of full degree per orbit point per level, which on large chains
    costs more memory, and time, than the compositions it saves.
    """

    __slots__ = ("base", "gens", "tree", "cache")

    def __init__(self, base):
        self.base = base
        self.gens = []
        self.tree = {base: None}
        self.cache = {}

    def rebuild_orbit(self, acting_gens):
        self.cache = {}
        self.tree = {self.base: None}
        queue = [self.base]
        qi = 0
        while qi < len(queue):
            x = queue[qi]
            qi += 1
            for pair in acting_gens:
                y = pair[0][x]
                if y not in self.tree:
                    self.tree[y] = (pair, x)
                    queue.append(y)

    def pair(self, point):
        """(t, t^-1) for the element t of <gens> mapping base to point, read
        off the Schreier tree; (None, None) for the base itself."""
        step = self.tree[point]
        if step is None:
            return None, None  # identity; callers special-case it
        (g, g_inv), parent = step
        if self.tree[parent] is None:
            return g, g_inv
        cached = self.cache.get(point)
        if cached is not None:
            return cached
        # walk to the base, or to a cached ancestor: t = g_1 * g_2 * ...
        t, t_inv = g, g_inv
        while self.tree[parent] is not None:
            cached = self.cache.get(parent)
            if cached is not None:
                t = tuple(map(t.__getitem__, cached[0]))
                t_inv = tuple(map(cached[1].__getitem__, t_inv))
                break
            (g, g_inv), parent = self.tree[parent]
            t = tuple(map(t.__getitem__, g))
            t_inv = tuple(map(g_inv.__getitem__, t_inv))
        self.cache[point] = t, t_inv
        return t, t_inv


class PermGroup:
    """A permutation group with a deterministic base and strong generating set.

    `known_order` is an optional externally computed order: construction stops
    as soon as the transversal product count reaches it.  The partial chain is
    still sound for membership and order queries because the set of elements
    that sift to the identity has exactly `prod(orbit lengths)` members and is
    contained in the group.
    """

    def __init__(self, generators, degree=None, known_order=None):
        generators = [g for g in generators if not g.is_identity()]
        if degree is None:
            if not generators:
                raise PermError("degree required for a trivial group")
            degree = generators[0].degree
        for g in generators:
            if g.degree != degree:
                raise PermError("generator degree mismatch")
        self.degree = degree
        self.generators = tuple(generators)
        self._id = tuple(range(degree))
        self._levels = []
        self._build(known_order)
        self._order = self._chain_count()

    # -- construction -------------------------------------------------------
    # The chain works on image tuples: (a * b) is tuple(map(a.__getitem__, b)).

    def _build(self, known_order):
        for g in self.generators:
            if known_order is not None and self._chain_count() == known_order:
                return
            self._add_generator(g.images)
        # Complete the chain: level i is verified once every Schreier
        # generator of level i sifts to the identity through deeper levels.
        i = len(self._levels) - 1
        while i >= 0:
            if known_order is not None and self._chain_count() == known_order:
                return
            witness = self._first_schreier_residue(i)
            if witness is None:
                i -= 1
            else:
                residue, level_index = witness
                self._place(residue, level_index)
                i = level_index
        if known_order is not None and self._chain_count() != known_order:
            raise PermError(
                f"computed order {self._chain_count()} != declared {known_order}"
            )

    def _chain_count(self):
        n = 1
        for lvl in self._levels:
            n *= len(lvl.tree)
        return n

    def _acting_gens(self, j):
        """S_j: every strong generator fixing the first j base points."""
        gens = []
        for lvl in self._levels[j:]:
            gens.extend(lvl.gens)
        return gens

    def _add_generator(self, g):
        residue, idx = self._sift(g)
        if residue != self._id:
            self._place(residue, idx)

    def _place(self, g, idx):
        if idx == len(self._levels):
            base = min(x for x in range(self.degree) if g[x] != x)
            self._levels.append(_Level(base))
        # the inverse takes its entries from the identity tuple, so the
        # stored pairs share their ints
        inv = [0] * self.degree
        for x, i in zip(g, self._id):
            inv[x] = i
        self._levels[idx].gens.append((g, tuple(inv)))
        # g joins S_j for every j <= idx; those orbits can all grow.
        acting = self._acting_gens(idx)
        for j in range(idx, -1, -1):
            self._levels[j].rebuild_orbit(acting)
            if j > 0:
                acting = acting + self._levels[j - 1].gens

    def _first_schreier_residue(self, i):
        """First nontrivial sifted Schreier generator at level i, or None."""
        lvl = self._levels[i]
        identity = self._id
        acting = self._acting_gens(i)
        for x in sorted(lvl.tree):
            tx, _ = lvl.pair(x)
            for g, _ in acting:
                _, ty_inv = lvl.pair(g[x])
                # schreier generator t_y^-1 * g * t_x, which fixes the base
                s = g if tx is None else tuple(map(g.__getitem__, tx))
                if ty_inv is not None:
                    s = tuple(map(ty_inv.__getitem__, s))
                if s == identity:
                    continue
                residue, idx = self._sift(s, start=i + 1)
                if residue != identity:
                    return residue, idx
        return None

    def _sift(self, p, start=0):
        """Strip the image tuple p against the chain; returns (residue, level
        it got stuck at)."""
        for idx in range(start, len(self._levels)):
            lvl = self._levels[idx]
            y = p[lvl.base]
            if y == lvl.base:
                continue
            if y not in lvl.tree:
                return p, idx
            _, t_inv = lvl.pair(y)
            p = tuple(map(t_inv.__getitem__, p))
        return p, len(self._levels)

    # -- queries ------------------------------------------------------------

    @property
    def order(self):
        return self._order

    def sift(self, p):
        residue, _ = self._sift(p.images)
        return Permutation._trusted(residue)

    def __contains__(self, p):
        if not isinstance(p, Permutation) or p.degree != self.degree:
            return False
        residue, _ = self._sift(p.images)
        return residue == self._id

    def identity(self):
        return Permutation.identity(self.degree)

    def elements(self, bound=DEFAULT.enum):
        """All elements, by deterministic transversal products.

        Raises EnumerationBoundExceeded if the order exceeds `bound`.
        """
        if bound is not None and self.order > bound:
            raise EnumerationBoundExceeded(
                f"group order {self.order} exceeds enumeration bound {bound}"
            )
        transversals = []
        for lvl in self._levels:
            transversals.append([lvl.pair(x)[0] for x in sorted(lvl.tree)])
        out = [self._id]
        for ts in reversed(transversals):
            nxt = []
            for t in ts:
                if t is None:
                    nxt.extend(out)
                else:
                    nxt.extend(tuple(map(t.__getitem__, e)) for e in out)
            out = nxt
        return [Permutation._trusted(e) for e in out]

    def __repr__(self):
        return f"PermGroup(degree={self.degree}, order={self.order})"


@dataclass(frozen=True)
class SubgroupWitness:
    """A subgroup H of an ambient group G together with its exact index."""

    ambient: PermGroup
    sub: PermGroup
    index: int

    def __post_init__(self):
        if self.ambient.degree != self.sub.degree:
            raise PermError("ambient/subgroup degree mismatch")
        for g in self.sub.generators:
            if g not in self.ambient:
                raise MembershipError(
                    f"subgroup generator {g.cycle_string()} not in ambient group"
                )
        if self.sub.order * self.index != self.ambient.order:
            raise PermError(
                f"index {self.index} * subgroup order {self.sub.order}"
                f" != ambient order {self.ambient.order}"
            )


def subgroup_witness(ambient, sub):
    if ambient.order % sub.order:
        raise PermError("subgroup order does not divide ambient order")
    return SubgroupWitness(ambient, sub, ambient.order // sub.order)


# -- Sylow 2-subgroups ------------------------------------------------------


def two_part(n):
    t = 1
    while n % 2 == 0:
        n //= 2
        t *= 2
    return t


def sylow2(group, seed=0, bound=DEFAULT.enum):
    """A Sylow 2-subgroup of `group`, as a SubgroupWitness.

    Grows a 2-subgroup by adjoining elements, in an order shuffled by
    `seed`, while the order stays a power of 2.  Enumerates the group, so
    its order must be within `bound`."""
    target = two_part(group.order)
    if target == 1:
        return subgroup_witness(group, PermGroup([], degree=group.degree))
    elements = group.elements(bound)
    rng = random.Random(seed)
    rng.shuffle(elements)
    sub = PermGroup([], degree=group.degree)
    while sub.order < target:
        for x in elements:
            if x.is_identity() or x in sub:
                continue
            cand = PermGroup(sub.generators + (x,), degree=group.degree)
            if cand.order > sub.order and cand.order & (cand.order - 1) == 0:
                sub = cand
                break
        else:
            raise Sylow2Stalled(
                f"2-subgroup stalled at order {sub.order} below 2-part {target}"
            )
    return subgroup_witness(group, sub)


# -- normalizer check -------------------------------------------------------


def normalizer_is_self(witness, bound=DEFAULT.enum):
    """Decide whether N_G(H) = H by scanning every element of G, whose
    order must be within `bound`."""
    g, h = witness.ambient, witness.sub
    hgens = h.generators
    for x in g.elements(bound):
        if all(x * hg * x.inverse() in h for hg in hgens):
            if x not in h:
                return False
    return True


def mulclose(generators, degree=None, bound=DEFAULT.enum):
    """Brute-force closure: the independent oracle for BSGS orders, and the
    element lists of the quotient targets."""
    if degree is None:
        degree = generators[0].degree
    elems = {Permutation.identity(degree)}
    frontier = list(elems)
    while frontier:
        nxt = []
        for e in frontier:
            for g in generators:
                p = g * e
                if p not in elems:
                    if len(elems) >= bound:
                        raise EnumerationBoundExceeded(
                            f"closure exceeded bound {bound}"
                        )
                    elems.add(p)
                    nxt.append(p)
        frontier = nxt
    return elems
