"""Reference group algorithms for the tests: a deterministic Schreier-Sims
stabilizer chain and the brute-force checks built on it.

The package certifies every order and every lifting condition without a
stabilizer chain.  The tests keep this chain as an independent reference to
compare the structural routes against: `PermGroup` gives exact orders and
membership by sifting, `sylow2` grows a Sylow 2-subgroup element by element,
and `normalizer_is_self` scans the ambient group for N_G(H) = H.
`borel_witness` is the Borel subgroup of PSL2(F_p) as a chain of the factor.
`block_sign_vector_by_blocks` and `normalizer_blocks_by_loop` read the
block signs and the S3 normalizer's per-block checks one block at a time,
the reference for `forge`'s strided reads.  `as_homs` wraps index tuples
as `FiniteHom`s, and `mod2_columns` reads an automorphism's action on
mod-2 homology off its image words.

The chain works on raw image tuples and wraps them as `Permutation` only at
its public edges.  Each strong generator's inverse is stored once, beside
it.  The construction is resumable.  Schreier trees only grow: a new strong
generator extends every tree it acts on, and no tree entry ever changes.
Each level records, per orbit point, how many of its Schreier generators
are already verified, and the completion never sifts one of those again
(`PermGroup` says why that is sound).  Only coset representatives at depth
>= 2 of a tree are cached, for as long as the tree lives.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from mcglift.budgets import DEFAULT
from mcglift.forge import StructuralFormError
from mcglift.perm import (
    EnumerationBoundExceeded,
    PermError,
    Permutation,
    Sylow2Stalled,
    two_part,
)
from mcglift.quotients import FiniteHom, borel_subgroup, target_psl2


class MembershipError(PermError):
    """Raised when an operation requires an element the group does not contain."""


class _Level:
    """One level of a stabilizer chain: a base point, the acting generators,
    a Schreier tree for the orbit of the base under them, and a record of the
    Schreier generators already verified.

    The acting generators of level j are every strong generator that fixes
    the first j base points, i.e. those placed at levels j, j+1, ..., kept
    in the order they were placed.  A placement only appends to this list.

    Trees only grow.  `extend` adds one acting generator: it applies the new
    generator to the points already in the orbit, then every acting
    generator to each point newly reached.  No entry of the tree ever
    changes, so the coset representative of a point is the same element for
    the life of the chain.

    Elements are image tuples, and each strong generator is the pair
    (g, g^-1), inverted once when it is placed; tree entries point at these
    pairs.  A point one edge from the base has that pair as its coset
    representative, so only points at depth >= 2 compose one, and those are
    cached; the cache lives as long as the tree.  A cache of every point
    would hold an inverse of full degree per orbit point per level, which on
    large chains costs more memory, and time, than the compositions it
    saves.

    `checked[n]` belongs to the n-th point x the tree reached: the Schreier
    generators t_{g x}^-1 * g * t_x of the first `checked[n]` acting
    generators g are known to lie in the group of the deeper levels.  A
    count per point suffices because the acting list only grows at its end.
    """

    __slots__ = ("base", "acting", "tree", "checked", "cache")

    def __init__(self, base):
        self.base = base
        self.acting = []
        self.tree = {base: None}
        self.checked = [0]
        self.cache = {}

    def extend(self, pair):
        """Add the strong generator `pair` to the acting set and grow the
        tree to the orbit under the enlarged set."""
        self.acting.append(pair)
        tree = self.tree
        g = pair[0]
        reached = []
        for x in list(tree):
            y = g[x]
            if y not in tree:
                tree[y] = (pair, x)
                reached.append(y)
        acting = self.acting
        for x in reached:  # grows while it is read: a breadth-first search
            for p in acting:
                y = p[0][x]
                if y not in tree:
                    tree[y] = (p, x)
                    reached.append(y)
        self.checked.extend([0] * len(reached))

    def pair(self, point):
        """(t, t^-1) for the element t of <acting> mapping base to point, read
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

    Construction sifts each generator into the chain, placing what is left
    as a strong generator, then completes the chain from the deepest level
    up.  Level i is complete once every Schreier generator t_{gx}^-1 * g *
    t_x of its tree (x in the orbit, g acting) sifts to the identity through
    the levels below i; a residue that does not is placed where its sift
    stopped, and the completion resumes at that level.

    Each level counts, per orbit point, the acting generators whose Schreier
    generator has sifted to the identity, and the scan resumes from those
    counts rather than from the first point.  This is sound because nothing
    a verified generator depends on ever changes or shrinks: trees only
    grow, so t_x and t_{gx} stay the same elements and the Schreier
    generator stays the same element; it was shown to lie in <S_{i+1}>, the
    group of the acting generators below level i, and S_{i+1} only grows.
    When the completion ends, every Schreier generator of every level has
    been verified against its final tree, so by Schreier's lemma the
    stabilizer of base point i in <S_i> is <S_{i+1}> at every level: the
    chain is a complete base and strong generating set.
    """

    def __init__(self, generators, degree=None):
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
        self._build()
        self._order = math.prod(len(lvl.tree) for lvl in self._levels)

    # -- construction -------------------------------------------------------
    # The chain works on image tuples: (a * b) is tuple(map(a.__getitem__, b)).

    def _build(self):
        for g in self.generators:
            self._add_generator(g.images)
        # Complete the chain: level i is verified once every Schreier
        # generator of level i sifts to the identity through deeper levels.
        i = len(self._levels) - 1
        while i >= 0:
            witness = self._first_schreier_residue(i)
            if witness is None:
                i -= 1
            else:
                residue, level_index = witness
                self._place(residue, level_index)
                i = level_index

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
        pair = (g, tuple(inv))
        # g fixes the first idx base points, so it joins the acting set of
        # every level j <= idx, and those orbits can all grow
        for lvl in self._levels[:idx + 1]:
            lvl.extend(pair)

    def _first_schreier_residue(self, i):
        """First Schreier generator at level i, not yet verified, that does
        not sift to the identity through the deeper levels: returns (residue,
        level it got stuck at), or None once every one is verified.

        The scan resumes from each point's `checked` count, and every
        generator that sifts to the identity is added to that count.
        """
        lvl = self._levels[i]
        identity = self._id
        acting, checked = lvl.acting, lvl.checked
        for n, x in enumerate(lvl.tree):
            c = checked[n]
            if c == len(acting):
                continue
            tx, _ = lvl.pair(x)
            for g, _ in acting[c:]:
                _, ty_inv = lvl.pair(g[x])
                # schreier generator t_y^-1 * g * t_x, which fixes the base
                s = g if tx is None else tuple(map(g.__getitem__, tx))
                if ty_inv is not None:
                    s = tuple(map(ty_inv.__getitem__, s))
                if s != identity:
                    residue, idx = self._sift(s, start=i + 1)
                    if residue != identity:
                        checked[n] = c
                        return residue, idx
                c += 1
            checked[n] = c
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


def borel_witness(p):
    """The Borel subgroup of PSL2(F_p) from `borel_subgroup`, as a
    SubgroupWitness of the factor's chain."""
    ambient = PermGroup(list(target_psl2(p).generators), degree=p + 1)
    sub = PermGroup(list(borel_subgroup(p).generators), degree=p + 1)
    return subgroup_witness(ambient, sub)


# -- S3 blocks, one block at a time -----------------------------------------


def block_sign_vector_by_blocks(p, k):
    """Per-block parity as a bitmask: bit j set iff the images of block j's
    three points fix exactly one of them."""
    mask = 0
    for j in range(k):
        lo = 3 * j
        a, b, c = p.images[lo], p.images[lo + 1], p.images[lo + 2]
        fixed = (a == lo) + (b == lo + 1) + (c == lo + 2)
        if fixed == 1:
            mask |= 1 << j
    return mask


def normalizer_blocks_by_loop(k, hgens):
    """The per-block checks of the S3 normalizer check on H generators
    `hgens` over k blocks, every block of every generator in turn: True,
    or the StructuralFormError of the first check that fails."""
    chosen = [None] * k
    for p in hgens:
        signs = block_sign_vector_by_blocks(p, k)
        for j in range(k):
            lo = 3 * j
            rest = tuple(p.images[lo + i] - lo for i in range(3))
            if rest == (0, 1, 2):
                continue
            if sorted(rest) != [0, 1, 2] or not signs >> j & 1:
                raise StructuralFormError(
                    f"subgroup restriction to block {j} is not an involution"
                )
            if chosen[j] is None:
                chosen[j] = rest
            elif chosen[j] != rest:
                raise StructuralFormError(
                    f"block {j} sees two distinct involutions; subgroup is not"
                    " inside a product of the chosen 2-Sylows"
                )
    if any(c is None for c in chosen):
        missing = [j for j, c in enumerate(chosen) if c is None]
        raise StructuralFormError(f"no subgroup generator hits blocks {missing}")
    return True


# -- homomorphisms and automorphisms ----------------------------------------


def as_homs(target, tuples):
    """The index tuples, as from `hom_tuples` or `epi_tuples`, wrapped as
    `FiniteHom`s over `target`, in their order."""
    return [FiniteHom.from_indices(target, idx) for idx in tuples]


def mod2_columns(auto):
    """Columns, as bitmasks over F2, of the map an automorphism induces on
    first mod-2 homology: bit i of column j is the parity of generator i+1
    in the image of generator j+1."""
    columns = []
    for word in auto.images:
        mask = 0
        for letter in word:
            mask ^= 1 << (abs(letter) - 1)
        columns.append(mask)
    return tuple(columns)
