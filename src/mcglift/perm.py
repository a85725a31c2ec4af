"""Permutations and brute-force closure.

Composition convention, used everywhere in this package:

    (p * q)(x) = p(q(x))        -- q acts first.

A `Permutation` is immutable and stored as its image tuple; products and
inverses of permutations skip the validation of the constructor.

`Permutation.from_blocks` builds every block-diagonal permutation (block j
is the points n*j ... n*j+n-1): product images, the S3 odd basis and sign
images, and the C2^k basis.

`mulclose` lists the group a few permutations generate, within a bound on
its size: the element lists of the quotient targets, the Borel subgroup of
one PSL2(F_p) factor, and pair images in Q x Q.  No stabilizer chain is
built anywhere in the package; orders of large groups come from the linear
routes and Hall's lemma in `forge`.
"""

from __future__ import annotations

import math
from itertools import chain
from operator import add

from .budgets import DEFAULT


class PermError(ValueError):
    pass


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


def two_part(n):
    """The largest power of 2 dividing n."""
    t = 1
    while n % 2 == 0:
        n //= 2
        t *= 2
    return t


def mulclose(generators, degree=None, bound=DEFAULT.enum):
    """The set of all products of `generators`, by brute-force closure;
    more than `bound` elements raises EnumerationBoundExceeded."""
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
