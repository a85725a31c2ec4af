"""Finite quotient targets of surface groups and their homomorphism sets.

Targets are concrete permutation groups: S3 on 3 points, C2 on 2 points, A5
on 5 points, PSL2(F_p) on the p+1 points of the projective line, elementary
abelian 2-groups on paired points, and the trivial group.  A homomorphism
from the genus-g surface group is a 2g-tuple of target elements whose product
of commutators is the identity.

Inside the hot loops a target element is its index in the target's sorted
element list, and a homomorphism is the tuple of its images' indices.
Products, inverses and conjugates are then table lookups.  The tables are
built one row or column at a time, for an element the first time it is
used, and kept on the target; a target never builds a whole |Q|^2 or
|Aut| x |Q| table up front.  `Permutation` stays the type at the edges
(cycle strings, product groups, coset sets) and is the independent route:
`FiniteHom.evaluate` multiplies permutations, and `autos.orbit` compares it
with the table route on the seed of every closure.

Enumeration splits off the last handle: the commutator map is tabulated once
per target, so a genus-g count costs |Q|^(2g-2) prefix tuples plus lookups
instead of |Q|^(2g) full tuples.  The independent check is the character
count |Hom| = |Q|^(2g-1) * sum over irreducible degrees d of d^(2-2g).

A homomorphism is surjective when the closure of its generator images under
multiplication is the whole target.  The closure lies inside the target,
whose elements are listed anyway, so no stabilizer chain is needed.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .budgets import DEFAULT
from .perm import (
    EnumerationBoundExceeded,
    PermGroup,
    Permutation,
    mulclose,
    subgroup_witness,
)
from .words import surface_relator


class QuotientError(ValueError):
    pass


class RelatorViolation(QuotientError):
    """The proposed images do not kill the surface relator."""


class FiniteTarget:
    """A finite group realized by permutations, with deterministic element order.

    `elements` is sorted by image tuples, which fixes element indices for
    enumeration order.  `character_degrees` is set for the targets whose
    irreducible degree lists the counting oracle knows.

    `right(x)`, `inv(x)` and `conj_column(x)` answer products, inverses and
    automorphism images by element index.  Each is built for one element on
    its first use and memoized; neither the constructor nor `aut_reps`
    builds any of them.
    """

    def __init__(self, elements, generators, name, character_degrees=None,
                 aut_rep_builder=None):
        self.elements = tuple(sorted(elements))
        self.generators = tuple(generators)
        self.name = name
        self.character_degrees = character_degrees
        self.degree = self.elements[0].degree
        self.order = len(self.elements)
        self.element_index = {p: i for i, p in enumerate(self.elements)}
        self.identity = Permutation.identity(self.degree)
        self.identity_index = self.element_index[self.identity]
        self._aut_rep_builder = aut_rep_builder
        self._aut_reps = None
        self._right = {}  # x -> row r -> index of elements[r] * elements[x]
        self._inv = {}  # x -> index of elements[x]^-1
        self._conj = {}  # x -> column t -> index of a x a^-1, a = aut_reps[t]
        self._aut_pairs = None  # (t, t^-1) for t in aut_reps(), on first use

    def aut_reps(self):
        """Permutations whose conjugation action realizes Aut(target)."""
        if self._aut_reps is None:
            if self._aut_rep_builder is None:
                raise QuotientError(
                    f"no automorphism realization stored for target {self.name}"
                )
            self._aut_reps = tuple(sorted(self._aut_rep_builder()))
        return self._aut_reps

    def right(self, x):
        """Right multiplication by element x: row[r] is the index of
        elements[r] * elements[x]."""
        row = self._right.get(x)
        if row is None:
            index, p = self.element_index, self.elements[x]
            row = self._right[x] = tuple(index[e * p] for e in self.elements)
        return row

    def inv(self, x):
        """The index of the inverse of element x."""
        i = self._inv.get(x)
        if i is None:
            i = self._inv[x] = self.element_index[self.elements[x].inverse()]
        return i

    def conj_column(self, x):
        """Element x under every stored automorphism: column[t] is the index
        of aut_reps()[t] * elements[x] * aut_reps()[t]^-1."""
        column = self._conj.get(x)
        if column is None:
            if self._aut_pairs is None:
                self._aut_pairs = [(t, t.inverse()) for t in self.aut_reps()]
            index, p = self.element_index, self.elements[x]
            column = self._conj[x] = tuple(
                index[t * p * ti] for t, ti in self._aut_pairs)
        return column

    def __repr__(self):
        return f"FiniteTarget({self.name}, order={self.order})"


@lru_cache(maxsize=None)
def target_trivial():
    e = Permutation.identity(1)
    return FiniteTarget([e], [], "1", character_degrees=(1,))


@lru_cache(maxsize=None)
def target_c2():
    flip = Permutation([1, 0])
    return FiniteTarget(
        [Permutation.identity(2), flip], [flip], "C2",
        character_degrees=(1, 1),
        aut_rep_builder=lambda: [Permutation.identity(2)],
    )


@lru_cache(maxsize=None)
def target_s3():
    gens = [Permutation([1, 0, 2]), Permutation([1, 2, 0])]
    elems = mulclose(gens, degree=3)
    assert len(elems) == 6
    return FiniteTarget(
        elems, gens, "S3",
        character_degrees=(1, 1, 2),
        aut_rep_builder=lambda: sorted(mulclose(gens, degree=3)),
    )


@lru_cache(maxsize=None)
def target_a5():
    gens = [Permutation([1, 2, 3, 4, 0]), Permutation([1, 2, 0, 3, 4])]
    elems = mulclose(gens, degree=5)
    assert len(elems) == 60
    return FiniteTarget(
        elems, gens, "A5",
        character_degrees=(1, 3, 3, 4, 5),
        aut_rep_builder=lambda: sorted(
            mulclose(gens + [Permutation([1, 0, 2, 3, 4])], degree=5)
        ),
    )


@lru_cache(maxsize=None)
def target_c2k(k):
    """Elementary abelian C2^k on 2k points; basis vector i swaps 2i, 2i+1."""
    if not 1 <= k <= 20:
        raise QuotientError(f"c2^k supported for 1 <= k <= 20, got {k}")
    basis = [Permutation.from_blocks([(1, 0) if j == i else (0, 1)
                                      for j in range(k)])
             for i in range(k)]
    elems = mulclose(basis, degree=2 * k, bound=2**21)
    return FiniteTarget(
        elems, basis, f"C2^{k}",
        character_degrees=(1,) * (2**k),
    )


def _is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def psl2_matrix_perm(mat, p):
    """The permutation of P1(F_p) induced by a matrix [[a,b],[c,d]]."""
    a, b, c, d = (x % p for x in mat)
    if (a * d - b * c) % p == 0:
        raise QuotientError("singular matrix")
    images = []
    for x in range(p):
        num, den = (a * x + b) % p, (c * x + d) % p
        images.append((num * pow(den, -1, p)) % p if den else p)
    images.append((a * pow(c, -1, p)) % p if c else p)
    return Permutation(images)


def _smallest_nonsquare(p):
    squares = {pow(x, 2, p) for x in range(1, p)}
    for u in range(2, p):
        if u not in squares:
            return u
    raise QuotientError(f"no nonsquare mod {p}")


def _primitive_root(p):
    for u in range(2, p):
        x, n = u, 1
        while x != 1:
            x = x * u % p
            n += 1
        if n == p - 1:
            return u
    raise QuotientError(f"no primitive root mod {p}")


@lru_cache(maxsize=None)
def target_psl2(p):
    if not _is_prime(p) or p < 5:
        raise QuotientError(f"psl2 requires a prime p >= 5, got {p}")
    s = psl2_matrix_perm((0, -1, 1, 0), p)
    t = psl2_matrix_perm((1, 1, 0, 1), p)
    elems = mulclose([s, t], degree=p + 1, bound=2 * 10**6)
    expected = p * (p * p - 1) // 2
    assert len(elems) == expected, (len(elems), expected)

    def pgl_reps():
        u = _smallest_nonsquare(p)
        m = psl2_matrix_perm((u, 0, 0, 1), p)
        reps = mulclose([s, t, m], degree=p + 1, bound=4 * 10**6)
        assert len(reps) == p * (p * p - 1)
        return sorted(reps)

    return FiniteTarget(
        elems, [s, t], f"PSL2({p})", aut_rep_builder=pgl_reps,
    )


def get_target(tag, prime=None):
    """Resolve a CLI-style target tag to a FiniteTarget."""
    if tag == "s3":
        return target_s3()
    if tag == "c2":
        return target_c2()
    if tag == "a5":
        return target_a5()
    if tag == "psl2":
        if prime is None:
            raise QuotientError("psl2 target needs a prime")
        return target_psl2(prime)
    raise QuotientError(f"unknown target {tag!r}")


class FiniteHom:
    """A homomorphism from the genus-g surface group to a finite target.

    Its state is the target and `idx`, the 2g-tuple of the element indices
    of the generator images; `images` gives the images as permutations.
    Sorting by `idx` is sorting by image tuples, since the target's elements
    are sorted that way.  `evaluate_index` walks a word through the
    target's right-multiplication rows, which the hom looks up once and
    keeps; `evaluate` multiplies permutations and is the independent route
    that cross-checks it.  The hom is surjective when the closure of its
    images inside the target is the whole target."""

    __slots__ = ("target", "idx", "_rows")

    def __init__(self, target, images):
        index = target.element_index
        idx = tuple(index.get(p) for p in images)
        if None in idx:
            raise QuotientError("image is not a target element")
        if len(idx) % 2 or not idx:
            raise QuotientError("images must be a 2g-tuple")
        self._set(target, idx)
        if (self.evaluate_index(surface_relator(self.genus))
                != target.identity_index):
            raise RelatorViolation(
                "generator images do not satisfy the surface relation"
            )

    @classmethod
    def from_indices(cls, target, idx):
        """The hom whose generator images are the elements `idx` indexes.
        Trusted: the indices come from the tables, so neither their range
        nor the relator is checked; outside input goes through
        `FiniteHom(target, images)`."""
        hom = object.__new__(cls)
        hom._set(target, tuple(idx))
        return hom

    def _set(self, target, idx):
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "idx", idx)
        object.__setattr__(self, "_rows", None)

    def __setattr__(self, name, value):
        raise AttributeError("FiniteHom is immutable")

    @property
    def genus(self):
        return len(self.idx) // 2

    @property
    def images(self):
        elements = self.target.elements
        return tuple(elements[i] for i in self.idx)

    def evaluate(self, word):
        """Image of a word, as a permutation; letters multiply left to
        right.  The permutation route, kept apart from the tables."""
        result = self.target.identity
        images = self.images
        for letter in word:
            p = images[abs(letter) - 1]
            if letter < 0:
                p = p.inverse()
            result = result * p
        return result

    def evaluate_index(self, word):
        """Element index of the image of a word, by table lookups."""
        return self.evaluate_indices((word,))[0]

    def evaluate_indices(self, words):
        """Element indices of the images of several words."""
        rows = self._letter_rows()
        e = self.target.identity_index
        out = []
        for word in words:
            r = e
            for letter in word:
                r = rows[letter][r]
            out.append(r)
        return out

    def _letter_rows(self):
        """rows[letter] for letter in +-1..+-2g: the right-multiplication
        row of that letter's image, looked up once per hom.  Negative
        letters index from the end, where the inverse rows sit in reverse
        order, so a letter outside +-1..+-2g would read a wrong row:
        `SurfaceAuto` rejects such letters when it is built."""
        if self._rows is None:
            right, inv = self.target.right, self.target.inv
            rows = ([None] + [right(x) for x in self.idx]
                    + [right(inv(x)) for x in reversed(self.idx)])
            object.__setattr__(self, "_rows", rows)
        return self._rows

    def is_surjective(self):
        """Whether the closure of the images inside the target is all of
        it.  The closure stops once it holds more than half the target: a
        subgroup that large is the whole group, by Lagrange."""
        target = self.target
        rows = [target.right(x) for x in set(self.idx)]
        seen = bytearray(target.order)
        seen[target.identity_index] = 1
        frontier = [target.identity_index]
        count = 1
        while 2 * count <= target.order:
            if not frontier:
                return False
            nxt = []
            for r in frontier:
                for row in rows:
                    y = row[r]
                    if not seen[y]:
                        seen[y] = 1
                        nxt.append(y)
            count += len(nxt)
            frontier = nxt
        return True

    def key(self):
        return self.idx

    def __eq__(self, other):
        return (
            isinstance(other, FiniteHom)
            and self.target is other.target
            and self.idx == other.idx
        )

    def __hash__(self):
        return hash((id(self.target), self.idx))

    def __repr__(self):
        imgs = ", ".join(p.cycle_string() for p in self.images)
        return f"FiniteHom({self.target.name}; {imgs})"


def enumerate_homs(genus, target, budget=DEFAULT.tuples):
    """All homomorphisms from the genus-g surface group to the target,
    ordered lexicographically by element indices.

    Enumeration reads every product, so it builds every right-multiplication
    row of the target: the whole |Q|^2 table, kept on the target like any
    row.  This is deliberate: `is_surjective` on the listed homs, and any
    evaluation after it, read the same rows."""
    if genus < 2:
        raise QuotientError(f"genus must be >= 2, got {genus}")
    if target.order ** (2 * genus) > budget:
        raise EnumerationBoundExceeded(
            f"{target.order}^{2 * genus} tuples exceed budget {budget}"
        )
    n, inv = target.order, target.inv
    rows = [target.right(y) for y in range(n)]
    inv_rows = [rows[inv(y)] for y in range(n)]
    # every ordered pair (x, y) with its commutator x y x^-1 y^-1, in index
    # order, and the pairs grouped by commutator
    pairs = []
    by_comm = {}
    for x in range(n):
        for y in range(n):
            c = inv_rows[y][inv_rows[x][rows[y][x]]]
            by_comm.setdefault(c, []).append((x, y))
            pairs.append((x, y, c))
    homs = []

    def descend(depth, prefix, product):
        if depth == genus - 1:
            for x, y in by_comm.get(inv(product), ()):
                homs.append(FiniteHom.from_indices(target, prefix + (x, y)))
            return
        for x, y, c in pairs:
            descend(depth + 1, prefix + (x, y), rows[c][product])

    descend(0, (), target.identity_index)
    return homs


def enumerate_epis(genus, target, budget=DEFAULT.tuples):
    return [h for h in enumerate_homs(genus, target, budget) if h.is_surjective()]


def count_homs_oracle(genus, target):
    """|Hom| by the character-degree sum; independent of enumeration."""
    if genus < 2:
        raise QuotientError(f"genus must be >= 2, got {genus}")
    if target.character_degrees is None:
        raise QuotientError(
            f"target {target.name} has no stored character-degree list"
        )
    total = Fraction(0)
    for d in target.character_degrees:
        total += Fraction(1, d ** (2 * genus - 2))
    value = Fraction(target.order ** (2 * genus - 1)) * total
    if value.denominator != 1:
        raise QuotientError(
            f"character sum for {target.name} is not integral: {value}"
        )
    return int(value)


def borel_subgroup(p):
    """The upper-triangular (point-stabilizer) subgroup of PSL2(F_p), as a
    SubgroupWitness with exact index p+1 and order p(p-1)/2."""
    target = target_psl2(p)
    translation = psl2_matrix_perm((1, 1, 0, 1), p)
    u = _primitive_root(p)
    scaling = psl2_matrix_perm((u, 0, 0, pow(u, -1, p)), p)
    ambient = PermGroup(list(target.generators), degree=p + 1)
    sub = PermGroup([translation, scaling], degree=p + 1)
    expected = p * (p - 1) // 2
    if sub.order != expected:
        raise QuotientError(
            f"Borel subgroup order {sub.order}, expected {expected}"
        )
    witness = subgroup_witness(ambient, sub)
    assert witness.index == p + 1
    return witness


def mod2_homology_hom(genus):
    """The map onto C2^(2g) sending the i-th generator to the i-th basis
    vector; its kernel is the mod-2 homology cover subgroup."""
    if genus < 2:
        raise QuotientError(f"genus must be >= 2, got {genus}")
    target = target_c2k(2 * genus)
    return FiniteHom(target, target.generators)


def canonical_rep_mod_auts(hom):
    """Lexicographically least image of the hom under the stored
    automorphism realization; the representative of its Aut(target)-class.

    The least tuple is found coordinate by coordinate: each coordinate keeps
    only the automorphisms that reach its least value."""
    target = hom.target
    survivors = range(len(target.aut_reps()))
    for x in hom.idx:
        column = target.conj_column(x)
        best = min(column[t] for t in survivors)
        survivors = [t for t in survivors if column[t] == best]
    t = survivors[0]
    return FiniteHom.from_indices(
        target, tuple(target.conj_column(x)[t] for x in hom.idx))
