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
|Aut| x |Q| table up front.  A conjugation column composes image tuples and
looks each conjugate up by its tuple.  `Permutation` stays the type at the
edges (cycle strings, product groups, coset sets) and is the independent
route: `FiniteHom.evaluate` composes the images' point tuples, never the
tables, and `autos.orbit` compares it with the table route on the seed of
every closure.

`canonical_key` reduces an index tuple modulo Aut(target) to the least of
its images: per coordinate, the least column entry over the automorphisms
that reached the previous minima.  The first coordinate's minimum and its
automorphisms come from a per-element memo on the target, so a closure
modulo Aut(target) scans whole columns only once per element.

Enumeration works on index tuples too.  `hom_tuples` descends over the
first g-1 handles and appends the last one from a per-product table of
tails: the pairs (x, y) whose commutator brings the product of the prefix
back to the identity.  A genus-g count then costs |Q|^(2g-2) prefix tuples
plus one tuple per homomorphism, instead of |Q|^(2g) full tuples.  The
independent check is the character count
|Hom| = |Q|^(2g-1) * sum over irreducible degrees d of d^(2-2g).

A homomorphism is surjective when the closure of its generator images under
multiplication is the whole target: `generates` on the index tuple.  The
closure lies inside the target, whose elements are listed anyway, so no
stabilizer chain is needed.  `epi_tuples` runs one closure per distinct image
set.  `enumerate_homs`, `epis_among` and `enumerate_epis` wrap the same
tuples in `FiniteHom`s; the `enumerate` command reads the tuples alone.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import groupby
from operator import itemgetter

from .budgets import DEFAULT
from .perm import EnumerationBoundExceeded, Permutation, mulclose
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
    automorphism images by element index, and `least_conjugate(x)` the
    least entry of x's column with the automorphisms that reach it.  Each
    is built for one element on its first use and memoized; neither the
    constructor nor `aut_reps` builds any of them.
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
        self._least = {}  # x -> (least entry of x's column, the t reaching it)
        # per aut_reps()[t], the lookup of t's images and the image tuple of
        # t^-1, with the element index by image tuple; built on first use
        self._aut_pairs = None
        self._by_images = None

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
                self._aut_pairs = [(t.images.__getitem__, t.inverse().images)
                                   for t in self.aut_reps()]
                self._by_images = {p.images: i
                                   for i, p in enumerate(self.elements)}
            index, p = self._by_images, self.elements[x].images.__getitem__
            # (t x t^-1)(i) = t(x(t^-1(i))), composed on image tuples
            column = self._conj[x] = tuple(
                index[tuple(map(t, map(p, ti)))] for t, ti in self._aut_pairs)
        return column

    def least_conjugate(self, x):
        """(m, survivors): m is the least index in `conj_column(x)` and
        survivors the tuple of the automorphism numbers t reaching it, the
        first coordinate of every canonical key that starts with x."""
        entry = self._least.get(x)
        if entry is None:
            column = self.conj_column(x)
            m = min(column)
            entry = self._least[x] = (
                m, tuple(t for t, y in enumerate(column) if y == m))
        return entry

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
        elems, [s, t], f"PSL2({p})",
        character_degrees=psl2_character_degrees(p),
        aut_rep_builder=pgl_reps,
    )


def psl2_character_degrees(p):
    """The irreducible character degrees of PSL2(p), p an odd prime, in
    ascending order: 1 and the Steinberg degree p, the principal series
    p+1 and the discrete series p-1, and two characters of degree (p+1)/2
    for p = 1 mod 4, or (p-1)/2 for p = 3 mod 4."""
    if p % 4 == 1:
        parts = ((p + 1, (p - 5) // 4), (p - 1, (p - 1) // 4),
                 ((p + 1) // 2, 2))
    else:
        parts = ((p + 1, (p - 3) // 4), (p - 1, (p - 3) // 4),
                 ((p - 1) // 2, 2))
    return tuple(sorted(
        [1, p] + [degree for degree, times in parts for _ in range(times)]))


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
    keeps; `evaluate` composes the images' point tuples and is the
    independent route that cross-checks it.  The hom is surjective when the
    closure of its images inside the target is the whole target."""

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
        right.  The permutation route, kept apart from the tables: it reads
        the generator images' point tuples, never the index tables, and
        composes them as `Permutation` products do, (r * p)(x) = r(p(x)),
        inverting a generator's tuple at an inverse letter.  Only the final
        tuple is wrapped as a `Permutation`, unvalidated, as a product of
        permutations is."""
        elements = self.target.elements
        images = [elements[i].images for i in self.idx]
        result = self.target.identity.images
        for letter in word:
            p = images[abs(letter) - 1]
            if letter < 0:
                inverse = [0] * len(p)
                for i, x in enumerate(p):
                    inverse[x] = i
                p = inverse
            result = tuple(map(result.__getitem__, p))
        return Permutation._trusted(result)

    def evaluate_index(self, word):
        """Element index of the image of a word, by table lookups."""
        return self.evaluate_indices((word,))[0]

    def evaluate_indices(self, words):
        """Element indices of the images of several words."""
        rows = self.letter_rows()
        e = self.target.identity_index
        out = []
        for word in words:
            r = e
            for letter in word:
                r = rows[letter][r]
            out.append(r)
        return out

    def letter_rows(self):
        """rows[letter] for letter in +-1..+-2g: the right-multiplication
        row of that letter's image, looked up once per hom, so the image of
        a word w + (x,) is rows[x][image of w].  Negative
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
        """Whether the images generate the target: `generates`."""
        return generates(self.target, self.idx)

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


def hom_tuples(genus, target, budget=DEFAULT.tuples):
    """All homomorphisms from the genus-g surface group to the target, each
    as the tuple of its generator images' element indices, in lexicographic
    order.

    The descent runs over the first g-1 handles.  The last handle is read
    from `tails[p]`, the pairs (x, y) in index order whose commutator is
    the inverse of the prefix product p, so each homomorphism costs one
    `prefix + tail`.  Enumeration reads every product, so it builds every
    right-multiplication row of the target: the whole |Q|^2 table, kept on
    the target like any row.  This is deliberate: `generates` on the listed
    tuples, and any evaluation after it, read the same rows."""
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
    # order, and the tails that close each product
    pairs = []
    tails = [[] for _ in range(n)]
    for x in range(n):
        for y in range(n):
            c = inv_rows[y][inv_rows[x][rows[y][x]]]
            pairs.append((x, y, c))
            tails[inv(c)].append((x, y))
    homs = []

    def descend(depth, prefix, product):
        if depth == genus - 2:
            for x, y, c in pairs:
                head = prefix + (x, y)
                homs.extend([head + tail for tail in tails[rows[c][product]]])
            return
        for x, y, c in pairs:
            descend(depth + 1, prefix + (x, y), rows[c][product])

    descend(0, (), target.identity_index)
    return homs


def generates(target, images):
    """Whether the elements indexed by `images` generate the target: the
    closure of the identity under right multiplication by them is all of
    it.  The closure stops once it holds more than half the target: a
    subgroup that large is the whole group, by Lagrange."""
    rows = [target.right(x) for x in set(images)]
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


def epi_tuples(target, tuples):
    """The index tuples among `tuples` whose images generate the target,
    in their order.

    Surjectivity depends only on the set of images, and each set is closed
    by `generates` at most once.  Runs of tuples that share all but their
    last two images, as `hom_tuples` lists them, are taken together: when
    the images of that head generate the target, every tuple under it is
    an epimorphism and none needs its own set.  Under any other head each
    tuple is looked up by its set.  So the 16038 genus-3 S3
    homomorphisms take 56 closures for their 63 image sets, and the
    286140 genus-2 A5 ones 28020 for their 55990."""
    onto = {}  # image set -> whether it generates the target

    def generated(images):
        answer = onto.get(images)
        if answer is None:
            answer = onto[images] = generates(target, images)
        return answer

    epis = []
    for head, run in groupby(tuples, itemgetter(slice(None, -2))):
        if generated(frozenset(head)):
            epis.extend(run)
        else:
            epis.extend(idx for idx in run if generated(frozenset(idx)))
    return epis


def enumerate_homs(genus, target, budget=DEFAULT.tuples):
    """The homomorphisms of `hom_tuples`, in its order, as `FiniteHom`s."""
    return [FiniteHom.from_indices(target, idx)
            for idx in hom_tuples(genus, target, budget)]


def epis_among(homs):
    """The surjective homomorphisms among `homs`, in their order:
    `epi_tuples` over the index tuples of each target's homs."""
    by_target = {}
    for h in homs:
        by_target.setdefault(h.target, []).append(h.idx)
    onto = {target: set(epi_tuples(target, tuples))
            for target, tuples in by_target.items()}
    return [h for h in homs if h.idx in onto[h.target]]


def enumerate_epis(genus, target, budget=DEFAULT.tuples):
    """The surjective homomorphisms of `hom_tuples`, in its order, as
    `FiniteHom`s."""
    return [FiniteHom.from_indices(target, idx)
            for idx in epi_tuples(target, hom_tuples(genus, target, budget))]


def count_homs_oracle(genus, target):
    """|Hom| by the character-degree sum; independent of enumeration."""
    if genus < 2:
        raise QuotientError(f"genus must be >= 2, got {genus}")
    if target.character_degrees is None:
        raise QuotientError(
            f"target {target.name} has no stored character-degree list"
        )
    # each term |Q|^(2g-1) / d^(2g-2) = |Q| * (|Q| / d)^(2g-2) is an
    # integer, since a character degree divides the group order
    total = 0
    for d in target.character_degrees:
        ratio, rest = divmod(target.order, d)
        if rest:
            raise QuotientError(
                f"character sum for {target.name} is not integral: degree"
                f" {d} does not divide the order {target.order}"
            )
        total += target.order * ratio ** (2 * genus - 2)
    return total


class BorelSubgroup(namedtuple("BorelSubgroup", "generators elements")):
    """The Borel subgroup B of one PSL2(F_p) factor: its two generators and
    its element set, a frozenset of permutations of the p+1 points."""

    __slots__ = ()


def borel_subgroup(p):
    """The upper-triangular subgroup of PSL2(F_p), generated by a translation
    and a scaling, both fixing the point at infinity (index p).  Its
    elements come from a closure, whose size must be p(p-1)/2, so B has
    index p+1."""
    target_psl2(p)  # rejects a p that is not a prime >= 5
    translation = psl2_matrix_perm((1, 1, 0, 1), p)
    u = _primitive_root(p)
    scaling = psl2_matrix_perm((u, 0, 0, pow(u, -1, p)), p)
    elements = frozenset(mulclose([translation, scaling], degree=p + 1))
    expected = p * (p - 1) // 2
    if len(elements) != expected:
        raise QuotientError(
            f"Borel subgroup order {len(elements)}, expected {expected}"
        )
    return BorelSubgroup((translation, scaling), elements)


def mod2_homology_hom(genus):
    """The map onto C2^(2g) sending the i-th generator to the i-th basis
    vector; its kernel is the mod-2 homology cover subgroup."""
    if genus < 2:
        raise QuotientError(f"genus must be >= 2, got {genus}")
    target = target_c2k(2 * genus)
    return FiniteHom(target, target.generators)


def canonical_key(target, idx):
    """The lexicographically least image of the index tuple `idx` under
    the stored automorphism realization: the key of its Aut(target)-class.

    The least tuple is found coordinate by coordinate, each coordinate
    keeping only the automorphisms that reach its least value; the first
    coordinate's minimum and survivors are read from the target's
    per-element memo.  The key is the list of those minima."""
    m, survivors = target.least_conjugate(idx[0])
    key = [m]
    conj_column = target.conj_column
    for x in idx[1:]:
        column = conj_column(x)
        if len(survivors) == 1:
            key.append(column[survivors[0]])
            continue
        best = min(map(column.__getitem__, survivors))
        survivors = [t for t in survivors if column[t] == best]
        key.append(best)
    return tuple(key)


def canonical_rep_mod_auts(hom):
    """The representative of the hom's Aut(target)-class: the hom whose
    images are `canonical_key(hom.target, hom.idx)`."""
    return FiniteHom.from_indices(hom.target,
                                  canonical_key(hom.target, hom.idx))
