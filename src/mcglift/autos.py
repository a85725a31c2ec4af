"""Automorphisms of the surface group acting on finite-quotient homomorphisms.

An automorphism is stored by its images of the 2g standard generators, as
free words.  The standard generating set combines twist-type substitutions
along the handle curves, one twist along the separating-adjacent curve of
each consecutive handle pair, an orientation-type flip, and conjugations by
each generator.  Each generator carries an explicit inverse; compositions
are verified modulo the surface relation, not just freely.

Orbits of homomorphisms under precomposition are finite and computed by
breadth-first closure, the package's one closure engine.  It runs on index
tuples: each expanded member walks the distinct image words and relator
images of every generator direction through the target's multiplication
rows in one pass, images are keyed by their tuples (or their canonical
keys modulo target automorphisms), and only a newly admitted member is
wrapped as a `FiniteHom`.  `precompose` is the same evaluation for one
direction.  On the start of every closure, `orbit` checks the table route
against permutation products first.  As it expands each member, `orbit`
records the index of the member's image under every generator direction,
and returns that action table with the sorted members.
Closure of a member set under every generator (and inverse) is exactly what
makes the intersection of the member kernels invariant under those
automorphisms; `certify_characteristic` reads the table, without
precomposing again, and records the induced index permutations as evidence.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from operator import itemgetter

from .budgets import ORBIT_CAP
from .perm import EnumerationBoundExceeded
from .quotients import FiniteHom, RelatorViolation, canonical_key
from .words import (
    SurfacePresentation,
    _joined,
    format_word,
    free_reduce,
    inverse_word,
    surface_relator,
)


class AutError(ValueError):
    pass


@lru_cache(maxsize=None)
def _signed_letters(genus):
    """The letters ±1..±2g of the rank-2g free group, as a set."""
    return frozenset(chain(range(1, 2 * genus + 1), range(-2 * genus, 0)))


class SurfaceAuto:
    """An endomorphism of the rank-2g free group, recorded by generator
    images, intended to descend to the genus-g surface group."""

    __slots__ = ("genus", "images", "name", "_relator")

    def __init__(self, genus, images, name=""):
        images = tuple(tuple(w) for w in images)
        n = 2 * genus
        if len(images) != n:
            raise AutError(f"need {n} image words, got {len(images)}")
        if not _signed_letters(genus).issuperset(chain.from_iterable(images)):
            raise AutError(f"image letters must lie in +-1..+-{n}")
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_relator", None)

    def __setattr__(self, name, value):
        raise AttributeError("SurfaceAuto is immutable")

    def apply_letter(self, letter):
        if letter > 0:
            return self.images[letter - 1]
        return inverse_word(self.images[-letter - 1])

    def apply_word(self, word):
        out = []
        for letter in word:
            out.extend(self.apply_letter(letter))
        return free_reduce(out)

    def compose(self, other):
        """self after other: generator images of other, pushed through self."""
        if self.genus != other.genus:
            raise AutError("genus mismatch in composition")
        images = [self.apply_word(w) for w in other.images]
        return SurfaceAuto(
            self.genus, images, name=f"{self.name}*{other.name}"
        )

    def relator_image(self):
        """The reduced image of the surface relator, computed once."""
        if self._relator is None:
            object.__setattr__(self, "_relator",
                               self.apply_word(surface_relator(self.genus)))
        return self._relator

    def preserves_relator(self, presentation=None):
        """True when the relator maps to a trivial word of the surface group,
        i.e. into the normal closure of the relator: the descent condition."""
        if presentation is None:
            presentation = SurfacePresentation(self.genus)
        return presentation.is_trivial(self.relator_image())

    def mod2_matrix(self):
        """Columns (as bitmasks over F2) of the induced map on first mod-2
        homology; bit i of column j is the parity of generator i+1 in the
        image of generator j+1."""
        cols = []
        for w in self.images:
            mask = 0
            for letter in w:
                mask ^= 1 << (abs(letter) - 1)
            cols.append(mask)
        return tuple(cols)

    def fixes_generators(self, presentation):
        return all(
            presentation.words_equal(self.images[i], ((i + 1),))
            for i in range(2 * self.genus)
        )

    def __eq__(self, other):
        return (
            isinstance(other, SurfaceAuto)
            and self.genus == other.genus
            and self.images == other.images
        )

    def __hash__(self):
        return hash((self.genus, self.images))

    def __repr__(self):
        parts = ", ".join(format_word(w) for w in self.images)
        return f"SurfaceAuto({self.name or 'unnamed'}: {parts})"


@dataclass(frozen=True)
class AutGen:
    """A named automorphism generator with its explicit inverse."""

    name: str
    forward: SurfaceAuto
    backward: SurfaceAuto

    @property
    def genus(self):
        return self.forward.genus

    def directions(self):
        return ((self.name, self.forward), (self.name + "~", self.backward))


def identity_auto(genus, name="id"):
    return SurfaceAuto(genus, [(i + 1,) for i in range(2 * genus)], name=name)


def inner_auto(genus, word, name=None):
    """Conjugation x -> w x w^-1 by a fixed word.  The word is reduced
    once; each image joins it, x and w^-1 at their two junctions, the only
    places where the reduced word w can cancel."""
    word = free_reduce(word)
    inverse = inverse_word(word)
    images = [_joined(_joined(word, (x,)), inverse)
              for x in range(1, 2 * genus + 1)]
    if name is None:
        name = f"inn[{format_word(word)}]"
    return SurfaceAuto(genus, images, name=name)


def _single_image_auto(genus, letter, image, name):
    images = [(i + 1,) for i in range(2 * genus)]
    images[letter - 1] = tuple(image)
    return SurfaceAuto(genus, images, name=name)


def _neck_words(i):
    """Insertion words for the twist separating handles i and i+1 (1-based).

    Derived from the side-pairing reading of a simple closed curve crossing
    the a_i and a_(i+1) edge pairs of the 4g-gon once each.
    """
    ai, bi = 2 * i - 1, 2 * i
    aj, bj = 2 * i + 1, 2 * i + 2
    w_lo = (-bi, aj, -bj, -aj, bi, ai, -bi, -ai)
    w_hi = (aj, -bj, -aj, bi, ai, -bi, -ai, -bi)
    return w_lo, w_hi


def _neck_auto(genus, i, invert, name):
    w_lo, w_hi = _neck_words(i)
    if invert:
        w_lo, w_hi = inverse_word(w_lo), inverse_word(w_hi)
    ai, aj = 2 * i - 1, 2 * i + 1
    images = [(x + 1,) for x in range(2 * genus)]
    images[ai - 1] = free_reduce(w_lo + (ai,))
    images[aj - 1] = free_reduce(w_hi + (aj,))
    return SurfaceAuto(genus, images, name=name)


def _flip_auto(genus):
    images = [None] * (2 * genus)
    for i in range(1, genus + 1):
        j = genus + 1 - i
        images[2 * i - 2] = (2 * j,)      # a_i -> b_j
        images[2 * i - 1] = (2 * j - 1,)  # b_i -> a_j
    return SurfaceAuto(genus, images, name="flip")


def standard_autgens(genus):
    """The standard generator list: a-twists, b-twists, neck twists, the
    flip, and conjugations by each generator.  Deterministic order.

    The generators are built once per genus and shared: every call returns
    a new list of the same frozen `AutGen`s, so a caller may change its
    list, and each automorphism's relator image is reduced only once."""
    if genus < 2:
        raise AutError(f"genus must be >= 2, got {genus}")
    return list(_standard_autgens(genus))


@lru_cache(maxsize=None)
def _standard_autgens(genus):
    gens = []
    for i in range(1, genus + 1):
        ai, bi = 2 * i - 1, 2 * i
        gens.append(AutGen(
            f"ta{i}",
            _single_image_auto(genus, bi, (bi, ai), f"ta{i}"),
            _single_image_auto(genus, bi, (bi, -ai), f"ta{i}~"),
        ))
    for i in range(1, genus + 1):
        ai, bi = 2 * i - 1, 2 * i
        gens.append(AutGen(
            f"tb{i}",
            _single_image_auto(genus, ai, (ai, bi), f"tb{i}"),
            _single_image_auto(genus, ai, (ai, -bi), f"tb{i}~"),
        ))
    for i in range(1, genus):
        gens.append(AutGen(
            f"neck{i}",
            _neck_auto(genus, i, False, f"neck{i}"),
            _neck_auto(genus, i, True, f"neck{i}~"),
        ))
    flip = _flip_auto(genus)
    gens.append(AutGen("flip", flip, flip))
    for x in range(1, 2 * genus + 1):
        label = format_word((x,))
        gens.append(AutGen(
            f"inn-{label}",
            inner_auto(genus, (x,), f"inn-{label}"),
            inner_auto(genus, (-x,), f"inn-{label}~"),
        ))
    return tuple(gens)


def _program(genus, autos):
    """What `_images_under` evaluates for `autos`, which must all have the
    genus `genus` (AutError otherwise): the distinct words among each
    one's 2g image words and its relator image, a getter that spreads
    their values back out to the 2g image slots of each auto in turn, and
    the place of each distinct relator image with the first auto that has
    it."""
    if any(auto.genus != genus for auto in autos):
        raise AutError("genus mismatch between hom and automorphism")
    where = {}  # word -> its place among the distinct words
    slots = []
    relators = {}
    for auto in autos:
        slots += [where.setdefault(w, len(where)) for w in auto.images]
        place = where.setdefault(auto.relator_image(), len(where))
        relators.setdefault(place, auto)
    return tuple(where), itemgetter(*slots), relators


def _images_under(hom, program):
    """The index tuples of hom∘auto for each auto of `program` =
    `_program(hom.genus, autos)`, in order, from one evaluation of its
    words; raises RelatorViolation, naming the first such auto, when hom
    does not kill an auto's relator image."""
    words, spread, relators = program
    values = hom.evaluate_indices(words)
    e = hom.target.identity_index
    for place, auto in relators.items():
        if values[place] != e:
            raise RelatorViolation(
                f"{auto.name or 'the automorphism'} breaks the surface"
                " relation")
    values = spread(values)
    n = len(hom.idx)
    return [values[i:i + n] for i in range(0, len(values), n)]


def precompose(hom, auto):
    """The homomorphism hom∘auto, by table lookups: the one-direction case
    of the evaluation `orbit` runs for every direction at once.  Its
    relator image is hom(auto(relator)), read through the same rows as its
    generator images; raises RelatorViolation for a broken auto."""
    [idx] = _images_under(hom, _program(hom.genus, [auto]))
    return FiniteHom.from_indices(hom.target, idx)


@dataclass(frozen=True)
class OrbitRecord:
    """Closure of one homomorphism under the generator set, sorted.

    `action[label][i]` is the index of the image of member i under that
    generator direction, None for a member never expanded.  `complete` is
    False when `stop_at` ended the closure: its table then certifies
    nothing."""

    genus: int
    members: tuple
    generator_names: tuple
    mod_target_auts: bool
    action: dict
    complete: bool

    @property
    def k(self):
        return len(self.members)


def orbit(seed, gens=None, mod_target_auts=False, cap=ORBIT_CAP,
          stop_at=None):
    """Breadth-first closure of the seed hom under precomposition by every
    generator and inverse, optionally reduced modulo target automorphisms,
    recording the action of every direction on the members.

    The closure runs on index tuples.  Each expanded member evaluates the
    image words and relator images of every direction in one pass, as
    `precompose` does for one; an image is reduced to its
    `canonical_key` when `mod_target_auts` is set, and only an image not
    seen before is wrapped as a `FiniteHom`.  A generator of another genus
    raises AutError before anything is evaluated, and a direction that
    breaks the surface relation raises RelatorViolation.

    At most `cap` members are admitted.  With `stop_at`, the closure
    finishes the level in which the member count reaches it and stops
    there, flagged incomplete even if that level was the last.  Before
    expanding, the start member's images under every direction are read
    both from the tables and from permutation products; a disagreement
    raises RuntimeError."""
    if gens is None:
        gens = standard_autgens(seed.genus)
    directions = [d for gen in gens for d in gen.directions()]
    program = _program(seed.genus, [auto for _, auto in directions])
    target = seed.target
    if mod_target_auts:
        start = FiniteHom.from_indices(target,
                                       canonical_key(target, seed.idx))
    else:
        start = seed
    _check_tables_on(start, directions)
    found = [start]  # members in insertion order, which is expansion order
    seen = {start.idx: 0}  # index tuple -> insertion number
    rows = [[] for _ in directions]
    expanded = 0
    stopped = False
    while expanded < len(found) and not stopped:
        level = found[expanded:]
        expanded = len(found)
        for member in level:
            images = _images_under(member, program)
            for row, key in zip(rows, images):
                if mod_target_auts:
                    key = canonical_key(target, key)
                j = seen.get(key)
                if j is None:
                    if len(seen) >= cap:
                        raise EnumerationBoundExceeded(
                            f"orbit closure exceeded cap {cap}")
                    j = seen[key] = len(found)
                    found.append(FiniteHom.from_indices(target, key))
                    stopped = stop_at is not None and len(found) >= stop_at
                row.append(j)
    order = [i for _, i in sorted(seen.items())]
    rank = sorted(range(len(order)), key=order.__getitem__)  # i -> position
    action = {
        label: tuple(rank[row[i]] if i < expanded else None for i in order)
        for (label, _), row in zip(directions, rows)
    }
    return OrbitRecord(
        genus=seed.genus,
        members=tuple(found[i] for i in order),
        generator_names=tuple(g.name for g in gens),
        mod_target_auts=mod_target_auts,
        action=action,
        complete=not stopped,
    )


def _check_tables_on(hom, directions):
    """The second route: the image of `hom` under every direction, from
    permutation products, must equal the table result."""
    index = hom.target.element_index
    for label, auto in directions:
        by_perm = [index[hom.evaluate(w)] for w in auto.images]
        if by_perm != hom.evaluate_indices(auto.images):
            raise RuntimeError(
                f"table and permutation images of the seed under {label}"
                " disagree")


def certify_characteristic(record, members):
    """Check the member set, a sub-list of `record.members`, is closed under
    every generator direction, reading the record's action table.

    Returns a dict: pass flag, the index permutation induced by each
    generator direction (the evidence), and for every member a witness pair
    (direction label, source index) showing deletion of that member breaks
    closure.  On failure: the offending (direction, member index, image key).
    """
    if not record.complete:
        raise AutError("the orbit closure stopped early; its action table"
                       " cannot certify closure")
    where = {h.key(): j for j, h in enumerate(record.members)}
    sources = [where.get(h.key()) for h in members]  # indices in the record
    if None in sources:
        raise AutError("member is not in the orbit record")
    index = {j: i for i, j in enumerate(sources)}
    if len(index) != len(sources):
        raise AutError("duplicate members in characteristic certification")
    permutations = {}
    for label, row in record.action.items():
        images = []
        for i, j in enumerate(sources):
            if row[j] not in index:
                return {"pass": False, "failure": {
                    "direction": label, "member": i,
                    "escaped_to": record.members[row[j]].key()}}
            images.append(index[row[j]])
        if sorted(images) != list(range(len(sources))):
            return {"pass": False, "failure": {
                "direction": label, "member": None,
                "escaped_to": "not a bijection"}}
        permutations[label] = tuple(images)
    preimages = {}  # label -> the inverse of its bijection
    for label, perm in permutations.items():
        inverse = preimages[label] = [0] * len(perm)
        for i, j in enumerate(perm):
            inverse[j] = i
    witnesses = {}
    for m in range(len(sources)):
        for label, inverse in preimages.items():
            if inverse[m] != m:
                witnesses[m] = (label, inverse[m])
                break
    return {
        "pass": True,
        "size": len(sources),
        "permutations": permutations,
        "deletion_witnesses": witnesses,
    }

