"""Coset tables, Reidemeister-Schreier generators, and induced automorphisms.

A finite-index subgroup of the surface group is realized as the kernel of
a homomorphism onto a finite quotient.  The surface group acts on the left
cosets, which are the quotient's elements.  `CosetTable` holds everything
this module knows about one such subgroup, built once in its constructor
from one evaluation of the action per signed letter and coset:

- a breadth-first spanning tree, relabeling the cosets in search order
  and giving one transversal word per coset;
- the Schreier generators, one per non-tree table entry in (coset,
  letter) order — 2g·d − (d−1) of them, a free generating set since the
  subgroup is itself a surface group of genus d(g−1)+1;
- the step table: for each signed letter and coset, the next coset and
  the signed Schreier generator crossed (0 on a tree entry), so rewriting
  is one lookup per letter with free reduction done on the fly.

For a subgroup invariant under an automorphism φ, restriction pushes the
transversal through φ once (Holt–Eick–O'Brien, Handbook of Computational
Group Theory, 2005): walking φ(t_c) through the step table for each coset
c, as its tree parent's walk followed by the image of one letter, gives
the coset σ(c) = φ(t_c)·H and the reduced generator word met on the way.
The Schreier generator t_{x·c}^-1 · x · t_c then maps to the walk of
φ(t_c), continued by the image of x, followed by the inverse of the walk
of φ(t_{x·c}), so each automorphism costs one image-letter walk per table
entry and no image word is built.  Expansion of a rewritten word
telescopes back to the original word reduced, so round-trip identities
hold freely; equalities involving genuinely different words go through
the Dehn word-problem engine.
"""

from __future__ import annotations

from dataclasses import dataclass

from .autos import (
    certify_characteristic,
    inner_auto,
    orbit,
    standard_autgens,
)
from .quotients import FiniteHom, mod2_homology_hom, target_c2
from .words import (
    SurfacePresentation,
    format_word,
    free_reduce,
    inverse_word,
    surface_relator,
)


class CosetError(ValueError):
    pass


class CosetEscape(CosetError):
    """A word expected to lie in the subgroup moved coset 0."""

    def __init__(self, message, coset):
        super().__init__(message)
        self.coset = coset


class CharacteristicViolation(CosetError):
    """An automorphism claimed to preserve the subgroup did not."""


class CosetTable:
    """The kernel of a surjective `hom` as a coset table: the left-coset
    action of the 2g generators on its d cosets, its transversal and its
    Schreier generators.

    Coset 0 is the subgroup itself; `schreier_reps[c]` is a word carrying
    coset 0 to coset c (so reps[0] is empty).  `pairs[i]` = (coset c,
    generator letter x) is the i-th non-tree table entry, and `words[i]`
    its Schreier generator t_{x·c}^-1 · x · t_c as a reduced surface
    word, labelled y(i+1).  `steps[letter][c]` is (next coset, emitted
    letter) for each of the 4g signed letters and d cosets: reading
    `letter` at coset c moves to the next coset and emits the signed
    Schreier generator of the entry it crosses, or 0 on a spanning-tree
    entry.  Reading x then x^-1 from any coset emits e then -e (or
    nothing), so walking an unreduced word and reducing the emitted
    letters as they come gives the same result as walking its free
    reduction.

    A hom that is not surjective leaves the action intransitive; that, a
    relator moving a coset, a wrong Schreier generator count or a
    Schreier word outside the subgroup raises CosetError.
    """

    def __init__(self, hom):
        self.genus = genus = hom.genus
        self.d = d = hom.target.order
        inv, right = hom.target.inv, hom.target.right
        letters = [letter for x in range(1, 2 * genus + 1)
                   for letter in (x, -x)]
        # img * p, read as (p^-1 * img^-1)^-1: only the rows of the
        # generator images and their inverses are needed
        rows = {letter: right(inv(hom.idx[letter - 1]) if letter > 0
                              else hom.idx[-letter - 1])
                for letter in letters}

        # breadth-first relabeling from the subgroup coset; moves[letter][c]
        # is the target index the letter carries coset c to
        index = {hom.target.identity_index: 0}
        order = [hom.target.identity_index]
        reps = [()]
        tree = set()
        moves = {letter: [] for letter in letters}
        for c, point in enumerate(order):  # order grows as the search runs
            point_inv = inv(point)
            for letter in letters:
                image = inv(rows[letter][point_inv])
                moves[letter].append(image)
                if image not in index:
                    index[image] = len(order)
                    order.append(image)
                    reps.append(free_reduce((letter,) + reps[c]))
                    tree.add((c, letter) if letter > 0
                             else (len(order) - 1, -letter))
        if len(order) != d:
            raise CosetError(
                f"action is intransitive: reached {len(order)} of {d}"
            )
        moves = {letter: [index[p] for p in images]
                 for letter, images in moves.items()}
        self.schreier_reps = tuple(reps)

        pairs = []
        words = []
        numbers = {}
        for c in range(d):
            for x in range(1, 2 * genus + 1):
                if (c, x) not in tree:
                    pairs.append((c, x))
                    numbers[c, x] = len(pairs)
                    words.append(free_reduce(
                        inverse_word(reps[moves[x][c]]) + (x,) + reps[c]))
        self.pairs = tuple(pairs)
        self.words = tuple(words)
        self.steps = {}
        for x in range(1, 2 * genus + 1):
            self.steps[x] = tuple((up, numbers.get((c, x), 0))
                                  for c, up in enumerate(moves[x]))
            self.steps[-x] = tuple((down, -numbers.get((down, x), 0))
                                   for down in moves[-x])

        relator = surface_relator(genus)
        for c in range(d):
            if self.apply_word(relator, c) != c:
                raise CosetError(f"relator moves coset {c}; table is corrupt")
        expected = 2 * genus * d - (d - 1)
        if self.count != expected:
            raise CosetError(
                f"Schreier generator count {self.count}, expected {expected}"
            )
        for w in self.words:
            if not self.contains(w):
                raise CosetError("Schreier generator escapes the subgroup")

    @property
    def count(self):
        return len(self.pairs)

    def labels(self):
        return tuple(f"y{i + 1}" for i in range(len(self.pairs)))

    def apply_letter(self, letter, c):
        return self.steps[letter][c][0]

    def apply_word(self, word, c=0):
        """Image of coset c under the word; rightmost letter acts first."""
        steps = self.steps
        for letter in reversed(word):
            c = steps[letter][c][0]
        return c

    def contains(self, word):
        return self.apply_word(word) == 0

    def __repr__(self):
        return f"CosetTable(genus={self.genus}, d={self.d})"


def _walk(rows, c, out):
    """Read the step rows in order from coset c, pushing the emitted
    letters onto the free-reduction stack `out`; returns the final coset."""
    for row in rows:
        c, e = row[c]
        if e:
            if out and out[-1] == -e:
                out.pop()
            else:
                out.append(e)
    return c


def rewrite(table, word):
    """Express a subgroup element as a word over the Schreier generators.

    Peels letters from the right through the step table, emitting the
    non-tree generator met at each step and freely reducing as it goes;
    raises CosetEscape when the input is not in the subgroup.
    """
    out = []
    c = _walk([table.steps[letter] for letter in reversed(word)], 0, out)
    if c != 0:
        raise CosetEscape(
            f"word {format_word(word)} lands on coset {c}, not the subgroup",
            c,
        )
    out.reverse()
    return tuple(out)


def expand(rs_word, table):
    """Push a Schreier-generator word back down to a surface-group word."""
    out = []
    for letter in rs_word:
        w = table.words[letter - 1] if letter > 0 else inverse_word(
            table.words[-letter - 1])
        out.extend(w)
    return free_reduce(out)


@dataclass(frozen=True)
class AutImage:
    """The restriction of an automorphism to the subgroup, recorded as one
    Schreier-generator word per Schreier generator."""

    table: CosetTable
    values: tuple

    def compose(self, other):
        """self after other, as maps on the subgroup: each value of other
        with its letters replaced by their images under self."""
        images = self.values
        inverses = [inverse_word(v) for v in images]
        values = []
        for v in other.values:
            out = []
            for letter in v:
                out.extend(images[letter - 1] if letter > 0
                           else inverses[-letter - 1])
            values.append(free_reduce(out))
        return AutImage(table=self.table, values=tuple(values))

    def is_identity_on_generators(self, presentation=None):
        table = self.table
        if presentation is None:
            presentation = SurfacePresentation(table.genus)
        return all(
            presentation.words_equal(expand(v, table), table.words[i])
            for i, v in enumerate(self.values)
        )

    def as_dict(self):
        labels = self.table.labels()

        def fmt(word):
            return "".join(
                (labels[x - 1] if x > 0 else labels[-x - 1].upper())
                for x in word
            ) or "1"

        return {labels[i]: fmt(v) for i, v in enumerate(self.values)}


def alpha_apply(table, auto):
    """Restrict the automorphism to the subgroup: push each Schreier
    generator's image under it back over the Schreier generators.

    The image of each signed letter is read once into step rows, right to
    left.  A transversal pass then walks φ(t_c) for each coset c in
    breadth-first order, as its parent's walk followed by the image of
    one letter, recording the coset σ(c) it ends on and its reduced
    emitted stack P_c.  The Schreier generator of pair (c, x) is
    t_{x·c}^-1 · x · t_c, so its restriction continues P_c by the image
    of x from σ(c) and then retraces P_{x·c} backwards.  That last step
    returns to coset 0 exactly when the image of x ends on σ(x·c);
    otherwise the image of the generator leaves the subgroup, which
    falsifies the claim that the subgroup is invariant under the
    automorphism."""
    steps = table.steps
    image_rows = {
        letter: tuple(steps[y] for y in reversed(auto.apply_letter(letter)))
        for letter in steps
    }
    reps = table.schreier_reps
    sigma = [0] * table.d
    stacks = [[]]
    for c in range(1, table.d):
        letter = reps[c][0]
        parent = steps[-letter][c][0]
        out = list(stacks[parent])
        sigma[c] = _walk(image_rows[letter], sigma[parent], out)
        stacks.append(out)
    values = []
    for i, (c, x) in enumerate(table.pairs):
        out = list(stacks[c])
        up = steps[x][c][0]
        if _walk(image_rows[x], sigma[c], out) != sigma[up]:
            w = table.words[i]
            raise CharacteristicViolation(
                f"automorphism {auto.name} moves the subgroup: image of "
                f"{format_word(w)} reaches coset "
                f"{table.apply_word(auto.apply_word(w))}"
            )
        for e in reversed(stacks[up]):
            if out and out[-1] == e:
                out.pop()
            else:
                out.append(-e)
        out.reverse()
        values.append(tuple(out))
    return AutImage(table=table, values=tuple(values))


def inner_compatibility_holds(table, u, presentation=None):
    """Whether restricting conjugation-by-u equals conjugation by rewrite(u)
    on every Schreier generator, for a subgroup word u."""
    if presentation is None:
        presentation = SurfacePresentation(table.genus)
    conj = inner_auto(table.genus, u)
    image = alpha_apply(table, conj)
    ru = rewrite(table, u)
    ru_inverse = inverse_word(ru)
    for j, v in enumerate(image.values):
        direct = free_reduce(ru + (j + 1,) + ru_inverse)
        if v != direct and not presentation.words_equal(
                expand(v, table), expand(direct, table)):
            return False
    return True


def verify_finite_index_containment(table, presentation=None):
    """Check the restriction mechanism on inner automorphisms by subgroup
    elements: for every Schreier generator u, the restriction of conjugation
    by u is conjugation by rewrite(u) — so restriction carries the subgroup
    onto itself, of finite index d in the ambient group.  Returns (ok, d)."""
    if presentation is None:
        presentation = SurfacePresentation(table.genus)
    for u in table.words:
        if not inner_compatibility_holds(table, u, presentation):
            return False, table.d
    return True, table.d


def verify_injectivity_mechanism(image, auto, presentation=None, bound=4096):
    """Desk-scale check of the unique-roots implication: if the restriction
    `image` (from `alpha_apply`) fixes every Schreier generator, the
    automorphism `auto` fixes every ambient generator.  True when the
    implication holds for this automorphism."""
    table = image.table
    if presentation is None:
        presentation = SurfacePresentation(table.genus)
    for v in image.values:
        if sum(len(table.words[abs(x) - 1]) for x in v) > bound:
            raise CosetError(
                f"restriction image exceeds expansion bound {bound}")
    fixes_sub = image.is_identity_on_generators(presentation)
    if not fixes_sub:
        return True
    return auto.fixes_generators(presentation)


def certified_homology_table(genus):
    """The mod-2 homology cover table (d = 2^(2g)), with its characteristic
    certificate.

    The kernel is the intersection of the kernels of all 2^(2g)−1 surjections
    onto the order-2 group; the certificate is the closure of that full set
    under the automorphism generators, which therefore permute the kernels
    and preserve the intersection.  Each surjection is checked to factor
    through the homology map, pinning the intersection identity at this
    level.
    """
    c2 = target_c2()
    flip = c2.generators[0]
    seed = FiniteHom(
        c2, [flip] + [c2.identity] * (2 * genus - 1))
    rec = orbit(seed, standard_autgens(genus), mod_target_auts=False)
    expected = 2 ** (2 * genus) - 1
    if rec.k != expected:
        raise CosetError(
            f"closure found {rec.k} order-2 surjections, expected {expected};"
            " the generator set does not act fully on mod-2 homology"
        )
    cert = certify_characteristic(rec, rec.members)
    if not cert["pass"]:
        raise CosetError("characteristic certification failed unexpectedly")
    hom = mod2_homology_hom(genus)
    masks = {_functional_mask(member) for member in rec.members}
    if masks != set(range(1, 2 ** (2 * genus))):
        raise CosetError(
            "orbit members do not realize every nonzero functional on mod-2"
            " homology; intersection identity broken"
        )
    return CosetTable(hom), rec, cert


def _functional_mask(member):
    """A hom onto the order-2 group is the composite of the homology map
    with the functional reading off these generator parities."""
    flip = member.target.generators[0]
    mask = 0
    for i, img in enumerate(member.images):
        if img == flip:
            mask |= 1 << i
    return mask
