"""Coset tables, Reidemeister-Schreier generators, and induced automorphisms.

A finite-index subgroup of the surface group is realized as the kernel of
a homomorphism onto a finite quotient.  The surface group acts on the left
cosets, which are the quotient's elements; a
breadth-first spanning tree gives one transversal word per coset, and the
non-tree table entries give Schreier generators for the subgroup —
2g·d − (d−1) of them, a free generating set since the subgroup is itself a
surface group of genus d(g−1)+1.

Rewriting walks an integer step table, built once per table on first use:
for each signed letter and coset it holds the next coset and the signed
Schreier generator crossed (0 on a tree entry), so rewriting is one lookup
per letter with free reduction done on the fly.

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
    """Left-coset action of the 2g generators on the d cosets of the kernel
    of a surjective `hom`, which are the target's element indices.

    Coset 0 is the subgroup itself; `schreier_reps[c]` is a word carrying
    coset 0 to coset c (so reps[0] is empty).  `tree_pairs` marks the (coset,
    generator) entries used by the spanning tree; their Schreier generators
    are freely trivial and are skipped by rewriting.
    """

    def __init__(self, hom):
        self.hom = hom
        self.genus = genus = hom.genus
        self.d = hom.target.order
        inv, right = hom.target.inv, hom.target.right

        def act(letter, point):
            # img * p, read as (p^-1 * img^-1)^-1: only the rows of the
            # generator images and their inverses are needed
            x = hom.idx[abs(letter) - 1]
            if letter > 0:
                x = inv(x)
            return inv(right(x)[inv(point)])

        # breadth-first relabeling from the subgroup coset
        index = {hom.target.identity_index: 0}
        order = [hom.target.identity_index]
        reps = [()]
        tree = set()
        qi = 0
        letters = []
        for x in range(1, 2 * genus + 1):
            letters.extend((x, -x))
        while qi < len(order):
            point = order[qi]
            c = index[point]
            qi += 1
            for letter in letters:
                image = act(letter, point)
                if image not in index:
                    index[image] = len(order)
                    order.append(image)
                    reps.append(free_reduce((letter,) + reps[c]))
                    if letter > 0:
                        tree.add((c, letter))
                    else:
                        tree.add((len(order) - 1, -letter))
        if len(order) != self.d:
            raise CosetError(
                f"action is intransitive: reached {len(order)} of {self.d}"
            )
        self.schreier_reps = tuple(reps)
        self.tree_pairs = frozenset(tree)
        self.act_pos = []
        self.act_neg = []
        for x in range(1, 2 * genus + 1):
            self.act_pos.append(tuple(index[act(x, p)] for p in order))
            self.act_neg.append(tuple(index[act(-x, p)] for p in order))
        self._rs = None
        self._steps = None
        relator = surface_relator(genus)
        for c in range(self.d):
            if self.apply_word(relator, c) != c:
                raise CosetError(f"relator moves coset {c}; table is corrupt")

    def apply_letter(self, letter, c):
        if letter > 0:
            return self.act_pos[letter - 1][c]
        return self.act_neg[-letter - 1][c]

    def apply_word(self, word, c=0):
        """Image of coset c under the word; rightmost letter acts first."""
        for letter in reversed(word):
            c = self.apply_letter(letter, c)
        return c

    def contains(self, word):
        return self.apply_word(word) == 0

    def __repr__(self):
        return f"CosetTable(genus={self.genus}, d={self.d})"


def build_coset_table(hom):
    """Coset table of the kernel of a surjective hom; a hom that is not
    surjective leaves the action intransitive, and CosetTable raises."""
    return CosetTable(hom)


@dataclass(frozen=True)
class RSGenerators:
    """Schreier generators of the subgroup: one per non-tree table entry.

    `pairs[i]` = (coset, generator letter); `words[i]` is the subgroup
    element t_{x·c}^-1 · x · t_c as a reduced surface word.  Labels are
    y1..yN in pair order.
    """

    table: CosetTable
    pairs: tuple
    words: tuple

    @property
    def count(self):
        return len(self.pairs)

    def labels(self):
        return tuple(f"y{i + 1}" for i in range(len(self.pairs)))


def schreier_generators(table):
    """The non-tree Schreier generators, memoized on the table."""
    if table._rs is not None:
        return table._rs
    pairs = []
    words = []
    reps = table.schreier_reps
    for c in range(table.d):
        for x in range(1, 2 * table.genus + 1):
            if (c, x) in table.tree_pairs:
                continue
            pairs.append((c, x))
            image = table.apply_letter(x, c)
            words.append(free_reduce(
                inverse_word(reps[image]) + (x,) + reps[c]))
    rs = RSGenerators(table=table, pairs=tuple(pairs), words=tuple(words))
    expected = 2 * table.genus * table.d - (table.d - 1)
    if rs.count != expected:
        raise CosetError(
            f"Schreier generator count {rs.count}, expected {expected}"
        )
    for w in rs.words:
        if not table.contains(w):
            raise CosetError("Schreier generator escapes the subgroup")
    table._rs = rs
    return rs


def _step_table(table):
    """The table's Reidemeister-Schreier steps, built on first use.

    `steps[letter][c]` is (next coset, emitted letter) for each of the 4g
    signed letters and d cosets: reading `letter` at coset c moves to the
    next coset and emits the signed Schreier generator of the entry it
    crosses, or 0 on a spanning-tree entry.  Reading x then x^-1 from any
    coset emits e then -e (or nothing), so walking an unreduced word and
    reducing the emitted letters as they come gives the same result as
    walking its free reduction.
    """
    if table._steps is not None:
        return table._steps
    index = {pair: i + 1
             for i, pair in enumerate(schreier_generators(table).pairs)}
    steps = {}
    for x in range(1, 2 * table.genus + 1):
        forward = []
        backward = []
        for c in range(table.d):
            up = table.act_pos[x - 1][c]
            forward.append((up, index.get((c, x), 0)))
            down = table.act_neg[x - 1][c]
            backward.append((down, -index.get((down, x), 0)))
        steps[x] = tuple(forward)
        steps[-x] = tuple(backward)
    table._steps = steps
    return steps


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
    steps = _step_table(table)
    out = []
    c = _walk([steps[letter] for letter in reversed(word)], 0, out)
    if c != 0:
        raise CosetEscape(
            f"word {format_word(word)} lands on coset {c}, not the subgroup",
            c,
        )
    out.reverse()
    return tuple(out)


def expand(rs_word, rs):
    """Push a Schreier-generator word back down to a surface-group word."""
    out = []
    for letter in rs_word:
        w = rs.words[letter - 1] if letter > 0 else inverse_word(
            rs.words[-letter - 1])
        out.extend(w)
    return free_reduce(out)


@dataclass(frozen=True)
class AutImage:
    """The restriction of an automorphism to the subgroup, recorded as one
    Schreier-generator word per Schreier generator."""

    rs: RSGenerators
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
        return AutImage(rs=self.rs, values=tuple(values))

    def is_identity_on_generators(self, presentation=None):
        rs = self.rs
        if presentation is None:
            presentation = SurfacePresentation(rs.table.genus)
        return all(
            presentation.words_equal(expand(v, rs), rs.words[i])
            for i, v in enumerate(self.values)
        )

    def as_dict(self):
        labels = self.rs.labels()

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
    rs = schreier_generators(table)
    steps = _step_table(table)
    image_rows = {
        letter: tuple(steps[y] for y in reversed(auto.apply_letter(letter)))
        for letter in steps
    }
    reps = table.schreier_reps
    sigma = [0] * table.d
    stacks = [[]]
    for c in range(1, table.d):
        letter = reps[c][0]
        parent = table.apply_letter(-letter, c)
        out = list(stacks[parent])
        sigma[c] = _walk(image_rows[letter], sigma[parent], out)
        stacks.append(out)
    values = []
    for i, (c, x) in enumerate(rs.pairs):
        out = list(stacks[c])
        up = table.apply_letter(x, c)
        if _walk(image_rows[x], sigma[c], out) != sigma[up]:
            w = rs.words[i]
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
    return AutImage(rs=rs, values=tuple(values))


def inner_compatibility_holds(table, u, presentation=None):
    """Whether restricting conjugation-by-u equals conjugation by rewrite(u)
    on every Schreier generator, for a subgroup word u."""
    rs = schreier_generators(table)
    if presentation is None:
        presentation = SurfacePresentation(table.genus)
    conj = inner_auto(table.genus, u)
    image = alpha_apply(table, conj)
    ru = rewrite(table, u)
    ru_inverse = inverse_word(ru)
    for j, v in enumerate(image.values):
        direct = free_reduce(ru + (j + 1,) + ru_inverse)
        if v != direct and not presentation.words_equal(
                expand(v, rs), expand(direct, rs)):
            return False
    return True


def verify_finite_index_containment(table, presentation=None):
    """Check the restriction mechanism on inner automorphisms by subgroup
    elements: for every Schreier generator u, the restriction of conjugation
    by u is conjugation by rewrite(u) — so restriction carries the subgroup
    onto itself, of finite index d in the ambient group.  Returns (ok, d)."""
    rs = schreier_generators(table)
    if presentation is None:
        presentation = SurfacePresentation(table.genus)
    for u in rs.words:
        if not inner_compatibility_holds(table, u, presentation):
            return False, table.d
    return True, table.d


def verify_injectivity_mechanism(image, auto, presentation=None, bound=4096):
    """Desk-scale check of the unique-roots implication: if the restriction
    `image` (from `alpha_apply`) fixes every Schreier generator, the
    automorphism `auto` fixes every ambient generator.  True when the
    implication holds for this automorphism."""
    rs = image.rs
    if presentation is None:
        presentation = SurfacePresentation(rs.table.genus)
    for v in image.values:
        if sum(len(rs.words[abs(x) - 1]) for x in v) > bound:
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
    table = build_coset_table(hom)
    return table, rec, cert


def _functional_mask(member):
    """A hom onto the order-2 group is the composite of the homology map
    with the functional reading off these generator parities."""
    flip = member.target.generators[0]
    mask = 0
    for i, img in enumerate(member.images):
        if img == flip:
            mask |= 1 << i
    return mask
