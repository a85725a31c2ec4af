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
Group Theory, 2005).  The Schreier generator t_{x·c}^-1 · x · t_c maps to
the walk of φ(t_c), continued by the image of x, followed by the inverse
of the walk of φ(t_{x·c}), and no image word is built.  The generator
images mostly share a head H and a tail T, φ(x) = H·m_x·T for all of
them or all but one (conjugation by u has H = u and T = u^-1), so the
walks are shifted by T into word-order pieces: an opening T·φ(t_c) per
coset, walked as its tree parent's opening and one letter's image, a
middle m_x per coset and letter, and a closing φ(t_{x·c})^-1·H per
landing coset.  A table entry's value is closing + middle + opening,
reduced again only where a junction cancels.  Composition reads images
from one signed table per restriction.

Expansion of a rewritten word telescopes back to the original word
reduced, so round-trip identities hold freely; equalities involving
genuinely different words go through the Dehn word-problem engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .autos import (
    AutError,
    certify_characteristic,
    inner_auto,
    orbit,
    standard_autgens,
)
from .quotients import FiniteHom, mod2_homology_hom, target_c2
from .words import (
    SurfacePresentation,
    conjugate_word,
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

    @cached_property
    def signed_words(self):
        """Each Schreier generator and its inverse under its signed letter."""
        return _Signed(self.words)

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


def _walk(rows, c):
    """Read the step rows in order from coset c, freely reducing the
    emitted letters as they come; returns the final coset and the reduced
    emitted word in word order (the reverse of reading order)."""
    out = []
    for row in rows:
        c, e = row[c]
        if e:
            if out and out[-1] == -e:
                out.pop()
            else:
                out.append(e)
    out.reverse()
    return c, tuple(out)


def _walks(rows, d):
    """`_walk` of the step rows from each of the d cosets, in order; no row
    or a single row is read off directly."""
    if len(rows) > 1:
        return [_walk(rows, c) for c in range(d)]
    row = rows[0] if rows else [(c, 0) for c in range(d)]
    return [(c, (e,) if e else ()) for c, e in row]


def _joined(left, right):
    """The reduced word left·right of two reduced words: cancel at the
    junction, and only there."""
    if not left or not right or left[-1] != -right[0]:
        return left + right
    k, n = 1, min(len(left), len(right))
    while k < n and left[-1 - k] == -right[k]:
        k += 1
    return left[:len(left) - k] + right[k:]


def rewrite(table, word):
    """Express a subgroup element as a word over the Schreier generators.

    Peels letters from the right through the step table, emitting the
    non-tree generator met at each step and freely reducing as it goes;
    raises CosetEscape when the input is not in the subgroup.
    """
    c, out = _walk([table.steps[letter] for letter in reversed(word)], 0)
    if c != 0:
        raise CosetEscape(
            f"word {format_word(word)} lands on coset {c}, not the subgroup",
            c,
        )
    return out


class _Signed(dict):
    """Words under signed letters: words[i] under i+1, its inverse under
    -(i+1).  A dict, where a tuple would wrap a negative index: a letter
    outside ±1..±len(words) raises CosetError, not a wrong word."""

    def __init__(self, words):
        super().__init__(zip(range(1, len(words) + 1), words))
        self.update(zip(range(-1, -len(words) - 1, -1),
                        map(inverse_word, words)))

    def __missing__(self, letter):
        raise CosetError(f"letter {letter} is outside the {len(self) // 2}"
                         " Schreier generators")


def expand(rs_word, table):
    """Push a Schreier-generator word back down to a surface-group word."""
    words = table.signed_words
    return free_reduce([x for letter in rs_word for x in words[letter]])


@dataclass(frozen=True)
class AutImage:
    """The restriction of an automorphism to the subgroup, recorded as one
    reduced Schreier-generator word per Schreier generator."""

    table: CosetTable
    values: tuple

    @cached_property
    def signed(self):
        """The image of each signed letter, built once per restriction."""
        return _Signed(self.values)

    def compose(self, other):
        """self after other, as maps on the subgroup: each value of other
        with its letters replaced by their images, read from self's signed
        table.  Values are reduced words, so each image is joined on at its
        junction, and a one-letter value is its image as it is."""
        if other.table is not self.table:
            raise CosetError("composition of restrictions to different tables")
        images = self.signed
        values = []
        for v in other.values:
            if len(v) == 1:
                values.append(images[v[0]])
                continue
            out = []
            for letter in v:
                w = images[letter]
                if out and w and out[-1] == -w[0]:
                    out.pop()
                    k = 1
                    while out and k < len(w) and out[-1] == -w[k]:
                        out.pop()
                        k += 1
                    out.extend(w[k:])
                else:
                    out.extend(w)
            values.append(tuple(out))
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


def _common_length(words):
    """The length of the longest head that all the words share: the head
    shared by the lexicographically least and greatest of them."""
    first, last = min(words), max(words)
    for n, (a, b) in enumerate(zip(first, last)):
        if a != b:
            return n
    return min(len(first), len(last))


def _shared_segments(words):
    """Split the words as H·m·T: the longest head H and tail T shared by
    all of them, or by all but one.  Returns (H, T, skip), skip being the
    index of the word left out, or None; the tail is cut short where it
    would overlap the head in the shortest word."""
    best, segments = 0, ((), (), None)
    for skip in (None, *range(len(words))):
        kept = [w for i, w in enumerate(words) if i != skip]
        head = _common_length(kept)
        tail = min(_common_length([w[::-1] for w in kept]),
                   min(map(len, kept)) - head)
        if head + tail > best:
            w = kept[0]
            best, segments = head + tail, (w[:head], w[len(w) - tail:], skip)
    return segments


def alpha_apply(table, auto):
    """Restrict the automorphism to the subgroup: push each Schreier
    generator's image under it back over the Schreier generators.

    The image of the Schreier generator of pair (c, x) is
    φ(t_{x·c})^-1 · φ(x) · φ(t_c).  With H and T the longest head and
    tail that all the generator images, or all but one, share, so that
    φ(x) = H·m_x·T, it is walked through the step table from coset 0 in
    three pieces, each a coset reached and a reduced word in word order:

    - the opening T·φ(t_c), once per coset c: a transversal pass walks T
      from coset 0, then each coset's opening as its tree parent's
      opening followed by T·φ(letter)·T^-1 = T·H·m_letter, ending on o_c;
    - the middle m_x, walked from every coset once per x, read from o_c;
    - the closing φ(t_{x·c})^-1·H, once per landing coset x·c: the walk
      of T·H (kept for each coset it starts from) that ends on o_{x·c},
      followed by the opening of x·c retraced; for conjugation T·H is
      empty and each closing is its retrace.

    The entry's value is closing + middle + opening, joined again only
    where a junction cancels, so H and T are walked once per coset, not
    once per table entry.  A letter whose image is left out of H and T
    walks T·φ(x)·T^-1 whole, from the opening of c to the retraced
    opening of x·c, and so does a tree edge entered by an inverse letter
    in the transversal pass.  A walk lands where its closing starts
    exactly when φ(x) carries the coset of φ(t_c) to that of φ(t_{x·c});
    otherwise the image of the generator leaves the subgroup, which
    falsifies the claim that the subgroup is invariant under the
    automorphism, and the first such generator in table order is named."""
    if auto.genus != table.genus:
        raise AutError("genus mismatch between table and automorphism")
    steps = table.steps
    reps = table.schreier_reps
    d = table.d

    def rows(word):
        return [steps[y] for y in reversed(word)]

    head, tail, skip = _shared_segments(auto.images)
    # each middle walked from every coset
    middles = {x + 1: _walks(rows(w[len(head):len(w) - len(tail)]), d)
               for x, w in enumerate(auto.images) if x != skip}
    # the letters walked whole: any left out, and those entering the tree
    entering = {rep[0] for rep in reps[1:]}
    wholes = {letter: rows(conjugate_word(auto.apply_letter(letter), tail))
              for letter in entering.union(range(1, 2 * table.genus + 1))
              if letter not in middles}

    # the walk of T·H from each coset, none for conjugation; starts[o] is
    # the coset from which it ends on o
    bridges = _walks(rows(free_reduce(tail + head)), d)
    starts = [0] * d
    for e, (end, _) in enumerate(bridges):
        starts[end] = e

    # the openings, by the transversal pass
    openings = [_walk(rows(tail), 0)]
    for c in range(1, d):
        letter = reps[c][0]
        o, word = openings[steps[-letter][c][0]]
        if letter in middles:
            o, middle = middles[letter][o]
            o, piece = bridges[o]
            piece = _joined(piece, middle)
        else:
            o, piece = _walk(wholes[letter], o)
        openings.append((o, _joined(piece, word)))
    reached = [o for o, _ in openings]
    openings = [word for _, word in openings]

    # the retraces and closings, and where a middle must land to start one
    retraces = [tuple([-e for e in reversed(word)]) for word in openings]
    landings = [starts[o] for o in reached]
    closings = [_joined(retrace, bridges[landing][1])
                for retrace, landing in zip(retraces, landings)]
    # the letters that cancel at a junction: firsts[c], the first letter of
    # opening c, cancels the last of retrace c, and lasts[c] the last of
    # closing c; 0 stands for an empty word, so two empty words meeting is
    # a false alarm that only costs a join
    firsts = [word[0] if word else 0 for word in openings]
    lasts = [-word[-1] if word else 0 for word in closings]

    # the table entries, letter by letter: closing + middle + opening,
    # joined again only where a junction cancels
    values = [None] * table.count
    escapes = []
    for x in range(1, 2 * table.genus + 1):
        if x in middles:
            walks, goals, ends, cancel = middles[x], landings, closings, lasts
        else:
            walks, goals, ends, cancel = (_walks(wholes[x], d), reached,
                                          retraces, firsts)
        for c, (up, number) in enumerate(steps[x]):
            if number:
                o, middle = walks[reached[c]]
                if o != goals[up]:
                    escapes.append(number)
                    continue
                left, right = ends[up], openings[c]
                if (middle[0] == cancel[up] or middle[-1] == -firsts[c]
                        if middle else cancel[up] == firsts[c]):
                    values[number - 1] = _joined(_joined(left, middle), right)
                else:
                    values[number - 1] = left + middle + right
    if escapes:
        w = table.words[min(escapes) - 1]
        raise CharacteristicViolation(
            f"automorphism {auto.name} moves the subgroup: image of "
            f"{format_word(w)} reaches coset "
            f"{table.apply_word(auto.apply_word(w))}"
        )
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
        # a reduced ru cancels against y_j only if it ends in y_j^±1
        direct = ru + (j + 1,) + ru_inverse
        if ru and abs(ru[-1]) == j + 1:
            direct = free_reduce(direct)
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
    words = table.signed_words
    for v in image.values:
        if sum(len(words[x]) for x in v) > bound:
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
