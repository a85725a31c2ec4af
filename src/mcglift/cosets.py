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

Restriction reads words walked from every coset at once.  The table keeps
those walks in a memo filled on first use, seeded with the empty word and
the 4g single letters: each distinct word is walked from the d cosets at
most once per table, so the memo holds at most d pairs (coset, emitted
word) per distinct word asked for, distinct words × d entries in all.

For a subgroup invariant under an automorphism φ, restriction pushes the
transversal through φ once (Holt–Eick–O'Brien, Handbook of Computational
Group Theory, 2005), and keeps the result in gauge form.  The generator
images mostly share a head H and a tail T, φ(x) = H·m_x·T for all of
them or all but one (conjugation by u has H = u and T = u^-1), and the
image of the Schreier generator t_{x·c}^-1 · x · t_c is O_{x·c}^-1 · K ·
O_c: the opening O_c is the walk of T·φ(t_c) from coset 0, built once
per coset from its tree parent's and ending on a coset o_c, and the core
K the walk of T·φ(x)·T^-1 from o_c, which ends on o_{x·c} exactly when
the image stays in the subgroup.  No image word is built: a restriction
keeps its openings, cosets with equal openings sharing one word, the
cosets they reach and its cores, and joins its values on first use.
H and T come from one sort of the images forward and one of them
reversed: a set of words shares the head that its least and greatest
words share, so leaving out a word that is neither keeps both and
cannot change H (nor, reversed, T).

The gauge telescopes under composition.  With ψ(y) = O^ψ_{x·c}^-1 ·
K^ψ_y · O^ψ_c for the Schreier generator y of entry (c, x), ψ∘φ has the
opening O^ψ_{o^φ_c} · ψ(O^φ_c) at coset c, reaching o^ψ of o^φ_c, and
the core O^ψ_{o^φ_{x·c}} · ψ(K^φ) · O^ψ_{o^φ_c}^-1, which is ψ's core of
y itself when φ's core is the one letter y^±1 and its entry runs between
those two reached cosets.  Each distinct opening object W of φ is
mapped through ψ once per composition, from the coset e that the entry
of its first letter enters; a coset opened by W and reaching t gets the
prefix O^ψ_t · O^ψ_e^-1 in front, none where those two openings are one
word.  An empty core of φ needs no walk: its composite core is
O^ψ_{o^φ_{x·c}} · O^ψ_{o^φ_c}^-1 reduced, empty where those openings are
one word.  Words are appended with `+`, and joined with cancellation only
at a junction that cancels.  Two restrictions with equal openings have
equal values exactly when their cores are equal, so restrictions are
compared gauge to gauge, and values are built only where the openings
differ.  A restriction given by its values is the trivial gauge: every
opening empty, every coset reaching itself, the cores the values.

Expansion of a rewritten word telescopes back to the original word
reduced, so round-trip identities hold freely; equalities involving
genuinely different words go through the Dehn word-problem engine.
"""

from __future__ import annotations

from functools import cached_property
from operator import itemgetter

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
    _joined,
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

    @cached_property
    def _signed_lengths(self):
        """The length of each Schreier generator, and of its inverse, under
        its signed letter: an inverse is as long as its word, so `int`
        leaves each length as it is."""
        return _Signed(tuple(map(len, self.words)), int)

    @cached_property
    def _walk_memo(self):
        """`walks` by word, filled on first use: seeded with the empty word
        and each one-letter word, read off the step rows."""
        memo = {(): tuple((c, ()) for c in range(self.d))}
        for letter, row in self.steps.items():
            memo[letter,] = tuple((c, (e,) if e else ()) for c, e in row)
        return memo

    @cached_property
    def _entries(self):
        """Per generator letter x, in order, the non-tree entries
        (c, x·c, i) in coset order, i indexing the entry's Schreier
        generator: what a pass over the Schreier generators letter by
        letter reads, without the tree entries."""
        return {x: tuple((c, up, number - 1)
                         for c, (up, number) in enumerate(self.steps[x])
                         if number)
                for x in range(1, 2 * self.genus + 1)}

    @cached_property
    def _letter_names(self):
        """The name of each signed letter of a Schreier-generator word, yN
        for generator N and YN for its inverse, formatted once per table."""
        names = {}
        for n, label in enumerate(self.labels(), 1):
            names[n], names[-n] = label, label.upper()
        return names

    @cached_property
    def _inverse_tree_letters(self):
        """The inverse letters that enter a tree edge in the transversal
        pass: those that begin a transversal word."""
        return frozenset(rep[0] for rep in self.schreier_reps[1:]
                         if rep[0] < 0)

    @cached_property
    def _pair_ends(self):
        """Per table entry (c, x), the cosets c and x·c it runs between."""
        return tuple((c, self.steps[x][c][0]) for c, x in self.pairs)

    @cached_property
    def _letter_ends(self):
        """Per signed letter, the cosets it enters and leaves: (x·c, c) for
        the Schreier generator of entry (c, x), (c, x·c) for its inverse."""
        return _Signed([(up, c) for c, up in self._pair_ends],
                       itemgetter(1, 0))

    @cached_property
    def _trivial_gauge(self):
        """Every opening empty and every coset reaching itself."""
        return ((),) * self.d, tuple(range(self.d))

    @cached_property
    def _singletons(self):
        """Each Schreier generator as a one-letter word."""
        return tuple((j,) for j in range(1, self.count + 1))

    def walks(self, word):
        """`_walk` of the reduced word from each of the d cosets, in order,
        as a tuple kept in a memo on the table: each distinct word is
        walked at most once per table, so the memo holds at most d pairs
        (coset, emitted word) per distinct word asked for, beside the
        empty word and the 4g single letters it starts with."""
        memo = self._walk_memo
        walked = memo.get(word)
        if walked is None:
            rows = [self.steps[y] for y in reversed(word)]
            walked = memo[word] = tuple(_walk(rows, c) for c in range(self.d))
        return walked

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
    """Items under signed letters: items[i] under i+1, its inverse under
    -(i+1), words by default.  A dict, where a tuple would wrap a negative
    index: a letter outside ±1..±len(items) raises CosetError, not a wrong
    item."""

    def __init__(self, items, invert=inverse_word):
        super().__init__(zip(range(1, len(items) + 1), items))
        self.update(zip(range(-1, -len(items) - 1, -1), map(invert, items)))

    def __missing__(self, letter):
        raise CosetError(f"letter {letter} is outside the {len(self) // 2}"
                         " Schreier generators")


def expand(rs_word, table):
    """Push a Schreier-generator word back down to a surface-group word."""
    words = table.signed_words
    return free_reduce([x for letter in rs_word for x in words[letter]])


class AutImage:
    """The restriction of an automorphism to the subgroup: one reduced
    Schreier-generator word per Schreier generator, its `values`, kept in
    gauge form: per coset c an opening word O_c and a reached coset o_c,
    and per Schreier generator i, of entry (c, x), a core K_i, so that
    value i is reduce(O_{x·c}^-1 · K_i · O_c).  The values are joined on
    first use, and do not depend on the reached cosets, which only say
    where `compose` may read a core by lookup.  `AutImage(table, values)`
    is the trivial gauge: every opening empty, every coset reaching
    itself, the cores the values.

    Equality, hashing and repr are those of the values.  For fixed
    openings, K ↦ reduce(O_{x·c}^-1 · K · O_c) is a bijection of the free
    group, so two restrictions with equal openings have equal values
    exactly when their cores are equal; `==` then compares the cores and
    builds no value, and compares the values otherwise."""

    def __init__(self, table, values):
        self.table = table
        self.values = self.cores = tuple(values)
        self.openings, self.reached = table._trivial_gauge

    @classmethod
    def _gauged(cls, table, openings, reached, cores):
        image = cls.__new__(cls)
        image.table, image.openings = table, openings
        image.reached, image.cores = reached, cores
        return image

    @cached_property
    def values(self):
        return _assembled(self.table, self.openings, self._retraces,
                          self.cores)

    def __eq__(self, other):
        if not isinstance(other, AutImage):
            return NotImplemented
        if self.table is not other.table:
            return False
        if self.openings == other.openings:
            return self.cores == other.cores
        return self.values == other.values

    def __hash__(self):
        return hash((self.table, self.values))

    def __repr__(self):
        return f"AutImage(table={self.table!r}, values={self.values!r})"

    @cached_property
    def _retraces(self):
        """Each coset's opening retraced, once per distinct opening."""
        inverses = {word: inverse_word(word) for word in set(self.openings)}
        return tuple(map(inverses.__getitem__, self.openings))

    @cached_property
    def _signed_cores(self):
        return _Signed(self.cores)

    @cached_property
    def _plan(self):
        """Per entry (c, x), its core's one letter if that letter's entry
        runs from o_c to o_{x·c}, else 0: `compose` reads its core there;
        and the indices of the entries with 0, whose cores it maps."""
        ends, reached = self.table._letter_ends, self.reached
        letters = tuple(
            core[0] if len(core) == 1
            and ends[core[0]] == (reached[up], reached[c]) else 0
            for (c, up), core in zip(self.table._pair_ends, self.cores))
        return letters, [i for i, letter in enumerate(letters) if not letter]

    def _through(self, word, t, e=None):
        """reduce(O_t · self(word)), or with a coset e reduce(O_t ·
        self(word) · O_e^-1), each letter's image being its core between
        the retraced opening of the coset its entry enters and the opening
        of the one it leaves; where the two openings between one image and
        the next, or the last one and O_e^-1, are one word, they cancel and
        are not joined.  Pieces are appended, and joined only where a
        junction cancels."""
        cores, ends = self._signed_cores, self.table._letter_ends
        openings, retraces = self.openings, self._retraces
        out, p = (), t
        for letter in word:
            enters, leaves = ends[letter]
            if openings[p] is not openings[enters]:
                piece = openings[p]
                if out and piece and out[-1] == -piece[0]:
                    out = _joined(out, piece)
                else:
                    out += piece
                piece = retraces[enters]
                if out and piece and out[-1] == -piece[0]:
                    out = _joined(out, piece)
                else:
                    out += piece
            piece = cores[letter]
            if out and piece and out[-1] == -piece[0]:
                out = _joined(out, piece)
            else:
                out += piece
            p = leaves
        piece = openings[p]
        if e is not None:
            if piece is openings[e]:
                return out
            if out and piece and out[-1] == -piece[0]:
                out = _joined(out, piece)
            else:
                out += piece
            piece = retraces[e]
        if out and piece and out[-1] == -piece[0]:
            return _joined(out, piece)
        return out + piece

    def compose(self, other):
        """self after other, as maps on the subgroup, in gauge form: with
        ψ = self and φ = other, value i is ψ(O^φ_{x·c})^-1 · ψ(K^φ_i) ·
        ψ(O^φ_c), so the composite opens coset c with O^ψ_{o^φ_c} ·
        ψ(O^φ_c), reaching o^ψ of o^φ_c, and has the core O^ψ_{o^φ_{x·c}}
        · ψ(K^φ_i) · O^ψ_{o^φ_c}^-1: ψ's core of y, one lookup, when K^φ_i
        is one letter y^±1 whose entry runs between those two cosets (as
        φ's `_plan` says).

        Each distinct opening object W of φ is mapped once per call: with
        e the coset that the entry of W's first letter enters, O^ψ_t ·
        ψ(W) is reduce(O^ψ_t · O^ψ_e^-1) · O^ψ_e · ψ(W), and the prefix
        is left out where O^ψ_t and O^ψ_e are one word; an empty opening
        opens with O^ψ_t alone.  A nonempty core is mapped between both
        its openings in one pass: the image of its last letter ends on
        the opening of o^φ_c, its coset in φ's gauge, which then cancels
        against O^ψ_{o^φ_c}^-1 unjoined.  An empty core K^φ_i is not
        mapped: its composite core is O^ψ_{o^φ_{x·c}} · O^ψ_{o^φ_c}^-1
        reduced, empty where those two openings are one word.  `_through`
        appends its pieces with `+`, and joins them with cancellation only
        at a junction that cancels."""
        if other.table is not self.table:
            raise CosetError("composition of restrictions to different tables")
        table, through, retraces = self.table, self._through, self._retraces
        openings, ends = self.openings, table._letter_ends
        reached = other.reached
        images = {}  # by id within this call: other.openings holds the words
        opened = []
        for word, t in zip(other.openings, reached):
            if not word:
                opened.append(openings[t])
                continue
            known = images.get(id(word))
            if known is None:
                e = ends[word[0]][0]
                known = images[id(word)] = e, through(word, e)
            e, image = known
            if openings[t] is not openings[e]:
                image = _joined(_joined(openings[t], retraces[e]), image)
            opened.append(image)
        letters, mapped = other._plan
        cores = list(map(self._signed_cores.get, letters))  # None if mapped
        for i in mapped:
            c, up = table._pair_ends[i]
            core, t, e = other.cores[i], reached[up], reached[c]
            if core:
                cores[i] = through(core, t, e)
            elif openings[t] is openings[e]:
                cores[i] = ()
            else:
                cores[i] = _joined(openings[t], retraces[e])
        return AutImage._gauged(
            table, tuple(opened),
            tuple(map(self.reached.__getitem__, reached)), tuple(cores))

    def is_identity_on_generators(self, presentation=None):
        table = self.table
        if presentation is None:
            presentation = SurfacePresentation(table.genus)
        return all(
            presentation.words_equal(expand(v, table), table.words[i])
            for i, v in enumerate(self.values)
        )

    def as_dict(self):
        """Each value under its generator's label, as the names of its
        signed letters joined, "1" for an empty one."""
        names = self.table._letter_names
        return {names[n]: "".join(map(names.__getitem__, v)) or "1"
                for n, v in enumerate(self.values, 1)}


def _assembled(table, openings, retraces, cores):
    """The values of a gauge: per Schreier generator of entry (c, x), the
    retraced opening of x·c, the core and the opening of c, joined."""
    values = []
    for (c, up), core in zip(table._pair_ends, cores):
        value, opening = retraces[up], openings[c]
        if value and core and value[-1] == -core[0]:
            value = _joined(value, core)
        else:
            value += core
        if value and opening and value[-1] == -opening[0]:
            value = _joined(value, opening)
        else:
            value += opening
        values.append(value)
    return tuple(values)


def _common_length(first, last):
    """The length of the longest head that two words share."""
    for n, (a, b) in enumerate(zip(first, last)):
        if a != b:
            return n
    return min(len(first), len(last))


def _heads_left_out(words):
    """The length of the head shared by all of at least two words, and for
    each i of the head shared by all but word i.  A set of words shares
    the head its lexicographically least and greatest words share, so one
    sort finds every one: leaving out a word that is neither the least nor
    the greatest keeps both, and leaving out the least or the greatest
    keeps the next one in order in its place."""
    order = sorted(range(len(words)), key=words.__getitem__)
    first, last = order[0], order[-1]
    whole = _common_length(words[first], words[last])
    left_out = [whole] * len(words)
    left_out[first] = _common_length(words[order[1]], words[last])
    left_out[last] = _common_length(words[first], words[order[-2]])
    return whole, left_out


def _shared_segments(words):
    """Split the words as H·m·T: the longest head H and tail T shared by
    all of them, or by all but one.  Returns (H, T, skip), skip being the
    index of the word left out, or None, and the first of these in that
    order (None, then 0, 1, ...) among the choices that share the most;
    the tail is cut short where it would overlap the head in the shortest
    word.

    The words are sorted once forward and once reversed.  Words share the
    head that their least and greatest share, so leaving out a word that
    is neither cannot change H, and leaving out one of them puts the next
    word in order in its place; so for T with the words reversed, and for
    the cut with the shortest word.  Each choice thus reads one of at
    most three lengths for H and three for T, found before any choice is
    compared."""
    head, heads = _heads_left_out(words)
    tail, tails = _heads_left_out([w[::-1] for w in words])
    lengths = list(map(len, words))
    shortest, second = sorted(lengths)[:2]
    shortests = [shortest] * len(words)
    shortests[lengths.index(shortest)] = second
    best, segments = 0, ((), (), None)
    for skip, head, tail, shortest in (
            (None, head, tail, shortest),
            *zip(range(len(words)), heads, tails, shortests)):
        tail = min(tail, shortest - head)
        if head + tail > best:
            w = words[1 if skip == 0 else 0]
            best, segments = head + tail, (w[:head], w[len(w) - tail:], skip)
    return segments


def alpha_apply(table, auto):
    """Restrict the automorphism to the subgroup, in gauge form: push each
    Schreier generator's image under it back over the Schreier generators.

    The image of the Schreier generator of pair (c, x) is
    φ(t_{x·c})^-1 · φ(x) · φ(t_c).  With H and T the longest head and
    tail that all the generator images, or all but one, share, so that
    φ(x) = H·m_x·T, it is (T·φ(t_{x·c}))^-1 · T·H·m_x · T·φ(t_c), walked
    through the step table from coset 0 in pieces, each a coset reached
    and a reduced word in word order:

    - the opening T·φ(t_c), once per coset c: a transversal pass walks T
      from coset 0, then each coset's opening as its tree parent's
      opening followed by T·φ(letter)·T^-1 = T·H·m_letter, ending on o_c;
      equal openings are kept as one word;
    - the core of (c, x): the middle m_x, walked from every coset once
      per table (`CosetTable.walks`) and read from o_c, then its link,
      the walk of T·H (kept for each coset it starts from) that ends on
      o_{x·c}, joined with cancellation only where that junction
      cancels; every link is empty for conjugation, where T·H is.

    So H and T are walked once per coset, not once per table entry, and
    no value is joined here.  A letter whose image is left out of H and T
    walks T·φ(x)·T^-1 whole, from o_c to o_{x·c}, and so does a tree edge
    entered by an inverse letter in the transversal pass.  A walk lands
    where its link starts (or on o_{x·c}) exactly when φ(x) carries the
    coset of φ(t_c) to that of φ(t_{x·c}); otherwise the image of the
    generator leaves the subgroup, which falsifies the claim that the
    subgroup is invariant under the automorphism, and the first such
    generator in table order is named."""
    if auto.genus != table.genus:
        raise AutError("genus mismatch between table and automorphism")
    steps = table.steps
    reps = table.schreier_reps
    d = table.d

    def rows(word):
        return [steps[y] for y in reversed(word)]

    head, tail, skip = _shared_segments(auto.images)
    # each middle walked from every coset
    middles = {x + 1: table.walks(w[len(head):len(w) - len(tail)])
               for x, w in enumerate(auto.images) if x != skip}
    # the letters walked whole: any left out, from every coset, and any
    # inverse letter entering the tree, from where it enters
    wholes = {x: table.walks(conjugate_word(auto.apply_letter(x), tail))
              for x in range(1, 2 * table.genus + 1) if x not in middles}
    inverse_rows = {letter: rows(conjugate_word(auto.apply_letter(letter),
                                                tail))
                    for letter in table._inverse_tree_letters}

    # the walk of T·H from each coset, none for conjugation; starts[o] is
    # the coset from which it ends on o
    bridges = table.walks(free_reduce(tail + head))
    starts = [0] * d
    for e, (end, _) in enumerate(bridges):
        starts[end] = e

    # the openings, by the transversal pass: each distinct opening once, in
    # order of first appearance, and per coset the index of its opening
    # and the coset o_c it reaches; an empty piece leaves the opening of
    # the tree parent as it is
    o, word = _walk(rows(tail), 0)
    distinct, first = [word], {word: 0}
    reached, index = [o], [0]
    for c in range(1, d):
        letter = reps[c][0]
        parent = steps[-letter][c][0]
        o = reached[parent]
        if letter in middles:
            o, middle = middles[letter][o]
            o, piece = bridges[o]
            if piece and middle and piece[-1] == -middle[0]:
                piece = _joined(piece, middle)
            else:
                piece += middle
        elif letter > 0:
            o, piece = wholes[letter][o]
        else:
            o, piece = _walk(inverse_rows[letter], o)
        i = index[parent]
        if piece:
            word = distinct[i]
            if word and piece[-1] == -word[0]:
                word = _joined(piece, word)
            else:
                word = piece + word
            i = first.setdefault(word, len(distinct))
            if i == len(distinct):
                distinct.append(word)
        reached.append(o)
        index.append(i)

    # the cores, letter by letter: the link of x·c, the walk of T·H ending
    # on o_{x·c}, joined to the middle, or the whole letter's walk; every
    # link is empty for a conjugation (T·H = u^-1·u) and for most
    # composites of two standard generators, and then a core is its middle
    landings = [starts[o] for o in reached]
    links = [bridges[landing][1] for landing in landings]
    if not any(links):
        links = None
    cores = [None] * table.count
    escapes = []
    for x, entries in table._entries.items():
        if x in middles:
            walks, goals, joins = middles[x], landings, links
        else:
            walks, goals, joins = wholes[x], reached, None
        for c, up, i in entries:
            o, middle = walks[reached[c]]
            if o != goals[up]:
                escapes.append(i)
            elif joins:
                link = joins[up]
                if link and middle and link[-1] == -middle[0]:
                    cores[i] = _joined(link, middle)
                else:
                    cores[i] = link + middle
            else:
                cores[i] = middle
    if escapes:
        w = table.words[min(escapes)]
        raise CharacteristicViolation(
            f"automorphism {auto.name} moves the subgroup: image of "
            f"{format_word(w)} reaches coset "
            f"{table.apply_word(auto.apply_word(w))}"
        )
    return AutImage._gauged(table, tuple(map(distinct.__getitem__, index)),
                            tuple(reached), tuple(cores))


def inner_compatibility_holds(table, u, presentation=None):
    """Whether restricting conjugation-by-u equals conjugation by rewrite(u)
    on every Schreier generator, for a subgroup word u: the gauge with
    every opening rewrite(u)^-1, every coset reaching itself and the cores
    y1, y2, ..., compared gauge to gauge first."""
    if presentation is None:
        presentation = SurfacePresentation(table.genus)
    image = alpha_apply(table, inner_auto(table.genus, u))
    direct = AutImage._gauged(
        table, (inverse_word(rewrite(table, u)),) * table.d,
        table._trivial_gauge[1], table._singletons)
    return image == direct or all(
        v == w or presentation.words_equal(expand(v, table),
                                           expand(w, table))
        for v, w in zip(image.values, direct.values))


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
    lengths = table._signed_lengths
    for v in image.values:
        if sum(map(lengths.__getitem__, v)) > bound:
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
