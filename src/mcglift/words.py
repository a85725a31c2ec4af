"""Words in the standard presentation of a closed surface group.

The genus-g surface group is

    < a1, b1, ..., ag, bg | [a1,b1][a2,b2]...[ag,bg] >,   g >= 2.

A word is a tuple of nonzero ints: letter +k is the k-th generator in the
order a1, b1, a2, b2, ...; letter -k is its inverse.  The string form writes
generators as a1, b1, ... and inverses as A1, B1, ...

The word problem is solved by Dehn's algorithm: in a freely and cyclically
reduced word, any subword matching more than half of a cyclic rotation of the
relator or its inverse is replaced by the shorter complement.  For g >= 2 the
surface relator is a small-cancellation presentation (every letter occurs
exactly once in the relator, so pieces have length 1), and a nonempty reduced
word equals the identity only if it contains such a majority subword, so the
loop below decides triviality.
"""

from __future__ import annotations

import re
from operator import neg

Word = tuple


class WordError(ValueError):
    pass


def free_reduce(word):
    """Cancel adjacent inverse pairs; linear stack pass."""
    out = []
    for letter in word:
        if letter == 0:
            raise WordError("zero letter")
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def cyclic_reduce(word):
    """Trim inverse pairs straddling the ends of a freely reduced word."""
    word = free_reduce(word)
    lo, hi = 0, len(word)
    while hi - lo >= 2 and word[lo] == -word[hi - 1]:
        lo += 1
        hi -= 1
    return word[lo:hi]


def inverse_word(word):
    """The inverse of a word, as a tuple: its letters reversed and negated."""
    return tuple(map(neg, reversed(word)))


def conjugate_word(word, by):
    """by * word * by^-1."""
    return free_reduce(tuple(by) + tuple(word) + inverse_word(by))


def _joined(left, right):
    """The reduced word left·right of two reduced words: cancel at the
    junction, and only there."""
    if not left or not right or left[-1] != -right[0]:
        return left + right
    k, n = 1, min(len(left), len(right))
    while k < n and left[-1 - k] == -right[k]:
        k += 1
    return left[:len(left) - k] + right[k:]


_TOKEN = re.compile(r"([abAB])(\d+)")


def parse_word(text, genus=None):
    """Parse strings like "a1b2A1" or "a1 b2 A1" (capitals are inverses).
    It inverts `format_word`, which certificates and messages write, so a
    word they name can be read back."""
    stripped = text.replace(" ", "").replace("*", "")
    consumed = 0
    out = []
    for m in _TOKEN.finditer(stripped):
        if m.start() != consumed:
            raise WordError(f"unparsable word {text!r}")
        consumed = m.end()
        kind, idx = m.group(1), int(m.group(2))
        if idx < 1:
            raise WordError(f"generator index must be >= 1 in {text!r}")
        k = 2 * (idx - 1) + (1 if kind in "aA" else 2)
        out.append(k if kind.islower() else -k)
    if consumed != len(stripped):
        raise WordError(f"unparsable word {text!r}")
    if genus is not None:
        for letter in out:
            if abs(letter) > 2 * genus:
                raise WordError(f"letter {letter} out of range for genus {genus}")
    return tuple(out)


def format_word(word):
    parts = []
    for letter in word:
        idx = (abs(letter) - 1) // 2 + 1
        kind = "a" if abs(letter) % 2 == 1 else "b"
        if letter < 0:
            kind = kind.upper()
        parts.append(f"{kind}{idx}")
    return "".join(parts)


def surface_relator(genus):
    rel = []
    for i in range(genus):
        a, b = 2 * i + 1, 2 * i + 2
        rel += [a, b, -a, -b]
    return tuple(rel)


class SurfacePresentation:
    """The standard one-relator presentation of the genus-g surface group."""

    def __init__(self, genus):
        if genus < 2:
            raise WordError(f"genus must be >= 2, got {genus}")
        self.genus = genus
        self.relator = surface_relator(genus)
        self._half = 2 * genus  # half the relator length
        self._table = self._majority_table()

    def _majority_table(self):
        """Map each (2g+1)-letter subword of a rotation of r or r^-1 to the
        inverse of its complement (which is 2 letters shorter)."""
        table = {}
        length = len(self.relator)
        window = self._half + 1
        for base in (self.relator, inverse_word(self.relator)):
            for shift in range(length):
                rot = base[shift:] + base[:shift]
                table[rot[:window]] = inverse_word(rot[window:])
        return table

    def dehn_reduce(self, word):
        """Fully reduce a cyclic word; returns () exactly for trivial elements."""
        w = cyclic_reduce(word)
        window = self._half + 1
        table = self._table
        while len(w) >= window:
            doubled = w + w[: window - 1]
            for pos in range(len(w)):
                gram = doubled[pos : pos + window]
                if gram in table:
                    rotated = w[pos:] + w[:pos]
                    w = cyclic_reduce(table[gram] + rotated[window:])
                    break
            else:
                return w
        return w

    def is_trivial(self, word):
        return len(self.dehn_reduce(word)) == 0

    def words_equal(self, u, v):
        ru, rv = free_reduce(u), free_reduce(v)
        if ru == rv:
            return True
        return self.is_trivial(ru + inverse_word(rv))

    def __repr__(self):
        return f"SurfacePresentation(genus={self.genus})"


def cover_genus(genus, degree):
    """Genus of an unbranched degree-d cover of a genus-g surface: d(g-1)+1."""
    if genus < 2:
        raise WordError(f"genus must be >= 2, got {genus}")
    if degree < 1:
        raise WordError(f"degree must be >= 1, got {degree}")
    return degree * (genus - 1) + 1
