"""Word arithmetic and the Dehn word-problem engine."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcglift.words import (
    SurfacePresentation,
    WordError,
    conjugate_word,
    cover_genus,
    cyclic_reduce,
    format_word,
    free_reduce,
    inverse_word,
    parse_word,
    surface_relator,
)


def random_reduced_word(rng, genus, length):
    word = []
    while len(word) < length:
        letter = rng.choice([s * k for k in range(1, 2 * genus + 1)
                             for s in (1, -1)])
        if word and word[-1] == -letter:
            continue
        word.append(letter)
    return tuple(word)


def abelianized(word, genus):
    vec = [0] * (2 * genus)
    for letter in word:
        vec[abs(letter) - 1] += 1 if letter > 0 else -1
    return tuple(vec)


def test_free_reduce_basic():
    assert free_reduce((1, -1)) == ()
    assert free_reduce((1, 2, -2, -1)) == ()
    assert free_reduce((1, 2, -2, 3)) == (1, 3)
    assert free_reduce(()) == ()
    assert free_reduce((1, 1, -1)) == (1,)


def test_free_reduce_rejects_zero():
    with pytest.raises(WordError):
        free_reduce((1, 0, -1))


def test_cyclic_reduce():
    assert cyclic_reduce((1, 2, -1)) == (2,)
    assert cyclic_reduce((1, -2, 2, -1)) == ()
    assert cyclic_reduce((1, 2)) == (1, 2)


def test_inverse_and_conjugate():
    w = (1, 2, -3)
    assert inverse_word(w) == (3, -2, -1)
    assert free_reduce(w + inverse_word(w)) == ()
    assert conjugate_word((2,), (1,)) == (1, 2, -1)
    assert conjugate_word((1,), (1,)) == (1,)


# any words over the genus-3 letters, reduced or not
words = st.lists(st.sampled_from((1, 2, 3, 4, 5, 6, -1, -2, -3, -4, -5, -6)),
                 max_size=12)


@settings(max_examples=200, deadline=None)
@given(u=words, v=words)
def test_inverse_word_properties(u, v):
    # a tuple from a list or a tuple alike, an involution, the reverse
    # order on a concatenation, and an inverse under free reduction
    for word in (u, tuple(u)):
        inverse = inverse_word(word)
        assert type(inverse) is tuple and len(inverse) == len(word)
        assert inverse_word(inverse) == tuple(word)
    assert inverse_word(u + v) == inverse_word(v) + inverse_word(u)
    assert free_reduce(tuple(u) + inverse_word(u)) == ()
    assert free_reduce(inverse_word(u) + tuple(u)) == ()


def test_parse_format_roundtrip():
    assert parse_word("a1b2A1") == (1, 4, -1)
    assert format_word((1, 4, -1)) == "a1b2A1"
    assert parse_word("a1 b1 A1 B1") == (1, 2, -1, -2)
    assert parse_word("") == ()
    rng = random.Random(7)
    for _ in range(25):
        w = random_reduced_word(rng, 3, rng.randint(0, 12))
        assert parse_word(format_word(w)) == w


def test_parse_errors():
    with pytest.raises(WordError):
        parse_word("xyz")
    with pytest.raises(WordError):
        parse_word("a0")
    with pytest.raises(WordError):
        parse_word("a3", genus=1)


def test_surface_relator_form():
    assert surface_relator(2) == (1, 2, -1, -2, 3, 4, -3, -4)
    assert len(surface_relator(5)) == 20


@pytest.mark.parametrize("genus", [2, 3, 4])
def test_relator_is_trivial(genus):
    pres = SurfacePresentation(genus)
    rel = surface_relator(genus)
    assert pres.is_trivial(rel)
    assert pres.is_trivial(inverse_word(rel))
    assert pres.is_trivial(conjugate_word(rel, (1, -2, 3)))


def test_presentation_rejects_small_genus():
    with pytest.raises(WordError):
        SurfacePresentation(1)


def test_majority_subword_reduces():
    # Five letters of the eight-letter genus-2 relator equal the inverse of
    # the remaining three.
    pres = SurfacePresentation(2)
    rel = surface_relator(2)
    head, tail = rel[:5], rel[5:]
    assert pres.words_equal(head, inverse_word(tail))
    assert len(pres.dehn_reduce(head)) <= len(tail)


def test_generators_are_nontrivial():
    pres = SurfacePresentation(2)
    for letter in (1, -1, 2, 3, 4, -4):
        assert not pres.is_trivial((letter,))
    assert not pres.is_trivial((1, 2))
    # one commutator alone is nontrivial; the relator splits it against the
    # inverse of the other
    assert not pres.is_trivial((1, 2, -1, -2))
    assert pres.words_equal((1, 2, -1, -2), inverse_word((3, 4, -3, -4)))


def test_products_of_relator_conjugates_are_trivial():
    pres = SurfacePresentation(2)
    rel = surface_relator(2)
    rng = random.Random(11)
    for _ in range(50):
        word = []
        for _ in range(rng.randint(1, 3)):
            u = random_reduced_word(rng, 2, rng.randint(0, 6))
            r = rel if rng.random() < 0.5 else inverse_word(rel)
            word.extend(conjugate_word(r, u))
        assert pres.is_trivial(tuple(word))


def test_trivial_words_stay_trivial_under_padding():
    pres = SurfacePresentation(3)
    rng = random.Random(13)
    for _ in range(30):
        w = random_reduced_word(rng, 3, rng.randint(1, 10))
        assert pres.words_equal(w, w)
        assert pres.is_trivial(w + inverse_word(w))
        u = random_reduced_word(rng, 3, rng.randint(0, 5))
        padded = w + conjugate_word(surface_relator(3), u)
        assert pres.words_equal(w, padded)


def test_abelianization_separates_words():
    # If two words differ in homology they differ in the group; the word
    # problem must never merge them.
    pres = SurfacePresentation(2)
    rng = random.Random(17)
    checked = 0
    for _ in range(80):
        u = random_reduced_word(rng, 2, rng.randint(0, 8))
        v = random_reduced_word(rng, 2, rng.randint(0, 8))
        if abelianized(u, 2) != abelianized(v, 2):
            assert not pres.words_equal(u, v)
            checked += 1
    assert checked >= 50


def test_dehn_reduce_is_stable():
    pres = SurfacePresentation(2)
    rng = random.Random(19)
    for _ in range(30):
        w = random_reduced_word(rng, 2, rng.randint(0, 14))
        reduced = pres.dehn_reduce(w)
        assert reduced == pres.dehn_reduce(reduced)
        assert free_reduce(reduced) == reduced


def test_cover_genus_values():
    assert cover_genus(2, 1) == 2
    assert cover_genus(2, 3) == 4
    assert cover_genus(2, 16) == 17
    assert cover_genus(3, 5) == 11
    with pytest.raises(WordError):
        cover_genus(1, 2)
    with pytest.raises(WordError):
        cover_genus(2, 0)
