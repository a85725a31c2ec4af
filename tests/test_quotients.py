"""Finite targets, homomorphism enumeration, and the counting oracle."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcglift import quotients
from mcglift.perm import EnumerationBoundExceeded, Permutation
from mcglift.quotients import (
    FiniteHom,
    FiniteTarget,
    QuotientError,
    RelatorViolation,
    borel_subgroup,
    canonical_rep_mod_auts,
    count_homs_oracle,
    enumerate_epis,
    enumerate_homs,
    epi_tuples,
    epis_among,
    generates,
    get_target,
    hom_tuples,
    mod2_homology_hom,
    target_a5,
    target_c2,
    target_c2k,
    target_psl2,
    target_s3,
    target_trivial,
)
from mcglift.words import surface_relator
from oracle import PermGroup, borel_witness


def test_target_orders():
    assert target_trivial().order == 1
    assert target_c2().order == 2
    assert target_s3().order == 6
    assert target_a5().order == 60
    assert target_c2k(3).order == 8
    for p, order in [(5, 60), (7, 168), (11, 660), (13, 1092)]:
        target = target_psl2(p)
        assert target.order == p * (p * p - 1) // 2 == order
        assert target.degree == p + 1


def test_target_element_indexing_is_deterministic():
    t = target_s3()
    assert t.elements == tuple(sorted(t.elements))
    assert all(t.element_index[e] == i for i, e in enumerate(t.elements))
    assert t.elements[t.element_index[t.identity]] == t.identity


def test_psl2_requires_prime():
    with pytest.raises(QuotientError):
        target_psl2(4)
    with pytest.raises(QuotientError):
        target_psl2(3)


def test_get_target():
    assert get_target("s3") is target_s3()
    assert get_target("psl2", prime=5) is target_psl2(5)
    with pytest.raises(QuotientError):
        get_target("psl2")
    with pytest.raises(QuotientError):
        get_target("nope")


def test_finitehom_validation_and_evaluate():
    t = target_s3()
    x, y = t.generators
    with pytest.raises(RelatorViolation):
        FiniteHom(t, (x, y, t.identity, t.identity))
    h = FiniteHom(t, (x, y, y, x))
    assert h.genus == 2
    assert h.evaluate(()) == t.identity
    assert h.evaluate((1, 2)) == x * y
    assert h.evaluate((-1,)) == x.inverse()
    assert h.is_surjective()
    assert h.evaluate(surface_relator(2)).is_identity()
    with pytest.raises(QuotientError):
        FiniteHom(t, (x,))
    with pytest.raises(QuotientError):
        FiniteHom(t, (Permutation.identity(5),) * 4)


def test_finitehom_is_immutable():
    t = target_c2()
    h = FiniteHom(t, (t.generators[0],) * 2 + (t.identity,) * 2)
    with pytest.raises(AttributeError):
        h.images = ()


def test_hom_counts_genus2_s3():
    homs = enumerate_homs(2, target_s3())
    epis = enumerate_epis(2, target_s3())
    assert len(homs) == 486
    assert len(epis) == 360
    assert count_homs_oracle(2, target_s3()) == 486


def test_epi_count_by_inclusion_exclusion():
    # Moebius inversion over the subgroup lattice of the order-6 target:
    # |Epi| = |Hom into it| - 3|Hom onto-or-into the three order-2 subgroups|
    #         - |Hom into the order-3 subgroup| + 3|Hom into the trivial one|.
    hom_s3 = count_homs_oracle(2, target_s3())
    hom_c2 = count_homs_oracle(2, target_c2())
    hom_c3 = 3**4  # abelian target: every 4-tuple satisfies the relation
    hom_1 = 1
    expected = hom_s3 - 3 * hom_c2 - hom_c3 + 3 * hom_1
    assert expected == 360 == len(enumerate_epis(2, target_s3()))


@pytest.mark.parametrize("name", ["s3", "c2", "a5"])
def test_enumerate_epis_is_the_per_hom_filter(name):
    # one closure per image set keeps exactly the homs that one closure
    # per hom keeps, in enumeration order
    target = get_target(name)
    epis = [h.idx for h in enumerate_epis(2, target)]
    assert epis == [
        h.idx for h in enumerate_homs(2, target) if h.is_surjective()]


def test_epis_among_keeps_targets_apart():
    # the same index tuple is onto C2 but not onto S3
    c2, s3 = target_c2(), target_s3()
    one = c2.element_index[c2.generators[0]]
    onto_c2 = FiniteHom.from_indices(c2, (one, 0, 0, 0))
    into_s3 = FiniteHom.from_indices(s3, (one, 0, 0, 0))
    assert onto_c2.is_surjective() and not into_s3.is_surjective()
    assert epis_among([into_s3, onto_c2, into_s3]) == [onto_c2]
    assert epis_among([onto_c2, into_s3]) == [onto_c2]


def test_hom_counts_c2():
    assert len(enumerate_homs(2, target_c2())) == 16
    assert len(enumerate_epis(2, target_c2())) == 15
    assert count_homs_oracle(2, target_c2()) == 16


def test_hom_counts_match_oracle_more_targets():
    assert len(enumerate_homs(2, target_trivial())) == 1
    assert count_homs_oracle(2, target_trivial()) == 1
    assert len(enumerate_homs(2, target_c2k(2))) == 256
    assert count_homs_oracle(2, target_c2k(2)) == 256
    assert len(enumerate_homs(3, target_s3())) == count_homs_oracle(
        3, target_s3()) == 16038
    assert len(hom_tuples(2, target_a5())) == count_homs_oracle(
        2, target_a5()) == 286140


def test_hom_enumeration_is_lexicographic_and_deterministic():
    homs1 = enumerate_homs(2, target_c2())
    homs2 = enumerate_homs(2, target_c2())
    keys = [h.key() for h in homs1]
    assert keys == sorted(keys)
    assert [h.images for h in homs1] == [h.images for h in homs2]


def test_enumeration_budget():
    with pytest.raises(EnumerationBoundExceeded):
        enumerate_homs(2, target_a5(), budget=1000)
    with pytest.raises(QuotientError):
        enumerate_homs(1, target_c2())


def brute_force_hom_tuples(genus, target):
    """Every 2g-tuple of element indices, in `itertools.product` order, whose
    surface relator evaluates to the identity, letter by letter through the
    target's right-multiplication rows."""
    n, e = target.order, target.identity_index
    rows = [target.right(x) for x in range(n)]
    inv_rows = [rows[target.inv(x)] for x in range(n)]
    relator = [(abs(letter) - 1, letter > 0)
               for letter in surface_relator(genus)]

    def relator_image(idx):
        r = e
        for i, positive in relator:
            r = (rows if positive else inv_rows)[idx[i]][r]
        return r

    return [idx for idx in itertools.product(range(n), repeat=2 * genus)
            if relator_image(idx) == e]


@pytest.mark.parametrize("target, genus", [
    (target_c2(), 2), (target_c2(), 3), (target_c2k(2), 2),
    (target_c2k(2), 3), (target_s3(), 2), (target_s3(), 3),
], ids=lambda v: getattr(v, "name", v))
def test_hom_tuples_is_the_brute_force_list(target, genus):
    # the same tuples in the same order: 46656 candidates for S3 at genus 3
    tuples = hom_tuples(genus, target)
    assert tuples == brute_force_hom_tuples(genus, target)
    assert [h.idx for h in enumerate_homs(genus, target)] == tuples


@pytest.mark.parametrize("genus, epis", [(2, 360), (3, 15120), (4, 556920)])
def test_s3_epi_count_is_halls_eulerian_function(genus, epis):
    # route 2: Moebius inversion over the subgroup lattice of S3, from the
    # character count of Hom into S3 and |A|^(2g) homs into an abelian A
    # (the order-3 subgroup and the three order-2 ones); the hom count is
    # checked against the character count on the way
    s3 = target_s3()
    homs = hom_tuples(genus, s3)
    hom_s3 = count_homs_oracle(genus, s3)
    assert len(homs) == hom_s3
    eulerian = hom_s3 - 3 ** (2 * genus) - 3 * 2 ** (2 * genus) + 3
    assert len(epi_tuples(s3, homs)) == eulerian == epis


def test_epi_tuples_runs_one_closure_per_image_set(monkeypatch):
    # each set, of a head's images or of a tuple's, is closed at most once;
    # the tuples under the heads that generate S3 need no set of their own,
    # so 56 closures stand in for one per each of the 63 image sets
    s3 = target_s3()
    homs = hom_tuples(3, s3)
    calls = []
    generates = quotients.generates
    monkeypatch.setattr(quotients, "generates",
                        lambda target, images: calls.append(images)
                        or generates(target, images))
    epis = epi_tuples(s3, homs)
    assert len(calls) == len(set(calls)) == 56
    assert len(set(map(frozenset, homs))) == 63
    assert epis == [idx for idx in homs if generates(s3, idx)]


def per_set_epis(target, tuples):
    """The reference filter: one closure per distinct image set, read for
    every tuple."""
    onto = {}
    epis = []
    for idx in tuples:
        images = frozenset(idx)
        if images not in onto:
            onto[images] = generates(target, images)
        if onto[images]:
            epis.append(idx)
    return epis


@pytest.mark.parametrize("name, genus, shuffled", [
    ("s3", 3, False), ("a5", 2, False), ("s3", 3, True)])
def test_epi_tuples_by_shared_head_is_the_per_set_filter(name, genus,
                                                         shuffled):
    # the same epimorphisms in the same order, in the listing order of
    # hom_tuples and shuffled, where runs of one head are short
    target = get_target(name)
    tuples = hom_tuples(genus, target)
    if shuffled:
        random.Random(5).shuffle(tuples)
    assert epi_tuples(target, tuples) == per_set_epis(target, tuples)


def test_oracle_needs_character_degrees():
    # every named target stores its degrees; a target built without them
    # has no oracle
    s3 = target_s3()
    bare = FiniteTarget(s3.elements, s3.generators, "S3 without degrees")
    with pytest.raises(QuotientError, match="no stored character-degree"):
        count_homs_oracle(2, bare)


def conjugacy_class_count(target):
    """The number of orbits of the target's elements under conjugation by
    its generators."""
    gens = [(g, g.inverse()) for g in target.generators]
    seen, count = set(), 0
    for x in target.elements:
        if x in seen:
            continue
        count += 1
        seen.add(x)
        frontier = [x]
        while frontier:
            y = frontier.pop()
            for g, g_inverse in gens:
                z = g * y * g_inverse
                if z not in seen:
                    seen.add(z)
                    frontier.append(z)
    return count


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_psl2_character_degrees(p):
    # the squares of the degrees sum to the order, and there is one degree
    # per conjugacy class
    target = target_psl2(p)
    degrees = target.character_degrees
    assert sum(d * d for d in degrees) == target.order == p * (p * p - 1) // 2
    assert len(degrees) == conjugacy_class_count(target) == (p + 5) // 2
    assert all(target.order % d == 0 for d in degrees)


def test_psl2_5_has_the_degrees_of_a5():
    assert sorted(target_psl2(5).character_degrees) == sorted(
        target_a5().character_degrees)


@pytest.mark.parametrize("genus", [2, 3, 7])
@pytest.mark.parametrize("target", [target_s3(), target_a5(), target_c2k(3)],
                         ids=["s3", "a5", "c2k3"])
def test_oracle_is_the_character_sum(genus, target):
    # the integer terms against the rational sum they replace
    total = sum(Fraction(1, d ** (2 * genus - 2))
                for d in target.character_degrees)
    expected = Fraction(target.order ** (2 * genus - 1)) * total
    assert expected.denominator == 1
    assert count_homs_oracle(genus, target) == expected.numerator


def test_oracle_rejects_a_degree_that_does_not_divide_the_order():
    s3 = target_s3()
    bogus = FiniteTarget(s3.elements, s3.generators, "S3?",
                         character_degrees=(1, 1, 4))
    with pytest.raises(QuotientError, match="degree 4 does not divide"
                       " the order 6"):
        count_homs_oracle(2, bogus)


@pytest.mark.parametrize("p,order,index", [
    (5, 10, 6), (7, 21, 8), (11, 55, 12), (13, 78, 14),
])
def test_borel_subgroups(p, order, index):
    borel = borel_subgroup(p)
    assert len(borel.elements) == p * (p - 1) // 2 == order
    assert target_psl2(p).order // order == p + 1 == index
    assert borel.elements <= set(target_psl2(p).elements)
    # the subgroup fixes the point at infinity (index p): triangular action
    assert len(borel.generators) == 2
    for g in borel.generators:
        assert g in borel.elements
        assert g.images[p] == p
    # the reference chain of the factor reaches the same order and index
    w = borel_witness(p)
    assert (w.sub.order, w.index) == (order, index)
    assert w.ambient.order == target_psl2(p).order
    assert set(w.sub.elements()) == borel.elements


def test_mod2_homology_hom():
    h = mod2_homology_hom(2)
    assert h.target.order == 16
    assert h.is_surjective()
    images = h.images
    group = PermGroup(list(images), degree=h.target.degree)
    assert group.order == 16
    with pytest.raises(QuotientError):
        mod2_homology_hom(1)


def random_homs(target, elements, rng, count):
    """Seeded genus-2 homs with every image in `elements`, a subgroup of the
    target: a random first handle, then a second handle drawn from the pairs
    whose commutator cancels it."""
    by_comm = {}
    for z in elements:
        for w in elements:
            c = z * w * z.inverse() * w.inverse()
            by_comm.setdefault(c, []).append((z, w))
    homs = []
    for _ in range(count):
        x, y = rng.choice(elements), rng.choice(elements)
        z, w = rng.choice(by_comm[(x * y * x.inverse() * y.inverse()).inverse()])
        homs.append(FiniteHom(target, (x, y, z, w)))
    return homs


def chain_says_surjective(hom):
    """The reference route: the order of the image's stabilizer chain."""
    group = PermGroup(list(hom.images), degree=hom.target.degree)
    return group.order == hom.target.order


def test_is_surjective_matches_the_chain_order():
    rng = random.Random(11)
    a5 = target_a5()
    a4 = [p for p in a5.elements if p(4) == 4]
    psl7 = target_psl2(7)
    borel = borel_witness(7).sub.elements()
    cases = (random_homs(a5, list(a5.elements), rng, 30)
             + random_homs(a5, a4, rng, 15)
             + random_homs(psl7, list(psl7.elements), rng, 15)
             + random_homs(psl7, borel, rng, 15))
    seen = set()
    for hom in cases:
        assert hom.is_surjective() == chain_says_surjective(hom)
        seen.add((hom.target.name, hom.is_surjective()))
    # both answers occur on both targets
    assert seen == {("A5", True), ("A5", False),
                    ("PSL2(7)", True), ("PSL2(7)", False)}

    trivial = target_trivial()
    hom = FiniteHom(trivial, (trivial.identity,) * 4)
    assert hom.is_surjective() and chain_says_surjective(hom)
    full = mod2_homology_hom(3)
    assert full.is_surjective() and chain_says_surjective(full)
    first = full.target.generators[0]
    part = FiniteHom(full.target, (first,) * 6)
    assert not part.is_surjective() and not chain_says_surjective(part)


@pytest.mark.parametrize("target", [target_s3(), target_c2()])
def test_surjectivity_depends_only_on_the_image_set(target):
    by_set = {}
    for hom in enumerate_homs(2, target):
        by_set.setdefault(frozenset(hom.idx), []).append(hom)
    assert sum(map(len, by_set.values())) == {"S3": 486, "C2": 16}[
        target.name]
    for homs in by_set.values():
        answer = chain_says_surjective(homs[0])
        assert all(hom.is_surjective() == answer for hom in homs)


_PSL5 = target_psl2(5)
_PSL5_HOMS = (random_homs(_PSL5, list(_PSL5.elements), random.Random(5), 20)
              + random_homs(_PSL5, borel_witness(5).sub.elements(),
                            random.Random(6), 20))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, len(_PSL5_HOMS) - 1), st.data())
def test_shuffled_images_keep_surjectivity(i, data):
    # from_indices is trusted and is_surjective reads no relator, so the
    # shuffled tuple need not satisfy the surface relation
    hom = _PSL5_HOMS[i]
    shuffled = data.draw(st.permutations(hom.idx))
    assert (FiniteHom.from_indices(_PSL5, shuffled).is_surjective()
            == hom.is_surjective())


_S3_HOMS = enumerate_homs(2, target_s3())


def product_route(hom, word):
    """The image of a word as a product of `Permutation`s, letter by
    letter: the identity for the empty word, `.inverse()` for a negative
    letter."""
    result = hom.target.identity
    for letter in word:
        p = hom.images[abs(letter) - 1]
        result = result * (p.inverse() if letter < 0 else p)
    return result


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_S3_HOMS + _PSL5_HOMS),
       st.lists(st.sampled_from((1, -1, 2, -2, 3, -3, 4, -4)), max_size=24))
def test_evaluate_is_the_letter_by_letter_product(hom, word):
    value = hom.evaluate(word)
    assert isinstance(value, Permutation)
    assert value == product_route(hom, word)


def test_canonical_rep_collapses_conjugates():
    t = target_s3()
    x, y = t.generators
    h = FiniteHom(t, (x, y, y, x))
    rep = canonical_rep_mod_auts(h)
    for c in t.elements:
        ci = c.inverse()
        conj = FiniteHom(t, tuple(c * img * ci for img in h.images))
        assert canonical_rep_mod_auts(conj).key() == rep.key()


def test_canonical_rep_separates_distinct_kernels():
    t = target_c2k(2)
    e1, e2 = t.generators
    h1 = FiniteHom(t, (e1, e1, e1, e1))
    h2 = FiniteHom(t, (e2, e2, e2, e2))
    # no automorphism realization is stored for this target, so the
    # canonicalization degenerates gracefully
    with pytest.raises(QuotientError):
        t.aut_reps()
    assert h1.key() != h2.key()
