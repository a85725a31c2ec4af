"""Coset tables, Schreier generators, rewriting, and restriction of
automorphisms to finite-index subgroups."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcglift.autos import identity_auto, inner_auto, standard_autgens
from mcglift.cosets import (
    CharacteristicViolation,
    CosetError,
    CosetEscape,
    alpha_apply,
    build_coset_table,
    certified_homology_table,
    expand,
    inner_compatibility_holds,
    rewrite,
    schreier_generators,
    verify_finite_index_containment,
    verify_injectivity_mechanism,
)
from mcglift.quotients import (
    FiniteHom,
    enumerate_homs,
    mod2_homology_hom,
    target_c2,
    target_s3,
)
from mcglift.words import (
    SurfacePresentation,
    format_word,
    free_reduce,
    inverse_word,
    surface_relator,
)


def c2_functional_hom(genus, mask):
    t = target_c2()
    flip = t.generators[0]
    images = [flip if mask >> i & 1 else t.identity for i in range(2 * genus)]
    return FiniteHom(t, images)


def random_subgroup_word(rng, rs, pieces):
    word = []
    for _ in range(pieces):
        w = rng.choice(rs.words)
        word.extend(w if rng.random() < 0.5 else inverse_word(w))
    return tuple(word)


@pytest.fixture(scope="module")
def homology_table():
    return build_coset_table(mod2_homology_hom(2))


def test_index2_table_and_generator_count():
    table = build_coset_table(c2_functional_hom(2, 1))
    assert table.d == 2
    rs = schreier_generators(table)
    assert rs.count == 2 * 2 * 2 - (2 - 1) == 7
    assert len(table.tree_pairs) == 1
    assert table.schreier_reps[0] == ()


def test_homology_table_shape(homology_table):
    assert homology_table.d == 16
    rs = schreier_generators(homology_table)
    assert rs.count == 4 * 16 - 15 == 49
    assert len(table_reps := homology_table.schreier_reps) == 16
    assert all(homology_table.apply_word(r) != 0 for r in table_reps[1:])
    assert schreier_generators(homology_table) is rs  # memoized


def test_schreier_words_lie_in_the_subgroup(homology_table):
    rs = schreier_generators(homology_table)
    for w in rs.words:
        assert homology_table.contains(w)
    assert homology_table.contains(surface_relator(2))
    assert not homology_table.contains((1,))


def test_rewrite_own_word_is_single_letter(homology_table):
    rs = schreier_generators(homology_table)
    for j, w in enumerate(rs.words):
        assert rewrite(homology_table, w) == (j + 1,)
        assert rewrite(homology_table, inverse_word(w)) == (-(j + 1),)


def test_rewrite_escape(homology_table):
    with pytest.raises(CosetEscape) as err:
        rewrite(homology_table, (1,))
    assert err.value.coset != 0


def test_expand_rewrite_telescopes(homology_table):
    rs = schreier_generators(homology_table)
    rng = random.Random(29)
    for _ in range(40):
        w = random_subgroup_word(rng, rs, rng.randint(1, 5))
        assert expand(rewrite(homology_table, w), rs) == free_reduce(w)
    # and in the other direction on already-rewritten words
    for _ in range(20):
        v = rewrite(homology_table,
                    random_subgroup_word(rng, rs, rng.randint(1, 4)))
        assert rewrite(homology_table, expand(v, rs)) == v


def test_relator_rewrites_to_a_relation(homology_table):
    # the relator lies in every finite-index subgroup and must expand back
    # to something trivial
    pres = SurfacePresentation(2)
    v = rewrite(homology_table, surface_relator(2))
    rs = schreier_generators(homology_table)
    assert pres.is_trivial(expand(v, rs))


def test_alpha_identity_is_identity(homology_table):
    image = alpha_apply(homology_table, identity_auto(2))
    rs = schreier_generators(homology_table)
    assert image.values == tuple((j + 1,) for j in range(rs.count))
    assert image.is_identity_on_generators()


def test_alpha_respects_composition_sample(homology_table):
    pres = SurfacePresentation(2)
    rs = schreier_generators(homology_table)
    gens = standard_autgens(2)
    picks = [gens[0].forward, gens[5].forward, gens[2].backward]
    for f in picks:
        for g in picks:
            left = alpha_apply(homology_table, f.compose(g))
            right = alpha_apply(homology_table, f).compose(
                alpha_apply(homology_table, g))
            for lv, rv in zip(left.values, right.values):
                assert lv == rv or pres.words_equal(
                    expand(lv, rs), expand(rv, rs))


def test_alpha_image_serialization(homology_table):
    image = alpha_apply(homology_table, identity_auto(2))
    d = image.as_dict()
    assert d["y1"] == "y1"
    assert len(d) == 49
    inv = alpha_apply(homology_table, inner_auto(2, (1,)))
    assert all(isinstance(v, str) and v for v in inv.as_dict().values())


def test_characteristic_violation_on_a_single_functional_kernel():
    # the kernel of one order-2 surjection is not automorphism-invariant:
    # the flip exchanges the functionals, so restriction must fail loudly
    table = build_coset_table(c2_functional_hom(2, 1))
    flip = next(g for g in standard_autgens(2) if g.name == "flip").forward
    with pytest.raises(CharacteristicViolation):
        alpha_apply(table, flip)


def test_inner_compatibility_on_random_subgroup_words(homology_table):
    pres = SurfacePresentation(2)
    rs = schreier_generators(homology_table)
    rng = random.Random(31)
    for _ in range(30):
        u = random_subgroup_word(rng, rs, rng.randint(1, 4))
        assert inner_compatibility_holds(homology_table, u, pres)


def test_finite_index_containment(homology_table):
    ok, d = verify_finite_index_containment(homology_table)
    assert ok is True and d == 16
    table2 = build_coset_table(c2_functional_hom(2, 3))
    assert verify_finite_index_containment(table2) == (True, 2)


def test_injectivity_mechanism(homology_table):
    pres = SurfacePresentation(2)
    ident = identity_auto(2)
    assert verify_injectivity_mechanism(
        alpha_apply(homology_table, ident), ident, pres)
    for gen in standard_autgens(2):
        assert verify_injectivity_mechanism(
            alpha_apply(homology_table, gen.forward), gen.forward,
            pres), gen.name
    first = standard_autgens(2)[0].forward
    with pytest.raises(CosetError):
        verify_injectivity_mechanism(
            alpha_apply(homology_table, first), first, pres, bound=0)


def test_certified_homology_table_genus2():
    table, rec, cert = certified_homology_table(2)
    assert table.d == 16
    assert rec.k == 15
    assert cert["pass"] is True
    assert set(cert["deletion_witnesses"]) == set(range(15))


def test_certified_homology_table_genus3():
    table, rec, cert = certified_homology_table(3)
    assert table.d == 64
    assert rec.k == 63
    rs = schreier_generators(table)
    assert rs.count == 6 * 64 - 63 == 321


def test_tables_require_surjective_homs():
    t = target_c2()
    h = FiniteHom(t, (t.identity,) * 4)
    with pytest.raises(CosetError):
        build_coset_table(h)


# -- properties of rewriting on the homology2 table --------------------------

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)

genus2_letters = st.sampled_from((1, 2, 3, 4, -1, -2, -3, -4))
# a subgroup word: signed Schreier generator picks, then letter pairs x·x^-1
# inserted at arbitrary positions (taken modulo the word length)
subgroup_word_draws = st.tuples(
    st.lists(st.tuples(st.integers(0, 48), st.booleans()), max_size=6),
    st.lists(st.tuples(genus2_letters, st.integers(0, 10**4)), max_size=5),
)


def padded_subgroup_word(rs, draw):
    picks, pads = draw
    word = []
    for j, inverted in picks:
        w = rs.words[j]
        word.extend(inverse_word(w) if inverted else w)
    for x, at in pads:
        at %= len(word) + 1
        word[at:at] = [x, -x]
    return tuple(word)


def pair_index_rewrite(table, word, index=None):
    """Rewriting by pair lookup: the route rewriting took before the step
    table, kept here as an independent reference.  `index` maps each
    Schreier pair to its position; pass it when rewriting many words."""
    if index is None:
        index = pair_positions(table)
    emitted = []
    c = 0
    for letter in reversed(word):
        if letter > 0:
            pair = (c, letter)
            c = table.apply_letter(letter, c)
        else:
            c = table.apply_letter(letter, c)
            pair = (c, -letter)
        if pair in table.tree_pairs:
            continue
        i = index[pair]
        emitted.append(i + 1 if letter > 0 else -(i + 1))
    assert c == 0
    emitted.reverse()
    return free_reduce(emitted)


def pair_positions(table):
    return {pair: i
            for i, pair in enumerate(schreier_generators(table).pairs)}


def rewritten_images(table, phi):
    """The restriction of phi by the reference route: each Schreier word's
    image word, built and reduced, then rewritten by pair lookup."""
    index = pair_positions(table)
    return tuple(pair_index_rewrite(table, phi.apply_word(w), index)
                 for w in schreier_generators(table).words)


@PROPERTY_SETTINGS
@given(draw=subgroup_word_draws)
def test_rewrite_ignores_cancelling_pairs(homology_table, draw):
    rs = schreier_generators(homology_table)
    assert rs.count == 49
    w = padded_subgroup_word(rs, draw)
    v = rewrite(homology_table, w)
    assert v == rewrite(homology_table, free_reduce(w))
    assert v == pair_index_rewrite(homology_table, w)
    assert expand(v, rs) == free_reduce(w)


genus2_directions = [
    auto for g in standard_autgens(2) for _, auto in g.directions()]
# an automorphism: a composite of 1-3 factors, each a standard generator
# direction or conjugation by a short word
automorphism_factors = st.lists(
    st.one_of(
        st.sampled_from(genus2_directions),
        st.lists(genus2_letters, max_size=4).map(
            lambda u: inner_auto(2, tuple(u))),
    ),
    min_size=1, max_size=3,
)


@PROPERTY_SETTINGS
@given(factors=automorphism_factors)
def test_alpha_apply_matches_rewriting_the_image_word(homology_table,
                                                       factors):
    phi = factors[0]
    for f in factors[1:]:
        phi = phi.compose(f)
    assert alpha_apply(homology_table, phi).values == rewritten_images(
        homology_table, phi)


# -- restriction on the homology3 table: 64 cosets, 321 generators ----------

GENUS3_SETTINGS = settings(max_examples=40, deadline=None)

genus3_letters = st.sampled_from((1, 2, 3, 4, 5, 6, -1, -2, -3, -4, -5, -6))
genus3_directions = [
    auto for g in standard_autgens(3) for _, auto in g.directions()]


@pytest.fixture(scope="module")
def homology3_table():
    table = build_coset_table(mod2_homology_hom(3))
    assert table.d == 64 and schreier_generators(table).count == 321
    return table


@GENUS3_SETTINGS
@given(picks=st.lists(st.tuples(st.integers(0, 320), st.booleans()),
                      min_size=1, max_size=4))
def test_alpha_apply_genus3_inner_by_subgroup_words(homology3_table, picks):
    rs = schreier_generators(homology3_table)
    u = []
    for j, inverted in picks:
        u.extend(inverse_word(rs.words[j]) if inverted else rs.words[j])
    phi = inner_auto(3, tuple(u))
    assert alpha_apply(homology3_table, phi).values == rewritten_images(
        homology3_table, phi)


@GENUS3_SETTINGS
@given(u=st.lists(genus3_letters, max_size=8))
def test_alpha_apply_genus3_inner_by_any_word(homology3_table, u):
    # the subgroup is normal, so conjugation by any word restricts to it
    phi = inner_auto(3, tuple(u))
    assert alpha_apply(homology3_table, phi).values == rewritten_images(
        homology3_table, phi)


@GENUS3_SETTINGS
@given(factors=st.lists(st.sampled_from(genus3_directions),
                        min_size=1, max_size=4))
def test_alpha_apply_genus3_products_of_standard_generators(
        homology3_table, factors):
    phi = factors[0]
    for f in factors[1:]:
        phi = phi.compose(f)
    assert alpha_apply(homology3_table, phi).values == rewritten_images(
        homology3_table, phi)


@settings(max_examples=40, deadline=None)
@given(mask=st.integers(1, 15), auto=st.sampled_from(genus2_directions))
def test_single_functional_kernel_violation(mask, auto):
    # the kernel of the functional f is invariant under phi exactly when
    # f∘phi = f on mod-2 homology; otherwise restriction raises, naming
    # the first Schreier generator whose image leaves the subgroup and the
    # coset it reaches
    table = build_coset_table(c2_functional_hom(2, mask))
    composed = 0
    for j, column in enumerate(auto.mod2_matrix()):
        composed |= (bin(mask & column).count("1") & 1) << j
    if composed == mask:
        alpha_apply(table, auto)
        return
    rs = schreier_generators(table)
    escaping = next(w for w in rs.words
                    if not table.contains(auto.apply_word(w)))
    with pytest.raises(CharacteristicViolation) as err:
        alpha_apply(table, auto)
    assert str(err.value) == (
        f"automorphism {auto.name} moves the subgroup: image of "
        f"{format_word(escaping)} reaches coset 1")


def assert_violation_names_first_escape(table, auto):
    """Restriction raises exactly when some Schreier word's image leaves
    the subgroup, naming the first such word and the coset c whose
    transversal word t_c carries the subgroup to where its image lands."""
    rs = schreier_generators(table)
    escaping = [w for w in rs.words if not table.contains(auto.apply_word(w))]
    if not escaping:
        assert alpha_apply(table, auto).values == rewritten_images(
            table, auto)
        return False
    image = auto.apply_word(escaping[0])
    reached = [c for c, t in enumerate(table.schreier_reps)
               if table.contains(inverse_word(t) + image)]
    assert len(reached) == 1 and reached[0] != 0
    with pytest.raises(CharacteristicViolation) as err:
        alpha_apply(table, auto)
    assert str(err.value) == (
        f"automorphism {auto.name} moves the subgroup: image of "
        f"{format_word(escaping[0])} reaches coset {reached[0]}")
    return True


@settings(max_examples=40, deadline=None)
@given(mask=st.integers(1, 63), auto=st.sampled_from(genus3_directions))
def test_single_functional_kernel_violation_genus3(mask, auto):
    table = build_coset_table(c2_functional_hom(3, mask))
    composed = 0
    for j, column in enumerate(auto.mod2_matrix()):
        composed |= (bin(mask & column).count("1") & 1) << j
    assert assert_violation_names_first_escape(table, auto) == (
        composed != mask)


def test_s3_kernel_violations_name_the_reached_coset():
    # a kernel onto S3 has six cosets, so a violation can reach any of
    # cosets 1..5, not only coset 1 as for an order-2 quotient
    s3 = target_s3()
    epi = next(h for h in enumerate_homs(2, s3) if h.is_surjective())
    table = build_coset_table(epi)
    assert table.d == 6
    moved = sum(assert_violation_names_first_escape(table, auto)
                for auto in genus2_directions)
    assert 0 < moved < len(genus2_directions)
