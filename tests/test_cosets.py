"""Coset tables, Schreier generators, rewriting, and restriction of
automorphisms to finite-index subgroups."""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mcglift.autos import (
    AutError,
    SurfaceAuto,
    identity_auto,
    inner_auto,
    standard_autgens,
)
from mcglift import cosets
from mcglift.cosets import (
    AutImage,
    CharacteristicViolation,
    CosetError,
    CosetEscape,
    CosetTable,
    alpha_apply,
    certified_homology_table,
    expand,
    inner_compatibility_holds,
    rewrite,
    verify_finite_index_containment,
    verify_injectivity_mechanism,
)
from mcglift.quotients import (
    FiniteHom,
    RelatorViolation,
    epi_tuples,
    hom_tuples,
    mod2_homology_hom,
    target_a5,
    target_c2,
    target_c2k,
    target_s3,
)
from mcglift.words import (
    SurfacePresentation,
    format_word,
    free_reduce,
    inverse_word,
    surface_relator,
)
from oracle import as_homs, mod2_columns


def c2_functional_hom(genus, mask):
    t = target_c2()
    flip = t.generators[0]
    images = [flip if mask >> i & 1 else t.identity for i in range(2 * genus)]
    return FiniteHom(t, images)


def random_subgroup_word(rng, table, pieces):
    word = []
    for _ in range(pieces):
        w = rng.choice(table.words)
        word.extend(w if rng.random() < 0.5 else inverse_word(w))
    return tuple(word)


@pytest.fixture(scope="module")
def homology_table():
    return CosetTable(mod2_homology_hom(2))


def test_index2_table_and_generator_count():
    table = CosetTable(c2_functional_hom(2, 1))
    assert table.d == 2
    assert table.count == 2 * 2 * 2 - (2 - 1) == 7
    assert len(tree_entries(table)) == 1
    assert table.schreier_reps[0] == ()


def test_homology_table_shape(homology_table):
    assert homology_table.d == 16
    assert homology_table.count == 4 * 16 - 15 == 49
    assert len(table_reps := homology_table.schreier_reps) == 16
    assert all(homology_table.apply_word(r) != 0 for r in table_reps[1:])


def test_schreier_words_lie_in_the_subgroup(homology_table):
    for w in homology_table.words:
        assert homology_table.contains(w)
    assert homology_table.contains(surface_relator(2))
    assert not homology_table.contains((1,))


def test_rewrite_own_word_is_single_letter(homology_table):
    for j, w in enumerate(homology_table.words):
        assert rewrite(homology_table, w) == (j + 1,)
        assert rewrite(homology_table, inverse_word(w)) == (-(j + 1),)


def test_rewrite_escape(homology_table):
    with pytest.raises(CosetEscape) as err:
        rewrite(homology_table, (1,))
    assert err.value.coset != 0


def test_expand_rewrite_telescopes(homology_table):
    table = homology_table
    rng = random.Random(29)
    for _ in range(40):
        w = random_subgroup_word(rng, table, rng.randint(1, 5))
        assert expand(rewrite(table, w), table) == free_reduce(w)
    # and in the other direction on already-rewritten words
    for _ in range(20):
        v = rewrite(table, random_subgroup_word(rng, table, rng.randint(1, 4)))
        assert rewrite(table, expand(v, table)) == v


def test_relator_rewrites_to_a_relation(homology_table):
    # the relator lies in every finite-index subgroup and must expand back
    # to something trivial
    pres = SurfacePresentation(2)
    v = rewrite(homology_table, surface_relator(2))
    assert pres.is_trivial(expand(v, homology_table))


def test_alpha_identity_is_identity(homology_table):
    image = alpha_apply(homology_table, identity_auto(2))
    assert image.values == tuple(
        (j + 1,) for j in range(homology_table.count))
    assert image.is_identity_on_generators()


def test_alpha_respects_composition_sample(homology_table):
    pres = SurfacePresentation(2)
    gens = standard_autgens(2)
    picks = [gens[0].forward, gens[5].forward, gens[2].backward]
    for f in picks:
        for g in picks:
            left = alpha_apply(homology_table, f.compose(g))
            right = alpha_apply(homology_table, f).compose(
                alpha_apply(homology_table, g))
            for lv, rv in zip(left.values, right.values):
                assert lv == rv or pres.words_equal(
                    expand(lv, homology_table), expand(rv, homology_table))


def test_alpha_image_serialization(homology_table):
    image = alpha_apply(homology_table, identity_auto(2))
    d = image.as_dict()
    assert d["y1"] == "y1"
    assert len(d) == 49
    inv = alpha_apply(homology_table, inner_auto(2, (1,)))
    assert all(isinstance(v, str) and v for v in inv.as_dict().values())


def test_as_dict_names_each_signed_letter(homology_table):
    # the letter names are formatted once per table; the dump is still
    # yN for generator N and YN for its inverse, joined, and "1" for an
    # empty value
    n = homology_table.count
    values = ((), (1,), (-1, 2), (n, -n + 1, 3))
    image = cosets.AutImage(homology_table, values + ((),) * (n - 4))
    labels = homology_table.labels()

    def by_letter(word):
        return "".join(labels[x - 1] if x > 0 else labels[-x - 1].upper()
                       for x in word) or "1"

    d = image.as_dict()
    assert list(d) == list(labels)
    assert [d[label] for label in labels[:4]] == [
        "1", "y1", "Y1y2", f"y{n}Y{n - 1}y3"]
    assert d == {label: by_letter(v) for label, v in zip(labels, image.values)}


def test_alpha_apply_rejects_a_table_of_another_genus(homology_table):
    with pytest.raises(AutError, match="genus mismatch"):
        alpha_apply(homology_table, identity_auto(3))
    with pytest.raises(AutError, match="genus mismatch"):
        alpha_apply(CosetTable(mod2_homology_hom(3)), identity_auto(2))


def test_compose_rejects_restrictions_to_another_table(homology_table):
    other = CosetTable(c2_functional_hom(2, 1))
    mine = alpha_apply(homology_table, identity_auto(2))
    theirs = alpha_apply(other, identity_auto(2))
    with pytest.raises(CosetError, match="different tables"):
        mine.compose(theirs)
    with pytest.raises(CosetError, match="different tables"):
        theirs.compose(mine)
    assert mine.compose(mine).values == mine.values


def test_characteristic_violation_on_a_single_functional_kernel():
    # the kernel of one order-2 surjection is not automorphism-invariant:
    # the flip exchanges the functionals, so restriction must fail loudly
    table = CosetTable(c2_functional_hom(2, 1))
    flip = next(g for g in standard_autgens(2) if g.name == "flip").forward
    with pytest.raises(CharacteristicViolation):
        alpha_apply(table, flip)


def test_inner_compatibility_on_random_subgroup_words(homology_table):
    pres = SurfacePresentation(2)
    rng = random.Random(31)
    for _ in range(30):
        u = random_subgroup_word(rng, homology_table, rng.randint(1, 4))
        assert inner_compatibility_holds(homology_table, u, pres)


def test_kept_pieces_are_outside_equality_hash_and_repr(homology_table):
    image = alpha_apply(homology_table, standard_autgens(2)[3].forward)
    bare = AutImage(homology_table, image.values)
    assert image == bare and hash(image) == hash(bare)
    assert repr(image) == repr(bare)
    # through the pieces or value by value, the same composite
    for other in (image, bare):
        assert other.compose(image) == other.compose(bare)


def test_restrictions_do_not_depend_on_tables_built_before():
    # walks are memoized on each table: tables of other covers built and
    # freed in between change no restriction, of a standard generator or
    # of a composite, whose middles are longer
    autos = [g.forward for g in standard_autgens(2)]
    autos += [a.compose(b) for a in autos for b in (autos[0], autos[4])]
    table = CosetTable(mod2_homology_hom(2))
    want = [alpha_apply(table, auto).values for auto in autos]
    del table
    for mask in range(1, 16):
        CosetTable(c2_functional_hom(2, mask))
        table = CosetTable(mod2_homology_hom(2))
        assert [alpha_apply(table, auto).values for auto in autos] == want


def test_walks_are_walked_once_per_table(monkeypatch):
    # a multi-letter word is walked from every coset on its first call, as
    # `_walk` reads its rows, and read from the memo on every later one
    table = CosetTable(mod2_homology_hom(2))
    walk = cosets._walk
    calls = []

    def counted(rows, c):
        calls.append(c)
        return walk(rows, c)

    monkeypatch.setattr(cosets, "_walk", counted)
    for word in table.words[:6] + ((1, 2, -1), (4, 3, -4, -4, 2)):
        calls.clear()
        walked = table.walks(word)
        assert calls == list(range(table.d))
        rows = [table.steps[y] for y in reversed(word)]
        assert walked == tuple(walk(rows, c) for c in range(table.d))
        assert table.walks(word) is walked and len(calls) == table.d


def with_one_extra_letter(image, index):
    """The restriction with value `index` times y1: another group element,
    so a suite comparing it must count it as a mismatch."""
    values = list(image.values)
    values[index] += (1,)
    return AutImage(image.table, tuple(values))


@pytest.mark.parametrize("index", [0, 17, 48])
def test_inner_compatibility_fails_on_one_altered_value(
        homology_table, index, monkeypatch):
    # the whole-tuple comparison falls back to the word problem on a
    # mismatch, and the word problem must then see it
    pres = SurfacePresentation(2)
    u = homology_table.words[5] + inverse_word(homology_table.words[9])
    assert inner_compatibility_holds(homology_table, u, pres)
    monkeypatch.setattr(
        cosets, "alpha_apply",
        lambda table, auto: with_one_extra_letter(
            alpha_apply(table, auto), index))
    assert not inner_compatibility_holds(homology_table, u, pres)


def with_one_extra_opening_letter(image, coset):
    """The restriction in its own gauge with the opening of `coset` times
    y1, its cores and reached cosets kept: the values of every entry
    leaving or entering that coset change."""
    openings = list(image.openings)
    openings[coset] = free_reduce(openings[coset] + (1,))
    return AutImage._gauged(image.table, tuple(openings), image.reached,
                            image.cores)


@pytest.mark.parametrize("coset", [0, 5, 15])
def test_inner_compatibility_fails_on_one_altered_opening(
        homology_table, coset, monkeypatch):
    # the restriction of a conjugation matches conjugation by rewrite(u)
    # gauge to gauge; an altered opening must fall back to the values and
    # the word problem must see the mismatch
    pres = SurfacePresentation(2)
    u = homology_table.words[5] + inverse_word(homology_table.words[9])
    monkeypatch.setattr(
        cosets, "alpha_apply",
        lambda table, auto: with_one_extra_opening_letter(
            alpha_apply(table, auto), coset))
    assert not inner_compatibility_holds(homology_table, u, pres)


def test_finite_index_containment(homology_table):
    ok, d = verify_finite_index_containment(homology_table)
    assert ok is True and d == 16
    table2 = CosetTable(c2_functional_hom(2, 3))
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
    assert table.count == 6 * 64 - 63 == 321


def test_tables_require_surjective_homs():
    t = target_c2()
    h = FiniteHom(t, (t.identity,) * 4)
    with pytest.raises(CosetError):
        CosetTable(h)


# -- properties of rewriting on the homology2 table --------------------------

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)

genus2_letters = st.sampled_from((1, 2, 3, 4, -1, -2, -3, -4))
# a subgroup word: signed Schreier generator picks, then letter pairs x·x^-1
# inserted at arbitrary positions (taken modulo the word length)
subgroup_word_draws = st.tuples(
    st.lists(st.tuples(st.integers(0, 48), st.booleans()), max_size=6),
    st.lists(st.tuples(genus2_letters, st.integers(0, 10**4)), max_size=5),
)


def padded_subgroup_word(table, draw):
    picks, pads = draw
    word = []
    for j, inverted in picks:
        w = table.words[j]
        word.extend(inverse_word(w) if inverted else w)
    for x, at in pads:
        at %= len(word) + 1
        word[at:at] = [x, -x]
    return tuple(word)


def pair_index_rewrite(table, word, index=None):
    """Rewriting by pair lookup: the route rewriting took before the step
    table, kept here as an independent reference.  `index` maps each
    table entry to its Schreier generator's position, or to None on a
    tree entry; pass it when rewriting many words."""
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
        i = index[pair]
        if i is None:
            continue
        emitted.append(i + 1 if letter > 0 else -(i + 1))
    assert c == 0
    emitted.reverse()
    return free_reduce(emitted)


def tree_entries(table):
    """The (coset c, letter x) entries whose Schreier word
    t_{x·c}^-1 · x · t_c is freely trivial: the spanning tree's."""
    reps = table.schreier_reps
    return {(c, x) for c in range(table.d)
            for x in range(1, 2 * table.genus + 1)
            if not free_reduce(inverse_word(reps[table.apply_letter(x, c)])
                               + (x,) + reps[c])}


def pair_positions(table):
    """Each table entry's position among the Schreier generators; None on
    the tree entries, found by their freely trivial Schreier words."""
    positions = dict.fromkeys(tree_entries(table))
    for i, pair in enumerate(table.pairs):
        assert pair not in positions
        positions[pair] = i
    assert len(positions) == 2 * table.genus * table.d
    return positions


def rewritten_images(table, phi):
    """The restriction of phi by the reference route: each Schreier word's
    image word, built and reduced, then rewritten by pair lookup."""
    index = pair_positions(table)
    return tuple(pair_index_rewrite(table, phi.apply_word(w), index)
                 for w in table.words)


@PROPERTY_SETTINGS
@given(draw=subgroup_word_draws)
def test_rewrite_ignores_cancelling_pairs(homology_table, draw):
    assert homology_table.count == 49
    w = padded_subgroup_word(homology_table, draw)
    v = rewrite(homology_table, w)
    assert v == rewrite(homology_table, free_reduce(w))
    assert v == pair_index_rewrite(homology_table, w)
    assert expand(v, homology_table) == free_reduce(w)


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
    table = CosetTable(mod2_homology_hom(3))
    assert table.d == 64 and table.count == 321
    return table


@GENUS3_SETTINGS
@given(picks=st.lists(st.tuples(st.integers(0, 320), st.booleans()),
                      min_size=1, max_size=4))
def test_alpha_apply_genus3_inner_by_subgroup_words(homology3_table, picks):
    u = []
    for j, inverted in picks:
        w = homology3_table.words[j]
        u.extend(inverse_word(w) if inverted else w)
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
    table = CosetTable(c2_functional_hom(2, mask))
    composed = 0
    for j, column in enumerate(mod2_columns(auto)):
        composed |= (bin(mask & column).count("1") & 1) << j
    if composed == mask:
        alpha_apply(table, auto)
        return
    escaping = next(w for w in table.words
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
    escaping = [w for w in table.words
                if not table.contains(auto.apply_word(w))]
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
    table = CosetTable(c2_functional_hom(3, mask))
    composed = 0
    for j, column in enumerate(mod2_columns(auto)):
        composed |= (bin(mask & column).count("1") & 1) << j
    assert assert_violation_names_first_escape(table, auto) == (
        composed != mask)


def test_s3_kernel_violations_name_the_reached_coset():
    # a kernel onto S3 has six cosets, so a violation can reach any of
    # cosets 1..5, not only coset 1 as for an order-2 quotient
    s3 = target_s3()
    epi = as_homs(s3, epi_tuples(s3, hom_tuples(2, s3)))[0]
    table = CosetTable(epi)
    assert table.d == 6
    moved = sum(assert_violation_names_first_escape(table, auto)
                for auto in genus2_directions)
    assert 0 < moved < len(genus2_directions)


# -- restriction by shared head and tail segments -----------------------------


def s3_kernel_table():
    """The first genus-2 kernel onto S3 whose spanning tree enters a coset
    by an inverse letter, which a homology cover's tree never does."""
    s3 = target_s3()
    for hom in as_homs(s3, epi_tuples(s3, hom_tuples(2, s3))):
        table = CosetTable(hom)
        if any(rep[0] < 0 for rep in table.schreier_reps[1:]):
            return table
    raise AssertionError("no S3 kernel table with an inverse tree edge")


@pytest.fixture(scope="module", params=["homology3", "s3"])
def segment_table(request):
    if request.param == "homology3":
        return CosetTable(mod2_homology_hom(3))
    table = s3_kernel_table()
    assert table.d == 6
    assert any(rep[0] < 0 for rep in table.schreier_reps[1:])
    return table


def signed_letters(genus):
    return [letter for x in range(1, 2 * genus + 1) for letter in (x, -x)]


def padded_auto(phi, letter, at):
    """phi with letter·letter^-1 inserted into every image word, at
    position `at` taken modulo the word length: unreduced image words."""
    images = []
    for w in phi.images:
        k = at % (len(w) + 1)
        images.append(w[:k] + (letter, -letter) + w[k:])
    return SurfaceAuto(phi.genus, images, name=phi.name + "+pad")


def test_alpha_apply_conjugations_ending_in_each_letter(segment_table):
    # conjugation by u maps the letter u ends in (up to sign) to a shorter
    # image than the rest: the image left out of the shared head and tail
    genus = segment_table.genus
    rng = random.Random(37)
    for last in signed_letters(genus):
        for length in (0, 1, 5):
            u = [rng.choice(signed_letters(genus)) for _ in range(length)]
            u = list(free_reduce(u))
            while u and u[-1] == -last:
                u[-1] = rng.choice(signed_letters(genus))
                u = list(free_reduce(u))
            phi = inner_auto(genus, tuple(u) + (last,))
            assert phi.images[abs(last) - 1] == inner_auto(
                genus, tuple(u)).images[abs(last) - 1]
            assert alpha_apply(segment_table, phi).values == (
                rewritten_images(segment_table, phi))


@st.composite
def shared_segment_autos(draw, genus):
    """A conjugation, a conjugation composed with a standard generator
    direction on either side, or either of these with unreduced image
    words."""
    letters = signed_letters(genus)
    u = draw(st.lists(st.sampled_from(letters), min_size=1, max_size=8))
    phi = inner_auto(genus, tuple(u))
    kind = draw(st.sampled_from(("inner", "inn*psi", "psi*inn")))
    if kind != "inner":
        psi = draw(st.sampled_from(
            [auto for g in standard_autgens(genus)
             for _, auto in g.directions()]))
        phi = phi.compose(psi) if kind == "inn*psi" else psi.compose(phi)
    if draw(st.booleans()):
        phi = padded_auto(phi, draw(st.sampled_from(letters)),
                          draw(st.integers(0, 99)))
    return phi


@GENUS3_SETTINGS
@given(data=st.data())
def test_alpha_apply_shared_segments_match_rewriting(segment_table, data):
    # the S3 kernel is not invariant under every standard generator, so
    # there a composite may raise instead, naming the first escape
    phi = data.draw(shared_segment_autos(segment_table.genus))
    moved = assert_violation_names_first_escape(segment_table, phi)
    assert not moved or segment_table.d == 6


@settings(max_examples=40, deadline=None)
@given(mask=st.integers(1, 63), auto=st.sampled_from(genus3_directions),
       u=st.lists(genus3_letters, min_size=1, max_size=5),
       inner_first=st.booleans())
def test_factored_violation_names_the_first_escape(mask, auto, u,
                                                   inner_first):
    # conjugation fixes every kernel of an order-2 quotient, so the
    # composite moves the kernel exactly when its standard factor does,
    # and restriction must name the same first escaping generator as the
    # reference walk of each image word
    phi = inner_auto(3, tuple(u))
    phi = phi.compose(auto) if inner_first else auto.compose(phi)
    table = CosetTable(c2_functional_hom(3, mask))
    composed = 0
    for j, column in enumerate(mod2_columns(auto)):
        composed |= (bin(mask & column).count("1") & 1) << j
    assert assert_violation_names_first_escape(table, phi) == (
        composed != mask)


def test_violation_names_the_first_escape_in_table_order():
    # restriction meets the table entries letter by letter; the message
    # must still name the first escaping entry in (coset, letter) order,
    # which on these S3 kernels is sometimes not the escaping entry with
    # the least letter
    s3 = target_s3()
    epis = as_homs(s3, epi_tuples(s3, hom_tuples(2, s3))[:20])
    out_of_letter_order = 0
    for hom in epis:
        table = CosetTable(hom)
        for auto in genus2_directions:
            if assert_violation_names_first_escape(table, auto):
                escaping = [pair for pair, w in zip(table.pairs, table.words)
                            if not table.contains(auto.apply_word(w))]
                first_letter = min(x for _, x in escaping)
                out_of_letter_order += escaping[0][1] != first_letter
    assert out_of_letter_order > 0


def shared_segments_by_rescans(words):
    """The head, tail and word left out that `_shared_segments` finds, by
    rescanning the words for every choice of the word left out, or none:
    the route it took before it sorted the words once each way, kept here
    as an independent reference."""
    def common_length(words):
        first, last = min(words), max(words)
        for n, (a, b) in enumerate(zip(first, last)):
            if a != b:
                return n
        return min(len(first), len(last))

    best, segments = 0, ((), (), None)
    for skip in (None, *range(len(words))):
        kept = [w for i, w in enumerate(words) if i != skip]
        head = common_length(kept)
        tail = min(common_length([w[::-1] for w in kept]),
                   min(map(len, kept)) - head)
        if head + tail > best:
            w = kept[0]
            best, segments = head + tail, (w[:head], w[len(w) - tail:], skip)
    return segments


# two letters and their inverses, so that words repeat and choices tie
few_letters = st.sampled_from((1, -1, 2, -2))
short_words = st.lists(few_letters, max_size=3).map(tuple)


@st.composite
def segment_word_lists(draw):
    """2-8 words, each H·m·T for one drawn head H and tail T and a short
    middle m, an empty word, or a repeat of an earlier word (so the least,
    the greatest or the shortest may come twice); then maybe one odd word
    drawn on its own in place of one of them."""
    head, tail = draw(short_words), draw(short_words)
    words = []
    for _ in range(draw(st.integers(2, 8))):
        kind = draw(st.sampled_from(("shared", "shared", "empty", "repeat")))
        if kind == "empty":
            words.append(())
        elif kind == "repeat" and words:
            words.append(draw(st.sampled_from(words)))
        else:
            words.append(head + draw(short_words) + tail)
    if draw(st.booleans()):
        words[draw(st.integers(0, len(words) - 1))] = draw(
            st.lists(few_letters, max_size=8).map(tuple))
    return words


@settings(max_examples=300, deadline=None)
@given(words=segment_word_lists())
def test_shared_segments_match_the_rescans(words):
    assert cosets._shared_segments(words) == shared_segments_by_rescans(words)


def test_shared_segments_break_ties_as_the_rescans_do():
    # every word kept shares the head (1,), and so does every choice of a
    # word left out: the first choice, none, is taken
    words = [(1, 2), (1, -2), (1,)]
    assert cosets._shared_segments(words) == shared_segments_by_rescans(
        words) == ((1,), (), None)
    # leaving out word 0 shares the head (1,) and leaving out word 2 the
    # tail (1,): word 0, the first, is the one left out
    words = [(2, 1), (1, 1), (1, 2)]
    assert cosets._shared_segments(words) == shared_segments_by_rescans(
        words) == ((1,), (), 0)


def test_shared_segments_of_the_alpha_suites_match_the_rescans(
        homology3_table):
    # the image tuples of the 225 hom-law composites and the 321
    # containment conjugations of alpha --cover homology3
    gens = standard_autgens(3)
    autos = [g1.forward.compose(g2.forward) for g1 in gens for g2 in gens]
    autos += [inner_auto(3, u) for u in homology3_table.words]
    assert len(autos) == 225 + 321
    skips = set()
    for auto in autos:
        segments = cosets._shared_segments(auto.images)
        assert segments == shared_segments_by_rescans(auto.images), auto.name
        skips.add(segments[2])
    assert None in skips and len(skips) > 1


# -- composition of restrictions ----------------------------------------------


def substituted(image, other):
    """The reference composite of restrictions, image after other: each
    letter of each value of other replaced by its image word, the words
    concatenated, then freely reduced."""
    values = image.values
    return tuple(
        free_reduce([x for letter in v
                     for x in (values[letter - 1] if letter > 0
                               else inverse_word(values[-letter - 1]))])
        for v in other.values)


def gauge_image(image, word):
    """The reference image of a word under a restriction in its gauge:
    each letter replaced by its value in gauge form, the retraced opening
    of the coset its entry enters, its core and the opening of the coset
    it leaves (all inverted for an inverse letter), the pieces
    concatenated, then freely reduced."""
    table, out = image.table, []
    for letter in word:
        i = abs(letter) - 1
        c, x = table.pairs[i]
        piece = (inverse_word(image.openings[table.apply_letter(x, c)])
                 + image.cores[i] + image.openings[c])
        out.extend(piece if letter > 0 else inverse_word(piece))
    return free_reduce(out)


@st.composite
def invertible_composites(draw, genus):
    """A composite of standard generator directions and conjugations,
    with its inverse: the composite of the inverse factors, reversed."""
    directions = [pair for g in standard_autgens(genus)
                  for pair in ((g.forward, g.backward),
                               (g.backward, g.forward))]
    conjugations = st.lists(
        st.sampled_from(signed_letters(genus)), min_size=1, max_size=5).map(
            lambda u: (inner_auto(genus, tuple(u)),
                       inner_auto(genus, inverse_word(u))))
    factors = draw(st.lists(
        st.one_of(st.sampled_from(directions), conjugations),
        min_size=1, max_size=3))
    phi, inverse = factors[0]
    for f, g in factors[1:]:
        phi, inverse = phi.compose(f), g.compose(inverse)
    return phi, inverse


@pytest.fixture(scope="module", params=[2, 3])
def composition_table(request):
    return CosetTable(mod2_homology_hom(request.param))


@GENUS3_SETTINGS
@given(data=st.data())
def test_compose_is_the_substitution(composition_table, data):
    table = composition_table
    phi, phi_inverse = data.draw(invertible_composites(table.genus))
    psi, _ = data.draw(invertible_composites(table.genus))
    a, a_inverse, b = (alpha_apply(table, f) for f in (phi, phi_inverse, psi))
    assert a.compose(b).values == substituted(a, b)
    assert b.compose(a).values == substituted(b, a)
    # phi after phi^-1 and back: the images cancel at their junctions down
    # to one letter each
    identity = tuple((j + 1,) for j in range(table.count))
    assert a.compose(a_inverse).values == substituted(a, a_inverse) == identity
    assert a_inverse.compose(a).values == substituted(a_inverse, a) == identity


def test_compose_with_the_identity_restriction(composition_table):
    # each generator restriction after the identity's and before it
    table = composition_table
    identity = alpha_apply(table, identity_auto(table.genus))
    for g in standard_autgens(table.genus):
        image = alpha_apply(table, g.forward)
        assert image.compose(identity).values == image.values, g.name
        assert identity.compose(image).values == image.values, g.name


@pytest.mark.parametrize("index", [0, 7, 20])
def test_compose_with_a_conjugation(composition_table, index):
    # conjugation by a Schreier word opens every coset with one word, kept
    # once, and every coset reaches itself; composed with each generator
    # restriction, either way round, it is still the substitution of its
    # values
    table = composition_table
    conjugation = alpha_apply(
        table, inner_auto(table.genus, table.words[index]))
    assert len(set(map(id, conjugation.openings))) == 1
    assert conjugation.reached == tuple(range(table.d))
    for g in standard_autgens(table.genus):
        image = alpha_apply(table, g.forward)
        for a, b in ((conjugation, image), (image, conjugation)):
            assert a.compose(b).values == tuple(
                gauge_image(a, v) for v in b.values) == (
                substituted(a, b)), g.name


# -- the gauge form ------------------------------------------------------------


@st.composite
def restricted(draw, table):
    """A product of standard generators or a conjugation by a subgroup
    word, which preserves the subgroup of the table."""
    gens = [g.forward for g in standard_autgens(table.genus)]
    if draw(st.booleans()):
        phi = identity_auto(table.genus)
        for f in draw(st.lists(st.sampled_from(gens), min_size=1,
                               max_size=3)):
            phi = phi.compose(f)
    else:
        picks = draw(st.lists(st.tuples(
            st.sampled_from(table.words), st.booleans()), min_size=1,
            max_size=3))
        phi = inner_auto(table.genus, tuple(
            x for w, inverted in picks
            for x in (inverse_word(w) if inverted else w)))
    return phi


def values_only(image):
    return AutImage(image.table, image.values)


@PROPERTY_SETTINGS
@given(data=st.data())
def test_values_are_the_gauge_joined(homology_table, data):
    table = homology_table
    image = alpha_apply(table, data.draw(restricted(table)))
    assert image.values == tuple(
        free_reduce(inverse_word(image.openings[table.apply_letter(x, c)])
                    + core + image.openings[c])
        for (c, x), core in zip(table.pairs, image.cores))
    bare = values_only(image)
    assert bare.cores == bare.values == image.values
    assert set(bare.openings) == {()}
    assert bare.reached == tuple(range(table.d))


@PROPERTY_SETTINGS
@given(data=st.data())
def test_compose_is_the_image_of_each_value_in_every_gauge(homology_table,
                                                           data):
    # each side in its own gauge or the trivial one: the same composite;
    # and a composite, in the gauge compose gives it, composed again
    a, b, c = (alpha_apply(homology_table,
                           data.draw(restricted(homology_table)))
               for _ in range(3))
    want = substituted(a, b)
    for left in (a, values_only(a)):
        for right in (b, values_only(b)):
            assert left.compose(right).values == tuple(
                gauge_image(left, v) for v in right.values) == want
    ab = a.compose(b)
    assert ab.compose(c).values == substituted(ab, c)
    assert c.compose(ab).values == substituted(c, ab)


def test_compose_maps_each_distinct_opening_once(homology3_table,
                                                 monkeypatch):
    # every composition of two generator restrictions at genus 3 maps each
    # distinct nonempty opening object of its right factor once, and each
    # nonempty core it does not read by lookup; an empty core is joined
    # from two openings without a walk.  Mapping every coset's opening
    # would take 64 calls, plus those cores
    table = homology3_table
    images = [alpha_apply(table, g.forward) for g in standard_autgens(3)]
    through = AutImage._through
    calls = []

    def counted(self, word, t, e=None):
        calls.append(word)
        return through(self, word, t, e)

    monkeypatch.setattr(AutImage, "_through", counted)
    for a in images:
        for b in images:
            calls.clear()
            a.compose(b)
            distinct = len({id(w) for w in b.openings if w})
            assert len(calls) <= distinct + sum(
                1 for i in b._plan[1] if b.cores[i])


@PROPERTY_SETTINGS
@given(data=st.data())
def test_compose_joins_the_prefix_of_a_shared_opening(homology_table, data):
    # the right factor opens several cosets with one word object W and
    # reaches cosets where the left factor's openings differ: each of
    # those composite openings is O_t · a(W), the image of W mapped once
    # behind the prefix of its own reached coset t
    table = homology_table
    a = alpha_apply(table, data.draw(st.sampled_from(
        [g.forward for g in standard_autgens(2)])))
    b = alpha_apply(table, data.draw(restricted(table)))
    n = table.count
    shared = free_reduce(data.draw(st.lists(st.sampled_from(
        [j for j in range(-n, n + 1) if j]), min_size=1, max_size=4)))
    assume(shared)
    sharing = data.draw(st.sets(st.integers(0, table.d - 1), min_size=2))
    reached = tuple(data.draw(st.lists(st.integers(0, table.d - 1),
                                       min_size=table.d, max_size=table.d)))
    origin, x = table.pairs[abs(shared[0]) - 1]
    enters = table.apply_letter(x, origin) if shared[0] > 0 else origin
    assume(any(a.openings[reached[c]] != a.openings[enters]
               for c in sharing))
    right = AutImage._gauged(
        table, tuple(shared if c in sharing else w
                     for c, w in enumerate(b.openings)), reached, b.cores)
    composite = a.compose(right)
    image = gauge_image(a, shared)
    for c in sharing:
        assert composite.openings[c] == free_reduce(
            a.openings[reached[c]] + image)
    assert composite.values == substituted(a, right) == tuple(
        gauge_image(a, v) for v in right.values)


@PROPERTY_SETTINGS
@given(data=st.data())
def test_equality_is_equality_of_values(homology_table, data):
    # a composite restricted directly and composed from its factors has
    # the same values, in the same gauge or another; a core or an opening
    # altered gives other values in the same openings or other ones
    table = homology_table
    phi, psi = (data.draw(restricted(table)) for _ in range(2))
    a, b = alpha_apply(table, phi), alpha_apply(table, psi)
    composite = a.compose(b)
    cores = list(composite.cores)
    cores[0] = free_reduce(cores[0] + (1,))
    images = [a, b, composite, alpha_apply(table, phi.compose(psi)),
              values_only(composite),
              AutImage._gauged(table, composite.openings,
                               composite.reached, tuple(cores)),
              with_one_extra_opening_letter(composite, 0)]
    for x in images:
        for y in images:
            assert (x == y) == (x.values == y.values)
            if x.values == y.values:
                assert hash(x) == hash(y)


def out_of_range_letters(count):
    # a tuple indexed by the signed letter would wrap 0 and every letter
    # from count+1 to 2*count, of either sign, onto another generator
    return (0, count + 1, -count - 1, 2 * count, -2 * count, 2 * count + 1)


def test_expand_rejects_letters_outside_the_generators(homology_table):
    n = homology_table.count
    assert expand((n, -n), homology_table) == ()
    for letter in out_of_range_letters(n):
        message = f"letter {letter} is outside the {n} Schreier generators"
        for word in ((letter,), (1, letter, -1)):
            with pytest.raises(CosetError, match=message):
                expand(word, homology_table)
        # the injectivity check's expansion bound reads the same table
        with pytest.raises(CosetError, match=message):
            verify_injectivity_mechanism(
                AutImage(homology_table, ((letter,),)), identity_auto(2))


def test_compose_rejects_letters_outside_the_generators(homology_table):
    image = alpha_apply(homology_table, standard_autgens(2)[0].forward)
    n = homology_table.count
    assert image.compose(AutImage(homology_table, ((n,), (-n,)))).values == (
        image.values[-1], inverse_word(image.values[-1]))
    for letter in out_of_range_letters(n):
        message = f"letter {letter} is outside the {n} Schreier generators"
        # a one-letter value, and a value joined letter by letter
        for value in ((letter,), (1, letter)):
            other = AutImage(homology_table, (value,) + image.values[1:])
            with pytest.raises(CosetError, match=message):
                image.compose(other)


# -- the table against a reference construction -----------------------------


class ReferenceTable:
    """The coset table as it was built before the constructor did all the
    work: the action evaluated once for the breadth-first search and again
    for the signed action rows, the spanning tree kept as a set of (coset,
    generator) entries, the Schreier generators read off the entries not in
    that set, and the step table built from the action rows on first use.
    Kept here as an independent route to `CosetTable`'s data."""

    def __init__(self, hom):
        self.genus = genus = hom.genus
        self.d = hom.target.order
        inv, right = hom.target.inv, hom.target.right

        def act(letter, point):
            x = hom.idx[abs(letter) - 1]
            if letter > 0:
                x = inv(x)
            return inv(right(x)[inv(point)])

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
        self._steps = None

        pairs = []
        words = []
        for c in range(self.d):
            for x in range(1, 2 * genus + 1):
                if (c, x) in self.tree_pairs:
                    continue
                pairs.append((c, x))
                words.append(free_reduce(inverse_word(
                    reps[self.act_pos[x - 1][c]]) + (x,) + reps[c]))
        self.pairs = tuple(pairs)
        self.words = tuple(words)

    @property
    def steps(self):
        if self._steps is None:
            index = {pair: i + 1 for i, pair in enumerate(self.pairs)}
            steps = {}
            for x in range(1, 2 * self.genus + 1):
                forward = []
                backward = []
                for c in range(self.d):
                    up = self.act_pos[x - 1][c]
                    forward.append((up, index.get((c, x), 0)))
                    down = self.act_neg[x - 1][c]
                    backward.append((down, -index.get((down, x), 0)))
                steps[x] = tuple(forward)
                steps[-x] = tuple(backward)
            self._steps = steps
        return self._steps


def assert_matches_reference(hom):
    """CosetTable(hom) holds the reference table's transversal, Schreier
    generators and steps, or both raise the same CosetError."""
    try:
        ref = ReferenceTable(hom)
    except CosetError as err:
        with pytest.raises(CosetError) as ours:
            CosetTable(hom)
        assert str(ours.value) == str(err)
        return False
    table = CosetTable(hom)
    assert table.schreier_reps == ref.schreier_reps
    assert table.pairs == ref.pairs
    assert table.words == ref.words
    assert table.steps == ref.steps
    assert list(table.steps) == list(ref.steps)
    return True


@st.composite
def homs_onto_small_targets(draw):
    """A genus 2-3 hom onto C2^k, S3 or A5: random images for all handles
    but the last, whose pair is drawn from those closing the relator."""
    genus = draw(st.integers(2, 3))
    target = draw(st.sampled_from(("c2k", "s3", "a5")))
    if target == "c2k":
        target = target_c2k(draw(st.integers(1, 2 * genus)))
    else:
        target = target_s3() if target == "s3" else target_a5()
    elements = target.elements
    head = [draw(st.sampled_from(elements)) for _ in range(2 * genus - 2)]
    closing = []
    for a in elements:
        for b in elements:
            try:
                closing.append(FiniteHom(target, head + [a, b]))
            except RelatorViolation:
                pass
    return draw(st.sampled_from(closing))


@settings(max_examples=40, deadline=None)
@given(hom=homs_onto_small_targets())
def test_table_matches_the_reference_construction(hom):
    assert_matches_reference(hom)


def test_homology3_table_matches_the_reference_construction():
    assert assert_matches_reference(mod2_homology_hom(3))


def test_intransitive_action_raises_as_the_reference_does():
    s3 = target_s3()
    assert not assert_matches_reference(
        FiniteHom(s3, [s3.generators[0], s3.identity] * 2))
