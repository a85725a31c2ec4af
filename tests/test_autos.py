"""Automorphism generators: well-definedness, inverses, the symplectic action
on mod-2 homology, orbits of homomorphisms, and closure certification."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcglift import autos
from mcglift.autos import (
    AutError,
    SurfaceAuto,
    certify_characteristic,
    identity_auto,
    inner_auto,
    orbit,
    standard_autgens,
)
from mcglift.perm import EnumerationBoundExceeded, Permutation
from mcglift.quotients import FiniteHom, target_c2, target_s3
from mcglift.words import (
    SurfacePresentation,
    conjugate_word,
    free_reduce,
    surface_relator,
)
from oracle import PermGroup, mod2_columns


def c2_functional_hom(genus, mask):
    """The order-2 surjection reading the parities selected by the mask."""
    t = target_c2()
    flip = t.generators[0]
    images = [flip if mask >> i & 1 else t.identity for i in range(2 * genus)]
    return FiniteHom(t, images)


def s3_standard_epi():
    t = target_s3()
    x, y = t.generators
    return FiniteHom(t, (x, y, y, x))


def moved(hom, auto):
    """hom∘auto by the permutation route: each image word evaluated by
    `FiniteHom.evaluate`, and the relator checked by the constructor."""
    return FiniteHom(hom.target, [hom.evaluate(w) for w in auto.images])


def test_standard_autgen_roster():
    gens = standard_autgens(2)
    assert [g.name for g in gens] == [
        "ta1", "ta2", "tb1", "tb2", "neck1", "flip",
        "inn-a1", "inn-b1", "inn-a2", "inn-b2",
    ]
    assert len(standard_autgens(3)) == 15
    with pytest.raises(AutError):
        standard_autgens(1)


@pytest.mark.parametrize("genus", [2, 3])
def test_standard_autgens_are_built_once_per_genus(genus):
    first, second = standard_autgens(genus), standard_autgens(genus)
    assert first == second and first is not second
    assert all(a is b for a, b in zip(first, second))
    # a caller's list is its own: changing it leaves the next call alone
    first.pop()
    first.reverse()
    assert standard_autgens(genus) == second
    for small in (1, 0, 1):
        with pytest.raises(AutError, match=f"genus must be >= 2, got {small}"):
            standard_autgens(small)


@pytest.mark.parametrize("genus", [2, 3, 4])
def test_every_direction_preserves_the_relation(genus):
    pres = SurfacePresentation(genus)
    for gen in standard_autgens(genus):
        for label, auto in gen.directions():
            assert pres.is_trivial(auto.relator_image()), label


@pytest.mark.parametrize("genus", [2, 3])
def test_generator_inverse_pairs(genus):
    pres = SurfacePresentation(genus)
    for gen in standard_autgens(genus):
        fwd, bwd = gen.forward, gen.backward
        assert fwd.compose(bwd).fixes_generators(pres), gen.name
        assert bwd.compose(fwd).fixes_generators(pres), gen.name


def test_flip_is_an_involution():
    pres = SurfacePresentation(2)
    flip = next(g for g in standard_autgens(2) if g.name == "flip").forward
    assert flip.compose(flip).fixes_generators(pres)
    assert flip.images[0] == (4,)  # a1 -> b2
    assert flip.images[3] == (1,)  # b2 -> a1


def test_inner_by_the_relator_is_trivial():
    # conjugation by the relator lies in the normal closure, so it descends
    # to the identity automorphism of the surface group
    pres = SurfacePresentation(2)
    conj = inner_auto(2, surface_relator(2))
    assert conj.fixes_generators(pres)
    assert not inner_auto(2, (1,)).fixes_generators(pres)


@st.composite
def conjugating_words(draw):
    """A genus and a word over its letters, often unreduced, often
    beginning or ending with some ±x: where w·x·w^-1 cancels."""
    genus = draw(st.integers(2, 4))
    letters = st.sampled_from(
        [x for x in range(-2 * genus, 2 * genus + 1) if x])
    word = draw(st.lists(letters, max_size=8))
    for _ in range(draw(st.integers(0, 2))):  # cancelling pairs
        y, at = draw(letters), draw(st.integers(0, len(word)))
        word[at:at] = [y, -y]
    edge = draw(letters)
    if draw(st.booleans()):
        word.insert(0, edge)
    if draw(st.booleans()):
        word.append(draw(st.sampled_from([edge, -edge])))
    return genus, tuple(word)


@settings(max_examples=200, deadline=None)
@given(drawn=conjugating_words())
def test_inner_auto_images_are_the_conjugates(drawn):
    # each image is joined at its two junctions only; it must be the full
    # free reduction of w·x·w^-1 for every generator letter x
    genus, word = drawn
    reduced = free_reduce(word)
    assert inner_auto(genus, word).images == tuple(
        conjugate_word((x,), reduced) for x in range(1, 2 * genus + 1))


def test_inner_auto_formats_its_name_only_when_read(monkeypatch):
    calls = []
    real = autos.format_word
    monkeypatch.setattr(autos, "format_word",
                        lambda word: calls.append(word) or real(word))
    auto = inner_auto(2, (1, 2, 2, -2, -1, -3))
    assert calls == []
    assert auto.name == "inn[a1b1A1A2]"
    assert auto.compose(identity_auto(2)).name == "inn[a1b1A1A2]*id"
    assert calls == [(1, 2, -1, -3)]
    assert inner_auto(2, (1,), "named").name == "named"
    assert repr(auto).startswith("SurfaceAuto(inn[a1b1A1A2]: ")


def test_apply_word_free_reduces():
    auto = inner_auto(2, (1,))
    assert auto.apply_word((1,)) == (1,)
    assert auto.apply_word((2, -2)) == ()
    assert auto.apply_word((2,)) == (1, 2, -1)


def symplectic_form(genus):
    # column bitmask matrix of the standard form: J e_{a_i} = e_{b_i}, etc.
    cols = []
    for idx in range(2 * genus):
        partner = idx + 1 if idx % 2 == 0 else idx - 1
        cols.append(1 << partner)
    return tuple(cols)


def mat_mul_f2(a, b):
    """Column-bitmask product over F2: (a @ b) column j = a applied to b_j."""
    out = []
    for col in b:
        acc = 0
        i = 0
        while col:
            if col & 1:
                acc ^= a[i]
            col >>= 1
            i += 1
        out.append(acc)
    return tuple(out)


def transpose_f2(m):
    n = len(m)
    return tuple(
        sum(((m[j] >> i) & 1) << j for j in range(n)) for i in range(n)
    )


@pytest.mark.parametrize("genus", [2, 3])
def test_mod2_matrices_preserve_the_intersection_form(genus):
    j = symplectic_form(genus)
    for gen in standard_autgens(genus):
        for label, auto in gen.directions():
            m = mod2_columns(auto)
            lhs = mat_mul_f2(transpose_f2(m), mat_mul_f2(j, m))
            assert lhs == j, label


def matrix_to_vector_perm(m, genus):
    n = 2 * genus
    images = []
    for v in range(1 << n):
        w = 0
        for i in range(n):
            if v >> i & 1:
                w ^= m[i]
        images.append(w)
    return Permutation(images)


def test_mod2_action_generates_the_full_symplectic_group():
    # order of Sp(4, F2) is 720
    perms = [
        matrix_to_vector_perm(mod2_columns(g.forward), 2)
        for g in standard_autgens(2)
    ]
    assert PermGroup(perms, degree=16).order == 720


def test_precompose_composition_consistency():
    # hom∘(f∘g) = (hom∘f)∘g, each side through `evaluate`
    h = s3_standard_epi()
    gens = standard_autgens(2)
    for f in (gens[0].forward, gens[4].forward, gens[5].forward):
        for g in (gens[1].forward, gens[5].forward, gens[7].backward):
            once = moved(h, f.compose(g))
            twice = moved(moved(h, f), g)
            assert once.images == twice.images


def test_orbit_of_order2_surjections_is_all_of_them():
    rec = orbit(c2_functional_hom(2, 1))
    assert rec.k == 15
    masks = set()
    for member in rec.members:
        flip = member.target.generators[0]
        masks.add(sum(1 << i for i, img in enumerate(member.images)
                      if img == flip))
    assert masks == set(range(1, 16))
    assert rec.mod_target_auts is False
    assert rec.generator_names == tuple(g.name for g in standard_autgens(2))


def test_orbit_restart_from_any_member_is_identical():
    rec = orbit(c2_functional_hom(2, 1))
    again = orbit(rec.members[7])
    assert [m.key() for m in again.members] == [m.key() for m in rec.members]


def test_orbit_s3_epimorphisms():
    rec = orbit(s3_standard_epi())
    assert rec.k == 360
    assert all(m.is_surjective() for m in rec.members)
    classes = orbit(s3_standard_epi(), mod_target_auts=True)
    assert classes.k == 60


def test_orbit_cap():
    with pytest.raises(EnumerationBoundExceeded):
        orbit(s3_standard_epi(), cap=5)


def test_orbit_records_the_action_of_every_direction():
    gens = standard_autgens(2)
    rec = orbit(s3_standard_epi(), gens)
    assert rec.complete is True
    assert list(rec.action) == [
        label for g in gens for label, _ in g.directions()]
    for g in gens:
        for label, auto in g.directions():
            row = rec.action[label]
            assert sorted(row) == list(range(rec.k)), label
            for i in (0, 17, rec.k - 1):
                image = moved(rec.members[i], auto)
                assert rec.members[row[i]].key() == image.key(), label


def test_orbit_stop_at_finishes_its_level_and_flags_it():
    rec = orbit(s3_standard_epi(), stop_at=2)
    assert rec.complete is False
    # the first level is finished although the second member stopped it
    assert 2 < rec.k < 360
    assert any(None in row for row in rec.action.values())
    with pytest.raises(AutError):
        certify_characteristic(rec, rec.members)


def test_certify_characteristic_pass_with_evidence():
    rec = orbit(c2_functional_hom(2, 1), standard_autgens(2))
    cert = certify_characteristic(rec, rec.members)
    assert cert["pass"] is True
    assert cert["size"] == 15
    assert len(cert["permutations"]) == 2 * len(standard_autgens(2))
    for label, images in cert["permutations"].items():
        assert sorted(images) == list(range(15)), label
    assert set(cert["deletion_witnesses"]) == set(range(15))
    for m, (label, src) in cert["deletion_witnesses"].items():
        assert cert["permutations"][label][src] == m
        assert src != m


def test_certify_characteristic_detects_deletion():
    rec = orbit(c2_functional_hom(2, 1), standard_autgens(2))
    cert = certify_characteristic(rec, rec.members)
    victim = next(iter(cert["deletion_witnesses"]))
    pruned = [m for i, m in enumerate(rec.members) if i != victim]
    broken = certify_characteristic(rec, pruned)
    assert broken["pass"] is False
    assert "direction" in broken["failure"]


@pytest.mark.parametrize("letter", [5, -5, 8, -8, 0, 2.5, -0.5])
def test_auto_letters_outside_the_genus_are_rejected(letter):
    # the table route reads negative letters from the end of a row list, so an
    # out-of-range letter must never reach it; a non-integer within the
    # range is no letter either
    images = [(letter,), (2,), (3,), (4,)]
    with pytest.raises(AutError,
                       match=r"image letters must lie in \+-1\.\.\+-4"):
        SurfaceAuto(2, images)


def test_certify_characteristic_rejects_duplicates():
    h = c2_functional_hom(2, 1)
    with pytest.raises(AutError):
        certify_characteristic(orbit(h), [h, h])


def test_certify_characteristic_rejects_a_stranger():
    rec = orbit(c2_functional_hom(2, 1))
    with pytest.raises(AutError):
        certify_characteristic(rec, [s3_standard_epi()])


def _two_pass_certificate(members, gens, mod_target_auts=False):
    """Reference: the certificate recomputed by precomposing every member
    again by the permutation route, as a second pass after the closure."""
    from mcglift.quotients import canonical_rep_mod_auts

    members = list(members)
    index = {h.key(): i for i, h in enumerate(members)}
    permutations = {}
    for gen in gens:
        for label, auto in gen.directions():
            images = []
            for i, member in enumerate(members):
                image = moved(member, auto)
                if mod_target_auts:
                    image = canonical_rep_mod_auts(image)
                j = index.get(image.key())
                if j is None:
                    return {"pass": False,
                            "failure": {"direction": label, "member": i,
                                        "escaped_to": image.key()}}
                images.append(j)
            if sorted(images) != list(range(len(members))):
                return {"pass": False,
                        "failure": {"direction": label, "member": None,
                                    "escaped_to": "not a bijection"}}
            permutations[label] = tuple(images)
    witnesses = {}
    for m in range(len(members)):
        for label, perm in permutations.items():
            hit = [i for i in range(len(members)) if perm[i] == m and i != m]
            if hit:
                witnesses[m] = (label, hit[0])
                break
    return {"pass": True, "size": len(members), "permutations": permutations,
            "deletion_witnesses": witnesses}


@pytest.mark.parametrize("seed, mod", [
    (c2_functional_hom(2, 1), False),
    (s3_standard_epi(), False),
    (s3_standard_epi(), True),
])
def test_certificate_from_the_table_matches_the_two_pass_reference(seed, mod):
    gens = standard_autgens(2)
    rec = orbit(seed, gens, mod_target_auts=mod)
    cert = certify_characteristic(rec, rec.members)
    assert cert["pass"] is True
    assert cert == _two_pass_certificate(rec.members, gens, mod)


def test_table_reading_matches_the_reference_on_prefixes_and_deletions():
    gens = standard_autgens(2)
    rec = orbit(c2_functional_hom(2, 1), gens)
    members = list(rec.members)
    subsets = [members[:n] for n in range(1, rec.k + 1)]
    subsets += [members[:i] + members[i + 1:] for i in range(rec.k)]
    for sub in subsets:
        assert (certify_characteristic(rec, sub)
                == _two_pass_certificate(sub, gens)), len(sub)


def _reference_orbit(seed, gens, mod_target_auts=False, stop_at=None):
    """Reference closure: each member's image under each direction by the
    permutation route, then `canonical_rep_mod_auts` on every image, as
    separate calls."""
    from mcglift.quotients import canonical_rep_mod_auts

    directions = [d for gen in gens for d in gen.directions()]
    start = canonical_rep_mod_auts(seed) if mod_target_auts else seed
    found = [start]
    seen = {start.key(): 0}
    rows = {label: [] for label, _ in directions}
    expanded = 0
    stopped = False
    while expanded < len(found) and not stopped:
        level = found[expanded:]
        expanded = len(found)
        for member in level:
            for label, auto in directions:
                image = moved(member, auto)
                if mod_target_auts:
                    image = canonical_rep_mod_auts(image)
                j = seen.get(image.key())
                if j is None:
                    j = seen[image.key()] = len(found)
                    found.append(image)
                    stopped = stop_at is not None and len(found) >= stop_at
                rows[label].append(j)
    order = [i for _, i in sorted(seen.items())]
    rank = sorted(range(len(order)), key=order.__getitem__)
    action = {
        label: tuple(rank[row[i]] if i < expanded else None for i in order)
        for label, row in rows.items()
    }
    return [found[i].key() for i in order], action, not stopped


def _psl2_5_epi():
    from mcglift.forge import standard_epi
    from mcglift.quotients import target_psl2

    return standard_epi(2, target_psl2(5))


@pytest.mark.parametrize("seed, genus, mod, stop_at, k", [
    (s3_standard_epi(), 2, False, None, 360),
    (s3_standard_epi(), 2, True, None, 60),
    (c2_functional_hom(3, 1), 3, False, None, 63),
    (_psl2_5_epi(), 2, True, 12, None),
    (_psl2_5_epi(), 2, True, None, 1440),
], ids=["s3-g2", "s3-g2-mod", "c2-g3", "psl2-5-stop12", "psl2-5-full"])
def test_orbit_matches_the_reference_closure(seed, genus, mod, stop_at, k):
    gens = standard_autgens(genus)
    rec = orbit(seed, gens, mod_target_auts=mod, stop_at=stop_at)
    keys, action, complete = _reference_orbit(seed, gens, mod, stop_at)
    assert [m.key() for m in rec.members] == keys
    assert rec.action == action
    assert rec.complete is complete is (stop_at is None)
    if k is not None:
        assert rec.k == k


def test_orbit_wraps_only_admitted_members(monkeypatch):
    # one FiniteHom per new member; the closure itself keeps index tuples
    calls = []
    real = FiniteHom.from_indices.__func__

    def counted(cls, target, idx):
        calls.append(idx)
        return real(cls, target, idx)

    monkeypatch.setattr(FiniteHom, "from_indices", classmethod(counted))
    rec = orbit(s3_standard_epi(), standard_autgens(2))
    assert rec.k == 360
    assert len(calls) <= rec.k


@pytest.mark.parametrize("extra", [None, "last"])
def test_orbit_rejects_generators_of_another_genus_before_evaluating(
        extra, monkeypatch):
    # a genus-3 letter read against genus-2 rows would index the wrong row
    # from the end of the row list instead of failing
    def refuse(*args):
        raise AssertionError("evaluated a word before the genus check")

    seed = s3_standard_epi()
    gens = standard_autgens(3)
    if extra:
        gens = standard_autgens(2) + gens[-1:]
    monkeypatch.setattr(FiniteHom, "evaluate", refuse)
    monkeypatch.setattr(FiniteHom, "evaluate_indices", refuse)
    with pytest.raises(AutError, match="genus mismatch"):
        orbit(seed, gens)


def test_orbit_raises_on_a_direction_that_breaks_the_relation():
    from mcglift.autos import AutGen
    from mcglift.quotients import RelatorViolation

    # a_1 -> a_1^2: the standard S3 epimorphism sends [a_1^2, b_1][a_2, b_2]
    # to a 3-cycle, so the start member already sees the breach
    square = SurfaceAuto(2, [(1, 1), (2,), (3,), (4,)], name="square-a1")
    h = s3_standard_epi()
    message = "square-a1 breaks the surface relation"
    with pytest.raises(RelatorViolation, match=message):
        orbit(h, [AutGen("square-a1", square, square)])
    gens = standard_autgens(2) + [AutGen("square-a1", square, square)]
    with pytest.raises(RelatorViolation, match=message):
        orbit(h, gens)
