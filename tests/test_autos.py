"""Automorphism generators: well-definedness, inverses, the symplectic action
on mod-2 homology, orbits of homomorphisms, and closure certification."""

import pytest

from mcglift.autos import (
    AutError,
    SurfaceAuto,
    certify_characteristic,
    identity_auto,
    inner_auto,
    orbit,
    precompose,
    standard_autgens,
)
from mcglift.perm import EnumerationBoundExceeded, PermGroup, Permutation
from mcglift.quotients import FiniteHom, target_c2, target_s3
from mcglift.words import SurfacePresentation, surface_relator


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


def test_standard_autgen_roster():
    gens = standard_autgens(2)
    assert [g.name for g in gens] == [
        "ta1", "ta2", "tb1", "tb2", "neck1", "flip",
        "inn-a1", "inn-b1", "inn-a2", "inn-b2",
    ]
    assert len(standard_autgens(3)) == 15
    with pytest.raises(AutError):
        standard_autgens(1)


@pytest.mark.parametrize("genus", [2, 3, 4])
def test_every_direction_preserves_the_relation(genus):
    pres = SurfacePresentation(genus)
    for gen in standard_autgens(genus):
        for label, auto in gen.directions():
            assert auto.preserves_relator(pres), label


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
            m = auto.mod2_matrix()
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
        matrix_to_vector_perm(g.forward.mod2_matrix(), 2)
        for g in standard_autgens(2)
    ]
    assert PermGroup(perms, degree=16).order == 720


def test_precompose_matches_evaluation():
    h = s3_standard_epi()
    for gen in standard_autgens(2):
        for _, auto in gen.directions():
            moved = precompose(h, auto)
            assert moved.images == tuple(
                h.evaluate(w) for w in auto.images)
            assert moved.is_surjective()


def test_precompose_composition_consistency():
    h = s3_standard_epi()
    gens = standard_autgens(2)
    for f in (gens[0].forward, gens[4].forward, gens[5].forward):
        for g in (gens[1].forward, gens[5].forward, gens[7].backward):
            once = precompose(h, f.compose(g))
            twice = precompose(precompose(h, f), g)
            assert once.images == twice.images


def test_precompose_genus_mismatch():
    h = s3_standard_epi()
    with pytest.raises(AutError):
        precompose(h, identity_auto(3))


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
                image = precompose(rec.members[i], auto)
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


@pytest.mark.parametrize("letter", [5, -5, 8, -8, 0])
def test_auto_letters_outside_the_genus_are_rejected(letter):
    # precompose reads negative letters from the end of a row list, so an
    # out-of-range letter must never reach it
    images = [(letter,), (2,), (3,), (4,)]
    with pytest.raises(AutError):
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
    again, as a second pass after the closure."""
    from mcglift.quotients import canonical_rep_mod_auts

    members = list(members)
    index = {h.key(): i for i, h in enumerate(members)}
    permutations = {}
    for gen in gens:
        for label, auto in gen.directions():
            images = []
            for i, member in enumerate(members):
                image = precompose(member, auto)
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
