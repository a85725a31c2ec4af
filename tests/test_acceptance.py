"""Acceptance suite: ten end-to-end criteria, one test (and one printed
pass/fail line) per criterion.  Tolerances are pinned in-line; counting and
decision checks are exact with zero tolerance."""

import functools
import json
import random
import time

from mcglift.autos import certify_characteristic, orbit, standard_autgens
from mcglift.cosets import (
    CosetTable,
    alpha_apply,
    expand,
    inner_compatibility_holds,
    verify_finite_index_containment,
)
from mcglift.forge import (
    build_subdirect_image,
    collect_inequivalent_members,
    forge_certificate_hall,
    forge_certificate_s3,
    normalizer_is_self_s3,
    standard_epi,
    sylow2_s3,
)
from mcglift.perm import Permutation
from mcglift.quotients import (
    FiniteHom,
    count_homs_oracle,
    epi_tuples,
    hom_tuples,
    mod2_homology_hom,
    target_a5,
    target_c2,
    target_s3,
)
from mcglift.words import (
    SurfacePresentation,
    conjugate_word,
    cover_genus,
    free_reduce,
    inverse_word,
    surface_relator,
)
from oracle import (
    PermGroup,
    as_homs,
    borel_witness,
    normalizer_is_self,
    subgroup_witness,
)


def report(n, text):
    print(f"CRITERION {n}: PASS - {text}")


@functools.lru_cache(maxsize=None)
def full_s3_cert():
    return forge_certificate_s3(2)


@functools.lru_cache(maxsize=None)
def s3_orbit_members():
    return orbit(standard_epi(2, target_s3())).members


def random_reduced_word(rng, genus, length, root=None):
    word = [root] if root else []
    while len(word) < length:
        letter = rng.choice([s * k for k in range(1, 2 * genus + 1)
                             for s in (1, -1)])
        if word and word[-1] == -letter:
            continue
        word.append(letter)
    return tuple(word)


def test_criterion_01_counting_oracles():
    t0 = time.perf_counter()
    homs = hom_tuples(2, target_s3())
    epis = epi_tuples(target_s3(), homs)
    s3_elapsed = time.perf_counter() - t0
    assert len(homs) == 486 == count_homs_oracle(2, target_s3())
    # inclusion-exclusion over the proper subgroups of the order-6 target
    ie = (count_homs_oracle(2, target_s3())
          - 3 * count_homs_oracle(2, target_c2()) - 3**4 + 3)
    assert len(epis) == 360 == ie
    assert s3_elapsed < 1.0, f"S3 enumeration took {s3_elapsed:.2f}s"

    t0 = time.perf_counter()
    a5_homs = hom_tuples(2, target_a5())
    a5_elapsed = time.perf_counter() - t0
    assert len(a5_homs) == 286140 == count_homs_oracle(2, target_a5())
    assert a5_elapsed < 60.0, f"A5 enumeration took {a5_elapsed:.2f}s"
    report(1, f"486/360 S3 in {s3_elapsed:.2f}s, 286140 A5 in "
              f"{a5_elapsed:.2f}s, oracles agree")


def test_criterion_02_cover_genus_formula():
    rng = random.Random(41)
    assert cover_genus(2, 3) == 4
    for _ in range(100):
        g = rng.randint(2, 50)
        d = rng.randint(1, 10**6)
        # independent recomputation through the Euler characteristic:
        # chi(cover) = d * (2 - 2g), so genus' = 1 - chi/2
        chi = d * (2 - 2 * g)
        assert chi % 2 == 0
        expected = 1 - chi // 2
        assert cover_genus(g, d) == expected
    report(2, "degree-genus arithmetic matches Euler characteristic on"
              " 100 random pairs and (2,3)->4")


def structural_sylow(group):
    """`sylow2_s3`'s H as a SubgroupWitness of `group`, its certified order
    confirmed by an unhinted chain."""
    h = sylow2_s3(group)
    sub = PermGroup(h.generators, degree=group.degree)
    assert sub.order == h.order
    return subgroup_witness(group, sub)


def test_criterion_03_sylow_certification():
    cert = forge_certificate_s3(2, truncate_k=1)
    assert cert.G_order == 6 and cert.H_order == 2 and cert.degree == 3
    assert cert.check_a["pass"] is True
    unit = PermGroup(build_subdirect_image([standard_epi(2, target_s3())]))
    w1 = structural_sylow(unit)
    assert w1.sub.order == 2 and w1.index == 3
    assert normalizer_is_self(w1) is True

    gens = []
    for lo in (0, 3):
        gens.append(Permutation.from_cycles(6, [(lo, lo + 1)]))
        gens.append(Permutation.from_cycles(6, [(lo, lo + 1, lo + 2)]))
    product = PermGroup(gens, degree=6)
    assert product.order == 36
    w2 = structural_sylow(product)
    assert w2.sub.order == 4 and w2.index == 9
    assert normalizer_is_self(w2) is True
    report(3, "unit pipeline 6/2/3 and full product 36/4/9, both"
              " enumeration-verified self-normalizing")


def test_criterion_04_structural_equals_enumeration():
    members = s3_orbit_members()
    rng = random.Random(43)
    tested = 0
    while tested < 50:
        k = rng.randint(1, 6)
        chosen = rng.sample(members, k)
        group = PermGroup(build_subdirect_image(chosen))
        if group.order > 10**6:
            continue
        if group.order > 20000 and tested % 10 != 0:
            continue  # keep the enumeration side affordable, but sample big ones
        witness = structural_sylow(group)
        structural = normalizer_is_self_s3(group, witness.sub)
        enumerated = normalizer_is_self(witness)
        assert structural == enumerated, (k, group.order)
        tested += 1
    assert tested >= 50
    report(4, f"structural and enumeration normalizer decisions agree on"
              f" {tested} random subdirect images, zero tolerance")


def test_criterion_05_full_forge_valid():
    cert = full_s3_cert()
    assert cert.status == "VALID"
    assert cert.check_a["pass"] is True
    assert cert.check_b == {"pass": True, "method": "sylow-conjugacy"}
    assert cert.characteristic["pass"] is True
    assert cert.characteristic["gens"] == "standard-v1"
    assert cert.degree % 2 == 1 and cert.degree > 1
    assert cert.genus_out > 2
    assert cert.degree * cert.H_order == cert.G_order
    assert cert.G_order == 3294258113514384  # recorded, exact
    report(5, f"full S3-orbit certificate VALID: k={cert.k}, "
              f"|G|={cert.G_order}, degree={cert.degree} (odd), "
              f"genus_out={cert.genus_out}")


def test_criterion_06_hall_route():
    gens = standard_autgens(2)
    members, _ = collect_inequivalent_members(
        standard_epi(2, target_a5()), gens, 2)
    pair = PermGroup(build_subdirect_image(members))
    assert pair.order == 3600
    seed = standard_epi(2, target_a5())
    t = target_a5().generators[0]
    ti = t.inverse()
    twin = FiniteHom(target_a5(),
                     tuple(t * img * ti for img in seed.images))
    diagonal = PermGroup(build_subdirect_image([seed, twin]))
    assert diagonal.order == 60  # negative control: equivalent pair
    borel_results = {}
    for p in (5, 7, 11, 13):
        w = borel_witness(p)
        borel_results[p] = normalizer_is_self(w)
    assert all(borel_results.values()), borel_results
    report(6, "inequivalent A5 pair gives |G|=3600, equivalent pair 60;"
              " Borel subgroups self-normalizing for p in {5,7,11,13}")


def test_criterion_07_word_problem_trials():
    pres = SurfacePresentation(2)
    rel = surface_relator(2)
    rng = random.Random(47)

    for _ in range(1000):  # freely trivial words
        u = random_reduced_word(rng, 2, rng.randint(1, 10))
        assert pres.is_trivial(u + inverse_word(u))

    for _ in range(1000):  # relator-conjugate insertions, length <= 30
        u = random_reduced_word(rng, 2, rng.randint(0, 11))
        r = rel if rng.random() < 0.5 else inverse_word(rel)
        word = conjugate_word(r, u)
        assert len(word) <= 30
        assert pres.is_trivial(word)

    quotients = [mod2_homology_hom(2)]
    s3 = target_s3()
    quotients += as_homs(s3, epi_tuples(s3, hom_tuples(2, s3)))

    def quotient_witness(word):
        for hom in quotients:
            if not hom.evaluate(word).is_identity():
                return hom
        return None

    tested = 0
    while tested < 1000:  # nontrivial words, certified by a finite quotient
        root = rng.choice([1, -1, 2, -2, 3, -3, 4, -4])
        w = random_reduced_word(rng, 2, rng.randint(1, 12), root=root)
        witness = quotient_witness(w)
        if witness is None:
            continue  # no certificate available for this draw
        assert not pres.is_trivial(w), w
        tested += 1
    report(7, "1000 freely-trivial + 1000 relator-conjugate words reduce"
              " to trivial; 1000 quotient-certified words all nontrivial")


def test_criterion_08_alpha_suite():
    pres = SurfacePresentation(2)
    table = CosetTable(mod2_homology_hom(2))
    assert table.count == 2 * 2 * table.d - (table.d - 1) == 49

    gens = standard_autgens(2)
    directions = [auto for gen in gens for _, auto in gen.directions()]
    images = [alpha_apply(table, auto) for auto in directions]
    pairs = 0
    for phi, alpha_phi in zip(directions, images):
        for psi, alpha_psi in zip(directions, images):
            left = alpha_apply(table, phi.compose(psi))
            right = alpha_phi.compose(alpha_psi)
            for lv, rv in zip(left.values, right.values):
                assert lv == rv or pres.words_equal(
                    expand(lv, table), expand(rv, table))
            pairs += 1
    assert pairs == len(directions) ** 2 >= 100

    rng = random.Random(53)
    for _ in range(100):
        u = []
        for _ in range(rng.randint(1, 4)):
            w = rng.choice(table.words)
            u.extend(w if rng.random() < 0.5 else inverse_word(w))
        assert inner_compatibility_holds(table, free_reduce(u), pres)

    assert verify_finite_index_containment(table, pres) == (True, 16)
    report(8, f"restriction law on {pairs} ordered pairs, 100 inner"
              f" compatibilities, containment at index 16, 49 generators")


def test_criterion_09_determinism():
    blobs = []
    for _ in range(2):
        cert = forge_certificate_s3(2)
        blobs.append(json.dumps(cert.stable_dict(), sort_keys=True))
    assert blobs[0] == blobs[1]
    assert blobs[0] == json.dumps(full_s3_cert().stable_dict(),
                                  sort_keys=True)

    hall = [json.dumps(forge_certificate_hall(2, 5, collection=2)
                       .stable_dict(), sort_keys=True) for _ in range(2)]
    assert hall[0] == hall[1]

    table = CosetTable(mod2_homology_hom(2))
    dumps = []
    for _ in range(2):
        payload = {
            gen.name: alpha_apply(table, gen.forward).as_dict()
            for gen in standard_autgens(2)
        }
        dumps.append(json.dumps(payload, sort_keys=True))
    assert dumps[0] == dumps[1]
    report(9, "certificates and restriction tables byte-identical across"
              " reruns (timing fields excluded)")


def test_criterion_10_orbit_sanity():
    c2 = target_c2()
    seed = FiniteHom(c2, (c2.generators[0],) + (c2.identity,) * 3)
    gens = standard_autgens(2)
    rec = orbit(seed, gens)
    assert rec.k == 15
    cert = certify_characteristic(rec, rec.members)
    assert cert["pass"] is True
    victim, (label, src) = next(iter(cert["deletion_witnesses"].items()))
    assert cert["permutations"][label][src] == victim
    pruned = [m for i, m in enumerate(rec.members) if i != victim]
    broken = certify_characteristic(rec, pruned)
    assert broken["pass"] is False
    assert broken["failure"]["direction"]
    report(10, "15-member orbit closure certified; single deletion"
               " detected with an explicit witness")
