"""Cover certificates: subdirect images, the dual-route order check, both
pipelines, and the degree sweep."""

import json
import random

import pytest

import mcglift
from mcglift import forge
from mcglift.autos import orbit, standard_autgens
from mcglift.budgets import Budgets
from mcglift.forge import (
    CoverCertificate,
    ForgeError,
    StructuralFormError,
    SubdirectError,
    _block_sign_vector,
    build_subdirect_image,
    collect_inequivalent_members,
    decimal_int,
    decimal_str,
    forge_certificate_hall,
    forge_certificate_s3,
    minimal_degree_search,
    module_rank_s3,
    parse_certificate,
    standard_epi,
    structural_order_s3,
)
from mcglift.perm import (
    EnumerationBoundExceeded,
    Permutation,
    Sylow2Stalled,
    mulclose,
)
from mcglift.quotients import (
    BorelSubgroup,
    FiniteHom,
    borel_subgroup,
    target_a5,
    target_psl2,
    target_s3,
)
from oracle import (
    PermGroup,
    borel_witness,
    normalizer_is_self,
    subgroup_witness,
)

FULL_S3_ORDER = 2**4 * 3**30
FULL_S3_DEGREE = 3**30
# the rotation x -> x + e (mod 3) of {0, 1, 2}, as an image tuple, by e
ROTATIONS = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


@pytest.fixture(scope="module")
def s3_orbit_members():
    return orbit(standard_epi(2, target_s3())).members


@pytest.fixture(scope="module")
def full_s3_certificate():
    return forge_certificate_s3(2)


def conjugated(hom, t):
    ti = t.inverse()
    return FiniteHom(hom.target, tuple(t * img * ti for img in hom.images))


def test_standard_epi_shape():
    h = standard_epi(3, target_s3())
    x, y = target_s3().generators
    assert h.images == (x, y, y, x, target_s3().identity,
                        target_s3().identity)
    assert h.is_surjective()


def test_build_subdirect_single_factor():
    gens = build_subdirect_image([standard_epi(2, target_s3())])
    assert len(gens) == 4
    assert all(g.degree == 3 for g in gens)
    assert PermGroup(gens).order == 6


def test_build_subdirect_rejects_bad_members():
    t = target_s3()
    with pytest.raises(SubdirectError):
        build_subdirect_image([])
    non_epi = FiniteHom(t, (t.identity,) * 4)
    with pytest.raises(SubdirectError):
        build_subdirect_image([non_epi])


@pytest.mark.parametrize("genus, target", [(3, target_s3), (2, target_a5)])
def test_build_subdirect_rejects_mixed_members(genus, target):
    other = standard_epi(genus, target())
    with pytest.raises(SubdirectError) as e:
        build_subdirect_image([standard_epi(2, target_s3()), other])
    assert str(e.value) == "members disagree in genus or target"


def test_structural_order_matches_chain_small_k(s3_orbit_members):
    for k in (1, 2, 3, 4):
        members = list(s3_orbit_members[:k])
        structural = structural_order_s3(members)
        # independent chain, no hints
        group = PermGroup(build_subdirect_image(members))
        assert group.order == structural["order"]
        assert structural["order"] == (
            2 ** structural["two_rank"] * 3 ** structural["three_rank"])


def test_structural_order_random_subsets(s3_orbit_members):
    rng = random.Random(37)
    for _ in range(12):
        k = rng.randint(1, 6)
        members = rng.sample(s3_orbit_members, k)
        structural = structural_order_s3(members)
        group = PermGroup(build_subdirect_image(members))
        assert group.order == structural["order"]


def test_odd_basis_lies_in_the_image_and_is_even(s3_orbit_members):
    rng = random.Random(11)
    for k in range(1, 7):
        members = rng.sample(s3_orbit_members, k)
        structural = structural_order_s3(members)
        group = PermGroup(build_subdirect_image(members))  # no hints
        assert len(structural["odd_rows"]) == structural["three_rank"]
        for row in structural["odd_rows"]:
            assert len(row) == k
            element = Permutation.from_blocks([ROTATIONS[e] for e in row])
            assert element in group
            assert _block_sign_vector(element, k) == 0


def test_structural_order_requires_s3():
    with pytest.raises(SubdirectError):
        structural_order_s3([standard_epi(2, target_a5())])
    with pytest.raises(SubdirectError):
        module_rank_s3([standard_epi(2, target_a5())])


def linear_ranks(members):
    """(r, m) from the module closure and from Reidemeister-Schreier."""
    return [(route["two_rank"], route["three_rank"], route["order"])
            for route in (module_rank_s3(members),
                          structural_order_s3(members))]


def test_module_closure_matches_reidemeister_schreier_genus2(
        s3_orbit_members):
    # 300 random sub-lists of the genus-2 orbit, and the whole orbit; up to
    # k = 6 an unhinted chain gives the order a third time
    rng = random.Random(2)
    pairs = set()
    for trial in range(300):
        k = rng.randint(1, 6) if trial % 3 == 0 else rng.randint(1, 360)
        members = rng.sample(s3_orbit_members, k)
        module, structural = linear_ranks(members)
        assert module == structural, (trial, k)
        r, m, order = module
        assert order == 2**r * 3**m
        if k <= 6:
            assert PermGroup(build_subdirect_image(members)).order == order
        pairs.add((r, m))
    assert linear_ranks(s3_orbit_members) == [(4, 30, FULL_S3_ORDER)] * 2
    assert len(pairs) > 20


@pytest.fixture(scope="module")
def genus3_orbit_members():
    return orbit(standard_epi(3, target_s3()), standard_autgens(3)).members


def test_module_closure_matches_reidemeister_schreier_genus3(
        genus3_orbit_members):
    # 50 random sub-lists of 1-300 members of the 15120-member genus-3 orbit
    assert len(genus3_orbit_members) == 15120
    rng = random.Random(3)
    pairs = set()
    for _ in range(50):
        members = rng.sample(genus3_orbit_members, rng.randint(1, 300))
        module, structural = linear_ranks(members)
        assert module == structural, len(members)
        pairs.add(module[:2])
    assert len(pairs) > 20


def schreier_values_check(members):
    """Route 2's transversal evaluation of the Schreier generators against
    each generator word walked letter by letter; returns the table."""
    sign_rows, odd, shift = forge._s3_signs(members)
    _, table = forge._sign_kernel_table(sign_rows)
    by_transversal = list(forge._schreier_values(members, table))
    by_word = [bytes(m.evaluate_indices(table.words)) for m in members]
    assert by_transversal == by_word
    assert (forge._exponent_columns(by_transversal, odd, shift, "")
            == forge._exponent_columns(by_word, odd, shift, ""))
    return table


def test_transversal_schreier_values_match_the_words_genus2(
        s3_orbit_members):
    table = schreier_values_check(s3_orbit_members)
    assert (table.d, table.count) == (16, 49)
    rng = random.Random(4)
    for _ in range(20):
        schreier_values_check(rng.sample(s3_orbit_members, rng.randint(1, 40)))


def test_transversal_schreier_values_match_the_words_genus3(
        genus3_orbit_members):
    rng = random.Random(5)
    table = schreier_values_check(rng.sample(genus3_orbit_members, 600))
    assert (table.d, table.count) == (64, 321)
    for _ in range(10):
        schreier_values_check(
            rng.sample(genus3_orbit_members, rng.randint(1, 200)))


def test_module_seeds_are_the_relators_of_the_sign_image(s3_orbit_members):
    # genus 2, whole orbit: r = 4, so 4 squares, 6 commutators, and no other
    # generator; k = 2 members give r = 3 and one word g w_g^-1
    sign_rows, _, _ = forge._s3_signs(s3_orbit_members)
    basis, _ = forge._independent_rows(sign_rows, 2)
    assert basis == [0, 1, 2, 3]
    seeds = forge._module_seeds(sign_rows, basis)
    assert seeds[:4] == [(1, 1), (2, 2), (3, 3), (4, 4)]
    assert seeds[4:] == [(a, b, -a, -b) for a in range(1, 5)
                         for b in range(a + 1, 5)]
    rows = [0b01, 0b10, 0b11, 0b01]
    assert forge._module_seeds(rows, [0, 1]) == [
        (1, 1), (2, 2), (1, 2, -1, -2), (3, -2, -1), (4, -1)]


def test_module_seed_that_is_a_transposition_raises(monkeypatch,
                                                    s3_orbit_members):
    # single generators posing as seeds: some factor sends one of them to a
    # transposition, which the construction forbids
    monkeypatch.setattr(forge, "_module_seeds",
                        lambda rows, basis: [(1,), (2,), (3,), (4,)])
    with pytest.raises(RuntimeError,
                       match="module seed evaluates to a transposition"):
        module_rank_s3(s3_orbit_members)


def test_unit_pipeline_is_flagged_invalid():
    cert = forge_certificate_s3(2, truncate_k=1)
    assert (cert.G_order, cert.H_order, cert.degree, cert.genus_out) == (
        6, 2, 3, 4)
    assert cert.check_a["pass"] is True
    assert cert.check_b["pass"] is True
    assert cert.characteristic["pass"] is False
    assert "failure" in cert.characteristic
    assert cert.status == "INVALID"
    assert cert.valid is False


def test_truncated_pair_pipeline():
    cert = forge_certificate_s3(2, truncate_k=2)
    assert (cert.G_order, cert.H_order, cert.degree, cert.genus_out) == (
        36, 4, 9, 10)
    assert cert.status == "INVALID"


S3_STAGES = ("orbit_s", "characteristic_s", "group_s", "sylow_s")


@pytest.mark.parametrize("name, error, stage, stages", [
    ("sylow2_s3", Sylow2Stalled, "sylow2", S3_STAGES),
    ("normalizer_is_self_s3", StructuralFormError, "normalizer",
     S3_STAGES + ("normalizer_s",)),
])
def test_s3_stage_failure_stops_invalid(monkeypatch, name, error, stage,
                                        stages):
    def fail(*args, **kwargs):
        raise error("forced failure")

    monkeypatch.setattr(forge, name, fail)
    cert = forge_certificate_s3(2)
    assert cert.status == "INVALID"
    assert cert.failing_stage == f"{stage}: forced failure"
    not_run = {"pass": False, "method": "not-run"}
    assert cert.check_a == cert.check_b == not_run
    assert cert.k == 360
    assert (cert.G_order, cert.H_order, cert.degree) == (0, 0, 0)
    assert cert.K_trivial is False
    assert set(cert.timing) == set(stages)


def test_full_s3_certificate_is_valid(full_s3_certificate):
    cert = full_s3_certificate
    assert cert.status == "VALID" and cert.valid
    assert cert.k == 360
    assert cert.G_order == FULL_S3_ORDER == 3294258113514384
    assert cert.H_order == 16
    assert cert.degree == FULL_S3_DEGREE == 205891132094649
    assert cert.degree % 2 == 1
    assert cert.genus_out == FULL_S3_DEGREE + 1
    assert cert.check_a == {"pass": True, "method": "structural"}
    assert cert.check_b["pass"] is True
    assert cert.characteristic["pass"] is True
    assert cert.K_trivial is True
    assert cert.order_structure == {"two_rank": 4, "three_rank": 30}


def test_full_s3_certificate_schema(full_s3_certificate):
    data = full_s3_certificate.stable_dict()
    assert data["version"] == "1"
    assert data["G_order"] == "3294258113514384"
    assert data["degree"] == "205891132094649"
    assert set(data["checks"]) == {"a", "b", "characteristic"}
    assert "timing" not in data
    assert "timing" in full_s3_certificate.json_dict()
    # survives a JSON round-trip exactly
    parsed = parse_certificate(
        json.loads(json.dumps(full_s3_certificate.json_dict())))
    assert parsed.G_order == full_s3_certificate.G_order
    assert parsed.degree == full_s3_certificate.degree
    assert parsed.status == "VALID"


@pytest.fixture(scope="module")
def partial_s3_certificate():
    return forge_certificate_s3(2, budgets=Budgets(points=100))


@pytest.mark.parametrize("name",
                         ["full_s3_certificate", "partial_s3_certificate"])
def test_certificates_round_trip_through_parse_certificate(name, request):
    cert = request.getfixturevalue(name)
    for data in (cert.stable_dict(), cert.json_dict()):
        parsed = parse_certificate(json.loads(json.dumps(data)))
        assert parsed.stable_dict() == cert.stable_dict()
    assert parse_certificate(cert.json_dict()) == cert
    assert parse_certificate(cert.stable_dict()).timing == {}


@pytest.mark.parametrize("version", ["0", "2", 1, None])
def test_parse_certificate_rejects_other_versions(version,
                                                  partial_s3_certificate):
    data = partial_s3_certificate.stable_dict()
    data["version"] = version
    with pytest.raises(ForgeError, match="certificate version"):
        parse_certificate(data)


@pytest.mark.parametrize("path", [
    ("route",), ("k",), ("G_order",), ("checks",), ("checks", "b"),
    ("status",), ("failing_stage",), ("order_structure",),
])
def test_parse_certificate_rejects_a_dropped_field(path,
                                                   partial_s3_certificate):
    data = json.loads(json.dumps(partial_s3_certificate.json_dict()))
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    del parent[path[-1]]
    with pytest.raises(ForgeError, match=f"'{path[-1]}' is missing"):
        parse_certificate(data)


def huge_hall_certificate():
    """A hall certificate at p = 7 with k = 2000, |G| = 168^2000: 4451
    digits, past the 4300 that str() and int() accept on Python 3.11+."""
    k = 2000
    passed = {"pass": True, "method": "structural"}
    return CoverCertificate(
        route="hall-psl2(7)", genus_in=2, k=k, G_order=168**k,
        H_order=21**k, degree=8**k, genus_out=8**k + 1, check_a=passed,
        check_b=dict(passed), characteristic={"pass": False},
        K_trivial=True, seed_material={"seed": 0}, status="INVALID",
        order_structure={"factor_order": 168, "factors": k})


def test_orders_past_4300_digits_round_trip():
    cert = huge_hall_certificate()
    data = cert.stable_dict()
    text = data["G_order"]
    assert len(text) == 4451 and text.isdigit()
    # the digits, checked a part at a time within the conversion limit
    assert int(text[-4000:]) == cert.G_order % 10**4000
    assert int(text[:-4000]) == cert.G_order // 10**4000
    assert parse_certificate(json.loads(json.dumps(data))) == cert


@pytest.mark.parametrize("n", [0, 7, 10**4000 - 1, 10**4000, 2**13300 + 1],
                         ids=["0", "7", "10^4000-1", "10^4000", "2^13300+1"])
def test_decimal_str_writes_what_str_writes(n):
    # existing certificates keep their bytes: below the limit it is str()
    assert decimal_str(n) == str(n)
    assert decimal_int(str(n)) == n


@pytest.mark.parametrize("n", [
    10**5000, 10**9000 - 1, 3**30000, 12345 * 10**6000,
], ids=["10^5000", "10^9000-1", "3^30000", "12345*10^6000"])
def test_decimal_helpers_invert_each_other_past_the_limit(n):
    text = decimal_str(n)
    assert text.isdigit() and text[0] != "0"
    assert decimal_int(text) == n
    assert decimal_int("000" + text) == n


@pytest.mark.parametrize("bad", [
    "1" * 4400 + " ", "-" + "1" * 4400, "1" * 2200 + "_" + "1" * 2200,
], ids=["space", "sign", "underscore"])
def test_decimal_int_rejects_a_long_non_decimal_string(bad):
    with pytest.raises(ValueError):
        decimal_int(bad)


def test_search_ranks_degrees_past_4300_digits(monkeypatch):
    monkeypatch.setattr(forge, "forge_certificate_hall",
                        lambda *args, **kwargs: huge_hall_certificate())
    report = minimal_degree_search(2, routes=("hall",), budget=2)
    degrees = [job["degree"] for job in report["jobs"]]
    assert degrees == [decimal_str(8**2000)] * 2
    assert report["best_flagged"] is report["jobs"][0]


def test_s3_point_cap_gives_partial(monkeypatch):
    def refuse(members):
        raise AssertionError("structural order ran past the point budget")

    # the budget is checked before either linear route would run
    monkeypatch.setattr(forge, "structural_order_s3", refuse)
    monkeypatch.setattr(forge, "module_rank_s3", refuse)
    cert = forge_certificate_s3(2, budgets=Budgets(points=100))
    assert cert.status == "PARTIAL"
    assert cert.k == 360
    assert cert.G_order == 0
    assert cert.failing_stage.startswith("subdirect-image: 1080 points")


def test_hall_point_cap_gives_partial():
    cert = forge_certificate_hall(2, 5, collection=2,
                                  budgets=Budgets(points=5))
    assert cert.status == "PARTIAL"
    assert cert.k == 2
    assert cert.G_order == 0
    assert cert.failing_stage.startswith("subdirect-image: 12 points")
    assert {"collection_s", "group_s"} <= set(cert.timing)


def test_hall_non_surjective_member_stays_invalid():
    target = target_psl2(5)
    seed = standard_epi(2, target)
    non_epi = FiniteHom(target, (target.identity,) * 4)
    cert = forge_certificate_hall(2, 5, members=[seed, non_epi])
    assert cert.status == "INVALID"
    assert cert.failing_stage == "subdirect-image: factor 1 is not surjective"


@pytest.mark.parametrize("target", [target_a5, target_s3])
def test_hall_rejects_members_onto_another_target(target):
    # A5 is isomorphic to PSL2(5) but acts on 5 points, not 6; S3 is not
    # simple.  Neither is the run's target, so the list is bad input.
    members, _ = collect_inequivalent_members(
        standard_epi(2, target()), standard_autgens(2), 2)
    with pytest.raises(ForgeError, match=r"must map onto PSL2\(5\)"):
        forge_certificate_hall(2, 5, members=members)


def test_forge_input_validation():
    with pytest.raises(ForgeError):
        forge_certificate_s3(1)
    with pytest.raises(ForgeError):
        forge_certificate_s3(2, seed_epi=standard_epi(2, target_a5()))
    with pytest.raises(ForgeError):
        forge_certificate_hall(2, 5, collection=0)


def test_hall_single_factor():
    cert = forge_certificate_hall(2, 5, collection=1)
    assert (cert.G_order, cert.H_order, cert.degree, cert.genus_out) == (
        60, 10, 6, 7)
    assert cert.check_a["pass"] is True
    assert cert.check_b["pass"] is True
    assert cert.check_b["conjugator"]
    assert cert.characteristic["pass"] is False
    assert cert.characteristic["note"] == "collection-truncated"
    assert cert.status == "INVALID"


def test_hall_pair():
    cert = forge_certificate_hall(2, 5, collection=2)
    assert (cert.G_order, cert.H_order, cert.degree, cert.genus_out) == (
        3600, 100, 36, 37)
    assert cert.check_a["pass"] is True
    assert cert.check_b["pass"] is True
    assert cert.status == "INVALID"  # truncated collection, honestly flagged
    assert cert.order_structure == {"factor_order": 60, "factors": 2}


def test_hall_normalizer_past_the_enum_budget_gives_partial():
    # |G| = 3600 takes the structural branch, whose per-factor scan of
    # PSL2(5), of order 60, needs more than the budget
    cert = forge_certificate_hall(2, 5, collection=2,
                                  budgets=Budgets(enum=59))
    assert cert.status == "PARTIAL"
    assert cert.failing_stage.startswith("normalizer: ")
    assert cert.G_order == 0


def test_hall_rejects_equivalent_members():
    target = target_psl2(5)
    seed = standard_epi(2, target)
    twin = conjugated(seed, target.generators[0])
    cert = forge_certificate_hall(2, 5, members=[seed, twin])
    assert cert.status == "INVALID"
    assert cert.failing_stage.startswith("hall-hypothesis")
    assert cert.G_order == 0


def test_hall_routes_disagree_raises(monkeypatch):
    # route 1 made blind: every hom is its own canonical representative, so
    # a conjugate pair gets distinct keys; the fingerprints collide and the
    # pair closure in Q x Q finds the graph of an automorphism
    target = target_psl2(5)
    seed = standard_epi(2, target)
    twin = conjugated(seed, target.generators[0])
    monkeypatch.setattr(forge, "canonical_rep_mod_auts", lambda hom: hom)
    with pytest.raises(RuntimeError, match="members 0 and 1 have distinct"
                       " canonical keys but an equivalent pair image"):
        forge_certificate_hall(2, 5, members=[seed, twin])


def test_order_fingerprints_are_distinct_on_200_classes():
    members, _ = collect_inequivalent_members(
        standard_epi(2, target_psl2(5)), standard_autgens(2), 200)
    fingerprints = forge.order_fingerprints(members)
    assert len(fingerprints[0]) == 8 + 8 * 7 + 8 * 7 * 7 == 456
    assert len(set(fingerprints)) == 200


def reference_fingerprints(members):
    """The 456 reduced words of length 1 to 3 at genus 2, listed level by
    level, each evaluated letter by letter, as element-order bytes."""
    letters = [x for i in range(1, len(members[0].idx) + 1) for x in (i, -i)]
    words, level = [], [()]
    for _ in range(3):
        level = [w + (x,) for w in level for x in letters
                 if not w or x != -w[-1]]
        words += level
    assert len(words) == 456
    orders = [e.order() for e in members[0].target.elements]
    return [bytes(orders[i] for i in m.evaluate_indices(words))
            for m in members]


def test_levelled_fingerprints_match_the_word_by_word_reference():
    # the whole closure modulo Aut(PSL2(5)), all 1440 classes, and 200
    # classes at p = 7
    p5 = orbit(standard_epi(2, target_psl2(5)), standard_autgens(2),
               mod_target_auts=True)
    assert p5.complete and p5.k == 1440
    p7_members, _ = collect_inequivalent_members(
        standard_epi(2, target_psl2(7)), standard_autgens(2), 200)
    assert len(p7_members) == 200
    for members in (p5.members, p7_members):
        assert forge.order_fingerprints(members) == reference_fingerprints(
            members)


def test_hall_forge_builds_no_product_permutation(monkeypatch):
    want = forge_certificate_hall(2, 5, collection=12).stable_dict()

    def refuse(cls, blocks):
        raise AssertionError("the hall route built a product permutation")

    monkeypatch.setattr(Permutation, "from_blocks", classmethod(refuse))
    cert = forge_certificate_hall(2, 5, collection=12)
    assert cert.stable_dict() == want
    assert (cert.k, cert.G_order, cert.status) == (12, 60**12, "INVALID")
    assert cert.characteristic["note"] == "collection-truncated"
    # the S3 route still builds its product permutations
    with pytest.raises(AssertionError, match="built a product permutation"):
        forge_certificate_s3(2)


def test_colliding_fingerprints_fall_back_to_the_pair_closure(monkeypatch):
    want = forge_certificate_hall(2, 5, collection=4).stable_dict()
    closures = []
    pair_closure_order = forge.pair_closure_order

    def counting(target, first, second, bound):
        closures.append((first, second))
        return pair_closure_order(target, first, second, bound)

    monkeypatch.setattr(forge, "order_fingerprints",
                        lambda members: [()] * len(members))
    monkeypatch.setattr(forge, "pair_closure_order", counting)
    assert forge_certificate_hall(2, 5, collection=4).stable_dict() == want
    assert len(closures) == 6  # every pair of the four members
    # each closure has |Q|^2 = 3600 elements, past an enum budget of 3599
    cert = forge_certificate_hall(2, 5, collection=4,
                                  budgets=Budgets(enum=3599))
    assert cert.status == "PARTIAL"
    assert cert.failing_stage.startswith("hall-hypothesis: closure exceeded")


def test_pair_closure_order_is_the_permutation_closure():
    # index pairs of PSL2(5) against mulclose of the same pairs as
    # permutations on two blocks: subgroups of every size up to Q x Q, the
    # whole of it found from past half, and the bound met exactly
    target = target_psl2(5)
    elements = target.elements
    rng = random.Random(11)
    seed = standard_epi(2, target)
    pairs = [(seed.idx, seed.idx),
             (seed.idx, conjugated(seed, target.generators[0]).idx)]
    for _ in range(30):
        n = rng.randint(1, 3)
        pairs.append(tuple(
            tuple(rng.randrange(target.order) for _ in range(n))
            for _ in range(2)))
    sizes = set()
    for first, second in pairs:
        generators = [Permutation.from_blocks([elements[a].images,
                                               elements[b].images])
                      for a, b in zip(first, second)]
        size = len(mulclose(generators))
        assert forge.pair_closure_order(target, first, second, size) == size
        with pytest.raises(EnumerationBoundExceeded,
                           match=f"^closure exceeded bound {size - 1}$"):
            forge.pair_closure_order(target, first, second, size - 1)
        sizes.add(size)
    assert {60, 3600} <= sizes and len(sizes) > 4


# the stabilizer chain and the checks built on it, kept only in oracle
CHAIN_NAMES = ("_Level", "PermGroup", "SubgroupWitness", "subgroup_witness",
               "sylow2", "normalizer_is_self", "MembershipError")


def test_hall_forge_runs_with_no_stabilizer_chain_in_the_package():
    # at any size, |G| and |H| come from Hall's lemma and check (a) reads
    # one factor's Borel subgroup as a set, also where |G| = 3600 fits the
    # enum budget; the package has no chain to build
    for module in (mcglift, mcglift.perm, mcglift.quotients, forge):
        assert [name for name in CHAIN_NAMES if hasattr(module, name)] == []
    for collection, budgets in ((12, Budgets()), (2, Budgets(enum=3600))):
        cert = forge_certificate_hall(2, 5, collection=collection,
                                      budgets=budgets)
        assert (cert.G_order, cert.H_order) == (
            60**collection, 10**collection)
        assert cert.check_a == {"pass": True, "method": "structural"}


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_hall_check_a_routes_agree_with_the_chain_scan(p):
    target, borel = target_psl2(p), borel_subgroup(p)
    assert forge._borel_is_point_stabilizer(target, borel) is True
    assert forge._borel_normalizer_scan(target, borel, 10**6) is True
    assert forge.normalizer_is_self_borel(p, borel) is True
    assert normalizer_is_self(borel_witness(p)) is True


@pytest.mark.parametrize("p", [5, 7])
def test_hall_check_a_routes_reject_the_translations(p):
    # the translations alone fix infinity but are a proper subgroup of its
    # stabilizer, and the scalings normalize them: both routes say no, and
    # so does the chain scan
    target = target_psl2(p)
    translation = borel_subgroup(p).generators[0]
    unipotent = BorelSubgroup((translation,),
                              frozenset(mulclose([translation])))
    assert len(unipotent.elements) == p
    assert forge._borel_is_point_stabilizer(target, unipotent) is False
    assert forge._borel_normalizer_scan(target, unipotent, 10**6) is False
    assert forge.normalizer_is_self_borel(p, unipotent) is False
    witness = subgroup_witness(PermGroup(list(target.generators)),
                               PermGroup([translation]))
    assert normalizer_is_self(witness) is False


def permutation_normalizer_scan(target, sub):
    """The normalizer scan on `Permutation` objects: no element of the
    target outside the subgroup conjugates each generator into it."""
    for x in target.elements:
        if x not in sub.elements:
            xi = x.inverse()
            if all(x * g * xi in sub.elements for g in sub.generators):
                return False
    return True


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_tuple_borel_scan_matches_the_permutation_scan(p):
    # B itself, its translations, and its scalings: the scalings fix 0 and
    # infinity, so x -> -1/x normalizes them from outside
    target, borel = target_psl2(p), borel_subgroup(p)
    subgroups = [borel] + [
        BorelSubgroup((g,), frozenset(mulclose([g])))
        for g in borel.generators]
    for sub, want in zip(subgroups, (True, False, False)):
        scan = forge._borel_normalizer_scan(target, sub, 10**6)
        assert scan is permutation_normalizer_scan(target, sub) is want
        assert forge._borel_is_point_stabilizer(target, sub) is want


def s3_brute_force(members):
    """G as an unhinted chain, and the forge's 2-Sylow H as a chain."""
    gens = build_subdirect_image(members)
    group = PermGroup(gens)
    sub = forge.sylow2_s3(forge.BlockGroup(gens, group.degree, group.order))
    return subgroup_witness(group, PermGroup(sub.generators,
                                             degree=group.degree))


def hall_brute_force(members, p):
    """G as an unhinted chain, and the product of the k Borel block copies."""
    k = len(members)
    group = PermGroup(build_subdirect_image(members))
    borel = forge.borel_subgroup(p).generators
    fixed = tuple(range(p + 1))
    sub = PermGroup([
        Permutation.from_blocks([b.images if i == j else fixed
                                 for i in range(k)])
        for j in range(k) for b in borel])
    return subgroup_witness(group, sub)


@pytest.mark.parametrize("p, size", [
    (None, 1), (None, 2), (None, 5), (None, 7), (5, 1), (5, 2), (7, 1),
], ids=["s3-1", "s3-2", "s3-5", "s3-7", "hall5-1", "hall5-2", "hall7-1"])
def test_structural_check_a_matches_the_chains(p, size, s3_orbit_members):
    # the brute-force comparison the forge no longer makes: on images small
    # enough to list, unhinted chains of G and H reach the certificate's
    # orders, and scanning G for N_G(H) agrees with the structural check (a);
    # p is None on the S3 route, else the hall route's prime
    if p is None:
        cert = forge_certificate_s3(2, truncate_k=size)
        witness = s3_brute_force(s3_orbit_members[:size])
    else:
        cert = forge_certificate_hall(2, p, collection=size)
        members, _ = collect_inequivalent_members(
            standard_epi(2, target_psl2(p)), standard_autgens(2), size)
        witness = hall_brute_force(members, p)
    assert cert.k == size
    assert (witness.ambient.order, witness.sub.order) == (
        cert.G_order, cert.H_order)
    assert cert.check_a == {"pass": normalizer_is_self(witness),
                            "method": "structural"}


def test_collect_inequivalent_members():
    gens = standard_autgens(2)
    members, truncated = collect_inequivalent_members(
        standard_epi(2, target_psl2(5)), gens, 2)
    assert len(members) == 2
    assert truncated is True
    keys = [m.key() for m in members]
    assert keys == sorted(keys)
    with pytest.raises(ForgeError):
        collect_inequivalent_members(
            standard_epi(2, target_psl2(5)), gens, 0)


def test_collect_inequivalent_members_past_the_whole_closure():
    # the 360 epimorphisms of the genus-2 surface group onto S3 fall into
    # exactly 60 classes modulo Aut(S3)
    with pytest.raises(ForgeError) as e:
        collect_inequivalent_members(
            standard_epi(2, target_s3()), standard_autgens(2), 61)
    assert str(e.value) == "orbit closure has only 60 classes, wanted 61"


def test_inequivalent_pair_gives_full_product():
    gens = standard_autgens(2)
    members, _ = collect_inequivalent_members(
        standard_epi(2, target_a5()), gens, 2)
    pair = PermGroup(build_subdirect_image(members))
    assert pair.order == 3600
    single = PermGroup(build_subdirect_image(members[:1]))
    assert single.order == 60


def test_equivalent_pair_gives_diagonal():
    target = target_a5()
    seed = standard_epi(2, target)
    twin = conjugated(seed, target.generators[0])
    sub = PermGroup(build_subdirect_image([seed, twin]))
    assert sub.order == 60


def test_minimal_degree_search_budgets():
    empty = minimal_degree_search(2, budget=0)
    assert empty["jobs"] == []
    assert empty["best_valid"] is None and empty["best_flagged"] is None

    one = minimal_degree_search(2, budget=1)
    assert len(one["jobs"]) == 1
    job = one["jobs"][0]
    assert job["route"] == "hall-psl2(5)"
    assert job["params"] == {"p": 5, "collection": 1}
    assert job["degree"] == "6"
    assert job["checks_pass"] is True
    assert one["best_valid"] is None
    assert one["best_flagged"]["degree"] == "6"

    two = minimal_degree_search(2, budget=2)
    assert [j["degree"] for j in two["jobs"]] == ["6", "36"]
    assert two["best_flagged"]["degree"] == "6"
