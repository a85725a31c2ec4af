"""Cover certificates: subdirect images, the dual-route order check, both
pipelines, and the degree sweep."""

import json
import random

import pytest

from mcglift import forge
from mcglift.autos import orbit, standard_autgens
from mcglift.budgets import Budgets
from mcglift.forge import (
    ForgeError,
    StructuralFormError,
    SubdirectError,
    _block_sign_vector,
    build_subdirect_image,
    collect_inequivalent_members,
    forge_certificate_hall,
    forge_certificate_s3,
    minimal_degree_search,
    parse_certificate,
    standard_epi,
    structural_order_s3,
)
from mcglift.perm import PermGroup, Sylow2Stalled
from mcglift.quotients import (
    FiniteHom,
    target_a5,
    target_psl2,
    target_s3,
)

FULL_S3_ORDER = 2**4 * 3**30
FULL_S3_DEGREE = 3**30


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
        assert len(structural["odd_basis"]) == structural["three_rank"]
        for element in structural["odd_basis"]:
            assert element in group
            assert _block_sign_vector(element, k) == 0


def test_structural_order_requires_s3():
    with pytest.raises(SubdirectError):
        structural_order_s3([standard_epi(2, target_a5())])


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


def test_s3_normalizer_method_follows_the_enum_budget(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the other normalizer route ran")

    # at truncate_k=2, |G| = 36: the scan runs while |G| fits the budget
    with monkeypatch.context() as m:
        m.setattr(forge, "normalizer_is_self_s3", refuse)
        cert = forge_certificate_s3(2, truncate_k=2, budgets=Budgets(enum=36))
    assert cert.G_order == 36
    assert cert.check_a == {"pass": True, "method": "enumeration"}
    with monkeypatch.context() as m:
        m.setattr(forge, "normalizer_is_self", refuse)
        cert = forge_certificate_s3(2, truncate_k=2, budgets=Budgets(enum=35))
    assert cert.G_order == 36
    assert cert.check_a == {"pass": True, "method": "structural"}


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


def test_s3_point_cap_gives_partial(monkeypatch):
    def refuse(members):
        raise AssertionError("structural order ran past the point budget")

    # the budget is checked before the structural order would run
    monkeypatch.setattr(forge, "structural_order_s3", refuse)
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
    seed = standard_epi(2, target_a5())
    non_epi = FiniteHom(target_a5(), (target_a5().identity,) * 4)
    cert = forge_certificate_hall(2, 5, members=[seed, non_epi])
    assert cert.status == "INVALID"
    assert cert.failing_stage == "subdirect-image: factor 1 is not surjective"


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


def test_hall_normalizer_method_follows_the_enum_budget():
    # at collection=2, |G| = 60^2 = 3600: the scan runs while |G| fits
    cert = forge_certificate_hall(2, 5, collection=2,
                                  budgets=Budgets(enum=3600))
    assert cert.G_order == 3600
    assert cert.check_a == {"pass": True, "method": "enumeration"}
    cert = forge_certificate_hall(2, 5, collection=2,
                                  budgets=Budgets(enum=3599))
    assert cert.G_order == 3600
    assert cert.check_a == {"pass": True, "method": "structural"}


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
