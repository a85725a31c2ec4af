"""Command-line interface: exit codes, output shapes, and determinism."""

import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mcglift.autos import standard_autgens
from mcglift import cli, cosets, forge, quotients
from mcglift.budgets import Budgets
from mcglift.cli import (
    EXIT_BREACH,
    EXIT_BUDGET,
    EXIT_OK,
    EXIT_USAGE,
    build_parser,
    main,
    resolve_budgets,
    write_listing,
)
from mcglift.quotients import FiniteHom, enumerate_homs, get_target
from mcglift.words import free_reduce

SRC = Path(__file__).resolve().parents[1] / "src"


def run(argv):
    return main(argv)


def test_enumerate_counts(capsys):
    assert run(["enumerate", "--genus", "2", "--target", "s3"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "homs: 486, epis: 360" in out
    assert "oracle: 486" in out


def test_enumerate_listing(tmp_path, capsys):
    path = tmp_path / "c2.json"
    assert run(["enumerate", "--genus", "2", "--target", "c2",
                "--out", str(path)]) == EXIT_OK
    capsys.readouterr()
    data = json.loads(path.read_text())
    assert data["homs"] == 16 and data["epis"] == 15
    assert len(data["epi_images"]) == 15


@pytest.mark.parametrize("target", ["s3", "c2"])
def test_enumerate_listing_bytes_match_the_permutation_rendering(
        target, tmp_path, capsys):
    # the listing as rendered from permutations, one closure per hom
    t = get_target(target)
    homs = enumerate_homs(2, t)
    epis = [h for h in homs if h.is_surjective()]
    listing = {
        "genus": 2,
        "target": t.name,
        "homs": len(homs),
        "epis": len(epis),
        "epi_images": [[p.cycle_string() for p in h.images] for h in epis],
    }
    path = tmp_path / "listing.json"
    assert run(["enumerate", "--genus", "2", "--target", target,
                "--out", str(path)]) == EXIT_OK
    assert capsys.readouterr().out.startswith(
        f"homs: {len(homs)}, epis: {len(epis)}")
    assert path.read_bytes() == (
        json.dumps(listing, sort_keys=True, indent=2) + "\n").encode()
    # the epimorphisms, in enumeration order, are the per-hom filter's
    names = [p.cycle_string() for p in t.elements]
    rows = json.loads(path.read_text())["epi_images"]
    assert [tuple(map(names.index, row)) for row in rows] == [
        h.idx for h in epis]


def listing_bytes(genus, target, hom_count, epis):
    """The listing as `enumerate --out` rendered it with `json.dumps`: one
    cycle string per target element, one row of names per epimorphism."""
    names = [p.cycle_string() for p in target.elements]
    listing = {
        "genus": genus,
        "target": target.name,
        "homs": hom_count,
        "epis": len(epis),
        "epi_images": [[names[i] for i in h.idx] for h in epis],
    }
    return (json.dumps(listing, sort_keys=True, indent=2) + "\n").encode()


def test_genus3_s3_listing_bytes_match_json_dumps(tmp_path, capsys):
    # the benchmark's command: 15120 rows
    s3 = get_target("s3")
    homs = enumerate_homs(3, s3)
    epis = [h for h in homs if h.is_surjective()]
    path = tmp_path / "listing.json"
    assert run(["enumerate", "--genus", "3", "--target", "s3",
                "--out", str(path)]) == EXIT_OK
    capsys.readouterr()
    assert len(epis) == 15120
    assert path.read_bytes() == listing_bytes(3, s3, len(homs), epis)


def test_enumerate_builds_no_finitehom(tmp_path, monkeypatch, capsys):
    calls = []
    from_indices, init = FiniteHom.from_indices.__func__, FiniteHom.__init__
    monkeypatch.setattr(FiniteHom, "from_indices", classmethod(
        lambda cls, *args: calls.append(args) or from_indices(cls, *args)))
    monkeypatch.setattr(FiniteHom, "__init__", lambda self, *args: (
        calls.append(args) or init(self, *args)))
    path = tmp_path / "listing.json"
    assert run(["enumerate", "--target", "s3", "--genus", "3",
                "--out", str(path)]) == EXIT_OK
    assert capsys.readouterr().out == (
        "homs: 16038, epis: 15120, oracle: 16038\n")
    assert calls == []
    # the counters see the wrapping entry points
    assert len(enumerate_homs(2, get_target("c2"))) == len(calls) == 16
    FiniteHom(get_target("c2"), (get_target("c2").identity,) * 4)
    assert len(calls) == 17


def test_empty_listing_bytes_match_json_dumps(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(quotients, "generates", lambda target, images: False)
    path = tmp_path / "listing.json"
    assert run(["enumerate", "--genus", "2", "--target", "c2",
                "--out", str(path)]) == EXIT_OK
    assert capsys.readouterr().out.startswith("homs: 16, epis: 0")
    data = path.read_bytes()
    assert data == listing_bytes(2, get_target("c2"), 16, [])
    assert b'"epi_images": [],\n' in data


_S3_GENUS2_HOMS = enumerate_homs(2, get_target("s3"))


@settings(max_examples=60, deadline=None)
@given(picks=st.sets(st.integers(0, len(_S3_GENUS2_HOMS) - 1), max_size=30))
@example(picks=set())
@example(picks={0})
@example(picks={len(_S3_GENUS2_HOMS) - 1})
def test_write_listing_bytes_match_json_dumps(picks, tmp_path_factory):
    rows = [_S3_GENUS2_HOMS[i] for i in sorted(picks)]
    s3 = get_target("s3")
    path = tmp_path_factory.mktemp("listing") / "listing.json"
    write_listing(str(path), 2, s3, len(_S3_GENUS2_HOMS),
                  [h.idx for h in rows])
    assert path.read_bytes() == listing_bytes(
        2, s3, len(_S3_GENUS2_HOMS), rows)


@pytest.mark.parametrize("rows_per_write", [1, 7, 360])
def test_listing_bytes_do_not_depend_on_the_rows_per_write(
        rows_per_write, tmp_path, monkeypatch):
    s3 = get_target("s3")
    epis = [h for h in _S3_GENUS2_HOMS if h.is_surjective()]
    monkeypatch.setattr(cli, "LISTING_ROWS_PER_WRITE", rows_per_write)
    path = tmp_path / "listing.json"
    write_listing(str(path), 2, s3, len(_S3_GENUS2_HOMS),
                  [h.idx for h in epis])
    assert len(epis) == 360
    assert path.read_bytes() == listing_bytes(
        2, s3, len(_S3_GENUS2_HOMS), epis)


@pytest.mark.parametrize("argv", [
    ["enumerate", "--target", "c2"],
    ["forge", "--route", "s3", "--truncate-k", "1"],
])
def test_out_naming_a_directory_is_a_usage_error(argv, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "mcglift.cli"] + argv + ["--out", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == EXIT_USAGE, proc.stderr
    assert proc.stderr.startswith(f"usage error: cannot write {tmp_path}")
    assert "Traceback" not in proc.stderr
    assert tmp_path.is_dir()


def test_budget_exit_leaves_the_out_file_untouched(tmp_path, capsys):
    # the file is opened only after the enumeration, so a budget exit
    # neither creates nor truncates it
    path = tmp_path / "listing.json"
    path.write_bytes(b'{"kept": true}\n')
    assert run(["enumerate", "--target", "a5", "--genus", "2",
                "--budget-tuples", "100", "--out", str(path)]) == EXIT_BUDGET
    assert "budget exceeded" in capsys.readouterr().err
    assert path.read_bytes() == b'{"kept": true}\n'


@pytest.mark.parametrize("argv", [
    ["enumerate", "--target", "c2"],
    ["forge", "--route", "s3", "--truncate-k", "1"],
])
def test_unwritable_out_is_a_usage_error(argv, tmp_path):
    path = tmp_path / "missing" / "x.json"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "mcglift.cli"] + argv + ["--out", str(path)],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == EXIT_USAGE, proc.stderr
    assert proc.stderr.startswith(f"usage error: cannot write {path}")
    assert "Traceback" not in proc.stderr
    assert not path.exists()


def test_usage_errors(capsys):
    assert run(["enumerate", "--genus", "2"]) == EXIT_USAGE
    assert run(["enumerate", "--genus", "1", "--target", "s3"]) == EXIT_USAGE
    assert run(["enumerate", "--genus", "2", "--target", "psl2"]) == EXIT_USAGE
    assert run(["alpha", "--cover", "donut"]) == EXIT_USAGE
    assert run(["no-such-command"]) == EXIT_USAGE
    capsys.readouterr()


def test_alpha_genus_conflicting_with_cover(capsys):
    assert run(["alpha", "--genus", "2", "--cover", "homology3",
                "--check", "containment"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "--genus 2 conflicts with cover homology3" in err


def test_alpha_genus_matching_cover(capsys):
    assert run(["alpha", "--genus", "3", "--cover", "homology3",
                "--check", "containment"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "containment: ok, index 64" in out


# each budget flag on a subcommand that reads its budget
READING_SUBCOMMAND = {
    "--budget-tuples": ["enumerate", "--genus", "2", "--target", "c2"],
    "--budget-points": ["forge", "--route", "s3"],
    "--budget-enum": ["alpha", "--cover", "homology2"],
}


@pytest.mark.parametrize("flag, value", [
    ("--budget-points", "0"),
    ("--budget-tuples", "-5"),
    ("--budget-enum", "0"),
])
def test_non_positive_budgets_are_usage_errors(flag, value, tmp_path, capsys):
    out = tmp_path / "out.json"
    assert run(READING_SUBCOMMAND[flag] + [flag, value,
                                           "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert flag in err and "positive integer" in err
    assert not out.exists()


@pytest.mark.parametrize("argv, flag", [
    (["enumerate", "--target", "c2"], "--budget-points"),
    (["enumerate", "--target", "c2"], "--budget-enum"),
    (["forge", "--route", "s3", "--truncate-k", "1"], "--budget-tuples"),
    (["search", "--route", "s3", "--budget", "1"], "--budget-tuples"),
    (["alpha", "--cover", "homology2"], "--budget-tuples"),
    (["alpha", "--cover", "homology2"], "--budget-points"),
    (["forge", "--route", "s3", "--truncate-k", "1"], "--budget-enum"),
    (["forge", "--genus", "2"], "--budget-enum"),
    (["search", "--route", "s3", "--budget", "1"], "--budget-enum"),
])
def test_unread_budget_flags_are_usage_errors(argv, flag, tmp_path,
                                              monkeypatch, capsys):
    # a subcommand takes only the budget flags of the budgets it reads
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "out.json"
    assert run(argv + [flag, "1", "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and flag in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, flags", [
    (["enumerate", "--target", "c2"], {"tuples"}),
    (["forge"], {"points", "enum"}),
    (["search"], {"points", "enum"}),
    (["alpha"], {"enum"}),
])
def test_budget_flags_replace_only_what_they_name(argv, flags, monkeypatch):
    monkeypatch.delenv("MCGLIFT_BUDGET_PROFILE", raising=False)
    for key in sorted(flags):
        argv = argv + [f"--budget-{key}", "7"]
    budgets = resolve_budgets(build_parser().parse_args(argv))
    for key in ("tuples", "points", "enum"):
        expected = 7 if key in flags else getattr(Budgets(), key)
        assert getattr(budgets, key) == expected


def test_unknown_budget_profile_is_a_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("MCGLIFT_BUDGET_PROFILE", "roomy")
    assert run(["enumerate", "--genus", "2", "--target", "c2"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "'roomy'" in err
    assert all(name in err for name in ("desk", "default", "wide"))


def test_alpha_validates_the_budget_profile(monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("MCGLIFT_BUDGET_PROFILE", "roomy")
    out = tmp_path / "alpha.json"
    assert run(["alpha", "--cover", "homology2", "--check", "containment",
                "--out", str(out)]) == EXIT_USAGE
    assert "'roomy'" in capsys.readouterr().err
    assert not out.exists()


def test_flags_replace_the_profile_values(monkeypatch):
    monkeypatch.setenv("MCGLIFT_BUDGET_PROFILE", "desk")
    args = build_parser().parse_args(["forge", "--budget-points", "7"])
    assert resolve_budgets(args) == Budgets(
        tuples=10**7, points=7, enum=10**5)


def test_points_flag_gives_a_partial_forge(tmp_path, capsys):
    path = tmp_path / "c.json"
    assert run(["forge", "--route", "s3", "--budget-points", "100",
                "--out", str(path)]) == EXIT_OK
    assert capsys.readouterr().out.startswith("PARTIAL: route=sylow-s3 k=360")
    assert json.loads(path.read_text())["status"] == "PARTIAL"


def test_enum_flag_gives_a_partial_hall_forge(tmp_path, capsys):
    path = tmp_path / "c.json"
    assert run(["forge", "--route", "hall", "--collection", "2",
                "--budget-enum", "59", "--out", str(path)]) == EXIT_OK
    assert capsys.readouterr().out.startswith("PARTIAL: route=hall-psl2(5) k=2")
    cert = json.loads(path.read_text())
    assert cert["status"] == "PARTIAL" and cert["k"] == 2
    assert cert["failing_stage"].startswith("normalizer: ")
    not_run = {"pass": False, "method": "not-run"}
    assert cert["checks"]["a"] == cert["checks"]["b"] == not_run
    assert set(cert["timing"]) == {
        "collection_s", "group_s", "subgroup_s", "normalizer_s"}


@pytest.mark.parametrize("argv", [
    ["forge", "--route", "s3", "--truncate-k", "0"],
    ["forge", "--route", "s3", "--truncate-k", "-1"],
    ["search", "--route", "s3", "--budget", "-1"],
])
def test_out_of_range_counts_are_usage_errors(argv, tmp_path, capsys):
    out = tmp_path / "out.json"
    assert run(argv + ["--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error: ")
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["forge", "--route", "hall", "--truncate-k", "5"],
    ["forge", "--route", "s3", "--prime", "11"],
    ["forge", "--route", "s3", "--collection", "7"],
    ["forge", "--truncate-k", "1", "--collection", "7", "--prime", "11"],
])
def test_other_route_flags_are_usage_errors(argv, tmp_path, monkeypatch,
                                            capsys):
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "out.json"
    assert run(argv + ["--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error: ")
    assert "does not apply to --route" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["enumerate", "--target", "s3", "--prime", "7"],
    ["enumerate", "--target", "c2", "--prime", "4"],
])
def test_prime_without_psl2_is_a_usage_error(argv, tmp_path, monkeypatch,
                                             capsys):
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "out.json"
    assert run(argv + ["--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error: ")
    assert "--prime does not apply to --target" in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_prime_with_psl2_is_accepted(capsys):
    # the prime passes validation and the run reaches the tuple budget
    assert run(["enumerate", "--target", "psl2", "--prime", "5",
                "--budget-tuples", "1000"]) == EXIT_BUDGET
    assert capsys.readouterr().err.startswith("budget exceeded: ")


def test_psl2_enumerate_checks_the_oracle(capsys):
    # the count from the stored PSL2(5) degrees, against the enumeration
    assert run(["enumerate", "--target", "psl2", "--prime", "5"]) == EXIT_OK
    assert capsys.readouterr().out == (
        "homs: 286140, epis: 241920, oracle: 286140\n")


def test_hall_flag_defaults(tmp_path, capsys):
    path = tmp_path / "hall.json"
    assert run(["forge", "--route", "hall", "--out", str(path)]) == EXIT_OK
    material = json.loads(path.read_text())["seed_material"]
    assert (material["prime"], material["collection"]) == (5, 2)


def test_budget_exit_code(capsys):
    assert run(["enumerate", "--genus", "2", "--target", "a5",
                "--budget-tuples", "1000"]) == EXIT_BUDGET
    err = capsys.readouterr().err
    assert "budget exceeded" in err


def test_forge_unit_certificate(tmp_path, capsys):
    path = tmp_path / "unit.json"
    assert run(["forge", "--genus", "2", "--route", "s3",
                "--truncate-k", "1", "--out", str(path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "INVALID" in out
    data = json.loads(path.read_text())
    assert data["G_order"] == "6"
    assert data["degree"] == "3"
    assert data["checks"]["characteristic"]["pass"] is False
    assert "timing" in data


def test_hall_forge_writes_orders_past_4300_digits(tmp_path, capsys):
    # |G| = 168^2000 has 4451 digits, past what str() and int() accept on
    # Python 3.11+; the run, its status line and its file must not care
    path = tmp_path / "big.json"
    assert run(["forge", "--route", "hall", "--prime", "7", "--collection",
                "2000", "--out", str(path)]) == EXIT_OK
    cert = forge.parse_certificate(json.loads(path.read_text()))
    assert (cert.k, cert.G_order, cert.H_order, cert.degree) == (
        2000, 168**2000, 21**2000, 8**2000)
    data = json.loads(path.read_text())
    assert len(data["G_order"]) == 4451
    assert capsys.readouterr().out == (
        f"INVALID: route=hall-psl2(7) k=2000 degree={data['degree']}"
        f" genus_out={data['genus_out']} -> {path}\n")


def test_forge_is_deterministic_modulo_timing(tmp_path, capsys):
    paths = [tmp_path / "one.json", tmp_path / "two.json"]
    for p in paths:
        assert run(["forge", "--genus", "2", "--route", "hall",
                    "--prime", "5", "--collection", "1",
                    "--out", str(p)]) == EXIT_OK
    capsys.readouterr()
    blobs = []
    for p in paths:
        data = json.loads(p.read_text())
        data.pop("timing")
        blobs.append(json.dumps(data, sort_keys=True))
    assert blobs[0] == blobs[1]


def test_forge_invariant_breach_exits_3(monkeypatch, tmp_path, capsys):
    # single generators posing as sign-kernel words, as the Schreier
    # generators of a one-coset table: a surjection onto S3 sends one of
    # them to a transposition, which the construction forbids
    monkeypatch.setattr(forge, "CosetTable", lambda hom: SimpleNamespace(
        words=((1,), (2,), (3,), (4,)), schreier_reps=((),),
        pairs=((0, 1), (0, 2), (0, 3), (0, 4)),
        steps={x: ((0, 0),) for x in (1, 2, 3, 4)}))
    assert run(["forge", "--genus", "2", "--route", "s3", "--truncate-k",
                "1", "--out", str(tmp_path / "c.json")]) == EXIT_BREACH
    err = capsys.readouterr().err
    assert "sign-kernel word evaluates to a transposition" in err
    assert not (tmp_path / "c.json").exists()


def test_forge_exits_3_when_table_and_permutation_routes_disagree(
        monkeypatch, tmp_path, capsys):
    # a permutation route that sends every word to the identity
    monkeypatch.setattr(FiniteHom, "evaluate",
                        lambda self, word: self.target.identity)
    assert run(["forge", "--genus", "2", "--out",
                str(tmp_path / "c.json")]) == EXIT_BREACH
    assert "disagree" in capsys.readouterr().err
    assert not (tmp_path / "c.json").exists()


@pytest.mark.parametrize("route", ["module_rank_s3", "structural_order_s3"])
@pytest.mark.parametrize("rank, prime, ranks", [
    ("two_rank", 2, "(3, 30)"),
    ("three_rank", 3, "(4, 29)"),
], ids=["two_rank", "three_rank"])
def test_forge_exits_3_when_a_structural_rank_is_one_short(
        rank, prime, ranks, route, monkeypatch, tmp_path, capsys):
    # one linear route one rank short, its order scaled to match: the two
    # exact routes disagree, and neither result is kept
    real = getattr(forge, route)

    def short(members):
        result = dict(real(members))
        result[rank] -= 1
        result["order"] //= prime
        return result

    monkeypatch.setattr(forge, route, short)
    out = tmp_path / "c.json"
    assert run(["forge", "--route", "s3", "--genus", "2",
                "--out", str(out)]) == EXIT_BREACH
    module, structural = ((ranks, "(4, 30)") if route == "module_rank_s3"
                          else ("(4, 30)", ranks))
    assert (f"order cross-check failed: the module closure gives (r, m) ="
            f" {module}, Reidemeister-Schreier gives {structural}"
            ) in capsys.readouterr().err
    assert not out.exists()


def test_forge_exits_3_when_a_module_seed_is_dropped(
        monkeypatch, tmp_path, capsys):
    # the commutator [b_1, b_3] is a seed whose loss lowers m at genus 2
    members = forge.orbit(forge.standard_epi(2, forge.target_s3()),
                          standard_autgens(2)).members
    assert forge.module_rank_s3(members)["three_rank"] == 30
    real = forge._module_seeds

    def dropped(sign_rows, basis):
        seeds = real(sign_rows, basis)
        seeds.remove((1, 3, -1, -3))
        return seeds

    monkeypatch.setattr(forge, "_module_seeds", dropped)
    assert forge.module_rank_s3(members)["three_rank"] == 29
    out = tmp_path / "c.json"
    assert run(["forge", "--route", "s3", "--genus", "2",
                "--out", str(out)]) == EXIT_BREACH
    assert ("order cross-check failed: the module closure gives (r, m) ="
            " (4, 29), Reidemeister-Schreier gives (4, 30)"
            ) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("route, stabilizer, scan", [
    ("_borel_is_point_stabilizer", False, True),
    ("_borel_normalizer_scan", True, False),
])
def test_hall_forge_exits_3_when_a_check_a_route_is_blinded(
        route, stabilizer, scan, monkeypatch, tmp_path, capsys):
    # either route of the hall check (a) made blind, so it never certifies
    # N(B) = B: the other still does, and the run breaches instead of
    # picking one answer
    monkeypatch.setattr(forge, route, lambda *args: False)
    message = (f"check (a) cross-check failed at p = 5: the point stabilizer"
               f" route gives {stabilizer}, the normalizer scan gives {scan}")
    with pytest.raises(RuntimeError, match=re.escape(message)):
        forge.forge_certificate_hall(2, 5, collection=1)
    out = tmp_path / "c.json"
    assert run(["forge", "--route", "hall", "--collection", "2",
                "--out", str(out)]) == EXIT_BREACH
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("truncate_k, r, m, short_m", [
    (None, 4, 30, 27),
    (7, 3, 5, 4),
], ids=["genus2", "truncate7"])
def test_forge_exits_3_when_schreier_words_are_dropped(
        truncate_k, r, m, short_m, monkeypatch, tmp_path, capsys):
    # route 2 loses the Schreier generators t_{xc}^-1 x t_c of the last
    # letter x = b_2, as an off-by-one in the letter loop would.  No single
    # word, nor any pair at genus 2, is missed: the 49 exponent rows have
    # rank 30, each in the span of the others.  At truncate_k=7, |G| = 1944,
    # an unhinted chain once checked the order a third time; the module
    # closure alone now catches the loss.
    real = forge.CosetTable

    def dropped(hom):
        table = real(hom)
        kept = [i for i, (_, x) in enumerate(table.pairs) if x != 4]
        return SimpleNamespace(
            pairs=tuple(table.pairs[i] for i in kept),
            words=tuple(table.words[i] for i in kept),
            steps=table.steps, schreier_reps=table.schreier_reps)

    members = forge.orbit(forge.standard_epi(2, forge.target_s3()),
                          standard_autgens(2)).members[:truncate_k]
    assert forge.structural_order_s3(members)["three_rank"] == m
    monkeypatch.setattr(forge, "CosetTable", dropped)
    assert forge.structural_order_s3(members)["three_rank"] == short_m
    out = tmp_path / "c.json"
    truncate = [] if truncate_k is None else ["--truncate-k", str(truncate_k)]
    assert run(["forge", "--route", "s3", "--genus", "2", *truncate,
                "--out", str(out)]) == EXIT_BREACH
    assert (f"order cross-check failed: the module closure gives (r, m) ="
            f" ({r}, {m}), Reidemeister-Schreier gives ({r}, {short_m})"
            ) in capsys.readouterr().err
    assert not out.exists()


def test_forge_exits_3_when_the_hall_routes_disagree(
        monkeypatch, tmp_path, capsys):
    # a conjugate pair passed off as a collection, with route 1 blind to
    # the conjugation: route 2 finds the equivalence
    target = forge.target_psl2(5)
    seed = forge.standard_epi(2, target)
    t = target.generators[0]
    twin = FiniteHom(target, tuple(t * x * t.inverse() for x in seed.images))
    monkeypatch.setattr(forge, "collect_inequivalent_members",
                        lambda seed_epi, gens, want: ([seed, twin], True))
    monkeypatch.setattr(forge, "canonical_rep_mod_auts", lambda hom: hom)
    out = tmp_path / "c.json"
    assert run(["forge", "--route", "hall", "--out", str(out)]) == EXIT_BREACH
    assert ("members 0 and 1 have distinct canonical keys but an equivalent"
            " pair image in Q x Q") in capsys.readouterr().err
    assert not out.exists()


def test_search_passes_the_enumeration_budget(capsys):
    assert run(["search", "--genus", "2", "--route", "hall", "--budget", "2",
                "--budget-enum", "100"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    methods = [job["certificate"]["checks"]["a"]["method"]
               for job in report["jobs"]]
    assert methods == ["structural", "structural"]
    # the factor scan of PSL2(5), of order 60, needs more than 59
    assert run(["search", "--genus", "2", "--route", "hall", "--budget", "2",
                "--budget-enum", "59"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert [job["status"] for job in report["jobs"]] == ["PARTIAL"] * 2


def test_search_s3_job_is_valid(capsys):
    assert run(["search", "--genus", "2", "--route", "s3",
                "--budget", "1"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert [(job["route"], job["status"]) for job in report["jobs"]] == [
        ("sylow-s3", "VALID")]
    assert report["best_valid"]["degree"] == str(3**30)
    assert report["best_flagged"] is None


def test_search_zero_budget(capsys):
    assert run(["search", "--genus", "2", "--budget", "0"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["jobs"] == []


def test_search_writes_certificates(tmp_path, capsys):
    path = tmp_path / "report.json"
    assert run(["search", "--genus", "2", "--budget", "1",
                "--out", str(path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "best degree 6" in out
    report = json.loads(path.read_text())
    assert len(report["jobs"]) == 1
    job_path = report["jobs"][0]["path"]
    cert = json.loads(open(job_path).read())
    assert cert["degree"] == "6"


def test_alpha_containment(capsys):
    assert run(["alpha", "--cover", "homology2",
                "--check", "containment"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "containment: ok, index 16" in out


def test_alpha_full_suite_with_dump(tmp_path, capsys):
    path = tmp_path / "alpha.json"
    assert run(["alpha", "--cover", "homology2", "--check", "all",
                "--out", str(path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "alpha suites: all pass" in out
    data = json.loads(path.read_text())
    assert set(data["suites"]) == {
        "hom-law", "inner", "containment", "injectivity"}
    assert all(data["suites"].values())
    assert "ta1" in data["images"]


def test_alpha_dump_without_hom_law_has_every_image(tmp_path, capsys):
    path = tmp_path / "alpha.json"
    assert run(["alpha", "--cover", "homology2", "--check", "containment",
                "--out", str(path)]) == EXIT_OK
    capsys.readouterr()
    data = json.loads(path.read_text())
    assert set(data["suites"]) == {"containment"}
    assert set(data["images"]) == {g.name for g in standard_autgens(2)}


def with_one_extra_letter(image):
    """The restriction with its first value times y1: another group
    element, so a suite comparing it must count it as a mismatch."""
    return cosets.AutImage(
        image.table, (image.values[0] + (1,),) + image.values[1:])


def test_alpha_hom_law_counts_one_altered_composite(monkeypatch, capsys):
    # the first composite of the suite gets one wrong value; the whole-tuple
    # comparison must fall back and the word problem count it once
    compose = cosets.AutImage.compose
    calls = []

    def altered(self, other):
        calls.append(other)
        image = compose(self, other)
        return with_one_extra_letter(image) if len(calls) == 1 else image

    monkeypatch.setattr(cosets.AutImage, "compose", altered)
    assert run(["alpha", "--cover", "homology2",
                "--check", "hom-law"]) == EXIT_BREACH
    out, err = capsys.readouterr()
    assert "hom-law: 100 ordered pairs, failures=1\n" in out
    assert "alpha suites: FAILURES PRESENT" in out
    assert "alpha verification suite failed" in err
    assert len(calls) == 100


@pytest.mark.parametrize("cover, gens, composites", [
    ("homology2", 10, 72), ("homology3", 15, 155)])
def test_alpha_hom_law_restricts_each_distinct_composite_once(
        cover, gens, composites, monkeypatch, capsys):
    # restriction reads only the image tuple: after the standard
    # generators, one restriction per distinct composite g1∘g2, in order of
    # first appearance among the ordered pairs
    alpha_apply = cli.alpha_apply
    calls = []

    def counted(table, auto):
        calls.append(auto)
        return alpha_apply(table, auto)

    monkeypatch.setattr(cli, "alpha_apply", counted)
    assert run(["alpha", "--cover", cover, "--check", "hom-law"]) == EXIT_OK
    assert f"hom-law: {gens * gens} ordered pairs, failures=0\n" in (
        capsys.readouterr().out)
    standard = standard_autgens(int(cover[-1]))
    assert [auto.images for auto in calls[:gens]] == [
        g.forward.images for g in standard]
    firsts = {}
    for g1 in standard:
        for g2 in standard:
            auto = g1.forward.compose(g2.forward)
            firsts.setdefault(auto.images, auto.name)
    assert len(firsts) == composites
    assert [auto.name for auto in calls[gens:]] == list(firsts.values())


@pytest.mark.parametrize("pair", [("ta1", "flip"), ("flip", "tb3")])
def test_alpha_hom_law_checks_every_pair_of_a_shared_composite(
        pair, monkeypatch, capsys):
    # ta1∘flip = flip∘tb3 at genus 3, so both pairs share one restriction,
    # made for the first; a wrong compose of either pair alone must still
    # be counted.  The suite composes gauge copies of the generator
    # restrictions, which keep their cores: the factors are named by those
    standard = {g.name: g.forward for g in standard_autgens(3)}
    assert standard["ta1"].compose(standard["flip"]).images == (
        standard["flip"].compose(standard["tb3"]).images)
    alpha_apply = cli.alpha_apply
    compose = cosets.AutImage.compose
    names = {}

    def named(table, auto):
        image = alpha_apply(table, auto)
        names[id(image.cores)] = auto.name
        return image

    def altered(self, other):
        image = compose(self, other)
        if (names.get(id(self.cores)), names.get(id(other.cores))) == pair:
            return with_one_extra_letter(image)
        return image

    monkeypatch.setattr(cli, "alpha_apply", named)
    monkeypatch.setattr(cosets.AutImage, "compose", altered)
    assert run(["alpha", "--cover", "homology3",
                "--check", "hom-law"]) == EXIT_BREACH
    out = capsys.readouterr().out
    assert "hom-law: 225 ordered pairs, failures=1\n" in out
    assert "alpha suites: FAILURES PRESENT" in out


def test_alpha_containment_fails_on_one_altered_restriction(monkeypatch,
                                                           capsys):
    # one restriction of a conjugation by a Schreier generator, with one
    # wrong value, must fail the containment suite
    alpha_apply = cosets.alpha_apply
    calls = []

    def altered(table, auto):
        calls.append(auto)
        image = alpha_apply(table, auto)
        return with_one_extra_letter(image) if len(calls) == 1 else image

    monkeypatch.setattr(cosets, "alpha_apply", altered)
    assert run(["alpha", "--cover", "homology2",
                "--check", "containment"]) == EXIT_BREACH
    out = capsys.readouterr().out
    assert "containment: FAILED, index 16\n" in out
    assert "alpha suites: FAILURES PRESENT" in out
    assert len(calls) == 1  # the suite stops at the first failure


def test_alpha_hom_law_counts_one_altered_core(monkeypatch, capsys):
    # the first composite of the suite, ta1∘ta1, gets one wrong core in
    # openings equal to those of its direct restriction: the gauges alone
    # must tell the two apart
    compose = cosets.AutImage.compose
    altered = []

    def one_core_altered(self, other):
        image = compose(self, other)
        if altered:
            return image
        cores = list(image.cores)
        cores[0] = free_reduce(cores[0] + (1,))
        altered.append(cosets.AutImage._gauged(
            image.table, image.openings, image.reached, tuple(cores)))
        return altered[0]

    monkeypatch.setattr(cosets.AutImage, "compose", one_core_altered)
    assert run(["alpha", "--cover", "homology2",
                "--check", "hom-law"]) == EXIT_BREACH
    out = capsys.readouterr().out
    assert "hom-law: 100 ordered pairs, failures=1\n" in out
    assert "alpha suites: FAILURES PRESENT" in out
    ta1 = standard_autgens(2)[0]
    assert ta1.name == "ta1"
    direct = cosets.alpha_apply(altered[0].table,
                                ta1.forward.compose(ta1.forward))
    assert altered[0].openings == direct.openings
    assert altered[0].cores != direct.cores


def test_alpha_containment_fails_on_one_altered_opening(monkeypatch, capsys):
    # one restriction of a conjugation by a Schreier generator, with one
    # opening times y1 and its cores kept, must fail the containment suite
    alpha_apply = cosets.alpha_apply
    calls = []

    def altered(table, auto):
        calls.append(auto)
        image = alpha_apply(table, auto)
        if len(calls) > 1:
            return image
        openings = list(image.openings)
        openings[3] = free_reduce(openings[3] + (1,))
        return cosets.AutImage._gauged(table, tuple(openings), image.reached,
                                       image.cores)

    monkeypatch.setattr(cosets, "alpha_apply", altered)
    assert run(["alpha", "--cover", "homology2",
                "--check", "containment"]) == EXIT_BREACH
    out = capsys.readouterr().out
    assert "containment: FAILED, index 16\n" in out
    assert "alpha suites: FAILURES PRESENT" in out
    assert len(calls) == 1  # the suite stops at the first failure


@pytest.mark.parametrize("cover, check, pairs, assembled", [
    ("homology2", "hom-law", 14, 23),
    ("homology3", "hom-law", 22, 36),
    ("homology3", "containment", 0, 0),
])
def test_alpha_suites_assemble_values_only_where_openings_differ(
        cover, check, pairs, assembled, monkeypatch, capsys):
    # Restrictions are compared gauge to gauge, and values are joined only
    # where the openings differ.  The opening of coset c is the walk of
    # T·χ(t_c) for alpha_apply of χ = g1∘g2, T the tail its images share,
    # and of T1·g1(T2)·χ(t_c) for the composite of the restrictions of g1
    # and g2, with tails T1 and T2: the openings agree where T and
    # T1·g1(T2) do, and differ on the other pairs, 14 of 100 at genus 2
    # and 22 of 225 at genus 3, each a twist or a neck composed with a
    # conjugation by one generator letter, in one order or the other.  Each
    # such pair joins the values of its composite of restrictions, and
    # those of its direct restriction once per distinct composite: 9 and
    # 14 more.
    # Containment compares each restricted conjugation with conjugation
    # by rewrite(u), every opening rewrite(u)^-1 on both sides, and joins
    # no value.
    assembled_calls = []
    assemble = cosets._assembled

    def counted(*args):
        assembled_calls.append(args)
        return assemble(*args)

    monkeypatch.setattr(cosets, "_assembled", counted)
    assert run(["alpha", "--cover", cover, "--check", check]) == EXIT_OK
    capsys.readouterr()
    assert len(assembled_calls) == assembled
    if check == "hom-law":
        standard = [g.forward for g in standard_autgens(int(cover[-1]))]

        def tail(auto):
            return cosets._shared_segments(auto.images)[1]

        differ = [g1.compose(g2).images for g1 in standard for g2 in standard
                  if tail(g1.compose(g2)) != free_reduce(
                      tail(g1) + g1.apply_word(tail(g2)))]
        assert len(differ) == pairs
        assert len(differ) + len(set(differ)) == assembled


def test_alpha_hom_law_walks_each_distinct_word_once(monkeypatch, capsys):
    # the 170 restrictions of the homology3 hom-law suite ask the table for
    # the walks of 86 distinct words of two letters or more, each walked
    # from all 64 cosets once; the other 170 walks start from one coset
    # (the transversal tail and the inverse tree letters).  Walking every
    # word each time it is asked for took 16042 walks.
    walk, walks = cosets._walk, cosets.CosetTable.walks
    counts = {"walks": 0, "other": 0}
    asked = set()
    inside = []

    def counted_walk(rows, c):
        counts["walks" if inside else "other"] += 1
        return walk(rows, c)

    def counted_walks(table, word):
        asked.add(word)
        inside.append(word)
        try:
            return walks(table, word)
        finally:
            inside.pop()

    monkeypatch.setattr(cosets, "_walk", counted_walk)
    monkeypatch.setattr(cosets.CosetTable, "walks", counted_walks)
    assert run(["alpha", "--cover", "homology3", "--check", "hom-law"]) == (
        EXIT_OK)
    capsys.readouterr()
    multi = sum(1 for word in asked if len(word) >= 2)
    assert multi == 86
    assert counts == {"walks": 64 * multi, "other": 170}
    assert counts["walks"] + counts["other"] == 5674


# sha256 of the stdout and of the --out dump of `alpha --cover <cover>
# --check all --seed 0`: free reduction is unique, so no faster route to
# the restrictions or their composites may change a byte of either
ALPHA_DIGESTS = {
    "homology2": (
        "58ce3f80949278f083424340c0fd436b64569ee34afe1e3d49cda366058f3494",
        "e606c7384a846ef9aaaa371139231832ef544efa7cd0f187b198fd21ee1fd33b"),
    "homology3": (
        "9256f4d980543037d4a0d24713908a356af8256d8df927eebaf148b866b5f7d1",
        "8a3c0340a3b6df6fdeba0f477a4ad59d8f67470836b4b48c9f18da16df38db33"),
}


@pytest.mark.parametrize("cover", sorted(ALPHA_DIGESTS))
def test_alpha_output_bytes_are_pinned(cover, tmp_path, capsys):
    path = tmp_path / "alpha.json"
    assert run(["alpha", "--cover", cover, "--check", "all", "--seed", "0",
                "--out", str(path)]) == EXIT_OK
    out = capsys.readouterr().out.encode()
    assert (hashlib.sha256(out).hexdigest(),
            hashlib.sha256(path.read_bytes()).hexdigest()) == (
        ALPHA_DIGESTS[cover])


@pytest.mark.parametrize("cover", [
    "homology02", "homology\u0662", "homology\u00b2", "homology+3",
    "homology 3", "homology3 ",
    "homology", "homology1", "homology0", "Homology2",
])
def test_alpha_rejects_non_canonical_cover_names(cover, tmp_path, capsys):
    # only homology<g> in ASCII digits without a leading zero names a cover;
    # "homology02" and the Arabic-Indic "homology٢" once ran genus 2, and
    # the superscript "homology²" passes isdigit but not int
    out = tmp_path / "alpha.json"
    assert run(["alpha", "--cover", cover, "--check", "containment",
                "--out", str(out)]) == EXIT_USAGE
    assert f"unknown cover name {cover!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("enum, code", [(2400, EXIT_BUDGET), (2401, EXIT_OK)])
def test_alpha_containment_reads_the_enum_budget(enum, code, tmp_path,
                                                 capsys):
    # homology2 has N = 3·16 + 1 = 49 Schreier generators, so the
    # containment suite compares 49² = 2401 restricted images
    out = tmp_path / "alpha.json"
    assert run(["alpha", "--cover", "homology2", "--check", "containment",
                "--budget-enum", str(enum), "--out", str(out)]) == code
    assert out.exists() == (code == EXIT_OK)
    if code == EXIT_BUDGET:
        assert "2401" in capsys.readouterr().err


@pytest.mark.parametrize("profile, cover, check", [
    ("desk", "homology3", "containment"),
    ("desk", "homology3", "all"),
    ("default", "homology4", "containment"),
    ("wide", "homology7", "containment"),
    ("default", "homology7", "inner"),
    ("default", "homology1000000000", "all"),
])
def test_alpha_containment_over_the_profile_budget_exits_2(
        profile, cover, check, monkeypatch, capsys):
    # decided before any coset table is built, so none of these runs long
    monkeypatch.setenv("MCGLIFT_BUDGET_PROFILE", profile)
    assert run(["alpha", "--cover", cover, "--check", check]) == EXIT_BUDGET
    assert "budget exceeded" in capsys.readouterr().err


@pytest.mark.parametrize("check, enum, count, code", [
    ("inner", 1224, 1225, EXIT_BUDGET),
    ("inner", 1225, 1225, EXIT_OK),
    ("hom-law", 5389, 5390, EXIT_BUDGET),
    ("injectivity", 538, 539, EXIT_BUDGET),
])
def test_alpha_suites_read_the_enum_budget(check, enum, count, code, capsys):
    # homology2 has N = 49 Schreier generators and G = 10 standard
    # generators: inner restricts 25 conjugations (25·N), hom-law every
    # generator and ordered pair (N·(G²+G)), injectivity the generators and
    # the identity (N·(G+1))
    assert run(["alpha", "--cover", "homology2", "--check", check,
                "--budget-enum", str(enum)]) == code
    out, err = capsys.readouterr()
    if code == EXIT_OK:
        assert "alpha suites: all pass" in out
    else:
        assert f"{check} makes {count} restricted images" in err


@pytest.mark.parametrize("profile, argv, code", [
    ("default", ["enumerate", "--target", "a5", "--budget-tuples", "1000"],
     EXIT_BUDGET),
    ("roomy", ["enumerate", "--target", "c2"], EXIT_USAGE),
])
def test_module_entrypoint_exit_codes(profile, argv, code):
    env = dict(os.environ, PYTHONPATH=str(SRC),
               MCGLIFT_BUDGET_PROFILE=profile)
    proc = subprocess.run([sys.executable, "-m", "mcglift.cli"] + argv,
                          capture_output=True, text=True, env=env,
                          timeout=60)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.skipif(shutil.which("mcglift") is None,
                    reason="console script not installed")
def test_console_script_entrypoint():
    proc = subprocess.run(["mcglift", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    proc = subprocess.run(
        ["mcglift", "enumerate", "--genus", "2", "--target", "c2"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "homs: 16, epis: 15" in proc.stdout
