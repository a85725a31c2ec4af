"""Command-line interface: exit codes, output shapes, and determinism."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from mcglift.autos import standard_autgens
from mcglift import forge
from mcglift.budgets import Budgets
from mcglift.cli import (
    EXIT_BREACH,
    EXIT_BUDGET,
    EXIT_OK,
    EXIT_USAGE,
    build_parser,
    main,
    resolve_budgets,
)
from mcglift.quotients import FiniteHom

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
    # single generators posing as sign-kernel words: a surjection onto S3
    # sends one of them to a transposition, which the construction forbids
    monkeypatch.setattr(forge, "CosetTable", lambda hom:
                        SimpleNamespace(words=((1,), (2,), (3,), (4,))))
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


def test_search_passes_the_enumeration_budget(capsys):
    assert run(["search", "--genus", "2", "--route", "hall", "--budget", "2",
                "--budget-enum", "100"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    methods = [job["certificate"]["checks"]["a"]["method"]
               for job in report["jobs"]]
    assert methods == ["enumeration", "structural"]


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
