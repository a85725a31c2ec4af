"""The benchmark's workloads: one job each, its output digest and checks.

A job is one call into the public API or into ``mcglift.cli.main``.  It
returns a `JobOutput`; `check` compares it with the reference digest and
with facts that hold for every seed, and returns the list of problems.

The digest covers the job's stable output: the certificate's
``stable_dict()`` (the CLI's certificate JSON minus ``timing``), the
``enumerate`` listing, or the ``alpha`` dump.  The seed a forge certificate
echoes in ``seed_material`` is checked against the job's seed and then
blanked, so one reference digest serves every seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass


@dataclass
class JobOutput:
    exit_code: int
    stdout: str
    data: dict


def build_caches(mcglift):
    """Everything the workloads cache before their first job."""
    mcglift.target_s3()
    mcglift.target_psl2(5).aut_reps()
    for genus in (2, 3):
        mcglift.standard_autgens(genus)
        mcglift.SurfacePresentation(genus)


def digest(data):
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _run_cli(mcglift, argv, out_path):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = mcglift.cli.main(argv + ["--out", str(out_path)])
    data = {}
    if code == 0:
        with open(out_path) as f:
            data = json.load(f)
    return JobOutput(code, buf.getvalue(), data)


def _stable_certificate(data):
    data = dict(data)
    data.pop("timing", None)
    return data


def _seedless(data, seed, problems):
    echoed = data.get("seed_material", {}).get("seed")
    if echoed != seed:
        problems.append(f"certificate echoes seed {echoed}, job seed {seed}")
    data = json.loads(json.dumps(data))
    data.get("seed_material", {})["seed"] = None
    return data


class Workload:
    name = ""
    # A job running longer than this is stopped and recorded as a timeout.
    ceiling_s = 60

    def run(self, mcglift, seed, out_path):
        raise NotImplementedError

    def stable(self, output, seed, problems):
        """The part of the output the digest covers."""
        return output.data

    def semantic(self, mcglift, output, seed, problems):
        """Facts that hold for every seed."""

    def check(self, mcglift, output, seed, reference):
        problems = []
        if output.exit_code != 0:
            problems.append(f"exit code {output.exit_code}")
            return problems
        got = digest(self.stable(output, seed, problems))
        if got != reference:
            problems.append(f"digest {got[:16]} != reference "
                            f"{str(reference)[:16]}")
        self.semantic(mcglift, output, seed, problems)
        return problems


class ForgeS3Genus2(Workload):
    name = "forge-s3-g2"

    def run(self, mcglift, seed, out_path):
        cert = mcglift.forge_certificate_s3(2, seed=seed)
        return JobOutput(0, "", cert.stable_dict())

    def stable(self, output, seed, problems):
        return _seedless(output.data, seed, problems)

    def semantic(self, mcglift, output, seed, problems):
        d = output.data
        want = {"status": "VALID", "k": 360, "degree": str(3**30),
                "genus_out": str(3**30 + 1)}
        for key, value in want.items():
            if d.get(key) != value:
                problems.append(f"{key} = {d.get(key)!r}, want {value!r}")


class ForgeHallP5(Workload):
    name = "forge-hall-p5"

    def run(self, mcglift, seed, out_path):
        return _run_cli(mcglift, [
            "forge", "--route", "hall", "--prime", "5", "--collection", "12",
            "--seed", str(seed)], out_path)

    def stable(self, output, seed, problems):
        return _seedless(_stable_certificate(output.data), seed, problems)

    def semantic(self, mcglift, output, seed, problems):
        d = output.data
        if d.get("k") != 12:
            problems.append(f"k = {d.get('k')!r}, want 12")
        if d.get("status") != "INVALID":
            problems.append(f"status {d.get('status')!r}, want INVALID")
        note = d.get("checks", {}).get("characteristic", {}).get("note")
        if note != "collection-truncated":
            problems.append(f"characteristic note {note!r}, want "
                            "'collection-truncated'")


class AlphaHomology3(Workload):
    name = "alpha-homology3"

    def run(self, mcglift, seed, out_path):
        return _run_cli(mcglift, [
            "alpha", "--cover", "homology3", "--genus", "3", "--check", "all",
            "--seed", str(seed)], out_path)

    def semantic(self, mcglift, output, seed, problems):
        suites = output.data.get("suites", {})
        want = {"hom-law", "inner", "containment", "injectivity"}
        if set(suites) != want or not all(suites.values()):
            problems.append(f"suites {suites!r}, want all of {sorted(want)} "
                            "passing")
        for line in ("containment: ok, index 64", "alpha suites: all pass"):
            if line not in output.stdout.splitlines():
                problems.append(f"missing output line {line!r}")


class EnumerateS3Genus3(Workload):
    name = "enumerate-s3-g3"

    def run(self, mcglift, seed, out_path):
        return _run_cli(mcglift, [
            "enumerate", "--target", "s3", "--genus", "3",
            "--seed", str(seed)], out_path)

    def semantic(self, mcglift, output, seed, problems):
        d = output.data
        oracle = mcglift.count_homs_oracle(3, mcglift.target_s3())
        if not d.get("homs") == oracle == 16038:
            problems.append(f"homs {d.get('homs')}, oracle {oracle}, "
                            "want 16038")
        epis = d.get("epi_images", ())
        if not d.get("epis") == len(epis) == 15120:
            problems.append(f"epis {d.get('epis')}, listing {len(epis)}, "
                            "want 15120")
        line = "homs: 16038, epis: 15120, oracle: 16038"
        if line not in output.stdout.splitlines():
            problems.append(f"missing output line {line!r}")


WORKLOADS = {w.name: w for w in (
    ForgeS3Genus2(), ForgeHallP5(), AlphaHomology3(), EnumerateS3Genus3())}
