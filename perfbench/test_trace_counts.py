"""Work counts from the traced run: exact repeats and closed forms.

    python3 -m pytest perfbench/test_trace_counts.py

Each workload runs traced twice with the same seed.  Every count-valued
per-layer metric must agree exactly between the two runs, and the counts
with a closed form must equal it.  The closed forms describe the program
as it is when the benchmark was written; a change that removes work (say,
the second precomposition pass) moves them on purpose and updates them
here.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
COUNTS = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]

# 20 directions (10 generators and their inverses) at genus 2, 30 at genus
# 3; every member is precomposed once in `orbit` and once in
# `certify_characteristic`.
CLOSED_FORMS = {
    "forge-s3-g2": {
        "autos.orbit.members": 360,
        "autos.precompose.calls": 360 * 20 * 2,
        "quotients.canonical_rep_mod_auts.calls": 0,
    },
    "forge-hall-p5": {},
    "alpha-homology3": {
        "autos.orbit.members": 2**6 - 1,
        "autos.precompose.calls": (2**6 - 1) * 30 * 2,
        "quotients.canonical_rep_mod_auts.calls": 0,
    },
    "enumerate-s3-g3": {
        "quotients.enumerate_homs.homs": 16038,
        "quotients.FiniteHom.is_surjective.calls": 16038,
        "autos.precompose.calls": 0,
        "quotients.canonical_rep_mod_auts.calls": 0,
    },
}


def traced(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=170, cwd=HERE.parent)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stdout
    return {k: v["value"] for k, v in result["metrics"].items()}


@pytest.mark.parametrize("workload", sorted(CLOSED_FORMS))
def test_counts_repeat_and_match_closed_forms(workload):
    first, second = traced(workload, 11), traced(workload, 11)
    assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}
    for name, value in CLOSED_FORMS[workload].items():
        assert first[name] == value, name
    if workload == "forge-hall-p5":
        assert first["quotients.canonical_rep_mod_auts.calls"] > 0
    if workload == "forge-s3-g2":
        assert first["autos.closure.useful_ratio"] == 360 / 14400
