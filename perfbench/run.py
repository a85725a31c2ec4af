"""Closed-loop benchmark of mcglift jobs.

    python3 perfbench/run.py --workload forge-s3-g2 --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 28

One client, one process, one thread: jobs run back to back after set-up
until the next job would end past `--seconds`.  Every job's output is
checked (see workloads.py).  The last line of standard output is one JSON
object with keys correct, attempted, failed and metrics; with `--trace 0`
the metrics are the `end_to_end` ones named in BENCHMARK.json, with
`--trace 1` the `per_layer` ones.  `--workload all` runs every workload in
its own process and prints a table instead.

The program is imported from the checkout's own `src/`; without it the
script exits with an error before measuring anything.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from speed import Speedometer
from tracer import Tracer
from workloads import WORKLOADS, build_caches, digest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SPEC = ROOT / "BENCHMARK.json"
REFERENCE = HERE / "reference.json"

BUDGET_PROFILE = "default"
SETUP_PROBES = 15
# Speed samples taken on each side of a set-up probe.
PROBE_SAMPLES = 2
TRACED_MODULES = ("words", "perm", "quotients", "autos", "cosets", "forge",
                  "cli")
# Per-layer metrics read from the traced set-up instead of the jobs.
SETUP_LAYER_METRICS = {"perm.mulclose.self_s"}


class JobTimeout(BaseException):
    """Raised by the alarm when a job passes its ceiling; a BaseException so
    no handler inside the program swallows it."""


def _on_alarm(signum, frame):
    raise JobTimeout


@dataclass
class Job:
    seed: int
    elapsed: float
    scaled: float
    problems: list
    counts: dict = field(default_factory=dict)
    spans: tuple = (0, 0)

    @property
    def ok(self):
        return not self.problems


def load_mcglift():
    if not (SRC / "mcglift" / "__init__.py").is_file():
        raise SystemExit(f"error: no mcglift source under {SRC}")
    sys.path.insert(0, str(SRC))
    import mcglift
    import mcglift.cli

    if Path(mcglift.__file__).resolve().parent != SRC / "mcglift":
        raise SystemExit(f"error: imported mcglift from {mcglift.__file__},"
                         f" not from {SRC}")
    return mcglift


def measure_setup():
    """Median over fresh interpreters of import plus cache building, raw
    and scaled to nominal machine speed."""
    speed = Speedometer()
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        speed.reset()
        for _ in range(PROBE_SAMPLES):
            speed.sample()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py")],
            capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up probe failed:\n{proc.stderr}")
        for _ in range(PROBE_SAMPLES):
            speed.sample()
        raw.append(float(proc.stdout.split()[-1]))
        scaled.append(raw[-1] * speed.factor())
    return statistics.median(raw), statistics.median(scaled)


def run_job(workload, mcglift, seed, reference, tracer=None, speed=None):
    """One checked job.  Its time is scaled to nominal machine speed when a
    Speedometer is given, and left raw otherwise."""
    gc.collect()
    counts_before = dict(tracer.counts) if tracer else {}
    lo = tracer.mark() if tracer else 0

    def call():
        return workload.run(mcglift, seed, OUT / f"{workload.name}.json")

    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, workload.ceiling_s)
        try:
            if speed:
                output, elapsed, scaled = speed.time_call(call)
            else:
                output = call()
                elapsed = scaled = time.perf_counter() - t0
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except JobTimeout:
        return Job(seed, workload.ceiling_s, workload.ceiling_s, ["timeout"])
    except Exception as e:  # a crashed job is a failed job, not a crash
        elapsed = time.perf_counter() - t0
        return Job(seed, elapsed, elapsed,
                   [f"exception {type(e).__name__}: {e}"])
    job = Job(seed, elapsed, scaled, [])
    if tracer:
        job.spans = (lo, tracer.mark())
        job.counts = {k: v - counts_before.get(k, 0)
                      for k, v in tracer.counts.items()}
    try:
        job.problems = workload.check(mcglift, output, seed, reference)
    except Exception as e:
        job.problems = [f"check raised {type(e).__name__}: {e}"]
    return job


def run_jobs(workload, mcglift, rng, seconds, reference, tracer=None,
             speed=None):
    """Jobs back to back until the next one would end past `seconds`."""
    jobs = []
    start = time.perf_counter()
    while True:
        jobs.append(run_job(workload, mcglift, rng.randrange(2**31),
                            reference, tracer, speed))
        typical = statistics.median(j.elapsed for j in jobs)
        if time.perf_counter() - start + typical > seconds:
            return jobs


def job_layers(tracer, job):
    """Flat per-layer values of one traced job."""
    values = dict(job.counts)
    for name, agg in tracer.summarize(*job.spans).items():
        values[f"{name}.calls"] = agg["calls"]
        values[f"{name}.self_s"] = agg["self_s"]
    closures = (values.get("autos.orbit.members", 0)
                + values.get("forge.collect_inequivalent_members.members", 0))
    precomposed = values.get("autos.precompose.calls", 0)
    values["autos.closure.useful_ratio"] = (
        closures / precomposed if precomposed else 0.0)
    return values


def report(jobs, metrics):
    failed = sum(1 for j in jobs if not j.ok)
    return {
        "correct": failed == 0,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": metrics,
    }


def describe(workload, jobs, label):
    walls = sorted(j.elapsed for j in jobs)
    print(f"{workload.name} {label}: {len(jobs)} jobs, raw wall median "
          f"{statistics.median(walls):.3f} s, min {walls[0]:.3f} s, "
          f"max {walls[-1]:.3f} s")
    for j in jobs:
        if j.problems:
            print(f"  job seed {j.seed} FAILED: {'; '.join(j.problems)}")


def untraced_run(workload, mcglift, rng, seconds, reference):
    setup_raw, setup_s = measure_setup()
    jobs = run_jobs(workload, mcglift, rng, seconds, reference,
                    speed=Speedometer())
    describe(workload, jobs, "untraced")
    wall_s = statistics.median(j.scaled for j in jobs)
    print(f"at nominal speed: job median {wall_s:.3f} s, set-up median "
          f"{setup_s:.4f} s (raw {setup_raw:.4f} s)")
    values = {
        "wall_s": wall_s,
        "setup_s": setup_s,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": sum(j.ok for j in jobs) / len(jobs),
    }
    return jobs, values


def traced_run(workload, mcglift, rng, seconds, reference, seed):
    tracer = Tracer()
    modules = {name: getattr(mcglift, name) for name in TRACED_MODULES}
    modules["mcglift"] = mcglift

    # Set-up under tracing: the caches are built lazily, on first use.
    tracer.install(modules)
    lo = tracer.mark()
    build_caches(mcglift)
    setup_layers = {f"{n}.self_s": a["self_s"]
                    for n, a in tracer.summarize(lo).items()}
    tracer.uninstall()

    plain = run_jobs(workload, mcglift, rng, seconds / 2, reference)
    describe(workload, plain, "untraced")
    tracer.install(modules)
    try:
        traced = run_jobs(workload, mcglift, rng, seconds / 2, reference,
                          tracer)
    finally:
        tracer.uninstall()
    describe(workload, traced, "traced")

    rows = [job_layers(tracer, j) for j in traced if j.ok]
    names = {name for row in rows for name in row}
    values = {name: statistics.median(row.get(name, 0) for row in rows)
              for name in names}
    for name in SETUP_LAYER_METRICS:
        values[name] = setup_layers.get(name, 0.0)
    values["trace.overhead_s"] = (
        statistics.median(j.elapsed for j in traced)
        - statistics.median(j.elapsed for j in plain))

    print("largest self times per traced job:")
    for name, value in sorted(
            ((k, v) for k, v in values.items() if k.endswith(".self_s")),
            key=lambda kv: -kv[1])[:12]:
        print(f"  {value:9.4f} s  {name[:-len('.self_s')]}")
    base = OUT / f"trace-{workload.name}"
    tracer.dump(base.with_suffix(".spans"))
    with open(base.with_suffix(".json"), "w") as f:
        json.dump({"seed": seed, "spans": tracer.mark(), "per_job": rows,
                   "setup": setup_layers}, f, indent=1, sort_keys=True)
    print(f"{tracer.mark()} spans written to {base.with_suffix('.spans')}")
    return plain + traced, values


def record_reference(workload, mcglift, references):
    """Store the digest of one job's stable output as the reference."""
    output = workload.run(mcglift, 0, OUT / f"{workload.name}.json")
    problems = []
    references[workload.name] = digest(workload.stable(output, 0, problems))
    workload.semantic(mcglift, output, 0, problems)
    if output.exit_code != 0 or problems:
        raise SystemExit(f"error: not recording a failing job: {problems}")
    with open(REFERENCE, "w") as f:
        json.dump(references, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"{workload.name}: {references[workload.name]}")
    return 0


def run_one(args):
    workload = WORKLOADS[args.workload]
    with open(SPEC) as f:
        spec = json.load(f)
    with open(REFERENCE) as f:
        references = json.load(f)
    os.environ["MCGLIFT_BUDGET_PROFILE"] = BUDGET_PROFILE
    mcglift = load_mcglift()
    OUT.mkdir(exist_ok=True)
    if args.record:
        return record_reference(workload, mcglift, references)
    reference = references.get(workload.name)
    signal.signal(signal.SIGALRM, _on_alarm)
    rng = random.Random(args.seed)

    if args.trace:
        jobs, values = traced_run(workload, mcglift, rng, args.seconds,
                                  reference, args.seed)
        wanted = spec["per_layer"]
    else:
        build_caches(mcglift)
        jobs, values = untraced_run(workload, mcglift, rng, args.seconds,
                                    reference)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0),
                           "unit": m["unit"]} for m in wanted}
    print(json.dumps(report(jobs, metrics)))
    return 0


def run_all(args):
    """Each workload in its own process; one table of end-to-end numbers."""
    rows = []
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True)
        sys.stdout.write(proc.stdout.rpartition("\n{")[0] + "\n")
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        rows.append((name, result))
    print()
    for name, result in rows:
        fail_frac = result["failed"] / result["attempted"]
        print(f"{name}: attempted {result['attempted']}, "
              f"failed {result['failed']}, fail_frac {fail_frac:.3f} "
              f"(fraction, lower is better)")
        for metric, m in result["metrics"].items():
            print(f"  {metric:45s} {m['value']:14.6g} {m['unit']}")
    return 0 if all(r["correct"] for _, r in rows) else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store one job's output digest as the reference")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
