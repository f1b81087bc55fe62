#!/usr/bin/env python3
"""bellseq benchmark: seeded workloads against the library API and the CLI.

    python3 bench/run.py --workload series_rational --seed 1 --seconds 20 --trace 0

One process, one thread, one client in a closed loop: each job is sent when
the previous one has returned, and every job of a run is a distinct request.
Each output is compared with a reference computed after the timed call
returns (see reference.py).  The program is imported from ``src/`` of the
checkout the benchmark sits in; nothing is installed.

``--trace 0`` runs whole rounds of the workload for ``--seconds`` (and for at
least MIN_SAMPLES correct jobs) with no wrapper installed, and reports the
end-to-end metrics.  ``--trace 1`` runs every job of a fixed number of rounds
twice, once with the wrappers of tracing.py installed and once without, and
reports the per-layer metrics of the traced calls; the fixed job list makes
every work counter repeat exactly for a seed.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  Lines before it give every metric by name with its unit
and the run's context.
"""

from __future__ import annotations

import argparse
import array
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_SAMPLES = 100  # job_p90_ms then has at least ten samples beyond it
MAX_SECONDS = 150  # a run must end well within three minutes
SETUP_LAUNCHES = 15
# rounds of a traced run; each job runs once untraced and once traced
TRACE_ROUNDS = {"series_rational": 3, "series_poly": 4, "oracle_grid": 8, "cli_mix": 16}
SETUP_ARGV = ["-m", "bellseq", "seq", "--preset", "catalan", "--n", "1", "--quiet"]
# On a virtual machine that shares its cores with other tenants, the speed
# of pure-Python code can drift by a third within a minute, far more than
# any bound.  Every time is therefore scaled to a reference speed: it is
# multiplied by CAL_REFERENCE_S over the median time of a fixed piece of the
# benchmark's own exact arithmetic, timed at least every CAL_EVERY_S while
# the round runs.  On a host where that piece takes CAL_REFERENCE_S, a
# scaled time is the wall time.
CAL_REFERENCE_S = 0.003
CAL_EVERY_S = 0.1
_CAL_C = [(Fraction(1, 2),), (Fraction(-2, 3),), (Fraction(3, 2),)]


def calibration_s() -> float:
    import reference

    start = perf_counter()
    reference.bell_sequence(1, 1, _CAL_C, 16)
    return perf_counter() - start


class Tally:
    """Outcome of a sequence of jobs run by one closed-loop client."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True  # no well-formed request got a wrong answer
        self.latencies = array.array("d")  # seconds, correct jobs only
        self.value_bits = 0
        self.compositions = 0  # compositions the jobs' oracles must visit
        self.busy = 0.0  # scaled seconds spent in requests, failed ones included
        self.rounds = 0
        self.scales = array.array("d")  # the scale of each round
        self.sizes = {"N": set(), "r": set(), "ring": set()}
        self.failures = []

    def run(self, jobs, tracer=None, calibrate=True):
        """Run one round, then scale its times to the reference speed, or
        keep wall times if not calibrate."""
        cal = calibration_s if calibrate else lambda: CAL_REFERENCE_S
        samples, sampled = [cal()], perf_counter()
        times, busy = [], 0.0
        for job in jobs:
            if tracer is not None:
                tracer.job = self.attempted
            start = perf_counter()
            try:
                out = job.run()
            except Exception as exc:  # a traceback is a failed request
                out = exc
            elapsed = perf_counter() - start
            if perf_counter() - sampled >= CAL_EVERY_S:
                samples.append(cal())
                sampled = perf_counter()
            self.attempted += 1
            busy += elapsed
            self.compositions += job.compositions
            bits = None
            if not isinstance(out, Exception):
                try:
                    bits = job.check(out)
                except (TypeError, ValueError, IndexError) as exc:
                    out = exc
            if bits is None:
                self.failed += 1
                self.correct &= job.malformed
                if len(self.failures) < 5:
                    self.failures.append(f"{job.key}: {out!r}"[:300])
                continue
            times.append(elapsed)
            self.value_bits = max(self.value_bits, bits)
            if not job.malformed:
                self.sizes["N"].add(job.n)
                if job.r:
                    self.sizes["r"].add(job.r)
                self.sizes["ring"].add(job.ring)
        samples.append(cal())
        scale = CAL_REFERENCE_S / statistics.median(samples)
        self.scales.append(scale)
        self.latencies.extend(t * scale for t in times)
        self.busy += busy * scale
        self.rounds += 1

    def jobs_per_s(self) -> float:
        return len(self.latencies) / self.busy if self.busy else 0.0


def setup_seconds() -> tuple:
    """Median scaled wall time of SETUP_LAUNCHES trivial CLI calls, each in
    a fresh interpreter, and whether every call exited 0 with no output."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times, samples, ok = [], [calibration_s()], True
    for _ in range(SETUP_LAUNCHES):
        start = perf_counter()
        proc = subprocess.run([sys.executable] + SETUP_ARGV, env=env, cwd=ROOT, capture_output=True)
        times.append(perf_counter() - start)
        samples.append(calibration_s())
        ok &= proc.returncode == 0 and not proc.stdout
    return statistics.median(times) * CAL_REFERENCE_S / statistics.median(samples), ok


def _digest(files) -> str:
    digest = hashlib.sha256()
    for path in files:
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def source_context() -> dict:
    files = sorted((SRC / "bellseq").rglob("*.py"))
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    return {"commit": commit, "src_digest": _digest(files),
            "bench_digest": _digest(sorted(HERE.glob("*.py"))),
            "src_lines": sum(path.read_bytes().count(b"\n") for path in files)}


def _range(values) -> list:
    return [min(values), max(values)] if values else []


def untraced_run(workload, seconds: float):
    import tracing

    tally = Tally()
    setup_s, setup_ok = setup_seconds()
    start = perf_counter()
    for jobs in workload.rounds():
        tally.run(jobs)
        elapsed = perf_counter() - start
        if (elapsed >= seconds and len(tally.latencies) >= MIN_SAMPLES) or elapsed >= MAX_SECONDS:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    lat_ms = sorted(1000 * t for t in tally.latencies) or [0.0]
    p90 = statistics.quantiles(lat_ms, n=10, method="inclusive")[8] if len(lat_ms) > 1 else lat_ms[0]
    metrics = {
        "jobs_per_s": (tally.jobs_per_s(), "1/s"),
        "job_p50_ms": (statistics.median(lat_ms), "ms"),
        "job_p90_ms": (p90, "ms"),
        "ok_ratio": (1 - tally.failed / tally.attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (setup_s, "s"),
    }
    wrapped = tracing.installed()
    tally.correct &= setup_ok and not wrapped
    notes = {
        "fail_ratio": f"{tally.failed / tally.attempted:.6f} ratio ({tally.failed} of {tally.attempted} failed)",
        "job_p90_ms": f"{len(lat_ms)} samples, {sum(t > p90 for t in lat_ms)} beyond",
        "setup_s": f"median of {SETUP_LAUNCHES} launches of python {' '.join(SETUP_ARGV)}",
    }
    context = {"wrappers_installed": wrapped, "setup_ok": setup_ok}
    return tally, metrics, notes, context


def traced_run(workloads, name: str, seed: int, source: dict):
    """Run the same jobs untraced and traced: two workloads of one seed draw
    identical rounds.  All rounds are drawn before any wrapper goes in, so
    drawing adds nothing to the counters.  Each job runs both ways back to
    back, untraced first for every other job, so that drift, warm-up and any
    cache the program keeps fall on both alike; times are wall times."""
    import reference
    import tracing

    plain, traced = workloads
    drawn = list(zip(range(TRACE_ROUNDS[name]), plain.rounds(), traced.rounds()))
    plain_jobs = [job for _, jobs, _ in drawn for job in jobs]
    traced_jobs = [job for _, _, jobs in drawn for job in jobs]
    untraced, tally, tracer = Tally(), Tally(), tracing.Tracer()
    for i, (plain_job, traced_job) in enumerate(zip(plain_jobs, traced_jobs)):
        if i % 2 == 0:
            untraced.run([plain_job], calibrate=False)
        with tracer:
            tally.run([traced_job], tracer, calibrate=False)
        if i % 2 == 1:
            untraced.run([plain_job], calibrate=False)
    calls, self_s = tracer.calls, tracer.self_s
    metrics = {
        "ring.poly_mul.calls": (calls["ring.poly_mul"], "count"),
        "ring.poly_mul.self_s": (self_s["ring.poly_mul"], "s"),
        "ring.binomial.calls": (calls["ring.binomial"], "count"),
        "ring.binomial.self_s": (self_s["ring.binomial"], "s"),
        "ring.value_bits_max": (tally.value_bits, "bits"),
        "bellpoly.partitions": (tracer.partitions, "count"),
        "bellpoly.enumerate_pi.self_s": (self_s["bellpoly.enumerate_pi"], "s"),
        "bellpoly.bell_eval.calls": (calls["bellpoly.bell_eval"], "count"),
        "bellpoly.bell_eval.self_s": (self_s["bellpoly.bell_eval"], "s"),
        "bellpoly.bell_eval_recurrence.self_s": (self_s["bellpoly.bell_eval_recurrence"], "s"),
        "seq.terms": (tracer.terms, "count"),
        "seq.bell_transform.calls": (calls["seq.bell_transform"], "count"),
        "seq.bell_transform.self_s": (self_s["seq.bell_transform"], "s"),
        "seq.bell_transform_rewritten.self_s": (self_s["seq.bell_transform_rewritten"], "s"),
        "seq.decompose.self_s": (self_s["seq.decompose"], "s"),
        "conv.compositions": (tracer.compositions, "count"),
        "conv.oracle.calls": (calls["conv.oracle"], "count"),
        "conv.oracle.self_s": (self_s["conv.oracle"], "s"),
        "conv.oracle.useful_ratio": (
            tracer.oracle_useful / tracer.oracle_total if tracer.oracle_total else 0.0, "ratio"),
        "conv.closed.calls": (calls["conv.closed"], "count"),
        "conv.closed.self_s": (self_s["conv.closed"], "s"),
        "conv.specialized.self_s": (self_s["conv.specialized"], "s"),
        "cli.main.calls": (calls["cli.main"], "count"),
        "cli.main.self_s": (self_s["cli.main"], "s"),
        "cli.exit2": (tracer.exit2, "count"),
        "trace.overhead_ratio": (
            untraced.jobs_per_s() / tally.jobs_per_s() if tally.jobs_per_s() else 0.0, "ratio"),
    }
    expected_partitions = sum(count * reference.partition_count(n, k)
                              for (n, k), count in tracer.partition_args.items())
    checks = {
        "compositions == sum C(n+r-1, r-1) over the jobs": tracer.compositions == tally.compositions,
        "partitions == sum p(n, k) over enumerate_pi calls": tracer.partitions == expected_partitions,
        "wrappers removed after the traced rounds": not tracing.installed(),
    }
    counters = {key: value for key, (value, unit) in metrics.items() if unit in ("count", "bits")}
    OUT.mkdir(exist_ok=True)
    stem = f"{name}-{seed}-{source['src_digest']}-{source['bench_digest']}"
    counts_file = OUT / f"counts-{stem}.json"
    if counts_file.exists():
        checks["counters equal an earlier run of this seed, program and benchmark"] = (
            json.loads(counts_file.read_text()) == counters)
    else:
        counts_file.write_text(json.dumps(counters, indent=1, sort_keys=True))
    tracer.write_spans(OUT / f"spans-{stem}.jsonl")
    tally.correct &= untraced.correct and all(checks.values())
    tally.attempted += untraced.attempted
    tally.failed += untraced.failed
    tally.failures += untraced.failures
    notes = {
        "conv.oracle.useful_ratio": "computed from the oracle's arguments, not measured",
        "trace.overhead_ratio": "untraced jobs_per_s / traced jobs_per_s over the same "
                                f"{untraced.attempted} jobs",
    }
    context = {"rounds": len(drawn), "self_checks": checks, "spans": len(tracer.spans)}
    return tally, metrics, notes, context


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "bellseq" / "__init__.py").is_file():
        print(f"bench: no bellseq sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import jobs

    if args.workload not in jobs.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(jobs.WORKLOADS)}")
    workloads = [jobs.Workload(args.workload, args.seed) for _ in range(1 + args.trace)]
    source = source_context()
    if args.trace:
        tally, metrics, notes, context = traced_run(workloads, args.workload, args.seed, source)
    else:
        tally, metrics, notes, context = untraced_run(workloads[0], args.seconds)
    # a slot that found no new request changed the mix of its rounds
    dropped = sum(w.dropped for w in workloads)
    tally.correct &= dropped == 0

    context = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "nproc": os.cpu_count(), **source,
        "jobs": tally.attempted, "rounds": tally.rounds, "N": _range(tally.sizes["N"]),
        "r": _range(tally.sizes["r"]), "ring": sorted(tally.sizes["ring"]),
        "host_scale_median": statistics.median(tally.scales),
        "dropped_slots": dropped, "late_draws": workloads[0].late, **context,
    }
    print("context " + json.dumps(context))
    for failure in tally.failures:
        print("failed " + failure)
    for key, (value, unit) in metrics.items():
        note = f"  ({notes[key]})" if key in notes else ""
        print(f"{key} {value if isinstance(value, int) else f'{value:.6g}'} {unit}{note}")
    if "fail_ratio" in notes:
        print(f"fail_ratio {notes['fail_ratio']}")
    print(json.dumps({
        "correct": tally.correct, "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
