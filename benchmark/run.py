"""Benchmark for lsfan: fixed batch workloads of real CLI jobs, run in process.

    python3 benchmark/run.py --workload chain-verify --seed 1 --seconds 30 --trace 0

One client, one process, no threads: each job is `lsfan.cli.main(argv)`,
started when the previous one has returned (a closed loop).  The seed only
permutes the order of the jobs, so every seed does the same work.

--trace 0 prints the end-to-end metrics: set-up passes alternating with passes
over the job list for --seconds (at least one of each), with job times scaled
to a reference host speed by a calibration loop.  --trace 1 runs one untraced
and two traced passes and prints the per-layer metrics; the two traced passes
must agree on every count.  Every job's exit code, stdout hash and key counts
are checked against expected.json in every pass.  The last line of stdout is
the JSON result; a failed job or a missing library makes the exit code
non-zero.  See README.md for the workloads and metrics.

    python3 benchmark/run.py --freeze

rewrites expected.json from the library as it is.  It is meant for the
commit that defined the benchmark, not for a change that is being measured.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import random
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = BENCH_DIR / "workloads.json"
EXPECTED = BENCH_DIR / "expected.json"
OUT_DIR = BENCH_DIR / "out"

TRACED_PASSES = 2

# Time of calibrate() on the reference host at its fast speed.  Job times are
# reported in seconds at that speed; see README.md, "Host noise".
CALIBRATION_S = 0.024


class BenchError(Exception):
    """The benchmark cannot produce a trustworthy result."""


class Job:
    def __init__(self, spec: list[str], instances: dict):
        command, instance, *extra = spec
        self.id = " ".join(spec)
        self.command = command
        self.instance = instances[instance]
        flags = []
        for key in ("type", "rank", "lambda", "tau", "iposet"):
            flags += [f"--{key}", str(self.instance[key])]
        self.argv = [command, *flags, *extra]
        self.dot = "dot" in extra


def load_jobs(workload: str) -> list[Job]:
    data = json.loads(WORKLOADS.read_text())
    if workload not in data["workloads"]:
        raise BenchError(f"unknown workload {workload!r}; "
                         f"known: {', '.join(data['workloads'])}")
    return [Job(spec, data["instances"]) for spec in data["workloads"][workload]]


def declared_units(kind: str) -> dict[str, str]:
    """Metric name -> unit, in the order BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def import_library():
    """Import lsfan from the checkout's src/ directory."""
    if not (ROOT / "src" / "lsfan" / "cli.py").is_file():
        raise BenchError(f"no lsfan sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    import lsfan.cli  # noqa: F401


# -- running and checking one job ----------------------------------------------


def run_job(job: Job, tracer=None, index: int = -1):
    """Run one job in process; returns (exit code or error text, stdout, seconds)."""
    from lsfan.cli import main

    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            if tracer is None:
                rc = main(job.argv)
            else:
                rc = tracer.run_job(index, main, job.argv)
        except Exception:  # a crash is a failed job, not a failed benchmark
            rc = "exception: " + traceback.format_exc(limit=-1).strip()
        seconds = time.perf_counter() - start
    return rc, out.getvalue(), seconds


def key_counts(job: Job, stdout: str) -> dict:
    """The counts a reader checks first: tableaux, fan vectors, DCP size."""
    if job.command == "verify":
        data = json.loads(stdout)
        counting = [c["detail"] for c in data["checks"] if c["check"] == "counting"]
        return {
            "ok": data["ok"],
            "tableaux": sum(d["tableaux"] for d in counting),
            "fan_vectors": sum(d["fan_vectors"] for d in counting),
        }
    if job.command == "enumerate":
        data = json.loads(stdout)
        return {"tableaux": data["count"], "fan_vectors": len(data["fan_vectors"])}
    if job.command == "dcp" and not job.dot:
        data = json.loads(stdout)
        return {"nodes": len(data["nodes"]), "edges": len(data["edges"])}
    return {}


def observed(job: Job, rc, stdout: str) -> dict:
    record = {
        "exit": rc,
        "sha256": hashlib.sha256(stdout.encode()).hexdigest(),
        "bytes": len(stdout.encode()),
    }
    try:
        record["counts"] = key_counts(job, stdout)
    except (ValueError, KeyError, TypeError) as exc:
        record["counts"] = {"unreadable": str(exc)}
    return record


def check_job(job: Job, rc, stdout: str, expected: dict) -> list[str]:
    """Problems with one job's result; empty when it is correct."""
    want = expected.get(job.id)
    if want is None:
        return ["no expected result is frozen for this job"]
    got = observed(job, rc, stdout)
    problems = [
        f"{field} is {got[field]!r}, expected {want[field]!r}"
        for field in ("exit", "sha256", "bytes", "counts")
        if got[field] != want[field]
    ]
    if job.command == "verify" and got["counts"].get("ok") is not True:
        problems.append('verify did not report "ok": true')
    return problems


def calibrate() -> float:
    """Seconds taken by a fixed piece of pure-Python work that does not touch
    lsfan: tuple keys, dict updates and Fraction sums, as in the library."""
    gc.disable()  # a collection of the last job's garbage is not host speed
    try:
        start = time.perf_counter()
        counts: dict[tuple, int] = {}
        total = Fraction(0)
        for i in range(9000):
            key = (i % 31, i % 7)
            counts[key] = counts.get(key, 0) + 1
            total += Fraction(i % 5, i % 11 + 1)
        sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        return time.perf_counter() - start
    finally:
        gc.enable()


class HostSpeed:
    """Converts job times to seconds at the reference speed, using the mean of
    the calibrations taken just before and just after each job."""

    def __init__(self):
        self.last = calibrate()

    def scale(self, seconds: float) -> float:
        now = calibrate()
        factor = CALIBRATION_S / ((self.last + now) / 2)
        self.last = now
        return seconds * factor


class PassResult:
    def __init__(self):
        self.job_seconds: dict[str, float] = {}  # at the reference speed
        self.failures: list[str] = []  # "job: problem" lines
        self.failed_jobs = 0
        self.bytes_out = 0
        self.wall_s = 0.0  # at the reference speed
        self.raw_wall_s = 0.0  # as measured


def run_pass(jobs: list[Job], order: list[int], expected: dict, tracer=None):
    result = PassResult()
    speed = HostSpeed()
    for i in order:
        job = jobs[i]
        rc, stdout, seconds = run_job(job, tracer, i)
        result.job_seconds[job.id] = speed.scale(seconds)
        result.wall_s += result.job_seconds[job.id]
        result.raw_wall_s += seconds
        result.bytes_out += len(stdout.encode())
        problems = check_job(job, rc, stdout, expected)
        result.failures += [f"{job.id}: {problem}" for problem in problems]
        result.failed_jobs += bool(problems)
    return result


# -- set-up time ----------------------------------------------------------------


def build_instance(instance: dict):
    """Root datum, Weyl group, Setup and inductive DCP of one instance, the
    way the CLI builds them for every job."""
    from lsfan import (Setup, WeylGroup, build_dcp_inductive, build_index_poset,
                       build_root_datum, chain_iposet, powerset_iposet)

    def vector(text):
        return tuple(int(x) for x in text.split(","))

    lambdas = [vector(part) for part in instance["lambda"].split(";")]
    m = len(lambdas)
    group = WeylGroup(build_root_datum(instance["type"], int(instance["rank"])))
    if instance["iposet"] == "chain":
        iposet = chain_iposet(m)
    elif instance["iposet"] == "powerset":
        iposet = powerset_iposet(m)
    else:
        iposet = build_index_poset(
            [frozenset(vector(part)) for part in instance["iposet"].split(";")], m)
    if instance["tau"] == "w0":
        tau = group.longest
    else:
        tau = group.from_word(vector(instance["tau"]))
    return build_dcp_inductive(Setup(group, lambdas, tau, iposet))


def setup_pass(jobs: list[Job], order: list[int]) -> float:
    """Set-up time of every job, in seconds at the reference speed."""
    total = 0.0
    speed = HostSpeed()
    for i in order:
        gc.collect()
        start = time.perf_counter()
        build_instance(jobs[i].instance)
        total += speed.scale(time.perf_counter() - start)
    return total


# -- the two kinds of run ----------------------------------------------------------


class Orders:
    """Job orders for successive passes, all drawn from the seed."""

    def __init__(self, n: int, seed: int):
        self.n = n
        self.rng = random.Random(seed)

    def next(self) -> list[int]:
        order = list(range(self.n))
        self.rng.shuffle(order)
        return order


def end_to_end(jobs, expected, orders: Orders, seconds: float):
    # Set-up passes alternate with workload passes, so that both sample the
    # whole run: the host's speed drifts over tens of seconds.
    setups, passes = [], []
    begin = time.perf_counter()
    while True:
        setups.append(setup_pass(jobs, orders.next()))
        passes.append(run_pass(jobs, orders.next(), expected))
        elapsed = time.perf_counter() - begin
        # go on only if at least half of another round fits in the budget
        if elapsed + 0.5 * elapsed / len(passes) > seconds:
            break
    # Means over the run, not medians: the host alternates between a fast and
    # a slow speed for seconds at a time, and a median of a few passes flips
    # between the two where a mean averages them.
    per_job = {job.id: statistics.fmean(p.job_seconds[job.id] for p in passes)
               for job in jobs}
    metrics = {
        "wall_s": sum(per_job.values()),
        "job_max_s": max(per_job.values()),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    slowest = max(per_job, key=per_job.get)
    raw = statistics.fmean(p.raw_wall_s for p in passes)
    notes = [f"passes: {len(passes)}", f"slowest job: {slowest}",
             f"wall time per pass as measured: {raw} s"]
    return passes, metrics, notes


def per_layer(jobs, expected, orders: Orders, workload: str, seed: int):
    from tracing import TIME_KEYS, Tracer

    untraced = run_pass(jobs, orders.next(), expected)
    passes, tracers = [untraced], []
    for _ in range(TRACED_PASSES):
        tracer = Tracer()
        with tracer:
            passes.append(run_pass(jobs, orders.next(), expected, tracer))
        tracers.append(tracer)
    traced = passes[1:]

    first = tracers[0].all_counts()
    for tracer, result in zip(tracers[1:], traced[1:]):
        again = tracer.all_counts()
        differ = sorted(k for k in first.keys() | again.keys()
                        if first.get(k) != again.get(k))
        if result.bytes_out != traced[0].bytes_out:
            differ.append("io.bytes_out")
        if differ:
            raise BenchError("two traced passes disagree on counts: "
                             + ", ".join(f"{k} {first.get(k)} != {again.get(k)}"
                                         for k in differ))

    OUT_DIR.mkdir(exist_ok=True)
    span_files = []
    for k, tracer in enumerate(tracers, 1):
        path = OUT_DIR / f"spans-{workload}-seed{seed}-pass{k}.jsonl.gz"
        span_files.append(f"{path.relative_to(ROOT)} ({tracer.write(path)} spans)")

    times = [t.times_s() for t in tracers]
    metrics = {f"{key}_s": statistics.median(t[key] for t in times)
               for key in TIME_KEYS}
    counts = tracers[0].layer_counts()
    metrics.update(counts)
    lattice = counts["lspath.lattice_points"]
    metrics["lspath.keep_ratio"] = (
        counts["lspath.paths_kept"] / lattice if lattice else 0.0)
    del metrics["fan.chains_listed"]
    metrics["fan.chains_per_vector"] = (
        counts["fan.chains_listed"] / counts["fan.vectors"]
        if counts["fan.vectors"] else 0.0)
    metrics["io.bytes_out"] = traced[0].bytes_out
    metrics["trace.overhead"] = (
        statistics.median(p.wall_s for p in traced) / untraced.wall_s)
    return passes, metrics, span_files


def freeze() -> None:
    """Write expected.json from one run of every job of every workload."""
    import_library()
    data = json.loads(WORKLOADS.read_text())
    expected = {}
    for workload in data["workloads"]:
        for job in load_jobs(workload):
            if job.id in expected:
                continue
            rc, stdout, seconds = run_job(job)
            record = observed(job, rc, stdout)
            if job.command == "verify" and record["counts"].get("ok") is not True:
                raise BenchError(f"{job.id}: verify is not ok; refusing to freeze")
            expected[job.id] = record
            print(f"{seconds:8.3f} s  {job.id}", file=sys.stderr)
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--freeze", action="store_true",
                        help="rewrite expected.json instead of measuring")
    args = parser.parse_args(argv)
    try:
        if args.freeze:
            freeze()
            return 0
        if not args.workload:
            parser.error("--workload is required")
        jobs = load_jobs(args.workload)
        import_library()
        expected = json.loads(EXPECTED.read_text())
        orders = Orders(len(jobs), args.seed)
        if args.trace:
            passes, metrics, notes = per_layer(jobs, expected, orders,
                                               args.workload, args.seed)
        else:
            passes, metrics, notes = end_to_end(jobs, expected, orders, args.seconds)
        units = declared_units("per_layer" if args.trace else "end_to_end")
        if set(metrics) != set(units):
            raise BenchError("metrics differ from BENCHMARK.json: "
                             + ", ".join(sorted(set(metrics) ^ set(units))))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    failures = [f for p in passes for f in p.failures]
    attempted = sum(len(p.job_seconds) for p in passes)
    failed = sum(p.failed_jobs for p in passes)
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    for note in notes:
        print(f"# {note}")
    for name in units:
        print(f"{name} {metrics[name]} {units[name]}")
    print(f"fail_ratio {failed / attempted} 1 ({failed} of {attempted} jobs)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
