"""The steinlab benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root; it imports steinlab from ``src/``.  A run
measures set-up from fresh interpreters, then drives ``steinlab.cli.run``
in a closed loop with one caller (the next job starts when the previous
one returns) for at least S seconds, in whole rounds of the workload's
job pool.  ``batch-modular`` instead runs one ``steinlab --jobs 2 batch``
process per round.  Every job's exit code and stdout are checked against
``expected.json`` and, where one exists, an independent oracle.  Times
are scaled to a reference machine speed, timed between rounds, so the
machine's drift in speed is divided out.

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it runs one round three times (untraced, with spans, with
operation counters) and reports the per-layer metrics.  The last line of
stdout is one JSON object; the lines above it name each metric with its
unit.  ``--workload all`` runs every workload in its own interpreter and
prints their metrics.  See README.md for what each metric and workload is
for.
"""

import argparse
import contextlib
import json
import os
import random
import resource
import shlex
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pools
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPEATS = 7
# job times per run, so that the tail percentile, p90, has at least ten
# samples beyond it in every run
MIN_SAMPLES = 100
BATCH_JOBS = 2
# seconds the reference computation takes at the nominal machine speed
REF_SECONDS = 0.1

SETUP_CHILD = """\
import json, sys
sys.path.insert(0, sys.argv[1])
import steinlab.cli
from steinlab.fields import Field
for p, e in json.loads(sys.argv[2]):
    Field.rationals() if p == 0 else Field.galois(p, e)
print("ready", flush=True)
"""

# the ``steinlab`` console script, with src/ put on the path first
BATCH_CHILD = """\
import sys
sys.path.insert(0, sys.argv.pop(1))
from steinlab.cli import main
sys.exit(main())
"""

END_TO_END_UNITS = {"setup_s": "s", "jobs_per_s": "1/s", "job_p50_s": "s",
                    "job_tail_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def load_steinlab():
    """Import steinlab from this checkout's src/ (never from elsewhere)."""
    if not (SRC / "steinlab" / "cli.py").is_file():
        raise BenchError(f"no steinlab sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import steinlab.cli
    if Path(steinlab.cli.__file__).resolve().parent != SRC / "steinlab":
        raise BenchError(f"imported steinlab from {steinlab.cli.__file__}")
    return steinlab.cli


class Checker:
    """Compares job outputs with the pinned expectations and oracles."""

    def __init__(self, path):
        with open(path) as fh:
            pinned = json.load(fh)
        self.jobs = pinned["jobs"]
        self.fields = pinned["fields"]

    def ok(self, job, code, text):
        exp = self.jobs[job]
        return (code == exp["code"]
                and pools.stdout_of(text) == exp["stdout"]
                and pools.oracle_ok(job, code, text))

    def batch_failures(self, jobs, code, stdout):
        """Failed jobs in one batch run of ``jobs``."""
        if code != 0:
            return len(jobs)
        try:
            report = json.loads(stdout)
        except json.JSONDecodeError:
            return len(jobs)
        results = report["results"]
        if report["jobs"] != len(jobs) or len(results) != len(jobs):
            return len(jobs)
        failed = sum(1 for i, ((job, _), r) in enumerate(zip(jobs, results))
                     if r["index"] != i
                     or not self.ok(job, r["code"], r["output"]))
        refusals = sum(1 for job, _ in jobs if self.jobs[job]["code"])
        if not failed and report["failures"] != refusals:
            failed = 1
        return failed


def draw(workload, seed, rnd):
    """Round ``rnd`` of a workload: every job of its pool once, in an
    order drawn from the seed, each with a ``--seed`` drawn from it too."""
    pool = pools.WORKLOADS[workload]
    rng = random.Random(f"{pool}:{seed}:{rnd}")
    jobs = list(pools.POOLS[pool])
    rng.shuffle(jobs)
    return [(job, rng.randrange(1 << 16)) for job in jobs]


def argv_of(job, cli_seed):
    return ["--seed", str(cli_seed)] + shlex.split(job)


# -- machine speed -------------------------------------------------------

def reference():
    """Seconds one fixed pure-Python computation takes now.  It shares no
    code with steinlab, so its time follows only the machine's speed."""
    t0 = time.perf_counter()
    acc, table, seen = 0, list(range(97)), {}
    for i in range(600000):
        acc = (acc * 31 + table[i % 97]) % 1000003
        seen[i & 255] = acc
    total = Fraction(0)
    for i in range(1, 1500):
        total += Fraction(1, i)
    return time.perf_counter() - t0


def scale(before, after):
    """Factor that turns seconds measured between two reference timings
    into seconds at the nominal speed."""
    return REF_SECONDS / ((before + after) / 2)


# -- set-up --------------------------------------------------------------

def setup_once(fields):
    """Seconds from starting an interpreter to steinlab being imported
    and every field built."""
    cmd = [sys.executable, "-I", "-c", SETUP_CHILD, str(SRC),
           json.dumps(fields)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=60)
    if line != b"ready\n" or code != 0:
        raise BenchError("set-up interpreter failed")
    return elapsed


def measure_setup(fields):
    """Median set-up seconds, scaled to the reference speed."""
    before = reference()
    times = [setup_once(fields) for _ in range(SETUP_REPEATS)]
    return statistics.median(times), scale(before, reference())


def build_fields(fields):
    from steinlab.fields import Field
    for p, e in fields:
        Field.rationals() if p == 0 else Field.galois(p, e)


# -- running jobs --------------------------------------------------------

def run_jobs(cli, check, jobs, job_span=None):
    """Run jobs in-process one after another.  Returns per-job seconds,
    the (code, text) outputs and the number of failed jobs."""
    clock = time.perf_counter
    span = job_span or (lambda name: contextlib.nullcontext())
    times, outputs, failed = [], [], 0
    for job, cli_seed in jobs:
        argv = argv_of(job, cli_seed)
        with span("job"):
            t0 = clock()
            code, text = cli.run(argv)
            times.append(clock() - t0)
        outputs.append((code, text))
        if not check.ok(job, code, text):
            failed += 1
    return times, outputs, failed


def run_batch(check, jobs):
    """One ``steinlab --jobs 2 batch`` process over ``jobs``.  Returns its
    wall seconds, failed jobs and peak resident MB."""
    WORK.mkdir(exist_ok=True)
    path = WORK / f"manifest-{os.getpid()}.json"
    path.write_text(json.dumps([{"args": argv_of(job, s)}
                                for job, s in jobs]))
    cmd = [sys.executable, "-I", "-c", BATCH_CHILD, str(SRC),
           "--jobs", str(BATCH_JOBS), "batch", str(path)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT)
    with proc.stdout:
        stdout = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    path.unlink()
    failed = check.batch_failures(jobs, proc.returncode, stdout)
    return wall, failed, usage.ru_maxrss / 1024


def p90(samples):
    """The 90th percentile (nearest rank)."""
    s = sorted(samples)
    return s[-(-9 * len(s) // 10) - 1]


def measure(cli, check, workload, seed, seconds):
    """The timed run: whole rounds until ``seconds`` have passed and the
    run holds at least MIN_SAMPLES job times.  Each round's times are
    scaled by the reference timings taken before and after it."""
    pool = pools.POOLS[pools.WORKLOADS[workload]]
    batch = workload == "batch-modular"
    min_rounds = 1 if batch else -(-MIN_SAMPLES // len(pool))
    samples, raw, rounds, attempted, failed, peak = [], [], 0, 0, 0, 0.0
    busy = raw_busy = 0.0
    clock = time.perf_counter
    start = clock()
    ref = reference()
    while rounds < min_rounds or clock() - start < seconds:
        jobs = draw(workload, seed, rounds)
        t0 = clock()
        if batch:
            times, f = [], 0
            for part in pools.batch_parts(jobs):
                part_wall, part_failed, rss = run_batch(check, part)
                times.append(part_wall)
                f += part_failed
                peak = max(peak, rss)
        else:
            times, _, f = run_jobs(cli, check, jobs)
        wall = clock() - t0
        ref_after = reference()
        k = scale(ref, ref_after)
        ref = ref_after
        samples += [t * k for t in times]
        raw += times
        busy += wall * k
        raw_busy += wall
        attempted += len(jobs)
        failed += f
        rounds += 1
    if not batch:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    correct = attempted - failed
    return {
        "metrics": {"jobs_per_s": correct / busy,
                    "job_p50_s": statistics.median(samples),
                    "job_tail_s": p90(samples),
                    "peak_rss_mb": peak},
        "attempted": attempted, "failed": failed,
        "notes": [f"job_p50_s and job_tail_s (p90) over {len(samples)} "
                  f"{'batch' if batch else 'job'} times; {rounds} rounds "
                  f"in {raw_busy:.3f} s",
                  f"unscaled: jobs_per_s {correct / raw_busy:.6g}, "
                  f"job_p50_s {statistics.median(raw):.6g}, "
                  f"job_tail_s {p90(raw):.6g}; "
                  f"speed factor {raw_busy / busy:.4f}"],
    }


# -- traced run ----------------------------------------------------------

def traced(cli, check, workload, seed):
    """One round, run untraced, with spans and with operation counters.
    Counts depend only on the seed; times come from the span pass."""
    jobs = draw(workload, seed, 0)
    clock = time.perf_counter

    t0 = clock()
    base_times, base_out, f0 = run_jobs(cli, check, jobs)
    base_wall = clock() - t0

    spans = tracer.SpanTracer()
    with spans:
        t0 = clock()
        _, span_out, f1 = run_jobs(cli, check, jobs, spans.span)
        span_wall = clock() - t0

    ops = tracer.OpCounter()
    with ops:
        _, count_out, f2 = run_jobs(cli, check, jobs)

    attempted, failed = 3 * len(jobs), f0 + f1 + f2
    speedup = 0.0
    if workload == "batch-modular":
        wall, f3, _ = run_batch(check, jobs)
        speedup = sum(base_times) / wall
        attempted += len(jobs)
        failed += f3

    calls, self_s = spans.summary()
    tallies = spans.tallies
    m = {}
    for kind in tracer.FIELD_KINDS:
        m[f"fields.{kind}.calls"] = (ops.counts[kind], "count")
    for name in tracer.SPANS:
        if not name.startswith("cli."):
            m[f"{name}.calls"] = (calls[name], "count")
            m[f"{name}.self_s"] = (self_s[name], "s")

    def ratio(num, den):
        return num / den if den else 0.0
    m["matrices.add_vector.grew_ratio"] = (ratio(
        tallies["matrices.add_vector.grew"],
        calls["matrices.add_vector"]), "ratio")
    m["matrices.rref.cells"] = (tallies["matrices.rref.cells"], "count")
    m["functorcat.iext_value.ambient"] = (
        tallies["functorcat.iext_value.ambient"], "count")
    m["modtools.find_proper_submodule.found_ratio"] = (ratio(
        tallies["modtools.find_proper_submodule.found"],
        calls["modtools.find_proper_submodule"]), "ratio")
    m["emlpoly.evals"] = (ops.counts["evals"], "count")
    m["cli.parse_s"] = ((self_s["cli.build_parser"]
                         + self_s["cli.parse_args"]) / len(jobs), "s")
    m["cli.render_s"] = (self_s["cli.render"] / len(jobs), "s")
    m["cli.batch.speedup"] = (speedup, "ratio")
    m["trace.overhead_ratio"] = (span_wall / base_wall - 1, "ratio")

    WORK.mkdir(exist_ok=True)
    span_file = WORK / f"spans-{workload}.json.gz"
    spans.write(span_file)
    identical = base_out == span_out == count_out
    return {
        "metrics": m, "attempted": attempted, "failed": failed,
        "identical": identical,
        "notes": [f"{len(jobs)} jobs per pass, {spans.count()} spans "
                  f"written to {span_file.relative_to(ROOT)}",
                  "stdout identical with tracing on and off: "
                  f"{'yes' if identical else 'NO'}"],
    }


# -- entry points --------------------------------------------------------

def run_workload(args):
    cli = load_steinlab()
    check = Checker(BENCH / "expected.json")
    fields = check.fields[pools.WORKLOADS[args.workload]]
    build_fields(fields)
    if args.trace:
        res = traced(cli, check, args.workload, args.seed)
        metrics = res["metrics"]
        correct = res["failed"] == 0 and res["identical"]
    else:
        setup_s, k = measure_setup(fields)
        res = measure(cli, check, args.workload, args.seed, args.seconds)
        res["notes"].append(f"unscaled: setup_s {setup_s:.6g}")
        metrics = {"setup_s": (setup_s * k, "s")}
        for name, value in res["metrics"].items():
            metrics[name] = (value, END_TO_END_UNITS[name])
        correct = res["failed"] == 0
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:.6g} {unit}")
    print(f"{'failed_ratio':44s} {res['failed'] / res['attempted']:.6g} "
          f"ratio ({res['failed']} of {res['attempted']} jobs)")
    for note in res["notes"]:
        print(f"# {note}")
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args):
    """Every workload, each in a fresh interpreter; prints their metrics."""
    code = 0
    for workload in pools.WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = done.stdout.splitlines()
        if done.returncode or not lines:
            print(f"{workload}: failed with exit code {done.returncode}")
            code = 1
            continue
        result = json.loads(lines[-1])
        print(f"== {workload}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for line in lines[:-1]:
            print(f"   {line}")
        if not result["correct"]:
            code = 1
    return code


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=list(pools.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        if args.workload == "all":
            return run_all(args)
        return run_workload(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
