"""smaralg benchmark: one workload per process, closed loop, checked outputs.

    python3 bench/run.py --workload spectral --seed 1 --seconds 28 --trace 0

Each job is one in-process call of ``smaralg.cli.main(argv)`` with stdout
captured, one job at a time.  Jobs come in rounds (see workloads.py);
the run starts new rounds while the time spent on jobs and reference
slices (below) is more than half a round short of ``--seconds``.  After
each round, untimed, every output is checked against the benchmark's own
computations.  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` the run wraps the layer modules (tracer.py) and reports
per-layer metrics per job instead.

Timings are given at reference speed.  A short fixed piece of
pure-Python work, the reference slice, is timed right before every job,
and each job's wall time is scaled by the slice's nominal time over the
median slice time of the jobs around it: the speed a process gets on a
shared machine moves by up to a quarter within seconds, and the slice
sees the same speed as the jobs next to it.  The line before the result
carries the unscaled wall-time figures and the median slice time; they
are not metrics.

The program is imported from ``src/`` next to this directory; without it
the run exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import Tracer, metric_names  # noqa: E402

SETUP_ROUNDS = 5
# Tail percentile per workload: it leaves well over ten jobs above it at
# the fewest jobs a run makes, and falls inside one class of jobs of like
# cost (README, "Percentiles").
TAIL_PERCENTILE = {"spectral": 95, "rep": 85, "semivec": 95, "desk": 99}


# The nominal slice time: a job's scaled time is its wall time on a
# machine where the slice takes this long.  A fixed constant, close to the
# slice's median time on the machine of the README's figures; it sets
# only the scale, and must stay the same for figures to compare.
SLICE_NOMINAL_S = 0.0012
# Jobs whose slices set one job's speed: the job itself and seven on
# each side.
SMOOTH_JOBS = 15


def reference_slice() -> float:
    """A fixed piece of pure-Python work of the kinds the program does
    (a tuple-keyed dict of int lists mod 13, Fraction sums, JSON text, and
    a max-min combination search over a 5^3 coefficient box), timed."""
    t0 = time.perf_counter()
    memo = {}
    total = Fraction(0)
    for i in range(80):
        memo[(i, i % 7)] = [i * j % 13 for j in range(8)]
        total += Fraction(i, 7 + i % 5)
    json.dumps({str(k): v for k, v in memo.items()})
    gens = [(1, 3, 2), (4, 0, 2), (2, 2, 3)]
    hits = 0
    for coeffs in itertools.product(range(5), repeat=3):
        combo = tuple(max(min(c, g[j]) for c, g in zip(coeffs, gens)) for j in range(3))
        hits += combo == (3, 3, 3)
    return time.perf_counter() - t0


def speed_factors(slices) -> list[float]:
    """Per job: the nominal slice time over the median slice time of the
    SMOOTH_JOBS jobs around it."""
    width = min(SMOOTH_JOBS, len(slices))
    factors = []
    for i in range(len(slices)):
        lo = max(0, min(i - width // 2, len(slices) - width))
        factors.append(SLICE_NOMINAL_S / statistics.median(slices[lo:lo + width]))
    return factors


def percentile(values, p: float) -> float:
    """Linear interpolation between closest ranks (inclusive method)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class Runner:
    def __init__(self, cli):
        self.cli = cli
        self.failures: list[str] = []
        self.wrong: list[str] = []

    def call(self, argv):
        """One job, timed; returns (seconds, exit code, stdout or None)."""
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = self.cli.main(argv)
        except (Exception, SystemExit) as exc:  # a crash is a failed job
            elapsed = time.perf_counter() - t0
            return elapsed, f"{type(exc).__name__}: {exc}", None
        return time.perf_counter() - t0, rc, buf.getvalue()

    def judge(self, job, rc, out) -> bool:
        """False when the job failed; records a wrong answer separately."""
        if out is None or rc != 0:
            self.failures.append(f"{job.label}: exit {rc}: {(out or '')[:200]}")
            return False
        try:
            report = json.loads(out)
        except json.JSONDecodeError:
            self.failures.append(f"{job.label}: output is not JSON")
            return False
        if report.get("status") != "ok":
            self.failures.append(f"{job.label}: {out[:200]}")
            return False
        try:
            job.check(report["payload"])
        except Exception as exc:  # a malformed payload is a wrong answer
            self.wrong.append(f"{job.label}: {type(exc).__name__}: {exc} :: {job.argv}")
        return True


def time_child_import() -> float:
    """Wall time of a fresh interpreter that imports the CLI module."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import smaralg.cli"
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT)
    return time.perf_counter() - t0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "smaralg" / "__init__.py").is_file():
        print(f"bench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, work: Path) -> int:
    workload = workloads.WORKLOADS[args.workload]
    files = workloads.Files(work / "inputs")

    import smaralg.cli as cli

    if Path(cli.__file__).resolve().parent.parent != SRC:
        print(f"bench: smaralg imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    runner = Runner(cli)

    warmup = workload.warmup(random.Random(f"{args.workload}/{args.seed}/warmup"), files)
    setup_times = []
    for _ in range(1 if args.trace else SETUP_ROUNDS):
        slices = [reference_slice() for _ in range(SMOOTH_JOBS)]
        spent = 0.0 if args.trace else time_child_import()
        for job in warmup:
            elapsed, rc, out = runner.call(job.argv)
            runner.judge(job, rc, out)
            spent += elapsed
        setup_times.append(spent * SLICE_NOMINAL_S / statistics.median(slices))

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()

    rng = random.Random(f"{args.workload}/{args.seed}")
    # A traced run repeats the seed's first round, so that its per-job
    # counts do not depend on how many rounds fit in the time.
    first_round = workload.round(rng, files) if tracer else None
    # Flat float arrays, so that peak_rss_mb barely moves with the job count.
    durations = array("d")
    slices = array("d")
    attempted = failed = 0
    loop_time = 0.0
    rounds = 0
    while rounds == 0 or loop_time * (1 + 0.5 / rounds) < args.seconds:
        jobs = first_round or workload.round(rng, files)
        outputs = []
        for job in jobs:
            if tracer:
                tracer.current_job = attempted + len(outputs)
            slice_time = reference_slice()
            elapsed, rc, out = runner.call(job.argv)
            slices.append(slice_time)
            durations.append(elapsed)
            loop_time += slice_time + elapsed
            outputs.append((rc, out))
        rounds += 1
        for job, (rc, out) in zip(jobs, outputs):
            attempted += 1
            if not runner.judge(job, rc, out):
                failed += 1
        del outputs

    if tracer:
        tracer.uninstall()

    for line in runner.failures[:10] + runner.wrong[:10]:
        print(f"bench: {line[:600]}", file=sys.stderr)

    tail = TAIL_PERCENTILE[args.workload]
    wall = {
        "jobs_per_s": len(durations) / sum(durations),
        "job_p50_ms": 1000.0 * percentile(durations, 50),
        "job_tail_ms": 1000.0 * percentile(durations, tail),
    }
    factors = speed_factors(slices)
    scaled = [d * f for d, f in zip(durations, factors)]
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": rounds,
        "jobs": len(durations),
        "tail_percentile": tail,
        "traced" if tracer else "untraced": {"wall": wall},
        "slice_median_ms": 1000.0 * statistics.median(slices),
    }
    if tracer:
        trace_dir = ROOT / ".bench_out"
        trace_dir.mkdir(exist_ok=True)
        trace_path = trace_dir / f"trace-{args.workload}-{args.seed}.tsv.gz"
        tracer.write(trace_path)
        info["trace_file"] = str(trace_path.relative_to(ROOT))
        units = dict(metric_names())
        # Span times are scaled like job times, by the run's median factor.
        speed = statistics.median(factors)
        metrics = {name: {"value": value * speed if units[name] == "ms" else value,
                          "unit": units[name]}
                   for name, value in tracer.metrics(len(durations)).items()}
    else:
        metrics = {
            "jobs_per_s": {"value": len(scaled) / sum(scaled), "unit": "1/s"},
            "job_p50_ms": {"value": 1000.0 * percentile(scaled, 50), "unit": "ms"},
            "job_tail_ms": {"value": 1000.0 * percentile(scaled, tail), "unit": "ms"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        }
    print(json.dumps(info))
    result = {
        "correct": not runner.wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
