"""The padicah benchmark: a seeded, closed-loop job mix per workload.

    python3 perfbench/run.py --workload recover --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from its
``src`` directory.  Set-up writes the workload's input files (see
workloads.py) and runs one warm-up job per job kind.  Then one client
calls ``padicah.cli.main`` in process, one job after the other, running
whole cycles of the mix until ``--seconds`` of job time have passed and
at least MIN_JOBS jobs are done.  Each job's report is checked against
its oracle outside the timed region.

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` it alternates untraced cycles with the same cycles under
the span tracer, and reports per-layer metrics and the tracing overhead.
The last line of standard output is one JSON object: {"correct",
"attempted", "failed", "metrics"}.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (the benchmark's own module, next to this file)

MIN_JOBS = 120  # p90 needs at least 10 samples beyond it
SETUP_REPEATS = 3
MAX_FAILURES_SHOWN = 5


def percentile(samples, q: int) -> float:
    """The q-th percentile (statistics.quantiles, exclusive method).

    Refuses when fewer than ten samples lie strictly beyond it, since a
    tail percentile resting on a handful of samples is noise.
    """
    value = statistics.quantiles(samples, n=100)[q - 1]
    beyond = sum(1 for s in samples if s > value)
    if beyond < 10:
        raise ValueError(
            f"p{q} of {len(samples)} samples has only {beyond} beyond it; need 10"
        )
    return value


def run_job(cli, job):
    """Call the CLI once; returns its exit code, or the error it raised."""
    try:
        return cli.main(list(job.argv))
    except SystemExit as exc:  # argparse rejects the command line
        return exc.code
    except Exception as exc:  # the job failed; the run goes on
        return f"raised {type(exc).__name__}: {exc}"


def read_report(job) -> bytes | None:
    try:
        return job.out.read_bytes()
    except FileNotFoundError:
        return None


class Loop:
    """Runs cycles of a job list and keeps per-job times and failures."""

    def __init__(self, cli, jobs, sha256):
        self.cli = cli
        self.jobs = jobs
        self.sha256 = sha256
        self.times: list[float] = []
        self.failures: list[str] = []
        self.attempted = 0

    def cycle(self, tracer=None) -> float:
        """One pass over the mix; returns the summed job time in seconds."""
        spent = 0.0
        for job in self.jobs:
            job.out.unlink(missing_ok=True)
            if tracer is not None:
                tracer.job = (self.attempted, job.label)
            t0 = time.perf_counter()
            code = run_job(self.cli, job)
            dt = time.perf_counter() - t0
            spent += dt
            self.times.append(dt)
            self.attempted += 1
            reason = workloads.check(job, code, read_report(job), self.sha256)
            if reason is not None:
                self.failures.append(f"{job.label} [{' '.join(job.argv)}]: {reason}")
        return spent

    def until(self, seconds: float) -> list[float]:
        """Whole cycles until `seconds` of job time and MIN_JOBS jobs;
        returns the job time of each cycle."""
        spent: list[float] = []
        while sum(spent) < seconds or len(spent) * len(self.jobs) < MIN_JOBS:
            spent.append(self.cycle())
        return spent


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.MIXES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import padicah from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "padicah" / "cli.py").is_file():
        raise SystemExit(f"error: no program source at {src / 'padicah'}")
    sys.path.insert(0, str(src))
    from padicah import cli

    if Path(cli.__file__).resolve().parent != (src / "padicah").resolve():
        raise SystemExit(f"error: imported padicah from {cli.__file__}, not {src}")
    return cli


def main(argv=None) -> int:
    t_start = time.perf_counter()
    args = parse_args(argv)
    cli = import_program()
    import_s = time.perf_counter() - t_start

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        return measure(cli, args, workdir, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(cli, args, workdir: Path, import_s: float) -> int:
    sha256 = workloads.load_sha256()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        jobs = workloads.make_jobs(args.workload, args.seed, workdir)
        for job in workloads.warmup_jobs(jobs):
            run_job(cli, job)
        setup_times.append(time.perf_counter() - t0)
    loop = Loop(cli, jobs, sha256)

    if args.trace:
        spans_path = ROOT / ".perfbench_out" / f"spans-{args.workload}-{args.seed}.jsonl"
        metrics = traced_metrics(loop, args.seconds, spans_path)
    else:
        spent = loop.until(args.seconds)
        ms = [t * 1000.0 for t in loop.times]
        metrics = {
            "job_p50_ms": (statistics.median(ms), "ms"),
            "job_p90_ms": (percentile(ms, 90), "ms"),
            # the median cycle, so one slow spell of the machine weighs little
            "jobs_per_s": (len(jobs) / statistics.median(spent), "1/s"),
            "setup_s": (import_s + statistics.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        print(f"workload {args.workload} seed {args.seed}: {len(ms)} jobs in "
              f"{len(spent)} cycles of {len(jobs)}, {sum(spent):.2f} s of job time")
        print(f"fail_ratio {len(loop.failures) / loop.attempted:.6g} "
              f"({len(loop.failures)} of {loop.attempted})")

    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for line in loop.failures[:MAX_FAILURES_SHOWN]:
        print(f"FAILED {line}")
    result = {
        "correct": not loop.failures,
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def traced_metrics(loop: Loop, seconds: float, spans_path: Path) -> dict:
    """Cycles alternately untraced and traced, half the time each."""
    import tracer as tracing

    tr = tracing.Tracer()
    cycles, untraced, traced = 0, 0.0, 0.0
    while untraced < seconds / 2:
        # alternate untraced and traced cycles so both see the same machine
        untraced += loop.cycle()
        tr.install()
        try:
            traced += loop.cycle(tr)
        finally:
            tr.uninstall()
        cycles += 1
    jobs = cycles * len(loop.jobs)
    spans_path.parent.mkdir(exist_ok=True)
    with open(spans_path, "w", encoding="utf-8") as fh:
        for s in tr.spans:
            fh.write(json.dumps({"id": s.id, "name": s.name, "job": s.job, "parent": s.parent,
                                 "thread": s.thread, "start": s.start, "end": s.end,
                                 "error": s.error, "counts": s.counts}) + "\n")
    print(f"traced {jobs} jobs ({len(tr.spans)} spans); untraced {untraced:.2f} s, "
          f"traced {traced:.2f} s")
    metrics = tracing.layer_metrics(tr.spans, jobs)
    metrics["trace.overhead"] = traced / untraced
    return {name: (value, tracing.unit_of(name)) for name, value in metrics.items()}


if __name__ == "__main__":
    sys.exit(main())
