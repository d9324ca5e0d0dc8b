"""Closed-loop job runner: one client, one thread, one job at a time.

A job calls ``coarsec.cli.main(argv)`` in-process with stdout captured and
the working directory set to the run directory, so argparse, file I/O,
parsing, computation, self-checks and emission all fall inside its timing.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import statistics
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter, perf_counter_ns
from typing import Callable, Optional

from workloads import CATEGORY, Job


@dataclass(frozen=True)
class Outcome:
    """One executed job: its latency, exit code and whether it met expectations."""

    job: int
    ns: int
    exit: object
    ok: bool
    digest: str


def timed(fn: Callable[[], object]) -> tuple[object, float]:
    """Call fn once; return its result and the wall seconds it took."""
    t0 = perf_counter()
    result = fn()
    return result, perf_counter() - t0


@contextlib.contextmanager
def working_directory(path: Path):
    previous = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(previous)


def _verdict_ok(job: Job, code: object, stdout: str) -> bool:
    if code != job.expect_exit:
        return False
    if not job.expect:
        return True
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return False
    return isinstance(report, dict) and all(report.get(k) == v for k, v in job.expect.items())


def run_job(cli, index: int, job: Job, on_start: Optional[Callable[[int], None]] = None) -> Outcome:
    """Run one job in the current directory and check it against its expectation.

    ``cli.main`` is looked up at call time so that an installed tracer's
    wrapper is the one called.
    """
    out, err = io.StringIO(), io.StringIO()
    if on_start is not None:
        on_start(index)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter_ns()
        try:
            code: object = cli.main(list(job.argv))
        except Exception as exc:  # a crash is a failed job, not a failed run
            code = f"raised {type(exc).__name__}"
        t1 = perf_counter_ns()
    stdout = out.getvalue()
    h = hashlib.sha256()
    h.update("\0".join(job.argv).encode())
    h.update(f"\0{code}\0".encode())
    h.update(stdout.encode())
    for name in job.writes:
        path = Path(name)
        h.update(path.read_bytes() if path.exists() else b"\0missing")
    return Outcome(index, t1 - t0, code, _verdict_ok(job, code, stdout), h.hexdigest())


@dataclass
class Run:
    """Outcomes of a timed loop, with the wall time it used."""

    outcomes: list[Outcome]
    cycles: int
    wall_s: float
    digest: str
    nondeterministic: int


def run_loop(
    cli,
    jobs: list[Job],
    seconds: float,
    on_start: Optional[Callable[[int], None]] = None,
    min_jobs: int = 0,
) -> Run:
    """Run the job list as whole cycles for about seconds.

    A run is a whole number of cycles, at least one, so every metric sees
    the workload's fixed mix; the loop stops before a cycle that would end
    past the deadline at the mean cycle time so far, once at least min_jobs
    jobs have run.  The first cycle's outputs give the run's digest, and a
    later execution of a job whose output differs from that job's first
    output counts as failed.
    """
    first: list[str] = []
    outcomes: list[Outcome] = []
    nondeterministic = 0
    cycles = 0
    start = perf_counter()
    deadline = start + seconds
    while True:
        for index, job in enumerate(jobs):
            outcome = run_job(cli, index, job, on_start)
            if cycles == 0:
                first.append(outcome.digest)
            elif outcome.digest != first[index]:
                nondeterministic += 1
                outcome = replace(outcome, ok=False)
            outcomes.append(outcome)
        cycles += 1
        now = perf_counter()
        if now + (now - start) / cycles > deadline and len(outcomes) >= min_jobs:
            break
    digest = hashlib.sha256("".join(first).encode()).hexdigest()
    return Run(outcomes, cycles, perf_counter() - start, digest, nondeterministic)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


MIN_JOBS = 100
MIN_BEYOND_P90 = 10


def job_metrics(jobs: list[Job], run: Run) -> tuple[dict, dict]:
    """Latency and throughput metrics over every timed execution, and their sample counts."""
    ms = [o.ns / 1e6 for o in run.outcomes]
    by_group: dict[str, list[float]] = {"construct": [], "check": [], "info": []}
    for o in run.outcomes:
        by_group[CATEGORY[jobs[o.job].command]].append(o.ns / 1e6)
    p90 = percentile(ms, 90)
    metrics = {
        "jobs_per_s": len(ms) / run.wall_s,
        "job_ms_p50": statistics.median(ms),
        "job_ms_p90": p90,
        "check_ms_p50": statistics.median(by_group["check"]),
        "construct_ms_p50": statistics.median(by_group["construct"]),
        "info_ms_p50": statistics.median(by_group["info"]),
    }
    samples = {
        "jobs": len(ms),
        "beyond_p90": sum(1 for x in ms if x > p90),
        "check": len(by_group["check"]),
        "construct": len(by_group["construct"]),
        "info": len(by_group["info"]),
        "cycles": run.cycles,
    }
    return metrics, samples


def enough_samples(samples: dict) -> bool:
    """At least MIN_JOBS timed jobs, with at least MIN_BEYOND_P90 of them beyond p90."""
    return samples["jobs"] >= MIN_JOBS and samples["beyond_p90"] >= MIN_BEYOND_P90


def inputs_digest(directory: Path, exclude: set[str] = frozenset()) -> str:
    """sha256 over the names and bytes of the generated documents in directory."""
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        if path.name not in exclude:
            h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()
