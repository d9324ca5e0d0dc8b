"""coarsec benchmark: whole CLI jobs in a closed loop, one client, one thread.

    python3 bench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

The seed makes the workload's documents; coarsec sees only those documents.
Each job runs ``coarsec.cli.main(argv)`` in-process and is checked against
the exit code and verdict the generator expects.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` first times an untraced half, then traces
whole job cycles and prints the per-layer metrics.  Spans go to
``.bench_runs/spans-<workload>.{bin,json}``.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
``--workload all`` runs each workload in its own process.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import harness
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
SETUP_REPS = 11

END_TO_END_UNITS = {
    "setup_s": "s",
    "jobs_per_s": "jobs/s",
    "job_ms_p50": "ms",
    "job_ms_p90": "ms",
    "check_ms_p50": "ms",
    "construct_ms_p50": "ms",
    "info_ms_p50": "ms",
    "peak_rss_mb": "MiB",
}


def import_coarsec():
    """Import coarsec.cli afresh from this checkout's src directory."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "coarsec" or m.startswith("coarsec.")]:
        del sys.modules[name]
    cli = importlib.import_module("coarsec.cli")
    if Path(cli.__file__).resolve().parent != SRC / "coarsec":
        raise ImportError(f"coarsec imported from {cli.__file__}, not from {SRC}")
    return cli


def package_modules() -> dict:
    return {
        name.split(".", 1)[1]: module
        for name, module in sys.modules.items()
        if name.startswith("coarsec.")
    }


@dataclass
class Setup:
    cli: object
    jobs: list
    directory: Path
    seconds: float
    inputs_digest: str
    consistent: bool


def _setup_once(workload: str, seed: int, directory: Path):
    """Import coarsec, write the documents and run one warm-up job.

    Returns coarsec.cli, the jobs, the seconds it took and whether the
    warm-up job met its expectation.
    """
    t0 = perf_counter()
    cli = import_coarsec()
    jobs = workloads.build(workload, seed, directory)
    with harness.working_directory(directory):
        warm = harness.run_job(cli, 0, jobs[0])
    return cli, jobs, perf_counter() - t0, warm.ok


_TIMED_SETUP = (
    "import json, sys, run; "
    "print(json.dumps(run._setup_once(sys.argv[1], int(sys.argv[2]), run.Path(sys.argv[3]))[2:]))"
)


def setup(workload: str, seed: int, run_dir: Path) -> Setup:
    """Set up once for the run, then SETUP_REPS times more, each in a fresh process.

    setup_s is the median of the fresh processes' times, so the repetitions
    neither see each other's imports nor add to this process's peak_rss_mb.
    Every set-up must write byte-identical documents and pass its warm-up job.
    """
    directory = run_dir / "run"
    cli, jobs, _, consistent = _setup_once(workload, seed, directory)
    written = {name for job in jobs for name in job.writes}
    digest = harness.inputs_digest(directory, exclude=written)
    times = []
    for rep in range(SETUP_REPS):
        rep_dir = run_dir / f"setup{rep}"
        proc = subprocess.run(
            [sys.executable, "-c", _TIMED_SETUP, workload, str(seed), str(rep_dir)],
            cwd=HERE, capture_output=True, text=True, timeout=120, check=True,
        )
        seconds, ok = json.loads(proc.stdout.splitlines()[-1])
        times.append(seconds)
        consistent = consistent and ok and harness.inputs_digest(rep_dir, exclude=written) == digest
        shutil.rmtree(rep_dir)
    return Setup(cli, jobs, directory, statistics.median(times), digest, consistent)


def _failures(jobs, outcomes, limit=5) -> list[str]:
    lines = []
    for o in outcomes:
        if not o.ok and len(lines) < limit:
            job = jobs[o.job]
            lines.append(
                f"  FAILED {' '.join(job.argv)}: exit {o.exit!r}, "
                f"expected exit {job.expect_exit} with {job.expect}"
            )
    return lines


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    run_dir = RUNS / f"{workload}-seed{seed}-pid{os.getpid()}"
    try:
        s = setup(workload, seed, run_dir)
        with harness.working_directory(s.directory):
            if trace:
                return _traced(workload, s, seconds)
            return _untraced(workload, s, seconds)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _header(workload: str, s: Setup) -> list[str]:
    return [
        f"workload {workload}: {len(s.jobs)} jobs per cycle, inputs sha256 {s.inputs_digest}",
        f"  setup consistent (same documents and passing warm-up in this process and {SETUP_REPS} fresh ones):"
        f" {s.consistent}",
    ]


def _untraced(workload: str, s: Setup, seconds: float) -> dict:
    run = harness.run_loop(s.cli, s.jobs, seconds, min_jobs=harness.MIN_JOBS)
    values, samples = harness.job_metrics(s.jobs, run)
    values["setup_s"] = s.seconds
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed = sum(1 for o in run.outcomes if not o.ok)
    attempted = len(run.outcomes)
    lines = _header(workload, s) + [
        f"  outputs sha256 (first cycle) {run.digest}; {run.cycles} whole cycles in {run.wall_s:.1f} s",
    ]
    for name, unit in END_TO_END_UNITS.items():
        lines.append(f"  {name:<18} {values[name]:>12.4f} {unit}")
    lines.append(
        f"  {'failed_jobs_ratio':<18} {failed / attempted:>12.4f} ratio ({failed} of {attempted} jobs;"
        f" {run.nondeterministic} with output differing from the first cycle)"
    )
    enough = harness.enough_samples(samples)
    lines.append(
        "  samples: {jobs} jobs, {beyond_p90} beyond p90; check {check}, construct {construct},"
        " info {info}".format(**samples)
        + f" (at least {harness.MIN_JOBS} jobs and {harness.MIN_BEYOND_P90} beyond p90: {enough})"
    )
    lines += _failures(s.jobs, run.outcomes)
    return {
        "lines": lines,
        "correct": s.consistent and failed == 0 and enough,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": u} for n, u in END_TO_END_UNITS.items()},
    }


def _traced(workload: str, s: Setup, seconds: float) -> dict:
    base = harness.run_loop(s.cli, s.jobs, seconds / 2)
    tracer = tracing.Tracer()
    executed: list[int] = []

    def on_start(index: int) -> None:
        tracer.set_job(len(executed))
        executed.append(index)

    tracer.install(package_modules())
    try:
        run = harness.run_loop(s.cli, s.jobs, seconds / 2, on_start=on_start)
    finally:
        tracer.uninstall()
    overhead = harness.job_metrics(s.jobs, run)[0]["jobs_per_s"] / harness.job_metrics(s.jobs, base)[0]["jobs_per_s"]
    summary = tracing.summarize(
        tracer, workload, run.cycles, [s.jobs[i].command for i in executed],
        [o.ns for o in run.outcomes], overhead,
    )
    RUNS.mkdir(exist_ok=True)
    tracer.write(RUNS / f"spans-{workload}", [s.jobs[i].argv for i in executed])

    outcomes = base.outcomes + run.outcomes
    failed = sum(1 for o in outcomes if not o.ok)
    lines = _header(workload, s) + [
        f"  traced {run.cycles} whole cycles: {summary.spans} spans written to"
        f" {RUNS.relative_to(ROOT)}/spans-{workload}.bin",
        f"  span coverage: missing {summary.missing_spans or 'none'};"
        f" jobs whose root cli.main span is missing, doubled or off the harness timing: {summary.broken}",
    ]
    for m in tracing.LAYER_METRICS:
        lines.append(
            f"  {m.name:<46} {summary.metrics[m.name]:>14.4f} {m.unit:<12}"
            f" moves {m.moves} on {', '.join(m.workloads)}"
        )
    for name, base_values in summary.bases.items():
        lines.append(f"  base of {name}: {base_values}")
    lines.append("  largest self time per subcommand (ms/cycle):")
    for command, top in sorted(summary.by_command.items()):
        lines.append(f"    {command:<16} " + ", ".join(f"{n} {v:.1f}" for n, v in top))
    lines += _failures(s.jobs, outcomes)
    return {
        "lines": lines,
        "correct": s.consistent and failed == 0 and not summary.missing_spans and summary.broken == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {
            m.name: {"value": summary.metrics[m.name], "unit": m.unit} for m in tracing.LAYER_METRICS
        },
    }


def _run_all(args) -> int:
    """Run every workload in its own process and combine their result lines."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        argv = [
            sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"workload {workload} exited {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return _run_all(args)
    try:
        import_coarsec()
    except ImportError as exc:
        print(f"cannot import coarsec from {SRC}: {exc}", file=sys.stderr)
        return 2
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(result.pop("lines")))
    print(json.dumps(
        {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}, sort_keys=True
    ))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
