"""Re-measure the single-case baselines recorded in ROADMAP.md.

    python3 bench/baselines.py [--timeout 60]

Each case runs in its own child process with a wall-clock timeout (a case
that runs out records "timeout") and a 2 GiB address-space limit (one that
runs out of memory records "memory-limit").  Fast cases report the median of
three calls.  This is not a workload and nothing here is gated.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import harness
from run import RUNS, import_coarsec
from workloads import Job

MEMORY_LIMIT = 2 << 30


def _path_rows(n: int) -> list[list[str]]:
    return [[str(abs(a - b)) for b in range(n)] for a in range(n)]


def _write(directory: Path, name: str, doc: dict) -> str:
    path = directory / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _cli(argv: list[str]):
    cli = import_coarsec()
    return lambda: harness.run_job(cli, 0, Job(tuple(argv), 0))


def _case(name: str, directory: Path):
    """Return a zero-argument callable that performs one measured call of the case."""
    import_coarsec()
    from coarsec import (
        Decomposition, Family, FiniteMetric, GroundSet, check_decomposition,
        structure_from_metric,
    )

    if name == "FiniteMetric-path-80":
        rows = _path_rows(80)
        return lambda: FiniteMetric.from_rows(rows)
    if name == "structure_from_metric-path-80":
        metric = FiniteMetric.from_rows(_path_rows(80))
        return lambda: structure_from_metric(metric, [1])
    if name.startswith("check_decomposition-singletons-"):
        n = int(name.rsplit("-", 1)[1])
        ground = GroundSet(n)
        singletons = tuple(frozenset({p}) for p in range(n))
        family = Family(ground, singletons)
        diagonal = ground.diagonal()
        decomposition = Decomposition(ground.all_points(), (singletons,))
        return lambda: check_decomposition(ground.all_points(), diagonal, 2, decomposition, family)
    if name in ("product-witness-12x12", "verify-witness-12x12"):
        space = _write(directory, "x.json", {
            "kind": "metric", "size": 12, "dist": _path_rows(12), "scales": ["1"],
        })
        seq = _write(directory, "seq.json", {"kind": "scales", "scales": ["0", "1"]})
        cert = str(directory / "cert.json")
        build = ["product-witness", "--space", space, "--space2", space, "--sequence", seq, "--out", cert]
        if name.startswith("product"):
            return _cli(build)
        _cli(build)()
        return _cli(["verify-witness", "--space", space, "--space2", space, "--certificate", cert])
    if name == "info-generated-path-3000":
        space = _write(directory, "path.json", {
            "kind": "generated", "size": 3000, "generators": [[[p, p + 1] for p in range(2999)]],
        })
        return _cli(["info", "--space", space])
    raise ValueError(f"unknown case {name!r}")


CASES = (
    "FiniteMetric-path-80",
    "structure_from_metric-path-80",
    "product-witness-12x12",
    "verify-witness-12x12",
    "check_decomposition-singletons-40",
    "check_decomposition-singletons-80",
    "check_decomposition-singletons-160",
    "info-generated-path-3000",
)


def _child(name: str) -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))
    directory = RUNS / f"baseline-{name}"
    directory.mkdir(parents=True, exist_ok=True)
    try:
        call = _case(name, directory)
        seconds = []
        for _ in range(3):
            seconds.append(harness.timed(call)[1])
            if seconds[-1] > 1:
                break
        print(json.dumps({"seconds": statistics.median(seconds), "calls": len(seconds)}))
    except MemoryError:
        print(json.dumps({"seconds": "memory-limit"}))
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--timeout", type=float, default=60.0)
    parser.add_argument("--case", choices=CASES, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.case:
        _child(args.case)
        return 0
    results = {}
    for name in CASES:
        try:
            proc = subprocess.run(
                [sys.executable, __file__, "--case", name],
                capture_output=True, text=True, timeout=args.timeout,
            )
            results[name] = json.loads(proc.stdout.splitlines()[-1]) if proc.returncode == 0 else {
                "seconds": f"exit {proc.returncode}", "stderr": proc.stderr[-500:],
            }
        except subprocess.TimeoutExpired:
            results[name] = {"seconds": "timeout", "timeout_s": args.timeout}
        shutil.rmtree(RUNS / f"baseline-{name}", ignore_errors=True)
        value = results[name]["seconds"]
        shown = f"{value * 1000:10.1f} ms" if isinstance(value, float) else f"{value:>13}"
        print(f"{name:<38} {shown}", flush=True)
    print(json.dumps({
        "python": platform.python_version(),
        "machine": platform.machine(),
        "processor": platform.processor(),
        "results": results,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
