"""Tests of the benchmark itself.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

import harness
import run
import tracing
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture()
def scratch():
    directory = run.RUNS / "test"
    shutil.rmtree(directory, ignore_errors=True)
    yield directory
    shutil.rmtree(directory, ignore_errors=True)


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_writes_identical_documents(scratch, workload):
    first = workloads.build(workload, 11, scratch / "a")
    second = workloads.build(workload, 11, scratch / "b")
    workloads.build(workload, 12, scratch / "c")
    assert first == second
    assert _files(scratch / "a") == _files(scratch / "b")
    assert _files(scratch / "a") != _files(scratch / "c")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_equal_output_digests(scratch, workload):
    cli = run.import_coarsec()
    digests = []
    for name in ("a", "b"):
        jobs = workloads.build(workload, 5, scratch / name)
        with harness.working_directory(scratch / name):
            result = harness.run_loop(cli, jobs, 0)
        assert result.cycles == 1
        assert all(o.ok for o in result.outcomes), [
            jobs[o.job].argv for o in result.outcomes if not o.ok
        ]
        digests.append(result.digest)
    assert digests[0] == digests[1]


def test_tiny_search_trace_covers_its_layers(scratch):
    cli = run.import_coarsec()
    jobs = workloads.build("tiny-search", 3, scratch)
    tracer = tracing.Tracer()
    executed: list[int] = []

    def on_start(index):
        tracer.set_job(len(executed))
        executed.append(index)

    tracer.install(run.package_modules())
    try:
        with harness.working_directory(scratch):
            result = harness.run_loop(cli, jobs, 0, on_start=on_start)
    finally:
        tracer.uninstall()
    summary = tracing.summarize(
        tracer, "tiny-search", result.cycles, [jobs[i].command for i in executed],
        [o.ns for o in result.outcomes], 1.0,
    )
    assert summary.missing_spans == []
    assert summary.broken == 0
    late = tracing.summarize(
        tracer, "tiny-search", result.cycles, [jobs[i].command for i in executed],
        [2 * o.ns + tracing.ROOT_SLACK_NS for o in result.outcomes], 1.0,
    )
    assert late.broken == len(result.outcomes)
    assert summary.metrics["covers.search.candidates"] > 0
    modules = run.package_modules()
    assert modules["cli"].check_witness is modules["covers"].check_witness
    assert "traced" not in modules["covers"].check_witness.__qualname__


def test_benchmark_json_lists_the_reported_metrics():
    assert [m["name"] for m in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == [
        (m.name, m.unit, m.better) for m in tracing.LAYER_METRICS
    ]
