"""Layer spans recorded from outside the package, and the per-layer metrics.

The tracer wraps public functions and methods of the coarsec modules and
binds each wrapper wherever callers look the name up: in every module that
imported it with ``from ... import`` and, for methods and constructors, on
the class.  A span records its name, start, end, parent span and job id in
flat arrays kept in memory; ``write`` stores them at the end of the run.
A span's self time is its duration minus the durations of its child spans.
Counts are taken at the wrapper from arguments and results, so they mean the
same on any implementation.
"""

from __future__ import annotations

import json
from array import array
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter_ns
from types import ModuleType
from typing import Callable, Optional

from workloads import WORKLOADS

MP, GS, TS = WORKLOADS


@dataclass(frozen=True)
class LayerMetric:
    """A per-layer metric, the end-to-end metric it should move, and where.

    ``workloads`` lists where the metric should move; for a span's
    ``.self_ms`` or ``.calls`` metric these are also the workloads on which
    the traced run must record at least one span of it.
    """

    name: str
    unit: str
    better: str
    moves: str
    workloads: tuple[str, ...]

    @property
    def span(self) -> Optional[str]:
        for suffix in (".self_ms", ".calls"):
            if self.name.endswith(suffix):
                return self.name[: -len(suffix)]
        return None


def _ms(name, moves, workloads):
    return LayerMetric(name, "ms/cycle", "lower", moves, workloads)


def _count(name, moves, workloads, unit="count/cycle"):
    return LayerMetric(name, unit, "lower", moves, workloads)


_DOC = "job_ms_p50; check_ms_p50"
_REL = "info_ms_p50, job_ms_p90, peak_rss_mb"
_MET = "construct_ms_p50, check_ms_p50, info_ms_p50, job_ms_p90"
_GEN = "info_ms_p50, peak_rss_mb"
_COV = "construct_ms_p50, jobs_per_s; check_ms_p50"
_DEC = "construct_ms_p50, check_ms_p50, job_ms_p90"

# Each metric's workloads are the ones the layer table assigns to its row,
# narrowed to where the function is reachable: products, projections and
# metrics run only on metric-product, search only on tiny-search, and the
# canonical components provider only under product-witness.
LAYER_METRICS = (
    _ms("cli.main.self_ms", "job_ms_p50", (TS,)),
    _ms("documents.parse_space.self_ms", _DOC, (TS, GS)),
    _ms("documents.build_sequence.self_ms", _DOC, (TS, GS)),
    _ms("documents.parse_certificate.self_ms", _DOC, (TS, GS)),
    _ms("documents.realize.self_ms", _DOC, (TS, GS)),
    _ms("documents.emit.self_ms", _DOC, (TS, GS)),
    _count("documents.bytes_in", _DOC, (TS, GS), "B/cycle"),
    _count("documents.bytes_out", _DOC, (TS, GS), "B/cycle"),
    _count("relations.equivalence_closure.calls", _REL, (GS,)),
    _ms("relations.equivalence_closure.self_ms", _REL, (GS,)),
    _count("relations.closure_pairs_out", _REL, (GS,)),
    _count("relations.compose.calls", _REL, (GS,)),
    _ms("relations.compose.self_ms", _REL, (GS,)),
    _ms("relations.product_relation.self_ms", _REL, (MP,)),
    _ms("relations.project.self_ms", _REL, (MP,)),
    _ms("spaces.FiniteMetric.self_ms", _MET, (MP,)),
    _count("spaces.FiniteMetric.triples", _MET, (MP,)),
    _ms("spaces.max_metric_product.self_ms", _MET, (MP,)),
    _count("spaces.metric_entourage.calls", _MET, (MP,)),
    _ms("spaces.metric_entourage.self_ms", _MET, (MP,)),
    _ms("spaces.product_structure.self_ms", _MET, (MP,)),
    _ms("spaces.CoarseStructure.self_ms", _MET, (MP,)),
    _ms("spaces.generate.self_ms", _GEN, (GS,)),
    _count("spaces.contains.calls", _GEN, (GS,)),
    _ms("spaces.contains.self_ms", _GEN, (GS,)),
    _ms("spaces.classes.self_ms", _GEN, (GS,)),
    _count("spaces.emax_pairs", _GEN, (GS,)),
    _count("covers.check_witness.calls", _COV, (TS, MP)),
    _ms("covers.check_witness.self_ms", _COV, (TS, MP)),
    _count("covers.is_uniformly_bounded.calls", _COV, (TS, MP)),
    _ms("covers.is_uniformly_bounded.self_ms", _COV, (TS, MP)),
    _ms("covers.components_witness.self_ms", _COV, (MP,)),
    _ms("covers.brute_force_witness.self_ms", _COV, (TS,)),
    _count("covers.search.candidates", _COV, (TS,)),
    LayerMetric("covers.search.hit_ratio", "ratio", "higher", _COV, (TS,)),
    _ms("products.product_witness_trace.self_ms", "construct_ms_p50", (MP,)),
    _ms("products.factor_sequences.self_ms", "construct_ms_p50", (MP,)),
    _count("products.column_witness.calls", "construct_ms_p50", (MP,)),
    _ms("products.column_witness.self_ms", "construct_ms_p50", (MP,)),
    _ms("products.selfcheck_ms", "construct_ms_p50", (MP,)),
    _count("decomposition.check_decomposition.calls", _DEC, (GS,)),
    _ms("decomposition.check_decomposition.self_ms", _DEC, (GS,)),
    _count("decomposition.members_checked", _DEC, (GS,)),
    _ms("decomposition.check_sfcdc_certificate.self_ms", _DEC, (GS,)),
    _ms("decomposition.cad_to_sfcdc.self_ms", _DEC, (GS,)),
    _ms("decomposition.refine_chain.self_ms", _DEC, (GS,)),
    LayerMetric("decomposition.selfcheck_share", "ratio", "lower", _DEC, (GS,)),
    LayerMetric("trace.overhead_ratio", "ratio", "higher", "none (informational)", WORKLOADS),
)


def expected_spans(workload: str) -> list[str]:
    """Span names the traced run of this workload must record at least once."""
    return sorted({m.span for m in LAYER_METRICS if m.span and workload in m.workloads})


def _add(counters: dict, name: str, amount: int) -> None:
    counters[name] = counters.get(name, 0) + amount


def _ground_size(args, kwargs) -> int:
    ground = kwargs["ground"] if "ground" in kwargs else args[1]
    return ground.size


# (module, attribute, span name, count hook).  "Class.method" attributes are
# replaced on the class; a constructor span wraps __init__, which runs the
# dataclass's __post_init__ validation.
TARGETS: tuple[tuple[str, str, str, Optional[Callable]], ...] = (
    ("cli", "main", "cli.main", None),
    ("documents", "parse_space", "documents.parse_space",
     lambda c, a, k, r: _add(c, "documents.bytes_in", len(a[0].encode()))),
    ("documents", "build_sequence", "documents.build_sequence", None),
    ("documents", "parse_certificate", "documents.parse_certificate",
     lambda c, a, k, r: _add(c, "documents.bytes_in", len(a[0].encode()))),
    ("documents", "realize_witness", "documents.realize", None),
    ("documents", "realize_sfcdc", "documents.realize", None),
    ("documents", "emit", "documents.emit",
     lambda c, a, k, r: _add(c, "documents.bytes_out", len(r.encode()))),
    ("relations", "Relation.equivalence_closure", "relations.equivalence_closure",
     lambda c, a, k, r: _add(c, "relations.closure_pairs_out", len(r.pairs))),
    ("relations", "Relation.compose", "relations.compose", None),
    ("relations", "product_relation", "relations.product_relation", None),
    ("relations", "project", "relations.project", None),
    ("spaces", "FiniteMetric.__init__", "spaces.FiniteMetric",
     lambda c, a, k, r: _add(c, "spaces.FiniteMetric.triples", _ground_size(a, k) ** 3)),
    ("spaces", "max_metric_product", "spaces.max_metric_product", None),
    ("spaces", "metric_entourage", "spaces.metric_entourage", None),
    ("spaces", "product_structure", "spaces.product_structure", None),
    ("spaces", "CoarseStructure.__init__", "spaces.CoarseStructure",
     lambda c, a, k, r: _add(c, "spaces.emax_pairs", len((k["emax"] if "emax" in k else a[3]).pairs))),
    ("spaces", "generate", "spaces.generate", None),
    ("spaces", "CoarseStructure.contains", "spaces.contains", None),
    ("spaces", "CoarseStructure.classes", "spaces.classes", None),
    ("covers", "check_witness", "covers.check_witness", None),
    ("covers", "is_uniformly_bounded", "covers.is_uniformly_bounded", None),
    ("covers", "components_witness", "covers.components_witness", None),
    ("covers", "brute_force_witness", "covers.brute_force_witness",
     lambda c, a, k, r: _add(c, "covers.search.hits", r is not None)),
    ("products", "product_witness_trace", "products.product_witness_trace", None),
    ("products", "factor_sequences", "products.factor_sequences", None),
    ("products", "column_witness", "products.column_witness", None),
    ("decomposition", "check_decomposition", "decomposition.check_decomposition",
     lambda c, a, k, r: _add(
         c, "decomposition.members_checked",
         sum(len(part) for part in (k["decomposition"] if "decomposition" in k else a[3]).parts))),
    ("decomposition", "check_sfcdc_certificate", "decomposition.check_sfcdc_certificate", None),
    ("decomposition", "cad_to_sfcdc", "decomposition.cad_to_sfcdc", None),
    ("decomposition", "refine_chain", "decomposition.refine_chain", None),
)


class Tracer:
    """Records spans of wrapped calls; install() binds the wrappers, uninstall() restores."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counters: dict[str, int] = {}
        self.job_id = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def set_job(self, job_id: int) -> None:
        self.job_id = job_id

    def _wrap(self, span: str, fn: Callable, hook: Optional[Callable]) -> Callable:
        if span not in self.names:
            self.names.append(span)
        nid = self.names.index(span)
        stack, name, parent, job, start, end = (
            self._stack, self.name, self.parent, self.job, self.start, self.end
        )
        counters = self.counters

        def traced(*args, **kwargs):
            idx = len(name)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            job.append(self.job_id)
            start.append(0)
            end.append(0)
            stack.append(idx)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        return traced

    def install(self, modules: dict[str, ModuleType]) -> None:
        """Wrap every target and bind the wrapper at each place it is looked up."""
        package = list(modules.values())
        for module_name, attr, span, hook in TARGETS:
            module = modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                self._bind(cls, method, original, self._wrap(span, original, hook))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(span, original, hook)
            for mod in package:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._bind(mod, key, original, wrapper)

    def _bind(self, owner: object, key: str, original: object, wrapper: Callable) -> None:
        setattr(owner, key, wrapper)
        self._restore.append((owner, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def write(self, stem: Path, jobs: list[tuple[str, ...]]) -> None:
        """Write the spans as int columns (<stem>.bin) described by <stem>.json."""
        columns = (
            ("name", self.name), ("parent", self.parent), ("job", self.job),
            ("start_ns", self.start), ("end_ns", self.end),
        )
        with open(stem.with_suffix(".bin"), "wb") as f:
            for _, col in columns:
                col.tofile(f)
        header = {
            "count": len(self.name),
            "columns": [{"name": n, "typecode": c.typecode, "itemsize": c.itemsize} for n, c in columns],
            "names": self.names,
            "jobs": [list(argv) for argv in jobs],
            "counters": self.counters,
        }
        stem.with_suffix(".json").write_text(json.dumps(header) + "\n", encoding="utf-8")


# How much of the harness's timing of a job may fall outside its root span:
# the wrapper's own entry and exit.
ROOT_SLACK_NS = 200_000
ROOT_SLACK_SHARE = 0.01


@dataclass
class TraceSummary:
    metrics: dict[str, float]
    bases: dict[str, dict[str, float]]
    missing_spans: list[str]
    broken: int
    spans: int
    by_command: dict[str, list[tuple[str, float]]]


def summarize(
    tracer: Tracer,
    workload: str,
    cycles: int,
    job_commands: list[str],
    job_ns: list[int],
    overhead_ratio: float,
) -> TraceSummary:
    """Per-layer metrics per job cycle, span coverage and the root-span check.

    job_commands and job_ns give each traced job id's subcommand and the
    latency the harness timed for it.  Every job must have exactly one root
    span, ``cli.main``, and it must cover the harness's timing of the job to
    within ROOT_SLACK_NS plus ROOT_SLACK_SHARE of it: a job whose
    ``cli.main`` lookup missed the wrapper, or that spent time outside it,
    counts as broken.  Every other span has its parent in the same job, so
    the self times of a job's spans sum to its root span's duration.
    """
    names = tracer.names
    n = len(tracer.name)
    nm, par, job = tracer.name, tracer.parent, tracer.job
    dur = array("q", (e - s for s, e in zip(tracer.start, tracer.end)))
    child = array("q", bytes(8 * n))
    for i in range(n):
        p = par[i]
        if p >= 0:
            child[p] += dur[i]

    nid = {s: k for k, s in enumerate(names)}
    pwt = nid.get("products.product_witness_trace", -2)
    bfw = nid.get("covers.brute_force_witness", -2)
    cad = nid.get("decomposition.cad_to_sfcdc", -2)
    check_witness = nid.get("covers.check_witness", -2)
    cad_checks = {nid.get("decomposition.check_decomposition"), nid.get("decomposition.check_sfcdc_certificate")}
    root = nid["cli.main"]

    self_ns = [0] * len(names)
    calls = [0] * len(names)
    job_root: dict[int, int] = {}
    broken = 0
    under_pwt = bytearray(n)
    selfcheck_ns = candidates = cad_check_ns = cad_ns = 0
    by_command: dict[str, dict[str, int]] = {}
    for i in range(n):
        k, p, s = nm[i], par[i], dur[i] - child[i]
        self_ns[k] += s
        calls[k] += 1
        cmd = by_command.setdefault(job_commands[job[i]], {})
        cmd[names[k]] = cmd.get(names[k], 0) + s
        if p < 0:
            if k != root or job[i] in job_root:
                broken += 1
            job_root[job[i]] = dur[i]
            continue
        under_pwt[i] = under_pwt[p] or nm[p] == pwt
        if k == check_witness:
            if under_pwt[i]:
                selfcheck_ns += dur[i]
            if nm[p] == bfw:
                candidates += 1
        elif k == cad:
            cad_ns += dur[i]
        if k in cad_checks and nm[p] == cad:
            cad_check_ns += dur[i]
    for j, ns in enumerate(job_ns):
        if j not in job_root or not 0 <= ns - job_root[j] <= ROOT_SLACK_NS + ROOT_SLACK_SHARE * ns:
            broken += 1

    per = max(cycles, 1)
    span_self = {names[k]: self_ns[k] / 1e6 / per for k in range(len(names))}
    span_calls = {names[k]: calls[k] / per for k in range(len(names))}
    counters = tracer.counters
    metrics: dict[str, float] = {}
    for m in LAYER_METRICS:
        if m.name.endswith(".self_ms"):
            value = span_self.get(m.span, 0.0)
        elif m.name.endswith(".calls"):
            value = span_calls.get(m.span, 0.0)
        elif m.name == "products.selfcheck_ms":
            value = selfcheck_ns / 1e6 / per
        elif m.name == "covers.search.candidates":
            value = candidates / per
        elif m.name == "covers.search.hit_ratio":
            value = counters.get("covers.search.hits", 0) / candidates if candidates else 0.0
        elif m.name == "decomposition.selfcheck_share":
            value = cad_check_ns / cad_ns if cad_ns else 0.0
        elif m.name == "trace.overhead_ratio":
            value = overhead_ratio
        else:
            value = counters.get(m.name, 0) / per
        metrics[m.name] = value
    bases = {
        "covers.search.hit_ratio": {
            "searches_found": counters.get("covers.search.hits", 0),
            "candidates": candidates,
        },
        "decomposition.selfcheck_share": {
            "check_ms": cad_check_ns / 1e6,
            "cad_to_sfcdc_ms": cad_ns / 1e6,
        },
    }
    seen = {names[k] for k in range(len(names)) if calls[k]}
    missing = [s for s in expected_spans(workload) if s not in seen]
    top = {
        cmd: sorted(((s, ns / 1e6 / per) for s, ns in layers.items()), key=lambda x: -x[1])[:3]
        for cmd, layers in by_command.items()
    }
    return TraceSummary(metrics, bases, missing, broken, n, top)
