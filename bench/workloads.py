"""Seeded input documents and job lists for the three benchmark workloads.

Every workload is a fixed schedule of instance shapes (kinds and sizes); the
seed only chooses their contents (grid coordinates, tree shapes, point
labels, scales, which point a mutation touches).  Each job carries the exit
code and stdout fields that the generator expects, worked out from its own
data with its own union-find, never by calling coarsec.  Verdicts are
matched, not failure-tuple spelling.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("metric-product", "generated-sfcdc", "tiny-search")

# Subcommand -> the latency group it reports into.
CATEGORY = {
    "product-witness": "construct",
    "cad-to-sfcdc": "construct",
    "search": "construct",
    "verify-witness": "check",
    "check-sfcdc": "check",
    "info": "info",
}


@dataclass(frozen=True)
class Job:
    """One CLI invocation: argv relative to the run directory, plus its expectation."""

    argv: tuple[str, ...]
    expect_exit: int
    expect: dict = field(default_factory=dict)
    writes: tuple[str, ...] = ()

    @property
    def command(self) -> str:
        return self.argv[0]


def build(workload: str, seed: int, directory: Path) -> list[Job]:
    """Write the workload's documents for this seed into directory; return its jobs."""
    directory.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    return _BUILDERS[workload](rng, _Writer(directory))


class _Writer:
    def __init__(self, directory: Path) -> None:
        self.directory = directory

    def __call__(self, name: str, doc: dict) -> str:
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        (self.directory / name).write_text(text, encoding="utf-8")
        return name


def _classes(size: int, pairs) -> list[list[int]]:
    """Connected components of the pairs, each sorted, ordered by least point."""
    root = list(range(size))

    def find(p: int) -> int:
        while root[p] != p:
            root[p] = root[root[p]]
            p = root[p]
        return p

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            root[max(ra, rb)] = min(ra, rb)
    groups: dict[int, list[int]] = {}
    for p in range(size):
        groups.setdefault(find(p), []).append(p)
    return sorted(groups.values())


def _drop_point(members: list[list[int]], point: int) -> list[list[int]]:
    """Remove point from every member and drop emptied members: it is then uncovered."""
    out = [[p for p in m if p != point] for m in members]
    return [m for m in out if m]


def _property_c(sequence: dict, families: list[list[list[int]]]) -> dict:
    return {"kind": "property-c", "sequence": sequence, "families": families}


# --------------------------------------------------------------------------
# metric-product

# Each pair: two factors (kind, size, unit, number of space scales) and the
# number of sequence scales.  The shapes are fixed and only the contents vary
# with the seed, so a run's cost mix is the same on every seed.  Product sizes
# are 9, 15, 20, six of 24 and three of 40 points: the medians fall inside
# the 24-point group and p90 inside the 40-point group, away from the edges
# where one seed's contents could swap which job sits at the quantile.  The
# non-integer unit 1/2 goes only on path and cycle pairs, whose distance
# matrices do not depend on the seed, so the mix of Fraction denominators in
# the product metric does not either.
_HALF = Fraction(1, 2)
_PAIRS = (
    (("path", 3, _HALF, 1), ("cycle", 3, _HALF, 2), 1),
    (("path", 5, _HALF, 2), ("path", 3, _HALF, 1), 2),
    (("grid", 4, 1, 1), ("path", 5, 1, 2), 3),
    (("cycle", 6, 1, 2), ("grid", 4, 1, 1), 4),
    (("grid", 4, 1, 2), ("cycle", 6, 1, 1), 1),
    (("path", 3, 1, 1), ("grid", 8, 1, 2), 2),
    (("grid", 8, 1, 1), ("cycle", 3, 1, 1), 3),
    (("cycle", 4, _HALF, 2), ("path", 6, _HALF, 2), 4),
    (("path", 6, 1, 1), ("grid", 4, 1, 2), 2),
    (("path", 10, 1, 2), ("cycle", 4, 1, 1), 3),
    (("grid", 5, 1, 1), ("path", 8, 1, 2), 4),
    (("cycle", 8, 1, 2), ("grid", 5, 1, 1), 1),
)


def _factor_rows(rng: random.Random, kind: str, n: int, unit) -> list[list[Fraction]]:
    if kind == "path":
        coords = [(a, 0) for a in range(n)]
    elif kind == "grid":
        # A random connected set of grid cells: every space scale is at least
        # the unit, so each factor, and each product, is a single class and
        # the seed cannot change the size of the maximal entourages.
        coords = [(0, 0)]
        while len(coords) < n:
            x, y = rng.choice(coords)
            step = rng.choice(((1, 0), (-1, 0), (0, 1), (0, -1)))
            if (x + step[0], y + step[1]) not in coords:
                coords.append((x + step[0], y + step[1]))
    else:
        coords = None
    rows = []
    for a in range(n):
        if coords is None:
            row = [min(abs(a - b), n - abs(a - b)) for b in range(n)]
        else:
            row = [
                abs(coords[a][0] - coords[b][0]) + abs(coords[a][1] - coords[b][1])
                for b in range(n)
            ]
        rows.append([Fraction(d) * unit for d in row])
    return rows


def _metric_factor(rng: random.Random, spec) -> dict:
    kind, n, unit, count = spec
    rows = _factor_rows(rng, kind, n, unit)
    distances = sorted({d for row in rows for d in row if d > 0})
    scales = sorted(rng.sample(distances[:3], min(count, len(distances))))
    top = scales[-1]
    classes = _classes(n, [(a, b) for a in range(n) for b in range(n) if rows[a][b] <= top])
    doc = {
        "kind": "metric",
        "size": n,
        "dist": [[str(d) for d in row] for row in rows],
        "scales": [str(s) for s in scales],
    }
    return {"doc": doc, "size": n, "top": top, "distances": distances, "classes": classes}


def _metric_product(rng: random.Random, write: _Writer) -> list[Job]:
    jobs: list[Job] = []
    for i, (spec_x, spec_y, count) in enumerate(_PAIRS):
        fx, fy = _metric_factor(rng, spec_x), _metric_factor(rng, spec_y)
        # Sequence scales stay within both factors' top space scale, so every
        # sequence item is an entourage of the product structure.
        bound = min(fx["top"], fy["top"])
        pool = sorted({Fraction(0)} | {d for d in fx["distances"] + fy["distances"] if d <= bound})
        scales = sorted(rng.sample(pool, min(len(pool), count)))
        sequence = {"kind": "scales", "scales": [str(s) for s in scales]}

        x = write(f"p{i:02d}-x.json", fx["doc"])
        y = write(f"p{i:02d}-y.json", fy["doc"])
        seq = write(f"p{i:02d}-seq.json", sequence)
        ny = fy["size"]
        product_classes = [
            sorted(a * ny + b for a in cx for b in cy)
            for cx in fx["classes"]
            for cy in fy["classes"]
        ]
        dropped = rng.randrange(fx["size"] * ny)
        bad = write(
            f"p{i:02d}-bad.json",
            _property_c(sequence, [_drop_point(product_classes, dropped)]),
        )
        cert = f"p{i:02d}-cert.json"
        pair = ("--space", x, "--space2", y)
        jobs += [
            Job(
                ("product-witness", *pair, "--sequence", seq, "--out", cert),
                0,
                {"ok": True},
                (cert,),
            ),
            Job(("verify-witness", *pair, "--certificate", cert), 0, {"ok": True}),
            Job(("verify-witness", *pair, "--certificate", bad), 1, {"ok": False}),
            Job(
                ("info", *pair),
                0,
                {"size": fx["size"] * ny, "class_count": len(product_classes)},
            ),
        ]
    return jobs


# --------------------------------------------------------------------------
# generated-sfcdc


def _component_edges(rng: random.Random, kind: str, points: list[int]) -> list[tuple[int, int]]:
    n = len(points)
    if kind == "path":
        return [(points[k], points[k + 1]) for k in range(n - 1)]
    if kind == "cycle":
        return [(points[k], points[(k + 1) % n]) for k in range(n)]
    # Random caterpillar: a spine of half the points, the rest hung off random
    # spine points.  Its diameter, and so the number of closure rounds, does
    # not depend on the seed.
    spine = (n + 1) // 2
    return [(points[k - 1], points[k]) for k in range(1, spine)] + [
        (points[rng.randrange(spine)], points[k]) for k in range(spine, n)
    ]


def _components(rng: random.Random, specs) -> tuple[int, list[list[int]], list[tuple[int, int]]]:
    """Disjoint components on shuffled point labels: (size, components, edges)."""
    size = sum(n for _, n in specs)
    labels = list(range(size))
    rng.shuffle(labels)
    components: list[list[int]] = []
    edges: list[tuple[int, int]] = []
    start = 0
    for kind, n in specs:
        points = labels[start : start + n]
        start += n
        components.append(points)
        edges += _component_edges(rng, kind, points)
    return size, components, edges


def _pair_list(pairs) -> list[list[int]]:
    return [[a, b] for a, b in sorted(set(pairs))]


def _symmetric(edges) -> set[tuple[int, int]]:
    return {(a, b) for a, b in edges} | {(b, a) for a, b in edges}


def _space_doc(size: int, edges: list[tuple[int, int]]) -> dict:
    # Two generator relations, so parsing and closure see a union.
    half = len(edges) // 2
    return {
        "kind": "generated",
        "size": size,
        "generators": [_pair_list(edges[:half]), _pair_list(edges[half:])],
    }


# Few large components: info and verify-witness on a class-family
# certificate.  Every instance has 90 points in components of 35, 30 and 25.
_LARGE = tuple(
    tuple(zip(kinds, (35, 30, 25)))
    for kinds in (
        ("path", "cycle", "tree"), ("cycle", "tree", "path"), ("tree", "path", "cycle"),
        ("path", "tree", "cycle"),
    )
)

# Many small classes: 40 components of 5 points each, which K1 cuts into
# chunks of 3 and 2 points; cad-to-sfcdc, then check-sfcdc on its output and
# on a mutant.  With the four large instances, the six cad-to-sfcdc jobs are
# a fifth of a cycle's 30 jobs and far the slowest, so p90 falls in the
# middle of their group rather than at its edge, where a run's mix of fast
# and slow executions would move it most.
_SMALL = tuple(
    tuple((kinds[k % 3], 5) for k in range(40))
    for kinds in (
        ("path", "cycle", "tree"), ("cycle", "tree", "path"), ("tree", "path", "cycle"),
        ("path", "tree", "cycle"), ("cycle", "path", "tree"), ("tree", "cycle", "path"),
    )
)


def _large_instance(rng: random.Random, write: _Writer, i: int, specs) -> list[Job]:
    size, components, edges = _components(rng, specs)
    sym = _symmetric(edges)
    diagonal = {(p, p) for p in range(size)}
    first = diagonal | {e for e in sym if rng.random() < 0.5}
    sequence = {"kind": "explicit", "items": [_pair_list(first), _pair_list(first | sym)]}
    classes = sorted(sorted(c) for c in components)
    space = write(f"l{i}-space.json", _space_doc(size, edges))
    good = write(f"l{i}-cert.json", _property_c(sequence, [classes]))
    bad = write(
        f"l{i}-bad.json", _property_c(sequence, [_drop_point(classes, rng.randrange(size))])
    )
    return [
        Job(("info", "--space", space), 0, {"size": size, "class_count": len(classes)}),
        Job(("verify-witness", "--space", space, "--certificate", good), 0, {"ok": True}),
        Job(("verify-witness", "--space", space, "--certificate", bad), 1, {"ok": False}),
    ]


def _chunks(points: list[int]) -> list[list[int]]:
    out, k, width = [], 0, 3
    while k < len(points):
        out.append(points[k : k + width])
        k += width
        width = 5 - width
    if len(out) > 1 and len(out[-1]) == 1:
        tail = out.pop()
        out[-1] += tail
    return out


def _small_instance(rng: random.Random, write: _Writer, i: int, specs) -> list[Job]:
    size, components, edges = _components(rng, specs)
    chunks = [sorted(c) for comp in components for c in _chunks(comp)]
    k1 = {(c[k], c[k + 1]) for c in chunks for k in range(len(c) - 1)}
    sequence = {
        "kind": "explicit",
        "items": [_pair_list(k1), _pair_list(k1 | _symmetric(edges))],
    }
    space = write(f"s{i}-space.json", _space_doc(size, edges))
    seq = write(f"s{i}-seq.json", sequence)
    out = f"s{i}-cert.json"

    # The mutant starts from the generator's own certificate: root {X}, then
    # the chunks, all in one part, which is valid because chunks are the K1
    # classes.  Dropping a point breaks the union; moving a point of the last
    # chunk into the one before puts it beside its K1 neighbour in another
    # member of the part.  Either way the checker scans the whole part.
    leaf = sorted(chunks)
    victim = rng.randrange(len(leaf)) if i % 2 == 0 else len(leaf) - 1
    point = rng.choice(leaf[victim])
    leaf[victim] = [p for p in leaf[victim] if p != point]
    if i % 2:
        leaf[victim - 1] = sorted(leaf[victim - 1] + [point])
    bad = write(
        f"s{i}-bad.json",
        {
            "kind": "sfcdc",
            "sequence": sequence,
            "families": [[list(range(size))], leaf],
            "decompositions": [[{"parts": [list(range(len(leaf)))]}]],
        },
    )
    return [
        Job(("cad-to-sfcdc", "--space", space, "--sequence", seq, "--out", out), 0, {"ok": True}, (out,)),
        Job(("check-sfcdc", "--space", space, "--certificate", out), 0, {"ok": True}),
        Job(("check-sfcdc", "--space", space, "--certificate", bad), 1, {"ok": False}),
    ]


def _generated_sfcdc(rng: random.Random, write: _Writer) -> list[Job]:
    jobs: list[Job] = []
    for i in range(max(len(_LARGE), len(_SMALL))):
        if i < len(_LARGE):
            jobs += _large_instance(rng, write, i, _LARGE[i])
        if i < len(_SMALL):
            jobs += _small_instance(rng, write, i, _SMALL[i])
    return jobs


# --------------------------------------------------------------------------
# tiny-search

# (kind, size, max_n).  "gen" and "metric" instances always have a witness:
# one family of the structure's classes passes against any sequence inside
# the maximal entourage.  "discrete" instances pair the discrete structure
# with the full relation, so every family holds at most one singleton and a
# witness exists exactly when max_n >= size.  A no-witness search checks
# every candidate, so its cost does not depend on the seed.  Searches with a
# witness take 2-3 ms, (5, 1) no-witness searches about 5 ms, (6, 1) 15 ms,
# (5, 2) 25-33 ms and the last three far longer.  The counts put the median
# search in the middle of the six (5, 1) searches and the p90 job in the
# middle of the eight (5, 2) searches, away from the edges of their groups,
# where a run's mix of fast and slow executions would move them most.
_TINY = (
    ("gen", 3, 1), ("discrete", 5, 1), ("metric", 4, 2), ("discrete", 5, 2),
    ("gen", 5, 3), ("gen", 4, 2), ("metric", 5, 1), ("discrete", 5, 2),
    ("discrete", 6, 3), ("gen", 4, 3), ("discrete", 5, 1), ("metric", 3, 2),
    ("discrete", 5, 2), ("discrete", 6, 1), ("gen", 5, 2), ("discrete", 5, 1),
    ("discrete", 5, 3), ("metric", 4, 3), ("discrete", 5, 2), ("metric", 5, 3),
    ("discrete", 3, 3), ("discrete", 5, 1), ("discrete", 6, 2), ("gen", 4, 1),
    ("discrete", 5, 2), ("metric", 4, 2), ("discrete", 5, 1), ("discrete", 5, 2),
    ("discrete", 6, 1), ("discrete", 5, 1), ("discrete", 5, 2), ("discrete", 5, 2),
)


def _tiny_instance(rng: random.Random, write: _Writer, i: int, kind: str, n: int, max_n: int) -> list[Job]:
    diagonal = {(p, p) for p in range(n)}
    if kind == "discrete":
        space_doc = {"kind": "generated", "size": n, "generators": []}
        sequence = {"kind": "explicit", "items": [_pair_list((a, b) for a in range(n) for b in range(n))]}
        classes = [[p] for p in range(n)]
    elif kind == "gen":
        edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(n - 1)]
        space_doc = {"kind": "generated", "size": n, "generators": [_pair_list(edges)]}
        classes = _classes(n, edges)
        inside = sorted({(a, b) for c in classes for a in c for b in c} - diagonal)
        first = diagonal | set(rng.sample(inside, len(inside) // 2))
        sequence = {"kind": "explicit", "items": [_pair_list(first), _pair_list(first | set(inside))]}
    else:
        coords = [(rng.randrange(4), rng.randrange(4)) for _ in range(n)]
        rows = [[abs(xa - xb) + abs(ya - yb) for xb, yb in coords] for xa, ya in coords]
        distances = sorted({d for row in rows for d in row})
        top = rng.choice(distances[: max(1, len(distances) // 2)])
        space_doc = {
            "kind": "metric",
            "size": n,
            "dist": [[str(d) for d in row] for row in rows],
            "scales": [str(top)],
        }
        classes = _classes(n, [(a, b) for a in range(n) for b in range(n) if rows[a][b] <= top])
        scales = sorted(rng.sample([d for d in distances if d <= top], 1 + (top > 0)))
        sequence = {"kind": "scales", "scales": [str(s) for s in scales]}

    space = write(f"t{i:02d}-space.json", space_doc)
    seq = write(f"t{i:02d}-seq.json", sequence)
    search = ("search", "--space", space, "--sequence", seq, "--max-n", str(max_n), "--seed", str(rng.randrange(1000)))
    info = Job(("info", "--space", space), 0, {"size": n, "class_count": len(classes)})
    if kind == "discrete" and max_n < n:
        return [Job(search, 1, {"found": False}), info]
    out = f"t{i:02d}-cert.json"
    return [
        Job((*search, "--out", out), 0, {"kind": "property-c"}, (out,)),
        Job(("verify-witness", "--space", space, "--certificate", out), 0, {"ok": True}),
        info,
    ]


def _tiny_search(rng: random.Random, write: _Writer) -> list[Job]:
    jobs: list[Job] = []
    for i, (kind, n, max_n) in enumerate(_TINY):
        jobs += _tiny_instance(rng, write, i, kind, n, max_n)
    return jobs


_BUILDERS = {
    "metric-product": _metric_product,
    "generated-sfcdc": _generated_sfcdc,
    "tiny-search": _tiny_search,
}
