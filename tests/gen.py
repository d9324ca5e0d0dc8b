"""Randomized instance generators shared by the tests."""

from fractions import Fraction

from coarsec import (
    CadProvider,
    Decomposition,
    EntourageSequence,
    Family,
    FiniteMetric,
    GroundSet,
    Relation,
    generate,
    is_uniformly_bounded,
    metric_entourage,
    product_relation,
)


def random_relation(rng, ground, max_pairs):
    count = rng.randint(0, max_pairs)
    pairs = {
        (rng.randrange(ground.size), rng.randrange(ground.size)) for _ in range(count)
    }
    return Relation(ground, frozenset(pairs))


def random_metric(rng, n, spread=6):
    """L1 distances between random integer grid points; exact and triangle-safe."""
    coords = [(rng.randint(0, spread), rng.randint(0, spread)) for _ in range(n)]
    rows = []
    for xa, ya in coords:
        rows.append(
            tuple(Fraction(abs(xa - xb) + abs(ya - yb)) for xb, yb in coords)
        )
    return FiniteMetric(GroundSet(n), tuple(rows))


def random_scales(rng, metric, count):
    """A nondecreasing list of scales drawn from the metric's distance set."""
    pool = list(metric.scales())
    return tuple(sorted(rng.choice(pool) for _ in range(count)))


def box_sequence(mx, my, scales_x, scales_y):
    """Nondecreasing sequence of product boxes of metric entourages."""
    items = tuple(
        product_relation(metric_entourage(mx, r), metric_entourage(my, t))
        for r, t in zip(sorted(scales_x), sorted(scales_y))
    )
    return EntourageSequence(items[0].ground, items)


def _split_into_parts(rng, pieces, n):
    """Shuffled round-robin: uses as many of the n parts as the pieces allow."""
    order = list(pieces)
    rng.shuffle(order)
    parts = [[] for _ in range(n)]
    for i, piece in enumerate(order):
        parts[i % n].append(piece)
    return tuple(tuple(p) for p in parts if p)


def random_cad_provider(rng, levels, dims=None, inflate=False):
    """Provider built from chains of entourage-closure class refinements.

    Each level refines the previous partition by the classes of the closure of
    the level entourage; fragments of a block are pairwise separated by that
    entourage, so any split into parts is valid.  With inflate=True, terminal
    members are widened into overlapping (non-partition) families when the
    checks still pass, to exercise partition refinement.
    """
    if dims is None:
        dims = tuple(rng.randint(1, 3) for _ in range(max(levels, 1)))
    dims = tuple(dims)
    build_seed = rng.getrandbits(32)

    def build(structure, k_seq):
        import random as random_module

        local = random_module.Random(build_seed)
        ground = structure.ground
        whole = ground.all_points()
        families = [Family(ground, (whole,))]
        rows = []
        blocks = [whole]
        for i in range(1, levels + 1):
            k_i = k_seq.at(i)
            classes = generate(ground, [k_i]).classes()
            new_blocks = []
            row = []
            for block in blocks:
                pieces = [block & c for c in classes if block & c]
                parts = _split_into_parts(local, pieces, dims[min(i, len(dims)) - 1])
                row.append(Decomposition(block, parts))
                new_blocks.extend(pieces)
            families.append(Family(ground, tuple(new_blocks)))
            rows.append(tuple(row))
            blocks = new_blocks

        if inflate and len(families) >= 2:
            families, rows = _inflate_terminal(local, structure, k_seq, families, rows, dims)
        return tuple(families), tuple(rows)

    return CadProvider(dims=dims, build=build)


def _inflate_terminal(rng, structure, k_seq, families, rows, dims):
    """Widen one terminal member across parts, keeping all checks green.

    A widened member must stay disjoint (relative to the level entourage)
    from its part siblings, so the stolen point is taken from a piece in a
    different part of the same decomposition.
    """
    from coarsec import check_decomposition

    ground = structure.ground
    terminal = list(families[-1].members)
    parent_row = list(rows[-1])
    level = len(families) - 1
    k = k_seq.at(level)
    n_parts = dims[min(level, len(dims)) - 1]

    order = list(range(len(parent_row)))
    rng.shuffle(order)
    for parent_idx in order:
        d = parent_row[parent_idx]
        if len(d.parts) < 2:
            continue
        slots = [(t, piece) for t, part in enumerate(d.parts) for piece in part]
        rng.shuffle(slots)
        for t, m in slots:
            donors = [
                p
                for t2, part in enumerate(d.parts)
                if t2 != t
                for piece in part
                for p in piece
                if p not in m
            ]
            if not donors:
                continue
            x = rng.choice(sorted(donors))
            widened = m | {x}
            new_parts = tuple(
                tuple(widened if piece == m else piece for piece in part)
                for part in d.parts
            )
            new_terminal = [widened if piece == m else piece for piece in terminal]
            if len(set(new_terminal)) != len(new_terminal):
                continue
            candidate_family = Family(ground, tuple(new_terminal))
            if not is_uniformly_bounded(candidate_family, structure):
                continue
            new_d = Decomposition(d.target, new_parts)
            if not check_decomposition(d.target, k, n_parts, new_d, candidate_family).ok:
                continue
            if any(
                not check_decomposition(
                    other.target, k, n_parts, other, candidate_family
                ).ok
                for j, other in enumerate(parent_row)
                if j != parent_idx
            ):
                continue
            parent_row[parent_idx] = new_d
            families = list(families)
            families[-1] = candidate_family
            rows = list(rows)
            rows[-1] = tuple(parent_row)
            return tuple(families), tuple(rows)

    # fall back to a redundant overlapping member; only the terminal family
    # may carry members without decompositions, and only boundedness checks
    # it, so the extra point is drawn from the member's own emax class
    emax_pairs = structure.emax.pairs
    for parent_idx in order:
        d = parent_row[parent_idx]
        pieces = [piece for part in d.parts for piece in part]
        if not pieces:
            continue
        m = rng.choice(sorted(pieces, key=sorted))
        anchor = min(m)
        donors = sorted(
            x
            for x in structure.ground.points()
            if x not in m and all((x, p) in emax_pairs for p in m) and (x, anchor) in emax_pairs
        )
        if not donors:
            continue
        extra = m | {rng.choice(donors)}
        if extra in terminal:
            continue
        candidate_family = Family(ground, tuple(terminal) + (extra,))
        if not is_uniformly_bounded(candidate_family, structure):
            continue
        families = list(families)
        families[-1] = candidate_family
        return tuple(families), tuple(rows)
    return tuple(families), tuple(rows)


def clash_instance(rng, n):
    """Documents for an sfcdc check whose one part holds pieces that E joins.

    Returns (space, scales sequence, shuffled explicit sequence, certificate
    without its sequence).  Both sequences realize the same relation E; the
    explicit one lists E's pairs in a shuffled order.  The certificate's one
    decomposition puts every piece of a random partition into a single part.
    """
    metric = random_metric(rng, n)
    scales = metric.scales()
    r = rng.choice(scales[1:])
    space = {
        "kind": "metric",
        "size": n,
        "dist": [[str(x) for x in row] for row in metric.dist],
        "scales": [str(scales[-1])],
    }
    pairs = [[a, b] for a, b in sorted(metric_entourage(metric, r).pairs)]
    rng.shuffle(pairs)
    points = list(range(n))
    rng.shuffle(points)
    k = rng.randint(2, 3)
    certificate = {
        "kind": "sfcdc",
        "families": [[list(range(n))], [sorted(points[i::k]) for i in range(k)]],
        "decompositions": [[{"parts": [list(range(k))]}]],
    }
    return (
        space,
        {"kind": "scales", "scales": [str(r)]},
        {"kind": "explicit", "items": [pairs]},
        certificate,
    )
