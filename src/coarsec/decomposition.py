"""Entourage-relative decompositions and sFCDC certificates.

A set Y admits an (E, n)-decomposition over a family when Y is the union of
at most n parts, each part being an E-disjoint union of family members.  An
sFCDC certificate is a chain of families starting at {X}, each member carrying
an explicit (L_i, 2)-decomposition over the next family, ending in a uniformly
bounded family.  Certificates always carry their decomposition data; checking
never searches.

The converter turns provider data of the fixed-piece-count kind (an integer
sequence n_i, with (K_i, n_i)-decompositions) into a binary certificate by
peeling one layer per step and bundling the remainder, after refining the
provider's families into partitions coherently along the chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, count
from typing import Callable, Optional, Sequence

from .covers import (
    ConstructionError,
    EntourageSequence,
    Family,
    ProviderError,
    Report,
    is_uniformly_bounded,
    member_clashes,
)
from .relations import GroundSet, Relation
from .spaces import CoarseStructure, generate


@dataclass(frozen=True)
class Decomposition:
    """Parts of a target set; every part is a list of member subsets."""

    target: frozenset[int]
    parts: tuple[tuple[frozenset[int], ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "target", frozenset(self.target))
        object.__setattr__(
            self, "parts", tuple(tuple(frozenset(m) for m in part) for part in self.parts)
        )


@dataclass(frozen=True)
class DecompositionReport(Report):
    parts_ok: bool
    union_ok: bool
    disjoint_ok: bool
    members_ok: bool
    failure: Optional[tuple] = None


def check_decomposition(
    target: frozenset[int],
    e: Relation,
    n: int,
    decomposition: Decomposition,
    family: Family,
) -> DecompositionReport:
    """Verify an (E, n)-decomposition of target over the given family.

    Clauses: at most n parts; the members union to exactly the target; members
    within a part are distinct and pairwise E-disjoint; every member belongs to
    the family.
    """
    if family.ground != e.ground:
        raise ValueError("family and relation on different ground sets")
    if type(n) is not int or n < 1:
        raise ValueError(f"part count must be an int >= 1, got {n!r}")
    target = frozenset(target)
    if any(not (0 <= p < e.ground.size) for p in target):
        raise ValueError("target outside the ground set")
    parts = decomposition.parts

    union: set[int] = set()
    for part in parts:
        for m in part:
            union |= m
    if decomposition.target != target:
        mismatch = ("target-mismatch", sorted(decomposition.target), sorted(target))
    elif union != target:
        mismatch = ("union-mismatch", min(union ^ target))
    else:
        mismatch = None

    member_set = set(family.members)
    strangers = (
        (t, m) for t, part in enumerate(parts, start=1) for m in part if m not in member_set
    )
    return DecompositionReport.of(
        ("too-many-parts", len(parts), n) if len(parts) > n else None,
        mismatch,
        _disjointness_offense(parts, e),
        next((("not-a-member", t, sorted(m)) for t, m in strangers), None),
    )


def _disjointness_offense(
    parts: tuple[tuple[frozenset[int], ...], ...], e: Relation
) -> Optional[tuple]:
    """First repeated piece of a part, else the first part's least E-joined pieces.

    The hit is the least pair of E from the earlier piece to the later one,
    else the least the other way, whatever order E's pairs iterate in.
    """
    for t, part in enumerate(parts, start=1):
        if len(set(part)) < len(part):
            repeated = next(m for i, m in enumerate(part) if m in part[:i])
            return ("duplicate-piece", t, sorted(repeated))
    for t, part in enumerate(parts, start=1):
        clash = min(
            ((min(i, j), max(i, j), i > j, hit) for i, j, hit in member_clashes(part, e.pairs)),
            default=None,
        )
        if clash is not None:
            i, j, _, hit = clash
            return ("part-not-disjoint", t, sorted(part[i]), sorted(part[j]), list(hit))
    return None


def find_decomposition(
    target: frozenset[int],
    e: Relation,
    n: int,
    family: Family,
) -> Optional[Decomposition]:
    """Exhaustive search for an (E, n)-decomposition of target over the family.

    Candidates are the family members contained in the target; each candidate
    is assigned to one of the n parts or left unused, with backtracking.
    Exact under the guard: at most 12 candidates and n <= 3.
    """
    if family.ground != e.ground:
        raise ValueError("family and relation on different ground sets")
    if type(n) is not int or not (1 <= n <= 3):
        raise ValueError(f"part count is guarded to ints in 1..3, got {n!r}")
    target = frozenset(target)
    candidates = [m for m in family.members if m <= target]
    if len(candidates) > 12:
        raise ValueError(
            f"search is guarded to <= 12 candidate members, got {len(candidates)}"
        )
    if not target:
        return Decomposition(target, ())

    suffix_union: list[frozenset[int]] = [frozenset()] * (len(candidates) + 1)
    for i in range(len(candidates) - 1, -1, -1):
        suffix_union[i] = suffix_union[i + 1] | candidates[i]
    if not target <= suffix_union[0]:
        return None

    clash: list[set[int]] = [set() for _ in candidates]
    for i, j, _ in member_clashes(candidates, e.pairs):
        clash[i].add(j)
        clash[j].add(i)

    parts: list[list[int]] = [[] for _ in range(n)]

    def search(i: int, covered: frozenset[int]) -> Optional[list[list[int]]]:
        if not target <= (covered | suffix_union[i]):
            return None
        if i == len(candidates):
            return [list(p) for p in parts] if covered == target else None
        result = search(i + 1, covered)
        if result is not None:
            return result
        for slot in parts:
            if clash[i].isdisjoint(slot):
                slot.append(i)
                result = search(i + 1, covered | candidates[i])
                slot.pop()
                if result is not None:
                    return result
        return None

    found = search(0, frozenset())
    if found is None:
        return None
    return Decomposition(target, tuple(tuple(candidates[i] for i in p) for p in found if p))


@dataclass(frozen=True)
class SfcdcCertificate:
    """Chain of families with explicit decompositions between levels.

    decompositions[i][k] decomposes families[i].members[k] over families[i+1].
    The type checks only the row shapes, so it also carries a provider's
    n-part chains; check_sfcdc_certificate is what requires binary ones.
    """

    families: tuple[Family, ...]
    decompositions: tuple[tuple[Decomposition, ...], ...]

    def __post_init__(self) -> None:
        families = tuple(self.families)
        decomps = tuple(tuple(row) for row in self.decompositions)
        object.__setattr__(self, "families", families)
        object.__setattr__(self, "decompositions", decomps)
        if not families:
            raise ValueError("certificate must contain at least one family")
        if len(decomps) != len(families) - 1:
            raise ValueError("one decomposition row per non-terminal family is required")
        for i, row in enumerate(decomps):
            if len(row) != len(families[i].members):
                raise ValueError(f"decomposition row {i + 1} does not match its family")

    @property
    def ground(self) -> GroundSet:
        return self.families[0].ground


@dataclass(frozen=True)
class SfcdcReport(Report):
    root_ok: bool
    decompositions_ok: bool
    bounded_ok: bool
    failure: Optional[tuple] = None


def check_sfcdc_certificate(
    structure: CoarseStructure,
    l_seq: EntourageSequence,
    certificate: SfcdcCertificate,
) -> SfcdcReport:
    """Verify an sFCDC certificate against a structure and a sequence.

    The first family must be {X}; every member of level i must carry a valid
    (L_i, 2)-decomposition over level i+1 (extend-by-last); the last family
    must be uniformly bounded.
    """
    if certificate.ground != structure.ground or l_seq.ground != structure.ground:
        raise ValueError("structure, sequence and certificate must share a ground set")
    return _check_chain(structure, l_seq, certificate, lambda i: 2)


def _check_chain(
    structure: CoarseStructure,
    seq: EntourageSequence,
    chain: SfcdcCertificate,
    parts_at: Callable[[int], int],
) -> SfcdcReport:
    """The chain clauses, with (seq_i, parts_at(i))-decompositions at level i."""
    rooted = chain.families[0].members == (structure.ground.all_points(),)
    reports = (
        (i, k, check_decomposition(member, seq.at(i), parts_at(i), row[k], chain.families[i]))
        for i, row in enumerate(chain.decompositions, start=1)
        for k, member in enumerate(chain.families[i - 1].members)
    )
    return SfcdcReport.of(
        None if rooted else ("root-not-whole-space",),
        next((("level", i, k, r.failure) for i, k, r in reports if not r.ok), None),
        None if is_uniformly_bounded(chain.families[-1], structure) else ("terminal-not-bounded",),
    )


def refine_to_partition(families: Sequence[Family]) -> tuple[Family, ...]:
    """Refine each covering family into a partition of the ground set.

    Every point is assigned to its lowest-index containing member; emptied
    members are dropped.  Families that fail to cover raise.
    """
    out: list[Family] = []
    for idx, family in enumerate(families):
        points = family.ground.all_points()
        if family.covered() != points:
            raise ValueError(f"family {idx + 1} does not cover the ground set")
        taken: set[int] = set()
        members: list[frozenset[int]] = []
        for m in family.members:
            fresh = m - taken
            taken |= m
            if fresh:
                members.append(frozenset(fresh))
        out.append(Family(family.ground, tuple(members)))
    return tuple(out)


def refine_chain(
    families: Sequence[Family],
    decompositions: Sequence[Sequence[Decomposition]],
) -> tuple[tuple[Family, ...], tuple[tuple[Decomposition, ...], ...]]:
    """Partition-refine a decomposition chain coherently, level by level.

    The first family is refined by the lowest-index rule; each later family is
    rebuilt from the stored decompositions, splitting every refined block of
    the previous level along the pieces of its member's decomposition (lowest
    member index wins a contested point within the block).  This keeps every
    stored decomposition valid over the refined next family, which per-family
    refinement alone does not.
    """
    families = tuple(families)
    decompositions = tuple(tuple(row) for row in decompositions)
    if not families:
        raise ValueError("empty chain")
    if len(decompositions) != len(families) - 1:
        raise ValueError("one decomposition row per non-terminal family is required")
    ground = families[0].ground

    root = refine_to_partition([families[0]])[0]
    refined: list[Family] = [root]
    # original member index behind each refined block: the first member holding its least point
    first = families[0].members
    sources = [next(q for q, m in enumerate(first) if min(block) in m) for block in root.members]
    rows_out: list[tuple[Decomposition, ...]] = []

    for level in range(len(families) - 1):
        next_family = families[level + 1]
        member_index = {m: q for q, m in enumerate(next_family.members)}
        row = decompositions[level]

        new_blocks: list[frozenset[int]] = []
        new_sources: list[int] = []
        adapted_row: list[Decomposition] = []
        for block, src in zip(refined[level].members, sources):
            d = row[src]
            used: list[tuple[int, int, frozenset[int]]] = []
            for t, part in enumerate(d.parts):
                for piece in part:
                    q = member_index.get(piece)
                    if q is None:
                        raise ValueError(
                            f"decomposition at level {level + 1} uses a non-member piece"
                        )
                    used.append((q, t, piece))
            used.sort(key=lambda item: (item[0], item[1]))

            parts_new: list[list[frozenset[int]]] = [[] for _ in d.parts]
            seen: set[int] = set()
            for q, t, piece in used:
                fragment = (piece & block) - seen
                seen |= piece & block
                if fragment:
                    frag = frozenset(fragment)
                    parts_new[t].append(frag)
                    new_blocks.append(frag)
                    new_sources.append(q)
            if frozenset(seen) != block:
                raise ValueError(
                    f"decomposition at level {level + 1} does not cover its target"
                )
            adapted_row.append(
                Decomposition(block, tuple(tuple(p) for p in parts_new if p))
            )
        refined.append(Family(ground, tuple(new_blocks)))
        sources = new_sources
        rows_out.append(tuple(adapted_row))
    return tuple(refined), tuple(rows_out)


CadBuilder = Callable[
    [CoarseStructure, EntourageSequence],
    tuple[tuple[Family, ...], tuple[tuple[Decomposition, ...], ...]],
]


@dataclass(frozen=True)
class CadProvider:
    """Decomposition data provider with a fixed piece-count sequence.

    The builder maps (structure, K-sequence) to families V_1..V_r together
    with a (K_i, n_i)-decomposition of every member of V_i over V_{i+1}.
    The piece-count sequence extends by its last entry.
    """

    dims: tuple[int, ...]
    build: CadBuilder

    def __post_init__(self) -> None:
        dims = tuple(self.dims)
        object.__setattr__(self, "dims", dims)
        if not dims or any(type(n) is not int or n < 1 for n in dims):
            raise ValueError(f"piece-count sequence must be nonempty positive ints, got {dims!r}")

    def dim_at(self, i: int) -> int:
        if type(i) is not int or i < 1:
            raise ValueError(f"piece-count index must be an int >= 1, got {i!r}")
        return self.dims[min(i, len(self.dims)) - 1]


def _checked_chain(
    structure: CoarseStructure,
    k_seq: EntourageSequence,
    provider: CadProvider,
    data: tuple[Sequence[Family], Sequence[Sequence[Decomposition]]],
    error: type,
) -> SfcdcCertificate:
    """Provider-shaped chain data as a certificate with (K_i, n_i)-decompositions.

    A malformed chain, or one failing a chain clause, raises the given error
    with the reason or the report's failure tuple.
    """
    try:
        chain = SfcdcCertificate(*data)
        report = _check_chain(structure, k_seq, chain, provider.dim_at)
    except ValueError as exc:
        raise error(f"chain data is malformed: {exc}") from exc
    if not report.ok:
        raise error(f"chain data fails its check: {report.failure}")
    return chain


def cad_to_sfcdc(
    structure: CoarseStructure,
    l_seq: EntourageSequence,
    provider: CadProvider,
) -> SfcdcCertificate:
    """Convert fixed-piece-count decomposition data into a binary certificate.

    K_j is the sequence entry at position n_1 + ... + n_j.  Provider data is
    validated, partition-refined coherently, and each n_j-part decomposition
    is unrolled into n_j binary transitions: each one peels the next layer of
    pieces and bundles the remaining layers into a single set, and the last
    one dissolves the final bundle.  The chain starts at the root {X}, has
    1 + n_1 + ... + n_{r-1} families, the family right after position
    n_1 + ... + n_j is the refined family j+1, and the whole certificate is
    verified before it is returned.
    """
    if l_seq.ground != structure.ground:
        raise ValueError("structure and sequence must share a ground set")

    k_seq = l_seq.subsequence(accumulate(map(provider.dim_at, count(1))))

    built = provider.build(structure, k_seq)
    data = _checked_chain(structure, k_seq, provider, built, ProviderError)
    refined = refine_chain(data.families, data.decompositions)
    refined = _checked_chain(structure, k_seq, provider, refined, ConstructionError)

    out_families: list[Family] = [refined.families[0]]
    out_rows: list[tuple[Decomposition, ...]] = []
    for level, parent_row in enumerate(refined.decompositions):
        n_j = provider.dim_at(level + 1)
        # parent p's parts padded to n_j layers; rests[p][t] unions its layers t..n_j-1
        padded = [d.parts + ((),) * (n_j - len(d.parts)) for d in parent_row]
        rests: list[list[frozenset[int]]] = []
        for layers in padded:
            rest = [frozenset()] * (n_j + 1)
            for t in range(n_j - 1, -1, -1):
                rest[t] = rest[t + 1].union(*layers[t])
            rests.append(rest)

        # step s splits rests[p][s-1] into layer s-1 and rests[p][s]; earlier pieces stay
        for s in range(1, n_j + 1):
            row: list[Decomposition] = []
            members: list[frozenset[int]] = []
            for layers, rest in zip(padded, rests):
                done = [piece for layer in layers[: s - 1] for piece in layer]
                row += [Decomposition(piece, ((piece,),)) for piece in done]
                if rest[s - 1]:
                    split = (layers[s - 1], (rest[s],) if rest[s] else ())
                    row.append(Decomposition(rest[s - 1], tuple(p for p in split if p)))
                members += done + list(layers[s - 1]) + ([rest[s]] if rest[s] else [])
            out_rows.append(tuple(row))
            if s < n_j:
                out_families.append(Family(structure.ground, tuple(members)))
        out_families.append(refined.families[level + 1])

    certificate = SfcdcCertificate(tuple(out_families), tuple(out_rows))
    report = check_sfcdc_certificate(structure, l_seq, certificate)
    if not report.ok:
        raise ConstructionError(f"assembled certificate fails its check: {report.failure}")
    return certificate


def _closure_class_build(
    structure: CoarseStructure, k_seq: EntourageSequence
) -> tuple[tuple[Family, ...], tuple[tuple[Decomposition, ...], ...]]:
    whole = structure.ground.all_points()
    root = Family(structure.ground, (whole,))
    if is_uniformly_bounded(root, structure):
        return (root,), ()
    classes = generate(structure.ground, [k_seq.at(1)]).classes()
    leaf = Family(structure.ground, classes)
    decomposition = Decomposition(whole, (tuple(classes),))
    return (root, leaf), ((decomposition,),)


def closure_class_cad_provider() -> CadProvider:
    """Canonical provider: one level of equivalence classes of the first entry.

    Classes of the closure of K_1 are pairwise K_1-separated, so a single
    part suffices, and their squares union into an entourage, so the chain
    terminates immediately.
    """
    return CadProvider(dims=(1,), build=_closure_class_build)
