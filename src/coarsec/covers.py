"""Families of subsets, entourage sequences, and property-C witnesses.

A witness is a finite list of families; it passes when the families jointly
cover the ground set, family i is disjoint relative to the i-th entourage of
the sequence, and every family is uniformly bounded in the structure.  Finite
sequences stand in for infinite ones by the extend-by-last convention: the
entourage at an index past the end is the last one.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .relations import GroundSet, Pair, Relation
from .spaces import CoarseStructure


class ProviderError(RuntimeError):
    """A witness or decomposition provider returned data that fails its checks."""


class ConstructionError(RuntimeError):
    """A constructor produced output that fails its own verification."""


@dataclass(frozen=True)
class Family:
    """An ordered collection of nonempty point subsets.

    Members may overlap as point sets; disjointness is always relative to an
    entourage.  An empty member list is allowed (vacuously disjoint and
    bounded), duplicates are not.
    """

    ground: GroundSet
    members: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        members = tuple(frozenset(m) for m in self.members)
        object.__setattr__(self, "members", members)
        n = self.ground.size
        for m in members:
            if not m:
                raise ValueError("family members must be nonempty")
            if any(type(p) is not int or not (0 <= p < n) for p in m):
                if any(type(p) is not int for p in m):
                    raise ValueError(f"member {set(m)!r} has a point that is not an int")
                raise ValueError(f"member {sorted(m)} outside ground set of size {n}")
        if len(set(members)) != len(members):
            raise ValueError("duplicate family members")

    def covered(self) -> frozenset[int]:
        out: set[int] = set()
        for m in self.members:
            out |= m
        return frozenset(out)


@dataclass(frozen=True)
class EntourageSequence:
    """A nonempty, nondecreasing list of relations with extend-by-last access."""

    ground: GroundSet
    items: tuple[Relation, ...]

    def __post_init__(self) -> None:
        items = tuple(self.items)
        object.__setattr__(self, "items", items)
        if not items:
            raise ValueError("entourage sequence must be nonempty")
        for e in items:
            if e.ground != self.ground:
                raise ValueError("sequence item on a different ground set")
        for k in range(len(items) - 1):
            if not items[k].pairs <= items[k + 1].pairs:
                raise ValueError(f"sequence not nondecreasing at position {k + 1}")

    def __len__(self) -> int:
        return len(self.items)

    def at(self, k: int) -> Relation:
        """1-based access; indices past the end return the last item."""
        if type(k) is not int or k < 1:
            raise ValueError(f"sequence index must be an int >= 1, got {k!r}")
        return self.items[min(k, len(self.items)) - 1]

    def subsequence(self, positions: Iterable[int]) -> "EntourageSequence":
        """Entries at increasing 1-based positions, up to and including the first
        position at or past the end; under extend-by-last every later entry equals it."""
        items = []
        for k in positions:
            items.append(self.at(k))
            if k >= len(self.items):
                break
        return EntourageSequence(self.ground, tuple(items))


@dataclass(frozen=True)
class PropertyCWitness:
    """A finite list of families; validated only through check_witness."""

    families: tuple[Family, ...]

    def __post_init__(self) -> None:
        families = tuple(self.families)
        object.__setattr__(self, "families", families)
        if not families:
            raise ValueError("witness must contain at least one family")
        ground = families[0].ground
        for f in families:
            if f.ground != ground:
                raise ValueError("witness families on different ground sets")

    @property
    def ground(self) -> GroundSet:
        return self.families[0].ground


WitnessProvider = Callable[[CoarseStructure, EntourageSequence], PropertyCWitness]


class Report:
    """Clause verdicts: one ``*_ok`` flag per clause in clause order, then ``failure``.

    ``failure`` is the first failing clause's offense, or None when every
    clause holds.  Subclasses are frozen dataclasses that list only these
    fields, in this order.
    """

    failure: Optional[tuple]

    @property
    def ok(self) -> bool:
        *flags, _ = vars(self).values()
        return all(flags)

    def to_json(self) -> dict:
        *flags, _ = vars(self).items()
        failure = list(self.failure) if self.failure is not None else None
        return {**dict(flags), "ok": self.ok, "failure": failure}

    @classmethod
    def of(cls, *offenses: Optional[tuple]):
        """The report whose clause i holds iff offenses[i] is None."""
        failure = next((o for o in offenses if o is not None), None)
        return cls(*[o is None for o in offenses], failure)


@dataclass(frozen=True)
class WitnessReport(Report):
    """Outcome of the three witness clauses, with the first offending datum."""

    cover_ok: bool
    disjoint_ok: bool
    bounded_ok: bool
    failure: Optional[tuple] = None


def member_clashes(
    members: Sequence[frozenset[int]], pairs: Iterable[Pair]
) -> Iterator[tuple[int, int, Pair]]:
    """Every (i, j, (a, b)) with i != j, a in members[i] and b in members[j].

    The one E-disjointness kernel: one pass over the pairs, in the order given,
    through a point -> member index; i, then j, ascend within a pair.
    """
    holding: dict[int, list[int]] = {}
    for idx, m in enumerate(members):
        for p in m:
            holding.setdefault(p, []).append(idx)
    for a, b in pairs:
        for i in holding.get(a, ()):
            for j in holding.get(b, ()):
                if i != j:
                    yield i, j, (a, b)


def _disjoint_offense(family: Family, e: Relation) -> Optional[tuple]:
    """First pair of distinct members joined by e, or None."""
    for i, j, (a, b) in member_clashes(family.members, sorted(e.pairs)):
        return sorted(family.members[i]), sorted(family.members[j]), [a, b]
    return None


def is_disjoint(family: Family, e: Relation) -> bool:
    """True iff (U x V) misses e for every pair of distinct members U, V."""
    if family.ground != e.ground:
        raise ValueError("family and relation on different ground sets")
    return next(member_clashes(family.members, e.pairs), None) is None


def squares_union(family: Family) -> Relation:
    """Union of U x U over the members of the family.

    The reference definition of uniform boundedness; is_uniformly_bounded
    tests the equivalent anchor stars instead of building this relation.
    """
    return Relation(family.ground, frozenset((a, b) for m in family.members for a in m for b in m))


def is_uniformly_bounded(family: Family, structure: CoarseStructure) -> bool:
    """True iff the union of member squares is an entourage of the structure.

    The maximal entourage is an equivalence relation, so U x U lies in it iff
    the anchor star {(min U, p) : p in U} does: sum |U| pairs, not sum |U|^2.
    """
    if family.ground != structure.ground:
        raise ValueError("family and structure on different ground sets")
    star = frozenset((a, p) for m in family.members for a in (min(m),) for p in m)
    return structure.contains(Relation(family.ground, star))


def check_witness(
    structure: CoarseStructure, seq: EntourageSequence, witness: PropertyCWitness
) -> WitnessReport:
    """Check the three witness clauses against the structure and the sequence.

    A failing witness yields a report, never an exception; only ground-set
    mismatches raise.
    """
    if seq.ground != structure.ground or witness.ground != structure.ground:
        raise ValueError("structure, sequence and witness must share a ground set")

    covered: set[int] = set()
    for f in witness.families:
        covered |= f.covered()
    missing = min(structure.ground.all_points() - covered, default=None)

    # plain loops, not generators: the witness search runs this once per candidate
    not_disjoint: Optional[tuple] = None
    for i, f in enumerate(witness.families, start=1):
        offense = _disjoint_offense(f, seq.at(i))
        if offense is not None:
            not_disjoint = ("not-disjoint", i) + offense
            break

    not_bounded: Optional[tuple] = None
    for i, f in enumerate(witness.families, start=1):
        if not is_uniformly_bounded(f, structure):
            not_bounded = ("not-bounded", i)
            break

    return WitnessReport.of(
        None if missing is None else ("uncovered-point", missing), not_disjoint, not_bounded
    )


def components_witness(
    structure: CoarseStructure, seq: EntourageSequence
) -> PropertyCWitness:
    """Canonical witness: the single family of maximal-entourage classes.

    Requires every sequence item to be a member of the structure; distinct
    classes are then separated by every member entourage, so the witness
    always passes.
    """
    for k, e in enumerate(seq.items, start=1):
        if not structure.contains(e):
            raise ValueError(f"sequence item {k} is not an entourage of the structure")
    family = Family(structure.ground, structure.classes())
    return PropertyCWitness((family,))


def _set_partitions(points: tuple[int, ...]) -> Iterator[tuple[frozenset[int], ...]]:
    """All partitions of the given points into nonempty blocks, canonical order."""
    if not points:
        yield ()
        return
    first, rest = points[0], points[1:]
    for sub in _set_partitions(rest):
        for k in range(len(sub)):
            yield sub[:k] + (sub[k] | {first},) + sub[k + 1 :]
        yield sub + (frozenset({first}),)


def brute_force_witness(
    structure: CoarseStructure,
    seq: EntourageSequence,
    max_n: int,
    seed: Optional[int] = None,
) -> Optional[PropertyCWitness]:
    """Exhaustive witness search over point-to-(family, member) assignments.

    Tries witness lengths n = 1..max_n; candidates assign every point to
    exactly one member of exactly one family.  Returns the first candidate
    passing check_witness, or None when no candidate in that space passes.
    Guarded to small instances: ground size <= 6 and max_n <= 3.
    """
    size = structure.ground.size
    if size > 6:
        raise ValueError(f"brute-force witness search is guarded to size <= 6, got {size}")
    if type(max_n) is not int or not (1 <= max_n <= 3):
        raise ValueError(f"max_n must be an int in 1..3, got {max_n!r}")
    ground = structure.ground
    for n in range(1, max_n + 1):
        assignments = list(itertools.product(range(n), repeat=size))
        if seed is not None:
            random.Random(seed).shuffle(assignments)
        for assignment in assignments:
            fibers = [tuple(p for p, f in enumerate(assignment) if f == t) for t in range(n)]
            # each fiber's families are built once and shared by every candidate using them
            options = [[Family(ground, b) for b in _set_partitions(fiber)] for fiber in fibers]
            for families in itertools.product(*options):
                witness = PropertyCWitness(families)
                if check_witness(structure, seq, witness).ok:
                    return witness
    return None
