"""Finite ground sets and exact algebra of binary relations.

Everything downstream computes on these values: points are the integers
0..size-1 of a ground set, and a relation is an exact set of ordered index
pairs.  All values are immutable and structurally comparable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Iterable

Pair = tuple[int, int]


@dataclass(frozen=True)
class GroundSet:
    """A finite set of points, identified with the indices 0..size-1."""

    size: int

    def __post_init__(self) -> None:
        if type(self.size) is not int or self.size < 1:
            raise ValueError(f"ground set size must be a positive integer, got {self.size!r}")

    def points(self) -> range:
        return range(self.size)

    def all_points(self) -> frozenset[int]:
        return frozenset(range(self.size))

    def diagonal(self) -> "Relation":
        return Relation(self, frozenset((p, p) for p in self.points()))

    def full(self) -> "Relation":
        return Relation(self, frozenset((a, b) for a in self.points() for b in self.points()))

    def empty(self) -> "Relation":
        return Relation(self, frozenset())


@dataclass(frozen=True, repr=False)
class ProductGroundSet(GroundSet):
    """Ground set of a two-factor product; its size is derived from the factors.

    The point (x, y) is encoded as the flat index x * right.size + y; the
    encoding is a bijection onto 0..size-1.
    """

    left: GroundSet
    right: GroundSet
    size: int = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "size", self.left.size * self.right.size)

    def __repr__(self) -> str:
        return f"ProductGroundSet({self.left!r}, {self.right!r})"

    def index(self, x: int, y: int) -> int:
        if not (0 <= x < self.left.size and 0 <= y < self.right.size):
            raise ValueError(f"point ({x}, {y}) outside {self!r}")
        return x * self.right.size + y


def _successor_sets(pairs: Iterable[Pair]) -> dict[int, set[int]]:
    """Each point with a successor, mapped to the set of its successors."""
    successors: dict[int, set[int]] = {}
    for a, b in pairs:
        successors.setdefault(a, set()).add(b)
    return successors


@dataclass(frozen=True)
class Relation:
    """An exact subset of ground x ground; the carrier type for entourages."""

    ground: GroundSet
    pairs: frozenset[Pair]

    def __post_init__(self) -> None:
        pairs = self.pairs if isinstance(self.pairs, frozenset) else frozenset(self.pairs)
        n = self.ground.size
        for a, b in pairs:
            if not (type(a) is int and type(b) is int and 0 <= a < n and 0 <= b < n):
                if type(a) is not int or type(b) is not int:
                    raise ValueError(f"pair {(a, b)!r} has a point that is not an int")
                raise ValueError(f"pair ({a}, {b}) outside ground set of size {n}")
        object.__setattr__(self, "pairs", pairs)

    def __repr__(self) -> str:
        return f"Relation(n={self.ground.size}, pairs={sorted(self.pairs)})"

    def _require_same_ground(self, other: "Relation") -> None:
        if self.ground != other.ground:
            raise ValueError(f"ground sets differ: {self.ground!r} vs {other.ground!r}")

    def compose(self, other: "Relation") -> "Relation":
        """All (a, c) with (a, b) here and (b, c) in other, for some b.

        Works per source: the targets of a are the union of the successor sets
        in other of a's middles, taken once per distinct middle set (once per
        class when an equivalence relation is composed with itself).  The cost
        is those unions plus the output pairs, not one tuple per (a, b, c).
        """
        self._require_same_ground(other)
        successors = _successor_sets(other.pairs)
        middles = successors if other is self else _successor_sets(self.pairs)
        unions: dict[frozenset[int], set[int]] = {}
        out: list[Pair] = []
        for a, bs in middles.items():
            key = frozenset(bs)
            targets = unions.get(key)
            if targets is None:
                targets = unions[key] = set().union(
                    *[successors[b] for b in key if b in successors]
                )
            out += product((a,), targets)
        return Relation(self.ground, frozenset(out))

    def inverse(self) -> "Relation":
        return Relation(self.ground, frozenset((b, a) for a, b in self.pairs))

    def union(self, other: "Relation") -> "Relation":
        self._require_same_ground(other)
        return Relation(self.ground, self.pairs | other.pairs)

    def intersect(self, other: "Relation") -> "Relation":
        self._require_same_ground(other)
        return Relation(self.ground, self.pairs & other.pairs)

    def is_subset(self, other: "Relation") -> bool:
        self._require_same_ground(other)
        return self.pairs <= other.pairs

    def is_reflexive(self) -> bool:
        return all((p, p) in self.pairs for p in self.ground.points())

    def is_symmetric(self) -> bool:
        return all((b, a) in self.pairs for a, b in self.pairs)

    def is_transitive(self) -> bool:
        return self.compose(self).pairs <= self.pairs

    def is_equivalence(self) -> bool:
        return self.is_reflexive() and self.is_symmetric() and self.is_transitive()

    def equivalence_closure(self) -> "Relation":
        """Smallest reflexive, symmetric, transitive relation containing this one.

        A disjoint-set forest (union by size, path halving) joins the ends of
        every pair; the closure is the union of the squares of its classes.
        """
        parent = list(range(self.ground.size))
        size = [1] * self.ground.size

        def find(p: int) -> int:
            while parent[p] != p:
                parent[p] = p = parent[parent[p]]
            return p

        for a, b in self.pairs:
            ra, rb = find(a), find(b)
            if ra != rb:
                if size[ra] < size[rb]:
                    ra, rb = rb, ra
                parent[rb] = ra
                size[ra] += size[rb]
        classes: dict[int, list[int]] = {}
        for p in self.ground.points():
            classes.setdefault(find(p), []).append(p)
        return Relation(
            self.ground, frozenset((a, b) for cls in classes.values() for a in cls for b in cls)
        )


def union_all(ground: GroundSet, relations: Iterable[Relation]) -> Relation:
    pairs: set[Pair] = set()
    for r in relations:
        if r.ground != ground:
            raise ValueError(f"ground sets differ: {ground!r} vs {r.ground!r}")
        pairs |= r.pairs
    return Relation(ground, frozenset(pairs))


def product_relation(k: Relation, l: Relation) -> Relation:
    """Box relation on the product ground set: both coordinates move by the factors."""
    ground = ProductGroundSet(k.ground, l.ground)
    m = l.ground.size
    pairs = frozenset(
        (x1 * m + y1, x2 * m + y2) for x1, x2 in k.pairs for y1, y2 in l.pairs
    )
    return Relation(ground, pairs)


def project(e: Relation, axis: int) -> Relation:
    """Image of a relation on a product ground set under one coordinate projection."""
    ground = e.ground
    if not isinstance(ground, ProductGroundSet):
        raise ValueError("project expects a relation on a product ground set")
    if axis not in (1, 2):
        raise ValueError(f"axis must be 1 or 2, got {axis!r}")
    m = ground.right.size
    if axis == 1:
        return Relation(ground.left, frozenset((a // m, b // m) for a, b in e.pairs))
    return Relation(ground.right, frozenset((a % m, b % m) for a, b in e.pairs))
