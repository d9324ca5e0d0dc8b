"""Finitely generated coarse structures and finite metric spaces.

On a finite ground set the closure of finitely many generators under the
coarse-structure axioms (diagonal, subsets, finite unions, inverses,
compositions) has a maximal element, and that element is an equivalence
relation.  A structure is therefore represented by its maximal entourage:
a relation is a member exactly when it is contained in it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from .relations import GroundSet, ProductGroundSet, Relation, product_relation, union_all


@dataclass(frozen=True)
class CoarseStructure:
    """A structure is its maximal entourage: two are equal iff their emax are.

    Constructors pass emax by keyword, the name the traced benchmark reads.
    """

    ground: GroundSet
    emax: Relation

    def __post_init__(self) -> None:
        if self.emax.ground != self.ground:
            raise ValueError("maximal entourage on a different ground set")
        if not self.emax.is_equivalence():
            raise ValueError("maximal entourage must be an equivalence relation")

    def contains(self, e: Relation) -> bool:
        """Membership test: true iff e is contained in the maximal entourage."""
        if e.ground != self.ground:
            raise ValueError("relation on a different ground set")
        return e.pairs <= self.emax.pairs

    def classes(self) -> tuple[frozenset[int], ...]:
        """Equivalence classes of the maximal entourage, ordered by least point."""
        neighbours: dict[int, set[int]] = {p: set() for p in self.ground.points()}
        for a, b in self.emax.pairs:
            neighbours[a].add(b)
        seen: set[int] = set()
        out: list[frozenset[int]] = []
        for p in self.ground.points():
            if p not in seen:
                cls = frozenset(neighbours[p])
                seen |= cls
                out.append(cls)
        return tuple(out)


def generate(ground: GroundSet, generators: Iterable[Relation]) -> CoarseStructure:
    """Coarse structure generated by the given relations.

    The maximal entourage is the equivalence closure of the union of the
    generators and the diagonal.
    """
    emax = union_all(ground, generators).equivalence_closure()
    return CoarseStructure(ground, emax=emax)


def product_structure(s1: CoarseStructure, s2: CoarseStructure) -> CoarseStructure:
    """Product coarse structure: a relation is a member iff both of its
    coordinate projections are members of the factors.

    Equivalently, the maximal entourage is the box of the factor maxima.
    """
    emax = product_relation(s1.emax, s2.emax)
    return CoarseStructure(emax.ground, emax=emax)


@dataclass(frozen=True)
class FiniteMetric:
    """Symmetric matrix of exact nonnegative rational distances.

    Zero diagonal, symmetry and the triangle inequality are enforced at
    construction time.  Zero off-diagonal entries are allowed.  The checks,
    and the thresholds of metric_entourage, run on the integer matrix
    dist * scale, where scale is the least common denominator of the entries.
    """

    ground: GroundSet
    dist: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        n = self.ground.size
        rows = tuple(
            tuple(x if type(x) is Fraction else Fraction(x) for x in row) for row in self.dist
        )
        object.__setattr__(self, "dist", rows)
        if len(rows) != n or any(len(row) != n for row in rows):
            raise ValueError(f"distance matrix must be {n}x{n}")
        scale = lcm(*{x.denominator for row in rows for x in row})
        d = tuple(tuple(x.numerator * (scale // x.denominator) for x in row) for row in rows)
        object.__setattr__(self, "_scale", scale)
        object.__setattr__(self, "_scaled", d)
        for a, row in enumerate(d):
            if row[a] != 0:
                raise ValueError(f"nonzero diagonal entry at ({a}, {a})")
            for b, x in enumerate(row):
                if x < 0:
                    raise ValueError(f"negative distance at ({a}, {b})")
                if x != d[b][a]:
                    raise ValueError(f"asymmetric distances at ({a}, {b})")
        # Each row packs into one int of (w+1)-bit fields, a guard bit over w
        # value bits.  2^w > 2 * max d, so no field carries or borrows, and
        # d(a,c) <= d(a,b) + d(b,c) for all c iff every guard bit of
        # packed[b] + d(a,b) * ones + guard - packed[a] is set.
        w = (2 * max(map(max, d))).bit_length()
        ones = sum(1 << (c * (w + 1)) for c in range(n))
        guard = ones << w
        packed = [sum(x << (c * (w + 1)) for c, x in enumerate(row)) for row in d]
        for a, row_a in enumerate(d):
            for b, dab in enumerate(row_a):
                if (packed[b] + dab * ones + guard - packed[a]) & guard != guard:
                    c = next(c for c in range(n) if row_a[c] > dab + d[b][c])
                    raise ValueError(
                        f"triangle inequality fails: d({a},{c}) > d({a},{b}) + d({b},{c})"
                    )

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[object]]) -> "FiniteMetric":
        return cls(GroundSet(len(rows)), tuple(tuple(Fraction(str(x)) for x in row) for row in rows))

    def scales(self) -> tuple[Fraction, ...]:
        """All distinct distances, ascending; generates the full bounded structure."""
        return tuple(sorted({x for row in self.dist for x in row}))


def metric_entourage(metric: FiniteMetric, r: object) -> Relation:
    """All pairs at distance at most r; reflexive and symmetric.

    d <= r  iff  d * scale <= floor(r * scale), since d * scale is an integer.
    """
    radius = Fraction(str(r)) if not isinstance(r, Fraction) else r
    if radius < 0:
        raise ValueError(f"radius must be nonnegative, got {radius}")
    bound = radius.numerator * metric._scale // radius.denominator
    pairs = frozenset(
        (a, b) for a, row in enumerate(metric._scaled) for b, x in enumerate(row) if x <= bound
    )
    return Relation(metric.ground, pairs)


def structure_from_metric(metric: FiniteMetric, scales: Iterable[object]) -> CoarseStructure:
    """Bounded-type structure generated by the metric entourages at the given scales."""
    return generate(metric.ground, [metric_entourage(metric, r) for r in scales])


def max_metric_product(m1: FiniteMetric, m2: FiniteMetric) -> FiniteMetric:
    """Product metric d((x1,y1),(x2,y2)) = max(d1(x1,x2), d2(y1,y2)).

    The entries are compared as integers on the common scale of the factors,
    and each is the larger factor's own Fraction.
    """
    scale = lcm(m1._scale, m2._scale)
    keyed1, keyed2 = (
        [tuple(zip([x * (scale // m._scale) for x in s], f)) for s, f in zip(m._scaled, m.dist)]
        for m in (m1, m2)
    )
    # point (x, y) has index x * |Y| + y, so rows and columns run x-major
    rows = tuple(
        tuple(f1 if s1 >= s2 else f2 for s1, f1 in row1 for s2, f2 in row2)
        for row1 in keyed1
        for row2 in keyed2
    )
    return FiniteMetric(ProductGroundSet(m1.ground, m2.ground), rows)
