"""Witness constructor for products of spaces with coarse property C.

Given witness providers for two factors and a nondecreasing sequence of
product entourages, builds a witness for the product structure.  The sequence
indices are laid out in a two-dimensional array via an anti-diagonal pairing;
each array column drives a witness for the first factor, the resulting
per-column terminal entourages (monotonized) drive a witness for the second
factor, and the output families are boxes of the two, re-indexed back to the
original sequence positions.  Positions that receive no box family get an
empty family.

All provider output is re-checked before use, and the assembled witness is
verified against the product structure before it is returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from math import isqrt
from typing import Sequence

from .covers import (
    ConstructionError,
    EntourageSequence,
    Family,
    PropertyCWitness,
    ProviderError,
    WitnessProvider,
    check_witness,
)
from .relations import ProductGroundSet, Relation, project
from .spaces import CoarseStructure, product_structure


def array_index(i: int, j: int) -> int:
    """Anti-diagonal pairing (column i, row j) -> positive integer.

    Strictly increasing in i for fixed j and in j for fixed i.
    """
    if type(i) is not int or type(j) is not int or i < 1 or j < 1:
        raise ValueError(f"array coordinates must be ints >= 1, got ({i!r}, {j!r})")
    s = i + j - 2
    return s * (s + 1) // 2 + i


def array_position(k: int) -> tuple[int, int]:
    """Inverse of array_index."""
    if type(k) is not int or k < 1:
        raise ValueError(f"array index must be an int >= 1, got {k!r}")
    # s is the largest integer with s(s+1)/2 < k, i.e. with (2s+1)^2 <= 8k-7 (odd
    # squares are 1 mod 8), so the exact isqrt gives it with no correction step
    s = (isqrt(8 * k - 7) - 1) // 2
    i = k - s * (s + 1) // 2
    j = s - i + 2
    return i, j


def factor_sequences(seq: EntourageSequence) -> tuple[EntourageSequence, EntourageSequence]:
    """Coordinate projections of a sequence on a product ground set.

    Projection preserves the nondecreasing property, so both results are
    sequences in their own right, with the same extend-by-last behaviour.
    """
    if not isinstance(seq.ground, ProductGroundSet):
        raise ValueError("factor_sequences expects a sequence on a product ground set")
    left = EntourageSequence(seq.ground.left, tuple(project(e, 1) for e in seq.items))
    right = EntourageSequence(seq.ground.right, tuple(project(e, 2) for e in seq.items))
    return left, right


def monotonize(terms: Sequence[Relation]) -> tuple[Relation, ...]:
    """Replace each term by the union of itself and all earlier terms."""
    out: list[Relation] = []
    for t in terms:
        out.append(t if not out else out[-1].union(t))
    return tuple(out)


@dataclass(frozen=True)
class ColumnWitnessRecord:
    """Witness for one array column of the projected first-factor sequence."""

    column: int
    entourages: EntourageSequence
    families: tuple[Family, ...]

    @property
    def n(self) -> int:
        return len(self.families)


def column_witness(
    structure: CoarseStructure,
    provider: WitnessProvider,
    factor_seq: EntourageSequence,
    i: int,
) -> ColumnWitnessRecord:
    """Run a provider on array column i of the projected sequence.

    The column is materialized up to the first entry that already equals the
    terminal projection; the provider's witness is re-checked and rejected if
    it fails.
    """
    if i < 1:
        raise ValueError(f"column must be >= 1, got {i}")
    column = factor_seq.subsequence(array_index(i, j) for j in count(1))
    witness = provider(structure, column)
    report = check_witness(structure, column, witness)
    if not report.ok:
        raise ProviderError(f"provider witness for column {i} fails: {report.failure}")
    return ColumnWitnessRecord(column=i, entourages=column, families=witness.families)


@dataclass(frozen=True)
class ProductWitnessTrace:
    """Product witness plus the intermediate data used to assemble it."""

    witness: PropertyCWitness
    columns: tuple[ColumnWitnessRecord, ...]
    stabilization_column: int
    second_factor_sequence: EntourageSequence
    second_factor_families: tuple[Family, ...]


def product_witness_trace(
    structure_x: CoarseStructure,
    structure_y: CoarseStructure,
    seq: EntourageSequence,
    provider_x: WitnessProvider,
    provider_y: WitnessProvider,
) -> ProductWitnessTrace:
    """Build a property-C witness for the product structure, keeping the trace."""
    ground = ProductGroundSet(structure_x.ground, structure_y.ground)
    if seq.ground != ground:
        raise ValueError("sequence must live on the product of the factor ground sets")
    product = product_structure(structure_x, structure_y)
    for k, e in enumerate(seq.items, start=1):
        if not product.contains(e):
            raise ValueError(f"sequence item {k} is not an entourage of the product structure")

    k_seq, l_seq = factor_sequences(seq)
    m_len = len(seq)

    # Columns whose first entry is already past the sequence end are constant;
    # one stabilized record stands in for all of them.
    i_stab = 1
    while array_index(i_stab, 1) <= m_len:
        i_stab += 1
    records = {
        i: column_witness(structure_x, provider_x, k_seq, i) for i in range(1, i_stab + 1)
    }

    terminal_terms = [
        l_seq.at(array_index(i, records[i].n)) for i in range(1, i_stab + 1)
    ]
    y_seq = EntourageSequence(structure_y.ground, monotonize(terminal_terms))
    y_witness = provider_y(structure_y, y_seq)
    y_report = check_witness(structure_y, y_seq, y_witness)
    if not y_report.ok:
        raise ProviderError(f"provider witness for the second factor fails: {y_report.failure}")

    placed: dict[int, Family] = {}
    max_k = m_len
    for i, v_family in enumerate(y_witness.families, start=1):
        record = records[min(i, i_stab)]
        for j in range(1, record.n + 1):
            k = array_index(i, j)
            members = {
                frozenset(ground.index(x, y) for x in u for y in v)
                for u in record.families[j - 1].members
                for v in v_family.members
            }
            placed[k] = Family(ground, tuple(sorted(members, key=sorted)))
            max_k = max(max_k, k)

    families = tuple(placed.get(k, Family(ground, ())) for k in range(1, max_k + 1))
    witness = PropertyCWitness(families)
    report = check_witness(product, seq, witness)
    if not report.ok:
        raise ConstructionError(f"assembled product witness fails its check: {report.failure}")
    return ProductWitnessTrace(
        witness=witness,
        columns=tuple(records[i] for i in range(1, i_stab + 1)),
        stabilization_column=i_stab,
        second_factor_sequence=y_seq,
        second_factor_families=y_witness.families,
    )


def product_witness(
    structure_x: CoarseStructure,
    structure_y: CoarseStructure,
    seq: EntourageSequence,
    provider_x: WitnessProvider,
    provider_y: WitnessProvider,
) -> PropertyCWitness:
    """Witness for the product structure built from factor witness providers."""
    return product_witness_trace(
        structure_x, structure_y, seq, provider_x, provider_y
    ).witness
