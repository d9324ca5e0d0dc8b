"""JSON document formats for spaces, sequences and certificates.

Rationals are serialized as exact "p/q" strings so thresholds round-trip
bit-identically.  Emission is canonical (sorted keys, two-space indent,
trailing newline); re-emitting a freshly emitted document is byte-identical.
Member order inside families is data and is preserved verbatim.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import NoReturn, Optional

from .covers import EntourageSequence, Family, PropertyCWitness
from .decomposition import Decomposition, SfcdcCertificate
from .relations import GroundSet, Relation
from .spaces import (
    CoarseStructure,
    FiniteMetric,
    generate,
    metric_entourage,
    structure_from_metric,
)


class DocumentError(ValueError):
    """Malformed document; the message carries a field path diagnostic."""


def _fail(path: str, message: str) -> NoReturn:
    raise DocumentError(f"{path}: {message}")


def _expect_object(value: object, path: str) -> dict:
    if not isinstance(value, dict):
        _fail(path, f"expected an object, got {type(value).__name__}")
    return value


def _expect_list(value: object, path: str) -> list:
    if not isinstance(value, list):
        _fail(path, f"expected a list, got {type(value).__name__}")
    return value


def _expect_int(value: object, path: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        _fail(path, f"expected an integer, got {value!r}")
    if abs(value) >= _LONG_INT:
        _fail(path, f"integer literal longer than {MAX_RATIONAL_CHARS} digits")
    return value


# Bounds on rational strings, checked before Fraction parses them: the
# exponent of "1e1000000000" alone would make a 10**9-digit integer.  Integer
# literals get the same digit bound: the least integer past it is _LONG_INT.
MAX_RATIONAL_CHARS = 256
MAX_RATIONAL_EXPONENT = 256
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)")
_LONG_INT = 10**MAX_RATIONAL_CHARS


def load_json(text: str) -> object:
    """Parse JSON text; integers past the digit bound fail where they are read.

    A literal past int()'s own digit limit fails json.loads; the second parse
    reads every over-long literal as _LONG_INT, which _expect_int rejects.
    Nesting past the parser's recursion limit fails either parse.
    """
    try:
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise DocumentError(f"invalid JSON: {exc}") from exc
        except ValueError:
            long_int = lambda s: _LONG_INT if len(s.lstrip("-")) > MAX_RATIONAL_CHARS else int(s)
            return json.loads(text, parse_int=long_int)
    except RecursionError:
        raise DocumentError("invalid JSON: nesting too deep") from None


def _parse_fraction(value: object, path: str) -> Fraction:
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(_expect_int(value, path))
    if isinstance(value, str):
        if len(value) > MAX_RATIONAL_CHARS:
            _fail(path, f"rational string longer than {MAX_RATIONAL_CHARS} characters")
        exponent = _EXPONENT.search(value)
        if exponent is not None and abs(int(exponent[1])) > MAX_RATIONAL_EXPONENT:
            _fail(path, f"exponent of {value!r} exceeds {MAX_RATIONAL_EXPONENT} in magnitude")
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            _fail(path, f"not a rational 'p/q' string: {value!r} ({exc})")
    _fail(path, f"expected a rational 'p/q' string, got {value!r}")


def _parse_pairs(value: object, ground: GroundSet, path: str) -> Relation:
    items = _expect_list(value, path)
    pairs = []
    for i, entry in enumerate(items):
        pair = _expect_list(entry, f"{path}[{i}]")
        if len(pair) != 2:
            _fail(f"{path}[{i}]", f"expected a pair [a, b], got {entry!r}")
        a = _expect_int(pair[0], f"{path}[{i}][0]")
        b = _expect_int(pair[1], f"{path}[{i}][1]")
        if not (0 <= a < ground.size and 0 <= b < ground.size):
            _fail(f"{path}[{i}]", f"pair ({a}, {b}) outside ground set of size {ground.size}")
        pairs.append((a, b))
    return Relation(ground, frozenset(pairs))


def _emit_pairs(relation: Relation) -> list:
    return [[a, b] for a, b in sorted(relation.pairs)]


@dataclass(frozen=True)
class ParsedSpace:
    structure: CoarseStructure
    metric: Optional[FiniteMetric]


def parse_space(text: str) -> ParsedSpace:
    """Parse a space document of kind "generated" or "metric"."""
    doc = _expect_object(load_json(text), "$")
    kind = doc.get("kind")
    if kind not in ("generated", "metric"):
        _fail("kind", f'expected "generated" or "metric", got {kind!r}')
    size = _expect_int(doc.get("size"), "size")
    if size < 1:
        _fail("size", f"must be >= 1, got {size}")
    ground = GroundSet(size)
    if kind == "generated":
        generators = [
            _parse_pairs(g, ground, f"generators[{i}]")
            for i, g in enumerate(_expect_list(doc.get("generators"), "generators"))
        ]
        return ParsedSpace(generate(ground, generators), None)
    rows_raw = _expect_list(doc.get("dist"), "dist")
    if len(rows_raw) != size:
        _fail("dist", f"expected {size} rows, got {len(rows_raw)}")
    rows = []
    for a, row_raw in enumerate(rows_raw):
        row = _expect_list(row_raw, f"dist[{a}]")
        if len(row) != size:
            _fail(f"dist[{a}]", f"expected {size} entries, got {len(row)}")
        rows.append(tuple(_parse_fraction(x, f"dist[{a}][{b}]") for b, x in enumerate(row)))
    try:
        metric = FiniteMetric(ground, tuple(rows))
    except ValueError as exc:
        _fail("dist", str(exc))
    scales = []
    for i, s in enumerate(_expect_list(doc.get("scales"), "scales")):
        r = _parse_fraction(s, f"scales[{i}]")
        if r < 0:
            _fail(f"scales[{i}]", f"scale must be nonnegative, got {r}")
        scales.append(r)
    return ParsedSpace(structure_from_metric(metric, scales), metric)


def build_sequence(
    seq_doc: object, ground: GroundSet, metric: Optional[FiniteMetric]
) -> EntourageSequence:
    """Realize a sequence document against a ground set.

    Kind "scales" needs a metric and a nondecreasing scale list; kind
    "explicit" carries literal pair lists, which must be nondecreasing.
    """
    doc = _expect_object(seq_doc, "sequence")
    kind = doc.get("kind")
    if kind == "scales":
        if metric is None:
            _fail("sequence.kind", "scale-based sequence requires a metric space")
        scales = _expect_list(doc.get("scales"), "sequence.scales")
        if not scales:
            _fail("sequence.scales", "must be nonempty")
        radii = [_parse_fraction(s, f"sequence.scales[{i}]") for i, s in enumerate(scales)]
        for i in range(len(radii) - 1):
            if radii[i] > radii[i + 1]:
                _fail(f"sequence.scales[{i + 1}]", "scales must be nondecreasing")
        if any(r < 0 for r in radii):
            _fail("sequence.scales", "scales must be nonnegative")
        items = tuple(metric_entourage(metric, r) for r in radii)
        return EntourageSequence(ground, items)
    if kind == "explicit":
        items_raw = _expect_list(doc.get("items"), "sequence.items")
        if not items_raw:
            _fail("sequence.items", "must be nonempty")
        items = tuple(
            _parse_pairs(item, ground, f"sequence.items[{i}]")
            for i, item in enumerate(items_raw)
        )
        try:
            return EntourageSequence(ground, items)
        except ValueError as exc:
            _fail("sequence.items", str(exc))
    _fail("sequence.kind", f'expected "scales" or "explicit", got {kind!r}')


def explicit_sequence_doc(seq: EntourageSequence) -> dict:
    return {"kind": "explicit", "items": [_emit_pairs(e) for e in seq.items]}


@dataclass(frozen=True)
class ParsedCertificate:
    kind: str
    sequence_doc: dict
    families: tuple[tuple[tuple[int, ...], ...], ...]
    decomposition_rows: Optional[tuple[tuple[tuple[tuple[int, ...], ...], ...], ...]]


def _parse_int_lists(value: object, path: str) -> tuple[tuple[int, ...], ...]:
    """A list of integer lists: a family's members, or a decomposition's parts."""
    out = []
    for k, raw in enumerate(_expect_list(value, path)):
        items = _expect_list(raw, f"{path}[{k}]")
        out.append(tuple(_expect_int(p, f"{path}[{k}][{r}]") for r, p in enumerate(items)))
    return tuple(out)


def parse_certificate(text: str) -> ParsedCertificate:
    """Parse a certificate document of kind "property-c" or "sfcdc"."""
    doc = _expect_object(load_json(text), "$")
    kind = doc.get("kind")
    if kind not in ("property-c", "sfcdc"):
        _fail("kind", f'expected "property-c" or "sfcdc", got {kind!r}')
    sequence_doc = _expect_object(doc.get("sequence"), "sequence")
    families = tuple(
        _parse_int_lists(f, f"families[{i}]")
        for i, f in enumerate(_expect_list(doc.get("families"), "families"))
    )
    decomposition_rows = None
    if kind == "sfcdc":
        rows = []
        raw_rows = _expect_list(doc.get("decompositions"), "decompositions")
        for i, row_raw in enumerate(raw_rows):
            row = []
            for k, entry_raw in enumerate(_expect_list(row_raw, f"decompositions[{i}]")):
                entry = _expect_object(entry_raw, f"decompositions[{i}][{k}]")
                row.append(_parse_int_lists(entry.get("parts"), f"decompositions[{i}][{k}].parts"))
            rows.append(tuple(row))
        decomposition_rows = tuple(rows)
    return ParsedCertificate(kind, sequence_doc, families, decomposition_rows)


def _realize_families(parsed: ParsedCertificate, ground: GroundSet) -> list[Family]:
    families = []
    for i, members in enumerate(parsed.families):
        try:
            families.append(Family(ground, tuple(frozenset(m) for m in members)))
        except ValueError as exc:
            _fail(f"families[{i}]", str(exc))
    return families


def realize_witness(parsed: ParsedCertificate, ground: GroundSet) -> PropertyCWitness:
    if parsed.kind != "property-c":
        raise DocumentError(f'kind: expected "property-c", got {parsed.kind!r}')
    families = _realize_families(parsed, ground)
    try:
        return PropertyCWitness(tuple(families))
    except ValueError as exc:
        _fail("families", str(exc))


def realize_sfcdc(parsed: ParsedCertificate, ground: GroundSet) -> SfcdcCertificate:
    if parsed.kind != "sfcdc":
        raise DocumentError(f'kind: expected "sfcdc", got {parsed.kind!r}')
    assert parsed.decomposition_rows is not None
    families = _realize_families(parsed, ground)
    if not families:
        _fail("families", "must be nonempty")
    if len(parsed.decomposition_rows) != len(families) - 1:
        _fail("decompositions", "expected one row per non-terminal family")
    rows = []
    for i, row in enumerate(parsed.decomposition_rows):
        if len(row) != len(families[i].members):
            _fail(f"decompositions[{i}]", "row does not match its family")
        next_members = families[i + 1].members
        decomps = []
        for k, parts in enumerate(row):
            resolved = []
            for t, part in enumerate(parts):
                pieces = []
                for r, q in enumerate(part):
                    if not (0 <= q < len(next_members)):
                        _fail(
                            f"decompositions[{i}][{k}].parts[{t}][{r}]",
                            f"member index {q} out of range for the next family",
                        )
                    pieces.append(next_members[q])
                resolved.append(tuple(pieces))
            decomps.append(Decomposition(families[i].members[k], tuple(resolved)))
        rows.append(tuple(decomps))
    return SfcdcCertificate(tuple(families), tuple(rows))


def _emit_families(families: tuple[Family, ...]) -> list:
    return [[sorted(m) for m in f.members] for f in families]


def witness_certificate_doc(sequence_doc: dict, witness: PropertyCWitness) -> dict:
    return {
        "kind": "property-c",
        "sequence": sequence_doc,
        "families": _emit_families(witness.families),
    }


def sfcdc_certificate_doc(sequence_doc: dict, certificate: SfcdcCertificate) -> dict:
    rows = []
    for i, row in enumerate(certificate.decompositions):
        next_index = {m: q for q, m in enumerate(certificate.families[i + 1].members)}
        rows.append(
            [
                {"parts": [[next_index[m] for m in part] for part in d.parts]}
                for d in row
            ]
        )
    return {
        "kind": "sfcdc",
        "sequence": sequence_doc,
        "families": _emit_families(certificate.families),
        "decompositions": rows,
    }


def emit(doc: dict) -> str:
    """Canonical serialization: sorted keys, two-space indent, trailing newline."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
