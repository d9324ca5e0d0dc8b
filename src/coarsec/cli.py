"""Command-line interface.

Exit codes: 0 on success or a passing check, 1 on a failing check (a
machine-readable report goes to standard output), 2 on usage or document
errors.  Constructor subcommands verify their output with the matching
checker before writing; a failed self-check writes nothing and exits 1.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

from .covers import (
    ConstructionError,
    ProviderError,
    brute_force_witness,
    check_witness,
    components_witness,
)
from .decomposition import (
    cad_to_sfcdc,
    check_sfcdc_certificate,
    closure_class_cad_provider,
)
from .documents import (
    DocumentError,
    ParsedSpace,
    build_sequence,
    emit,
    load_json,
    parse_certificate,
    parse_space,
    realize_sfcdc,
    realize_witness,
    sfcdc_certificate_doc,
    witness_certificate_doc,
)
from .products import product_witness
from .relations import ProductGroundSet
from .spaces import FiniteMetric, max_metric_product, product_structure


def _load_space(path: str) -> ParsedSpace:
    return parse_space(Path(path).read_text(encoding="utf-8"))


def _product_metric(first: ParsedSpace, second: ParsedSpace) -> Optional[FiniteMetric]:
    """The max product metric when both factors are metric, else None."""
    if first.metric is None or second.metric is None:
        return None
    return max_metric_product(first.metric, second.metric)


def _combined_space(args: argparse.Namespace) -> ParsedSpace:
    """The space of --space, or the product space (see _product_metric) when --space2 is given."""
    first = _load_space(args.space)
    if args.space2 is None:
        return first
    second = _load_space(args.space2)
    structure = product_structure(first.structure, second.structure)
    return ParsedSpace(structure, _product_metric(first, second))


def _read_sequence_doc(path: str) -> dict:
    doc = load_json(Path(path).read_text(encoding="utf-8"))
    if not isinstance(doc, dict):
        raise DocumentError("sequence document must be an object")
    return doc


def _cmd_info(args: argparse.Namespace) -> int:
    # info prints the product structure only, so it forms no product metric
    structure = _load_space(args.space).structure
    if args.space2 is not None:
        structure = product_structure(structure, _load_space(args.space2).structure)
    classes = structure.classes()
    print(
        json.dumps(
            {
                "size": structure.ground.size,
                "emax_pair_count": len(structure.emax.pairs),
                "class_count": len(classes),
                "classes": [sorted(c) for c in classes],
            },
            sort_keys=True,
        )
    )
    return 0


def _cmd_check(args: argparse.Namespace, realize, check) -> int:
    """Check a certificate; realize and check are the document kind's pair."""
    space = _combined_space(args)
    parsed = parse_certificate(Path(args.certificate).read_text(encoding="utf-8"))
    seq = build_sequence(parsed.sequence_doc, space.structure.ground, space.metric)
    report = check(space.structure, seq, realize(parsed, space.structure.ground))
    print(json.dumps(report.to_json(), sort_keys=True))
    return 0 if report.ok else 1


def _cmd_product_witness(args: argparse.Namespace) -> int:
    first = _load_space(args.space)
    second = _load_space(args.space2)
    # product_witness builds the product structure itself; the sequence needs only its points
    ground = ProductGroundSet(first.structure.ground, second.structure.ground)
    seq_doc = _read_sequence_doc(args.sequence)
    seq = build_sequence(seq_doc, ground, _product_metric(first, second))
    witness = product_witness(
        first.structure, second.structure, seq, components_witness, components_witness
    )
    doc = witness_certificate_doc(seq_doc, witness)
    Path(args.out).write_text(emit(doc), encoding="utf-8")
    print(json.dumps({"ok": True, "families": len(witness.families), "out": args.out}))
    return 0


def _cmd_cad_to_sfcdc(args: argparse.Namespace) -> int:
    space = _load_space(args.space)
    seq_doc = _read_sequence_doc(args.sequence)
    seq = build_sequence(seq_doc, space.structure.ground, space.metric)
    certificate = cad_to_sfcdc(space.structure, seq, closure_class_cad_provider())
    doc = sfcdc_certificate_doc(seq_doc, certificate)
    Path(args.out).write_text(emit(doc), encoding="utf-8")
    print(json.dumps({"ok": True, "levels": len(certificate.families), "out": args.out}))
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    space = _load_space(args.space)
    seq_doc = _read_sequence_doc(args.sequence)
    seq = build_sequence(seq_doc, space.structure.ground, space.metric)
    witness = brute_force_witness(space.structure, seq, args.max_n, seed=args.seed)
    if witness is None:
        print(json.dumps({"found": False}))
        return 1
    doc = witness_certificate_doc(seq_doc, witness)
    if args.out:
        Path(args.out).write_text(emit(doc), encoding="utf-8")
    print(emit(doc), end="")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coarsec",
        description="Entourage algebra, property-C witnesses and sFCDC certificates "
        "on finite coarse spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="summarize a space document")
    p.add_argument("--space", required=True)
    p.add_argument("--space2", help="second factor; summarize the product space")
    p.set_defaults(handler=_cmd_info)

    p = sub.add_parser("verify-witness", help="check a property-c certificate")
    p.add_argument("--space", required=True)
    p.add_argument("--space2", help="second factor; verify against the product space")
    p.add_argument("--certificate", required=True)
    # the lambdas look the pair up at call time, so rebinding a module global takes effect
    p.set_defaults(handler=lambda args: _cmd_check(args, realize_witness, check_witness))

    p = sub.add_parser(
        "product-witness", help="construct a witness for a product of two spaces"
    )
    p.add_argument("--space", required=True)
    p.add_argument("--space2", required=True)
    p.add_argument("--sequence", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_product_witness)

    p = sub.add_parser("check-sfcdc", help="check an sfcdc certificate")
    p.add_argument("--space", required=True)
    p.add_argument("--space2", help="second factor; check against the product space")
    p.add_argument("--certificate", required=True)
    p.set_defaults(handler=lambda args: _cmd_check(args, realize_sfcdc, check_sfcdc_certificate))

    p = sub.add_parser(
        "cad-to-sfcdc", help="build an sfcdc certificate with the canonical provider"
    )
    p.add_argument("--space", required=True)
    p.add_argument("--sequence", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_cad_to_sfcdc)

    p = sub.add_parser("search", help="brute-force search for a property-c witness")
    p.add_argument("--space", required=True)
    p.add_argument("--sequence", required=True)
    p.add_argument("--max-n", type=int, default=2, dest="max_n")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_search)

    return parser


_parser: Optional[argparse.ArgumentParser] = None


def main(argv: Optional[list[str]] = None) -> int:
    # the parser is built on the first call and reused: parse_args keeps no
    # state between calls, and the handlers look their helpers up at call time
    global _parser
    if _parser is None:
        _parser = _build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.handler(args)
    except DocumentError as exc:
        print(f"document error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"file not found: {exc.filename}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"file error: {exc.strerror}: {exc.filename}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except (ProviderError, ConstructionError) as exc:
        print(f"construction failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
