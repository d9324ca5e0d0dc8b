"""Golden corpus: fixed CLI jobs whose exit codes and output digests are pinned.

The corpus is built from the seeded generators in gen.py.  Every case runs
coarsec's CLI in-process, in order, in one working directory, so a later case
may read a file that an earlier one wrote.  A case's result is its exit code
and the sha256 of its standard output, its standard error and every file it
wrote.  tests/test_golden.py compares the results with tests/golden_digests.json.

Regenerate the digests (only when an output is meant to change, and name the
case and the reason with the change):

    PYTHONPATH=src python tests/golden.py             # rewrite golden_digests.json
    PYTHONPATH=src python tests/golden.py --out FILE  # write the digests to FILE
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from pathlib import Path

from coarsec import GroundSet, cli

from gen import clash_instance, random_metric, random_relation, random_scales

DIGESTS = Path(__file__).with_name("golden_digests.json")


def _metric_doc(metric, scales):
    return {
        "kind": "metric",
        "size": metric.ground.size,
        "dist": [[str(x) for x in row] for row in metric.dist],
        "scales": [str(s) for s in scales],
    }


def _pairs(relation):
    return [[a, b] for a, b in sorted(relation.pairs)]


def corpus():
    """(inputs, cases): file name -> JSON document or raw text, and (name, argv) pairs."""
    rng = random.Random(20261019)
    g8 = GroundSet(8)
    gens = [random_relation(rng, g8, 3) for _ in range(3)]
    m5 = random_metric(rng, 5)
    m4 = random_metric(rng, 4)
    t4 = random_metric(rng, 4)
    m5_scales = random_scales(rng, m5, 3)
    prod_scales = sorted(rng.choice(sorted(set(m5.scales()) | set(m4.scales()))) for _ in range(4))
    # gens[0] on the first factor, the diagonal on the second; x * 4 + y is the point (x, y)
    boxed = sorted({(a * 4 + y, b * 4 + y) for a, b in gens[0].pairs for y in range(4)})
    space, scales_seq, shuffled_seq, clash_cert = clash_instance(random.Random(108), 10)

    inputs = {
        "gen8.json": {"kind": "generated", "size": 8, "generators": [_pairs(g) for g in gens]},
        "m5.json": _metric_doc(m5, m5.scales()[-1:]),
        "m4.json": _metric_doc(m4, m4.scales()[-1:]),
        "t4.json": _metric_doc(t4, ["0"]),
        "clash.json": space,
        "seq_m5.json": {"kind": "scales", "scales": [str(s) for s in m5_scales]},
        "seq_gen8.json": {
            "kind": "explicit",
            "items": [_pairs(gens[0]), _pairs(gens[0].union(gens[1]))],
        },
        "seq_prod.json": {"kind": "scales", "scales": [str(s) for s in prod_scales]},
        "seq_prod_gen.json": {"kind": "explicit", "items": [[], [list(p) for p in boxed]]},
        "seq_prod_far.json": {"kind": "explicit", "items": [[[0, 31]]]},
        "seq_t4.json": {"kind": "scales", "scales": [str(t4.scales()[1])]},
        "seq_t4_far.json": {"kind": "scales", "scales": [str(t4.scales()[-1])]},
        "seq_list.json": [],
        "cert_uncovered.json": {
            "kind": "property-c",
            "sequence": {"kind": "scales", "scales": [str(m5_scales[0])]},
            "families": [[[0]]],
        },
        "cert_singletons.json": {
            "kind": "property-c",
            "sequence": {"kind": "scales", "scales": [str(m5_scales[-1])]},
            "families": [[[p] for p in range(5)]],
        },
        "cert_sf_root.json": {
            "kind": "sfcdc",
            "sequence": {"kind": "scales", "scales": [str(m5_scales[0])]},
            "families": [[[0, 1]], [[0], [1]]],
            "decompositions": [[{"parts": [[0, 1]]}]],
        },
        "cert_sf_product.json": {
            "kind": "sfcdc",
            "sequence": {"kind": "scales", "scales": [str(prod_scales[0])]},
            "families": [[list(range(20))], [list(range(0, 20, 2)), list(range(1, 20, 2))]],
            "decompositions": [[{"parts": [[0], [1]]}]],
        },
        "clash_scales.json": {**clash_cert, "sequence": scales_seq},
        "clash_shuffled.json": {**clash_cert, "sequence": shuffled_seq},
        "bad_json.json": '{"kind": "generated", "size": 2,',
        "bad_kind.json": {"kind": "ultrametric", "size": 2},
        "pair_out_of_range.json": {"kind": "generated", "size": 3, "generators": [[[0, 9]]]},
        "long_int.json": {"kind": "metric", "size": 1, "dist": [[10**300]], "scales": []},
        "deep.json": "[" * 200_000,
    }
    cases = [
        ("info-generated", ["info", "--space", "gen8.json"]),
        ("info-metric", ["info", "--space", "m5.json"]),
        ("info-product", ["info", "--space", "m5.json", "--space2", "gen8.json"]),
        ("product-witness-metric", ["product-witness", "--space", "m5.json", "--space2",
                                    "m4.json", "--sequence", "seq_prod.json", "--out",
                                    "pw_metric.json"]),
        ("verify-witness-product", ["verify-witness", "--space", "m5.json", "--space2",
                                    "m4.json", "--certificate", "pw_metric.json"]),
        ("product-witness-generated", ["product-witness", "--space", "gen8.json", "--space2",
                                       "m4.json", "--sequence", "seq_prod_gen.json", "--out",
                                       "pw_gen.json"]),
        ("verify-witness-generated-product", ["verify-witness", "--space", "gen8.json",
                                              "--space2", "m4.json", "--certificate",
                                              "pw_gen.json"]),
        ("product-witness-outside-structure", ["product-witness", "--space", "gen8.json",
                                               "--space2", "m4.json", "--sequence",
                                               "seq_prod_far.json", "--out", "never.json"]),
        ("verify-witness-uncovered", ["verify-witness", "--space", "m5.json", "--certificate",
                                      "cert_uncovered.json"]),
        ("verify-witness-singletons", ["verify-witness", "--space", "m5.json", "--certificate",
                                       "cert_singletons.json"]),
        ("cad-to-sfcdc-generated", ["cad-to-sfcdc", "--space", "gen8.json", "--sequence",
                                    "seq_gen8.json", "--out", "sf_gen.json"]),
        ("check-sfcdc-generated", ["check-sfcdc", "--space", "gen8.json", "--certificate",
                                   "sf_gen.json"]),
        ("cad-to-sfcdc-metric", ["cad-to-sfcdc", "--space", "m5.json", "--sequence",
                                 "seq_m5.json", "--out", "sf_m5.json"]),
        ("check-sfcdc-metric", ["check-sfcdc", "--space", "m5.json", "--certificate",
                                "sf_m5.json"]),
        ("check-sfcdc-root", ["check-sfcdc", "--space", "m5.json", "--certificate",
                              "cert_sf_root.json"]),
        ("check-sfcdc-product", ["check-sfcdc", "--space", "m5.json", "--space2", "m4.json",
                                 "--certificate", "cert_sf_product.json"]),
        ("check-sfcdc-clash-scales", ["check-sfcdc", "--space", "clash.json", "--certificate",
                                      "clash_scales.json"]),
        ("check-sfcdc-clash-shuffled", ["check-sfcdc", "--space", "clash.json",
                                        "--certificate", "clash_shuffled.json"]),
        ("search-found", ["search", "--space", "t4.json", "--sequence", "seq_t4.json",
                          "--max-n", "2", "--out", "search.json"]),
        ("search-seeded", ["search", "--space", "t4.json", "--sequence", "seq_t4.json",
                           "--max-n", "2", "--seed", "7"]),
        ("search-not-found", ["search", "--space", "t4.json", "--sequence",
                              "seq_t4_far.json", "--max-n", "1"]),
        ("exit2-bad-json", ["info", "--space", "bad_json.json"]),
        ("exit2-bad-kind", ["info", "--space", "bad_kind.json"]),
        ("exit2-pair-out-of-range", ["info", "--space", "pair_out_of_range.json"]),
        ("exit2-long-integer", ["info", "--space", "long_int.json"]),
        ("exit2-missing-file", ["info", "--space", "missing.json"]),
        ("exit2-deep-nesting", ["info", "--space", "deep.json"]),
        ("exit2-sequence-not-object", ["cad-to-sfcdc", "--space", "m5.json", "--sequence",
                                       "seq_list.json", "--out", "never.json"]),
    ]
    return inputs, cases


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def run_corpus(directory):
    """Write the corpus into directory and run every case; name -> result."""
    directory = Path(directory)
    inputs, cases = corpus()
    for name, doc in inputs.items():
        text = doc if isinstance(doc, str) else json.dumps(doc)
        (directory / name).write_text(text, encoding="utf-8")
    results = {}
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        for name, argv in cases:
            before = set(os.listdir("."))
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            written = sorted(set(os.listdir(".")) - before)
            results[name] = {
                "exit": code,
                "stdout": _sha256(out.getvalue().encode("utf-8")),
                "stderr": _sha256(err.getvalue().encode("utf-8")),
                "files": {f: _sha256(Path(f).read_bytes()) for f in written},
            }
    finally:
        os.chdir(cwd)
    return results


def main(argv=None):
    parser = argparse.ArgumentParser(description="Regenerate the golden output digests.")
    parser.add_argument("--out", default=str(DIGESTS), help="digest file to write")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        results = run_corpus(tmp)
    Path(args.out).write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    print(f"{len(results)} cases -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
