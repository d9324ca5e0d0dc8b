import dataclasses
import json

import pytest

from coarsec import (
    EntourageSequence,
    Family,
    GroundSet,
    PropertyCWitness,
    check_sfcdc_certificate,
    check_witness,
    closure_class_cad_provider,
    cad_to_sfcdc,
    generate,
)
from coarsec.documents import (
    DocumentError,
    ParsedSpace,
    build_sequence,
    emit,
    explicit_sequence_doc,
    parse_certificate,
    parse_space,
    realize_sfcdc,
    realize_witness,
    sfcdc_certificate_doc,
    witness_certificate_doc,
)


GENERATED_DOC = {
    "kind": "generated",
    "size": 3,
    "generators": [[[0, 1]]],
}

METRIC_DOC = {
    "kind": "metric",
    "size": 3,
    "dist": [["0", "1", "2"], ["1", "0", "1"], ["2", "1", "0"]],
    "scales": ["1"],
}


class TestParseSpace:
    def test_parsed_space_keeps_no_document(self):
        assert [f.name for f in dataclasses.fields(ParsedSpace)] == ["structure", "metric"]

    def test_one_point_space(self):
        space = parse_space(json.dumps({"kind": "generated", "size": 1, "generators": []}))
        assert space.structure.ground.size == 1
        assert space.structure.emax.pairs == frozenset({(0, 0)})

    def test_generated(self):
        space = parse_space(json.dumps(GENERATED_DOC))
        assert space.structure.emax.pairs == frozenset(
            {(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)}
        )

    def test_two_point_metric_full(self):
        doc = {
            "kind": "metric",
            "size": 2,
            "dist": [["0", "1"], ["1", "0"]],
            "scales": ["1"],
        }
        space = parse_space(json.dumps(doc))
        assert space.structure.emax == GroundSet(2).full()

    def test_path_metric_closure_joins(self):
        space = parse_space(json.dumps(METRIC_DOC))
        assert space.structure.emax == GroundSet(3).full()

    def test_malformed_json(self):
        with pytest.raises(DocumentError, match="invalid JSON"):
            parse_space("{nope")

    def test_unknown_kind(self):
        with pytest.raises(DocumentError, match="kind"):
            parse_space(json.dumps({"kind": "nope"}))

    def test_index_out_of_range(self):
        bad = {"kind": "generated", "size": 2, "generators": [[[0, 2]]]}
        with pytest.raises(DocumentError, match=r"generators\[0\]\[0\]"):
            parse_space(json.dumps(bad))

    def test_metric_axiom_violation(self):
        bad = dict(METRIC_DOC, dist=[["0", "1", "5"], ["1", "0", "1"], ["5", "1", "0"]])
        with pytest.raises(DocumentError, match="dist"):
            parse_space(json.dumps(bad))

    def test_bad_fraction(self):
        bad = dict(METRIC_DOC, scales=["one"])
        with pytest.raises(DocumentError, match=r"scales\[0\]"):
            parse_space(json.dumps(bad))

    @pytest.mark.parametrize(
        "value", ["1e300", "1E-257", "2.5e+1_000", pytest.param("1" * 257, id="257-digits")]
    )
    def test_oversized_rational_rejected_before_parsing(self, value):
        bad = dict(METRIC_DOC, scales=[value])
        with pytest.raises(DocumentError, match=r"scales\[0\]"):
            parse_space(json.dumps(bad))

    @pytest.mark.parametrize(
        "value", ["1e256", "1e-256", pytest.param("1" * 256, id="256-digits"), "3/7", "1.25E-2"]
    )
    def test_rational_within_bounds_accepted(self, value):
        doc = dict(METRIC_DOC, scales=[value])
        assert parse_space(json.dumps(doc)).metric is not None

    @pytest.mark.parametrize("digits", [257, 4000, 5000])
    @pytest.mark.parametrize("sign", ["", "-"])
    def test_long_integer_literal_rejected_with_field_path(self, digits, sign):
        literal = sign + "1" * digits
        text = f'{{"kind": "generated", "size": 3, "generators": [[[0, {literal}]]]}}'
        with pytest.raises(DocumentError, match=r"^generators\[0\]\[0\]\[1\]: integer literal"):
            parse_space(text)

    def test_integer_literal_within_bound_accepted(self):
        big = "9" * 256
        text = f'{{"kind": "metric", "size": 2, "dist": [[0, {big}], [{big}, 0]], "scales": [1]}}'
        assert parse_space(text).metric.dist[0][1] == 10**256 - 1

    def test_long_integer_in_certificate_rejected(self):
        text = (
            '{"kind": "property-c", "sequence": {"kind": "explicit", "items": [[]]}, '
            f'"families": [[[{"2" * 5000}]]]}}'
        )
        with pytest.raises(DocumentError, match=r"^families\[0\]\[0\]\[0\]: integer literal"):
            parse_certificate(text)

    @pytest.mark.parametrize("prefix", ["", "1" * 5000 + ", "], ids=["plain", "after-long-int"])
    def test_deep_nesting_rejected(self, prefix):
        # a long literal first sends load_json to its second parse, which must fail the same way
        with pytest.raises(DocumentError, match=r"^invalid JSON: nesting too deep$"):
            parse_space("[" + prefix + "[" * 200_000)


class TestSequences:
    def test_scales_sequence(self):
        space = parse_space(json.dumps(METRIC_DOC))
        seq = build_sequence(
            {"kind": "scales", "scales": ["0", "1"]}, space.structure.ground, space.metric
        )
        assert len(seq) == 2
        assert seq.at(1) == GroundSet(3).diagonal()

    def test_scales_require_metric(self):
        space = parse_space(json.dumps(GENERATED_DOC))
        with pytest.raises(DocumentError, match="metric"):
            build_sequence(
                {"kind": "scales", "scales": ["1"]}, space.structure.ground, space.metric
            )

    def test_scales_must_be_nondecreasing(self):
        space = parse_space(json.dumps(METRIC_DOC))
        with pytest.raises(DocumentError, match="nondecreasing"):
            build_sequence(
                {"kind": "scales", "scales": ["2", "1"]},
                space.structure.ground,
                space.metric,
            )

    def test_explicit_sequence(self):
        space = parse_space(json.dumps(GENERATED_DOC))
        seq = build_sequence(
            {"kind": "explicit", "items": [[[0, 0], [1, 1], [2, 2]]]},
            space.structure.ground,
            space.metric,
        )
        assert seq.at(5) == GroundSet(3).diagonal()

    def test_explicit_must_be_monotone(self):
        space = parse_space(json.dumps(GENERATED_DOC))
        bad = {"kind": "explicit", "items": [[[0, 1]], [[1, 2]]]}
        with pytest.raises(DocumentError, match="items"):
            build_sequence(bad, space.structure.ground, space.metric)

    def test_roundtrip_explicit_doc(self):
        g = GroundSet(2)
        seq = EntourageSequence(g, (g.diagonal(), g.full()))
        doc = explicit_sequence_doc(seq)
        again = build_sequence(doc, g, None)
        assert again.items == seq.items


class TestCertificates:
    def _witness_doc(self):
        return {
            "kind": "property-c",
            "sequence": {"kind": "explicit", "items": [[[0, 0], [1, 1], [2, 2]]]},
            "families": [[[0, 1], [2]]],
        }

    def test_witness_roundtrip(self):
        text = emit(self._witness_doc())
        parsed = parse_certificate(text)
        witness = realize_witness(parsed, GroundSet(3))
        assert witness.families[0].members == (frozenset({0, 1}), frozenset({2}))
        assert emit(witness_certificate_doc(parsed.sequence_doc, witness)) == text

    def test_member_order_preserved(self):
        doc = dict(self._witness_doc(), families=[[[2], [0, 1]]])
        parsed = parse_certificate(emit(doc))
        witness = realize_witness(parsed, GroundSet(3))
        assert witness.families[0].members == (frozenset({2}), frozenset({0, 1}))
        assert emit(witness_certificate_doc(parsed.sequence_doc, witness)) == emit(doc)

    def test_emission_is_stable(self):
        space = parse_space(json.dumps(GENERATED_DOC))
        g = space.structure.ground
        seq_doc = {"kind": "explicit", "items": [[[0, 0], [1, 1], [2, 2]]]}
        witness = PropertyCWitness(
            (Family(g, (frozenset({0, 1}), frozenset({2}))),)
        )
        doc = witness_certificate_doc(seq_doc, witness)
        text = emit(doc)
        parsed = parse_certificate(text)
        again = realize_witness(parsed, g)
        assert emit(witness_certificate_doc(parsed.sequence_doc, again)) == text

    def test_sfcdc_roundtrip(self):
        s = generate(GroundSet(4), [])
        seq = EntourageSequence(s.ground, (s.ground.diagonal(),))
        cert = cad_to_sfcdc(s, seq, closure_class_cad_provider())
        seq_doc = explicit_sequence_doc(seq)
        doc = sfcdc_certificate_doc(seq_doc, cert)
        text = emit(doc)
        parsed = parse_certificate(text)
        again = realize_sfcdc(parsed, s.ground)
        assert again == cert
        assert emit(sfcdc_certificate_doc(parsed.sequence_doc, again)) == text
        assert check_sfcdc_certificate(s, seq, again).ok

    def test_sfcdc_member_index_out_of_range(self):
        doc = {
            "kind": "sfcdc",
            "sequence": {"kind": "explicit", "items": [[[0, 0], [1, 1]]]},
            "families": [[[0, 1]], [[0], [1]]],
            "decompositions": [[{"parts": [[0, 7]]}]],
        }
        parsed = parse_certificate(emit(doc))
        with pytest.raises(DocumentError, match="out of range"):
            realize_sfcdc(parsed, GroundSet(2))

    def test_kind_mismatch(self):
        parsed = parse_certificate(emit(self._witness_doc()))
        with pytest.raises(DocumentError):
            realize_sfcdc(parsed, GroundSet(3))

    def test_verify_emitted_witness(self):
        space = parse_space(json.dumps(GENERATED_DOC))
        g = space.structure.ground
        seq = build_sequence(
            {"kind": "explicit", "items": [[[0, 0], [1, 1], [2, 2]]]}, g, None
        )
        witness = PropertyCWitness((Family(g, (frozenset({0, 1}), frozenset({2}))),))
        assert check_witness(space.structure, seq, witness).ok
