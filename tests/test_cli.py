import json
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from coarsec import cli, documents, products, spaces
from coarsec.cli import main


ONE_POINT = {"kind": "generated", "size": 1, "generators": []}
THREE_GEN = {"kind": "generated", "size": 3, "generators": [[[0, 1]]]}
UNIT2 = {
    "kind": "metric",
    "size": 2,
    "dist": [["0", "1"], ["1", "0"]],
    "scales": ["1"],
}


@pytest.fixture()
def files(tmp_path):
    def write(name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    return tmp_path, write


def run_main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestInfo:
    def test_one_point(self, files, capsys):
        _, write = files
        code, out, _ = run_main(capsys, "info", "--space", write("s.json", ONE_POINT))
        assert code == 0
        payload = json.loads(out)
        assert payload["size"] == 1
        assert payload["class_count"] == 1

    def test_two_classes(self, files, capsys):
        _, write = files
        code, out, _ = run_main(capsys, "info", "--space", write("s.json", THREE_GEN))
        assert code == 0
        payload = json.loads(out)
        assert payload["class_count"] == 2

    def test_product_info(self, files, capsys):
        _, write = files
        s = write("s.json", UNIT2)
        code, out, _ = run_main(capsys, "info", "--space", s, "--space2", s)
        assert code == 0
        assert json.loads(out)["size"] == 4

    def test_product_info_forms_no_product_metric(self, files, capsys, monkeypatch):
        _, write = files
        a = write("a.json", UNIT2)
        b = write(
            "b.json",
            {
                "kind": "metric",
                "size": 3,
                "dist": [["0", "1", "5"], ["1", "0", "5"], ["5", "5", "0"]],
                "scales": ["1"],
            },
        )
        cert = write(
            "cert.json",
            {
                "kind": "property-c",
                "sequence": {"kind": "scales", "scales": ["0"]},
                "families": [[[0, 1, 3, 4], [2, 5]]],
            },
        )

        class Called(Exception):
            pass

        def refuse(m1, m2):
            raise Called

        monkeypatch.setattr(cli, "max_metric_product", refuse)
        code, out, err = run_main(capsys, "info", "--space", a, "--space2", b)
        assert (code, err) == (0, "")
        assert out == (
            '{"class_count": 2, "classes": [[0, 1, 3, 4], [2, 5]], '
            '"emax_pair_count": 20, "size": 6}\n'
        )
        with pytest.raises(Called):
            main(["verify-witness", "--space", a, "--space2", b, "--certificate", cert])


class TestVerifyWitness:
    def test_pass(self, files, capsys):
        _, write = files
        cert = {
            "kind": "property-c",
            "sequence": {"kind": "explicit", "items": [[[0, 0], [1, 1], [2, 2]]]},
            "families": [[[0, 1], [2]]],
        }
        code, out, _ = run_main(
            capsys,
            "verify-witness",
            "--space",
            write("s.json", THREE_GEN),
            "--certificate",
            write("c.json", cert),
        )
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_missing_point_fails_with_report(self, files, capsys):
        _, write = files
        cert = {
            "kind": "property-c",
            "sequence": {"kind": "explicit", "items": [[[0, 0], [1, 1], [2, 2]]]},
            "families": [[[0, 1]]],
        }
        code, out, _ = run_main(
            capsys,
            "verify-witness",
            "--space",
            write("s.json", THREE_GEN),
            "--certificate",
            write("c.json", cert),
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["ok"] is False
        assert payload["failure"] == ["uncovered-point", 2]

    def test_parse_error_exits_2(self, files, capsys):
        tmp_path, write = files
        bad = tmp_path / "bad.json"
        bad.write_text("{broken", encoding="utf-8")
        code, _, err = run_main(
            capsys,
            "verify-witness",
            "--space",
            write("s.json", THREE_GEN),
            "--certificate",
            str(bad),
        )
        assert code == 2
        assert "document error" in err

    def test_huge_exponent_exits_2_without_building_it(self, files, capsys, monkeypatch):
        def guarded_fraction(*args):
            assert not any("1000000000" in str(a) for a in args), "parsed the huge rational"
            return Fraction(*args)

        monkeypatch.setattr(documents, "Fraction", guarded_fraction)
        _, write = files
        doc = dict(UNIT2, dist=[["0", "1e1000000000"], ["1e1000000000", "0"]])
        start = time.perf_counter()
        code, _, err = run_main(capsys, "info", "--space", write("s.json", doc))
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert "dist[0][1]" in err

    @pytest.mark.parametrize("digits", [4000, 5000])
    def test_long_integer_distance_exits_2_with_field_path(self, files, capsys, digits):
        # json.dumps cannot write a literal past the 4300-digit conversion limit
        tmp_path, _ = files
        big = "7" * digits
        space = tmp_path / "s.json"
        space.write_text(
            f'{{"kind": "metric", "size": 2, "dist": [[0, {big}], [{big}, 0]], "scales": [1]}}',
            encoding="utf-8",
        )
        code, out, err = run_main(capsys, "info", "--space", str(space))
        assert code == 2 and out == ""
        assert err == "document error: dist[0][1]: integer literal longer than 256 digits\n"

    def test_long_integer_in_sequence_document_exits_2(self, files, capsys):
        tmp_path, write = files
        seq = tmp_path / "seq.json"
        seq.write_text(f'{{"kind": "explicit", "items": [[[0, {"1" * 5000}]]]}}', encoding="utf-8")
        code, _, err = run_main(
            capsys,
            "cad-to-sfcdc",
            "--space",
            write("s.json", THREE_GEN),
            "--sequence",
            str(seq),
            "--out",
            str(tmp_path / "out.json"),
        )
        assert code == 2
        assert "sequence.items[0][0][1]: integer literal longer than 256 digits" in err

    def test_missing_file_exits_2(self, files, capsys):
        _, write = files
        code, _, err = run_main(
            capsys,
            "verify-witness",
            "--space",
            write("s.json", THREE_GEN),
            "--certificate",
            "/nonexistent/cert.json",
        )
        assert code == 2


class TestUnreadableFiles:
    @pytest.mark.parametrize("kind", ["space", "sequence", "certificate"])
    def test_deep_nesting_exits_2(self, files, capsys, kind):
        tmp_path, write = files
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200_000, encoding="utf-8")
        space = write("s.json", THREE_GEN)
        argv = {
            "space": ["info", "--space", str(deep)],
            "sequence": [
                "cad-to-sfcdc", "--space", space, "--sequence", str(deep),
                "--out", str(tmp_path / "out.json"),
            ],
            "certificate": ["verify-witness", "--space", space, "--certificate", str(deep)],
        }[kind]
        code, out, err = run_main(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "document error: invalid JSON: nesting too deep\n"

    def test_directory_as_input_exits_2(self, files, capsys):
        tmp_path, _ = files
        code, out, err = run_main(capsys, "info", "--space", str(tmp_path))
        assert (code, out) == (2, "")
        assert err == f"file error: Is a directory: {tmp_path}\n"

    def test_directory_as_output_exits_2(self, files, capsys):
        tmp_path, write = files
        s = write("s.json", UNIT2)
        seq = write("seq.json", {"kind": "scales", "scales": ["0", "1"]})
        code, out, err = run_main(
            capsys, "product-witness", "--space", s, "--space2", s,
            "--sequence", seq, "--out", str(tmp_path),
        )
        assert (code, out) == (2, "")
        assert err == f"file error: Is a directory: {tmp_path}\n"


class TestProductWitness:
    def test_construct_then_verify(self, files, capsys):
        tmp_path, write = files
        s = write("s.json", UNIT2)
        seq = write("seq.json", {"kind": "scales", "scales": ["0", "1"]})
        out_path = str(tmp_path / "cert.json")
        code, out, _ = run_main(
            capsys,
            "product-witness",
            "--space",
            s,
            "--space2",
            s,
            "--sequence",
            seq,
            "--out",
            out_path,
        )
        assert code == 0
        assert json.loads(out)["ok"] is True

        code, out, _ = run_main(
            capsys,
            "verify-witness",
            "--space",
            s,
            "--space2",
            s,
            "--certificate",
            out_path,
        )
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_emitted_file_is_canonical(self, files, capsys):
        tmp_path, write = files
        from coarsec import GroundSet, ProductGroundSet
        from coarsec.documents import (
            emit,
            parse_certificate,
            realize_witness,
            witness_certificate_doc,
        )

        s = write("s.json", UNIT2)
        seq = write("seq.json", {"kind": "scales", "scales": ["0", "1"]})
        out_path = tmp_path / "cert.json"
        code, _, _ = run_main(
            capsys,
            "product-witness",
            "--space",
            s,
            "--space2",
            s,
            "--sequence",
            seq,
            "--out",
            str(out_path),
        )
        assert code == 0
        text = out_path.read_text(encoding="utf-8")
        parsed = parse_certificate(text)
        witness = realize_witness(parsed, ProductGroundSet(GroundSet(2), GroundSet(2)))
        assert emit(witness_certificate_doc(parsed.sequence_doc, witness)) == text

    def test_product_structure_is_built_once(self, files, capsys, monkeypatch):
        tmp_path, write = files
        s = write("s.json", UNIT2)
        seq = write("seq.json", {"kind": "scales", "scales": ["0", "1"]})
        calls = []

        def counting_product_structure(s1, s2):
            calls.append(1)
            return spaces.product_structure(s1, s2)

        # bind the counter wherever the name is looked up
        monkeypatch.setattr(cli, "product_structure", counting_product_structure)
        monkeypatch.setattr(products, "product_structure", counting_product_structure)
        code, _, _ = run_main(
            capsys,
            "product-witness",
            "--space",
            s,
            "--space2",
            s,
            "--sequence",
            seq,
            "--out",
            str(tmp_path / "cert.json"),
        )
        assert code == 0
        assert len(calls) == 1


class TestSfcdcCommands:
    def test_cad_then_check(self, files, capsys):
        tmp_path, write = files
        s = write("s.json", THREE_GEN)
        seq = write(
            "seq.json",
            {"kind": "explicit", "items": [[[0, 0], [1, 1], [2, 2]]]},
        )
        out_path = str(tmp_path / "cert.json")
        code, out, _ = run_main(
            capsys, "cad-to-sfcdc", "--space", s, "--sequence", seq, "--out", out_path
        )
        assert code == 0

        code, out, _ = run_main(
            capsys, "check-sfcdc", "--space", s, "--certificate", out_path
        )
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_check_rejects_tampered(self, files, capsys):
        tmp_path, write = files
        s = write("s.json", THREE_GEN)
        seq = write(
            "seq.json",
            {"kind": "explicit", "items": [[[0, 0], [1, 1], [2, 2]]]},
        )
        out_path = tmp_path / "cert.json"
        run_main(capsys, "cad-to-sfcdc", "--space", s, "--sequence", seq, "--out", str(out_path))
        doc = json.loads(out_path.read_text(encoding="utf-8"))
        doc["families"][-1] = [[0]]
        if len(doc["families"]) == 1:
            doc["families"] = [[[0]]]
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run_main(
            capsys, "check-sfcdc", "--space", s, "--certificate", str(tampered)
        )
        assert code in (1, 2)

    def test_check_reports_duplicate_piece(self, files, capsys):
        _, write = files
        s = write("s.json", {"kind": "generated", "size": 2, "generators": []})
        cert = {
            "kind": "sfcdc",
            "sequence": {"kind": "explicit", "items": [[[0, 0], [1, 1]]]},
            "families": [[[0, 1]], [[0], [1]]],
            "decompositions": [[{"parts": [[0, 0, 1]]}]],
        }
        code, out, _ = run_main(
            capsys, "check-sfcdc", "--space", s, "--certificate", write("c.json", cert)
        )
        assert code == 1
        assert json.loads(out)["failure"] == ["level", 1, 0, ["duplicate-piece", 1, [0]]]


DIAGONAL3 = {"kind": "explicit", "items": [[[0, 0], [1, 1], [2, 2]]]}
WHOLE_THEN_SPLIT = [[[0, 1, 2]], [[0, 1], [2]]]


def witness_report(cover, disjoint, bounded, failure):
    return {"cover_ok": cover, "disjoint_ok": disjoint, "bounded_ok": bounded, "failure": failure}


def sfcdc_report(root, decompositions, bounded, failure):
    return {
        "root_ok": root,
        "decompositions_ok": decompositions,
        "bounded_ok": bounded,
        "failure": failure,
    }


class TestFailureTags:
    """Each failure tag a document can reach, with the full report it prints.

    THREE_GEN has the classes {0, 1} and {2}; check-sfcdc allows two parts.
    """

    @pytest.mark.parametrize(
        "families, sequence, expected",
        [
            pytest.param(
                [[[0, 1]]], DIAGONAL3,
                witness_report(False, True, True, ["uncovered-point", 2]),
                id="uncovered-point",
            ),
            pytest.param(
                [[[0], [1], [2]]],
                {"kind": "explicit", "items": [[[0, 0], [1, 1], [2, 2], [0, 1], [1, 0]]]},
                witness_report(True, False, True, ["not-disjoint", 1, [0], [1], [0, 1]]),
                id="not-disjoint",
            ),
            pytest.param(
                [[[0, 1, 2]]], DIAGONAL3,
                witness_report(True, True, False, ["not-bounded", 1]),
                id="not-bounded",
            ),
            pytest.param(
                [[[0, 2], [1]]],
                {"kind": "explicit", "items": [[[0, 0], [1, 1], [2, 2], [1, 2]]]},
                witness_report(True, False, False, ["not-disjoint", 1, [1], [0, 2], [1, 2]]),
                id="not-disjoint-ahead-of-not-bounded",
            ),
        ],
    )
    def test_verify_witness(self, files, capsys, families, sequence, expected):
        _, write = files
        cert = {"kind": "property-c", "sequence": sequence, "families": families}
        code, out, _ = run_main(
            capsys,
            "verify-witness",
            "--space",
            write("s.json", THREE_GEN),
            "--certificate",
            write("c.json", cert),
        )
        assert code == 1
        assert out == json.dumps({**expected, "ok": False}, sort_keys=True) + "\n"

    @pytest.mark.parametrize(
        "families, parts, sequence, expected",
        [
            pytest.param(
                [[[0, 1], [2]]], None, DIAGONAL3,
                sfcdc_report(False, True, True, ["root-not-whole-space"]),
                id="root-not-whole-space",
            ),
            pytest.param(
                [[[0, 1, 2]]], None, DIAGONAL3,
                sfcdc_report(True, True, False, ["terminal-not-bounded"]),
                id="terminal-not-bounded",
            ),
            pytest.param(
                [[[0, 1, 2]], [[0], [1], [2]]], [[0], [1], [2]], DIAGONAL3,
                sfcdc_report(True, False, True, ["level", 1, 0, ["too-many-parts", 3, 2]]),
                id="level-too-many-parts",
            ),
            pytest.param(
                WHOLE_THEN_SPLIT, [[0]], DIAGONAL3,
                sfcdc_report(True, False, True, ["level", 1, 0, ["union-mismatch", 2]]),
                id="level-union-mismatch",
            ),
            pytest.param(
                WHOLE_THEN_SPLIT, [[0, 0, 1]], DIAGONAL3,
                sfcdc_report(True, False, True, ["level", 1, 0, ["duplicate-piece", 1, [0, 1]]]),
                id="level-duplicate-piece",
            ),
            pytest.param(
                WHOLE_THEN_SPLIT, [[0, 1]],
                {"kind": "explicit", "items": [[[0, 0], [1, 1], [2, 2], [0, 2], [2, 0]]]},
                sfcdc_report(
                    True, False, True,
                    ["level", 1, 0, ["part-not-disjoint", 1, [0, 1], [2], [0, 2]]],
                ),
                id="level-part-not-disjoint",
            ),
            pytest.param(
                [[[0, 1]], [[0, 1, 2]]], [[0]], DIAGONAL3,
                sfcdc_report(False, False, False, ["root-not-whole-space"]),
                id="every-clause-fails",
            ),
        ],
    )
    def test_check_sfcdc(self, files, capsys, families, parts, sequence, expected):
        _, write = files
        rows = [] if parts is None else [[{"parts": parts}]]
        cert = {
            "kind": "sfcdc", "sequence": sequence, "families": families, "decompositions": rows
        }
        code, out, _ = run_main(
            capsys,
            "check-sfcdc",
            "--space",
            write("s.json", THREE_GEN),
            "--certificate",
            write("c.json", cert),
        )
        assert code == 1
        assert out == json.dumps({**expected, "ok": False}, sort_keys=True) + "\n"


class TestSearch:
    def test_found(self, files, capsys):
        tmp_path, write = files
        s = write("s.json", THREE_GEN)
        seq = write("seq.json", {"kind": "explicit", "items": [[[0, 0], [1, 1], [2, 2]]]})
        out_path = str(tmp_path / "found.json")
        code, out, _ = run_main(
            capsys,
            "search",
            "--space",
            s,
            "--sequence",
            seq,
            "--max-n",
            "2",
            "--out",
            out_path,
        )
        assert code == 0
        code, out, _ = run_main(
            capsys, "verify-witness", "--space", s, "--certificate", out_path
        )
        assert code == 0

    def test_not_found(self, files, capsys):
        _, write = files
        space = {"kind": "generated", "size": 3, "generators": []}
        s = write("s.json", space)
        full = [[a, b] for a in range(3) for b in range(3)]
        seq = write("seq.json", {"kind": "explicit", "items": [full]})
        code, out, _ = run_main(capsys, "search", "--space", s, "--sequence", seq)
        assert code == 1
        assert json.loads(out) == {"found": False}

    def test_seeded(self, files, capsys):
        _, write = files
        s = write("s.json", THREE_GEN)
        seq = write("seq.json", {"kind": "explicit", "items": [[[0, 0], [1, 1], [2, 2]]]})
        code, out, _ = run_main(
            capsys, "search", "--space", s, "--sequence", seq, "--seed", "7"
        )
        assert code == 0

    def test_guard_exits_2(self, files, capsys):
        _, write = files
        space = {"kind": "generated", "size": 7, "generators": []}
        s = write("s.json", space)
        items = [[[p, p] for p in range(7)]]
        seq = write("seq.json", {"kind": "explicit", "items": items})
        code, _, err = run_main(capsys, "search", "--space", s, "--sequence", seq)
        assert code == 2
        assert "invalid input" in err


class TestUsage:
    def test_no_command_exits_2(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_module_entry_point(self, files):
        _, write = files
        s = write("s.json", ONE_POINT)
        proc = subprocess.run(
            [sys.executable, "-m", "coarsec", "info", "--space", s],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["size"] == 1

    def test_unknown_flag_exits_2(self, files):
        proc = subprocess.run(
            [sys.executable, "-m", "coarsec", "info", "--nope"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2


class TestOneParser:
    """main() reuses one parser; no call may see another call's arguments."""

    def test_usage_error_then_valid_call_matches_a_fresh_call(self, files, capsys, monkeypatch):
        _, write = files
        s = write("s.json", THREE_GEN)
        monkeypatch.setattr(cli, "_parser", None)
        fresh = run_main(capsys, "info", "--space", s)
        monkeypatch.setattr(cli, "_parser", None)
        code, _, err = run_main(capsys, "info", "--space", s, "--nope")
        assert code == 2
        assert "unrecognized arguments: --nope" in err
        assert run_main(capsys, "info", "--space", s) == fresh

    def test_out_of_one_search_is_not_reused(self, files, capsys):
        tmp_path, write = files
        s = write("s.json", THREE_GEN)
        seq = write("seq.json", {"kind": "explicit", "items": [[[0, 0], [1, 1], [2, 2]]]})
        out_path = tmp_path / "c.json"
        code, first, _ = run_main(
            capsys, "search", "--space", s, "--sequence", seq, "--out", str(out_path)
        )
        assert code == 0 and out_path.read_text(encoding="utf-8") == first
        out_path.unlink()
        before = sorted(tmp_path.iterdir())
        code, second, _ = run_main(capsys, "search", "--space", s, "--sequence", seq)
        assert code == 0 and second == first
        assert sorted(tmp_path.iterdir()) == before

    def test_space2_of_one_info_is_not_reused(self, files, capsys):
        _, write = files
        s = write("s.json", UNIT2)
        code, out, _ = run_main(capsys, "info", "--space", s, "--space2", s)
        assert code == 0 and json.loads(out)["size"] == 4
        code, out, _ = run_main(capsys, "info", "--space", s)
        assert code == 0 and json.loads(out)["size"] == 2

    def test_parser_is_built_once(self, files, capsys, monkeypatch):
        _, write = files
        s = write("s.json", ONE_POINT)
        builds = []
        build = cli._build_parser

        def counting_build():
            builds.append(1)
            return build()

        monkeypatch.setattr(cli, "_parser", None)
        monkeypatch.setattr(cli, "_build_parser", counting_build)
        assert main([]) == 2
        for _ in range(3):
            assert run_main(capsys, "info", "--space", s)[0] == 0
        assert len(builds) == 1
