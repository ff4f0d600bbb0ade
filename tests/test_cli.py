"""Command line tests, driving main() in process.

Conventions under test: exit 0 for verified/constructed, 1 for a
refutation with a printed witness, 2 for usage or input trouble, and
byte-identical stdout across reruns of one configuration.
"""

import json

import pytest

from pseudoarcs import jsonio
from pseudoarcs.cli import main
from pseudoarcs.gf import tower
from pseudoarcs.nrc import frobenius_orbit_reps, nrc_points
from pseudoarcs.projgeo import Subspace
from pseudoarcs.quadrics import nrc_quadric_system


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_arc(capsys, tmp_path, h=2, k=2, q=5, extend=False):
    path = tmp_path / "arc.json"
    argv = ["construct-arc", "--h", str(h), "--k", str(k), "--q", str(q),
            "--out", str(path)]
    if extend:
        argv.append("--extend")
    code, out, _ = run(capsys, *argv)
    assert code == 0 and "arc written" in out
    return path


def write_code(capsys, tmp_path, extend=False):
    path = tmp_path / "code.json"
    argv = ["code", "gen", "--h", "2", "--k", "2", "--q", "5", "--out", str(path)]
    if extend:
        argv.append("--extend")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    return path


def test_lambda_text_output(capsys):
    code, out, _ = run(capsys, "lambda", "--h", "2", "--q", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "representatives (10): 5 6 7 8 9 10 11 12 13 14"
    assert lines[1] == "mobius count: 10"
    assert lines[2] == "agreement: ok"


def test_lambda_json_document(capsys):
    code, out, _ = run(capsys, "lambda", "--h", "2", "--q", "5", "--json")
    assert code == 0
    doc = json.loads(out)
    tow = tower(5, 1, 2)
    assert doc["kind"] == "lambda"
    assert doc["reps"] == [r.val for r in frobenius_orbit_reps(tow)]
    assert doc["mobius_count"] == 10
    assert len(doc["nrc_points"]) == 26
    assert doc["nrc_points"] == [[c.val for c in p.coords]
                                 for p in nrc_points(tow.top, 4)]


def test_construct_and_verify_roundtrip(capsys, tmp_path):
    arc_path = write_arc(capsys, tmp_path)
    code, out, _ = run(capsys, "verify-arc", str(arc_path), "--k", "2")
    assert code == 0
    assert out.startswith("verified: 10 elements")


def test_verify_arc_witness_certificate(capsys, tmp_path):
    arc_path = write_arc(capsys, tmp_path)
    code, out, _ = run(capsys, "verify-arc", str(arc_path), "--k", "2",
                       "--witness")
    assert code == 0
    assert "certificate: 45 subsets stacked to rank 4" in out


def test_verify_arc_duplicate_element_pair_witness(capsys, tmp_path):
    arc_path = write_arc(capsys, tmp_path)
    doc = json.loads(arc_path.read_text())
    doc["elements"].append(doc["elements"][0])
    doc["tags"].append(doc["tags"][0])
    dup = tmp_path / "dup.json"
    dup.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify-arc", str(dup), "--k", "2")
    assert code == 1
    assert "refuted: elements [0, 10]" in out
    assert "common point:" in out

    code, out, _ = run(capsys, "verify-arc", str(dup), "--k", "2", "--json")
    assert code == 1
    report = json.loads(out)
    assert report["ok"] is False and report["witness"] == [0, 10]


def test_verify_arc_sampled_mode_records_seed(capsys, tmp_path):
    arc_path = write_arc(capsys, tmp_path)
    code, out, _ = run(capsys, "verify-arc", str(arc_path), "--k", "2",
                       "--sample", "12", "--seed", "3")
    assert code == 0
    assert "sample: 12 subsets, seed: 3" in out
    code, out, _ = run(capsys, "verify-arc", str(arc_path), "--k", "2",
                       "--sample", "12", "--seed", "3", "--json")
    report = json.loads(out)
    assert report["sample"] == 12 and report["seed"] == 3


def test_verify_arc_budget_must_be_positive(capsys, tmp_path):
    arc_path = write_arc(capsys, tmp_path)
    code, _, err = run(capsys, "verify-arc", str(arc_path), "--k", "2",
                       "--sample", "0")
    assert code == 2
    assert "positive" in err


def test_verify_example_passes(capsys):
    code, out, _ = run(capsys, "verify-example")
    assert code == 0
    assert out.splitlines()[-1] == "fixture verified: 9 checks"
    assert out.count("ok ") == 9 and "FAIL" not in out


def test_verify_example_json(capsys):
    code, out, _ = run(capsys, "verify-example", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert len(report["checks"]) == 9
    assert all(c["ok"] for c in report["checks"])


def test_export_roundtrip_is_byte_identical(capsys, tmp_path):
    arc_path = write_arc(capsys, tmp_path, extend=True)
    out_path = tmp_path / "again.json"
    code, _, _ = run(capsys, "export", str(arc_path), "--out", str(out_path))
    assert code == 0
    assert arc_path.read_bytes() == out_path.read_bytes()


def test_export_roundtrip_code_and_forms(capsys, tmp_path):
    code_path = write_code(capsys, tmp_path, extend=True)
    again = tmp_path / "c2.json"
    assert run(capsys, "export", str(code_path), "--out", str(again))[0] == 0
    assert code_path.read_bytes() == again.read_bytes()

    arc_path = write_arc(capsys, tmp_path)
    forms_path = tmp_path / "forms.json"
    code, _, _ = run(capsys, "quadrics", "through", str(arc_path),
                     "--out", str(forms_path))
    assert code == 0
    f2 = tmp_path / "f2.json"
    assert run(capsys, "export", str(forms_path), "--out", str(f2))[0] == 0
    assert forms_path.read_bytes() == f2.read_bytes()


def test_import_summaries(capsys, tmp_path):
    arc_path = write_arc(capsys, tmp_path)
    code, out, _ = run(capsys, "import", str(arc_path))
    assert code == 0 and out.strip() == "arc: 10 elements, h=2 k=2 q=5"

    code_path = write_code(capsys, tmp_path)
    code, out, _ = run(capsys, "import", str(code_path))
    assert code == 0 and out.strip() == "code: n=10 k=2 over GF(25)"


def test_import_rejects_repeated_element(capsys, tmp_path):
    arc_path = write_arc(capsys, tmp_path)
    doc = json.loads(arc_path.read_text())
    doc["elements"][3] = doc["elements"][0]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, _, err = run(capsys, "import", str(bad))
    assert code == 2
    assert "repeated element" in err


def test_json_true_is_not_a_field_element(capsys, tmp_path):
    arc_path = write_arc(capsys, tmp_path)
    doc = json.loads(arc_path.read_text())
    doc["elements"][0] = [[True if v == 1 else v for v in row]
                          for row in doc["elements"][0]]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert "true" in bad.read_text()
    code, _, err = run(capsys, "verify-arc", str(bad), "--k", "2")
    assert code == 2 and "int encoding" in err


def test_non_integer_header_field_is_input_error(capsys, tmp_path):
    arc_path = write_arc(capsys, tmp_path)
    for key, bad in [("e", True), ("h", 2.0)]:
        doc = json.loads(arc_path.read_text())
        doc["field"][key] = bad
        bad_path = tmp_path / "bad.json"
        bad_path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "import", str(bad_path))
        assert code == 2 and out == ""
        assert "'%s' must be an integer" % key in err


def test_unknown_coordinate_kind_fails_on_load(capsys, tmp_path):
    code_path = write_code(capsys, tmp_path)
    doc = json.loads(code_path.read_text())
    doc["eval_spec"][-1] = {"kind": "bogus", "param": None}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, _, err = run(capsys, "import", str(bad))
    assert code == 2 and "unknown coordinate kind 'bogus'" in err
    msg = tmp_path / "msg.txt"
    msg.write_text("1\n2\n")
    code, _, err = run(capsys, "code", "encode", str(bad), str(msg))
    assert code == 2 and "unknown coordinate kind 'bogus'" in err


def test_rerun_is_byte_identical(capsys):
    first = run(capsys, "construct-arc", "--h", "2", "--k", "2", "--q", "7")
    second = run(capsys, "construct-arc", "--h", "2", "--k", "2", "--q", "7")
    assert first == second
    assert first[0] == 0


def test_construct_arc_small_field_warning_on_stderr(capsys):
    code, out, err = run(capsys, "construct-arc", "--h", "2", "--k", "3",
                         "--q", "4")
    assert code == 0
    assert "warning:" in err
    doc = json.loads(out)
    assert len(doc["elements"]) == 6


def test_construct_arc_rejects_non_prime_power(capsys):
    code, _, err = run(capsys, "construct-arc", "--h", "2", "--k", "2",
                       "--q", "6")
    assert code == 2 and "error:" in err


def test_code_encode_decode_files(capsys, tmp_path):
    code_path = write_code(capsys, tmp_path)
    msg = tmp_path / "msg.txt"
    msg.write_text("1\n2\n0\n3\n")
    word = tmp_path / "word.txt"
    code, _, _ = run(capsys, "code", "encode", str(code_path), str(msg),
                     "--out", str(word))
    assert code == 0
    lines = word.read_text().splitlines()
    assert len(lines) == 10

    erased = "\n".join(["E" if i < 8 else lines[i] for i in range(10)]) + "\n"
    word.write_text(erased)
    code, out, _ = run(capsys, "code", "decode", str(code_path), str(word))
    assert code == 0
    assert out.splitlines() == ["1", "2", "0", "3"]


def test_code_decode_too_many_erasures(capsys, tmp_path):
    code_path = write_code(capsys, tmp_path)
    word = tmp_path / "word.txt"
    word.write_text("E\n" * 9 + "0\n")
    code, out, _ = run(capsys, "code", "decode", str(code_path), str(word))
    assert code == 1
    assert out.startswith("decode failed:")


def test_code_decode_bad_line(capsys, tmp_path):
    code_path = write_code(capsys, tmp_path)
    word = tmp_path / "word.txt"
    word.write_text("x\n" * 10)
    code, _, err = run(capsys, "code", "decode", str(code_path), str(word))
    assert code == 2 and "one integer or E" in err


def test_code_encode_rejects_long_message(capsys, tmp_path):
    code_path = write_code(capsys, tmp_path)
    msg = tmp_path / "msg.txt"
    msg.write_text("1\n" * 5)
    code, _, err = run(capsys, "code", "encode", str(code_path), str(msg))
    assert code == 2 and "at most 4" in err


def test_code_distance_output(capsys, tmp_path):
    code_path = write_code(capsys, tmp_path)
    code, out, _ = run(capsys, "code", "distance", str(code_path))
    assert code == 0
    assert out.splitlines() == ["length: 10", "distance: 9",
                                "singleton bound: 9", "mds: true"]
    code, _, err = run(capsys, "code", "distance", str(code_path),
                       "--max-words", "10")
    assert code == 2


def test_code_fold_feeds_verify_arc(capsys, tmp_path):
    code_path = write_code(capsys, tmp_path, extend=True)
    folded = tmp_path / "folded.json"
    code, _, _ = run(capsys, "code", "fold", str(code_path), "--out", str(folded))
    assert code == 0
    doc = json.loads(folded.read_text())
    assert doc["kind"] == "subspaces" and len(doc["elements"]) == 16
    code, out, _ = run(capsys, "verify-arc", str(folded), "--k", "2")
    assert code == 0 and out.startswith("verified: 16 elements")


def test_quadrics_through_reports_dimension_zero(capsys, tmp_path):
    arc_path = write_arc(capsys, tmp_path)
    code, out, _ = run(capsys, "quadrics", "through", str(arc_path))
    assert code == 0
    assert out.splitlines()[0] == "dimension: 0"


def conic_files(tmp_path):
    tow = tower(5, 1, 1)
    f5 = tow.base
    pts = [Subspace(f5, 3, [list(p.coords)]) for p in nrc_points(f5, 3)]
    conic = tmp_path / "conic.json"
    conic.write_text(jsonio.dumps(jsonio.subspaces_to_dict(pts, tow)))
    forms = tmp_path / "conicforms.json"
    forms.write_text(jsonio.dumps(
        jsonio.forms_to_dict(nrc_quadric_system(f5, 3), tow)))
    return conic, forms


def test_quadrics_through_finds_the_conic(capsys, tmp_path):
    conic, _ = conic_files(tmp_path)
    code, out, _ = run(capsys, "quadrics", "through", str(conic))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "dimension: 1"
    assert lines[1].startswith("form 0:")


def test_quadrics_certify_ci_conic(capsys, tmp_path):
    conic, forms = conic_files(tmp_path)
    code, out, _ = run(capsys, "quadrics", "certify-ci", str(conic), str(forms))
    assert code == 0
    assert out.startswith("certified:")


def test_quadrics_certify_ci_refutes_empty_system(capsys, tmp_path):
    conic, _ = conic_files(tmp_path)
    empty = tmp_path / "empty.json"
    empty.write_text(jsonio.dumps(
        jsonio.forms_to_dict([], tower(5, 1, 1), level="base", n=3)))
    code, out, _ = run(capsys, "quadrics", "certify-ci", str(conic), str(empty))
    assert code == 1
    assert "refuted: extra zero" in out

    code, out, _ = run(capsys, "quadrics", "certify-ci", str(conic), str(empty),
                       "--json")
    assert code == 1
    report = json.loads(out)
    assert report["ok"] is False and report["extra"] is not None


def test_missing_file_is_input_error(capsys):
    code, _, err = run(capsys, "verify-arc", "no-such-file.json", "--k", "2")
    assert code == 2 and "cannot read" in err


def test_unknown_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2

