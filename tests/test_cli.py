"""Command line tests, driving main() in process.

Conventions under test: exit 0 for verified/constructed, 1 for a
refutation with a printed witness, 2 for usage or input trouble, 3 for
an internal error, and byte-identical stdout across reruns of one
configuration.
"""

import json
import os
import subprocess
import sys
from random import Random

import pytest

from pseudoarcs import cli, codes, jsonio, pseudoarc
from pseudoarcs.cli import main
from pseudoarcs.gf import InvariantError, tower
from pseudoarcs.linalg import rank_ints
from pseudoarcs.nrc import frobenius_orbit_reps, nrc_points
from pseudoarcs.projgeo import Subspace, apply_projectivity_family
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


def write_moved(path):
    """The family of the arc document at ``path`` moved by a seeded random
    projectivity, in the same order, written beside it as a subspaces
    document: verify-arc walks it, having no forms to read."""
    tow, _, elements = jsonio.arc_elements_from_dict(json.loads(path.read_text()))
    fld, n = tow.base, elements[0].ambient_dim
    rng = Random(0)
    while True:
        m = [[rng.randrange(fld.order) for _ in range(n)] for _ in range(n)]
        if rank_ints(fld, m) == n:
            break
    moved = apply_projectivity_family([[fld(x) for x in r] for r in m], elements)
    out = path.with_name("moved-" + path.name)
    out.write_text(jsonio.dumps(jsonio.subspaces_to_dict(moved, tow)))
    return out


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


@pytest.mark.parametrize("mode", [(), ("--json",)], ids=["text", "json"])
def test_lambda_refuses_a_k_below_2(capsys, mode):
    # text mode used to ignore --k, JSON mode to fail on the curve length
    for k in ("1", "0", "-1"):
        code, out, err = run(capsys, "lambda", "--h", "2", "--q", "7", "--k", k, *mode)
        assert (code, out, err) == (2, "", "error: k must be at least 2\n")


def test_construct_and_verify_roundtrip(capsys, tmp_path):
    arc_path = write_arc(capsys, tmp_path)
    code, out, _ = run(capsys, "verify-arc", str(arc_path), "--k", "2")
    assert code == 0
    assert out.startswith("verified: 10 elements")


def test_verify_arc_json_counts_the_walk(capsys, tmp_path):
    # the curve-built family is decided by its forms, with nothing
    # walked; its moved copy is walked over all C(16, 2) subsets
    arc_path = write_arc(capsys, tmp_path, extend=True)
    for path, counts in ((arc_path, ("forms", 0)),
                         (write_moved(arc_path), ("walk", 120))):
        code, out, _ = run(capsys, "verify-arc", str(path), "--k", "2")
        assert code == 0
        assert out == "verified: 16 elements, every 2 of them span PG(3, 5)\n"
        code, out, _ = run(capsys, "verify-arc", str(path), "--k", "2", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["subsets"] == 120
        assert (report["decided_by"], report["subsets_walked"]) == counts


def test_verify_arc_json_is_independent_of_the_hash_seed(capsys, tmp_path):
    # no verdict or count depends on the order of a set or dict of
    # strings: two interpreters with different string hashing agree, on
    # the curve-built family, decided by its forms, and on its moved copy,
    # walked over all C(29, 3) subsets
    arc_path = write_arc(capsys, tmp_path, k=3, q=7, extend=True)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    script = "import sys; from pseudoarcs.cli import main; sys.exit(main(sys.argv[1:]))"
    for path, counts in ((arc_path, ("forms", 0)),
                         (write_moved(arc_path), ("walk", 3654))):
        outs = [subprocess.run([sys.executable, "-c", script, "verify-arc", str(path),
                                "--k", "3", "--json"],
                               env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed),
                               capture_output=True, check=True).stdout
                for seed in ("1", "2")]
        assert outs[0] == outs[1]
        report = json.loads(outs[0])
        assert report["ok"] is True
        assert (report["decided_by"], report["subsets_walked"]) == counts


def test_verify_arc_names_a_k_that_does_not_fit(capsys, tmp_path):
    arc_path = write_arc(capsys, tmp_path)
    for k in ("0", "-1"):
        for extra in ((), ("--json",)):
            code, out, err = run(capsys, "verify-arc", str(arc_path), "--k", k, *extra)
            assert (code, out, err) == (2, "", "error: k must be at least 1\n")
    code, out, err = run(capsys, "verify-arc", str(arc_path), "--k", "3")
    assert (code, out) == (2, "")
    assert err == ("error: elements of rank 2 have ambient dimension 4, "
                   "k = 3 needs hk = 6\n")


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

    # the forms give the witness with nothing walked; the moved copy is
    # walked up to the witness
    for path, counts in ((dup, ("forms", 0)), (write_moved(dup), ("walk", 10))):
        code, out, _ = run(capsys, "verify-arc", str(path), "--k", "2", "--json")
        assert code == 1
        report = json.loads(out)
        assert report["ok"] is False and report["witness"] == [0, 10]
        assert (report["decided_by"], report["subsets_walked"]) == counts


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


def write_documents(capsys, tmp_path):
    """The subspaces, forms, lambda and word documents of (h, k, q) =
    (2, 2, 5), each written by the command that makes it."""
    arc_path, code_path = write_arc(capsys, tmp_path), write_code(capsys, tmp_path)
    msg = tmp_path / "msg.txt"
    msg.write_text("1\n2\n0\n3\n")
    paths = {}
    for kind, argv in (("subspaces", ["code", "fold", str(code_path)]),
                       ("forms", ["quadrics", "through", str(arc_path)]),
                       ("lambda", ["lambda", "--h", "2", "--q", "5"]),
                       ("word", ["code", "encode", str(code_path), str(msg),
                                 "--json"])):
        paths[kind] = tmp_path / ("%s.json" % kind)
        assert run(capsys, *argv, "--out", str(paths[kind]))[0] == 0
        assert json.loads(paths[kind].read_text())["kind"] == kind
    return paths


def test_import_summaries_of_the_other_kinds(capsys, tmp_path):
    paths = write_documents(capsys, tmp_path)
    for kind, summary in (
            ("subspaces", "subspaces: 10 elements of rank [2] in dimension 4"),
            ("forms", "forms: 0 forms in 4 variables"),
            ("lambda", "lambda: 10 representatives for h=2 q=5")):
        assert run(capsys, "import", str(paths[kind])) == (0, summary + "\n", "")
    code, out, err = run(capsys, "import", str(paths["word"]))
    assert (code, out, err) == (2, "", "error: unknown document kind 'word'\n")


def test_import_refuses_a_reordered_lambda_document(capsys, tmp_path):
    path = write_documents(capsys, tmp_path)["lambda"]
    doc = json.loads(path.read_text())
    doc["reps"].reverse()
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "import", str(path))
    assert (code, out) == (2, "")
    assert err == "error: representative list is not the canonical one\n"


def test_export_of_each_document_kind(capsys, tmp_path):
    paths = write_documents(capsys, tmp_path)
    again = tmp_path / "again.json"
    code, _, _ = run(capsys, "export", str(paths["subspaces"]), "--out", str(again))
    assert code == 0 and again.read_bytes() == paths["subspaces"].read_bytes()
    for kind in ("lambda", "word"):
        code, out, err = run(capsys, "export", str(paths[kind]))
        assert (code, out) == (2, "")
        assert err == "error: cannot re-export a %r document\n" % kind


def test_import_rejects_repeated_element(capsys, tmp_path):
    arc_path = write_arc(capsys, tmp_path)
    doc = json.loads(arc_path.read_text())
    doc["elements"][3] = doc["elements"][0]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, _, err = run(capsys, "import", str(bad))
    assert code == 2
    assert "repeated element" in err


def test_unknown_tag_kind_is_refused(capsys, tmp_path):
    arc_path = write_arc(capsys, tmp_path)
    doc = json.loads(arc_path.read_text())
    doc["tags"][0] = {"kind": "bogus", "param": 1}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    for command in ("import", "export"):
        code, out, err = run(capsys, command, str(bad))
        assert code == 2 and out == ""
        assert "unknown tag kind 'bogus'" in err


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


@pytest.mark.parametrize("key, bad, message", [
    ("schema_version", True, "'schema_version' must be an integer, found True"),
    ("schema_version", 1.0, "'schema_version' must be an integer, found 1.0"),
    ("kind", ["arc"], "'kind' must be a string, found ['arc']"),
])
def test_envelope_keys_must_be_plain_json_types(capsys, tmp_path, key, bad,
                                                 message):
    arc_path = write_arc(capsys, tmp_path)
    doc = json.loads(arc_path.read_text())
    doc[key] = bad
    arc_path.write_text(json.dumps(doc))
    for argv in (["verify-arc", str(arc_path), "--k", "2"],
                 ["import", str(arc_path)]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == "error: document: %s\n" % message


def test_out_of_range_encoding_names_the_document_and_key(capsys, tmp_path):
    arc_path = write_arc(capsys, tmp_path, q=3)
    doc = json.loads(arc_path.read_text())
    doc["elements"][1][0][2] = 99
    arc_path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify-arc", str(arc_path), "--k", "2")
    assert code == 2 and out == ""
    assert err == ("error: arc document: bad 'elements': encoding 99 out of "
                   "range for GF(3)\n")


def write_doc(capsys, tmp_path, kind):
    """A document of each kind, written by the command that makes it."""
    if kind == "arc":
        return write_arc(capsys, tmp_path)
    if kind == "code":
        return write_code(capsys, tmp_path)
    path = tmp_path / ("%s.json" % kind)
    if kind == "subspaces":
        argv = ["code", "fold", str(write_code(capsys, tmp_path))]
    elif kind == "forms":
        argv = ["quadrics", "through", str(write_arc(capsys, tmp_path))]
    else:
        argv = ["lambda", "--h", "2", "--q", "5"]
    assert run(capsys, *argv, "--out", str(path))[0] == 0
    return path


@pytest.mark.parametrize("kind, missing, mistyped, value", [
    ("arc", "k", "elements", "rows"),
    ("subspaces", "ambient_dim", "level", 0),
    ("code", "omega", "gen", {}),
    ("forms", "n", "forms", 5),
    ("lambda", "reps", "reps", "5 6 7"),
])
def test_missing_or_mistyped_key_is_named(capsys, tmp_path, kind, missing,
                                          mistyped, value):
    path = write_doc(capsys, tmp_path, kind)
    doc = json.loads(path.read_text())
    del doc[missing]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "import", str(bad))
    assert code == 2 and out == ""
    assert err == "error: %s document: missing '%s'\n" % (kind, missing)

    doc = json.loads(path.read_text())
    doc[mistyped] = value
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "import", str(bad))
    assert code == 2 and out == ""
    assert err.startswith("error: %s document: '%s' must be " % (kind, mistyped))


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


def test_code_gen_refuses_k_below_1(capsys):
    for k in ("0", "-1"):
        code, out, err = run(capsys, "code", "gen", "--h", "2", "--k", k, "--q", "4")
        assert code == 2 and out == ""
        assert err == "error: k must be at least 1, got %s\n" % k
    code, _, _ = run(capsys, "code", "gen", "--h", "2", "--k", "1", "--q", "4")
    assert code == 0


def test_code_distance_refuses_a_document_with_k_0(capsys, tmp_path):
    doc = json.loads(write_code(capsys, tmp_path).read_text())
    doc["k"], doc["gen"] = 0, []
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "code", "distance", str(bad))
    assert code == 2 and out == ""
    assert err == "error: k must be at least 1, got 0\n"


def test_rerun_is_byte_identical(capsys):
    first = run(capsys, "construct-arc", "--h", "2", "--k", "2", "--q", "7")
    second = run(capsys, "construct-arc", "--h", "2", "--k", "2", "--q", "7")
    assert first == second
    assert first[0] == 0


def test_construct_arc_below_hk_plus_one_leaves_stderr_empty(capsys):
    # q = 4 < hk + 1 = 7: the family spans all the same, and stderr
    # carries only error messages
    code, out, err = run(capsys, "construct-arc", "--h", "2", "--k", "3",
                         "--q", "4")
    assert code == 0
    assert err == ""
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


def test_code_decode_names_an_out_of_range_line(capsys, tmp_path):
    code_path = write_code(capsys, tmp_path)
    word = tmp_path / "word.txt"
    word.write_text("E\n" * 9 + "99\n")
    code, _, err = run(capsys, "code", "decode", str(code_path), str(word))
    assert code == 2
    assert "'99' is out of range" in err and "GF(25) encodings are 0..24" in err
    assert "one integer or E" not in err


def test_code_decode_refuses_a_word_of_the_wrong_length(capsys, tmp_path):
    # a short file is bad input, not a failed decode, which needs a word
    # of length n (test_code_decode_too_many_erasures)
    code_path = write_code(capsys, tmp_path)
    word = tmp_path / "word.txt"
    word.write_text("E\n0\n1\n")
    code, out, err = run(capsys, "code", "decode", str(code_path), str(word))
    assert (code, out) == (2, "")
    assert err == "error: word file %s: 3 lines, expected 10\n" % word


def test_code_encode_names_the_message_file_and_line(capsys, tmp_path):
    code_path = write_code(capsys, tmp_path)
    msg = tmp_path / "msg.txt"
    code, out, err = run(capsys, "code", "encode", str(code_path), str(msg))
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot read %s" % msg)
    for bad, message in (("-1", "'-1' is out of range, GF(5) encodings are 0..4"),
                         ("x", "one integer per line, got 'x'")):
        msg.write_text("1\n\n%s\n3\n" % bad)
        code, out, err = run(capsys, "code", "encode", str(code_path), str(msg))
        assert (code, out) == (2, "")
        assert err == "error: message file %s, line 3: %s\n" % (msg, message)


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


def test_code_distance_refusal_names_the_geometric_route(capsys, tmp_path):
    code_path = write_code(capsys, tmp_path, extend=True)
    code, out, err = run(capsys, "code", "distance", str(code_path), "--max-words", "10")
    assert (code, out) == (2, "")
    assert "'code fold', then 'verify-arc --k 2'" in err
    folded = tmp_path / "folded.json"
    assert run(capsys, "code", "fold", str(code_path), "--out", str(folded))[0] == 0
    code, out, _ = run(capsys, "verify-arc", str(folded), "--k", "2")
    assert code == 0 and out.startswith("verified: 16 elements")


def test_code_distance_enumerates_the_code_once(capsys, tmp_path, monkeypatch):
    code_path = write_code(capsys, tmp_path)
    calls = []
    enumerate_words = codes._min_weight

    def counted(code):
        calls.append(code)
        return enumerate_words(code)

    monkeypatch.setattr(codes, "_min_weight", counted)
    code, out, _ = run(capsys, "code", "distance", str(code_path))
    assert code == 0 and out.splitlines()[-1] == "mds: true"
    assert len(calls) == 1


def test_code_distance_over_the_default_budget_still_cross_checks(
        capsys, tmp_path, monkeypatch):
    # a default budget below the code's size stands in for a code above
    # 2^20 words: is_mds enumerates nothing by itself there, so its
    # cross-check is against the distance enumerated under --max-words
    code_path = write_code(capsys, tmp_path)
    monkeypatch.setattr(codes, "WORD_BUDGET", 10)
    argv = ["code", "distance", str(code_path), "--max-words", str(2 ** 21)]
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out.splitlines()[-2:] == ["singleton bound: 9", "mds: true"]
    monkeypatch.setattr(codes, "_min_weight", lambda code: code.n - code.k_msg)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert "InvariantError: geometric and metric verdicts disagree" in err


def test_code_fold_feeds_verify_arc(capsys, tmp_path):
    code_path = write_code(capsys, tmp_path, extend=True)
    folded = tmp_path / "folded.json"
    code, _, _ = run(capsys, "code", "fold", str(code_path), "--out", str(folded))
    assert code == 0
    doc = json.loads(folded.read_text())
    assert doc["kind"] == "subspaces" and len(doc["elements"]) == 16
    code, out, _ = run(capsys, "verify-arc", str(folded), "--k", "2")
    assert code == 0 and out.startswith("verified: 16 elements")


@pytest.mark.parametrize("h, k, q, n", [(2, 3, 2, 4), (2, 4, 3, 7), (3, 2, 2, 5)])
def test_code_gen_extend_checks_only_the_final_length(capsys, tmp_path, h, k, q, n):
    # the bare evaluation code has at most k columns here; the extended
    # one is long enough, and MDS
    path = tmp_path / "code.json"
    argv = ["code", "gen", "--h", str(h), "--k", str(k), "--q", str(q), "--extend"]
    assert run(capsys, *argv, "--out", str(path))[0] == 0
    code, out, _ = run(capsys, "code", "distance", str(path))
    assert code == 0
    assert out.splitlines() == ["length: %d" % n, "distance: %d" % (n - k + 1),
                                "singleton bound: %d" % (n - k + 1), "mds: true"]


def test_code_gen_extend_refuses_repeated_columns_like_construct_arc(capsys):
    # h = 1: the derivative column at t is the evaluation column at t
    for command in (["code", "gen"], ["construct-arc"]):
        code, out, err = run(capsys, *command, "--h", "1", "--k", "2", "--q", "5",
                             "--extend")
        assert (code, out) == (2, "")
        assert err == "error: osculating spaces collide with existing elements\n"


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


@pytest.mark.parametrize("kind, key", [("arc", "k"), ("subspaces", "ambient_dim")])
@pytest.mark.parametrize("size, elements", [(0, []), (-1, [[]])])
def test_non_positive_sizes_are_refused(capsys, tmp_path, kind, key, size,
                                        elements):
    # a family in a space of dimension below 1 has no point to carry;
    # read, it used to give forms documents with n = 0, -1 or -2
    doc = {"schema_version": jsonio.SCHEMA_VERSION, "kind": kind,
           "field": jsonio.field_header(tower(5, 1, 2)), key: size,
           "elements": elements}
    doc.update({"tags": []} if kind == "arc" else {"level": "base"})
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    forms = tmp_path / "forms.json"
    commands = [["import", str(path)],
                ["quadrics", "through", str(path), "--out", str(forms)]]
    if kind == "arc":
        commands.append(["verify-arc", str(path), "--k", "2"])
    for argv in commands:
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and not forms.exists()
        assert err == "error: %s document: '%s' must be positive, found %d\n" % (
            kind, key, size)


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


def test_quadrics_certify_ci_names_a_missed_point(capsys, tmp_path):
    # the PG(2, 7) conic and one point off it, against the conic's form
    tow = tower(7, 1, 1)
    f7 = tow.base
    pts = [Subspace(f7, 3, [list(p.coords)]) for p in nrc_points(f7, 3)]
    pts.append(Subspace(f7, 3, [[f7(1), f7(1), f7(3)]]))
    family, forms = tmp_path / "family.json", tmp_path / "forms.json"
    family.write_text(jsonio.dumps(jsonio.subspaces_to_dict(pts, tow)))
    forms.write_text(jsonio.dumps(
        jsonio.forms_to_dict(nrc_quadric_system(f7, 3), tow)))
    code, out, err = run(capsys, "quadrics", "certify-ci", str(family), str(forms))
    assert (code, out, err) == (
        1, "refuted: configuration point missed by a form: 1 1 3\n", "")


def test_quadrics_certify_ci_forms_over_another_field(capsys, tmp_path):
    conic, _ = conic_files(tmp_path)
    f7 = tower(7, 1, 1)
    forms = tmp_path / "forms7.json"
    forms.write_text(jsonio.dumps(
        jsonio.forms_to_dict(nrc_quadric_system(f7.base, 3), f7)))
    code, out, err = run(capsys, "quadrics", "certify-ci", str(conic), str(forms))
    assert code == 2 and out == ""
    assert err == ("error: forms document: level 'base' is GF(7), the "
                   "subspaces are over GF(5)\n")


def test_quadrics_certify_ci_checks_the_space_of_an_empty_system(capsys, tmp_path):
    # with no forms to compare, the document's n and level still name
    # the space: a mismatch is an input error, not an extra zero
    conic, _ = conic_files(tmp_path)
    path = tmp_path / "forms.json"
    cases = [
        (tower(5, 1, 1), "base", 0, [], "'n' must be positive, found 0"),
        (tower(5, 1, 1), "base", -1, [[]], "'n' must be positive, found -1"),
        (tower(5, 1, 1), "base", 4, [],
         "n = 4, the subspaces have ambient dimension 3"),
        (tower(5, 1, 2), "top", 3, [],
         "level 'top' is GF(5^2), the subspaces are over GF(5)"),
    ]
    for tow, level, n, forms, message in cases:
        path.write_text(jsonio.dumps({
            "schema_version": jsonio.SCHEMA_VERSION, "kind": "forms",
            "field": jsonio.field_header(tow), "level": level, "n": n,
            "forms": forms}))
        code, out, err = run(capsys, "quadrics", "certify-ci", str(conic),
                             str(path))
        assert code == 2 and out == ""
        assert err == "error: forms document: %s\n" % message


@pytest.mark.parametrize("kind", ["code", "forms"])
def test_family_commands_refuse_a_code_or_forms_document(capsys, tmp_path, kind):
    _, forms = conic_files(tmp_path)
    path = write_code(capsys, tmp_path) if kind == "code" else forms
    for argv in (["verify-arc", str(path), "--k", "2"],
                 ["quadrics", "through", str(path)],
                 ["quadrics", "certify-ci", str(path), str(forms)]):
        assert run(capsys, *argv) == (
            2, "", "error: expected an arc or subspaces document, found %r\n" % kind)


def test_budgets_must_be_positive(capsys, tmp_path):
    conic, forms = conic_files(tmp_path)
    assert run(capsys, "quadrics", "certify-ci", str(conic), str(forms),
               "--max-points", "0") == (
        2, "", "error: point budget must be positive, got 0\n")
    code_path = write_code(capsys, tmp_path)
    assert run(capsys, "code", "distance", str(code_path), "--max-words", "-3") == (
        2, "", "error: word budget must be positive, got -3\n")


def test_quadrics_certify_ci_json_counts_points_scanned(capsys, tmp_path):
    conic, forms = conic_files(tmp_path)
    code, out, _ = run(capsys, "quadrics", "certify-ci", str(conic), str(forms),
                       "--json")
    assert code == 0 and json.loads(out)["points_scanned"] == 31  # PG(2, 5)
    empty = tmp_path / "empty.json"
    empty.write_text(jsonio.dumps(
        jsonio.forms_to_dict([], tower(5, 1, 1), level="base", n=3)))
    code, out, _ = run(capsys, "quadrics", "certify-ci", str(conic), str(empty),
                       "--json")
    report = json.loads(out)
    assert code == 1 and report["extra"] == [1, 0, 1]
    assert report["points_scanned"] == 2  # (1, 0, 0) is on the conic


def test_short_row_in_a_subspaces_document_is_named(capsys, tmp_path):
    conic, _ = conic_files(tmp_path)
    doc = json.loads(conic.read_text())
    doc["elements"][1] = [[1, 1, 1, 0]]
    conic.write_text(json.dumps(doc))
    code, out, err = run(capsys, "import", str(conic))
    assert code == 2 and out == ""
    assert err == ("error: subspaces document: element 1 has a row of "
                   "length 4, ambient_dim is 3\n")


def test_short_row_in_an_arc_document_is_named(capsys, tmp_path):
    arc_path = write_arc(capsys, tmp_path)
    doc = json.loads(arc_path.read_text())
    doc["elements"][2][1] = doc["elements"][2][1][:3]
    arc_path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify-arc", str(arc_path), "--k", "2")
    assert code == 2 and out == ""
    assert err == ("error: arc document: element 2 has a row of length 3, "
                   "h*k is 4\n")


@pytest.mark.parametrize("kind", ["arc", "subspaces"])
def test_empty_family_is_refused_by_every_reader(capsys, tmp_path, kind):
    # a family with no element fixes no verdict: every reader refuses it
    # alike, so no command passes a file that another refuses
    arc_path = write_arc(capsys, tmp_path)
    forms = tmp_path / "forms.json"
    assert run(capsys, "quadrics", "through", str(arc_path), "--out", str(forms))[0] == 0
    doc = json.loads((arc_path if kind == "arc" else write_moved(arc_path)).read_text())
    doc["elements"] = []
    if kind == "arc":
        doc["tags"] = []
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(doc))
    for argv in (["import", str(path)], ["import", str(path), "--json"],
                 ["export", str(path)], ["verify-arc", str(path), "--k", "2"],
                 ["quadrics", "through", str(path)],
                 ["quadrics", "certify-ci", str(path), str(forms)]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err == ("error: %s document: 'elements' is empty, a family "
                       "needs at least one element\n" % kind), argv


def test_wrong_coefficient_count_in_a_forms_document_is_named(capsys, tmp_path):
    _, forms = conic_files(tmp_path)
    doc = json.loads(forms.read_text())
    doc["forms"].append([1, 0, 2])
    forms.write_text(json.dumps(doc))
    code, out, err = run(capsys, "import", str(forms))
    assert code == 2 and out == ""
    assert err == ("error: forms document: form 1 has 3 coefficients, "
                   "n = 3 needs 6\n")


def test_internal_error_is_not_a_refutation(capsys, tmp_path, monkeypatch):
    conic, forms = conic_files(tmp_path)

    def broken(*args, **kwargs):
        raise InvariantError("rank 2 differs from rank 3")

    monkeypatch.setattr(cli, "is_complete_intersection", broken)
    code, out, err = run(capsys, "quadrics", "certify-ci", str(conic), str(forms))
    assert code == 3 and out == ""
    assert err == "internal error: InvariantError: rank 2 differs from rank 3\n"


def test_key_error_in_a_command_is_internal(capsys, tmp_path, monkeypatch):
    arc_path = write_arc(capsys, tmp_path)

    def broken(*args, **kwargs):
        raise KeyError("walk")

    monkeypatch.setattr(cli, "is_pseudo_arc", broken)
    code, out, err = run(capsys, "verify-arc", str(arc_path), "--k", "2")
    assert code == 3 and out == ""
    assert err == "internal error: KeyError: 'walk'\n"


def test_rank_deficient_element_is_internal(capsys, monkeypatch):
    # a base-field parameter has degree 1: its element has rank 1
    monkeypatch.setattr(pseudoarc, "frobenius_orbit_reps",
                        lambda tow: (tow.top(2),))
    code, out, err = run(capsys, "construct-arc", "--h", "2", "--k", "2",
                         "--q", "5")
    assert code == 3 and out == ""
    assert err == ("internal error: InvariantError: element of rank 1 at "
                   "alpha = 2, expected 2\n")


def test_json_writer_matches_the_stdlib_on_every_document(capsys, tmp_path,
                                                          monkeypatch):
    written = []
    dumps = jsonio.dumps

    def recorded(obj):
        text = dumps(obj)
        written.append((obj, text))
        return text

    monkeypatch.setattr(jsonio, "dumps", recorded)
    arc = write_arc(capsys, tmp_path)
    (tmp_path / "ext").mkdir()
    ext = write_arc(capsys, tmp_path / "ext", extend=True)
    doc = json.loads(arc.read_text())
    doc["elements"][1] = doc["elements"][0]
    planted = tmp_path / "planted.json"
    planted.write_text(json.dumps(doc))
    code_path = write_code(capsys, tmp_path, extend=True)
    msg = tmp_path / "msg.txt"
    msg.write_text("1\n2\n0\n3\n")
    word, lines = tmp_path / "word.json", tmp_path / "word.txt"
    run(capsys, "code", "encode", str(code_path), str(msg), "--out", str(lines))
    kept = lines.read_text().splitlines()
    lines.write_text("".join("E\n" if i < 4 else v + "\n"
                             for i, v in enumerate(kept)))
    erased = tmp_path / "erased.txt"
    erased.write_text("E\n" * (len(kept) - 1) + "0\n")
    conic, forms = conic_files(tmp_path)
    empty = tmp_path / "empty.json"
    empty.write_text(dumps(jsonio.forms_to_dict([], tower(5, 1, 1), level="base",
                                                n=3)))
    fold, through = tmp_path / "fold.json", tmp_path / "through.json"
    commands = [
        ["verify-arc", str(arc), "--k", "2", "--json"],
        ["verify-arc", str(planted), "--k", "2", "--json"],
        ["verify-example", "--json"],
        ["lambda", "--h", "2", "--q", "5", "--json"],
        ["quadrics", "through", str(conic), "--json"],
        ["quadrics", "through", str(ext), "--out", str(through)],
        ["quadrics", "certify-ci", str(conic), str(forms), "--json"],
        ["quadrics", "certify-ci", str(conic), str(empty), "--json"],
        ["code", "encode", str(code_path), str(msg), "--json", "--out", str(word)],
        ["code", "decode", str(code_path), str(lines), "--json"],
        ["code", "decode", str(code_path), str(erased), "--json"],
        ["code", "distance", str(code_path), "--json"],
        ["code", "fold", str(code_path), "--out", str(fold)],
        ["export", str(code_path)],
        ["import", str(fold), "--json"],
    ]
    for argv in commands:
        assert run(capsys, *argv)[0] in (0, 1), argv
    kinds = {obj.get("command", obj.get("kind")) for obj, _ in written}
    assert kinds == {"arc", "verify-arc", "verify-example", "lambda", "forms",
                     "quadrics certify-ci", "code", "word", "message",
                     "code decode", "code distance", "subspaces", "import"}
    for obj, text in written:
        assert text == json.dumps(obj, indent=2, sort_keys=True) + "\n"


def test_missing_file_is_input_error(capsys):
    code, _, err = run(capsys, "verify-arc", "no-such-file.json", "--k", "2")
    assert code == 2 and "cannot read" in err


def test_unknown_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2

