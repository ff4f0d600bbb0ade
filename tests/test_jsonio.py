"""Serialization tests.

Every document kind must survive a dump/parse/rebuild cycle with the
object unchanged, dumps must be byte-deterministic, and incompatible
headers must be refused rather than reinterpreted.
"""

import json
import re
from enum import IntEnum
from random import Random

import pytest

from pseudoarcs import cli, jsonio
from pseudoarcs.codes import (ERASED, encode, erasure_decode,
                              evaluation_code, extend_with_derivatives)
from pseudoarcs.gf import GF, FieldElement, Poly, tower
from pseudoarcs.nrc import frobenius_orbit_reps
from pseudoarcs.projgeo import Subspace, conjugate_rows
from pseudoarcs.pseudoarc import build_imaginary_arc, extend_with_osculating
from pseudoarcs.quadrics import QuadraticForm, nrc_quadric_system, vanishing_space


def small_arc():
    return build_imaginary_arc(tower(5, 1, 2), 2)


def test_field_header_contents():
    tow = tower(2, 2, 2)
    header = jsonio.field_header(tow)
    assert header["p"] == 2 and header["e"] == 2 and header["h"] == 2
    assert header["base_modulus"] == list(tow.base.modulus)
    assert header["top_modulus"] == list(tow.top.modulus)
    assert jsonio.tower_from_header(header) is tower(2, 2, 2)


def test_header_rejects_other_modulus():
    header = jsonio.field_header(tower(2, 2, 2))
    header["top_modulus"] = list(reversed(header["top_modulus"]))
    with pytest.raises(jsonio.FormatError):
        jsonio.tower_from_header(header)


def test_header_rejects_garbage():
    with pytest.raises(jsonio.FormatError):
        jsonio.tower_from_header({"p": 6, "e": 1, "h": 2})


def test_header_fields_must_be_plain_integers():
    good = jsonio.field_header(tower(5, 1, 2))
    for key, bad in [("e", True), ("h", 2.0), ("p", "5"), ("p", None),
                     ("e", False)]:
        header = dict(good, **{key: bad})
        with pytest.raises(jsonio.FormatError, match="'%s' must be an integer" % key):
            jsonio.tower_from_header(header)
    for key in ("p", "e", "h"):
        header = {k: v for k, v in good.items() if k != key}
        with pytest.raises(jsonio.FormatError, match="missing '%s'" % key):
            jsonio.tower_from_header(header)
    with pytest.raises(jsonio.FormatError, match="expected an object"):
        jsonio.tower_from_header([5, 1, 2])


def test_arc_roundtrip():
    arc = small_arc()
    doc = arc.tow, jsonio.arc_to_dict(arc)
    tow, doc = doc
    back = jsonio.arc_from_dict(json.loads(jsonio.dumps(doc)))
    assert back.tow is tow
    assert back.k == arc.k
    assert list(back.elements) == list(arc.elements)
    assert [(t.kind, t.param) for t in back.tags] == \
        [(t.kind, t.param) for t in arc.tags]


def test_extended_arc_roundtrip_keeps_tag_params():
    arc = extend_with_osculating(build_imaginary_arc(tower(7, 1, 2), 2))
    back = jsonio.arc_from_dict(jsonio.arc_to_dict(arc))
    assert list(back.elements) == list(arc.elements)
    for tag in back.tags:
        if tag.kind == "imaginary":
            assert tag.param.field is arc.tow.top
        elif tag.kind == "osculating":
            assert tag.param.field is arc.tow.base
        else:
            assert tag.param is None


def test_subspaces_roundtrip_both_levels():
    tow = tower(5, 1, 2)
    arc = small_arc()
    doc = jsonio.subspaces_to_dict(arc.elements, tow)
    assert doc["level"] == "base" and doc["ambient_dim"] == 4
    assert jsonio.subspaces_from_dict(doc) == list(arc.elements)

    tops = [Subspace(tow.top, 2, conjugate_rows(tow, [tow.top.one, tow.top(a)]))
            for a in (5, 7, 11)]
    doc = jsonio.subspaces_to_dict(tops, tow)
    assert doc["level"] == "top"
    assert jsonio.subspaces_from_dict(doc) == tops


def test_subspaces_reject_mixed_family():
    tow = tower(5, 1, 2)
    a = Subspace(tow.base, 4, [[tow.base.one, tow.base.zero,
                                tow.base.zero, tow.base.zero]])
    b = Subspace(tow.base, 3, [[tow.base.one, tow.base.zero, tow.base.zero]])
    with pytest.raises(jsonio.FormatError):
        jsonio.subspaces_to_dict([a, b], tow)
    with pytest.raises(jsonio.FormatError):
        jsonio.subspaces_to_dict([], tow)


def test_code_roundtrip_and_still_decodes():
    tow = tower(5, 1, 2)
    code = extend_with_derivatives(
        evaluation_code(tow, list(frobenius_orbit_reps(tow)), 2),
        list(tow.base.elements()), include_infty=True)
    back = jsonio.code_from_dict(json.loads(jsonio.dumps(jsonio.code_to_dict(code))))
    assert back.gen == code.gen
    assert back.eval_spec == code.eval_spec
    assert (back.n, back.k_msg) == (code.n, code.k_msg)

    rng = Random(3)
    msg = Poly(tow.base, [tow.base(rng.randrange(5)) for _ in range(4)])
    word = encode(msg, back)
    received = [ERASED] * (back.n - 2) + word[-2:]
    assert erasure_decode(received, back).coeffs == msg.coeffs


def test_code_rejects_foreign_omega():
    code = evaluation_code(tower(5, 1, 2), list(frobenius_orbit_reps(tower(5, 1, 2))), 2)
    doc = jsonio.code_to_dict(code)
    doc["omega"] = (doc["omega"] + 1) % 25
    with pytest.raises(jsonio.FormatError):
        jsonio.code_from_dict(doc)


def test_code_rejects_wrong_length_field():
    code = evaluation_code(tower(5, 1, 2), list(frobenius_orbit_reps(tower(5, 1, 2))), 2)
    doc = jsonio.code_to_dict(code)
    doc["n"] = doc["n"] + 1
    with pytest.raises(jsonio.FormatError):
        jsonio.code_from_dict(doc)


def test_forms_roundtrip():
    tow = tower(7, 1, 1)
    forms = nrc_quadric_system(tow.base, 4)
    doc = jsonio.forms_to_dict(forms, tow)
    assert doc["level"] == "base" and doc["n"] == 4
    back = jsonio.forms_from_dict(json.loads(jsonio.dumps(doc)))
    assert back == forms


def test_empty_forms_need_explicit_shape():
    tow = tower(5, 1, 2)
    with pytest.raises(jsonio.FormatError):
        jsonio.forms_to_dict([], tow)
    doc = jsonio.forms_to_dict([], tow, level="base", n=4)
    assert doc["forms"] == [] and doc["n"] == 4
    assert jsonio.forms_from_dict(doc) == []


def test_forms_refuse_a_level_or_n_they_do_not_have():
    tow = tower(5, 1, 2)
    rng = Random(3)
    forms = [QuadraticForm(tow.base, 3, [tow.base(rng.randrange(5)) for _ in range(6)])
             for _ in range(3)]
    with pytest.raises(jsonio.FormatError, match="'top'.*'base'"):
        jsonio.forms_to_dict(forms, tow, level="top", n=3)
    with pytest.raises(jsonio.FormatError, match="n = 7 given.*n = 3"):
        jsonio.forms_to_dict(forms, tow, level="base", n=7)
    assert (jsonio.forms_to_dict(forms, tow, level="base", n=3)
            == jsonio.forms_to_dict(forms, tow))


def test_empty_forms_matches_vanishing_space_output():
    arc = small_arc()
    forms = vanishing_space(arc.elements)
    doc = jsonio.forms_to_dict(forms, arc.tow, level="base", n=4)
    assert jsonio.forms_from_dict(doc) == forms == []


def test_envelope_rejections():
    arc_doc = jsonio.arc_to_dict(small_arc())
    wrong_kind = dict(arc_doc, kind="code")
    with pytest.raises(jsonio.FormatError):
        jsonio.arc_from_dict(wrong_kind)
    wrong_version = dict(arc_doc, schema_version=99)
    with pytest.raises(jsonio.FormatError):
        jsonio.arc_from_dict(wrong_version)
    with pytest.raises(jsonio.FormatError):
        jsonio.document_kind([1, 2, 3])
    with pytest.raises(jsonio.FormatError):
        jsonio.loads("{not json")


def test_envelope_keys_must_be_plain_json_types():
    arc_doc = jsonio.arc_to_dict(small_arc())
    for key, bad, message in [
            ("schema_version", True, "'schema_version' must be an integer, found True"),
            ("schema_version", 1.0, "'schema_version' must be an integer, found 1.0"),
            ("schema_version", "1", "'schema_version' must be an integer"),
            ("kind", ["arc"], "'kind' must be a string, found ['arc']"),
            ("kind", None, "'kind' must be a string")]:
        doc = dict(arc_doc, **{key: bad})
        with pytest.raises(jsonio.FormatError, match="^document: " + re.escape(message)):
            jsonio.arc_from_dict(doc)
    for key in ("schema_version", "kind"):
        doc = {k: v for k, v in arc_doc.items() if k != key}
        with pytest.raises(jsonio.FormatError, match="^document: missing '%s'$" % key):
            jsonio.document_kind(doc)


def out_of_range_docs():
    """(document, its reader, where, key) for each reader of int rows,
    with one encoding of the document set to 99, outside its field."""
    arc = extend_with_osculating(small_arc())
    arc_doc = jsonio.arc_to_dict(arc)
    arc_doc["elements"][3][1][2] = 99
    subs_doc = jsonio.subspaces_to_dict(arc.elements, arc.tow)
    subs_doc["elements"][0][0][0] = 99
    tow = tower(5, 1, 2)
    code_doc = jsonio.code_to_dict(
        evaluation_code(tow, list(frobenius_orbit_reps(tow)), 2))
    code_doc["gen"][1][4] = 99
    forms_doc = jsonio.forms_to_dict(nrc_quadric_system(tower(7, 1, 1).base, 4),
                                     tower(7, 1, 1))
    forms_doc["forms"][-1][0] = 99
    return [(arc_doc, jsonio.arc_from_dict, "arc document", "elements", "GF(5)"),
            (subs_doc, jsonio.subspaces_from_dict, "subspaces document",
             "elements", "GF(5)"),
            (code_doc, jsonio.code_from_dict, "code document", "gen", "GF(5^2)"),
            (forms_doc, jsonio.forms_from_dict, "forms document", "forms", "GF(7)")]


@pytest.mark.parametrize("case", range(4), ids=["arc", "subspaces", "code", "forms"])
def test_out_of_range_encoding_names_the_document_and_key(case):
    doc, reader, where, key, field = out_of_range_docs()[case]
    with pytest.raises(jsonio.FormatError) as info:
        reader(doc)
    assert str(info.value) == ("%s: bad '%s': encoding 99 out of range for %s"
                               % (where, key, field))


def stdlib_dumps(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def test_dumps_matches_the_stdlib_on_edge_values():
    values = [{}, [], (), [[]], [{}], {"a": []}, {"a": {}},
              {"b": [[], {}, [[], [{}]]], "a": {"c": {}}},
              "", "plain", "h\u00e9llo \u2603 \U0001f600", "quote \" slash \\ tab \t\n\x00",
              {"\u00fc": "\u00e9", "a b": 1, "": 2, "Z": 3},
              True, False, None, [True, False, None], [1, True], [0, -1, 10 ** 30],
              (1, 2), [(1, 2), [3]], {"k": (None, "x", [False])}, 0, -7]
    for value in values:
        assert jsonio.dumps(value) == stdlib_dumps(value), value


class Colour(IntEnum):
    RED = 1


def test_dumps_refuses_what_it_does_not_write():
    for value in [1.5, [1, 2.0], {1: "a"}, {"a": {(1, 2): 3}}, {"a": b"x"},
                  {1, 2}, object(), [FieldElement(GF.get(5, 1), 1)],
                  [[1, 2], [3, 4.0]], [[1], [Colour.RED]], [(1.5,), (2.5,)],
                  [{"a": 1.5}], [{"a": 1}, {"a": Colour.RED}], [{"a": 1}, {1: 1}],
                  [{"a": [1]}, {"a": [2.0]}]]:
        with pytest.raises(TypeError):
            jsonio.dumps(value)


def test_dumps_deterministic_and_sorted():
    doc = jsonio.arc_to_dict(small_arc())
    text = jsonio.dumps(doc)
    assert text == jsonio.dumps(json.loads(text))
    assert text.endswith("\n")
    keys = list(json.loads(text).keys())
    assert keys == sorted(keys)


# values an array or record may hold besides plain ints: the stdlib
# writes the first six and this writer refuses the last two
ODD_LEAVES = [True, False, None, "", "50%", "%s%d", 1.5, Colour.RED]


def refused(value):
    """Whether ``value`` holds a float, an int subclass or another type
    the writer refuses."""
    t = type(value)
    if t is list or t is tuple:
        return any(map(refused, value))
    if t is dict:
        return any(map(refused, value.values()))
    return t not in (int, str, bool, type(None))


def random_int(rng):
    return rng.choice([0, 1, -1, 7, 255, 2 ** 16, -10 ** 30, rng.randrange(-999, 999)])


def random_array(rng, shape, odd):
    """An array of ``shape``, each node a list or a tuple; with
    probability ``odd`` a node is cut short (to empty, at most) or a leaf
    is an odd value."""
    if not shape:
        return rng.choice(ODD_LEAVES) if rng.random() < odd else random_int(rng)
    n = rng.randrange(shape[0]) if rng.random() < odd else shape[0]
    items = [random_array(rng, shape[1:], odd) for _ in range(n)]
    return items if rng.random() < 0.5 else tuple(items)


def random_records(rng, odd):
    """A list of records over one key set (possibly empty, keys with
    ``%``); with probability ``odd`` a record loses or gains a key or
    holds an odd or nested value."""
    keys = rng.sample(["kind", "param", "ok", "a%", "%s", "\u00e9", ""], rng.randrange(4))
    scalars = [None, True, False, "x", "%d%%", "t\u00e9\n"]
    records = []
    for _ in range(rng.randrange(1, 5)):
        record = {key: rng.choice(scalars) if rng.random() < 0.3 else random_int(rng)
                  for key in keys}
        if rng.random() < odd:
            change = rng.randrange(4)
            if change == 0 and record:
                del record[rng.choice(sorted(record))]
            elif change == 1:
                record["new"] = 1
            elif change == 2:
                record[rng.choice(keys or ["v"])] = rng.choice(ODD_LEAVES)
            else:
                record[rng.choice(keys or ["v"])] = rng.choice(
                    [[1, 2], {"x": [3]}, [], {}, [[1], [2]]])
        records.append(record)
    return records


def assert_written_as_the_stdlib_writes(value):
    if refused(value):
        with pytest.raises(TypeError):
            jsonio.dumps(value)
    else:
        assert jsonio.dumps(value) == stdlib_dumps(value), value


def test_dumps_matches_the_stdlib_on_random_arrays_and_records():
    rng = Random(30)
    for _ in range(4000):
        if rng.random() < 0.6:
            shape = [rng.randrange(1, 4) for _ in range(rng.randrange(1, 5))]
            value = random_array(rng, shape, rng.choice([0, 0.05, 0.3]))
        else:
            value = random_records(rng, rng.choice([0, 0.2, 0.6]))
        value = rng.choice([value, [value], {"k%s": value}, {"a": {"b": value}},
                            [value, value]])
        assert_written_as_the_stdlib_writes(value)


def test_dumps_matches_the_stdlib_on_every_arcs_grid_document(capsys, tmp_path,
                                                              monkeypatch):
    # every document kind the CLI writes for the families of the arcs
    # workload: the arc, its verdict, its quadrics, its code and the
    # folded code
    written = []
    dumps = jsonio.dumps

    def recorded(obj):
        text = dumps(obj)
        written.append((obj, text))
        return text

    monkeypatch.setattr(jsonio, "dumps", recorded)
    arc, forms = tmp_path / "arc.json", tmp_path / "forms.json"
    code, fold = tmp_path / "code.json", tmp_path / "fold.json"
    for h, k, q in [(2, 2, 7), (2, 2, 9), (2, 2, 11), (2, 2, 13), (2, 2, 16),
                    (2, 3, 7), (2, 3, 8), (3, 2, 7)]:
        for extend in ([], ["--extend"]):
            params = ["--h", str(h), "--k", str(k), "--q", str(q)] + extend
            for argv in [["construct-arc", *params, "--out", str(arc)],
                         ["verify-arc", str(arc), "--k", str(k), "--json"],
                         ["quadrics", "through", str(arc), "--out", str(forms)],
                         ["code", "gen", *params, "--out", str(code)],
                         ["code", "fold", str(code), "--out", str(fold)]]:
                assert cli.main(argv) == 0, argv
    capsys.readouterr()
    assert len(written) == 80
    assert {obj.get("kind", obj.get("command")) for obj, _ in written} == \
        {"arc", "verify-arc", "forms", "code", "subspaces"}
    for obj, text in written:
        assert text == stdlib_dumps(obj)


def family_docs(q):
    """An arc, subspaces, code and forms document whose families grow
    with q."""
    tow = tower(q, 1, 2)
    arc = extend_with_osculating(build_imaginary_arc(tow, 2))
    code = extend_with_derivatives(
        evaluation_code(tow, list(frobenius_orbit_reps(tow)), 2),
        list(tow.base.elements()), include_infty=True)
    return [jsonio.arc_to_dict(arc), jsonio.subspaces_to_dict(arc.elements, tow),
            jsonio.code_to_dict(code),
            jsonio.forms_to_dict(nrc_quadric_system(tow.base, q + 1), tow)]


def test_dumps_calls_encode_once_per_key_not_per_element(monkeypatch):
    # a family is written by one template, however many elements, rows
    # or records it has: one _encode call per dict value, none below
    calls = []
    encode = jsonio._encode

    def counted(value, newline):
        calls.append(value)
        return encode(value, newline)

    monkeypatch.setattr(jsonio, "_encode", counted)
    for q in (3, 5, 11):
        for doc in family_docs(q):
            del calls[:]
            assert jsonio.dumps(doc) == stdlib_dumps(doc)
            assert len(calls) == 1 + len(doc) + len(doc["field"]), doc["kind"]
