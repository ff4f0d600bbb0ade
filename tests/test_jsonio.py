"""Serialization tests.

Every document kind must survive a dump/parse/rebuild cycle with the
object unchanged, dumps must be byte-deterministic, and incompatible
headers must be refused rather than reinterpreted.
"""

import json
from random import Random

import pytest

from pseudoarcs import jsonio
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


def test_dumps_refuses_what_it_does_not_write():
    for value in [1.5, [1, 2.0], {1: "a"}, {"a": {(1, 2): 3}}, {"a": b"x"},
                  {1, 2}, object(), [FieldElement(GF.get(5, 1), 1)]]:
        with pytest.raises(TypeError):
            jsonio.dumps(value)


def test_dumps_deterministic_and_sorted():
    doc = jsonio.arc_to_dict(small_arc())
    text = jsonio.dumps(doc)
    assert text == jsonio.dumps(json.loads(text))
    assert text.endswith("\n")
    keys = list(json.loads(text).keys())
    assert keys == sorted(keys)

