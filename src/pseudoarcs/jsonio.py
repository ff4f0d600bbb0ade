"""JSON document formats for arcs, subspace families, codes, and
quadratic forms.

Every document carries a schema version and a field header (p, e, h
plus both canonical moduli) so that an importing process can refuse
data written against a different field presentation instead of
silently misreading element encodings.  Dumps are deterministic:
sorted keys, two-space indent, trailing newline.
"""

import json
from typing import List, Sequence, Union

from .codes import AdditiveCode, CoordSpec
from .gf import FieldTower, tower
from .projgeo import Subspace
from .pseudoarc import PseudoArc, Tag
from .quadrics import QuadraticForm

SCHEMA_VERSION = 1


class FormatError(ValueError):
    """Malformed or incompatible document."""


def field_header(tow: FieldTower) -> dict:
    return {
        "p": tow.p,
        "e": tow.e,
        "h": tow.h,
        "base_modulus": list(tow.base.modulus),
        "top_modulus": list(tow.top.modulus),
    }


def tower_from_header(header: dict) -> FieldTower:
    """The tower a field header names.  p, e and h must be plain JSON
    integers: ``true`` or ``2.0`` is refused, not read as 1 or 2."""
    if not isinstance(header, dict):
        raise FormatError("bad field header: expected an object")
    for key in ("p", "e", "h"):
        if key not in header:
            raise FormatError("bad field header: missing %r" % key)
        if type(header[key]) is not int:
            raise FormatError("bad field header: %r must be an integer, found %r"
                              % (key, header[key]))
    try:
        tow = tower(header["p"], header["e"], header["h"])
    except ValueError as exc:
        raise FormatError("bad field header: %s" % exc)
    if (list(tow.base.modulus) != header.get("base_modulus")
            or list(tow.top.modulus) != header.get("top_modulus")):
        raise FormatError("field moduli do not match the canonical choice")
    return tow


def _level_field(tow: FieldTower, level: str):
    if level == "base":
        return tow.base
    if level == "top":
        return tow.top
    raise FormatError("unknown level %r" % level)


def _level_name(tow: FieldTower, field) -> str:
    if field is tow.base:
        return "base"
    if field is tow.top:
        return "top"
    raise FormatError("field does not belong to the tower")


def _rows_to_ints(rows) -> List[List[int]]:
    return [[x.val for x in row] for row in rows]


def _rows_from_ints(field, rows) -> List[List]:
    return [[field(v) for v in row] for row in rows]


def _tag_to_dict(tag: Tag) -> dict:
    return {"kind": tag.kind, "param": None if tag.param is None else tag.param.val}


def arc_to_dict(arc: PseudoArc) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "arc",
        "field": field_header(arc.tow),
        "k": arc.k,
        "tags": [_tag_to_dict(t) for t in arc.tags],
        "elements": [_rows_to_ints(el.rows) for el in arc.elements],
    }


def _tag_from_dict(d: dict, tow: FieldTower) -> Tag:
    param = d.get("param")
    if param is None:
        return Tag(d["kind"])
    field = tow.top if d["kind"] == "imaginary" else tow.base
    return Tag(d["kind"], field(param))


def arc_from_dict(d: dict) -> PseudoArc:
    _check_envelope(d, "arc")
    tow = tower_from_header(d["field"])
    k = d["k"]
    n = tow.h * k
    elements = [Subspace(tow.base, n, _rows_from_ints(tow.base, rows))
                for rows in d["elements"]]
    tags = [_tag_from_dict(t, tow) for t in d["tags"]]
    return PseudoArc(tow, k, elements, tags)


def subspaces_to_dict(elements: Sequence[Subspace], tow: FieldTower) -> dict:
    elements = list(elements)
    if not elements:
        raise FormatError("refusing to export an empty family")
    level = _level_name(tow, elements[0].field)
    n = elements[0].ambient_dim
    for el in elements:
        if el.field is not elements[0].field or el.ambient_dim != n:
            raise FormatError("family members live in different spaces")
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "subspaces",
        "field": field_header(tow),
        "level": level,
        "ambient_dim": n,
        "elements": [_rows_to_ints(el.rows) for el in elements],
    }


def subspaces_from_dict(d: dict) -> List[Subspace]:
    _check_envelope(d, "subspaces")
    tow = tower_from_header(d["field"])
    field = _level_field(tow, d["level"])
    n = d["ambient_dim"]
    return [Subspace(field, n, _rows_from_ints(field, rows))
            for rows in d["elements"]]


def _spec_to_dict(spec: CoordSpec) -> dict:
    return {"kind": spec.kind, "param": None if spec.param is None else spec.param.val}


def code_to_dict(code: AdditiveCode) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "code",
        "field": field_header(code.tow),
        "k": code.k_msg,
        "n": code.n,
        "omega": code.omega.val,
        "gen": _rows_to_ints(code.gen),
        "eval_spec": [_spec_to_dict(s) for s in code.eval_spec],
    }


def code_from_dict(d: dict) -> AdditiveCode:
    _check_envelope(d, "code")
    tow = tower_from_header(d["field"])
    if d["omega"] != tow.normal_element().val:
        raise FormatError("serialized omega disagrees with the canonical "
                          "normal element; decode semantics would differ")
    gen = _rows_from_ints(tow.top, d["gen"])
    spec = []
    for s in d["eval_spec"]:
        param = s.get("param")
        if param is None:
            spec.append(CoordSpec(s["kind"]))
        else:
            field = tow.top if s["kind"] == "alpha" else tow.base
            spec.append(CoordSpec(s["kind"], field(param)))
    code = AdditiveCode(tow, d["k"], gen, spec)
    if code.n != d["n"]:
        raise FormatError("length field disagrees with the generator matrix")
    return code


def forms_to_dict(forms: Sequence[QuadraticForm], tow: FieldTower,
                  level: str = None, n: int = None) -> dict:
    """The level and variable count are read off the first form; for an
    empty family (a trivial vanishing space) both must be passed."""
    forms = list(forms)
    if not forms:
        if level is None or n is None:
            raise FormatError("empty form family needs explicit level and n")
    else:
        n = forms[0].n
        level = _level_name(tow, forms[0].field)
        for f in forms:
            if f.field is not forms[0].field or f.n != n:
                raise FormatError("forms live in different spaces")
    _level_field(tow, level)
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "forms",
        "field": field_header(tow),
        "level": level,
        "n": n,
        "forms": [[c.val for c in f.coeffs] for f in forms],
    }


def forms_from_dict(d: dict) -> List[QuadraticForm]:
    _check_envelope(d, "forms")
    tow = tower_from_header(d["field"])
    field = _level_field(tow, d["level"])
    n = d["n"]
    return [QuadraticForm(field, n, [field(v) for v in coeffs])
            for coeffs in d["forms"]]


def _check_envelope(d: dict, expected_kind: str):
    if not isinstance(d, dict):
        raise FormatError("document is not a JSON object")
    if d.get("schema_version") != SCHEMA_VERSION:
        raise FormatError("unsupported schema version %r" % d.get("schema_version"))
    if d.get("kind") != expected_kind:
        raise FormatError("expected a %r document, found %r"
                          % (expected_kind, d.get("kind")))


def document_kind(d: dict) -> str:
    if not isinstance(d, dict) or "kind" not in d:
        raise FormatError("document is not a recognizable artifact")
    if d.get("schema_version") != SCHEMA_VERSION:
        raise FormatError("unsupported schema version %r" % d.get("schema_version"))
    return d["kind"]


def dumps(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def loads(text: Union[str, bytes]) -> dict:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError("not valid JSON: %s" % exc)
