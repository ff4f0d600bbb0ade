"""JSON document formats for arcs, subspace families, codes, and
quadratic forms.

Every document carries a schema version and a field header (p, e, h
plus both canonical moduli) so that an importing process can refuse
data written against a different field presentation instead of
silently misreading element encodings.  Dumps are deterministic:
sorted keys, two-space indent, trailing newline, the bytes of
``json.dumps(obj, indent=2, sort_keys=True)``.  A family's rows are an
array of ints of one shape, written by one ``%`` on a template of that
shape rather than one Python call per row.
"""

import json
from itertools import chain
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import List, Sequence, Tuple, Union

from .codes import AdditiveCode, CoordSpec
from .gf import FieldTower, GF, tower
from .projgeo import Subspace
from .pseudoarc import PseudoArc, Tag
from .quadrics import QuadraticForm

SCHEMA_VERSION = 1


class FormatError(ValueError):
    """Malformed or incompatible document."""


_JSON_TYPES = {int: "an integer", list: "a list", str: "a string",
               dict: "an object"}


def required(d: dict, key: str, typ: type, where: str):
    """``d[key]``, which must be present with the JSON type ``typ``:
    int (never a bool), list, str or dict.  Otherwise a FormatError
    names the key, as in "arc document: missing 'k'"."""
    if not isinstance(d, dict):
        raise FormatError("%s: expected an object" % where)
    if key not in d:
        raise FormatError("%s: missing %r" % (where, key))
    value = d[key]
    if type(value) is not typ:
        raise FormatError("%s: %r must be %s, found %r"
                          % (where, key, _JSON_TYPES[typ], value))
    return value


def _required_positive(d: dict, key: str, where: str) -> int:
    """``required(d, key, int, where)``, refused unless at least 1."""
    value = required(d, key, int, where)
    if value < 1:
        raise FormatError("%s: %r must be positive, found %d" % (where, key, value))
    return value


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
    for key in ("p", "e", "h"):
        required(header, key, int, "bad field header")
    try:
        tow = tower(header["p"], header["e"], header["h"])
    except ValueError as exc:
        raise FormatError("bad field header: %s" % exc)
    if (list(tow.base.modulus) != header.get("base_modulus")
            or list(tow.top.modulus) != header.get("top_modulus")):
        raise FormatError("field moduli do not match the canonical choice")
    return tow


def document_tower(d: dict, kind: str) -> FieldTower:
    """The tower named by the field header of a ``kind`` document."""
    return tower_from_header(required(d, "field", dict, "%s document" % kind))


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


def _int_rows(field, rows, where: str, key: str) -> List[List[int]]:
    """Rows of int encodings of ``field``, each entry checked as calling
    the field checks it, but not wrapped.  The TypeError of an entry
    that is not an int encoding or of a row that is not a list, and the
    ValueError of an encoding out of range, become a FormatError naming
    the document and the key."""
    order = field.order
    out = []
    try:
        for row in rows:
            row = list(row)
            for v in row:
                if type(v) is not int or not 0 <= v < order:
                    field(v)
            out.append(row)
    except (TypeError, ValueError) as exc:
        raise FormatError("%s: bad %r: %s" % (where, key, exc)) from None
    return out


def _subspaces_from_ints(field, n: int, elements, where: str,
                         dim: str) -> List[Subspace]:
    """Subspaces of PG(n-1) from lists of int rows, built together by
    ``Subspace.family``.  A row of another length is refused, naming its
    element and ``dim``, the key that fixes n, and so is an empty list:
    every command that reads a family needs one element at least."""
    if not elements:
        raise FormatError("%s: 'elements' is empty, a family needs at least "
                          "one element" % where)
    mats = []
    for pos, rows in enumerate(elements):
        rows = _int_rows(field, rows, where, "elements")
        for row in rows:
            if len(row) != n:
                raise FormatError("%s: element %d has a row of length %d, "
                                  "%s is %d" % (where, pos, len(row), dim, n))
        mats.append(rows)
    return Subspace.family(field, n, mats)


def _provenance_to_dict(prov: Union[Tag, CoordSpec]) -> dict:
    return {"kind": prov.kind, "param": None if prov.param is None else prov.param.val}


def _provenance_from_dict(d: dict, tow: FieldTower, cls, top_kind: str,
                          where: str):
    """A Tag or CoordSpec (``cls``); the parameter of kind ``top_kind``
    is a top element, any other a base element."""
    kind = required(d, "kind", str, where)
    if d.get("param") is None:
        return cls(kind)
    field = tow.top if kind == top_kind else tow.base
    return cls(kind, field(required(d, "param", int, where)))


def arc_to_dict(arc: PseudoArc) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "arc",
        "field": field_header(arc.tow),
        "k": arc.k,
        "tags": [_provenance_to_dict(t) for t in arc.tags],
        "elements": [[list(r) for r in el.int_rows] for el in arc.elements],
    }


def arc_elements_from_dict(d: dict) -> Tuple[FieldTower, int, List[Subspace]]:
    """The tower, k and elements of an arc document, read without the
    arc constructor's checks: verification must be able to look at
    degenerate input (say, a repeated element) and refute it with a
    witness instead of refusing to load it."""
    where = "arc document"
    _check_envelope(d, "arc")
    tow = document_tower(d, "arc")
    k = _required_positive(d, "k", where)
    elements = _subspaces_from_ints(tow.base, tow.h * k,
                                    required(d, "elements", list, where),
                                    where, "h*k")
    return tow, k, elements


def arc_from_dict(d: dict) -> PseudoArc:
    tow, k, elements = arc_elements_from_dict(d)
    tags = [_provenance_from_dict(t, tow, Tag, "imaginary", "arc document tag")
            for t in required(d, "tags", list, "arc document")]
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
        "elements": [[list(r) for r in el.int_rows] for el in elements],
    }


def subspaces_from_dict(d: dict) -> List[Subspace]:
    where = "subspaces document"
    _check_envelope(d, "subspaces")
    tow = document_tower(d, "subspaces")
    field = _level_field(tow, required(d, "level", str, where))
    n = _required_positive(d, "ambient_dim", where)
    return _subspaces_from_ints(field, n, required(d, "elements", list, where),
                                where, "ambient_dim")


def code_to_dict(code: AdditiveCode) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "code",
        "field": field_header(code.tow),
        "k": code.k_msg,
        "n": code.n,
        "omega": code.omega.val,
        "gen": [list(r) for r in code.int_rows],
        "eval_spec": [_provenance_to_dict(s) for s in code.eval_spec],
    }


def code_from_dict(d: dict) -> AdditiveCode:
    where = "code document"
    _check_envelope(d, "code")
    tow = document_tower(d, "code")
    if required(d, "omega", int, where) != tow.normal_element().val:
        raise FormatError("serialized omega disagrees with the canonical "
                          "normal element; decode semantics would differ")
    rows = _int_rows(tow.top, required(d, "gen", list, where), where, "gen")
    spec = [_provenance_from_dict(s, tow, CoordSpec, "alpha",
                                  "code document eval_spec entry")
            for s in required(d, "eval_spec", list, where)]
    code = AdditiveCode.from_ints(tow, required(d, "k", int, where), rows, spec)
    if code.n != required(d, "n", int, where):
        raise FormatError("length field disagrees with the generator matrix")
    return code


def forms_to_dict(forms: Sequence[QuadraticForm], tow: FieldTower,
                  level: str = None, n: int = None) -> dict:
    """The level and variable count are read off the first form, and a
    level or n passed as well must agree with them; for an empty family
    (a trivial vanishing space) both must be passed."""
    forms = list(forms)
    if not forms:
        if level is None or n is None:
            raise FormatError("empty form family needs explicit level and n")
    else:
        given = (level, n)
        level, n = _level_name(tow, forms[0].field), forms[0].n
        if given[0] not in (None, level) or given[1] not in (None, n):
            raise FormatError("level %r and n = %r given, the forms are at "
                              "level %r with n = %d" % (given + (level, n)))
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


def forms_space(d: dict) -> Tuple[GF, int]:
    """The field its level names and the variable count n >= 1 of a
    forms document: the space its forms live in, fixed even when it
    holds none."""
    where = "forms document"
    _check_envelope(d, "forms")
    tow = document_tower(d, "forms")
    field = _level_field(tow, required(d, "level", str, where))
    return field, _required_positive(d, "n", where)


def forms_from_dict(d: dict) -> List[QuadraticForm]:
    where = "forms document"
    field, n = forms_space(d)
    size = n * (n + 1) // 2
    rows = _int_rows(field, required(d, "forms", list, where), where, "forms")
    for pos, coeffs in enumerate(rows):
        if len(coeffs) != size:
            raise FormatError("%s: form %d has %d coefficients, n = %d needs %d"
                              % (where, pos, len(coeffs), n, size))
    return [QuadraticForm(field, n, field.wrap(coeffs)) for coeffs in rows]


def _check_envelope(d: dict, expected_kind: str):
    kind = document_kind(d)
    if kind != expected_kind:
        raise FormatError("expected a %r document, found %r" % (expected_kind, kind))


def document_kind(d: dict) -> str:
    """The ``kind`` of a document of this schema version.  Both keys are
    read as the field header's p, e and h are: ``"schema_version": true``
    or ``1.0`` is refused, not read as 1."""
    version = required(d, "schema_version", int, "document")
    if version != SCHEMA_VERSION:
        raise FormatError("unsupported schema version %d" % version)
    return required(d, "kind", str, "document")


def dumps(obj: dict) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)`` and a newline, byte
    for byte, for objects made of dicts with str keys, lists, tuples,
    strs, ints, booleans and None; any other type is a TypeError.  The
    stdlib takes its pure-Python encoder whenever an indent is set; this
    writer formats a regular array of ints (a list of equal-length rows
    of rows ... of plain ints) and a list of flat records with one key
    set by one ``%`` on a template of the array's shape, so a family
    costs a bounded number of Python calls, not one per row."""
    return _encode(obj, "\n") + "\n"


_ONLY_INT = frozenset((int,))
_ONLY_DICT = frozenset((dict,))
_SEQUENCES = frozenset((list, tuple))
_SCALARS = frozenset((int, str, bool, type(None)))
_LITERALS = {None: "null", True: "true", False: "false"}


def _encode(value, newline: str) -> str:
    """``value`` as JSON, its inner lines starting with ``newline``
    (a newline and the indent of ``value``) plus two spaces."""
    t = type(value)
    if t is int:
        return repr(value)
    if t is str:
        return encode_basestring_ascii(value)
    if value is None or t is bool:
        return _LITERALS[value]
    inner = newline + "  "
    if t is list or t is tuple:
        if not value:
            return "[]"
        types = set(map(type, value))
        if types == _ONLY_INT:
            items = map(repr, value)
        else:
            text = (_int_array(value, newline) if types <= _SEQUENCES
                    else _records(value, newline) if types == _ONLY_DICT
                    else None)
            if text is not None:
                return text
            items = [_encode(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if t is dict:
        if not value:
            return "{}"
        for key in value:
            if type(key) is not str:
                raise TypeError("JSON object keys must be str, found %r" % (key,))
        items = [encode_basestring_ascii(key) + ": " + _encode(value[key], inner)
                 for key in sorted(value)]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    raise TypeError("cannot write %s as JSON" % t.__name__)


def _int_array(value, newline: str):
    """The JSON text of ``value``, a non-empty list of lists or tuples,
    when it is a regular array: at every level the items have one
    nonzero length, and the innermost level holds plain ints only (no
    bool, whose ``%d`` would be ``1``).  Otherwise None."""
    shape = [len(value)]
    level = value
    while True:
        lengths = set(map(len, level))
        if len(lengths) != 1 or 0 in lengths:
            return None
        shape.append(lengths.pop())
        level = list(chain.from_iterable(level))
        types = set(map(type, level))
        if types == _ONLY_INT:
            break
        if not types <= _SEQUENCES:
            return None
    item = "%d"
    for depth in reversed(range(len(shape))):
        outer = newline + "  " * depth
        inner = outer + "  "
        item = "[" + inner + ("," + inner).join([item] * shape[depth]) + outer + "]"
    return item % tuple(level)


def _records(value, newline: str):
    """The JSON text of ``value``, a non-empty list of dicts, when every
    dict has the same non-empty set of str keys and only int, str, bool
    or None values.  Otherwise None."""
    key_sets = set(map(frozenset, value))
    if len(key_sets) != 1:
        return None
    keys, = key_sets
    if not keys or set(map(type, keys)) != {str}:
        return None
    keys = sorted(keys)
    columns = []
    for key in keys:
        column = list(map(itemgetter(key), value))
        if not _SCALARS.issuperset(map(type, column)):
            return None
        columns.append([repr(v) if type(v) is int
                        else encode_basestring_ascii(v) if type(v) is str
                        else _LITERALS[v] for v in column])
    inner = newline + "  "
    field = inner + "  "
    record = ("{" + field + ("," + field).join(
        encode_basestring_ascii(key).replace("%", "%%") + ": %s" for key in keys)
        + inner + "}")
    return ("[" + inner + ("," + inner).join([record] * len(value)) + newline
            + "]") % tuple(chain.from_iterable(zip(*columns)))


def loads(text: Union[str, bytes]) -> dict:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError("not valid JSON: %s" % exc)
