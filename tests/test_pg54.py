"""Fixture regression tests for the eleven-line family in PG(5, 4).

The companion tables of Frobenius-conjugate rows are transcribed here,
not in the module, and pinned against the derived conjugates; the two
known defects in the circulated tables (the eighth line duplicating the
tenth, and the sixth point's exponent) are asserted in their repaired
form.
"""

import pytest

from pseudoarcs import pg54, pseudoarc
from pseudoarcs.cli import main
from pseudoarcs.codes import fold_columns
from pseudoarcs.gf import tower
from pseudoarcs.pg54 import (fixture_code, fixture_lines, fixture_matrix,
                             fixture_points, fixture_tower, verify_fixture,
                             w_element)
from pseudoarcs.pg54 import _powers, _vector
from pseudoarcs.projgeo import field_reduction
from pseudoarcs.linalg import det

# companion conjugate rows as w-exponents; the row published for the
# sixth point carries the point's own value, so only 7..11 are usable
# as conjugate pins
_PRINTED_CONJUGATES = {
    7: (None, None, None, None, 0, 12),
    8: (0, 13, 2, 5, 11, 3),
    9: (0, 8, 2, 1, 10, 6),
    10: (0, 14, 14, 7, 4, 6),
    11: (0, 4, 8, 9, 12, 6),
}


def conjugate_points(tow):
    """Entrywise Frobenius images of the eleven points."""
    return [[tow.frobenius(x, 1) for x in pt] for pt in fixture_points(tow)]


def test_defining_constants():
    tow = fixture_tower()
    assert tow is tower(2, 2, 2)
    w = w_element(tow)
    e = w ** 5
    assert w ** 4 == w + tow.top.one
    assert e * e == e + tow.top.one
    # encodings pinned for byte-level reproducibility of serialized output
    assert (w.val, e.val) == (6, 11)


def test_full_battery():
    report = verify_fixture()
    assert len(report) == 9
    failing = [name for name, ok, _ in report if not ok]
    assert failing == []


def walk(elements, k):
    """The verdict of the k-subset walk, counts included."""
    return pseudoarc._walk(elements[0].field, k, [el.int_rows for el in elements])


def test_lines_pseudo_arc_walks_the_standard_frame(monkeypatch):
    # the walk tests all C(11, 3) = 165 triples in the fixture frame and,
    # carried to the standard frame in the same order, again; there the
    # lines are the curve family, and is_pseudo_arc decides them by
    # their forms
    families = []

    def recording(elements, k):
        families.append(list(elements))
        return pseudoarc.is_pseudo_arc(elements, k)

    monkeypatch.setattr(pg54, "is_pseudo_arc", recording)
    assert [name for name, ok, _ in verify_fixture() if not ok] == []
    [mapped] = families
    verdict = walk(mapped, 3)
    assert verdict.ok and verdict.walked == 165
    forms = pseudoarc.is_pseudo_arc(mapped, 3)
    assert forms == verdict and forms.decided_by == "forms"
    lines = fixture_lines(fixture_tower())
    plain = walk(lines, 3)
    assert plain == verdict and plain.walked == 165
    assert pseudoarc.is_pseudo_arc(lines, 3) == plain


def test_printed_conjugates_match_derivation():
    tow = fixture_tower()
    conjs = conjugate_points(tow)
    w_pows = _powers(tow)[0]
    for i, exps in _PRINTED_CONJUGATES.items():
        assert _vector(exps, w_pows) == conjs[i - 1], "point %d" % i


def test_sixth_point_repair():
    tow = fixture_tower()
    pts = fixture_points(tow)
    w_pows = _powers(tow)[0]
    # the published conjugate slot holds the point itself; the true
    # conjugate has exponent 9
    assert pts[5] == _vector((None, None, 0, 6, None, None), w_pows)
    assert conjugate_points(tow)[5] == _vector((None, None, 0, 9, None, None), w_pows)


def test_eighth_line_repair():
    tow = fixture_tower()
    lines = fixture_lines(tow)
    pts = fixture_points(tow)
    derived_8 = field_reduction(tow, pts[7])
    derived_10 = field_reduction(tow, pts[9])
    assert lines[7] == derived_8
    assert lines[9] == derived_10
    assert derived_8 != derived_10


def test_matrix_is_invertible():
    tow = fixture_tower()
    assert det(fixture_matrix(tow))


def test_wrong_projectivity_fails_the_checks_it_feeds(monkeypatch, capsys):
    # the fixture matrix with its first two rows swapped: still invertible,
    # but no longer carrying the curve onto the standard one
    rows = list(pg54._MATRIX)
    rows[0], rows[1] = rows[1], rows[0]
    monkeypatch.setattr(pg54, "_MATRIX", tuple(rows))
    assert det(fixture_matrix(fixture_tower()))
    failing = [name for name, ok, _ in verify_fixture() if not ok]
    assert failing == ["curve-bijection", "tangent-lines", "standard-construction"]
    assert main(["verify-example"]) == 1
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == "fixture refuted: first failing check is 'curve-bijection'"


def test_code_columns_fold_to_the_lines():
    tow = fixture_tower()
    code = fixture_code(tow)
    assert (code.n, code.k_msg, code.size) == (11, 3, 4096)
    assert fold_columns(code) == fixture_lines(tow)


def test_points_split_rational_imaginary():
    tow = fixture_tower()
    pts = fixture_points(tow)
    conjs = conjugate_points(tow)
    for i in range(5):
        assert pts[i] == conjs[i]  # rational: fixed by Frobenius
    for i in range(5, 11):
        assert pts[i] != conjs[i]
