"""Curve parametrization, osculating rows, orbit representatives."""

import itertools

import pytest

from pseudoarcs.gf import GF, Poly, tower
from pseudoarcs.linalg import det, rank_ints
from pseudoarcs.nrc import (INFINITY, frobenius_orbit_reps, is_imaginary,
                            mobius, nrc_points, orbit_rep_count, osc_basis,
                            osc_basis_infty, osc_entries, osc_ints, veronese)
from pseudoarcs.projgeo import conjugate_rows


def test_veronese_charts():
    f5 = GF.get(5, 1)
    assert [x.val for x in veronese(f5, 1, 0, 4).coords] == [1, 0, 0, 0]
    pt = veronese(f5, 0, 1, 4)
    assert [x.val for x in pt.coords] == [0, 0, 0, 1]
    assert pt.param is INFINITY
    t = tower(2, 2, 2)
    g = t.top.generator()
    pw = veronese(t.top, 1, g, 6)
    assert list(pw.coords) == [g ** i for i in range(6)]
    assert pw.param == g


def test_veronese_rejects_bad_parameters():
    f5 = GF.get(5, 1)
    with pytest.raises(ValueError):
        veronese(f5, 0, 0, 4)
    with pytest.raises(ValueError):
        veronese(f5, 2, 1, 4)  # not normalized


def test_nrc_point_count_and_arc_property():
    f5 = GF.get(5, 1)
    pts = nrc_points(f5, 4)
    assert len(pts) == 6
    # any 4 of the 6 points are independent: all Vandermonde minors
    for quad in itertools.combinations(pts, 4):
        assert det([list(p.coords) for p in quad])


def test_osc_basis_at_zero_and_formula():
    f7 = GF.get(7, 1)
    rows = osc_basis(f7(0), 2, 5)
    # at t = 0 the Hasse row r is the r-th unit vector
    assert [x.val for x in rows[0]] == [1, 0, 0, 0, 0]
    assert [x.val for x in rows[1]] == [0, 1, 0, 0, 0]
    assert [x.val for x in rows[2]] == [0, 0, 1, 0, 0]
    t = f7(3)
    second = osc_basis(t, 1, 6)[1]
    expect = [0, 1, (2 * 3) % 7, (3 * 9) % 7, (4 * 27) % 7, (5 * 81) % 7]
    assert [x.val for x in second] == expect
    third = osc_basis(t, 2, 6)[2]
    assert [x.val for x in third] == [0, 0, 1, 3 * 3 % 7, 6 * 9 % 7, 10 * 27 % 7]


def test_osc_basis_rows_follow_derivative_rule():
    # entry (r, i) is the coefficient of s^r in (t + s)^i, the r-th
    # Hasse derivative of x^i at t, for orders below and above p
    for fld, vals, orders in ((GF.get(7, 1), (0, 2, 6), (1, 2, 3)),
                              (GF.get(3, 2), (0, 4, 8), (1, 2, 3)),
                              (GF.get(2, 3), (0, 3, 7), (1, 2, 3))):
        for t in map(fld, vals):
            shift = Poly(fld, [t, fld.one])
            for order in orders:
                rows = osc_basis(t, order, 6)
                power = Poly(fld, [fld.one])
                for i in range(6):
                    for r in range(order + 1):
                        assert power.coefficient(r) == rows[r][i]
                    power = power * shift


def test_osc_entries_hold_every_parameter_at_once():
    # entry (r, i) of the rows at ts[e] is [r][i][e], for orders below
    # and above p, and no parameter at all
    for fld in (GF.get(7, 1), GF.get(3, 2), GF.get(2, 3), GF.get(5, 1)):
        ts = list(range(fld.order))
        for order in (0, 1, 2, 3):
            entries = osc_entries(fld, ts, order, 6)
            assert [[[col[e] for col in row] for row in entries] for e in ts] == [
                osc_ints(fld, t, order, 6) for t in ts]
            assert osc_entries(fld, [], order, 6) == [[[]] * 6] * (order + 1)
    with pytest.raises(ValueError, match="order must be below the curve degree"):
        osc_entries(GF.get(7, 1), [1], 3, 4)


def test_osc_basis_rank_exhaustive():
    # orders at and above p: Hasse rows keep full rank in every characteristic
    for p, m in [(2, 1), (2, 2), (3, 1), (5, 1), (7, 1), (3, 2)]:
        f = GF.get(p, m)
        for t in f.elements():
            for order in range(5):
                rows = osc_basis(f(t.val), order, 6)
                assert rank_ints(f, [[x.val for x in r] for r in rows]) == order + 1


def test_osc_basis_infty_pattern():
    f5 = GF.get(5, 1)
    rows = osc_basis_infty(f5, 1, 6)
    expected = [
        [0, 0, 0, 0, 0, 1],
        [0, 0, 0, 0, 1, 0],
    ]
    assert [[x.val for x in r] for r in rows] == expected
    assert osc_ints(f5, INFINITY, 1, 6) == expected
    assert rank_ints(f5, expected) == 2


def test_osc_basis_characteristic_guard():
    # no order is too large for the characteristic; the order must stay
    # below the curve degree
    f4 = GF.get(2, 2)
    assert len(osc_basis(f4(1), 2, 6)) == len(osc_basis_infty(f4, 2, 6)) == 3
    with pytest.raises(ValueError):
        osc_basis(GF.get(7, 1)(1), 3, 4)
    with pytest.raises(ValueError):
        osc_basis_infty(f4, 5, 6)


def test_flag_of_osculating_spaces():
    from pseudoarcs.projgeo import span
    f7 = GF.get(7, 1)
    t = f7(4)
    for order in (1, 2, 3):
        big = span(osc_basis(t, order, 6))
        small = span(osc_basis(t, order - 1, 6))
        assert all(big.contains(r) for r in small.rows)


def test_is_imaginary_f16_over_f4():
    t = tower(2, 2, 2)
    g = t.top.generator()
    assert is_imaginary(g, t)
    assert not is_imaginary(t.top.zero, t)
    assert not is_imaginary(t.top.one, t)
    embedded = {t.lift(a).val for a in t.base.elements()}
    for x in t.top.elements():
        assert is_imaginary(x, t) == (x.val not in embedded)


def test_imaginary_iff_conjugate_rank_full():
    # rank of the stacked Frobenius conjugates of (1, a, a^2, ...) is h
    # exactly for generators of the extension
    for (p, e, h, n) in [(2, 2, 2, 4), (5, 1, 2, 4), (2, 1, 3, 6)]:
        t = tower(p, e, h)
        for a in t.top.elements():
            pt = veronese(t.top, 1, a, n)
            rows = conjugate_rows(t, list(pt.coords))
            full = rank_ints(t.top, [[x.val for x in r] for r in rows]) == h
            assert full == is_imaginary(a, t)


def test_mobius_values():
    assert [mobius(n) for n in range(1, 13)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]
    with pytest.raises(ValueError):
        mobius(0)


def test_orbit_rep_count_formula():
    assert orbit_rep_count(4, 2) == 6
    assert orbit_rep_count(5, 2) == 10
    assert orbit_rep_count(2, 4) == 3
    assert orbit_rep_count(7, 1) == 7
    # prime h shortcut (q^h - q)/h
    for q, h in [(5, 2), (7, 3), (4, 3), (3, 5)]:
        assert orbit_rep_count(q, h) == (q ** h - q) // h


def test_frobenius_orbit_reps_properties():
    for (p, e, h) in [(2, 2, 2), (5, 1, 2), (2, 1, 4), (3, 1, 3)]:
        t = tower(p, e, h)
        reps = frobenius_orbit_reps(t)
        assert len(reps) == orbit_rep_count(t.q, h)
        vals = [r.val for r in reps]
        assert vals == sorted(vals)
        seen = set()
        for r in reps:
            orbit = {r.val}
            y = t.frobenius(r, 1)
            while y != r:
                orbit.add(y.val)
                y = t.frobenius(y, 1)
            assert len(orbit) == h
            assert r.val == min(orbit)
            assert not (orbit & seen), "representatives share an orbit"
            seen |= orbit
            assert is_imaginary(r, t)


def test_frobenius_orbit_reps_match_element_orbits():
    """The walk on encodings against the orbits of FieldElement powers."""
    for (p, e, h) in [(2, 1, 1), (3, 2, 1), (2, 2, 2), (5, 1, 2), (3, 2, 2),
                      (2, 1, 3), (3, 1, 3), (2, 2, 3), (2, 1, 4), (3, 1, 4),
                      (2, 2, 4)]:
        t = tower(p, e, h)
        orbits = {frozenset(x ** (t.q ** i) for i in range(h))
                  for x in t.top.elements()}
        expected = sorted((min(o, key=lambda x: x.val) for o in orbits
                           if len(o) == h), key=lambda x: x.val)
        assert frobenius_orbit_reps(t) == tuple(expected), (p, e, h)


def test_orbit_reps_trivial_extension():
    t = tower(7, 1, 1)
    reps = frobenius_orbit_reps(t)
    assert [r.val for r in reps] == list(range(7))
