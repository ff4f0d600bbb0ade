"""Acceptance gate.

One test per numbered criterion; run with -v to get one pass/fail line
each.  Criterion 5 carries a companion asserting the vanishing
dimensions measured over fields too small for "no quadric".  Criterion
6 carries a companion expected-failure documenting the known
small-field gap at (k, q) = (5, 7), where the vanishing dimension is 7
rather than binom(4, 2) = 6; the other five pairs are asserted hard.
Runtime budgets are design expectations and are not asserted, to keep
the gate robust on slow machines.
"""

import itertools
import math
from random import Random

import pytest

from pseudoarcs.codes import (ERASED, encode, erasure_decode,
                              evaluation_code, extend_with_derivatives,
                              fold_columns, is_mds, min_distance)
from pseudoarcs.gf import Poly, factor_prime_power, tower
from pseudoarcs.linalg import rank_ints
from pseudoarcs.nrc import frobenius_orbit_reps, nrc_points, orbit_rep_count
from pseudoarcs.pg54 import verify_fixture
from pseudoarcs.projgeo import Subspace, block_spread, canonical_spread, spread_membership
from pseudoarcs.pseudoarc import (build_imaginary_arc, contained_in_spread,
                                  extend_with_osculating, is_pseudo_arc,
                                  thas_bound)
from pseudoarcs.quadrics import (QuadraticForm, is_complete_intersection,
                                 nrc_quadric_system, trace_reduce,
                                 vanishing_space)

# (h, k, q) triples for the desk-scale pseudo-arc checks
DESK_TRIPLES = [(2, 2, 5), (2, 2, 7), (2, 3, 7), (3, 2, 7)]


def tower_for(q, h):
    p, e = factor_prime_power(q)
    return tower(p, e, h)


def prime_powers(limit):
    out = []
    for q in range(2, limit + 1):
        try:
            factor_prime_power(q)
        except ValueError:
            continue
        out.append(q)
    return out


def full_code(h, k, q):
    tow = tower_for(q, h)
    return evaluation_code(tow, list(frobenius_orbit_reps(tow)), k)


def point_subspaces(field, pts):
    return [Subspace(field, len(p.coords), [list(p.coords)]) for p in pts]


def test_criterion_01_orbit_counts_match_mobius_formula():
    # exhaustive for h >= 2 while the top field stays within 4096,
    # spot checks along h = 1 where the count is plainly q
    checked = 0
    for h in range(2, 13):
        for q in prime_powers(4096):
            if q ** h > 4096:
                continue
            tow = tower_for(q, h)
            assert len(frobenius_orbit_reps(tow)) == orbit_rep_count(q, h), (h, q)
            checked += 1
    assert checked == 57
    for q in prime_powers(64):
        tow = tower_for(q, 1)
        assert len(frobenius_orbit_reps(tow)) == orbit_rep_count(q, 1) == q
    assert orbit_rep_count(5, 2) == 10
    assert orbit_rep_count(4, 3) == 20


def test_criterion_02_imaginary_families_are_pseudo_arcs():
    for h, k, q in DESK_TRIPLES:
        arc = build_imaginary_arc(tower_for(q, h), k)
        assert len(arc.elements) == orbit_rep_count(q, h), (h, k, q)
        verdict = is_pseudo_arc(arc, k)
        assert verdict.ok, (h, k, q, verdict.witness)


def test_criterion_03_extension_sizes_and_thas_bound():
    for h, k, q in [(2, 2, 5), (2, 2, 7)]:
        arc = extend_with_osculating(build_imaginary_arc(tower_for(q, h), k))
        size = len(arc.elements)
        assert size == orbit_rep_count(q, h) + q + 1, (h, k, q)
        assert is_pseudo_arc(arc, k).ok, (h, k, q)
        assert thas_bound(h, k, q) == q ** h + k - 1  # odd q
        assert size <= thas_bound(h, k, q)
    assert len(extend_with_osculating(
        build_imaginary_arc(tower_for(5, 2), 2)).elements) == 16
    assert len(extend_with_osculating(
        build_imaginary_arc(tower_for(7, 2), 2)).elements) == 29


def test_criterion_04_pg54_fixture_verifies_end_to_end():
    checks = verify_fixture()
    by_name = {name: (ok, detail) for name, ok, detail in checks}
    for required in ("lines-pseudo-arc", "curve-bijection",
                     "standard-construction", "code-parameters"):
        assert required in by_name
    failures = [name for name, ok, _ in checks if not ok]
    assert failures == [], failures
    assert "(11, 4096, 9)" in by_name["code-parameters"][1]


def test_criterion_05_no_quadric_through_the_built_arcs():
    for h, k, q in [(2, 2, 5), (2, 2, 7)]:
        arc = build_imaginary_arc(tower_for(q, h), k)
        assert vanishing_space(arc.elements) == [], (h, k, q)


# the vanishing dimension below the grid of criterion 5, as measured: the
# imaginary arc (h, k, q) lies on quadrics for small q; 0 is "no quadric"
NO_QUADRIC_THRESHOLDS = {(2, 2, 3): 1, (2, 3, 4): 4, (2, 4, 5): 11,
                         (3, 2, 2): 9, (2, 2, 4): 0, (2, 3, 5): 0,
                         (3, 2, 3): 0}


def test_criterion_05_quadrics_through_arcs_over_small_fields():
    arcs = {key: build_imaginary_arc(tower_for(key[2], key[0]), key[1])
            for key in NO_QUADRIC_THRESHOLDS}
    for key, dim in NO_QUADRIC_THRESHOLDS.items():
        assert len(vanishing_space(arcs[key].elements)) == dim, key
    # the osculating spaces of (2, 4, 5) cut the 11 forms down to 5
    extended = extend_with_osculating(arcs[2, 4, 5])
    assert len(vanishing_space(extended.elements)) == 5


def test_criterion_06_nrc_vanishing_dimension_and_system_span():
    for k, q in [(3, 7), (3, 11), (4, 7), (4, 11), (5, 11)]:
        field = tower_for(q, 1).base
        basis = vanishing_space(point_subspaces(field, nrc_points(field, k)))
        expected = math.comb(k - 1, 2)
        assert len(basis) == expected, (k, q)
        system = nrc_quadric_system(field, k)
        assert len(system) == expected
        stacked = [[c.val for c in f.coeffs] for f in basis]
        assert rank_ints(field, stacked) == expected
        assert rank_ints(field, stacked + [[c.val for c in f.coeffs]
                                           for f in system]) == expected


def test_criterion_06_small_field_gap_at_k5_q7():
    # Nearest attainable statement for the remaining pair: at (5, 7)
    # the 8 curve points impose too few conditions and the dimension is
    # 7, one above binom(4, 2); the extra form below vanishes on the
    # curve but is outside the span of the standard system.
    field = tower_for(7, 1).base
    pts = nrc_points(field, 5)
    basis = vanishing_space(point_subspaces(field, pts))
    assert len(basis) == 7
    extra = QuadraticForm.from_pairs(field, 5, {(3, 4): 1, (0, 1): 6})
    assert all(not extra.evaluate(list(p.coords)) for p in pts)
    system = nrc_quadric_system(field, 5)
    assert rank_ints(field, [[c.val for c in f.coeffs]
                             for f in system + [extra]]) == len(system) + 1
    pytest.xfail("dimension at (k, q) = (5, 7) is 7, not binom(4,2) = 6; "
                 "q = 7 < 2k - 1 is below the agreement threshold")


def test_criterion_07_desarguesian_conic_is_complete_intersection():
    tow = tower_for(25, 1)
    top = tow.top
    spread = block_spread(tow, 3)
    subs = [spread.element_through(p.coords) for p in nrc_points(top, 3)]
    assert len(subs) == 26
    conic = QuadraticForm.from_pairs(top, 3, {(0, 2): top.one, (1, 1): top(4)})
    assert all(not conic.evaluate(list(p.coords)) for p in nrc_points(top, 3))
    basis = tow.normal_basis()
    forms = [trace_reduce(conic, tow, basis, alpha) for alpha in basis]
    verdict = is_complete_intersection(subs, forms)
    assert verdict.ok, (verdict.extra, verdict.missed)



@pytest.mark.parametrize("h, k, q", [(2, 4, 5), (3, 3, 3)])
def test_criterion_07_desarguesian_family_is_complete_intersection(h, k, q):
    # ROADMAP item 7 at k >= 4 and at h = 3: the spread elements through
    # the curve points of PG(k - 1, q^h) are cut out exactly by the
    # trace-reduced standard system, every point of PG(hk - 1, q) walked
    tow = tower_for(q, h)
    top = tow.top
    spread = block_spread(tow, k)
    subs = spread.elements_through([p.coords for p in nrc_points(top, k)])
    assert len(subs) == top.order + 1
    basis = tow.normal_basis()
    forms = [trace_reduce(form, tow, basis, alpha)
             for form in nrc_quadric_system(top, k) for alpha in basis]
    verdict = is_complete_intersection(subs, forms)
    assert verdict.ok, (verdict.extra, verdict.missed)
    assert verdict.scanned == (q ** (h * k) - 1) // (q - 1)


def test_criterion_07_desarguesian_vanishing_dimension():
    # ROADMAP item 7: the forms vanishing on the Desarguesian family
    # have dimension h * C(k - 1, 2), the number of trace-reduced
    # standard forms, except at small fields, where the family imposes
    # too few conditions
    def dimension(h, k, q):
        tow = tower_for(q, h)
        family = block_spread(tow, k).elements_through(
            [p.coords for p in nrc_points(tow.top, k)])
        return len(vanishing_space(family))

    for h, k, q in [(2, 3, 5), (2, 3, 7), (2, 4, 5), (3, 3, 3)]:
        assert dimension(h, k, q) == h * math.comb(k - 1, 2), (h, k, q)
    # the observed gaps: 20, not 12, at (2, 5, 4), and 6, not 2, at (2, 3, 2)
    assert dimension(2, 5, 4) == 20
    assert dimension(2, 3, 2) == 6


def test_criterion_08_folded_code_columns_equal_the_arc():
    for h, k, q in DESK_TRIPLES:
        tow = tower_for(q, h)
        folded = fold_columns(full_code(h, k, q))
        arc = build_imaginary_arc(tow, k)
        assert folded == list(arc.elements), (h, k, q)


def test_criterion_09_distance_meets_singleton_with_equality():
    code = full_code(2, 2, 5)
    assert (code.n, code.size) == (10, 625)
    d = min_distance(code)
    assert d == 9 == code.n - code.k_msg + 1
    assert is_mds(code)  # geometric route, cross-checked inside


def test_criterion_10_every_minimal_erasure_pattern_decodes():
    tow = tower_for(5, 2)
    base_code = full_code(2, 2, 5)
    ext_code = extend_with_derivatives(base_code, list(tow.base.elements()),
                                       include_infty=True)
    rng = Random(10)
    for code, patterns in [(base_code, 45), (ext_code, 120)]:
        messages = [Poly(tow.base, [tow.base(rng.randrange(5)) for _ in range(4)])
                    for _ in range(50)]
        words = [encode(m, code) for m in messages]
        survivors_list = list(itertools.combinations(range(code.n), 2))
        assert len(survivors_list) == patterns
        for survivors in survivors_list:
            for m, w in zip(messages, words):
                received = [w[j] if j in survivors else ERASED
                            for j in range(code.n)]
                assert erasure_decode(received, code).coeffs == m.coeffs


def test_criterion_11_not_contained_in_the_canonical_spread():
    tow = tower_for(5, 2)
    arc = build_imaginary_arc(tow, 2)
    spread = canonical_spread(tow, 2)
    for el in arc.elements:
        assert not spread_membership(el, spread)
    verdict = contained_in_spread(fold_columns(full_code(2, 2, 5)), spread)
    assert not verdict.ok
    assert verdict.witness == (0,)
