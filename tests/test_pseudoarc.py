"""Arc construction and verification tests.

Truth is established against independent oracles where possible: rank
computations replace determinants, lifted subspaces are checked to
contain the defining curve points, and spread containment is compared
against per-element membership.
"""

import itertools
import math
import os
import subprocess
import sys
import warnings
from random import Random

import pytest

from pseudoarcs import codes, projgeo, pseudoarc
from pseudoarcs.gf import GF, FieldTower, InvariantError, factor_prime_power, tower
from pseudoarcs.linalg import det, rank_ints
from pseudoarcs.nrc import (frobenius_orbit_reps, nrc_points, orbit_rep_count,
                            osc_ints, veronese)
from pseudoarcs.projgeo import (Subspace, apply_projectivity, block_spread,
                                canonical_spread, field_reduction, intersect,
                                lift_subspace, span, spread_membership)
from pseudoarcs.pseudoarc import (ArcVerdict, PseudoArc, Tag,
                                  build_desarguesian_arc, build_imaginary_arc,
                                  build_osculating_family,
                                  contained_in_spread, extend_with_osculating,
                                  is_pseudo_arc, thas_bound)


def stacked_rank(elements, subset):
    rows = []
    for i in subset:
        rows.extend([x.val for x in r] for r in elements[i].rows)
    return rank_ints(elements[subset[0]].field, rows)


def reference_det(rows):
    """Gaussian elimination on FieldElement entries, column by column."""
    mat = [list(r) for r in rows]
    n = len(mat)
    result = mat[0][0].field.one
    for c in range(n):
        pr = next((i for i in range(c, n) if mat[i][c]), None)
        if pr is None:
            return mat[0][0].field.zero
        if pr != c:
            mat[c], mat[pr] = mat[pr], mat[c]
            result = -result
        pivot = mat[c][c]
        result = result * pivot
        inv = pivot.inverse()
        for i in range(c + 1, n):
            if mat[i][c]:
                f = mat[i][c] * inv
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[c])]
    return result


def reference_verdict(elements, k):
    """Every k-subset in lexicographic order, one determinant each."""
    for subset in itertools.combinations(range(len(elements)), k):
        stacked = []
        for i in subset:
            stacked.extend([list(r) for r in elements[i].rows])
        if not reference_det(stacked):
            return ArcVerdict(False, subset)
    return ArcVerdict(True)


def walk(els, k):
    """The verdict of the k-subset walk on a family, counts included,
    whatever route ``is_pseudo_arc`` takes."""
    return pseudoarc._walk(els[0].field, k, [el.int_rows for el in els])


def walked_tuples(els, k):
    """The walk's verdict on els and every k-tuple it tested, recorded
    through the walk's last level: the candidates up to and including the
    first that fails.  ``is_pseudo_arc`` gives the same verdict and
    witness."""
    tested = []
    last_level = pseudoarc._last_level

    def recording(fld, prefix, cands, basis, free):
        witness, count = last_level(fld, prefix, cands, basis, free)
        tested.extend(prefix + (b,) for b, _ in cands[:count])
        return witness, count

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pseudoarc, "_last_level", recording)
        verdict = walk(els, k)
    assert is_pseudo_arc(els, k) == verdict
    return verdict, tested


def lex_position(witness, size):
    """1-based position of a k-subset among all k-subsets in
    lexicographic order."""
    subsets = itertools.combinations(range(size), len(witness))
    return next(i for i, s in enumerate(subsets, 1) if s == witness)


def assert_plain_walk(els, k):
    """The walk's verdict equals the reference and that of
    ``is_pseudo_arc``, and the walk counts every k-subset on a pseudo-arc
    and the k-subsets up to the witness on a refutation."""
    verdict = walk(els, k)
    assert verdict == reference_verdict(els, k) == is_pseudo_arc(els, k)
    size = len(els)
    assert verdict.walked == (math.comb(size, k) if verdict.ok
                              else lex_position(verdict.witness, size))
    return verdict


def curve_families(p, e, h, k):
    """The imaginary family and its extension."""
    arc = build_imaginary_arc(tower(p, e, h), k)
    return [list(arc.elements), list(extend_with_osculating(arc).elements)]


def moved_family(els, rng):
    """The family moved by a random nonsingular matrix."""
    fld, n = els[0].field, els[0].ambient_dim
    while True:
        m = [[fld(rng.randrange(fld.order)) for _ in range(n)] for _ in range(n)]
        if det(m):
            return [apply_projectivity(m, el) for el in els]


def random_subspace(fld, rank_, n, rng):
    while True:
        rows = [[fld(rng.randrange(fld.order)) for _ in range(n)]
                for _ in range(rank_)]
        sub = Subspace(fld, n, rows)
        if sub.rank == rank_:
            return sub


def random_family(fld, h, k, rng):
    """A few random rank-h subspaces of F^(hk); sometimes an element is
    planted to meet an earlier one, often inside the first k."""
    n = h * k
    els = [random_subspace(fld, h, n, rng) for _ in range(rng.randint(k, k + 3))]
    if rng.random() < 0.6:
        j = rng.randrange(1, len(els))
        i = rng.randrange(j)
        shared = list(els[i].rows[rng.randrange(h)])
        rest = random_subspace(fld, h, n, rng).rows[1:]
        planted = Subspace(fld, n, [shared] + [list(r) for r in rest])
        if planted.rank == h:
            els[j] = planted
    return els


def test_verifier_matches_reference_on_random_families():
    rng = Random(2024)
    outcomes = set()
    for fld in (GF.get(5, 1), GF.get(2, 2), GF.get(3, 2)):
        for h in (1, 2, 3):
            for k in (2, 3, 4):
                for _ in range(6):
                    els = random_family(fld, h, k, rng)
                    expect = reference_verdict(els, k)
                    assert is_pseudo_arc(els, k) == expect
                    if expect.ok:
                        outcomes.add("pass")
                    elif stacked_rank(els, expect.witness[:-1]) < h * (k - 1):
                        outcomes.add("prefix")
                    else:
                        outcomes.add("leaf")
    assert outcomes == {"pass", "prefix", "leaf"}


def test_verifier_matches_reference_on_planted_arcs():
    rng = Random(7)
    arcs = [(build_imaginary_arc(tower(2, 2, 2), 3), 3),
            (build_imaginary_arc(tower(3, 1, 2), 2), 2),
            (extend_with_osculating(build_imaginary_arc(tower(5, 1, 2), 2)), 2),
            (build_imaginary_arc(tower(3, 2, 2), 2), 2),
            (build_imaginary_arc(tower(7, 1, 1), 3), 3),
            (build_imaginary_arc(tower(5, 1, 1), 4), 4)]
    for arc, k in arcs:
        els = list(arc.elements)
        assert is_pseudo_arc(els, k) == reference_verdict(els, k)
        for _ in range(4):
            i, j = sorted(rng.sample(range(len(els)), 2))
            bad = list(els)
            bad[j] = bad[i]
            verdict = is_pseudo_arc(bad, k)
            assert not verdict.ok
            assert verdict == reference_verdict(bad, k)


def test_verifier_matches_reference_on_top_level_points():
    # rank-1 elements over the top field, as build_desarguesian_arc makes
    rng = Random(5)
    for fld in (GF.get(5, 2), GF.get(2, 4)):
        for k in (2, 3, 4):
            for _ in range(5):
                pts = [[fld(rng.randrange(fld.order)) for _ in range(k)]
                       for _ in range(k + 3)]
                if rng.random() < 0.5:
                    a, b = rng.sample(range(len(pts) - 1), 2)
                    c = fld(rng.randrange(1, fld.order))
                    pts[-1] = [x + c * y for x, y in zip(pts[a], pts[b])]
                els = [Subspace(fld, k, [p]) for p in pts if any(p)]
                assert is_pseudo_arc(els, k) == reference_verdict(els, k)


def test_thas_bound_violation_is_an_invariant_error(monkeypatch):
    # on both routes: the family by its forms, its moved copy by the walk
    arc = build_imaginary_arc(tower(5, 1, 2), 2)
    families = {"forms": list(arc.elements),
                "walk": moved_family(list(arc.elements), Random(3))}
    for route, fam in families.items():
        assert is_pseudo_arc(fam, 2).decided_by == route
    monkeypatch.setattr(pseudoarc, "thas_bound", lambda h, k, q: len(arc) - 1)
    for fam in families.values():
        with pytest.raises(InvariantError, match="10 elements verified, above the size bound 9"):
            is_pseudo_arc(fam, 2)
    # the check is a raise, not an assert: it holds under python -O
    script = (
        "from pseudoarcs import InvariantError, pseudoarc, tower\n"
        "arc = pseudoarc.build_imaginary_arc(tower(5, 1, 2), 2)\n"
        "pseudoarc.thas_bound = lambda h, k, q: len(arc) - 1\n"
        "try:\n"
        "    pseudoarc.is_pseudo_arc(arc, 2)\n"
        "except InvariantError as exc:\n"
        "    print(exc)\n")
    src = os.path.dirname(os.path.dirname(pseudoarc.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out == "10 elements verified, above the size bound 9\n"


def truncated(reduce):
    """``reduce`` with the last row of every element dropped: rank-deficient
    elements."""
    def reduced(tow, vals):
        out = reduce(tow, vals)
        elements = out if isinstance(out, list) else [out]
        cut = [Subspace.from_ints(el.field, el.ambient_dim, el.int_rows[:-1])
               for el in elements]
        return cut if isinstance(out, list) else cut[0]
    return reduced


def test_rank_deficient_element_is_an_invariant_error(monkeypatch):
    tow = tower(5, 1, 2)
    # a base-field parameter has degree 1: its element has rank 1
    monkeypatch.setattr(pseudoarc, "frobenius_orbit_reps",
                        lambda tow: (tow.top(2),))
    with pytest.raises(InvariantError, match="element of rank 1 at alpha"):
        build_imaginary_arc(tow, 2)
    spread = canonical_spread(tow, 2)
    monkeypatch.setattr(projgeo, "field_reduction_ints",
                        truncated(projgeo.field_reduction_ints))
    with pytest.raises(InvariantError, match="spread element of rank 1"):
        spread.element_through([tow.top.one, tow.top.zero])
    monkeypatch.setattr(projgeo, "field_reduction_family",
                        truncated(projgeo.field_reduction_family))
    with pytest.raises(InvariantError, match="spread element of rank 1"):
        spread.elements()
    with pytest.raises(InvariantError, match="spread element of rank 1"):
        build_desarguesian_arc([spread.embed_point([tow.top.one, tow.top.zero])],
                               spread)
    # the check is a raise, not an assert: it holds under python -O
    script = (
        "from pseudoarcs import InvariantError, pseudoarc, tower\n"
        "pseudoarc.frobenius_orbit_reps = lambda tow: (tow.top(2),)\n"
        "try:\n"
        "    pseudoarc.build_imaginary_arc(tower(5, 1, 2), 2)\n"
        "except InvariantError as exc:\n"
        "    print(exc)\n")
    src = os.path.dirname(os.path.dirname(pseudoarc.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out == "element of rank 1 at alpha = 2, expected 2\n"


def test_parameter_of_degree_below_h_is_an_invariant_error(monkeypatch):
    # GF(4) in GF(16) and GF(9) in GF(81): degree 2 below h = 4
    for p in (2, 3):
        tow = tower(p, 1, 4)
        top = tow.top
        v = next(v for v in range(top.order)
                 if top.pow(v, p * p) == v and top.pow(v, p) != v)
        monkeypatch.setattr(pseudoarc, "frobenius_orbit_reps",
                            lambda tow: (tow.top(v),))
        with pytest.raises(InvariantError) as exc:
            build_imaginary_arc(tow, 2)
        assert str(exc.value) == "element of rank 2 at alpha = %d, expected 4" % v


def test_minimal_polynomial_outside_the_base_field_is_an_invariant_error(
        monkeypatch):
    tow = tower(5, 1, 2)
    # a wrong embedding: base b to the top element b*x, outside GF(5)
    monkeypatch.setattr(tow, "embed_table", [5 * b for b in range(5)])
    with pytest.raises(InvariantError, match="outside the base field"):
        build_imaginary_arc(tow, 2)


# (p, e, h) with h from 1 to 5: p = 2 with e up to 4, odd p with e = 1, 2
CLOSED_FORM_TOWERS = [
    (2, 1, 1), (2, 4, 1), (3, 1, 1), (3, 2, 1), (7, 1, 1),
    (2, 1, 2), (2, 2, 2), (2, 3, 2), (2, 4, 2), (3, 1, 2), (3, 2, 2),
    (5, 1, 2), (5, 2, 2),
    (2, 1, 3), (2, 2, 3), (2, 3, 3), (3, 1, 3), (3, 2, 3), (5, 1, 3),
    (2, 1, 4), (2, 2, 4), (3, 1, 4), (5, 1, 4),
    (2, 1, 5), (2, 2, 5), (3, 1, 5),
]


def test_imaginary_elements_match_the_field_reduction():
    """Each element read off the minimal polynomial equals the field
    reduction of its curve point, the definition."""
    for (p, e, h), k in itertools.product(CLOSED_FORM_TOWERS, (2, 3, 4)):
        tow = tower(p, e, h)
        arc = build_imaginary_arc(tow, k)
        assert len(arc) == orbit_rep_count(tow.q, h)
        for el, tag in zip(arc.elements, arc.tags):
            ref = field_reduction(tow, veronese(tow.top, 1, tag.param, h * k).coords)
            assert el == ref, (p, e, h, k, tag.param.val)
            assert el.pivots == tuple(range(h))


def test_imaginary_arc_needs_no_normal_coordinates(monkeypatch):
    def refused(self, v):
        raise RuntimeError("normal_ints called")

    expected = {pe: build_imaginary_arc(tower(*pe), 2).elements
                for pe in ((3, 2, 2), (7, 1, 3))}
    monkeypatch.setattr(FieldTower, "normal_ints", refused)
    for pe, elements in expected.items():
        assert build_imaginary_arc(tower(*pe), 2).elements == elements


def test_imaginary_arc_sizes_and_tags():
    tow = tower(5, 1, 2)
    arc = build_imaginary_arc(tow, 2)
    assert len(arc) == orbit_rep_count(5, 2) == 10
    reps = frobenius_orbit_reps(tow)
    assert [t.kind for t in arc.tags] == ["imaginary"] * 10
    assert [t.param for t in arc.tags] == list(reps)

    arc2 = build_imaginary_arc(tower(2, 2, 2), 3)
    assert len(arc2) == orbit_rep_count(4, 2) == 6


def test_imaginary_arc_lifts_contain_conjugate_curve_points():
    tow = tower(5, 1, 2)
    arc = build_imaginary_arc(tow, 2)
    for el, tag in zip(arc.elements, arc.tags):
        lifted = lift_subspace(el, tow)
        pt = veronese(tow.top, 1, tag.param, 4).coords
        conj = [tow.frobenius(x, 1) for x in pt]
        assert lifted.contains(list(pt))
        assert lifted.contains(conj)


def test_small_fields_build_without_warnings():
    # q = 2 is below hk + 1 = 5 and q = 5 is at it; neither is a caveat
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        build_imaginary_arc(tower(2, 1, 2), 2)
        build_imaginary_arc(tower(5, 1, 2), 2)


def test_pairwise_disjoint_elements():
    arc = build_imaginary_arc(tower(2, 2, 2), 3)
    els = arc.elements
    for i in range(len(els)):
        for j in range(i + 1, len(els)):
            assert intersect(els[i], els[j]).rank == 0


def test_extension_sizes_and_tag_order():
    tow = tower(5, 1, 2)
    arc = extend_with_osculating(build_imaginary_arc(tow, 2))
    assert len(arc) == 10 + 5 + 1
    kinds = [t.kind for t in arc.tags]
    assert kinds == ["imaginary"] * 10 + ["osculating"] * 5 + ["osculating-infty"]
    ts = [t.param.val for t in arc.tags[10:15]]
    assert ts == [0, 1, 2, 3, 4]


def test_extended_arcs_verify():
    arc = extend_with_osculating(build_imaginary_arc(tower(5, 1, 2), 2))
    verdict = is_pseudo_arc(arc, 2)
    assert verdict.ok and verdict.witness is None
    # independent oracle on a few subsets: stacked rank must be full
    for subset in [(0, 1), (0, 15), (9, 10), (4, 12)]:
        assert stacked_rank(arc.elements, subset) == 4

    arc2 = extend_with_osculating(build_imaginary_arc(tower(2, 2, 2), 3))
    assert len(arc2) == 6 + 4 + 1
    assert is_pseudo_arc(arc2, 3).ok
    for subset in [(0, 1, 2), (5, 6, 10), (0, 7, 9)]:
        assert stacked_rank(arc2.elements, subset) == 6


# (h, k, qs) with every q below hk + 1; the spanning argument of the
# README has no bound on q
BELOW_HK_PLUS_ONE = [(2, 2, (2, 3)), (2, 3, (2, 3, 4, 5)), (2, 4, (2, 3, 4, 5, 7)),
                     (3, 2, (2, 3, 4, 5)), (3, 3, (2, 3))]
# the imaginary families there with fewer than k elements
VACUOUS = {(2, 2, 2), (2, 3, 2), (2, 4, 2), (2, 4, 3), (3, 3, 2)}


def test_families_span_below_hk_plus_one():
    vacuous = set()
    for h, k, qs in BELOW_HK_PLUS_ONE:
        for q in qs:
            p, e = factor_prime_power(q)
            assert q < h * k + 1
            families = curve_families(p, e, h, k)
            if len(families[0]) < k:
                vacuous.add((h, k, q))
            for els in families:
                verdict = is_pseudo_arc(els, k)
                assert verdict.ok, (h, k, q, len(els))
                if len(els) <= 16:
                    assert verdict == reference_verdict(els, k)
    assert vacuous == VACUOUS


@pytest.mark.parametrize("h, k, q, size", [(3, 2, 4, 25), (4, 2, 3, 22), (3, 3, 4, 25)])
def test_extended_families_with_characteristic_below_h(h, k, q, size):
    # the Hasse rows span the osculating spaces in every characteristic
    p, e = factor_prime_power(q)
    tow = tower(p, e, h)
    arc = extend_with_osculating(build_imaginary_arc(tow, k))
    assert len(arc) == size
    verdict = is_pseudo_arc(arc, k)
    assert verdict.ok and verdict == reference_verdict(list(arc.elements), k)
    code = codes.imaginary_code(tow, k, extend=True)
    assert codes.is_mds(code)
    assert codes.min_distance(code) == size - k + 1
    assert codes.fold_columns(code) == list(arc.elements)


def test_is_pseudo_arc_witness_is_first_failure():
    arc = build_imaginary_arc(tower(5, 1, 2), 2)
    e0, e1 = arc.elements[0], arc.elements[1]
    verdict = is_pseudo_arc([e0, e1, e0], 2)
    assert not verdict.ok
    assert verdict.witness == (0, 2)
    assert stacked_rank([e0, e1, e0], (0, 2)) < 4


def test_is_pseudo_arc_vacuous_cases():
    arc = build_imaginary_arc(tower(5, 1, 2), 2)
    assert is_pseudo_arc([], 2).ok
    assert is_pseudo_arc([arc.elements[0]], 2).ok


def test_is_pseudo_arc_rejects_mixed_shapes():
    tow = tower(5, 1, 2)
    arc = build_imaginary_arc(tow, 2)
    line = span([[tow.base(1), tow.base(0), tow.base(0), tow.base(0)]])
    with pytest.raises(ValueError, match="elements of mixed shape"):
        is_pseudo_arc([arc.elements[0], line], 2)
    with pytest.raises(ValueError, match="ambient dimension 4, k = 1 needs hk = 2"):
        is_pseudo_arc(arc, 1)
    with pytest.raises(ValueError, match="k must be at least 1"):
        is_pseudo_arc([], 0)


def test_projectivity_invariance():
    tow = tower(5, 1, 2)
    arc = extend_with_osculating(build_imaginary_arc(tow, 2))
    rng = Random(11)
    while True:
        m = [[tow.base(rng.randrange(5)) for _ in range(4)] for _ in range(4)]
        if det(m):
            break
    moved = [apply_projectivity(m, el) for el in arc.elements]
    assert is_pseudo_arc(moved, 2).ok


# (p, e, h, k) of curve families small enough to walk against the
# reference: k from 2 to 4, q = 4, 5, 9 and 3 with h = 3
WALK_CASES = [(5, 1, 2, 3), (2, 2, 2, 3), (3, 2, 2, 2), (3, 1, 3, 2),
              (2, 2, 2, 4)]


# the families of the benchmark's arcs grid, (h, k, q) in (2,2,7..16),
# (2,3,7|8) and (3,2,7), as (p, e, h, k)
ARCS_GRID_CASES = [(7, 1, 2, 2), (3, 2, 2, 2), (11, 1, 2, 2), (13, 1, 2, 2),
                   (2, 4, 2, 2), (7, 1, 2, 3), (2, 3, 2, 3), (7, 1, 3, 2)]


# (h, k, q) of the Desarguesian families: the spread elements through the
# curve points of PG(k - 1, q^h), which have no binary forms
DESARGUESIAN_CASES = [(2, 3, 4), (2, 3, 5), (3, 3, 2)]


def test_walk_matches_reference_on_desarguesian_families():
    # each family as built, with one element dropped, with a later
    # element replaced by an earlier one, and moved by a projectivity
    rng = Random(67)
    for h, k, q in DESARGUESIAN_CASES:
        tow = tower(*factor_prime_power(q), h)
        els = block_spread(tow, k).elements_through(
            [pt.coords for pt in nrc_points(tow.top, k)])
        drop = rng.randrange(len(els))
        i, j = sorted(rng.sample(range(len(els)), 2))
        for fam in (els, els[:drop] + els[drop + 1:], els[:j] + [els[i]] + els[j + 1:],
                    moved_family(els, rng)):
            verdict = is_pseudo_arc(fam, k)
            assert verdict.decided_by == "walk"
            assert verdict == reference_verdict(fam, k), (h, k, q)


# moved curve families, as moved, with one element dropped and with a
# later element replaced by an earlier one, are all walked; each counts
# C(n, k) subsets when it is a pseudo-arc and the position of the witness
# among them when it is not


def test_orbit_walk_accepts_no_generator_on_moved_families():
    rng = Random(19)
    for case in WALK_CASES:
        for els in curve_families(*case):
            moved = moved_family(els, rng)
            assert is_pseudo_arc(moved, case[3]).decided_by == "walk"
            assert assert_plain_walk(moved, case[3]).ok


def test_orbit_walk_with_one_element_dropped():
    rng = Random(23)
    for case in WALK_CASES:
        for els in curve_families(*case):
            moved = moved_family(els, rng)
            drop = rng.randrange(len(moved))
            rest = moved[:drop] + moved[drop + 1:]
            assert is_pseudo_arc(rest, case[3]).decided_by == "walk"
            assert assert_plain_walk(rest, case[3]).ok


def test_orbit_walk_on_planted_duplicates():
    rng = Random(29)
    for case in WALK_CASES:
        for els in curve_families(*case):
            moved = moved_family(els, rng)
            for _ in range(2):
                i, j = sorted(rng.sample(range(len(moved)), 2))
                bad = moved[:j] + [moved[i]] + moved[j + 1:]
                assert is_pseudo_arc(bad, case[3]).decided_by == "walk"
                assert not assert_plain_walk(bad, case[3]).ok


def test_last_level_rank_test_on_duplicates_at_the_last_index():
    # the last index is reached only at the last level of the walk, so
    # the determinant list of that level is what finds these, as the
    # last candidate of a node; the h = 1 conic points have 1 x 1 blocks
    families = [(list(build_imaginary_arc(tower(7, 1, 1), 3).elements), 3)]
    for case in WALK_CASES:
        families += [(els, case[3]) for els in curve_families(*case)]
    for els, k in families:
        for i in (0, len(els) // 2, len(els) - 2):
            bad = els[:-1] + [els[i]]
            verdict = assert_plain_walk(bad, k)
            assert verdict.witness[-1] == len(els) - 1 and i in verdict.witness


# (p, e, h, k): GF(2^m), GF(p) and GF(p^e) at h = 1, 2 and 3
LAST_LEVEL_CASES = [(2, 3, 1, 3), (7, 1, 1, 3), (3, 2, 1, 3),
                    (2, 2, 2, 2), (5, 1, 2, 2), (3, 2, 2, 2), (2, 2, 2, 3),
                    (2, 2, 3, 2), (3, 1, 3, 2), (3, 2, 3, 2)]


def test_last_level_matches_reference_on_moved_planted_and_clean_families():
    # at most 14 elements each, so the reference stays cheap; the walk
    # counts the subsets up to the witness, the k-tuples the last level
    # tested being those subsets in order, all of them or all but the
    # witness
    rng = Random(37)
    outcomes = set()
    for p, e, h, k in LAST_LEVEL_CASES:
        # for h = 1 the imaginary family is every affine curve point
        for els in (curve_families(p, e, h, k) if h > 1
                    else [list(build_imaginary_arc(tower(p, e, h), k).elements)]):
            els = els[:14]
            families = [els, moved_family(els, rng)]
            for _ in range(2):
                bad = list(els)
                i, j, l = sorted(rng.sample(range(len(els)), 3))
                bad[l] = bad[i]
                if rng.random() < 0.5:
                    bad[j] = bad[i]
                families.append(bad)
            for fam in families:
                verdict, tested = walked_tuples(fam, k)
                assert verdict == reference_verdict(fam, k)
                size = len(fam)
                subsets = list(itertools.combinations(range(size), k))
                if verdict.ok:
                    assert verdict.walked == len(subsets)
                    assert tested == subsets
                    outcomes.add("pass")
                    continue
                position = lex_position(verdict.witness, size)
                assert verdict.walked == position
                if tested and tested[-1] == verdict.witness:
                    assert tested == subsets[:position]
                    outcomes.add("last level")
                else:
                    assert tested == subsets[:position - 1]
                    outcomes.add("prefix")
    assert outcomes == {"pass", "last level", "prefix"}


def poly_mul(a, b):
    """The product of two FieldElement coefficient lists, lowest first."""
    out = [a[0].field.zero] * (len(a) + len(b) - 1)
    for s, x in enumerate(a):
        for t, y in enumerate(b):
            out[s + t] = out[s + t] + x * y
    return out


def poly_rem(a, f):
    """a mod f, FieldElement coefficient lists, lowest first, for an f
    whose last coefficient is nonzero; the remainder has none that is
    zero."""
    inv = f[-1].inverse()
    a = list(a)
    while a and not a[-1]:
        a.pop()
    while len(a) >= len(f):
        c = a[-1] * inv
        shift = len(a) - len(f)
        a = [x - c * f[i - shift] if i >= shift else x for i, x in enumerate(a)][:-1]
        while a and not a[-1]:
            a.pop()
    return a


def poly_gcd(a, b):
    """The monic gcd of two monic FieldElement coefficient lists, by
    Euclid's algorithm."""
    while b:
        a, b = b, poly_rem(a, b)
    inv = a[-1].inverse()
    return [x * inv for x in a]


def form_rows(fld, f, n):
    """The rows of R_f for a monic FieldElement coefficient list f of
    degree h: column j holds the coefficients of x^j mod f."""
    h = len(f) - 1
    cols = []
    for j in range(n):
        rem = poly_rem([fld.zero] * j + [fld.one], f)
        cols.append(rem + [fld.zero] * (h - len(rem)))
    return [list(r) for r in zip(*cols)]


def read_form(el):
    """An element's form as a monic coefficient list, "infinity" for
    R_(y^h), or None, read from its FieldElement rows alone."""
    fld, n, h = el.field, el.ambient_dim, el.rank
    if el.pivots == tuple(range(n - h, n)):
        return "infinity"
    f = [-row[h] for row in el.rows] + [fld.one]
    return f if Subspace(fld, n, form_rows(fld, f, n)) == el else None


def coprime(f, g):
    """Whether two forms read by ``read_form`` are coprime."""
    if "infinity" in (f, g):
        return f != g
    return poly_gcd(f, g) == [f[0].field.one]


def assert_certificate(els, verdict):
    """A forms verdict re-checked by polynomial gcds: every element has a
    form, and the forms are pairwise coprime when the family is accepted,
    while a refuted witness holds two elements whose forms are not."""
    assert verdict.decided_by == "forms" and verdict.walked == 0
    forms = [read_form(el) for el in els]
    assert None not in forms
    pairs = itertools.combinations(verdict.witness or range(len(els)), 2)
    assert all(coprime(forms[i], forms[j]) for i, j in pairs) == verdict.ok


# (p, e, h, k): the arcs grid, the points with characteristic below h,
# (h, k, q) = (3,2,4), (4,2,3) and (3,3,4), and h = 1
FORM_CASES = ARCS_GRID_CASES + [(2, 2, 3, 2), (3, 1, 4, 2), (2, 2, 3, 3),
                                (7, 1, 1, 3), (2, 3, 1, 2), (5, 1, 1, 4)]


def expected_verdict(els, k):
    """The reference verdict where the k-subsets are few, else the walk's,
    itself checked against the reference above."""
    return reference_verdict(els, k) if math.comb(len(els), k) <= 2000 else walk(els, k)


def form_families(p, e, h, k):
    """The imaginary family and its extension, or at h = 1, where the two
    collide, the affine curve points and the whole curve."""
    if h > 1:
        return curve_families(p, e, h, k)
    tow = tower(p, e, h)
    return [list(build_imaginary_arc(tow, k).elements), build_osculating_family(tow, k)]


def test_forms_decide_curve_families_as_the_reference_does():
    # clean families, and planted duplicates: an earlier element copied
    # over a later one and a later over an earlier one
    rng = Random(53)
    for p, e, h, k in FORM_CASES:
        for els in form_families(p, e, h, k):
            verdict = is_pseudo_arc(els, k)
            assert verdict.ok and verdict == expected_verdict(els, k)
            assert_certificate(els, verdict)
            i, j = sorted(rng.sample(range(len(els)), 2))
            for bad in (els[:j] + [els[i]] + els[j + 1:], els[:i] + [els[j]] + els[i + 1:]):
                verdict = is_pseudo_arc(bad, k)
                assert not verdict.ok and verdict == expected_verdict(bad, k)
                assert_certificate(bad, verdict)


def test_a_reducible_form_falls_back_to_the_walk():
    # R_f for f = (x - 1)(x - 2) at h = 2, and (x - 1)(x^2 + 1), x^2 + 1
    # irreducible over GF(3), at h = 3, inserted into extended families:
    # with the osculating elements at the roots of f kept, the pairs with
    # them fail; with them dropped, the family is a pseudo-arc
    outcomes = set()
    for p, e, h, k in [(5, 1, 2, 2), (3, 1, 2, 3), (7, 1, 2, 2), (3, 1, 3, 2)]:
        fld = GF.get(p, e)
        n = h * k
        one = fld.one
        f = poly_mul([-one, one], [-(one + one), one] if h == 2 else [one, fld.zero, one])
        reducible = Subspace(fld, n, form_rows(fld, f, n))
        els = curve_families(p, e, h, k)[1]
        roots = [Subspace(fld, n, [fld.wrap(r) for r in osc_ints(fld, t, h - 1, n)])
                 for t in (1, 2)[:4 - h]]
        for fam in (els[:3] + [reducible] + els[3:],
                    [el for el in els if el not in roots] + [reducible]):
            verdict = is_pseudo_arc(fam, k)
            assert verdict.decided_by == "walk" and verdict == reference_verdict(fam, k)
            outcomes.add(verdict.ok)
    assert outcomes == {True, False}


def test_an_edited_column_is_not_read_as_a_form():
    # one entry after column h of one element changed: the element is
    # still reduced with pivots 0..h-1, but it is no R_f, so the family
    # is walked
    rng = Random(59)
    for p, e, h, k in FORM_CASES:
        if h * k - 1 == h:
            continue
        for els in form_families(p, e, h, k):
            fld, n = els[0].field, els[0].ambient_dim
            i = rng.randrange(len(els) - 1)
            rows = [list(r) for r in els[i].int_rows]
            r, j = rng.randrange(h), rng.randrange(h + 1, n)
            rows[r][j] = (rows[r][j] + rng.randrange(1, fld.order)) % fld.order
            edited = Subspace.from_ints(fld, n, rows)
            assert read_form(edited) is None
            fam = els[:i] + [edited] + els[i + 1:]
            verdict = is_pseudo_arc(fam, k)
            assert verdict.decided_by == "walk" and verdict == walk(fam, k)
            if len(fam) <= 30:
                assert verdict == reference_verdict(fam, k)


def test_moved_copies_are_walked():
    # a projectivity keeps the verdict and witness but leaves no form;
    # at (h, k) = (1, 2) every point of the line is a curve point
    rng = Random(61)
    for p, e, h, k in FORM_CASES[:6] + FORM_CASES[8:]:
        if (h, k) == (1, 2):
            continue
        for els in form_families(p, e, h, k):
            j = rng.randrange(1, len(els))
            for fam in (els, els[:j] + [els[0]] + els[j + 1:]):
                moved = moved_family(fam, rng)
                verdict = is_pseudo_arc(moved, k)
                assert verdict.decided_by == "walk"
                assert verdict == is_pseudo_arc(fam, k)


def test_irreducible_matches_the_products_of_smaller_forms():
    # every monic form of degree h against the set of products of two
    # monic forms of positive degree, one at a time and as one family
    for p, e, h in [(2, 1, 2), (3, 1, 2), (2, 2, 2), (2, 1, 3), (3, 1, 3), (2, 1, 4),
                    (5, 1, 2), (3, 1, 4)]:
        fld = GF.get(p, e)
        q = fld.order

        def monic(d):
            return [list(map(fld, low)) + [fld.one]
                    for low in itertools.product(range(q), repeat=d)]

        reducible = {tuple(c.val for c in poly_mul(a, b)[:-1]) for d in range(1, h // 2 + 1)
                     for a in monic(d) for b in monic(h - d)}
        forms = list(itertools.product(range(q), repeat=h))
        found = [pseudoarc._irreducible(fld, [[c] for c in low]) for low in forms]
        assert found == [low not in reducible for low in forms], (p, e, h)
        assert pseudoarc._irreducible(fld, [list(c) for c in zip(*forms)]) is False
        irreducible = [low for low in forms if low not in reducible]
        assert pseudoarc._irreducible(fld, [list(c) for c in zip(*irreducible)])


def test_block_dets_match_rank_and_det_per_matrix():
    # random h x h matrices, entry-wise lists, up to h = 4; a third of
    # them made singular: a row a combination of the others, or a zero
    # column
    rng = Random(43)
    for fld in (GF.get(2, 1), GF.get(2, 3), GF.get(5, 1), GF.get(3, 2), GF.get(7, 2)):
        for h in (1, 2, 3, 4):
            mats = []
            for trial in range(30):
                m = [[rng.randrange(fld.order) for _ in range(h)] for _ in range(h)]
                if trial % 3 == 1 and h > 1:
                    row = [0] * h
                    for r in m[1:]:
                        row = fld.sub_scaled(row, rng.randrange(1, fld.order), r)
                    m[0] = row
                elif trial % 3 == 2:
                    c = rng.randrange(h)
                    for r in m:
                        r[c] = 0
                mats.append(m)
            block = [[[m[r][c] for m in mats] for c in range(h)] for r in range(h)]
            dets = pseudoarc._block_dets(fld, block)
            assert len(dets) == len(mats)
            for m, d in zip(mats, dets):
                assert (d == 0) == (rank_ints(fld, m) < h)
                assert fld(d) == det([[fld(x) for x in r] for r in m])
            assert 0 in dets and any(dets)


def test_thas_bound_values():
    assert thas_bound(2, 2, 4) == 18
    assert thas_bound(2, 2, 5) == 26
    assert thas_bound(1, 3, 7) == 9
    assert thas_bound(2, 3, 4) == 19


def test_h1_arc_is_classical():
    tow = tower(7, 1, 1)
    arc = build_imaginary_arc(tow, 3)
    assert len(arc) == 7
    assert all(el.rank == 1 for el in arc.elements)
    assert is_pseudo_arc(arc, 3).ok
    # order-0 osculating spaces are the curve points themselves: collision
    with pytest.raises(ValueError):
        extend_with_osculating(arc)


def test_pseudo_arc_constructor_validation():
    tow = tower(5, 1, 2)
    arc = build_imaginary_arc(tow, 2)
    els = list(arc.elements)
    with pytest.raises(ValueError):
        PseudoArc(tow, 2, els, list(arc.tags[:-1]))
    with pytest.raises(ValueError):
        PseudoArc(tow, 2, els + [els[0]], list(arc.tags) + [Tag("imaginary")])
    top_el = lift_subspace(els[0], tow)
    with pytest.raises(ValueError):
        PseudoArc(tow, 2, [top_el], [Tag("imaginary")])


def test_desarguesian_arc_contained_in_its_spread():
    tow = tower(5, 1, 2)
    spread = canonical_spread(tow, 2)
    top = tow.top
    coords = [[top(1), top(0)], [top(0), top(1)], [top(1), top(1)], [top(1), top(2)]]
    points = [spread.embed_point(c) for c in coords]
    arc = build_desarguesian_arc(points, spread)
    assert len(arc) == 4
    assert all(t.kind == "external" for t in arc.tags)
    assert is_pseudo_arc(arc, 2).ok
    verdict = contained_in_spread(arc, spread)
    assert verdict.ok
    for el in arc.elements:
        assert spread_membership(el, spread)


def test_desarguesian_arc_rejects_bad_points():
    tow = tower(5, 1, 2)
    spread = canonical_spread(tow, 2)
    top = tow.top
    outside = [top(1), top(0), top(0), top(0)]
    with pytest.raises(ValueError, match="point 0 does not lie in the director space"):
        build_desarguesian_arc([outside], spread)
    p = spread.embed_point([top(1), top(0)])
    with pytest.raises(ValueError, match=r"point 1 has 3 coordinates, PG\(3, 5\) needs 4"):
        build_desarguesian_arc([p, p[:3]], spread)
    with pytest.raises(ValueError, match=r"point 0 has coordinates outside GF\(5\^2\)"):
        build_desarguesian_arc([[tow.base(1)] * 4], spread)
    with pytest.raises(ValueError, match="point 1 is the zero vector"):
        build_desarguesian_arc([p, [top.zero] * 4], spread)
    p_scaled = [top(2) * x for x in p]
    with pytest.raises(ValueError, match=r"subset \(0, 1\) is degenerate"):
        build_desarguesian_arc([p, p_scaled], spread)
    # k = 3: points 0, 1 and 3 are collinear, the first such triple
    spread3 = canonical_spread(tow, 3)
    coords = [[top(1), top(0), top(0)], [top(0), top(1), top(0)],
              [top(0), top(0), top(1)], [top(1), top(1), top(0)]]
    with pytest.raises(ValueError, match=r"subset \(0, 1, 3\) is degenerate"):
        build_desarguesian_arc([spread3.embed_point(c) for c in coords], spread3)


def test_imaginary_arc_avoids_canonical_spread():
    tow = tower(5, 1, 2)
    arc = build_imaginary_arc(tow, 2)
    spread = canonical_spread(tow, 2)
    for el in arc.elements:
        assert not spread_membership(el, spread)
    verdict = contained_in_spread(arc, spread)
    assert not verdict.ok
    assert verdict.witness == (0,)


def test_verdict_truthiness():
    assert bool(ArcVerdict(True))
    assert not bool(ArcVerdict(False, (1, 2)))
