"""Arc construction and verification tests.

Truth is established against independent oracles where possible: rank
computations replace determinants, lifted subspaces are checked to
contain the defining curve points, and spread containment is compared
against per-element membership.
"""

import functools
import itertools
import math
import os
import subprocess
import sys
import warnings
from collections import Counter
from random import Random

import pytest

from pseudoarcs import codes, pg54, projgeo, pseudoarc
from pseudoarcs.gf import GF, FieldTower, InvariantError, factor_prime_power, tower
from pseudoarcs.linalg import det, rank_ints, rref_ints, vec_mat_ints
from pseudoarcs.nrc import (INFINITY, frobenius_orbit_reps, nrc_points,
                            orbit_rep_count, osc_ints, veronese)
from pseudoarcs.projgeo import (Subspace, ambient_space, apply_projectivity,
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


def curve_projectivity(field, a, b, c, d, length):
    """Int matrix of the curve map t -> (at + b)/(ct + d) on row vectors
    of the given length, for encodings with ad - bc nonzero: the oracle
    for the generator matrices the verifier builds directly.

    Entry [j][i] is the coefficient of t^j in (at + b)^i (ct + d)^(length-1-i),
    so the row v maps to v * M and the curve point of t to a multiple of
    the curve point of its image.
    """
    mul, add = field.mul, field.add
    if mul(a, d) == mul(b, c):
        raise ValueError("ad - bc is zero: not a projectivity")

    def powers(const, lin):
        """Coefficient lists of (lin*t + const)^i for i < length."""
        out = [[1]]
        for _ in range(length - 1):
            prev = out[-1]
            out.append([add(mul(const, u), mul(lin, w))
                        for u, w in zip(prev + [0], [0] + prev)])
        return out

    num, den = powers(b, a), powers(d, c)
    mat = [[0] * length for _ in range(length)]
    for i in range(length):
        for j, u in enumerate(num[i]):
            for l, w in enumerate(den[length - 1 - i]):
                mat[j + l][i] = add(mat[j + l][i], mul(u, w))
    return mat


def curve_generators(fld):
    """(a, b, c, d) of t -> t + 1, t -> xi*t and t -> 1/t."""
    xi = fld.primitive_element().val
    return [(1, 1, 0, 1), (xi, 0, 0, 1), (0, 1, 1, 0)]


def reference_permutations(elements):
    """The curve generators that map the family onto itself, with the
    permutations of the indices they induce, on FieldElements: each
    generator is applied with apply_projectivity and the images are
    compared with the elements as subspaces.  A family with a repeated
    element gets no generator."""
    size = len(elements)
    if len(set(elements)) < size:
        return []
    fld, n = elements[0].field, elements[0].ambient_dim
    position = {el: i for i, el in enumerate(elements)}
    accepted = []
    for gen in curve_generators(fld):
        m = curve_projectivity(fld, *gen, n)
        # apply_projectivity acts on columns, the curve map on rows
        columns = [[fld(m[j][i]) for j in range(n)] for i in range(n)]
        images = [apply_projectivity(columns, el) for el in elements]
        if set(images) == set(elements):
            accepted.append((gen, [position[img] for img in images]))
    return accepted


def curve_permutations(elements):
    """``_curve_permutations`` of a family of subspaces."""
    return pseudoarc._curve_permutations(elements[0].field,
                                         [el.int_rows for el in elements],
                                         [el.pivots for el in elements])


def reference_orbits(elements):
    """The accepted curve generators and the family's number of orbits
    under them."""
    accepted = reference_permutations(elements)
    label = list(range(len(elements)))
    for _, perm in accepted:
        for i, j in enumerate(perm):
            a, b = label[i], label[j]
            label = [min(a, b) if x in (a, b) else x for x in label]
    return [gen for gen, _ in accepted], len(set(label))


def closed_group(perms, size):
    """Every product of the permutations, the identity included."""
    group = {tuple(range(size))}
    frontier = list(group)
    while frontier:
        frontier = [g for g in {tuple(s[x] for x in f) for f in frontier for s in perms}
                    if g not in group]
        group.update(frontier)
    return group


def walk(els, k):
    """The verdict of the k-subset walk on a family, counts included,
    whatever route ``is_pseudo_arc`` takes."""
    return pseudoarc._walk(els[0].field, k, [el.int_rows for el in els],
                           [el.pivots for el in els])


def walked_tuples(els, k):
    """The walk's verdict on els and every k-tuple its walks tested,
    recorded through the last level of the chain walk: the candidates up
    to and including the first that fails.  ``is_pseudo_arc`` gives the
    same verdict and witness."""
    tested = []
    chain_walk = pseudoarc._chain_walk

    def recording(k_, gens, points, split, step, last, rng):
        def record(prefix, cands):
            i = last(prefix, cands)
            tested.extend(prefix + (b,) for b in cands[:None if i is None else i + 1])
            return i
        return chain_walk(k_, gens, points, split, step, record, rng)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pseudoarc, "_chain_walk", recording)
        verdict = walk(els, k)
    assert is_pseudo_arc(els, k) == verdict
    return verdict, tested


def lex_position(witness, size):
    """1-based position of a k-subset among all k-subsets in
    lexicographic order."""
    subsets = itertools.combinations(range(size), len(witness))
    return next(i for i, s in enumerate(subsets, 1) if s == witness)


def assert_orbit_walk(els, k, path):
    """The walk's verdict equals the reference and that of
    ``is_pseudo_arc``, and the walk's counters show the path:
    "reduced" (orbits fewer than elements, fewer tuples walked than the
    subsets through an orbit representative), "full" (every element its
    own orbit, the walk up to the witness or to the end) or "rerun" (the
    walk under the curve group failed, the plain walk supplied the
    witness)."""
    verdict = walk(els, k)
    assert verdict == reference_verdict(els, k) == is_pseudo_arc(els, k)
    size = len(els)
    _, orbits = reference_orbits(els)
    assert verdict.orbits == orbits
    if path == "reduced":
        assert verdict.ok and orbits < size
        assert verdict.walked <= math.comb(size, k) - math.comb(size - orbits, k)
    elif path == "full":
        assert orbits == size
        assert verdict.walked == (math.comb(size, k) if verdict.ok
                                  else lex_position(verdict.witness, size))
    else:
        assert not verdict.ok and orbits < size
        assert verdict.walked > lex_position(verdict.witness, size)
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


ORBIT_CASES = [(5, 1, 2, 3), (2, 2, 2, 3), (3, 2, 2, 2), (3, 1, 3, 2),
               (2, 2, 2, 4)]


# tuples walked on the imaginary family and on its extension
ORBIT_WALKED = {(5, 1, 2, 3): [13, 34], (2, 2, 2, 3): [4, 16], (3, 2, 2, 2): [35, 54],
                (3, 1, 3, 2): [7, 14], (2, 2, 2, 4): [4, 26]}


def test_orbit_walk_on_curve_families():
    for case in ORBIT_CASES:
        assert [assert_orbit_walk(els, case[3], "reduced").walked
                for els in curve_families(*case)] == ORBIT_WALKED[case]
    # k = 4 over GF(8): the imaginary family alone, 20,475 reference subsets
    (els,) = curve_families(2, 3, 2, 4)[:1]
    verdict = assert_orbit_walk(els, 4, "reduced")
    assert (verdict.orbits, verdict.walked) == (1, 275)


def test_orbit_walk_on_large_extended_families():
    # the tuples walked, against the orbits of PGL(2, q) on ordered
    # k-tuples counted by enumerating the group: 371, 774 and 1,714
    for case, walked, tuple_orbits in (((13, 1, 2, 3), 383, 371),
                                       ((17, 1, 2, 3), 754, 774),
                                       ((7, 1, 2, 4), 336, 1714)):
        els = curve_families(*case)[1]
        verdict = walk(els, case[3])
        assert verdict == is_pseudo_arc(els, case[3])
        assert verdict.ok and verdict.orbits == 2
        assert verdict.walked == walked <= 2 * tuple_orbits


def test_last_level_skips_the_stabilizer(monkeypatch):
    # at k = 2 the children of the root form the last level: each tests
    # every later element outside the earlier G-orbits, with no
    # stabilizer drawn and no random generator built
    def refuse(*args):
        raise AssertionError("a stabilizer was drawn for the last level")

    monkeypatch.setattr(pseudoarc, "_stabilizer", refuse)
    monkeypatch.setattr(pseudoarc, "Random", refuse)
    families = [els for case in ORBIT_CASES if case[3] == 2
                for els in curve_families(*case)]
    families.append(curve_families(5, 1, 2, 2)[1])
    for els in families:
        size = len(els)
        perms = [perm for _, perm in reference_permutations(els)]
        orbits, _ = pseudoarc._orbits(perms, list(range(size)))
        expected = sum(len([x for x in range(orbit[0] + 1, size)
                            if all(x not in o for o in orbits[:i])])
                       for i, orbit in enumerate(orbits))
        verdict = walk(els, 2)
        assert verdict == is_pseudo_arc(els, 2)
        assert verdict.ok and verdict.orbits == len(orbits) < size
        assert verdict.walked == expected
    # the extended (2,2,5) family: element 0 with the 15 after it, and
    # element 10, head of the osculating orbit, with the 5 after it
    assert (verdict.orbits, verdict.walked) == (2, 15 + 5)


def test_orbit_walk_covers_every_subset():
    # the accepted permutations closed into the whole group carry the
    # walked tuples onto every k-subset; every stabilizer generator the
    # walk draws fixes its point and lies in the group
    families = [(els, case[3]) for case in ((7, 1, 2, 3), (5, 1, 2, 3), (3, 1, 3, 2))
                for els in curve_families(*case)]
    for els, k in families:
        size = len(els)
        perms = [perm for _, perm in reference_permutations(els)]
        assert perms == curve_permutations(els)
        group = closed_group(perms, size)
        verdict, tested = walked_tuples(els, k)
        assert verdict.ok and len(tested) == verdict.walked < math.comb(size, k)
        covered = {frozenset(g[x] for x in t) for t in tested for g in group}
        assert covered == set(map(frozenset, itertools.combinations(range(size), k)))
        orbits, vec = pseudoarc._orbits(perms, list(range(size)))
        rng = Random(3)
        for b, *_ in orbits:
            for gen in pseudoarc._stabilizer(perms, b, vec, rng):
                assert gen[b] == b and tuple(gen) in group


def test_orbit_walk_accepts_no_generator_on_moved_families():
    rng = Random(19)
    for case in ORBIT_CASES:
        for els in curve_families(*case):
            moved = moved_family(els, rng)
            assert reference_orbits(moved)[0] == []
            assert_orbit_walk(moved, case[3], "full")


def test_orbit_walk_with_one_element_dropped():
    rng = Random(23)
    for case in ORBIT_CASES:
        for els in curve_families(*case):
            drop = rng.randrange(len(els))
            rest = els[:drop] + els[drop + 1:]
            accepted, orbits = reference_orbits(rest)
            verdict = assert_orbit_walk(
                rest, case[3], "reduced" if orbits < len(rest) else "full")
            assert verdict.ok


def test_orbit_walk_drops_the_generator_that_leaves_the_family():
    # h = 1: the affine conic points; t -> 1/t sends 0 to infinity.  All
    # six sifted random words for the stabilizer of point 0 are Schreier-
    # tree words, so the Schreier generators at 0 stand in: t -> xi*t,
    # the whole stabilizer, has one orbit on the other four points, and
    # the walk tests the three triples through 0 and 1
    arc = build_imaginary_arc(tower(5, 1, 1), 3)
    els = list(arc.elements)
    accepted, orbits = reference_orbits(els)
    assert accepted == curve_generators(GF.get(5, 1))[:2] and orbits == 1
    assert assert_orbit_walk(els, 3, "reduced").walked == 3


def test_orbit_walk_refutation_is_rerun_in_full():
    # every point of PG(2, q): three orbits under the conic's group, and
    # collinear triples in every one of them
    for q in (3, 5):
        fld = GF.get(q, 1)
        points = [Subspace(fld, 3, [list(pt)])
                  for pt in ambient_space(fld, 3).points()]
        assert reference_orbits(points)[1] == 3
        assert_orbit_walk(points, 3, "rerun")
    # the chords through conjugate curve points, then the real secants:
    # two secants through one curve point meet, every chord is disjoint
    # from everything, so only a walk through the secants' representative
    # finds a failure
    tow = tower(5, 1, 2)
    chords = list(build_imaginary_arc(tow, 2).elements)
    curve = [list(pt.coords) for pt in nrc_points(tow.base, 4)]
    secants = [span([a, b]) for a, b in itertools.combinations(curve, 2)]
    verdict = assert_orbit_walk(chords + secants, 2, "rerun")
    assert verdict.witness == (10, 11) and verdict.orbits == 2


def test_orbit_walk_on_planted_duplicates():
    rng = Random(29)
    for case in ORBIT_CASES:
        for els in curve_families(*case):
            for _ in range(2):
                i, j = sorted(rng.sample(range(len(els)), 2))
                bad = list(els)
                bad[j] = bad[i]
                assert_orbit_walk(bad, case[3], "full")


# the orbit cases plus a prime field with h = 3, GF(8) and GF(16)
ROW_MAP_CASES = ORBIT_CASES + [(7, 1, 3, 2), (2, 3, 2, 2), (2, 4, 2, 2)]


def reference_image(fld, mat, rows):
    """The reduced rows of a subspace's image under v -> v*M, from the
    plain product and a full reduction."""
    return tuple(map(tuple, rref_ints(fld, [vec_mat_ints(fld, v, mat) for v in rows])[0]))


def pivot_groups(rows):
    """``_pivot_groups`` of every subspace, given by its reduced int
    rows."""
    pivots = [tuple(r.index(1) for r in el) for el in rows]
    return pseudoarc._pivot_groups(pivots, range(len(rows)))


def images(fld, mat, rows):
    """``_images`` over the pivot groups of ``rows``."""
    return pseudoarc._images(fld, mat, rows, pivot_groups(rows))


def test_row_maps_match_the_reference_image():
    rng = Random(31)
    for case in ROW_MAP_CASES:
        for els in curve_families(*case):
            fld, n = els[0].field, els[0].ambient_dim
            while True:
                m = [[fld(rng.randrange(fld.order)) for _ in range(n)]
                     for _ in range(n)]
                if det(m):
                    break
            moved = [apply_projectivity(m, el) for el in els]
            drop = rng.randrange(len(els))
            rest = els[:drop] + els[drop + 1:]
            for family in (els, moved, rest):
                rows = [el.int_rows for el in family]
                for gen in curve_generators(fld):
                    mat = curve_projectivity(fld, *gen, n)
                    assert images(fld, mat, rows) == [
                        reference_image(fld, mat, r) for r in rows]
                perms = curve_permutations(family)
                orbits, _ = pseudoarc._orbits(perms, list(range(len(rows))))
                assert len(orbits) == reference_orbits(family)[1]


# the families of the benchmark's arcs grid, (h, k, q) in (2,2,7..16),
# (2,3,7|8) and (3,2,7), as (p, e, h, k)
ARCS_GRID_CASES = [(7, 1, 2, 2), (3, 2, 2, 2), (11, 1, 2, 2), (13, 1, 2, 2),
                   (2, 4, 2, 2), (7, 1, 2, 3), (2, 3, 2, 3), (7, 1, 3, 2)]


def test_shift_map_matches_the_full_reduction():
    # t -> t + 1 on the arcs grid families, and t -> t + 1 and a random
    # nonsingular matrix on random subspaces of every rank, each imaged
    # alone
    for case in ARCS_GRID_CASES:
        for els in curve_families(*case):
            fld, n = els[0].field, els[0].ambient_dim
            mat = curve_projectivity(fld, 1, 1, 0, 1, n)
            rows = [el.int_rows for el in els]
            assert images(fld, mat, rows) == [reference_image(fld, mat, r) for r in rows]
    rng = Random(37)
    for p, m in [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2), (7, 1)]:
        fld = GF.get(p, m)
        for n in range(1, 7):
            while True:
                other = [[rng.randrange(fld.order) for _ in range(n)]
                         for _ in range(n)]
                if det([fld.wrap(r) for r in other]):
                    break
            for mat in (curve_projectivity(fld, 1, 1, 0, 1, n), other):
                for rank_ in range(n + 1):
                    for _ in range(3):
                        rows = random_subspace(fld, rank_, n, rng).int_rows
                        assert images(fld, mat, [rows]) == [
                            reference_image(fld, mat, rows)]


def random_reduced_rows(fld, pivots, n, rng):
    """The reduced int rows of a random subspace with the given pivot
    columns: 1 at its pivot, 0 at the other pivots and before its own,
    random entries elsewhere."""
    return tuple(tuple(1 if j == c else
                       rng.randrange(fld.order) if j > c and j not in pivots else 0
                       for j in range(n))
                 for c in pivots)


def row_pivots(fld, mat, rows):
    """The pivots, row by row, that ``_images`` takes for a pivot group
    headed by ``rows``: Gauss-Jordan on their product in row order, each
    row's pivot its first nonzero entry."""
    a = [vec_mat_ints(fld, v, mat) for v in rows]
    pivots = []
    for s in range(len(a)):
        c = next(j for j, x in enumerate(a[s]) if x)
        pivots.append(c)
        a[s] = fld.scaled(fld.inv(a[s][c]), a[s])
        a = [r if t == s or not r[c] else fld.sub_scaled(r, r[c], a[s])
             for t, r in enumerate(a)]
    return pivots


def fallback_reason(fld, mat, rows, pivots):
    """Why ``_images`` images a subspace alone when the first member of
    its pivot group takes the pivot columns ``pivots``, row by row: "lead"
    when Gauss-Jordan on the product, in row order on those pivots, meets
    a 0 at a pivot, "before" when a row of its result is nonzero in a
    column before its pivot, and None otherwise."""
    a = [vec_mat_ints(fld, v, mat) for v in rows]
    for s, c in enumerate(pivots):
        if not a[s][c]:
            return "lead"
        a[s] = fld.scaled(fld.inv(a[s][c]), a[s])
        a = [r if t == s or not r[c] else fld.sub_scaled(r, r[c], a[s])
             for t, r in enumerate(a)]
    return "before" if any(any(r[:c]) for r, c in zip(a, pivots)) else None


def test_triangular_images_on_every_pivot_pattern(monkeypatch):
    # on families that mix every pivot pattern of every rank, in random
    # order: random upper triangular matrices with no 1 on the diagonal
    # (but over GF(2), which has no other unit) and the shift and scale
    # maps, which keep every pivot, so no member is imaged alone; then
    # random dense nonsingular,
    # monomial and anti-diagonal matrices, which image alone exactly the
    # members that ``fallback_reason`` names, for both reasons
    singles, _ = count_images(monkeypatch)
    reasons = Counter()
    rng = Random(43)
    for p, m in [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2), (7, 1)]:
        fld = GF.get(p, m)
        xi = fld.primitive_element().val
        units = range(1, fld.order)
        for n in range(1, 7):
            rows = [random_reduced_rows(fld, pivots, n, rng)
                    for rank_ in range(n + 1)
                    for pivots in itertools.combinations(range(n), rank_)
                    for _ in range(2)]
            rng.shuffle(rows)
            groups = pivot_groups(rows)
            diagonal = range(2, fld.order) if fld.order > 2 else [1]
            upper = [[rng.choice(diagonal) if i == j else
                      rng.randrange(fld.order) if i < j else 0
                      for j in range(n)] for i in range(n)]
            while True:
                dense = [[rng.randrange(fld.order) for _ in range(n)] for _ in range(n)]
                if rank_ints(fld, dense) == n:
                    break
            perm = rng.sample(range(n), n)
            monomial = [[rng.choice(units) if j == perm[i] else 0 for j in range(n)]
                        for i in range(n)]
            anti = [[rng.choice(units) if i + j == n - 1 else 0 for j in range(n)]
                    for i in range(n)]
            for mat in (upper, curve_projectivity(fld, 1, 1, 0, 1, n),
                        curve_projectivity(fld, xi, 0, 0, 1, n),
                        dense, monomial, anti):
                singles.clear()
                assert pseudoarc._images(fld, mat, rows, groups) == [
                    reference_image(fld, mat, r) for r in rows], (p, m, n)
                found = Counter(
                    fallback_reason(fld, mat, rows[i], row_pivots(fld, mat, rows[first]))
                    for first, *rest in groups.values() for i in rest)
                if mat in (dense, monomial, anti):
                    reasons += found
                else:
                    assert found[None] == len(rows) - len(groups)
                assert sum(singles.values()) == len(rows) - len(groups) - found[None], \
                    (p, m, n)
    assert reasons["lead"] > 0 and reasons["before"] > 0


def count_images(monkeypatch):
    """Counters, by generator matrix, of the elements imaged one by one
    (``_image``) and of the bulk passes (``_images``)."""
    singles, passes = Counter(), Counter()
    image, images_ = pseudoarc._image, pseudoarc._images

    def counting_image(fld, mat, rows):
        singles[tuple(map(tuple, mat))] += 1
        return image(fld, mat, rows)

    def counting_images(fld, mat, rows, groups):
        passes[tuple(map(tuple, mat))] += 1
        return images_(fld, mat, rows, groups)

    monkeypatch.setattr(pseudoarc, "_image", counting_image)
    monkeypatch.setattr(pseudoarc, "_images", counting_images)
    return singles, passes


def cycle_heads(perm):
    """The smallest point of each cycle of a permutation, ascending."""
    heads, seen = [], set()
    for x in range(len(perm)):
        if x not in seen:
            heads.append(x)
            while x not in seen:
                seen.add(x)
                x = perm[x]
    return heads


def test_image_calls_per_generator(monkeypatch):
    # every generator is accepted on these families.  The shift and
    # scale maps image element 0 alone, then the whole family in one
    # pass; they keep every pivot and image nothing else alone.  The
    # reversal's one pass holds only the heads of the
    # scale map's cycles, 140 of the 1,028 elements of the arcs grid
    # families, and sends 26 of them to ``_image``
    singles, passes = count_images(monkeypatch)
    members = {}
    counting_images = pseudoarc._images

    def recording_images(fld, mat, rows, groups):
        members[tuple(map(tuple, mat))] = sorted(i for g in groups.values() for i in g)
        return counting_images(fld, mat, rows, groups)

    monkeypatch.setattr(pseudoarc, "_images", recording_images)

    def reversal_counts(els):
        fld, n = els[0].field, els[0].ambient_dim
        rows = [el.int_rows for el in els]
        singles.clear()
        passes.clear()
        members.clear()
        assert len(curve_permutations(els)) == 3
        shift, scale, reverse = (tuple(map(tuple, curve_projectivity(fld, *gen, n)))
                                 for gen in curve_generators(fld))
        heads = cycle_heads(reference_permutations(els)[1][1])
        everything = list(range(len(els)))
        assert passes == {shift: 1, scale: 1, reverse: 1}
        assert members == {shift: everything, scale: everything, reverse: heads}
        assert singles[shift] == singles[scale] == 1
        return len(heads), singles[reverse] - 1

    for case in ROW_MAP_CASES:
        for els in curve_families(*case):
            reversal_counts(els)
    counts = [reversal_counts(els) for case in ARCS_GRID_CASES
              for els in curve_families(*case)]
    assert sum(len(els) for case in ARCS_GRID_CASES for els in curve_families(*case)) == 1028
    assert tuple(map(sum, zip(*counts))) == (140, 26)


def test_a_generator_that_moves_the_family_costs_one_image(monkeypatch):
    # element 0 is imaged first, alone: on a moved family each generator
    # is refused after that one image, with no bulk pass
    singles, passes = count_images(monkeypatch)
    rng = Random(41)
    for case in ((13, 1, 2, 2), (2, 4, 2, 2), (7, 1, 2, 3)):
        for els in curve_families(*case):
            fld, n = els[0].field, els[0].ambient_dim
            while True:
                m = [[fld(rng.randrange(fld.order)) for _ in range(n)]
                     for _ in range(n)]
                if det(m):
                    break
            moved = [apply_projectivity(m, el) for el in els]
            singles.clear()
            passes.clear()
            assert curve_permutations(moved) == []
            assert sorted(singles.values()) == [1, 1, 1] and not passes


def list_map_stabilizer(gens, b, vec, rng):
    """``_stabilizer`` as it composed permutations with list(map(...)),
    the reference its generators must match, in order."""
    inverses = [sorted(range(len(s)), key=s.__getitem__) for s in gens]
    identity = list(range(len(gens[0])))
    words, length = pseudoarc.STABILIZER_WORDS, pseudoarc.WORD_LENGTH
    letters = iter(rng.choices(gens, k=words * length))
    out = []
    w = identity
    for _ in range(words):
        for _ in range(length):
            w = list(map(next(letters).__getitem__, w))
        g, x = w, w[b]
        while x != b:
            inv = inverses[vec[x]]
            g = list(map(inv.__getitem__, g))
            x = inv[x]
        if g != identity and g not in out:
            out.append(g)
    return out


def test_stabilizer_matches_the_list_map_version():
    # the arcs grid families and their extensions, and the smallest
    # family with an accepted generator: two conic points that t -> 1/t
    # swaps; at every orbit head, and again one level down
    families = [els for case in ARCS_GRID_CASES for els in curve_families(*case)]
    fld = GF.get(5, 1)
    families.append([Subspace(fld, 3, [fld.wrap(r) for r in osc_ints(fld, t, 0, 3)])
                     for t in (0, INFINITY)])
    compared = 0
    for els in families:
        top = curve_permutations(els)
        levels = [(top, list(range(len(els))))]
        for gens, points in levels:
            orbits, vec = pseudoarc._orbits(gens, points)
            for b, *others in orbits:
                if not others:
                    continue
                sub = pseudoarc._stabilizer(gens, b, vec, Random(b))
                assert [list(g) for g in sub] == list_map_stabilizer(gens, b, vec, Random(b))
                compared += len(sub)
                if sub and len(levels) < 3:
                    levels.append((sub, [x for x in points if x != b]))
    assert top == [[1, 0]] and compared > 100


def test_last_level_rank_test_on_duplicates_at_the_last_index():
    # the last index is reached only at the last level of the walk, so
    # the determinant list of that level is what finds these, as the
    # last head of a node; the h = 1 conic points have 1 x 1 blocks
    families = [(list(build_imaginary_arc(tower(7, 1, 1), 3).elements), 3)]
    for case in ORBIT_CASES:
        families += [(els, case[3]) for els in curve_families(*case)]
    for els, k in families:
        for i in (0, len(els) // 2, len(els) - 2):
            bad = els[:-1] + [els[i]]
            verdict = assert_orbit_walk(bad, k, "full")
            assert verdict.witness[-1] == len(els) - 1 and i in verdict.witness


# (p, e, h, k): GF(2^m), GF(p) and GF(p^e) at h = 1, 2 and 3
LAST_LEVEL_CASES = [(2, 3, 1, 3), (7, 1, 1, 3), (3, 2, 1, 3),
                    (2, 2, 2, 2), (5, 1, 2, 2), (3, 2, 2, 2), (2, 2, 2, 3),
                    (2, 2, 3, 2), (3, 1, 3, 2), (3, 2, 3, 2)]


def test_last_level_matches_reference_on_moved_planted_and_clean_families():
    # at most 14 elements each, so the reference stays cheap; a moved or
    # planted family has no curve group here, and its plain walk counts
    # the subsets up to the witness, the k-tuples the last level tested
    # being those subsets in order, all of them or all but the witness
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
                if reference_orbits(fam)[1] < len(fam):
                    assert verdict.ok
                    outcomes.add("group")
                    continue
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
    assert outcomes == {"group", "pass", "last level", "prefix"}


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
    assert verdict.decided_by == "forms" and (verdict.walked, verdict.orbits) == (0, 0)
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


def test_curve_projectivities_are_invertible_and_move_the_curve():
    for fld in (GF.get(2, 1), GF.get(5, 1), GF.get(2, 2), GF.get(2, 3),
                GF.get(3, 2)):
        for length in range(2, 9):
            for a, b, c, d in curve_generators(fld):
                m = curve_projectivity(fld, a, b, c, d, length)
                assert det([[fld(x) for x in row] for row in m])
                # the curve point of (u : t) goes to that of
                # (ct + du : at + bu)
                a_, b_, c_, d_ = (fld(x) for x in (a, b, c, d))
                for pt in nrc_points(fld, length):
                    u, t = ((fld.one, pt.param) if pt.param is not INFINITY
                            else (fld.zero, fld.one))
                    u2, t2 = c_ * t + d_ * u, a_ * t + b_ * u
                    target = (veronese(fld, 1, t2 / u2, length) if u2
                              else veronese(fld, 0, 1, length))
                    image = [sum((x * fld(row[i]) for x, row in
                                  zip(pt.coords, m)), fld.zero)
                             for i in range(length)]
                    assert span([image]) == span([list(target.coords)])
    with pytest.raises(ValueError):
        curve_projectivity(GF.get(5, 1), 1, 2, 2, 4, 3)


def test_direct_generator_matrices_match_the_curve_projectivities():
    # the base fields of the arcs and distance grids: q in 5, 7, 8, 9,
    # 11, 13, 16
    for p, e in [(5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1), (2, 4)]:
        fld = GF.get(p, e)
        for n in range(2, 9):
            assert list(pseudoarc._curve_generators(fld, n)) == [
                curve_projectivity(fld, *gen, n) for gen in curve_generators(fld)]


def mat_mul(fld, a, b):
    """The product of two int matrices over fld."""
    return [[functools.reduce(fld.add, map(fld.mul, row, col), 0) for col in zip(*b)]
            for row in a]


def test_reversal_conjugates_the_scale_map_to_its_inverse():
    # J*D*J = xi^(n-1) * D^-1 for t -> 1/t (J) and t -> xi*t (D), the
    # identity by which J images one element per cycle of D; on the
    # direct matrices and on the oracle's
    for p, e in [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
                 (2, 4), (7, 2)]:
        fld = GF.get(p, e)
        xi = fld.primitive_element().val
        for n in range(2, 10):
            identity = [[int(i == j) for j in range(n)] for i in range(n)]
            oracle = [curve_projectivity(fld, *gen, n) for gen in curve_generators(fld)]
            for _, scale, reverse in (pseudoarc._curve_generators(fld, n), oracle):
                inverse = [[fld.inv(scale[i][i]) if i == j else 0 for j in range(n)]
                           for i in range(n)]
                assert mat_mul(fld, scale, inverse) == identity
                assert mat_mul(fld, reverse, reverse) == identity
                assert mat_mul(fld, mat_mul(fld, reverse, scale), reverse) == [
                    [fld.mul(fld.pow(xi, n - 1), x) for x in row] for row in inverse], (p, e, n)


def every_image_permutations(els):
    """The reference for ``_curve_permutations``: each curve generator
    images every element alone, with ``reference_image``, and counts
    when the images are the elements again, in a permutation other than
    the identity.  A family with a repeated element gets none."""
    size = len(els)
    rows = [el.int_rows for el in els]
    if len(set(rows)) < size:
        return []
    fld, n = els[0].field, els[0].ambient_dim
    position = {r: i for i, r in enumerate(rows)}
    perms = []
    for gen in curve_generators(fld):
        mat = curve_projectivity(fld, *gen, n)
        perm = [position.get(reference_image(fld, mat, r)) for r in rows]
        if None not in perm and len(set(perm)) == size and perm != list(range(size)):
            perms.append(perm)
    return perms


def test_curve_permutations_match_imaging_every_element(monkeypatch):
    # the arcs grid families, the h = 1 conics (affine points, where
    # t -> 1/t sends 0 off the family, and the whole conic), the folded
    # distance grid codes and the PG(5, 4) lines; each also moved by a
    # random projectivity, with one element dropped, with one repeated,
    # and cut to a few cycles of t -> 1/t, which t -> xi*t does not keep.
    # The reversal's pass holds the heads of the scale map's cycles when
    # that map is accepted, and every element otherwise
    members = {}
    images_ = pseudoarc._images

    def recording_images(fld, mat, rows, groups):
        members[tuple(map(tuple, mat))] = sorted(i for g in groups.values() for i in g)
        return images_(fld, mat, rows, groups)

    monkeypatch.setattr(pseudoarc, "_images", recording_images)
    families = [els for case in ARCS_GRID_CASES for els in curve_families(*case)]
    for p, e in [(5, 1), (7, 1), (2, 3), (3, 2)]:
        tow = tower(p, e, 1)
        families += [list(build_imaginary_arc(tow, 3).elements),
                     build_osculating_family(tow, 3)]
        tow = tower(p, e, 2)
        code = codes.evaluation_code(tow, list(frobenius_orbit_reps(tow)), 2)
        families.append(codes.fold_columns(codes.extend_with_derivatives(
            code, list(tow.base.elements()), include_infty=True)))
    families.append(pg54.fixture_lines(pg54.fixture_tower()))
    rng = Random(47)
    paths = Counter()
    for els in families:
        fld, n = els[0].field, els[0].ambient_dim
        while True:
            m = [[fld(rng.randrange(fld.order)) for _ in range(n)] for _ in range(n)]
            if det(m):
                break
        i = rng.randrange(len(els))
        variants = [els, [apply_projectivity(m, el) for el in els],
                    els[:i] + els[i + 1:], els[:i + 1] + els[i:]]
        reversal = [perm for gen, perm in reference_permutations(els)
                    if gen == curve_generators(fld)[2]]
        if reversal:
            picked = set(rng.sample(range(len(els)), 3))
            variants.append([el for j, el in enumerate(els)
                             if j in picked or reversal[0][j] in picked])
        _, scale, reverse = (tuple(map(tuple, mat))
                             for mat in pseudoarc._curve_generators(fld, n))
        for family in variants:
            members.clear()
            perms = curve_permutations(family)
            assert perms == every_image_permutations(family)
            scale_perm = next((perm for gen, perm in reference_permutations(family)
                               if gen == curve_generators(fld)[1]), None)
            if reverse in members:
                heads = (cycle_heads(scale_perm) if scale_perm in perms
                         else list(range(len(family))))
                assert members[reverse] == heads
                paths["heads" if len(heads) < len(family) else "full"] += 1
    assert paths["heads"] > 0 and paths["full"] > 0


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
