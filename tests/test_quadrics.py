"""Quadratic form tests.

The vanishing-space computation is cross-checked by brute-force
evaluation and against a FieldElement reference with one condition per
projective point.  The trace composition is verified pointwise
against its defining formula on random vectors, and coefficient by
coefficient against a reference that reads the coefficients off the
form's values, in odd and even characteristic.  The plane-by-plane
complete-intersection check is compared with a FieldElement
point-by-point reference on seeded random inputs and on planted
witnesses.
"""

import itertools
import re
from random import Random

import pytest

from pseudoarcs import quadrics
from pseudoarcs.gf import GF, FieldMismatchError, factor_prime_power, tower
from pseudoarcs.linalg import nullspace_ints, rank_ints, rref_ints
from pseudoarcs.nrc import nrc_points
from pseudoarcs.projgeo import Subspace, block_spread, span
from pseudoarcs.pseudoarc import build_imaginary_arc, extend_with_osculating
from pseudoarcs.quadrics import (IntersectionVerdict, QuadraticForm,
                                 is_complete_intersection, monomial_pairs,
                                 nrc_quadric_system, trace_reduce,
                                 vanishing_space)


def point_spans(field, pts):
    return [span([list(p.coords)]) for p in pts]


def reference_evaluate(form, vec):
    """A form's value in FieldElement arithmetic, monomial by monomial."""
    acc = form.field.zero
    for c, (i, j) in zip(form.coeffs, monomial_pairs(form.n)):
        if c:
            acc = acc + c * vec[i] * vec[j]
    return acc


def reference_ambient(field, n):
    """The normalized vectors (0, ..., 0, 1, tail) of PG(n-1, q), lead
    ascending, tails in product order of the field's elements."""
    for lead in range(n):
        for tail in itertools.product(field.elements(), repeat=n - lead - 1):
            yield [field.zero] * lead + [field.one] + list(tail)


def reference_certify(subspaces, forms):
    """The complete-intersection check in FieldElement arithmetic: the
    configuration is the set of ambient points some subspace contains,
    ``missed`` the first of them, sorted, where a form does not vanish,
    ``extra`` the first common zero outside it in ambient order, and
    ``scanned`` the ambient points up to and including ``extra``."""
    field, n = subspaces[0].field, subspaces[0].ambient_dim
    ambient = list(reference_ambient(field, n))
    covered = {tuple(x.val for x in v) for v in ambient
               if any(s.contains(v) for s in subspaces)}
    for key in sorted(covered):
        vec = [field(v) for v in key]
        if any(reference_evaluate(form, vec) for form in forms):
            return IntersectionVerdict(False, missed=key)
    for pos, vec in enumerate(ambient):
        key = tuple(x.val for x in vec)
        if key not in covered and not any(reference_evaluate(form, vec)
                                          for form in forms):
            return IntersectionVerdict(False, extra=key, scanned=pos + 1)
    return IntersectionVerdict(True, scanned=len(ambient))


def reference_vanishing_space(subspaces, field=None, ambient_dim=None):
    """The forms vanishing on a family in FieldElement arithmetic: one
    condition row per projective point of every subspace, repeated
    points once, and the canonical reduced basis of the kernel."""
    subspaces = list(subspaces)
    if subspaces:
        field = subspaces[0].field
        ambient_dim = subspaces[0].ambient_dim
    pairs = monomial_pairs(ambient_dim)
    seen = set()
    conditions = []
    for s in subspaces:
        for pt in s.points():
            key = tuple(x.val for x in pt)
            if key in seen:
                continue
            seen.add(key)
            conditions.append([(pt[i] * pt[j]).val for (i, j) in pairs])
    basis, _ = rref_ints(field, nullspace_ints(field, conditions, len(pairs)))
    return [QuadraticForm(field, ambient_dim, field.wrap(row)) for row in basis]


def test_monomial_pairs_layout():
    assert monomial_pairs(3) == [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]
    assert len(monomial_pairs(6)) == 21


def test_conic_form_evaluation():
    f5 = GF.get(5, 1)
    conic = QuadraticForm.from_pairs(f5, 3, {(0, 2): 1, (1, 1): 4})
    for t in f5.elements():
        assert not conic.evaluate([f5(1), t, t * t])
    assert not conic.evaluate([f5(0), f5(0), f5(1)])
    assert conic.evaluate([f5(0), f5(1), f5(0)])
    assert conic.evaluate([f5(1), f5(2), f5(3)]) == f5(4)  # 3 - 4 mod 5


def test_form_algebra_matches_direct_sum():
    # prime field, p = 2 and odd tables, odd without an addition table,
    # and a field above the table limits
    rng = Random(3)
    pairs = monomial_pairs(4)
    for p, m in [(7, 1), (2, 2), (3, 2), (3, 7), (2, 17)]:
        fld = GF.get(p, m)
        for _ in range(20):
            c1 = [fld(rng.randrange(fld.order)) for _ in pairs]
            c2 = [fld(rng.randrange(fld.order)) for _ in pairs]
            q1 = QuadraticForm(fld, 4, c1)
            q2 = QuadraticForm(fld, 4, c2)
            s = fld(rng.randrange(1, fld.order))
            v = [fld(rng.randrange(fld.order)) for _ in range(4)]
            direct = sum((c * v[i] * v[j] for c, (i, j) in zip(c1, pairs)), fld.zero)
            assert q1.evaluate(v) == direct
            assert (q1 + q2).evaluate(v) == q1.evaluate(v) + q2.evaluate(v)
            assert q1.scale(s).evaluate(v) == s * q1.evaluate(v)
        zero = QuadraticForm.zero(fld, 4)
        assert zero.terms == () and not any(zero.coeffs)
        with pytest.raises(FieldMismatchError):
            q1.evaluate([GF.get(5, 1).one] * 4)


def test_vanishing_space_of_empty_input_is_everything():
    f3 = GF.get(3, 1)
    forms = vanishing_space([], field=f3, ambient_dim=3)
    assert len(forms) == 6


def test_vanishing_space_of_curve_points():
    f7 = GF.get(7, 1)
    pts = point_spans(f7, nrc_points(f7, 4))
    forms = vanishing_space(pts)
    assert len(forms) == 3
    for f in forms:
        for p in nrc_points(f7, 4):
            assert not f.evaluate(list(p.coords))
    # closure: combinations of the basis vanish too
    combo = forms[0] + forms[1].scale(f7(3)) + forms[2].scale(f7(5))
    for p in nrc_points(f7, 4):
        assert not combo.evaluate(list(p.coords))


def test_nrc_quadric_system_counts_and_annihilation():
    for k, q in [(3, 5), (3, 7), (4, 7), (5, 11), (6, 13)]:
        field = GF.get(q, 1)
        forms = nrc_quadric_system(field, k)
        assert len(forms) == (k - 1) * (k - 2) // 2
        for f in forms:
            for p in nrc_points(field, k):
                assert not f.evaluate(list(p.coords))


def test_nrc_quadric_system_k3_is_the_conic():
    f5 = GF.get(5, 1)
    forms = nrc_quadric_system(f5, 3)
    assert len(forms) == 1
    expected = QuadraticForm.from_pairs(f5, 3, {(0, 2): 1, (1, 1): 4})
    assert forms[0] == expected


def test_vanishing_space_matches_standard_system_for_large_q():
    # for q >= 2k - 1 the standard system spans everything that
    # vanishes on the curve
    for k, q in [(3, 5), (3, 7), (4, 7), (4, 11), (5, 11)]:
        field = GF.get(q, 1)
        pts = point_spans(field, nrc_points(field, k))
        forms = vanishing_space(pts)
        assert len(forms) == (k - 1) * (k - 2) // 2, (k, q)


def test_small_field_gap_k5_q7():
    # q = 7 < 2k - 1 = 9: the curve has only 8 points and an extra
    # form sneaks in, x3*x4 - x0*x1, whose pullback t^7 - t vanishes
    # identically on the parameter line
    f7 = GF.get(7, 1)
    pts = point_spans(f7, nrc_points(f7, 5))
    forms = vanishing_space(pts)
    assert len(forms) == 7
    extra = QuadraticForm.from_pairs(f7, 5, {(3, 4): 1, (0, 1): 6})
    for p in nrc_points(f7, 5):
        assert not extra.evaluate(list(p.coords))


def traced_value(form, tow, basis, alpha, vec):
    """rel_trace(alpha * Q(x)) for the block vector x of a base-level
    vector, x_b = sum_s vec[bh + s] * basis[s]: the definition of the
    reduced form."""
    h = tow.h
    blocks = []
    for b in range(form.n):
        acc = tow.top.zero
        for s in range(h):
            acc = acc + tow.lift(vec[h * b + s]) * basis[s]
        blocks.append(acc)
    return tow.rel_trace(alpha * form.evaluate(blocks))


def check_trace_reduce(tow, form, rng):
    """trace_reduce, for every alpha of the normal basis, against its
    definition at 25 random vectors and, coefficient by coefficient,
    against the reference below."""
    basis = tow.normal_basis()
    n = tow.h * form.n
    for alpha in basis:
        reduced = trace_reduce(form, tow, basis, alpha)
        assert reduced.field is tow.base and reduced.n == n
        assert reduced == reference_trace_reduce(form, tow, basis, alpha)
        for _ in range(25):
            vec = [tow.base(rng.randrange(tow.q)) for _ in range(n)]
            assert reduced.evaluate(vec) == traced_value(form, tow, basis, alpha, vec)


def reference_trace_reduce(form, tow, basis, alpha):
    """The reduced form recovered from its values: Q(e_i) on the
    diagonal and Q(e_i + e_j) - Q(e_i) - Q(e_j) off it, in every
    characteristic."""
    n, base = tow.h * form.n, tow.base
    units = [[base.one if i == j else base.zero for j in range(n)]
             for i in range(n)]
    singles = [traced_value(form, tow, basis, alpha, u) for u in units]
    entries = {}
    for i, j in monomial_pairs(n):
        if i == j:
            entries[(i, j)] = singles[i]
        else:
            pair = [a + b for a, b in zip(units[i], units[j])]
            entries[(i, j)] = (traced_value(form, tow, basis, alpha, pair)
                               - singles[i] - singles[j])
    return QuadraticForm.from_pairs(base, n, entries)


def random_form(field, n, rng):
    """A form in n variables with every coefficient nonzero."""
    return QuadraticForm(field, n, [field(rng.randrange(1, field.order))
                                    for _ in monomial_pairs(n)])


def test_trace_reduce_matches_definition_odd_char():
    tow = tower(5, 1, 2)
    top = tow.top
    form = QuadraticForm.from_pairs(top, 3, {(0, 2): 1, (1, 1): top.order - 1, (0, 1): 7})
    check_trace_reduce(tow, form, Random(9))
    # k = 3 forms with every term, over h = 3 and over a larger base
    rng = Random(11)
    for tow in (tower(3, 1, 3), tower(7, 1, 2)):
        check_trace_reduce(tow, random_form(tow.top, 3, rng), rng)


def test_trace_reduce_matches_definition_even_char():
    tow = tower(2, 2, 2)
    top = tow.top
    form = QuadraticForm.from_pairs(top, 2, {(0, 0): 3, (0, 1): 1, (1, 1): 9})
    check_trace_reduce(tow, form, Random(4))
    rng = Random(12)
    tow = tower(2, 1, 3)
    check_trace_reduce(tow, random_form(tow.top, 3, rng), rng)


def test_form_refuses_coefficients_of_another_field():
    # GF(7)'s 6 is not GF(5)'s 1
    f5, f7 = GF.get(5, 1), GF.get(7, 1)
    with pytest.raises(FieldMismatchError):
        QuadraticForm(f5, 1, [f7(6)])
    with pytest.raises(FieldMismatchError):
        QuadraticForm.from_pairs(f5, 2, {(0, 1): f7(6)})


def test_from_pairs_names_a_pair_that_is_no_monomial():
    f5 = GF.get(5, 1)
    for pair in [(1, 0), (0, 2), (-1, 0)]:
        with pytest.raises(ValueError, match=re.escape(repr(pair))):
            QuadraticForm.from_pairs(f5, 2, {pair: 1})


def test_trace_reduce_rejects_non_basis():
    tow = tower(5, 1, 2)
    top = tow.top
    form = QuadraticForm.from_pairs(top, 2, {(0, 1): 1})
    for basis in ([top.one, top(2)], [top(1), top(3)], [tow.normal_element()] * 2,
                  [top.one]):
        with pytest.raises(ValueError, match="^not a basis of the extension$"):
            trace_reduce(form, tow, basis, top.one)
    base_form = QuadraticForm.from_pairs(tow.base, 2, {(0, 1): 1})
    with pytest.raises(ValueError):
        trace_reduce(base_form, tow, list(tow.normal_basis()), top.one)


def test_complete_intersection_conic():
    f5 = GF.get(5, 1)
    pts = point_spans(f5, nrc_points(f5, 3))
    assert len(pts) == 6
    forms = nrc_quadric_system(f5, 3)
    verdict = is_complete_intersection(pts, forms)
    assert verdict.ok and verdict.extra is None and verdict.missed is None


def test_complete_intersection_detects_extra_and_missed():
    f5 = GF.get(5, 1)
    pts = point_spans(f5, nrc_points(f5, 3))
    zero = QuadraticForm.zero(f5, 3)
    verdict = is_complete_intersection(pts, [zero])
    assert not verdict.ok and verdict.extra is not None
    off_curve = span([[f5(0), f5(1), f5(0)]])
    verdict2 = is_complete_intersection(pts + [off_curve], nrc_quadric_system(f5, 3))
    assert not verdict2.ok and verdict2.missed == (0, 1, 0)


def test_complete_intersection_checks_shapes_up_front():
    f5, f7 = GF.get(5, 1), GF.get(7, 1)
    pts = point_spans(f5, nrc_points(f5, 3))
    forms = nrc_quadric_system(f5, 3)
    cases = [
        (pts, nrc_quadric_system(f7, 3), "form 0 is over GF(7), the subspaces over GF(5)"),
        (pts, forms + [QuadraticForm.zero(f5, 4)],
         "form 1 has 4 variables, the ambient dimension is 3"),
        (pts + [span([[f5(1), f5(0), f5(0), f5(0)]])], forms,
         "subspace 6 has ambient dimension 4, subspace 0 3"),
        (pts + [span([[f7(1), f7(0), f7(0)]])], forms,
         "subspace 6 is over GF(7), subspace 0 over GF(5)"),
    ]
    for subspaces, system, message in cases:
        with pytest.raises(ValueError) as exc:
            is_complete_intersection(subspaces, system)
        assert str(exc.value) == message


def random_family(field, n, rng, ranks=(1, 2)):
    """One to four random subspaces in PG(n-1, q), each spanned by a
    number of random rows drawn from the range ``ranks``.  The zero
    subspace comes out only when that range starts at 0."""
    family = []
    while len(family) < rng.randint(1, 4):
        rows = [[field(rng.randrange(field.order)) for _ in range(n)]
                for _ in range(rng.randint(*ranks))]
        if ranks[0] == 0 or any(any(r) for r in rows):
            family.append(Subspace(field, n, rows))
    return family


def point_system(field, key):
    """Squares of the linear forms x_j - key_j x_l, j != l, where l is the
    position of the leading 1 of the normalized point ``key``: their
    only common zero is that point."""
    n = len(key)
    lead = key.index(1)
    forms = []
    for j in range(n):
        if j != lead:
            c = field(key[j])
            forms.append(QuadraticForm.from_pairs(field, n, {
                (j, j): field.one, (min(j, lead), max(j, lead)): -(c + c),
                (lead, lead): c * c}))
    return forms


def random_system(field, n, family, rng):
    """Random combinations of the forms through the family, sometimes
    with one random form added."""
    through = vanishing_space(family)
    forms = []
    for _ in range(rng.randint(1, 3)):
        form = QuadraticForm.zero(field, n)
        for f in through:
            form = form + f.scale(field(rng.randrange(field.order)))
        forms.append(form)
    if rng.random() < 0.3:
        forms.append(QuadraticForm(field, n, [field(rng.randrange(field.order))
                                              for _ in monomial_pairs(n)]))
    return forms


def edge_inputs(field, rng):
    """Certificate inputs at the corners of the walk: no forms, a first
    form that vanishes on whole lines, witnesses at t = 0, at t = q - 1
    and at (0, ..., 0, 1), ambient dimensions 1 and 2, and the
    ``plane_inputs`` of PG(3, q) to PG(6, q) on small fields."""
    q = field.order
    conic = point_spans(field, nrc_points(field, 3))
    system = nrc_quadric_system(field, 3)
    x0x1 = QuadraticForm.from_pairs(field, 3, {(0, 1): 1})
    inputs = [
        (conic, []),
        (conic, [QuadraticForm.zero(field, 3)] + system),
        (conic[1:], system),                  # extra (1, 0, 0), at t = 0
        (conic[:-1], system),                 # extra (0, 0, 1)
        ([conic[0], conic[-1]], [x0x1] + system),
        ([conic[-1]], [x0x1] + system),
    ]
    for key in [(1, 0, 0), (1, rng.randrange(q), q - 1), (0, 1, q - 1),
                (0, 0, 1)]:
        planted = point_system(field, key)
        inputs.append(([Subspace(field, 3, [])], planted))
        inputs.append(([span([[field(v) for v in key]])], planted))
    x0 = QuadraticForm.from_pairs(field, 1, {(0, 0): 1})
    inputs += [
        ([Subspace(field, 1, [])], []),
        ([Subspace(field, 1, [[field.one]])], []),
        ([Subspace(field, 1, [])], [x0]),
        (point_spans(field, nrc_points(field, 2)), []),
        ([Subspace(field, 2, [])], point_system(field, (1, q - 1))),
        ([span([[field.one, field.zero]])],
         [QuadraticForm.from_pairs(field, 2, {(0, 1): 1})]),
    ]
    family = random_family(field, 2, rng)
    inputs.append((family, random_system(field, 2, family, rng)))
    # keep the point-by-point reference quick; PG(5, q) and PG(6, q) put
    # more than one coordinate of the plane's prefix in front of the
    # last two
    for n in (4, 5, 6, 7):
        if field.order ** (n - 2) <= 81:
            inputs += plane_inputs(field, n, rng)
    return inputs


def plane_inputs(field, n, rng):
    """Certificate inputs at the corners of the plane walk in PG(n-1, q),
    n >= 4, whose planes are P + s u + t e with u = e_(n-2), e = e_(n-1).

    Single witnesses are planted at s = 0, at s = q - 1, in the first
    plane of every lead, on the line (0, ..., 0, 1, t) and at
    (0, ..., 0, 1), each as an extra point and as a covered one.  The
    first form in front of the planted system vanishes at the witness;
    across the plane witnesses it has Q(u) = Q(e) = 0, B(u, e) = 0,
    Q(e) = 0 alone, random coefficients, or is zero.  Systems whose
    common zeros fill the line through a witness and e, behind a first
    form zero on whole lines, put an extra point at t = 1 after a
    covered one at t = 0, or cover the whole line; their second form
    takes the same value at t = 0 on every line and different slopes."""
    q = field.order
    u, e = n - 2, n - 1

    def normalized(lead, tail):
        return tuple([0] * lead + [1] + list(tail))

    def rand():
        return rng.randrange(q)

    keys = [normalized(0, [rand() for _ in range(n - 3)] + [0, rand()]),
            normalized(0, [rand() for _ in range(n - 3)] + [q - 1, rand()]),
            normalized(0, [rand() for _ in range(n - 3)] + [q - 1, q - 1])]
    keys += [normalized(lead, [0] * (n - lead - 3) + [rand(), rand()])
             for lead in range(n - 2)]
    keys += [normalized(u, [0]), normalized(u, [q - 1]), normalized(u, [rand()]),
             normalized(e, [])]

    def product(key, j, k):
        """L_j L_k for the linear forms L_j = x_j - key_j x_lead, j and k
        not the lead: zero at key."""
        lead = key.index(1)
        entries = {}
        for a, x in ((j, field.one), (lead, -field(key[j]))):
            for b, y in ((k, field.one), (lead, -field(key[k]))):
                pair = (min(a, b), max(a, b))
                entries[pair] = entries.get(pair, field.zero) + x * y
        return QuadraticForm.from_pairs(field, n, entries)

    def first_forms(key):
        lead = key.index(1)
        others = [j for j in range(n) if j != lead]
        forms = []
        if lead < u:
            forms += [product(key, u, e),                               # Q(u) = Q(e) = 0
                      product(key, u, u) + product(key, e, e),          # B(u, e) = 0
                      product(key, u, u) + product(key, others[0], e)]  # Q(e) = 0
        combo = QuadraticForm.zero(field, n)
        for a, j in enumerate(others):
            for k in others[a:]:
                combo = combo + product(key, j, k).scale(field(rand()))
        return forms + [combo, QuadraticForm.zero(field, n)]

    inputs = []
    for pos, key in enumerate(keys):
        firsts = first_forms(key)
        planted = [firsts[pos % len(firsts)]] + point_system(field, key)
        point = [field(v) for v in key]
        inputs.append(([Subspace(field, n, [])], planted))
        inputs.append(([span([point])], planted))
        lead = key.index(1)
        if lead < e:
            # L_j x_e and all but the last planted form vanish on the
            # line through key and e
            j = 1 if lead == 0 else 0
            line = [QuadraticForm.from_pairs(field, n, {
                (j, e): field.one, (lead, e): -field(key[j])})]
            line += point_system(field, key)[:-1]
            start = point[:-1] + [field.zero]
            inputs.append(([span([start])], [QuadraticForm.zero(field, n)] + line))
            inputs.append(([span([point, [field.zero] * e + [field.one]])],
                           line[:1] + line))
    return inputs


def memo_inputs(field, rng):
    """Certificate inputs for the per-plane memo and the plane-level
    restriction, at k = 4 and 5.

    The standard system on the curve less its point at a parameter
    t != 0: an extra zero on the line s = t^(k-2) != 0 of a plane where
    the first form vanishes on that line (k = 4) or on every line
    (k = 5).  First forms x0 x1 and x0 x1 + x_(k-2) x_(k-1) in front of
    the point system of a point (0, 1, ..., s, 0), s != 0: its plane
    repeats the first form's (Q(P), B(P, u), B(P, e)) of the plane
    (1, 0, ..., 0), walked before it, where the later forms do not
    vanish; the point is extra, or covered and the walk goes on.  The
    standard system with its first two forms swapped, on the curve, on
    the curve less a point and with an off-curve point added."""
    q = field.order
    inputs = []
    for k in (4, 5):
        curve = point_spans(field, nrc_points(field, k))
        system = nrc_quadric_system(field, k)
        t = field(rng.randrange(1, q))
        drop = curve.index(span([[t ** i for i in range(k)]]))
        less = curve[:drop] + curve[drop + 1:]
        inputs.append((less, system))
        key = ((0, 1) + tuple(rng.randrange(q) for _ in range(k - 4))
               + (rng.randrange(1, q), 0))
        for pairs in ({(0, 1): 1}, {(0, 1): 1, (k - 2, k - 1): 1}):
            planted = ([QuadraticForm.from_pairs(field, k, pairs)]
                       + point_system(field, key))
            inputs.append(([Subspace(field, k, [])], planted))
            inputs.append(([span([[field(v) for v in key]])], planted))
        while True:
            off = span([[field(rng.randrange(q)) for _ in range(k)]])
            if off.rank and off not in curve:
                break
        swapped = [system[1], system[0]] + system[2:]
        inputs += [(curve, swapped), (less, swapped), (curve + [off], swapped)]
    return inputs


@pytest.mark.parametrize("p, m", [(7, 1), (11, 1), (2, 2), (2, 3), (3, 2),
                                  (5, 2), (2, 1), (3, 1), (5, 1)])
def test_complete_intersection_matches_reference(p, m):
    field = GF.get(p, m)
    rng = Random(100 * p + m)
    inputs = []
    # the reference walks PG(3, q) point by point: too slow for q = 25
    top = 4 if field.order < 16 else 3
    for n in (3, 3, 3, top):
        family = random_family(field, n, rng)
        inputs.append((family, random_system(field, n, family, rng)))
    for k in range(3, top + 1):
        curve = point_spans(field, nrc_points(field, k))
        system = nrc_quadric_system(field, k)
        inputs.append((curve, system))
        while True:
            off = [field(rng.randrange(field.order)) for _ in range(k)]
            planted = span([off]) if any(off) else None
            if planted is not None and planted not in curve:
                break
        inputs.append((curve + [planted], system))
        drop = rng.randrange(len(system))
        inputs.append((curve, system[:drop] + system[drop + 1:]))
    inputs += edge_inputs(field, rng)
    if field.order in (4, 5, 7, 9):
        inputs += memo_inputs(field, rng)
    assert matches_reference(inputs) == {"ok", "missed", "extra"}


def matches_reference(inputs):
    """Check is_complete_intersection against reference_certify on
    each (subspaces, forms): verdict, witness and ``scanned``.  Returns
    the kinds of verdict seen."""
    kinds = set()
    for subspaces, forms in inputs:
        verdict = is_complete_intersection(subspaces, forms)
        reference = reference_certify(subspaces, forms)
        assert verdict == reference
        assert verdict.scanned == reference.scanned
        kinds.add("ok" if verdict.ok else
                  "missed" if verdict.missed is not None else "extra")
    return kinds


def desarguesian_family(h, k, q):
    """The block_spread elements through the curve points of
    PG(k - 1, q^h), the one through the point at infinity last, with
    the trace-reduced standard system."""
    tow = tower(*factor_prime_power(q), h)
    top = tow.top
    family = block_spread(tow, k).elements_through(
        [pt.coords for pt in nrc_points(top, k)])
    basis = tow.normal_basis()
    forms = [trace_reduce(form, tow, basis, alpha)
             for form in nrc_quadric_system(top, k) for alpha in basis]
    return family, forms


@pytest.mark.parametrize("h, k, q", [(2, 3, 3), (2, 3, 4), (3, 3, 2)])
def test_complete_intersection_matches_reference_on_desarguesian_families(h, k, q):
    # planes where the first form has few zeros, one per line or fewer;
    # the last element's points are the last line and the last point of
    # the walk, so without it they are extra
    family, forms = desarguesian_family(h, k, q)
    inputs = [(family, forms), (family[:-1], forms), (family, forms[1:])]
    assert matches_reference(inputs) == {"ok", "extra"}


def test_complete_intersection_budget():
    f5 = GF.get(5, 1)
    pts = point_spans(f5, nrc_points(f5, 3))
    with pytest.raises(ValueError):
        is_complete_intersection(pts, nrc_quadric_system(f5, 3), max_points=10)


def test_vanishing_space_dimension_oracle():
    # rank-nullity against an independently built condition matrix
    f3 = GF.get(3, 1)
    pts = point_spans(f3, nrc_points(f3, 3))
    forms = vanishing_space(pts)
    conditions = []
    for p in nrc_points(f3, 3):
        v = list(p.coords)
        conditions.append([(v[i] * v[j]).val for (i, j) in monomial_pairs(3)])
    assert len(forms) == 6 - rank_ints(f3, conditions)


ARC_PARAMS = [(2, 1, 2, 2), (2, 2, 2, 2), (3, 1, 2, 2), (5, 1, 2, 2),
              (7, 1, 2, 2), (2, 1, 3, 2), (3, 1, 3, 2), (3, 1, 2, 3)]


def imaginary_arc(p, e, h, k):
    """The imaginary arc (h, k) over the field of order p^e."""
    return build_imaginary_arc(tower(p, e, h), k)


@pytest.mark.parametrize("p, e, h, k", ARC_PARAMS)
def test_vanishing_space_of_arcs_matches_reference(p, e, h, k):
    arc = imaginary_arc(p, e, h, k)
    for family in (arc.elements, extend_with_osculating(arc).elements):
        assert vanishing_space(family) == reference_vanishing_space(family)


@pytest.mark.parametrize("p, m", [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3),
                                  (3, 2), (5, 2)])
def test_vanishing_space_of_random_families_matches_reference(p, m):
    field = GF.get(p, m)
    rng = Random(10 * p + m)
    for n in range(1, 6):
        for _ in range(3):
            family = random_family(field, n, rng, ranks=(0, min(3, n)))
            assert vanishing_space(family) == reference_vanishing_space(family)
    assert (vanishing_space([], field=field, ambient_dim=3)
            == reference_vanishing_space([], field=field, ambient_dim=3))


def test_vanishing_space_of_top_level_subspaces_matches_reference():
    for p, e, h in [(2, 2, 2), (3, 1, 2), (5, 1, 2)]:
        top = tower(p, e, h).top
        curve = nrc_points(top, 4)
        coords = [list(pt.coords) for pt in curve]
        lines = [span(coords[i:i + 2]) for i in range(0, len(coords) - 1, 3)]
        for family in (point_spans(top, curve), lines):
            assert vanishing_space(family) == reference_vanishing_space(family)


def count_elements_read(monkeypatch):
    """A list that receives the int rows of each subspace whose
    conditions ``vanishing_space`` builds."""
    read = []
    conditions = quadrics._conditions

    def counted(field, pairs, rows):
        read.append(rows)
        return conditions(field, pairs, rows)

    monkeypatch.setattr(quadrics, "_conditions", counted)
    return read


def exit_families():
    """(name, family, elements read, dimension): the rank of the
    conditions fills after 4 elements, only at the last element, or
    never."""
    arc7 = imaginary_arc(7, 1, 2, 2)
    arc247 = imaginary_arc(7, 1, 2, 4)
    arc234 = imaginary_arc(2, 2, 2, 3)
    out = [("(2,2,7)", arc7.elements, 4, 0),
           ("(2,2,7) extended", extend_with_osculating(arc7).elements, 4, 0),
           ("(2,4,7)", arc247.elements, 21, 0),
           ("(2,4,7) but its last element", arc247.elements[:-1], 20, 1),
           ("(2,3,4)", arc234.elements, 6, 4)]
    for p, m, k in [(2, 2, 3), (7, 1, 4), (11, 1, 5)]:
        field = GF.get(p, m)
        out.append(("curve (%d, %d)" % (k, field.order),
                    point_spans(field, nrc_points(field, k)), field.order + 1,
                    (k - 1) * (k - 2) // 2))
    return out


def test_vanishing_space_stops_at_full_rank(monkeypatch):
    cases = [(name, family, reads, dim, reference_vanishing_space(family))
             for name, family, reads, dim in exit_families()]
    read = count_elements_read(monkeypatch)
    for name, family, reads, dim, expected in cases:
        read.clear()
        forms = vanishing_space(family)
        assert (len(read), len(forms)) == (reads, dim), name
        assert forms == expected, name


def test_vanishing_space_reads_4_of_137_elements(monkeypatch):
    family = extend_with_osculating(imaginary_arc(2, 4, 2, 2)).elements
    assert len(family) == 137
    read = count_elements_read(monkeypatch)
    assert vanishing_space(family) == []
    assert read == [el.int_rows for el in family[:4]]


def test_vanishing_space_checks_elements_past_the_exit(monkeypatch):
    family = extend_with_osculating(imaginary_arc(7, 1, 2, 2)).elements
    field = family[0].field
    other = GF.get(5, 1)
    read = count_elements_read(monkeypatch)
    assert vanishing_space(family) == [] and len(read) == 4
    for bad in (Subspace(other, 4, [[other.one] + [other.zero] * 3]),
                Subspace(field, 5, [[field.one] + [field.zero] * 4])):
        read.clear()
        with pytest.raises(ValueError, match="different spaces"):
            vanishing_space(list(family) + [bad])
        assert not read


def test_vanishing_space_walks_no_points(monkeypatch):
    families = [
        extend_with_osculating(imaginary_arc(5, 1, 2, 2)).elements,
        imaginary_arc(3, 1, 3, 2).elements,
    ]
    expected = [reference_vanishing_space(family) for family in families]

    def refuse(self):
        raise AssertionError("the points of a subspace were walked")

    monkeypatch.setattr(Subspace, "_int_points", refuse)
    monkeypatch.setattr(Subspace, "points", refuse)
    for family, forms in zip(families, expected):
        assert vanishing_space(family) == forms


@pytest.mark.parametrize("family, params", [
    ("curve", (7, 1, 4)), ("curve", (5, 1, 5)), ("curve", (2, 2, 5)),
    ("desarguesian", (2, 3, 5))], ids=["curve-7-1-4", "curve-5-1-5",
                                      "curve-2-2-5", "desarguesian-2-3-5"])
def test_complete_intersection_evaluates_other_forms_once_per_plane(
        monkeypatch, family, params):
    # Q(P), B(P, u) and B(P, e) of the first form come from int row ops
    # over blocks of planes, so it is evaluated only for Q(e), Q(u) and
    # Q(u + e) and once per configuration point in the search for a
    # missed point; every other form is restricted to each plane where
    # the first form has a zero, with one evaluation for its Q(P), and
    # is never evaluated zero by zero
    if family == "curve":
        p, m, k = params
        field = GF.get(p, m)
        curve = point_spans(field, nrc_points(field, k))
        system = nrc_quadric_system(field, k)
        # a first form with Q(u) != 0, zero at one point of most lines
        inputs = [(curve, system), (curve, [system[0] + system[-1]] + system)]
    else:
        inputs = [desarguesian_family(*params)]
    for subspaces, forms in inputs:
        field = subspaces[0].field
        q, n = field.order, subspaces[0].ambient_dim
        configuration = len({pt for s in subspaces for pt in s.points()})
        planes = (q ** (n - 2) - 1) // (q - 1)
        position = {id(form.terms): pos for pos, form in enumerate(forms)}
        calls = [0] * len(forms)
        value = field.form_value

        def counted(terms, vec):
            if id(terms) in position:
                calls[position[id(terms)]] += 1
            return value(terms, vec)

        monkeypatch.setattr(field, "form_value", counted)
        verdict = is_complete_intersection(subspaces, forms)
        monkeypatch.undo()
        assert verdict.ok and verdict.scanned == (q ** n - 1) // (q - 1)
        assert calls[0] <= 3 + configuration
        assert all(count <= 3 + planes + configuration for count in calls[1:])


def test_form_refuses_fewer_than_one_variable():
    f5 = GF.get(5, 1)
    for n in (0, -1):
        with pytest.raises(ValueError, match="n must be at least 1, found %d" % n):
            QuadraticForm(f5, n, [])
        with pytest.raises(ValueError, match="n must be at least 1"):
            QuadraticForm.zero(f5, n)
    assert QuadraticForm(f5, 1, [f5.one]).evaluate([f5(2)]) == f5(4)
