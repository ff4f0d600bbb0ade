"""Subspace arithmetic, field reduction, and spreads, with brute-force
oracles for the rational-point and block-coordinate structure and the
FieldElement conjugate-span-and-trace route as the reference for field
reduction."""

import functools
import itertools
import operator
import random

import pytest

from pseudoarcs import jsonio, projgeo
from pseudoarcs.gf import GF, FieldMismatchError, tower
from pseudoarcs.linalg import (SingularMatrixError, det, inverse_ints,
                               rref_ints, vec_mat_ints)
from pseudoarcs.pseudoarc import build_imaginary_arc, extend_with_osculating
from pseudoarcs.projgeo import (Spread, Subspace, ambient_space, block_spread,
                                canonical_spread, conjugate_rows,
                                field_reduction, field_reduction_ints,
                                intersect, join,
                                lift_subspace, span, apply_projectivity,
                                spread_membership)

F5 = GF.get(5, 1)


def rand_subspace(fld, ambient, nrows, rng):
    rows = [[fld(rng.randrange(fld.order)) for _ in range(ambient)]
            for _ in range(nrows)]
    return Subspace(fld, ambient, rows)


def identity(fld, n):
    return [fld.wrap(int(i == j) for j in range(n)) for i in range(n)]


def columns(m):
    """The encodings of the columns of a FieldElement matrix: its
    transpose as int rows."""
    return [[x.val for x in col] for col in zip(*m)]


def rand_invertible(fld, n, rng):
    while True:
        m = [[fld(rng.randrange(fld.order)) for _ in range(n)] for _ in range(n)]
        if det(m):
            return m


def test_span_canonical_and_idempotent():
    rng = random.Random(41)
    for _ in range(25):
        rows = [[F5(rng.randrange(5)) for _ in range(4)] for _ in range(3)]
        s1 = span(rows) if any(any(r) for r in rows) else None
        if s1 is None:
            continue
        s2 = span([list(r) for r in s1.rows])
        assert s1 == s2
        shuffled = rows[::-1]
        assert span(shuffled) == s1


def test_span_scalar_multiples_and_errors():
    v = [F5(1), F5(2), F5(3)]
    s = span([v, [F5(2) * x for x in v]])
    assert s.rank == 1
    with pytest.raises(ValueError):
        span([])
    assert ambient_space(F5, 3) == span(identity(F5, 3))


def test_contains_matches_point_enumeration():
    rng = random.Random(43)
    s = rand_subspace(F5, 4, 2, rng)
    pts = set(tuple(x.val for x in p) for p in s.points())
    assert len(pts) == (5 ** s.rank - 1) // 4
    for cand in itertools.product(range(5), repeat=4):
        vec = [F5(c) for c in cand]
        if not any(vec):
            continue
        lead = next(x for x in vec if x)
        normalized = tuple((lead.inverse() * x).val for x in vec)
        assert s.contains(vec) == (normalized in pts)


def reference_points(s):
    """The point walk in FieldElement arithmetic: coefficient 1 on a
    lead row, free coefficients on the rows after it in product order,
    each vector scaled so its first nonzero coordinate is 1."""
    fld = s.field
    for lead in range(s.rank):
        for tail in itertools.product(fld.elements(), repeat=s.rank - lead - 1):
            vec = list(s.rows[lead])
            for c, row in zip(tail, s.rows[lead + 1:]):
                vec = [x + c * y for x, y in zip(vec, row)]
            inv = next(x for x in vec if x).inverse()
            yield tuple(inv * x for x in vec)


def test_points_match_reference_walk_in_order():
    rng = random.Random(53)
    for p, m in [(7, 1), (11, 1), (2, 2), (2, 3), (3, 2)]:
        fld = GF.get(p, m)
        for nrows in range(4):
            for _ in range(3):
                s = rand_subspace(fld, 5, nrows, rng)
                got = list(s.points())
                assert got == list(reference_points(s))
                assert len(got) == (fld.order ** s.rank - 1) // (fld.order - 1)
    big = GF.get(2, 17)  # above the table limits
    s = rand_subspace(big, 3, 1, rng)
    assert s.rank == 1 and list(s.points()) == list(reference_points(s))


def test_intersect_identities():
    rng = random.Random(47)
    u = rand_subspace(F5, 4, 2, rng)
    assert intersect(u, u) == u
    assert intersect(u, ambient_space(F5, 4)) == u
    skew1 = span([[F5(1), F5(0), F5(0), F5(0)], [F5(0), F5(1), F5(0), F5(0)]])
    skew2 = span([[F5(0), F5(0), F5(1), F5(0)], [F5(0), F5(0), F5(0), F5(1)]])
    empty = intersect(skew1, skew2)
    assert empty.rank == 0
    assert list(empty.points()) == []


def test_modular_law_random_pairs():
    rng = random.Random(53)
    f4 = GF.get(2, 2)
    for fld in (F5, f4):
        for _ in range(15):
            u = rand_subspace(fld, 5, rng.randrange(1, 4), rng)
            w = rand_subspace(fld, 5, rng.randrange(1, 4), rng)
            meet = intersect(u, w)
            assert meet.rank == u.rank + w.rank - join(u, w).rank
            for row in meet.rows:
                assert u.contains(row) and w.contains(row)


def conjugate_span(tow, vec):
    """Span of a top-level vector and its Frobenius conjugates."""
    return Subspace(tow.top, len(vec), conjugate_rows(tow, vec))


def reference_reduction(tow, vec):
    """Field reduction on FieldElements: the conjugate span, checked to
    be Frobenius-invariant, then for each of its basis rows and each
    conjugate omega^(q^i) of the normal element the entrywise relative
    trace of omega^(q^i) times the row, reduced at the base level."""
    w = conjugate_span(tow, vec)
    frob = Subspace(tow.top, w.ambient_dim,
                    [[tow.frobenius(x, 1 % tow.h) for x in r] for r in w.rows])
    assert frob == w
    omega = tow.normal_element()
    traces = [[tow.rel_trace(tow.frobenius(omega, i) * x) for x in row]
              for row in w.rows for i in range(tow.h)]
    rational = Subspace(tow.base, w.ambient_dim, traces)
    assert rational.rank == w.rank
    return rational


def test_conjugate_span_ranks():
    t = tower(2, 2, 2)
    rational = [t.lift(a) for a in [t.base(1), t.base(2), t.base(3), t.base(1)]]
    assert conjugate_span(t, rational).rank == 1
    assert field_reduction(t, rational).rank == 1
    g = t.top.generator()
    curve_point = [t.top.one, g, g ** 2, g ** 3]
    assert conjugate_span(t, curve_point).rank == 2
    assert field_reduction(t, curve_point).rank == 2
    assert field_reduction(t, [t.top.zero] * 4).rank == 0


def test_field_reduction_matches_reference():
    # random vectors, and vectors whose coordinate ratios lie in F_q or
    # a proper subfield, where the rank drops below h
    rng = random.Random(67)
    for p, e, h in [(2, 1, 2), (2, 2, 2), (3, 1, 2), (5, 1, 2), (3, 2, 2),
                    (2, 1, 3), (3, 1, 3), (2, 2, 3), (2, 1, 4)]:
        t = tower(p, e, h)
        top = t.top
        subfields = {d: [x for x in top.elements() if x ** (t.q ** d) == x]
                     for d in range(1, h) if h % d == 0}
        low_rank = 0
        for n in range(1, 7):
            cases = [[top(rng.randrange(top.order)) for _ in range(n)]
                     for _ in range(4)]
            for d, sub in subfields.items():
                scale = top(rng.randrange(1, top.order))
                cases.append([scale * rng.choice(sub) for _ in range(n)])
            for vec in cases:
                if not any(vec):
                    continue
                got = field_reduction(t, vec)
                assert got.field is t.base and got.ambient_dim == n
                assert got == reference_reduction(t, vec), (t, vec)
                low_rank += n > 1 and got.rank < h
        assert low_rank >= 5


def brute_rational_points(w, tow):
    """All base-level points of a top-level subspace, found by scaling
    every projective point into the embedded base field if possible."""
    embedded = {tow.lift(a).val: a for a in tow.base.elements()}
    out = set()
    for pt in w.points():
        for s in tow.top.elements():
            if not s:
                continue
            scaled = [s * x for x in pt]
            if all(x.val in embedded for x in scaled):
                down = tuple(embedded[x.val] for x in scaled)
                lead = next(x for x in down if x)
                inv = lead.inverse()
                out.add(tuple((inv * x).val for x in down))
                break
    return out


def test_rationalize_against_brute_force():
    t = tower(2, 2, 2)
    g = t.top.generator()
    for point in ([t.top.one, g, g ** 2, g ** 3],
                  [t.top.one, g ** 7, g ** 3, g ** 11],
                  [g, g ** 2, t.top.one, g ** 9],
                  [g ** 5, g ** 10, t.top.one, t.top.zero]):
        got = field_reduction(t, point)
        points = set(tuple(x.val for x in p) for p in got.points())
        assert points == brute_rational_points(conjugate_span(t, point), t)


def test_rationalize_rational_line_and_errors():
    t = tower(5, 1, 2)
    v = [t.top(3), t.top(1), t.top(4), t.top(0)]
    rat = field_reduction(t, v)
    assert rat.rank == 1
    assert [x.val for x in rat.rows[0]] == [1, 2, 3, 0]  # normalized form of v
    with pytest.raises(FieldMismatchError):
        field_reduction(t, [t.base(1), t.base(0), t.base(0), t.base(0)])


def test_rationalize_commutes_with_rational_projectivities():
    t = tower(2, 2, 2)
    rng = random.Random(59)
    g = t.top.generator()
    v = [t.top.one, g, g ** 2, g ** 3]
    for _ in range(5):
        m_base = rand_invertible(t.base, 4, rng)
        m_top = [[t.lift(x) for x in row] for row in m_base]
        lhs = field_reduction_ints(t, vec_mat_ints(t.top, [x.val for x in v],
                                                   columns(m_top)))
        rhs = apply_projectivity(m_base, field_reduction(t, v))
        assert lhs == rhs


def test_apply_projectivity_basics():
    rng = random.Random(61)
    s = rand_subspace(F5, 4, 2, rng)
    assert apply_projectivity(identity(F5, 4), s) == s
    m = rand_invertible(F5, 4, rng)
    m_inv = [F5.wrap(r) for r in inverse_ints(F5, [[x.val for x in r] for r in m])]
    assert apply_projectivity(m_inv, apply_projectivity(m, s)) == s
    singular = [[F5(1), F5(2), F5(0), F5(0)]] * 4
    with pytest.raises(SingularMatrixError):
        apply_projectivity(singular, s)


def test_canonical_spread_partitions_space():
    # every point of PG(hk-1, q) lies in exactly one spread element
    for (p, e, h, k) in [(2, 1, 2, 2), (3, 1, 2, 2), (2, 2, 2, 2),
                         (2, 1, 3, 2), (2, 1, 2, 3), (3, 1, 3, 2),
                         (3, 1, 2, 3), (2, 2, 3, 2), (2, 2, 2, 3)]:
        t = tower(p, e, h)
        s = canonical_spread(t, k)
        n = h * k
        covered = {}
        count = 0
        for elem in s.elements():
            count += 1
            assert elem.rank == h
            for pt in elem.points():
                key = tuple(x.val for x in pt)
                assert key not in covered, "point in two spread elements"
                covered[key] = True
        assert count == (t.q ** n - 1) // (t.q ** h - 1)
        assert len(covered) == (t.q ** n - 1) // (t.q - 1)


def test_spread_elements_follow_director_point_order():
    # director points with leading coordinate 1, free tail after it,
    # leading position ascending
    for s in (canonical_spread(tower(5, 1, 2), 2), block_spread(tower(2, 1, 2), 3)):
        top = s.tow.top
        expect = []
        for lead in range(s.k):
            for tail in itertools.product(top.elements(), repeat=s.k - lead - 1):
                expect.append(s.element_through([top.zero] * lead + [top.one]
                                                + list(tail)))
        assert list(s.elements()) == expect


def test_spread_frame_validation():
    t = tower(5, 1, 2)
    top = t.top
    with pytest.raises(ValueError):
        Spread(t, 2, [[top.one, top.zero, top.zero, top.zero]])  # wrong row count
    # a frame whose conjugates cannot span: both rows rational
    rows = [[top.one, top.zero, top.zero, top.zero],
            [top.zero, top.one, top.zero, top.zero]]
    with pytest.raises(ValueError):
        Spread(t, 2, rows)


def test_block_spread_matches_block_coordinates():
    # the element through y must consist exactly of the vectors whose
    # per-block coordinates are a top-field multiple of y
    for (p, e, h, k) in [(2, 1, 2, 2), (5, 1, 2, 2), (2, 2, 2, 2)]:
        t = tower(p, e, h)
        b = t.normal_basis()
        s = block_spread(t, k)
        top = t.top

        def blocks(vec):
            out = []
            for i in range(k):
                acc = top.zero
                for j in range(h):
                    acc = acc + t.lift(vec[i * h + j]) * b[j]
                out.append(acc)
            return out

        for y in ([top.one, top.zero], [top.zero, top.one],
                  [top.one, top.generator()], [top.generator(), top.one]):
            elem = s.element_through(y)
            expect = set()
            for cand in itertools.product(t.base.elements(), repeat=h * k):
                if not any(cand):
                    continue
                bl = blocks(list(cand))
                # proportional to y over the top field?
                wit = next((i for i, c in enumerate(y) if c), None)
                if not bl[wit]:
                    continue
                ratio = bl[wit] * y[wit].inverse()
                if all(bl[i] == ratio * y[i] for i in range(k)):
                    lead = next(x for x in cand if x)
                    inv = lead.inverse()
                    expect.add(tuple((inv * x).val for x in cand))
            got = set(tuple(x.val for x in pt) for pt in elem.points())
            assert got == expect


def test_point_coordinates_refuses_a_point_of_another_length():
    t = tower(5, 1, 2)
    s = canonical_spread(t, 2)
    pt = [t.top(v) for v in (1, 5, 7, 9)]
    assert [x.val for x in s.point_coordinates(pt)] == [1, 5]
    # cut to 3 entries or padded to 5, the point once read as (1, 5)
    for bad in (pt[:3], pt + [t.top.zero]):
        with pytest.raises(ValueError, match="right-hand side has %d entries, "
                                             "the matrix 4 rows" % len(bad)):
            s.point_coordinates(bad)


def test_spread_membership():
    t = tower(5, 1, 2)
    s = canonical_spread(t, 2)
    top = t.top
    # members by construction
    for y in ([top.one, top.zero], [top.one, top(7)], [top(3), top.one]):
        assert spread_membership(s.element_through(y), s)
    # a coordinate line is not a member here
    line = span([[F5(1), F5(0), F5(0), F5(0)], [F5(0), F5(1), F5(0), F5(0)]])
    assert not spread_membership(line, s)
    with pytest.raises(ValueError):
        spread_membership(span([[F5(1), F5(0), F5(0), F5(0)]]), s)


def test_spread_membership_matches_intersection():
    # the one-rank test against the lifted subspace meeting the director
    rng = random.Random(17)
    for (p, e, h, k) in [(5, 1, 2, 2), (2, 2, 2, 2), (3, 1, 3, 2), (2, 1, 2, 3)]:
        t = tower(p, e, h)
        for s in (canonical_spread(t, k), block_spread(t, k)):
            members = list(s.elements())
            candidates = list(members)
            while len(candidates) < 2 * len(members):
                w = rand_subspace(t.base, h * k, h, rng)
                if w.rank == h:
                    candidates.append(w)
            verdicts = [spread_membership(w, s) for w in candidates]
            assert verdicts == [intersect(lift_subspace(w, t), s.director).rank > 0
                                for w in candidates]
            assert any(verdicts) and not all(verdicts)


def test_spread_point_coordinates_roundtrip():
    t = tower(2, 2, 2)
    s = canonical_spread(t, 2)
    top = t.top
    g = top.generator()
    for y in ([top.one, g], [g ** 3, top.one], [top.one, top.zero]):
        pt = s.embed_point(y)
        back = s.point_coordinates(pt)
        assert back == list(y)



def test_spread_family_forms_match_the_per_point_form():
    # elements() and elements_through() reduce all their director points
    # by one field_reduction_family; each member must be the element
    # through its point, the field reduction of the point embedded in
    # FieldElement arithmetic
    for p, e, h in [(5, 1, 2), (2, 2, 2), (3, 1, 3)]:
        t = tower(p, e, h)
        top = t.top
        for make in (block_spread, canonical_spread):
            for k in (2, 3):
                s = make(t, k)
                frame = [top.wrap(r) for r in s.frame]
                points = [list(pt) for pt in ambient_space(top, k).points()]
                per_point = []
                for c in points:
                    vec = [sum((x * r[j] for x, r in zip(c, frame)), top.zero)
                           for j in range(h * k)]
                    assert s.embed_point(c) == vec
                    per_point.append(s.element_through(c))
                    assert per_point[-1] == field_reduction(t, vec)
                assert s.elements() == per_point
                assert s.elements_through(points) == per_point
                assert s.elements_through([]) == []
    s = block_spread(tower(5, 1, 2), 2)
    with pytest.raises(FieldMismatchError, match="frame coordinates must lie in"):
        s.embed_point([F5(1), F5(0)])
    with pytest.raises(ValueError, match="need k frame coordinates"):
        s.elements_through([[s.tow.top.zero] * 2])

# -- int rows against FieldElement references --------------------------------

DIFF_FIELDS = (GF.get(7, 1), GF.get(2, 3), GF.get(3, 2))


def reference_rref(rows):
    """Gauss-Jordan on FieldElements, topmost pivot first: the canonical
    reduced rows and their pivot columns."""
    rows = [list(r) for r in rows]
    out, pivots = [], []
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in rows if r[col]), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        inv = pivot[col].inverse()
        pivot = [inv * x for x in pivot]
        rows = [[x - r[col] * y for x, y in zip(r, pivot)] for r in rows]
        out = [[x - r[col] * y for x, y in zip(r, pivot)] for r in out]
        out.append(pivot)
        pivots.append(col)
    return out, pivots


def rand_rows(fld, ambient, nrows, rng):
    """Random rows with planted dependencies: zero rows and sums of
    multiples of earlier rows."""
    rows = []
    for _ in range(nrows):
        kind = rng.randrange(4)
        if kind == 0:
            rows.append([fld.zero] * ambient)
        elif kind == 1 and rows:
            a, b = rng.choice(rows), rng.choice(rows)
            c = fld(rng.randrange(fld.order))
            rows.append([x + c * y for x, y in zip(a, b)])
        else:
            rows.append([fld(rng.randrange(fld.order)) for _ in range(ambient)])
    return rows


def test_int_and_element_constructors_agree():
    rng = random.Random(71)
    for fld in DIFF_FIELDS:
        for _ in range(40):
            ambient = rng.randrange(1, 7)
            rows = rand_rows(fld, ambient, rng.randrange(0, 6), rng)
            s = Subspace(fld, ambient, rows)
            t = Subspace.from_ints(fld, ambient, [[x.val for x in r] for r in rows])
            assert s == t and hash(s) == hash(t)
            assert s.rows == t.rows and s.pivots == t.pivots
            assert s.int_rows == tuple(tuple(x.val for x in r) for r in s.rows)
            red, pivots = reference_rref(rows)
            assert [list(r) for r in s.rows] == red
            assert list(s.pivots) == pivots
            assert all(x.field is fld for r in s.rows for x in r)


def test_subspace_refuses_entries_from_another_field():
    f5, f7 = GF.get(5, 1), GF.get(7, 1)
    with pytest.raises(FieldMismatchError):
        Subspace(f7, 2, [[f5(1), f5(3)]])
    with pytest.raises(FieldMismatchError):
        Subspace(f7, 2, [[f7(1), f7(3)], [f7(0), f5(1)]])
    with pytest.raises(ValueError):
        Subspace(f7, 3, [[f7(1), f7(3)]])
    line = Subspace(f7, 2, [[f7(1), f7(3)]])
    with pytest.raises(FieldMismatchError):
        line.contains([f5(1), f5(3)])


def test_field_reduction_is_the_span_of_normal_coordinate_rows():
    rng = random.Random(73)
    for p, e, h in [(7, 1, 2), (2, 3, 2), (3, 2, 2), (7, 1, 3)]:
        t = tower(p, e, h)
        top = t.top
        for _ in range(25):
            n = rng.randrange(1, 7)
            vec = [top(rng.randrange(top.order)) for _ in range(n)]
            if rng.randrange(3) == 0:
                # entries in the embedded base field: rank 1
                vec = [t.lift(t.base(rng.randrange(t.q))) for _ in range(n)]
            coords = [t.normal_coords(x) for x in vec]
            rows = [[c[i] for c in coords] for i in range(h)]
            assert field_reduction(t, vec) == Subspace(t.base, n, rows)


def test_apply_projectivity_matches_element_product():
    rng = random.Random(79)
    for fld in DIFF_FIELDS:
        for _ in range(20):
            n = rng.randrange(1, 6)
            s = Subspace(fld, n, rand_rows(fld, n, rng.randrange(0, n + 1), rng))
            m = rand_invertible(fld, n, rng)
            got = apply_projectivity(m, s)
            # r * M^T, entry by entry on elements
            image = [[functools.reduce(operator.add, map(operator.mul, r, row))
                      for row in m] for r in s.rows]
            assert got == Subspace(fld, n, image)


def test_apply_projectivity_refuses_wrong_shapes():
    f7 = GF.get(7, 1)
    line = Subspace(f7, 2, [[f7(1), f7(3)]])
    for m, got in (([[f7(1), f7(0), f7(0)], [f7(0), f7(1), f7(0)]], "2 x 3"),
                   ([[f7(1), f7(0)], [f7(0), f7(1)], [f7(0), f7(0)]], "3 x 2"),
                   ([[f7(1), f7(0)], [f7(0)]], "2 x 1")):
        with pytest.raises(ValueError, match="needs a 2 x 2 matrix, got %s" % got):
            apply_projectivity(m, line)
    with pytest.raises(FieldMismatchError):
        apply_projectivity(identity(GF.get(5, 1), 2), line)


def test_subspace_refuses_an_ambient_dimension_below_one():
    # PG(-1) holds no point; such a subspace used to build, and
    # certify-ci then reported a point of length 1 as an extra zero
    f5 = GF.get(5, 1)
    for n in (0, -1):
        with pytest.raises(ValueError, match="ambient_dim must be at least 1, "
                                             "found %d" % n):
            Subspace(f5, n, [])
        with pytest.raises(ValueError, match="ambient_dim must be at least 1, "
                                             "found %d" % n):
            ambient_space(f5, n)
    assert Subspace(f5, 1, [[f5.one]]).rank == 1


def test_empty_vectors_and_spaces_are_refused_on_every_path():
    # PG(-1) from an empty vector or empty int rows: field reduction
    # used to build it
    with pytest.raises(ValueError, match="ambient_dim must be at least 1, found 0"):
        field_reduction(tower(2, 2, 2), [])
    with pytest.raises(ValueError, match="ambient_dim must be at least 1, found 0"):
        field_reduction_ints(tower(2, 2, 2), [])
    with pytest.raises(ValueError, match="ambient_dim must be at least 1, found 0"):
        Subspace.from_ints(GF.get(2, 2), 0, [])


# -- the checked path: canonical rows kept, any others reduced ----------------

CHECKED_FIELDS = (GF.get(2, 1), GF.get(7, 1), GF.get(2, 3), GF.get(3, 2))


def count_reductions(monkeypatch):
    """A list that grows by one entry per ``rref_ints`` call that
    ``Subspace`` makes."""
    calls = []

    def counting(field, mat):
        calls.append(len(mat))
        return rref_ints(field, mat)

    monkeypatch.setattr(projgeo, "rref_ints", counting)
    return calls


def assert_checked_matches_rref(fld, n, rows):
    sub = Subspace.from_ints(fld, n, rows)
    red, pivots = rref_ints(fld, [list(r) for r in rows])
    assert sub.int_rows == tuple(map(tuple, red))
    assert sub.pivots == tuple(pivots)
    assert sub == Subspace(fld, n, [fld.wrap(r) for r in rows])
    return sub


def random_canonical_rows(fld, pivots, n, rng):
    """The reduced int rows of a random subspace with the given pivot
    columns."""
    return [[1 if j == c else
             rng.randrange(fld.order) if j > c and j not in pivots else 0
             for j in range(n)] for c in pivots]


def test_checked_path_matches_rref_on_random_rows():
    rng = random.Random(83)
    for fld in CHECKED_FIELDS:
        for n in range(1, 7):
            for nrows in range(n + 2):
                for _ in range(4):
                    rows = [[rng.randrange(fld.order) for _ in range(n)]
                            for _ in range(nrows)]
                    assert_checked_matches_rref(fld, n, rows)
                    if rows:
                        # the same rows with each leading entry set to 1
                        for r in rows:
                            lead = next((j for j, x in enumerate(r) if x), None)
                            if lead is not None:
                                r[lead] = 1
                        assert_checked_matches_rref(fld, n, rows)


def test_canonical_rows_are_kept_without_a_reduction(monkeypatch):
    # every pivot pattern of every rank, rank 0 and full rank included,
    # as lists and as tuples
    calls = count_reductions(monkeypatch)
    rng = random.Random(89)
    for fld in CHECKED_FIELDS:
        for n in range(1, 7):
            for rank_ in range(n + 1):
                for pivots in itertools.combinations(range(n), rank_):
                    rows = random_canonical_rows(fld, pivots, n, rng)
                    sub = assert_checked_matches_rref(fld, n, rows)
                    assert sub.int_rows == tuple(map(tuple, rows))
                    assert Subspace.from_ints(fld, n, tuple(map(tuple, rows))) == sub
    assert calls == []


def near_canonical(fld, pivots, n, rng):
    """Rows one change away from reduced echelon form, with the change's
    name: a non-unit pivot, a nonzero above a later pivot, a nonzero
    before a leading 1, two rows swapped, or a zero row at the start, in
    the middle or at the end."""
    rows = random_canonical_rows(fld, pivots, n, rng)
    r = rng.randrange(len(rows))
    out = []
    if fld.order > 2:
        bad = [list(x) for x in rows]
        bad[r][pivots[r]] = rng.randrange(2, fld.order)
        out.append(("non-unit pivot", bad))
    if r + 1 < len(rows):
        bad = [list(x) for x in rows]
        bad[r][pivots[rng.randrange(r + 1, len(rows))]] = rng.randrange(1, fld.order)
        out.append(("nonzero above a later pivot", bad))
    # a 1 there would be the row's new leading 1, canonical unless it
    # lies in an earlier pivot column
    if pivots[r] > 0 and fld.order > 2:
        bad = [list(x) for x in rows]
        bad[r][rng.randrange(pivots[r])] = rng.randrange(2, fld.order)
        out.append(("nonzero before a leading 1", bad))
    elif r > 0:
        bad = [list(x) for x in rows]
        bad[r][pivots[r - 1]] = 1
        out.append(("nonzero before a leading 1", bad))
    if len(rows) > 1:
        bad = [list(x) for x in rows]
        bad[r], bad[r - 1] = bad[r - 1], bad[r]
        out.append(("swapped rows", bad))
    zero = [0] * n
    out += [("zero row at the start", [zero] + rows),
            ("zero row in the middle", rows[:r] + [zero] + rows[r:]),
            ("zero row at the end", rows + [zero])]
    return out


def test_rows_one_change_from_canonical_are_reduced(monkeypatch):
    calls = count_reductions(monkeypatch)
    rng = random.Random(97)
    seen = set()
    for fld in CHECKED_FIELDS:
        for n in range(1, 7):
            for rank_ in range(1, n + 1):
                for pivots in itertools.combinations(range(n), rank_):
                    for kind, rows in near_canonical(fld, pivots, n, rng):
                        del calls[:]
                        sub = assert_checked_matches_rref(fld, n, rows)
                        assert sub.int_rows != tuple(map(tuple, rows)), kind
                        assert len(calls) == 2, kind
                        seen.add(kind)
    assert len(seen) == 7


# the arcs grid of the benchmark: (h, k, q) in (2,2,7..16), (2,3,7|8)
# and (3,2,7), as (p, e, h, k)
ARCS_GRID = [(7, 1, 2, 2), (3, 2, 2, 2), (11, 1, 2, 2), (13, 1, 2, 2),
             (2, 4, 2, 2), (7, 1, 2, 3), (2, 3, 2, 3), (7, 1, 3, 2)]


def test_imaginary_families_build_and_load_without_a_reduction(monkeypatch):
    # the imaginary elements come out in reduced form, and a written
    # family, extended or not, holds reduced rows
    calls = count_reductions(monkeypatch)
    for p, e, h, k in ARCS_GRID:
        arc = build_imaginary_arc(tower(p, e, h), k)
        assert calls == []
        for family in (arc, extend_with_osculating(arc)):
            del calls[:]
            doc = jsonio.loads(jsonio.dumps(jsonio.arc_to_dict(family)))
            _, _, elements = jsonio.arc_elements_from_dict(doc)
            assert calls == [] and elements == list(family.elements)


# -- families: one Gauss-Jordan over many members ----------------------------

def assert_family_matches(fld, n, mats):
    """``Subspace.family`` against ``from_ints`` member by member: rows,
    pivots, hash and equality."""
    got = Subspace.family(fld, n, mats)
    ref = [Subspace.from_ints(fld, n, m) for m in mats]
    assert [(s.int_rows, s.pivots, hash(s)) for s in got] == [
        (s.int_rows, s.pivots, hash(s)) for s in ref]
    assert got == ref
    return got


def other_basis(fld, rows, rng):
    """The same row space on the basis L*U*rows, for L lower and U upper
    triangular with nonzero diagonals: every leading minor is nonzero,
    so Gauss-Jordan on the pivots in row order needs no pivot search."""
    r = len(rows)
    def triangular(lower):
        return [[rng.randrange(1, fld.order) if i == j else
                 rng.randrange(fld.order) if (j < i) == lower else 0
                 for j in range(r)] for i in range(r)]
    for m in (triangular(False), triangular(True)):
        rows = [vec_mat_ints(fld, c, rows) for c in m]
    return rows


def test_family_on_other_bases_reduces_without_a_member_reduction(monkeypatch):
    # a canonical first member predicts the pivots of every other basis of
    # a subspace with its pivots, and no member is reduced alone
    calls = count_reductions(monkeypatch)
    rng = random.Random(101)
    for fld in CHECKED_FIELDS:
        for n in range(1, 6):
            for rank_ in range(1, n + 1):
                for pivots in itertools.combinations(range(n), rank_):
                    first = random_canonical_rows(fld, pivots, n, rng)
                    mats = [first] + [other_basis(fld, random_canonical_rows(
                        fld, pivots, n, rng), rng) for _ in range(3)]
                    del calls[:]
                    Subspace.family(fld, n, mats)
                    assert calls == []
                    assert_family_matches(fld, n, mats)
    # canonical members of every pivot pattern, mixed ranks in one call:
    # a member that misses the first member's pivots is kept as it is
    for fld in CHECKED_FIELDS:
        for n in range(1, 5):
            mats = [random_canonical_rows(fld, pivots, n, rng) for rank_ in range(n + 1)
                    for pivots in itertools.combinations(range(n), rank_)]
            rng.shuffle(mats)
            del calls[:]
            Subspace.family(fld, n, mats)
            assert calls == []
            assert_family_matches(fld, n, mats)
    # an empty row space, one member per row count
    f7 = GF.get(7, 1)
    assert [s.rank for s in assert_family_matches(f7, 3, [[], [[0] * 3], [[0] * 3] * 2])] == [0] * 3


def test_family_matches_from_ints_on_every_kind_of_member():
    # canonical, near-canonical, rank-deficient and zero rows, mixed row
    # counts in one call, and each kind of member first
    rng = random.Random(103)
    for fld in CHECKED_FIELDS:
        for n in range(1, 6):
            for rank_ in range(1, n + 1):
                for pivots in itertools.combinations(range(n), rank_):
                    rows = random_canonical_rows(fld, pivots, n, rng)
                    combo = vec_mat_ints(fld, [rng.randrange(fld.order) for _ in rows], rows)
                    members = ([rows, other_basis(fld, rows, rng),
                                other_basis(fld, rows, rng) + [combo],
                                [combo] + rows, rows + [[0] * n]]
                               + [bad for _, bad in near_canonical(fld, pivots, n, rng)])
                    for first in range(len(members)):
                        mats = members[first:] + members[:first]
                        assert_family_matches(fld, n, mats)
                        assert_family_matches(fld, n, mats[:2])
                        assert_family_matches(fld, n, mats[:1])
                    rng.shuffle(members)
                    assert_family_matches(fld, n, members)
    assert Subspace.family(GF.get(2, 1), 3, []) == []
    with pytest.raises(ValueError, match="ambient_dim must be at least 1, found 0"):
        Subspace.family(GF.get(2, 1), 0, [[]])


def test_family_matches_from_ints_on_random_rows():
    rng = random.Random(107)
    for fld in CHECKED_FIELDS:
        for n in range(1, 6):
            for _ in range(20):
                mats = [[[rng.randrange(fld.order) if rng.random() < 0.7 else 0
                          for _ in range(n)] for _ in range(rng.randrange(n + 2))]
                        for _ in range(rng.randrange(6))]
                assert_family_matches(fld, n, mats)


def test_field_reduction_family_matches_per_column_reductions():
    # the family reads coordinates through the tower's normal_lookup: one
    # table on GF(16) and GF(81), normal_ints on GF(343) and GF(4096),
    # whose coordinates come from two chunk tables; columns of top
    # encodings, of embedded base encodings and of zeros
    rng = random.Random(113)
    for t in (tower(2, 2, 2), tower(3, 2, 2), tower(7, 1, 3), tower(2, 6, 2)):
        for n in (1, 3, 6):
            cols = [[rng.randrange(t.top.order) for _ in range(n)] for _ in range(8)]
            cols += [[t.embed_table[rng.randrange(t.q)] for _ in range(n)], [0] * n]
            assert projgeo.field_reduction_family(t, [list(r) for r in zip(*cols)]) == [
                field_reduction_ints(t, c) for c in cols]


def test_family_forms_match_their_one_member_forms():
    # field reduction of many vectors, and a projectivity of many
    # subspaces, member by member
    rng = random.Random(109)
    for t in (tower(2, 1, 2), tower(3, 1, 2), tower(2, 1, 3), tower(2, 2, 2)):
        for n in range(1, 6):
            vecs = [[rng.randrange(t.top.order) for _ in range(n)] for _ in range(6)]
            vecs.append([t.embed_table[rng.randrange(t.q)] for _ in range(n)])
            got = projgeo.field_reduction_family(t, [list(r) for r in zip(*vecs)])
            assert got == [field_reduction_ints(t, v) for v in vecs]
    for fld in CHECKED_FIELDS:
        for n in range(1, 5):
            family = [rand_subspace(fld, n, rng.randrange(n + 1), rng) for _ in range(5)]
            m = rand_invertible(fld, n, rng)
            assert projgeo.apply_projectivity_family(m, family) == [
                apply_projectivity(m, w) for w in family]
    f5 = GF.get(5, 1)
    with pytest.raises(ValueError, match="subspaces live in different spaces"):
        projgeo.apply_projectivity_family(identity(f5, 2), [Subspace(f5, 2, []),
                                                            Subspace(f5, 3, [])])
