"""Exact linear algebra over field towers, checked against brute force."""

import itertools
import random

import pytest

from pseudoarcs.gf import GF, tower
from pseudoarcs.linalg import (SingularMatrixError, det, inverse_ints,
                               nullspace_ints, rank_ints, rref, solve,
                               vec_mat_ints)

F5 = GF.get(5, 1)
F4 = GF.get(2, 2)
F9 = GF.get(3, 2)   # odd extension: sums through Zech logs
F8 = GF.get(2, 3)


def rand_matrix(fld, m, n, rng):
    return [[fld(rng.randrange(fld.order)) for _ in range(n)] for _ in range(m)]


def ints(rows):
    """The encodings of a FieldElement matrix."""
    return [[x.val for x in r] for r in rows]


def mat_mul(fld, a, b):
    """The product of two int matrices: row i is the combination of the
    rows of ``b`` by row i of ``a``."""
    return [vec_mat_ints(fld, row, b) for row in a]


def mat_vec(fld, a, x):
    """An int matrix times an int column vector: the combination of the
    columns of ``a`` by the entries of ``x``."""
    return vec_mat_ints(fld, x, [list(col) for col in zip(*a)])


def unit_matrix(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def brute_rank(rows, fld):
    """Rank as the size of the row space, counted exhaustively."""
    if not rows:
        return 0
    span = {tuple(x.val for x in [fld.zero] * len(rows[0]))}
    for r in rows:
        new = set(span)
        for c in fld.elements():
            scaled = [c * x for x in r]
            for s in span:
                new.add(tuple((fld(v) + x).val for v, x in zip(s, scaled)))
        span = new
    n = len(span)
    r = 0
    while fld.order ** r < n:
        r += 1
    return r


def test_rref_canonical_form():
    rows = [[F5(2), F5(4), F5(1)], [F5(1), F5(2), F5(3)]]
    red, pivots = rref(rows)
    # leading entries are 1, pivot columns are cleared
    for r, p in zip(red, pivots):
        assert r[p].val == 1
        for other in red:
            if other is not r:
                assert other[p].val == 0
    # same row space regardless of presentation order
    red2, _ = rref(rows[::-1])
    assert [[x.val for x in r] for r in red] == [[x.val for x in r] for r in red2]


def test_rref_drops_zero_rows():
    rows = [[F5(1), F5(2)], [F5(2), F5(4)], [F5(0), F5(0)]]
    red, pivots = rref(rows)
    assert len(red) == 1 and pivots == [0]


def expansion_det(a, fld):
    """Determinant as the signed sum over permutations."""
    n = len(a)
    total = fld.zero
    for perm in itertools.permutations(range(n)):
        sgn = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sgn = -sgn
        term = fld.one if sgn == 1 else -fld.one
        for i in range(n):
            term = term * a[i][perm[i]]
        total = total + term
    return total


def test_rank_matches_brute_force():
    rng = random.Random(11)
    for fld in (F5, F4, F9, F8):
        for m, n in [(2, 3), (3, 3), (3, 2), (4, 4)]:
            for _ in range(8):
                a = rand_matrix(fld, m, n, rng)
                assert rank_ints(fld, ints(a)) == brute_rank(a, fld)


def test_det_by_permutation_expansion():
    rng = random.Random(3)
    for fld in (F5, F4, F9, F8):
        for n in (1, 2, 3, 4):
            for _ in range(10):
                a = rand_matrix(fld, n, n, rng)
                assert det(a) == expansion_det(a, fld)


def test_fields_without_tables():
    # orders above the exp/log table limit take the plain int methods;
    # rank is the largest order of a nonvanishing minor
    rng = random.Random(29)
    for fld in (GF.get(2, 17), GF.get(3, 11)):
        for m, n in [(2, 2), (3, 3), (2, 4), (3, 4)]:
            for _ in range(4):
                a = rand_matrix(fld, m, n, rng)
                if rng.random() < 0.5:
                    a[-1] = [fld(3) * x for x in a[0]]
                if m == n:
                    assert det(a) == expansion_det(a, fld)
                expect = 0
                for r in range(1, m + 1):
                    for rs in itertools.combinations(range(m), r):
                        for cs in itertools.combinations(range(n), r):
                            minor = [[a[i][j] for j in cs] for i in rs]
                            if expansion_det(minor, fld):
                                expect = r
                assert rank_ints(fld, ints(a)) == expect


def test_det_multiplicative():
    rng = random.Random(5)
    for _ in range(20):
        a = rand_matrix(F5, 3, 3, rng)
        b = rand_matrix(F5, 3, 3, rng)
        ab = [F5.wrap(r) for r in mat_mul(F5, ints(a), ints(b))]
        assert det(ab) == det(a) * det(b)


def test_nullspace_against_exhaustive_kernel():
    rng = random.Random(17)
    for fld in (F5, F4, F9, F8):
        for m, n in [(2, 4), (3, 3), (4, 2)]:
            for _ in range(6):
                a = rand_matrix(fld, m, n, rng)
                basis = nullspace_ints(fld, ints(a), n)
                assert len(basis) == n - rank_ints(fld, ints(a))
                for v in basis:
                    assert not any(mat_vec(fld, ints(a), v))
                # count: kernel has exactly order^(n - rank) vectors
                kernel = 0
                for vec in itertools.product(range(fld.order), repeat=n):
                    if not any(mat_vec(fld, ints(a), vec)):
                        kernel += 1
                assert kernel == fld.order ** len(basis)


def test_nullspace_empty_matrix_is_full_space():
    assert nullspace_ints(F5, [], 3) == unit_matrix(3)


def test_solve_and_inverse():
    rng = random.Random(23)
    done = 0
    while done < 15:
        a = rand_matrix(F5, 3, 3, rng)
        if det(a).val == 0:
            with pytest.raises(SingularMatrixError):
                inverse_ints(F5, ints(a))
            continue
        b = [F5(rng.randrange(5)) for _ in range(3)]
        x = solve(a, b)
        assert mat_vec(F5, ints(a), ints([x])[0]) == ints([b])[0]
        assert mat_mul(F5, ints(a), inverse_ints(F5, ints(a))) == unit_matrix(3)
        done += 1


def test_inverse_refuses_non_square_matrices():
    for a, got in (([[1, 0, 0], [0, 1, 0]], "2 x 3"),
                   ([[1, 0], [0, 1], [0, 0]], "3 x 2"),
                   ([], "0 x 0")):
        with pytest.raises(ValueError, match="square matrix, got %s" % got):
            inverse_ints(F5, a)


def test_solve_rect_tall_system():
    # overdetermined but consistent: 4 equations, 2 unknowns, rank 2
    a = [[F5(1), F5(0)], [F5(0), F5(1)], [F5(1), F5(1)], [F5(2), F5(3)]]
    x_true = [F5(3), F5(4)]
    b = F5.wrap(mat_vec(F5, ints(a), [3, 4]))
    assert solve(a, b) == x_true
    with pytest.raises(SingularMatrixError):
        solve([[F5(1), F5(2)], [F5(2), F5(4)]], [F5(1), F5(2)])


def test_solve_refuses_a_right_hand_side_of_another_length():
    a = [[F5(1), F5(0)], [F5(0), F5(1)], [F5(1), F5(1)]]
    for b, got in (([F5(1), F5(2)], 2), ([F5(1), F5(2), F5(3), F5(0)], 4)):
        with pytest.raises(ValueError, match="right-hand side has %d entries, "
                                             "the matrix 3 rows" % got):
            solve(a, b)


def test_works_over_extension_of_tower():
    t = tower(2, 2, 2)
    fld = t.top
    rng = random.Random(9)
    a = rand_matrix(fld, 3, 3, rng)
    while det(a).val == 0:
        a = rand_matrix(fld, 3, 3, rng)
    assert mat_mul(fld, ints(a), inverse_ints(fld, ints(a))) == unit_matrix(3)
