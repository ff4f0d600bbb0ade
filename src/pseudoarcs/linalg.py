"""Dense exact linear algebra over a finite field, on int rows.

A matrix is a list of rows of integer encodings of one GF, and every
routine takes that field first.  The rows are reduced with the row
operations the field hands out (``sub_scaled`` and ``scaled``);
``insert_row`` is the one elimination step, and ``rref_ints``,
``rank_ints``, ``nullspace_ints`` and ``inverse_ints`` are built on it.
``det``, ``rref`` and ``solve`` are the FieldElement entry points: they
unwrap the matrix to int rows once and wrap the result again.
Everything is deterministic: pivots are chosen topmost first, never by
magnitude.
"""

from __future__ import annotations

from . import gf


class SingularMatrixError(ValueError):
    """Raised when a linear system has no unique solution."""


def _unwrap(rows):
    """The field of a matrix with at least one entry, and its int rows."""
    fld = rows[0][0].field
    if any(x.field is not fld for r in rows for x in r):
        raise gf.FieldMismatchError("matrix entries from different fields")
    return fld, [[x.val for x in r] for r in rows]


def reduce_row(field, basis, row):
    """An int row minus its combination of an echelon basis.

    ``basis`` is a list of (pivot, row) pairs, each row with 1 at its
    pivot and 0 at the pivots of the rows before it, so one pass in order
    clears every pivot column.  Rows are never modified in place.
    """
    sub = field.sub_scaled
    for pc, b in basis:
        c = row[pc]
        if c:
            row = sub(row, c, b)
    return row


def insert_row(field, basis, row):
    """Reduce an int row against an echelon basis and append the rest.

    A nonzero remainder is scaled to leading entry 1 and appended to
    ``basis``, its first nonzero column the pivot.  Returns the
    remainder's leading entry, or 0 when ``row`` lies in the span
    (``basis`` is then unchanged).
    """
    row = reduce_row(field, basis, row)
    for pc, c in enumerate(row):
        if c:
            if c != 1:
                row = field.scaled(field.inv(c), row)
            basis.append((pc, row))
            return c
    return 0


def _echelon(fld, mat):
    basis = []
    for r in mat:
        insert_row(fld, basis, r)
    return basis


def rref_ints(field, mat):
    """Reduced row echelon form of int rows over ``field``.

    Returns (reduced nonzero rows, pivot column list): the canonical basis
    of the row space, leading entries 1, pivot columns cleared above and
    below, zero rows dropped.
    """
    basis = _echelon(field, mat)
    # a row has 0 at the pivots of the rows before it; clear the others,
    # latest first, so each row used is already clean
    sub = field.sub_scaled
    for i in range(len(basis) - 1, 0, -1):
        pc, b = basis[i]
        for j in range(i):
            pj, r = basis[j]
            if r[pc]:
                basis[j] = (pj, sub(r, r[pc], b))
    basis.sort(key=lambda entry: entry[0])
    return [r for _, r in basis], [pc for pc, _ in basis]


def rref(rows):
    """Reduced row echelon form of a FieldElement matrix: ``rref_ints``
    on its encodings, wrapped again."""
    if not rows or not rows[0]:
        return [], []
    fld, mat = _unwrap(rows)
    red, pivots = rref_ints(fld, mat)
    return [fld.wrap(r) for r in red], pivots


def rank_ints(field, mat):
    return len(_echelon(field, mat))


def vec_mat_ints(field, v, mat):
    """The int row ``v`` times the int matrix ``mat``: the combination of
    the rows of ``mat`` by the entries of ``v``."""
    sub, neg = field.sub_scaled, field.neg
    w = [0] * len(mat[0])
    for x, row in zip(v, mat):
        if x:
            w = sub(w, neg(x), row)
    return w


def nullspace_ints(field, mat, ncols):
    """Basis of the right kernel of int rows with ``ncols`` columns: one
    vector per free column, 1 there, 0 at the other free columns.  No
    rows give the standard basis."""
    red, pivots = rref_ints(field, mat)
    pivot_set = set(pivots)
    neg = field.neg
    basis = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        v = [0] * ncols
        v[fc] = 1
        for r, pc in zip(red, pivots):
            v[pc] = neg(r[fc])
        basis.append(v)
    return basis


def inverse_ints(field, mat):
    """Inverse of a square int matrix: the right half of ``rref_ints``
    on (M | I).  Raises SingularMatrixError when M is singular."""
    n = len(mat)
    if n == 0 or any(len(r) != n for r in mat):
        raise ValueError("inverse needs a nonempty square matrix, got %d x %d"
                         % (n, next((len(r) for r in mat if len(r) != n), n)))
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(mat)]
    red, pivots = rref_ints(field, aug)
    if pivots != list(range(n)):
        raise SingularMatrixError("matrix is singular")
    return [row[n:] for row in red]


def det(rows):
    n = len(rows)
    if n == 0:
        raise ValueError("determinant of an empty matrix")
    if any(len(r) != n for r in rows):
        raise ValueError("determinant needs a square matrix")
    fld, mat = _unwrap(rows)
    # each step only adds multiples of earlier rows and scales the new one
    # by 1/lead, so det = (product of leads) * det(final), and the final
    # rows form a unitriangular matrix up to the pivot permutation
    basis = []
    result = 1
    for r in mat:
        lead = insert_row(fld, basis, r)
        if not lead:
            return fld.zero
        result = fld.mul(result, lead)
    pivots = [pc for pc, _ in basis]
    odd = sum(a > b for i, a in enumerate(pivots) for b in pivots[i + 1:]) % 2
    return fld.element(fld.neg(result) if odd else result)


def solve(a, b):
    """Solve a*x = b for a an m x n matrix of full column rank n, square
    and nonsingular when m = n.

    Raises SingularMatrixError when the columns are dependent or the system
    is inconsistent, and ValueError when b has not one entry per row.
    """
    if len(b) != len(a):
        raise ValueError("right-hand side has %d entries, the matrix %d rows"
                         % (len(b), len(a)))
    n = len(a[0])
    aug = [list(row) + [bi] for row, bi in zip(a, b)]
    red, pivots = rref(aug)
    if n in pivots:
        raise SingularMatrixError("inconsistent system")
    if pivots != list(range(n)):
        raise SingularMatrixError("columns are linearly dependent")
    return [red[i][n] for i in range(n)]
