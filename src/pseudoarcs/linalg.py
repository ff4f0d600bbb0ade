"""Dense exact linear algebra over finite-field elements.

Matrices are plain lists of lists.  Entries only need +, -, *, unary -,
``inverse()``, truthiness (nonzero test) and a ``field`` attribute exposing
``zero`` and ``one``, so this module stays independent of the field
implementation.  Everything is deterministic: pivots are chosen topmost
first, never by magnitude.
"""

from __future__ import annotations


class SingularMatrixError(ValueError):
    """Raised when a linear system has no unique solution."""


def identity(field, n):
    z, o = field.zero, field.one
    return [[o if i == j else z for j in range(n)] for i in range(n)]


def transpose(rows):
    return [list(col) for col in zip(*rows)]


def mat_mul(a, b):
    bt = transpose(b)
    out = []
    for row in a:
        out_row = []
        for col in bt:
            acc = row[0] * col[0]
            for x, y in zip(row[1:], col[1:]):
                acc = acc + x * y
            out_row.append(acc)
        out.append(out_row)
    return out


def mat_vec(a, v):
    out = []
    for row in a:
        acc = row[0] * v[0]
        for x, y in zip(row[1:], v[1:]):
            acc = acc + x * y
        out.append(acc)
    return out


def rref(rows):
    """Reduced row echelon form.

    Returns (reduced nonzero rows, pivot column list).  The result is the
    canonical basis of the row space: leading entries are 1, pivot columns
    are cleared above and below, zero rows are dropped.
    """
    mat = [list(r) for r in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if mat[i][c]:
                pr = i
                break
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = mat[r][c].inverse()
        mat[r] = [x * inv for x in mat[r]]
        prow = mat[r]
        for i in range(nrows):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], prow)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return mat[:r], pivots


def rank(rows):
    if not rows:
        return 0
    return len(rref(rows)[0])


def nullspace(rows, ncols=None, field=None):
    """Canonical basis of the right kernel {x : rows * x = 0}.

    For an empty row list, ``ncols`` and ``field`` must be given; the result
    is then the standard basis.
    """
    if rows:
        ncols = len(rows[0])
        field = rows[0][0].field
    if ncols is None or field is None:
        raise ValueError("nullspace of an empty matrix needs ncols and field")
    if not rows:
        return identity(field, ncols)
    red, pivots = rref(rows)
    pivot_set = set(pivots)
    basis = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        v = [field.zero] * ncols
        v[fc] = field.one
        for i, pc in enumerate(pivots):
            v[pc] = -red[i][fc]
        basis.append(v)
    return basis


def det(rows):
    n = len(rows)
    if n == 0:
        raise ValueError("determinant of an empty matrix")
    if any(len(r) != n for r in rows):
        raise ValueError("determinant needs a square matrix")
    field = rows[0][0].field
    mat = [list(r) for r in rows]
    result = field.one
    negate = False
    for c in range(n):
        pr = None
        for i in range(c, n):
            if mat[i][c]:
                pr = i
                break
        if pr is None:
            return field.zero
        if pr != c:
            mat[c], mat[pr] = mat[pr], mat[c]
            negate = not negate
        pivot = mat[c][c]
        result = result * pivot
        inv = pivot.inverse()
        prow = mat[c]
        for i in range(c + 1, n):
            if mat[i][c]:
                f = mat[i][c] * inv
                mat[i] = [a - f * b for a, b in zip(mat[i], prow)]
    return -result if negate else result


def solve(a, b):
    """Solve a*x = b for square nonsingular a."""
    n = len(a)
    aug = [list(row) + [bi] for row, bi in zip(a, b)]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        raise SingularMatrixError("matrix is singular")
    return [red[i][n] for i in range(n)]


def solve_rect(a, b):
    """Solve a*x = b for a an m x n matrix of full column rank n.

    Raises SingularMatrixError when the columns are dependent or the system
    is inconsistent.
    """
    n = len(a[0])
    aug = [list(row) + [bi] for row, bi in zip(a, b)]
    red, pivots = rref(aug)
    if n in pivots:
        raise SingularMatrixError("inconsistent system")
    if pivots != list(range(n)):
        raise SingularMatrixError("columns are linearly dependent")
    return [red[i][n] for i in range(n)]


def inverse(a):
    n = len(a)
    field = a[0][0].field
    aug = [list(row) + ident_row for row, ident_row in zip(a, identity(field, n))]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        raise SingularMatrixError("matrix is singular")
    return [row[n:] for row in red]
