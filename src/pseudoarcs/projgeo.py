"""Projective subspaces over a field tower.

A Subspace is the row space of a full-rank matrix in reduced row-echelon
form, so two subspaces are equal exactly when their representations are;
rows handed in are checked for that form, and only others are reduced.
A family is reduced as a whole (``Subspace.family``): one int list per
matrix entry holds that entry for every member, and ``predicted_rref``
runs Gauss-Jordan on the first member's pivots with one row op per
entry for all of them.  Subspaces live at one of the two levels of a
tower: over the base field F_q, or over the extension F_{q^h}.  The
module provides spans, intersections, field reduction of top-level
vectors down to the canonical subgeometry (the normal-basis coordinate
rows of a vector's entries span the rational points of its conjugate
span), projectivities, and Desarguesian spreads with a membership test.
"""

import itertools
from typing import Iterable, List, Sequence

from .gf import FieldElement, FieldMismatchError, FieldTower, GF, InvariantError
from .linalg import (SingularMatrixError, nullspace_ints, rank_ints, reduce_row,
                     rref_ints, solve, vec_mat_ints)


class Subspace:
    """Row space of a matrix over a fixed field, held in canonical
    reduced row-echelon form.  May have rank 0 (the empty subspace).

    The reduced rows are kept as int encodings, with their pivots and
    hash; ``rows`` wraps them as field elements on first use.
    """

    __slots__ = ("field", "ambient_dim", "int_rows", "pivots", "_hash", "_rows")

    def __init__(self, field: GF, ambient_dim: int, rows: Sequence[Sequence[FieldElement]]):
        mat = []
        for r in rows:
            if len(r) != ambient_dim:
                raise ValueError("row length does not match ambient dimension")
            vals = [x.val for x in r if x.field is field]
            if len(vals) != ambient_dim:
                raise FieldMismatchError("subspace rows must have entries in %r" % field)
            mat.append(vals)
        self._reduce(field, ambient_dim, mat)

    @classmethod
    def from_ints(cls, field: GF, ambient_dim: int, rows: Sequence[Sequence[int]]) -> "Subspace":
        """The row space of int rows, each of ``ambient_dim`` encodings
        of ``field``; neither is checked.  The rows are checked, and
        reduced unless already canonical, so no caller can hand in a
        basis that is not canonical."""
        self = cls.__new__(cls)
        self._reduce(field, ambient_dim, rows)
        return self

    @classmethod
    def family(cls, field: GF, ambient_dim: int,
               mats: Sequence[Sequence[Sequence[int]]]) -> List["Subspace"]:
        """``[Subspace.from_ints(field, ambient_dim, m) for m in mats]``,
        by :meth:`from_entries`; zero rows, which span nothing, pad every
        member to the most rows."""
        entries = [list(zip(*rows)) for rows in
                   itertools.zip_longest(*mats, fillvalue=(0,) * ambient_dim)]
        return cls.from_entries(field, ambient_dim, entries, len(mats))

    @classmethod
    def from_entries(cls, field: GF, ambient_dim: int,
                     entries: Sequence[Sequence[Sequence[int]]], size: int) -> List["Subspace"]:
        """The row spaces of ``size`` members given entry by entry:
        ``entries[s][j]`` holds entry j of row s of every member.
        :func:`predicted_rref` reduces them all at once, and ``from_ints``
        builds each member it leaves from its nonzero rows."""
        if not size:
            return []
        if ambient_dim < 1:
            raise ValueError("ambient_dim must be at least 1, found %d" % ambient_dim)
        pivots, reduced = predicted_rref(field, ambient_dim, entries, size)
        new, key, out = cls.__new__, (field.p, field.m, ambient_dim), []
        for e, rows in enumerate(reduced):
            if rows is None:
                rows = [[col[e] for col in row] for row in entries]
                sub = cls.from_ints(field, ambient_dim, [r for r in rows if any(r)])
            else:
                sub = new(cls)
                sub.field, sub.ambient_dim, sub.int_rows, sub.pivots, sub._rows = (
                    field, ambient_dim, rows, pivots, None)
                sub._hash = hash((*key, rows))
            out.append(sub)
        return out

    def _reduce(self, field, ambient_dim, mat):
        """Keep int rows that are already in reduced echelon form, and
        reduce any others with ``rref_ints``; the reduced form is unique,
        so both give the same rows.

        One pass over the columns tests the form, r the number of pivots
        found so far: a column that is the unit vector e_r is row r's
        pivot (its leading 1, 0 in every other row), and any other column
        must be 0 in row r and below.  So each row is 0 before its pivot,
        the pivots increase, and a zero row never gets its pivot."""
        if ambient_dim < 1:
            raise ValueError("ambient_dim must be at least 1, found %d" % ambient_dim)
        rank, pivots = len(mat), []
        for j, col in enumerate(zip(*mat)):
            r = len(pivots)
            if r == rank:
                break
            if col[r] == 1 and col.count(0) == rank - 1:
                pivots.append(j)
            elif any(col[r:]):
                break
        if len(pivots) < rank:
            mat, pivots = rref_ints(field, mat)
        self.field = field
        self.ambient_dim = ambient_dim
        self.int_rows = tuple(map(tuple, mat))
        self.pivots = tuple(pivots)
        self._hash = hash((field.p, field.m, ambient_dim, self.int_rows))
        self._rows = None

    @property
    def rows(self):
        if self._rows is None:
            element = self.field.element
            self._rows = tuple(tuple(map(element, r)) for r in self.int_rows)
        return self._rows

    @property
    def rank(self) -> int:
        return len(self.int_rows)

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self._hash == other._hash
                and self.field is other.field
                and self.ambient_dim == other.ambient_dim
                and self.int_rows == other.int_rows)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "Subspace(rank %d in dim %d over GF(%d))" % (
            self.rank, self.ambient_dim, self.field.order)

    def contains(self, vec: Sequence[FieldElement]) -> bool:
        """Membership of a vector in the row space."""
        if len(vec) != self.ambient_dim:
            raise ValueError("vector length does not match ambient dimension")
        if any(x.field is not self.field for x in vec):
            raise FieldMismatchError("vector entries must lie in %r" % self.field)
        return not any(reduce_row(self.field, zip(self.pivots, self.int_rows),
                                  [x.val for x in vec]))

    def points(self):
        """One representative per projective point, normalized so the
        first nonzero coordinate is 1.  (q^rank - 1)/(q - 1) points."""
        element = self.field.element
        for key in self._int_points():
            yield tuple(map(element, key))

    def _int_points(self):
        """The points as int tuples of encodings, in the order of
        :meth:`points`: lead row ascending, then the coefficients of the
        rows after it in ``itertools.product`` order of encodings.

        Coefficient 1 on the lead row and free coefficients after it
        count each point once.  The rows are in reduced echelon form, so
        every such combination has its first nonzero coordinate at the
        lead row's pivot, and that coordinate is 1: the vectors come out
        normalized.
        """
        fld = self.field
        sub, neg = fld.sub_scaled, fld.neg
        rows = self.int_rows
        for lead, first in enumerate(rows):
            rest = rows[lead + 1:]
            for tail in itertools.product(range(fld.order), repeat=len(rest)):
                vec = first
                for c, row in zip(tail, rest):
                    if c:
                        vec = sub(vec, neg(c), row)
                yield tuple(vec)


def predicted_rref(field, n, entries, size):
    """The reduced echelon forms of ``size`` subspaces of F^n given entry
    by entry (``entries[s][j]`` holds entry j of row s of every member),
    by one Gauss-Jordan on the first member's pivots: those pivots, and
    per member its reduced rows, or None where they do not reduce it.

    Row s's pivot is the first column, not yet a pivot, where the first
    member's row s is nonzero (a zero row gets none).  Its step scales
    row s by its lead and clears the column from the other rows, one row
    op over all members.  A member misses on a zero lead, or a row
    nonzero in a non-pivot column before its pivot (anywhere, with no
    pivot).  The others' pivot rows, in pivot order, span their rows and
    are in reduced echelon form, which is unique."""
    inv, neg, scaled, sub_product = field.inv, field.neg, field.scaled, field.sub_product
    zeros = [0] * size
    a = [list(row) for row in entries]
    free, found, missed = list(range(n)), [], set()
    for s, lead_row in enumerate(a):
        for q in free:
            if lead_row[q][0]:
                break
        else:
            continue
        free.remove(q)
        found.append((q, s))
        lead = lead_row[q]
        if 0 in lead:
            missed.update([e for e, v in enumerate(lead) if not v])
            lead = [x or 1 for x in lead]
        if lead.count(lead[0]) == size:
            if lead[0] != 1:
                c = inv(lead[0])
                for j in free:
                    lead_row[j] = scaled(c, lead_row[j])
        else:
            factor = [neg(inv(x)) for x in lead]
            for j in free:
                lead_row[j] = sub_product(zeros, factor, lead_row[j])
        for row in a:
            f = row[q]
            if row is not lead_row and any(f):
                for j in free:
                    row[j] = sub_product(row[j], f, lead_row[j])
    ends = [n] * len(a)
    for q, s in found:
        ends[s] = q
    for row, end in zip(a, ends):
        for j in free:
            if j > end:
                break
            if any(row[j]):
                missed.update([e for e, v in enumerate(row[j]) if v])
    found.sort()
    ones = [1] * size
    reduced = [zip(*[ones if j == q else a[s][j] if j in free else zeros
                     for j in range(n)]) for q, s in found]
    out = list(zip(*reduced)) if found else [()] * size
    for e in missed:
        out[e] = None
    return tuple([q for q, _ in found]), out


def span(points: Iterable[Sequence[FieldElement]]) -> Subspace:
    """Subspace spanned by the given coordinate vectors."""
    pts = [list(p) for p in points]
    if not pts:
        raise ValueError("span of an empty point list; pass a field and use Subspace directly")
    n = len(pts[0])
    if any(len(p) != n for p in pts):
        raise ValueError("vectors of mixed lengths")
    return Subspace(pts[0][0].field, n, pts)


def ambient_space(field: GF, n: int) -> Subspace:
    return Subspace(field, n, [field.wrap(int(i == j) for j in range(n))
                               for i in range(n)])


def join(u: Subspace, w: Subspace) -> Subspace:
    """Smallest subspace containing both."""
    _check_compatible(u, w)
    return Subspace.from_ints(u.field, u.ambient_dim, u.int_rows + w.int_rows)


def intersect(u: Subspace, w: Subspace) -> Subspace:
    """Intersection, via the nullspace of the stacked bases: a kernel
    vector (a | b) with a*U = b*W names a common element."""
    _check_compatible(u, w)
    fld = u.field
    if u.rank == 0 or w.rank == 0:
        return Subspace.from_ints(fld, u.ambient_dim, [])
    neg = fld.neg
    stacked = list(u.int_rows) + [[neg(x) for x in r] for r in w.int_rows]
    kernel = nullspace_ints(fld, list(zip(*stacked)), len(stacked))
    result = Subspace.from_ints(fld, u.ambient_dim,
                                [vec_mat_ints(fld, kv[:u.rank], u.int_rows)
                                 for kv in kernel])
    if result.rank != u.rank + w.rank - join(u, w).rank:
        raise InvariantError("intersection rank breaks the dimension formula")
    return result


def _check_compatible(u: Subspace, w: Subspace):
    if u.field is not w.field or u.ambient_dim != w.ambient_dim:
        raise ValueError("subspaces live in different spaces")


def conjugate_rows(tow: FieldTower, vec: Sequence[FieldElement]) -> List[List[FieldElement]]:
    """The h entrywise Frobenius images of a top-level vector, first the
    vector itself."""
    return [[tow.frobenius(x, i) for x in vec] for i in range(tow.h)]


def lift_subspace(w: Subspace, tow: FieldTower) -> Subspace:
    """View a base-level subspace over the top field (same rows,
    entries embedded)."""
    if w.field is not tow.base:
        raise ValueError("expected a base-level subspace")
    return Subspace(tow.top, w.ambient_dim,
                    [[tow.lift(x) for x in r] for r in w.rows])


def field_reduction(tow: FieldTower, vec: Sequence[FieldElement]) -> Subspace:
    """The base-level subspace of the rational points of the span of a
    top-level vector v and its Frobenius conjugates.

    Row i holds the i-th normal-basis coordinates of the entries of v.
    A rational vector of that span is Tr(mu * v) for some mu, and
    Tr(mu * v) = sum_i Tr(mu * omega^(q^i)) * (row i), where the
    coefficients run over all of F_q^h as mu runs over the top field:
    the rows span exactly the rational points (field reduction), and
    the rank is that of the conjugate span.
    """
    top = tow.top
    if any(x.field is not top for x in vec):
        raise FieldMismatchError("field reduction expects a top-level vector")
    return field_reduction_ints(tow, [x.val for x in vec])


def field_reduction_ints(tow: FieldTower, vals: Sequence[int]) -> Subspace:
    """:func:`field_reduction` of a vector of top-field encodings."""
    coords = [tow.normal_ints(v) for v in vals]
    return Subspace.from_ints(tow.base, len(coords), list(zip(*coords)))


def field_reduction_family(tow: FieldTower, rows: Sequence[Sequence[int]]) -> List[Subspace]:
    """:func:`field_reduction_ints` of every column of int rows of
    top-field encodings, in order: entry (s, j) of column c's reduction
    is the s-th normal-basis coordinate of rows[j][c], so one
    ``normal_ints`` per entry gives all of them entry by entry."""
    normal = tow.normal_ints
    coords = [list(zip(*map(normal, row))) for row in rows]
    return Subspace.from_entries(tow.base, len(rows), list(zip(*coords)),
                                 len(rows[0]) if rows else 0)


def apply_projectivity(matrix: Sequence[Sequence[FieldElement]], w: Subspace) -> Subspace:
    """Image of a subspace under the projectivity of an invertible
    matrix acting on column vectors from the left: each basis row r
    goes to r * M^T."""
    return apply_projectivity_family(matrix, [w])[0]


def apply_projectivity_family(matrix: Sequence[Sequence[FieldElement]],
                              family: Sequence[Subspace]) -> List[Subspace]:
    """:func:`apply_projectivity` of every member of a nonempty family of
    one space, in order: the matrix is checked once, and the images are
    reduced together by ``Subspace.family``."""
    fld, n = family[0].field, family[0].ambient_dim
    if any(w.field is not fld or w.ambient_dim != n for w in family):
        raise ValueError("subspaces live in different spaces")
    if len(matrix) != n or any(len(r) != n for r in matrix):
        raise ValueError("projectivity of a space of dimension %d needs a %d x %d "
                         "matrix, got %d x %d"
                         % (n, n, n, len(matrix),
                            next((len(r) for r in matrix if len(r) != n), n)))
    if any(x.field is not fld for r in matrix for x in r):
        raise FieldMismatchError("projectivity matrix entries must lie in %r" % fld)
    mt = [[x.val for x in col] for col in zip(*matrix)]
    if rank_ints(fld, mt) != n:
        raise SingularMatrixError("projectivity matrix is singular")
    return Subspace.family(fld, n, [[vec_mat_ints(fld, r, mt) for r in w.int_rows]
                                    for w in family])


class Spread:
    """A Desarguesian (h-1)-spread of PG(hk-1, q), presented by a
    director frame: k ordered top-level rows whose span, together with
    all its Frobenius conjugates, fills the whole space.  ``frame``
    keeps those rows as int encodings.

    Every spread element is the field reduction of a point of the
    director space: the rational point set of its conjugate span.
    """

    def __init__(self, tow: FieldTower, k: int, frame: Sequence[Sequence[FieldElement]]):
        frame = [list(r) for r in frame]
        if len(frame) != k:
            raise ValueError("frame must have k rows")
        n = tow.h * k
        if any(len(r) != n for r in frame):
            raise ValueError("frame rows must have length h*k")
        director = Subspace(tow.top, n, frame)
        if director.rank != k:
            raise ValueError("frame rows are dependent")
        stacked = [[x.val for x in r] for row in frame for r in conjugate_rows(tow, row)]
        if rank_ints(tow.top, stacked) != n:
            raise ValueError("director and its conjugates do not span the space")
        self.tow = tow
        self.h = tow.h
        self.k = k
        self.q = tow.q
        self.frame = tuple(tuple(x.val for x in r) for r in frame)
        self.director = director

    def _frame_ints(self, coords: Sequence[FieldElement]) -> List[int]:
        """The encodings of k top-level frame coordinates, not all zero."""
        coords = list(coords)
        if len(coords) != self.k or not any(coords):
            raise ValueError("need k frame coordinates, not all zero")
        if any(x.field is not self.tow.top for x in coords):
            raise FieldMismatchError("frame coordinates must lie in %r" % self.tow.top)
        return [x.val for x in coords]

    def embed_point(self, coords: Sequence[FieldElement]) -> List[FieldElement]:
        """Ambient coordinates of the director point with the given
        frame coordinates (length k, top level, not all zero): the
        frame rows combined by k int row operations."""
        top = self.tow.top
        return top.wrap(vec_mat_ints(top, self._frame_ints(coords), self.frame))

    def point_coordinates(self, point: Sequence[FieldElement]) -> List[FieldElement]:
        """Frame coordinates of an ambient point lying in the director
        space (inverse of embed_point up to scalars)."""
        wrap = self.tow.top.wrap
        return solve([wrap(col) for col in zip(*self.frame)], list(point))

    def element_through(self, coords: Sequence[FieldElement]) -> Subspace:
        """The spread element determined by a director point, given by
        its frame coordinates."""
        top = self.tow.top
        vec = vec_mat_ints(top, self._frame_ints(coords), self.frame)
        return self._checked([field_reduction_ints(self.tow, vec)])[0]

    def elements_through(self, points: Sequence[Sequence[FieldElement]]) -> List[Subspace]:
        """:meth:`element_through` of every director point, in order."""
        return self._family([self._frame_ints(c) for c in points])

    def elements(self) -> List[Subspace]:
        """All (q^(hk) - 1)/(q^h - 1) spread elements, in the point order
        of the director space."""
        return self._family(ambient_space(self.tow.top, self.k)._int_points())

    def _family(self, points) -> List[Subspace]:
        """The elements through director points given as int frame
        coordinates, by one ``field_reduction_family``."""
        top = self.tow.top
        vecs = [vec_mat_ints(top, c, self.frame) for c in points]
        return self._checked(field_reduction_family(self.tow, list(zip(*vecs))))

    def _checked(self, elements: List[Subspace]) -> List[Subspace]:
        """The elements, each checked to have rank h."""
        for element in elements:
            if element.rank != self.h:
                raise InvariantError("spread element of rank %d, expected %d"
                                     % (element.rank, self.h))
        return elements


def canonical_spread(tow: FieldTower, k: int) -> Spread:
    """The reference spread: frame row i has entries 1, theta, ...,
    theta^(h-1) at positions i, i+k, ..., i+(h-1)k, with theta the
    smallest-encoded primitive element of the top field.  Stacking all
    conjugates block-diagonalizes into Moore matrices of the powers of
    theta, which are nonsingular since theta generates the extension."""
    top = tow.top
    theta = top.primitive_element()
    n = tow.h * k
    frame = []
    for i in range(k):
        row = [top.zero] * n
        power = top.one
        for j in range(tow.h):
            row[i + j * k] = power
            power = power * theta
        frame.append(row)
    return Spread(tow, k, frame)


def block_spread(tow: FieldTower, k: int) -> Spread:
    """The spread matching the consecutive-block identification of
    F_q^(hk) with F_{q^h}^k through the normal basis.  Frame row i
    carries the trace-dual basis on block i, which makes
    element_through(y) equal to the set of vectors whose block
    coordinates are proportional to y."""
    dual = tow.dual_basis(list(tow.normal_basis()))
    top = tow.top
    n = tow.h * k
    frame = []
    for i in range(k):
        row = [top.zero] * n
        for j, d in enumerate(dual):
            row[i * tow.h + j] = d
        frame.append(row)
    return Spread(tow, k, frame)


def spread_membership(w: Subspace, spread: Spread) -> bool:
    """True iff the base-level subspace is an element of the spread:
    its top-level extension must meet the director space.  The h lifted
    rows are independent, and so are the k director rows, so the two
    spaces meet exactly when the stack of both has rank less than h + k."""
    tow = spread.tow
    if w.field is not tow.base:
        raise ValueError("expected a base-level subspace")
    if w.rank != spread.h:
        raise ValueError("element of a spread must have rank h")
    embed = tow.embed_table
    lifted = [[embed[x] for x in r] for r in w.int_rows]
    return (rank_ints(tow.top, lifted + list(spread.director.int_rows))
            < spread.h + spread.k)
