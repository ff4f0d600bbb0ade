"""Quadratic forms over the tower fields.

Forms are stored as upper-triangular coefficient vectors (one entry per
monomial x_i x_j with i <= j), which keeps every computation valid in
characteristic 2.  The module computes the linear space of forms
vanishing on a configuration of subspaces, the standard system cutting
out the rational normal curve, the trace composition that turns one
top-level form into base-level forms, and an exhaustive
complete-intersection certificate.
"""

import dataclasses
import functools
import itertools
from typing import List, Optional, Sequence, Tuple

from .gf import FieldElement, FieldMismatchError, FieldTower, GF, InvariantError
from .linalg import insert_row, nullspace_ints, rank_ints, rref_ints
from .projgeo import Subspace


# the most ambient points is_complete_intersection walks unless told otherwise
POINT_BUDGET = 10 ** 6


@functools.lru_cache(maxsize=64)
def _layout(n: int):
    """The pairs of ``monomial_pairs(n)`` as a tuple, and the dict from
    each pair to its position; built once per n and shared, so callers
    only read them."""
    pairs = tuple((i, j) for i in range(n) for j in range(i, n))
    return pairs, {pair: pos for pos, pair in enumerate(pairs)}


def monomial_pairs(n: int) -> List[Tuple[int, int]]:
    """Index pairs (i, j), i <= j, in row-major order; the coefficient
    layout of every form in n variables."""
    return list(_layout(n)[0])


class QuadraticForm:
    """A homogeneous quadratic form sum of c_ij x_i x_j over a fixed
    field."""

    __slots__ = ("field", "n", "coeffs", "terms")

    def __init__(self, field: GF, n: int, coeffs: Sequence[FieldElement]):
        if n < 1:
            raise ValueError("n must be at least 1, found %d" % n)
        coeffs = tuple(coeffs)
        if len(coeffs) != n * (n + 1) // 2:
            raise ValueError("expected %d coefficients" % (n * (n + 1) // 2))
        if any(c.field is not field for c in coeffs):
            raise FieldMismatchError("form coefficients must lie in %r" % field)
        self.field = field
        self.n = n
        self.coeffs = coeffs
        # the nonzero terms (c, i, j) as ints, the input of field.form_value
        self.terms = tuple((c.val, i, j)
                           for c, (i, j) in zip(coeffs, _layout(n)[0]) if c)

    @classmethod
    def zero(cls, field: GF, n: int) -> "QuadraticForm":
        return cls(field, n, [field.zero] * (n * (n + 1) // 2))

    @classmethod
    def from_pairs(cls, field: GF, n: int, entries) -> "QuadraticForm":
        """Build from {(i, j): coefficient} with i <= j."""
        coeffs = [field.zero] * (n * (n + 1) // 2)
        index = _layout(n)[1]
        for pair, c in entries.items():
            if pair not in index:
                raise ValueError("%r is not a monomial (i, j) with 0 <= i <= j < %d"
                                 % (pair, n))
            coeffs[index[pair]] = c if isinstance(c, FieldElement) else field(c)
        return cls(field, n, coeffs)

    def evaluate(self, vec: Sequence[FieldElement]) -> FieldElement:
        if len(vec) != self.n:
            raise ValueError("vector length mismatch")
        fld = self.field
        if any(x.field is not fld for x in vec):
            raise FieldMismatchError("vector entries not in %r" % fld)
        return fld.element(fld.form_value(self.terms, [x.val for x in vec]))

    def __add__(self, other: "QuadraticForm") -> "QuadraticForm":
        if self.field is not other.field or self.n != other.n:
            raise ValueError("forms over different spaces")
        return QuadraticForm(self.field, self.n,
                             [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def scale(self, c: FieldElement) -> "QuadraticForm":
        return QuadraticForm(self.field, self.n, [c * x for x in self.coeffs])

    def __eq__(self, other):
        return (isinstance(other, QuadraticForm) and self.field is other.field
                and self.n == other.n and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.field.p, self.field.m, self.n,
                     tuple(c.val for c in self.coeffs)))

    def __repr__(self):
        terms = []
        for c, (i, j) in zip(self.coeffs, _layout(self.n)[0]):
            if c:
                mono = "x%d^2" % i if i == j else "x%d*x%d" % (i, j)
                terms.append("%d*%s" % (c.val, mono))
        return "QuadraticForm(%s)" % (" + ".join(terms) if terms else "0")


def _conditions(field: GF, pairs, rows) -> List[List[int]]:
    """The h(h+1)/2 linear conditions on a form's coefficients, in the
    layout ``pairs``, for vanishing on the row space of the h int
    ``rows``: Q(r_a) = 0 for every a and B(r_a, r_b) = 0 for a < b."""
    add, mul = field.add, field.mul
    out = []
    for a, r in enumerate(rows):
        out.append([mul(r[i], r[j]) for i, j in pairs])
        # B(r, w) has coefficient r_i w_j + r_j w_i at x_i x_j: 2 r_i w_i
        # on the diagonal, which is 0 in characteristic 2
        for w in rows[a + 1:]:
            out.append([add(mul(r[i], w[j]), mul(r[j], w[i]))
                        for i, j in pairs])
    return out


def vanishing_space(subspaces: Sequence[Subspace], field: Optional[GF] = None,
                    ambient_dim: Optional[int] = None) -> List[QuadraticForm]:
    """Basis of the space of forms vanishing on every point of every
    given subspace.

    Q vanishes on the row space of r_1..r_h exactly when Q(r_a) = 0 for
    every a and the polar form B(r_a, r_b) = Q(r_a + r_b) - Q(r_a) -
    Q(r_b) vanishes for every a < b, since Q(sum l_a r_a) = sum l_a^2
    Q(r_a) + sum_(a<b) l_a l_b B(r_a, r_b) in every characteristic.  So
    each subspace of rank h gives h(h+1)/2 linear conditions, built on
    the int encodings of its reduced rows.  Every subspace's field and
    ambient dimension n are checked first; the conditions are then
    inserted into one echelon basis element by element.  Once that basis
    has rank C(n+1, 2), the number of coefficients, no nonzero form
    vanishes: that rank is the no-quadric certificate, the answer is
    ``[]``, and the later elements are only shape-checked.  Otherwise
    the basis returned is the canonical reduced one of the kernel, which
    depends only on the row space of the conditions.  An empty input
    needs explicit field and dimension and yields the full space.
    """
    subspaces = list(subspaces)
    if subspaces:
        field = subspaces[0].field
        ambient_dim = subspaces[0].ambient_dim
        for s in subspaces:
            if s.field is not field or s.ambient_dim != ambient_dim:
                raise ValueError("subspaces in different spaces")
    elif field is None or ambient_dim is None:
        raise ValueError("empty input needs field and ambient_dim")
    pairs = _layout(ambient_dim)[0]
    basis = []
    for s in subspaces:
        for row in _conditions(field, pairs, s.int_rows):
            insert_row(field, basis, row)
        if len(basis) == len(pairs):
            return []
    kernel = nullspace_ints(field, [row for _, row in basis], len(pairs))
    return [QuadraticForm(field, ambient_dim, field.wrap(row))
            for row in rref_ints(field, kernel)[0]]


def nrc_quadric_system(field: GF, k: int) -> List[QuadraticForm]:
    """The standard forms x_i x_j - x_(i+1) x_(j-1) (1-indexed, with
    i <= j-2) that cut out the rational normal curve; C(k-1, 2) of
    them."""
    if k < 3:
        raise ValueError("need at least 3 variables")
    forms = []
    for j in range(3, k + 1):
        for i in range(1, j - 1):
            entries = {(i - 1, j - 1): field.one}
            lo, hi = min(i, j - 2), max(i, j - 2)
            entries[(lo, hi)] = entries.get((lo, hi), field.zero) - field.one
            forms.append(QuadraticForm.from_pairs(field, k, entries))
    if len(forms) != (k - 1) * (k - 2) // 2:
        raise InvariantError("%d forms in the standard system, expected %d"
                             % (len(forms), (k - 1) * (k - 2) // 2))
    return forms


def trace_reduce(form: QuadraticForm, tow: FieldTower,
                 basis: Sequence[FieldElement], alpha: FieldElement) -> QuadraticForm:
    """The base-level form v -> rel_trace(alpha * Q(v-as-blocks)).

    Blocks of h base coordinates are combined through the given basis
    of the extension field, x_b = sum_s v_(bh+s) beta_s; running alpha
    over a basis yields the full reduced system of a top-level form.
    The trace is F_q-linear, so the coefficient of v_i v_j, for
    i = bh+s <= j = b'h+s', is Tr(alpha c_bb' beta_s beta_s'), doubled
    when b = b' and s < s', where both orders of the pair give the same
    monomial; in characteristic 2 that term is 0.
    """
    basis = list(basis)
    h = tow.h
    if form.field is not tow.top:
        raise ValueError("expected a top-level form")
    if len(basis) != h or rank_ints(
            tow.base, [[tow.rel_trace(a * b).val for b in basis] for a in basis]) != h:
        raise ValueError("not a basis of the extension")
    top_coeffs = dict(zip(_layout(form.n)[0], form.coeffs))
    coeffs = []
    for i, j in _layout(h * form.n)[0]:
        (b, s), (b2, s2) = divmod(i, h), divmod(j, h)
        c = tow.rel_trace(alpha * top_coeffs[(b, b2)] * basis[s] * basis[s2])
        coeffs.append(c + c if b == b2 and s < s2 else c)
    return QuadraticForm(tow.base, h * form.n, coeffs)


@dataclasses.dataclass(frozen=True)
class IntersectionVerdict:
    """Outcome of a complete-intersection check.  `extra` is a point of
    the common zero set outside the configuration; `missed` is a
    configuration point where some form does not vanish.  `scanned`
    counts the ambient points walked, up to and including `extra`: all
    of them when certified, 0 when a configuration point is missed."""

    ok: bool
    extra: Optional[Tuple[int, ...]] = None
    missed: Optional[Tuple[int, ...]] = None
    scanned: int = dataclasses.field(default=0, compare=False)

    def __bool__(self):
        return self.ok


def is_complete_intersection(subspaces: Sequence[Subspace],
                             forms: Sequence[QuadraticForm],
                             max_points: int = POINT_BUDGET) -> IntersectionVerdict:
    """Certify that the common zero set of the forms is exactly the
    union of the subspaces' points, by exhausting the ambient space.

    The ambient space has (q^n - 1)/(q - 1) points, a count guarded by a
    budget (override via max_points).  It is walked plane by plane: the
    points (0, ..., 0, 1, pre, s, t) are P + s u + t e for the prefix
    P = (0, ..., 0, 1, pre, 0, 0), u = e_(n-2) and e = e_(n-1), where a
    form takes the values a_s + b_s t + Q(e) t^2 with
    a_s = Q(P) + s B(P, u) + s^2 Q(u) and b_s = B(P, e) + s B(u, e).
    Q(e), Q(u) and B(u, e) of every form are computed once.  The planes
    come in blocks, those whose pre differ only in its last two
    coordinates: one int list per coordinate of P holds it for every
    plane of the block, and one int row operation per term of the first
    form (and one per first index of its terms) gives its Q(P), B(P, u)
    and B(P, e) at every plane of the block, with no evaluation.  The
    first form's zeros on a plane depend only on that triple, so they
    are memoized on it: the first plane with a triple computes a_s and
    b_s at every s by row operations and takes each line's zeros from a
    dict of the roots of a + b t + Q(e) t^2, keyed by (a, b); a later
    plane with the triple costs one dict lookup.

    Only the first form's zeros are checked against the configuration
    and the other forms, by one rule: on a plane where the first form
    has a zero, each other form is restricted to the plane.  Its Q(P) is
    one evaluation, and B(P, u) and B(P, e), linear in P, are read off
    its terms x_i x_(n-2) and x_i x_(n-1); its a_s and b_s are memoized
    on that triple, and each line that still holds a zero takes its
    roots from the form's own dict.  The line (0, ..., 0, 1, t), where
    every form is Q(u) + B(u, e) t + Q(e) t^2, and the point
    (0, ..., 0, 1) read each form's fixed values.  ``missed`` is the
    first configuration point, in sorted encoding order, where some form
    does not vanish; ``extra`` is the first common zero outside the
    configuration in the order of ``ambient_space(field, n).points()``.
    """
    subspaces = list(subspaces)
    forms = list(forms)
    if not subspaces:
        raise ValueError("no subspaces given")
    field = subspaces[0].field
    n = subspaces[0].ambient_dim
    q = field.order
    total = (q ** n - 1) // (q - 1)
    if total > max_points:
        raise ValueError("ambient space has %d points, over the budget %d"
                         % (total, max_points))
    for pos, s in enumerate(subspaces):
        if s.field is not field:
            raise ValueError("subspace %d is over %r, subspace 0 over %r"
                             % (pos, s.field, field))
        if s.ambient_dim != n:
            raise ValueError("subspace %d has ambient dimension %d, subspace 0 %d"
                             % (pos, s.ambient_dim, n))
    for pos, form in enumerate(forms):
        if form.field is not field:
            raise ValueError("form %d is over %r, the subspaces over %r"
                             % (pos, form.field, field))
        if form.n != n:
            raise ValueError("form %d has %d variables, the ambient dimension is %d"
                             % (pos, form.n, n))
    value, sub, neg, fsub = field.form_value, field.sub_scaled, field.neg, field.sub
    sub_product = field.sub_product
    form_terms = [form.terms for form in forms]
    covered = set()
    for s in subspaces:
        covered.update(s._int_points())
    for key in sorted(covered):
        if any(value(terms, key) for terms in form_terms):
            return IntersectionVerdict(False, missed=key)
    ts = list(range(q))
    squares = [field.mul(t, t) for t in ts]
    last = (0,) * (n - 1) + (1,)
    # u = e_(n-2), the zero vector when n = 1, where no plane needs it
    u, ue = last[1:] + (0,), last[1:] + (1,)

    def line_roots(a, b, c):
        """The t in F_q with a + b t + c t^2 = 0, ascending."""
        vals = [a] * q
        if b:
            vals = sub(vals, neg(b), ts)
        if c:
            vals = sub(vals, neg(c), squares)
        return [t for t, v in enumerate(vals) if not v]

    def record(terms):
        """A form's terms, Q(e), Q(u), B(u, e), its terms x_i x_(n-2)
        and x_i x_(n-1) with i < n - 2, its roots dict, (a, b) ->
        line_roots(a, b, Q(e)), and its dict of line_values, keyed by
        (Q(P), B(P, u), B(P, e))."""
        ce, cu = value(terms, last), value(terms, u)
        return (terms, ce, cu, fsub(fsub(value(terms, ue), cu), ce),
                tuple(term for term in terms if term[2] == n - 2 and term[1] < n - 2),
                tuple(term for term in terms if term[2] == n - 1 and term[1] < n - 2),
                {}, {})

    def line_values(a, bu, be, cu, cue):
        """The a_s and the b_s of every line s of a plane, as two lists,
        for a form with Q(P) = a, B(P, u) = bu, B(P, e) = be, Q(u) = cu
        and B(u, e) = cue."""
        avals, bvals = [a] * q, [be] * q
        if bu:
            avals = sub(avals, neg(bu), ts)
        if cu:
            avals = sub(avals, neg(cu), squares)
        if cue:
            bvals = sub(bvals, neg(cue), ts)
        return avals, bvals

    # with no forms the first is the empty sum, zero at every point
    records = [record(terms) for terms in form_terms] or [record(())]
    (first, c, qu, bue, with_u, with_e, roots, _), rest = records[0], records[1:]

    def plane_lines(key):
        """The (s, zeros) of the lines of a plane where the first form,
        with (Q(P), B(P, u), B(P, e)) = key, has zeros."""
        lines = []
        for s, ab in enumerate(zip(*line_values(*key, qu, bue))):
            zeros = roots.get(ab)
            if zeros is None:
                zeros = roots[ab] = line_roots(*ab, c)
            if zeros:
                lines.append((s, zeros))
        return lines

    def extra_in_plane(pre, lines, before, origin=False):
        """The verdict at the first common zero outside the configuration
        among the first form's zeros ``lines``, (s, zeros) pairs, on the
        plane of ``pre``, or None; each other form in turn keeps only the
        zeros it shares, line by line.  With ``origin`` the plane is that
        of P = 0, where every Q(P), B(P, u) and B(P, e) is 0."""
        # at P + u + e the terms c x_i x_(n-2), i < n - 2, are the c P_i
        # that sum to B(P, u), and those with x_(n-1) sum to B(P, e)
        x0, x1 = pre + (0, 0), pre + (1, 1)
        key = (0, 0, 0)
        for terms, ce, cu, cue, own_u, own_e, own_roots, own_values in rest:
            if not origin:
                key = value(terms, x0), value(own_u, x1), value(own_e, x1)
            found = own_values.get(key)
            if found is None:
                found = own_values[key] = line_values(*key, cu, cue)
            avals, bvals = found
            kept = []
            for s, zeros in lines:
                ab = avals[s], bvals[s]
                on_line = own_roots.get(ab)
                if on_line is None:
                    on_line = own_roots[ab] = line_roots(*ab, ce)
                if on_line:
                    zeros = [t for t in zeros if t in on_line]
                    if zeros:
                        kept.append((s, zeros))
            if not kept:
                return None
            lines = kept
        for s, zeros in lines:
            for t in zeros:
                key = pre + (s, t)
                if key not in covered:
                    return IntersectionVerdict(False, extra=key,
                                               scanned=before + s * q + t + 1)
        return None

    # the first form's terms inside P's support, grouped by their first
    # index, give its Q(P); B(P, u) and B(P, e) are linear in P, the sums
    # of c P_i over a form's terms c x_i x_(n-2) and c x_i x_(n-1)
    groups = {}
    for cf, i, j in first:
        if j < n - 2:
            groups.setdefault(i, []).append((cf, j))
    planes = {}  # (Q(P), B(P, u), B(P, e)) -> plane_lines of it
    scanned = 0
    for lead in range(n - 2):
        # a block: the planes whose pre agrees but in the last two
        # coordinates, one int list per coordinate of P
        free = min(n - lead - 3, 2)
        tails = list(itertools.product(ts, repeat=free))
        size = len(tails)
        zero = [0] * size
        varying = [list(col) for col in zip(*tails)]
        for fixed in itertools.product(ts, repeat=n - lead - 3 - free):
            prefix = (0,) * lead + (1,) + fixed
            cols = [[v] * size for v in prefix] + varying
            qp = bu = be = zero
            for i, row in groups.items():
                acc = zero
                for cf, j in row:
                    acc = sub(acc, cf, cols[j])
                qp = sub_product(qp, cols[i], acc)
            for cf, i, _ in with_u:
                bu = sub(bu, neg(cf), cols[i])
            for cf, i, _ in with_e:
                be = sub(be, neg(cf), cols[i])
            for pos, key in enumerate(zip(qp, bu, be)):
                lines = planes.get(key)
                if lines is None:
                    lines = planes[key] = plane_lines(key)
                if not lines:
                    continue
                verdict = extra_in_plane(prefix + tails[pos], lines,
                                         scanned + pos * q * q)
                if verdict is not None:
                    return verdict
            scanned += size * q * q
    if n > 1:
        # the line (0, ..., 0, 1, t) is the line s = 1 of the plane of
        # P = 0, where every form has Q(P) = B(P, u) = B(P, e) = 0
        verdict = extra_in_plane((0,) * (n - 2), [(1, line_roots(qu, bue, c))],
                                 scanned - q, origin=True)
        if verdict is not None:
            return verdict
    if last not in covered and not any(form[1] for form in records):
        return IntersectionVerdict(False, extra=last, scanned=total)
    return IntersectionVerdict(True, scanned=total)
