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
import itertools
from typing import List, Optional, Sequence, Tuple

from .gf import FieldElement, FieldMismatchError, FieldTower, GF, InvariantError
from .linalg import det, nullspace_ints, rref_ints
from .projgeo import Subspace


def monomial_pairs(n: int) -> List[Tuple[int, int]]:
    """Index pairs (i, j), i <= j, in row-major order; the coefficient
    layout of every form in n variables."""
    return [(i, j) for i in range(n) for j in range(i, n)]


class QuadraticForm:
    """A homogeneous quadratic form sum of c_ij x_i x_j over a fixed
    field."""

    __slots__ = ("field", "n", "coeffs", "terms")

    def __init__(self, field: GF, n: int, coeffs: Sequence[FieldElement]):
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
                           for c, (i, j) in zip(coeffs, monomial_pairs(n)) if c)

    @classmethod
    def zero(cls, field: GF, n: int) -> "QuadraticForm":
        return cls(field, n, [field.zero] * (n * (n + 1) // 2))

    @classmethod
    def from_pairs(cls, field: GF, n: int, entries) -> "QuadraticForm":
        """Build from {(i, j): coefficient} with i <= j."""
        coeffs = [field.zero] * (n * (n + 1) // 2)
        index = {pair: pos for pos, pair in enumerate(monomial_pairs(n))}
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
        for c, (i, j) in zip(self.coeffs, monomial_pairs(self.n)):
            if c:
                mono = "x%d^2" % i if i == j else "x%d*x%d" % (i, j)
                terms.append("%d*%s" % (c.val, mono))
        return "QuadraticForm(%s)" % (" + ".join(terms) if terms else "0")


def vanishing_space(subspaces: Sequence[Subspace], field: Optional[GF] = None,
                    ambient_dim: Optional[int] = None) -> List[QuadraticForm]:
    """Basis of the space of forms vanishing on every point of every
    given subspace.

    Q vanishes on the row space of r_1..r_h exactly when Q(r_a) = 0 for
    every a and the polar form B(r_a, r_b) = Q(r_a + r_b) - Q(r_a) -
    Q(r_b) vanishes for every a < b, since Q(sum l_a r_a) = sum l_a^2
    Q(r_a) + sum_(a<b) l_a l_b B(r_a, r_b) in every characteristic.  So
    each subspace of rank h gives h(h+1)/2 linear conditions, built on
    the int encodings of its reduced rows; the basis is the canonical
    reduced one.  An empty input needs explicit field and dimension and
    yields the full space.
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
    pairs = monomial_pairs(ambient_dim)
    add, mul = field.add, field.mul
    conditions = []
    for s in subspaces:
        rows = s.int_rows
        for a, r in enumerate(rows):
            conditions.append([mul(r[i], r[j]) for i, j in pairs])
            # B(r, w) has coefficient r_i w_j + r_j w_i at x_i x_j: 2 r_i w_i
            # on the diagonal, which is 0 in characteristic 2
            for w in rows[a + 1:]:
                conditions.append([add(mul(r[i], w[j]), mul(r[j], w[i]))
                                   for i, j in pairs])
    kernel = nullspace_ints(field, conditions, len(pairs))
    basis, _ = rref_ints(field, kernel)
    return [QuadraticForm(field, ambient_dim, field.wrap(row)) for row in basis]


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
    if len(basis) != h or not det(
            [[tow.rel_trace(a * b) for b in basis] for a in basis]):
        raise ValueError("not a basis of the extension")
    top_coeffs = dict(zip(monomial_pairs(form.n), form.coeffs))
    coeffs = []
    for i, j in monomial_pairs(h * form.n):
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
                             max_points: int = 10 ** 6) -> IntersectionVerdict:
    """Certify that the common zero set of the forms is exactly the
    union of the subspaces' points, by exhausting the ambient space.

    The ambient space has (q^n - 1)/(q - 1) points, a count guarded by a
    budget (override via max_points).  It is walked line by line: the
    points (0, ..., 0, 1, mid, t) for t in F_q lie on the line through
    x = (0, ..., 0, 1, mid, 0) in direction e = (0, ..., 0, 1), where the
    first form takes the values Q(x) + B(x, e) t + Q(e) t^2, computed
    for every t at once as two int row operations.  Only its zeros are
    checked against the configuration and the other forms; the point
    (0, ..., 0, 1) is checked on its own.  ``missed`` is the first
    configuration point, in sorted encoding order, where some form does
    not vanish; ``extra`` is the first common zero outside the
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
    value, sub, neg = field.form_value, field.sub_scaled, field.neg
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
    # with no forms the first is the empty sum, zero at every t
    first, rest = form_terms[0] if form_terms else (), form_terms[1:]
    c = value(first, last)  # Q(e)
    scanned = 0
    for lead in range(n - 1):
        head = (0,) * lead + (1,)
        for mid in itertools.product(ts, repeat=n - lead - 2):
            base = head + mid
            # Q(x + t e) = a + b t + c t^2 at every t
            a = value(first, base + (0,))
            b = field.sub(field.sub(value(first, base + (1,)), a), c)
            vals = [a] * q
            if b:
                vals = sub(vals, neg(b), ts)
            if c:
                vals = sub(vals, neg(c), squares)
            zeros = [t for t, v in enumerate(vals) if not v]
            for t in zeros:
                key = base + (t,)
                if key not in covered and not any(value(terms, key)
                                                  for terms in rest):
                    return IntersectionVerdict(False, extra=key,
                                               scanned=scanned + t + 1)
            scanned += q
    if last not in covered and not any(value(terms, last)
                                       for terms in form_terms):
        return IntersectionVerdict(False, extra=last, scanned=total)
    return IntersectionVerdict(True, scanned=total)
