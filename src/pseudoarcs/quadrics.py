"""Quadratic forms over the tower fields.

Forms are stored as upper-triangular coefficient vectors (one entry per
monomial x_i x_j with i <= j), which keeps every computation valid in
characteristic 2.  The module computes the linear space of forms
vanishing on a configuration of subspaces, the standard system cutting
out the rational normal curve, the trace composition that turns one
top-level form into base-level forms, and an exhaustive
complete-intersection certificate.
"""

import itertools
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .gf import FieldElement, FieldMismatchError, FieldTower, GF, InvariantError
from .linalg import det, nullspace, rref
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
        for (i, j), c in entries.items():
            coeffs[index[(i, j)]] = c if isinstance(c, FieldElement) else field(c)
        return cls(field, n, coeffs)

    def evaluate(self, vec: Sequence[FieldElement]) -> FieldElement:
        if len(vec) != self.n:
            raise ValueError("vector length mismatch")
        fld = self.field
        if any(x.field is not fld for x in vec):
            raise FieldMismatchError("vector entries not in %r" % fld)
        return FieldElement(fld, fld.form_value(self.terms, [x.val for x in vec]))

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

    One linear condition per projective point (scalar multiples add
    nothing since Q(cv) = c^2 Q(v)); the basis is the canonical reduced
    one.  An empty input needs explicit field and dimension and yields
    the full space.
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
    seen = set()
    conditions = []
    for s in subspaces:
        for pt in s.points():
            key = tuple(x.val for x in pt)
            if key in seen:
                continue
            seen.add(key)
            conditions.append([pt[i] * pt[j] for (i, j) in pairs])
    kernel = nullspace(conditions, ncols=len(pairs), field=field)
    basis, _ = rref(kernel) if kernel else ([], [])
    return [QuadraticForm(field, ambient_dim, row) for row in basis]


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


def _block_combine(tow: FieldTower, basis: Sequence[FieldElement],
                   vec: Sequence[FieldElement], k: int) -> List[FieldElement]:
    """Read a base-level vector of length hk as k top-level entries
    through the given basis of the extension."""
    h = tow.h
    out = []
    for b in range(k):
        acc = tow.top.zero
        for s in range(h):
            x = vec[b * h + s]
            if x:
                acc = acc + tow.lift(x) * basis[s]
        out.append(acc)
    return out


def trace_reduce(form: QuadraticForm, tow: FieldTower,
                 basis: Sequence[FieldElement], alpha: FieldElement) -> QuadraticForm:
    """The base-level form v -> rel_trace(alpha * Q(v-as-blocks)).

    Blocks of h base coordinates are combined through the given basis
    of the extension field; running alpha over a basis yields the full
    reduced system of a top-level form.  Coefficients are recovered by
    evaluation at unit vectors and their pairwise sums, which is valid
    in every characteristic.
    """
    basis = list(basis)
    h = tow.h
    if form.field is not tow.top:
        raise ValueError("expected a top-level form")
    if len(basis) != h or not det(
            [[tow.rel_trace(a * b) for b in basis] for a in basis]):
        raise ValueError("not a basis of the extension")
    k = form.n
    n = h * k
    base = tow.base

    def reduced(vec):
        return tow.rel_trace(alpha * form.evaluate(_block_combine(tow, basis, vec, k)))

    units = []
    for i in range(n):
        e = [base.zero] * n
        e[i] = base.one
        units.append(e)
    singles = [reduced(units[i]) for i in range(n)]
    entries = {}
    for i in range(n):
        entries[(i, i)] = singles[i]
    for i in range(n):
        for j in range(i + 1, n):
            pair = [a + b for a, b in zip(units[i], units[j])]
            entries[(i, j)] = reduced(pair) - singles[i] - singles[j]
    return QuadraticForm.from_pairs(base, n, entries)


@dataclass(frozen=True)
class IntersectionVerdict:
    """Outcome of a complete-intersection check.  `extra` is a point of
    the common zero set outside the configuration; `missed` is a
    configuration point where some form does not vanish."""

    ok: bool
    extra: Optional[Tuple[int, ...]] = None
    missed: Optional[Tuple[int, ...]] = None

    def __bool__(self):
        return self.ok


def is_complete_intersection(subspaces: Sequence[Subspace],
                             forms: Sequence[QuadraticForm],
                             max_points: int = 10 ** 6) -> IntersectionVerdict:
    """Certify that the common zero set of the forms is exactly the
    union of the subspaces' points, by exhausting the ambient space.

    Every point of PG(n-1, q) is visited once, as an int tuple, so the
    cost is (q^n - 1)/(q - 1) points; the count is guarded by a budget
    (override via max_points).  ``missed`` is the first configuration
    point, in sorted encoding order, where some form does not vanish;
    ``extra`` is the first common zero outside the configuration in the
    order of ``ambient_space(field, n).points()``.
    """
    subspaces = list(subspaces)
    forms = list(forms)
    if not subspaces:
        raise ValueError("no subspaces given")
    field = subspaces[0].field
    n = subspaces[0].ambient_dim
    total = (field.order ** n - 1) // (field.order - 1)
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
    value = field.form_value
    form_terms = [form.terms for form in forms]
    covered = set()
    for s in subspaces:
        covered.update(s._int_points())
    for key in sorted(covered):
        if any(value(terms, key) for terms in form_terms):
            return IntersectionVerdict(False, missed=key)
    # the normalized vectors (0, ..., 0, 1, tail) in points() order
    for lead in range(n):
        head = (0,) * lead + (1,)
        for tail in itertools.product(range(field.order), repeat=n - lead - 1):
            key = head + tail
            if key not in covered and not any(value(terms, key)
                                              for terms in form_terms):
                return IntersectionVerdict(False, extra=key)
    return IntersectionVerdict(True)
