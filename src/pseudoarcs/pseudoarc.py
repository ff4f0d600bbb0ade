"""Pseudo-arcs of PG(hk-1, q): families of (h-1)-dimensional subspaces
any k of which span the whole space.

The main construction takes one element per Frobenius orbit of
generators of the extension field: the field reduction of the curve
point with that parameter, the rational point set of the span of its
conjugates, read off the minimal polynomial of the parameter.  The
family extends by the order-(h-1) osculating spaces at the rational
curve points.

Every such element is R_f, the row space whose column j holds x^j mod f,
for a binary form f of degree h: the minimal polynomial, (x - t)^h at an
osculating point, or y^h at infinity.  Verification reads the forms off
the reduced rows, and when each is irreducible, a power of a linear form
or y^h, the family is a pseudo-arc iff no two elements share a form.
Any other family is walked exhaustively over its k-subsets in
lexicographic order by one recursive function, each node a prefix and
the candidates after it, and each (k-1)-subset completed by every
candidate in one pass of determinants.

The construction and the form reading work on the whole family at once:
one int list per matrix entry holds that entry for every element, and
the field's row ops update it for all of them.
"""

import functools
import itertools
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

from .gf import FieldElement, FieldTower, InvariantError
from .linalg import SingularMatrixError, insert_row, reduce_row
from .nrc import INFINITY, frobenius_orbit_reps, osc_entries, osc_ints
from .projgeo import Spread, Subspace, spread_membership


TAG_KINDS = ("imaginary", "osculating", "osculating-infty", "external")


@dataclass(frozen=True)
class Tag:
    """Provenance of one arc element: which coordinate of the matching
    code it will become."""

    kind: str  # one of TAG_KINDS
    param: Optional[FieldElement] = None

    def __repr__(self):
        if self.param is not None:
            return "Tag(%s, %d)" % (self.kind, self.param.val)
        return "Tag(%s)" % self.kind


@dataclass(frozen=True)
class ArcVerdict:
    """Outcome of a verification: truth value plus, on failure, the
    lexicographically first offending index subset.  ``walked`` counts
    the k-tuples tested, every candidate at the walk's last level, and
    ``decided_by`` names the route, "forms" (binary forms, nothing
    walked) or "walk"; they describe the work, not the verdict, and take
    no part in equality."""

    ok: bool
    witness: Optional[Tuple[int, ...]] = None
    walked: int = field(default=0, compare=False)
    decided_by: str = field(default="walk", compare=False)

    def __bool__(self):
        return self.ok


class PseudoArc:
    """An ordered, tagged family of rank-h subspaces of F_q^(hk)."""

    def __init__(self, tow: FieldTower, k: int,
                 elements: Sequence[Subspace], tags: Sequence[Tag]):
        elements = list(elements)
        tags = list(tags)
        if len(elements) != len(tags):
            raise ValueError("one tag per element required")
        for tag in tags:
            if tag.kind not in TAG_KINDS:
                raise ValueError("unknown tag kind %r" % tag.kind)
        h = tow.h
        n = h * k
        for el in elements:
            if el.field is not tow.base:
                raise ValueError("elements must live at the base level")
            if el.ambient_dim != n or el.rank != h:
                raise ValueError("element of wrong shape for PG(%d, %d)" % (n - 1, tow.q))
        if len(set(elements)) != len(elements):
            raise ValueError("repeated element")
        self.tow = tow
        self.k = k
        self.elements = tuple(elements)
        self.tags = tuple(tags)

    @property
    def h(self) -> int:
        return self.tow.h

    @property
    def q(self) -> int:
        return self.tow.q

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __repr__(self):
        return "PseudoArc(h=%d, k=%d, q=%d, size=%d)" % (
            self.h, self.k, self.q, len(self.elements))


def thas_bound(h: int, k: int, q: int) -> int:
    """Upper bound on the size of a pseudo-arc: q^h + k for even q,
    one less for odd q."""
    return q ** h + k - (0 if q % 2 == 0 else 1)


def build_imaginary_arc(tow: FieldTower, k: int) -> PseudoArc:
    """One element per orbit representative alpha: the field reduction
    of (1, alpha, ..., alpha^(hk-1)), the rational points of its
    conjugate span, read off the minimal polynomial of alpha.  The rows
    of all elements are computed together (see ``_imaginary_rows``).

    Λ-order (representatives ascending) fixes the element order.  For
    h = 1 the orbit representatives are all of F_q and the elements are
    the affine curve points themselves.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    n = tow.h * k
    reps = frobenius_orbit_reps(tow)
    elements = Subspace.from_entries(
        tow.base, n, _imaginary_rows(tow, [alpha.val for alpha in reps], n), len(reps))
    return PseudoArc(tow, k, elements, [Tag("imaginary", alpha) for alpha in reps])


def _imaginary_rows(tow, alphas, n):
    """The reduced rows of the field reduction of (1, a, ..., a^(n-1)),
    for every top element a of ``alphas`` (encodings), entry by entry:
    entry (r, j) of a's rows, the base encoding of the coefficient of
    x^r in x^j mod m = prod_(i<h) (x - a^(q^i)), is at [r][j][a's index].

    The field reduction is {(Tr(mu a^j))_j}; for mu_i in the trace-dual
    basis of (1, a, ..., a^(h-1)) and a^j = sum_i c_ij a^i, Tr(mu_i a^j)
    is c_ij.  The rank, h, is checked as the number of distinct conjugates
    of a, and each coefficient of m must lie in the base field.

    The work runs over the whole family at once: every list that follows holds
    one entry, conjugate or coefficient, for each a, and one row op
    ``sub_product`` (v - a*b entry by entry) updates it for all of them.
    """
    top, base, h, q = tow.top, tow.base, tow.h, tow.q
    size = len(alphas)
    zeros, ones = [0] * size, [1] * size
    conj = [list(alphas)]
    for _ in range(h - 1):
        conj.append([top.pow(a, q) for a in conj[-1]])
    ranks = list(map(len, map(set, zip(*conj))))
    if ranks.count(h) != size:
        i = next(i for i, r in enumerate(ranks) if r != h)
        raise InvariantError("element of rank %d at alpha = %d, expected %d"
                             % (ranks[i], alphas[i], h))
    unembed = {t: b for b, t in enumerate(tow.embed_table)}
    low = [list(map(unembed.get, coeffs)) for coeffs in _from_roots(top, conj)[:h]]
    outside = [coeffs.index(None) for coeffs in low if None in coeffs]
    if outside:
        raise InvariantError("minimal polynomial at alpha = %d has a coefficient "
                             "outside the base field" % alphas[min(outside)])
    cols = _x_columns(base, [ones] + [zeros] * (h - 1), low, n)
    return [[c[r] for c in cols] for r in range(h)]


def _from_roots(fld, roots):
    """The coefficients, lowest first, of the monic forms prod_i (x - c_i),
    for the lists ``roots``, one entry per form: times x - c is
    x*poly - c*poly, one ``sub_product`` per coefficient."""
    sub_product = fld.sub_product
    zeros, ones = [0] * len(roots[0]), [1] * len(roots[0])
    poly = [ones]
    for c in roots:
        poly = ([sub_product(zeros, c, poly[0])]
                + [sub_product(u, c, w) for u, w in zip(poly, poly[1:])]
                + [ones])
    return poly


def _x_columns(fld, col, low, count):
    """``count`` columns, ``col`` first and each after it x times the one
    before modulo the monic forms of degree h whose lower coefficients
    are the lists ``low``.  A column holds h lists, the coefficients of
    1, x, ..., x^(h-1), and every list one entry per form; x*col is the
    column shifted up, with x^h replaced by -(low . (1, x, ..., x^(h-1)))."""
    sub_product = fld.sub_product
    zeros = [0] * len(low[0])
    cols = [col]
    for _ in range(count - 1):
        lead = col[-1]
        if any(lead):
            col = ([sub_product(zeros, lead, low[0])]
                   + [sub_product(u, lead, w) for u, w in zip(col, low[1:])])
        else:
            col = [zeros] + col[:-1]
        cols.append(col)
    return cols


def build_osculating_family(tow: FieldTower, k: int) -> List[Subspace]:
    """The order-(h-1) osculating spaces at the q+1 rational curve
    points, affine parameters ascending, infinity last; the affine ones
    are built together from ``osc_entries``."""
    n, base = tow.h * k, tow.base
    return (Subspace.from_entries(base, n, osc_entries(base, range(tow.q), tow.h - 1, n), tow.q)
            + [Subspace.from_ints(base, n, osc_ints(base, INFINITY, tow.h - 1, n))])


def extend_with_osculating(arc: PseudoArc) -> PseudoArc:
    """Append the osculating family to an arc; sizes add up to
    |Λ| + q + 1 and tags record the new parameters."""
    tow = arc.tow
    oscs = build_osculating_family(tow, arc.k)
    tags = [Tag("osculating", t) for t in tow.base.elements()] + [Tag("osculating-infty")]
    if set(arc.elements) & set(oscs):
        raise ValueError("osculating spaces collide with existing elements")
    return PseudoArc(tow, arc.k, list(arc.elements) + oscs,
                     list(arc.tags) + tags)


@functools.lru_cache(maxsize=None)
def _expansion(h):
    """The plan of ``_block_dets`` for h x h matrices: for each row t
    from 1, the columns whose entry some term adds, and the column sets S
    of t + 1 columns, ascending, each with its terms (e, S - s_i).  The
    term of s_i has sign (-1)^(t+i); e is s_i when that is -1, the term
    subtracted, and h + s_i, the entry negated, when it is +1."""
    plan = []
    for t in range(1, h):
        sets = [(cols, [(c + h * ((t + i) % 2 == 0), cols[:i] + cols[i + 1:])
                        for i, c in enumerate(cols)])
                for cols in itertools.combinations(range(h), t + 1)]
        added = sorted({e - h for _, terms in sets for e, _ in terms if e >= h})
        plan.append((added, sets))
    return plan


def _block_dets(fld, block):
    """The determinants of h x h matrices held entry-wise: ``block[r][c]``
    lists entry (r, c) of every matrix, and the result lists their
    determinants.

    Expansion by minors, row by row: the minor on rows 0..t and the
    column set S is the sum over the s_i in S, ascending, of
    (-1)^(t+i) * entry (t, s_i) * the minor on rows 0..t-1 and S - s_i.
    Each term is one ``sub_product``, h*2^(h-1) - h in all; a term with
    sign +1 takes its entry negated, which over characteristic 2 is the
    entry itself."""
    h = len(block)
    sub_product, scaled = fld.sub_product, fld.scaled
    minus_one = fld.neg(1)
    zeros = [0] * len(block[0][0])
    minors = {(c,): entry for c, entry in enumerate(block[0])}
    for row, (added, sets) in zip(block[1:], _expansion(h)):
        signed = row + row
        if minus_one != 1:
            for c in added:
                signed[h + c] = scaled(minus_one, row[c])
        deeper = {}
        for cols, terms in sets:
            acc = zeros
            for e, rest in terms:
                acc = sub_product(acc, signed[e], minors[rest])
            deeper[cols] = acc
        minors = deeper
    return minors[tuple(range(h))]


def _square(fld, c, low):
    """-c^2 modulo the monic forms of degree h whose lower coefficients
    are the lists ``low``, for residues c held as in ``_x_columns``: every
    product term is one ``sub_product``, so the square comes negated."""
    h = len(c)
    sub_product = fld.sub_product
    d = [[0] * len(c[0])] * (2 * h - 1)
    for a in range(h):
        for b in range(h):
            d[a + b] = sub_product(d[a + b], c[a], c[b])
    # x^s = x^(s-h) * x^h, and x^h = -(low . (1, x, ..., x^(h-1)))
    for s in range(2 * h - 2, h - 1, -1):
        for i in range(h):
            d[s - h + i] = sub_product(d[s - h + i], d[s], low[i])
    return d[:h]


def _irreducible(fld, low) -> bool:
    """Whether every monic form f of degree h >= 2 whose lower
    coefficients are the lists ``low``, one entry per form, is
    irreducible over fld: Ben-Or's test, gcd(x^(q^i) - x, f) = 1 for every
    i <= h/2.

    x^(q^i) mod f comes from left-to-right square-and-multiply over the
    bits of q^i, where multiplying by x is one step of ``_x_columns``.
    The gcd is 1 iff g = x^(q^i) - x is a unit mod f, iff multiplication by
    g, the matrix of columns g*x^j mod f, has a nonzero determinant; one
    ``_block_dets`` pass gives them all."""
    h, size = len(low), len(low[0])
    zeros, ones = [0] * size, [1] * size
    for i in range(1, h // 2 + 1):
        acc = [zeros, ones] + [zeros] * (h - 2)
        for bit in bin(fld.order ** i)[3:]:
            acc = _square(fld, acc, low)
            if bit == "1":
                acc = _x_columns(fld, acc, low, 2)[1]
        # acc is -x^(q^i) mod f, so acc + x is -g
        acc[1] = fld.sub_scaled(acc[1], fld.neg(1), ones)
        cols = _x_columns(fld, acc, low, h)
        if 0 in _block_dets(fld, [[c[r] for c in cols] for r in range(h)]):
            return False
    return True


def _form_verdict(fld, k, rows, pivots) -> Optional[ArcVerdict]:
    """The verdict from the elements' binary forms, given their reduced
    int ``rows`` and ``pivots``, or None when an element has no form or a
    form is neither irreducible nor the h-th power of a linear form.

    For a monic form f of degree h, R_f is the row space of the h x hk
    matrix whose column j holds x^j mod f, and R_(y^h) is spanned by the
    last h unit vectors.  An element with pivots 0..h-1 is R_f for the f
    whose lower coefficients are its column h negated, when every later
    column is x times the one before modulo f (``_x_columns``, all such
    elements at once); an element with the last h columns as pivots is
    R_(y^h).  R_(f_1) + ... + R_(f_k) is the space of the first hk terms of
    the linear recurring sequences with characteristic polynomial
    lcm(f_i) (Lidl and Niederreiter, "Finite Fields", 1997, ch. 8), so k
    elements span the whole space iff their forms are pairwise coprime.

    Two distinct forms that are each irreducible, a power of a linear
    form or y^h are coprime.  The powers of linear forms are found among
    the q forms (x - t)^h, and every other form takes ``_irreducible``.
    Then a k-subset fails iff it holds two elements with one form, and
    the first failing one is the least, over the forms, of the first
    k-subset through the form's first two elements: those two and the
    smallest other indices."""
    h = len(rows[0])
    n = h * k
    first, last = tuple(range(h)), tuple(range(n - h, n))
    affine = [i for i, pv in enumerate(pivots) if pv == first]
    groups = {None: [i for i, pv in enumerate(pivots) if pv == last]}
    if k < 2 or len(affine) + len(groups[None]) < len(rows):
        return None
    if affine:
        # entries[r][j]: entry (r, j) of every affine element
        entries = [list(zip(*[rows[i][r] for i in affine])) for r in range(h)]
        low = [fld.scaled(fld.neg(1), e[h]) for e in entries]
        cols = _x_columns(fld, [e[h] for e in entries], low, n - h)
        if any(list(e[h + j]) != col[r] for j, col in enumerate(cols[1:], 1)
               for r, e in enumerate(entries)):
            return None
        for i, form in zip(affine, zip(*low)):
            groups.setdefault(form, []).append(i)
    if h > 1:
        linear = set(zip(*_from_roots(fld, [list(range(fld.order))] * h)[:h]))
        rest = [form for form in groups if form is not None and form not in linear]
        if rest and not _irreducible(fld, [list(c) for c in zip(*rest)]):
            return None

    def first_through(a, b):
        return tuple(sorted([x for x in range(k) if x not in (a, b)][:k - 2] + [a, b]))

    pairs = [g[:2] for g in groups.values() if len(g) > 1]
    if not pairs:
        return ArcVerdict(True, decided_by="forms")
    return ArcVerdict(False, min(first_through(a, b) for a, b in pairs),
                      decided_by="forms")


def _walk(fld, k, rows) -> ArcVerdict:
    """The verdict of the exhaustive walk over k-subsets, given the
    elements' reduced int ``rows``, with the k-tuples it tested.

    The walk visits the k-subsets in lexicographic order, so its first
    failure is the lexicographically first witness.  The subsets through
    a prefix share it: a node holds the prefix, its candidates, the
    elements after its last one, with their rows modulo the span of the
    prefix without its last element, the echelon rows of that element
    and the columns that are pivots of no element of the prefix.  A node
    below the last level reduces its candidates' rows modulo the echelon
    once; then each candidate b, with enough candidates after it, extends
    the prefix.  When b meets the span of the prefix, every subset
    through the prefix and b is degenerate: the witness is the first of
    them, the prefix completed by the next candidates, and the walk
    counts one tuple.  ``_last_level`` tests a prefix of k - 1 elements
    against all its candidates at once.  A node returns the first failing
    subset through its prefix, or None, and the tuples it tested.
    """
    def descend(prefix, cands, echelon, free):
        need = k - len(prefix) - 1
        if not need:
            return _last_level(fld, prefix, cands, echelon, free)
        cands = [(j, [reduce_row(fld, echelon, r) for r in rs]) for j, rs in cands]
        walked = 0
        for pos, (b, rs) in enumerate(cands):
            rest = cands[pos + 1:]
            if len(rest) < need:
                break
            child = []
            if not all(insert_row(fld, child, r) for r in rs):
                return prefix + (b,) + tuple(j for j, _ in rest[:need]), walked + 1
            pivots = {pc for pc, _ in child}
            witness, count = descend(prefix + (b,), rest, child,
                                     [j for j in free if j not in pivots])
            walked += count
            if witness:
                return witness, walked
        return None, walked

    witness, walked = descend((), list(enumerate(rows)), [], range(len(rows[0][0])))
    return ArcVerdict(witness is None, witness, walked)


def _last_level(fld, prefix, cands, basis, free):
    """The first failing k-subset through a prefix of k - 1 elements, or
    None, and the number of candidates tested, in one pass over all of
    them: their rows, held column by column for all of them at once, are
    reduced modulo ``basis``, the echelon of the prefix's last element,
    which leaves them zero on every pivot column of the prefix, and the
    h x h blocks on the h ``free`` columns must be nonsingular.
    ``_block_dets`` gives their determinants as one list; its first zero
    is the first failing candidate, and the candidates up to it count as
    tested."""
    h, size = len(free), len(cands)
    sub_scaled = fld.sub_scaled
    # cols[j]: entry j of every row of every candidate, rows outermost
    cols = list(zip(*[rs[r] for r in range(h) for _, rs in cands]))
    for pc, row in basis:
        lead = cols[pc]
        for j, c in enumerate(row):
            if c and j != pc:
                cols[j] = sub_scaled(cols[j], c, lead)
    dets = _block_dets(fld, [[cols[j][r * size:(r + 1) * size] for j in free]
                             for r in range(h)])
    if 0 in dets:
        i = dets.index(0)
        return prefix + (cands[i][0],), i + 1
    return None, size


def is_pseudo_arc(elements: Union[PseudoArc, Sequence[Subspace]], k: int) -> ArcVerdict:
    """Test that every k of the elements span the whole space.

    Two routes decide it, both from the elements' reduced int rows.  The
    forms route (``_form_verdict``) reads every element as the space R_f
    of a binary form f and decides the family by grouping the forms; it
    applies when every element has a form and each form is irreducible,
    the h-th power of a linear form or y^h, as for every element the
    curve constructions build.  Otherwise the walk (``_walk``) tests the
    k-subsets in lexicographic order.  The verdict names its route; the
    forms route walks no tuple.  A true verdict on more than the size
    bound is impossible and raises InvariantError.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    elements = list(elements)
    if not elements:
        return ArcVerdict(True)
    h = elements[0].rank
    dim = elements[0].ambient_dim
    fld = elements[0].field
    for el in elements:
        if el.rank != h or el.ambient_dim != dim or el.field is not fld:
            raise ValueError("elements of mixed shape")
    if dim != h * k:
        raise ValueError("elements of rank %d have ambient dimension %d, "
                         "k = %d needs hk = %d" % (h, dim, k, h * k))
    size = len(elements)
    if size < k:
        return ArcVerdict(True)
    rows = [el.int_rows for el in elements]
    pivots = [el.pivots for el in elements]
    verdict = _form_verdict(fld, k, rows, pivots)
    if verdict is None:
        verdict = _walk(fld, k, rows)
    bound = thas_bound(h, k, fld.order)
    if verdict.ok and size > bound:
        raise InvariantError("%d elements verified, above the size bound %d"
                             % (size, bound))
    return verdict


def contained_in_spread(arc: Union[PseudoArc, Sequence[Subspace]],
                        spread: Spread) -> ArcVerdict:
    """Test every element for spread membership; the first failure is
    the witness.  An empty family is vacuously contained."""
    for i, el in enumerate(arc):
        if el.rank != spread.h or el.ambient_dim != spread.h * spread.k:
            raise ValueError("element %d has the wrong shape for the spread" % i)
        if not spread_membership(el, spread):
            return ArcVerdict(False, (i,))
    return ArcVerdict(True)


def build_desarguesian_arc(points: Sequence[Sequence[FieldElement]],
                           spread: Spread) -> PseudoArc:
    """The spread elements through the given director-space points.

    The points must lie in the director space and form an arc there
    (any k of their coordinate vectors independent); the result is then
    a pseudo-arc by field reduction.
    """
    tow = spread.tow
    k = spread.k
    n = tow.h * k
    coords = []
    for i, pt in enumerate(points):
        pt = list(pt)
        if len(pt) != n:
            raise ValueError("point %d has %d coordinates, PG(%d, %d) needs %d"
                             % (i, len(pt), n - 1, tow.q, n))
        if any(x.field is not tow.top for x in pt):
            raise ValueError("point %d has coordinates outside %r" % (i, tow.top))
        if not any(pt):
            raise ValueError("point %d is the zero vector" % i)
        try:
            coords.append(spread.point_coordinates(pt))
        except SingularMatrixError:
            raise ValueError("point %d does not lie in the director space" % i) from None
    verdict = is_pseudo_arc([Subspace(tow.top, k, [c]) for c in coords], k)
    if not verdict:
        raise ValueError("points are not an arc in the director space: "
                         "subset %s is degenerate" % (verdict.witness,))
    elements = spread.elements_through(coords)
    tags = [Tag("external")] * len(elements)
    return PseudoArc(tow, k, elements, tags)
