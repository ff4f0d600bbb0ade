"""Pseudo-arcs of PG(hk-1, q): families of (h-1)-dimensional subspaces
any k of which span the whole space.

The main construction takes one element per Frobenius orbit of
generators of the extension field: the field reduction of the curve
point with that parameter, the rational point set of the span of its
conjugates.  The family extends by the order-(h-1) osculating spaces at
the rational curve points.  Verification is exhaustive over k-subsets,
walked through one representative per orbit of the curve's
projectivities that permute the family.
"""

import warnings
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

from .gf import FieldElement, FieldTower, InvariantError
from .linalg import (SingularMatrixError, insert_row, reduce_row, rref_ints,
                     vec_mat_ints)
from .nrc import (INFINITY, curve_projectivity, frobenius_orbit_reps, osc_ints,
                  veronese)
from .projgeo import Spread, Subspace, field_reduction, spread_membership


class SmallFieldWarning(UserWarning):
    """Raised when q is below hk+1, where the spanning theorems carry
    no guarantee; the constructions still run and are verified
    directly."""


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
    lexicographically first offending index subset.  ``walked`` and
    ``orbits`` count the k-subsets tested and the orbits they were
    chosen through; they describe the work, not the verdict, and take
    no part in equality."""

    ok: bool
    witness: Optional[Tuple[int, ...]] = None
    walked: int = field(default=0, compare=False)
    orbits: int = field(default=0, compare=False)

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


def _warn_small_field(tow: FieldTower, k: int):
    if tow.q < tow.h * k + 1:
        warnings.warn(
            "q = %d is below hk + 1 = %d; spanning guarantees do not apply"
            % (tow.q, tow.h * k + 1), SmallFieldWarning, stacklevel=3)


def build_imaginary_arc(tow: FieldTower, k: int) -> PseudoArc:
    """One element per orbit representative alpha: the field reduction
    of (1, alpha, ..., alpha^(hk-1)), the rational points of its
    conjugate span.

    Λ-order (representatives ascending) fixes the element order.  For
    h = 1 the orbit representatives are all of F_q and the elements are
    the affine curve points themselves.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    _warn_small_field(tow, k)
    n = tow.h * k
    reps = frobenius_orbit_reps(tow)
    elements = []
    tags = []
    for alpha in reps:
        element = field_reduction(tow, veronese(tow.top, 1, alpha, n).coords)
        if element.rank != tow.h:
            raise InvariantError("element of rank %d at alpha = %d, expected %d"
                                 % (element.rank, alpha.val, tow.h))
        elements.append(element)
        tags.append(Tag("imaginary", alpha))
    return PseudoArc(tow, k, elements, tags)


def build_osculating_family(tow: FieldTower, k: int) -> List[Subspace]:
    """The order-(h-1) osculating spaces at the q+1 rational curve
    points, affine parameters ascending, infinity last."""
    if tow.p < tow.h:
        raise ValueError("characteristic %d below h = %d" % (tow.p, tow.h))
    n = tow.h * k
    return [Subspace.from_ints(tow.base, n, osc_ints(tow.base, t, tow.h - 1, n))
            for t in [*range(tow.q), INFINITY]]


def extend_with_osculating(arc: PseudoArc) -> PseudoArc:
    """Append the osculating family to an arc; sizes add up to
    |Λ| + q + 1 and tags record the new parameters."""
    tow = arc.tow
    oscs = build_osculating_family(tow, arc.k)
    tags = []
    for t in tow.base.elements():
        tags.append(Tag("osculating", t))
    tags.append(Tag("osculating-infty"))
    overlap = set(arc.elements) & set(oscs)
    if overlap:
        raise ValueError("osculating spaces collide with existing elements")
    return PseudoArc(tow, arc.k, list(arc.elements) + oscs,
                     list(arc.tags) + tags)


def _row_map(fld, mat):
    """The map from a subspace's reduced int rows to the reduced rows of
    its image under v -> v*M, as the tuple of tuples that keys an element.

    A diagonal M keeps reduced rows reduced once each is scaled back to 1
    at its pivot c, so row r goes to r_j * M[j][j] / M[c][c] with no
    elimination.  The reversal (t -> 1/t) reverses each row; any other M
    sums multiples c*M_j of its rows, each computed on first use.  Both
    reduce the images."""
    n = len(mat)
    if all(mat[i][j] == 0 for i in range(n) for j in range(n) if i != j):
        mul, inv = fld.mul, fld.inv
        ratios = [[mul(mat[j][j], inv(mat[c][c])) for j in range(n)]
                  for c in range(n)]

        def image(rows):
            return tuple(tuple([mul(x, y) for x, y in zip(r, ratios[r.index(1)])])
                         for r in rows)
    elif all(mat[i][j] == (1 if i + j == n - 1 else 0)
             for i in range(n) for j in range(n)):
        def image(rows):
            return tuple(map(tuple, rref_ints(fld, [r[::-1] for r in rows])[0]))
    else:
        added, scaled = fld.added, fld.scaled
        multiples = [{} for _ in range(n)]

        def image(rows):
            out = []
            for r in rows:
                w = None
                for j, c in enumerate(r):
                    if c:
                        m = multiples[j].get(c)
                        if m is None:
                            m = multiples[j][c] = scaled(c, mat[j])
                        w = m if w is None else added(w, m)
                out.append(w)
            return tuple(map(tuple, rref_ints(fld, out)[0]))
    return image


def _orbit_order(fld, rows) -> Tuple[List[int], int]:
    """An element order that puts one representative per orbit of the
    curve's projectivities first, and the number of representatives.
    ``rows`` holds the elements' ``int_rows``, which also key the lookup
    of an image.

    The generators t -> t + 1, t -> xi*t and t -> 1/t are not trusted: a
    generator counts only when the canonical image of every element is an
    element again and the images form a permutation.  When M*M is scalar
    the generator is an involution on subspaces, and the image i -> j
    found for one element gives j -> i without a second lookup.  Orbits
    are the classes of the accepted permutations; each is represented by
    its smallest index.  A family with a repeated element, or with no
    accepted generator, keeps its own order with every element its own
    representative.
    """
    size = len(rows)
    index = {}
    for i, el in enumerate(rows):
        index.setdefault(el, i)
    if len(index) < size:
        return list(range(size)), size
    n = len(rows[0][0])
    xi = fld.primitive_element().val
    root = list(range(size))

    def find(i):
        while root[i] != i:
            i = root[i]
        return i

    for a, b, c, d in ((1, 1, 0, 1), (xi, 0, 0, 1), (0, 1, 1, 0)):
        mat = curve_projectivity(fld, a, b, c, d, n)
        image = _row_map(fld, mat)
        square = [vec_mat_ints(fld, r, mat) for r in mat]
        paired = all(x == (square[0][0] if i == j else 0)
                     for i, row in enumerate(square) for j, x in enumerate(row))
        perm = [None] * size
        for i, el in enumerate(rows):
            if perm[i] is None:
                j = index.get(image(el))
                if j is None:
                    break
                perm[i] = j
                if paired:
                    perm[j] = i
        if None in perm or len(set(perm)) < size:
            continue
        for i, j in enumerate(perm):
            ri, rj = find(i), find(j)
            root[max(ri, rj)] = min(ri, rj)
    reps = [i for i in range(size) if find(i) == i]
    return reps + [i for i in range(size) if find(i) != i], len(reps)


def is_pseudo_arc(elements: Union[PseudoArc, Sequence[Subspace]], k: int) -> ArcVerdict:
    """Exhaustively test that every k of the elements span the whole
    space.

    A depth-first walk visits the k-subsets in lexicographic index order
    on int rows.  Each level reduces the rows of every later element
    modulo the span of its prefix once, so a subset costs only one
    reduction of its last element's rows and their rank test, which
    leaves the final row unscaled.  When
    an element meets the span of the prefix before it, every subset
    starting with that prefix is degenerate; the first of them, the
    prefix completed by the next indices, is the witness: the
    lexicographically first failure.

    The curve's projectivities that map the family onto itself (see
    ``_orbit_order``) map spanning k-subsets to spanning k-subsets, so
    every k-subset is the image of one through an orbit representative.
    The walk moves the representatives first and stops its top level
    after them.  When that reduced walk meets a failure, the full walk
    in the original order runs again and supplies the witness.  The
    verdict counts the k-subsets walked (both walks on such a
    refutation) and the orbits.  A true verdict on more than the size
    bound is impossible and raises InvariantError.
    """
    if isinstance(elements, PseudoArc):
        elements = list(elements.elements)
    else:
        elements = list(elements)
    if not elements:
        return ArcVerdict(True)
    h = elements[0].rank
    n = h * k
    fld = elements[0].field
    for el in elements:
        if el.rank != h or el.ambient_dim != n or el.field is not fld:
            raise ValueError("elements of mixed shape")
    size = len(elements)
    if size < k:
        return ArcVerdict(True, orbits=size)
    rows = [el.int_rows for el in elements]
    prefix = []
    walked = 0

    def independent(el_rows):
        """True when one element's rows, reduced modulo the prefix span,
        are independent; the final row is tested, never scaled."""
        basis = []
        return (all(insert_row(fld, basis, r) for r in el_rows[:-1])
                and any(reduce_row(fld, basis, el_rows[-1])))

    def first_failure(start, stop, cands):
        """The first failing subset that extends the prefix, or None;
        cands[j] holds element j's rows reduced modulo the prefix span,
        and the prefix's next index stays below stop."""
        nonlocal walked
        depth = len(prefix)
        for i in range(start, min(stop, size - k + depth + 1)):
            if depth + 1 == k:
                walked += 1
                if not independent(cands[i]):
                    return tuple(prefix) + (i,)
                continue
            basis = []
            if not all(insert_row(fld, basis, r) for r in cands[i]):
                walked += 1
                return tuple(prefix) + tuple(range(i, i + k - depth))
            reduced = {j: [reduce_row(fld, basis, r) for r in cands[j]]
                       for j in range(i + 1, size)}
            prefix.append(i)
            witness = first_failure(i + 1, size, reduced)
            prefix.pop()
            if witness:
                return witness
        return None

    order, orbits = _orbit_order(fld, rows)
    witness = first_failure(0, orbits, [rows[i] for i in order])
    if witness and orbits < size:
        witness = first_failure(0, size, rows)
        if not witness:
            raise InvariantError("the reduced walk failed, the full walk did not")
    if witness:
        return ArcVerdict(False, witness, walked, orbits)
    bound = thas_bound(h, k, fld.order)
    if size > bound:
        raise InvariantError("%d elements verified, above the size bound %d"
                             % (size, bound))
    return ArcVerdict(True, None, walked, orbits)


def contained_in_spread(arc: Union[PseudoArc, Sequence[Subspace]],
                        spread: Spread) -> ArcVerdict:
    """Test every element for spread membership; the first failure is
    the witness.  An empty family is vacuously contained."""
    elements = list(arc.elements) if isinstance(arc, PseudoArc) else list(arc)
    for i, el in enumerate(elements):
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
    elements = [spread.element_through(c) for c in coords]
    tags = [Tag("external")] * len(elements)
    return PseudoArc(tow, k, elements, tags)
