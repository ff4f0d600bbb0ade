"""Pseudo-arcs of PG(hk-1, q): families of (h-1)-dimensional subspaces
any k of which span the whole space.

The main construction takes one element per Frobenius orbit of
generators of the extension field: the field reduction of the curve
point with that parameter, the rational point set of the span of its
conjugates, read off the minimal polynomial of the parameter.  The
family extends by the order-(h-1) osculating spaces at the rational
curve points.  Verification is exhaustive over k-subsets:
the curve's projectivities that permute the family generate a group,
and a walk along its stabilizer chain tests one k-tuple per orbit.
"""

import warnings
from dataclasses import dataclass, field
from random import Random
from typing import List, Optional, Sequence, Tuple, Union

from .gf import FieldElement, FieldTower, InvariantError
from .linalg import (SingularMatrixError, insert_row, reduce_row, rref_ints,
                     vec_mat_ints)
from .nrc import INFINITY, curve_projectivity, frobenius_orbit_reps, osc_ints
from .projgeo import Spread, Subspace, spread_membership


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
    lexicographically first offending index subset.  ``walked`` counts
    the k-tuples tested and ``orbits`` the orbits of the curve's group on
    the elements; they describe the work, not the verdict, and take no
    part in equality."""

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
    conjugate span, read off the minimal polynomial of alpha.

    Λ-order (representatives ascending) fixes the element order.  For
    h = 1 the orbit representatives are all of F_q and the elements are
    the affine curve points themselves.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    _warn_small_field(tow, k)
    n = tow.h * k
    unembed = {t: b for b, t in enumerate(tow.embed_table)}
    elements = []
    tags = []
    for alpha in frobenius_orbit_reps(tow):
        rows = _imaginary_rows(tow, alpha.val, n, unembed)
        elements.append(Subspace.from_ints(tow.base, n, rows))
        tags.append(Tag("imaginary", alpha))
    return PseudoArc(tow, k, elements, tags)


def _imaginary_rows(tow, v, n, unembed):
    """The reduced rows of the field reduction of (1, a, ..., a^(n-1)),
    a the top element encoded by v: column j holds the base encodings of
    the coefficients of x^j mod m = prod_(i<h) (x - a^(q^i)).

    The field reduction is {(Tr(mu a^j))_j}; for mu_i in the trace-dual
    basis of (1, a, ..., a^(h-1)) and a^j = sum_i c_ij a^i, Tr(mu_i a^j)
    is c_ij.  The rank, h, is checked as the number of distinct conjugates
    of a, and each coefficient of m must lie in the base field."""
    top, h, q = tow.top, tow.h, tow.q
    conj = [v]
    for _ in range(h - 1):
        conj.append(top.pow(conj[-1], q))
    if len(set(conj)) != h:
        raise InvariantError("element of rank %d at alpha = %d, expected %d"
                             % (len(set(conj)), v, h))
    poly = [1]  # coefficients, lowest first; times x - c is x*poly - c*poly
    for c in conj:
        shifted = [0] + poly
        poly = top.sub_scaled(shifted, c, poly + [0]) if c else shifted
    low = [unembed.get(a) for a in poly[:h]]
    if None in low:
        raise InvariantError("minimal polynomial at alpha = %d has a coefficient "
                             "outside the base field" % v)
    # x * col, with x^h replaced by -(low . (1, x, ..., x^(h-1)))
    sub_scaled = tow.base.sub_scaled
    col = [1] + [0] * (h - 1)
    cols = [col]
    for _ in range(n - 1):
        lead = col[-1]
        col = [0] + col[:-1]
        if lead:
            col = sub_scaled(col, lead, low)
        cols.append(col)
    return list(zip(*cols))


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
    elimination.  The reversal (t -> 1/t) reverses each row and reduces
    the images.  Any other M sums multiples c*M_j of its rows, each
    computed on first use.  An upper unitriangular M, as of t -> t + 1,
    keeps each row's pivot and leading 1, so only the entries at the
    other pivots are cleared, latest row first; the images under any
    other M are fully reduced."""
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
        unitriangular = all(mat[i][j] == (1 if i == j else 0)
                            for i in range(n) for j in range(i + 1))

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
            if not unitriangular:
                return tuple(map(tuple, rref_ints(fld, out)[0]))
            cleared = []
            for r, w in zip(reversed(rows), reversed(out)):
                cleared.append((r.index(1), reduce_row(fld, cleared, w)))
            return tuple(tuple(w) for _, w in reversed(cleared))
    return image


def _curve_permutations(fld, rows) -> List[List[int]]:
    """The permutations of the element indices that the curve's
    projectivities induce.  ``rows`` holds the elements' ``int_rows``,
    which also key the lookup of an image.

    The generators t -> t + 1, t -> xi*t and t -> 1/t are not trusted: a
    generator counts only when the canonical image of every element is an
    element again and the images form a permutation other than the
    identity.  When M*M is scalar the generator is an involution on
    subspaces, and the image i -> j found for one element gives j -> i
    without a second lookup.  A family with a repeated element gets no
    permutation.
    """
    size = len(rows)
    index = {}
    for i, el in enumerate(rows):
        index.setdefault(el, i)
    if len(index) < size:
        return []
    n = len(rows[0][0])
    xi = fld.primitive_element().val
    perms = []
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
        if None not in perm and len(set(perm)) == size and perm != list(range(size)):
            perms.append(perm)
    return perms


def _orbits(gens, points):
    """The orbits of the group generated by ``gens`` on ``points``, an
    ascending list that is a union of orbits.  Each orbit is a list headed
    by its smallest point, and the orbits come in the order of their
    heads.  The Schreier vector maps every point off a head to the index
    of the generator that first reached it."""
    if not gens:
        return [[x] for x in points], {}
    vec = {}
    orbits = []
    for x in points:
        if x in vec:
            continue
        vec[x] = None
        orbit = [x]
        for y in orbit:
            for t, s in enumerate(gens):
                z = s[y]
                if z not in vec:
                    vec[z] = t
                    orbit.append(z)
        orbits.append(orbit)
    return orbits, vec


# the steps of the random walk whose sifted images generate a point
# stabilizer, and the generators per step
STABILIZER_WORDS = 6
WORD_LENGTH = 8


def _stabilizer(gens, b, vec, rng):
    """Generators of a subgroup of the stabilizer of b, the head of its
    orbit under ``gens`` with Schreier vector ``vec``.  One random walk
    through the group, ``WORD_LENGTH`` generators a step, is sifted after
    each step: followed by the inverse of the Schreier-tree word that
    carries b to the walk's image of b.  Identities and repeats are
    dropped."""
    inverses = [sorted(range(len(s)), key=s.__getitem__) for s in gens]
    identity = list(range(len(gens[0])))
    letters = iter(rng.choices(gens, k=STABILIZER_WORDS * WORD_LENGTH))
    out = []
    w = identity
    for _ in range(STABILIZER_WORDS):
        for _ in range(WORD_LENGTH):
            w = list(map(next(letters).__getitem__, w))
        g, x = w, w[b]
        while x != b:
            inv = inverses[vec[x]]
            g = list(map(inv.__getitem__, g))
            x = inv[x]
        if g != identity and g not in out:
            out.append(g)
    return out


def _chain_walk(k, gens, points, split, step, rng):
    """Walk one k-tuple of ``points`` per orbit, under the group that
    ``gens`` generate, and return the first failing k-subset found, or
    None.  ``split`` is ``_orbits(gens, points)``.

    A node holds a prefix P, generators of a subgroup H of the pointwise
    stabilizer of P, and its candidates: a union A of H-orbits, ascending.
    It extends P by the head b of each H-orbit B on A in turn, and the
    child's candidates are the points of A after b outside the orbits
    before B.  Any k-subset through P with its other points in A is then
    carried by H to a tuple the walk reaches (Sims 1970; Seress,
    "Permutation Group Algorithms", 2003, ch. 4).  The child's generators
    are ``_stabilizer``'s; they may generate less than the stabilizer of
    b, which splits orbits and costs walking, never soundness.  With no
    generators every orbit is one point, and the walk visits the
    k-subsets in lexicographic order.

    ``step(prefix, b, rest)`` tests b against the prefix, and prepares
    the child on ``rest`` when the tuple is not yet complete.  When it
    fails, every k-subset through the prefix and b fails; the witness is
    the first of them, the prefix completed by the next candidates.
    """
    def walk(prefix, gens, points, split):
        need = k - len(prefix) - 1
        orbits, vec = split
        done = set()
        for pos, orbit in enumerate(orbits):
            b = orbit[0]
            rest = []
            if need:
                rest = ([x for x in points if x > b and x not in done] if gens
                        else points[pos + 1:])
                if len(rest) < need:
                    break
            if not step(prefix, b, rest):
                return prefix + (b,) + tuple(rest[:need])
            if need:
                done.update(orbit)
                sub = _stabilizer(gens, b, vec, rng) if len(orbit) > 1 else gens
                witness = walk(prefix + (b,), sub, rest, _orbits(sub, rest))
                if witness:
                    return witness
        return None

    return walk((), gens, points, split)


def is_pseudo_arc(elements: Union[PseudoArc, Sequence[Subspace]], k: int) -> ArcVerdict:
    """Exhaustively test that every k of the elements span the whole
    space.

    The curve's projectivities that map the family onto itself (see
    ``_curve_permutations``) map spanning k-subsets to spanning k-subsets,
    so ``_chain_walk`` tests one k-tuple per orbit of the group G they
    generate, at every depth one element per orbit of the stabilizer of
    the prefix.  Each level of the walk reduces the rows of its
    candidates modulo the span of its prefix once, so a tuple costs only
    one reduction of its last element's rows and their rank test, which
    leaves the final row unscaled.  When an element meets the span of the
    prefix before it, every subset through that prefix is degenerate.

    The stabilizers' generators are random words sifted into them, drawn
    from a generator seeded once per call, so the walk and its counts are
    deterministic.  When the walk under G meets a failure, the walk with
    no generators, over the k-subsets in lexicographic order, runs again
    and supplies the lexicographically first witness.  The verdict counts
    the k-tuples tested (both walks on such a refutation) and the
    G-orbits on the elements.  A true verdict on more than the size bound
    is impossible and raises InvariantError.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if isinstance(elements, PseudoArc):
        elements = list(elements.elements)
    else:
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
        return ArcVerdict(True, orbits=size)
    rows = [el.int_rows for el in elements]
    # per depth: the candidates' rows modulo the span of the prefix
    # without its last element, and that element's reduced rows
    levels = [(rows, [])] * k
    walked = 0

    def step(prefix, b, rest):
        nonlocal walked
        depth = len(prefix)
        cands, basis = levels[depth]
        if depth + 1 == k:
            walked += 1
            basis = list(basis)
            el_rows = cands[b]
            return (all(insert_row(fld, basis, r) for r in el_rows[:-1])
                    and any(reduce_row(fld, basis, el_rows[-1])))
        echelon = []
        if not all(insert_row(fld, echelon, r) for r in cands[b]):
            walked += 1
            return False
        if depth + 2 == k:
            levels[depth + 1] = cands, echelon
        else:
            levels[depth + 1] = {j: [reduce_row(fld, echelon, r) for r in cands[j]]
                                 for j in rest}, []
        return True

    gens = _curve_permutations(fld, rows)
    everything = list(range(size))
    top = _orbits(gens, everything)
    witness = _chain_walk(k, gens, everything, top, step, Random(0))
    if witness and gens:
        witness = _chain_walk(k, [], everything, _orbits([], everything), step, None)
        if not witness:
            raise InvariantError("the walk under the curve group failed, "
                                 "the plain walk did not")
    if witness:
        return ArcVerdict(False, witness, walked, len(top[0]))
    bound = thas_bound(h, k, fld.order)
    if size > bound:
        raise InvariantError("%d elements verified, above the size bound %d"
                             % (size, bound))
    return ArcVerdict(True, None, walked, len(top[0]))


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
