"""A worked eleven-line family in PG(5, 4), bundled as a regression
fixture.

The same family is presented three ways and cross-checked: as explicit
spanning pairs over F_4, as field reductions of points (the rational
parts of their conjugate spans) and tangent lines of a rational normal
curve sitting in the quadratic extension, and as the image of the
standard imaginary-point construction under an explicit projectivity.
The associated additive code has parameters (11, 4^6, 9) over F_16.

Entry encoding: line and matrix entries are exponents of the cube root
of unity e (None for the zero entry); point entries are exponents of
the primitive element w (None for zero), with e = w^5.
"""

from random import Random
from typing import List, Optional, Sequence, Tuple

from .codes import (AdditiveCode, ERASED, code_from_subspaces, encode,
                    erasure_decode, fold_columns, min_distance)
from .gf import FieldElement, FieldTower, InvariantError, Poly, tower
from .linalg import rank_ints, vec_mat_ints
from .nrc import nrc_points
from .projgeo import Subspace, apply_projectivity_family, field_reduction_family, span
from .pseudoarc import build_imaginary_arc, extend_with_osculating, is_pseudo_arc

# x^4 + x + 1, low degree first; its roots in F_16 are primitive
_W_MIN_POLY = (1, 1, 0, 0, 1)

# spanning pairs of the eleven lines; the eighth is reconstructed from
# its defining imaginary point instead of carrying its own pair
_LINES: Tuple[Optional[Tuple[Tuple[Optional[int], ...], ...]], ...] = (
    ((0, None, None, None, None, None), (None, 0, None, None, None, None)),
    ((0, None, 1, 1, 1, 0), (None, 0, 1, 0, 0, 0)),
    ((0, None, 0, None, 0, None), (None, 0, None, 0, None, 0)),
    ((0, None, None, 1, 0, 1), (None, 0, 1, 2, 1, None)),
    ((0, None, 1, 2, None, 0), (None, 0, 2, 2, 0, 2)),
    ((None, None, 0, None, None, None), (None, None, None, 0, None, None)),
    ((None, None, None, None, 0, None), (None, None, None, None, None, 0)),
    None,
    ((0, None, 0, 2, 2, 0), (None, 0, 0, 0, None, 1)),
    ((0, None, None, 0, None, 1), (None, 0, 0, 2, 1, 2)),
    ((0, None, 1, None, 1, 1), (None, 0, 0, 1, 2, 1)),
)

# the five rational curve points followed by the six imaginary ones
_POINTS: Tuple[Tuple[Optional[int], ...], ...] = (
    (0, None, None, None, None, None),
    (0, 0, None, 10, 10, None),
    (0, 5, 0, 5, 0, 5),
    (0, 10, 0, None, None, 5),
    (None, 0, 10, 10, 0, 10),
    (None, None, 0, 6, None, None),
    (None, None, None, None, 0, 3),
    (0, 7, 8, 5, 14, 12),
    (0, 2, 8, 4, 10, 9),
    (0, 11, 11, 13, 1, 9),
    (0, 1, 2, 6, 3, 9),
)

# projectivity carrying the curve onto the standard one (left action)
_MATRIX: Tuple[Tuple[Optional[int], ...], ...] = (
    (0, 1, None, 0, 0, 2),
    (1, 0, 0, 0, 2, None),
    (2, 0, 1, None, 0, 0),
    (0, 2, 0, 1, None, 0),
    (1, 2, 0, 2, 1, 2),
    (2, 1, None, 1, 1, 0),
)


def fixture_tower() -> FieldTower:
    return tower(2, 2, 2)


def w_element(tow: FieldTower) -> FieldElement:
    """Smallest-encoded root of x^4 + x + 1 in the top field."""
    f = Poly.from_ints(tow.top, list(_W_MIN_POLY))
    for x in tow.top.elements():
        if not f.evaluate(x):
            return x
    raise InvariantError("no root of the defining polynomial")


def _powers(tow: FieldTower) -> Tuple[List[FieldElement], List[FieldElement]]:
    """The 15 powers of w, top level, and the 3 powers of e = w^5, base
    level: every nonzero fixture entry is one of them."""
    w = w_element(tow)
    w_pows = [w ** a for a in range(15)]
    return w_pows, [tow.to_base(x) for x in w_pows[::5]]


def _vector(exps: Sequence[Optional[int]], pows: List[FieldElement]) -> List[FieldElement]:
    return [pows[0].field.zero if a is None else pows[a] for a in exps]


def _points(w_pows: Sequence[FieldElement]) -> List[List[FieldElement]]:
    return [_vector(exps, w_pows) for exps in _POINTS]


def _conjugates(tow: FieldTower, points: Sequence[Sequence[FieldElement]]
                ) -> List[List[FieldElement]]:
    return [[tow.frobenius(x, 1) for x in pt] for pt in points]


def _reductions(tow: FieldTower, points: Sequence[Sequence[FieldElement]]
                ) -> List[Subspace]:
    """The field reductions of top-level points, in order, by one
    ``field_reduction_family``."""
    return field_reduction_family(tow, [[x.val for x in col] for col in zip(*points)])


def _lines(tow: FieldTower, points: Sequence[Sequence[FieldElement]],
           e_pows: Sequence[FieldElement]) -> List[Subspace]:
    derived = iter(_reductions(tow, [pt for pair, pt in zip(_LINES, points)
                                     if pair is None]))
    return [next(derived) if pair is None
            else span([_vector(row, e_pows) for row in pair])
            for pair in _LINES]


def fixture_points(tow: FieldTower) -> List[List[FieldElement]]:
    """The eleven defining curve points, top level; the first five are
    rational, the last six imaginary."""
    return _points(_powers(tow)[0])


def fixture_matrix(tow: FieldTower) -> List[List[FieldElement]]:
    e_pows = _powers(tow)[1]
    return [_vector(row, e_pows) for row in _MATRIX]


def fixture_lines(tow: FieldTower) -> List[Subspace]:
    """The eleven lines of PG(5, 4), in order."""
    return _lines(tow, fixture_points(tow), _powers(tow)[1])


def fixture_code(tow: FieldTower) -> AdditiveCode:
    """The additive code of the eleven lines, one column each."""
    return code_from_subspaces(tow, fixture_lines(tow), 3)


def verify_fixture() -> List[Tuple[str, bool, str]]:
    """Run every cross-check; returns (name, ok, detail) triples.

    All checks are exhaustive and deterministic; the whole battery is
    the backing of the `verify-example` command.
    """
    tow = fixture_tower()
    checks: List[Tuple[str, bool, str]] = []
    # the powers of w and e, the points and the lines are built once and
    # shared by the checks
    w_pows, e_pows = _powers(tow)
    w, e = w_pows[1], w_pows[5]
    points = _points(w_pows)

    ok = (w ** 4 == w + tow.top.one and e == w ** 5
          and e * e == e + tow.top.one)
    order = next(n for n in range(1, 16) if w ** n == tow.top.one)
    ok = ok and order == 15
    checks.append(("defining-constants", ok,
                   "w^4 = w + 1, multiplicative order %d, e = w^5" % order))

    lines = _lines(tow, points, e_pows)
    # two lines meet trivially exactly when their four rows have rank 4,
    # which also makes them distinct
    disjoint = all(rank_ints(tow.base, lines[i].int_rows + lines[j].int_rows) == 4
                   for i in range(11) for j in range(i + 1, 11))
    checks.append(("lines-pairwise-disjoint", disjoint,
                   "11 lines, pairwise trivial intersection"))

    # the verdict is taken on the lines carried to the standard frame,
    # where they are the curve family and are decided by their binary
    # forms, with no walk; the matrix keeps the order and is nonsingular
    # (apply_projectivity_family refuses it otherwise), so the verdict and
    # witness are the lines' own
    matrix = [_vector(row, e_pows) for row in _MATRIX]
    mapped = apply_projectivity_family(matrix, lines)
    verdict = is_pseudo_arc(mapped, 3)
    checks.append(("lines-pseudo-arc", bool(verdict),
                   "every 3 of the 11 lines span PG(5, 4)"
                   if verdict else "failing triple %s" % (verdict.witness,)))

    # forward images of the 17 points on encodings, each scaled to a
    # first nonzero entry 1; a projectivity is a bijection on subspaces,
    # so the lines map forward too
    top = tow.top
    lifted_t = [[tow.embed_table[x.val] for x in col] for col in zip(*matrix)]
    images = []
    all_points = points + _conjugates(tow, points[5:])
    for pt in all_points:
        img = vec_mat_ints(top, [x.val for x in pt], lifted_t)
        lead = next((x for x in img if x), 1)
        images.append(tuple(top.scaled(top.inv(lead), img)))
    curve = {tuple(x.val for x in p.coords) for p in nrc_points(top, 6)}
    checks.append(("curve-bijection", set(images) == curve and len(all_points) == 17,
                   "projectivity maps the 17 points onto the standard curve"))

    derived_ok = _reductions(tow, points[5:]) == lines[5:]
    checks.append(("conjugate-span-lines", derived_ok,
                   "lines 6..11 are the rational parts of their points' conjugate spans"))

    # the standard family ends with the tangent lines, at t = 0, ..., q - 1
    # and at infinity (first coordinate 0)
    standard = extend_with_osculating(build_imaginary_arc(tow, 3))
    tangents = standard.elements[-tow.q - 1:]
    tangent_ok = all(images[i] in curve and mapped[i] == tangents[
        tow.embed_table.index(images[i][1]) if images[i][0] else tow.q] for i in range(5))
    checks.append(("tangent-lines", tangent_ok,
                   "lines 1..5 are the pulled-back curve tangents at their points"))

    checks.append(("standard-construction", set(mapped) == set(standard.elements),
                   "the family is the standard 11-element construction, "
                   "transported by the projectivity"))

    code = code_from_subspaces(tow, lines, 3)
    d = min_distance(code)
    # the code is MDS when its folded columns, which are the lines, form
    # the pseudo-arc verified above, and its distance meets the bound
    code_ok = ((code.n, code.size, d) == (11, 4096, 9) and verdict.ok
               and d == code.n - code.k_msg + 1 and fold_columns(code) == lines)
    checks.append(("code-parameters", code_ok,
                   "(n, size, d) = (%d, %d, %d), distance enumerated over "
                   "all %d words" % (code.n, code.size, d, code.size)))

    rng = Random(1)
    f = Poly(tow.base, [tow.base(rng.randrange(4)) for _ in range(6)])
    word = encode(f, code)
    erased = list(word)
    for j in rng.sample(range(11), 8):
        erased[j] = ERASED
    checks.append(("erasure-roundtrip", erasure_decode(erased, code) == f,
                   "recovery from 8 erasures in the length-11 code"))

    return checks
