"""Metamorphic relations: a transformation whose effect on the answer is
known, checked on families too large for the brute-force references.

A projectivity M preserves spanning, so a family F and its image M·F
have the same verdict and the same lexicographically first witness.  A
curve-built F, clean or with an element copied over another, is decided
by its binary forms.  M·F has no forms, so ``is_pseudo_arc`` walks its
k-subsets: two algorithms for one answer.

The quadrics through M·F are those through F composed with M^-1, so the
dimension of the space of forms vanishing on a family is invariant too.

The folded columns of the extended code are the extended arc: the code
and the arc are built by separate routes from the same curve data.
"""

from random import Random

from pseudoarcs.codes import fold_columns, imaginary_code
from pseudoarcs.gf import factor_prime_power, tower
from pseudoarcs.linalg import rank_ints
from pseudoarcs.nrc import nrc_points
from pseudoarcs.projgeo import Subspace, apply_projectivity
from pseudoarcs.pseudoarc import (build_imaginary_arc, extend_with_osculating,
                                  is_pseudo_arc)
from pseudoarcs.quadrics import vanishing_space


# (p, e, h, k) of the arcs-grid points (h, k, q) = (2,2,7), (2,2,9),
# (2,3,7) and (3,2,7)
GRID = [(7, 1, 2, 2), (3, 2, 2, 2), (7, 1, 2, 3), (7, 1, 3, 2)]

# (h, k, q): the arcs grid, characteristic below h, and bare evaluation
# codes too short to stand alone
FOLD_GRID = [(2, 2, 7), (2, 2, 9), (2, 2, 11), (2, 2, 13), (2, 2, 16),
             (2, 3, 7), (2, 3, 8), (3, 2, 7),
             (3, 2, 4), (4, 2, 3), (3, 3, 4),
             (2, 3, 2), (2, 4, 3)]

# (h, k, q) with the dimension of the forms vanishing on the imaginary
# family and on the extended one: nonzero on the imaginary families of
# the first three, none at all at (2, 2, 7)
VANISHING_DIMS = {(2, 2, 3): (1, 0), (2, 3, 4): (4, 0), (3, 2, 2): (9, 0),
                  (2, 2, 7): (0, 0)}


def random_projectivity(fld, n, rng):
    """A seeded random nonsingular n x n matrix over fld."""
    while True:
        m = [[rng.randrange(fld.order) for _ in range(n)] for _ in range(n)]
        if rank_ints(fld, m) == n:
            return [[fld(x) for x in row] for row in m]


def planted(els, rng):
    """Two broken copies of a family: a later element replaced by an
    earlier one, and a later element replaced by a subspace that meets an
    earlier one in a point."""
    fld, n, h = els[0].field, els[0].ambient_dim, els[0].rank
    i, j = sorted(rng.sample(range(len(els)), 2))
    copied = els[:j] + [els[i]] + els[j + 1:]
    while True:
        rows = [list(els[i].rows[rng.randrange(h)])]
        rows += [[fld(rng.randrange(fld.order)) for _ in range(n)] for _ in range(h - 1)]
        meeting = Subspace(fld, n, rows)
        if meeting.rank == h and meeting not in els:
            break
    return [copied, els[:j] + [meeting] + els[j + 1:]]


def test_verdict_and_witness_are_invariant_under_projectivities():
    rng = Random(16)
    outcomes = set()
    for p, e, h, k in GRID:
        arc = build_imaginary_arc(tower(p, e, h), k)
        for els in (list(arc.elements), list(extend_with_osculating(arc).elements)):
            fld, n = els[0].field, els[0].ambient_dim
            for fam in [els] + planted(els, rng):
                verdict = is_pseudo_arc(fam, k)
                m = random_projectivity(fld, n, rng)
                moved = is_pseudo_arc([apply_projectivity(m, el) for el in fam], k)
                assert (moved.ok, moved.witness) == (verdict.ok, verdict.witness)
                assert moved.decided_by == "walk"
                outcomes.add((verdict.decided_by, verdict.ok))
    # the subspace planted to meet an earlier element has no form
    assert outcomes == {("forms", True), ("forms", False), ("walk", False)}


def test_vanishing_dimension_is_invariant_under_projectivities():
    # the imaginary and extended families, and the twisted cubic of
    # PG(3, 7), on 3 independent quadrics
    rng = Random(17)
    families = []
    for (h, k, q), dims in VANISHING_DIMS.items():
        arc = build_imaginary_arc(tower(*factor_prime_power(q), h), k)
        families += zip((list(arc.elements), list(extend_with_osculating(arc).elements)),
                        dims)
    fld = tower(7, 1, 1).base
    families.append(([Subspace(fld, 4, [list(pt.coords)]) for pt in nrc_points(fld, 4)], 3))
    for els, dim in families:
        m = random_projectivity(els[0].field, els[0].ambient_dim, rng)
        assert len(vanishing_space(els)) == dim
        assert len(vanishing_space([apply_projectivity(m, el) for el in els])) == dim


def test_folded_extended_code_is_the_extended_arc():
    # code gen --extend, then code fold, against construct-arc --extend
    for h, k, q in FOLD_GRID:
        tow = tower(*factor_prime_power(q), h)
        arc = extend_with_osculating(build_imaginary_arc(tow, k))
        folded = fold_columns(imaginary_code(tow, k, extend=True))
        assert set(folded) == set(arc.elements), (h, k, q)
        assert len(folded) == len(arc), (h, k, q)
