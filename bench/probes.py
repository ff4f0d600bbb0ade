"""Small timing probes of the layers that jobs only reach inside other
calls: field operations, determinants, solves, row reduction and point
enumeration.  They run in the traced run only.  Each probe repeats its
loop and keeps the fastest pass, as a per-operation time.
"""

import itertools
import operator
import time

from pseudoarcs.gf import GF, factor_prime_power, tower
from pseudoarcs.linalg import det, rref, solve
from pseudoarcs.projgeo import ambient_space
from pseudoarcs.pseudoarc import build_imaginary_arc

REPEATS = 3
OPERATORS = {"mul": operator.mul, "add": operator.add}


def _fastest(fn, ops):
    best = None
    for _ in range(REPEATS):
        t = time.perf_counter()
        fn()
        took = time.perf_counter() - t
        best = took if best is None else min(best, took)
    return best / ops


def field_op_ns(fields, op):
    """Nanoseconds per FieldElement multiply ("mul") or add ("add"),
    averaged over the given (p, m) fields: 48 x 48 operations on fixed
    nonzero elements."""
    per_field = []
    for p, m in sorted(fields):
        fld = GF.get(p, m)
        xs = [fld((i * 7919) % (fld.order - 1) + 1) for i in range(48)]

        fn = OPERATORS[op]

        def loop():
            for a in xs:
                for b in xs:
                    fn(a, b)

        per_field.append(_fastest(loop, len(xs) ** 2) * 1e9)
    return sum(per_field) / len(per_field)


def determinants():
    """Microseconds per det of the stacked 6 x 6 matrices of 3-subsets
    of the (h, k, q) = (2, 3, 7) arc, as verify-arc builds them."""
    arc = build_imaginary_arc(tower(7, 1, 2), 3)
    mats = []
    for subset in itertools.islice(itertools.combinations(arc.elements, 3), 150):
        mats.append([list(r) for el in subset for r in el.rows])

    def loop():
        for m in mats:
            det(m)

    return _fastest(loop, len(mats)) * 1e6


def solves(code):
    """Microseconds per solve of the hk x hk systems the erasure decoder
    builds from pairs of surviving coordinates of `code` (k = 2)."""
    tow = code.tow
    h, hk = tow.h, tow.h * code.k_msg
    systems = []
    for pair in itertools.islice(itertools.combinations(range(code.n), 2), 60):
        matrix = []
        for j in pair:
            col = [tow.normal_coords(code.gen[r][j]) for r in range(hk)]
            for i in range(h):
                matrix.append([col[r][i] for r in range(hk)])
        systems.append((matrix, [tow.base.one] * hk))

    def loop():
        for a, b in systems:
            solve(a, b)

    return _fastest(loop, len(systems)) * 1e6


def row_reductions():
    """Microseconds per rref of the condition matrix quadrics through
    builds for the (2, 2, 7) arc: one row per point, one column per
    monomial of PG(3, 7)."""
    arc = build_imaginary_arc(tower(7, 1, 2), 2)
    pairs = [(i, j) for i in range(4) for j in range(i, 4)]
    rows = [[pt[i] * pt[j] for i, j in pairs]
            for el in arc.elements for pt in el.points()]

    def loop():
        rref(rows)

    return _fastest(loop, 1) * 1e6


def points():
    """Microseconds per point of Subspace.points over PG(3, 7)."""
    space = ambient_space(GF.get(*factor_prime_power(7)), 4)
    count = (7 ** 4 - 1) // 6

    def loop():
        for _ in space.points():
            pass

    return _fastest(loop, count) * 1e6
