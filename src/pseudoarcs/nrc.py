"""Rational normal curves and their osculating data.

Points of the degree-(N-1) rational curve are parametrized by the
projective line: an affine parameter t gives (1, t, ..., t^(N-1)), and
the point at infinity gives (0, ..., 0, 1).  The module also provides
Hasse derivative row matrices (osculating bases), the generator test for
extension-field elements, and canonical representatives of the
Frobenius orbits of maximal size.
"""

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .gf import FieldElement, FieldTower, GF, InvariantError, prime_factors


class _Infinity:
    """Sentinel for the parameter of the point at infinity."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INFINITY"


INFINITY = _Infinity()


@dataclass(frozen=True)
class NrcPoint:
    """A curve point: its parameter (field element or INFINITY) and
    its coordinate vector."""

    param: object
    coords: Tuple[FieldElement, ...]

    def __len__(self):
        return len(self.coords)


def veronese(field: GF, u, t, length: int) -> NrcPoint:
    """Image of the projective parameter (u : t) under the power map
    of the given length.

    Coordinate i is u^(length-1-i) * t^i.  The parameter must be
    normalized: u = 1, or (u, t) = (0, 1).
    """
    u = u if isinstance(u, FieldElement) else field(u)
    t = t if isinstance(t, FieldElement) else field(t)
    if not u and not t:
        raise ValueError("(0, 0) is not a projective parameter")
    if u == field.one:
        coords = [field.one]
        for _ in range(length - 1):
            coords.append(coords[-1] * t)
        return NrcPoint(t, tuple(coords))
    if not u and t == field.one:
        coords = [field.zero] * (length - 1) + [field.one]
        return NrcPoint(INFINITY, tuple(coords))
    raise ValueError("parameter not normalized: expected u = 1 or (0, 1)")


def nrc_points(field: GF, length: int) -> List[NrcPoint]:
    """All |F| + 1 points of the rational normal curve in dimension
    length, affine parameters first (ascending), infinity last."""
    if length < 2:
        raise ValueError("need at least 2 coordinates")
    pts = [veronese(field, field.one, t, length) for t in field.elements()]
    pts.append(veronese(field, field.zero, field.one, length))
    return pts


def osc_basis(t: FieldElement, order: int, length: int) -> List[List[FieldElement]]:
    """Hasse derivative rows of the curve at affine parameter t.

    Row r is the r-th Hasse derivative of the power parametrization:
    entry (r, i) = C(i, r) * t^(i-r), the coefficient of s^r in (t + s)^i.
    Rows 0..order span the order-th osculating space in any characteristic.
    """
    return [t.field.wrap(row) for row in osc_ints(t.field, t.val, order, length)]


def osc_ints(field: GF, t, order: int, length: int) -> List[List[int]]:
    """:func:`osc_basis` on encodings, at the parameter encoded by t, or
    at the point at infinity for t = INFINITY, where row r is the unit
    vector with a 1 in column length-1-r."""
    if length - 1 <= order:
        raise ValueError("order must be below the curve degree")
    if t is INFINITY:
        return [[int(i == length - 1 - r) for i in range(length)]
                for r in range(order + 1)]
    return [[col[0] for col in row] for row in osc_entries(field, [t], order, length)]


def osc_entries(field: GF, ts: Sequence[int], order: int,
                length: int) -> List[List[List[int]]]:
    """:func:`osc_ints` at every affine parameter encoded in ``ts`` at
    once, entry by entry: entry (r, i) of the rows at ts[e] is
    [r][i][e].  One int list per power of t holds it for every t."""
    if length - 1 <= order:
        raise ValueError("order must be below the curve degree")
    zeros, negs = [0] * len(ts), [field.neg(t) for t in ts]
    pows = [[1] * len(ts)]
    for _ in range(length - 1):
        pows.append(field.sub_product(zeros, negs, pows[-1]))
    # C(i, r) lies in the prime field, encoded as itself
    return [[zeros] * r + [field.scaled(math.comb(i, r) % field.p, pows[i - r])
                           for i in range(r, length)] for r in range(order + 1)]


def osc_basis_infty(field: GF, order: int, length: int) -> List[List[FieldElement]]:
    """Hasse derivative rows at the point at infinity (see :func:`osc_ints`)."""
    return [field.wrap(row) for row in osc_ints(field, INFINITY, order, length)]


def is_imaginary(alpha: FieldElement, tow: FieldTower) -> bool:
    """True iff alpha generates the top field over the base, i.e. lies
    in no proper intermediate subfield."""
    return not tow.in_proper_subfield(alpha)


def mobius(n: int) -> int:
    """Moebius function."""
    if n < 1:
        raise ValueError("positive integer required")
    primes = prime_factors(n)
    m = 1
    for r in primes:
        m *= r
    if m != n:
        return 0  # not squarefree
    return -1 if len(primes) % 2 else 1


def orbit_rep_count(q: int, h: int) -> int:
    """Number of size-h orbits of x -> x^q on the degree-h extension:
    (1/h) * sum over d | h of mobius(h/d) * q^d."""
    total = 0
    for d in range(1, h + 1):
        if h % d == 0:
            total += mobius(h // d) * q ** d
    if total % h:
        raise InvariantError("Moebius sum %d not divisible by h = %d" % (total, h))
    return total // h


def frobenius_orbit_reps(tow: FieldTower) -> Tuple[FieldElement, ...]:
    """Smallest-encoding representatives of the orbits of x -> x^q that
    have full size h, sorted ascending.  These parametrize both the arc
    elements and the code coordinates, so the order is fixed.  The
    count always matches orbit_rep_count(q, h).

    The walk runs on encodings: ascending, each encoding not yet seen
    starts an orbit, followed by ``top.pow(y, q)`` until it closes."""
    h, q, top = tow.h, tow.q, tow.top
    frob = top.pow
    seen = bytearray(top.order)
    reps = []
    for v in range(top.order):
        if seen[v]:
            continue
        seen[v] = size = 1
        y = frob(v, q)
        while y != v:
            seen[y] = 1
            size += 1
            y = frob(y, q)
        if size == h:
            reps.append(v)
    if len(reps) != orbit_rep_count(q, h):
        raise InvariantError("%d orbit representatives, the Moebius count is %d"
                             % (len(reps), orbit_rep_count(q, h)))
    return tuple(top.wrap(reps))
