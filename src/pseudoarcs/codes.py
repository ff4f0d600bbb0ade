"""Additive codes over the extension field, F_q-linear with q^(hk)
codewords.

Messages are polynomials over F_q of degree less than hk, and every codeword
is the combination of the generator rows by the message coefficients: a
sum of packed products lift(p^i) * row, one per base-p digit of each
coefficient, from one table per code that the minimum distance walks
too.  A coordinate kind records how its generator column was built:
evaluation at a generator of the extension field, a derivative bundle
at a rational parameter t (all h Hasse derivative values folded against
the conjugates of a normal element), the analogous bundle of leading
coefficients for the parameter at infinity, or an external column
unfolded from a given subspace.  Folding generator columns into rank-h
subspaces recovers the matching pseudo-arc, which is how distance facts
become geometry and back.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Sequence

from .gf import FieldElement, FieldMismatchError, FieldTower, InvariantError, Poly
from .linalg import insert_row, rref_ints
from .nrc import INFINITY, frobenius_orbit_reps, is_imaginary, osc_entries, osc_ints
from .projgeo import Subspace, field_reduction_family
from .pseudoarc import is_pseudo_arc


class _Erased:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "ERASED"


ERASED = _Erased()


class DecodeError(Exception):
    pass


COORD_KINDS = ("alpha", "deriv", "infty", "external")

# the most messages min_distance enumerates unless told otherwise
WORD_BUDGET = 2 ** 20

@dataclass(frozen=True, slots=True)
class CoordSpec:
    """What one code coordinate computes from the message polynomial."""

    kind: str  # one of COORD_KINDS
    param: Optional[FieldElement] = None

    def __repr__(self):
        if self.param is not None:
            return "CoordSpec(%s, %d)" % (self.kind, self.param.val)
        return "CoordSpec(%s)" % self.kind


class AdditiveCode:
    """F_q-linear code of length n over F_{q^h}, given by an hk x n
    generator matrix whose F_q-row-combinations are the codewords.

    The rows are kept as ``int_rows`` of top encodings, the form the row
    kernel works on; ``gen`` wraps them as field elements on first use.
    """

    def __init__(self, tow: FieldTower, k_msg: int,
                 gen: Sequence[Sequence[FieldElement]],
                 eval_spec: Sequence[CoordSpec]):
        gen = [list(row) for row in gen]
        if any(x.field is not tow.top for row in gen for x in row):
            raise FieldMismatchError("generator entries must lie in the top field")
        self._init(tow, k_msg, [[x.val for x in row] for row in gen], eval_spec)

    @classmethod
    def from_ints(cls, tow: FieldTower, k_msg: int,
                  int_rows: Sequence[Sequence[int]],
                  eval_spec: Sequence[CoordSpec]) -> "AdditiveCode":
        """The code of int rows of top-field encodings, which are not
        range checked; shape, kinds and rank are checked as for the
        constructor."""
        self = cls.__new__(cls)
        self._init(tow, k_msg, int_rows, eval_spec)
        return self

    def _init(self, tow, k_msg, rows, eval_spec):
        if k_msg < 1:
            raise ValueError("k must be at least 1, got %d" % k_msg)
        rows = tuple(map(tuple, rows))
        if len(rows) != tow.h * k_msg:
            raise ValueError("generator must have hk rows")
        n = len(rows[0])
        if any(len(row) != n for row in rows):
            raise ValueError("ragged generator matrix")
        if n <= k_msg:
            raise ValueError("length must exceed the design parameter k")
        if len(eval_spec) != n:
            raise ValueError("one coordinate descriptor per column")
        for spec in eval_spec:
            if spec.kind not in COORD_KINDS:
                raise ValueError("unknown coordinate kind %r" % spec.kind)
        # rank over the base field, by columns: each top column gives h
        # base columns of length hk, its rows' normal-basis coordinates,
        # and the rank is full as soon as hk of them are independent
        basis = []
        for j in range(n):
            for col in zip(*[tow.normal_ints(row[j]) for row in rows]):
                insert_row(tow.base, basis, col)
            if len(basis) == len(rows):
                break
        else:
            raise ValueError("generator rows are dependent over the base field")
        self.tow = tow
        self.k_msg = k_msg
        self.n = n
        self.int_rows = rows
        self.eval_spec = tuple(eval_spec)
        self.omega = tow.normal_element()

    @cached_property
    def _distance(self):
        """The minimum distance, enumerated on first use; ``min_distance``
        checks the word budget before reading it."""
        return _min_weight(self)

    @cached_property
    def gen(self):
        element = self.tow.top.element
        return tuple(tuple(map(element, row)) for row in self.int_rows)

    @property
    def h(self) -> int:
        return self.tow.h

    @property
    def q(self) -> int:
        return self.tow.q

    @property
    def size(self) -> int:
        return self.q ** (self.h * self.k_msg)

    def __repr__(self):
        return "AdditiveCode(n=%d, size=%d^%d, over GF(%d))" % (
            self.n, self.q, self.h * self.k_msg, self.tow.top.order)

    def combine(self, message: Sequence[FieldElement]) -> List[FieldElement]:
        """Codeword as the F_q-combination of the generator rows."""
        return self.tow.top.wrap(self._word(message))

    @cached_property
    def _basis_words(self):
        """The packed word ops and products behind :meth:`_word` and
        :func:`_min_weight`, built on first use: ``(ops, words)``, ops the
        top field's ``word_ops(n)`` and entry [r][i] of ``words`` packing
        lift(p^i) * row r.  The p^i are the F_p-basis of the base field
        and lift is F_p-linear, so lift(c) * row r is the sum of d_i
        times entry [r][i] over the base-p digits d_i of c."""
        tow = self.tow
        ops = tow.top.word_ops(self.n)
        pack, scale = ops[0], ops[4]
        lifts = [tow.embed_table[tow.p ** i] for i in range(tow.e)]
        return ops, tuple(tuple(scale(c, word) for c in lifts)
                          for word in map(pack, self.int_rows))

    def _word(self, message: Sequence[FieldElement]) -> Sequence[int]:
        """:meth:`combine` as top-field encodings: a sum of the packed
        ``_basis_words`` and one unpack.  A base-p digit d costs one
        packed add when it is 1, and otherwise at most 2 log2(d) adds by
        its binary expansion."""
        message = list(message)
        if len(message) != self.h * self.k_msg:
            raise ValueError("message must have hk coefficients")
        (_, add, _, unpack, _), words = self._basis_words
        base = self.tow.base
        p = base.p
        acc = 0
        for c, row in zip(message, words):
            if c:
                if c.field is not base:
                    raise FieldMismatchError("lift expects a base-level element")
                v = c.val
                for w in row:
                    d = v % p
                    v //= p
                    if d:
                        # d * w by the bits of d, doubling w between them
                        while d > 1:
                            if d & 1:
                                acc = add(acc, w)
                            d >>= 1
                            w = add(w, w)
                        acc = add(acc, w)
        return unpack(acc)


def _evaluation_rows(tow: FieldTower, alphas: Sequence[FieldElement], k_msg: int):
    """The hk int rows and coordinate kinds of :func:`evaluation_code`."""
    alphas = list(alphas)
    if len(set(a.val for a in alphas)) != len(alphas):
        raise ValueError("repeated evaluation point")
    for a in alphas:
        if not is_imaginary(a, tow):
            raise ValueError("evaluation point %d does not generate the extension" % a.val)
    vals = [a.val for a in alphas]
    rows = [[1] * len(vals)]
    for _ in range(tow.h * k_msg - 1):
        rows.append(list(map(tow.top.mul, rows[-1], vals)))
    return rows, [CoordSpec("alpha", a) for a in alphas]


def evaluation_code(tow: FieldTower, alphas: Sequence[FieldElement],
                    k_msg: int) -> AdditiveCode:
    """The code whose columns evaluate messages at the given generators
    of the extension: column j carries the powers of alpha_j."""
    return AdditiveCode.from_ints(tow, k_msg, *_evaluation_rows(tow, alphas, k_msg))


def imaginary_code(tow: FieldTower, k_msg: int, extend: bool) -> AdditiveCode:
    """The code of ``code gen``: evaluation at the Frobenius orbit
    representatives and, with extend, the derivative bundles at every t
    and at infinity, built in one step, so only the final code is checked."""
    rows, spec = _evaluation_rows(tow, frobenius_orbit_reps(tow), k_msg)
    ts = tow.base.elements() if extend else []
    return _with_derivatives(tow, k_msg, rows, spec, ts, extend)


def _unfold(tow: FieldTower, rows: Sequence[Sequence[int]]) -> List[int]:
    """One code column from h base-level int rows: entry r is
    sum_i rows[i][r] * omega^(q^i), on top-field encodings.  Inverse of
    the per-column step of fold_columns up to the choice of basis."""
    top, embed = tow.top, tow.embed_table
    col = [0] * len(rows[0])
    for row, w in zip(rows, tow.normal_basis()):
        col = top.sub_scaled(col, top.neg(w.val), [embed[x] for x in row])
    return col


def extend_with_derivatives(code: AdditiveCode, ts: Sequence[FieldElement],
                            include_infty: bool = False) -> AdditiveCode:
    """Append derivative-bundle columns at the given rational
    parameters, and optionally the bundle at infinity.

    The column at t unfolds the order-(h-1) Hasse derivative rows
    against (omega, omega^q, ...).  The infinity column unfolds the
    infinity rows in reverse, pairing the last h coefficient slots with
    the conjugates in ascending order.  As for the osculating spaces of
    an arc, a new column whose field reduction is already a column's is
    refused.
    """
    return _with_derivatives(code.tow, code.k_msg, code.int_rows, code.eval_spec,
                             ts, include_infty)


def _with_derivatives(tow, k_msg, rows, spec, ts, include_infty):
    """:func:`extend_with_derivatives` of int rows and coordinate kinds."""
    h, hk = tow.h, tow.h * k_msg
    ts = list(ts)
    if len(set(t.val for t in ts)) != len(ts):
        raise ValueError("repeated derivative parameter")
    if any(t.field is not tow.base for t in ts):
        raise ValueError("derivative parameters live in the base field")
    bases = []
    if ts:  # the rows of each t, from one entry list per matrix entry
        entries = osc_entries(tow.base, [t.val for t in ts], h - 1, hk)
        bases = list(zip(*[list(zip(*row)) for row in entries]))
    new_spec = [CoordSpec("deriv", t) for t in ts]
    if include_infty:
        bases.append(osc_ints(tow.base, INFINITY, h - 1, hk)[::-1])
        new_spec.append(CoordSpec("infty"))
    if any(_reduces_to(tow, rows, sub) for sub in Subspace.family(tow.base, hk, bases)):
        raise ValueError("osculating spaces collide with existing elements")
    new_cols = [_unfold(tow, b) for b in bases]
    rows = [[*row, *(c[r] for c in new_cols)] for r, row in enumerate(rows)]
    return AdditiveCode.from_ints(tow, k_msg, rows, [*spec, *new_spec])


def _reduces_to(tow, rows, sub: Subspace) -> bool:
    """Whether a column of the int rows has field reduction sub.  Such a
    column c is c_P * R, for the pivots P and reduced rows R of sub, so
    all columns are tested at once at the first coordinate m outside P,
    and only those that pass are reduced."""
    top, embed = tow.top, tow.embed_table
    m = next(j for j in range(len(rows)) if j not in sub.pivots)
    word = rows[m]
    for pc, r in zip(sub.pivots, sub.int_rows):
        if r[m]:
            word = top.sub_scaled(word, embed[r[m]], rows[pc])
    hits = [j for j, v in enumerate(word) if not v]
    return bool(hits) and sub in field_reduction_family(
        tow, [[row[j] for j in hits] for row in rows])


def code_from_subspaces(tow: FieldTower, subspaces: Sequence[Subspace],
                        k_msg: int) -> AdditiveCode:
    """One column per rank-h subspace, unfolding its basis rows.
    Inverse of fold_columns up to the choice of basis within each
    subspace."""
    n = tow.h * k_msg
    gen_cols = []
    for i, s in enumerate(subspaces):
        if s.field is not tow.base or s.rank != tow.h:
            raise ValueError("need base-level subspaces of rank h")
        if s.ambient_dim != n:
            raise ValueError("subspace %d has ambient dimension %d, h*k_msg is %d"
                             % (i, s.ambient_dim, n))
        gen_cols.append(_unfold(tow, s.int_rows))
    rows = [[col[r] for col in gen_cols] for r in range(n)]
    spec = [CoordSpec("external")] * len(gen_cols)
    return AdditiveCode.from_ints(tow, k_msg, rows, spec)


def encode(message: Poly, code: AdditiveCode) -> List[FieldElement]:
    """Codeword of a message polynomial over the base field, of degree
    less than hk: the combination of the generator rows by its
    coefficients."""
    hk = code.h * code.k_msg
    if message.field is not code.tow.base:
        raise ValueError("message coefficients must lie in the base field")
    if message.degree >= hk:
        raise ValueError("message degree %d too large" % message.degree)
    return code.combine([message.coefficient(i) for i in range(hk)])


def min_distance(code: AdditiveCode, max_words: int = WORD_BUDGET) -> int:
    """Minimum nonzero Hamming weight over the message space (additivity
    makes this the minimum distance).  A code over the budget, which
    counts all q^(hk) messages, is refused first, even when its distance
    is known; otherwise the distance is enumerated once per code and kept
    on it (``AdditiveCode._distance``)."""
    if code.size > max_words:
        raise ValueError("code has %d words, over the budget %d; use the geometric "
                         "route: 'code fold', then 'verify-arc --k %d' on its output, "
                         "which verifies exactly when the code is MDS"
                         % (code.size, max_words, code.k_msg))
    return code._distance


def _min_weight(code: AdditiveCode) -> int:
    """The minimum nonzero weight of the code's words, enumerated.

    lift(c) * word has the weight of word for every nonzero c in F_q, so
    one message per scalar class is enough: the one whose first nonzero
    coefficient is 1.  The tail after each lead position is read as the
    base-p digits of its coefficients and walked in modular p-ary Gray
    order (Knuth, TAOCP 4A, 7.2.1.1): step t adds 1 to digit v_p(t), so
    the next word is the previous one plus that digit's word of
    ``AdditiveCode._basis_words``.  A step is one packed add and a
    weight one bit count.
    """
    (_, add, weight, _, _), words = code._basis_words
    p = code.tow.p
    best = code.n
    for lead, row in enumerate(words):
        tail = [w for ws in words[lead + 1:] for w in ws]
        word = row[0]
        best = min(best, weight(word))
        for t in range(1, p ** len(tail)):
            j = 0
            while t % p == 0:
                t //= p
                j += 1
            word = add(word, tail[j])
            w = weight(word)
            if w < best:
                best = w
    return best


def fold_columns(code: AdditiveCode) -> List[Subspace]:
    """The field reduction of each generator column, order preserved:
    the rank-h base-level subspace spanned by the column's normal-basis
    coordinate rows.

    Column entries x expand as x = sum_i c_i omega^(q^i); the vectors
    of i-th coordinates, one per conjugate, span the subspace.  All
    columns are reduced together (``field_reduction_family``).
    """
    return field_reduction_family(code.tow, code.int_rows)


def is_mds(code: AdditiveCode) -> bool:
    """Whether the code attains the Singleton bound, decided through
    the geometry: its folded columns must form a pseudo-arc.  The verdict
    is cross-checked against the minimum distance, which must then meet
    the bound exactly when the code is MDS: the distance already kept on
    the code, at any budget, or else the one enumerated here when the
    message space fits ``WORD_BUDGET``."""
    folded = fold_columns(code)
    geometric = bool(is_pseudo_arc(folded, code.k_msg))
    if "_distance" in vars(code) or code.size <= WORD_BUDGET:
        if geometric != (code._distance == code.n - code.k_msg + 1):
            raise InvariantError("geometric and metric verdicts disagree")
    return geometric


def erasure_decode(received: Sequence[object], code: AdditiveCode) -> Poly:
    """Recover the message polynomial from a word with ERASED marks.

    Each surviving coordinate contributes h base-field equations, one
    per normal-basis coordinate.  They are taken survivor by survivor
    in coordinate order, and one is kept only when it raises the rank,
    until hk are kept; their unique solution is re-encoded and checked
    against every surviving coordinate.  The word is refused when all
    the survivors together have rank less than hk.  For an MDS code the
    first k_msg survivors always give the hk equations.  A survivor
    outside the top field raises FieldMismatchError before any equation
    is read, wherever it stands.
    """
    tow = code.tow
    base, top = tow.base, tow.top
    hk = tow.h * code.k_msg
    received = list(received)
    if len(received) != code.n:
        raise DecodeError("word length %d, expected %d" % (len(received), code.n))
    survivors = [j for j, x in enumerate(received) if x is not ERASED]
    if len(survivors) < code.k_msg:
        raise DecodeError("only %d unerased coordinates, need %d"
                          % (len(survivors), code.k_msg))
    for j in survivors:
        if received[j].field is not top:
            raise FieldMismatchError("received symbol %d is not in the top field" % j)
    # int rows (equation | right-hand side) in echelon form; a row whose
    # equation part lies in the span reduces to pivot hk or vanishes
    basis = []
    for j in survivors:
        if len(basis) == hk:
            break
        coords = zip(*(tow.normal_ints(row[j]) for row in code.int_rows))
        for r, b in zip(coords, tow.normal_ints(received[j].val)):
            if insert_row(base, basis, [*r, b]) and basis[-1][0] == hk:
                basis.pop()
    if len(basis) < hk:
        raise DecodeError("surviving coordinates do not determine the message")
    red, _ = rref_ints(base, [r for _, r in basis])
    coeffs = base.wrap(r[hk] for r in red)
    reencoded = code._word(coeffs)
    for j in survivors:
        if reencoded[j] != received[j].val:
            raise DecodeError("re-encoding mismatch at coordinate %d: "
                              "word has errors, not just erasures" % j)
    return Poly(base, coeffs)
