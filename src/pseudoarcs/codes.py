"""Additive codes over the extension field, F_q-linear with q^(hk)
codewords.

Messages are polynomials over F_q of degree below hk, and every codeword
is the combination of the generator rows by the message coefficients.
A coordinate kind records how its generator column was built:
evaluation at a generator of the extension field, a derivative bundle
at a rational parameter t (all h derivative values folded against the
conjugates of a normal element), the analogous bundle of leading
coefficients for the parameter at infinity, or an external column
unfolded from a given subspace.  Folding generator columns into rank-h
subspaces recovers the matching pseudo-arc, which is how distance facts
become geometry and back.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Sequence, Union

from .gf import FieldElement, FieldTower, InvariantError, Poly
from .linalg import SingularMatrixError, rank, solve
from .nrc import is_imaginary, osc_basis, osc_basis_infty
from .projgeo import Spread, Subspace, span
from .pseudoarc import ArcVerdict, contained_in_spread, is_pseudo_arc


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

    The rows are kept as int encodings, the form the row kernel works
    on; ``gen`` wraps them as field elements on first use.
    """

    def __init__(self, tow: FieldTower, k_msg: int,
                 gen: Sequence[Sequence[FieldElement]],
                 eval_spec: Sequence[CoordSpec]):
        gen = [list(row) for row in gen]
        hk = tow.h * k_msg
        if len(gen) != hk:
            raise ValueError("generator must have hk rows")
        n = len(gen[0])
        if any(len(row) != n for row in gen):
            raise ValueError("ragged generator matrix")
        if n <= k_msg:
            raise ValueError("length must exceed the design parameter k")
        if len(eval_spec) != n:
            raise ValueError("one coordinate descriptor per column")
        for spec in eval_spec:
            if spec.kind not in COORD_KINDS:
                raise ValueError("unknown coordinate kind %r" % spec.kind)
        expanded = []
        for row in gen:
            flat = []
            for x in row:
                flat.extend(tow.normal_coords(x))
            expanded.append(flat)
        if rank(expanded) != hk:
            raise ValueError("generator rows are dependent over the base field")
        self.tow = tow
        self.k_msg = k_msg
        self.n = n
        self._rows = tuple([x.val for x in row] for row in gen)
        self.eval_spec = tuple(eval_spec)
        self.omega = tow.normal_element()

    @cached_property
    def gen(self):
        top = self.tow.top
        return tuple(tuple(FieldElement(top, v) for v in row)
                     for row in self._rows)

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
        hk = self.h * self.k_msg
        message = list(message)
        if len(message) != hk:
            raise ValueError("message must have hk coefficients")
        top = self.tow.top
        out = [0] * self.n
        for c, row in zip(message, self._rows):
            if c:
                out = top.sub_scaled(out, (-self.tow.lift(c)).val, row)
        return [FieldElement(top, v) for v in out]


def evaluation_code(tow: FieldTower, alphas: Sequence[FieldElement],
                    k_msg: int) -> AdditiveCode:
    """The code whose columns evaluate messages at the given generators
    of the extension: column j carries the powers of alpha_j."""
    alphas = list(alphas)
    if len(set(a.val for a in alphas)) != len(alphas):
        raise ValueError("repeated evaluation point")
    for a in alphas:
        if not is_imaginary(a, tow):
            raise ValueError("evaluation point %d does not generate the extension" % a.val)
    hk = tow.h * k_msg
    gen = []
    power = [tow.top.one for _ in alphas]
    for _ in range(hk):
        gen.append(list(power))
        power = [p * a for p, a in zip(power, alphas)]
    spec = [CoordSpec("alpha", a) for a in alphas]
    return AdditiveCode(tow, k_msg, gen, spec)


def _unfold(tow: FieldTower, rows: Sequence[Sequence[FieldElement]]
            ) -> List[FieldElement]:
    """One code column from h base-level rows: entry r is
    sum_i rows[i][r] * omega^(q^i).  Inverse of the per-column step of
    fold_columns up to the choice of basis."""
    omega = tow.normal_element()
    omega_pows = [tow.frobenius(omega, i) for i in range(tow.h)]
    col = []
    for r in range(len(rows[0])):
        acc = tow.top.zero
        for row, w in zip(rows, omega_pows):
            if row[r]:
                acc = acc + tow.lift(row[r]) * w
        col.append(acc)
    return col


def extend_with_derivatives(code: AdditiveCode, ts: Sequence[FieldElement],
                            include_infty: bool = False) -> AdditiveCode:
    """Append derivative-bundle columns at the given rational
    parameters, and optionally the bundle at infinity.

    The column at t unfolds the order-(h-1) derivative rows against
    (omega, omega^q, ...).  The infinity column unfolds the infinity
    rows in reverse, pairing the last h coefficient slots with the
    conjugates in ascending order.
    """
    tow = code.tow
    h, hk = tow.h, tow.h * code.k_msg
    if tow.p < h:
        raise ValueError("characteristic %d below h = %d" % (tow.p, h))
    ts = list(ts)
    if len(set(t.val for t in ts)) != len(ts):
        raise ValueError("repeated derivative parameter")
    new_cols = []
    new_spec = []
    for t in ts:
        if t.field is not tow.base:
            raise ValueError("derivative parameters live in the base field")
        new_cols.append(_unfold(tow, osc_basis(t, h - 1, hk)))
        new_spec.append(CoordSpec("deriv", t))
    if include_infty:
        new_cols.append(_unfold(tow, osc_basis_infty(tow.base, h - 1, hk)[::-1]))
        new_spec.append(CoordSpec("infty"))
    gen = [list(row) + [c[r] for c in new_cols]
           for r, row in enumerate(code.gen)]
    return AdditiveCode(tow, code.k_msg, gen, list(code.eval_spec) + new_spec)


def code_from_subspaces(tow: FieldTower, subspaces: Sequence[Subspace],
                        k_msg: int) -> AdditiveCode:
    """One column per rank-h subspace, unfolding its basis rows.
    Inverse of fold_columns up to the choice of basis within each
    subspace."""
    gen_cols = []
    for s in subspaces:
        if s.field is not tow.base or s.rank != tow.h:
            raise ValueError("need base-level subspaces of rank h")
        gen_cols.append(_unfold(tow, s.rows))
    hk = tow.h * k_msg
    gen = [[col[r] for col in gen_cols] for r in range(hk)]
    spec = [CoordSpec("external")] * len(gen_cols)
    return AdditiveCode(tow, k_msg, gen, spec)


def encode(message: Union[Poly, Sequence[FieldElement]],
           code: AdditiveCode) -> List[FieldElement]:
    """Codeword of a message polynomial: the combination of the
    generator rows by its coefficients.

    Accepts the polynomial or its base-field coefficient vector (low
    degree first, length up to hk).
    """
    tow = code.tow
    hk = tow.h * code.k_msg
    if isinstance(message, Poly):
        f = message
    else:
        f = Poly(tow.base, list(message))
    if f.field is not tow.base:
        raise ValueError("message coefficients must lie in the base field")
    if f.degree >= hk:
        raise ValueError("message degree %d too large" % f.degree)
    return code.combine([f.coefficient(i) for i in range(hk)])


def min_distance(code: AdditiveCode, max_words: int = 2 ** 20) -> int:
    """Minimum nonzero Hamming weight over the message space (additivity
    makes this the minimum distance).

    lift(c) * word has the weight of word for every nonzero c in F_q, so
    one message per scalar class is enough: the one whose first nonzero
    coefficient is 1.  The free tail after each lead position is walked
    in modular q-ary Gray order (Knuth, TAOCP 4A, 7.2.1.1): step t adds 1
    to tail digit v_q(t), so the next word is the previous one plus
    lift(delta) * row, a single int row update.  The budget counts all
    q^(hk) messages.
    """
    if code.size > max_words:
        raise ValueError("code has %d words, over the budget %d; "
                         "use the geometric route" % (code.size, max_words))
    tow = code.tow
    q, n, rows, sub = tow.q, code.n, code._rows, tow.top.sub_scaled
    # -lift(x_(a+1) - x_a) for the digit order x_a = base(a), wrapping at q
    steps = [(-tow.lift(tow.base((a + 1) % q) - tow.base(a))).val
             for a in range(q)]
    best = n
    for lead, word in enumerate(rows):
        tail = rows[lead + 1:]
        digits = [0] * len(tail)
        best = min(best, n - word.count(0))
        for t in range(1, q ** len(tail)):
            j = 0
            while t % q == 0:
                t //= q
                j += 1
            a = digits[j]
            digits[j] = (a + 1) % q
            word = sub(word, steps[a], tail[j])
            best = min(best, n - word.count(0))
    return best


def _column_coords(code: AdditiveCode, j: int) -> List[tuple]:
    """Normal-basis coordinates of the entries of generator column j,
    one h-tuple of base elements per row."""
    tow = code.tow
    return [tow.normal_coords(FieldElement(tow.top, row[j]))
            for row in code._rows]


def fold_columns(code: AdditiveCode) -> List[Subspace]:
    """The rank-h base-level subspace spanned by each column's
    normal-basis coordinate rows, order preserved.

    Column entries x expand as x = sum_i c_i omega^(q^i); the vectors
    of i-th coordinates, one per conjugate, span the subspace.
    """
    return [span([list(c) for c in zip(*_column_coords(code, j))],
                 field=code.tow.base)
            for j in range(code.n)]


def is_mds(code: AdditiveCode, max_words: int = 2 ** 20) -> bool:
    """Whether the code attains the Singleton bound, decided through
    the geometry: its folded columns must form a pseudo-arc.  When the
    message space fits the enumeration budget the distance is computed
    too and the two answers are required to agree."""
    folded = fold_columns(code)
    geometric = bool(is_pseudo_arc(folded, code.k_msg))
    if code.size <= max_words:
        d = min_distance(code, max_words)
        if geometric != (d == code.n - code.k_msg + 1):
            raise InvariantError("geometric and metric verdicts disagree")
    return geometric


def erasure_decode(received: Sequence[object], code: AdditiveCode) -> Poly:
    """Recover the message polynomial from a word with ERASED marks.

    The first k_msg surviving coordinates each contribute h base-field
    equations (one per normal-basis coordinate); the stacked hk x hk
    system is solved and the result re-encoded and checked against
    every surviving coordinate.
    """
    tow = code.tow
    h, hk = tow.h, tow.h * code.k_msg
    received = list(received)
    if len(received) != code.n:
        raise DecodeError("word length %d, expected %d" % (len(received), code.n))
    survivors = [j for j, x in enumerate(received) if x is not ERASED]
    if len(survivors) < code.k_msg:
        raise DecodeError("only %d unerased coordinates, need %d"
                          % (len(survivors), code.k_msg))
    selected = survivors[:code.k_msg]
    matrix = []
    rhs = []
    for j in selected:
        target = tow.normal_coords(received[j])
        col_coords = _column_coords(code, j)
        for i in range(h):
            matrix.append([col_coords[r][i] for r in range(hk)])
            rhs.append(target[i])
    try:
        coeffs = solve(matrix, rhs)
    except SingularMatrixError:
        raise DecodeError("selected coordinates do not determine the message")
    reencoded = code.combine(coeffs)
    for j in survivors:
        if reencoded[j] != received[j]:
            raise DecodeError("re-encoding mismatch at coordinate %d: "
                              "word has errors, not just erasures" % j)
    return Poly(tow.base, coeffs)


def linear_equivalence_test(code: AdditiveCode, spread: Spread) -> ArcVerdict:
    """Whether the folded columns all lie in the given spread: a true
    verdict certifies equivalence to a base-field-linear code realized
    inside that spread, a false one carries the witness column index."""
    return contained_in_spread(fold_columns(code), spread)
