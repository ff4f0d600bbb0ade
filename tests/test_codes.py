"""Additive code tests.

The central oracle: encoding, a combination of the generator rows, must
agree with evaluating the message polynomial coordinate by coordinate,
for every coordinate kind.
Distance facts are cross-checked between exhaustive enumeration and the
geometric route through column folding.
"""

import itertools
import tracemalloc
from random import Random

import pytest

from pseudoarcs import codes
from pseudoarcs.codes import (ERASED, AdditiveCode, CoordSpec, DecodeError,
                              code_from_subspaces, encode, erasure_decode,
                              evaluation_code, extend_with_derivatives,
                              fold_columns, is_mds, min_distance)
from pseudoarcs.gf import FieldMismatchError, InvariantError, Poly, tower
from pseudoarcs.linalg import rank_ints
from pseudoarcs.nrc import (frobenius_orbit_reps, is_imaginary, orbit_rep_count,
                            osc_basis, osc_basis_infty)
from pseudoarcs.projgeo import canonical_spread, span
from pseudoarcs.pseudoarc import (build_imaginary_arc, contained_in_spread,
                                  extend_with_osculating, is_pseudo_arc)


def full_code(p, e, h, k):
    tow = tower(p, e, h)
    return evaluation_code(tow, list(frobenius_orbit_reps(tow)), k)


def random_message(tow, k, rng):
    return Poly(tow.base, [tow.base(rng.randrange(tow.q))
                           for _ in range(tow.h * k)])


def reference_word(f, code, subspaces=None):
    """The evaluation-code definition, one coordinate at a time: f(alpha)
    at alpha, sum_i f^[i](t) omega^(q^i) at t, where the Hasse derivative
    f^[i](t) is the coefficient of s^i in f(t + s), the top h
    coefficients folded against the conjugates at infinity.  External
    column j pairs the message with the basis rows of subspaces[j] and
    folds."""
    tow = code.tow
    h, hk = tow.h, tow.h * code.k_msg
    coeffs = [f.coefficient(i) for i in range(hk)]
    omega_pows = [tow.frobenius(code.omega, i) for i in range(h)]

    def fold(vals):
        acc = tow.top.zero
        for v, w in zip(vals, omega_pows):
            acc = acc + tow.lift(v) * w
        return acc

    def pair(row):
        acc = tow.base.zero
        for c, x in zip(coeffs, row):
            acc = acc + c * x
        return acc

    def taylor(t):
        acc = Poly.zero(tow.base)
        for c in reversed(coeffs):
            acc = acc * Poly(tow.base, [t, tow.base.one]) + Poly(tow.base, [c])
        return acc

    word = []
    for j, spec in enumerate(code.eval_spec):
        if spec.kind == "alpha":
            word.append(f.evaluate(spec.param, tow))
        elif spec.kind == "deriv":
            shifted = taylor(spec.param)
            word.append(fold([shifted.coefficient(i) for i in range(h)]))
        elif spec.kind == "infty":
            word.append(fold(coeffs[hk - h:]))
        else:
            word.append(fold([pair(row) for row in subspaces[j].rows]))
    return word


def reference_combine(code, message):
    """The generator rows combined entry by entry on FieldElements."""
    tow = code.tow
    word = [tow.top.zero] * code.n
    for c, row in zip(message, code.gen):
        if c:
            lc = tow.lift(c)
            word = [w + lc * x for w, x in zip(word, row)]
    return word


def reference_min_distance(code):
    """Least nonzero weight over all q^(hk) messages, one by one."""
    tow = code.tow
    best = code.n + 1
    for message in itertools.product(list(tow.base.elements()),
                                     repeat=tow.h * code.k_msg):
        if any(message):
            best = min(best, sum(1 for x in reference_combine(code, message) if x))
    return best


def random_code(tow, k, n, rng):
    while True:
        gen = [[tow.top(rng.randrange(tow.top.order)) for _ in range(n)]
               for _ in range(tow.h * k)]
        try:
            return AdditiveCode(tow, k, gen, [CoordSpec("external")] * n)
        except ValueError:
            continue  # rows dependent over the base field


def with_column(code, j, scale):
    """The code with column j appended again, times lift(scale)."""
    c = code.tow.lift(scale)
    gen = [list(row) + [c * row[j]] for row in code.gen]
    return AdditiveCode(code.tow, code.k_msg, gen,
                        list(code.eval_spec) + [CoordSpec("external")])


def test_evaluation_code_shape():
    code = full_code(5, 1, 2, 2)
    assert (code.n, code.k_msg, code.size) == (10, 2, 625)
    tow = code.tow
    reps = list(frobenius_orbit_reps(tow))
    assert all(x == tow.top.one for x in code.gen[0])
    for r in range(4):
        for j, a in enumerate(reps):
            assert code.gen[r][j] == a ** r
    assert all(s.kind == "alpha" for s in code.eval_spec)
    assert [s.param for s in code.eval_spec] == reps


def test_evaluation_code_rejects_bad_points():
    tow = tower(5, 1, 2)
    reps = list(frobenius_orbit_reps(tow))
    with pytest.raises(ValueError):
        evaluation_code(tow, [reps[0], reps[0]], 1)
    with pytest.raises(ValueError):
        evaluation_code(tow, [tow.lift(tow.base(2))], 1)  # rational point
    with pytest.raises(ValueError):
        evaluation_code(tow, reps[:2], 2)  # n = k


def test_encode_matches_evaluation_oracle():
    # h = 2 and h = 3, odd p and p = 2, including p < h
    rng = Random(17)
    for p, e, h, k in [(5, 1, 2, 2), (2, 3, 2, 2), (5, 1, 3, 2), (2, 2, 3, 2)]:
        code = full_code(p, e, h, k)
        tow = code.tow
        code = extend_with_derivatives(code, list(tow.base.elements()),
                                       include_infty=True)
        folded = fold_columns(code)
        external = code_from_subspaces(tow, folded, k)
        kinds = {s.kind for s in code.eval_spec + external.eval_spec}
        assert kinds == {"alpha", "deriv", "infty", "external"}
        for _ in range(10):
            f = random_message(tow, k, rng)
            assert encode(f, code) == reference_word(f, code)
            assert encode(f, external) == reference_word(f, external, folded)


def test_encode_constant_and_zero():
    code = extend_with_derivatives(full_code(5, 1, 2, 2),
                                   [tower(5, 1, 2).base(0)],
                                   include_infty=True)
    tow = code.tow
    zero_word = encode(Poly.zero(tow.base), code)
    assert all(not x for x in zero_word)
    one_word = encode(Poly.from_ints(tow.base, [1]), code)
    for x, spec in zip(one_word, code.eval_spec):
        if spec.kind == "alpha":
            assert x == tow.top.one
        elif spec.kind == "deriv":
            assert x == code.omega
        else:
            assert not x  # hk > h: top coefficients of a constant vanish


def test_encode_validation():
    code = full_code(5, 1, 2, 2)
    tow = code.tow
    with pytest.raises(ValueError):
        encode(Poly.from_ints(tow.base, [0, 0, 0, 0, 1]), code)  # degree 4
    with pytest.raises(ValueError):
        encode(Poly.from_ints(tow.top, [1]), code)  # top-level coefficients


def test_extension_lengths_and_identity():
    code = full_code(5, 1, 2, 2)
    tow = code.tow
    ext = extend_with_derivatives(code, list(tow.base.elements()), True)
    assert ext.n == 16
    kinds = [s.kind for s in ext.eval_spec]
    assert kinds == ["alpha"] * 10 + ["deriv"] * 5 + ["infty"]
    same = extend_with_derivatives(code, [], False)
    assert same.gen == code.gen and same.eval_spec == code.eval_spec


def test_extension_rejects():
    code = full_code(5, 1, 2, 2)
    t0 = code.tow.base(0)
    with pytest.raises(ValueError):
        extend_with_derivatives(code, [t0, t0], False)
    small = evaluation_code(tower(2, 1, 3),
                            list(frobenius_orbit_reps(tower(2, 1, 3))), 1)
    with pytest.raises(ValueError):
        # k = 1: order h - 1 is the curve degree
        extend_with_derivatives(small, [tower(2, 1, 3).base(0)], False)
    # h = 1: the derivative column at t is the evaluation column at t
    line = full_code(5, 1, 1, 2)
    with pytest.raises(ValueError, match="collide"):
        extend_with_derivatives(line, [line.tow.base(3)], False)
    assert extend_with_derivatives(line, [], True).n == line.n + 1
    # a bundle that is already a column, or the fold of an external one
    for p, e, h in [(5, 1, 2), (2, 2, 3)]:
        code = full_code(p, e, h, 2)
        t = code.tow.base(1)
        once = extend_with_derivatives(code, [t], True)
        for ts, infty in (([t], False), ([], True)):
            with pytest.raises(ValueError, match="collide"):
                extend_with_derivatives(once, ts, infty)
        external = code_from_subspaces(code.tow, fold_columns(once)[-3:], 2)
        with pytest.raises(ValueError, match="collide"):
            extend_with_derivatives(external, [t], False)
        assert extend_with_derivatives(external, [code.tow.base(0)], False).n == 4


def test_min_distance_meets_singleton():
    code = full_code(5, 1, 2, 2)
    assert min_distance(code) == 9 == code.n - code.k_msg + 1
    with pytest.raises(ValueError):
        min_distance(code, max_words=100)


def with_constant_column(code, v):
    """The code with a column appended whose entries all encode v."""
    x = code.tow.top(v)
    gen = [list(row) + [x] for row in code.gen]
    return AdditiveCode(code.tow, code.k_msg, gen,
                        list(code.eval_spec) + [CoordSpec("external")])


def test_min_distance_matches_reference():
    # p in 2, 3, 5, 7, 11 (packed digit widths 1, 3, 4, 4, 5), q = 4, 9
    # and 25, h = 1 (a prime top field for e = 1), 2 and 3; random codes,
    # and MDS codes with a column repeated or repeated times a base scalar
    # (d = n - k there), an all-zero column, or a column whose entries
    # have every digit p - 1
    rng = Random(7)
    for (p, e, h), ks, n in [((2, 1, 2), (1, 2, 3), 6), ((2, 2, 2), (1, 2), 6),
                             ((3, 1, 2), (1, 2), 5), ((3, 2, 2), (1, 2), 4),
                             ((2, 1, 3), (1, 2), 5), ((3, 1, 3), (1,), 4),
                             ((5, 1, 2), (1, 2), 4), ((7, 1, 2), (1,), 4),
                             ((11, 1, 2), (1,), 4), ((2, 1, 1), (1, 2, 3), 5),
                             ((3, 1, 1), (2, 3), 5), ((11, 1, 1), (2,), 4),
                             ((2, 2, 1), (2, 3), 5), ((5, 2, 1), (1, 2), 4)]:
        tow = tower(p, e, h)
        for k in ks:
            for i in range(3):
                code = random_code(tow, k, n, rng)
                scale = tow.base(rng.randrange(1, tow.q))
                codes = [code, with_column(code, 0, tow.base.one),
                         with_column(code, n - 1, scale)]
                if i == 0:
                    codes += [with_constant_column(code, 0),
                              with_constant_column(code, tow.top.order - 1)]
                for c in codes:
                    assert min_distance(c) == reference_min_distance(c)
                    message = [tow.base(rng.randrange(tow.q))
                               for _ in range(h * k)]
                    assert c.combine(message) == reference_combine(c, message)
    for (p, e, h, k) in [(2, 2, 2, 2), (3, 1, 2, 2), (3, 2, 2, 2), (3, 1, 3, 2)]:
        tow = tower(p, e, h)
        code = evaluation_code(tow, list(frobenius_orbit_reps(tow))[:6], k)
        for scale in (tow.base.one, tow.base(tow.q - 1)):
            planted = with_column(code, 1, scale)
            d = min_distance(planted)
            assert d == reference_min_distance(planted) == planted.n - k
            with pytest.raises(ValueError, match="over the budget"):
                min_distance(planted, max_words=planted.size - 1)


def plant_weight_one(tow, k, n, rng, at):
    """A random code and a random message whose codeword is zero outside
    coordinate at, so that the code has distance 1."""
    hk = tow.h * k
    while True:
        message = [tow.base(rng.randrange(tow.q)) for _ in range(hk)]
        if not message[-1]:
            continue
        gen = [[tow.top(rng.randrange(tow.top.order)) for _ in range(n)]
               for _ in range(hk - 1)]
        last = [tow.top.zero] * n
        last[at] = tow.top(rng.randrange(1, tow.top.order))
        for c, row in zip(message, gen):
            last = [a - tow.lift(c) * x for a, x in zip(last, row)]
        inv = tow.lift(message[-1]).inverse()
        gen.append([a * inv for a in last])
        try:
            code = AdditiveCode(tow, k, gen, [CoordSpec("external")] * n)
        except ValueError:
            continue  # rows dependent over the base field
        return code, message


def lead_walk(code, lead):
    """The least weight of the Gray walk of one lead, as _min_weight
    runs it: the packed weight from the lead's row over the later
    rows' basis words."""
    (_, _, weight, _, _), words = code._basis_words
    return weight(words[lead][0], [w for ws in words[lead + 1:] for w in ws])


def reference_lead_weight(code, lead):
    """The least weight of the words whose message is 0 before lead, 1
    at lead and anything after it, combined one by one."""
    base = code.tow.base
    head = [base.zero] * lead + [base.one]
    rests = itertools.product(list(base.elements()), repeat=code.h * code.k_msg - lead - 1)
    return min(sum(1 for x in reference_combine(code, head + list(rest)) if x)
               for rest in rests)


def plant_at_step(tow, k, n, rng, lead, last):
    """A random code whose word at the first Gray step of a lead (t = 1:
    1 at lead and at lead + 1) or at its last (t = p^L - 1: 1 at lead,
    every later coefficient q - 1, all its digits p - 1) has weight 1,
    and that message; the lead's row is solved for.  The last lead walks
    one word, t = 0."""
    hk = tow.h * k
    base, top = tow.base, tow.top
    message = [base.zero] * hk
    message[lead] = base.one
    if last:
        message[lead + 1:] = [base(tow.q - 1)] * (hk - lead - 1)
    elif lead + 1 < hk:
        message[lead + 1] = base.one
    while True:
        gen = [[top(rng.randrange(top.order)) for _ in range(n)] for _ in range(hk)]
        row = [top.zero] * n
        row[rng.randrange(n)] = top(rng.randrange(1, top.order))
        for j, (c, r) in enumerate(zip(message, gen)):
            if j != lead:
                row = [a - tow.lift(c) * x for a, x in zip(row, r)]
        gen[lead] = row
        try:
            return AdditiveCode(tow, k, gen, [CoordSpec("external")] * n), message
        except ValueError:
            continue  # rows dependent over the base field


# every branch of the walk: p = 2 with one and two digits per
# coefficient, p = 3 with two, p = 5 and p = 7 with one
WALK_TOWERS = [(2, 1, 2), (2, 2, 2), (3, 2, 2), (5, 1, 2), (7, 1, 2)]


def test_gray_walk_of_every_lead_matches_brute_force():
    rng = Random(83)
    for pe in WALK_TOWERS:
        tow = tower(*pe)
        for n in (4, 6):
            code = random_code(tow, 2, n, rng)
            leads = [lead_walk(code, lead) for lead in range(4)]
            assert leads == [reference_lead_weight(code, lead) for lead in range(4)], pe
            assert min_distance(code) == min(leads) == reference_min_distance(code)


def test_gray_walk_finds_a_word_planted_at_its_first_and_last_step():
    # a walk that stops a step early, or starts a step late, misses the
    # weight-1 word of a lead; the code's distance is then 1 exactly
    rng = Random(89)
    for pe in WALK_TOWERS:
        tow = tower(*pe)
        for lead, last in itertools.product(range(4), (False, True)):
            code, message = plant_at_step(tow, 2, 5, rng, lead, last)
            assert sum(1 for x in reference_combine(code, message) if x) == 1
            assert lead_walk(code, lead) == reference_lead_weight(code, lead) == 1, (
                pe, lead, last)
            assert min_distance(code) == 1


def test_min_distance_finds_a_planted_weight_one_word():
    # a weight-1 word planted at a random message: a walk that skips part
    # of a tail is likely to miss it; coordinates 0 and n - 1 are the
    # lowest and highest slots of a packed word
    rng = Random(11)
    for (p, e, h), k, n in [((2, 2, 2), 2, 8), ((3, 2, 2), 2, 8),
                            ((5, 1, 2), 2, 8), ((2, 1, 3), 2, 10),
                            ((3, 1, 3), 2, 10)]:
        tow = tower(p, e, h)
        for at in [0, n - 1] + [rng.randrange(n) for _ in range(4)]:
            code, message = plant_weight_one(tow, k, n, rng, at)
            word = code.combine(message)
            assert [j for j, x in enumerate(word) if x] == [at]
            assert min_distance(code) == 1


def test_min_distance_builds_no_rows(monkeypatch):
    # the walk adds packed words; it makes no int row update
    def no_rows(*args):
        raise AssertionError("min_distance updated an int row")

    for p, e in [(2, 2), (3, 2), (7, 1)]:
        code = full_code(p, e, 2, 2)
        monkeypatch.setattr(code.tow.top, "sub_scaled", no_rows)
        assert min_distance(code) == code.n - 1


def test_min_distance_with_entries_that_fill_16_bits():
    # GF(2^16) entries take 32-bit slots: in a 16-bit slot with no guard
    # bit, the weight count of an entry from 2^15 up carries into the
    # next slot
    tow = tower(2, 8, 2)
    alphas = [a for a in map(tow.top, range(1 << 15, 1 << 16))
              if is_imaginary(a, tow)][:20]
    code = evaluation_code(tow, alphas, 1)
    assert min_distance(code) == code.n == 20


# (p, e, h, k, n): codes over p = 2 top fields GF(2^m), m = 1, 2, 4, 6,
# 8, 10, 12, 16 and 18, and over odd p, GF(25), GF(169) and GF(81), whose
# base digits run up to p - 1; n None is the evaluation code on every
# orbit representative, which over GF(4096) is the benchmark's n = 2016
# roundtrip code
CASES = [(2, 1, 1, 1, 3), (2, 1, 2, 2, 5), (2, 2, 2, 2, None),
         (2, 2, 3, 2, None), (2, 4, 2, 3, None), (2, 5, 2, 2, None),
         (2, 6, 2, 2, None), (2, 8, 2, 2, 12), (5, 1, 2, 2, None),
         (13, 1, 2, 2, None), (3, 2, 2, 2, None), (2, 9, 2, 2, 6)]


def case_code(p, e, h, k, n, rng):
    if n is None:
        return full_code(p, e, h, k)
    return random_code(tower(p, e, h), k, n, rng)


def edge_messages(tow, k, rng):
    """The zero message, the message of all q - 1, and random ones."""
    hk = tow.h * k
    base = tow.base
    return [[base.zero] * hk, [base(tow.q - 1)] * hk,
            *([base(rng.randrange(tow.q)) for _ in range(hk)] for _ in range(4))]


@pytest.mark.parametrize("case", CASES)
def test_combine_matches_the_reference_on_both_paths(case):
    rng = Random(61)
    code = case_code(*case, rng)
    for message in edge_messages(code.tow, code.k_msg, rng):
        assert code.combine(message) == reference_combine(code, message)
    # every characteristic combines the packed basis words
    assert "_basis_words" in vars(code)


@pytest.mark.parametrize("case", [(2, 2, 2, 2, None), (2, 1, 3, 2, 5),
                                  (5, 1, 2, 2, None), (2, 9, 2, 2, 6)])
def test_combine_refuses_a_top_field_coefficient(case):
    # a nonzero coefficient outside the base field cannot be lifted, in
    # every characteristic and on both sides of the table limit
    code = case_code(*case, Random(67))
    top, hk = code.tow.top, code.h * code.k_msg
    for j in (0, hk - 1):
        message = [code.tow.base.zero] * hk
        message[j] = top(7)
        with pytest.raises(FieldMismatchError):
            code.combine(message)


def test_erasure_decode_on_packed_words():
    rng = Random(71)
    for case in [(2, 4, 2, 2, None), (2, 2, 3, 2, None), (2, 8, 2, 2, 12)]:
        code = case_code(*case, rng)
        tow = code.tow
        assert code._basis_words is not None
        for message in edge_messages(tow, code.k_msg, rng):
            f = Poly(tow.base, message)
            word = encode(f, code)
            keep = set(rng.sample(range(code.n), code.k_msg + 1))
            received = [x if j in keep else ERASED for j, x in enumerate(word)]
            assert erasure_decode(received, code) == f
            j = max(keep)
            received[j] = received[j] + tow.top.one
            with pytest.raises(DecodeError, match="mismatch at coordinate %d" % j):
                erasure_decode(received, code)


def test_codewords_over_a_large_odd_top_use_bounded_digit_tables():
    # encode and decode pack the digits in chunks through tables of at
    # most 2^16 entries, never one of all q^h layouts: GF(3^11), where a
    # full table would already take several MB, comes first, so such a
    # table fails there before GF(3^16) and GF(3^21), the largest odd top
    # a 64-bit slot holds for p = 3, would need 3.7 GB and 900 GB
    rng = Random(79)
    for h in (11, 16, 21):
        tow = tower(3, 1, h)
        alphas = [a for a in (tow.top(rng.randrange(tow.top.order)) for _ in range(20))
                  if is_imaginary(a, tow)][:3]
        code = evaluation_code(tow, alphas, 1)
        tracemalloc.start()
        try:
            for message in edge_messages(tow, 1, rng):
                f = Poly(tow.base, message)
                word = encode(f, code)
                assert word == reference_combine(code, message)
                assert erasure_decode([ERASED, *word[1:]], code) == f
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 22, peak


def test_distance_builds_the_words_that_encode_reuses():
    # folding and the geometric verdict build no words; the distance
    # builds the one table, and a codeword reads the same object
    for p, e in [(2, 2), (3, 1)]:
        tow = tower(p, e, 2)
        code = extend_with_derivatives(full_code(p, e, 2, 2),
                                       list(tow.base.elements()), True)
        assert is_pseudo_arc(fold_columns(code), code.k_msg)
        assert "_basis_words" not in vars(code)
        assert min_distance(code) == code.n - 1
        words = vars(code)["_basis_words"]
        encode(random_message(tow, 2, Random(73)), code)
        assert vars(code)["_basis_words"] is words


def test_packed_words_make_no_row_update(monkeypatch):
    # once the words exist, a codeword is packed adds and one unpack, in
    # every characteristic
    rng = Random(79)

    def no_rows(*args):
        raise AssertionError("_word updated an int row")

    for p, e in [(2, 4), (3, 2), (5, 1), (13, 1)]:
        code = full_code(p, e, 2, 2)
        tow = code.tow
        messages = edge_messages(tow, 2, rng)
        expected = [reference_combine(code, message) for message in messages]
        # builds the words and the decoder's coordinate tables
        erasure_decode(code.combine(messages[0]), code)
        with monkeypatch.context() as patch:
            patch.setattr(tow.top, "sub_scaled", no_rows)
            patch.setattr(tow.top, "scaled", no_rows)
            for message, word in zip(messages, expected):
                assert code.combine(message) == word
                assert erasure_decode(word, code) == Poly(tow.base, message)


def test_the_walk_calls_word_ops_once_per_lead():
    # the Gray walk runs inside the packed weight, so an enumeration
    # calls the word ops once per lead, not once per word: 585 words of
    # the (2,3,2) code and 820 of the (3,2,2) code, four leads each
    for pe in [(2, 3, 2), (3, 2, 2), (7, 1, 2)]:
        code = full_code(*pe, 2)
        ops, words = code._basis_words
        calls = []

        def counted(op):
            def call(*args):
                calls.append(op.__name__)
                return op(*args)
            return call

        vars(code)["_basis_words"] = tuple(map(counted, ops)), words
        assert min_distance(code) == code.n - 1
        assert calls == ["weight"] * len(words) == ["weight"] * 4


def test_is_mds_at_larger_sizes():
    # 117,649 and 262,144 messages: is_mds runs its metric cross-check
    for p, e in [(7, 1), (2, 3)]:
        tow = tower(p, e, 2)
        code = extend_with_derivatives(full_code(p, e, 2, 3),
                                       list(tow.base.elements()), True)
        assert code.size == tow.q ** 6 <= 2 ** 20
        assert is_mds(code)
        assert min_distance(code) == code.n - 2
    planted = with_column(code, 0, tow.base.one)
    assert not is_mds(planted)
    assert min_distance(planted) == planted.n - 3


def test_is_mds_constructions():
    code = full_code(5, 1, 2, 2)
    assert is_mds(code)
    ext = extend_with_derivatives(code, list(code.tow.base.elements()), True)
    assert is_mds(ext)
    assert min_distance(ext) == 15


def test_generator_rank_is_taken_over_the_base_field():
    tow = tower(5, 1, 2)
    code = full_code(5, 1, 2, 2)
    rows = [list(r) for r in code.gen]
    omega = tow.normal_element()
    # omega * row 0 is independent of row 0 over F_5, lift(3) * row 0 is not
    independent = rows[:3] + [[omega * x for x in rows[0]]]
    AdditiveCode(tow, 2, independent, code.eval_spec)
    dependent = rows[:3] + [[tow.lift(tow.base(3)) * x for x in rows[0]]]
    with pytest.raises(ValueError,
                       match="generator rows are dependent over the base field"):
        AdditiveCode(tow, 2, dependent, code.eval_spec)
    with pytest.raises(FieldMismatchError):
        AdditiveCode(tow, 2, rows[:3] + [[tow.base.one] * code.n], code.eval_spec)


def full_row_rank(tow, rows):
    """The rank over the base field of int rows with every entry
    expanded to its normal-basis coordinates."""
    return rank_ints(tow.base, [[c for v in row for c in tow.normal_ints(v)]
                                for row in rows])


def test_generator_rank_by_columns_matches_full_row_expansion():
    # random generators, often of full rank, and dependent ones: a row
    # replaced by a base-field combination of the others, or all but a
    # few columns zero
    rng = Random(41)
    outcomes = set()
    for p, e, h, k in ((5, 1, 2, 2), (2, 2, 2, 2), (3, 1, 3, 2), (2, 1, 3, 2),
                       (3, 2, 2, 3)):
        tow = tower(p, e, h)
        top, hk = tow.top, h * k
        for trial in range(12):
            n = rng.randint(k + 1, k + 5)
            rows = [[rng.randrange(top.order) for _ in range(n)] for _ in range(hk)]
            if trial % 3 == 1:
                row = [0] * n
                for r in rows[:-1]:
                    c = tow.lift(tow.base(rng.randrange(tow.q))).val
                    row = list(map(top.add, row, [top.mul(c, x) for x in r]))
                rows[-1] = row
            elif trial % 3 == 2:
                keep = rng.randrange(1, n)
                rows = [[x if j < keep else 0 for j, x in enumerate(r)] for r in rows]
            spec = [CoordSpec("external")] * n
            if full_row_rank(tow, rows) == hk:
                outcomes.add("full")
                assert AdditiveCode.from_ints(tow, k, rows, spec).int_rows == tuple(
                    map(tuple, rows))
            else:
                outcomes.add("dependent")
                with pytest.raises(ValueError, match="dependent over the base field"):
                    AdditiveCode.from_ints(tow, k, rows, spec)
    assert outcomes == {"full", "dependent"}


def counted_enumeration(monkeypatch):
    """Patch the enumerator behind min_distance with one that counts its
    Gray walks; returns the list of codes walked."""
    walked = []
    enumerate_words = codes._min_weight

    def counted(code):
        walked.append(code)
        return enumerate_words(code)

    monkeypatch.setattr(codes, "_min_weight", counted)
    return walked


def test_min_distance_then_is_mds_enumerate_the_code_once(monkeypatch):
    walked = counted_enumeration(monkeypatch)
    code = full_code(5, 1, 2, 2)
    assert min_distance(code) == min_distance(code) == code.n - code.k_msg + 1
    assert is_mds(code)
    assert walked == [code]
    # a new code object is enumerated again; is_mds alone walks it once
    other = full_code(5, 1, 2, 2)
    assert is_mds(other) and min_distance(other) == code.n - 1
    assert walked == [code, other]


def test_a_known_distance_does_not_bypass_the_budget():
    code = full_code(5, 1, 2, 2)
    assert min_distance(code) == code.n - 1
    with pytest.raises(ValueError, match="over the budget 10"):
        min_distance(code, max_words=10)


def test_is_mds_cross_checks_a_known_distance_over_the_budget(monkeypatch):
    # with the budget below the code's size, is_mds enumerates nothing
    # itself, but checks a distance that min_distance already kept
    code = full_code(5, 1, 2, 2)
    monkeypatch.setattr(codes, "WORD_BUDGET", code.size - 1)
    walked = counted_enumeration(monkeypatch)
    assert is_mds(code)
    assert walked == []
    monkeypatch.setattr(codes, "_min_weight", lambda code: code.n - code.k_msg)
    assert min_distance(code, max_words=code.size) == code.n - 2
    with pytest.raises(InvariantError, match="verdicts disagree"):
        is_mds(code)


def test_is_mds_raises_on_a_forced_disagreement(monkeypatch):
    code = full_code(5, 1, 2, 2)
    monkeypatch.setattr(codes, "_min_weight", lambda code: code.n - code.k_msg)
    with pytest.raises(InvariantError, match="verdicts disagree"):
        is_mds(code)
    planted = with_column(full_code(5, 1, 2, 2), 0, code.tow.base.one)
    monkeypatch.setattr(codes, "_min_weight", lambda code: code.n - code.k_msg + 1)
    with pytest.raises(InvariantError, match="verdicts disagree"):
        is_mds(planted)


def test_is_mds_repeated_column_fails():
    code = full_code(5, 1, 2, 2)
    gen = [list(row) + [row[0]] for row in code.gen]
    spec = list(code.eval_spec) + [code.eval_spec[0]]
    doubled = AdditiveCode(code.tow, 2, gen, spec)
    assert not is_mds(doubled)


def test_fold_columns_recovers_arc():
    for p, e, h, k in [(5, 1, 2, 2), (3, 1, 2, 2), (2, 2, 2, 3), (3, 1, 3, 2)]:
        tow = tower(p, e, h)
        code = full_code(p, e, h, k)
        arc = build_imaginary_arc(tow, k)
        assert fold_columns(code) == list(arc.elements)


def test_fold_columns_of_extension():
    code = extend_with_derivatives(full_code(5, 1, 2, 2),
                                   list(tower(5, 1, 2).base.elements()), True)
    tow = code.tow
    folded = fold_columns(code)
    arc = extend_with_osculating(build_imaginary_arc(tow, 2))
    assert folded == list(arc.elements)
    for j, t in enumerate(tow.base.elements()):
        assert folded[10 + j] == span(osc_basis(t, 1, 4))
    assert folded[15] == span(osc_basis_infty(tow.base, 1, 4))


def test_additive_closure_and_weight_identity():
    rng = Random(23)
    code = extend_with_derivatives(full_code(5, 1, 2, 2),
                                   [tower(5, 1, 2).base(3)], True)
    tow = code.tow
    for _ in range(20):
        f = random_message(tow, 2, rng)
        g = random_message(tow, 2, rng)
        wf, wg = encode(f, code), encode(g, code)
        assert encode(f + g, code) == [a + b for a, b in zip(wf, wg)]
        dist = sum(1 for a, b in zip(wf, wg) if a != b)
        weight = sum(1 for a, b in zip(wf, wg) if a - b)
        assert dist == weight


def test_erasure_decode_roundtrip():
    rng = Random(5)
    code = full_code(5, 1, 2, 2)
    tow = code.tow
    for _ in range(25):
        f = random_message(tow, 2, rng)
        assert erasure_decode(encode(f, code), code) == f


def test_erasure_decode_all_max_patterns():
    rng = Random(31)
    code = full_code(5, 1, 2, 2)
    tow = code.tow
    messages = [random_message(tow, 2, rng) for _ in range(3)]
    for keep in itertools.combinations(range(10), 2):
        for f in messages:
            word = encode(f, code)
            received = [x if j in keep else ERASED for j, x in enumerate(word)]
            assert erasure_decode(received, code) == f


def reference_solve(matrix, rhs):
    """Gauss-Jordan elimination on FieldElements, column by column, of
    an m x n system with m >= n: the unique solution, "determine" when
    the columns are dependent, or "mismatch" when the system is
    inconsistent."""
    m, n = len(matrix), len(matrix[0])
    aug = [list(row) + [b] for row, b in zip(matrix, rhs)]
    for c in range(n):
        pr = next((i for i in range(c, m) if aug[i][c]), None)
        if pr is None:
            return "determine"
        aug[c], aug[pr] = aug[pr], aug[c]
        inv = aug[c][c].inverse()
        aug[c] = [x * inv for x in aug[c]]
        for i in range(m):
            if i != c and aug[i][c]:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    if any(row[n] for row in aug[n:]):
        return "mismatch"
    return [row[n] for row in aug[:n]]


def reference_decode(received, code):
    """erasure_decode spelled out on FieldElements: normal-basis
    coordinates through the trace-dual basis, the equations of every
    survivor solved together by ``reference_solve``, the solution
    re-encoded by ``reference_combine``.  Returns the message
    polynomial, or the DecodeError reason."""
    tow = code.tow
    h, hk = tow.h, tow.h * code.k_msg
    dual = tow.dual_basis(tow.normal_basis())

    def coords(x):
        return [tow.rel_trace(x * d) for d in dual]

    survivors = [j for j, x in enumerate(received) if x is not ERASED]
    if len(survivors) < code.k_msg:
        return "unerased"
    matrix, rhs = [], []
    for j in survivors:
        col = [coords(row[j]) for row in code.gen]
        target = coords(received[j])
        for i in range(h):
            matrix.append([col[r][i] for r in range(hk)])
            rhs.append(target[i])
    message = reference_solve(matrix, rhs)
    if isinstance(message, str):
        return message
    word = reference_combine(code, message)
    assert all(word[j] == received[j] for j in survivors)
    return Poly(tow.base, message)


def test_erasure_decode_matches_reference_solve():
    rng = Random(53)
    for p, e, h, k in [(2, 1, 2, 2), (2, 2, 2, 2), (5, 1, 2, 2),
                       (3, 2, 2, 2), (3, 1, 3, 2), (2, 1, 3, 3)]:
        tow = tower(p, e, h)
        outcomes = set()
        codes_ = [random_code(tow, k, k + 4, rng) for _ in range(3)]
        if orbit_rep_count(tow.q, h) > k:
            codes_.append(full_code(p, e, h, k))
        for code in codes_:
            for _ in range(12):
                f = random_message(tow, k, rng)
                word = encode(f, code)
                kept = rng.randint(k - 1, code.n)
                survivors = set(rng.sample(range(code.n), kept))
                received = [x if j in survivors else ERASED
                            for j, x in enumerate(word)]
                if survivors and rng.random() < 0.3:
                    j = rng.choice(sorted(survivors))
                    received[j] = received[j] + tow.top(rng.randrange(1, tow.top.order))
                expect = reference_decode(received, code)
                if isinstance(expect, str):
                    with pytest.raises(DecodeError, match=expect):
                        erasure_decode(received, code)
                    outcomes.add(expect)
                else:
                    assert erasure_decode(received, code) == expect
                    outcomes.add("decoded")
        # a repeated column among k survivors leaves the rank short
        code = with_column(codes_[0], 0, tow.base.one)
        keep = {0, code.n - 1, *range(1, k - 1)}
        word = encode(random_message(tow, k, rng), code)
        received = [x if j in keep else ERASED for j, x in enumerate(word)]
        assert reference_decode(received, code) == "determine"
        with pytest.raises(DecodeError, match="determine"):
            erasure_decode(received, code)
        outcomes.add("determine")
        assert outcomes == {"decoded", "unerased", "determine", "mismatch"}, (p, e, h)


def copy_column(code, src, dst):
    """The code with column dst replaced by a copy of column src."""
    gen = [list(row) for row in code.gen]
    for row in gen:
        row[dst] = row[src]
    return AdditiveCode(code.tow, code.k_msg, gen, code.eval_spec)


def test_erasure_decode_reads_past_a_repeated_column():
    # the first k survivors are equal columns, rank h; the third
    # survivor brings the rank to hk and determines the message
    code = copy_column(full_code(5, 1, 2, 2), 0, 1)
    tow = code.tow
    rng = Random(17)
    for _ in range(5):
        f = random_message(tow, 2, rng)
        word = encode(f, code)
        received = [x if j in (0, 1, 5) else ERASED for j, x in enumerate(word)]
        assert erasure_decode(received, code) == f
        assert reference_decode(received, code) == f
        # coordinate 1 repeats coordinate 0: a change there is caught
        received[1] = received[1] + tow.top.one
        with pytest.raises(DecodeError, match="mismatch at coordinate 1"):
            erasure_decode(received, code)


def test_erasure_decode_refuses_when_survivors_fall_short_of_rank():
    code = copy_column(full_code(5, 1, 2, 2), 0, 1)
    word = encode(random_message(code.tow, 2, Random(19)), code)
    received = [x if j in (0, 1) else ERASED for j, x in enumerate(word)]
    with pytest.raises(DecodeError, match="do not determine the message"):
        erasure_decode(received, code)


def test_erasure_decode_zero_word():
    code = full_code(5, 1, 2, 2)
    zero = [code.tow.top.zero] * code.n
    assert erasure_decode(zero, code) == Poly.zero(code.tow.base)


def test_erasure_decode_errors():
    rng = Random(41)
    code = full_code(5, 1, 2, 2)
    tow = code.tow
    f = random_message(tow, 2, rng)
    word = encode(f, code)
    with pytest.raises(DecodeError):
        erasure_decode([ERASED] * 9 + [word[9]], code)
    with pytest.raises(DecodeError):
        erasure_decode(word[:9], code)
    corrupted = list(word)
    corrupted[7] = corrupted[7] + tow.top.one
    with pytest.raises(DecodeError):
        erasure_decode(corrupted, code)
    # a symbol from another field is refused wherever it stands, also
    # past the survivors whose equations determine the message
    alien = tower(7, 1, 2).top(1)
    for j in (0, code.n - 1):
        wrong = list(word)
        wrong[j] = alien
        with pytest.raises(FieldMismatchError, match="symbol %d " % j):
            erasure_decode(wrong, code)


def test_linear_equivalence_verdicts():
    tow = tower(5, 1, 2)
    spread = canonical_spread(tow, 2)
    inside = list(itertools.islice(spread.elements(), 5))
    lin = code_from_subspaces(tow, inside, 2)
    assert contained_in_spread(fold_columns(lin), spread).ok
    code = full_code(5, 1, 2, 2)
    verdict = contained_in_spread(fold_columns(code), spread)
    assert not verdict.ok and verdict.witness == (0,)


def test_code_from_subspaces_folds_back():
    arc = build_imaginary_arc(tower(2, 2, 2), 3)
    code = code_from_subspaces(tower(2, 2, 2), list(arc.elements), 3)
    assert fold_columns(code) == list(arc.elements)
    assert all(s.kind == "external" for s in code.eval_spec)
    rng = Random(2)
    f = random_message(tower(2, 2, 2), 3, rng)
    assert encode(f, code) == reference_word(f, code, list(arc.elements))
    assert erasure_decode(encode(f, code), code) == f


def test_code_from_subspaces_refuses_another_ambient_dimension():
    # the extended (5,1,2) arc for k = 3 lives in PG(5, 5): k_msg = 2
    # would fold the code into PG(3, 5), and k_msg = 4 ran out of rows
    tow = tower(5, 1, 2)
    arc = extend_with_osculating(build_imaginary_arc(tow, 3))
    assert len(arc) == 16
    for k_msg, need in ((2, 4), (4, 8)):
        with pytest.raises(ValueError, match="subspace 0 has ambient dimension 6, "
                                             "h\\*k_msg is %d" % need):
            code_from_subspaces(tow, list(arc.elements), k_msg)


def test_generator_row_independence_enforced():
    tow = tower(5, 1, 2)
    code = full_code(5, 1, 2, 2)
    gen = [list(row) for row in code.gen]
    gen[3] = [x + y for x, y in zip(gen[0], gen[1])]
    with pytest.raises(ValueError):
        AdditiveCode(tow, 2, gen, list(code.eval_spec))


@pytest.mark.parametrize("p,e,h", [(2, 1, 2), (2, 2, 2), (3, 2, 2), (7, 1, 3)])
def test_from_ints_agrees_with_the_field_element_constructor(p, e, h):
    tow = tower(p, e, h)
    arc = extend_with_osculating(build_imaginary_arc(tow, 2))
    code = code_from_subspaces(tow, list(arc.elements), 2)
    spec = list(code.eval_spec)
    a = AdditiveCode(tow, 2, code.gen, spec)
    b = AdditiveCode.from_ints(tow, 2, code.int_rows, spec)
    assert a.int_rows == b.int_rows == code.int_rows
    assert a.gen == b.gen == code.gen
    assert (a.n, a.eval_spec) == (b.n, b.eval_spec) == (code.n, code.eval_spec)

    top = tow.top
    dependent = [list(r) for r in code.int_rows]
    dependent[-1] = list(map(top.add, dependent[0], dependent[1]))
    ragged = [list(r) for r in code.int_rows]
    ragged[1].pop()
    for rows, message in ((dependent, "dependent over the base field"),
                          (ragged, "ragged generator matrix")):
        with pytest.raises(ValueError, match=message):
            AdditiveCode.from_ints(tow, 2, rows, spec)
        with pytest.raises(ValueError, match=message):
            AdditiveCode(tow, 2, [top.wrap(r) for r in rows], spec)
    # only the constructor takes field elements, and it refuses base ones
    with pytest.raises(FieldMismatchError, match="top field"):
        AdditiveCode(tow, 2, [tow.base.wrap([0] * code.n)] + list(code.gen[1:]),
                     spec)


def test_unknown_coordinate_kind_rejected():
    code = full_code(5, 1, 2, 2)
    spec = list(code.eval_spec)
    spec[0] = CoordSpec("bogus")
    with pytest.raises(ValueError, match="unknown coordinate kind 'bogus'"):
        AdditiveCode(code.tow, 2, code.gen, spec)


def test_erased_sentinel_and_specs():
    assert repr(ERASED) == "ERASED"
    assert CoordSpec("infty").param is None
    code = full_code(5, 1, 2, 2)
    with pytest.raises(ValueError):
        code.combine([code.tow.base(1)])
