"""Additive code tests.

The central oracle: encoding, a combination of the generator rows, must
agree with evaluating the message polynomial coordinate by coordinate,
for every coordinate kind.
Distance facts are cross-checked between exhaustive enumeration and the
geometric route through column folding.
"""

import itertools
from random import Random

import pytest

from pseudoarcs.codes import (ERASED, AdditiveCode, CoordSpec, DecodeError,
                              code_from_subspaces, encode, erasure_decode,
                              evaluation_code, extend_with_derivatives,
                              fold_columns, is_mds, linear_equivalence_test,
                              min_distance)
from pseudoarcs.gf import Poly, tower
from pseudoarcs.nrc import frobenius_orbit_reps, osc_basis, osc_basis_infty
from pseudoarcs.projgeo import canonical_spread, span
from pseudoarcs.pseudoarc import (SmallFieldWarning, build_imaginary_arc,
                                  extend_with_osculating)


def full_code(p, e, h, k):
    tow = tower(p, e, h)
    return evaluation_code(tow, list(frobenius_orbit_reps(tow)), k)


def random_message(tow, k, rng):
    return Poly(tow.base, [tow.base(rng.randrange(tow.q))
                           for _ in range(tow.h * k)])


def reference_word(f, code, subspaces=None):
    """The evaluation-code definition, one coordinate at a time: f(alpha)
    at alpha, sum_i f^(i)(t) omega^(q^i) at t, the top h coefficients
    folded against the conjugates at infinity.  External column j pairs
    the message with the basis rows of subspaces[j] and folds."""
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

    word = []
    for j, spec in enumerate(code.eval_spec):
        if spec.kind == "alpha":
            word.append(f.evaluate(spec.param, tow))
        elif spec.kind == "deriv":
            word.append(fold([f.derivative(i).evaluate(spec.param)
                              for i in range(h)]))
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
    # h = 2 and h = 3, odd p and p = 2; derivative and infinity columns
    # need p >= h, so (p, h) = (2, 3) has evaluation and external ones only
    rng = Random(17)
    for p, e, h, k in [(5, 1, 2, 2), (2, 3, 2, 2), (5, 1, 3, 2), (2, 2, 3, 2)]:
        code = full_code(p, e, h, k)
        tow = code.tow
        if p >= h:
            code = extend_with_derivatives(code, list(tow.base.elements()),
                                           include_infty=True)
        folded = fold_columns(code)
        external = code_from_subspaces(tow, folded, k)
        kinds = {s.kind for s in code.eval_spec + external.eval_spec}
        assert kinds == ({"alpha", "deriv", "infty", "external"} if p >= h
                         else {"alpha", "external"})
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
        extend_with_derivatives(small, [tower(2, 1, 3).base(0)], False)  # p < h


def test_min_distance_meets_singleton():
    code = full_code(5, 1, 2, 2)
    assert min_distance(code) == 9 == code.n - code.k_msg + 1
    with pytest.raises(ValueError):
        min_distance(code, max_words=100)


def test_min_distance_matches_reference():
    # p = 2, odd p, q = 9 and h = 3; random codes, and MDS codes with a
    # column repeated or repeated times a base scalar (d = n - k there)
    rng = Random(7)
    for (p, e, h), ks, n in [((2, 1, 2), (1, 2, 3), 6), ((2, 2, 2), (1, 2), 6),
                             ((3, 1, 2), (1, 2), 5), ((3, 2, 2), (1, 2), 4),
                             ((2, 1, 3), (1, 2), 5), ((3, 1, 3), (1,), 4)]:
        tow = tower(p, e, h)
        for k in ks:
            for _ in range(3):
                code = random_code(tow, k, n, rng)
                scale = tow.base(rng.randrange(1, tow.q))
                for c in (code, with_column(code, 0, tow.base.one),
                          with_column(code, n - 1, scale)):
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


def plant_weight_one(tow, k, n, rng):
    """A random code and a random message whose codeword is zero outside
    one coordinate, so that the code has distance 1."""
    hk = tow.h * k
    while True:
        message = [tow.base(rng.randrange(tow.q)) for _ in range(hk)]
        if not message[-1]:
            continue
        gen = [[tow.top(rng.randrange(tow.top.order)) for _ in range(n)]
               for _ in range(hk - 1)]
        last = [tow.top.zero] * n
        last[rng.randrange(n)] = tow.top(rng.randrange(1, tow.top.order))
        for c, row in zip(message, gen):
            last = [a - tow.lift(c) * x for a, x in zip(last, row)]
        inv = tow.lift(message[-1]).inverse()
        gen.append([a * inv for a in last])
        try:
            code = AdditiveCode(tow, k, gen, [CoordSpec("external")] * n)
        except ValueError:
            continue  # rows dependent over the base field
        return code, message


def test_min_distance_finds_a_planted_weight_one_word():
    # a weight-1 word planted at a random message: a walk that skips part
    # of a tail is likely to miss it
    rng = Random(11)
    for (p, e, h), k, n in [((2, 2, 2), 2, 8), ((3, 2, 2), 2, 8),
                            ((5, 1, 2), 2, 8), ((2, 1, 3), 2, 10),
                            ((3, 1, 3), 2, 10)]:
        tow = tower(p, e, h)
        for _ in range(6):
            code, message = plant_weight_one(tow, k, n, rng)
            assert sum(1 for x in code.combine(message) if x) == 1
            assert min_distance(code) == 1


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


def test_is_mds_repeated_column_fails():
    code = full_code(5, 1, 2, 2)
    gen = [list(row) + [row[0]] for row in code.gen]
    spec = list(code.eval_spec) + [code.eval_spec[0]]
    doubled = AdditiveCode(code.tow, 2, gen, spec)
    assert not is_mds(doubled)


def test_fold_columns_recovers_arc():
    for (p, e, h, k), quiet in [((5, 1, 2, 2), True), ((3, 1, 2, 2), False),
                                ((2, 2, 2, 3), False), ((3, 1, 3, 2), False)]:
        tow = tower(p, e, h)
        code = full_code(p, e, h, k)
        if quiet:
            arc = build_imaginary_arc(tow, k)
        else:
            with pytest.warns(SmallFieldWarning):
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


def test_linear_equivalence_verdicts():
    tow = tower(5, 1, 2)
    spread = canonical_spread(tow, 2)
    inside = list(itertools.islice(spread.elements(), 5))
    lin = code_from_subspaces(tow, inside, 2)
    assert linear_equivalence_test(lin, spread).ok
    code = full_code(5, 1, 2, 2)
    verdict = linear_equivalence_test(code, spread)
    assert not verdict.ok and verdict.witness == (0,)


def test_code_from_subspaces_folds_back():
    with pytest.warns(SmallFieldWarning):
        arc = build_imaginary_arc(tower(2, 2, 2), 3)
    code = code_from_subspaces(tower(2, 2, 2), list(arc.elements), 3)
    assert fold_columns(code) == list(arc.elements)
    assert all(s.kind == "external" for s in code.eval_spec)
    rng = Random(2)
    f = random_message(tower(2, 2, 2), 3, rng)
    assert encode(f, code) == reference_word(f, code, list(arc.elements))
    assert erasure_decode(encode(f, code), code) == f


def test_generator_row_independence_enforced():
    tow = tower(5, 1, 2)
    code = full_code(5, 1, 2, 2)
    gen = [list(row) for row in code.gen]
    gen[3] = [x + y for x, y in zip(gen[0], gen[1])]
    with pytest.raises(ValueError):
        AdditiveCode(tow, 2, gen, list(code.eval_spec))


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
