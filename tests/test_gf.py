"""Field tower arithmetic: axioms vs an independent polynomial oracle,
Galois structure, normal elements, polynomial calculus."""

import random

import pytest

from pseudoarcs.gf import (FieldMismatchError, GF, Poly, is_irreducible,
                           prime_factors, smallest_irreducible, tower)


# --- oracle: naive polynomial arithmetic mod the field's own modulus --------

def oracle_digits(v, p, m):
    out = []
    for _ in range(m):
        v, d = divmod(v, p)
        out.append(d)
    return out


def oracle_encode(digs, p):
    v = 0
    for d in reversed(digs):
        v = v * p + d
    return v


def oracle_mul(a, b, p, modulus):
    m = len(modulus) - 1
    da, db = oracle_digits(a, p, m), oracle_digits(b, p, m)
    prod = [0] * (2 * m - 1 if m else 1)
    for i in range(m):
        for j in range(m):
            prod[i + j] = (prod[i + j] + da[i] * db[j]) % p
    for deg in range(len(prod) - 1, m - 1, -1):
        c = prod[deg]
        if c:
            for i in range(m + 1):
                prod[deg - m + i] = (prod[deg - m + i] - c * modulus[i]) % p
    return oracle_encode(prod[:m], p)


def oracle_add(a, b, p, m):
    return oracle_encode([(x + y) % p for x, y in
                          zip(oracle_digits(a, p, m), oracle_digits(b, p, m))], p)


# --- moduli and encodings ---------------------------------------------------

def test_smallest_irreducibles_are_pinned():
    assert smallest_irreducible(2, 1) == (0, 1)
    assert smallest_irreducible(2, 2) == (1, 1, 1)
    assert smallest_irreducible(2, 3) == (1, 0, 1, 1)
    assert smallest_irreducible(3, 2) == (1, 0, 1)
    assert smallest_irreducible(5, 1) == (0, 1)
    assert smallest_irreducible(5, 2) == (1, 1, 1)


def unskipped_smallest_irreducible(p, n):
    """Reference: the first candidate passing the Rabin test, with no
    candidate skipped."""
    import itertools
    for tail in itertools.product(range(p), repeat=n):
        if is_irreducible(list(tail) + [1], p):
            return tuple(tail) + (1,)


def test_smallest_irreducible_matches_unskipped_scan():
    grid = ([(2, n) for n in range(1, 11)] + [(3, n) for n in range(1, 6)]
            + [(5, n) for n in range(1, 4)] + [(7, n) for n in range(1, 4)]
            + [(11, 2), (13, 2)])
    for p, n in grid:
        assert smallest_irreducible(p, n) == unskipped_smallest_irreducible(p, n)


def test_irreducible_search_matches_brute_force_factor_count():
    # number of monic irreducibles of degree n over F_p via Moebius/Gauss
    for p, n, expected in [(2, 4, 3), (2, 6, 9), (3, 3, 8), (5, 2, 10)]:
        count = 0
        import itertools
        for tail in itertools.product(range(p), repeat=n):
            if is_irreducible(list(tail) + [1], p):
                count += 1
        assert count == expected


def test_non_prime_characteristic_rejected():
    with pytest.raises(ValueError):
        tower(4, 1, 2)
    with pytest.raises(ValueError):
        GF.get(6, 1)


def test_arithmetic_against_polynomial_oracle():
    for p, m in [(2, 3), (2, 4), (3, 2), (5, 2), (7, 2), (2, 8)]:
        f = GF.get(p, m)
        mod = f.modulus
        for a in range(f.order):
            for b in range(f.order):
                assert f.mul(a, b) == oracle_mul(a, b, p, mod)
                assert f.add(a, b) == oracle_add(a, b, p, m)


def test_field_axioms_small_fields():
    for p, m in [(2, 2), (3, 2), (5, 1), (7, 1), (2, 4)]:
        f = GF.get(p, m)
        els = list(f.elements())
        one, zero = f.one, f.zero
        for a in els:
            assert a + zero == a
            assert a * one == a
            assert a - a == zero
            if a:
                assert a * a.inverse() == one
        # associativity and distributivity on a seeded sample
        rng = random.Random(20260822)
        for _ in range(200):
            a, b, c = (f(rng.randrange(f.order)) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c


def test_freshman_dream():
    for p, m in [(2, 4), (3, 2), (5, 2)]:
        f = GF.get(p, m)
        for a in f.elements():
            for b in f.elements():
                assert (a + b) ** p == a ** p + b ** p


def test_level_mismatch_raises():
    t = tower(2, 2, 2)
    with pytest.raises(FieldMismatchError):
        t.base(1) + t.top(1)
    with pytest.raises(FieldMismatchError):
        t.base(2) * t.top(2)


def test_encoding_must_be_a_plain_int():
    f = GF.get(5, 1)
    assert f(1).val == 1
    for bad in (True, False, 1.0, "1"):
        with pytest.raises(TypeError):
            f(bad)
    with pytest.raises(ValueError):
        f(5)


def test_inverse_of_zero():
    f = GF.get(5, 1)
    with pytest.raises(ZeroDivisionError):
        f.zero.inverse()


# --- the F4 < F16 tower matches the classical presentation ------------------

def test_f16_tower_structure():
    t = tower(2, 2, 2)
    assert t.base.modulus == (1, 1, 1)
    assert t.top.modulus == (1, 0, 0, 1, 1)
    g = t.top.generator()
    # canonical generator is primitive here: order 15
    assert (g ** 3).val != 1 and (g ** 5).val != 1 and (g ** 15).val == 1
    # a root of x^4 + x + 1 exists (the classical primitive polynomial)
    roots = [x for x in t.top.elements() if x ** 4 == x + t.top.one]
    assert len(roots) == 4
    w = min(roots, key=lambda x: x.val)
    # w generates, and w^5 lands in the embedded F4
    assert t.in_proper_subfield(w ** 5)
    assert not t.in_proper_subfield(w)
    e = w ** 5
    assert e * e == e + t.top.one


def test_embedding_is_a_homomorphism():
    for (p, e, h) in [(2, 2, 2), (2, 2, 3), (3, 2, 2), (2, 3, 2), (5, 1, 2)]:
        t = tower(p, e, h)
        for a in t.base.elements():
            for b in t.base.elements():
                assert t.lift(a) + t.lift(b) == t.lift(a + b)
                assert t.lift(a) * t.lift(b) == t.lift(a * b)
        # the embedded image is exactly the fixed field of x -> x^q
        fixed = {x.val for x in t.top.elements() if x ** t.q == x}
        image = {t.lift(a).val for a in t.base.elements()}
        assert fixed == image


def test_embedding_image_is_root_of_base_modulus():
    t = tower(2, 2, 3)
    beta = t.embedding_image
    mod = t.base.modulus
    acc = t.top.zero
    for c in reversed(mod):
        acc = acc * beta + t.top(c)
    assert not acc


def test_frobenius_fixed_points_count():
    t = tower(2, 1, 3)  # F2 < F8
    fixed = [x for x in t.top.elements() if t.frobenius(x, 1) == x]
    assert len(fixed) == 2  # exactly the prime subfield
    with pytest.raises(ValueError):
        t.frobenius(t.top(1), 3)


def test_rel_trace_properties():
    for (p, e, h) in [(2, 2, 2), (5, 1, 2), (2, 1, 3), (3, 1, 3)]:
        t = tower(p, e, h)
        zero = t.base.zero
        assert t.rel_trace(t.top.zero) == zero
        # additivity, Frobenius invariance, fibre sizes
        counts = {}
        for x in t.top.elements():
            tr = t.rel_trace(x)
            assert t.rel_trace(t.frobenius(x, 1 % t.h)) == tr
            counts[tr.val] = counts.get(tr.val, 0) + 1
        assert set(counts.values()) == {t.q ** (t.h - 1)}
        assert len(counts) == t.q
        # trace of an embedded element is h * c
        for c in t.base.elements():
            expect = zero
            for _ in range(t.h):
                expect = expect + c
            assert t.rel_trace(t.lift(c)) == expect


def test_in_proper_subfield():
    t = tower(2, 2, 2)
    assert t.in_proper_subfield(t.top.zero)
    assert t.in_proper_subfield(t.top.one)
    g = t.top.generator()
    assert not t.in_proper_subfield(g)
    # F4 < F64: h = 3, the only proper relative subfield is F4 itself
    t3 = tower(2, 2, 3)
    proper = [x for x in t3.top.elements() if t3.in_proper_subfield(x)]
    assert len(proper) == 4


def test_normal_element_smallest_and_valid():
    # h = 1: trivially the smallest nonzero element
    assert tower(3, 1, 1).normal_element().val == 1
    for (p, e, h) in [(2, 2, 2), (5, 1, 2), (2, 1, 3), (7, 1, 3)]:
        t = tower(p, e, h)
        w = t.normal_element()
        basis = t.normal_basis()
        # oracle: F_q-independence by exhaustive combination check (small q)
        combos = 0
        import itertools
        for coeffs in itertools.product(t.base.elements(), repeat=t.h):
            acc = t.top.zero
            for c, b in zip(coeffs, basis):
                acc = acc + t.lift(c) * b
            if not acc:
                combos += 1
        assert combos == 1  # only the zero combination vanishes
        # minimality: no smaller encoding is normal
        for v in range(1, w.val):
            cand = t.top(v)
            conj = [t.frobenius(cand, i) for i in range(t.h)]
            dep = False
            for coeffs in itertools.product(t.base.elements(), repeat=t.h):
                if not any(c.val for c in coeffs):
                    continue
                acc = t.top.zero
                for c, b in zip(coeffs, conj):
                    acc = acc + t.lift(c) * b
                if not acc:
                    dep = True
                    break
            assert dep, "smaller normal element exists"


def test_normal_coords_roundtrip():
    for (p, e, h) in [(2, 2, 2), (5, 1, 2), (2, 1, 3), (3, 2, 2), (3, 1, 3)]:
        t = tower(p, e, h)
        basis = t.normal_basis()
        for x in t.top.elements():
            coords = t.normal_coords(x)
            acc = t.top.zero
            for c, b in zip(coords, basis):
                acc = acc + t.lift(c) * b
            assert acc == x


def test_primitive_element_is_primitive():
    for p, m in [(2, 4), (5, 2), (7, 1)]:
        f = GF.get(p, m)
        g = f.primitive_element()
        n = f.order - 1
        for r in prime_factors(n):
            assert (g ** (n // r)).val != 1
        assert (g ** n).val == 1


# --- polynomials ------------------------------------------------------------

def test_poly_eval_and_derivative_basics():
    f5 = GF.get(5, 1)
    f = Poly.from_ints(f5, [1, 2, 0, 3])  # 1 + 2x + 3x^3
    assert f.evaluate(f5(2)).val == (1 + 4 + 24) % 5
    assert [c.val for c in f.derivative().coeffs] == [2, 0, 4]
    # derivative of x^p vanishes
    xp = Poly.from_ints(f5, [0] * 5 + [1])
    assert xp.derivative().degree == -1
    # order-0 derivative is the identity
    assert f.derivative(0) == f


def test_poly_product_rule():
    t = tower(5, 1, 2)
    rng = random.Random(7)
    fld = t.top
    for _ in range(20):
        f = Poly(fld, [fld(rng.randrange(25)) for _ in range(rng.randrange(1, 6))])
        g = Poly(fld, [fld(rng.randrange(25)) for _ in range(rng.randrange(1, 6))])
        lhs = (f * g).derivative()
        rhs = f.derivative() * g + f * g.derivative()
        assert lhs == rhs


def test_poly_eval_lifted():
    t = tower(2, 2, 2)
    f = Poly.from_ints(t.base, [1, 2, 3])
    x = t.top.generator()
    direct = t.lift(t.base(1)) + t.lift(t.base(2)) * x + t.lift(t.base(3)) * x * x
    assert f.evaluate(x, t) == direct
    with pytest.raises(FieldMismatchError):
        f.evaluate(x)  # no tower given
