"""Field tower arithmetic: axioms vs an independent polynomial oracle,
Galois structure, normal elements, polynomial calculus."""

import ast
import itertools
import os
import pathlib
import random
import subprocess
import sys
import tracemalloc
from types import SimpleNamespace

import pytest

import pseudoarcs
from pseudoarcs import gf
from pseudoarcs.gf import (FieldElement, FieldMismatchError, GF, Poly,
                           is_irreducible, prime_factors, smallest_irreducible,
                           tower)


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


def test_smallest_irreducible_holds_one_candidate_at_a_time():
    # GF(2^31 - 1) is answered as x, and degree 2 over it walks its
    # candidates lazily (x^2 + 1, as p = 3 mod 4): a product over
    # range(p) stores the range's 2^31 values first, far beyond the
    # address space of 1 GB this child process may map
    script = ("import resource\n"
              "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
              "from pseudoarcs.gf import GF, smallest_irreducible\n"
              "f = GF.get(2**31 - 1, 1)\n"
              "print(f.modulus, f.mul(2**30, 4), smallest_irreducible(2**31 - 1, 2))\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(gf.__file__)))
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "(0, 1) 2 (1, 0, 1)\n"


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


def test_smallest_irreducible_moduli_are_unchanged():
    # moduli the search gave while it still stepped through the p^(n-1)
    # candidates with c_0 = 0 one by one, as {exponent: coefficient};
    # GF(2^26) and GF(2^27) then took 3.9 and 9.7 s to find
    pins = {(2, 20): {0: 1, 17: 1, 20: 1},
            (2, 24): {0: 1, 20: 1, 21: 1, 23: 1, 24: 1},
            (2, 26): {0: 1, 22: 1, 23: 1, 25: 1, 26: 1},
            (2, 27): {0: 1, 22: 1, 25: 1, 26: 1, 27: 1},
            (3, 10): {0: 1, 8: 2, 10: 1},
            (3, 13): {0: 1, 12: 2, 13: 1},
            (5, 6): {0: 1, 4: 1, 5: 1, 6: 1},
            (7, 5): {0: 1, 4: 3, 5: 1}}
    # and past where that search finished: x^63 + 1 is divisible by
    # x + 1, so x^63 + x^62 + 1 is the second candidate
    pins[2, 32] = {0: 1, 25: 1, 29: 1, 30: 1, 32: 1}
    pins[2, 63] = {0: 1, 62: 1, 63: 1}
    for (p, n), terms in pins.items():
        modulus = tuple(terms.get(i, 0) for i in range(n + 1))
        assert smallest_irreducible(p, n) == modulus, (p, n)
        assert is_irreducible(modulus, p)


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


def test_zech_addition_matches_digit_oracle():
    # every odd p^m, m > 1, adds through its Zech table up to the table
    # limit: every pair up to order 125, seeded sampled rows above, each
    # row with b = 0 and b = -a planted, the sum that reads the sentinel
    rng = random.Random(17)
    fields = [(p, m) for p in (3, 5, 7, 11, 13, 17, 19, 23) for m in range(2, 6)
              if p ** m <= 529] + [(3, 7), (3, 10), (251, 2)]
    assert len(fields) == 16
    for p, m in fields:
        f = GF.get(p, m)
        assert f._zech is not None
        if f.order <= 125:
            pairs = itertools.product(range(f.order), repeat=2)
        else:
            rows = [0, 1, p - 1, p, f.order - 1] + rng.sample(range(f.order), 8)
            pairs = [(a, b) for a in rows
                     for b in [0, oracle_neg(a, p, m)] + rng.sample(range(f.order), 60)]
        for a, b in pairs:
            assert f.add(a, b) == oracle_add(a, b, p, m), (p, m, a, b)
        for a in rng.sample(range(1, f.order), min(f.order - 1, 50)):
            assert f.add(a, oracle_neg(a, p, m)) == 0
    assert GF.get(3, 11)._zech is None  # 177147 is above the table limit


def test_field_set_up_builds_no_table_entry_by_digits(monkeypatch):
    # the exp/log build multiplies once per element through _raw_mul, the
    # one per-element construction left; the Zech pass reads exp and log
    # and calls neither digits nor encode, on both sides of order 512
    calls, inside = [], []
    encode, digits = GF.encode, GF.digits
    build_mul, raw_mul = GF._build_mul_tables, GF._raw_mul

    def counted_encode(self, digs):
        calls.append(("encode", tuple(inside)))
        return encode(self, digs)

    def counted_digits(self, v):
        calls.append(("digits", tuple(inside)))
        return digits(self, v)

    def marked(name, method):
        def call(self, *args):
            inside.append(name)
            try:
                return method(self, *args)
            finally:
                inside.pop()
        return call

    monkeypatch.setattr(GF, "encode", counted_encode)
    monkeypatch.setattr(GF, "digits", counted_digits)
    monkeypatch.setattr(GF, "_build_mul_tables", marked("tables", build_mul))
    monkeypatch.setattr(GF, "_raw_mul", marked("raw_mul", raw_mul))
    for p, m in [(7, 3), (23, 2)]:
        f = GF(p, m)  # fresh, not the interned field
        assert f._zech is not None
        in_tables = [stack for _, stack in calls if stack[:1] == ("tables",)]
        assert len(in_tables) < 5 * f.order
        assert [stack for stack in in_tables if "raw_mul" not in stack] == []
        assert [c for c in calls if not c[1]] == [("encode", ())]  # the modulus
        del calls[:]

    # a fresh tower's coordinate tables: a few calls per digit, none per entry
    t = gf.FieldTower(7, 1, 3)
    del calls[:]
    tables = t._coord_tables()
    assert len(calls) < sum(map(len, tables))


def test_carry_less_products_match_polynomial_oracle():
    # p = 2: every table entry comes from the shift-and-XOR product
    rng = random.Random(8)
    for m in range(1, 9):
        f = GF.get(2, m)
        mod = f.modulus
        n = f.order - 1
        prim = f.primitive_element().val
        for i in range(n):
            assert f._exp[i] == f._exp[i + n]
            assert f._exp[i + 1] == oracle_mul(f._exp[i], prim, 2, mod), (m, i)
            assert f._log[f._exp[i]] == i
        assert sorted(f._exp[:n]) == list(range(1, f.order))
        pairs = (itertools.product(range(f.order), repeat=2) if m <= 5 else
                 [(rng.randrange(f.order), rng.randrange(f.order))
                  for _ in range(500)])
        for a, b in pairs:
            assert f._raw_mul(a, b) == oracle_mul(a, b, 2, mod), (m, a, b)


INTERNED_FIELDS = [(5, 1), (2, 4), (3, 4), (2, 12)]


def sample_encodings(f, rng, count=300):
    return [0, 1, f.order - 1] + [rng.randrange(f.order) for _ in range(count)]


def test_interned_elements_are_the_table_entries():
    rng = random.Random(12)
    for p, m in INTERNED_FIELDS:
        f = GF.get(p, m)
        vs = sample_encodings(f, rng)
        for v in vs:
            x = f.element(v)
            assert x == FieldElement(f, v) and hash(x) == hash(FieldElement(f, v))
            assert x.field is f and x.val == v
            assert f(v) is x
        for x, v in zip(f.wrap(vs), vs):
            assert x is f.element(v)
        assert [x.val for x in f.elements()] == list(range(f.order))
        assert all(x is f.element(x.val) for x in f.elements())
        assert f.zero is f.element(0) and f.one is f.element(1)


def test_interned_arithmetic_matches_direct_wrappers():
    rng = random.Random(13)
    for p, m in INTERNED_FIELDS:
        f = GF.get(p, m)
        for _ in range(300):
            a, b = f(rng.randrange(f.order)), f(rng.randrange(1, f.order))
            x, y = a.val, b.val
            expected = [(a + b, FieldElement(f, f.add(x, y))),
                        (a - b, FieldElement(f, f.sub(x, y))),
                        (-a, FieldElement(f, f.neg(x))),
                        (a * b, FieldElement(f, f.mul(x, y))),
                        (a / b, FieldElement(f, f.mul(x, f.inv(y)))),
                        (b.inverse(), FieldElement(f, f.inv(y))),
                        (a ** 5, FieldElement(f, f.pow(x, 5)))]
            for got, want in expected:
                assert got == want and got is f.element(want.val)


def test_field_above_the_table_limit():
    f = GF.get(2, 17)
    assert f.order > gf._TABLE_LIMIT and f._exp is None
    rng = random.Random(14)
    for v in sample_encodings(f, rng, 50):
        x = f.element(v)
        assert type(x) is FieldElement and x.field is f and x.val == v
        assert x == FieldElement(f, v) and hash(x) == hash(FieldElement(f, v))
        assert f(v) == x
    vs = sample_encodings(f, rng, 20)
    assert [x.val for x in f.wrap(vs)] == vs
    for _ in range(20):
        a, b = f(rng.randrange(f.order)), f(rng.randrange(1, f.order))
        assert (a * b).val == oracle_mul(a.val, b.val, 2, f.modulus)
        assert (a * b) / b == a and (a + b) - b == a and a + a == f.zero
        assert b * b.inverse() == f.one
        # a negative power above the table limit inverts, then powers
        assert f.pow(b.val, -2) == f.inv(oracle_mul(b.val, b.val, 2, f.modulus))
    assert f.pow(0, 0) == 1
    with pytest.raises(ZeroDivisionError):
        f.pow(0, -1)


def oracle_neg(a, p, m):
    return oracle_encode([(-x) % p for x in oracle_digits(a, p, m)], p)


def test_neg_and_sub_match_digit_reference():
    # odd p extension fields: every element up to GF(81), sampled
    # elements above the table limit, where the digit path stays
    rng = random.Random(15)
    for p, m in [(3, 2), (5, 2), (3, 3), (3, 4), (257, 2)]:
        f = GF.get(p, m)
        assert (f._exp is None) == (f.order > gf._TABLE_LIMIT)
        vs = (range(f.order) if f.order <= 81 else
              sample_encodings(f, rng, 100))
        for a in vs:
            assert f.neg(a) == oracle_neg(a, p, m), (p, m, a)
            for b in vs:
                assert f.sub(a, b) == oracle_add(a, oracle_neg(b, p, m), p, m)


def test_sub_product_matches_entry_arithmetic():
    # sub_product, one field per branch of the row ops: a prime field,
    # GF(16) on its tables, GF(9) and GF(625) through Zech logs, GF(2^17)
    # and GF(257^2) above the table limit; entries x = y*z planted, and
    # the difference taken digit by digit
    rng = random.Random(18)
    branches = {(7, 1): (True, False), (2, 4): (True, False),
                (3, 2): (True, True), (5, 4): (True, True),
                (2, 17): (False, False), (257, 2): (False, False)}
    for (p, m), (tables, zech) in branches.items():
        f = GF.get(p, m)
        assert (f._exp is not None, f._zech is not None) == (tables, zech)
        vs = sample_encodings(f, rng, 20)
        for n in (1, 2, 7):
            for _ in range(30):
                v, a, b = ([rng.choice(vs) for _ in range(n)] for _ in range(3))
                v[0] = f.mul(a[0], b[0])
                assert f.sub_product(v, a, b) == [
                    oracle_add(x, oracle_neg(f.mul(y, z), p, m), p, m)
                    for x, y, z in zip(v, a, b)], (p, m)


def test_scaled_rows_match_entry_arithmetic_for_every_scalar():
    # zero included, which has no log: one field per branch of the row
    # ops, a prime field, GF(16) on its logs, GF(25) and GF(3^7) through
    # Zech logs and GF(2^17) above the table limit; entries x = c*y
    # planted, and the difference taken digit by digit
    rng = random.Random(19)
    branches = {(7, 1): (True, False), (2, 4): (True, False),
                (5, 2): (True, True), (3, 7): (True, True),
                (2, 17): (False, False)}
    for (p, m), (tables, zech) in branches.items():
        f = GF.get(p, m)
        assert (f._exp is not None, f._zech is not None) == (tables, zech)
        vs = sample_encodings(f, rng, 20)  # 0 and 1 first
        for c in vs:
            for n in (1, 3):
                v, b = ([rng.choice(vs) for _ in range(n)] for _ in range(2))
                v[-1] = f.mul(c, b[-1])
                assert f.sub_scaled(v, c, b) == [
                    oracle_add(x, oracle_neg(f.mul(c, y), p, m), p, m)
                    for x, y in zip(v, b)], (p, m, c)
                assert f.scaled(c, b) == [f.mul(c, y) for y in b], (p, m, c)
    for p, m in [(5, 2), (2, 4)]:
        f = GF.get(p, m)
        assert f.sub_scaled([1, 2, 3], 0, [4, 5, 6]) == [1, 2, 3]
        assert f.scaled(0, [4, 5, 6]) == [0, 0, 0]


def sum_ops(f, v, a, b, terms):
    """Every op of f that adds, subtracts or negates, on fixed rows."""
    return [lambda: [f.add(x, y) for x, y in zip(v, b)],
            lambda: [f.sub(x, y) for x, y in zip(v, b)],
            lambda: [f.neg(x) for x in v],
            lambda: f.sub_scaled(v, a[1], b),
            lambda: f.sub_product(v, a, b),
            lambda: f.form_value(terms, v)]


def test_odd_fields_with_tables_add_without_digits(monkeypatch):
    # up to the table limit no odd extension field reaches a digit tuple
    # from a sum, a difference, a negation or a row op: they all read the
    # log and Zech tables
    rng = random.Random(21)
    cases = []
    for p, m in [(3, 2), (7, 3), (23, 2), (3, 7), (3, 10), (251, 2)]:
        f = GF.get(p, m)
        vs = sample_encodings(f, rng, 30)
        v, a, b = ([rng.choice(vs) for _ in range(8)] for _ in range(3))
        v[0], v[1] = 0, f.mul(a[1], b[1])
        terms = [(c, i, j) for c, (i, j) in zip(vs[1:], itertools.combinations(range(4), 2))]
        cases += [(f, op, op()) for op in sum_ops(f, v, a, b, terms)]

    def refused(self, *args):
        raise AssertionError("%r went by digits" % self)

    monkeypatch.setattr(GF, "digits", refused)
    monkeypatch.setattr(GF, "encode", refused)
    for f, op, expected in cases:
        assert op() == expected, f


def test_packed_words_match_entry_arithmetic():
    # every digit width (b = 1, 3, 4, 4, 5, 6, 10, 18), prime and extension
    # fields, p = 2 on both sides of every slot width (8, 16, 32 bits) up
    # to a top above 2^16, and odd p above it too, where the digits are
    # packed in chunks through tables within the limit: two chunks of 6,
    # 8 and 1 digits, 4 and 3 digits, three chunks of 7 for GF(3^21), the
    # largest odd top a 64-bit slot holds for p = 3, and for GF(17^10)
    # chunks of 3, 3, 3 and 1 digits, and one digit above the limit; rows
    # hold zeros and entries with every digit p - 1 at both ends; unpack
    # and scale are checked in every characteristic, on packed rows and
    # on their packed sums
    rng = random.Random(16)
    for p, m in [(2, 1), (2, 4), (2, 7), (2, 8), (2, 15), (2, 16), (2, 18),
                 (3, 1), (3, 4), (5, 2), (7, 2), (11, 2), (13, 1), (3, 11),
                 (3, 16), (257, 2), (5, 7), (3, 21), (17, 10), (65537, 2)]:
        f = GF.get(p, m)
        for n in (1, 2, 7):
            pack, add, weight, unpack, scale = f.word_ops(n)
            rows = [[0] * n, [f.order - 1] * n]
            rows += [[rng.choice((0, f.order - 1, rng.randrange(f.order)))
                      for _ in range(n)] for _ in range(40)]
            for x in rows:
                assert weight(pack(x)) == sum(1 for v in x if v)
                assert unpack(pack(x)) == tuple(x)
                for y in rng.sample(rows, 5):
                    s = [f.add(a, b) for a, b in zip(x, y)]
                    assert add(pack(x), pack(y)) == pack(s), (p, m, x, y)
                    assert unpack(add(pack(x), pack(y))) == tuple(s), (p, m, x, y)
                    assert weight(add(pack(x), pack(y))) == sum(1 for v in s if v)
                for c in (0, 1, f.order - 1, rng.randrange(f.order)):
                    product = [f.mul(c, v) for v in x]
                    assert scale(c, pack(x)) == pack(product), (p, m, c, x)


def test_odd_packed_words_build_no_table_of_every_entry():
    # pack reads a table of at most 2^16 chunk layouts, and none for a
    # single digit; a table of every entry, about 9 MB at GF(262139) and
    # 6 MB at GF(3^11), fails there before GF(1048573) and GF(3^21),
    # where it would take about 40 MB and 900 GB
    for p, m in [(262139, 1), (3, 11), (1048573, 1), (3, 21)]:
        f = GF.get(p, m)
        tracemalloc.start()
        try:
            pack, add, weight, unpack, scale = f.word_ops(3)
            row = [0, 1, f.order - 1]
            assert unpack(add(pack(row), pack(row))) == tuple(f.add(v, v) for v in row)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, (p, m, peak)


def test_packed_words_at_32_and_64_bit_slots():
    # GF(2^31) fills a 32-bit slot, GF(2^32) and GF(2^63) take 64-bit
    # ones, the last with no bit to spare but the guard bit
    rng = random.Random(17)
    for m, width in [(31, 32), (32, 64), (63, 64)]:
        f = GF.get(2, m)
        top = f.order - 1
        for n in (1, 2, 7):
            pack, add, weight, unpack, scale = f.word_ops(n)
            if n > 1:
                assert pack([0, 1] + [0] * (n - 2)) == 1 << width
            rows = [[0] * n, [top] * n]
            rows += [[rng.choice((0, top, rng.randrange(f.order))) for _ in range(n)]
                     for _ in range(20)]
            for x in rows:
                assert unpack(pack(x)) == tuple(x)
                assert weight(pack(x)) == sum(1 for v in x if v)
                for y in rng.sample(rows, 3):
                    s = [f.add(a, b) for a, b in zip(x, y)]
                    assert add(pack(x), pack(y)) == pack(s), (m, x, y)
                    assert weight(add(pack(x), pack(y))) == sum(1 for v in s if v)
                for c in (0, 1, top, rng.randrange(f.order)):
                    assert scale(c, pack(x)) == pack([f.mul(c, v) for v in x]), (m, c, x)


def test_packed_words_refuse_entries_over_63_bits():
    # no field this large is built here; word_ops reads only p, m and order
    for p, m in [(2, 64), (3, 22)]:
        with pytest.raises(ValueError, match="more than a 64-bit slot"):
            GF.word_ops(SimpleNamespace(p=p, m=m, order=p ** m), 3)


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

    class Encoding(int):
        pass

    # an int subclass takes the checked path and gets the interned element
    assert f(Encoding(3)) is f(3) is f.element(3)
    for bad in (-1, f.order):
        with pytest.raises(ValueError):
            f(bad)


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


def test_dual_basis_is_trace_dual_and_refuses_a_dependent_list():
    t = tower(5, 1, 2)
    top, w = t.top, t.normal_element()
    basis = t.normal_basis()
    dual = t.dual_basis(basis)
    assert [[t.rel_trace(b * d).val for d in dual] for b in basis] == [[1, 0], [0, 1]]
    for dependent in ([w, w], [top(1), top(3)]):
        with pytest.raises(ValueError, match="^elements are not an F_q-basis$"):
            t.dual_basis(dependent)


def test_normal_coords_roundtrip():
    # (2, 3, 3) and (3, 3, 2) read their encodings in two chunks
    for (p, e, h) in [(2, 2, 2), (5, 1, 2), (2, 1, 3), (3, 2, 2), (3, 1, 3),
                      (2, 3, 3), (3, 3, 2)]:
        t = tower(p, e, h)
        basis = t.normal_basis()
        for x in t.top.elements():
            coords = t.normal_coords(x)
            acc = t.top.zero
            for c, b in zip(coords, basis):
                acc = acc + t.lift(c) * b
            assert acc == x


# the towers the four bench grids build: arcs, distance, roundtrip, quadrics
BENCH_TOWERS = [(7, 1, 2), (3, 2, 2), (11, 1, 2), (13, 1, 2), (2, 4, 2),
                (2, 3, 2), (7, 1, 3), (5, 1, 2), (2, 2, 2), (2, 5, 2),
                (2, 6, 2), (2, 3, 3), (7, 1, 1), (11, 1, 1), (13, 1, 1),
                (5, 2, 1)]


def solve_in_normal_basis(t):
    """Top encoding -> base encodings of its normal-basis coordinates, by
    running over every combination of the basis."""
    basis = t.normal_basis()
    coords = {}
    for c in itertools.product(range(t.q), repeat=t.h):
        acc = t.top.zero
        for v, b in zip(c, basis):
            acc = acc + t.lift(t.base(v)) * b
        coords[acc.val] = c
    assert len(coords) == t.top.order
    return coords


def test_coord_tables_match_normal_basis_solve():
    for pe in BENCH_TOWERS:
        t = tower(*pe)
        coords = solve_in_normal_basis(t)
        # table j maps a chunk value u to the coordinates of u * p^o_j
        shift = 1
        for table in t._coord_tables():
            assert len(table) <= 256 and shift * len(table) <= t.top.order
            for u, entry in enumerate(table):
                assert entry == coords[u * shift], (pe, shift, u)
            shift *= len(table)
        assert shift == t.top.order
        for v in range(t.top.order):
            assert t.normal_ints(v) == coords[v], (pe, v)


def test_normal_lookup_reads_one_table_on_a_one_chunk_tower(monkeypatch):
    # GF(16) and GF(81) fit one chunk table, GF(343) and GF(4096) need
    # two: the lookup of a one-chunk tower reads its table with no call
    # of normal_ints, and any other tower's lookup is normal_ints itself
    towers = [tower(2, 2, 2), tower(3, 2, 2), tower(7, 1, 3), tower(2, 6, 2)]
    solved = [solve_in_normal_basis(t) for t in towers]
    lookups = [t.normal_lookup() for t in towers]
    assert [len(t._coord_tables()) for t in towers] == [1, 1, 2, 2]

    def refused(self, v):
        raise AssertionError("normal_ints called")

    with monkeypatch.context() as patch:
        patch.setattr(gf.FieldTower, "normal_ints", refused)
        for t, coords, lookup in zip(towers[:2], solved, lookups):
            assert [lookup(v) for v in range(t.top.order)] == [
                coords[v] for v in range(t.top.order)]
    for t, coords, lookup in zip(towers, solved, lookups):
        assert lookup == t.normal_lookup()
        for v in range(t.top.order):
            assert lookup(v) == t.normal_ints(v) == coords[v], (t, v)


def test_primitive_element_is_primitive():
    for p, m in [(2, 4), (5, 2), (7, 1)]:
        f = GF.get(p, m)
        g = f.primitive_element()
        n = f.order - 1
        for r in prime_factors(n):
            assert (g ** (n // r)).val != 1
        assert (g ** n).val == 1


# --- polynomials ------------------------------------------------------------

def test_poly_eval_basics():
    f5 = GF.get(5, 1)
    f = Poly.from_ints(f5, [1, 2, 0, 3])  # 1 + 2x + 3x^3
    assert f.evaluate(f5(2)).val == (1 + 4 + 24) % 5


def test_poly_eval_lifted():
    t = tower(2, 2, 2)
    f = Poly.from_ints(t.base, [1, 2, 3])
    x = t.top.generator()
    direct = t.lift(t.base(1)) + t.lift(t.base(2)) * x + t.lift(t.base(3)) * x * x
    assert f.evaluate(x, t) == direct
    with pytest.raises(FieldMismatchError):
        f.evaluate(x)  # no tower given


def test_no_assert_in_the_package():
    # python -O strips assert statements; an invariant of the program is
    # an explicit InvariantError
    package = pathlib.Path(pseudoarcs.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert modules
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            assert not isinstance(node, ast.Assert), (path.name, node.lineno)
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                assert not (isinstance(exc, ast.Name) and exc.id == "AssertionError"), \
                    (path.name, node.lineno)
