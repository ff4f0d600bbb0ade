"""Exact arithmetic for GF(p^m) and the two-level tower GF(q) < GF(q^h).

Elements are integers in [0, p^m) whose base-p digits, least significant
first, are the coordinates in the polynomial basis 1, g, g^2, ... of the
canonical generator g (the class of x modulo the field's irreducible
polynomial).  Moduli are always the lexicographically smallest monic
irreducible of the required degree, coefficient tuples compared constant
term first, so every field and tower is reproducible from (p, e, h) alone
and the integer encoding is stable across runs.

The tower GF(q) < GF(q^h), q = p^e, is realized as two absolute extensions
of GF(p) with a computed embedding: the canonical GF(q) generator maps to
the smallest-encoded root of the base modulus inside the top field.
"""

from __future__ import annotations

import functools
import operator
import struct

from . import linalg

_TABLE_LIMIT = 1 << 16      # exp/log and element tables up to this field order


class FieldMismatchError(ValueError):
    """Raised when elements of different fields or levels are mixed."""


class InvariantError(AssertionError):
    """Raised when a mathematical invariant the code relies on fails, such
    as the Thas bound or a field reduction's rank: a fault in the program,
    never a verdict.  Unlike an assert, the check survives ``python -O``."""


# ---------------------------------------------------------------------------
# small number theory

def is_prime(n):
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def prime_factors(n):
    """Sorted list of the distinct prime factors of n >= 1."""
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return out


def factor_prime_power(n):
    """Return (p, e) with n = p^e, or raise ValueError."""
    if n < 2:
        raise ValueError("%d is not a prime power" % n)
    ps = prime_factors(n)
    if len(ps) != 1:
        raise ValueError("%d is not a prime power" % n)
    p = ps[0]
    e = 0
    while n > 1:
        n //= p
        e += 1
    return p, e


# ---------------------------------------------------------------------------
# polynomials over F_p as coefficient lists, low degree first

def _ptrim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _pmul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _ptrim(out)


def _psub(a, b, p):
    n = max(len(a), len(b))
    out = [0] * n
    for i in range(n):
        ai = a[i] if i < len(a) else 0
        bi = b[i] if i < len(b) else 0
        out[i] = (ai - bi) % p
    return _ptrim(out)


def _pmod(a, m, p):
    # m monic
    a = list(a)
    dm = len(m) - 1
    while len(a) - 1 >= dm and a:
        lead = a[-1]
        shift = len(a) - 1 - dm
        if lead:
            for i in range(dm + 1):
                a[shift + i] = (a[shift + i] - lead * m[i]) % p
        a.pop()
    return _ptrim(a)


def _pgcd(a, b, p):
    a, b = list(a), list(b)
    while b:
        # reduce a mod b (b made monic on the fly)
        inv = pow(b[-1], p - 2, p)
        bm = [(c * inv) % p for c in b]
        a, b = b, _pmod(a, bm, p)
    if a:
        inv = pow(a[-1], p - 2, p)
        a = [(c * inv) % p for c in a]
    return a


def _ppow_mod(a, n, m, p):
    result = [1]
    base = _pmod(a, m, p)
    while n:
        if n & 1:
            result = _pmod(_pmul(result, base, p), m, p)
        base = _pmod(_pmul(base, base, p), m, p)
        n >>= 1
    return result


def is_irreducible(coeffs, p):
    """Rabin test for a monic polynomial over F_p, coefficients low first."""
    f = list(coeffs)
    n = len(f) - 1
    if n < 1 or f[-1] != 1:
        return False
    x = _pmod([0, 1], f, p)
    need = {n // r for r in prime_factors(n)} if n > 1 else set()
    t = x
    for d in range(1, n + 1):
        t = _ppow_mod(t, p, f, p)
        if d in need and len(_pgcd(_psub(t, x, p), f, p)) - 1 != 0:
            return False
    return not _psub(t, x, p)


def smallest_irreducible(p, n):
    """Lex-smallest monic irreducible of degree n over F_p.

    Coefficient tuples (c_0, ..., c_{n-1}) are compared low degree first.
    For n = 1 the answer is x.  For n >= 2 a candidate with c_0 = 0 is
    divisible by x, so the walk starts at c_0 = 1; candidate i is read
    off the base-p digits of i, c_0 the most significant, so the walk
    holds one candidate at a time, whatever the size of p.
    """
    if n == 1:
        return (0, 1)
    for i in range(p ** (n - 1), p ** n):
        f = [1]
        for _ in range(n):
            i, d = divmod(i, p)
            f.append(d)
        f.reverse()
        if is_irreducible(f, p):
            return tuple(f)
    raise InvariantError("no irreducible of degree %d over F_%d" % (n, p))


# ---------------------------------------------------------------------------
# single fields

class GF:
    """The field with p^m elements, integer-encoded.

    Do not construct directly; use :meth:`get` so that equal parameters
    always yield the identical object (element identity checks and caches
    rely on interning).

    Up to order ``_TABLE_LIMIT`` the field also builds each of its
    FieldElements once, in a tuple indexed by encoding: ``element(v)`` is
    then a lookup, and every wrap of an encoding in the package goes
    through it or through ``wrap``.  Above the limit ``element`` is the
    constructor.  Below the limit an odd extension field adds by Zech logs.
    """

    _cache = {}

    def __init__(self, p, m):
        self.p = p
        self.m = m
        self.order = p ** m
        self.modulus = smallest_irreducible(p, m)
        self._modulus_int = self.encode(self.modulus)
        self._gorder = self.order - 1
        self._exp = None
        self._log = None
        self._zech = None
        if self.order <= _TABLE_LIMIT:
            self._build_mul_tables()
            self.element = tuple(FieldElement(self, v)
                                 for v in range(self.order)).__getitem__
        else:
            self.element = functools.partial(FieldElement, self)
        self.sub_scaled, self.scaled, self.sub_product, self.form_value = self._row_ops()
        self.zero = self.element(0)
        self.one = self.element(1)

    @classmethod
    def get(cls, p, m):
        key = (p, m)
        inst = cls._cache.get(key)
        if inst is None:
            if not is_prime(p):
                raise ValueError("characteristic %d is not prime" % p)
            if m < 1:
                raise ValueError("extension degree must be >= 1")
            inst = cls(p, m)
            cls._cache[key] = inst
        return inst

    def __repr__(self):
        return "GF(%d)" % self.order if self.m == 1 else "GF(%d^%d)" % (self.p, self.m)

    # -- integer-level arithmetic ------------------------------------------

    def digits(self, v):
        p = self.p
        out = []
        for _ in range(self.m):
            v, d = divmod(v, p)
            out.append(d)
        return tuple(out)

    def encode(self, digs):
        v = 0
        for d in reversed(digs):
            v = v * self.p + d
        return v

    def _raw_mul(self, a, b):
        if self.m == 1:
            return (a * b) % self.p
        if self.p == 2:
            # carry-less: digits are bits, so shift a and XOR it in for
            # each set bit of b, reducing by the modulus as degree m appears
            m, mod = self.m, self._modulus_int
            r = 0
            while b:
                if b & 1:
                    r ^= a
                b >>= 1
                a <<= 1
                if a >> m:
                    a ^= mod
            return r
        prod = _pmul(list(self.digits(a)), list(self.digits(b)), self.p)
        red = _pmod(prod, list(self.modulus), self.p)
        return self.encode(red + [0] * (self.m - len(red)))

    def _raw_pow(self, a, n):
        r = 1
        while n:
            if n & 1:
                r = self._raw_mul(r, a)
            a = self._raw_mul(a, a)
            n >>= 1
        return r

    def _build_mul_tables(self):
        """exp/log tables of a primitive element a, and for odd p, m > 1,
        Zech logs (K. Huber, IEEE Trans. Inf. Theory 36, 1990): zech[d] is
        log(1 + a^d), one pass over exp, as adding 1 changes only the
        constant digit.  With g = order - 1, x + w is exp[lw + zech[log[x]
        - lw]] for w != 0 and lw = log(w) + kg below 3g, and no branch on
        x: log[0] = 4g = zech[g/2] (1 + a^(g/2) = 0) reads the 3g zeros
        after four turns of exp, and zech holds zeros at (g, 4g], read
        for x = 0, and three copies of itself after them for d < 0."""
        gen = self._find_primitive()
        g, p = self._gorder, self.p
        # one int object per value, shared by the tables: less memory to read
        ints = list(range(self.order))
        exp, log = [0] * g, [0] * self.order
        v = 1
        for i in ints[:g]:
            exp[i] = ints[v]
            log[v] = i
            v = self._raw_mul(v, gen)
        self._log = log
        if p > 2 and self.m > 1:
            log[0] = 4 * g
            zech = [log[v + 1 - p if v % p == p - 1 else v + 1] for v in exp]
            self._zech = zech + [0] * (3 * g + 1) + zech * 3
            self._exp = exp * 4 + [0] * (3 * g)
        else:
            # doubled, so a sum of two logs indexes it without reduction
            self._exp = exp + exp

    def _find_primitive(self):
        primes = prime_factors(self._gorder) if self._gorder > 1 else []
        for cand in range(2, self.order):
            if all(self._raw_pow(cand, self._gorder // r) != 1 for r in primes):
                self._primitive = cand
                return cand
        self._primitive = 1
        return 1

    def primitive_element(self):
        """Smallest-encoded generator of the multiplicative group."""
        if not hasattr(self, "_primitive"):
            self._find_primitive()
        return self.element(self._primitive)

    def _row_ops(self):
        """Int row operations for linalg and pseudoarc:
        ``sub_scaled(v, c, b)`` is v - c*b and ``scaled(c, b)`` is c*b, for
        rows v, b of encodings and a scalar c, and ``sub_product(v, a, b)``
        is v - a*b entry by entry, for rows v, a, b.  ``form_value(terms,
        v)`` is the sum of c*v[i]*v[j] over the terms (c, i, j), each c
        nonzero, for a vector v of encodings.  They branch like add/sub/mul
        (odd p through Zech logs), once per row, not per entry; a zero c
        has no log, so the log branches return v and the zero row for it."""
        p, exp, log, zech = self.p, self._exp, self._log, self._zech
        if self.m == 1:
            def sub_scaled(v, c, b):
                return [(x - c * y) % p for x, y in zip(v, b)]

            def scaled(c, b):
                return [c * y % p for y in b]

            def sub_product(v, a, b):
                return [(x - y * z) % p for x, y, z in zip(v, a, b)]

            def form_value(terms, v):
                return sum(c * v[i] * v[j] for c, i, j in terms) % p
        elif exp is not None:
            g = self._gorder
            if p == 2:
                def sub_scaled(v, c, b):
                    if not c:
                        return list(v)
                    lc = log[c]
                    return [x ^ exp[lc + log[y]] if y else x
                            for x, y in zip(v, b)]

                def sub_product(v, a, b):
                    return [x ^ exp[log[y] + log[z]] if y and z else x
                            for x, y, z in zip(v, a, b)]

                def form_value(terms, v):
                    acc = 0
                    for c, i, j in terms:
                        x, y = v[i], v[j]
                        if x and y:
                            acc ^= exp[(log[c] + log[x] + log[y]) % g]
                    return acc
            else:
                half = g // 2  # -1 is exp[g/2]; lw, a sum of three logs, is below 3g

                def sub_scaled(v, c, b):
                    if not c:
                        return list(v)
                    lc = log[c] + half  # log(-c)
                    return [exp[(lw := lc + log[y]) + zech[log[x] - lw]] if y else x
                            for x, y in zip(v, b)]

                def sub_product(v, a, b):
                    return [exp[(lw := log[y] + log[z] + half) + zech[log[x] - lw]]
                            if y and z else x for x, y, z in zip(v, a, b)]

                def form_value(terms, v):
                    acc = 0
                    for c, i, j in terms:
                        x, y = v[i], v[j]
                        if x and y:
                            lw = log[c] + log[x] + log[y]
                            acc = exp[lw + zech[log[acc] - lw]]
                    return acc

            def scaled(c, b):
                if not c:
                    return [0] * len(b)
                lc = log[c]
                return [exp[lc + log[y]] if y else 0 for y in b]
        else:
            fadd, sub, mul = self.add, self.sub, self.mul

            def sub_scaled(v, c, b):
                return [sub(x, mul(c, y)) for x, y in zip(v, b)]

            def scaled(c, b):
                return [mul(c, y) for y in b]

            def sub_product(v, a, b):
                return [sub(x, mul(y, z)) for x, y, z in zip(v, a, b)]

            def form_value(terms, v):
                acc = 0
                for c, i, j in terms:
                    acc = fadd(acc, mul(c, mul(v[i], v[j])))
                return acc
        return sub_scaled, scaled, sub_product, form_value

    def word_ops(self, n):
        """Packed words of length n, the same five ops for every p:
        ``pack(ints)`` holds a row of n encodings as one int, ``add(w, s)``
        is the entry-wise field sum of two packed words, ``weight(w,
        tail=())`` is the least number of nonzero entries of w and of the
        words of its Gray walk over ``tail``, ``unpack(w)`` is the tuple
        of the n encodings and ``scale(c, w)`` is the word c * w for c in
        this field.

        Entry j takes the little-endian W-bit slot starting at bit j*W,
        W the first of 8, 16, 32 and 64 with room for the entry and one
        zero guard bit above it.  For p = 2 the entry is the m bits of
        the encoding, so the sum is XOR and ``scale`` shifts the whole
        word by x, needing no field table; for odd p, the m base-p
        digits, b = (2p-1).bit_length() bits each, so a digit-wise sum
        fits before one SWAR step takes p off each digit that reached p,
        and ``scale`` unpacks, scales the row and packs it again.  Odd
        ``pack`` lays out k digits at a time from a table of p^k entries,
        within ``_TABLE_LIMIT`` (none at all for k = 1), and ``unpack``
        reads the digits back by Horner's rule on whole words.
        Every entry is below 2^(W-1), so adding 2^(W-1)-1 to each slot
        sets its top bit exactly when the entry is nonzero, and carries
        into no other slot: a weight is one ``bit_count()``.

        The walk reads ``tail`` as the words of L base-p digits and runs
        through all p^L of their combinations added to w, in modular
        p-ary Gray order (Knuth, TAOCP 4A, 7.2.1.1): step t adds word
        v_p(t) once, so each next word is one packed add away.  The
        words to add are listed first, by the rule that the steps over
        L + 1 digits are p copies of those over L joined by digit L's
        word: p^L - 1 references, 4 MB for the 2^19 words of the longest
        walk that ``codes.WORD_BUDGET`` lets a code run.  Then one loop
        per characteristic adds and weighs them inline, with no call per
        step.  A field whose entries need more than 63 bits raises
        ValueError.
        """
        p, m = self.p, self.m
        b = 1 if p == 2 else (2 * p - 1).bit_length()
        width = next((w for w in (8, 16, 32, 64) if w > m * b), None)
        if width is None:
            raise ValueError("GF(%d) entries need %d bits, more than a 64-bit slot holds"
                             % (self.order, m * b + 1))
        row = struct.Struct("<%d%s" % (n, "BHIQ"[width.bit_length() - 4]))

        def pack_slots(ints):
            return int.from_bytes(row.pack(*ints), "little")

        def unpack_slots(w):
            return row.unpack(w.to_bytes(row.size, "little"))

        ones = pack_slots([1] * n)
        low = (1 << (width - 1)) - 1
        fill, top = low * ones, (low + 1) * ones

        def gray_steps(tail):
            # the word each step of the walk adds: word v_p(t) at step t
            steps = []
            for word in tail:
                steps = [*steps, word] * (p - 1) + steps
            return steps

        if p == 2:
            # x * v is v shifted up one bit, with x^m = the modulus's low
            # bits put back in the slots whose bit m - 1 was set
            keep = ((1 << (m - 1)) - 1) * ones
            low_bits = self._modulus_int ^ (1 << m)

            def weight(w, tail=()):
                best = ((w + fill) & top).bit_count()
                for s in gray_steps(tail):
                    w ^= s
                    c = ((w + fill) & top).bit_count()
                    if c < best:
                        best = c
                return best

            def scale(c, w):
                out = 0
                while c:
                    if c & 1:
                        out ^= w
                    c >>= 1
                    w = ((w & keep) << 1) ^ ((w >> (m - 1)) & ones) * low_bits
                return out

            return pack_slots, operator.xor, weight, unpack_slots, scale

        digit_ones = ones * sum(1 << (i * b) for i in range(m))
        bias = ((1 << (b - 1)) - p) * digit_ones
        shift = b - 1

        # spread[u]: the k digits of u < p^k, b bits apart, for k = m when
        # p^m fits the table limit, else for the fewest chunks of k digits
        # that fit, or k = 1, where spread is range(p) and builds nothing
        k = next(-(-m // c) for c in range(1, m + 1)
                 if p ** -(-m // c) <= _TABLE_LIMIT or c == m)
        size, spread = p ** k, range(p)
        for _ in range(k - 1):
            spread = [s << b | d for s in spread for d in range(p)]
        chunks = [(j * b, p ** j) for j in range(0, m, k)]
        digit = ((1 << b) - 1) * ones

        def pack(ints):
            return sum(pack_slots([spread[v // low % size] for v in ints]) << at
                       for at, low in chunks)

        def add(w, s):
            s += w
            return s - (((s + bias) >> shift) & digit_ones) * p

        def weight(w, tail=()):
            best = ((w + fill) & top).bit_count()
            for s in gray_steps(tail):
                w += s  # add(w, s), inline
                w -= (((w + bias) >> shift) & digit_ones) * p
                c = ((w + fill) & top).bit_count()
                if c < best:
                    best = c
            return best

        def unpack(w):
            v = 0  # Horner, high digit first: below p^m in every slot
            for at in range((m - 1) * b, -1, -b):
                v = v * p + (w >> at & digit)
            return unpack_slots(v)

        def scale(c, w):
            return pack(self.scaled(c, unpack(w)))

        return pack, add, weight, unpack, scale

    def add(self, a, b):
        if self.p == 2:
            return a ^ b
        if self.m == 1:
            return (a + b) % self.p
        if self._zech is not None:
            lb = self._log[b]
            return self._exp[lb + self._zech[self._log[a] - lb]] if b else a
        p = self.p
        return self.encode(tuple((x + y) % p
                                 for x, y in zip(self.digits(a), self.digits(b))))

    def neg(self, a):
        if self.p == 2:
            return a
        if self.m == 1:
            return (-a) % self.p
        if self._exp is not None:
            # -1 is exp[g/2], the one element of order 2
            return self._exp[self._log[a] + self._gorder // 2] if a else 0
        p = self.p
        return self.encode(tuple((-x) % p for x in self.digits(a)))

    def sub(self, a, b):
        if self.p == 2:
            return a ^ b
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if a == 0 or b == 0:
            return 0
        if self._exp is not None:
            return self._exp[(self._log[a] + self._log[b]) % self._gorder]
        return self._raw_mul(a, b)

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if self._exp is not None:
            return self._exp[(-self._log[a]) % self._gorder]
        return self._raw_pow(a, self._gorder - 1)

    def pow(self, a, n):
        if a == 0:
            if n == 0:
                return 1
            if n < 0:
                raise ZeroDivisionError("negative power of zero")
            return 0
        if self._exp is not None:
            return self._exp[(self._log[a] * n) % self._gorder]
        if n < 0:
            return self._raw_pow(self.inv(a), -n)
        return self._raw_pow(a, n % self._gorder if self._gorder else 1)

    # -- element helpers ----------------------------------------------------

    def __call__(self, v):
        if type(v) is int and 0 <= v < self.order:
            return self.element(v)
        if isinstance(v, bool) or not isinstance(v, int):
            raise TypeError("element value must be an int encoding")
        if not 0 <= v < self.order:
            raise ValueError("encoding %d out of range for %r" % (v, self))
        return self.element(v)

    def wrap(self, ints):
        """The elements of an iterable of encodings, as a list; unlike
        calling the field, no check of type or range."""
        return list(map(self.element, ints))

    def elements(self):
        return map(self.element, range(self.order))

    def generator(self):
        """The canonical generator: the class of x (encoding p) for m > 1."""
        return self.element(self.p if self.m > 1 else 0)


class FieldElement:
    """A single field element: a field reference plus its integer encoding."""

    __slots__ = ("field", "val")

    def __init__(self, field, val):
        self.field = field
        self.val = val

    def _check(self, other):
        if not isinstance(other, FieldElement):
            raise TypeError("cannot combine %r with field element" % (other,))
        if other.field is not self.field:
            raise FieldMismatchError(
                "level mismatch: %r vs %r" % (self.field, other.field))

    def __add__(self, other):
        self._check(other)
        f = self.field
        return f.element(f.add(self.val, other.val))

    def __sub__(self, other):
        self._check(other)
        f = self.field
        return f.element(f.sub(self.val, other.val))

    def __neg__(self):
        f = self.field
        return f.element(f.neg(self.val))

    def __mul__(self, other):
        self._check(other)
        f = self.field
        return f.element(f.mul(self.val, other.val))

    def __truediv__(self, other):
        self._check(other)
        f = self.field
        return f.element(f.mul(self.val, f.inv(other.val)))

    def __pow__(self, n):
        f = self.field
        return f.element(f.pow(self.val, n))

    def inverse(self):
        f = self.field
        return f.element(f.inv(self.val))

    def __bool__(self):
        return self.val != 0

    def __eq__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.field is other.field and self.val == other.val

    def __hash__(self):
        return hash((self.field.p, self.field.m, self.val))

    def __repr__(self):
        return "%r(%d)" % (self.field, self.val)


# ---------------------------------------------------------------------------
# the two-level tower

class FieldTower:
    """GF(q) < GF(q^h) with q = p^e, both as absolute extensions of GF(p).

    ``base`` and ``top`` are interned GF objects; ``embedding_image`` is the
    image of the canonical base generator inside the top field (the
    smallest-encoded root of the base modulus there), which pins down the
    embedding completely.  ``embed_table[b]`` is the top encoding of the
    base element encoded by b.
    """

    _cache = {}

    def __init__(self, p, e, h):
        if not is_prime(p):
            raise ValueError("characteristic %d is not prime" % p)
        if e < 1 or h < 1:
            raise ValueError("tower degrees must be >= 1")
        self.p = p
        self.e = e
        self.h = h
        self.q = p ** e
        self.base = GF.get(p, e)
        self.top = self.base if h == 1 else GF.get(p, e * h)
        self.embedding_image = self._find_embedding_image()
        self.embed_table = self._build_embed_table()
        self._unembed = {t: b for b, t in enumerate(self.embed_table)}
        self._normal_basis = self._coord_lookup = None
        # q^d for the proper divisors d of h: GF(q^d) is the subfield
        # that x^(q^d) = x cuts out
        self._subfield_exponents = [self.q ** d for d in range(1, h) if h % d == 0]

    @classmethod
    def get(cls, p, e, h):
        key = (p, e, h)
        inst = cls._cache.get(key)
        if inst is None:
            inst = cls(p, e, h)
            cls._cache[key] = inst
        return inst

    def __repr__(self):
        return "FieldTower(p=%d, e=%d, h=%d)" % (self.p, self.e, self.h)

    def _find_embedding_image(self):
        # smallest-encoded root of the base modulus in the top field
        mod = self.base.modulus
        top = self.top
        for v in range(top.order):
            acc = 0
            for c in reversed(mod):
                acc = top.add(top.mul(acc, v), c % self.p)
            if acc == 0:
                return top.element(v)
        raise InvariantError("base modulus has no root in the top field")

    def _build_embed_table(self):
        top = self.top
        beta = self.embedding_image.val
        table = []
        for b in range(self.base.order):
            digs = self.base.digits(b)
            acc = 0
            for d in reversed(digs):
                acc = top.add(top.mul(acc, beta), d)
            table.append(acc)
        return table

    # -- embedding ----------------------------------------------------------

    def lift(self, x):
        """Embed a base element into the top field."""
        if x.field is not self.base:
            raise FieldMismatchError("lift expects a base-level element")
        return self.top.element(self.embed_table[x.val])

    def to_base(self, x):
        """Inverse of lift; raises when x is outside the embedded base field."""
        if x.field is not self.top:
            raise FieldMismatchError("to_base expects a top-level element")
        b = self._unembed.get(x.val)
        if b is None:
            raise ValueError("element %r is not in the embedded base field" % x)
        return self.base.element(b)

    # -- Galois structure ---------------------------------------------------

    def frobenius(self, x, i):
        """x -> x^(q^i) on the top field, 0 <= i < h."""
        if x.field is not self.top:
            raise FieldMismatchError("frobenius expects a top-level element")
        if not 0 <= i < self.h:
            raise ValueError("frobenius power %d outside 0..%d" % (i, self.h - 1))
        return x ** (self.q ** i)

    def rel_trace(self, x):
        """Relative trace onto the base field: sum of x^(q^i), i = 0..h-1."""
        if x.field is not self.top:
            raise FieldMismatchError("rel_trace expects a top-level element")
        acc = x
        for i in range(1, self.h):
            acc = acc + x ** (self.q ** i)
        b = self._unembed.get(acc.val)
        if b is None:
            raise InvariantError("trace value escaped the base subfield")
        return self.base.element(b)

    def in_proper_subfield(self, x):
        """True iff x lies in GF(q^d) for some proper divisor d of h."""
        if x.field is not self.top:
            raise FieldMismatchError("in_proper_subfield expects a top-level element")
        return not self.generates(x.val)

    def generates(self, v):
        """Whether the top element encoded by v generates the top field
        over the base: v^(q^d) != v, on encodings, for every proper
        divisor d of h."""
        pow_ = self.top.pow
        for n in self._subfield_exponents:
            if pow_(v, n) == v:
                return False
        return True

    def normal_element(self):
        """Smallest-encoded omega whose conjugates form a base-field basis.

        Independence of omega, omega^q, ..., omega^(q^(h-1)) over GF(q) is
        tested through the h x h matrix of conjugates [omega^(q^(i+j mod h))],
        of rank h exactly in the normal case.
        """
        return self.normal_basis()[0]

    def normal_basis(self):
        """(omega, omega^q, ..., omega^(q^(h-1))) for the canonical omega,
        found on first use."""
        if self._normal_basis is None:
            h, q, top = self.h, self.q, self.top
            for v in range(1, top.order):
                conj = [top.pow(v, q ** i) for i in range(h)]
                mat = [[conj[(i + j) % h] for j in range(h)] for i in range(h)]
                if linalg.rank_ints(top, mat) == h:
                    self._normal_basis = tuple(map(top.element, conj))
                    break
            else:
                raise InvariantError("no normal element found")
        return self._normal_basis

    def normal_coords(self, x):
        """Coordinates of a top element in the normal basis, as base elements.

        Returns (c_0, ..., c_{h-1}) with x = sum lift(c_i) * omega^(q^i).
        """
        if x.field is not self.top:
            raise FieldMismatchError("normal_coords expects a top-level element")
        return tuple(map(self.base.element, self.normal_ints(x.val)))

    def normal_ints(self, v):
        """:meth:`normal_coords` on encodings: the base encodings of the
        normal-basis coordinates of the top element encoded by v.

        The coordinates are F_p-linear in the base-p digits of v, so v is
        read in chunks of digits, each chunk looks up the coordinates it
        contributes, and the contributions are added in the base field.
        """
        add = self.base.add
        coords = None
        for table in self._coord_tables():
            v, u = divmod(v, len(table))
            part = table[u]
            coords = part if coords is None else tuple(map(add, coords, part))
        return coords

    def normal_lookup(self):
        """:meth:`normal_ints` as one callable for many entries: the
        lookup of the one chunk table when the top field fits in one
        chunk (every top of at most 256 elements), else
        :meth:`normal_ints` itself."""
        tables = self._coord_tables()
        return tables[0].__getitem__ if len(tables) == 1 else self.normal_ints

    def _coord_tables(self):
        """The chunk tables of :meth:`normal_ints`, built on first use.
        Table j maps a chunk value u at digit offset o_j to the coordinates
        of the top element u * p^o_j.  A chunk spans as many base-p digits
        as fit in 256 values."""
        if self._coord_lookup is not None:
            return self._coord_lookup
        p, e, h = self.p, self.e, self.h
        top, fp = self.top, GF.get(p, 1)
        # column (m, a): the digits of omega_m times the base monomial p^a
        cols = [top.digits(top.mul(self.embed_table[p ** a], w.val))
                for w in self.normal_basis() for a in range(e)]
        # column i of the inverse: the coordinates of the top element p^i
        inv = linalg.inverse_ints(fp, list(zip(*cols)))
        unit = [tuple(self.base.encode(col[m * e:(m + 1) * e]) for m in range(h))
                for col in zip(*inv)]
        add = self.base.add
        width = 1
        while p ** (width + 1) <= 256:
            width += 1
        tables = []
        for offset in range(0, e * h, width):
            # entry u + d*p^i is entry u + (d-1)*p^i plus the coordinates
            # of p^(offset+i)
            table = [(0,) * h]
            for c in unit[offset:offset + width]:
                size = len(table)
                for _ in range(p - 1):
                    table += [tuple(map(add, t, c)) for t in table[-size:]]
            tables.append(table)
        self._coord_lookup = tables
        return tables

    def dual_basis(self, basis):
        """Trace-dual of an F_q-basis of the top field."""
        h = self.h
        if len(basis) != h:
            raise ValueError("basis must have %d elements" % h)
        gram = [[self.rel_trace(basis[i] * basis[j]).val for j in range(h)]
                for i in range(h)]
        try:
            ginv = [self.base.wrap(r) for r in linalg.inverse_ints(self.base, gram)]
        except linalg.SingularMatrixError:
            raise ValueError("elements are not an F_q-basis") from None
        dual = []
        for j in range(h):
            acc = self.lift(ginv[0][j]) * basis[0]
            for i in range(1, h):
                acc = acc + self.lift(ginv[i][j]) * basis[i]
            dual.append(acc)
        return tuple(dual)


def tower(p, e, h):
    """The interned tower GF(p^e) < GF(p^(e*h))."""
    return FieldTower.get(p, e, h)


# ---------------------------------------------------------------------------
# polynomials over a field

class Poly:
    """Polynomial with coefficients in one field, low degree first."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        cs = list(coeffs)
        for c in cs:
            if not isinstance(c, FieldElement) or c.field is not field:
                raise FieldMismatchError("coefficient %r not in %r" % (c, field))
        while cs and not cs[-1]:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    @classmethod
    def from_ints(cls, field, ints):
        return cls(field, [field(v) for v in ints])

    @classmethod
    def zero(cls, field):
        return cls(field, [])

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def coefficient(self, i):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.field.zero

    def evaluate(self, x, tow=None):
        """Horner evaluation; with ``tow`` given, base coefficients may be
        evaluated at a top-field point."""
        if x.field is self.field:
            coeffs = self.coeffs
            zero = self.field.zero
        elif tow is not None and self.field is tow.base and x.field is tow.top:
            coeffs = tuple(tow.lift(c) for c in self.coeffs)
            zero = tow.top.zero
        else:
            raise FieldMismatchError("cannot evaluate %r at %r" % (self, x))
        acc = zero
        for c in reversed(coeffs):
            acc = acc * x + c
        return acc

    def __add__(self, other):
        if other.field is not self.field:
            raise FieldMismatchError("polynomial field mismatch")
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(self.field,
                    [self.coefficient(i) + other.coefficient(i) for i in range(n)])

    def __mul__(self, other):
        if other.field is not self.field:
            raise FieldMismatchError("polynomial field mismatch")
        if not self.coeffs or not other.coeffs:
            return Poly.zero(self.field)
        out = [self.field.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] = out[i + j] + a * b
        return Poly(self.field, out)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.field is other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((id(self.field), self.coeffs))

    def __repr__(self):
        return "Poly(%r, %s)" % (self.field, [c.val for c in self.coeffs])
