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

from . import linalg

_TABLE_LIMIT = 1 << 16      # exp/log tables up to this field order
_ADD_TABLE_LIMIT = 512      # full addition tables (odd p) up to this order


class FieldMismatchError(ValueError):
    """Raised when elements of different fields or levels are mixed."""


class InvariantError(AssertionError):
    """Raised when a mathematical invariant the code relies on fails, such
    as the Thas bound or a rationalization rank: a fault in the program,
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
    For n >= 2 a candidate with c_0 = 0 is divisible by x, so it is
    skipped without the Rabin test.
    """
    import itertools

    for tail in itertools.product(range(p), repeat=n):
        if n >= 2 and tail[0] == 0:
            continue
        f = list(tail) + [1]
        if is_irreducible(f, p):
            return tuple(f)
    raise AssertionError("no irreducible of degree %d over F_%d" % (n, p))


# ---------------------------------------------------------------------------
# single fields

class GF:
    """The field with p^m elements, integer-encoded.

    Do not construct directly; use :meth:`get` so that equal parameters
    always yield the identical object (element identity checks and caches
    rely on interning).
    """

    _cache = {}

    def __init__(self, p, m):
        self.p = p
        self.m = m
        self.order = p ** m
        self.modulus = smallest_irreducible(p, m)
        self._gorder = self.order - 1
        self._exp = None
        self._log = None
        self._add_table = None
        if self.order <= _TABLE_LIMIT:
            self._build_mul_tables()
        if p > 2 and m > 1 and self.order <= _ADD_TABLE_LIMIT:
            self._build_add_table()
        self.sub_scaled, self.scaled = self._row_ops()
        self.zero = FieldElement(self, 0)
        self.one = FieldElement(self, 1)

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
        gen = self._find_primitive()
        exp = [0] * max(self._gorder, 1)
        log = [0] * self.order
        v = 1
        for i in range(self._gorder):
            exp[i] = v
            log[v] = i
            v = self._raw_mul(v, gen)
        # doubled, so a sum of two logs indexes it without reduction
        self._exp = exp + exp
        self._log = log

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
        return FieldElement(self, self._primitive)

    def _build_add_table(self):
        p, order = self.p, self.order
        digs = [self.digits(v) for v in range(order)]
        enc = self.encode
        table = []
        for a in range(order):
            da = digs[a]
            row = [enc(tuple((x + y) % p for x, y in zip(da, digs[b])))
                   for b in range(order)]
            table.append(row)
        self._add_table = table

    def _row_ops(self):
        """Int row operations for linalg: ``sub_scaled(v, c, b)`` is
        v - c*b and ``scaled(c, b)`` is c*b, for rows v, b of encodings
        and a nonzero scalar c.  They branch like add/sub/mul, but once
        per row instead of once per entry."""
        p, exp, log, add = self.p, self._exp, self._log, self._add_table
        if self.m == 1:
            def sub_scaled(v, c, b):
                return [(x - c * y) % p for x, y in zip(v, b)]

            def scaled(c, b):
                return [c * y % p for y in b]
        elif exp is not None and (p == 2 or add is not None):
            g = self._gorder
            if p == 2:
                def sub_scaled(v, c, b):
                    lc = log[c]
                    return [x ^ exp[lc + log[y]] if y else x
                            for x, y in zip(v, b)]
            else:
                def sub_scaled(v, c, b):
                    lc = (log[c] + g // 2) % g  # log(-c): -1 is exp[g/2]
                    return [add[x][exp[lc + log[y]]] if y else x
                            for x, y in zip(v, b)]

            def scaled(c, b):
                lc = log[c]
                return [exp[lc + log[y]] if y else 0 for y in b]
        else:
            sub, mul = self.sub, self.mul

            def sub_scaled(v, c, b):
                return [sub(x, mul(c, y)) for x, y in zip(v, b)]

            def scaled(c, b):
                return [mul(c, y) for y in b]
        return sub_scaled, scaled

    def add(self, a, b):
        if self.p == 2:
            return a ^ b
        if self.m == 1:
            return (a + b) % self.p
        if self._add_table is not None:
            return self._add_table[a][b]
        p = self.p
        return self.encode(tuple((x + y) % p
                                 for x, y in zip(self.digits(a), self.digits(b))))

    def neg(self, a):
        if self.p == 2:
            return a
        if self.m == 1:
            return (-a) % self.p
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
        if isinstance(v, bool) or not isinstance(v, int):
            raise TypeError("element value must be an int encoding")
        if not 0 <= v < self.order:
            raise ValueError("encoding %d out of range for %r" % (v, self))
        return FieldElement(self, v)

    def elements(self):
        for v in range(self.order):
            yield FieldElement(self, v)

    def generator(self):
        """The canonical generator: the class of x (encoding p) for m > 1."""
        return FieldElement(self, self.p if self.m > 1 else 0)


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
        return FieldElement(self.field, self.field.add(self.val, other.val))

    def __sub__(self, other):
        self._check(other)
        return FieldElement(self.field, self.field.sub(self.val, other.val))

    def __neg__(self):
        return FieldElement(self.field, self.field.neg(self.val))

    def __mul__(self, other):
        self._check(other)
        return FieldElement(self.field, self.field.mul(self.val, other.val))

    def __truediv__(self, other):
        self._check(other)
        return FieldElement(self.field,
                            self.field.mul(self.val, self.field.inv(other.val)))

    def __pow__(self, n):
        return FieldElement(self.field, self.field.pow(self.val, n))

    def inverse(self):
        return FieldElement(self.field, self.field.inv(self.val))

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
    embedding completely.
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
        self._embed_table = self._build_embed_table()
        self._unembed = {t: b for b, t in enumerate(self._embed_table)}
        self._omega = None
        self._coord_matrix_inv = None

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
                return FieldElement(top, v)
        raise AssertionError("base modulus has no root in the top field")

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
        return FieldElement(self.top, self._embed_table[x.val])

    def to_base(self, x):
        """Inverse of lift; raises when x is outside the embedded base field."""
        if x.field is not self.top:
            raise FieldMismatchError("to_base expects a top-level element")
        b = self._unembed.get(x.val)
        if b is None:
            raise ValueError("element %r is not in the embedded base field" % x)
        return FieldElement(self.base, b)

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
            raise AssertionError("trace value escaped the base subfield")
        return FieldElement(self.base, b)

    def in_proper_subfield(self, x):
        """True iff x lies in GF(q^d) for some proper divisor d of h."""
        if x.field is not self.top:
            raise FieldMismatchError("in_proper_subfield expects a top-level element")
        for d in range(1, self.h):
            if self.h % d == 0 and x ** (self.q ** d) == x:
                return True
        return False

    def normal_element(self):
        """Smallest-encoded omega whose conjugates form a base-field basis.

        Independence of omega, omega^q, ..., omega^(q^(h-1)) over GF(q) is
        tested through the h x h matrix of conjugates [omega^(q^(i+j mod h))],
        nonsingular exactly in the normal case.
        """
        if self._omega is not None:
            return self._omega
        h, q, top = self.h, self.q, self.top
        for v in range(1, top.order):
            w = FieldElement(top, v)
            conj = [w ** (q ** i) for i in range(h)]
            mat = [[conj[(i + j) % h] for j in range(h)] for i in range(h)]
            if linalg.det(mat):
                self._omega = w
                return w
        raise AssertionError("no normal element found")

    def normal_basis(self):
        """(omega, omega^q, ..., omega^(q^(h-1))) for the canonical omega."""
        w = self.normal_element()
        return tuple(w ** (self.q ** i) for i in range(self.h))

    def normal_coords(self, x):
        """Coordinates of a top element in the normal basis, as base elements.

        Returns (c_0, ..., c_{h-1}) with x = sum lift(c_i) * omega^(q^i).
        The F_p digits of x go through the int solver rows and are reduced
        mod p once per coordinate.
        """
        if x.field is not self.top:
            raise FieldMismatchError("normal_coords expects a top-level element")
        p, e, base = self.p, self.e, self.base
        digs = self.top.digits(x.val)
        y = [sum(a * d for a, d in zip(row, digs)) % p
             for row in self._coord_solver()]
        return tuple(FieldElement(base, base.encode(y[m * e:(m + 1) * e]))
                     for m in range(self.h))

    def _coord_solver(self):
        """Int rows over F_p mapping the digits of a top element to its
        normal-basis coordinates, e digits per base coordinate."""
        if self._coord_matrix_inv is not None:
            return self._coord_matrix_inv
        fp = GF.get(self.p, 1)
        basis = self.normal_basis()
        cols = []
        for m in range(self.h):
            for a in range(self.e):
                g_a = FieldElement(self.base, self.base.encode(
                    tuple(1 if i == a else 0 for i in range(self.e))))
                z = self.lift(g_a) * basis[m]
                cols.append([FieldElement(fp, d) for d in self.top.digits(z.val)])
        mat = [[cols[j][i] for j in range(len(cols))] for i in range(self.e * self.h)]
        self._coord_matrix_inv = [[v.val for v in row]
                                  for row in linalg.inverse(mat)]
        return self._coord_matrix_inv

    def dual_basis(self, basis):
        """Trace-dual of an F_q-basis of the top field."""
        h = self.h
        if len(basis) != h:
            raise ValueError("basis must have %d elements" % h)
        gram = [[self.rel_trace(basis[i] * basis[j]) for j in range(h)]
                for i in range(h)]
        try:
            ginv = linalg.inverse(gram)
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

    def derivative(self, order=1):
        """Formal derivative, iterated ``order`` times."""
        if order < 0:
            raise ValueError("derivative order must be >= 0")
        cur = self
        field = self.field
        for _ in range(order):
            cs = []
            for i in range(1, len(cur.coeffs)):
                scalar = field(i % field.p)
                cs.append(scalar * cur.coeffs[i])
            cur = Poly(field, cs)
        return cur

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
