"""Exact scalar arithmetic: prime fields, small Galois extensions, and Q.

Galois field elements are encoded as integers in ``range(q)`` whose base-p
digits are the coefficients of the residue polynomial in the canonical
generator (little-endian).  Rational scalars are ``fractions.Fraction``.
Supported extensions: p in {2, 3, 5, 7}, degree <= 4.

List rows go through ``row_sub`` (v - f*row) and ``row_scale`` (c*v),
one branch per field kind: ints mod p, Fractions, or tables on F_{p^e}.
In characteristic 2 adding labels is XOR, so ``Subspace`` packs rows of
8e or more entries (Parker's Meat-Axe, bit-sliced as in arXiv:0901.1413)
into e ints: bit j of plane i is bit i of entry j.  f*row maps the
planes by the GF(2) matrix of f, whose column i is the label of f*x^i.
"""

import threading
from fractions import Fraction

SUPPORTED_PRIMES = (2, 3, 5, 7)
MAX_DEGREE = 4

# Primitive monic modulus for F_{p^e}, as little-endian coefficient tuples
# (constant term first, leading coefficient omitted).  First monic polynomial
# in lexicographic coefficient order that is primitive; fixed here so element
# encodings never change between runs.
_MODULUS_TABLE = {
    (2, 2): (1, 1),
    (2, 3): (1, 0, 1),
    (2, 4): (1, 0, 0, 1),
    (3, 2): (2, 1),
    (3, 3): (1, 0, 2),
    (3, 4): (2, 0, 0, 1),
    (5, 2): (2, 1),
    (5, 3): (2, 0, 1),
    (5, 4): (2, 0, 2, 1),
    (7, 2): (3, 1),
    (7, 3): (2, 1, 1),
    (7, 4): (3, 0, 1, 1),
}

_TABLE_LIMIT = 1024  # cache full add tables only for small fields


class FieldError(ValueError):
    pass


class CapExceeded(ValueError):
    """A computation would exceed a size cap (CLI exit code 3)."""


class Field:
    """A coefficient field: F_p, F_{p^e}, or Q.

    Instances are interned: ``Field.galois(p, e)`` returns the same object
    for the same parameters, so identity comparison is safe.
    """

    _cache = {}
    _cache_lock = threading.Lock()

    def __init__(self, char, degree, _token=None):
        if _token is not Field._cache:
            raise FieldError("use Field.prime / Field.galois / Field.rationals")
        self.char = char
        self.degree = degree
        self.packed = char == 2  # Subspace may keep packed rows
        if char == 0:
            self.kind = "rational"
            self.order = None
            self.zero = Fraction(0)
            self.one = Fraction(1)
            return
        p, e = char, degree
        self.order = p ** e
        self.kind = "prime" if e == 1 else "galois"
        self.zero, self.one = 0, 1
        if e > 1:
            self._galois_tables()
        if p == 2:
            # packed rows: per plane i, translations between labels and the
            # b"0"/b"1" of their bit i; per c, the (k, i) with bit k of c*x^i
            self._pack_tables = [bytes(48 + (b >> i & 1) for b in range(256))
                                 for i in range(e)]
            self._unpack_tables = [bytes.maketrans(b"01", bytes([0, 1 << i]))
                                   for i in range(e)]
            self._plane_maps = [[(k, i) for i in range(e) for k in range(e)
                                 if self.mul(c, 1 << i) >> k & 1]
                                for c in range(self.order)]

    def _galois_tables(self):
        """Digits, exp/log, negation and (when small) addition tables."""
        p, e = self.char, self.degree
        self.modulus = _MODULUS_TABLE[(p, e)]
        q = self.order
        # digit decomposition tables
        self._digits = [self._int_digits(a) for a in range(q)]
        # exp/log via the primitive element x (encoded as integer p)
        exp = [0] * (q - 1)
        log = [0] * q
        acc = [1] + [0] * (e - 1)
        for k in range(q - 1):
            v = self._digits_int(acc)
            exp[k] = v
            log[v] = k
            # times x: shift up one degree, subtract lead * modulus mod p
            lead = acc[-1]
            acc = [(a - lead * c) % p
                   for a, c in zip([0] + acc[:-1], self.modulus)]
        self._exp = exp
        self._log = log
        self._neg = [self._digits_int([(-x) % p for x in d])
                     for d in self._digits]
        self._mul_rows = {}
        if q <= _TABLE_LIMIT:
            self._add_table = [
                [self._add_digits(a, b) for b in range(q)] for a in range(q)
            ]
        else:
            self._add_table = None

    # -- constructors ----------------------------------------------------

    @staticmethod
    def prime(p):
        return Field.galois(p, 1)

    @staticmethod
    def galois(p, e):
        # ints only: 3.0 == 3 would otherwise intern a field F_3.0
        f = Field._cache.get((p, e)) if type(p) is type(e) is int else None
        if f is None:
            if type(p) is not int or p not in SUPPORTED_PRIMES:
                raise FieldError(f"unsupported characteristic {p!r}")
            if type(e) is not int or not 1 <= e <= MAX_DEGREE:
                raise FieldError(f"unsupported extension degree {e!r}")
            f = Field._intern(p, e)
        return f

    @staticmethod
    def rationals():
        f = Field._cache.get((0, 1))
        return f if f is not None else Field._intern(0, 1)

    @staticmethod
    def _intern(char, degree):
        # one lock around check-and-build, so threads that meet a field
        # for the first time at once still share a single object
        with Field._cache_lock:
            f = Field._cache.get((char, degree))
            if f is None:
                f = Field(char, degree, _token=Field._cache)
                Field._cache[(char, degree)] = f
        return f

    @staticmethod
    def of_order(q):
        """The field with q elements (q a supported prime power)."""
        try:
            p, e = prime_power(q)
        except ValueError:
            raise FieldError(f"no supported field of order {q}") from None
        return Field.galois(p, e)

    # -- helpers ---------------------------------------------------------

    def _int_digits(self, a):
        p = self.char
        return tuple((a // p ** i) % p for i in range(self.degree))

    def _digits_int(self, digits):
        p = self.char
        v = 0
        for i in range(self.degree - 1, -1, -1):
            v = v * p + digits[i]
        return v

    def _add_digits(self, a, b):
        p = self.char
        da, db = self._digits[a], self._digits[b]
        return self._digits_int([(x + y) % p for x, y in zip(da, db)])

    # -- arithmetic ------------------------------------------------------

    def add(self, a, b):
        k = self.kind
        if k == "prime":
            return (a + b) % self.char
        if k == "rational":
            return a + b
        if self._add_table is not None:
            return self._add_table[a][b]
        return self._add_digits(a, b)

    def neg(self, a):
        k = self.kind
        if k == "prime":
            return (-a) % self.char
        if k == "rational":
            return -a
        return self._neg[a]

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        k = self.kind
        if k == "prime":
            return (a * b) % self.char
        if k == "rational":
            return a * b
        if a == 0 or b == 0:
            return 0
        q1 = self.order - 1
        return self._exp[(self._log[a] + self._log[b]) % q1]

    def inv(self, a):
        if a == self.zero:
            raise ZeroDivisionError("field inverse of zero")
        k = self.kind
        if k == "prime":
            return pow(a, self.char - 2, self.char)
        if k == "rational":
            return 1 / Fraction(a)
        q1 = self.order - 1
        return self._exp[(q1 - self._log[a]) % q1]

    # -- row operations --------------------------------------------------

    def row_sub(self, v, f, row):
        """The list v - f*row."""
        k = self.kind
        if k == "prime":
            p = self.char
            return [(a - f * b) % p for a, b in zip(v, row)]
        if k == "rational":
            return [a - f * b for a, b in zip(v, row)]
        nf = self._neg[f]
        add = self._add_table
        if add is None:
            mul, add_digits = self.mul, self._add_digits
            return [add_digits(a, mul(nf, b)) for a, b in zip(v, row)]
        nfb = self._mul_row(nf)
        return [add[a][nfb[b]] for a, b in zip(v, row)]

    def row_scale(self, c, v):
        """The list c*v."""
        k = self.kind
        if k == "prime":
            p = self.char
            return [(c * x) % p for x in v]
        if k == "rational":
            return [c * x for x in v]
        if self._add_table is None:
            mul = self.mul
            return [mul(c, x) for x in v]
        cb = self._mul_row(c)
        return [cb[x] for x in v]

    def _mul_row(self, c):
        """[c*b for b in F], built on first use and cached (fields with an
        add table only).  Two threads racing here build equal lists."""
        t = self._mul_rows.get(c)
        if t is None:
            mul = self.mul
            t = self._mul_rows[c] = [mul(c, b) for b in range(self.order)]
        return t

    # -- packed rows (characteristic 2, module docstring) -----------------

    def pack(self, v):
        """The packed row of the list v of labels."""
        b = bytearray(v)[::-1]
        return [int(b.translate(t) or b"0", 2) for t in self._pack_tables]

    def unpack(self, planes, n):
        """The n entries of a packed row, as a list."""
        acc = 0
        for p, t in zip(planes, self._unpack_tables):
            acc |= int.from_bytes(f"{p:0{n}b}".encode().translate(t), "big")
        return list(acc.to_bytes(n, "little"))

    def packed_entry(self, planes, j):
        """Entry j of a packed row."""
        f = 0
        for p in reversed(planes):
            f = f << 1 | p >> j & 1
        return f

    def pow(self, a, n):
        if n < 0:
            return self.pow(self.inv(a), -n)
        r = self.one
        b = a
        while n:
            if n & 1:
                r = self.mul(r, b)
            b = self.mul(b, b)
            n >>= 1
        return r

    def frobenius(self, a, i=1):
        """x -> x^(p^i)."""
        if self.kind == "rational":
            return a
        return self.pow(a, self.char ** (i % self.degree))

    def elements(self):
        if self.kind == "rational":
            raise FieldError("Q is infinite")
        return range(self.order)

    def gen(self):
        """A multiplicative generator (the residue of x for extensions)."""
        if self.kind == "rational":
            return Fraction(2)
        if self.kind == "prime":
            for g in range(2, self.char):
                if all(pow(g, (self.char - 1) // r, self.char) != 1
                       for r in _prime_divisors(self.char - 1)):
                    return g
            return 1
        return self.char  # the class of x, primitive by table construction

    def from_int(self, n):
        """The image of the integer n under Z -> F."""
        if self.kind == "rational":
            return Fraction(n)
        return int(n) % self.char

    def element(self, label):
        """The element with this label: an int in ``range(q)``, or over Q
        any rational; ValueError for anything else."""
        if self.kind == "rational":
            return Fraction(label)
        if type(label) is int and 0 <= label < self.order:
            return label
        raise ValueError(f"{label!r} is not an element label of "
                         f"{self.label()}: give an int in range({self.order})")

    def to_coeffs(self, a):
        """Element as a coefficient vector over the prime field."""
        if self.kind == "rational":
            raise FieldError("rationals have no coefficient vector")
        if self.kind == "prime":
            return (a,)
        return self._digits[a]

    def from_coeffs(self, coeffs):
        if self.kind == "rational":
            raise FieldError("rationals have no coefficient vector")
        coeffs = [c % self.char for c in coeffs]
        if self.kind == "prime":
            return coeffs[0]
        return self._digits_int(coeffs)

    # -- subfields and embeddings ---------------------------------------

    def contains_subfield(self, other):
        return (other.kind != "rational" and self.kind != "rational"
                and other.char == self.char
                and self.degree % other.degree == 0)

    def embedding_from(self, sub):
        """The canonical embedding sub -> self.

        Sends the canonical generator of ``sub`` to the first root (in
        element order) of its modulus whose induced map is a homomorphism;
        deterministic across runs.
        """
        if sub is self:
            return lambda a: a
        if not self.contains_subfield(sub):
            raise FieldError("not a subfield")
        if sub.degree == 1:
            return lambda a, K=self: a % K.char
        mod = list(sub.modulus) + [1]
        root = None
        for x in self.elements():
            acc = self.zero
            for c in reversed(mod):
                acc = self.add(self.mul(acc, x), c % self.char)
            if acc == self.zero:
                root = x
                break
        assert root is not None
        powers = [self.pow(root, i) for i in range(sub.degree)]

        def emb(a, sub=sub, K=self, powers=powers):
            v = K.zero
            for c, w in zip(sub.to_coeffs(a), powers):
                v = K.add(v, K.mul(c % K.char, w))
            return v
        return emb

    # -- misc ------------------------------------------------------------

    def label(self):
        if self.kind == "rational":
            return "Q"
        return f"F_{self.order}"

    def __repr__(self):
        return f"Field({self.label()})"


def prime_power(q):
    """(p, e) with q = p^e, e >= 1, for p the least supported prime that
    divides q; ValueError when there is none or q is not a power of it."""
    for p in SUPPORTED_PRIMES:
        if q > 1 and q % p == 0:
            n, e = q, 0
            while n % p == 0:
                n //= p
                e += 1
            if n != 1:
                raise ValueError(f"{q} is not a prime power")
            return p, e
    raise ValueError(f"unsupported prime-power {q}")


def _prime_divisors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


QQ = Field.rationals()
