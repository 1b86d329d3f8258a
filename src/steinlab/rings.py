"""Finite commutative rings given as products of Z/m and F_{p^e} components.

Spec strings look like ``"Z/6"``, ``"F_4"`` or ``"Z/4xF_9"`` (components
joined by 'x').  Elements are tuples of component values: plain residues
for cyclic components, encoded field elements for Galois components.
A ring also labels its elements 0..|A|-1 in ``elements()`` order, with
add and mul tables on the labels, built once per ring instance.

``monoid_closure`` is the one closure routine of the package: ideals here
and ``modtools.monoid_actions`` are its two callers.  The second gives the
action of every element of M_n(A) in ``functorcat``, the powered
generators of ``modtools.frobenius_twist`` and the permutation matrices
of S_d-modules in ``schurfun.elementary_value``.
"""

from collections import deque
from functools import cached_property
from itertools import product
from math import gcd

from .fields import Field


class RingError(ValueError):
    pass


class _CyclicComponent:
    """The ring Z/m."""

    def __init__(self, m):
        if m < 2:
            raise RingError("cyclic component needs modulus >= 2")
        self.m = m
        self.size = m
        self.zero = 0
        self.one = 1 % m

    def add(self, a, b):
        return (a + b) % self.m

    def neg(self, a):
        return (-a) % self.m

    def mul(self, a, b):
        return (a * b) % self.m

    def elements(self):
        return range(self.m)

    def from_int(self, n):
        return n % self.m

    def label(self):
        return f"Z/{self.m}"


class _FieldComponent:
    """A Galois field component, arithmetic delegated to Field."""

    def __init__(self, field):
        self.field = field
        self.size = field.order
        self.zero = field.zero
        self.one = field.one

    def add(self, a, b):
        return self.field.add(a, b)

    def neg(self, a):
        return self.field.neg(a)

    def mul(self, a, b):
        return self.field.mul(a, b)

    def elements(self):
        return self.field.elements()

    def from_int(self, n):
        return self.field.from_int(n)

    def label(self):
        return self.field.label()


def _parse_component(token):
    token = token.strip()
    if token.startswith("Z/"):
        return _CyclicComponent(int(token[2:]))
    if token.startswith("F_"):
        return _FieldComponent(Field.of_order(int(token[2:])))
    raise RingError(f"cannot parse ring component {token!r}")


class FiniteRing:
    """A finite product of cyclic rings and Galois fields."""

    def __init__(self, spec):
        if isinstance(spec, str):
            self.components = [_parse_component(t) for t in spec.split("x")]
        else:
            self.components = list(spec)
        if not self.components:
            raise RingError("empty ring")
        self.size = 1
        for c in self.components:
            self.size *= c.size
        self.zero = tuple(c.zero for c in self.components)
        self.one = tuple(c.one for c in self.components)

    def label(self):
        return "x".join(c.label() for c in self.components)

    def __repr__(self):
        return f"FiniteRing({self.label()})"

    def __eq__(self, other):
        return isinstance(other, FiniteRing) and self.label() == other.label()

    def __hash__(self):
        return hash(self.label())

    # -- element arithmetic (elements are tuples) ------------------------

    def add(self, a, b):
        return tuple(c.add(x, y)
                     for c, x, y in zip(self.components, a, b))

    def neg(self, a):
        return tuple(c.neg(x) for c, x in zip(self.components, a))

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        return tuple(c.mul(x, y)
                     for c, x, y in zip(self.components, a, b))

    def from_int(self, n):
        return tuple(c.from_int(n) for c in self.components)

    def elements(self):
        return [tuple(v) for v in
                product(*[c.elements() for c in self.components])]

    @cached_property
    def index(self):
        """The label of each element: its position in ``elements()``."""
        return {a: i for i, a in enumerate(self.elements())}

    @cached_property
    def label_tables(self):
        """(add, mul): the label of a + b and of a * b at [i][j], for a
        and b labelled i and j."""
        els, index = self.elements(), self.index
        return tuple([[index[op(a, b)] for b in els] for a in els]
                     for op in (self.add, self.mul))

    def is_unit(self, a):
        return any(self.mul(a, b) == self.one for b in self.elements())

    def scalar_mul(self, n, a):
        """Additive n-fold multiple of a."""
        out = self.zero
        x = a if n >= 0 else self.neg(a)
        for _ in range(abs(n)):
            out = self.add(out, x)
        return out

    def additive_generators(self):
        """Elements whose additive multiples span each component: the
        component unit vectors times field coefficient-basis elements."""
        gens = []
        for i, c in enumerate(self.components):
            if isinstance(c, _CyclicComponent):
                basis = [c.one]
            else:
                F = c.field
                basis = [F.from_coeffs([1 if j == k else 0
                                        for j in range(F.degree)])
                         for k in range(F.degree)]
            for b in basis:
                gens.append(tuple(b if j == i else comp.zero
                                  for j, comp in enumerate(self.components)))
        return gens

    def multiplicative_generators(self):
        """A small set of elements generating A as a ring: one generator
        per component (a field generator, or 1 for cyclic parts), embedded
        with 1s elsewhere replaced by the component idempotents."""
        gens = []
        for i, c in enumerate(self.components):
            if isinstance(c, _FieldComponent):
                g = c.field.gen()
            else:
                g = c.one
            gens.append(tuple(g if j == i else comp.zero
                              for j, comp in enumerate(self.components)))
        return gens


class RingIdeal:
    """An ideal, materialized as a frozen element set."""

    def __init__(self, ring, generators):
        self.ring = ring
        self.generators = [tuple(g) for g in generators]
        # the additive span of the multiples r*g
        base = list({ring.mul(r, g) for g in self.generators
                     for r in ring.elements()})
        self.elements = frozenset(
            [ring.zero] + [y for y, _, _ in
                           monoid_closure(ring.add, [ring.zero], base)])

    @property
    def size(self):
        return len(self.elements)

    def quotient_size(self):
        return self.ring.size // self.size

    def contains(self, a):
        return tuple(a) in self.elements

    def __eq__(self, other):
        return (isinstance(other, RingIdeal) and self.ring == other.ring
                and self.elements == other.elements)

    def __hash__(self):
        return hash((self.ring, frozenset(self.elements)))

    def __le__(self, other):
        return self.elements <= other.elements

    def __repr__(self):
        return (f"RingIdeal({self.ring.label()}, "
                f"{self.size} elements)")


def all_ideals(ring):
    """Every ideal of the ring (product of componentwise ideals; each
    component is a chain ring, so componentwise ideals are principal)."""
    per_component = []
    for i, c in enumerate(ring.components):
        gens = []
        if isinstance(c, _FieldComponent):
            gens = [c.zero, c.one]
        else:
            m = c.m
            gens = sorted({gcd(a, m) % m for a in range(m)} | {0})
        per_component.append(gens)
    out = []
    for combo in product(*per_component):
        gen = []
        for i, g in enumerate(combo):
            gen.append(tuple(g if j == i else comp.zero
                             for j, comp in enumerate(ring.components)))
        out.append(RingIdeal(ring, gen))
    # dedupe (field components give the same ideal twice only if 0==1)
    uniq = []
    seen = set()
    for I in out:
        key = I.elements
        if key not in seen:
            seen.add(key)
            uniq.append(I)
    return uniq


class RingHom:
    """A unital ring homomorphism from a FiniteRing into a Field,
    stored as a full value table."""

    def __init__(self, ring, field, table):
        self.ring = ring
        self.field = field
        self.table = dict(table)

    def __call__(self, a):
        return self.table[tuple(a)]

    def __eq__(self, other):
        return (isinstance(other, RingHom) and self.ring == other.ring
                and self.field is other.field and self.table == other.table)

    def __hash__(self):
        return hash((self.ring, self.field,
                     tuple(sorted(self.table.items()))))

    def __repr__(self):
        return f"RingHom({self.ring.label()} -> {self.field.label()})"


def ring_homs(ring, field):
    """All unital ring homomorphisms ring -> field.

    Any such map kills every component but one (the component idempotents
    map to orthogonal idempotents of a field, so exactly one maps to 1),
    so we search componentwise: cyclic Z/m components give the reduction
    map when char(field) | m; field components F_q give one hom per root
    of their defining polynomial in the target.
    """
    if field.kind == "rational":
        raise RingError("ring_homs expects a finite target field")
    out = []
    n = len(ring.components)
    for i, c in enumerate(ring.components):
        for phi in _component_homs(c, field):
            table = {}
            for a in ring.elements():
                table[a] = phi(a[i])
            out.append(RingHom(ring, field, table))
    # dedupe identical tables (cannot actually collide across components)
    uniq = []
    for h in out:
        if h not in uniq:
            uniq.append(h)
    return uniq


def _component_homs(comp, field):
    if isinstance(comp, _CyclicComponent):
        if comp.m % field.char != 0:
            return []
        return [field.from_int]
    Fq = comp.field
    if Fq.char != field.char or field.degree % Fq.degree != 0:
        return []
    # homs F_q -> K = embeddings = canonical embedding composed with the
    # Frobenius powers of the source
    emb = field.embedding_from(Fq)
    homs = []
    for i in range(Fq.degree):
        homs.append(lambda a, i=i, Fq=Fq, emb=emb: emb(Fq.frobenius(a, i)))
    return homs


def cotrivial_ideals(ring, field):
    """Ideals I whose quotient A/I has order invertible in the field
    (every ideal qualifies in characteristic 0), sorted by quotient size."""
    char = field.char
    out = []
    for I in all_ideals(ring):
        q = I.quotient_size()
        if char == 0 or gcd(q, char) == 1:
            out.append(I)
    out.sort(key=lambda I: I.quotient_size())
    return out


def primary_idempotents(ring):
    """Orthogonal idempotents e_p summing to 1, with e_p generating the
    p-primary part of (A, +); returned as (p, element) pairs, p ascending."""
    # additive exponent of the ring
    exponent = 1
    for c in ring.components:
        if isinstance(c, _CyclicComponent):
            m = c.m
        else:
            m = c.field.char
        exponent = exponent * m // gcd(exponent, m)
    primes = []
    n = exponent
    d = 2
    while d * d <= n:
        if n % d == 0:
            primes.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        primes.append(n)
    out = []
    for p in primes:
        pk = 1
        while exponent % (pk * p) == 0:
            pk *= p
        m_cop = exponent // pk
        # e_p = m_cop * (inverse of m_cop mod pk) as an additive multiple of 1
        inv = pow(m_cop, -1, pk)
        e = ring.scalar_mul(m_cop * inv, ring.one)
        out.append((p, e))
    return out


def ring_identity(ring, n):
    """The n x n identity matrix over the ring, as a tuple of row tuples."""
    return tuple(tuple(ring.one if i == j else ring.zero
                       for j in range(n)) for i in range(n))


def matrix_monoid_generators(ring, n):
    """Generators of the multiplicative monoid M_n(A): transvections
    e_{ij}(r) over ring generators, the scalar embeddings diag(a,1,...,1),
    permutation matrices, and the corank-one idempotent diag(1,...,1,0).

    Matrices are tuples of row tuples of ring elements.
    """
    if n < 1:
        raise RingError("rank must be >= 1")
    ident = ring_identity(ring, n)
    gens = []

    def mat(fn):
        return tuple(tuple(fn(i, j) for j in range(n)) for i in range(n))

    # scalar block diag(a, 1, ..., 1) for every ring element a; this covers
    # non-unit diagonal entries (needed e.g. for 2 in Z/4) and absorbs the
    # corank-one idempotent as the a = 0 case
    for a in ring.elements():
        if a == ring.one:
            continue
        gens.append(mat(lambda i, j, a=a:
                        (a if i == 0 else ring.one) if i == j else ring.zero))
    if n == 1:
        return [ident] + gens
    rgens = ring.multiplicative_generators() + ring.additive_generators()
    for r in set(rgens):
        for i in range(n):
            for j in range(n):
                if i != j:
                    gens.append(mat(lambda a, b, i=i, j=j, r=r:
                                    ring.one if a == b
                                    else (r if (a, b) == (i, j)
                                          else ring.zero)))
    # transpositions generate the permutations
    for k in range(n - 1):
        def swap(i, j, k=k):
            pi = list(range(n))
            pi[k], pi[k + 1] = pi[k + 1], pi[k]
            return ring.one if pi[i] == j else ring.zero
        gens.append(mat(swap))
    return [ident] + gens


def mat_mul(ring, A, B, cols):
    """Multiply two matrices of ring elements (tuple-of-tuples form).
    A matrix without rows cannot carry its width, so the column count of
    the product is given; empty shapes (no rows, no columns or an empty
    inner dimension) come out of the same loop."""
    k = len(B)
    out = []
    for row in A:
        prod = []
        for j in range(cols):
            acc = ring.zero
            for t in range(k):
                acc = ring.add(acc, ring.mul(row[t], B[t][j]))
            prod.append(acc)
        out.append(tuple(prod))
    return tuple(out)


def monoid_closure(mul, start, gens):
    """Breadth-first closure of ``start`` under left multiplication by
    ``gens``: yields ``(y, i, x)`` for each element y not in ``start``,
    where y = mul(gens[i], x) and x was reached earlier (or is in
    ``start``).  The caller supplies the product, so the elements may be
    ring matrices, ``Matrix`` objects, permutations or ring elements under
    addition; an action table follows as ``act[y] = gen_act[i] * act[x]``.
    Stop early by leaving the loop."""
    seen = set(start)
    queue = deque(start)
    while queue:
        x = queue.popleft()
        for i, g in enumerate(gens):
            y = mul(g, x)
            if y not in seen:
                seen.add(y)
                queue.append(y)
                yield y, i, x
