"""Finite commutative rings given as products of Z/m and F_{p^e} components.

Spec strings look like ``"Z/6"``, ``"F_4"`` or ``"Z/4xF_9"`` (components
joined by 'x').  An element is its label, an int in ``range(|A|)``: the
tuples of component values (a residue for Z/m, an element label for
F_q), numbered with the last component fastest.  So ``elements()`` is
``range(|A|)``, and for a single component the label is the component
value itself.  Arithmetic works per component on the label, or is the
component's own when there is only one; the component tuple of a label
(``FiniteRing.parts``) is read only here and where text is printed.

``RingMap`` is the one map from a ring to a field: a value table on the
labels.  ``ring_homs`` returns the ring homomorphisms in that form, and
``emlpoly`` factors multiplicative maps given in it.

``monoid_closure`` is the one closure routine of the package: ideals and
``RingMap.check_multiplicative`` here and ``modtools.monoid_actions`` are
its callers.  The last gives the action of every element of M_n(A) in
``functorcat``, the powered generators of ``modtools.frobenius_twist``
and the permutation matrices of S_d-modules in
``schurfun.elementary_value``.
"""

from collections import deque
from functools import cached_property
from itertools import product
from math import gcd, lcm

from .fields import Field


class RingError(ValueError):
    pass


class NotMultiplicative(RingError):
    pass


class _CyclicComponent:
    """The ring Z/m."""

    def __init__(self, m):
        if m < 2:
            raise RingError("cyclic component needs modulus >= 2")
        self.m = m
        self.order = m
        self.char = m
        self.zero = 0
        self.one = 1 % m

    def add(self, a, b):
        return (a + b) % self.m

    def neg(self, a):
        return (-a) % self.m

    def mul(self, a, b):
        return (a * b) % self.m

    def label(self):
        return f"Z/{self.m}"


def _parse_component(token):
    """Z/m, or the Field F_q itself."""
    token = token.strip()
    if token.startswith("Z/"):
        return _CyclicComponent(int(token[2:]))
    if token.startswith("F_"):
        return Field.of_order(int(token[2:]))
    raise RingError(f"cannot parse ring component {token!r}")


class FiniteRing:
    """A finite product of cyclic rings and Galois fields, its elements
    labelled 0..|A|-1 (module docstring)."""

    def __init__(self, spec):
        self.components = [_parse_component(t) for t in spec.split("x")]
        self.size = 1
        for c in self.components:
            self.size *= c.order
        if len(self.components) == 1:
            # the label is the component value
            c, = self.components
            self.add, self.neg, self.mul = c.add, c.neg, c.mul
            self.scalar = lambda n, a: c.mul(n % c.char, a)
        self.zero = self.label_of([c.zero for c in self.components])
        self.one = self.label_of([c.one for c in self.components])

    def label(self):
        return "x".join(c.label() for c in self.components)

    def __repr__(self):
        return f"FiniteRing({self.label()})"

    def __eq__(self, other):
        return isinstance(other, FiniteRing) and self.label() == other.label()

    def __hash__(self):
        return hash(self.label())

    # -- labels and their arithmetic -------------------------------------

    def parts(self, a):
        """The component values of the element labelled a."""
        out = []
        for c in reversed(self.components):
            a, v = divmod(a, c.order)
            out.append(v)
        return tuple(reversed(out))

    def label_of(self, parts):
        """The label of the element with these component values."""
        a = 0
        for c, v in zip(self.components, parts):
            a = a * c.order + v
        return a

    def embed(self, i, v):
        """The label of the element with value v in component i and 0 in
        the others."""
        return self.label_of([v if j == i else c.zero
                              for j, c in enumerate(self.components)])

    def add(self, a, b):
        return self.label_of([c.add(x, y) for c, x, y in zip(
            self.components, self.parts(a), self.parts(b))])

    def neg(self, a):
        return self.label_of([c.neg(x) for c, x in
                              zip(self.components, self.parts(a))])

    def mul(self, a, b):
        return self.label_of([c.mul(x, y) for c, x, y in zip(
            self.components, self.parts(a), self.parts(b))])

    def elements(self):
        return range(self.size)

    @cached_property
    def cayley_tables(self):
        """(add, mul) as lists: a + b and a * b at [a][b].  Built on first
        use, so only for rings small enough to list (``functorcat``)."""
        els = self.elements()
        return tuple([[op(a, b) for b in els] for a in els]
                     for op in (self.add, self.mul))

    @cached_property
    def monoid_generators(self):
        """A tuple S generating (A, *) as a monoid, grown greedily: in
        label order, a joins S when the closure of {1} under left
        multiplication by S has not reached it.  0 comes first and is not
        1, so S holds it."""
        gens, reached = [], {self.one}
        for a in self.elements():
            if a not in reached:
                gens.append(a)
                reached.add(a)
                reached.update([y for y, _, _ in
                                monoid_closure(self.mul, reached, gens)])
        return tuple(gens)

    def as_field(self):
        """The Field this ring is, when it is a single F_q component."""
        if len(self.components) != 1 or \
                not isinstance(self.components[0], Field):
            raise RingError(f"need a finite field F_q, got {self.label()}")
        return self.components[0]

    def is_unit(self, a):
        return any(self.mul(a, b) == self.one for b in self.elements())

    def scalar(self, n, a):
        """Additive n-fold multiple of a: in each component, the product
        with n·1, whose label is n mod the characteristic (a label below
        p is its own constant coefficient on F_{p^e})."""
        return self.label_of([c.mul(n % c.char, x) for c, x in
                              zip(self.components, self.parts(a))])

    def additive_generators(self):
        """Elements whose additive multiples span each component: the
        component unit vectors times field coefficient-basis elements."""
        gens = []
        for i, c in enumerate(self.components):
            if isinstance(c, _CyclicComponent):
                basis = [c.one]
            else:
                basis = [c.from_coeffs([1 if j == k else 0
                                        for j in range(c.degree)])
                         for k in range(c.degree)]
            gens.extend(self.embed(i, b) for b in basis)
        return gens


class RingIdeal:
    """An ideal, materialized as a frozen element set."""

    def __init__(self, ring, generators):
        self.ring = ring
        self.generators = list(generators)
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
        return a in self.elements

    def __eq__(self, other):
        return (isinstance(other, RingIdeal) and self.ring == other.ring
                and self.elements == other.elements)

    def __hash__(self):
        return hash((self.ring, self.elements))

    def __le__(self, other):
        return self.elements <= other.elements

    def __repr__(self):
        return (f"RingIdeal({self.ring.label()}, "
                f"{self.size} elements)")


def all_ideals(ring):
    """Every ideal of the ring (product of componentwise ideals; each
    component is a chain ring, so componentwise ideals are principal)."""
    per_component = []
    for c in ring.components:
        if isinstance(c, Field):
            per_component.append([c.zero, c.one])
        else:
            per_component.append(sorted({gcd(a, c.m) % c.m
                                         for a in range(c.m)} | {0}))
    out = []
    seen = set()
    for combo in product(*per_component):
        I = RingIdeal(ring, [ring.embed(i, g) for i, g in enumerate(combo)])
        if I.elements not in seen:
            seen.add(I.elements)
            out.append(I)
    return out


class RingMap:
    """A set map from a FiniteRing to a Field, held as its value table on
    the labels: the ring homomorphisms of ``ring_homs``, and the
    multiplicative maps that ``emlpoly.factor_multiplicative`` factors."""

    def __init__(self, ring, field, table=None, func=None):
        self.ring = ring
        self.field = field
        if table is None:
            table = {a: func(a) for a in ring.elements()}
        self.table = dict(table)

    def __call__(self, a):
        return self.table[a]

    def check_multiplicative(self):
        """f(1) = 1 and f(s*b) = f(s)f(b) for every b and every s in a set
        S that generates (A, *) as a monoid; writing a as a word in S gives
        f(ab) = f(a)f(b) by induction on its length (S is
        ``FiniteRing.monoid_generators``).  A failure names the first
        failing pair a * b."""
        R, K = self.ring, self.field
        if self(R.one) != K.one:
            raise NotMultiplicative("does not send 1 to 1")
        els, gens = R.elements(), R.monoid_generators
        if all(self(R.mul(s, b)) == K.mul(self(s), self(b))
               for s in gens for b in els):
            return
        for a in els:
            for b in els:
                if self(R.mul(a, b)) != K.mul(self(a), self(b)):
                    raise NotMultiplicative(f"fails at {a} * {b}")

    def as_abmap(self):
        """The same table as an ``emlpoly.AbMap`` on the additive group of
        the ring, which is the ring itself, for degree computations."""
        from .emlpoly import AbMap  # emlpoly imports this module
        return AbMap(self.ring, self.field, table=self.table)

    def __repr__(self):
        return f"RingMap({self.ring.label()} -> {self.field.label()})"


def ring_homs(ring, field):
    """All unital ring homomorphisms ring -> field, as ``RingMap``s.

    Any such map kills every component but one (the component idempotents
    map to orthogonal idempotents of a field, so exactly one maps to 1),
    so we search componentwise: cyclic Z/m components give the reduction
    map when char(field) | m; field components F_q give one hom per root
    of their defining polynomial in the target.  No two tables agree:
    they differ on the idempotents across components, and distinct
    Frobenius powers differ on the field generator.
    """
    if field.kind == "rational":
        raise RingError("ring_homs expects a finite target field")
    return [RingMap(ring, field, func=lambda a: phi(ring.parts(a)[i]))
            for i, c in enumerate(ring.components)
            for phi in _component_homs(c, field)]


def _component_homs(comp, field):
    if isinstance(comp, _CyclicComponent):
        if comp.m % field.char != 0:
            return []
        return [field.from_int]
    if comp.char != field.char or field.degree % comp.degree != 0:
        return []
    # homs F_q -> K = embeddings = canonical embedding composed with the
    # Frobenius powers of the source
    emb = field.embedding_from(comp)
    return [lambda a, i=i: emb(comp.frobenius(a, i))
            for i in range(comp.degree)]


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
    exponent = lcm(*[c.char for c in ring.components])
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
        e = ring.scalar(m_cop * inv, ring.one)
        out.append((p, e))
    return out


def ring_identity(ring, n):
    """The n x n identity matrix over the ring, as a tuple of row tuples."""
    return tuple(tuple(ring.one if i == j else ring.zero
                       for j in range(n)) for i in range(n))


def matrix_monoid_generators(ring, n):
    """Generators of the multiplicative monoid M_n(A), identity first:
    diag(s, 1, ..., 1) for s in ``ring.monoid_generators`` (s = 0 gives
    the corank-one idempotent), e_01(r) for r in ``additive_generators``,
    the swap (0 1) and, for n >= 3, the n-cycle.  The diag(s, 1, ..., 1)
    give every diag(a, 1, ..., 1), e_01(r) e_01(r') = e_01(r + r') gives
    every e_01(x), the two permutations generate S_n, and P e_01(x) P^-1
    with P^-1 = P^k gives every e_ij(x); row and column operations by
    these bring any matrix over a finite commutative ring to diagonal
    form.  Matrices are tuples of row tuples of ring elements."""
    if n < 1:
        raise RingError(f"rank n must be >= 1, got {n}")
    one, zero = ring.one, ring.zero

    def mat(fn):
        return tuple(tuple(fn(i, j) for j in range(n)) for i in range(n))

    gens = [ring_identity(ring, n)]
    gens += [mat(lambda i, j, s=s: (s if i == 0 else one) if i == j
                 else zero) for s in ring.monoid_generators]
    if n == 1:
        return gens
    gens += [mat(lambda i, j, r=r: one if i == j
                 else (r if (i, j) == (0, 1) else zero))
             for r in ring.additive_generators()]
    perms = [(1, 0) + tuple(range(2, n))]
    if n >= 3:
        perms.append(tuple((i + 1) % n for i in range(n)))
    gens += [mat(lambda i, j, p=p: one if p[i] == j else zero)
             for p in perms]
    return gens


def mat_mul(ring, A, B, cols):
    """Multiply two matrices of ring elements (tuple-of-tuples form) on
    the ring's Cayley tables.  A matrix without rows cannot carry its
    width, so the column count of the product is given; empty shapes (no
    rows, no columns or an empty inner dimension) come out of the same
    loop."""
    add, mul = ring.cayley_tables
    columns = list(zip(*B)) or [()] * cols
    out = []
    for row in A:
        products = [mul[a] for a in row]
        prod = []
        for col in columns:
            acc = ring.zero
            for m, b in zip(products, col):
                acc = add[acc][m[b]]
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
