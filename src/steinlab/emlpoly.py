"""Polynomial functions between abelian groups in the deviation sense.

The d-th deviation of f: U -> V is

    dev_d(f)(u_1,...,u_d) = sum over subsets I of {1..d} of
                            (-1)^(d-|I|) f(sum of u_i for i in I)

and f is polynomial of degree <= d when dev_{d+1}(f) vanishes
identically.  Sources are finite abelian groups or Z restricted to a
bounded evaluation window W.  There dev_d is tested on arguments in
[-b, b], b = W // d, whose partial sums fill [-d*b, d*b]; it vanishes
exactly when the d-th finite differences of f on [-d*b, d*b] do (Passi,
LNM 715: the (t^u_1 - 1)...(t^u_d - 1) with |u_i| <= b span the same
Z-module as the t^x (t - 1)^d with [x, x + d] inside [-d*b, d*b]).
"""

from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import factorial

from .fields import MAX_DEGREE, Field, QQ
from .matrices import Matrix
from .rings import ring_homs


class WindowOverflow(ValueError):
    pass


class NotPolynomialUpTo:
    """Sentinel: no vanishing deviation was found up to the stated cap."""

    def __init__(self, cap):
        self.cap = cap

    def __eq__(self, other):
        return isinstance(other, NotPolynomialUpTo) and self.cap == other.cap

    def __repr__(self):
        return f"NotPolynomialUpTo({self.cap})"


class AbGroup:
    """A finite product of cyclic groups, or Z with an evaluation window.

    Finite elements are tuples of residues; Z elements are ints with
    absolute value at most the window.
    """

    def __init__(self, orders=None, window=None):
        if window is not None:
            if orders is not None:
                raise ValueError("give cyclic orders or a window, not both")
            if window < 0:
                raise ValueError(f"window must be >= 0, got {window}")
            self.orders = None
            self.window = window
            return
        self.orders = tuple(orders)
        self.window = None
        for m in self.orders:
            if m < 2:
                raise ValueError(f"cyclic orders must be >= 2, got {m}")

    @property
    def is_integers(self):
        return self.orders is None

    @property
    def zero(self):
        return 0 if self.is_integers else tuple(0 for _ in self.orders)

    def add(self, a, b):
        if self.is_integers:
            s = a + b
            if abs(s) > self.window:
                raise WindowOverflow(f"|{s}| exceeds window {self.window}")
            return s
        return tuple((x + y) % m for x, y, m in zip(a, b, self.orders))

    def neg(self, a):
        if self.is_integers:
            return -a
        return tuple((-x) % m for x, m in zip(a, self.orders))

    def scalar(self, n, a):
        if self.is_integers:
            s = n * a
            if abs(s) > self.window:
                raise WindowOverflow(f"|{s}| exceeds window {self.window}")
            return s
        return tuple((n * x) % m for x, m in zip(a, self.orders))

    def elements(self):
        if self.is_integers:
            return list(range(-self.window, self.window + 1))
        return [tuple(v) for v in product(*[range(m) for m in self.orders])]

    def size(self):
        if self.is_integers:
            return None
        n = 1
        for m in self.orders:
            n *= m
        return n

    def label(self):
        if self.is_integers:
            return f"Z[window {self.window}]"
        return "+".join(f"Z/{m}" for m in self.orders)

    def __repr__(self):
        return f"AbGroup({self.label()})"

    def __eq__(self, other):
        return (isinstance(other, AbGroup) and self.orders == other.orders
                and self.window == other.window)


def _target_ops(target, sample_value):
    """(add, neg, zero) for the values of a map."""
    if isinstance(target, AbGroup):
        return target.add, target.neg, target.zero
    if isinstance(target, Field):
        return target.add, target.neg, target.zero
    # value objects supporting the arithmetic operators (Matrix, Fraction)
    zero = sample_value - sample_value
    return (lambda a, b: a + b), (lambda a: -a), zero


class AbMap:
    """A function between abelian groups, total on its declared source.

    Finite sources carry a full value table; Z sources carry a callback
    evaluated on the window.
    """

    def __init__(self, source, target, table=None, func=None):
        self.source = source
        self.target = target
        if source.is_integers:
            if func is None:
                raise ValueError("Z-source maps need a callback")
            self.func = func
            self.table = None
        else:
            if table is None:
                if func is None:
                    raise ValueError("finite maps need a table or callback")
                table = {u: func(u) for u in source.elements()}
            self.table = dict(table)
            self.func = None

    def __call__(self, u):
        if self.table is not None:
            return self.table[u]
        if abs(u) > self.source.window:
            raise WindowOverflow(f"|{u}| exceeds window {self.source.window}")
        return self.func(u)

    def value_ops(self):
        sample = self(self.source.zero)
        return _target_ops(self.target, sample)


def deviation(f, d):
    """The d-th deviation of f, as a function on d-tuples of source
    elements; dev_0 is the constant f(0)."""
    U = f.source
    add_v, neg_v, _zero_v = f.value_ops()

    def dev(*us):
        if len(us) != d:
            raise ValueError(f"expected {d} arguments")
        total = None
        for mask in range(1 << d):
            s = U.zero
            bits = 0
            for i in range(d):
                if mask >> i & 1:
                    s = U.add(s, us[i])
                    bits += 1
            v = f(s)
            if (d - bits) % 2:
                v = neg_v(v)
            total = v if total is None else add_v(total, v)
        return total
    return dev


def _is_zero_value(v, zero):
    if isinstance(v, Matrix):
        return v.is_zero()
    return v == zero


def deviation_vanishes(f, d):
    """Whether dev_d(f) is identically zero.

    A Z source with window W and d >= 1 reads f once at each of the
    2*d*b + 1 points of [-d*b, d*b], b = W // d, and tests the d-th
    differences there (module docstring; b = 0 leaves dev_d(0,...,0) = 0).
    Otherwise the arguments run over multisets, as dev_d is symmetric.
    """
    if d < 0:
        raise ValueError(f"deviation order d must be >= 0, got {d}")
    U = f.source
    if U.is_integers and d:
        b = U.window // d
        if b == 0:
            return True
        table = [f(x) for x in range(-d * b, d * b + 1)]
        add, neg, zero = _target_ops(f.target, table[0])
        for _ in range(d):
            table = [add(y, neg(x)) for x, y in zip(table, table[1:])]
        return all(_is_zero_value(v, zero) for v in table)
    dev = deviation(f, d)
    zero = f.value_ops()[2]
    return all(_is_zero_value(dev(*us), zero)
               for us in combinations_with_replacement(U.elements(), d))


def eml_degree(f, cap):
    """Least d <= cap with dev_{d+1}(f) identically zero, else the
    NotPolynomialUpTo(cap) sentinel."""
    if cap < 0:
        raise ValueError(f"cap must be >= 0, got {cap}")
    for d in range(cap + 1):
        if deviation_vanishes(f, d + 1):
            return d
    return NotPolynomialUpTo(cap)


def homogeneous_decomposition(f, cap=8):
    """Split a polynomial map into homogeneous components f_0 + ... + f_d,
    d = ``eml_degree(f, cap)``.

    The target must be a Q-space (values are Fractions or matrices over
    Q): f_k is recovered from f(lambda * u) for lambda = 0..d by
    Vandermonde interpolation, and satisfies f_k(n u) = n^k f_k(u).
    """
    sample = f(f.source.zero)
    if not (isinstance(sample, Fraction)
            or (isinstance(sample, Matrix) and sample.field is QQ)
            or isinstance(sample, int)):
        raise ValueError("target must be uniquely divisible (a Q-space)")
    d = eml_degree(f, cap)
    if isinstance(d, NotPolynomialUpTo):
        raise ValueError(f"map is not polynomial up to degree {cap}")
    # inverse Vandermonde on nodes 0..d
    V = Matrix(QQ, [[Fraction(lam ** k) for k in range(d + 1)]
                    for lam in range(d + 1)])
    W = V.inverse()

    def component(k):
        def fk(u):
            total = None
            for lam in range(d + 1):
                c = W.rows[k][lam]
                if c == 0:
                    continue
                v = f(f.source.scalar(lam, u))
                term = v.scale(c) if isinstance(v, Matrix) else c * v
                total = term if total is None else total + term
            if total is None:
                total = sample - sample
            return total
        return fk

    src = f.source
    if src.is_integers:
        src = AbGroup(window=src.window // max(d, 1))
    return [AbMap(src, f.target, func=component(k)) for k in range(d + 1)]


# -- multiplicative factorization ---------------------------------------

class NotMultiplicative(ValueError):
    pass


class NotPolynomial(ValueError):
    pass


class NoFactorization(RuntimeError):
    pass


class _IntegerHom:
    """The unique unital ring map Z -> Q, for the integer special case."""

    def __call__(self, n):
        return Fraction(n)

    def __eq__(self, other):
        return isinstance(other, _IntegerHom)

    def __repr__(self):
        return "RingHom(Z -> Q)"


def factor_multiplicative(phi, cap=8):
    """Write a multiplicative polynomial map phi: A -> K as a pointwise
    product of ring homomorphisms into an extension of K.

    Returns (factors, L): d = eml_degree(phi) homomorphisms A -> L whose
    product equals phi, with L the smallest extension admitting one.
    Whenever the factor count equals the degree, the factorization is
    unique up to order; several distinct size-d multisets would be
    reported as a NoFactorization defect.

    Also accepts the Z -> Q special case as an AbMap with integer
    source, where the only candidates are powers of the inclusion.
    """
    if hasattr(phi, "ring"):
        return factor_ring_map(phi, cap=cap)
    if isinstance(phi.source, AbGroup) and phi.source.is_integers:
        d = eml_degree(phi, cap)
        if isinstance(d, NotPolynomialUpTo):
            raise NotPolynomial(f"not polynomial up to degree {cap}")
        W = phi.source.window
        for x in range(-(W // max(d, 1)), W // max(d, 1) + 1):
            if Fraction(phi(x)) != Fraction(x) ** d:
                raise NotMultiplicative("Z-source map is not x^d")
        return [_IntegerHom() for _ in range(d)], QQ
    raise TypeError("expected a RingMap or a Z-source AbMap")


class RingMap:
    """A set map from a FiniteRing to a Field, the multiplicative input
    of the factorization routine."""

    def __init__(self, ring, field, table=None, func=None):
        self.ring = ring
        self.field = field
        if table is None:
            table = {a: func(a) for a in ring.elements()}
        self.table = dict(table)

    def __call__(self, a):
        return self.table[tuple(a)]

    def check_multiplicative(self):
        R, K = self.ring, self.field
        if self(R.one) != K.one:
            raise NotMultiplicative("does not send 1 to 1")
        els = R.elements()
        for a in els:
            for b in els:
                if self(R.mul(a, b)) != K.mul(self(a), self(b)):
                    raise NotMultiplicative(f"fails at {a} * {b}")

    def as_abmap(self):
        """View through the additive structure, for degree computations."""
        src = _additive_group_of_ring(self.ring)
        table = {_ring_elem_to_tuple(self.ring, a): self(a)
                 for a in self.ring.elements()}
        return AbMap(src, self.field, table=table)


def _additive_group_of_ring(ring):
    orders = []
    for c in ring.components:
        if hasattr(c, "m"):
            orders.append(c.m)
        else:
            orders.extend([c.field.char] * c.field.degree)
    return AbGroup(orders)


def _ring_elem_to_tuple(ring, a):
    out = []
    for c, v in zip(ring.components, a):
        if hasattr(c, "m"):
            out.append(v)
        else:
            out.extend(c.field.to_coeffs(v))
    return tuple(out)


def factor_ring_map(phi, cap=8):
    """Factorization proper for RingMap inputs; see factor_multiplicative."""
    phi.check_multiplicative()
    f = phi.as_abmap()
    d = eml_degree(f, cap)
    if isinstance(d, NotPolynomialUpTo):
        raise NotPolynomial(f"not polynomial up to degree {cap}")
    if d == 0:
        # a constant multiplicative map is the constant 1: the empty
        # product of homomorphisms
        return [], phi.field
    K = phi.field
    for s in range(1, factorial(d) + 1):
        if K.degree * s > MAX_DEGREE:
            break
        L = Field.galois(K.char, K.degree * s)
        emb = L.embedding_from(K)
        homs = ring_homs(phi.ring, L)
        target = {a: emb(phi(a)) for a in phi.ring.elements()}
        found = []
        for combo in combinations_with_replacement(range(len(homs)), d):
            ok = True
            for a in phi.ring.elements():
                v = L.one
                for i in combo:
                    v = L.mul(v, homs[i](a))
                if v != target[a]:
                    ok = False
                    break
            if ok:
                found.append([homs[i] for i in combo])
        if found:
            if len(found) > 1:
                raise NoFactorization("factorization not unique at size d")
            return found[0], L
    raise NoFactorization(f"no factorization within extension degree "
                          f"MAX_DEGREE = {MAX_DEGREE}")


# -- linearization -------------------------------------------------------

def _linear_map_matrix(k, src_elements, dst_index, images):
    """Matrix of a k-linear map k[S] -> k[T] given images as formal sums
    [(coeff sign, element), ...] per basis vector of the source."""
    n = len(dst_index)
    cols = []
    for g in src_elements:
        col = [k.zero] * n
        for sign, h in images(g):
            i = dst_index[h]
            col[i] = k.add(col[i], k.one if sign > 0 else k.neg(k.one))
        cols.append(col)
    return Matrix(k, [list(r) for r in zip(*cols)])


def check_short_exact(A, B, C, incl, proj):
    """Verify 0 -> A -> B -> C -> 0 with the given value maps."""
    imgs = set()
    for a in A.elements():
        imgs.add(incl(a))
    if len(imgs) != len(A.elements()):
        return False
    for a1 in A.elements():
        for a2 in A.elements():
            if incl(A.add(a1, a2)) != B.add(incl(a1), incl(a2)):
                return False
    for b1 in B.elements():
        for b2 in B.elements():
            if proj(B.add(b1, b2)) != C.add(proj(b1), proj(b2)):
                return False
    kerp = {b for b in B.elements() if proj(b) == C.zero}
    if imgs != kerp:
        return False
    return {proj(b) for b in B.elements()} == set(C.elements())


def linearization_exactness(A, B, C, incl, proj, k):
    """Check the two linearized sequences attached to a short exact
    sequence 0 -> A -> B -> C -> 0 of finite abelian groups:

        k[B + A] --alpha--> k[B] --k[proj]--> k[C] --> 0
        0 --> k[A] --k[incl]--> k[B] --beta--> k[B + C]

    with alpha([(b,a)]) = [b + incl(a)] - [b] and
    beta([b]) = [(b, proj(b))] - [(b, 0)].  Returns a report dict with
    the computed ranks and exactness verdicts.
    """
    if not check_short_exact(A, B, C, incl, proj):
        raise ValueError("input maps do not form a short exact sequence")
    elsA, elsB, elsC = A.elements(), B.elements(), C.elements()
    idxB = {g: i for i, g in enumerate(elsB)}
    idxC = {g: i for i, g in enumerate(elsC)}
    elsBA = [(b, a) for b in elsB for a in elsA]
    elsBC = [(b, c) for b in elsB for c in elsC]
    idxBC = {g: i for i, g in enumerate(elsBC)}

    alpha = _linear_map_matrix(
        k, elsBA, idxB,
        lambda ba: [(+1, B.add(ba[0], incl(ba[1]))), (-1, ba[0])])
    kproj = _linear_map_matrix(k, elsB, idxC, lambda b: [(+1, proj(b))])
    kincl = _linear_map_matrix(k, elsA, idxB, lambda a: [(+1, incl(a))])
    beta = _linear_map_matrix(
        k, elsB, idxBC,
        lambda b: [(+1, (b, proj(b))), (-1, (b, C.zero))])

    r_alpha = alpha.rank()
    r_proj = kproj.rank()
    r_incl = kincl.rank()
    r_beta = beta.rank()
    nB = len(elsB)
    surjective = (r_proj == len(elsC))
    # im alpha = ker k[proj]: containment checked by composite, sizes by rank
    comp1 = kproj * alpha
    first_exact = surjective and comp1.is_zero() \
        and r_alpha == nB - r_proj
    injective = (r_incl == len(elsA))
    comp2 = beta * kincl
    second_exact = injective and comp2.is_zero() \
        and r_beta == nB - r_incl
    return {
        "field": k.label(),
        "dims": {"k[A]": len(elsA), "k[B]": nB, "k[C]": len(elsC),
                 "k[B+A]": len(elsBA), "k[B+C]": len(elsBC)},
        "ranks": {"alpha": r_alpha, "k[proj]": r_proj,
                  "k[incl]": r_incl, "beta": r_beta},
        "first_sequence_exact": first_exact,
        "second_sequence_exact": second_exact,
    }
