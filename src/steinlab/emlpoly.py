"""Polynomial functions between abelian groups in the deviation sense.

The d-th deviation of f: U -> V is

    dev_d(f)(u_1,...,u_d) = sum over subsets I of {1..d} of
                            (-1)^(d-|I|) f(sum of u_i for i in I)

and f is polynomial of degree <= d when dev_{d+1}(f) vanishes
identically.  A source is a finite abelian group, given as a
``rings.FiniteRing`` read as its additive group (``"Z/2xZ/4"`` is
Z/2 + Z/4), or Z restricted to a bounded evaluation window W, an
``AbGroup``.  The deviation code reads only a finite source's ``zero``,
``add``, ``elements()`` and ``additive_generators()``; its elements are
labels, so each is its own index in a value table, and
``rings.RingMap.as_abmap`` gives the ring itself as the source.  A
finite target is a ``Field`` or a ``FiniteRing``.  On Z,
dev_d is tested on arguments in [-b, b], b = W // d, whose partial sums
fill [-d*b, d*b]; it vanishes exactly when the d-th finite differences
of f on [-d*b, d*b] do (Passi, LNM 715: the
(t^u_1 - 1)...(t^u_d - 1) with |u_i| <= b span the same Z-module as the
t^x (t - 1)^d with [x, x + d] inside [-d*b, d*b]).

On a finite source A and d >= 1, dev_d(f)(x_1, ..., x_d) is
(D_x_1 ... D_x_d f)(0), for D_x = t_x - 1 and t_x the translation by x.
These span I^d, I the augmentation ideal of Z[A]; I^d is an ideal, and
t_(a+b) - 1 = D_a D_b + D_a + D_b, so I^d is generated by the products
D_g_1 ... D_g_d of additive generators.  dev_d vanishes exactly when
all of those kill f.
"""

from fractions import Fraction
from functools import reduce
from itertools import combinations_with_replacement, compress, count, islice
from math import factorial, lcm

from .fields import MAX_DEGREE, CapExceeded, Field, QQ
from .matrices import Matrix
from .rings import NotMultiplicative, RingMap, ring_homs


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


# a Z window is read once, at up to 2W + 1 points
WINDOW_CAP = 10000


class AbGroup:
    """Z with an evaluation window W: its elements are the ints of
    absolute value at most W, and W is at most ``WINDOW_CAP``."""

    zero = 0

    def __init__(self, window):
        if window < 0:
            raise ValueError(f"window must be >= 0, got {window}")
        if window > WINDOW_CAP:
            raise CapExceeded(f"window {window} exceeds cap {WINDOW_CAP}")
        self.window = window

    def checked(self, n):
        """n, if it lies in the window."""
        if abs(n) > self.window:
            raise WindowOverflow(f"|{n}| exceeds window {self.window}")
        return n

    def add(self, a, b):
        return self.checked(a + b)

    def scalar(self, n, a):
        return self.checked(n * a)

    def __repr__(self):
        return f"AbGroup(Z[window {self.window}])"


class AbMap:
    """A function between abelian groups, total on its declared source.

    A finite source carries a full value table; a Z window carries a
    callback.
    """

    def __init__(self, source, target, table=None, func=None):
        self.source = source
        self.target = target
        if isinstance(source, AbGroup):
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
        return self.func(self.source.checked(u))

    def value_ops(self):
        """(add, neg, zero) of the target."""
        return self.target.add, self.target.neg, self.target.zero


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
    differences there (``_window_levels``; b = 0 leaves dev_d(0,...,0) =
    0).  A finite source reads f once at each element and takes
    differences along its additive generators (module docstring): dev_d
    vanishes when level d of ``_difference_levels`` is empty.
    """
    if d < 0:
        raise ValueError(f"deviation order d must be >= 0, got {d}")
    if d == 0:
        return _is_zero_value(deviation(f, 0)(), f.value_ops()[2])
    U = f.source
    if isinstance(U, AbGroup):
        reach = d * (U.window // d)
        return next(islice(_window_levels(f, reach), d - 1, None))
    return not next(islice(_difference_levels(f), d, None))


def _window_levels(f, reach):
    """Whether level k = 1, 2, ... of the differences of f on a Z window
    vanishes on [-k*b, k*b - k], b = reach // k, where dev_k is tested;
    f is read once on [-reach, reach].  Fractions into Q are differenced
    as ints over their lcm; F_p labels need their field's add and neg."""
    table = [f(x) for x in range(-reach, reach + 1)] if reach else []
    add, neg, zero = f.value_ops()
    if f.target is QQ and all(type(v) is Fraction for v in table):
        den = lcm(*[v.denominator for v in table])
        table = [v.numerator * (den // v.denominator) for v in table]
        sub, zero = int.__sub__, 0
    else:
        def sub(y, x):
            return add(y, neg(x))
    for k in count(1):
        table = list(map(sub, table[1:], table))  # (D^k f)(i - reach)
        b = reach // k
        yield all(_is_zero_value(v, zero)
                  for v in table[reach - k * b:reach + k * b - k + 1])


def _difference_levels(f):
    """The nonzero tables D_w f on f's finite source, one list per length
    k = 0, 1, ... of the nondecreasing words w in its additive generators
    g_i, where D_g t = t(u + g) - t(u).  Differences commute, so these
    words give every k-fold difference, and a zero table is not
    differenced further: once a level is empty, every later one is."""
    U = f.source
    # shifts[i][u] is the label of u + g_i
    shifts = [[U.add(u, g) for u in U.elements()]
              for g in U.additive_generators()]
    add, neg, zero = f.value_ops()
    # (D_w f, last letter of w), the words of one length
    level = [([f(u) for u in U.elements()], 0)]
    while True:
        level = [(t, j) for t, j in level
                 if not all(_is_zero_value(v, zero) for v in t)]
        yield [t for t, _ in level]
        level = [([add(t[s], neg(x)) for x, s in zip(t, shifts[i])], i)
                 for t, j in level for i in range(j, len(shifts))]


def eml_degree(f, cap):
    """Least d <= cap with dev_{d+1}(f) identically zero, else the
    NotPolynomialUpTo(cap) sentinel.  Each level of differences is built
    once: on a Z window, level d + 1 of ``_window_levels`` on the whole
    window; on a finite source, d is one below the first empty level of
    ``_difference_levels`` after level 0."""
    if cap < 0:
        raise ValueError(f"cap must be >= 0, got {cap}")
    if isinstance(f.source, AbGroup):
        zero = islice(_window_levels(f, f.source.window), cap + 1)
        return next(compress(count(), zero), NotPolynomialUpTo(cap))
    levels = islice(_difference_levels(f), 1, cap + 2)
    return next((d for d, level in enumerate(levels) if not level),
                NotPolynomialUpTo(cap))


def homogeneous_decomposition(f, cap=8):
    """Split a polynomial map into homogeneous components f_0 + ... + f_d,
    d = ``eml_degree(f, cap)``.

    The target must be Q (values are rationals or matrices over Q): f_k
    is recovered from f(lambda * u) for lambda = 0..d by Vandermonde
    interpolation, and satisfies f_k(n u) = n^k f_k(u).
    """
    if f.target is not QQ:
        raise ValueError(f"target must be Q, not {f.target.label()}")
    sample = f(f.source.zero)
    zero = sample - sample
    d = eml_degree(f, cap)
    if isinstance(d, NotPolynomialUpTo):
        raise ValueError(f"map is not polynomial up to degree {cap}")
    # inverse Vandermonde on nodes 0..d
    V = Matrix(QQ, [[Fraction(lam ** k) for k in range(d + 1)]
                    for lam in range(d + 1)])
    W = V.inverse()

    def component(k):
        def fk(u):
            total = zero
            for lam in range(d + 1):
                c = W.rows[k][lam]
                if c:
                    v = f(f.source.scalar(lam, u))
                    total += v.scale(c) if isinstance(v, Matrix) else c * v
            return total
        return fk

    src = f.source
    if isinstance(src, AbGroup):
        src = AbGroup(src.window // max(d, 1))
    return [AbMap(src, f.target, func=component(k)) for k in range(d + 1)]


# -- multiplicative factorization ---------------------------------------

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
        return "RingMap(Z -> Q)"


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
    if isinstance(phi, RingMap):
        return factor_ring_map(phi, cap=cap)
    if isinstance(phi.source, AbGroup):
        d = eml_degree(phi, cap)
        if isinstance(d, NotPolynomialUpTo):
            raise NotPolynomial(f"not polynomial up to degree {cap}")
        W = phi.source.window
        for x in range(-(W // max(d, 1)), W // max(d, 1) + 1):
            if Fraction(phi(x)) != Fraction(x) ** d:
                raise NotMultiplicative("Z-source map is not x^d")
        return [_IntegerHom() for _ in range(d)], QQ
    raise TypeError("expected a RingMap or a Z-source AbMap")


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
            if all(reduce(L.mul, (homs[i](a) for i in combo), L.one)
                   == target[a] for a in phi.ring.elements()):
                found.append([homs[i] for i in combo])
        if found:
            if len(found) > 1:
                raise NoFactorization("factorization not unique at size d")
            return found[0], L
    raise NoFactorization(f"no factorization within extension degree "
                          f"MAX_DEGREE = {MAX_DEGREE}")


# -- linearization -------------------------------------------------------

def _linear_map_matrix(k, n, images):
    """Matrix of a k-linear map into k^n, given the image of each source
    basis vector as a formal sum [(sign, target index), ...]."""
    cols = []
    for terms in images:
        col = [k.zero] * n
        for sign, i in terms:
            col[i] = k.add(col[i], k.one if sign > 0 else k.neg(k.one))
        cols.append(col)
    return Matrix(k, [list(r) for r in zip(*cols)])


def check_short_exact(A, B, C, incl, proj):
    """Verify 0 -> A -> B -> C -> 0 with the given value maps."""
    imgs = {incl(a) for a in A.elements()}
    if len(imgs) != A.size:
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
    nA, nB, nC = A.size, B.size, C.size
    # labels index k[A], k[B] and k[C]; (b, c) is b * nC + c in k[B + C]
    alpha = _linear_map_matrix(
        k, nB, ([(+1, B.add(b, incl(a))), (-1, b)]
                for b in B.elements() for a in A.elements()))
    kproj = _linear_map_matrix(k, nC, ([(+1, proj(b))] for b in B.elements()))
    kincl = _linear_map_matrix(k, nB, ([(+1, incl(a))] for a in A.elements()))
    beta = _linear_map_matrix(
        k, nB * nC, ([(+1, b * nC + proj(b)), (-1, b * nC + C.zero)]
                     for b in B.elements()))

    r_alpha = alpha.rank()
    r_proj = kproj.rank()
    r_incl = kincl.rank()
    r_beta = beta.rank()
    surjective = (r_proj == nC)
    # im alpha = ker k[proj]: containment checked by composite, sizes by rank
    comp1 = kproj * alpha
    first_exact = surjective and comp1.is_zero() \
        and r_alpha == nB - r_proj
    injective = (r_incl == nA)
    comp2 = beta * kincl
    second_exact = injective and comp2.is_zero() \
        and r_beta == nB - r_incl
    return {
        "field": k.label(),
        "dims": {"k[A]": nA, "k[B]": nB, "k[C]": nC,
                 "k[B+A]": nB * nA, "k[B+C]": nB * nC},
        "ranks": {"alpha": r_alpha, "k[proj]": r_proj,
                  "k[incl]": r_incl, "beta": r_beta},
        "first_sequence_exact": first_exact,
        "second_sequence_exact": second_exact,
    }
