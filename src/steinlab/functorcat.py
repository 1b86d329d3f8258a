"""Functors on finitely generated free modules over a finite ring,
truncated at a rank bound.

A functor is stored rule-backed: a dimension rule per rank and an
action rule producing the matrix of F(h) for an explicit A-linear map
h: A^m -> A^m' (h given as an m' x m tuple-of-tuples of ring element
labels).
Full action tables over all of Hom(A^m, A^m') are never materialized;
every computation below only evaluates the handful of maps it needs.

The intermediate extension T(M) of a K[M_n(A)]-module is such a functor:
its value at A^m is the image of theta in M-valued functions on
Hom(A^m, A^n), held as a ``Subspace``.  Every f: A^n -> A^m factors
through the m x n matrix f0 with ones on the diagonal (f = e o f0 or
f0 o e), so that image is spun by ``span_from_spins`` from the dim M
functions theta(f0 (x) e_j) under precomposition by the generators of
End(A^m), a handful per rank (``rings.matrix_monoid_generators``);
Hom(A^n, A^m) is never enumerated.  F(h) is the same
precomposition (``_Precompose``, an index map on coordinates) written in
the target value's basis with ``Subspace.coords_matrix``.  The action of
every element of M_n(A) that the seeds need comes from
``modtools.monoid_actions`` over the monoid generators.  The
intermediate-extension module at rank m is the functor's value module
there (``functor_value_module``).

A map's index in ``all_ring_homs_matrices`` reads its entries (ring
element labels) as mixed-radix digits.  ``_row_table`` lists the index
of x.h for every row vector x, on the ring's Cayley tables, one column
of h at a time: column j of every x.h as one list of labels, folded into
the indices as their next digit, with no tuple per vector.  The index of
g.h is a sum of row-table entries over the rows of g: precomposition and
the representable action form no ring matrix product per Hom element,
and ``_Precompose`` gathers coordinates with one ``itemgetter``.
"""

from functools import cache, cached_property
from itertools import product
from operator import itemgetter

from .emlpoly import NotPolynomialUpTo
from .fields import CapExceeded, QQ, prime_power
from .matrices import Matrix, Subspace, span_from_spins
from .modtools import (AlgebraModule, are_isomorphic, is_simple,
                       monoid_actions)
from .rings import (all_ideals, cotrivial_ideals, mat_mul,
                    matrix_monoid_generators, ring_identity)

# the largest value |A|^m of a representable functor
REPRESENTABLE_CAP = 100000
# the largest ambient |Hom(A^m, A^n)| * dim M of an intermediate extension
# value, and the largest action table |M_n(A)| * dim M it reads
HOM_CAP = 200000


class NotIntermediateExtension(RuntimeError):
    pass


def all_ring_homs_matrices(ring, m, m2):
    """Every A-linear map A^m -> A^m2, i.e. every m2 x m matrix."""
    els = ring.elements()
    cols = m * m2
    out = []
    for combo in product(els, repeat=cols):
        out.append(tuple(tuple(combo[i * m + j] for j in range(m))
                         for i in range(m2)))
    return out


class FunctorRep:
    """A truncated functor: dimension and action rules with caching."""

    def __init__(self, ring, field, N, dim_rule, action_rule, name=""):
        if N < 0:
            raise ValueError(f"truncation rank must be >= 0, got {N}")
        self.ring = ring
        self.field = field
        self.N = N
        self._dim_rule = dim_rule
        self._action_rule = action_rule
        self.name = name
        self._dim_cache = {}
        self._act_cache = {}

    def dim(self, m):
        if m not in self._dim_cache:
            if m > self.N:
                raise ValueError(f"rank {m} exceeds truncation {self.N}")
            self._dim_cache[m] = self._dim_rule(m)
        return self._dim_cache[m]

    def act_ranks(self, h, m, m2):
        key = (h, m, m2)
        if key not in self._act_cache:
            if max(m, m2) > self.N:
                raise ValueError(f"rank exceeds truncation {self.N}")
            A = self._action_rule(h, m, m2)
            if A.nrows != self.dim(m2) or \
                    (A.nrows and A.ncols != self.dim(m)):
                raise ValueError("action rule produced a wrong shape")
            self._act_cache[key] = A
        return self._act_cache[key]

    def dims(self):
        return [self.dim(m) for m in range(self.N + 1)]

    def __repr__(self):
        tag = f" {self.name}" if self.name else ""
        return (f"FunctorRep({tag} on {self.ring.label()} over "
                f"{self.field.label()}, N={self.N})")


# -- builtin functors ----------------------------------------------------

def constant_functor(ring, field, N):
    one = Matrix.identity(field, 1)
    return FunctorRep(ring, field, N, lambda m: 1,
                      lambda h, m, m2: one, name="K")


def additive_functor(ring, field, N, hom):
    """K tensor_A (-) along a ring homomorphism A -> K: the value at
    A^m is K^m and matrices map entrywise through the homomorphism."""
    def act(h, m, m2):
        if m2 == 0 or m == 0:
            return Matrix.zero(field, m2, m)
        return Matrix(field, [[hom(x) for x in row] for row in h])
    return FunctorRep(ring, field, N, lambda m: m, act, name="Lambda1")


def representable_functor(ring, field, N):
    """P = K[Hom(A, -)]: the free K-module on A^m at rank m.  F(h) sends
    v to h.v, read from the row table of the transpose of h."""
    def dim_rule(m):
        d = ring.size ** m
        if d > REPRESENTABLE_CAP:
            raise CapExceeded("representable value exceeds cap")
        return d

    def act(h, m, m2):
        images = _row_table(ring, tuple(zip(*h)), m, m2)
        z, o = field.zero, field.one
        mat = [[z] * len(images) for _ in range(ring.size ** m2)]
        for j, i in enumerate(images):
            mat[i][j] = o
        return Matrix(field, mat)
    return FunctorRep(ring, field, N, dim_rule, act, name="P")


def grassmannian_functor(ring, field, N):
    """K[Gr_1]: the free K-module on the lines of A^m, for A a finite
    field.  A line is listed by its vector whose first nonzero entry is
    1, in ``product`` order; h sends it to the line of h.v scaled to a
    leading 1, or to zero when h.v = 0."""
    kA = ring.as_field()
    cache = {}

    def lines(m):
        if m not in cache:
            vecs = [v for v in product(kA.elements(), repeat=m)
                    if next((x for x in v if x), None) == kA.one]
            cache[m] = (vecs, {v: i for i, v in enumerate(vecs)})
        return cache[m]

    def act(h, m, m2):
        vecs, _ = lines(m)
        vecs2, index2 = lines(m2)
        if m == 0 or m2 == 0:
            return Matrix.zero(field, len(vecs2), len(vecs))
        hm = Matrix(kA, [list(row) for row in h])
        z, o = field.zero, field.one
        mat = [[z] * len(vecs) for _ in range(len(vecs2))]
        for j, v in enumerate(vecs):
            w = hm.apply_to_vector(v)
            lead = next((x for x in w if x), None)
            if lead is not None:
                w = kA.row_scale(kA.inv(lead), w)
                mat[index2[tuple(w)]][j] = o
        return Matrix(field, mat)
    return FunctorRep(ring, field, N, lambda m: len(lines(m)[0]), act,
                      name="K[Gr_1]")


# -- cross effects and degrees -------------------------------------------

def _deletion_matrix(ring, d, i):
    """The map A^d -> A^(d-1) forgetting coordinate i."""
    ident = ring_identity(ring, d)
    return ident[:i] + ident[i + 1:]


def cross_effect(F, d):
    """Dimension and ``Subspace`` of cr_d F(A,...,A) inside F(A^d): the
    joint kernel of the coordinate-deletion maps, the annihilator of
    their rows (all of F(A^d) when there are none, as at d = 0)."""
    if d > F.N:
        raise ValueError(f"cross effect {d} exceeds truncation {F.N}")
    deletions = (F.act_ranks(_deletion_matrix(F.ring, d, i), d, d - 1)
                 for i in range(d))
    ker = Subspace(F.field, F.dim(d),
                   (row for M in deletions for row in M.rows)).annihilator()
    return ker.dim, ker


def polynomial_degree(F, cap):
    """Largest k with nonzero k-th cross effect, certified by a
    vanishing higher cross effect within the truncation; otherwise the
    NotPolynomialUpTo sentinel (vanishing of a cross effect forces all
    higher ones to vanish, so one zero certifies the degree)."""
    if cap < 0:
        raise ValueError(f"cap must be >= 0, got {cap}")
    cap = min(cap, F.N)
    dims = [cross_effect(F, 0)[0]]
    for k in range(1, cap + 1):
        ck, _ = cross_effect(F, k)
        dims.append(ck)
        if ck == 0:
            # a vanishing cross effect (beyond the constant part) forces
            # all higher ones to vanish, so the degree is certified
            return max((j for j in range(k) if dims[j] != 0), default=0)
    return NotPolynomialUpTo(cap)


# -- dimension profiles --------------------------------------------------

def dimension_profile(F):
    """Values d_F(0..N) and the polynomial in p^m through the first N of
    them, for a base ring of order p^e; the fit is checked on all N + 1
    values, and a base ring of other order gets no fit."""
    values = F.dims()
    report = {"values": values, "fit": None, "fit_ok": None}
    try:
        p, _ = prime_power(F.ring.size)
    except ValueError:
        report["fit_ok"] = False
        report["reason"] = "base ring is not a p-ring"
        return report
    N = F.N
    pts = [(QQ.from_int(p ** m), QQ.from_int(values[m])) for m in range(N)]
    coeffs = _lagrange_coeffs(pts)
    # verify on every rank including the held-out last one
    ok = all(_poly_val(coeffs, QQ.from_int(p ** m)) == values[m]
             for m in range(N + 1))
    report["fit"] = [str(c) for c in coeffs]
    report["fit_ok"] = ok
    return report


def _lagrange_coeffs(pts):
    n = len(pts)
    V = Matrix(QQ, [[x ** k for k in range(n)] for x, _ in pts])
    ys = [y for _, y in pts]
    sol = V.solve_right(ys)
    coeffs = list(sol)
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _poly_val(coeffs, x):
    v = QQ.zero
    for c in reversed(coeffs):
        v = v * x + c
    return v


# -- intermediate extensions ---------------------------------------------

class MonoidModule(AlgebraModule):
    """A K[M_n(A)]-module: generator g<i> is labelled by the i-th matrix
    of ``rings.matrix_monoid_generators`` and acts by its ``action_of``."""

    def __init__(self, ring, n, field, action_of, name=""):
        """action_of: element of M_n(A) (tuple form) -> Matrix."""
        labels = {f"g{i}": e
                  for i, e in enumerate(matrix_monoid_generators(ring, n))}
        super().__init__(field, {nm: action_of(e)
                                 for nm, e in labels.items()},
                         labels=labels, name=name)
        self.ring = ring
        self.n = n
        self.action_of = action_of

    @cached_property
    def action_table(self):
        """The action matrix of every element of M_n(A), built once by
        ``modtools.monoid_actions``."""
        ring, n = self.ring, self.n
        return dict(monoid_actions(self, lambda g, x: mat_mul(ring, g, x, n),
                                   ring_identity(ring, n)))

    @staticmethod
    def from_character(ring, field, chi, name="chi"):
        """A one-dimensional module of M_1(A) from a multiplicative
        character chi: A -> K."""
        def action(e):
            return Matrix(field, [[chi(e[0][0])]])
        return MonoidModule(ring, 1, field, action, name=name)


def _row_table(ring, h, k, cols):
    """The index of x.h in A^cols for every row vector x in A^k, in index
    order, for a k x cols ring matrix h: built one column of h at a time
    on the ring's Cayley tables, as scalar lists: for x = (x', a), entry
    j of x.h is entry j of x'.h plus a.h[t][j], and each index gains
    column j as its next digit."""
    q = ring.size
    add, mul = ring.cayley_tables
    idx = [0] * q ** k
    for j in range(cols):
        col = [ring.zero]
        for t in range(k):
            ys = [mul[a][h[t][j]] for a in range(q)]
            col = [add[u][y] for u in col for y in ys]
        idx = [i * q + c for i, c in zip(idx, col)]
    return idx


class _Precompose:
    """phi -> (g -> phi(g o h)) for h: A^m -> A^m2, on M-valued functions
    held as one block of dim M coordinates per map to A^n: block g of the
    image (g: A^m2 -> A^n) reads block g o h of phi.  Row i of g o h is
    row_i(g).h, so with R the row table of h and w = |A|^m the block of
    g o h is the sum of R[row_i(g)] * w^(n-1-i); listing g in index order
    lists every choice of rows, row 0 slowest.  It acts by indexing, one
    ``itemgetter`` over ``src``, so it never builds a dense matrix."""

    def __init__(self, ring, n, dm, h, m, m2):
        R = _row_table(ring, h, m2, m)
        w = ring.size ** m
        blocks = R if n else [0]
        for _ in range(n - 1):
            blocks = [b * w + r for b in blocks for r in R]
        self.src = src = blocks if dm == 1 else \
            [b * dm + k for b in blocks for k in range(dm)]
        # itemgetter returns a bare entry for one index and takes no zero
        self._get = itemgetter(*src) if len(src) > 1 else None

    def apply_to_vector(self, v):
        if self._get is None:
            return [v[k] for k in self.src]
        return list(self._get(v))


def intermediate_extension_value(mm, m):
    """T(M)(A^m) for a K[M_n(A)]-module M: the image of the canonical
    map K[Hom(A^n, A^m)] (x) M -> Maps(Hom(A^m, A^n), M), theta(f (x) v)
    sending g to rho(g o f) v.

    Let f0: A^n -> A^m be the m x n matrix with ones on the diagonal.
    Every f factors as e o f0 with e in End(A^m) when m >= n, and as
    f0 o e with e in End(A^n) when m < n.  As theta(e o f (x) v) is
    theta(f (x) v) precomposed with e and theta(f0 o e (x) v) is
    theta(f0 (x) rho(e) v), the image is the span of the dim M seeds
    theta(f0 (x) e_j) under precomposition by the monoid generators of
    End(A^m) other than the identity, found by ``span_from_spins``.  For
    m < n the seeds already span it (e acts on M, not on the blocks), so
    nothing is spun.

    Returns (dimension, Subspace, dual_homs, ambient dim); the subspace
    lives in the space of M-valued functions on Hom(A^m, A^n), and
    dual_homs maps each g: A^m -> A^n to the number of its block."""
    ring, n, K = mm.ring, mm.n, mm.field
    dm = mm.dimension
    if ring.size ** (m * n) * dm > HOM_CAP:
        raise CapExceeded("intermediate extension value exceeds cap")
    if ring.size ** (n * n) * dm > HOM_CAP:
        raise CapExceeded("monoid action table exceeds cap")
    table = mm.action_table
    homs = {g: i for i, g in enumerate(all_ring_homs_matrices(ring, m, n))}
    # g o f0 is the first n columns of g, padded with zeros when m < n
    pad = (ring.zero,) * (n - m)
    blocks = [table[tuple(row[:n] + pad for row in g)].rows for g in homs]
    seeds = [[rows[i][j] for rows in blocks for i in range(dm)]
             for j in range(dm)]
    gens = matrix_monoid_generators(ring, m)[1:] if m >= n else ()
    ops = [_Precompose(ring, n, dm, e, m, m) for e in gens]
    ambient = len(homs) * dm
    sp = span_from_spins(K, ambient, seeds, ops)
    return sp.dim, sp, homs, ambient


def intermediate_extension_functor(mm, N):
    """T(M) as a truncated FunctorRep."""
    ring, K = mm.ring, mm.field
    dm = mm.dimension

    @cache
    def value(m):
        return intermediate_extension_value(mm, m)

    @cache
    def basis(m):  # value m's basis rows, unpacked once for every F(h)
        return value(m)[1].basis

    def dim_rule(m):
        return value(m)[0]

    def act(h, m, m2):
        d1 = value(m)[0]
        d2, sp2, _, _ = value(m2)
        if d1 == 0 or d2 == 0:
            return Matrix.zero(K, d2, d1)
        op = _Precompose(ring, mm.n, dm, h, m, m2)
        return sp2.coords_matrix([op.apply_to_vector(row)
                                  for row in basis(m)])

    return FunctorRep(ring, K, N, dim_rule, act,
                      name=f"T({mm.name})" if mm.name else "T(M)")


# -- tensor and unipotence -----------------------------------------------

def tensor_functors(F, G):
    if F.ring != G.ring or F.field is not G.field or F.N != G.N:
        raise ValueError("functor mismatch")

    def act(h, m, m2):
        return F.act_ranks(h, m, m2).kron(G.act_ranks(h, m, m2))
    return FunctorRep(F.ring, F.field, F.N,
                      lambda m: F.dim(m) * G.dim(m), act,
                      name=f"{F.name}(x){G.name}")


def _is_unipotent(M):
    F = M.field
    n = M.nrows
    N = M - Matrix.identity(F, n)
    return (N ** n).is_zero() if n else True


def unipotence_ideal(F, n):
    """I = {a in A : F(u[a] + id_{A^n}) is unipotent}, where u[a] is the
    2 x 2 elementary matrix with a below the diagonal; closure under
    addition and multiplication is verified, and the result is returned
    as a materialized ideal."""
    ring = F.ring
    if n < 0:
        raise ValueError(f"rank n must be >= 0, got {n}")
    m = 2 + n
    if m > F.N:
        raise ValueError("truncation too small for the unipotence test")
    members = []
    for a in ring.elements():
        rows = [list(row) for row in ring_identity(ring, m)]
        rows[1][0] = a
        M = F.act_ranks(tuple(map(tuple, rows)), m, m)
        if _is_unipotent(M):
            members.append(a)
    mem = set(members)
    for a in members:
        for b in members:
            if ring.add(a, b) not in mem:
                raise RuntimeError("unipotence locus not closed under +")
    for a in members:
        for r in ring.elements():
            if ring.mul(r, a) not in mem:
                raise RuntimeError("unipotence locus is not an ideal")
    for I in all_ideals(ring):
        if I.elements == frozenset(mem):
            return I
    raise RuntimeError("unipotence locus matches no ideal")


def ideal_is_cotrivial(F, ideal):
    return ideal in cotrivial_ideals(F.ring, F.field)


# -- simplicity ----------------------------------------------------------

def functor_value_module(F, m):
    """F(A^m) as a module over the monoid M_m(A)."""
    def action_of(e):
        return F.act_ranks(e, m, m)
    return MonoidModule(F.ring, m, F.field, action_of,
                        name=f"{F.name}(A^{m})" if F.name else "")


def simplicity_test(F, n, seed=0):
    """True iff F(A^n) is simple over K[M_n(A)] and F agrees with the
    intermediate extension of that value at every rank up to the
    truncation; a failed agreement is inconclusive and raises."""
    mm = functor_value_module(F, n)
    if mm.dimension == 0:
        raise ValueError("zero value at the support rank")
    if not is_simple(mm, seed=seed):
        return False
    T = intermediate_extension_functor(mm, F.N)
    for m in range(F.N + 1):
        if F.dim(m) != T.dim(m):
            raise NotIntermediateExtension(
                f"value dimension differs from the canonical extension "
                f"at rank {m}: {F.dim(m)} vs {T.dim(m)}")
        if F.dim(m) == 0 or m == 0:
            # the rank-0 monoid is trivial, so equal dimensions settle it
            continue
        FM = functor_value_module(F, m)
        TM = functor_value_module(T, m)
        if not are_isomorphic(FM, TM, seed=seed):
            raise NotIntermediateExtension(
                f"value modules disagree at rank {m}")
    return True
