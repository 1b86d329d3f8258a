"""Brute-force oracles for the tests, kept out of the package they check.

Each answers a question that ``steinlab`` answers by construction, by
exhaustion instead: enumerating GL_n(F_q) or S_d, counting tableaux,
decomposing the regular representation, or summing cross-effect
dimensions.  The polytabloid and Schur-vector oracles are the two column
antisymmetrizers that ``symgrp.column_alternant`` replaced; the dense
norm is the matrix whose column space ``schurfun.elementary_value`` once
took, and ``coefficient_abmap`` is the view of a ring as a product of
cyclic groups that ``RingMap.as_abmap`` once built.  ``ListSubspace`` is
the list-row elimination that ``Subspace`` ran in characteristic 2 before
it packed its rows, and over Q, in ``Fraction``s, before it kept
primitive int rows; ``rref_int`` is the batch fraction-free elimination
that built a Q ``Subspace`` until then.  ``multiset_deviation_vanishes``
is the walk over multisets that ``deviation_vanishes`` made on finite
sources before it took differences along generators, and
``depth_first_deviation_vanishes`` the depth-first walk of those
differences before one level-by-level walk served it and ``eml_degree``;
``per_d_eml_degree`` is the degree search that ran it afresh for each d.
``window_deviation_vanishes`` is ``deviation_vanishes`` on a Z window as
it was when it read f afresh for each d, before one value table per
window served it and ``eml_degree``.  ``build_parser`` is the command
line parser that ``cli.build_parser`` built in full, every
module's arguments included, before it added only those of the module a
job names.  ``repeated_addition`` is the loop ``FiniteRing.scalar`` ran
before it multiplied by n·1 in each component.  ``dense_apply`` is the
product loop that visited every matrix entry before
``Matrix.apply_to_vector`` read each row's nonzero entries over finite
fields, and ``hom_space_socle`` is ``modtools.socle`` as it was before it
returned a simple module whole: the images of every hom space from a
composition factor.  ``dense_sym_action`` and ``dense_tensor_action`` are
the dense generator matrices that ``schurfun.schur_value`` and
``schurfun.elementary_value`` built before their generators acted by
sparse column images, and ``all_pairs_multiplicative`` is the walk over
every pair that ``RingMap.check_multiplicative`` made before it checked
monoid generators only.  ``full_matrix_monoid_generators`` is the
generating set of M_n(A) that ``rings.matrix_monoid_generators`` listed
before it kept only e_01(r), the swap and the n-cycle, and
``kron_hom_rows`` the system that ``modtools.hom_space`` built by
Kronecker products before it wrote the rows directly; ``rref_kernel_basis``
is ``Matrix.kernel_basis`` as it was when it read the padded ``rref``.
``solve_right_local_min_poly`` is ``modtools._local_min_poly`` as it was
when it solved each Krylov iterate against the earlier ones by
``solve_right``, before one tagged ``Subspace`` gave the relation, and
``solve_right_minimal_polynomial`` is ``minimal_polynomial`` on it.
``dense_kron`` is ``Matrix.kron`` as it was when it tested every pair of
entries, before it multiplied the factors' nonzero pairs, and
``echelon_restriction`` is ``modtools.restrict_to_submodule`` given a
``Subspace`` as it was before it worked in ints over Q: each generator
applied to the echelon rows, the images written by ``coords_matrix``.
``power_sum_eval_matrix`` is ``modtools._poly_eval_matrix`` as it was
before Horner's rule: the sum of c_k A^k over every power of A.
``unsplit_find_proper_submodule`` is ``modtools.find_proper_submodule``
as it was before it took the roots of each draw first: every draw
factored whole by ``_berlekamp_factor``, each product term started at
the identity, and f(θ) by ``power_sum_eval_matrix``.
``elementwise_mat_mul`` is ``rings.mat_mul`` as it was before it read
the ring's Cayley tables: ``ring.add`` and ``ring.mul`` on each entry.
``tuple_row_table`` is ``functorcat._row_table`` as it was when it built
one tuple per row vector x.h, a row of h at a time, before it built the
index a column at a time as scalar lists.
"""

import argparse
import random
from fractions import Fraction
from itertools import (combinations, combinations_with_replacement,
                       permutations, product)
from math import comb, factorial, gcd, lcm

from steinlab import modtools
from steinlab.emlpoly import (AbGroup, AbMap, NotPolynomialUpTo,
                              deviation, deviation_vanishes)
from steinlab.fields import Field
from steinlab.functorcat import cross_effect
from steinlab.matrices import Matrix, Subspace
from steinlab.modtools import (AlgebraModule, _poly_mul, are_isomorphic,
                               composition_factors, hom_space,
                               monoid_actions)
from steinlab.rings import FiniteRing, NotMultiplicative, ring_identity
from steinlab.schurfun import _sym_basis
from steinlab.steinberg import group_generator_matrices
from steinlab.symgrp import _perm_sign_on, conjugate, normalize_partition


# -- GL_n(F_q) by enumeration ---------------------------------------------

def group_elements(n, q):
    """All of GL_n(F_q), as matrices over F_q, by exhaustion."""
    Fq = Field.of_order(q)
    els = Fq.elements()
    out = []
    for combo in product(els, repeat=n * n):
        M = Matrix(Fq, [[combo[i * n + jj] for jj in range(n)]
                        for i in range(n)])
        if M.is_invertible():
            out.append(M)
    return out


def element_order(g):
    ident = Matrix.identity(g.field, g.nrows)
    k = 1
    h = g
    while h != ident:
        h = h * g
        k += 1
    return k


def p_regular_class_count(n, q):
    """Number of conjugacy classes of elements of order prime to p,
    counted by direct orbit enumeration."""
    p = Field.of_order(q).char
    G = group_elements(n, q)
    regular = [g for g in G if element_order(g) % p != 0]
    inverses = {}
    for g in G:
        inverses[g] = g.inverse()
    seen = set()
    count = 0
    for g in regular:
        key = tuple(tuple(r) for r in g.rows)
        if key in seen:
            continue
        count += 1
        for h in G:
            c = h * g * inverses[h]
            seen.add(tuple(tuple(r) for r in c.rows))
    return count


def group_algebra_simples(n, q, K, seed=0):
    """Distinct simple modules of K[GL_n(F_q)] obtained by brute-force
    decomposition of the regular representation; an oracle independent
    of the digit machinery."""
    G = group_elements(n, q)
    index = {g: i for i, g in enumerate(G)}
    Fq = G[0].field
    emb = K.embedding_from(Fq) if K is not Fq else (lambda x: x)
    gen_mats = group_generator_matrices(n, q, K)
    names = list(gen_mats)

    def perm_matrix(gname):
        gq = Matrix(Fq, [[_unembed(Fq, K, gen_mats[gname].rows[i][jj], emb)
                          for jj in range(n)] for i in range(n)])
        z, o = K.zero, K.one
        rows = [[z] * len(G) for _ in range(len(G))]
        for g in G:
            rows[index[gq * g]][index[g]] = o
        return Matrix(K, rows)

    reg = AlgebraModule(K, {nm: perm_matrix(nm) for nm in names})
    factors = composition_factors(reg, seed=seed)
    distinct = []
    for f in factors:
        if not any(are_isomorphic(f, d, seed=seed) for d in distinct):
            distinct.append(f)
    return distinct


def _unembed(Fq, K, value, emb):
    for x in Fq.elements():
        if emb(x) == value:
            return x
    raise ValueError("value is not in the subfield")


# -- partitions and tableaux ----------------------------------------------

def all_partitions(d):
    """All partitions of d, in reverse lexicographic order."""
    out = []

    def rec(remaining, maxpart, prefix):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for x in range(min(maxpart, remaining), 0, -1):
            rec(remaining - x, x, prefix + [x])

    rec(d, d, [])
    return out


def recompose_digits(digits, p):
    """Inverse of digit_decomposition (digits may carry trailing zeros)."""
    n = max((len(d) for d in digits), default=0)
    lam = [0] * n
    for i, d in enumerate(digits):
        for j, x in enumerate(d):
            lam[j] += p ** i * x
    return normalize_partition(lam)


def hook_length_count(lam):
    """Number of standard tableaux by the hook length formula."""
    lam = normalize_partition(lam)
    conj = conjugate(lam)
    d = sum(lam)
    num = factorial(d)
    den = 1
    for i, li in enumerate(lam):
        for j in range(li):
            den *= (li - j) + (conj[j] - i) - 1
    return num // den


def semistandard_count(lam, n):
    """Number of semistandard tableaux of shape lam with entries in
    1..n, by direct enumeration (the char-0 dimension of S_lam)."""
    lam = normalize_partition(lam)
    if not lam:
        return 1
    if len(lam) > n:
        return 0
    rows = len(lam)

    def rec(cells):
        # cells: filled rows so far as lists
        i = len(cells)
        if i == rows:
            yield 1
            return
        for row in product(range(1, n + 1), repeat=lam[i]):
            if any(a > b for a, b in zip(row, row[1:])):
                continue
            if i > 0 and any(cells[i - 1][j] >= row[j]
                             for j in range(lam[i])):
                continue
            yield from rec(cells + [list(row)])
    return sum(rec([]))


# -- tabloids, polytabloids and Schur vectors -----------------------------

def all_tabloids(lam):
    """Every tabloid of shape lam, sorted, read off all d! permutations."""
    d = sum(lam)
    seen = set()
    out = []
    for pi in permutations(range(1, d + 1)):
        rows = []
        k = 0
        for li in lam:
            rows.append(tuple(sorted(pi[k:k + li])))
            k += li
        t = tuple(rows)
        if t not in seen:
            seen.add(t)
            out.append(t)
    out.sort()
    return out


def column_stabilizer(tableau, lam):
    """Every permutation of the column stabilizer of a tableau, as a dict
    on its entries, with its sign."""
    conj = conjugate(lam)
    cols = []
    for j in range(len(conj)):
        cols.append([tableau[i][j] for i in range(conj[j])])
    perms = []
    per_col = []
    for col in cols:
        colperms = []
        for pi in permutations(col):
            sgn = _perm_sign_on(col, pi)
            colperms.append((dict(zip(col, pi)), sgn))
        per_col.append(colperms)
    for combo in product(*per_col):
        mapping = {}
        sgn = 1
        for m, s in combo:
            mapping.update(m)
            sgn *= s
        perms.append((mapping, sgn))
    return perms


def polytabloid_vector(tableau, lam, tabloid_index, k):
    """The polytabloid of a tableau in tabloid coordinates, summed in k
    term by term over its column stabilizer."""
    v = [k.zero] * len(tabloid_index)
    for mapping, sgn in column_stabilizer(tableau, lam):
        t2 = tuple(tuple(sorted(mapping[x] for x in row)) for row in tableau)
        i = tabloid_index[t2]
        c = k.one if sgn > 0 else k.neg(k.one)
        v[i] = k.add(v[i], c)
    return v


def schur_image_vectors(lam, n, K):
    """The images of the exterior-power product basis in the product of
    symmetric powers Sym^(lam_1) x ..., one per choice of strictly
    increasing rows of K^n in each column, summed term by term."""
    lam = normalize_partition(lam)
    conj = conjugate(lam)
    sym = _sym_basis(n, lam)
    index = {b: i for i, b in enumerate(sym)}
    vectors = []
    col_choices = [list(combinations(range(n), c)) for c in conj]
    for choice in product(*col_choices):
        v = [K.zero] * len(sym)
        per_col = []
        for subset in choice:
            per_col.append([(pi, _perm_sign_on(subset, pi))
                            for pi in permutations(subset)])
        for combo in product(*per_col):
            # cell (i, j) gets combo[j][0][i]
            sign = 1
            for _, s in combo:
                sign *= s
            key = []
            for i, li in enumerate(lam):
                key.append(tuple(sorted(combo[j][0][i] for j in range(li))))
            idx = index[tuple(key)]
            c = K.one if sign > 0 else K.neg(K.one)
            v[idx] = K.add(v[idx], c)
        vectors.append(v)
    return sym, vectors


def dense_norm_basis(M, n, K):
    """The RREF basis of the image of the norm (the sum of all of S_d) on
    (K^n)^{tensor d} tensor M: the column space of the whole
    n^d dim M square norm matrix, accumulated columnwise.  The (t, m)
    column picks up, for each sigma, the m-th column of sigma on M
    placed in block sigma(t)."""
    d = len(M.labels["c"])
    dm = M.dimension
    dim_big = n ** d * dm
    norm_rows = [[K.zero] * dim_big for _ in range(dim_big)]
    tuples = list(product(range(n), repeat=d))
    tindex = {t: i for i, t in enumerate(tuples)}
    perm_matrix = dict(monoid_actions(
        M, lambda g, pi: tuple(g[x - 1] for x in pi),
        tuple(range(1, d + 1))))
    for perm in permutations(range(1, d + 1)):
        inv = [0] * d
        for i in range(d):
            inv[perm[i] - 1] = i
        Msig = perm_matrix[perm]
        for ti, t in enumerate(tuples):
            u = tindex[tuple(t[inv[k]] for k in range(d))]
            for a in range(dm):
                row = norm_rows[u * dm + a]
                mrow = Msig.rows[a]
                for m in range(dm):
                    c = mrow[m]
                    if c != K.zero:
                        col = ti * dm + m
                        row[col] = K.add(row[col], c)
    return Subspace(K, dim_big, [list(c) for c in zip(*norm_rows)]).basis


# -- rings ----------------------------------------------------------------

def coefficient_abmap(phi):
    """A map on a ring, read on its additive group presented as a product
    of cyclic groups: Z/m for each cyclic component Z/m and Z/p for each
    prime-field coefficient of each field component F_{p^e}, an element
    labelled by its residues and coefficient vectors."""
    ring = phi.ring
    orders = []
    for c in ring.components:
        if isinstance(c, Field):
            orders.extend([c.char] * c.degree)
        else:
            orders.append(c.m)

    def coefficients(a):
        out = []
        for c, v in zip(ring.components, ring.parts(a)):
            out.extend(c.to_coeffs(v) if isinstance(c, Field) else (v,))
        return tuple(out)
    G = FiniteRing("x".join(f"Z/{m}" for m in orders))
    return AbMap(G, phi.field, table={G.label_of(coefficients(a)): phi(a)
                                      for a in ring.elements()})


# -- functors -------------------------------------------------------------

def cross_effect_check(F, d):
    """The binomial bookkeeping dim F(A^d) = sum_s C(d,s) dim cr_s."""
    total = 0
    for s in range(d + 1):
        cs, _ = cross_effect(F, s)
        total += comb(d, s) * cs
    return total == F.dim(d)


# -- products and socles ---------------------------------------------------

def dense_apply(M, v):
    """M times the column vector v, every pair of entries multiplied and
    summed from ``F.zero``."""
    F = M.field
    out = []
    for row in M.rows:
        acc = F.zero
        for a, b in zip(row, v):
            acc = F.add(acc, F.mul(a, b))
        out.append(acc)
    return out


def hom_space_socle(mod, seed=0):
    """RREF basis rows of the socle: the columns of every homomorphism
    from each iso-class of composition factors into ``mod``."""
    reps = []
    for S in composition_factors(mod, seed=seed):
        if not any(are_isomorphic(S, T, seed=seed) for T in reps):
            reps.append(S)
    sp = Subspace(mod.field, mod.dimension)
    for S in reps:
        for T in hom_space(S, mod):
            for col in zip(*T.rows):
                sp.add_vector(list(col))
    return [list(r) for r in sp.basis]


# -- minimal polynomials by one solve per Krylov iterate -------------------

def solve_right_local_min_poly(A, v):
    """The monic m of least degree with m(A) v = 0: each iterate A^k v is
    solved against the earlier ones by ``Matrix.solve_right``."""
    F = A.field
    if all(x == F.zero for x in v):
        return [F.one]
    iterates = [list(v)]
    while True:
        nxt = A.apply_to_vector(iterates[-1])
        x = Matrix(F, iterates).transpose().solve_right(nxt)
        if x is not None:
            # A^k v = sum x_j A^j v  ->  x^k - sum x_j x^j
            return [F.neg(c) for c in x] + [F.one]
        iterates.append(nxt)


def solve_right_minimal_polynomial(A):
    """``modtools.minimal_polynomial`` on ``solve_right_local_min_poly``:
    the product of the local annihilators of the e_i, each taken relative
    to what the product so far already kills."""
    F, n = A.field, A.nrows
    m = [F.one]
    for i in range(n):
        # m(A) e_i by Horner's rule on the vector
        w = [m[-1] if k == i else F.zero for k in range(n)]
        for c in reversed(m[:-1]):
            w = A.apply_to_vector(w)
            w[i] = F.add(w[i], c)
        m = _poly_mul(m, solve_right_local_min_poly(A, w), F)
    return m


# -- elimination on list rows ----------------------------------------------

class ListSubspace:
    """An RREF row basis, each row a list of field elements, reduced with
    ``Field.row_sub`` and ``Field.row_scale``; coordinates are the
    multipliers of the reduction."""

    def __init__(self, field, ambient_dim, vectors=()):
        self.field = field
        self.ambient_dim = ambient_dim
        self.basis = []
        self.pivots = []
        for v in vectors:
            self.add_vector(v)

    def reduce(self, v, coords=None):
        z = self.field.zero
        v = list(v)
        for row, c in zip(self.basis, self.pivots):
            f = v[c]
            if coords is not None:
                coords.append(f)
            if f != z:
                v = self.field.row_sub(v, f, row)
        return v

    def contains(self, v):
        return all(x == self.field.zero for x in self.reduce(v))

    def coords(self, v):
        out = []
        if any(x != self.field.zero for x in self.reduce(v, out)):
            return None
        return out

    def coords_matrix(self, images):
        cols = []
        for v in images:
            x = self.coords(v)
            if x is None:
                raise ValueError("image outside the span of the basis")
            cols.append(x)
        return Matrix(self.field, [[x[i] for x in cols]
                                   for i in range(len(self.basis))],
                      len(cols))

    def add_vector(self, v):
        F = self.field
        v = self.reduce(v)
        for c, x in enumerate(v):
            if x != F.zero:
                v = F.row_scale(F.inv(x), v)
                for i, row in enumerate(self.basis):
                    if row[c] != F.zero:
                        self.basis[i] = F.row_sub(row, row[c], v)
                k = 0
                while k < len(self.pivots) and self.pivots[k] < c:
                    k += 1
                self.basis.insert(k, v)
                self.pivots.insert(k, c)
                return True
        return False


def rref_int(rows, ncols):
    """The nonzero RREF rows (as Fractions) and pivots of rows over Q:
    each row scaled to integers, fraction-free forward elimination, then
    back-substitution."""
    ints = []
    for row in rows:
        d = lcm(*[x.denominator for x in row])
        ints.append([x.numerator * (d // x.denominator) for x in row])
    rows = ints
    piv = []
    r = 0
    nrows = len(rows)
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        lead = rows[r]
        lc = lead[c]
        for i in range(r + 1, nrows):
            f = rows[i][c]
            if f:
                new = [lc * a - f * b for a, b in zip(rows[i], lead)]
                g = gcd(*new)
                rows[i] = [x // g for x in new] if g > 1 else new
        piv.append(c)
        r += 1
    out = [[Fraction(x) for x in rows[i]] for i in range(r)]
    for i in range(r - 1, -1, -1):
        c = piv[i]
        out[i] = [x / out[i][c] for x in out[i]]
        for k in range(i):
            f = out[k][c]
            if f:
                out[k] = [a - f * b for a, b in zip(out[k], out[i])]
    return out, piv


# -- additive multiples by repeated addition -------------------------------

def repeated_addition(ring, n, a):
    """n·a in a FiniteRing as |n| additions of a, or of -a when n < 0."""
    out = ring.zero
    x = a if n >= 0 else ring.neg(a)
    for _ in range(abs(n)):
        out = ring.add(out, x)
    return out


# -- deviations on finite sources by multisets ----------------------------

def multiset_deviation_vanishes(f, d):
    """Whether dev_d(f) is zero on every multiset of d source elements
    (dev_d is symmetric, so multisets cover every argument tuple)."""
    dev = deviation(f, d)
    zero = f.value_ops()[2]

    def is_zero(v):
        return v.is_zero() if isinstance(v, Matrix) else v == zero
    return all(is_zero(dev(*us))
               for us in combinations_with_replacement(f.source.elements(), d))


def window_deviation_vanishes(f, d):
    """Whether dev_d(f) vanishes on a Z window: f read afresh at each
    point of [-d*b, d*b], b = W // d, and its d-th differences there;
    b = 0 leaves dev_d(0,...,0) = 0, and dev_0 is f(0)."""
    add, neg, zero = f.value_ops()

    def is_zero(v):
        return v.is_zero() if isinstance(v, Matrix) else v == zero
    if d == 0:
        return is_zero(f(0))
    b = f.source.window // d
    if b == 0:
        return True
    table = [f(x) for x in range(-d * b, d * b + 1)]
    for _ in range(d):
        table = [add(y, neg(x)) for x, y in zip(table, table[1:])]
    return all(is_zero(v) for v in table)


def per_d_eml_degree(f, cap):
    """Least d <= cap with dev_{d+1}(f) zero, testing each d afresh: on a
    Z window by ``window_deviation_vanishes``."""
    vanishes = window_deviation_vanishes if isinstance(f.source, AbGroup) \
        else deviation_vanishes
    return next((d for d in range(cap + 1) if vanishes(f, d + 1)),
                NotPolynomialUpTo(cap))


def depth_first_deviation_vanishes(f, d):
    """Whether dev_d(f) vanishes on a finite source, d >= 1, walking the
    nondecreasing words of additive generators depth first; a zero table
    is not differenced further."""
    U = f.source
    # shifts[i][u] is the label of u + g_i
    shifts = [[U.add(u, g) for u in U.elements()]
              for g in U.additive_generators()]
    add, neg, zero = f.value_ops()

    def nonzero(t):
        return not all(v.is_zero() if isinstance(v, Matrix) else v == zero
                       for v in t)
    # (D_w f, least next letter, letters left)
    stack = [([f(u) for u in U.elements()], 0, d)]
    while stack:
        t, j, k = stack.pop()
        if not nonzero(t):
            continue
        if k == 0:
            return False
        stack.extend(([add(t[s], neg(x)) for x, s in zip(t, shifts[i])],
                      i, k - 1) for i in range(j, len(shifts)))
    return True


# -- dense generator matrices of Schur and elementary functors ------------

def dense_sym_action(n, lam, K, g, sym, index):
    """Matrix of g on the symmetric-power product space, testing every
    entry of g for each tensor factor."""
    cols = []
    z = K.zero
    for basis in sym:
        col = [z] * len(sym)
        # expand g acting on a lift of the multiset basis vector
        flat = [x for row in basis for x in row]
        terms = [(K.one, [])]
        for x in flat:
            new = []
            for coeff, prefix in terms:
                for i in range(n):
                    c = g.rows[i][x]
                    if c != z:
                        new.append((K.mul(coeff, c), prefix + [i]))
            terms = new
        for coeff, flat2 in terms:
            key = []
            k = 0
            for li in lam:
                key.append(tuple(sorted(flat2[k:k + li])))
                k += li
            idx = index[tuple(key)]
            col[idx] = K.add(col[idx], coeff)
        cols.append(col)
    return Matrix(K, [list(r) for r in zip(*cols)])


def dense_kron(A, B):
    """The Kronecker product, every pair of entries tested: index (i, k)
    -> i * B.ncols + k."""
    F = A.field
    return Matrix(F, [[F.mul(a, b) if a and b else F.zero
                       for a in ra for b in rb]
                      for ra in A.rows for rb in B.rows], A.ncols * B.ncols)


def dense_tensor_action(g, d, dm):
    """g^{tensor d} (x) I_dm as a dense matrix."""
    out = Matrix.identity(g.field, 1)
    for _ in range(d):
        out = dense_kron(out, g)
    return dense_kron(out, Matrix.identity(g.field, dm))


def echelon_restriction(mod, sp):
    """The generators of ``mod`` on the invariant ``Subspace`` sp, in its
    echelon basis: every image of a basis row written by one
    ``coords_matrix``, which raises ValueError if one leaves the span."""
    rows = sp.basis
    k = len(rows)
    names = list(mod.generators)
    X = sp.coords_matrix([mod.generators[name].apply_to_vector(list(row))
                          for name in names for row in rows])
    return {name: Matrix(mod.field, [r[i * k:(i + 1) * k] for r in X.rows],
                         k)
            for i, name in enumerate(names)}


# -- multiplicativity on every pair ----------------------------------------

def all_pairs_multiplicative(phi):
    """Raise NotMultiplicative unless phi(1) = 1 and phi(ab) = phi(a)phi(b)
    for every pair, naming the first failing pair in label order."""
    R, K = phi.ring, phi.field
    if phi(R.one) != K.one:
        raise NotMultiplicative("does not send 1 to 1")
    els = R.elements()
    for a in els:
        for b in els:
            if phi(R.mul(a, b)) != K.mul(phi(a), phi(b)):
                raise NotMultiplicative(f"fails at {a} * {b}")


# -- generators of M_n(A), every transvection listed --------------------

def multiplicative_generators(ring):
    """A small set of elements generating A as a ring: one generator
    per component (a field generator, or 1 for cyclic parts), embedded
    with 1s elsewhere replaced by the component idempotents."""
    return [ring.embed(i, c.gen() if isinstance(c, Field) else c.one)
            for i, c in enumerate(ring.components)]


def full_matrix_monoid_generators(ring, n):
    """Generators of the multiplicative monoid M_n(A): transvections
    e_{ij}(r) over ring generators, the scalar embeddings diag(a,1,...,1),
    permutation matrices, and the corank-one idempotent diag(1,...,1,0).

    Matrices are tuples of row tuples of ring elements.
    """
    if n < 1:
        raise ValueError(f"rank n must be >= 1, got {n}")
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
    rgens = multiplicative_generators(ring) + ring.additive_generators()
    for r in sorted(set(rgens)):
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


# -- the hom-space system by Kronecker products ---------------------------

def kron_hom_rows(mod_m, mod_n):
    """The rows of (I_a kron A^t) - (B kron I_b), one block per generator
    (A of M, B of N, a = dim N, b = dim M): T A - B T = 0 on vec(T)."""
    F = mod_m.field
    Ia = Matrix.identity(F, mod_n.dimension)
    Ib = Matrix.identity(F, mod_m.dimension)
    rows = []
    for name in mod_m.gen_names():
        A = mod_m.generators[name]
        B = mod_n.generators[name]
        rows.extend((Ia.kron(A.transpose()) - B.kron(Ib)).rows)
    return rows


def rref_kernel_basis(M):
    """The kernel of M from its padded rref: each free column j gives e_j
    minus the entries of column j at the pivots."""
    R, piv = M.rref()
    n = M.ncols
    F = M.field
    pivset = set(piv)
    free = [j for j in range(n) if j not in pivset]
    basis = []
    for j in free:
        v = [F.zero] * n
        v[j] = F.one
        for i, pc in enumerate(piv):
            v[pc] = F.neg(R.rows[i][j])
        basis.append(v)
    return Matrix(F, basis, n).rref()[0]


def kron_hom_space(mod_m, mod_n):
    """``modtools.hom_space`` on the Kronecker system."""
    F = mod_m.field
    a, b = mod_n.dimension, mod_m.dimension
    ker = rref_kernel_basis(Matrix(F, kron_hom_rows(mod_m, mod_n)))
    return [Matrix(F, [list(krow[i * b:(i + 1) * b]) for i in range(a)])
            for krow in ker.rows]


# -- the Meataxe draw with each minimal polynomial factored whole ---------

def power_sum_eval_matrix(f, A):
    """f(A) as the sum of c_k A^k, one product per power of A."""
    F = A.field
    n = A.nrows
    out = Matrix.zero(F, n, n)
    P = Matrix.identity(F, n)
    for c in f:
        if c != F.zero:
            out = out + P.scale(c)
        P = P * A
    return out


def _identity_started_algebra_element(mod, rng):
    gens = mod.gen_list()
    F = mod.field
    n = mod.dimension
    els = list(F.elements())
    total = Matrix.zero(F, n, n)
    for _ in range(rng.randrange(2, 4)):
        term = Matrix.identity(F, n)
        for _ in range(rng.randrange(1, 4)):
            term = term * gens[rng.randrange(len(gens))]
        total = total + term.scale(els[rng.randrange(1, len(els))])
    return total


def unsplit_find_proper_submodule(mod, seed=0):
    """``find_proper_submodule`` with each draw's minimal polynomial
    factored whole; also returns whether the deciding draw had a linear
    factor x - a with a one-dimensional kernel."""
    F, n = mod.field, mod.dimension
    if n == 1:
        return None, True
    gens = mod.gen_list()
    rng = random.Random(f"holt-rees:{seed}")
    thinnest = None
    for _ in range(modtools._ATTEMPTS):
        theta = _identity_started_algebra_element(mod, rng)
        factors = modtools._berlekamp_factor(
            modtools.minimal_polynomial(theta), F)
        for i, f in enumerate(factors):
            N = power_sum_eval_matrix(f, theta)
            ker = N.kernel_basis()
            if ker.nrows == len(f) - 1:
                return (modtools._norton(mod, N, ker, sweep=False),
                        ker.nrows == 1)
            if i == 0:
                sub = modtools._proper_spin(F, n, ker.rows[:1], gens)
                if sub is not None:
                    return sub, False
            if thinnest is None or ker.nrows < thinnest[1].nrows:
                thinnest = N, ker
    return modtools._norton(mod, *thinnest, sweep=True), False


# -- ring matrix products entry by entry ----------------------------------

def elementwise_mat_mul(ring, A, B, cols):
    """The product of two ring matrices with ``ring.add`` and
    ``ring.mul`` on each entry."""
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


def tuple_row_table(ring, h, k, cols):
    """The index of x.h in A^cols for every row vector x in A^k, in index
    order: one tuple per vector x.h, built one row of h at a time, as
    x = (x', a) has x.h = x'.h + a.h[t], read as mixed-radix digits."""
    q = ring.size
    if not cols:
        return [0] * q ** k
    add, mul = ring.cayley_tables
    vecs = [(ring.zero,) * cols]
    for t in range(k):
        row = h[t]
        vecs = [tuple([add[u][mul[a][y]] for u, y in zip(v, row)])
                for v in vecs for a in range(q)]
    weights = [q ** j for j in reversed(range(cols))]
    return [sum(d * w for d, w in zip(v, weights)) for v in vecs]


# -- the command line parser, built in full -------------------------------

def build_parser():
    top = argparse.ArgumentParser(prog="steinlab", allow_abbrev=False)
    top.add_argument("--seed", type=int, default=0)
    top.add_argument("--jobs", type=int, default=1)
    top.add_argument("--format", choices=("json", "tsv"), default=None)
    sub = top.add_subparsers(dest="module", required=True)

    pt = sub.add_parser("partition")
    pt.add_argument("action", choices=("conj", "restricted", "digits"))
    pt.add_argument("--lam", required=True)
    pt.add_argument("--p", type=int, default=2)
    pt.add_argument("--r", type=int, default=1)

    em = sub.add_parser("emlpoly")
    em.add_argument("action", choices=("degree", "deviate", "homog",
                                       "factor", "linearize"))
    em.add_argument("--ring")
    em.add_argument("--map")
    em.add_argument("--window", type=int, default=60)
    em.add_argument("--poly")
    em.add_argument("--d", type=int, default=2)
    em.add_argument("--cap", type=int, default=6)
    em.add_argument("--orders")
    em.add_argument("--coeff", default="F_3")

    mx = sub.add_parser("meataxe")
    mx.add_argument("action", choices=("simple", "end", "iso", "tensor",
                                       "twist"))
    mx.add_argument("--module", dest="modfile", required=True)
    mx.add_argument("--module2", dest="modfile2")
    mx.add_argument("--i", type=int, default=1)

    sc = sub.add_parser("schur")
    sc.add_argument("action", choices=("eval", "socle", "weight",
                                       "dettwist"))
    sc.add_argument("--lam", required=True)
    sc.add_argument("--n", type=int, required=True)
    sc.add_argument("--coeff", required=True)

    el = sub.add_parser("elementary")
    el.add_argument("action", choices=("eval",))
    el.add_argument("--lam", required=True)
    el.add_argument("--n", type=int, required=True)
    el.add_argument("--coeff", required=True)

    fu = sub.add_parser("functor")
    fu.add_argument("action", choices=("crosseffect", "degree",
                                       "dimtable", "iext", "ideal",
                                       "tensor", "simple"))
    fu.add_argument("--ring", required=True)
    fu.add_argument("--coeff", required=True)
    fu.add_argument("--functor", required=True)
    fu.add_argument("--rank", type=int, default=3)
    fu.add_argument("--n", type=int, default=1)
    fu.add_argument("--cap", type=int, default=4)

    sb = sub.add_parser("steinberg")
    sb.add_argument("action", choices=("classify", "build", "unique",
                                       "product"))
    sb.add_argument("--n", type=int, default=2)
    sb.add_argument("--q", type=int, default=2)
    sb.add_argument("--lam")
    sb.add_argument("--lam2")
    sb.add_argument("--field")
    sb.add_argument("--module", dest="modfile")
    sb.add_argument("--names1")
    sb.add_argument("--names2")

    bt = sub.add_parser("batch")
    bt.add_argument("manifest")
    return top
