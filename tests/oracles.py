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
it packed its rows, and ``multiset_deviation_vanishes`` the walk over
multisets that ``deviation_vanishes`` made on finite sources before it
took differences along generators; ``per_d_eml_degree`` is the degree
search that ran it afresh for each d.  ``build_parser`` is the command
line parser that ``cli.build_parser`` built in full, every module's
arguments included, before it added only those of the module a job
names.
"""

import argparse
from itertools import (combinations, combinations_with_replacement,
                       permutations, product)
from math import comb, factorial

from steinlab.emlpoly import (AbGroup, AbMap, NotPolynomialUpTo, deviation,
                              deviation_vanishes)
from steinlab.fields import Field
from steinlab.functorcat import cross_effect
from steinlab.matrices import Matrix
from steinlab.modtools import (AlgebraModule, are_isomorphic,
                               composition_factors, monoid_actions)
from steinlab.schurfun import _sym_basis
from steinlab.steinberg import group_generator_matrices, group_generator_names
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
    names = group_generator_names(n)
    gen_mats = group_generator_matrices(n, q, K)

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
    return Matrix(K, norm_rows).column_space_basis().rows


# -- rings ----------------------------------------------------------------

def coefficient_abmap(phi):
    """A map on a ring, read on its additive group presented as a product
    of cyclic groups: Z/m for each cyclic component Z/m and Z/p for each
    prime-field coefficient of each field component F_{p^e}, an element
    written as its residues and coefficient vectors."""
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
    return AbMap(AbGroup(orders), phi.field,
                 table={coefficients(a): phi(a) for a in ring.elements()})


# -- functors -------------------------------------------------------------

def cross_effect_check(F, d):
    """The binomial bookkeeping dim F(A^d) = sum_s C(d,s) dim cr_s."""
    total = 0
    for s in range(d + 1):
        cs, _ = cross_effect(F, s)
        total += comb(d, s) * cs
    return total == F.dim(d)


# -- elimination on list rows ----------------------------------------------

class ListSubspace:
    """An RREF row basis over a finite field, each row a list of labels,
    reduced with ``Field.row_sub`` and ``Field.row_scale``."""

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


def per_d_eml_degree(f, cap):
    """Least d <= cap with dev_{d+1}(f) zero, testing each d afresh."""
    return next((d for d in range(cap + 1) if deviation_vanishes(f, d + 1)),
                NotPolynomialUpTo(cap))


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
