"""Simple modules of GL_n(F_q) by digit decomposition: each q-restricted
partition is split into p-adic digit partitions, the corresponding
socle-simple modules are Frobenius-twisted and tensored, and the result
is restricted to a generating set of GL_n(F_q).  Classification checks
its count of simples against q^n - q^(n-1), the number of p-regular
(semisimple) conjugacy classes; nothing here enumerates the group.
"""

from itertools import product
from math import lcm

from .fields import CapExceeded, Field, MAX_DEGREE, prime_power
from .matrices import Matrix
from .modtools import (AlgebraModule, are_isomorphic, composition_factors,
                       end_dim, frobenius_twist, is_simple, tensor)
from .schurfun import monoid_generator_elements, socle_simple
from .symgrp import digit_decomposition, is_p_restricted, normalize_partition

CLASSIFY_CAPS = {(2, 2), (2, 4), (3, 2)}  # plus (1, q) for q <= 9


def _check_caps(n, q):
    if (n, q) in CLASSIFY_CAPS:
        return
    if n == 1 and q <= 9:
        return
    raise CapExceeded(f"classification cap exceeded for (n, q) = ({n}, {q})")


class SteinbergDatum:
    """A q-restricted partition, its p-adic digit partitions, and the
    module of GL_n(F_q) they assemble to."""

    def __init__(self, n, q, lam, digits, module, field):
        self.n = n
        self.q = q
        self.p, self.r = prime_power(q)
        self.lam = lam
        self.digits = digits
        self.module = module
        self.field = field

    @property
    def dimension(self):
        return self.module.dimension

    def __repr__(self):
        return (f"SteinbergDatum(lambda={self.lam}, n={self.n}, "
                f"q={self.q}, dim={self.dimension})")


def group_generator_matrices(n, q, K):
    """Generators of GL_n(F_q) inside GL_n(K): the monoid generators of
    ``schurfun.monoid_generator_elements`` without the idempotent "e", with
    "d" = diag(z, 1, ..., 1) turned into diag(z^j, 1, ..., 1), where z^j
    generates F_q^x."""
    p, e = prime_power(q)
    if K.char != p or K.degree % e != 0:
        raise ValueError(f"{K.label()} does not contain F_{q}")
    out = monoid_generator_elements(n, K)
    del out["e"]
    zj = K.pow(K.gen(), (K.order - 1) // (q - 1))
    out["d"] = Matrix(K, [[zj if i == j == 0 else x for j, x in enumerate(r)]
                          for i, r in enumerate(out["d"].rows)])
    return out


def build(lam, n, q, K=None, seed=0, *, _simples=None):
    """The simple GL_n(F_q)-module attached to a q-restricted partition:
    the tensor product over i of the i-fold Frobenius twist of the
    socle-simple module of the i-th digit partition, restricted to the
    group generators.  ``classify`` and ``uniqueness_check`` share a
    dict ``_simples`` (digit -> simple) across their builds."""
    if n < 1:
        raise ValueError(f"rank n must be >= 1, got {n}")
    p, e = prime_power(q)
    if K is None:
        K = splitting_field(n, q)
    if K.char != p or K.degree % e != 0:
        raise ValueError(f"{K.label()} does not contain F_{q}")
    lam = normalize_partition(lam)
    if len(lam) > n:
        raise ValueError(f"{lam} has more than {n} parts")
    if not is_p_restricted(lam, q):
        raise ValueError(f"{lam} is not {q}-restricted")
    padded = tuple(lam) + (0,) * (n - len(lam))
    digits = [tuple(dg) + (0,) * (n - len(dg))
              for dg in digit_decomposition(padded, p, e)]
    labels = group_generator_matrices(n, q, K)
    names = list(labels)
    j = (K.order - 1) // (q - 1)
    restricted = []
    expected = 1
    for i, dg in enumerate(digits):
        Li = None if _simples is None else _simples.get(dg)
        if Li is None:
            Li = socle_simple(dg, n, K, seed=seed)
        if _simples is not None:
            _simples[dg] = Li
        expected *= Li.dimension
        twisted = frobenius_twist(Li, i) if i else Li
        gens = {nm: twisted.generators[nm] for nm in names}
        gens["d"] = gens["d"] ** j
        restricted.append(AlgebraModule(K, gens))
    module = restricted[0]
    for piece in restricted[1:]:
        module = tensor(module, piece)
    module = AlgebraModule(K, module.generators,
                           labels={nm: labels[nm] for nm in names},
                           name=f"L_{lam}(F_{q}^{n})")
    if module.dimension != expected:
        raise RuntimeError("dimension is not multiplicative over digits")
    return SteinbergDatum(n, q, lam, digits, module, K)


def splitting_field(n, q):
    """F_{q^s} with s = lcm(1, ..., n), or F_q itself when e*s exceeds
    ``MAX_DEGREE`` for q = p^e (the representatives happen to be
    absolutely simple over F_q in the capped cases where that occurs).

    The p'-part of the order of g in GL_n(F_q) is the order of its
    semisimple part, whose eigenvalues lie in fields F_{q^k} with k <= n;
    so the p'-exponent of the group is lcm(q^k - 1 : k <= n), and
    q^k - 1 divides q^s - 1 exactly when k divides s.  The least s whose
    F_{q^s} holds every such eigenvalue is therefore lcm(1, ..., n)."""
    _, e = prime_power(q)
    s = lcm(*range(1, n + 1))
    return Field.of_order(q ** s if e * s <= MAX_DEGREE else q)


# -- classification ------------------------------------------------------

def q_restricted_representatives(n, q):
    """One representative per identification class lambda ~ lambda +
    (q-1, ..., q-1): the q-restricted partitions with at most n parts
    whose last part stays below q - 1 (a last part of q - 1 is the
    shifted copy of a last part of zero)."""
    out = []
    for last in range(q - 1):
        for diffs in product(range(q), repeat=n - 1):
            lam = [0] * n
            lam[n - 1] = last
            for i in range(n - 2, -1, -1):
                lam[i] = lam[i + 1] + diffs[i]
            out.append(tuple(lam))
    return sorted(set(out))


def classify(n, q, K=None, seed=0):
    """All iso-classes of simple GL_n(F_q)-modules, as SteinbergDatum
    objects in lexicographic partition order; simplicity, pairwise
    non-isomorphism, scalar endomorphisms, and agreement with the
    p-regular class count q^n - q^(n-1) are all asserted.  The draw that
    proves a module simple mostly proves End = K too, and a generator
    trace mostly proves two modules non-isomorphic (``modtools``)."""
    if n < 1:
        raise ValueError(f"rank n must be >= 1, got {n}")
    _check_caps(n, q)
    if K is None:
        K = splitting_field(n, q)
    reps = q_restricted_representatives(n, q)
    simples = {}
    data = [build(lam, n, q, K, seed=seed, _simples=simples)
            for lam in reps]
    for d in data:
        if not is_simple(d.module, seed=seed):
            raise RuntimeError(f"module for {d.lam} is not simple")
        if end_dim(d.module) != 1:
            raise RuntimeError(f"module for {d.lam} is not absolutely "
                               f"simple over {K.label()}")
    for i in range(len(data)):
        for jj in range(i + 1, len(data)):
            if are_isomorphic(data[i].module, data[jj].module, seed=seed):
                raise RuntimeError(
                    f"modules for {data[i].lam} and {data[jj].lam} "
                    f"coincide")
    oracle = q ** n - q ** (n - 1)
    if len(data) != oracle:
        raise RuntimeError(
            f"found {len(data)} classes but the group has {oracle} "
            f"p-regular conjugacy classes")
    return data


def classify_table(n, q, K=None, seed=0):
    """TSV-ready rows (lambda, digits, dim, simple?, class-id)."""
    data = classify(n, q, K=K, seed=seed)
    rows = []
    for i, d in enumerate(data):
        rows.append((",".join(str(x) for x in d.lam),
                     ";".join(",".join(str(x) for x in dg)
                              for dg in d.digits),
                     str(d.dimension), "yes", str(i)))
    return rows


# -- uniqueness ----------------------------------------------------------

def uniqueness_check(lam, lam2, n, q, K=None, seed=0):
    """Builds both modules; when they are isomorphic, verifies that the
    digit sequences agree or differ coherently by the determinant-power
    twist (every digit shifted by (p-1, ..., p-1) the same way)."""
    simples = {}
    a = build(lam, n, q, K, seed=seed, _simples=simples)
    b = build(lam2, n, q, a.field, seed=seed, _simples=simples)
    iso = are_isomorphic(a.module, b.module, seed=seed)
    p = a.p
    shift = tuple(p - 1 for _ in range(n))
    relation = None
    if a.digits == b.digits:
        relation = "equal"
    else:
        deltas = set()
        ok = True
        for da, db in zip(a.digits, b.digits):
            dd = tuple(y - x for x, y in zip(da, db))
            if dd == (0,) * n:
                ok = False
                break
            deltas.add(dd)
        if ok and (deltas == {shift} or
                   deltas == {tuple(-x for x in shift)}):
            relation = "det^(p-1) twist"
    consistent = (not iso) or relation is not None
    return {"isomorphic": iso, "relation": relation if iso else None,
            "consistent": consistent}


# -- product rings -------------------------------------------------------

def product_decompose(M, names1, names2, seed=0):
    """Split a simple module of a product group G1 x G2 into simple
    factor modules: restrict to each factor, check the restriction is
    isotypic, and verify the outer tensor of the isotypic pieces
    recovers the module."""
    if not is_simple(M, seed=seed):
        raise ValueError("module is not simple")
    pieces = []
    for names in (names1, names2):
        res = AlgebraModule(M.field, {nm: M.generators[nm]
                                      for nm in names})
        factors = composition_factors(res, seed=seed)
        first = factors[0]
        for f in factors[1:]:
            if not are_isomorphic(first, f, seed=seed):
                raise RuntimeError("restriction is not isotypic")
        pieces.append(first)
    m1, m2 = pieces
    gens = {}
    i2 = Matrix.identity(M.field, m2.dimension)
    i1 = Matrix.identity(M.field, m1.dimension)
    for nm in names1:
        gens[nm] = m1.generators[nm].kron(i2)
    for nm in names2:
        gens[nm] = i1.kron(m2.generators[nm])
    outer = AlgebraModule(M.field, gens)
    if not are_isomorphic(M, outer, seed=seed):
        raise RuntimeError("outer tensor of the factors misses the "
                           "module")
    return m1, m2
