"""Schur and elementary functors evaluated on K^n.

Representations of the multiplicative monoid M_n(K) are ``AlgebraModule``s
on a fixed generating set, labelled by its matrices: the torus generator
d = diag(z,1,...,1) for a multiplicative generator z, the corank-one
idempotent e = diag(1,...,1,0), a transvection t, the swap s and the cycle
c; the rank n is ``labels["d"].nrows``.  Over Q the same matrices (with
z = 2) are kept even though they only generate a submonoid.  On the
symmetric-power product and on (K^n)^{tensor d} (x) M a generator acts by
sparse column images (``matrices.ColumnImages``), each basis vector
expanded through the nonzero entries of g's columns; no dense generator
matrix is built there.  The Schur vectors are the column alternants of
``symgrp.column_alternant``, and the elementary functor reads the
permutation matrices of its S_d-module from ``modtools.monoid_actions``.
Over Q the generators and the permutation actions have integral entries,
so the column images and the norm are summed in ints, and the restriction
to the value works in ints too (``Subspace.action_matrix``): a
``Fraction`` is built only for an entry of a restricted generator.
"""

from itertools import combinations, combinations_with_replacement, product

from .fields import CapExceeded
from .matrices import ColumnImages, Matrix, Subspace
from .modtools import (AlgebraModule, are_isomorphic, monoid_actions,
                       restrict_to_submodule, socle as _socle_rows, tensor)
from .symgrp import (column_alternant, conjugate, normalize_partition,
                     is_p_restricted)


class FieldTooSmall(ValueError):
    pass


DIM_CAP = 4096


def monoid_generator_elements(n, K):
    """The fixed generating elements of M_n(K) as matrices, by name."""
    if n < 0:
        raise ValueError(f"rank n must be >= 0, got {n}")
    z = K.gen()
    gens = {}
    gens["d"] = Matrix(K, [[z if i == j == 0 else
                            (K.one if i == j else K.zero)
                            for j in range(n)] for i in range(n)])
    gens["e"] = Matrix(K, [[K.one if i == j and i < n - 1 else K.zero
                            for j in range(n)] for i in range(n)])
    if n >= 2:
        gens["t"] = Matrix(K, [[K.one if i == j else
                                (K.one if (i, j) == (0, 1) else K.zero)
                                for j in range(n)] for i in range(n)])
        swap = list(range(n))
        swap[0], swap[1] = 1, 0
        gens["s"] = Matrix(K, [[K.one if swap[i] == j else K.zero
                                for j in range(n)] for i in range(n)])
    if n >= 3:
        cyc = [(i + 1) % n for i in range(n)]
        gens["c"] = Matrix(K, [[K.one if cyc[j] == i else K.zero
                                for j in range(n)] for i in range(n)])
    return gens


def _tensor_power(g, d):
    out = Matrix.identity(g.field, 1)
    for _ in range(d):
        out = out.kron(g)
    return out


def _zero_module(K, elements, name):
    zero = Matrix.zero(K, 0, 0)
    return AlgebraModule(K, {nm: zero for nm in elements}, labels=elements,
                         name=name)


def _ints(cols):
    """Column pairs with each integral entry an int (labels already are)."""
    return [[(i, c.numerator if c.denominator == 1 else c) for i, c in col]
            for col in cols]


def _norm_image(M, n, K):
    """The image of the norm N, the sum of all of S_d, on
    (K^n)^{tensor d} tensor M.  As N sigma = N, it is spanned by the
    columns N(e_t (x) e_m) with t weakly increasing: for each sigma,
    column m of sigma on M placed in block sigma(t).  Sums start at 0,
    every field's zero, so over Q they stay ints while sigma's entries are
    integral (``_ints``)."""
    d = len(M.labels["c"])
    dm = M.dimension
    tindex = {t: i for i, t in enumerate(product(range(n), repeat=d))}
    # left action: (g o pi)(i) = g(pi(i)); each sigma is kept as its
    # inverse, with the nonzero pairs of its columns on M
    perms = [(sorted(range(d), key=perm.__getitem__),
              _ints(Msig.column_pairs()))
             for perm, Msig in monoid_actions(
                 M, lambda g, pi: tuple(g[x - 1] for x in pi),
                 tuple(range(1, d + 1)))]
    add = K.add
    vecs = []
    for t in combinations_with_replacement(range(n), d):
        cols = [[0] * (len(tindex) * dm) for _ in range(dm)]
        for inv, mcols in perms:
            u = tindex[tuple(t[k] for k in inv)] * dm
            for col, pairs in zip(cols, mcols):
                for a, c in pairs:
                    col[u + a] = add(col[u + a], c)
        vecs.extend(cols)
    return Subspace(K, len(tindex) * dm, vecs)


def elementary_value(M, n, K):
    """Image of the norm (the sum of all of S_d) acting on
    (K^n)^{tensor d} tensor M, with the monoid acting by g^{tensor d};
    M is an S_d-module labelled by one-line permutations."""
    d = len(M.labels["c"])
    if M.field is not K:
        raise ValueError("module field mismatch")
    elements = monoid_generator_elements(n, K)
    dim_big = n ** d * M.dimension
    if dim_big > DIM_CAP:
        raise CapExceeded(f"dimension {dim_big} exceeds cap {DIM_CAP}")
    if not dim_big or (sp := _norm_image(M, n, K)).dim == 0:
        return _zero_module(K, elements, f"E_{M.name}")
    dm = M.dimension
    big = AlgebraModule(K, {nm: ColumnImages(K, [  # g^{tensor d} (x) I_M
        [(i * dm + a, c) for i, c in col] for col in
        _tensor_power(g, d).column_pairs() for a in range(dm)])
        for nm, g in elements.items()})
    sub = restrict_to_submodule(big, sp)
    return AlgebraModule(K, sub.generators, labels=elements,
                         name=f"E_{M.name}(K^{n})")


# -- Schur functors ------------------------------------------------------

def _sym_basis(n, lam):
    """Basis of Sym^{lam_1} x ... : tuples of weakly increasing tuples."""
    per_row = [list(combinations_with_replacement(range(n), li))
               for li in lam]
    return [tuple(c) for c in product(*per_row)]


def _sym_action(lam, K, g, sym, index):
    """g on the symmetric-power product space, by column images; over Q
    in ints while g's entries are integral (``_ints``), as they are for
    the generators.  Every field's one is 1."""
    mul, add = K.mul, K.add
    # an entry equal to one is None: it multiplies nothing
    gcols = [[(i, None if c == 1 else c) for i, c in col]
             for col in _ints(g.column_pairs())]
    cuts = [(sum(lam[:r]), sum(lam[:r + 1])) for r in range(len(lam))]
    cols = []
    for basis in sym:
        terms = [(1, ())]
        for x in [x for row in basis for x in row]:
            terms = [(coeff if c is None else mul(coeff, c), prefix + (i,))
                     for coeff, prefix in terms for i, c in gcols[x]]
        image = {}
        for coeff, flat in terms:
            idx = index[tuple(tuple(sorted(flat[a:b])) for a, b in cuts)]
            image[idx] = add(image[idx], coeff) if idx in image else coeff
        cols.append([(i, c) for i, c in image.items() if c])
    return ColumnImages(K, cols)


def schur_value(lam, n, K):
    """The Schur module S_lam(K^n) with its M_n(K)-action; zero when the
    diagram has more rows than n."""
    lam = normalize_partition(lam)
    d = sum(lam)
    if n ** max(d, 1) > DIM_CAP * 16:
        raise CapExceeded("cap exceeded")
    elements = monoid_generator_elements(n, K)
    if lam and len(lam) > n:
        return _zero_module(K, elements, f"S_{lam}")
    # the image of the exterior-power product in the symmetric-power
    # product: column j of the diagram carries a strictly increasing
    # choice of rows of K^n, alternated, and each row is symmetrized
    sym = _sym_basis(n, lam)
    index = {b: i for i, b in enumerate(sym)}
    sp = Subspace(K, len(sym), [
        column_alternant(choice, lam, index, K) for choice in
        product(*[combinations(range(n), c) for c in conjugate(lam)])])
    if sp.dim == 0:
        return _zero_module(K, elements, f"S_{lam}")
    big = AlgebraModule(K, {nm: _sym_action(lam, K, g, sym, index)
                            for nm, g in elements.items()})
    sub = restrict_to_submodule(big, sp)
    return AlgebraModule(K, sub.generators, labels=elements,
                         name=f"S_{lam}(K^{n})")


def socle_simple(lam, n, K, seed=0):
    """L_lam(K^n): the socle of the Schur module, simple for p-restricted
    lam in characteristic p (and all of S_lam in characteristic 0).  A
    socle that spans S_lam is S_lam itself, renamed."""
    lam = normalize_partition(lam)
    p = K.char
    if p == 0:
        return schur_value(lam, n, K)
    if not is_p_restricted(lam, p):
        raise ValueError(f"{lam} is not {p}-restricted")
    S = schur_value(lam, n, K)
    if S.dimension == 0:
        return S
    rows = _socle_rows(S, seed=seed)
    L = S if len(rows) == S.dimension else restrict_to_submodule(S, rows)
    L.name = f"L_{lam}(K^{n})"
    return L


# -- weights -------------------------------------------------------------

def _torus_matrices(rep):
    """Representation matrices of D_i = diag(1,...,z,...,1), z in slot i.

    The cycle c sends e_i to e_(i+1), so D_(i+1) = c D_i c^(-1) and
    slot i+1 is rho(c) rho(D_i) rho(c)^(n-1); for n = 2 the swap s is that
    cycle."""
    n = rep.labels["d"].nrows
    if n < 1:
        raise ValueError(f"weights need rank n >= 1, got {n}")
    gens = rep.generators
    out = [gens["d"]]
    if n == 1:
        return out
    c = gens["c"] if n >= 3 else gens["s"]
    cinv = c
    for _ in range(n - 2):
        cinv = cinv * c
    for _ in range(n - 1):
        out.append(c * out[-1] * cinv)
    return out


def highest_weight(rep, degree):
    """Lexicographically maximal simultaneous torus weight of a module
    that is polynomial of the given degree.

    For a finite field of size q, weights are read off as discrete
    logarithms of eigenvalues of the torus generators, so q - 1 must
    exceed the polynomial degree for the answer to be unambiguous.
    """
    K = rep.field
    if K.order is not None and K.order - 1 <= degree:
        raise FieldTooSmall(
            f"need field size q with q-1 > {degree}, got q={K.order}")
    z = K.gen()
    torus = _torus_matrices(rep)
    powers = [K.one]
    for _ in range(degree):
        powers.append(K.mul(powers[-1], z))
    spaces = [[list(r) for r in
               Matrix.identity(K, rep.dimension).rows]]
    weights = [()]
    for D in torus:
        new_spaces, new_weights = [], []
        for rows, w in zip(spaces, weights):
            sub = restrict_to_submodule(
                AlgebraModule(K, {"D": D}), rows)
            R = sub.generators["D"]
            for k, val in enumerate(powers):
                shifted = R - Matrix.identity(K, R.nrows).scale(val)
                ker = shifted.kernel_basis()
                if ker.nrows == 0:
                    continue
                B = Matrix(K, rows)
                vecs = [Matrix(K, [list(kr)]) * B for kr in ker.rows]
                new_spaces.append([v.rows[0] for v in vecs])
                new_weights.append(w + (k,))
        spaces, weights = new_spaces, new_weights
    total = sum(len(rows) for rows in spaces)
    if total != rep.dimension:
        raise FieldTooSmall("weight spaces do not fill the module; "
                            "eigenvalues escape the expected powers")
    if not weights:
        raise ValueError("zero representation has no weights")
    return max(weights)


# -- twists and special modules ------------------------------------------

def det_rep(n, K):
    """Top exterior power: the determinant character of M_n(K)."""
    return schur_value((1,) * n, n, K)


def delta_rep(n, K):
    """The unit-indicator character: 1 on invertible elements, 0 on the
    corank-one idempotent (and hence all singular elements)."""
    elements = monoid_generator_elements(n, K)
    one = Matrix.identity(K, 1)
    zero_m = Matrix(K, [[K.zero]])
    gens = {nm: zero_m if nm == "e" else one for nm in elements}
    return AlgebraModule(K, gens, labels=elements, name="delta")


def det_twist_check(lam, n, K, seed=0):
    """Verify L_lam = L_{lam - (1,...,1)} (x) det and L_lam = L_lam (x)
    delta as M_n(K)-modules; lam must have n positive parts."""
    lam = normalize_partition(lam)  # no zero parts
    if not lam or len(lam) != n:
        raise ValueError("need a partition with n positive parts")
    mu = tuple(x - 1 for x in lam)
    L_lam = socle_simple(lam, n, K, seed=seed)
    L_mu = socle_simple(mu, n, K, seed=seed) if any(mu) else None
    det = det_rep(n, K)
    if L_mu is None:
        rhs = det
    else:
        rhs = tensor(L_mu, det)
    ok1 = are_isomorphic(L_lam, rhs, seed=seed)
    ok2 = are_isomorphic(L_lam, tensor(L_lam, delta_rep(n, K)), seed=seed)
    return ok1 and ok2
