"""Partitions and symmetric-group modules.

Specht modules are built on the standard-polytabloid basis inside the
tabloid permutation module; the standard polytabloids are unitriangular
against the tabloid dominance order, so they stay independent over every
field and no straightening is needed.  Simple modules in characteristic
p come from the radical of the canonical bilinear form, for which the
tabloid basis is orthonormal.  The matrix of every permutation follows
from those of s = (1 2) and c = (1 2 ... d) by ``rings.monoid_closure``.
"""

from itertools import permutations, product

from .fields import CapExceeded
from .matrices import Matrix, coords_in_basis
from .modtools import AlgebraModule, quotient_module
from .rings import monoid_closure

# the largest degree d of a Specht module S^lam, lam a partition of d
DEGREE_CAP = 7


# -- partition combinatorics ---------------------------------------------

def normalize_partition(parts):
    parts = [int(x) for x in parts]
    trimmed = [x for x in parts if x != 0]
    if any(x < 0 for x in parts):
        raise ValueError("negative part")
    if any(a < b for a, b in zip(trimmed, trimmed[1:])):
        raise ValueError(f"parts not weakly decreasing: {parts}")
    if parts != trimmed + [0] * (len(parts) - len(trimmed)):
        raise ValueError(f"zero parts must trail: {parts}")
    return tuple(trimmed)


def conjugate(lam):
    """Column lengths of the Young diagram."""
    lam = normalize_partition(lam)
    if not lam:
        return ()
    return tuple(sum(1 for part in lam if part > j) for j in range(lam[0]))


def is_p_restricted(lam, p):
    """All successive differences (with a trailing zero) are < p."""
    lam = normalize_partition(lam)
    ext = list(lam) + [0]
    return all(a - b < p for a, b in zip(ext, ext[1:]))


def is_p_regular(lam, p):
    """No part is repeated p or more times."""
    lam = normalize_partition(lam)
    return all(lam.count(x) < p for x in set(lam))


def is_q_restricted(lam, q):
    return is_p_restricted(lam, q)


def digit_decomposition(lam, p, r):
    """Digits lam^0, ..., lam^(r-1), each p-restricted, with
    lam = sum of p^i * lam^i componentwise; requires lam p^r-restricted.

    The decomposition reads off base-p digits of the successive
    differences, which makes it unique.
    """
    lam = normalize_partition(lam)
    q = p ** r
    if not is_p_restricted(lam, q):
        raise ValueError(f"{lam} is not {q}-restricted")
    n = len(lam)
    ext = list(lam) + [0]
    diffs = [ext[j] - ext[j + 1] for j in range(n)]
    digits = []
    for i in range(r):
        di = [(dj // p ** i) % p for dj in diffs]
        digits.append(tuple(sum(di[j:]) for j in range(n)))
    return digits


def standard_tableaux(lam):
    """Standard Young tableaux of shape lam, rows as tuples, in
    lexicographic order of the row reading word."""
    lam = normalize_partition(lam)
    d = sum(lam)
    out = []

    def rec(rows):
        placed = sum(len(r) for r in rows)
        if placed == d:
            out.append(tuple(tuple(r) for r in rows))
            return
        entry = placed + 1
        for i in range(len(lam)):
            if len(rows[i]) < lam[i]:
                if i > 0 and len(rows[i - 1]) <= len(rows[i]):
                    continue
                rows[i].append(entry)
                rec(rows)
                rows[i].pop()

    rec([[] for _ in lam])
    out.sort(key=lambda t: [x for row in t for x in row])
    return out


# -- tabloids and polytabloids -------------------------------------------

def _tabloid_of(tableau):
    return tuple(tuple(sorted(row)) for row in tableau)


def _apply_perm_tableau(perm, tableau):
    """perm as a dict on entries 1..d."""
    return tuple(tuple(perm[x] for x in row) for row in tableau)


def _all_tabloids(lam):
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


def _column_stabilizer(tableau, lam):
    conj = conjugate(lam)
    cols = []
    for j in range(len(conj)):
        cols.append([tableau[i][j] for i in range(conj[j])])
    # all products of column permutations, with signs
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


def _perm_sign_on(src, dst):
    pos = {x: i for i, x in enumerate(dst)}
    seen = set()
    sign = 1
    for x in src:
        if x in seen:
            continue
        # follow the cycle of the permutation src[i] -> dst[i]
        length = 0
        y = x
        while y not in seen:
            seen.add(y)
            y = src[pos[y]]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _polytabloid_vector(tableau, lam, tabloid_index, k):
    v = [k.zero] * len(tabloid_index)
    for mapping, sgn in _column_stabilizer(tableau, lam):
        t2 = _tabloid_of(_apply_perm_tableau(mapping, tableau))
        i = tabloid_index[t2]
        c = k.one if sgn > 0 else k.neg(k.one)
        v[i] = k.add(v[i], c)
    return v


# -- symmetric group modules ---------------------------------------------

class SymModule:
    """A K[S_d]-module given by its degree, field, and the matrices of
    the generators s = (1 2) and c = (1 2 ... d)."""

    def __init__(self, degree, field, gen_s, gen_c, name=""):
        self.degree = degree
        self.field = field
        self.gen_s = gen_s
        self.gen_c = gen_c
        self.dimension = gen_s.nrows
        self.name = name
        self._perm_cache = None

    def generators(self):
        return {"s": self.gen_s, "c": self.gen_c}

    def perm_matrix(self, perm):
        """Matrix of an arbitrary permutation, given in one-line notation
        as a tuple (perm[i] = image of i+1); the matrices of all of S_d
        are built once by ``rings.monoid_closure`` over {s, c}."""
        if self._perm_cache is None:
            d = self.degree
            ident = tuple(range(1, d + 1))
            s = (2, 1, *range(3, d + 1)) if d > 1 else ident
            c = (*range(2, d + 1), 1)
            mats = [self.gen_s, self.gen_c]
            cache = {ident: Matrix.identity(self.field, self.dimension)}
            # left action: (g o pi)(i) = g(pi(i))
            for tau, k, pi in monoid_closure(
                    lambda g, pi: tuple(g[x - 1] for x in pi), [ident],
                    [s, c]):
                cache[tau] = mats[k] * cache[pi]
            self._perm_cache = cache
        return self._perm_cache[tuple(perm)]

    def __repr__(self):
        tag = f" {self.name}" if self.name else ""
        return (f"SymModule(S_{self.degree},{tag} dim {self.dimension} "
                f"over {self.field.label()})")


def specht_module(lam, k):
    """The Specht module S^lam over k on the standard-polytabloid basis."""
    lam = normalize_partition(lam)
    d = sum(lam)
    if d > DEGREE_CAP:
        raise CapExceeded(f"degree {d} exceeds cap {DEGREE_CAP}")
    if d == 0:
        raise ValueError("empty partition")
    tabloids = _all_tabloids(lam)
    index = {t: i for i, t in enumerate(tabloids)}
    stds = standard_tableaux(lam)
    basis = [_polytabloid_vector(t, lam, index, k) for t in stds]

    def perm_images(perm_map):
        imgs = []
        for t in stds:
            t2 = _apply_perm_tableau(perm_map, t)
            imgs.append(_polytabloid_vector(t2, lam, index, k))
        return imgs

    ident = {i: i for i in range(1, d + 1)}
    s_map = dict(ident)
    if d >= 2:
        s_map[1], s_map[2] = 2, 1
    c_map = {i: (i % d) + 1 for i in range(1, d + 1)}
    X = coords_in_basis(k, basis, perm_images(s_map) + perm_images(c_map))
    gs = Matrix(k, [r[:len(stds)] for r in X.rows])
    gc = Matrix(k, [r[len(stds):] for r in X.rows])
    mod = SymModule(d, k, gs, gc, name=f"S^{lam}")
    mod.polytabloid_basis = basis
    mod.tabloids = tabloids
    return mod


def specht_gram_matrix(mod):
    """Gram matrix of the canonical bilinear form in the polytabloid
    basis (the tabloid basis is orthonormal)."""
    k = mod.field
    E = Matrix(k, mod.polytabloid_basis)
    return E * E.transpose()


def simple_module(lam, k):
    """D^lam = S^lam / rad over a field of characteristic p, for
    p-regular lam; nonzero by p-regularity."""
    lam = normalize_partition(lam)
    p = k.char
    if p == 0:
        return specht_module(lam, k)
    if not is_p_regular(lam, p):
        raise ValueError(f"{lam} is not {p}-regular")
    S = specht_module(lam, k)
    G = specht_gram_matrix(S)
    rad = G.kernel_basis()  # RREF rows
    if rad.nrows == 0:
        S.name = f"D^{lam}"
        return S
    D = quotient_module(AlgebraModule(k, S.generators()), rad.rows)
    return SymModule(S.degree, k, D.generators["s"], D.generators["c"],
                     name=f"D^{lam}")
