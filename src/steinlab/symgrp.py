"""Partitions and symmetric-group modules.

Specht modules are built on the standard-polytabloid basis inside the
tabloid permutation module; the standard polytabloids are unitriangular
against the tabloid dominance order, so they stay independent over every
field and no straightening is needed.  Simple modules in characteristic
p come from the radical of the canonical bilinear form, for which the
tabloid basis is orthonormal.  A K[S_d]-module is an ``AlgebraModule``
on the generators s = (1 2) and c = (1 2 ... d), labelled by their
one-line permutations (2, 1, 3, ..., d) and (2, ..., d, 1), so d is
``len(labels["c"])``; ``modtools.monoid_actions`` gives every
permutation's matrix.

``column_alternant`` is the one column antisymmetrizer: it makes the
polytabloids here and the Schur vectors of ``schurfun`` (Green,
*Polynomial Representations of GL_n*, LNM 830).
"""

from itertools import combinations, permutations, product

from .fields import CapExceeded
from .matrices import Matrix, coords_in_basis
from .modtools import AlgebraModule, quotient_module

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

def _tabloids(lam):
    """Every tabloid of shape lam, as a tuple of sorted rows: the ordered
    set partitions of 1..d with block sizes lam, listed in sorted order
    (each row runs through ``combinations`` of what is left)."""
    out = []

    def rec(rest, rows):
        if len(rows) == len(lam):
            out.append(tuple(rows))
            return
        for row in combinations(rest, lam[len(rows)]):
            rec([x for x in rest if x not in row], rows + [row])

    rec(range(1, sum(lam) + 1), [])
    return out


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


def column_alternant(columns, lam, index, K):
    """The sum over permutations pi_j of each column j of sign(pi) times
    the basis vector ``index[key]``, where the filling puts pi_j(i) in
    cell (i, j) and key is its tuple of sorted rows: a polytabloid when
    the columns hold a tableau's entries and ``index`` numbers tabloids,
    and a Schur vector when they hold row numbers of K^n and ``index``
    numbers products of symmetric-power monomials.  The signs are summed
    as integers and mapped into K once per coordinate."""
    acc = [0] * len(index)
    per_col = [[(pi, _perm_sign_on(col, pi)) for pi in permutations(col)]
               for col in columns]
    for combo in product(*per_col):
        sign = 1
        for _, s in combo:
            sign *= s
        acc[index[tuple(tuple(sorted(combo[j][0][i] for j in range(li)))
                        for i, li in enumerate(lam))]] += sign
    return [K.from_int(c) if c else K.zero for c in acc]


def _columns(tableau):
    """The columns of a tableau, top to bottom."""
    return [[row[j] for row in tableau if len(row) > j]
            for j in range(len(tableau[0]))]


# -- symmetric group modules ---------------------------------------------

def _polytabloids(lam, k, perms):
    """For each one-line permutation g of ``perms`` in turn, the
    polytabloid of every standard tableau of shape lam with its entries
    relabelled by g, in tabloid coordinates."""
    index = {t: i for i, t in enumerate(_tabloids(lam))}
    stds = standard_tableaux(lam)
    return [column_alternant([[g[x - 1] for x in col] for col in _columns(t)],
                             lam, index, k) for g in perms for t in stds]


def specht_module(lam, k):
    """The Specht module S^lam over k on the standard-polytabloid basis,
    with its generators s and c labelled by their one-line permutations."""
    lam = normalize_partition(lam)
    d = sum(lam)
    if d > DEGREE_CAP:
        raise CapExceeded(f"degree {d} exceeds cap {DEGREE_CAP}")
    if d == 0:
        raise ValueError("empty partition")
    labels = {"s": (2, 1, *range(3, d + 1)) if d >= 2 else (1,),
              "c": (*range(2, d + 1), 1)}
    vecs = _polytabloids(lam, k, [tuple(range(1, d + 1)), labels["s"],
                                  labels["c"]])
    n = len(vecs) // 3
    X = coords_in_basis(k, vecs[:n], vecs[n:])
    return AlgebraModule(k, {"s": Matrix(k, [r[:n] for r in X.rows]),
                             "c": Matrix(k, [r[n:] for r in X.rows])},
                         labels=labels, name=f"S^{lam}")


def simple_module(lam, k):
    """D^lam = S^lam / rad over a field of characteristic p, for
    p-regular lam; nonzero by p-regularity.  rad is the kernel of the
    Gram matrix of the canonical bilinear form in the polytabloid basis
    (the tabloid basis is orthonormal)."""
    lam = normalize_partition(lam)
    p = k.char
    if p == 0:
        return specht_module(lam, k)
    if not is_p_regular(lam, p):
        raise ValueError(f"{lam} is not {p}-regular")
    S = specht_module(lam, k)
    E = Matrix(k, _polytabloids(lam, k, [tuple(range(1, sum(lam) + 1))]))
    rad = (E * E.transpose()).kernel_basis()  # RREF rows
    if rad.nrows == 0:
        S.name = f"D^{lam}"
        return S
    D = quotient_module(S, rad.rows)
    D.name = f"D^{lam}"
    return D
