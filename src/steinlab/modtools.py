"""Meataxe-style tools for modules given by generator matrices.

A module is a field, a dimension, and a dict of named square matrices.
Simplicity over a finite field is decided by one loop over seeded random
algebra elements θ, applying Norton's test to ker f(θ) for irreducible
factors f of the minimal polynomial.  When dim ker f(θ) = deg f, one
spin of a kernel vector on the module and one on its transpose decide
(the Holt–Rees form of the test); when no draw gives such an f, every
vector of the thinnest kernel seen, and of its transpose, is spun.
Every module of the package is an ``AlgebraModule``: Specht and simple
modules of S_d, Schur, elementary and socle values of M_n(K), the
GL_n(F_q) simples and K[M_n(A)]-modules.  Its ``labels`` name the monoid
element each generator stands for (a one-line permutation, a ``Matrix``
or a ring matrix), and ``monoid_actions`` walks ``rings.monoid_closure``
over them to give the action of every element the labels generate.
"""

import operator
import random

from .matrices import Matrix, Subspace, coords_in_basis, span_from_spins
from .rings import monoid_closure


class AlgebraModule:
    """A module over the algebra spanned by named generator matrices;
    ``labels``, when given, maps each name to the monoid element that
    generator stands for."""

    def __init__(self, field, generators, labels=None, name=""):
        self.field = field
        self.generators = dict(generators)
        dims = {g.nrows for g in self.generators.values()}
        dims |= {g.ncols for g in self.generators.values()}
        if len(dims) != 1:
            raise ValueError("generator matrices must be square, same size")
        self.dimension = dims.pop()
        self.labels = dict(labels) if labels else None
        self.name = name

    def gen_names(self):
        return sorted(self.generators)

    def gen_list(self):
        return [self.generators[n] for n in self.gen_names()]

    def __repr__(self):
        tag = f" {self.name}" if self.name else ""
        return (f"AlgebraModule({tag} dim {self.dimension} over "
                f"{self.field.label()}, gens {self.gen_names()})")


def monoid_actions(mod, mul, one):
    """(element, action matrix) for ``one`` and then every element of the
    monoid that the labels generate under ``mul``, breadth first by
    ``rings.monoid_closure`` in ``gen_names`` order: each action is a
    generator's matrix times the action of an element found before.  Stop
    early by leaving the loop."""
    names = mod.gen_names()
    acts = [mod.generators[n] for n in names]
    table = {one: Matrix.identity(mod.field, mod.dimension)}
    yield one, table[one]
    for y, i, x in monoid_closure(mul, [one],
                                  [mod.labels[n] for n in names]):
        table[y] = acts[i] * table[x]
        yield y, table[y]


def transpose_module(mod):
    return AlgebraModule(mod.field,
                         {n: g.transpose()
                          for n, g in mod.generators.items()},
                         name=f"{mod.name}^t" if mod.name else "")


# -- polynomial utilities over a finite field ----------------------------
# polynomials are little-endian coefficient lists

def _poly_trim(f, F):
    while f and f[-1] == F.zero:
        f.pop()
    return f


def _poly_mul(f, g, F):
    if not f or not g:
        return []
    out = [F.zero] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a != F.zero:
            for j, b in enumerate(g):
                if b != F.zero:
                    out[i + j] = F.add(out[i + j], F.mul(a, b))
    return _poly_trim(out, F)


def _poly_divmod(f, g, F):
    f = list(f)
    dg = len(g) - 1
    inv = F.inv(g[-1])
    q = [F.zero] * max(len(f) - dg, 0)
    while len(f) - 1 >= dg and f:
        c = F.mul(f[-1], inv)
        k = len(f) - 1 - dg
        q[k] = c
        for j, b in enumerate(g):
            f[k + j] = F.sub(f[k + j], F.mul(c, b))
        _poly_trim(f, F)
        if not f:
            break
    return _poly_trim(q, F), f


def _poly_gcd(f, g, F):
    f, g = list(f), list(g)
    while g:
        f, g = g, _poly_divmod(f, g, F)[1]
    if f:
        inv = F.inv(f[-1])
        f = [F.mul(inv, c) for c in f]
    return f


def _poly_eval_matrix(f, A):
    F = A.field
    n = A.nrows
    out = Matrix.zero(F, n, n)
    P = Matrix.identity(F, n)
    for c in f:
        if c != F.zero:
            out = out + P.scale(c)
        P = P * A
    return out


def minimal_polynomial(A):
    """Minimal polynomial of a square matrix, as lcm of the local
    annihilators of the standard basis vectors."""
    F = A.field
    n = A.nrows
    m = [F.one]
    for i in range(n):
        # reduce: local min poly of e_i relative to what m already kills,
        # with m(A)e_i by Horner's rule on the vector
        w = [m[-1] if k == i else F.zero for k in range(n)]
        for c in reversed(m[:-1]):
            w = A.apply_to_vector(w)
            w[i] = F.add(w[i], c)
        local = _local_min_poly(A, w)
        m = _poly_mul(m, local, F)
    return m


def _local_min_poly(A, v):
    F = A.field
    n = A.nrows
    if all(x == F.zero for x in v):
        return [F.one]
    iterates = [list(v)]
    while True:
        nxt = A.apply_to_vector(iterates[-1])
        B = Matrix(F, iterates).transpose()
        x = B.solve_right(nxt)
        if x is not None:
            # A^k v = sum x_j A^j v  ->  min poly x^k - sum x_j x^j
            poly = [F.neg(c) for c in x] + [F.one]
            return poly
        iterates.append(nxt)
        if len(iterates) > n:
            raise RuntimeError("local minimal polynomial runaway")


def _berlekamp_factor(f, F):
    """Distinct monic irreducible factors of f over a finite field."""
    # strip repeated factors via gcd with derivative where helpful;
    # work with the squarefree-ish radical obtained by repeated gcds
    factors = []
    stack = [list(f)]
    while stack:
        g = stack.pop()
        g = list(g)
        inv = F.inv(g[-1])
        g = [F.mul(inv, c) for c in g]
        if len(g) == 2:
            factors.append(g)
            continue
        # remove multiplicity: replace g by g / gcd(g, g')
        dg = [F.mul(i % F.char, g[i]) for i in range(1, len(g))]
        dg = _poly_trim(dg, F)
        if dg:
            h = _poly_gcd(g, dg, F)
            if len(h) > 1:
                q, r = _poly_divmod(g, h, F)
                assert not r
                stack.append(h)
                if len(q) > 1:
                    stack.append(q)
                continue
        else:
            # g = u(x^p): take p-th root
            p = F.char
            root = []
            for i in range(0, len(g), p):
                c = g[i]
                # c = b^p has the solution b = c^(q/p)
                root.append(F.pow(c, F.order // p))
            stack.append(root)
            continue
        # g squarefree: Berlekamp subalgebra
        n = len(g) - 1
        q = F.order
        rows = []
        for i in range(n):
            # x^(q i) mod g
            xi = [F.zero] * (q * i) + [F.one]
            _, rem = _poly_divmod(xi, g, F)
            row = rem + [F.zero] * (n - len(rem))
            row[i] = F.sub(row[i], F.one)
            rows.append(row)
        Q = Matrix(F, rows).transpose()
        ker = Q.kernel_basis()
        if ker.nrows == 1:
            factors.append(g)
            continue
        # split with a non-constant kernel element
        split = None
        for krow in ker.rows:
            poly = _poly_trim(list(krow), F)
            if len(poly) > 1:
                split = poly
                break
        found = False
        for c in F.elements():
            cand = list(split)
            cand[0] = F.sub(cand[0], c)
            cand = _poly_trim(cand, F)
            if not cand:
                continue
            h = _poly_gcd(g, cand, F)
            if 1 < len(h) < len(g):
                quo, _ = _poly_divmod(g, h, F)
                stack.append(h)
                stack.append(quo)
                found = True
                break
        if not found:
            raise RuntimeError("berlekamp split failed")
    # dedupe
    uniq = []
    for fac in factors:
        if fac not in uniq:
            uniq.append(fac)
    uniq.sort(key=lambda h: (len(h), h))
    return uniq


# -- simplicity ----------------------------------------------------------

def _subspace_vectors(F, basis_rows):
    """Every vector in the span of the given rows, each once: the
    coefficient of the first row varies slowest, in element order.  The
    one enumerator of F-spans."""
    steps = [(a, F.neg(a)) for a in F.elements()]
    n = len(basis_rows)

    def rec(i, acc):
        if i == n:
            yield acc
            return
        row = basis_rows[i]
        for a, na in steps:
            yield from rec(i + 1, acc if a == F.zero
                           else F.row_sub(acc, na, row))
    yield from rec(0, [F.zero] * len(basis_rows[0]))


# draws of θ before the thinnest kernel seen is swept
_ATTEMPTS = 20


def _proper_spin(F, n, vectors, gens):
    """The basis of the first proper spin of a nonzero vector, or None."""
    for v in vectors:
        if any(x != F.zero for x in v):
            sp = span_from_spins(F, n, [v], gens)
            if sp.dim < n:
                return sp.basis
    return None


def _norton(mod, N, ker, sweep):
    """Norton's test on ker f(θ), with N = f(θ) and ``ker`` its kernel:
    a proper submodule spun from a nonzero vector of ker f(θ), else the
    annihilator of a proper transpose submodule spun from ker f(θ)^t,
    else None.  ``sweep`` spins every vector of both kernels, which
    decides; without it one vector of each is spun, which decides when
    ker f(θ) is a line."""
    F, n = mod.field, mod.dimension

    def vectors(rows):
        return _subspace_vectors(F, rows) if sweep else rows[:1]

    sub = _proper_spin(F, n, vectors(ker.rows), mod.gen_list())
    if sub is None:
        subt = _proper_spin(F, n, vectors(N.transpose().kernel_basis().rows),
                            transpose_module(mod).gen_list())
        if subt is not None:
            sub = [list(r) for r in Matrix(F, subt).kernel_basis().rows]
    return sub


def find_proper_submodule(mod, seed=0):
    """A basis (list of rows) of a proper nonzero submodule, or None if
    the module is simple.

    Each draw of θ on the ``holt-rees:{seed}`` stream is factored; for
    an irreducible factor f with K = ker f(θ), a proper submodule U
    either meets K, and then a nonzero vector of K spins inside U, or
    f(θ) is bijective on U, and then every nonzero vector of ker f(θ)^t
    spins inside the annihilator of U.  When dim K = deg f, K is one
    F[θ]/(f)-line, so one vector of each kernel decides (Holt–Rees).
    The first kernel of every draw is spun too: in S ⊕ S no θ has a
    line, but that spin is often proper.  After ``_ATTEMPTS`` draws
    without a line, every vector of the thinnest kernel seen, and of
    its transpose, is spun (Norton)."""
    F = mod.field
    n = mod.dimension
    if n == 0:
        raise ValueError("zero module")
    if n == 1:
        return None
    if F.order is None:
        raise ValueError(f"simplicity testing needs a finite field, "
                         f"not {F.label()}")
    gens = mod.gen_list()
    rng = random.Random(f"holt-rees:{seed}")
    thinnest = None
    for _ in range(_ATTEMPTS):
        theta = _random_algebra_element(mod, rng)
        factors = _berlekamp_factor(minimal_polynomial(theta), F)
        for i, f in enumerate(factors):
            N = _poly_eval_matrix(f, theta)
            ker = N.kernel_basis()
            if ker.nrows == len(f) - 1:
                return _norton(mod, N, ker, sweep=False)
            if i == 0:
                sub = _proper_spin(F, n, ker.rows[:1], gens)
                if sub is not None:
                    return sub
            if thinnest is None or ker.nrows < thinnest[1].nrows:
                thinnest = N, ker
    return _norton(mod, *thinnest, sweep=True)


def _random_algebra_element(mod, rng):
    gens = mod.gen_list()
    F = mod.field
    n = mod.dimension
    els = list(F.elements())
    # random short product-sum of generators
    total = Matrix.zero(F, n, n)
    for _ in range(rng.randrange(2, 4)):
        term = Matrix.identity(F, n)
        for _ in range(rng.randrange(1, 4)):
            term = term * gens[rng.randrange(len(gens))]
        total = total + term.scale(els[rng.randrange(1, len(els))])
    return total


def is_simple(mod, seed=0):
    if mod.dimension == 0:
        raise ValueError("zero module")
    return find_proper_submodule(mod, seed=seed) is None


# -- endomorphisms and homomorphisms -------------------------------------

def hom_space(mod_m, mod_n):
    """Basis of intertwiners T (dim_n x dim_m matrices) with
    T g_M = g_N T for every shared generator name."""
    if mod_m.field is not mod_n.field:
        raise ValueError("field mismatch")
    if mod_m.gen_names() != mod_n.gen_names():
        raise ValueError("generator-name mismatch")
    F = mod_m.field
    a, b = mod_n.dimension, mod_m.dimension
    Ia = Matrix.identity(F, a)
    Ib = Matrix.identity(F, b)
    blocks = []
    for name in mod_m.gen_names():
        A = mod_m.generators[name]
        B = mod_n.generators[name]
        # vec(T A) = (I_a kron A^t) vec(T); vec(B T) = (B kron I_b) vec(T)
        blocks.append(Ia.kron(A.transpose()) - B.kron(Ib))
    big = Matrix(F, [row for blk in blocks for row in blk.rows])
    ker = big.kernel_basis()
    out = []
    for krow in ker.rows:
        out.append(Matrix(F, [list(krow[i * b:(i + 1) * b])
                              for i in range(a)]))
    return out


def end_dim(mod):
    """Dimension of the commutant of the generator matrices."""
    if mod.dimension == 0:
        return 0
    return len(hom_space(mod, mod))


# q^dim Hom above which 200 random combinations are tried before the sweep
_ISO_SWEEP_MAX = 4096


def are_isomorphic(mod_m, mod_n, seed=0):
    """Whether an invertible intertwiner exists: a hom basis element or a
    combination of them.  Over Q, 200 random small integer combinations
    decide; over F_q every combination is swept, after 200 random ones
    when q^dim Hom > _ISO_SWEEP_MAX."""
    if mod_m.dimension != mod_n.dimension:
        return False
    if mod_m.dimension == 0:
        return True
    homs = hom_space(mod_m, mod_n)
    if not homs:
        return False
    for T in homs:
        if T.is_invertible():
            return True
    F = mod_m.field
    r, c = homs[0].nrows, homs[0].ncols
    if F.order is None or F.order ** len(homs) > _ISO_SWEEP_MAX:
        # over Q, invertibility of some combination is a Zariski-open
        # condition: small integer combinations decide it
        scalars = (list(F.elements()) if F.order
                   else [F.from_int(a) for a in range(-5, 6)])
        rng = random.Random(seed)
        for _ in range(200):
            T = Matrix.zero(F, r, c)
            for H in homs:
                T = T + H.scale(scalars[rng.randrange(len(scalars))])
            if T.is_invertible():
                return True
        if F.order is None:
            return False
    # every combination, as the span of the flattened basis (hom spaces
    # at desk scale are tiny)
    return any(Matrix(F, [v[i * c:(i + 1) * c] for i in range(r)], c)
               .is_invertible()
               for v in _subspace_vectors(F, [H.entries_flat()
                                              for H in homs]))


# -- constructions -------------------------------------------------------

def tensor(mod_m, mod_n):
    """Tensor product with the diagonal action (Kronecker on each
    generator); basis ordered lexicographically (i of m, then j of n)."""
    if mod_m.field is not mod_n.field:
        raise ValueError("field mismatch")
    if mod_m.gen_names() != mod_n.gen_names():
        raise ValueError("generator-name mismatch")
    gens = {name: mod_m.generators[name].kron(mod_n.generators[name])
            for name in mod_m.gen_names()}
    labels = mod_m.labels
    name = ""
    if mod_m.name or mod_n.name:
        name = f"{mod_m.name or '?'}(x){mod_n.name or '?'}"
    return AlgebraModule(mod_m.field, gens, labels=labels, name=name)


def restrict_to_submodule(mod, basis_rows):
    """Action matrices on an invariant subspace, in the given basis."""
    F = mod.field
    k = len(basis_rows)
    names = list(mod.generators)
    # the images of every generator share one Subspace
    X = coords_in_basis(F, basis_rows,
                        [mod.generators[name].apply_to_vector(list(row))
                         for name in names for row in basis_rows])
    gens = {name: Matrix(F, [r[i * k:(i + 1) * k] for r in X.rows])
            for i, name in enumerate(names)}
    return AlgebraModule(F, gens, labels=mod.labels,
                         name=f"{mod.name}|sub" if mod.name else "")


def quotient_module(mod, basis_rows):
    """Action on the quotient by an invariant subspace."""
    F = mod.field
    sub = Subspace(F, mod.dimension, basis_rows)
    pivset = set(sub.pivots)
    free = [j for j in range(mod.dimension) if j not in pivset]

    def reduce_vec(v):
        v = sub.reduce(v)
        return [v[j] for j in free]

    gens = {}
    for name, g in mod.generators.items():
        # the image of basis vector j is column j of g
        cols = [reduce_vec([row[j] for row in g.rows]) for j in free]
        gens[name] = Matrix(F, [list(r) for r in zip(*cols)])
    return AlgebraModule(F, gens, labels=mod.labels,
                         name=f"{mod.name}/sub" if mod.name else "")


def composition_factors(mod, seed=0):
    """Composition factors as AlgebraModules (with multiplicity)."""
    if mod.dimension == 0:
        return []
    sub = find_proper_submodule(mod, seed=seed)
    if sub is None:
        return [mod]
    lower = restrict_to_submodule(mod, sub)
    upper = quotient_module(mod, sub)
    return (composition_factors(lower, seed=seed)
            + composition_factors(upper, seed=seed))


def socle(mod, seed=0):
    """Basis rows of the socle: the sum over iso-classes S of
    composition factors of the images of **all** homomorphisms S -> M."""
    F = mod.field
    factors = composition_factors(mod, seed=seed)
    reps = []
    for S in factors:
        if not any(are_isomorphic(S, T, seed=seed) for T in reps):
            reps.append(S)
    sp = Subspace(F, mod.dimension)
    for S in reps:
        for T in hom_space(S, mod):
            for col in zip(*T.rows):
                sp.add_vector(list(col))
    return [list(r) for r in sp.basis]


# -- Frobenius twists ----------------------------------------------------

def frobenius_twist(mod, i):
    """Twist along x -> x^(p^i): each labelled generator g acts by the
    original action of the entrywise-powered element g^(p^i).

    Requires ``labels``: a dict name -> Matrix over the (finite) entry
    field giving the monoid element each generator represents.  The
    powered elements and their actions come from ``monoid_actions``; the
    search stops at the last of them.
    """
    if mod.labels is None:
        raise ValueError("frobenius_twist needs labelled generators")
    names = mod.gen_names()
    elems = [mod.labels[n] for n in names]
    Fq = elems[0].field
    if Fq.kind == "rational":
        raise ValueError("generator entries must lie in a finite field")
    targets = [Matrix(Fq, [[Fq.frobenius(x, i) for x in row]
                           for row in E.rows]) for E in elems]
    missing = set(targets)
    actions = {}
    for E, act in monoid_actions(mod, operator.mul,
                                 Matrix.identity(Fq, elems[0].nrows)):
        if E in missing:
            actions[E] = act
            missing.discard(E)
            if not missing:
                break
    if missing:
        raise ValueError("powered generator not in generated monoid")
    # the labels stay the original elements: the twisted module is the
    # same group acting through the powered matrices, so twists compose
    return AlgebraModule(mod.field,
                         {n: actions[P] for n, P in zip(names, targets)},
                         labels=dict(zip(names, elems)),
                         name=f"{mod.name}^[{i}]" if mod.name else "")
