import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from steinlab import modtools as mt
from steinlab import steinberg
from steinlab.schurfun import schur_value
from steinlab.fields import CapExceeded, Field, QQ
from steinlab.matrices import ColumnImages, Matrix, Subspace, span_from_spins

from oracles import (echelon_restriction, hom_space_socle, kron_hom_rows,
                     kron_hom_space, power_sum_eval_matrix, rows_quotient,
                     rows_restriction, solve_right_minimal_polynomial,
                     unsplit_find_proper_submodule)

# Hypothesis runs derandomized, so the examples are the same on every run
SETTINGS = settings(derandomize=True, max_examples=40, deadline=None)

# F_2, F_3, F_4, F_9 with the largest dimension whose q^n vectors the
# exhaustive oracle sweeps quickly
ORACLE_FIELDS = [(Field.prime(2), 6), (Field.prime(3), 5),
                 (Field.galois(2, 2), 4), (Field.galois(3, 2), 3)]


def from_ints(F, rows):
    """The matrix of integer entries, each read as its image in F."""
    return Matrix(F, [[F.from_int(x) for x in r] for r in rows])


def natural_gl2_f2(K=None):
    K = K or Field.prime(2)
    return mt.AlgebraModule(K, {
        "t": from_ints(K, [[1, 1], [0, 1]]),
        "s": from_ints(K, [[0, 1], [1, 0]]),
    })


def cyclic_shift_module(n, K):
    """K[Z/n] with the shift generator."""
    rows = [[K.one if (i - j) % n == 1 else K.zero for j in range(n)]
            for i in range(n)]
    return mt.AlgebraModule(K, {"g": Matrix(K, rows)})


def test_natural_module_is_simple():
    assert mt.is_simple(natural_gl2_f2())


def test_group_algebra_z3_over_f2():
    K = Field.prime(2)
    M = cyclic_shift_module(3, K)
    # K[Z/3] = trivial + a 2-dim simple with End = F_4
    factors = mt.composition_factors(M)
    assert sorted(f.dimension for f in factors) == [1, 2]
    two = [f for f in factors if f.dimension == 2][0]
    assert mt.end_dim(two) == 2


def test_composition_factors_z7_shift():
    K = Field.prime(2)
    M = cyclic_shift_module(7, K)
    factors = mt.composition_factors(M)
    assert sum(f.dimension for f in factors) == 7
    assert sorted(f.dimension for f in factors) == [1, 3, 3]


def test_norton_path_certifies_companion_matrix():
    # an irreducible-minimal-polynomial companion matrix generates a
    # simple module: F_3[g] is the field F_729, so ker f(θ) is the whole
    # module, a line whenever θ lies in no proper subfield
    K = Field.prime(3)
    coeffs = [1, 0, 0, 0, 1, 1]   # x^6 + x^5 + x^4 + 1, irreducible mod 3
    n = 6
    rows = [[K.zero] * n for _ in range(n)]
    for i in range(1, n):
        rows[i][i - 1] = K.one
    for i in range(n):
        rows[i][n - 1] = K.from_int(-coeffs[i] if i < len(coeffs) else 0)
    M = mt.AlgebraModule(K, {"g": Matrix(K, rows)})
    assert mt.is_simple(M)


def test_minimal_polynomial_of_shift():
    K = Field.prime(5)
    M = cyclic_shift_module(4, K)
    mp = mt.minimal_polynomial(M.generators["g"])
    # x^4 - 1
    assert mp == [K.from_int(-1), K.zero, K.zero, K.zero, K.one]


def minimal_polynomial_by_matrices(A):
    """The minimal polynomial with m(A) built as a dense matrix for each
    basis vector, as lcm of the local annihilators."""
    F, n = A.field, A.nrows
    m = [F.one]
    for i in range(n):
        v = [F.one if k == i else F.zero for k in range(n)]
        w = mt._poly_eval_matrix(m, A).apply_to_vector(v)
        m = mt._poly_mul(m, mt._local_min_poly(A, w), F)
    return m


@settings(SETTINGS)
@given(st.data())
def test_minimal_polynomial_matches_matrix_evaluation(data):
    K, _ = data.draw(st.sampled_from(ORACLE_FIELDS))
    n = data.draw(st.integers(1, 5))
    A = Matrix(K, [[data.draw(st.integers(0, K.order - 1))
                    for _ in range(n)] for _ in range(n)])
    mp = mt.minimal_polynomial(A)
    assert mp == minimal_polynomial_by_matrices(A)
    assert mt._poly_eval_matrix(mp, A) == Matrix.zero(K, n, n)


KRYLOV_FIELDS = [QQ, Field.prime(2), Field.prime(3), Field.galois(2, 2),
                 Field.prime(5), Field.galois(3, 2), Field.galois(2, 4)]


@st.composite
def krylov_matrices(draw, F):
    """An n x n matrix over F, n <= 24: random, zero, the identity, strictly
    upper triangular (nilpotent) or one random block repeated down the
    diagonal (derogatory).  n = 4e - 1 and 4e put the tagged Krylov rows,
    of width 2n + 1, on each side of the packing threshold 8e."""
    rnd = draw(st.randoms(use_true_random=False))

    def scalar():
        if F is QQ:
            return Fraction(rnd.randint(-4, 4), rnd.randint(1, 3))
        return rnd.randrange(F.order)
    kind = draw(st.sampled_from(["random", "zero", "identity", "nilpotent",
                                 "blocks"]))
    if kind == "blocks":
        b = draw(st.integers(1, 4))
        n = b * draw(st.sampled_from(range(1, 24 // b + 1)))
        block = [[scalar() for _ in range(b)] for _ in range(b)]
        return Matrix(F, [[block[i % b][j % b] if i // b == j // b
                           else F.zero for j in range(n)]
                          for i in range(n)], n)
    n = draw(st.sampled_from([*range(25), 4 * F.degree - 1, 4 * F.degree]))
    if kind == "zero":
        return Matrix.zero(F, n, n)
    if kind == "identity":
        return Matrix.identity(F, n)
    return Matrix(F, [[scalar() if kind == "random" or j > i else F.zero
                       for j in range(n)] for i in range(n)], n)


@pytest.mark.parametrize("F", KRYLOV_FIELDS, ids=lambda F: F.label())
@settings(SETTINGS, max_examples=25)
@given(data=st.data())
def test_minimal_polynomial_matches_the_solve_right_oracle(F, data):
    A = data.draw(krylov_matrices(F))
    mp = mt.minimal_polynomial(A)
    assert mp == solve_right_minimal_polynomial(A)
    if F is QQ:
        assert all(type(c) is Fraction for c in mp)


def test_generators_over_another_field_are_refused():
    F2, F3 = Field.prime(2), Field.prime(3)
    a = Matrix(F2, [[1, 1], [0, 1]])
    b = Matrix(F3, [[2, 0], [0, 1]])
    with pytest.raises(ValueError, match="generator b is over F_3, not F_2"):
        mt.AlgebraModule(F2, {"a": a, "b": b})
    with pytest.raises(ValueError, match="generator a is over F_2, not Q"):
        mt.AlgebraModule(QQ, {"a": a})
    assert mt.AlgebraModule(F2, {"a": a}).dimension == 2


def test_hom_space_and_iso():
    K = Field.prime(2)
    a = natural_gl2_f2(K)
    b = natural_gl2_f2(K)
    assert len(mt.hom_space(a, b)) == 1
    assert mt.are_isomorphic(a, b)
    one = Matrix.identity(K, 1)
    triv = mt.AlgebraModule(K, {nm: one for nm in a.gen_names()})
    assert not mt.are_isomorphic(a, triv)


# -- the hom-space system against its Kronecker construction -------------

HOM_FIELDS = [QQ, Field.prime(2), Field.galois(2, 2), Field.prime(5),
              Field.galois(3, 2)]


@st.composite
def hom_matrix(draw, F, n):
    """An n x n matrix over F, about half its entries zero."""
    scalar = (st.fractions(min_value=-4, max_value=4, max_denominator=5)
              if F.kind == "rational" else st.integers(0, F.order - 1))
    return Matrix(F, [[draw(scalar) if draw(st.booleans()) else F.zero
                       for _ in range(n)] for _ in range(n)])


@st.composite
def hom_pair(draw):
    """Modules M and N on shared generator names: unrelated, of
    dimensions 1 to 5 that differ; N a conjugate P M P^-1 of M, an
    isomorphic pair; or N = M + C with C unrelated, in either order, so
    that Hom is nonzero.  Returns (M, N, whether they are isomorphic)."""
    F = draw(st.sampled_from(HOM_FIELDS))
    names = ["g", "h", "k"][:draw(st.integers(1, 3))]

    def module(n):
        return mt.AlgebraModule(F, {nm: draw(hom_matrix(F, n))
                                    for nm in names})
    kind = draw(st.sampled_from(["unrelated", "conjugate", "sum"]))
    b = draw(st.integers(1, 4 if kind == "sum" else 5))
    M = module(b)
    if kind == "unrelated":
        a = draw(st.integers(1, 5).filter(lambda a: a != b))
        return M, module(a), False
    if kind == "conjugate":
        # unit lower times invertible upper triangular: invertible
        L, U = draw(hom_matrix(F, b)), draw(hom_matrix(F, b))
        P = (Matrix(F, [[F.one if i == j else (L[i, j] if i > j else F.zero)
                         for j in range(b)] for i in range(b)])
             * Matrix(F, [[(U[i, j] or F.one) if i == j
                           else (U[i, j] if i < j else F.zero)
                           for j in range(b)] for i in range(b)]))
        Pinv = P.inverse()
        return M, mt.AlgebraModule(F, {nm: P * g * Pinv for nm, g
                                       in M.generators.items()}), True
    C = module(draw(st.integers(1, 5 - b)))
    S = mt.AlgebraModule(F, {nm: block_diagonal(M.generators[nm],
                                                C.generators[nm])
                             for nm in names})
    return (M, S, False) if draw(st.booleans()) else (S, M, False)


def block_diagonal(X, Y):
    F, n, m = X.field, X.nrows, Y.nrows
    return Matrix(F, [list(r) + [F.zero] * m for r in X.rows]
                  + [[F.zero] * n + list(r) for r in Y.rows])


def hom_space_and_system(mod_m, mod_n):
    """hom_space's output and the rows it inserts into its system: the
    first ``Subspace`` to take a row (the annihilator's rows go into
    another)."""
    inserted = {}
    add_vector = Subspace.add_vector

    def spy(self, v):
        # the Subspace is kept in the value, so its id is not reused
        inserted.setdefault(id(self), (self, []))[1].append(list(v))
        return add_vector(self, v)
    with mock.patch.object(Subspace, "add_vector", spy):
        homs = mt.hom_space(mod_m, mod_n)
    _, rows = next(iter(inserted.values()))
    return homs, rows


def _types(rows):
    return [type(x) for r in rows for x in r]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(hom_pair())
def test_hom_space_rows_match_kronecker_oracle(pair):
    M, N, isomorphic = pair
    homs, rows = hom_space_and_system(M, N)
    want = kron_hom_rows(M, N)
    # every row goes in, unless the rank reached a*b first: then Hom = 0
    assert rows == want[:len(rows)]
    assert _types(rows) == _types(want[:len(rows)])
    if len(rows) < len(want):
        assert Matrix(M.field, rows).rank() == M.dimension * N.dimension
        assert kron_hom_space(M, N) == []
    assert homs == kron_hom_space(M, N)
    if M.field.kind == "rational":
        assert {Fraction} >= set(_types(rows)).union(
            *(_types(T.rows) for T in homs))
    if isomorphic:
        assert mt.are_isomorphic(M, N)


@pytest.mark.parametrize("F", [Field.prime(3), QQ], ids=["F_3", "Q"])
def test_zero_hom_space_stops_at_full_rank(F):
    # T I = 0 T on g alone forces T = 0: 4 of the oracle's 8 rows go in
    one, zero = Matrix.identity(F, 2), Matrix.zero(F, 2, 2)
    M = mt.AlgebraModule(F, {"g": one, "h": one})
    N = mt.AlgebraModule(F, {"g": zero, "h": zero})
    homs, rows = hom_space_and_system(M, N)
    want = kron_hom_rows(M, N)
    assert homs == kron_hom_space(M, N) == []
    assert (len(rows), len(want)) == (4, 8)
    assert rows == want[:4]


def test_socle_of_group_algebra():
    K = Field.prime(2)
    M = cyclic_shift_module(3, K)
    soc = mt.restrict_to_submodule(M, mt.socle(M))
    assert soc.dimension == 3  # semisimple: p does not divide 3


def test_socle_nontrivial():
    # K[Z/2] in characteristic 2 has a 1-dimensional socle
    K = Field.prime(2)
    M = cyclic_shift_module(2, K)
    soc = mt.restrict_to_submodule(M, mt.socle(M))
    assert soc.dimension == 1


@pytest.mark.parametrize("build, simple", [
    (natural_gl2_f2, True),
    (lambda: schur_value((2, 1), 3, Field.prime(2)), True),
    (lambda: schur_value((2, 1), 3, Field.prime(5)), True),
    (lambda: cyclic_shift_module(2, Field.prime(2)), False),
    (lambda: cyclic_shift_module(3, Field.prime(2)), False),
    (lambda: schur_value((2,), 2, Field.prime(2)), False),
    (lambda: schur_value((2, 1), 3, Field.prime(3)), False),
], ids=["GL2(F2)", "S21(F2^3)", "S21(F5^3)", "F2[Z/2]", "F2[Z/3]",
        "S2(F2^2)", "S21(F3^3)"])
@pytest.mark.parametrize("seed", [0, 1])
def test_socle_matches_hom_space_oracle(monkeypatch, build, simple, seed):
    # a simple module is its own socle, found without a hom space
    M = build()
    calls = []
    hom_space = mt.hom_space
    monkeypatch.setattr(mt, "hom_space",
                        lambda *a: calls.append(a) or hom_space(*a))
    soc = mt.socle(M, seed=seed)
    assert (not calls) == simple
    monkeypatch.undo()
    assert soc.basis == hom_space_socle(M, seed=seed)


def test_tensor_dimensions():
    K = Field.prime(2)
    a = natural_gl2_f2(K)
    t = mt.tensor(a, a)
    assert t.dimension == 4


def test_frobenius_twist_composition():
    K = Field.galois(2, 2)
    labels = {
        "t": from_ints(K, [[1, 1], [0, 1]]),
        "d": Matrix(K, [[K.gen(), K.zero], [K.zero, K.one]]),
    }
    M = mt.AlgebraModule(K, dict(labels), labels=labels)
    t1 = mt.frobenius_twist(M, 1)
    t2 = mt.frobenius_twist(t1, 1)
    t0 = mt.frobenius_twist(M, 2)   # order 2 Frobenius: back to start
    for nm in labels:
        assert t2.generators[nm] == t0.generators[nm]
        assert t0.generators[nm] == M.generators[nm]
    assert t1.generators["d"] != M.generators["d"]


def test_quotient_and_restriction_dims():
    K = Field.prime(2)
    M = cyclic_shift_module(2, K)
    sub = mt.find_proper_submodule(M)
    assert sub is not None
    lower = mt.restrict_to_submodule(M, sub)
    upper = mt.quotient_module(M, sub)
    assert lower.dimension + upper.dimension == M.dimension


def test_berlekamp_splits_repeated_factors_over_extensions():
    # x^2 + 1 = (x + 1)^2 over F_4 and x^3 + 1 = (x + 1)^3 over F_9:
    # the derivative's coefficients are integers, not element labels
    assert mt._berlekamp_factor([1, 0, 1], Field.galois(2, 2)) == [[1, 1]]
    assert mt._berlekamp_factor([1, 0, 0, 1], Field.galois(3, 2)) == [[1, 1]]


# -- one enumerator of F-spans ---------------------------------------------

def _all_vectors(F, n):
    """Every vector of F^n, the first coordinate varying slowest: the
    exhaustive search's former enumerator, kept as an oracle."""
    els = list(F.elements())

    def rec(prefix):
        if len(prefix) == n:
            yield list(prefix)
            return
        for a in els:
            yield from rec(prefix + [a])
    yield from rec([])


def _hom_combinations(F, homs):
    """Every F-combination of the matrices, the coefficient of the first
    varying slowest: are_isomorphic's former enumerator, kept as an
    oracle."""
    els = list(F.elements())
    zero = Matrix.zero(F, homs[0].nrows, homs[0].ncols)

    def rec(i, acc):
        if i == len(homs):
            yield acc
            return
        for a in els:
            yield from rec(i + 1, acc if a == F.zero
                           else acc + homs[i].scale(a))
    yield from rec(0, zero)


@pytest.mark.parametrize("F, n", [(Field.prime(2), 4), (Field.prime(3), 3),
                                  (Field.galois(2, 2), 3),
                                  (Field.galois(3, 2), 2)],
                         ids=["F_2", "F_3", "F_4", "F_9"])
def test_span_enumerator_matches_former_enumerators(F, n):
    ident = Matrix.identity(F, n).rows
    assert list(mt._subspace_vectors(F, ident)) == list(_all_vectors(F, n))
    rnd = random.Random(F.order)
    homs = [Matrix(F, [[rnd.randrange(F.order) for _ in range(3)]
                       for _ in range(2)]) for _ in range(n)]
    combos = [Matrix(F, [v[:3], v[3:]]) for v in
              mt._subspace_vectors(F, [H.entries_flat() for H in homs])]
    assert combos == list(_hom_combinations(F, homs))


def diagonal_module(F, *eigenvalues):
    """F^n with one generator acting by diag(eigenvalues)."""
    n = len(eigenvalues)
    return mt.AlgebraModule(F, {"g": Matrix(F, [
        [eigenvalues[i] if i == j else F.zero for j in range(n)]
        for i in range(n)])})


@pytest.mark.parametrize("F, sweep_max", [(Field.prime(3), mt._ISO_SWEEP_MAX),
                                          (Field.prime(3), 2),
                                          (QQ, mt._ISO_SWEEP_MAX)],
                         ids=["F_3", "F_3-cap2", "Q"])
def test_isomorphism_found_only_by_a_combination(F, sweep_max, monkeypatch):
    # A + B with non-isomorphic 1-dim A and B (g acts by 1 and by 2): the
    # hom basis diag(1, 0), diag(0, 1) is singular, so only a combination
    # is invertible; over F_3 the sweep finds it at the default limit and
    # the random phase at limit 2 (3^2 > 2), over Q the random integer
    # combinations
    monkeypatch.setattr(mt, "_ISO_SWEEP_MAX", sweep_max)
    one = F.one
    two = F.add(one, one)
    AB, AA = diagonal_module(F, one, two), diagonal_module(F, one, one)
    homs = mt.hom_space(AB, AB)
    assert len(homs) == 2 and not any(T.is_invertible() for T in homs)
    assert mt.are_isomorphic(AB, diagonal_module(F, one, two))
    # nonzero homs, none invertible: the traces 1 + 2 and 1 + 1 differ
    assert mt.hom_space(AB, AA)
    assert not mt.are_isomorphic(AB, AA)
    # equal traces (3 = 1 + 2 + 0), nonzero homs, none invertible: every
    # phase runs and finds nothing
    D, I = diagonal_module(F, one, two, F.zero), diagonal_module(F, one,
                                                                 one, one)
    assert mt.hom_space(D, I)
    assert not mt.are_isomorphic(D, I)


# -- the decision loop against the exhaustive oracle -----------------------

def _block_upper(F, top, corner, bottom):
    """[[top, corner], [0, bottom]]; the first block spans a submodule."""
    a, b = top.nrows, bottom.nrows
    rows = [top.rows[i] + corner.rows[i] for i in range(a)]
    rows += [[F.zero] * a + bottom.rows[i] for i in range(b)]
    return Matrix(F, rows)


@st.composite
def oracle_modules(draw):
    """(module, reducible by construction?) over F_2, F_3, F_4 or F_9:
    uniformly random generators, a direct sum, block upper-triangular
    generators (an extension, with a random corner block), or the group
    algebra of a cyclic group (reducible, yet cyclic and self-dual)."""
    F, nmax = draw(st.sampled_from(ORACLE_FIELDS))
    names = ["a", "b"][:draw(st.integers(1, 2))]
    kind = draw(st.sampled_from(["random", "sum", "extension", "shift"]))
    if kind == "shift":
        return cyclic_shift_module(draw(st.integers(2, nmax)), F), True
    rnd = draw(st.randoms(use_true_random=False))

    def block(r, c):
        return Matrix(F, [[rnd.randrange(F.order) for _ in range(c)]
                          for _ in range(r)], c)

    if kind == "random":
        n = draw(st.integers(2, nmax))
        return mt.AlgebraModule(F, {nm: block(n, n) for nm in names}), False
    a = draw(st.integers(1, nmax - 1))
    b = draw(st.integers(1, nmax - a))
    gens = {nm: _block_upper(F, block(a, a),
                             block(a, b) if kind == "extension"
                             else Matrix.zero(F, a, b), block(b, b))
            for nm in names}
    return mt.AlgebraModule(F, gens), True


def _is_proper_submodule(mod, rows):
    sp = Subspace(mod.field, mod.dimension, rows)
    return 0 < sp.dim < mod.dimension and all(
        sp.contains(g.apply_to_vector(list(r)))
        for g in mod.gen_list() for r in sp.basis)


def find_submodule_exhaustive(mod):
    """The first proper spin of a nonzero vector of F^n, or None: the
    former exhaustive search, kept as the oracle."""
    F, n = mod.field, mod.dimension
    for v in _all_vectors(F, n):
        if any(x != F.zero for x in v):
            sp = span_from_spins(F, n, [v], mod.gen_list())
            if sp.dim < n:
                return sp.basis
    return None


def test_certificate_agrees_with_exhaustive_oracle(monkeypatch):
    # at the default number of draws and at one draw, where modules with
    # no line in their first draw reach the thinnest-kernel sweep
    sweeps = []
    sweep = mt._subspace_vectors

    def counted(*args):
        sweeps.append(args)
        return sweep(*args)

    monkeypatch.setattr(mt, "_subspace_vectors", counted)

    @settings(SETTINGS, max_examples=100)
    @given(oracle_modules(), st.sampled_from([0, 1, 7]),
           st.sampled_from([mt._ATTEMPTS, 1]))
    def check(case, seed, attempts):
        mod, reducible = case
        oracle = find_submodule_exhaustive(mod)
        if reducible:
            assert oracle is not None
        monkeypatch.setattr(mt, "_ATTEMPTS", attempts)
        found = mt.find_proper_submodule(mod, seed=seed)
        assert (found is None) == (oracle is None)
        if found is not None:
            assert _is_proper_submodule(mod, found.basis)

    check()
    assert sweeps


@SETTINGS
@given(oracle_modules(), st.integers(0, 3))
def test_norton_sweep_on_every_factor_agrees_with_oracle(case, seed):
    # Norton's test decides on ker f(θ) for every irreducible factor f,
    # a line or not; a proper spin may come from either kernel
    mod, _ = case
    F = mod.field
    oracle = find_submodule_exhaustive(mod)
    theta = mt._random_algebra_element(mod, random.Random(seed))
    for f in mt._berlekamp_factor(mt.minimal_polynomial(theta), F):
        N = mt._poly_eval_matrix(f, theta)
        found = mt._norton(mod, N, N.kernel_basis(), sweep=True)
        assert (found is None) == (oracle is None)
        if found is not None:
            assert _is_proper_submodule(mod, found.basis)


def test_fallback_without_certificate_still_decides(monkeypatch):
    # with θ = 1 on every draw the one kernel is the whole module, never
    # a line, so the sweep of it and of its transpose decides
    monkeypatch.setattr(mt, "_ATTEMPTS", 1)
    monkeypatch.setattr(mt, "_random_algebra_element",
                        lambda mod, rng: Matrix.identity(mod.field,
                                                         mod.dimension))
    assert mt.is_simple(natural_gl2_f2())
    assert mt.is_simple(steinberg.build((2, 1), 3, 2).module)
    M = cyclic_shift_module(3, Field.prime(2))
    assert _is_proper_submodule(M, mt.find_proper_submodule(M).basis)


def test_fallback_spins_one_transpose_vector(monkeypatch):
    # with θ = 1 the one kernel is the 8-dim Steinberg module of GL_3(F_2):
    # one spin on the draw, 255 in the sweep, and then one vector of the
    # transpose kernel decides, where sweeping it too made 511 spins
    monkeypatch.setattr(mt, "_ATTEMPTS", 1)
    monkeypatch.setattr(mt, "_random_algebra_element",
                        lambda mod, rng: Matrix.identity(mod.field,
                                                         mod.dimension))
    module = steinberg.build((2, 1), 3, 2).module
    calls = []
    spin = mt.span_from_spins

    def counted(*args):
        calls.append(args)
        return spin(*args)

    monkeypatch.setattr(mt, "span_from_spins", counted)
    assert mt.is_simple(module)
    assert len(calls) == 257


def test_certificate_on_simple_module_that_is_not_absolutely_simple(
        monkeypatch):
    # the natural GL_2(F_4)-module read over F_2: End is F_4, yet some θ
    # has a factor f with dim ker f(θ) = deg f, so no sweep runs
    K = Field.prime(2)
    z, one, nil = [[0, 1], [1, 1]], [[1, 0], [0, 1]], [[0, 0], [0, 0]]

    def over_f2(blocks):
        return from_ints(K, [b[0][r] + b[1][r]
                             for b in blocks for r in range(2)])

    M = mt.AlgebraModule(K, {"d": over_f2([[z, nil], [nil, one]]),
                             "u": over_f2([[one, one], [nil, one]]),
                             "s": over_f2([[nil, one], [one, nil]])})
    assert mt.end_dim(M) == 2
    assert find_submodule_exhaustive(M) is None

    def no_sweep(*args):
        raise AssertionError("the kernel sweep ran")

    monkeypatch.setattr(mt, "_subspace_vectors", no_sweep)
    assert mt.find_proper_submodule(M) is None
    # End = F_4 makes every kernel of θ an F_4-space, never an F_2-line
    assert not M.end_is_k and mt.end_dim(M) == 2


def test_simple_steinberg_module_needs_few_spins(monkeypatch):
    # the 8-dim Steinberg module of GL_3(F_2): the exhaustive sweep made
    # 255 spins; the certificate makes one on the module, one on its dual
    module = steinberg.build((2, 1), 3, 2).module
    assert module.dimension == 8
    calls = []
    spin = mt.span_from_spins

    def counted(*args):
        calls.append(args)
        return spin(*args)

    monkeypatch.setattr(mt, "span_from_spins", counted)
    assert mt.is_simple(module)
    assert len(calls) <= 4


def test_certificate_stops_early_on_a_square(monkeypatch):
    # in S ⊕ S no θ has a factor f with dim ker f(θ) = deg f; the proper
    # spin of a first kernel vector is returned within two draws
    S = steinberg.build((2, 1), 3, 2).module
    K, n = S.field, S.dimension
    M = mt.AlgebraModule(K, {nm: _block_upper(K, g, Matrix.zero(K, n, n), g)
                             for nm, g in S.generators.items()})
    draws = []
    minpoly = mt.minimal_polynomial

    def counted(A):
        draws.append(A)
        return minpoly(A)

    monkeypatch.setattr(mt, "minimal_polynomial", counted)
    for seed in (0, 1, 7):
        draws.clear()
        assert _is_proper_submodule(
            M, mt.find_proper_submodule(M, seed=seed).basis)
        assert len(draws) <= 2


# -- Berlekamp factors are the distinct monic irreducibles -----------------

def _rem(f, g, F):
    """f mod g for little-endian coefficient lists, g monic."""
    f = list(f)
    while len(f) >= len(g):
        c = f[-1]
        k = len(f) - len(g)
        for j, b in enumerate(g):
            f[k + j] = F.sub(f[k + j], F.mul(c, b))
        f.pop()
        while f and f[-1] == F.zero:
            f.pop()
    return f


def _times(f, g, F):
    out = [F.zero] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = F.add(out[i + j], F.mul(a, b))
    return out


def _monic_polys(F, d):
    """Every monic polynomial of degree d."""
    polys = [[]]
    for _ in range(d):
        polys = [p + [c] for p in polys for c in F.elements()]
    return [p + [F.one] for p in polys]


@SETTINGS
@given(st.sampled_from([F for F, _ in ORACLE_FIELDS]), st.data())
def test_berlekamp_factors_are_distinct_monic_irreducibles(F, data):
    deg = data.draw(st.integers(1, 6))
    f = data.draw(st.lists(st.integers(0, F.order - 1),
                           min_size=deg, max_size=deg))
    f.append(data.draw(st.integers(1, F.order - 1)))
    monic = [F.mul(F.inv(f[-1]), c) for c in f]
    factors = mt._berlekamp_factor(f, F)
    assert len({tuple(h) for h in factors}) == len(factors)
    radical = [F.one]
    for h in factors:
        assert len(h) >= 2 and h[-1] == F.one
        assert not _rem(monic, h, F)
        for d in range(1, (len(h) - 1) // 2 + 1):
            assert all(_rem(h, g, F) for g in _monic_polys(F, d))
        radical = _times(radical, h, F)
    # the product divides f, and f divides a power of it: it is the
    # squarefree part of f
    assert not _rem(monic, radical, F)
    power = [F.one]
    for _ in range(deg):
        power = _times(power, radical, F)
    assert not _rem(power, monic, F)


# -- roots first, Horner's rule and the two certificates ------------------

ROOT_FIELDS = [Field.prime(2), Field.prime(3), Field.galois(2, 2),
               Field.prime(5), Field.galois(2, 3), Field.galois(3, 2),
               Field.galois(2, 4)]


@settings(SETTINGS, max_examples=150)
@given(st.sampled_from(ROOT_FIELDS), st.data())
def test_roots_first_order_matches_berlekamp(F, data):
    # each a in F is a root 0 to 3 times, mostly not at all, beside a
    # random monic cofactor that may have roots of its own
    f = [F.one]
    for a in F.elements():
        for _ in range(data.draw(st.sampled_from([0, 0, 0, 1, 2, 3]))):
            f = mt._poly_mul(f, [F.neg(a), F.one], F)
    deg = data.draw(st.integers(0, 4))
    f = mt._poly_mul(f, data.draw(st.lists(
        st.sampled_from(list(F.elements())), min_size=deg,
        max_size=deg)) + [F.one], F)
    assert list(mt._factors_roots_first(f, F)) == mt._berlekamp_factor(f, F)


def test_roots_first_factors_the_rest_only_when_read(monkeypatch):
    # (x - 1)^2 (x - 2)(x^2 + 1) over F_3, where x^2 + 1 has no root
    F = Field.prime(3)
    f = [F.one]
    for g in ([2, 1], [2, 1], [1, 1], [1, 0, 1]):
        f = mt._poly_mul(f, g, F)
    calls = []
    berlekamp = mt._berlekamp_factor
    monkeypatch.setattr(mt, "_berlekamp_factor",
                        lambda g, F: calls.append(g) or berlekamp(g, F))
    factors = mt._factors_roots_first(f, F)
    assert [next(factors), next(factors)] == [[1, 1], [2, 1]]
    assert not calls
    assert list(factors) == [[1, 0, 1]]
    assert calls == [[1, 0, 1]]
    assert list(mt._factors_roots_first([2, 0, 1], F)) == [[1, 1], [2, 1]]
    assert len(calls) == 1


@settings(SETTINGS, max_examples=100)
@given(st.sampled_from(KRYLOV_FIELDS), st.data())
def test_horner_matches_the_power_sum_oracle(F, data):
    def entry():
        return F.from_int(data.draw(st.integers(-4, 8)))

    n = data.draw(st.integers(1, 5))
    A = Matrix(F, [[entry() for _ in range(n)] for _ in range(n)])
    deg = data.draw(st.integers(0, 5))
    f = [entry() for _ in range(deg)]
    f.append(data.draw(st.sampled_from([F.one, F.from_int(2)]))
             if F.char != 2 else F.one)
    products = []
    product = Matrix.__mul__
    with mock.patch.object(Matrix, "__mul__",
                           lambda X, Y: products.append(1) or product(X, Y)):
        got = mt._poly_eval_matrix(f, A)
    assert len(products) == max(deg - 1, 0)
    assert got == power_sum_eval_matrix(f, A)


@settings(SETTINGS, max_examples=120)
@given(oracle_modules(), st.sampled_from([0, 1, 7]))
def test_roots_first_draw_matches_the_unsplit_loop(case, seed):
    # the same submodule, or None; End = K is recorded exactly when the
    # deciding draw has a linear factor with a one-dimensional kernel,
    # and then the hom space End(M) is one-dimensional
    mod, _ = case
    sub, line = unsplit_find_proper_submodule(mod, seed)
    assert mt.find_proper_submodule(mod, seed=seed) == sub
    assert mod.end_is_k == (sub is None and line)
    assert mt.end_dim(mod) == len(mt.hom_space(mod, mod))


@pytest.mark.parametrize("n, q, certified", [(2, 2, 2), (2, 4, 12),
                                             (3, 2, 3)])
def test_end_certificate_on_the_classify_tables(n, q, certified):
    data = steinberg.classify(n, q)
    assert sum(d.module.end_is_k for d in data) == certified
    for d in data:
        assert mt.end_dim(d.module) == len(mt.hom_space(d.module,
                                                        d.module)) == 1


@settings(SETTINGS, max_examples=100)
@given(st.sampled_from(KRYLOV_FIELDS), st.data())
def test_trace_test_keeps_conjugate_pairs(F, data):
    rnd = data.draw(st.randoms(use_true_random=False))
    n = data.draw(st.integers(1, 4))

    def entry():
        return F.from_int(rnd.randrange(-3, 4))

    def matrix():
        return Matrix(F, [[entry() for _ in range(n)] for _ in range(n)])

    # P = LU, L unit lower triangular and U upper triangular with +-1 on
    # its diagonal, is invertible
    L = Matrix(F, [[F.one if i == j else entry() if i > j else F.zero
                    for j in range(n)] for i in range(n)])
    U = Matrix(F, [[F.from_int(rnd.choice([1, -1])) if i == j
                    else entry() if i < j else F.zero
                    for j in range(n)] for i in range(n)])
    P = L * U
    Q = P.inverse()
    gens = {nm: matrix() for nm in ["a", "b"][:data.draw(st.integers(1, 2))]}
    M = mt.AlgebraModule(F, gens)
    N = mt.AlgebraModule(F, {nm: P * g * Q for nm, g in gens.items()})
    assert all(mt._trace(g) == mt._trace(N.generators[nm])
               for nm, g in gens.items())
    assert mt.are_isomorphic(M, N)


def test_a_trace_difference_builds_no_hom_space(monkeypatch):
    F = Field.prime(3)
    one, two = F.one, F.from_int(2)

    def no_hom_space(*args):
        raise AssertionError("a hom space was built")

    monkeypatch.setattr(mt, "hom_space", no_hom_space)
    assert not mt.are_isomorphic(diagonal_module(F, one, one),
                                 diagonal_module(F, one, two))
    with pytest.raises(ValueError, match="generator-name mismatch"):
        mt.are_isomorphic(diagonal_module(F, one),
                          mt.AlgebraModule(F, {"h": Matrix(F, [[two]])}))


def test_hom_space_refuses_a_system_above_the_cap(monkeypatch):
    # 71-dim modules with one generator: 5041 rows of 5041 entries pass
    # the cap, and the refusal comes before any entry is written
    K = Field.prime(2)

    def no_entry(*args):
        raise AssertionError("an entry was written")

    big = mt.AlgebraModule(K, {"g": Matrix.zero(K, 71, 71)})
    monkeypatch.setattr(K, "add", no_entry)
    with pytest.raises(CapExceeded, match="5041 x 5041 exceeds cap"):
        mt.hom_space(big, big)
    with pytest.raises(CapExceeded):
        mt.end_dim(big)
    monkeypatch.undo()
    # two generators, dims 3 and 4: a 24 x 12 system of 288 entries
    M = mt.AlgebraModule(K, {nm: Matrix.identity(K, 3) for nm in "ab"})
    N = mt.AlgebraModule(K, {nm: Matrix.identity(K, 4) for nm in "ab"})
    monkeypatch.setattr(mt, "HOM_SYSTEM_CAP", 288)
    assert len(mt.hom_space(M, N)) == 12
    monkeypatch.setattr(mt, "HOM_SYSTEM_CAP", 287)
    with pytest.raises(CapExceeded, match="24 x 12 exceeds cap 287"):
        mt.hom_space(M, N)


# -- restriction to a held Subspace ---------------------------------------

RESTRICT_FIELDS = [QQ, Field.prime(2), Field.prime(3), Field.galois(2, 2),
                   Field.prime(5)]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.sampled_from(RESTRICT_FIELDS), st.data())
def test_restriction_to_a_subspace_matches_the_echelon_oracle(F, data):
    # Q entries are signed fractions, so a generator's denominators have
    # an lcm above 1; a spun subspace is invariant, and one that is not
    # spun may leave the span, when both raise the same ValueError
    n = data.draw(st.integers(0, 6))
    entry = (st.fractions(min_value=-3, max_value=3, max_denominator=4)
             if F.kind == "rational" else st.integers(0, F.order - 1))
    row = st.lists(entry, min_size=n, max_size=n)
    gens = {}
    for name in "ab":
        g = Matrix(F, data.draw(st.lists(row, min_size=n, max_size=n)), n)
        gens[name] = (ColumnImages(F, g.column_pairs())
                      if data.draw(st.booleans()) else g)
    mod = mt.AlgebraModule(F, gens)
    seeds = data.draw(st.lists(row, min_size=min(n, 1), max_size=n))
    sp = (span_from_spins(F, n, seeds, list(gens.values()))
          if data.draw(st.booleans()) else Subspace(F, n, seeds))
    try:
        want = echelon_restriction(mod, sp)
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            mt.restrict_to_submodule(mod, sp)
        return
    got = mt.restrict_to_submodule(mod, sp).generators
    assert got == want
    assert all(g.nrows == g.ncols == sp.dim for g in got.values())
    if F.kind == "rational":
        assert all(type(x) is Fraction for g in got.values()
                   for x in g.entries_flat())


@pytest.mark.parametrize("F", RESTRICT_FIELDS, ids=lambda F: F.label())
def test_restriction_to_a_subspace_that_is_not_invariant_raises(F):
    half = F.inv(F.from_int(2)) if F.char != 2 else F.one
    g = Matrix(F, [[F.zero, half], [F.one, F.zero]])
    sp = Subspace(F, 2, [[F.one, F.zero]])
    for op in (g, ColumnImages(F, g.column_pairs())):
        with pytest.raises(ValueError,
                           match="image outside the span of the basis"):
            mt.restrict_to_submodule(mt.AlgebraModule(F, {"g": op}), sp)
    if F.kind != "rational":
        # over a finite field action_matrix writes the images by
        # coords_matrix, as the echelon oracle does, on an invariant line
        line = Subspace(F, 2, [[F.one, F.one]])
        swap = Matrix(F, [[F.zero, F.one], [F.one, F.zero]])
        for op in (swap, ColumnImages(F, swap.column_pairs())):
            want = echelon_restriction(mt.AlgebraModule(F, {"g": op}), line)
            assert line.action_matrix(op) == want["g"] == \
                Matrix(F, [[F.one]])


# F_2, F_3, F_4, F_5, F_8, F_9; in characteristic 2 a Subspace packs its
# rows from width 8e on
SUBMODULE_FIELDS = [Field.prime(2), Field.prime(3), Field.galois(2, 2),
                    Field.prime(5), Field.galois(2, 3), Field.galois(3, 2)]


@pytest.mark.parametrize("F", SUBMODULE_FIELDS, ids=lambda F: F.label())
@pytest.mark.parametrize("offset", [-5, -1, 0, 1])
@settings(derandomize=True, max_examples=10, deadline=None)
@given(data=st.data())
def test_found_submodule_is_restricted_and_quotiented_without_elimination(
        F, offset, data):
    # a block upper-triangular module, at widths below 8e and at or above
    # it: the Subspace find_proper_submodule returns gives the rows
    # oracles' matrices, and no vector is eliminated a second time
    n = 8 * F.degree + offset
    a = data.draw(st.integers(1, n - 1))
    rnd = data.draw(st.randoms(use_true_random=False))

    def block(r, c):
        return Matrix(F, [[rnd.randrange(F.order) for _ in range(c)]
                          for _ in range(r)], c)

    mod = mt.AlgebraModule(F, {
        nm: _block_upper(F, block(a, a), block(a, n - a),
                         block(n - a, n - a))
        for nm in ["a", "b"][:data.draw(st.integers(1, 2))]})
    sub = mt.find_proper_submodule(mod, seed=data.draw(st.integers(0, 7)))
    inserted = []
    add_vector = Subspace.add_vector
    with mock.patch.object(Subspace, "add_vector", lambda *args: (
            inserted.append(args) or add_vector(*args))):
        lower = mt.restrict_to_submodule(mod, sub).generators
        upper = mt.quotient_module(mod, sub).generators
    assert not inserted
    assert isinstance(sub, Subspace) and 0 < sub.dim < n
    assert lower == rows_restriction(mod, sub.basis)
    assert upper == rows_quotient(mod, sub.basis)
