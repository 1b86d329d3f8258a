from steinlab import modtools as mt
from steinlab.fields import Field
from steinlab.matrices import Matrix


def natural_gl2_f2(K=None):
    K = K or Field.prime(2)
    return mt.AlgebraModule(K, {
        "t": Matrix.from_ints(K, [[1, 1], [0, 1]]),
        "s": Matrix.from_ints(K, [[0, 1], [1, 0]]),
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
    # simple module too large for exhaustive spinning at cap 10
    K = Field.prime(3)
    coeffs = [1, 0, 0, 0, 1, 1]   # x^6 + x^5 + x^4 + 1, irreducible mod 3
    n = 6
    rows = [[K.zero] * n for _ in range(n)]
    for i in range(1, n):
        rows[i][i - 1] = K.one
    for i in range(n):
        rows[i][n - 1] = K.coerce(-coeffs[i] if i < len(coeffs) else 0)
    M = mt.AlgebraModule(K, {"g": Matrix(K, rows)})
    assert mt.is_simple(M, cap=10)


def test_minimal_polynomial_of_shift():
    K = Field.prime(5)
    M = cyclic_shift_module(4, K)
    mp = mt.minimal_polynomial(M.generators["g"])
    # x^4 - 1
    assert mp == [K.coerce(-1), K.zero, K.zero, K.zero, K.one]


def test_hom_space_and_iso():
    K = Field.prime(2)
    a = natural_gl2_f2(K)
    b = natural_gl2_f2(K)
    assert len(mt.hom_space(a, b)) == 1
    assert mt.are_isomorphic(a, b)
    triv = mt.trivial_like(a)
    assert not mt.are_isomorphic(a, triv)


def test_socle_of_group_algebra():
    K = Field.prime(2)
    M = cyclic_shift_module(3, K)
    soc = mt.socle_module(M)
    assert soc.dimension == 3  # semisimple: p does not divide 3


def test_socle_nontrivial():
    # K[Z/2] in characteristic 2 has a 1-dimensional socle
    K = Field.prime(2)
    M = cyclic_shift_module(2, K)
    soc = mt.socle_module(M)
    assert soc.dimension == 1


def test_tensor_dimensions():
    K = Field.prime(2)
    a = natural_gl2_f2(K)
    t = mt.tensor(a, a)
    assert t.dimension == 4


def test_frobenius_twist_composition():
    K = Field.galois(2, 2)
    labels = {
        "t": Matrix.from_ints(K, [[1, 1], [0, 1]]),
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
