from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from steinlab.fields import Field, QQ
from steinlab.matrices import Matrix, Subspace

from oracles import dense_apply, dense_kron, rref_kernel_basis


def from_ints(F, rows):
    """The matrix of integer entries, each read as its image in F."""
    return Matrix(F, [[F.from_int(x) for x in r] for r in rows])


def rref(m):
    return m.rref()


def kernel_basis(m):
    """Null space of m as a Subspace of F^cols."""
    K = m.kernel_basis()
    return Subspace(m.field, m.ncols, K.rows)


def test_rank_nullity():
    F = Field.prime(5)
    M = from_ints(F, [[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert M.rank() + M.kernel_basis().nrows == 3


def test_rref_idempotent():
    F = Field.galois(2, 2)
    M = Matrix(F, [[F.element(x) for x in r]
                   for r in [[1, 2, 3], [2, 3, 1], [1, 1, 1]]])
    R, piv = M.rref()
    R2, piv2 = R.rref()
    assert R == R2 and piv == piv2


def test_inverse_roundtrip():
    F = Field.prime(3)
    M = from_ints(F, [[1, 2, 0], [0, 1, 1], [0, 0, 1]])
    ident = Matrix.identity(F, 3)
    assert M * M.inverse() == ident
    assert M.inverse() * M == ident


def test_rational_fraction_free_agrees_with_generic():
    rows = [[Fraction(1), Fraction(2), Fraction(3)],
            [Fraction(2), Fraction(5), Fraction(7)],
            [Fraction(1), Fraction(1), Fraction(1)]]
    M = Matrix(QQ, rows)
    assert M.rank() == 3
    assert M * M.inverse() == Matrix.identity(QQ, 3)


def test_rational_inverse_of_int_pivots_is_exact():
    M = Matrix(QQ, [[2, Fraction(1, 3)], [1, 1]])
    inv = M.inverse()
    assert inv.rows == [[Fraction(3, 5), Fraction(-1, 5)],
                        [Fraction(-3, 5), Fraction(6, 5)]]
    assert all(isinstance(x, Fraction) for x in inv.entries_flat())


def test_rational_subspace_of_int_vector_is_exact():
    sp = Subspace(QQ, 2)
    sp.add_vector([2, 1])
    assert sp.basis == [[1, Fraction(1, 2)]]
    assert all(isinstance(x, Fraction) for x in sp.basis[0])


def test_kernel_vectors_annihilate():
    F = Field.prime(7)
    M = from_ints(F, [[1, 2, 3, 4], [2, 4, 6, 1]])
    K = M.kernel_basis()
    for row in K.rows:
        assert all(x == F.zero for x in M.apply_to_vector(list(row)))


def test_kron_mixed_product():
    F = Field.prime(3)
    A = from_ints(F, [[1, 2], [0, 1]])
    B = from_ints(F, [[2, 1], [1, 1]])
    C = from_ints(F, [[1, 1], [2, 0]])
    D = from_ints(F, [[0, 1], [1, 2]])
    assert (A * C).kron(B * D) == A.kron(B) * C.kron(D)


def test_solve_right():
    F = Field.prime(5)
    M = from_ints(F, [[1, 1], [0, 2]])
    x = M.solve_right([3, 4])
    assert M.apply_to_vector(x) == [3, 4]
    singular = from_ints(F, [[1, 1], [2, 2]])
    assert singular.solve_right([1, 0]) is None


def test_matrix_without_rows_keeps_its_width():
    F = Field.prime(3)
    Z = Matrix.zero(F, 0, 3)
    assert (Z.nrows, Z.ncols) == (0, 3)
    # no equations: the kernel is all of F_3^3
    assert kernel_basis(Z) == Subspace(F, 3, Matrix.identity(F, 3).rows)
    assert (Z.transpose().nrows, Z.transpose().ncols) == (3, 0)
    assert Z.transpose().transpose() == Z
    assert Matrix.from_json(Z.to_json()) == Z
    assert Z != Matrix.zero(F, 0, 2)


def test_json_roundtrip():
    F = Field.galois(3, 2)
    M = Matrix(F, [[F.gen(), F.one], [F.zero, F.gen()]])
    assert Matrix.from_json(M.to_json()) == M
    Q = Matrix(QQ, [[Fraction(1, 2), Fraction(-3)]])
    assert Matrix.from_json(Q.to_json()) == Q


def test_json_int_entries_have_one_meaning():
    def payload(p, e, entries):
        return {"field": {"p": p, "e": e}, "rows": 1,
                "cols": len(entries), "entries": [entries]}

    # over a prime field an int is an integer mod p
    assert Matrix.from_json(payload(3, 1, [4, -1])).rows == [[1, 2]]
    # over F_4 an int is an element label, and only a label
    F = Field.galois(2, 2)
    assert Matrix.from_json(payload(2, 2, [2, 3, [1, 1]])).rows == [
        [2, 3, F.from_coeffs([1, 1])]]
    for bad in (5, -1):
        with pytest.raises(ValueError, match="not an element label of F_4"):
            Matrix.from_json(payload(2, 2, [2, bad, 3]))


@pytest.mark.parametrize("p, e, entry", [
    (3, 1, 1.5), (3, 1, True), (3, 1, [1.5]), (3, 1, [False]),
    (2, 2, True), (2, 2, 1.0), (2, 2, [1, True]), (2, 2, "1"),
    (2, 2, [1]), (2, 2, [1, 1, 1]), (3, 1, []), (3, 1, [1, 1]),
    (0, 1, 0.1), (0, 1, True), (0, 1, "0.1"), (0, 1, "1/0"), (0, 1, "1"),
    (0, 1, [1]),
])
def test_json_refuses_bools_floats_and_strays(p, e, entry):
    payload = {"field": {"p": p, "e": e}, "rows": 1, "cols": 2,
               "entries": [[1, entry]]}
    with pytest.raises(ValueError, match="is not an entry of"):
        Matrix.from_json(payload)


@pytest.mark.parametrize("nrows, ncols, entries", [
    (True, 2, [[1, 0]]), (1.0, 2, [[1, 0]]), (1, 2.0, [[1, 0]]),
    (0, 2.5, []), (0, -1, []), (-1, 0, []), ("1", 2, [[1, 0]]),
])
def test_json_refuses_non_int_headers(nrows, ncols, entries):
    payload = {"field": {"p": 3, "e": 1}, "rows": nrows, "cols": ncols,
               "entries": entries}
    with pytest.raises(ValueError, match="rows and cols must be ints >= 0"):
        Matrix.from_json(payload)


def test_json_rationals_are_ints_or_num_den_strings():
    payload = {"field": {"p": 0, "e": 1}, "rows": 1, "cols": 4,
               "entries": [[3, -2, "-1/3", "4/2"]]}
    assert Matrix.from_json(payload).rows == [
        [Fraction(3), Fraction(-2), Fraction(-1, 3), Fraction(2)]]


def test_subspace_membership_and_intersection():
    F = Field.prime(2)
    sp = Subspace(F, 3, [[1, 1, 0], [0, 1, 1]])
    assert sp.dim == 2
    assert sp.contains([1, 0, 1])


def test_module_level_helpers():
    F = Field.prime(3)
    M = from_ints(F, [[1, 2], [2, 4]])
    R, piv = rref(M)
    assert len(piv) == 1
    assert kernel_basis(M).dim == 1


# -- products and entrywise operations against scalar oracles -------------

# Q, F_2, F_5, F_4, F_9 and F_{7^4}, whose row operations have no add table
KERNEL_FIELDS = [QQ, Field.prime(2), Field.prime(5), Field.galois(2, 2),
                 Field.galois(3, 2), Field.galois(7, 4)]


def nonzero_scalars(F):
    if F.kind == "rational":
        return st.fractions(min_value=-4, max_value=4,
                            max_denominator=5).filter(bool)
    return st.integers(1, F.order - 1)


@st.composite
def kernel_rows(draw, F, nrows, ncols):
    """Rows over F that are sparse (a quarter nonzero) or dense (three
    quarters nonzero), with zero rows mixed in."""
    sparse = draw(st.booleans())

    def entry():
        if (draw(st.integers(0, 3)) == 0) == sparse:
            return draw(nonzero_scalars(F))
        return F.zero
    rows = [[entry() for _ in range(ncols)] for _ in range(nrows)]
    for i in range(nrows):
        if draw(st.integers(0, 4)) == 0:
            rows[i] = [F.zero] * ncols
    return rows


@st.composite
def kernel_matrix(draw, F):
    """A matrix over F of at most 4 x 4; either dimension may be 0."""
    nrows, ncols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    return Matrix(F, draw(kernel_rows(F, nrows, ncols)), ncols)


def _all_fractions(F, rows):
    return F.kind != "rational" or all(isinstance(x, Fraction)
                                       for r in rows for x in r)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.sampled_from(KERNEL_FIELDS), st.data())
def test_apply_to_vector_matches_scalar_oracle(F, data):
    M = data.draw(kernel_matrix(F))
    (v,) = data.draw(kernel_rows(F, 1, M.ncols))
    got = M.apply_to_vector(v)
    assert got == dense_apply(M, v)
    assert _all_fractions(F, [got])


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.sampled_from(KERNEL_FIELDS), st.data())
def test_reused_matrix_matches_dense_oracle(F, data):
    # a matrix keeps the nonzero entries it listed on its first product,
    # so every later product, on either side of *, must still agree
    M = data.draw(kernel_matrix(F))
    if data.draw(st.integers(0, 3)) == 0:
        M = Matrix.zero(F, M.nrows, M.ncols)
    k = data.draw(st.integers(0, 4))
    A = Matrix(F, data.draw(kernel_rows(F, k, M.nrows)), M.nrows)
    B = Matrix(F, data.draw(kernel_rows(F, M.ncols, k)), k)
    for v in data.draw(kernel_rows(F, 3, M.ncols)):
        got = M.apply_to_vector(v)
        assert got == dense_apply(M, v)
        assert _all_fractions(F, [got])
        for X, Y in ((A, M), (M, B)):
            P = X * Y
            cols = Y.transpose()
            assert (P.nrows, P.ncols) == (X.nrows, Y.ncols)
            assert P.rows == [dense_apply(cols, r) for r in X.rows]
            assert _all_fractions(F, P.rows)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.sampled_from(KERNEL_FIELDS), st.data())
def test_kron_matches_scalar_oracle(F, data):
    A = data.draw(kernel_matrix(F))
    B = data.draw(kernel_matrix(F))
    K = A.kron(B)
    assert (K.nrows, K.ncols) == (A.nrows * B.nrows, A.ncols * B.ncols)
    assert K.rows == [[F.mul(a, b) for a in ra for b in rb]
                      for ra in A.rows for rb in B.rows]
    assert _all_fractions(F, K.rows)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.sampled_from([QQ, Field.prime(2), Field.galois(2, 2),
                        Field.prime(5)]), st.data())
def test_kron_matches_dense_oracle_and_lists_its_pairs(F, data):
    # zero rows come from kernel_rows, zero columns are set here, and
    # either factor may be 0 x 0; a factor may have listed its pairs
    factors = []
    for _ in range(2):
        M = data.draw(kernel_matrix(F))
        cut = data.draw(st.sets(st.integers(0, 3), max_size=2))
        M = Matrix(F, [[F.zero if j in cut else x for j, x in enumerate(r)]
                       for r in M.rows], M.ncols)
        if data.draw(st.booleans()):
            M.apply_to_vector([F.one] * M.ncols)
        factors.append(M)
    A, B = factors
    K = A.kron(B)
    want = dense_kron(A, B)
    assert (K.nrows, K.ncols, K.rows) == (want.nrows, want.ncols, want.rows)
    assert K._nonzero == [[(j, x) for j, x in enumerate(row) if x]
                          for row in K.rows]
    assert _all_fractions(F, K.rows)
    assert K.column_pairs() == want.column_pairs()


def test_kron_of_empty_factors():
    for F in (QQ, Field.prime(5)):
        E, one = Matrix(F, [], 0), Matrix.identity(F, 1)
        for A, B, shape in ((E, E, (0, 0)), (E, one, (0, 0)),
                            (Matrix(F, [[], []], 0), one, (2, 0)),
                            (one, Matrix(F, [], 3), (0, 3))):
            K = A.kron(B)
            assert (K.nrows, K.ncols) == shape
            assert K.rows == dense_kron(A, B).rows and K._nonzero == K.rows


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.sampled_from(KERNEL_FIELDS), st.data())
def test_kernel_basis_matches_padded_rref_oracle(F, data):
    # tall matrices too: the rows repeat, so the rank stays below nrows
    M = data.draw(kernel_matrix(F))
    M = Matrix(F, M.rows * data.draw(st.integers(1, 3)), M.ncols)
    K = M.kernel_basis()
    want = rref_kernel_basis(M)
    assert (K.nrows, K.ncols, K.rows) == (want.nrows, want.ncols, want.rows)
    assert _all_fractions(F, K.rows)
    assert all(not any(r) for r in (M * K.transpose()).rows)


def _dot(F, xs, ys):
    acc = F.zero
    for a, b in zip(xs, ys):
        acc = F.add(acc, F.mul(a, b))
    return acc


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.sampled_from(KERNEL_FIELDS), st.data())
def test_product_matches_scalar_oracle(F, data):
    # any of the outer and inner dimensions may be 0
    r, k, c = (data.draw(st.integers(0, 4)) for _ in range(3))
    A = Matrix(F, data.draw(kernel_rows(F, r, k)), k)
    B = Matrix(F, data.draw(kernel_rows(F, k, c)), c)
    P = A * B
    assert (P.nrows, P.ncols) == (r, c)
    cols = [[row[j] for row in B.rows] for j in range(c)]
    assert P.rows == [[_dot(F, ra, col) for col in cols] for ra in A.rows]
    assert _all_fractions(F, P.rows)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.sampled_from(KERNEL_FIELDS), st.data())
def test_product_is_the_same_on_fresh_and_listed_factors(F, data):
    # A * B reads B's columns from its rows while B is fresh, and from
    # its listed nonzero pairs once B has been applied to a vector
    r, k, c = (data.draw(st.integers(0, 4)) for _ in range(3))
    A = Matrix(F, data.draw(kernel_rows(F, r, k)), k)
    B = Matrix(F, data.draw(kernel_rows(F, k, c)), c)
    want_cols = [[(i, row[j]) for i, row in enumerate(B.rows) if row[j]]
                 for j in range(c)]
    want = [dense_apply(B.transpose(), row) for row in A.rows]
    for listed in (False, True):
        if listed:
            (v,) = data.draw(kernel_rows(F, 1, c))
            assert B.apply_to_vector(v) == dense_apply(B, v)
        assert B.column_pairs() == want_cols
        P = A * B
        assert (P.nrows, P.ncols) == (r, c)
        assert P.rows == want
        assert _all_fractions(F, P.rows)


def test_rational_product_over_empty_inner_dimension_is_fractions():
    P = Matrix(QQ, [[], []], 0) * Matrix(QQ, [], 3)
    assert P.rows == [[0, 0, 0], [0, 0, 0]]
    assert _all_fractions(QQ, P.rows)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.sampled_from(KERNEL_FIELDS), st.data())
def test_entrywise_ops_match_scalar_oracle(F, data):
    A = data.draw(kernel_matrix(F))
    B = Matrix(F, data.draw(kernel_rows(F, A.nrows, A.ncols)), A.ncols)
    c = data.draw(st.one_of(st.just(F.zero), nonzero_scalars(F)))

    def entrywise(op, *mats):
        return [[op(*xs) for xs in zip(*rows)]
                for rows in zip(*(M.rows for M in mats))]

    cases = [(A + B, entrywise(F.add, A, B)),
             (A - B, entrywise(lambda a, b: F.add(a, F.neg(b)), A, B)),
             (-A, entrywise(F.neg, A)),
             (A.scale(c), entrywise(lambda a: F.mul(c, a), A))]
    for got, expected in cases:
        assert (got.nrows, got.ncols) == (A.nrows, A.ncols)
        assert got.rows == expected
        assert _all_fractions(F, got.rows)
