"""Property tests for the per-kind row operations, the Subspace
reduction built on them and ``coords_in_basis``.  Hypothesis runs
derandomized, so the examples are the same on every run."""

import pytest
from hypothesis import given, settings, strategies as st

from steinlab.fields import Field, QQ
from steinlab.matrices import Matrix, Subspace, coords_in_basis

# F_2, F_5, F_4, F_9, F_{7^4} (too large for an add table) and Q
FIELDS = [Field.prime(2), Field.prime(5), Field.galois(2, 2),
          Field.galois(3, 2), Field.galois(7, 4), QQ]

SETTINGS = settings(derandomize=True, max_examples=60, deadline=None)


def scalars(F):
    if F.kind == "rational":
        return st.fractions(min_value=-5, max_value=5, max_denominator=6)
    return st.integers(0, F.order - 1)


@st.composite
def field_and_vectors(draw, max_vectors=5):
    F = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(1, 5))
    vec = st.lists(scalars(F), min_size=n, max_size=n)
    vs = draw(st.lists(vec, min_size=0, max_size=max_vectors))
    coeffs = draw(st.lists(scalars(F), min_size=len(vs), max_size=len(vs)))
    return F, n, vs, coeffs


@SETTINGS
@given(field_and_vectors(max_vectors=2), st.data())
def test_row_ops_match_scalar_ops(case, data):
    F, n, vs, _ = case
    v = vs[0] if vs else [F.zero] * n
    row = vs[1] if len(vs) > 1 else [F.one] * n
    f = data.draw(scalars(F))
    assert F.row_sub(v, f, row) == [F.sub(a, F.mul(f, b))
                                    for a, b in zip(v, row)]
    assert F.row_scale(f, v) == [F.mul(f, x) for x in v]


def _rref_rows(F, n, vs):
    if not vs:
        return [], []
    R, piv = Matrix(F, vs).rref()
    return R.rows[:len(piv)], piv


@SETTINGS
@given(field_and_vectors())
def test_subspace_basis_is_rref(case):
    F, n, vs, _ = case
    rows, piv = _rref_rows(F, n, vs)
    built = Subspace(F, n, vs)
    assert (built.basis, built.pivots) == (rows, piv)
    grown = Subspace(F, n)
    for v in vs:
        grown.add_vector(v)
    assert (grown.basis, grown.pivots) == (rows, piv)
    assert all(grown.contains(v) for v in vs)


@SETTINGS
@given(field_and_vectors())
def test_coords_reconstruct_span(case):
    F, n, vs, coeffs = case
    sp = Subspace(F, n, vs)
    w = [F.zero] * n
    for c, v in zip(coeffs, vs):
        w = [F.add(a, F.mul(c, b)) for a, b in zip(w, v)]
    for target in vs + [w]:
        x = sp.coords(target)
        assert x is not None
        back = [F.zero] * n
        for c, row in zip(x, sp.basis):
            back = [F.add(a, F.mul(c, b)) for a, b in zip(back, row)]
        assert back == [F.add(F.zero, t) for t in target]
    for j in range(n):
        e = [F.zero] * n
        e[j] = F.one
        assert (sp.coords(e) is None) == (not sp.contains(e))


def nonzero(F):
    return scalars(F).filter(lambda x: x != F.zero)


@st.composite
def basis_and_coeffs(draw, F):
    """Independent rows that are not in echelon form (row i leads at
    column k-1-i, so the leading columns fall), plus coefficient columns."""
    k = draw(st.integers(2, 4))
    n = draw(st.integers(k + 1, 6))
    rows = []
    for i in range(k):
        lead = k - 1 - i
        tail = draw(st.lists(scalars(F), min_size=n - lead - 1,
                             max_size=n - lead - 1))
        rows.append([F.zero] * lead + [draw(nonzero(F))] + tail)
    cols = draw(st.lists(st.lists(scalars(F), min_size=k, max_size=k),
                         min_size=1, max_size=4))
    return n, rows, cols


def combination(F, n, coeffs, rows):
    w = [F.zero] * n
    for c, row in zip(coeffs, rows):
        w = [F.add(a, F.mul(c, b)) for a, b in zip(w, row)]
    return w


@pytest.mark.parametrize("F", FIELDS, ids=lambda F: F.label())
@settings(SETTINGS, max_examples=25)
@given(data=st.data())
def test_coords_in_basis_recovers_coefficients(F, data):
    n, rows, cols = data.draw(basis_and_coeffs(F))
    assert Subspace(F, n, rows).basis != rows
    images = [combination(F, n, c, rows) for c in cols]
    X = coords_in_basis(F, rows, images)
    assert X.transpose().rows == cols
    B = Matrix(F, rows).transpose()
    assert X.transpose().rows == [B.solve_right(img) for img in images]


@pytest.mark.parametrize("F", FIELDS, ids=lambda F: F.label())
@settings(SETTINGS, max_examples=25)
@given(data=st.data())
def test_coords_in_basis_rejects_image_outside_span(F, data):
    n, rows, cols = data.draw(basis_and_coeffs(F))
    # the rows restricted to their first k columns are invertible, so a
    # nonzero vector vanishing there lies outside the span
    k = len(rows)
    outside = combination(F, n, cols[0], rows)
    outside[k] = F.add(outside[k], F.one)
    with pytest.raises(ValueError):
        coords_in_basis(F, rows, [combination(F, n, cols[-1], rows),
                                  outside])
