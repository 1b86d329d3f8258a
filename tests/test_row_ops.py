"""Property tests for the per-kind row operations, the Subspace
reduction built on them, the packed rows of characteristic 2 and the int
rows of Q against list rows, ``coords_in_basis``, and elimination against
an independent scalar Gauss-Jordan and the batch fraction-free
elimination over Q.  Hypothesis runs derandomized, so the
examples are the same on every run."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from steinlab.fields import Field, QQ
from steinlab.matrices import Matrix, Subspace, coords_in_basis

from oracles import ListSubspace, rref_int

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


@pytest.mark.parametrize("F", FIELDS, ids=lambda F: F.label())
def test_coords_matrix_of_no_images_keeps_its_rows(F):
    # one column per image: no images give a dim x 0 matrix, not 0 x 0
    sp = Subspace(F, 3, [[F.one, F.zero, F.one]])
    X = sp.coords_matrix([])
    assert (X.nrows, X.ncols) == (1, 0)
    assert (X * Matrix.zero(F, 0, 2)) == Matrix.zero(F, 1, 2)


# -- an independent elimination oracle -------------------------------------

def gauss_jordan(F, rows, ncols):
    """Scalar Gauss-Jordan on Field.add/mul/neg/inv only: the nonzero RREF
    rows and the pivot columns."""
    rows = [list(r) for r in rows]
    piv = []
    for c in range(ncols):
        r = len(piv)
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != F.zero),
                  None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = F.inv(rows[r][c])
        rows[r] = [F.mul(inv, x) for x in rows[r]]
        for i in range(len(rows)):
            f = rows[i][c]
            if i != r and f != F.zero:
                rows[i] = [F.add(a, F.neg(F.mul(f, b)))
                           for a, b in zip(rows[i], rows[r])]
        piv.append(c)
    return rows[:len(piv)], piv


def q_scalars():
    """Ints, integral Fractions and non-integral Fractions, mixed."""
    return st.one_of(st.integers(-6, 6),
                     st.integers(-6, 6).map(Fraction),
                     st.fractions(min_value=-5, max_value=5,
                                  max_denominator=6))


@st.composite
def elimination_case(draw, F):
    """Up to 7 rows of up to 7 columns (wide, tall and empty shapes), with
    zero rows and duplicate rows mixed in."""
    n = draw(st.integers(0, 7))
    entry = q_scalars() if F.kind == "rational" else scalars(F)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                         min_size=0, max_size=7))
    extra = draw(st.lists(st.sampled_from(["zero", "duplicate"]),
                          max_size=2))
    for kind in extra:
        at = draw(st.integers(0, len(rows)))
        if kind == "zero":
            rows.insert(at, [0] * n)
        elif rows:
            rows.insert(at, list(draw(st.sampled_from(rows))))
    return n, rows


@pytest.mark.parametrize("F", FIELDS, ids=lambda F: F.label())
@settings(SETTINGS, max_examples=80)
@given(data=st.data())
def test_elimination_matches_scalar_gauss_jordan(F, data):
    n, rows = data.draw(elimination_case(F))
    basis, piv = gauss_jordan(F, rows, n)
    sp = Subspace(F, n, rows)
    assert (sp.basis, sp.pivots) == (basis, piv)
    R, rpiv = Matrix(F, rows).rref()
    assert rpiv == piv
    assert R.nrows == len(rows)
    assert R.rows == basis + [[F.zero] * R.ncols] * (len(rows) - len(piv))
    if F.kind == "rational":
        assert all(type(x) is Fraction for r in sp.basis + R.rows for x in r)
        assert rref_int(rows, n) == (basis, piv)


@pytest.mark.parametrize("rows", [
    [[2, 4], [1, 2]],                                   # integral, rank 1
    [[Fraction(1, 2), Fraction(1, 3)], [3, 2]],         # mixed, rank 1
    [[0, 0, 0], [Fraction(2, 3), 0, 1], [0, 0, 0]],     # zero rows kept
    [[1, 2, 3, 4, 5]],                                  # wide
    [[1], [Fraction(1, 7)], [0], [5]],                  # tall
], ids=["integral", "mixed", "zero-rows", "wide", "tall"])
def test_q_rref_pins(rows):
    n = len(rows[0])
    R, piv = Matrix(QQ, rows).rref()
    assert (R.rows[:len(piv)], piv) == gauss_jordan(QQ, rows, n)
    assert R.rows[len(piv):] == [[0] * n] * (len(rows) - len(piv))
    assert all(type(x) is Fraction for r in R.rows for x in r)



# -- packed rows (characteristic 2) and int rows (Q) against list rows -----

PACKED = [Field.prime(2), Field.galois(2, 2), Field.galois(2, 3),
          Field.galois(2, 4)]


@st.composite
def packed_case(draw):
    """A characteristic-2 field or Q, a width (over characteristic 2: 0,
    64-bit word edges and widths on both sides of 8e, where Subspace
    starts packing), vectors to insert in order (random, random after a
    run of zeros, sparse, zero, or a combination of earlier ones) and
    probe vectors.  Q entries are ints and Fractions of either sign."""
    F = draw(st.sampled_from(PACKED + [QQ]))
    if F.kind == "rational":
        n = draw(st.integers(0, 9))
        label = q_scalars()
    else:
        n = draw(st.one_of(st.sampled_from([0, 1, 8 * F.degree, 63, 64,
                                            65]), st.integers(0, 140)))
        label = st.integers(0, F.order - 1)
    vec = st.lists(label, min_size=n, max_size=n)

    def combination(vs):
        w = [F.zero] * n
        for v in vs:
            c = draw(label)
            w = [F.add(a, F.mul(c, b)) for a, b in zip(w, v)]
        return w
    vs = []
    for kind in draw(st.lists(st.sampled_from(
            ["random", "tail", "sparse", "zero", "combination"]),
            max_size=8)):
        if kind == "random":
            vs.append(draw(vec))
        elif kind == "tail":
            k = draw(st.integers(0, n))
            vs.append([F.zero] * k + draw(vec)[k:])
        elif kind == "sparse":
            v = [F.zero] * n
            for j in draw(st.lists(st.integers(0, n - 1), max_size=3)
                          if n else st.just([])):
                v[j] = draw(label)
            vs.append(v)
        elif kind == "zero":
            vs.append([F.zero] * n)
        else:
            vs.append(combination(vs))
    probes = draw(st.lists(vec, max_size=2)) + [combination(vs)]
    return F, n, vs, probes


@settings(SETTINGS, max_examples=150)
@given(packed_case())
def test_packed_rows_match_list_rows(case):
    F, n, vs, probes = case
    sp, ref = Subspace(F, n), ListSubspace(F, n)
    for v in vs:
        assert sp.add_vector(v) == ref.add_vector(v)
        assert (sp.basis, sp.pivots) == (ref.basis, ref.pivots)
    for w in vs + probes:
        assert sp.reduce(w) == ref.reduce(w)
        assert sp.contains(w) == ref.contains(w)
        assert sp.coords(w) == ref.coords(w)
    inside = [w for w in vs + probes if ref.contains(w)]
    assert sp.coords_matrix(inside) == ref.coords_matrix(inside)
    assert Subspace(F, n, vs) == sp == Subspace(F, n, vs[::-1])
    if F.kind == "rational":
        assert all(type(x) is Fraction for r in sp.basis for x in r)


@pytest.mark.parametrize("F", PACKED, ids=lambda F: F.label())
def test_pack_round_trip(F):
    for n in (0, 1, 7, 64, 65, 200):
        v = [(3 * j + 1) % F.order for j in range(n)]
        planes = F.pack(v)
        assert len(planes) == F.degree
        assert F.unpack(planes, n) == v
        assert [F.packed_entry(planes, j) for j in range(n)] == v


@pytest.mark.parametrize("n", ["8e-1", "8e", 64, 65, 216])
@pytest.mark.parametrize("F", PACKED, ids=lambda F: F.label())
def test_back_reduction_hits_every_stored_row(F, n):
    # v_i = c*(e_i + a*e_(i+1)) + a dense tail on the last columns: before
    # v_i goes in, every stored row is nonzero at column i, its new pivot,
    # so back-reduction changes every stored row at every insertion
    import random
    n = {"8e-1": 8 * F.degree - 1, "8e": 8 * F.degree}.get(n, n)
    rng = random.Random(f"{F.label()}:{n}")
    nonzero = range(1, F.order)
    tail = n // 3
    sp, ref = Subspace(F, n), ListSubspace(F, n)
    for i in range(n - tail - 1):
        v = [F.zero] * n
        v[i], v[i + 1] = F.one, rng.choice(nonzero)
        v[n - tail:] = [rng.randrange(F.order) for _ in range(tail)]
        v = F.row_scale(rng.choice(nonzero), v)
        assert all(row[i] for row in ref.basis)
        assert sp.add_vector(v) and ref.add_vector(v)
        assert (sp.basis, sp.pivots) == (ref.basis, ref.pivots)
    assert sp.dim == n - tail - 1
    probe = [rng.randrange(F.order) for _ in range(n)]
    assert sp.reduce(probe) == ref.reduce(probe)
