from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from steinlab import modtools as mt
from steinlab import schurfun as sf
from steinlab import symgrp as sg
from steinlab.fields import Field, QQ
from steinlab.matrices import Matrix, Subspace
from steinlab.modtools import end_dim, is_simple

from oracles import (all_partitions, dense_norm_basis,
                     dense_sym_action, dense_tensor_action, hom_space_socle,
                     rows_restriction, schur_image_vectors,
                     semistandard_count)


def test_char0_sym_and_alt():
    assert sf.schur_value((2,), 2, QQ).dimension == 3     # Sym^2
    assert sf.schur_value((1, 1), 2, QQ).dimension == 1   # Lambda^2
    assert sf.schur_value((2, 1), 3, QQ).dimension == 8


def test_too_many_rows_gives_zero():
    assert sf.schur_value((1, 1, 1), 2, QQ).dimension == 0


def test_char0_dimensions_match_semistandard_counts():
    for n in (2, 3):
        for d in range(1, 4):
            for lam in all_partitions(d):
                rep = sf.schur_value(lam, n, QQ)
                assert rep.dimension == semistandard_count(lam, n)


def test_elementary_norm_image_char2():
    K = Field.prime(2)
    M = sg.specht_module((2,), K)   # trivial S_2-module
    E = sf.elementary_value(M, 2, K)
    assert E.dimension == 1         # the norm image inside Sym is a line


def test_socle_rejects_non_restricted():
    K = Field.prime(2)
    with pytest.raises(ValueError):
        sf.socle_simple((2,), 2, K)


def test_socle_simple_l11_char2():
    K = Field.prime(2)
    L = sf.socle_simple((1, 1), 2, K)
    assert L.dimension == 1
    assert is_simple(L)


@pytest.mark.parametrize("lam, n, q, simple", [
    ((2, 1), 3, 2, True), ((2, 1), 3, 5, True), ((1, 1), 2, 2, True),
    ((2, 1), 2, 3, True), ((2, 1), 3, 3, False)])
def test_socle_simple_matches_hom_space_oracle(monkeypatch, lam, n, q,
                                               simple):
    # a Schur module that is its own socle is returned under the name
    # L_lam, and neither it nor a piece of it is restricted
    K = Field.of_order(q)
    restricted = []
    restrict = mt.restrict_to_submodule

    def counted(mod, rows):
        restricted.append(mod.name)
        return restrict(mod, rows)
    monkeypatch.setattr(sf, "restrict_to_submodule", counted)
    monkeypatch.setattr(mt, "restrict_to_submodule", counted)
    L = sf.socle_simple(lam, n, K)
    # schur_value restricts an unnamed ambient module; the rest are S's
    assert (not any(restricted)) == simple
    monkeypatch.undo()
    S = sf.schur_value(lam, n, K)
    O = mt.restrict_to_submodule(
        S, Subspace(K, S.dimension, hom_space_socle(S)))
    assert L.generators == O.generators
    assert L.labels == O.labels == S.labels
    assert L.name == f"L_{lam}(K^{n})"
    assert (L.dimension == S.dimension) == simple


def test_highest_weights_f7():
    K = Field.prime(7)
    cases = {(2,): (2, 0), (1, 1): (1, 1), (2, 1): (2, 1)}
    for lam, expect in cases.items():
        L = sf.socle_simple(lam, 2, K)
        assert sf.highest_weight(L, degree=sum(lam)) == expect
    L3 = sf.socle_simple((1,), 3, K)
    assert sf.highest_weight(L3, degree=1) == (1, 0, 0)


def test_field_too_small_for_weights():
    K = Field.prime(2)
    L = sf.socle_simple((1,), 2, K)
    with pytest.raises(sf.FieldTooSmall):
        sf.highest_weight(L, degree=1)


def test_det_twist():
    assert sf.det_twist_check((1, 1), 2, Field.prime(3))
    assert sf.det_twist_check((2, 1), 2, Field.prime(2))
    assert sf.det_twist_check((2, 2), 2, Field.prime(3))


def test_char0_elementary_matches_schur():
    from steinlab.modtools import are_isomorphic
    K = QQ
    for lam in ((2,), (1, 1), (2, 1)):
        S = sg.specht_module(lam, K)
        E = sf.elementary_value(S, 2, K)
        L = sf.schur_value(lam, 2, K)
        assert E.dimension == L.dimension
        if E.dimension:
            assert are_isomorphic(E, L)


def test_elementary_simple_with_scalar_end_char_p():
    K = Field.prime(3)
    D = sg.simple_module((2, 1), K)
    E = sf.elementary_value(D, 2, K)
    if E.dimension:
        assert is_simple(E)
        assert end_dim(E) == 1


def test_delta_rep_and_det():
    K = Field.prime(3)
    delta = sf.delta_rep(2, K)
    assert delta.dimension == 1
    assert delta.generators["e"].rows[0][0] == K.zero
    det = sf.det_rep(2, K)
    assert det.dimension == 1


def torus_by_words(rep):
    """The torus generators diag(1,...,z,...,1) built the long way: each
    transposition (1 i) as the word s_(i-1)...s_2 s_1 s_2...s_(i-1) in the
    adjacent transpositions s_k = c^(k-1) s c^(-(k-1)), then (1 i) D_1 (1 i)."""
    n = rep.labels["d"].nrows
    gens = rep.generators
    D1 = gens["d"]
    out = [D1]
    if n == 1:
        return out
    s = gens["s"]
    c = gens.get("c")
    ident = Matrix.identity(rep.field, rep.dimension)
    cinv = None
    if c is not None:
        cinv = c
        for _ in range(n - 2):
            cinv = cinv * c
    adj = [s]
    for _ in range(2, n):
        adj.append(c * adj[-1] * cinv)
    for i in range(2, n + 1):
        w = ident
        for k in range(i - 1, 0, -1):
            w = w * adj[k - 1]
        for k in range(2, i):
            w = w * adj[k - 1]
        out.append(w * D1 * w)
    return out


TORUS_FIELDS = [Field.of_order(q) for q in (2, 3, 4, 5, 7, 8, 9)]


@pytest.mark.parametrize("K", TORUS_FIELDS, ids=lambda K: K.label())
def test_torus_conjugation_matches_word_oracle(K):
    checked = 0
    for n in range(1, 5):
        for d in range(4):
            for lam in all_partitions(d):
                reps = [sf.schur_value(lam, n, K)]
                if sg.is_p_restricted(lam, K.char):
                    reps.append(sf.socle_simple(lam, n, K))
                for rep in reps:
                    if rep.dimension:
                        assert sf._torus_matrices(rep) == \
                            torus_by_words(rep)
                        checked += 1
    assert checked >= 40


@pytest.mark.parametrize("K", [Field.prime(2), Field.prime(3),
                               Field.galois(2, 2), QQ],
                         ids=lambda K: K.label())
def test_schur_alternants_match_oracle(K):
    for d in range(1, 7):
        for lam in all_partitions(d):
            for n in range(1, 4 if d > 4 else 5):
                sym, want = schur_image_vectors(lam, n, K)
                index = {b: i for i, b in enumerate(sym)}
                got = [sg.column_alternant(choice, lam, index, K)
                       for choice in product(*[combinations(range(n), c)
                                               for c in sg.conjugate(lam)])]
                assert got == want


def test_norm_image_matches_dense_norm():
    for K in (QQ, Field.prime(2), Field.prime(3)):
        for d in range(1, 5):
            for lam in all_partitions(d):
                M = sg.specht_module(lam, K)
                for n in range(1, 4):
                    got = sf._norm_image(M, n, K)
                    assert [list(r) for r in got.basis] == \
                        [list(r) for r in dense_norm_basis(M, n, K)]


def test_non_integral_entries_stay_fractions():
    # over Q integral entries are summed as ints and the rest as
    # Fractions: a Specht module conjugated by diag(1/2, 1, ..., 1), and a
    # generator with entries 1/2 and -2/3, match the dense oracles
    for lam in [(2, 1), (2, 2), (3, 1)]:
        S = sg.specht_module(lam, QQ)
        k = S.dimension
        P = Matrix(QQ, [[Fraction(1, 2) if i == j == 0 else Fraction(i == j)
                         for j in range(k)] for i in range(k)])
        M = mt.AlgebraModule(QQ, {nm: P.inverse() * g * P
                                  for nm, g in S.generators.items()},
                             labels=S.labels)
        assert any(x.denominator > 1 for g in M.generators.values()
                   for x in g.entries_flat())
        for n in (1, 2):
            assert [list(r) for r in sf._norm_image(M, n, QQ).basis] == \
                [list(r) for r in dense_norm_basis(M, n, QQ)]
    g = Matrix(QQ, [[Fraction(1, 2), Fraction(-2, 3)],
                    [Fraction(0), Fraction(1)]])
    for lam in [(2,), (2, 1), (3,)]:
        sym = sf._sym_basis(2, lam)
        index = {b: i for i, b in enumerate(sym)}
        _check_columns(sf._sym_action(lam, QQ, g, sym, index),
                       dense_sym_action(2, lam, QQ, g, sym, index))


# -- generators by sparse column images against dense matrices ------------

OPERATOR_FIELDS = [QQ, Field.prime(2), Field.prime(3), Field.galois(2, 2),
                   Field.prime(5)]
# every lam of d <= 4 with n <= 3, and every lam of d <= 3 with n = 4
OPERATOR_CASES = [(lam, n) for d in range(5) for lam in all_partitions(d)
                  for n in range(1, 4)] + \
    [(lam, 4) for d in range(4) for lam in all_partitions(d)]
_OPERATORS = {}


def _check_columns(op, dense):
    """op applied to every basis vector gives the columns of dense."""
    K = dense.field
    assert (op.nrows, op.ncols) == (dense.nrows, dense.ncols)
    for j in range(dense.ncols):
        e = [K.one if i == j else K.zero for i in range(dense.ncols)]
        got = op.apply_to_vector(e)
        assert got == [row[j] for row in dense.rows]
        if K.kind == "rational":
            assert all(isinstance(x, Fraction) for x in got)


def schur_operators(K, lam, n):
    """(operator, dense oracle) for each generator on Sym^lam(K^n), the
    operators checked on every basis vector."""
    key = ("S", K.label(), lam, n)
    if key not in _OPERATORS:
        sym = sf._sym_basis(n, lam)
        index = {b: i for i, b in enumerate(sym)}
        pairs = []
        for g in sf.monoid_generator_elements(n, K).values():
            op = sf._sym_action(lam, K, g, sym, index)
            dense = dense_sym_action(n, lam, K, g, sym, index)
            _check_columns(op, dense)
            pairs.append((op, dense))
        _OPERATORS[key] = pairs
    return _OPERATORS[key]


def elementary_operators(K, lam, n):
    """(operator, dense oracle) for each generator that elementary_value
    restricts to the norm image, for the Specht module of lam; none when
    that image is zero."""
    key = ("E", K.label(), lam, n)
    if key not in _OPERATORS:
        M = sg.specht_module(lam, K)
        built = []
        real = sf.restrict_to_submodule
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sf, "restrict_to_submodule",
                       lambda mod, rows: built.append(mod) or real(mod, rows))
            sf.elementary_value(M, n, K)
        pairs = []
        if built:
            elements = sf.monoid_generator_elements(n, K)
            for name, op in built[0].generators.items():
                dense = dense_tensor_action(elements[name], sum(lam),
                                            M.dimension)
                _check_columns(op, dense)
                pairs.append((op, dense))
        else:
            assert sf._norm_image(M, n, K).dim == 0
        _OPERATORS[key] = pairs
    return _OPERATORS[key]


def field_vector(data, K, length):
    """A vector with up to four nonzero entries, or none."""
    if K.kind == "rational":
        entry = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    else:
        entry = st.integers(0, K.order - 1)
    v = [K.zero] * length
    for j in data.draw(st.lists(st.integers(0, max(length - 1, 0)),
                                max_size=4 if length else 0)):
        v[j] = data.draw(entry)
    return v


def column_combination(dense, v):
    """The sum of v_j times column j of dense, from ``F.zero``."""
    K = dense.field
    out = [K.zero] * dense.nrows
    for j, b in enumerate(v):
        if b:
            for i, row in enumerate(dense.rows):
                out[i] = K.add(out[i], K.mul(row[j], b))
    return out


OPERATOR_SETTINGS = settings(derandomize=True, max_examples=3,
                             deadline=None)


@pytest.mark.parametrize("K", OPERATOR_FIELDS, ids=lambda K: K.label())
@pytest.mark.parametrize("lam,n", [c for c in OPERATOR_CASES
                                   if len(c[0]) <= c[1]], ids=str)
@OPERATOR_SETTINGS
@given(data=st.data())
def test_schur_generators_match_dense_oracle(K, lam, n, data):
    for op, dense in schur_operators(K, lam, n):
        v = field_vector(data, K, op.ncols)
        assert op.apply_to_vector(v) == column_combination(dense, v)


@pytest.mark.parametrize("K", OPERATOR_FIELDS, ids=lambda K: K.label())
@pytest.mark.parametrize("lam,n", [c for c in OPERATOR_CASES if c[0]],
                         ids=str)
@OPERATOR_SETTINGS
@given(data=st.data())
def test_elementary_generators_match_dense_oracle(K, lam, n, data):
    for op, dense in elementary_operators(K, lam, n):
        v = field_vector(data, K, op.ncols)
        assert op.apply_to_vector(v) == column_combination(dense, v)


@pytest.mark.parametrize("K", OPERATOR_FIELDS, ids=lambda K: K.label())
@pytest.mark.parametrize("lam,n", [((2,), 2), ((1, 1), 2), ((2, 1), 2),
                                   ((2, 1), 3), ((1, 1, 1), 3), ((3, 1), 2)],
                         ids=str)
def test_restriction_to_a_subspace_equals_restriction_to_its_rows(
        monkeypatch, K, lam, n):
    # schur_value and elementary_value pass the Subspace that holds their
    # basis; its rows, through coords_in_basis, give the same matrices
    real = mt.restrict_to_submodule
    seen = []

    def both(mod, basis):
        assert isinstance(basis, Subspace)
        got = real(mod, basis)
        assert got.generators == rows_restriction(mod, basis.basis)
        entries = [x for g in got.generators.values()
                   for x in g.entries_flat()]
        assert all(type(x) is Fraction for x in entries) if K is QQ else \
            all(type(x) is int for x in entries)
        seen.append(mod)
        return got
    monkeypatch.setattr(sf, "restrict_to_submodule", both)
    sf.schur_value(lam, n, K)
    sf.elementary_value(sg.specht_module(lam, K), n, K)
    assert seen
