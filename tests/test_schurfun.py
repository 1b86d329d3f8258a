from itertools import combinations, product

import pytest

from steinlab import schurfun as sf
from steinlab import symgrp as sg
from steinlab.fields import Field, QQ
from steinlab.matrices import Matrix
from steinlab.modtools import end_dim, is_simple

from oracles import (all_partitions, dense_norm_basis, schur_image_vectors,
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
