from math import factorial

import pytest

from steinlab import symgrp as sg
from steinlab.fields import Field, QQ
from steinlab.matrices import Matrix
from steinlab.modtools import monoid_actions

from oracles import (all_partitions, all_tabloids, hook_length_count,
                     polytabloid_vector, recompose_digits)

ALTERNANT_FIELDS = [Field.prime(2), Field.prime(3), Field.galois(2, 2), QQ]


def test_conjugate():
    assert sg.conjugate((3, 1)) == (2, 1, 1)
    assert sg.conjugate(sg.conjugate((4, 2, 1))) == (4, 2, 1)
    assert sg.conjugate(()) == ()


def test_restricted_and_regular():
    assert sg.is_p_restricted((1, 1), 2)
    assert not sg.is_p_restricted((2,), 2)
    assert sg.is_p_regular((2, 1), 2)
    assert not sg.is_p_regular((1, 1), 2)
    assert sg.is_p_restricted((3, 2), 4)


def test_digit_decomposition():
    assert sg.digit_decomposition((3, 2), 2, 2) == [(1, 0), (1, 1)]
    assert recompose_digits([(1, 0), (1, 1)], 2) == (3, 2)
    with pytest.raises(ValueError):
        sg.digit_decomposition((5, 0), 2, 2)


def test_digit_roundtrip_exhaustive():
    p, r = 2, 2
    q = p ** r
    for a in range(q):
        for b in range(a + 1):
            lam = (a, b)
            if not sg.is_p_restricted(lam, q):
                continue
            digs = sg.digit_decomposition(lam, p, r)
            assert all(sg.is_p_restricted(d, p) for d in digs)
            assert recompose_digits(digs, p) == \
                sg.normalize_partition(lam)


def test_standard_tableaux_hook_counts():
    for d in range(1, 6):
        for lam in all_partitions(d):
            tabs = sg.standard_tableaux(lam)
            assert len(tabs) == hook_length_count(lam)


def test_dimension_sum_of_squares():
    for d in range(1, 7):
        total = sum(hook_length_count(lam) ** 2
                    for lam in all_partitions(d))
        assert total == factorial(d)


def test_specht_dimensions_match_hooks():
    K = QQ
    for d in range(1, 6):
        for lam in all_partitions(d):
            S = sg.specht_module(lam, K)
            assert S.dimension == hook_length_count(lam)


def test_perm_matrix_multiplicative():
    K = Field.prime(3)
    S = sg.specht_module((2, 1), K)
    a = (2, 1, 3)   # the transposition (1 2), one-line notation
    b = (2, 3, 1)   # the 3-cycle
    ab = tuple(a[b[i] - 1] for i in range(3))
    perm_matrix = dict(monoid_actions(
        S, lambda g, pi: tuple(g[x - 1] for x in pi), (1, 2, 3)))
    assert perm_matrix[a] * perm_matrix[b] == perm_matrix[ab]


def test_simple_modules_s3_char3():
    K = Field.prime(3)
    dims = {lam: sg.simple_module(lam, K).dimension
            for lam in all_partitions(3) if sg.is_p_regular(lam, 3)}
    assert dims == {(3,): 1, (2, 1): 1}


def test_simple_d21_char3_is_sign():
    K = Field.prime(3)
    D = sg.simple_module((2, 1), K)
    assert D.dimension == 1
    assert D.generators["s"] == Matrix(K, [[K.neg(K.one)]])
    assert D.generators["c"] == Matrix(K, [[K.one]])


def test_simple_rejects_p_singular():
    K = Field.prime(2)
    with pytest.raises(ValueError):
        sg.simple_module((1, 1), K)


def test_gram_radical():
    # the (2,1) Gram matrix is unimodular mod 2 (D = S, dim 2) and the
    # (3,1) one is singular mod 2 (D is a proper quotient)
    K = Field.prime(2)
    assert sg.simple_module((2, 1), K).dimension == 2
    S = sg.specht_module((3, 1), K)
    D = sg.simple_module((3, 1), K)
    assert S.dimension == 3
    assert D.dimension < S.dimension


@pytest.mark.parametrize("K", ALTERNANT_FIELDS, ids=lambda K: K.label())
def test_polytabloids_and_tabloids_match_oracles(K):
    for d in range(1, 7):
        for lam in all_partitions(d):
            tabloids = sg._tabloids(lam)
            assert tabloids == all_tabloids(lam)
            index = {t: i for i, t in enumerate(tabloids)}
            for t in sg.standard_tableaux(lam):
                assert sg.column_alternant(sg._columns(t), lam, index, K) \
                    == polytabloid_vector(t, lam, index, K)
