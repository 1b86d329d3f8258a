"""Oracle tests for ``rings.monoid_closure`` and the tables built on it:
the action table of an M_2(F_3)-module against the functor it came from,
Frobenius twists against matrix powers, and independence of the
generator order (and, for spinning, of the seed and operator order).
Hypothesis runs derandomized, so the examples are the same on every run."""

from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from steinlab import functorcat as fc
from steinlab.cli import make_functor
from steinlab.fields import Field, QQ
from steinlab.matrices import Matrix, span_from_spins
from steinlab.modtools import AlgebraModule, frobenius_twist, monoid_actions
from steinlab.rings import (FiniteRing, RingIdeal, mat_mul,
                            matrix_monoid_generators, monoid_closure)
from steinlab import schurfun as sf
from steinlab.schurfun import socle_simple
from steinlab.symgrp import simple_module, specht_module

SETTINGS = settings(derandomize=True, max_examples=30, deadline=None)

F2, F3 = Field.prime(2), Field.prime(3)
F2RING, F3RING = FiniteRing("F_2"), FiniteRing("F_3")


def closure_table(mul, start, unit, gens, acts):
    table = {start: unit}
    for y, i, x in monoid_closure(mul, [start], gens):
        table[y] = acts[i] * table[x]
    return table


@pytest.mark.parametrize("name", ["tdelta", "gr1"])
def test_action_table_matches_functor(name):
    F = make_functor(name, F3RING, F3, 2)
    table = fc.functor_value_module(F, 2).action_table
    homs = fc.all_ring_homs_matrices(F3RING, 2, 2)
    assert len(table) == len(homs) == 3 ** 4
    for e in homs:
        assert table[e] == F.act_ranks(e, 2, 2)


@pytest.mark.parametrize("lam, n, K, i", [
    ((1,), 2, Field.galois(2, 2), 1),
    ((1,), 3, Field.galois(2, 3), 2),
    ((2, 1), 2, Field.galois(3, 2), 1),
])
def test_frobenius_twist_powers_d(lam, n, K, i):
    M = socle_simple(lam, n, K)
    T = frobenius_twist(M, i)
    d = M.generators["d"]
    assert T.generators["d"] == d ** (K.char ** i) != d
    for nm in M.gen_names():
        if nm != "d":
            assert T.generators[nm] == M.generators[nm]
    assert T.labels == M.labels


def test_frobenius_twist_of_natural_module():
    # the twist of u = [[1, z], [0, 1]] is [[1, z^2], [0, 1]], which only
    # words mixing d and u reach; on the natural module it is that matrix
    K = Field.galois(2, 2)
    z, o, n = K.gen(), K.one, K.zero
    labels = {"d": Matrix(K, [[z, n], [n, o]]),
              "u": Matrix(K, [[o, z], [n, o]])}
    T = frobenius_twist(AlgebraModule(K, labels, labels=labels), 1)
    for nm, g in labels.items():
        assert T.generators[nm] == Matrix(
            K, [[K.frobenius(x, 1) for x in row] for row in g.rows])
    assert T.generators["u"] != labels["u"]


# three kinds of closure: ring matrices of M_2(F_2) acting on the lines
# functor's value, permutations of S_4 acting on a Specht module, and
# sums in Z/12 with no action (an ideal's elements)
def _matrices_case():
    gens = matrix_monoid_generators(F2RING, 2)
    F = make_functor("gr1", F2RING, F3, 2)
    return ((lambda g, x: mat_mul(F2RING, g, x, 2)), gens[0],
            Matrix.identity(F3, F.dim(2)), gens,
            [F.act_ranks(g, 2, 2) for g in gens])


def _perm_mul(g, pi):
    return tuple(g[x - 1] for x in pi)


def _perms_case():
    S = specht_module((2, 1, 1), F3)
    perm_matrix = dict(monoid_actions(S, _perm_mul, (1, 2, 3, 4)))
    gens = [(2, 1, 3, 4), (2, 3, 4, 1), (3, 2, 1, 4)]
    return (_perm_mul, (1, 2, 3, 4),
            Matrix.identity(F3, S.dimension), gens,
            [perm_matrix[g] for g in gens])


def _sums_case():
    Z12 = FiniteRing("Z/12")
    gens = [(8,), (4,), (6,), (0,)]
    one = Matrix.identity(F2, 0)
    return Z12.add, Z12.zero, one, gens, [one] * len(gens)


@pytest.mark.parametrize("case", [_matrices_case, _perms_case, _sums_case],
                         ids=["matrices", "perms", "sums"])
@SETTINGS
@given(data=st.data())
def test_closure_ignores_generator_order(case, data):
    mul, start, unit, gens, acts = case()
    order = data.draw(st.permutations(range(len(gens))))
    base = closure_table(mul, start, unit, gens, acts)
    permuted = closure_table(mul, start, unit, [gens[k] for k in order],
                             [acts[k] for k in order])
    assert permuted == base


def test_closure_reaches_whole_monoids():
    mul, start, unit, gens, acts = _perms_case()
    table = closure_table(mul, start, unit, gens, acts)
    S = specht_module((2, 1, 1), F3)
    perm_matrix = dict(monoid_actions(S, _perm_mul, (1, 2, 3, 4)))
    assert sorted(table) == sorted(permutations(range(1, 5)))
    assert all(table[pi] == perm_matrix[pi] for pi in table)
    Z12 = FiniteRing("Z/12")
    assert RingIdeal(Z12, [(8,), (6,)]).elements == frozenset(
        (a,) for a in (0, 2, 4, 6, 8, 10))


def _labelled_modules():
    """(name, module, product, identity) for every kind of construction."""
    F4 = Field.galois(2, 2)
    S = specht_module((2, 1, 1), F3)
    D = simple_module((3, 1), F2)
    matrix = [("schur_value", sf.schur_value((2, 1), 2, F3)),
              ("socle_simple", sf.socle_simple((2, 1), 2, F4)),
              ("elementary_value",
               sf.elementary_value(simple_module((3, 1), F3), 2, F3)),
              ("delta_rep", sf.delta_rep(2, F3))]
    value = fc.functor_value_module(make_functor("gr1", F2RING, F3, 2), 2)
    return ([(nm, M, _perm_mul, tuple(range(1, len(M.labels["c"]) + 1)))
             for nm, M in (("specht_module", S), ("simple_module", D))]
            + [(nm, M, lambda g, x: g * x,
                Matrix.identity(M.labels["d"].field, 2))
               for nm, M in matrix]
            + [("functor_value_module", value,
                lambda g, x: mat_mul(F2RING, g, x, 2),
                matrix_monoid_generators(F2RING, 2)[0])])


LABELLED = _labelled_modules()


@pytest.mark.parametrize("name, M, mul, one", LABELLED,
                         ids=[case[0] for case in LABELLED])
def test_constructions_are_labelled_algebra_modules(name, M, mul, one):
    # the labels generate a monoid on which the generators act: every
    # element's matrix, times a generator's, is the matrix of the product
    assert isinstance(M, AlgebraModule) and M.dimension > 0
    table = dict(monoid_actions(M, mul, one))
    for x, act in table.items():
        for nm in M.gen_names():
            assert table[mul(M.labels[nm], x)] == M.generators[nm] * act


FIELDS = [F2, F3, Field.galois(2, 2), QQ]


@st.composite
def spin_case(draw):
    F = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(1, 4))
    scalar = (st.integers(-2, 2) if F.kind == "rational"
              else st.integers(0, F.order - 1))
    vec = st.lists(scalar, min_size=n, max_size=n)
    seeds = draw(st.lists(vec, min_size=1, max_size=3))
    ops = [Matrix(F, [[F.element(x) for x in r] for r in m]) for m in draw(
        st.lists(st.lists(vec, min_size=n, max_size=n), max_size=3))]
    seeds = [[F.element(x) for x in v] for v in seeds]
    return F, n, seeds, ops


@SETTINGS
@given(spin_case(), st.data())
def test_spin_ignores_seed_and_operator_order(case, data):
    F, n, seeds, ops = case
    sp = span_from_spins(F, n, seeds, ops)
    seeds2 = data.draw(st.permutations(seeds))
    ops2 = data.draw(st.permutations(ops))
    sp2 = span_from_spins(F, n, seeds2, ops2)
    assert (sp2.basis, sp2.pivots) == (sp.basis, sp.pivots)
    assert all(sp.contains(v) for v in seeds)
    assert all(sp.contains(op.apply_to_vector(v))
               for op in ops for v in sp.basis)
