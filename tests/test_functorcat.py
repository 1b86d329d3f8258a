from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from steinlab import functorcat as fc
from steinlab import rings
from steinlab.cli import make_functor_expr, run
from steinlab.emlpoly import NotPolynomialUpTo
from steinlab.fields import Field
from steinlab.matrices import Subspace
from steinlab.rings import (FiniteRing, mat_mul, matrix_monoid_generators,
                            ring_homs)

from oracles import cross_effect_check

F2RING = FiniteRing("F_2")
F3 = Field.prime(3)


def lines_functor(N=4):
    return fc.grassmannian_functor(F2RING, F3, N)


def test_representable_dims_and_cr2():
    P = fc.representable_functor(F2RING, F3, 4)
    assert P.dims() == [1, 2, 4, 8, 16]
    assert fc.cross_effect(P, 2)[0] == 1


def test_constant_degree_zero():
    C = fc.constant_functor(F2RING, F3, 4)
    assert fc.polynomial_degree(C, 4) == 0


def test_additive_degree_one():
    R = FiniteRing("F_2")
    K = Field.prime(2)
    hom = ring_homs(R, K)[0]
    L = fc.additive_functor(R, K, 4, lambda a: hom(a))
    assert L.dims() == [0, 1, 2, 3, 4]
    assert fc.polynomial_degree(L, 4) == 1


def test_representable_not_polynomial():
    P = fc.representable_functor(F2RING, F3, 4)
    assert fc.polynomial_degree(P, 4) == NotPolynomialUpTo(4)


def test_lines_dims_fit_and_nonpolynomiality():
    G = lines_functor()
    assert G.dims() == [0, 1, 3, 7, 15]
    prof = fc.dimension_profile(G)
    assert prof["fit_ok"]
    assert prof["fit"] == ["-1", "1"]   # f(X) = X - 1
    assert fc.polynomial_degree(G, 4) == NotPolynomialUpTo(4)


def test_profile_of_a_ring_whose_order_is_no_prime_power_has_no_fit():
    prof = fc.dimension_profile(fc.constant_functor(FiniteRing("Z/6"), F3,
                                                    2))
    assert prof == {"values": [1, 1, 1], "fit": None, "fit_ok": False,
                    "reason": "base ring is not a p-ring"}


def test_cross_effect_bookkeeping():
    for F in (fc.constant_functor(F2RING, F3, 3),
              fc.representable_functor(F2RING, F3, 3),
              lines_functor(3)):
        for d in range(F.N + 1):
            assert cross_effect_check(F, d)


def test_functoriality_on_random_pairs():
    import random
    rng = random.Random(0)
    G = lines_functor(3)
    els = F2RING.elements()
    for _ in range(25):
        m = rng.randint(1, 2)
        k = rng.randint(1, 2)
        m2 = rng.randint(1, 3)
        f = tuple(tuple(rng.choice(els) for _ in range(m))
                  for _ in range(k))
        g = tuple(tuple(rng.choice(els) for _ in range(k))
                  for _ in range(m2))
        from steinlab.rings import mat_mul
        gf = mat_mul(F2RING, g, f, m)
        assert G.act_ranks(gf, m, m2) == \
            G.act_ranks(g, k, m2) * G.act_ranks(f, m, k)


Z6 = FiniteRing("Z/6")
F4 = Field.galois(2, 2)


def ring_matrices(rows, cols):
    el = st.sampled_from(Z6.elements())
    return st.tuples(*[st.tuples(*[el] * cols)] * rows)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(st.data())
def test_tdelta_functoriality_on_z6(data):
    delta = fc.MonoidModule.from_character(
        Z6, F4, lambda a: F4.one if Z6.is_unit(a) else F4.zero)
    T = fc.intermediate_extension_functor(delta, 2)
    m, k, m2 = (data.draw(st.integers(1, 2)) for _ in range(3))
    f = data.draw(ring_matrices(k, m))
    g = data.draw(ring_matrices(m2, k))
    gf = mat_mul(Z6, g, f, m)
    assert T.act_ranks(gf, m, m2) == \
        T.act_ranks(g, k, m2) * T.act_ranks(f, m, k)


def test_intermediate_extension_of_delta_is_lines():
    delta = fc.MonoidModule.from_character(
        F2RING, F3,
        lambda a: F3.one if a != F2RING.zero else F3.zero)
    T = fc.intermediate_extension_functor(delta, 3)
    assert T.dims() == [0, 1, 3, 7]


def test_intermediate_extension_recovers_value():
    delta = fc.MonoidModule.from_character(
        F2RING, F3,
        lambda a: F3.one if a != F2RING.zero else F3.zero)
    mm = fc.functor_value_module(
        fc.intermediate_extension_functor(delta, 1), 1)
    assert mm.dimension == delta.dimension


def test_constant_module_collapses():
    one = fc.MonoidModule(F2RING, 1, F3,
                          lambda e: __import__("steinlab.matrices",
                                               fromlist=["Matrix"])
                          .Matrix.identity(F3, 1))
    dim, _, _, _ = fc.intermediate_extension_value(one, 2)
    assert dim == 1


def compose(ring, g, f, n, m):
    """g o f as an n x n matrix, for g: A^m -> A^n and f: A^n -> A^m."""
    def entry(i, j):
        x = ring.zero
        for k in range(m):
            x = ring.add(x, ring.mul(g[i][k], f[k][j]))
        return x
    return tuple(tuple(entry(i, j) for j in range(n)) for i in range(n))


def enumerated_value(mm, m):
    """T(M)(A^m) as the span of theta(f (x) e_j) over every f: A^n -> A^m,
    each read off at every g: A^m -> A^n through mm.action_of(g o f): the
    Hom x Hom enumeration, kept as an oracle for the spin."""
    ring, n, K, dm = mm.ring, mm.n, mm.field, mm.dimension
    homs_out = fc.all_ring_homs_matrices(ring, m, n)
    sp = Subspace(K, len(homs_out) * dm)
    for f in fc.all_ring_homs_matrices(ring, n, m):
        acts = [mm.action_of(compose(ring, g, f, n, m)).rows
                for g in homs_out]
        for j in range(dm):
            sp.add_vector([rows[i][j] for rows in acts for i in range(dm)])
    return sp


# (ring, order of the coefficient field, module of M_n(A), n, ranks m),
# covering m = 0, m < n and m > n
IEXT_CASES = [
    ("F_2", 3, "delta", 1, (0, 1, 2, 3)),
    ("F_2", 3, "gr1", 2, (0, 1, 2, 3)),
    ("F_3", 9, "delta", 1, (0, 1, 2, 3)),
    ("F_3", 9, "lambda1", 2, (0, 1, 2)),
    ("F_3", 9, "const", 2, (0, 1, 2)),
    ("F_4", 4, "delta", 1, (0, 1, 2, 3)),
    ("F_4", 4, "gr1", 2, (0, 1)),
    ("Z/4", 2, "delta", 1, (0, 1, 2, 3)),
    ("Z/4", 2, "lambda1", 2, (0, 1)),
    ("Z/6", 4, "delta", 1, (0, 1, 2)),
    ("Z/6", 4, "lambda1*tdelta", 2, (0, 1)),
]


@pytest.mark.parametrize("ring, q, module, n, m", [
    (r, q, mod, n, m) for r, q, mod, n, ms in IEXT_CASES for m in ms])
def test_intermediate_extension_value_matches_enumeration(ring, q, module,
                                                          n, m):
    R = FiniteRing(ring)
    K = Field.of_order(q)
    if module == "delta":
        mm = fc.MonoidModule.from_character(
            R, K, lambda a: K.one if R.is_unit(a) else K.zero)
    else:
        mm = fc.functor_value_module(make_functor_expr(module, R, K, n), n)
    oracle = enumerated_value(mm, m)
    dim, sp, homs, ambient = fc.intermediate_extension_value(mm, m)
    assert (dim, ambient) == (oracle.dim, oracle.ambient_dim)
    assert list(homs) == fc.all_ring_homs_matrices(R, m, n)
    assert sp.basis == oracle.basis


def test_tensor_with_constant():
    G = lines_functor(3)
    C = fc.constant_functor(F2RING, F3, 3)
    T = fc.tensor_functors(G, C)
    assert T.dims() == G.dims()


def test_degree_additivity():
    R = FiniteRing("F_2")
    K = Field.prime(2)
    hom = ring_homs(R, K)[0]
    L = fc.additive_functor(R, K, 4, lambda a: hom(a))
    LL = fc.tensor_functors(L, L)
    d = fc.polynomial_degree(LL, 4)
    assert isinstance(d, int) and d <= 2


def test_unipotence_ideal_polynomial_functor():
    Z6 = FiniteRing("Z/6")
    F4 = Field.galois(2, 2)
    hom = ring_homs(Z6, F4)[0]
    L = fc.additive_functor(Z6, F4, 3, lambda a: hom(a))
    I = fc.unipotence_ideal(L, 1)
    assert len(I.elements) == 6   # the whole ring
    assert fc.ideal_is_cotrivial(L, I)


def test_unipotence_ideal_order2_character():
    Z3 = FiniteRing("Z/3")
    F7 = Field.prime(7)
    chi = fc.MonoidModule.from_character(
        Z3, F7,
        lambda a: {0: F7.zero, 1: F7.one, 2: F7.from_int(-1)}[a])
    T = fc.intermediate_extension_functor(chi, 3)
    I = fc.unipotence_ideal(T, 1)
    assert len(I.elements) == 1   # the zero ideal


def test_simplicity_lines_true():
    assert fc.simplicity_test(lines_functor(3), 1)


def test_simplicity_constant_true():
    assert fc.simplicity_test(fc.constant_functor(F2RING, F3, 2), 1)


def test_simplicity_representable_false():
    P = fc.representable_functor(F2RING, F3, 3)
    assert not fc.simplicity_test(P, 1)


def test_truncation_guard():
    C = fc.constant_functor(F2RING, F3, 2)
    with pytest.raises(ValueError):
        C.dim(3)


class MatMulPrecompose:
    """The former ``_Precompose``: block g of the image reads block g o h,
    found by a ring matrix product per g and a dict from matrices to their
    numbers.  Kept as the oracle for the row-table index arithmetic."""

    def __init__(self, ring, n, dm, h, m, m2):
        homs_from = {g: i for i, g in
                     enumerate(fc.all_ring_homs_matrices(ring, m, n))}
        self.src = src = []
        for g in fc.all_ring_homs_matrices(ring, m2, n):
            b = homs_from[mat_mul(ring, g, h, m)] * dm
            src.extend(range(b, b + dm))


PRECOMPOSE_RINGS = ("F_2", "F_3", "F_4", "F_9", "Z/4", "Z/6", "Z/2xF_2")
# the oracle enumerates Hom(A^m2, A^n) and Hom(A^m, A^n) with one product
# per map; bound both
PRECOMPOSE_HOM_BOUND = 729


def precompose_maps(ring, m, m2, rng):
    """Every monoid generator of End(A^m) when m = m2, plus random maps."""
    maps = list(matrix_monoid_generators(ring, m)) if m == m2 >= 1 else []
    els = ring.elements()
    for _ in range(3):
        maps.append(tuple(tuple(rng.choice(els) for _ in range(m))
                          for _ in range(m2)))
    return maps


@pytest.mark.parametrize("spec", PRECOMPOSE_RINGS)
def test_precompose_matches_mat_mul_oracle(spec):
    import random
    rng = random.Random(spec)
    R = FiniteRing(spec)
    cases = 0
    for n, m, m2 in product((1, 2), range(4), range(4)):
        if max(R.size ** (n * m), R.size ** (n * m2)) > PRECOMPOSE_HOM_BOUND:
            continue
        for h in precompose_maps(R, m, m2, rng):
            blocks = MatMulPrecompose(R, n, 1, h, m, m2).src
            assert fc._Precompose(R, n, 1, h, m, m2).src == blocks
            assert fc._Precompose(R, n, 3, h, m, m2).src == \
                [3 * b + k for b in blocks for k in range(3)]
            cases += 1
    assert cases >= 40


@pytest.mark.parametrize("spec", PRECOMPOSE_RINGS)
def test_representable_action_matches_mat_mul_oracle(spec):
    import random
    rng = random.Random(spec)
    R = FiniteRing(spec)
    P = fc.representable_functor(R, F3, 3)
    for m, m2 in product(range(4), range(4)):
        if R.size ** max(m, m2) > 81:
            continue
        basis = fc.all_ring_homs_matrices(R, 1, m)
        index2 = {v: i for i, v in
                  enumerate(fc.all_ring_homs_matrices(R, 1, m2))}
        for h in precompose_maps(R, m, m2, rng):
            rows = [[F3.zero] * len(basis) for _ in index2]
            for j, v in enumerate(basis):
                rows[index2[mat_mul(R, h, v, 1)]][j] = F3.one
            assert P.act_ranks(h, m, m2).rows == rows


def test_tdelta_dimtable_makes_few_ring_products(monkeypatch):
    # precomposition is index arithmetic: the only ring products left are
    # the action-table closure of M_1(Z/6) (3421 before the row tables)
    calls = []

    def counted(*args):
        calls.append(1)
        return mat_mul(*args)

    for mod in (rings, fc):
        monkeypatch.setattr(mod, "mat_mul", counted)
    code, _ = run(["functor", "dimtable", "--ring", "Z/6", "--coeff", "F_4",
                   "--functor", "tdelta", "--rank", "3"])
    assert code == 0
    assert 0 < len(calls) <= 100
