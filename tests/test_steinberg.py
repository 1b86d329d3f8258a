from math import lcm

import pytest

from steinlab import steinberg as st
from steinlab.fields import MAX_DEGREE, Field, prime_power
from steinlab.matrices import Matrix
from steinlab.modtools import (AlgebraModule, are_isomorphic, end_dim,
                               is_simple)

from oracles import (element_order, group_algebra_simples, group_elements,
                     p_regular_class_count)


def test_build_natural_rep():
    datum = st.build((1, 0), 2, 2)
    assert datum.module.dimension == 2
    assert is_simple(datum.module)


def test_build_trivial():
    datum = st.build((0,), 2, 2)
    assert datum.module.dimension == 1


def test_build_dimension_multiplicative():
    # digits of (3,1) base 2 are (1,1) and (1,0): det times twisted natural
    datum = st.build((3, 1), 2, 4)
    assert len(datum.digits) == 2
    assert datum.module.dimension == 2


def test_single_digit_reduces_to_socle():
    datum = st.build((1, 1), 2, 3)
    assert datum.module.dimension == 1  # the determinant representation


@pytest.mark.parametrize("n, q, K", [(2, 4, Field.galois(2, 4)),
                                     (3, 2, Field.prime(2))])
def test_group_torus_generator(n, q, K):
    # "d" = diag(z^j, 1, ..., 1) with j = (|K| - 1)/(q - 1), and z^j
    # generates F_q^x: its multiplicative order is q - 1
    zj = K.one
    for _ in range((K.order - 1) // (q - 1)):
        zj = K.mul(zj, K.gen())
    orbit = [K.one]
    while K.mul(orbit[-1], zj) != K.one:
        orbit.append(K.mul(orbit[-1], zj))
    assert len(orbit) == q - 1
    d = [[K.one if i == j else K.zero for j in range(n)] for i in range(n)]
    d[0][0] = zj
    gens = st.group_generator_matrices(n, q, K)
    assert gens["d"] == Matrix(K, d)
    assert sorted(gens) == sorted(["d", "t", "s", "c"][:n + 1])


def test_classify_gl2_f2():
    out = st.classify(2, 2)
    dims = sorted(d.module.dimension for d in out)
    assert dims == [1, 2]


def test_classify_gl1_f4():
    out = st.classify(1, 4)
    assert len(out) == 3
    assert all(d.module.dimension == 1 for d in out)


def test_classify_gl3_f2():
    out = st.classify(3, 2)
    dims = sorted(d.module.dimension for d in out)
    assert dims == [1, 3, 3, 8]


def test_classify_members_distinct():
    out = st.classify(2, 2)
    assert not are_isomorphic(out[0].module, out[1].module)
    for d in out:
        assert end_dim(d.module) == 1


def test_classify_refuses_large_groups():
    with pytest.raises(ValueError):
        st.classify(4, 2)


def test_p_regular_class_count_matches():
    # order-coprime-to-p classes of GL_2(F_2) ~ S_3: identity and 3-cycles
    assert p_regular_class_count(2, 2) == 2
    assert p_regular_class_count(3, 2) == 4


@pytest.mark.parametrize("n,q", [(1, q) for q in (2, 3, 4, 5, 7, 8, 9)]
                         + [(2, 2), (2, 3), (2, 4), (3, 2)])
def test_p_regular_class_count_is_semisimple_class_count(n, q):
    # classify checks its simples against q^n - q^(n-1), the number of
    # semisimple classes of GL_n(F_q); the orbit count must agree
    assert p_regular_class_count(n, q) == q ** n - q ** (n - 1)


def group_exponent(n, q):
    """The exponent of GL_n(F_q), by the order of every element."""
    exp = 1
    for g in group_elements(n, q):
        exp = lcm(exp, element_order(g))
    return exp


def test_group_exponent():
    # GL_2(F_2) has elements of orders 1, 2, 3
    assert group_exponent(2, 2) == 6


def test_splitting_fields():
    assert st.splitting_field(2, 2).order == 4
    assert st.splitting_field(1, 4).order == 4
    assert st.splitting_field(2, 4).order == 16


@pytest.mark.parametrize("n, q", [(2, 2), (2, 4), (3, 2), (2, 3), (2, 5)]
                         + [(1, q) for q in (2, 3, 4, 5, 7, 8, 9)])
def test_splitting_field_matches_group_exponent(n, q):
    # the least F_{q^s} whose units hold the p'-part of the exponent,
    # within MAX_DEGREE, else F_q
    p, e = prime_power(q)
    exp = group_exponent(n, q)
    while exp % p == 0:
        exp //= p
    s = next((s for s in range(1, MAX_DEGREE // e + 1)
              if (q ** s - 1) % exp == 0), None)
    expect = Field.of_order(q ** s if s else q)
    assert st.splitting_field(n, q) is expect


def test_build_makes_each_digit_simple_once(monkeypatch):
    calls = []
    socle_simple = st.socle_simple

    def counted(lam, *args, **kwargs):
        calls.append(lam)
        return socle_simple(lam, *args, **kwargs)

    monkeypatch.setattr(st, "socle_simple", counted)
    datum = st.build((3, 1), 2, 4)
    assert calls == datum.digits == [(1, 1), (1, 0)]
    calls.clear()
    datum = st.build((5,), 1, 8)
    assert calls == datum.digits == [(1,), (0,), (1,)]


def test_classify_and_unique_make_each_distinct_digit_simple_once(
        monkeypatch):
    calls = []
    socle_simple = st.socle_simple

    def counted(lam, *args, **kwargs):
        calls.append(lam)
        return socle_simple(lam, *args, **kwargs)

    monkeypatch.setattr(st, "socle_simple", counted)
    data = st.classify(2, 4)
    digits = {dg for d in data for dg in d.digits}
    # 12 weights of two digits each, four distinct digits
    assert sorted(calls) == sorted(digits) == [(0, 0), (1, 0), (1, 1),
                                                (2, 1)]
    calls.clear()
    st.uniqueness_check((1,), (2,), 2, 4)
    assert sorted(calls) == [(0, 0), (1, 0)]
    # reuse stays within one call
    calls.clear()
    st.uniqueness_check((1,), (2,), 2, 4)
    assert len(calls) == 2


def test_restricted_representatives():
    reps = st.q_restricted_representatives(1, 4)
    assert len(reps) == 3
    reps = st.q_restricted_representatives(2, 2)
    assert len(reps) == 2


def test_group_algebra_agreement():
    K = st.splitting_field(2, 2)
    simples = group_algebra_simples(2, 2, K)
    assert sorted(m.dimension for m in simples) == [1, 2]
    built = st.classify(2, 2)
    for d in built:
        assert any(are_isomorphic(d.module, m) for m in simples)


def test_uniqueness_det_twist():
    out = st.uniqueness_check((1, 1), (0, 0), 2, 2)
    assert out["isomorphic"]
    assert out["relation"] == "det^(p-1) twist"
    assert out["consistent"]


def test_uniqueness_equal():
    out = st.uniqueness_check((1, 0), (1, 0), 2, 2)
    assert out["isomorphic"]
    assert out["relation"] == "equal"


def test_uniqueness_distinct():
    out = st.uniqueness_check((1, 0), (0, 0), 2, 2)
    assert not out["isomorphic"]
    assert out["relation"] is None


def test_product_decompose():
    from steinlab.matrices import Matrix
    from steinlab.modtools import AlgebraModule
    K = st.splitting_field(2, 2)
    nat = st.build((1, 0), 2, 2, K=K).module
    triv = st.build((0,), 2, 2, K=K).module
    names = list(st.group_generator_matrices(2, 2, K))
    gens = {}
    for nm in names:
        gens[nm + "1"] = nat.generators[nm].kron(
            Matrix.identity(K, triv.dimension))
        gens[nm + "2"] = Matrix.identity(K, nat.dimension).kron(
            triv.generators[nm])
    prod = AlgebraModule(K, gens)
    m1, m2 = st.product_decompose(prod,
                                  [nm + "1" for nm in names],
                                  [nm + "2" for nm in names])
    assert m1.dimension == 2 and m2.dimension == 1


def test_classify_table_shape():
    rows = st.classify_table(2, 2)
    assert len(rows) == 2
    assert all(len(r) >= 3 for r in rows)


@pytest.mark.parametrize("n, q", [(2, 2), (3, 2), (2, 3), (2, 4)])
def test_natural_module_matches_its_labels(n, q):
    # the labels name the group elements the generators act by, so the
    # natural module is the module its own labels define
    mod = st.build((1,), n, q).module
    assert set(mod.labels) == set(mod.generators)
    assert are_isomorphic(mod, AlgebraModule(mod.field, mod.labels))
