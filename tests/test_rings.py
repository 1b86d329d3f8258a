import time
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from steinlab.fields import Field
from steinlab.matrices import Matrix
from steinlab.rings import (FiniteRing, NotMultiplicative, RingMap,
                            all_ideals, cotrivial_ideals, mat_mul,
                            matrix_monoid_generators, monoid_closure,
                            primary_idempotents, ring_homs,
                            ring_identity)

from oracles import (all_pairs_multiplicative, elementwise_mat_mul,
                     full_matrix_monoid_generators, repeated_addition)


def test_parse_and_size():
    assert FiniteRing("Z/6").size == 6
    assert FiniteRing("F_4").size == 4
    assert FiniteRing("Z/4xF_9").size == 36


def test_ring_axioms_z6():
    R = FiniteRing("Z/6")
    for a in R.elements():
        assert R.add(a, R.zero) == a
        assert R.mul(a, R.one) == a
        assert R.add(a, R.neg(a)) == R.zero


# the rings whose labels are checked against their component tuples
LABELLED = ("Z/6", "Z/12", "F_4", "F_9", "Z/2xF_2", "Z/4xF_9")


def _component_tuples(R):
    """Every element as its tuple of component values, in label order."""
    return list(product(*[range(c.order) for c in R.components]))


def _componentwise(R, op, *tuples):
    return tuple(getattr(c, op)(*xs)
                 for c, *xs in zip(R.components, *tuples))


def test_label_tables_follow_element_arithmetic():
    for spec in ("Z/6", "F_4", "F_9", "Z/2xF_2"):
        R = FiniteRing(spec)
        tuples = _component_tuples(R)
        add, mul = R.cayley_tables
        for a, x in enumerate(tuples):
            for b, y in enumerate(tuples):
                assert tuples[add[a][b]] == _componentwise(R, "add", x, y)
                assert tuples[mul[a][b]] == _componentwise(R, "mul", x, y)


def test_labels_round_trip_through_component_tuples():
    for spec in LABELLED:
        R = FiniteRing(spec)
        tuples = _component_tuples(R)
        assert list(R.elements()) == list(range(R.size)) == \
            [R.label_of(x) for x in tuples]
        assert [R.parts(a) for a in R.elements()] == tuples
        assert R.parts(R.zero) == tuple(c.zero for c in R.components)
        assert R.parts(R.one) == tuple(c.one for c in R.components)


def test_label_arithmetic_is_componentwise():
    for spec in LABELLED:
        R = FiniteRing(spec)
        tuples = _component_tuples(R)
        for a, x in enumerate(tuples):
            assert tuples[R.neg(a)] == _componentwise(R, "neg", x)
            for b, y in enumerate(tuples):
                assert tuples[R.add(a, b)] == _componentwise(R, "add", x, y)
                assert tuples[R.mul(a, b)] == _componentwise(R, "mul", x, y)


@pytest.mark.parametrize("spec", ["Z/6", "Z/4xF_9", "F_8", "Z/2xF_2",
                                  "Z/2xZ/4", "F_2401"])
def test_scalar_matches_repeated_addition(spec):
    R = FiniteRing(spec)
    for a in range(0, R.size, 1 if R.size <= 36 else 97):
        for n in range(-30, 31):
            assert R.scalar(n, a) == repeated_addition(R, n, a)


def test_scalar_of_a_huge_multiple_returns_at_once():
    # the additive exponent of Z/4 x F_9 is 12, and 10**18 = 4 mod 12
    R = FiniteRing("Z/4xF_9")
    start = time.perf_counter()
    got = [R.scalar(n, a) for a in R.elements() for n in (10**18, -10**18)]
    assert time.perf_counter() - start < 1
    assert got == [repeated_addition(R, n, a) for a in R.elements()
                   for n in (4, -4)]


def test_units():
    R = FiniteRing("Z/6")
    units = [a for a in R.elements() if R.is_unit(a)]
    assert len(units) == 2


def test_hom_counts():
    Z6 = FiniteRing("Z/6")
    assert len(ring_homs(Z6, Field.prime(2))) == 1
    assert len(ring_homs(FiniteRing("F_4"), Field.galois(2, 2))) == 2
    assert len(ring_homs(Z6, Field.prime(7))) == 0


def test_homs_against_brute_force():
    R = FiniteRing("Z/6")
    F = Field.prime(2)
    from itertools import product
    brute = []
    els = R.elements()
    for images in product(F.elements(), repeat=len(els)):
        tab = dict(zip(els, images))
        if tab[R.one] != F.one:
            continue
        if all(tab[R.add(a, b)] == F.add(tab[a], tab[b])
               and tab[R.mul(a, b)] == F.mul(tab[a], tab[b])
               for a in els for b in els):
            brute.append(tab)
    homs = ring_homs(R, F)
    assert len(homs) == len(brute)
    assert {tuple(sorted(h.table.items())) for h in homs} == \
        {tuple(sorted(t.items())) for t in brute}


def test_ring_hom_tables_are_distinct():
    targets = [Field.prime(2), Field.prime(3), Field.galois(2, 2),
               Field.galois(2, 4), Field.galois(3, 2), Field.galois(3, 4)]
    counts = {}
    for spec in LABELLED:
        R = FiniteRing(spec)
        els = R.elements()
        for K in targets:
            homs = ring_homs(R, K)
            counts[spec, K.label()] = len(homs)
            assert len({tuple(h(a) for a in els) for h in homs}) == len(homs)
            for h in homs:
                assert h(R.one) == K.one
                assert all(h(R.add(a, b)) == K.add(h(a), h(b))
                           and h(R.mul(a, b)) == K.mul(h(a), h(b))
                           for a in els for b in els)
    assert counts["Z/2xF_2", "F_2"] == counts["Z/4xF_9", "F_81"] == 2
    assert counts["Z/12", "F_2"] == counts["Z/4xF_9", "F_2"] == 1
    assert counts["F_4", "F_16"] == counts["F_9", "F_9"] == 2
    assert counts["Z/6", "F_4"] == 1 and counts["F_9", "F_3"] == 0


def _verdict(check, phi):
    """None when check passes phi, else the NotMultiplicative message."""
    try:
        check(phi)
    except NotMultiplicative as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("spec,target", [
    ("F_4", Field.galois(2, 2)), ("F_4", Field.galois(2, 4)),
    ("F_9", Field.galois(3, 2)), ("Z/6", Field.prime(2)),
    ("Z/6", Field.prime(3)), ("Z/4xF_9", Field.prime(2)),
    ("Z/4xF_9", Field.galois(3, 2))], ids=str)
def test_multiplicativity_matches_all_pairs_oracle(spec, target):
    # ring homs, their pointwise products (multiplicative, not additive),
    # and each of those changed at one element, one at a time
    R, K = FiniteRing(spec), target
    els = R.elements()
    homs = [h.table for h in ring_homs(R, K)]
    assert homs
    tables = homs + [{a: K.mul(g[a], h[a]) for a in els}
                     for g in homs for h in homs]
    for t in list(tables):
        for a in els:
            tables.append({**t, a: K.add(t[a], K.one)})
    verdicts = []
    for t in tables:
        phi = RingMap(R, K, table=t)
        want = _verdict(all_pairs_multiplicative, phi)
        assert _verdict(RingMap.check_multiplicative, phi) == want
        verdicts.append(want)
    assert None in verdicts
    assert "does not send 1 to 1" in verdicts
    assert any(v and v.startswith("fails at ") for v in verdicts)


def test_multiplicativity_of_a_large_field_map_is_fast():
    # |A|^2 = 5.76M pairs would take seconds; generators take |S| * |A|
    R = FiniteRing("F_2401")
    K = R.as_field()
    start = time.perf_counter()
    RingMap(R, K, func=lambda a: K.pow(a, 7)).check_multiplicative()
    assert time.perf_counter() - start < 1
    with pytest.raises(NotMultiplicative, match="^fails at 2 \\* 2$"):
        RingMap(R, K, func=lambda a: K.add(K.pow(a, 7), K.one)
                if a == R.add(R.one, R.one) else K.pow(a, 7)
                ).check_multiplicative()


def test_all_ideals_z6():
    R = FiniteRing("Z/6")
    sizes = sorted(len(I.elements) for I in all_ideals(R))
    assert sizes == [1, 2, 3, 6]


def test_cotrivial_ideals():
    Z6 = FiniteRing("Z/6")
    cot = cotrivial_ideals(Z6, Field.prime(2))
    sizes = sorted(len(I.elements) for I in cot)
    # the whole ring and the ideal generated by 3 (quotients 1 and 2... the
    # cotrivial ones have quotient size coprime to 2: quotient 1 and 3)
    assert sizes == [2, 6]
    Z4 = FiniteRing("Z/4")
    cot0 = cotrivial_ideals(Z4, Field.rationals())
    assert sorted(len(I.elements) for I in cot0) == [1, 2, 4]


def test_primary_idempotents():
    R = FiniteRing("Z/12")
    idem = primary_idempotents(R)
    assert len(idem) == 2
    for _, e in idem:
        assert R.mul(e, e) == e
    total = R.zero
    for _, e in idem:
        total = R.add(total, e)
    assert total == R.one


def test_monoid_closure_full():
    def monoid(ring, gens):
        return set(gens) | {y for y, _, _ in monoid_closure(
            lambda g, x: mat_mul(ring, g, x, len(x)), gens, gens)}

    R2 = FiniteRing("F_2")
    gens = matrix_monoid_generators(R2, 2)
    assert len(monoid(R2, gens)) == 16
    Z4 = FiniteRing("Z/4")
    gens1 = matrix_monoid_generators(Z4, 1)
    assert len(monoid(Z4, gens1)) == 4
    Z6 = FiniteRing("Z/6")
    gens6 = matrix_monoid_generators(Z6, 2)
    assert len(monoid(Z6, gens6)) == 6 ** 4


# F_2 to rank 3; the rest at rank 2 (and rank 1 for F_9 and Z/4xF_3),
# where M_n(A) has at most 12^4 elements
GENERATOR_CASES = ([("F_2", n) for n in (1, 2, 3)]
                   + [(spec, 2) for spec in ("F_3", "F_4", "F_5", "Z/4",
                                             "Z/6")]
                   + [(spec, n) for spec in ("F_9", "Z/4xF_3")
                      for n in (1, 2)])


@pytest.mark.parametrize("spec, n", GENERATOR_CASES)
def test_matrix_generators_close_like_every_transvection(spec, n):
    # the small set and the oracle's, which lists every e_ij(r) and every
    # diag(a, 1, ..., 1), generate the same monoid: all of M_n(A)
    R = FiniteRing(spec)

    def monoid(gens):
        return set(gens) | {y for y, _, _ in monoid_closure(
            lambda g, x: mat_mul(R, g, x, n), gens, gens)}

    small = matrix_monoid_generators(R, n)
    full = full_matrix_monoid_generators(R, n)
    assert small[0] == full[0] == ring_identity(R, n)
    assert len(small) < len(full) or R.size == 2
    closed = monoid(small)
    assert closed == monoid(full)
    assert len(closed) == R.size ** (n * n)


def test_mat_mul_empty_shapes():
    R = FiniteRing("Z/6")
    a, b, c, d = R.elements()[1:5]
    g = ((a, b), (c, d), (b, a))   # 3 x 2
    # no rows: a 0 x 2 map composed with a 2 x 2 one
    assert mat_mul(R, (), g[:2], 2) == ()
    # no columns: the 2 x 0 matrix has one empty tuple per row
    assert mat_mul(R, g, ((), ()), 0) == ((), (), ())
    # empty inner dimension: a 3 x 0 by 0 x 2 product is the zero matrix
    assert mat_mul(R, ((), (), ()), (), 2) == ((R.zero, R.zero),) * 3


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.sampled_from(["Z/4xF_3", "Z/2xF_2", "Z/6", "F_4", "Z/4xF_9"]),
       st.data())
def test_mat_mul_matches_the_elementwise_oracle(spec, data):
    # the Cayley tables give each entry that ring.add and ring.mul give,
    # empty shapes included
    R = FiniteRing(spec)
    r, k, c = (data.draw(st.integers(0, 3)) for _ in range(3))

    def matrix(rows, cols):
        return tuple(tuple(data.draw(st.integers(0, R.size - 1))
                           for _ in range(cols)) for _ in range(rows))

    A, B = matrix(r, k), matrix(k, c)
    assert mat_mul(R, A, B, c) == elementwise_mat_mul(R, A, B, c)
