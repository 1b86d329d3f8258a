from itertools import product

from steinlab.fields import Field
from steinlab.matrices import Matrix
from steinlab.rings import (FiniteRing, all_ideals, cotrivial_ideals,
                            mat_mul, matrix_monoid_generators,
                            monoid_closure, primary_idempotents, ring_homs)


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
