import sys
import threading
from fractions import Fraction

import pytest

from steinlab.fields import Field, FieldError, QQ, prime_power


def test_prime_field_arithmetic():
    F = Field.prime(7)
    assert F.add(3, 5) == 1
    assert F.mul(3, 5) == 1
    assert F.inv(3) == 5
    assert F.sub(0, 1) == 6
    assert F.pow(3, 6) == 1


def test_field_interning():
    assert Field.prime(5) is Field.prime(5)
    assert Field.galois(2, 2) is Field.of_order(4)
    assert Field.of_order(3) is Field.prime(3)
    assert QQ is Field.rationals()


@pytest.mark.parametrize("q, pe", [(2, (2, 1)), (8, (2, 3)), (9, (3, 2)),
                                   (2401, (7, 4)), (1024, (2, 10))])
def test_prime_power_reads_p_and_e(q, pe):
    assert prime_power(q) == pe


@pytest.mark.parametrize("q, message", [
    (6, "6 is not a prime power"), (36, "36 is not a prime power"),
    (11, "unsupported prime-power 11"), (1, "unsupported prime-power 1"),
    (0, "unsupported prime-power 0"), (-4, "unsupported prime-power -4"),
])
def test_prime_power_refuses(q, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        prime_power(q)
    # the field constructor keeps its own message, and ends on q = 0 too
    with pytest.raises(FieldError,
                       match=f"^no supported field of order {q}$"):
        Field.of_order(q)


def test_axioms_small_fields():
    for q in (2, 3, 4, 5, 8, 9, 2401):
        F = Field.of_order(q)
        els = F.elements()
        assert len(els) == q
        for a in els:
            assert F.add(a, F.zero) == a
            assert F.mul(a, F.one) == a
            assert F.add(a, F.neg(a)) == F.zero
            if a != F.zero:
                assert F.mul(a, F.inv(a)) == F.one
        # a couple of distributivity probes
        a, b, c = els[0], els[-1], els[q // 2]
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


def test_multiplicative_generator():
    for q in (4, 8, 9, 25, 49):
        F = Field.of_order(q)
        z = F.gen()
        seen = set()
        x = F.one
        for _ in range(q - 1):
            seen.add(x)
            x = F.mul(x, z)
        assert len(seen) == q - 1


def test_frobenius():
    F = Field.galois(3, 2)
    for a in F.elements():
        assert F.frobenius(a, 1) == F.pow(a, 3)
        assert F.frobenius(F.frobenius(a, 1), 1) == a


def test_embedding_f4_into_f16():
    F4, F16 = Field.galois(2, 2), Field.galois(2, 4)
    emb = F16.embedding_from(F4)
    for a in F4.elements():
        for b in F4.elements():
            assert emb(F4.add(a, b)) == F16.add(emb(a), emb(b))
            assert emb(F4.mul(a, b)) == F16.mul(emb(a), emb(b))
    assert emb(F4.one) == F16.one


def test_no_embedding_between_incomparable():
    F4, F8 = Field.galois(2, 2), Field.galois(2, 3)
    assert not F8.contains_subfield(F4)
    with pytest.raises(FieldError):
        F8.embedding_from(F4)


def test_rationals():
    from fractions import Fraction
    assert QQ.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
    assert QQ.char == 0
    assert QQ.inv(Fraction(2)) == Fraction(1, 2)


def test_unsupported_characteristic():
    with pytest.raises(FieldError):
        Field.prime(11)
    with pytest.raises(FieldError):
        Field.galois(2, 5)


def test_concurrent_first_use_interns_one_field():
    key = (5, 4)
    old = Field._cache.pop(key, None)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        barrier = threading.Barrier(8)
        got = []

        def build():
            barrier.wait(timeout=30)
            got.append(Field.galois(*key))

        threads = [threading.Thread(target=build) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert len(got) == 8
        assert all(f is got[0] for f in got)
        assert Field.galois(*key) is got[0]
    finally:
        sys.setswitchinterval(interval)
        if old is not None:
            Field._cache[key] = old



def test_galois_takes_int_characteristic_and_degree():
    # 3.0 == 3, so a float must not reach the intern table
    for p, e in ((3.0, 1), (True, 1), (3, 1.0), (2, True)):
        with pytest.raises(FieldError, match="unsupported"):
            Field.galois(p, e)
    F3 = Field.galois(3, 1)
    assert (F3.char, F3.label()) == (3, "F_3")


def test_integers_and_labels_have_one_meaning():
    F3, F4 = Field.prime(3), Field.galois(2, 2)
    # from_int is the image of Z: -1 is 2 in F_3 and 1 in F_4
    assert [F3.from_int(n) for n in (-1, 3, 4)] == [2, 0, 1]
    assert F4.from_int(-1) == F4.neg(F4.one) == F4.one
    assert F4.from_int(3) == F4.one and F4.from_int(2) == F4.zero
    assert QQ.from_int(-3) == Fraction(-3)
    # element reads labels in range(q), and nothing else
    assert [F4.element(a) for a in range(4)] == list(F4.elements())
    assert QQ.element(Fraction(1, 2)) == Fraction(1, 2)
    for F, bad in ((F3, 3), (F3, -1), (F4, 4), (F4, Fraction(1)),
                   (F4, True)):
        with pytest.raises(ValueError, match="not an element label"):
            F.element(bad)
