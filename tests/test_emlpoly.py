import time
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

from steinlab import emlpoly as ep
from steinlab.fields import Field, QQ
from steinlab.matrices import Matrix
from steinlab.rings import FiniteRing

from oracles import (coefficient_abmap, multiset_deviation_vanishes,
                     per_d_eml_degree)


def window_map(window, func):
    Z = ep.AbGroup(window=window)
    return ep.AbMap(Z, QQ, func=func)


def test_second_deviation_of_square_is_bilinear():
    f = window_map(40, lambda u: Fraction(u * u))
    dev = ep.deviation(f, 2)
    assert dev(3, 4) == 24  # 2uv
    assert dev(1, 1) == 2
    assert ep.deviation_vanishes(f, 3)
    assert not ep.deviation_vanishes(f, 2)


def test_third_deviation_of_cube():
    f = window_map(60, lambda u: Fraction(u ** 3))
    dev = ep.deviation(f, 3)
    # 6uvw on the cube
    assert dev(1, 2, 3) == 36
    assert ep.deviation_vanishes(f, 4)


def test_deviation_symmetric():
    f = window_map(60, lambda u: Fraction(u ** 3 + 2 * u))
    dev = ep.deviation(f, 2)
    for a, b in [(1, 2), (3, 5), (0, 4)]:
        assert dev(a, b) == dev(b, a)


def test_eml_degrees():
    const = window_map(20, lambda u: Fraction(7))
    assert ep.eml_degree(const, 4) == 0
    linear = window_map(20, lambda u: Fraction(3 * u))
    assert ep.eml_degree(linear, 4) == 1
    quad = window_map(40, lambda u: Fraction(u * u + u))
    assert ep.eml_degree(quad, 4) == 2


def test_not_polynomial_sentinel():
    f = window_map(400, lambda u: Fraction(2 ** abs(u)))
    d = ep.eml_degree(f, 5)
    assert d == ep.NotPolynomialUpTo(5)
    assert d != ep.NotPolynomialUpTo(4)


def test_finite_group_indicator_is_polynomial():
    A = ep.AbGroup((4,))
    F2 = Field.prime(2)
    f = ep.AbMap(A, F2, func=lambda u: F2.one if u == (1,) else F2.zero)
    d = ep.eml_degree(f, 6)
    assert isinstance(d, int)


def test_homogeneous_decomposition_roundtrip():
    f = window_map(60, lambda u: Fraction(u * u + u))
    parts = ep.homogeneous_decomposition(f)
    assert len(parts) == 3
    for u in range(-5, 6):
        total = sum(fk(u) for fk in parts)
        assert total == f(u)
    # homogeneity: f_k(n u) = n^k f_k(u)
    assert parts[2](6) == 9 * parts[2](2)
    assert parts[1](4) == 2 * parts[1](2)


def test_factor_frobenius_power_on_f9():
    R = FiniteRing("F_9")
    K = Field.galois(3, 2)
    phi = ep.RingMap(R, K, func=lambda a: K.pow(a, 4))
    factors, L = ep.factor_multiplicative(phi)
    assert len(factors) == 2
    assert L is K
    for a in R.elements():
        prod = L.one
        for h in factors:
            prod = L.mul(prod, h(a))
        assert prod == phi(a)


def test_power_map_degrees_match_the_coefficient_view():
    # the degree of x^k on F_q is the sum of the base-p digits of k (0 for
    # k = 0), whether the source is the ring or the product of cyclic
    # groups on the coefficient vectors
    for q in (4, 8, 9):
        R = FiniteRing(f"F_{q}")
        K = R.as_field()
        for k in range(q):
            phi = ep.RingMap(R, K, func=lambda a: K.pow(a, k))
            d = ep.eml_degree(phi.as_abmap(), 5)
            assert d == ep.eml_degree(coefficient_abmap(phi), 5)
            assert d == sum((k // K.char ** i) % K.char
                            for i in range(K.degree))


def test_factor_square_on_z4():
    R = FiniteRing("Z/4")
    F2 = Field.prime(2)
    # x -> x^2 lands in {0, 1} and coincides with reduction mod 2, so a
    # single homomorphism factor suffices
    phi = ep.RingMap(R, F2, func=lambda a: F2.from_int(a ** 2))
    factors, L = ep.factor_multiplicative(phi)
    assert len(factors) == 1
    assert L is F2


def test_factor_integer_cube():
    f = window_map(60, lambda u: Fraction(u ** 3))
    factors, L = ep.factor_multiplicative(f)
    assert len(factors) == 3
    assert L is QQ


def test_factor_beyond_max_degree_raises_no_factorization():
    # the norm F_8 -> F_2 inside F_4 is the product of the three
    # embeddings of F_8, which meet F_4 only in degree 6 > MAX_DEGREE
    R = FiniteRing("F_8")
    K = Field.galois(2, 2)
    phi = ep.RingMap(R, K, func=lambda a: K.one if a else K.zero)
    with pytest.raises(ep.NoFactorization, match="MAX_DEGREE = 4"):
        ep.factor_multiplicative(phi)


def test_factor_rejects_non_multiplicative():
    R = FiniteRing("F_4")
    K = Field.galois(2, 2)
    phi = ep.RingMap(R, K, func=lambda a: K.add(a, K.one))
    with pytest.raises(ep.NotMultiplicative):
        ep.factor_multiplicative(phi)


def test_linearization_z2_in_z4():
    A, B, C = ep.AbGroup((2,)), ep.AbGroup((4,)), ep.AbGroup((2,))
    incl = ep.AbMap(A, B, func=lambda u: (2 * u[0] % 4,))
    proj = ep.AbMap(B, C, func=lambda u: (u[0] % 2,))
    for K in (Field.prime(3), Field.prime(5)):
        rep = ep.linearization_exactness(A, B, C, incl, proj, K)
        assert rep["first_sequence_exact"]
        assert rep["second_sequence_exact"]


def test_check_short_exact_rejects_bad_pair():
    A, B, C = ep.AbGroup((2,)), ep.AbGroup((4,)), ep.AbGroup((2,))
    incl = ep.AbMap(A, B, func=lambda u: (0,))
    proj = ep.AbMap(B, C, func=lambda u: (u[0] % 2,))
    assert not ep.check_short_exact(A, B, C, incl, proj)


# -- Z windows: finite differences against the multiset check ------------

def _is_zero(v):
    return v.is_zero() if isinstance(v, Matrix) else v == 0


def multiset_vanishes(f, d):
    """The multiset check on a Z window, the oracle for deviation_vanishes:
    dev_d on every multiset of d arguments in [-b, b], b = window // d."""
    dev = ep.deviation(f, d)
    b = f.source.window // d
    return all(_is_zero(dev(*us))
               for us in combinations_with_replacement(range(-b, b + 1), d))


class Recorder:
    """A Z-window callback that records the points it is read at."""

    def __init__(self, values):
        self.values = values
        self.reads = []

    def __call__(self, u):
        self.reads.append(u)
        return self.values(u)


def _poly(coeffs, u):
    v = Fraction(0)
    for c in reversed(coeffs):
        v = v * u + c
    return v


small = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def window_values(draw):
    """(window, d, value function): arbitrary tables, polynomials with an
    optional bump at one point, and 2x2 Q-matrix values built from them."""
    window = draw(st.integers(0, 12))
    d = draw(st.integers(1, 5))
    points = range(-window, window + 1)
    kind = draw(st.sampled_from(["table", "poly", "matrix"]))
    if kind == "table":
        table = draw(st.lists(small, min_size=len(points),
                              max_size=len(points)))
        values = dict(zip(points, table))
        return window, d, values.__getitem__
    polys = draw(st.lists(st.lists(small, min_size=0, max_size=d + 1),
                          min_size=4, max_size=4))
    bump = {}
    if draw(st.booleans()):
        at = draw(st.sampled_from(points))
        bump[at] = draw(small.filter(lambda x: x != 0))

    def scalar(u, coeffs=polys[0]):
        return _poly(coeffs, u) + bump.get(u, 0)
    if kind == "poly":
        return window, d, scalar

    def matrix(u):
        entries = [scalar(u)] + [_poly(c, u) for c in polys[1:]]
        return Matrix(QQ, [entries[:2], entries[2:]])
    return window, d, matrix


@settings(derandomize=True, max_examples=300, deadline=None)
@given(window_values())
def test_deviation_vanishes_matches_multiset_oracle(case):
    window, d, values = case
    f = window_map(window, Recorder(values))
    got = ep.deviation_vanishes(f, d)
    b = window // d
    reads = f.func.reads
    # f is read at most once per point of [-d*b, d*b], and nowhere else
    assert len(reads) <= 2 * d * b + 1
    assert all(abs(u) <= d * b for u in reads)
    assert got == multiset_vanishes(f, d)


def test_finite_differences_read_only_the_reachable_points():
    # window 7, d = 2: the multiset test reaches [-6, 6], never f(+-7);
    # a bump at 7 leaves dev_2 of a linear map vanishing
    f = window_map(7, lambda u: Fraction(3 * u + 1 + (u == 7)))
    assert multiset_vanishes(f, 2)
    assert ep.deviation_vanishes(f, 2)
    g = window_map(7, lambda u: Fraction(3 * u + 1 + (u == 6)))
    assert not ep.deviation_vanishes(g, 2)
    # window < d: every argument is 0, and f is not read at all
    h = window_map(3, Recorder(lambda u: Fraction(2 ** u)))
    assert ep.deviation_vanishes(h, 4)
    assert h.func.reads == []


def test_deviation_count_guard():
    # each Z call reads f at most 2*d*(W//d) + 1 times
    for window in range(13):
        for d in range(1, 6):
            f = window_map(window, Recorder(lambda u: Fraction(u) ** 3))
            ep.deviation_vanishes(f, d)
            assert len(f.func.reads) <= 2 * d * (window // d) + 1


# -- finite sources: differences along generators against multisets ------

FINITE_SOURCES = [FiniteRing(spec) for spec in (
    "F_2", "F_3", "F_4", "Z/4", "Z/6", "F_8", "Z/8", "F_9", "Z/9",
    "Z/2xF_2", "Z/2xZ/4", "Z/3xZ/3", "F_16", "Z/4xZ/4", "Z/2xF_8",
    "Z/2xZ/2xZ/2xZ/2")] + [ep.AbGroup(orders) for orders in (
        (2,), (2, 3), (2, 2, 2), (4, 4), (3, 3), (2, 8))]


@st.composite
def finite_maps(draw):
    """(f, d): f from a source of at most 16 elements into F_2, F_3, F_4
    or Q, as a random, sparse or constant table, or as one prime-field
    coordinate of a power map, whose degree is small."""
    U = draw(st.sampled_from(FINITE_SOURCES))
    K = draw(st.sampled_from([Field.prime(2), Field.prime(3),
                              Field.galois(2, 2), QQ]))
    els = list(U.elements())
    scalar = st.integers(-2, 2).map(Fraction) if K is QQ else \
        st.integers(0, K.order - 1)
    kind = draw(st.sampled_from(["table", "sparse", "constant", "power"]))
    L = U.components[0] if isinstance(U, FiniteRing) else None
    if kind == "power" and isinstance(L, Field) and K is not QQ and \
            len(U.components) == 1 and L.char == K.char:
        k = draw(st.integers(0, L.order - 1))
        i = draw(st.integers(0, L.degree - 1))
        values = [K.from_int(L.to_coeffs(L.pow(u, k))[i]) for u in els]
    elif kind == "constant":
        values = [draw(scalar)] * len(els)
    elif kind == "sparse":
        values = [K.zero] * len(els)
        for at in draw(st.lists(st.integers(0, len(els) - 1), max_size=2)):
            values[at] = draw(scalar)
    else:
        values = draw(st.lists(scalar, min_size=len(els),
                               max_size=len(els)))
    return ep.AbMap(U, K, table=dict(zip(els, values))), \
        draw(st.integers(0, 4))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(finite_maps())
def test_finite_differences_match_multiset_oracle(case):
    f, d = case
    assert ep.deviation_vanishes(f, d) == multiset_deviation_vanishes(f, d)


@pytest.mark.parametrize("q, k, degree", [
    (16, 0, 0), (16, 1, 1), (16, 3, 2), (16, 7, 3), (16, 15, 4),
    (9, 4, 2), (9, 8, 4), (2401, 1, 1), (2401, 8, 2)])
def test_power_map_degree_is_the_digit_sum(q, k, degree):
    # x^k on F_q has degree the sum of the base-p digits of k, k < q
    R = FiniteRing(f"F_{q}")
    K = R.as_field()
    f = ep.RingMap(R, K, func=lambda a: K.pow(a, k)).as_abmap()
    assert ep.eml_degree(f, 4) == degree


@settings(derandomize=True, max_examples=200, deadline=None)
@given(finite_maps(), st.integers(0, 6))
def test_eml_degree_levels_match_the_per_d_search(case, cap):
    f, _ = case
    assert ep.eml_degree(f, cap) == per_d_eml_degree(f, cap)


def test_eml_degree_cost_is_linear_in_the_cap():
    # the indicator of 0 on Z/6 into F_2 is not polynomial: 3 is a unit
    # mod 2, so no power of the augmentation ideal kills it, and every
    # level up to the cap stays nonzero
    F2 = Field.prime(2)
    f = ep.AbMap(ep.AbGroup((6,)), F2,
                 func=lambda u: F2.one if u == (0,) else F2.zero)
    start = time.perf_counter()
    assert ep.eml_degree(f, 1500) == ep.NotPolynomialUpTo(1500)
    assert time.perf_counter() - start < 1
