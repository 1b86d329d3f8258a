"""End-to-end checks, one per headline guarantee of the package.

Each test is deliberately self-contained and compares library output
against an independently coded oracle (tableau counts, brute-force
group-algebra decompositions, group-algebra filtrations, conjugacy
counts), always with exact equality.
"""

from fractions import Fraction
from itertools import product

from steinlab import emlpoly, functorcat as fc, schurfun as sf
from steinlab import steinberg as st, symgrp as sg
from steinlab.emlpoly import AbGroup, AbMap, NotPolynomialUpTo, RingMap
from steinlab.fields import Field, QQ
from steinlab.matrices import Matrix
from steinlab.modtools import are_isomorphic, end_dim, is_simple
from steinlab.rings import FiniteRing, ring_homs

from oracles import (all_partitions, cross_effect_check, group_algebra_simples,
                     p_regular_class_count, semistandard_count)


def test_criterion_01_char0_schur_dimensions():
    for d in range(1, 5):
        for lam in all_partitions(d):
            for n in range(1, 4):
                S = sf.schur_value(lam, n, QQ)
                assert S.dimension == semistandard_count(lam, n)
                E = sf.elementary_value(sg.specht_module(lam, QQ), n, QQ)
                assert E.dimension == S.dimension
                if S.dimension:
                    assert are_isomorphic(E, S)


def _restricted(d, p):
    return [lam for lam in all_partitions(d)
            if sg.is_p_restricted(lam, p)]


def test_criterion_02_charp_elementary_socle_bijection():
    for p in (2, 3):
        K = Field.prime(p)
        for d in range(1, 5):
            for n in range(1, 4):
                es = [sf.elementary_value(sg.simple_module(lam, K), n, K)
                      for lam in all_partitions(d)
                      if sg.is_p_regular(lam, p)]
                ls = [sf.socle_simple(lam, n, K)
                      for lam in _restricted(d, p)]
                en = [e for e in es if e.dimension]
                ln = [l for l in ls if l.dimension]
                assert len(es) - len(en) == len(ls) - len(ln)
                assert len(en) == len(ln)
                for e in en:
                    assert is_simple(e) and end_dim(e) == 1
                    hits = [l for l in ln if l.dimension == e.dimension
                            and are_isomorphic(e, l)]
                    assert len(hits) == 1
                    ln.remove(hits[0])


def test_criterion_03_highest_weights():
    for p, K in ((2, Field.galois(2, 3)), (3, Field.galois(3, 2))):
        for d in range(1, 5):
            for n in range(1, 4):
                for lam in _restricted(d, p):
                    L = sf.socle_simple(lam, n, K)
                    if not L.dimension:
                        continue
                    want = tuple(lam) + (0,) * (n - len(lam))
                    assert sf.highest_weight(L, d) == want


def test_criterion_04_det_twist():
    assert sf.det_twist_check((1, 1), 2, Field.prime(3))
    assert sf.det_twist_check((2, 1), 2, Field.prime(2))
    assert sf.det_twist_check((2, 2), 2, Field.prime(3))


def test_criterion_05_steinberg_classification():
    out = st.classify(2, 2)
    assert sorted(d.module.dimension for d in out) == [1, 2]
    K = st.splitting_field(2, 2)
    brute = group_algebra_simples(2, 2, K)
    assert sorted(m.dimension for m in brute) == [1, 2]
    for d in out:
        assert sum(are_isomorphic(d.module, m) for m in brute) == 1

    assert len(st.classify(1, 4)) == 3

    out24 = st.classify(2, 4)
    assert len(out24) == 12
    for d in out24:
        assert is_simple(d.module)
    for i in range(len(out24)):
        for j in range(i + 1, len(out24)):
            a, b = out24[i].module, out24[j].module
            if a.dimension == b.dimension:
                assert not are_isomorphic(a, b)
    assert p_regular_class_count(2, 4) == 12


def test_criterion_06_uniqueness_clause():
    triv = st.build((0, 0), 2, 2)
    det = st.build((1, 1), 2, 2)
    assert are_isomorphic(det.module, triv.module)
    verdict = st.uniqueness_check((1, 1), (0, 0), 2, 2)
    assert verdict["isomorphic"]
    assert verdict["relation"] == "det^(p-1) twist"
    assert verdict["consistent"]


def test_criterion_07_grassmannian_intermediate_extension():
    R = FiniteRing("F_2")
    K = Field.prime(3)
    delta = fc.MonoidModule.from_character(
        R, K, lambda a: K.one if a != R.zero else K.zero)
    T = fc.intermediate_extension_functor(delta, 4)
    assert T.dims() == [2 ** m - 1 for m in range(5)]
    for m in range(1, 5):
        assert is_simple(fc.functor_value_module(T, m))
    prof = fc.dimension_profile(T)
    assert prof["fit_ok"]
    assert prof["fit"] == ["-1", "1"]


def test_criterion_08_cross_effects_and_degrees():
    R = FiniteRing("F_2")
    F3 = Field.prime(3)
    F2 = Field.prime(2)
    hom = ring_homs(R, F2)[0]
    lam1 = fc.additive_functor(R, F2, 4, lambda a: hom(a))
    builtins = [
        fc.constant_functor(R, F3, 4),
        lam1,
        fc.representable_functor(R, F3, 4),
        fc.grassmannian_functor(R, F3, 4),
    ]
    for F in builtins:
        for d in range(5):
            assert cross_effect_check(F, d)
    assert fc.polynomial_degree(lam1, 4) == 1
    P = fc.representable_functor(R, F3, 4)
    assert fc.polynomial_degree(P, 4) == NotPolynomialUpTo(4)


def test_criterion_09_global_decomposition_on_z6():
    Z6 = FiniteRing("Z/6")
    K = Field.galois(2, 2)
    hom = ring_homs(Z6, K)[0]
    chi = fc.MonoidModule.from_character(
        Z6, K, lambda a: K.zero if a % 3 == 0 else K.one)

    lam1 = fc.additive_functor(Z6, K, 3, lambda a: hom(a))
    tchi = fc.intermediate_extension_functor(chi, 3)
    F = fc.tensor_functors(lam1, tchi)

    I = fc.unipotence_ideal(F, 1)
    assert sorted(I.elements) == [0, 3]
    assert fc.ideal_is_cotrivial(F, I)

    lam1s = fc.additive_functor(Z6, K, 2, lambda a: hom(a))
    tchis = fc.intermediate_extension_functor(chi, 2)
    Fs = fc.tensor_functors(lam1s, tchis)
    for n in (1, 2):
        assert fc.simplicity_test(Fs, n)


def _hom_images(A, B):
    """All tuples of generator images defining a homomorphism A -> B."""
    pools = []
    for m in A.orders:
        pools.append([b for b in B.elements()
                      if B.scalar(m, b) == B.zero])
    return product(*pools)


def _hom_from_images(A, B, imgs):
    def f(a):
        out = B.zero
        for coef, img in zip(a, imgs):
            out = B.add(out, B.scalar(coef, img))
        return out
    return f


def _abelian_groups_up_to(n):
    out = []
    for size in range(2, n + 1):
        seen = set()
        for k in range(1, size.bit_length() + 2):
            for orders in product(range(2, size + 1), repeat=k):
                prod_ = 1
                for m in orders:
                    prod_ *= m
                if prod_ != size:
                    continue
                # canonical form: invariant factors via the divisor chain
                key = tuple(sorted(_primary_parts(orders)))
                if key in seen:
                    continue
                seen.add(key)
                out.append(AbGroup(orders))
    return out


def _primary_parts(orders):
    parts = []
    for m in orders:
        d = 2
        while m > 1:
            while m % d == 0:
                e = 1
                while m % d == 0:
                    m //= d
                    e *= d
                parts.append(e)
            d += 1
    return parts


def test_criterion_11_linearization_exactness():
    groups = _abelian_groups_up_to(8)
    fields = (Field.prime(3), Field.prime(5))
    checked = 0
    for B in groups:
        nB = B.size()
        for A in groups:
            nA = A.size()
            if nB % nA or nB == nA:
                continue
            for C in groups:
                if C.size() != nB // nA:
                    continue
                for imgs_i in _hom_images(A, B):
                    incl = _hom_from_images(A, B, imgs_i)
                    image = {incl(a) for a in A.elements()}
                    if len(image) != nA:
                        continue
                    for imgs_p in _hom_images(B, C):
                        proj = _hom_from_images(B, C, imgs_p)
                        kernel = {b for b in B.elements()
                                  if proj(b) == C.zero}
                        if kernel != image:
                            continue
                        for k in fields:
                            rep = emlpoly.linearization_exactness(
                                A, B, C, incl, proj, k)
                            assert rep["first_sequence_exact"]
                            assert rep["second_sequence_exact"]
                        checked += 1
    assert checked > 0


def _p_groups_up_to(n):
    out = []
    for p in (2, 3, 5, 7):
        for G in _abelian_groups_up_to(n):
            if all(m % p == 0 and _is_p_power(m, p) for m in G.orders):
                out.append((p, G))
    return out


def _is_p_power(m, p):
    while m % p == 0:
        m //= p
    return m == 1


def _group_algebra_powers(A, k):
    """Bases of the powers of the augmentation ideal of k[A], until zero."""
    els = A.elements()
    idx = {a: i for i, a in enumerate(els)}
    n = len(els)

    def convolve(u, v):
        out = [k.zero] * n
        for i, a in enumerate(els):
            if u[i] == k.zero:
                continue
            for j, b in enumerate(els):
                if v[j] == k.zero:
                    continue
                t = idx[A.add(a, b)]
                out[t] = k.add(out[t], k.mul(u[i], v[j]))
        return out

    gens = []
    for a in els:
        if a == A.zero:
            continue
        row = [k.zero] * n
        row[idx[a]] = k.one
        row[idx[A.zero]] = k.neg(k.one)
        gens.append(row)
    powers = [Matrix.identity(k, n).rows]
    current = Matrix(k, gens).row_space_basis().rows
    while current:
        powers.append(current)
        nxt = [convolve(u, g) for u in current for g in gens]
        current = Matrix(k, nxt).row_space_basis().rows if nxt else []
    return els, powers


def test_criterion_10_eml_suite():
    # deviation symmetry of the bilinear defect
    Z = AbGroup(window=60)
    cube = AbMap(Z, QQ, func=lambda u: Fraction(u) ** 3)
    d2 = emlpoly.deviation(cube, 2)
    for u in range(-3, 4):
        for v in range(-3, 4):
            assert d2(u, v) == d2(v, u)

    # vanishing cascade: once a deviation dies, all later ones do
    sq = AbMap(Z, QQ, func=lambda u: Fraction(u) ** 2)
    assert not emlpoly.deviation_vanishes(sq, 2)
    assert emlpoly.deviation_vanishes(sq, 3)
    assert emlpoly.deviation_vanishes(sq, 4)

    # every map from a p-group of order <= 8 to F_p is polynomial:
    # the augmentation ideal of F_p[A] is nilpotent, so each value
    # table is killed by some power of it; maps from the small groups
    # are cross-checked against the deviation-based degree.
    for p, A in _p_groups_up_to(8):
        k = Field.prime(p)
        els, powers = _group_algebra_powers(A, k)
        assert powers[-1]  # last nonzero power
        nilpotency = len(powers)
        size = A.size()
        if p ** size <= 4096:
            tables = product(k.elements(), repeat=size)
        else:
            tables = [tuple(k.one if a == target else k.zero
                            for a in els) for target in els]
        small = size <= 4
        for values in tables:
            degree = None
            for d in range(nilpotency):
                if d + 1 >= len(powers):
                    ok = True
                else:
                    ok = True
                    for row in powers[d + 1]:
                        dot = k.zero
                        for i in range(size):
                            dot = k.add(dot, k.mul(values[i], row[i]))
                        if dot != k.zero:
                            ok = False
                            break
                if ok:
                    degree = d
                    break
            assert degree is not None and degree < nilpotency
            if small:
                f = AbMap(A, k, table=dict(zip(els, values)))
                got = emlpoly.eml_degree(f, nilpotency)
                assert got == degree

    # homogeneous decomposition round-trips Z-window maps
    f = AbMap(Z, QQ,
              func=lambda u: 2 * Fraction(u) ** 3 - Fraction(u) + 5)
    parts = emlpoly.homogeneous_decomposition(f, cap=5)
    for u in range(-5, 6):
        total = sum((fk(u) for fk in parts), Fraction(0))
        assert total == f(u)

    # every multiplicative self-map of F_4 factors into field maps
    R = FiniteRing("F_4")
    K = Field.galois(2, 2)
    found = 0
    for values in product(K.elements(), repeat=4):
        table = dict(zip(R.elements(), values))
        phi = RingMap(R, K, table=table)
        try:
            phi.check_multiplicative()
        except emlpoly.NotMultiplicative:
            continue
        found += 1
        factors, ext = emlpoly.factor_multiplicative(phi)
        embed = ext.embedding_from(K) if ext is not K else (lambda x: x)
        for a in R.elements():
            prod_ = ext.one
            for h in factors:
                prod_ = ext.mul(prod_, h(a))
            assert prod_ == embed(phi(a))
    assert found == 4
