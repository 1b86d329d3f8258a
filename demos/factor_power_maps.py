"""Factor multiplicative power maps on small fields into field maps.

A multiplicative map F_q -> K that is polynomial of degree d in the
additive sense is a pointwise product of d ring homomorphisms into an
extension of K.  The classic example: x^4 on F_9 splits as the identity
times the Frobenius.
"""

from steinlab import emlpoly
from steinlab.fields import Field
from steinlab.rings import FiniteRing


def show(qlabel, K, power):
    R = FiniteRing(qlabel)
    phi = emlpoly.RingMap(R, K, func=lambda a: K.pow(a, power))
    f = phi.as_abmap()
    d = emlpoly.eml_degree(f, 8)
    factors, L = emlpoly.factor_multiplicative(phi)
    print(f"x^{power} on {qlabel}: degree {d}, "
          f"{len(factors)} factor(s) over {L.label()}")
    for i, h in enumerate(factors):
        row = ", ".join(f"{a}->{h(a)}" for a in R.elements())
        print(f"  factor {i}: {row}")


def main():
    show("F_9", Field.galois(3, 2), 4)
    show("F_4", Field.galois(2, 2), 3)
    show("F_5", Field.prime(5), 2)


if __name__ == "__main__":
    main()
