"""Walk through the functor that counts lines in F_2-spaces.

The intermediate extension of the nonzero-indicator character of F_2
evaluates on F_2^m to a space of dimension 2^m - 1, the number of lines.
We build it, test each value for simplicity, and fit the dimension
profile with a polynomial in the point count.
"""

from steinlab import functorcat as fc
from steinlab.fields import Field
from steinlab.modtools import is_simple
from steinlab.rings import FiniteRing


def main():
    R = FiniteRing("F_2")
    K = Field.prime(3)

    delta = fc.MonoidModule.from_character(
        R, K, lambda a: K.one if a != R.zero else K.zero)
    T = fc.intermediate_extension_functor(delta, 4)

    print("values on F_2^m for m = 0..4:")
    for m, d in enumerate(T.dims()):
        tag = ""
        if d:
            mod = fc.functor_value_module(T, m)
            tag = "simple" if is_simple(mod) else "reducible"
        print(f"  m={m}  dim={d}  {tag}")

    prof = fc.dimension_profile(T)
    print("polynomial in the point count q^m:", prof["fit"],
          "(verified at the top rank)" if prof["fit_ok"] else "")

    deg = fc.polynomial_degree(T, 4)
    print("degree in the additive sense:", deg,
          "-- the functor is antipolynomial, not polynomial")


if __name__ == "__main__":
    main()
