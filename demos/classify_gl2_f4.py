"""Classify the simple F-bar modules of GL_2(F_4) in characteristic 2.

Every simple module is a tensor product of Frobenius twists of modules
with 2-restricted highest weights, one twist per 2-adic digit of a
4-restricted weight.  There are 12 classes; the count matches the number
of conjugacy classes of odd-order elements.
"""

from steinlab import steinberg as st


def main():
    n, q = 2, 4
    print(f"splitting field: {st.splitting_field(n, q).label()}")
    print(f"2-regular class count: {q ** n - q ** (n - 1)}")
    print()
    print("weight      digits              dim")
    for datum in st.classify(n, q):
        digits = " (x) ".join(str(d) for d in datum.digits)
        print(f"{str(datum.lam):10}  {digits:18}  {datum.module.dimension}")

    print()
    verdict = st.uniqueness_check((3, 3), (0, 0), n, q)
    print("is (3,3) the trivial weight in disguise?", verdict)


if __name__ == "__main__":
    main()
