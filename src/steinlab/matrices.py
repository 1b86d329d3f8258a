"""Dense exact matrices over a Field, stored as lists of row lists.

Everything here is exact: no floats anywhere.  Each job has one kernel.
``Matrix.apply_to_vector`` is the one product: ``A * B`` applies the
columns of B to each row of A.  Over Q it multiplies only nonzero pairs of
entries and starts each sum at ``F.zero``, so Q products hold
``Fraction``s.  ``+``, ``-``, unary ``-`` and ``scale`` are the field's
row operations ``Field.row_sub`` (v - f*row) and ``Field.row_scale``.
``kron`` keeps its own loop, which skips zero factors.  Only
``apply_to_vector``, ``Subspace`` and JSON branch on the field kind.

``Subspace`` is the one place that eliminates, and ``Matrix.rref`` reads
its basis.  Over a finite field each vector is inserted by
``Subspace.add_vector``: reduction against the basis, then back-reduction
of the basis.  In characteristic 2, rows of 8e or more entries are
packed bit planes (``fields``): a vector is packed once as it comes in,
subtracting f*row is a few XORs, and only the pivots where the vector is
nonzero are visited.  Rows are unpacked where they leave, in ``basis``
and in what ``reduce`` returns.  Narrower rows and other finite fields
keep list rows and the list row operations.  Over Q the rows are scaled to integers (same span) and
eliminated fraction-free, so every entry of a Q basis is a ``Fraction``.

``Subspace.coords_matrix`` is the one way to write vectors in a basis;
``coords_in_basis`` puts it behind any independent rows.  Every
restriction of an action to a submodule goes through them:
``modtools.restrict_to_submodule`` and Specht modules through
``coords_in_basis``, and the functor action of an intermediate extension,
whose module at each rank is the functor's value module, straight against
the value's ``Subspace``.
"""

import re
from bisect import insort
from fractions import Fraction
from math import gcd, lcm
from operator import getitem

from .fields import Field, QQ


class Matrix:
    __slots__ = ("field", "rows", "nrows", "ncols")

    def __init__(self, field, rows, ncols=None):
        """``ncols`` is read from the rows when there are any; a matrix
        with no rows needs it to know its width."""
        self.field = field
        self.rows = [list(r) for r in rows]
        self.nrows = len(self.rows)
        if ncols is None:
            ncols = len(self.rows[0]) if self.rows else 0
        self.ncols = ncols
        for r in self.rows:
            if len(r) != self.ncols:
                raise ValueError("ragged rows")

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zero(field, nrows, ncols):
        z = field.zero
        return Matrix(field, [[z] * ncols for _ in range(nrows)], ncols)

    @staticmethod
    def identity(field, n):
        z, o = field.zero, field.one
        return Matrix(field, [[o if i == j else z for j in range(n)]
                              for i in range(n)])

    # -- basics ----------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field is other.field
                and self.ncols == other.ncols and self.rows == other.rows)

    def __hash__(self):
        return hash((self.field, self.nrows, self.ncols,
                     tuple(tuple(r) for r in self.rows)))

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __repr__(self):
        return f"Matrix({self.field.label()}, {self.nrows}x{self.ncols})"

    def is_zero(self):
        z = self.field.zero
        return all(x == z for r in self.rows for x in r)

    def entries_flat(self):
        return [x for r in self.rows for x in r]

    def transpose(self):
        if not self.rows:
            return Matrix(self.field, [[] for _ in range(self.ncols)])
        return Matrix(self.field, [list(c) for c in zip(*self.rows)],
                      self.nrows)

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        F = self.field
        m1 = F.neg(F.one)
        return Matrix(F, [F.row_sub(a, m1, b)
                          for a, b in zip(self.rows, other.rows)], self.ncols)

    def __sub__(self, other):
        F = self.field
        return Matrix(F, [F.row_sub(a, F.one, b)
                          for a, b in zip(self.rows, other.rows)], self.ncols)

    def __neg__(self):
        F = self.field
        return self.scale(F.neg(F.one))

    def scale(self, c):
        row_scale = self.field.row_scale
        return Matrix(self.field, [row_scale(c, r) for r in self.rows],
                      self.ncols)

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        cols = other.transpose()
        return Matrix(self.field, [cols.apply_to_vector(row)
                                   for row in self.rows], other.ncols)

    def __pow__(self, n):
        if self.nrows != self.ncols:
            raise ValueError("power of non-square matrix")
        r = Matrix.identity(self.field, self.nrows)
        b = self
        while n:
            if n & 1:
                r = r * b
            b = b * b
            n >>= 1
        return r

    def apply_to_vector(self, v):
        """Matrix times column vector (v a plain list): the one product
        kernel, with one branch per field kind."""
        F = self.field
        if F.kind == "prime":
            p = F.char
            return [sum(a * b for a, b in zip(row, v)) % p
                    for row in self.rows]
        if F.kind == "rational":
            nz = [(j, b) for j, b in enumerate(v) if b]
            return [sum((row[j] * b for j, b in nz if row[j]), F.zero)
                    for row in self.rows]
        add, mul, z = F.add, F.mul, F.zero
        out = []
        for row in self.rows:
            acc = z
            for a, b in zip(row, v):
                if a and b:
                    acc = add(acc, mul(a, b))
            out.append(acc)
        return out

    def kron(self, other):
        """Kronecker product; basis of the product space is ordered
        lexicographically: index (i, k) -> i * other.n + k."""
        F = self.field
        mul, z = F.mul, F.zero
        out = []
        for ra in self.rows:
            for rb in other.rows:
                out.append([mul(a, b) if a and b else z
                            for a in ra for b in rb])
        return Matrix(F, out, self.ncols * other.ncols)

    # -- row reduction ---------------------------------------------------

    def rref(self):
        """Reduced row echelon form; returns (matrix, pivot_columns).  The
        nonzero rows are the basis of ``Subspace(field, ncols, rows)``."""
        F = self.field
        sp = Subspace(F, self.ncols, self.rows)
        rows = sp.basis + [[F.zero] * self.ncols
                           for _ in range(self.nrows - sp.dim)]
        return Matrix(F, rows, self.ncols), sp.pivots

    def rank(self):
        return len(self.rref()[1])

    def kernel_basis(self):
        """Rows spanning {v : A v = 0}, in RREF of the kernel."""
        R, piv = self.rref()
        n = self.ncols
        F = self.field
        pivset = set(piv)
        free = [j for j in range(n) if j not in pivset]
        basis = []
        for j in free:
            v = [F.zero] * n
            v[j] = F.one
            for i, pc in enumerate(piv):
                v[pc] = F.neg(R.rows[i][j])
            basis.append(v)
        return Matrix(F, basis, n).rref()[0]

    def is_invertible(self):
        return self.nrows == self.ncols and self.rank() == self.nrows

    def inverse(self):
        n = self.nrows
        if n != self.ncols:
            raise ValueError("inverse of non-square matrix")
        F = self.field
        aug = Matrix(F, [self.rows[i] + Matrix.identity(F, n).rows[i]
                         for i in range(n)])
        R, piv = aug.rref()
        if piv[:n] != list(range(n)):
            raise ValueError("singular matrix")
        return Matrix(F, [r[n:] for r in R.rows[:n]])

    def solve_right(self, b):
        """One solution x of A x = b (b a list), or None."""
        F = self.field
        aug = Matrix(F, [row + [bv] for row, bv in zip(self.rows, b)])
        R, piv = aug.rref()
        if self.ncols in piv:
            return None
        x = [F.zero] * self.ncols
        for i, pc in enumerate(piv):
            x[pc] = R.rows[i][self.ncols]
        return x

    # -- serialization ---------------------------------------------------

    def to_json(self):
        """JSON payload; extension-field entries become coefficient vectors
        over the prime field, rational entries become "num/den" strings."""
        F = self.field
        if F.kind == "rational":
            fld = {"p": 0, "e": 1}
            ent = [[f"{x.numerator}/{x.denominator}" for x in map(Fraction, r)]
                   for r in self.rows]
        else:
            fld = {"p": F.char, "e": F.degree}
            ent = [[list(F.to_coeffs(x)) for x in r] for r in self.rows]
        return {"field": fld, "rows": self.nrows, "cols": self.ncols,
                "entries": ent}

    @staticmethod
    def from_json(obj):
        p, e = obj["field"]["p"], obj["field"]["e"]
        F = QQ if p == 0 else Field.galois(p, e)
        nrows, ncols = obj["rows"], obj["cols"]
        if any(type(x) is not int or x < 0 for x in (nrows, ncols)):
            raise ValueError(f"matrix rows and cols must be ints >= 0, "
                             f"not {nrows!r} and {ncols!r}")
        rows = [[_scalar_from_json(F, x) for x in r]
                for r in obj["entries"]]
        if len(rows) != nrows or any(len(r) != ncols for r in rows):
            raise ValueError("inconsistent matrix payload")
        return Matrix(F, rows, ncols)


_RATIONAL = re.compile(r"-?[0-9]+/[0-9]*[1-9][0-9]*")


def _scalar_from_json(F, x):
    """A JSON entry.  Over Q: an int, or a "num/den" string as ``to_json``
    writes.  Over F_{p^e}: a list of e int coefficients over the prime
    field, or an int, which is an integer mod p over a prime field and an
    element label in range(q) when e > 1.  Bools and floats have no
    meaning, bare or in a list."""
    if F.kind == "rational":
        if type(x) is int or isinstance(x, str) and _RATIONAL.fullmatch(x):
            return Fraction(x)
        raise ValueError(f"{x!r} is not an entry of Q: give an int or a "
                         f"\"num/den\" string")
    if isinstance(x, (list, tuple)) and len(x) == F.degree and \
            all(type(c) is int for c in x):
        return F.from_coeffs(x)
    if type(x) is not int:
        raise ValueError(f"{x!r} is not an entry of {F.label()}: give an "
                         f"int or a list of {F.degree} int coefficients")
    if F.degree == 1:
        return F.from_int(x)
    try:
        return F.element(x)
    except ValueError as e:
        raise ValueError(f"{e} or a coefficient list") from None


# -- elimination over Q ---------------------------------------------------

def _rref_int(rows, ncols):
    """The nonzero RREF rows (as Fractions) and pivots of integer rows:
    fraction-free forward elimination, then back-substitution."""
    piv = []
    r = 0
    nrows = len(rows)
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if rows[i][c]:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        lead = rows[r]
        lc = lead[c]
        for i in range(r + 1, nrows):
            f = rows[i][c]
            if f:
                ri = rows[i]
                new = [lc * a - f * b for a, b in zip(ri, lead)]
                g = 0
                for x in new:
                    g = gcd(g, x)
                    if g == 1:
                        break
                if g > 1:
                    new = [x // g for x in new]
                rows[i] = new
        piv.append(c)
        r += 1
        if r == nrows:
            break
    # normalize & back-substitute with fractions (few pivot rows typically)
    out = [[Fraction(x) for x in rows[i]] for i in range(r)]
    for i in range(r - 1, -1, -1):
        c = piv[i]
        lc = out[i][c]
        if lc != 1:
            out[i] = [x / lc for x in out[i]]
        for k in range(i):
            f = out[k][c]
            if f:
                out[k] = [a - f * b for a, b in zip(out[k], out[i])]
    return out, piv


def _integral(row):
    """The row times the lcm of its denominators (same span, int entries;
    ints and Fractions alike have ``numerator`` and ``denominator``)."""
    d = lcm(*[x.denominator for x in row])
    return [x.numerator * (d // x.denominator) for x in row]


# -- subspaces -----------------------------------------------------------

class Subspace:
    """A subspace of F^n held as an RREF row basis: built by inserting
    each vector with ``add_vector`` over a finite field, and by
    fraction-free elimination of the integral rows over Q.  Entries are
    field elements: over a finite field, ints in ``range(field.order)``.
    In characteristic 2, when n is at least 8e, a vector is packed
    (``fields``) as it comes in and the basis is kept packed; rows are
    unpacked only where they leave it."""

    def __init__(self, field, ambient_dim, vectors=()):
        self.field = field
        self.ambient_dim = ambient_dim
        self.pivots = []
        self._rows = {}  # pivot -> basis row, packed if self._packed
        self._mask = 0   # the pivots, as the bits of an int
        # on narrower rows, packing and unpacking cost more than the XORs
        # save (timeit on random k x n matrices over F_2, F_4 and F_8)
        self._packed = field.packed and ambient_dim >= 8 * field.degree
        if field.kind == "rational":
            rows, self.pivots = _rref_int(
                [_integral(v) for v in vectors], ambient_dim)
            self._rows = dict(zip(self.pivots, rows))
        else:
            for v in vectors:
                self.add_vector(v)

    @property
    def basis(self):
        rows = [self._rows[c] for c in self.pivots]
        if self._packed:
            return [self.field.unpack(r, self.ambient_dim) for r in rows]
        return rows

    @property
    def dim(self):
        return len(self.pivots)

    def _in(self, v):
        return self.field.pack(v) if self._packed else list(v)

    def _reduce(self, v, coords=None):
        """``reduce`` on v as ``_in`` gives it, returned in that form."""
        F, rows = self.field, self._rows
        if not self._packed:
            for c in self.pivots:
                f = v[c]
                if coords is not None:
                    coords.append(f)
                if f:
                    v = F.row_sub(v, f, rows[c])
            return v
        if coords is not None:
            coords.extend(F.packed_entry(v, c) for c in self.pivots)
        # a basis row is zero at every other pivot, so the entries of v at
        # the pivots stay as they came in: visit the nonzero ones
        hits = _support(v) & self._mask
        while hits:
            c = (hits & -hits).bit_length() - 1
            v = F.packed_sub(v, F.packed_entry(v, c), rows[c])
            hits &= hits - 1
        return v

    def reduce(self, v, coords=None):
        """v minus f*row for each basis row, f the entry of v at that row's
        pivot; with ``coords`` a list, each f is appended to it.  What is
        left is zero exactly when v lies in the span."""
        v = self._reduce(self._in(v), coords)
        return self.field.unpack(v, self.ambient_dim) if self._packed else v

    def contains(self, v):
        return not any(self._reduce(self._in(v)))

    def coords(self, v):
        """Coordinates of v in the stored basis, or None."""
        out = []
        return None if any(self._reduce(self._in(v), out)) else out

    def coords_matrix(self, images):
        """The matrix whose column j holds the coordinates of ``images[j]``
        in the stored basis; ValueError if an image leaves the span."""
        cols = []
        for v in images:
            x = self.coords(v)
            if x is None:
                raise ValueError("image outside the span of the basis")
            cols.append(x)
        return Matrix(self.field, [[x[i] for x in cols]
                                   for i in range(self.dim)], len(cols))

    def add_vector(self, v):
        """Insert v into the span; returns True if the dimension grew."""
        F, rows = self.field, self._rows
        v = self._reduce(self._in(v))
        if self._packed:
            lead = _support(v)
            c = (lead & -lead).bit_length() - 1
            entry, sub = F.packed_entry, F.packed_sub
        else:
            c = next((c for c, x in enumerate(v) if x), -1)
            entry, sub = getitem, F.row_sub
        if c < 0:
            return False
        a = F.inv(entry(v, c))
        v = sub([0] * F.degree, a, v) if self._packed else F.row_scale(a, v)
        # keep basis reduced
        for k, row in rows.items():
            f = entry(row, c)
            if f:
                rows[k] = sub(row, f, v)
        rows[c] = v
        insort(self.pivots, c)
        self._mask |= 1 << c
        return True

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.field is other.field
                and self.ambient_dim == other.ambient_dim
                and self._rows == other._rows)

    def __repr__(self):
        return (f"Subspace(dim {self.dim} of "
                f"{self.field.label()}^{self.ambient_dim})")


def _support(planes):
    """The nonzero columns of a packed row, as the set bits of an int."""
    out = 0
    for p in planes:
        out |= p
    return out


def coords_in_basis(field, rows, images):
    """The matrix whose column j holds the coordinates of ``images[j]`` in
    the independent ``rows``; ValueError if an image leaves their span.

    The images are reduced against the echelon basis of one ``Subspace``;
    when ``rows`` is not that basis, a k x k change of basis follows."""
    rows = [list(r) for r in rows]
    sp = Subspace(field, len(rows[0]) if rows else 0, rows)
    X = sp.coords_matrix(images)
    if sp.basis == rows:
        return X
    # coords_matrix(rows) maps coordinates in ``rows`` to echelon ones
    return sp.coords_matrix(rows).inverse() * X


def span_from_spins(field, ambient_dim, seeds, operators):
    """Smallest subspace containing ``seeds`` stable under ``operators``
    (matrices acting on column vectors)."""
    sp = Subspace(field, ambient_dim)
    queue = [list(v) for v in seeds]
    while queue:
        v = queue.pop()
        if sp.add_vector(v):
            for op in operators:
                queue.append(op.apply_to_vector(v))
    return sp
