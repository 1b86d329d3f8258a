"""Dense exact matrices over a Field, stored as lists of row lists.

Everything here is exact: no floats anywhere.  Each job has one kernel.
``Matrix.apply_to_vector`` is the one product: ``A * B`` applies the
columns of B to each row of A, listed by ``column_pairs`` as (row, entry)
pairs in one pass over B's rows (or over their listed nonzero pairs), so
no transpose is built.  It reads the nonzero (column, entry) pairs of
each row, listed on the first product and kept, as a ``Matrix`` never
changes once built; over Q it starts each sum at ``F.zero``, so Q
products hold ``Fraction``s.  ``ColumnImages`` is a map known only by
each basis vector's sparse image, as ``schurfun`` builds its generators
(over Q with int coefficients where it can; sums start at ``F.zero``).
``+``, ``-``, unary ``-`` and ``scale`` are the field's row operations
``Field.row_sub`` (v - f*row) and ``Field.row_scale``.  ``kron`` writes
the products of its factors' nonzero pairs, and keeps them as its own.
Only the two ``apply_to_vector``s, ``Subspace`` and JSON branch on the
field kind.

``Subspace`` is the one place that eliminates, and ``Matrix.rref`` reads
its basis.  Every vector goes through ``Subspace.add_vector``: reduction
against the basis, then back-reduction of the basis, one loop for three
row forms.  Over a finite field a row is a list of labels and a step is
``Field.row_sub``; in characteristic 2, rows of 8e or more entries are
packed bit planes (``fields``) and a step is a few XORs: the loop reads
the pivot entry f from the planes' bits and XORs the planes that
``Field._plane_maps[f]`` names, with no call per step or per stored row.
Over Q a row is the primitive int multiple of its RREF row, pivot entry
positive, and a step is lead*v - f*row over its gcd (fraction-free, as in
Bareiss, Math. Comp. 22, 1968); ``basis`` divides by the pivot entries.
An RREF row is zero at every other pivot, so a step keeps (over Q, up to
a positive scale) a vector's entries at the other pivots: a vector in
the span has its coordinates there, and the packed loop visits only its
nonzero ones.

``Subspace.coords_matrix`` is the one way to write vectors in a basis;
``coords_in_basis`` puts it behind any independent rows.  Every
restriction of an action to a submodule goes through them: Specht modules
and ``modtools.restrict_to_submodule`` given rows through the latter, and
the restriction given a ``Subspace`` and the intermediate extension's
functor action straight against the ``Subspace``; over Q the former
stays in ints on the primitive rows (``Subspace.action_matrix``).
"""

import re
from bisect import insort
from fractions import Fraction
from math import gcd, lcm
from operator import add as _add, mul as _mul

from .fields import Field, QQ


class Matrix:
    """Never changed once built (products keep its nonzero entries)."""
    __slots__ = ("field", "rows", "nrows", "ncols", "_nonzero")

    def __init__(self, field, rows, ncols=None):
        """``ncols`` is read from the rows when there are any; a matrix
        with no rows needs it to know its width."""
        self.field = field
        self.rows = [list(r) for r in rows]
        self._nonzero = None  # each row's (column, entry) pairs, entry != 0
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
        # B's column pairs are the nonzero pairs of the rows of B^t
        cols = Matrix.__new__(Matrix)
        cols.field, cols._nonzero = self.field, other.column_pairs()
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
        rows = self._pairs()
        if F.kind == "rational":
            nz = {j for j, b in enumerate(v) if b}
            return [sum([a * v[j] for j, a in row if j in nz], F.zero)
                    for row in rows]
        if F.kind == "prime":
            p = F.char
            return [sum([a * v[j] for j, a in row]) % p for row in rows]
        add, mul, z = F.add, F.mul, F.zero
        out = []
        for row in rows:
            acc = z
            for j, a in row:
                if v[j]:
                    acc = add(acc, mul(a, v[j]))
            out.append(acc)
        return out

    def _pairs(self):
        """Each row's nonzero (column, entry) pairs, listed once and kept."""
        if self._nonzero is None:
            self._nonzero = [[(j, a) for j, a in enumerate(row) if a]
                             for row in self.rows]
        return self._nonzero

    def column_pairs(self):
        """Each column's nonzero (row, entry) pairs, in one pass over the
        rows, or over their nonzero pairs once those are listed."""
        cols = [[] for _ in range(self.ncols)]
        if self._nonzero is None:
            for i, row in enumerate(self.rows):
                for j, a in enumerate(row):
                    if a:
                        cols[j].append((i, a))
        else:
            for i, row in enumerate(self._nonzero):
                for j, a in row:
                    cols[j].append((i, a))
        return cols

    def kron(self, other):
        """Kronecker product; basis of the product space is ordered
        lexicographically: index (i, k) -> i * other.n + k.  It writes the
        products of the factors' nonzero pairs, which are its own."""
        F, m = self.field, other.ncols
        mul, rbs = F.mul, other._pairs()
        pairs = [[(j * m + k, mul(a, b)) for j, a in ra for k, b in rb]
                 for ra in self._pairs() for rb in rbs]
        out = Matrix.zero(F, len(pairs), self.ncols * m)
        for row, nz in zip(out.rows, pairs):
            for j, x in nz:
                row[j] = x
        out._nonzero = pairs
        return out

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
        """Rows spanning {v : A v = 0}, in RREF of the kernel, read off
        the rows' ``Subspace`` (``rref`` would pad it with zero rows)."""
        n = self.ncols
        F = self.field
        sp = Subspace(F, n, self.rows)
        R, piv = sp.basis, sp.pivots
        pivset = set(piv)
        free = [j for j in range(n) if j not in pivset]
        basis = []
        for j in free:
            v = [F.zero] * n
            v[j] = F.one
            for i, pc in enumerate(piv):
                v[pc] = F.neg(R[i][j])
            basis.append(v)
        return Matrix(F, basis, n).rref()[0]

    def is_invertible(self):
        return self.nrows == self.ncols and self.rank() == self.nrows

    def inverse(self):
        n = self.nrows
        if n != self.ncols:
            raise ValueError("inverse of non-square matrix")
        F = self.field
        aug = Matrix(F, [row + e for row, e in
                         zip(self.rows, Matrix.identity(F, n).rows)])
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


class ColumnImages:
    """A linear map of K^n known by each basis vector's image: ``cols[j]``
    lists the (row, coefficient) pairs of column j."""

    def __init__(self, field, cols):
        self.field, self.cols = field, cols
        self.nrows = self.ncols = len(cols)

    def column_pairs(self):
        return self.cols

    def apply_to_vector(self, v):
        F = self.field
        add, mul = (F.add, F.mul) if F.kind == "galois" else (_add, _mul)
        out = [F.zero] * self.nrows  # sums from F.zero: Q stays Fraction
        for b, col in zip(v, self.cols):
            if b:
                for i, c in col:
                    out[i] = add(out[i], mul(c, b))
        return [x % F.char for x in out] if F.kind == "prime" else out


# -- subspaces -----------------------------------------------------------

class Subspace:
    """A subspace of F^n held as an RREF row basis, one row per pivot, in
    the row form of the module docstring, built by inserting each vector
    with ``add_vector``.  ``basis`` holds field elements: over a finite
    field ints in ``range(field.order)``, over Q ``Fraction``s."""

    def __init__(self, field, ambient_dim, vectors=()):
        self.field = field
        self.ambient_dim = ambient_dim
        self.pivots = []
        self._rows = {}  # pivot -> basis row, in the row form
        self._mask = 0   # the pivots, as the bits of an int
        # on narrower rows, packing and unpacking cost more than the XORs
        # save (timeit on random k x n matrices over F_2, F_4 and F_8)
        self._packed = field.packed and ambient_dim >= 8 * field.degree
        self._int = field.kind == "rational"
        # v - f*row on list rows (up to a positive scale over Q)
        self._sub = _int_sub if self._int else field.row_sub
        for v in vectors:
            self.add_vector(v)

    @property
    def basis(self):
        rows = [self._rows[c] for c in self.pivots]
        if self._packed:
            return [self.field.unpack(r, self.ambient_dim) for r in rows]
        if self._int:
            return [[Fraction(x, r[c]) for x in r]
                    for c, r in zip(self.pivots, rows)]
        return rows

    @property
    def dim(self):
        return len(self.pivots)

    def _in(self, v):
        if self._packed:
            return self.field.pack(v)
        if not self._int:
            return list(v)
        # times the lcm of the denominators (ints have them too)
        dens = [x.denominator for x in v]
        d = lcm(*dens)
        if d == 1:
            return [x.numerator for x in v]
        return [x.numerator * (d // e) for x, e in zip(v, dens)]

    def _reduce(self, v):
        """``reduce`` on v in ``_in`` form (over Q, up to a positive scale)."""
        rows, sub = self._rows, self._sub
        if not self._packed:
            for c in self.pivots:
                f = v[c]
                if f:
                    v = sub(v, f, rows[c])
            return v
        # visit the pivots where v is nonzero (module docstring), in place
        maps = self.field._plane_maps
        hits = _support(v) & self._mask
        while hits:
            bit = hits & -hits
            f = 0
            for p in reversed(v):
                f = f << 1 | (p & bit != 0)
            row = rows[bit.bit_length() - 1]
            for k, i in maps[f]:
                v[k] ^= row[i]
            hits ^= bit
        return v

    def reduce(self, v):
        """v minus f*row for each RREF basis row, f the entry of v at that
        row's pivot.  What is left is zero exactly when v lies in the
        span."""
        w = self._reduce(self._in(v))
        if self._packed:
            return self.field.unpack(w, self.ambient_dim)
        if not self._int:
            return w
        # w is a positive multiple of the remainder v - sum v[c]*(RREF row
        # c), whose entry at w's first nonzero column fixes the scale
        j = next((j for j, x in enumerate(w) if x), None)
        if j is None:
            return [self.field.zero] * len(w)
        rows = self._rows
        r = v[j] - sum(Fraction(v[c] * rows[c][j], rows[c][c])
                       for c in self.pivots)
        s = Fraction(r, w[j])
        return [s * x for x in w]

    def contains(self, v):
        return not any(self._reduce(self._in(v)))

    def coords(self, v):
        """Coordinates of v in the stored basis, or None: its entries at
        the pivots (module docstring)."""
        return [v[c] for c in self.pivots] if self.contains(v) else None

    def coords_matrix(self, images):
        """The matrix whose column j holds the coordinates of ``images[j]``
        in the stored basis; ValueError if an image leaves the span."""
        cols = [self.coords(v) for v in images]
        if None in cols:
            raise ValueError("image outside the span of the basis")
        return Matrix(self.field, [[x[i] for x in cols]
                                   for i in range(self.dim)], len(cols))

    def action_matrix(self, g):
        """Over Q, the matrix of g (a ``Matrix`` or ``ColumnImages``) on the
        span in the stored basis; ValueError if an image leaves it.  It
        works in ints: D*g, D the lcm of g's denominators, on the primitive
        row of pivot entry L is D*L times the image of the basis row."""
        if not self._int:
            raise ValueError("action_matrix reads the int rows of Q")
        cols = g.column_pairs()
        D = lcm(*[c.denominator for col in cols for _, c in col])
        cols = [[(i, c.numerator * (D // c.denominator)) for i, c in col]
                for col in cols]
        z, out = self.field.zero, []
        for c in self.pivots:
            w = [0] * self.ambient_dim
            for x, col in zip(self._rows[c], cols):
                if x:
                    for i, a in col:
                        w[i] += a * x
            if any(self._reduce(w)):
                raise ValueError("image outside the span of the basis")
            den = D * self._rows[c][c]
            out.append([Fraction(w[p], den) if w[p] else z
                        for p in self.pivots])
        return Matrix(self.field, zip(*out), len(out))

    def add_vector(self, v):
        """Insert v into the span; returns True if the dimension grew."""
        F, rows, sub = self.field, self._rows, self._sub
        v = self._reduce(self._in(v))
        if self._packed:
            lead = _support(v)
            c = (lead & -lead).bit_length() - 1
        else:
            c = next((c for c, x in enumerate(v) if x), -1)
        if c < 0:
            return False
        if not self._packed:
            v = (_primitive(v, 1 if v[c] > 0 else -1) if self._int
                 else F.row_scale(F.inv(v[c]), v))
            # keep basis reduced
            for k, row in rows.items():
                f = row[c]
                if f:
                    rows[k] = sub(row, f, v)
        else:
            maps, bit = F._plane_maps, 1 << c
            planes, v = v, [0] * F.degree
            for k, i in maps[F.inv(F.packed_entry(planes, c))]:
                v[k] ^= planes[i]
            # keep basis reduced, XORing the stored rows in place
            for row in rows.values():
                f = 0
                for p in reversed(row):
                    f = f << 1 | (p & bit != 0)
                for k, i in maps[f]:
                    row[k] ^= v[i]
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


def _primitive(v, sign=1):
    """The int row v over the gcd of its entries, times ``sign``."""
    g = gcd(*v) * sign
    return v if g in (0, 1) else [x // g for x in v]


def _int_sub(v, f, row):
    """lead*v - f*row over its gcd, where lead is the first nonzero entry
    of the int row: v - (f/lead)*row up to a positive scale when lead is
    positive, as it is in a basis row."""
    lead = next(filter(None, row))
    return _primitive([lead * a - f * b for a, b in zip(v, row)])


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
