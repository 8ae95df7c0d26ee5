"""Exact integer and rational linear algebra.

Matrices are small and dense, and every entry is a Python int or a
fractions.Fraction, so there is no overflow and no rounding anywhere.
Every rational question (solve, rank, inverse, kernel, determinant) is
answered by the one fraction-free kernel ``_eliminate``, which runs in
``int``; ``Fraction`` appears only in the answers.  The Smith normal form
keeps its own integer-unimodular elimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix with arbitrary-precision entries."""

    entries: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_rows(rows) -> "IntMatrix":
        rows = tuple(tuple(int(x) for x in row) for row in rows)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged rows")
        return IntMatrix(rows)

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def __getitem__(self, ij):
        return self.entries[ij[0]][ij[1]]

    def transpose(self) -> "IntMatrix":
        return IntMatrix(tuple(zip(*self.entries))) if self.entries else self

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        bt = other.transpose().entries
        return IntMatrix(
            tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in bt) for row in self.entries)
        )

    def det(self) -> int:
        """(-1)^swaps times the last pivot of ``_eliminate``, the determinant
        of the row-permuted matrix; 0 when a column has no pivot."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        _, pivots, last, sign = _eliminate(self.entries, self.cols)
        return sign * last if len(pivots) == self.cols else 0

    def is_unimodular(self) -> bool:
        return self.rows == self.cols and abs(self.det()) == 1


def smith_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return unimodular U, V and diagonal S with U @ m @ V == S.

    The diagonal entries are nonnegative and each divides the next.
    """
    a = [list(row) for row in m.entries]
    nr, nc = m.rows, m.cols
    u = [[1 if i == j else 0 for j in range(nr)] for i in range(nr)]
    v = [[1 if i == j else 0 for j in range(nc)] for i in range(nc)]

    def row_op(i, j, c):  # row_i -= c*row_j
        a[i] = [x - c * y for x, y in zip(a[i], a[j])]
        u[i] = [x - c * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, c):  # col_i -= c*col_j
        for row in a:
            row[i] -= c * row[j]
        for row in v:
            row[i] -= c * row[j]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    t = 0
    while t < min(nr, nc):
        # locate a pivot of minimal absolute value in the remaining block
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                if a[i][j] and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        reduced = False
        for i in range(t + 1, nr):
            q = a[i][t] // a[t][t]
            if q:
                row_op(i, t, q)
            if a[i][t]:
                reduced = True
        for j in range(t + 1, nc):
            q = a[t][j] // a[t][t]
            if q:
                col_op(j, t, q)
            if a[t][j]:
                reduced = True
        if reduced:
            continue  # smaller remainders appeared; pick a new pivot
        # pivot must divide everything below-right; otherwise mix a row in
        bad = next(
            ((i, j) for i in range(t + 1, nr) for j in range(t + 1, nc) if a[i][j] % a[t][t]),
            None,
        )
        if bad is not None:
            row_op(t, bad[0], -1)
            continue
        t += 1

    for i in range(min(nr, nc)):
        if a[i][i] < 0:
            a[i] = [-x for x in a[i]]
            u[i] = [-x for x in u[i]]
    return IntMatrix.from_rows(u), IntMatrix.from_rows(a), IntMatrix.from_rows(v)


def _eliminate(rows, ncols):
    """Fraction-free (Bareiss) Gauss-Jordan elimination on the first ``ncols``
    columns: each row is cleared by the lcm of its denominators, and for the
    pivot p at (k, col), prev the pivot before it (1 at the start), every
    other row becomes (p*row - row[col]*pivot_row) // prev, an exact division
    since each entry is an integer minor (Sylvester's identity).  Returns the
    integer rows, the pivot columns, the last pivot, which every pivot row
    carries at its pivot column, and (-1)^swaps.
    """
    a = []
    for row in rows:
        den = lcm(*[x.denominator for x in row])
        a.append([x.numerator * (den // x.denominator) for x in row])
    pivots = []
    prev = sign = 1
    for col in range(ncols):
        k = len(pivots)
        sel = next((r for r in range(k, len(a)) if a[r][col]), None)
        if sel is None:
            continue
        if sel != k:
            a[k], a[sel] = a[sel], a[k]
            sign = -sign
        pivot_row = a[k]
        p = pivot_row[col]
        for r, row in enumerate(a):
            if r != k:
                f = row[col]
                a[r] = [(p * x - f * y) // prev for x, y in zip(row, pivot_row)]
        pivots.append(col)
        prev = p
    return a, pivots, prev, sign


def rref(rows, ncols):
    """``(rows, pivots)``: the reduced row echelon form over the rationals on
    the first ``ncols`` columns, later columns riding along as augmented
    ones, and the pivot column of each leading row.  The rows past
    ``len(pivots)`` vanish on the first ``ncols`` columns."""
    a, pivots, last, _ = _eliminate(rows, ncols)
    return [[Fraction(x, last) for x in row] for row in a], pivots


def rational_solve(a_columns, b):
    """Solve sum_j x_j * a_columns[j] == b exactly; None when inconsistent.

    ``a_columns`` is a sequence of columns (each a vector), matching the
    use of expressing one character in terms of a basis of others.  Free
    coordinates are left at 0.
    """
    ncols = len(a_columns)
    if any(len(c) != len(b) for c in a_columns):
        raise ValueError("dimension mismatch")
    a, pivots, last, _ = _eliminate([[c[i] for c in a_columns] + [b[i]] for i in range(len(b))], ncols)
    if any(row[ncols] for row in a[len(pivots):]):
        return None
    x = [Fraction(0)] * ncols
    for row, col in zip(a, pivots):
        x[col] = Fraction(row[ncols], last)
    return x


def rational_rank(vectors) -> int:
    vectors = list(vectors)
    return len(_eliminate(vectors, len(vectors[0]))[1]) if vectors else 0


def rational_inverse(rows):
    """Inverse of a square rational matrix as a list of row lists."""
    n = len(rows)
    reduced, pivots = rref([list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)], n)
    if len(pivots) < n:
        raise ValueError("matrix is singular")
    return [row[n:] for row in reduced]


def kernel_basis(rows, ncols):
    """A basis of {x in Q^ncols : row . x == 0 for every row}, one vector per
    free column (1 there, 0 at the other free columns)."""
    reduced, pivots, last, _ = _eliminate(rows, ncols)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for row, col in zip(reduced, pivots):
            vec[col] = Fraction(-row[free], last)
        basis.append(vec)
    return basis


def primitive_integer_vector(v) -> tuple[int, ...]:
    """Scale a rational vector to a primitive integer vector (gcd 1)."""
    v = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in v]
    if not any(v):
        raise ValueError("zero vector has no primitive form")
    den = lcm(*[x.denominator for x in v])
    ints = [x.numerator * (den // x.denominator) for x in v]
    g = gcd(*ints)
    return tuple(x // g for x in ints)


def oriented_primitive_vector(v) -> tuple[int, ...]:
    """The primitive integer vector on the line of v whose first nonzero
    entry is positive."""
    f = primitive_integer_vector(v)
    return f if next(x for x in f if x) > 0 else tuple(-x for x in f)


def primitive_form(v) -> tuple[Fraction, tuple[int, ...]]:
    """v as s * f with f = oriented_primitive_vector(v) and s a nonzero rational."""
    f = oriented_primitive_vector(v)
    return next(Fraction(a, b) for a, b in zip(v, f) if b), f
