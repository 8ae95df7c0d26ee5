"""Exact integer and rational linear algebra.

Matrices are small and dense; everything runs over Python ints and
fractions.Fraction, so there is no overflow and no rounding anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd


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
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        d = rational_det([[Fraction(x) for x in row] for row in self.entries])
        if d.denominator != 1:
            raise AssertionError("determinant of an integer matrix must be an integer")
        return d.numerator

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


def rational_det(rows: list[list[Fraction]]) -> Fraction:
    n = len(rows)
    a = [list(map(Fraction, r)) for r in rows]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            if a[r][col]:
                f = a[r][col] * inv
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return det


def rational_solve(a_columns, b):
    """Solve sum_j x_j * a_columns[j] == b exactly; None when inconsistent.

    ``a_columns`` is a sequence of columns (each a vector), matching the
    use of expressing one character in terms of a basis of others.
    """
    cols = [list(map(Fraction, c)) for c in a_columns]
    b = list(map(Fraction, b))
    nrows = len(b)
    if any(len(c) != nrows for c in cols):
        raise ValueError("dimension mismatch")
    ncols = len(cols)
    aug = [[cols[j][i] for j in range(ncols)] + [b[i]] for i in range(nrows)]
    pivots = []
    row = 0
    for col in range(ncols):
        sel = next((r for r in range(row, nrows) if aug[r][col]), None)
        if sel is None:
            continue
        aug[row], aug[sel] = aug[sel], aug[row]
        inv = 1 / aug[row][col]
        aug[row] = [x * inv for x in aug[row]]
        for r in range(nrows):
            if r != row and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[row])]
        pivots.append(col)
        row += 1
    for r in range(row, nrows):
        if aug[r][ncols]:
            return None
    x = [Fraction(0)] * ncols
    for r, col in enumerate(pivots):
        x[col] = aug[r][ncols]
    return x


def rational_rank(vectors) -> int:
    rows = [list(map(Fraction, v)) for v in vectors]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        sel = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if sel is None:
            continue
        rows[rank], rows[sel] = rows[sel], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def rational_inverse(rows):
    """Inverse of a square rational matrix as a list of row lists."""
    n = len(rows)
    aug = [[Fraction(x) for x in rows[i]] + [Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for col in range(n):
        sel = next((r for r in range(col, n) if aug[r][col]), None)
        if sel is None:
            raise ValueError("matrix is singular")
        aug[col], aug[sel] = aug[sel], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def nullspace_vector(vectors):
    """A nonzero rational vector orthogonal to all given vectors, or None."""
    vecs = [list(map(Fraction, v)) for v in vectors]
    if not vecs:
        raise ValueError("ambient dimension unknown for empty input")
    dim = len(vecs[0])
    rows = [list(v) for v in vecs]
    rank = 0
    pivots = []
    for col in range(dim):
        sel = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if sel is None:
            continue
        rows[rank], rows[sel] = rows[sel], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        pivots.append(col)
        rank += 1
    free = [c for c in range(dim) if c not in pivots]
    if not free:
        return None
    col = free[0]
    vec = [Fraction(0)] * dim
    vec[col] = Fraction(1)
    for r, pc in enumerate(pivots):
        vec[pc] = -rows[r][col]
    return vec


def primitive_integer_vector(v) -> tuple[int, ...]:
    """Scale a rational vector to a primitive integer vector (gcd 1)."""
    v = [Fraction(x) for x in v]
    if not any(v):
        raise ValueError("zero vector has no primitive form")
    denom = 1
    for x in v:
        denom = denom * x.denominator // gcd(denom, x.denominator)
    ints = [int(x * denom) for x in v]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    return tuple(x // g for x in ints)
