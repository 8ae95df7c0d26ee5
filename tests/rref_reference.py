"""Reference Gauss-Jordan elimination for the differential tests.

The package's elimination kernel before it went fraction-free: every entry
becomes a ``Fraction`` and each pivot row is divided by its pivot.  The
reduced row echelon form is unique, so ``intlinalg.rref`` must return the
same pivots and pivot rows; the tests compare the two.
"""

from __future__ import annotations

from fractions import Fraction


def rref(rows, ncols):
    """Gauss-Jordan elimination over the rationals on the first ``ncols`` columns.

    Returns ``(rows, pivots)``: the rows in reduced row echelon form on
    those columns (entries past ``ncols`` ride along as augmented columns)
    and the pivot column of each leading row; the rows past ``len(pivots)``
    vanish on the first ``ncols`` columns.
    """
    a = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for col in range(ncols):
        row = len(pivots)
        sel = next((r for r in range(row, len(a)) if a[r][col]), None)
        if sel is None:
            continue
        a[row], a[sel] = a[sel], a[row]
        inv = 1 / a[row][col]
        a[row] = [x * inv for x in a[row]]
        for r in range(len(a)):
            if r != row and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[row])]
        pivots.append(col)
    return a, pivots
