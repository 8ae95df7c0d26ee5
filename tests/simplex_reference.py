"""Reference simplex for the differential tests.

A tiny dense simplex (Bland's rule, fractions throughout) that decides
whether a point is a nonnegative, respectively strictly positive,
combination of given generators, and whether a weight set lies in some
strictly convex cone.  The package answers these questions without linear
programming (wall cells and positive circuits); the tests compare its
answers with this independent one.
"""

from __future__ import annotations

from fractions import Fraction


def _pivot(tableau, basis, row, col):
    inv = 1 / tableau[row][col]
    tableau[row] = [x * inv for x in tableau[row]]
    for r in range(len(tableau)):
        if r != row and tableau[r][col]:
            f = tableau[r][col]
            tableau[r] = [a - f * b for a, b in zip(tableau[r], tableau[row])]
    basis[row] = col


def _optimize(tableau, basis, cost, ncols):
    """Run simplex iterations (minimization, Bland's rule); return value."""
    while True:
        entering = None
        for j in range(ncols):
            rc = cost[j] - sum(cost[basis[r]] * tableau[r][j] for r in range(len(tableau)))
            if rc < 0:
                entering = j
                break
        if entering is None:
            break
        leaving, best = None, None
        for r in range(len(tableau)):
            if tableau[r][entering] > 0:
                ratio = tableau[r][-1] / tableau[r][entering]
                if best is None or ratio < best or (ratio == best and basis[r] < basis[leaving]):
                    leaving, best = r, ratio
        if leaving is None:
            raise ArithmeticError("unbounded linear program")
        _pivot(tableau, basis, leaving, entering)
    return sum(cost[basis[r]] * tableau[r][-1] for r in range(len(tableau)))


def solve_lp(rows, rhs, cost):
    """Minimize cost.x subject to rows.x == rhs, x >= 0.

    Returns (value, x) or None when infeasible.
    """
    m = len(rows)
    n = len(cost)
    a = [[Fraction(v) for v in row] for row in rows]
    b = [Fraction(v) for v in rhs]
    for i in range(m):
        if b[i] < 0:
            a[i] = [-x for x in a[i]]
            b[i] = -b[i]
    tableau = [a[i] + [Fraction(1 if j == i else 0) for j in range(m)] + [b[i]] for i in range(m)]
    basis = list(range(n, n + m))
    phase1 = [Fraction(0)] * n + [Fraction(1)] * m
    if _optimize(tableau, basis, phase1, n + m) > 0:
        return None
    # remove artificial variables from the basis, dropping redundant rows
    keep = []
    for r in range(m):
        if basis[r] >= n:
            piv = next((j for j in range(n) if tableau[r][j]), None)
            if piv is None:
                continue
            _pivot(tableau, basis, r, piv)
        keep.append(r)
    tableau = [tableau[r][:n] + [tableau[r][-1]] for r in keep]
    basis = [basis[r] for r in keep]
    value = _optimize(tableau, basis, [Fraction(c) for c in cost], n)
    x = [Fraction(0)] * n
    for r, var in enumerate(basis):
        x[var] = tableau[r][-1]
    return value, x


def feasible(rows, rhs) -> bool:
    """Does rows.x == rhs admit a solution with x >= 0?"""
    if not rows:
        return True
    return solve_lp(rows, rhs, [Fraction(0)] * len(rows[0])) is not None


def cone_contains(generators, point, strict: bool) -> bool:
    """Is ``point`` a positive (strict) or nonnegative combination of generators?

    The empty generator list spans only the origin.  Decided exactly.
    """
    point = [Fraction(x) for x in point]
    generators = [[Fraction(x) for x in g] for g in generators]
    for g in generators:
        if len(g) != len(point):
            raise ValueError("dimension mismatch between generators and point")
    if not generators:
        return not any(point)
    dim, k = len(point), len(generators)
    if dim == 0:
        return True  # zero-dimensional ambient space: everything is the origin
    cols = list(zip(*generators))  # dim x k
    if not strict:
        rows = [list(cols[i]) for i in range(dim)]
        return feasible(rows, point)
    # a_i = b_i + t with b >= 0, maximize t subject to t + slack == 1
    gsum = [sum(col) for col in cols]
    rows = [list(cols[i]) + [gsum[i], Fraction(0)] for i in range(dim)]
    rows.append([Fraction(0)] * k + [Fraction(1), Fraction(1)])
    rhs = point + [Fraction(1)]
    cost = [Fraction(0)] * k + [Fraction(-1), Fraction(0)]  # maximize t
    res = solve_lp(rows, rhs, cost)
    return res is not None and -res[0] > 0


def weights_convex(weights) -> bool:
    """True when no nonnegative combination with a positive coefficient of
    the weights vanishes."""
    weights = [[Fraction(x) for x in w] for w in weights]
    if not weights:
        return True
    dim = len(weights[0])
    if dim == 0:
        return False  # any weight is the zero character
    cols = list(zip(*weights))
    rows = [list(cols[i]) for i in range(dim)]
    rows.append([Fraction(1)] * len(weights))
    rhs = [Fraction(0)] * dim + [Fraction(1)]
    return not feasible(rows, rhs)
