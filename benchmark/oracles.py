"""Checks made apart from the program.

This module imports nothing from torickit.  The workloads convert each
result to plain data (dicts of exponent tuples to Fractions, lists of
integer weights) and the functions here decide it by independent means:
a lattice-point count of sections, a t-expansion of the section
character, the Bernoulli closed form on the diagonal affine plane,
evaluation of rational characters at rational points, and the
simplicial description of anticones.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, factorial, lcm

# -- polynomials: dict exponent-tuple -> Fraction --------------------------


def poly_mul(a: dict, b: dict) -> dict:
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def poly_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


# -- sections of line bundles on compact quotients ---------------------------


def section_count(weights, u) -> dict:
    """Character of the sections of weight u: one monomial e^{a.lambda} per
    lattice point a >= 0 with sum_i a_i D_i = u.  Needs every character to
    be nonnegative and nonzero, so the points are finite in number."""
    m, r = len(weights), len(u)
    if any(x < 0 for w in weights for x in w) or any(not any(w) for w in weights):
        raise ValueError("section count needs nonnegative, nonzero characters")
    out = {}

    def walk(i, rest, point):
        if i == m:
            if not any(rest):
                out[tuple(point)] = Fraction(1)
            return
        w = weights[i]
        a = 0
        while all(rest[k] >= a * w[k] for k in range(r)):
            walk(i + 1, [rest[k] - a * w[k] for k in range(r)], point + [a])
            a += 1

    walk(0, list(u), [])
    return out


def same_laurent(program: dict, expected: dict) -> bool:
    """Equality of Laurent polynomials given as exponent -> coefficient."""
    keys = set(program) | set(expected)
    return all(Fraction(program.get(k, 0)) == Fraction(expected.get(k, 0)) for k in keys)


# -- graded expansions ---------------------------------------------------------


def expansion_of_character(character: dict, nvars: int, order: int) -> dict:
    """Degree-n pieces of sum_a c_a e^{t a.lambda}: sum_a c_a (a.lambda)^n / n!,
    as polynomials in lambda, for 0 <= n <= order."""
    out = {}
    for n in range(order + 1):
        piece = {}
        for a, c in character.items():
            linear = {}
            for i, x in enumerate(a):
                if x:
                    e = [0] * nvars
                    e[i] = 1
                    linear[tuple(e)] = Fraction(x)
            power = {(0,) * nvars: Fraction(1)}
            for _ in range(n):
                power = poly_mul(power, linear)
            piece = poly_add(piece, {e: v * c / factorial(n) for e, v in power.items()})
        out[n] = (piece, {(0,) * nvars: Fraction(1)})
    return out


def bernoulli_numbers(count: int) -> list[Fraction]:
    """B_0..B_{count-1} with B_1 = -1/2, from sum_k C(n+1, k) B_k = 0."""
    b = []
    for n in range(count):
        if n == 0:
            b.append(Fraction(1))
        else:
            b.append(-sum(comb(n + 1, k) * b[k] for k in range(n)) / (n + 1))
    return b


def double_pole_expansion(order: int, b1=Fraction(-1, 2)) -> dict:
    """Pieces of 1/(1 - e^{t lambda})^2 = (1/x^2) (sum_n B_n x^n / n!)^2 with
    x = t lambda, degrees -2..order, in one variable.  ``b1`` replaces B_1
    for the negative control."""
    b = bernoulli_numbers(order + 3)
    b[1] = Fraction(b1)
    out = {}
    for n in range(-2, order + 1):
        c = sum(b[i] * b[n + 2 - i] / (factorial(i) * factorial(n + 2 - i)) for i in range(n + 3))
        if n >= 0:
            out[n] = ({(n,): c} if c else {}, {(0,): Fraction(1)})
        else:
            out[n] = ({(0,): c} if c else {}, {(-n,): Fraction(1)})
    return out


def series_matches(program: dict, expected: dict, nvars: int, order: int) -> bool:
    """Compare a graded series degree by degree, as rational functions.

    ``program`` and ``expected`` map degree -> (numerator, denominator);
    a missing degree is zero.  Every degree up to ``order`` is compared."""
    one = {(0,) * nvars: Fraction(1)}
    low = min(list(program) + list(expected) + [0])
    for n in range(low, order + 1):
        pn, pd = program.get(n, ({}, one))
        en, ed = expected.get(n, ({}, one))
        if poly_mul(pn, ed) != poly_mul(en, pd):
            return False
    return True


# -- rational characters at rational points --------------------------------------


def exponent_denominator(*characters) -> int:
    d = 1
    for terms in characters:
        for num, factors in terms:
            for q in num:
                for x in q:
                    d = lcm(d, Fraction(x).denominator)
            for _c, mu in factors:
                for x in mu:
                    d = lcm(d, Fraction(x).denominator)
    return d


def _monomial(q, y, d) -> Fraction:
    value = Fraction(1)
    for x, yi in zip(q, y):
        k = Fraction(x) * d
        value *= yi ** int(k)
    return value


def evaluate(terms, y, d):
    """Value of sum num / prod (1 - c e^{mu.lambda}) at e^{lambda_i / d} = y_i;
    None when a denominator vanishes there."""
    total = Fraction(0)
    for num, factors in terms:
        den = Fraction(1)
        for c, mu in factors:
            den *= 1 - Fraction(c) * _monomial(mu, y, d)
        if den == 0:
            return None
        total += sum(Fraction(c) * _monomial(q, y, d) for q, c in num.items()) / den
    return total


def points_agree(a, b, nvars: int, rng, count: int = 2) -> bool:
    """Evaluate two rational characters at ``count`` random rational points
    where neither has a vanishing denominator; True when all values agree."""
    d = exponent_denominator(a, b)
    done = 0
    for _ in range(100 * count):
        y = [Fraction(rng.randint(2, 9), rng.randint(2, 9)) for _ in range(nvars)]
        if any(v == 1 for v in y):
            continue
        va, vb = evaluate(a, y, d), evaluate(b, y, d)
        if va is None or vb is None:
            continue
        if va != vb:
            return False
        done += 1
        if done == count:
            return True
    raise ValueError("no rational point found away from the poles")


# -- anticones by the simplicial rule ------------------------------------------------


def _solve(columns, rhs):
    """Solve sum_j x_j columns[j] = rhs exactly; None if inconsistent or the
    columns are dependent."""
    n, k = len(rhs), len(columns)
    a = [[Fraction(columns[j][i]) for j in range(k)] + [Fraction(rhs[i])] for i in range(n)]
    row = 0
    for col in range(k):
        sel = next((r for r in range(row, n) if a[r][col]), None)
        if sel is None:
            return None
        a[row], a[sel] = a[sel], a[row]
        p = a[row][col]
        a[row] = [x / p for x in a[row]]
        for r in range(n):
            if r != row and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[row])]
        row += 1
    if any(a[r][k] for r in range(row, n)):
        return None
    return [a[i][k] for i in range(k)]


def on_wall(weights, omega) -> bool:
    """Is omega a nonnegative combination of fewer than r characters?  By
    Caratheodory it suffices to try linearly independent subsets."""
    r = len(omega)
    if not any(omega):
        return True
    for size in range(1, r):
        for combo in itertools.combinations(range(len(weights)), size):
            x = _solve([weights[i] for i in combo], omega)
            if x is not None and all(v >= 0 for v in x):
                return True
    return False


def simplicial_anticones(weights, omega) -> set:
    """For omega off every wall, I (1-based) is an anticone iff it contains an
    r-subset sigma with D_sigma invertible and D_sigma^{-1} omega > 0."""
    if on_wall(weights, omega):
        raise ValueError("the simplicial rule needs omega off every wall")
    m, r = len(weights), len(omega)
    cells = []
    for combo in itertools.combinations(range(1, m + 1), r):
        x = _solve([weights[i - 1] for i in combo], omega)
        if x is not None and all(v > 0 for v in x):
            cells.append(frozenset(combo))
    family = set()
    for size in range(m + 1):
        for combo in itertools.combinations(range(1, m + 1), size):
            s = frozenset(combo)
            if any(c <= s for c in cells):
                family.add(s)
    return family


def minimal_sets(family) -> set:
    return {s for s in family if not any(t < s for t in family)}


def upward_closed(family, m: int) -> bool:
    family = set(family)
    return all(s | {j} in family for s in family for j in range(1, m + 1))


def strictly_inside(normals, point) -> bool:
    return all(sum(Fraction(n) * Fraction(x) for n, x in zip(normal, point)) > 0 for normal in normals)


def eta_pair(weights, e) -> tuple[int, int]:
    """Window widths: the positive and minus the negative pairings with e."""
    pairings = [sum(a * b for a, b in zip(w, e)) for w in weights]
    return sum(p for p in pairings if p > 0), -sum(p for p in pairings if p < 0)
