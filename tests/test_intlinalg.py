import itertools
import random
from fractions import Fraction

import pytest

import rref_reference
from torickit.exactalg.intlinalg import (
    IntMatrix,
    kernel_basis,
    oriented_primitive_vector,
    primitive_form,
    primitive_integer_vector,
    rational_inverse,
    rational_rank,
    rational_solve,
    rref,
    smith_normal_form,
)


def check_snf(m: IntMatrix):
    u, s, v = smith_normal_form(m)
    assert u.is_unimodular()
    assert v.is_unimodular()
    assert (u @ m) @ v == s
    diag = [s[(i, i)] for i in range(min(s.rows, s.cols))]
    for i in range(s.rows):
        for j in range(s.cols):
            if i != j:
                assert s[(i, j)] == 0
    for a, b in zip(diag, diag[1:]):
        assert a >= 0 and b >= 0
        if a:
            assert b % a == 0
        else:
            assert b == 0
    return s


def test_snf_one_by_one():
    _, s, _ = smith_normal_form(IntMatrix.from_rows([[6]]))
    assert s.entries == ((6,),)


def test_snf_two_by_two_divisibility():
    s = check_snf(IntMatrix.from_rows([[2, 0], [0, 3]]))
    assert (s[(0, 0)], s[(1, 1)]) == (1, 6)


def test_snf_identity():
    _, s, _ = smith_normal_form(IntMatrix.identity(2))
    assert s == IntMatrix.identity(2)


def test_snf_random_matrices():
    rng = random.Random(7)
    for _ in range(100):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = IntMatrix.from_rows([[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)])
        s = check_snf(m)
        if rows == cols:
            prod = 1
            for i in range(rows):
                prod *= s[(i, i)]
            assert abs(prod) == abs(m.det())


def test_rational_solve_identity():
    assert rational_solve([(1, 0), (0, 1)], (3, 5)) == [3, 5]


def test_rational_solve_scalar_multiple():
    assert rational_solve([(1, 2)], (2, 4)) == [2]


def test_rational_solve_inconsistent():
    assert rational_solve([(1, 2)], (1, 0)) is None


def test_rational_solve_fractional():
    assert rational_solve([(2,)], (1,)) == [Fraction(1, 2)]


def test_rank_inverse_nullspace():
    assert rational_rank([(1, 2), (2, 4)]) == 1
    inv = rational_inverse([[1, 1], [0, 1]])
    assert inv == [[1, -1], [0, 1]]
    basis = kernel_basis([(1, 1, 0)], 3)
    assert len(basis) == 2 and all(sum(a * b for a, b in zip(n, (1, 1, 0))) == 0 for n in basis)
    assert kernel_basis([(1, 0), (0, 1)], 2) == []


def test_primitive_integer_vector():
    assert primitive_integer_vector((Fraction(1, 2), Fraction(3, 2))) == (1, 3)
    assert primitive_integer_vector((-4, 6)) == (-2, 3)
    with pytest.raises(ValueError):
        primitive_integer_vector((0, 0))


def test_rref_pivots_and_augmented_columns():
    rows, pivots = rref([[0, 2, 4, 1], [1, 1, 1, 0], [1, 3, 5, 1]], 3)
    assert pivots == [0, 1]
    assert rows == [[1, 0, -1, Fraction(-1, 2)], [0, 1, 2, Fraction(1, 2)], [0, 0, 0, 0]]
    assert rref([], 2) == ([], [])


def test_det_sign_and_singular():
    assert IntMatrix.from_rows([[0, 1], [1, 0]]).det() == -1
    assert IntMatrix.from_rows([[2, 1], [4, 2]]).det() == 0
    assert IntMatrix.from_rows([[0, 0, 3], [0, 2, 0], [5, 0, 0]]).det() == -30
    assert IntMatrix.from_rows([]).det() == 1


def test_det_matches_leibniz_formula():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(1, 4)
        a = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        expected = 0
        for perm in itertools.permutations(range(n)):
            inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
            term = (-1) ** inversions
            for i, j in enumerate(perm):
                term *= a[i][j]
            expected += term
        assert IntMatrix.from_rows(a).det() == expected


def test_kernel_basis_spans_the_kernel():
    rng = random.Random(3)
    for _ in range(50):
        ncols = rng.randint(1, 5)
        rows = [[rng.randint(-2, 2) for _ in range(ncols)] for _ in range(rng.randint(0, 4))]
        basis = kernel_basis(rows, ncols)
        assert len(basis) == ncols - rational_rank(rows)
        assert rational_rank(basis) == len(basis)
        for vec in basis:
            assert all(sum(a * x for a, x in zip(row, vec)) == 0 for row in rows)


def _random_rows(rng, kind):
    """A seeded draw of one kind: integer or mixed ``Fraction`` entries, with
    zero rows and columns, rank deficiency and augmented columns mixed in."""
    nrows, width = rng.randint(0, 5), rng.randint(0, 6)

    def entry():
        if rng.random() < 0.25:
            return 0
        if kind == "int" or rng.random() < 0.4:
            return rng.randint(-6, 6)
        return Fraction(rng.randint(-9, 9), rng.randint(1, 8))

    rows = [[entry() for _ in range(width)] for _ in range(nrows)]
    if nrows and rng.random() < 0.3:
        rows[rng.randrange(nrows)] = [0] * width
    if width and rng.random() < 0.3:
        j = rng.randrange(width)
        for row in rows:
            row[j] = 0
    if nrows >= 2 and rng.random() < 0.4:  # one row a combination of two others
        a, b = rng.randrange(nrows), rng.randrange(nrows)
        s, t = rng.randint(-3, 3), Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        rows[rng.randrange(nrows)] = [s * x + t * y for x, y in zip(rows[a], rows[b])]
    return rows, rng.randint(0, width)


def test_rref_matches_the_fraction_reference():
    # the reduced form is unique, so the pivots and pivot rows must be those
    # of the Fraction Gauss-Jordan reference; the trailing rows vanish on the
    # first ncols columns and keep the reference's zero pattern after them
    rng = random.Random(19)
    seen = dict.fromkeys(["empty", "augmented", "deficient", "inconsistent", "fraction"], 0)
    for draw in range(2400):
        rows, ncols = _random_rows(rng, "int" if draw % 2 else "mixed")
        got, pivots = rref(rows, ncols)
        expected, expected_pivots = rref_reference.rref(rows, ncols)
        assert pivots == expected_pivots, (rows, ncols)
        k = len(pivots)
        assert got[:k] == expected[:k], (rows, ncols)
        assert len(got) == len(expected)
        for row, ref in zip(got[k:], expected[k:]):
            assert not any(row[:ncols]), (rows, ncols)
            assert [bool(x) for x in row[ncols:]] == [bool(x) for x in ref[ncols:]], (rows, ncols)
        seen["empty"] += not rows or not rows[0]
        seen["augmented"] += bool(rows) and ncols < len(rows[0])
        seen["deficient"] += k < min(len(rows), ncols)
        seen["inconsistent"] += any(any(row[ncols:]) for row in expected[k:])
        seen["fraction"] += any(type(x) is Fraction and x.denominator > 1 for row in rows for x in row)
    assert min(seen.values()) >= 100, seen


def _fraction_arithmetic_raises(monkeypatch):
    def refuse(*args):
        raise AssertionError("Fraction arithmetic inside the elimination")

    for name in ("add", "sub", "mul", "truediv"):
        monkeypatch.setattr(Fraction, "__%s__" % name, refuse)
        monkeypatch.setattr(Fraction, "__r%s__" % name, refuse)


def test_elimination_runs_without_fraction_arithmetic(monkeypatch):
    # Fraction appears only in the answers: every kernel call gives the
    # reference's values with Fraction's arithmetic operators disabled
    half, third = Fraction(1, 2), Fraction(-1, 3)
    systems = [
        ([[0, 2, 4, 1], [1, 1, 1, 0], [1, 3, 5, 1]], 3),
        ([[half, 1, third, 2], [third, half, 0, 1], [1, 2, 2 * third, 4]], 3),
    ]
    expected_rref = [rref_reference.rref(rows, ncols) for rows, ncols in systems]
    x = Fraction(7, 3)
    _fraction_arithmetic_raises(monkeypatch)
    assert [rref(rows, ncols) for rows, ncols in systems] == expected_rref
    assert rational_solve([(1, 2), (2, 1)], (3, 3)) == [1, 1]
    assert rational_solve([(half, 1), (third, 0)], (1, 2)) == [2, Fraction(0)]
    assert rational_solve([(2, 4), (1, 2)], (half, 1)) == [Fraction(1, 4), 0]
    assert rational_solve([(half, 1)], (1, 0)) is None
    assert rational_inverse([[2, 1], [1, 1]]) == [[1, -1], [-1, 2]]
    assert rational_inverse([[half, 0], [third, x]]) == [[2, 0], [Fraction(2, 7), Fraction(3, 7)]]
    assert kernel_basis([(1, 1, 0)], 3) == [[-1, 1, 0], [0, 0, 1]]
    assert kernel_basis([(half, third, 1)], 3) == [[Fraction(2, 3), 1, 0], [-2, 0, 1]]
    assert rational_rank([(half, 1), (1, 2)]) == 1
    assert IntMatrix.from_rows([[0, 0, 3], [0, 2, 0], [5, 0, 0]]).det() == -30
    assert IntMatrix.from_rows([[2, 1], [4, 2]]).det() == 0
    assert IntMatrix.from_rows([[3, 1, 4], [1, 5, 9], [2, 6, 5]]).det() == -90


def test_oriented_primitive_vector():
    assert oriented_primitive_vector((-4, 6)) == (2, -3)
    assert oriented_primitive_vector((0, Fraction(-1, 2), 1)) == (0, 1, -2)
    assert oriented_primitive_vector((Fraction(1, 3), -1)) == (1, -3)
    with pytest.raises(ValueError):
        oriented_primitive_vector((0, 0))


def test_primitive_form():
    assert primitive_form((-4, 6)) == (Fraction(-2), (2, -3))
    assert primitive_form((0, Fraction(-1, 2), 1)) == (Fraction(-1, 2), (0, 1, -2))
    assert primitive_form((Fraction(2, 3), -2)) == (Fraction(2, 3), (1, -3))
