import itertools
import random
from fractions import Fraction

import pytest

from torickit.exactalg.intlinalg import (
    IntMatrix,
    kernel_basis,
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
