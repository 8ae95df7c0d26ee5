import random
from fractions import Fraction

import pytest

from torickit.exactalg.cyclotomic import Cyc
from torickit.exactalg.laurent import LaurentPoly
from torickit.exactalg.ratchar import (
    DenominatorCollapseError,
    Factor,
    RationalCharacter,
    rat_equal,
    specialize,
)


def geom(nvars, mu, c=1):
    """1 / (1 - c e^{mu})"""
    return RationalCharacter.fraction(LaurentPoly.one(nvars), [Factor(Cyc.rational(c), tuple(map(Fraction, mu)))])


def mono(q, c=1):
    return RationalCharacter.from_poly(LaurentPoly.monomial(len(q), q, c))


def test_geometric_identity():
    # 1/(1-e^l) == 1 + e^l/(1-e^l)
    lhs = geom(1, (1,))
    rhs = RationalCharacter.one(1) + mono((1,)) * geom(1, (1,))
    assert rat_equal(lhs, rhs)


def test_distinct_orders_differ():
    assert not rat_equal(geom(1, (1,)) * geom(1, (1,)), geom(1, (1,)))


def test_equality_is_equivalence():
    a = geom(1, (1,))
    b = RationalCharacter.one(1) + mono((1,)) * geom(1, (1,))
    c = (RationalCharacter.one(1) - mono((2,)) * geom(1, (1,)) * mono((-1,))) * RationalCharacter.one(1) + (
        mono((1,)) + mono((1,), -1)
    )
    assert rat_equal(a, a)
    assert rat_equal(a, b) and rat_equal(b, a)
    # transitivity on a chain of rewrites of the same function
    b2 = RationalCharacter.one(1) + mono((1,)) * b
    assert rat_equal(b, b2) and rat_equal(a, b2)


def test_specialize_diagonal():
    # 1/((1-e^a)(1-e^b)) restricted to the diagonal becomes 1/(1-e^l)^2
    x = geom(2, (1, 0)) * geom(2, (0, 1))
    d = x.specialize([[1], [1]])
    assert rat_equal(d, geom(1, (1,)) * geom(1, (1,)))


def test_specialize_identity():
    x = geom(2, (1, 0)) * geom(2, (0, 1))
    assert rat_equal(x.specialize([[1, 0], [0, 1]]), x)


def test_specialize_antidiagonal_still_a_function():
    x = geom(2, (1, 0)) * geom(2, (0, 1))
    y = x.specialize([[-1], [1]])  # succeeds as a rational function
    assert rat_equal(y, geom(1, (-1,)) * geom(1, (1,)))


def test_specialize_denominator_collapse():
    x = geom(2, (1, -1))
    with pytest.raises(DenominatorCollapseError):
        x.specialize([[1], [1]])


def test_constant_factor_folds_into_numerator():
    # (1 - (-1)e^0) = 2 becomes a scalar
    x = RationalCharacter.fraction(LaurentPoly.one(1), [Factor(Cyc.rational(-1), (Fraction(0),))])
    assert rat_equal(x, mono((0,), Fraction(1, 2)))


def test_power_series_with_negative_grade_numerator():
    # e^{-l}/(1-e^l) = e^{-l} + 1 + e^l + ...: the boundary term must survive
    x = mono((-1,)) * geom(1, (1,))
    series = x.power_series(2)
    assert series == LaurentPoly(1, {(-1,): 1, (0,): 1, (1,): 1, (2,): 1})


def test_power_series_expansion():
    x = geom(2, (1, 0)) * geom(2, (0, 1))
    series = x.power_series(2)
    expect = {
        (0, 0): 1, (1, 0): 1, (0, 1): 1,
        (2, 0): 1, (1, 1): 1, (0, 2): 1,
    }
    assert series == LaurentPoly(2, {k: Cyc.rational(v) for k, v in expect.items()})
    with pytest.raises(ValueError):
        geom(1, (-1,)).power_series(3)


def test_cleared_fraction_and_polynomial_extraction():
    # e^l/(1-e^l) + 1 == 1/(1-e^l); extract nothing polynomial from it
    x = mono((1,)) * geom(1, (1,)) + RationalCharacter.one(1)
    assert x.as_laurent_polynomial() is None
    # but (1-e^{2l})/(1-e^l) is the polynomial 1+e^l
    num = LaurentPoly.one(1) - LaurentPoly.monomial(1, (2,))
    y = RationalCharacter.fraction(num, [Factor(Cyc.rational(1), (Fraction(1),))])
    assert y.as_laurent_polynomial() == LaurentPoly.one(1) + LaurentPoly.monomial(1, (1,))


def test_rat_equal_is_a_congruence():
    a = geom(1, (1,))
    b = RationalCharacter.one(1) + mono((1,)) * geom(1, (1,))  # same function
    c = geom(1, (2,), -1) + mono((-1,), Fraction(1, 3))
    assert rat_equal(a + c, b + c)
    assert rat_equal(a * c, b * c)


def test_specialize_dispatch():
    x = geom(2, (1, 0)) * geom(2, (0, 1))
    assert rat_equal(specialize(x, [[1], [1]]), geom(1, (1,)) * geom(1, (1,)))
    p = LaurentPoly.monomial(2, (1, 1))
    assert specialize(p, [[1], [1]]) == LaurentPoly.monomial(1, (2,))
    with pytest.raises(TypeError):
        specialize(42, [[1]])


def test_str_canonical():
    x = geom(1, (1,), -1)
    assert str(x) == "1 / (1 + e[1])"


ROOTS = [Cyc.rational(1), Cyc.rational(-1)] + [Cyc.root_of_unity(Fraction(k, n)) for k, n in ((1, 3), (3, 4), (1, 6))]


def _random_factor(rng, nvars):
    mu = (0,) * nvars
    while not any(mu):
        mu = tuple(Fraction(rng.randint(-2, 2), rng.choice((1, 2, 3))) for _ in range(nvars))
    return Factor(rng.choice(ROOTS), mu)


def _random_numerator(rng, nvars):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        q = tuple(Fraction(rng.randint(-2, 2), rng.choice((1, 2))) for _ in range(nvars))
        terms[q] = rng.choice(ROOTS) * rng.choice((1, -2, Fraction(1, 3)))
    return LaurentPoly(nvars, terms)


def test_shift_and_subtract_clearing_matches_products():
    # root-of-unity c, fractional mu and factors repeated within and across terms
    rng = random.Random(2014)
    for _ in range(40):
        pool = [_random_factor(rng, 2) for _ in range(3)]
        x = RationalCharacter(2, [
            (_random_numerator(rng, 2), [rng.choice(pool) for _ in range(rng.randint(0, 4))])
            for _ in range(rng.randint(1, 3))
        ])
        common = x.denominator_factors()
        expected = LaurentPoly.zero(2)
        for num, den in x.terms:
            for f, k in common.items():
                for _ in range(k - den.count(f)):
                    num = num * f.as_poly(2)
            expected = expected + num
        den_expected = LaurentPoly.one(2)
        for f, k in common.items():
            den_expected = den_expected * f.as_poly(2) ** k
        den_times = LaurentPoly.one(2)
        for f, k in common.items():
            den_times = f.times(den_times, k)
        assert x.cleared_numerator() == expected
        assert den_times == den_expected
        p, f, k = _random_numerator(rng, 2), rng.choice(pool), rng.randint(0, 3)
        assert f.times(p, k) == p * f.as_poly(2) ** k
        # division by one factor undoes a multiplication, and a monomial
        # left over is never a multiple of a binomial
        assert f.divide(f.times(p, k + 1)) == f.times(p, k)
        assert f.divide(f.times(p, k + 1) + LaurentPoly.monomial(2, (9, 9))) is None
