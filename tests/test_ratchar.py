import random
from collections import Counter
from fractions import Fraction
from math import prod

import pytest

import clearing_reference
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


def test_clearing_keeps_one_factor_per_primitive_form():
    # 1/(1-e^l) + 1/(1-e^-l) + 1/(1-e^2l): opposite and multiple factors
    # share (1 - e^2l); the terms the character holds keep their own
    x = geom(1, (1,)) + geom(1, (-1,)) + geom(1, (2,))
    assert x.denominator_factors() == {Factor(Cyc.rational(1), (2,)): 1}
    assert str(x) == "1 / (1 - e[-1])  +  1 / (1 - e[1])  +  1 / (1 - e[2])"
    # 1/(1-e^l) + 1/(1-e^-l) = 1, and the multiples 1/2 and -3/2 meet at 3/2
    assert (geom(1, (1,)) + geom(1, (-1,))).as_laurent_polynomial() == LaurentPoly.one(1)
    y = geom(2, (Fraction(1, 2), 1)) * geom(2, (Fraction(-3, 2), -3)) + geom(2, (0, 1), Fraction(1, 2))
    assert y.denominator_factors() == {
        Factor(Cyc.rational(1), (Fraction(3, 2), 3)): 2,
        Factor(Cyc.rational(Fraction(1, 2)), (0, 1)): 1,
    }


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
    # root-of-unity c, fractional mu and factors repeated within and across
    # terms.  The clearing may rewrite factors (opposite and multiple forms
    # share one), so the reference is the cross-multiplied identity
    # N * prod_i den_i == D * sum_i num_i * prod_{j != i} den_j in plain
    # products, D the product of ``denominator_factors``
    rng = random.Random(2014)
    for _ in range(40):
        pool = [_random_factor(rng, 2) for _ in range(3)]
        x = RationalCharacter(2, [
            (_random_numerator(rng, 2), [rng.choice(pool) for _ in range(rng.randint(0, 4))])
            for _ in range(rng.randint(1, 3))
        ])
        common = x.denominator_factors()
        dens = [prod((f.as_poly(2) for f in den), start=LaurentPoly.one(2)) for _, den in x.terms]
        den_expected = LaurentPoly.one(2)
        for f, k in common.items():
            den_expected = den_expected * f.as_poly(2) ** k
        rhs = LaurentPoly.zero(2)
        for i, (num, _) in enumerate(x.terms):
            rhs = rhs + prod((d for j, d in enumerate(dens) if j != i), start=num)
        assert x.cleared_numerator() * prod(dens, start=LaurentPoly.one(2)) == den_expected * rhs
        den_times = LaurentPoly.one(2)
        for f, k in common.items():
            den_times = f.times(den_times, k)
        assert den_times == den_expected
        p, f, k = _random_numerator(rng, 2), rng.choice(pool), rng.randint(0, 3)
        assert f.times(p, k) == p * f.as_poly(2) ** k
        # division by one factor undoes a multiplication, and a monomial
        # left over is never a multiple of a binomial
        assert f.divide(f.times(p, k + 1)) == f.times(p, k)
        assert f.divide(f.times(p, k + 1) + LaurentPoly.monomial(2, (9, 9))) is None


FORMS = [(1, 0), (0, 1), (1, -1), (1, 2)]
MULTIPLES = [1, -1, 2, -2, Fraction(1, 2), Fraction(-3, 2)]


def _rewrite(rng, num, den):
    """The same fraction with one factor f = (1 - c e^mu) flipped, by
    1/f = -c^-1 e^-mu / (1 - c^-1 e^-mu), or doubled, by
    1/f = (1 + c e^mu) / (1 - c^2 e^2mu)."""
    if not den:
        return num, den
    i = rng.randrange(len(den))
    f, rest = den[i], den[:i] + den[i + 1:]
    if rng.random() < 0.5:
        inv, neg = f.c.inverse(), tuple(-x for x in f.mu)
        return num * LaurentPoly.monomial(2, neg, -inv), rest + [Factor(inv, neg)]
    return num * LaurentPoly(2, {(0, 0): 1, f.mu: f.c}), rest + [Factor(f.c * f.c, tuple(2 * x for x in f.mu))]


def _draw(rng):
    """A zero, a Laurent polynomial or a random character, over factors of
    one primitive form at three multiples (opposite ones among them) and one
    random factor, which may carry a root of unity and a fractional mu."""
    g = rng.choice(FORMS)
    pool = [Factor(Cyc.rational(1), tuple(s * x for x in g)) for s in rng.sample(MULTIPLES, 3)]
    pool.append(_random_factor(rng, 2))
    terms = [
        (_random_numerator(rng, 2), [rng.choice(pool) for _ in range(rng.randint(0, 3))])
        for _ in range(rng.randint(1, 3))
    ]
    kind = rng.randrange(3)
    if kind == 0:
        terms += [_rewrite(rng, -num, den) for num, den in terms]
    elif kind == 1:
        num, den = _random_numerator(rng, 2), rng.sample(pool, rng.randint(1, 3))
        for f in den:
            num = f.times(num)
        terms = [_rewrite(rng, num, den)]
    return RationalCharacter(2, terms)


def test_canonical_clearing_agrees_with_per_factor_clearing():
    # against the clearing that keeps every distinct factor: the same zeros,
    # the same polynomials and the same rationality after clearing
    rng = random.Random(25)
    outcomes = Counter()
    for _ in range(200):
        x = _draw(rng)
        reference = clearing_reference.cleared_numerator(x)
        zero = x.is_zero()
        assert zero == reference.is_zero()
        poly = x.as_laurent_polynomial()
        assert poly == clearing_reference.as_laurent_polynomial(x)
        rational = x.cleared_numerator().all_rational()
        assert rational == reference.all_rational()
        outcomes.update([("zero", zero), ("polynomial", poly is not None), ("rational", rational)])
    # no outcome may pass vacuously
    assert min(outcomes.values()) >= 30 and len(outcomes) == 6, outcomes
