import random
from fractions import Fraction

import pytest

from torickit.exactalg import Factor, RationalCharacter
from torickit.exactalg.cyclotomic import Cyc
from torickit.exactalg.laurent import LaurentPoly, exp_apply


def mono(q, c=1):
    return LaurentPoly.monomial(len(q), q, c)


def test_ring_basics():
    x = mono((1, 0))
    y = mono((0, 1))
    p = (x + y) * (x - y)
    assert p == mono((2, 0)) - mono((0, 2))
    assert (x - x).is_zero()
    assert x * LaurentPoly.one(2) == x


def test_fractional_exponents():
    h = mono((Fraction(1, 2),))
    assert h * h == mono((1,))
    assert (h * mono((Fraction(-1, 2),))) == LaurentPoly.one(1)


def test_cyclotomic_coefficients_cancel():
    z = Cyc.root_of_unity(Fraction(1, 3))
    p = mono((1,), z) + mono((1,), z * z) + mono((1,))
    assert p.is_zero()  # sum of all cube roots


def test_apply_matrix():
    p = mono((1, 0)) + mono((0, 1))
    q = p.apply_matrix([[1], [1]])
    assert q == mono((1,), 2)
    assert exp_apply([[1], [1]], (Fraction(2), Fraction(3))) == (Fraction(5),)


ONE_MINUS_X = Factor(Cyc.rational(1), (1,))  # 1 - e^lambda


def test_factor_divide_exact_quotient():
    num = LaurentPoly.one(1) - mono((2,))
    assert ONE_MINUS_X.divide(num) == LaurentPoly.one(1) + mono((1,))  # (1 - x^2)/(1 - x) = 1 + x
    assert ONE_MINUS_X.divide(LaurentPoly.zero(1)).is_zero()


def test_factor_divide_inexact_is_none():
    num = LaurentPoly.one(1) - mono((2,))
    assert Factor(Cyc.rational(1), (3,)).divide(num) is None  # (1 - x^2)/(1 - x^3)
    assert ONE_MINUS_X.divide(num + mono((5,))) is None
    assert ONE_MINUS_X.divide(mono((1,))) is None  # a monomial is no multiple of a binomial


def test_divide_exact_recovers_random_quotients():
    import random

    rng = random.Random(5)
    half = Fraction(1, 2)

    def rand_poly():
        return sum(
            (mono((rng.randint(-3, 3) * half, rng.randint(-2, 2)), rng.randint(-3, 3)) for _ in range(4)),
            LaurentPoly.zero(2),
        )

    for _ in range(20):
        a = rand_poly()
        mu = (0, 0)
        while mu == (0, 0):
            mu = (rng.randint(-2, 2) * half, rng.randint(-2, 2))
        c = rng.choice([Cyc.rational(1), Cyc.rational(-2), Cyc.root_of_unity(Fraction(1, 3))])
        f = Factor(c, mu)
        assert f.divide(a * f.as_poly(2)) == a
        # a monomial is a multiple only of units, never of a binomial
        assert f.divide(a * f.as_poly(2) + mono((9, 9))) is None


def test_factor_divide_laurent_quotient():
    # (1 - x^2)/(x - x^2) = 1/x + 1, with x - x^2 = x (1 - x)
    num = LaurentPoly.one(1) - mono((2,))
    q = RationalCharacter.fraction(mono((-1,)) * num, [ONE_MINUS_X]).as_laurent_polynomial()
    assert q == mono((-1,)) + LaurentPoly.one(1)
    assert q * (mono((1,)) - mono((2,))) == num


def test_truncate_by():
    p = mono((1, 0)) + mono((2, 1)) + mono((0, 0))
    t = p.truncate(1)
    assert t == mono((1, 0)) + mono((0, 0))


def test_canonical_str():
    p = mono((1, Fraction(-1, 2)), Fraction(3, 2)) + LaurentPoly.one(2)
    assert str(p) == "1 + 3/2*e[1,-1/2]"
    assert str(LaurentPoly.zero(2)) == "0"


def test_mixing_tori_rejected():
    with pytest.raises(ValueError):
        mono((1,)) + mono((1, 0))


def test_exponents_compare_by_value():
    a = LaurentPoly(1, {(1,): 1})
    b = LaurentPoly(1, {(Fraction(1),): 1})
    assert a == b and hash(a) == hash(b)
    s = a + b
    assert len(s.terms) == 1 and s.coefficient((1,)) == Cyc.rational(2)
    # int and Fraction entries stay as given; anything else is read as a Fraction
    assert [type(x) for x in next(iter(a.terms))] == [int]
    assert [type(x) for x in next(iter(b.terms))] == [Fraction]
    assert LaurentPoly(2, {("1/2", 1.5): 1}).terms.keys() == {(Fraction(1, 2), Fraction(3, 2))}


def test_zero_scalar_product_builds_no_coefficients(monkeypatch):
    p = mono((1, 0), 2) + mono((0, 1), Fraction(1, 3)) + mono((1, 1), Cyc.root_of_unity(Fraction(1, 3)))
    built = []
    init = Cyc.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Cyc, "__init__", counting)
    for zero in (0, Fraction(0), Cyc.rational(0)):
        built.clear()
        assert (p * zero).is_zero() and (zero * p).is_zero()
        assert built == []


def _refuse_cyc_arithmetic(monkeypatch):
    def refuse(self, other):
        raise AssertionError("rational product reached Cyc arithmetic")

    for name in ("__mul__", "__rmul__", "__add__", "__radd__"):
        monkeypatch.setattr(Cyc, name, refuse)


def _rational_terms(terms):
    return {q: Cyc.rational(c) for q, c in terms.items()}


def test_rational_products_use_integer_arithmetic(monkeypatch):
    # mixed denominators and a fractional exponent; no term pair goes
    # through Cyc multiplication or addition
    p = LaurentPoly(2, {(1, 0): Fraction(1, 2), (0, 1): Fraction(-3, 4), (Fraction(1, 2), 0): Fraction(2, 3)})
    q = LaurentPoly(2, {(1, 0): Fraction(1, 3), (0, 0): 5})
    _refuse_cyc_arithmetic(monkeypatch)
    assert (p * q).terms == _rational_terms({
        (2, 0): Fraction(1, 6),
        (1, 0): Fraction(5, 2),
        (1, 1): Fraction(-1, 4),
        (0, 1): Fraction(-15, 4),
        (Fraction(3, 2), 0): Fraction(2, 9),
        (Fraction(1, 2), 0): Fraction(10, 3),
    })
    assert (q * p).terms == (p * q).terms
    assert (p * LaurentPoly.zero(2)).terms == {}
    scaled = {(1, 0): Fraction(3, 4), (0, 1): Fraction(-9, 8), (Fraction(1, 2), 0): Fraction(1)}
    assert (p * Fraction(3, 2)).terms == _rational_terms(scaled)
    assert (p * Cyc.rational(Fraction(3, 2))).terms == _rational_terms(scaled)
    assert (Fraction(3, 2) * p).terms == _rational_terms(scaled)
    assert (q * -2).terms == _rational_terms({(1, 0): Fraction(-2, 3), (0, 0): -10})


def test_rational_product_cancellation_leaves_no_zero_keys(monkeypatch):
    one_plus = LaurentPoly(1, {(0,): 1, (1,): 1})
    one_minus = LaurentPoly(1, {(0,): 1, (1,): -1})
    half_plus = LaurentPoly(1, {(0,): Fraction(1, 2), (1,): Fraction(1, 3)})
    half_minus = LaurentPoly(1, {(0,): Fraction(1, 2), (1,): Fraction(-1, 3)})
    _refuse_cyc_arithmetic(monkeypatch)
    assert (one_plus * one_minus).terms == _rational_terms({(0,): 1, (2,): -1})
    assert (half_plus * half_minus).terms == _rational_terms({(0,): Fraction(1, 4), (2,): Fraction(-1, 9)})


def test_product_with_a_root_of_unity_is_zeta_times_the_rational_product():
    z = Cyc.root_of_unity(Fraction(1, 3))
    p = LaurentPoly(2, {(1, 0): Fraction(1, 2), (0, Fraction(1, 2)): -3})
    q = LaurentPoly(2, {(1, 0): Fraction(1, 3), (0, 0): 5})
    expected = {k: z * c for k, c in (p * q).terms.items()}
    assert len(expected) == 4
    assert ((p * z) * q).terms == expected
    assert (q * (z * p)).terms == expected


def _random_poly(rng, nvars, roots):
    terms = {}
    for _ in range(rng.randint(0, 6)):
        q = tuple(Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3))) for _ in range(nvars))
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        terms[q] = c * rng.choice(roots) if c else c
    return LaurentPoly(nvars, terms)


def test_bounded_product_is_the_truncated_product():
    # seeded draws with rational and root-of-unity coefficients and negative
    # and fractional exponents; the bounds run from below the lowest degree
    # of the product to above its highest
    rng = random.Random(2024)
    rational = [Cyc.rational(1)]
    roots = rational + [Cyc.root_of_unity(Fraction(k, n)) for n, k in ((3, 1), (4, 1), (6, 5))]
    cut = {True: 0, False: 0}  # (draw, bound) pairs whose cut dropped terms, by rationality
    for trial in range(120):
        nvars = rng.randint(1, 3)
        a = _random_poly(rng, nvars, roots if trial % 2 else rational)
        b = _random_poly(rng, nvars, roots if trial % 3 else rational)
        full = a * b
        degrees = [sum(q) for q in full.terms] or [0]
        for twice in range(2 * int(min(degrees)) - 3, 2 * int(max(degrees)) + 4):
            bound = Fraction(twice, 2)
            expected = full.truncate(bound)
            assert a.mul(b, bound) == expected, (a, b, bound)
            assert b.mul(a, bound) == expected
            cut[full.all_rational()] += expected != full
        assert a.mul(b) == full
    assert min(cut.values()) >= 50


def test_bounded_product_multiplies_no_pair_above_the_bound(monkeypatch):
    z = Cyc.root_of_unity(Fraction(1, 3))
    a = LaurentPoly(1, {(k,): z for k in range(-2, 5)})
    b = LaurentPoly(1, {(Fraction(k, 2),): z for k in range(6)})
    pairs = []
    mul = Cyc.__mul__

    def counting(self, other):
        pairs.append(1)
        return mul(self, other)

    monkeypatch.setattr(Cyc, "__mul__", counting)
    a.mul(b, 1)
    assert len(pairs) == sum(i + Fraction(j, 2) <= 1 for i in range(-2, 5) for j in range(6)) == 15
