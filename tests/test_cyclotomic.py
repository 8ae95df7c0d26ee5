import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torickit.exactalg.cyclotomic import Cyc, cyclotomic_polynomial, parse_fraction
from torickit.exactalg.laurent import LaurentPoly
from torickit.exactalg.ratchar import Factor, RationalCharacter


def zeta(n, k=1):
    return Cyc.root_of_unity(Fraction(k, n))


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_root_powers_close_up():
    for n in (1, 2, 3, 4, 5, 6, 8, 12):
        z = zeta(n)
        assert z ** n == Cyc.rational(1)
        if n > 1:
            assert z ** (n - 1) != Cyc.rational(1)


def test_sum_of_all_roots_vanishes():
    for n in (2, 3, 4, 5, 6, 9):
        total = Cyc.rational(0)
        for k in range(n):
            total = total + zeta(n, k)
        assert total.is_zero()


def test_rational_collapse():
    assert zeta(2).is_rational() and zeta(2) == -1
    assert zeta(4) * zeta(4) == -1
    assert zeta(3) * zeta(3) * zeta(3) == 1
    # zeta_6 lives in the conductor-3 field
    assert zeta(6) == Cyc.rational(1) + zeta(3)


def test_inverse_and_division():
    for n in (3, 4, 5, 8):
        x = zeta(n) + Cyc.rational(2)
        assert (x * x.inverse()) == Cyc.rational(1)
        assert (Cyc.rational(1) / x) == x.inverse()
    with pytest.raises(ZeroDivisionError):
        Cyc.rational(0).inverse()


def test_mixed_conductor_arithmetic():
    x = zeta(3) + zeta(4)
    assert x - zeta(4) == zeta(3)
    assert zeta(3) * zeta(4) == zeta(12, 7)


small = st.integers(min_value=-4, max_value=4)


@st.composite
def cyc_values(draw):
    n = draw(st.sampled_from([1, 3, 4, 5]))
    coeffs = draw(st.lists(small, min_size=1, max_size=4))
    return Cyc(n, [Fraction(c) for c in coeffs])


@settings(max_examples=60, deadline=None)
@given(cyc_values(), cyc_values(), cyc_values())
def test_ring_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    if not b.is_zero():
        assert (a * b) / b == a


def test_parse_fraction():
    assert parse_fraction("3/4") == Fraction(3, 4)
    assert parse_fraction("-2") == -2
    assert parse_fraction(5) == 5


def test_str_forms():
    assert str(Cyc.rational(Fraction(-3, 2))) == "-3/2"
    assert "z4" in str(zeta(4) + Cyc.rational(1))


def test_rational_constructor_matches_the_general_one():
    for q in (0, 1, -3, Fraction(2, 3), Fraction(-7, 4)):
        a, b = Cyc.rational(q), Cyc(1, [q])
        assert a == b and hash(a) == hash(b) and str(a) == str(b) and repr(a) == repr(b)
        assert a.n == 1 and type(a.coeffs[0]) is Fraction
    # negation and rational multiples skip the reduction; they must land
    # where the reducing constructor does
    z = zeta(12, 5)
    assert -z == Cyc(12, [-c for c in z.coeffs])
    assert z * Fraction(2, 3) == Cyc(12, [Fraction(2, 3) * c for c in z.coeffs]) == Fraction(2, 3) * z
    assert z * 0 == Cyc.rational(0) and (0 * z).n == 1
    assert Cyc.rational(2) + Fraction(1, 2) == Cyc(1, [Fraction(5, 2)])


def test_hash_agrees_with_equality():
    # a rational value is found by equal int and Fraction keys and finds them
    for q in (0, 3, Fraction(1, 2), Fraction(-7, 4)):
        c = Cyc.rational(q)
        assert c == q and hash(c) == hash(q) == hash(Fraction(q))
        assert {q: "v"}[c] == "v" and {Fraction(q): "v"}[c] == "v" and {c: "v"}[q] == "v"
    # zeta_12^4 is zeta_3, built at conductor 12
    a, b = zeta(12) ** 4, zeta(3)
    assert a.n == 12 and b.n == 3
    assert a == b and b == a and hash(a) == hash(b)
    assert {b: "v"}[a] == "v" and {a: "v"}[b] == "v"
    assert a != zeta(3, 2) and len({a, b, zeta(3, 2)}) == 2


def test_equal_values_print_at_their_least_conductor():
    # zeta_6 = 1 + zeta_3, and -1 + zeta_12^2 = -1 + zeta_6 = zeta_3
    assert [str(v) for v in (zeta(6), 1 + zeta(3), -1 + zeta(12) ** 2)] == ["1 + z3", "1 + z3", "z3"]
    assert str(2 * zeta(12) ** 3) == "2*z4" and str(zeta(12)) == "z12"
    assert str(zeta(12) ** 6) == "-1" and str(zeta(5, 2) + zeta(4)).count("z20") == 4


def test_polynomial_characters_print_as_their_numerators():
    # P * prod(f) / prod(f) divides back to P through arithmetic at other
    # conductors (each factor's root of unity); the quotient equals P and
    # so must print as P does
    roots = [Cyc.rational(1), Cyc.rational(-1)] + [zeta(n, k) for k, n in ((1, 3), (3, 4), (1, 5), (1, 6), (5, 12))]
    rng = random.Random(22)
    nonrational = 0
    for _ in range(420):
        nvars = rng.randint(1, 3)
        p = LaurentPoly(nvars, {
            tuple(rng.randint(-2, 2) for _ in range(nvars)): rng.choice(roots) * rng.choice((1, -2, Fraction(1, 3)))
            for _ in range(rng.randint(1, 3))
        })
        factors = []
        for _ in range(rng.randint(1, 2)):
            mu = (0,) * nvars
            while not any(mu):
                mu = tuple(Fraction(rng.randint(-2, 2), rng.choice((1, 2))) for _ in range(nvars))
            factors.append(Factor(rng.choice(roots), mu))
        num = p
        for f in factors:
            num = f.times(num)
        got = RationalCharacter.fraction(num, factors).as_laurent_polynomial()
        assert got == p
        assert str(got) == str(p)
        nonrational += not got.all_rational()
    assert nonrational >= 200
