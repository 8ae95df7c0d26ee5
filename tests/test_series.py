import random
from collections import Counter
from fractions import Fraction
from math import comb, factorial, gcd

import pytest

import series_reference
from budget import Budget
from torickit.exactalg.cyclotomic import Cyc
from torickit.exactalg.intlinalg import primitive_form
from torickit.exactalg.laurent import LaurentPoly
from torickit.exactalg.ratchar import Factor, RationalCharacter, rat_equal
from torickit.exactalg.series import (
    RatFun,
    bernoulli,
    expand_rational,
    regular_factor_series,
)


def geom(nvars, mu, c=1):
    return RationalCharacter.fraction(
        LaurentPoly.one(nvars), [Factor(Cyc.rational(c), tuple(map(Fraction, mu)))]
    )


def const_piece(value, nvars=1):
    return RatFun(LaurentPoly.one(nvars) * value)


def scalar_pieces(s):
    """{n: c} for a one-variable series whose degree-n piece is c * lambda^n:
    the piece is homogeneous, so its value at lambda = 1 determines it."""
    out = {}
    for n, piece in s.data.items():
        assert all(q - d == n for (q,) in piece.num.terms for (d,) in piece.den.terms)
        out[n] = sum(piece.num.terms.values(), Cyc.rational(0)) / sum(piece.den.terms.values(), Cyc.rational(0))
    return out


def eulerian_polynomial(n, c):
    """A_n(c) = sum_k A(n, k) c^k with the Eulerian numbers in closed form."""
    return sum(
        (sum((-1) ** j * comb(n + 1, j) * (k + 1 - j) ** n for j in range(k + 1)) * c**k for k in range(n)),
        Cyc.rational(0),
    )


def test_bernoulli_and_todd_values():
    assert [bernoulli(n) for n in range(7)] == [
        1, Fraction(-1, 2), Fraction(1, 6), 0, Fraction(-1, 30), 0, Fraction(1, 42),
    ]
    # Todd coefficients of x/(1 - e^{-x}): at x = -w.lambda, Td(x)/x is
    # 1/(1 - e^{w.lambda}), which is what the index formula expands
    assert [(-1) ** n * bernoulli(n) / factorial(n) for n in range(5)] == [
        1, Fraction(1, 2), Fraction(1, 12), 0, Fraction(-1, 720),
    ]


def test_expand_double_pole_reference_values():
    s = expand_rational(geom(1, (1,)) * geom(1, (1,)), 2)
    lam = LaurentPoly(1, {(1,): 1})
    assert s.coefficient(-2) == RatFun(LaurentPoly.one(1), lam * lam)
    assert s.coefficient(-1) == RatFun(-LaurentPoly.one(1), lam)
    assert s.coefficient(0) == const_piece(Fraction(5, 12))
    assert s.coefficient(1) == RatFun(lam * Fraction(-1, 12))
    assert s.coefficient(2) == RatFun(lam * lam * Fraction(1, 240))


def test_expand_constant():
    s = expand_rational(RationalCharacter.one(1), 5)
    assert s.coefficient(0) == const_piece(1)
    assert min(s.data) == 0
    assert all(s.coefficient(n).is_zero() for n in range(1, 6))


def test_expand_regular_factor_against_taylor_division():
    # 1/(1 + e^{-l}): reciprocal of the Taylor series of 1 + e^{-x}
    s = expand_rational(geom(1, (-1,), -1), 6)
    series = [Fraction(2)] + [Fraction((-1) ** n, factorial(n)) for n in range(1, 9)]
    recip = [1 / series[0]]
    for n in range(1, 8):
        recip.append(-sum(series[k] * recip[n - k] for k in range(1, n + 1)) / series[0])
    assert recip[:4] == [Fraction(1, 2), Fraction(1, 4), 0, Fraction(-1, 48)]
    for n in range(7):
        assert s.coefficient(n) == RatFun(LaurentPoly(1, {(n,): recip[n]}))


def test_expand_rejects_identically_zero_factor():
    with pytest.raises(ValueError):
        RationalCharacter.fraction(LaurentPoly.one(1), [Factor(Cyc.rational(1), (Fraction(0),))])


def test_expand_additive():
    a = geom(1, (1,))
    b = geom(1, (2,), -1)
    pa, pb = scalar_pieces(expand_rational(a, 4)), scalar_pieces(expand_rational(b, 4))
    total = {n: pa.get(n, 0) + pb.get(n, 0) for n in set(pa) | set(pb)}
    assert scalar_pieces(expand_rational(a + b, 4)) == {n: c for n, c in total.items() if c}


def test_expand_multiplicative_up_to_truncation():
    a = geom(1, (1,))
    b = RationalCharacter.from_poly(LaurentPoly.monomial(1, (2,))) * geom(1, (1,), -1)
    pa, pb = scalar_pieces(expand_rational(a, 5)), scalar_pieces(expand_rational(b, 5))
    # a factor known to degree 5 with lowest degree n0 limits the product
    # to degree 5 + n0 of the other factor
    order = min(5 + min(pb), 5 + min(pa))
    assert order == 4
    prod = {}
    for n1, c1 in pa.items():
        for n2, c2 in pb.items():
            if n1 + n2 <= order:
                prod[n1 + n2] = prod.get(n1 + n2, 0) + c1 * c2
    direct = scalar_pieces(expand_rational(a * b, 5))
    assert {n: c for n, c in direct.items() if n <= order} == {n: c for n, c in prod.items() if c}


def test_regular_factor_matches_eulerian_closed_form():
    # 1/(1 - c e^x) = sum_m c^m e^{mx}, so a_n(c) = Li_{-n}(c)/n!, which is
    # c A_n(c) / ((1 - c)^{n+1} n!) for n >= 1
    assert eulerian_polynomial(1, Cyc.rational(7)) == 1
    assert eulerian_polynomial(2, Cyc.rational(7)) == 8
    values = [Cyc.rational(v) for v in (-1, 2, Fraction(1, 2))]
    values += [Cyc.root_of_unity(Fraction(1, n)) for n in (3, 4, 6)]
    for c in values:
        series = regular_factor_series(c, 8)
        # the scalars a_0..a_8, with no polynomial
        assert len(series) == 9, c
        expected = [1 / (1 - c)]
        expected += [c * eulerian_polynomial(n, c) / ((1 - c) ** (n + 1) * factorial(n)) for n in range(1, 9)]
        for n, a in enumerate(expected):
            assert series[n] == a, (c, n)


def test_rat_equal_implies_equal_expansion():
    a = geom(1, (1,))
    b = RationalCharacter.one(1) + RationalCharacter.from_poly(LaurentPoly.monomial(1, (1,))) * geom(1, (1,))
    assert rat_equal(a, b)
    for order in range(7):
        assert expand_rational(a, order) == expand_rational(b, order)


def test_graded_series_mismatch_reporting():
    a = expand_rational(geom(1, (1,)), 3)
    b = expand_rational(geom(1, (2,)), 3)
    assert a.first_mismatch(b) == -1  # poles 1/l vs 1/(2l) differ already


def test_ratfun_equal_denominators_compare_numerators():
    l1, l2 = LaurentPoly(2, {(1, 0): 1}), LaurentPoly(2, {(0, 1): 1})
    den = l1 + l2
    assert RatFun(l1, den) != RatFun(l1 * 2, den)
    assert RatFun(l1, den) == RatFun(l1 * 2, den * 2)


def test_expand_sums_the_terms_sharing_their_poles():
    # a lone twisted sector 1/(1 - zeta_3 e^x) is not a rational series; with
    # its conjugate it is (2 - e^x - e^{2x})/(1 - e^{3x})
    zeta = Cyc.root_of_unity(Fraction(1, 3))
    lone = RationalCharacter.fraction(LaurentPoly.one(1), [Factor(zeta, (1,))])
    with pytest.raises(AssertionError, match="non-rational"):
        expand_rational(lone, 2)
    pair = lone + RationalCharacter.fraction(LaurentPoly.one(1), [Factor(zeta * zeta, (1,))])
    closed = RationalCharacter.fraction(LaurentPoly(1, {(0,): 2, (1,): -1, (2,): -1}), [Factor(Cyc.rational(1), (3,))])
    for order in range(7):
        assert expand_rational(pair, order).first_mismatch(expand_rational(closed, order)) is None


def test_multivariate_pole_pieces():
    # 1/((1-e^a)(1-e^b)) has leading piece 1/(ab)
    s = expand_rational(geom(2, (1, 0)) * geom(2, (0, 1)), 1)
    la, lb = LaurentPoly(2, {(1, 0): 1}), LaurentPoly(2, {(0, 1): 1})
    assert s.coefficient(-2) == RatFun(LaurentPoly.one(2), la * lb)
    assert s.coefficient(-1) == RatFun(
        (la + lb) * Fraction(-1, 2), la * lb
    )


def test_graded_pieces_keep_integer_exponents():
    # the character has fractional exponents in e^lambda; its graded pieces are
    # polynomials in lambda whose exponents stay int
    half = RationalCharacter.from_poly(LaurentPoly.monomial(2, (0, Fraction(1, 2))))
    s = expand_rational(half * geom(2, (1, Fraction(-1, 2)), -1) * geom(2, (1, 0)), 3)
    keys = [e for piece in s.data.values() for p in (piece.num, piece.den) for e in p.terms]
    assert len(s.data) == 5 and keys
    assert all(type(x) is int for e in keys for x in e)


EXPONENTS = [-1, 0, 1, 2, Fraction(1, 2), Fraction(-1, 3)]
SCALARS = [1, -1, 2, Fraction(1, 3), Fraction(-5, 2)]
MULTIPLES = [1, -1, 2, Fraction(1, 2), Fraction(-3, 2)]


def _draw_expansion(rng):
    """(character, order, kinds) for the differential test.  Poles come from
    two primitive forms at random multiples, so terms repeat and share
    forms; a twisted part is the Galois orbit, over the units k mod n, of one
    term whose roots of unity are powers of zeta_n^k (one member may be left
    out, which makes the sum non-rational)."""
    nvars = rng.randint(1, 4)
    order = rng.randint(0, 6 if nvars < 3 else 3)
    forms = [tuple(rng.randint(-2, 2) or 1 for _ in range(nvars)) for _ in range(2)]

    def exponent():
        return tuple(rng.choice(EXPONENTS) for _ in range(nvars))

    def poles():
        return [
            Factor(Cyc.rational(1), tuple(s * x for x in rng.choice(forms)))
            for s in rng.sample(MULTIPLES, rng.randint(0, 2))
        ]

    terms = [
        (LaurentPoly(nvars, {exponent(): rng.choice(SCALARS) for _ in range(rng.randint(1, 2))}), poles())
        for _ in range(rng.randint(1, 3))
    ]
    if rng.random() < 0.5:
        n = rng.choice([2, 3, 4, 5, 6])
        q, j, a = exponent(), rng.randrange(n), rng.choice(SCALARS)
        mus = [exponent() for _ in range(rng.randint(1, 2 if nvars < 3 else 1))]
        mus = [mu if any(mu) else (1,) * nvars for mu in mus]
        pole, units = poles(), [k for k in range(1, n) if gcd(k, n) == 1]
        if n > 2 and rng.random() < 0.2:
            units = units[1:]
        for k in units:
            zeta = Cyc.root_of_unity(Fraction(k, n))
            num = LaurentPoly.monomial(nvars, q, zeta**j * a)
            terms.append((num, pole + [Factor(zeta, mu) for mu in mus]))
    x = RationalCharacter(nvars, terms)
    dens = [f for _, den in x.terms for f in den]
    kinds = {
        "fractional": any(v.denominator > 1 for num, _ in x.terms for q in num.terms for v in map(Fraction, q))
        or any(v.denominator > 1 for f in dens for v in map(Fraction, f.mu)),
        "shared forms": len({f.mu for f in dens if f.c == 1}) > len({primitive_form(f.mu)[1] for f in dens if f.c == 1}),
        "galois pairs": any(not f.c.is_rational() for f in dens),
    }
    return x, order, kinds


def test_integer_expansion_agrees_with_cyc_reference():
    # the integer kernel against the expansion whose every coefficient is a
    # Cyc: the same series piece by piece and in print, and the same refusal
    # of a non-rational group
    rng = random.Random(26)
    seen = Counter()
    with Budget("series-diff", "integer expansion against the Cyc reference", 8):
        for _ in range(100):
            x, order, kinds = _draw_expansion(rng)
            try:
                reference = series_reference.expand_rational(x, order)
            except AssertionError:
                with pytest.raises(AssertionError, match="non-rational"):
                    expand_rational(x, order)
                seen["non-rational"] += 1
                continue
            got = expand_rational(x, order)
            assert got.first_mismatch(reference) is None and reference.first_mismatch(got) is None
            assert str(got) == str(reference)
            seen.update(k for k, v in kinds.items() if v)
            seen["order 6"] += order == 6
            seen["4 variables"] += x.nvars == 4
    # no kind of draw passes vacuously
    assert min(seen[k] for k in ("fractional", "shared forms", "galois pairs")) >= 20, seen
    assert min(seen[k] for k in ("non-rational", "order 6", "4 variables")) >= 5, seen
