"""sympy as an independent oracle for the character algebra.

Small rational characters with rational coefficients and integer exponents
are drawn by hypothesis, written out as sympy expressions in x_i = e^{lambda_i}
and compared: equality through ``cancel``, Laurent-polynomial recognition
through the reduced denominator, and graded expansions through ``series``
in t after x_i -> exp(t * l_i).  The exact linear algebra is compared with
sympy's ``rref``, ``inv`` and ``det``.  sympy is only needed for the tests.
"""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from torickit.exactalg import Cyc, Factor, LaurentPoly, RationalCharacter, expand_rational, rat_equal
from torickit.exactalg.intlinalg import IntMatrix, rational_inverse, rref

sympy = pytest.importorskip("sympy")

NVARS = 2
XS = sympy.symbols("x1:%d" % (NVARS + 1))
LS = sympy.symbols("l1:%d" % (NVARS + 1))
T = sympy.Symbol("t")

exponents = st.tuples(*[st.integers(-2, 2)] * NVARS)
factors = st.builds(
    lambda c, mu: Factor(Cyc.rational(c), tuple(map(Fraction, mu))),
    st.sampled_from([Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2)]),
    exponents.filter(any),
)
polys = st.dictionaries(exponents, st.integers(-3, 3).filter(bool), min_size=1, max_size=3).map(
    lambda terms: LaurentPoly(NVARS, terms)
)
fraction_polys = st.dictionaries(
    exponents, st.fractions(-3, 3, max_denominator=6).filter(bool), max_size=4
).map(lambda terms: LaurentPoly(NVARS, terms))
characters = st.lists(st.tuples(polys, st.lists(factors, max_size=2)), min_size=1, max_size=2).map(
    lambda terms: RationalCharacter(NVARS, terms)
)


def _rational(c: Cyc):
    assert c.is_rational(), c
    q = c.coeffs[0]
    return sympy.Rational(q.numerator, q.denominator)


def _monomial(q, variables):
    return sympy.Mul(*[v ** int(e) for v, e in zip(variables, q)])


def _poly(p: LaurentPoly):
    return sympy.Add(*[_rational(c) * _monomial(q, XS) for q, c in p.terms.items()])


def _factor(f: Factor):
    return 1 - _rational(f.c) * _monomial(f.mu, XS)


def _character(x: RationalCharacter):
    return sympy.Add(*[_poly(num) / sympy.Mul(*[_factor(f) for f in den]) for num, den in x.terms])


def _rewritten(x: RationalCharacter) -> RationalCharacter:
    """The same character in another shape: 1/f = 1 + c e^mu / f for the
    first factor f of each term."""
    out = RationalCharacter.zero(x.nvars)
    for num, den in x.terms:
        if not den:
            out = out + RationalCharacter.from_poly(num)
            continue
        f = den[0]
        out = out + RationalCharacter.fraction(num, den[1:])
        out = out + RationalCharacter.fraction(num * LaurentPoly.monomial(x.nvars, f.mu, f.c), den)
    return out


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(fraction_polys, fraction_polys, st.fractions(-3, 3, max_denominator=6))
@example(  # (1 + x1/2)(1 - x1/2): the middle terms cancel
    LaurentPoly(NVARS, {(0, 0): 1, (1, 0): Fraction(1, 2)}),
    LaurentPoly(NVARS, {(0, 0): 1, (1, 0): Fraction(-1, 2)}),
    Fraction(1),
)
def test_rational_product_matches_sympy_expand(a, b, s):
    product = a * b
    assert all(product.terms.values())
    assert _poly(product) == sympy.expand(_poly(a) * _poly(b))
    assert _poly(a * s) == sympy.expand(_poly(a) * sympy.Rational(s.numerator, s.denominator))


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(characters, characters)
def test_rat_equal_matches_sympy_cancel(a, b):
    assert rat_equal(a, _rewritten(a))
    assert sympy.cancel(_character(a) - _character(_rewritten(a))) == 0
    assert rat_equal(a, b) == (sympy.cancel(_character(a) - _character(b)) == 0)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(polys, st.lists(factors, max_size=2), st.lists(factors, max_size=2), st.booleans())
def test_as_laurent_polynomial_matches_sympy(num, den, other, exact):
    # num * prod(den or other) / prod(den): a Laurent polynomial at least when exact
    for f in den if exact else other:
        num = num * f.as_poly(NVARS)
    x = RationalCharacter.fraction(num, den)
    reduced = sympy.cancel(sympy.together(_character(x)))
    _, denominator = sympy.fraction(reduced)
    is_laurent = len(sympy.Poly(denominator, *XS).terms()) == 1
    result = x.as_laurent_polynomial()
    assert (result is not None) == is_laurent
    if exact:
        assert result is not None
    if result is not None:
        assert sympy.cancel(_poly(result) - reduced) == 0


def _ratfun_at(piece, point):
    def value(p):
        return sum((_rational(c) * _monomial(e, point) for e, c in p.terms.items()), sympy.Integer(0))

    return value(piece.num) / value(piece.den)


small_characters = st.lists(
    st.tuples(
        st.dictionaries(st.tuples(*[st.integers(-1, 1)] * NVARS), st.integers(-2, 2).filter(bool),
                        min_size=1, max_size=2).map(lambda terms: LaurentPoly(NVARS, terms)),
        st.lists(factors, max_size=2),
    ),
    min_size=1,
    max_size=3,
).map(lambda terms: RationalCharacter(NVARS, terms))


def _pole(*mu):
    return Factor(Cyc.rational(1), tuple(map(Fraction, mu)))


# poles mu, -mu and 2mu share one primitive form at scales 1, -1 and 2, and
# the form of (1, -1/2) is (2, -1) at scale 1/2
SHARED_POLE_FORMS = RationalCharacter(NVARS, [
    (LaurentPoly.monomial(NVARS, (1, 0)), [_pole(2, 1)]),
    (LaurentPoly.one(NVARS) * 2, [_pole(-2, -1)]),
    (LaurentPoly.monomial(NVARS, (0, 1), -1), [_pole(2, 1), _pole(4, 2)]),
    (LaurentPoly.one(NVARS), [_pole(1, Fraction(-1, 2))]),
])


def _laurent_coefficients(x, point, prec):
    """{n: coefficient of t^n} of x at lambda = t * point, n < prec - 2, by
    sympy's exact ring series: exponentials, products and inverses of
    series with a nonzero constant term; a pole factor 1 - e^{k t} is
    divided by t first."""
    ring_series = pytest.importorskip("sympy.polys.ring_series")
    QQ = sympy.QQ
    ring, t = sympy.polys.rings.ring("t", QQ)

    def exp(mu, n):
        k = sum(Fraction(a) * b for a, b in zip(mu, point))
        return ring_series.rs_exp(QQ(k.numerator, k.denominator) * t, t, n)

    def qq(c):
        assert c.is_rational(), c
        q = c.coeffs[0]
        return QQ(q.numerator, q.denominator)

    out = {}
    for num, den in x.terms:
        series = sum((qq(c) * exp(q, prec) for q, c in num.terms.items()), ring(0))
        poles = 0
        for f in den:
            factor = 1 - qq(f.c) * exp(f.mu, prec + 1)
            if f.c == 1:
                factor, poles = factor.exquo(t), poles + 1
            series = ring_series.rs_mul(series, ring_series.rs_series_inversion(factor, t, prec), t, prec)
        for (e,), c in series.terms():
            out[e - poles] = out.get(e - poles, QQ(0)) + c
    return {n: sympy.Rational(c.numerator, c.denominator) for n, c in out.items() if n < prec - 2}


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(small_characters)
@example(SHARED_POLE_FORMS)
def test_expand_rational_matches_sympy_series(x):
    # the graded pieces are homogeneous in lambda; they are compared at two
    # integer points where no mu . lambda with mu a nonzero exponent vanishes
    order = 2
    graded = expand_rational(x, order)
    for point in ((7, 3), (5, -2)):
        expected = _laurent_coefficients(x, point, order + 3)
        for n in range(-2, order + 1):
            assert expected.get(n, 0) == _ratfun_at(graded.coefficient(n), point), (point, n)


def _sympy_matrix(rows):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in rows])


rational_entries = st.one_of(st.integers(-4, 4), st.fractions(-4, 4, max_denominator=5))
rational_matrices = st.integers(1, 4).flatmap(
    lambda width: st.lists(st.lists(rational_entries, min_size=width, max_size=width), min_size=1, max_size=4)
)
square_matrices = st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(rational_entries, min_size=n, max_size=n), min_size=n, max_size=n)
)


@settings(max_examples=150, deadline=None)
@given(rational_matrices)
@example([[0, 2, 4], [1, 1, 1], [1, 3, 5]])  # rank 2, first column pivot below the top
def test_rref_matches_sympy(rows):
    got, pivots = rref(rows, len(rows[0]))
    expected, expected_pivots = _sympy_matrix(rows).rref()
    assert tuple(pivots) == expected_pivots
    assert _sympy_matrix(got) == expected


@settings(max_examples=150, deadline=None)
@given(square_matrices)
def test_rational_inverse_and_det_match_sympy(rows):
    matrix = _sympy_matrix(rows)
    if matrix.det() != 0:
        assert _sympy_matrix(rational_inverse(rows)) == matrix.inv()
    else:
        with pytest.raises(ValueError):
            rational_inverse(rows)
    integer_rows = [[x.numerator for x in row] for row in rows]
    assert IntMatrix.from_rows(integer_rows).det() == _sympy_matrix(integer_rows).det()
