"""Truncated graded expansions of rational characters.

Substituting lambda -> t*lambda and expanding at t = 0 turns a rational
character into a Laurent series in t whose degree-n piece is a homogeneous
degree-n rational function of lambda_1..lambda_m.  Pieces of negative
degree arise from factors (1 - e^{mu}) which contribute a simple pole
1/(mu.lambda) times a Bernoulli-type series.  There is one denominator per
expansion, the product of the distinct primitive pole forms at their
largest multiplicity.

The expansion runs in integers: each rational truncated series is a dict
of integer numerators over one integer denominator, every power series is
read off the integer powers of its linear form, and products go through
``laurent.mul_terms``.  Only terms carrying a root of unity are expanded in
``Cyc``, and their sum is cleared to integers once it is rational.  Graded
pieces are quotients of ``LaurentPoly`` values in lambda with integer
exponents and ``Cyc`` coefficients: the sparse polynomial type of the
characters, whose exponents in e^lambda may be fractional, read here as
monomials lambda^e.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm, prod

from .cyclotomic import Cyc
from .intlinalg import primitive_form
from .laurent import LaurentPoly, integer_coefficients, mul_terms
from .ratchar import RationalCharacter


# ---------------------------------------------------------------------------
# graded pieces: LaurentPoly in lambda_1..lambda_m with integer exponents


def format_monomial(e) -> str:
    """lambda^e as l1^2*l2."""
    return "*".join(("l%d" % (i + 1) if k == 1 else "l%d^%d" % (i + 1, k)) for i, k in enumerate(e) if k)


class RatFun:
    """Quotient of polynomials, used for homogeneous graded pieces."""

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly = None):
        if den is None:
            den = LaurentPoly.one(num.nvars)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            den = LaurentPoly.one(num.nvars)
        else:
            # divide out the monomial content common to numerator and denominator
            common = tuple(map(min, zip(*num.terms, *den.terms)))
            if any(common):
                num, den = (
                    LaurentPoly(p.nvars, {tuple(a - b for a, b in zip(e, common)): c for e, c in p.terms.items()})
                    for p in (num, den)
                )
            if len(num.terms) == len(den.terms) and not (
                len(den.terms) == 1 and not any(next(iter(den.terms)))
            ):
                # collapse scalar multiples of the denominator
                key = next(iter(den.terms))
                top = num.terms.get(key)
                if top is not None:
                    ratio = top / den.terms[key]
                    if den * ratio == num:
                        den = LaurentPoly.one(num.nvars)
                        num = den * ratio
        self.num = num
        self.den = den

    @staticmethod
    def scalar(nvars: int, value) -> "RatFun":
        return RatFun(LaurentPoly(nvars, {(0,) * nvars: value}))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RatFun.scalar(self.num.nvars, other)
        if not isinstance(other, RatFun):
            return NotImplemented
        if self.den == other.den:
            return self.num == other.num
        return (self.num * other.den) == (other.num * self.den)

    def __hash__(self):
        raise TypeError("RatFun is unhashable")

    def __str__(self):
        def show(p, bracket):
            text = p.render(format_monomial, key=lambda e: (sum(e), e), reverse=True)
            return "(" + text + ")" if bracket and len(p.terms) > 1 else text

        if self.den == LaurentPoly.one(self.num.nvars):
            return show(self.num, False)
        return show(self.num, True) + "/" + show(self.den, True)

    __repr__ = __str__


class GradedSeries:
    """Map degree -> homogeneous rational function, truncated above ``order``."""

    __slots__ = ("nvars", "order", "data")

    def __init__(self, nvars: int, order: int, data=None):
        self.nvars = nvars
        self.order = order
        self.data = {}
        for n, piece in (data or {}).items():
            if n <= order and not piece.is_zero():
                self.data[n] = piece

    @staticmethod
    def split(nvars: int, num, den: dict, order: int) -> "GradedSeries":
        """num/den for num = (terms, d), integer numerators over one integer
        denominator, and den a homogeneous integer term dict, by degree: a
        monomial of degree e in num belongs to the piece of degree
        e - deg(den).  The pieces' coefficients become ``Cyc`` here."""
        terms, d = num
        shift = sum(next(iter(den)))
        pieces = {}
        for e, v in terms.items():
            if v:
                pieces.setdefault(sum(e) - shift, {})[e] = Fraction(v, d)
        den = LaurentPoly(nvars, den)
        return GradedSeries(nvars, order, {n: RatFun(LaurentPoly(nvars, t), den) for n, t in pieces.items()})

    def coefficient(self, n: int) -> RatFun:
        return self.data.get(n, RatFun.scalar(self.nvars, 0))

    def __eq__(self, other):
        if not isinstance(other, GradedSeries):
            return NotImplemented
        return self.first_mismatch(other) is None

    def __hash__(self):
        raise TypeError("GradedSeries is unhashable")

    def first_mismatch(self, other: "GradedSeries"):
        """Smallest degree where the two series differ, or None."""
        order = min(self.order, other.order)
        for n in sorted(set(self.data) | set(other.data)):
            if n > order:
                break
            if self.coefficient(n) != other.coefficient(n):
                return n
        return None

    def __str__(self):
        if not self.data:
            return "0 (+ O(deg %d))" % (self.order + 1)
        parts = []
        for n in sorted(self.data):
            parts.append("[%d] %s" % (n, self.data[n]))
        return "  +  ".join(parts) + "  + O(deg %d)" % (self.order + 1)

    __repr__ = __str__


# ---------------------------------------------------------------------------
# classical coefficient sequences


@lru_cache(maxsize=None)
def bernoulli(n: int) -> Fraction:
    """Bernoulli numbers with B_1 = -1/2."""
    if n == 0:
        return Fraction(1)
    return -Fraction(1, n + 1) * sum(Fraction(comb(n + 1, k)) * bernoulli(k) for k in range(n))


def exp_coefficient(n: int) -> Fraction:
    """Coefficients 1/n! of e^x."""
    return Fraction(1, factorial(n))


def bernoulli_coefficient(n: int) -> Fraction:
    """Coefficients B_n/n! of x/(e^x - 1), the regular part of 1/(1 - e^x) times -x."""
    return bernoulli(n) / factorial(n)


# ---------------------------------------------------------------------------
# truncated series: after lambda -> t*lambda every series here has a t^n part
# homogeneous of degree n in lambda, so one polynomial cut above total
# degree nmax holds it.  A rational one is a pair (terms, den) of integer
# numerators over one integer denominator: lambda^e has coefficient
# terms[e]/den.


def linear_powers(mu, nmax: int, known: dict):
    """(L, [p_0, ..., p_nmax]) with p_n = (nu.lambda)^n as an integer term
    dict, nu = L*mu and L the lcm of mu's denominators.  ``known`` maps each
    form to the powers built so far within one expansion, and is extended."""
    if mu not in known:
        L = lcm(*(Fraction(x).denominator for x in mu))
        unit = [tuple(int(i == j) for j in range(len(mu))) for i in range(len(mu))]
        known[mu] = L, [{(0,) * len(mu): 1}, {e: int(x * L) for e, x in zip(unit, mu) if x}]
    L, powers = known[mu]
    while len(powers) <= nmax:
        powers.append(mul_terms(powers[-1], powers[1]))
    return L, powers[: nmax + 1]


def power_series(powers, coefficient, scale=Fraction(1)):
    """sum_n a_n (mu.lambda)^n for a_n = scale*coefficient(n) and n up to the
    last of mu's ``linear_powers``, as (terms, den).  The monomials of p_n
    have degree n, so none collide: p_n's coefficient m gives m*a_n/L^n."""
    L, ps = powers
    top = len(ps) - 1
    a = [coefficient(n) for n in range(top + 1)]
    den = lcm(*(x.denominator for x in a))
    k = [x.numerator * (den // x.denominator) * L ** (top - n) * scale.numerator for n, x in enumerate(a)]
    return {e: m * kn for kn, p in zip(k, ps) if kn for e, m in p.items()}, den * L**top * scale.denominator


def _add(a, b):
    """The sum of two (terms, den) series."""
    (ta, da), (tb, db) = a, b
    den = lcm(da, db)
    terms = {e: v * (den // da) for e, v in ta.items()}
    sb = den // db
    for e, v in tb.items():
        terms[e] = terms.get(e, 0) + v * sb
    return terms, den


def regular_factor_series(c: Cyc, powers) -> LaurentPoly:
    """Series of 1/(1 - c*e^{t*mu.lambda}) for c != 1 (regular at t = 0), up
    to the last of mu's ``linear_powers``.

    Its t^n coefficient is a_n(c) * (mu.lambda)^n, a scalar times a power of
    the form: (1 - c*e^x) * sum_n a_n x^n = 1 gives a_0 = 1/(1 - c) and
    a_n = c/(1 - c) * sum_{k=1..n} a_{n-k}/k!.
    """
    L, ps = powers
    a = [(Cyc.rational(1) - c).inverse()]
    ratio = c * a[0]
    for n in range(1, len(ps)):
        a.append(ratio * sum((a[n - k] * exp_coefficient(k) for k in range(1, n + 1)), Cyc.rational(0)))
    nvars = len(next(iter(ps[0])))
    return LaurentPoly(nvars, {e: a[n] * Fraction(m, L**n) for n, p in enumerate(ps) for e, m in p.items()})


# ---------------------------------------------------------------------------
# the expansion itself


def expand_rational(x, order: int) -> GradedSeries:
    """Laurent-expand a rational character after lambda -> t*lambda.

    Denominator factors (1 - c e^{mu}) with c = 1 and mu != 0 are poles,
    each 1/(mu.lambda) times a Bernoulli series; the others have c != 1 and
    are regular at t = 0.  Terms with the same poles are expanded together,
    each series cut above total degree ``order`` plus their number of poles.
    A term with rational coefficients and no regular factor adds the series
    of its monomials e^{q.lambda} in integers.  The other terms multiply
    those series by their regular factors in ``Cyc``; their sum must be
    rational (AssertionError otherwise), and is then cleared to integers
    once.  The group's sum is multiplied by its pole series in integers.
    Every power series is read off the integer powers of its linear form,
    built once per form and expansion (``linear_powers``).  Over one
    denominator per expansion, the product of the distinct primitive pole
    forms at their largest multiplicity (``primitive_form``), so that both
    sides of ``hrr_check`` share it, the numerators add up to one integer
    series, which ``GradedSeries.split`` cuts into homogeneous pieces with
    ``Cyc`` coefficients.
    """
    if isinstance(x, LaurentPoly):
        x = RationalCharacter.from_poly(x)
    nvars = x.nvars
    known = {}
    groups = {}
    for num, den in x.terms:
        poles = tuple(f.mu for f in den if f.c == 1)
        groups.setdefault(poles, []).append((num, [f for f in den if f.c != 1]))
    expanded = []
    for poles, members in groups.items():
        nmax = order + len(poles)
        series = ({}, 1)
        twisted = LaurentPoly.zero(nvars)
        for num, regulars in members:
            if not regulars and num.all_rational():
                for q, c in num.terms.items():
                    series = _add(series, power_series(linear_powers(q, nmax, known), exp_coefficient, c.coeffs[0]))
                continue
            part = LaurentPoly.zero(nvars)
            for q, c in num.terms.items():
                terms, d = power_series(linear_powers(q, nmax, known), exp_coefficient)
                part = part + LaurentPoly(nvars, {e: Fraction(v, d) for e, v in terms.items()}) * c
            for f in regulars:
                part = part.mul(regular_factor_series(f.c, linear_powers(f.mu, nmax, known)), nmax)
            twisted = twisted + part
        cleared = integer_coefficients(twisted)
        if cleared is None:
            raise AssertionError("the terms with poles %s sum to a non-rational series" % (list(poles),))
        series = _add(series, cleared)
        for mu in poles:
            terms, d = power_series(linear_powers(mu, nmax, known), bernoulli_coefficient)
            series = mul_terms(series[0], terms, nmax), series[1] * d
        forms = [primitive_form(mu) for mu in poles]
        expanded.append((series, prod(-1 / s for s, _ in forms), Counter(f for _, f in forms)))
    common = Counter()
    for *_, forms in expanded:
        common |= forms
    den = {(0,) * nvars: 1}
    for f, k in common.items():
        den = mul_terms(den, linear_powers(f, k, known)[1][k])
    total = ({}, 1)
    for (terms, d), scale, forms in expanded:
        for f, j in (common - forms).items():
            terms = mul_terms(terms, linear_powers(f, j, known)[1][j])
        total = _add(total, ({e: v * scale.numerator for e, v in terms.items()}, d * scale.denominator))
    return GradedSeries.split(nvars, total, den, order)
