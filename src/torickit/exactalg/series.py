"""Truncated graded expansions of rational characters.

Substituting lambda -> t*lambda and expanding at t = 0 turns a rational
character into a Laurent series in t whose degree-n piece is a homogeneous
degree-n rational function of lambda_1..lambda_m.  Pieces of negative
degree arise from factors (1 - e^{mu}) which contribute a simple pole
1/(mu.lambda) times a Bernoulli-type series.  There is one denominator per
expansion, the product of the distinct primitive pole forms at their
largest multiplicity.

The expansion runs in integers: each truncated series is a dict of
integer numerators with one rational scale, every power series is read
off the integer powers of its linear form, and products go through
``laurent.mul_terms``.  A root of unity only multiplies scalars: the terms
sharing their poles sum one scalar per monomial and pattern of powers of
linear forms, and each sum must be rational.  Graded pieces are quotients
of ``LaurentPoly`` values in lambda with integer exponents and ``Cyc``
coefficients: the sparse polynomial type of the characters, whose
exponents in e^lambda may be fractional, read here as monomials lambda^e.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm, prod

from .cyclotomic import Cyc
from .intlinalg import primitive_form
from .laurent import LaurentPoly, mul_terms
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
        """num/den for num = (terms, x), x times an integer term dict, and den
        a homogeneous integer term dict, by degree: a monomial of degree e in
        num belongs to the piece of degree e - deg(den).  The pieces'
        coefficients become ``Cyc`` here."""
        terms, x = num
        shift = sum(next(iter(den)))
        pieces = {}
        for e, v in terms.items():
            if v:
                pieces.setdefault(sum(e) - shift, {})[e] = v * x
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
# degree nmax holds it, as a pair (terms, x) of integer numerators and one
# rational scale: lambda^e has coefficient x*terms[e].


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


def _sum(parts):
    """The sum of (terms, x) series, over the lcm of the x's denominators;
    the total is rescaled when a part brings a new factor."""
    total, den = defaultdict(int), 1
    for terms, x in parts:
        if den % x.denominator:
            grow = lcm(den, x.denominator) // den
            total, den = defaultdict(int, {e: v * grow for e, v in total.items()}), den * grow
        k = x.numerator * (den // x.denominator)
        for e, v in terms.items():
            total[e] += v * k
    return total, Fraction(1, den)


def _times(a, b, bound=None):
    """The product of two (terms, x) series, cut above total degree ``bound``."""
    return mul_terms(a[0], b[0], bound), a[1] * b[1]


def power_series(powers, coefficient):
    """sum_n a_n (mu.lambda)^n for a_n = coefficient(n) and n up to the last of
    mu's ``linear_powers``: p_n's coefficient m gives m*a_n/L^n."""
    L, ps = powers
    a = [coefficient(n) / L**n for n in range(len(ps))]
    return _sum((p, x) for p, x in zip(ps, a) if x)


def regular_factor_series(c: Cyc, nmax: int) -> list:
    """The coefficients a_0..a_nmax of 1/(1 - c*e^x) = sum_n a_n x^n for
    c != 1, which is regular at x = 0: (1 - c*e^x) * sum_n a_n x^n = 1 gives
    a_0 = 1/(1 - c) and a_n = c/(1 - c) * sum_{k=1..n} a_{n-k}/k!."""
    a = [(Cyc.rational(1) - c).inverse()]
    ratio = c * a[0]
    for n in range(1, nmax + 1):
        a.append(ratio * sum((a[n - k] * exp_coefficient(k) for k in range(1, n + 1)), Cyc.rational(0)))
    return a


def _scalar_terms(regulars, nmax: int, known: dict) -> list:
    """The terms of prod_f 1/(1 - c_f*e^{mu_f.lambda}) of total degree at
    most nmax, as (pattern, scalar, degree left): a scalar prod a_n(c_f)/L^n
    times prod (nu.lambda)^n over the pattern's sorted (mu, n), n > 0 and
    equal mu merged (``linear_powers``).  Degree tuples are enumerated
    directly, carrying the running scalar; a zero a_n ends its branch."""
    terms = [((), Cyc.rational(1), nmax)]
    for f in sorted(regulars, key=lambda f: f.mu):
        L = linear_powers(f.mu, 0, known)[0]
        a = [x * Fraction(1, L**n) for n, x in enumerate(regular_factor_series(f.c, nmax if any(f.mu) else 0))]
        grown = []
        for p, s, left in terms:
            head, k = (p[:-1], p[-1][1]) if p and p[-1][0] == f.mu else (p, 0)
            grown += [(head + ((f.mu, k + n),) if n else p, s * x, left - n) for n, x in enumerate(a[: left + 1]) if x]
        terms = grown
    return terms


def _times_powers(terms: dict, pattern, known: dict) -> dict:
    """terms times prod (nu.lambda)^n over a pattern's (mu, n), one power at
    a time, with nu as in ``linear_powers``."""
    for mu, n in pattern:
        terms = mul_terms(terms, linear_powers(mu, n, known)[1][n])
    return terms


# ---------------------------------------------------------------------------
# the expansion itself


def expand_rational(x, order: int) -> GradedSeries:
    """Laurent-expand a rational character after lambda -> t*lambda.

    Denominator factors (1 - c e^{mu}) with c = 1 and mu != 0 are poles,
    each 1/(mu.lambda) times a Bernoulli series; the others have c != 1 and
    are regular at t = 0.  Terms with the same poles are expanded together,
    each series cut above total degree ``order`` plus their number of poles.
    A term's regular factors expand as scalars times powers of their forms
    (``_scalar_terms``).  Over the group one scalar is summed per numerator
    exponent q and pattern of powers, and each sum must be rational
    (AssertionError otherwise), so no root of unity meets a polynomial.
    Then, in integers, each q's scalars times their powers are multiplied
    by the series of e^{q.lambda}, and the group's sum by its pole series.
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
    one = {(0,) * nvars: 1}
    groups = {}
    for num, den in x.terms:
        poles = tuple(f.mu for f in den if f.c == 1)
        groups.setdefault(poles, []).append((num, [f for f in den if f.c != 1]))
    expanded, common = [], Counter()
    for poles, members in groups.items():
        nmax = order + len(poles)
        scalars = defaultdict(Counter)  # q -> pattern -> summed scalar
        for num, regulars in members:
            terms = _scalar_terms(regulars, nmax, known)
            for q, c in num.terms.items():
                for pattern, s, _ in terms:
                    scalars[q][pattern] += c * s
        if not all(v.is_rational() for sums in scalars.values() for v in sums.values()):
            raise AssertionError("the terms with poles %s sum to a non-rational scalar" % (list(poles),))
        parts = []
        for q, sums in scalars.items():
            part = _sum((_times_powers(one, p, known), v.coeffs[0]) for p, v in sums.items() if v)
            parts.append(_times(part, power_series(linear_powers(q, nmax, known), exp_coefficient), nmax))
        series = _sum(parts)
        for mu in poles:
            series = _times(series, power_series(linear_powers(mu, nmax, known), bernoulli_coefficient), nmax)
        primitive = [primitive_form(mu) for mu in poles]
        pole_forms = Counter(f for _, f in primitive)
        expanded.append((series, prod(-1 / s for s, _ in primitive), pole_forms))
        common |= pole_forms
    # a primitive form has L = 1, so nu is the form itself
    den = _times_powers(one, common.items(), known)
    parts = ((_times_powers(terms, (common - f).items(), known), k * scale) for (terms, k), scale, f in expanded)
    return GradedSeries.split(nvars, _sum(parts), den, order)
