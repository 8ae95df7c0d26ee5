"""Truncated graded expansions of rational characters.

Substituting lambda -> t*lambda and expanding at t = 0 turns a rational
character into a Laurent series in t whose degree-n piece is a homogeneous
degree-n rational function of lambda_1..lambda_m.  Pieces of negative
degree arise from factors (1 - e^{mu}) which contribute a simple pole
1/(mu.lambda) times a Bernoulli-type series.  There is one denominator per
expansion, the product of the distinct primitive pole forms at their
largest multiplicity.

Graded pieces are quotients of ``LaurentPoly`` values in lambda with
integer exponents: the sparse polynomial type of the characters, whose
exponents in e^lambda may be fractional, read here as monomials lambda^e.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, prod

from .cyclotomic import Cyc
from .intlinalg import primitive_form
from .laurent import LaurentPoly
from .ratchar import RationalCharacter


# ---------------------------------------------------------------------------
# graded pieces: LaurentPoly in lambda_1..lambda_m with integer exponents


def linear_form(nvars: int, coeffs) -> LaurentPoly:
    """The linear form sum_i coeffs[i] * lambda_i."""
    return LaurentPoly(nvars, {tuple(int(i == j) for j in range(nvars)): c for i, c in enumerate(coeffs) if c})


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
    def split(num: LaurentPoly, den: LaurentPoly, order: int) -> "GradedSeries":
        """num/den for a homogeneous den, by degree: a monomial of degree d in
        num belongs to the piece of degree d - deg(den)."""
        shift = sum(next(iter(den.terms)))
        pieces = {}
        for e, c in num.terms.items():
            pieces.setdefault(sum(e) - shift, {})[e] = c
        return GradedSeries(num.nvars, order, {n: RatFun(LaurentPoly(num.nvars, t), den) for n, t in pieces.items()})

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
# degree nmax holds it


def linear_power_series(linear: LaurentPoly, nmax: int, coefficient) -> LaurentPoly:
    """sum_{n <= nmax} a_n * linear^n for a_n = coefficient(n)."""
    total = LaurentPoly.zero(linear.nvars)
    power = LaurentPoly.one(linear.nvars)
    for n in range(nmax + 1):
        if n:
            power = power * linear
        a = coefficient(n)
        if a:
            total = total + power * a
    return total


def regular_factor_series(c: Cyc, linear: LaurentPoly, nmax: int) -> LaurentPoly:
    """Series of 1/(1 - c*e^{t*linear}) for c != 1 (regular at t = 0).

    Its t^n coefficient is a_n(c) * linear^n, a scalar times a power of the
    form: (1 - c*e^x) * sum_n a_n x^n = 1 gives a_0 = 1/(1 - c) and
    a_n = c/(1 - c) * sum_{k=1..n} a_{n-k}/k!.
    """
    a = [(Cyc.rational(1) - c).inverse()]
    ratio = c * a[0]
    for n in range(1, nmax + 1):
        a.append(ratio * sum((a[n - k] * exp_coefficient(k) for k in range(1, n + 1)), Cyc.rational(0)))
    return linear_power_series(linear, nmax, a.__getitem__)


# ---------------------------------------------------------------------------
# the expansion itself


def expand_rational(x, order: int) -> GradedSeries:
    """Laurent-expand a rational character after lambda -> t*lambda.

    Denominator factors (1 - c e^{mu}) with c = 1 and mu != 0 are poles,
    each 1/(mu.lambda) times a Bernoulli series; the others have c != 1 and
    are regular at t = 0.  Terms with the same poles are expanded together:
    their numerators' series times their regular factors are summed, the
    sum must be rational (AssertionError otherwise), and it is multiplied
    once by the pole series.  Each series is one polynomial in lambda cut
    above total degree ``order`` plus its number of poles.  Over one
    denominator per expansion, the product of the distinct primitive pole
    forms at their largest multiplicity (``primitive_form``), so that both
    sides of ``hrr_check`` share it, the numerators add up to one
    polynomial, which ``GradedSeries.split`` cuts into homogeneous pieces.
    """
    if isinstance(x, LaurentPoly):
        x = RationalCharacter.from_poly(x)
    nvars = x.nvars
    zero = LaurentPoly.zero(nvars)
    groups = {}
    for num, den in x.terms:
        poles = tuple(f.mu for f in den if f.c == 1)
        groups.setdefault(poles, []).append((num, [f for f in den if f.c != 1]))
    expanded = []
    for poles, members in groups.items():
        nmax = order + len(poles)
        series = zero
        for num, regulars in members:
            part = sum(
                (linear_power_series(linear_form(nvars, q), nmax, exp_coefficient) * c for q, c in num.terms.items()),
                zero,
            )
            for f in regulars:
                part = part.mul(regular_factor_series(f.c, linear_form(nvars, f.mu), nmax), nmax)
            series = series + part
        if not series.all_rational():
            raise AssertionError("the terms with poles %s sum to a non-rational series" % (list(poles),))
        for mu in poles:
            series = series.mul(linear_power_series(linear_form(nvars, mu), nmax, bernoulli_coefficient), nmax)
        forms = [primitive_form(mu) for mu in poles]
        expanded.append((series, prod(-1 / s for s, _ in forms), Counter(f for _, f in forms)))
    common = Counter()
    for *_, forms in expanded:
        common |= forms
    one = LaurentPoly.one(nvars)
    den = prod((linear_form(nvars, f) ** k for f, k in common.items()), start=one)
    total = zero
    for series, scale, forms in expanded:
        cofactor = prod((linear_form(nvars, f) ** j for f, j in (common - forms).items()), start=one * scale)
        total = total + series * cofactor
    return GradedSeries.split(total, den, order)
