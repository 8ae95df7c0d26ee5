"""Reference expansion of rational characters for the differential tests.

The package's ``expand_rational`` before its series were carried as integer
numerators over one integer denominator: every coefficient of every
truncated series is a ``Cyc``, each power series is built by repeated
polynomial products, and the graded pieces come from one ``LaurentPoly``
numerator over the product of the pole forms.  ``series.expand_rational``
must give the same ``GradedSeries``, piece by piece and in print.
"""

from __future__ import annotations

from collections import Counter
from math import prod

from torickit.exactalg.cyclotomic import Cyc
from torickit.exactalg.intlinalg import primitive_form
from torickit.exactalg.laurent import LaurentPoly
from torickit.exactalg.ratchar import RationalCharacter
from torickit.exactalg.series import GradedSeries, RatFun, bernoulli_coefficient, exp_coefficient


def linear_form(nvars: int, coeffs) -> LaurentPoly:
    """The linear form sum_i coeffs[i] * lambda_i."""
    return LaurentPoly(nvars, {tuple(int(i == j) for j in range(nvars)): c for i, c in enumerate(coeffs) if c})


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


def split(num: LaurentPoly, den: LaurentPoly, order: int) -> GradedSeries:
    """num/den for a homogeneous den, by degree: a monomial of degree d in
    num belongs to the piece of degree d - deg(den)."""
    shift = sum(next(iter(den.terms)))
    pieces = {}
    for e, c in num.terms.items():
        pieces.setdefault(sum(e) - shift, {})[e] = c
    return GradedSeries(num.nvars, order, {n: RatFun(LaurentPoly(num.nvars, t), den) for n, t in pieces.items()})


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
    return split(total, den, order)
