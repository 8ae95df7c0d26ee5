"""Reference clearing of rational characters for the differential tests.

The package's clearing before it went canonical: every distinct ``Factor``
is its own denominator factor, at its largest multiplicity over the terms,
so (1 - e^mu) and (1 - e^-mu), or (1 - e^f) and (1 - e^2f), are two
factors.  ``RationalCharacter`` must agree with it on ``is_zero``, on
``as_laurent_polynomial`` and on whether the cleared numerator is rational.
"""

from __future__ import annotations

from torickit.exactalg.laurent import LaurentPoly


def denominator_factors(x) -> dict:
    """Multiset (factor -> max multiplicity over terms) of all factors."""
    common = {}
    for _, den in x.terms:
        for f in den:
            common[f] = max(common.get(f, 0), den.count(f))
    return common


def cleared_numerator(x) -> LaurentPoly:
    """The single numerator over the product of ``denominator_factors``."""
    common = denominator_factors(x)
    total = LaurentPoly.zero(x.nvars)
    for num, den in x.terms:
        for f, k in common.items():
            num = f.times(num, k - den.count(f))
        total = total + num
    return total


def as_laurent_polynomial(x):
    """The character as a Laurent polynomial, or None if it is not one."""
    p = cleared_numerator(x)
    for f, k in denominator_factors(x).items():
        for _ in range(k):
            p = f.divide(p)
            if p is None:
                return None
    return p
