"""Rational characters: sums of fractions num / prod (1 - c e^{mu.lambda}).

This is the shape localization produces, and it is kept that way: terms
accumulate, nothing is eagerly put over a common denominator, and no
multivariate gcd is ever attempted.  Equality clears the finite set of
denominator factors and compares Laurent polynomials exactly.  The factors
(1 - e^{s f}) of one primitive form f, whatever s, clear as one (1 - e^{L f}),
so opposite and multiple factors do not each double the cleared numerator.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .cyclotomic import Cyc
from .intlinalg import primitive_form
from .laurent import LaurentPoly, exp_add, exp_apply, exp_entry, exp_zero, format_exponent


class DenominatorCollapseError(ValueError):
    """A specialization sent a denominator factor to zero identically."""


@dataclass(frozen=True, eq=False)
class Factor:
    """One denominator factor (1 - c * e^{mu.lambda}), compared and hashed by
    representation, so that no two roots of unity are ever compared."""

    c: Cyc
    mu: tuple

    def sort_key(self):
        return (self.mu, self.c.n, self.c.coeffs)

    def __eq__(self, other):
        return self.sort_key() == other.sort_key() if isinstance(other, Factor) else NotImplemented

    def __hash__(self):
        return hash(self.sort_key())

    def as_poly(self, nvars: int) -> LaurentPoly:
        return LaurentPoly(nvars, {exp_zero(nvars): Cyc.rational(1), self.mu: -self.c})

    def times(self, p: LaurentPoly, k: int = 1) -> LaurentPoly:
        """p * (this factor)^k, each time as p - c * p * e^mu: a shift and a
        subtraction, with no coefficient product when c = 1."""
        minus_c = None if self.c == 1 else -self.c
        for _ in range(k):
            shifted = LaurentPoly.__new__(LaurentPoly)
            shifted.nvars = p.nvars
            shifted.terms = {exp_add(q, self.mu): -a if minus_c is None else a * minus_c for q, a in p.terms.items()}
            p = p + shifted
        return p

    def divide(self, p: LaurentPoly):
        """p / (this factor), or None when that is not a Laurent polynomial.
        On each coset e + Z mu, keyed by k = e[i] // mu[i] at the first nonzero
        mu[i], the quotient runs q_k = p_k + c * q_{k-1} up from p's lowest
        term; it is exact iff the step at p's highest term gives zero."""
        mu, c = self.mu, None if self.c == 1 else self.c
        i = next(j for j, x in enumerate(mu) if x)
        cosets = {}
        for e, a in p.terms.items():
            k = e[i] // mu[i]
            cosets.setdefault(tuple(exp_entry(x - k * m) for x, m in zip(e, mu)), {})[k] = a
        terms = {}
        for base, coeffs in cosets.items():
            lo, hi = min(coeffs), max(coeffs)
            acc = coeffs[lo]
            for k in range(lo, hi):
                if acc:
                    terms[tuple(exp_entry(x + k * m) for x, m in zip(base, mu))] = acc
                carry = acc if c is None else acc * c
                acc = carry + coeffs[k + 1] if k + 1 in coeffs else carry
            if acc:
                return None
        out = LaurentPoly.__new__(LaurentPoly)
        out.nvars, out.terms = p.nvars, terms
        return out

    def __str__(self):
        cs = str(self.c)
        if cs == "1":
            return "(1 - %s)" % format_exponent(self.mu)
        if cs == "-1":
            return "(1 + %s)" % format_exponent(self.mu)
        return "(1 - (%s)*%s)" % (cs, format_exponent(self.mu))


_ONE = Cyc.rational(1)


def _normalize_factors(num: LaurentPoly, factors):
    """Fold constant factors into the numerator; reject identically-zero ones."""
    kept = []
    for f in factors:
        if any(f.mu):
            kept.append(f)
        elif f.c == Cyc.rational(1):
            raise DenominatorCollapseError("denominator factor (1 - e^0) vanishes identically")
        else:
            num = num * (Cyc.rational(1) - f.c).inverse()
    kept.sort(key=Factor.sort_key)
    return num, tuple(kept)


class RationalCharacter:
    """A finite sum of terms  numerator / prod of (1 - c e^{mu})."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        merged = {}
        for num, factors in terms or []:
            num, den = _normalize_factors(num, factors)
            if not num.is_zero():
                prev = merged.get(den)
                merged[den] = num if prev is None else prev + num
        self.terms = tuple((n, d) for d, n in merged.items() if not n.is_zero())

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero(nvars: int) -> "RationalCharacter":
        return RationalCharacter(nvars, [])

    @staticmethod
    def from_poly(poly: LaurentPoly) -> "RationalCharacter":
        return RationalCharacter(poly.nvars, [(poly, ())])

    @staticmethod
    def one(nvars: int) -> "RationalCharacter":
        return RationalCharacter.from_poly(LaurentPoly.one(nvars))

    @staticmethod
    def fraction(num: LaurentPoly, factors) -> "RationalCharacter":
        return RationalCharacter(num.nvars, [(num, factors)])

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other):
        if self.nvars != other.nvars:
            raise ValueError("characters live on different tori")

    def __add__(self, other: "RationalCharacter") -> "RationalCharacter":
        self._check(other)
        return RationalCharacter(self.nvars, list(self.terms) + list(other.terms))

    def __neg__(self) -> "RationalCharacter":
        return RationalCharacter(self.nvars, [(-n, d) for n, d in self.terms])

    def __sub__(self, other: "RationalCharacter") -> "RationalCharacter":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Cyc)):
            return RationalCharacter(self.nvars, [(n * other, d) for n, d in self.terms])
        self._check(other)
        out = []
        for n1, d1 in self.terms:
            for n2, d2 in other.terms:
                out.append((n1 * n2, d1 + d2))
        return RationalCharacter(self.nvars, out)

    __rmul__ = __mul__

    # -- structure ------------------------------------------------------------

    def specialize(self, matrix) -> "RationalCharacter":
        """Restrict to a subtorus: every exponent q becomes A^T q.

        Raises DenominatorCollapseError when a factor (1 - e^{mu}) lands on
        zero; constant nonzero factors are folded into the numerator.
        """
        width = len(matrix[0]) if matrix else 0
        out = []
        for num, den in self.terms:
            new_num = num.apply_matrix(matrix)
            new_den = [Factor(f.c, exp_apply(matrix, f.mu)) for f in den]
            out.append((new_num, new_den))
        return RationalCharacter(width, out)

    def _clearing(self):
        """(common, parts): the canonical factors, factor -> largest multiplicity
        over the terms, and per term (numerator, multiplier or None, counts).
        A factor with c != 1 is its own.  With c = 1, mu = s f (``primitive_form``):
        s < 0 flips by 1/(1 - e^mu) = -e^{-mu}/(1 - e^{-mu}), and then
        1/(1 - e^{s f}) = (1 + e^{s f} + ... + e^{(L/s - 1) s f})/(1 - e^{L f}),
        L the rational lcm of the multiples |s| of f over the character."""
        nvars = self.nvars
        split, scale = [], {}
        for num, den in self.terms:
            count, poles, shift, sign = {}, [], exp_zero(nvars), 1
            for f in den:
                if f.c != _ONE:
                    count[f] = count.get(f, 0) + 1
                    continue
                s, g = primitive_form(f.mu)
                if s < 0:
                    s, shift, sign = -s, tuple(map(operator.sub, shift, f.mu)), -sign
                poles.append((s, g))
                t = scale.get(g, s)
                scale[g] = Fraction(lcm(s.numerator, t.numerator), gcd(s.denominator, t.denominator))
            # each flip adds |s| f, lexicographically positive: no flip, no shift
            flip = LaurentPoly.monomial(nvars, tuple(map(exp_entry, shift)), sign) if any(shift) else None
            split.append((num, flip, poles, count))
        canonical = {g: Factor(_ONE, tuple(exp_entry(L * x) for x in g)) for g, L in scale.items()}
        common, parts = {}, []
        for num, multiplier, poles, count in split:
            for s, g in poles:
                f = canonical[g]
                count[f] = count.get(f, 0) + 1
                n = (scale[g] / s).numerator
                if n > 1:
                    geometric = LaurentPoly(nvars, {tuple(exp_entry(j * s * x) for x in g): 1 for j in range(n)})
                    multiplier = geometric if multiplier is None else multiplier * geometric
            for f, k in count.items():
                if k > common.get(f, 0):
                    common[f] = k
            parts.append((num, multiplier, count))
        return common, parts

    def _cleared(self):
        """(cleared numerator, canonical factors) from one ``_clearing``."""
        common, parts = self._clearing()
        total = LaurentPoly.zero(self.nvars)
        for num, multiplier, count in parts:
            if multiplier is not None:
                num = num * multiplier
            for f, k in common.items():
                num = f.times(num, k - count.get(f, 0))
            total = total + num
        return total, common

    def denominator_factors(self) -> dict:
        """The canonical common denominator, factor -> multiplicity: each c != 1
        factor, and one (1 - e^{L f}) per primitive form f of the c = 1 ones."""
        return self._clearing()[0]

    def cleared_numerator(self) -> LaurentPoly:
        """The single numerator over the product of ``denominator_factors``,
        without expanding that product."""
        return self._cleared()[0]

    def as_laurent_polynomial(self):
        """The character as a finite Laurent polynomial, or None if it is not one.
        A polynomial P clears to P times every factor, so each one-factor
        division stays a polynomial and a failed one proves P does not exist."""
        p, common = self._cleared()
        for f, k in common.items():
            for _ in range(k):
                p = f.divide(p)
                if p is None:
                    return None
        return p

    def is_zero(self) -> bool:
        return self.cleared_numerator().is_zero()

    def power_series(self, bound) -> LaurentPoly:
        """Geometric expansion keeping monomials of total degree <= bound.

        Every denominator factor must have strictly positive total degree,
        which is the regime where the character is an honest power series
        in the e^{lambda} variables.
        """
        total = LaurentPoly.zero(self.nvars)
        for num, den in self.terms:
            part = num.truncate(bound)
            if part.is_zero():
                continue
            # monomials of negative degree in the numerator push the factor
            # expansions correspondingly further
            reach = bound - min(min(sum(q) for q in part.terms), 0)
            for f in den:
                if sum(f.mu) <= 0:
                    raise ValueError("factor %s is not expandable in this grading" % f)
                terms = {exp_zero(self.nvars): Cyc.rational(1)}
                acc_mu, acc_c = f.mu, f.c
                while sum(acc_mu) <= reach:
                    terms[acc_mu] = acc_c
                    acc_mu = tuple(a + b for a, b in zip(acc_mu, f.mu))
                    acc_c = acc_c * f.c
                part = part.mul(LaurentPoly(self.nvars, terms), bound)
            total = total + part
        return total

    # -- comparison and rendering ----------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, RationalCharacter):
            return NotImplemented
        return rat_equal(self, other)

    def __hash__(self):  # structural identity only makes sense via rat_equal
        raise TypeError("rational characters are unhashable")

    def __str__(self):
        if not self.terms:
            return "0"
        chunks = []
        for num, den in sorted(self.terms, key=lambda t: tuple(f.sort_key() for f in t[1])):
            ns = str(num)
            if den:
                if len(num.terms) > 1:
                    ns = "(" + ns + ")"
                chunks.append(ns + " / " + "".join(str(f) for f in den))
            else:
                chunks.append(ns)
        return "  +  ".join(chunks)

    def __repr__(self):
        return "RationalCharacter(%s)" % str(self)


def rat_equal(a: RationalCharacter, b: RationalCharacter) -> bool:
    """Exact equality of rational characters as rational functions."""
    a._check(b)
    return (a - b).is_zero()


def specialize(x, matrix):
    """Apply the subtorus substitution q -> A^T q to a Laurent polynomial or
    rational character."""
    if isinstance(x, RationalCharacter):
        return x.specialize(matrix)
    if isinstance(x, LaurentPoly):
        return x.apply_matrix(matrix)
    raise TypeError("specialize expects a LaurentPoly or RationalCharacter")
