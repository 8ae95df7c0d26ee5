"""Sparse Laurent polynomials over a cyclotomic field.

One type serves two roles.  As a character, a monomial is e^{q.lambda} for
an exponent vector q with rational entries (the fractional weights showing
up at orbifold fixed points).  As a graded piece of an expansion in lambda
(see ``series``), a monomial is lambda^e with integer exponents; inside an
expansion ``series`` packs its monomials into ints and multiplies them
with its own kernel, so ``mul_terms`` serves ``LaurentPoly`` products
only: characters, ``RationalCharacter.power_series`` and ``RatFun``.  An
exponent is a tuple whose entries stay ``int`` or ``Fraction`` as given
(``exp_apply`` and the fixed-point weights give integral entries as int);
keys compare and hash by value, since hash(Fraction(n)) == hash(n).
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from collections import defaultdict
from fractions import Fraction
from math import lcm

from .cyclotomic import Cyc, format_fraction

Exponent = tuple  # tuple of int or Fraction, one entry per torus factor


def as_exponent(q) -> Exponent:
    """Keep int and Fraction entries as they are; read anything else as a Fraction."""
    return tuple(x if isinstance(x, (int, Fraction)) else Fraction(x) for x in q)

def exp_entry(x):
    """An integral entry as ``int``, a fractional one as it is: integer keys
    hash and add without Fraction arithmetic."""
    return x.numerator if type(x) is Fraction and x.denominator == 1 else x

def exp_zero(nvars: int) -> Exponent:
    return (0,) * nvars

def exp_add(a: Exponent, b: Exponent) -> Exponent:
    return tuple(map(operator.add, a, b))

def exp_apply(matrix, a: Exponent) -> Exponent:
    """Substitute lambda = A.mu: exponent q becomes A^T q (rows of A indexed like q)."""
    if len(matrix) != len(a):
        raise ValueError("substitution matrix has %d rows, exponent has %d entries" % (len(matrix), len(a)))
    width = len(matrix[0]) if matrix else 0
    out = [0] * width
    for qi, row in zip(a, matrix):
        if qi:
            for j, v in enumerate(row):
                out[j] += qi * v
    return tuple(map(exp_entry, out))

def format_exponent(q: Exponent) -> str:
    return "e[" + ",".join(format_fraction(Fraction(x)) for x in q) + "]"


def _integer_coefficients(p: "LaurentPoly"):
    """(terms, den): p's coefficients as integer numerators over the lcm of
    their denominators, or None when one of them is not rational."""
    values = [c.coeffs[0] for c in p.terms.values() if c.n == 1]
    if len(values) < len(p.terms):
        return None
    den = lcm(*(v.denominator for v in values))
    return {q: v.numerator * (den // v.denominator) for q, v in zip(p.terms, values)}, den


def mul_terms(a: dict, b: dict, bound=None) -> dict:
    """The product of two term dicts; under a ``bound``, only its monomials of
    total degree at most ``bound``: each term of ``a`` meets only the prefix
    of ``b``'s terms, sorted by degree, that stays under it.  A coefficient
    that cancels stays as a 0 entry, for the caller to drop.  It serves
    ``LaurentPoly.__mul__``/``.mul``, whose exponents may be fractional or
    negative and so are not packed as in ``series``."""
    terms = list(b.items())
    if bound is not None:
        terms.sort(key=lambda t: sum(t[0]))
        degrees = [sum(q) for q, _ in terms]
    acc = defaultdict(int)
    for q1, x in a.items():
        for q2, y in terms if bound is None else terms[: bisect_right(degrees, bound - sum(q1))]:
            acc[exp_add(q1, q2)] += x * y
    return acc


class LaurentPoly:
    """Finite sum of cyclotomic multiples of monomials e^{q.lambda}."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        clean = {}
        for q, c in (terms or {}).items():
            if not isinstance(c, Cyc):
                c = Cyc.rational(c)
            if c:
                clean[as_exponent(q)] = c
        self.terms = clean

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(nvars: int) -> "LaurentPoly":
        return LaurentPoly(nvars)

    @staticmethod
    def one(nvars: int) -> "LaurentPoly":
        return LaurentPoly(nvars, {exp_zero(nvars): Cyc.rational(1)})

    @staticmethod
    def monomial(nvars: int, q: Exponent, coeff=1) -> "LaurentPoly":
        return LaurentPoly(nvars, {q: coeff})

    # -- ring operations --------------------------------------------------

    def _check(self, other: "LaurentPoly"):
        if self.nvars != other.nvars:
            raise ValueError("mixing Laurent polynomials in different tori")

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check(other)
        terms = dict(self.terms)
        for q, c in other.terms.items():
            acc = terms.get(q)
            s = c if acc is None else acc + c
            if s:
                terms[q] = s
            elif acc is not None:
                del terms[q]
        out = LaurentPoly.__new__(LaurentPoly)
        out.nvars, out.terms = self.nvars, terms
        return out

    def __neg__(self) -> "LaurentPoly":
        out = LaurentPoly.__new__(LaurentPoly)
        out.nvars = self.nvars
        out.terms = {q: -c for q, c in self.terms.items()}
        return out

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other, bound=None) -> "LaurentPoly":
        """The product; for two polynomials with a ``bound``, only its monomials
        of total degree at most ``bound``, and no pair of terms above it is
        multiplied."""
        if isinstance(other, (int, Fraction, Cyc)):
            if not other:
                return LaurentPoly.zero(self.nvars)
            c0 = other if isinstance(other, Cyc) else Cyc.rational(other)
            s = c0.coeffs[0] if c0.n == 1 else None
            terms = {
                q: Cyc.rational(c.coeffs[0] * s) if s is not None and c.n == 1 else c * c0
                for q, c in self.terms.items()
            }
        else:
            self._check(other)
            a, b = _integer_coefficients(self), _integer_coefficients(other)
            if a and b:
                # rational operands: integer products over one denominator
                den = a[1] * b[1]
                terms = {q: Cyc.rational(Fraction(v, den)) for q, v in mul_terms(a[0], b[0], bound).items() if v}
            else:
                terms = {q: c for q, c in mul_terms(self.terms, other.terms, bound).items() if c}
        out = LaurentPoly.__new__(LaurentPoly)
        out.nvars, out.terms = self.nvars, terms
        return out

    __rmul__ = __mul__
    mul = __mul__  # a.mul(b, bound): the bounded product, spelled as a call

    def __pow__(self, k: int) -> "LaurentPoly":
        if k < 0:
            raise ValueError("negative powers need a monomial inverse")
        out = LaurentPoly.one(self.nvars)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, LaurentPoly)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def coefficient(self, q: Exponent) -> Cyc:
        return self.terms.get(as_exponent(q), Cyc.rational(0))

    def all_rational(self) -> bool:
        return all(c.is_rational() for c in self.terms.values())

    def truncate(self, bound) -> "LaurentPoly":
        """Keep monomials of total degree at most ``bound``."""
        return LaurentPoly(self.nvars, {q: c for q, c in self.terms.items() if sum(q) <= bound})

    # -- substitution ----------------------------------------------------------

    def apply_matrix(self, matrix) -> "LaurentPoly":
        """Exponent substitution q -> A^T q (torus specialization)."""
        width = len(matrix[0]) if matrix else 0
        terms = {}
        for q, c in self.terms.items():
            q2 = exp_apply(matrix, q)
            acc = terms.get(q2)
            s = c if acc is None else acc + c
            if s:
                terms[q2] = s
            elif acc is not None:
                del terms[q2]
        return LaurentPoly(width, terms)

    # -- rendering -----------------------------------------------------------

    def render(self, monomial=format_exponent, key=None, reverse=False) -> str:
        """Terms c*monomial(q) in ``sorted`` order under ``key`` and ``reverse``,
        joined by + and -; a non-rational c is bracketed, a unit c and the
        monomial of q = 0 are left out."""
        parts = []
        for q in sorted(self.terms, key=key, reverse=reverse):
            c = self.terms[q]
            cs = str(c) if c.is_rational() else "(%s)" % c
            parts.append({"1": "", "-1": "-"}.get(cs, cs + "*") + monomial(q) if any(q) else cs)
        return " + ".join(parts).replace("+ -", "- ") if parts else "0"

    def __str__(self):
        return self.render()

    def __repr__(self):
        return "LaurentPoly(%s)" % str(self)
