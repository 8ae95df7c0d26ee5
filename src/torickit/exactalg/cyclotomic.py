"""Exact arithmetic in cyclotomic fields Q(zeta_N).

A :class:`Cyc` holds an element of the N-th cyclotomic field in the power
basis 1, z, ..., z^(phi(N)-1) of a primitive N-th root of unity z, with
rational coordinates.  Arithmetic is exact.  The conductor N is 1 if and
only if the value is rational; any other value sits at the lcm of the
conductors of its operands, and ``==`` promotes both sides to one field.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

from .intlinalg import rational_solve


def _poly_divmod(num: list[Fraction], den: list[Fraction]):
    """Quotient and remainder of dense rational polynomials (low degree first)."""
    num = list(num)
    q = [Fraction(0)] * max(len(num) - len(den) + 1, 0)
    dlead = den[-1]
    for i in range(len(num) - len(den), -1, -1):
        c = num[i + len(den) - 1] / dlead
        q[i] = c
        if c:
            for j, d in enumerate(den):
                num[i + j] -= c * d
    while num and not num[-1]:
        num.pop()
    return q, num


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[Fraction, ...]:
    """Coefficients of the n-th cyclotomic polynomial, constant term first."""
    if n == 1:
        return (Fraction(-1), Fraction(1))
    # (x^n - 1) / prod_{d|n, d<n} Phi_d
    poly = [Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)]
    for d in range(1, n):
        if n % d == 0:
            q, r = _poly_divmod(poly, list(cyclotomic_polynomial(d)))
            if r:
                raise AssertionError("cyclotomic division must be exact")
            poly = q
    return tuple(poly)


@lru_cache(maxsize=None)
def _phi(n: int) -> int:
    return len(cyclotomic_polynomial(n)) - 1


def _reduce_mod_cyclotomic(coeffs: list[Fraction], n: int) -> list[Fraction]:
    """Reduce a dense polynomial in z modulo Phi_n; returns length phi(n)."""
    phi = _phi(n)
    mod = cyclotomic_polynomial(n)
    coeffs = list(coeffs)
    for i in range(len(coeffs) - 1, phi - 1, -1):
        c = coeffs[i]
        if c:
            coeffs[i] = Fraction(0)
            for j in range(phi):
                coeffs[i - phi + j] -= c * mod[j]
    coeffs = coeffs[:phi]
    coeffs += [Fraction(0)] * (phi - len(coeffs))
    return coeffs


class Cyc:
    """An element of a cyclotomic field; ``n == 1`` exactly when it is rational.

    A non-rational value keeps the conductor it was built at, which need not
    be minimal (zeta_12^4 is zeta_3 at conductor 12), so equality promotes,
    hashing does not read the coordinates of a non-rational value, and
    printing finds the least conductor first.
    """

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs):
        coeffs = _reduce_mod_cyclotomic([Fraction(c) for c in coeffs], n)
        # the power basis starts with 1, so the value is rational iff the
        # other coordinates vanish
        if not any(coeffs[1:]):
            n, coeffs = 1, coeffs[:1]
        self.n = n
        self.coeffs = tuple(coeffs)

    # -- constructors -------------------------------------------------

    @staticmethod
    def rational(value) -> "Cyc":
        return _rational(value)

    @staticmethod
    def root_of_unity(theta) -> "Cyc":
        """exp(2*pi*i*theta) for rational theta."""
        theta = Fraction(theta) % 1
        n, k = theta.denominator, theta.numerator
        vec = [Fraction(0)] * (k + 1)
        vec[k] = Fraction(1)
        return Cyc(n, vec)

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_rational(self) -> bool:
        return self.n == 1

    # -- arithmetic ----------------------------------------------------

    def _promoted(self, n: int) -> list[Fraction]:
        """Coordinates in Q(zeta_n), for n a multiple of the conductor:
        zeta_m^j is zeta_n^(j*n/m), reduced modulo Phi_n."""
        if n == self.n:
            return list(self.coeffs)
        step = n // self.n
        spread = [Fraction(0)] * ((len(self.coeffs) - 1) * step + 1)
        spread[::step] = self.coeffs
        return _reduce_mod_cyclotomic(spread, n)

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.n == 1 and other.n == 1:
            return _rational(self.coeffs[0] + other.coeffs[0])
        n = self.n * other.n // gcd(self.n, other.n)
        a, b = self._promoted(n), other._promoted(n)
        return Cyc(n, [x + y for x, y in zip(a, b)])

    __radd__ = __add__

    def __neg__(self):
        return _reduced(self.n, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.n == 1 or other.n == 1:
            # a nonzero rational multiple keeps the conductor and the reduction
            q, c = (self.coeffs[0], other) if self.n == 1 else (other.coeffs[0], self)
            return _reduced(c.n, tuple(q * x for x in c.coeffs)) if q else _rational(q)
        n = self.n * other.n // gcd(self.n, other.n)
        a, b = self._promoted(n), other._promoted(n)
        prod = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        prod[i + j] += x * y
        return Cyc(n, prod)

    __rmul__ = __mul__

    def inverse(self) -> "Cyc":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic value")
        if self.n == 1:
            return _rational(1 / self.coeffs[0])
        # extended Euclid: u*self + v*Phi_n = 1 in Q[z]
        mod = list(cyclotomic_polynomial(self.n))
        r0, r1 = mod, [c for c in self.coeffs]
        while r1 and not r1[-1]:
            r1.pop()
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while True:
            if len(r1) == 1:
                inv = 1 / r1[0]
                return Cyc(self.n, [c * inv for c in s1])
            q, r = _poly_divmod(r0, r1)
            s = list(s0)
            s += [Fraction(0)] * (len(q) + len(s1) - 1 - len(s))
            for i, qc in enumerate(q):
                if qc:
                    for j, sc in enumerate(s1):
                        s[i + j] -= qc * sc
            while s and not s[-1]:
                s.pop()
            r0, r1, s0, s1 = r1, r, s1, s or [Fraction(0)]

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return _coerce(other) * self.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out, base = _ONE, self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- comparison / hashing -------------------------------------------

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.n == other.n:
            return self.coeffs == other.coeffs
        if self.n == 1 or other.n == 1:
            return False
        n = self.n * other.n // gcd(self.n, other.n)
        return self._promoted(n) == other._promoted(n)

    def __hash__(self):
        """A rational value hashes as its Fraction, so it finds and is found
        by equal int and Fraction keys.  Every non-rational value shares one
        hash, since its coordinates depend on the conductor it sits at: such
        keys stay correct, only slower to look up."""
        return hash(self.coeffs[0]) if self.n == 1 else _NONRATIONAL_HASH

    def __bool__(self):
        return not self.is_zero()

    # -- rendering -------------------------------------------------------

    def __repr__(self):
        return "Cyc(%d, %s)" % (self.n, list(self.coeffs))

    def _least_field(self) -> tuple[int, list[Fraction]]:
        """(d, coordinates): the least d | n whose field Q(zeta_d) holds the
        value, found by one exact solve per divisor against the images of
        its power basis, and the value's coordinates there."""
        for d in range(1, self.n):
            if self.n % d == 0:
                units = [tuple(Fraction(int(i == j)) for i in range(_phi(d))) for j in range(_phi(d))]
                x = rational_solve([_reduced(d, unit)._promoted(self.n) for unit in units], list(self.coeffs))
                if x is not None:
                    return d, x
        return self.n, list(self.coeffs)

    def __str__(self):
        """The value at its least conductor, so equal values print alike."""
        n, coeffs = self._least_field()
        parts = []
        for k, c in enumerate(coeffs):
            if not c:
                continue
            if k == 0:
                parts.append(format_fraction(c))
            else:
                mon = "z%d" % n if k == 1 else "z%d^%d" % (n, k)
                if c == 1:
                    parts.append(mon)
                elif c == -1:
                    parts.append("-" + mon)
                else:
                    parts.append(format_fraction(c) + "*" + mon)
        return " + ".join(parts).replace("+ -", "- ") if parts else "0"


def _reduced(n: int, coeffs: tuple) -> Cyc:
    """A value already reduced modulo Phi_n, and rational iff n == 1, as is."""
    out = Cyc.__new__(Cyc)
    out.n, out.coeffs = n, coeffs
    return out


def _rational(value) -> Cyc:
    return _reduced(1, (value if type(value) is Fraction else Fraction(value),))


def _coerce(value):
    if isinstance(value, Cyc):
        return value
    return _rational(value) if isinstance(value, (int, Fraction)) else NotImplemented


def format_fraction(q: Fraction) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else "%d/%d" % (q.numerator, q.denominator)


def parse_fraction(text) -> Fraction:
    """Parse "p/q" or an integer literal (also ints, but not a bool); a zero
    denominator raises ValueError, like any other malformed number."""
    if isinstance(text, bool):
        raise ValueError("%s is not a number" % text)
    if isinstance(text, (int, Fraction)):
        return Fraction(text)
    try:
        return Fraction(str(text).strip())
    except ZeroDivisionError:
        raise ValueError("%s has a zero denominator" % text) from None


def parse_int(text) -> int:
    """Parse an integral value; a non-integer such as 1.5 raises ValueError
    instead of being truncated."""
    q = parse_fraction(text)
    if q.denominator != 1:
        raise ValueError("%s is not an integer" % text)
    return q.numerator


_ONE = Cyc(1, [Fraction(1)])
_NONRATIONAL_HASH = 0x43796320  # any fixed value; see Cyc.__hash__
