"""Fixed-point data and equivariant Euler characteristics by localization.

Every torus-fixed point of the quotient is a minimal anticone delta.  Its
isotropy group is the finite kernel cut out by the delta-columns of the
weight matrix; tangent directions carry fractional weights obtained by
solving each remaining character against the delta-basis.  The Euler
characteristic of a class sums, over fixed points, the isotropy average of
the fiber trace divided by the K-theoretic Euler class of the normal
directions.  That average is a projection onto integral exponents, and the
window checks read the untwisted trace.  The twisted sectors, one per
isotropy element, enter only the index formula.  At the tangent Chern root
x = -w.lambda, Td(x)/x = 1/(1 - e^{w.lambda}), so each sector is one more
fraction over factors (1 - zeta e^{w}), expanded by ``expand_rational``
with the sectors that share its poles.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm, prod

from .errors import ConvergenceError, InputError
from .exactalg import (
    Cyc,
    Factor,
    GradedSeries,
    IntMatrix,
    LaurentPoly,
    RationalCharacter,
    rational_inverse,
    smith_normal_form,
)
from .exactalg.cyclotomic import parse_int
from .exactalg.laurent import exp_apply, exp_entry
from .exactalg.lp import weights_convex
from .exactalg.series import expand_rational
from .gitdata import GITData, as_integer, validate


class EquivClass:
    """Formal integer combination of line classes (u, s).

    u is a character of the gauge torus (length r), s a character of the
    big torus (length m); (u, s) is the equivariant line bundle induced by
    that pair on any quotient built from the same weight data.
    """

    __slots__ = ("r", "m", "terms")

    def __init__(self, r: int, m: int, terms=None):
        self.r = r
        self.m = m
        clean = {}
        for (u, s), coeff in (terms or {}).items():
            u = tuple(map(as_integer, u))
            s = tuple(map(as_integer, s))
            if len(u) != r or len(s) != m:
                raise InputError("line class has wrong character lengths")
            clean[(u, s)] = clean.get((u, s), 0) + as_integer(coeff)
        self.terms = {k: v for k, v in clean.items() if v}

    @staticmethod
    def zero(r: int, m: int) -> "EquivClass":
        return EquivClass(r, m)

    @staticmethod
    def line(r: int, m: int, u, s=None, coeff: int = 1) -> "EquivClass":
        s = tuple(s) if s is not None else (0,) * m
        return EquivClass(r, m, {(tuple(u), s): coeff})

    def _check(self, other: "EquivClass"):
        if (self.r, self.m) != (other.r, other.m):
            raise InputError("classes live on different GIT data shapes")

    def __add__(self, other: "EquivClass") -> "EquivClass":
        self._check(other)
        terms = dict(self.terms)
        for k, v in other.terms.items():
            terms[k] = terms.get(k, 0) + v
        return EquivClass(self.r, self.m, terms)

    def __neg__(self) -> "EquivClass":
        return EquivClass(self.r, self.m, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return EquivClass(self.r, self.m, {k: other * v for k, v in self.terms.items()})
        return self.tensor(other)

    __rmul__ = __mul__

    def tensor(self, other: "EquivClass") -> "EquivClass":
        self._check(other)
        out = {}
        for (u1, s1), c1 in self.terms.items():
            for (u2, s2), c2 in other.terms.items():
                key = (tuple(a + b for a, b in zip(u1, u2)), tuple(a + b for a, b in zip(s1, s2)))
                out[key] = out.get(key, 0) + c1 * c2
        return EquivClass(self.r, self.m, out)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, EquivClass)
            and (self.r, self.m, self.terms) == (other.r, other.m, other.terms)
        )

    def __hash__(self):
        return hash((self.r, self.m, frozenset(self.terms.items())))

    def sorted_terms(self):
        return sorted(self.terms.items())

    def to_json_list(self) -> list:
        return [{"u": list(u), "s": list(s), "coeff": c} for (u, s), c in self.sorted_terms()]

    @staticmethod
    def from_json_list(r: int, m: int, obj) -> "EquivClass":
        if not isinstance(obj, list):
            raise InputError("class spec must be a JSON list")
        terms = {}
        for entry in obj:
            if not isinstance(entry, dict) or "u" not in entry:
                raise InputError("each class spec entry needs at least a 'u' field")
            unknown = set(entry) - {"u", "s", "coeff"}
            if unknown:
                raise InputError("unknown fields in class spec: %s" % ", ".join(sorted(unknown)))
            if not all(isinstance(entry.get(k, []), list) for k in ("u", "s")):
                raise InputError("class spec fields 'u' and 's' must be JSON lists")
            try:
                u = tuple(parse_int(x) for x in entry["u"])
                s = tuple(parse_int(x) for x in entry.get("s", [0] * m))
                coeff = parse_int(entry.get("coeff", 1))
            except (TypeError, ValueError) as exc:
                raise InputError("bad class spec entry: %s" % exc) from None
            key = (u, s)
            terms[key] = terms.get(key, 0) + coeff
        return EquivClass(r, m, terms)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for (u, s), c in self.sorted_terms():
            core = "(u=%s; s=%s)" % (",".join(map(str, u)), ",".join(map(str, s)))
            parts.append(("%+d*" % c) + core)
        return " ".join(parts)

    __repr__ = __str__


@dataclass(frozen=True)
class FixedPointData:
    """Isotropy and tangent data of the fixed point attached to an anticone.

    Every weight here reads one solve, the rows ``inverse`` of D_delta^-1:
    a gauge character u has the coordinates ``inverse`` . u in the
    delta-basis.  The isotropy group is built only when read.
    """

    data: GITData
    delta: tuple[int, ...]
    inverse: tuple[tuple[Fraction, ...], ...]
    tangent_indices: tuple[int, ...] = field(init=False)
    tangent_weights: dict = field(init=False)

    def __post_init__(self):
        data = self.data
        tangent = tuple(j for j in range(1, data.m + 1) if j not in self.delta)
        # the tangent coordinate j has the weight of the line class (-D_j, e_j)
        weights = {
            j: self.fiber_exponent([-x for x in data.character(j)], [int(k == j) for k in range(1, data.m + 1)])
            for j in tangent
        }
        object.__setattr__(self, "tangent_indices", tangent)
        object.__setattr__(self, "tangent_weights", weights)

    @cached_property
    def group_elements(self) -> tuple[tuple[Fraction, ...], ...]:
        """v in Q^r / Z^r with D_delta^T v integral, from the Smith form."""
        r = self.data.r
        _, s, v = smith_normal_form(IntMatrix.from_rows(self.data.submatrix_columns(self.delta)))
        diag = [s[(k, k)] for k in range(r)]
        elements = set()
        for combo in itertools.product(*[range(d) for d in diag]):
            y = [Fraction(j, d) for j, d in zip(combo, diag)]
            elements.add(tuple(sum(Fraction(v[(i, k)]) * y[k] for k in range(r)) % 1 for i in range(r)))
        if len(elements) != prod(diag):
            raise AssertionError("isotropy enumeration does not match the Smith diagonal")
        return tuple(sorted(elements))

    @property
    def group_order(self) -> int:
        """|G| = |det D_delta|, with no group element built."""
        return abs(IntMatrix.from_rows(self.data.submatrix_columns(self.delta)).det())

    def fiber_exponent(self, u, s) -> tuple:
        """Weight of the line class (u, s) at this fixed point, length-m exponent."""
        exp = list(s)
        for row, i in zip(self.inverse, self.delta):
            exp[i - 1] += sum(a * b for a, b in zip(row, u))
        return tuple(map(exp_entry, exp))


def fixed_point_data(data: GITData, delta) -> FixedPointData:
    """The solve and tangent weights at a minimal anticone."""
    delta = tuple(sorted(delta))
    if len(delta) != data.r:
        raise InputError("fixed points are anticones of size r")
    cols = data.submatrix_columns(delta)
    try:
        inverse = tuple(map(tuple, rational_inverse([[c[i] for c in cols] for i in range(data.r)])))
    except ValueError:
        raise InputError("delta-columns are degenerate") from None
    if not all(sum(a * b for a, b in zip(row, data.omega)) > 0 for row in inverse):
        raise InputError("{%s} is not an anticone for this stability condition" % ",".join(map(str, delta)))
    return FixedPointData(data, delta, inverse)


def restrict(E: EquivClass, fp: FixedPointData, gi: int) -> LaurentPoly:
    """Trace of (g, e^lambda) on the fiber of E at the fixed point, where g is
    the isotropy element of index ``gi``.

    Each line class (u, s) contributes a root of unity times one monomial.
    """
    g = fp.group_elements[gi]
    out = LaurentPoly.zero(fp.data.m)
    for (u, s), coeff in E.sorted_terms():
        zeta = Cyc.root_of_unity(sum(a * b for a, b in zip(u, g))) * coeff
        out = out + LaurentPoly.monomial(fp.data.m, fp.fiber_exponent(u, s), zeta)
    return out


def untwisted_trace(E: EquivClass, fp: FixedPointData) -> LaurentPoly:
    """Trace of the identity of G on the fiber of E, with integer coefficients
    N_q.  G is D_delta^-T Z^r / Z^r, so g acts on e^q by a character chi_q
    that only the fractional part of q names, distinct parts naming distinct
    characters: the trace sum_q N_q chi_q(g) e^q is zero for every g iff N is."""
    out = {}
    for (u, s), coeff in E.terms.items():
        q = fp.fiber_exponent(u, s)
        out[q] = out.get(q, 0) + coeff
    return LaurentPoly(fp.data.m, out)


def fixed_point_list(data: GITData, subtorus=None) -> list[FixedPointData]:
    """Validate the data and return the data of every fixed point, in the
    order of the sorted anticones (``fixed_points_of_cells``).  A caller
    that already validated the data and holds its cells, as a wall crossing
    does for its chambers, reads that function and passes over no cells."""
    report = validate(data)
    if not report.passed:
        raise InputError("invalid GIT data: %s" % "; ".join(report.failures))
    return fixed_points_of_cells(data, report.cells, subtorus)


def fixed_points_of_cells(data: GITData, cells, subtorus=None) -> list[FixedPointData]:
    """The data of the fixed point at each of ``cells``, in their order: the
    wall cells of valid data off the walls, as ``validate`` reports them.

    With a ``subtorus`` the restricted tangent weights at every fixed point
    must pass the strict-convexity test, which is what rules out
    specializations with infinite-dimensional weight spaces.  On the whole
    torus the test always passes: w_j is 1 at coordinate j and 0 at the
    other tangent coordinates, so their sum is positive on every w_j.
    """
    fps = [fixed_point_data(data, d) for d in cells]
    if subtorus is not None:
        for fp in fps:
            if not weights_convex([exp_apply(subtorus, fp.tangent_weights[j]) for j in fp.tangent_indices]):
                raise ConvergenceError(
                    "tangent weights at fixed point {%s} are not strictly convex" % ",".join(map(str, fp.delta))
                )
    return fps


def vanishes_on(fps, E: EquivClass) -> bool:
    """Does E restrict to zero at every fixed point and isotropy element?"""
    return all(untwisted_trace(E, fp).is_zero() for fp in fps)


def _check_shape(data: GITData, E: EquivClass):
    if E.r != data.r or E.m != data.m:
        raise InputError("class shape does not match the GIT data")


def euler_characteristic(data: GITData, E: EquivClass, subtorus=None) -> RationalCharacter:
    """The equivariant Euler characteristic of E as a rational character,
    one fraction per fixed point.

    By ``untwisted_trace`` the average over G keeps exactly the monomials
    with integral exponent, and with m_j the lcm of the denominators of
    w_j, every eigenvalue zeta of direction j has 1/(1 - zeta e^{w_j}) =
    sum_{k<m_j} (zeta e^{w_j})^k / (1 - e^{m_j w_j}).  So a fixed point
    contributes the integral part of its untwisted trace times
    prod_j (1 + e^{w_j} + ... + e^{(m_j-1) w_j}), over prod_j (1 - e^{m_j w_j}).

    ``subtorus`` restricts the answer to a subtorus (exponents q become
    A^T q) once the tangent weights pass the test of ``fixed_points_of_cells``.
    """
    _check_shape(data, E)
    return localization_sum(fixed_point_list(data, subtorus), E, subtorus)


def localization_sum(fps, E: EquivClass, subtorus=None) -> RationalCharacter:
    """``euler_characteristic`` over a list of fixed points that the caller
    holds; with a ``subtorus``, the list must have passed its convexity test."""
    terms = []
    for fp in fps:
        weights = [fp.tangent_weights[j] for j in fp.tangent_indices]
        orders = [lcm(*(x.denominator for x in w)) for w in weights]
        part = untwisted_trace(E, fp)
        for w, mj in zip(weights, orders):
            part = part * LaurentPoly(part.nvars, {tuple(k * x for x in w): 1 for k in range(mj)})
        kept = {tuple(map(exp_entry, q)): c for q, c in part.terms.items() if all(x.denominator == 1 for x in q)}
        factors = [Factor(Cyc.rational(1), tuple(exp_entry(mj * x) for x in w)) for w, mj in zip(weights, orders)]
        terms.append((LaurentPoly(part.nvars, kept), factors))
    chi = RationalCharacter(E.m, terms)
    return chi if subtorus is None else chi.specialize(subtorus)


def sections_character(data: GITData, u, bound: int) -> LaurentPoly:
    """Brute-force character of degree-<=bound monomial sections of weight u.

    Enumerates lattice points a >= 0 with sum_i a_i D_i = u and total degree
    at most ``bound``; each contributes the monomial e^{a.lambda}.  This is
    the independent oracle for Euler characteristics concentrated in
    degree-zero cohomology.
    """
    u = tuple(int(x) for x in u)
    out = {}
    for a in itertools.product(range(bound + 1), repeat=data.m):
        if sum(a) > bound:
            continue
        total = [0] * data.r
        for ai, w in zip(a, data.weights):
            for k in range(data.r):
                total[k] += ai * w[k]
        if tuple(total) == u:
            out[a] = Cyc.rational(1)
    return LaurentPoly(data.m, out)


def hrr_rhs(data: GITData, E: EquivClass, order: int, subtorus=None) -> GradedSeries:
    """Graded expansion of the index predicted by the fixed-point formula.

    Per fixed point p and isotropy element g: the twisted Chern character of
    E, times the Todd class of each direction g fixes and a twisted
    geometric factor for the others, over the Euler class of the directions
    g fixes.  As Td(x)/x = 1/(1 - e^{w.lambda}) at the Chern root
    x = -w.lambda, this expands restrict(E, p, g)/|G| over prod_j
    (1 - zeta_{g,j} e^{w_j}) (``_twisted_sum``).  The sectors with the same
    poles sum their roots of unity as scalars before any polynomial product.
    """
    _check_shape(data, E)
    return expand_rational(_twisted_sum(fixed_point_list(data, subtorus), E, subtorus), order)


def _twisted_sum(fps, E: EquivClass, subtorus) -> RationalCharacter:
    """One fraction per fixed point and isotropy element.  The sectors fixing
    the same directions share their poles; g -> g^k, k prime to |G|, permutes
    them, fixes every exponent and weight and conjugates each root of unity,
    so each scalar ``expand_rational`` sums over them is rational."""
    terms = []
    for fp in fps:
        scale = Fraction(1, fp.group_order)
        for gi, g in enumerate(fp.group_elements):
            factors = [
                Factor(Cyc.root_of_unity(-sum(a * b for a, b in zip(fp.data.character(j), g))), fp.tangent_weights[j])
                for j in fp.tangent_indices
            ]
            terms.append((restrict(E, fp, gi) * scale, factors))
    chi = RationalCharacter(E.m, terms)
    return chi if subtorus is None else chi.specialize(subtorus)


@dataclass(frozen=True)
class HRRReport:
    """Both sides of the index comparison, expanded to the same order."""

    lhs: GradedSeries
    rhs: GradedSeries
    equal: bool
    first_mismatch_degree: int | None

    def to_json_dict(self) -> dict:
        return {
            "lhs": str(self.lhs),
            "rhs": str(self.rhs),
            "equal": self.equal,
            "first_mismatch_degree": self.first_mismatch_degree,
        }

    def __str__(self):
        lines = ["euler characteristic expansion:", "  " + str(self.lhs), "index formula:", "  " + str(self.rhs)]
        if self.equal:
            lines.append("MATCH through degree %d" % min(self.lhs.order, self.rhs.order))
        else:
            lines.append("MISMATCH at degree %s" % self.first_mismatch_degree)
        return "\n".join(lines)


def hrr_check(data: GITData, E: EquivClass, order: int, subtorus=None) -> HRRReport:
    """Expand the localization Euler characteristic, the isotropy projection,
    and compare it degree by degree with the index formula, which sums the
    twisted sectors; both sides read one fixed-point list."""
    _check_shape(data, E)
    fps = fixed_point_list(data, subtorus)
    lhs = expand_rational(localization_sum(fps, E, subtorus), order)
    rhs = expand_rational(_twisted_sum(fps, E, subtorus), order)
    mismatch = lhs.first_mismatch(rhs)
    return HRRReport(lhs, rhs, mismatch is None, mismatch)
