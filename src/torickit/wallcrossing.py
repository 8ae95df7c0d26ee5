"""Single wall crossings: the wall, its primitive normal, crepancy, and the
extended GIT data whose three chambers carry both sides and their common
resolution.

A crossing also holds what every class sent across it shares: the fixed
points of its chambers and the Koszul relation of the stratum that turns
unstable on the minus side.  That stratum is cut out by the coordinates
whose characters pair negatively with the wall normal (``partition_M``), so
its relation, like the window widths ``eta_invariants``, depends on the
crossing alone; ``windows`` reads it for each lift.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .errors import InputError, NotAdjacentError, OnWallError, OneSidedWallError, WindowLiftError
from .exactalg import kernel_basis, oriented_primitive_vector, parse_fraction
from .gitdata import Chamber, GITData, chamber_of_fixed_points, is_on_wall, minimal_anticones, validate
from .localization import EquivClass, FixedPointData, fixed_points_of_cells, vanishes_on


@dataclass(frozen=True)
class WallCrossing:
    """Two adjacent chambers separated by one wall, with its primitive normal.

    The two sides' data, their fixed points and the minus side's Koszul
    relation are computed on first read and then held, so checks that sweep
    many classes across one crossing compute them once.
    """

    base: GITData  # carries omega_plus as its stability condition
    omega_plus: tuple
    omega_minus: tuple
    omega_zero: tuple
    e: tuple[int, ...]
    crepant: bool
    # the minimal anticones of the two sides, from their ``validate`` reports
    cells_plus: tuple = field(compare=False)
    cells_minus: tuple = field(compare=False)

    @cached_property
    def data_plus(self) -> GITData:
        return self.base.with_omega(self.omega_plus)

    @cached_property
    def data_minus(self) -> GITData:
        return self.base.with_omega(self.omega_minus)

    @cached_property
    def fixed_points_plus(self) -> tuple[FixedPointData, ...]:
        """The plus side's fixed points, from the cells ``make_wall_crossing``
        validated, in ``fixed_point_list``'s order."""
        return tuple(fixed_points_of_cells(self.data_plus, self.cells_plus))

    @cached_property
    def fixed_points_minus(self) -> tuple[FixedPointData, ...]:
        """The minus side's fixed points, as ``fixed_points_plus``."""
        return tuple(fixed_points_of_cells(self.data_minus, self.cells_minus))

    @cached_property
    def koszul_relation(self) -> EquivClass:
        """prod (1 - x) over the ``unstable_koszul_classes`` x, checked to
        restrict to zero at every minus-side fixed point."""
        one = EquivClass.line(self.base.r, self.base.m, (0,) * self.base.r)
        relation = one
        for x in unstable_koszul_classes(self):
            relation = relation.tensor(one - x)
        if not vanishes_on(self.fixed_points_minus, relation):
            raise WindowLiftError("Koszul relation does not vanish on the minus side")
        return relation

    def pairing(self, i: int) -> int:
        """D_i . e for the i-th character (1-based)."""
        return sum(a * b for a, b in zip(self.base.character(i), self.e))

    def to_json_dict(self) -> dict:
        from .exactalg import format_fraction

        eta_p, eta_m = eta_invariants(self)
        return {
            "wall": {
                "normal": list(self.e),
                "point": [format_fraction(x) for x in self.omega_zero],
            },
            "e": list(self.e),
            "crepant": self.crepant,
            "eta": [eta_p, eta_m],
        }


def _candidate_normals(data: GITData):
    """Primitive normals of hyperplanes spanned by r-1 characters."""
    if data.r == 0:
        return []
    if data.r == 1:
        return [(1,)]
    normals = set()
    for combo in itertools.combinations(range(1, data.m + 1), data.r - 1):
        kernel = kernel_basis(data.submatrix_columns(combo), data.r)
        if len(kernel) != 1:
            continue
        normals.add(oriented_primitive_vector(kernel[0]))
    return sorted(normals)


def make_wall_crossing(base: GITData, omega_plus, omega_minus) -> WallCrossing:
    """Locate the single wall crossed between two stability conditions.

    Both conditions must be valid and off-wall; the straight segment
    between them must cross exactly one anticone-changing hyperplane.
    """
    omega_plus = tuple(parse_fraction(x) for x in omega_plus)
    omega_minus = tuple(parse_fraction(x) for x in omega_minus)
    data_p = base.with_omega(omega_plus)
    data_m = base.with_omega(omega_minus)
    reports = [validate(data_p), validate(data_m)]
    for side, rep in zip(("plus", "minus"), reports):
        if not rep.spanning_ok:  # spanning fails exactly on a wall (``validate``)
            raise OnWallError("omega_%s lies on a wall (degenerate)" % side)
        if not rep.passed:
            raise InputError("omega_%s is not admissible: %s" % (side, "; ".join(rep.failures)))
    if reports[0].cells == reports[1].cells:  # the minimal anticones of the two sides
        raise NotAdjacentError("the two stability conditions lie in the same chamber")

    def point(t: Fraction):
        return tuple(a + t * (b - a) for a, b in zip(omega_plus, omega_minus))

    crossings = {}
    for n in _candidate_normals(base):
        vp = sum(Fraction(a) * b for a, b in zip(n, omega_plus))
        vm = sum(Fraction(a) * b for a, b in zip(n, omega_minus))
        if (vp > 0 > vm) or (vm > 0 > vp):
            t = vp / (vp - vm)
            crossings.setdefault(t, set()).add(n)
    if not crossings:
        raise NotAdjacentError("no separating wall found between the chambers")
    # Both sides validate, so the characters span and the wall cells stay
    # constant off the walls, while a chamber holds no wall point: a
    # candidate crossing changes the cells exactly when its point is on a wall.
    real = [t for t in sorted(crossings) if is_on_wall(base.with_omega(point(t)))]
    if len(real) != 1:
        raise NotAdjacentError("segment crosses %d walls; compose single crossings" % len(real))
    t_star = real[0]
    normals = sorted(crossings[t_star])
    if len(normals) != 1:
        raise NotAdjacentError("crossing point lies on several hyperplanes")
    e = normals[0]
    if sum(Fraction(a) * b for a, b in zip(e, omega_plus)) < 0:
        e = tuple(-x for x in e)
    total = tuple(sum(w[k] for w in base.weights) for k in range(base.r))
    crepant = sum(a * b for a, b in zip(total, e)) == 0
    return WallCrossing(data_p, omega_plus, omega_minus, point(t_star), e, crepant, reports[0].cells, reports[1].cells)


def partition_M(wc: WallCrossing):
    """Indices with positive / zero / negative pairing against the normal."""
    pairings = {i: wc.pairing(i) for i in range(1, wc.base.m + 1)}
    m_plus = frozenset(i for i, p in pairings.items() if p > 0)
    m_zero = frozenset(i for i, p in pairings.items() if p == 0)
    m_minus = frozenset(i for i, p in pairings.items() if p < 0)
    if not m_plus or not m_minus:
        raise OneSidedWallError("one-sided wall: characters pair with a single sign")
    return m_plus, m_zero, m_minus


def unstable_koszul_classes(wc: WallCrossing) -> list[EquivClass]:
    """The classes (one per coordinate vanishing on the removed stratum)
    whose Koszul product restricts to zero on the minus-side quotient."""
    _, _, m_minus = partition_M(wc)
    r, m = wc.base.r, wc.base.m
    out = []
    for i in sorted(m_minus):
        u = tuple(-x for x in wc.base.character(i))
        s = tuple(1 if j == i else 0 for j in range(1, m + 1))
        out.append(EquivClass.line(r, m, u, s))
    return out


def eta_invariants(wc: WallCrossing) -> tuple[int, int]:
    """Widths of the two grade-restriction windows at this wall."""
    m_plus, _, m_minus = partition_M(wc)
    eta_plus = sum(wc.pairing(i) for i in m_plus)
    eta_minus = -sum(wc.pairing(i) for i in m_minus)
    return eta_plus, eta_minus


@dataclass(frozen=True)
class ExtendedGIT:
    """Rank-(r+1) data on m+1 coordinates realizing both sides and the blow-up.

    As on ``WallCrossing``, the resolution's fixed points are computed on
    first read and then held.
    """

    wc: WallCrossing
    data: GITData  # carries omega_tilde (the resolution chamber) as stability
    omega_plus: tuple
    omega_minus: tuple
    omega_tilde: tuple
    chamber_plus: Chamber
    chamber_minus: Chamber
    chamber_tilde: Chamber
    # the minimal anticones of the three conditions, as read for the chambers
    cells_plus: tuple = field(compare=False)
    cells_minus: tuple = field(compare=False)
    cells_tilde: tuple = field(compare=False)

    @property
    def data_plus(self) -> GITData:
        return self.data.with_omega(self.omega_plus)

    @property
    def data_minus(self) -> GITData:
        return self.data.with_omega(self.omega_minus)

    @property
    def data_tilde(self) -> GITData:
        return self.data

    @property
    def drop(self) -> list[list[int]]:
        """The base torus inside the extended one, as a subtorus: drop the
        extra variable.  The contractions are equivariant for its inclusion,
        so on it the resolution's characters compare with the sides'."""
        m = self.wc.base.m
        return [[int(i == j) for j in range(m)] for i in range(m)] + [[0] * m]

    @cached_property
    def fixed_points_tilde(self) -> tuple[FixedPointData, ...]:
        """The resolution's fixed points, from the cells ``extend`` validated,
        in ``fixed_point_list``'s order, with their tangent weights checked
        strictly convex on the base torus (``drop``)."""
        return tuple(fixed_points_of_cells(self.data_tilde, self.cells_tilde, self.drop))

    def exponent_twists(self, side: str) -> tuple[int, ...]:
        """Per-coordinate powers of the extra coordinate used by the
        contraction onto the chosen side."""
        if side == "-":
            return tuple(max(self.wc.pairing(j), 0) for j in range(1, self.wc.base.m + 1))
        if side == "+":
            return tuple(max(-self.wc.pairing(j), 0) for j in range(1, self.wc.base.m + 1))
        raise InputError("side must be '+' or '-'")

    def substitution(self, side: str):
        """Exponent substitution (length m -> m+1) identifying the tori:
        lambda_j -> lambda_j + twist_j * lambda_{m+1}."""
        m = self.wc.base.m
        twists = self.exponent_twists(side)
        return [[int(i == j) for i in range(m)] + [twists[j]] for j in range(m)]

    def to_json_dict(self) -> dict:
        from .exactalg import format_fraction

        return {
            "weights": [list(w) for w in self.data.weights],
            "omega_plus": [format_fraction(x) for x in self.omega_plus],
            "omega_minus": [format_fraction(x) for x in self.omega_minus],
            "omega_tilde": [format_fraction(x) for x in self.omega_tilde],
            "chambers": {
                "plus": self.chamber_plus.to_json_dict(),
                "minus": self.chamber_minus.to_json_dict(),
                "tilde": self.chamber_tilde.to_json_dict(),
            },
        }


def _verify_contraction(ext: ExtendedGIT, side: str):
    """The monomials x_j x_{m+1}^{twist_j} must transform by the pulled-back
    characters; this pins the group map of the contraction on each side."""
    wc = ext.wc
    m = wc.base.m
    twists = ext.exponent_twists(side)
    for j in range(1, m + 1):
        dj_ext = ext.data.character(j)
        dm1 = ext.data.character(m + 1)
        monomial_char = tuple(a + twists[j - 1] * b for a, b in zip(dj_ext, dm1))
        expected = tuple(wc.base.character(j)) + (0 if side == "-" else -wc.pairing(j),)
        if monomial_char != expected:
            raise AssertionError("contraction %s is not equivariant at coordinate %d" % (side, j))


def _resolution_offset(data: GITData, omega_zero) -> Fraction:
    """Half the first t > 0 at which the ray (omega_zero, -t) meets a
    hyperplane spanned by r characters of the extended data, capped at
    1/1000.  Every wall lies in such a hyperplane, so the ray stays in one
    chamber before it; a hyperplane that contains the whole ray (normal
    ending in 0) never separates its points."""
    offset = Fraction(1, 1000)
    for n in _candidate_normals(data):
        if n[-1]:
            t = sum(Fraction(a) * b for a, b in zip(n, omega_zero)) / n[-1]
            if t > 0:
                offset = min(offset, t / 2)
    return offset


def extend(wc: WallCrossing) -> ExtendedGIT:
    """Extended GIT data with the three chambers around the wall.

    The extra gauge direction records the positive pairing of each
    character; the resolution chamber sits just below the wall, before the
    first hyperplane the ray from the wall point meets.
    """
    base = wc.base
    weights = []
    for j in range(1, base.m + 1):
        p = wc.pairing(j)
        weights.append(tuple(base.character(j)) + ((-p) if p > 0 else 0,))
    weights.append((0,) * base.r + (1,))
    omega_p = wc.omega_plus + (Fraction(1),)
    omega_m = wc.omega_minus + (Fraction(1),)

    data = GITData.make(base.r + 1, weights, omega_p)
    omega_t = wc.omega_zero + (-_resolution_offset(data, wc.omega_zero),)
    data_t = data.with_omega(omega_t)
    data_m = data.with_omega(omega_m)
    report = validate(data_t)  # on a wall a wall cell of size <= r fails to span
    if not report.passed:
        raise InputError("the resolution chamber is not admissible: %s" % "; ".join(report.failures))

    # The sides are off the walls: each of their wall cells holds m + 1 (the
    # other characters end in <= 0, omega in 1) over a base side's wall cell.
    cells = minimal_anticones(data).minimal, minimal_anticones(data_m).minimal, report.cells
    chambers = [chamber_of_fixed_points(d, c) for d, c in zip((data, data_m, data_t), cells)]
    ext = ExtendedGIT(wc, data_t, omega_p, omega_m, omega_t, *chambers, *cells)
    _verify_contraction(ext, "+")
    _verify_contraction(ext, "-")
    _verify_reductions(ext, ext.cells_plus, ext.cells_minus)
    return ext


def _verify_reductions(ext: ExtendedGIT, cells_plus, cells_minus):
    """At the side stability conditions every anticone contains the extra
    index, and deleting it recovers the base semistable loci.  The cells
    are the minimal anticones of ``ext.data_plus`` and ``ext.data_minus``;
    the base sides' are the ones ``make_wall_crossing`` validated."""
    m1 = ext.wc.base.m + 1
    for minimal, base_cells in ((cells_plus, ext.wc.cells_plus), (cells_minus, ext.wc.cells_minus)):
        if any(m1 not in a for a in minimal):
            raise AssertionError("an anticone at a side stability misses the extra index")
        if {a - {m1} for a in minimal} != set(base_cells):
            raise AssertionError("side chamber does not reduce to the base quotient")


def pullback_class(ext: ExtendedGIT, side: str, E: EquivClass) -> EquivClass:
    """Pull a class back to the extended data through the chosen contraction.

    The gauge character u acquires the extra component 0 on the minus side
    and -u.e on the plus side; the torus character s acquires s . twists.
    """
    wc = ext.wc
    if E.r != wc.base.r or E.m != wc.base.m:
        raise InputError("class does not live on the base data")
    twists = ext.exponent_twists(side)
    terms = {}
    for (u, s), coeff in E.terms.items():
        u2 = tuple(u) + (0 if side == "-" else -sum(a * b for a, b in zip(u, wc.e)),)
        s2 = tuple(s) + (sum(a * b for a, b in zip(s, twists)),)
        terms[(u2, s2)] = terms.get((u2, s2), 0) + coeff
    return EquivClass(wc.base.r + 1, wc.base.m + 1, terms)
