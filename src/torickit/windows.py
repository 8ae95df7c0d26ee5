"""KN strata, grade-restriction windows, and the K-theoretic comparison of
the wall-crossing functor with its window description.

Everything here manipulates classes of equivariant line bundles, never
complexes: window membership is a condition on gauge-pairing weights, a
lift rewrites a class using the Koszul relation of the unstable stratum,
and the final consistency check is an equality of Euler characteristics
computed by localization on the resolution and on one side.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import InputError, NonCrepantError, WindowLiftError
from .exactalg import RationalCharacter, rat_equal
from .gitdata import GITData, SemistableLocus, anticones
from .localization import EquivClass, euler_characteristic, restrict, _all_fixed_point_data
from .wallcrossing import (
    ExtendedGIT,
    WallCrossing,
    eta_invariants,
    extend,
    partition_M,
    pullback_class,
)


@dataclass(frozen=True)
class KNStratum:
    """A destabilizing one-parameter subgroup with its fixed locus and blade."""

    lam: tuple[int, ...]  # 1-parameter subgroup in the gauge cocharacter lattice
    fixed_support: frozenset  # coordinates allowed nonzero on Z
    blade_support: frozenset  # coordinates allowed nonzero on S
    ambient: SemistableLocus  # the open set the stratum lives in
    eta: int


@dataclass(frozen=True)
class Window:
    """The half-open weight interval [base, base + width) along a stratum."""

    stratum: KNStratum
    base: int

    @property
    def width(self) -> int:
        return self.stratum.eta

    def contains(self, w: int) -> bool:
        return self.base <= w < self.base + self.width


def kn_strata(wc: WallCrossing) -> tuple[KNStratum, KNStratum]:
    """The two strata attached to the wall: the normal direction with the
    blade collapsing onto the minus side, and its opposite.

    eta is the pairing-weight of the determinant of the normal bundle of
    the blade along the fixed locus; positivity is automatic.
    """
    m_plus, m_zero, m_minus = partition_M(wc)
    ambient = _upward_minimal(wc.base.m, anticones(wc.base.with_omega(wc.omega_zero)))
    every = frozenset(range(1, wc.base.m + 1))

    def build(lam, blade):
        normal = every - blade
        eta = sum(sum(a * b for a, b in zip(wc.base.character(i), lam)) for i in normal)
        if eta < 0:
            raise AssertionError("blade normal weights must be nonnegative")
        return KNStratum(tuple(lam), frozenset(m_zero), frozenset(blade), ambient, eta)

    stratum_plus = build(wc.e, m_zero | m_minus)
    stratum_minus = build(tuple(-x for x in wc.e), m_zero | m_plus)
    return stratum_plus, stratum_minus


def _upward_minimal(m: int, family) -> SemistableLocus:
    """Minimal generators of the upward closure of an arbitrary family."""
    fam = set(family)
    minimal = [s for s in fam if not any(t < s for t in fam)]
    return SemistableLocus(m, tuple(sorted(minimal, key=lambda s: (len(s), tuple(sorted(s))))))


def window_weights(E: EquivClass, stratum: KNStratum) -> list[int]:
    """Gauge pairings of every line class against the stratum's subgroup,
    with multiplicity."""
    if E.r != len(stratum.lam):
        raise InputError("class gauge rank does not match the stratum")
    out = []
    for (u, _s), coeff in E.sorted_terms():
        w = sum(a * b for a, b in zip(u, stratum.lam))
        out.extend([w] * abs(coeff))
    return out


def in_window(E: EquivClass, window: Window) -> bool:
    return all(window.contains(w) for w in window_weights(E, window.stratum))


@dataclass(frozen=True)
class SevenLoci:
    """Semistable loci of the seven stability positions of the extended data."""

    v0: SemistableLocus
    v_plus: SemistableLocus
    v_minus: SemistableLocus
    v_tilde: SemistableLocus
    v_plus_minus: SemistableLocus
    v_plus_tilde: SemistableLocus
    v_minus_tilde: SemistableLocus

    def as_dict(self) -> dict:
        return {
            "W0": self.v0,
            "C+": self.v_plus,
            "C-": self.v_minus,
            "C~": self.v_tilde,
            "W+|-": self.v_plus_minus,
            "W+|~": self.v_plus_tilde,
            "W-|~": self.v_minus_tilde,
        }

    def to_json_dict(self) -> dict:
        return {k: v.to_json_list() for k, v in self.as_dict().items()}


def seven_loci(ext: ExtendedGIT) -> SevenLoci:
    """The seven semistable loci: the deepest one from the union formula over
    the wall anticones, the three chamber loci from their stability
    conditions, and the three wall loci as set differences."""
    wc = ext.wc
    m = wc.base.m
    m_plus, m_zero, m_minus = partition_M(wc)
    fam0 = set(anticones(wc.base.with_omega(wc.omega_zero)))

    def v0_member(support: frozenset) -> bool:
        j = support - {m + 1}
        if any(i <= j for i in fam0 if i <= m_zero):
            return True
        return (m + 1) in support and any(i <= j for i in fam0)

    universe = range(1, m + 2)
    v0_family = [
        frozenset(c)
        for size in range(m + 2)
        for c in itertools.combinations(universe, size)
        if v0_member(frozenset(c))
    ]

    def carve(condition) -> SemistableLocus:
        return _upward_minimal(m + 1, [s for s in v0_family if condition(s)])

    v0 = _upward_minimal(m + 1, v0_family)
    v_plus_minus = carve(lambda s: (m + 1) in s)
    v_plus_tilde = carve(lambda s: s & m_plus)
    v_minus_tilde = carve(lambda s: s & m_minus)
    v_plus = carve(lambda s: (m + 1) in s and s & m_plus)
    v_minus = carve(lambda s: (m + 1) in s and s & m_minus)
    v_tilde = carve(lambda s: s & m_plus and s & m_minus)

    # the chamber loci must coincide with honest semistable loci
    for locus, data in (
        (v_plus, ext.data_plus),
        (v_minus, ext.data_minus),
        (v_tilde, ext.data_tilde),
    ):
        direct = _upward_minimal(m + 1, anticones(data))
        if direct.minimal != locus.minimal:
            raise AssertionError("locus table disagrees with the chamber semistable locus")
    return SevenLoci(v0, v_plus, v_minus, v_tilde, v_plus_minus, v_plus_tilde, v_minus_tilde)


# ---------------------------------------------------------------------------
# grade restriction


def unstable_koszul_classes(wc: WallCrossing) -> list[EquivClass]:
    """The classes (one per coordinate vanishing on the removed stratum)
    whose Koszul product restricts to zero on the minus-side quotient."""
    _, _, m_minus = partition_M(wc)
    if not m_minus:
        raise WindowLiftError("relation not available: no strictly negative pairings")
    r, m = wc.base.r, wc.base.m
    out = []
    for i in sorted(m_minus):
        u = tuple(-x for x in wc.base.character(i))
        s = tuple(1 if j == i else 0 for j in range(1, m + 1))
        out.append(EquivClass.line(r, m, u, s))
    return out


def _koszul_product(wc: WallCrossing) -> EquivClass:
    r, m = wc.base.r, wc.base.m
    product = EquivClass.line(r, m, (0,) * r)
    for x in unstable_koszul_classes(wc):
        product = product.tensor(EquivClass.line(r, m, (0,) * r) - x)
    return product


def _vanishes_on(data: GITData, E: EquivClass) -> bool:
    for fp in _all_fixed_point_data(data):
        for gi in range(fp.group_order):
            if not restrict(E, fp, gi).is_zero():
                return False
    return True


def window_lift(wc: WallCrossing, E: EquivClass, base: int = 0, max_steps: int = 10000) -> EquivClass:
    """Rewrite a class from the minus side so every gauge weight against the
    wall normal lands in [base, base + eta), without changing any fixed-point
    restriction on the minus side.

    Classes with too-high weight are traded down (and too-low traded up)
    through the Koszul relation of the coordinates cutting out the stratum
    that was removed; the relation is checked to restrict to zero before it
    is used, and the final lift is checked against the input restriction by
    restriction at every fixed point.
    """
    if not wc.crepant:
        raise NonCrepantError("window lifts are only taken across crepant walls")
    if E.r != wc.base.r or E.m != wc.base.m:
        raise InputError("class does not live on the base data")
    eta = eta_invariants(wc)[0]
    relation = _koszul_product(wc)
    data_minus = wc.data_minus
    if not _vanishes_on(data_minus, relation):
        raise WindowLiftError("Koszul relation does not vanish on the minus side")
    sign = 1 if len(unstable_koszul_classes(wc)) % 2 == 0 else -1
    shift_u = tuple(sum(wc.base.character(i)[k] for i in sorted(partition_M(wc)[2])) for k in range(wc.base.r))
    shift_s = tuple(-1 if (j in partition_M(wc)[2]) else 0 for j in range(1, wc.base.m + 1))

    current = E
    for _ in range(max_steps):
        offender = None
        for (u, s), coeff in current.sorted_terms():
            w = sum(a * b for a, b in zip(u, wc.e))
            if not (base <= w < base + eta):
                offender = (u, s, coeff, w)
                break
        if offender is None:
            break
        u, s, coeff, w = offender
        if w >= base + eta:
            # C = (u,s) detensored by the full Koszul monomial
            cu = tuple(a + b for a, b in zip(u, shift_u))
            cs = tuple(a + b for a, b in zip(s, shift_s))
            c_class = EquivClass.line(wc.base.r, wc.base.m, cu, cs, coeff)
            current = current - sign * c_class.tensor(relation)
        else:
            c_class = EquivClass.line(wc.base.r, wc.base.m, u, s, coeff)
            current = current - c_class.tensor(relation)
    else:
        raise WindowLiftError("window lift did not terminate within %d steps" % max_steps)

    for fp in _all_fixed_point_data(data_minus):
        for gi in range(fp.group_order):
            if restrict(current, fp, gi) != restrict(E, fp, gi):
                raise WindowLiftError("lift changed a fixed-point restriction")
    return current


def lifts_agree(wc: WallCrossing, a: EquivClass, b: EquivClass) -> bool:
    """Two lifts define the same window class when their difference has
    vanishing restriction at every minus-side fixed point."""
    return _vanishes_on(wc.data_minus, a - b)


# ---------------------------------------------------------------------------
# the wall-crossing functor versus the window description


@dataclass(frozen=True)
class FMReport:
    equal: bool
    chi_resolution: RationalCharacter
    chi_plus_side: RationalCharacter

    def to_json_dict(self) -> dict:
        return {
            "equal": self.equal,
            "chi_resolution": str(self.chi_resolution),
            "chi_plus_side": str(self.chi_plus_side),
        }

    def __str__(self):
        verdict = "MATCH" if self.equal else "MISMATCH"
        return "pull-push Euler pairing vs window Euler pairing: %s" % verdict


def fm_euler_check(
    wc: WallCrossing,
    L: EquivClass,
    M: EquivClass,
    window_base: int = 0,
    ext: ExtendedGIT | None = None,
) -> FMReport:
    """Compare the pull-push pairing through the resolution with the
    window-transported pairing on the plus side.

    The first number is the Euler characteristic, on the resolution
    chamber of the extended data, of pullback(L) tensor pullback(M); the
    second transports L through the grade-restriction window and pairs it
    with M on the plus side, computed in the same extended presentation so
    both live in one character ring.
    """
    if not wc.crepant:
        raise NonCrepantError("the comparison is only available across crepant walls")
    if ext is None:
        ext = extend(wc)
    lifted = window_lift(wc, L, base=window_base)
    pulled = pullback_class(ext, "-", L).tensor(pullback_class(ext, "+", M))
    # both sides as characters of the base torus: drop the extra variable on
    # the resolution, where the contractions are equivariant for the
    # inclusion of the base torus
    m = wc.base.m
    drop = [[1 if i == j else 0 for j in range(m)] for i in range(m)] + [[0] * m]
    chi_res = euler_characteristic(
        ext.data_tilde, pulled, subtorus=drop, collapse=True, check=False
    )
    chi_plus = euler_characteristic(
        wc.data_plus, lifted.tensor(M), collapse=True, check=False
    )
    return FMReport(rat_equal(chi_res, chi_plus), chi_res, chi_plus)
