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
from .gitdata import SemistableLocus, minimal_anticones
from .localization import EquivClass, localization_sum, vanishes_on
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
    eta: int

    def weight(self, u) -> int:
        """The gauge pairing of the character u against the subgroup."""
        return sum(a * b for a, b in zip(u, self.lam))


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
    the blade along the fixed locus: the normal directions are M_+ against
    e and M_- against -e, so the two are ``eta_invariants``.
    """
    m_plus, m_zero, m_minus = partition_M(wc)
    eta_plus, eta_minus = eta_invariants(wc)
    stratum_plus = KNStratum(tuple(wc.e), m_zero, m_zero | m_minus, eta_plus)
    stratum_minus = KNStratum(tuple(-x for x in wc.e), m_zero, m_zero | m_plus, eta_minus)
    return stratum_plus, stratum_minus


def window_weights(E: EquivClass, stratum: KNStratum) -> list[int]:
    """Gauge pairings of every line class against the stratum's subgroup,
    with multiplicity."""
    if E.r != len(stratum.lam):
        raise InputError("class gauge rank does not match the stratum")
    return [stratum.weight(u) for (u, _s), coeff in E.sorted_terms() for _ in range(abs(coeff))]


def in_window(E: EquivClass, window: Window) -> bool:
    if E.r != len(window.stratum.lam):
        raise InputError("class gauge rank does not match the stratum")
    return all(window.contains(window.stratum.weight(u)) for u, _s in E.terms)


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
    """The seven semistable loci, each by its minimal supports in {1..m+1}.

    The deepest one is generated by the wall cells c at omega_zero inside
    M_0 and by every c + {m+1}.  Each other locus cuts it by an upward-closed
    condition, so it is generated by the unions g + h of a generator g of
    the deepest locus with a generator h of the condition: {m+1}, {i} for i
    in M_+ or in M_-, {m+1, i}, or {i, j} with i in M_+ and j in M_-.
    """
    wc = ext.wc
    m = wc.base.m
    m_plus, m_zero, m_minus = partition_M(wc)
    extra = frozenset({m + 1})
    cells = minimal_anticones(wc.base.with_omega(wc.omega_zero)).minimal
    v0 = SemistableLocus.generated_by(m + 1, [c for c in cells if c <= m_zero] + [c | extra for c in cells])

    def carve(condition) -> SemistableLocus:
        return SemistableLocus.generated_by(m + 1, [g | h for g in v0.minimal for h in condition])

    plus = [frozenset({i}) for i in m_plus]
    minus = [frozenset({i}) for i in m_minus]
    v_plus_minus = carve([extra])
    v_plus_tilde = carve(plus)
    v_minus_tilde = carve(minus)
    v_plus = carve([h | extra for h in plus])
    v_minus = carve([h | extra for h in minus])
    v_tilde = carve([h | k for h in plus for k in minus])

    # the chamber loci must coincide with honest semistable loci, as ``extend`` read them
    for locus, cells in ((v_plus, ext.cells_plus), (v_minus, ext.cells_minus), (v_tilde, ext.cells_tilde)):
        if SemistableLocus(m + 1, cells) != locus:
            raise AssertionError("locus table disagrees with the chamber semistable locus")
    return SevenLoci(v0, v_plus, v_minus, v_tilde, v_plus_minus, v_plus_tilde, v_minus_tilde)


# ---------------------------------------------------------------------------
# grade restriction


def window_lift(wc: WallCrossing, E: EquivClass, base: int = 0) -> EquivClass:
    """Rewrite a class from the minus side so every gauge weight against the
    wall normal lands in [base, base + eta), without changing any fixed-point
    restriction on the minus side.

    The lift is division with remainder by the Koszul relation prod (1 - x)
    of the stratum that was removed (``WallCrossing.koszul_relation``,
    checked once per crossing to restrict to zero on the minus side).  Its
    weights run over 0..eta_minus, eta_minus = eta on a crepant wall, and its
    two end terms are units: 1 at weight 0 and +-prod x at weight eta.  So a
    term of weight w >= base + eta is traded down against the top term,
    leaving terms only in [w - eta, w), and one of weight w < base up against
    1, leaving terms only in (w, w + eta].  Sweeping the levels from the
    outside in, down from the class's highest weight and then up from its
    lowest, clears each level for good.  Each trade updates one term dict by
    the relation's terms, and a class of degree k takes one trade per term
    of the quotient: O(k^2) when two coordinates cut out the stratum, as on
    the conifold.  The lift is checked by restriction at every minus-side
    fixed point the crossing holds.  It does not depend on the order of the
    trades: two lifts differ by f times the relation, whose weights span at
    least eta, so no nonzero difference fits in the window.
    """
    if not wc.crepant:
        raise NonCrepantError("window lifts are only taken across crepant walls")
    if E.r != wc.base.r or E.m != wc.base.m:
        raise InputError("class does not live on the base data")
    window = Window(kn_strata(wc)[0], base)
    weight = window.stratum.weight
    relation = wc.koszul_relation.terms
    bottom, *_, top = sorted(relation, key=lambda key: weight(key[0]))
    terms = dict(E.terms)
    levels = [weight(u) for u, _ in terms] or [base]
    for w in itertools.chain(range(max(levels), base + window.width - 1, -1), range(min(levels), base)):
        pivot = top if w >= base else bottom
        for key in [key for key, c in terms.items() if c and weight(key[0]) == w]:
            # the end coefficients are +-1, so dividing by one multiplies by it
            coeff = terms[key] * relation[pivot]
            for rkey, rc in relation.items():
                term = tuple(tuple(a + b - c for a, b, c in zip(*parts)) for parts in zip(rkey, key, pivot))
                terms[term] = terms.get(term, 0) - coeff * rc
            del terms[key]  # the pivot's own term cancelled it
    current = EquivClass(E.r, E.m, terms)
    if not in_window(current, window):
        raise WindowLiftError("window lift left a weight outside [%d, %d)" % (base, base + window.width))
    if not vanishes_on(wc.fixed_points_minus, current - E):
        raise WindowLiftError("lift changed a fixed-point restriction")
    return current


def lifts_agree(wc: WallCrossing, a: EquivClass, b: EquivClass) -> bool:
    """Two lifts define the same window class when their difference has
    vanishing restriction at every minus-side fixed point, as the crossing
    holds them."""
    return vanishes_on(wc.fixed_points_minus, a - b)


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

    Both sums read the fixed points the crossing and its extension hold
    (``WallCrossing.fixed_points_plus``, ``ExtendedGIT.fixed_points_tilde``),
    so a sweep over many pairs that passes one ``ext`` computes them once.
    Without ``ext`` the crossing is extended here; an ``ext`` of another
    crossing is refused.
    """
    if not wc.crepant:
        raise NonCrepantError("the comparison is only available across crepant walls")
    if ext is None:
        ext = extend(wc)
    elif ext.wc != wc:
        raise InputError("the extension belongs to another wall crossing")
    lifted = window_lift(wc, L, base=window_base)
    pulled = pullback_class(ext, "-", L).tensor(pullback_class(ext, "+", M))
    # both sides as characters of the base torus
    chi_res = localization_sum(ext.fixed_points_tilde, pulled, ext.drop)
    chi_plus = localization_sum(wc.fixed_points_plus, lifted.tensor(M))
    return FMReport(rat_equal(chi_res, chi_plus), chi_res, chi_plus)
