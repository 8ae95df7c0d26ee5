"""The four workloads: their inputs, their operations, and the checks.

Each workload is a fixed battery of operations.  A round runs every
operation once; the seed only chooses the order of the operations in a
round and the rational points the fm-sweep check evaluates at, so a
round costs the same for every seed.  Operations call torickit through
module attributes, where the tracing wrappers are installed.  Results are
turned into plain data here, reading attributes only (a traced round must
not count the benchmark's own reads as calls), and decided by
``oracles``, which imports nothing from torickit.

The case lists are sized so that one round takes 3.5-4.2 normalised
seconds; see README.md for what each workload exercises.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import oracles
from torickit import gitdata, localization, wallcrossing, windows
from torickit.gitdata import GITData
from torickit.localization import EquivClass


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object, random.Random], bool]


@dataclass
class Battery:
    ops: list[Op]
    probes: list[str]  # cheap operations covering every kind, for the cProfile pass
    controls: Callable[[dict], dict[str, bool]]  # warm-up results -> {label: came out unequal}

    def op(self, name: str) -> Op:
        return next(op for op in self.ops if op.name == name)


# -- plain data from program objects (attribute reads only) --------------------


def _rational(c) -> Fraction:
    if c.n != 1:
        raise ValueError("coefficient is not rational")
    return c.coeffs[0]


def plain_terms(p) -> dict:
    """A LaurentPoly or series Poly as exponent -> Fraction."""
    return {q: _rational(c) for q, c in p.terms.items()}


def plain_series(s) -> dict:
    return {n: (plain_terms(piece.num), plain_terms(piece.den)) for n, piece in s.data.items()}


def plain_character(chi) -> list:
    return [(plain_terms(num), [(_rational(f.c), f.mu) for f in den]) for num, den in chi.terms]


# -- shared data ------------------------------------------------------------------

CONIFOLD = GITData.make(1, [(1,), (1,), (-1,), (-1,)], ["1"])
KP2 = GITData.make(1, [(1,), (1,), (1,), (-3,)], ["1"])
RANK2 = GITData.make(2, [(1, -1), (1, -1), (-1, 0), (-1, 0), (0, 1)], ["1", "1"])


def _line(data: GITData, *u) -> EquivClass:
    return EquivClass.line(data.r, data.m, u)


# -- fm-sweep ---------------------------------------------------------------------


def _fm_check(report, rng) -> bool:
    a = plain_character(report.chi_resolution)
    b = plain_character(report.chi_plus_side)
    return report.equal and oracles.points_agree(a, b, report.chi_resolution.nvars, rng)


def fm_sweep() -> Battery:
    walls = {}
    for label, data, plus, minus in (
        ("kp2", KP2, ["1"], ["-1"]),
        ("conifold", CONIFOLD, ["1"], ["-1"]),
        ("rank2", RANK2, ["1", "1"], ["-1", "1"]),
    ):
        wc = wallcrossing.make_wall_crossing(data, plus, minus)
        walls[label] = (data, wc, wallcrossing.extend(wc))
    pairs = [("kp2", (a,), (a - 1,)) for a in (0, 1, 2)]
    pairs += [("conifold", (a,), (b,)) for a in (0, 1) for b in (-1, 0, 1)]
    pairs += [("rank2", (1, 0), (0, 0)), ("rank2", (1, -1), (-1, 1))]
    ops = []
    for label, u, v in pairs:
        data, wc, ext = walls[label]
        L, M = _line(data, *u), _line(data, *v)
        ops.append(
            Op(
                "fm %s L=%s M=%s" % (label, u, v),
                lambda wc=wc, ext=ext, L=L, M=M: windows.fm_euler_check(wc, L, M, ext=ext),
                _fm_check,
            )
        )

    def controls(results):
        # one pair's resolution side against another pair's plus side
        a = results["fm kp2 L=(0,) M=(-1,)"]
        b = results["fm kp2 L=(1,) M=(0,)"]
        same = oracles.points_agree(
            plain_character(a.chi_resolution),
            plain_character(b.chi_plus_side),
            a.chi_resolution.nvars,
            random.Random(0),
        )
        return {"fm: chi_res(O(0),O(-1)) vs chi_plus(O(1),O(0)) at rational points": not same}

    probes = ["fm conifold L=(0,) M=(-1,)", "fm conifold L=(1,) M=(1,)", "fm rank2 L=(1, 0) M=(0, 0)"]
    return Battery(ops, probes, controls)


# -- hrr-order --------------------------------------------------------------------

P12 = GITData.make(1, [(1,), (2,)], ["1"])
C2 = GITData.make(0, [(), ()], [])
DIAGONAL = [[1], [1]]


def _hrr_equal(report, rng) -> bool:
    return report.equal and report.first_mismatch_degree is None


def _p12_expected(k: int, order: int) -> dict:
    return oracles.expansion_of_character(oracles.section_count(P12.weights, (k,)), 2, order)


def _p12_check(k: int, order: int):
    def check(report, rng):
        expected = _p12_expected(k, order)
        return (
            _hrr_equal(report, rng)
            and oracles.series_matches(plain_series(report.lhs), expected, 2, order)
            and oracles.series_matches(plain_series(report.rhs), expected, 2, order)
        )

    return check


def _c2_check(order: int):
    def check(report, rng):
        expected = oracles.double_pole_expansion(order)
        return (
            _hrr_equal(report, rng)
            and oracles.series_matches(plain_series(report.lhs), expected, 1, order)
            and oracles.series_matches(plain_series(report.rhs), expected, 1, order)
        )

    return check


def hrr_order() -> Battery:
    kp2_minus = KP2.with_omega(["-1"])
    ops = [
        Op(
            "hrr kp2 O(1) order 2",
            lambda: localization.hrr_check(KP2, _line(KP2, 1), 2),
            _hrr_equal,
        ),
        Op(
            "hrr kp2 C3/Z3 side O(1) order 4",
            lambda: localization.hrr_check(kp2_minus, _line(KP2, 1), 4),
            _hrr_equal,
        ),
    ]
    ops += [
        Op(
            "hrr P(1,2) O(%d) order 6" % k,
            lambda k=k: localization.hrr_check(P12, _line(P12, k), 6),
            _p12_check(k, 6),
        )
        for k in (0, 1, 2)
    ]
    ops.append(
        Op(
            "hrr C2 diagonal O order 6",
            lambda: localization.hrr_check(C2, _line(C2), 6, subtorus=DIAGONAL),
            _c2_check(6),
        )
    )

    def controls(results):
        p12 = plain_series(results["hrr P(1,2) O(1) order 6"].lhs)
        c2 = plain_series(results["hrr C2 diagonal O order 6"].lhs)
        return {
            "hrr: P(1,2) O(1) expansion vs sections of O(2)": not oracles.series_matches(
                p12, _p12_expected(2, 6), 2, 6
            ),
            "hrr: diagonal C2 vs closed form with B_1 = +1/2": not oracles.series_matches(
                c2, oracles.double_pole_expansion(6, b1=Fraction(1, 2)), 1, 6
            ),
        }

    probes = ["hrr P(1,2) O(1) order 6", "hrr C2 diagonal O order 6", "hrr kp2 C3/Z3 side O(1) order 4"]
    return Battery(ops, probes, controls)


# -- chambers ---------------------------------------------------------------------

_RANK1_CYCLE = (1, -1, 2, -2, 3, 1, -3, 2, -1, 1)
# rank-1 walls, crepant and not, admissible on both sides
CREPANCY_WALLS = (
    (1, 1, -2),
    (2, 1, -1, -2),
    (1, 2, -3),
    (3, -1, -1),
    (1, 1, 1, -1, -2),
    (1, -2),
    (3, 1, -2, -2),
    (2, 2, -1),
)


def _rank1(m: int) -> GITData:
    return GITData.make(1, [(w,) for w in _RANK1_CYCLE[:m]], ["1"])


def _family(data: GITData) -> set:
    return oracles.simplicial_anticones(data.weights, data.omega)


def _anticones_check(data: GITData):
    def check(result, rng):
        fam = set(result)
        return len(fam) == len(result) and fam == _family(data) and oracles.upward_closed(fam, data.m)

    return check


def _validate_check(data: GITData):
    # Under the simplicial rule every minimal anticone is an invertible
    # r-subset, so spanning holds and admissibility is the full index set
    # being an anticone.
    def check(report, rng):
        return report.passed == (frozenset(range(1, data.m + 1)) in _family(data))

    return check


def _chamber_check(data: GITData):
    def check(chamber, rng):
        negative = [-x for x in data.omega]
        return oracles.strictly_inside(chamber.normals, data.omega) and not oracles.strictly_inside(
            chamber.normals, negative
        )

    return check


def _crossing_check(data: GITData):
    def check(wc, rng):
        eta_p, eta_m = oracles.eta_pair(data.weights, wc.e)
        sign_p = sum(a * b for a, b in zip(wc.e, wc.omega_plus))
        sign_m = sum(a * b for a, b in zip(wc.e, wc.omega_minus))
        on_wall = sum(a * b for a, b in zip(wc.e, wc.omega_zero))
        return wc.crepant == (eta_p == eta_m) and sign_p > 0 > sign_m and on_wall == 0

    return check


def _extend_check(data: GITData):
    def check(ext, rng):
        extra = data.m + 1
        for omega_ext, omega_base in ((ext.omega_plus, ext.wc.omega_plus), (ext.omega_minus, ext.wc.omega_minus)):
            fam = oracles.simplicial_anticones(ext.data.weights, omega_ext)
            if any(extra not in s for s in fam):
                return False
            reduced = {s - {extra} for s in oracles.minimal_sets(fam)}
            if reduced != oracles.minimal_sets(oracles.simplicial_anticones(data.weights, omega_base)):
                return False
        return True

    return check


def _seven_loci_check(ext):
    def check(loci, rng):
        for locus, omega in (
            (loci.v_plus, ext.omega_plus),
            (loci.v_minus, ext.omega_minus),
            (loci.v_tilde, ext.omega_tilde),
        ):
            if set(locus.minimal) != oracles.minimal_sets(oracles.simplicial_anticones(ext.data.weights, omega)):
                return False
        return True

    return check


def _crepancy_run(walls):
    def run():
        out = []
        for data in walls:
            wc = wallcrossing.make_wall_crossing(data, ["1"], ["-1"])
            out.append((data, wc.crepant, wallcrossing.eta_invariants(wc)))
        return out

    return run


def _crepancy_check(result, rng) -> bool:
    for data, crepant, eta in result:
        own = oracles.eta_pair(data.weights, (1,))
        if tuple(eta) != own or crepant != (own[0] == own[1]):
            return False
    return True


def chambers() -> Battery:
    cases = [("rank1 m=8", _rank1(8)), ("rank1 m=10", _rank1(10)), ("rank2", RANK2)]
    ops = []
    for label, data in cases:
        ops += [
            Op("anticones %s" % label, lambda d=data: gitdata.anticones(d), _anticones_check(data)),
            Op("validate %s" % label, lambda d=data: gitdata.validate(d), _validate_check(data)),
            Op("chamber_of %s" % label, lambda d=data: gitdata.chamber_of(d), _chamber_check(data)),
        ]
    for label, data, plus, minus in (
        ("conifold", CONIFOLD, ["1"], ["-1"]),
        ("kp2", KP2, ["1"], ["-1"]),
        ("rank2", RANK2, ["1", "1"], ["-1", "1"]),
    ):
        wc = wallcrossing.make_wall_crossing(data, plus, minus)
        ext = wallcrossing.extend(wc)
        ops += [
            Op(
                "make_wall_crossing %s" % label,
                lambda d=data, p=plus, q=minus: wallcrossing.make_wall_crossing(d, p, q),
                _crossing_check(data),
            ),
            Op("extend %s" % label, lambda wc=wc: wallcrossing.extend(wc), _extend_check(data)),
            Op("seven_loci %s" % label, lambda ext=ext: windows.seven_loci(ext), _seven_loci_check(ext)),
        ]
    walls = [GITData.make(1, [(w,) for w in ws], ["1"]) for ws in CREPANCY_WALLS]
    ops.append(Op("crepancy rank-1 walls", _crepancy_run(walls), _crepancy_check))

    def controls(results):
        data = _rank1(8)
        opposite = oracles.simplicial_anticones(data.weights, [-x for x in data.omega])
        return {"chambers: anticones at omega vs the rule at -omega": set(results["anticones rank1 m=8"]) != opposite}

    probes = ["anticones rank1 m=8", "validate rank2", "chamber_of rank2", "make_wall_crossing conifold",
              "extend conifold", "seven_loci conifold", "crepancy rank-1 walls"]
    return Battery(ops, probes, controls)


# -- orbifold-euler -------------------------------------------------------------------

ORBIFOLD_CASES = (
    ("P(1,2,3)", ((1,), (2,), (3,)), ["1"], [(-1,), (1,), (6,)]),
    ("P(2,3,4)", ((2,), (3,), (4,)), ["1"], [(5,)]),
    ("P(1,2,5)", ((1,), (2,), (5,)), ["1"], [(3,)]),
    ("P(1,1,2,2)", ((1,), (1,), (2,), (2,)), ["1"], [(2,)]),
    ("P(3,5)", ((3,), (5,)), ["1"], [(0,), (4,), (7,)]),
    ("P1xP1", ((1, 0), (1, 0), (0, 1), (0, 1)), ["1", "1"], [(0, 0), (2, 1), (-1, 3)]),
)


def _euler_run(data: GITData, u):
    E = EquivClass.line(data.r, data.m, u)
    return lambda: localization.euler_characteristic(data, E).as_laurent_polynomial()


def _euler_check(data: GITData, u):
    def check(poly, rng):
        return poly is not None and oracles.same_laurent(plain_terms(poly), oracles.section_count(data.weights, u))

    return check


def orbifold_euler() -> Battery:
    ops = []
    for label, weights, omega, classes in ORBIFOLD_CASES:
        data = GITData.make(len(omega), weights, omega)
        for u in classes:
            ops.append(Op("euler %s O%s" % (label, u), _euler_run(data, u), _euler_check(data, u)))

    def controls(results):
        poly = plain_terms(results["euler P(1,2,3) O(1,)"])
        return {"orbifold: P(1,2,3) O(1) vs sections of O(2)": not oracles.same_laurent(
            poly, oracles.section_count(((1,), (2,), (3,)), (2,))
        )}

    probes = ["euler P(3,5) O(4,)", "euler P1xP1 O(2, 1)", "euler P(1,2,3) O(1,)"]
    return Battery(ops, probes, controls)


WORKLOADS = {
    "fm-sweep": fm_sweep,
    "hrr-order": hrr_order,
    "chambers": chambers,
    "orbifold-euler": orbifold_euler,
}
