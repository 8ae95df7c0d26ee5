"""Acceptance suite: one test per criterion, each printing a PASS line and
holding the stated runtime budget."""

import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from budget import Budget
from torickit.errors import ConvergenceError
from torickit.exactalg import (
    Cyc,
    Factor,
    IntMatrix,
    LaurentPoly,
    RationalCharacter,
    expand_rational,
    rat_equal,
    smith_normal_form,
    weights_convex,
)
from torickit.exactalg.series import RatFun
from torickit.gitdata import GITData, anticones, minimal_anticones, validate
from torickit.localization import (
    EquivClass,
    euler_characteristic,
    fixed_point_data,
    hrr_rhs,
    restrict,
    sections_character,
)
from torickit.wallcrossing import eta_invariants, extend, make_wall_crossing
from torickit.windows import fm_euler_check, kn_strata

GOLDEN = Path(__file__).parent / "golden"

CONIFOLD = GITData.make(1, [(1,), (1,), (-1,), (-1,)], ["1"])
KP2 = GITData.make(1, [(1,), (1,), (1,), (-3,)], ["1"])
P12 = GITData.make(1, [(1,), (2,)], ["1"])
C2 = GITData.make(0, [(), ()], [])
DIAG = [[1], [1]]


def _cleared_parts_rational(chi):
    """Are the cleared numerator and the expanded common denominator rational?"""
    den = LaurentPoly.one(chi.nvars)
    for f, k in chi.denominator_factors().items():
        den = f.times(den, k)
    return chi.cleared_numerator().all_rational() and den.all_rational()


def test_criterion_1_hrr_on_affine_plane():
    with Budget("criterion 1", "index theorem on the diagonal affine plane", 1.0):
        O = EquivClass.line(0, 2, ())
        chi = euler_characteristic(C2, O, subtorus=DIAG)
        target = RationalCharacter.fraction(
            LaurentPoly.one(1), [Factor(Cyc.rational(1), (Fraction(1),))] * 2
        )
        assert rat_equal(chi, target)
        lhs = expand_rational(chi, 4)
        rhs = hrr_rhs(C2, O, 4, subtorus=DIAG)
        assert lhs.first_mismatch(rhs) is None
        lam = LaurentPoly(1, {(1,): 1})
        assert lhs.coefficient(-2) == RatFun(LaurentPoly.one(1), lam * lam)
        assert lhs.coefficient(-1) == RatFun(-LaurentPoly.one(1), lam)
        assert lhs.coefficient(0) == RatFun(LaurentPoly.one(1) * Fraction(5, 12))
        assert lhs.coefficient(1) == RatFun(lam * Fraction(-1, 12))
        assert lhs.coefficient(2) == RatFun(lam * lam * Fraction(1, 240))


def test_criterion_2_antidiagonal_rejection():
    with Budget("criterion 2", "anti-diagonal action is refused", 1.0):
        assert not weights_convex([(-1,), (1,)])
        with pytest.raises(ConvergenceError):
            euler_characteristic(C2, EquivClass.line(0, 2, ()), subtorus=[[-1], [1]])


def test_criterion_3_conifold_combinatorics_golden():
    with Budget("criterion 3", "conifold combinatorics match the transcribed golden file", 1.0):
        wc = make_wall_crossing(CONIFOLD, ["1"], ["-1"])
        ext = extend(wc)
        payload = {
            "anticones": [
                sorted(a)
                for a in sorted(anticones(CONIFOLD), key=lambda s: (len(s), tuple(sorted(s))))
            ],
            "minimal_anticones": minimal_anticones(CONIFOLD).to_json_list(),
            "extended_weight_rows": [list(r) for r in zip(*ext.data.weights)],
            "chamber_plus": [list(n) for n in ext.chamber_plus.normals],
            "chamber_minus": [list(n) for n in ext.chamber_minus.normals],
            "chamber_tilde": [list(n) for n in ext.chamber_tilde.normals],
            "resolution_locus": minimal_anticones(ext.data_tilde).to_json_list(),
        }
        produced = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        golden = (GOLDEN / "conifold_combinatorics.json").read_bytes()
        assert produced.encode("utf-8") == golden
        # the anticone condition itself: I is an anticone iff it meets {1,2}
        fam = set(anticones(CONIFOLD))
        for size in range(5):
            for combo in itertools.combinations((1, 2, 3, 4), size):
                assert (frozenset(combo) in fam) == bool(set(combo) & {1, 2})


def test_criterion_4_crepancy_eta_duality():
    with Budget("criterion 4", "crepancy coincides with equal window widths", 5.0):
        for data, eta in ((CONIFOLD, 2), (KP2, 3)):
            wc = make_wall_crossing(data, ["1"], ["-1"])
            assert wc.crepant and eta_invariants(wc) == (eta, eta)
        rng = random.Random(421)
        noncrepant = 0
        while noncrepant < 50:
            m = rng.randint(2, 6)
            weights = [(rng.randint(-3, 3),) for _ in range(m)]
            if not any(w[0] > 0 for w in weights) or not any(w[0] < 0 for w in weights):
                continue
            data = GITData.make(1, weights, ["1"])
            if not validate(data).passed or not validate(data.with_omega(["-1"])).passed:
                continue
            wc = make_wall_crossing(data, ["1"], ["-1"])
            eta_p, eta_m = eta_invariants(wc)
            assert wc.crepant == (eta_p == eta_m)
            if not wc.crepant:
                noncrepant += 1


def test_criterion_5_localization_vs_section_oracle():
    with Budget("criterion 5", "localization matches the section-counting oracle", 10.0):
        for m in (1, 2, 3):
            data = GITData.make(0, [()] * m, [])
            chi = euler_characteristic(data, EquivClass.line(0, m, ()))
            series = chi.power_series(8)
            oracle = sections_character(data, (), bound=8)
            assert series == oracle
            assert _cleared_parts_rational(chi)
        for k in range(5):
            chi = euler_characteristic(P12, EquivClass.line(1, 2, (k,)))
            poly = chi.as_laurent_polynomial()
            oracle = sections_character(P12, (k,), bound=8)
            assert poly is not None and poly == oracle
            assert poly.all_rational()
            assert _cleared_parts_rational(chi)


def test_criterion_6_flop_invariance():
    with Budget("criterion 6", "structure-sheaf characters agree across the flop", 10.0):
        for data in (CONIFOLD, KP2):
            wc = make_wall_crossing(data, ["1"], ["-1"])
            ext = extend(wc)
            O_base = EquivClass.line(1, data.m, (0,))
            O_ext = EquivClass.line(2, data.m + 1, (0, 0))
            chi_p = euler_characteristic(wc.data_plus, O_base)
            chi_m = euler_characteristic(wc.data_minus, O_base)
            chi_t = euler_characteristic(ext.data_tilde, O_ext)
            assert rat_equal(chi_p.specialize(ext.substitution("+")), chi_t)
            assert rat_equal(chi_m.specialize(ext.substitution("-")), chi_t)
            assert rat_equal(chi_p, chi_m)


def test_criterion_7_fm_window_shadow():
    with Budget("criterion 7", "pull-push pairing equals window-transported pairing", 30.0):
        for data, l_range in ((CONIFOLD, (0, 1)), (KP2, (0, 1, 2))):
            wc = make_wall_crossing(data, ["1"], ["-1"])
            ext = extend(wc)
            for a in l_range:
                for b in (-1, 0, 1):
                    L = EquivClass.line(1, data.m, (a,))
                    M = EquivClass.line(1, data.m, (b,))
                    report = fm_euler_check(wc, L, M, ext=ext)
                    assert report.equal, "pair L=O(%d), M=O(%d) on m=%d data" % (a, b, data.m)


def test_criterion_8_property_suites():
    with Budget("criterion 8", "closure, invariance, multiplicativity, normal forms, reindexing", 30.0):
        # anticone enlargement closure, exhaustively up to m = 8
        datasets = [
            CONIFOLD,
            P12,
            KP2,
            GITData.make(1, [(1,)] * 4 + [(-1,)] * 4, ["1"]),  # m = 8
            GITData.make(2, [(1, 0), (0, 1), (1, 1), (-1, 0), (0, -1)], ["2", "1"]),
        ]
        for data in datasets:
            assert validate(data).passed
            fam = set(anticones(data))
            for a in fam:
                for extra in range(1, data.m + 1):
                    assert a | {extra} in fam

        # chamber invariance of the Euler characteristic
        for omega in (["1"], ["3/2"], ["11"]):
            assert rat_equal(
                euler_characteristic(CONIFOLD.with_omega(omega), EquivClass.line(1, 4, (1,))),
                euler_characteristic(CONIFOLD, EquivClass.line(1, 4, (1,))),
            )

        # restriction is multiplicative on random class pairs
        rng = random.Random(99)
        fp = fixed_point_data(P12, {2})
        fpc = fixed_point_data(CONIFOLD, {1})
        for _ in range(25):
            for fpx, r, m in ((fp, 1, 2), (fpc, 1, 4)):
                e1 = EquivClass.line(r, m, (rng.randint(-3, 3),), tuple(rng.randint(-1, 1) for _ in range(m)))
                e2 = EquivClass.line(r, m, (rng.randint(-3, 3),), tuple(rng.randint(-1, 1) for _ in range(m)))
                for gi in range(fpx.group_order):
                    assert restrict(e1.tensor(e2), fpx, gi) == restrict(e1, fpx, gi) * restrict(e2, fpx, gi)

        # Smith normal form on 100 random matrices
        rng = random.Random(5)
        for _ in range(100):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 4)
            mat = IntMatrix.from_rows(
                [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
            )
            u, s, v = smith_normal_form(mat)
            assert u.is_unimodular() and v.is_unimodular()
            assert (u @ mat) @ v == s
            diag = [s[(i, i)] for i in range(min(rows, cols))]
            for x, y in zip(diag, diag[1:]):
                assert (x == 0 and y == 0) or (x >= 0 and y % x == 0 if x else y == 0)

        # window reindexing identity
        for data in (CONIFOLD, KP2):
            wc = make_wall_crossing(data, ["1"], ["-1"])
            eta = kn_strata(wc)[0].eta
            for w in range(-2 * eta, 2 * eta + 1):
                inside = 0 <= w < eta
                assert inside == (-eta < -w <= 0) == (-eta + 1 <= -w < 1)
