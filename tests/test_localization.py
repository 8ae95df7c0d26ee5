import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from budget import Budget
from torickit.errors import ConvergenceError, InputError
from torickit.exactalg import (
    Cyc,
    Factor,
    IntMatrix,
    LaurentPoly,
    RationalCharacter,
    expand_rational,
    primitive_integer_vector,
    rat_equal,
)
from torickit.exactalg.laurent import exp_apply
from torickit.gitdata import GITData, fixed_points, validate
from torickit.localization import (
    EquivClass,
    euler_characteristic,
    fixed_point_data,
    fixed_point_list,
    hrr_check,
    hrr_rhs,
    restrict,
    sections_character,
)
from twisted_reference import twisted_euler_characteristic

CONIFOLD = GITData.make(1, [(1,), (1,), (-1,), (-1,)], ["1"])
P12 = GITData.make(1, [(1,), (2,)], ["1"])
C2 = GITData.make(0, [(), ()], [])
DIAG = [[1], [1]]


def O(data, a):
    return EquivClass.line(data.r, data.m, (a,) if data.r else ())


def test_fixed_point_data_p12():
    fp = fixed_point_data(P12, {2})
    assert fp.group_order == 2
    assert fp.group_elements == ((Fraction(0),), (Fraction(1, 2),))
    assert fp.tangent_weights[1] == (Fraction(1), Fraction(-1, 2))
    # g = 1/2 acts on the tangent line (-D_1, e_1) by -1
    tangent_line = EquivClass.line(1, 2, (-1,), (1, 0))
    assert restrict(tangent_line, fp, 1) == LaurentPoly.monomial(2, fp.tangent_weights[1], Cyc.rational(-1))


def test_fixed_point_data_conifold():
    fp = fixed_point_data(CONIFOLD, {1})
    assert fp.group_order == 1
    assert fp.tangent_weights[2] == (Fraction(-1), Fraction(1), Fraction(0), Fraction(0))
    assert fp.tangent_weights[3] == (Fraction(1), Fraction(0), Fraction(1), Fraction(0))
    assert fp.tangent_weights[4] == (Fraction(1), Fraction(0), Fraction(0), Fraction(1))


def test_fixed_point_data_rank_zero():
    fp = fixed_point_data(C2, frozenset())
    assert fp.group_order == 1
    assert fp.tangent_weights[1] == (Fraction(1), Fraction(0))
    assert fp.tangent_weights[2] == (Fraction(0), Fraction(1))


def test_fixed_point_data_rejects_non_anticone():
    with pytest.raises(InputError):
        fixed_point_data(CONIFOLD, {3})
    with pytest.raises(InputError):
        fixed_point_data(CONIFOLD, {1, 2})
    dependent = GITData.make(2, [(1, 0), (2, 0), (0, 1)], ["1", "1"])
    with pytest.raises(InputError, match="delta-columns are degenerate"):
        fixed_point_data(dependent, {1, 2})


def test_fixed_point_group_order_is_the_determinant():
    data = GITData.make(2, [(2, 0), (0, 2), (1, 1)], ["3", "1"])
    orders = []
    for delta in fixed_points(data):
        fp = fixed_point_data(data, delta)
        cols = data.submatrix_columns(fp.delta)
        assert fp.group_order == abs(IntMatrix.from_rows(cols).det()) == len(fp.group_elements)
        orders.append(fp.group_order)
    assert orders == [4, 2]  # Z/2 x Z/2 at {1,2}, Z/2 at {1,3}


def test_restrict_trivial_class():
    for data in (CONIFOLD, P12):
        for delta in fixed_points(data):
            fp = fixed_point_data(data, delta)
            for gi in range(fp.group_order):
                assert restrict(O(data, 0), fp, gi) == LaurentPoly.one(data.m)


def test_restrict_twist_on_p12():
    fp1 = fixed_point_data(P12, {1})
    assert restrict(O(P12, 1), fp1, 0) == LaurentPoly.monomial(2, (1, 0))
    fp2 = fixed_point_data(P12, {2})
    got = restrict(O(P12, 1), fp2, 1)
    expected = LaurentPoly.monomial(2, (0, Fraction(1, 2)), Cyc.root_of_unity(Fraction(1, 2)))
    assert got == expected


def test_restrict_multiplicative_on_random_classes():
    rng = random.Random(3)
    fp = fixed_point_data(P12, {2})
    for _ in range(10):
        e1 = EquivClass.line(1, 2, (rng.randint(-2, 2),), (rng.randint(-1, 1), rng.randint(-1, 1)))
        e2 = EquivClass.line(1, 2, (rng.randint(-2, 2),), (rng.randint(-1, 1), rng.randint(-1, 1)))
        for gi in range(2):
            assert restrict(e1.tensor(e2), fp, gi) == restrict(e1, fp, gi) * restrict(e2, fp, gi)


def test_euler_c2_structure_sheaf():
    chi = euler_characteristic(C2, O(C2, 0))
    expected = RationalCharacter.fraction(
        LaurentPoly.one(2),
        [Factor(Cyc.rational(1), (Fraction(1), Fraction(0))), Factor(Cyc.rational(1), (Fraction(0), Fraction(1)))],
    )
    assert rat_equal(chi, expected)
    # diagonal specialization counts monomials by degree: sum (n+1) e^{n l}
    diag = chi.specialize(DIAG)
    series = diag.power_series(5)
    for n in range(6):
        assert series.coefficient((n,)) == Cyc.rational(n + 1)


def test_euler_p12_against_section_oracle():
    for a in range(5):
        chi = euler_characteristic(P12, O(P12, a))
        oracle = sections_character(P12, (a,), bound=8)
        assert rat_equal(chi, RationalCharacter.from_poly(oracle))
        poly = chi.as_laurent_polynomial()
        assert poly is not None and poly == oracle and poly.all_rational()


def test_euler_untwisted_matches_manual_formula():
    # with trivial isotropy the term at delta={1} is 1/prod(1-e^{w_j})
    chi = euler_characteristic(CONIFOLD, O(CONIFOLD, 0))
    fp = fixed_point_data(CONIFOLD, {1})
    term = RationalCharacter.fraction(
        LaurentPoly.one(4), [Factor(Cyc.rational(1), fp.tangent_weights[j]) for j in (2, 3, 4)]
    )
    fp2 = fixed_point_data(CONIFOLD, {2})
    term2 = RationalCharacter.fraction(
        LaurentPoly.one(4), [Factor(Cyc.rational(1), fp2.tangent_weights[j]) for j in (1, 3, 4)]
    )
    assert rat_equal(chi, term + term2)


def D(N):
    """Fixed point {2,3} has isotropy of order 2N."""
    return GITData.make(2, [(1, 0), (N, 1), (N, -1), (-1, 0)], ["1/20", "1/%d" % (100 * N)])


def random_class(rng, r, m):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        u = tuple(rng.randint(-3, 3) for _ in range(r))
        s = tuple(rng.randint(-1, 1) for _ in range(m))
        terms[(u, s)] = rng.choice((-2, -1, 1, 2))
    return EquivClass(r, m, terms)


def test_euler_collapse_agrees_with_raw():
    # the isotropy projection against the literal per-element sum
    for data, a in ((P12, 1), (P12, 2), (P12, 3), (CONIFOLD, 1)):
        assert rat_equal(twisted_euler_characteristic(data, O(data, a)), euler_characteristic(data, O(data, a)))
    # seeded random classes on rank-1 data with |G| <= 6, and on D_2, D_3;
    # the reference's clearing grows fast with m and |G|, so both stay small
    rng = random.Random(11)
    cases = [D(2), D(3)]
    while len(cases) < 32:
        m = rng.randint(2, 3)
        data = GITData.make(1, [(rng.choice((-2, -1, 1, 2, 3, 4, 6)),) for _ in range(m)], ["1"])
        if validate(data).passed:
            cases.append(data)
    twisted = conductors = 0
    for i, data in enumerate(cases):
        E = random_class(rng, data.r, data.m)
        raw = twisted_euler_characteristic(data, E)
        assert rat_equal(raw, euler_characteristic(data, E)), data
        twisted += max(fp.group_order for fp in fixed_point_list(data)) > 1
        conductors += i < 2 and any(f.c.n > 1 for _, den in raw.terms for f in den)
    assert twisted >= 25
    # D_2 and D_3 reach i and a cube root of unity; P12, the conifold and C2 only +-1
    assert conductors >= 1


def test_collapse_at_isotropy_order_200():
    data = D(100)
    assert max(fp.group_order for fp in fixed_point_list(data)) == 200
    with Budget("D_100 collapse", "collapsed Euler characteristic at |G| = 200", 2.0):
        chi = euler_characteristic(data, EquivClass.line(2, 4, (0, 0)))
    # at {2,3}, e^{k1 w1 + k2 w2} is invariant exactly when k1 = k2 mod 200:
    # the invariant ring's series, one factor per tangent direction
    w1, w2 = (200, -1, -1, 0), (0, 1, 1, 200)
    twisted = RationalCharacter.fraction(
        LaurentPoly(4, {(k, 0, 0, k): 1 for k in range(200)}), [Factor(Cyc.rational(1), w) for w in (w1, w2)]
    )
    untwisted = RationalCharacter.fraction(
        LaurentPoly.one(4), [Factor(Cyc.rational(1), w) for w in ((-200, 1, 1, 0), (1, 0, 0, 1))]
    )
    assert str(chi) == str(untwisted + twisted)


def test_twisted_sum_compares_no_two_roots_of_unity(monkeypatch):
    # the sectors of one fixed point differ only in their roots of unity; a
    # merge that compared their factors by value would do so pairwise, |G|^2
    from torickit.localization import _twisted_sum

    data = D(50)
    fps = fixed_point_list(data)
    assert max(fp.group_order for fp in fps) == 100
    compared = []
    eq = Cyc.__eq__

    def counted(self, other):
        if isinstance(other, Cyc) and not self.is_rational() and not other.is_rational():
            compared.append((self, other))
        return eq(self, other)

    with monkeypatch.context() as patch:
        patch.setattr(Cyc, "__eq__", counted)
        chi = _twisted_sum(fps, EquivClass.line(2, 4, (0, 0)), None)
    assert compared == []
    assert len(chi.terms) == sum(fp.group_order for fp in fps)


def test_denominator_factors_compare_no_two_roots_of_unity(monkeypatch):
    # factors are keyed by representation: gathering the common denominator
    # of the D_50 sectors compares no two roots of unity
    from torickit.localization import _twisted_sum

    chi = _twisted_sum(fixed_point_list(D(50)), EquivClass.line(2, 4, (0, 0)), None)
    compared = []
    eq = Cyc.__eq__

    def counted(self, other):
        if isinstance(other, Cyc) and not self.is_rational() and not other.is_rational():
            compared.append((self, other))
        return eq(self, other)

    with monkeypatch.context() as patch:
        patch.setattr(Cyc, "__eq__", counted)
        with Budget("D_50 factors", "common denominator of the twisted sectors", 1.0):
            common = chi.denominator_factors()
    assert compared == []
    assert max(common.values()) == 1 and len(common) > 100


def test_euler_cyclotomic_parts_cancel():
    # P12, the conifold and C2 reach only the roots +-1; P(1,2,3), P(3,5)
    # and D_3 reach roots of unity of order 3, 5 and 6, which must cancel
    cases = [(data, O(data, 1 if data.r else 0)) for data in (P12, CONIFOLD, C2)]
    cases += [
        (GITData.make(1, [(1,), (2,), (3,)], ["1"]), EquivClass.line(1, 3, (1,))),
        (GITData.make(1, [(3,), (5,)], ["1"]), EquivClass.line(1, 2, (4,))),
        (D(3), EquivClass.line(2, 4, (1, 0))),
    ]
    conductors = set()
    for data, E in cases:
        chi = twisted_euler_characteristic(data, E)
        conductors |= {f.c.n for _, den in chi.terms for f in den}
        # the factors are not rational one by one, only their product is
        den = LaurentPoly.one(chi.nvars)
        for f, k in chi.denominator_factors().items():
            den = f.times(den, k)
        assert chi.cleared_numerator().all_rational() and den.all_rational()
    assert max(conductors) > 2


def test_euler_characteristic_takes_no_root_of_unity(monkeypatch):
    from torickit import localization

    def refused(theta):
        raise AssertionError("a root of unity was built for an Euler characteristic")

    def no_group(matrix):
        raise AssertionError("an isotropy group was built for an Euler characteristic")

    cases = [
        (GITData.make(1, [(1,), (2,), (3,)], ["1"]), EquivClass.line(1, 3, (1,))),  # P(1,2,3)
        (GITData.make(1, [(3,), (5,)], ["1"]), EquivClass.line(1, 2, (4,))),  # P(3,5)
        (D(3), EquivClass.line(2, 4, (1, 0))),
    ]
    with monkeypatch.context() as patch:
        patch.setattr(Cyc, "root_of_unity", staticmethod(refused))
        patch.setattr(localization, "smith_normal_form", no_group)
        chis = [euler_characteristic(data, E) for data, E in cases]
    for (data, E), chi in zip(cases, chis):
        assert max(fp.group_order for fp in fixed_point_list(data)) > 2
        assert rat_equal(chi, twisted_euler_characteristic(data, E))


def test_euler_chamber_invariance():
    for omega in (["1"], ["5/2"], ["17"]):
        chi = euler_characteristic(CONIFOLD.with_omega(omega), O(CONIFOLD, 1))
        base = euler_characteristic(CONIFOLD, O(CONIFOLD, 1))
        assert rat_equal(chi, base)


def test_cross_chamber_difference_clears_over_canonical_factors():
    # quasi-symmetric r = 2 data: chi of a window class is the same in two
    # chambers.  Each difference holds 21 distinct factors, opposite and
    # multiple ones among them; the clearing keeps one per primitive form
    data = GITData.make(2, [(1, -1), (-1, 1), (0, 4), (0, -1), (0, -3), (8, -4), (-8, 4)], ["-1", "4/3"])
    other = data.with_omega(["-16/3", "19/8"])
    chi = {
        (side, u): euler_characteristic(side, EquivClass.line(2, 7, u))
        for side in (data, other)
        for u in ((0, 0), (1, 0), (0, 1))
    }
    with Budget("cross-chamber", "three chamber comparisons and a nonzero control", 1.0):
        for u in ((0, 0), (1, 0), (0, 1)):
            diff = chi[data, u] - chi[other, u]
            assert len(diff.denominator_factors()) <= 14
            assert diff.is_zero()
        assert not (chi[data, (0, 0)] - chi[other, (1, 0)]).is_zero()


def test_euler_antidiagonal_refused():
    with pytest.raises(ConvergenceError):
        euler_characteristic(C2, O(C2, 0), subtorus=[[-1], [1]])


def test_euler_rejects_invalid_data():
    bad = GITData.make(1, [(1,), (1,)], ["-1"])
    with pytest.raises(InputError):
        euler_characteristic(bad, EquivClass.line(1, 2, (0,)))


def test_fixed_point_list_passes_over_the_wall_cells_once(monkeypatch):
    # validation and the fixed points come from one list of wall cells,
    # already in the order of the sorted anticones
    from torickit import gitdata

    calls = []
    wall_cells = gitdata._wall_cells
    monkeypatch.setattr(gitdata, "_wall_cells", lambda data: calls.append(data) or wall_cells(data))
    data = GITData.make(2, [(1, 0), (1, 0), (0, 1), (1, 1)], ["1", "2"])
    fps = fixed_point_list(data)
    assert len(calls) == 1
    assert [fp.delta for fp in fps] == sorted(tuple(sorted(d)) for d in wall_cells(data))


def test_sections_character_c2():
    sec = sections_character(C2, (), bound=3)
    assert len(sec.terms) == 10  # monomials of total degree <= 3 in two variables
    assert sec.coefficient((1, 2)) == Cyc.rational(1)


def test_sections_character_p12():
    sec = sections_character(P12, (2,), bound=2)
    assert sec == LaurentPoly(2, {(2, 0): 1, (0, 1): 1})


def test_sections_character_conifold_invariants():
    sec = sections_character(CONIFOLD, (0,), bound=2)
    # monomials with a1+a2 = a3+a4: 1, and the four products z_i z_j
    assert sec.coefficient((0, 0, 0, 0)) == Cyc.rational(1)
    assert sec.coefficient((1, 0, 1, 0)) == Cyc.rational(1)
    assert sec.coefficient((0, 1, 0, 1)) == Cyc.rational(1)
    assert sec.coefficient((1, 0, 0, 0)) == Cyc.rational(0)
    assert len(sec.terms) == 5


def test_hrr_rhs_c2_diagonal_reference_values():
    s = hrr_rhs(C2, O(C2, 0), 2, subtorus=DIAG)
    from torickit.exactalg.series import RatFun

    lam = LaurentPoly(1, {(1,): 1})
    assert s.coefficient(-2) == RatFun(LaurentPoly.one(1), lam * lam)
    assert s.coefficient(-1) == RatFun(-LaurentPoly.one(1), lam)
    assert s.coefficient(0) == RatFun(LaurentPoly.one(1) * Fraction(5, 12))
    assert s.coefficient(1) == RatFun(lam * Fraction(-1, 12))
    assert s.coefficient(2) == RatFun(lam * lam * Fraction(1, 240))


def test_hrr_rhs_empty_class_is_zero():
    s = hrr_rhs(P12, EquivClass.zero(1, 2), 3)
    assert not s.data


def test_hrr_rhs_p12_structure_sheaf_is_one():
    s = hrr_rhs(P12, O(P12, 0), 3)
    assert s.coefficient(0) == 1
    assert all(s.coefficient(n).is_zero() for n in range(-2, 4) if n != 0)
    assert s == expand_rational(euler_characteristic(P12, O(P12, 0)), 3)


def test_hrr_check_examples():
    assert hrr_check(C2, O(C2, 0), 4, subtorus=DIAG).equal
    assert hrr_check(P12, O(P12, 1), 3).equal
    assert hrr_check(CONIFOLD, O(CONIFOLD, 0), 3).equal


def test_euler_additive_on_virtual_classes():
    a = EquivClass.line(1, 2, (1,))
    b = EquivClass.line(1, 2, (3,), coeff=-2)
    lhs = euler_characteristic(P12, a + b)
    rhs = euler_characteristic(P12, a) + euler_characteristic(P12, b)
    assert rat_equal(lhs, rhs)
    # and the virtual character matches the signed section count
    sections = sections_character(P12, (1,), 8) + sections_character(P12, (3,), 8) * Cyc.rational(-2)
    assert rat_equal(lhs, RationalCharacter.from_poly(sections))


def test_hrr_check_virtual_class():
    virtual = EquivClass.line(1, 2, (2,)) - EquivClass.line(1, 2, (0,))
    assert hrr_check(P12, virtual, 3).equal


def test_hrr_check_orbifold_affine_quotient():
    # [C^3/Z_3]: every fixed-point factor is twisted by a cube root of unity
    minus = GITData.make(1, [(1,), (1,), (1,), (-3,)], ["-1"])
    assert hrr_check(minus, EquivClass.line(1, 4, (0,)), 3).equal
    assert hrr_check(minus, EquivClass.line(1, 4, (1,)), 3).equal


def test_hrr_check_kp2_at_order_6_within_budget():
    # both sides expand over one denominator, the product of the primitive
    # pole forms, at smooth and orbifold points alike, so the comparison
    # never cross-multiplies them
    kp2 = GITData.make(1, [(1,), (1,), (1,), (-3,)], ["1"])
    with Budget("kp2 hrr order 6", "K_P2 O(1) index theorem at order 6", 2.5):
        report = hrr_check(kp2, EquivClass.line(1, 4, (1,)), 6)
    assert report.equal


def test_hrr_report_shape():
    rep = hrr_check(P12, O(P12, 0), 2)
    d = rep.to_json_dict()
    assert d["equal"] is True and d["first_mismatch_degree"] is None
    assert "MATCH" in str(rep)


def test_hrr_check_builds_each_fixed_point_once(monkeypatch):
    # both sides of the comparison read one fixed-point list
    import torickit.localization as localization

    calls = []
    build = localization.fixed_point_data

    def counting(data, delta):
        calls.append(tuple(sorted(delta)))
        return build(data, delta)

    monkeypatch.setattr(localization, "fixed_point_data", counting)
    assert hrr_check(P12, O(P12, 1), 2).equal
    assert calls == [(1,), (2,)]


def test_integral_exponent_entries_are_int():
    # integral entries hash and add as int; fractional ones stay Fraction
    fp = fixed_point_data(P12, {2})
    w = fp.tangent_weights[1]
    assert w == (1, Fraction(-1, 2)) and [type(x) for x in w] == [int, Fraction]
    assert [type(x) for x in fp.fiber_exponent((2,), (0, 0))] == [int, int]
    (q1,) = restrict(O(P12, 1), fp, 0).terms
    (q2,) = restrict(O(P12, 2), fp, 1).terms
    assert [type(x) for x in q1] == [int, Fraction] and [type(x) for x in q2] == [int, int]
    assert [type(x) for x in exp_apply([[1], [1]], (Fraction(2), Fraction(3)))] == [int]
    assert exp_apply([[1], [1]], (Fraction(1, 2), 0)) == (Fraction(1, 2),)


def test_class_entries_must_be_integers():
    for build in (
        lambda: EquivClass.line(1, 2, (1.5,)),
        lambda: EquivClass.line(1, 2, (1,), s=(0, Fraction(1, 2))),
        lambda: EquivClass(1, 2, {((2,), (0, 0)): 0.5}),
    ):
        with pytest.raises(InputError):
            build()
    assert EquivClass.line(1, 2, (Fraction(2),), coeff=2.0) == EquivClass.line(1, 2, (2,), coeff=2)


GOLDEN = Path(__file__).parent / "golden"


def twisted_hrr_cases():
    """Classes whose fixed points have twisted sectors with roots of unity
    other than +-1: the isotropy orders reach 3, 6 and 6."""
    return {
        "P(1,2,3) O(1)": (GITData.make(1, [(1,), (2,), (3,)], ["1"]), EquivClass.line(1, 3, (1,))),
        "P(1,4,6) O(1)": (GITData.make(1, [(1,), (4,), (6,)], ["1"]), EquivClass.line(1, 3, (1,))),
        "kp2 omega=-1 O(1)": (GITData.make(1, [(1,), (1,), (1,), (-3,)], ["-1"]), EquivClass.line(1, 4, (1,))),
        "D(3) O(0,0)": (D(3), EquivClass.line(2, 4, (0, 0))),
    }


def test_hrr_check_twisted_d3_at_order_10_within_budget():
    # |G| = 6 at the fixed point {2,3}: every sector's regular factors
    # 1/(1 - zeta e^{w.lambda}) expand as scalars a_n(zeta) times powers of
    # w.lambda, with no products of polynomial series
    data, E = twisted_hrr_cases()["D(3) O(0,0)"]
    with Budget("D(3) hrr order 10", "twisted-sector index theorem at |G| = 6, order 10", 2.5):
        report = hrr_check(data, E, 10)
    assert report.equal


def test_twisted_hrr_golden():
    # hrr_check JSON at order 2 on the twisted cases: pins how the index
    # formula's sum over twisted sectors prints
    produced = {name: hrr_check(data, E, 2).to_json_dict() for name, (data, E) in twisted_hrr_cases().items()}
    text = json.dumps(produced, indent=2, sort_keys=True) + "\n"
    assert text.encode("utf-8") == (GOLDEN / "twisted_hrr.json").read_bytes()


def test_twisted_hrr_is_rational_and_matches_at_order_4():
    for name, (data, E) in twisted_hrr_cases().items():
        rhs = hrr_rhs(data, E, 4)
        coeffs = [c for piece in rhs.data.values() for p in (piece.num, piece.den) for c in p.terms.values()]
        assert coeffs and all(c.n == 1 for c in coeffs), name
        assert hrr_check(data, E, 4).equal, name


def test_twisted_hrr_rationality_guard_fires(monkeypatch, capsys, tmp_path):
    # a trace scaled by a cube root of unity is no longer Galois-stable
    import torickit.localization as localization
    from torickit.cli import main

    data, E = twisted_hrr_cases()["P(1,2,3) O(1)"]
    restrict_plain = localization.restrict
    monkeypatch.setattr(localization, "restrict", lambda *a: restrict_plain(*a) * Cyc.root_of_unity(Fraction(1, 3)))
    with pytest.raises(AssertionError, match="non-rational"):
        hrr_check(data, E, 2)
    path = tmp_path / "p123.json"
    path.write_text(json.dumps(data.to_json_dict()))
    assert main(["hrr-check", "--data", str(path), "--class", "O(1)", "--order", "2"]) == 3
    assert "internal error:" in capsys.readouterr().err


def test_hrr_check_d12_at_order_6_within_budget():
    # |G| = 24 at the fixed point {2,3}: the sectors sharing their poles sum
    # their roots of unity as scalars before any polynomial product
    with Budget("D(12) hrr order 6", "twisted-sector index theorem at |G| = 24, order 6", 1.5):
        report = hrr_check(D(12), EquivClass.line(2, 4, (0, 0)), 6)
    assert report.equal


def test_hrr_rhs_multiplies_no_polynomials(monkeypatch):
    # the twisted sectors' roots of unity never meet a polynomial, so the
    # expansion makes no LaurentPoly x LaurentPoly product
    products = []
    mul = LaurentPoly.__mul__

    def counting(self, other, bound=None):
        if isinstance(other, LaurentPoly):
            products.append((len(self.terms), len(other.terms)))
        return mul(self, other, bound)

    for name in ("__mul__", "__rmul__", "mul"):
        monkeypatch.setattr(LaurentPoly, name, counting)
    data, E = twisted_hrr_cases()["D(3) O(0,0)"]
    rhs = hrr_rhs(data, E, 4)
    assert rhs.data and products == []


def test_hrr_check_on_gerbes():
    # P(3,6) and P(3,6,9) have a generic mu_3 stabiliser.  On P(3,6) the
    # sectors of the generic mu_3 carry the numerators 1, z3 and z3^2 of
    # O(1) over the same factors as the identity's, so chi(O(1)) = 0
    P36 = GITData.make(1, [(3,), (6,)], ["1"])
    report = hrr_check(P36, O(P36, 1), 4)
    assert report.equal and not report.lhs.data and not report.rhs.data
    # control: the identity sectors alone do not expand to 0
    fps = fixed_point_list(P36)
    assert all(not any(fp.group_elements[0]) for fp in fps)
    terms = [
        (
            restrict(O(P36, 1), fp, 0) * Fraction(1, fp.group_order),
            [Factor(Cyc.rational(1), fp.tangent_weights[j]) for j in fp.tangent_indices],
        )
        for fp in fps
    ]
    assert expand_rational(RationalCharacter(2, terms), 4).data
    # nonzero classes, the second with sectors whose z3 numerators meet
    # regular factors
    for data, u in ((P36, 3), (GITData.make(1, [(3,), (6,), (9,)], ["1"]), 6)):
        report = hrr_check(data, O(data, u), 4)
        assert report.equal and report.rhs.data, (data, u)


def hrr_order_cases():
    """The benchmark's hrr-order battery, at the orders where its graded
    pieces are products of many-term polynomials."""
    kp2 = GITData.make(1, [(1,), (1,), (1,), (-3,)], ["1"])
    cases = {
        "kp2 O(1) order 2": (kp2, EquivClass.line(1, 4, (1,)), 2, None),
        "kp2 omega=-1 O(1) order 4": (kp2.with_omega(["-1"]), EquivClass.line(1, 4, (1,)), 4, None),
    }
    for k in (0, 1, 2):
        cases["P(1,2) O(%d) order 6" % k] = (P12, EquivClass.line(1, 2, (k,)), 6, None)
    cases["C2 diagonal O order 6"] = (C2, EquivClass.line(0, 2, ()), 6, DIAG)
    return cases


def test_hrr_order_golden():
    # hrr_check JSON at orders 2, 4 and 6: pins every graded piece the
    # rational polynomial products build
    produced = {
        name: hrr_check(data, E, order, subtorus=sub).to_json_dict()
        for name, (data, E, order, sub) in hrr_order_cases().items()
    }
    text = json.dumps(produced, indent=2, sort_keys=True) + "\n"
    assert text.encode("utf-8") == (GOLDEN / "hrr_orders.json").read_bytes()


def test_twisted_hrr_golden_equal_sides_print_identically():
    # equal sides expand over one denominator, so they print the same string
    golden = json.loads((GOLDEN / "twisted_hrr.json").read_text())
    assert all(case["equal"] for case in golden.values())
    for name, case in golden.items():
        assert case["lhs"] == case["rhs"], name


def test_hrr_sides_share_one_denominator_per_expansion():
    # a pole mu.lambda is s * (f.lambda), f primitive with its first nonzero
    # entry positive, so the projection's poles m_j w_j and the sectors'
    # poles w_j give both sides one denominator, at orbifold points too
    cases = twisted_hrr_cases()
    kp2 = GITData.make(1, [(1,), (1,), (1,), (-3,)], ["1"])
    cases["kp2 O(1)"] = (kp2, EquivClass.line(1, 4, (1,)))
    reports = {}
    for name in ("kp2 O(1)", "kp2 omega=-1 O(1)", "P(1,2,3) O(1)", "D(3) O(0,0)"):
        data, E = cases[name]
        reports[name] = report = hrr_check(data, E, 4)
        assert report.equal and report.lhs.data.keys() == report.rhs.data.keys(), name
        for n, piece in report.lhs.data.items():
            assert piece.den == report.rhs.data[n].den, (name, n)
    forms = set()
    for fp in fixed_point_list(kp2):
        for j in fp.tangent_indices:
            f = primitive_integer_vector(fp.tangent_weights[j])
            forms.add(f if next(x for x in f if x) > 0 else tuple(-x for x in f))
    den = LaurentPoly.one(4)
    for f in forms:
        den = den * LaurentPoly(4, {tuple(int(i == j) for j in range(4)): c for i, c in enumerate(f) if c})
    assert len(forms) == 6 and len(den.terms) == 24
    assert all(piece.den == den for piece in reports["kp2 O(1)"].lhs.data.values())
