import importlib
import itertools
import pkgutil
import random

import pytest

from budget import Budget
from torickit.errors import InputError, NonCrepantError, NotAdjacentError, OnWallError
from simplex_reference import cone_contains
from torickit.exactalg import rat_equal
from torickit.gitdata import GITData, anticones
from torickit.localization import (
    EquivClass,
    euler_characteristic,
    fixed_point_data,
    fixed_point_list,
    restrict,
    untwisted_trace,
)
from torickit.wallcrossing import extend, make_wall_crossing, partition_M, pullback_class, unstable_koszul_classes
from torickit.windows import (
    Window,
    fm_euler_check,
    in_window,
    kn_strata,
    lifts_agree,
    seven_loci,
    window_lift,
    window_weights,
)

CONIFOLD = GITData.make(1, [(1,), (1,), (-1,), (-1,)], ["1"])
KP2 = GITData.make(1, [(1,), (1,), (1,), (-3,)], ["1"])
RANK2 = GITData.make(2, [(1, -1), (1, -1), (-1, 0), (-1, 0), (0, 1)], ["1", "1"])
BALANCED = GITData.make(1, [(1,)] * 8 + [(-1,)] * 8, ["1"])


def crossing(data):
    return make_wall_crossing(data, ["1"], ["-1"])


def O(a, m=4):
    return EquivClass.line(1, m, (a,))


def test_kn_strata_conifold():
    sp, sm = kn_strata(crossing(CONIFOLD))
    assert sp.eta == sm.eta == 2
    assert sp.lam == (1,) and sm.lam == (-1,)
    assert sp.fixed_support == frozenset()
    assert sp.blade_support == frozenset({3, 4})
    assert sm.blade_support == frozenset({1, 2})


def test_kn_strata_kp2_and_degenerate_flop():
    sp, sm = kn_strata(crossing(KP2))
    assert sp.eta == sm.eta == 3
    flop = GITData.make(1, [(1,), (-1,)], ["1"])
    sp, sm = kn_strata(crossing(flop))
    assert sp.eta == sm.eta == 1


def test_eta_matches_invariant_route():
    from torickit.wallcrossing import eta_invariants

    for data in (CONIFOLD, KP2):
        wc = crossing(data)
        sp, sm = kn_strata(wc)
        assert (sp.eta, sm.eta) == eta_invariants(wc)


def test_seven_loci_conifold():
    ext = extend(crossing(CONIFOLD))
    loci = seven_loci(ext)
    assert loci.v_tilde.to_json_list() == [[1, 3], [1, 4], [2, 3], [2, 4]]
    assert loci.v_plus.to_json_list() == [[1, 5], [2, 5]]
    assert loci.v_minus.to_json_list() == [[3, 5], [4, 5]]
    assert loci.v0.to_json_list() == [[]]
    assert loci.v_plus_minus.to_json_list() == [[5]]
    assert loci.v_plus_tilde.to_json_list() == [[1], [2]]
    assert loci.v_minus_tilde.to_json_list() == [[3], [4]]


def test_seven_loci_set_relations():
    # each smaller locus is the filter of the bigger one by its condition
    for data in (CONIFOLD, KP2):
        ext = extend(crossing(data))
        loci = seven_loci(ext)
        v0 = set(loci.v0.family())
        for locus in (loci.v_plus, loci.v_minus, loci.v_tilde, loci.v_plus_minus,
                      loci.v_plus_tilde, loci.v_minus_tilde):
            assert set(locus.family()) <= v0


def _reference_seven_loci(ext):
    """The seven loci by enumeration: the on-wall anticone family from the
    simplex on every subset, then every subset of {1..m+1} tested against
    the union formula and each locus's condition."""
    wc = ext.wc
    m = wc.base.m
    m_plus, m_zero, m_minus = partition_M(wc)
    wall = wc.base.with_omega(wc.omega_zero)

    def subsets(n):
        return [frozenset(c) for size in range(n + 1) for c in itertools.combinations(range(1, n + 1), size)]

    fam0 = [s for s in subsets(m) if cone_contains(wall.submatrix_columns(s), wall.omega, strict=True)]

    def v0_member(support):
        j = support - {m + 1}
        if any(i <= j for i in fam0 if i <= m_zero):
            return True
        return (m + 1) in support and any(i <= j for i in fam0)

    v0_family = [s for s in subsets(m + 1) if v0_member(s)]

    def minimal(family):
        kept = [s for s in family if not any(t < s for t in family)]
        return sorted((sorted(s) for s in kept), key=lambda s: (len(s), s))

    def carve(condition):
        return minimal([s for s in v0_family if condition(s)])

    return {
        "W0": minimal(v0_family),
        "C+": carve(lambda s: (m + 1) in s and s & m_plus),
        "C-": carve(lambda s: (m + 1) in s and s & m_minus),
        "C~": carve(lambda s: s & m_plus and s & m_minus),
        "W+|-": carve(lambda s: (m + 1) in s),
        "W+|~": carve(lambda s: s & m_plus),
        "W-|~": carve(lambda s: s & m_minus),
    }


def test_seven_loci_match_enumeration_on_random_crossings():
    rng = random.Random(31)
    found = {1: 0, 2: 0}
    while min(found.values()) < 12:
        r = rng.choice((1, 2))
        m = rng.randint(r + 2, 5)
        weights = [tuple(rng.randint(-2, 2) for _ in range(r)) for _ in range(m)]
        if r == 1:
            plus, minus = ["1"], ["-1"]
        else:
            plus = [str(rng.randint(-3, 3)) for _ in range(2)]
            minus = [str(rng.randint(-3, 3)) for _ in range(2)]
        try:
            wc = make_wall_crossing(GITData.make(r, weights, plus), plus, minus)
        except (InputError, NotAdjacentError, OnWallError):
            continue
        ext = extend(wc)
        assert seven_loci(ext).to_json_dict() == _reference_seven_loci(ext), (weights, plus, minus)
        found[r] += 1


def test_wall_side_never_runs_the_simplex():
    import torickit

    names = ["torickit"] + [info.name for info in pkgutil.walk_packages(torickit.__path__, "torickit.")]
    modules = [importlib.import_module(name) for name in names]
    assert len(modules) >= 15  # the package, its seven modules, exactalg and its six
    for module in modules:
        for name in ("solve_lp", "cone_contains", "feasible"):
            assert not hasattr(module, name), (module.__name__, name)
    # the on-wall family comes from wall cells and positive circuits: the empty
    # set, the pairs {1,3}, {1,4}, {2,3}, {2,4}, the four triples and {1,2,3,4}
    assert len(anticones(CONIFOLD.with_omega(["0"]))) == 10
    for data, plus, minus in (
        (CONIFOLD, ["1"], ["-1"]),
        (KP2, ["1"], ["-1"]),
        (RANK2, ["1", "1"], ["-1", "1"]),
        (BALANCED, ["1"], ["-1"]),
    ):
        wc = make_wall_crossing(data, plus, minus)
        seven_loci(extend(wc))
        kn_strata(wc)


def test_v_plus_minus_reduces_to_wall_locus():
    # deleting the extra index turns the [+|-] locus into the wall locus
    for data in (CONIFOLD, KP2):
        wc = crossing(data)
        ext = extend(wc)
        loci = seven_loci(ext)
        m1 = data.m + 1
        assert all(m1 in a for a in loci.v_plus_minus.minimal)
        reduced = {a - {m1} for a in loci.v_plus_minus.family()}
        fam0 = anticones(data.with_omega(wc.omega_zero))
        # supports of wall-semistable points: upward closure of the wall anticones
        import itertools

        closure = {
            frozenset(c)
            for size in range(data.m + 1)
            for c in itertools.combinations(range(1, data.m + 1), size)
            if any(i <= frozenset(c) for i in fam0)
        }
        assert reduced == closure


def test_window_weights():
    wc = crossing(CONIFOLD)
    sp, _ = kn_strata(wc)
    assert window_weights(O(0), sp) == [0]
    assert window_weights(O(1), sp) == [1]
    assert window_weights(O(0) + O(1), sp) == [0, 1]
    assert window_weights(EquivClass.zero(1, 4), sp) == []


def test_in_window_examples():
    wc = crossing(CONIFOLD)
    sp, _ = kn_strata(wc)
    w = Window(sp, 0)
    assert w.width == 2
    assert in_window(O(0), w) and in_window(O(1), w)
    assert not in_window(O(2), w)
    assert in_window(EquivClass.zero(1, 4), w)
    wk = crossing(KP2)
    spk, _ = kn_strata(wk)
    wk0 = Window(spk, 0)
    assert all(in_window(O(a), wk0) for a in (0, 1, 2))
    assert not in_window(O(3), wk0)


def test_window_reindexing_identity():
    for eta in range(1, 6):
        for w in range(-8, 9):
            inside = 0 <= w < eta
            assert inside == (-eta < -w <= 0)
            assert inside == (-eta + 1 <= -w < 1)


def test_koszul_relation_vanishes_on_minus_side():
    for data in (CONIFOLD, KP2):
        wc = crossing(data)
        product = EquivClass.line(1, data.m, (0,))
        for x in unstable_koszul_classes(wc):
            product = product.tensor(EquivClass.line(1, data.m, (0,)) - x)
        for delta in (
            d for d in __import__("torickit.gitdata", fromlist=["fixed_points"]).fixed_points(wc.data_minus)
        ):
            fp = fixed_point_data(wc.data_minus, delta)
            for gi in range(fp.group_order):
                assert restrict(product, fp, gi).is_zero()
        assert wc.koszul_relation == product


def test_untwisted_trace_decides_vanishing_at_every_element():
    # (u, s) and (u + k D_i, s - k e_i) have one fiber exponent for i in delta,
    # so their difference vanishes; a tangent column j moves the exponent by
    # -k w_j, so the same pair built on j does not
    rng = random.Random(5)
    d2 = GITData.make(2, [(1, 0), (2, 1), (2, -1), (-1, 0)], ["1/20", "1/200"])
    d3 = GITData.make(2, [(1, 0), (3, 1), (3, -1), (-1, 0)], ["1/20", "1/300"])
    p246 = GITData.make(1, [(2,), (4,), (6,)], ["1"])
    fps = [fp for data in (KP2, RANK2, d2, d3, p246) for fp in fixed_point_list(data)]
    vanishing = nonvanishing = twisted = 0

    def pair(fp, i, k):
        r, m = fp.data.r, fp.data.m
        u = tuple(rng.randint(-4, 4) for _ in range(r))
        s = tuple(rng.randint(-2, 2) for _ in range(m))
        moved_u = tuple(a + k * d for a, d in zip(u, fp.data.character(i)))
        moved_s = tuple(b - k * (j == i) for j, b in enumerate(s, 1))
        return EquivClass(r, m, {(u, s): 1, (moved_u, moved_s): -1})

    for _ in range(20):
        for fp in fps:
            E = EquivClass.zero(fp.data.r, fp.data.m)
            for _ in range(rng.randint(1, 3)):
                E = E + rng.choice((-2, -1, 1, 3)) * pair(fp, rng.choice(fp.delta), rng.choice((-2, -1, 1, 2, 5)))
            for F in (E, E + pair(fp, rng.choice(fp.tangent_indices), rng.choice((-1, 1, 2)))):
                everywhere = all(restrict(F, fp, gi).is_zero() for gi in range(fp.group_order))
                assert untwisted_trace(F, fp).is_zero() == everywhere, (fp.delta, F)
                vanishing += everywhere and not F.is_zero()
                twisted += everywhere and not F.is_zero() and fp.group_order > 1
                nonvanishing += not everywhere
    assert vanishing >= 200 and nonvanishing >= 200 and twisted >= 80


def test_window_lift_noop_inside_window():
    wc = crossing(CONIFOLD)
    assert window_lift(wc, O(1)) == O(1)
    assert window_lift(wc, O(0)) == O(0)


def test_window_lift_conifold_o2():
    wc = crossing(CONIFOLD)
    sp, _ = kn_strata(wc)
    lifted = window_lift(wc, O(2))
    assert sorted(window_weights(lifted, sp)) == [0, 1, 1]
    assert in_window(lifted, Window(sp, 0))
    # restriction equality on the minus side is re-checked here explicitly
    from torickit.gitdata import fixed_points

    for delta in fixed_points(wc.data_minus):
        fp = fixed_point_data(wc.data_minus, delta)
        for gi in range(fp.group_order):
            assert restrict(lifted, fp, gi) == restrict(O(2), fp, gi)


def test_window_lift_kp2_o3():
    wc = crossing(KP2)
    sp, _ = kn_strata(wc)
    lifted = window_lift(wc, O(3))
    assert in_window(lifted, Window(sp, 0))
    assert all(0 <= w < 3 for w in window_weights(lifted, sp))


def test_window_lift_upshift():
    wc = crossing(CONIFOLD)
    sp, _ = kn_strata(wc)
    lifted = window_lift(wc, O(-1))
    assert in_window(lifted, Window(sp, 0))


def test_window_lift_multiple_passes():
    wc = crossing(CONIFOLD)
    sp, _ = kn_strata(wc)
    from torickit.gitdata import fixed_points

    for a in (4, -3):
        lifted = window_lift(wc, O(a))
        assert in_window(lifted, Window(sp, 0))
        for delta in fixed_points(wc.data_minus):
            fp = fixed_point_data(wc.data_minus, delta)
            assert restrict(lifted, fp, 0) == restrict(O(a), fp, 0)


def test_window_lift_other_bases():
    wc = crossing(CONIFOLD)
    sp, _ = kn_strata(wc)
    lifted = window_lift(wc, O(2), base=1)
    assert all(1 <= w < 3 for w in window_weights(lifted, sp))


def test_window_lift_far_outside_the_window():
    rank2 = make_wall_crossing(RANK2, ["1", "1"], ["-1", "1"])
    cases = [(crossing(CONIFOLD), 40), (crossing(KP2), 40), (rank2, 20)]
    for wc, a in cases:
        sp, _ = kn_strata(wc)
        r, m = wc.base.r, wc.base.m
        for sign in (1, -1):
            E = EquivClass.line(r, m, tuple(sign * a * x for x in wc.e))
            assert abs(window_weights(E, sp)[0]) >= a  # far outside [0, eta)
            lifted = window_lift(wc, E)  # checks every minus-side restriction
            assert in_window(lifted, Window(sp, 0))
            assert lifts_agree(wc, lifted, E)


def test_window_lift_is_linear():
    # the lift is unique, so it is additive whatever the order of the trades
    for data in (CONIFOLD, KP2):
        wc = crossing(data)
        a = EquivClass.line(1, data.m, (9,), (0, 1, 0, 0))
        b = EquivClass.line(1, data.m, (-7,), (0, 0, 2, 0), 3)
        assert window_lift(wc, a + b) == window_lift(wc, a) + window_lift(wc, b)


def test_window_lift_refuses_non_crepant():
    data = GITData.make(1, [(1,), (1,), (-1,)], ["1"])
    wc = crossing(data)
    with pytest.raises(NonCrepantError):
        window_lift(wc, EquivClass.line(1, 3, (2,)))


def test_lift_uniqueness_up_to_restriction_kernel():
    wc = crossing(CONIFOLD)
    lifted = window_lift(wc, O(2))
    # adding any multiple of the Koszul product does not change the class
    product = EquivClass.line(1, 4, (0,))
    for x in unstable_koszul_classes(wc):
        product = product.tensor(EquivClass.line(1, 4, (0,)) - x)
    other = lifted + O(1).tensor(product)
    assert lifts_agree(wc, lifted, other)
    assert not lifts_agree(wc, lifted, lifted + O(1))


def test_fm_euler_check_structure_sheaves():
    wc = crossing(CONIFOLD)
    ext = extend(wc)
    rep = fm_euler_check(wc, O(0), O(0), ext=ext)
    assert rep.equal
    # and the three structure-sheaf characters agree outright
    chi_t = euler_characteristic(ext.data_tilde, EquivClass.line(2, 5, (0, 0)))
    drop = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0]]
    assert rat_equal(rep.chi_resolution, chi_t.specialize(drop))


def test_fm_euler_check_twisted_pair():
    wc = crossing(CONIFOLD)
    ext = extend(wc)
    assert fm_euler_check(wc, O(1), O(0), ext=ext).equal
    assert fm_euler_check(wc, O(1), O(-1), ext=ext).equal


def test_fm_euler_check_with_genuine_lifts():
    wc = crossing(CONIFOLD)
    ext = extend(wc)
    assert fm_euler_check(wc, O(2), O(0), ext=ext).equal
    assert fm_euler_check(wc, O(0) + O(2), O(-1), ext=ext).equal
    wk = crossing(KP2)
    extk = extend(wk)
    assert fm_euler_check(wk, O(4), O(1), ext=extk).equal


def test_fm_euler_check_detects_wrong_window():
    wc = crossing(CONIFOLD)
    ext = extend(wc)
    assert not fm_euler_check(wc, O(1), O(0), window_base=-2, ext=ext).equal


def test_fm_refuses_non_crepant():
    data = GITData.make(1, [(1,), (1,), (-1,)], ["1"])
    wc = crossing(data)
    with pytest.raises(NonCrepantError):
        fm_euler_check(wc, EquivClass.line(1, 3, (0,)), EquivClass.line(1, 3, (0,)))


def test_fm_euler_check_on_rank_two_wall():
    # the extended conifold's own flop wall, driving a rank-3 extension
    data = GITData.make(2, [(1, -1), (1, -1), (-1, 0), (-1, 0), (0, 1)], ["1", "1"])
    wc = make_wall_crossing(data, ["1", "1"], ["-1", "1"])
    assert wc.crepant and wc.e == (1, 0)
    ext = extend(wc)
    assert (ext.data.r, ext.data.m) == (3, 6)
    sp, sm = kn_strata(wc)
    assert sp.eta == sm.eta == 2
    assert fm_euler_check(wc, EquivClass.line(2, 5, (1, 0)), EquivClass.line(2, 5, (0, 0)), ext=ext).equal
    assert fm_euler_check(wc, EquivClass.line(2, 5, (1, -1)), EquivClass.line(2, 5, (-1, 1)), ext=ext).equal


ISOTROPY_WALLS = ((1, 1, 2, -4), (2, 3, -5), (1, 1, 1, 1, -4))  # isotropy on both sides


def drawn_crepant_walls(count=6):
    """Seeded random rank-one crepant walls with both sides admissible."""
    from torickit.gitdata import validate

    rng = random.Random(7)
    out = []
    while len(out) < count:
        m = rng.randint(3, 5)
        weights = [(rng.randint(-2, 2),) for _ in range(m)]
        if sum(w[0] for w in weights) != 0:  # keep only crepant candidates
            continue
        if not any(w[0] > 0 for w in weights) or not any(w[0] < 0 for w in weights):
            continue
        data = GITData.make(1, weights, ["1"])
        if not validate(data).passed or not validate(data.with_omega(["-1"])).passed:
            continue
        out.append(data)
    return out


def test_fm_euler_check_on_random_crepant_walls():
    for data in drawn_crepant_walls():
        m = data.m
        wc = make_wall_crossing(data, ["1"], ["-1"])
        ext = extend(wc)
        assert fm_euler_check(wc, EquivClass.line(1, m, (1,)), EquivClass.line(1, m, (0,)), ext=ext).equal
        assert fm_euler_check(wc, EquivClass.line(1, m, (2,)), EquivClass.line(1, m, (-1,)), ext=ext).equal
    # three walls with isotropy on both sides, nine (L, M) pairs each
    for weights in ISOTROPY_WALLS:
        m = len(weights)
        wc = crossing(GITData.make(1, [(w,) for w in weights], ["1"]))
        with Budget("wall %s" % (weights,), "nine FM pairs", 1.0):
            ext = extend(wc)
            for a, b in itertools.product(range(3), range(-1, 2)):
                assert fm_euler_check(wc, EquivClass.line(1, m, (a,)), EquivClass.line(1, m, (b,)), ext=ext).equal


def sweep_cases():
    """(data, omega_plus, omega_minus, [(L, M), ...]): the benchmark's
    fm-sweep pairs, then the walls and pairs of
    ``test_fm_euler_check_on_random_crepant_walls``."""

    def lines(data, pairs):
        return [(EquivClass.line(data.r, data.m, u), EquivClass.line(data.r, data.m, v)) for u, v in pairs]

    cases = [
        (KP2, ["1"], ["-1"], lines(KP2, [((a,), (a - 1,)) for a in (0, 1, 2)])),
        (CONIFOLD, ["1"], ["-1"], lines(CONIFOLD, [((a,), (b,)) for a in (0, 1) for b in (-1, 0, 1)])),
        (RANK2, ["1", "1"], ["-1", "1"], lines(RANK2, [((1, 0), (0, 0)), ((1, -1), (-1, 1))])),
    ]
    cases += [(data, ["1"], ["-1"], lines(data, [((1,), (0,)), ((2,), (-1,))])) for data in drawn_crepant_walls()]
    for weights in ISOTROPY_WALLS:
        data = GITData.make(1, [(w,) for w in weights], ["1"])
        cases.append((data, ["1"], ["-1"], lines(data, [((a,), (b,)) for a in range(3) for b in range(-1, 2)])))
    return cases


def test_held_crossing_matches_fresh_crossing_per_pair():
    # one (wc, ext) held over a sweep reports, pair by pair, what a fresh
    # make_wall_crossing and extend report; its fixed points are the ones
    # the validating fixed_point_list builds for each chamber
    for data, plus, minus, pairs in sweep_cases():
        wc = make_wall_crossing(data, plus, minus)
        ext = extend(wc)
        for L, M in pairs:
            held = fm_euler_check(wc, L, M, ext=ext)
            fresh_wc = make_wall_crossing(data, plus, minus)
            fresh = fm_euler_check(fresh_wc, L, M, ext=extend(fresh_wc))
            assert (str(held.chi_resolution), str(held.chi_plus_side), held.equal) == (
                str(fresh.chi_resolution),
                str(fresh.chi_plus_side),
                fresh.equal,
            )
        assert wc.fixed_points_plus == tuple(fixed_point_list(wc.data_plus))
        assert wc.fixed_points_minus == tuple(fixed_point_list(wc.data_minus))
        assert ext.fixed_points_tilde == tuple(fixed_point_list(ext.data_tilde, ext.drop))


def test_fm_euler_check_refuses_an_extension_of_another_crossing():
    # the kp2 extension has the conifold's shapes, so reading it would give
    # a verdict on the wrong resolution
    wc = crossing(CONIFOLD)
    foreign = extend(crossing(KP2))
    for a, b in ((1, 0), (0, 0), (2, 1), (1, -1)):
        with pytest.raises(InputError):
            fm_euler_check(wc, O(a), O(b), ext=foreign)
    # an extension of an equal crossing built apart is its own
    assert fm_euler_check(wc, O(1), O(0), ext=extend(crossing(CONIFOLD))).equal


def test_pullbacks_reduce_on_both_sides():
    # chi of a pulled-back class at a side chamber equals the substituted
    # base chi: the contractions are honest identifications
    wc = crossing(CONIFOLD)
    ext = extend(wc)
    for a in (0, 1, 2):
        for side, data in (("-", wc.data_minus), ("+", wc.data_plus)):
            lhs = euler_characteristic(
                ext.data_tilde.with_omega(ext.omega_minus if side == "-" else ext.omega_plus),
                pullback_class(ext, side, O(a)),
            )
            rhs = euler_characteristic(data, O(a)).specialize(ext.substitution(side))
            assert rat_equal(lhs, rhs)


def test_fm_check_never_divides(monkeypatch):
    from torickit.exactalg import Factor

    def divided(self, p):
        raise AssertionError("rat_equal divided by a denominator factor")

    monkeypatch.setattr(Factor, "divide", divided)
    assert fm_euler_check(crossing(KP2), O(1), O(0)).equal


def test_fm_check_takes_no_root_of_unity(monkeypatch):
    from torickit.exactalg import Cyc

    def refused(theta):
        raise AssertionError("a root of unity was built on the FM path")

    monkeypatch.setattr(Cyc, "root_of_unity", staticmethod(refused))
    assert fm_euler_check(crossing(KP2), O(1), O(0)).equal
    assert fm_euler_check(crossing(KP2), O(4), O(1)).equal


def test_fm_check_and_lift_build_no_isotropy_group(monkeypatch):
    # both the lift's vanishing test and the Euler characteristics read the
    # untwisted trace, so no fixed point needs its isotropy group
    from torickit import localization

    def no_group(matrix):
        raise AssertionError("an isotropy group was built on the FM path")

    wk, rank2 = crossing(KP2), make_wall_crossing(RANK2, ["1", "1"], ["-1", "1"])
    lifted = window_lift(wk, O(4))
    monkeypatch.setattr(localization, "smith_normal_form", no_group)
    assert fm_euler_check(wk, O(1), O(0)).equal
    assert fm_euler_check(rank2, EquivClass.line(2, 5, (1, 0)), EquivClass.line(2, 5, (0, 0))).equal
    assert window_lift(wk, O(4)) == lifted and lifted != O(4)
